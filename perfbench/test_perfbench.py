"""Self-test of the benchmark at a tiny fixture.

Run from the repository root::

    python3 -m pytest perfbench -q

Each workload runs once untraced and once traced; every metric listed
in ``BENCHMARK.json`` must print with its unit, and an injected wrong
label must make the correctness check fail.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import system  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(tmp_path, workload: str, trace: bool):
    return run.run(workload, seed=3, seconds=2.0, trace=trace,
                   scale=system.TINY, work_root=tmp_path)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tmp_path, workload, trace):
    check, attempted, failed, report = _run(tmp_path, workload, trace)
    assert check.ok, check.failures
    assert attempted > 0 and failed == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert sorted(report.metrics) == sorted(m["name"] for m in expected)
    for metric in expected:
        value, unit = report.metrics[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert np.isfinite(value), metric["name"]


def test_a_flipped_label_fails_the_run(tmp_path, monkeypatch):
    """Served answers go through ``ModelHandle.forward_many``; the
    references do not, so corrupting one served row must be caught."""
    from repro.api.serving import ModelHandle

    original = ModelHandle.forward_many
    flipped = []

    def flip_first(self, *args, **kwargs):
        out = original(self, *args, **kwargs)
        answers = out[0] if isinstance(out, tuple) else out
        if not flipped and answers and answers[0].size:
            row = answers[0][0]
            row[(row.argmax() + 1) % row.size] = row.max() + 1.0
            flipped.append(True)
        return out

    monkeypatch.setattr(ModelHandle, "forward_many", flip_first)
    check, _, _, _ = _run(tmp_path, "uniform", trace=False)
    assert flipped
    assert not check.ok
    assert any("differ" in failure for failure in check.failures)


def test_a_bare_directory_exits_without_a_result(tmp_path):
    """Without the repository's sources the command fails fast."""
    import subprocess

    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "uniform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
