"""The repository's benchmark: train, serve over HTTP, ingest under reads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload skewed|uniform --seed N \\
        --seconds S --trace 0|1

One run trains ConCH on a fixed synthetic DBLP fixture (the seed draws
the labelled split), brings up the HTTP serving stack, and then runs
four interleaved rounds of three open-loop phases: ``light`` and
``busy`` HTTP reads at fixed rates, and ``mixed`` in-process reads
while a second thread ingests edge deltas.  ``perfbench/README.md`` is
the record of sizes, rates and what each metric should move.

Every answer is checked against a reference computed another way, and
the run fails (exit 1, ``"correct": false``) on any mismatch.  The
workload sets how request ids are drawn: ``skewed`` (Zipf over a seeded
author permutation, so the hot cache and shared receptive fields are
used) or ``uniform`` (so they are bypassed).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` repeats the run with span tracing and
timing wrappers and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    print(
        f"perfbench: no repro package under {ROOT / 'src'}; run from a "
        "full checkout of the repository",
        file=sys.stderr,
    )
    sys.exit(2)
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
import system  # noqa: E402
from loadgen import IdSampler, percentile, poisson_schedule, run_open_loop  # noqa: E402

#: Zipf exponent of the request-id draw, per workload.
WORKLOADS = {"skewed": 1.1, "uniform": 0.0}

#: The timed phases run in interleaved rounds, so each metric's samples
#: span the whole run rather than one stretch of it (the machine's speed
#: drifts over seconds on a shared host).
ROUNDS = 4
#: The ``--seconds`` at which a round carries the request counts below;
#: other values scale them in proportion (never below the sample floors).
BASE_SECONDS = 20.0
LIGHT_RATE = 25.0
BUSY_RATE = 60.0
MIXED_RATE = 150.0
#: Requests per round at the base: light 2 s, busy 0.8 s (its p95
#: floor); the mixed phase lasts as long as its share of the ingests
#: (about 2 s).
LIGHT_REQUESTS = 50
BUSY_REQUESTS = 50
INGEST_PAUSE_S = 0.05
#: Set-ups timed right after training, and again after the rounds.
SETUP_REPEATS = 8
PROBE_REQUESTS = 25
#: Tail percentile reported per phase; each is printed only when the
#: phase carries at least ten samples beyond it.
TAILS = {"light": 90.0, "busy": 95.0, "mixed": 95.0}


class Check:
    """Correctness verdicts; any failure makes the whole run fail."""

    def __init__(self) -> None:
        self.failures: List[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures


class Report:
    """Named metrics with units; printed as lines and as the final JSON."""

    def __init__(self) -> None:
        self.metrics: Dict[str, Tuple[float, str]] = {}

    def add(self, name: str, value: float, unit: str, samples: Optional[int] = None):
        self.metrics[name] = (float(value), unit)
        self._print(name, value, unit, samples)

    def info(self, name: str, value: float, unit: str, samples: Optional[int] = None):
        """Printed for people, not in the JSON: too unsteady to gate on."""
        self._print(name, value, unit, samples, "  [info, ungated]")

    @staticmethod
    def _print(name, value, unit, samples, note=""):
        suffix = f"  (n={samples})" if samples is not None else ""
        print(f"  {name:<48} {value:14.6f} {unit}{suffix}{note}", flush=True)


# ------------------------------------------------------------------ #
# Phases
# ------------------------------------------------------------------ #


class HttpSenders:
    """One HTTP client per sender thread."""

    def __init__(self, url: str):
        from repro.serve import HttpServeClient

        self.clients = [HttpServeClient(url) for _ in range(loadgen.SENDERS)]

    def send(self, index: int, ids: np.ndarray) -> np.ndarray:
        return self.clients[index].predict_nodes(ids)

    def counters(self) -> Tuple[int, int]:
        return (
            sum(client.retried for client in self.clients),
            sum(client.dropped for client in self.clients),
        )


def http_phase(name, rate, count, sampler, rng, senders):
    schedule = poisson_schedule(sampler, rate, count, rng)
    return run_open_loop(name, schedule, rate, senders.send)


def check_http(result, reference, check) -> None:
    """Every HTTP answer equals the reference handle's labels."""
    for index in np.flatnonzero(result.ok):
        if not np.array_equal(result.answers[index], reference[result.ids[index]]):
            check.expect(False, f"{result.name}: request {index} labels "
                         "differ from the reference handle")
            return


class Mixed:
    """In-process server over the live pipeline: reads open-loop while a
    second thread ingests edge deltas (closed loop, fixed pause)."""

    def __init__(self, trained):
        from repro.api import ModelHandle
        from repro.serve import ModelServer

        self.server = ModelServer(
            ModelHandle.from_estimator(trained.estimator),
            pipeline=trained.pipeline, hot_cache_size=512, max_queue=1024,
        ).start()
        self.reads: List[Tuple[float, float, np.ndarray, object]] = []
        self.ingest_bounds: List[Tuple[float, float]] = []
        self.ingest_errors: List[str] = []
        self.stuck = False

    def round(self, deltas, sampler, rng, min_reads: int) -> None:
        from repro.serve import ServerOverloaded

        schedule = poisson_schedule(
            sampler, MIXED_RATE, max(min_reads, int(MIXED_RATE * 30)), rng
        )
        ingest_done = threading.Event()
        reads = []

        def ingester() -> None:
            try:
                for delta in deltas:
                    started = time.perf_counter()
                    self.server.ingest(delta)
                    self.ingest_bounds.append((started, time.perf_counter()))
                    time.sleep(INGEST_PAUSE_S)
            except Exception as exc:  # reported as a failed ingest
                self.ingest_errors.append(f"{type(exc).__name__}: {exc}")
            finally:
                ingest_done.set()

        def reader() -> None:
            start = time.perf_counter() + 0.05
            for index, ids in enumerate(schedule.ids):
                if ingest_done.is_set() and index >= min_reads:
                    return
                due = start + schedule.offsets[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                submitted = time.perf_counter()
                try:
                    future = self.server.submit(ids)
                except ServerOverloaded:
                    future = None
                reads.append((due, submitted, ids, future))

        threads = [
            threading.Thread(target=ingester, name="perfbench-ingest"),
            threading.Thread(target=reader, name="perfbench-read"),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120.0)
        self.stuck |= any(thread.is_alive() for thread in threads)
        for _, _, _, future in reads:
            if future is not None:
                try:
                    future.result(timeout=30.0)
                except TimeoutError:
                    self.stuck = True
                except Exception:  # counted as a failed read below
                    pass
        self.reads.extend(reads)

    def outcomes(self):
        """``(latencies_ms, failed, answers)`` over every read so far."""
        latencies, failed, answers = [], 0, []
        for due, _, _, future in self.reads:
            answer = None
            if future is not None and future.done():
                try:
                    answer = future.result(timeout=0)
                except Exception:
                    answer = None
            if answer is None:
                failed += 1
            else:
                latencies.append((future.completed - due) * 1000.0)
            answers.append(answer)
        return latencies, failed, answers

    def probe(self, sampler, scale):
        """Post-run answers on a seeded probe set (delta == cold check)."""
        probe = sampler.rng.choice(scale.authors, size=PROBE_REQUESTS * 8)
        answers = np.concatenate([
            self.server.predict_nodes(chunk, timeout=30.0)
            for chunk in np.split(probe, PROBE_REQUESTS)
        ])
        return probe, answers

    def close(self) -> None:
        self.server.stop()


def check_mixed(mixed, answers, references, probe, probe_answers, cold,
                check) -> None:
    """Each read matches the replayed reference at a generation that was
    current between its submission and its completion; the post-run
    probe matches both the replay and a cold rebuild of the edited graph."""
    starts = np.array([bounds[0] for bounds in mixed.ingest_bounds])
    ends = np.array([bounds[1] for bounds in mixed.ingest_bounds])
    check.expect(not mixed.stuck, "mixed: a generator thread or a "
                 "prediction future never finished")
    for (_, submitted, ids, future), answer in zip(mixed.reads, answers):
        if answer is None:
            continue
        lo = int((ends <= submitted).sum())
        hi = min(int((starts <= future.completed).sum()), len(references) - 1)
        if not any(
            np.array_equal(answer, references[g][ids]) for g in range(lo, hi + 1)
        ):
            check.expect(False, "mixed: a read differs from the replayed "
                         f"reference at every generation in [{lo}, {hi}]")
            break
    check.expect(
        np.array_equal(probe_answers, cold),
        "mixed: live answers after ingest differ from a cold rebuild",
    )
    check.expect(
        np.array_equal(probe_answers, references[-1][probe]),
        "mixed: live answers after ingest differ from the replayed reference",
    )


# ------------------------------------------------------------------ #
# Runs
# ------------------------------------------------------------------ #


def peak_rss_mb() -> float:
    """High-water mark of the process's RSS so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def current_rss_mb() -> float:
    """The process's live RSS now.

    Garbage is collected and freed heap is handed back to the system
    first (glibc ``malloc_trim``): whether malloc kept the ~200 MB that
    training freed otherwise decides the reading, not the live memory.
    """
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (AttributeError, OSError):  # not glibc: read RSS as it is
        pass
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * resource.getpagesize() / 2.0**20


STAT_KEYS = ("requests", "shed", "batches", "cache_hits")


def run(workload: str, seed: int, seconds: float, trace: bool,
        scale: system.Scale = system.FULL, work_root: Optional[Path] = None):
    """One benchmark run; returns ``(check, attempted, failed, report)``."""
    rng = np.random.default_rng([seed, 1])
    sampler = IdSampler(
        scale.authors, WORKLOADS[workload], np.random.default_rng([seed, 2])
    )
    deltas = system.make_deltas(
        scale, scale.ingests, np.random.default_rng([seed, 3])
    )
    factor = seconds / BASE_SECONDS
    light_n = max(-(-loadgen.min_samples(TAILS["light"]) // ROUNDS),
                  round(LIGHT_REQUESTS * factor))
    busy_n = max(-(-loadgen.min_samples(TAILS["busy"]) // ROUNDS),
                 round(BUSY_REQUESTS * factor))
    mixed_n = -(-loadgen.min_samples(TAILS["mixed"]) // ROUNDS)
    check, report = Check(), Report()
    probe = None
    if trace:
        from layers import LayerProbe

        probe = LayerProbe().install()
    work_root = Path(work_root or ROOT / ".perfbench_work")
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    stack = mixed = None
    began = time.perf_counter()

    def mark(step: str) -> None:
        print(f"  [{time.perf_counter() - began:6.1f} s] {step}"
              f"  (peak RSS {peak_rss_mb():.0f} MB)", flush=True)

    try:
        print(f"perfbench: workload {workload} seed {seed} "
              f"trace {int(trace)} {scale}", flush=True)
        trained = system.train(scale, seed)
        # Training's peak; set-up stays below it, serving rounds may not.
        train_peak_mb = peak_rss_mb()
        if probe:
            probe.drain("train")
        mark("trained")

        setup_s: List[float] = []

        def timed_set_up(repeat: int) -> system.HttpStack:
            gc.collect()  # the previous set-up's garbage is not this one's cost
            started = time.perf_counter()
            built = system.set_up(
                scale, trained.estimator, work / f"bundle{repeat}.npz"
            )
            setup_s.append(time.perf_counter() - started)
            return built

        for repeat in range(SETUP_REPEATS):
            if stack is not None:
                stack.close()
            stack = timed_set_up(repeat)
        bundle = work / f"bundle{SETUP_REPEATS - 1}.npz"
        senders = HttpSenders(stack.url)
        mixed = Mixed(trained)
        ready_rss_mb = current_rss_mb()
        embeddings = system.initial_embeddings(
            system.make_dataset(scale), trained.config
        )
        # Two replays of the deltas: references for the reads, a
        # determinism check, and two uncontended timings of every delta.
        # Each round's share goes through one replay before the round's
        # phases and through the other after them, so the timings of a
        # delta are seconds apart and the ingest metrics span the run.
        replays = [system.Replay(scale, trained, embeddings) for _ in range(2)]
        if probe:
            probe.drain("setup")
        mark("set up")

        # Interference on a shared host only ever slows a run down, so
        # the best of three trainings, at the start, middle and end of
        # the run, is the steadier estimate of what training costs.
        # Set-up likewise takes the best of its repeats from both ends.
        train_s = [trained.train_s]

        def train_again() -> None:
            again = system.train(scale, seed)
            train_s.append(again.train_s)
            check.expect(again.test_micro_f1 == trained.test_micro_f1,
                         "train: fits on the same split disagree")

        rounds = {"light": [], "busy": [], "untraced": []}
        server_stats = {phase: dict.fromkeys(STAT_KEYS, 0)
                        for phase in ("light", "busy")}
        engine_before = trained.pipeline.engine.stats()
        per_round = -(-len(deltas) // ROUNDS)
        for index in range(ROUNDS):
            share = deltas[index * per_round:(index + 1) * per_round]
            replays[0].apply(share)
            if probe:
                probe.drain("replay")
                # Same load with tracing off: the tracing-overhead base.
                from repro.obs import TRACER

                TRACER.disable()
                rounds["untraced"].append(http_phase(
                    "light-untraced", LIGHT_RATE, light_n, sampler, rng,
                    senders))
                TRACER.enable()
                probe.drain("untraced")
            for phase, rate, count in (("light", LIGHT_RATE, light_n),
                                       ("busy", BUSY_RATE, busy_n)):
                before = stack.server.stats()
                rounds[phase].append(
                    http_phase(phase, rate, count, sampler, rng, senders))
                after = stack.server.stats()
                for key in STAT_KEYS:
                    server_stats[phase][key] += after[key] - before[key]
                if probe:
                    probe.drain(phase)
            mixed.round(share, sampler, rng, mixed_n)
            if probe:
                probe.drain("mixed")
            replays[1].apply(share)
            if probe:
                probe.drain("replay")
            elif index == ROUNDS // 2 - 1:
                train_again()
            mark(f"round {index + 1} of {ROUNDS}")
        engine_after = trained.pipeline.engine.stats()
        results = {phase: loadgen.merge(phase, parts)
                   for phase, parts in rounds.items() if parts}
        retried, dropped = senders.counters()
        mixed_stats = mixed.server.stats()
        if probe:
            probe.uninstall()
        else:
            train_again()
            for repeat in range(SETUP_REPEATS, 2 * SETUP_REPEATS):
                timed_set_up(repeat).close()
        rss_mb = peak_rss_mb()
        for result in results.values():
            print("  " + result.summary(), flush=True)

        # ---- correctness against independent references -------------- #
        latencies, mixed_failed, answers = mixed.outcomes()
        probe_ids, probe_answers = mixed.probe(sampler, scale)
        reference = system.http_reference(bundle, scale.authors)
        for result in results.values():
            check_http(result, reference, check)
        references = replays[0].labels
        check.expect(
            all(np.array_equal(a, b)
                for a, b in zip(references, replays[1].labels)),
            "ingest: two replays of the same deltas disagree",
        )
        cold = system.cold_reference(
            scale, trained, deltas, embeddings, probe_ids
        )
        check_mixed(mixed, answers, references, probe_ids, probe_answers,
                    cold, check)
        check.expect(
            not mixed.ingest_errors and len(mixed.ingest_bounds) == len(deltas),
            f"mixed: ingests failed: {mixed.ingest_errors[:1]}",
        )
        check.expect(retried == 0 and dropped == 0,
                     f"HTTP clients retried {retried} and dropped {dropped}")
        mark("checked")

        timed = [results[phase] for phase in ("light", "busy")]
        attempted = sum(r.sent_count for r in timed)
        failed = sum(r.failed for r in timed)
        attempted += len(mixed.reads) + len(deltas)
        failed += mixed_failed + len(deltas) - len(mixed.ingest_bounds)
        ingest_ms = [min(pair) * 1000.0
                     for pair in zip(replays[0].seconds, replays[1].seconds)]
        contended_ms = [(end - start) * 1000.0
                        for start, end in mixed.ingest_bounds]
        if probe:
            report_layers(report, probe.phases, trained, results, mixed,
                          mixed_stats, engine_before, engine_after,
                          server_stats, probe.dropped)
        else:
            report.add("setup_s", min(setup_s), "s", len(setup_s))
            report.add("train_s", min(train_s), "s", len(train_s))
            report.add("test_micro_f1", trained.test_micro_f1, "ratio")
            light, busy = results["light"], results["busy"]
            report.add("light.p50_ms", light.tail_ms(50), "ms", light.sent_count)
            report.info("light.p90_ms", light.tail_ms(TAILS["light"]), "ms",
                        light.sent_count)
            report.info("busy.p50_ms", busy.tail_ms(50), "ms", busy.sent_count)
            report.info("busy.p95_ms", busy.tail_ms(TAILS["busy"]), "ms",
                        busy.sent_count)
            report.info("mixed.p50_ms", percentile(latencies, 50), "ms",
                        len(latencies))
            report.info("mixed.p95_ms", percentile(latencies, TAILS["mixed"]),
                        "ms", len(latencies))
            report.info("ingest.p50_ms", percentile(ingest_ms, 50), "ms",
                        len(ingest_ms))
            report.add("ingest.mean_ms", float(np.mean(ingest_ms)), "ms",
                       len(ingest_ms))
            report.info("mixed.ingest_p50_ms", percentile(contended_ms, 50),
                        "ms", len(contended_ms))
            report.add("peak_rss_mb", train_peak_mb, "MB")
            report.add("ready_rss_mb", ready_rss_mb, "MB")
            report.info("run.peak_rss_mb", rss_mb, "MB")
        return check, attempted, failed, report
    finally:
        if probe is not None:
            probe.uninstall()
        for closable in (stack, mixed):
            if closable is not None:
                closable.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()  # only when no other run is using it
        except OSError:
            pass


# ------------------------------------------------------------------ #
# Per-layer report (traced run)
# ------------------------------------------------------------------ #


def _timing_ms(futures, key: str) -> np.ndarray:
    values = [f.timings[key] * 1000.0 for f in futures if f.timings]
    return np.asarray(values, dtype=np.float64)


def _scheduler_layers(report, prefix: str, futures, stats: dict) -> None:
    """Queue wait / assembly / forward from each future's ``timings``."""
    for key in ("queue_wait", "batch_assembly", "forward"):
        values = _timing_ms(futures, key + "_s")
        report.add(f"{prefix}.serve.server.{key}_p50_ms",
                   float(np.median(values)) if values.size else 0.0, "ms",
                   values.size)
        report.add(f"{prefix}.serve.server.{key}_mean_ms",
                   float(values.mean()) if values.size else 0.0, "ms",
                   values.size)
    batched = stats["requests"] - stats["cache_hits"]
    report.add(f"{prefix}.serve.server.batches", stats["batches"], "count")
    report.add(f"{prefix}.serve.server.batch_size_mean",
               batched / max(stats["batches"], 1), "count", stats["batches"])
    report.add(f"{prefix}.serve.server.cache_hit_ratio",
               stats["cache_hits"] / max(stats["requests"], 1), "ratio",
               stats["requests"])
    report.add(f"{prefix}.serve.server.shed", stats["shed"], "count")


def _model_layers(report, prefix: str, layers) -> None:
    for layer in ("core.model.forward", "core.bipartite_conv.forward",
                  "core.semantic_attention.forward",
                  "autograd.sparse.row_normalize"):
        report.add(f"{prefix}.{layer}_s", layers.self_s.get(layer, 0.0), "s",
                   layers.calls.get(layer, 0))
    report.add(f"{prefix}.autograd.sparse.row_normalize_calls",
               layers.calls.get("autograd.sparse.row_normalize", 0), "count")


def _serving_layers(report, prefix: str, layers) -> None:
    report.add(f"{prefix}.api.serving.forward_many_s",
               layers.self_s.get("api.serving.forward_many", 0.0), "s")
    report.add(f"{prefix}.api.serving.forward_many_calls",
               layers.calls.get("api.serving.forward_many", 0), "count")
    fractions = layers.object_fractions
    report.add(f"{prefix}.api.serving.object_fraction",
               float(np.mean(fractions)) if fractions else 0.0, "ratio",
               len(fractions))
    _model_layers(report, prefix, layers)
    report.add(f"{prefix}.hin.engine.product_calls",
               layers.calls.get("hin.engine.product", 0), "count")


def _loadgen_layers(report, prefix: str, sent, succeeded, failed, late_ms, tail):
    report.add(f"{prefix}.loadgen.sent", sent, "count")
    report.add(f"{prefix}.loadgen.succeeded", succeeded, "count")
    report.add(f"{prefix}.loadgen.failed", failed, "count")
    report.add(f"{prefix}.loadgen.late_p{tail:g}_ms", percentile(late_ms, tail),
               "ms", len(late_ms))


def report_layers(report, traced, trained, results, mixed, mixed_stats,
                  engine_before, engine_after, server_stats, dropped):
    # ---- train ---------------------------------------------------- #
    train = traced["train"]
    for layer in ("api.pipeline.prepare", "api.pipeline.discover",
                  "api.pipeline.compose", "api.pipeline.enumerate",
                  "api.pipeline.featurize", "embedding.metapath2vec",
                  "hin.engine.product", "hin.context.enumerate",
                  "api.estimator.fit"):
        report.add(f"train.{layer}_s", train.self_s.get(layer, 0.0), "s",
                   train.calls.get(layer, 0))
    engine = trained.estimator.data.substrate_stats
    report.add("train.hin.engine.product_calls",
               train.calls.get("hin.engine.product", 0), "count")
    report.add("train.hin.engine.products_composed",
               engine["composed_products"], "count")
    lookups = engine["hits"] + engine["misses"]
    report.add("train.hin.engine.cache_hit_ratio",
               engine["hits"] / max(lookups, 1), "ratio", lookups)
    pairs = sum(
        sum(event.detail.get("pairs", []))
        for event in trained.pipeline.stage_log
        if event.stage == "enumerate" and event.action == "computed"
    )
    report.add("train.hin.context.pairs", pairs, "count")
    epochs = train.calls.get("core.trainer.epoch_loss", 0)
    report.add("train.core.trainer.epochs", epochs, "count")
    report.add("train.core.trainer.epoch_s", trained.fit_s / max(epochs, 1),
               "s", epochs)
    _model_layers(report, "train", train)
    report.add("train.train_s", trained.train_s, "s")
    # Self times partition the traced calls; their sum against the
    # externally timed prepare + fit shows how much the wrappers cover.
    report.add("train.attributed_frac",
               sum(train.self_s.values()) / trained.train_s, "ratio")

    # ---- HTTP phases --------------------------------------------- #
    for phase in ("light", "busy"):
        layers, result = traced[phase], results[phase]
        stats = server_stats[phase]
        _serving_layers(report, phase, layers)
        _scheduler_layers(report, phase, layers.futures, stats)
        dispatch_ms = layers.mean_ms("serve.http.dispatch")
        wire_ms = layers.mean_ms("serve.client.request") - dispatch_ms
        report.add(f"{phase}.serve.http.dispatch_ms", dispatch_ms, "ms",
                   layers.calls.get("serve.http.dispatch", 0))
        report.add(f"{phase}.serve.http.wire_ms", wire_ms, "ms")
        late = result.lateness_ms()
        _loadgen_layers(report, phase, result.sent_count, result.succeeded,
                        result.failed, late, TAILS[phase])
        # Mean latency (from due) against the sum of its measured parts:
        # generator lateness, wire, and the scheduler phases; the rest
        # is dispatch-side decoding, validation and serialization.
        latency = float(result.latencies_ms().mean())
        scheduler = sum(
            _timing_ms(layers.futures, key).sum()
            for key in ("queue_wait_s", "batch_assembly_s", "forward_s")
        ) / max(result.succeeded, 1)
        report.add(f"{phase}.latency_mean_ms", latency, "ms", result.succeeded)
        report.add(f"{phase}.attributed_frac",
                   (float(late.mean()) + wire_ms + scheduler) / latency, "ratio")

    # ---- mixed: reads under ingest --------------------------------- #
    layers = traced["mixed"]
    for layer in ("api.pipeline.ingest", "hin.graph.apply_delta",
                  "hin.context.patch", "hin.engine.product",
                  "api.serving.refresh", "serve.server.ingest"):
        report.add(f"mixed.{layer}_s", layers.self_s.get(layer, 0.0), "s",
                   layers.calls.get(layer, 0))
    patched = {
        key: engine_after[key] - engine_before[key]
        for key in ("patched_products", "patched_rows", "patched_views",
                    "composed_products")
    }
    for key in ("patched_products", "patched_rows", "patched_views"):
        report.add(f"mixed.hin.engine.{key}", patched[key], "count")
    report.add("mixed.hin.engine.patch_ratio",
               patched["patched_products"]
               / max(patched["patched_products"] + patched["composed_products"], 1),
               "ratio")
    _serving_layers(report, "mixed", layers)
    _scheduler_layers(report, "mixed", layers.futures, mixed_stats)
    late = [max(0.0, submitted - due) * 1000.0
            for due, submitted, _, _ in mixed.reads]
    _, failed, _ = mixed.outcomes()
    _loadgen_layers(report, "mixed", len(mixed.reads),
                    len(mixed.reads) - failed, failed, late, TAILS["mixed"])

    # ---- obs: what tracing itself costs --------------------------- #
    untraced = results["untraced"].tail_ms(50)
    traced_p50 = results["light"].tail_ms(50)
    report.add("obs.untraced_light_p50_ms", untraced, "ms")
    report.add("obs.traced_light_p50_ms", traced_p50, "ms")
    report.add("obs.tracing_overhead_pct",
               (traced_p50 - untraced) / untraced * 100.0, "%")
    report.add("obs.spans_dropped", dropped, "count")


# ------------------------------------------------------------------ #
# Entry point
# ------------------------------------------------------------------ #


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    check, attempted, failed, report = run(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    for failure in check.failures:
        print(f"perfbench: CHECK FAILED: {failure}", flush=True)
    print(json.dumps({
        "correct": check.ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in report.metrics.items()
        },
    }), flush=True)
    return 0 if check.ok else 1


if __name__ == "__main__":
    sys.exit(main())
