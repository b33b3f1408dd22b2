"""Per-layer attribution for the traced run.

:class:`LayerProbe` wraps public entry points of each module (patched
where callers look them up) in ``repro.obs.TRACER`` spans, so the
program's own spans and the benchmark's share one parent chain.  After
each phase the finished spans are exported once as a Chrome trace and
reduced to per-layer calls, busy seconds and self seconds: a span's
duration minus the part of it covered by its nearest benchmark
descendants.  Nothing under ``src/`` changes; uninstalling restores
every original attribute.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.obs import TRACER

PREFIX = "perfbench:"

#: (module, class or None, attribute, layer name).  Functions are
#: patched in the module that calls them, because the callers bind the
#: name at import or look it up at call time there.
TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.api.pipeline", "Pipeline", "prepare", "api.pipeline.prepare"),
    ("repro.api.pipeline", "Pipeline", "discover", "api.pipeline.discover"),
    ("repro.api.pipeline", "Pipeline", "compose", "api.pipeline.compose"),
    ("repro.api.pipeline", "Pipeline", "enumerate", "api.pipeline.enumerate"),
    ("repro.api.pipeline", "Pipeline", "featurize", "api.pipeline.featurize"),
    ("repro.api.pipeline", "Pipeline", "ingest", "api.pipeline.ingest"),
    ("repro.embedding.metapath2vec", None, "metapath2vec_embeddings",
     "embedding.metapath2vec"),
    # Every public engine view funnels through the memoized chain
    # lookup; its self time is composition work.
    ("repro.hin.engine", "CommutingEngine", "_product", "hin.engine.product"),
    ("repro.hin.context", None, "enumerate_contexts", "hin.context.enumerate"),
    ("repro.hin.context", None, "patch_context_batch", "hin.context.patch"),
    ("repro.hin.graph", "HIN", "apply_delta", "hin.graph.apply_delta"),
    ("repro.api.estimator", "ConCHEstimator", "fit", "api.estimator.fit"),
    ("repro.core.trainer", "ConCHTrainer", "_epoch_losses",
     "core.trainer.epoch_loss"),
    ("repro.core.model", "ConCH", "embed", "core.model.forward"),
    ("repro.core.bipartite_conv", "BipartiteConv", "forward",
     "core.bipartite_conv.forward"),
    ("repro.core.semantic_attention", "SemanticAttention", "forward",
     "core.semantic_attention.forward"),
    ("repro.core.bipartite_conv", None, "row_normalize",
     "autograd.sparse.row_normalize"),
    ("repro.api.serving", "ModelHandle", "forward_many",
     "api.serving.forward_many"),
    ("repro.api.serving", "ModelHandle", "refresh", "api.serving.refresh"),
    ("repro.serve.server", "ModelServer", "ingest", "serve.server.ingest"),
    ("repro.serve.http", "HttpServer", "dispatch", "serve.http.dispatch"),
    ("repro.serve.http", "HttpServeClient", "predict_nodes",
     "serve.client.request"),
]

#: Large enough that the busiest phase fits between two drains.
TRACE_CAPACITY = 1 << 17


class LayerStats:
    """Calls, busy seconds and self seconds per layer for one phase."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.busy_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.object_fractions: List[float] = []
        self.futures: List[object] = []

    def merge(self, other: "LayerStats") -> None:
        for layer, calls in other.calls.items():
            self.calls[layer] += calls
            self.busy_s[layer] += other.busy_s[layer]
            self.self_s[layer] += other.self_s[layer]
        self.object_fractions.extend(other.object_fractions)
        self.futures.extend(other.futures)

    def mean_ms(self, layer: str) -> float:
        calls = self.calls.get(layer, 0)
        return self.busy_s.get(layer, 0.0) / calls * 1000.0 if calls else 0.0


def _covered(start: float, end: float, spans: List[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``spans``."""
    total, cursor = 0.0, start
    for lo, hi in sorted(spans):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def reduce_trace(events: List[dict]) -> LayerStats:
    """Per-layer calls, busy and self seconds from Chrome trace events."""
    by_id = {event["args"]["span_id"]: event for event in events}
    ours = [event for event in events if event["name"].startswith(PREFIX)]
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for event in ours:
        parent = event["args"].get("parent_id")
        while parent in by_id and not by_id[parent]["name"].startswith(PREFIX):
            parent = by_id[parent]["args"].get("parent_id")
        if parent in by_id:
            start = event["ts"] / 1e6
            children[parent].append((start, start + event["dur"] / 1e6))
    stats = LayerStats()
    for event in ours:
        layer = event["name"][len(PREFIX):]
        start = event["ts"] / 1e6
        duration = event["dur"] / 1e6
        covered = _covered(
            start, start + duration, children.get(event["args"]["span_id"], [])
        )
        stats.calls[layer] += 1
        stats.busy_s[layer] += duration
        stats.self_s[layer] += max(0.0, duration - covered)
    return stats


class LayerProbe:
    """Install/uninstall the timing wrappers and drain the trace per phase."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self.futures: List[object] = []
        #: Receptive-field share of each union forward (from the
        #: handle's ``last_query_stats``), reset by every drain.
        self.object_fractions: List[float] = []
        self.phases: Dict[str, LayerStats] = {}
        self.dropped = 0

    def _wrap(self, owner, attr: str, layer: str) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        name = PREFIX + layer
        fractions = (
            self.object_fractions
            if layer == "api.serving.forward_many" else None
        )

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with TRACER.span(name):
                result = original(*args, **kwargs)
            if fractions is not None:
                stats = args[0].last_query_stats
                fractions.append(stats.get("object_fraction", 0.0))
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> "LayerProbe":
        # A fresh, larger ring buffer (the default holds 8192 spans):
        # spans stay in memory until the phase ends and are drained once.
        TRACER.__init__(capacity=TRACE_CAPACITY)
        for module_name, class_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            self._wrap(owner, attr, layer)
        # Scheduler timings live on each request's PredictionFuture.
        from repro.serve.server import ModelServer

        submit = ModelServer.__dict__["submit"]
        futures = self.futures

        @functools.wraps(submit)
        def collecting_submit(server, *args, **kwargs):
            future = submit(server, *args, **kwargs)
            futures.append(future)
            return future

        self._saved.append((ModelServer, "submit", submit))
        ModelServer.submit = collecting_submit
        TRACER.enable()
        return self

    def uninstall(self) -> None:
        TRACER.disable()
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        TRACER.clear()

    def drain(self, phase: str) -> LayerStats:
        """Fold the spans and futures finished since the last drain into
        ``phase`` (phases run in rounds, so a phase drains many times).

        Call only when the system is quiescent, so no span is lost
        between the export and the clear.
        """
        events = TRACER.export_chrome()
        self.dropped += TRACER.dropped()
        TRACER.clear()
        stats = reduce_trace(events)
        stats.object_fractions, self.object_fractions[:] = (
            list(self.object_fractions), []
        )
        stats.futures, self.futures[:] = list(self.futures), []
        self.phases.setdefault(phase, LayerStats()).merge(stats)
        return self.phases[phase]
