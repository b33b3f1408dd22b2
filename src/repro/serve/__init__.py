"""``repro.serve`` — the traffic-serving subsystem.

The paper's model answers per-node label queries from fixed, precomputed
meta-path operators — a read-heavy serving workload.  This package turns
the repo's batch reproduction into a query *server* in three layers,
each usable on its own:

:class:`~repro.serve.batching.BatchPlanner`
    Pure request coalescing: validate each request independently, run
    **one** receptive-field union slice + model forward for the whole
    batch (:meth:`repro.api.ModelHandle.forward_many`), scatter answers
    back — bit-identical to sequential queries, including which
    requests error and with what message.

:mod:`~repro.serve.server` — one serving core, two executors
    A micro-batching scheduler (``max_batch_size`` / ``max_wait_ms``)
    behind one admission/lifecycle core: a bounded in-flight table
    with load shedding (:class:`~repro.serve.server.ServerOverloaded`),
    futures resolved exactly once, and a stop-safe lifecycle.
    :class:`~repro.serve.server.ModelServer` executes batches on
    threads (plus a hot cache, adaptive wait and live ingest);
    :class:`~repro.serve.server.ProcessReplicaServer` ships them to
    spawned replicas, with elastic replica counts (optionally driven
    by an :class:`~repro.serve.autoscale.AutoscalePolicy`).

:class:`~repro.serve.http.HttpServer`
    The network front door: a stdlib-only HTTP facade over
    ``ModelServer`` (``/predict``, ``/predict_proba``, ``/stats``,
    ``/ingest``, ``/metrics``) that preserves in-process error types
    and messages on the wire; :class:`~repro.serve.http.HttpServeClient`
    keeps :class:`~repro.serve.client.ServeClient`'s exact surface over
    HTTP, including shed-retry.

Observability (:mod:`repro.obs`)
    Every layer publishes into the unified telemetry subsystem: spans
    (``server.request`` with queue-wait/assembly/forward children,
    ``http.<route>`` stitched across the wire via ``traceparent``
    headers), registry metrics (``repro_server_*`` etc., exported at
    ``GET /metrics``), and a worst-N ``stats()["slow_requests"]`` log.
    Tracing is off by default; enable with ``repro.obs.TRACER.enable()``
    or ``REPRO_TRACE=1``.

The zero-copy substrate
    Both servers load bundles through the memory-mapped operator tier
    (:meth:`repro.api.ModelHandle.load`; sidecar plumbing in
    :mod:`repro.hin.cache`), and pipelines sharing a store dir reuse
    each other's composed products via the same mmap sidecars — so
    **co-located workers share one OS-resident copy** of every operator
    and cold-start by mapping files, not recomposing or copying.

Quickstart
----------
>>> from repro.serve import ModelServer, ServeClient
>>> server = ModelServer("conch.npz", max_batch_size=64)   # doctest: +SKIP
>>> with server:                                           # doctest: +SKIP
...     client = ServeClient(server)
...     client.predict_nodes([0, 7, 7])     # duplicates answered per slot
...     server.stats()["latency_seconds"]
See ``examples/serving_under_load.py`` for a full concurrent-load run.
"""

from repro.serve.autoscale import AutoscalePolicy, ReplicaAutoscaler
from repro.serve.batching import BatchItem, BatchPlanner
from repro.serve.client import ServeClient
from repro.serve.http import HttpServeClient, HttpServer
from repro.serve.server import (
    ModelServer,
    PredictionFuture,
    ProcessReplicaServer,
    ServerOverloaded,
)

__all__ = [
    "AutoscalePolicy",
    "BatchItem",
    "BatchPlanner",
    "HttpServeClient",
    "HttpServer",
    "ModelServer",
    "PredictionFuture",
    "ProcessReplicaServer",
    "ReplicaAutoscaler",
    "ServeClient",
    "ServerOverloaded",
]
