"""Micro-batching, admission-controlled query servers: one core, two executors.

The front-end of the serving subsystem.  Callers :meth:`~ModelServer.submit`
``predict_nodes``-shaped requests (or use the blocking
``predict_nodes`` / ``predict_proba_nodes`` wrappers, or a
:class:`repro.serve.client.ServeClient`); a scheduler forms
**micro-batches** — up to ``max_batch_size`` requests, waiting at most
``max_wait_ms`` after the first arrival — and answers each batch with a
single union sliced forward through :class:`repro.serve.BatchPlanner`,
so B concurrent single-node queries cost one receptive-field gather and
one model forward instead of B.  Results are bit-identical to calling
:meth:`repro.api.ModelHandle.predict_nodes` sequentially (the batched
equivalence guarantee; the tests pin it down).

One core, two executors
-----------------------
:class:`ModelServer` (scheduler threads in this process) and
:class:`ProcessReplicaServer` (spawned replica processes) share one
serving core that defines, once: the **in-flight table** of admitted
futures bounded by ``max_queue``; the **admission tail** of ``submit``
(register, publish ``(request_id, ids, proba, trace_ctx)``, re-check
the stop flag); **exactly-once resolution** — whoever removes a future
from the table resolves it; and the **lifecycle** with its telemetry
clock.  Each executor keeps only how a batch reaches the planner (a
thread calling it, or a replica answering over a response queue) and,
for :class:`ModelServer`, the hot cache, adaptive wait and
:meth:`~ModelServer.ingest`.  Both collect batches with
:func:`collect_batch`.

Admission control
-----------------
Beyond ``max_queue`` admitted, unanswered requests the server **sheds
load**: ``submit`` raises :class:`ServerOverloaded` immediately instead
of queueing unbounded work — the caller can back off, retry, or fail
fast.  Invalid requests (non-integer / out-of-range ids) are rejected
synchronously at ``submit`` with exactly the error the sequential
:class:`~repro.api.ModelHandle` path raises; they never consume
scheduler capacity.

Adaptive micro-batching
-----------------------
With ``adaptive_wait=True`` the scheduler stops treating ``max_wait_ms``
as a fixed delay and instead derives the *effective* wait from the
observed request inter-arrival rate (an EWMA maintained at ``submit``):
it waits roughly as long as filling the batch should take
(``(max_batch_size - 1) × inter-arrival``), capped at ``max_wait_ms``
— and waits **zero** when traffic is so sparse that no companion is
expected inside the cap (holding a lone request would only add
latency).  ``stats()`` reports both the EWMA and the current effective
wait.

Hot-query cache
---------------
``hot_cache_size > 0`` enables a small LRU of recent answers keyed on
``(operator generation, proba, ids bytes)``.  A repeated query is
answered at ``submit`` without touching the scheduler or the
receptive-field gather; hits are bit-identical because the cached value
*is* a previous batched answer from the same generation.  The
generation component makes invalidation atomic with
:meth:`~repro.api.ModelHandle.refresh`'s pointer swap — an entry from
an old generation can never answer a post-ingest query — and
:meth:`~ModelServer.ingest` additionally clears the cache to bound
stale residency.

Lifecycle
---------
On both servers ``stop()`` is idempotent (safe never-started, safe
twice), freezes ``uptime_seconds``/``throughput_rps`` at the stop
timestamp, and fails every request left in the in-flight table so no
caller blocks on a dead server — including requests racing the stop
itself.  A request a scheduler thread already claimed is answered, not
failed.  ``start()`` after ``stop()`` is refused while any worker
thread of the previous run is alive: two worker generations must never
serve the same queue.

Multi-process serving
---------------------
:class:`ProcessReplicaServer` replicas load the bundle through the
**memory-mapped operator tier** (:meth:`repro.api.ModelHandle.load`),
so N replicas share one OS-resident copy of the operators and
cold-start by mapping, not copying.  Use it when the GIL — not the
hardware — is the bottleneck; the thread server is lighter for
scipy-heavy forwards that release the GIL.  The pool is elastic
(:meth:`~ProcessReplicaServer.scale_to`, optionally driven by an
:class:`repro.serve.autoscale.AutoscalePolicy`).  If every replica
dies, the in-flight requests fail within one collector tick and
``submit`` refuses until a restart.
"""

from __future__ import annotations

import multiprocessing
import queue
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.slowlog import SlowRequestLog
from repro.obs.trace import TRACER
from repro.serve.batching import BatchPlanner

_NOT_RUNNING = "server is not running; call start() first"
_NO_LIVE_REPLICAS = (
    "no live replica: every replica process has exited; "
    "stop() and start() the server"
)


class ServerOverloaded(RuntimeError):
    """Raised by ``submit`` when the bounded request queue is full."""


class PredictionFuture:
    """Handle to one in-flight request; resolves to labels or proba.

    ``timings`` is filled by the scheduler when the request is answered
    through a batch: a ``{"queue_wait_s", "batch_assembly_s",
    "forward_s"}`` breakdown of the end-to-end latency (batch-level
    boundaries shared by every request in the batch).  It stays ``None``
    for hot-cache hits and failed batches.
    """

    def __init__(self):
        self._event = threading.Event()
        self._value: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self.submitted = time.perf_counter()
        self.completed: Optional[float] = None
        self.timings: Optional[Dict[str, float]] = None

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block for the answer; re-raises the request's own error."""
        if not self._event.wait(timeout):
            raise TimeoutError("prediction did not complete in time")
        if self._error is not None:
            raise self._error
        return self._value

    @property
    def latency(self) -> Optional[float]:
        """Submit → completion seconds (None while in flight)."""
        if self.completed is None:
            return None
        return self.completed - self.submitted

    def _finish(self, value=None, error=None) -> None:
        self._value = value
        self._error = error
        self.completed = time.perf_counter()
        self._event.set()


#: EWMA smoothing for the observed request inter-arrival gap (the
#: adaptive micro-batching signal): new = ALPHA*gap + (1-ALPHA)*old.
ARRIVAL_EWMA_ALPHA = 0.2


def collect_batch(request_queue, first, max_batch_size: int, wait_s: float) -> list:
    """Gather ``first``'s companions from ``request_queue`` into a batch.

    Waits for companions until ``wait_s`` after the call, then takes
    whatever is already queued without waiting more, stopping at
    ``max_batch_size``.  A ``None`` shutdown sentinel met on the way is
    put back for a sibling consumer and ends the batch.  Serves both the
    scheduler threads and the replica processes.
    """
    batch = [first]
    deadline = time.monotonic() + wait_s
    while len(batch) < max_batch_size:
        remaining = deadline - time.monotonic()
        try:
            if remaining > 0:
                item = request_queue.get(timeout=remaining)
            else:
                item = request_queue.get_nowait()
        except queue.Empty:
            break
        if item is None:
            request_queue.put(None)
            break
        batch.append(item)
    return batch


def _answer_batch(planner: BatchPlanner, batch: list, span_name: str):
    """One planner run over ``(request_id, ids, proba, ctx)`` items.

    Returns ``(answers, generation)``, one answer (array or exception)
    per item.  A batch-level failure answers every item with that
    exception and generation ``None``: a failed batch must neither wedge
    its callers nor kill the loop serving it.  The span parents the
    scheduler-side subtree into the first request's trace.
    """
    try:
        with TRACER.span(
            span_name, parent=batch[0][3], attrs={"batch_size": len(batch)}
        ):
            # validated=True: every request already passed check_ids at
            # submit — do not re-scan the hot path.
            return planner.run(
                [(ids, proba) for _, ids, proba, _ in batch],
                validated=True,
                return_generation=True,
            )
    except Exception as exc:
        return [exc] * len(batch), None


class _ServingCore:
    """Admission, lifecycle and future resolution shared by both servers.

    An executor subclass sets ``_request_queue``, implements
    ``_launch`` (returns its unstarted worker threads), optionally
    ``_retire`` (runs first in :meth:`stop`), and defines its own
    ``submit`` that validates a request and hands it to :meth:`_admit`.
    Its own guarded state may share ``_lock`` (reentrant), so one lock
    hold covers the core's counters and the executor's bookkeeping.
    """

    #: ``stats()`` counters beyond the shared ones.
    _EXTRA_COUNTERS: Tuple[str, ...] = ()
    #: :class:`ServerOverloaded` message; ``{max_queue}`` is filled in.
    _SHED_MESSAGE: str
    #: Default ``stop()`` join timeout, seconds.
    _STOP_TIMEOUT_S = 5.0

    def __init__(self, max_queue: int, component: str):
        self.max_queue = int(max_queue)
        self._request_queue = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._lock = threading.RLock()
        self._in_flight: Dict[int, PredictionFuture] = {}  # guarded-by: _lock
        self._next_id = 0  # guarded-by: _lock
        self._counters = dict.fromkeys(  # guarded-by: _lock
            ("requests", "answered", "failed", "shed") + self._EXTRA_COUNTERS,
            0,
        )
        self._started_at: Optional[float] = None  # guarded-by: _lock
        self._stopped_at: Optional[float] = None  # guarded-by: _lock
        # Last: the collector reads the executor's state set up before.
        self._obs = obs_metrics.REGISTRY.register(
            component, self._collect_metrics
        )

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def _launch(self) -> List[threading.Thread]:
        raise NotImplementedError

    def _retire(self, timeout: float) -> None:
        """Executor teardown that must precede joining the workers."""

    def start(self):
        """Launch the executor's workers (idempotent while running).

        Restarting after :meth:`stop` is allowed only once every worker
        from the previous run has exited — otherwise a wedged old
        worker and a fresh one would serve the same queue, and answers
        could keep flowing from a generation the caller believes dead.
        """
        self._threads = [t for t in self._threads if t.is_alive()]
        if self._threads:
            if self._stop.is_set():
                raise RuntimeError(
                    f"cannot restart: {len(self._threads)} worker(s) from "
                    "the previous run are still alive; wait for them to "
                    "finish their in-flight batch and call start() again"
                )
            return self
        self._stop.clear()
        with self._lock:
            self._started_at = time.perf_counter()
            self._stopped_at = None
        self._threads = self._launch()
        for thread in self._threads:
            thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop serving; fail every request still in the in-flight table.

        Idempotent: safe on a never-started server and safe to call
        twice.  Freezes the telemetry clock first (``uptime_seconds`` /
        ``throughput_rps`` stop growing or decaying), then retires the
        executor, then joins the workers — requests they already claimed
        are answered, the rest fail fast so no caller blocks forever.
        Workers that outlive ``timeout`` (default ``_STOP_TIMEOUT_S``)
        stay on the books, so a premature restart is refused rather than
        doubling up on the queue.
        """
        if timeout is None:
            timeout = self._STOP_TIMEOUT_S
        with self._lock:
            if self._started_at is not None and self._stopped_at is None:
                self._stopped_at = time.perf_counter()
        self._retire(timeout)
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = [t for t in self._threads if t.is_alive()]
        self._fail_pending()

    def _serving(self) -> bool:
        """Started and not (yet) stopped: the telemetry clock runs."""
        with self._lock:
            return self._started_at is not None and self._stopped_at is None

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------- #
    # Admission and resolution
    # ------------------------------------------------------------- #

    def _admit(self, ids: np.ndarray, proba: bool) -> PredictionFuture:
        """The admission tail of ``submit``: register, publish, re-check.

        Sheds with :class:`ServerOverloaded` once ``max_queue`` requests
        are in the table (``max_queue <= 0``: unbounded).  The re-check closes the submit/stop race:
        ``stop()`` may have failed the table between the caller's
        running-check and the publish, so anything stranded (possibly
        this request) is failed here instead of blocking forever.
        """
        future = PredictionFuture()
        ctx = TRACER.current_context() if TRACER.enabled else None
        with self._lock:
            if 0 < self.max_queue <= len(self._in_flight):
                self._counters["shed"] += 1
                raise ServerOverloaded(
                    self._SHED_MESSAGE.format(max_queue=self.max_queue)
                )
            request_id = self._next_id
            self._next_id += 1
            self._in_flight[request_id] = future
            self._counters["requests"] += 1
        self._request_queue.put((request_id, ids, proba, ctx))
        if self._stop.is_set():
            self._fail_pending()
        return future

    def _claim(self, request_ids) -> List[Optional[PredictionFuture]]:
        """Remove requests from the table; the caller must resolve each
        returned future.  ``None`` marks one already resolved elsewhere."""
        with self._lock:
            return [self._in_flight.pop(rid, None) for rid in request_ids]

    def _fail_pending(self, message: str = "server stopped") -> None:
        """Fail every future still in the in-flight table, exactly once."""
        with self._lock:
            pending = list(self._in_flight.values())
            self._in_flight.clear()
            self._counters["failed"] += len(pending)
        for future in pending:
            future._finish(error=RuntimeError(message))

    def _count(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                self._counters[name] += delta

    def predict_nodes(self, ids, timeout: Optional[float] = None) -> np.ndarray:
        """Blocking label query through the server."""
        return self.submit(ids, proba=False).result(timeout)

    def predict_proba_nodes(
        self, ids, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Blocking probability query through the server."""
        return self.submit(ids, proba=True).result(timeout)

    # ------------------------------------------------------------- #
    # Telemetry
    # ------------------------------------------------------------- #

    def stats(self) -> Dict[str, object]:
        """This server's registry snapshot (see the subclass collector)."""
        return self._obs.read()

    def _core_metrics(self) -> Dict[str, object]:
        """Counters, in-flight depth, and the frozen-at-stop clock.

        ``uptime_seconds`` and ``throughput_rps`` cover the
        started→stopped window: on a stopped server they freeze at the
        stop timestamp instead of decaying toward zero forever.
        """
        with self._lock:
            out: Dict[str, object] = dict(self._counters)
            out["in_flight"] = len(self._in_flight)
            started_at = self._started_at
            stopped_at = self._stopped_at
        if started_at is None:
            elapsed = 0.0
        else:
            end = stopped_at if stopped_at is not None else time.perf_counter()
            elapsed = max(0.0, end - started_at)
        out["uptime_seconds"] = elapsed
        out["throughput_rps"] = out["answered"] / elapsed if elapsed > 0 else 0.0
        return out


class ModelServer(_ServingCore):
    """Thread-pool micro-batching server over one :class:`ModelHandle`.

    Parameters
    ----------
    handle:
        A ready :class:`repro.api.ModelHandle`, or a bundle path —
        loaded through the memory-mapped operator tier.
    max_batch_size:
        Most requests coalesced into one union forward.
    max_wait_ms:
        How long a batch may wait for companions after its first
        request arrives.  ``0`` disables coalescing delay (batches
        still form from whatever is already queued).  With
        ``adaptive_wait`` this becomes the *cap* on the derived wait.
    max_queue:
        Bound on queued (admitted, unanswered) requests; beyond it
        :meth:`submit` sheds load with :class:`ServerOverloaded`.
    num_workers:
        Scheduler threads forming and answering batches concurrently.
    adaptive_wait:
        Derive the effective wait from the observed inter-arrival EWMA
        instead of always waiting ``max_wait_ms`` (see module docs).
    hot_cache_size:
        Entries in the hot-query LRU (``0`` disables).  Keys are
        ``(generation, proba, ids)``; hits skip the scheduler and the
        receptive-field gather entirely.
    pipeline:
        Optional prepared :class:`repro.api.Pipeline` backing the
        handle; enables :meth:`ingest` (live edge deltas without a
        restart).
    slow_log_size:
        How many worst-latency requests to keep (with their per-phase
        breakdown) under ``stats()["slow_requests"]``.
    """

    _EXTRA_COUNTERS = ("batches", "ingests", "cache_hits")
    _SHED_MESSAGE = "request queue full ({max_queue} pending); shedding load"

    def __init__(
        self,
        handle,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        num_workers: int = 1,
        adaptive_wait: bool = False,
        hot_cache_size: int = 0,
        pipeline=None,
        slow_log_size: int = 8,
    ):
        from repro.api.serving import ModelHandle

        if isinstance(handle, (str, Path)):
            handle = ModelHandle.load(handle)
        if max_batch_size < 1:
            raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
        if max_wait_ms < 0:
            raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if hot_cache_size < 0:
            raise ValueError(
                f"hot_cache_size must be >= 0, got {hot_cache_size}"
            )
        self.handle = handle
        self.pipeline = pipeline
        self.planner = BatchPlanner(handle)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_s = float(max_wait_ms) / 1000.0
        self.num_workers = int(num_workers)
        self.adaptive_wait = bool(adaptive_wait)
        self._hot_cache_size = int(hot_cache_size)
        # Batch shaping and cache state share the core's lock; the
        # lock-discipline rule of ``python -m repro.analysis`` enforces
        # the annotations below, and the runtime sanitizer traces them.
        self._latencies: deque = deque(maxlen=4096)  # guarded-by: _lock
        self._batch_sizes: deque = deque(maxlen=4096)  # guarded-by: _lock
        # Adaptive micro-batching signal: EWMA of the gap between
        # consecutive submits (seconds), maintained at admission.
        self._last_arrival: Optional[float] = None  # guarded-by: _lock
        self._arrival_ewma_s: Optional[float] = None  # guarded-by: _lock
        # Hot-query LRU: (generation, proba, ids bytes) -> answer copy.
        self._hot_cache: "OrderedDict" = OrderedDict()  # guarded-by: _lock
        # Serializes whole delta ingests (pipeline patch + handle
        # refresh); queries keep flowing — they only contend on the
        # handle's generation-pointer swap.
        self._ingest_lock = threading.Lock()
        # Observability: the worst-N request log (own leaf lock) and the
        # shared latency histogram (resolved once — the registry lookup
        # stays off the hot path).
        self._slow_log = SlowRequestLog(capacity=max(1, int(slow_log_size)))
        self._latency_hist = obs_metrics.REGISTRY.histogram(
            "repro_server_latency_seconds",
            help="End-to-end submit->answer latency per request",
        )
        super().__init__(max_queue, "server")
        self._request_queue = queue.SimpleQueue()

    def _launch(self) -> List[threading.Thread]:
        return [
            threading.Thread(
                target=self._worker_loop, name=f"repro-serve-{index}", daemon=True
            )
            for index in range(self.num_workers)
        ]

    # ------------------------------------------------------------- #
    # Request surface
    # ------------------------------------------------------------- #

    def submit(self, ids, proba: bool = False) -> PredictionFuture:
        """Admit one request; returns a :class:`PredictionFuture`.

        Validation happens here, synchronously, with the sequential
        path's own ``check_ids`` — so the error type *and message* for a
        bad request are identical whether it goes through the server or
        straight through the handle.  A hot-cache hit resolves the
        future immediately (bit-identical: the cached value is a prior
        answer from the same operator generation).  A full queue sheds
        the request with :class:`ServerOverloaded` (admission control).
        """
        if not self._threads:
            raise RuntimeError(_NOT_RUNNING)
        checked = self.handle.check_ids(ids)  # raises exactly like the handle
        proba = bool(proba)
        generation = self.handle.generation if self._hot_cache_size else 0
        now = time.monotonic()
        cached = None
        with self._lock:
            if self._last_arrival is not None:
                gap = now - self._last_arrival
                self._arrival_ewma_s = (
                    gap
                    if self._arrival_ewma_s is None
                    else ARRIVAL_EWMA_ALPHA * gap
                    + (1.0 - ARRIVAL_EWMA_ALPHA) * self._arrival_ewma_s
                )
            self._last_arrival = now
            if self._hot_cache_size:
                key = (generation, proba, checked.tobytes())
                cached = self._hot_cache.get(key)
                if cached is not None:
                    self._hot_cache.move_to_end(key)
                    self._count(requests=1, answered=1, cache_hits=1)
        if cached is None:
            return self._admit(checked, proba)
        future = PredictionFuture()
        future._finish(value=cached.copy())
        if TRACER.enabled:
            TRACER.record(
                "server.request",
                start_s=future.submitted,
                end_s=future.completed,
                parent=TRACER.current_context(),
                attrs={"ids": int(checked.size), "cache_hit": True},
            )
        return future

    # ------------------------------------------------------------- #
    # Live delta ingest
    # ------------------------------------------------------------- #

    def ingest(self, delta, pipeline=None) -> Dict[str, object]:
        """Apply an edge delta and refresh the served operators, live.

        Runs :meth:`repro.api.Pipeline.ingest` (row-scoped artifact
        patching) and then :meth:`repro.api.ModelHandle.refresh` — one
        atomic generation swap — so every request answered after this
        returns sees the new edges, without a restart and without
        stopping the scheduler.  Concurrent ingests are serialized;
        concurrent queries keep being answered throughout (each against
        a complete generation, old or new).  The hot-query cache is
        invalidated with the swap: keys carry the generation, so stale
        entries can never answer post-ingest queries, and the cache is
        cleared outright to bound dead residency.

        Returns a summary: the new operator generation, the patched
        stage actions, and the graph version.
        """
        pipeline = pipeline if pipeline is not None else self.pipeline
        if pipeline is None:
            raise RuntimeError(
                "no pipeline attached; pass pipeline= here or at "
                "construction to enable live ingest"
            )
        with self._ingest_lock:
            events = pipeline.ingest(delta)
            generation = self.handle.refresh(pipeline.data)
        with self._lock:
            self._count(ingests=1)
            self._hot_cache.clear()
        return {
            "generation": generation,
            "graph_version": pipeline.dataset.hin.version,
            "stages": [(event.stage, event.action) for event in events],
        }

    # ------------------------------------------------------------- #
    # Scheduler
    # ------------------------------------------------------------- #

    def _effective_wait_s(self) -> float:
        """Companion-wait for the batch being formed right now.

        Static mode returns ``max_wait_s`` unchanged.  Adaptive mode
        sizes the wait to the traffic: filling the rest of a batch
        should take about ``(max_batch_size - 1)`` inter-arrival gaps,
        so that is what we wait (capped at ``max_wait_s``) — and when
        the observed gap already exceeds the cap, no companion can be
        expected in time, so the request is served immediately.
        """
        if not self.adaptive_wait:
            return self.max_wait_s
        with self._lock:
            ewma = self._arrival_ewma_s
        return self._wait_for_ewma(ewma)

    def _wait_for_ewma(self, ewma: Optional[float]) -> float:
        """The control law, pure in the EWMA — lets ``stats()`` derive
        the effective wait from its own already-snapshotted EWMA instead
        of re-reading the live field (which could disagree with the rest
        of the snapshot)."""
        if not self.adaptive_wait or ewma is None:
            return self.max_wait_s
        if ewma >= self.max_wait_s:
            return 0.0
        return min(self.max_wait_s, ewma * (self.max_batch_size - 1))

    def _worker_loop(self) -> None:
        while not self._stop.is_set():
            try:
                first = self._request_queue.get(timeout=0.05)
            except queue.Empty:
                continue
            formed_at = time.perf_counter()
            batch = collect_batch(
                self._request_queue, first, self.max_batch_size,
                self._effective_wait_s(),
            )
            self._serve_batch(batch, formed_at, time.perf_counter())

    def _serve_batch(
        self, batch: list, formed_at: float, assembled_at: float
    ) -> None:
        # ``formed_at``/``assembled_at`` bound the companion-collection
        # window (perf_counter, same clock as PredictionFuture.submitted).
        futures = self._claim([item[0] for item in batch])
        # A request stop() failed before this worker claimed it is
        # already resolved: drop it from the batch.
        claimed = [
            (item, future)
            for item, future in zip(batch, futures)
            if future is not None
        ]
        if not claimed:
            return
        answers, generation = _answer_batch(
            self.planner, [item for item, _ in claimed], "server.batch"
        )
        forward_done = time.perf_counter()
        answered = 0
        for (_, future), answer in zip(claimed, answers):
            if isinstance(answer, Exception):
                future._finish(error=answer)
            else:
                future._finish(value=answer)
                answered += 1
        with self._lock:
            self._count(
                answered=answered, failed=len(claimed) - answered, batches=1
            )
            self._batch_sizes.append(len(claimed))
            if generation is None:  # the whole batch failed
                return
            for _, future in claimed:
                self._latencies.append(future.latency)
            if self._hot_cache_size:
                # Cache under the generation the batch actually ran
                # against (exact even if an ingest swapped generations
                # mid-batch: an entry keyed on the old generation is
                # unreachable to post-swap lookups).  Private copies keep
                # caller-side mutation of returned arrays from poisoning
                # the cache.
                for ((_, ids, proba, _), _), answer in zip(claimed, answers):
                    if isinstance(answer, Exception):
                        continue
                    key = (generation, proba, ids.tobytes())
                    self._hot_cache[key] = answer.copy()
                    self._hot_cache.move_to_end(key)
                while len(self._hot_cache) > self._hot_cache_size:
                    self._hot_cache.popitem(last=False)
        # Per-request telemetry runs after the futures resolved and
        # outside self._lock (slow log, tracer, and histogram each have
        # their own leaf lock).
        self._observe_batch(claimed, formed_at, assembled_at, forward_done)

    def _observe_batch(
        self,
        claimed: list,
        formed_at: float,
        assembled_at: float,
        forward_done: float,
    ) -> None:
        """Fill timings, feed the slow log, and re-emit request spans.

        The phase boundaries are batch-level: every request in a batch
        shares the formation/assembly/forward window; what differs per
        request is its queue wait (submit → batch formation).
        """
        tracing = TRACER.enabled
        batch_size = len(claimed)
        for (_, ids, proba, ctx), future in claimed:
            latency = future.latency
            timings = {
                "queue_wait_s": max(0.0, formed_at - future.submitted),
                "batch_assembly_s": max(0.0, assembled_at - formed_at),
                "forward_s": max(0.0, forward_done - assembled_at),
            }
            future.timings = timings
            self._latency_hist.observe(latency)
            trace_id = ctx.trace_id if ctx else None
            span = None
            if tracing:
                span = TRACER.record(
                    "server.request",
                    start_s=future.submitted,
                    end_s=future.completed,
                    parent=ctx,
                    attrs={
                        "ids": int(ids.size),
                        "proba": proba,
                        "batch_size": batch_size,
                    },
                )
                trace_id = span.trace_id
                bounds = (
                    ("server.queue_wait", future.submitted, formed_at),
                    ("server.batch_assembly", formed_at, assembled_at),
                    ("server.forward", assembled_at, forward_done),
                )
                for name, start_s, end_s in bounds:
                    TRACER.record(
                        name, start_s=start_s, end_s=end_s, parent=span.context
                    )
            self._slow_log.offer(
                latency,
                {
                    "name": "server.request",
                    "duration_s": latency,
                    "trace_id": trace_id,
                    "attrs": {
                        "ids": int(ids.size),
                        "proba": proba,
                        "batch_size": batch_size,
                    },
                    "children": [
                        {"name": "server.queue_wait",
                         "duration_s": timings["queue_wait_s"]},
                        {"name": "server.batch_assembly",
                         "duration_s": timings["batch_assembly_s"]},
                        {"name": "server.forward",
                         "duration_s": timings["forward_s"]},
                    ],
                },
            )

    # ------------------------------------------------------------- #
    # Telemetry
    # ------------------------------------------------------------- #

    def _collect_metrics(self) -> Dict[str, object]:
        """Registry collector (``repro_server_*``); ``stats()`` views it.

        Counters, batch shaping, latency quantiles, throughput, the
        adaptive-wait state and the cache, all read under one lock hold
        (including the EWMA the reported ``effective_wait_ms`` derives
        from).  ``slow_requests`` is the worst-latency ring buffer: each
        entry an end-to-end request span dict with its child phase
        breakdown.
        """
        with self._lock:
            out = self._core_metrics()
            latencies = np.asarray(self._latencies, dtype=np.float64)
            batch_sizes = np.asarray(self._batch_sizes, dtype=np.float64)
            arrival_ewma = self._arrival_ewma_s
            hot_entries = len(self._hot_cache)
        out["queue_depth"] = out.pop("in_flight")
        out["workers"] = self.num_workers
        out["running"] = any(t.is_alive() for t in self._threads)
        out["adaptive_wait"] = self.adaptive_wait
        # Derived from the snapshotted EWMA above — NOT a fresh read of
        # the live field, which could disagree with the snapshot.
        out["effective_wait_ms"] = self._wait_for_ewma(arrival_ewma) * 1000.0
        out["interarrival_ewma_ms"] = (
            arrival_ewma * 1000.0 if arrival_ewma is not None else None
        )
        out["hot_cache_size"] = self._hot_cache_size
        out["hot_cache_entries"] = hot_entries
        if batch_sizes.size:
            out["batch_size_mean"] = float(batch_sizes.mean())
            out["batch_size_max"] = int(batch_sizes.max())
        if latencies.size:
            out["latency_seconds"] = {
                "mean": float(latencies.mean()),
                "p50": float(np.percentile(latencies, 50)),
                "p95": float(np.percentile(latencies, 95)),
                "max": float(latencies.max()),
            }
        out["slow_requests"] = self._slow_log.snapshot()
        return out


# ------------------------------------------------------------------ #
# Multi-process executor
# ------------------------------------------------------------------ #


def _replica_loop(
    bundle_path: str,
    request_queue,
    response_queue,
    max_batch_size: int,
    max_wait_ms: float,
) -> None:
    """One replica process: map the bundle, micro-batch, answer.

    Spawn-safe module-level entry point.  Each replica opens the bundle
    through the mmap tier, so all replicas share one OS-resident
    operator copy; requests are the core's ``(request_id, ids, proba,
    ctx)`` tuples — ``ctx`` the submitter's trace context or ``None`` —
    and ``None`` is the shutdown sentinel.  One sentinel retires exactly
    one replica (:func:`collect_batch` puts one seen mid-batch back for
    a sibling), which is how :meth:`ProcessReplicaServer.scale_to`
    shrinks the pool without touching the survivors.  With
    ``REPRO_TRACE`` exported (the spawn env is inherited) each replica
    records ``replica.batch`` spans into its process-local tracer,
    parented into the submitter's trace via the shipped context.
    """
    from repro.api.serving import ModelHandle

    planner = BatchPlanner(ModelHandle.load(bundle_path))
    max_wait_s = float(max_wait_ms) / 1000.0
    while True:
        try:
            first = request_queue.get(timeout=0.1)
        except queue.Empty:
            continue
        if first is None:
            return
        batch = collect_batch(request_queue, first, max_batch_size, max_wait_s)
        answers, _ = _answer_batch(planner, batch, "replica.batch")
        for (request_id, _, _, _), answer in zip(batch, answers):
            if isinstance(answer, Exception):
                response_queue.put((request_id, False, repr(answer)))
            else:
                response_queue.put((request_id, True, answer))


class ProcessReplicaServer(_ServingCore):
    """Micro-batching serving across OS processes sharing one mmap tier.

    Every replica maps the *same* bundle sidecars, so memory cost is
    ~one operator copy total (plus per-process model weights, KBs) —
    the cross-process sharing the zero-copy store exists for.  The
    parent validates ids up front (same errors as the handle), ships
    requests over a shared queue, and a collector thread resolves
    futures as replicas answer.  Admission control is the core's: at
    most ``max_queue`` requests may be in flight (submitted,
    unanswered); beyond that :meth:`submit` sheds with
    :class:`ServerOverloaded`.  Start with ``with`` or :meth:`start`;
    replicas are spawned (not forked), so cold-start includes an
    interpreter boot each.

    Elastic replicas
    ----------------
    :meth:`scale_to` grows the pool by spawning and shrinks it by
    pushing shutdown sentinels through the shared request queue (each
    retires exactly one replica, lazily — the sentinel queues behind
    in-flight requests).  Pass ``autoscale=AutoscalePolicy(...)`` to
    drive it automatically from observed queue depth and shed rate
    with hysteresis; the controller's decisions show up under
    ``stats()["autoscale"]``.

    Replica death
    -------------
    On every idle tick the collector reaps the pool.  Once no replica
    is alive, nothing can answer the in-flight requests: it fails them
    with a ``RuntimeError`` and :meth:`submit` refuses until the server
    is stopped and started again.
    """

    _EXTRA_COUNTERS = ("scale_ups", "scale_downs")
    _SHED_MESSAGE = "{max_queue} requests in flight; shedding load"
    _STOP_TIMEOUT_S = 10.0

    def __init__(
        self,
        bundle_path: Union[str, Path],
        replicas: int = 2,
        max_batch_size: int = 32,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        start_timeout: float = 60.0,
        autoscale=None,
    ):
        from repro.api.serving import ModelHandle

        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.bundle_path = str(bundle_path)
        self.autoscale = autoscale
        if autoscale is not None:
            replicas = max(
                autoscale.min_replicas, min(autoscale.max_replicas, replicas)
            )
        self.replicas = int(replicas)
        self.max_batch_size = int(max_batch_size)
        self.max_wait_ms = float(max_wait_ms)
        self.start_timeout = float(start_timeout)
        # The parent's own mapped handle: used only for request
        # validation — and it pre-builds the sidecars, so replicas map
        # instead of racing to export.
        self.handle = ModelHandle.load(self.bundle_path)
        self._ctx = multiprocessing.get_context("spawn")
        self._response_queue = None
        self._autoscaler = None
        # Replica-pool bookkeeping: submitters, the collector, the
        # autoscaler thread, and stats() readers all look at the pool,
        # so it gets its own (reentrant — helpers re-enter) lock.
        self._scale_lock = threading.RLock()
        self._processes: List = []  # guarded-by: _scale_lock
        self._pending_retire = 0  # guarded-by: _scale_lock
        super().__init__(max_queue, "replica_server")

    # ------------------------------------------------------------- #
    # Lifecycle
    # ------------------------------------------------------------- #

    def _spawn_replica(self) -> None:
        """Add one replica process to the pool (callers hold no locks)."""
        process = self._ctx.Process(
            target=_replica_loop,
            args=(
                self.bundle_path,
                self._request_queue,
                self._response_queue,
                self.max_batch_size,
                self.max_wait_ms,
            ),
            daemon=True,
        )
        process.start()
        with self._scale_lock:
            self._processes.append(process)

    def _launch(self) -> List[threading.Thread]:
        self._request_queue = self._ctx.Queue()
        self._response_queue = self._ctx.Queue()
        for _ in range(self.replicas):
            self._spawn_replica()
        if self.autoscale is not None:
            from repro.serve.autoscale import ReplicaAutoscaler

            if self._autoscaler is None:
                self._autoscaler = ReplicaAutoscaler(self, self.autoscale)
            self._autoscaler.start()
        return [
            threading.Thread(
                target=self._collect_loop, name="repro-serve-collector", daemon=True
            )
        ]

    def _retire(self, timeout: float) -> None:
        """Retire every replica; terminate any that outlive ``timeout``.

        Runs before the collector is told to stop, so answers from
        replicas finishing the requests queued ahead of their sentinels
        still resolve their futures.
        """
        if self._autoscaler is not None:
            self._autoscaler.stop()
        with self._scale_lock:
            processes = list(self._processes)
            self._processes.clear()
            self._pending_retire = 0
        for _ in processes:
            self._request_queue.put(None)
        for process in processes:
            process.join(timeout)
            if process.is_alive():
                process.terminate()

    # ------------------------------------------------------------- #
    # Elastic replica pool
    # ------------------------------------------------------------- #

    def _reap(self) -> None:
        """Drop exited replicas from the pool (retired or crashed)."""
        with self._scale_lock:
            before = len(self._processes)
            self._processes[:] = [
                p for p in self._processes if p.is_alive()
            ]
            died = before - len(self._processes)
            if died:
                self._pending_retire = max(0, self._pending_retire - died)

    def live_replicas(self) -> int:
        """Replicas currently alive (after reaping exited ones)."""
        self._reap()
        with self._scale_lock:
            return len(self._processes)

    def scale_to(self, count: int) -> int:
        """Grow or shrink the replica pool toward ``count``; returns it.

        Growth spawns immediately; shrink pushes one shutdown sentinel
        per retired replica through the shared queue, so it lands only
        after the requests queued ahead of it — capacity never drops
        out from under admitted work.  ``count`` is clamped to the
        autoscale policy's ``[min_replicas, max_replicas]`` when one is
        attached, else to ``>= 1``.
        """
        count = int(count)
        if self.autoscale is not None:
            count = max(
                self.autoscale.min_replicas,
                min(self.autoscale.max_replicas, count),
            )
        if count < 1:
            raise ValueError(f"replica count must be >= 1, got {count}")
        if self._request_queue is None:
            raise RuntimeError(_NOT_RUNNING)
        self._reap()
        retire = 0
        with self._scale_lock:
            effective = len(self._processes) - self._pending_retire
            delta = count - effective
            if delta < 0:
                retire = -delta
                self._pending_retire += retire
        # The sentinel puts stay outside _scale_lock: put() on the shared
        # multiprocessing queue can block on pipe backpressure, and
        # blocking there would stall submit()'s running-check and the
        # autoscaler tick behind a full queue.  _pending_retire is
        # already bumped under the lock, so a concurrent scale_to sees
        # the correct effective capacity before the sentinels land.
        for _ in range(retire):
            self._request_queue.put(None)
        for _ in range(max(0, delta)):
            self._spawn_replica()
        if delta:
            self._count(**{"scale_ups" if delta > 0 else "scale_downs": 1})
        return count

    def autoscale_signals(self) -> Dict[str, float]:
        """The controller's inputs: queue depth, shed total, pool size."""
        core = self._core_metrics()
        self._reap()
        with self._scale_lock:
            replicas = len(self._processes) - self._pending_retire
        return {
            "queue_depth": float(core["in_flight"]),
            "shed_total": float(core["shed"]),
            "replicas": float(max(1, replicas)),
        }

    # ------------------------------------------------------------- #
    # Request surface
    # ------------------------------------------------------------- #

    def submit(self, ids, proba: bool = False) -> PredictionFuture:
        """Admit one request (validated with the handle's own errors).

        Sheds with :class:`ServerOverloaded` once ``max_queue`` requests
        are in flight — the bounded-work guarantee, kept by bounding the
        core's in-flight table (the multiprocessing queue itself cannot
        reject without blocking).  Refuses with ``RuntimeError`` when no
        replica is alive.
        """
        if not self.live_replicas():
            raise RuntimeError(
                _NO_LIVE_REPLICAS if self._serving() else _NOT_RUNNING
            )
        return self._admit(self.handle.check_ids(ids), bool(proba))

    # ------------------------------------------------------------- #
    # Telemetry and collector
    # ------------------------------------------------------------- #

    def _collect_metrics(self) -> Dict[str, object]:
        """Registry collector (``repro_replica_server_*``); ``stats()``
        views it.  Counters, pool shape, and throughput (frozen after
        stop); the core's fields are read under one lock hold."""
        out = self._core_metrics()
        self._reap()
        with self._scale_lock:
            out["replicas"] = len(self._processes)
            out["pending_retire"] = self._pending_retire
        if self._autoscaler is not None:
            out["autoscale"] = self._autoscaler.stats()
        return out

    def _collect_loop(self) -> None:
        while not self._stop.is_set():
            try:
                request_id, ok, payload = self._response_queue.get(timeout=0.1)
            except queue.Empty:
                # Idle tick.  The pool is read before the clock: stop()
                # freezes the clock before it empties the pool, so an
                # empty pool seen while serving is a crash, not a stop.
                if not self.live_replicas() and self._serving():
                    self._fail_pending(_NO_LIVE_REPLICAS)
                continue
            except (EOFError, OSError):
                return
            (future,) = self._claim([request_id])
            if future is None:
                continue
            self._count(answered=int(ok), failed=int(not ok))
            if ok:
                future._finish(value=payload)
            else:
                future._finish(error=RuntimeError(payload))
