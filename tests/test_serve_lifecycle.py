"""Serving lifecycle: stop/submit races, restart guards, frozen clocks.

What must hold (the bugs this file pins down stayed fixed):

1. **No stranded callers** — a ``submit`` racing ``stop()`` on either
   server class always resolves its future (answer or error) instead of
   leaving the caller blocked forever; a sanitizer-instrumented stress
   run sees zero stranded futures and zero lock-discipline findings.
2. **Idempotent teardown** — ``stop()`` is safe on a never-started
   server (no ``AttributeError`` from a ``None`` request queue) and
   safe to call twice on both classes.
3. **Honest telemetry** — ``uptime_seconds`` / ``throughput_rps``
   freeze at the stop timestamp instead of decaying toward zero on a
   stopped server.
4. **Restart safety** — ``start()`` after ``stop()`` works once the old
   workers exited, and is *refused* while a wedged worker from the
   previous run could still serve the shared queue.
5. **Elastic replicas** — ``ProcessReplicaServer.scale_to`` grows and
   shrinks the live pool without disturbing in-flight correctness.
6. **Replica death** — once no replica is alive, every in-flight
   request fails with a defined ``RuntimeError`` within a bound and
   ``submit`` refuses, whether the replica crashed or died at boot.
7. **Executor parity** — one seeded request mix answers bit-identically
   through ``ModelServer``, ``ProcessReplicaServer`` and the sequential
   handle, with identical submit-time error types and messages.

Contracts 1–4 and 7 belong to the serving core both classes share, so
they run over both executors.
"""

from __future__ import annotations

import os
import shutil
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro import api
from repro.analysis.sanitizer import ThreadSanitizer, instrument
from repro.api import ConCHEstimator, ModelHandle
from repro.core import ConCHConfig
from repro.data import DBLPConfig, load_dataset, stratified_split
from repro.serve import ModelServer, ProcessReplicaServer, ServerOverloaded


@pytest.fixture(scope="module")
def dblp_tiny():
    return load_dataset(
        "dblp",
        config=DBLPConfig(num_authors=80, num_papers=250, num_conferences=8),
    )


@pytest.fixture(scope="module")
def tiny_config():
    return ConCHConfig(
        k=3,
        num_layers=2,
        context_dim=8,
        embed_num_walks=2,
        embed_walk_length=8,
        embed_epochs=1,
        epochs=8,
        patience=5,
    )


@pytest.fixture(scope="module")
def bundle_path(dblp_tiny, tiny_config, tmp_path_factory):
    split = stratified_split(dblp_tiny.labels, 0.2, seed=0)
    estimator = ConCHEstimator(
        api.Pipeline(dblp_tiny, config=tiny_config).data, tiny_config
    ).fit(split)
    path = tmp_path_factory.mktemp("bundle") / "conch.npz"
    estimator.save(path)
    return path


@pytest.fixture(scope="module")
def handle(bundle_path):
    return ModelHandle.load(bundle_path)


def resolve_all(futures, timeout: float = 10.0) -> int:
    """Resolve every future; return how many were stranded (timed out)."""
    stranded = 0
    for future in futures:
        try:
            future.result(timeout=timeout)
        except TimeoutError:
            stranded += 1
        except RuntimeError:
            pass  # "server stopped" is a *resolved* future — the point
    return stranded


# ---------------------------------------------------------------------- #
# Contracts of the shared serving core, over both executors
# ---------------------------------------------------------------------- #


@pytest.fixture(params=["thread", "process"])
def make_server(request, handle, bundle_path):
    """Build either executor with the core's common options."""

    def make(**options):
        if request.param == "thread":
            return ModelServer(handle, **options)
        return ProcessReplicaServer(bundle_path, replicas=1, **options)

    make.kind = request.param
    return make


class TestLifecycleContracts:
    def test_stop_never_started_and_twice(self, make_server):
        server = make_server()
        server.stop()  # regression: used to AttributeError on None queue
        server.stop()  # idempotent
        stats = server.stats()
        assert stats.get("running", False) is False
        assert stats["uptime_seconds"] == 0.0
        assert stats["throughput_rps"] == 0.0
        with pytest.raises(RuntimeError, match="not running"):
            server.submit([0])

    def test_stop_twice_after_running(self, make_server):
        server = make_server(max_wait_ms=0).start()
        assert server.predict_nodes([1], timeout=60.0).shape == (1,)
        server.stop()
        server.stop()
        with pytest.raises(RuntimeError, match="not running"):
            server.submit([1])

    def test_telemetry_freezes_at_stop(self, make_server):
        server = make_server(max_wait_ms=0).start()
        for _ in range(3):
            server.predict_nodes([2, 3], timeout=60.0)
        server.stop()
        first = server.stats()
        time.sleep(0.05)
        second = server.stats()
        # The clock froze at stop: neither uptime nor throughput drifts.
        assert first["uptime_seconds"] == second["uptime_seconds"]
        assert first["throughput_rps"] == second["throughput_rps"]
        assert second["uptime_seconds"] > 0.0
        assert second["throughput_rps"] > 0.0

    def test_restart_after_clean_stop(self, make_server):
        server = make_server(max_wait_ms=0)
        with server:
            before = server.predict_nodes([5], timeout=60.0)
        server.start()
        try:
            after = server.predict_nodes([5], timeout=60.0)
        finally:
            server.stop()
        np.testing.assert_array_equal(before, after)

    def test_submit_racing_stop_fails_fast(self, make_server):
        # Deterministic pin of the fixed race: the stop flag flips after
        # submit's running-check but before (or while) the request rides
        # the queue — the post-publish re-check must fail the straggler
        # instead of leaving it stranded in the in-flight table forever.
        server = make_server(max_wait_ms=1).start()
        try:
            assert server.predict_nodes([1], timeout=60.0).shape == (1,)
            server._stop.set()
            future = server.submit([2])
            with pytest.raises(RuntimeError, match="server stopped"):
                future.result(timeout=10.0)
        finally:
            server.stop()

    def test_stop_vs_submit_stress_no_stranded_futures(self, make_server):
        sanitizer = ThreadSanitizer()
        thread_kind = make_server.kind == "thread"
        options = {"num_workers": 2} if thread_kind else {}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the threads harder
        try:
            # Spawned replicas boot slowly: one round for the process kind.
            for round_index in range(3 if thread_kind else 1):
                self._stress_round(make_server, sanitizer, round_index, options)
        finally:
            sys.setswitchinterval(switch_interval)
        sanitizer.assert_clean()

    @staticmethod
    def _stress_round(make_server, sanitizer, round_index, options):
        server = make_server(
            max_batch_size=8, max_wait_ms=0.5, max_queue=64, **options
        )
        instrument(sanitizer, server)
        server.start()
        # One answered round trip proves the executor is up before
        # the stress begins.
        assert server.predict_nodes([1], timeout=60.0).shape == (1,)
        futures: list = []
        futures_lock = threading.Lock()
        halt = threading.Event()

        def submitter():
            while not halt.is_set():
                try:
                    future = server.submit([1, 2, 3])
                except ServerOverloaded:
                    continue
                except RuntimeError:
                    break  # server stopped: expected terminal state
                with futures_lock:
                    futures.append(future)

        threads = [
            threading.Thread(target=submitter, daemon=True)
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        time.sleep(0.02 + 0.02 * round_index)  # vary the race window
        server.stop(timeout=30.0)
        halt.set()
        for thread in threads:
            thread.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert futures, "stress round submitted nothing"
        assert resolve_all(futures) == 0
        # Every admitted request (and the warm-up) resolved and was
        # counted exactly once; a lost counter update breaks this.
        first = server.stats()
        assert first["requests"] == len(futures) + 1
        assert first["requests"] == first["answered"] + first["failed"]
        time.sleep(0.05)
        assert server.stats()["uptime_seconds"] == first["uptime_seconds"]


# ---------------------------------------------------------------------- #
# Executor parity: one request mix, three paths, identical answers
# ---------------------------------------------------------------------- #


def seeded_mix(handle):
    """Labels and proba over a seeded spread of sizes, plus empties."""
    rng = np.random.default_rng(11)
    mix = [
        (
            rng.integers(0, handle.num_objects, size=1 + index % 4)
            .astype(np.int64),
            bool(index % 2),
        )
        for index in range(16)
    ]
    empty = np.empty(0, dtype=np.int64)
    return mix + [(empty, False), (empty, True)]


def error_of(call):
    """``(type, message)`` of the error ``call`` raises."""
    try:
        call()
    except Exception as exc:  # the point: capture whatever it raises
        return type(exc), str(exc)
    pytest.fail("expected the call to raise")


class TestExecutorParity:
    def test_answers_and_errors_match_the_sequential_handle(
        self, make_server, handle
    ):
        mix = seeded_mix(handle)
        bad_requests = [[handle.num_objects], [-1], [0.25], [[0, 1.5]]]
        with make_server(max_batch_size=8, max_wait_ms=2) as server:
            futures = [server.submit(ids, proba=proba) for ids, proba in mix]
            answers = [future.result(timeout=60.0) for future in futures]
            errors = [
                (error_of(lambda: server.submit(bad)),
                 error_of(lambda: server.submit(bad, proba=True)))
                for bad in bad_requests
            ]
        for (ids, proba), answer in zip(mix, answers):
            if proba:
                expected = handle.predict_proba_nodes(ids)
            else:
                expected = handle.predict_nodes(ids)
            assert answer.dtype == expected.dtype
            assert answer.shape == expected.shape
            assert answer.tolist() == expected.tolist()  # bit-identical
        for bad, (labels_error, proba_error) in zip(bad_requests, errors):
            assert labels_error == error_of(lambda: handle.predict_nodes(bad))
            assert proba_error == error_of(
                lambda: handle.predict_proba_nodes(bad)
            )


# ---------------------------------------------------------------------- #
# Executor-specific lifecycle
# ---------------------------------------------------------------------- #


class TestModelServerLifecycle:
    def test_restart_refused_while_old_worker_wedged(self, handle):
        server = ModelServer(handle, max_wait_ms=0, num_workers=1)
        entered = threading.Event()
        release = threading.Event()
        original = server.planner.run

        def wedged(requests, **kwargs):
            entered.set()
            release.wait(30.0)
            return original(requests, **kwargs)

        server.planner.run = wedged
        server.start()
        try:
            future = server.submit([1])
            assert entered.wait(10.0)
            server.stop(timeout=0.05)  # the worker is wedged mid-batch
            with pytest.raises(RuntimeError, match="still alive"):
                server.start()
        finally:
            release.set()
        # The wedged worker finishes its claimed batch: the caller that
        # raced the stop still gets a real answer, not a stranded future.
        np.testing.assert_array_equal(
            future.result(timeout=10.0),
            handle.predict_nodes(np.array([1])),
        )
        deadline = time.monotonic() + 10.0
        while any(t.is_alive() for t in server._threads):
            assert time.monotonic() < deadline, "old worker never exited"
            time.sleep(0.01)
        server.start()  # now legal: the previous generation is gone
        try:
            assert server.predict_nodes([1], timeout=10.0).shape == (1,)
        finally:
            server.stop()



class TestProcessServerLifecycle:
    def test_replica_death_fails_in_flight_and_refuses_submits(
        self, bundle_path
    ):
        # A crashed only-replica used to strand every admitted request
        # until stop() and then shed all later submits forever.
        server = ProcessReplicaServer(
            bundle_path, replicas=1, max_wait_ms=1, max_queue=4
        ).start()
        try:
            assert server.predict_nodes([1], timeout=60.0).shape == (1,)
            (replica,) = server._processes
            os.kill(replica.pid, signal.SIGSTOP)  # admitted, unanswered
            futures = [server.submit([index]) for index in range(4)]
            os.kill(replica.pid, signal.SIGKILL)
            started = time.monotonic()
            for future in futures:
                with pytest.raises(RuntimeError, match="no live replica"):
                    future.result(timeout=10.0)
            assert time.monotonic() - started < 5.0
            with pytest.raises(RuntimeError, match="no live replica"):
                server.submit([0])
            stats = server.stats()
            assert stats["failed"] == 4
            assert stats["in_flight"] == 0
            assert stats["replicas"] == 0
        finally:
            server.stop()

    def test_replica_dying_at_boot_fails_the_first_request_fast(
        self, bundle_path, tmp_path
    ):
        # The parent maps a private copy of the bundle, which then
        # vanishes: the replica dies while loading it.
        path = tmp_path / "conch.npz"
        shutil.copyfile(bundle_path, path)
        server = ProcessReplicaServer(path, replicas=1, max_wait_ms=1)
        path.unlink()
        server.start()
        try:
            started = time.monotonic()
            with pytest.raises(RuntimeError, match="no live replica"):
                server.predict_nodes([1], timeout=30.0)
            assert time.monotonic() - started < 15.0
        finally:
            server.stop()

    def test_scale_to_grows_and_shrinks_live(self, bundle_path):
        with ProcessReplicaServer(
            bundle_path, replicas=1, max_wait_ms=1
        ) as server:
            expected = server.handle.predict_nodes(np.array([3, 4]))
            np.testing.assert_array_equal(
                server.predict_nodes([3, 4], timeout=60.0), expected
            )
            server.scale_to(2)
            deadline = time.monotonic() + 60.0
            while server.live_replicas() != 2:
                assert time.monotonic() < deadline, "scale-up never landed"
                time.sleep(0.05)
            server.scale_to(1)  # retire via sentinel, lazily
            deadline = time.monotonic() + 60.0
            while server.live_replicas() != 1:
                assert time.monotonic() < deadline, "scale-down never landed"
                time.sleep(0.05)
            np.testing.assert_array_equal(
                server.predict_nodes([3, 4], timeout=60.0), expected
            )
            stats = server.stats()
            assert stats["scale_ups"] == 1
            assert stats["scale_downs"] == 1
            assert stats["replicas"] == 1
