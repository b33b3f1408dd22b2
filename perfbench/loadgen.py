"""Open-loop load generation and the percentile rule the report uses.

A schedule is fixed before the first request goes out: Poisson arrival
offsets plus the id array of every request, all drawn from the workload
seed.  Senders take requests in schedule order, wait for each one's due
time and send it; a sender still busy with an earlier request sends
late.  Latency is timed from the *due* time, so a stall shows up in the
requests queued behind it, and lateness (sent - due) is reported on its
own so the validity of every latency number can be judged.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

#: A percentile is printed only when at least this many samples lie
#: beyond it (choosing-metrics rule: p99 needs 1000 samples, p90 100).
MIN_BEYOND = 10
#: Sender threads of an open-loop phase (at most ``nproc`` = 2).
SENDERS = 2
#: Head start between building a phase's threads and its first due time.
LEAD_S = 0.05
#: A phase whose senders are still busy after this long fails the run.
JOIN_TIMEOUT_S = 120.0


def min_samples(q: float) -> int:
    """Smallest sample count that leaves ``MIN_BEYOND`` samples above ``q``."""
    return int(math.ceil(MIN_BEYOND / (1.0 - q / 100.0) - 1e-9))


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile; refuses a sample too small to support it."""
    if len(values) < min_samples(q):
        raise ValueError(
            f"p{q:g} needs {min_samples(q)} samples, got {len(values)}"
        )
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ------------------------------------------------------------------ #
# Schedules
# ------------------------------------------------------------------ #


@dataclass
class Schedule:
    """Due offsets (seconds from phase start) and ids of each request."""

    offsets: np.ndarray
    ids: List[np.ndarray]

    def __len__(self) -> int:
        return len(self.ids)


class IdSampler:
    """Request id arrays of 1-8 authors each.

    ``skew > 0`` draws ids Zipf-like (weight ``1 / rank**skew``) over a
    seeded permutation of the authors, so requests share receptive
    fields and exact repeats reach the server's hot cache; ``skew == 0``
    draws uniformly, so the cache is bypassed.
    """

    def __init__(self, num_objects: int, skew: float, rng: np.random.Generator):
        self.rng = rng
        self.order = rng.permutation(num_objects)
        weights = 1.0 / np.arange(1, num_objects + 1) ** skew
        self.cdf = np.cumsum(weights) / weights.sum()

    def draw(self) -> np.ndarray:
        size = int(self.rng.integers(1, 9))
        ranks = np.searchsorted(self.cdf, self.rng.random(size), side="right")
        return self.order[np.minimum(ranks, self.order.size - 1)].astype(np.int64)


def poisson_schedule(
    sampler: IdSampler, rate: float, count: int, rng: np.random.Generator
) -> Schedule:
    gaps = rng.exponential(1.0 / rate, size=count)
    offsets = np.cumsum(gaps) - gaps[0]
    return Schedule(offsets, [sampler.draw() for _ in range(count)])


# ------------------------------------------------------------------ #
# Results
# ------------------------------------------------------------------ #


@dataclass
class PhaseResult:
    """Per-request timings of one open-loop phase (perf_counter seconds)."""

    name: str
    rate: float
    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray
    ok: np.ndarray
    ids: List[np.ndarray]
    answers: List[Optional[np.ndarray]]
    errors: List[str] = field(default_factory=list)

    @property
    def sent_count(self) -> int:
        return int(np.isfinite(self.sent).sum())

    @property
    def succeeded(self) -> int:
        return int(self.ok.sum())

    @property
    def failed(self) -> int:
        return self.sent_count - self.succeeded

    def latencies_ms(self) -> np.ndarray:
        """Due -> answered, successful requests only (failures are
        counted separately and miss every latency limit)."""
        return (self.done - self.due)[self.ok] * 1000.0

    def lateness_ms(self) -> np.ndarray:
        sent = np.isfinite(self.sent)
        return np.maximum(0.0, self.sent[sent] - self.due[sent]) * 1000.0

    def tail_ms(self, q: float) -> float:
        """Latency percentile where every failure counts as infinitely late."""
        latency = np.where(self.ok, (self.done - self.due) * 1000.0, np.inf)
        return percentile(latency, q)

    def summary(self) -> str:
        first_error = f"  first error: {self.errors[0]}" if self.errors else ""
        return (
            f"{self.name}: rate {self.rate:.1f} req/s  sent {self.sent_count}"
            f"  succeeded {self.succeeded}  failed {self.failed}{first_error}"
        )


def run_open_loop(
    name: str,
    schedule: Schedule,
    rate: float,
    send: Callable[[int, np.ndarray], np.ndarray],
) -> PhaseResult:
    """Send ``schedule`` open-loop from ``SENDERS`` blocking threads.

    ``send(sender_index, ids)`` performs one request and returns its
    answer; an exception marks the request failed.
    """
    count = len(schedule)
    start = time.perf_counter() + LEAD_S
    due = start + schedule.offsets
    sent = np.full(count, np.nan)
    done = np.full(count, np.nan)
    ok = np.zeros(count, dtype=bool)
    answers: List[Optional[np.ndarray]] = [None] * count
    errors: List[str] = []
    errors_lock = threading.Lock()
    tickets = itertools.count()

    def sender(index: int) -> None:
        while True:
            i = next(tickets)
            if i >= count:
                return
            delay = due[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent[i] = time.perf_counter()
            try:
                answers[i] = send(index, schedule.ids[i])
                ok[i] = True
            except Exception as exc:  # a failed request is data, not a crash
                with errors_lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
            done[i] = time.perf_counter()

    threads = [
        threading.Thread(target=sender, args=(k,), name=f"perfbench-send-{k}")
        for k in range(SENDERS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOIN_TIMEOUT_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError(f"phase {name}: senders did not finish in time")
    return PhaseResult(
        name, rate, due, sent, done, ok, schedule.ids, answers, errors
    )


def merge(name: str, results: Sequence[PhaseResult]) -> PhaseResult:
    """One phase's rounds as a single result (per-request arrays joined)."""
    return PhaseResult(
        name,
        results[0].rate,
        np.concatenate([r.due for r in results]),
        np.concatenate([r.sent for r in results]),
        np.concatenate([r.done for r in results]),
        np.concatenate([r.ok for r in results]),
        [ids for r in results for ids in r.ids],
        [answer for r in results for answer in r.answers],
        [error for r in results for error in r.errors],
    )
