"""Open-loop load generation for the serving benchmark.

A workload's requests are described by a :class:`Schedule`: per
request, the venue, the scan drawn from that venue's scan pool, whether
it is a device re-scan of the previous request, and the time it is due.
Schedules are drawn from a seed before any clock starts, so the same
seed replays the same requests.

:func:`run_open_loop` submits each request when it is due, from the
calling thread, whatever the state of earlier requests (independent
devices make an open loop).  Latency is timed from the due time to the
moment the program resolved the request's ticket, so a stall counts
against every request it delays, and the generator's own lateness is
recorded next to it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Latency limit of the SLO search (fixed, not derived from the run).
LIMIT_MS = 50.0
#: Tail percentile the SLO and the reports use.
TAIL_PCT = 99.0
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Schedule:
    """Pre-generated open-loop requests, in due-time order."""

    due: np.ndarray  # seconds after the phase starts, ascending
    venue: np.ndarray  # venue index
    scan: np.ndarray  # scan index within the venue's pool
    rescan: np.ndarray  # True when the request repeats the previous one
    key: Tuple[int, ...]  # the seed it was drawn from

    def __len__(self) -> int:
        return int(self.due.size)


def zipf_probs(n: int, exponent: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -float(exponent)
    return weights / weights.sum()


def make_schedule(
    seed: Sequence[int],
    *,
    rate: float,
    seconds: float,
    pool_sizes: Sequence[int],
    zipf: float = 0.0,
    rescan_rate: float = 0.0,
) -> Schedule:
    """Poisson arrivals at ``rate`` q/s for ``seconds``.

    Venues are drawn Zipf(``zipf``) over ``len(pool_sizes)`` venues and
    scans uniformly from the venue's pool; with probability
    ``rescan_rate`` a request instead repeats the previous request's
    venue and scan exactly (a stationary phone scanning again).
    ``pool_sizes[v] == 0`` marks a venue whose every request carries a
    fresh scan: the scan index is then the request's own index.
    """
    rng = np.random.default_rng(list(seed))
    n = max(1, int(rng.poisson(rate * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=n))
    venue = rng.choice(
        len(pool_sizes), size=n, p=zipf_probs(len(pool_sizes), zipf)
    )
    sizes = np.asarray(pool_sizes)[venue]
    scan = np.where(
        sizes > 0,
        (rng.random(n) * np.maximum(sizes, 1)).astype(np.int64),
        np.arange(n),
    )
    rescan = rng.random(n) < rescan_rate
    rescan[0] = False
    for i in np.flatnonzero(rescan):
        venue[i] = venue[i - 1]
        scan[i] = scan[i - 1]
    return Schedule(due, venue, scan, rescan, tuple(seed))


def tail_percentile(
    values: np.ndarray, want: float = TAIL_PCT
) -> Tuple[float, float]:
    """``(percentile, value)``: ``want`` or the highest percentile
    below it that still keeps :data:`MIN_BEYOND` samples beyond it.

    Failed requests enter as ``inf`` and so always lie beyond.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n == 0:
        return want, float("nan")
    pct = min(want, 100.0 * (1.0 - MIN_BEYOND / n)) if n > MIN_BEYOND else 0.0
    ordered = np.sort(values)
    # The sample at rank floor(pct/100 * (n-1)) leaves >= n*(1-pct/100)
    # samples after it, so the beyond-count rule holds exactly.
    rank = int(np.floor(pct / 100.0 * (n - 1)))
    return pct, float(ordered[rank])


@dataclass
class PhaseResult:
    """What one open-loop phase measured (times are perf_counter)."""

    rate: float
    due_abs: np.ndarray
    sub_start: np.ndarray
    done_at: np.ndarray  # inf where the request failed
    answers: np.ndarray  # (n, 2), NaN where the request failed
    failed: np.ndarray  # bool
    tickets: List[object]
    malformed: int  # answers that were not finite with shape (2,)

    @property
    def n(self) -> int:
        return int(self.due_abs.size)

    @property
    def latency_ms(self) -> np.ndarray:
        """Due time → ticket resolved; ``inf`` for failures."""
        return 1e3 * (self.done_at - self.due_abs)

    @property
    def late_ms(self) -> np.ndarray:
        """How late the generator submitted each request."""
        return 1e3 * np.maximum(self.sub_start - self.due_abs, 0.0)

    def backlog_end(self) -> int:
        """Requests due but unresolved when the last one was submitted."""
        t_last = self.sub_start[-1]
        return int(
            np.count_nonzero(
                (self.due_abs <= t_last) & (self.done_at > t_last)
            )
        )

    def summary(self) -> Dict[str, float]:
        lat = self.latency_ms
        pct, tail = tail_percentile(lat)
        _, late = tail_percentile(self.late_ms)
        return {
            "rate": self.rate,
            "n": self.n,
            "failed": int(self.failed.sum()),
            "p50_ms": float(np.median(lat)),
            "tail_pct": pct,
            "tail_ms": tail,
            "late_p99_ms": late,
            "backlog_end": self.backlog_end(),
        }

    def meets_slo(self) -> bool:
        s = self.summary()
        return (
            s["tail_ms"] <= LIMIT_MS
            and s["backlog_end"] <= self.rate * LIMIT_MS / 1e3
        )


def run_open_loop(
    submit: Callable[[int], object],
    schedule: Schedule,
    rate: float,
    *,
    timeout_s: float = 10.0,
    flush: Optional[Callable[[], None]] = None,
    spin_s: float = 0.0,
) -> PhaseResult:
    """Submit request ``i`` via ``submit(i)`` at its due time.

    ``submit`` returns a ticket with ``done``, ``done_at``, ``value``
    and ``result(timeout)``.  After the last submit, every ticket gets
    until ``timeout_s`` to resolve; a raise, an error answer or a
    timeout marks the request failed.  ``flush`` runs once after the
    last submit (the fleet ships its partial bundles there).

    The generator sleeps until ``spin_s`` before each due time, then
    spins to it, yielding the CPU and the GIL on every turn.  A sleep
    alone wakes up tens to hundreds of microseconds late; spinning
    removes that lateness but keeps a core busy for ``spin_s`` per
    request, which a CPU-bound workload on few cores would feel.
    """
    n = len(schedule)
    clock, sleep, yield_cpu = time.perf_counter, time.sleep, os.sched_yield
    sub_start = np.empty(n)
    failed = np.zeros(n, dtype=bool)
    tickets: List[object] = [None] * n
    start = clock() + 0.002
    due_abs = start + schedule.due
    for i in range(n):
        target = due_abs[i]
        now = clock()
        if target - now > spin_s:
            sleep(target - now - spin_s)
            now = clock()
        while now < target:
            yield_cpu()
            now = clock()
        sub_start[i] = now
        try:
            tickets[i] = submit(i)
        except Exception:
            failed[i] = True
    if flush is not None:
        flush()
    deadline = clock() + timeout_s
    done_at = np.full(n, np.inf)
    answers = np.full((n, 2), np.nan)
    malformed = 0
    for i, ticket in enumerate(tickets):
        if ticket is None:
            continue
        try:
            value = np.asarray(ticket.result(max(deadline - clock(), 0.0)))
        except Exception:
            failed[i] = True
            continue
        done_at[i] = ticket.done_at
        if value.shape != (2,) or not np.isfinite(value).all():
            malformed += 1
            continue
        answers[i] = value
    return PhaseResult(
        rate, due_abs, sub_start, done_at, answers, failed,
        tickets, malformed,
    )


def search_ladder(
    ladder: Sequence[float], passes: Callable[[float], bool]
) -> float:
    """Highest rung of the fixed ``ladder`` whose rate ``passes``.

    Binary search, assuming a rung that fails fails at every higher
    rate; 0 if even the lowest rung fails.
    """
    lo, hi = -1, len(ladder)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if passes(float(ladder[mid])):
            lo = mid
        else:
            hi = mid
    return float(ladder[lo]) if lo >= 0 else 0.0


def replay_closed_loop(
    serve_chunk: Callable[[np.ndarray], np.ndarray],
    n_requests: int,
    chunk: int = 256,
) -> Tuple[float, int, int]:
    """Replay request indices ``0..n_requests`` once, in ``chunk``-row
    calls, each waiting for its answers before the next starts.

    Returns ``(rows/s from the median call time, rows served, failed
    rows)``; a call whose answers are not all finite ``(chunk, 2)``
    counts its rows as failed.
    """
    clock = time.perf_counter
    times: List[float] = []
    failed = 0
    for start in range(0, n_requests - chunk + 1, chunk):
        idx = np.arange(start, start + chunk)
        t0 = clock()
        try:
            out = np.asarray(serve_chunk(idx))
            ok = out.shape == (chunk, 2) and bool(np.isfinite(out).all())
        except Exception:
            ok = False
        times.append(clock() - t0)
        failed += 0 if ok else chunk
    return chunk / float(np.median(times)), chunk * len(times), failed
