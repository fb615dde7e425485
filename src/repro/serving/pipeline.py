"""Thread-safe micro-batching front end for the positioning service.

Many worker threads submit *individual* queries; a single flusher
thread coalesces them into micro-batches and routes each batch through
:meth:`PositioningService.query_batch`'s batched impute→estimate path,
so concurrent traffic gets batched-path throughput without any caller
seeing more than its own request::

    pipeline = ServingPipeline(service, max_batch=256)
    with pipeline:
        ticket = pipeline.submit("kaide", scan)      # non-blocking
        location = ticket.result(timeout=5.0)        # (2,)
        location = pipeline.locate("kaide", scan)    # submit + wait

Batching is work-conserving: the flusher serves whatever is queued
(up to ``max_batch`` rows) the moment it is idle, and requests that
arrive while a batch is being served join the next one.  Batch size
therefore follows load instead of a clock — a lone request is served
at once, and a burst queued behind a busy flusher goes out as one
batch.  ``max_delay_ms`` is an opt-in hold: a positive value keeps a
partial batch open until its oldest request has waited that long.

Two hot-path optimisations keep the per-request overhead near the
single-caller batched path:

* **submit-time cache fast path** — :meth:`ServingPipeline.submit_many`
  probes the service's LRU cache (vectorized quantization over the
  whole burst) before enqueueing anything; hits resolve their tickets
  immediately and never occupy a batch slot;
* **slim tickets** — completion is a plain flag plus one shared
  condition variable the flusher notifies once per batch, an order of
  magnitude cheaper than a :class:`concurrent.futures.Future` per
  request.

Requests are validated at submit time (unknown venue, wrong
fingerprint width) so a bad request fails fast in its caller and can
never poison the micro-batch it would have joined.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ServingError
from .service import CacheKey, PositioningService


@dataclass
class PipelineStats:
    """Counters of one :class:`ServingPipeline`.

    ``submitted`` counts every accepted request; ``fast_path_hits``
    the subset answered from the cache at submit time (they never
    enqueue); ``flushed`` the requests served through micro-batches.
    ``full_flushes`` / ``deadline_flushes`` / ``drain_flushes`` break
    the batches down by what triggered them (size reached, oldest
    request's hold expired, pipeline stop).  With the default zero
    hold, a partial batch served by an idle flusher counts under
    ``deadline_flushes``.
    """

    submitted: int = 0
    fast_path_hits: int = 0
    flushed: int = 0
    failed: int = 0
    batches: int = 0
    full_flushes: int = 0
    deadline_flushes: int = 0
    drain_flushes: int = 0
    largest_batch: int = 0

    @property
    def mean_batch(self) -> float:
        return self.flushed / self.batches if self.batches else 0.0

    def render(self) -> str:
        return (
            f"submitted={self.submitted} "
            f"fast-path hits={self.fast_path_hits} "
            f"batches={self.batches} "
            f"(mean {self.mean_batch:.1f}, max {self.largest_batch}; "
            f"{self.full_flushes} full / "
            f"{self.deadline_flushes} deadline / "
            f"{self.drain_flushes} drain) failed={self.failed}"
        )


class Ticket:
    """One in-flight request's handle; resolved by the flusher.

    ``done_at`` is stamped (``time.perf_counter()``) when the result
    lands, so load harnesses can measure per-request latency without
    serializing on :meth:`result` calls.
    """

    __slots__ = ("_done_cv", "value", "error", "done", "done_at")

    def __init__(self, done_cv: threading.Condition):
        self._done_cv = done_cv
        self.value: Optional[np.ndarray] = None
        self.error: Optional[BaseException] = None
        self.done = False
        self.done_at = 0.0

    @classmethod
    def resolved(cls, value: np.ndarray) -> "Ticket":
        ticket = cls.__new__(cls)
        ticket._done_cv = None
        ticket.value = value
        ticket.error = None
        ticket.done = True
        ticket.done_at = time.perf_counter()
        return ticket

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the answer arrives → ``(2,)`` location."""
        if not self.done:
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            with self._done_cv:
                while not self.done:
                    remaining = (
                        None
                        if deadline is None
                        else deadline - time.monotonic()
                    )
                    if remaining is not None and remaining <= 0:
                        raise ServingError(
                            f"request timed out after {timeout}s"
                        )
                    self._done_cv.wait(remaining)
        if self.error is not None:
            raise self.error
        assert self.value is not None
        return self.value


#: One queued request: (venue, fingerprint, cache key, ticket,
#: enqueue time, span) — the enqueue stamp anchors the flush
#: deadline; ``span`` is the sampled request's root trace span (or
#: ``None``), opened in the submitting thread and finished by the
#: flusher when the answer lands.
_Entry = Tuple[
    str, np.ndarray, Optional[CacheKey], Ticket, float, object
]


class ServingPipeline:
    """Coalesces single queries from many threads into micro-batches.

    Parameters
    ----------
    service:
        The (thread-safe) :class:`PositioningService` to route through.
    max_batch:
        Flush as soon as this many requests are queued.
    max_delay_ms:
        Hold a partial batch until its oldest request has waited this
        long.  The default 0 flushes eagerly: an idle flusher serves
        whatever is queued when it wakes.

    Use as a context manager, or call :meth:`start` / :meth:`stop`
    explicitly; :meth:`stop` drains every queued request before
    returning.
    """

    def __init__(
        self,
        service: PositioningService,
        *,
        max_batch: int = 256,
        max_delay_ms: float = 0.0,
    ):
        if max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ServingError("max_delay_ms must be >= 0")
        self.service = service
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1e3
        self.stats = PipelineStats()
        #: Queue-inclusive per-request latency (submit → ticket
        #: resolution), recorded into the service's registry — this
        #: is the histogram whose live p50/p95/p99 must agree with
        #: loadgen-measured percentiles, since both span queueing.
        self._h_latency = service.metrics.histogram(
            "pipeline.request_seconds"
        )
        self._queue: List[_Entry] = []
        self._mu = threading.Condition()
        self._done_cv = threading.Condition()
        self._thread: Optional[threading.Thread] = None
        self._started = False
        self._stopping = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "ServingPipeline":
        with self._mu:
            if self._started:
                raise ServingError("pipeline already started")
            self._started = True
            self._thread = threading.Thread(
                target=self._run, name="serving-pipeline", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Drain the queue, resolve every ticket, stop the flusher."""
        with self._mu:
            if not self._started or self._stopping:
                return
            self._stopping = True
            self._mu.notify_all()
        assert self._thread is not None
        self._thread.join()

    def __enter__(self) -> "ServingPipeline":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return self._started and not self._stopping

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, venue: str, fingerprint: np.ndarray) -> Ticket:
        """Queue one raw fingerprint; returns immediately.

        Venue and shape are validated in the caller's thread (inside
        :meth:`submit_many`), so a bad request raises
        :class:`ServingError` at the call site instead of failing a
        whole micro-batch later.
        """
        fp = np.asarray(fingerprint, dtype=float)
        return self.submit_many(venue, fp[None, :])[0]

    def submit_many(
        self, venue: str, batch: np.ndarray
    ) -> List[Ticket]:
        """Queue a burst of same-venue scans; one ticket per row.

        The burst amortizes validation, cache probing (vectorized
        quantization) and queue locking over all its rows — this is
        the high-throughput submission path a gateway thread should
        use for a device's scan burst.
        """
        if not self.running:
            # Checked again under the lock below; failing before the
            # cache probe keeps a dead pipeline from mutating the
            # service stats for answers it will never deliver.
            raise ServingError("pipeline is not running")
        t0 = time.perf_counter()
        shard = self.service.shard(venue)
        rows = shard._validate(batch)
        out, hit, keys = self.service.try_cached(venue, rows)
        tracer = self.service.tracer
        tickets: List[Ticket] = []
        entries: List[_Entry] = []
        n_hits = 0
        now = time.perf_counter()
        for i in range(len(rows)):
            if hit[i]:
                tickets.append(Ticket.resolved(out[i]))
                n_hits += 1
            else:
                ticket = Ticket(self._done_cv)
                tickets.append(ticket)
                span = (
                    tracer.start("pipeline.request", {"venue": venue})
                    if tracer is not None and tracer.sample()
                    else None
                )
                entries.append(
                    (venue, rows[i], keys[i], ticket, now, span)
                )
        if n_hits:
            # Fast-path hits resolve in the submitting thread; their
            # queue-inclusive latency is just the probe time.
            self._h_latency.record_n(
                time.perf_counter() - t0, n_hits
            )
        with self._mu:
            if not self._started or self._stopping:
                raise ServingError("pipeline is not running")
            self.stats.submitted += len(rows)
            self.stats.fast_path_hits += n_hits
            if entries:
                self._queue.extend(entries)
                self._mu.notify()
        return tickets

    def locate(
        self,
        venue: str,
        fingerprint: np.ndarray,
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Submit one scan and wait for its location → ``(2,)``."""
        return self.submit(venue, fingerprint).result(timeout)

    # ------------------------------------------------------------------
    # Flusher
    # ------------------------------------------------------------------
    def _run(self) -> None:
        while True:
            with self._mu:
                while not self._queue and not self._stopping:
                    self._mu.wait()
                if not self._queue:
                    return  # stopping, fully drained
                if self._stopping:
                    reason = "drain_flushes"
                elif len(self._queue) < self.max_batch:
                    # Deadline is anchored to the oldest request's
                    # enqueue time, so time already spent waiting
                    # behind a previous flush counts against it.
                    deadline = self._queue[0][4] + self.max_delay
                    while (
                        len(self._queue) < self.max_batch
                        and not self._stopping
                    ):
                        remaining = deadline - time.perf_counter()
                        if remaining <= 0:
                            break
                        self._mu.wait(remaining)
                    reason = (
                        "full_flushes"
                        if len(self._queue) >= self.max_batch
                        else "drain_flushes"
                        if self._stopping
                        else "deadline_flushes"
                    )
                else:
                    reason = "full_flushes"
                batch = self._queue[: self.max_batch]
                del self._queue[: self.max_batch]
                setattr(
                    self.stats, reason, getattr(self.stats, reason) + 1
                )
            self._flush(batch)

    def _flush(self, batch: List[_Entry]) -> None:
        venues = [entry[0] for entry in batch]
        rows = [entry[1] for entry in batch]
        keys = [entry[2] for entry in batch]
        tracer = self.service.tracer
        spans = [entry[5] for entry in batch if entry[5] is not None]
        serve_span = None
        try:
            start = time.perf_counter()
            if spans and tracer is not None:
                # One serve span is shared by every sampled request
                # in the batch — the flusher serves them together, so
                # their trees share the batched stage breakdown.
                serve_span = tracer.start(
                    "serve", {"batch": len(batch)}
                )
                with tracer.activate(serve_span):
                    out = self.service._serve_rows(
                        venues, rows, keys, start
                    )
                serve_span.duration = time.perf_counter() - start
            else:
                out = self.service._serve_rows(venues, rows, keys, start)
        except BaseException as exc:  # resolve tickets, never die silent
            now = time.perf_counter()
            with self._done_cv:
                for entry in batch:
                    ticket = entry[3]
                    ticket.error = exc
                    ticket.done_at = now
                    ticket.done = True
                self._done_cv.notify_all()
            for entry in batch:
                if entry[5] is not None and tracer is not None:
                    entry[5].meta = {"error": type(exc).__name__}
                    tracer.finish(entry[5])
            self.stats.failed += len(batch)
            self.stats.batches += 1
            return
        now = time.perf_counter()
        with self._done_cv:
            for i, entry in enumerate(batch):
                ticket = entry[3]
                ticket.value = out[i]
                ticket.done_at = now
                ticket.done = True
            self._done_cv.notify_all()
        # Queue-inclusive per-request latency, vectorized over the
        # batch (one searchsorted, one scatter-add).
        self._h_latency.record_many(
            now - np.asarray([entry[4] for entry in batch])
        )
        if spans and tracer is not None:
            for entry in batch:
                root = entry[5]
                if root is None:
                    continue
                root.child(
                    "queue", duration=max(0.0, start - entry[4])
                )
                root.children.append(serve_span)
                root.duration = now - root.start
                tracer.finish(root)
        self.stats.flushed += len(batch)
        self.stats.batches += 1
        self.stats.largest_batch = max(
            self.stats.largest_batch, len(batch)
        )
