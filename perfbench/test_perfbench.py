"""Tests of the benchmark's own code (``python -m pytest perfbench``)."""

import threading
import time

import numpy as np

from loadgen import (
    MIN_BEYOND,
    make_schedule,
    run_open_loop,
    search_ladder,
    tail_percentile,
)
from spans import Patches, Recorder, coverage, covered, self_times


def _schedule(seed):
    return make_schedule(
        seed, rate=500.0, seconds=2.0, pool_sizes=[32] * 64,
        zipf=1.1, rescan_rate=0.5,
    )


def test_same_seed_same_schedule_other_seed_other_schedule():
    a, b, c = _schedule([7, 1]), _schedule([7, 1]), _schedule([8, 1])
    for field in ("due", "venue", "scan", "rescan"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert len(a) != len(c) or not np.array_equal(a.due, c.due)


def test_rescans_repeat_the_previous_request():
    s = _schedule([3, 2])
    i = np.flatnonzero(s.rescan)
    assert i.size and not s.rescan[0]
    assert np.array_equal(s.venue[i], s.venue[i - 1])
    assert np.array_equal(s.scan[i], s.scan[i - 1])
    assert np.all(np.diff(s.due) >= 0)


class _Resolved:
    """A ticket answered at submit time."""

    def __init__(self):
        self.done_at = time.perf_counter()
        self.done = True

    def result(self, timeout=None):
        return np.zeros(2)


def test_latency_is_timed_from_the_due_time():
    # Request 0 stalls the generator for 50 ms; request 1 was due at
    # 10 ms and is answered the moment it is submitted, so its latency
    # is the ~40 ms it waited behind the stall, not ~0.
    schedule = make_schedule([1], rate=1.0, seconds=1.0, pool_sizes=[1])
    schedule = type(schedule)(
        np.array([0.0, 0.010]), np.zeros(2, int), np.zeros(2, int),
        np.zeros(2, bool), (1,),
    )

    def submit(i):
        if i == 0:
            time.sleep(0.050)
        return _Resolved()

    res = run_open_loop(submit, schedule, rate=100.0)
    assert res.latency_ms[1] >= 35.0
    assert res.late_ms[1] >= 35.0
    assert res.latency_ms[0] >= 45.0


def test_tail_percentile_keeps_ten_samples_beyond_it():
    rng = np.random.default_rng(0)
    for n in (20, 150, 999, 1000, 1100, 20000):
        values = rng.exponential(size=n)
        pct, value = tail_percentile(values)
        assert np.count_nonzero(values > value) >= MIN_BEYOND
        assert pct <= 99.0
    assert tail_percentile(rng.random(20000))[0] == 99.0
    assert tail_percentile(rng.random(500))[0] < 99.0
    # Failures enter as inf and are always beyond the reported value.
    values = np.concatenate([rng.random(1000), np.full(10, np.inf)])
    assert np.isfinite(tail_percentile(values)[1])


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, "a", 0.0, 10.0, None, None, 0),
        (2, "b", 1.0, 4.0, 1, None, 0),
        (3, "c", 3.0, 6.0, 1, None, 0),  # overlaps b
        (4, "d", 2.0, 3.0, 2, None, 0),  # nested in b
        (5, "d", 9.0, 12.0, 1, None, 0),  # runs past its parent
    ]
    table = self_times(spans)
    assert table["a"]["self_s"] == 10.0 - 5.0 - 1.0
    assert table["b"]["self_s"] == 3.0 - 1.0
    assert table["c"]["self_s"] == 3.0
    assert table["d"]["calls"] == 2 and table["d"]["total_s"] == 4.0
    assert covered([(0, 2), (1, 3), (5, 6)], 0, 10) == 4


def test_recorder_nests_spans_and_patches_restore():
    rec, patches = Recorder(), Patches()

    class Layer:
        def inner(self, x):
            return x + 1

        def outer(self, x):
            return self.inner(x) * 2

    layer = Layer()
    original = Layer.inner
    patches.wrap(Layer, "inner", lambda f: rec.wrap(f, "inner"))
    patches.wrap(layer, "outer", lambda f: rec.wrap(f, "outer"))
    assert rec.call_as(7, layer.outer, 1) == 4
    patches.restore()
    assert Layer.inner is original and "outer" not in vars(layer)
    by_name = {s[1]: s for s in rec.spans}
    assert by_name["inner"][4] == by_name["outer"][0]
    assert by_name["inner"][5] == by_name["outer"][5] == 7


def test_ladder_search_returns_highest_passing_rung():
    ladder = (100, 200, 300, 400, 500, 600, 700)
    assert search_ladder(ladder, lambda rate: rate <= 450) == 400
    assert search_ladder(ladder, lambda rate: True) == 700
    assert search_ladder(ladder, lambda rate: False) == 0.0


def test_children_cover_with_their_outer_intervals():
    # The parent's call is [0, 10]; its child ran [2, 8] but its wrapper
    # held [1, 9]: the wrapper's bookkeeping counts as covered.
    spans = [
        (1, "serve", 0.0, 10.0, None, None, 0),
        (2, "locate", 2.0, 8.0, 1, None, 0),
        (3, "serve", 20.0, 30.0, None, None, 0),
    ]
    outer = {2: (1.0, 9.0)}
    shares, whole = coverage(spans, "serve", outer)
    assert shares == [0.8, 0.0]
    assert whole == 8.0 / 20.0
    assert coverage(spans, "serve")[0] == [0.6, 0.0]
    assert self_times(spans, outer)["serve"]["self_s"] == 2.0 + 10.0


def test_traced_lock_records_each_hold_under_the_open_span():
    rec = Recorder()
    lock = rec.lock(threading.RLock(), "locked")

    def work():
        with lock:
            with lock:  # re-entered
                pass

    rec.wrap(work, "serve")()
    by_name = {}
    for span in rec.spans:
        by_name.setdefault(span[1], []).append(span)
    (serve,) = by_name["serve"]
    outer, inner = sorted(by_name["locked"], key=lambda s: s[2])
    assert outer[4] == serve[0] and inner[4] == outer[0]
    assert serve[2] <= outer[2] <= inner[2] <= inner[3] <= outer[3] <= serve[3]
    assert set(rec.outer) == {serve[0], outer[0], inner[0]}


def test_requests_are_never_submitted_before_they_are_due():
    schedule = make_schedule([5], rate=2000.0, seconds=0.2, pool_sizes=[1])
    res = run_open_loop(lambda i: _Resolved(), schedule, rate=2000.0)
    assert np.all(res.sub_start >= res.due_abs)
