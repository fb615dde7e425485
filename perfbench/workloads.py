"""The benchmark's four workloads.

Each workload fixes its venues, draws its traffic from the seed (not timed), builds a
serving stack through the public serving API (timed as set-up, up to
the first answer), turns a :class:`~loadgen.Schedule` into requests,
and checks the answers it got.  The *why* of each workload is in
``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.artifacts import ArtifactStore
from repro.bisim import BiSIMConfig
from repro.constants import RSSI_MAX, RSSI_MIN
from repro.core import TopoACDifferentiator
from repro.experiments.config import PRESETS
from repro.experiments.runner import get_dataset
from repro.ingest import StreamIngestor, simulate_new_survey
from repro.positioning import WKNNEstimator
from repro.serving import (
    MapCompletion,
    PositioningService,
    ServingPipeline,
    ShardFleet,
    VenueShard,
)

from loadgen import Schedule, make_schedule


#: Seed of the synthetic venues.  Venues stay fixed across runs, like
#: the paper's kaide venue; the run's seed draws the traffic on them.
VENUE_SEED = 20230403


@dataclass
class Requests:
    """One schedule's requests, materialised before the clock starts."""

    names: List[str]  # venue key per request
    rows: np.ndarray  # (n, D) raw scans, NaN = unheard AP
    truth: np.ndarray  # (n, 2) where each scan was taken


def measure_at(channel, points, picks, rng) -> np.ndarray:
    """``channel.measure`` at ``points[picks]``, vectorised: shadowing,
    integer dBm, NaN below the detection floor and for random losses.
    The mean RSSI is computed once per distinct point."""
    mean = channel.mean_rssi_matrix(points)[picks]
    noisy = mean + rng.normal(
        0.0, channel.propagation.shadowing_sigma_db, size=mean.shape
    )
    rssi = np.clip(np.rint(noisy), RSSI_MIN, RSSI_MAX).astype(float)
    lost = rng.random(mean.shape) < channel.mar_rate
    rssi[(mean < channel.detection_floor_dbm) | lost] = np.nan
    return rssi


def log_distance(
    points: np.ndarray, aps: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Log-distance path loss RSSI with 3 dB shadowing, clipped."""
    dist = np.linalg.norm(points[:, None, :] - aps[None, :, :], axis=2)
    rssi = -30.0 - 30.0 * np.log10(np.maximum(dist, 1.0))
    rssi += rng.normal(0.0, 3.0, size=rssi.shape)
    return np.clip(rssi, -95.0, -20.0)


class Workload:
    """Shared shape of a workload; subclasses fill in the specifics."""

    name = ""
    nominal = 0.0  # offered q/s of the latency phase
    ladder: Sequence[float] = ()  # fixed rates of the SLO search
    zipf = 0.0
    rescan = 0.0
    setup_reps = 3
    writes = False
    #: How long before each due time the generator stops sleeping and
    #: spins (see ``loadgen.run_open_loop``).  0 where the median fix
    #: takes milliseconds, so a sleep's lateness is small beside it and
    #: a spinning generator would take a core from the program.
    spin_s = 0.0

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.setup_layers: Dict[str, List[float]] = {}

    # -- data ------------------------------------------------------
    def pool_sizes(self) -> List[int]:
        raise NotImplementedError

    def requests(self, schedule: Schedule) -> Requests:
        raise NotImplementedError

    # -- serving stack ---------------------------------------------
    def build(self) -> SimpleNamespace:
        raise NotImplementedError

    def close(self, stack: SimpleNamespace) -> None:
        raise NotImplementedError

    def submitter(self, stack, req: Requests) -> Callable[[int], object]:
        pipeline = stack.pipeline
        names, rows = req.names, req.rows
        return lambda i: pipeline.submit(names[i], rows[i])

    def batch_server(self, stack, req: Requests):
        service, names, rows = stack.service, req.names, req.rows
        return lambda idx: service.query_batch(
            [names[i] for i in idx], rows[idx]
        )

    def flush(self, stack) -> Optional[Callable[[], None]]:
        return None

    def worker_pids(self, stack) -> List[int]:
        """Serving processes other than this one."""
        return []

    def prime(self, stack) -> None:
        """Bring a fresh stack to the state the workload measures."""

    def check(self, stack, req: Requests, answers: np.ndarray) -> List[str]:
        """Workload-specific correctness checks; returns failures."""
        return []

    def reconcile(self, stack) -> List[str]:
        """Program counters that must add up.  Stops the pipeline
        first: its flusher counts a batch after resolving its tickets,
        so only a drained pipeline has final counters."""
        stack.pipeline.stop()
        errors = []
        s = stack.service.stats
        if s.queries != s.cache_hits + s.cache_misses:
            errors.append(
                f"ServiceStats: queries {s.queries} != hits "
                f"{s.cache_hits} + misses {s.cache_misses}"
            )
        p = stack.pipeline.stats
        if p.submitted != p.flushed + p.fast_path_hits + p.failed:
            errors.append(
                f"PipelineStats: submitted {p.submitted} != flushed "
                f"{p.flushed} + fast-path hits {p.fast_path_hits} + "
                f"failed {p.failed}"
            )
        return errors

    def timed(self, layer: str, fn: Callable[[], object]):
        t0 = time.perf_counter()
        out = fn()
        self.setup_layers.setdefault(layer, []).append(
            time.perf_counter() - t0
        )
        return out


def _pipeline_stack(service, shards, first_venue, first_scan):
    pipeline = ServingPipeline(service).start()
    pipeline.locate(first_venue, first_scan, timeout=30.0)
    return SimpleNamespace(service=service, pipeline=pipeline, shards=shards)


class MallBigmap(Workload):
    """One 32768-record, 96-AP venue; fresh scans with 25% NaN holes and
    no re-scans, so kernel time in positioning dominates and the cache
    is bypassed.  The nominal rate sits well below the knee (near
    1000 q/s on two cores), where the median fix is steady from run to
    run."""

    name = "mall-bigmap"
    nominal = 300.0
    ladder = (2000, 3000, 3400, 3800, 4300, 4800, 5400)
    setup_reps = 5
    N, D, SIDE = 32768, 96, 200.0

    def __init__(self, workdir):
        super().__init__(workdir)
        rng = np.random.default_rng([VENUE_SEED, 1])
        aps = rng.uniform(0.0, self.SIDE, size=(self.D, 2))
        self.rps = rng.uniform(0.0, self.SIDE, size=(self.N, 2))
        self.fp = log_distance(self.rps, aps, rng)

    def pool_sizes(self):
        return [0]  # every request is a fresh scan

    def requests(self, schedule):
        rng = np.random.default_rng([*schedule.key, 2])
        n = len(schedule)
        picks = rng.integers(0, self.N, size=n)
        rows = self.fp[picks] + rng.normal(0.0, 2.5, size=(n, self.D))
        rows[rng.random(rows.shape) < 0.25] = np.nan
        return Requests(["mall"] * n, rows, self.rps[picks])

    def build(self):
        estimator = self.timed(
            "setup.index_build_s",
            lambda: WKNNEstimator().fit(self.fp, self.rps),
        )
        shard = VenueShard("mall", self.D, estimator, None, self.fp.mean(axis=0))
        service = PositioningService()
        service.register(shard)
        return _pipeline_stack(service, [shard], "mall", self.fp[0])

    def close(self, stack):
        stack.pipeline.stop()

    def check(self, stack, req, answers):
        # The spatial index must answer exactly like brute force.
        shard = stack.shards[0]
        sample = np.flatnonzero(np.isfinite(answers[:, 0]))[:256]
        brute = WKNNEstimator(spatial_index="off").fit(self.fp, self.rps)
        want = brute.predict(shard.impute(req.rows[sample]), squeeze=False)
        diff = float(np.abs(want - answers[sample]).max())
        if diff > 1e-8:
            return [f"indexed answers differ from brute force by {diff:.3g}"]
        return []


class CityPool:
    """256 small log-distance venues (96 records, 24 APs each) with
    32-scan pools carrying 25% NaN holes; odd venues complete queries
    against a precomputed ``MapCompletion``, even ones by mean fill.

    Built here rather than by ``synthetic_venue_pool`` because that
    helper does not return where each scan was taken, which the
    positioning error needs.
    """

    VENUES, RECORDS, APS, SCANS, SIDE = 256, 96, 24, 32, 150.0

    def __init__(self):
        rng = np.random.default_rng([VENUE_SEED, 3])
        self.names = [f"venue-{i:04d}" for i in range(self.VENUES)]
        self.fps, self.rps, scans, truth = [], [], [], []
        for _ in range(self.VENUES):
            aps = rng.uniform(0.0, self.SIDE, size=(self.APS, 2))
            rps = rng.uniform(0.0, self.SIDE, size=(self.RECORDS, 2))
            self.fps.append(log_distance(rps, aps, rng))
            self.rps.append(rps)
            at = rps[rng.integers(0, self.RECORDS, size=self.SCANS)]
            pool = log_distance(at, aps, rng)
            pool[rng.random(pool.shape) < 0.25] = np.nan
            scans.append(pool)
            truth.append(at)
        self.scans = np.concatenate(scans)
        self.truth = np.concatenate(truth)

    def shards(self) -> List[VenueShard]:
        out = []
        for i, (name, fp, rps) in enumerate(zip(self.names, self.fps, self.rps)):
            fill = fp.mean(axis=0)
            out.append(
                VenueShard(
                    name,
                    self.APS,
                    WKNNEstimator(exact_distances=True).fit(fp, rps),
                    None,
                    fill,
                    MapCompletion(fp, fill) if i % 2 else None,
                )
            )
        return out

    def requests(self, schedule: Schedule) -> Requests:
        flat = schedule.venue * self.SCANS + schedule.scan
        return Requests(
            [self.names[v] for v in schedule.venue],
            self.scans[flat],
            self.truth[flat],
        )


class CityRescan(Workload):
    """256 small venues, Zipf 1.1, 50% re-scans, cache on: per-request
    Python in the service and the pipeline dominates.  Runnable, but
    not in ``BENCHMARK.json``: its median fix is a cache hit answered
    at submit in 50-110 us of Python, which followed the shared
    machine's speed (IQR/median over ten seeds 0.20 and 0.38, set
    medians 0.113 and 0.051 ms), too wide to gate on."""

    name = "city-rescan"
    nominal = 1000.0
    ladder = (8000, 14000, 16000, 18000, 20000, 22500, 25000)
    zipf = 1.1
    rescan = 0.5
    setup_reps = 5
    #: Most fixes are cache hits answered at submit in about 0.1 ms,
    #: of which a sleep's wake-up lateness would be a large share.
    spin_s = 0.0003
    PRIME = 32768

    def __init__(self, workdir):
        super().__init__(workdir)
        self.pool = CityPool()

    def pool_sizes(self):
        return [CityPool.SCANS] * CityPool.VENUES

    def requests(self, schedule):
        return self.pool.requests(schedule)

    def prime(self, stack):
        """Serve PRIME requests of this workload's traffic in 256-row
        batches, so the answer caches and the fleet's resident venues
        start at their steady state: from cold, the hit share and with
        it the median drift for tens of seconds."""
        schedule = make_schedule(
            [VENUE_SEED, 5], rate=self.nominal,
            seconds=self.PRIME / self.nominal, pool_sizes=self.pool_sizes(),
            zipf=self.zipf, rescan_rate=self.rescan,
        )
        req = self.requests(schedule)
        serve = self.batch_server(stack, req)
        for start in range(0, len(req.names) - 255, 256):
            serve(np.arange(start, start + 256))

    def build(self):
        shards = self.pool.shards()
        service = PositioningService()
        for shard in shards:
            service.register(shard)
        return _pipeline_stack(
            service, shards, self.pool.names[0], self.pool.scans[0]
        )

    def close(self, stack):
        stack.pipeline.stop()


class CityFleet(CityRescan):
    name = "city-fleet"
    nominal = 1000.0
    ladder = (3000, 4000, 5000, 6000, 7000, 8000, 9000)
    setup_reps = 3
    spin_s = 0.0
    BUDGET_MB = 1.0

    def build(self):
        shards = self.pool.shards()
        root = self.workdir / f"store-{os.getpid()}-{time.monotonic_ns()}"
        store = ArtifactStore(root)
        mapping = {}
        for shard in shards:
            shard.save(store.path_for(shard.key))
            mapping[shard.key] = shard.key

        def start():
            fleet = ShardFleet(
                store, mapping, workers=1, memory_budget_mb=self.BUDGET_MB
            ).start()
            fleet.locate(self.pool.names[0], self.pool.scans[0], timeout=30.0)
            return fleet

        fleet = self.timed("setup.fleet_start_s", start)
        return SimpleNamespace(fleet=fleet, shards=shards, root=root)

    def close(self, stack):
        stack.fleet.close()
        shutil.rmtree(stack.root, ignore_errors=True)

    def submitter(self, stack, req):
        fleet, names, rows = stack.fleet, req.names, req.rows
        return lambda i: fleet.submit(names[i], rows[i])

    def flush(self, stack):
        return stack.fleet.flush

    def worker_pids(self, stack):
        return [w.proc.pid for w in stack.fleet._workers if w.proc is not None]

    def batch_server(self, stack, req):
        fleet, names, rows = stack.fleet, req.names, req.rows

        def serve(idx):
            tickets = fleet.submit_many([(names[i], rows[i]) for i in idx])
            fleet.flush()
            return np.stack([t.result(30.0) for t in tickets])

        return serve

    def check(self, stack, req, answers):
        # Answers must not depend on the process boundary or eviction.
        service = PositioningService(cache_size=0)
        for shard in stack.shards:
            service.register(shard)
        ok = np.isfinite(answers[:, 0])
        want = service.query_batch(
            [n for n, k in zip(req.names, ok) if k], req.rows[ok]
        )
        if not np.array_equal(want, answers[ok]):
            diff = float(np.abs(want - answers[ok]).max())
            return [f"fleet answers differ from in-process by {diff:.3g}"]
        return []

    def reconcile(self, stack):
        s = stack.fleet.stats()
        if s.requests != s.resolved + s.outstanding:
            return [
                f"FleetStats: requests {s.requests} != resolved "
                f"{s.resolved} + outstanding {s.outstanding}"
            ]
        return []


class KaideDrift(Workload):
    name = "kaide-drift"
    nominal = 500.0
    ladder = (1000, 2000, 2500, 3000, 3500, 4000, 4600)
    #: Few re-scans and a scan pool larger than the service's cache,
    #: so most fixes run completion and estimation on the live map.
    rescan = 0.25
    setup_reps = 3
    POOL = 8192
    #: A survey drop is folded in every APPLY_EVERY seconds; drops
    #: cycle over SLOTS path ids, so the map stops growing after
    #: SLOTS drops and later drops re-survey those paths.
    APPLY_EVERY, SLOTS, PRIME_ROUNDS = 0.2, 8, 1

    writes = True

    def __init__(self, workdir):
        super().__init__(workdir)
        config = PRESETS["bench"]
        self.dataset = get_dataset("kaide", config)
        self.bisim = BiSIMConfig(
            hidden_size=config.hidden_size, epochs=min(config.epochs, 8)
        )
        rng = np.random.default_rng([VENUE_SEED, 4])
        rps = self.dataset.venue.reference_points
        picks = rng.integers(0, len(rps), size=self.POOL)
        self.truth = rps[picks]
        self.scans = measure_at(self.dataset.channel, rps, picks, rng)
        self.tables = []
        for round_ in range(4):
            self.tables.extend(
                simulate_new_survey(
                    self.dataset, n_passes=1, seed=VENUE_SEED + round_
                )
            )
        self.first_path = int(self.dataset.radio_map.path_ids.max()) + 1
        self.applies: List[Dict[str, float]] = []

    def pool_sizes(self):
        return [self.POOL]

    def requests(self, schedule):
        return Requests(
            ["kaide"] * len(schedule),
            self.scans[schedule.scan],
            self.truth[schedule.scan],
        )

    def build(self):
        ds = self.dataset
        shard = self.timed(
            "setup.bisim_train_s",
            lambda: VenueShard.build(
                "kaide",
                ds.radio_map,
                TopoACDifferentiator(entities=ds.venue.plan.entities),
                bisim_config=self.bisim,
            ),
        )
        service = PositioningService()
        service.register(shard)
        stack = _pipeline_stack(service, [shard], "kaide", self.scans[0])
        stack.drops = 0
        return stack

    def close(self, stack):
        stack.pipeline.stop()

    def prime(self, stack) -> None:
        """Fold in PRIME_ROUNDS drops per path slot before measuring:
        the first drops reshape the map and invalidate much of the
        cache, later ones settle into re-surveys of known paths."""
        for _ in range(self.PRIME_ROUNDS * self.SLOTS):
            self.apply_one(stack)
        self.applies.clear()

    def start_writes(self, stack) -> Callable[[], None]:
        """Fold survey drops in on a fixed schedule from a writer
        thread until the returned stop function is called."""
        stop = threading.Event()

        def writer():
            next_at = time.perf_counter()
            while not stop.is_set():
                delay = next_at - time.perf_counter()
                if delay > 0 and stop.wait(delay):
                    break
                next_at += self.APPLY_EVERY
                self.apply_one(stack)

        thread = threading.Thread(target=writer, name="perfbench-writer")
        thread.start()

        def stop_writes():
            stop.set()
            thread.join()

        return stop_writes

    def apply_one(self, stack) -> None:
        i = stack.drops
        stack.drops += 1
        table = self.tables[i % len(self.tables)]
        table.path_id = self.first_path + i % self.SLOTS
        t0 = time.perf_counter()
        # A fresh ingestor per drop: its delta carries only this survey,
        # so the drop replaces the path's rows instead of adding to them.
        ingestor = StreamIngestor(self.dataset.radio_map.n_aps)
        ingestor.ingest_table(table)
        delta = ingestor.drain()
        t1 = time.perf_counter()
        report = stack.service.apply_delta("kaide", delta)
        t2 = time.perf_counter()
        self.applies.append(
            {
                "ingest_ms": 1e3 * (t1 - t0),
                "apply_ms": 1e3 * (t2 - t0),
                "invalidated": report.invalidated,
                "cached": report.invalidated + report.kept,
            }
        )

    def check(self, stack, req, answers):
        # After the last apply, what is served must be what the live
        # shard computes now: no stale cached answer.
        served = np.stack(
            [t.result(30.0) for t in stack.pipeline.submit_many("kaide", self.scans)]
        )
        fresh = stack.shards[0].locate(self.scans)
        diff = float(np.abs(served - fresh).max())
        if diff > 1e-9:
            return [f"served answers differ from cache-off locate by {diff:.3g} after the last apply"]
        if not self.applies:
            return ["no survey drop was applied"]
        return []


WORKLOADS = {
    cls.name: cls for cls in (MallBigmap, CityRescan, KaideDrift, CityFleet)
}
