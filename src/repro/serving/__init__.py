"""Serving subsystem: deployable multi-venue positioning on the
batched query path.

Serving API
-----------
* :class:`VenueShard` — one venue/floor deployment; built from a raw
  radio map by running differentiate → impute → fit-estimator offline
  (cold start), or loaded from a shard artifact written by
  :meth:`VenueShard.save` / ``python -m repro train`` (warm start,
  no training); ``reload()`` hot-swaps a live shard from an artifact.
  Online queries go through the batched impute→estimate path either
  way.
* :class:`PositioningService` — the shard registry; routes mixed-venue
  fingerprint batches, caches answers in an LRU keyed on quantized
  fingerprints, and tracks latency/throughput in
  :class:`ServiceStats`.
* :class:`ServingPipeline` — thread-safe micro-batching front end:
  many worker threads submit individual queries, one flusher thread
  serves whatever is queued (up to ``max_batch`` rows) whenever it is
  idle, through the batched query path; a submit-time cache
  fast path answers re-scans without enqueueing.
* :mod:`repro.serving.loadgen` — the ``python -m repro load-test``
  concurrent workload generator: replays scenario mixes (Zipf venue
  skew, device re-scan duplicates, burst vs steady arrival) and
  reports p50/p95/p99 latency plus aggregate throughput.
* :mod:`repro.serving.bench` — the ``python -m repro serve-bench``
  throughput benchmark comparing the batched path against the old
  per-query loop.

Fleet API (city scale)
----------------------
* :class:`ShardRegistry` — venue → artifact-key registry that lazily
  loads shards from an :class:`~repro.artifacts.ArtifactStore` on
  first query (memory-mapping the precomputed tensors), keeps an LRU
  over resident venues, and evicts the coldest when a configurable
  memory budget is exceeded; :class:`RegistryStats` counts lazy
  loads, fast (mmap re-attach) reloads, evictions and bytes.
* :class:`ShardFleet` — multi-process serving: venues are
  hash-partitioned (:func:`partition_venue`) across worker processes,
  each owning a private registry; requests are bundled over pipes,
  served batched per venue per tick (bit-identical to per-request
  serving), and crashed workers are respawned with their in-flight
  work resubmitted.  :class:`FleetStats` /
  :class:`WorkerStats` aggregate per-worker counters.
* :mod:`repro.serving.fleetbench` — the
  ``python -m repro serve-bench --workers N`` fleet-vs-single-process
  benchmark over a synthetic city venue pool
  (:func:`~repro.serving.loadgen.synthetic_venue_pool`).

Floor routing (stacked venues)
------------------------------
* :class:`ShardKey` — parsed ``"venue/floor"`` shard address;
  :func:`coerce_key` is the deprecation shim keeping bare venue
  strings first-class everywhere a key is accepted.
* :class:`FloorClassifier` / :class:`FloorRouter` — fingerprint →
  floor classification ahead of 2D positioning, so a query addressed
  to a bare stacked venue is routed to the right per-floor shard
  (``PositioningService.attach_floor_router``), not rejected.
* :func:`deploy_floors` / :func:`save_floor_deployment` /
  :func:`load_floor_deployment` — deploy every floor of a
  :class:`~repro.venue.Venue` as per-floor shards plus one
  ``serving.floors`` classifier artifact, and warm-start the whole
  stack from an :class:`~repro.artifacts.ArtifactStore`.

See ``examples/serving_demo.py`` for an end-to-end mixed-venue demo
and ``examples/concurrent_serving.py`` for the pipeline under
multi-threaded load.
"""

from .completion import (
    EncoderCompletion,
    MapCompletion,
    MeanFillCompletion,
)
from .fleet import (
    FleetStats,
    RegistryStats,
    ShardFleet,
    ShardRegistry,
    WorkerStats,
    partition_venue,
)
from .floors import (
    FLOORS_KIND,
    FloorClassifier,
    FloorRouter,
    deploy_floors,
    load_floor_deployment,
    save_floor_deployment,
)
from .keys import KEY_SEPARATOR, ShardKey, coerce_key
from .loadgen import (
    DEFAULT_MIX,
    DEFAULT_SCENARIO,
    DRIFT_SCENARIO,
    LoadReport,
    Scenario,
    fleet_schedule,
    run_scenario,
    scan_pool,
    synthetic_venue_pool,
    zipf_weights,
)
from .pipeline import PipelineStats, ServingPipeline, Ticket
from .service import (
    SHARD_KIND,
    DeltaApplyReport,
    PositioningService,
    ServiceStats,
    VenueShard,
)

__all__ = [
    "DEFAULT_MIX",
    "DEFAULT_SCENARIO",
    "DRIFT_SCENARIO",
    "DeltaApplyReport",
    "EncoderCompletion",
    "FLOORS_KIND",
    "FleetStats",
    "FloorClassifier",
    "FloorRouter",
    "KEY_SEPARATOR",
    "LoadReport",
    "MapCompletion",
    "MeanFillCompletion",
    "PipelineStats",
    "PositioningService",
    "RegistryStats",
    "Scenario",
    "ServingPipeline",
    "SHARD_KIND",
    "ServiceStats",
    "ShardFleet",
    "ShardKey",
    "ShardRegistry",
    "Ticket",
    "VenueShard",
    "WorkerStats",
    "coerce_key",
    "deploy_floors",
    "fleet_schedule",
    "load_floor_deployment",
    "partition_venue",
    "run_scenario",
    "save_floor_deployment",
    "scan_pool",
    "synthetic_venue_pool",
    "zipf_weights",
]
