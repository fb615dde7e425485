"""ServingPipeline: micro-batching, coalescing, fast path, lifecycle."""

import threading
import time

import numpy as np
import pytest

from repro.core import MAROnlyDifferentiator
from repro.exceptions import ServingError
from repro.positioning import KNNEstimator, WKNNEstimator
from repro.serving import PositioningService, ServingPipeline


def scans(dataset, n, seed):
    rng = np.random.default_rng(seed)
    rps = dataset.venue.reference_points
    return np.stack(
        [
            dataset.channel.measure(rps[i % len(rps)], rng).rssi
            for i in range(n)
        ]
    )


@pytest.fixture
def service(kaide_smoke, longhu_smoke):
    svc = PositioningService(cache_size=256)
    for name, ds in (("kaide", kaide_smoke), ("longhu", longhu_smoke)):
        svc.deploy(
            name,
            ds.radio_map,
            MAROnlyDifferentiator(),
            estimator=WKNNEstimator(),
        )
    return svc


class TestLifecycle:
    def test_context_manager_starts_and_stops(self, service):
        with ServingPipeline(service) as pipeline:
            assert pipeline.running
        assert not pipeline.running

    def test_double_start_rejected(self, service):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="already started"):
                pipeline.start()

    def test_submit_before_start_rejected(self, service, kaide_smoke):
        pipeline = ServingPipeline(service)
        with pytest.raises(ServingError, match="not running"):
            pipeline.submit("kaide", scans(kaide_smoke, 1, 0)[0])

    def test_submit_after_stop_rejected(self, service, kaide_smoke):
        pipeline = ServingPipeline(service)
        with pipeline:
            pass
        with pytest.raises(ServingError, match="not running"):
            pipeline.submit("kaide", scans(kaide_smoke, 1, 0)[0])

    def test_stop_drains_pending(self, service, kaide_smoke):
        """Tickets queued at stop() time still resolve."""
        batch = scans(kaide_smoke, 8, 1)
        pipeline = ServingPipeline(service, max_delay_ms=50.0)
        pipeline.start()
        tickets = pipeline.submit_many("kaide", batch)
        pipeline.stop()
        out = np.stack([t.result(timeout=1.0) for t in tickets])
        assert out.shape == (8, 2)
        assert np.isfinite(out).all()

    def test_invalid_config_rejected(self, service):
        with pytest.raises(ServingError, match="max_batch"):
            ServingPipeline(service, max_batch=0)
        with pytest.raises(ServingError, match="max_delay_ms"):
            ServingPipeline(service, max_delay_ms=-1.0)


class TestCorrectness:
    def test_results_match_direct_query_batch(
        self, service, kaide_smoke
    ):
        batch = scans(kaide_smoke, 16, 2)
        direct = service.shard("kaide").locate(batch)
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            tickets = pipeline.submit_many("kaide", batch)
            out = np.stack([t.result(timeout=5.0) for t in tickets])
        np.testing.assert_allclose(out, direct, atol=1e-8)

    def test_mixed_venues_route_correctly(
        self, service, kaide_smoke, longhu_smoke
    ):
        ka = scans(kaide_smoke, 4, 3)
        lo = scans(longhu_smoke, 4, 4)
        direct_ka = service.shard("kaide").locate(ka)
        direct_lo = service.shard("longhu").locate(lo)
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            tk = pipeline.submit_many("kaide", ka)
            tl = pipeline.submit_many("longhu", lo)
            out_ka = np.stack([t.result(timeout=5.0) for t in tk])
            out_lo = np.stack([t.result(timeout=5.0) for t in tl])
        np.testing.assert_allclose(out_ka, direct_ka, atol=1e-8)
        np.testing.assert_allclose(out_lo, direct_lo, atol=1e-8)

    def test_locate_single_blocking(self, service, kaide_smoke):
        fp = scans(kaide_smoke, 1, 5)[0]
        direct = service.shard("kaide").locate(fp[None, :])[0]
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            out = pipeline.locate("kaide", fp, timeout=5.0)
        np.testing.assert_allclose(out, direct, atol=1e-8)

    def test_concurrent_submitters_all_answered(
        self, service, kaide_smoke
    ):
        """Many threads x many requests: every ticket resolves with a
        finite location and the stats account for every request."""
        n_threads, per_thread = 6, 20
        batch = scans(kaide_smoke, per_thread, 6)
        results = [None] * n_threads

        with ServingPipeline(service, max_delay_ms=0.5) as pipeline:

            def worker(wid):
                tickets = [
                    pipeline.submit("kaide", row) for row in batch
                ]
                results[wid] = np.stack(
                    [t.result(timeout=10.0) for t in tickets]
                )

            threads = [
                threading.Thread(target=worker, args=(w,))
                for w in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        expected = service.shard("kaide").locate(batch)
        for got in results:
            np.testing.assert_allclose(got, expected, atol=1e-8)
        assert pipeline.stats.submitted == n_threads * per_thread
        assert (
            pipeline.stats.fast_path_hits + pipeline.stats.flushed
            == pipeline.stats.submitted
        )


class TestCoalescing:
    def test_queued_requests_coalesce_into_one_batch(
        self, kaide_smoke
    ):
        """Requests submitted while the flusher is blocked flush as
        one micro-batch, not one service batch per request."""
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 12, 7)
        pipeline = ServingPipeline(svc, max_delay_ms=500.0)
        tickets = []
        # Queue everything before the flusher exists, then start it:
        # the deadline window is wide, so all rows flush together.
        with pipeline._mu:
            pipeline._started = True
        tickets = pipeline.submit_many("kaide", batch)
        pipeline._thread = threading.Thread(
            target=pipeline._run, daemon=True
        )
        pipeline._thread.start()
        out = np.stack([t.result(timeout=5.0) for t in tickets])
        pipeline.stop()
        assert out.shape == (12, 2)
        assert pipeline.stats.batches == 1
        assert pipeline.stats.largest_batch == 12
        assert svc.stats.batches == 1

    def test_rows_arriving_during_a_flush_form_the_next_batch(
        self, kaide_smoke, monkeypatch
    ):
        """Work-conserving batching: a lone row is served at once, and
        rows queued while that flush runs go out as one batch."""
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 6, 14)
        entered, release = threading.Event(), threading.Event()
        serve = svc._serve_rows
        calls = []

        def gated(*args, **kwargs):
            calls.append(len(args[0]))
            if len(calls) == 1:
                entered.set()
                release.wait(timeout=30.0)
            return serve(*args, **kwargs)

        monkeypatch.setattr(svc, "_serve_rows", gated)
        with ServingPipeline(svc) as pipeline:
            tickets = [pipeline.submit("kaide", batch[0])]
            assert entered.wait(timeout=30.0)
            tickets += [pipeline.submit("kaide", row) for row in batch[1:]]
            release.set()
            out = np.stack([t.result(timeout=30.0) for t in tickets])
        np.testing.assert_allclose(
            out, svc.shard("kaide").locate(batch), atol=1e-8
        )
        assert calls == [1, 5]
        assert pipeline.stats.batches == 2
        assert pipeline.stats.largest_batch == 5

    def test_max_batch_splits_flushes(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        batch = scans(kaide_smoke, 10, 8)
        with ServingPipeline(
            svc, max_batch=4, max_delay_ms=200.0
        ) as pipeline:
            tickets = pipeline.submit_many("kaide", batch)
            for t in tickets:
                t.result(timeout=5.0)
        assert pipeline.stats.batches >= 3  # 10 rows / max_batch 4
        assert pipeline.stats.largest_batch <= 4

    def test_deadline_flush_serves_lone_request(
        self, service, kaide_smoke
    ):
        fp = scans(kaide_smoke, 1, 9)[0]
        with ServingPipeline(service, max_delay_ms=5.0) as pipeline:
            start = time.perf_counter()
            out = pipeline.locate("kaide", fp, timeout=5.0)
            elapsed = time.perf_counter() - start
        assert np.isfinite(out).all()
        assert elapsed < 2.0  # deadline fired, not stuck forever


class TestFastPath:
    def test_cache_hit_resolves_at_submit(self, service, kaide_smoke):
        fp = scans(kaide_smoke, 1, 10)[0]
        with ServingPipeline(service, max_delay_ms=1.0) as pipeline:
            first = pipeline.locate("kaide", fp, timeout=5.0)
            ticket = pipeline.submit("kaide", fp)
            # Resolved synchronously from the cache: done before wait.
            assert ticket.done
            np.testing.assert_allclose(
                ticket.result(), first, atol=1e-8
            )
        assert pipeline.stats.fast_path_hits >= 1

    def test_fast_path_disabled_without_cache(self, kaide_smoke):
        svc = PositioningService(cache_size=0)
        svc.deploy(
            "kaide",
            kaide_smoke.radio_map,
            MAROnlyDifferentiator(),
            estimator=KNNEstimator(),
        )
        fp = scans(kaide_smoke, 1, 11)[0]
        with ServingPipeline(svc, max_delay_ms=1.0) as pipeline:
            pipeline.locate("kaide", fp, timeout=5.0)
            pipeline.locate("kaide", fp, timeout=5.0)
        assert pipeline.stats.fast_path_hits == 0
        assert pipeline.stats.flushed == 2


class TestValidation:
    def test_unknown_venue_fails_at_submit(self, service, kaide_smoke):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="unknown venue"):
                pipeline.submit("mall99", scans(kaide_smoke, 1, 12)[0])

    def test_wrong_width_fails_at_submit(self, service):
        with ServingPipeline(service) as pipeline:
            with pytest.raises(ServingError, match="expects"):
                pipeline.submit("kaide", np.zeros(3))

    def test_bad_request_cannot_poison_batch(
        self, service, kaide_smoke
    ):
        """A rejected submit leaves queued good requests unharmed."""
        good = scans(kaide_smoke, 2, 13)
        with ServingPipeline(service, max_delay_ms=2.0) as pipeline:
            t1 = pipeline.submit("kaide", good[0])
            with pytest.raises(ServingError):
                pipeline.submit("kaide", np.zeros(2))
            t2 = pipeline.submit("kaide", good[1])
            assert np.isfinite(t1.result(timeout=5.0)).all()
            assert np.isfinite(t2.result(timeout=5.0)).all()

    def test_result_timeout(self, service):
        """A ticket that can never resolve times out, not deadlocks."""
        from repro.serving import Ticket

        pipeline = ServingPipeline(service, max_delay_ms=1.0)
        ticket = Ticket(pipeline._done_cv)
        with pytest.raises(ServingError, match="timed out"):
            ticket.result(timeout=0.05)
