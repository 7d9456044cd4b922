"""ReplicaPool: routing, failover, hedging, quarantine, floor, metrics."""

import threading
import time

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.serving import (REPLICA_HEALTHY, REPLICA_UNHEALTHY, ReplicaPool,
                           RestartBackoff)
from repro.serving.faults import (SlowModel, WedgedModel, slow_replica,
                                  wedge_replica)

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}


@pytest.fixture
def make_pool(schema, make_service, mem_sink):
    """Factory for an n-replica pool with per-replica model instances."""
    bus, _ = mem_sink

    def _make(n=3, **kwargs):
        services = [
            make_service(model=LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(0)))
            for _ in range(n)
        ]
        kwargs.setdefault("bus", bus)
        kwargs.setdefault("restart_backoff",
                          lambda: RestartBackoff(
                              base_delay=0.001, max_delay=0.001,
                              rng=np.random.default_rng(0)))
        return ReplicaPool(services, **kwargs)

    return _make


def bits(probability):
    """Bit pattern of a float64 — bitwise comparison, not a tolerance."""
    import struct

    return (None if probability is None
            else struct.pack("<d", probability))


def assert_identical(a, b, where=""):
    """Same contract as the PR-7 differential harness: every semantic
    field equal, probability equal bitwise (trace ids / latencies are
    per-call by construction)."""
    assert a.status == b.status, where
    assert a.served_by == b.served_by, where
    assert a.degraded_reason == b.degraded_reason, where
    assert a.error == b.error, where
    assert a.model_version == b.model_version, where
    assert a.request_id == b.request_id, where
    assert bits(a.probability) == bits(b.probability), (
        f"{where}: {a.probability!r} != {b.probability!r} bitwise")


class TestPassthrough:
    @pytest.mark.invariants
    def test_pool_of_one_is_bitwise_identical_to_the_service(self, make_pool):
        pool = make_pool(n=1)
        solo = pool.replicas[0].service
        for features in (REQ, {"field_0": 0}, {"unknown_field": 1}, "junk"):
            assert_identical(pool.predict(features, request_id="r"),
                             solo.predict(features, request_id="r"),
                             where=repr(features))

    @pytest.mark.invariants
    def test_pool_of_one_batch_is_bitwise_identical(self, make_pool):
        pool = make_pool(n=1)
        solo = pool.replicas[0].service
        batch = [REQ, {"field_0": 5}, {"field_1": 1}]
        for a, b in zip(pool.predict_batch(batch),
                        solo.predict_batch(batch)):
            assert_identical(a, b)

    def test_pool_of_one_keeps_heartbeat_and_latency_live(self, make_pool):
        """Inline scoring still records the dispatch: the heartbeat the
        health probe reports and the latency the transport sheds on."""
        now = [100.0]
        pool = make_pool(n=1, clock=lambda: now[0])
        replica = pool.replicas[0]
        now[0] = 105.0
        assert replica.heartbeat_age() == 5.0
        pool.predict_batch([REQ, {"field_0": 5}])
        assert replica.heartbeat_age() == 0.0
        assert replica.inflight == 0
        snapshot = pool.metrics.snapshot()
        assert snapshot["pool.dispatch_latency_s"]["count"] == 1
        assert snapshot["pool.dispatches"]["value"] == 1
        assert snapshot["pool.requests"]["value"] == 2


class TestRouting:
    def test_genuine_answer_from_some_replica(self, make_pool):
        pool = make_pool(n=3)
        response = pool.predict(REQ, request_id="r1")
        assert response.status == "ok"
        assert 0.0 <= response.probability <= 1.0

    def test_least_inflight_picks_lowest_id_on_ties(self, make_pool):
        """_pick registers the dispatch at pick time, so each pick
        shifts the least-inflight choice until the token is released."""
        pool = make_pool(n=3)
        first, t0 = pool._pick()
        assert first.id == 0
        second, t1 = pool._pick()
        assert second.id == 1     # replica 0 already has in-flight work
        first.end(t0, ok=True)
        third, t2 = pool._pick()
        assert third.id == 0      # drained: back to lowest id
        second.end(t1, ok=True)
        third.end(t2, ok=True)

    def test_invalid_requests_stay_typed(self, make_pool):
        pool = make_pool(n=2)
        response = pool.predict("not a mapping")
        assert response.status == "invalid"

    def test_no_healthy_replica_degrades_with_type(self, make_pool):
        pool = make_pool(n=2, min_healthy=1)
        for replica in pool.replicas:
            replica.state = REPLICA_UNHEALTHY
        response = pool.predict(REQ, request_id="r9")
        assert response.status == "degraded"
        assert response.degraded_reason == "no_healthy_replica"
        assert response.request_id == "r9"

    def test_pool_health_aggregates_replicas(self, make_pool):
        pool = make_pool(n=3)
        health = pool.health()
        assert health["size"] == 3
        assert health["healthy"] == 3
        assert len(health["replicas"]) == 3
        assert health["ready"] is True


class TestFailover:
    def test_erroring_primary_fails_over_to_healthy_replica(self, make_pool):
        pool = make_pool(n=2, hedge_ms=5.0, dispatch_timeout_s=2.0)

        def boom(*a, **k):
            raise RuntimeError("replica down")

        pool.replicas[0].service.predict_batch = boom
        response = pool.predict(REQ)
        assert response.status == "ok"
        assert pool.metrics.counter("pool.replica_errors").value == 1

    def test_erroring_primary_fails_over_with_hedging_off(self, make_pool):
        pool = make_pool(n=2, dispatch_timeout_s=2.0)
        assert pool._hedge_delay_s() is None

        def boom(*a, **k):
            raise RuntimeError("replica down")

        pool.replicas[0].service.predict_batch = boom
        response = pool.predict(REQ, request_id="r1")
        assert response.status == "ok"
        assert response.request_id == "r1"
        assert pool.metrics.counter("pool.failovers").value == 1
        assert pool.metrics.counter("pool.hedges").value == 0

    def test_silent_primary_fails_over_with_hedging_off(self, make_pool):
        pool = make_pool(n=2, stale_after_s=0.05, dispatch_timeout_s=5.0)
        slow_replica(pool.replicas[0], delay_s=1.0)
        started = time.monotonic()
        responses = pool.predict_batch([REQ, REQ])
        assert time.monotonic() - started < 0.9
        assert [r.status for r in responses] == ["ok", "ok"]
        assert pool.metrics.counter("pool.failovers").value == 1

    def test_batch_fails_over_once_then_degrades(self, make_pool):
        pool = make_pool(n=2, dispatch_timeout_s=2.0)

        def boom(*a, **k):
            raise RuntimeError("replica down")

        pool.replicas[0].service.predict_batch = boom
        responses = pool.predict_batch([REQ, REQ])
        assert [r.status for r in responses] == ["ok", "ok"]
        assert pool.metrics.counter("pool.failovers").value == 1

    def test_batch_never_mixes_versions_within_one_batch(self, make_pool):
        """Concurrent swap during pool batches: one version per batch."""
        pool = make_pool(n=2)
        stop = threading.Event()

        def swapper():
            flip = 0
            while not stop.is_set():
                flip += 1
                for replica in pool.replicas:
                    service = replica.service
                    service.swap_model(service.model, f"v{flip % 2}")

        thread = threading.Thread(target=swapper, daemon=True)
        thread.start()
        try:
            for _ in range(30):
                versions = {r.model_version
                            for r in pool.predict_batch([REQ] * 8)}
                assert len(versions) == 1
        finally:
            stop.set()
            thread.join(timeout=2.0)


class TestHedging:
    def test_slow_primary_is_hedged_and_fast_replica_wins(self, make_pool):
        pool = make_pool(n=2, hedge_ms=10.0, dispatch_timeout_s=5.0)
        slow_replica(pool.replicas[0], delay_s=0.5)
        started = time.monotonic()
        response = pool.predict(REQ)
        elapsed = time.monotonic() - started
        assert response.status == "ok"
        assert elapsed < 0.45  # did not wait for the slow primary
        assert pool.metrics.counter("pool.hedges").value == 1
        assert pool.metrics.counter("pool.hedge_wins").value == 1

    def test_slow_primary_batch_is_hedged(self, make_pool):
        pool = make_pool(n=2, hedge_ms=10.0, dispatch_timeout_s=5.0)
        slow_replica(pool.replicas[0], delay_s=0.5)
        started = time.monotonic()
        responses = pool.predict_batch([REQ, {"field_0": 5}, "junk"])
        assert time.monotonic() - started < 0.45
        assert [r.status for r in responses] == ["ok", "ok", "invalid"]
        assert pool.metrics.counter("pool.hedges").value == 1
        assert pool.metrics.counter("pool.hedge_wins").value == 1

    def test_fast_primary_needs_no_hedge(self, make_pool):
        pool = make_pool(n=2, hedge_ms=200.0)
        assert pool.predict(REQ).status == "ok"
        assert pool.metrics.counter("pool.hedges").value == 0

    def test_hedging_disabled_by_default(self, make_pool):
        pool = make_pool(n=2)
        assert pool._hedge_delay_s() is None

    def test_hedging_needs_two_healthy_replicas(self, make_pool):
        pool = make_pool(n=2, hedge_ms=5.0)
        pool.replicas[1].state = REPLICA_UNHEALTHY
        assert pool._hedge_delay_s() is None

    def test_hedging_suppressed_under_overload(self, make_pool):
        pool = make_pool(n=2, hedge_ms=5.0)
        tokens = [replica.begin() for replica in pool.replicas
                  for _ in range(3)]
        assert pool._hedge_delay_s() is None
        assert pool.metrics.counter("pool.hedges_suppressed").value == 1
        del tokens

    def test_auto_mode_floors_the_delay(self, make_pool):
        pool = make_pool(n=2, hedge_ms="auto", hedge_floor_ms=25.0)
        delay = pool._hedge_delay_s()
        assert delay is not None and delay >= 0.025
        for _ in range(20):
            pool._observe_latency(0.001)
        assert pool._hedge_delay_s() == pytest.approx(0.025)

    def test_bad_hedge_spec_rejected(self, make_pool):
        with pytest.raises(ValueError):
            make_pool(n=2, hedge_ms="sometimes")


class TestWedgeAndQuarantine:
    def test_wedged_replica_goes_stale_not_its_peers(self, make_pool):
        pool = make_pool(n=2, stale_after_s=0.05, hedge_ms=10.0,
                         dispatch_timeout_s=2.0)
        wedged = wedge_replica(pool.replicas[0], max_wedge_s=5.0)
        try:
            response = pool.predict(REQ)  # hedge answers despite the wedge
            assert response.status == "ok"
            time.sleep(0.1)
            assert pool.replicas[0].is_stale(0.05)
            assert not pool.replicas[1].is_stale(0.05)
        finally:
            wedged.release()

    def test_quarantine_and_restart_through_factory(self, schema,
                                                    make_service, make_pool):
        rebuilt = []

        def factory(replica_id):
            rebuilt.append(replica_id)
            return make_service(model=LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(1)))

        pool = make_pool(n=3, service_factory=factory, failure_threshold=2,
                         min_healthy=1)
        pool.replicas[0].note_failure()
        pool.replicas[0].note_failure()
        pool.check_replicas()
        assert pool.replicas[0].state == REPLICA_UNHEALTHY
        assert pool.metrics.counter("pool.quarantined").value == 1
        time.sleep(0.005)  # let the (tiny) restart backoff elapse
        pool.check_replicas()
        assert rebuilt == [0]
        assert pool.replicas[0].state == REPLICA_HEALTHY
        assert pool.replicas[0].restarts == 1
        assert pool.metrics.counter("pool.restarts").value == 1

    def test_min_healthy_floor_blocks_quarantine(self, make_pool, mem_sink):
        pool = make_pool(n=2, min_healthy=2, failure_threshold=1)
        pool.replicas[0].note_failure()
        pool.check_replicas()
        assert pool.replicas[0].state == REPLICA_HEALTHY  # floor held
        assert pool.metrics.counter("pool.floor_holds").value == 1

    def test_failed_restart_reenters_backoff(self, make_pool):
        def factory(replica_id):
            raise RuntimeError("cannot rebuild yet")

        pool = make_pool(n=2, service_factory=factory, failure_threshold=1)
        pool.replicas[0].note_failure()
        pool.check_replicas()
        time.sleep(0.005)
        pool.check_replicas()
        assert pool.replicas[0].state == REPLICA_UNHEALTHY
        assert pool.metrics.counter("pool.restart_failures").value == 1
        assert pool.replicas[0].next_restart_at is not None

    def test_quarantine_emits_replica_events(self, make_pool, mem_sink):
        _, sink = mem_sink
        pool = make_pool(n=3, failure_threshold=1,
                         service_factory=lambda i: None)
        pool.replicas[2].note_failure()
        pool.check_replicas()
        events = [e for e in sink.of_type("replica")
                  if e.payload["status"] == "quarantined"]
        assert len(events) == 1
        assert events[0].payload["replica"] == "replica-2"
        assert events[0].payload["reason"] == "failures"


class TestKillMidStream:
    def test_killing_one_replica_loses_zero_accepted_requests(self,
                                                              make_pool):
        """The tentpole guarantee: a replica dying mid-stream never costs
        an accepted request a genuine-or-typed answer."""
        pool = make_pool(n=3, hedge_ms=10.0, dispatch_timeout_s=2.0,
                         failure_threshold=2)
        answers = []
        errors = []

        def client(k):
            try:
                for i in range(10):
                    answers.append(pool.predict(REQ, request_id=f"c{k}-{i}"))
            except Exception as exc:  # noqa: BLE001 — the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(k,))
                   for k in range(4)]
        for thread in threads:
            thread.start()
        # Kill replica 0 mid-stream: every later scoring on it explodes.
        def boom(*a, **k):
            raise RuntimeError("SIGKILL")

        pool.replicas[0].service.predict_batch = boom
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert len(answers) == 40
        assert all(r.status in ("ok", "degraded") for r in answers)


class TestPoolMetrics:
    def test_snapshot_folds_in_per_replica_series(self, make_pool):
        pool = make_pool(n=2)
        pool.predict(REQ)
        pool.replicas[1].service.predict(REQ)  # touch the idle replica too
        snapshot = pool.metrics.snapshot()
        assert "pool.dispatches" in snapshot
        per_replica = [k for k in snapshot if k.startswith("replica.")]
        assert any(k.startswith("replica.0.") for k in per_replica)
        assert any(k.startswith("replica.1.") for k in per_replica)

    def test_prometheus_rendering_exposes_replica_series(self, make_pool):
        from repro.obs.export import render_prometheus

        pool = make_pool(n=2)
        pool.predict(REQ)
        body = render_prometheus(pool.metrics.snapshot())
        assert "repro_pool_dispatches_total" in body
        assert "repro_replica_0_serve_requests_total" in body


class TestFaultInjectors:
    def test_wedged_model_blocks_until_release(self, schema):
        model = LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(0))
        wedged = WedgedModel(model, max_wedge_s=5.0)
        done = threading.Event()

        def score():
            from repro.data.dataset import Batch
            wedged.predict_proba(Batch(
                x=np.zeros((1, len(schema.cardinalities)), dtype=np.int64),
                x_cross=None, y=np.zeros(1)))
            done.set()

        thread = threading.Thread(target=score, daemon=True)
        thread.start()
        assert not done.wait(timeout=0.1)  # blocked
        wedged.release()
        assert done.wait(timeout=5.0)
        assert wedged.wedged_calls == 1

    def test_slow_and_wedge_injectors_keep_the_version(self, make_pool):
        pool = make_pool(n=2)
        before = pool.replicas[0].service.model_version
        slow = slow_replica(pool.replicas[0], delay_s=0.0)
        assert isinstance(pool.replicas[0].service.model, SlowModel)
        assert pool.replicas[0].service.model_version == before
        del slow
