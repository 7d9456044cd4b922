"""The request path: statuses, deadlines, breaker coupling, probes."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.serving import (
    BatchRequest,
    CircuitBreaker,
    LEVEL_FULL,
    LEVEL_MAIN_EFFECTS,
    OverloadedError,
    ReplicaPool,
    STATUS_DEGRADED,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_SHED,
)
from repro.data import Batch
from repro.data.cross import CrossProductTransform
from repro.experiments import default_config, prepare_dataset
from repro.serving import build_serving_stack
from repro.serving.faults import FlakyModel, SlowModel


class TestOkPath:
    def test_valid_request_scores_fully(self, make_service, mem_sink):
        _, sink = mem_sink
        service = make_service()
        response = service.predict({"field_0": 1, "field_1": 2},
                                   request_id="r1")
        assert response.status == STATUS_OK
        assert response.served_by == LEVEL_FULL
        assert 0.0 <= response.probability <= 1.0
        assert response.request_id == "r1"
        assert response.latency_ms is not None
        event, = sink.of_type("serve_request")
        assert event.payload["status"] == STATUS_OK
        assert event.payload["request_id"] == "r1"

    def test_counters_accumulate(self, make_service):
        service = make_service()
        for _ in range(3):
            service.predict({"field_0": 1})
        assert service.metrics.counter("serve.requests").value == 3
        assert service.metrics.counter("serve.ok").value == 3
        assert service.metrics.histogram("serve.latency_s").count == 3

    def test_response_dict_drops_nones(self, make_service):
        response = make_service().predict({"field_0": 1})
        payload = response.as_dict()
        assert "error" not in payload
        assert "degraded_reason" not in payload


class TestInvalidPath:
    def test_invalid_request_reports_fields(self, make_service):
        service = make_service()
        response = service.predict({"wrong": 1})
        assert response.status == STATUS_INVALID
        assert response.probability is None
        assert not response.answered
        assert response.error["field_errors"] == {"wrong": "unknown field"}

    def test_invalid_does_not_touch_the_breaker(self, make_service):
        breaker = CircuitBreaker(failure_threshold=1)
        service = make_service(breaker=breaker)
        service.predict("not a dict")
        assert breaker.state == CircuitBreaker.CLOSED


class TestDegradedPaths:
    def test_scoring_failure_degrades_and_feeds_breaker(self, make_service,
                                                        lr_model, mem_sink):
        _, sink = mem_sink
        breaker = CircuitBreaker(failure_threshold=2)
        service = make_service(FlakyModel(lr_model, fail_first=10),
                               breaker=breaker)
        response = service.predict({"field_0": 1})
        assert response.status == STATUS_DEGRADED
        assert response.degraded_reason == "model_error"
        assert response.served_by == LEVEL_MAIN_EFFECTS
        assert response.answered  # degraded but still a usable probability
        service.predict({"field_0": 1})
        assert breaker.state == CircuitBreaker.OPEN
        assert sink.of_type("degrade")

    def test_open_breaker_skips_the_model(self, make_service, lr_model):
        breaker = CircuitBreaker(failure_threshold=1)
        flaky = FlakyModel(lr_model, fail_first=1)
        service = make_service(flaky, breaker=breaker)
        service.predict({"field_0": 1})   # fails, opens the breaker
        calls_before = flaky.calls
        response = service.predict({"field_0": 1})
        assert response.status == STATUS_DEGRADED
        assert response.degraded_reason == "breaker_open"
        assert flaky.calls == calls_before  # full model never invoked

    def test_deadline_precheck_answers_from_ladder(self, make_service):
        service = make_service()
        service.predict({"field_0": 1})  # warm the latency EWMA
        response = service.predict({"field_0": 1}, deadline_s=1e-12)
        assert response.status == STATUS_DEGRADED
        assert response.degraded_reason == "deadline"
        assert response.served_by == LEVEL_MAIN_EFFECTS
        assert service.metrics.counter("serve.deadline_misses").value == 1

    def test_late_answer_is_discarded(self, make_service, lr_model):
        slow = SlowModel(lr_model, delay_s=0.05)
        service = make_service(slow)
        # EWMA is cold (0.0) so the pre-check passes; the scoring itself
        # overshoots the deadline and the late answer must not be served.
        response = service.predict({"field_0": 1}, deadline_s=0.01)
        assert response.status == STATUS_DEGRADED
        assert response.degraded_reason == "deadline"
        assert slow.calls == 1  # model did run — its answer was discarded

    def test_default_deadline_from_constructor(self, make_service, lr_model):
        service = make_service(SlowModel(lr_model, delay_s=0.05),
                               deadline_s=0.01)
        response = service.predict({"field_0": 1})
        assert response.degraded_reason == "deadline"

    def test_default_deadline_leaves_the_request_untouched(
            self, make_service, mem_sink):
        _, sink = mem_sink
        service = make_service(deadline_s=0.05)
        requests = [BatchRequest({"field_0": 1}), BatchRequest("junk")]
        responses = service.predict_batch(requests)
        assert [r.status for r in responses] == [STATUS_OK, STATUS_INVALID]
        assert [r.deadline_s for r in requests] == [None, None]
        # Every answer is still accounted against the resolved budget.
        assert [e.payload["deadline_ms"]
                for e in sink.of_type("serve_request")] == [50.0, 50.0]

    def test_no_model_serves_the_prior(self, make_service):
        service = make_service(None, prior_ctr=0.3)
        assert not service.ready
        response = service.predict({"field_0": 1})
        assert response.status == STATUS_DEGRADED
        assert response.degraded_reason == "model_unavailable"
        assert response.probability == pytest.approx(0.3)


class TestModelSwap:
    def test_swap_updates_version_and_readiness(self, make_service, lr_model):
        service = make_service(None)
        assert not service.ready
        old = service.swap_model(lr_model, "epoch-00000007")
        assert old == "initial"
        assert service.ready
        assert service.model_version == "epoch-00000007"
        assert service.predict({"field_0": 1}).status == STATUS_OK

    def test_cross_model_requires_transform(self, schema, rng, make_service):
        from repro.models.shallow import Poly2

        model = Poly2(schema.cardinalities, [4] * schema.num_pairs, rng=rng)
        with pytest.raises(ValueError, match="cross"):
            make_service(model)
        service = make_service(None)
        with pytest.raises(ValueError, match="cross"):
            service.swap_model(model, "v2")


class TestShedAndProbes:
    def test_shed_response_is_typed(self, make_service, mem_sink):
        _, sink = mem_sink
        service = make_service()
        error = OverloadedError("queue depth limit", depth=64)
        response = service.shed_response(error, request_id="r3")
        assert response.status == STATUS_SHED
        assert response.error["code"] == "overloaded"
        assert response.request_id == "r3"
        event, = sink.of_type("shed")
        assert event.payload["depth"] == 64

    def test_health_probe_snapshot(self, make_service):
        """The probes are the pool's: a pool of one reports its replica."""
        pool = ReplicaPool([make_service()])
        pool.predict({"field_0": 1})
        health = pool.health()
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert health["replicas"][0]["breaker"] == "closed"
        requests = pool.metrics.snapshot()["replica.0.serve.requests"]
        assert requests["value"] == 1.0

    def test_readiness_probe(self, make_service, lr_model):
        service = make_service(None)
        pool = ReplicaPool([service])
        assert service.ready is False
        assert pool.readiness()["ready"] is False
        service.swap_model(lr_model, "v1")
        assert service.ready is True
        assert pool.readiness() == {"ready": True, "model_version": "v1",
                                    "healthy": 1, "replicas": 1}


class TestServingStack:
    def test_serves_with_the_cross_transform_the_dataset_fitted(self):
        """Start-up fits the cross vocabulary once, in the dataset build,
        and serves training's cross ids."""
        fit_sketch = CrossProductTransform.fit_sketch
        with mock.patch.object(CrossProductTransform, "fit_sketch",
                               autospec=True, side_effect=fit_sketch) as fit:
            stack = build_serving_stack("Poly2", "criteo", "quick",
                                        samples=300)
        assert fit.call_count == 1
        transform = stack.service.replicas[0].service.cross_transform
        bundle = prepare_dataset(replace(default_config("criteo", "quick"),
                                         n_samples=300))
        np.testing.assert_array_equal(transform.transform(bundle.full.x),
                                      bundle.full.x_cross)


@pytest.mark.serving
class TestModelIdSpace:
    """Requests are validated against the vocabularies the model's
    tables were sized by, not the raw cardinalities in the schema."""

    @pytest.mark.parametrize("model_name", ["LR", "Poly2"])
    def test_every_test_row_scores_as_the_model_does(self, model_name):
        stack = build_serving_stack(model_name, "criteo", "quick",
                                    samples=2000)
        bundle = prepare_dataset(replace(default_config("criteo", "quick"),
                                         n_samples=2000))
        model = stack.service.replicas[0].service.model
        names = bundle.full.schema.field_names
        requests = [dict(zip(names, map(int, row))) for row in bundle.test.x]
        responses = stack.service.predict_batch(requests)
        assert [r.status for r in responses] == [STATUS_OK] * len(requests)
        test = bundle.test
        expected = np.asarray(model.predict_proba(
            Batch(x=test.x, x_cross=test.x_cross, y=test.y)))
        np.testing.assert_array_equal(
            [r.probability for r in responses], expected)

    def test_an_id_past_the_vocabulary_scores_as_oov(self):
        stack = build_serving_stack("LR", "criteo", "quick", samples=2000)
        bundle = prepare_dataset(replace(default_config("criteo", "quick"),
                                         n_samples=2000))
        names = bundle.full.schema.field_names
        base = dict(zip(names, map(int, bundle.test.x[0])))
        for name, cardinality in zip(names, bundle.full.cardinalities):
            past, oov = (stack.service.predict_batch(
                [{**base, name: value}])[0] for value in (cardinality, 0))
            assert past.status == STATUS_OK, (name, past)
            assert past.probability == oov.probability, name
