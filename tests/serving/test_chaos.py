"""Chaos suite: every fault class → a typed response + a matching event.

The contract under test (docs/serving.md): no fault a client or the
environment can produce may crash the service or leave a request
unanswered — each fault class resolves to a typed status and leaves the
matching observability event, so an incident reconstructs from the
trace alone.  The process-level kill/restart variant lives in
``test_server_e2e.py``; these run in-process so each fault is
deterministic.
"""

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.faults import InjectedCrash
from repro.serving import (
    BoundedRequestQueue,
    CanaryController,
    CircuitBreaker,
    PredictionService,
    ReplicaPool,
    STATUS_DEGRADED,
    STATUS_INVALID,
    STATUS_OK,
)
from repro.serving.faults import (
    CheckpointSwapper,
    FlakyModel,
    ServeCrash,
    SlowModel,
    malformed_requests,
    valid_requests,
)

pytestmark = pytest.mark.serving


class TestMalformedRequestChaos:
    def test_every_malformed_payload_gets_a_typed_answer(self, schema,
                                                         make_service,
                                                         mem_sink):
        _, sink = mem_sink
        service = make_service()
        for payload in malformed_requests(schema):
            response = service.predict(payload)
            assert response.status == STATUS_INVALID
            assert response.error["code"] == "invalid_request"
        # One serve_request event per fault, and the service still works.
        assert len(sink.of_type("serve_request")) == len(
            malformed_requests(schema))
        for request in valid_requests(schema, count=2):
            assert service.predict(request).status == STATUS_OK


class TestScoringFailureChaos:
    def test_flaky_model_degrades_then_opens_the_breaker(self, schema,
                                                         lr_model, mem_sink):
        bus, sink = mem_sink
        service = PredictionService(
            FlakyModel(lr_model, fail_first=100), schema, prior_ctr=0.3,
            breaker=CircuitBreaker(failure_threshold=3), bus=bus)
        responses = [service.predict(request, request_id=f"r{i}")
                     for i, request in enumerate(
                         valid_requests(schema, count=8))]
        assert all(r.status == STATUS_DEGRADED for r in responses)
        assert all(r.answered for r in responses)  # degraded-but-answered
        reasons = [r.degraded_reason for r in responses]
        assert reasons[:3] == ["model_error"] * 3
        assert set(reasons[3:]) == {"breaker_open"}
        assert len(sink.of_type("degrade")) == len(responses)
        assert service.breaker.state == CircuitBreaker.OPEN


class TestSlowModelChaos:
    def test_deadline_misses_degrade_inside_the_budget(self, schema,
                                                       lr_model, mem_sink):
        bus, sink = mem_sink
        service = PredictionService(
            SlowModel(lr_model, delay_s=0.05), schema, prior_ctr=0.3,
            deadline_s=0.005, bus=bus)
        for request in valid_requests(schema, count=3):
            response = service.predict(request)
            assert response.status == STATUS_DEGRADED
            assert response.degraded_reason == "deadline"
            assert response.answered
        assert service.metrics.counter("serve.deadline_misses").value == 3
        assert {e.payload["reason"]
                for e in sink.of_type("degrade")} == {"deadline"}


class TestCorruptCheckpointChaos:
    def test_corruption_mid_traffic_rolls_back_silently(self, schema,
                                                        make_service,
                                                        mem_sink, tmp_path):
        bus, sink = mem_sink
        service = make_service()
        manager = CheckpointManager(tmp_path / "ckpts")
        watcher = CanaryController(
            ReplicaPool([service]), manager,
            lambda: LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(123)),
            bus=bus, sleep=lambda _d: None)
        swapper = CheckpointSwapper(manager)

        assert service.predict({"field_0": 1}).status == STATUS_OK
        swapper.write_corrupt("truncated")
        watcher.poll_once()
        assert service.predict({"field_0": 1}).status == STATUS_OK
        assert service.model_version == "initial"
        assert [e.payload["status"] for e in sink.of_type("rollout")] == \
            ["detected", "corrupt"]


class TestOverloadChaos:
    def test_saturated_queue_sheds_with_typed_503(self, make_service,
                                                  mem_sink):
        _, sink = mem_sink
        service = make_service()
        shed_responses = []
        queue = BoundedRequestQueue(
            max_depth=2,
            on_shed=lambda item, error: shed_responses.append(
                service.shed_response(error, request_id=item)))
        for i in range(5):
            queue.put(f"r{i}")
        assert len(shed_responses) == 3
        for response in shed_responses:
            assert response.status == "shed"
            assert response.error["code"] == "overloaded"
        assert len(sink.of_type("shed")) == 3
        assert service.metrics.counter("serve.shed").value == 3


class TestCrashRestartChaos:
    def test_restart_recovers_checkpoint_state(self, schema, make_service,
                                               tmp_path):
        from repro.serving.server import handle_request_line

        manager = CheckpointManager(tmp_path / "ckpts")
        service = make_service()
        service._crash = ServeCrash(at_request=3)
        CheckpointSwapper(manager).write_valid(service.model)

        survived = 0
        with pytest.raises(InjectedCrash):
            for request in valid_requests(schema, count=5):
                import json

                response, _ = handle_request_line(json.dumps(request),
                                                  service)
                assert response["status"] == STATUS_OK
                survived += 1
        assert survived == 2  # crash injected on the third request

        # "Restart": a fresh service against the same checkpoint dir must
        # recover the persisted weights and report ready.
        loaded = manager.latest_valid()
        assert loaded is not None
        checkpoint, _path = loaded
        replacement = LogisticRegression(schema.cardinalities,
                                         rng=np.random.default_rng(999))
        replacement.load_state_dict(checkpoint.model_state)
        restarted = make_service(replacement)
        assert restarted.ready
        for name, value in service.model.state_dict().items():
            np.testing.assert_array_equal(
                restarted.model.state_dict()[name], value)
        assert restarted.predict({"field_0": 1}).status == STATUS_OK
