"""End-to-end request tracing: one trace_id from queue to score.

A request through :class:`PredictionService` must produce a span tree,
rooted at its ``serve.batch`` span, where queue wait, validation and
scoring (or degradation) all share the request's ``trace_id``,
reconstructable from the event stream with the ``repro obs`` helpers.
"""

import json

import numpy as np
import pytest

from repro.obs import parse_prometheus_text, sequential_ids, span_tree
from repro.obs.monitor import DriftMonitor
from repro.obs.tracing import Tracer, spans_from_events
from repro.serving.faults import valid_requests
from repro.serving.server import handle_request_line


def make_tracer(bus):
    return Tracer(bus=bus, ids=sequential_ids())


@pytest.fixture
def request_features(schema):
    return next(iter(valid_requests(schema, count=1)))


class TestRequestSpans:
    def test_ok_request_spans_share_one_trace(self, make_service, mem_sink,
                                              request_features):
        bus, sink = mem_sink
        service = make_service(tracer=make_tracer(bus))
        response = service.predict(request_features, request_id="r1",
                                   queued_at=service.tracer.clock() - 0.25)
        assert response.status == "ok"
        spans = spans_from_events(sink.events)
        by_name = {s.name: s for s in spans}
        assert set(by_name) == {"serve.batch", "serve.queue",
                                "serve.validate", "serve.score"}
        assert len({s.trace_id for s in spans}) == 1
        request_span = by_name["serve.batch"]
        assert request_span.attrs["batch_size"] == 1
        for child in ("serve.queue", "serve.validate", "serve.score"):
            assert by_name[child].parent_id == request_span.span_id
        assert by_name["serve.queue"].duration_s == pytest.approx(0.25,
                                                                  abs=0.1)
        assert response.trace_id == request_span.trace_id

    def test_span_tree_reconstructs_request(self, make_service, mem_sink,
                                            request_features):
        bus, sink = mem_sink
        service = make_service(tracer=make_tracer(bus))
        service.predict(request_features, queued_at=service.tracer.clock())
        (root,) = span_tree(spans_from_events(sink.events))
        assert root["span"].name == "serve.batch"
        assert {n["span"].name for n in root["children"]} == {
            "serve.queue", "serve.validate", "serve.score"}

    def test_invalid_request_traced_without_score_span(self, make_service,
                                                       mem_sink):
        bus, sink = mem_sink
        service = make_service(tracer=make_tracer(bus))
        response = service.predict({"field_0": "not-an-int"})
        assert response.status == "invalid"
        names = {s.name for s in spans_from_events(sink.events)}
        assert "serve.validate" in names
        assert "serve.score" not in names
        validate = [s for s in spans_from_events(sink.events)
                    if s.name == "serve.validate"][0]
        assert validate.attrs["invalid"] == 1

    def test_degraded_request_has_degrade_span(self, make_service, mem_sink,
                                               request_features):
        bus, sink = mem_sink
        service = make_service(model=None, tracer=make_tracer(bus))
        response = service.predict(request_features)
        assert response.status == "degraded"
        by_name = {s.name: s for s in spans_from_events(sink.events)}
        assert by_name["serve.degrade"].attrs["reason"] == "model_unavailable"
        assert by_name["serve.batch"].attrs["statuses"] == "degraded"
        assert response.degraded_reason == "model_unavailable"

    def test_serve_request_event_carries_trace_id(self, make_service,
                                                  mem_sink,
                                                  request_features):
        bus, sink = mem_sink
        service = make_service(tracer=make_tracer(bus))
        response = service.predict(request_features)
        (event,) = sink.of_type("serve_request")
        assert event.payload["trace_id"] == response.trace_id

    def test_untraced_service_still_answers(self, make_service,
                                            request_features):
        service = make_service(bus=None)
        response = service.predict(request_features,
                                   queued_at=service.tracer.clock())
        assert response.status == "ok"
        assert response.trace_id is None


class TestProtocolIntegration:
    def test_handle_request_line_threads_queued_at(self, make_service,
                                                   mem_sink,
                                                   request_features):
        bus, sink = mem_sink
        service = make_service(tracer=make_tracer(bus))
        line = json.dumps({"features": request_features, "request_id": "q7"})
        response, _ = handle_request_line(line, service,
                                          queued_at=service.tracer.clock())
        names = {s.name for s in spans_from_events(sink.events)}
        assert "serve.queue" in names
        assert response["trace_id"]

    def test_metrics_op_prometheus_format(self, make_service,
                                          request_features):
        service = make_service()
        service.predict(request_features)
        response, _ = handle_request_line(
            json.dumps({"op": "metrics", "format": "prometheus"}), service)
        assert response["content_type"].startswith("text/plain")
        samples = parse_prometheus_text(response["body"])
        assert samples[("repro_serve_requests_total", ())] == 1
        assert ("repro_serve_latency_s_count", ()) in samples
        bucket_names = {name for name, _ in samples}
        assert "repro_serve_latency_s_bucket" in bucket_names

    def test_metrics_op_default_stays_json(self, make_service):
        service = make_service()
        response, _ = handle_request_line(json.dumps({"op": "metrics"}),
                                          service)
        assert "content_type" not in response

    def test_drift_op_reports_state(self, make_service, schema,
                                    request_features):
        service = make_service()
        response, _ = handle_request_line(json.dumps({"op": "drift"}),
                                          service)
        assert response == {"drift": "disabled"}

        monitor = DriftMonitor(window=500,
                               field_names=schema.field_names)
        monitor.fit_reference(
            np.zeros((10, schema.num_fields), dtype=np.int64),
            cardinalities=schema.cardinalities)
        service = make_service(drift=monitor)
        response, _ = handle_request_line(json.dumps({"op": "drift"}),
                                          service)
        assert response == {"drift": "pending", "window": 500}
        for _ in range(3):
            service.predict(request_features)
        response, _ = handle_request_line(json.dumps({"op": "drift"}),
                                          service)
        assert response["window_n"] == 3
        assert set(response["field_psi"]) == set(schema.field_names)


class TestDriftFeeding:
    def _monitor(self, schema, window=4):
        monitor = DriftMonitor(window=window,
                               field_names=schema.field_names)
        rng = np.random.default_rng(0)
        x = np.stack([rng.integers(0, c, size=200)
                      for c in schema.cardinalities], axis=1)
        return monitor.fit_reference(x, cardinalities=schema.cardinalities)

    def test_served_requests_feed_the_monitor(self, make_service, schema,
                                              request_features):
        monitor = self._monitor(schema)
        service = make_service(drift=monitor)
        for _ in range(3):
            assert service.predict(request_features).status == "ok"
        assert monitor._win_n == 3

    def test_drift_failure_never_breaks_serving(self, make_service, schema,
                                                request_features):
        class ExplodingMonitor:
            def observe(self, row, score=None):
                raise RuntimeError("monitor bug")

        service = make_service(drift=ExplodingMonitor())
        response = service.predict(request_features)
        assert response.status == "ok"
        snapshot = service.metrics.snapshot()
        assert snapshot["drift.observe_errors"]["value"] == 1
