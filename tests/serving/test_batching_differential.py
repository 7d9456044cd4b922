"""Differential harness: batched scoring == sequential scoring, bitwise.

The micro-batching headline guarantee (docs/serving.md):
``PredictionService.predict_batch`` answers every request with exactly
the response sequential ``predict`` calls would give — ``status``,
``served_by``, ``degraded_reason``, ``error`` payloads equal, and
``probability`` equal *bitwise* (compared through ``struct.pack('d')``,
not a tolerance) — for every servable model family, at every batch size
1–32, for valid / invalid / missing-field request mixes and for the
degraded states (breaker open, model unavailable, deadline, reload
mid-stream).

Scoring state is deterministic, so the comparison is exact: the only
service state the two paths mutate differently is failure *accounting*
(breaker counts per batch, latency EWMA one observation per batch),
which never feeds back into a response in these scenarios.

``predict`` is ``predict_batch`` on a batch of one, so the two sides
share the service's code.  Every case therefore also checks each ``ok``
probability against an independent reference: ``model.predict_proba``
on that row alone, built here and run outside ``rowwise_matmul``.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.dataset import Batch
from repro.data.schema import make_schema
from repro.models.shallow import LogisticRegression
from repro.nn.tensor import is_rowwise_matmul
from repro.serving import (
    BatchRequest,
    CircuitBreaker,
    InvalidRequestError,
    PredictionService,
    SERVABLE_MODELS,
    STATUS_DEGRADED,
    STATUS_INVALID,
    STATUS_OK,
    build_serving_stack,
)

pytestmark = [pytest.mark.serving, pytest.mark.invariants]

_STACKS = {}


def family_stack(name):
    """One serving stack per model family, built once per process."""
    if name not in _STACKS:
        _STACKS[name] = build_serving_stack(name, "criteo", "quick",
                                            samples=300)
    return _STACKS[name]


def bits(probability):
    """Bit pattern of a float64 — bitwise comparison, not a tolerance."""
    return (None if probability is None
            else struct.pack("<d", probability))


def assert_identical(sequential, batched, context=""):
    """Field-by-field equality; probability compared bitwise."""
    assert len(sequential) == len(batched), context
    for i, (a, b) in enumerate(zip(sequential, batched)):
        where = f"{context} request {i}"
        assert a.status == b.status, where
        assert a.served_by == b.served_by, where
        assert a.degraded_reason == b.degraded_reason, where
        assert a.error == b.error, where
        assert a.model_version == b.model_version, where
        assert a.request_id == b.request_id, where
        assert bits(a.probability) == bits(b.probability), (
            f"{where}: {a.probability!r} != {b.probability!r} bitwise")


def model_reference(service, stream, model=None):
    """Bits of ``model.predict_proba`` on each request's row alone.

    The independent reference: each row is its own ``Batch`` of one,
    scored outside ``rowwise_matmul`` with no service code on the path
    but the validator.  ``None`` for requests that fail validation.
    """
    model = service.model if model is None else model
    assert not is_rowwise_matmul()
    out = []
    for features in stream:
        try:
            row = service.validator.validate(dict(features)).reshape(1, -1)
        except InvalidRequestError:
            out.append(None)
            continue
        x_cross = (service.cross_transform.transform(row)
                   if model.needs_cross else None)
        probability = model.predict_proba(
            Batch(x=row, x_cross=x_cross, y=np.zeros(1)))[0]
        out.append(bits(float(probability)))
    return out


def assert_matches_model(responses, references, context=""):
    """Every ``ok`` probability equals its row's reference, bitwise.

    ``references`` maps a ``model_version`` to :func:`model_reference`
    for the model serving that version.  Returns how many were checked.
    """
    checked = 0
    for i, response in enumerate(responses):
        if response.status != STATUS_OK:
            continue
        expected = references[response.model_version][i]
        assert bits(response.probability) == expected, (
            f"{context} request {i}: {response.probability!r} is not "
            "predict_proba on its row alone")
        checked += 1
    return checked


def mixed_stream(schema, rng, count):
    """Valid / missing-field / invalid request mix over ``schema``.

    Valid ids stay tiny so they are in-vocabulary for the *model's*
    train-split tables, not just the schema (full-split cardinalities
    can exceed what the embedding tables saw — those requests would
    degrade, which is a separate scenario below).
    """
    names = schema.field_names
    stream = []
    for i in range(count):
        kind = rng.integers(0, 5)
        request = {name: int(rng.integers(0, 3)) for name in names}
        if kind == 1 and len(names) > 1:  # missing fields fold to OOV
            for name in list(names)[: int(rng.integers(1, len(names)))]:
                del request[name]
        elif kind == 2:  # unknown field → invalid
            request["no_such_field"] = 1
        elif kind == 3:  # bad value type → invalid
            request[names[int(rng.integers(0, len(names)))]] = "not-an-id"
        stream.append(request)
    return stream


def run_batched(service, stream, batch_size):
    responses = []
    for start in range(0, len(stream), batch_size):
        chunk = [BatchRequest(dict(r), request_id=f"r{start + j}")
                 for j, r in enumerate(stream[start:start + batch_size])]
        responses.extend(service.predict_batch(chunk))
    return responses


def run_sequential(service, stream):
    return [service.predict(dict(r), request_id=f"r{i}")
            for i, r in enumerate(stream)]


class TestEveryModelFamily:
    @pytest.mark.parametrize("name", SERVABLE_MODELS)
    def test_batched_equals_sequential_bitwise(self, name):
        service = family_stack(name).service.replicas[0].service
        rng = np.random.default_rng(11)
        stream = mixed_stream(service.schema, rng, 32)
        references = {service.model_version: model_reference(service,
                                                              stream)}
        sequential = run_sequential(service, stream)
        assert assert_matches_model(sequential, references, name) > 0, (
            "stream must exercise genuine full-model scoring")
        for batch_size in range(1, 33):
            batched = run_batched(service, stream, batch_size)
            context = f"{name} batch_size={batch_size}"
            assert_identical(sequential, batched, context)
            assert_matches_model(batched, references, context)


class TestHypothesisStreams:
    """Random streams over a small LR service, every batch size 1–32."""

    @staticmethod
    def _service(schema):
        return PredictionService(
            LogisticRegression(schema.cardinalities,
                               rng=np.random.default_rng(0)),
            schema, prior_ctr=0.3)

    @given(seed=st.integers(0, 2**32 - 1),
           batch_size=st.integers(1, 32),
           count=st.integers(1, 48))
    @settings(max_examples=60, deadline=None)
    def test_random_mixed_streams(self, seed, batch_size, count):
        schema = make_schema([8, 6, 10], positive_ratio=0.3)
        service = self._service(schema)
        stream = mixed_stream(schema, np.random.default_rng(seed), count)
        references = {service.model_version: model_reference(service,
                                                              stream)}
        sequential = run_sequential(service, stream)
        batched = run_batched(service, stream, batch_size)
        context = f"seed={seed} batch_size={batch_size}"
        assert_identical(sequential, batched, context)
        assert_matches_model(sequential, references, context)
        assert_matches_model(batched, references, context)


class TestDegradedStates:
    """Deterministic degraded states answer identically both ways."""

    def _schema(self):
        return make_schema([8, 6, 10], positive_ratio=0.3)

    def _stream(self, schema, count=17):
        return mixed_stream(schema, np.random.default_rng(3), count)

    def test_model_unavailable(self):
        schema = self._schema()
        service = PredictionService(None, schema, prior_ctr=0.3)
        stream = self._stream(schema)
        sequential = run_sequential(service, stream)
        assert {r.degraded_reason for r in sequential
                if r.status == STATUS_DEGRADED} == {"model_unavailable"}
        assert_matches_model(sequential, {})  # no model, nothing is ok
        for batch_size in (1, 2, 5, 17, 32):
            batched = run_batched(service, stream, batch_size)
            assert_identical(sequential, batched,
                             f"model_unavailable batch={batch_size}")
            assert_matches_model(batched, {})

    def test_breaker_open(self):
        schema = self._schema()
        model = LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(0))
        service = PredictionService(
            model, schema, prior_ctr=0.3,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=3600.0))
        service.breaker.record_failure()  # latch open for the whole test
        assert not service.breaker.allow()
        stream = self._stream(schema)
        sequential = run_sequential(service, stream)
        reasons = {r.degraded_reason for r in sequential
                   if r.status == STATUS_DEGRADED}
        assert reasons == {"breaker_open"}
        # Main-effects fallback answers must match bitwise too.
        assert any(r.served_by == "main_effects" for r in sequential)
        assert_matches_model(sequential, {})  # open breaker: nothing ok
        for batch_size in (1, 3, 17, 32):
            batched = run_batched(service, stream, batch_size)
            assert_identical(sequential, batched,
                             f"breaker_open batch={batch_size}")
            assert_matches_model(batched, {})

    def test_deadline_exhausted_budget(self):
        """A deadline the EWMA says is unaffordable degrades both ways."""
        schema = self._schema()

        def make():
            service = PredictionService(
                LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(0)),
                schema, prior_ctr=0.3, deadline_s=1e-9,
                breaker=CircuitBreaker(failure_threshold=10**6))
            service.latency.observe(10.0)  # estimate >> budget
            return service

        stream = self._stream(schema)
        sequential = run_sequential(make(), stream)
        assert {r.degraded_reason for r in sequential
                if r.status == STATUS_DEGRADED} == {"deadline"}
        assert_matches_model(sequential, {})  # every budget is missed
        for batch_size in (1, 4, 17):
            batched = run_batched(make(), stream, batch_size)
            assert_identical(sequential, batched,
                             f"deadline batch={batch_size}")
            assert_matches_model(batched, {})

    def test_reload_mid_stream(self):
        """A swap between batches changes versions; answers still match a
        sequential run with the swap at the same stream offset."""
        schema = self._schema()

        def make():
            return PredictionService(
                LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(0)),
                schema, prior_ctr=0.3)

        new_model = LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(9))
        stream = self._stream(schema, count=24)
        swap_at = 12

        seq_service = make()
        references = {
            "initial": model_reference(seq_service, stream),
            "v2": model_reference(seq_service, stream, model=new_model)}
        sequential = []
        for i, request in enumerate(stream):
            if i == swap_at:
                seq_service.swap_model(new_model, "v2")
            sequential.append(seq_service.predict(dict(request),
                                                  request_id=f"r{i}"))

        for batch_size in (1, 2, 3, 4, 6, 12):
            assert swap_at % batch_size == 0
            batch_service = make()
            batched = []
            for start in range(0, len(stream), batch_size):
                if start == swap_at:
                    batch_service.swap_model(new_model, "v2")
                chunk = [BatchRequest(dict(r), request_id=f"r{start + j}")
                         for j, r in enumerate(
                             stream[start:start + batch_size])]
                batched.extend(batch_service.predict_batch(chunk))
            assert_identical(sequential, batched,
                             f"reload batch={batch_size}")
            assert_matches_model(batched, references,
                                 f"reload batch={batch_size}")
        assert assert_matches_model(sequential, references, "reload") > 0
        versions = {r.model_version for r in sequential}
        assert versions == {"initial", "v2"}


class TestQuarantine:
    def test_one_bad_row_never_poisons_the_batch(self):
        schema = make_schema([8, 6, 10], positive_ratio=0.3)
        service = PredictionService(
            LogisticRegression(schema.cardinalities,
                               rng=np.random.default_rng(0)),
            schema, prior_ctr=0.3)
        names = schema.field_names
        good = {name: 1 for name in names}
        bad = {"no_such_field": 1}
        responses = service.predict_batch(
            [BatchRequest(dict(good), request_id="a"),
             BatchRequest(dict(bad), request_id="b"),
             BatchRequest(dict(good), request_id="c")])
        assert [r.status for r in responses] == [STATUS_OK, STATUS_INVALID,
                                                 STATUS_OK]
        assert assert_matches_model(responses, {"initial": model_reference(
            service, [good, bad, good])}) == 2
        assert responses[1].error["code"] == "invalid_request"
        assert "no_such_field" in responses[1].error["field_errors"]
        assert bits(responses[0].probability) == bits(
            responses[2].probability)
