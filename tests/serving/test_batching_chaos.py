"""Chaos under micro-batching: failure accounting and reload atomicity.

Two batch-specific contracts ride on top of the regular chaos suite:

* a batch-level scoring failure feeds the circuit breaker **exactly
  once** — batching must not multiply one fault into ``batch_size``
  breaker strikes;
* the model/version pair is snapshotted once per batch, so a checkpoint
  promotion landing mid-stream can never mix ``model_version`` values inside one
  batch's responses.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import (
    BatchRequest,
    CanaryController,
    CircuitBreaker,
    PredictionService,
    ReplicaPool,
    STATUS_DEGRADED,
    STATUS_OK,
)
from repro.serving.faults import (CheckpointSwapper, FlakyModel, SlowModel,
                                  valid_requests)

pytestmark = [pytest.mark.serving, pytest.mark.resilience]


def batch_of(schema, count, rng=None):
    rng = rng if rng is not None else np.random.default_rng(0)
    return [BatchRequest(dict(request), request_id=f"r{i}")
            for i, request in enumerate(valid_requests(schema, count, rng))]


class TestBreakerAccounting:
    def test_one_failed_batch_trips_the_breaker_exactly_once(self, schema,
                                                             lr_model):
        """8 requests in one failing batch = 1 strike, not 8."""
        service = PredictionService(
            FlakyModel(lr_model, fail_first=100), schema, prior_ctr=0.3,
            breaker=CircuitBreaker(failure_threshold=3))
        responses = service.predict_batch(batch_of(schema, 8))
        assert all(r.status == STATUS_DEGRADED for r in responses)
        assert all(r.degraded_reason == "model_error" for r in responses)
        # Sequentially, 8 model errors would have blown the threshold-3
        # breaker wide open; one batch is one strike, so it is closed.
        assert service.breaker.state == CircuitBreaker.CLOSED
        second = service.predict_batch(batch_of(schema, 8))
        assert all(r.degraded_reason == "model_error" for r in second)
        assert service.breaker.state == CircuitBreaker.CLOSED
        third = service.predict_batch(batch_of(schema, 8))
        assert all(r.degraded_reason == "model_error" for r in third)
        # Third strike: now the circuit opens.
        assert service.breaker.state == CircuitBreaker.OPEN
        fourth = service.predict_batch(batch_of(schema, 4))
        assert all(r.degraded_reason == "breaker_open" for r in fourth)

    def test_successful_batch_closes_half_open_probe(self, schema, lr_model):
        """A half-open probe spends its slot on a whole batch."""
        fake_now = [0.0]
        flaky = FlakyModel(lr_model, fail_first=1)
        service = PredictionService(
            flaky, schema, prior_ctr=0.3,
            breaker=CircuitBreaker(failure_threshold=1, cooldown_s=1.0,
                                   clock=lambda: fake_now[0]))
        failed = service.predict_batch(batch_of(schema, 4))
        assert all(r.degraded_reason == "model_error" for r in failed)
        assert service.breaker.state == CircuitBreaker.OPEN
        # Cooldown elapses → next batch is the half-open probe; the
        # model has recovered, so the batch succeeds and the circuit
        # closes.
        fake_now[0] = 2.0
        probe = service.predict_batch(batch_of(schema, 4))
        assert all(r.status == STATUS_OK for r in probe)
        assert service.breaker.state == CircuitBreaker.CLOSED


class TestSlowModelBatching:
    def test_slow_model_pays_its_delay_once_per_batch(self, schema,
                                                      lr_model):
        delay = 0.05
        service = PredictionService(SlowModel(lr_model, delay_s=delay),
                                    schema, prior_ctr=0.3)
        started = time.monotonic()
        responses = service.predict_batch(batch_of(schema, 16))
        elapsed = time.monotonic() - started
        assert all(r.status == STATUS_OK for r in responses)
        # One coalesced scoring call: ~1 delay, nowhere near 16 of them.
        assert elapsed < delay * 8


class TestReloadAtomicity:
    def test_swap_during_scoring_never_splits_a_batch(self, schema,
                                                      lr_model):
        """A swap that lands *while a batch is scoring* takes effect only
        for the next batch — versions never mix within one."""
        service = PredictionService(lr_model, schema, prior_ctr=0.3)
        replacement = LogisticRegression(schema.cardinalities,
                                         rng=np.random.default_rng(5))

        original_predict = lr_model.predict_proba
        swapped = threading.Event()

        def swap_mid_scoring(batch):
            if not swapped.is_set():
                swapped.set()
                service.swap_model(replacement, "v2")
            return original_predict(batch)

        lr_model.predict_proba = swap_mid_scoring
        try:
            first = service.predict_batch(batch_of(schema, 8))
        finally:
            lr_model.predict_proba = original_predict
        assert swapped.is_set()
        # The batch that raced the swap is answered wholly by the model
        # snapshot it started with.
        assert {r.model_version for r in first} == {"initial"}
        assert all(r.status == STATUS_OK for r in first)
        second = service.predict_batch(batch_of(schema, 8))
        assert {r.model_version for r in second} == {"v2"}

    def test_checkpoint_swapper_stream_never_mixes_versions(self, schema,
                                                            lr_model,
                                                            tmp_path):
        """Promotions on a pool of one from a CheckpointSwapper,
        interleaved with batches: every batch's responses carry exactly
        one model_version, and the promoted version eventually serves."""
        service = PredictionService(lr_model, schema, prior_ctr=0.3)
        manager = CheckpointManager(tmp_path)
        swapper = CheckpointSwapper(manager)
        watcher = CanaryController(
            ReplicaPool([service]), manager,
            model_factory=lambda: LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(0)))

        seen_versions = []
        for step in range(6):
            if step in (2, 4):
                swapper.write_valid(lr_model)
                assert watcher.poll_once()
            responses = service.predict_batch(batch_of(schema, 8))
            versions = {r.model_version for r in responses}
            assert len(versions) == 1, "a batch mixed model versions"
            assert all(r.status == STATUS_OK for r in responses)
            seen_versions.append(versions.pop())
        assert seen_versions[0] == "initial"
        assert len(set(seen_versions)) == 3  # initial + two promotions

    def test_corrupt_checkpoint_mid_stream_keeps_serving(self, schema,
                                                         lr_model,
                                                         tmp_path):
        service = PredictionService(lr_model, schema, prior_ctr=0.3)
        manager = CheckpointManager(tmp_path)
        swapper = CheckpointSwapper(manager)
        watcher = CanaryController(
            ReplicaPool([service]), manager,
            model_factory=lambda: LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(0)))
        swapper.write_corrupt()
        assert not watcher.poll_once()
        responses = service.predict_batch(batch_of(schema, 8))
        assert all(r.status == STATUS_OK for r in responses)
        assert {r.model_version for r in responses} == {"initial"}
