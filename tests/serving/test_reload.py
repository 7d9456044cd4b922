"""Hot reload: promotion, corruption rollback, golden-set vetoes."""

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import GoldenSet, HotReloader
from repro.serving.faults import CheckpointSwapper


@pytest.fixture
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpts")


@pytest.fixture
def swapper(manager):
    return CheckpointSwapper(manager)


@pytest.fixture
def reload_stack(schema, make_service, manager, mem_sink):
    """(service, reloader, sink) with a deterministic model factory."""
    _, sink = mem_sink
    bus, _ = mem_sink
    service = make_service()

    def factory():
        return LogisticRegression(schema.cardinalities,
                                  rng=np.random.default_rng(123))

    reloader = HotReloader(service, manager, factory, bus=bus,
                           sleep=lambda _d: None)
    return service, reloader, sink


class TestPromotion:
    def test_empty_directory_is_a_noop(self, reload_stack):
        service, reloader, _ = reload_stack
        assert reloader.poll_once() is False
        assert service.model_version == "initial"

    def test_valid_checkpoint_promotes(self, schema, reload_stack, swapper):
        service, reloader, sink = reload_stack
        new_model = LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(77))
        swapper.write_valid(new_model)
        old_ref = service.model

        assert reloader.poll_once() is True
        assert service.model_version == "epoch-00000001"
        assert service.model is not old_ref  # fresh instance, atomic swap
        event, = sink.of_type("reload")
        assert event.payload["status"] == "ok"
        assert event.payload["previous_version"] == "initial"

    def test_promoted_weights_match_the_checkpoint(self, schema,
                                                   reload_stack, swapper):
        service, reloader, _ = reload_stack
        new_model = LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(77))
        swapper.write_valid(new_model)
        reloader.poll_once()
        for name, value in new_model.state_dict().items():
            np.testing.assert_array_equal(
                service.model.state_dict()[name], value)

    def test_older_epochs_are_not_reloaded(self, schema, reload_stack,
                                           swapper):
        service, reloader, _ = reload_stack
        swapper.write_valid(service.model)
        reloader.poll_once()
        assert reloader.poll_once() is False  # same epoch, nothing newer

    def test_in_flight_traffic_survives_a_swap(self, reload_stack, swapper):
        service, reloader, _ = reload_stack
        assert service.predict({"field_0": 1}).status == "ok"
        swapper.write_valid(service.model)
        reloader.poll_once()
        assert service.predict({"field_0": 1}).status == "ok"


class TestRollback:
    @pytest.mark.parametrize("kind", ["truncated", "garbage"])
    def test_corrupt_checkpoint_rolls_back(self, reload_stack, swapper, kind):
        service, reloader, sink = reload_stack
        swapper.write_corrupt(kind)
        assert reloader.poll_once() is False
        assert service.model_version == "initial"
        event, = sink.of_type("reload")
        assert event.payload["status"] == "corrupt"

    def test_bad_file_is_not_retried_every_poll(self, reload_stack, swapper):
        service, reloader, sink = reload_stack
        swapper.write_corrupt("truncated")
        reloader.poll_once()
        reloader.poll_once()
        reloader.poll_once()
        assert len(sink.of_type("reload")) == 1  # remembered as bad

    def test_rewritten_bad_file_gets_a_fresh_chance(self, schema,
                                                    reload_stack, swapper,
                                                    manager):
        import os

        service, reloader, _ = reload_stack
        path = swapper.write_corrupt("truncated")
        reloader.poll_once()
        # Replace the corrupt file with a valid checkpoint at the same
        # epoch and bump its mtime: the reloader must try again.
        good = LogisticRegression(schema.cardinalities,
                                  rng=np.random.default_rng(5))
        from repro.nn.optim import SGD
        from repro.resilience.checkpoint import TrainingCheckpoint

        checkpoint = TrainingCheckpoint.capture(
            good, SGD(good.parameters(), lr=0.0), epoch=1, global_step=0)
        manager.save(checkpoint)
        stat = os.stat(path)
        os.utime(path, (stat.st_atime, stat.st_mtime + 10))
        assert reloader.poll_once() is True
        assert service.model_version == "epoch-00000001"

    def test_architecture_mismatch_rolls_back(self, reload_stack, manager):
        service, reloader, sink = reload_stack
        wrong = LogisticRegression([3, 3], rng=np.random.default_rng(0))
        CheckpointSwapper(manager).write_valid(wrong)
        assert reloader.poll_once() is False
        assert service.model_version == "initial"
        event, = sink.of_type("reload")
        assert event.payload["status"] == "corrupt"


class TestGoldenSet:
    def test_healthy_model_passes(self, schema, make_service, lr_model):
        service = make_service()
        golden = GoldenSet([{"field_0": 1}, {"field_1": 2}])
        assert golden.check(service, lr_model) is None

    def test_drifted_model_fails(self, schema, make_service, lr_model):
        service = make_service()
        golden = GoldenSet([{"field_0": 1}], expected=[0.999],
                           tolerance=1e-6)
        reason = golden.check(service, lr_model)
        assert reason is not None and "drifted" in reason

    def test_record_pins_current_answers(self, make_service, lr_model):
        service = make_service()
        golden = GoldenSet.record(service, [{"field_0": 1}, {"field_1": 3}])
        assert golden.check(service, lr_model) is None

    def test_golden_failure_vetoes_promotion(self, schema, reload_stack,
                                             swapper, manager, make_service):
        service, _, sink = reload_stack

        def factory():
            return LogisticRegression(schema.cardinalities,
                                      rng=np.random.default_rng(123))

        golden = GoldenSet([{"field_0": 1}], expected=[0.999],
                           tolerance=1e-6)
        reloader = HotReloader(service, manager, factory, golden=golden,
                               sleep=lambda _d: None)
        swapper.write_valid(service.model)
        assert reloader.poll_once() is False
        assert service.model_version == "initial"
        assert service.metrics.counter("serve.reload.golden_failed").value == 1

    def test_mismatched_expected_length_rejected(self):
        with pytest.raises(ValueError):
            GoldenSet([{"a": 1}], expected=[0.5, 0.5])

    def test_requests_validated_once_across_polls(self, make_service,
                                                  lr_model):
        """Golden requests are fixed, so repeated checks must ride the
        cached-row fast path instead of re-validating every poll."""
        service = make_service()
        calls = []
        original = service.validator.validate

        def counting_validate(features):
            calls.append(features)
            return original(features)

        service.validator.validate = counting_validate
        golden = GoldenSet([{"field_0": 1}, {"field_1": 2}])
        for _ in range(5):
            assert golden.check(service, lr_model) is None
        assert len(calls) == 2  # once per request, not once per poll

    def test_invalid_golden_request_still_names_the_field(self, make_service,
                                                          lr_model):
        """The fast path must not swallow validation reports."""
        service = make_service()
        golden = GoldenSet([{"not_a_field": 1}])
        reason = golden.check(service, lr_model)
        assert reason is not None
        assert "failed to score" in reason
        assert "not_a_field" in reason


class TestConcurrentSwap:
    """A reload landing mid-``predict_batch`` must never mix versions.

    The batch path snapshots (model, version) once per batch; a hot swap
    racing it may only affect *later* batches — one coalesced batch
    answering from two different models would make micro-batching
    observably different from sequential scoring.
    """

    def test_batches_never_mix_model_versions(self, schema, reload_stack,
                                              swapper):
        """Swaps forced at two points, by rendezvous rather than luck.

        Even batches: the churner swaps *between* batches, so the next
        batch must see the new version.  Odd batches: the scorer's
        first row validation (after the batch took its model snapshot)
        hands over to the churner and waits until the swap has landed,
        so a swap races that batch in flight and the batch must still
        answer from the snapshot alone.
        """
        import threading

        from repro.serving import BatchRequest

        service, reloader, _ = reload_stack
        requests = [BatchRequest(features={"field_0": i % 4,
                                           "field_1": i % 3,
                                           "field_2": i % 5})
                    for i in range(8)]
        rounds = 50
        swap_wanted = threading.Event()
        swap_landed = threading.Event()
        stop = threading.Event()
        swap_errors = []
        scorer = threading.current_thread()
        race_next_batch = threading.Event()

        def rendezvous():
            """Ask the churner for one swap; block until it promoted."""
            swap_wanted.set()
            assert swap_landed.wait(timeout=30.0), "churner never swapped"
            swap_landed.clear()

        def churn():
            while swap_wanted.wait(timeout=30.0) and not stop.is_set():
                swap_wanted.clear()
                try:
                    swapper.write_valid(LogisticRegression(
                        schema.cardinalities,
                        rng=np.random.default_rng(77)))
                    assert reloader.poll_once() is True
                except Exception as exc:  # noqa: BLE001 — fail the test
                    swap_errors.append(exc)
                    return
                finally:
                    swap_landed.set()

        original_validate = service.validator.validate

        def validate_then_maybe_swap(features):
            # Runs after predict_batch snapshotted (model, version).
            if (threading.current_thread() is scorer
                    and race_next_batch.is_set()):
                race_next_batch.clear()
                rendezvous()
            return original_validate(features)

        service.validator.validate = validate_then_maybe_swap
        churner = threading.Thread(target=churn)
        churner.start()
        try:
            versions_seen = set()
            for i in range(rounds):
                before = service.model_version
                if i % 2 == 1:
                    race_next_batch.set()
                responses = service.predict_batch(requests)
                batch_versions = {r.model_version for r in responses
                                  if r.status == "ok"}
                assert len(batch_versions) <= 1  # one snapshot per batch
                versions_seen |= batch_versions
                # The batch answered from its snapshot, even when a swap
                # landed while it was in flight.
                assert batch_versions == {before}
                assert not race_next_batch.is_set()
                if i % 2 == 0:
                    rendezvous()  # swap between this batch and the next
                assert service.model_version != before
        finally:
            stop.set()
            swap_wanted.set()
            churner.join(timeout=30.0)
        assert not swap_errors
        # The race was real: scoring overlapped more than one version.
        assert len(versions_seen) >= 2

    def test_single_requests_racing_a_swap_stay_typed(self, reload_stack,
                                                      swapper):
        import threading

        service, reloader, _ = reload_stack
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                swapper.write_valid(service.model)
                reloader.poll_once()

        churner = threading.Thread(target=churn)
        churner.start()
        try:
            for _ in range(100):
                response = service.predict({"field_0": 1})
                assert response.status in ("ok", "degraded")
                assert response.model_version is not None
        finally:
            stop.set()
            churner.join(timeout=30.0)


class TestBackgroundThread:
    def test_start_stop_polls_in_the_background(self, schema, reload_stack,
                                                swapper):
        service, reloader, _ = reload_stack
        reloader.interval_s = 0.02
        reloader.start()
        try:
            swapper.write_valid(
                LogisticRegression(schema.cardinalities,
                                   rng=np.random.default_rng(9)))
            import time

            deadline = time.monotonic() + 5.0
            while (service.model_version == "initial"
                   and time.monotonic() < deadline):
                time.sleep(0.02)
        finally:
            reloader.stop()
        assert service.model_version == "epoch-00000001"
        assert not reloader.poller.running


class TestReloadSpans:
    def test_idle_poll_emits_no_span(self, reload_stack):
        from repro.obs.tracing import spans_from_events

        _, reloader, sink = reload_stack
        reloader.poll_once()
        assert spans_from_events(sink.events) == []

    def test_promotion_emits_serve_reload_span(self, schema, reload_stack,
                                               swapper):
        from repro.obs.tracing import spans_from_events

        _, reloader, sink = reload_stack
        swapper.write_valid(LogisticRegression(schema.cardinalities,
                                               rng=np.random.default_rng(7)))
        assert reloader.poll_once() is True
        (span,) = spans_from_events(sink.events)
        assert span.name == "serve.reload"
        assert span.attrs["promoted"] is True
        assert span.attrs["outcome"] == "ok"
        assert span.attrs["version"] == "epoch-00000001"

    def test_corrupt_checkpoint_span_marks_outcome(self, reload_stack,
                                                   swapper):
        from repro.obs.tracing import spans_from_events

        _, reloader, sink = reload_stack
        swapper.write_corrupt()
        assert reloader.poll_once() is False
        (span,) = spans_from_events(sink.events)
        assert span.attrs["promoted"] is False
        assert span.attrs["outcome"] == "corrupt"
