"""Checkpoint rollout on a pool of one: direct promotion, refusals,
golden-set vetoes.

A pool with no spare replica for a canary promotes each admitted
checkpoint straight away; these tests drive that path through
:class:`CanaryController` on a one-replica :class:`ReplicaPool`.
"""

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import GoldenSet, ReplicaPool
from repro.serving.faults import CheckpointSwapper
from repro.serving.rollout import CanaryController

#: The rollout events one direct promotion emits, in order.
PROMOTED = ["detected", "promoting", "promoted_replica", "promoted"]


@pytest.fixture
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpts")


@pytest.fixture
def swapper(manager):
    return CheckpointSwapper(manager)


def watch_one(service, manager, factory, **kwargs):
    """The checkpoint watcher on a pool of one over ``service``."""
    return CanaryController(ReplicaPool([service]), manager, factory,
                            sleep=lambda _d: None, **kwargs)


def statuses(sink):
    return [e.payload["status"] for e in sink.of_type("rollout")]


@pytest.fixture
def reload_stack(schema, make_service, manager, mem_sink):
    """(service, watcher, sink) with a deterministic model factory."""
    bus, sink = mem_sink
    service = make_service()

    def factory():
        return LogisticRegression(schema.cardinalities,
                                  rng=np.random.default_rng(123))

    return service, watch_one(service, manager, factory, bus=bus), sink


class TestPromotion:
    def test_empty_directory_is_a_noop(self, reload_stack):
        service, watcher, _ = reload_stack
        assert watcher.poll_once() is False
        assert service.model_version == "initial"

    def test_valid_checkpoint_promotes(self, schema, reload_stack, swapper):
        service, watcher, sink = reload_stack
        new_model = LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(77))
        swapper.write_valid(new_model)
        old_ref = service.model

        assert watcher.poll_once() is True
        assert service.model_version == "epoch-00000001"
        assert service.model is not old_ref  # fresh instance, atomic swap
        assert statuses(sink) == PROMOTED
        assert sink.of_type("rollout")[-1].payload["version"] == \
            "epoch-00000001"
        assert watcher.stage == "idle"  # no canary: promoted directly

    def test_promoted_weights_match_the_checkpoint(self, schema,
                                                   reload_stack, swapper):
        service, watcher, _ = reload_stack
        new_model = LogisticRegression(schema.cardinalities,
                                       rng=np.random.default_rng(77))
        swapper.write_valid(new_model)
        watcher.poll_once()
        for name, value in new_model.state_dict().items():
            np.testing.assert_array_equal(
                service.model.state_dict()[name], value)

    def test_older_epochs_are_not_reloaded(self, schema, reload_stack,
                                           swapper):
        service, watcher, _ = reload_stack
        swapper.write_valid(service.model)
        watcher.poll_once()
        assert watcher.poll_once() is False  # same epoch, nothing newer

    def test_in_flight_traffic_survives_a_swap(self, reload_stack, swapper):
        service, watcher, _ = reload_stack
        assert service.predict({"field_0": 1}).status == "ok"
        swapper.write_valid(service.model)
        watcher.poll_once()
        assert service.predict({"field_0": 1}).status == "ok"


class TestRollback:
    @pytest.mark.parametrize("kind", ["truncated", "garbage"])
    def test_corrupt_checkpoint_rolls_back(self, reload_stack, swapper, kind):
        service, watcher, sink = reload_stack
        swapper.write_corrupt(kind)
        assert watcher.poll_once() is False
        assert service.model_version == "initial"
        assert statuses(sink) == ["detected", "corrupt"]

    def test_bad_file_is_not_retried_every_poll(self, reload_stack, swapper):
        service, watcher, sink = reload_stack
        swapper.write_corrupt("truncated")
        watcher.poll_once()
        watcher.poll_once()
        watcher.poll_once()
        # Remembered as bad in the manifest, with the file's mtime.
        assert statuses(sink) == ["detected", "corrupt"]
        entry, = watcher.manifest.bad_paths.values()
        assert entry["mtime"] is not None

    def test_rewritten_bad_file_gets_a_fresh_chance(self, schema,
                                                    reload_stack, swapper,
                                                    manager):
        import os

        service, watcher, _ = reload_stack
        path = swapper.write_corrupt("truncated")
        watcher.poll_once()
        # Replace the corrupt file with a valid checkpoint at the same
        # epoch and bump its mtime: the watcher must try again.
        good = LogisticRegression(schema.cardinalities,
                                  rng=np.random.default_rng(5))
        from repro.nn.optim import SGD
        from repro.resilience.checkpoint import TrainingCheckpoint

        checkpoint = TrainingCheckpoint.capture(
            good, SGD(good.parameters(), lr=0.0), epoch=1, global_step=0)
        manager.save(checkpoint)
        stat = os.stat(path)
        os.utime(path, (stat.st_atime, stat.st_mtime + 10))
        assert watcher.poll_once() is True
        assert service.model_version == "epoch-00000001"
        # Promoted, so no longer bad: a restart may boot on it.
        assert str(path) not in watcher.manifest.bad_paths

    def test_architecture_mismatch_rolls_back(self, reload_stack, manager):
        service, watcher, sink = reload_stack
        wrong = LogisticRegression([3, 3], rng=np.random.default_rng(0))
        CheckpointSwapper(manager).write_valid(wrong)
        assert watcher.poll_once() is False
        assert service.model_version == "initial"
        assert statuses(sink) == ["detected", "corrupt"]


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
        watcher = watch_one(service, manager, factory, golden=golden)
        swapper.write_valid(service.model)
        assert watcher.poll_once() is False
        assert service.model_version == "initial"
        assert watcher.metrics.counter("rollout.golden_failed").value == 1

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

        service, watcher, _ = reload_stack
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
                    assert watcher.poll_once() is True
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

        service, watcher, _ = reload_stack
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                swapper.write_valid(service.model)
                watcher.poll_once()

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
        service, watcher, _ = reload_stack
        watcher.interval_s = 0.02
        watcher.poller.start()
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
            watcher.poller.stop()
        assert service.model_version == "epoch-00000001"
        assert not watcher.poller.running


class TestReloadSpans:
    def test_idle_poll_emits_no_span(self, reload_stack):
        from repro.obs.tracing import spans_from_events

        _, watcher, sink = reload_stack
        watcher.poll_once()
        assert spans_from_events(sink.events) == []

    def test_promotion_emits_serve_reload_span(self, schema, reload_stack,
                                               swapper):
        """A direct promotion traces as a ``serve.rollout`` detect span
        with the promote span inside it."""
        from repro.obs.tracing import spans_from_events

        _, watcher, sink = reload_stack
        swapper.write_valid(LogisticRegression(schema.cardinalities,
                                               rng=np.random.default_rng(7)))
        assert watcher.poll_once() is True
        spans = {span.attrs["stage"]: span
                 for span in spans_from_events(sink.events)}
        assert sorted(spans) == ["detect", "promote"]
        assert {span.name for span in spans.values()} == {"serve.rollout"}
        assert spans["promote"].parent_id == spans["detect"].span_id
        assert spans["detect"].attrs["outcome"] == "promoted"
        assert spans["promote"].attrs["outcome"] == "promoted"
        assert spans["promote"].attrs["epoch"] == 1

    def test_corrupt_checkpoint_span_marks_outcome(self, reload_stack,
                                                   swapper):
        from repro.obs.tracing import spans_from_events

        _, watcher, sink = reload_stack
        swapper.write_corrupt()
        assert watcher.poll_once() is False
        (span,) = spans_from_events(sink.events)
        assert span.name == "serve.rollout"
        assert span.attrs["outcome"] == "refused"
