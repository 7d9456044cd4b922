"""Canary rollout: detect, mirror, promote, rollback, manifest resume."""

import json
import time

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import (GoldenSet, REPLICA_CANARY, REPLICA_HEALTHY,
                           ReplicaPool, RolloutManifest, RolloutPolicy,
                           select_initial_checkpoint)
from repro.serving.faults import (CheckpointSwapper, PoisonedCheckpoint,
                                  valid_requests)
from repro.serving.rollout import (CanaryController, MANIFEST_NAME,
                                   STAGE_IDLE, STAGE_MIRRORING,
                                   STAGE_PROMOTING)

REQ = {"field_0": 1, "field_1": 2, "field_2": 3}


@pytest.fixture
def manager(tmp_path):
    return CheckpointManager(tmp_path / "ckpts")


@pytest.fixture
def swapper(manager):
    return CheckpointSwapper(manager)


@pytest.fixture
def poisoner(manager):
    return PoisonedCheckpoint(manager)


@pytest.fixture
def make_rollout(schema, make_service, manager, mem_sink):
    """(pool, controller) factory with a deterministic model factory."""
    bus, _ = mem_sink

    def factory():
        return LogisticRegression(schema.cardinalities,
                                  rng=np.random.default_rng(123))

    def _make(n=3, golden=True, policy=None, **kwargs):
        services = [
            make_service(model=LogisticRegression(
                schema.cardinalities, rng=np.random.default_rng(0)))
            for _ in range(n)
        ]
        pool = ReplicaPool(services, bus=bus)
        golden_set = (GoldenSet(list(valid_requests(schema, count=4)))
                      if golden else None)
        policy = policy or RolloutPolicy(mirror_fraction=1.0, min_mirrored=8)
        controller = CanaryController(pool, manager, factory,
                                      golden=golden_set, policy=policy,
                                      bus=bus, sleep=lambda _d: None,
                                      **kwargs)
        return pool, controller

    return _make


def mirror_traffic(controller, count, score=0.5, status="ok",
                   latency_ms=1.0):
    """Deterministically feed the mirror hook with fleet observations."""
    from repro.serving.service import PredictionResponse

    for _ in range(count):
        controller.observe(REQ, PredictionResponse(
            status=status, probability=score, served_by="full",
            model_version="initial", latency_ms=latency_ms))


def mirror_agreeing_traffic(pool, controller, count):
    """Mirror traffic whose fleet score matches the canary's — a healthy
    candidate scoring live traffic identically to the fleet."""
    canary = [r for r in pool.replicas if r.state == REPLICA_CANARY][0]
    score = canary.service.predict(REQ).probability
    mirror_traffic(controller, count, score=score)


class TestDetectAndStage:
    def test_empty_directory_is_a_noop(self, make_rollout):
        _pool, controller = make_rollout()
        assert controller.poll_once() is False
        assert controller.stage == STAGE_IDLE

    def test_new_checkpoint_stages_a_canary(self, schema, make_rollout,
                                            swapper, mem_sink):
        _, sink = mem_sink
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(7)))
        assert controller.poll_once() is True
        assert controller.stage == STAGE_MIRRORING
        canary = [r for r in pool.replicas if r.state == REPLICA_CANARY]
        assert len(canary) == 1
        assert canary[0].service.model_version == "epoch-00000001"
        # The fleet (user rotation) still serves the old version.
        assert pool.model_version == "initial"
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "canary_loaded" in statuses

    def test_canary_replica_never_serves_user_traffic(self, schema,
                                                      make_rollout, swapper):
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(7)))
        controller.poll_once()
        for _ in range(20):
            response = pool.predict(REQ)
            assert response.model_version == "initial"

    def test_floor_defers_canary_until_capacity(self, schema, make_rollout,
                                                swapper):
        pool, controller = make_rollout(n=2)
        # A spare at construction, none right now: the canary waits
        # rather than falling back to direct promotion.
        pool.min_healthy = 2
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(7)))
        assert controller.poll_once() is False
        assert controller.stage == STAGE_IDLE
        pool.min_healthy = 1
        assert controller.poll_once() is True
        assert controller.stage == STAGE_MIRRORING

    def test_nan_poison_is_vetoed_by_golden_before_mirroring(
            self, schema, make_rollout, poisoner, mem_sink):
        _, sink = mem_sink
        pool, controller = make_rollout()
        path = poisoner.write(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(7)), kind="nan")
        assert controller.poll_once() is False
        assert controller.stage == STAGE_IDLE
        assert path in controller.manifest.bad_paths
        assert all(r.state == REPLICA_HEALTHY for r in pool.replicas)
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "golden_failed" in statuses
        # ... and it is never retried on later polls.
        assert controller.poll_once() is False

    def test_corrupt_checkpoint_is_marked_bad(self, make_rollout, swapper):
        _pool, controller = make_rollout()
        path = swapper.write_corrupt()
        assert controller.poll_once() is False
        assert path in controller.manifest.bad_paths


class TestPromotion:
    def test_healthy_candidate_promotes_fleet_wide(self, schema,
                                                   make_rollout, swapper,
                                                   mem_sink):
        _, sink = mem_sink
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        controller.poll_once()      # detect + stage
        mirror_agreeing_traffic(pool, controller, 10)
        assert controller.poll_once() is True   # evaluate + promote
        assert controller.stage == STAGE_IDLE
        for replica in pool.replicas:
            assert replica.state == REPLICA_HEALTHY
            assert replica.service.model_version == "epoch-00000001"
        assert controller.manifest.data["promotions"] == 1
        assert controller.manifest.data["current_epoch"] == 1
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "promoted" in statuses
        assert statuses.count("promoted_replica") == 2  # the non-canaries

    def test_promotion_gives_each_replica_its_own_model(self, schema,
                                                        make_rollout,
                                                        swapper):
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        controller.poll_once()
        mirror_agreeing_traffic(pool, controller, 10)
        controller.poll_once()
        models = [id(r.service.model) for r in pool.replicas]
        assert len(set(models)) == len(models)

    def test_mirrored_traffic_via_live_pool_dispatch(self, schema,
                                                     make_rollout, swapper):
        """End-to-end: the pool's own mirror hook feeds the controller.

        The candidate holds the same weights as the fleet (seed 0), so
        live mirrored traffic agrees and the rollout promotes.
        """
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(0)))
        controller.poll_once()
        deadline = time.monotonic() + 10.0
        while (controller.stage == STAGE_MIRRORING
               and time.monotonic() < deadline):
            pool.predict(REQ)
            controller.poll_once()
        assert controller.stage == STAGE_IDLE
        assert controller.manifest.data["promotions"] == 1


class TestRollback:
    def test_drift_poison_rolls_back_automatically(self, schema,
                                                   make_rollout, poisoner,
                                                   mem_sink):
        _, sink = mem_sink
        pool, controller = make_rollout(golden=False)
        path = poisoner.write(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(0)),
            kind="drift")
        assert controller.poll_once() is True   # canary staged
        # Live traffic keeps answering from the fleet while mirroring.
        for _ in range(10):
            assert pool.predict(REQ).model_version == "initial"
        mirror_traffic(controller, 10, score=0.5)
        assert controller.poll_once() is True   # evaluate → rollback
        assert controller.stage == STAGE_IDLE
        assert controller.manifest.data["rollbacks"] == 1
        assert path in controller.manifest.bad_paths
        for replica in pool.replicas:
            assert replica.state == REPLICA_HEALTHY
            assert replica.service.model_version == "initial"
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "rolled_back" in statuses
        assert controller.metrics.counter("rollout.rollbacks").value == 1

    def test_rolled_back_checkpoint_is_never_retried(self, schema,
                                                     make_rollout, poisoner):
        pool, controller = make_rollout(golden=False)
        poisoner.write(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(0)),
            kind="drift")
        controller.poll_once()
        mirror_traffic(controller, 10)
        controller.poll_once()                   # rollback
        assert controller.poll_once() is False   # not re-staged
        assert controller.stage == STAGE_IDLE

    def test_erroring_canary_rolls_back(self, schema, make_rollout,
                                        swapper):
        pool, controller = make_rollout(golden=False)
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        controller.poll_once()
        canary = [r for r in pool.replicas
                  if r.state == REPLICA_CANARY][0]

        def boom(*a, **k):
            raise RuntimeError("canary crashed")

        canary.service.predict = boom
        mirror_traffic(controller, 10)
        controller.poll_once()
        assert controller.manifest.data["rollbacks"] == 1
        assert controller.stage == STAGE_IDLE


class TestManifest:
    def test_save_load_roundtrip(self, tmp_path):
        manifest = RolloutManifest(tmp_path / "rollout.json")
        manifest.stage = STAGE_MIRRORING
        manifest.data["candidate"] = {"path": "x.npz", "epoch": 3}
        manifest.mark_bad("y.npz", 2, "psi too high")
        manifest.record("rolled_back", path="y.npz")
        manifest.save()
        loaded = RolloutManifest.load(tmp_path / "rollout.json")
        assert loaded.stage == STAGE_MIRRORING
        assert loaded.data["candidate"]["epoch"] == 3
        assert "y.npz" in loaded.bad_paths
        assert loaded.data["history"][-1]["event"] == "rolled_back"

    def test_bad_entry_keys_on_mtime_when_it_has_one(self, tmp_path):
        """A refusal with an mtime lapses once the file is rewritten; an
        entry without one (an older manifest) stays bad by path."""
        import os

        path = tmp_path / "ckpt.npz"
        path.write_bytes(b"x")
        manifest = RolloutManifest(tmp_path / "rollout.json")
        manifest.mark_bad(str(path), 1, "corrupt", path.stat().st_mtime)
        manifest.save()
        loaded = RolloutManifest.load(tmp_path / "rollout.json")
        assert loaded.is_bad(path)
        stat = path.stat()
        os.utime(path, (stat.st_atime, stat.st_mtime + 10))
        assert not loaded.is_bad(path)
        loaded.mark_bad(str(path), 1, "rolled back")
        assert loaded.is_bad(path)
        assert not loaded.is_bad(tmp_path / "other.npz")

    def test_garbage_manifest_file_resets_cleanly(self, tmp_path):
        path = tmp_path / "rollout.json"
        path.write_text("{not json")
        manifest = RolloutManifest.load(path)
        assert manifest.stage == STAGE_IDLE

    def test_manifest_written_atomically_at_each_stage(self, schema,
                                                       make_rollout,
                                                       swapper, manager):
        pool, controller = make_rollout()
        swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        controller.poll_once()
        on_disk = json.loads(controller.manifest.path.read_text())
        assert on_disk["stage"] == STAGE_MIRRORING
        mirror_agreeing_traffic(pool, controller, 10)
        controller.poll_once()
        on_disk = json.loads(controller.manifest.path.read_text())
        assert on_disk["stage"] == STAGE_IDLE
        assert on_disk["promotions"] == 1


class TestRestartSafety:
    def test_initial_pick_skips_bad_and_inflight_candidates(
            self, schema, manager, swapper, tmp_path):
        good = swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(1)))
        candidate = swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(2)))
        manifest = RolloutManifest(tmp_path / "rollout.json")
        manifest.stage = STAGE_MIRRORING
        manifest.data["candidate"] = {"path": candidate, "epoch": 2}
        picked = select_initial_checkpoint(manager, manifest)
        assert picked is not None
        assert str(picked[1]) == good  # unpromoted candidate excluded
        manifest.mark_bad(good, 1, "rolled back")
        assert select_initial_checkpoint(manager, manifest) is None

    def test_promoting_candidate_is_eligible_at_boot(self, schema, manager,
                                                     swapper, tmp_path):
        candidate = swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(2)))
        manifest = RolloutManifest(tmp_path / "rollout.json")
        manifest.stage = STAGE_PROMOTING
        manifest.data["candidate"] = {"path": candidate, "epoch": 1}
        picked = select_initial_checkpoint(manager, manifest)
        assert picked is not None and str(picked[1]) == candidate

    def test_interrupted_mirroring_restages_from_scratch(self, schema,
                                                         make_rollout,
                                                         swapper, manager,
                                                         mem_sink):
        _, sink = mem_sink
        path = swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        manifest_path = manager.directory / "rollout.json"
        crashed = RolloutManifest(manifest_path)
        crashed.stage = STAGE_MIRRORING
        crashed.data["candidate"] = {"path": path, "epoch": 1}
        crashed.data["canary_replica"] = 1
        crashed.save()
        pool, controller = make_rollout(manifest_path=manifest_path)
        assert controller.poll_once() is True    # resume → reset to idle
        assert controller.stage == STAGE_IDLE
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "resumed" in statuses
        assert controller.poll_once() is True    # fresh detect re-stages
        assert controller.stage == STAGE_MIRRORING

    def test_interrupted_promotion_finishes_at_boot(self, schema,
                                                    make_rollout, swapper,
                                                    manager):
        path = swapper.write_valid(LogisticRegression(
            schema.cardinalities, rng=np.random.default_rng(123)))
        manifest_path = manager.directory / "rollout.json"
        crashed = RolloutManifest(manifest_path)
        crashed.stage = STAGE_PROMOTING
        crashed.data["candidate"] = {"path": path, "epoch": 1}
        crashed.data["canary_replica"] = 2
        crashed.data["promoted"] = [0]           # crash mid-promote
        crashed.save()
        pool, controller = make_rollout(manifest_path=manifest_path)
        assert controller.poll_once() is True
        assert controller.stage == STAGE_IDLE
        assert controller.manifest.data["promotions"] == 1
        for replica in pool.replicas:
            assert replica.service.model_version == "epoch-00000001"


class TestSingleInstanceHonoursManifest:
    @pytest.mark.parametrize("replicas", [1, 2])
    def test_rolled_back_checkpoint_is_never_served(self, tmp_path,
                                                    replicas):
        """A pool marked epoch 2 bad; a restart at any replica count
        boots on epoch 1 and its first poll does not promote epoch 2."""
        from repro.serving.server import build_serving_stack

        ckpt_dir = tmp_path / "ckpts"
        source = build_serving_stack("LR", "criteo", "quick", samples=2000)
        manager = CheckpointManager(ckpt_dir)
        swapper = CheckpointSwapper(manager)
        model = source.service.replicas[0].service.model
        swapper.write_valid(model)
        bad = swapper.write_valid(model)
        manifest = RolloutManifest(ckpt_dir / MANIFEST_NAME)
        manifest.mark_bad(bad, 2, "rolled back")
        manifest.save()

        stack = build_serving_stack("LR", "criteo", "quick", samples=2000,
                                    checkpoint_dir=ckpt_dir,
                                    replicas=replicas)
        assert stack.service.model_version == "epoch-00000001"
        stack.poll_inline()
        assert stack.service.model_version == "epoch-00000001"


class TestOneWatcherAtEveryPoolSize:
    """Every pool size watches checkpoints with one CanaryController; a
    pool with no spare replica promotes without a canary."""

    @staticmethod
    def _stack(ckpt_dir, **kwargs):
        from repro.serving.server import build_serving_stack

        return build_serving_stack("LR", "criteo", "quick", samples=2000,
                                   checkpoint_dir=ckpt_dir, **kwargs)

    @staticmethod
    def _model(stack):
        return stack.service.replicas[0].service.model

    def test_refused_checkpoint_is_not_booted_after_restart(self, tmp_path):
        """A pool of one records its refusals in the manifest, so a
        restart on the same directory does not boot on them."""
        ckpt_dir = tmp_path / "ckpts"
        stack = self._stack(ckpt_dir)
        path = PoisonedCheckpoint(CheckpointManager(ckpt_dir)).write(
            self._model(stack), kind="nan")
        stack.poll_inline()
        assert stack.service.model_version == "initial"

        restarted = self._stack(ckpt_dir)
        assert restarted.service.model_version == "initial"
        assert restarted.service.predict({"field_0": 1}).status == "ok"
        restarted.poll_inline()
        assert restarted.service.model_version == "initial"
        assert path in restarted.canary.manifest.bad_paths

    def test_full_floor_promotes_directly(self, tmp_path):
        """``min_healthy == replicas`` can never spare a canary: one poll
        promotes every replica, and later polls detect nothing new."""
        ckpt_dir = tmp_path / "ckpts"
        stack = self._stack(ckpt_dir, replicas=2, min_healthy=2)
        CheckpointSwapper(CheckpointManager(ckpt_dir)).write_valid(
            self._model(stack))
        stack.poll_inline()
        assert [r.service.model_version for r in stack.service.replicas] \
            == ["epoch-00000001"] * 2
        for _ in range(5):
            stack.poll_inline()
        metrics = stack.canary.metrics
        assert metrics.counter("rollout.detected").value == 1
        assert metrics.counter("rollout.canary_unavailable").value == 0

    def test_canary_mirror_zero_promotes_without_a_canary(self, tmp_path,
                                                          mem_sink):
        bus, sink = mem_sink
        ckpt_dir = tmp_path / "ckpts"
        stack = self._stack(ckpt_dir, replicas=3, canary_mirror=0, bus=bus)
        CheckpointSwapper(CheckpointManager(ckpt_dir)).write_valid(
            self._model(stack))
        stack.poll_inline()
        assert [r.service.model_version for r in stack.service.replicas] \
            == ["epoch-00000001"] * 3
        assert stack.pool._mirror is None  # no mirroring, no hook
        statuses = [e.payload["status"] for e in sink.of_type("rollout")]
        assert "canary_loaded" not in statuses
        assert statuses[-1] == "promoted"
        assert not [e for e in sink.of_type("replica")
                    if e.payload["status"] == "canary_start"]

    def test_pool_of_one_reports_rollout(self, tmp_path):
        """The visible change at ``--replicas 1``: the ``rollout`` op
        answers, and ``rollout.json`` records each promotion."""
        from repro.serving.server import handle_request_line

        ckpt_dir = tmp_path / "ckpts"
        stack = self._stack(ckpt_dir)
        assert stack.canary.direct
        assert stack.pool._mirror is None
        CheckpointSwapper(CheckpointManager(ckpt_dir)).write_valid(
            self._model(stack))
        stack.poll_inline()
        state, _ = handle_request_line('{"op": "rollout"}', stack.service)
        assert state["stage"] == STAGE_IDLE
        assert state["promotions"] == 1
        assert state["current_epoch"] == 1
        on_disk = json.loads((ckpt_dir / MANIFEST_NAME).read_text())
        assert on_disk["promotions"] == 1

    @pytest.mark.parametrize("replicas", [1, 3])
    def test_rollout_op_reports_the_epoch_booted_from(self, tmp_path,
                                                      replicas):
        """A stack booted from a checkpoint reports that epoch before any
        promotion has written one into the manifest."""
        from repro.serving.server import handle_request_line

        ckpt_dir = tmp_path / "ckpts"
        swapper = CheckpointSwapper(CheckpointManager(ckpt_dir))
        model = self._model(self._stack(tmp_path / "seed"))
        swapper.write_valid(model)
        swapper.write_valid(model)
        stack = self._stack(ckpt_dir, replicas=replicas)
        assert stack.service.model_version == "epoch-00000002"
        state, _ = handle_request_line('{"op": "rollout"}', stack.service)
        assert state["current_epoch"] == 2
        assert state["promotions"] == 0

    def test_spare_replica_still_canaries(self, tmp_path):
        stack = self._stack(tmp_path / "ckpts", replicas=2)
        assert not stack.canary.direct
        assert stack.pool._mirror is not None


class TestBootBuildsEachModelOnce:
    @pytest.mark.parametrize("replicas", [1, 3])
    def test_one_model_per_replica_and_one_checkpoint_pick(
            self, tmp_path, monkeypatch, replicas):
        """Replica 0 serves the boot model and every boot replica takes
        the boot pick's weights: no spare model, no second read."""
        from repro.experiments import runner
        from repro.serving import server

        ckpt_dir = tmp_path / "ckpts"
        source = server.build_serving_stack("LR", "criteo", "quick",
                                            samples=2000)
        CheckpointSwapper(CheckpointManager(ckpt_dir)).write_valid(
            source.service.replicas[0].service.model)

        calls = {"models": 0, "picks": 0}
        build = runner._build_plain_model
        pick = server.select_initial_checkpoint

        def counting_build(*args, **kwargs):
            calls["models"] += 1
            return build(*args, **kwargs)

        def counting_pick(*args, **kwargs):
            calls["picks"] += 1
            return pick(*args, **kwargs)

        monkeypatch.setattr(runner, "_build_plain_model", counting_build)
        monkeypatch.setattr(server, "select_initial_checkpoint", counting_pick)
        stack = server.build_serving_stack("LR", "criteo", "quick",
                                           samples=2000,
                                           checkpoint_dir=ckpt_dir,
                                           replicas=replicas)
        assert calls == {"models": replicas, "picks": 1}
        served = [replica.service for replica in stack.service.replicas]
        assert [s.model_version for s in served] == \
            ["epoch-00000001"] * replicas
        first = served[0].model.state_dict()
        for other in served[1:]:
            state = other.model.state_dict()
            assert all(np.array_equal(first[k], state[k]) for k in first)
