"""Fault injectors + end-to-end crash/resume and NaN-recovery guarantees.

These are the acceptance tests of the resilience subsystem: a run killed
mid-training and resumed from its checkpoint directory must reproduce
the uninterrupted run's History and final parameters exactly, and a
poisoned gradient must trigger a logged skip/rollback under a
RecoveryPolicy while preserving the historical raising behaviour
without one.
"""

import numpy as np
import pytest

from repro.core import SearchConfig, run_optinter, search_optinter
from repro.core.retrain import RetrainConfig
from repro.models import FNN
from repro.nn.optim import Adam
from repro.obs import EventBus, MemorySink
from repro.resilience import (
    BatchCorruptor,
    CheckpointManager,
    CrashAtStep,
    FaultyDataset,
    GradientPoison,
    InjectedCrash,
    RecoveryPolicy,
    corrupt_batch,
)
from repro.training.trainer import Trainer

pytestmark = pytest.mark.resilience


def _trainer(dataset, *, model_seed=0, rng_seed=1, max_epochs=4, **kwargs):
    model = FNN(dataset.cardinalities, embed_dim=4, hidden_dims=(8,),
                rng=np.random.default_rng(model_seed))
    opt = Adam(model.parameters(), lr=1e-2)
    trainer = Trainer(model, opt, batch_size=64, max_epochs=max_epochs,
                      patience=10, rng=np.random.default_rng(rng_seed),
                      **kwargs)
    return model, opt, trainer


def _dicts(history):
    return [record.as_dict() for record in history]


class TestInjectors:
    def test_corrupt_batch_poisons_labels(self, tiny_dataset):
        batch = tiny_dataset.full_batch()
        bad = corrupt_batch(batch)
        assert np.isnan(bad.y).all()
        assert np.isfinite(batch.y).all()  # original untouched

    def test_corrupt_batch_fraction(self, tiny_dataset):
        batch = tiny_dataset.full_batch()
        bad = corrupt_batch(batch, fraction=0.25,
                            rng=np.random.default_rng(0))
        frac = np.isnan(bad.y).mean()
        assert 0.2 < frac < 0.3

    def test_corrupt_batch_validates_fraction(self, tiny_dataset):
        with pytest.raises(ValueError):
            corrupt_batch(tiny_dataset.full_batch(), fraction=0.0)

    def test_batch_corruptor_fires_once(self, tiny_dataset):
        corruptor = BatchCorruptor(at_batch=1)
        batches = list(tiny_dataset.iter_batches(256))
        out = [corruptor(b) for b in batches]
        assert not np.isnan(out[0].y).any()
        assert np.isnan(out[1].y).all()
        assert all(not np.isnan(b.y).any() for b in out[2:])
        assert corruptor.fired

    def test_faulty_dataset_delegates(self, tiny_dataset):
        faulty = FaultyDataset(tiny_dataset, BatchCorruptor(at_batch=0))
        assert len(faulty) == len(tiny_dataset)
        assert faulty.cardinalities == tiny_dataset.cardinalities
        first = next(iter(faulty.iter_batches(64)))
        assert np.isnan(first.y).all()

    def test_gradient_poison_targets_named_param(self, tiny_splits):
        train, _, _ = tiny_splits
        model, _, trainer = _trainer(train, max_epochs=1)
        poison = GradientPoison(at_step=0, param_name="embedding")
        hit = {}

        def check(mdl, batch, step):
            poison(mdl, batch, step)
            if step == 0:
                hit.update({name: (param.grad is not None
                                   and np.isnan(param.grad).all())
                            for name, param in mdl.named_parameters()})
                raise InjectedCrash("stop after checking")

        trainer.on_backward = check
        with pytest.raises(InjectedCrash):
            trainer.fit(train)
        assert any(ok for name, ok in hit.items() if "embedding" in name)
        assert all(not ok for name, ok in hit.items()
                   if "embedding" not in name)

    def test_crash_at_step_counts_applied_updates(self, tiny_splits):
        train, _, _ = tiny_splits
        crash = CrashAtStep(at_step=3)
        _, _, trainer = _trainer(train, on_step=crash)
        with pytest.raises(InjectedCrash):
            trainer.fit(train)
        assert crash.applied == 3


@pytest.mark.invariants
class TestCrashResume:
    def test_interrupted_run_resumes_bit_for_bit(self, tiny_splits, tmp_path):
        """Acceptance: kill mid-training, resume, match the clean run."""
        train, val, _ = tiny_splits
        model_ref, _, trainer_ref = _trainer(train)
        history_ref = trainer_ref.fit(train, val)

        # 1050 train rows / batch 64 = 17 steps per epoch; step 40 dies
        # mid-epoch-2, after the epoch-0 and epoch-1 checkpoints landed.
        _, _, trainer_crash = _trainer(train, checkpoint_dir=tmp_path,
                                       on_step=CrashAtStep(at_step=40))
        with pytest.raises(InjectedCrash):
            trainer_crash.fit(train, val)
        assert CheckpointManager(tmp_path).checkpoints()  # progress persisted

        # Resume with a *differently seeded* fresh model: every relevant
        # bit of state must come from the checkpoint, not the constructor.
        model_res, _, trainer_res = _trainer(train, model_seed=123,
                                             rng_seed=456,
                                             checkpoint_dir=tmp_path,
                                             resume=True)
        history_res = trainer_res.fit(train, val)

        assert _dicts(history_res) == _dicts(history_ref)
        ref_state = model_ref.state_dict()
        res_state = model_res.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(res_state[key], ref_state[key])

    def test_resume_of_finished_run_trains_no_further(self, tiny_splits,
                                                      tmp_path):
        train, val, _ = tiny_splits
        sink = MemorySink()
        _, _, first = _trainer(train, checkpoint_dir=tmp_path)
        history_first = first.fit(train, val)
        _, _, again = _trainer(train, model_seed=5, rng_seed=6,
                               checkpoint_dir=tmp_path, resume=True,
                               bus=EventBus([sink]))
        history_again = again.fit(train, val)
        assert _dicts(history_again) == _dicts(history_first)
        # No fresh epochs were trained on resume.
        assert sink.of_type("epoch_end") == []

    def test_corrupt_newest_checkpoint_falls_back(self, tiny_splits,
                                                  tmp_path):
        """Acceptance: checksum detects the bad newest file; resume uses
        the previous intact one and the trace records the fallback."""
        train, val, _ = tiny_splits
        model_ref, _, trainer_ref = _trainer(train)
        history_ref = trainer_ref.fit(train, val)

        _, _, trainer_full = _trainer(train, checkpoint_dir=tmp_path,
                                      keep_last=10)
        trainer_full.fit(train, val)
        newest = CheckpointManager(tmp_path).checkpoints()[-1]
        data = newest.read_bytes()
        newest.write_bytes(data[: len(data) // 2])

        sink = MemorySink()
        model_res, _, trainer_res = _trainer(train, model_seed=9, rng_seed=8,
                                             checkpoint_dir=tmp_path,
                                             resume=True,
                                             bus=EventBus([sink]))
        history_res = trainer_res.fit(train, val)
        actions = [e.payload["action"] for e in sink.of_type("recovery")]
        assert actions[:2] == ["fallback", "resume"]
        # The run still reproduces the reference exactly: the lost epoch
        # is simply re-trained from the previous intact checkpoint.
        assert _dicts(history_res) == _dicts(history_ref)
        ref_state = model_ref.state_dict()
        res_state = model_res.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(res_state[key], ref_state[key])


class TestNaNRecovery:
    def test_poisoned_gradient_recovers_with_policy(self, tiny_splits):
        """Acceptance: poison at step k -> logged skip, finite val AUC."""
        train, val, _ = tiny_splits
        sink = MemorySink()
        _, _, trainer = _trainer(train,
                                 recovery=RecoveryPolicy(max_batch_skips=2),
                                 on_backward=GradientPoison(at_step=5),
                                 bus=EventBus([sink]))
        history = trainer.fit(train, val)
        events = sink.of_type("recovery")
        assert [e.payload["action"] for e in events] == ["skip"]
        assert events[0].payload["reason"] == "non_finite_gradient"
        assert events[0].payload["step"] == 5
        assert np.isfinite(history.last.val_auc)

    def test_poisoned_gradient_raises_without_policy(self, tiny_splits):
        """The historical fail-fast path is preserved, now with context."""
        train, val, _ = tiny_splits
        _, _, trainer = _trainer(train, on_backward=GradientPoison(at_step=5))
        with pytest.raises(RuntimeError,
                           match=r"epoch 0, global step \d+"):
            trainer.fit(train, val)

    def test_corrupt_batch_recovers_with_policy(self, tiny_splits):
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=3))
        sink = MemorySink()
        _, _, trainer = _trainer(train,
                                 recovery=RecoveryPolicy(max_batch_skips=2),
                                 bus=EventBus([sink]))
        history = trainer.fit(faulty, val)
        events = sink.of_type("recovery")
        assert [e.payload["action"] for e in events] == ["skip"]
        assert events[0].payload["reason"] == "non_finite_loss"
        assert np.isfinite(history.last.val_auc)

    def test_corrupt_batch_raises_without_policy(self, tiny_splits):
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=3))
        _, _, trainer = _trainer(train)
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            trainer.fit(faulty, val)

    def test_rollback_drops_the_discarded_losses(self, tiny_splits):
        # Batch 2 rolls back to the epoch start, discarding the updates
        # of batches 0-1: the epoch's loss averages only what it kept.
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=2))
        applied = []
        _, _, trainer = _trainer(
            train, max_epochs=1, recovery=RecoveryPolicy(max_batch_skips=0),
            on_step=lambda model, batch, loss: applied.append(loss))
        history = trainer.fit(faulty, val)
        assert len(applied) > 3
        assert history.records[0].train_loss == float(np.mean(applied[2:]))

    def test_sustained_poison_rolls_back_then_converges(self, tiny_splits):
        train, val, _ = tiny_splits

        class PoisonCalls:
            def __init__(self, lo, hi):
                self.calls = 0
                self.lo, self.hi = lo, hi

            def __call__(self, model, batch, step):
                self.calls += 1
                if self.lo <= self.calls <= self.hi:
                    for param in model.parameters():
                        if param.grad is not None:
                            param.grad = np.full_like(param.grad, np.nan)

        sink = MemorySink()
        _, opt, trainer = _trainer(
            train, recovery=RecoveryPolicy(max_batch_skips=1, max_restarts=2),
            on_backward=PoisonCalls(3, 5), bus=EventBus([sink]))
        history = trainer.fit(train, val)
        actions = [e.payload["action"] for e in sink.of_type("recovery")]
        assert "rollback" in actions
        assert opt.param_groups[0]["lr"] == pytest.approx(5e-3)
        assert np.isfinite(history.last.val_auc)


@pytest.mark.invariants
class TestPipelineResume:
    def test_search_resume_bit_for_bit(self, tiny_splits, tmp_path):
        train, val, _ = tiny_splits
        config = dict(epochs=3, batch_size=128, seed=5)
        ref = search_optinter(train, val, SearchConfig(**config))
        search_optinter(train, val, SearchConfig(**config),
                        checkpoint_dir=tmp_path)
        # Pretend the run died during the final epoch.
        CheckpointManager(tmp_path).checkpoints()[-1].unlink()
        sink = MemorySink()
        resumed = search_optinter(train, val, SearchConfig(**config),
                                  checkpoint_dir=tmp_path, resume=True,
                                  bus=EventBus([sink]))
        np.testing.assert_array_equal(resumed.alpha, ref.alpha)
        assert _dicts(resumed.history) == _dicts(ref.history)
        assert resumed.architecture == ref.architecture
        assert [e.payload["action"]
                for e in sink.of_type("recovery")] == ["resume"]

    def test_run_optinter_resumes_retrain_and_skips_search(self, tiny_splits,
                                                           tmp_path):
        train, val, _ = tiny_splits
        search_config = dict(epochs=2, batch_size=128, seed=5)
        retrain_config = RetrainConfig(epochs=3, batch_size=128, seed=6)
        ref = run_optinter(train, val, SearchConfig(**search_config),
                           retrain_config)
        run_optinter(train, val, SearchConfig(**search_config),
                     retrain_config, checkpoint_dir=tmp_path)
        # Kill the newest retrain checkpoint: the resumed pipeline must
        # skip the (already completed) search and re-train the lost epoch.
        CheckpointManager(tmp_path / "retrain").checkpoints()[-1].unlink()
        resumed = run_optinter(train, val, SearchConfig(**search_config),
                               retrain_config, checkpoint_dir=tmp_path,
                               resume=True)
        assert resumed.search is None  # search skipped via the marker file
        assert resumed.architecture == ref.architecture
        assert _dicts(resumed.retrain_history) == _dicts(ref.retrain_history)
        ref_state = ref.model.state_dict()
        res_state = resumed.model.state_dict()
        for key in ref_state:
            np.testing.assert_array_equal(res_state[key], ref_state[key])

    def test_triple_run_resumes_retrain_and_skips_search(self, tmp_path):
        # A triple-bearing run records both architectures before the
        # retrain starts, so a resume past the search rebuilds the same
        # pair + triple model and re-trains the lost epoch bit for bit.
        from repro.core import Architecture
        from repro.data import SyntheticConfig, make_dataset

        dataset, _ = make_dataset(
            SyntheticConfig(cardinalities=[6, 8, 5, 7], n_samples=900,
                            n_memorizable=1, n_factorizable=1,
                            n_memorizable_triples=1, min_count=1,
                            cross_min_count=1, seed=3),
            with_triples=True, triple_min_count=2)
        train, val, _ = dataset.split((0.7, 0.15, 0.15),
                                      rng=np.random.default_rng(1))
        search_config = SearchConfig(epochs=2, batch_size=128, seed=5)
        retrain_config = RetrainConfig(epochs=3, batch_size=128, seed=6)
        ref = run_optinter(train, val, search_config, retrain_config)
        assert ref.triple_architecture is not None
        run_optinter(train, val, search_config, retrain_config,
                     checkpoint_dir=tmp_path)
        assert Architecture.from_json(
            (tmp_path / "triple_architecture.json").read_text()
        ) == ref.triple_architecture
        CheckpointManager(tmp_path / "retrain").checkpoints()[-1].unlink()
        resumed = run_optinter(train, val, search_config, retrain_config,
                               checkpoint_dir=tmp_path, resume=True)
        assert resumed.search is None  # search skipped via the marker file
        assert resumed.architecture == ref.architecture
        assert resumed.triple_architecture == ref.triple_architecture
        assert _dicts(resumed.retrain_history) == _dicts(ref.retrain_history)
        ref_state = ref.model.state_dict()
        res_state = resumed.model.state_dict()
        assert res_state.keys() == ref_state.keys()
        assert "triple_cross.table.weight" in ref_state
        for key in ref_state:
            assert res_state[key].tobytes() == ref_state[key].tobytes(), key

    def test_search_recovery_policy_survives_poison(self, tiny_splits):
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=2))
        sink = MemorySink()
        result = search_optinter(faulty, val,
                                 SearchConfig(epochs=2, batch_size=128,
                                              seed=5),
                                 recovery=RecoveryPolicy(max_batch_skips=2),
                                 bus=EventBus([sink]))
        assert [e.payload["action"]
                for e in sink.of_type("recovery")] == ["skip"]
        assert np.all(np.isfinite(result.alpha))
