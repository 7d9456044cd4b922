"""Search algorithms: joint (Alg. 1), bi-level, random."""

import warnings

import numpy as np
import pytest

from repro.core import (
    Architecture,
    SearchConfig,
    random_architecture,
    search_bilevel,
    search_optinter,
)
from repro.core.search import BilevelTrainer, _build_search_model, table_iv_groups
from repro.nn import Adam
from repro.obs import EventBus, MemorySink
from repro.resilience import BatchCorruptor, FaultyDataset, RecoveryPolicy


def _config(**overrides):
    base = dict(embed_dim=4, cross_embed_dim=2, hidden_dims=(8,),
                epochs=2, batch_size=128, lr=5e-3, lr_arch=2e-2,
                seed=0)
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchConfigValidation:
    @pytest.mark.parametrize("overrides, message", [
        ({"epochs": 0}, "epochs must be >= 1"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"temperature_end": 0.0}, "temperatures must be positive"),
        ({"temperature_start": -1.0}, "temperatures must be positive"),
    ])
    def test_rejected_at_construction(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            _config(**overrides)

    def test_zero_epochs_never_reach_the_search(self, tiny_splits, tmp_path):
        """A zero-epoch search used to return the untrained-α decode (every
        pair memorized); a zero end temperature used to fail only after
        epoch 0 had trained and checkpointed."""
        train, val, _ = tiny_splits
        with pytest.raises(ValueError):
            search_optinter(train, val, _config(epochs=0))
        with pytest.raises(ValueError):
            search_optinter(train, val, _config(temperature_end=0.0),
                            checkpoint_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestJointSearch:
    def test_returns_valid_architecture(self, tiny_splits):
        train, val, _ = tiny_splits
        result = search_optinter(train, val, _config())
        assert result.architecture.num_pairs == train.num_pairs
        assert result.alpha.shape == (train.num_pairs, 3)
        assert len(result.history) == 2

    def test_alpha_moves_from_init(self, tiny_splits):
        train, val, _ = tiny_splits
        result = search_optinter(train, val, _config())
        assert np.abs(result.alpha).sum() > 0  # init was all zeros

    def test_history_records_validation(self, tiny_splits):
        train, val, _ = tiny_splits
        result = search_optinter(train, val, _config())
        assert result.history.last.val_auc is not None

    def test_works_without_validation(self, tiny_splits):
        train, _, _ = tiny_splits
        result = search_optinter(train, None, _config(epochs=1))
        assert result.history.last.val_auc is None

    def test_deterministic_given_seed(self, tiny_splits):
        train, val, _ = tiny_splits
        a = search_optinter(train, val, _config())
        b = search_optinter(train, val, _config())
        np.testing.assert_array_equal(a.alpha, b.alpha)

    def test_requires_cross_features(self, tiny_splits):
        train, val, _ = tiny_splits
        stripped = train.subset(np.arange(len(train)))
        stripped.x_cross = None
        with pytest.raises(ValueError):
            search_optinter(stripped, val, _config())

    def test_temperature_annealing_applied(self, tiny_splits):
        train, val, _ = tiny_splits
        config = _config(epochs=2, temperature_start=2.0, temperature_end=0.5)
        result = search_optinter(train, val, config)
        # After the final epoch the block sits at the end temperature.
        assert result.model.combination.temperature == pytest.approx(0.5)

    def test_finds_planted_memorizable_pair(self, tiny_splits, tiny_truth):
        """The search must not assign 'naive' to the planted strong pair."""
        from repro.core import Method
        from repro.data import PairRole

        train, val, _ = tiny_splits
        result = search_optinter(train, val, _config(epochs=3))
        planted = tiny_truth.pairs_with_role(PairRole.MEMORIZABLE)[0]
        assert result.architecture[planted] is not Method.NAIVE


class TestBilevelSearch:
    def test_returns_valid_architecture(self, tiny_splits):
        train, val, _ = tiny_splits
        result = search_bilevel(train, val, _config())
        assert result.architecture.num_pairs == train.num_pairs

    def test_requires_validation_set(self, tiny_splits):
        train, _, _ = tiny_splits
        with pytest.raises(ValueError):
            search_bilevel(train, None, _config())

    def test_alpha_differs_from_joint(self, tiny_splits):
        train, val, _ = tiny_splits
        joint = search_optinter(train, val, _config())
        bilevel = search_bilevel(train, val, _config())
        assert not np.allclose(joint.alpha, bilevel.alpha)


class TestDivergence:
    """Without a recovery policy a NaN loss fails fast, as in Trainer."""

    def test_joint_search_raises_on_non_finite_loss(self, tiny_splits):
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=2))
        with pytest.raises(RuntimeError, match="non-finite training loss"):
            search_optinter(faulty, val, _config())

    @pytest.mark.parametrize("level", ["theta", "alpha"])
    def test_bilevel_search_raises_on_non_finite_loss(self, tiny_splits,
                                                      level):
        train, val, _ = tiny_splits
        if level == "theta":
            train = FaultyDataset(train, BatchCorruptor(at_batch=1))
            split = "training"
        else:
            val = FaultyDataset(val, BatchCorruptor(at_batch=1))
            split = "validation"
        with pytest.raises(RuntimeError, match=f"non-finite {split} loss"):
            search_bilevel(train, val, _config())

    def test_both_searches_number_steps_alike_across_rollbacks(
            self, tiny_splits):
        train, val, _ = tiny_splits
        strikes = {}
        for search in (search_optinter, search_bilevel):
            faulty = FaultyDataset(
                FaultyDataset(train, BatchCorruptor(at_batch=2)),
                BatchCorruptor(at_batch=6))
            sink = MemorySink()
            search(faulty, val, _config(epochs=1),
                   recovery=RecoveryPolicy(max_batch_skips=0),
                   bus=EventBus([sink]))
            strikes[search.__name__] = [
                (e.payload["action"], e.payload["step"])
                for e in sink.of_type("recovery")]
        # Batches 0-1 apply steps 0-1; batch 2 rolls back to step 0, so
        # batches 3-5 apply steps 0-2 and batch 6 strikes at step 3.
        expected = [("skip", 2), ("rollback", 2), ("skip", 3),
                    ("rollback", 3)]
        assert strikes == {"search_optinter": expected,
                           "search_bilevel": expected}

    def test_bilevel_alpha_rollback_discards_its_theta_update(
            self, tiny_splits):
        # The α step of train batch 2 rolls back to the epoch start,
        # which discards that batch's applied Θ update as well: it is
        # not a step, and its loss leaves the epoch mean.
        train, val, _ = tiny_splits
        config = _config(epochs=1)
        model = _build_search_model(train, config, np.random.default_rng(0))
        applied = []
        trainer = BilevelTrainer(
            model, Adam(table_iv_groups(model, config.lr, config.l2_cross)),
            Adam(model.architecture_parameters(), lr=config.lr_arch),
            config, FaultyDataset(val, BatchCorruptor(at_batch=2)),
            recovery=RecoveryPolicy(max_batch_skips=0),
            rng=np.random.default_rng(0),
            on_step=lambda model, batch, loss: applied.append(loss))
        history = trainer.fit(train)
        num_batches = -(-len(train) // config.batch_size)
        assert len(applied) == num_batches - 1
        assert trainer._global_step == num_batches - 3
        assert history.records[0].train_loss == float(np.mean(applied[2:]))

    @pytest.mark.parametrize("search", [search_optinter, search_bilevel])
    def test_epoch_with_every_batch_skipped_reports_nan(self, tiny_splits,
                                                        search):
        # One batch per epoch, poisoned and skipped by the guard: the
        # epoch has no loss to average, and says so without a warning.
        train, val, _ = tiny_splits
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=0))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = search(faulty, val,
                            _config(epochs=1, batch_size=len(train)),
                            recovery=RecoveryPolicy(max_batch_skips=2))
        assert np.isnan(result.history.records[0].train_loss)


class TestRandomArchitecture:
    def test_valid(self, rng):
        arch = random_architecture(30, rng)
        assert isinstance(arch, Architecture)
        assert arch.num_pairs == 30

    def test_varies_across_draws(self):
        rng = np.random.default_rng(0)
        a = random_architecture(40, rng)
        b = random_architecture(40, rng)
        assert list(a) != list(b)
