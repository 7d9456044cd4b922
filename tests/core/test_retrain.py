"""Re-train stage (Alg. 2) and the full two-stage pipeline."""

import numpy as np
import pytest

from repro.core import (
    Architecture,
    RetrainConfig,
    SearchConfig,
    build_fixed_model,
    retrain,
    run_optinter,
)
from repro.training import evaluate_model


def _retrain_config(**overrides):
    base = dict(embed_dim=4, cross_embed_dim=2, hidden_dims=(8,),
                epochs=2, batch_size=128, lr=5e-3, seed=1)
    base.update(overrides)
    return RetrainConfig(**base)


def _search_config(**overrides):
    base = dict(embed_dim=4, cross_embed_dim=2, hidden_dims=(8,),
                epochs=1, batch_size=128, lr=5e-3, seed=0)
    base.update(overrides)
    return SearchConfig(**base)


class TestBuildFixedModel:
    def test_builds_for_any_architecture(self, tiny_dataset, rng):
        arch = Architecture.random(tiny_dataset.num_pairs, rng)
        model = build_fixed_model(arch, tiny_dataset, _retrain_config())
        assert model.architecture is arch

    def test_memorizing_arch_needs_cross_features(self, tiny_dataset):
        from repro.data import CTRDataset

        no_cross = CTRDataset(schema=tiny_dataset.schema, x=tiny_dataset.x,
                              y=tiny_dataset.y,
                              cardinalities=tiny_dataset.cardinalities)
        arch = Architecture.all_memorize(tiny_dataset.num_pairs)
        with pytest.raises(ValueError):
            build_fixed_model(arch, no_cross, _retrain_config())


class TestRetrain:
    def test_trains_and_returns_history(self, tiny_splits, rng):
        train, val, _ = tiny_splits
        arch = Architecture.random(train.num_pairs, rng)
        model, history = retrain(arch, train, val, _retrain_config())
        assert len(history) >= 1
        assert history.last.val_auc is not None

    def test_fresh_weights_each_call(self, tiny_splits, rng):
        """Re-train must start from scratch: same config, same result."""
        train, val, _ = tiny_splits
        arch = Architecture.all_naive(train.num_pairs)
        model_a, _ = retrain(arch, train, val, _retrain_config())
        model_b, _ = retrain(arch, train, val, _retrain_config())
        state_a = model_a.state_dict()
        state_b = model_b.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_early_stopping_restores_best(self, tiny_splits, rng):
        train, val, test = tiny_splits
        arch = Architecture.all_naive(train.num_pairs)
        config = _retrain_config(epochs=6, patience=2)
        model, history = retrain(arch, train, val, config)
        best = history.best_epoch("val_auc")
        # The restored model's val AUC equals the best recorded epoch.
        metrics = evaluate_model(model, val)
        np.testing.assert_allclose(metrics["auc"], best.val_auc, rtol=1e-9)


class TestRunOptInter:
    def test_full_pipeline(self, tiny_splits):
        train, val, test = tiny_splits
        result = run_optinter(train, val, _search_config(),
                              _retrain_config())
        assert result.architecture.num_pairs == train.num_pairs
        assert result.search is not None
        assert sum(result.selection_counts) == train.num_pairs
        metrics = evaluate_model(result.model, test)
        assert 0.0 <= metrics["auc"] <= 1.0

    def test_default_retrain_config_derived_from_search(self, tiny_splits):
        train, val, _ = tiny_splits
        result = run_optinter(train, val, _search_config())
        # Retrained model must use the search dims.
        assert result.model.embed_dim == 4
        assert result.model.cross_embed_dim == 2

    def test_verbose_leaves_the_callers_config_alone(self, tiny_splits,
                                                     capsys):
        train, val, _ = tiny_splits
        config = _search_config()
        run_optinter(train, val, config, verbose=True)
        assert config.verbose is False
        assert capsys.readouterr().out  # the search still ran verbosely

    def test_retrained_model_is_fixed_mode(self, tiny_splits):
        train, val, _ = tiny_splits
        result = run_optinter(train, val, _search_config())
        assert not result.model.is_search_mode
        assert result.model.architecture == result.architecture
