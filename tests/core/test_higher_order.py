"""OptInterModel over field triples: third-order search, retrain,
planted recovery, through the one pipeline (``run_optinter``)."""

import numpy as np
import pytest

from repro.core import (
    Architecture,
    Method,
    OptInterModel,
    RetrainConfig,
    SearchConfig,
    retrain,
    run_optinter,
    search_bilevel,
    search_optinter,
)
from repro.data import SyntheticConfig, make_dataset
from repro.nn import binary_cross_entropy_with_logits
from repro.resilience import BatchCorruptor, FaultyDataset
from repro.training import evaluate_model


@pytest.fixture(scope="module")
def triple_data():
    config = SyntheticConfig(
        cardinalities=[8, 10, 6, 12, 9, 7],
        n_samples=4000,
        n_memorizable=1,
        n_factorizable=1,
        n_memorizable_triples=1,
        triple_strength=2.5,
        min_count=1,
        cross_min_count=2,
        seed=4,
    )
    dataset, truth = make_dataset(config, with_triples=True,
                                  triple_min_count=2)
    train, val, test = dataset.split((0.7, 0.1, 0.2),
                                     rng=np.random.default_rng(0))
    return dataset, truth, train, val, test


def _search_config(**overrides):
    base = dict(embed_dim=4, cross_embed_dim=3, hidden_dims=(16,),
                epochs=2, batch_size=256, lr=3e-3, lr_arch=2e-2,
                l2_cross=5e-2, temperature_start=0.5, temperature_end=0.5,
                seed=0)
    base.update(overrides)
    return SearchConfig(**base)


def _retrain_config(config, epochs):
    """The re-train stage a search config implies (as ``run_optinter``
    derives it), for ``epochs`` epochs."""
    return RetrainConfig(embed_dim=config.embed_dim,
                         cross_embed_dim=config.cross_embed_dim,
                         hidden_dims=tuple(config.hidden_dims),
                         layer_norm=config.layer_norm, lr=config.lr,
                         l2_cross=config.l2_cross,
                         batch_size=config.batch_size, epochs=epochs,
                         patience=3, seed=config.seed + 1)


def _model(dataset, pair_arch=None, triple_arch=None, **kwargs):
    defaults = dict(embed_dim=4, cross_embed_dim=3, hidden_dims=(16,),
                    rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return OptInterModel(
        cardinalities=dataset.cardinalities,
        cross_cardinalities=dataset.cross_cardinalities,
        triples=dataset.triples,
        triple_cardinalities=dataset.triple_cardinalities,
        architecture=pair_arch,
        triple_architecture=triple_arch,
        **defaults,
    )


class TestModel:
    def test_search_mode_forward(self, triple_data):
        dataset, *_ = triple_data
        model = _model(dataset)
        batch = dataset.full_batch()
        out = model(batch)
        assert out.shape == (len(dataset),)
        assert model.is_search_mode

    def test_two_alpha_matrices(self, triple_data):
        dataset, *_ = triple_data
        model = _model(dataset)
        alphas = model.architecture_parameters()
        assert len(alphas) == 2
        assert alphas[0].shape == (dataset.num_pairs, 3)
        assert alphas[1].shape == (len(dataset.triples), 3)

    def test_gradients_reach_both_alphas(self, triple_data):
        dataset, *_ = triple_data
        model = _model(dataset)
        batch = next(dataset.iter_batches(128))
        binary_cross_entropy_with_logits(model(batch), batch.y).backward()
        for alpha in model.architecture_parameters():
            assert alpha.grad is not None
            assert np.abs(alpha.grad).sum() > 0

    def test_fixed_mode_param_accounting(self, triple_data):
        dataset, *_ = triple_data
        P, T = dataset.num_pairs, len(dataset.triples)
        lean = _model(dataset, Architecture.all_naive(P),
                      Architecture.all_naive(T))
        heavy = _model(dataset, Architecture.all_memorize(P),
                       Architecture.all_memorize(T))
        assert lean.num_parameters() < heavy.num_parameters()

    def test_mixed_mode_rejected(self, triple_data):
        dataset, *_ = triple_data
        with pytest.raises(ValueError):
            _model(dataset, Architecture.all_naive(dataset.num_pairs), None)

    def test_architecture_size_validated(self, triple_data):
        dataset, *_ = triple_data
        with pytest.raises(ValueError):
            _model(dataset, Architecture.all_naive(3),
                   Architecture.all_naive(len(dataset.triples)))

    def test_missing_triples_in_batch_rejected(self, triple_data):
        dataset, *_ = triple_data
        from repro.data import Batch

        model = _model(dataset)
        batch = Batch(x=dataset.x[:8], x_cross=dataset.x_cross[:8],
                      y=dataset.y[:8])
        with pytest.raises(ValueError):
            model(batch)

    def test_derive_architectures(self, triple_data):
        dataset, *_ = triple_data
        model = _model(dataset)
        pair_arch, triple_arch = model.derive_architectures()
        assert pair_arch.num_pairs == dataset.num_pairs
        assert triple_arch.num_pairs == len(dataset.triples)

    def test_state_dict_names_and_draw_order(self, triple_data):
        # Pairs keep the pairs-only names; the triple group draws its
        # table right after the pairs' one, so everything drawn before it
        # equals a pairs-only model on the same seed.
        dataset, *_ = triple_data
        model = _model(dataset, factorization="generalized")
        keys = list(model.state_dict())
        assert keys[:7] == [
            "generalized_kernel", "triple_generalized_kernel",
            "embedding.table.weight", "cross_embedding.table.weight",
            "triple_cross.table.weight", "combination.alpha",
            "triple_combination.alpha"]
        assert all(key.startswith("mlp.") for key in keys[7:])
        pairs_only = OptInterModel(dataset.cardinalities,
                                   dataset.cross_cardinalities, embed_dim=4,
                                   cross_embed_dim=3, hidden_dims=(16,),
                                   rng=np.random.default_rng(0))
        for key in ("embedding.table.weight", "cross_embedding.table.weight"):
            np.testing.assert_array_equal(model.state_dict()[key],
                                          pairs_only.state_dict()[key])

    def test_derive_rejected_in_fixed_mode(self, triple_data):
        dataset, *_ = triple_data
        model = _model(dataset,
                       Architecture.all_naive(dataset.num_pairs),
                       Architecture.all_naive(len(dataset.triples)))
        with pytest.raises(RuntimeError):
            model.derive_architectures()


class TestPipeline:
    def test_search_returns_both_orders(self, triple_data):
        _, _, train, val, _ = triple_data
        result = search_optinter(train, val, _search_config())
        assert result.architecture.num_pairs == train.num_pairs
        assert result.triple_architecture.num_pairs == len(train.triples)
        assert len(result.history) == 2

    def test_bilevel_search_covers_triples(self, triple_data):
        # The bi-level ablation steps both orders' α with its α optimizer.
        _, _, train, val, _ = triple_data
        result = search_bilevel(train, val, _search_config(epochs=1))
        assert result.triple_architecture.num_pairs == len(train.triples)
        triple_alpha = result.model.triple_combination.alpha.data
        assert np.abs(triple_alpha).sum() > 0  # moved off its zero init

    def test_search_requires_triples(self, tiny_splits):
        # Without x_triple the search is the pairs-only one, and a triple
        # architecture cannot be re-trained on such data.
        train, val, _ = tiny_splits
        result = search_optinter(train, val, _search_config(epochs=1))
        assert result.triple_architecture is None
        assert result.model.architecture_parameters() == [
            result.model.combination.alpha]
        with pytest.raises(ValueError, match="third-order"):
            retrain(result.architecture, train, val, _retrain_config(
                _search_config(), 1),
                triple_architecture=Architecture.all_naive(10))

    def test_search_fails_fast_on_non_finite_loss(self, triple_data):
        # Like every other search loop: the NaN batch stops the search at
        # once instead of poisoning alpha for the remaining epochs.
        _, _, train, val, _ = triple_data
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=2))
        with pytest.raises(RuntimeError,
                           match=r"non-finite training loss .* at epoch 0, "
                                 r"global step 2"):
            search_optinter(faulty, val, _search_config())

    def test_full_pipeline_recovers_planted_triple(self, triple_data):
        _, truth, train, val, test = triple_data
        config = _search_config(epochs=2)
        result = run_optinter(train, val, config, _retrain_config(config, 4))
        planted = truth.memorizable_triples[0]
        t_idx = train.triples.index(planted)
        assert result.triple_architecture[t_idx] is not Method.NAIVE
        metrics = evaluate_model(result.model, test)
        assert metrics["auc"] > 0.6

    def test_retrain_fresh_and_deterministic(self, triple_data):
        _, _, train, val, _ = triple_data
        P, T = train.num_pairs, len(train.triples)
        pair_arch = Architecture.all_factorize(P)
        triple_arch = Architecture.all_naive(T)
        config = _retrain_config(_search_config(), 1)
        model_a, _ = retrain(pair_arch, train, val, config,
                             triple_architecture=triple_arch)
        model_b, _ = retrain(pair_arch, train, val, config,
                             triple_architecture=triple_arch)
        state_a, state_b = model_a.state_dict(), model_b.state_dict()
        for key in state_a:
            np.testing.assert_array_equal(state_a[key], state_b[key])

    def test_third_order_helps_on_triple_data(self, triple_data):
        """Memorizing the planted triple beats ignoring all triples."""
        _, truth, train, val, test = triple_data
        P, T = train.num_pairs, len(train.triples)
        planted_idx = train.triples.index(truth.memorizable_triples[0])
        with_triple = Architecture(methods=tuple(
            Method.MEMORIZE if t == planted_idx else Method.NAIVE
            for t in range(T)))
        config = _retrain_config(_search_config(), 5)
        pair_arch = Architecture.all_naive(P)
        model_with, _ = retrain(pair_arch, train, val, config,
                                triple_architecture=with_triple)
        model_without, _ = retrain(pair_arch, train, val, config,
                                   triple_architecture=Architecture.all_naive(T))
        auc_with = evaluate_model(model_with, test)["auc"]
        auc_without = evaluate_model(model_without, test)["auc"]
        assert auc_with > auc_without
