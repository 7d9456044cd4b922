"""HigherOrderOptInter: third-order search, retrain, planted recovery."""

import numpy as np
import pytest

from repro.core import (
    Architecture,
    HigherOrderOptInter,
    Method,
    SearchConfig,
    retrain_higher_order,
    run_higher_order,
    search_higher_order,
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


def _model(dataset, pair_arch=None, triple_arch=None, **kwargs):
    defaults = dict(embed_dim=4, cross_embed_dim=3, hidden_dims=(16,),
                    rng=np.random.default_rng(0))
    defaults.update(kwargs)
    return HigherOrderOptInter(
        cardinalities=dataset.cardinalities,
        cross_cardinalities=dataset.cross_cardinalities,
        triples=dataset.triples,
        triple_cardinalities=dataset.triple_cardinalities,
        pair_architecture=pair_arch,
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
        pair_arch, triple_arch, history, model = search_higher_order(
            train, val, _search_config())
        assert pair_arch.num_pairs == train.num_pairs
        assert triple_arch.num_pairs == len(train.triples)
        assert len(history) == 2

    def test_search_requires_triples(self, tiny_splits):
        train, val, _ = tiny_splits
        with pytest.raises(ValueError):
            search_higher_order(train, val, _search_config())

    def test_search_fails_fast_on_non_finite_loss(self, triple_data):
        # Like every other search loop: the NaN batch stops the search at
        # once instead of poisoning alpha for the remaining epochs.
        _, _, train, val, _ = triple_data
        faulty = FaultyDataset(train, BatchCorruptor(at_batch=2))
        with pytest.raises(RuntimeError,
                           match=r"non-finite training loss .* at epoch 0, "
                                 r"global step 2"):
            search_higher_order(faulty, val, _search_config())

    def test_full_pipeline_recovers_planted_triple(self, triple_data):
        _, truth, train, val, test = triple_data
        result = run_higher_order(train, val, _search_config(epochs=2),
                                  retrain_epochs=4)
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
        config = _search_config()
        model_a, _ = retrain_higher_order(pair_arch, triple_arch, train, val,
                                          config, epochs=1)
        model_b, _ = retrain_higher_order(pair_arch, triple_arch, train, val,
                                          config, epochs=1)
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
        config = _search_config()
        pair_arch = Architecture.all_naive(P)
        model_with, _ = retrain_higher_order(pair_arch, with_triple, train,
                                             val, config, epochs=5)
        model_without, _ = retrain_higher_order(
            pair_arch, Architecture.all_naive(T), train, val, config,
            epochs=5)
        auc_with = evaluate_model(model_with, test)["auc"]
        auc_without = evaluate_model(model_without, test)["auc"]
        assert auc_with > auc_without
