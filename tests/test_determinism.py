"""Pinned-value regression tests.

These pin exact values produced by seeded runs in this environment.  They
exist to catch *unintentional* behaviour changes — a refactor that changes
RNG consumption order, a preprocessing tweak that silently shifts ids —
which shape-level tests would absorb.  If you change behaviour on purpose,
update the pins in the same commit and say why.
"""

import numpy as np
import pytest

from repro.core import (
    Architecture,
    Method,
    RetrainConfig,
    SearchConfig,
    retrain,
    search_bilevel,
    search_optinter,
)
from repro.data import SyntheticConfig, criteo_like, make_dataset

pytestmark = pytest.mark.invariants


@pytest.fixture(scope="module")
def pinned_dataset():
    return make_dataset(criteo_like(n_samples=2000))


@pytest.fixture(scope="module")
def pinned_splits(pinned_dataset):
    dataset, _ = pinned_dataset
    return dataset.split((0.7, 0.1, 0.2), rng=np.random.default_rng(0))


def _pinned_search_config(**overrides):
    return SearchConfig(**{**dict(embed_dim=3, cross_embed_dim=2,
                                  hidden_dims=(8,), epochs=1,
                                  batch_size=256, seed=0), **overrides})


class TestDataPins:
    def test_label_count(self, pinned_dataset):
        dataset, _ = pinned_dataset
        assert int(dataset.y.sum()) == 456

    def test_id_matrix_checksum(self, pinned_dataset):
        dataset, _ = pinned_dataset
        assert int(dataset.x.sum()) == 200129

    def test_cross_checksum(self, pinned_dataset):
        dataset, _ = pinned_dataset
        assert int(dataset.x_cross.sum()) % 1000003 == 457100

    def test_cardinalities_prefix(self, pinned_dataset):
        dataset, _ = pinned_dataset
        assert dataset.cardinalities[:4] == [11, 11, 11, 41]


class TestSearchPins:
    def test_searched_architecture(self, pinned_dataset):
        dataset, _ = pinned_dataset
        train, val, _ = dataset.split((0.7, 0.1, 0.2),
                                      rng=np.random.default_rng(0))
        result = search_optinter(train, val, SearchConfig(
            embed_dim=3, cross_embed_dim=2, hidden_dims=(8,), epochs=1,
            batch_size=256, seed=0))
        assert result.architecture.counts() == [38, 10, 18]
        np.testing.assert_allclose(np.abs(result.alpha).sum(), 7.549658,
                                   atol=1e-5)

    def test_bilevel_architecture(self, pinned_splits):
        train, val, _ = pinned_splits
        result = search_bilevel(train, val, _pinned_search_config())
        assert result.architecture.counts() == [36, 19, 11]
        np.testing.assert_allclose(np.abs(result.alpha).sum(), 7.212484,
                                   atol=1e-5)
        np.testing.assert_allclose(result.history.records[0].train_loss,
                                   0.628342, atol=1e-5)

    def test_higher_order_architectures(self):
        dataset, _ = make_dataset(SyntheticConfig(
            cardinalities=[8, 10, 6, 12, 9, 7], n_samples=1500,
            n_memorizable=1, n_factorizable=1, n_memorizable_triples=1,
            triple_strength=2.5, min_count=1, cross_min_count=2, seed=4),
            with_triples=True, triple_min_count=2)
        train, val, _ = dataset.split((0.7, 0.1, 0.2),
                                      rng=np.random.default_rng(0))
        result = search_optinter(
            train, val, _pinned_search_config(
                embed_dim=4, cross_embed_dim=3, hidden_dims=(16,), lr=3e-3,
                lr_arch=2e-2, l2_cross=5e-2))
        assert result.architecture.counts() == [6, 3, 6]
        assert result.triple_architecture.counts() == [9, 6, 5]
        alpha_sum = sum(float(np.abs(p.data).sum())
                        for p in result.model.architecture_parameters())
        np.testing.assert_allclose(alpha_sum, 6.322004, atol=1e-5)
        np.testing.assert_allclose(result.history.records[0].train_loss,
                                   0.636730, atol=1e-5)


class TestRetrainPins:
    def test_fixed_architecture_retrain(self, pinned_splits):
        train, val, _ = pinned_splits
        methods = list(Method)
        architecture = Architecture(
            methods=tuple(methods[i % 3] for i in range(66)))
        model, history = retrain(architecture, train, val, RetrainConfig(
            embed_dim=3, cross_embed_dim=2, hidden_dims=(8,), epochs=2,
            batch_size=256, l2_cross=1e-3, seed=1))
        assert architecture.counts() == [22, 22, 22]
        np.testing.assert_allclose(
            [r.train_loss for r in history.records],
            [0.840471, 0.658179], atol=1e-5)
        param_sum = sum(float(np.abs(p.data).sum())
                        for p in model.parameters())
        np.testing.assert_allclose(param_sum, 286.269083, atol=1e-5)
