"""CrossProductTransform over field tuples: k-order cross features."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CrossProductTransform, make_schema


def _schema(m=4, card=4):
    return make_schema([card] * m)


def _tuple_transform(schema, order=3, tuples=None, min_count=1):
    """The cross transform over ``tuples`` (every ``order``-tuple by
    default)."""
    return CrossProductTransform(
        schema, min_count=min_count,
        tuples=schema.pairs(order) if tuples is None else tuples)


class TestDefaultTuples:
    def test_counts(self):
        assert len(_schema(5).pairs(2)) == 10
        assert len(_schema(5).pairs(3)) == 10
        assert len(_schema(5).pairs(5)) == 1

    def test_sorted_unique(self):
        for t in _schema(6).pairs(3):
            assert list(t) == sorted(set(t))

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            _schema(4).pairs(1)
        assert _schema(4).pairs(5) == []  # C(4, 5) = 0


class TestTupleCrossTransform:
    def test_shapes(self, rng):
        schema = _schema(4)
        x = rng.integers(0, 4, size=(60, 4))
        transform = _tuple_transform(schema, order=3)
        out = transform.fit_transform(x)
        assert out.shape == (60, 4)  # C(4,3) = 4

    def test_order2_matches_pair_semantics(self, rng):
        """Order-2 tuples behave like the pairwise transform."""
        from repro.data import CrossProductTransform

        schema = _schema(3)
        x = rng.integers(0, 4, size=(100, 3))
        pairwise = CrossProductTransform(schema).fit_transform(x)
        tuple2 = _tuple_transform(schema, order=2).fit_transform(x)
        np.testing.assert_array_equal(pairwise, tuple2)

    def test_same_tuple_same_id(self):
        schema = _schema(3)
        x = np.array([[1, 2, 3], [1, 2, 3], [0, 2, 3]])
        out = _tuple_transform(schema, order=3).fit_transform(x)
        assert out[0, 0] == out[1, 0]
        assert out[0, 0] != out[2, 0]

    def test_min_count_oov(self):
        schema = _schema(3)
        x = np.array([[1, 1, 1]] * 4 + [[2, 2, 2]])
        transform = _tuple_transform(schema, order=3, min_count=2)
        out = transform.fit_transform(x)
        assert out[0, 0] != 0
        assert out[4, 0] == 0

    def test_unseen_at_transform_oov(self):
        schema = _schema(3)
        transform = _tuple_transform(schema, order=3).fit(
            np.array([[0, 0, 0]]))
        assert transform.transform(np.array([[3, 3, 3]]))[0, 0] == 0

    def test_explicit_tuples(self, rng):
        schema = _schema(5)
        x = rng.integers(0, 4, size=(50, 5))
        transform = _tuple_transform(schema, tuples=[(0, 1, 2), (1, 3, 4)])
        out = transform.fit_transform(x)
        assert out.shape == (50, 2)
        assert transform.pairs == [(0, 1, 2), (1, 3, 4)]

    def test_invalid_tuples_rejected(self):
        schema = _schema(4)
        with pytest.raises(ValueError):
            _tuple_transform(schema, tuples=[(0, 0, 1)])
        with pytest.raises(ValueError):
            _tuple_transform(schema, tuples=[(2, 1, 3)])
        with pytest.raises(ValueError):
            _tuple_transform(schema, tuples=[(0, 1, 9)])
        with pytest.raises(ValueError, match="same order"):
            _tuple_transform(schema, tuples=[(0, 1), (0, 1, 2)])

    def test_cardinalities_include_oov(self, rng):
        schema = _schema(3)
        x = rng.integers(0, 4, size=(30, 3))
        transform = _tuple_transform(schema, order=3)
        transform.fit(x)
        assert all(c >= 1 for c in transform.cardinalities)
        assert transform.total_cross_values == sum(transform.cardinalities)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            _tuple_transform(_schema(3), order=3).transform(
                np.zeros((1, 3)))

    def test_large_cardinality_no_overflow(self, rng):
        """Mixed-radix keys stay in int64 for realistic cardinalities."""
        schema = make_schema([2000, 2000, 2000])
        x = rng.integers(0, 2000, size=(100, 3))
        out = _tuple_transform(schema, order=3).fit_transform(x)
        assert (out >= 0).all()

    def test_triple_key_past_int64_raises_at_fit(self):
        # (2**21 + 1)**3 keys exceed 2**63: the mixed-radix key would
        # wrap (to -9,223,358,842,708,951,040 for the all-max triple).
        card = 2 ** 21 + 1
        schema = make_schema([card] * 3)
        x = np.array([[card - 1] * 3, [0, 1, 2]])
        transform = _tuple_transform(schema, order=3)
        with pytest.raises(ValueError, match="more than int64 holds"):
            transform.fit(x, [card, card, card])

    def test_ids_follow_value_tuple_order(self, rng):
        # Ids are ranks in lexicographic value-tuple order, so any
        # cardinalities covering the data give the same ids.
        schema = make_schema([5, 6, 7, 8])
        x = rng.integers(0, 5, size=(80, 4))
        by_schema = _tuple_transform(schema).fit_transform(x)
        by_data = _tuple_transform(schema).fit_transform(
            x, [int(c) + 1 for c in x.max(axis=0)])
        np.testing.assert_array_equal(by_schema, by_data)
        first = x[:, [0, 1, 2]]
        order = np.lexsort(first.T[::-1])
        ids = by_schema[order, 0]
        assert (np.diff(ids) >= 0).all()

    @given(st.integers(0, 2**31))
    @settings(max_examples=15, deadline=None)
    def test_ids_in_range(self, seed):
        rng = np.random.default_rng(seed)
        schema = _schema(4)
        x = rng.integers(0, 4, size=(40, 4))
        transform = _tuple_transform(schema, order=3)
        out = transform.fit_transform(x)
        for col, card in enumerate(transform.cardinalities):
            assert out[:, col].max() < card


class TestDatasetIntegration:
    def test_make_dataset_with_triples(self):
        from repro.data import SyntheticConfig, make_dataset

        config = SyntheticConfig(cardinalities=[6, 8, 5, 7],
                                 n_samples=800, n_memorizable=1,
                                 n_factorizable=0,
                                 n_memorizable_triples=1, seed=5)
        ds, truth = make_dataset(config, with_triples=True)
        assert ds.x_triple is not None
        assert len(ds.triples) == 4  # C(4,3)
        assert len(truth.memorizable_triples) == 1
        assert truth.memorizable_triples[0] in ds.triples

    def test_triple_split_preserved(self):
        from repro.data import SyntheticConfig, make_dataset

        config = SyntheticConfig(cardinalities=[6, 8, 5], n_samples=400,
                                 n_memorizable=1, n_factorizable=0,
                                 n_memorizable_triples=1, seed=5)
        ds, _ = make_dataset(config, with_triples=True)
        train, test = ds.split((0.5, 0.5), rng=np.random.default_rng(0))
        assert train.x_triple.shape[0] == len(train)
        assert train.triples == ds.triples

    def test_batches_carry_triples(self):
        from repro.data import SyntheticConfig, make_dataset

        config = SyntheticConfig(cardinalities=[6, 8, 5], n_samples=300,
                                 n_memorizable=1, n_factorizable=0, seed=5)
        ds, _ = make_dataset(config, with_triples=True)
        batch = next(ds.iter_batches(64))
        assert batch.x_triple is not None
        assert batch.x_triple.shape == (64, 1)
