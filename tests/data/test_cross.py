"""Cross-product transformation (Eq. 4): exact and hashed variants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (CrossProductTransform, CrossSketch,
                        HashedCrossTransform, make_schema)


def _schema(m=3):
    return make_schema([4] * m)


class TestCrossProductTransform:
    def test_shapes(self, rng):
        schema = _schema(4)
        x = rng.integers(0, 4, size=(50, 4))
        cross = CrossProductTransform(schema)
        out = cross.fit_transform(x)
        assert out.shape == (50, schema.num_pairs)

    def test_same_pair_same_id(self):
        schema = _schema(2)
        x = np.array([[1, 2], [1, 2], [0, 3]])
        out = CrossProductTransform(schema).fit_transform(x)
        assert out[0, 0] == out[1, 0]
        assert out[0, 0] != out[2, 0]

    def test_distinct_pairs_distinct_ids(self):
        schema = _schema(2)
        x = np.array([[i, j] for i in range(4) for j in range(4)])
        out = CrossProductTransform(schema).fit_transform(x)
        assert len(np.unique(out[:, 0])) == 16

    def test_min_count_folds_to_oov(self):
        schema = _schema(2)
        x = np.array([[1, 1]] * 5 + [[2, 2]])
        cross = CrossProductTransform(schema, min_count=2)
        out = cross.fit_transform(x)
        assert out[0, 0] != 0
        assert out[5, 0] == 0

    def test_unseen_at_transform_is_oov(self):
        schema = _schema(2)
        cross = CrossProductTransform(schema).fit(np.array([[0, 0]]))
        out = cross.transform(np.array([[3, 3]]))
        assert out[0, 0] == 0

    def test_cardinalities_include_oov(self):
        schema = _schema(2)
        cross = CrossProductTransform(schema).fit(np.array([[0, 0], [1, 1]]))
        assert cross.cardinalities == [3]
        assert cross.total_cross_values == 3

    def test_ids_dense_in_range(self, rng):
        schema = _schema(3)
        x = rng.integers(0, 4, size=(200, 3))
        cross = CrossProductTransform(schema)
        out = cross.fit_transform(x)
        for p, card in enumerate(cross.cardinalities):
            assert out[:, p].max() < card
            assert out[:, p].min() >= 0

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            CrossProductTransform(_schema()).transform(np.zeros((1, 3)))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            CrossProductTransform(_schema(3)).fit(np.zeros((5, 2), dtype=int))

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            CrossProductTransform(_schema(), min_count=0)

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_deterministic_under_seeds(self, seed):
        rng = np.random.default_rng(seed)
        schema = _schema(3)
        x = rng.integers(0, 4, size=(30, 3))
        a = CrossProductTransform(schema).fit_transform(x)
        b = CrossProductTransform(schema).fit_transform(x)
        np.testing.assert_array_equal(a, b)


class TestAssumeValidFastPath:
    """``transform(assume_valid=True)`` skips the id-range re-scan; the
    default path keeps rejecting out-of-range ids with the field named."""

    def test_default_still_rejects_out_of_range_naming_the_field(self, rng):
        schema = _schema(3)
        cross = CrossProductTransform(schema).fit(
            rng.integers(0, 4, size=(40, 3)))
        bad = np.array([[0, 99, 0]])
        with pytest.raises(ValueError, match=r"field 1 ids must be in"):
            cross.transform(bad)

    def test_fast_path_matches_default_on_valid_input(self, rng):
        schema = _schema(3)
        x = rng.integers(0, 4, size=(60, 3))
        cross = CrossProductTransform(schema).fit(x)
        np.testing.assert_array_equal(cross.transform(x),
                                      cross.transform(x, assume_valid=True))

    def test_fast_path_skips_the_range_scan(self, rng):
        """assume_valid trusts the caller: no per-column scan happens, so
        out-of-range ids pass through (into whatever key they alias) —
        the whole point is that serving validates *before* this call."""
        schema = _schema(3)
        cross = CrossProductTransform(schema).fit(
            rng.integers(0, 4, size=(40, 3)))
        bad = np.array([[0, 99, 0]])
        out = cross.transform(bad, assume_valid=True)  # must not raise
        assert out.shape == (1, schema.num_pairs)

    @pytest.mark.parametrize("row", [[-1, 0, 0], [0, 0, -7], [3, 4, 3],
                                      [2 ** 40, 0, 0], [-(2 ** 40), 2, 1]])
    def test_fast_path_never_raises_on_out_of_range_ids(self, rng, row):
        schema = _schema(3)
        cross = CrossProductTransform(schema).fit(
            rng.integers(0, 4, size=(40, 3)))
        out = cross.transform(np.array([row, [0, 1, 2]]), assume_valid=True)
        assert out.shape == (2, schema.num_pairs)
        np.testing.assert_array_equal(out[1],
                                      cross.transform(np.array([[0, 1, 2]]))[0])


class TestCrossSketchRange:
    """``CrossSketch.update`` counts only ids in ``[0, card)``: an id
    outside would alias another key, or index a count from the end."""

    @pytest.mark.parametrize("col, value", [(0, -1), (1, 4), (2, -(2 ** 40)),
                                            (2, 2 ** 40)])
    def test_update_rejects_ids_outside_the_field(self, rng, col, value):
        schema = _schema(3)
        sketch = CrossSketch(schema.pairs(), schema.cardinalities)
        x = rng.integers(0, 4, size=(30, 3))
        x[17, col] = value
        with pytest.raises(ValueError, match=rf"field {col} ids must be in"):
            sketch.update(x)
        # Nothing of the rejected chunk was counted.
        assert sketch.kept().size == 0

    def test_update_accepts_the_range_edges(self):
        schema = _schema(2)
        sketch = CrossSketch(schema.pairs(), schema.cardinalities)
        sketch.update(np.array([[0, 3], [3, 0], [3, 3]]))
        np.testing.assert_array_equal(sketch.kept_keys()[0], [3, 12, 15])


class TestHashedCrossTransform:
    def test_shapes_and_range(self, rng):
        schema = _schema(3)
        x = rng.integers(0, 4, size=(40, 3))
        hashed = HashedCrossTransform(schema, num_buckets=16)
        out = hashed.fit_transform(x)
        assert out.shape == (40, 3)
        assert out.min() >= 1
        assert out.max() <= 16

    def test_same_input_same_bucket(self, rng):
        schema = _schema(2)
        hashed = HashedCrossTransform(schema, num_buckets=8)
        x = np.array([[1, 2], [1, 2]])
        out = hashed.fit_transform(x)
        assert out[0, 0] == out[1, 0]

    def test_cardinalities_constant(self):
        schema = _schema(3)
        hashed = HashedCrossTransform(schema, num_buckets=32)
        assert hashed.cardinalities == [33, 33, 33]

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            HashedCrossTransform(_schema(), num_buckets=1)

    def test_transform_before_fit(self):
        with pytest.raises(RuntimeError):
            HashedCrossTransform(_schema()).transform(np.zeros((1, 3)))
