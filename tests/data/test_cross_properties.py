"""Property-based tests for the cross-product transforms (paper Eq. 4).

Invariants, driven by hypothesis over random schemas and id matrices:

* transform output ids always lie within the reported ``cardinalities``;
* combinations unseen at fit time or filtered by ``min_count`` fold to
  ``OOV_ID``;
* ``fit_transform(x)`` equals ``fit(x).transform(x)``;
* a :class:`CrossSketch` fed any chunking of ``x`` keeps exactly the
  ``np.unique`` + threshold keys of the whole matrix;
* hashed buckets are stable across calls and instances.

Plus regression tests for two fixed bugs: ``HashedCrossTransform.fit``
accepted any input shape, and ``CrossProductTransform.transform``
silently computed aliasing pair keys for ids outside the fit-time
cardinality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (CrossProductTransform, CrossSketch,
                        HashedCrossTransform, make_schema)
from repro.data.cross import OOV_ID


@st.composite
def id_matrices(draw):
    """(cardinalities, x) with every id valid for its field."""
    cards = draw(st.lists(st.integers(2, 6), min_size=2, max_size=4))
    n = draw(st.integers(1, 30))
    columns = [draw(st.lists(st.integers(0, card - 1),
                             min_size=n, max_size=n))
               for card in cards]
    return cards, np.array(columns, dtype=np.int64).T


class TestCrossProductProperties:
    @given(id_matrices(), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_ids_within_cardinalities(self, data, min_count):
        cards, x = data
        cross = CrossProductTransform(make_schema(cards), min_count=min_count)
        out = cross.fit_transform(x)
        assert out.shape == (x.shape[0], len(cross.pairs))
        for p, card in enumerate(cross.cardinalities):
            assert out[:, p].min() >= 0
            assert out[:, p].max() < card

    @given(id_matrices())
    @settings(max_examples=40, deadline=None)
    def test_fit_transform_equals_fit_then_transform(self, data):
        cards, x = data
        schema = make_schema(cards)
        a = CrossProductTransform(schema).fit_transform(x)
        b = CrossProductTransform(schema).fit(x).transform(x)
        np.testing.assert_array_equal(a, b)

    @given(id_matrices())
    @settings(max_examples=40, deadline=None)
    def test_unseen_combinations_fold_to_oov(self, data):
        cards, x = data
        schema = make_schema(cards)
        cross = CrossProductTransform(schema).fit(x)
        # Probe the full grid of valid ids; any pair combination absent
        # from the fitted data must map to OOV, and seen ones must not.
        probe = np.array([[i % card for card in cards]
                          for i in range(max(cards))], dtype=np.int64)
        out = cross.transform(probe)
        for p, (i, j) in enumerate(cross.pairs):
            seen = {(a, b) for a, b in zip(x[:, i], x[:, j])}
            for row in range(probe.shape[0]):
                combo = (probe[row, i], probe[row, j])
                if combo in seen:
                    assert out[row, p] != OOV_ID
                else:
                    assert out[row, p] == OOV_ID

    @given(id_matrices())
    @settings(max_examples=40, deadline=None)
    def test_min_count_filtered_combinations_fold_to_oov(self, data):
        cards, x = data
        schema = make_schema(cards)
        # min_count above the row count filters everything out.
        cross = CrossProductTransform(schema, min_count=x.shape[0] + 1)
        out = cross.fit_transform(x)
        assert np.all(out == OOV_ID)
        assert cross.cardinalities == [1] * len(cross.pairs)


    @given(id_matrices(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_chunked_sketch_equals_one_shot_unique(self, data, draw):
        cards, x = data
        n = x.shape[0]
        if draw.draw(st.booleans(), label="one-row chunks"):
            cuts = list(range(1, n))
        else:
            cuts = sorted(draw.draw(st.sets(st.integers(1, max(n - 1, 1)),
                                            max_size=n), label="cuts"))
        # n + 1 keeps no key at all: every pair takes the OOV-only path.
        min_count = draw.draw(st.integers(1, 3) | st.just(n + 1),
                              label="min_count")
        schema = make_schema(cards)
        sketch = CrossSketch(schema.pairs(), cards)
        for chunk in np.split(x, [c for c in cuts if c < n]):
            sketch.update(chunk)
        out = sketch.finalize(schema, min_count=min_count).transform(x)
        for p, ((i, j), kept) in enumerate(zip(schema.pairs(),
                                               sketch.kept_keys(min_count))):
            keys = x[:, i] * cards[j] + x[:, j]
            unique, counts = np.unique(keys, return_counts=True)
            expected = unique[counts >= min_count]
            np.testing.assert_array_equal(kept, expected)
            ids = {int(key): pos + 1 for pos, key in enumerate(expected)}
            np.testing.assert_array_equal(
                out[:, p], [ids.get(int(key), OOV_ID) for key in keys])


class TestHashedCrossProperties:
    @given(id_matrices(), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_ids_within_cardinalities(self, data, buckets):
        cards, x = data
        hashed = HashedCrossTransform(make_schema(cards), num_buckets=buckets)
        out = hashed.fit_transform(x)
        for p, card in enumerate(hashed.cardinalities):
            assert out[:, p].min() >= 1  # hashed ids never use the OOV slot
            assert out[:, p].max() < card

    @given(id_matrices(), st.integers(2, 64))
    @settings(max_examples=40, deadline=None)
    def test_buckets_stable_across_calls_and_instances(self, data, buckets):
        cards, x = data
        schema = make_schema(cards)
        hashed = HashedCrossTransform(schema, num_buckets=buckets)
        first = hashed.fit_transform(x)
        np.testing.assert_array_equal(first, hashed.transform(x))
        other = HashedCrossTransform(schema, num_buckets=buckets)
        np.testing.assert_array_equal(first, other.fit_transform(x))

    @given(id_matrices())
    @settings(max_examples=40, deadline=None)
    def test_fit_transform_equals_fit_then_transform(self, data):
        cards, x = data
        schema = make_schema(cards)
        a = HashedCrossTransform(schema, num_buckets=8).fit_transform(x)
        b = HashedCrossTransform(schema, num_buckets=8).fit(x).transform(x)
        np.testing.assert_array_equal(a, b)


class TestValidationRegressions:
    """Regression tests for the two fixed validation bugs."""

    def test_hashed_fit_rejects_wrong_width(self):
        schema = make_schema([4, 4, 4])
        with pytest.raises(ValueError, match=r"\[n, 3\]"):
            HashedCrossTransform(schema).fit(np.zeros((5, 2), dtype=int))

    def test_hashed_fit_rejects_wrong_ndim(self):
        schema = make_schema([4, 4])
        with pytest.raises(ValueError):
            HashedCrossTransform(schema).fit(np.zeros(6, dtype=int))

    def test_transform_rejects_ids_beyond_fit_cardinality(self):
        schema = make_schema([4, 4])
        cross = CrossProductTransform(schema).fit(
            np.array([[0, 0], [3, 3]]), cardinalities=[4, 4])
        with pytest.raises(ValueError, match="field 0"):
            cross.transform(np.array([[4, 0]]))

    def test_transform_rejects_negative_ids(self):
        schema = make_schema([4, 4])
        cross = CrossProductTransform(schema).fit(np.array([[0, 0]]))
        with pytest.raises(ValueError):
            cross.transform(np.array([[-1, 0]]))

    def test_transform_rejects_wrong_width(self):
        schema = make_schema([4, 4, 4])
        cross = CrossProductTransform(schema).fit(
            np.zeros((2, 3), dtype=int))
        with pytest.raises(ValueError):
            cross.transform(np.zeros((2, 2), dtype=int))

    def test_fit_rejects_ids_beyond_schema_cardinality(self):
        schema = make_schema([2, 2])
        with pytest.raises(ValueError):
            CrossProductTransform(schema).fit(np.array([[2, 0]]))
