"""Dense cross keys ≡ sorted cross keys, bit for bit.

A :class:`CrossSketch` whose whole key space fits ``_DENSE_KEYS`` counts
in one int64 slot per key, and its :class:`CrossProductTransform` looks
ids up in a table over the key space; above the cap both keep sorted
``np.unique`` runs and ``searchsorted``.  On hypothesis id matrices, fed
in any chunking, for pairs and for triples, both paths must give the
same ``kept()`` keys, the same ``_keys`` / ``_starts``, the same
cardinalities and the same cross ids — for the fitted rows and for
fresh rows with unseen combinations.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import CrossProductTransform, CrossSketch, cross, make_schema

pytestmark = pytest.mark.invariants


@st.composite
def chunked_ids(draw):
    """(cards, order, chunks, probe, min_count): valid id chunks of one
    schema, cut anywhere, plus probe rows drawn independently."""
    cards = draw(st.lists(st.integers(1, 7), min_size=2, max_size=5))
    order = draw(st.sampled_from([2, 3] if len(cards) >= 3 else [2]))

    def rows(n):
        return np.array([draw(st.lists(st.integers(0, card - 1),
                                       min_size=n, max_size=n))
                         for card in cards], dtype=np.int64).T.reshape(
                             n, len(cards))

    n = draw(st.integers(0, 40))
    x = rows(n)
    cuts = sorted(draw(st.sets(st.integers(1, max(n - 1, 1)), max_size=6)))
    chunks = np.split(x, [c for c in cuts if c < n])
    min_count = draw(st.integers(1, 3))
    return cards, order, chunks, rows(draw(st.integers(0, 12))), min_count


def _fit(cards, order, chunks, min_count):
    schema = make_schema(cards)
    tuples = schema.pairs(order)
    sketch = CrossSketch(tuples, cards)
    for chunk in chunks:
        sketch.update(chunk)
    transform = CrossProductTransform(schema, min_count=min_count,
                                      tuples=tuples).fit_sketch(sketch)
    return sketch, transform


class TestDenseEqualsSorted:
    @given(chunked_ids())
    @settings(max_examples=80, deadline=None)
    def test_kept_keys_ids_and_cardinalities(self, data):
        cards, order, chunks, probe, min_count = data
        dense_sketch, dense = _fit(cards, order, chunks, min_count)
        with mock.patch.object(cross, "_DENSE_KEYS", 0):
            sorted_sketch, sparse = _fit(cards, order, chunks, min_count)
        assert dense_sketch.pair_keys.dense
        assert not sorted_sketch.pair_keys.dense
        for a, b in ((dense_sketch.kept(min_count),
                      sorted_sketch.kept(min_count)),
                     (dense._keys, sparse._keys),
                     (dense._starts, sparse._starts)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)
        assert dense.cardinalities == sparse.cardinalities
        for x in (np.concatenate(chunks), probe):
            ids = dense.transform(x)
            assert ids.dtype == np.int64
            np.testing.assert_array_equal(ids, sparse.transform(x))
            np.testing.assert_array_equal(
                dense.transform(x, assume_valid=True), ids)

    def test_cap_is_inclusive(self):
        cards = [2, 2]
        x = np.array([[0, 1], [1, 1]])
        with mock.patch.object(cross, "_DENSE_KEYS", 4):
            at_cap = CrossSketch(make_schema(cards).pairs(), cards)
        with mock.patch.object(cross, "_DENSE_KEYS", 3):
            above = CrossSketch(make_schema(cards).pairs(), cards)
        assert at_cap.pair_keys.dense and not above.pair_keys.dense
        np.testing.assert_array_equal(at_cap.update(x).kept(),
                                      above.update(x).kept())
