"""Property-based tests for the cross-product transforms (paper Eq. 4).

Invariants, driven by hypothesis over random schemas and id matrices:

* transform output ids always lie within the reported ``cardinalities``;
* combinations unseen at fit time or filtered by ``min_count`` fold to
  ``OOV_ID``;
* ``fit_transform(x)`` equals ``fit(x).transform(x)``;
* a :class:`CrossSketch` fed any chunking of ``x`` keeps exactly the
  ``np.unique`` + threshold keys of the whole matrix;
* hashed buckets are stable across calls and instances;
* every cross id equals the Eq. 4 formula (1 + the key's rank among its
  pair's sorted kept keys, ``OOV_ID`` when absent), computed here from
  plain Python counts, at row counts around the lookup's block size;
* a sketch on sorted runs holds fewer than twice the distinct keys plus
  one chunk.

``test_cross_sorted.py`` runs the exact-transform classes here again
with the dense key space capped at 0.

Plus regression tests for two fixed bugs: ``HashedCrossTransform.fit``
accepted any input shape, and ``CrossProductTransform.transform``
silently computed aliasing pair keys for ids outside the fit-time
cardinality.
"""

from __future__ import annotations

from collections import Counter

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


def formula_ids(x_fit, x, cards, pairs, min_count):
    """Cross ids from the definition: per pair, 1 + the rank of the key
    ``x_i * card_j + x_j`` among the sorted keys counted ``min_count``
    times in ``x_fit``, and ``OOV_ID`` for any other key."""
    out = np.full((len(x), len(pairs)), OOV_ID, dtype=np.int64)
    for p, (i, j) in enumerate(pairs):
        counts = Counter(int(a) * cards[j] + int(b)
                         for a, b in zip(x_fit[:, i], x_fit[:, j]))
        kept = sorted(key for key, count in counts.items()
                      if count >= min_count)
        rank = {key: r + 1 for r, key in enumerate(kept)}
        for row, (a, b) in enumerate(zip(x[:, i], x[:, j])):
            out[row, p] = rank.get(int(a) * cards[j] + int(b), OOV_ID)
    return out


class TestCrossIdsAgainstFormula:
    """The one-lookup transform against the per-pair definition."""

    @given(st.lists(st.integers(1, 40), min_size=2, max_size=5),
           st.sampled_from([0, 1, 1023, 1024, 1025, 2 * 1024 + 1]),
           st.sampled_from([1, 2, 5, 60, "all"]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_ids_equal_rank_among_kept_keys(self, cards, n, min_count, seed):
        rng = np.random.default_rng(seed)
        # Small fields repeat their pair keys, large ones rarely do, so a
        # middling min_count keeps some pairs and empties others.
        x_fit, x = (np.stack([rng.integers(0, card, n) for card in cards],
                             axis=1).reshape(n, len(cards))
                    for _ in range(2))
        if min_count == "all":  # every pair's vocabulary is empty
            min_count = n + 1
        schema = make_schema(cards)
        cross = CrossProductTransform(schema, min_count=min_count).fit(x_fit)
        for probe in (x_fit, x):
            expected = formula_ids(x_fit, probe, cards, schema.pairs(),
                                   min_count)
            np.testing.assert_array_equal(cross.transform(probe), expected)
        kept_sizes = [len(kept) + 1 for kept in cross._kept_keys]
        assert cross.cardinalities == kept_sizes

    def test_key_offsets_beyond_int64_rejected(self):
        # Huge cardinalities with tiny ids: the pair offsets sum to 2**63,
        # while nothing of that size is ever allocated.
        cards = [2 ** 31, 2 ** 32]
        x = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="int64"):
            CrossSketch(make_schema(cards).pairs(), cards)
        with pytest.raises(ValueError, match="int64"):
            CrossProductTransform(make_schema(cards)).fit(x)

    def test_key_offsets_just_below_int64_accepted(self):
        cards = [2 ** 31, 2 ** 32 - 1]  # one pair: 2**63 - 2**31 keys
        x = np.array([[0, 0], [cards[0] - 1, cards[1] - 1]], dtype=np.int64)
        cross = CrossProductTransform(make_schema(cards)).fit(x)
        np.testing.assert_array_equal(cross.transform(x), [[1], [2]])
        np.testing.assert_array_equal(
            cross.transform(np.array([[0, 1]])), [[OOV_ID]])


@pytest.mark.usefixtures("sorted_cross_keys")
class TestCrossSketchMemory:
    def test_held_entries_bounded_by_distinct_keys(self):
        # Small fields make every chunk repeat keys already counted; a
        # sketch that kept each chunk's run would hold ~50 runs.
        cards = [3, 4, 5, 6]
        schema = make_schema(cards)
        pairs = schema.pairs()
        rng = np.random.default_rng(7)
        sketch = CrossSketch(pairs, cards)
        assert len(sketch._runs) == len(pairs)  # the sorted-run path
        seen = set()
        for _ in range(50):
            chunk = np.stack([rng.integers(0, card, 40) for card in cards],
                             axis=1)
            sketch.update(chunk)
            seen |= {(p, int(a) * cards[j] + int(b))
                     for p, (i, j) in enumerate(pairs)
                     for a, b in zip(chunk[:, i], chunk[:, j])}
            held = sum(keys.size for runs in sketch._runs
                       for keys, _ in runs)
            assert held < 2 * len(seen) + chunk.shape[0] * len(pairs)
        assert sketch.kept(1).size == len(seen)


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
