"""Sketch contracts: chunked updates ≡ one chunk, state round-trips, and
finalization ≡ the one-shot fit formulas."""

import numpy as np
import pytest

from repro.data import (
    CategoricalSketch,
    CrossSketch,
    LabelSketch,
    NumericSketch,
    Vocabulary,
    make_schema,
)
from repro.data.cross import CrossProductTransform
from repro.data.preprocessing import QuantileBucketizer
from repro.resilience import read_archive, write_archive


class TestCategoricalSketch:
    def test_finalize_equals_one_shot_fit(self):
        values = list("aabbbccccddddd") + ["rare"]
        chunks = [values[:5], values[5:11], values[11:]]
        sketch = CategoricalSketch()
        for chunk in chunks:
            sketch.update(chunk)
        streamed = sketch.finalize(min_count=2)
        direct = Vocabulary(min_count=2).fit(values)
        assert streamed._value_to_id == direct._value_to_id

    def test_state_round_trip(self):
        sketch = CategoricalSketch().update(["a", "b", "a", ""])
        arrays, meta = sketch.to_state()
        restored = CategoricalSketch.from_state(arrays, meta)
        assert restored.counts == sketch.counts


class TestNumericSketch:
    def test_finalize_matches_in_memory_objects(self):
        rng = np.random.default_rng(0)
        column = rng.choice([np.nan, -2.0, 0.0, 1.0, 1.5, 9.0], size=500,
                            p=[.15, .1, .3, .2, .15, .1])
        sketch = NumericSketch()
        for chunk in np.array_split(column, 7):
            sketch.update(chunk)
        fill, bucketizer, vocab = sketch.finalize(num_buckets=4)

        missing = np.isnan(column)
        expected_fill = float(np.median(column[~missing]))
        imputed = column.copy()
        imputed[missing] = expected_fill
        expected_bucketizer = QuantileBucketizer(num_buckets=4).fit(imputed)
        expected_vocab = Vocabulary().fit(
            expected_bucketizer.transform(imputed))

        assert fill == expected_fill
        assert np.array_equal(bucketizer._edges, expected_bucketizer._edges)
        assert vocab._value_to_id == expected_vocab._value_to_id

    def test_negative_zero_normalised(self):
        sketch = NumericSketch().update(np.array([-0.0, 0.0]))
        assert list(sketch.counts) == [0.0]
        assert sketch.counts[0.0] == 2

    def test_all_missing_column_zero_fills(self):
        sketch = NumericSketch().update(np.array([np.nan, np.nan]))
        fill, _, _ = sketch.finalize(num_buckets=3)
        assert fill == 0.0

    def test_empty_sketch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            NumericSketch().finalize(num_buckets=3)

    def test_state_round_trip_preserves_exact_counts(self):
        sketch = NumericSketch().update(
            np.array([1.5, 1.5, np.nan, -7.25, 1e-12]))
        arrays, meta = sketch.to_state()
        restored = NumericSketch.from_state(arrays, meta)
        assert restored.counts == sketch.counts
        assert restored.missing == sketch.missing


class TestLabelSketch:
    def test_mean_is_exact(self):
        labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0])
        sketch = LabelSketch()
        for chunk in np.array_split(labels, 3):
            sketch.update(chunk)
        assert sketch.mean() == float(np.mean(labels))

    def test_zero_labels_rejected(self):
        with pytest.raises(ValueError):
            LabelSketch().mean()


def random_ids(cardinalities, n, seed):
    rng = np.random.default_rng(seed)
    schema = make_schema(list(cardinalities))
    x = np.column_stack([rng.integers(0, card, size=n)
                         for card in cardinalities]).astype(np.int64)
    return schema, x


class TestCrossSketch:
    def test_finalize_equals_one_shot_fit(self):
        schema, x = random_ids([6, 4, 5], n=300, seed=1)
        cards = [6, 4, 5]
        direct = CrossProductTransform(schema, min_count=2)
        direct.fit(x, cards)

        sketch = CrossSketch(schema.pairs(), cards)
        for chunk in np.array_split(x, 5):
            sketch.update(chunk)
        streamed = sketch.finalize(schema, min_count=2)

        assert streamed.cardinalities == direct.cardinalities
        for mine, theirs in zip(streamed._kept_keys, direct._kept_keys):
            assert np.array_equal(mine, theirs)
        assert np.array_equal(streamed.transform(x), direct.transform(x))


class TestArchivePersistence:
    """Sketches survive the checksummed-archive checkpoint format."""

    def test_numeric_sketch_through_archive(self, tmp_path):
        sketch = NumericSketch().update(np.array([3.0, np.nan, -1.5, 3.0]))
        arrays, meta = sketch.to_state()
        path = write_archive(tmp_path / "sketch.npz", arrays,
                             {"numeric": meta})
        loaded_arrays, loaded_meta = read_archive(path)
        restored = NumericSketch.from_state(loaded_arrays,
                                            loaded_meta["numeric"])
        assert restored.counts == sketch.counts
        assert restored.missing == sketch.missing
