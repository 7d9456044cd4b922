"""Sketch contracts: chunked updates ≡ one chunk, state round-trips, and
finalization ≡ the one-shot fit formulas."""

import numpy as np
import pytest

from repro.data import (
    CategoricalSketch,
    ChunkedIngestor,
    CrossSketch,
    IngestConfig,
    LabelSketch,
    NumericSketch,
    Vocabulary,
    ingest,
    ingest_file,
    loaders,
    make_schema,
)
from repro.data.cross import CrossProductTransform
from repro.data.preprocessing import QuantileBucketizer
from repro.resilience import (CrashAtChunk, InjectedCrash, read_archive,
                              write_archive)


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
        arrays, _ = NumericSketch().update(np.array([-0.0, 0.0])).to_state()
        assert arrays["values"].tolist() == [0.0]
        assert not np.signbit(arrays["values"][0])
        assert arrays["counts"].tolist() == [2]

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
        assert arrays["values"].tolist() == [-7.25, 1e-12, 1.5]
        assert arrays["counts"].tolist() == [1, 1, 2]
        assert meta == {"missing": 1}
        restored_arrays, restored_meta = NumericSketch.from_state(
            arrays, meta).to_state()
        assert restored_arrays["values"].tobytes() == \
            arrays["values"].tobytes()
        assert restored_arrays["counts"].tobytes() == \
            arrays["counts"].tobytes()
        assert restored_meta == meta

    def test_chunked_counts_equal_one_chunk(self):
        rng = np.random.default_rng(3)
        column = rng.choice([np.nan, -0.0, 0.0, -2.5, 1.0, 3.0, 1e9],
                            size=400)
        streamed = NumericSketch()
        for chunk in np.array_split(column, 9):
            streamed.update(chunk)
        values, counts = np.unique(column[~np.isnan(column)] + 0.0,
                                   return_counts=True)
        arrays, meta = streamed.to_state()
        assert np.array_equal(arrays["values"], values)
        assert np.array_equal(arrays["counts"], counts)
        assert arrays["counts"].dtype == np.int64
        assert meta["missing"] == int(np.isnan(column).sum())

    def test_state_after_each_chunk_of_many_distinct_values(self):
        # Unmerged runs pile up between checkpoints; each state must
        # still count the whole prefix exactly.
        rng = np.random.default_rng(5)
        chunks = [rng.integers(0, 10 ** 6, size=size).astype(np.float64)
                  for size in (5, 300, 40, 40, 40, 1, 700, 2, 2, 90)]
        streamed = NumericSketch()
        for seen, chunk in enumerate(chunks, start=1):
            streamed.update(chunk)
            if seen % 3:
                continue
            values, counts = np.unique(np.concatenate(chunks[:seen]),
                                       return_counts=True)
            arrays, _ = streamed.to_state()
            assert np.array_equal(arrays["values"], values)
            assert np.array_equal(arrays["counts"], counts)
        restored = NumericSketch.from_state(*streamed.to_state())
        everything = np.concatenate(chunks)
        for sketch in (streamed, restored):
            fill, _, _ = sketch.finalize(num_buckets=4)
            assert fill == float(np.median(everything))


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
        restored_arrays, restored_meta = restored.to_state()
        assert restored_arrays["values"].tolist() == [-1.5, 3.0]
        assert restored_arrays["counts"].tolist() == [1, 2]
        assert restored_meta == meta == {"missing": 1}


class DictNumericSketch:
    """The dict-backed numeric sketch that wrote stage-1 archives before
    the sketch kept sorted arrays (its update and checkpoint state, plus
    the merge the ingest folds each chunk's sketch in with)."""

    def __init__(self):
        self.counts = {}
        self.missing = 0

    def update(self, values):
        values = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(values)
        self.missing += int(nan_mask.sum())
        finite = values[~nan_mask] + 0.0
        if finite.size:
            unique, counts = np.unique(finite, return_counts=True)
            for value, count in zip(unique, counts):
                key = float(value)
                self.counts[key] = self.counts.get(key, 0) + int(count)
        return self

    def merge(self, other):
        self.missing += other.missing
        for value, count in other.counts.items():
            self.counts[value] = self.counts.get(value, 0) + count
        return self

    def to_state(self):
        values = np.array(sorted(self.counts), dtype=np.float64)
        counts = np.array([self.counts[v] for v in values], dtype=np.int64)
        return ({"values": values, "counts": counts},
                {"missing": int(self.missing)})


class TestStage1ArchiveFormat:
    def test_dict_sketch_archive_resumes_to_the_same_dataset(
            self, tmp_path, monkeypatch):
        """Every per-chunk fit archive written before the crash has the
        same bytes under both sketches, and resuming from them gives the
        uninterrupted dataset."""
        rng = np.random.default_rng(5)
        rows = [f"{rng.integers(0, 2)},"
                f"{rng.choice(['', '-0', '0', '1.5', '-3', '7', 'nan'])},"
                f"{rng.integers(-5, 40)},c{rng.integers(0, 6)}"
                for _ in range(300)]
        path = tmp_path / "log.csv"
        path.write_text("label,I1,I2,C1\n" + "\n".join(rows) + "\n")
        kw = dict(categorical=["C1"], continuous=["I1", "I2"], chunk_rows=32)
        reference = ingest_file(path, IngestConfig(**kw)).dataset

        def crash(workdir):
            with pytest.raises(InjectedCrash):
                ChunkedIngestor(path, IngestConfig(workdir=workdir, **kw),
                                on_chunk=CrashAtChunk(at_chunk=4,
                                                      stage="fit")).run()
            return {path.name: path.read_bytes()
                    for path in workdir.glob("stage1-*.npz")}

        with monkeypatch.context() as patch:
            patch.setattr(loaders, "NumericSketch", DictNumericSketch)
            patch.setattr(ingest, "NumericSketch", DictNumericSketch)
            old_archives = crash(tmp_path / "old")
        assert sorted(old_archives) == [f"stage1-{index:06d}.npz"
                                        for index in range(4)]
        assert crash(tmp_path / "new") == old_archives

        resumed = ingest_file(path, IngestConfig(
            workdir=tmp_path / "old", resume=True, **kw))
        assert resumed.report.chunks_resumed == 4
        for key in ("x", "y", "x_cross"):
            assert getattr(resumed.dataset, key).tobytes() == \
                getattr(reference, key).tobytes()
