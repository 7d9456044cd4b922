"""Vocabulary: frequency thresholding, OOV folding, per-field mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import OOV_ID, FieldVocabularies, Vocabulary


class TestVocabulary:
    def test_fit_assigns_dense_ids(self):
        vocab = Vocabulary().fit(["a", "b", "a", "c"])
        ids = {vocab.lookup(v) for v in "abc"}
        assert ids == {1, 2, 3}
        assert vocab.size == 4  # three values + OOV

    def test_min_count_folds_rare_values(self):
        vocab = Vocabulary(min_count=2).fit(["a", "a", "b"])
        assert vocab.lookup("a") != OOV_ID
        assert vocab.lookup("b") == OOV_ID

    def test_unseen_maps_to_oov(self):
        vocab = Vocabulary().fit(["x"])
        assert vocab.lookup("never-seen") == OOV_ID

    def test_frequent_values_get_smaller_ids(self):
        vocab = Vocabulary().fit(["a"] * 5 + ["b"] * 2 + ["c"] * 9)
        assert vocab.lookup("c") < vocab.lookup("a") < vocab.lookup("b")

    def test_transform_vectorised(self):
        vocab = Vocabulary().fit([1, 2, 1])
        out = vocab.transform([1, 2, 99])
        assert out.dtype == np.int64
        assert out[2] == OOV_ID
        assert out[0] == vocab.lookup(1)

    def test_double_fit_rejected(self):
        vocab = Vocabulary().fit(["a"])
        with pytest.raises(RuntimeError):
            vocab.fit(["b"])

    def test_transform_before_fit_rejected(self):
        with pytest.raises(RuntimeError):
            Vocabulary().transform(["a"])

    def test_invalid_min_count(self):
        with pytest.raises(ValueError):
            Vocabulary(min_count=0)

    def test_contains(self):
        vocab = Vocabulary().fit(["a"])
        assert "a" in vocab
        assert "b" not in vocab

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_ids_always_in_range(self, values):
        vocab = Vocabulary(min_count=2).fit(values)
        out = vocab.transform(values)
        assert (out >= 0).all()
        assert (out < vocab.size).all()

    @given(st.lists(st.integers(0, 10), min_size=1, max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_deterministic(self, values):
        a = Vocabulary(min_count=2).fit(values).transform(values)
        b = Vocabulary(min_count=2).fit(values).transform(values)
        np.testing.assert_array_equal(a, b)


class TestFieldVocabularies:
    def test_per_column_mapping(self):
        raw = np.array([[1, 9], [1, 8], [2, 9]])
        vocabs = FieldVocabularies().fit(raw)
        out = vocabs.transform(raw)
        assert out.shape == raw.shape
        assert len(vocabs.sizes) == 2

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            FieldVocabularies().fit(np.array([1, 2, 3]))

    def test_rejects_wrong_width(self):
        vocabs = FieldVocabularies().fit(np.array([[1, 2]]))
        with pytest.raises(ValueError):
            vocabs.transform(np.array([[1, 2, 3]]))

    def test_sizes_include_oov(self):
        raw = np.array([[1], [2], [3]])
        vocabs = FieldVocabularies().fit(raw)
        assert vocabs.sizes == [4]


class TestStreamingVocabulary:
    """The streamed vocabulary: ``CategoricalSketch`` counts chunks and
    ``Vocabulary.from_counts`` freezes them."""

    def test_matches_one_shot_fit(self):
        from repro.data import CategoricalSketch

        values = ["a", "b", "a", "c", "b", "a", "d"]
        sketch = CategoricalSketch()
        sketch.update(values[:3])
        sketch.update(values[3:])
        from_stream = sketch.finalize(min_count=2)
        one_shot = Vocabulary(min_count=2).fit(values)
        for v in "abcd":
            assert from_stream.lookup(v) == one_shot.lookup(v), v

    def test_counts_accumulate_across_chunks(self):
        from repro.data import CategoricalSketch

        sketch = CategoricalSketch()
        sketch.update(["x"])
        sketch.update(["x"])
        sketch.update(["x", "y"])
        vocab = sketch.finalize(min_count=3)
        assert vocab.lookup("x") != OOV_ID  # 3 occurrences across chunks
        assert vocab.lookup("y") == OOV_ID

    def test_invalid_min_count(self):
        from repro.data import CategoricalSketch

        with pytest.raises(ValueError):
            CategoricalSketch().update(["a"]).finalize(min_count=0)


class TestOOVEdgeCases:
    """Serving-path edge cases: None/NaN/empty values must fold to OOV
    and never change the output dtype (the embedding lookup is int64)."""

    def test_none_maps_to_oov(self):
        vocab = Vocabulary().fit(["a", "b"])
        out = vocab.transform([None, "a"])
        assert out.dtype == np.int64
        assert out[0] == OOV_ID
        assert out[1] == vocab.lookup("a")

    def test_nan_maps_to_oov(self):
        vocab = Vocabulary().fit(["a"])
        out = vocab.transform([float("nan")])
        assert out.dtype == np.int64
        assert out[0] == OOV_ID

    def test_empty_string_is_a_value_not_missing(self):
        # "" seen at fit time is an ordinary value; unseen "" is OOV.
        fitted = Vocabulary().fit(["", "", "a"])
        assert fitted.lookup("") != OOV_ID
        unfitted = Vocabulary().fit(["a"])
        assert unfitted.transform([""])[0] == OOV_ID

    def test_map_on_empty_iterable_keeps_int64(self):
        vocab = Vocabulary().fit(["a", "b"])
        out = vocab.transform([])
        assert out.dtype == np.int64
        assert out.shape == (0,)

    def test_map_on_empty_generator_keeps_int64(self):
        vocab = Vocabulary().fit(["a"])
        out = vocab.transform(v for v in ())
        assert out.dtype == np.int64
        assert len(out) == 0

    def test_none_in_fit_is_an_ordinary_value(self):
        vocab = Vocabulary().fit([None, None, "a"])
        assert vocab.lookup(None) != OOV_ID
        assert vocab.transform([None])[0] == vocab.lookup(None)
