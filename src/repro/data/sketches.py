"""Exact, checkpointable accumulators: the one way a pipeline is fitted.

Fitting a :class:`~repro.data.loaders.CTRPipeline` needs four global
statistics: per-categorical-field value frequencies, the exact value
distribution of each continuous field (median imputation + quantile
bucket edges), the label mean, and per-pair cross-product key
frequencies.  Each has an **exact** streaming form — an accumulator that
is updated chunk by chunk, serialised into a checkpoint, and finalised
into the fitted objects.  ``CTRPipeline.fit`` on in-memory columns is
the one-chunk case of the streamed ingest fit:

* :class:`CategoricalSketch` — a frequency table; finalises through
  :meth:`Vocabulary.from_counts`, which is defined to equal a one-shot
  ``Vocabulary.fit`` on any ordering of the counted multiset.
* :class:`NumericSketch` — sorted distinct-value / count runs over the
  floats a CTR integer column takes, plus a missing-count.
  ``np.median`` / ``np.quantile`` depend only on the *multiset* of
  values, so reconstructing ``repeat(distinct, counts)`` and calling the
  numpy routines on it gives the median / bucket edges of the column.
* :class:`LabelSketch` — integer positive/total counts.  For binary 0/1
  labels, ``np.mean`` pairwise-sums exactly representable integers, so
  ``positives / total`` in float64 is the identical value.
* :class:`CrossSketch` — cross-key counts over encoded id chunks: one
  int64 count per key when the whole key space is small
  (:attr:`~repro.data.cross.PairKeys.dense`), else per-pair
  ``np.unique`` key runs compacted as they grow; finalises into a
  fitted :class:`~repro.data.cross.CrossProductTransform` whose kept
  keys equal ``np.unique`` + threshold on the concatenated stream.

Every sketch exposes ``update`` (one chunk); the field and label sketches
also expose ``merge`` (fold in another sketch) and ``to_state`` /
``from_state`` (plain arrays + JSON-able metadata).  The streamed
ingest of :mod:`repro.data.ingest` counts each chunk into fresh
sketches, checkpoints their state as that chunk's checksummed fit
archive and merges them into the running ones; a resumed ingest merges
the archives back in the same order.  The cross sketch is never
persisted: a resumed ingest replays its encoded chunk archives into a
fresh one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .cross import (_BLOCK_ROWS, CrossProductTransform, PairKeys,
                    _check_ids, _tuple_keys)
from .preprocessing import QuantileBucketizer
from .schema import Schema
from .vocabulary import Vocabulary

Arrays = Dict[str, np.ndarray]
Meta = Dict[str, object]


class CategoricalSketch:
    """Streaming value-frequency table for one categorical column."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def update(self, values: Iterable[str]) -> "CategoricalSketch":
        self.counts.update(values)
        return self

    def merge(self, other: "CategoricalSketch") -> "CategoricalSketch":
        """Add another sketch's counts (a chunk's) into this one."""
        self.counts.update(other.counts)
        return self

    def finalize(self, min_count: int = 1) -> Vocabulary:
        return Vocabulary.from_counts(self.counts, min_count=min_count)

    # -- checkpoint state ------------------------------------------------
    def to_state(self) -> Tuple[Arrays, Meta]:
        # Values are decoded CSV strings, hence JSON-safe; counts ride
        # alongside in a parallel list to keep duplicate-free ordering.
        items = sorted(self.counts.items())
        return ({}, {"values": [v for v, _ in items],
                     "counts": [int(c) for _, c in items]})

    @classmethod
    def from_state(cls, arrays: Arrays, meta: Meta) -> "CategoricalSketch":
        sketch = cls()
        sketch.counts = Counter(dict(zip(meta["values"], meta["counts"])))
        return sketch


class NumericSketch:
    """Exact distribution sketch for one continuous column.

    Finite values are counted per distinct float64 (``-0.0`` normalised
    to ``0.0``) in sorted ``(values, counts)`` runs, folded as
    :class:`CrossSketch` folds its runs, so a chunk costs its own size
    amortised however many distinct values came before; missing entries
    (empty field / NaN) only bump ``missing``.
    """

    def __init__(self) -> None:
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []
        self.missing = 0

    def update(self, values: np.ndarray) -> "NumericSketch":
        """Accumulate one chunk of parsed floats (NaN marks missing)."""
        values = np.asarray(values, dtype=np.float64)
        nan_mask = np.isnan(values)
        self.missing += int(nan_mask.sum())
        finite = values[~nan_mask] + 0.0  # normalise -0.0 -> 0.0
        if finite.size:
            _fold(self._runs, np.unique(finite, return_counts=True))
        return self

    def merge(self, other: "NumericSketch") -> "NumericSketch":
        """Fold another sketch's runs (a chunk's) into this one, as
        ``update`` folds a chunk's run."""
        self.missing += other.missing
        for run in other._runs:
            _fold(self._runs, run)
        return self

    def _merged(self) -> Tuple[np.ndarray, np.ndarray]:
        """The sorted distinct values and their counts, as one run."""
        if len(self._runs) > 1:
            self._runs[:] = [_merge(self._runs)]
        return (self._runs[0] if self._runs
                else (np.empty(0, dtype=np.float64),
                      np.empty(0, dtype=np.int64)))

    def finalize(self, num_buckets: int, vocab_min_count: int = 1
                 ) -> Tuple[float, QuantileBucketizer, Vocabulary]:
        """``(fill_value, bucketizer, code_vocabulary)`` — the fitted
        objects ``CTRPipeline`` encodes this column with.

        The column is rebuilt as a sorted multiset with its missing
        entries imputed by the median of the present ones (0.0 when none
        is present); median and quantile are order-invariant, so it
        stands in exactly for the original column.
        """
        if not self._runs and not self.missing:
            raise ValueError("cannot finalize an empty numeric sketch")
        present = np.repeat(*self._merged())
        fill = float(np.median(present)) if present.size else 0.0
        imputed = np.concatenate([present, np.full(self.missing, fill)])
        bucketizer = QuantileBucketizer(num_buckets=num_buckets).fit(imputed)
        codes = bucketizer.transform(imputed)
        vocabulary = Vocabulary(min_count=vocab_min_count).fit(codes)
        return fill, bucketizer, vocabulary

    # -- checkpoint state ------------------------------------------------
    def to_state(self) -> Tuple[Arrays, Meta]:
        values, counts = self._merged()
        return ({"values": values, "counts": counts},
                {"missing": int(self.missing)})

    @classmethod
    def from_state(cls, arrays: Arrays, meta: Meta) -> "NumericSketch":
        sketch = cls()
        sketch.missing = int(meta["missing"])
        values = np.asarray(arrays["values"], dtype=np.float64)
        if values.size:
            sketch._runs = [(values, np.asarray(arrays["counts"],
                                                dtype=np.int64))]
        return sketch


class LabelSketch:
    """Integer positive/total counts over a binary 0/1 label stream."""

    def __init__(self) -> None:
        self.total = 0
        self.positives = 0

    def update(self, labels: np.ndarray) -> "LabelSketch":
        labels = np.asarray(labels, dtype=np.float64)
        self.total += int(labels.size)
        self.positives += int(labels.sum())
        return self

    def merge(self, other: "LabelSketch") -> "LabelSketch":
        self.total += other.total
        self.positives += other.positives
        return self

    def mean(self) -> float:
        """Exactly ``np.mean`` of the 0/1 stream (integer sums are exact)."""
        if self.total == 0:
            raise ValueError("cannot take the mean of zero labels")
        return float(np.float64(self.positives) / np.float64(self.total))

    def to_state(self) -> Tuple[Arrays, Meta]:
        return {}, {"total": self.total, "positives": self.positives}

    @classmethod
    def from_state(cls, arrays: Arrays, meta: Meta) -> "LabelSketch":
        sketch = cls()
        sketch.total = int(meta["total"])
        sketch.positives = int(meta["positives"])
        return sketch


class CrossSketch:
    """Per-tuple cross-key counts over encoded id chunks (field pairs, or
    tuples of any one order).

    A dense key space (:attr:`PairKeys.dense`) is counted in one int64
    slot per offset key, added to in blocks of ``_BLOCK_ROWS`` rows.
    Otherwise ``update`` appends each tuple's
    ``np.unique(keys, return_counts=True)`` run.  A tuple's first run is
    its merged run; its later runs fold into it whenever they outgrow
    it, so the sketch holds fewer than twice the distinct keys plus one
    chunk, the merges cost linear work in total, and a one-chunk sketch
    merges nothing.
    """

    def __init__(self, pairs: Sequence[Tuple[int, ...]],
                 field_cards: Sequence[int]) -> None:
        self.pairs = list(pairs)
        self.field_cards = list(field_cards)
        self.pair_keys = PairKeys(self.pairs, self.field_cards)
        self._counts = (np.zeros(self.pair_keys.total, dtype=np.int64)
                        if self.pair_keys.dense else None)
        self._runs: List[List[Tuple[np.ndarray, np.ndarray]]] = (
            [] if self.pair_keys.dense else [[] for _ in self.pairs])

    def update(self, x: np.ndarray) -> "CrossSketch":
        """Count one chunk of ids, each in ``[0, card)`` of its field."""
        x = np.asarray(x)
        _check_ids(x, self.field_cards)
        if self._counts is not None:
            for start in range(0, x.shape[0], _BLOCK_ROWS):
                keys = self.pair_keys(x[start:start + _BLOCK_ROWS])
                np.add.at(self._counts, keys.ravel(), 1)
            return self
        for runs, fields in zip(self._runs, self.pairs):
            keys = _tuple_keys(x, fields, self.field_cards)
            _fold(runs, np.unique(keys, return_counts=True))
        return self

    def kept(self, min_count: int = 1) -> np.ndarray:
        """Every tuple's sorted keys counted at least ``min_count`` times,
        offset by the tuple's base into one sorted array."""
        if self._counts is not None:
            return np.flatnonzero(self._counts >= min_count)
        kept = [np.empty(0, dtype=np.int64)]
        for runs, base in zip(self._runs, self.pair_keys.bases):
            if runs:
                keys, counts = _merge(runs) if len(runs) > 1 else runs[0]
                kept.append(keys[counts >= min_count] + base)
        return np.concatenate(kept)

    def kept_keys(self, min_count: int = 1) -> List[np.ndarray]:
        """Per tuple, the sorted keys counted at least ``min_count`` times."""
        return self.pair_keys.split(self.kept(min_count))

    def finalize(self, schema: Schema,
                 min_count: int = 1) -> CrossProductTransform:
        """A fitted transform equal to ``fit`` on the concatenated ids."""
        return CrossProductTransform(schema,
                                     min_count=min_count).fit_sketch(self)


def _fold(runs: List[Tuple[np.ndarray, np.ndarray]],
          run: Tuple[np.ndarray, np.ndarray]) -> None:
    """Append a sorted ``(keys, counts)`` run; merge the runs into the
    first once the later ones outgrow it."""
    runs.append(run)
    if sum(k.size for k, _ in runs[1:]) > runs[0][0].size:
        runs[:] = [_merge(runs)]


def _merge(runs: List[Tuple[np.ndarray, np.ndarray]]
           ) -> Tuple[np.ndarray, np.ndarray]:
    """Sorted ``(keys, counts)`` runs as one.  A stable sort merges the
    concatenated sorted runs in close to linear time."""
    keys = np.concatenate([k for k, _ in runs])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    counts = np.concatenate([c for _, c in runs])[order]
    starts = np.ones(keys.size, dtype=bool)
    starts[1:] = keys[1:] != keys[:-1]
    first = np.flatnonzero(starts)
    return keys[first], np.add.reduceat(counts, first)
