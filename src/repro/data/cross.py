"""Cross-product transformation (paper Eq. 4).

For every field pair (i, j) the cross-product transformation assigns a new
categorical feature whose values are the observed combinations of the two
original values.  Combinations seen fewer than ``min_count`` times in the
training split — and any combination unseen at transform time — fold into a
reserved OOV id (0), exactly as the paper preprocesses Criteo/Avazu.

Two implementations are provided:

* :class:`CrossProductTransform` — exact vocabulary per pair (the paper's
  setup).  Parameter counts of memorized models follow directly from the
  sizes it reports.
* :class:`HashedCrossTransform` — the hashing-trick variant for memory-
  constrained deployments (an extension; collisions trade memory for AUC).

The exact vocabulary is one lookup for all pairs.  Pair ``p``'s keys are
offset by ``base[p]``, the sum of ``card_i * card_j`` over the pairs
before it, so every pair owns a disjoint key range.  Fitting concatenates
the kept keys of all pairs into one sorted array; a pair's id for a kept
key is its position within the pair's segment plus one.  How a transform
finds it depends on the size of the whole key space:

* at most ``_DENSE_KEYS`` keys (:attr:`PairKeys.dense`): an id table
  over the key space — the smallest unsigned dtype that holds the
  largest id, 0 for OOV — and one ``np.take`` of the pair-major
  ``[P, n]`` keys per block;
* above it: one ``np.searchsorted`` of the keys over the sorted array.
  A hit can only land in its own pair's segment.

The same holds for field tuples of any order (paper §II-B1's
higher-order extension): a triple ``(i, j, k)`` keys its values
mixed-radix, ``(x_i * card_j + x_j) * card_k + x_k``, and owns a range
of ``card_i * card_j * card_k`` keys.  Ids are positions in sorted key
order, which is the lexicographic order of the value tuples.
"""

from __future__ import annotations

from math import prod
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .schema import Schema

OOV_ID = 0

#: Rows per lookup block: bounds the ``[P, block]`` int64 temporaries
#: while a whole dataset is transformed.
_BLOCK_ROWS = 1024

#: Largest total key space counted and looked up in dense arrays: an
#: int64 count per key (at most 4 MiB) while a sketch fills, then an id
#: table of at most 4 bytes per key.  It holds the largest pair key
#: space of the bundled datasets (avazu at paper scale, 479,157 keys);
#: larger key spaces, every triple space among them, keep sorted runs
#: and ``searchsorted``.
_DENSE_KEYS = 1 << 19

#: Ends the concatenated vocabulary, so every ``searchsorted`` position
#: indexes it; no key reaches it, since every key is below the offset
#: total, which is below ``2**63``.
_SENTINEL = np.iinfo(np.int64).max


def _tuple_keys(x: np.ndarray, fields: Sequence[int],
                field_cards: Sequence[int]) -> np.ndarray:
    """Encode value tuples as single integers, mixed-radix over the
    fields' cardinalities: a pair keys ``x_i * card_j + x_j``."""
    keys = x[:, fields[0]].astype(np.int64)
    for field in fields[1:]:
        keys = keys * np.int64(field_cards[field]) + x[:, field].astype(np.int64)
    return keys


def _check_ids(x: np.ndarray, cards: Sequence[int], note: str = "") -> None:
    """Raise unless every column of ``x`` holds ids in ``[0, card)``: an
    id outside its field's range aliases another key."""
    if not x.size:
        return
    low, high = x.min(axis=0), x.max(axis=0)
    bad = np.flatnonzero((low < 0) | (high >= np.asarray(cards)))
    if bad.size:
        col = int(bad[0])
        raise ValueError(f"field {col} ids must be in [0, {cards[col]}){note}; "
                         f"got min={low[col]}, max={high[col]}")


class PairKeys:
    """Tuple-major ``[P, n]`` mixed-radix keys plus ``base[p]``: field
    tuple ``p`` owns the range ``[base[p], base[p] + prod of its cards)``;
    a pair keys ``x_i * card_j + x_j + base[p]``.  Tuples share one
    order.  ``dense`` is whether the ``total`` key space is small enough
    to hold one slot per key."""

    def __init__(self, pairs: Sequence[Tuple[int, ...]],
                 field_cards: Sequence[int]) -> None:
        bases, total = [], 0
        for fields in pairs:
            bases.append(total)
            total += prod(int(field_cards[f]) for f in fields)
        if total >= 2 ** 63:
            raise ValueError(f"cross keys need {total} values over all "
                             f"field tuples, more than int64 holds")
        self.bases = np.array(bases, dtype=np.int64)
        self.total = total
        self.dense = total <= _DENSE_KEYS
        order = len(pairs[0]) if pairs else 2
        # Row r: the r-th field of every tuple; then the radix of each
        # later position, shaped [order - 1, P, 1] to scale [P, n] keys.
        self._fields = np.array(pairs, dtype=np.intp).reshape(-1, order).T
        self._cards = np.array(field_cards,
                               dtype=np.int64)[self._fields[1:], None]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        columns = x.T.astype(np.int64, order="C")
        keys = columns[self._fields[0]]
        for fields, cards in zip(self._fields[1:], self._cards):
            keys *= cards
            keys += columns[fields]
        keys += self.bases[:, None]
        return keys

    def split(self, keys: np.ndarray) -> List[np.ndarray]:
        """Per tuple, its segment of the sorted ``keys`` without ``base``."""
        segments = np.split(keys, np.searchsorted(keys, self.bases[1:]))
        return [segment - base for segment, base in zip(segments, self.bases)]


class CrossProductTransform:
    """Exact cross-product vocabulary over field tuples: every pair of
    the schema by default, or the given ``tuples`` of one order (e.g.
    ``schema.pairs(3)`` for the third-order crosses)."""

    def __init__(self, schema: Schema, min_count: int = 1,
                 tuples: Optional[Sequence[Tuple[int, ...]]] = None) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.schema = schema
        self.min_count = min_count
        self.pairs: List[Tuple[int, ...]] = (
            schema.pairs() if tuples is None
            else [tuple(int(f) for f in t) for t in tuples])
        for t in self.pairs:
            if (len(t) < 2 or list(t) != sorted(set(t)) or t[0] < 0
                    or t[-1] >= schema.num_fields):
                raise ValueError(f"field tuple {t} must list two or more "
                                 f"distinct schema fields in ascending order")
        if len({len(t) for t in self.pairs}) > 1:
            raise ValueError("field tuples must all have the same order")
        self._field_cards: Optional[List[int]] = None
        self._fitted = False

    def fit(self, x: np.ndarray, cardinalities: Optional[Sequence[int]] = None
            ) -> "CrossProductTransform":
        """Build per-tuple vocabularies from the training id matrix ``x``
        (ids in ``[0, cardinality)``, the schema's by default): the
        one-chunk case of :meth:`fit_sketch`."""
        from .sketches import CrossSketch  # sketches builds on this module

        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.schema.num_fields:
            raise ValueError(
                f"expected [n, {self.schema.num_fields}] id matrix, got {x.shape}"
            )
        if cardinalities is None:
            cardinalities = self.schema.cardinalities
        sketch = CrossSketch(self.pairs, cardinalities).update(x)
        return self.fit_sketch(sketch)

    def fit_sketch(self, sketch) -> "CrossProductTransform":
        """Freeze the vocabularies counted by a
        :class:`~repro.data.sketches.CrossSketch` — one chunk or many —
        into one sorted array of offset keys, plus the id table over the
        key space when it is dense."""
        if sketch.pairs != self.pairs:
            raise ValueError("field tuple layout does not match the sketch")
        self._field_cards = list(sketch.field_cards)
        self._pair_keys = sketch.pair_keys
        self._keys = np.append(sketch.kept(self.min_count), _SENTINEL)
        self._starts = np.searchsorted(self._keys, self._pair_keys.bases)
        self._ids = None
        if self._pair_keys.dense:
            kept = self._keys[:-1]
            sizes = np.diff(self._starts, append=kept.size)
            ids = np.arange(1, kept.size + 1) - np.repeat(self._starts, sizes)
            self._ids = np.zeros(self._pair_keys.total, dtype=np.min_scalar_type(
                sizes.max(initial=0)))
            self._ids[kept] = ids
        self._fitted = True
        return self

    @property
    def _kept_keys(self) -> List[np.ndarray]:
        """Per tuple, its sorted kept keys (``x_i * card_j + x_j`` for a
        pair)."""
        return self._pair_keys.split(self._keys[:-1])

    def transform(self, x: np.ndarray, *,
                  assume_valid: bool = False) -> np.ndarray:
        """Map an id matrix to cross ids, shape ``[n, len(pairs)]``.

        ``assume_valid=True`` skips the per-column id-range scan — the
        fast path for callers that already guarantee every id lies in
        ``[0, cardinality)``, such as the serving path whose validator
        folds out-of-range ids to OOV before any batch is built.
        """
        if not self._fitted:
            raise RuntimeError("transform called before fit")
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.schema.num_fields:
            raise ValueError(
                f"expected [n, {self.schema.num_fields}] id matrix, got {x.shape}"
            )
        # Ids outside the fit-time cardinality would alias another
        # tuple's key (the mixed-radix key is only injective on the
        # fitted ranges), silently mapping to a *wrong* cross id.
        if not assume_valid:
            _check_ids(x, self._field_cards, " as fitted")
        out = np.empty((x.shape[0], len(self.pairs)), dtype=np.int64)
        for start in range(0, x.shape[0], _BLOCK_ROWS):
            keys = self._pair_keys(x[start:start + _BLOCK_ROWS])
            if self._ids is not None:
                # "clip": an unchecked out-of-range key aliases, never raises.
                ids = np.take(self._ids, keys, mode="clip")
            else:
                pos = np.searchsorted(self._keys, keys)
                ids = np.where(self._keys[pos] == keys,
                               pos - self._starts[:, None] + 1, OOV_ID)
            out[start:start + _BLOCK_ROWS] = ids.T
        return out

    def fit_transform(self, x: np.ndarray,
                      cardinalities: Optional[Sequence[int]] = None) -> np.ndarray:
        return self.fit(x, cardinalities).transform(x)

    @property
    def cardinalities(self) -> List[int]:
        """Cross vocabulary size per tuple (incl. the OOV slot)."""
        if not self._fitted:
            raise RuntimeError("cardinalities requested before fit")
        sizes = np.diff(self._starts, append=self._keys.size - 1)
        return [int(size) + 1 for size in sizes]

    @property
    def total_cross_values(self) -> int:
        """Total distinct cross values (the paper's ``#cross value`` stat)."""
        return sum(self.cardinalities)


class HashedCrossTransform:
    """Hashing-trick cross features: key -> (mixed hash) % num_buckets + 1.

    Bounds the memorized embedding table at a fixed ``num_buckets`` per pair
    at the cost of collisions.  Useful as the memory-constrained extension of
    the memorized method discussed alongside Figure 4.
    """

    def __init__(self, schema: Schema, num_buckets: int = 10_000) -> None:
        if num_buckets < 2:
            raise ValueError(f"num_buckets must be >= 2, got {num_buckets}")
        self.schema = schema
        self.num_buckets = num_buckets
        self.pairs = schema.pairs()
        self._field_cards: Optional[List[int]] = None

    def fit(self, x: np.ndarray, cardinalities: Optional[Sequence[int]] = None
            ) -> "HashedCrossTransform":
        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.schema.num_fields:
            raise ValueError(
                f"expected [n, {self.schema.num_fields}] id matrix, got {x.shape}"
            )
        if cardinalities is None:
            cardinalities = self.schema.cardinalities
        self._field_cards = list(cardinalities)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        if self._field_cards is None:
            raise RuntimeError("transform called before fit")
        x = np.asarray(x)
        out = np.empty((x.shape[0], len(self.pairs)), dtype=np.int64)
        for pair_idx, pair in enumerate(self.pairs):
            keys = _tuple_keys(x, pair, self._field_cards)
            # Fibonacci-style multiplicative mixing (in wrapping uint64
            # arithmetic) before the modulo keeps sequential keys from
            # landing in sequential buckets.
            mixed = keys.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            out[:, pair_idx] = (mixed % np.uint64(self.num_buckets)).astype(
                np.int64) + 1
        return out

    def fit_transform(self, x: np.ndarray,
                      cardinalities: Optional[Sequence[int]] = None) -> np.ndarray:
        return self.fit(x, cardinalities).transform(x)

    @property
    def cardinalities(self) -> List[int]:
        return [self.num_buckets + 1] * len(self.pairs)
