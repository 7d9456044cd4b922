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
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .schema import Schema

OOV_ID = 0


def _pair_keys(x: np.ndarray, i: int, j: int, card_j: int) -> np.ndarray:
    """Encode value pairs as single integers: key = x_i * card_j + x_j."""
    return x[:, i].astype(np.int64) * np.int64(card_j) + x[:, j].astype(np.int64)


class CrossProductTransform:
    """Exact cross-product vocabulary for all second-order interactions."""

    def __init__(self, schema: Schema, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.schema = schema
        self.min_count = min_count
        self.pairs: List[Tuple[int, int]] = schema.pairs()
        self._kept_keys: List[np.ndarray] = []
        self._field_cards: Optional[List[int]] = None
        self._fitted = False

    def fit(self, x: np.ndarray, cardinalities: Optional[Sequence[int]] = None
            ) -> "CrossProductTransform":
        """Build per-pair vocabularies from the training id matrix ``x``:
        the one-chunk case of :meth:`fit_sketch`."""
        from .sketches import CrossSketch  # sketches builds on this module

        x = np.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.schema.num_fields:
            raise ValueError(
                f"expected [n, {self.schema.num_fields}] id matrix, got {x.shape}"
            )
        if cardinalities is None:
            cardinalities = self.schema.cardinalities
        for col, card in enumerate(cardinalities):
            column = x[:, col]
            if column.size and (column.min() < 0 or column.max() >= card):
                raise ValueError(
                    f"field {col} ids must be in [0, {card}); "
                    f"got min={column.min()}, max={column.max()}"
                )
        sketch = CrossSketch(self.pairs, cardinalities).update(x)
        return self.fit_sketch(sketch)

    def fit_sketch(self, sketch) -> "CrossProductTransform":
        """Freeze the per-pair vocabularies counted by a
        :class:`~repro.data.sketches.CrossSketch` — one chunk or many."""
        if sketch.pairs != self.pairs:
            raise ValueError("schema pair layout does not match the sketch")
        self._field_cards = list(sketch.field_cards)
        self._kept_keys = sketch.kept_keys(self.min_count)
        self._fitted = True
        return self

    def transform(self, x: np.ndarray, *,
                  assume_valid: bool = False) -> np.ndarray:
        """Map an id matrix to cross ids, shape ``[n, num_pairs]``.

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
        # Ids outside the fit-time cardinality would alias another pair's
        # key (key = x_i * card_j + x_j is only injective on the fitted
        # ranges), silently mapping to a *wrong* cross id — reject them.
        if not assume_valid:
            for col, card in enumerate(self._field_cards):
                column = x[:, col]
                if column.size and (column.min() < 0 or column.max() >= card):
                    raise ValueError(
                        f"field {col} ids must be in [0, {card}) as fitted; "
                        f"got min={column.min()}, max={column.max()}"
                    )
        out = np.empty((x.shape[0], len(self.pairs)), dtype=np.int64)
        for pair_idx, (i, j) in enumerate(self.pairs):
            kept = self._kept_keys[pair_idx]
            keys = _pair_keys(x, i, j, self._field_cards[j])
            if kept.size == 0:
                out[:, pair_idx] = OOV_ID
                continue
            pos = np.searchsorted(kept, keys)
            pos_clipped = np.minimum(pos, kept.size - 1)
            found = kept[pos_clipped] == keys
            out[:, pair_idx] = np.where(found, pos_clipped + 1, OOV_ID)
        return out

    def fit_transform(self, x: np.ndarray,
                      cardinalities: Optional[Sequence[int]] = None) -> np.ndarray:
        return self.fit(x, cardinalities).transform(x)

    @property
    def cardinalities(self) -> List[int]:
        """Cross vocabulary size per pair (incl. the OOV slot)."""
        if not self._fitted:
            raise RuntimeError("cardinalities requested before fit")
        return [kept.size + 1 for kept in self._kept_keys]

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
        for pair_idx, (i, j) in enumerate(self.pairs):
            keys = _pair_keys(x, i, j, self._field_cards[j])
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
