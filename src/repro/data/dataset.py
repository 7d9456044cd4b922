"""In-memory CTR dataset container: splits and mini-batch iteration.

A :class:`CTRDataset` holds the fully preprocessed id matrices (original
fields and, optionally, cross-product ids) plus labels.  Models consume
:class:`Batch` objects; nothing downstream touches raw values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .schema import Schema

if TYPE_CHECKING:
    from .cross import CrossProductTransform


@dataclass(frozen=True)
class Batch:
    """One mini-batch of preprocessed data.

    Attributes
    ----------
    x:
        Original-feature ids, shape ``[batch, M]``.
    x_cross:
        Cross-product ids, shape ``[batch, M(M-1)/2]`` — ``None`` for models
        that never memorize.
    y:
        Binary labels, shape ``[batch]``.
    x_triple:
        Optional higher-order cross ids, shape ``[batch, T]`` — only present
        when the dataset was built with the third-order extension.
    """

    x: np.ndarray
    x_cross: Optional[np.ndarray]
    y: np.ndarray
    x_triple: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class CTRDataset:
    """Preprocessed dataset with everything a model needs to size itself."""

    schema: Schema
    x: np.ndarray
    y: np.ndarray
    cardinalities: List[int]
    x_cross: Optional[np.ndarray] = None
    cross_cardinalities: Optional[List[int]] = None
    x_triple: Optional[np.ndarray] = None
    triple_cardinalities: Optional[List[int]] = None
    triples: Optional[List[Tuple[int, ...]]] = None
    #: The fitted transform that produced ``x_cross``, when known: it
    #: encodes new rows (serving) with exactly the training ids.
    cross_transform: Optional["CrossProductTransform"] = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=np.int64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {self.x.shape}")
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y row counts differ")
        if self.x.shape[1] != self.schema.num_fields:
            raise ValueError(
                f"x has {self.x.shape[1]} fields, schema has {self.schema.num_fields}"
            )
        if len(self.cardinalities) != self.schema.num_fields:
            raise ValueError("cardinalities length must equal num_fields")
        if self.x_cross is not None:
            self.x_cross = np.asarray(self.x_cross, dtype=np.int64)
            if self.x_cross.shape != (self.x.shape[0], self.schema.num_pairs):
                raise ValueError(
                    f"x_cross shape {self.x_cross.shape} does not match "
                    f"[{self.x.shape[0]}, {self.schema.num_pairs}]"
                )
            if self.cross_cardinalities is None:
                raise ValueError("x_cross given without cross_cardinalities")
            if len(self.cross_cardinalities) != self.schema.num_pairs:
                raise ValueError("cross_cardinalities length must equal num_pairs")
        if self.x_triple is not None:
            self.x_triple = np.asarray(self.x_triple, dtype=np.int64)
            if self.triples is None or self.triple_cardinalities is None:
                raise ValueError(
                    "x_triple given without triples / triple_cardinalities")
            if self.x_triple.shape != (self.x.shape[0], len(self.triples)):
                raise ValueError(
                    f"x_triple shape {self.x_triple.shape} does not match "
                    f"[{self.x.shape[0]}, {len(self.triples)}]")
            if len(self.triple_cardinalities) != len(self.triples):
                raise ValueError(
                    "triple_cardinalities length must equal len(triples)")

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def num_fields(self) -> int:
        return self.schema.num_fields

    @property
    def num_pairs(self) -> int:
        return self.schema.num_pairs

    @property
    def positive_ratio(self) -> float:
        return float(self.y.mean())

    def subset(self, indices: np.ndarray) -> "CTRDataset":
        """View of the dataset restricted to ``indices`` (shared metadata)."""
        indices = np.asarray(indices)
        return CTRDataset(
            schema=self.schema,
            x=self.x[indices],
            y=self.y[indices],
            cardinalities=self.cardinalities,
            x_cross=None if self.x_cross is None else self.x_cross[indices],
            cross_cardinalities=self.cross_cardinalities,
            x_triple=None if self.x_triple is None else self.x_triple[indices],
            triple_cardinalities=self.triple_cardinalities,
            triples=self.triples,
            cross_transform=self.cross_transform,
        )

    def split(
        self,
        fractions: Sequence[float] = (0.7, 0.1, 0.2),
        rng: Optional[np.random.Generator] = None,
        shuffle: bool = True,
    ) -> Tuple["CTRDataset", ...]:
        """Random train/validation/test split.

        The paper uses an 80/20 shuffled split with a validation carve-out;
        the default 70/10/20 mirrors that.  Fractions must sum to 1.
        """
        if abs(sum(fractions) - 1.0) > 1e-9:
            raise ValueError(f"fractions must sum to 1, got {fractions}")
        n = len(self)
        order = np.arange(n)
        if shuffle:
            rng = rng or np.random.default_rng()
            order = rng.permutation(n)
        bounds = np.cumsum([int(round(f * n)) for f in fractions[:-1]])
        parts = np.split(order, bounds)
        return tuple(self.subset(part) for part in parts)

    def iter_batches(
        self,
        batch_size: int,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
        drop_last: bool = False,
    ) -> Iterator[Batch]:
        """Yield :class:`Batch` objects of at most ``batch_size`` rows."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self)
        order = np.arange(n)
        if shuffle:
            rng = rng or np.random.default_rng()
            order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            if drop_last and idx.size < batch_size:
                break
            yield Batch(
                x=self.x[idx],
                x_cross=None if self.x_cross is None else self.x_cross[idx],
                y=self.y[idx],
                x_triple=None if self.x_triple is None else self.x_triple[idx],
            )

    def full_batch(self) -> Batch:
        """The whole dataset as a single batch (evaluation convenience)."""
        return Batch(x=self.x, x_cross=self.x_cross, y=self.y,
                     x_triple=self.x_triple)
