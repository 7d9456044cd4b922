"""Sparse row-gradients for embedding tables.

CTR models gather a few hundred rows per mini-batch from embedding tables
holding millions of rows (the paper's Table II counts tens of millions of
cross values on Criteo/Avazu).  A dense backward pass materialises a
``[num_embeddings, dim]`` gradient per step, so the dominant training cost
scales with the *vocabulary*, not the batch.  :class:`SparseGrad` is the
fix: the adjoint of a row gather is stored as ``(indices, values)`` —
one value row per *touched* table row — so backward memory and optimizer
update cost are O(batch), independent of table size.

Semantics and bit-exactness
---------------------------

A ``SparseGrad`` is always **coalesced**: ``indices`` is strictly
increasing and duplicate lookups have been summed into one value row.
Coalescing goes through :func:`scatter_add` in occurrence order, which
performs exactly the additions the dense scatter-add performs for each
row — so ``sparse.to_dense()`` is bit-for-bit identical to the dense
gradient, and optimizers that consume the sparse form directly (see
:mod:`repro.nn.optim`) reproduce dense training exactly.

Scatter-add
-----------

Every gather backward in :mod:`repro.nn` (``Tensor.__getitem__``,
``embedding_lookup``, ``index_select`` and :meth:`SparseGrad.from_rows`)
reduces through :func:`scatter_add`, one ``np.bincount`` over flat
element positions.  ``bincount`` starts each bin at ``0.0`` and adds
that bin's weights one at a time in input order: the same float64
additions, in the same order, as ``np.add.at`` on a zero array, so the
results match it bit for bit (``tests/nn/test_scatter_add.py`` keeps
``np.add.at`` as the reference), at a fraction of the cost of numpy's
unbuffered ``ufunc.at`` path.

Rows whose coalesced value is entirely zero are dropped, which makes
"touched" mean *touched with a non-zero gradient* — the same set a dense
consumer would recover by scanning for non-zero rows (the detection
``SparseAdam`` already uses).

Interop
-------

``SparseGrad`` implements the small arithmetic surface the training stack
applies to gradients — scaling (gradient clipping), elementwise product
with itself (norm computation), addition (graph accumulation when a table
is gathered more than once) — plus ``__array__``, so any numpy function
outside the hot path (``np.isnan``, ``np.testing`` comparisons, ...)
falls back to a dense view transparently instead of failing.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

__all__ = ["SparseGrad", "scatter_add"]


def scatter_add(shape: Tuple[int, ...], bins: np.ndarray,
                values: np.ndarray) -> np.ndarray:
    """Sum ``values`` into a fresh float64 array of ``shape`` at flat ``bins``.

    Equivalent to ``out = np.zeros(shape); np.add.at(out.reshape(-1),
    bins, values)`` bit for bit (see the module doc): ``bins`` holds each
    value's flat destination in ``out`` and has the shape of ``values``;
    both are read in C order.  The substrate is float64-only, so the
    result always is float64, even when ``bins`` is empty (where
    ``np.bincount`` alone would return int64).  The result owns its
    memory (``base is None``), so ``Tensor._accumulate`` keeps it
    without a copy.
    """
    if bins.size == 0:
        return np.zeros(shape)
    out = np.bincount(bins.reshape(-1), weights=values.reshape(-1),
                      minlength=int(np.prod(shape)))
    out.shape = shape
    return out


class SparseGrad:
    """Coalesced per-row gradient of a 2-D table.

    ``shape``
        The dense table shape ``(num_rows, dim)``.
    ``indices``
        Strictly increasing ``int64`` row indices, shape ``[k]``.
    ``values``
        Per-row gradient values, shape ``[k, dim]``.
    """

    __slots__ = ("shape", "indices", "values")

    def __init__(self, shape: Tuple[int, int], indices: np.ndarray,
                 values: np.ndarray) -> None:
        if len(shape) != 2:
            raise ValueError(f"SparseGrad needs a 2-D table shape, got {shape}")
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if indices.ndim != 1 or values.ndim != 2:
            raise ValueError(
                f"expected 1-D indices and 2-D values, got shapes "
                f"{indices.shape} / {values.shape}")
        if indices.shape[0] != values.shape[0]:
            raise ValueError(
                f"{indices.shape[0]} indices but {values.shape[0]} value rows")
        if values.shape[1] != shape[1]:
            raise ValueError(
                f"value width {values.shape[1]} does not match table "
                f"width {shape[1]}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.indices = indices
        self.values = values

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, shape: Tuple[int, int], indices: np.ndarray,
                  values: np.ndarray) -> "SparseGrad":
        """Coalesce raw (possibly duplicated) row gradients.

        Duplicate indices are summed in occurrence order via
        :func:`scatter_add` — the same per-row addition sequence the dense
        scatter-add performs, so the result densifies bit-for-bit to the
        dense gradient.  All-zero rows are dropped (see module doc).
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        width = int(shape[1])
        # An explicit width (not -1) so an empty lookup reshapes too.
        values = np.asarray(values).reshape(indices.shape[0], width)
        unique, inverse = np.unique(indices, return_inverse=True)
        bins = inverse.reshape(-1, 1) * width + np.arange(width)
        summed = scatter_add((unique.size, width), bins, values)
        keep = np.any(summed != 0, axis=1)
        if not keep.all():
            unique = unique[keep]
            summed = summed[keep]
        return cls(shape, unique, summed)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of touched (non-zero) rows."""
        return int(self.indices.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the sparse representation (indices + values)."""
        return int(self.indices.nbytes + self.values.nbytes)

    @property
    def dense_nbytes(self) -> int:
        """Bytes the equivalent dense gradient would occupy."""
        return int(self.shape[0] * self.shape[1] * self.values.dtype.itemsize)

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``[num_rows, dim]`` gradient array."""
        dense = np.zeros(self.shape, dtype=self.values.dtype)
        dense[self.indices] = self.values
        return dense

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SparseGrad(shape={self.shape}, rows={self.num_rows}, "
                f"nbytes={self.nbytes})")

    # ------------------------------------------------------------------
    # Numpy interop — dense fallback for anything not handled explicitly
    # ------------------------------------------------------------------
    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = self.to_dense()
        return dense if dtype is None else dense.astype(dtype)

    def __getitem__(self, index):
        """Row access: integers resolve through the index list in O(log k);
        anything fancier goes through a dense view (test/debug paths)."""
        if isinstance(index, (int, np.integer)):
            pos = np.searchsorted(self.indices, index)
            if pos < self.num_rows and self.indices[pos] == index:
                return self.values[pos]
            return np.zeros(self.shape[1], dtype=self.values.dtype)
        return self.to_dense()[index]

    # ------------------------------------------------------------------
    # Arithmetic used on gradients by the training stack
    # ------------------------------------------------------------------
    def __add__(self, other: Union["SparseGrad", np.ndarray]) -> Union["SparseGrad", np.ndarray]:
        if isinstance(other, SparseGrad):
            if other.shape != self.shape:
                raise ValueError(
                    f"cannot add SparseGrads of shapes {self.shape} "
                    f"and {other.shape}")
            return SparseGrad.from_rows(
                self.shape,
                np.concatenate([self.indices, other.indices]),
                np.concatenate([self.values, other.values]),
            )
        # Dense + sparse: match the dense path's full-array addition.
        return self.to_dense() + np.asarray(other)

    __radd__ = __add__

    def __mul__(self, other) -> "SparseGrad":
        if isinstance(other, SparseGrad):
            # Only same-pattern products are meaningful (``g * g`` in the
            # global-norm computation).
            if (other.shape != self.shape
                    or not np.array_equal(other.indices, self.indices)):
                raise ValueError(
                    "SparseGrad * SparseGrad requires identical indices")
            return SparseGrad(self.shape, self.indices,
                              self.values * other.values)
        if np.ndim(other) != 0:
            raise TypeError(
                "SparseGrad only supports scalar or same-pattern products")
        return SparseGrad(self.shape, self.indices, self.values * other)

    __rmul__ = __mul__

    def __neg__(self) -> "SparseGrad":
        return SparseGrad(self.shape, self.indices, -self.values)

    def __abs__(self) -> "SparseGrad":
        return SparseGrad(self.shape, self.indices, np.abs(self.values))

    def sum(self, axis=None, keepdims: bool = False):
        """Sum over the *stored* values for the common ``axis=None`` case
        (zero rows contribute nothing); dense fallback otherwise."""
        if axis is None and not keepdims:
            return self.values.sum()
        return self.to_dense().sum(axis=axis, keepdims=keepdims)

    def copy(self) -> "SparseGrad":
        return SparseGrad(self.shape, self.indices.copy(), self.values.copy())
