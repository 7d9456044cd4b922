"""Reverse-mode automatic differentiation on top of numpy.

This module is the substrate that replaces PyTorch in the original paper's
implementation.  A :class:`Tensor` wraps a ``numpy.ndarray`` and records the
operations applied to it in a dynamic computation graph; calling
:meth:`Tensor.backward` on a scalar result propagates gradients to every
tensor created with ``requires_grad=True``.

The op coverage is exactly what deep CTR models need: dense linear algebra,
elementwise nonlinearities, reductions, reshaping / concatenation, embedding
gathers and (Gumbel-)softmax.  Gradients for every op are validated against
central finite differences in ``tests/nn/test_autograd.py``.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .sparse import SparseGrad, scatter_add

ArrayLike = Union[np.ndarray, float, int, Sequence]

# Per-thread, like torch: a save/restore pair on a process-wide flag
# races once two threads score concurrently (both save, the later exit
# restores the earlier's "disabled"), permanently turning autograd off
# for everyone — including a training loop in another thread.
_grad_state = threading.local()


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self) -> "no_grad":
        self._prev = is_grad_enabled()
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc) -> None:
        _grad_state.enabled = self._prev


def is_grad_enabled() -> bool:
    """Return whether new operations are currently recorded in the graph."""
    return getattr(_grad_state, "enabled", True)


_rowwise_state = threading.local()


class rowwise_matmul:
    """Context manager forcing 2-D matmuls to be computed row by row.

    BLAS GEMM kernels pick different blocking (and therefore different
    floating-point summation orders) depending on the number of rows, so
    ``(A @ W)[i]`` is generally **not** bit-identical to ``A[i:i+1] @ W``.
    Under this context every ``[n, k] @ [k, m]`` product with ``n > 1``
    is computed as ``n`` independent ``[1, k] @ [k, m]`` calls — exactly
    the call a batch-of-one makes — so batched inference is bit-for-bit
    equal to scoring each row alone.  It is one BLAS call per row, looped
    in C: the rows go to numpy's matmul as a stack of ``[1, k]``
    matrices.  Stacked (3-D+) matmuls already compute each leading-axis
    slice independently and are left alone.

    The flag is thread-local: a serving worker scoring a coalesced batch
    does not perturb training running in another thread.  Intended for
    inference only (forward values change at the ULP level; gradients
    still flow through the standard backward path).
    """

    def __enter__(self) -> "rowwise_matmul":
        self._prev = getattr(_rowwise_state, "enabled", False)
        _rowwise_state.enabled = True
        return self

    def __exit__(self, *exc) -> None:
        _rowwise_state.enabled = self._prev


def is_rowwise_matmul() -> bool:
    """Whether 2-D matmuls are currently computed row by row."""
    return getattr(_rowwise_state, "enabled", False)


def _rowwise_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` with each row of ``a`` multiplied in its own BLAS call.

    The rows are stacked as ``[n, 1, k]`` matrices, so numpy's matmul
    gufunc loops over them in C and makes for each the ``[1, k] @ [k, m]``
    call a batch of one makes.
    """
    return np.matmul(a[:, None, :], b)[:, 0, :]


def _as_array(value: ArrayLike, dtype=np.float64) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _positions(data: np.ndarray) -> np.ndarray:
    """Each element's flat position in ``data``, laid out like ``data``.

    Indexing the result exactly as ``data`` was indexed yields the
    :func:`~repro.nn.sparse.scatter_add` bins of that gather's backward,
    whatever the index kind (basic, fancy, negative, boolean or mixed).
    """
    return np.arange(data.size).reshape(data.shape)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``.

    Numpy broadcasting may have expanded an operand; the adjoint of a
    broadcast is a sum over the expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _prev: Tuple["Tensor", ...] = (),
        name: str = "",
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._prev = _prev
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape {self.shape}"
            )
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        label = f", name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}{flag}{label})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: Union[np.ndarray, SparseGrad]) -> None:
        if isinstance(grad, SparseGrad):
            # Sparse + sparse coalesces; sparse + dense densifies.  Both
            # orders go through SparseGrad.__add__ so a plain ndarray
            # never sees the sparse operand.
            self.grad = grad if self.grad is None else grad + self.grad
        elif self.grad is None:
            self.grad = grad.copy() if grad.base is not None else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (so scalars need no argument, matching the
        usual loss.backward() call pattern).
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad)
            if grad.shape != self.data.shape:
                raise ValueError(
                    f"gradient shape {grad.shape} does not match tensor "
                    f"shape {self.data.shape}"
                )

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data**2), other.shape)
                )

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        if (self.data.ndim == 2 and other.data.ndim == 2
                and self.data.shape[0] > 1 and is_rowwise_matmul()):
            out_data = _rowwise_mm(self.data, other.data)
        else:
            out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    g = np.outer(grad, other.data) if grad.ndim == 1 else grad[..., None] * other.data
                else:
                    g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                if self.data.ndim == 1:
                    g = np.outer(self.data, grad) if grad.ndim == 1 else self.data[..., None] @ grad[..., None, :]
                else:
                    g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            expanded = out_data
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else tuple(axis)
                for ax in sorted(a % self.data.ndim for a in axes):
                    g = np.expand_dims(g, ax)
                    expanded = np.expand_dims(expanded, ax)
            mask = (self.data == expanded).astype(self.data.dtype)
            # Split ties evenly to keep the gradient a proper subgradient.
            mask /= mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * g)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        out_data = np.transpose(self.data, axes)
        if axes is None:
            inverse = None
        else:
            inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(np.transpose(grad, inverse))

        return Tensor._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]
        # Advanced indexing on a non-leading axis (e.g. ``emb[:, idx, :]``)
        # hands back a freshly-allocated but *transposed-layout* array, and
        # numpy's pairwise reductions block differently over strided
        # buffers depending on the leading extent — which would make
        # batched inference differ bitwise from single-row inference.
        # Restore C order for fresh copies; true views are left untouched.
        if (not out_data.flags.c_contiguous
                and not np.may_share_memory(out_data, self.data)):
            out_data = np.ascontiguousarray(out_data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(scatter_add(
                    self.data.shape, _positions(self.data)[index], grad))

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def relu(self) -> "Tensor":
        out_data = np.maximum(self.data, 0.0)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (self.data > 0))

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        # Numerically stable logistic.
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.clip(self.data, -500, None))),
            np.exp(np.clip(self.data, None, 500))
            / (1.0 + np.exp(np.clip(self.data, None, 500))),
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        out_data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                inside = (self.data >= low) & (self.data <= high)
                self._accumulate(grad * inside)

        return Tensor._make(out_data, (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        out_data = exp / exp.sum(axis=axis, keepdims=True)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                dot = (grad * out_data).sum(axis=axis, keepdims=True)
                self._accumulate(out_data * (grad - dot))

        return Tensor._make(out_data, (self,), backward)


# ----------------------------------------------------------------------
# Free functions building on Tensor
# ----------------------------------------------------------------------
def concatenate(tensors: Iterable[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("cannot concatenate an empty list of tensors")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * grad.ndim
                index[axis] = slice(start, stop)
                t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stacking along a new axis."""
    tensors = list(tensors)
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        slices = np.moveaxis(grad, axis, 0)
        for t, piece in zip(tensors, slices):
            if t.requires_grad:
                t._accumulate(piece)

    return Tensor._make(out_data, tuple(tensors), backward)


def _sparse_grad_eligible(table: Tensor, dense_grad: bool) -> bool:
    """Sparse row-gradients apply to 2-D *leaf* tables only.

    A non-leaf table (the output of some differentiable op) must keep a
    dense gradient because its own backward closure expects an ndarray.
    """
    return (not dense_grad and table.data.ndim == 2
            and table._backward is None and not table._prev)


def embedding_lookup(table: Tensor, indices: np.ndarray,
                     dense_grad: bool = False) -> Tensor:
    """Gather rows of ``table`` (shape ``[vocab, dim]``) at ``indices``.

    By default the backward pass produces a :class:`~repro.nn.sparse.SparseGrad`
    holding one coalesced value row per touched table row, so gradient
    memory and downstream optimizer cost are O(batch) instead of
    O(vocab).  ``dense_grad=True`` restores the historical behaviour —
    a full-table scatter-add — and is also used automatically
    when ``table`` is not a graph leaf.  Both paths accumulate duplicate
    indices identically (bit-for-bit; see ``tests/nn/test_sparse_dense_equivalence.py``).
    """
    indices = np.asarray(indices)
    # A gather is always a fresh array, but fancy indexing with transposed-
    # layout indices (advanced indexing on a non-leading axis upstream)
    # propagates that layout; force C order so downstream reductions are
    # independent of the batch extent (see ``rowwise_matmul``).
    out_data = np.ascontiguousarray(table.data[indices])
    sparse = _sparse_grad_eligible(table, dense_grad)

    def backward(grad: np.ndarray) -> None:
        if not table.requires_grad:
            return
        if sparse:
            table._accumulate(
                SparseGrad.from_rows(table.data.shape, indices, grad))
        else:
            # Row bins, not ``_positions(table.data)``: that would cost an
            # index array the size of the whole table.  ``%`` wraps
            # negative ids the way the gather did.
            vocab, dim = table.data.shape
            rows = indices % vocab
            table._accumulate(scatter_add(
                table.data.shape, rows[..., None] * dim + np.arange(dim), grad))

    return Tensor._make(out_data, (table,), backward)


def index_select(x: Tensor, indices: np.ndarray, axis: int = 0,
                 dense_grad: bool = False) -> Tensor:
    """Differentiable ``np.take``: select ``indices`` along ``axis``.

    For the common embedding-style case — ``axis=0`` on a 2-D leaf tensor
    with 1-D indices — the backward pass emits a
    :class:`~repro.nn.sparse.SparseGrad` exactly like
    :func:`embedding_lookup`; every other case scatter-adds into a dense
    gradient (duplicate indices accumulate in both paths).
    """
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"indices must be 1-D, got shape {indices.shape}")
    if indices.dtype.kind not in "iu":
        raise TypeError(f"indices must be integers, got dtype {indices.dtype}")
    axis = axis % x.data.ndim
    out_data = np.take(x.data, indices, axis=axis)
    sparse = axis == 0 and _sparse_grad_eligible(x, dense_grad)

    def backward(grad: np.ndarray) -> None:
        if not x.requires_grad:
            return
        if sparse:
            x._accumulate(SparseGrad.from_rows(x.data.shape, indices, grad))
            return
        bins = np.take(_positions(x.data), indices, axis=axis)
        x._accumulate(scatter_add(x.data.shape, bins, grad))

    return Tensor._make(out_data, (x,), backward)


def gumbel_softmax(alpha: np.ndarray, noise: Optional[np.ndarray],
                   tau: float) -> np.ndarray:
    """Gumbel-softmax weights ``softmax((alpha + noise) / tau)`` (Eqs. 16-17).

    ``alpha`` holds ``[P, 3]`` logits over (memorize, factorize, naive);
    ``noise`` is Gumbel samples broadcastable against it, or ``None`` for
    the noiseless probabilities.  The max and the sum over the three
    methods are taken column by column, in the order numpy's reduction
    over a length-3 axis adds them, without its per-row overhead: the
    weights equal ``Tensor.softmax`` of the same logits bit for bit.
    """
    logits = alpha if noise is None else alpha + noise
    scaled = logits * (1.0 / tau)
    shifted = scaled - np.maximum(np.maximum(scaled[..., 0], scaled[..., 1]),
                                  scaled[..., 2])[..., None]
    exp = np.exp(shifted)
    return exp / ((exp[..., 0] + exp[..., 1]) + exp[..., 2])[..., None]


def gumbel_combine(alpha: Tensor, noise: Optional[np.ndarray],
                   e_mem: Tensor, e_fac: Tensor, tau: float) -> Tensor:
    """Gumbel-softmax weighted sum of two candidates (paper Eqs. 16-18).

    ``alpha`` holds the ``[P, 3]`` logits over (memorize, factorize,
    naive).  With ``noise`` (Gumbel samples, ``[n, P, 3]``) every
    instance gets its own weights ``softmax((alpha + noise) / tau)``;
    with ``noise=None`` one noiseless ``[P, 3]`` softmax serves the
    batch.  ``e_mem`` (``[n, P, d_mem]``) and ``e_fac`` (``[n, P,
    d_fac]``) are the unpadded candidates.  The result is ``[n, P,
    max(d_mem, d_fac)]``, as if the narrower one were zero-padded; the
    naive candidate is the zero vector, so its weight only dilutes the
    other two.

    One forward and one backward stand in for the composed pad, noise,
    scale, softmax, slice, multiply and add ops, and reproduce them bit
    for bit: every sum adds the same terms in the order numpy's
    reduction would.
    """
    (n, pairs, d_mem), d_fac = e_mem.shape, e_fac.shape[-1]
    if e_fac.shape[:2] != (n, pairs) or alpha.shape != (pairs, 3):
        raise ValueError(
            f"gumbel_combine needs alpha [P, 3] and candidates [n, P, d], "
            f"got alpha {alpha.shape}, e_mem {e_mem.shape}, "
            f"e_fac {e_fac.shape}")
    if noise is not None and noise.shape != (n, pairs, 3):
        raise ValueError(
            f"noise must have shape {(n, pairs, 3)}, got {noise.shape}")
    width = max(d_mem, d_fac)
    weights = gumbel_softmax(alpha.data, noise, tau)
    batched = weights if noise is not None else weights[None]
    w_mem, w_fac = batched[..., 0:1], batched[..., 1:2]

    # The narrower candidate goes into zeros first, so each lane adds the
    # same two terms the padded sum did (x + 0.0 is not x when x is -0.0).
    (narrow, w_narrow), (wide, w_wide) = sorted(
        [(e_mem.data, w_mem), (e_fac.data, w_fac)],
        key=lambda pair: pair[0].shape[-1])
    out_data = np.zeros((n, pairs, width))
    out_data[..., :narrow.shape[-1]] = narrow * w_narrow
    out_data += wide * w_wide

    def backward(grad: np.ndarray) -> None:
        g_mem, g_fac = grad[..., :d_mem], grad[..., :d_fac]
        if e_mem.requires_grad:
            e_mem._accumulate(g_mem * w_mem)
        if e_fac.requires_grad:
            e_fac._accumulate(g_fac * w_fac)
        if not alpha.requires_grad:
            return
        d_weights = np.zeros(weights.shape)
        for column, e in enumerate((e_mem.data, e_fac.data)):
            # grad times the zero-padded candidate, summed over the width
            # (and over the batch for shared weights): the composed
            # multiply's own reduction, so the same bits.
            if e.shape[-1] < width:
                pad = np.zeros(e.shape[:-1] + (width - e.shape[-1],))
                e = np.concatenate([e, pad], axis=-1)
            d_w = (grad * e).sum(axis=-1)
            d_weights[..., column] = d_w if noise is not None else d_w.sum(0)
        # Softmax backward, its dot product summed column-wise as above.
        q = d_weights * weights
        dot = (q[..., 0] + q[..., 1]) + q[..., 2]
        d_logits = weights * (d_weights - dot[..., None]) * (1.0 / tau)
        alpha._accumulate(d_logits if noise is None
                          else d_logits.sum(axis=0))

    return Tensor._make(out_data, (alpha, e_mem, e_fac), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection; ``condition`` is a fixed boolean array."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    out_data = np.where(condition, a.data, b.data)

    def backward(grad: np.ndarray) -> None:
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(condition, grad, 0.0), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(condition, 0.0, grad), b.shape))

    return Tensor._make(out_data, (a, b), backward)
