"""Functional (stateless) operations on tensors.

The one implementation of each formula it holds (the layers, the model
zoo's pair interactions and the trainer's gradient clip call it), plus
utilities such as one-hot encoding and log-softmax.  All functions are
differentiable where that makes sense.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .tensor import Tensor, concatenate, index_select


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit, max(0, x) (paper Eq. 10)."""
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    """Numerically stable logistic function (paper Eq. 12)."""
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Shift-stabilised softmax along ``axis``."""
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """log(softmax(x)) computed via the log-sum-exp identity.

    More stable than composing ``softmax`` and ``log`` because the
    intermediate probabilities never underflow.
    """
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    log_norm = shifted.exp().sum(axis=axis, keepdims=True).log()
    return shifted - log_norm


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis (paper Eq. 11)."""
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * ((var + eps) ** -0.5) * gamma + beta


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight (+ bias)``."""
    out = x @ weight
    if bias is not None:
        out = out + bias
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout; identity when not training or p == 0."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(x.dtype) / keep
    return x * Tensor(mask)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Dense one-hot encoding (paper Eq. 1's input representation).

    Returns a float array of shape ``indices.shape + (num_classes,)``; this
    is a data utility, not a differentiable op.
    """
    indices = np.asarray(indices)
    if indices.size and (indices.min() < 0 or indices.max() >= num_classes):
        raise ValueError(
            f"indices must lie in [0, {num_classes}), got "
            f"[{indices.min()}, {indices.max()}]"
        )
    out = np.zeros(indices.shape + (num_classes,))
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def inner_products(emb: Tensor, idx_i: np.ndarray, idx_j: np.ndarray) -> Tensor:
    """Pairwise inner products ``<e_i, e_j>`` from ``[n, M, d]`` embeddings."""
    return hadamard_products(emb, idx_i, idx_j).sum(axis=-1)


def hadamard_products(emb: Tensor, idx_i: np.ndarray,
                      idx_j: np.ndarray) -> Tensor:
    """Pairwise Hadamard products (paper Eq. 14) from ``[n, M, d]``; the
    ``index_select`` gathers equal ``emb[:, idx, :]`` bit for bit."""
    return (index_select(emb, idx_i, axis=1)
            * index_select(emb, idx_j, axis=1))


def mean_pool(tensors: Sequence[Tensor]) -> Tensor:
    """Mean of equal-shape tensors (the paper's multivalent-field pooling)."""
    tensors = list(tensors)
    if not tensors:
        raise ValueError("mean_pool needs at least one tensor")
    total = tensors[0]
    for t in tensors[1:]:
        total = total + t
    return total * (1.0 / len(tensors))


def clip_by_global_norm(grads: Sequence[np.ndarray],
                        max_norm: float) -> list:
    """Scale gradients so their joint L2 norm is at most max_norm.

    Works for dense and :class:`~repro.nn.sparse.SparseGrad` gradients:
    ``g * g`` and scaling are row-local, and untouched sparse rows add
    exact zeros.  The sum's *grouping* differs from the dense path, so
    clipped runs agree across paths mathematically but not bitwise (see
    docs/performance.md).  A NaN norm scales nothing: a non-finite
    gradient stays confined to its own parameter.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = float(sum((g * g).sum() for g in grads))
    norm = np.sqrt(total)
    if not norm > max_norm:
        return list(grads)
    scale = max_norm / norm
    return [g * scale for g in grads]
