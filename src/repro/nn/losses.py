"""Loss functions for CTR training.

The paper trains with the cross-entropy (log-loss) objective, Eq. 13.  We
implement the numerically stable *with-logits* form so the sigmoid and the
log never overflow, plus a plain probability-space variant for evaluation.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean binary cross-entropy computed directly from logits.

    Uses the standard stable identity
    ``BCE(z, y) = max(z, 0) - z*y + log(1 + exp(-|z|))`` which never
    exponentiates a large positive number.

    Parameters
    ----------
    logits:
        Tensor of raw scores, any shape.
    targets:
        Array of {0, 1} labels broadcastable to ``logits``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != logits.shape:
        targets = targets.reshape(logits.shape)
    z = logits
    relu_z = z.relu()
    # z == 0 takes the z < 0 branch in both terms, as relu's zero
    # derivative does; np.sign(0) == 0 would drop the softplus slope and
    # leave -y instead of sigmoid(0) - y.
    abs_z = z * Tensor(np.where(z.data > 0, 1.0, -1.0))
    softplus = (1.0 + (-abs_z).exp()).log()
    losses = relu_z - z * Tensor(targets) + softplus
    return losses.mean()


def binary_cross_entropy(probs: np.ndarray, targets: np.ndarray,
                         eps: float = 1e-12) -> float:
    """Log loss from predicted probabilities (the paper's reported metric)."""
    probs = np.clip(np.asarray(probs, dtype=np.float64), eps, 1.0 - eps)
    targets = np.asarray(targets, dtype=np.float64).reshape(probs.shape)
    return float(-np.mean(targets * np.log(probs) + (1.0 - targets) * np.log(1.0 - probs)))
