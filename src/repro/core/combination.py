"""The combination block: differentiable method selection (paper §II-C2).

During the search stage each feature interaction's embedding is a weighted
sum of its three candidate embeddings (Eq. 18), with weights drawn by the
Gumbel-softmax relaxation (Eqs. 16-17) of the categorical architecture
choice.  The architecture parameters α are ordinary trainable parameters,
so Θ and α are optimised jointly by gradient descent (Algorithm 1).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import init
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, gumbel_combine, gumbel_softmax
from .architecture import METHOD_ORDER, Architecture


def sample_gumbel(shape: tuple, rng: np.random.Generator,
                  eps: float = 1e-20) -> np.ndarray:
    """Standard Gumbel(0, 1) noise: -log(-log(U)), U ~ Uniform(0,1)."""
    u = rng.random(shape)
    return -np.log(-np.log(u + eps) + eps)


class CombinationBlock(Module):
    """Holds α and produces per-pair method weights.

    α is stored as unconstrained logits θ (the paper's ``log α`` term in
    Eq. 16 plays the same role).  In training mode the weights are a fresh
    Gumbel-softmax sample per forward pass; in evaluation mode they are the
    noiseless softmax — and :meth:`derive_architecture` hard-decodes the
    argmax for the re-train stage (Eq. 19).
    """

    def __init__(self, num_pairs: int, temperature: float = 1.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.num_pairs = num_pairs
        self.temperature = temperature
        self._rng = rng or np.random.default_rng()
        # Zero logits = uniform prior over {memorize, factorize, naive}.
        self.alpha = Parameter(init.zeros((num_pairs, len(METHOD_ORDER))),
                               name="alpha")

    def set_temperature(self, temperature: float) -> None:
        """Anneal the Gumbel-softmax temperature (lower = harder choices)."""
        if temperature <= 0.0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = temperature

    def _noise(self, batch_size: Optional[int]) -> Optional[np.ndarray]:
        """Fresh Gumbel noise in training mode, ``None`` in evaluation."""
        if not self.training:
            return None
        shape = (self.alpha.shape if batch_size is None
                 else (batch_size,) + self.alpha.shape)
        return sample_gumbel(shape, self._rng)

    def method_weights(self, batch_size: Optional[int] = None) -> np.ndarray:
        """Per-pair selection weights, as :meth:`combine` mixes with them.

        Rows sum to one.  In training mode fresh Gumbel noise is drawn
        *per instance* when ``batch_size`` is given (shape ``[batch,
        num_pairs, 3]``), which averages the α gradient over
        ``batch_size`` independent relaxed samples per step; otherwise
        one shared sample is drawn (shape ``[num_pairs, 3]``).
        """
        return gumbel_softmax(self.alpha.data, self._noise(batch_size),
                              self.temperature)

    def probabilities(self) -> np.ndarray:
        """Noiseless selection probabilities (numpy, for inspection)."""
        return gumbel_softmax(self.alpha.data, None, self.temperature)

    def derive_architecture(self) -> Architecture:
        """Hard argmax decode of α (paper Eq. 19)."""
        return Architecture.from_alpha(self.alpha.data)

    def combine(self, e_memorized: Tensor, e_factorized: Tensor) -> Tensor:
        """Weighted sum over candidates (Eq. 18).

        ``e_memorized`` (``[n, num_pairs, d_mem]``) and ``e_factorized``
        (``[n, num_pairs, d_fac]``) may differ in width; the result is
        ``[n, num_pairs, max(d_mem, d_fac)]``, the narrower candidate
        counting as zero-padded.  The naïve candidate is the zero vector
        so it contributes nothing to the sum (but its weight still
        dilutes the other two, which is what lets the search discover
        that an interaction is best ignored).  Training mode draws fresh
        Gumbel noise per instance, exactly as :meth:`method_weights` with
        ``batch_size=n`` would.
        """
        noise = self._noise(e_memorized.shape[0])
        return gumbel_combine(self.alpha, noise, e_memorized, e_factorized,
                              self.temperature)
