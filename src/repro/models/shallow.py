"""Shallow baselines: LR, Poly2, FM, FwFM, FmFM (paper Table III).

These models have no deep classifier; the logit is a closed-form function
of (first-order) feature weights and, depending on the model, memorized
cross weights (Poly2) or factorized pairwise terms (FM family).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Batch
from ..nn import functional as F
from ..nn import init
from ..nn.module import Parameter
from ..nn.tensor import Tensor, index_select
from .base import CrossEmbedding, CTRModel, FieldEmbedding, pair_index_arrays


class LogisticRegression(CTRModel):
    """LR: naïve method, shallow classifier — no feature interactions."""

    def __init__(self, cardinalities: Sequence[int],
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")

    def forward(self, batch: Batch) -> Tensor:
        # [n, M, 1] -> sum over fields -> [n]
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        return first_order + self.bias

    # LR's bias broadcasts [n] + [1] -> [n]; fine.


class Poly2(CTRModel):
    """Degree-2 polynomial LR: memorizes every cross as a scalar weight."""

    needs_cross = True

    def __init__(self, cardinalities: Sequence[int],
                 cross_cardinalities: Sequence[int],
                 rng: Optional[np.random.Generator] = None,
                 dense_grad: bool = False) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng,
                                      dense_grad=dense_grad)
        self.cross_weights = CrossEmbedding(cross_cardinalities, 1, rng=rng,
                                            dense_grad=dense_grad)
        self.bias = Parameter(init.zeros((1,)), name="bias")

    def forward(self, batch: Batch) -> Tensor:
        self._check_batch(batch)
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        second_order = self.cross_weights(batch.x_cross).sum(axis=(1, 2))
        return first_order + second_order + self.bias


class FactorizationMachine(CTRModel):
    """FM (Rendle, 2010): factorized second order, inner-product function.

    Uses the O(M d) identity
    ``sum_{i<j} <e_i, e_j> = 0.5 * (||sum_i e_i||^2 - sum_i ||e_i||^2)``.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.latent = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")

    def forward(self, batch: Batch) -> Tensor:
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        emb = self.latent(batch.x)  # [n, M, d]
        sum_emb = emb.sum(axis=1)  # [n, d]
        square_of_sum = sum_emb * sum_emb
        sum_of_square = (emb * emb).sum(axis=1)
        second_order = (square_of_sum - sum_of_square).sum(axis=1) * 0.5
        return first_order + second_order + self.bias


class FwFM(CTRModel):
    """Field-weighted FM (Pan et al., 2018): per-pair scalar weights."""

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.latent = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")
        self._idx_i, self._idx_j = pair_index_arrays(len(cardinalities))
        self.pair_weights = Parameter(
            init.uniform((len(self._idx_i),), rng, bound=0.1), name="pair_weights"
        )

    def forward(self, batch: Batch) -> Tensor:
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        emb = self.latent(batch.x)  # [n, M, d]
        inner = F.inner_products(emb, self._idx_i, self._idx_j)  # [n, P]
        weighted = (inner * self.pair_weights).sum(axis=-1)
        return first_order + weighted + self.bias


class FmFM(CTRModel):
    """Field-matrixed FM (Sun et al., 2021): a learned matrix per pair.

    The pairwise term is ``e_i W_(i,j) e_j^T`` (paper Table III), so each
    pair gets its own ``d x d`` interaction matrix.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embed_dim = embed_dim
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.latent = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")
        self._idx_i, self._idx_j = pair_index_arrays(len(cardinalities))
        num_pairs = len(self._idx_i)
        # Identity-ish start: each pair begins close to a plain inner product.
        matrices = np.tile(np.eye(embed_dim), (num_pairs, 1, 1))
        matrices += init.uniform((num_pairs, embed_dim, embed_dim), rng, bound=0.02)
        self.pair_matrices = Parameter(matrices, name="pair_matrices")

    def forward(self, batch: Batch) -> Tensor:
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        emb = self.latent(batch.x)
        n = emb.shape[0]
        num_pairs = len(self._idx_i)
        e_i = index_select(emb, self._idx_i, axis=1).reshape(
            n, num_pairs, 1, self.embed_dim)
        e_j = index_select(emb, self._idx_j, axis=1)
        projected = (e_i @ self.pair_matrices).reshape(n, num_pairs, self.embed_dim)
        inner = (projected * e_j).sum(axis=(1, 2))
        return first_order + inner + self.bias
