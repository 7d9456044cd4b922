"""Deep baselines: FNN, IPNN, OPNN, DeepFM, PIN, Wide&Deep (Table III).

Each model follows the paper's taxonomy: a feature interaction layer
(naïve / memorized / factorized with some factorization function) followed
by the deep classifier of Eq. 9 (ReLU + LayerNorm MLP ending in one logit).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..data.dataset import Batch
from ..nn import functional as F
from ..nn import init
from ..nn.layers import MLP
from ..nn.module import Parameter
from ..nn.tensor import Tensor, concatenate, index_select
from .base import (
    CrossEmbedding,
    CTRModel,
    FieldEmbedding,
    flatten_embeddings,
    pair_index_arrays,
)


class FNN(CTRModel):
    """Naïve method with a deep classifier (Zhang et al., 2016).

    Original-feature embeddings feed the MLP directly; any interaction
    modelling is left to the network.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.mlp = MLP(len(cardinalities) * embed_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        return self.mlp(flatten_embeddings(emb)).reshape(emb.shape[0])


class IPNN(CTRModel):
    """Inner-product PNN (Qu et al., 2016): factorized, inner product."""

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self._idx_i, self._idx_j = pair_index_arrays(len(cardinalities))
        input_dim = len(cardinalities) * embed_dim + len(self._idx_i)
        self.mlp = MLP(input_dim, hidden_dims, layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        inner = F.inner_products(emb, self._idx_i, self._idx_j)
        features = concatenate([flatten_embeddings(emb), inner], axis=1)
        return self.mlp(features).reshape(emb.shape[0])


class OPNN(CTRModel):
    """Outer-product PNN (Qu et al., 2016) with sum pooling.

    Uses the standard OPNN trick: the pooled sum of all pairwise outer
    products equals the outer product of the pooled embedding with itself,
    reducing the quadratic blow-up to one ``d x d`` map per instance.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embed_dim = embed_dim
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        input_dim = len(cardinalities) * embed_dim + embed_dim * embed_dim
        self.mlp = MLP(input_dim, hidden_dims, layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        n = emb.shape[0]
        pooled = emb.sum(axis=1)  # [n, d]
        outer = pooled.reshape(n, self.embed_dim, 1) * pooled.reshape(
            n, 1, self.embed_dim
        )
        features = concatenate(
            [flatten_embeddings(emb), outer.reshape(n, self.embed_dim**2)], axis=1
        )
        return self.mlp(features).reshape(n)


class DeepFM(CTRModel):
    """DeepFM (Guo et al., 2017): FM component + deep component, shared
    embeddings; the final logit is the sum of both parts."""

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.latent = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")
        self.mlp = MLP(len(cardinalities) * embed_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.latent(batch.x)
        n = emb.shape[0]
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        sum_emb = emb.sum(axis=1)
        fm_term = ((sum_emb * sum_emb) - (emb * emb).sum(axis=1)).sum(axis=1) * 0.5
        deep_term = self.mlp(flatten_embeddings(emb)).reshape(n)
        return first_order + fm_term + deep_term + self.bias


class PIN(CTRModel):
    """Product-network-In-Network (Qu et al., 2019).

    Each field pair runs through its own micro network over
    ``[e_i, e_j, e_i ⊙ e_j]``; the pooled sub-network outputs join the raw
    embeddings as MLP input.  Per-pair weights are stored as stacked
    tensors so one broadcasted matmul evaluates all pairs at once.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64),
                 subnet_hidden: int = 16, subnet_out: int = 4,
                 layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embed_dim = embed_dim
        self.subnet_out = subnet_out
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self._idx_i, self._idx_j = pair_index_arrays(len(cardinalities))
        num_pairs = len(self._idx_i)
        in_dim = 3 * embed_dim
        self.w1 = Parameter(
            init.xavier_uniform((num_pairs, in_dim, subnet_hidden), rng), name="w1"
        )
        self.b1 = Parameter(init.zeros((num_pairs, 1, subnet_hidden)), name="b1")
        self.w2 = Parameter(
            init.xavier_uniform((num_pairs, subnet_hidden, subnet_out), rng),
            name="w2",
        )
        self.b2 = Parameter(init.zeros((num_pairs, 1, subnet_out)), name="b2")
        input_dim = len(cardinalities) * embed_dim + num_pairs * subnet_out
        self.mlp = MLP(input_dim, hidden_dims, layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        n = emb.shape[0]
        num_pairs = len(self._idx_i)
        e_i = index_select(emb, self._idx_i, axis=1)
        e_j = index_select(emb, self._idx_j, axis=1)
        z = concatenate([e_i, e_j, e_i * e_j], axis=-1)  # [n, P, 3d]
        z = z.reshape(n, num_pairs, 1, 3 * self.embed_dim)
        hidden = ((z @ self.w1) + self.b1).relu()  # [n, P, 1, h]
        out = (hidden @ self.w2) + self.b2  # [n, P, 1, o]
        pooled = out.reshape(n, num_pairs * self.subnet_out)
        features = concatenate([flatten_embeddings(emb), pooled], axis=1)
        return self.mlp(features).reshape(n)


class WideDeep(CTRModel):
    """Wide&Deep (Cheng et al., 2016): memorized wide part + deep part.

    The wide component is a linear model over original features and
    cross-product transformed features (the paper's canonical memorized
    method); the deep component is an MLP over the embeddings.  By default
    every pair enters the wide part — pass ``wide_pairs`` to reproduce the
    hand-picked subsets used in production deployments.
    """

    needs_cross = True

    def __init__(self, cardinalities: Sequence[int],
                 cross_cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 wide_pairs: Optional[Sequence[int]] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.cross_weights = CrossEmbedding(cross_cardinalities, 1,
                                            pair_subset=wide_pairs, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self.mlp = MLP(len(cardinalities) * embed_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        self._check_batch(batch)
        emb = self.embedding(batch.x)
        n = emb.shape[0]
        wide = (self.weights(batch.x).sum(axis=(1, 2))
                + self.cross_weights(batch.x_cross).sum(axis=(1, 2)))
        deep = self.mlp(flatten_embeddings(emb)).reshape(n)
        return wide + deep + self.bias
