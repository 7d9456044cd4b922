"""Extended zoo: FFM and DCN.

FFM (field-aware factorization machines, Juan et al. 2016) is reference
[10] of the paper — a factorized method where each field keeps a separate
latent vector *per other field*, so the pair (i, j) interacts through
``<e_i^(j), e_j^(i)>``.

DCN (Deep & Cross Network, Wang et al. 2017) is a widely used deep CTR
baseline whose cross layers compute explicit bounded-degree feature
crosses: ``x_{l+1} = x_0 (x_l · w_l) + b_l + x_l``.  Both slot into the
paper's taxonomy as factorized methods with particular factorization
functions.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import Batch
from ..nn import functional as F
from ..nn import init
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, concatenate
from .base import CTRModel, FieldEmbedding, flatten_embeddings, pair_index_arrays


class FFM(CTRModel):
    """Field-aware FM: one latent vector per (feature, other-field) pair.

    The flat embedding table has width ``M * d``; reshaping to
    ``[n, M*M, d]`` gives each field a latent vector specialised for every
    other field (row ``owner*M + target``), exactly the FFM
    parameterisation (its table is M× larger than FM's, matching the
    original paper's memory profile).
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 4,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_fields = len(cardinalities)
        self.embed_dim = embed_dim
        self.weights = FieldEmbedding(cardinalities, 1, rng=rng)
        self.latent = FieldEmbedding(cardinalities,
                                     self.num_fields * embed_dim, rng=rng)
        self.bias = Parameter(init.zeros((1,)), name="bias")
        idx_i, idx_j = pair_index_arrays(self.num_fields)
        # e_i^(j): owner i's vector specialised for field j, and vice versa.
        self._i_for_j = idx_i * self.num_fields + idx_j
        self._j_for_i = idx_j * self.num_fields + idx_i

    def forward(self, batch: Batch) -> Tensor:
        n = batch.x.shape[0]
        first_order = self.weights(batch.x).sum(axis=(1, 2))
        # [n, M, M*d] -> [n, M (owner) * M (target), d]
        latent = self.latent(batch.x).reshape(
            n, self.num_fields * self.num_fields, self.embed_dim)
        second_order = F.hadamard_products(
            latent, self._i_for_j, self._j_for_i).sum(axis=(1, 2))
        return first_order + second_order + self.bias


class CrossNetwork(Module):
    """Stack of DCN cross layers over a flat input vector.

    Layer l computes ``x_{l+1} = x_0 * (x_l @ w_l) + b_l + x_l`` where the
    product against ``x_0`` creates one extra polynomial degree per layer.
    """

    def __init__(self, input_dim: int, num_layers: int = 2,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.num_layers = num_layers
        self.weights: List[Parameter] = []
        self.biases: List[Parameter] = []
        for layer in range(num_layers):
            w = Parameter(init.xavier_uniform((input_dim, 1), rng),
                          name=f"cross_w{layer}")
            b = Parameter(init.zeros((input_dim,)), name=f"cross_b{layer}")
            self._parameters[f"cross_w{layer}"] = w
            self._parameters[f"cross_b{layer}"] = b
            self.weights.append(w)
            self.biases.append(b)

    def forward(self, x0: Tensor) -> Tensor:
        x = x0
        for w, b in zip(self.weights, self.biases):
            projection = x @ w  # [n, 1]
            x = x0 * projection + b + x
        return x


class DCN(CTRModel):
    """Deep & Cross Network: cross branch + deep branch, joint head."""

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 cross_layers: int = 2, hidden_dims: Sequence[int] = (64, 64),
                 layer_norm: bool = True,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        flat_dim = len(cardinalities) * embed_dim
        self.cross = CrossNetwork(flat_dim, num_layers=cross_layers, rng=rng)
        self.deep = MLP(flat_dim, hidden_dims, output_dim=hidden_dims[-1],
                        layer_norm=layer_norm, rng=rng)
        from ..nn.layers import Linear

        self.head = Linear(flat_dim + hidden_dims[-1], 1, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        n = emb.shape[0]
        flat = flatten_embeddings(emb)
        crossed = self.cross(flat)
        deep = self.deep(flat)
        return self.head(concatenate([crossed, deep], axis=1)).reshape(n)
