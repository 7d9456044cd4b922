"""The OptInter model (paper §II-B, Figure 2).

Input layer → embedding layer → feature interaction layer (the combination
block) → deep classifier.  The model runs in one of two modes:

* **search mode** (``architecture=None``) — every interaction keeps all
  three candidate embeddings and the combination block mixes them with
  Gumbel-softmax weights; α is a trainable parameter (Algorithm 1).
* **fixed mode** (``architecture`` given) — each interaction uses exactly
  its assigned method.  Memorized embedding tables are allocated *only*
  for memorized pairs, which is where OptInter's parameter savings over
  OptInter-M come from (Tables V / VI); naïve pairs contribute nothing
  (their embedding is the zero vector, so dropping it from the classifier
  input is exactly equivalent and cheaper).

``OptInter-M`` / ``OptInter-F`` / plain FNN are the all-memorize /
all-factorize / all-naïve fixed architectures (paper §III-A3).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import Batch
from ..nn.layers import MLP
from ..nn.module import Module, Parameter
from ..nn.tensor import Tensor, concatenate, index_select
from ..models.base import (
    CrossEmbedding,
    CTRModel,
    FieldEmbedding,
    flatten_embeddings,
    pair_index_arrays,
)
from .architecture import Architecture, Method
from .combination import CombinationBlock

#: Supported factorization functions (paper §II-C1): Hadamard product ⊗
#: (the paper's representative choice), inner product, pointwise addition
#: ⊕, and the generalized product ⊠ (Hadamard followed by a learned
#: per-pair elementwise kernel).
FACTORIZATIONS = ("hadamard", "inner", "add", "generalized")


class OptInterModel(CTRModel):
    """OptInter CTR model, switchable between search and fixed mode."""

    needs_cross = True

    def __init__(
        self,
        cardinalities: Sequence[int],
        cross_cardinalities: Sequence[int],
        embed_dim: int = 8,
        cross_embed_dim: int = 4,
        hidden_dims: Sequence[int] = (64, 64),
        layer_norm: bool = True,
        architecture: Optional[Architecture] = None,
        temperature: float = 1.0,
        factorization: str = "hadamard",
        rng: Optional[np.random.Generator] = None,
        dense_grad: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if factorization not in FACTORIZATIONS:
            raise ValueError(
                f"unknown factorization {factorization!r}; "
                f"choose from {FACTORIZATIONS}"
            )
        num_fields = len(cardinalities)
        self._idx_i, self._idx_j = pair_index_arrays(num_fields)
        num_pairs = len(self._idx_i)
        if len(cross_cardinalities) != num_pairs:
            raise ValueError(
                f"expected {num_pairs} cross cardinalities, "
                f"got {len(cross_cardinalities)}"
            )
        if architecture is not None and architecture.num_pairs != num_pairs:
            raise ValueError(
                f"architecture covers {architecture.num_pairs} pairs, "
                f"model has {num_pairs}"
            )

        self.embed_dim = embed_dim
        self.cross_embed_dim = cross_embed_dim
        self.factorization = factorization
        self.architecture = architecture
        self.num_pairs = num_pairs
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng,
                                        dense_grad=dense_grad)
        self._fac_dim = 1 if factorization == "inner" else embed_dim

        if architecture is None:
            # Search mode: all candidates alive, mixed at a common width.
            self.cross_embedding = CrossEmbedding(cross_cardinalities,
                                                  cross_embed_dim, rng=rng,
                                                  dense_grad=dense_grad)
            self.combination = CombinationBlock(num_pairs,
                                                temperature=temperature,
                                                rng=rng)
            self._pad_dim = max(self._fac_dim, cross_embed_dim)
            interaction_dim = num_pairs * self._pad_dim
            self._mem_pairs: List[int] = list(range(num_pairs))
            self._fac_pairs: List[int] = list(range(num_pairs))
        else:
            self.combination = None
            self._mem_pairs = architecture.pairs_with(Method.MEMORIZE)
            self._fac_pairs = architecture.pairs_with(Method.FACTORIZE)
            self.cross_embedding = (
                CrossEmbedding(cross_cardinalities, cross_embed_dim,
                               pair_subset=self._mem_pairs, rng=rng,
                               dense_grad=dense_grad)
                if self._mem_pairs else None
            )
            interaction_dim = (len(self._mem_pairs) * cross_embed_dim
                               + len(self._fac_pairs) * self._fac_dim)

        if factorization == "generalized":
            # One learnable elementwise kernel per factorized pair; starts
            # at ones so it begins as a plain Hadamard product.
            self.generalized_kernel = Parameter(
                np.ones((len(self._fac_pairs), embed_dim)),
                name="generalized_kernel",
            ) if self._fac_pairs else None
        else:
            self.generalized_kernel = None

        self.mlp = MLP(num_fields * embed_dim + interaction_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    # ------------------------------------------------------------------
    # Candidate embeddings
    # ------------------------------------------------------------------
    def _factorized_embeddings(self, emb: Tensor,
                               pair_subset: Sequence[int]) -> Tensor:
        """Factorized candidate e^f per pair (Eq. 14 and its variants)."""
        idx_i = self._idx_i[np.asarray(pair_subset, dtype=np.int64)]
        idx_j = self._idx_j[np.asarray(pair_subset, dtype=np.int64)]
        # ``index_select`` (np.take) returns C order with no extra copy,
        # and its backward is one scatter-add over field positions.
        e_i = index_select(emb, idx_i, axis=1)
        e_j = index_select(emb, idx_j, axis=1)
        if self.factorization == "add":
            return e_i + e_j
        product = e_i * e_j
        if self.factorization == "inner":
            return product.sum(axis=-1, keepdims=True)
        if self.factorization == "generalized":
            # pair_subset always equals self._fac_pairs (both modes), so
            # the kernel rows line up with the product's pair axis.
            return product * self.generalized_kernel
        return product

    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> Tensor:
        self._check_batch(batch)
        emb = self.embedding(batch.x)  # [n, M, s1]
        n = emb.shape[0]
        parts: List[Tensor] = [flatten_embeddings(emb)]

        if self.architecture is None:
            e_mem = self.cross_embedding(batch.x_cross)  # [n, P, s2]
            e_fac = self._factorized_embeddings(emb, self._fac_pairs)
            combined = self.combination.combine(e_mem, e_fac)
            parts.append(combined.reshape(n, self.num_pairs * self._pad_dim))
        else:
            if self._mem_pairs:
                e_mem = self.cross_embedding(batch.x_cross)
                parts.append(e_mem.reshape(
                    n, len(self._mem_pairs) * self.cross_embed_dim))
            if self._fac_pairs:
                e_fac = self._factorized_embeddings(emb, self._fac_pairs)
                parts.append(e_fac.reshape(
                    n, len(self._fac_pairs) * self._fac_dim))

        features = parts[0] if len(parts) == 1 else concatenate(parts, axis=1)
        return self.mlp(features).reshape(n)

    # ------------------------------------------------------------------
    # Search-stage conveniences
    # ------------------------------------------------------------------
    @property
    def is_search_mode(self) -> bool:
        return self.architecture is None

    def derive_architecture(self) -> Architecture:
        """Hard decode the searched architecture (search mode only)."""
        if self.combination is None:
            raise RuntimeError("model is in fixed mode; nothing to derive")
        return self.combination.derive_architecture()

    def architecture_parameters(self) -> List:
        """The α parameters (empty list in fixed mode)."""
        if self.combination is None:
            return []
        return [self.combination.alpha]

    def network_parameters(self) -> List:
        """All parameters except α (Θ in the paper's notation)."""
        alpha_ids = {id(p) for p in self.architecture_parameters()}
        return [p for p in self.parameters() if id(p) not in alpha_ids]


# ----------------------------------------------------------------------
# Named instances from §III-A3
# ----------------------------------------------------------------------
def optinter_m(cardinalities: Sequence[int], cross_cardinalities: Sequence[int],
               **kwargs) -> OptInterModel:
    """OptInter-M: memorize every feature interaction."""
    num_fields = len(cardinalities)
    num_pairs = num_fields * (num_fields - 1) // 2
    return OptInterModel(cardinalities, cross_cardinalities,
                         architecture=Architecture.all_memorize(num_pairs),
                         **kwargs)


def optinter_f(cardinalities: Sequence[int], cross_cardinalities: Sequence[int],
               **kwargs) -> OptInterModel:
    """OptInter-F: factorize every feature interaction (Hadamard product)."""
    num_fields = len(cardinalities)
    num_pairs = num_fields * (num_fields - 1) // 2
    return OptInterModel(cardinalities, cross_cardinalities,
                         architecture=Architecture.all_factorize(num_pairs),
                         **kwargs)


def optinter_naive(cardinalities: Sequence[int],
                   cross_cardinalities: Sequence[int], **kwargs) -> OptInterModel:
    """All-naïve OptInter: equivalent to FNN on original features."""
    num_fields = len(cardinalities)
    num_pairs = num_fields * (num_fields - 1) // 2
    return OptInterModel(cardinalities, cross_cardinalities,
                         architecture=Architecture.all_naive(num_pairs),
                         **kwargs)
