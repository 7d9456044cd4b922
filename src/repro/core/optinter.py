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

Interaction order is a property of the data: given field triples (and
the dataset's ``x_triple``), the model searches or fixes them exactly as
it does pairs, as a second group with its own α (paper §II-B1).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Batch
from ..nn.layers import MLP
from ..nn.module import Parameter
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


class _Group:
    """One interaction order: its field tuples, the method assigned to
    each (``architecture``, ``None`` while searching) and the modules
    that realise them.  ``ids`` names the :class:`Batch` attribute that
    holds the group's cross ids."""

    def __init__(self, fields: Sequence[np.ndarray],
                 architecture: Optional[Architecture], ids: str) -> None:
        self.fields = fields  # one field-index array per tuple position
        self.size = len(fields[0])
        self.architecture = architecture
        self.ids = ids
        if architecture is None:
            self.mem: List[int] = list(range(self.size))
            self.fac: List[int] = list(range(self.size))
        else:
            self.mem = architecture.pairs_with(Method.MEMORIZE)
            self.fac = architecture.pairs_with(Method.FACTORIZE)
        self.cross: Optional[CrossEmbedding] = None
        self.combination: Optional[CombinationBlock] = None
        self.kernel: Optional[Parameter] = None


class OptInterModel(CTRModel):
    """OptInter CTR model, switchable between search and fixed mode.

    The pairs are always modelled.  ``triples`` (field-index triples, as
    ``make_dataset(..., with_triples=True)`` lists them), their cross
    vocabulary sizes and ``triple_architecture`` add a second group of
    interactions with the same three candidates (paper §II-B1's
    higher-order extension): a memorized embedding over the triple's
    cross ids (``batch.x_triple``), the factorization chained over its
    three field embeddings, or the naïve zero vector.  Both groups are
    in the same mode, and each has its own α in search mode.  The pairs'
    modules are ``cross_embedding`` / ``combination`` /
    ``generalized_kernel``, the triples' ``triple_cross`` /
    ``triple_combination`` / ``triple_generalized_kernel``.
    """

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
        triples: Optional[Sequence[Tuple[int, int, int]]] = None,
        triple_cardinalities: Optional[Sequence[int]] = None,
        triple_architecture: Optional[Architecture] = None,
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
        self._groups = [_Group((self._idx_i, self._idx_j), architecture,
                               "x_cross")]
        self.triples = [tuple(t) for t in triples or ()]
        if self.triples:
            if (architecture is None) != (triple_architecture is None):
                raise ValueError(
                    "pair and triple architectures must both be given "
                    "(fixed mode) or both be None (search mode)")
            if len(triple_cardinalities or ()) != len(self.triples):
                raise ValueError("one triple cardinality per triple required")
            self._groups.append(_Group(
                np.array(self.triples, dtype=np.int64).T,
                triple_architecture, "x_triple"))
        elif triple_architecture is not None:
            raise ValueError("triple_architecture given without triples")
        for group in self._groups:
            if (group.architecture is not None
                    and group.architecture.num_pairs != group.size):
                raise ValueError(
                    f"architecture covers {group.architecture.num_pairs} "
                    f"interactions, model has {group.size}"
                )

        self.embed_dim = embed_dim
        self.cross_embed_dim = cross_embed_dim
        self.factorization = factorization
        self.architecture = architecture
        self.triple_architecture = triple_architecture
        self.num_pairs = num_pairs
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng,
                                        dense_grad=dense_grad)
        self._fac_dim = 1 if factorization == "inner" else embed_dim
        # Search mode mixes all candidates at a common width.
        self._pad_dim = max(self._fac_dim, cross_embed_dim)

        # Draw order: every group's memorized table, then the MLP.
        for group, cards in zip(self._groups, (cross_cardinalities,
                                               triple_cardinalities)):
            if group.architecture is None or group.mem:
                group.cross = CrossEmbedding(cards, cross_embed_dim,
                                             pair_subset=group.mem, rng=rng,
                                             dense_grad=dense_grad)
            if group.architecture is None:
                group.combination = CombinationBlock(
                    group.size, temperature=temperature, rng=rng)
            if factorization == "generalized" and group.fac:
                # One learnable elementwise kernel per factorized
                # interaction; starts at ones, a plain Hadamard product.
                group.kernel = Parameter(
                    np.ones((len(group.fac), embed_dim)),
                    name="generalized_kernel")
        pairs = self._groups[0]
        triple = self._groups[1] if self.triples else None
        self.cross_embedding = pairs.cross
        self.triple_cross = triple.cross if triple else None
        self.combination = pairs.combination
        self.triple_combination = triple.combination if triple else None
        self.generalized_kernel = pairs.kernel
        self.triple_generalized_kernel = triple.kernel if triple else None

        if architecture is None:
            interaction_dim = sum(g.size for g in self._groups) * self._pad_dim
        else:
            interaction_dim = sum(len(g.mem) * cross_embed_dim
                                  + len(g.fac) * self._fac_dim
                                  for g in self._groups)
        self.mlp = MLP(num_fields * embed_dim + interaction_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    # ------------------------------------------------------------------
    # Candidate embeddings
    # ------------------------------------------------------------------
    def _factorized(self, emb: Tensor, group: _Group) -> Tensor:
        """Factorized candidate e^f of each of ``group.fac`` (Eq. 14 and
        its variants), chained over the tuple's field embeddings."""
        idx = np.asarray(group.fac, dtype=np.int64)
        # ``index_select`` (np.take) returns C order with no extra copy,
        # and its backward is one scatter-add over field positions.
        product = index_select(emb, group.fields[0][idx], axis=1)
        for fields in group.fields[1:]:
            e = index_select(emb, fields[idx], axis=1)
            product = (product + e if self.factorization == "add"
                       else product * e)
        if self.factorization == "inner":
            return product.sum(axis=-1, keepdims=True)
        if self.factorization == "generalized":
            # The kernel rows line up with group.fac (both modes).
            return product * group.kernel
        return product

    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> Tensor:
        self._check_batch(batch)
        if self.triples and batch.x_triple is None:
            raise ValueError(
                "OptInterModel over triples needs x_triple; build the "
                "dataset with make_dataset(..., with_triples=True)"
            )
        emb = self.embedding(batch.x)  # [n, M, s1]
        n = emb.shape[0]
        parts: List[Tensor] = [flatten_embeddings(emb)]
        for group in self._groups:
            ids = getattr(batch, group.ids)
            if group.combination is not None:
                combined = group.combination.combine(
                    group.cross(ids), self._factorized(emb, group))
                parts.append(combined.reshape(n, group.size * self._pad_dim))
                continue
            if group.mem:
                parts.append(group.cross(ids).reshape(
                    n, len(group.mem) * self.cross_embed_dim))
            if group.fac:
                parts.append(self._factorized(emb, group).reshape(
                    n, len(group.fac) * self._fac_dim))

        features = parts[0] if len(parts) == 1 else concatenate(parts, axis=1)
        return self.mlp(features).reshape(n)

    # ------------------------------------------------------------------
    # Search-stage conveniences
    # ------------------------------------------------------------------
    @property
    def is_search_mode(self) -> bool:
        return self.architecture is None

    def derive_architectures(self
                             ) -> Tuple[Architecture, Optional[Architecture]]:
        """Hard decode the searched pair and triple architectures (search
        mode only); the triple one is ``None`` without triples."""
        if self.combination is None:
            raise RuntimeError("model is in fixed mode; nothing to derive")
        triple = self.triple_combination
        return (self.combination.derive_architecture(),
                None if triple is None else triple.derive_architecture())

    def derive_architecture(self) -> Architecture:
        """Hard decode the searched pair architecture (search mode only)."""
        return self.derive_architectures()[0]

    def architecture_parameters(self) -> List:
        """The α parameters, pairs first (empty list in fixed mode)."""
        return [g.combination.alpha for g in self._groups
                if g.combination is not None]

    def cross_parameters(self) -> List:
        """The memorized embedding tables, pairs first (l2_c applies)."""
        return [g.cross.table.weight for g in self._groups
                if g.cross is not None]

    def network_parameters(self) -> List:
        """All parameters except α (Θ in the paper's notation)."""
        alpha_ids = {id(p) for p in self.architecture_parameters()}
        return [p for p in self.parameters() if id(p) not in alpha_ids]

    def set_temperature(self, temperature: float) -> None:
        """Anneal every group's Gumbel-softmax temperature."""
        for group in self._groups:
            if group.combination is not None:
                group.combination.set_temperature(temperature)


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
