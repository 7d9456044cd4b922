"""Third-order OptInter (the extension the paper sketches in §II-B1).

The paper restricts its experiments to second-order interactions but
states the framework "could easily be extended to higher-order".  This
module is that extension, built from the same parts:

* every field **triple** gets the same three candidates — a memorized
  embedding over its third-order cross-product feature, a factorized
  embedding (the Hadamard chain of the three field embeddings, Eq. 3 with
  two ⊗ operators), or the naïve zero vector;
* a second :class:`~repro.core.combination.CombinationBlock` searches over
  the triples jointly with the pairwise block (one α matrix per order);
* the re-train stage allocates third-order memorized tables only for the
  triples the search memorizes.

:class:`HigherOrderOptInter` consumes datasets built with
``make_dataset(..., with_triples=True)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import Batch, CTRDataset
from ..models.base import (
    CrossEmbedding,
    CTRModel,
    FieldEmbedding,
    flatten_embeddings,
    pair_index_arrays,
)
from ..nn import functional as F
from ..nn.layers import MLP
from ..nn.optim import Adam
from ..nn.tensor import Tensor, concatenate, index_select
from ..training.history import History
from ..training.trainer import Trainer
from .architecture import Architecture, Method
from .combination import CombinationBlock
from .search import SearchConfig, SearchTrainer, table_iv_groups


class HigherOrderOptInter(CTRModel):
    """OptInter over both second- and third-order interactions.

    ``pair_architecture`` / ``triple_architecture`` follow the same
    convention as :class:`~repro.core.optinter.OptInterModel`: ``None``
    puts that order into search mode (all candidates alive, Gumbel-softmax
    mixing); an :class:`Architecture` freezes it.  Both orders must be in
    the same mode.
    """

    needs_cross = True

    def __init__(
        self,
        cardinalities: Sequence[int],
        cross_cardinalities: Sequence[int],
        triples: Sequence[Tuple[int, int, int]],
        triple_cardinalities: Sequence[int],
        embed_dim: int = 8,
        cross_embed_dim: int = 4,
        hidden_dims: Sequence[int] = (64, 64),
        layer_norm: bool = True,
        pair_architecture: Optional[Architecture] = None,
        triple_architecture: Optional[Architecture] = None,
        temperature: float = 1.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if (pair_architecture is None) != (triple_architecture is None):
            raise ValueError(
                "pair and triple architectures must both be given (fixed "
                "mode) or both be None (search mode)"
            )
        num_fields = len(cardinalities)
        self._idx_i, self._idx_j = pair_index_arrays(num_fields)
        num_pairs = len(self._idx_i)
        self.triples = [tuple(t) for t in triples]
        num_triples = len(self.triples)
        if len(cross_cardinalities) != num_pairs:
            raise ValueError("cross_cardinalities length must be C(M,2)")
        if len(triple_cardinalities) != num_triples:
            raise ValueError("one triple cardinality per triple required")
        if pair_architecture is not None:
            if pair_architecture.num_pairs != num_pairs:
                raise ValueError("pair architecture covers wrong pair count")
            if triple_architecture.num_pairs != num_triples:
                raise ValueError(
                    "triple architecture covers wrong triple count")

        self.embed_dim = embed_dim
        self.cross_embed_dim = cross_embed_dim
        self.num_pairs = num_pairs
        self.num_triples = num_triples
        self.pair_architecture = pair_architecture
        self.triple_architecture = triple_architecture
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self._t_idx = (
            np.array([t[0] for t in self.triples], dtype=np.int64),
            np.array([t[1] for t in self.triples], dtype=np.int64),
            np.array([t[2] for t in self.triples], dtype=np.int64),
        )

        self._pad_dim = max(embed_dim, cross_embed_dim)
        if pair_architecture is None:
            self.pair_cross = CrossEmbedding(cross_cardinalities,
                                             cross_embed_dim, rng=rng)
            self.triple_cross = (CrossEmbedding(triple_cardinalities,
                                                cross_embed_dim, rng=rng)
                                 if num_triples else None)
            self.pair_combination = CombinationBlock(
                num_pairs, temperature=temperature, rng=rng)
            self.triple_combination = (CombinationBlock(
                num_triples, temperature=temperature, rng=rng)
                if num_triples else None)
            interaction_dim = (num_pairs + num_triples) * self._pad_dim
            self._mem_pairs = list(range(num_pairs))
            self._fac_pairs = list(range(num_pairs))
            self._mem_triples = list(range(num_triples))
            self._fac_triples = list(range(num_triples))
        else:
            self.pair_combination = None
            self.triple_combination = None
            self._mem_pairs = pair_architecture.pairs_with(Method.MEMORIZE)
            self._fac_pairs = pair_architecture.pairs_with(Method.FACTORIZE)
            self._mem_triples = triple_architecture.pairs_with(
                Method.MEMORIZE)
            self._fac_triples = triple_architecture.pairs_with(
                Method.FACTORIZE)
            self.pair_cross = (CrossEmbedding(cross_cardinalities,
                                              cross_embed_dim,
                                              pair_subset=self._mem_pairs,
                                              rng=rng)
                               if self._mem_pairs else None)
            self.triple_cross = (CrossEmbedding(triple_cardinalities,
                                                cross_embed_dim,
                                                pair_subset=self._mem_triples,
                                                rng=rng)
                                 if self._mem_triples else None)
            interaction_dim = (
                (len(self._mem_pairs) + len(self._mem_triples))
                * cross_embed_dim
                + (len(self._fac_pairs) + len(self._fac_triples)) * embed_dim
            )

        self.mlp = MLP(num_fields * embed_dim + interaction_dim, hidden_dims,
                       layer_norm=layer_norm, rng=rng)

    # ------------------------------------------------------------------
    def _pair_factorized(self, emb: Tensor, subset: List[int]) -> Tensor:
        idx = np.asarray(subset, dtype=np.int64)
        return F.hadamard_products(emb, self._idx_i[idx], self._idx_j[idx])

    def _triple_factorized(self, emb: Tensor, subset: List[int]) -> Tensor:
        idx = np.asarray(subset, dtype=np.int64)
        a, b, c = self._t_idx
        return (F.hadamard_products(emb, a[idx], b[idx])
                * index_select(emb, c[idx], axis=1))

    def _check_triples(self, batch: Batch) -> None:
        if self.num_triples and batch.x_triple is None:
            raise ValueError(
                "HigherOrderOptInter needs x_triple; build the dataset "
                "with make_dataset(..., with_triples=True)"
            )

    # ------------------------------------------------------------------
    def forward(self, batch: Batch) -> Tensor:
        self._check_batch(batch)
        self._check_triples(batch)
        emb = self.embedding(batch.x)
        n = emb.shape[0]
        parts: List[Tensor] = [flatten_embeddings(emb)]

        if self.pair_architecture is None:
            combined = self.pair_combination.combine(
                self.pair_cross(batch.x_cross),
                self._pair_factorized(emb, self._fac_pairs))
            parts.append(combined.reshape(n, self.num_pairs * self._pad_dim))
            if self.num_triples:
                combined_t = self.triple_combination.combine(
                    self.triple_cross(batch.x_triple),
                    self._triple_factorized(emb, self._fac_triples))
                parts.append(combined_t.reshape(
                    n, self.num_triples * self._pad_dim))
        else:
            if self._mem_pairs:
                parts.append(self.pair_cross(batch.x_cross).reshape(
                    n, len(self._mem_pairs) * self.cross_embed_dim))
            if self._fac_pairs:
                parts.append(self._pair_factorized(
                    emb, self._fac_pairs).reshape(
                        n, len(self._fac_pairs) * self.embed_dim))
            if self._mem_triples:
                parts.append(self.triple_cross(batch.x_triple).reshape(
                    n, len(self._mem_triples) * self.cross_embed_dim))
            if self._fac_triples:
                parts.append(self._triple_factorized(
                    emb, self._fac_triples).reshape(
                        n, len(self._fac_triples) * self.embed_dim))

        features = parts[0] if len(parts) == 1 else concatenate(parts, axis=1)
        return self.mlp(features).reshape(n)

    # ------------------------------------------------------------------
    @property
    def is_search_mode(self) -> bool:
        return self.pair_architecture is None

    def derive_architectures(self) -> Tuple[Architecture, Architecture]:
        """Hard decode both orders' α (search mode only)."""
        if self.pair_combination is None:
            raise RuntimeError("model is in fixed mode; nothing to derive")
        triple_arch = (self.triple_combination.derive_architecture()
                       if self.triple_combination is not None
                       else Architecture(methods=()))
        return self.pair_combination.derive_architecture(), triple_arch

    def architecture_parameters(self) -> List:
        params = []
        if self.pair_combination is not None:
            params.append(self.pair_combination.alpha)
        if self.triple_combination is not None:
            params.append(self.triple_combination.alpha)
        return params

    def network_parameters(self) -> List:
        alpha_ids = {id(p) for p in self.architecture_parameters()}
        return [p for p in self.parameters() if id(p) not in alpha_ids]

    def set_temperature(self, temperature: float) -> None:
        if self.pair_combination is not None:
            self.pair_combination.set_temperature(temperature)
        if self.triple_combination is not None:
            self.triple_combination.set_temperature(temperature)


@dataclass
class HigherOrderResult:
    """Outcome of the two-stage higher-order pipeline."""

    model: HigherOrderOptInter
    pair_architecture: Architecture
    triple_architecture: Architecture
    search_history: History
    retrain_history: History


def _require_triples(dataset: CTRDataset) -> None:
    if dataset.x_triple is None:
        raise ValueError(
            "dataset lacks third-order crosses; build it with "
            "make_dataset(..., with_triples=True)"
        )


def search_higher_order(train: CTRDataset, val: Optional[CTRDataset],
                        config: SearchConfig
                        ) -> Tuple[Architecture, Architecture, History,
                                   HigherOrderOptInter]:
    """Algorithm 1 extended to both interaction orders."""
    _require_triples(train)
    rng = np.random.default_rng(config.seed)
    model = HigherOrderOptInter(
        cardinalities=train.cardinalities,
        cross_cardinalities=train.cross_cardinalities,
        triples=train.triples,
        triple_cardinalities=train.triple_cardinalities,
        embed_dim=config.embed_dim,
        cross_embed_dim=config.cross_embed_dim,
        hidden_dims=config.hidden_dims,
        layer_norm=config.layer_norm,
        temperature=config.temperature_start,
        rng=rng,
    )
    optimizer = Adam(table_iv_groups(
        model, [model.pair_cross, model.triple_cross], config.lr,
        config.l2_cross, config.lr_arch))
    # No bus and no guard: the search emits nothing and fails fast.
    history = SearchTrainer(model, optimizer, config, model.set_temperature,
                            rng=rng).fit(train, val)
    pair_arch, triple_arch = model.derive_architectures()
    return pair_arch, triple_arch, history, model


def retrain_higher_order(pair_architecture: Architecture,
                         triple_architecture: Architecture,
                         train: CTRDataset, val: Optional[CTRDataset],
                         config: SearchConfig, epochs: int = 10,
                         patience: int = 3, seed: Optional[int] = None
                         ) -> Tuple[HigherOrderOptInter, History]:
    """Algorithm 2 extended to both interaction orders."""
    _require_triples(train)
    rng = np.random.default_rng(config.seed + 1 if seed is None else seed)
    model = HigherOrderOptInter(
        cardinalities=train.cardinalities,
        cross_cardinalities=train.cross_cardinalities,
        triples=train.triples,
        triple_cardinalities=train.triple_cardinalities,
        embed_dim=config.embed_dim,
        cross_embed_dim=config.cross_embed_dim,
        hidden_dims=config.hidden_dims,
        layer_norm=config.layer_norm,
        pair_architecture=pair_architecture,
        triple_architecture=triple_architecture,
        rng=rng,
    )
    optimizer = Adam(table_iv_groups(
        model, [model.pair_cross, model.triple_cross], config.lr,
        config.l2_cross))
    trainer = Trainer(model, optimizer, batch_size=config.batch_size,
                      max_epochs=epochs, patience=patience, rng=rng)
    history = trainer.fit(train, val)
    return model, history


def run_higher_order(train: CTRDataset, val: Optional[CTRDataset],
                     config: Optional[SearchConfig] = None,
                     retrain_epochs: int = 10) -> HigherOrderResult:
    """Full two-stage higher-order pipeline (search then re-train)."""
    config = config or SearchConfig()
    pair_arch, triple_arch, search_history, _ = search_higher_order(
        train, val, config)
    model, retrain_history = retrain_higher_order(
        pair_arch, triple_arch, train, val, config, epochs=retrain_epochs)
    return HigherOrderResult(
        model=model,
        pair_architecture=pair_arch,
        triple_architecture=triple_arch,
        search_history=search_history,
        retrain_history=retrain_history,
    )
