"""AutoFIS (Liu et al., KDD 2020): automatic feature interaction selection.

The strongest hybrid baseline in the paper.  AutoFIS attaches a gate
``alpha_p`` to every factorized interaction and trains the gates with the
sparsity-inducing GRDA optimizer while the rest of the network uses Adam.
Gates driven exactly to zero prune their interactions (the naïve choice);
surviving gates keep the factorized term.  Its search space is therefore
{factorized, naïve} — a strict subset of OptInter's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import Batch, CTRDataset
from ..nn import functional as F
from ..nn import init
from ..nn.layers import MLP
from ..nn.module import Parameter
from ..nn.optim import GRDA, Adam
from ..nn.tensor import Tensor, concatenate
from ..training.history import History
from ..training.trainer import Trainer
from .base import CTRModel, FieldEmbedding, flatten_embeddings, pair_index_arrays


class AutoFIS(CTRModel):
    """IPNN-style model with per-interaction gates.

    In search mode every inner product is scaled by its trainable gate.
    With a fixed ``selection`` mask (retrain mode) the gates are frozen to
    the binary mask and excluded from ``parameters()`` updates by simply
    not registering them as trainable.
    """

    def __init__(self, cardinalities: Sequence[int], embed_dim: int = 8,
                 hidden_dims: Sequence[int] = (64, 64), layer_norm: bool = True,
                 selection: Optional[np.ndarray] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.embedding = FieldEmbedding(cardinalities, embed_dim, rng=rng)
        self._idx_i, self._idx_j = pair_index_arrays(len(cardinalities))
        num_pairs = len(self._idx_i)
        if selection is None:
            # Search mode: trainable gates, started at 1 so every
            # interaction initially contributes.
            self.gates = Parameter(np.ones(num_pairs), name="gates")
            self._fixed_mask = None
        else:
            selection = np.asarray(selection, dtype=np.float64)
            if selection.shape != (num_pairs,):
                raise ValueError(
                    f"selection must have shape ({num_pairs},), got {selection.shape}"
                )
            self.gates = None
            self._fixed_mask = selection
        input_dim = len(cardinalities) * embed_dim + num_pairs
        self.mlp = MLP(input_dim, hidden_dims, layer_norm=layer_norm, rng=rng)

    def forward(self, batch: Batch) -> Tensor:
        emb = self.embedding(batch.x)
        inner = F.inner_products(emb, self._idx_i, self._idx_j)
        if self._fixed_mask is not None:
            gated = inner * Tensor(self._fixed_mask)
        else:
            gated = inner * self.gates
        features = concatenate([flatten_embeddings(emb), gated], axis=1)
        return self.mlp(features).reshape(emb.shape[0])

    def selected_pairs(self) -> np.ndarray:
        """Boolean mask of interactions whose gate is non-zero."""
        if self._fixed_mask is not None:
            return self._fixed_mask != 0.0
        return self.gates.data != 0.0

    def selection_counts(self) -> List[int]:
        """Paper Table VI convention: [memorized, factorized, naïve]."""
        kept = int(self.selected_pairs().sum())
        total = len(self._idx_i)
        return [0, kept, total - kept]


@dataclass
class AutoFISResult:
    """Outcome of the two-stage AutoFIS procedure."""

    model: AutoFIS
    selection: np.ndarray
    search_history: History
    retrain_history: History


def train_autofis(train: CTRDataset, val: CTRDataset, embed_dim: int = 8,
                  hidden_dims: Sequence[int] = (64, 64), lr: float = 1e-3,
                  grda_c: float = 5e-4, grda_mu: float = 0.8,
                  batch_size: int = 512, search_epochs: int = 5,
                  retrain_epochs: int = 10, patience: int = 3,
                  seed: int = 0, verbose: bool = False,
                  bus=None) -> AutoFISResult:
    """Full AutoFIS pipeline: GRDA-gated search, then masked retrain.

    Mirrors the paper's baseline setup (Table IV lists the GRDA ``mu`` and
    ``c`` used per dataset).
    """
    rng = np.random.default_rng(seed)
    search_model = AutoFIS(train.cardinalities, embed_dim=embed_dim,
                           hidden_dims=hidden_dims, rng=rng)
    gate_params = [search_model.gates]
    gate_ids = {id(p) for p in gate_params}
    other_params = [p for p in search_model.parameters() if id(p) not in gate_ids]
    adam = Adam(other_params, lr=lr)
    grda = GRDA(gate_params, lr=lr, c=grda_c, mu=grda_mu)

    class _JointOptimizer:
        """Adam on network weights + GRDA on gates, stepped together."""

        def zero_grad(self) -> None:
            adam.zero_grad()
            grda.zero_grad()

        def step(self) -> None:
            adam.step()
            grda.step()

    trainer = Trainer(search_model, _JointOptimizer(), batch_size=batch_size,
                      max_epochs=search_epochs, patience=max(search_epochs, 1),
                      rng=rng, verbose=verbose, bus=bus)
    search_history = trainer.fit(train, val)
    selection = (search_model.gates.data != 0.0).astype(np.float64)
    if selection.sum() == 0:
        # Degenerate search (all gates pruned): keep the strongest gate so
        # the retrained model is still an interaction model.
        selection[np.argmax(np.abs(search_model.gates.data))] = 1.0

    retrain_model = AutoFIS(train.cardinalities, embed_dim=embed_dim,
                            hidden_dims=hidden_dims, selection=selection,
                            rng=np.random.default_rng(seed + 1))
    retrainer = Trainer(retrain_model, Adam(retrain_model.parameters(), lr=lr),
                        batch_size=batch_size, max_epochs=retrain_epochs,
                        patience=patience, rng=rng, verbose=verbose, bus=bus)
    retrain_history = retrainer.fit(train, val)
    return AutoFISResult(model=retrain_model, selection=selection,
                         search_history=search_history,
                         retrain_history=retrain_history)
