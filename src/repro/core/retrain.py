"""Re-train stage (paper §II-C3, Algorithm 2) and the full two-stage run.

After the search stage decides a method per interaction, the model is
re-built and trained **from scratch** with the architecture frozen — the
search-stage network weights are deliberately discarded so they carry no
bias from the suboptimal mixtures explored during search (ablated in
Table IX).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from ..data.dataset import CTRDataset
from ..fsutil import PathLike
from ..nn.optim import Adam
from ..obs.events import EventBus
from ..resilience.recovery import RecoveryPolicy
from ..training.history import History
from ..training.trainer import Trainer
from .architecture import Architecture
from .optinter import OptInterModel
from .search import (SearchConfig, SearchResult, search_optinter,
                     table_iv_groups)


@dataclass
class RetrainConfig:
    """Hyper-parameters for the re-train stage."""

    embed_dim: int = 8
    cross_embed_dim: int = 4
    hidden_dims: Sequence[int] = (64, 64)
    layer_norm: bool = True
    factorization: str = "hadamard"
    lr: float = 1e-3
    l2_cross: float = 0.0
    batch_size: int = 512
    epochs: int = 10
    patience: int = 3
    seed: int = 1


@dataclass
class OptInterResult:
    """Outcome of the full two-stage OptInter pipeline;
    ``triple_architecture`` is ``None`` unless the data carried triples."""

    model: OptInterModel
    architecture: Architecture
    search: Optional[SearchResult]
    retrain_history: History
    triple_architecture: Optional[Architecture] = None

    @property
    def selection_counts(self):
        """Table VI convention: [memorize, factorize, naive]."""
        return self.architecture.counts()


def build_fixed_model(architecture: Architecture, dataset: CTRDataset,
                      config: RetrainConfig,
                      rng: Optional[np.random.Generator] = None,
                      triple_architecture: Optional[Architecture] = None
                      ) -> OptInterModel:
    """Instantiate a fresh fixed-architecture OptInter model for a
    dataset; ``triple_architecture`` fixes its triples as well."""
    if dataset.x_cross is None and architecture.counts()[0] > 0:
        raise ValueError("architecture memorizes pairs but dataset lacks "
                         "cross-product features")
    if triple_architecture is not None and dataset.x_triple is None:
        raise ValueError("triple architecture given but dataset lacks "
                         "third-order crosses; build it with "
                         "make_dataset(..., with_triples=True)")
    return OptInterModel(
        cardinalities=dataset.cardinalities,
        cross_cardinalities=dataset.cross_cardinalities,
        embed_dim=config.embed_dim,
        cross_embed_dim=config.cross_embed_dim,
        hidden_dims=config.hidden_dims,
        layer_norm=config.layer_norm,
        architecture=architecture,
        factorization=config.factorization,
        rng=rng or np.random.default_rng(config.seed),
        triples=None if triple_architecture is None else dataset.triples,
        triple_cardinalities=dataset.triple_cardinalities,
        triple_architecture=triple_architecture,
    )


def retrain(architecture: Architecture, train: CTRDataset,
            val: Optional[CTRDataset], config: RetrainConfig,
            verbose: bool = False,
            bus: Optional[EventBus] = None,
            recovery: Optional[RecoveryPolicy] = None,
            checkpoint_dir: Optional[PathLike] = None,
            resume: bool = False,
            triple_architecture: Optional[Architecture] = None
            ) -> Tuple[OptInterModel, History]:
    """Algorithm 2: train a fresh model under the fixed architecture
    (and, given ``triple_architecture``, the fixed triple architecture).

    ``checkpoint_dir``/``resume`` make the stage crash-safe via the
    trainer's per-epoch full-state checkpoints; ``recovery`` attaches a
    divergence guard (see :mod:`repro.resilience`).
    """
    rng = np.random.default_rng(config.seed)
    model = build_fixed_model(architecture, train, config, rng=rng,
                              triple_architecture=triple_architecture)
    optimizer = Adam(table_iv_groups(model, config.lr, config.l2_cross))
    trainer = Trainer(model, optimizer, batch_size=config.batch_size,
                      max_epochs=config.epochs, patience=config.patience,
                      rng=rng, verbose=verbose, bus=bus, recovery=recovery,
                      checkpoint_dir=checkpoint_dir, resume=resume)
    history = trainer.fit(train, val)
    return model, history


def run_optinter(train: CTRDataset, val: Optional[CTRDataset],
                 search_config: Optional[SearchConfig] = None,
                 retrain_config: Optional[RetrainConfig] = None,
                 verbose: bool = False,
                 bus: Optional[EventBus] = None,
                 recovery: Optional[RecoveryPolicy] = None,
                 checkpoint_dir: Optional[PathLike] = None,
                 resume: bool = False) -> OptInterResult:
    """The complete OptInter pipeline: search (Alg. 1) then re-train (Alg. 2).

    Field triples are searched and re-trained alongside the pairs when
    ``train`` carries third-order crosses (``x_triple``).

    With ``checkpoint_dir`` each stage checkpoints into its own
    subdirectory (``search/`` and ``retrain/``) and the searched
    architecture is persisted to ``architecture.json`` the moment the
    search stage completes (a searched triple architecture to
    ``triple_architecture.json`` just before it).  ``resume=True``
    continues wherever the previous run died: mid-search resumes the
    search; a finished search (marker file present) skips straight to
    resuming the re-train, in which case the returned result's
    ``search`` field is ``None``.
    """
    search_config = search_config or SearchConfig()
    retrain_config = retrain_config or RetrainConfig(
        embed_dim=search_config.embed_dim,
        cross_embed_dim=search_config.cross_embed_dim,
        hidden_dims=tuple(search_config.hidden_dims),
        layer_norm=search_config.layer_norm,
        factorization=search_config.factorization,
        lr=search_config.lr,
        l2_cross=search_config.l2_cross,
        batch_size=search_config.batch_size,
        seed=search_config.seed + 1,
    )
    search_config = replace(search_config,
                            verbose=search_config.verbose or verbose)
    search_ckpt_dir = retrain_ckpt_dir = arch_path = triple_path = None
    if checkpoint_dir is not None:
        root = Path(checkpoint_dir)
        search_ckpt_dir = root / "search"
        retrain_ckpt_dir = root / "retrain"
        arch_path = root / "architecture.json"
        triple_path = root / "triple_architecture.json"
    result: Optional[SearchResult] = None
    if resume and arch_path is not None and arch_path.exists():
        # Search already completed in a previous run: reuse its output.
        architecture = Architecture.from_json(arch_path.read_text())
        triple_architecture = (Architecture.from_json(triple_path.read_text())
                               if triple_path.exists() else None)
    else:
        result = search_optinter(train, val, search_config, bus=bus,
                                 recovery=recovery,
                                 checkpoint_dir=search_ckpt_dir,
                                 resume=resume)
        architecture = result.architecture
        triple_architecture = result.triple_architecture
        if arch_path is not None:
            from ..io import save_architecture

            # architecture.json is the resume marker, so it goes last.
            if triple_architecture is not None:
                save_architecture(triple_architecture, triple_path)
            save_architecture(architecture, arch_path)
    model, history = retrain(architecture, train, val, retrain_config,
                             verbose=verbose, bus=bus, recovery=recovery,
                             checkpoint_dir=retrain_ckpt_dir,
                             resume=resume,
                             triple_architecture=triple_architecture)
    return OptInterResult(model=model, architecture=architecture,
                          search=result, retrain_history=history,
                          triple_architecture=triple_architecture)
