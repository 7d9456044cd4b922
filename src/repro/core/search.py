"""Search-stage algorithms (paper §II-C2, Algorithm 1; ablation §III-E).

Three ways to obtain an architecture:

* :func:`search_optinter` — the paper's algorithm: Θ and α updated
  *simultaneously* on the same training batch by gradient descent, with the
  Gumbel-softmax temperature annealed towards hard selections.
* :func:`search_bilevel` — the DARTS-style ablation baseline: Θ steps on
  training batches alternate with α steps on validation batches.  The paper
  finds this converges worse for CTR (and needs ~2x memory).
* :func:`random_architecture` — the Random baseline of Table VIII.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.dataset import CTRDataset
from ..fsutil import PathLike
from ..nn.losses import binary_cross_entropy_with_logits
from ..nn.module import Module
from ..nn.optim import Adam
from ..obs.events import EventBus
from ..obs.tracing import Tracer
from ..resilience.checkpoint import CheckpointManager, TrainingCheckpoint
from ..resilience.recovery import DivergenceGuard, RecoveryPolicy
from ..training.history import EpochRecord, History
from ..training.trainer import (EventFanout, evaluate_model,
                                guarded_backward, mean_loss, resume_latest,
                                save_checkpoint)
from .architecture import Architecture
from .optinter import OptInterModel


def _emit_search_epoch(emit: EventFanout, model: OptInterModel,
                       record: EpochRecord, temperature: float,
                       stage: str) -> None:
    """Publish the per-epoch α snapshot and epoch metrics.

    The ``search_alpha`` payload carries the raw logits, the noiseless
    selection probabilities and the argmax decode — enough to replay the
    selection-probability trajectory (paper Table VI / Figure 5) from a
    trace file alone, without the model.
    """
    if not emit.buses:
        return
    architecture = model.derive_architecture()
    emit("search_alpha",
         stage=stage,
         epoch=record.epoch,
         temperature=temperature,
         alpha=model.combination.alpha.data,
         probabilities=model.combination.probabilities(),
         methods=[m.value for m in architecture],
         counts=architecture.counts())
    emit("epoch_end", stage=stage, **record.as_dict())


@dataclass
class SearchConfig:
    """Hyper-parameters for the search stage (paper Table IV naming).

    ``lr`` is the network learning rate (lr_o / lr_c), ``lr_arch`` the
    architecture-parameter learning rate (lr_a), ``l2_cross`` the L2 penalty
    on the cross-product embedding table (l2_c).
    """

    embed_dim: int = 8
    cross_embed_dim: int = 4
    hidden_dims: Sequence[int] = (64, 64)
    layer_norm: bool = True
    factorization: str = "hadamard"
    lr: float = 2e-3
    lr_arch: float = 1e-2
    l2_cross: float = 1e-2
    batch_size: int = 256
    epochs: int = 3
    temperature_start: float = 1.0
    temperature_end: float = 0.3
    seed: int = 0
    verbose: bool = False


@dataclass
class SearchResult:
    """Outcome of a search stage."""

    architecture: Architecture
    alpha: np.ndarray
    history: History
    model: OptInterModel

    @classmethod
    def of(cls, model: OptInterModel, history: History) -> "SearchResult":
        """The searched model with its argmax decode and final α."""
        return cls(model.derive_architecture(),
                   model.combination.alpha.data.copy(), history, model)


def _annealed_temperature(config: SearchConfig, epoch: int) -> float:
    """Exponential decay from temperature_start to temperature_end."""
    if config.epochs <= 1:
        return config.temperature_end
    ratio = config.temperature_end / config.temperature_start
    return config.temperature_start * ratio ** (epoch / (config.epochs - 1))


def _build_search_model(train: CTRDataset, config: SearchConfig,
                        rng: np.random.Generator) -> OptInterModel:
    if train.x_cross is None:
        raise ValueError("search requires cross-product features on the dataset")
    return OptInterModel(
        cardinalities=train.cardinalities,
        cross_cardinalities=train.cross_cardinalities,
        embed_dim=config.embed_dim,
        cross_embed_dim=config.cross_embed_dim,
        hidden_dims=config.hidden_dims,
        layer_norm=config.layer_norm,
        temperature=config.temperature_start,
        factorization=config.factorization,
        rng=rng,
    )


def table_iv_groups(model: Module, cross_embeddings: Sequence,
                    lr: float, l2_cross: float,
                    lr_arch: Optional[float] = None) -> List[Dict]:
    """Adam groups mirroring Table IV: the network at ``lr`` (lr_o / lr_c),
    the cross-product embedding tables (``None`` entries skipped) with
    their own L2 penalty (l2_c), and α at ``lr_arch`` (lr_a).

    Without ``lr_arch`` α is left out (the bi-level search steps it with
    its own optimizer).  Group and parameter order are part of the Adam
    state and checkpoint layout.
    """
    cross_params = [e.table.weight for e in cross_embeddings if e is not None]
    alpha = model.architecture_parameters()
    skip = {id(p) for p in cross_params + alpha}
    groups = [{"params": [p for p in model.parameters() if id(p) not in skip],
               "lr": lr}]
    if cross_params:
        groups.append({"params": cross_params, "lr": lr,
                       "weight_decay": l2_cross})
    if alpha and lr_arch is not None:
        groups.append({"params": alpha, "lr": lr_arch})
    return groups


def search_optinter(train: CTRDataset, val: Optional[CTRDataset],
                    config: SearchConfig,
                    bus: Optional[EventBus] = None,
                    recovery: Optional[RecoveryPolicy] = None,
                    checkpoint_dir: Optional[PathLike] = None,
                    resume: bool = False,
                    keep_last: int = 3,
                    tracer: Optional[Tracer] = None) -> SearchResult:
    """Algorithm 1: joint gradient descent on (Θ, α) over training batches.

    ``bus`` receives one ``search_alpha`` + ``epoch_end`` event pair per
    epoch; the final ``search_alpha`` event's argmax equals the returned
    :class:`SearchResult` architecture.

    ``checkpoint_dir`` makes the search crash-safe: a full-state
    checkpoint (Θ, α, optimizer moments, RNG stream, history) is written
    atomically after every epoch, and ``resume=True`` continues from the
    newest valid one, reproducing the uninterrupted search bit-for-bit.
    ``recovery`` attaches a divergence guard that skips non-finite
    batches and rolls back with the learning rate halved instead of
    propagating NaNs into α.
    """
    if resume and checkpoint_dir is None:
        raise ValueError("resume=True requires checkpoint_dir")
    rng = np.random.default_rng(config.seed)
    model = _build_search_model(train, config, rng)
    optimizer = Adam(table_iv_groups(model, [model.cross_embedding],
                                     config.lr, config.l2_cross,
                                     config.lr_arch))
    history = History()
    emit = EventFanout(bus, config.verbose)
    manager = (CheckpointManager(Path(checkpoint_dir), keep_last=keep_last)
               if checkpoint_dir is not None else None)
    step = 0
    start_epoch = 0
    if manager is not None and resume:
        checkpoint = resume_latest(manager, model, optimizer, rng, emit)
        if checkpoint is not None:
            history = checkpoint.history
            step = checkpoint.global_step
            start_epoch = checkpoint.epoch + 1
    guard = None
    if recovery is not None:
        def _rewind(extras):
            nonlocal step
            step = int(extras.get("step", step))
        guard = DivergenceGuard(recovery, model, optimizer, emit=emit,
                                on_rollback=_rewind)
        guard.record_good(extras={"step": step})
    tracer = emit.tracer(tracer)
    with tracer.span("search.run", stage="search",
                     epochs=config.epochs) as run_span:
        for epoch in range(start_epoch, config.epochs):
            temperature = _annealed_temperature(config, epoch)
            model.combination.set_temperature(temperature)
            model.train()
            losses: List[float] = []
            with tracer.span("search.epoch", epoch=epoch,
                             temperature=temperature) as epoch_span:
                for batch in train.iter_batches(config.batch_size,
                                                shuffle=True, rng=rng):
                    optimizer.zero_grad()
                    loss = binary_cross_entropy_with_logits(model(batch),
                                                            batch.y)
                    value = guarded_backward(loss, guard, epoch=epoch,
                                             step=step, stage="search")
                    if value is None:
                        continue
                    optimizer.step()
                    losses.append(value)
                    step += 1
                record = EpochRecord(epoch=epoch,
                                     train_loss=mean_loss(losses))
                if val is not None and len(val) > 0:
                    metrics = evaluate_model(model, val)
                    record.val_auc = metrics["auc"]
                    record.val_log_loss = metrics["log_loss"]
                history.append(record)
                # The α snapshot is the search's decision step — its own
                # span so a trace shows where selection time goes.
                with tracer.span("search.alpha_update", epoch=epoch):
                    _emit_search_epoch(emit, model, record, temperature,
                                       stage="search")
                epoch_span.set_attr("train_loss", record.train_loss)
            if manager is not None:
                save_checkpoint(manager, TrainingCheckpoint.capture(
                    model, optimizer, epoch=epoch, global_step=step, rng=rng,
                    history=history), emit)
            if guard is not None:
                guard.record_good(extras={"step": step})
        run_span.set_attr("steps", step)
    return SearchResult.of(model, history)


def search_bilevel(train: CTRDataset, val: CTRDataset,
                   config: SearchConfig,
                   bus: Optional[EventBus] = None,
                   recovery: Optional[RecoveryPolicy] = None,
                   tracer: Optional[Tracer] = None) -> SearchResult:
    """DARTS-style bi-level ablation: Θ on train batches, α on val batches.

    The two parameter families alternate instead of sharing one update;
    the paper reports this as slower to converge and roughly twice as
    memory-hungry (Table VIII).  ``recovery`` guards both levels: a
    non-finite loss on either the Θ or the α step skips that update (and
    past the strike budget rolls back both optimizers together).
    """
    if val is None or len(val) == 0:
        raise ValueError("bi-level search needs a non-empty validation set")
    rng = np.random.default_rng(config.seed)
    model = _build_search_model(train, config, rng)
    theta_opt = Adam(table_iv_groups(model, [model.cross_embedding],
                                     config.lr, config.l2_cross))
    alpha_opt = Adam(model.architecture_parameters(), lr=config.lr_arch)
    history = History()

    def _val_batches():
        while True:
            yield from val.iter_batches(config.batch_size, shuffle=True, rng=rng)

    val_stream = _val_batches()
    emit = EventFanout(bus, config.verbose)
    guard = None
    step = 0
    if recovery is not None:
        guard = DivergenceGuard(recovery, model, [theta_opt, alpha_opt],
                                emit=emit)
        guard.record_good()
    tracer = emit.tracer(tracer)
    with tracer.span("search.run", stage="bilevel",
                     epochs=config.epochs):
        for epoch in range(config.epochs):
            temperature = _annealed_temperature(config, epoch)
            model.combination.set_temperature(temperature)
            model.train()
            losses: List[float] = []
            with tracer.span("search.epoch", epoch=epoch,
                             temperature=temperature) as epoch_span:
                for batch in train.iter_batches(config.batch_size,
                                                shuffle=True, rng=rng):
                    # Lower level: network weights on the training batch.
                    model.zero_grad()
                    loss = binary_cross_entropy_with_logits(model(batch),
                                                            batch.y)
                    value = guarded_backward(loss, guard, epoch=epoch,
                                             step=step, stage="bilevel",
                                             level="theta")
                    if value is not None:
                        theta_opt.step()
                        losses.append(value)
                    # Upper level: architecture parameters on a validation
                    # batch.
                    val_batch = next(val_stream)
                    model.zero_grad()
                    val_loss = binary_cross_entropy_with_logits(
                        model(val_batch), val_batch.y)
                    if guarded_backward(val_loss, guard, epoch=epoch,
                                        step=step, split="validation",
                                        stage="bilevel",
                                        level="alpha") is not None:
                        alpha_opt.step()
                    step += 1
                record = EpochRecord(epoch=epoch,
                                     train_loss=mean_loss(losses))
                metrics = evaluate_model(model, val)
                record.val_auc = metrics["auc"]
                record.val_log_loss = metrics["log_loss"]
                history.append(record)
                with tracer.span("search.alpha_update", epoch=epoch):
                    _emit_search_epoch(emit, model, record, temperature,
                                       stage="bilevel")
                epoch_span.set_attr("train_loss", record.train_loss)
            if guard is not None:
                guard.record_good()
    return SearchResult.of(model, history)


def random_architecture(num_pairs: int,
                        rng: Optional[np.random.Generator] = None) -> Architecture:
    """The Random baseline: one uniformly random method per interaction."""
    return Architecture.random(num_pairs, rng=rng)
