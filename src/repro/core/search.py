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

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from ..data.dataset import CTRDataset
from ..fsutil import PathLike
from ..nn.losses import binary_cross_entropy_with_logits
from ..nn.optim import Adam
from ..obs.events import ConsoleSink, EventBus
from ..obs.tracing import Tracer
from ..resilience.checkpoint import CheckpointManager, TrainingCheckpoint
from ..resilience.recovery import DivergenceGuard, RecoveryPolicy
from ..training.history import EpochRecord, History
from ..training.trainer import evaluate_model, non_finite_loss_error
from .architecture import Architecture
from .optinter import OptInterModel


def _search_buses(config: "SearchConfig",
                  bus: Optional[EventBus]) -> List[EventBus]:
    """Event fan-out: the caller's bus plus a console bus when verbose."""
    buses: List[EventBus] = []
    if bus is not None:
        buses.append(bus)
    if config.verbose:
        buses.append(EventBus([ConsoleSink()]))
    return buses


def _bus_emitter(buses: List[EventBus]):
    """A ``(type, **payload)`` emitter fanning out to every bus."""
    def emit(event_type: str, **payload) -> None:
        for bus in buses:
            bus.emit(event_type, **payload)
    return emit


def _emit_search_epoch(buses: List[EventBus], model: OptInterModel,
                       record: EpochRecord, temperature: float,
                       stage: str) -> None:
    """Publish the per-epoch α snapshot and epoch metrics.

    The ``search_alpha`` payload carries the raw logits, the noiseless
    selection probabilities and the argmax decode — enough to replay the
    selection-probability trajectory (paper Table VI / Figure 5) from a
    trace file alone, without the model.
    """
    if not buses:
        return
    architecture = model.derive_architecture()
    for bus in buses:
        bus.emit("search_alpha",
                 stage=stage,
                 epoch=record.epoch,
                 temperature=temperature,
                 alpha=model.combination.alpha.data,
                 probabilities=model.combination.probabilities(),
                 methods=[m.value for m in architecture],
                 counts=architecture.counts())
        bus.emit("epoch_end", stage=stage, **record.as_dict())


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


def _parameter_groups(model: OptInterModel, config: SearchConfig):
    """Adam groups mirroring Table IV: the cross-product embedding table gets
    its own L2 penalty (l2_c); α gets its own learning rate (lr_a)."""
    cross_params = ([model.cross_embedding.table.weight]
                    if model.cross_embedding is not None else [])
    cross_ids = {id(p) for p in cross_params}
    alpha_ids = {id(p) for p in model.architecture_parameters()}
    other = [p for p in model.parameters()
             if id(p) not in cross_ids and id(p) not in alpha_ids]
    groups = [{"params": other, "lr": config.lr}]
    if cross_params:
        groups.append({"params": cross_params, "lr": config.lr,
                       "weight_decay": config.l2_cross})
    if alpha_ids:
        groups.append({"params": model.architecture_parameters(),
                       "lr": config.lr_arch})
    return groups


def _mean_loss(losses: List[float]) -> float:
    """An epoch's mean batch loss; NaN when the guard skipped every batch."""
    return float(np.mean(losses)) if losses else float("nan")


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
    optimizer = Adam(_parameter_groups(model, config))
    history = History()
    buses = _search_buses(config, bus)
    emit = _bus_emitter(buses)
    manager = (CheckpointManager(Path(checkpoint_dir), keep_last=keep_last)
               if checkpoint_dir is not None else None)
    step = 0
    start_epoch = 0
    if manager is not None and resume:
        loaded = manager.latest_valid(
            on_corrupt=lambda path, error: emit(
                "recovery", action="fallback", path=str(path),
                error=str(error)))
        if loaded is not None:
            checkpoint, path = loaded
            checkpoint.restore(model, optimizer, rng=rng)
            history = checkpoint.history
            step = checkpoint.global_step
            start_epoch = checkpoint.epoch + 1
            emit("recovery", action="resume", epoch=checkpoint.epoch,
                 global_step=step, path=str(path))
    guard = None
    if recovery is not None:
        def _rewind(extras):
            nonlocal step
            step = int(extras.get("step", step))
        guard = DivergenceGuard(recovery, model, optimizer, emit=emit,
                                on_rollback=_rewind)
        guard.record_good(extras={"step": step})
    if tracer is None:
        tracer = Tracer(emit=emit) if buses else Tracer()
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
                    value = loss.item()
                    if guard is not None:
                        if not guard.loss_ok(value):
                            guard.strike("non_finite_loss", stage="search",
                                         epoch=epoch, step=step, loss=value)
                            continue
                        loss.backward()
                        if not guard.gradients_ok():
                            guard.strike("non_finite_gradient",
                                         stage="search", epoch=epoch,
                                         step=step, loss=value)
                            continue
                    else:
                        if not np.isfinite(value):
                            raise non_finite_loss_error(value, epoch, step)
                        loss.backward()
                    optimizer.step()
                    losses.append(value)
                    step += 1
                record = EpochRecord(epoch=epoch,
                                     train_loss=_mean_loss(losses))
                if val is not None and len(val) > 0:
                    metrics = evaluate_model(model, val)
                    record.val_auc = metrics["auc"]
                    record.val_log_loss = metrics["log_loss"]
                history.append(record)
                # The α snapshot is the search's decision step — its own
                # span so a trace shows where selection time goes.
                with tracer.span("search.alpha_update", epoch=epoch):
                    _emit_search_epoch(buses, model, record, temperature,
                                       stage="search")
                epoch_span.set_attr("train_loss", record.train_loss)
            if manager is not None:
                path = manager.save(TrainingCheckpoint.capture(
                    model, optimizer, epoch=epoch, global_step=step, rng=rng,
                    history=history))
                emit("checkpoint", epoch=epoch, global_step=step,
                     path=str(path))
            if guard is not None:
                guard.record_good(extras={"step": step})
        run_span.set_attr("steps", step)
    return SearchResult(
        architecture=model.derive_architecture(),
        alpha=model.combination.alpha.data.copy(),
        history=history,
        model=model,
    )


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
    alpha_ids = {id(p) for p in model.architecture_parameters()}
    theta_groups = [g for g in _parameter_groups(model, config)
                    if not any(id(p) in alpha_ids for p in g["params"])]
    theta_opt = Adam(theta_groups)
    alpha_opt = Adam(model.architecture_parameters(), lr=config.lr_arch)
    history = History()

    def _val_batches():
        while True:
            yield from val.iter_batches(config.batch_size, shuffle=True, rng=rng)

    val_stream = _val_batches()
    buses = _search_buses(config, bus)
    emit = _bus_emitter(buses)
    guard = None
    step = 0
    if recovery is not None:
        guard = DivergenceGuard(recovery, model, [theta_opt, alpha_opt],
                                emit=emit)
        guard.record_good()
    if tracer is None:
        tracer = Tracer(emit=emit) if buses else Tracer()
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
                    value = loss.item()
                    if guard is None and not np.isfinite(value):
                        raise non_finite_loss_error(value, epoch, step)
                    if guard is not None and not guard.loss_ok(value):
                        guard.strike("non_finite_loss", stage="bilevel",
                                     level="theta", epoch=epoch, step=step,
                                     loss=value)
                    else:
                        loss.backward()
                        if guard is not None and not guard.gradients_ok():
                            guard.strike("non_finite_gradient",
                                         stage="bilevel", level="theta",
                                         epoch=epoch, step=step, loss=value)
                        else:
                            theta_opt.step()
                            losses.append(value)
                    # Upper level: architecture parameters on a validation
                    # batch.
                    val_batch = next(val_stream)
                    model.zero_grad()
                    val_loss = binary_cross_entropy_with_logits(
                        model(val_batch), val_batch.y)
                    val_value = val_loss.item()
                    if guard is None and not np.isfinite(val_value):
                        raise non_finite_loss_error(val_value, epoch, step,
                                                    "validation")
                    if guard is not None and not guard.loss_ok(val_value):
                        guard.strike("non_finite_loss", stage="bilevel",
                                     level="alpha", epoch=epoch, step=step,
                                     loss=val_value)
                    else:
                        val_loss.backward()
                        if guard is not None and not guard.gradients_ok():
                            guard.strike("non_finite_gradient",
                                         stage="bilevel", level="alpha",
                                         epoch=epoch, step=step,
                                         loss=val_value)
                        else:
                            alpha_opt.step()
                    step += 1
                record = EpochRecord(epoch=epoch,
                                     train_loss=_mean_loss(losses))
                metrics = evaluate_model(model, val)
                record.val_auc = metrics["auc"]
                record.val_log_loss = metrics["log_loss"]
                history.append(record)
                with tracer.span("search.alpha_update", epoch=epoch):
                    _emit_search_epoch(buses, model, record, temperature,
                                       stage="bilevel")
                epoch_span.set_attr("train_loss", record.train_loss)
            if guard is not None:
                guard.record_good()
    return SearchResult(
        architecture=model.derive_architecture(),
        alpha=model.combination.alpha.data.copy(),
        history=history,
        model=model,
    )


def random_architecture(num_pairs: int,
                        rng: Optional[np.random.Generator] = None) -> Architecture:
    """The Random baseline: one uniformly random method per interaction."""
    return Architecture.random(num_pairs, rng=rng)
