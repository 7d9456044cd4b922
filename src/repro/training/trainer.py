"""Mini-batch training loop with validation-based early stopping.

Implements the optimisation protocol of the paper's Algorithms 1 and 2:
mini-batch gradient descent on the cross-entropy loss (Eq. 13), with all
registered parameters (including, for OptInter's search stage, the
architecture parameters α) updated simultaneously by the supplied
optimizer.  Early stopping restores the parameters of the best validation
epoch, matching common CTR practice.

Observability: the trainer publishes ``run_start`` / ``epoch_end`` /
``eval`` / ``step`` / ``run_end`` events on an optional
:class:`~repro.obs.events.EventBus`; ``verbose=True`` is sugar for
attaching a :class:`~repro.obs.events.ConsoleSink`-backed bus, so the
human-readable log and a JSONL trace are the same event stream.

Resilience: with ``checkpoint_dir`` set the trainer writes a full-state
:class:`~repro.resilience.checkpoint.TrainingCheckpoint` (model +
optimizer + RNG + counters + history + early-stopping state) after every
epoch, and ``resume=True`` continues from the newest *valid* checkpoint
— falling back past a corrupt one — reproducing the uninterrupted run
bit-for-bit.  With a :class:`~repro.resilience.recovery.RecoveryPolicy`
the loop survives non-finite losses/gradients by skipping the poisoned
batch and, past a strike budget, rolling back to the last good state
with the learning rate halved; every skip/rollback/resume emits a
``recovery`` event.

:meth:`Trainer._fit` is the only epoch loop.  The search stages of
:mod:`repro.core` (joint, bi-level and higher-order) *are* ``Trainer``
configurations: subclasses that override its hooks (see
:class:`Trainer`), so every loop runs the same epoch span, validation
pass, history record, checkpoint save and divergence guard.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..data.dataset import Batch, CTRDataset
from ..fsutil import PathLike
from ..nn import functional as F
from ..nn.losses import binary_cross_entropy_with_logits
from ..nn.module import Module
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor
from ..obs.events import ConsoleSink, EventBus
from ..obs.tracing import Tracer
from ..resilience.checkpoint import CheckpointManager, TrainingCheckpoint
from ..resilience.recovery import DivergenceGuard, RecoveryPolicy
from .history import EpochRecord, History
from .metrics import evaluate_predictions


def predict_dataset(model: Module, dataset: CTRDataset,
                    batch_size: int = 4096) -> np.ndarray:
    """Predicted click probabilities for a whole dataset, scored chunk by
    chunk through ``model.predict_proba`` (eval mode, no graph)."""
    chunks = [model.predict_proba(batch)
              for batch in dataset.iter_batches(batch_size)]
    # The empty case must match the dtype of the populated case so
    # downstream metric code never branches on dtype.
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def evaluate_model(model: Module, dataset: CTRDataset,
                   batch_size: int = 4096) -> Dict[str, float]:
    """AUC and log loss of ``model`` on ``dataset``."""
    probs = predict_dataset(model, dataset, batch_size=batch_size)
    return evaluate_predictions(dataset.y, probs)


def guarded_backward(loss: Tensor, guard: Optional[DivergenceGuard], *,
                     epoch: int, step: int, split: str = "training",
                     after_backward: Optional[Callable[[], None]] = None,
                     **labels) -> Optional[float]:
    """One batch's backward pass; the loss value, or ``None`` if struck.

    A non-finite loss raises without a guard and is a strike with one;
    so are non-finite gradients after ``after_backward`` (fault hooks).
    ``split`` names the batch's data in the error ("training", or
    "validation" for the α level of the bi-level search); ``labels``
    lead each strike's payload.  The caller owns ``zero_grad`` and the
    optimizer step.
    """
    value = loss.item()
    if not np.isfinite(value):
        if guard is None:
            raise RuntimeError(
                f"non-finite {split} loss ({value}) at epoch {epoch}, global "
                f"step {step}; lower the learning rate or inspect the input "
                "data")
        guard.strike("non_finite_loss", **labels, epoch=epoch, step=step,
                     loss=value)
        return None
    loss.backward()
    if after_backward is not None:
        after_backward()
    if guard is not None and not guard.gradients_ok():
        guard.strike("non_finite_gradient", **labels, epoch=epoch,
                     step=step, loss=value)
        return None
    return value


class Trainer:
    """Orchestrates epochs, early stopping and best-weight restoration.

    ``bus`` receives structured events for every epoch (and, when
    ``log_every`` is set, every ``log_every``-th step).  ``verbose``
    keeps its historical meaning — per-epoch progress on stdout — but is
    now routed through the same event layer.

    ``recovery`` enables divergence recovery (see module docstring);
    without it a non-finite loss raises immediately, preserving the
    historical fail-fast behaviour.  ``checkpoint_dir`` enables
    per-epoch full-state checkpoints with ``keep_last`` retention, and
    ``resume=True`` continues a previous run from that directory.
    ``on_backward`` runs between ``loss.backward()`` and the optimizer
    step (the hook fault injection uses to poison gradients);
    ``on_step`` runs after each applied update.

    A subclass changes the loop through five hooks: :meth:`fit` (the run
    span and run events around :meth:`_fit`), :meth:`_epoch` (the epoch
    span and report), :meth:`_validate`, :meth:`_checkpoint_extras` and
    :meth:`_step`; ``strike_labels`` lead every recovery strike's
    payload.  The search stages of :mod:`repro.core` are such subclasses.
    """

    strike_labels: Dict[str, str] = {}

    def __init__(
        self,
        model: Module,
        optimizer: Optimizer,
        batch_size: int = 512,
        max_epochs: int = 20,
        patience: int = 3,
        rng: Optional[np.random.Generator] = None,
        on_step: Optional[Callable[[Module, Batch, float], None]] = None,
        grad_clip_norm: Optional[float] = None,
        lr_decay: Optional[float] = None,
        verbose: bool = False,
        bus: Optional[EventBus] = None,
        log_every: Optional[int] = None,
        recovery: Optional[RecoveryPolicy] = None,
        checkpoint_dir: Optional[PathLike] = None,
        keep_last: int = 3,
        resume: bool = False,
        on_backward: Optional[Callable[[Module, Batch, int], None]] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if lr_decay is not None and not 0 < lr_decay <= 1:
            raise ValueError("lr_decay must be in (0, 1]")
        if log_every is not None and log_every < 1:
            raise ValueError(f"log_every must be >= 1, got {log_every}")
        if resume and checkpoint_dir is None:
            raise ValueError("resume=True requires checkpoint_dir")
        self.model = model
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.max_epochs = max_epochs
        self.patience = patience
        self.rng = rng or np.random.default_rng()
        self.on_step = on_step
        self.on_backward = on_backward
        self.grad_clip_norm = grad_clip_norm
        self.lr_decay = lr_decay
        self.verbose = verbose
        self.bus = bus
        self.log_every = log_every
        self.resume = resume
        self.checkpoints: Optional[CheckpointManager] = (
            CheckpointManager(Path(checkpoint_dir), keep_last=keep_last)
            if checkpoint_dir is not None else None)
        self._global_step = 0
        self._epoch_losses: List[float] = []
        # Events fan out to the caller's bus plus a console bus when
        # verbose; spans go through the same buses, so the trace file
        # carries both.
        self._buses: List[EventBus] = [] if bus is None else [bus]
        if verbose:
            self._buses.append(EventBus([ConsoleSink()]))
        if tracer is None:
            tracer = Tracer(emit=self._emit) if self._buses else Tracer()
        self.tracer = tracer
        self._guard: Optional[DivergenceGuard] = (
            DivergenceGuard(recovery, model, optimizer, emit=self._emit,
                            on_rollback=self._rewind)
            if recovery is not None else None)

    def _emit(self, event_type: str, **payload) -> None:
        for bus in self._buses:
            bus.emit(event_type, **payload)

    def _rewind(self, extras: Dict) -> None:
        """Rollback callback: rewind counters stored with the snapshot and
        drop the epoch's losses, whose updates the rollback discarded."""
        self._global_step = int(extras.get("global_step", self._global_step))
        self._epoch_losses.clear()

    def _clip_gradients(self) -> None:
        """Scale all gradients so their global L2 norm is at most the cap
        (see :func:`~repro.nn.functional.clip_by_global_norm`)."""
        params = [p for p in self.model.parameters() if p.grad is not None]
        clipped = F.clip_by_global_norm([p.grad for p in params],
                                        self.grad_clip_norm)
        for param, grad in zip(params, clipped):
            param.grad = grad

    def _decay_learning_rates(self) -> None:
        for group in self.optimizer.param_groups:
            group["lr"] = group["lr"] * self.lr_decay

    def _step(self, batch: Batch, epoch: int) -> Optional[float]:
        """One guarded update on ``batch``; its loss, or ``None`` if the
        guard struck it (struck updates do not count as steps)."""
        self.optimizer.zero_grad()
        loss = binary_cross_entropy_with_logits(self.model(batch), batch.y)
        value = guarded_backward(
            loss, self._guard, epoch=epoch, step=self._global_step,
            after_backward=None if self.on_backward is None else partial(
                self.on_backward, self.model, batch, self._global_step),
            **self.strike_labels)
        if value is not None:
            if self.grad_clip_norm is not None:
                self._clip_gradients()
            self.optimizer.step()
            self._global_step += 1
        return value

    def train_epoch(self, train: CTRDataset, epoch: int = 0) -> float:
        """One pass over the training data; returns the mean batch loss
        (NaN when the guard skipped every batch) over the updates kept
        after the epoch's last rollback.

        Without a recovery policy a non-finite loss raises immediately;
        with one, poisoned batches are skipped (and counted as strikes)
        instead — see :class:`~repro.resilience.recovery.DivergenceGuard`.
        """
        self.model.train()
        losses = self._epoch_losses
        losses.clear()
        for batch in train.iter_batches(self.batch_size, shuffle=True, rng=self.rng):
            value = self._step(batch, epoch)
            if value is None:
                continue
            losses.append(value)
            if (self.log_every is not None
                    and self._global_step % self.log_every == 0):
                self._emit("step", epoch=epoch, step=self._global_step,
                           loss=value)
            if self.on_step is not None:
                self.on_step(self.model, batch, value)
        return float(np.mean(losses)) if losses else float("nan")

    def fit(self, train: CTRDataset, val: Optional[CTRDataset] = None) -> History:
        """Train until convergence or ``max_epochs``.

        With a validation set, stops after ``patience`` epochs without AUC
        improvement and restores the best epoch's weights.  When resuming,
        the returned :class:`History` includes the epochs recorded before
        the interruption, so it matches the uninterrupted run's history.

        The whole run is a ``train.run`` span with one ``train.epoch``
        child per epoch (and a ``train.eval`` child per validation
        pass), sharing one trace id — the training-side mirror of the
        serving request trace.
        """
        with self.tracer.span("train.run",
                              model=type(self.model).__name__) as run_span:
            run_start = time.perf_counter()
            history, start_epoch = self._resume()
            self._emit("run_start", model=type(self.model).__name__,
                       params=self.model.num_parameters(),
                       n_train=len(train),
                       n_val=len(val) if val is not None else 0,
                       batch_size=self.batch_size, max_epochs=self.max_epochs)
            self._fit(train, val, history, start_epoch, run_span)
            if self._best_state is not None:
                self.model.load_state_dict(self._best_state)
            best_auc = None if self._best_auc == -np.inf else self._best_auc
            run_span.set_attr("epochs_run", len(history))
            if best_auc is not None:
                run_span.set_attr("best_val_auc", best_auc)
            self._emit("run_end", epochs_run=len(history),
                       best_val_auc=best_auc,
                       wall_s=time.perf_counter() - run_start)
        return history

    def _resume(self) -> Tuple[History, int]:
        """Reset the early-stopping state, then restore the newest valid
        checkpoint when resuming (a ``recovery`` event for each corrupt
        one skipped and for the resume); the history so far and the
        first epoch to run."""
        self._best_auc, self._stale, self._best_state = -np.inf, 0, None
        if self.checkpoints is None or not self.resume:
            return History(), 0
        loaded = self.checkpoints.latest_valid(
            on_corrupt=lambda path, error: self._emit(
                "recovery", action="fallback", path=str(path),
                error=str(error)))
        if loaded is None:
            return History(), 0
        checkpoint, path = loaded
        checkpoint.restore(self.model, self.optimizer, rng=self.rng)
        self._emit("recovery", action="resume", epoch=checkpoint.epoch,
                   global_step=checkpoint.global_step, path=str(path))
        self._global_step = checkpoint.global_step
        saved_auc = checkpoint.extras.get("best_auc")
        self._best_auc = -np.inf if saved_auc is None else float(saved_auc)
        self._stale = int(checkpoint.extras.get("stale", 0))
        self._best_state = checkpoint.best_state
        return checkpoint.history, checkpoint.epoch + 1

    def _fit(self, train: CTRDataset, val: Optional[CTRDataset],
             history: History, start_epoch: int, run_span) -> None:
        """The epoch loop: train, validate, record, checkpoint, and mark
        the state good for the divergence guard."""
        if self._guard is not None:
            self._guard.record_good(extras={"global_step": self._global_step})
        for epoch in range(start_epoch, self.max_epochs):
            # Checked at the top so a resume from the early-stop epoch's
            # checkpoint does not train past where the original stopped.
            if val is not None and self._stale >= self.patience:
                break
            with self._epoch(run_span, epoch) as record:
                record.train_loss = self.train_epoch(train, epoch=epoch)
                if self.lr_decay is not None:
                    self._decay_learning_rates()
                if val is not None and len(val) > 0:
                    self._validate(val, record)
            history.append(record)
            if self.checkpoints is not None:
                path = self.checkpoints.save(TrainingCheckpoint.capture(
                    self.model, self.optimizer, epoch=epoch,
                    global_step=self._global_step, rng=self.rng,
                    history=history, extras=self._checkpoint_extras(),
                    best_state=self._best_state))
                self._emit("checkpoint", epoch=epoch,
                           global_step=self._global_step, path=str(path))
            if self._guard is not None:
                self._guard.record_good(
                    extras={"global_step": self._global_step})

    @contextmanager
    def _epoch(self, run_span, epoch: int) -> Iterator[EpochRecord]:
        """The ``train.epoch`` span and ``epoch_end`` event around one
        epoch; the loop fills in the yielded record."""
        epoch_start = time.perf_counter()
        record = EpochRecord(epoch=epoch, train_loss=float("nan"))
        with self.tracer.span("train.epoch", parent=run_span,
                              epoch=epoch) as epoch_span:
            yield record
            epoch_span.set_attr("train_loss", record.train_loss)
        self._emit("epoch_end", epoch_s=time.perf_counter() - epoch_start,
                   **record.as_dict())

    def _validate(self, val: CTRDataset, record: EpochRecord) -> None:
        """Score ``val`` into ``record`` (a ``train.eval`` span and an
        ``eval`` event) and track the best epoch for early stopping."""
        with self.tracer.span("train.eval", split="val",
                              epoch=record.epoch) as eval_span:
            metrics = evaluate_model(self.model, val)
            eval_span.set_attr("auc", metrics["auc"])
        record.val_auc = metrics["auc"]
        record.val_log_loss = metrics["log_loss"]
        self._emit("eval", split="val", epoch=record.epoch,
                   auc=record.val_auc, log_loss=record.val_log_loss)
        if record.val_auc > self._best_auc:
            self._best_auc = record.val_auc
            self._best_state = self.model.state_dict()
            self._stale = 0
        else:
            self._stale += 1

    def _checkpoint_extras(self) -> Dict:
        """The early-stopping counters a resumed run continues from."""
        return {"best_auc": (None if self._best_auc == -np.inf
                             else float(self._best_auc)),
                "stale": int(self._stale)}
