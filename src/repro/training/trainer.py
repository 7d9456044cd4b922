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

The search loops of :mod:`repro.core` share these policies through the
module-level helpers: :func:`guarded_backward` (the per-batch non-finite
check), :func:`mean_loss`, :class:`EventFanout`, :func:`resume_latest`
and :func:`save_checkpoint`.
"""

from __future__ import annotations

import time
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.dataset import Batch, CTRDataset
from ..fsutil import PathLike
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
    """Predicted click probabilities for a whole dataset (eval mode)."""
    from ..nn.tensor import no_grad

    was_training = model.training
    model.eval()
    chunks = []
    with no_grad():
        for batch in dataset.iter_batches(batch_size):
            logits = model(batch)
            chunks.append(logits.sigmoid().numpy().ravel())
    model.train(was_training)
    # The empty case must match the dtype of the populated case so
    # downstream metric code never branches on dtype.
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.float64)


def evaluate_model(model: Module, dataset: CTRDataset,
                   batch_size: int = 4096) -> Dict[str, float]:
    """AUC and log loss of ``model`` on ``dataset``."""
    probs = predict_dataset(model, dataset, batch_size=batch_size)
    return evaluate_predictions(dataset.y, probs)


def non_finite_loss_error(value: float, epoch: int, step: int,
                          split: str = "training") -> RuntimeError:
    """The fail-fast error of a training loop that runs without a guard.

    ``split`` names the data the bad batch came from ("training", or
    "validation" for the α level of the bi-level search).
    """
    return RuntimeError(
        f"non-finite {split} loss ({value}) at epoch {epoch}, global step "
        f"{step}; lower the learning rate or inspect the input data"
    )


def mean_loss(losses: List[float]) -> float:
    """An epoch's mean batch loss; NaN when the guard skipped every batch."""
    return float(np.mean(losses)) if losses else float("nan")


def guarded_backward(loss: Tensor, guard: Optional[DivergenceGuard], *,
                     epoch: int, step: int, split: str = "training",
                     after_backward: Optional[Callable[[], None]] = None,
                     **labels) -> Optional[float]:
    """One batch's backward pass; the loss value, or ``None`` if struck.

    A non-finite loss raises without a guard and is a strike with one;
    so are non-finite gradients after ``after_backward`` (fault hooks).
    ``labels`` lead each strike's payload.  The caller owns ``zero_grad``
    and the optimizer step.
    """
    value = loss.item()
    if not np.isfinite(value):
        if guard is None:
            raise non_finite_loss_error(value, epoch, step, split)
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


class EventFanout:
    """Emitter fanning out to the caller's bus plus a console bus when
    verbose; :meth:`tracer` sends spans through the same buses."""

    def __init__(self, bus: Optional[EventBus], verbose: bool) -> None:
        self.buses: List[EventBus] = [] if bus is None else [bus]
        if verbose:
            self.buses.append(EventBus([ConsoleSink()]))

    def __call__(self, event_type: str, **payload) -> None:
        for bus in self.buses:
            bus.emit(event_type, **payload)

    def tracer(self, tracer: Optional[Tracer] = None) -> Tracer:
        """``tracer`` if given (deterministic clock/ids), else a default."""
        if tracer is not None:
            return tracer
        return Tracer(emit=self) if self.buses else Tracer()


def resume_latest(manager: CheckpointManager, model: Module,
                  optimizer: Optimizer, rng: np.random.Generator,
                  emit: Callable[..., None]
                  ) -> Optional[TrainingCheckpoint]:
    """Restore the newest valid checkpoint (``recovery`` events for each
    corrupt one skipped and the resume); returns it or ``None``."""
    loaded = manager.latest_valid(on_corrupt=lambda path, error: emit(
        "recovery", action="fallback", path=str(path), error=str(error)))
    if loaded is None:
        return None
    checkpoint, path = loaded
    checkpoint.restore(model, optimizer, rng=rng)
    emit("recovery", action="resume", epoch=checkpoint.epoch,
         global_step=checkpoint.global_step, path=str(path))
    return checkpoint


def save_checkpoint(manager: CheckpointManager,
                    checkpoint: TrainingCheckpoint,
                    emit: Callable[..., None]) -> None:
    """Write ``checkpoint`` atomically and emit its ``checkpoint`` event."""
    path = manager.save(checkpoint)
    emit("checkpoint", epoch=checkpoint.epoch,
         global_step=checkpoint.global_step, path=str(path))


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
    """

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
        # Spans fan out through the same buses as plain events, so the
        # trace file carries both.
        self._emit = EventFanout(bus, verbose)
        self.tracer = self._emit.tracer(tracer)
        self._guard: Optional[DivergenceGuard] = (
            DivergenceGuard(recovery, model, optimizer, emit=self._emit,
                            on_rollback=self._rewind)
            if recovery is not None else None)

    def _rewind(self, extras: Dict) -> None:
        """Rollback callback: rewind counters stored with the snapshot."""
        self._global_step = int(extras.get("global_step", self._global_step))

    def _clip_gradients(self) -> None:
        """Scale all gradients so their global L2 norm is at most the cap.

        Works for both dense and :class:`~repro.nn.sparse.SparseGrad`
        gradients: ``g * g`` and scalar scaling are row-local, and a
        sparse gradient's untouched rows contribute exact zeros to the
        norm.  The summation *grouping* differs from the dense path, so
        clipped runs agree mathematically but not bitwise across paths
        (see docs/performance.md).
        """
        total = 0.0
        grads = [p.grad for p in self.model.parameters() if p.grad is not None]
        for grad in grads:
            total += float((grad * grad).sum())
        norm = np.sqrt(total)
        if norm > self.grad_clip_norm and norm > 0:
            scale = self.grad_clip_norm / norm
            for param in self.model.parameters():
                if param.grad is not None:
                    param.grad = param.grad * scale

    def _decay_learning_rates(self) -> None:
        for group in self.optimizer.param_groups:
            group["lr"] = group["lr"] * self.lr_decay

    def train_epoch(self, train: CTRDataset, epoch: int = 0) -> float:
        """One pass over the training data; returns the mean batch loss.

        Without a recovery policy a non-finite loss raises immediately;
        with one, poisoned batches are skipped (and counted as strikes)
        instead — see :class:`~repro.resilience.recovery.DivergenceGuard`.
        """
        self.model.train()
        losses = []
        for batch in train.iter_batches(self.batch_size, shuffle=True, rng=self.rng):
            self.optimizer.zero_grad()
            logits = self.model(batch)
            loss = binary_cross_entropy_with_logits(logits, batch.y)
            value = guarded_backward(
                loss, self._guard, epoch=epoch, step=self._global_step,
                after_backward=None if self.on_backward is None else partial(
                    self.on_backward, self.model, batch, self._global_step))
            if value is None:
                continue
            if self.grad_clip_norm is not None:
                self._clip_gradients()
            self.optimizer.step()
            losses.append(value)
            self._global_step += 1
            if (self.log_every is not None
                    and self._global_step % self.log_every == 0):
                self._emit("step", epoch=epoch, step=self._global_step,
                           loss=value)
            if self.on_step is not None:
                self.on_step(self.model, batch, value)
        return mean_loss(losses)

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
            history = self._fit(train, val, run_span)
        return history

    def _fit(self, train: CTRDataset, val: Optional[CTRDataset],
             run_span) -> History:
        run_start = time.perf_counter()
        history = History()
        best_auc = -np.inf
        best_state = None
        stale = 0
        start_epoch = 0
        if self.checkpoints is not None and self.resume:
            checkpoint = resume_latest(self.checkpoints, self.model,
                                       self.optimizer, self.rng, self._emit)
            if checkpoint is not None:
                self._global_step = checkpoint.global_step
                history = checkpoint.history
                start_epoch = checkpoint.epoch + 1
                saved_auc = checkpoint.extras.get("best_auc")
                best_auc = -np.inf if saved_auc is None else float(saved_auc)
                stale = int(checkpoint.extras.get("stale", 0))
                best_state = checkpoint.best_state
        self._emit("run_start", model=type(self.model).__name__,
                   params=self.model.num_parameters(),
                   n_train=len(train), n_val=len(val) if val is not None else 0,
                   batch_size=self.batch_size, max_epochs=self.max_epochs)
        if self._guard is not None:
            self._guard.record_good(extras={"global_step": self._global_step})
        for epoch in range(start_epoch, self.max_epochs):
            # Checked at the top so a resume from the early-stop epoch's
            # checkpoint does not train past where the original stopped.
            if val is not None and stale >= self.patience:
                break
            epoch_start = time.perf_counter()
            with self.tracer.span("train.epoch", parent=run_span,
                                  epoch=epoch) as epoch_span:
                train_loss = self.train_epoch(train, epoch=epoch)
                if self.lr_decay is not None:
                    self._decay_learning_rates()
                record = EpochRecord(epoch=epoch, train_loss=train_loss)
                if val is not None and len(val) > 0:
                    with self.tracer.span("train.eval", split="val",
                                          epoch=epoch) as eval_span:
                        metrics = evaluate_model(self.model, val)
                        eval_span.set_attr("auc", metrics["auc"])
                    record.val_auc = metrics["auc"]
                    record.val_log_loss = metrics["log_loss"]
                    self._emit("eval", split="val", epoch=epoch,
                               auc=record.val_auc,
                               log_loss=record.val_log_loss)
                    if record.val_auc > best_auc:
                        best_auc = record.val_auc
                        best_state = self.model.state_dict()
                        stale = 0
                    else:
                        stale += 1
                epoch_span.set_attr("train_loss", train_loss)
            history.append(record)
            self._emit("epoch_end", epoch_s=time.perf_counter() - epoch_start,
                       **record.as_dict())
            if self.checkpoints is not None:
                save_checkpoint(self.checkpoints, TrainingCheckpoint.capture(
                    self.model, self.optimizer, epoch=epoch,
                    global_step=self._global_step, rng=self.rng,
                    history=history,
                    extras={"best_auc": (None if best_auc == -np.inf
                                         else float(best_auc)),
                            "stale": int(stale)},
                    best_state=best_state), self._emit)
            if self._guard is not None:
                self._guard.record_good(
                    extras={"global_step": self._global_step})
        if best_state is not None:
            self.model.load_state_dict(best_state)
        run_span.set_attr("epochs_run", len(history))
        if best_auc != -np.inf:
            run_span.set_attr("best_val_auc", best_auc)
        self._emit("run_end", epochs_run=len(history),
                   best_val_auc=None if best_auc == -np.inf else best_auc,
                   wall_s=time.perf_counter() - run_start)
        return history
