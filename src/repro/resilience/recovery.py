"""Divergence recovery: skip poisoned batches, roll back, retry.

Production CTR training treats a NaN spike as routine weather, not a
fatal error: a single corrupt batch or an optimistic learning rate can
push the loss (or the gradients) non-finite, and the right reaction is
usually *skip the batch*; if the blow-ups keep coming, *roll back to the
last known-good state and try again more conservatively*.

:class:`RecoveryPolicy` is the knob set; :class:`DivergenceGuard` is the
mechanism, used by :class:`~repro.training.trainer.Trainer` and so by
the search stages of :mod:`repro.core.search`, which run on it:

* each non-finite loss or gradient is a **strike**: the batch's update is
  discarded and a ``recovery`` event (``action="skip"``) is emitted;
* after ``max_batch_skips`` strikes the guard **rolls back** to the most
  recent snapshot (taken at epoch boundaries via :meth:`record_good`),
  multiplies every parameter-group learning rate by ``lr_factor`` and
  resets the strike count (``action="rollback"``);
* after ``max_restarts`` rollbacks the guard gives up and raises,
  surfacing the original failure context.

The guard holds snapshots in memory (model + optimizer ``state_dict``),
which keeps it independent of any checkpoint directory — rollback works
even for runs that never touch disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from ..nn.module import Module
from ..nn.optim import Optimizer
from ..nn.sparse import SparseGrad

Emitter = Callable[..., None]


@dataclass
class RecoveryPolicy:
    """Knobs for divergence handling.

    ``max_batch_skips``
        Strikes tolerated since the last good snapshot before rolling
        back.  ``0`` rolls back on the very first non-finite batch.
    ``max_restarts``
        Rollbacks tolerated before the original error is raised.
    ``lr_factor``
        Multiplier applied to every parameter group's learning rate at
        each rollback (the classic "halve it and retry").
    ``check_gradients``
        Also test gradient finiteness after backward (catches poison
        that has not yet reached the loss).  Costs one ``isfinite``
        reduction per parameter per step.
    """

    max_batch_skips: int = 3
    max_restarts: int = 2
    lr_factor: float = 0.5
    check_gradients: bool = True

    def __post_init__(self) -> None:
        if self.max_batch_skips < 0:
            raise ValueError(
                f"max_batch_skips must be >= 0, got {self.max_batch_skips}")
        if self.max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {self.max_restarts}")
        if not 0 < self.lr_factor <= 1:
            raise ValueError(
                f"lr_factor must be in (0, 1], got {self.lr_factor}")


class DivergenceGuard:
    """Strike counting, snapshotting and rollback for one training run.

    ``emit`` receives ``recovery`` events (signature matching
    ``lambda event_type, **payload: ...``); ``on_rollback`` receives the
    ``extras`` dict stored with the restored snapshot so the caller can
    rewind its own counters (e.g. the trainer's global step).
    """

    def __init__(self, policy: RecoveryPolicy, model: Module,
                 optimizers: Union[Optimizer, Sequence[Optimizer]],
                 emit: Optional[Emitter] = None,
                 on_rollback: Optional[Callable[[Dict[str, Any]], None]] = None,
                 ) -> None:
        self.policy = policy
        self.model = model
        self.optimizers: List[Optimizer] = (
            [optimizers] if isinstance(optimizers, Optimizer)
            else list(optimizers))
        self._emit = emit
        self._on_rollback = on_rollback
        self.strikes = 0
        self.restarts = 0
        self._snapshot: Optional[Dict[str, Any]] = None

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def record_good(self, extras: Optional[Dict[str, Any]] = None) -> None:
        """Mark the current state as known-good (epoch boundaries)."""
        self._snapshot = {
            "model": self.model.state_dict(),
            "optimizers": [opt.state_dict() for opt in self.optimizers],
            "extras": dict(extras or {}),
        }
        self.strikes = 0

    # ------------------------------------------------------------------
    # Checks
    # ------------------------------------------------------------------
    def loss_ok(self, value: float) -> bool:
        return bool(np.isfinite(value))

    def gradients_ok(self) -> bool:
        if not self.policy.check_gradients:
            return True
        for param in self.model.parameters():
            grad = param.grad
            if grad is None:
                continue
            # Sparse row-gradients: untouched rows are implicitly zero
            # (finite), so only the stored values need checking.
            values = grad.values if isinstance(grad, SparseGrad) else grad
            if not np.all(np.isfinite(values)):
                return False
        return True

    # ------------------------------------------------------------------
    # Strike handling
    # ------------------------------------------------------------------
    def strike(self, reason: str, **context: Any) -> None:
        """One poisoned batch: skip it, and roll back past the limit.

        Raises ``RuntimeError`` carrying ``context`` once the restart
        budget is spent.
        """
        self.strikes += 1
        self._publish("skip", reason=reason, strikes=self.strikes, **context)
        if self.strikes > self.policy.max_batch_skips:
            self._rollback(reason, context)

    def _rollback(self, reason: str, context: Dict[str, Any]) -> None:
        if self.restarts >= self.policy.max_restarts:
            detail = ", ".join(f"{k}={v}" for k, v in context.items())
            raise RuntimeError(
                f"training diverged ({reason}; {detail}) and did not "
                f"recover after {self.restarts} rollback(s); giving up")
        if self._snapshot is None:
            raise RuntimeError(
                f"training diverged ({reason}) before any good state was "
                "recorded; nothing to roll back to")
        self.restarts += 1
        self.strikes = 0
        self.model.load_state_dict(self._snapshot["model"])
        for opt, state in zip(self.optimizers, self._snapshot["optimizers"]):
            opt.load_state_dict(state)
        new_lrs = []
        for opt in self.optimizers:
            for group in opt.param_groups:
                group["lr"] = group["lr"] * self.policy.lr_factor
                new_lrs.append(group["lr"])
        self._publish("rollback", reason=reason, restarts=self.restarts,
                      lr_factor=self.policy.lr_factor, lrs=new_lrs,
                      **context)
        if self._on_rollback is not None:
            self._on_rollback(dict(self._snapshot["extras"]))

    def _publish(self, action: str, **payload: Any) -> None:
        if self._emit is not None:
            self._emit("recovery", action=action, **payload)
