"""Checkpoint admission: the checks every served checkpoint passes first.

A training job writes :class:`~repro.resilience.checkpoint.
TrainingCheckpoint` archives into a directory; the
:class:`~repro.serving.rollout.CanaryController` watches that directory
and admits each new checkpoint through a strict pipeline before any
replica serves it:

1. **read with retry** — transient ``OSError``s back off exponentially
   with jitter (:func:`~repro.backoff.retry_with_backoff`);
2. **integrity** — checksum/version failures surface as
   :class:`CorruptCheckpointError` and refuse the file;
3. **load** — the weights go into a *fresh* instance from
   ``model_factory`` (the live model is never mutated), so a mismatched
   architecture refuses the file too;
4. **golden validation** — the candidate must answer a fixed
   golden-request set with finite probabilities in ``[0, 1]``,
   optionally within a tolerance of recorded expectations.

A refusal raises :class:`CheckpointRefused`; the controller records it
in the rollout manifest, and the previous model keeps serving.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backoff import retry_with_backoff
from ..models.base import CTRModel
from ..resilience.checkpoint import (CheckpointManager, CorruptCheckpointError,
                                     TrainingCheckpoint)
from .service import PredictionService


class GoldenSet:
    """Fixed requests with (optional) expected probabilities.

    ``requests`` are feature dicts exactly as clients send them;
    ``expected`` (parallel list, entries may be ``None``) pins the
    probability a healthy model must reproduce within ``tolerance`` —
    use predictions recorded at train time to catch silently-wrong
    weights, not just NaNs.
    """

    def __init__(self, requests: Sequence[Dict],
                 expected: Optional[Sequence[Optional[float]]] = None,
                 tolerance: float = 0.25) -> None:
        if expected is not None and len(expected) != len(requests):
            raise ValueError("expected must parallel requests")
        if tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {tolerance}")
        self.requests = list(requests)
        self.expected = list(expected) if expected is not None else None
        self.tolerance = tolerance
        self._row_cache: Dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.requests)

    def _score(self, service: PredictionService, model: CTRModel,
               i: int) -> float:
        """Request ``i`` scored alone on ``model``.

        Golden requests are fixed for the set's lifetime, so the row is
        validated once and cached: re-validating it on every reload poll
        is pure overhead, and the cached row also rides
        ``_build_batch_rows``'s ``pre_validated`` fast path, skipping
        the cross transform's id-range re-scan.
        """
        row = self._row_cache.get(i)
        if row is None:
            row = service.validator.validate(self.requests[i]).reshape(1, -1)
            self._row_cache[i] = row
        batch = service._build_batch_rows(row, model, pre_validated=True)
        return float(model.predict_proba(batch)[0])

    def check(self, service: PredictionService,
              model: CTRModel) -> Optional[str]:
        """Sanity-score ``model`` on every request; a one-line failure
        reason, or ``None`` when the model passes."""
        for i in range(len(self.requests)):
            try:
                probability = self._score(service, model, i)
            except Exception as exc:  # noqa: BLE001 — any failure vetoes
                return f"golden request {i} failed to score: {exc}"
            if not np.isfinite(probability) or not 0.0 <= probability <= 1.0:
                return (f"golden request {i} produced invalid "
                        f"probability {probability!r}")
            if self.expected is not None and self.expected[i] is not None:
                if abs(probability - self.expected[i]) > self.tolerance:
                    return (f"golden request {i} drifted: expected "
                            f"{self.expected[i]:.4f}±{self.tolerance}, "
                            f"got {probability:.4f}")
        return None

    @classmethod
    def record(cls, service: PredictionService,
               requests: Sequence[Dict],
               tolerance: float = 0.25) -> "GoldenSet":
        """Pin expectations from the currently-served model's answers."""
        model = service.model
        golden = cls(requests, tolerance=tolerance)
        expected: List[Optional[float]] = []
        for i in range(len(golden.requests)):
            try:
                expected.append(golden._score(service, model, i))
            except Exception:
                expected.append(None)
        golden.expected = expected
        return golden


class CheckpointRefused(Exception):
    """A checkpoint that must never be served: ``kind`` is ``corrupt``,
    ``load_failed`` or ``golden`` (then ``epoch`` is its own epoch)."""

    def __init__(self, kind: str, reason: str,
                 epoch: Optional[int] = None) -> None:
        super().__init__(reason)
        self.kind = kind
        self.epoch = epoch

    @property
    def status(self) -> str:
        """The event status every watcher reports for this refusal."""
        return "golden_failed" if self.kind == "golden" else "corrupt"


def admit_checkpoint(path: str, model_factory: Callable[[], CTRModel], *,
                     service: PredictionService,
                     golden: Optional[GoldenSet], retries: int,
                     sleep: Callable[[float], None],
                     on_retry: Optional[Callable[[int, BaseException], None]]
                     = None) -> Tuple[TrainingCheckpoint, CTRModel]:
    """Read, verify, load and golden-check one checkpoint file.

    Returns ``(checkpoint, model)`` with the weights in a *fresh*
    ``model_factory()`` instance, so a half-applied load never touches a
    live model; ``golden`` scores through ``service``'s validator.
    Transient ``OSError``s retry with backoff and propagate once the
    budget is spent (the file may read fine on a later poll); every
    other failure raises :class:`CheckpointRefused`.
    """
    data = retry_with_backoff(Path(path).read_bytes, retries=retries,
                              sleep=sleep, on_retry=on_retry)
    try:
        checkpoint = TrainingCheckpoint.from_bytes(data, source=str(path))
    except CorruptCheckpointError as exc:
        raise CheckpointRefused("corrupt", str(exc)) from exc
    try:
        model = model_factory()
        model.load_state_dict(checkpoint.model_state)
    except Exception as exc:  # noqa: BLE001 — mismatched architecture...
        raise CheckpointRefused("load_failed", str(exc)) from exc
    if golden is not None:
        reason = golden.check(service, model)
        if reason is not None:
            raise CheckpointRefused("golden", reason, checkpoint.epoch)
    return checkpoint, model


def newest_candidate(manager: CheckpointManager,
                     loaded_epoch: Optional[int],
                     is_bad: Callable[[Path], bool]
                     ) -> Optional[Tuple[Path, int]]:
    """The newest checkpoint strictly newer than ``loaded_epoch`` that
    ``is_bad`` does not reject, with its epoch; ``None`` if there is none."""
    for path in reversed(manager.checkpoints()):
        epoch = manager._epoch_of(path)
        if loaded_epoch is not None and epoch <= loaded_epoch:
            return None
        if not is_bad(path):
            return path, epoch
    return None
