"""Hot checkpoint reload: pick up new weights without dropping traffic.

A training job writes :class:`~repro.resilience.checkpoint.
TrainingCheckpoint` archives into a directory; the serving replica
watches that directory and promotes newer checkpoints through a strict
pipeline:

1. **read with retry** — transient ``OSError``s back off exponentially
   with jitter (:func:`~repro.backoff.retry_with_backoff`);
2. **integrity** — checksum/version failures surface as
   :class:`CorruptCheckpointError` and the file is remembered as bad so
   it is not re-tried every poll;
3. **golden validation** — the candidate model (a *fresh* instance from
   ``model_factory``; the live model is never mutated) must answer a
   fixed golden-request set with finite probabilities in ``[0, 1]``,
   optionally within a tolerance of recorded expectations;
4. **atomic swap** — only then does :meth:`PredictionService.swap_model`
   flip the reference.  Any failure rolls back by simply not swapping:
   the previous model keeps serving.

Every attempt emits a ``reload`` event (``status`` = ``ok`` /
``corrupt`` / ``golden_failed`` / ``io_retry`` / ``error``) so the
promote/rollback history reconstructs from the trace.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backoff import retry_with_backoff
from ..models.base import CTRModel
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..poller import Poller
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


class HotReloader:
    """Watches a checkpoint directory and promotes validated models.

    ``model_factory`` builds an architecture-matched, uninitialised
    model; the checkpoint's ``model_state`` is loaded into that fresh
    instance so a half-applied load can never corrupt the live model.
    Use :meth:`poll_once` for deterministic tests and explicit control,
    or :meth:`start` for a background polling thread.
    """

    def __init__(self, service: PredictionService,
                 manager: CheckpointManager,
                 model_factory: Callable[[], CTRModel],
                 golden: Optional[GoldenSet] = None,
                 interval_s: float = 1.0,
                 retries: int = 3,
                 bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.service = service
        self.manager = manager
        self.model_factory = model_factory
        self.golden = golden
        self.interval_s = interval_s
        self.retries = retries
        self.bus = bus
        self.metrics = metrics if metrics is not None else service.metrics
        self._sleep = sleep
        self._loaded_epoch: Optional[int] = None
        self._bad_paths: Dict[str, float] = {}
        self.poller = Poller(
            self.poll_once, lambda: self.interval_s,
            lambda exc: self._emit("error", error=str(exc)), "hot-reloader")

    # ------------------------------------------------------------------
    def _emit(self, status: str, **payload) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"serve.reload.{status}").inc()
        if self.bus is not None:
            self.bus.emit("reload", status=status, **payload)

    def _is_bad(self, path: Path) -> bool:
        """Known bad, keyed by path + mtime so a rewritten file gets a
        fresh chance; a file that cannot be statted is skipped too."""
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return True
        return self._bad_paths.get(str(path)) == mtime

    def poll_once(self) -> bool:
        """One reload attempt; True iff a new model was promoted.

        When a candidate exists the whole read→integrity→golden→swap
        pipeline runs inside a ``serve.reload`` span (idle polls stay
        span-free, so traces only show reloads that did work).
        """
        found = newest_candidate(self.manager, self._loaded_epoch,
                                 self._is_bad)
        if found is None:
            return False
        path = found[0]
        with self.service.tracer.span("serve.reload",
                                      path=str(path)) as span:
            promoted = self._attempt_reload(path, span)
            span.set_attr("promoted", promoted)
        return promoted

    def _attempt_reload(self, path: Path, span) -> bool:
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False
        try:
            checkpoint, candidate_model = admit_checkpoint(
                path, self.model_factory, service=self.service,
                golden=self.golden, retries=self.retries, sleep=self._sleep,
                on_retry=lambda attempt, exc: self._emit(
                    "io_retry", path=str(path), attempt=attempt,
                    error=str(exc)))
        except OSError as exc:
            self._emit("error", path=str(path), error=str(exc))
            span.mark_error(exc)
            return False
        except CheckpointRefused as refused:
            self._bad_paths[str(path)] = mtime
            epoch = {} if refused.epoch is None else {"epoch": refused.epoch}
            self._emit(refused.status, path=str(path), error=str(refused),
                       **epoch)
            span.set_attr("outcome", refused.status)
            return False

        version = f"epoch-{checkpoint.epoch:08d}"
        previous = self.service.swap_model(candidate_model, version)
        self._loaded_epoch = checkpoint.epoch
        self._emit("ok", path=str(path), epoch=checkpoint.epoch,
                   version=version, previous_version=previous)
        span.set_attr("outcome", "ok")
        span.set_attr("version", version)
        return True

    def start(self) -> None:
        """Begin background polling (daemon thread; idempotent)."""
        self.poller.start()

    def stop(self, timeout: float = 5.0) -> None:
        self.poller.stop(timeout)
