"""Hot checkpoint reload: pick up new weights without dropping traffic.

A training job writes :class:`~repro.resilience.checkpoint.
TrainingCheckpoint` archives into a directory; the serving replica
watches that directory and promotes newer checkpoints through a strict
pipeline:

1. **read with retry** — transient ``OSError``s back off exponentially
   with jitter (:func:`~repro.serving.backoff.retry_with_backoff`);
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

import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..models.base import CTRModel
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..resilience.checkpoint import (CheckpointManager, CorruptCheckpointError,
                                     TrainingCheckpoint)
from .backoff import retry_with_backoff
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
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _emit(self, status: str, **payload) -> None:
        if self.metrics is not None:
            self.metrics.counter(f"serve.reload.{status}").inc()
        if self.bus is not None:
            self.bus.emit("reload", status=status, **payload)

    def _newest_candidate(self) -> Optional[str]:
        """Newest checkpoint path newer than the loaded epoch, skipping
        files already known to be bad (keyed by path + mtime, so a
        rewritten file gets a fresh chance)."""
        for path in reversed(self.manager.checkpoints()):
            epoch = self.manager._epoch_of(path)
            if epoch is None:
                continue
            if self._loaded_epoch is not None and epoch <= self._loaded_epoch:
                return None
            try:
                mtime = path.stat().st_mtime
            except OSError:
                continue
            if self._bad_paths.get(str(path)) == mtime:
                continue
            return str(path)
        return None

    def poll_once(self) -> bool:
        """One reload attempt; True iff a new model was promoted.

        When a candidate exists the whole read→integrity→golden→swap
        pipeline runs inside a ``serve.reload`` span (idle polls stay
        span-free, so traces only show reloads that did work).
        """
        candidate = self._newest_candidate()
        if candidate is None:
            return False
        with self.service.tracer.span("serve.reload",
                                      path=candidate) as span:
            promoted = self._attempt_reload(candidate, span)
            span.set_attr("promoted", promoted)
        return promoted

    def _attempt_reload(self, candidate: str, span) -> bool:
        from pathlib import Path

        path = Path(candidate)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False

        def _mark_bad() -> None:
            self._bad_paths[str(path)] = mtime

        # 1. Read (transient OSErrors retry with backoff + jitter).
        try:
            data = retry_with_backoff(
                path.read_bytes, retries=self.retries, sleep=self._sleep,
                on_retry=lambda attempt, exc: self._emit(
                    "io_retry", path=str(path), attempt=attempt,
                    error=str(exc)))
        except OSError as exc:
            self._emit("error", path=str(path), error=str(exc))
            span.mark_error(exc)
            return False

        # 2. Integrity.
        try:
            checkpoint = TrainingCheckpoint.from_bytes(data, source=str(path))
        except CorruptCheckpointError as exc:
            _mark_bad()
            self._emit("corrupt", path=str(path), error=str(exc))
            span.set_attr("outcome", "corrupt")
            return False

        # 3. Load into a fresh instance + golden validation.
        try:
            candidate_model = self.model_factory()
            candidate_model.load_state_dict(checkpoint.model_state)
        except Exception as exc:  # mismatched architecture, bad shapes...
            _mark_bad()
            self._emit("corrupt", path=str(path), error=str(exc))
            span.set_attr("outcome", "corrupt")
            return False
        if self.golden is not None:
            reason = self.golden.check(self.service, candidate_model)
            if reason is not None:
                _mark_bad()
                self._emit("golden_failed", path=str(path), error=reason,
                           epoch=checkpoint.epoch)
                span.set_attr("outcome", "golden_failed")
                return False

        # 4. Swap.
        version = f"epoch-{checkpoint.epoch:08d}"
        previous = self.service.swap_model(candidate_model, version)
        self._loaded_epoch = checkpoint.epoch
        self._emit("ok", path=str(path), epoch=checkpoint.epoch,
                   version=version, previous_version=previous)
        span.set_attr("outcome", "ok")
        span.set_attr("version", version)
        return True

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin background polling (daemon thread; idempotent)."""
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(self.interval_s):
                try:
                    self.poll_once()
                except Exception as exc:  # never kill the serving process
                    self._emit("error", error=str(exc))

        self._thread = threading.Thread(target=_loop, name="hot-reloader",
                                        daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None
