"""The fault-tolerant prediction service: one answer per request.

:class:`PredictionService` wraps any trained :class:`~repro.models.base.
CTRModel` (zoo baselines, a retrained OptInter architecture, ...) and
guarantees that every request gets a typed answer:

* validation failures → an ``invalid`` response carrying the per-field
  report (never a traceback);
* scoring failures and deadline misses → a ``degraded`` response from
  the :class:`~repro.serving.degradation.DegradationLadder`, stepped
  down by the circuit breaker;
* overload → a ``shed`` response (produced by the server's queue, see
  :mod:`repro.serving.queue` — the service itself never queues).

Deadline semantics: each request carries a budget in seconds.  The
service will not *start* a full-model scoring it estimates (EWMA of past
scorings) cannot finish in the remaining budget — it answers from the
ladder instead of blocking.  A scoring that finishes late still counts
as a breaker failure (so repeated slowness opens the circuit) and the
late answer is discarded in favour of the ladder's, keeping the latency
contract honest.

Scoring has one path: :meth:`PredictionService.predict_batch`.  A
single request (:meth:`PredictionService.predict`) is a batch of one.

The model reference is swappable under a lock (:meth:`swap_model`),
which is what checkpoint rollout uses; in-flight requests finish on the
model they started with.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..data.dataset import Batch
from ..data.schema import Schema
from ..models.base import CTRModel
from ..nn.tensor import rowwise_matmul
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import DriftMonitor
from ..obs.tracing import Tracer
from .degradation import CircuitBreaker, DegradationLadder, LEVEL_FULL
from .errors import (InvalidRequestError, ModelUnavailableError,
                     OverloadedError)
from .validation import RequestValidator

#: Response statuses — every request resolves to exactly one.
STATUS_OK = "ok"
STATUS_DEGRADED = "degraded"
STATUS_INVALID = "invalid"
STATUS_SHED = "shed"


@dataclass
class PredictionResponse:
    """What the service answers; JSON-ready via :meth:`as_dict`."""

    status: str
    probability: Optional[float] = None
    served_by: Optional[str] = None
    model_version: Optional[str] = None
    request_id: Optional[str] = None
    latency_ms: Optional[float] = None
    degraded_reason: Optional[str] = None
    error: Optional[Dict[str, Any]] = None
    trace_id: Optional[str] = None

    @property
    def answered(self) -> bool:
        """True when the response carries a usable probability."""
        return self.probability is not None

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"status": self.status}
        for key in ("probability", "served_by", "model_version",
                    "request_id", "latency_ms", "degraded_reason", "error",
                    "trace_id"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass
class BatchRequest:
    """One request inside a coalesced scoring batch.

    ``queued_at`` is a timestamp on the service tracer's clock taken when
    the transport accepted the request; it fills the retroactive
    ``serve.queue`` span.  ``deadline_s=None`` means the service default.
    The service never writes to a request.
    """

    features: Any
    deadline_s: Optional[float] = None
    request_id: Optional[str] = None
    queued_at: Optional[float] = None


@dataclass
class _EwmaLatency:
    """Exponentially weighted scoring-latency estimate (thread-safe)."""

    alpha: float = 0.2
    value: Optional[float] = None
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def observe(self, seconds: float) -> None:
        with self._lock:
            if self.value is None:
                self.value = seconds
            else:
                self.value += self.alpha * (seconds - self.value)

    def __call__(self) -> float:
        with self._lock:
            return self.value if self.value is not None else 0.0


class PredictionService:
    """See module docstring.

    Parameters
    ----------
    model:
        The trained model to serve; ``None`` starts the service not
        ready (e.g. while the first checkpoint loads).
    schema:
        Field layout requests are validated against.
    cross_transform:
        Fitted :class:`~repro.data.cross.CrossProductTransform`,
        required when ``model.needs_cross``.
    prior_ctr:
        Calibrated constant fallback (training positive ratio).
    deadline_s:
        Default per-request budget; ``None`` means no deadline unless a
        request carries one.
    """

    def __init__(self, model: Optional[CTRModel], schema: Schema, *,
                 validator: Optional[RequestValidator] = None,
                 cross_transform=None,
                 prior_ctr: float = 0.5,
                 deadline_s: Optional[float] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 bus: Optional[EventBus] = None,
                 tracer: Optional[Tracer] = None,
                 drift: Optional[DriftMonitor] = None,
                 model_version: str = "initial",
                 clock=time.monotonic) -> None:
        self.schema = schema
        self.validator = validator or RequestValidator(schema)
        self.cross_transform = cross_transform
        self.deadline_s = deadline_s
        self.breaker = breaker or CircuitBreaker()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.bus = bus
        self.tracer = tracer if tracer is not None else Tracer(bus=bus)
        self.drift = drift
        self.ladder = DegradationLadder(prior_ctr, bus=bus,
                                        metrics=self.metrics)
        self.latency = _EwmaLatency()
        self._clock = clock
        self._model_lock = threading.Lock()
        self._model = model
        self._model_version = model_version
        self._ready = threading.Event()
        if model is not None:
            if model.needs_cross and cross_transform is None:
                raise ValueError(
                    f"{type(model).__name__} needs cross features; "
                    "provide a fitted cross_transform")
            self._ready.set()

    # ------------------------------------------------------------------
    # Model lifecycle
    # ------------------------------------------------------------------
    @property
    def model(self) -> Optional[CTRModel]:
        with self._model_lock:
            return self._model

    @property
    def model_version(self) -> str:
        with self._model_lock:
            return self._model_version

    @property
    def ready(self) -> bool:
        return self._ready.is_set()

    def swap_model(self, model: CTRModel, version: str) -> str:
        """Atomically replace the served model; returns the old version."""
        if model.needs_cross and self.cross_transform is None:
            raise ValueError(
                f"{type(model).__name__} needs cross features; the service "
                "has no cross_transform")
        with self._model_lock:
            old = self._model_version
            self._model = model
            self._model_version = version
        self._ready.set()
        return old

    # ------------------------------------------------------------------
    # Scoring internals
    # ------------------------------------------------------------------
    def _build_batch_rows(self, rows: np.ndarray, model: CTRModel, *,
                          pre_validated: bool = False) -> Batch:
        """One coalesced :class:`Batch` from ``[n, M]`` validated rows.

        The cross transform is integer arithmetic applied row by row, so
        transforming the stacked matrix yields exactly the rows each
        request gets alone — the differential suite pins this.
        """
        x_cross = None
        if model.needs_cross:
            if self.cross_transform is None:
                raise ModelUnavailableError(
                    "model needs cross features but none are configured")
            x_cross = self.cross_transform.transform(
                rows, assume_valid=pre_validated)
        return Batch(x=rows, x_cross=x_cross, y=np.zeros(len(rows)))

    def _finish(self, response: PredictionResponse, started: float,
                deadline_s: Optional[float]) -> PredictionResponse:
        response.latency_ms = (self._clock() - started) * 1e3
        span = self.tracer.current()
        if span is not None and span.trace_id:
            response.trace_id = span.trace_id
        self.metrics.counter("serve.requests").inc()
        self.metrics.counter(f"serve.{response.status}").inc()
        self.metrics.histogram("serve.latency_s").observe(
            response.latency_ms / 1e3)
        if self.bus is not None:
            self.bus.emit("serve_request",
                          request_id=response.request_id,
                          status=response.status,
                          served_by=response.served_by,
                          latency_ms=response.latency_ms,
                          deadline_ms=(None if deadline_s is None
                                       else deadline_s * 1e3),
                          model_version=response.model_version,
                          trace_id=response.trace_id)
        return response

    def _observe_drift(self, row: np.ndarray,
                       score: Optional[float]) -> None:
        """Feed one served row into the drift monitor; never raises."""
        if self.drift is None:
            return
        try:
            self.drift.observe(row, score)
        except Exception:
            self.metrics.counter("drift.observe_errors").inc()

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def predict(self, features: Any, *,
                deadline_s: Optional[float] = None,
                request_id: Optional[str] = None,
                queued_at: Optional[float] = None) -> PredictionResponse:
        """Answer one request: :meth:`predict_batch` on a batch of one.

        ``queued_at`` is a timestamp on the *tracer's* clock taken when
        the transport accepted the request; when given, the time spent
        waiting before ``predict`` ran becomes a retroactive
        ``serve.queue`` child span of the request's ``serve.batch``.
        """
        return self.predict_batch([BatchRequest(
            features, deadline_s=deadline_s, request_id=request_id,
            queued_at=queued_at)])[0]

    def predict_batch(self, requests: Sequence[Union["BatchRequest", Any]]
                      ) -> List[PredictionResponse]:
        """Score many requests in one coalesced model call.

        Each entry may be a :class:`BatchRequest` or a bare feature
        mapping.  Responses come back in input order, one per request:
        a bad row quarantines *that row* into an ``invalid`` response
        without poisoning the batch, every non-scorable row gets a
        degraded answer from the ladder, and nothing here raises for
        per-request faults.

        Equivalence guarantee (pinned by the differential suite): for a
        service in a deterministic state — breaker closed or open, model
        loaded or not — the ``status`` / ``probability`` (bitwise) /
        ``served_by`` / ``error`` fields of a request do not depend on
        the batch it rides in, and an ``ok`` probability equals
        ``model.predict_proba`` on that row alone.  Scoring happens
        under :class:`~repro.nn.tensor.rowwise_matmul` so each row's
        floating-point path is identical to a batch of one.

        Failure *accounting* is batch-level by design: a scoring failure
        feeds the circuit breaker exactly once per batch, not once per
        request.  The model/version pair is snapshotted once, so a hot
        reload mid-batch can never split one batch across versions.
        """
        reqs = [r if isinstance(r, BatchRequest) else BatchRequest(r)
                for r in requests]
        if not reqs:
            return []
        with self.tracer.span("serve.batch", batch_size=len(reqs)) as bspan:
            self.metrics.counter("serve.batches").inc()
            self.metrics.histogram("serve.batch_size").observe(len(reqs))
            responses = self._predict_batch(reqs, bspan)
            statuses = sorted({r.status for r in responses})
            bspan.set_attr("statuses", ",".join(statuses))
        return responses

    def _predict_batch(self, reqs: List["BatchRequest"],
                       bspan) -> List[PredictionResponse]:
        started = self._clock()
        now = self.tracer.clock()
        for req in reqs:
            if req.queued_at is not None:
                self.tracer.record(
                    "serve.queue", start=req.queued_at,
                    duration_s=max(now - req.queued_at, 0.0), parent=bspan,
                    request_id=req.request_id)
        # Resolved budgets live here, never on the caller's requests: a
        # hedged batch is scored by two replicas at once.
        deadlines = [self.deadline_s if req.deadline_s is None
                     else req.deadline_s for req in reqs]
        with self._model_lock:
            model = self._model
            version = self._model_version

        responses: List[Optional[PredictionResponse]] = [None] * len(reqs)

        # 1. Validate each row individually: one bad row quarantines that
        #    row into an ``invalid`` response, never the batch.
        rows: List[np.ndarray] = []
        valid_indices: List[int] = []
        with self.tracer.span("serve.validate",
                              batch_size=len(reqs)) as vspan:
            for i, req in enumerate(reqs):
                try:
                    rows.append(self.validator.validate(req.features))
                    valid_indices.append(i)
                except InvalidRequestError as exc:
                    responses[i] = self._finish(PredictionResponse(
                        status=STATUS_INVALID, request_id=req.request_id,
                        model_version=version, error=exc.as_payload()),
                        started, deadlines[i])
            vspan.set_attr("invalid", len(reqs) - len(valid_indices))

        row_of = {i: pos for pos, i in enumerate(valid_indices)}

        def degraded(i: int, reason: str, with_model: bool = False) -> None:
            """Ladder answer for request ``i`` — per-row batches so the
            fallback's floating-point path is the row's own."""
            req = reqs[i]
            row = rows[row_of[i]]
            fallback_model = model if with_model else None
            fallback_batch = (Batch(x=row.reshape(1, -1), x_cross=None,
                                    y=np.zeros(1)) if with_model else None)
            with self.tracer.span("serve.degrade", reason=reason) as dspan:
                probability, level = self.ladder.fallback(
                    fallback_model, fallback_batch, reason=reason,
                    request_id=req.request_id)
                dspan.set_attr("level", level)
            self._observe_drift(row, None)
            responses[i] = self._finish(PredictionResponse(
                status=STATUS_DEGRADED, probability=probability,
                served_by=level, model_version=version,
                request_id=req.request_id, degraded_reason=reason),
                started, deadlines[i])

        if not valid_indices:
            return [r for r in responses if r is not None]

        if model is None:
            for i in valid_indices:
                degraded(i, "model_unavailable")
            return list(responses)

        # 2. Build the single coalesced batch (cross features included).
        #    A failure here is one scoring failure for the whole batch.
        stacked = np.stack(rows)
        try:
            batch = self._build_batch_rows(stacked, model,
                                           pre_validated=True)
        except Exception:
            self.breaker.record_failure()
            self.metrics.counter("serve.model_errors").inc()
            for i in valid_indices:
                degraded(i, "feature_error")
            return list(responses)

        # 3. Circuit breaker: consulted once per batch (a half-open
        #    probe spends its single slot on the whole batch).
        if not self.breaker.allow():
            for i in valid_indices:
                degraded(i, "breaker_open", with_model=True)
            return list(responses)

        # 4. Per-request deadline pre-check against the shared estimate.
        to_score: List[int] = []
        estimate = self.latency()
        for i in valid_indices:
            if deadlines[i] is not None:
                remaining = deadlines[i] - (self._clock() - started)
                if remaining <= estimate:
                    self.metrics.counter("serve.deadline_misses").inc()
                    self.breaker.record_failure()
                    degraded(i, "deadline", with_model=True)
                    continue
            to_score.append(i)
        if not to_score:
            return list(responses)

        # 5. Score once, row-wise bit-identical to batch-of-one scoring.
        if len(to_score) == len(valid_indices):
            score_batch = batch  # nobody missed a deadline: no re-slice
        else:
            keep = [row_of[i] for i in to_score]
            score_batch = Batch(
                x=batch.x[keep],
                x_cross=(None if batch.x_cross is None
                         else batch.x_cross[keep]),
                y=np.zeros(len(keep)))
        scoring_started = self._clock()
        with self.tracer.span("serve.score", model_version=version,
                              batch_size=len(to_score)) as sspan:
            try:
                with rowwise_matmul():
                    probabilities = np.asarray(
                        model.predict_proba(score_batch), dtype=np.float64)
                if probabilities.shape != (len(to_score),):
                    raise ValueError(
                        f"model returned {probabilities.shape} probabilities "
                        f"for a batch of {len(to_score)}")
            except Exception as exc:
                self.latency.observe(self._clock() - scoring_started)
                sspan.mark_error(exc)
                self.breaker.record_failure()
                self.metrics.counter("serve.model_errors").inc()
                for i in to_score:
                    degraded(i, "model_error", with_model=True)
                return list(responses)
        self.latency.observe(self._clock() - scoring_started)

        # 6. Fan the answers back out with per-request bookkeeping.
        batch_failed = False
        for pos, i in enumerate(to_score):
            req = reqs[i]
            probability = float(probabilities[pos])
            if not np.isfinite(probability):
                batch_failed = True
                self.metrics.counter("serve.model_errors").inc()
                degraded(i, "model_error", with_model=True)
                continue
            if (deadlines[i] is not None
                    and self._clock() - started > deadlines[i]):
                self.metrics.counter("serve.deadline_misses").inc()
                self.breaker.record_failure()
                degraded(i, "deadline", with_model=True)
                continue
            row = rows[row_of[i]]
            self._observe_drift(row, probability)
            responses[i] = self._finish(PredictionResponse(
                status=STATUS_OK, probability=probability,
                served_by=LEVEL_FULL, model_version=version,
                request_id=req.request_id), started, deadlines[i])
        if batch_failed:
            # Non-finite rows are one scoring failure for the batch.
            self.breaker.record_failure()
        elif any(responses[i] is not None
                 and responses[i].status == STATUS_OK for i in to_score):
            self.breaker.record_success()
        return list(responses)

    def shed_response(self, error: OverloadedError,
                      request_id: Optional[str] = None
                      ) -> PredictionResponse:
        """The 503-style answer for a request the queue shed."""
        with self.tracer.span("serve.request", request_id=request_id,
                              status=STATUS_SHED):
            if self.bus is not None:
                self.bus.emit("shed", request_id=request_id,
                              reason=error.reason, depth=error.depth)
            response = PredictionResponse(
                status=STATUS_SHED, request_id=request_id,
                model_version=self.model_version, error=error.as_payload())
            return self._finish(response, self._clock(), None)
