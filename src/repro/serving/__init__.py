"""``repro.serving`` — fault-tolerant online inference.

The training side of this repo (PR 2) survives crashes, divergence and
corrupt artifacts; this package gives the *serving* side the same
treatment, organised around one invariant: **every request gets a typed
answer inside its deadline**.  Six cooperating pieces:

* :mod:`repro.serving.validation` — schema validation with per-field
  error reports; missing/None/out-of-vocabulary values fold to the
  reserved OOV id exactly like the training pipeline.
* :mod:`repro.serving.degradation` — the answer ladder (full model →
  main-effects-only → calibrated prior CTR) stepped down by a
  closed/open/half-open circuit breaker.
* :mod:`repro.serving.queue` — bounded priority queue that sheds
  lowest-priority work with typed 503-style responses.
* :mod:`repro.serving.reload` — checkpoint admission: retry-with-
  backoff reads, integrity checks, golden-request validation; any
  failure refuses the file.
* :mod:`repro.serving.service` — the request path tying it together,
  with deadline budgeting and full metrics/event instrumentation
  (``serve_request`` / ``degrade`` / ``shed``).
* :mod:`repro.serving.faults` — serving-side fault injectors mirroring
  :mod:`repro.resilience.faults`, driving the chaos suite.
* :mod:`repro.serving.batching` — micro-batching: coalesce queued
  requests into one scoring call, bit-for-bit equal to sequential
  single-request scoring.
* :mod:`repro.serving.replica` — high availability: a pool of
  independently-health-checked replicas behind least-inflight routing,
  quarantined restart with full-jitter backoff, and hedged requests.
* :mod:`repro.serving.rollout` — checkpoint rollout at every pool
  size: shadow a candidate on one replica against live mirrored
  traffic, auto-promote replica-by-replica or auto-rollback (a pool
  with no spare replica promotes directly), resumable via an atomic
  manifest.

``repro serve`` (stdio or threaded socket JSONL) and ``repro predict``
(batch scoring) expose it from the CLI; see ``docs/serving.md``.
"""

from ..backoff import RestartBackoff
from .batching import MicroBatcher
from .degradation import (
    CircuitBreaker,
    DegradationLadder,
    LEVEL_FULL,
    LEVEL_MAIN_EFFECTS,
    LEVEL_PRIOR,
    LEVELS,
)
from .errors import (
    DeadlineExceededError,
    InvalidRequestError,
    ModelUnavailableError,
    OverloadedError,
    ServingError,
)
from .queue import BoundedRequestQueue
from .reload import GoldenSet
from .replica import (
    REPLICA_CANARY,
    REPLICA_HEALTHY,
    REPLICA_UNHEALTHY,
    Replica,
    ReplicaPool,
)
from .rollout import (
    CanaryController,
    RolloutManifest,
    RolloutPolicy,
    select_initial_checkpoint,
)
from .server import (
    SERVABLE_MODELS,
    ServingStack,
    SocketServer,
    build_serving_stack,
    handle_request_line,
    handle_request_lines,
    serve_socket,
    serve_stdio,
)
from .service import (
    BatchRequest,
    PredictionResponse,
    PredictionService,
    STATUS_DEGRADED,
    STATUS_INVALID,
    STATUS_OK,
    STATUS_SHED,
)
from .validation import RequestValidator

__all__ = [
    "ServingError",
    "InvalidRequestError",
    "DeadlineExceededError",
    "OverloadedError",
    "ModelUnavailableError",
    "RequestValidator",
    "CircuitBreaker",
    "DegradationLadder",
    "LEVELS",
    "LEVEL_FULL",
    "LEVEL_MAIN_EFFECTS",
    "LEVEL_PRIOR",
    "BoundedRequestQueue",
    "MicroBatcher",
    "BatchRequest",
    "GoldenSet",
    "PredictionService",
    "PredictionResponse",
    "STATUS_OK",
    "STATUS_DEGRADED",
    "STATUS_INVALID",
    "STATUS_SHED",
    "RestartBackoff",
    "Replica",
    "ReplicaPool",
    "REPLICA_HEALTHY",
    "REPLICA_UNHEALTHY",
    "REPLICA_CANARY",
    "CanaryController",
    "RolloutManifest",
    "RolloutPolicy",
    "select_initial_checkpoint",
    "SERVABLE_MODELS",
    "ServingStack",
    "SocketServer",
    "build_serving_stack",
    "handle_request_line",
    "handle_request_lines",
    "serve_stdio",
    "serve_socket",
]
