"""Checkpoint rollout: promote through shadow traffic, or roll back.

:class:`CanaryController` is the one checkpoint watcher, at every pool
size.  Admission (integrity + golden checks, :mod:`repro.serving.reload`)
catches corrupt and obviously-broken weights, but a *poisoned*
checkpoint — intact archive, finite probabilities, silently wrong
scores — can still sail through a small golden set.  A pool with a
spare replica has a stronger option: stage the candidate on one replica
and score real traffic against it before any user sees an answer from
it.

:class:`CanaryController` drives that lifecycle::

    idle ──detect──▶ mirroring ──pass──▶ promoting ──▶ idle
                         │                                ▲
                         └──fail──▶ rolled back ──────────┘

* **detect** — the newest checkpoint in the watch directory (newer than
  the fleet's epoch, not previously refused) is read with
  retry/backoff, integrity-checked, loaded into a fresh model and
  golden-validated.  Any failure marks the file bad in the manifest,
  with its mtime, and the fleet keeps serving; a file rewritten since
  (a new mtime) gets a fresh chance.
* **direct promotion** — a pool that can never spare a canary (one
  replica, ``min_healthy == replicas``, or ``mirror_fraction == 0``)
  skips mirroring: an admitted checkpoint goes straight to promote.
  A pool only *temporarily* short of a spare (a replica in quarantine)
  retries the canary on a later poll instead.
* **canary + mirror** — one replica is pulled out of user rotation
  (never violating the pool's min-healthy floor) and given the
  candidate.  A configurable fraction of live traffic is *mirrored*:
  the fleet's answer is what the user gets; the canary shadow-scores
  the same features off the request path.
* **compare** — after ``min_mirrored`` observations the canary is
  judged against the fleet on error rate, deadline-breach rate,
  score-distribution PSI (same statistic as the PR-5 drift monitor) and
  golden-set agreement (|canary − fleet| within tolerance).
* **promote / roll back** — on pass, the remaining replicas swap to the
  candidate one at a time (the manifest records each step, so a crash
  mid-promote resumes); on fail, the canary gets its previous model
  back, the checkpoint is remembered as bad, and ``rollout.rollbacks``
  increments.

Every stage transition is an atomically-written update to the rollout
manifest (``rollout.json`` next to the checkpoints), emits a typed
``rollout`` event and a ``serve.rollout`` span, and bumps ``rollout.*``
metrics — the full promote/rollback history reconstructs from any of
the three.  On restart the manifest is consulted *before* the initial
checkpoint load, so a rolled-back checkpoint is never served and an
interrupted promotion completes instead of repeating the canary.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..fsutil import PathLike, atomic_write_text
from ..models.base import CTRModel
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import psi
from ..obs.tracing import Tracer
from ..poller import Poller
from ..resilience.checkpoint import CheckpointManager, TrainingCheckpoint
from .reload import (CheckpointRefused, GoldenSet, admit_checkpoint,
                     newest_candidate)
from .replica import Replica, ReplicaPool
from .service import PredictionResponse, STATUS_OK

#: Rollout stages persisted in the manifest.
STAGE_IDLE = "idle"
STAGE_MIRRORING = "mirroring"
STAGE_PROMOTING = "promoting"
STAGES = (STAGE_IDLE, STAGE_MIRRORING, STAGE_PROMOTING)

MANIFEST_VERSION = 1
MANIFEST_NAME = "rollout.json"
_HISTORY_LIMIT = 100


@dataclass
class RolloutPolicy:
    """Knobs for mirroring volume and the promote/rollback verdict."""

    mirror_fraction: float = 0.1      # live traffic mirrored; 0: no canary
    min_mirrored: int = 32            # observations before judging
    max_error_rate_delta: float = 0.10
    max_breach_rate_delta: float = 0.10
    breach_ms: float = 250.0          # latency counted as a breach
    max_score_psi: float = 0.25       # same convention as DriftMonitor
    min_agreement: float = 0.80
    agreement_tol: float = 0.15       # |canary - fleet| within this agrees
    score_bins: int = 10
    max_shadow_queue: int = 512       # pending mirrored requests bound

    def __post_init__(self) -> None:
        if not 0.0 <= self.mirror_fraction <= 1.0:
            raise ValueError(f"mirror_fraction must be in [0, 1], "
                             f"got {self.mirror_fraction}")
        if self.min_mirrored < 1:
            raise ValueError(
                f"min_mirrored must be >= 1, got {self.min_mirrored}")

    @property
    def mirror_every(self) -> int:
        """Deterministic sampling stride: every k-th request mirrors."""
        return max(1, round(1.0 / self.mirror_fraction))


class _MirrorStats:
    """Fleet-vs-canary accumulators over one mirroring window."""

    def __init__(self, bins: int) -> None:
        self.edges = np.linspace(0.0, 1.0, bins + 1)
        self.fleet_hist = np.zeros(bins, dtype=np.int64)
        self.canary_hist = np.zeros(bins, dtype=np.int64)
        self.count = 0
        self.fleet_errors = 0
        self.canary_errors = 0
        self.fleet_breaches = 0
        self.canary_breaches = 0
        self.compared = 0
        self.agreed = 0

    def _bin(self, hist: np.ndarray, score: float) -> None:
        idx = min(int(np.searchsorted(self.edges, score, side="right")) - 1,
                  len(hist) - 1)
        hist[max(idx, 0)] += 1

    def observe(self, fleet_status: str, fleet_score: Optional[float],
                fleet_latency_ms: Optional[float],
                canary_status: str, canary_score: Optional[float],
                canary_latency_ms: Optional[float],
                breach_ms: float, agreement_tol: float) -> None:
        self.count += 1
        if fleet_status != STATUS_OK:
            self.fleet_errors += 1
        if canary_status != STATUS_OK:
            self.canary_errors += 1
        if fleet_latency_ms is not None and fleet_latency_ms > breach_ms:
            self.fleet_breaches += 1
        if canary_latency_ms is not None and canary_latency_ms > breach_ms:
            self.canary_breaches += 1
        if fleet_score is not None:
            self._bin(self.fleet_hist, fleet_score)
        if canary_score is not None:
            self._bin(self.canary_hist, canary_score)
        if fleet_score is not None and canary_score is not None:
            self.compared += 1
            if abs(fleet_score - canary_score) <= agreement_tol:
                self.agreed += 1

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "count": self.count,
            "fleet_errors": self.fleet_errors,
            "canary_errors": self.canary_errors,
            "fleet_breaches": self.fleet_breaches,
            "canary_breaches": self.canary_breaches,
            "compared": self.compared,
            "agreed": self.agreed,
        }
        if self.count:
            out["fleet_error_rate"] = self.fleet_errors / self.count
            out["canary_error_rate"] = self.canary_errors / self.count
            out["fleet_breach_rate"] = self.fleet_breaches / self.count
            out["canary_breach_rate"] = self.canary_breaches / self.count
        if self.compared:
            out["agreement"] = self.agreed / self.compared
        if self.fleet_hist.sum() and self.canary_hist.sum():
            out["score_psi"] = psi(self.fleet_hist, self.canary_hist)
        return out


class RolloutManifest:
    """The atomically-persisted rollout state (plain dict inside).

    Written via :func:`~repro.fsutil.atomic_write_text` on every
    transition, so a crash at any point leaves either the previous state
    or the new one — never a torn file.  ``bad`` remembers rolled-back /
    refused checkpoints by path so a restart never boots on them, and
    with their mtime so a poll never re-admits the same file (a file
    rewritten since gets a fresh chance; an entry without an mtime stays
    bad by path).
    """

    def __init__(self, path: PathLike,
                 data: Optional[Dict[str, Any]] = None) -> None:
        self.path = Path(path)
        self.data: Dict[str, Any] = data if data is not None else {
            "version": MANIFEST_VERSION,
            "stage": STAGE_IDLE,
            "current_epoch": None,
            "candidate": None,        # {"path": ..., "epoch": ...}
            "canary_replica": None,
            "promoted": [],           # replica ids already on the candidate
            "bad": {},                # path -> {"epoch", "reason", "mtime"}
            "promotions": 0,
            "rollbacks": 0,
            "stats": None,
            "history": [],
        }

    @classmethod
    def load(cls, path: PathLike) -> "RolloutManifest":
        path = Path(path)
        if not path.exists():
            return cls(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return cls(path)
        if not isinstance(raw, dict) or raw.get("version") != MANIFEST_VERSION:
            return cls(path)
        base = cls(path)
        base.data.update(raw)
        return base

    def save(self) -> None:
        atomic_write_text(self.path,
                          json.dumps(self.data, indent=2, sort_keys=True))

    # -- convenience accessors -----------------------------------------
    @property
    def stage(self) -> str:
        return self.data.get("stage", STAGE_IDLE)

    @stage.setter
    def stage(self, value: str) -> None:
        if value not in STAGES:
            raise ValueError(f"unknown rollout stage {value!r}")
        self.data["stage"] = value

    @property
    def bad_paths(self) -> Dict[str, Dict[str, Any]]:
        return self.data.setdefault("bad", {})

    def mark_bad(self, path: str, epoch: Optional[int], reason: str,
                 mtime: Optional[float] = None) -> None:
        entry = {"epoch": epoch, "reason": reason}
        if mtime is not None:
            entry["mtime"] = mtime
        self.bad_paths[str(path)] = entry

    def is_bad(self, path: PathLike) -> bool:
        """Refused, and not rewritten since; a file that cannot be
        statted counts as unchanged."""
        entry = self.bad_paths.get(str(path))
        if entry is None:
            return False
        if entry.get("mtime") is None:
            return True
        try:
            return Path(path).stat().st_mtime == entry["mtime"]
        except OSError:
            return True

    def record(self, event: str, **detail: Any) -> None:
        history = self.data.setdefault("history", [])
        history.append({"event": event, "time": time.time(), **detail})
        del history[:-_HISTORY_LIMIT]


def select_initial_checkpoint(manager: CheckpointManager,
                              manifest: Optional[RolloutManifest] = None,
                              on_corrupt=None
                              ) -> Optional[Tuple[TrainingCheckpoint, Path]]:
    """The newest valid checkpoint that is safe to boot the fleet from.

    Like :meth:`CheckpointManager.latest_valid`, but consults the rollout
    manifest: rolled-back/refused checkpoints are skipped, and a
    candidate whose canary evaluation was interrupted (stage
    ``mirroring``) is skipped too — it was never promoted, so a restart
    must not leak it to users.  A candidate interrupted mid-*promote*
    already passed evaluation and IS eligible (the controller finishes
    the promotion on its first poll).
    """
    skip = set()
    if manifest is not None:
        skip.update(manifest.bad_paths)
        candidate = manifest.data.get("candidate")
        if candidate and manifest.stage == STAGE_MIRRORING:
            skip.add(str(candidate.get("path")))
    return manager.latest_valid(on_corrupt, skip=skip)


class CanaryController:
    """See module docstring.

    Parameters
    ----------
    pool:
        The replica pool to roll out on.  A pool that can never spare a
        canary above ``min_healthy`` (a pool of one, say) or a policy
        with ``mirror_fraction == 0`` promotes admitted checkpoints
        directly, and installs no mirror hook.
    manager:
        The watched checkpoint directory.
    model_factory:
        Builds an architecture-matched uninitialised model; candidate
        weights load into fresh instances, one per replica at promote
        time, so replicas never share a model object.
    golden:
        Optional :class:`GoldenSet` — a hard veto before any mirroring
        (catches NaN/unscorable weights instantly).
    loaded_epoch:
        The epoch the fleet booted from (``None`` for initial weights);
        only strictly newer checkpoints are considered.
    """

    def __init__(self, pool: ReplicaPool, manager: CheckpointManager,
                 model_factory: Callable[[], CTRModel], *,
                 golden: Optional[GoldenSet] = None,
                 policy: Optional[RolloutPolicy] = None,
                 manifest_path: Optional[PathLike] = None,
                 loaded_epoch: Optional[int] = None,
                 interval_s: float = 0.5,
                 retries: int = 3,
                 bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 sleep: Callable[[float], None] = time.sleep,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.pool = pool
        self.manager = manager
        self.model_factory = model_factory
        self.golden = golden
        self.policy = policy or RolloutPolicy()
        self.interval_s = interval_s
        self.retries = retries
        self.bus = bus
        self.metrics = metrics if metrics is not None else pool.metrics
        self.tracer = tracer if tracer is not None else Tracer(bus=bus)
        self._sleep = sleep
        self._clock = clock
        self.manifest = RolloutManifest.load(
            manifest_path if manifest_path is not None
            else Path(manager.directory) / MANIFEST_NAME)
        self._loaded_epoch = loaded_epoch
        self._lock = threading.Lock()
        self._seen = 0
        self._shadow: List[Tuple[Any, str, Optional[float],
                                 Optional[float]]] = []
        self._stats: Optional[_MirrorStats] = None
        self._verdict: Optional[Tuple[bool, List[str]]] = None
        self._canary: Optional[Replica] = None
        self._previous_model: Optional[CTRModel] = None
        self._previous_version: Optional[str] = None
        self._candidate_checkpoint: Optional[TrainingCheckpoint] = None
        self._candidate_path: Optional[str] = None
        self._needs_resume = self.manifest.stage != STAGE_IDLE
        self.poller = Poller(
            self.poll_once, lambda: self.interval_s,
            lambda _exc: self.metrics.counter("rollout.poll_errors").inc(),
            "canary-controller")
        #: Promote without a canary: the pool can never spare one.
        self.direct = (self.policy.mirror_fraction == 0
                       or len(pool.replicas) - 1 < pool.min_healthy)
        if not self.direct:
            pool.set_mirror(self.observe)

    # ------------------------------------------------------------------
    def _emit(self, status: str, **payload: Any) -> None:
        self.metrics.counter(f"rollout.{status}").inc()
        if self.bus is not None:
            self.bus.emit("rollout", status=status, **payload)

    @property
    def stage(self) -> str:
        return self.manifest.stage

    def rollout_state(self) -> Dict[str, Any]:
        """JSON-ready snapshot (the ``rollout`` protocol op)."""
        with self._lock:
            stats = self._stats.as_dict() if self._stats is not None else None
        return {
            "stage": self.manifest.stage,
            "current_epoch": self._loaded_epoch,
            "candidate": self.manifest.data.get("candidate"),
            "canary_replica": self.manifest.data.get("canary_replica"),
            "promotions": self.manifest.data.get("promotions", 0),
            "rollbacks": self.manifest.data.get("rollbacks", 0),
            "bad": self.manifest.bad_paths,
            "stats": stats,
        }

    # ------------------------------------------------------------------
    # Mirror hook (called on pool dispatch threads; must stay cheap)
    # ------------------------------------------------------------------
    def observe(self, features: Any,
                response: PredictionResponse) -> None:
        """Sample live traffic into the shadow queue.  Never scores
        inline — the user's answer is already on the wire; shadow
        scoring happens in :meth:`poll_once`."""
        with self._lock:
            if self.manifest.stage != STAGE_MIRRORING:
                return
            self._seen += 1
            if self._seen % self.policy.mirror_every != 0:
                return
            if len(self._shadow) >= self.policy.max_shadow_queue:
                self.metrics.counter("rollout.mirror_dropped").inc()
                return
            self._shadow.append((features, response.status,
                                 response.probability, response.latency_ms))

    # ------------------------------------------------------------------
    # The poll loop
    # ------------------------------------------------------------------
    def poll_once(self) -> bool:
        """One controller step; True iff the rollout state advanced."""
        if self._needs_resume:
            self._needs_resume = False
            return self._resume()
        stage = self.manifest.stage
        if stage == STAGE_IDLE:
            return self._detect()
        if stage == STAGE_MIRRORING:
            self._drain_shadow()
            with self._lock:
                verdict = self._verdict
            if verdict is None:
                return False
            passed, reasons = verdict
            if passed:
                return self._promote()
            return self._rollback("; ".join(reasons))
        if stage == STAGE_PROMOTING:
            return self._promote()
        return False

    # -- resume ---------------------------------------------------------
    def _resume(self) -> bool:
        stage = self.manifest.stage
        candidate = self.manifest.data.get("candidate")
        if stage == STAGE_MIRRORING or candidate is None:
            # Interrupted before evaluation finished: forget the canary
            # (the fleet booted on the previous checkpoint) and let a
            # fresh detect re-stage it from scratch.
            self.manifest.stage = STAGE_IDLE
            self.manifest.data["candidate"] = None
            self.manifest.data["canary_replica"] = None
            self.manifest.data["promoted"] = []
            self.manifest.record("resume_restaged",
                                 interrupted_stage=stage)
            self.manifest.save()
            self._emit("resumed", interrupted_stage=stage, action="restage")
            return True
        # Interrupted mid-promote: evaluation already passed; finish it.
        try:
            self._candidate_checkpoint, _model = self._admit(candidate["path"])
        except (OSError, CheckpointRefused):
            self.manifest.stage = STAGE_IDLE
            self.manifest.data["candidate"] = None
            self.manifest.record("resume_failed", path=candidate["path"])
            self.manifest.save()
            self._emit("resumed", interrupted_stage=stage, action="abandon")
            return True
        self._candidate_path = candidate["path"]
        # The promoted set and canary id described the *previous*
        # process's replicas; this process's pool booted fresh, so
        # re-swap everyone (idempotent — same weights, same version).
        self.manifest.data["promoted"] = []
        self.manifest.data["canary_replica"] = None
        self._emit("resumed", interrupted_stage=stage, action="promote")
        return self._promote()

    def _admit(self, path: str, on_retry=None
               ) -> Tuple[TrainingCheckpoint, CTRModel]:
        return admit_checkpoint(
            path, self.model_factory, service=self.pool.replicas[0].service,
            golden=self.golden, retries=self.retries, sleep=self._sleep,
            on_retry=on_retry)

    # -- detect ---------------------------------------------------------
    def _detect(self) -> bool:
        found = newest_candidate(self.manager, self._loaded_epoch,
                                 self.manifest.is_bad)
        if found is None:
            return False
        path, epoch = str(found[0]), found[1]
        with self.tracer.span("serve.rollout", stage="detect",
                              path=path) as span:
            advanced = self._stage_candidate(path, epoch, span)
            span.set_attr("outcome", "refused" if not advanced
                          else "promoted" if self.direct
                          else self.manifest.stage)
        return advanced

    def _stage_candidate(self, path: str, epoch: int, span) -> bool:
        self._emit("detected", path=path, epoch=epoch)
        try:
            # Stat before reading: a file rewritten mid-admission then
            # shows a newer mtime than the one recorded, and is judged
            # again on the next poll.
            mtime = Path(path).stat().st_mtime
            checkpoint, candidate_model = self._admit(
                path, on_retry=lambda attempt, exc: self._emit(
                    "io_retry", path=path, attempt=attempt, error=str(exc)))
        except OSError as exc:
            self._emit("error", path=path, error=str(exc))
            span.mark_error(exc)
            return False
        except CheckpointRefused as refused:
            self.manifest.mark_bad(path, epoch, f"{refused.kind}: {refused}",
                                   mtime)
            self.manifest.record("refused", path=path, reason=refused.kind)
            self.manifest.save()
            detail = {"epoch": epoch} if refused.kind == "golden" else {}
            self._emit(refused.status, path=path, **detail,
                       error=str(refused))
            return False
        candidate = {"path": path, "epoch": epoch, "mtime": mtime}
        if self.direct:
            self._candidate_checkpoint = checkpoint
            self.manifest.data["candidate"] = candidate
            self.manifest.data["promoted"] = []
            return self._promote()
        # Claim a canary slot (floor-respecting).
        canary = self.pool.begin_canary()
        if canary is None:
            # No spare capacity right now; try again next poll.
            self.metrics.counter("rollout.canary_unavailable").inc()
            return False
        # User dispatches picked before the canary flip are already
        # registered in ``inflight`` (the pool begins them at pick
        # time, under the same lock the flip takes).  They must finish
        # before the candidate lands: swapping mid-flight would leak
        # the candidate's version into a user-visible answer.
        drain_deadline = self._clock() + max(
            2.0 * getattr(self.pool, "dispatch_timeout_s", 1.0), 1.0)
        while canary.inflight > 0 and self._clock() < drain_deadline:
            self._sleep(0.002)
        if canary.inflight > 0:
            # Still busy (possibly wedged): give the slot back and let
            # the prober deal with it; retry on a later poll.
            self.pool.end_canary(canary)
            self.metrics.counter("rollout.canary_unavailable").inc()
            return False
        version = f"epoch-{checkpoint.epoch:08d}"
        with self._lock:
            self._canary = canary
            self._previous_model = canary.service.model
            self._previous_version = canary.service.model_version
            self._candidate_checkpoint = checkpoint
            self._candidate_path = path
            self._stats = _MirrorStats(self.policy.score_bins)
            self._verdict = None
            self._seen = 0
            self._shadow.clear()
            canary.service.swap_model(candidate_model, version)
            self.manifest.stage = STAGE_MIRRORING
            self.manifest.data["candidate"] = candidate
            self.manifest.data["canary_replica"] = canary.id
            self.manifest.data["promoted"] = []
            self.manifest.data["stats"] = None
            self.manifest.record("canary_loaded", path=path, epoch=epoch,
                                 replica=canary.name)
            self.manifest.save()
        self._emit("canary_loaded", path=path, epoch=epoch,
                   replica=canary.name, version=version)
        span.set_attr("replica", canary.name)
        return True

    # -- mirroring ------------------------------------------------------
    def _drain_shadow(self) -> None:
        with self._lock:
            pending = self._shadow
            self._shadow = []
            canary = self._canary
            stats = self._stats
        if not pending or canary is None or stats is None:
            return
        with self.tracer.span("serve.rollout", stage="mirror",
                              batch=len(pending)) as span:
            for features, f_status, f_score, f_latency in pending:
                started = self._clock()
                try:
                    shadow = canary.service.predict(features)
                    c_status = shadow.status
                    c_score = shadow.probability
                    c_latency = shadow.latency_ms
                except Exception:  # noqa: BLE001 — a crashing canary is
                    # an error observation, never a crashed controller
                    c_status, c_score = "error", None
                    c_latency = (self._clock() - started) * 1e3
                with self._lock:
                    stats.observe(f_status, f_score, f_latency,
                                  c_status, c_score, c_latency,
                                  self.policy.breach_ms,
                                  self.policy.agreement_tol)
                self.metrics.counter("rollout.mirrored").inc()
            with self._lock:
                count = stats.count
                if (self._verdict is None
                        and count >= self.policy.min_mirrored):
                    self._verdict = self._evaluate(stats)
            span.set_attr("mirrored", count)

    def _evaluate(self, stats: _MirrorStats) -> Tuple[bool, List[str]]:
        """Judge the canary against the fleet; (passed, reasons)."""
        summary = stats.as_dict()
        reasons: List[str] = []
        error_delta = (summary.get("canary_error_rate", 0.0)
                       - summary.get("fleet_error_rate", 0.0))
        if error_delta > self.policy.max_error_rate_delta:
            reasons.append(f"error rate +{error_delta:.3f} over fleet "
                           f"(limit {self.policy.max_error_rate_delta})")
        breach_delta = (summary.get("canary_breach_rate", 0.0)
                        - summary.get("fleet_breach_rate", 0.0))
        if breach_delta > self.policy.max_breach_rate_delta:
            reasons.append(f"breach rate +{breach_delta:.3f} over fleet "
                           f"(limit {self.policy.max_breach_rate_delta})")
        score_psi = summary.get("score_psi")
        if score_psi is not None and score_psi > self.policy.max_score_psi:
            reasons.append(f"score PSI {score_psi:.3f} "
                           f"(limit {self.policy.max_score_psi})")
        agreement = summary.get("agreement")
        if agreement is not None and agreement < self.policy.min_agreement:
            reasons.append(f"agreement {agreement:.3f} "
                           f"(floor {self.policy.min_agreement})")
        if summary.get("compared", 0) == 0:
            reasons.append("canary produced no comparable scores")
        self.manifest.data["stats"] = summary
        return (not reasons, reasons)

    # -- promote / rollback --------------------------------------------
    def _promote(self) -> bool:
        checkpoint = self._candidate_checkpoint
        candidate = self.manifest.data.get("candidate")
        if checkpoint is None or candidate is None:
            return False
        epoch = checkpoint.epoch
        version = f"epoch-{epoch:08d}"
        with self.tracer.span("serve.rollout", stage="promote",
                              epoch=epoch) as span:
            if self.manifest.stage != STAGE_PROMOTING:
                self.manifest.stage = STAGE_PROMOTING
                self.manifest.record("promoting", epoch=epoch)
                self.manifest.save()
                self._emit("promoting", epoch=epoch)
            promoted = set(self.manifest.data.setdefault("promoted", []))
            canary_id = self.manifest.data.get("canary_replica")
            for replica in self.pool.replicas:
                if replica.id == canary_id or replica.id in promoted:
                    continue
                model = self.model_factory()
                model.load_state_dict(checkpoint.model_state)
                replica.service.swap_model(model, version)
                promoted.add(replica.id)
                # One manifest write per replica: a crash between any
                # two swaps resumes exactly where it stopped.
                self.manifest.data["promoted"] = sorted(promoted)
                self.manifest.record("promoted_replica",
                                     replica=replica.name, epoch=epoch)
                self.manifest.save()
                self.metrics.counter("rollout.promoted_replicas").inc()
                self._emit("promoted_replica", replica=replica.name,
                           epoch=epoch, version=version)
            with self._lock:
                canary = self._canary
                if canary is None and canary_id is not None:
                    by_id = {r.id: r for r in self.pool.replicas}
                    canary = by_id.get(canary_id)
                self._finish_locked()
            if canary is not None:
                self.pool.end_canary(canary)
            self.manifest.stage = STAGE_IDLE
            self.manifest.data["current_epoch"] = epoch
            # A rewritten file that once was refused is good now.
            self.manifest.bad_paths.pop(candidate["path"], None)
            self.manifest.data["candidate"] = None
            self.manifest.data["canary_replica"] = None
            self.manifest.data["promotions"] = (
                self.manifest.data.get("promotions", 0) + 1)
            self.manifest.record("promoted", epoch=epoch)
            self.manifest.save()
            self._loaded_epoch = epoch
            self.metrics.counter("rollout.promotions").inc()
            self._emit("promoted", epoch=epoch, version=version)
            span.set_attr("outcome", "promoted")
        return True

    def _rollback(self, reason: str) -> bool:
        candidate = self.manifest.data.get("candidate") or {}
        path = candidate.get("path", self._candidate_path)
        epoch = candidate.get("epoch")
        with self.tracer.span("serve.rollout", stage="rollback",
                              path=path) as span:
            with self._lock:
                canary = self._canary
                previous_model = self._previous_model
                previous_version = self._previous_version
                self._finish_locked()
            if (canary is not None and previous_model is not None
                    and previous_version is not None):
                canary.service.swap_model(previous_model, previous_version)
            if canary is not None:
                self.pool.end_canary(canary)
            if path is not None:
                self.manifest.mark_bad(path, epoch, reason,
                                       candidate.get("mtime"))
            self.manifest.stage = STAGE_IDLE
            self.manifest.data["candidate"] = None
            self.manifest.data["canary_replica"] = None
            self.manifest.data["rollbacks"] = (
                self.manifest.data.get("rollbacks", 0) + 1)
            self.manifest.record("rolled_back", path=path, epoch=epoch,
                                 reason=reason)
            self.manifest.save()
            self.metrics.counter("rollout.rollbacks").inc()
            self._emit("rolled_back", path=path, epoch=epoch, reason=reason)
            span.set_attr("outcome", "rolled_back")
        return True

    def _finish_locked(self) -> None:
        """Clear per-rollout scratch state (caller holds the lock)."""
        self._canary = None
        self._previous_model = None
        self._previous_version = None
        self._stats = None
        self._verdict = None
        self._shadow.clear()
        self._seen = 0
