"""High availability: a pool of independently-healthy serving replicas.

One :class:`~repro.serving.service.PredictionService` is a single point
of failure: a wedged model call, a poisoned checkpoint or one slow
scoring degrades *all* traffic.  The :class:`ReplicaPool` runs N
replicas — each with its own model instance, circuit breaker, metrics
registry and drift monitor — behind a router with four defences:

* **least-inflight dispatch** — every request goes to the healthy
  replica with the fewest scorings in flight (ties break to the lowest
  id, so routing is deterministic under equal load);
* **health-checked failover** — a replica that accumulates consecutive
  dispatch failures, or whose oldest in-flight scoring exceeds the
  staleness bound (a wedged model never completes, so its heartbeat —
  the last finished dispatch — goes stale while work is queued on it),
  is quarantined out of rotation and restarted with full-jitter backoff.
  Quarantine never drops the healthy count below ``min_healthy``: when
  the floor would be violated the replica stays in rotation (its own
  breaker/ladder still guarantees typed answers) rather than leaving
  the pool empty;
* **dispatch failover** — a primary that raises, or stays silent past the
  staleness window, is replaced by a second healthy replica inside the
  same dispatch budget;
* **hedged requests** — when the primary has not produced a genuine
  answer after the hedge delay (a fixed ``hedge_ms`` or the
  EWMA-smoothed p99 of pool dispatch latency in ``auto`` mode), the
  batch is re-dispatched to a second healthy replica and the first
  genuine answer wins.  The loser is abandoned (its thread finishes and
  the result is discarded) and counted; hedging is suppressed under
  overload so it cannot amplify a saturated pool.

Every dispatch is a batch: ``predict`` is ``predict_batch`` on a batch
of one, so failover and hedging apply at every ``--batch-size``.  A
pool of one replica scores inline on its service, so responses are
byte-for-byte what the bare service produces (pinned by the HA
differential suite).

``repro serve`` builds a pool at every ``--replicas`` count, so the
probes (``health``, ``readiness``, ``metrics``) have one schema at
every size.  The scoring calls (``predict``, ``predict_batch``,
``shed_response``, ``tracer``, ``latency``) match
:class:`PredictionService`'s, so a bare service can stand in for them.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from ..backoff import RestartBackoff
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from ..poller import Poller
from .degradation import LEVEL_PRIOR
from .errors import OverloadedError
from .service import (BatchRequest, PredictionResponse, PredictionService,
                      STATUS_DEGRADED, STATUS_INVALID, STATUS_OK,
                      _EwmaLatency)

#: Replica lifecycle states.
REPLICA_HEALTHY = "healthy"
REPLICA_UNHEALTHY = "unhealthy"    # quarantined, awaiting restart
REPLICA_CANARY = "canary"          # out of user rotation, shadow traffic only

#: Statuses a hedger treats as a *genuine* answer worth winning with.
#: ``invalid`` is genuine too — both replicas share the validator, so a
#: malformed request resolves identically wherever it lands.
_GENUINE = (STATUS_OK, STATUS_INVALID)


class Replica:
    """One pool member: a service plus its health bookkeeping."""

    def __init__(self, replica_id: int, service: PredictionService, *,
                 backoff: Optional[RestartBackoff] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.id = replica_id
        self.name = f"replica-{replica_id}"
        self.service = service
        self.state = REPLICA_HEALTHY
        self.consecutive_failures = 0
        self.restarts = 0
        self.backoff = backoff or RestartBackoff()
        self.next_restart_at: Optional[float] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._inflight: Dict[int, float] = {}
        self._token = 0
        self.heartbeat_at = clock()     # last *completed* dispatch

    # -- dispatch bookkeeping ------------------------------------------
    def begin(self) -> int:
        with self._lock:
            self._token += 1
            self._inflight[self._token] = self._clock()
            return self._token

    def end(self, token: int, ok: bool) -> None:
        with self._lock:
            self._inflight.pop(token, None)
            self.heartbeat_at = self._clock()
            if ok:
                self.consecutive_failures = 0
            else:
                self.consecutive_failures += 1

    def note_failure(self) -> None:
        """A failure observed outside ``end`` (e.g. a dispatch timeout)."""
        with self._lock:
            self.consecutive_failures += 1

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def oldest_inflight_age(self, now: Optional[float] = None
                            ) -> Optional[float]:
        now = self._clock() if now is None else now
        with self._lock:
            if not self._inflight:
                return None
            return now - min(self._inflight.values())

    def heartbeat_age(self, now: Optional[float] = None) -> float:
        now = self._clock() if now is None else now
        with self._lock:
            return now - self.heartbeat_at

    def is_stale(self, stale_after_s: float,
                 now: Optional[float] = None) -> bool:
        """Wedged: work in flight, nothing completing, heartbeat old."""
        now = self._clock() if now is None else now
        oldest = self.oldest_inflight_age(now)
        return (oldest is not None and oldest > stale_after_s
                and self.heartbeat_age(now) > stale_after_s)

    def snapshot(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "state": self.state,
            "inflight": self.inflight,
            "consecutive_failures": self.consecutive_failures,
            "restarts": self.restarts,
            "model_version": self.service.model_version,
            "breaker": self.service.breaker.state,
            "heartbeat_age_s": self.heartbeat_age(),
        }


class PoolMetrics(MetricsRegistry):
    """Pool-level registry whose snapshot folds in every replica's.

    Per-replica series appear under a ``replica.<id>.`` prefix
    (``replica.0.serve.requests`` → Prometheus
    ``repro_replica_0_serve_requests_total``), so one scrape of the pool
    exposes the whole fleet.
    """

    def __init__(self, replicas_fn: Callable[[], Sequence[Replica]]) -> None:
        super().__init__()
        self._replicas_fn = replicas_fn

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        merged = dict(super().snapshot())
        for replica in self._replicas_fn():
            for name, data in replica.service.metrics.snapshot().items():
                merged[f"replica.{replica.id}.{name}"] = data
        return merged


class _ResultBox:
    """Arrival-ordered results from racing dispatch threads."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self.entries: List[tuple] = []   # (label, responses|None, replica)

    def offer(self, label: str,
              responses: Optional[List[PredictionResponse]],
              replica: Replica) -> None:
        with self._cond:
            self.entries.append((label, responses, replica))
            self._cond.notify_all()

    def wait(self, predicate: Callable[[List[tuple]], bool],
             timeout: float) -> List[tuple]:
        """Block until ``predicate(entries)`` or ``timeout``; returns a
        snapshot of the entries either way."""
        deadline = time.monotonic() + max(timeout, 0.0)
        with self._cond:
            while not predicate(self.entries):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self._cond.wait(timeout=remaining):
                    if not predicate(self.entries):
                        break
            return list(self.entries)


def _genuine(responses: List[PredictionResponse]) -> bool:
    return all(r.status in _GENUINE for r in responses)


def _first_genuine(entries: List[tuple]) -> Optional[tuple]:
    for entry in entries:
        if entry[1] is not None and _genuine(entry[1]):
            return entry
    return None


class ReplicaPool:
    """See module docstring.

    Parameters
    ----------
    services:
        One fully-built :class:`PredictionService` per replica.
    service_factory:
        ``factory(replica_id) -> PredictionService`` used to rebuild a
        quarantined replica.  ``None`` disables restarts (the replica
        stays quarantined until swapped manually — useful in tests).
    min_healthy:
        Quarantine never reduces the healthy count below this floor.
    failure_threshold:
        Consecutive replica-level dispatch failures (errors/timeouts)
        before quarantine.
    stale_after_s:
        A replica whose oldest in-flight scoring is older than this (and
        whose heartbeat is equally old) is considered wedged.  With
        hedging off, a primary silent this long fails over.
    hedge_ms:
        ``None`` or ``0`` disables hedging; a positive number is a fixed
        hedge delay; ``"auto"`` tracks the EWMA-smoothed p99 of pool
        dispatch latency.
    dispatch_timeout_s:
        Upper bound on one whole dispatch when no request in the batch
        carries a deadline (else the earliest deadline bounds it); past
        it the pool answers typed degraded ``replica_timeout`` responses
        from the prior.
    prior_ctr:
        The calibrated constant used for pool-level degraded answers.
    """

    def __init__(self, services: Sequence[PredictionService], *,
                 service_factory: Optional[
                     Callable[[int], PredictionService]] = None,
                 min_healthy: int = 1,
                 failure_threshold: int = 3,
                 stale_after_s: float = 2.0,
                 hedge_ms: Union[None, float, str] = None,
                 hedge_floor_ms: float = 20.0,
                 dispatch_timeout_s: float = 5.0,
                 prior_ctr: float = 0.5,
                 probe_interval_s: float = 0.25,
                 restart_backoff: Optional[Callable[[], RestartBackoff]]
                 = None,
                 bus: Optional[EventBus] = None,
                 tracer: Optional[Tracer] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if not services:
            raise ValueError("a pool needs at least one replica")
        if not 1 <= min_healthy <= len(services):
            raise ValueError(
                f"min_healthy must be in [1, {len(services)}], "
                f"got {min_healthy}")
        if isinstance(hedge_ms, str) and hedge_ms != "auto":
            raise ValueError(f"hedge_ms must be a number, None or 'auto', "
                             f"got {hedge_ms!r}")
        make_backoff = restart_backoff or RestartBackoff
        self._replicas = [Replica(i, svc, backoff=make_backoff(), clock=clock)
                          for i, svc in enumerate(services)]
        self.service_factory = service_factory
        self.min_healthy = min_healthy
        self.failure_threshold = failure_threshold
        self.stale_after_s = stale_after_s
        self.hedge_ms = hedge_ms
        self.hedge_floor_ms = hedge_floor_ms
        self.dispatch_timeout_s = dispatch_timeout_s
        self.prior_ctr = float(prior_ctr)
        self.probe_interval_s = probe_interval_s
        self.bus = bus
        self.tracer = tracer if tracer is not None else Tracer(bus=bus)
        self.metrics = PoolMetrics(lambda: self._replicas)
        self.latency = _EwmaLatency()
        self._hedge_auto_s: Optional[float] = None
        self._clock = clock
        self._lock = threading.Lock()
        self._mirror: Optional[Callable[[Any, PredictionResponse], None]] \
            = None
        self.poller = Poller(
            self.check_replicas, lambda: self.probe_interval_s,
            lambda _exc: self.metrics.counter("pool.probe_errors").inc(),
            "pool-prober")
        self.metrics.gauge("pool.size").set(len(self._replicas))
        self.metrics.gauge("pool.healthy").set(len(self._replicas))

    # ------------------------------------------------------------------
    # Introspection / facade plumbing
    # ------------------------------------------------------------------
    @property
    def replicas(self) -> List[Replica]:
        return list(self._replicas)

    @property
    def size(self) -> int:
        return len(self._replicas)

    def healthy_replicas(self) -> List[Replica]:
        with self._lock:
            return [r for r in self._replicas if r.state == REPLICA_HEALTHY]

    @property
    def model_version(self) -> str:
        healthy = self.healthy_replicas()
        target = healthy[0] if healthy else self._replicas[0]
        return target.service.model_version

    @property
    def ready(self) -> bool:
        healthy = self.healthy_replicas()
        return (len(healthy) >= self.min_healthy
                and any(r.service.ready for r in healthy))

    @property
    def drift(self):
        """The primary replica's drift monitor (for the ``drift`` op)."""
        return self._replicas[0].service.drift

    def _emit_replica(self, replica: Replica, status: str, **payload) -> None:
        self.metrics.counter(f"pool.replica.{status}").inc()
        if self.bus is not None:
            self.bus.emit("replica", replica=replica.name, status=status,
                          **payload)

    def _update_healthy_gauge(self) -> None:
        with self._lock:
            healthy = sum(1 for r in self._replicas
                          if r.state == REPLICA_HEALTHY)
        self.metrics.gauge("pool.healthy").set(healthy)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self, exclude: Sequence[int] = ()
              ) -> Optional[Tuple[Replica, int]]:
        """Healthy replica with the least in-flight work (lowest id on
        ties), with its in-flight token already registered; ``None``
        when nothing outside ``exclude`` is healthy.

        Registration happens under the pool lock so that a concurrent
        :meth:`begin_canary` can never flip a replica to canary duty
        between selection and the inflight bump — the rollout controller
        drains ``inflight`` to zero before touching the canary's model,
        which is only sound if every picked dispatch is visible there.
        """
        with self._lock:
            candidates = [r for r in self._replicas
                          if r.state == REPLICA_HEALTHY
                          and r.id not in exclude]
            if not candidates:
                return None
            chosen = min(candidates, key=lambda r: (r.inflight, r.id))
            return chosen, chosen.begin()

    def total_inflight(self) -> int:
        return sum(r.inflight for r in self._replicas)

    def _hedge_delay_s(self) -> Optional[float]:
        """The current hedge delay, or ``None`` when hedging is off or
        suppressed (overload / fewer than two healthy replicas)."""
        if self.hedge_ms is None:
            return None
        if isinstance(self.hedge_ms, str):  # "auto"
            delay = (self._hedge_auto_s if self._hedge_auto_s is not None
                     else self.hedge_floor_ms / 1e3)
            delay = max(delay, self.hedge_floor_ms / 1e3)
        else:
            if self.hedge_ms <= 0:
                return None
            delay = self.hedge_ms / 1e3
        healthy = self.healthy_replicas()
        if len(healthy) < 2:
            return None
        if self.total_inflight() >= 2 * len(healthy):
            self.metrics.counter("pool.hedges_suppressed").inc()
            return None
        return delay

    def _observe_latency(self, seconds: float) -> None:
        self.latency.observe(seconds)
        self.metrics.histogram("pool.dispatch_latency_s").observe(seconds)
        # EWMA-smoothed p99 drives the auto hedge delay.
        p99 = self.metrics.histogram("pool.dispatch_latency_s").quantile(0.99)
        if p99 is not None:
            if self._hedge_auto_s is None:
                self._hedge_auto_s = p99
            else:
                self._hedge_auto_s += 0.2 * (p99 - self._hedge_auto_s)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _launch(self, label: str, box: _ResultBox,
                reqs: List[BatchRequest],
                exclude: Sequence[int] = ()) -> Optional[Replica]:
        """Score ``reqs`` on the least-loaded healthy replica outside
        ``exclude``, on its own thread; the outcome lands in ``box`` as
        ``(label, responses or None, replica)``."""
        picked = self._pick(exclude)
        if picked is None:
            return None
        replica, token = picked

        def _run() -> None:
            try:
                responses = replica.service.predict_batch(reqs)
            except Exception as exc:  # noqa: BLE001 — a replica must not
                # take the router down with it
                replica.end(token, ok=False)
                self.metrics.counter("pool.replica_errors").inc()
                self._emit_replica(replica, "dispatch_error", error=str(exc))
                box.offer(label, None, replica)
                return
            replica.end(token, ok=True)
            box.offer(label, responses, replica)

        threading.Thread(target=_run, daemon=True,
                         name=f"dispatch-{replica.name}").start()
        return replica

    def _pool_degraded(self, reason: str, request_id: Optional[str],
                       started: float) -> PredictionResponse:
        """A typed answer from the prior when no replica produced one."""
        self.metrics.counter("pool.requests").inc()
        self.metrics.counter(f"pool.{reason}").inc()
        if self.bus is not None:
            self.bus.emit("degrade", reason=reason, level=LEVEL_PRIOR,
                          request_id=request_id)
        return PredictionResponse(
            status=STATUS_DEGRADED, probability=self.prior_ctr,
            served_by=LEVEL_PRIOR, model_version=self.model_version,
            request_id=request_id, degraded_reason=reason,
            latency_ms=(self._clock() - started) * 1e3)

    def predict(self, features: Any, *,
                deadline_s: Optional[float] = None,
                request_id: Optional[str] = None,
                queued_at: Optional[float] = None) -> PredictionResponse:
        """Route one request: :meth:`predict_batch` on a batch of one."""
        return self.predict_batch([BatchRequest(
            features, deadline_s=deadline_s, request_id=request_id,
            queued_at=queued_at)])[0]

    def predict_batch(self, requests: Sequence[Union[BatchRequest, Any]]
                      ) -> List[PredictionResponse]:
        """Route a batch to one replica, with the per-request guarantees
        of :meth:`PredictionService.predict_batch`.

        The whole batch goes to one replica (a single model/version
        snapshot, so a batch never mixes versions); a second replica
        answers it only when the primary fails over or is hedged.  The
        caller's :class:`BatchRequest` objects reach the replica as they
        are.  A pool of one replica scores inline — byte-identical to
        its bare service — and still records heartbeat and latency.
        """
        reqs = [r if isinstance(r, BatchRequest) else BatchRequest(r)
                for r in requests]
        if not reqs:
            return []
        started = self._clock()
        if len(self._replicas) == 1:  # inline: no thread, no hedge
            self.metrics.counter("pool.dispatches").inc()
            replica, ok = self._replicas[0], False
            token = replica.begin()
            try:
                responses = replica.service.predict_batch(reqs)
                ok = True
            finally:
                replica.end(token, ok=ok)
            if _genuine(responses):
                self._observe_latency(self._clock() - started)
            self.metrics.counter("pool.requests").inc(len(reqs))
            return responses
        with self.tracer.span("serve.dispatch",
                              batch_size=len(reqs)) as span:
            responses, replica, hedged = self._dispatch(reqs, started)
            span.set_attr("replica", replica.name if replica else None)
            span.set_attr("hedged", hedged)
        return responses

    def _dispatch(self, reqs: List[BatchRequest], started: float):
        """Primary, then at most one second replica, inside one budget.

        The budget is the earliest request deadline, else
        ``dispatch_timeout_s``.  The primary's answer is *genuine* when
        every reply is ``ok`` or ``invalid``.  A second replica is
        launched when the primary raises, or when it has given no
        genuine answer by the hedge delay — with hedging off, by the
        staleness window that marks a replica wedged.  A non-genuine
        answer is re-tried only while hedging is on.  The first genuine
        answer wins.
        """
        self.metrics.counter("pool.dispatches").inc()
        deadlines = [r.deadline_s for r in reqs if r.deadline_s is not None]
        budget = min(deadlines) if deadlines else self.dispatch_timeout_s
        box = _ResultBox()
        primary = self._launch("primary", box, reqs)
        if primary is None:
            self.metrics.counter("pool.no_healthy").inc()
            return ([self._pool_degraded("no_healthy_replica", r.request_id,
                                         started) for r in reqs],
                    None, False)
        launched = 1
        hedge_delay = self._hedge_delay_s()

        def _settled(entries: List[tuple]) -> bool:
            return (_first_genuine(entries) is not None
                    or len(entries) >= launched)

        first_wait = (self.stale_after_s if hedge_delay is None
                      else hedge_delay)
        entries = box.wait(_settled, min(first_wait, budget))
        hedged = False
        if (_first_genuine(entries) is None
                and budget > self._clock() - started
                and (hedge_delay is not None or not entries
                     or entries[0][1] is None)):
            if self._launch("hedge", box, reqs,
                            exclude=(primary.id,)) is not None:
                # Silence under hedging → hedge; otherwise → failover.
                kind = ("hedges" if hedge_delay is not None and not entries
                        else "failovers")
                self.metrics.counter(f"pool.{kind}").inc()
                launched = 2
                hedged = True
        remaining = budget - (self._clock() - started)
        entries = box.wait(_settled, max(remaining, 0.0))
        winner = _first_genuine(entries)
        if winner is None:
            # No genuine answer: primary-preferred best-effort pick.
            arrived = {label: (resp, rep) for label, resp, rep in entries
                       if resp is not None}
            for label in ("primary", "hedge"):
                if label in arrived:
                    winner = (label,) + arrived[label]
                    break
        if winner is None:
            # Nothing answered inside the budget: every still-silent
            # replica takes a failure strike (wedge detection feeds off
            # these plus in-flight staleness).
            self.metrics.counter("pool.replica_timeouts").inc()
            answered = {rep.id for _, _, rep in entries}
            for rep in ([primary] if launched == 1 else
                        [r for r in self._replicas
                         if r.id not in answered and r.inflight > 0]):
                rep.note_failure()
            return ([self._pool_degraded("replica_timeout", r.request_id,
                                         started) for r in reqs],
                    None, hedged)
        label, responses, replica = winner
        if hedged:
            self.metrics.counter("pool.hedge_wins" if label == "hedge"
                                 else "pool.hedge_wasted").inc()
        if _genuine(responses):
            self._observe_latency(self._clock() - started)
        self.metrics.counter("pool.requests").inc(len(reqs))
        if self._mirror is not None:
            for req, response in zip(reqs, responses):
                if response.status in (STATUS_OK, STATUS_DEGRADED):
                    try:
                        self._mirror(req.features, response)
                    except Exception:
                        self.metrics.counter("pool.mirror_errors").inc()
        return responses, replica, hedged

    def shed_response(self, error: OverloadedError,
                      request_id: Optional[str] = None) -> PredictionResponse:
        return self._replicas[0].service.shed_response(
            error, request_id=request_id)

    # ------------------------------------------------------------------
    # Mirroring (canary shadow traffic)
    # ------------------------------------------------------------------
    def set_mirror(self, hook: Optional[
            Callable[[Any, PredictionResponse], None]]) -> None:
        """Install/remove the shadow-traffic hook.  The hook must be
        cheap (sample + enqueue); it runs on the caller's thread, once
        per ``ok`` or ``degraded`` answer, after the winning replica's
        answer is chosen."""
        self._mirror = hook

    # ------------------------------------------------------------------
    # Canary slot management (used by the rollout controller)
    # ------------------------------------------------------------------
    def begin_canary(self) -> Optional[Replica]:
        """Pull one healthy replica out of user rotation for canary
        duty; ``None`` when the min-healthy floor forbids it."""
        with self._lock:
            healthy = [r for r in self._replicas
                       if r.state == REPLICA_HEALTHY]
            if len(healthy) - 1 < self.min_healthy:
                return None
            chosen = min(healthy, key=lambda r: (r.inflight, -r.id))
            chosen.state = REPLICA_CANARY
        self._emit_replica(chosen, "canary_start")
        self._update_healthy_gauge()
        return chosen

    def end_canary(self, replica: Replica) -> None:
        with self._lock:
            if replica.state == REPLICA_CANARY:
                replica.state = REPLICA_HEALTHY
                replica.consecutive_failures = 0
        self._emit_replica(replica, "canary_end")
        self._update_healthy_gauge()

    # ------------------------------------------------------------------
    # Health checking and quarantined restart
    # ------------------------------------------------------------------
    def check_replicas(self) -> None:
        """One health pass: quarantine failed/wedged replicas (respecting
        the min-healthy floor) and restart quarantined ones whose
        backoff has elapsed."""
        now = self._clock()
        to_restart: List[Replica] = []
        with self._lock:
            healthy = sum(1 for r in self._replicas
                          if r.state == REPLICA_HEALTHY)
            for replica in self._replicas:
                if replica.state == REPLICA_HEALTHY:
                    failed = (replica.consecutive_failures
                              >= self.failure_threshold)
                    wedged = replica.is_stale(self.stale_after_s, now)
                    if not (failed or wedged):
                        continue
                    if healthy - 1 < self.min_healthy:
                        # Floor: keep it in rotation; its breaker/ladder
                        # still guarantees typed answers.
                        self.metrics.counter("pool.floor_holds").inc()
                        continue
                    replica.state = REPLICA_UNHEALTHY
                    healthy -= 1
                    delay = replica.backoff.next_delay()
                    replica.next_restart_at = now + delay
                    reason = "wedged" if wedged else "failures"
                    self.metrics.counter("pool.quarantined").inc()
                    self._emit_replica(replica, "quarantined", reason=reason,
                                       restart_in_s=delay)
                elif replica.state == REPLICA_UNHEALTHY:
                    if (self.service_factory is not None
                            and replica.next_restart_at is not None
                            and now >= replica.next_restart_at):
                        to_restart.append(replica)
        for replica in to_restart:
            self._restart(replica)
        self._update_healthy_gauge()

    def _restart(self, replica: Replica) -> None:
        """Rebuild a quarantined replica's service from the factory.

        The old service (and any thread still wedged inside it) is
        abandoned; in-flight work on it was already answered by hedging
        or the pool-level timeout."""
        try:
            fresh = self.service_factory(replica.id)
        except Exception as exc:  # noqa: BLE001 — a failing restart
            # re-enters backoff, it never kills the prober
            delay = replica.backoff.next_delay()
            with self._lock:
                replica.next_restart_at = self._clock() + delay
            self.metrics.counter("pool.restart_failures").inc()
            self._emit_replica(replica, "restart_failed", error=str(exc),
                               retry_in_s=delay)
            return
        with self._lock:
            replica.service = fresh
            replica.state = REPLICA_HEALTHY
            replica.consecutive_failures = 0
            replica.restarts += 1
            replica.next_restart_at = None
            replica.backoff.reset()
            replica._inflight.clear()
            replica.heartbeat_at = self._clock()
        self.metrics.counter("pool.restarts").inc()
        self._emit_replica(replica, "restarted",
                           model_version=fresh.model_version)

    # ------------------------------------------------------------------
    # Probes / lifecycle
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        replicas = [r.snapshot() for r in self._replicas]
        healthy = sum(1 for r in replicas if r["state"] == REPLICA_HEALTHY)
        return {
            "status": "ok",
            "ready": self.ready,
            "model_version": self.model_version,
            "replicas": replicas,
            "healthy": healthy,
            "size": len(replicas),
            "min_healthy": self.min_healthy,
            "latency_ewma_ms": self.latency() * 1e3,
        }

    def readiness(self) -> Dict[str, Any]:
        healthy = len(self.healthy_replicas())
        return {"ready": self.ready, "model_version": self.model_version,
                "healthy": healthy, "replicas": len(self._replicas)}
