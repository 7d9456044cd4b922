"""The ``repro serve`` process: JSONL protocol, probes, threaded socket.

One line-oriented protocol serves both transports:

* **stdio mode** — one JSON request per stdin line, one JSON response
  per stdout line; the simplest thing a sidecar or test can drive.
* **socket mode** — a threaded TCP server: reader threads parse lines
  into the bounded priority queue, a worker pool drains it in
  micro-batches, and responses (tagged with ``request_id``) stream back
  per connection.  Probes (``{"op": "health"}`` / ``{"op": "ready"}``)
  are answered in the reader thread, *bypassing* the queue — a probe
  must succeed even when the queue is saturated, that is what probes
  are for.

Both transports score through one path: a :class:`MicroBatcher` hands
runs of lines to :func:`handle_request_lines`, which makes one
``predict_batch`` call per run.  ``--batch-size 1`` (the default) is
that path with batches of one.

Request envelope (all fields except ``features`` optional)::

    {"features": {"field_0": 3, ...}, "request_id": "r1",
     "priority": 5, "deadline_ms": 50}

A bare feature mapping (no ``features`` key) is accepted too.  Responses
are :meth:`PredictionResponse.as_dict` JSON.  ``build_serving_stack``
assembles the replica pool + checkpoint watcher exactly the way the CLI
does, so tests and the CLI share one construction path.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time as _time_module
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Tuple, Union)

import numpy as np

from ..data.dataset import Batch
from ..obs.events import EventBus
from ..obs.export import CONTENT_TYPE, render_prometheus
from ..obs.metrics import MetricsRegistry
from ..obs.monitor import DriftMonitor
from ..poller import Poller
from ..resilience.checkpoint import CheckpointManager
from .batching import MicroBatcher
from .degradation import CircuitBreaker
from .errors import OverloadedError
from .faults import FlakyModel, ServeCrash, SlowModel, valid_requests
from .queue import BoundedRequestQueue
from .reload import GoldenSet
from .replica import ReplicaPool
from .rollout import (MANIFEST_NAME, CanaryController, RolloutManifest,
                      RolloutPolicy, select_initial_checkpoint)
from .service import (BatchRequest, PredictionService, PredictionResponse,
                      STATUS_INVALID)

#: zoo models `repro serve --model` can instantiate without a search stage.
SERVABLE_MODELS = ("LR", "FNN", "FM", "FwFM", "FmFM", "IPNN", "OPNN",
                   "DeepFM", "PIN", "Poly2", "WideDeep", "FFM", "DCN")


# ----------------------------------------------------------------------
# Stack construction (shared by CLI `serve` / `predict` and tests)
# ----------------------------------------------------------------------
@dataclass
class ServingStack:
    """Everything a serving process runs: service, watcher, metadata.

    ``service`` is the facade the protocol handlers talk to:
    :func:`build_serving_stack` makes it a :class:`ReplicaPool` at every
    replica count, also named ``pool`` for lifecycle management.  A
    hand-built stack may serve a bare :class:`PredictionService`, which
    answers scoring lines exactly as a pool of one but has no probes.
    ``canary`` is the checkpoint watcher, at every pool size, when a
    checkpoint directory is watched.
    """

    service: Any
    model_name: str
    dataset: str
    notes: List[str] = field(default_factory=list)
    pool: Optional[ReplicaPool] = None
    canary: Optional[CanaryController] = None

    def _pollers(self) -> List[Poller]:
        owners = (self.pool, self.canary)
        return [owner.poller for owner in owners if owner is not None]

    def start_background(self) -> None:
        """Start every background loop this stack owns (idempotent)."""
        for poller in self._pollers():
            poller.start()

    def stop_background(self) -> None:
        for poller in reversed(self._pollers()):
            poller.stop()

    def poll_inline(self) -> None:
        """Drive background work inline when no threads are running.

        The stdio transport calls this before each batch, so tests that
        start no background threads stay deterministic.
        """
        for poller in self._pollers():
            if not poller.running:
                poller.step()


def parse_injections(specs: Optional[List[str]]) -> Dict[str, float]:
    """Parse ``--inject kind:value`` chaos specs (flaky / slow / crash)."""
    parsed: Dict[str, float] = {}
    for spec in specs or []:
        kind, _, value = spec.partition(":")
        if kind not in ("flaky", "slow", "crash") or not value:
            raise ValueError(
                f"bad --inject spec {spec!r}; expected flaky:K, slow:SECONDS "
                "or crash:N")
        parsed[kind] = float(value)
    return parsed


def build_serving_stack(model_name: str, dataset: str, scale: str = "quick",
                        *,
                        samples: Optional[int] = None,
                        arch_path: Optional[str] = None,
                        weights: Optional[str] = None,
                        checkpoint_dir: Optional[str] = None,
                        deadline_ms: Optional[float] = None,
                        breaker_threshold: int = 5,
                        breaker_cooldown_s: float = 5.0,
                        golden_requests: int = 8,
                        reload_interval_s: float = 1.0,
                        inject: Optional[List[str]] = None,
                        drift_window: Optional[int] = None,
                        replicas: int = 1,
                        min_healthy: int = 1,
                        hedge_ms: Union[None, float, str] = None,
                        canary_mirror: Optional[float] = None,
                        bus: Optional[EventBus] = None) -> ServingStack:
    """Assemble the full serving stack the way ``repro serve`` does.

    The dataset/scale/samples triple must match the training run that
    produced the weights — the synthetic pipeline is deterministic, so
    equal configs yield identical schemas, vocabularies and cross
    cardinalities.

    Every replica count builds a :class:`ReplicaPool` (one model /
    breaker / metrics / drift monitor per replica).  A watched
    checkpoint directory gets a :class:`CanaryController` at every pool
    size: new checkpoints are staged on one canary replica against
    mirrored live traffic and promoted or rolled back automatically.  A
    pool that can never spare a canary (one replica, ``min_healthy ==
    replicas``, or ``canary_mirror=0``) promotes each admitted
    checkpoint directly.
    """
    from ..experiments import default_config, prepare_dataset
    from ..experiments.runner import _build_plain_model
    from ..io import load_architecture

    from dataclasses import replace
    from pathlib import Path

    if replicas < 1:
        raise ValueError(f"replicas must be >= 1, got {replicas}")
    if not 1 <= min_healthy <= replicas:
        raise ValueError(f"min_healthy must be in [1, {replicas}] (the "
                         f"replica count), got {min_healthy}")
    injections = parse_injections(inject)
    config = default_config(dataset, scale)
    if samples is not None:
        config = replace(config, n_samples=samples)
    bundle = prepare_dataset(config)
    notes: List[str] = []

    architecture = None
    if arch_path is not None:
        architecture = load_architecture(arch_path)

    def model_factory():
        rng = np.random.default_rng(config.seed)
        if architecture is not None:
            from ..core.retrain import build_fixed_model

            return build_fixed_model(architecture, bundle.train,
                                     config.retrain_config(), rng=rng)
        return _build_plain_model(model_name, bundle.train, config, rng)

    model = model_factory()

    # Cross features: the transform that produced the training cross ids,
    # so serve-time ids equal train-time ones exactly.
    cross_transform = (bundle.full.cross_transform if model.needs_cross
                       else None)

    # Initial weights: explicit .npz beats checkpoint dir beats random.
    # The pick consults the rollout manifest at every replica count, so
    # a restart after an interrupted canary never boots on an
    # unpromoted, refused or rolled-back checkpoint.
    manager = None
    manifest_path: Optional[Path] = None
    loaded_epoch: Optional[int] = None
    if weights is not None:
        from ..io import load_checkpoint

        load_checkpoint(model, weights)
        notes.append(f"weights loaded from {weights}")
    if checkpoint_dir is not None:
        manager = CheckpointManager(checkpoint_dir)
        manifest_path = Path(manager.directory) / MANIFEST_NAME
        if weights is None:
            loaded = select_initial_checkpoint(
                manager, RolloutManifest.load(manifest_path))
            if loaded is not None:
                checkpoint, path = loaded
                model.load_state_dict(checkpoint.model_state)
                loaded_epoch = checkpoint.epoch
                notes.append(f"checkpoint loaded from {path}")
            else:
                notes.append(
                    f"no valid checkpoint in {checkpoint_dir} yet; serving "
                    "initial weights until one appears")
    if weights is None and manager is None:
        notes.append("serving randomly-initialised weights (no --weights / "
                     "--checkpoint-dir)")
    initial_state = model.state_dict()

    # Drift monitoring (opt-in): the reference fingerprint is the train
    # split's feature distribution plus the *loaded* model's scores over
    # it — computed before chaos wrappers so injected faults can't
    # poison the baseline.  The reference is computed once and shared by
    # every replica's own monitor.
    drift_sample = None
    drift_scores = None
    if drift_window is not None:
        drift_sample = bundle.train.x[:4096]
        x_cross = (cross_transform.transform(drift_sample)
                   if cross_transform is not None else None)
        drift_scores = np.asarray(model.predict_proba(
            Batch(x=drift_sample, x_cross=x_cross,
                  y=np.zeros(len(drift_sample)))))
        notes.append(f"drift monitoring on (window={drift_window}, "
                     f"reference={len(drift_sample)} train rows)")

    def make_drift(registry: MetricsRegistry) -> Optional[DriftMonitor]:
        if drift_sample is None:
            return None
        monitor = DriftMonitor(field_names=bundle.full.schema.field_names,
                               window=drift_window, metrics=registry, bus=bus)
        monitor.fit_reference(drift_sample, scores=drift_scores,
                              cardinalities=bundle.full.cardinalities)
        return monitor

    prior = max(min(bundle.train.positive_ratio, 1.0 - 1e-6), 1e-6)

    crash: Optional[ServeCrash] = None
    if "crash" in injections:
        crash = ServeCrash(at_request=int(injections["crash"]))
        notes.append(f"injected crash after {int(injections['crash'])} "
                     "requests")
    version = ("initial" if loaded_epoch is None
               else f"epoch-{loaded_epoch:08d}")
    # Requests are checked in the model's id space: its tables are sized
    # by the dataset's vocabularies, not the raw cardinalities the
    # schema records.
    schema = replace(bundle.full.schema, fields=tuple(
        replace(spec, cardinality=cardinality) for spec, cardinality
        in zip(bundle.full.schema.fields, bundle.full.cardinalities)))
    # The veto the checkpoint watcher applies before serving new weights.
    golden = GoldenSet(list(valid_requests(schema, count=golden_requests)))

    def build_replica_service(replica_id: int,
                              boot: bool = False) -> PredictionService:
        """Build one replica; the pool calls it again for restarts.

        At boot every replica takes the boot pick's weights and version,
        and replica 0 serves the boot model itself.  A restart re-reads
        the rollout manifest, so a replica restarted after a rollback
        does not reload the checkpoint the fleet just rolled away from;
        it starts from clean weights (``state_dict`` copies).
        """
        state = initial_state
        rep_version = version
        if not boot and manager is not None and weights is None:
            picked = select_initial_checkpoint(
                manager, RolloutManifest.load(manifest_path))
            if picked is not None:
                ckpt, _path = picked
                state = ckpt.model_state
                rep_version = f"epoch-{ckpt.epoch:08d}"
        if boot and replica_id == 0:
            rep_model = model
        else:
            rep_model = model_factory()
            rep_model.load_state_dict(state)
        registry = MetricsRegistry()
        return PredictionService(
            rep_model, schema,
            cross_transform=cross_transform,
            prior_ctr=prior,
            deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
            breaker=CircuitBreaker(failure_threshold=breaker_threshold,
                                   cooldown_s=breaker_cooldown_s),
            metrics=registry,
            bus=bus,
            drift=make_drift(registry),
            model_version=rep_version)

    services = [build_replica_service(i, boot=True)
                for i in range(replicas)]
    # Chaos wrappers target replica 0 only, so in a larger pool the
    # pool's defences (failover, hedging, quarantine) are what the chaos
    # suite exercises rather than a uniformly-broken fleet.
    if "slow" in injections:
        first = services[0]
        first.swap_model(SlowModel(first.model, delay_s=injections["slow"]),
                         first.model_version)
        notes.append(f"injected slow scoring on replica 0: "
                     f"+{injections['slow']}s")
    if "flaky" in injections:
        first = services[0]
        first.swap_model(
            FlakyModel(first.model, fail_first=int(injections["flaky"])),
            first.model_version)
        notes.append(f"injected flaky scoring on replica 0: first "
                     f"{int(injections['flaky'])} calls fail")

    pool = ReplicaPool(services,
                       service_factory=build_replica_service,
                       min_healthy=min_healthy,
                       hedge_ms=hedge_ms,
                       prior_ctr=prior,
                       bus=bus)
    pool._crash = crash  # picked up by the protocol loop
    notes.append(f"replica pool: {replicas} replicas, "
                 f"min_healthy={min_healthy}, hedge_ms={hedge_ms}")

    canary = None
    if manager is not None:
        policy = (RolloutPolicy() if canary_mirror is None
                  else RolloutPolicy(mirror_fraction=canary_mirror))
        canary = CanaryController(pool, manager, model_factory,
                                  golden=golden, policy=policy,
                                  manifest_path=manifest_path,
                                  loaded_epoch=loaded_epoch,
                                  interval_s=reload_interval_s,
                                  bus=bus)
        pool._rollout = canary.rollout_state  # the `rollout` protocol op
        notes.append("checkpoint rollout on (direct promotion, no canary)"
                     if canary.direct else
                     f"canary rollout on (mirror={policy.mirror_fraction:g})")
    return ServingStack(service=pool, model_name=model_name,
                        dataset=dataset, notes=notes, pool=pool,
                        canary=canary)


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
def invalid_line_response(message: str) -> Dict[str, Any]:
    """The typed answer to a line that is not a request at all."""
    return PredictionResponse(
        status=STATUS_INVALID,
        error={"code": "invalid_request", "message": message}).as_dict()


def internal_error_response(message: str) -> Dict[str, Any]:
    """The typed answer to a line whose handling raised."""
    return {"status": "error",
            "error": {"code": "internal", "message": message}}


def _answer_op(payload: Dict[str, Any], service: ReplicaPool
               ) -> Tuple[Dict[str, Any], bool]:
    """An op line's ``{"op": ...}`` payload → ``(response, is_shutdown)``.

    Never raises: an op that fails (say ``health`` on a stack whose
    service has no probes) answers a typed ``internal`` error, so the
    connection that sent it keeps serving.
    """
    try:
        return _op_response(payload, service)
    except Exception as exc:  # noqa: BLE001 — one op line, one answer
        return internal_error_response(
            f"op {payload['op']!r} failed: {type(exc).__name__}: {exc}"
        ), False


def _op_response(payload: Dict[str, Any], service: ReplicaPool
                 ) -> Tuple[Dict[str, Any], bool]:
    op = payload["op"]
    if op == "health":
        return service.health(), False
    if op == "ready":
        return service.readiness(), False
    if op == "metrics":
        if payload.get("format") == "prometheus":
            return {"content_type": CONTENT_TYPE,
                    "body": render_prometheus(
                        service.metrics.snapshot())}, False
        return service.metrics.snapshot(), False
    if op == "drift":
        if service.drift is None:
            return {"drift": "disabled"}, False
        report = service.drift.evaluate()
        if report is None:
            return {"drift": "pending",
                    "window": service.drift.window}, False
        return report.as_dict(), False
    if op == "rollout":
        state_fn = getattr(service, "_rollout", None)
        if state_fn is None:
            return {"rollout": "disabled"}, False
        return state_fn(), False
    if op == "shutdown":
        return {"status": "shutting_down"}, True
    return invalid_line_response(f"unknown op {op!r}"), False


def handle_request_line(line: str, service: ReplicaPool,
                        queued_at: Optional[float] = None
                        ) -> Tuple[Dict[str, Any], bool]:
    """One protocol line → ``(response dict, is_shutdown)``:
    :func:`handle_request_lines` on a run of one line."""
    responses, shutdown = handle_request_lines([line], service, [queued_at])
    return responses[0], shutdown


def handle_request_lines(lines: List[str], service: ReplicaPool,
                         queued_ats: Optional[List[Optional[float]]] = None
                         ) -> Tuple[List[Dict[str, Any]], bool]:
    """A run of protocol lines → ``(response dicts, shutdown)``.

    Never raises: unparseable JSON and envelope errors become
    ``invalid`` responses, matching the validator's contract.
    Contiguous scoring lines are stacked into one
    :meth:`PredictionService.predict_batch` call; op lines (and
    unparseable ones) are answered inline, flushing the pending scoring
    run first so responses keep input order.  One response dict per
    input line (``{}`` for blank lines); lines after a shutdown op are
    left unanswered.  ``queued_ats`` (tracer-clock timestamps of when
    the transport accepted each line) become ``serve.queue`` spans.
    """
    if queued_ats is None:
        queued_ats = [None] * len(lines)
    responses: List[Dict[str, Any]] = [{} for _ in lines]
    pending: List[Tuple[int, BatchRequest]] = []
    shutdown = False

    def flush() -> None:
        if not pending:
            return
        crash = getattr(service, "_crash", None)
        if crash is not None:
            for _ in pending:
                crash()
        answers = service.predict_batch([req for _, req in pending])
        for (idx, _), answer in zip(pending, answers):
            responses[idx] = answer.as_dict()
        pending.clear()

    for i, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError as exc:
            responses[i] = invalid_line_response(f"unparseable JSON: {exc}")
            continue
        if isinstance(payload, dict) and "op" in payload:
            flush()
            responses[i], shutdown = _answer_op(payload, service)
            if shutdown:
                break
            continue
        features, request_id, _priority, deadline_s = split_envelope(payload)
        pending.append((i, BatchRequest(
            features, deadline_s=deadline_s, request_id=request_id,
            queued_at=queued_ats[i])))
    flush()
    return responses, shutdown


def encode_responses(responses: Iterable[Dict[str, Any]]) -> str:
    """Response dicts → their JSONL wire text, one line each.

    Empty dicts (blank input lines, lines after a shutdown) produce no
    line.  Both transports write a whole run of replies with one call
    on this text, so a batch leaves in one write, not one per reply.
    """
    return "".join(json.dumps(response) + "\n"
                   for response in responses if response)


def split_envelope(payload: Any
                   ) -> Tuple[Any, Optional[str], int, Optional[float]]:
    """Extract ``(features, request_id, priority, deadline_s)``."""
    request_id = None
    priority = 0
    deadline_s = None
    features = payload
    if isinstance(payload, dict):
        if "features" in payload:
            features = payload["features"]
        raw_id = payload.get("request_id")
        if raw_id is not None:
            request_id = str(raw_id)
        try:
            priority = int(payload.get("priority", 0) or 0)
        except (TypeError, ValueError):
            priority = 0
        raw_deadline = payload.get("deadline_ms")
        if isinstance(raw_deadline, (int, float)) and raw_deadline > 0:
            deadline_s = float(raw_deadline) / 1e3
    return features, request_id, priority, deadline_s


def serve_stdio(stack: ServingStack, stdin=None, stdout=None, *,
                batch_size: int = 1, batch_wait_ms: float = 0.0) -> int:
    """Blocking stdin/stdout JSONL loop.

    A reader thread feeds a FIFO queue that a :class:`MicroBatcher`
    drains into runs of at most ``batch_size`` lines, so pipelined
    clients get coalesced scoring; responses come back one per request
    line, in input order.  The queue is deliberately deep and fed at
    priority 0 only: stdio has no shedding contract — a full queue is
    pure backpressure (the reader retries, which simply stops consuming
    stdin), never a drop.
    """
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    queue = BoundedRequestQueue(max_depth=max(1024, batch_size * 64))

    def _read() -> None:
        try:
            for line in stdin:
                if not line.strip():
                    continue
                item = (line, stack.service.tracer.clock())
                while not queue.put(item):
                    _time_module.sleep(0.005)
        except (OSError, ValueError, RuntimeError):
            pass  # closed pipe or closed queue — drain what we have
        finally:
            try:
                queue.close()
            except RuntimeError:
                pass

    stack.start_background()
    print(json.dumps({"status": "ready",
                      "model": stack.model_name,
                      "dataset": stack.dataset,
                      "notes": stack.notes}), file=stdout, flush=True)
    reader = threading.Thread(target=_read, name="stdio-reader", daemon=True)
    reader.start()
    batcher = MicroBatcher(queue, max_batch_size=batch_size,
                           max_wait_ms=batch_wait_ms)
    try:
        while True:
            items = batcher.next_batch(timeout=0.2)
            if items is None:
                if not reader.is_alive() and len(queue) == 0:
                    break
                continue
            stack.poll_inline()
            responses, shutdown = handle_request_lines(
                [line for line, _ in items], stack.service,
                queued_ats=[queued_at for _, queued_at in items])
            stdout.write(encode_responses(responses))
            stdout.flush()
            if shutdown:
                break
    finally:
        stack.stop_background()
    return 0


# ----------------------------------------------------------------------
# Threaded socket server
# ----------------------------------------------------------------------
class SocketServer:
    """Threaded TCP JSONL server with bounded-queue load shedding."""

    def __init__(self, stack: ServingStack, host: str = "127.0.0.1",
                 port: int = 0, workers: int = 4,
                 queue_depth: int = 64,
                 max_wait_ms: Optional[float] = None,
                 batch_size: int = 1,
                 batch_wait_ms: float = 0.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.stack = stack
        self.service = stack.service
        self.host = host
        self.port = port
        self.workers = workers
        self.queue = BoundedRequestQueue(
            max_depth=queue_depth,
            max_wait_s=None if max_wait_ms is None else max_wait_ms / 1e3,
            latency_estimate=self.service.latency,
            on_shed=self._on_shed)
        # Stateless between calls, so every worker drains through it.
        self.batcher = MicroBatcher(self.queue, max_batch_size=batch_size,
                                    max_wait_ms=batch_wait_ms)
        self._sock: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        # Accepted-but-unanswered accounting for graceful drain: bumped
        # *before* a request enters the queue, released only after its
        # response is written (or it was shed with a typed answer), so
        # "pending == 0" means no accepted request is still unanswered.
        self._pending = 0
        self._pending_lock = threading.Lock()
        self.drain_dropped = 0

    # -- queue plumbing -------------------------------------------------
    def _pending_inc(self) -> None:
        with self._pending_lock:
            self._pending += 1

    def _pending_dec(self, count: int = 1) -> None:
        with self._pending_lock:
            self._pending -= count

    @property
    def pending(self) -> int:
        """Accepted requests not yet answered (queued + in flight)."""
        with self._pending_lock:
            return self._pending

    def _on_shed(self, item, error: OverloadedError) -> None:
        write, _line, request_id, _queued_at = item
        response = self.service.shed_response(error, request_id=request_id)
        write(response.as_dict())

    def _worker(self) -> None:
        """Worker loop coalescing queue entries via :class:`MicroBatcher`.

        Probes never reach the queue (readers answer them directly), so
        every drained entry is a scoring line; responses go back through
        each entry's own connection writer in batch order, all of one
        connection's replies in a single write.
        """
        while True:
            items = self.batcher.next_batch(timeout=0.2)
            if items is None:
                if self._stop.is_set():
                    return
                continue
            try:
                lines = [line for _write, line, _rid, _q in items]
                queued = [queued_at for _w, _l, _rid, queued_at in items]
                try:
                    responses, _shutdown = handle_request_lines(
                        lines, self.service, queued_ats=queued)
                except Exception as exc:  # noqa: BLE001 — workers survive
                    responses = ([internal_error_response(str(exc))]
                                 * len(items))
                # One write per connection per batch, in batch order:
                # each connection's writer is its group key.
                groups: Dict[Callable[..., None], List[Dict[str, Any]]] = {}
                for (write, _l, _rid, _q), response in zip(items, responses):
                    groups.setdefault(write, []).append(response)
                for write, group in groups.items():
                    write(*group)
            finally:
                self._pending_dec(len(items))

    # -- connection plumbing --------------------------------------------
    def _handle_connection(self, conn: socket.socket) -> None:
        # Replies leave as soon as they are written: without NODELAY,
        # Nagle holds a burst's later replies until the client ACKs the
        # first, and a waiting client ACKs only on its delayed-ACK timer.
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        wlock = threading.Lock()
        rfile = conn.makefile("rb")

        def write(*responses: Dict[str, Any]) -> None:
            data = encode_responses(responses).encode("utf-8")
            if not data:
                return
            try:
                with wlock:
                    conn.sendall(data)
            except OSError:
                pass  # client went away; nothing to answer

        try:
            for raw in rfile:
                try:
                    stripped = raw.decode("utf-8").strip()
                except UnicodeDecodeError as exc:
                    # One bad line gets a typed answer; the connection
                    # and the lines around it carry on.
                    write(invalid_line_response(
                        f"line is not UTF-8: {exc}"))
                    continue
                if not stripped:
                    continue
                payload = _safe_json(stripped)
                if isinstance(payload, dict) and "op" in payload:
                    # Probes bypass the queue: they must answer under load.
                    response, shutdown = _answer_op(payload, self.service)
                    write(response)
                    if shutdown:
                        self._stop.set()
                        self.queue.close()
                        break
                    continue
                _features, request_id, priority, _deadline = split_envelope(
                    payload)
                self._pending_inc()
                accepted = False
                try:
                    accepted = self.queue.put(
                        (write, stripped, request_id,
                         self.service.tracer.clock()),
                        priority=priority)
                except RuntimeError:
                    # Queue closed by shutdown: this request was never
                    # accepted — answer with a typed overload response
                    # instead of silently dropping the line.
                    error = OverloadedError("shutting_down",
                                            depth=len(self.queue))
                    write(self.service.shed_response(
                        error, request_id=request_id).as_dict())
                if not accepted:
                    # Shed (on_shed already answered) or refused above.
                    self._pending_dec()
        except (OSError, ValueError):
            pass
        finally:
            for handle in (rfile, conn):
                try:
                    handle.close()
                except OSError:
                    pass

    def _acceptor(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _addr = self._sock.accept()
            except OSError:
                return  # listener closed
            thread = threading.Thread(target=self._handle_connection,
                                      args=(conn,), daemon=True)
            thread.start()

    # -- lifecycle -------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, spin up workers + acceptor; returns ``(host, port)``."""
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((self.host, self.port))
        self._sock.listen(128)
        self.port = self._sock.getsockname()[1]
        for i in range(self.workers):
            thread = threading.Thread(target=self._worker,
                                      name=f"serve-worker-{i}", daemon=True)
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(target=self._acceptor, name="serve-accept",
                                    daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        self.stack.start_background()
        return self.host, self.port

    def wait(self) -> None:
        """Block until a shutdown op arrives."""
        while not self._stop.wait(timeout=0.2):
            pass
        self.shutdown()

    def shutdown(self, drain_s: float = 5.0) -> None:
        """Drain accepted work, then stop.

        Refuses new work first (listener + queue close: late arrivals
        get a typed ``shutting_down`` answer from the reader), then
        waits — bounded by ``drain_s`` — until every accepted request
        has been answered before stopping the workers.  Anything still
        unanswered past the deadline is counted in ``drain_dropped``;
        a clean drain always leaves it 0.
        """
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        try:
            self.queue.close()
        except RuntimeError:
            pass
        deadline = _time_module.monotonic() + max(drain_s, 0.0)
        while self.pending > 0 and _time_module.monotonic() < deadline:
            _time_module.sleep(0.01)
        self.drain_dropped = max(self.pending, 0)
        self._stop.set()
        self.stack.stop_background()
        for thread in self._threads:
            thread.join(timeout=2.0)
        self._threads.clear()


def _safe_json(line: str) -> Any:
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        return None


def serve_socket(stack: ServingStack, host: str, port: int, workers: int,
                 queue_depth: int, max_wait_ms: Optional[float],
                 stdout=None, batch_size: int = 1,
                 batch_wait_ms: float = 0.0) -> int:
    """Run the socket server until ``{"op": "shutdown"}`` arrives."""
    stdout = stdout if stdout is not None else sys.stdout
    server = SocketServer(stack, host=host, port=port, workers=workers,
                          queue_depth=queue_depth, max_wait_ms=max_wait_ms,
                          batch_size=batch_size, batch_wait_ms=batch_wait_ms)
    host, port = server.start()
    print(json.dumps({"status": "ready", "host": host, "port": port,
                      "model": stack.model_name, "dataset": stack.dataset,
                      "notes": stack.notes}), file=stdout, flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        server.shutdown()
    return 0
