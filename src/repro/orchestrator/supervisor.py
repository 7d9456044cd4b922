"""The campaign supervisor: bounded, watched, retried, resumable.

One single-threaded control loop drives a whole experiment campaign as
isolated worker subprocesses (each in its **own process group**, so a
reap kills the worker and anything it spawned):

* **Bounded parallelism** — at most ``workers`` live subprocesses; a
  resource guard refuses launches while free disk sits below a floor
  (launches are deferred, never dropped).
* **Dependency chains** — a job launches only after every dependency
  completed; jobs whose dependencies quarantine are quarantined
  themselves (``dependency_failed``), keeping accounting exact.
* **Wall-clock timeout** — per-job deadline with SIGTERM → grace →
  SIGKILL escalation on the process group.
* **Heartbeat watchdog** — workers beat a liveness file; a stale beat
  reaps the worker even when its wall-clock budget has not run out.
* **Typed retry policy** — exit codes classify failures (see
  :mod:`repro.orchestrator.jobs`): transient failures retry with
  exponential backoff, deterministic/operator failures quarantine
  immediately, and a crash-looping job quarantines after
  ``max_retries`` retries while the rest of the campaign keeps going.
* **Resumable manifest** — every transition atomically rewrites the
  fingerprinted campaign manifest; ``resume=True`` reaps survivors of a
  killed supervisor, skips completed jobs whose result digests still
  verify, and re-queues only failed/interrupted ones.

Observability: ``orchestrate.*`` counters/gauges, typed ``job_start`` /
``job_retry`` / ``job_quarantined`` / ``job_done`` / ``campaign``
events, and a retroactive ``campaign.run → campaign.job →
campaign.attempt`` span tree on the PR-1 bus.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, IO, List, Optional

from ..backoff import capped_delay
from ..fsutil import PathLike
from ..obs.events import EventBus
from ..obs.metrics import MetricsRegistry
from ..obs.tracing import Tracer
from .jobs import (EXIT_FAILURE, EXIT_OK, EXIT_OPERATOR, EXIT_TRANSIENT,
                   CampaignSpec, JobSpec)
from .manifest import (MANIFEST_NAME, CampaignManifest, CampaignResumeError,
                       JobState, sha256_of_file)
from .worker import HEARTBEAT_NAME, RESULT_NAME, job_dir_for

#: marker looked for in /proc/<pid>/cmdline before reaping a recorded pid,
#: so a recycled pid belonging to an unrelated process is never killed.
WORKER_CMDLINE_MARKER = "repro.orchestrator.worker"


@dataclass
class SupervisorConfig:
    """Campaign-wide supervision knobs (per-job ``timeout_s`` overrides
    the wall-clock budget)."""

    workers: int = 2
    max_retries: int = 2
    retry_base_delay: float = 0.5
    retry_max_delay: float = 30.0
    job_timeout_s: float = 600.0
    term_grace_s: float = 2.0
    heartbeat_interval_s: float = 0.25
    heartbeat_timeout_s: float = 15.0
    poll_interval_s: float = 0.05
    min_free_bytes: int = 64 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")

    @property
    def max_attempts(self) -> int:
        return 1 + self.max_retries


@dataclass
class CampaignReport:
    """Exact end-of-run accounting: completed + quarantined == total."""

    total: int
    completed: int
    quarantined: int
    resumed: bool
    skipped_completed: int
    orphans_reaped: int
    wall_s: float
    jobs: Dict[str, Dict[str, Any]]

    @property
    def ok(self) -> bool:
        return self.quarantined == 0 and self.completed == self.total

    def as_dict(self) -> Dict[str, Any]:
        return {
            "status": "ok" if self.ok else "partial",
            "total": self.total,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "resumed": self.resumed,
            "skipped_completed": self.skipped_completed,
            "orphans_reaped": self.orphans_reaped,
            "wall_s": self.wall_s,
            "jobs": self.jobs,
        }


class ResourceGuard:
    """Refuse worker launches while free disk is below the floor.

    ``free_bytes_fn`` is injectable (the :class:`~repro.orchestrator.
    faults.DiskPressure` stub drives the chaos tests); the default asks
    the filesystem that hosts the campaign workdir.
    """

    def __init__(self, path: PathLike, min_free_bytes: int,
                 free_bytes_fn: Optional[Callable[[], int]] = None) -> None:
        self.path = Path(path)
        self.min_free_bytes = min_free_bytes
        self._free_bytes_fn = free_bytes_fn

    def free_bytes(self) -> int:
        if self._free_bytes_fn is not None:
            return int(self._free_bytes_fn())
        return shutil.disk_usage(self.path).free

    def ok_to_launch(self) -> bool:
        return self.free_bytes() >= self.min_free_bytes


def pid_is_our_worker(pid: int) -> bool:
    """Is ``pid`` alive *and* provably one of our worker processes?

    Checks liveness with signal 0, then the command line via ``/proc``
    — a recycled pid belonging to some unrelated process must never be
    reaped.  Where ``/proc`` is unavailable the check fails closed
    (returns False): leaking a stale worker is recoverable, killing an
    innocent process is not.
    """
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    try:
        cmdline = Path(f"/proc/{pid}/cmdline").read_bytes()
    except OSError:
        return False
    return WORKER_CMDLINE_MARKER.encode() in cmdline


def find_orphans(manifest: CampaignManifest) -> List[int]:
    """Pids recorded in the manifest that still point at live workers."""
    return [state.pid for state in manifest.jobs.values()
            if state.pid is not None and pid_is_our_worker(state.pid)]


@dataclass
class _Attempt:
    """Timing record of one finished attempt, for retroactive spans."""

    number: int
    start: float
    end: float
    outcome: str
    exit_code: Optional[int]


@dataclass
class _Running:
    """One live worker subprocess and everything needed to judge it."""

    job: JobSpec
    attempt: int
    proc: subprocess.Popen
    started_at: float
    deadline: float
    heartbeat_path: Path
    log_handle: IO


class Supervisor:
    """See module docstring.  One instance drives one campaign run."""

    def __init__(self, spec: CampaignSpec, workdir: PathLike,
                 config: Optional[SupervisorConfig] = None, *,
                 bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer: Optional[Tracer] = None,
                 free_bytes_fn: Optional[Callable[[], int]] = None,
                 clock: Callable[[], float] = time.time,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.spec = spec
        self.workdir = Path(workdir)
        self.config = config or SupervisorConfig()
        self.bus = bus
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else (
            Tracer(bus=bus) if bus is not None else Tracer())
        self.guard = ResourceGuard(self.workdir, self.config.min_free_bytes,
                                   free_bytes_fn=free_bytes_fn)
        self.clock = clock
        self.sleep = sleep
        self._running: Dict[str, _Running] = {}
        self._run_span = None
        self._attempt_log: Dict[str, List[_Attempt]] = {}
        self._first_launch: Dict[str, float] = {}
        self._throttled = False
        self._orphans_reaped = 0
        self._skipped_completed = 0

    # ------------------------------------------------------------------
    # Observability plumbing
    # ------------------------------------------------------------------
    def _emit(self, event_type: str, **payload) -> None:
        if self.bus is not None:
            self.bus.emit(event_type, **payload)

    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(f"orchestrate.{name}").inc(amount)

    # ------------------------------------------------------------------
    # Manifest bootstrap / resume
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.workdir / MANIFEST_NAME

    def _load_or_create(self, resume: bool) -> CampaignManifest:
        if resume:
            if not self.manifest_path.exists():
                raise CampaignResumeError(
                    f"--resume requested but {self.manifest_path} does not "
                    f"exist; run once without --resume to start the campaign")
            manifest = CampaignManifest.load(self.manifest_path)
            manifest.validate_against(self.spec)
            self._reconcile(manifest)
            return manifest
        if self.manifest_path.exists():
            raise CampaignResumeError(
                f"{self.manifest_path} already exists; pass resume=True "
                f"(--resume) to continue that campaign, or choose a fresh "
                f"workdir")
        manifest = CampaignManifest.create(self.spec)
        manifest.save(self.manifest_path)
        return manifest

    def _reconcile(self, manifest: CampaignManifest) -> None:
        """Bring a loaded manifest back to launchable truth.

        Survivor workers of a killed supervisor are reaped (pid verified
        against ``/proc`` before any signal is sent); interrupted jobs
        re-queue with their attempt counts intact; completed jobs whose
        result bytes no longer match their digest re-queue too, so
        "completed" always means "result on disk, bit-for-bit".
        """
        for job_id, state in manifest.jobs.items():
            if state.status == "running":
                if state.pid is not None and pid_is_our_worker(state.pid):
                    self._kill_group(state.pgid or state.pid, sig=signal.SIGKILL)
                    self._orphans_reaped += 1
                    self._count("orphans_reaped")
                    self._emit("campaign", action="orphan_reaped",
                               job_id=job_id, pid=state.pid)
                state.status = "pending"
                state.reasons.append("interrupted")
                state.pid = state.pgid = None
                state.next_attempt_at = 0.0
                self._emit("job_retry", job_id=job_id, attempt=state.attempts,
                           reason="interrupted", delay_s=0.0)
            elif state.status == "completed":
                if manifest.verify_result(job_id):
                    self._skipped_completed += 1
                else:
                    state.status = "pending"
                    state.reasons.append("result_invalid")
                    state.next_attempt_at = 0.0
            state.next_attempt_at = 0.0
        manifest.save(self.manifest_path)

    # ------------------------------------------------------------------
    # Launch / reap / classify
    # ------------------------------------------------------------------
    def _worker_env(self) -> Dict[str, str]:
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (src_dir if not existing
                             else src_dir + os.pathsep + existing)
        return env

    def _launch(self, job: JobSpec, state: JobState) -> None:
        job_dir = job_dir_for(self.workdir, job.job_id)
        job_dir.mkdir(parents=True, exist_ok=True)
        spec_path = job_dir / "spec.json"
        from ..fsutil import atomic_write_text
        atomic_write_text(spec_path, json.dumps(job.as_dict(), indent=2,
                                                sort_keys=True) + "\n")
        state.attempts += 1
        attempt = state.attempts
        log_handle = (job_dir / f"attempt-{attempt:02d}.log").open("w")
        cmd = [sys.executable, "-m", "repro.orchestrator.worker",
               str(spec_path), "--workdir", str(self.workdir),
               "--attempt", str(attempt),
               "--heartbeat-interval", str(self.config.heartbeat_interval_s)]
        proc = subprocess.Popen(cmd, stdout=log_handle, stderr=log_handle,
                                env=self._worker_env(),
                                start_new_session=True)
        now = self.clock()
        timeout = (job.timeout_s if job.timeout_s is not None
                   else self.config.job_timeout_s)
        self._running[job.job_id] = _Running(
            job=job, attempt=attempt, proc=proc, started_at=now,
            deadline=now + timeout,
            heartbeat_path=job_dir / HEARTBEAT_NAME, log_handle=log_handle)
        self._first_launch.setdefault(job.job_id, now)
        state.status = "running"
        state.pid = proc.pid
        state.pgid = proc.pid  # start_new_session makes the worker its leader
        self._count("launched")
        self._emit("job_start", job_id=job.job_id, attempt=attempt,
                   pid=proc.pid)

    @staticmethod
    def _kill_group(pgid: int, sig: int = signal.SIGTERM) -> None:
        try:
            os.killpg(pgid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def _reap(self, running: _Running) -> int:
        """SIGTERM the group, grace, SIGKILL; returns the exit code."""
        self._kill_group(running.proc.pid, signal.SIGTERM)
        try:
            running.proc.wait(timeout=self.config.term_grace_s)
        except subprocess.TimeoutExpired:
            self._kill_group(running.proc.pid, signal.SIGKILL)
            running.proc.wait()
        return running.proc.returncode

    def _heartbeat_stale(self, running: _Running) -> bool:
        try:
            beat = json.loads(running.heartbeat_path.read_text())
            last = float(beat.get("time", 0.0))
        except (OSError, ValueError):
            last = 0.0
        if last <= 0.0:
            try:
                last = running.heartbeat_path.stat().st_mtime
            except OSError:
                last = running.started_at
        last = max(last, running.started_at)
        return self.clock() - last > self.config.heartbeat_timeout_s

    def _result_valid(self, job: JobSpec) -> Optional[Path]:
        path = job_dir_for(self.workdir, job.job_id) / RESULT_NAME
        try:
            json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return path

    def _finalize(self, manifest: CampaignManifest, running: _Running,
                  exit_code: int, reason: Optional[str] = None) -> None:
        """Classify one finished attempt and advance the job's state."""
        job_id = running.job.job_id
        state = manifest.jobs[job_id]
        running.log_handle.close()
        del self._running[job_id]
        now = self.clock()
        state.exit_codes.append(exit_code)
        state.pid = state.pgid = None

        if exit_code == EXIT_OK:
            result_path = self._result_valid(running.job)
            if result_path is not None:
                self._complete(manifest, running, state, result_path, now)
                return
            exit_code, reason = EXIT_FAILURE, reason or "no_result"

        transient = exit_code == EXIT_TRANSIENT or exit_code < 0
        if reason is None:
            reason = ("transient_exit" if exit_code == EXIT_TRANSIENT
                      else "killed" if exit_code < 0
                      else "operator_error" if exit_code == EXIT_OPERATOR
                      else "deterministic_failure")
        state.reasons.append(reason)
        if reason == "timeout":
            self._count("timeouts")
        elif reason == "hung":
            self._count("hung_reaped")
        self._attempt_log.setdefault(job_id, []).append(_Attempt(
            number=running.attempt, start=running.started_at, end=now,
            outcome=reason, exit_code=exit_code))

        if not transient:
            self._quarantine(manifest, job_id, state, reason)
            return
        if state.attempts >= self.config.max_attempts:
            self._quarantine(manifest, job_id, state, "crash_loop")
            return
        failures = state.attempts
        delay = capped_delay(self.config.retry_base_delay, failures - 1,
                             self.config.retry_max_delay)
        state.status = "pending"
        state.next_attempt_at = now + delay
        self._count("retries")
        self._emit("job_retry", job_id=job_id, attempt=state.attempts,
                   reason=reason, delay_s=delay)
        manifest.save(self.manifest_path)

    def _complete(self, manifest: CampaignManifest, running: _Running,
                  state: JobState, result_path: Path, now: float) -> None:
        job_id = running.job.job_id
        state.status = "completed"
        state.result_path = str(result_path)
        state.result_sha256 = sha256_of_file(result_path)
        state.next_attempt_at = 0.0
        self._attempt_log.setdefault(job_id, []).append(_Attempt(
            number=running.attempt, start=running.started_at, end=now,
            outcome="completed", exit_code=EXIT_OK))
        wall = now - self._first_launch.get(job_id, running.started_at)
        self._count("completed")
        self.metrics.histogram("orchestrate.job_wall_s").observe(wall)
        self._emit("job_done", job_id=job_id, attempts=state.attempts,
                   wall_s=wall, result_path=str(result_path))
        self._record_job_spans(job_id, "completed")
        manifest.save(self.manifest_path)

    def _quarantine(self, manifest: CampaignManifest, job_id: str,
                    state: JobState, reason: str) -> None:
        state.status = "quarantined"
        state.quarantine_reason = reason
        state.next_attempt_at = 0.0
        self._count("quarantined")
        self._emit("job_quarantined", job_id=job_id, attempts=state.attempts,
                   reason=reason)
        self._record_job_spans(job_id, "quarantined")
        manifest.save(self.manifest_path)

    def _record_job_spans(self, job_id: str, status: str) -> None:
        """Retroactive ``campaign.job`` span with one child per attempt."""
        attempts = self._attempt_log.pop(job_id, [])
        if not attempts or not self.tracer.enabled:
            return
        start = self._first_launch.get(job_id, attempts[0].start)
        end = attempts[-1].end
        job_span = self.tracer.record(
            "campaign.job", start=start, duration_s=end - start,
            parent=self._run_span, job_id=job_id, job_status=status,
            attempts=len(attempts),
            status="ok" if status == "completed" else "error")
        for attempt in attempts:
            self.tracer.record(
                "campaign.attempt", start=attempt.start,
                duration_s=attempt.end - attempt.start, parent=job_span,
                attempt=attempt.number, outcome=attempt.outcome,
                exit_code=attempt.exit_code,
                status="ok" if attempt.outcome == "completed" else "error")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _cascade_dependency_failures(self, manifest: CampaignManifest) -> None:
        changed = True
        while changed:
            changed = False
            for job in self.spec.jobs:
                state = manifest.jobs[job.job_id]
                if state.status != "pending":
                    continue
                if any(manifest.jobs[dep].status == "quarantined"
                       for dep in job.depends_on):
                    self._quarantine(manifest, job.job_id, state,
                                     "dependency_failed")
                    changed = True

    def _ready_jobs(self, manifest: CampaignManifest,
                    now: float) -> List[JobSpec]:
        ready = []
        for job in self.spec.jobs:
            state = manifest.jobs[job.job_id]
            if state.status != "pending" or state.next_attempt_at > now:
                continue
            if all(manifest.jobs[dep].status == "completed"
                   for dep in job.depends_on):
                ready.append(job)
        return ready

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def run(self, resume: bool = False) -> CampaignReport:
        self.workdir.mkdir(parents=True, exist_ok=True)
        manifest = self._load_or_create(resume)
        run_start = self.clock()
        self._emit("campaign", action="start", jobs=len(self.spec.jobs),
                   resumed=resume, workers=self.config.workers)
        if self.tracer.enabled:
            span_ctx = self.tracer.span("campaign.run",
                                        jobs=len(self.spec.jobs),
                                        resumed=resume)
        else:
            span_ctx = None
        self._run_span = None
        try:
            if span_ctx is not None:
                self._run_span = span_ctx.__enter__()
            self._loop(manifest)
        finally:
            if span_ctx is not None:
                span_ctx.__exit__(None, None, None)
        counts = manifest.counts()
        report = CampaignReport(
            total=len(self.spec.jobs),
            completed=counts["completed"],
            quarantined=counts["quarantined"],
            resumed=resume,
            skipped_completed=self._skipped_completed,
            orphans_reaped=self._orphans_reaped,
            wall_s=self.clock() - run_start,
            jobs={jid: {"status": state.status,
                        "attempts": state.attempts,
                        "reason": state.quarantine_reason}
                  for jid, state in sorted(manifest.jobs.items())})
        self._emit("campaign", action="end", completed=report.completed,
                   quarantined=report.quarantined, total=report.total,
                   wall_s=report.wall_s)
        return report

    def _loop(self, manifest: CampaignManifest) -> None:
        while True:
            self._cascade_dependency_failures(manifest)
            if not self._running and manifest.all_terminal():
                break
            now = self.clock()
            self._launch_ready(manifest, now)
            self._poll_running(manifest, now)
            self.metrics.gauge("orchestrate.running").set(len(self._running))
            if self._running or not manifest.all_terminal():
                self.sleep(self.config.poll_interval_s)

    def _launch_ready(self, manifest: CampaignManifest, now: float) -> None:
        ready = self._ready_jobs(manifest, now)
        free = self.guard.free_bytes()
        self.metrics.gauge("orchestrate.free_disk_bytes").set(free)
        while ready and len(self._running) < self.config.workers:
            if free < self.guard.min_free_bytes:
                if not self._throttled:
                    self._throttled = True
                    self._count("throttled")
                    self._emit("campaign", action="throttle",
                               free_bytes=free,
                               min_free_bytes=self.guard.min_free_bytes)
                return
            if self._throttled:
                self._throttled = False
                self._emit("campaign", action="unthrottle", free_bytes=free)
            job = ready.pop(0)
            self._launch(job, manifest.jobs[job.job_id])
            manifest.save(self.manifest_path)

    def _poll_running(self, manifest: CampaignManifest, now: float) -> None:
        for running in list(self._running.values()):
            rc = running.proc.poll()
            if rc is not None:
                self._finalize(manifest, running, rc)
                continue
            if now > running.deadline:
                rc = self._reap(running)
                # A worker that won the race and exited cleanly during
                # the escalation really did finish — honour its result.
                reason = None if rc == EXIT_OK else "timeout"
                self._finalize(manifest, running, rc, reason=reason)
                continue
            if self._heartbeat_stale(running):
                rc = self._reap(running)
                reason = None if rc == EXIT_OK else "hung"
                self._finalize(manifest, running, rc, reason=reason)


def run_campaign(spec: CampaignSpec, workdir: PathLike,
                 config: Optional[SupervisorConfig] = None, *,
                 resume: bool = False,
                 bus: Optional[EventBus] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 free_bytes_fn: Optional[Callable[[], int]] = None,
                 ) -> CampaignReport:
    """Convenience wrapper: build a supervisor and run the campaign."""
    supervisor = Supervisor(spec, workdir, config, bus=bus, metrics=metrics,
                            free_bytes_fn=free_bytes_fn)
    return supervisor.run(resume=resume)
