"""Worker entry point: run one campaign job in an isolated subprocess.

Launched by the supervisor as ``python -m repro.orchestrator.worker
SPEC.json --workdir DIR --attempt N ...``.  The worker:

1. starts a daemon **heartbeat** thread that atomically rewrites a small
   JSON liveness file every interval (the supervisor's watchdog reaps a
   worker whose heartbeat goes stale),
2. applies any fault-zoo injection carried by the spec (chaos tests),
3. executes the job — training resumes from the job's own PR-2
   checkpoint directory, so a retried/killed attempt loses at most one
   epoch and reproduces the uninterrupted run **bit-for-bit**,
4. atomically writes ``result.json`` (deterministic bytes: the file
   contains only spec-derived fields and metrics, never attempt
   numbers) and exits with the typed protocol code of
   :mod:`repro.orchestrator.jobs`.

Anything the operator must fix (unknown model, missing dependency
artifact, corrupt checkpoint) exits 2; an unexpected exception inside
training exits 1 (deterministic — retrying the same computation is
futile); injected crashes exit 3 (transient — the supervisor retries
with backoff).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..fsutil import atomic_write_text
from ..poller import Poller
from .faults import apply_worker_faults
from .jobs import (EXIT_FAILURE, EXIT_OK, EXIT_OPERATOR, EXIT_TRANSIENT,
                   JobSpec, config_for)

RESULT_NAME = "result.json"
HEARTBEAT_NAME = "heartbeat.json"
ARCH_NAME = "arch.json"


class Heartbeat:
    """Periodic atomic liveness file written from a daemon thread.

    The file carries the writing pid, the attempt number and the wall
    clock of the last beat; the supervisor's watchdog reads the ``time``
    field (falling back to mtime) and reaps workers whose beats go
    stale.  ``stall_after(n)`` stops beating after ``n`` beats — the
    :class:`~repro.orchestrator.faults.SlowHeartbeat` fault.
    """

    def __init__(self, path: Path, interval_s: float, attempt: int,
                 clock=time.time) -> None:
        self.path = Path(path)
        self.interval_s = interval_s
        self.attempt = attempt
        self.clock = clock
        self.beats = 0
        self._stall_after: Optional[int] = None
        # A failed beat (say, a vanished workdir) must not crash the job.
        self._poller = Poller(self.beat, lambda: self.interval_s,
                              lambda _exc: None, "heartbeat")

    def beat(self) -> None:
        if self._stall_after is not None and self.beats >= self._stall_after:
            return
        self.beats += 1
        atomic_write_text(self.path, json.dumps(
            {"pid": os.getpid(), "attempt": self.attempt,
             "beats": self.beats, "time": self.clock()}))

    def stall_after(self, beats: int) -> None:
        self._stall_after = beats

    def start(self) -> "Heartbeat":
        self.beat()  # the supervisor sees a beat before any job work
        self._poller.start()
        return self

    def stop(self) -> None:
        self._poller.stop()


def job_dir_for(workdir: Path, job_id: str) -> Path:
    return Path(workdir) / "jobs" / job_id


def execute_job(spec: JobSpec, workdir: Path) -> Dict[str, Any]:
    """Run one job's computation; returns its deterministic metrics.

    Importable on purpose: the chaos differential tests call this
    in-process, serially, to produce the uninterrupted-baseline results
    that the supervised subprocess runs must match bit-for-bit.
    """
    from ..core.retrain import retrain
    from ..core.search import search_optinter
    from ..experiments.runner import prepare_dataset, run_model
    from ..io import load_architecture, save_architecture
    from ..training.trainer import evaluate_model

    workdir = Path(workdir)
    job_dir = job_dir_for(workdir, spec.job_id)
    ckpt_dir = job_dir / "ckpts"
    # Resume whenever earlier attempts left checkpoints behind: a killed
    # job loses at most one epoch, and PR-2's guarantee makes the
    # resumed run bit-identical to an uninterrupted one.
    resume = ckpt_dir.exists() and any(ckpt_dir.iterdir())
    config = config_for(spec)
    bundle = prepare_dataset(config)

    if spec.kind == "train":
        row = run_model(spec.model, bundle, config,
                        checkpoint_dir=ckpt_dir, resume=resume)
        metrics: Dict[str, Any] = {"auc": row.auc, "log_loss": row.log_loss,
                                   "params": row.params}
        if row.extra and "counts" in row.extra:
            metrics["counts"] = [int(c) for c in row.extra["counts"]]
        return metrics
    if spec.kind == "search":
        result = search_optinter(bundle.train, bundle.val,
                                 config.search_config(),
                                 checkpoint_dir=ckpt_dir, resume=resume)
        save_architecture(result.architecture, job_dir / ARCH_NAME)
        metrics = {"counts": [int(c) for c in result.architecture.counts()]}
        last = result.history.last
        if last is not None and last.val_auc is not None:
            metrics["val_auc"] = last.val_auc
        return metrics
    if spec.kind == "retrain":
        arch_path = job_dir_for(workdir, spec.arch_from) / ARCH_NAME
        if not arch_path.exists():
            raise DependencyArtifactMissing(
                f"retrain job {spec.job_id!r} needs {arch_path}, which its "
                f"dependency {spec.arch_from!r} has not produced")
        architecture = load_architecture(arch_path)
        model, _ = retrain(architecture, bundle.train, bundle.val,
                           config.retrain_config(),
                           checkpoint_dir=ckpt_dir, resume=resume)
        scores = evaluate_model(model, bundle.test)
        return {"auc": scores["auc"], "log_loss": scores["log_loss"],
                "params": model.num_parameters(),
                "counts": [int(c) for c in architecture.counts()]}
    raise ValueError(f"unknown job kind {spec.kind!r}")


class DependencyArtifactMissing(RuntimeError):
    """A dependency's artifact is absent — an orchestration-level
    inconsistency the operator (or supervisor bug) must fix, not a
    property of this job's computation."""


def write_result(spec: JobSpec, workdir: Path,
                 metrics: Dict[str, Any]) -> Path:
    """Atomic, byte-deterministic result file (no attempt/time fields)."""
    payload = {"job_id": spec.job_id, "kind": spec.kind,
               "dataset": spec.dataset, "model": spec.model,
               "seed": spec.seed, "metrics": metrics}
    path = job_dir_for(workdir, spec.job_id) / RESULT_NAME
    return atomic_write_text(
        path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.orchestrator.worker",
        description="run one campaign job under supervision")
    parser.add_argument("spec", help="job spec JSON written by the supervisor")
    parser.add_argument("--workdir", required=True,
                        help="campaign working directory")
    parser.add_argument("--attempt", type=int, default=1,
                        help="1-based attempt number (drives crash faults)")
    parser.add_argument("--heartbeat-interval", type=float, default=0.25,
                        help="seconds between liveness beats")
    args = parser.parse_args(argv)

    try:
        spec = JobSpec.from_dict(json.loads(Path(args.spec).read_text()))
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: unreadable job spec {args.spec}: {exc}",
              file=sys.stderr)
        return EXIT_OPERATOR

    workdir = Path(args.workdir)
    job_dir = job_dir_for(workdir, spec.job_id)
    job_dir.mkdir(parents=True, exist_ok=True)
    heartbeat = Heartbeat(job_dir / HEARTBEAT_NAME,
                          interval_s=args.heartbeat_interval,
                          attempt=args.attempt).start()
    try:
        apply_worker_faults(spec.inject, attempt=args.attempt,
                            heartbeat=heartbeat)
        metrics = execute_job(spec, workdir)
        write_result(spec, workdir, metrics)
        return EXIT_OK
    except SystemExit:
        raise
    except Exception as exc:  # classified for the supervisor's retry policy
        from ..resilience.checkpoint import CorruptCheckpointError
        from ..resilience.faults import InjectedCrash

        traceback.print_exc()
        if isinstance(exc, InjectedCrash):
            return EXIT_TRANSIENT
        if isinstance(exc, (CorruptCheckpointError, DependencyArtifactMissing,
                            FileNotFoundError, KeyError)):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_OPERATOR
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    finally:
        heartbeat.stop()


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
