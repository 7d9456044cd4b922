"""Campaign job specifications and the worker exit-code protocol.

A **campaign** is the full zoo of model×dataset×seed jobs needed to
reproduce the paper's result tables, plus OptInter's two-stage
search→retrain dependency chains.  Each job is one isolated worker
subprocess; the specs here are the contract between the supervisor that
launches workers and the worker entry point that executes them.

The worker exit-code protocol extends the CLI convention already used by
``repro ingest`` (0 ok / 1 data error / 2 operator error / 3 injected
crash) into a retry policy:

========  ===========================  ==========================
exit      meaning                      supervisor reaction
========  ===========================  ==========================
0         job completed, result valid  mark completed
1         deterministic failure        quarantine (retry is futile)
2         operator error (bad spec,    quarantine, flagged operator
          missing dependency artifact)
3         transient failure (injected  retry with exponential
          crash, preemption)           backoff, then quarantine
signal    killed (OOM, preemption,     treated as transient
          supervisor reap)
========  ===========================  ==========================
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Worker exit codes (see module docstring).
EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_OPERATOR = 2
EXIT_TRANSIENT = 3

JOB_KINDS = ("train", "search", "retrain")


class CampaignSpecError(ValueError):
    """A campaign specification is internally inconsistent."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of supervised work: what to run, on what, after whom.

    ``n_samples`` / ``epochs`` / ``search_epochs`` override the scale
    preset (chaos tests shrink jobs to seconds this way).  ``inject``
    carries a fault-zoo descriptor the *worker* interprets (see
    :mod:`repro.orchestrator.faults`); it deliberately rides in the spec
    so a resumed campaign re-creates the exact same faulty world.
    ``timeout_s`` overrides the campaign-wide wall-clock budget for this
    job alone (a hang-injected job can be reaped fast without rushing
    its healthy siblings).
    """

    job_id: str
    kind: str
    dataset: str = "criteo"
    model: Optional[str] = None
    scale: str = "quick"
    seed: int = 0
    n_samples: Optional[int] = None
    epochs: Optional[int] = None
    search_epochs: Optional[int] = None
    depends_on: Tuple[str, ...] = ()
    arch_from: Optional[str] = None
    timeout_s: Optional[float] = None
    inject: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise CampaignSpecError("job_id must be non-empty")
        if self.kind not in JOB_KINDS:
            raise CampaignSpecError(
                f"job {self.job_id!r}: kind must be one of {JOB_KINDS}, "
                f"got {self.kind!r}")
        if self.kind == "train" and not self.model:
            raise CampaignSpecError(
                f"train job {self.job_id!r} requires a model name")
        if self.kind == "retrain" and not self.arch_from:
            raise CampaignSpecError(
                f"retrain job {self.job_id!r} requires arch_from (the "
                f"search job providing its architecture)")
        for name in ("n_samples", "epochs", "search_epochs"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise CampaignSpecError(
                    f"job {self.job_id!r}: {name} must be >= 1, got {value}")
        if self.arch_from is not None and self.arch_from not in self.depends_on:
            # A retrain must never launch before its architecture exists.
            object.__setattr__(self, "depends_on",
                               tuple(self.depends_on) + (self.arch_from,))
        object.__setattr__(self, "depends_on", tuple(self.depends_on))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "dataset": self.dataset,
            "model": self.model,
            "scale": self.scale,
            "seed": self.seed,
            "n_samples": self.n_samples,
            "epochs": self.epochs,
            "search_epochs": self.search_epochs,
            "depends_on": list(self.depends_on),
            "arch_from": self.arch_from,
            "timeout_s": self.timeout_s,
            "inject": self.inject,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobSpec":
        return cls(
            job_id=raw["job_id"],
            kind=raw["kind"],
            dataset=raw.get("dataset", "criteo"),
            model=raw.get("model"),
            scale=raw.get("scale", "quick"),
            seed=int(raw.get("seed", 0)),
            n_samples=raw.get("n_samples"),
            epochs=raw.get("epochs"),
            search_epochs=raw.get("search_epochs"),
            depends_on=tuple(raw.get("depends_on", ())),
            arch_from=raw.get("arch_from"),
            timeout_s=raw.get("timeout_s"),
            inject=raw.get("inject"),
        )


@dataclass
class CampaignSpec:
    """An ordered collection of jobs with an acyclic dependency graph."""

    jobs: List[JobSpec] = field(default_factory=list)

    def __post_init__(self) -> None:
        ids = [job.job_id for job in self.jobs]
        duplicates = {jid for jid in ids if ids.count(jid) > 1}
        if duplicates:
            raise CampaignSpecError(
                f"duplicate job ids: {sorted(duplicates)}")
        known = set(ids)
        for job in self.jobs:
            missing = [dep for dep in job.depends_on if dep not in known]
            if missing:
                raise CampaignSpecError(
                    f"job {job.job_id!r} depends on unknown jobs {missing}")
        self._assert_acyclic()

    def _assert_acyclic(self) -> None:
        """Kahn's algorithm; leftover nodes mean a dependency cycle."""
        remaining = {job.job_id: set(job.depends_on) for job in self.jobs}
        done: set = set()
        progressed = True
        while progressed:
            progressed = False
            for jid, deps in list(remaining.items()):
                if deps <= done:
                    done.add(jid)
                    del remaining[jid]
                    progressed = True
        if remaining:
            raise CampaignSpecError(
                f"dependency cycle among jobs {sorted(remaining)}")

    def job(self, job_id: str) -> JobSpec:
        for job in self.jobs:
            if job.job_id == job_id:
                return job
        raise KeyError(f"no job {job_id!r} in campaign")

    def job_ids(self) -> List[str]:
        return [job.job_id for job in self.jobs]

    def with_inject(self, job_id: str,
                    inject: Dict[str, Any]) -> "CampaignSpec":
        """A copy of the campaign with one job's fault injection set."""
        self.job(job_id)  # raises KeyError for unknown ids
        return CampaignSpec(jobs=[
            replace(job, inject=inject) if job.job_id == job_id else job
            for job in self.jobs])

    def fingerprint(self) -> str:
        """Hash over every output-determining field of every job.

        Stored in the campaign manifest; ``--resume`` refuses to mix
        checkpointed progress from one campaign with the spec of
        another.  Fault injections are part of the fingerprint: a
        resumed chaos campaign must re-create the same faulty world.
        """
        payload = sorted((job.as_dict() for job in self.jobs),
                         key=lambda d: d["job_id"])
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()

    def as_dict(self) -> Dict[str, Any]:
        return {"jobs": [job.as_dict() for job in self.jobs]}

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "CampaignSpec":
        return cls(jobs=[JobSpec.from_dict(j) for j in raw.get("jobs", [])])


def build_campaign(models: Sequence[str], datasets: Sequence[str],
                   seeds: Sequence[int] = (0,), *, scale: str = "quick",
                   n_samples: Optional[int] = None,
                   epochs: Optional[int] = None,
                   search_epochs: Optional[int] = None,
                   optinter_chain: bool = False,
                   timeout_s: Optional[float] = None) -> CampaignSpec:
    """Expand a model×dataset×seed grid into a campaign.

    ``optinter_chain=True`` additionally adds, per dataset×seed, a
    ``search`` job and a ``retrain`` job depending on it — the two-stage
    OptInter pipeline as an explicit supervised dependency chain instead
    of one monolithic job.
    """
    jobs: List[JobSpec] = []
    common = dict(scale=scale, n_samples=n_samples, epochs=epochs,
                  search_epochs=search_epochs, timeout_s=timeout_s)
    for dataset in datasets:
        for seed in seeds:
            for model in models:
                jobs.append(JobSpec(
                    job_id=f"train:{model}:{dataset}:s{seed}",
                    kind="train", dataset=dataset, model=model, seed=seed,
                    **common))
            if optinter_chain:
                search_id = f"search:{dataset}:s{seed}"
                jobs.append(JobSpec(job_id=search_id, kind="search",
                                    dataset=dataset, seed=seed, **common))
                jobs.append(JobSpec(
                    job_id=f"retrain:{dataset}:s{seed}", kind="retrain",
                    dataset=dataset, seed=seed, arch_from=search_id,
                    **common))
    return CampaignSpec(jobs=jobs)


def config_for(spec: JobSpec):
    """The :class:`~repro.experiments.configs.ExperimentConfig` a job runs.

    Derived deterministically from the spec alone so the supervisor, the
    worker subprocess and an in-process serial replay all agree on the
    exact same configuration (the chaos differential tests rely on it).
    """
    from dataclasses import replace as dc_replace

    from ..experiments.configs import default_config

    config = default_config(spec.dataset, spec.scale)
    overrides: Dict[str, Any] = {"seed": spec.seed}
    if spec.n_samples is not None:
        overrides["n_samples"] = spec.n_samples
    if spec.epochs is not None:
        overrides["epochs"] = spec.epochs
    if spec.search_epochs is not None:
        overrides["search_epochs"] = spec.search_epochs
    return dc_replace(config, **overrides)
