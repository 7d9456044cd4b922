"""A pool of one and a canary pool refuse checkpoints alike.

The checkpoint watcher promotes directly on a pool of one (no spare
replica for a canary) and through a canary on a larger pool.  Both
admit a checkpoint through the same read → verify → load → golden
sequence, so every fault must yield the same event status from both,
leave what users are served untouched, and only a persistent read error
may be tried again on the next poll.
"""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.models.shallow import LogisticRegression
from repro.resilience.checkpoint import CheckpointManager
from repro.serving import (GoldenSet, REPLICA_HEALTHY, ReplicaPool,
                           RolloutPolicy)
from repro.serving.faults import (CheckpointSwapper, PoisonedCheckpoint,
                                  valid_requests)
from repro.serving.rollout import CanaryController

pytestmark = pytest.mark.serving

#: fault -> the refusal status both watchers emit (None: admitted).
FAULTS = {
    "transient_oserror": None,
    "persistent_oserror": "error",
    "corrupt_archive": "corrupt",
    "wrong_architecture": "corrupt",
    "golden_nan": "golden_failed",
}


def _lr(cardinalities, seed):
    return LogisticRegression(cardinalities, rng=np.random.default_rng(seed))


def build_pool_of_one(schema, make_service, manager, bus, golden):
    """A pool of one: admitted checkpoints are promoted directly."""
    service = make_service()
    pool = ReplicaPool([service], bus=bus)
    controller = CanaryController(
        pool, manager, lambda: _lr(schema.cardinalities, 123),
        golden=golden, bus=bus, sleep=lambda _d: None)
    return SimpleNamespace(poll=controller.poll_once,
                           services=[service],
                           version=lambda: pool.model_version,
                           admitted=["promoting", "promoted_replica",
                                     "promoted"], pool=pool)


def build_canary(schema, make_service, manager, bus, golden):
    services = [make_service(model=_lr(schema.cardinalities, 0))
                for _ in range(3)]
    pool = ReplicaPool(services, bus=bus)
    controller = CanaryController(
        pool, manager, lambda: _lr(schema.cardinalities, 123),
        golden=golden,
        policy=RolloutPolicy(mirror_fraction=1.0, min_mirrored=8),
        bus=bus, sleep=lambda _d: None)
    return SimpleNamespace(poll=controller.poll_once,
                           services=services,
                           version=lambda: pool.model_version,
                           admitted=["canary_loaded"], pool=pool)


@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("build", [build_pool_of_one, build_canary],
                         ids=["reloader", "canary"])
def test_watchers_refuse_alike(fault, build, schema, make_service, mem_sink,
                               tmp_path, monkeypatch):
    bus, sink = mem_sink
    manager = CheckpointManager(tmp_path / "ckpts")
    golden = GoldenSet(list(valid_requests(schema, count=4)))
    watcher = build(schema, make_service, manager, bus, golden)
    models = [service.model for service in watcher.services]

    fresh = _lr(schema.cardinalities, 7)
    if fault == "corrupt_archive":
        path = CheckpointSwapper(manager).write_corrupt("truncated")
    elif fault == "wrong_architecture":
        path = CheckpointSwapper(manager).write_valid(
            _lr([c + 1 for c in schema.cardinalities], 7))
    elif fault == "golden_nan":
        path = PoisonedCheckpoint(manager).write(fresh, kind="nan")
    else:
        path = CheckpointSwapper(manager).write_valid(fresh)
        failures = {"left": 1 if fault == "transient_oserror" else None}
        read_bytes = Path.read_bytes

        def flaky_read_bytes(self):
            if str(self) == path and failures["left"] != 0:
                if failures["left"] is not None:
                    failures["left"] -= 1
                raise OSError("injected read failure")
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read_bytes)

    def statuses():
        return [e.payload["status"] for e in sink.of_type("rollout")
                if e.payload["status"] not in ("detected", "io_retry")]

    def io_retries():
        return [e for e in sink.of_type("rollout")
                if e.payload["status"] == "io_retry"]

    expected = FAULTS[fault]
    watcher.poll()
    if expected is None:
        assert statuses() == watcher.admitted
        assert len(io_retries()) == 1
    else:
        assert statuses() == [expected]
        assert watcher.version() == "initial"
        assert all(service.model is model
                   for service, model in zip(watcher.services, models))
        assert all(r.state == REPLICA_HEALTHY
                   for r in watcher.pool.replicas)
    if fault == "persistent_oserror":
        assert len(io_retries()) == 3  # the whole retry budget was spent

    emitted = len(sink.of_type("rollout"))
    watcher.poll()
    retried = len(sink.of_type("rollout")) > emitted
    assert retried == (fault == "persistent_oserror")
