"""Serving fault injection, mirroring :mod:`repro.resilience.faults`.

The training-side injectors prove crash/divergence recovery; these prove
the *serving* guarantees: every fault class must produce a typed,
non-crash response and the matching observability event.  Four families,
matching what production inference actually sees:

* :func:`malformed_requests` — the canonical zoo of client bugs
  (unknown fields, wrong types, NaN, non-dict payloads) the validator
  must report rather than crash on;
* :class:`SlowModel` — wraps a model with a fixed scoring delay, driving
  deadline misses and (via the breaker) circuit opening;
* :class:`FlakyModel` — scoring raises on cue (first K calls or every
  K-th), driving the failure path and breaker transitions;
* :class:`CheckpointSwapper` — writes valid or corrupt checkpoints into
  the rollout watch directory *mid-traffic*, driving promote and
  rollback while requests are in flight.

The HA layer (PR 10) adds pool-level chaos on top:

* :class:`WedgedModel` / :func:`wedge_replica` — scoring blocks on an
  event instead of returning, so the replica's in-flight work never
  completes: the wedge the pool's heartbeat-staleness probe must catch;
* :func:`slow_replica` — one replica becomes a latency outlier (the
  hedging target case) while the rest of the fleet stays fast;
* :class:`PoisonedCheckpoint` — writes checkpoints that *pass* integrity
  checks but carry bad weights: ``nan`` (unscorable — the golden set
  must veto before any mirroring) and ``drift`` (finite but wildly
  rescaled — only the canary mirror comparison catches it, driving
  automatic rollback).

:class:`ServeCrash` re-uses :class:`~repro.resilience.faults.
InjectedCrash` to kill the serving loop after N predictions — the
process-level chaos test SIGKILLs instead, but in-process tests need a
deterministic crash point.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

from ..data.schema import Schema
from ..resilience.checkpoint import CheckpointManager, TrainingCheckpoint
from ..resilience.faults import InjectedCrash


def malformed_requests(schema: Schema,
                       rng: Optional[np.random.Generator] = None
                       ) -> List[object]:
    """The canonical malformed payloads a robust validator must survive.

    Each entry is something a buggy or adversarial client could send;
    none may crash the service.  (Requests that merely *degrade* to OOV
    — missing fields, None, huge ids — are not in this list: those are
    valid by contract.)
    """
    rng = rng or np.random.default_rng(0)
    name = schema.field_names[0]
    return [
        "not a mapping at all",
        ["a", "list"],
        42,
        None,
        {"definitely_not_a_field": 1},
        {name: "a string is not an id"},
        {name: 3.5},
        {name: True},
        {name: [1, 2, 3]},
        {name: {"nested": "dict"}},
        {123: 4},
        {name: int(rng.integers(0, 10)), "another_unknown": 7},
    ]


def valid_requests(schema: Schema, count: int = 8,
                   rng: Optional[np.random.Generator] = None
                   ) -> Iterator[Dict[str, int]]:
    """Uniformly random in-vocabulary requests (for chaos traffic)."""
    rng = rng or np.random.default_rng(0)
    for _ in range(count):
        yield {f.name: int(rng.integers(0, f.cardinality))
               for f in schema.fields}


class _ModelProxy:
    """Delegating wrapper so injected models stay drop-in CTR models."""

    def __init__(self, base) -> None:
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)

    @property
    def needs_cross(self) -> bool:
        return self._base.needs_cross


class SlowModel(_ModelProxy):
    """Adds ``delay_s`` of wall-clock to every scoring call.

    ``after`` delays only from the N-th scoring call on, so a service
    can warm its latency EWMA on fast calls first.
    """

    def __init__(self, base, delay_s: float, after: int = 0,
                 sleep=time.sleep) -> None:
        super().__init__(base)
        self.delay_s = delay_s
        self.after = after
        self.calls = 0
        self._sleep = sleep

    def predict_proba(self, batch):
        self.calls += 1
        if self.calls > self.after:
            self._sleep(self.delay_s)
        return self._base.predict_proba(batch)


class FlakyModel(_ModelProxy):
    """Scoring raises on cue: the first ``fail_first`` calls, and/or
    every ``every``-th call afterwards."""

    def __init__(self, base, fail_first: int = 0,
                 every: Optional[int] = None) -> None:
        super().__init__(base)
        self.fail_first = fail_first
        self.every = every
        self.calls = 0

    def predict_proba(self, batch):
        self.calls += 1
        if self.calls <= self.fail_first or (
                self.every is not None and self.calls % self.every == 0):
            raise RuntimeError(
                f"injected scoring failure (call {self.calls})")
        return self._base.predict_proba(batch)


@dataclass
class ServeCrash:
    """Raise :class:`InjectedCrash` after ``at_request`` predictions."""

    at_request: int
    seen: int = field(default=0, init=False)

    def __call__(self) -> None:
        self.seen += 1
        if self.seen >= self.at_request:
            raise InjectedCrash(
                f"injected serving crash after {self.seen} requests")


class WedgedModel(_ModelProxy):
    """Scoring blocks until :meth:`release` (or a safety timeout).

    Unlike :class:`SlowModel`, a wedged call may *never* return on its
    own — exactly the failure the pool's heartbeat-staleness probe must
    catch (consecutive-failure counting alone cannot see a call that is
    still "in progress").  ``max_wedge_s`` bounds the block so an
    un-released wedge cannot leak a thread past the end of a test run.
    """

    def __init__(self, base, after: int = 0,
                 max_wedge_s: float = 60.0) -> None:
        super().__init__(base)
        self.after = after
        self.max_wedge_s = max_wedge_s
        self.calls = 0
        self.wedged_calls = 0
        self._release = threading.Event()

    def release(self) -> None:
        """Un-wedge: every blocked and future call proceeds normally."""
        self._release.set()

    def predict_proba(self, batch):
        self.calls += 1
        if self.calls > self.after and not self._release.is_set():
            self.wedged_calls += 1
            self._release.wait(timeout=self.max_wedge_s)
        return self._base.predict_proba(batch)


def wedge_replica(replica, after: int = 0,
                  max_wedge_s: float = 60.0) -> WedgedModel:
    """Wedge one pool replica's live model in place.

    Wraps the replica's current model with :class:`WedgedModel` under
    the *same* version string, so the injection is invisible to version
    accounting — only the wedge itself is observable, exactly like a
    production hang.
    """
    service = replica.service
    wedged = WedgedModel(service.model, after=after, max_wedge_s=max_wedge_s)
    service.swap_model(wedged, service.model_version)
    return wedged


def slow_replica(replica, delay_s: float, after: int = 0,
                 sleep=time.sleep) -> SlowModel:
    """Make one pool replica a latency outlier (the hedging target)."""
    service = replica.service
    slow = SlowModel(service.model, delay_s, after=after, sleep=sleep)
    service.swap_model(slow, service.model_version)
    return slow


class PoisonedCheckpoint:
    """Writes checkpoints that pass integrity but carry bad weights.

    The archive checksums verify and the model loads cleanly — the
    corruption is *semantic*, which is exactly the class of failure that
    motivates canary rollout:

    ``nan``
        Every weight becomes NaN.  Unscorable — the golden set (or the
        ladder's finiteness check) vetoes it before mirroring starts.
    ``drift``
        Weights are finite but rescaled by ``drift_scale``; golden sets
        with loose tolerance pass it, yet the score distribution shifts
        hard enough that the canary mirror comparison (PSI / agreement)
        must roll it back.
    """

    def __init__(self, manager: CheckpointManager,
                 drift_scale: float = 25.0) -> None:
        self.swapper = CheckpointSwapper(manager)
        self.drift_scale = drift_scale

    def write(self, model, kind: str = "nan", optimizer=None) -> str:
        if kind not in ("nan", "drift"):
            raise ValueError(f"unknown poison kind {kind!r}")
        epoch = self.swapper.next_epoch()
        if optimizer is None:
            from ..nn.optim import SGD

            optimizer = SGD(model.parameters(), lr=0.0)
        checkpoint = TrainingCheckpoint.capture(
            model, optimizer, epoch=epoch, global_step=0)
        poisoned = {}
        for name, value in checkpoint.model_state.items():
            value = np.array(value, dtype=float, copy=True)
            if kind == "nan":
                value[...] = np.nan
            else:
                value *= self.drift_scale
            poisoned[name] = value
        checkpoint.model_state = poisoned
        path = self.swapper.manager.save(checkpoint)
        return str(path)


class CheckpointSwapper:
    """Drops checkpoints into a watch directory mid-flight.

    ``write_valid`` captures the given model into a well-formed
    :class:`TrainingCheckpoint` at the next epoch number;
    ``write_corrupt`` writes a same-named file that fails integrity
    checks (truncated archive or flipped checksum byte), which the
    checkpoint watcher must refuse.
    """

    def __init__(self, manager: CheckpointManager) -> None:
        self.manager = manager
        self._epoch = 0

    def next_epoch(self) -> int:
        existing = [self.manager._epoch_of(p)
                    for p in self.manager.checkpoints()]
        known = [e for e in existing if e is not None] + [self._epoch]
        self._epoch = max(known) + 1
        return self._epoch

    def write_valid(self, model, optimizer=None) -> str:
        """A promotable checkpoint holding ``model``'s current weights."""
        epoch = self.next_epoch()
        if optimizer is None:
            from ..nn.optim import SGD

            optimizer = SGD(model.parameters(), lr=0.0)
        checkpoint = TrainingCheckpoint.capture(
            model, optimizer, epoch=epoch, global_step=0)
        path = self.manager.save(checkpoint)
        return str(path)

    def write_corrupt(self, kind: str = "truncated") -> str:
        """A checkpoint-shaped file that must fail integrity checks."""
        epoch = self.next_epoch()
        path = self.manager.path_for(epoch)
        path.parent.mkdir(parents=True, exist_ok=True)
        if kind == "truncated":
            path.write_bytes(b"PK\x03\x04 this is not a complete archive")
        elif kind == "garbage":
            path.write_bytes(b"\x00" * 128)
        else:
            raise ValueError(f"unknown corruption kind {kind!r}")
        return str(path)
