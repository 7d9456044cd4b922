"""Structured event bus: typed events fanned out to pluggable sinks.

The trace format is one JSON object per line (JSONL)::

    {"type": "search_alpha", "time": 1712.3, "payload": {"epoch": 0, ...}}

Every event carries a ``type`` drawn from a registered vocabulary (so a
typo in an emitter fails loudly instead of producing an unreadable
trace), a ``time`` stamp from ``time.time()`` and a JSON-serialisable
``payload``.  :class:`History <repro.training.history.History>` writes
the same line shape from its ``to_jsonl`` method, so training histories
and live traces share one on-disk format.
"""

from __future__ import annotations

import json
import sys
import time as _time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, List, Optional, TextIO,
                    Union)

import numpy as np

PathLike = Union[str, Path]

#: Event vocabulary.  ``register_event_type`` extends it at runtime.
EVENT_TYPES = {
    "run_start",   # a training / search run begins (config summary)
    "run_end",     # a run finishes (wall time, final metrics)
    "epoch_end",   # one optimisation epoch finished (losses, val metrics)
    "step",        # one mini-batch step (loss; opt-in, high volume)
    "eval",        # an evaluation pass (AUC / log loss on a split)
    "search_alpha",  # architecture-parameter snapshot during search
    "op_timing",   # profiler output: per-op cumulative timings
    "recovery",    # fault handling: batch skip, rollback, resume, fallback
    "checkpoint",  # a training checkpoint was written (path, epoch, step)
    "serve_request",  # one serving request resolved (status, latency)
    "degrade",     # a degraded answer was served (ladder level, reason)
    "shed",        # load shedding dropped a request (queue depth, reason)
    "span",        # one finished tracing span (trace/span/parent ids, timing)
    "alert",       # a monitor threshold tripped (drift kind, value, threshold)
    "ingest",      # ingest lifecycle: run/stage/resume/schema/io_retry
    "quarantine",  # one row quarantined (line, error code, reason, raw)
    "job_start",   # orchestrator launched a worker (job id, attempt, pid)
    "job_retry",   # transient failure: re-queued with backoff (reason, delay)
    "job_quarantined",  # job removed from rotation (reason, attempts)
    "job_done",    # job completed (attempts, wall time, result path)
    "campaign",    # campaign lifecycle: start/end/throttle/orphan_reaped
    "replica",     # pool replica lifecycle: quarantined/restarted/canary
    "rollout",     # canary rollout: detected/mirroring/promoted/rolled_back
}


def register_event_type(name: str) -> str:
    """Add a custom event type to the vocabulary; returns the name."""
    if not name or not isinstance(name, str):
        raise ValueError(f"event type must be a non-empty string, got {name!r}")
    EVENT_TYPES.add(name)
    return name


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy containers so ``json.dumps`` accepts them."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass
class Event:
    """One observation: a type, a wall-clock stamp and a payload."""

    type: str
    payload: Dict[str, Any] = field(default_factory=dict)
    time: float = field(default_factory=_time.time)

    def as_dict(self) -> Dict[str, Any]:
        return {"type": self.type, "time": self.time,
                "payload": _jsonable(self.payload)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict())

    @classmethod
    def from_json(cls, line: str) -> "Event":
        raw = json.loads(line)
        return cls(type=raw["type"], payload=raw.get("payload", {}),
                   time=raw.get("time", 0.0))


class Sink:
    """Interface: receives every event published on a bus."""

    def emit(self, event: Event) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Release resources; default is a no-op."""


class MemorySink(Sink):
    """Buffers events in memory — the natural sink for tests and notebooks."""

    def __init__(self) -> None:
        self.events: List[Event] = []

    def emit(self, event: Event) -> None:
        self.events.append(event)

    def of_type(self, event_type: str) -> List[Event]:
        """Events filtered to one type, in emission order."""
        return [e for e in self.events if e.type == event_type]

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(Sink):
    """Appends one JSON line per event to a file, flushing eagerly.

    Eager flushing keeps the trace readable while a long run is still in
    flight (e.g. tailing α convergence during a search).  Writes are
    serialised under a lock: serving worker threads emit concurrently,
    and interleaved partial lines would corrupt the trace.
    """

    def __init__(self, path: PathLike) -> None:
        import threading

        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: Optional[TextIO] = self.path.open("a")
        self._lock = threading.Lock()

    def emit(self, event: Event) -> None:
        line = event.to_json() + "\n"
        with self._lock:
            if self._handle is None:
                raise RuntimeError(f"JsonlSink({self.path}) is closed")
            self._handle.write(line)
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


class ConsoleSink(Sink):
    """Human-readable one-line-per-event rendering (the ``verbose`` path)."""

    #: event types skipped by default to keep terminals readable.
    QUIET_TYPES = ("step",)

    def __init__(self, stream: Optional[TextIO] = None,
                 include_steps: bool = False) -> None:
        self.stream = stream
        self.include_steps = include_steps

    def emit(self, event: Event) -> None:
        if not self.include_steps and event.type in self.QUIET_TYPES:
            return
        stream = self.stream if self.stream is not None else sys.stdout
        parts = []
        for key, value in event.payload.items():
            if isinstance(value, float):
                parts.append(f"{key}={value:.6g}")
            elif isinstance(value, (list, np.ndarray)):
                parts.append(f"{key}=<{len(value)} values>")
            else:
                parts.append(f"{key}={value}")
        print(f"[{event.type}] " + " ".join(parts), file=stream)


class EventBus:
    """Publishes typed events to every attached sink.

    A bus with no sinks is a cheap no-op, so instrumented code can emit
    unconditionally through ``bus.emit(...)`` guarded only by
    ``if bus is not None``.

    ``clock`` stamps every event built by :meth:`emit` and defaults to
    ``time.time``; tests inject a fake so event ordering and span
    durations are deterministic (pre-built events passed to
    :meth:`publish` keep the stamp they carry).
    """

    def __init__(self, sinks: Iterable[Sink] = (),
                 clock: Callable[[], float] = _time.time) -> None:
        self._sinks: List[Sink] = list(sinks)
        self._clock = clock

    @classmethod
    def to_jsonl(cls, path: PathLike,
                 clock: Callable[[], float] = _time.time) -> "EventBus":
        """A bus writing straight to a JSONL trace file."""
        return cls([JsonlSink(path)], clock=clock)

    @property
    def clock(self) -> Callable[[], float]:
        return self._clock

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks.append(sink)
        return sink

    @property
    def sinks(self) -> List[Sink]:
        return list(self._sinks)

    def emit(self, event_type: str, **payload: Any) -> Event:
        """Build and publish an event; returns it for convenience."""
        if event_type not in EVENT_TYPES:
            raise ValueError(
                f"unknown event type {event_type!r}; registered types are "
                f"{sorted(EVENT_TYPES)} (use register_event_type to extend)"
            )
        event = Event(type=event_type, payload=payload, time=self._clock())
        for sink in self._sinks:
            sink.emit(event)
        return event

    def publish(self, event: Event) -> Event:
        """Publish a pre-built event (type still validated)."""
        if event.type not in EVENT_TYPES:
            raise ValueError(f"unknown event type {event.type!r}")
        for sink in self._sinks:
            sink.emit(event)
        return event

    def close(self) -> None:
        for sink in self._sinks:
            sink.close()

    def __enter__(self) -> "EventBus":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: PathLike,
               event_type: Optional[str] = None) -> List[Event]:
    """Load a JSONL trace written by :class:`JsonlSink`.

    ``event_type`` filters to one type; blank lines are skipped.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no trace file at {path}")
    events = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        event = Event.from_json(line)
        if event_type is None or event.type == event_type:
            events.append(event)
    return events
