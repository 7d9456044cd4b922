"""Span tracing: follow one request or run across stages and threads.

A **span** is one timed unit of work — a training run, one epoch, a
serving request, the scoring call inside it.  Spans nest: each carries a
``trace_id`` shared by everything in the same logical operation, its own
``span_id`` and its parent's ``parent_id``, so a trace file reconstructs
into a tree (``repro obs tree``) and per-name latency tables
(``repro obs summarize``).

Spans ride the existing event layer: every finished span is emitted as a
``span`` event on the :class:`~repro.obs.events.EventBus`, one JSON line
in the same trace file that already carries ``epoch_end`` /
``serve_request`` / ``rollout`` events — one file, one timeline.

Design points:

* **Injectable clock** (``clock=``, default ``time.time``): span starts
  and durations are deterministic in tests, matching the serving
  components' convention.
* **Injectable ids** (``ids=``): an iterator of id strings replaces the
  ``uuid4`` default so tests assert exact trace trees.
* **Thread-local nesting**: ``with tracer.span(...)`` parents under the
  innermost open span *of the same thread*.  Crossing threads (a queued
  serving request picked up by a worker) is explicit: pass ``parent=``
  or ``trace_id=``, or record a retroactive span with :meth:`Tracer.
  record` (how queue-wait time becomes a child span after the fact).
* **Cheap when disabled**: a tracer with no bus and no emit hook hands
  out a shared no-op span, so instrumented code pays one attribute check
  when tracing is off.
"""

from __future__ import annotations

import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

from .events import Event, EventBus, read_trace

__all__ = ["Span", "Tracer", "sequential_ids", "spans_from_trace",
           "spans_from_events", "summarize_spans", "span_tree",
           "render_span_tree", "trace_ids"]


def sequential_ids(prefix: str = "id") -> Iterator[str]:
    """Deterministic id stream for tests: ``id-0``, ``id-1``, ..."""
    n = 0
    while True:
        yield f"{prefix}-{n}"
        n += 1


def _uuid_ids() -> Iterator[str]:
    while True:
        yield uuid.uuid4().hex[:16]


@dataclass
class Span:
    """One finished (or in-flight) unit of work."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    duration_s: Optional[float] = None
    status: str = "ok"
    error: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def set_attr(self, key: str, value: Any) -> None:
        self.attrs[key] = value

    def mark_error(self, error: Any) -> None:
        self.status = "error"
        self.error = (f"{type(error).__name__}: {error}"
                      if isinstance(error, BaseException) else str(error))

    def as_payload(self) -> Dict[str, Any]:
        """The ``span`` event payload (JSON-ready)."""
        payload: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.error is not None:
            payload["error"] = self.error
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Span":
        return cls(name=payload["name"],
                   trace_id=payload["trace_id"],
                   span_id=payload["span_id"],
                   parent_id=payload.get("parent_id"),
                   start=payload.get("start", 0.0),
                   duration_s=payload.get("duration_s"),
                   status=payload.get("status", "ok"),
                   error=payload.get("error"),
                   attrs=dict(payload.get("attrs", {})))


class _NoopSpan:
    """The span handed out when tracing is disabled: absorbs everything."""

    __slots__ = ()
    name = ""
    trace_id = ""
    span_id = ""
    parent_id = None
    status = "ok"

    def set_attr(self, key: str, value: Any) -> None:
        pass

    def mark_error(self, error: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Builds spans, tracks nesting per thread, emits ``span`` events.

    Exactly one of ``bus`` / ``emit`` is the output: ``bus.emit("span",
    **payload)`` or ``emit("span", **payload)`` (the fan-out callable
    the trainer/search already have).  With neither, the tracer is
    disabled and :meth:`span` yields a shared no-op span.
    """

    def __init__(self, bus: Optional[EventBus] = None,
                 emit: Optional[Callable[..., Any]] = None,
                 clock: Callable[[], float] = time.time,
                 ids: Optional[Iterator[str]] = None) -> None:
        self.bus = bus
        self._emit_fn = emit
        self.clock = clock
        self._ids = ids if ids is not None else _uuid_ids()
        self._local = threading.local()
        self._id_lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return self.bus is not None or self._emit_fn is not None

    def next_id(self) -> str:
        with self._id_lock:
            return next(self._ids)

    def current(self) -> Optional[Span]:
        """The innermost open span of this thread, if any."""
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack and stack[-1] is span:
            stack.pop()

    def _publish(self, span: Span) -> None:
        if self.bus is not None:
            self.bus.emit("span", **span.as_payload())
        elif self._emit_fn is not None:
            self._emit_fn("span", **span.as_payload())

    @contextmanager
    def span(self, name: str, parent: Optional[Span] = None,
             trace_id: Optional[str] = None, **attrs: Any):
        """Open a span; emits it when the block exits.

        An exception inside the block marks the span ``error`` (and
        propagates).  ``parent`` overrides the thread-local nesting —
        the cross-thread hand-off case; ``trace_id`` alone starts a
        *sibling-less* child of an id known from elsewhere (a request
        id minted before the queue hop).
        """
        if not self.enabled:
            yield _NOOP_SPAN
            return
        if parent is None:
            parent = self.current()
        if parent is not None and not isinstance(parent, _NoopSpan):
            tid = parent.trace_id
            parent_id = parent.span_id
        else:
            tid = trace_id if trace_id is not None else self.next_id()
            parent_id = None
        span = Span(name=name, trace_id=tid, span_id=self.next_id(),
                    parent_id=parent_id, start=self.clock(), attrs=dict(attrs))
        self._push(span)
        try:
            yield span
        except BaseException as exc:
            span.mark_error(exc)
            raise
        finally:
            span.duration_s = self.clock() - span.start
            self._pop(span)
            self._publish(span)

    def record(self, name: str, start: float, duration_s: float,
               parent: Optional[Span] = None,
               trace_id: Optional[str] = None,
               status: str = "ok", **attrs: Any) -> Optional[Span]:
        """Emit a retroactive span from timing measured elsewhere.

        This is how wait time that elapsed *before* a worker thread took
        over (queue residency) becomes a child span of the request span
        opened afterwards.
        """
        if not self.enabled:
            return None
        if parent is not None and not isinstance(parent, _NoopSpan):
            tid = parent.trace_id
            parent_id = parent.span_id
        else:
            tid = trace_id if trace_id is not None else self.next_id()
            parent_id = None
        span = Span(name=name, trace_id=tid, span_id=self.next_id(),
                    parent_id=parent_id, start=start,
                    duration_s=duration_s, status=status, attrs=dict(attrs))
        self._publish(span)
        return span


# ----------------------------------------------------------------------
# Trace-file analysis (the `repro obs` data layer)
# ----------------------------------------------------------------------
def spans_from_events(events: Iterable[Event]) -> List[Span]:
    """The spans among ``events``, in emission order."""
    return [Span.from_payload(e.payload) for e in events if e.type == "span"]


def spans_from_trace(path) -> List[Span]:
    """Load every span event from a JSONL trace file."""
    return spans_from_events(read_trace(path, event_type="span"))


def trace_ids(spans: Sequence[Span]) -> List[str]:
    """Distinct trace ids in first-appearance order."""
    seen: Dict[str, None] = {}
    for span in spans:
        seen.setdefault(span.trace_id, None)
    return list(seen)


def _percentile(sorted_values: List[float], q: float) -> float:
    """Exact linear-interpolation percentile over a sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1 - frac) + sorted_values[high] * frac


def summarize_spans(spans: Sequence[Span]) -> Dict[str, Dict[str, Any]]:
    """Per-span-name latency percentiles and status counts.

    Durations here are exact (every span's duration is in the trace),
    unlike the bucketed histograms on the live metrics registry.
    """
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    summary: Dict[str, Dict[str, Any]] = {}
    for name in sorted(by_name):
        group = by_name[name]
        durations = sorted(s.duration_s for s in group
                           if s.duration_s is not None)
        statuses: Dict[str, int] = {}
        for span in group:
            statuses[span.status] = statuses.get(span.status, 0) + 1
        summary[name] = {
            "count": len(group),
            "statuses": statuses,
            "errors": statuses.get("error", 0),
            "p50_s": _percentile(durations, 0.50),
            "p90_s": _percentile(durations, 0.90),
            "p99_s": _percentile(durations, 0.99),
            "max_s": durations[-1] if durations else 0.0,
            "total_s": sum(durations),
        }
    return summary


def span_tree(spans: Sequence[Span],
              trace_id: Optional[str] = None
              ) -> List[Dict[str, Any]]:
    """Nest one trace's spans into ``{"span": .., "children": [..]}``.

    ``trace_id`` defaults to the trace of the *last* span in the file —
    the most recent complete operation.  Roots (no parent, or a parent
    missing from the trace) sort by start time, as do children.
    """
    if not spans:
        return []
    if trace_id is None:
        trace_id = spans[-1].trace_id
    members = [s for s in spans if s.trace_id == trace_id]
    by_id = {s.span_id: {"span": s, "children": []} for s in members}
    roots: List[Dict[str, Any]] = []
    for span in members:
        node = by_id[span.span_id]
        parent = by_id.get(span.parent_id) if span.parent_id else None
        if parent is not None and parent["span"] is not span:
            parent["children"].append(node)
        else:
            roots.append(node)

    def _sort(nodes: List[Dict[str, Any]]) -> None:
        nodes.sort(key=lambda n: n["span"].start)
        for node in nodes:
            _sort(node["children"])

    _sort(roots)
    return roots


def render_span_tree(spans: Sequence[Span],
                     trace_id: Optional[str] = None) -> str:
    """ASCII rendering of one trace's span tree."""
    roots = span_tree(spans, trace_id=trace_id)
    if not roots:
        return "(no spans)"
    shown_trace = roots[0]["span"].trace_id
    lines = [f"trace {shown_trace}"]

    def _walk(nodes: List[Dict[str, Any]], depth: int) -> None:
        for node in nodes:
            span = node["span"]
            duration = ("?" if span.duration_s is None
                        else f"{span.duration_s * 1e3:.3f} ms")
            flag = "" if span.status == "ok" else f"  [{span.status}]"
            extra = ""
            if span.error:
                extra = f"  ({span.error})"
            lines.append(f"{'  ' * (depth + 1)}{span.name}  {duration}"
                         f"{flag}{extra}")
            _walk(node["children"], depth + 1)

    _walk(roots, 0)
    return "\n".join(lines)
