"""In-memory span recording around the program's public calls.

The traced runs wrap the calls that enter each layer of ``repro`` (see
``LAYER_CALLS``) with a span: name, start, end, parent and trace id.
Spans stay in memory and are written out once when the run ends.  A
layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so the self times of a step's spans sum
to at most the step's wall time.

The wrappers change no result: each calls the original with the same
arguments and returns its value unchanged.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: (module, qualified attribute, span name) for every wrapped call.
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.optinter", "OptInterModel.forward", "nn.forward"),
    ("repro.models.base", "FieldEmbedding.forward", "core.embed"),
    ("repro.models.base", "CrossEmbedding.forward", "core.embed"),
    ("repro.core.combination", "CombinationBlock.combine", "core.combine"),
    ("repro.nn.layers", "MLP.forward", "models.mlp"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward"),
    ("repro.nn.optim", "Adam.step", "nn.optim"),
    ("repro.training.trainer", "evaluate_model", "training.eval"),
    ("repro.data.sketches", "CategoricalSketch.update", "data.sketch"),
    ("repro.data.sketches", "NumericSketch.update", "data.sketch"),
    ("repro.data.sketches", "LabelSketch.update", "data.sketch"),
    ("repro.data.sketches", "CrossSketch.update", "data.sketch"),
    ("repro.data.ingest", "ChunkedIngestor._encode_chunk", "data.encode"),
    ("repro.resilience.checkpoint", "write_archive",
     "resilience.archive_write"),
    ("repro.serving.validation", "RequestValidator.validate",
     "serving.validate"),
    ("repro.serving.validation", "RequestValidator.validate_batch",
     "serving.validate"),
    ("repro.models.base", "CTRModel.predict_proba", "serving.score"),
    ("repro.serving.service", "PredictionService.predict",
     "serving.service"),
    ("repro.serving.service", "PredictionService.predict_batch",
     "serving.service"),
    ("repro.serving.replica", "ReplicaPool.predict", "serving.pool_dispatch"),
    ("repro.serving.replica", "ReplicaPool.predict_batch",
     "serving.pool_dispatch"),
)

#: span names whose spans are the unit a workload counts (one per op).
STEP_SPAN = "training.step"
BATCH_SPAN = "data.batch"
QUEUE_SPAN = "serving.queue_wait"


class Span:
    __slots__ = ("name", "start", "end", "span_id", "parent_id", "trace_id")

    def __init__(self, name: str, start: float, span_id: int,
                 parent_id: Optional[int], trace_id: int) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "span_id": self.span_id, "parent_id": self.parent_id,
                "trace_id": self.trace_id}


class SpanRecorder:
    """Thread-aware span stack plus the list of finished spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        # Hand-off of a parent span to work another thread picks up,
        # keyed by the id of the object passed along (see ``handoff``).
        self._handoffs: Dict[int, Span] = {}
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- stack -----------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name: str, parent: Optional[Span] = None) -> Span:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        span = Span(name, time.perf_counter(), span_id,
                    parent.span_id if parent is not None else None,
                    parent.trace_id if parent is not None else span_id)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        with self._lock:
            self.spans.append(span)

    def record(self, name: str, start: float, end: float) -> None:
        """A finished root span measured outside a call (e.g. queue wait)."""
        span_id = next(self._ids)
        span = Span(name, start, span_id, None, span_id)
        span.end = end
        with self._lock:
            self.spans.append(span)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def handoff(self, key: object) -> None:
        span = self.current()
        if span is not None:
            with self._lock:
                self._handoffs[id(key)] = span

    def take_handoff(self, key: object) -> Optional[Span]:
        with self._lock:
            return self._handoffs.pop(id(key), None)

    # -- wrapping --------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             parent_of: Optional[Callable[..., Optional[Span]]] = None,
             before: Optional[Callable[..., None]] = None,
             after: Optional[Callable[..., None]] = None) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args, **kwargs)
            parent = parent_of(*args, **kwargs) if parent_of else None
            span = recorder.begin(name, parent=parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.end(span)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(self, module: str, attr: str,
                       replacement_for: Callable[[Callable], Callable]
                       ) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(importlib.import_module(module), attr)
        replacement = replacement_for(original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                self.patch(mod, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------
    def dump(self, path: Path) -> None:
        payload = {"spans": [s.as_dict() for s in self.spans
                             if s.end is not None],
                   "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(payload))


# ---------------------------------------------------------------------------
# Installing the layer wrappers
# ---------------------------------------------------------------------------
def _grad_stats(recorder: SpanRecorder):
    """Before ``Adam.step``: count sparse rows and gradient bytes."""
    from repro.nn.sparse import SparseGrad

    def before(optimizer, *args, **kwargs) -> None:
        rows = 0
        nbytes = 0
        for group in optimizer.param_groups:
            for param in group["params"]:
                grad = param.grad
                if grad is None:
                    continue
                if isinstance(grad, SparseGrad):
                    rows += int(grad.indices.shape[0])
                    nbytes += int(grad.indices.nbytes + grad.values.nbytes)
                else:
                    nbytes += int(getattr(grad, "nbytes", 0))
        recorder.count("nn.sparse_rows", rows)
        recorder.count("nn.grad_bytes", nbytes)
    return before


def _archive_bytes(recorder: SpanRecorder):
    def after(result, *args, **kwargs) -> None:
        try:
            recorder.count("resilience.archive_bytes",
                           Path(result).stat().st_size)
        except (OSError, TypeError):
            pass
        recorder.count("resilience.archives")
    return after


def _iter_batches(recorder: SpanRecorder, original: Callable) -> Callable:
    """Batches become ``data.batch`` spans; with ``shuffle=True`` (the
    training loops) the consumer's work between two batches becomes a
    ``training.step`` span that parents forward/backward/optimizer."""

    @functools.wraps(original)
    def iter_batches(self, batch_size, shuffle=False, rng=None,
                     drop_last=False):
        inner = original(self, batch_size, shuffle=shuffle, rng=rng,
                         drop_last=drop_last)
        step = None
        while True:
            if step is not None:
                recorder.end(step)
                step = None
            fetch = recorder.begin(BATCH_SPAN)
            try:
                batch = next(inner)
            except StopIteration:
                recorder.end(fetch)
                return
            recorder.end(fetch)
            if shuffle:
                step = recorder.begin(STEP_SPAN)
            try:
                yield batch
            except GeneratorExit:
                if step is not None:
                    recorder.end(step)
                inner.close()
                raise

    return iter_batches


def _queue_wrappers(recorder: SpanRecorder, queue_cls) -> None:
    put_at: Dict[int, float] = {}
    original_put = queue_cls.__dict__["put"]
    original_get = queue_cls.__dict__["get"]

    @functools.wraps(original_put)
    def put(self, item, *args, **kwargs):
        put_at[id(item)] = time.perf_counter()
        return original_put(self, item, *args, **kwargs)

    @functools.wraps(original_get)
    def get(self, *args, **kwargs):
        item = original_get(self, *args, **kwargs)
        if item is not None:
            started = put_at.pop(id(item), None)
            if started is not None:
                recorder.record(QUEUE_SPAN, started, time.perf_counter())
        return item

    recorder.patch(queue_cls, "put", put)
    recorder.patch(queue_cls, "get", get)


def install(recorder: SpanRecorder) -> SpanRecorder:
    """Wrap every call in ``LAYER_CALLS`` (and batching/queue seams)."""
    from repro.data.dataset import CTRDataset
    from repro.serving.queue import BoundedRequestQueue

    extras: Dict[str, Dict[str, Callable]] = {
        "Adam.step": {"before": _grad_stats(recorder)},
        "write_archive": {"after": _archive_bytes(recorder)},
        # The pool hands a batch to a replica thread; the replica's
        # service span takes the dispatch span as its parent.
        "ReplicaPool.predict_batch": {
            "before": lambda pool, requests, *a, **k: (
                recorder.handoff(requests[0]) if requests else None)},
        "PredictionService.predict_batch": {
            "parent_of": lambda service, requests, *a, **k: (
                recorder.take_handoff(requests[0]) if requests else None)},
    }
    for module_name, qualname, span_name in LAYER_CALLS:
        module = importlib.import_module(module_name)
        hooks = extras.get(qualname, {})
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(module, cls_name)
            recorder.patch(cls, attr, recorder.wrap(
                cls.__dict__[attr], span_name, **hooks))
        else:
            recorder.patch_function(
                module_name, qualname,
                lambda fn, name=span_name, h=hooks: recorder.wrap(
                    fn, name, **h))
    recorder.patch(CTRDataset, "iter_batches", _iter_batches(
        recorder, CTRDataset.__dict__["iter_batches"]))
    _queue_wrappers(recorder, BoundedRequestQueue)
    return recorder


# ---------------------------------------------------------------------------
# Analysis
# ---------------------------------------------------------------------------
def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float
             ) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """span id → duration minus the part its children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            children[span["parent_id"]].append((span["start"], span["end"]))
    return {span["span_id"]: (span["end"] - span["start"])
            - _covered(children.get(span["span_id"], []),
                       span["start"], span["end"])
            for span in spans}


def layer_self_ms(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Total self time per span name, in ms."""
    own = self_times(spans)
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span["name"]] += own[span["span_id"]] * 1e3
    return dict(totals)


def step_breakdown(spans: List[Dict[str, Any]]
                   ) -> List[Tuple[float, float]]:
    """Per training step: (wall ms, summed self ms of its span subtree)."""
    own = self_times(spans)
    by_parent: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if span["parent_id"] is not None:
            by_parent[span["parent_id"]].append(span)
    out = []
    for span in spans:
        if span["name"] != STEP_SPAN:
            continue
        total = 0.0
        pending = [span]
        while pending:
            node = pending.pop()
            total += own[node["span_id"]]
            pending.extend(by_parent.get(node["span_id"], []))
        out.append(((span["end"] - span["start"]) * 1e3, total * 1e3))
    return out


def load(path: Path) -> Tuple[List[Dict[str, Any]], Dict[str, float]]:
    payload = json.loads(Path(path).read_text())
    return payload["spans"], payload["counts"]
