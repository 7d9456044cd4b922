"""Autodiff profiler: per-op timing for the numpy substrate.

``Profiler`` is a context manager that, while active, replaces the op
methods of :class:`~repro.nn.tensor.Tensor` (plus the free functions
``concatenate`` / ``stack`` / ``embedding_lookup`` / ``index_select`` /
``where`` / ``gumbel_combine``) and
:meth:`Module.__call__ <repro.nn.module.Module.__call__>` with timing
wrappers.  Each wrapper records

* forward call count, inclusive and self (exclusive of nested ops)
  wall-clock time via ``perf_counter``,
* output array bytes ("bytes touched"),
* backward call count and time, by wrapping the ``_backward`` closure
  attached to each op's output tensor.

Everything is restored on exit, so the **disabled path is the original,
unmodified hot path** — zero overhead when no profiler is active.  The
wrappers call no RNG and never mutate tensor values, so a profiled run
is numerically identical to an unprofiled one (asserted in
``tests/obs/test_profiler.py``).

Composite ops (``mean`` = ``sum`` + ``mul``, ``sub`` = ``add`` +
``neg``, ``sqrt`` = ``pow``) appear both as themselves (self time ≈
python overhead) and as their constituents; ``self_s`` never double
counts, ``total_s`` is inclusive.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..nn import tensor as tensor_module
from ..nn.module import Module
from ..nn.tensor import Tensor

__all__ = ["OpStat", "ModuleStat", "Profiler"]

#: Tensor attribute -> op label.  Aliases (``__radd__`` is ``__add__``)
#: are listed separately: a call dispatches through exactly one
#: attribute, so sharing a label never double-counts.
_TENSOR_METHODS: Dict[str, str] = {
    "__add__": "add", "__radd__": "add", "__neg__": "neg",
    "__sub__": "sub", "__rsub__": "sub",
    "__mul__": "mul", "__rmul__": "mul",
    "__truediv__": "div", "__rtruediv__": "div",
    "__pow__": "pow", "sqrt": "sqrt",
    "matmul": "matmul", "__matmul__": "matmul",
    "sum": "sum", "mean": "mean", "max": "max",
    "reshape": "reshape", "transpose": "transpose",
    "__getitem__": "getitem",
    "exp": "exp", "log": "log", "relu": "relu", "sigmoid": "sigmoid",
    "tanh": "tanh", "clip": "clip", "softmax": "softmax",
}

#: free functions in repro.nn.tensor that construct ops directly.
_FREE_FUNCTIONS: Tuple[str, ...] = ("concatenate", "stack",
                                    "embedding_lookup", "index_select",
                                    "where", "gumbel_combine")


@dataclass
class OpStat:
    """Accumulated cost of one op label."""

    name: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    out_bytes: int = 0
    backward_calls: int = 0
    backward_s: float = 0.0

    @property
    def combined_s(self) -> float:
        """Self forward time plus backward time — the sort key."""
        return self.self_s + self.backward_s

    def as_dict(self) -> Dict[str, Any]:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "out_bytes": self.out_bytes,
            "backward_calls": self.backward_calls,
            "backward_s": self.backward_s,
        }


@dataclass
class ModuleStat:
    """Accumulated forward cost of one module class."""

    name: str
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "self_s": self.self_s,
                "total_s": self.total_s}


class Profiler:
    """Hooks the autodiff substrate and attributes wall-clock to ops.

    ::

        with Profiler() as prof:
            trainer.fit(train, val)
        print(prof.table())

    Only one profiler may be active at a time (the hooks are global).
    ``bus`` publishes an ``op_timing`` event with the full stats on
    exit.
    """

    _active: Optional["Profiler"] = None

    def __init__(self, bus=None) -> None:
        self.bus = bus
        self.op_stats: Dict[str, OpStat] = {}
        self.module_stats: Dict[str, ModuleStat] = {}
        self.wall_s: float = 0.0
        self._saved: List[Tuple[Any, str, Any]] = []
        self._op_stack: List[float] = []
        self._module_stack: List[float] = []
        self._start: Optional[float] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _op(self, name: str) -> OpStat:
        stat = self.op_stats.get(name)
        if stat is None:
            stat = self.op_stats[name] = OpStat(name)
        return stat

    def _record_forward(self, name: str, elapsed: float, child: float,
                        out: Any) -> None:
        stat = self._op(name)
        stat.calls += 1
        stat.total_s += elapsed
        stat.self_s += elapsed - child
        if isinstance(out, Tensor):
            stat.out_bytes += out.data.nbytes

    def _record_backward(self, name: str, elapsed: float) -> None:
        stat = self._op(name)
        stat.backward_calls += 1
        stat.backward_s += elapsed

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrap_op(self, orig: Callable, name: str) -> Callable:
        profiler = self

        def wrapper(*args, **kwargs):
            stack = profiler._op_stack
            stack.append(0.0)
            start = time.perf_counter()
            out = orig(*args, **kwargs)
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            profiler._record_forward(name, elapsed, child, out)
            if (isinstance(out, Tensor) and out._backward is not None
                    and not getattr(out._backward, "_obs_profiled", False)):
                out._backward = profiler._wrap_backward(out._backward, name)
            return out

        wrapper._obs_original = orig
        return wrapper

    def _wrap_backward(self, orig: Callable, name: str) -> Callable:
        profiler = self

        def timed_backward(grad):
            start = time.perf_counter()
            orig(grad)
            profiler._record_backward(name, time.perf_counter() - start)

        timed_backward._obs_profiled = True
        return timed_backward

    def _wrap_module_call(self, orig: Callable) -> Callable:
        profiler = self

        def wrapper(module_self, *args, **kwargs):
            stack = profiler._module_stack
            stack.append(0.0)
            start = time.perf_counter()
            out = orig(module_self, *args, **kwargs)
            elapsed = time.perf_counter() - start
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
            name = type(module_self).__name__
            stat = profiler.module_stats.get(name)
            if stat is None:
                stat = profiler.module_stats[name] = ModuleStat(name)
            stat.calls += 1
            stat.total_s += elapsed
            stat.self_s += elapsed - child
            return out

        wrapper._obs_original = orig
        return wrapper

    # ------------------------------------------------------------------
    # Hook installation
    # ------------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Profiler":
        if Profiler._active is not None:
            raise RuntimeError("another Profiler is already active")
        Profiler._active = self
        for attr, name in _TENSOR_METHODS.items():
            self._patch(Tensor, attr, self._wrap_op(getattr(Tensor, attr), name))
        # Free functions are imported by name across the package
        # (``from .tensor import concatenate``), so patch every bound
        # reference in loaded repro modules, not just the home module.
        for fn_name in _FREE_FUNCTIONS:
            original = getattr(tensor_module, fn_name)
            wrapped = self._wrap_op(original, fn_name)
            for module in list(sys.modules.values()):
                if (module is not None
                        and getattr(module, "__name__", "").startswith("repro")
                        and getattr(module, fn_name, None) is original):
                    self._patch(module, fn_name, wrapped)
        self._patch(Module, "__call__",
                    self._wrap_module_call(Module.__call__))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s += time.perf_counter() - self._start
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        Profiler._active = None
        if self.bus is not None:
            self.bus.emit("op_timing", wall_s=self.wall_s,
                          ops={n: s.as_dict()
                               for n, s in self.op_stats.items()},
                          modules={n: s.as_dict()
                                   for n, s in self.module_stats.items()})

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def sorted_ops(self) -> List[OpStat]:
        """Op stats sorted by combined (self forward + backward) time."""
        return sorted(self.op_stats.values(),
                      key=lambda s: s.combined_s, reverse=True)

    def total_op_seconds(self) -> float:
        return sum(s.combined_s for s in self.op_stats.values())

    def table(self, top: Optional[int] = None) -> str:
        """Human-readable per-op cost table."""
        rows = self.sorted_ops()
        if top is not None:
            rows = rows[:top]
        header = (f"{'op':<18}{'calls':>9}{'fwd self (s)':>14}"
                  f"{'bwd (s)':>11}{'fwd+bwd (s)':>13}{'MB out':>9}")
        lines = [header, "-" * len(header)]
        for s in rows:
            lines.append(
                f"{s.name:<18}{s.calls:>9}{s.self_s:>14.4f}"
                f"{s.backward_s:>11.4f}{s.combined_s:>13.4f}"
                f"{s.out_bytes / 1e6:>9.1f}"
            )
        lines.append("-" * len(header))
        lines.append(f"{'total':<18}{'':>9}{'':>14}{'':>11}"
                     f"{self.total_op_seconds():>13.4f}")
        lines.append(f"wall clock inside profiler: {self.wall_s:.4f} s")
        return "\n".join(lines)

    def module_table(self, top: Optional[int] = None) -> str:
        """Per-module-class forward cost table (inclusive and self time)."""
        rows = sorted(self.module_stats.values(),
                      key=lambda s: s.total_s, reverse=True)
        if top is not None:
            rows = rows[:top]
        header = (f"{'module':<24}{'calls':>9}{'total (s)':>12}"
                  f"{'self (s)':>11}")
        lines = [header, "-" * len(header)]
        for s in rows:
            lines.append(f"{s.name:<24}{s.calls:>9}{s.total_s:>12.4f}"
                         f"{s.self_s:>11.4f}")
        return "\n".join(lines)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready summary (the shape written to ``BENCH_obs.json``)."""
        return {
            "wall_s": self.wall_s,
            "total_op_s": self.total_op_seconds(),
            "ops": {name: stat.as_dict()
                    for name, stat in sorted(self.op_stats.items())},
            "modules": {name: stat.as_dict()
                        for name, stat in sorted(self.module_stats.items())},
        }
