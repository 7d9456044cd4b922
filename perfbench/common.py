"""Shared plumbing for the benchmark: noise controls, child processes,
statistics and the environment fingerprint.

Every process the benchmark starts gets one BLAS thread and a fixed hash
seed.  When at least two CPUs are available the load side (this harness)
runs on the first and the program under test on the second, so a
generator busy-waiting for its next send never competes with the server
it is timing.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"

#: one BLAS thread everywhere: multi-threaded OpenBLAS on a small VM is
#: the single biggest source of run-to-run spread.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: the pinned tail percentile (``tail_ms`` and the per-layer serving
#: tails): a faster program, which completes more operations, must not
#: move a metric to another percentile.
TAIL_PCT = 90.0

#: ``ingest`` settings, shared by the program child and the reference.
CHUNK_ROWS = 1024
MIN_COUNT = 4
CROSS_MIN_COUNT = 10


def apply_thread_env() -> None:
    """Pin BLAS to one thread in this process (call before numpy loads)."""
    os.environ.update(THREAD_ENV)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def cpu_plan() -> Dict[str, Optional[int]]:
    """Which CPU the harness and the program run on (None = unpinned)."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return {"harness": None, "program": None}
    if len(cpus) < 2:
        return {"harness": None, "program": None}
    return {"harness": cpus[0], "program": cpus[1]}


def pin_self(cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def spawn(args: Sequence[str], cpu: Optional[int], **kwargs
          ) -> subprocess.Popen:
    """Start a program process pinned to ``cpu`` with the noise controls."""
    return subprocess.Popen(list(args), env=child_env(), cwd=str(ROOT),
                            preexec_fn=lambda: pin_self(cpu), **kwargs)


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> None:
    """Wait for ``proc``; escalate to terminate/kill past ``timeout``."""
    try:
        proc.wait(timeout=timeout)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def read_ready_line(proc: subprocess.Popen, timeout: float = 120.0) -> str:
    """The first stdout line of ``proc`` (its ready line)."""
    import selectors

    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    try:
        if not sel.select(timeout):
            raise RuntimeError(f"no ready line within {timeout:.0f} s")
    finally:
        sel.close()
    line = proc.stdout.readline()
    if not line:
        raise RuntimeError(f"process exited before its ready line "
                           f"(code {proc.wait()})")
    return line


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set size of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class StealMeter:
    """Share of CPU time the host stole from this VM between two reads."""

    @staticmethod
    def _read() -> Optional[List[int]]:
        try:
            with open("/proc/stat") as handle:
                fields = handle.readline().split()
        except OSError:
            return None
        return [int(v) for v in fields[1:]]

    def __init__(self) -> None:
        self._start = self._read()

    def share_pct(self) -> float:
        end = self._read()
        if self._start is None or end is None or len(end) < 8:
            return 0.0
        delta = [b - a for a, b in zip(self._start, end)]
        total = sum(delta[:8])
        return 100.0 * delta[7] / total if total > 0 else 0.0


def fingerprint() -> Dict[str, object]:
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, AttributeError):  # older numpy: no dict mode
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), pct))


def tail_percentile(n: int) -> float:
    """``TAIL_PCT`` while it has ten of ``n`` samples beyond it, else
    the median (tiny runs)."""
    return TAIL_PCT if n * (1.0 - TAIL_PCT / 100.0) >= 10 else 50.0


def median(values: Sequence[float]) -> float:
    import statistics

    return float(statistics.median(values))


def logloss(y: Sequence[float], p: Sequence[float]) -> float:
    import numpy as np

    y = np.asarray(y, dtype=float)
    p = np.clip(np.asarray(p, dtype=float), 1e-15, 1 - 1e-15)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def dataset_digest(dataset) -> str:
    """SHA-256 over a dataset's ``x``, ``y`` and ``x_cross`` arrays."""
    import hashlib

    import numpy as np

    digest = hashlib.sha256()
    for array in (dataset.x, dataset.y, dataset.x_cross):
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def write_json(path: Path, payload) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)

