"""Recorded ``train`` results per data seed, and the script that records them.

The ``train`` workload checks every timed ``run_optinter`` call against
the test-split ``val_logloss`` and the searched architecture counts
recorded in ``train_reference.json`` for its data seed.  A change in what
the search derives or what the retrain learns therefore reads as
``correct: false``.  Training data is drawn from ``seed % SEEDS``, so
every ``--seed`` has a record.

Re-record only when a change to the training results is intended (and
say so with the change)::

    python3 perfbench/train_reference.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BENCH_DIR, WORK_ROOT, cpu_plan, pin_self, spawn  # noqa: E402

SEEDS = 128
PATH = BENCH_DIR / "train_reference.json"
#: relative tolerance on ``val_logloss``: another CPU may pick other BLAS
#: and SIMD kernels, whose rounding drifts through training.  The
#: architecture counts must match exactly.
RTOL = 1e-4


def data_seed(seed: int) -> int:
    return seed % SEEDS


def load(rows: int) -> dict:
    """``str(data seed) -> {"val_logloss", "counts"}`` for ``rows``."""
    return json.loads(PATH.read_text())[str(rows)]


def matches(op: dict, recorded: dict) -> bool:
    return (op["counts"] == recorded["counts"]
            and abs(op["val_logloss"] - recorded["val_logloss"])
            <= RTOL * recorded["val_logloss"])


def _record(rows: int, seed: int, out: Path, cpu) -> dict:
    proc = spawn([sys.executable, str(BENCH_DIR / "program.py"), "train",
                  "--phase", "warm", "--seed", str(seed), "--rows", str(rows),
                  "--out", str(out)], cpu, stdout=subprocess.DEVNULL)
    if proc.wait() != 0:
        raise RuntimeError(f"train warm-up for seed {seed} exited "
                           f"{proc.returncode}")
    op = json.loads(out.read_text())["ops"][0]
    return {"val_logloss": op["val_logloss"], "counts": op["counts"]}


def main() -> int:
    from workloads import TINY_TRAIN_ROWS, TRAIN_ROWS

    plan = cpu_plan()
    pin_self(plan["harness"])
    WORK_ROOT.mkdir(exist_ok=True)
    blocks = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
        for rows in (TRAIN_ROWS, TINY_TRAIN_ROWS):
            entries = [f'  "{seed}": ' + json.dumps(
                _record(rows, seed, Path(tmp) / "warm.json", plan["program"]))
                for seed in range(SEEDS)]
            blocks.append(f' "{rows}": {{\n' + ",\n".join(entries) + "\n }")
    PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
