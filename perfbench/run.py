#!/usr/bin/env python3
"""Repository benchmark: train, serve-closed and ingest.

Usage (from the repository root)::

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the untraced program and prints the end-to-end
metrics; ``--trace 1`` additionally runs a traced process and prints the
per-layer metrics and ``trace_overhead_pct`` instead.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (ROOT, SRC, WORK_ROOT, StealMeter,  # noqa: E402
                    apply_thread_env, cpu_plan, fingerprint, pin_self)

apply_thread_env()

#: the metric declarations (names, units, bounds) live in one place.
DECLARATIONS = ROOT / "BENCHMARK.json"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "serve-closed", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and one set-up sample (tests)")
    return parser.parse_args(argv)


def _table(title: str, rows) -> str:
    lines = [title]
    for name, unit, value in rows:
        lines.append(f"  {name:<30} {value:>14.6g} {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program sources are missing ({SRC / 'repro'} "
              f"not found); run from a full checkout", file=sys.stderr)
        return 2
    declared_all = json.loads(DECLARATIONS.read_text())
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Context

    env = fingerprint()
    plan = cpu_plan()
    pin_self(plan["harness"])
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=WORK_ROOT))
    steal = StealMeter()
    try:
        outcome = WORKLOADS[args.workload](Context(
            seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            tiny=args.tiny, workdir=workdir, program_cpu=plan["program"]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env.update({"pinning": plan, "steal_pct": steal.share_pct()})

    if args.trace:
        declared = [(m["name"], m["unit"])
                    for m in declared_all["per_layer"]]
        values = dict.fromkeys((name for name, _unit in declared), 0.0)
        values.update({k: v for k, v in outcome.layers.items()
                       if k in values})
        values["env.steal_pct"] = env["steal_pct"]
        title = "per-layer"
    else:
        declared = [(m["name"], m["unit"])
                    for m in declared_all["end_to_end"]]
        values = outcome.end_to_end
        title = "end-to-end"
    print(_table(f"{title} ({args.workload}, seed {args.seed})",
                 [(n, u, values[n]) for n, u in declared]))
    print(f"checks: correct={outcome.correct} attempted={outcome.attempted} "
          f"failed={outcome.failed} {json.dumps(outcome.notes)}")
    print(f"env: {json.dumps(env)}")
    print(json.dumps({
        "correct": bool(outcome.correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
