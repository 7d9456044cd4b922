"""Micro-batching throughput benchmark → BENCH_serving.json.

Drives the full serving path over a small LR model at batch sizes 1, 8
and 32 on one synthetic workload and reports requests/s plus p50/p99
response latency (from each response's own ``latency_ms``).  Every size
goes through ``PredictionService.predict_batch``; batch 1 scores one
request per call, which is what ``--batch-size 1`` serving does, so
``speedup_32`` is the honest "what did coalescing buy" number.  Scores
are bit-for-bit identical across batch sizes (the differential suite
pins that); this benchmark pins the *win*.

The headline metric is *relative* (requests/s at batch 32 over batch 1),
stable across machines and safe to gate CI on; absolute rates are
reported but not compared.

Usage::

    PYTHONPATH=src python benchmarks/serving_throughput.py --out BENCH_serving.json
    PYTHONPATH=src python benchmarks/serving_throughput.py \
        --out BENCH_serving.json --baseline benchmarks/BENCH_serving.json

Exit 1 if batch-32 throughput falls under ``--min-speedup`` (default 3x,
the issue's acceptance floor) or — with ``--baseline`` — if the fresh
speedup regresses below the committed one by more than ``--tolerance``.
``--quick`` shrinks request counts for CI smoke steps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import numpy as np

from repro.data.schema import make_schema
from repro.models.shallow import LogisticRegression
from repro.serving import BatchRequest, PredictionService
from repro.serving.faults import valid_requests

CARDINALITIES = [1000, 1000, 500, 100, 100, 50, 20, 10]
BATCH_SIZES = (1, 8, 32)
REQUESTS = 2000
QUICK_REQUESTS = 512
TRIALS = 5
#: acceptance floor — batch 32 must be at least this many times faster.
MIN_SPEEDUP = 3.0


def _build_service() -> PredictionService:
    schema = make_schema(CARDINALITIES, positive_ratio=0.3)
    model = LogisticRegression(schema.cardinalities,
                               rng=np.random.default_rng(0))
    return PredictionService(model, schema)


def _run_pass(service: PredictionService, requests: List[Dict],
              batch_size: int) -> Dict:
    """One full pass; returns elapsed seconds + per-response latencies."""
    latencies_ms: List[float] = []
    start = time.perf_counter()
    for offset in range(0, len(requests), batch_size):
        chunk = [BatchRequest(features)
                 for features in requests[offset:offset + batch_size]]
        latencies_ms.extend(response.latency_ms
                            for response in service.predict_batch(chunk))
    return {"elapsed_s": time.perf_counter() - start,
            "latencies_ms": latencies_ms}


def _timed_pass(requests: List[Dict], batch_size: int) -> Dict:
    """One pass on a fresh, warmed service."""
    service = _build_service()
    for features in requests[:32]:  # warm caches / validator paths
        service.predict(features)
    return _run_pass(service, requests, batch_size)


def _summarize(passes: List[Dict], batch_size: int, n_requests: int) -> Dict:
    """Best-of-trials requests/s + latency percentiles from the median
    trial."""
    elapsed = sorted(p["elapsed_s"] for p in passes)
    median_pass = min(passes, key=lambda p: abs(p["elapsed_s"]
                                                - elapsed[len(elapsed) // 2]))
    latencies = np.asarray(median_pass["latencies_ms"])
    return {
        "batch_size": batch_size,
        "requests_per_s": round(n_requests / elapsed[0], 1),
        "p50_latency_ms": round(float(np.percentile(latencies, 50)), 4),
        "p99_latency_ms": round(float(np.percentile(latencies, 99)), 4),
    }


def run_benchmarks(quick: bool = False, trials: int = TRIALS) -> Dict:
    n_requests = QUICK_REQUESTS if quick else REQUESTS
    schema = make_schema(CARDINALITIES, positive_ratio=0.3)
    requests = list(valid_requests(schema, count=n_requests,
                                   rng=np.random.default_rng(1)))
    # Each trial times every batch size back to back, so a slow stretch
    # of the machine slows all sizes of that trial instead of all trials
    # of one size (which skews the speedup ratios).
    passes: Dict[int, List[Dict]] = {bs: [] for bs in BATCH_SIZES}
    for _ in range(trials):
        for batch_size in BATCH_SIZES:
            passes[batch_size].append(_timed_pass(requests, batch_size))
    results = {bs: _summarize(passes[bs], bs, n_requests)
               for bs in BATCH_SIZES}
    base_rps = results[1]["requests_per_s"]
    return {
        "requests": n_requests,
        "trials": trials,
        "quick": quick,
        "batch_sizes": {str(bs): results[bs] for bs in BATCH_SIZES},
        "speedup_8": round(results[8]["requests_per_s"] / base_rps, 3),
        "speedup_32": round(results[32]["requests_per_s"] / base_rps, 3),
    }


def check_acceptance(report: Dict, min_speedup: float) -> List[str]:
    """The issue's acceptance criterion, as a list of failures."""
    failures = []
    if report["speedup_32"] < min_speedup:
        failures.append(
            f"batch-32 speedup {report['speedup_32']:.2f}x is under the "
            f"{min_speedup:.1f}x floor")
    return failures


def compare_to_baseline(report: Dict, baseline: Dict,
                        tolerance: float) -> List[str]:
    """Relative-metric regression check against a committed baseline.

    Speedups are noisy on shared runners, so the committed number only
    anchors the order of magnitude: the fresh speedup may fall short of
    it by at most the ``tolerance`` factor (and never fails while above
    the absolute acceptance floor plus margin).
    """
    failures = []
    floor = max(baseline["speedup_32"] * tolerance, MIN_SPEEDUP)
    if report["speedup_32"] < floor:
        failures.append(
            f"batch-32 speedup {report['speedup_32']:.2f}x vs baseline "
            f"{baseline['speedup_32']:.2f}x (allowed floor "
            f"{floor:.2f}x)")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None,
                        help="write the report JSON here")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to compare against")
    parser.add_argument("--tolerance", type=float, default=0.5,
                        help="baseline slack factor (speedup may shrink "
                             "to baseline * tolerance)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="absolute batch-32 speedup floor")
    parser.add_argument("--quick", action="store_true",
                        help="smaller request counts for smoke runs")
    args = parser.parse_args(argv)

    report = run_benchmarks(quick=args.quick)
    print(json.dumps(report, indent=2))

    failures = check_acceptance(report, args.min_speedup)
    if args.baseline:
        with open(args.baseline) as handle:
            failures += compare_to_baseline(report, json.load(handle),
                                            args.tolerance)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
