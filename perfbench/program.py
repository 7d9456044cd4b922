"""The program side of the ``train`` and ``ingest`` workloads.

Run as a child process by ``run.py``; never imported by it.  The child
does its set-up (imports, synthetic data generation and vocabulary fit
for ``train``; imports for ``ingest``), prints one ready line, then:

* ``--phase setup``   exits (a set-up-time sample);
* ``--phase warm``    runs one operation and records it (the reference
                      the timed operations must reproduce exactly);
* ``--phase measure`` repeats the operation for ``--seconds`` seconds;
  with ``--trace`` untraced operations alternate with operations run
  under the layer wrappers of ``spans.py``, and the spans are written
  out at the end.

One operation of ``train`` is ``repro.core.run_optinter`` (Alg. 1 search
then Alg. 2 retrain, early stopping off) plus a test-split evaluation;
one operation of ``ingest`` is ``repro.data.ingest_file`` over the raw
CSV into a fresh work directory.  Results go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import functools
import resource
import shutil
import sys
import time
from dataclasses import replace
from pathlib import Path

from common import (CHUNK_ROWS, CROSS_MIN_COUNT, MIN_COUNT, apply_thread_env,
                    dataset_digest, write_json)

apply_thread_env()


def _step_timer(durations: list):
    """Time each training step from outside: the interval between two
    shuffled batches handed to the training loop (one clock read per
    batch, so the untraced run stays untraced)."""
    from repro.data.dataset import CTRDataset

    original = CTRDataset.__dict__["iter_batches"]

    @functools.wraps(original)
    def iter_batches(self, batch_size, shuffle=False, rng=None,
                     drop_last=False):
        inner = original(self, batch_size, shuffle=shuffle, rng=rng,
                         drop_last=drop_last)
        if not shuffle:
            yield from inner
            return
        last = time.perf_counter()
        for batch in inner:
            yield batch
            now = time.perf_counter()
            durations.append(now - last)
            last = now

    CTRDataset.iter_batches = iter_batches


class TrainProgram:
    SEARCH_EPOCHS = 1
    RETRAIN_EPOCHS = 2

    def __init__(self, args) -> None:
        import numpy as np

        from repro.core import run_optinter
        from repro.data.synthetic import criteo_like, make_dataset
        from repro.experiments import default_config
        from repro.training import evaluate_model

        self._run_optinter = run_optinter
        self._evaluate = evaluate_model
        dataset, _truth = make_dataset(criteo_like(n_samples=args.rows,
                                                   seed=args.seed))
        self.train, self.val, self.test = dataset.split(
            (0.7, 0.1, 0.2), rng=np.random.default_rng(args.seed))
        base = default_config("criteo", "quick")
        self.search_config = base.search_config(epochs=self.SEARCH_EPOCHS)
        # patience above the epoch count: early stopping never fires.
        self.retrain_config = replace(base.retrain_config(),
                                      epochs=self.RETRAIN_EPOCHS,
                                      patience=self.RETRAIN_EPOCHS + 1)
        self.steps: list = []
        _step_timer(self.steps)

    def op(self) -> dict:
        first_step = len(self.steps)
        started = time.perf_counter()
        result = self._run_optinter(self.train, self.val,
                                    replace(self.search_config),
                                    replace(self.retrain_config))
        metrics = self._evaluate(result.model, self.test)
        wall = time.perf_counter() - started
        epochs = self.SEARCH_EPOCHS + self.RETRAIN_EPOCHS
        return {"wall_s": wall, "rows": len(self.train) * epochs,
                "val_logloss": float(metrics["log_loss"]),
                "counts": [int(c) for c in result.architecture.counts()],
                "latencies_s": self.steps[first_step:]}


class IngestProgram:
    def __init__(self, args) -> None:
        from repro.data import IngestConfig, ingest_file

        self._ingest = ingest_file
        self._config = IngestConfig
        self.args = args
        self.csv = Path(args.csv)
        self.workdir = Path(args.workdir)
        self.count = 0

    def op(self) -> dict:
        args = self.args
        workdir = self.workdir / f"run-{self.count}"
        self.count += 1
        shutil.rmtree(workdir, ignore_errors=True)
        config = self._config(
            categorical=args.categorical.split(","),
            continuous=args.continuous.split(","),
            min_count=MIN_COUNT, cross_min_count=CROSS_MIN_COUNT,
            chunk_rows=CHUNK_ROWS, on_error="quarantine",
            quarantine_path=workdir / "quarantine.jsonl", workdir=workdir)
        marks = []
        started = time.perf_counter()
        result = self._ingest(self.csv, config, on_chunk=lambda stage, i:
                              marks.append(time.perf_counter()))
        wall = time.perf_counter() - started
        dataset = result.dataset
        quarantine_lines = (workdir / "quarantine.jsonl").read_bytes().count(
            b"\n")
        shutil.rmtree(workdir, ignore_errors=True)
        edges = [started] + marks
        report = result.report
        return {"wall_s": wall, "rows": int(report.rows_ok),
                "quarantined": int(report.rows_quarantined),
                "quarantine_lines": quarantine_lines,
                "io_retries": int(report.retries),
                "digest": dataset_digest(dataset),
                "positive_rate": float(dataset.y.mean()),
                "latencies_s": [b - a for a, b in zip(edges, edges[1:])]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=("train", "ingest"))
    parser.add_argument("--phase", required=True,
                        choices=("setup", "warm", "measure"))
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rows", type=int, default=8000)
    parser.add_argument("--csv", default=None)
    parser.add_argument("--workdir", default=None)
    parser.add_argument("--categorical", default="")
    parser.add_argument("--continuous", default="")
    args = parser.parse_args(argv)

    program = (TrainProgram(args) if args.workload == "train"
               else IngestProgram(args))
    print("ready", flush=True)
    if args.phase == "setup":
        return 0

    def repeat(budget_s: float) -> list:
        ops = []
        deadline = time.perf_counter() + budget_s
        while not ops or time.perf_counter() < deadline:
            ops.append(program.op())
        return ops

    if args.phase == "warm":
        payload = {"ops": [program.op()]}
    elif not args.trace:
        payload = {"ops": repeat(args.seconds)}
    else:
        from spans import SpanRecorder, install

        # Untraced and traced operations alternate, so warm-up and drift
        # within the process fall on both sides of the comparison.
        recorder = SpanRecorder()
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        while len(traced) < 1 or time.perf_counter() < deadline:
            untraced.append(program.op())
            install(recorder)
            try:
                traced.append(program.op())
            finally:
                recorder.unpatch()
        spans_path = Path(args.out).with_suffix(".spans.json")
        recorder.dump(spans_path)
        payload = {"ops": untraced, "traced_ops": traced,
                   "spans": str(spans_path)}
    payload["peak_rss_mb"] = _peak_rss_mb()
    write_json(Path(args.out), payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
