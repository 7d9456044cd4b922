"""Tests of the benchmark itself (not part of the program's test suite).

Run from the repository root::

    python -m pytest perfbench/tests -q

The tiny-mode runs start real child processes and servers, so the whole
file takes a couple of minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import loadgen  # noqa: E402
import spans as span_tools  # noqa: E402
import train_reference  # noqa: E402
from workloads import TINY_TRAIN_ROWS, TRAIN_ROWS  # noqa: E402

WORKLOADS = ("train", "serve-closed", "ingest")
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, tiny: bool = True):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "2", "--trace", str(trace)]
    if tiny:
        cmd.append("--tiny")
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_mode_emits_every_declared_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == metric["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] != 0, metric["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("train", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_recorded_train_reference_covers_every_seed_and_rejects_drift():
    for rows in (TRAIN_ROWS, TINY_TRAIN_ROWS):
        table = train_reference.load(rows)
        assert set(table) == {str(s) for s in range(train_reference.SEEDS)}
    assert train_reference.data_seed(train_reference.SEEDS + 3) == 3
    recorded = train_reference.load(TINY_TRAIN_ROWS)["3"]
    assert train_reference.matches(dict(recorded), recorded)
    all_naive = [0] * (len(recorded["counts"]) - 1) + [sum(recorded["counts"])]
    assert not train_reference.matches({**recorded, "counts": all_naive},
                                       recorded)
    assert not train_reference.matches(
        {**recorded, "val_logloss": recorded["val_logloss"] * 1.001},
        recorded)


def test_traced_self_times_fit_inside_each_step():
    from repro.core import run_optinter
    from repro.data.synthetic import criteo_like, make_dataset
    from repro.experiments import default_config

    dataset, _ = make_dataset(criteo_like(n_samples=1500, seed=4))
    train, val, _test = dataset.split((0.7, 0.1, 0.2),
                                      rng=np.random.default_rng(4))
    config = default_config("criteo", "quick")
    recorder = span_tools.install(span_tools.SpanRecorder())
    try:
        run_optinter(train, val, config.search_config(epochs=1),
                     config.retrain_config(epochs=1, patience=2))
    finally:
        recorder.unpatch()
    spans = [s.as_dict() for s in recorder.spans]
    steps = span_tools.step_breakdown(spans)
    assert len(steps) > 5
    for wall_ms, self_ms in steps:
        assert self_ms <= wall_ms + 1e-6
    names = {s["name"] for s in spans}
    assert {"training.step", "nn.forward", "nn.backward", "nn.optim",
            "core.combine", "core.embed", "models.mlp"} <= names
    assert recorder.counts["nn.sparse_rows"] > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"name": "p", "start": 0.0, "end": 10.0, "span_id": 1,
         "parent_id": None, "trace_id": 1},
        {"name": "a", "start": 1.0, "end": 4.0, "span_id": 2,
         "parent_id": 1, "trace_id": 1},
        {"name": "b", "start": 3.0, "end": 6.0, "span_id": 3,
         "parent_id": 1, "trace_id": 1},
    ]
    own = span_tools.self_times(spans)
    assert own == {1: 5.0, 2: 3.0, 3: 3.0}


def test_replies_split_across_reads_parse_per_connection():
    replies = loadgen.Replies()
    assert replies.feed(1.0, b'{"request_id": "1"}\n{"request_id"') == 1
    assert replies.feed(2.0, b': "2"}\n') == 1
    assert replies.parsed() == [(1.0, {"request_id": "1"}),
                                (2.0, {"request_id": "2"})]
