"""The three workloads, driven from outside the program.

Each ``run_*`` function generates its inputs from the seed before any
timing, starts the program (a child process), measures it, checks its
outputs and returns a :class:`Outcome`.  End-to-end numbers always come
from untraced processes; with ``trace=True`` the run also measures a
traced process and reports per-layer numbers from its spans.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import loadgen
import spans as span_tools
import train_reference
from common import (BENCH_DIR, CROSS_MIN_COUNT, MIN_COUNT, dataset_digest,
                    logloss, median, percentile, read_ready_line, spawn,
                    stop_process, tail_percentile, vm_hwm_mb)

#: set-up time is the median of this many launches per run.
SETUP_SAMPLES = 5
#: declared latency limits behind ``slo_ok_ratio``, per operation.
LIMIT_MS = {"train": 250.0, "serve-closed": 250.0, "ingest": 500.0}

TRAIN_ROWS = 8000
TINY_TRAIN_ROWS = 2000
INGEST_ROWS = 20000
INGEST_GARBAGE = 100
SERVE_CALLERS = 2
SERVE_BURST = 32
GOLDEN_EVERY = 25
CHILD_SLACK_S = 120.0


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    tiny: bool
    workdir: Path
    program_cpu: Optional[int]

    @property
    def setup_samples(self) -> int:
        return 1 if (self.tiny or self.trace) else SETUP_SAMPLES


def _latency_metrics(workload: str, latencies_ms: Sequence[float]
                     ) -> Dict[str, float]:
    """p50, tail and the share of operations within the limit."""
    values = np.asarray(latencies_ms, dtype=float)
    pct = tail_percentile(len(values))
    within = int(np.sum(values <= LIMIT_MS[workload]))
    return {"p50_ms": percentile(values, 50),
            "tail_ms": percentile(values, pct),
            "slo_ok_ratio": within / max(len(values), 1),
            "tail": f"p{pct:g} of {len(values)}"}


def _layer_summary(spans: List[dict], counts: Dict[str, float],
                   ops: int) -> Dict[str, float]:
    """Per-layer self time per operation (ms) plus the layer counters."""
    totals = span_tools.layer_self_ms(spans)
    per_op = {f"{name}_ms": totals.get(name, 0.0) / max(ops, 1)
              for name in ("data.batch", "nn.forward", "core.embed",
                           "core.combine", "models.mlp", "nn.backward",
                           "nn.optim", "training.eval", "data.sketch",
                           "data.encode", "resilience.archive_write",
                           "serving.validate", "serving.score",
                           "serving.service", "serving.pool_dispatch")}
    per_op["serving.queue_wait_ms"] = (totals.get(span_tools.QUEUE_SPAN, 0.0)
                                       / max(ops, 1))
    optimizer_steps = sum(1 for s in spans if s["name"] == "nn.optim")
    per_op["nn.sparse_rows_per_step"] = (counts.get("nn.sparse_rows", 0.0)
                                         / max(optimizer_steps, 1))
    per_op["nn.grad_bytes_per_step"] = (counts.get("nn.grad_bytes", 0.0)
                                        / max(optimizer_steps, 1))
    per_op["resilience.archive_bytes"] = (
        counts.get("resilience.archive_bytes", 0.0)
        / max(counts.get("resilience.archives", 0.0), 1))
    steps = [(s["end"] - s["start"]) * 1e3 for s in spans
             if s["name"] == span_tools.STEP_SPAN]
    per_op["training.step_ms_p50"] = percentile(steps, 50) if steps else 0.0
    return per_op


def _overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """How much longer the same work takes traced, in percent."""
    return (untraced_rate / traced_rate - 1.0) * 100.0


# ---------------------------------------------------------------------------
# train / ingest: a program child process
# ---------------------------------------------------------------------------
def _program(ctx: Context, workload: str, phase: str, extra: List[str],
             out: Optional[Path], trace: bool = False):
    """Run one program child; returns (set-up seconds, result JSON)."""
    cmd = [sys.executable, str(BENCH_DIR / "program.py"), workload,
           "--phase", phase, "--seconds", repr(ctx.seconds)] + extra
    if out is not None:
        cmd += ["--out", str(out)]
    if trace:
        cmd.append("--trace")
    started = time.perf_counter()
    proc = spawn(cmd, ctx.program_cpu, stdout=subprocess.PIPE, text=True)
    try:
        read_ready_line(proc, timeout=CHILD_SLACK_S)
        setup_s = time.perf_counter() - started
        code = proc.wait(timeout=ctx.seconds + CHILD_SLACK_S)
    finally:
        proc.stdout.close()
        stop_process(proc)
    if code != 0:
        raise RuntimeError(f"{workload} {phase} child exited {code}")
    result = json.loads(out.read_text()) if out is not None else None
    return setup_s, result


def _program_workload(ctx: Context, workload: str, extra: List[str],
                      check: Callable[[dict, dict], bool]):
    """Warm-up (reference), set-up samples, then the measured child."""
    _warm_setup, warm = _program(ctx, workload, "warm", extra,
                                 ctx.workdir / "warm.json")
    setups = [_program(ctx, workload, "setup", extra, None)[0]
              for _ in range(ctx.setup_samples - 1)]
    setup_s, measured = _program(ctx, workload, "measure", extra,
                                 ctx.workdir / "measure.json",
                                 trace=ctx.trace)
    setups.append(setup_s)
    reference = warm["ops"][0]
    ops = measured["ops"] + measured.get("traced_ops", [])
    failed = sum(1 for op in ops if not check(op, reference))
    latencies = [t * 1e3 for op in measured["ops"] for t in op["latencies_s"]]
    e2e = {"setup_s": median(setups),
           "rows_per_s": median([op["rows"] / op["wall_s"]
                                 for op in measured["ops"]]),
           "peak_rss_mb": measured["peak_rss_mb"]}
    e2e.update(_latency_metrics(workload, latencies))
    outcome = Outcome(correct=failed == 0, attempted=len(ops), failed=failed,
                      end_to_end=e2e, notes={"tail": e2e.pop("tail")})
    outcome.notes["ops"] = len(measured["ops"])
    if ctx.trace:
        spans, counts = span_tools.load(Path(measured["spans"]))
        unit = (span_tools.STEP_SPAN if workload == "train" else None)
        op_count = (sum(1 for s in spans if s["name"] == unit) if unit
                    else sum(len(op["latencies_s"])
                             for op in measured["traced_ops"]))
        outcome.layers = _layer_summary(spans, counts, op_count)
        traced_rate = median([op["rows"] / op["wall_s"]
                              for op in measured["traced_ops"]])
        outcome.layers["trace_overhead_pct"] = _overhead_pct(
            e2e["rows_per_s"], traced_rate)
    return outcome, reference, measured


def run_train(ctx: Context) -> Outcome:
    rows = TINY_TRAIN_ROWS if ctx.tiny else TRAIN_ROWS
    seed = train_reference.data_seed(ctx.seed)
    recorded = train_reference.load(rows)[str(seed)]
    extra = ["--seed", str(seed), "--rows", str(rows)]

    def check(op, reference) -> bool:
        # Bit-for-bit the warm-up launch (determinism), and the results
        # recorded for the data seed (what the search and retrain learn).
        return (op["val_logloss"] == reference["val_logloss"]
                and op["counts"] == reference["counts"]
                and train_reference.matches(op, recorded))

    outcome, reference, _ = _program_workload(ctx, "train", extra, check)
    outcome.end_to_end["val_logloss"] = reference["val_logloss"]
    outcome.notes.update({"data_seed": seed,
                          "architecture_counts": reference["counts"],
                          "recorded": recorded})
    return outcome


def _write_raw_csv(ctx: Context, rows: int):
    """A criteo-like raw CSV from the seed, plus a copy with garbage
    lines spliced in; returns (clean path, dirty path, continuous
    columns, categorical columns, garbage line count)."""
    from repro.data.synthetic import criteo_like, generate_raw
    from repro.resilience.faults import GARBAGE_LINES, inject_garbage_lines

    config = criteo_like(n_samples=rows, seed=ctx.seed)
    raw, labels, _truth, _schema = generate_raw(config)
    continuous = [f"I{i + 1}" for i in range(len(config.continuous_fields))]
    categorical = [f"C{i + 1}" for i in
                   range(config.num_fields - len(continuous))]
    lines = ["label," + ",".join(continuous + categorical)]
    for values, label in zip(raw, labels):
        cells = [f"{v:.6g}" if col in config.continuous_fields else f"c{v}"
                 for col, v in enumerate(values)]
        lines.append(f"{int(label)}," + ",".join(cells))
    clean = ctx.workdir / "clean.csv"
    dirty = ctx.workdir / "raw.csv"
    clean.write_text("\n".join(lines) + "\n")
    dirty.write_text(clean.read_text())
    garbage = max(rows // (INGEST_ROWS // INGEST_GARBAGE), 1)
    rng = np.random.default_rng([ctx.seed, 1])
    where = rng.choice(np.arange(1, len(lines)), size=garbage, replace=False)
    injected = inject_garbage_lines(dirty, {
        int(pos): GARBAGE_LINES[k % len(GARBAGE_LINES)]
        for k, pos in enumerate(sorted(where))})
    return clean, dirty, continuous, categorical, injected


def _ingest_reference(clean: Path, continuous, categorical) -> str:
    from repro.data import CTRPipeline, read_csv

    return dataset_digest(CTRPipeline(
        categorical=categorical, continuous=continuous, min_count=MIN_COUNT,
        cross_min_count=CROSS_MIN_COUNT).fit_transform(read_csv(clean)))


def run_ingest(ctx: Context) -> Outcome:
    rows = 3000 if ctx.tiny else INGEST_ROWS
    clean, dirty, continuous, categorical, injected = _write_raw_csv(
        ctx, rows)
    extra = ["--csv", str(dirty), "--workdir", str(ctx.workdir / "ingest"),
             "--categorical", ",".join(categorical),
             "--continuous", ",".join(continuous)]
    expected = _ingest_reference(clean, continuous, categorical)

    def check(op, _reference) -> bool:
        return (op["quarantined"] == injected
                and op["quarantine_lines"] == injected
                and op["rows"] == rows
                and op["digest"] == expected)

    outcome, reference, measured = _program_workload(ctx, "ingest", extra,
                                                     check)
    rate = reference["positive_rate"]
    outcome.end_to_end["val_logloss"] = float(
        -(rate * np.log(rate) + (1 - rate) * np.log(1 - rate)))
    if ctx.trace:
        last = measured["traced_ops"][-1]
        outcome.layers.update({"ingest.rows_ok": last["rows"],
                               "ingest.quarantined": last["quarantined"],
                               "ingest.io_retries": last["io_retries"]})
    outcome.notes["injected_garbage"] = injected
    return outcome


# ---------------------------------------------------------------------------
# serving: `repro serve --mode socket`
# ---------------------------------------------------------------------------
class ServeInputs:
    """Architecture, trained weights, request rows and labels, all from
    the seed.  The served model is the seed's mixed architecture after a
    short Alg. 2 retrain, so ``val_logloss`` reflects a trained model."""

    RETRAIN_EPOCHS = 2

    def __init__(self, ctx: Context) -> None:
        from repro.core.architecture import METHOD_ORDER, Architecture
        from repro.core.retrain import retrain
        from repro.experiments import default_config, prepare_dataset
        from repro.io import save_architecture, save_checkpoint

        config = default_config("criteo", "quick")
        bundle = prepare_dataset(config)
        self.schema = bundle.full.schema
        rng = np.random.default_rng([ctx.seed, 2])
        # Equal shares of memorized, factorized and naive pairs, placed by
        # the seed: every seed serves a model of the same cost.
        pairs = self.schema.num_pairs
        methods = [METHOD_ORDER[i % len(METHOD_ORDER)] for i in range(pairs)]
        architecture = Architecture(
            methods=tuple(methods[i] for i in rng.permutation(pairs)))
        self.arch_path = ctx.workdir / "arch.json"
        save_architecture(architecture, self.arch_path)
        model, _history = retrain(architecture, bundle.train, bundle.val,
                                  config.retrain_config(
                                      epochs=self.RETRAIN_EPOCHS))
        self.weights_path = ctx.workdir / "weights.npz"
        save_checkpoint(model, self.weights_path)
        self.x = bundle.test.x
        self.y = bundle.test.y
        self.order = rng.permutation(len(self.x))
        names = self.schema.field_names
        self._features = [
            json.dumps({n: int(v) for n, v in zip(names, row)}).encode()
            for row in self.x]

    def row(self, seq: int) -> int:
        return int(self.order[seq % len(self.order)])

    def features(self, row: int) -> Dict[str, int]:
        return json.loads(self._features[row])

    def payload(self, seq: int) -> bytes:
        return (b'{"request_id": "%d", "features": ' % seq
                + self._features[self.row(seq)] + b"}\n")


def _server_cmd(inputs: ServeInputs, traced_to: Optional[Path]
                ) -> List[str]:
    """``repro serve`` for serve-closed.  ``traced_to`` (the traced run)
    starts it through ``serve_launcher.py`` with the layer wrappers, and
    turns on the program's own span tracing so ``repro.obs`` is measured
    too; the untraced run keeps tracing off."""
    serve = ["serve", "--mode", "socket", "--arch", str(inputs.arch_path),
             "--weights", str(inputs.weights_path),
             "--replicas", "3", "--batch-size", "32"]
    if traced_to is None:
        return [sys.executable, "-m", "repro"] + serve
    return [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
            str(traced_to.with_suffix(".spans.json"))] + serve + [
        "--trace", str(traced_to.with_suffix(".jsonl"))]


class Server:
    """A running ``repro serve`` process and its set-up time."""

    def __init__(self, ctx: Context, cmd: List[str]) -> None:
        started = time.perf_counter()
        self.proc = spawn(cmd, ctx.program_cpu, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
        try:
            ready = json.loads(read_ready_line(self.proc, CHILD_SLACK_S))
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
            raise
        self.setup_s = time.perf_counter() - started
        self.port = int(ready["port"])

    def shutdown(self) -> None:
        try:
            loadgen.probe(self.port, {"op": "shutdown"})
        except OSError:
            pass
        stop_process(self.proc, timeout=15.0)
        self.proc.stdout.close()


def _launch_samples(ctx: Context, inputs: ServeInputs) -> List[float]:
    """Warm-up launch (untimed), then set-up-only launches."""
    samples = []
    for index in range(ctx.setup_samples):
        server = Server(ctx, _server_cmd(inputs, None))
        server.shutdown()
        if index:
            samples.append(server.setup_s)
    return samples


def _parse_replies(replies: List[loadgen.Replies]) -> Dict[int, tuple]:
    """request seq -> (arrival time, response dict)."""
    return {int(response["request_id"]): (at, response)
            for caller in replies for at, response in caller.parsed()}


def _golden_check(inputs: ServeInputs, answered: Dict[int, tuple]
                  ) -> Dict[str, int]:
    """Served probabilities for the golden rows must equal in-process
    ``PredictionService.predict_batch`` on the same weights, bitwise."""
    from repro.serving.server import build_serving_stack

    golden_rows = [r for r in range(len(inputs.x)) if r % GOLDEN_EVERY == 0]
    stack = build_serving_stack("LR", "criteo", "quick",
                                arch_path=str(inputs.arch_path),
                                weights=str(inputs.weights_path))
    responses = stack.service.predict_batch(
        [inputs.features(r) for r in golden_rows])
    reference = {r: resp.probability for r, resp in zip(golden_rows,
                                                        responses)}
    compared = mismatched = 0
    for seq, (_at, response) in answered.items():
        row = inputs.row(seq)
        if row in reference and response.get("status") == "ok":
            compared += 1
            mismatched += response["probability"] != reference[row]
    return {"compared": compared, "mismatched": mismatched}


def _serving_counts(metrics: dict) -> Dict[str, float]:
    size_sum = size_count = hedges = 0.0
    for key, value in metrics.items():
        if key.endswith("serve.batch_size") and isinstance(value, dict):
            size_sum += value.get("sum", 0.0)
            size_count += value.get("count", 0.0)
        if key.startswith("pool.hedge") and key != "pool.hedges_suppressed":
            hedges += value.get("value", 0.0) if isinstance(value, dict) \
                else 0.0
    return {"serving.batch_size_mean": size_sum / size_count
            if size_count else 1.0, "serving.hedged": hedges}


def _closed_run(ctx: Context, inputs: ServeInputs, seconds: float,
                traced_to: Optional[Path]) -> dict:
    server = Server(ctx, _server_cmd(inputs, traced_to))
    try:
        result = loadgen.closed_loop(server.port, SERVE_CALLERS, SERVE_BURST,
                                     seconds, inputs.payload)
        metrics = loadgen.probe(server.port, {"op": "metrics"})
        rss = vm_hwm_mb(server.proc.pid)
    finally:
        server.shutdown()
    answered = _parse_replies(result.replies)
    ok = [seq for seq, (_at, r) in answered.items() if r.get("status") == "ok"]
    last_reply = max(at for at, _r in answered.values())
    return {"server": server, "result": result, "answered": answered,
            "ok": ok, "rate": len(ok) / (last_reply - result.started),
            "metrics": metrics, "rss": rss}


def _response_layers(answered: Dict[int, tuple], sent_at: Dict[int, float]):
    """Per-layer serving latencies, and which percentile the tails are."""
    service, outside = [], []
    shed = degraded = 0
    for seq, (at, response) in answered.items():
        status = response.get("status")
        shed += status == "shed"
        degraded += status == "degraded"
        if status == "ok":
            client_ms = (at - sent_at[seq]) * 1e3
            service.append(response["latency_ms"])
            outside.append(client_ms - response["latency_ms"])
    out = {"serving.shed": shed, "serving.degraded": degraded}
    pct = tail_percentile(len(service))
    for name, values in (("service", service), ("outside", outside)):
        out[f"serving.{name}_ms_p50"] = percentile(values, 50)
        out[f"serving.{name}_ms_tail"] = percentile(values, pct)
    return out, f"p{pct:g} of {len(service)}"


def _serve_quality(inputs: ServeInputs, answered: Dict[int, tuple]):
    ok = [(inputs.row(seq), r["probability"])
          for seq, (_at, r) in answered.items() if r.get("status") == "ok"]
    rows = [row for row, _p in ok]
    return logloss(inputs.y[rows], [p for _r, p in ok])


def run_serve_closed(ctx: Context) -> Outcome:
    inputs = ServeInputs(ctx)
    setups = _launch_samples(ctx, inputs)
    seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds
    run = _closed_run(ctx, inputs, seconds, None)
    setups.append(run["server"].setup_s)
    result, answered = run["result"], run["answered"]
    sent = len(result.sent_at)
    bursts_ms = [(end - start) * 1e3 for start, end in result.bursts]
    e2e = {"setup_s": median(setups), "rows_per_s": run["rate"],
           "val_logloss": _serve_quality(inputs, answered),
           "peak_rss_mb": run["rss"]}
    e2e.update(_latency_metrics("serve-closed", bursts_ms))
    # Per request, not per burst: a shed or unanswered request is a miss.
    within = sum(1 for s in run["ok"]
                 if (answered[s][0] - result.sent_at[s]) * 1e3
                 <= LIMIT_MS["serve-closed"])
    e2e["slo_ok_ratio"] = within / max(sent, 1)
    golden = _golden_check(inputs, answered)
    outcome = Outcome(correct=golden["compared"] > 0
                      and golden["mismatched"] == 0, attempted=sent,
                      failed=sent - len(run["ok"]) + golden["mismatched"],
                      end_to_end=e2e,
                      notes={"golden": golden, "tail": e2e.pop("tail")})
    if ctx.trace:
        traced_to = ctx.workdir / "traced"
        traced = _closed_run(ctx, inputs, seconds, traced_to)
        t_answered = traced["answered"]
        t_sent = len(traced["result"].sent_at)
        outcome.attempted += t_sent
        outcome.failed += t_sent - len(traced["ok"])
        spans, counts = span_tools.load(traced_to.with_suffix(".spans.json"))
        outcome.layers = _layer_summary(spans, counts, len(t_answered))
        trace = traced_to.with_suffix(".jsonl").read_bytes()
        outcome.layers["obs.spans_per_request"] = (
            trace.count(b'"type": "span"') / max(len(t_answered), 1))
        outcome.layers["obs.trace_bytes_per_request"] = (
            len(trace) / max(len(t_answered), 1))
        layers, outcome.notes["serving_tail"] = _response_layers(
            answered, result.sent_at)
        outcome.layers.update(layers)
        outcome.layers.update(_serving_counts(run["metrics"]))
        outcome.layers["trace_overhead_pct"] = _overhead_pct(
            run["rate"], traced["rate"])
    return outcome


WORKLOADS = {"train": run_train, "serve-closed": run_serve_closed,
             "ingest": run_ingest}
