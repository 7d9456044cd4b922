"""Command-line interface for the OptInter reproduction.

Usage (also available as ``python -m repro``)::

    python -m repro stats                       # Table II statistics
    python -m repro table 5 --scale quick       # regenerate a paper table
    python -m repro figure 6 --dataset avazu    # regenerate a paper figure
    python -m repro train IPNN --dataset criteo # train one zoo model
    python -m repro search --arch-out arch.json # search stage, persist result
    python -m repro retrain --arch arch.json --checkpoint model.npz
    python -m repro profile --out BENCH_obs.json  # per-op autodiff timings
    python -m repro serve --model LR --checkpoint-dir ckpts  # online inference
    python -m repro predict --model LR < requests.jsonl      # batch scoring
    python -m repro obs summarize trace.jsonl   # span latency table
    python -m repro obs tree trace.jsonl        # ASCII span tree
    python -m repro obs drift --shift           # drift-detection demo
    python -m repro ingest raw.csv --categorical C1 C2 --continuous I1 \
        --on-error quarantine --workdir ingest_wd   # hardened ingestion
    python -m repro campaign --workdir camp_wd --optinter-chain \
        --workers 4                                 # supervised campaign
    python -m repro campaign --workdir camp_wd --optinter-chain \
        --workers 4 --resume    # continue after a crash/kill, bit-for-bit

Every subcommand prints the same rows/series the paper reports; ``--out``
persists the structured results as JSON via :mod:`repro.io`.  The
``train`` / ``search`` / ``retrain`` commands accept ``--trace PATH`` to
stream structured events (per-epoch losses, evaluation metrics and — for
``search`` — per-epoch α snapshots) to a JSONL file; see
``docs/observability.md``.  The same three commands accept
``--checkpoint-dir DIR`` to write atomic full-state checkpoints every
epoch and ``--resume`` to continue an interrupted run from the newest
valid one; see ``docs/robustness.md``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .experiments import (
    ALL_MODELS,
    EXTENDED_MODELS,
    EXPERIMENT_IDS,
    generate_report,
    all_dataset_names,
    default_config,
    prepare_dataset,
    run_figure4,
    run_figure5,
    run_figure6,
    run_model,
    run_table2,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
)
from .io import load_architecture, save_architecture, save_checkpoint, save_results

TABLES = {
    "2": run_table2,
    "5": run_table5,
    "6": run_table6,
    "8": run_table8,
    "9": run_table9,
}
FIGURES = {"4": run_figure4, "5": run_figure5, "6": run_figure6}


def _add_scale(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", default="quick",
                        choices=("quick", "paper"),
                        help="experiment scale preset")


def _add_dataset(parser: argparse.ArgumentParser,
                 default: str = "criteo") -> None:
    parser.add_argument("--dataset", default=default,
                        choices=tuple(all_dataset_names()),
                        help="which paper-shaped dataset to use")


def _add_trace(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="stream structured JSONL events "
                             "(epoch_end/eval/search_alpha/...) to PATH")


def _add_resilience(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="write a full-state checkpoint (model + "
                             "optimizer + RNG + history) here after every "
                             "epoch; see docs/robustness.md")
    parser.add_argument("--resume", action="store_true",
                        help="continue from the newest valid checkpoint in "
                             "--checkpoint-dir (falls back past a corrupt "
                             "newest file)")


def _operator_error(message: str) -> SystemExit:
    """One-line operator error on stderr plus the exit-2 signal.

    Exit code 2 marks operator errors (bad paths/flags/specs) as
    distinct from the generic failure exit 1 — scripts wrapping the CLI
    rely on this.  Call sites either ``raise _operator_error(...)``
    (pre-flight checks that abort before any work) or ``return
    _operator_error(...).code`` (command bodies whose callers assert a
    *returned* exit code).
    """
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _check_resume(args) -> None:
    """Fail fast, with actionable one-liners, before any training starts."""
    from pathlib import Path

    if getattr(args, "resume", False) and not args.checkpoint_dir:
        raise _operator_error("--resume requires --checkpoint-dir")
    checkpoint_dir = getattr(args, "checkpoint_dir", None)
    if checkpoint_dir is None:
        return
    path = Path(checkpoint_dir)
    if path.exists() and not path.is_dir():
        raise _operator_error(
            f"--checkpoint-dir {path} exists but is not a directory; point "
            f"it at a directory (it will be created if missing)")
    if getattr(args, "resume", False) and not path.exists():
        raise _operator_error(
            f"--resume requested but checkpoint directory {path} does not "
            f"exist; run once without --resume to create it, or check the "
            f"path")


def _open_bus(args):
    """An EventBus writing to ``--trace``, or None when untraced."""
    from .obs import EventBus

    trace = getattr(args, "trace", None)
    return EventBus.to_jsonl(trace) if trace else None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OptInter (ICDE 2022) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    stats = sub.add_parser("stats", help="dataset statistics (Table II)")
    _add_scale(stats)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("number", choices=sorted(TABLES) + ["3", "4", "7"],
                       help="paper table number")
    _add_scale(table)
    table.add_argument("--datasets", nargs="+", default=None,
                       help="restrict to these datasets")
    table.add_argument("--out", default=None, help="write results JSON here")

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument("number", choices=sorted(FIGURES),
                        help="paper figure number")
    _add_scale(figure)
    _add_dataset(figure)

    train = sub.add_parser("train", help="train one model from the zoo")
    train.add_argument("model", choices=ALL_MODELS + EXTENDED_MODELS)
    _add_scale(train)
    _add_dataset(train)
    _add_trace(train)
    _add_resilience(train)
    train.add_argument("--samples", type=int, default=None,
                       help="synthetic rows to train on (overrides the "
                            "scale preset)")
    train.add_argument("--out", default=None, help="write metrics JSON here")

    search = sub.add_parser("search", help="run the search stage only")
    _add_scale(search)
    _add_dataset(search)
    _add_trace(search)
    _add_resilience(search)
    search.add_argument("--arch-out", default=None,
                        help="write the searched architecture JSON here")

    report = sub.add_parser("report",
                            help="regenerate every table & figure into one "
                                 "markdown report")
    _add_scale(report)
    report.add_argument("--out", default=None,
                        help="write the markdown report here")
    report.add_argument("--experiments", nargs="+", default=None,
                        choices=EXPERIMENT_IDS,
                        help="restrict to these experiments")

    retrain = sub.add_parser("retrain",
                             help="re-train a persisted architecture")
    retrain.add_argument("--arch", required=True,
                         help="architecture JSON from `repro search`")
    _add_scale(retrain)
    _add_dataset(retrain)
    _add_trace(retrain)
    _add_resilience(retrain)
    retrain.add_argument("--checkpoint", default=None,
                         help="write the trained model .npz here")

    profile = sub.add_parser(
        "profile",
        help="train a small model under the autodiff profiler and print "
             "the per-op time table")
    _add_dataset(profile)
    profile.add_argument("--epochs", type=int, default=1,
                         help="search epochs to profile (default 1)")
    profile.add_argument("--samples", type=int, default=4000,
                         help="synthetic rows to train on (default 4000)")
    profile.add_argument("--top", type=int, default=None,
                         help="show only the N most expensive ops")
    profile.add_argument("--out", default=None, metavar="PATH",
                         help="write the profile as JSON (BENCH_obs.json)")
    _add_trace(profile)

    serve = sub.add_parser(
        "serve",
        help="fault-tolerant online inference (JSONL over stdio or TCP)")
    _add_serving_stack(serve)
    serve.add_argument("--mode", default="stdio",
                       choices=("stdio", "socket"),
                       help="transport: stdin/stdout lines or threaded TCP")
    serve.add_argument("--host", default="127.0.0.1",
                       help="socket mode: bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="socket mode: port (0 picks an ephemeral one, "
                            "printed in the ready line)")
    serve.add_argument("--workers", type=int, default=4,
                       help="socket mode: scoring worker threads")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="socket mode: bounded queue depth before "
                            "load shedding")
    serve.add_argument("--max-wait-ms", type=float, default=None,
                       help="socket mode: shed when estimated queue wait "
                            "exceeds this")
    serve.add_argument("--batch-size", type=int, default=1,
                       help="micro-batching: max requests coalesced into one "
                            "scoring call (1 = each request scored alone; "
                            "scores are bit-for-bit identical at any size)")
    serve.add_argument("--batch-wait-ms", type=float, default=0.0,
                       help="micro-batching: how long the first request in a "
                            "forming batch may wait for company (0 only "
                            "coalesces what is already queued)")
    serve.add_argument("--reload-interval", type=float, default=1.0,
                       metavar="SECONDS",
                       help="how often to poll --checkpoint-dir for new "
                            "checkpoints to roll out")
    serve.add_argument("--inject", action="append", default=None,
                       metavar="KIND:VALUE",
                       help="chaos injection: flaky:K (first K scores fail), "
                            "slow:SECONDS (added scoring latency), "
                            "crash:N (hard-exit after N requests); "
                            "repeatable (targets replica 0)")
    serve.add_argument("--replicas", type=int, default=1,
                       help="replica pool size (>1 adds health-checked "
                            "failover and hedged requests; a pool with a "
                            "replica to spare above --min-healthy rolls "
                            "checkpoints out through a canary, any other "
                            "promotes them directly)")
    serve.add_argument("--min-healthy", type=int, default=1,
                       help="quarantine/canary never drop the healthy "
                            "replica count below this floor (1..--replicas)")
    serve.add_argument("--hedge-ms", default=None, metavar="MS|auto",
                       help="hedge a batch with no genuine "
                            "answer to a second replica after this many ms, "
                            "at any --batch-size ('auto' tracks the p99 "
                            "dispatch latency; 0/unset disables hedging)")
    serve.add_argument("--canary-mirror", type=float, default=None,
                       metavar="FRACTION",
                       help="fraction of live traffic shadow-"
                            "scored on the canary replica during rollout "
                            "(default 0.1; 0 promotes new checkpoints "
                            "without a canary, as a pool with no spare "
                            "replica always does)")
    _add_trace(serve)

    predict = sub.add_parser(
        "predict",
        help="batch-score a JSONL file of requests through the same stack")
    _add_serving_stack(predict)
    predict.add_argument("--input", default=None, metavar="PATH",
                         help="JSONL requests file (default: stdin)")
    predict.add_argument("--out", default=None, metavar="PATH",
                         help="write JSONL responses here (default: stdout)")
    _add_trace(predict)

    obs = sub.add_parser(
        "obs",
        help="observability tooling: span traces and drift analysis")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)

    summarize = obs_sub.add_parser(
        "summarize",
        help="per-span-name latency percentiles from a JSONL trace")
    summarize.add_argument("trace_file", help="JSONL trace written by "
                                              "--trace")

    tree = obs_sub.add_parser(
        "tree", help="render one trace's span tree from a JSONL trace")
    tree.add_argument("trace_file", help="JSONL trace written by --trace")
    tree.add_argument("--trace-id", default=None,
                      help="which trace to render (default: the last one "
                           "in the file)")
    tree.add_argument("--list", action="store_true", dest="list_traces",
                      help="list trace ids in the file instead")

    drift = obs_sub.add_parser(
        "drift",
        help="offline drift check: fit a reference on the train split, "
             "replay the test split through the monitor")
    drift.add_argument("--model", default="LR",
                       help="zoo model whose scores feed score-drift "
                            "(default LR)")
    _add_scale(drift)
    _add_dataset(drift)
    drift.add_argument("--samples", type=int, default=None,
                       help="synthetic rows (default: scale preset)")
    drift.add_argument("--window", type=int, default=256,
                       help="served rows per drift evaluation window")
    drift.add_argument("--shift", action="store_true",
                       help="inject covariate shift into the replay "
                            "(remaps ids in half the fields) to "
                            "demonstrate detection")
    drift.add_argument("--out", default=None, metavar="PATH",
                       help="write the per-window reports as JSON")

    ingest = sub.add_parser(
        "ingest",
        help="stream a raw (possibly dirty) CSV/TSV click log into a "
             "preprocessed dataset, with quarantine, retry and resume; "
             "see docs/data_guide.md")
    ingest.add_argument("path", help="the raw log file")
    ingest.add_argument("--categorical", nargs="+", required=True,
                        metavar="COL", help="categorical column names")
    ingest.add_argument("--continuous", nargs="*", default=[],
                        metavar="COL", help="continuous column names")
    ingest.add_argument("--label", default="label",
                        help="label column name (default: label)")
    ingest.add_argument("--delimiter", default=",",
                        help="field delimiter (default ',')")
    ingest.add_argument("--tsv", action="store_true",
                        help="shorthand for --delimiter '\\t'")
    ingest.add_argument("--no-header", action="store_true",
                        help="file has no header row; requires --columns")
    ingest.add_argument("--columns", nargs="+", default=None, metavar="COL",
                        help="declared column layout for headerless files")
    ingest.add_argument("--chunk-rows", type=int, default=4096,
                        help="rows per streamed chunk (default 4096)")
    ingest.add_argument("--on-error", default="raise",
                        choices=("raise", "skip", "quarantine"),
                        help="policy for rows that fail validation")
    ingest.add_argument("--quarantine", default=None, metavar="PATH",
                        help="JSONL sidecar for quarantined rows "
                             "(with --on-error quarantine; defaults into "
                             "--workdir)")
    ingest.add_argument("--strict-schema", action="store_true",
                        help="reject any header mismatch instead of "
                             "reconciling by name")
    ingest.add_argument("--workdir", default=None, metavar="DIR",
                        help="checkpoint chunk progress here so a killed "
                             "run can --resume")
    ingest.add_argument("--resume", action="store_true",
                        help="skip chunks already checkpointed in --workdir")
    ingest.add_argument("--min-count", type=int, default=1,
                        help="vocabulary frequency threshold")
    ingest.add_argument("--num-buckets", type=int, default=10,
                        help="quantile buckets for continuous columns")
    ingest.add_argument("--cross-min-count", type=int, default=1,
                        help="cross-product frequency threshold")
    ingest.add_argument("--no-cross", action="store_true",
                        help="skip the cross-product stage")
    ingest.add_argument("--out", default=None, metavar="PATH",
                        help="write the encoded dataset arrays (.npz) here")
    ingest.add_argument("--crash-at-chunk", type=int, default=None,
                        metavar="N", help="testing aid: inject a crash after "
                                          "N completed chunks")
    _add_trace(ingest)

    campaign = sub.add_parser(
        "campaign",
        help="run a supervised multi-process experiment campaign "
             "(model × dataset × seed, plus search→retrain chains) with "
             "timeouts, retries, a heartbeat watchdog and a resumable "
             "manifest; see docs/robustness.md")
    campaign.add_argument("--workdir", required=True, metavar="DIR",
                          help="campaign state directory (manifest, per-job "
                               "checkpoints, logs, results)")
    campaign.add_argument("--models", nargs="+", default=None,
                          choices=ALL_MODELS + EXTENDED_MODELS,
                          metavar="MODEL",
                          help="zoo models to train (default: the Table V "
                               "baselines)")
    campaign.add_argument("--datasets", nargs="+", default=["criteo"],
                          choices=tuple(all_dataset_names()),
                          metavar="DATASET",
                          help="datasets to cover (default: criteo)")
    campaign.add_argument("--seeds", nargs="+", type=int, default=[0],
                          metavar="SEED", help="seeds to cover (default: 0)")
    _add_scale(campaign)
    campaign.add_argument("--samples", type=int, default=None,
                          help="synthetic rows per job (overrides the scale "
                               "preset; chaos tests shrink jobs this way)")
    campaign.add_argument("--epochs", type=int, default=None,
                          help="training epochs per job (overrides preset)")
    campaign.add_argument("--search-epochs", type=int, default=None,
                          help="search epochs per search job (overrides "
                               "preset)")
    campaign.add_argument("--optinter-chain", action="store_true",
                          help="add a search job plus a dependent retrain "
                               "job per dataset × seed (the two-stage "
                               "OptInter pipeline as a dependency chain)")
    campaign.add_argument("--workers", type=int, default=2,
                          help="max concurrent worker subprocesses")
    campaign.add_argument("--max-retries", type=int, default=2,
                          help="transient-failure retries before a job is "
                               "quarantined as a crash loop")
    campaign.add_argument("--retry-base-delay", type=float, default=0.5,
                          metavar="SECONDS",
                          help="first retry backoff (doubles per retry)")
    campaign.add_argument("--job-timeout", type=float, default=600.0,
                          metavar="SECONDS",
                          help="per-job wall-clock budget before the "
                               "SIGTERM→SIGKILL escalation")
    campaign.add_argument("--heartbeat-timeout", type=float, default=15.0,
                          metavar="SECONDS",
                          help="reap a worker whose heartbeat file is older "
                               "than this")
    campaign.add_argument("--min-free-mb", type=int, default=64,
                          help="defer new launches while free disk is below "
                               "this floor")
    campaign.add_argument("--resume", action="store_true",
                          help="continue an interrupted campaign: skip "
                               "completed jobs (digest-verified), re-queue "
                               "failed/interrupted ones, reap stale workers")
    campaign.add_argument("--inject", action="append", default=None,
                          metavar="JOB_ID=FAULT[:ARG]",
                          help="chaos injection for one job: crash:N, fail, "
                               "hang, slow_heartbeat:N; repeatable (a "
                               "resumed campaign must repeat the same "
                               "flags — injections are fingerprinted)")
    campaign.add_argument("--out", default=None, metavar="PATH",
                          help="write the campaign report JSON here")
    _add_trace(campaign)

    return parser


def _add_serving_stack(parser: argparse.ArgumentParser) -> None:
    """Arguments shared by ``serve`` and ``predict`` (stack construction)."""
    from .serving.server import SERVABLE_MODELS

    parser.add_argument("--model", default="LR", choices=SERVABLE_MODELS,
                        help="zoo model to instantiate (ignored with --arch)")
    _add_scale(parser)
    _add_dataset(parser)
    parser.add_argument("--samples", type=int, default=None,
                        help="synthetic rows; must match the training run "
                             "that produced the weights")
    parser.add_argument("--arch", default=None,
                        help="serve a searched architecture JSON instead of "
                             "a zoo model")
    parser.add_argument("--weights", default=None,
                        help="initial weights .npz from `repro retrain "
                             "--checkpoint`")
    parser.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                        help="load the newest valid training checkpoint and "
                             "roll out new ones as they appear")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="default per-request deadline budget")
    parser.add_argument("--breaker-threshold", type=int, default=5,
                        help="consecutive failures before the circuit "
                             "breaker opens")
    parser.add_argument("--breaker-cooldown", type=float, default=5.0,
                        metavar="SECONDS",
                        help="open-state cooldown before a half-open probe")
    parser.add_argument("--drift-window", type=int, default=None,
                        metavar="N",
                        help="enable drift monitoring: compare every N "
                             "served requests against the train-split "
                             "reference (PSI/KL per field + score drift)")


def _cmd_stats(args) -> int:
    print(run_table2(scale=args.scale).render())
    return 0


def _cmd_table(args) -> int:
    from .experiments import run_table3, run_table4

    datasets = tuple(args.datasets) if args.datasets else None
    if args.number == "3":
        result = run_table3()
    elif args.number == "4":
        result = run_table4(scale=args.scale, datasets=datasets)
    elif args.number == "7":
        dataset = datasets[0] if datasets else "criteo"
        result = run_table7(dataset=dataset, scale=args.scale)
    else:
        runner = TABLES[args.number]
        result = (runner(scale=args.scale) if datasets is None
                  else runner(datasets=datasets, scale=args.scale))
    print(result.render())
    if args.out:
        payload = {"table": args.number, "scale": args.scale,
                   "rendered": result.render()}
        save_results(payload, args.out)
        print(f"results written to {args.out}")
    return 0


def _cmd_figure(args) -> int:
    result = FIGURES[args.number](dataset=args.dataset, scale=args.scale)
    print(result.render())
    return 0


def _cmd_train(args) -> int:
    from dataclasses import replace

    _check_resume(args)
    config = default_config(args.dataset, args.scale)
    if args.samples is not None:
        config = replace(config, n_samples=args.samples)
    bundle = prepare_dataset(config)
    bus = _open_bus(args)
    try:
        row = run_model(args.model, bundle, config, bus=bus,
                        checkpoint_dir=args.checkpoint_dir,
                        resume=args.resume)
    finally:
        if bus is not None:
            bus.close()
            print(f"trace written to {args.trace}")
    print(row.formatted())
    if row.extra and "counts" in row.extra:
        print(f"selection counts [m, f, n]: {row.extra['counts']}")
    if args.out:
        payload = {"model": row.model, "dataset": args.dataset,
                   "auc": row.auc, "log_loss": row.log_loss,
                   "params": row.params}
        if row.extra and "counts" in row.extra:
            payload["counts"] = row.extra["counts"]
        save_results(payload, args.out)
        print(f"results written to {args.out}")
    return 0


def _cmd_search(args) -> int:
    from .core import search_optinter

    _check_resume(args)
    config = default_config(args.dataset, args.scale)
    bundle = prepare_dataset(config)
    bus = _open_bus(args)
    try:
        result = search_optinter(bundle.train, bundle.val,
                                 config.search_config(), bus=bus,
                                 checkpoint_dir=args.checkpoint_dir,
                                 resume=args.resume)
    finally:
        if bus is not None:
            bus.close()
            print(f"trace written to {args.trace}")
    counts = result.architecture.counts()
    print(f"searched architecture [memorize, factorize, naive] = {counts}")
    if result.history.last and result.history.last.val_auc is not None:
        print(f"search-stage val AUC = {result.history.last.val_auc:.4f}")
    if args.arch_out:
        save_architecture(result.architecture, args.arch_out)
        print(f"architecture written to {args.arch_out}")
    return 0


def _cmd_retrain(args) -> int:
    from .core import retrain
    from .training import evaluate_model

    _check_resume(args)
    config = default_config(args.dataset, args.scale)
    bundle = prepare_dataset(config)
    architecture = load_architecture(args.arch)
    bus = _open_bus(args)
    try:
        model, _ = retrain(architecture, bundle.train, bundle.val,
                           config.retrain_config(), bus=bus,
                           checkpoint_dir=args.checkpoint_dir,
                           resume=args.resume)
    finally:
        if bus is not None:
            bus.close()
            print(f"trace written to {args.trace}")
    metrics = evaluate_model(model, bundle.test)
    print(f"re-trained {architecture!r}")
    print(f"test AUC = {metrics['auc']:.4f}, "
          f"log loss = {metrics['log_loss']:.4f}, "
          f"params = {model.num_parameters()}")
    if args.checkpoint:
        save_checkpoint(model, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _cmd_profile(args) -> int:
    """Train a small OptInter search under the profiler; print op costs.

    The search stage exercises every hot path the substrate has —
    embedding gathers, dense matmuls, Gumbel-softmax sampling and the
    full backward sweep — so its per-op table is the benchmark baseline
    (``BENCH_obs.json``) later perf PRs are measured against.
    """
    from .core import search_optinter
    from .experiments import ExperimentConfig
    from .obs import Profiler

    config = ExperimentConfig(dataset=args.dataset, n_samples=args.samples,
                              hidden_dims=(32, 32), search_epochs=args.epochs,
                              seed=0)
    bundle = prepare_dataset(config)
    bus = _open_bus(args)
    try:
        with Profiler(bus=bus) as prof:
            result = search_optinter(bundle.train, bundle.val,
                                     config.search_config())
    finally:
        if bus is not None:
            bus.close()
            print(f"trace written to {args.trace}")
    print(f"profiled search: dataset={args.dataset} samples={args.samples} "
          f"epochs={args.epochs}")
    print(f"searched architecture [memorize, factorize, naive] = "
          f"{result.architecture.counts()}")
    print()
    print(prof.table(top=args.top))
    print()
    print(prof.module_table(top=args.top))
    if args.out:
        payload = {"command": "profile", "dataset": args.dataset,
                   "samples": args.samples, "epochs": args.epochs}
        payload.update(prof.as_dict())
        save_results(payload, args.out)
        print(f"profile written to {args.out}")
    return 0


def _parse_hedge_ms(raw):
    """``--hedge-ms`` accepts a number, 'auto', or nothing."""
    if raw is None or raw == "auto":
        return raw
    try:
        return float(raw)
    except (TypeError, ValueError):
        raise SystemExit(f"--hedge-ms must be a number or 'auto', got {raw!r}")


def _build_stack_from_args(args, bus):
    from .serving.server import build_serving_stack

    return build_serving_stack(
        args.model, args.dataset, args.scale,
        samples=args.samples,
        arch_path=args.arch,
        weights=args.weights,
        checkpoint_dir=args.checkpoint_dir,
        deadline_ms=args.deadline_ms,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        reload_interval_s=getattr(args, "reload_interval", 1.0),
        inject=getattr(args, "inject", None),
        drift_window=getattr(args, "drift_window", None),
        replicas=getattr(args, "replicas", 1),
        min_healthy=getattr(args, "min_healthy", 1),
        hedge_ms=_parse_hedge_ms(getattr(args, "hedge_ms", None)),
        canary_mirror=getattr(args, "canary_mirror", None),
        bus=bus)


def _cmd_serve(args) -> int:
    from .serving.server import serve_socket, serve_stdio

    _check_resume(args)
    bus = _open_bus(args)
    try:
        try:
            stack = _build_stack_from_args(args, bus)
        except ValueError as exc:  # bad --replicas/--min-healthy/--inject
            return _operator_error(str(exc)).code
        for note in stack.notes:
            print(f"# {note}", file=sys.stderr)
        if args.mode == "socket":
            return serve_socket(stack, host=args.host, port=args.port,
                                workers=args.workers,
                                queue_depth=args.queue_depth,
                                max_wait_ms=args.max_wait_ms,
                                batch_size=args.batch_size,
                                batch_wait_ms=args.batch_wait_ms)
        return serve_stdio(stack, batch_size=args.batch_size,
                           batch_wait_ms=args.batch_wait_ms)
    finally:
        if bus is not None:
            bus.close()


def _cmd_predict(args) -> int:
    """Batch scoring: JSONL requests in, JSONL responses out.

    Shares the full serving stack (validation, degradation ladder,
    deadlines) and the protocol handler with ``repro serve`` — a file of
    requests gets exactly the answers the online path would give, one
    per non-blank input line, in input order.  As in ``serve``, lines
    after a ``{"op": "shutdown"}`` go unanswered.
    """
    from .serving.server import encode_responses, handle_request_lines

    _check_resume(args)
    bus = _open_bus(args)
    try:
        stack = _build_stack_from_args(args, bus)
        for note in stack.notes:
            print(f"# {note}", file=sys.stderr)
        source = (open(args.input) if args.input else sys.stdin)
        sink = (open(args.out, "w") if args.out else sys.stdout)
        try:
            for line in source:
                responses, shutdown = handle_request_lines([line],
                                                           stack.service)
                sink.write(encode_responses(responses))
                sink.flush()
                if shutdown:
                    break
        finally:
            if args.input:
                source.close()
            if args.out:
                sink.close()
                print(f"responses written to {args.out}", file=sys.stderr)
    finally:
        if bus is not None:
            bus.close()
    return 0


def _cmd_obs_summarize(args) -> int:
    """Per-span-name latency percentiles from a ``--trace`` JSONL file."""
    from .obs import spans_from_trace, summarize_spans

    spans = spans_from_trace(args.trace_file)
    if not spans:
        print("no span events in trace")
        return 0
    summary = summarize_spans(spans)
    header = (f"{'span':<24} {'count':>6} {'errors':>6} {'p50 ms':>10} "
              f"{'p90 ms':>10} {'p99 ms':>10} {'total s':>9}")
    print(header)
    print("-" * len(header))
    for name, row in summary.items():
        print(f"{name:<24} {row['count']:>6} {row['errors']:>6} "
              f"{row['p50_s'] * 1e3:>10.3f} {row['p90_s'] * 1e3:>10.3f} "
              f"{row['p99_s'] * 1e3:>10.3f} {row['total_s']:>9.3f}")
    return 0


def _cmd_obs_tree(args) -> int:
    """Render (or list) span trees from a ``--trace`` JSONL file."""
    from .obs import render_span_tree, spans_from_trace
    from .obs.tracing import trace_ids

    spans = spans_from_trace(args.trace_file)
    if not spans:
        print("no span events in trace")
        return 0
    if args.list_traces:
        for tid in trace_ids(spans):
            members = [s for s in spans if s.trace_id == tid]
            roots = sorted({s.name for s in members if s.parent_id is None})
            print(f"{tid}  {len(members)} spans"
                  f"  roots: {', '.join(roots) or '?'}")
        return 0
    print(render_span_tree(spans, trace_id=args.trace_id))
    return 0


def _cmd_obs_drift(args) -> int:
    """Offline drift check: train-split reference, test-split replay.

    With ``--shift`` the replayed ids in every other field are folded
    into the first quarter of the vocabulary — a covariate shift the
    monitor must flag; without it the i.i.d. replay should stay quiet.
    """
    import numpy as np

    from .data.dataset import Batch
    from .experiments.runner import _build_plain_model
    from .obs import DriftMonitor

    from dataclasses import replace

    config = default_config(args.dataset, args.scale)
    if args.samples is not None:
        config = replace(config, n_samples=args.samples)
    bundle = prepare_dataset(config)
    rng = np.random.default_rng(config.seed)
    model = _build_plain_model(args.model, bundle.train, config, rng)
    if model.needs_cross:
        print(f"# {args.model} needs cross features; score drift is "
              f"skipped (covariate drift only)", file=sys.stderr)

    def score(x):
        if model.needs_cross:
            return None
        out = []
        for start in range(0, len(x), 1024):
            chunk = x[start:start + 1024]
            out.append(model.predict_proba(
                Batch(x=chunk, x_cross=None, y=np.zeros(len(chunk)))))
        return np.concatenate(out) if out else None

    monitor = DriftMonitor(field_names=bundle.full.schema.field_names,
                           window=args.window)
    monitor.fit_reference(bundle.train.x, scores=score(bundle.train.x),
                          cardinalities=bundle.full.cardinalities)

    x_replay = bundle.test.x.copy()
    shifted = []
    if args.shift:
        cards = bundle.full.cardinalities
        for i in range(0, x_replay.shape[1], 2):
            x_replay[:, i] %= max(cards[i] // 4, 1)
            shifted.append(bundle.full.schema.field_names[i])
        print(f"# injected covariate shift into: {', '.join(shifted)}",
              file=sys.stderr)
    replay_scores = score(x_replay)

    reports = []
    for idx in range(len(x_replay)):
        s = None if replay_scores is None else float(replay_scores[idx])
        report = monitor.observe(x_replay[idx], s)
        if report is not None:
            reports.append(report)

    print(f"replayed {len(x_replay)} test rows → {len(reports)} windows "
          f"of {args.window}")
    for i, report in enumerate(reports):
        worst = report.worst_field()
        worst_psi = report.field_psi.get(worst, 0.0) if worst else 0.0
        score_part = ("-" if report.score_psi is None
                      else f"{report.score_psi:.3f}")
        print(f"window {i}: worst field {worst or '-'} "
              f"psi={worst_psi:.3f}  score psi={score_part}  "
              f"alerts={len(report.alerts)}")
        for alert in report.alerts:
            print(f"  alert: {alert}")
    drifted = any(report.drifted for report in reports)
    print(f"verdict: {'DRIFT DETECTED' if drifted else 'stable'}")
    if args.out:
        save_results({"dataset": args.dataset, "window": args.window,
                      "shift": bool(args.shift),
                      "shifted_fields": shifted,
                      "drifted": drifted,
                      "reports": [r.as_dict() for r in reports]}, args.out)
        print(f"reports written to {args.out}")
    return 0


def _cmd_obs(args) -> int:
    return {"summarize": _cmd_obs_summarize,
            "tree": _cmd_obs_tree,
            "drift": _cmd_obs_drift}[args.obs_command](args)


def _cmd_report(args) -> int:
    report = generate_report(scale=args.scale, experiments=args.experiments)
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(report)
        print(f"report written to {args.out}")
    else:
        print(report)
    return 0


def _cmd_ingest(args) -> int:
    """Stream a raw log into a dataset; print the JSON report on exit.

    Exit codes: 0 success, 1 data error (a bad row under
    ``--on-error raise``), 2 operator error (bad paths/config, schema or
    resume mismatch), 3 injected crash (``--crash-at-chunk``).
    """
    import json

    import numpy as np

    from .data.errors import IngestError, ResumeError, SchemaError
    from .data.ingest import ChunkedIngestor, IngestConfig
    from .obs.metrics import MetricsRegistry
    from .resilience.faults import CrashAtChunk, InjectedCrash

    try:
        config = IngestConfig(
            categorical=args.categorical,
            continuous=args.continuous,
            label=args.label,
            min_count=args.min_count,
            num_buckets=args.num_buckets,
            cross_min_count=args.cross_min_count,
            build_cross=not args.no_cross,
            delimiter="\t" if args.tsv else args.delimiter,
            header=not args.no_header,
            column_names=args.columns,
            chunk_rows=args.chunk_rows,
            on_error=args.on_error,
            quarantine_path=args.quarantine,
            strict_schema=args.strict_schema,
            workdir=args.workdir,
            resume=args.resume,
        )
    except ValueError as exc:
        return _operator_error(str(exc)).code

    bus = _open_bus(args)
    metrics = MetricsRegistry()
    on_chunk = (CrashAtChunk(at_chunk=args.crash_at_chunk)
                if args.crash_at_chunk else None)
    ingestor = ChunkedIngestor(args.path, config, bus=bus, metrics=metrics,
                               on_chunk=on_chunk)

    def report_json(**extra) -> str:
        payload = ingestor.report.as_dict()
        payload.update(extra)
        return json.dumps(payload, indent=2, sort_keys=True)

    try:
        result = ingestor.run()
    except (ResumeError, SchemaError, FileNotFoundError) as exc:
        return _operator_error(str(exc)).code
    except InjectedCrash as exc:
        print(report_json(status="crashed"))
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if bus is not None:
            bus.close()

    dataset = result.dataset
    if args.out:
        arrays = {"x": dataset.x, "y": dataset.y}
        if dataset.x_cross is not None:
            arrays["x_cross"] = dataset.x_cross
        np.savez(args.out, **arrays)
    print(report_json(
        status="ok",
        dataset={"rows": int(dataset.x.shape[0]),
                 "fields": int(dataset.x.shape[1]),
                 "cardinalities": [int(c) for c in dataset.cardinalities],
                 "cross_pairs": (0 if dataset.x_cross is None
                                 else int(dataset.x_cross.shape[1]))}))
    return 0


def _cmd_campaign(args) -> int:
    """Run (or resume) a supervised experiment campaign.

    Exit codes: 0 every job completed, 1 some jobs quarantined (the
    report says which and why), 2 operator error (bad spec/flags, or a
    workdir belonging to a different campaign).
    """
    from .orchestrator import (CampaignResumeError, CampaignSpecError,
                               Supervisor, SupervisorConfig, build_campaign,
                               parse_inject)

    models = args.models if args.models else list(ALL_MODELS)
    try:
        spec = build_campaign(models, args.datasets, seeds=args.seeds,
                              scale=args.scale, n_samples=args.samples,
                              epochs=args.epochs,
                              search_epochs=args.search_epochs,
                              optinter_chain=args.optinter_chain)
        for item in args.inject or ():
            job_id, sep, fault = item.partition("=")
            if not sep:
                raise ValueError(
                    f"--inject wants JOB_ID=FAULT[:ARG], got {item!r}")
            try:
                spec = spec.with_inject(job_id, parse_inject(fault))
            except KeyError:
                raise ValueError(
                    f"--inject targets unknown job {job_id!r}; job ids are "
                    f"{spec.job_ids()}")
    except (CampaignSpecError, ValueError) as exc:
        return _operator_error(str(exc)).code

    config = SupervisorConfig(
        workers=args.workers, max_retries=args.max_retries,
        retry_base_delay=args.retry_base_delay,
        job_timeout_s=args.job_timeout,
        heartbeat_timeout_s=args.heartbeat_timeout,
        min_free_bytes=args.min_free_mb * 1024 * 1024)
    bus = _open_bus(args)
    try:
        supervisor = Supervisor(spec, args.workdir, config, bus=bus)
        try:
            report = supervisor.run(resume=args.resume)
        except CampaignResumeError as exc:
            return _operator_error(str(exc)).code
    finally:
        if bus is not None:
            bus.close()
            print(f"trace written to {args.trace}")

    summary = (f"campaign: {report.completed}/{report.total} completed, "
               f"{report.quarantined} quarantined")
    if report.resumed:
        summary += (f" ({report.skipped_completed} already done, "
                    f"{report.orphans_reaped} stale workers reaped)")
    print(summary)
    for job_id, row in report.jobs.items():
        line = f"  {row['status']:<12} {job_id}  attempts={row['attempts']}"
        if row["reason"]:
            line += f"  reason={row['reason']}"
        print(line)
    if args.out:
        save_results(report.as_dict(), args.out)
        print(f"report written to {args.out}")
    return 0 if report.ok else 1


_COMMANDS = {
    "stats": _cmd_stats,
    "report": _cmd_report,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "train": _cmd_train,
    "search": _cmd_search,
    "retrain": _cmd_retrain,
    "profile": _cmd_profile,
    "serve": _cmd_serve,
    "predict": _cmd_predict,
    "obs": _cmd_obs,
    "ingest": _cmd_ingest,
    "campaign": _cmd_campaign,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Corrupt-artifact errors become a one-line message and exit code 2
    (operator error) instead of a traceback: an unreadable checkpoint
    is something the caller fixes by pointing at a different file, not
    a bug in this process.
    """
    from .resilience.checkpoint import CorruptCheckpointError

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CorruptCheckpointError as exc:
        return _operator_error(
            f"{exc}; re-run against an intact checkpoint (or delete the "
            f"corrupt file and retrain)").code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
