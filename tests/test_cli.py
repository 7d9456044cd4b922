"""CLI behaviour: argument parsing, dispatch, artefact writing."""

import json

import numpy as np
import pytest

import repro.cli as cli_mod
from repro.cli import build_parser, main
from repro.experiments import ExperimentConfig
from repro.io import load_architecture, load_results


@pytest.fixture(autouse=True)
def micro_configs(monkeypatch):
    """Make CLI commands run on tiny data so the tests stay fast."""

    def micro(dataset, scale="quick"):
        return ExperimentConfig(dataset=dataset, n_samples=1500,
                                embed_dim=3, cross_embed_dim=2,
                                hidden_dims=(8,), epochs=1, search_epochs=1,
                                batch_size=256, seed=0)

    monkeypatch.setattr(cli_mod, "default_config", micro)
    import repro.experiments.tables as tables_mod
    import repro.experiments.figures as figures_mod

    monkeypatch.setattr(tables_mod, "default_config", micro)
    monkeypatch.setattr(figures_mod, "default_config", micro)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explode"])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "1"])

    def test_model_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "BERT"])

    def test_scale_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stats", "--scale", "huge"])


class TestCommands:
    def test_stats(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "pos ratio" in out
        assert "criteo" in out

    def test_table2(self, capsys):
        assert main(["table", "2"]) == 0
        assert "#cross value" in capsys.readouterr().out

    def test_table9_with_out(self, capsys, tmp_path):
        out_path = tmp_path / "t9.json"
        assert main(["table", "9", "--datasets", "criteo",
                     "--out", str(out_path)]) == 0
        payload = load_results(out_path)
        assert payload["table"] == "9"
        assert "with_retrain" in payload["rendered"]

    def test_figure5(self, capsys):
        assert main(["figure", "5", "--dataset", "criteo"]) == 0
        assert "mean MI" in capsys.readouterr().out

    def test_train_writes_metrics(self, capsys, tmp_path):
        out_path = tmp_path / "lr.json"
        assert main(["train", "LR", "--out", str(out_path)]) == 0
        payload = load_results(out_path)
        assert payload["model"] == "LR"
        assert 0.0 <= payload["auc"] <= 1.0

    def test_train_optinter_reports_counts(self, capsys):
        assert main(["train", "OptInter"]) == 0
        assert "selection counts" in capsys.readouterr().out

    def test_search_then_retrain_workflow(self, capsys, tmp_path):
        arch_path = tmp_path / "arch.json"
        ckpt_path = tmp_path / "model.npz"
        assert main(["search", "--arch-out", str(arch_path)]) == 0
        arch = load_architecture(arch_path)
        assert sum(arch.counts()) > 0

        assert main(["retrain", "--arch", str(arch_path),
                     "--checkpoint", str(ckpt_path)]) == 0
        assert ckpt_path.exists()
        out = capsys.readouterr().out
        assert "test AUC" in out

    def test_retrain_missing_architecture(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["retrain", "--arch", str(tmp_path / "absent.json")])


class TestObservability:
    def test_search_trace_reconstructs_selection(self, capsys, tmp_path):
        """Acceptance: search_alpha events in the trace decode to the same
        per-pair method selection the CLI reports."""
        from repro.io import load_architecture as load_arch
        from repro.obs import read_trace

        trace = tmp_path / "trace.jsonl"
        arch_path = tmp_path / "arch.json"
        assert main(["search", "--trace", str(trace),
                     "--arch-out", str(arch_path)]) == 0
        assert "trace written" in capsys.readouterr().out
        snapshots = read_trace(trace, "search_alpha")
        assert len(snapshots) >= 1
        arch = load_arch(arch_path)
        assert snapshots[-1].payload["methods"] == [m.value for m in arch]
        assert snapshots[-1].payload["counts"] == arch.counts()

    def test_train_trace_has_epoch_events(self, capsys, tmp_path):
        from repro.obs import read_trace
        from repro.training import History

        trace = tmp_path / "trace.jsonl"
        assert main(["train", "LR", "--trace", str(trace)]) == 0
        epochs = read_trace(trace, "epoch_end")
        assert len(epochs) >= 1
        # The trace doubles as a loadable History.
        history = History.from_jsonl(trace.read_text())
        assert len(history) == len(epochs)

    def test_retrain_trace(self, capsys, tmp_path):
        trace = tmp_path / "retrain.jsonl"
        arch_path = tmp_path / "arch.json"
        assert main(["search", "--arch-out", str(arch_path)]) == 0
        assert main(["retrain", "--arch", str(arch_path),
                     "--trace", str(trace)]) == 0
        from repro.obs import read_trace

        assert len(read_trace(trace, "epoch_end")) >= 1

    def test_profile_prints_op_table(self, capsys):
        assert main(["profile", "--samples", "1200", "--epochs", "1"]) == 0
        out = capsys.readouterr().out
        assert "fwd self (s)" in out      # per-op table header
        assert "matmul" in out
        assert "embedding_lookup" in out
        assert "wall clock" in out
        assert "module" in out            # per-module table

    def test_profile_writes_bench_json(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_obs.json"
        assert main(["profile", "--samples", "1200", "--epochs", "1",
                     "--out", str(out_path)]) == 0
        payload = load_results(out_path)
        assert payload["command"] == "profile"
        assert payload["wall_s"] > 0
        assert payload["ops"]["matmul"]["calls"] > 0
        assert payload["modules"]["OptInterModel"]["calls"] > 0

    def test_profile_leaves_no_hooks_behind(self, capsys):
        from repro.nn.tensor import Tensor

        assert main(["profile", "--samples", "1200", "--epochs", "1"]) == 0
        assert not hasattr(Tensor.__mul__, "_obs_original")


class TestObsCommands:
    @pytest.fixture
    def train_trace(self, capsys, tmp_path):
        """A real training trace with span events, shared per test."""
        trace = tmp_path / "train.jsonl"
        assert main(["train", "LR", "--trace", str(trace)]) == 0
        capsys.readouterr()
        return trace

    def test_obs_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs"])

    def test_summarize_prints_percentile_table(self, capsys, train_trace):
        assert main(["obs", "summarize", str(train_trace)]) == 0
        out = capsys.readouterr().out
        assert "p50 ms" in out and "p99 ms" in out
        assert "train.run" in out
        assert "train.epoch" in out

    def test_summarize_without_spans(self, capsys, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text('{"type": "eval", "payload": {"auc": 0.5}}\n')
        assert main(["obs", "summarize", str(trace)]) == 0
        assert "no span events" in capsys.readouterr().out

    def test_tree_renders_nested_spans(self, capsys, train_trace):
        assert main(["obs", "tree", str(train_trace)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("trace ")
        assert "train.run" in out
        # Epochs are indented under the run span.
        epoch_lines = [l for l in out.splitlines() if "train.epoch" in l]
        assert epoch_lines and all(l.startswith("  ") for l in epoch_lines)

    def test_tree_lists_trace_ids(self, capsys, train_trace):
        assert main(["obs", "tree", str(train_trace), "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1  # one fit() = one trace
        assert "roots: train.run" in lines[0]

    def test_drift_iid_replay_is_stable(self, capsys):
        assert main(["obs", "drift", "--samples", "3000",
                     "--window", "200"]) == 0
        out = capsys.readouterr().out
        assert "verdict: stable" in out

    def test_drift_shift_detected_and_written(self, capsys, tmp_path):
        out_path = tmp_path / "drift.json"
        assert main(["obs", "drift", "--samples", "3000", "--window", "200",
                     "--shift", "--out", str(out_path)]) == 0
        assert "verdict: DRIFT DETECTED" in capsys.readouterr().out
        payload = load_results(out_path)
        assert payload["drifted"] is True
        assert payload["shifted_fields"]
        assert payload["reports"][0]["field_psi"]


class TestOperatorErrorExitCodes:
    """Bad paths exit 2 with a one-line actionable message, no traceback."""

    def test_checkpoint_dir_that_is_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        with pytest.raises(SystemExit) as info:
            main(["train", "LR", "--checkpoint-dir", str(blocker)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # one line, not a traceback
        assert "not a directory" in err

    def test_resume_with_missing_checkpoint_dir(self, tmp_path, capsys):
        missing = tmp_path / "never_created"
        with pytest.raises(SystemExit) as info:
            main(["search", "--checkpoint-dir", str(missing), "--resume"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "does not exist" in err
        assert "without --resume" in err  # tells the operator what to do

    def test_resume_guard_applies_to_retrain(self, tmp_path):
        missing = tmp_path / "gone"
        with pytest.raises(SystemExit) as info:
            main(["retrain", "--arch", "whatever.json",
                  "--checkpoint-dir", str(missing), "--resume"])
        assert info.value.code == 2

    def test_resume_still_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["train", "LR", "--resume"])

    def test_corrupt_weights_exit_code_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"\x00" * 32)
        code = main(["serve", "--model", "LR", "--samples", "1500",
                     "--weights", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "unreadable checkpoint" in err
        assert str(bad) in err

    @pytest.mark.parametrize("flags", [
        ["--replicas", "0"],
        ["--replicas", "2", "--min-healthy", "3"],
        ["--replicas", "1", "--min-healthy", "2"],
        ["--min-healthy", "0"],
    ])
    def test_bad_replica_flags_exit_code_2(self, flags, capsys, monkeypatch):
        """Refused before any dataset is built, in one line."""
        import repro.experiments

        def never(*_args, **_kwargs):
            raise AssertionError("dataset built before the flags were checked")

        monkeypatch.setattr(repro.experiments, "prepare_dataset", never)
        code = main(["serve", "--model", "LR", *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "replicas" in err or "min_healthy" in err


class TestServingParser:
    def test_serve_mode_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--mode", "carrier-pigeon"])

    def test_serve_model_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--model", "BERT"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.mode == "stdio"
        assert args.model == "LR"
        assert args.breaker_threshold == 5

    def test_predict_accepts_io_paths(self):
        args = build_parser().parse_args(
            ["predict", "--input", "in.jsonl", "--out", "out.jsonl"])
        assert args.input == "in.jsonl"
        assert args.out == "out.jsonl"


class TestPredictCommand:
    """``repro predict`` answers a file the way ``repro serve`` would."""

    def _run_predict(self, tmp_path, lines):
        requests = tmp_path / "in.jsonl"
        requests.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out.jsonl"
        assert main(["predict", "--model", "LR", "--samples", "300",
                     "--input", str(requests), "--out", str(out)]) == 0
        return [json.loads(line) for line in out.read_text().splitlines()]

    def test_one_reply_per_line_in_input_order(self, tmp_path):
        replies = self._run_predict(tmp_path, [
            json.dumps({"features": {"field_0": 1}, "request_id": "a"}),
            json.dumps({"op": "ready"}),
            "{not json",
            "",
            json.dumps({"features": {"bogus": 1}, "request_id": "b"}),
            json.dumps({"features": {"field_0": 2}, "request_id": "c"}),
            json.dumps({"op": "shutdown"}),
            json.dumps({"features": {"field_0": 3}, "request_id": "d"}),
        ])
        assert [r.get("request_id") for r in replies] == [
            "a", None, None, "b", "c", None]
        assert replies[0]["status"] == "ok"
        assert replies[1]["ready"] is True
        assert replies[2]["status"] == "invalid"
        assert "unparseable JSON" in replies[2]["error"]["message"]
        assert replies[3]["status"] == "invalid"
        assert replies[4]["status"] == "ok"
        assert replies[5] == {"status": "shutting_down"}


class TestIngestCLI:
    CSV = ("label,I1,C1,C2\n"
           "1,0.5,a,x\n0,1.5,b,y\n1,2.5,a,x\n0,3.5,c,y\n"
           "bad_label,4.5,a,x\n"
           "0,5.5,b,z\n1,6.5,a,y\n")

    def test_parser_on_error_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["ingest", "f.csv", "--categorical", "C1",
                 "--on-error", "explode"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["ingest", "f.csv", "--categorical", "C1", "C2"])
        assert args.on_error == "raise"
        assert args.chunk_rows == 4096
        assert args.resume is False

    def test_missing_file_is_operator_error(self, tmp_path, capsys):
        code = main(["ingest", str(tmp_path / "nope.csv"),
                     "--categorical", "C1"])
        assert code == 2

    def test_bad_row_under_raise_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "log.csv"
        path.write_text(self.CSV)
        code = main(["ingest", str(path), "--categorical", "C1", "C2",
                     "--continuous", "I1"])
        assert code == 1
        assert "label" in capsys.readouterr().err

    def test_quarantine_run_reports_json(self, tmp_path, capsys):
        import json
        path = tmp_path / "log.csv"
        path.write_text(self.CSV)
        qpath = tmp_path / "q.jsonl"
        out = tmp_path / "encoded.npz"
        code = main(["ingest", str(path), "--categorical", "C1", "C2",
                     "--continuous", "I1", "--on-error", "quarantine",
                     "--quarantine", str(qpath), "--out", str(out)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "ok"
        assert report["rows"] == {"read": 7, "ok": 6,
                                  "skipped": 0, "quarantined": 1}
        assert report["dataset"]["rows"] == 6
        records = [json.loads(l) for l in qpath.read_text().splitlines()]
        assert [r["code"] for r in records] == ["label"]
        archive = np.load(out)
        assert archive["x"].shape == (6, 3)

    def test_crash_then_resume_exit_codes(self, tmp_path, capsys):
        import json
        path = tmp_path / "log.csv"
        path.write_text("label,I1,C1\n" + "".join(
            f"{i % 2},{i}.5,c{i % 4}\n" for i in range(40)))
        workdir = tmp_path / "wd"
        base = ["ingest", str(path), "--categorical", "C1",
                "--continuous", "I1", "--chunk-rows", "8",
                "--workdir", str(workdir)]
        code = main(base + ["--crash-at-chunk", "2"])
        assert code == 3
        crashed = json.loads(capsys.readouterr().out)
        assert crashed["status"] == "crashed"
        code = main(base + ["--resume"])
        assert code == 0
        resumed = json.loads(capsys.readouterr().out)
        assert resumed["status"] == "ok"
        assert resumed["resumed"] is True
        assert resumed["chunks"]["resumed"] == 2
        assert resumed["dataset"]["rows"] == 40

    def test_resume_without_workdir_is_operator_error(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(self.CSV)
        assert main(["ingest", str(path), "--categorical", "C1",
                     "--resume"]) == 2
