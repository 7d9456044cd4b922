"""Unit tests for the hardened streaming ingest subsystem."""

import json

import numpy as np
import pytest

from repro.data import (
    ArityError,
    BadLabelError,
    BadNumericError,
    ChunkedIngestor,
    IngestConfig,
    IngestError,
    ResumeError,
    RowParseError,
    SchemaError,
    TruncatedFileError,
    ingest_file,
)
from repro.obs.events import EventBus, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.resilience import (CrashAtChunk, FlakyFile, InjectedCrash,
                              truncate_file)


def write_log(path, rows, header="label,I1,C1"):
    lines = ([header] if header else []) + list(rows)
    path.write_text("\n".join(lines) + "\n")
    return path


CLEAN_ROWS = [
    "1,3,a", "0,5,b", "0,,a", "1,2,c", "0,3,a", "1,7,b",
    "0,1,a", "0,4,c", "1,3,b", "0,6,a",
]


def base_config(**overrides):
    defaults = dict(categorical=["C1"], continuous=["I1"], chunk_rows=4)
    defaults.update(overrides)
    return IngestConfig(**defaults)


class TestConfig:
    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            base_config(on_error="explode")

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, delimiter):
        # Validation splits lines on it exactly as the csv module does.
        with pytest.raises(ValueError, match="delimiter"):
            base_config(delimiter=delimiter)

    def test_headerless_requires_columns(self):
        with pytest.raises(ValueError, match="column_names"):
            base_config(header=False)

    def test_resume_requires_workdir(self):
        with pytest.raises(ValueError, match="workdir"):
            base_config(resume=True)

    def test_quarantine_requires_destination(self):
        with pytest.raises(ValueError, match="quarantine"):
            base_config(on_error="quarantine")

    def test_quarantine_defaults_into_workdir(self, tmp_path):
        config = base_config(on_error="quarantine", workdir=tmp_path / "wd")
        assert str(config.quarantine_path).endswith("quarantine.jsonl")

    def test_overlapping_columns_rejected(self):
        with pytest.raises(ValueError, match="both"):
            IngestConfig(categorical=["I1"], continuous=["I1"])

    def test_fingerprint_tracks_chunking(self):
        assert (base_config(chunk_rows=4).fingerprint()
                != base_config(chunk_rows=8).fingerprint())
        assert (base_config(chunk_rows=4).fingerprint()
                == base_config(chunk_rows=4).fingerprint())


class TestErrorTaxonomy:
    """Each failure mode raises its typed error naming file and line."""

    def run_raise(self, tmp_path, bad_row):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS[:3] + [bad_row])
        return path, lambda: ingest_file(path, base_config())

    def test_arity(self, tmp_path):
        path, run = self.run_raise(tmp_path, "1,2,3,4,5")
        with pytest.raises(ArityError) as excinfo:
            run()
        assert excinfo.value.line_number == 5
        assert str(path) in str(excinfo.value)
        assert excinfo.value.code == "arity"

    def test_bad_label(self, tmp_path):
        _, run = self.run_raise(tmp_path, "2,2,a")
        with pytest.raises(BadLabelError, match="binary"):
            run()

    def test_missing_label(self, tmp_path):
        _, run = self.run_raise(tmp_path, ",2,a")
        with pytest.raises(BadLabelError, match="missing"):
            run()

    def test_bad_numeric(self, tmp_path):
        _, run = self.run_raise(tmp_path, "1,not_a_number,a")
        with pytest.raises(BadNumericError, match="I1"):
            run()

    def test_garbage_bytes(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_bytes(b"label,I1,C1\n1,3,a\n\xff\xfe\x00junk\xff\n")
        with pytest.raises((RowParseError, ArityError)):
            ingest_file(path, base_config())

    def test_typed_errors_are_value_errors(self, tmp_path):
        _, run = self.run_raise(tmp_path, "2,2,a")
        with pytest.raises(ValueError):
            run()


class TestPolicies:
    DIRTY = CLEAN_ROWS + ["2,1,a", "1,xxx,b", "bad"]

    def test_skip_counts_and_drops(self, tmp_path):
        path = write_log(tmp_path / "log.csv", self.DIRTY)
        result = ingest_file(path, base_config(on_error="skip"))
        assert result.report.rows_read == 13
        assert result.report.rows_ok == 10
        assert result.report.rows_skipped == 3
        assert result.report.errors == {"label": 1, "numeric": 1, "arity": 1}
        assert result.dataset.x.shape[0] == 10

    def test_quarantine_sidecar_records(self, tmp_path):
        path = write_log(tmp_path / "log.csv", self.DIRTY)
        qpath = tmp_path / "q.jsonl"
        metrics = MetricsRegistry()
        result = ingest_file(
            path, base_config(on_error="quarantine", quarantine_path=qpath),
            metrics=metrics)
        records = [json.loads(line) for line in
                   qpath.read_text().splitlines()]
        assert len(records) == 3 == result.report.rows_quarantined
        assert metrics.counter("ingest.quarantined").value == 3
        by_code = {r["code"]: r for r in records}
        assert by_code["arity"]["raw"] == "bad"
        assert by_code["numeric"]["line"] == 13
        assert all("reason" in r and "line" in r for r in records)

    def test_all_rows_bad_raises(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["3,1,a", "4,2,b"])
        with pytest.raises(IngestError, match="no valid rows"):
            ingest_file(path, base_config(on_error="skip"))

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("")
        with pytest.raises(IngestError, match="empty"):
            ingest_file(path, base_config())

    def test_blank_lines_invisible(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("label,I1,C1\n1,3,a\n\n0,5,b\n\n")
        result = ingest_file(path, base_config())
        assert result.report.rows_read == 2
        assert result.report.rows_ok == 2


class TestSchemaReconciliation:
    def test_reordered_columns_by_name(self, tmp_path):
        canonical = write_log(tmp_path / "a.csv",
                              ["1,3,a", "0,5,b", "1,2,a"])
        shuffled = write_log(tmp_path / "b.csv",
                             ["3,a,1", "5,b,0", "2,a,1"],
                             header="I1,C1,label")
        r1 = ingest_file(canonical, base_config())
        r2 = ingest_file(shuffled, base_config())
        assert np.array_equal(r1.dataset.x, r2.dataset.x)
        assert np.array_equal(r1.dataset.y, r2.dataset.y)
        assert not r1.report.schema_reordered
        # label-first vs label-last is not a feature reordering
        assert not r2.report.schema_reordered

    def test_feature_reordering_flagged(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["a,3,1", "b,5,0"],
                         header="C1,I1,label")
        config = IngestConfig(categorical=["C1"], continuous=["I1"])
        # config order is I1 then C1; the file carries C1 first
        result = ingest_file(path, config)
        assert result.report.schema_reordered

    def test_extra_column_ignored_lenient(self, tmp_path):
        path = write_log(tmp_path / "log.csv",
                         ["1,3,a,junk", "0,5,b,junk"],
                         header="label,I1,C1,debug")
        result = ingest_file(path, base_config())
        assert result.report.schema_extra == ["debug"]
        assert result.dataset.x.shape == (2, 2)

    def test_missing_feature_column_lenient(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["1,a", "0,b"],
                         header="label,C1")
        result = ingest_file(path, base_config())
        assert result.report.schema_missing == ["I1"]
        # the absent continuous column is all-missing: zero-filled
        assert result.pipeline.fill_values["I1"] == 0.0

    def test_strict_mode_rejects_mismatch(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["1,3,a,junk"],
                         header="label,I1,C1,debug")
        with pytest.raises(SchemaError, match="strict"):
            ingest_file(path, base_config(strict_schema=True))

    def test_missing_label_always_fatal(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["3,a"], header="I1,C1")
        with pytest.raises(SchemaError, match="label"):
            ingest_file(path, base_config())

    def test_duplicate_header_rejected(self, tmp_path):
        path = write_log(tmp_path / "log.csv", ["1,3,4,a"],
                         header="label,I1,I1,C1")
        with pytest.raises(SchemaError, match="duplicate"):
            ingest_file(path, base_config())

    def test_headerless_with_declared_columns(self, tmp_path):
        with_header = write_log(tmp_path / "a.csv", CLEAN_ROWS)
        headerless = tmp_path / "b.csv"
        headerless.write_text("\n".join(CLEAN_ROWS) + "\n")
        r1 = ingest_file(with_header, base_config())
        r2 = ingest_file(headerless, base_config(
            header=False, column_names=["label", "I1", "C1"]))
        assert np.array_equal(r1.dataset.x, r2.dataset.x)
        assert np.array_equal(r1.dataset.y, r2.dataset.y)


class TestTransientIO:
    def test_flaky_reads_retried(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        flaky = FlakyFile(fail_reads=3)
        result = ingest_file(path, base_config(retries=4), opener=flaky,
                             sleep=lambda _: None)
        assert result.report.retries == 3
        assert flaky.injected == 3
        assert result.report.rows_ok == 10

    def test_flaky_opens_retried(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        flaky = FlakyFile(fail_reads=0, fail_opens=2)
        result = ingest_file(path, base_config(retries=3), opener=flaky,
                             sleep=lambda _: None)
        assert result.report.retries == 2
        assert result.report.rows_ok == 10

    def test_budget_exhausted_raises(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        flaky = FlakyFile(fail_reads=100)
        with pytest.raises(OSError):
            ingest_file(path, base_config(retries=2), opener=flaky,
                        sleep=lambda _: None)


class TestTruncation:
    def test_complete_tail_without_newline_salvaged(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("label,I1,C1\n1,3,a\n0,5,b")  # no trailing newline
        result = ingest_file(path, base_config())
        assert result.report.truncated_tail
        assert result.report.rows_ok == 2

    def test_partial_tail_classified_truncated(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        truncate_file(path, 4)  # chop into the final record
        result = ingest_file(path, base_config(on_error="skip"))
        assert result.report.truncated_tail
        assert result.report.errors == {"truncated": 1}
        assert result.report.rows_ok == 9

    def test_strict_tail_rejected(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        truncate_file(path, 4)
        with pytest.raises(TruncatedFileError):
            ingest_file(path, base_config(allow_truncated_tail=False))


class TestObservability:
    def test_events_metrics_and_spans(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS + ["bad"])
        sink = MemorySink()
        bus = EventBus([sink])
        metrics = MetricsRegistry()
        ingest_file(path, base_config(on_error="quarantine",
                                      quarantine_path=tmp_path / "q.jsonl"),
                    bus=bus, metrics=metrics)
        types = [event.type for event in sink.events]
        assert "ingest" in types and "quarantine" in types
        kinds = [e.payload["kind"] for e in sink.events
                 if e.type == "ingest"]
        assert "run_start" in kinds and "run_end" in kinds
        span_names = {e.payload["name"] for e in sink.events
                      if e.type == "span"}
        assert {"ingest.run", "ingest.chunk",
                "ingest.validate"} <= span_names
        assert metrics.counter("ingest.rows").value == 11
        assert metrics.counter("ingest.ok").value == 10
        assert metrics.counter("ingest.quarantined").value == 1
        assert metrics.counter("ingest.errors.arity").value == 1

    def test_quarantine_event_payload(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS[:3] + ["9,1,a"])
        sink = MemorySink()
        ingest_file(path, base_config(on_error="quarantine",
                                      quarantine_path=tmp_path / "q.jsonl"),
                    bus=EventBus([sink]))
        [event] = [e for e in sink.events if e.type == "quarantine"]
        assert event.payload["code"] == "label"
        assert event.payload["line"] == 5
        assert event.payload["raw"] == "9,1,a"


class TestResumeSafety:
    def test_resume_without_manifest_runs_fresh(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        result = ingest_file(path, base_config(workdir=tmp_path / "wd",
                                               resume=True))
        assert not result.report.resumed
        assert result.report.rows_ok == 10

    def test_resume_rejects_changed_file(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        config = base_config(workdir=tmp_path / "wd")
        ingest_file(path, config)
        write_log(path, CLEAN_ROWS + ["1,1,a"])  # file grew
        with pytest.raises(ResumeError, match="changed"):
            ingest_file(path, base_config(workdir=tmp_path / "wd",
                                          resume=True))

    def test_resume_rejects_changed_config(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        ingest_file(path, base_config(workdir=tmp_path / "wd"))
        with pytest.raises(ResumeError, match="configuration"):
            ingest_file(path, base_config(workdir=tmp_path / "wd",
                                          resume=True, chunk_rows=8))

    def test_completed_manifest_resumes_to_same_dataset(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        first = ingest_file(path, base_config(workdir=tmp_path / "wd"))
        again = ingest_file(path, base_config(workdir=tmp_path / "wd",
                                              resume=True))
        assert again.report.resumed
        assert np.array_equal(first.dataset.x, again.dataset.x)
        assert np.array_equal(first.dataset.y, again.dataset.y)


    def test_slash_in_a_continuous_name_resumes(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS,
                         header="label,I/1,C1")
        config = dict(categorical=["C1"], continuous=["I/1"], chunk_rows=4,
                      workdir=tmp_path / "wd")
        with pytest.raises(InjectedCrash):
            ChunkedIngestor(path, IngestConfig(**config),
                            on_chunk=CrashAtChunk(at_chunk=1,
                                                  stage="fit")).run()
        resumed = ingest_file(path, IngestConfig(resume=True, **config))
        fresh = ingest_file(path, IngestConfig(
            categorical=["C1"], continuous=["I/1"], chunk_rows=4))
        assert resumed.report.chunks_resumed > 0
        assert np.array_equal(resumed.dataset.x, fresh.dataset.x)


class TestPipelineReuse:
    def test_streamed_pipeline_transforms_new_data(self, tmp_path):
        path = write_log(tmp_path / "log.csv", CLEAN_ROWS)
        result = ingest_file(path, base_config())
        columns = {"label": ["1", "0"], "I1": ["3", ""],
                   "C1": ["a", "never_seen"]}
        dataset = result.pipeline.transform(columns)
        assert dataset.x.shape == (2, 2)
        assert dataset.x[1, 1] == 0  # unseen categorical folds to OOV
