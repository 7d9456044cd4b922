"""Acceptance tests: streamed chunked fit ≡ in-memory fit ≡ the formulas.

The contract (docs/data_guide.md): for any chunk size, with or without
a mid-run kill and resume, the streaming ingest produces the
*identical* fitted pipeline (vocabulary id maps, median fill values,
quantile bucket edges) and the *identical* encoded dataset (x, y,
x_cross, cardinalities, schema) as ``read_csv`` + an in-memory
``CTRPipeline.fit_transform``.  And under k injected corrupt rows, the
quarantine sidecar, the ``ingest.quarantined`` counter and the report
all account for exactly k — no more, no less.

Both fits run through the same sketches (the in-memory fit is the
one-chunk case), so agreeing with each other proves no formula right.
:func:`formula_fit` is a reference written here from the formulas
alone — vocabulary order, median fill, quantile edges, positive ratio
and ``np.unique`` kept cross keys — and every case checks the
in-memory fit against it (in :func:`in_memory_reference`) and the
streamed fit against both (in :func:`assert_bit_identical`).
"""

import json
from collections import Counter

import numpy as np
import pytest

from repro.data import CTRPipeline, IngestConfig, ingest_file, read_csv
from repro.data.errors import ResumeError
from repro.data.ingest import ChunkedIngestor
from repro.obs.events import EventBus, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.resilience import CrashAtChunk, InjectedCrash
from repro.resilience.faults import GARBAGE_LINES, inject_garbage_lines

pytestmark = pytest.mark.invariants

CATEGORICAL = ["C1", "C2", "C3"]
CONTINUOUS = ["I1", "I2"]
HEADER = "label," + ",".join(CONTINUOUS + CATEGORICAL)
PIPELINE_KW = dict(categorical=CATEGORICAL, continuous=CONTINUOUS,
                   min_count=2, num_buckets=5, cross_min_count=2)


def make_rows(n=600, seed=0):
    """Dirty-free but statistically awkward rows: missing continuous
    entries, negative and float values, ties, rare categories."""
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n):
        label = rng.integers(0, 2)
        i1 = rng.choice(["", "-3", "0", "1", "2", "2.5", "7", "40"],
                        p=[.1, .1, .2, .2, .15, .1, .1, .05])
        i2 = str(rng.integers(0, 25))
        c1 = f"a{rng.integers(0, 9)}"
        c2 = f"b{rng.integers(0, 40)}"  # long tail -> min_count bites
        c3 = rng.choice(["x", "y", "z", ""], p=[.4, .3, .2, .1])
        rows.append(f"{label},{i1},{i2},{c1},{c2},{c3}")
    return rows


def write_file(path, rows):
    path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return path


def formula_fit(columns):
    """The fit, from the formulas alone: no repro fitting code."""
    min_count, buckets = PIPELINE_KW["min_count"], PIPELINE_KW["num_buckets"]

    def vocabulary(values):
        counts = Counter(values)
        kept = sorted((v for v, c in counts.items() if c >= min_count),
                      key=lambda v: (-counts[v], repr(v)))
        return {value: i + 1 for i, value in enumerate(kept)}

    ref = {"fills": {}, "edges": {}, "vocabularies": {}, "x": []}
    for name in CONTINUOUS:
        raw = [None if v.strip() == "" else float(v) for v in columns[name]]
        present = [v for v in raw if v is not None]
        fill = float(np.median(present)) if present else 0.0
        values = np.array([fill if v is None else v for v in raw])
        edges = np.quantile(values, np.linspace(0, 1, buckets + 1)[1:-1])
        codes = [int(np.searchsorted(edges, v, side="right"))
                 for v in values]
        ref["fills"][name], ref["edges"][name] = fill, edges
        ref["vocabularies"][name] = vocabulary(codes)
        ref["x"].append([ref["vocabularies"][name].get(c, 0)
                         for c in codes])
    for name in CATEGORICAL:
        ref["vocabularies"][name] = vocabulary(list(columns[name]))
        ref["x"].append([ref["vocabularies"][name].get(v, 0)
                         for v in columns[name]])
    x = np.array(ref["x"], dtype=np.int64).T
    ref["x"] = x
    ref["y"] = np.array([float(v) for v in columns["label"]])
    ref["positive_ratio"] = float(np.clip(ref["y"].mean(), 1e-6, 1 - 1e-6))
    ref["cardinalities"] = [len(ref["vocabularies"][name]) + 1
                            for name in CONTINUOUS + CATEGORICAL]
    ref["kept_keys"], x_cross = [], []
    fields = range(x.shape[1])
    for i, j in [(i, j) for i in fields for j in fields if i < j]:
        keys = x[:, i] * ref["cardinalities"][j] + x[:, j]
        unique, counts = np.unique(keys, return_counts=True)
        kept = unique[counts >= PIPELINE_KW["cross_min_count"]]
        ids = {int(key): pos + 1 for pos, key in enumerate(kept)}
        ref["kept_keys"].append(kept)
        x_cross.append([ids.get(int(key), 0) for key in keys])
    ref["x_cross"] = np.array(x_cross, dtype=np.int64).T
    ref["cross_cardinalities"] = [k.size + 1 for k in ref["kept_keys"]]
    return ref


def assert_matches_formula(pipeline, dataset, ref):
    for key in ("x", "y", "x_cross"):
        assert np.array_equal(getattr(dataset, key), ref[key]), key
    assert dataset.cardinalities == ref["cardinalities"]
    assert dataset.cross_cardinalities == ref["cross_cardinalities"]
    assert dataset.schema.positive_ratio == ref["positive_ratio"]
    for name in CONTINUOUS:
        assert pipeline.fill_values[name] == ref["fills"][name]
        assert np.array_equal(pipeline._bucketizers[name]._edges,
                              ref["edges"][name])
    for name in CONTINUOUS + CATEGORICAL:
        assert (pipeline._vocabularies[name]._value_to_id
                == ref["vocabularies"][name]), name
    for mine, theirs in zip(pipeline._cross._kept_keys, ref["kept_keys"]):
        assert np.array_equal(mine, theirs)


def in_memory_reference(path):
    """The in-memory fit, checked against the formulas; the returned
    pipeline carries the formula fit along as ``formula``."""
    columns = read_csv(path)
    pipeline = CTRPipeline(**PIPELINE_KW)
    dataset = pipeline.fit_transform(columns)
    pipeline.formula = formula_fit(columns)
    assert_matches_formula(pipeline, dataset, pipeline.formula)
    return pipeline, dataset


def assert_bit_identical(result, ref_pipeline, ref_dataset):
    dataset = result.dataset
    assert_matches_formula(result.pipeline, dataset, ref_pipeline.formula)
    assert np.array_equal(dataset.x, ref_dataset.x)
    assert np.array_equal(dataset.y, ref_dataset.y)
    assert np.array_equal(dataset.x_cross, ref_dataset.x_cross)
    assert dataset.cardinalities == ref_dataset.cardinalities
    assert dataset.cross_cardinalities == ref_dataset.cross_cardinalities
    assert dataset.schema.positive_ratio == ref_dataset.schema.positive_ratio
    assert [f.name for f in dataset.schema.fields] == \
        [f.name for f in ref_dataset.schema.fields]
    for name in CONTINUOUS:
        assert (result.pipeline.fill_values[name]
                == ref_pipeline.fill_values[name])
        assert np.array_equal(
            result.pipeline._bucketizers[name]._edges,
            ref_pipeline._bucketizers[name]._edges)
    for name in CONTINUOUS + CATEGORICAL:
        assert (result.pipeline._vocabularies[name]._value_to_id
                == ref_pipeline._vocabularies[name]._value_to_id)


@pytest.mark.parametrize("chunk_rows", [7, 64, 10_000])
def test_streamed_fit_is_bit_identical(tmp_path, chunk_rows):
    path = write_file(tmp_path / "log.csv", make_rows())
    ref_pipeline, ref_dataset = in_memory_reference(path)
    result = ingest_file(path, IngestConfig(chunk_rows=chunk_rows,
                                            **PIPELINE_KW))
    assert_bit_identical(result, ref_pipeline, ref_dataset)


@pytest.mark.parametrize("stage,at_chunk", [("fit", 2), ("fit", 5),
                                            ("encode", 3)])
def test_killed_and_resumed_fit_is_bit_identical(tmp_path, stage, at_chunk):
    path = write_file(tmp_path / "log.csv", make_rows())
    ref_pipeline, ref_dataset = in_memory_reference(path)
    workdir = tmp_path / "wd"
    kw = dict(chunk_rows=64, workdir=workdir, **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=at_chunk,
                                              stage=stage)).run()
    result = ingest_file(path, IngestConfig(resume=True, **kw))
    assert result.report.resumed
    assert result.report.chunks_resumed > 0
    assert_bit_identical(result, ref_pipeline, ref_dataset)


def test_double_kill_then_resume(tmp_path):
    """Two successive crashes at different stages still converge."""
    path = write_file(tmp_path / "log.csv", make_rows(400, seed=3))
    ref_pipeline, ref_dataset = in_memory_reference(path)
    kw = dict(chunk_rows=32, workdir=tmp_path / "wd", **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=4)).run()
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(resume=True, **kw),
                        on_chunk=CrashAtChunk(at_chunk=6)).run()
    result = ingest_file(path, IngestConfig(resume=True, **kw))
    assert_bit_identical(result, ref_pipeline, ref_dataset)


def test_chaos_quarantine_accounting_is_exact(tmp_path):
    """k injected corrupt rows -> exactly k quarantined, dataset equals
    the in-memory fit on the clean subset."""
    clean_rows = make_rows(500, seed=7)
    clean_path = write_file(tmp_path / "clean.csv", clean_rows)
    ref_pipeline, ref_dataset = in_memory_reference(clean_path)

    dirty_path = write_file(tmp_path / "dirty.csv", clean_rows)
    k = 50  # 10% of rows
    positions = {int(p): GARBAGE_LINES[i % len(GARBAGE_LINES)]
                 for i, p in enumerate(
                     np.linspace(1, len(clean_rows), k).astype(int))}
    assert len(positions) == k
    inject_garbage_lines(dirty_path, positions)

    metrics = MetricsRegistry()
    qpath = tmp_path / "quarantine.jsonl"
    result = ingest_file(
        dirty_path,
        IngestConfig(chunk_rows=48, on_error="quarantine",
                     quarantine_path=qpath, **PIPELINE_KW),
        metrics=metrics)

    records = [json.loads(line) for line in qpath.read_text().splitlines()]
    assert len(records) == k
    assert result.report.rows_quarantined == k
    assert metrics.counter("ingest.quarantined").value == k
    assert result.report.rows_read == len(clean_rows) + k
    assert result.report.rows_ok == len(clean_rows)
    assert sum(result.report.errors.values()) == k
    # every record points at a real line of the dirty file
    dirty_lines = dirty_path.read_text(errors="replace").splitlines()
    for record in records:
        assert dirty_lines[record["line"] - 1] is not None
        assert record["code"] in ("parse", "arity", "label", "numeric")
    # and the surviving dataset is the clean one, bit for bit
    assert_bit_identical(result, ref_pipeline, ref_dataset)


def test_chaos_with_kill_and_resume_keeps_accounting_exact(tmp_path):
    """Crash mid-quarantine, resume, and the sidecar still counts k."""
    clean_rows = make_rows(400, seed=11)
    ref_path = write_file(tmp_path / "clean.csv", clean_rows)
    ref_pipeline, ref_dataset = in_memory_reference(ref_path)

    dirty_path = write_file(tmp_path / "dirty.csv", clean_rows)
    k = 40
    positions = {int(p): GARBAGE_LINES[i % len(GARBAGE_LINES)]
                 for i, p in enumerate(
                     np.linspace(1, len(clean_rows), k).astype(int))}
    inject_garbage_lines(dirty_path, positions)

    workdir = tmp_path / "wd"
    kw = dict(chunk_rows=32, on_error="quarantine", workdir=workdir,
              **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(dirty_path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=5)).run()
    metrics = MetricsRegistry()
    result = ingest_file(dirty_path, IngestConfig(resume=True, **kw),
                         metrics=metrics)

    records = (workdir / "quarantine.jsonl").read_text().splitlines()
    assert len(records) == k
    assert result.report.rows_quarantined == k
    assert result.report.rows_ok == len(clean_rows)
    # lines never double-reported across the kill/resume boundary
    lines = [json.loads(r)["line"] for r in records]
    assert len(lines) == len(set(lines))
    assert_bit_identical(result, ref_pipeline, ref_dataset)


def _ingest_events(sink):
    return [e.payload for e in sink.of_type("ingest")]


@pytest.mark.parametrize("stage,at_chunk,resumed_in,chunks_done,ran", [
    ("fit", 2, 1, 2, [1, 2]),
    ("encode", 3, 2, 10, [2]),
])
def test_resume_event_stream_is_pinned(tmp_path, stage, at_chunk,
                                       resumed_in, chunks_done, ran):
    """The resume event names the pass the run resumes in, and only a
    pass that ran in this process reports ``stage_end``."""
    path = write_file(tmp_path / "log.csv", make_rows())
    kw = dict(chunk_rows=64, workdir=tmp_path / "wd", **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=at_chunk,
                                              stage=stage)).run()
    sink = MemorySink()
    result = ingest_file(path, IngestConfig(resume=True, **kw),
                         bus=EventBus([sink]))
    events = _ingest_events(sink)
    assert [e for e in events if e["kind"] == "resume"] == [
        {"kind": "resume", "stage": resumed_in, "chunks_done": chunks_done}]
    ends = [e for e in events if e["kind"] == "stage_end"]
    assert [e["stage"] for e in ends] == ran
    assert ends[-1] == {"kind": "stage_end", "stage": 2, "chunks": 10}
    if 1 in ran:
        assert ends[0] == {"kind": "stage_end", "stage": 1,
                           "rows_ok": result.report.rows_ok}


def test_offset_gauge_tracks_both_passes(tmp_path):
    """``ingest.offset_bytes`` climbs to the file size once per pass."""
    path = write_file(tmp_path / "log.csv", make_rows())
    metrics = MetricsRegistry()
    readings = {"fit": [], "encode": []}

    def on_chunk(stage, index):
        readings[stage].append(metrics.gauge("ingest.offset_bytes").value)

    ChunkedIngestor(path, IngestConfig(chunk_rows=64, **PIPELINE_KW),
                    metrics=metrics, on_chunk=on_chunk).run()
    size = path.stat().st_size
    assert len(readings["fit"]) == 10
    assert readings["fit"] == sorted(set(readings["fit"]))
    assert readings["fit"][0] < size and readings["fit"][-1] == size
    assert readings["encode"] == readings["fit"]


def test_encode_progress_without_finished_fit_fails_before_any_chunk(
        tmp_path):
    """A manifest with encode progress but an unfinished fit pass is
    refused before a single chunk is read, fit or encode."""
    path = write_file(tmp_path / "log.csv", make_rows())
    workdir = tmp_path / "wd"
    kw = dict(chunk_rows=64, workdir=workdir, on_error="quarantine",
              **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=2,
                                              stage="encode")).run()
    manifest_path = workdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["stage1"] = {"chunks": 0, "done": False}
    manifest_path.write_text(json.dumps(manifest))
    quarantine = (workdir / "quarantine.jsonl").read_bytes()
    chunks = []
    with pytest.raises(ResumeError, match="stage-2 progress"):
        ChunkedIngestor(path, IngestConfig(resume=True, **kw),
                        on_chunk=lambda *chunk: chunks.append(chunk)).run()
    assert chunks == []
    assert (workdir / "quarantine.jsonl").read_bytes() == quarantine


def _fit_archives(workdir):
    return sorted(path.name for path in workdir.glob("stage1*.npz"))


def test_fit_checkpoint_bytes_grow_with_the_file(tmp_path, monkeypatch):
    """Each fit archive holds its own chunk's sketch contribution, so the
    fit pass writes about what the encode pass writes, however many
    chunks came before: here a continuous column takes a new value on
    every row, over 40 chunks."""
    from repro.resilience import checkpoint

    rng = np.random.default_rng(4)
    rows = [f"{rng.integers(0, 2)},{i * 0.5},{rng.integers(0, 25)},"
            f"a{rng.integers(0, 9)},b{rng.integers(0, 40)},x"
            for i in range(40 * 32)]
    path = write_file(tmp_path / "log.csv", rows)
    written = Counter()
    write_archive = checkpoint.write_archive

    def counting(target, arrays, meta):
        result = write_archive(target, arrays, meta)
        stage = "fit" if target.name.startswith("stage1") else "encode"
        written[stage] += target.stat().st_size
        return result

    monkeypatch.setattr(checkpoint, "write_archive", counting)
    result = ingest_file(path, IngestConfig(
        chunk_rows=32, workdir=tmp_path / "wd", **PIPELINE_KW))
    assert result.report.chunks == 80
    assert written["fit"] > 0 and written["encode"] > 0
    assert written["fit"] <= 2 * written["encode"], written


def test_version_1_workdir_is_refused_before_any_chunk(tmp_path):
    """A workdir from the single-archive layout (manifest version 1 and
    one ``stage1.npz``) is refused on resume, before a chunk is read,
    with the quarantine file untouched."""
    from repro.resilience import read_archive, write_archive

    path = write_file(tmp_path / "log.csv", make_rows())
    inject_garbage_lines(path, {5: GARBAGE_LINES[0], 9: GARBAGE_LINES[1]})
    workdir = tmp_path / "wd"
    kw = dict(chunk_rows=64, workdir=workdir, on_error="quarantine",
              **PIPELINE_KW)
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=3,
                                              stage="fit")).run()
    arrays, meta = read_archive(workdir / "stage1-000002.npz")
    for name in _fit_archives(workdir):
        (workdir / name).unlink()
    write_archive(workdir / "stage1.npz", arrays, meta)
    manifest_path = workdir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["version"] = 1
    manifest_path.write_text(json.dumps(manifest))
    quarantine = (workdir / "quarantine.jsonl").read_bytes()
    assert quarantine.count(b"\n") == 2
    chunks = []
    with pytest.raises(ResumeError, match="manifest version 1"):
        ChunkedIngestor(path, IngestConfig(resume=True, **kw),
                        on_chunk=lambda *chunk: chunks.append(chunk)).run()
    assert chunks == []
    assert (workdir / "quarantine.jsonl").read_bytes() == quarantine


def test_crash_at_every_fit_chunk_resumes_from_its_archives(tmp_path):
    """A kill after any fit chunk resumes to the uninterrupted bytes, and
    the workdir holds exactly one fit archive per fit chunk the manifest
    counts, before and after the resume."""
    path = write_file(tmp_path / "log.csv", make_rows(300, seed=5))
    inject_garbage_lines(path, {7: GARBAGE_LINES[2], 40: GARBAGE_LINES[0]})
    kw = dict(chunk_rows=32, on_error="quarantine", **PIPELINE_KW)
    reference = ingest_file(path, IngestConfig(
        workdir=tmp_path / "reference", **kw))
    fit_chunks = reference.report.chunks // 2
    assert fit_chunks == 10

    def archives_match_manifest(workdir):
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert manifest["version"] == 2
        assert _fit_archives(workdir) == [
            f"stage1-{index:06d}.npz"
            for index in range(manifest["stage1"]["chunks"])]
        return manifest["stage1"]["chunks"]

    assert archives_match_manifest(tmp_path / "reference") == fit_chunks
    for at_chunk in range(1, fit_chunks + 1):
        workdir = tmp_path / f"wd{at_chunk}"
        with pytest.raises(InjectedCrash):
            ChunkedIngestor(path, IngestConfig(workdir=workdir, **kw),
                            on_chunk=CrashAtChunk(at_chunk=at_chunk,
                                                  stage="fit")).run()
        assert archives_match_manifest(workdir) == at_chunk
        result = ingest_file(path, IngestConfig(workdir=workdir, resume=True,
                                                **kw))
        assert result.report.chunks_resumed == at_chunk
        assert archives_match_manifest(workdir) == fit_chunks
        for key in ("x", "y", "x_cross"):
            assert getattr(result.dataset, key).tobytes() == \
                getattr(reference.dataset, key).tobytes(), (at_chunk, key)
        assert result.report.as_dict() == dict(
            reference.report.as_dict(), resumed=True,
            chunks={"processed": reference.report.chunks - at_chunk,
                    "resumed": at_chunk},
            quarantine_path=str(workdir / "quarantine.jsonl"))
        assert (workdir / "quarantine.jsonl").read_bytes() == \
            (tmp_path / "reference" / "quarantine.jsonl").read_bytes()


def test_fresh_run_into_a_reused_workdir_leaves_only_its_archives(tmp_path):
    """A run without ``resume`` first deletes the archives and manifest a
    longer earlier run left in the workdir, so the archives on disk are
    exactly the ones its own manifest counts, also after a kill and a
    resume."""
    long_path = write_file(tmp_path / "long.csv", make_rows(600, seed=6))
    short_path = write_file(tmp_path / "short.csv", make_rows(200, seed=7))
    workdir = tmp_path / "wd"
    kw = dict(chunk_rows=32, workdir=workdir, **PIPELINE_KW)
    ingest_file(long_path, IngestConfig(**kw))
    (workdir / "stage1.npz").write_bytes(b"version-1 fit archive")
    reference = ingest_file(short_path, IngestConfig(
        chunk_rows=32, workdir=tmp_path / "reference", **PIPELINE_KW))

    def archives_match_manifest():
        manifest = json.loads((workdir / "manifest.json").read_text())
        assert _fit_archives(workdir) == [
            f"stage1-{index:06d}.npz"
            for index in range(manifest["stage1"]["chunks"])]
        assert sorted(path.name for path in workdir.glob("chunk-*.npz")) == [
            f"chunk-{index:06d}.npz"
            for index in range(manifest["stage2"]["chunks"])]

    ingest_file(short_path, IngestConfig(**kw))
    archives_match_manifest()
    ingest_file(long_path, IngestConfig(**kw))
    with pytest.raises(InjectedCrash):
        ChunkedIngestor(short_path, IngestConfig(**kw),
                        on_chunk=CrashAtChunk(at_chunk=2, stage="fit")).run()
    archives_match_manifest()
    result = ingest_file(short_path, IngestConfig(resume=True, **kw))
    assert result.report.chunks_resumed == 2
    archives_match_manifest()
    for key in ("x", "y", "x_cross"):
        assert getattr(result.dataset, key).tobytes() == \
            getattr(reference.dataset, key).tobytes(), key
