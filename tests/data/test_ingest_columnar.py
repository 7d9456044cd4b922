"""Column-wise chunk validation ≡ the per-line loop it replaced.

``ChunkedIngestor`` validates a chunk in one column-wise pass that only
*accepts* lines, and sends every other line through ``_parse_fields`` +
``_validate_row``.  :class:`PerLineIngestor` below is the loop it
replaced, kept here as the reference: each line is read, parsed with
the csv module, validated and accounted on its own.  A hypothesis
corpus of dirty logs (garbage bytes, quoting, stray ``\\r`` and NUL,
over-long fields, Unicode-whitespace padding, odd labels and numbers,
blank lines, a truncated tail, drifting headers) must give both the
same bytes for ``x``, ``y``, ``x_cross`` and the quarantine file, the
same report, ``ingest.*`` counters and ``ingest``/``quarantine``
events, and, when the run fails, the same error.
"""

import csv
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.data import ChunkedIngestor, IngestConfig, IngestError
from repro.data.errors import (ArityError, BadLabelError, BadNumericError,
                               RowError, RowParseError, TruncatedFileError,
                               TruncatedRowError)
from repro.data.ingest import ON_ERROR_POLICIES
from repro.obs.events import EventBus, MemorySink
from repro.obs.metrics import MetricsRegistry
from repro.resilience.faults import GARBAGE_LINES

pytestmark = pytest.mark.invariants

CATEGORICAL = ["C1", "C2"]
CONTINUOUS = ["I1", "I2"]

HEADERS = [
    "label,I1,I2,C1,C2",
    "C2,label,I2,I1,C1",  # reordered
    "label,I1,C1,C2",  # continuous column missing
    "label,I1,I2,C1",  # categorical column missing
    "label,I1,I2,C1,C2,extra",
]
# U+001C-U+001F are whitespace to str.strip but not to float().
LABELS = ["0", "1", "0", "1", " 1", "1.0", "-0", "nan", "2", "",
          " 1 ", "\x850",
          "\x1c1", "0\x1f", "\x1d2", "\x1e"]
NUMBERS = ["", "0", "3", "-2.5", "7", "1e3", "1_000", "inf", "-inf", "nan",
           " 4 ", "　2 ", "x", "0x10",
           "\x1c5", "\x1d7\x1e", "\x1finf", "\x1cx", "\x1f"]
CATEGORIES = ["a", "b", "", "c d", " a", " b", "é", '"q"', '"x,y"',
              'a"b', "\x85z"]
CELLS = {"label": LABELS, "I1": NUMBERS, "I2": NUMBERS, "C1": CATEGORIES,
         "C2": CATEGORIES, "extra": CATEGORIES}


class PerLineIngestor(ChunkedIngestor):
    """The ingest before the column-wise pass: every line read is parsed
    with the csv module, validated and accounted on its own.

    The old loop took ``collect_errors`` as an argument; in a run that is
    not resumed, stage 1 is the first pass over the file, so that pass
    collects errors and the second drops them.  Its row rules are kept
    too, as ``_validate_row`` was before it judged cells through the
    helpers the column-wise pass shares.
    """

    passes = 0

    def _validate_row(self, fields, line_number, raw_text):
        where = dict(path=self.path, line_number=line_number, raw=raw_text)
        if len(fields) != self._row_width:
            raise ArityError(f"row has {len(fields)} fields, expected "
                             f"{self._row_width}", **where)
        label_text = fields[self._label_position].strip()
        if label_text == "":
            raise BadLabelError("missing label", **where)
        try:
            label = float(label_text)
        except ValueError:
            raise BadLabelError(f"unparseable label {label_text!r}",
                                **where) from None
        if label not in (0.0, 1.0):
            raise BadLabelError(f"label must be binary 0/1, got {label_text}",
                                **where)
        for name, position in zip(self.config.continuous, self._positions):
            value = "" if position is None else fields[position]
            text = value.strip()
            if text:
                try:
                    parsed = float(text)
                except ValueError:
                    raise BadNumericError(
                        f"non-numeric value {value!r} in continuous "
                        f"column {name!r}", **where) from None
                if np.isinf(parsed):
                    raise BadNumericError(
                        f"non-finite value {value!r} in continuous "
                        f"column {name!r}", **where)

    def _iter_chunks(self, reader, *, start_offset, start_line, start_chunk):
        self.passes += 1
        collect_errors = self.passes == 1
        reader.seek(start_offset)
        line_number = start_line
        chunk_index = start_chunk
        labels, rows, lines_in_chunk = [], [], 0
        file_size = self.path.stat().st_size

        def make_chunk():
            columns = {name: np.array([row[col] for row in rows],
                                      dtype=object)
                       for col, name in enumerate(self.config.field_names)}
            return SimpleNamespace(
                index=chunk_index, lines=[None] * lines_in_chunk,
                end_offset=reader.offset, end_line=line_number,
                validated=(np.array(labels, dtype=np.float64), columns))

        while True:
            raw = reader.readline()
            if not raw:
                break
            line_number += 1
            stripped = raw.rstrip(b"\r\n")
            truncated_tail = (not raw.endswith(b"\n")
                              and reader.offset >= file_size)
            if truncated_tail:
                self.report.truncated_tail = True
                if not self.config.allow_truncated_tail:
                    raise TruncatedFileError(
                        "file ends mid-record (no trailing newline)",
                        path=self.path, line_number=line_number)
                self._emit("truncated_tail", line=line_number)
            if not stripped:
                continue
            lines_in_chunk += 1
            if collect_errors:
                self.report.rows_read += 1
                self._count("ingest.rows")
            try:
                fields = self._parse_fields(raw, line_number)
                self._validate_row(
                    fields, line_number,
                    raw.decode("utf-8", errors="replace").rstrip("\r\n"))
            except RowError as error:
                if truncated_tail and not isinstance(error, RowParseError):
                    error = TruncatedRowError(
                        f"truncated final record: {error.reason}",
                        path=self.path, line_number=line_number,
                        raw=error.raw)
                if collect_errors:
                    self._handle_bad_row(error)
            else:
                labels.append(float(fields[self._label_position].strip()))
                rows.append(["" if position is None else fields[position]
                             for position in self._positions])
                if collect_errors:
                    self.report.rows_ok += 1
                    self._count("ingest.ok")
            if lines_in_chunk >= self.config.chunk_rows:
                yield make_chunk()
                chunk_index += 1
                labels, rows, lines_in_chunk = [], [], 0
        if lines_in_chunk:
            yield make_chunk()

    def _validate_chunk(self, chunk, *, collect_errors):
        return chunk.validated


def build_log(header, lines, ending, tail):
    """Header + lines as file bytes; ``tail`` drops the final newline."""
    data = ending.encode().join([header.encode()] + list(lines))
    return data if tail else data + ending.encode()


@st.composite
def dirty_logs(draw):
    header = draw(st.sampled_from(HEADERS))
    names = header.split(",")
    lines = []
    for _ in range(draw(st.integers(1, 14))):
        cells = [draw(st.sampled_from(CELLS[name])) for name in names]
        kind = draw(st.sampled_from(["row"] * 6 + [
            "garbage", "blank", "cr", "nul", "long", "bytes", "width"]))
        if kind == "garbage":
            lines.append(draw(st.sampled_from(GARBAGE_LINES)))
            continue
        if kind == "blank":  # a final b"\r" is a blank truncated tail
            lines.append(draw(st.sampled_from([b"", b"\r"])))
            continue
        cells = [cell.encode() for cell in cells]
        col = draw(st.integers(0, len(cells) - 1))
        if kind in ("cr", "nul", "long", "bytes"):
            cells[col] += {"cr": b"a\rb", "nul": b"a\x00b",
                           "long": b"z" * (csv.field_size_limit() + 1),
                           "bytes": b"\xe2\x82"}[kind]
        if kind == "width":
            cells.append(b"w")
        lines.append(b",".join(cells))
    return build_log(header, lines, draw(st.sampled_from(["\n", "\r\n"])),
                     draw(st.booleans()))


def run(cls, path, on_error, chunk_rows, allow_truncated_tail):
    """One ingest; everything the two implementations must agree on."""
    quarantine = path.with_name("quarantine.jsonl")
    quarantine.unlink(missing_ok=True)
    config = IngestConfig(
        categorical=CATEGORICAL, continuous=CONTINUOUS, chunk_rows=chunk_rows,
        on_error=on_error, allow_truncated_tail=allow_truncated_tail,
        quarantine_path=quarantine if on_error == "quarantine" else None)
    metrics, sink = MetricsRegistry(), MemorySink()
    ingestor = cls(path, config, metrics=metrics, bus=EventBus([sink]))
    outcome = {}
    try:
        result = ingestor.run()
    except IngestError as error:
        outcome["error"] = (type(error), error.line_number, str(error))
    else:
        dataset = result.dataset
        outcome.update(x=dataset.x.tobytes(), y=dataset.y.tobytes(),
                       x_cross=dataset.x_cross.tobytes())
    # Also when the run fails: the rows read up to the failing line stay
    # accounted, as in the per-line loop.  A counter never incremented
    # and one incremented by 0 both read 0.
    outcome["report"] = ingestor.report.as_dict()
    outcome["counters"] = {name: metric for name, metric
                           in metrics.snapshot().items()
                           if name.startswith("ingest.")
                           and metric.get("value") != 0}
    if quarantine.exists():
        outcome["quarantine"] = quarantine.read_bytes()
    outcome["events"] = [(event.type, event.payload) for event in sink.events
                         if event.type in ("ingest", "quarantine")]
    return outcome


EVERY_KIND = build_log(  # columns C2,label,I2,I1,C1
    HEADERS[1],
    [b"b,1,3,0,a", *GARBAGE_LINES, b"", b'"x,y",1,7,2,"q"', b'"q",0,1,2,a',
     b"a,1,7\r8,2,c", b"a,0,7,2,b\x00c", b"a,1,,,"
     + ("z" * (csv.field_size_limit() + 1)).encode(),
     " b, 1,\u30002 ,1_000,\u00e9".encode(), b"a,1.0,inf,3,b",
     b"a,0,-inf,3,b", b"a,0,3,1e,b", b"a,\x1c1,\x1c5,\x1f,b",
     b"a,0\x1f,\x1finf,3,b", b"a,\x1c2,3,3,b", b"a,1,\x1cx,3,b",
     b"a,1,7,2,b\xe2\x82",
     b"a,1,7,2\xff,b", b"a,nan,3,3,b", b"a,2,3,3,b",
     b"a,,3,3,b", b"a,-0,nan,,", b"b,0,,,a"],
    "\r\n", tail=True)
BLANK_TAIL = build_log(HEADERS[0], [b"1,2,3,a,b", b"x,2,3,a,b", b"\r"], "\n",
                       tail=True)


@pytest.mark.parametrize("chunk_rows", [1, 3, 1024])
@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=dirty_logs(), allow_truncated_tail=st.booleans())
@example(data=EVERY_KIND, allow_truncated_tail=True)
@example(data=EVERY_KIND, allow_truncated_tail=False)
@example(data=BLANK_TAIL, allow_truncated_tail=True)
@example(data=BLANK_TAIL, allow_truncated_tail=False)
def test_columnar_ingest_matches_per_line_loop(on_error, chunk_rows, data,
                                               allow_truncated_tail):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        args = (path, on_error, chunk_rows, allow_truncated_tail)
        reference = run(PerLineIngestor, *args)
        assert run(ChunkedIngestor, *args) == reference


# ---------------------------------------------------------------------------
# Block reads and the float fast path
# ---------------------------------------------------------------------------
def _straddling_lines():
    """A three-byte character at every offset of a 70-byte window, so it
    crosses every edge of 1-, 7- and 64-byte blocks."""
    return [f"1,2,3,{'a' * k}€,b".encode() for k in range(70)]


BLOCK_CASES = [
    # CR-only endings: everything after the header is one line.
    b"label,I1,I2,C1,C2\n1,2,3,a,b\r0,1,2,c,d\r1,3,4,e,f\n0,1,1,a,a\n",
    build_log(HEADERS[0], [b"1,2,3,a,b", b"0,1,2,c,d", b"", b"1,,,e,f"],
              "\r\n", tail=False),
    build_log(HEADERS[0], _straddling_lines(), "\n", tail=False),
    build_log(HEADERS[0], _straddling_lines() + [b"1,2,3,a,b\xe2\x82"], "\n",
              tail=True),
    build_log(HEADERS[0], [b"", b"", b"1,2,3,a,b", b"", b"\r", b"", b"",
                           b"0,1,2,c,d", b"", b""], "\n", tail=False),
    build_log(HEADERS[0], [b"1,2,3,a,b", b"", b"", b"\r"], "\r\n", tail=True),
    build_log(HEADERS[0], [b"1,2,3,a,b", b"0,1,2,c,d"], "\n", tail=True),
    EVERY_KIND,
    BLANK_TAIL,
]


@pytest.mark.parametrize("on_error", ON_ERROR_POLICIES)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=dirty_logs(), allow_truncated_tail=st.booleans())
@example(data=BLOCK_CASES[0], allow_truncated_tail=True)
@example(data=BLOCK_CASES[1], allow_truncated_tail=True)
@example(data=BLOCK_CASES[2], allow_truncated_tail=True)
@example(data=BLOCK_CASES[3], allow_truncated_tail=True)
@example(data=BLOCK_CASES[3], allow_truncated_tail=False)
@example(data=BLOCK_CASES[4], allow_truncated_tail=True)
@example(data=BLOCK_CASES[5], allow_truncated_tail=True)
@example(data=BLOCK_CASES[5], allow_truncated_tail=False)
@example(data=BLOCK_CASES[6], allow_truncated_tail=True)
@example(data=BLOCK_CASES[7], allow_truncated_tail=True)
@example(data=BLOCK_CASES[8], allow_truncated_tail=False)
def test_block_size_does_not_change_the_ingest(on_error, data,
                                               allow_truncated_tail):
    """Lines cut out of 1-, 7- and 64-byte blocks ingest exactly as out
    of the default blocks, chunk boundaries and offsets included."""
    from repro.data import ingest

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        args = (path, on_error, 2, allow_truncated_tail)
        offsets = []

        def ingestor(*a, **kw):
            chunked = ChunkedIngestor(*a, **kw)
            chunked.on_chunk = lambda stage, index: offsets[-1].append(
                (stage, index,
                 chunked.metrics.gauge("ingest.offset_bytes").value))
            return chunked

        outcomes = []
        for block in (ingest._READ_BLOCK, 1, 7, 64):
            offsets.append([])
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ingest, "_READ_BLOCK", block)
                outcomes.append(run(ingestor, *args))
        for outcome, chunk_offsets in zip(outcomes[1:], offsets[1:]):
            assert outcome == outcomes[0]
            assert chunk_offsets == offsets[0]


PADDING = ["", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
           "\x1f", "\x85", "\xa0", "\u2000", "\u3000"]
NUMBER_TEXTS = ["nan", "-nan", "NaN", "inf", "-inf", "+Infinity", "-0",
                "0", "-0.0", "1_000", "1__0", "_1", "1_", "0x10", "1e3",
                "1E-3", ".5", "5.", "+1", "1e400", "-1e-400", "x", ""]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.builds(
    lambda left, core, right: left + core + right,
    st.lists(st.sampled_from(PADDING), max_size=3).map("".join),
    st.one_of(st.sampled_from(NUMBER_TEXTS), st.floats().map(repr),
              st.integers().map(str), st.text(max_size=6)),
    st.lists(st.sampled_from(PADDING), max_size=3).map("".join)),
    max_size=12))
def test_float_parses_every_cell_it_accepts_as_cell_float(texts):
    """Where ``float(t)`` succeeds it equals ``_cell_float(t)`` bit for
    bit, NaN included, so a continuous column every cell of which
    ``float`` accepts parses in one map."""
    import struct

    from repro.data.ingest import _cell_float, _parse_column

    for text in texts:
        try:
            value = float(text)
        except ValueError:
            continue
        assert struct.pack("<d", value) == \
            struct.pack("<d", _cell_float(text)), text
    reference = np.fromiter(map(_cell_float, texts), dtype=np.float64,
                            count=len(texts))
    assert _parse_column(np.array(texts, dtype=object),
                         len(texts)).tobytes() == reference.tobytes()


def test_blank_cells_keep_a_column_on_the_one_float_map(monkeypatch):
    """A blank (missing) cell is read as NaN in the one ``float`` map,
    without sending its column to the per-cell fallback."""
    from repro.data import ingest

    monkeypatch.setattr(ingest, "_cell_float", None)
    column = ingest._parse_column(
        np.array(["1", "", " 2.5", "nan", ""], dtype=object), 5)
    assert column[[0, 2]].tolist() == [1.0, 2.5]
    assert np.isnan(column[[1, 3, 4]]).all()


@pytest.mark.parametrize("where", ["first block", "mid file"])
@pytest.mark.parametrize("fail_reads", [1, 3])
def test_flaky_block_reads_count_every_retry(tmp_path, where, fail_reads):
    """``FlakyFile(fail_reads=k)`` costs exactly ``k`` retries whether the
    failures hit the first block read (no header line) or a block read
    in the middle of the file, and the output is the clean run's."""
    from repro.data import ingest, ingest_file
    from repro.resilience.faults import FlakyFile

    path = tmp_path / "log.csv"
    lines = [f"{i % 2},{i},{i % 7},c{i % 5},d{i % 3}".encode()
             for i in range(300)]
    headerless = where == "first block"
    path.write_bytes(build_log(HEADERS[0], lines, "\n", tail=False)
                     .split(b"\n", 1)[1] if headerless
                     else build_log(HEADERS[0], lines, "\n", tail=False))
    kw = dict(categorical=CATEGORICAL, continuous=CONTINUOUS, chunk_rows=64,
              retries=fail_reads, retry_base_delay=0.0, header=not headerless,
              column_names=HEADERS[0].split(",") if headerless else None)
    clean = ingest_file(path, IngestConfig(**kw)).dataset
    flaky = FlakyFile(fail_reads=fail_reads if headerless else 0)

    def arm(stage, index):
        if not headerless and (stage, index) == ("fit", 1):
            flaky.fail_reads = fail_reads

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_READ_BLOCK", 256)
        result = ingest_file(path, IngestConfig(**kw), opener=flaky,
                             sleep=lambda delay: None, on_chunk=arm)
    assert flaky.injected == fail_reads
    assert result.report.retries == fail_reads
    for key in ("x", "y", "x_cross"):
        assert getattr(result.dataset, key).tobytes() == \
            getattr(clean, key).tobytes()
