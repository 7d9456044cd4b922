"""Hardened streaming ingestion: dirty logs → :class:`CTRDataset`.

Production click logs arrive with ragged rows, garbage bytes, truncated
tails and drifting column layouts.  This module is the defended path
from such a file to a fully preprocessed dataset, built around four
guarantees:

1. **Typed per-row validation** — every bad row is classified by the
   :mod:`repro.data.errors` taxonomy (parse failure, arity mismatch,
   bad label, non-numeric continuous field) and handled per the
   ``on_error`` policy: ``raise`` (fail fast), ``skip`` (drop and
   count), or ``quarantine`` (drop, count, and append a JSONL record
   with the raw line, reason and 1-based line number to a sidecar).
   A chunk is validated column by column: one pass accepts the lines
   that plainly split into valid rows, and only the rest are parsed
   and classified line by line.
2. **Transient-IO resilience** — reads retry with exponential backoff
   through a pluggable ``opener`` (the fault zoo's ``FlakyFile``
   injects failures there), and a file that ends mid-record is
   *detected*: the partial tail is salvaged when it validates, taxed as
   ``truncated`` when it does not, or rejected outright with
   ``allow_truncated_tail=False``.
3. **Header-based schema reconciliation** — with a header row, columns
   are indexed by *name*: reordered files just work, extra columns are
   ignored (lenient) or rejected (``strict_schema``), missing feature
   columns are filled as missing (lenient) or rejected; a missing label
   column is always fatal.
4. **Resumable, bit-for-bit chunked fitting** — the pipeline statistics
   are accumulated with the exact sketches of
   :mod:`repro.data.sketches`; with a workdir, each chunk's own sketch
   contribution is checkpointed as it completes, in the
   checksummed-archive pattern of :mod:`repro.resilience.checkpoint`,
   and an ingest killed mid-run resumes by merging the saved chunks
   back in order and skipping them.
   The fit is :class:`CTRPipeline`'s own — an in-memory
   :meth:`CTRPipeline.fit` is its one-chunk case — so the finalised
   vocabularies, bucket boundaries and encoded dataset are **bit-for-bit
   identical** to :meth:`CTRPipeline.fit_transform` on the same clean
   rows at any chunk size (``tests/data/test_ingest_differential.py``
   checks both against a formula reference).

The run is observable end to end: ``ingest.*`` counters/gauges on the
injected :class:`~repro.obs.metrics.MetricsRegistry`,
``ingest.run → ingest.chunk → ingest.validate`` spans on the tracer,
and typed ``ingest`` / ``quarantine`` events on the bus.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import re
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import repeat
from pathlib import Path
from typing import (Any, Callable, Dict, IO, Iterator, List, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..backoff import retry_with_backoff
from ..fsutil import atomic_write_text
from .dataset import CTRDataset
from .errors import (ArityError, BadLabelError, BadNumericError, IngestError,
                     ResumeError, RowError, RowParseError, SchemaError,
                     TruncatedFileError, TruncatedRowError)
from .loaders import Columns, CTRPipeline, FieldSketches
from .sketches import CategoricalSketch, LabelSketch, NumericSketch

PathLike = Union[str, Path]

#: Manifest format version; resume refuses manifests it cannot read.
#: Version 2 keeps one fit archive per chunk (``stage1-NNNNNN.npz``).
MANIFEST_VERSION = 2

_MANIFEST_NAME = "manifest.json"
_STAGE1_TEMPLATE = "stage1-{index:06d}.npz"
_CHUNK_TEMPLATE = "chunk-{index:06d}.npz"

#: Bytes per read of the chunk reader.  Small blocks keep the read-ahead
#: (and peak memory) small; lines are cut out of them in one split.
_READ_BLOCK = 64 * 1024

ON_ERROR_POLICIES = ("raise", "skip", "quarantine")

#: What a line must not hold for ``str.split`` to equal the csv parse:
#: a quote, a carriage return, NUL, or an undecodable byte (which the
#: ``surrogateescape`` decode turns into a lone surrogate).
_NEEDS_CSV = re.compile('["\r\x00\udc80-\udcff]')


def _default_opener(path: str) -> IO[bytes]:
    return open(path, "rb")


# A label or continuous cell is valid exactly when these two accept it,
# on the column-wise pass and in ``_validate_row`` alike.  They parse
# the ``str.strip``-ped text: ``float()`` alone keeps U+001C-U+001F.
def _binary_label(text: str) -> float:
    """A label cell as 0.0 or 1.0; NaN for any other cell."""
    try:
        value = float(text.strip())
    except ValueError:
        return math.nan
    return value if value in (0.0, 1.0) else math.nan


def _cell_float(text: str) -> float:
    """A continuous cell as a float: NaN when blank or ``nan``, inf when
    it is not a number (an infinite value is invalid too)."""
    text = text.strip()
    try:
        return float(text) if text else math.nan
    except ValueError:
        return math.inf


#: A blank continuous cell is missing; ``float`` reads it as ``nan``.
_BLANK_AS_NAN = {"": "nan"}


def _parse_column(cells: Sequence[str], n: int) -> np.ndarray:
    """``n`` continuous cells through :func:`_cell_float`, in one
    ``float`` map when every cell parses: a text ``float`` accepts is a
    number with only whitespace around it, which ``_cell_float`` parses
    to the same value once stripped, and a blank cell is read as
    ``nan``, as ``_cell_float`` reads it."""
    try:
        return np.fromiter(map(float, map(_BLANK_AS_NAN.get, cells, cells)),
                           dtype=np.float64, count=n)
    except ValueError:
        return np.fromiter(map(_cell_float, cells), dtype=np.float64,
                           count=n)


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# Configuration and report
# ---------------------------------------------------------------------------
@dataclass
class IngestConfig:
    """Everything that determines an ingest run's output.

    The preprocessing parameters mirror :class:`CTRPipeline`; the rest
    controls chunking, error policy and resume.  ``chunk_rows`` is part
    of the resume fingerprint — checkpoints are only comparable between
    runs that chunk identically.
    """

    categorical: Sequence[str]
    continuous: Sequence[str] = ()
    label: str = "label"
    min_count: int = 1
    num_buckets: int = 10
    cross_min_count: int = 1
    build_cross: bool = True
    dataset_name: str = "ingested"

    delimiter: str = ","
    header: bool = True
    column_names: Optional[Sequence[str]] = None
    chunk_rows: int = 4096

    on_error: str = "raise"
    quarantine_path: Optional[PathLike] = None
    strict_schema: bool = False
    allow_truncated_tail: bool = True

    retries: int = 4
    retry_base_delay: float = 0.01

    workdir: Optional[PathLike] = None
    resume: bool = False

    def __post_init__(self) -> None:
        self.pipeline()  # the pipeline's own column checks
        if self.on_error not in ON_ERROR_POLICIES:
            raise ValueError(f"on_error must be one of {ON_ERROR_POLICIES}, "
                             f"got {self.on_error!r}")
        if self.chunk_rows < 1:
            raise ValueError(f"chunk_rows must be >= 1, got {self.chunk_rows}")
        if len(self.delimiter) != 1:
            raise ValueError(f"delimiter must be one character, got "
                             f"{self.delimiter!r}")
        if not self.header and self.column_names is None:
            raise ValueError("headerless input requires column_names")
        if self.resume and self.workdir is None:
            raise ValueError("resume=True requires a workdir")
        if self.on_error == "quarantine" and self.quarantine_path is None:
            if self.workdir is not None:
                self.quarantine_path = Path(self.workdir) / "quarantine.jsonl"
            else:
                raise ValueError("on_error='quarantine' requires a "
                                 "quarantine_path (or a workdir to default "
                                 "into)")

    @property
    def field_names(self) -> List[str]:
        """Dataset field order: continuous then categorical (pipeline rule)."""
        return list(self.continuous) + list(self.categorical)

    def pipeline(self) -> CTRPipeline:
        """The unfitted pipeline this run fits, chunk by chunk."""
        return CTRPipeline(
            categorical=self.categorical, continuous=self.continuous,
            label=self.label, min_count=self.min_count,
            num_buckets=self.num_buckets,
            cross_min_count=self.cross_min_count,
            build_cross=self.build_cross, dataset_name=self.dataset_name)

    def fingerprint(self) -> str:
        """Hash of every output-determining knob, for resume safety."""
        payload = {
            "categorical": list(self.categorical),
            "continuous": list(self.continuous),
            "label": self.label,
            "min_count": self.min_count,
            "num_buckets": self.num_buckets,
            "cross_min_count": self.cross_min_count,
            "build_cross": self.build_cross,
            "dataset_name": self.dataset_name,
            "delimiter": self.delimiter,
            "header": self.header,
            "column_names": (list(self.column_names)
                             if self.column_names else None),
            "chunk_rows": self.chunk_rows,
            "on_error": self.on_error,
            "strict_schema": self.strict_schema,
            "allow_truncated_tail": self.allow_truncated_tail,
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()


@dataclass
class IngestReport:
    """Whole-run accounting, aggregated across resumed partial runs."""

    rows_read: int = 0
    rows_ok: int = 0
    rows_skipped: int = 0
    rows_quarantined: int = 0
    errors: Dict[str, int] = dataclass_field(default_factory=dict)
    chunks: int = 0
    chunks_resumed: int = 0
    retries: int = 0
    resumed: bool = False
    truncated_tail: bool = False
    schema_missing: List[str] = dataclass_field(default_factory=list)
    schema_extra: List[str] = dataclass_field(default_factory=list)
    schema_reordered: bool = False
    quarantine_path: Optional[str] = None

    def record_error(self, code: str) -> None:
        self.errors[code] = self.errors.get(code, 0) + 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rows": {"read": self.rows_read, "ok": self.rows_ok,
                     "skipped": self.rows_skipped,
                     "quarantined": self.rows_quarantined},
            "errors": dict(sorted(self.errors.items())),
            "chunks": {"processed": self.chunks,
                       "resumed": self.chunks_resumed},
            "retries": self.retries,
            "resumed": self.resumed,
            "truncated_tail": self.truncated_tail,
            "schema": {"missing": self.schema_missing,
                       "extra": self.schema_extra,
                       "reordered": self.schema_reordered},
            "quarantine_path": self.quarantine_path,
        }


@dataclass
class IngestResult:
    """The dataset, the fitted pipeline (reusable on val/test files),
    and the run's accounting."""

    dataset: CTRDataset
    pipeline: CTRPipeline
    report: IngestReport


# ---------------------------------------------------------------------------
# Resilient line reading
# ---------------------------------------------------------------------------
class _ResilientLineReader:
    """Byte-offset-addressed reader with transient-IO retry.

    ``read(size)`` returns the next block of raw bytes (the chunk reader
    reads ``_READ_BLOCK`` at a time and cuts lines out of the blocks
    itself); ``readline`` returns one line, for the header.  Every read
    survives up to ``retries`` ``OSError``s by reopening through
    ``opener`` and seeking back to ``offset``, the byte after the last
    successful read, with exponential backoff — the streaming analogue
    of the serving layer's checkpoint-read retry.  A failed read returns
    nothing, so no byte is skipped or read twice.
    """

    def __init__(self, path: Path, opener: Callable[[str], IO[bytes]],
                 *, retries: int, base_delay: float,
                 sleep: Callable[[float], None],
                 on_retry: Optional[Callable[[int, BaseException], None]]
                 = None) -> None:
        self._path = path
        self._opener = opener
        self._retry = functools.partial(
            retry_with_backoff, retries=retries, base_delay=base_delay,
            max_delay=2.0, jitter=0.0, sleep=sleep, on_retry=on_retry)
        self._handle: Optional[IO[bytes]] = None
        self.offset = 0

    def seek(self, offset: int) -> None:
        self.offset = offset
        if self._handle is not None:
            try:
                self._handle.seek(offset)
            except OSError:
                self._drop_handle()

    def _drop_handle(self) -> None:
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def _read_once(self, size: Optional[int]) -> bytes:
        try:
            if self._handle is None:
                self._handle = self._opener(str(self._path))
                self._handle.seek(self.offset)
            data = (self._handle.readline() if size is None
                    else self._handle.read(size))
        except OSError:
            self._drop_handle()
            raise
        self.offset += len(data)
        return data

    def _read(self, size: Optional[int]) -> bytes:
        try:
            return self._read_once(size)
        except OSError as exc:
            failed = [exc]

        def again() -> bytes:
            # Replays the failure already seen, so the schedule sleeps
            # its first delay before the next read.
            if failed:
                raise failed.pop()
            return self._read_once(size)

        return self._retry(again)

    def read(self, size: int) -> bytes:
        """Up to ``size`` raw bytes; ``b""`` at EOF."""
        return self._read(size)

    def readline(self) -> bytes:
        """Next raw line (with terminator); ``b""`` at EOF."""
        return self._read(None)

    def close(self) -> None:
        self._drop_handle()


def _read_lines(reader: _ResilientLineReader) -> Iterator[bytes]:
    """``reader``'s lines from its offset to EOF, each with its ``\\n``
    as ``readline`` returns it, cut out of ``_READ_BLOCK``-byte reads."""
    head: List[bytes] = []  # the blocks of a line not ended yet
    while True:
        block = reader.read(_READ_BLOCK)
        if not block:
            break
        head.append(block)
        if b"\n" in block:
            lines = b"".join(head).split(b"\n")
            head = [lines.pop()]
            for line in lines:
                yield line + b"\n"
    rest = b"".join(head)
    if rest:
        yield rest


# ---------------------------------------------------------------------------
# Raw chunk container
# ---------------------------------------------------------------------------
@dataclass
class _Chunk:
    """Up to ``chunk_rows`` raw non-blank lines, before validation."""

    index: int
    lines: List[bytes]  # with their terminators, as read
    numbers: List[int]  # 1-based line numbers
    tail: Optional[int]  # line number of a truncated final record
    end_offset: int
    end_line: int


# ---------------------------------------------------------------------------
# The ingestor
# ---------------------------------------------------------------------------
class ChunkedIngestor:
    """Drives one streaming ingest run; see the module docstring.

    Parameters beyond ``path``/``config`` are observability and testing
    hooks: ``bus``/``metrics``/``tracer`` wire the run into the PR-1/5
    stack, ``opener``/``sleep`` let the fault zoo inject transient IO
    errors without real waiting, and ``on_chunk(stage, index)`` fires
    after each chunk's checkpoint lands — the seam ``CrashAtChunk``
    uses to simulate mid-run kills *between* durable states.
    """

    def __init__(self, path: PathLike, config: IngestConfig, *,
                 bus=None, metrics=None, tracer=None,
                 opener: Callable[[str], IO[bytes]] = _default_opener,
                 sleep: Callable[[float], None] = time.sleep,
                 on_chunk: Optional[Callable[[str, int], None]] = None
                 ) -> None:
        from ..obs.metrics import MetricsRegistry
        from ..obs.tracing import Tracer

        self.path = Path(path)
        self.config = config
        self.bus = bus
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(bus=bus)
        self.opener = opener
        self.sleep = sleep
        self.on_chunk = on_chunk
        self.report = IngestReport()
        if config.quarantine_path is not None:
            self.report.quarantine_path = str(config.quarantine_path)

        self._positions: Optional[List[Optional[int]]] = None
        self._label_position: Optional[int] = None
        self._row_width: Optional[int] = None
        self._data_offset = 0  # byte offset of the first data line
        self._quarantine_handle: Optional[IO[str]] = None
        self._quarantine_lines = 0

    # -- small helpers ---------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        self.metrics.counter(name).inc(amount)

    def _emit(self, kind: str, **payload: Any) -> None:
        if self.bus is not None:
            self.bus.emit("ingest", kind=kind, **payload)

    @property
    def workdir(self) -> Optional[Path]:
        return Path(self.config.workdir) if self.config.workdir else None

    def _manifest_path(self) -> Path:
        return self.workdir / _MANIFEST_NAME

    # -- quarantine ------------------------------------------------------
    def _open_quarantine(self, append: bool) -> None:
        if self.config.on_error != "quarantine":
            return
        path = Path(self.config.quarantine_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._quarantine_handle = path.open("a" if append else "w",
                                            encoding="utf-8")

    def _truncate_quarantine(self, keep_lines: int) -> None:
        """Drop quarantine lines written by an uncheckpointed chunk."""
        if self.config.on_error != "quarantine":
            return
        path = Path(self.config.quarantine_path)
        if not path.exists():
            self._quarantine_lines = 0
            return
        with path.open(encoding="utf-8") as handle:
            lines = handle.readlines()
        if len(lines) > keep_lines:
            atomic_write_text(path, "".join(lines[:keep_lines]))
        self._quarantine_lines = min(len(lines), keep_lines)

    def _quarantine_row(self, error: RowError) -> None:
        record = {"line": error.line_number, "code": error.code,
                  "reason": error.reason, "raw": error.raw}
        self._quarantine_handle.write(json.dumps(record) + "\n")
        self._quarantine_lines += 1
        self.report.rows_quarantined += 1
        self._count("ingest.quarantined")
        if self.bus is not None:
            raw = error.raw or ""
            self.bus.emit("quarantine", line=error.line_number,
                          code=error.code, reason=error.reason,
                          raw=raw[:200])

    def _flush_quarantine(self) -> None:
        if self._quarantine_handle is not None:
            self._quarantine_handle.flush()
            os.fsync(self._quarantine_handle.fileno())

    # -- row-level validation --------------------------------------------
    def _handle_bad_row(self, error: RowError) -> None:
        """Apply the on_error policy to one classified bad row."""
        self.report.record_error(error.code)
        self._count(f"ingest.errors.{error.code}")
        if self.config.on_error == "raise":
            raise error
        if self.config.on_error == "skip":
            self.report.rows_skipped += 1
            self._count("ingest.skipped")
        else:
            self._quarantine_row(error)

    def _parse_fields(self, raw: bytes, line_number: int) -> List[str]:
        """Bytes → list of fields; typed errors for garbage."""
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RowParseError(
                f"undecodable bytes: {exc.reason}", path=self.path,
                line_number=line_number,
                raw=raw.decode("utf-8", errors="replace").rstrip("\r\n"))
        text = text.rstrip("\r\n")
        try:
            parsed = list(csv.reader([text],
                                     delimiter=self.config.delimiter))
        except csv.Error as exc:
            raise RowParseError(str(exc), path=self.path,
                                line_number=line_number, raw=text)
        if len(parsed) != 1:
            raise RowParseError("line does not parse to a single record",
                                path=self.path, line_number=line_number,
                                raw=text)
        return parsed[0]

    def _validate_row(self, fields: List[str], line_number: int,
                      raw_text: str) -> None:
        """Classified validation of one parsed row (see errors module).

        Its label and continuous cells are judged by ``_binary_label``
        and ``_cell_float``, as on the column-wise pass; this only names
        the reason a rejected row fails.
        """
        if len(fields) != self._row_width:
            raise ArityError(
                f"row has {len(fields)} fields, expected {self._row_width}",
                path=self.path, line_number=line_number, raw=raw_text)
        label_text = fields[self._label_position].strip()
        if math.isnan(_binary_label(label_text)):
            reason = ("missing label" if not label_text
                      else f"label must be binary 0/1, got {label_text}"
                      if _is_float(label_text)
                      else f"unparseable label {label_text!r}")
            raise BadLabelError(reason, path=self.path,
                                line_number=line_number, raw=raw_text)
        for name, position in zip(self.config.continuous, self._positions):
            value = "" if position is None else fields[position]
            if math.isinf(_cell_float(value)):
                kind = ("non-finite" if _is_float(value.strip())
                        else "non-numeric")
                raise BadNumericError(
                    f"{kind} value {value!r} in continuous column {name!r}",
                    path=self.path, line_number=line_number, raw=raw_text)

    def _check_line(self, raw: bytes, line_number: int, *,
                    truncated: bool, collect_errors: bool
                    ) -> Optional[List[str]]:
        """One line through :meth:`_parse_fields` + :meth:`_validate_row`:
        its fields when valid, else ``None`` once the ``on_error`` policy
        has handled it (bad rows are dropped silently without
        ``collect_errors``)."""
        try:
            fields = self._parse_fields(raw, line_number)
            self._validate_row(
                fields, line_number,
                raw.decode("utf-8", errors="replace").rstrip("\r\n"))
            return fields
        except RowError as error:
            if truncated and not isinstance(error, RowParseError):
                # A partial tail that fails validation is reported as
                # truncation, not as an ordinary dirty row.
                error = TruncatedRowError(
                    f"truncated final record: {error.reason}",
                    path=self.path, line_number=line_number, raw=error.raw)
            if collect_errors:
                self._handle_bad_row(error)
            return None

    def _truncated_tail(self, line_number: int) -> None:
        """Record that the file ends mid-record; fatal unless allowed."""
        self.report.truncated_tail = True
        if not self.config.allow_truncated_tail:
            raise TruncatedFileError(
                "file ends mid-record (no trailing newline)",
                path=self.path, line_number=line_number)
        self._emit("truncated_tail", line=line_number)

    def _split_columns(self, cells: Sequence[Sequence[str]], n: int
                       ) -> Tuple[np.ndarray, Columns, np.ndarray]:
        """``n`` rows of the header's width, given as the cells of each
        file column, → ``(labels, columns, ok)``.

        Categorical columns are object arrays of the raw cells and
        continuous ones float64 with NaN for a blank or ``nan`` cell.
        ``ok`` is False on a row whose label is not 0/1 or whose
        continuous cell is not a finite number.
        """
        label_cells = cells[self._label_position]
        label_of = {text: _binary_label(text) for text in set(label_cells)}
        labels = np.fromiter(map(label_of.__getitem__, label_cells),
                             dtype=np.float64, count=n)
        ok = ~np.isnan(labels)
        n_continuous = len(self.config.continuous)
        columns: Columns = {}
        for index, (name, position) in enumerate(
                zip(self.config.field_names, self._positions)):
            if index >= n_continuous:
                columns[name] = (np.full(n, "", dtype=object)
                                 if position is None
                                 else np.array(cells[position], dtype=object))
            elif position is None:
                columns[name] = np.full(n, np.nan)
            else:
                columns[name] = _parse_column(cells[position], n)
                ok &= ~np.isinf(columns[name])
        return labels, columns, ok

    def _validate_chunk(self, chunk: _Chunk, *, collect_errors: bool
                        ) -> Tuple[np.ndarray, Columns]:
        """The chunk's valid rows as ``(labels, columns)``, in line order.

        A column-wise pass accepts every line that splits on the
        delimiter into a valid row and needs no csv quoting rules: the
        chunk is decoded, screened and split as one text.  It never
        rejects: every other line goes through :meth:`_check_line` in
        line order, so :meth:`_validate_row` alone classifies errors and
        applies the ``on_error`` policy.
        """
        with self.tracer.span("ingest.validate", rows=len(chunk.lines)):
            n = len(chunk.lines)
            delimiter = self.config.delimiter
            text = b"".join(chunk.lines).decode("utf-8", "surrogateescape")
            if "\r" in text:  # CRLF endings; any other CR goes to csv
                text = text.replace("\r\n", "\n")
            texts = text.split("\n")
            del texts[n:]  # the empty text after the final terminator
            widths = np.fromiter(map(str.count, texts, repeat(delimiter)),
                                 dtype=np.int64, count=n) + 1
            lengths = np.fromiter(map(len, texts), dtype=np.int64, count=n)
            fast = ((widths == self._row_width)
                    & (lengths <= csv.field_size_limit()))
            tail_row = bool(n) and chunk.numbers[-1] == chunk.tail
            if tail_row:
                fast[-1] = False
            # One search over the chunk; no match spans a line end.
            hits = [match.start() for match in _NEEDS_CSV.finditer(text)]
            if hits:
                fast[np.searchsorted(np.cumsum(lengths + 1), hits,
                                     side="right")] = False
            # Every line's cells in one split, then each column's cells
            # of the fast lines by their offsets into it.
            flat = np.array(text.replace("\n", delimiter).split(delimiter),
                            dtype=object)
            starts = (np.cumsum(widths) - widths)[fast]
            labels, columns, ok = self._split_columns(
                [flat[starts + k] for k in range(self._row_width)],
                len(starts))
            accepted = np.zeros(n, dtype=bool)
            accepted[fast] = ok
            rescued: Dict[int, List[str]] = {}
            read = 0  # lines accounted for, should a policy or tail raise
            try:
                for i in np.flatnonzero(~accepted).tolist():
                    is_tail = chunk.numbers[i] == chunk.tail
                    read = i
                    if is_tail:
                        self._truncated_tail(chunk.tail)
                    read = i + 1
                    fields = self._check_line(
                        chunk.lines[i], chunk.numbers[i], truncated=is_tail,
                        collect_errors=collect_errors)
                    if fields is not None:
                        accepted[i], rescued[i] = True, fields
                read = n
                if chunk.tail is not None and not tail_row:
                    self._truncated_tail(chunk.tail)  # a blank final line
            finally:
                if collect_errors:
                    ok_rows = int(accepted[:read].sum())
                    self.report.rows_read += read
                    self.report.rows_ok += ok_rows
                    self._count("ingest.rows", read)
                    self._count("ingest.ok", ok_rows)
            if rescued or not ok.all():
                rows = [rescued[i] if i in rescued
                        else texts[i].split(delimiter)
                        for i in np.flatnonzero(accepted).tolist()]
                labels, columns, _ = self._split_columns(
                    list(zip(*rows)) if rows else [()] * self._row_width,
                    len(rows))
        return labels, columns

    # -- schema reconciliation -------------------------------------------
    def _reconcile_header(self, header_fields: List[str]) -> None:
        """Map expected columns onto the file's layout, per policy."""
        config = self.config
        seen: Dict[str, int] = {}
        duplicates = []
        for index, name in enumerate(header_fields):
            if name in seen:
                duplicates.append(name)
            else:
                seen[name] = index
        if duplicates:
            raise SchemaError(f"duplicate header columns: {duplicates}",
                              path=self.path, line_number=1)
        needed = config.field_names + [config.label]
        missing = [name for name in needed if name not in seen]
        extra = [name for name in header_fields if name not in needed]
        if config.label in missing:
            raise SchemaError(
                f"label column {config.label!r} absent from header "
                f"{header_fields}", path=self.path, line_number=1)
        if config.strict_schema and (missing or extra):
            raise SchemaError(
                f"strict schema mismatch: missing={missing} extra={extra}",
                path=self.path, line_number=1)
        self.report.schema_missing = missing
        self.report.schema_extra = extra
        # Reordered = feature columns out of configured relative order;
        # the label is indexed by name, its position never matters.
        feature_set = set(config.field_names)
        in_file_order = [name for name in header_fields
                         if name in feature_set]
        in_config_order = [name for name in config.field_names
                           if name in seen]
        self.report.schema_reordered = in_file_order != in_config_order
        self._positions = [seen.get(name) for name in config.field_names]
        self._label_position = seen[config.label]
        self._row_width = len(header_fields)
        if missing or extra or self.report.schema_reordered:
            self._emit("schema", missing=missing, extra=extra,
                       reordered=self.report.schema_reordered)

    def _reconcile_header_from_names(self, names: List[str]) -> None:
        seen = {name: index for index, name in enumerate(names)}
        if len(seen) != len(names):
            raise SchemaError("duplicate column names", path=self.path)
        needed = self.config.field_names + [self.config.label]
        missing = [name for name in needed if name not in seen]
        if missing:
            raise SchemaError(f"columns absent from declared names: "
                              f"{missing}", path=self.path)
        self._positions = [seen[name] for name in self.config.field_names]
        self._label_position = seen[self.config.label]
        self._row_width = len(names)

    def _read_header(self, reader: _ResilientLineReader) -> None:
        """Consume + reconcile the header (or apply declared names)."""
        if not self.config.header:
            self._reconcile_header_from_names(list(self.config.column_names))
            self._data_offset = 0
            return
        raw = reader.readline()
        if not raw:
            raise IngestError("empty file: expected a header row",
                              path=self.path, line_number=1)
        fields = self._parse_fields(raw, line_number=1)
        self._reconcile_header(fields)
        self._data_offset = reader.offset

    # -- chunked reading --------------------------------------------------
    def _iter_chunks(self, reader: _ResilientLineReader, *,
                     start_offset: int, start_line: int, start_chunk: int
                     ) -> Iterator[_Chunk]:
        """Yield raw chunks of ``chunk_rows`` non-blank lines from
        ``start_offset`` to EOF; :meth:`_validate_chunk` validates each.

        Blank lines are invisible, as in ``read_csv``.  A truncated
        final record rides in the last chunk as ``tail``; when no line is
        pending there, it is recorded here.  A chunk ends at the byte
        after its last line, however far the reader has read ahead.
        """
        reader.seek(start_offset)
        offset = start_offset
        line_number = start_line
        chunk_index = start_chunk
        lines: List[bytes] = []
        numbers: List[int] = []
        tail: Optional[int] = None
        file_size = self.path.stat().st_size

        def make_chunk() -> _Chunk:
            return _Chunk(index=chunk_index, lines=lines, numbers=numbers,
                          tail=tail, end_offset=offset, end_line=line_number)

        for raw in _read_lines(reader):
            offset += len(raw)
            line_number += 1
            if raw.rstrip(b"\r\n"):
                lines.append(raw)
                numbers.append(line_number)
            if not raw.endswith(b"\n") and offset >= file_size:
                tail = line_number
            if len(lines) >= self.config.chunk_rows:
                yield make_chunk()
                chunk_index += 1
                lines, numbers, tail = [], [], None
        if lines:
            yield make_chunk()
        elif tail is not None:
            self._truncated_tail(tail)

    # -- encoding ---------------------------------------------------------
    def _encode_chunk(self, columns: Columns,
                      pipeline: CTRPipeline) -> np.ndarray:
        """Validated columns → x ids through the pipeline's one encoder,
        so chunk concatenation equals the one-shot encode."""
        return pipeline._encode(columns)

    # -- manifest ---------------------------------------------------------
    def _write_manifest(self, state: Dict[str, Any]) -> None:
        state = dict(state)
        state["version"] = MANIFEST_VERSION
        state["source"] = {"path": str(self.path),
                           "size": self.path.stat().st_size}
        state["config"] = self.config.fingerprint()
        state["accounting"] = self.report.as_dict()
        state["quarantine_lines"] = self._quarantine_lines
        atomic_write_text(self._manifest_path(),
                          json.dumps(state, indent=2, sort_keys=True))

    def _load_manifest(self) -> Optional[Dict[str, Any]]:
        path = self._manifest_path()
        if not path.exists():
            return None
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ResumeError(f"unreadable manifest {path}: {exc}",
                              path=self.path) from exc
        if manifest.get("version") != MANIFEST_VERSION:
            raise ResumeError(
                f"manifest version {manifest.get('version')} not supported",
                path=self.path)
        if manifest.get("config") != self.config.fingerprint():
            raise ResumeError(
                "manifest was written with a different ingest configuration",
                path=self.path)
        size = self.path.stat().st_size
        if manifest.get("source", {}).get("size") != size:
            raise ResumeError(
                f"input file changed since the manifest was written "
                f"(size {manifest.get('source', {}).get('size')} -> {size})",
                path=self.path)
        return manifest

    def _restore_accounting(self, manifest: Dict[str, Any]) -> None:
        accounting = manifest.get("accounting", {})
        rows = accounting.get("rows", {})
        self.report.rows_read = int(rows.get("read", 0))
        self.report.rows_ok = int(rows.get("ok", 0))
        self.report.rows_skipped = int(rows.get("skipped", 0))
        self.report.rows_quarantined = int(rows.get("quarantined", 0))
        self.report.errors = {str(k): int(v) for k, v
                              in accounting.get("errors", {}).items()}
        self.report.truncated_tail = bool(
            accounting.get("truncated_tail", False))
        schema = accounting.get("schema", {})
        self.report.schema_missing = list(schema.get("missing", []))
        self.report.schema_extra = list(schema.get("extra", []))
        self.report.schema_reordered = bool(schema.get("reordered", False))

    # -- sketch state (per-chunk fit archives) ----------------------------
    def _sketch_state(self, sketches: FieldSketches, labels: LabelSketch
                      ) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
        arrays: Dict[str, np.ndarray] = {}
        meta: Dict[str, Any] = {"cat": {}, "num": {}, "label": {}}
        for name, sketch in sketches.items():
            kind = "num" if isinstance(sketch, NumericSketch) else "cat"
            sketch_arrays, meta[kind][name] = sketch.to_state()
            for key, value in sketch_arrays.items():
                arrays[f"{kind}/{name}/{key}"] = value
        _, meta["label"] = labels.to_state()
        return arrays, meta

    def _sketches_from_state(self, arrays: Dict[str, np.ndarray],
                             meta: Dict[str, Any]
                             ) -> Tuple[FieldSketches, LabelSketch]:
        sketches: FieldSketches = {}
        for name in self.config.field_names:
            if name in meta["num"]:
                prefix = f"num/{name}/"  # a column name may hold "/"
                sketches[name] = NumericSketch.from_state(
                    {key[len(prefix):]: value
                     for key, value in arrays.items()
                     if key.startswith(prefix)},
                    meta["num"][name])
            else:
                sketches[name] = CategoricalSketch.from_state(
                    {}, meta["cat"][name])
        return sketches, LabelSketch.from_state({}, meta["label"])

    # -- the run ----------------------------------------------------------
    def run(self) -> IngestResult:
        """Execute (or resume) the full ingest; see module docstring."""
        if not self.path.exists():
            raise FileNotFoundError(f"no data file at {self.path}")
        config = self.config
        workdir = self.workdir
        if workdir is not None:
            workdir.mkdir(parents=True, exist_ok=True)

        manifest = None
        if config.resume and workdir is not None:
            manifest = self._load_manifest()
        resumed = manifest is not None
        self.report.resumed = resumed
        if workdir is not None and not resumed:
            self._clear_workdir(workdir)

        reader = _ResilientLineReader(
            self.path, self.opener, retries=config.retries,
            base_delay=config.retry_base_delay, sleep=self.sleep,
            on_retry=self._on_io_retry)
        try:
            with self.tracer.span("ingest.run", path=str(self.path),
                                  resumed=resumed):
                self._emit("run_start", path=str(self.path),
                           resumed=resumed, on_error=config.on_error)
                result = self._run_stages(reader, manifest)
                self._emit("run_end", rows_ok=self.report.rows_ok,
                           rows_quarantined=self.report.rows_quarantined,
                           chunks=self.report.chunks)
                return result
        finally:
            reader.close()
            if self._quarantine_handle is not None:
                self._quarantine_handle.close()

    @staticmethod
    def _clear_workdir(workdir: Path) -> None:
        """Delete an earlier run's manifest and archives (the manifest
        first), so a fresh run leaves none it did not write."""
        stale = [workdir / _MANIFEST_NAME, workdir / "stage1.npz"]
        for pattern in ("stage1-*.npz", "chunk-*.npz"):
            stale.extend(sorted(workdir.glob(pattern)))
        for path in stale:
            path.unlink(missing_ok=True)

    def _on_io_retry(self, attempt: int, error: BaseException) -> None:
        self.report.retries += 1
        self._count("ingest.retries")
        self._emit("io_retry", attempt=attempt, error=str(error))

    def _progress(self, manifest: Optional[Dict[str, Any]],
                  key: str) -> Dict[str, Any]:
        """One pass's ``{chunks, offset, line, done}`` from the manifest;
        a pass with no saved progress starts at the first data line."""
        saved = (manifest or {}).get(key, {})
        return {"chunks": int(saved.get("chunks", 0)),
                "offset": int(saved.get("offset", self._data_offset)),
                "line": int(saved.get("line", 1 if self.config.header else 0)),
                "done": bool(saved.get("done", False))}

    def _stage(self, reader: _ResilientLineReader, name: str,
               progress: Dict[str, Any],
               work: Callable[[np.ndarray, Columns], None],
               save: Callable[[Dict[str, Any]], None]) -> Dict[str, Any]:
        """Run one pass (``"fit"`` or ``"encode"``) from ``progress`` to
        EOF and return its final progress; a pass already done is skipped.

        Each chunk's valid rows go to ``work(y, columns)``.  Only the fit
        pass collects row errors: the encode pass re-reads the lines the
        fit pass accounted for, and validation is deterministic, so its
        bad rows are dropped silently.  With a workdir, ``save(progress)``
        makes each chunk durable before ``on_chunk`` fires, and runs once
        more with ``done`` set when the pass ends.
        """
        if progress["done"]:
            return progress
        for chunk in self._iter_chunks(reader,
                                       start_offset=progress["offset"],
                                       start_line=progress["line"],
                                       start_chunk=progress["chunks"]):
            with self.tracer.span("ingest.chunk", stage=name,
                                  index=chunk.index) as span:
                y, columns = self._validate_chunk(
                    chunk, collect_errors=name == "fit")
                span.set_attr("rows", len(y))
                work(y, columns)
            self.report.chunks += 1
            self._count("ingest.chunks")
            self.metrics.gauge("ingest.offset_bytes").set(chunk.end_offset)
            progress = {"chunks": chunk.index + 1, "offset": chunk.end_offset,
                        "line": chunk.end_line, "done": False}
            if self.workdir is not None:
                save(progress)
            if self.on_chunk is not None:
                self.on_chunk(name, chunk.index)
        progress = dict(progress, done=True)
        if self.workdir is not None:
            save(progress)
        if name == "fit":
            self._emit("stage_end", stage=1, rows_ok=self.report.rows_ok)
        else:
            self._emit("stage_end", stage=2, chunks=progress["chunks"])
        return progress

    def _run_stages(self, reader: _ResilientLineReader,
                    manifest: Optional[Dict[str, Any]]) -> IngestResult:
        from ..resilience.checkpoint import read_archive, write_archive

        workdir = self.workdir
        self._read_header(reader)
        pipeline = self.config.pipeline()
        sketches = pipeline._field_sketches()
        labels = LabelSketch()
        x_chunks: List[np.ndarray] = []
        y_chunks: List[np.ndarray] = []

        def merge(chunk_sketches: FieldSketches,
                  chunk_labels: LabelSketch) -> None:
            for name, sketch in sketches.items():
                sketch.merge(chunk_sketches[name])
            labels.merge(chunk_labels)

        # ---- resume: both passes' progress, checked before any data line
        fit = self._progress(manifest, "stage1")
        encode = self._progress(manifest, "stage2")
        if manifest is not None:
            if encode["chunks"] and not fit["done"]:
                raise ResumeError("manifest has stage-2 progress without a "
                                  "complete stage 1", path=self.path)
            self._restore_accounting(manifest)
            for index in range(fit["chunks"]):
                arrays, meta = read_archive(
                    workdir / _STAGE1_TEMPLATE.format(index=index))
                merge(*self._sketches_from_state(arrays, meta["sketches"]))
            for index in range(encode["chunks"]):
                arrays, _ = read_archive(
                    workdir / _CHUNK_TEMPLATE.format(index=index))
                x_chunks.append(arrays["x"].astype(np.int64, copy=False))
                y_chunks.append(arrays["y"].astype(np.float64, copy=False))
            resumed = fit["chunks"] + encode["chunks"]
            self.report.chunks_resumed += resumed
            self._count("ingest.resumed_chunks", resumed)
            self._truncate_quarantine(int(manifest.get("quarantine_lines",
                                                       0)))
            self._emit("resume", stage=2 if fit["done"] else 1,
                       chunks_done=fit["chunks"])
        self._open_quarantine(append=manifest is not None)

        # ---- stage 1: accumulate fit statistics ------------------------
        # With a workdir, each chunk is counted into fresh sketches,
        # saved as the chunk's own fit archive and merged into the
        # running ones: a checkpoint costs its chunk alone.  Without
        # one, the chunk is counted into the running sketches directly.
        counted: List[Tuple[FieldSketches, LabelSketch]] = []

        def observe(y: np.ndarray, columns: Columns) -> None:
            into = ((sketches, labels) if workdir is None
                    else (pipeline._field_sketches(), LabelSketch()))
            if len(y):
                into[1].update(y)
                pipeline._observe(into[0], columns)
            if workdir is not None:
                merge(*into)
                counted[:] = [into]

        def save_fit(progress: Dict[str, Any]) -> None:
            self._flush_quarantine()
            if not progress["done"]:
                index = progress["chunks"] - 1
                arrays, sketch_meta = self._sketch_state(*counted[0])
                write_archive(workdir / _STAGE1_TEMPLATE.format(index=index),
                              arrays, {"sketches": sketch_meta,
                                       "index": index})
            self._write_manifest({"stage1": progress,
                                  "stage2": {"chunks": 0, "done": False}})

        fit = self._stage(reader, "fit", fit, observe, save_fit)
        if labels.total == 0 or self.report.rows_ok == 0:
            raise IngestError("no valid rows in input", path=self.path)
        cross_sketch = pipeline._fit_sketches(sketches, labels)

        # ---- stage 2: encode + cross statistics ------------------------
        def count_cross(x: np.ndarray) -> None:
            if cross_sketch is not None and len(x):
                cross_sketch.update(x)

        def encode_chunk(y: np.ndarray, columns: Columns) -> None:
            x = self._encode_chunk(columns, pipeline)
            count_cross(x)
            x_chunks.append(x)
            y_chunks.append(y)

        def save_encode(progress: Dict[str, Any]) -> None:
            if not progress["done"]:
                index = progress["chunks"] - 1
                write_archive(workdir / _CHUNK_TEMPLATE.format(index=index),
                              {"x": x_chunks[-1], "y": y_chunks[-1]},
                              {"index": index})
            self._write_manifest({"stage1": fit, "stage2": progress})

        for x in x_chunks:  # the chunks encoded before a resume
            count_cross(x)
        self._stage(reader, "encode", encode, encode_chunk, save_encode)

        if not any(len(x) for x in x_chunks):
            raise IngestError("no valid rows in input", path=self.path)
        pipeline._finish_fit(cross_sketch)
        dataset = pipeline._dataset(np.concatenate(x_chunks),
                                    np.concatenate(y_chunks))
        return IngestResult(dataset=dataset, pipeline=pipeline,
                            report=self.report)


def ingest_file(path: PathLike, config: IngestConfig, **kwargs: Any
                ) -> IngestResult:
    """Convenience wrapper: ``ChunkedIngestor(path, config, **kw).run()``."""
    return ChunkedIngestor(path, config, **kwargs).run()
