"""Loading real tabular CTR data: CSV readers and the end-to-end pipeline.

The experiments in this repository run on synthetic data, but a downstream
user with the actual Criteo/Avazu logs (or any tabular click log) needs a
path from raw files to a :class:`~repro.data.dataset.CTRDataset`.  This
module provides it without external dependencies:

* :func:`read_csv` — a small column-major CSV/TSV reader;
* :func:`load_criteo_format` — the canonical Criteo TSV layout
  (label + 13 integer + 26 categorical columns);
* :class:`CTRPipeline` — fit-once/transform-many preprocessing exactly
  matching the paper's setup: frequency-thresholded vocabularies with OOV
  folding, quantile bucketing for continuous columns, and the
  cross-product transformation;
* :func:`negative_downsample` / :func:`calibrate_downsampled` — the
  standard trick for extremely imbalanced logs (iPinYou's 0.08 % positives),
  with the matching probability recalibration.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cross import CrossProductTransform
from .dataset import CTRDataset
from .errors import ArityError, IngestError, SchemaError
from .preprocessing import QuantileBucketizer
from .schema import Schema, make_schema
from .sketches import (CategoricalSketch, CrossSketch, LabelSketch,
                       NumericSketch)
from .vocabulary import Vocabulary

Columns = Dict[str, np.ndarray]
FieldSketches = Dict[str, Union[CategoricalSketch, NumericSketch]]
PathLike = Union[str, Path]


def read_csv(path: PathLike, delimiter: str = ",",
             header: bool = True,
             column_names: Optional[Sequence[str]] = None,
             max_rows: Optional[int] = None) -> Columns:
    """Read a delimited text file into column-major object arrays.

    Missing values (empty fields) are kept as empty strings; downstream
    vocabularies treat them as just another value, which matches how the
    paper's preprocessing handles Criteo's missing fields.

    Malformed input raises a typed :class:`~repro.data.errors.IngestError`
    (a :class:`ValueError` subclass) naming the file and the 1-based
    line number: an empty file, a file with a header but no data rows,
    ragged rows, and a ``column_names`` count that does not match the
    data width.  For larger-than-memory or dirty files prefer
    :func:`repro.data.ingest.ingest_file`, which adds per-row error
    policies, quarantine and resume on the same taxonomy.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no data file at {path}")
    with path.open(newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        rows: List[List[str]] = []
        line_numbers: List[int] = []
        names: Optional[List[str]] = list(column_names) if column_names else None
        saw_header = False
        for row_index, row in enumerate(reader):
            if row_index == 0 and header:
                saw_header = True
                if names is None:
                    names = row
                continue
            rows.append(row)
            line_numbers.append(reader.line_num)
            if max_rows is not None and len(rows) >= max_rows:
                break
    if header and not saw_header:
        raise IngestError("empty file: expected a header row",
                          path=path, line_number=1)
    if not rows:
        raise IngestError("no data rows", path=path,
                          line_number=2 if header else 1)
    width = len(rows[0])
    if names is None:
        names = [f"column_{i}" for i in range(width)]
    if len(names) != width:
        raise SchemaError(
            f"{len(names)} column names for {width}-column data",
            path=path, line_number=line_numbers[0])
    for row, line_number in zip(rows, line_numbers):
        if len(row) != width:
            raise ArityError(
                f"row has {len(row)} fields, expected {width}",
                path=path, line_number=line_number,
                raw=delimiter.join(row))
    table = np.array(rows, dtype=object)
    return {name: table[:, col] for col, name in enumerate(names)}


#: the Criteo Kaggle TSV layout: label, I1..I13 integer, C1..C26 categorical.
CRITEO_LABEL = "label"
CRITEO_INTEGER_COLUMNS = [f"I{i}" for i in range(1, 14)]
CRITEO_CATEGORICAL_COLUMNS = [f"C{i}" for i in range(1, 27)]


def load_criteo_format(path: PathLike,
                       max_rows: Optional[int] = None) -> Columns:
    """Read a Criteo-format TSV (no header, 1 + 13 + 26 columns)."""
    names = [CRITEO_LABEL] + CRITEO_INTEGER_COLUMNS + CRITEO_CATEGORICAL_COLUMNS
    return read_csv(path, delimiter="\t", header=False,
                    column_names=names, max_rows=max_rows)


def _parse_floats(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Parse a string/object column to float64 plus a missing mask.

    The missing-value convention is shared with the serving layer's
    :class:`~repro.serving.validation.RequestValidator`: ``None``, NaN
    (literal or parsed, e.g. ``"nan"``) and the empty string all count
    as missing.  Unparseable text raises ``ValueError`` — the streaming
    ingest path turns that into a typed
    :class:`~repro.data.errors.BadNumericError` per row.  A float64
    column (what ingest validation produces) is returned as is.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return values, np.isnan(values)
    out = np.empty(len(values), dtype=np.float64)
    missing = np.zeros(len(values), dtype=bool)
    for i, value in enumerate(values):
        if value is None:
            missing[i], out[i] = True, np.nan
            continue
        text = str(value).strip()
        if text == "":
            missing[i], out[i] = True, np.nan
            continue
        parsed = float(text)
        if math.isnan(parsed):
            missing[i], out[i] = True, np.nan
        else:
            out[i] = parsed
    return out, missing


def _binary_labels(values: np.ndarray) -> np.ndarray:
    """Parse a label column.  A missing label (as
    :func:`_parse_floats` defines it) or anything but 0/1 raises
    ``ValueError``: a label is never imputed, and ingest rejects such a
    row too."""
    y, missing = _parse_floats(values)
    if missing.any():
        raise ValueError(f"label column has {int(missing.sum())} missing "
                         f"label(s); labels are never imputed")
    if not set(np.unique(y)).issubset({0.0, 1.0}):
        raise ValueError("label column must be binary 0/1")
    return y


@dataclass
class CTRPipeline:
    """Raw columns → :class:`CTRDataset`, with paper-faithful preprocessing.

    **The OOV-fold rule** (shared with the serving layer, see
    :class:`~repro.serving.validation.RequestValidator`):

    * A *categorical* value that is unseen at training time, or rarer
      than ``min_count``, folds to the reserved OOV id 0 — as do
      ``None`` and float NaN.  The **empty string is an ordinary
      categorical value** (CTR logs use it as a real "absent" category)
      and is learned or thresholded like any other.
    * A *continuous* value that is missing — ``None``, the empty string,
      or NaN (literal or parsed, e.g. ``"nan"``) — imputes the
      **training-split median** and is then bucketed like any other
      value; a value outside the training range clips into the extreme
      buckets.

    ``transform`` applies the training median — never the current
    batch's — so offline features match what the online validator
    produces for the same request.

    Parameters
    ----------
    categorical:
        Column names embedded via frequency-thresholded vocabularies.
    continuous:
        Column names quantile-bucketed into ``num_buckets`` categories
        (missing values are imputed with the training median first).
    label:
        Name of the binary label column (parsed as float 0/1).
    min_count / cross_min_count:
        OOV-folding thresholds for original and cross values (the paper
        uses 20/20 on Criteo and 5 on Avazu).
    build_cross:
        Whether to attach the cross-product transformation (required by
        memorized methods and OptInter).
    """

    categorical: Sequence[str]
    continuous: Sequence[str] = ()
    label: str = "label"
    min_count: int = 1
    num_buckets: int = 10
    cross_min_count: int = 1
    build_cross: bool = True
    dataset_name: str = "loaded"

    def __post_init__(self) -> None:
        overlap = set(self.categorical) & set(self.continuous)
        if overlap:
            raise ValueError(f"columns both categorical and continuous: "
                             f"{sorted(overlap)}")
        if not self.categorical and not self.continuous:
            raise ValueError("at least one feature column is required")
        self._vocabularies: Dict[str, Vocabulary] = {}
        self._bucketizers: Dict[str, QuantileBucketizer] = {}
        self._fill_values: Dict[str, float] = {}
        self._cross: Optional[CrossProductTransform] = None
        self._schema: Optional[Schema] = None
        self._cardinalities: Optional[List[int]] = None
        self._fitted = False

    @property
    def field_names(self) -> List[str]:
        """Field order of the produced datasets: continuous, then categorical."""
        return list(self.continuous) + list(self.categorical)

    def _check_columns(self, columns: Columns) -> None:
        missing = [c for c in self.field_names + [self.label]
                   if c not in columns]
        if missing:
            raise KeyError(f"columns absent from input: {missing}")

    def _encode(self, columns: Columns) -> np.ndarray:
        """Raw feature columns → the id matrix, through the fitted parts."""
        n = len(columns[self.field_names[0]])
        x = np.empty((n, len(self.field_names)), dtype=np.int64)
        for col_idx, name in enumerate(self.field_names):
            values = columns[name]
            if name in self.continuous:
                floats, missing = _parse_floats(values)
                floats = np.where(missing, self._fill_values[name], floats)
                values = self._bucketizers[name].transform(floats)
            x[:, col_idx] = self._vocabularies[name].transform(values)
        return x

    # -- the one fit: sketches over chunks, then finalize -----------------
    # ``fit`` below feeds all the columns as one chunk; the streaming
    # ingest (:mod:`repro.data.ingest`) feeds them chunk by chunk.
    def _field_sketches(self) -> FieldSketches:
        """One empty sketch per field, in field order."""
        return {name: NumericSketch() if name in self.continuous
                else CategoricalSketch() for name in self.field_names}

    def _observe(self, sketches: FieldSketches, columns: Columns) -> None:
        """Count one chunk of raw feature columns into ``sketches``;
        continuous columns are parsed to floats (NaN = missing) first."""
        for name, sketch in sketches.items():
            values = columns[name]
            if name in self.continuous:
                values, _ = _parse_floats(values)
            sketch.update(values)

    def _fit_sketches(self, sketches: FieldSketches, labels: LabelSketch
                      ) -> Optional[CrossSketch]:
        """Finished field/label sketches → vocabularies, bucketizers,
        fill values, cardinalities and schema.  Returns the empty cross
        sketch the encoded rows must fill before :meth:`_finish_fit`
        (``None`` without crosses)."""
        for name in self.continuous:
            (self._fill_values[name], self._bucketizers[name],
             self._vocabularies[name]) = sketches[name].finalize(
                self.num_buckets, vocab_min_count=self.min_count)
        for name in self.categorical:
            self._vocabularies[name] = sketches[name].finalize(
                min_count=self.min_count)
        self._cardinalities = [self._vocabularies[name].size
                               for name in self.field_names]
        self._schema = make_schema(
            self._cardinalities,
            name=self.dataset_name,
            positive_ratio=float(np.clip(labels.mean(), 1e-6, 1 - 1e-6)),
            continuous_fields=tuple(range(len(self.continuous))),
            field_names=self.field_names,
        )
        if not self.build_cross:
            return None
        return CrossSketch(self._schema.pairs(), self._cardinalities)

    def _finish_fit(self, cross: Optional[CrossSketch]) -> None:
        """Freeze the cross vocabulary (when built) and mark the fit done."""
        if cross is not None:
            self._cross = cross.finalize(self._schema,
                                         min_count=self.cross_min_count)
        self._fitted = True

    def _dataset(self, x: np.ndarray, y: np.ndarray) -> CTRDataset:
        """Wrap encoded ids and labels, adding the cross ids."""
        cross = self._cross
        return CTRDataset(
            schema=self._schema,
            x=x,
            y=y,
            cardinalities=self._cardinalities,
            x_cross=cross.transform(x) if cross is not None else None,
            cross_cardinalities=(cross.cardinalities
                                 if cross is not None else None),
            cross_transform=cross,
        )

    def fit(self, columns: Columns) -> "CTRPipeline":
        """Fit all vocabularies / bucketizers / crosses on training columns."""
        if self._fitted:
            raise RuntimeError("pipeline is already fitted")
        self._check_columns(columns)
        labels = LabelSketch().update(_binary_labels(columns[self.label]))
        sketches = self._field_sketches()
        self._observe(sketches, columns)
        cross = self._fit_sketches(sketches, labels)
        if cross is not None:
            cross.update(self._encode(columns))
        self._finish_fit(cross)
        return self

    def transform(self, columns: Columns) -> CTRDataset:
        """Apply the fitted preprocessing to (new) columns."""
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted before transform")
        self._check_columns(columns)
        x = self._encode(columns)
        return self._dataset(x, _binary_labels(columns[self.label]))

    def fit_transform(self, columns: Columns) -> CTRDataset:
        return self.fit(columns).transform(columns)

    @property
    def fill_values(self) -> Dict[str, float]:
        """Training-median imputation value per continuous column."""
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted first")
        return dict(self._fill_values)

    @property
    def schema(self) -> Schema:
        if not self._fitted:
            raise RuntimeError("pipeline must be fitted first")
        return self._schema


def negative_downsample(dataset: CTRDataset, rate: float,
                        rng: Optional[np.random.Generator] = None
                        ) -> CTRDataset:
    """Keep all positives and a ``rate`` fraction of negatives.

    Standard practice for extremely imbalanced logs (iPinYou): training on
    the downsampled set is followed by probability recalibration with
    :func:`calibrate_downsampled`.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    rng = rng or np.random.default_rng()
    keep = (dataset.y == 1.0) | (rng.random(len(dataset)) < rate)
    indices = np.flatnonzero(keep)
    if indices.size == 0:
        raise ValueError("downsampling removed every row")
    return dataset.subset(indices)


def calibrate_downsampled(probs: np.ndarray, rate: float) -> np.ndarray:
    """Correct probabilities from a model trained on downsampled negatives.

    If negatives were kept with probability ``rate``, the model's odds are
    inflated by ``1/rate``; the correction is
    ``p' = p / (p + (1 - p) / rate)``.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    probs = np.asarray(probs, dtype=np.float64)
    return probs / (probs + (1.0 - probs) / rate)
