"""``repro.data`` — schemas, preprocessing, cross-products and datasets.

Implements the paper's full data pipeline: frequency-thresholded
vocabularies with OOV folding, min-max normalisation / quantile bucketing
for continuous fields, the cross-product transformation (Eq. 4), and the
synthetic Criteo/Avazu/iPinYou-shaped dataset generators that replace the
unavailable public datasets (see DESIGN.md for the substitution argument).
"""

from .schema import FieldSpec, Schema, make_schema
from .vocabulary import OOV_ID, FieldVocabularies, Vocabulary
from .preprocessing import MinMaxNormalizer, QuantileBucketizer
from .cross import CrossProductTransform, HashedCrossTransform
from .dataset import Batch, CTRDataset
from .temporal import last_period_split, temporal_split
from .multivalent import (
    BAG_OOV_ID,
    PAD_ID,
    BagEncoder,
    BagVocabulary,
    generate_interest_bags,
)
from .loaders import (
    CTRPipeline,
    calibrate_downsampled,
    load_criteo_format,
    negative_downsample,
    read_csv,
)
from .errors import (
    ArityError,
    BadLabelError,
    BadNumericError,
    IngestError,
    ResumeError,
    RowError,
    RowParseError,
    SchemaError,
    TruncatedFileError,
    TruncatedRowError,
)
from .sketches import (
    CategoricalSketch,
    CrossSketch,
    LabelSketch,
    NumericSketch,
)
from .ingest import (
    ChunkedIngestor,
    IngestConfig,
    IngestReport,
    IngestResult,
    ingest_file,
)
from .synthetic import (
    GroundTruth,
    PairRole,
    SyntheticConfig,
    avazu_like,
    criteo_like,
    dataset_statistics,
    generate_raw,
    ipinyou_like,
    make_dataset,
)

__all__ = [
    "FieldSpec",
    "Schema",
    "make_schema",
    "Vocabulary",
    "FieldVocabularies",
    "OOV_ID",
    "MinMaxNormalizer",
    "QuantileBucketizer",
    "CrossProductTransform",
    "HashedCrossTransform",
    "Batch",
    "CTRDataset",
    "CTRPipeline",
    "read_csv",
    "load_criteo_format",
    "negative_downsample",
    "calibrate_downsampled",
    "BagVocabulary",
    "BagEncoder",
    "PAD_ID",
    "BAG_OOV_ID",
    "generate_interest_bags",
    "temporal_split",
    "last_period_split",
    "SyntheticConfig",
    "GroundTruth",
    "PairRole",
    "make_dataset",
    "generate_raw",
    "criteo_like",
    "avazu_like",
    "ipinyou_like",
    "dataset_statistics",
    "IngestError",
    "RowError",
    "RowParseError",
    "ArityError",
    "BadLabelError",
    "BadNumericError",
    "TruncatedRowError",
    "TruncatedFileError",
    "SchemaError",
    "ResumeError",
    "CategoricalSketch",
    "NumericSketch",
    "LabelSketch",
    "CrossSketch",
    "IngestConfig",
    "IngestReport",
    "IngestResult",
    "ChunkedIngestor",
    "ingest_file",
]
