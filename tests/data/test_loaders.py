"""CSV loading, the raw-data pipeline, and negative downsampling."""

import numpy as np
import pytest

from repro.data import IngestConfig, ingest_file
from repro.data.errors import ArityError, IngestError, SchemaError
from repro.data.loaders import (
    CRITEO_CATEGORICAL_COLUMNS,
    CRITEO_INTEGER_COLUMNS,
    CTRPipeline,
    calibrate_downsampled,
    load_criteo_format,
    negative_downsample,
    read_csv,
)
from repro.data.vocabulary import OOV_ID


@pytest.fixture()
def csv_file(tmp_path):
    path = tmp_path / "clicks.csv"
    path.write_text(
        "label,site,device,price\n"
        "1,siteA,phone,3.5\n"
        "0,siteB,desktop,1.0\n"
        "0,siteA,phone,\n"
        "1,siteC,tablet,9.9\n"
        "0,siteA,desktop,2.2\n"
    )
    return path


class TestReadCSV:
    def test_columns_and_rows(self, csv_file):
        columns = read_csv(csv_file)
        assert set(columns) == {"label", "site", "device", "price"}
        assert len(columns["site"]) == 5
        assert columns["site"][0] == "siteA"

    def test_max_rows(self, csv_file):
        columns = read_csv(csv_file, max_rows=2)
        assert len(columns["label"]) == 2

    def test_headerless_with_names(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,a\n0,b\n")
        columns = read_csv(path, header=False, column_names=["y", "x"])
        assert list(columns["y"]) == ["1", "0"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_csv(tmp_path / "absent.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_name_count_mismatch(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2\n")
        with pytest.raises(ValueError):
            read_csv(path, header=False, column_names=["only_one"])


class TestTypedReadCSVErrors:
    """read_csv failures carry the file path and the 1-based line number
    (and stay catchable as plain ValueError for old callers)."""

    def test_truly_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError) as excinfo:
            read_csv(path)
        assert str(path) in str(excinfo.value)
        assert excinfo.value.line_number == 1
        assert "header" in excinfo.value.reason

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("a,b\n")
        with pytest.raises(IngestError) as excinfo:
            read_csv(path)
        assert excinfo.value.line_number == 2
        assert "no data rows" in excinfo.value.reason

    def test_ragged_row_names_offending_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n3\n4,5\n")
        with pytest.raises(ArityError) as excinfo:
            read_csv(path)
        assert excinfo.value.line_number == 3
        assert excinfo.value.raw == "3"
        assert f"{path}:3" in str(excinfo.value)

    def test_headerless_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3,4,5\n")
        with pytest.raises(ArityError) as excinfo:
            read_csv(path, header=False, column_names=["a", "b"])
        assert excinfo.value.line_number == 2

    def test_name_count_mismatch_is_schema_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("1,2\n")
        with pytest.raises(SchemaError):
            read_csv(path, header=False, column_names=["only_one"])

    def test_error_codes_stable(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1,2\n1\n")
        with pytest.raises(ArityError) as excinfo:
            read_csv(path)
        assert excinfo.value.code == "arity"


class TestCriteoFormat:
    def test_layout(self, tmp_path):
        path = tmp_path / "criteo.tsv"
        row = ["1"] + [str(i) for i in range(13)] + [f"c{i:02d}" for i in range(26)]
        path.write_text("\t".join(row) + "\n" + "\t".join(row) + "\n")
        columns = load_criteo_format(path)
        assert len(columns) == 40
        assert columns["label"][0] == "1"
        assert all(c in columns for c in CRITEO_INTEGER_COLUMNS)
        assert all(c in columns for c in CRITEO_CATEGORICAL_COLUMNS)


class TestCTRPipeline:
    def test_end_to_end(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site", "device"],
                               continuous=["price"], label="label",
                               num_buckets=3)
        dataset = pipeline.fit_transform(columns)
        assert len(dataset) == 5
        assert dataset.num_fields == 3
        assert dataset.x_cross is not None
        np.testing.assert_array_equal(np.unique(dataset.y), [0.0, 1.0])

    def test_field_order_continuous_first(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site"], continuous=["price"])
        dataset = pipeline.fit_transform(columns)
        assert dataset.schema.field_names == ["price", "site"]
        assert dataset.schema.fields[0].kind == "continuous"

    def test_transform_maps_unseen_to_oov(self, csv_file, tmp_path):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site", "device"],
                               continuous=["price"])
        pipeline.fit(columns)
        new = {
            "label": np.array(["0", "1"], dtype=object),
            "site": np.array(["siteZ", "siteA"], dtype=object),
            "device": np.array(["phone", "watch"], dtype=object),
            "price": np.array(["4.0", "100.0"], dtype=object),
        }
        dataset = pipeline.transform(new)
        assert dataset.x[0, dataset.schema.field_names.index("site")] == 0
        assert dataset.x[1, dataset.schema.field_names.index("device")] == 0

    def test_min_count_folds_rare(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site", "device"],
                               min_count=2)
        dataset = pipeline.fit_transform(columns)
        site_col = dataset.schema.field_names.index("site")
        # siteB and siteC appear once -> OOV.
        site_values = columns["site"]
        ids = dataset.x[:, site_col]
        assert ids[list(site_values).index("siteB")] == 0
        assert ids[list(site_values).index("siteC")] == 0

    def test_missing_continuous_imputed(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site"], continuous=["price"])
        dataset = pipeline.fit_transform(columns)
        # The row with an empty price still got a valid bucket id.
        assert (dataset.x[:, 0] >= 0).all()

    def test_no_cross_option(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site", "device"],
                               build_cross=False)
        dataset = pipeline.fit_transform(columns)
        assert dataset.x_cross is None

    def test_feeds_models_directly(self, csv_file):
        from repro.models import LogisticRegression

        columns = read_csv(csv_file)
        dataset = CTRPipeline(categorical=["site", "device"],
                              continuous=["price"]).fit_transform(columns)
        model = LogisticRegression(dataset.cardinalities,
                                   rng=np.random.default_rng(0))
        probs = model.predict_proba(dataset.full_batch())
        assert probs.shape == (5,)

    def test_double_fit_rejected(self, csv_file):
        columns = read_csv(csv_file)
        pipeline = CTRPipeline(categorical=["site"])
        pipeline.fit(columns)
        with pytest.raises(RuntimeError):
            pipeline.fit(columns)

    def test_transform_before_fit(self, csv_file):
        columns = read_csv(csv_file)
        with pytest.raises(RuntimeError):
            CTRPipeline(categorical=["site"]).transform(columns)

    def test_overlapping_columns_rejected(self):
        with pytest.raises(ValueError):
            CTRPipeline(categorical=["a"], continuous=["a"])

    def test_missing_column_reported(self, csv_file):
        columns = read_csv(csv_file)
        with pytest.raises(KeyError):
            CTRPipeline(categorical=["site", "phantom"]).fit(columns)

    def test_non_binary_label_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,site\n2,a\n0,b\n")
        columns = read_csv(path)
        with pytest.raises(ValueError):
            CTRPipeline(categorical=["site"]).fit_transform(columns)

    @pytest.mark.parametrize("labels", [["0", "2", "1", "0"],
                                        ["0", "0.5", "1", "1"]])
    def test_fit_rejects_non_binary_labels(self, labels):
        columns = {"label": np.array(labels, dtype=object),
                   "site": np.array(["a", "b", "a", "b"], dtype=object)}
        with pytest.raises(ValueError, match="label column must be binary"):
            CTRPipeline(categorical=["site"]).fit(columns)


    def test_blank_label_rejected_as_ingest_rejects_it(self, tmp_path):
        # Labels 1,'',1,0,1: ingest drops the blank-label row as a
        # `label` error, so the in-memory path must not impute it.
        path = tmp_path / "blank.csv"
        path.write_text("label,site\n1,a\n,b\n1,a\n0,b\n1,a\n")
        columns = read_csv(path)
        with pytest.raises(ValueError, match="missing label"):
            CTRPipeline(categorical=["site"]).fit(columns)
        result = ingest_file(path, IngestConfig(categorical=["site"],
                                                on_error="skip"))
        assert len(result.dataset) == 4
        assert result.report.errors == {"label": 1}

    def test_transform_rejects_blank_label(self, csv_file):
        pipeline = CTRPipeline(categorical=["site"]).fit(read_csv(csv_file))
        columns = {"label": np.array(["1", None], dtype=object),
                   "site": np.array(["siteA", "siteB"], dtype=object)}
        with pytest.raises(ValueError, match="missing label"):
            pipeline.transform(columns)


class TestOOVFoldRule:
    """The documented offline rule (shared with the serving validator):
    transform imputes the *training* median, folds None/NaN/unseen
    categoricals to OOV, and treats "" as a real categorical value."""

    @pytest.fixture()
    def fitted(self, csv_file):
        pipeline = CTRPipeline(categorical=["site"], continuous=["price"])
        pipeline.fit(read_csv(csv_file))
        return pipeline

    def test_fill_value_is_training_median(self, fitted):
        # present prices at fit: 3.5, 1.0, 9.9, 2.2 -> median 2.85
        assert fitted.fill_values["price"] == pytest.approx(2.85)

    def test_transform_uses_training_median_not_batch_median(self, fitted):
        # A serving-time batch whose own median would be wildly different:
        batch = {"label": ["0", "0"], "site": ["siteA", "siteA"],
                 "price": ["", "1000"]}
        imputed = fitted.transform(batch)
        explicit = fitted.transform(
            {"label": ["0", "0"], "site": ["siteA", "siteA"],
             "price": ["2.85", "1000"]})
        assert np.array_equal(imputed.x, explicit.x)

    def test_out_of_range_clips_to_extreme_buckets(self, fitted):
        low_high = fitted.transform(
            {"label": ["0", "0"], "site": ["siteA", "siteA"],
             "price": ["-1e9", "1e9"]})
        edges = fitted.transform(
            {"label": ["0", "0"], "site": ["siteA", "siteA"],
             "price": ["1.0", "9.9"]})  # training min / max
        assert np.array_equal(low_high.x[:, 0], edges.x[:, 0])

    def test_unseen_and_none_categorical_fold_to_oov(self, fitted):
        dataset = fitted.transform(
            {"label": ["0", "0"], "site": ["never_seen", None],
             "price": ["2.0", "2.0"]})
        assert dataset.x[0, 1] == OOV_ID
        assert dataset.x[1, 1] == OOV_ID

    def test_empty_string_categorical_is_a_real_value(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("label,site\n1,\n0,\n1,siteA\n0,siteA\n")
        pipeline = CTRPipeline(categorical=["site"], min_count=2)
        dataset = pipeline.fit_transform(read_csv(path))
        assert pipeline._vocabularies["site"].lookup("") != OOV_ID
        assert dataset.x[0, 0] == dataset.x[1, 0] != OOV_ID


class TestNegativeDownsampling:
    def test_keeps_all_positives(self, tiny_dataset):
        sampled = negative_downsample(tiny_dataset, rate=0.1,
                                      rng=np.random.default_rng(0))
        assert sampled.y.sum() == tiny_dataset.y.sum()
        assert len(sampled) < len(tiny_dataset)

    def test_rate_one_is_identity(self, tiny_dataset):
        sampled = negative_downsample(tiny_dataset, rate=1.0)
        assert len(sampled) == len(tiny_dataset)

    def test_invalid_rate(self, tiny_dataset):
        with pytest.raises(ValueError):
            negative_downsample(tiny_dataset, rate=0.0)

    def test_positive_ratio_increases(self, tiny_dataset):
        sampled = negative_downsample(tiny_dataset, rate=0.2,
                                      rng=np.random.default_rng(1))
        assert sampled.positive_ratio > tiny_dataset.positive_ratio


class TestCalibration:
    def test_identity_at_rate_one(self):
        probs = np.array([0.1, 0.5, 0.9])
        np.testing.assert_allclose(calibrate_downsampled(probs, 1.0), probs)

    def test_shrinks_probabilities(self):
        probs = np.array([0.5])
        corrected = calibrate_downsampled(probs, rate=0.1)
        assert corrected[0] < 0.5
        # p=0.5 with rate 0.1: 0.5 / (0.5 + 0.5/0.1) = 1/11.
        np.testing.assert_allclose(corrected[0], 1.0 / 11.0)

    def test_roundtrip_with_downsampled_training(self):
        """Calibration recovers the true base rate in expectation."""
        rng = np.random.default_rng(0)
        true_rate = 0.02
        n = 200_000
        y = (rng.random(n) < true_rate).astype(float)
        keep = (y == 1) | (rng.random(n) < 0.1)
        downsampled_rate = y[keep].mean()
        # A constant predictor trained on the downsampled data predicts the
        # downsampled base rate; calibration maps it back.
        corrected = calibrate_downsampled(np.array([downsampled_rate]), 0.1)
        assert abs(corrected[0] - true_rate) < 0.005

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            calibrate_downsampled(np.array([0.5]), 0.0)
