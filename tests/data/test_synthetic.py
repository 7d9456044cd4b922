"""Synthetic generators: calibration, planted structure, paper-shaped stats."""

import numpy as np
import pytest

from repro.data import (
    PairRole,
    SyntheticConfig,
    avazu_like,
    criteo_like,
    dataset_statistics,
    generate_raw,
    ipinyou_like,
    make_dataset,
)
from repro.analysis import mutual_information


class TestGenerateRaw:
    def test_positive_ratio_calibrated(self, tiny_config):
        _, y, truth, _ = generate_raw(tiny_config)
        assert abs(y.mean() - tiny_config.positive_ratio) < 0.05
        assert abs(truth.positive_ratio - y.mean()) < 1e-12

    def test_planted_pair_counts(self, tiny_config):
        _, _, truth, schema = generate_raw(tiny_config)
        roles = list(truth.pair_roles.values())
        assert roles.count(PairRole.MEMORIZABLE) == tiny_config.n_memorizable
        assert roles.count(PairRole.FACTORIZABLE) == tiny_config.n_factorizable
        assert len(roles) == schema.num_pairs

    def test_deterministic_given_seed(self, tiny_config):
        raw_a, y_a, _, _ = generate_raw(tiny_config)
        raw_b, y_b, _, _ = generate_raw(tiny_config)
        np.testing.assert_array_equal(y_a, y_b)
        np.testing.assert_array_equal(
            raw_a.astype(float), raw_b.astype(float))

    def test_different_seeds_differ(self, tiny_config):
        import dataclasses

        other = dataclasses.replace(tiny_config, seed=tiny_config.seed + 1)
        _, y_a, _, _ = generate_raw(tiny_config)
        _, y_b, _, _ = generate_raw(other)
        assert not np.array_equal(y_a, y_b)

    def test_continuous_fields_emit_floats(self):
        config = SyntheticConfig(cardinalities=[6, 6], n_samples=200,
                                 continuous_fields=(0,), seed=1,
                                 n_memorizable=1, n_factorizable=0)
        raw, _, _, _ = generate_raw(config)
        assert isinstance(raw[0, 0], float)
        assert isinstance(raw[0, 1], (int, np.integer))

    def test_too_many_planted_pairs_rejected(self):
        config = SyntheticConfig(cardinalities=[4, 4], n_samples=10,
                                 n_memorizable=1, n_factorizable=1)
        with pytest.raises(ValueError):
            generate_raw(config)

    def test_explicit_planted_pairs(self):
        config = SyntheticConfig(
            cardinalities=[4, 4, 4], n_samples=500,
            planted_pairs={(0, 1): PairRole.MEMORIZABLE}, seed=3)
        _, _, truth, schema = generate_raw(config)
        assert truth.pair_roles[schema.pair_index(0, 1)] is PairRole.MEMORIZABLE
        assert truth.pair_roles[schema.pair_index(0, 2)] is PairRole.NOISE


class TestMakeDataset:
    def test_pipeline_shapes(self, tiny_config, tiny_dataset):
        assert len(tiny_dataset) == tiny_config.n_samples
        assert tiny_dataset.x.shape == (tiny_config.n_samples,
                                        tiny_config.num_fields)
        assert tiny_dataset.x_cross.shape[1] == tiny_dataset.num_pairs

    def test_ids_within_cardinalities(self, tiny_dataset):
        for col, card in enumerate(tiny_dataset.cardinalities):
            assert tiny_dataset.x[:, col].max() < card
        for p, card in enumerate(tiny_dataset.cross_cardinalities):
            assert tiny_dataset.x_cross[:, p].max() < card

    def test_without_cross(self, tiny_config):
        ds, _ = make_dataset(tiny_config, with_cross=False)
        assert ds.x_cross is None
        assert ds.cross_transform is None

    def test_keeps_the_transform_that_made_its_cross_ids(self, tiny_dataset):
        transform = tiny_dataset.cross_transform
        np.testing.assert_array_equal(transform.transform(tiny_dataset.x),
                                      tiny_dataset.x_cross)
        assert transform.cardinalities == tiny_dataset.cross_cardinalities
        assert tiny_dataset.subset(np.arange(5)).cross_transform is transform

    def test_memorizable_pair_has_high_mi(self, tiny_dataset, tiny_truth):
        """The planted memorizable interaction must out-inform noise pairs."""
        mem = tiny_truth.pairs_with_role(PairRole.MEMORIZABLE)[0]
        noise = tiny_truth.pairs_with_role(PairRole.NOISE)
        mem_mi = mutual_information(tiny_dataset.x_cross[:, mem],
                                    tiny_dataset.y)
        noise_mis = [mutual_information(tiny_dataset.x_cross[:, p],
                                        tiny_dataset.y) for p in noise[:10]]
        assert mem_mi > np.mean(noise_mis)


class TestPaperShapedFactories:
    def test_criteo_shape(self):
        config = criteo_like(n_samples=500)
        assert config.positive_ratio == 0.23
        assert len(config.continuous_fields) == 3
        assert config.num_fields == 12

    def test_avazu_shape(self):
        config = avazu_like(n_samples=500)
        assert config.positive_ratio == 0.17
        # One device_id-like huge field dominates.
        assert max(config.cardinalities) >= 10 * sorted(
            config.cardinalities)[-2]
        assert config.field_names[0] == "device_id"

    def test_ipinyou_shape(self):
        config = ipinyou_like(n_samples=500)
        assert config.positive_ratio < 0.05
        assert config.num_fields == 8

    def test_statistics_report(self):
        ds, _ = make_dataset(criteo_like(n_samples=800))
        stats = dataset_statistics(ds)
        assert stats["n_samples"] == 800
        assert stats["n_fields"] == 12
        assert stats["n_pairs"] == 66
        assert stats["n_cross_values"] >= stats["n_pairs"]

    def test_cross_values_exceed_original_values(self):
        """Paper Table II: #cross value >> #orig value."""
        config = criteo_like(n_samples=4000)
        config.cross_min_count = 1
        ds, _ = make_dataset(config)
        stats = dataset_statistics(ds)
        assert stats["n_cross_values"] > stats["n_original_values"]
