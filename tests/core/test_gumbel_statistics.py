"""Statistical properties of the Gumbel-softmax selection (Eqs. 16-17)."""

import numpy as np
import pytest

from repro.core import CombinationBlock, sample_gumbel


class TestGumbelArgmaxDistribution:
    def test_argmax_frequencies_match_softmax(self):
        """The Gumbel-max trick samples the categorical softmax(α) exactly:
        argmax_k (α_k + g_k) ~ Categorical(softmax(α))."""
        rng = np.random.default_rng(0)
        alpha = np.array([1.0, 0.0, -1.0])
        target = np.exp(alpha) / np.exp(alpha).sum()
        draws = 40_000
        noise = sample_gumbel((draws, 3), rng)
        picks = (alpha + noise).argmax(axis=1)
        freqs = np.bincount(picks, minlength=3) / draws
        np.testing.assert_allclose(freqs, target, atol=0.01)

    def test_uniform_alpha_uniform_picks(self):
        rng = np.random.default_rng(1)
        noise = sample_gumbel((30_000, 3), rng)
        freqs = np.bincount(noise.argmax(axis=1), minlength=3) / 30_000
        np.testing.assert_allclose(freqs, 1 / 3, atol=0.01)


class TestRelaxationSharpness:
    def test_weights_concentrate_as_temperature_drops(self, rng):
        """E[max_k w_k] increases as τ decreases (harder selections)."""
        block = CombinationBlock(200, rng=rng)
        block.train()
        block.alpha.data = rng.normal(size=(200, 3))

        def mean_max_weight(tau):
            block.set_temperature(tau)
            w = block.method_weights()
            return w.max(axis=-1).mean()

        sharp = mean_max_weight(0.1)
        medium = mean_max_weight(0.7)
        soft = mean_max_weight(5.0)
        assert sharp > medium > soft

    def test_high_temperature_approaches_uniform(self, rng):
        block = CombinationBlock(100, rng=rng)
        block.train()
        block.alpha.data = rng.normal(size=(100, 3))
        block.set_temperature(200.0)
        w = block.method_weights()
        np.testing.assert_allclose(w, 1 / 3, atol=0.05)

    def test_expected_weights_track_selection_probabilities(self, rng):
        """Averaged over many samples, the soft weights rank methods in the
        same order as the true selection probabilities."""
        block = CombinationBlock(1, rng=np.random.default_rng(0))
        block.train()
        block.alpha.data = np.array([[1.5, 0.0, -1.5]])
        block.set_temperature(1.0)
        total = np.zeros(3)
        for _ in range(2000):
            total += block.method_weights()[0]
        mean = total / 2000
        assert mean[0] > mean[1] > mean[2]


class TestSearchStageIntegration:
    def test_eval_probabilities_stable_under_resampling(self, rng):
        """Eval-mode probabilities ignore noise entirely."""
        block = CombinationBlock(10, rng=rng)
        block.alpha.data = rng.normal(size=(10, 3))
        block.eval()
        a = block.probabilities()
        b = block.probabilities()
        np.testing.assert_array_equal(a, b)

    def test_argmax_decode_invariant_to_temperature(self, rng):
        """Eq. 19's decode depends on α only, not on τ."""
        block = CombinationBlock(20, rng=rng)
        block.alpha.data = rng.normal(size=(20, 3))
        block.set_temperature(0.1)
        cold = block.derive_architecture()
        block.set_temperature(10.0)
        hot = block.derive_architecture()
        assert cold == hot
