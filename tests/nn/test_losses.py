"""Loss correctness and numerical stability."""

import numpy as np
import pytest

from repro.nn import Tensor, binary_cross_entropy, binary_cross_entropy_with_logits

from .gradcheck import assert_gradients_close


class TestBCEWithLogits:
    def test_matches_naive_formula(self, rng):
        logits = rng.normal(size=10)
        targets = (rng.random(10) > 0.5).astype(float)
        loss = binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        probs = 1 / (1 + np.exp(-logits))
        expected = -np.mean(targets * np.log(probs)
                            + (1 - targets) * np.log(1 - probs))
        np.testing.assert_allclose(loss, expected, rtol=1e-10)

    def test_stable_at_extreme_logits(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        targets = np.array([1.0, 0.0])
        loss = binary_cross_entropy_with_logits(logits, targets).item()
        assert np.isfinite(loss)
        assert loss < 1e-6

    def test_worst_case_is_large_but_finite(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        targets = np.array([0.0, 1.0])
        loss = binary_cross_entropy_with_logits(logits, targets).item()
        assert np.isfinite(loss)
        assert loss > 100

    def test_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=6), requires_grad=True)
        targets = (rng.random(6) > 0.5).astype(float)
        assert_gradients_close(
            lambda: binary_cross_entropy_with_logits(logits, targets),
            [logits])

    def test_gradient_is_sigmoid_minus_target(self, rng):
        logits = Tensor(rng.normal(size=5), requires_grad=True)
        targets = np.array([1.0, 0.0, 1.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        loss.backward()
        probs = 1 / (1 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (probs - targets) / 5,
                                   rtol=1e-8)

    def test_gradient_at_zero_logit(self):
        # An exactly-zero logit (a dead ReLU row through LayerNorm with
        # zero beta and bias gives one) must still get sigmoid(0) - y.
        logits = Tensor(np.array([0.0, -0.0, 0.0, 2.0]), requires_grad=True)
        targets = np.array([1.0, 0.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(logits, targets)
        np.testing.assert_allclose(loss.item(),
                                   (3 * np.log(2) + np.log1p(np.exp(-2))) / 4,
                                   rtol=1e-12)
        loss.backward()
        probs = 1 / (1 + np.exp(-logits.data))
        np.testing.assert_allclose(logits.grad, (probs - targets) / 4,
                                   rtol=1e-12)

    def test_reshapes_targets(self, rng):
        logits = Tensor(rng.normal(size=(4, 1)))
        targets = np.zeros(4)
        loss = binary_cross_entropy_with_logits(logits, targets)
        assert np.isfinite(loss.item())


class TestBCEFromProbs:
    def test_perfect_prediction_near_zero(self):
        assert binary_cross_entropy(np.array([1.0, 0.0]),
                                    np.array([1.0, 0.0])) < 1e-10

    def test_clips_zero_probabilities(self):
        loss = binary_cross_entropy(np.array([0.0]), np.array([1.0]))
        assert np.isfinite(loss)

    def test_uniform_prediction_is_log2(self):
        loss = binary_cross_entropy(np.full(10, 0.5),
                                    (np.arange(10) % 2).astype(float))
        np.testing.assert_allclose(loss, np.log(2), rtol=1e-12)

    def test_agrees_with_logit_version(self, rng):
        logits = rng.normal(size=20)
        targets = (rng.random(20) > 0.3).astype(float)
        from_probs = binary_cross_entropy(1 / (1 + np.exp(-logits)), targets)
        from_logits = binary_cross_entropy_with_logits(Tensor(logits),
                                                       targets).item()
        np.testing.assert_allclose(from_probs, from_logits, rtol=1e-9)
