"""Functional ops: parity with layer classes and utility correctness."""

import numpy as np
import pytest

from repro.nn import LayerNorm, Tensor, functional as F

from .gradcheck import assert_gradients_close


class TestActivations:
    def test_relu_matches_method(self, rng):
        x = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_array_equal(F.relu(x).numpy(), x.relu().numpy())

    def test_sigmoid_symmetry(self, rng):
        x = Tensor(rng.normal(size=10))
        plus = F.sigmoid(x).numpy()
        minus = F.sigmoid(-x).numpy()
        np.testing.assert_allclose(plus + minus, 1.0, rtol=1e-12)

    def test_tanh_range(self, rng):
        out = F.tanh(Tensor(rng.normal(size=20) * 10)).numpy()
        assert (np.abs(out) <= 1.0).all()


class TestLogSoftmax:
    def test_matches_naive_composition(self, rng):
        x = Tensor(rng.normal(size=(4, 5)))
        expected = np.log(x.softmax(axis=-1).numpy())
        np.testing.assert_allclose(F.log_softmax(x).numpy(), expected,
                                   rtol=1e-10)

    def test_stable_at_large_logits(self):
        x = Tensor(np.array([[1000.0, 0.0, -1000.0]]))
        out = F.log_softmax(x).numpy()
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, 0], 0.0, atol=1e-9)

    def test_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        weights = Tensor(rng.normal(size=(2, 4)))
        assert_gradients_close(lambda: (F.log_softmax(x) * weights).sum(),
                               [x])


class TestLayerNormFunctional:
    def test_matches_module(self, rng):
        ln = LayerNorm(6)
        x = Tensor(rng.normal(size=(3, 6)))
        module_out = ln(x).numpy()
        functional_out = F.layer_norm(x, ln.gamma, ln.beta, eps=ln.eps).numpy()
        np.testing.assert_allclose(module_out, functional_out)


class TestLinearFunctional:
    def test_affine(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        w = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=4))
        np.testing.assert_allclose(F.linear(x, w, b).numpy(),
                                   x.numpy() @ w.numpy() + b.numpy())

    def test_no_bias(self, rng):
        x = Tensor(rng.normal(size=(2, 3)))
        w = Tensor(rng.normal(size=(3, 4)))
        np.testing.assert_allclose(F.linear(x, w).numpy(),
                                   x.numpy() @ w.numpy())


class TestDropoutFunctional:
    def test_eval_identity(self, rng):
        x = Tensor(rng.normal(size=(5, 5)))
        out = F.dropout(x, 0.5, rng, training=False)
        np.testing.assert_array_equal(out.numpy(), x.numpy())

    def test_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)


class TestOneHot:
    def test_shape_and_values(self):
        out = F.one_hot(np.array([0, 2, 1]), num_classes=3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_2d_input(self):
        out = F.one_hot(np.array([[0, 1], [2, 0]]), num_classes=3)
        assert out.shape == (2, 2, 3)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), num_classes=3)
        with pytest.raises(ValueError):
            F.one_hot(np.array([-1]), num_classes=3)


class TestPairwiseHelpers:
    def test_inner_products(self, rng):
        emb = Tensor(rng.normal(size=(2, 3, 4)))
        idx_i = np.array([0, 0, 1])
        idx_j = np.array([1, 2, 2])
        out = F.inner_products(emb, idx_i, idx_j).numpy()
        e = emb.numpy()
        expected = np.stack([
            (e[:, 0] * e[:, 1]).sum(-1),
            (e[:, 0] * e[:, 2]).sum(-1),
            (e[:, 1] * e[:, 2]).sum(-1),
        ], axis=1)
        np.testing.assert_allclose(out, expected)

    def test_hadamard_products_shape(self, rng):
        emb = Tensor(rng.normal(size=(2, 4, 5)))
        idx_i, idx_j = np.array([0, 1]), np.array([2, 3])
        assert F.hadamard_products(emb, idx_i, idx_j).shape == (2, 2, 5)

    def test_mean_pool(self, rng):
        a = Tensor(np.full((2, 3), 1.0))
        b = Tensor(np.full((2, 3), 3.0))
        np.testing.assert_allclose(F.mean_pool([a, b]).numpy(), 2.0)

    def test_mean_pool_empty(self):
        with pytest.raises(ValueError):
            F.mean_pool([])


class TestClipByGlobalNorm:
    def test_no_clip_when_small(self):
        grads = [np.array([0.1, 0.1])]
        out = F.clip_by_global_norm(grads, max_norm=10.0)
        np.testing.assert_array_equal(out[0], grads[0])

    def test_clips_to_norm(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        out = F.clip_by_global_norm(grads, max_norm=1.0)
        np.testing.assert_allclose(np.linalg.norm(out[0]), 1.0)

    def test_joint_norm(self):
        grads = [np.array([3.0]), np.array([4.0])]  # joint norm 5
        out = F.clip_by_global_norm(grads, max_norm=1.0)
        joint = np.sqrt(sum((g**2).sum() for g in out))
        np.testing.assert_allclose(joint, 1.0)

    def test_invalid_norm(self):
        with pytest.raises(ValueError):
            F.clip_by_global_norm([np.ones(2)], max_norm=0.0)

    def test_nan_gradient_scales_nothing(self):
        # A NaN norm is not above the cap: the finite gradient must come
        # back untouched instead of scaled by NaN.
        finite = np.array([3.0, 4.0])
        out = F.clip_by_global_norm([finite, np.array([np.nan])],
                                    max_norm=1.0)
        assert out[0].tobytes() == finite.tobytes()
        assert np.isnan(out[1]).all()

    def test_zero_norm_is_returned_unscaled(self):
        out = F.clip_by_global_norm([np.zeros(3)], max_norm=1.0)
        assert out[0].tobytes() == np.zeros(3).tobytes()
