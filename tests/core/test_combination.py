"""Combination block: Gumbel-softmax weights, Eq. 18 mixing, decode.

The second half is a differential harness for the fused
``gumbel_combine`` op behind :meth:`CombinationBlock.combine`.  The
composed Tensor-op path it replaced (zero-pad, add noise, scale,
softmax, slice, multiply, add) is rebuilt below as the reference, and
the op must match it byte for byte (``tobytes()``): the output, both
candidate gradients and dα, in train and eval mode, and every parameter
after a few search steps of the models that use it.
"""

import numpy as np
import pytest

from repro.core import (
    CombinationBlock,
    Method,
    OptInterModel,
    sample_gumbel,
)
from repro.data import SyntheticConfig, make_dataset
from repro.nn import Adam, Tensor, binary_cross_entropy_with_logits
from repro.nn.tensor import concatenate, gumbel_combine


class TestSampleGumbel:
    def test_shape(self, rng):
        assert sample_gumbel((4, 3), rng).shape == (4, 3)

    def test_location(self, rng):
        # Gumbel(0,1) mean is the Euler-Mascheroni constant ~0.577.
        noise = sample_gumbel((200_000,), rng)
        assert abs(noise.mean() - 0.5772) < 0.02


class TestMethodWeights:
    def test_rows_sum_to_one_training(self, rng):
        block = CombinationBlock(6, rng=rng)
        block.train()
        w = block.method_weights()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-9)

    def test_per_instance_noise_shape(self, rng):
        block = CombinationBlock(6, rng=rng)
        block.train()
        w = block.method_weights(batch_size=5)
        assert w.shape == (5, 6, 3)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, rtol=1e-9)

    def test_eval_mode_deterministic(self, rng):
        block = CombinationBlock(4, rng=rng)
        block.eval()
        a = block.method_weights()
        b = block.method_weights()
        np.testing.assert_array_equal(a, b)

    def test_training_mode_stochastic(self, rng):
        block = CombinationBlock(4, rng=rng)
        block.train()
        a = block.method_weights()
        b = block.method_weights()
        assert not np.allclose(a, b)

    def test_low_temperature_sharpens(self, rng):
        block = CombinationBlock(4, rng=rng)
        block.eval()
        block.alpha.data = np.tile([2.0, 0.0, -2.0], (4, 1))
        block.set_temperature(1.0)
        soft = block.probabilities()
        block.set_temperature(0.1)
        sharp = block.probabilities()
        assert sharp[:, 0].min() > soft[:, 0].max()

    def test_invalid_temperature(self, rng):
        block = CombinationBlock(4, rng=rng)
        with pytest.raises(ValueError):
            block.set_temperature(0.0)
        with pytest.raises(ValueError):
            CombinationBlock(4, temperature=-1.0, rng=rng)

    def test_probabilities_rows_sum_to_one(self, rng):
        block = CombinationBlock(7, rng=rng)
        np.testing.assert_allclose(block.probabilities().sum(axis=-1), 1.0,
                                   rtol=1e-12)


class TestCombine:
    def test_weighted_sum_semantics(self, rng):
        block = CombinationBlock(2, rng=rng)
        block.eval()
        # Force pair 0 -> memorize, pair 1 -> factorize (near-one-hot).
        block.alpha.data = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        block.set_temperature(1.0)
        e_mem = Tensor(np.ones((3, 2, 4)))
        e_fac = Tensor(np.full((3, 2, 4), 2.0))
        out = block.combine(e_mem, e_fac).numpy()
        np.testing.assert_allclose(out[:, 0], 1.0, atol=1e-8)
        np.testing.assert_allclose(out[:, 1], 2.0, atol=1e-8)

    def test_naive_dilutes_both(self, rng):
        block = CombinationBlock(1, rng=rng)
        block.eval()
        block.alpha.data = np.array([[0.0, 0.0, 50.0]])  # naive wins
        out = block.combine(Tensor(np.ones((2, 1, 3))),
                            Tensor(np.ones((2, 1, 3)))).numpy()
        np.testing.assert_allclose(out, 0.0, atol=1e-8)

    def test_shape_mismatch_rejected(self, rng):
        # Widths may differ; the batch and pair axes may not.
        block = CombinationBlock(2, rng=rng)
        for fac_shape in [(3, 2, 4), (2, 3, 4)]:
            with pytest.raises(ValueError):
                block.combine(Tensor(np.ones((2, 2, 3))),
                              Tensor(np.ones(fac_shape)))
        # The op itself also checks α ([P, 3]) and the noise ([n, P, 3]).
        for alpha_shape, noise_shape in [((2, 4), None), ((2, 3), (2, 2, 2))]:
            noise = None if noise_shape is None else np.zeros(noise_shape)
            with pytest.raises(ValueError):
                gumbel_combine(Tensor(np.zeros(alpha_shape)), noise,
                               Tensor(np.ones((2, 2, 3))),
                               Tensor(np.ones((2, 2, 4))), 1.0)

    def test_unequal_widths_pad_the_narrower(self, rng):
        block = CombinationBlock(2, rng=rng)
        block.eval()
        block.alpha.data = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        out = block.combine(Tensor(np.ones((3, 2, 2))),
                            Tensor(np.full((3, 2, 5), 2.0))).numpy()
        assert out.shape == (3, 2, 5)
        np.testing.assert_allclose(out[:, 0, :2], 1.0, atol=1e-8)
        np.testing.assert_allclose(out[:, 0, 2:], 0.0, atol=1e-8)
        np.testing.assert_allclose(out[:, 1], 2.0, atol=1e-8)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_mixes_with_method_weights(self, mode):
        # Memorized ones, factorized zeros: the output is the weight
        # combine gave the memorized candidate, from the same noise draw.
        def block():
            b = CombinationBlock(3, temperature=0.5,
                                 rng=np.random.default_rng(7))
            b.alpha.data = np.random.default_rng(8).normal(size=(3, 3))
            b.train(mode == "train")
            return b

        out = block().combine(Tensor(np.ones((4, 3, 2))),
                              Tensor(np.zeros((4, 3, 2)))).numpy()
        weights = block().method_weights(batch_size=4)
        expected = np.broadcast_to(weights[..., 0:1], (4, 3, 2))
        assert out.tobytes() == np.ascontiguousarray(expected).tobytes()

    def test_alpha_receives_gradient(self, rng):
        block = CombinationBlock(3, rng=rng)
        block.train()
        e_mem = Tensor(np.random.default_rng(0).normal(size=(4, 3, 2)))
        e_fac = Tensor(np.random.default_rng(1).normal(size=(4, 3, 2)))
        block.combine(e_mem, e_fac).sum().backward()
        assert block.alpha.grad is not None
        assert np.abs(block.alpha.grad).sum() > 0


class TestDerive:
    def test_derive_architecture_argmax(self, rng):
        block = CombinationBlock(3, rng=rng)
        block.alpha.data = np.array([[5.0, 0, 0], [0, 5.0, 0], [0, 0, 5.0]])
        arch = block.derive_architecture()
        assert list(arch) == [Method.MEMORIZE, Method.FACTORIZE, Method.NAIVE]


# ----------------------------------------------------------------------
# Differential harness: the fused op against the composed Tensor ops.
# ----------------------------------------------------------------------
def _pad_last(t, width):
    """Zero-pad the last dimension up to ``width`` (the old model helper)."""
    current = t.shape[-1]
    if current == width:
        return t
    pad = Tensor(np.zeros(t.shape[:-1] + (width - current,)))
    return concatenate([t, pad], axis=-1)


def composed_combine(block, e_memorized, e_factorized):
    """``CombinationBlock.combine`` as it was built from general Tensor ops."""
    width = max(e_memorized.shape[-1], e_factorized.shape[-1])
    e_mem = _pad_last(e_memorized, width)
    e_fac = _pad_last(e_factorized, width)
    n, pairs = e_mem.shape[0], block.num_pairs
    logits = block.alpha
    if block.training:
        logits = logits + Tensor(sample_gumbel((n,) + block.alpha.shape,
                                               block._rng))
    weights = (logits * (1.0 / block.temperature)).softmax(axis=-1)
    if weights.ndim == 3:
        w_mem = weights[:, :, 0].reshape(n, pairs, 1)
        w_fac = weights[:, :, 1].reshape(n, pairs, 1)
    else:
        w_mem = weights[:, 0].reshape(1, pairs, 1)
        w_fac = weights[:, 1].reshape(1, pairs, 1)
    return e_mem * w_mem + e_fac * w_fac


def _wide(rng, shape):
    """Normals over sixteen decades, with signed zeros mixed in."""
    values = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    values[rng.random(shape) < 0.05] = 0.0
    values[rng.random(shape) < 0.05] = -0.0
    return values


def _run(combine, mode, shape, tau, seed):
    n, pairs, d_mem, d_fac = shape
    data = np.random.default_rng(seed)
    block = CombinationBlock(pairs, temperature=tau,
                             rng=np.random.default_rng(seed + 1))
    block.alpha.data = data.normal(scale=3.0, size=(pairs, 3))
    block.train(mode == "train")
    e_mem = Tensor(_wide(data, (n, pairs, d_mem)), requires_grad=True)
    e_fac = Tensor(_wide(data, (n, pairs, d_fac)), requires_grad=True)
    out = combine(block, e_mem, e_fac)
    grad = _wide(data, out.shape)
    grad[: n // 4] = 0.0  # whole rows of zero gradient: signed-zero sums
    out.backward(grad)
    return [t.tobytes() for t in (out.data, e_mem.grad, e_fac.grad,
                                  block.alpha.grad)]


SHAPES = [
    (256, 66, 4, 8),   # the perfbench train shape: hadamard, 4 -> 8
    (32, 10, 4, 1),    # inner: d_fac = 1 padded up to d_mem
    (32, 10, 8, 8),    # equal widths (add / generalized at s1 = s2)
    (32, 10, 16, 8),   # the memorized candidate is the wider one
    (16, 7, 3, 12),    # past one 8-lane block, with leftover lanes
    (16, 7, 21, 5),
]


class TestGumbelCombineDifferential:
    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_bitwise_equal_to_composed(self, mode, shape):
        fused = _run(CombinationBlock.combine, mode, shape, 1.0, 3)
        reference = _run(composed_combine, mode, shape, 1.0, 3)
        for name, a, b in zip(["out", "d_e_mem", "d_e_fac", "d_alpha"],
                              fused, reference):
            assert a == b, name

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_bitwise_equal_with_underflowing_weights(self, mode):
        # tau = 0.01 drives exp() to exactly 0.0, so weight * negative
        # candidate is -0.0 and only the padded lanes' +0.0 tells them apart.
        shape = (64, 12, 4, 8)
        fused = _run(CombinationBlock.combine, mode, shape, 0.01, 9)
        reference = _run(composed_combine, mode, shape, 0.01, 9)
        assert fused == reference


@pytest.fixture(scope="module")
def triple_splits():
    config = SyntheticConfig(cardinalities=[8, 10, 6, 12, 9, 7],
                             n_samples=1200, n_memorizable=1,
                             n_factorizable=1, n_memorizable_triples=1,
                             min_count=1, cross_min_count=1, seed=4)
    dataset, _ = make_dataset(config, with_triples=True, triple_min_count=1)
    return dataset.split((0.7, 0.1, 0.2), rng=np.random.default_rng(0))


def _search_steps(model, dataset, steps=3):
    optimizer = Adam(list(model.parameters()), lr=0.01)
    model.train()
    for _, batch in zip(range(steps), dataset.iter_batches(128)):
        loss = binary_cross_entropy_with_logits(model(batch), batch.y)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
    return {name: p.data.tobytes() for name, p in model.named_parameters()}


def _assert_same_training(build, dataset, monkeypatch):
    fused = _search_steps(build(), dataset)
    monkeypatch.setattr(CombinationBlock, "combine", composed_combine)
    reference = _search_steps(build(), dataset)
    assert fused.keys() == reference.keys()
    assert any("alpha" in name for name in fused)
    for name in fused:
        assert fused[name] == reference[name], name


@pytest.mark.parametrize("factorization",
                         ["hadamard", "inner", "add", "generalized"])
def test_optinter_search_steps_match_composed(tiny_splits, monkeypatch,
                                              factorization):
    train = tiny_splits[0]

    def build():
        return OptInterModel(train.cardinalities, train.cross_cardinalities,
                             embed_dim=8, cross_embed_dim=4, hidden_dims=(16,),
                             factorization=factorization, temperature=0.5,
                             rng=np.random.default_rng(5))

    _assert_same_training(build, train, monkeypatch)


def test_higher_order_search_steps_match_composed(triple_splits,
                                                  monkeypatch):
    train = triple_splits[0]
    assert train.triples

    def build():
        return OptInterModel(
            train.cardinalities, train.cross_cardinalities, embed_dim=4,
            cross_embed_dim=3, hidden_dims=(16,), temperature=0.5,
            rng=np.random.default_rng(5), triples=train.triples,
            triple_cardinalities=train.triple_cardinalities)

    _assert_same_training(build, train, monkeypatch)
