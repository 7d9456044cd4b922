"""Trainer hardening: gradient clipping, LR decay, NaN guard."""

import numpy as np
import pytest

from repro.models import FNN, LogisticRegression
from repro.nn import Adam, SGD
from repro.resilience.faults import GradientPoison
from repro.training import Trainer


class TestGradClipping:
    def test_clips_global_norm(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        observed = []

        def spy(m, batch, loss):
            total = sum(float((p.grad * p.grad).sum())
                        for p in m.parameters() if p.grad is not None)
            observed.append(np.sqrt(total))

        # SGD leaves grads untouched after step, so the hook (called after
        # step) still sees the clipped gradients.
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1),
                          batch_size=256, max_epochs=1, rng=rng,
                          grad_clip_norm=1e-4, on_step=spy)
        trainer.fit(train)
        assert observed
        assert max(observed) <= 1e-4 * (1 + 1e-9)

    def test_no_clipping_below_threshold(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1),
                          batch_size=256, max_epochs=1, rng=rng,
                          grad_clip_norm=1e9)
        history = trainer.fit(train)  # must simply not crash
        assert len(history) == 1

    def test_nan_gradient_stays_in_its_parameter(self, tiny_splits, rng):
        # Unguarded, a poisoned gradient is applied; clipping must not
        # spread its NaN norm to every other parameter.
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1),
                          batch_size=len(train), max_epochs=1, rng=rng,
                          grad_clip_norm=1e-4,
                          on_backward=GradientPoison(at_step=0,
                                                     param_name="bias"))
        trainer.fit(train)
        assert np.isnan(model.bias.data).all()
        assert np.isfinite(model.weights.table.weight.data).all()

    def test_invalid_threshold(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        with pytest.raises(ValueError):
            Trainer(model, SGD(model.parameters(), lr=0.1),
                    grad_clip_norm=0.0)


class TestLRDecay:
    def test_decays_every_epoch(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        optimizer = Adam(model.parameters(), lr=0.1)
        trainer = Trainer(model, optimizer, batch_size=256, max_epochs=3,
                          rng=rng, lr_decay=0.5)
        trainer.fit(train)
        np.testing.assert_allclose(optimizer.param_groups[0]["lr"],
                                   0.1 * 0.5**3)

    def test_decay_of_one_is_identity(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        optimizer = Adam(model.parameters(), lr=0.1)
        Trainer(model, optimizer, batch_size=256, max_epochs=2, rng=rng,
                lr_decay=1.0).fit(train)
        assert optimizer.param_groups[0]["lr"] == 0.1

    def test_invalid_decay(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = LogisticRegression(train.cardinalities, rng=rng)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters()), lr_decay=0.0)
        with pytest.raises(ValueError):
            Trainer(model, Adam(model.parameters()), lr_decay=1.5)


class TestNaNGuard:
    def test_nan_loss_raises(self, tiny_splits, rng):
        train, _, _ = tiny_splits
        model = FNN(train.cardinalities, embed_dim=4, hidden_dims=(8,),
                    rng=rng)
        # Poison the weights so the forward pass produces NaN.
        model.embedding.table.weight.data[:] = np.nan
        trainer = Trainer(model, Adam(model.parameters()), batch_size=256,
                          max_epochs=1, rng=rng)
        with pytest.raises(RuntimeError, match="non-finite"):
            trainer.fit(train)
