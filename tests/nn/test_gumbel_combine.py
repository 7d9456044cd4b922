"""Finite-difference gradcheck of the fused Gumbel-softmax combine op.

``gumbel_combine`` has one hand-written backward for the whole of the
paper's Eqs. 16-18.  ``tests/core/test_combination.py`` proves it equal
to the composed Tensor ops bit for bit; this checks it against the
math: central differences in float64 over α and both candidates, with
the Gumbel noise frozen, for per-instance (``[n, P, 3]``) and shared
(``[P, 3]``) weights and for candidates of unequal width.
"""

from __future__ import annotations

import pytest

from repro.core import sample_gumbel
from repro.nn import Tensor
from repro.nn.tensor import gumbel_combine

from .gradcheck import assert_gradients_close

WIDTHS = [(3, 5), (5, 2), (4, 4), (4, 1)]


@pytest.mark.parametrize("noisy", [True, False], ids=["train", "eval"])
@pytest.mark.parametrize("d_mem,d_fac", WIDTHS)
def test_gradients_match_finite_differences(rng, noisy, d_mem, d_fac):
    n, pairs = 3, 4
    alpha = Tensor(rng.normal(size=(pairs, 3)), requires_grad=True)
    e_mem = Tensor(rng.normal(size=(n, pairs, d_mem)), requires_grad=True)
    e_fac = Tensor(rng.normal(size=(n, pairs, d_fac)), requires_grad=True)
    noise = sample_gumbel((n, pairs, 3), rng) if noisy else None
    probe = Tensor(rng.normal(size=(n, pairs, max(d_mem, d_fac))))

    def loss():
        return (gumbel_combine(alpha, noise, e_mem, e_fac, 0.7)
                * probe).sum()

    assert_gradients_close(loss, [alpha, e_mem, e_fac])
