"""Model-level gradients against the math: float64 central differences.

Each model's analytic gradient of the training loss (Eq. 13) is checked,
parameter by parameter and entry by entry, against finite differences
of its own forward pass at tiny sizes (4 fields, dim 2, hidden ``(4,)``).
The differential harnesses prove that two code paths agree; these prove
that the one left computes the derivative of the formula it implements.

Search mode draws fresh Gumbel noise per forward, so the closure
re-seeds every combination block's generator before each pass: the
noise is then a constant of the loss and α's gradient is checkable.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Architecture, OptInterModel
from repro.core.optinter import FACTORIZATIONS
from repro.data import Batch, SyntheticConfig, make_dataset
from repro.models import (
    DCN,
    FFM,
    FNN,
    IPNN,
    OPNN,
    PIN,
    AutoFIS,
    DeepFM,
    FactorizationMachine,
    FmFM,
    FwFM,
    LogisticRegression,
    Poly2,
    WideDeep,
)
from repro.nn import binary_cross_entropy_with_logits
from repro.serving import SERVABLE_MODELS

from ..nn.gradcheck import assert_gradients_close

pytestmark = pytest.mark.invariants

DIM = 2
DEEP = dict(embed_dim=DIM, hidden_dims=(4,))

#: Tiny builders for every family ``repro serve`` can instantiate.
SERVABLE = {
    "LR": lambda d, rng: LogisticRegression(d.cardinalities, rng=rng),
    "FNN": lambda d, rng: FNN(d.cardinalities, **DEEP, rng=rng),
    "FM": lambda d, rng: FactorizationMachine(d.cardinalities, DIM, rng=rng),
    "FwFM": lambda d, rng: FwFM(d.cardinalities, DIM, rng=rng),
    "FmFM": lambda d, rng: FmFM(d.cardinalities, DIM, rng=rng),
    "IPNN": lambda d, rng: IPNN(d.cardinalities, **DEEP, rng=rng),
    "OPNN": lambda d, rng: OPNN(d.cardinalities, **DEEP, rng=rng),
    "DeepFM": lambda d, rng: DeepFM(d.cardinalities, **DEEP, rng=rng),
    "PIN": lambda d, rng: PIN(d.cardinalities, **DEEP, subnet_hidden=3,
                              subnet_out=2, rng=rng),
    "Poly2": lambda d, rng: Poly2(d.cardinalities, d.cross_cardinalities,
                                  rng=rng),
    "WideDeep": lambda d, rng: WideDeep(d.cardinalities,
                                        d.cross_cardinalities, **DEEP,
                                        rng=rng),
    "FFM": lambda d, rng: FFM(d.cardinalities, DIM, rng=rng),
    "DCN": lambda d, rng: DCN(d.cardinalities, **DEEP, rng=rng),
}


@pytest.fixture(scope="module")
def data():
    dataset, _ = make_dataset(
        SyntheticConfig(cardinalities=[3, 4, 3, 4], n_samples=200,
                        n_memorizable=1, n_factorizable=1, min_count=1,
                        cross_min_count=1, seed=0),
        with_triples=True, triple_min_count=1)
    return dataset


def _batch(dataset, n=6):
    return Batch(x=dataset.x[:n], x_cross=dataset.x_cross[:n],
                 y=dataset.y[:n], x_triple=dataset.x_triple[:n])


def _check(model, batch, reseed=()):
    """Gradcheck every parameter of ``model``'s loss on ``batch``;
    ``reseed`` lists combination blocks whose Gumbel noise is frozen."""
    def loss():
        for seed, block in enumerate(reseed):
            block._rng = np.random.default_rng(seed)
        return binary_cross_entropy_with_logits(model(batch), batch.y)

    assert_gradients_close(loss, list(model.parameters()))


def test_every_servable_family_is_covered():
    assert set(SERVABLE) == set(SERVABLE_MODELS)


@pytest.mark.parametrize("name", SERVABLE_MODELS)
def test_servable_family(data, name):
    _check(SERVABLE[name](data, np.random.default_rng(1)), _batch(data))


def test_autofis_with_gates(data):
    model = AutoFIS(data.cardinalities, **DEEP, rng=np.random.default_rng(1))
    # Spread the gates off 1 so each one's gradient is distinct.
    model.gates.data[:] = np.linspace(0.5, 1.5, model.gates.size)
    assert any(p is model.gates for p in model.parameters())
    _check(model, _batch(data))


def test_optinter_search_mode_with_alpha(data):
    model = OptInterModel(data.cardinalities, data.cross_cardinalities,
                          embed_dim=DIM, cross_embed_dim=DIM,
                          hidden_dims=(4,), temperature=0.7,
                          rng=np.random.default_rng(1))
    alpha = model.combination.alpha
    alpha.data[:] = np.random.default_rng(2).normal(size=alpha.shape)
    assert model.training
    _check(model, _batch(data), reseed=[model.combination])


#: OptInter over pairs and triples, in each mode with every factorization
#: (the triple group accepts them all); Hadamard keeps the bare mode id.
TRIPLE_CASES = [(mode, fac) for fac in FACTORIZATIONS
                for mode in ("search", "fixed")]


@pytest.mark.parametrize(
    "mode,factorization", TRIPLE_CASES,
    ids=[mode if fac == "hadamard" else f"{mode}-{fac}"
         for mode, fac in TRIPLE_CASES])
def test_higher_order_optinter(data, mode, factorization):
    num_pairs, num_triples = len(data.cross_cardinalities), len(data.triples)
    pair_arch = triple_arch = None
    if mode == "fixed":
        pair_arch = Architecture.from_assignment(
            (["factorize", "memorize", "naive"] * num_pairs)[:num_pairs])
        triple_arch = Architecture.from_assignment(
            (["memorize", "factorize", "naive"] * num_triples)[:num_triples])
    model = OptInterModel(
        data.cardinalities, data.cross_cardinalities, embed_dim=DIM,
        cross_embed_dim=DIM, hidden_dims=(4,), architecture=pair_arch,
        temperature=0.7, factorization=factorization,
        rng=np.random.default_rng(1), triples=data.triples,
        triple_cardinalities=data.triple_cardinalities,
        triple_architecture=triple_arch)
    blocks = [b for b in (model.combination, model.triple_combination)
              if b is not None]
    for seed, block in enumerate(blocks):
        block.alpha.data[:] = np.random.default_rng(seed + 2).normal(
            size=block.alpha.shape)
    for seed, kernel in enumerate(
            (model.generalized_kernel, model.triple_generalized_kernel)):
        if kernel is not None:
            # Off ones, so a kernel entry's gradient differs from the
            # plain product's.
            kernel.data[:] = np.random.default_rng(seed + 4).normal(
                size=kernel.shape)
    _check(model, _batch(data), reseed=blocks)
