"""Differential harness: the sparse gradient path must be bit-for-bit
identical to the dense path.

The same OptInter model (fixed mixed architecture, so both the field
table and the cross table train) is trained twice on the same batches —
once with sparse embedding gradients (the default) and once with
``dense_grad=True`` — under each of the four optimizers the sparse path
specialises.  Losses, every parameter array, and checkpoint content
checksums must match *bitwise*, including when the sparse run is
interrupted mid-run, checkpointed, and resumed into fresh objects.

Gradient clipping is deliberately not enabled here: the global-norm
reduction sums per-parameter squares in a different grouping for sparse
vs dense gradients, which is mathematically equal but not bitwise (see
docs/performance.md).
"""

from __future__ import annotations

import io

import numpy as np
import pytest

from repro.core.architecture import Architecture
from repro.core.optinter import OptInterModel
from repro.nn import (
    GRDA,
    SGD,
    Adam,
    SparseAdam,
    SparseGrad,
    binary_cross_entropy_with_logits,
)
from repro.resilience.checkpoint import TrainingCheckpoint

pytestmark = pytest.mark.invariants

OPTIMIZERS = {
    "sgd_momentum": lambda params: SGD(params, lr=0.05, momentum=0.9),
    "adam": lambda params: Adam(params, lr=0.01),
    "sparse_adam": lambda params: SparseAdam(params, lr=0.01),
    "grda": lambda params: GRDA(params, lr=0.05, c=1e-4, mu=0.51),
}

STEPS = 6


def _make_model(dataset, dense_grad: bool) -> OptInterModel:
    num_pairs = len(dataset.cross_cardinalities)
    methods = (["memorize", "factorize", "naive"] * num_pairs)[:num_pairs]
    return OptInterModel(
        dataset.cardinalities,
        dataset.cross_cardinalities,
        embed_dim=4,
        cross_embed_dim=4,
        hidden_dims=(16,),
        architecture=Architecture.from_assignment(methods),
        rng=np.random.default_rng(123),
        dense_grad=dense_grad,
    )


def _take_batches(dataset, batch_size: int = 64, steps: int = STEPS):
    batches = []
    while len(batches) < steps:
        for batch in dataset.iter_batches(batch_size, drop_last=True):
            batches.append(batch)
            if len(batches) == steps:
                break
    return batches


def _train(model, optimizer, batches):
    losses = []
    for batch in batches:
        logits = model(batch)
        loss = binary_cross_entropy_with_logits(logits, batch.y)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
        losses.append(loss.item())
    return losses


def _param_bytes(model):
    return {name: param.data.tobytes()
            for name, param in model.named_parameters()}


def _checkpoint_checksum(model, optimizer, step: int) -> str:
    """Content checksum of a serialised checkpoint (independent of zip
    framing, so comparable across runs)."""
    blob = TrainingCheckpoint.capture(
        model, optimizer, epoch=0, global_step=step).to_bytes()
    with np.load(io.BytesIO(blob), allow_pickle=False) as archive:
        return str(archive["__checksum__"])


def test_sparse_path_actually_produces_sparse_grads(tiny_splits):
    """Guard against the harness silently comparing dense to dense."""
    train = tiny_splits[0]
    batch = _take_batches(train, steps=1)[0]

    sparse_model = _make_model(train, dense_grad=False)
    loss = binary_cross_entropy_with_logits(sparse_model(batch), batch.y)
    loss.backward()
    field_grad = sparse_model.embedding.table.weight.grad
    cross_grad = sparse_model.cross_embedding.table.weight.grad
    assert isinstance(field_grad, SparseGrad)
    assert isinstance(cross_grad, SparseGrad)
    # On this toy table the batch touches most rows; the memory win at
    # realistic table sizes is asserted by benchmarks/sparse_perf.py.
    assert field_grad.num_rows <= field_grad.shape[0]

    dense_model = _make_model(train, dense_grad=True)
    loss = binary_cross_entropy_with_logits(dense_model(batch), batch.y)
    loss.backward()
    assert isinstance(dense_model.embedding.table.weight.grad, np.ndarray)


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_sparse_matches_dense_bitwise(tiny_splits, name):
    train = tiny_splits[0]
    batches = _take_batches(train)
    results = {}
    for dense_grad in (False, True):
        model = _make_model(train, dense_grad)
        optimizer = OPTIMIZERS[name](list(model.parameters()))
        losses = _train(model, optimizer, batches)
        results[dense_grad] = (
            losses,
            _param_bytes(model),
            _checkpoint_checksum(model, optimizer, len(batches)),
        )
    sparse, dense = results[False], results[True]
    assert sparse[0] == dense[0], "losses diverged"
    assert sparse[1] == dense[1], "parameters diverged"
    assert sparse[2] == dense[2], "checkpoints diverged"


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_resume_from_checkpoint_mid_run_bitwise(tiny_splits, name):
    """Sparse run interrupted at step 3 and resumed into fresh objects
    must land exactly where the uninterrupted run (and the dense run)
    does — slot state, active-set caches and all."""
    train = tiny_splits[0]
    batches = _take_batches(train)
    mid = STEPS // 2

    model = _make_model(train, dense_grad=False)
    optimizer = OPTIMIZERS[name](list(model.parameters()))
    full_losses = _train(model, optimizer, batches)

    first = _make_model(train, dense_grad=False)
    first_opt = OPTIMIZERS[name](list(first.parameters()))
    _train(first, first_opt, batches[:mid])
    blob = TrainingCheckpoint.capture(
        first, first_opt, epoch=0, global_step=mid).to_bytes()

    resumed = _make_model(train, dense_grad=False)
    resumed_opt = OPTIMIZERS[name](list(resumed.parameters()))
    TrainingCheckpoint.from_bytes(blob).restore(resumed, resumed_opt)
    resumed_losses = _train(resumed, resumed_opt, batches[mid:])

    assert resumed_losses == full_losses[mid:], "post-resume losses diverged"
    assert _param_bytes(resumed) == _param_bytes(model)
    assert (_checkpoint_checksum(resumed, resumed_opt, STEPS)
            == _checkpoint_checksum(model, optimizer, STEPS))

    dense_model = _make_model(train, dense_grad=True)
    dense_opt = OPTIMIZERS[name](list(dense_model.parameters()))
    _train(dense_model, dense_opt, batches)
    assert _param_bytes(resumed) == _param_bytes(dense_model)
