"""The stacked row-wise matmul kernel equals per-row BLAS, bit for bit.

``rowwise_matmul`` scoring is bitwise equal to scoring each row alone only
if ``_rowwise_mm(a, b)[i]`` is exactly ``a[i:i+1] @ b`` — the product a
batch of one computes.  The kernel hands numpy's matmul the rows as a
stack of ``[1, k]`` matrices; these tests pin that it still makes the
single-row call for every row, on the shapes serving multiplies and on
operand layouts that change the BLAS call numpy picks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor, _rowwise_mm, rowwise_matmul

# The serve-closed model's MLP on a batch of 32: OptInter on the criteo
# `quick` schema (12 fields x 8 dims + 22 memorized pairs x 4 + 22
# factorized pairs x 8 = 360 inputs), hidden (32, 32), one logit.
SERVE_CLOSED_SHAPES = [(32, 360, 32), (32, 32, 32), (32, 32, 1)]
EDGE_SHAPES = [(7, 1, 5), (7, 5, 1), (2, 1, 1), (33, 129, 65)]


def per_row(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a[i:i + 1] @ b for i in range(a.shape[0])])


def operands(n: int, k: int, m: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k)), rng.standard_normal((k, m))


@pytest.mark.parametrize("n,k,m", SERVE_CLOSED_SHAPES + EDGE_SHAPES)
class TestStackedKernelEqualsPerRowBlas:
    def test_contiguous(self, n, k, m):
        a, b = operands(n, k, m)
        out = _rowwise_mm(a, b)
        assert out.shape == (n, m) and out.dtype == np.float64
        assert np.array_equal(out, per_row(a, b))

    def test_non_contiguous_a(self, n, k, m):
        a, b = operands(n, k + 3, m)
        a = a[:, 1:k + 1]  # a column slice: rows are strided views
        b = b[:k]
        assert not a.flags.c_contiguous
        assert np.array_equal(_rowwise_mm(a, b), per_row(a, b))

    def test_transposed_b(self, n, k, m):
        a, b = operands(n, k, m)
        b = np.ascontiguousarray(b.T).T  # same values, Fortran layout
        assert np.array_equal(_rowwise_mm(a, b), per_row(a, b))

    def test_fortran_a(self, n, k, m):
        a, b = operands(n, k, m)
        a = np.asfortranarray(a)
        assert np.array_equal(_rowwise_mm(a, b), per_row(a, b))


def test_tensor_matmul_under_rowwise_uses_the_kernel():
    a, b = operands(*SERVE_CLOSED_SHAPES[0], seed=3)
    with rowwise_matmul():
        batched = (Tensor(a) @ Tensor(b)).data
        single = [(Tensor(a[i:i + 1]) @ Tensor(b)).data for i in range(32)]
    assert np.array_equal(batched, np.concatenate(single))
    assert np.array_equal(batched, per_row(a, b))
