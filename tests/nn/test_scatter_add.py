"""Differential harness: every gather backward against ``np.add.at``.

``scatter_add`` (one ``np.bincount`` over flat element positions) backs
the backward of ``Tensor.__getitem__``, ``index_select``,
``embedding_lookup(dense_grad=True)`` and ``SparseGrad.from_rows``.  The
claim is bit-identity with the ``np.add.at`` scatter each of them used
before, so every case below keeps that scatter as its reference and
compares the two gradients byte for byte with ``tobytes()``.  Values
include signed zeros and magnitudes from 1e-8 to 1e8, where any change
in the order of float64 additions would show.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.core.optinter as optinter_module
import repro.models.deep as deep_module
import repro.models.shallow as shallow_module
import repro.nn.functional as functional_module
import repro.nn.sparse as sparse_module
import repro.nn.tensor as tensor_module
from repro.core.architecture import Architecture
from repro.core.optinter import OptInterModel
from repro.data import SyntheticConfig, make_dataset
from repro.models import FFM, IPNN, PIN, AutoFIS, FmFM, FwFM
from repro.models.base import pair_index_arrays
from repro.nn import Adam, SparseGrad, Tensor, binary_cross_entropy_with_logits
from repro.nn.sparse import scatter_add
from repro.nn.tensor import embedding_lookup, index_select

#: Signed zeros, plus values spread over sixteen orders of magnitude.
wide_floats = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0 ** exponent,
              st.sampled_from([-1.0, 1.0]),
              st.floats(1.0, 9.999),
              st.integers(-8, 8)),
)


def wide_arrays(shape):
    return arrays(np.float64, shape, elements=wide_floats)


def shapes(min_dims=1, max_dims=3, max_side=5):
    return st.lists(st.integers(1, max_side), min_size=min_dims,
                    max_size=max_dims).map(tuple)


def int_indices(extent, max_len=12, min_len=0):
    """Indices into an axis of ``extent``: duplicates and negatives."""
    return st.lists(st.integers(-extent, extent - 1), min_size=min_len,
                    max_size=max_len).map(lambda v: np.array(v, dtype=np.int64))


def _add_at(shape, index, values):
    """The reference scatter: ``np.add.at`` into zeros."""
    full = np.zeros(shape)
    np.add.at(full, index, values)
    return full


def _assert_bitwise(actual, expected):
    assert isinstance(actual, np.ndarray)
    assert actual.dtype == np.float64
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _getitem_grads(data, index, out_grad):
    """(scatter_add gradient, np.add.at reference) of ``x[index]``."""
    x = Tensor(data, requires_grad=True)
    out = x[index]
    out.backward(out_grad)
    return x.grad, _add_at(data.shape, index, out_grad)


class TestScatterAdd:
    def test_empty_bins_give_float64_zeros(self):
        out = scatter_add((3, 2), np.zeros((0, 2), dtype=np.int64),
                          np.zeros((0, 2)))
        _assert_bitwise(out, np.zeros((3, 2)))

    def test_result_owns_its_memory(self):
        """A view would cost ``Tensor._accumulate`` one more copy."""
        out = scatter_add((2, 3), np.array([0, 5, 0]), np.ones(3))
        assert out.base is None
        assert out.shape == (2, 3)
        _assert_bitwise(out, _add_at(6, np.array([0, 5, 0]),
                                     np.ones(3)).reshape(2, 3))

    def test_pair_gather_shape(self):
        """The OptInter pair gather: [256, 66, 8] onto [256, 12, 8]."""
        rng = np.random.default_rng(0)
        idx_i, idx_j = np.triu_indices(12, k=1)
        grad = (rng.standard_normal((256, 66, 8))
                * 10.0 ** rng.integers(-8, 9, size=(256, 66, 8)))
        grad[0, :, 0] = -0.0
        for idx in (idx_i, idx_j):
            x = Tensor(np.zeros((256, 12, 8)), requires_grad=True)
            index_select(x, idx, axis=1).backward(grad)
            _assert_bitwise(x.grad, _add_at((256, 12, 8),
                                            (slice(None), idx), grad))


class TestGetitem:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_int_array_with_duplicates_and_negatives(self, data):
        shape = data.draw(shapes())
        index = data.draw(int_indices(shape[0], min_len=1))
        x = data.draw(wide_arrays(shape))
        grad = data.draw(wide_arrays(index.shape + shape[1:]))
        _assert_bitwise(*_getitem_grads(x, index, grad))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_boolean_masks(self, data):
        shape = data.draw(shapes())
        full_mask = data.draw(st.booleans())
        mask_shape = shape if full_mask else shape[:1]
        mask = data.draw(arrays(np.bool_, mask_shape))
        x = data.draw(wide_arrays(shape))
        grad = data.draw(wide_arrays(x[mask].shape))
        _assert_bitwise(*_getitem_grads(x, mask, grad))

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_slice_fancy_mixes_on_non_leading_axes(self, data):
        shape = data.draw(shapes(min_dims=3, max_dims=4))
        a = data.draw(int_indices(shape[1], min_len=1))
        b = data.draw(int_indices(shape[2], max_len=len(a), min_len=len(a)))
        c = data.draw(int_indices(shape[0], max_len=len(a), min_len=len(a)))
        lo = data.draw(st.integers(0, shape[-1]))
        rest = (slice(None),) * (len(shape) - 3)
        index = data.draw(st.sampled_from([
            (slice(None), a),                       # emb[:, idx]
            (slice(None), a, slice(lo, None)),      # fancy then slice
            (slice(None), a, b) + rest,             # adjacent advanced
            (c, slice(None), b) + rest,             # separated: dims move
            (slice(None), a, -1) + rest,            # fancy plus integer
        ]))
        x = data.draw(wide_arrays(shape))
        grad = data.draw(wide_arrays(x[index].shape))
        _assert_bitwise(*_getitem_grads(x, index, grad))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_basic_slices(self, data):
        shape = data.draw(shapes())
        index = tuple(
            slice(data.draw(st.integers(-side, side)),
                  data.draw(st.integers(-side, side)),
                  data.draw(st.sampled_from([1, 2, -1])))
            for side in shape)
        x = data.draw(wide_arrays(shape))
        grad = data.draw(wide_arrays(x[index].shape))
        _assert_bitwise(*_getitem_grads(x, index, grad))

    @pytest.mark.parametrize("index", [
        np.array([], dtype=np.int64),
        np.zeros(4, dtype=bool),
        slice(2, 2),
        (slice(None), np.array([], dtype=np.int64)),
    ], ids=["empty-int", "all-false-mask", "empty-slice", "empty-axis1"])
    def test_empty_selection(self, index):
        data = np.arange(24, dtype=np.float64).reshape(4, 3, 2)
        out_shape = data[index].shape
        assert 0 in out_shape
        _assert_bitwise(*_getitem_grads(data, index, np.zeros(out_shape)))


class TestIndexSelect:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_axis(self, data):
        shape = data.draw(shapes())
        axis = data.draw(st.integers(0, len(shape) - 1))
        indices = data.draw(int_indices(shape[axis]))
        x = Tensor(data.draw(wide_arrays(shape)), requires_grad=True)
        out = index_select(x, indices, axis=axis, dense_grad=True)
        grad = data.draw(wide_arrays(out.shape))
        out.backward(grad)
        # The scatter index_select used before: add.at along axis 0 of
        # the gradient and the target, each moved to lead.
        expected = np.zeros(shape)
        np.add.at(np.moveaxis(expected, axis, 0), indices,
                  np.moveaxis(grad, axis, 0))
        _assert_bitwise(x.grad, expected)


class TestEmbeddingLookup:
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_dense_grad(self, data):
        vocab = data.draw(st.integers(1, 8))
        dim = data.draw(st.integers(1, 4))
        index_shape = data.draw(shapes(min_dims=0, max_dims=2))
        indices = data.draw(arrays(np.int64, index_shape,
                                   elements=st.integers(-vocab, vocab - 1)))
        table = Tensor(data.draw(wide_arrays((vocab, dim))),
                       requires_grad=True)
        out = embedding_lookup(table, indices, dense_grad=True)
        grad = data.draw(wide_arrays(out.shape))
        out.backward(grad)
        expected = _add_at((vocab, dim), indices.reshape(-1),
                           grad.reshape(-1, dim))
        _assert_bitwise(table.grad, expected)

    def test_empty_lookup_sparse_and_dense(self):
        indices = np.zeros((0, 3), dtype=np.int64)
        for dense_grad in (False, True):
            table = Tensor(np.ones((5, 2)), requires_grad=True)
            embedding_lookup(table, indices, dense_grad=dense_grad).backward(
                np.zeros((0, 3, 2)))
            _assert_bitwise(np.asarray(table.grad), np.zeros((5, 2)))


def _reference_from_rows(shape, indices, values):
    """``SparseGrad.from_rows`` as it coalesced with ``np.add.at``."""
    unique, inverse = np.unique(indices, return_inverse=True)
    summed = np.zeros((unique.size, shape[1]))
    np.add.at(summed, inverse, values)
    keep = np.any(summed != 0, axis=1)
    return unique[keep], summed[keep]


class TestFromRows:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_coalescing(self, data):
        rows = data.draw(st.integers(1, 10))
        dim = data.draw(st.integers(1, 4))
        indices = data.draw(st.lists(st.integers(0, rows - 1), max_size=20)
                            .map(lambda v: np.array(v, dtype=np.int64)))
        values = data.draw(wide_arrays((indices.size, dim)))
        sparse = SparseGrad.from_rows((rows, dim), indices, values)
        ref_indices, ref_values = _reference_from_rows((rows, dim), indices,
                                                       values)
        assert sparse.indices.tobytes() == ref_indices.tobytes()
        _assert_bitwise(sparse.values, ref_values)

    def test_empty(self):
        sparse = SparseGrad.from_rows((4, 3), np.array([], dtype=np.int64),
                                      np.zeros((0, 3)))
        assert sparse.num_rows == 0
        assert sparse.values.dtype == np.float64
        assert sparse.values.shape == (0, 3)


# ----------------------------------------------------------------------
# Model level: swap the gathers for the references and train.
# ----------------------------------------------------------------------
def _flat_add_at(shape, bins, values):
    full = np.zeros(int(np.prod(shape)))
    np.add.at(full, bins.reshape(-1), values.reshape(-1))
    return full.reshape(shape)


def _getitem_pair_gather(x, indices, axis):
    """The pair gather the families used before: ``emb[:, idx, :]``."""
    return x[(slice(None),) * axis + (indices,)]


def _ffm_reference_forward(self, batch):
    """FFM's field-aware 2-D gather on the ``[n, M, M, d]`` latent."""
    n = batch.x.shape[0]
    first_order = self.weights(batch.x).sum(axis=(1, 2))
    latent = self.latent(batch.x).reshape(
        n, self.num_fields, self.num_fields, self.embed_dim)
    idx_i, idx_j = pair_index_arrays(self.num_fields)
    second_order = (latent[:, idx_i, idx_j, :]
                    * latent[:, idx_j, idx_i, :]).sum(axis=(1, 2))
    return first_order + second_order + self.bias


def _assignment(methods, count):
    return Architecture.from_assignment((methods * count)[:count])


def _higher_order(dataset, rng, search):
    pairs, triples = len(dataset.cross_cardinalities), len(dataset.triples)
    return OptInterModel(
        dataset.cardinalities, dataset.cross_cardinalities, embed_dim=4,
        cross_embed_dim=4, hidden_dims=(16,),
        architecture=None if search else _assignment(
            ["factorize", "memorize", "naive"], pairs),
        rng=rng, triples=dataset.triples,
        triple_cardinalities=dataset.triple_cardinalities,
        triple_architecture=None if search else _assignment(
            ["memorize", "factorize", "naive"], triples))


def _optinter(dataset, rng, search):
    pairs = len(dataset.cross_cardinalities)
    return OptInterModel(
        dataset.cardinalities, dataset.cross_cardinalities, embed_dim=4,
        cross_embed_dim=4, hidden_dims=(16,),
        architecture=None if search else _assignment(
            ["factorize", "memorize", "naive"], pairs),
        rng=rng)


#: Every family whose pair gather goes through ``index_select``.
FAMILIES = {
    "search": lambda d, rng: _optinter(d, rng, search=True),
    "fixed": lambda d, rng: _optinter(d, rng, search=False),
    "higher-order-search": lambda d, rng: _higher_order(d, rng, search=True),
    "higher-order-fixed": lambda d, rng: _higher_order(d, rng, search=False),
    "FwFM": lambda d, rng: FwFM(d.cardinalities, 4, rng=rng),
    "FmFM": lambda d, rng: FmFM(d.cardinalities, 4, rng=rng),
    "IPNN": lambda d, rng: IPNN(d.cardinalities, 4, (16,), rng=rng),
    "PIN": lambda d, rng: PIN(d.cardinalities, 4, (16,), rng=rng),
    "AutoFIS": lambda d, rng: AutoFIS(d.cardinalities, 4, (16,), rng=rng),
    "FFM": lambda d, rng: FFM(d.cardinalities, 4, rng=rng),
}


@pytest.fixture(scope="module")
def triple_train():
    dataset, _ = make_dataset(
        SyntheticConfig(cardinalities=[8, 10, 6, 12, 9], n_samples=600,
                        n_memorizable=1, n_factorizable=1,
                        n_memorizable_triples=1, min_count=1,
                        cross_min_count=1, seed=7),
        with_triples=True, triple_min_count=1)
    return dataset


def _train_params(dataset, batches, family):
    model = FAMILIES[family](dataset, np.random.default_rng(5))
    optimizer = Adam(list(model.parameters()), lr=0.01)
    for batch in batches:
        loss = binary_cross_entropy_with_logits(model(batch), batch.y)
        loss.backward()
        optimizer.step()
        optimizer.zero_grad()
    return {name: p.data.tobytes() for name, p in model.named_parameters()}


@pytest.mark.invariants
@pytest.mark.parametrize("family", list(FAMILIES))
def test_optinter_training_matches_add_at_reference(triple_train, monkeypatch,
                                                    family):
    """Three Adam steps of every ported family, bit for bit against the
    gathers they replaced: ``__getitem__`` plus an ``np.add.at`` scatter
    (and FFM's 2-D gather on the 4-D latent)."""
    batches = [b for _, b in zip(range(3), triple_train.iter_batches(64))]

    fast = _train_params(triple_train, batches, family)
    monkeypatch.setattr(tensor_module, "scatter_add", _flat_add_at)
    monkeypatch.setattr(sparse_module, "scatter_add", _flat_add_at)
    for module in (functional_module, shallow_module, deep_module,
                   optinter_module):
        monkeypatch.setattr(module, "index_select", _getitem_pair_gather)
    monkeypatch.setattr(FFM, "forward", _ffm_reference_forward)
    reference = _train_params(triple_train, batches, family)

    assert fast.keys() == reference.keys()
    for name in fast:
        assert fast[name] == reference[name], name
