"""Autodiff profiler: op attribution, hook hygiene, numerical neutrality."""

import inspect

import numpy as np
import pytest

import repro.nn.tensor as tensor_module
from repro.models import FNN
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.obs import EventBus, MemorySink, Profiler
from repro.training import Trainer


def _snapshot_hooks():
    """The attributes the profiler patches, for before/after comparison."""
    from repro.obs.profiler import _TENSOR_METHODS

    return {name: getattr(Tensor, name) for name in _TENSOR_METHODS}


class TestOpAttribution:
    def test_forward_ops_recorded(self):
        a = Tensor(np.ones((16, 8)), requires_grad=True)
        b = Tensor(np.ones((8, 4)), requires_grad=True)
        with Profiler() as prof:
            (a @ b).relu().sum()
        assert prof.op_stats["matmul"].calls == 1
        assert prof.op_stats["relu"].calls == 1
        assert prof.op_stats["sum"].calls == 1
        assert prof.op_stats["matmul"].self_s >= 0

    def test_backward_time_attributed(self):
        a = Tensor(np.ones((16, 8)), requires_grad=True)
        b = Tensor(np.ones((8, 4)), requires_grad=True)
        with Profiler() as prof:
            (a @ b).sigmoid().sum().backward()
        assert prof.op_stats["matmul"].backward_calls == 1
        assert prof.op_stats["sigmoid"].backward_calls == 1
        assert prof.op_stats["matmul"].backward_s >= 0

    def test_bytes_touched_counts_output(self):
        a = Tensor(np.ones((10, 10)))
        with Profiler() as prof:
            a + a
        # 100 float64s = 800 bytes.
        assert prof.op_stats["add"].out_bytes == 800

    def test_composite_op_self_time_excludes_children(self):
        a = Tensor(np.ones((64, 64)), requires_grad=True)
        with Profiler() as prof:
            a.mean()
        # mean = sum + mul; the constituents were recorded.
        assert prof.op_stats["sum"].calls == 1
        assert prof.op_stats["mul"].calls == 1
        mean_stat = prof.op_stats["mean"]
        assert mean_stat.self_s <= mean_stat.total_s

    def test_composite_backward_not_double_counted(self):
        a = Tensor(np.ones((8, 8)), requires_grad=True)
        with Profiler() as prof:
            a.mean().backward()
        # mean's output IS mul's output: one backward closure, wrapped
        # once, attributed to the inner op.
        total_bwd = sum(s.backward_calls for s in prof.op_stats.values())
        assert total_bwd == 2  # mul backward + sum backward

    def test_free_functions_recorded(self):
        a = Tensor(np.ones((4, 2)), requires_grad=True)
        b = Tensor(np.ones((4, 2)), requires_grad=True)
        table = Tensor(np.ones((10, 3)), requires_grad=True)
        with Profiler() as prof:
            tensor_module.concatenate([a, b], axis=1)
            tensor_module.stack([a, b])
            tensor_module.embedding_lookup(table, np.array([1, 2]))
            tensor_module.index_select(a, np.array([1, 0]), axis=1)
            tensor_module.where(np.array([True, False]),
                                Tensor(np.ones(2)), Tensor(np.zeros(2)))
        for name in ("concatenate", "stack", "embedding_lookup",
                     "index_select", "where"):
            assert prof.op_stats[name].calls == 1, name

    def test_free_functions_recorded_through_import_sites(self):
        """Modules that did ``from .tensor import embedding_lookup`` are
        patched too — layers.py calls the bound name, not the module attr."""
        from repro.nn.layers import Embedding

        embed = Embedding(12, 4, rng=np.random.default_rng(0))
        with Profiler() as prof:
            embed(np.array([0, 3, 5]))
        assert prof.op_stats["embedding_lookup"].calls == 1

    def test_search_step_attributes_gumbel_combine(self, tiny_splits):
        """The search-mode combination is one op, forward and backward."""
        from repro.core import OptInterModel
        from repro.nn import binary_cross_entropy_with_logits

        train = tiny_splits[0]
        model = OptInterModel(train.cardinalities, train.cross_cardinalities,
                              embed_dim=4, cross_embed_dim=2,
                              hidden_dims=(8,), rng=np.random.default_rng(0))
        model.train()
        batch = next(iter(train.iter_batches(64)))
        with Profiler() as prof:
            binary_cross_entropy_with_logits(model(batch),
                                             batch.y).backward()
        stat = prof.op_stats["gumbel_combine"]
        assert stat.calls == 1 and stat.backward_calls == 1
        assert stat.self_s > 0 and stat.backward_s > 0
        assert "softmax" not in prof.op_stats

    def test_module_forward_times_recorded(self):
        class Doubler(Module):
            def forward(self, x):
                return x * 2.0

        model = Doubler()
        with Profiler() as prof:
            model(Tensor(np.ones(4)))
            model(Tensor(np.ones(4)))
        stat = prof.module_stats["Doubler"]
        assert stat.calls == 2
        assert stat.total_s >= stat.self_s >= 0


class TestSparseGradAccounting:
    """Profiling an embedding whose backward emits a SparseGrad: the
    byte counters must cover the dense forward output and nothing must
    break when the gradient flowing into the table is not an ndarray."""

    def _profiled_lookup(self):
        table = Tensor(np.ones((1000, 8)), requires_grad=True)
        with Profiler() as prof:
            out = tensor_module.embedding_lookup(table, np.array([1, 2, 2]))
            out.sum().backward()
        return table, prof

    def test_backward_produces_sparse_grad_under_profiler(self):
        from repro.nn.sparse import SparseGrad

        table, _prof = self._profiled_lookup()
        assert isinstance(table.grad, SparseGrad)
        assert table.grad.num_rows == 2  # rows 1 and 2, coalesced

    def test_out_bytes_counts_dense_output_not_vocab(self):
        _table, prof = self._profiled_lookup()
        stat = prof.op_stats["embedding_lookup"]
        # 3 gathered rows * 8 dims * 8 bytes — the batch-sized output,
        # never the [1000, 8] table the sparse path avoids densifying.
        assert stat.out_bytes == 3 * 8 * 8
        assert stat.backward_calls == 1
        assert stat.backward_s >= 0

    def test_sparse_and_dense_grads_agree_when_profiled(self):
        dense_table = Tensor(np.ones((50, 4)), requires_grad=True)
        sparse_table = Tensor(np.ones((50, 4)), requires_grad=True)
        indices = np.array([0, 3, 3, 7])
        with Profiler():
            tensor_module.embedding_lookup(
                dense_table, indices, dense_grad=True).sum().backward()
            tensor_module.embedding_lookup(
                sparse_table, indices).sum().backward()
        np.testing.assert_array_equal(sparse_table.grad.to_dense(),
                                      dense_table.grad)


def _builds_op(fn) -> bool:
    """True when ``fn``'s own body constructs an autodiff node."""
    return "._make(" in inspect.getsource(fn)


class TestNameListsCoverEveryOp:
    """The profiler hooks ops by name; a new op must join the lists."""

    def test_every_op_building_free_function_is_hooked(self):
        from repro.obs.profiler import _FREE_FUNCTIONS

        builders = {name for name, fn in vars(tensor_module).items()
                    if inspect.isfunction(fn)
                    and fn.__module__ == tensor_module.__name__
                    and _builds_op(fn)}
        assert builders, "no op-building free functions found"
        assert builders <= set(_FREE_FUNCTIONS), sorted(
            builders - set(_FREE_FUNCTIONS))

    def test_every_op_building_tensor_method_is_hooked(self):
        from repro.obs.profiler import _TENSOR_METHODS

        builders = {name for name, fn in vars(Tensor).items()
                    if inspect.isfunction(fn) and _builds_op(fn)}
        assert builders, "no op-building Tensor methods found"
        assert builders <= set(_TENSOR_METHODS), sorted(
            builders - set(_TENSOR_METHODS))


class TestHookHygiene:
    def test_hooks_restored_on_exit(self):
        before = _snapshot_hooks()
        with Profiler():
            assert getattr(Tensor.__add__, "_obs_original", None) is not None
        after = _snapshot_hooks()
        assert before == after
        assert tensor_module.concatenate.__name__ == "concatenate"

    def test_hooks_restored_on_exception(self):
        before = _snapshot_hooks()
        with pytest.raises(RuntimeError, match="boom"):
            with Profiler():
                raise RuntimeError("boom")
        assert _snapshot_hooks() == before

    def test_disabled_path_is_untouched(self):
        """No profiler active -> the exact original functions are installed,
        i.e. zero added overhead outside the context manager."""
        assert not hasattr(Tensor.__mul__, "_obs_original")
        assert not hasattr(Module.__call__, "_obs_original")
        assert not hasattr(tensor_module.embedding_lookup, "_obs_original")

    def test_concurrent_profilers_rejected(self):
        with Profiler():
            with pytest.raises(RuntimeError, match="already active"):
                with Profiler():
                    pass

    def test_reports_after_exit(self):
        with Profiler() as prof:
            Tensor(np.ones(4)) + 1.0
        table = prof.table()
        assert "add" in table
        assert "wall clock" in table
        assert prof.wall_s > 0
        assert prof.as_dict()["ops"]["add"]["calls"] == 1


class TestEventIntegration:
    def test_op_timing_event_published_on_exit(self):
        sink = MemorySink()
        with Profiler(bus=EventBus([sink])):
            Tensor(np.ones(4)).relu()
        events = sink.of_type("op_timing")
        assert len(events) == 1
        assert events[0].payload["ops"]["relu"]["calls"] == 1
        assert events[0].payload["wall_s"] > 0


def _train_small(tiny_splits, profiled: bool):
    train, val, _ = tiny_splits
    model = FNN(train.cardinalities, embed_dim=4, hidden_dims=(8,),
                rng=np.random.default_rng(0))
    trainer = Trainer(model, Adam(model.parameters(), lr=1e-2),
                      batch_size=128, max_epochs=2,
                      rng=np.random.default_rng(1))
    if profiled:
        with Profiler() as prof:
            history = trainer.fit(train, val)
        assert prof.op_stats  # it really was profiling
    else:
        history = trainer.fit(train, val)
    return model.state_dict(), history


class TestNumericalNeutrality:
    def test_profiled_run_identical_to_unprofiled(self, tiny_splits):
        """The tentpole guarantee: instrumentation must not perturb RNG
        or numerics — profiled and unprofiled runs agree bit-for-bit."""
        state_plain, history_plain = _train_small(tiny_splits, profiled=False)
        state_prof, history_prof = _train_small(tiny_splits, profiled=True)
        assert history_plain.train_losses() == history_prof.train_losses()
        assert history_plain.val_aucs() == history_prof.val_aucs()
        assert set(state_plain) == set(state_prof)
        for name in state_plain:
            np.testing.assert_array_equal(state_plain[name], state_prof[name],
                                          err_msg=name)
