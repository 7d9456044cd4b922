"""Search-stage observability: α snapshots reconstruct the selection."""

import numpy as np
import pytest

from repro.core import Architecture, SearchConfig, search_bilevel, search_optinter
from repro.core.architecture import METHOD_ORDER
from repro.data import SyntheticConfig, make_dataset
from repro.models import FNN
from repro.nn import Adam
from repro.obs import EventBus, MemorySink, read_trace
from repro.obs.tracing import Tracer, sequential_ids
from repro.resilience import RecoveryPolicy
from repro.resilience.faults import BatchCorruptor, FaultyDataset
from repro.training import Trainer


def _config(**overrides):
    base = dict(embed_dim=4, cross_embed_dim=2, hidden_dims=(8,),
                epochs=2, batch_size=128, lr=5e-3, lr_arch=2e-2,
                temperature_start=1.0, temperature_end=0.4, seed=0)
    base.update(overrides)
    return SearchConfig(**base)


class TestSearchAlphaEvents:
    def test_one_snapshot_per_epoch(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        search_optinter(train, val, _config(), bus=EventBus([sink]))
        snapshots = sink.of_type("search_alpha")
        assert len(snapshots) == 2
        assert [e.payload["epoch"] for e in snapshots] == [0, 1]
        assert all(e.payload["stage"] == "search" for e in snapshots)

    def test_final_snapshot_matches_search_result(self, tiny_splits):
        """Acceptance: the per-pair selection is reconstructable from the
        trace alone and equals the returned ``SearchResult``."""
        train, val, _ = tiny_splits
        sink = MemorySink()
        result = search_optinter(train, val, _config(), bus=EventBus([sink]))
        final = sink.of_type("search_alpha")[-1].payload
        assert final["methods"] == [m.value for m in result.architecture]
        assert final["counts"] == result.architecture.counts()
        np.testing.assert_allclose(np.asarray(final["alpha"]), result.alpha)
        rebuilt = Architecture.from_alpha(np.asarray(final["alpha"]))
        assert rebuilt == result.architecture

    def test_snapshot_shapes_and_probabilities(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        search_optinter(train, val, _config(epochs=1), bus=EventBus([sink]))
        payload = sink.of_type("search_alpha")[0].payload
        num_pairs = train.num_pairs
        alpha = np.asarray(payload["alpha"])
        probs = np.asarray(payload["probabilities"])
        assert alpha.shape == (num_pairs, len(METHOD_ORDER))
        assert probs.shape == (num_pairs, len(METHOD_ORDER))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert len(payload["methods"]) == num_pairs

    def test_pairs_only_payload_keys(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        search_optinter(train, val, _config(epochs=1), bus=EventBus([sink]))
        payload = sink.of_type("search_alpha")[0].payload
        assert list(payload) == ["stage", "epoch", "temperature", "alpha",
                                 "probabilities", "methods", "counts"]

    def test_triple_group_rides_along(self):
        """With triples, the snapshot also replays the triple decisions:
        the final one equals the result's ``triple_architecture``."""
        config = SyntheticConfig(cardinalities=[8, 10, 6, 12, 9],
                                 n_samples=1500, n_memorizable=1,
                                 n_factorizable=1, n_memorizable_triples=1,
                                 min_count=1, cross_min_count=1, seed=4)
        dataset, _ = make_dataset(config, with_triples=True,
                                  triple_min_count=1)
        train, val, _ = dataset.split((0.7, 0.1, 0.2),
                                      rng=np.random.default_rng(0))
        sink = MemorySink()
        result = search_optinter(train, val, _config(), bus=EventBus([sink]))
        final = sink.of_type("search_alpha")[-1].payload
        assert list(final)[:7] == ["stage", "epoch", "temperature", "alpha",
                                   "probabilities", "methods", "counts"]
        assert final["methods"] == [m.value for m in result.architecture]
        triple = result.triple_architecture
        assert final["triple_methods"] == [m.value for m in triple]
        assert final["triple_counts"] == triple.counts()
        alpha = np.asarray(final["triple_alpha"])
        probs = np.asarray(final["triple_probabilities"])
        assert alpha.shape == probs.shape == (len(train.triples),
                                              len(METHOD_ORDER))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert Architecture.from_alpha(alpha) == triple

    def test_temperature_annealing_visible_in_trace(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        search_optinter(train, val, _config(epochs=3), bus=EventBus([sink]))
        temps = [e.payload["temperature"] for e in sink.of_type("search_alpha")]
        assert temps[0] == 1.0
        assert temps[-1] == 0.4
        assert temps == sorted(temps, reverse=True)

    def test_epoch_end_events_accompany_snapshots(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        result = search_optinter(train, val, _config(), bus=EventBus([sink]))
        epochs = sink.of_type("epoch_end")
        assert len(epochs) == len(result.history)
        assert epochs[0].payload["train_loss"] == result.history.records[0].train_loss

    def test_search_without_bus_emits_nothing(self, tiny_splits):
        train, val, _ = tiny_splits
        result = search_optinter(train, val, _config())
        assert result.architecture.num_pairs == train.num_pairs

    def test_events_unchanged_by_observation(self, tiny_splits):
        """Attaching a bus must not perturb the search trajectory."""
        train, val, _ = tiny_splits
        plain = search_optinter(train, val, _config())
        observed = search_optinter(train, val, _config(),
                                   bus=EventBus([MemorySink()]))
        np.testing.assert_array_equal(plain.alpha, observed.alpha)
        assert plain.architecture == observed.architecture

    def test_jsonl_trace_round_trip(self, tiny_splits, tmp_path):
        train, val, _ = tiny_splits
        path = tmp_path / "search.jsonl"
        with EventBus.to_jsonl(path) as bus:
            result = search_optinter(train, val, _config(), bus=bus)
        events = read_trace(path, "search_alpha")
        assert len(events) == 2
        assert events[-1].payload["methods"] == [m.value
                                                 for m in result.architecture]

    def test_bilevel_search_also_traced(self, tiny_splits):
        train, val, _ = tiny_splits
        sink = MemorySink()
        result = search_bilevel(train, val, _config(epochs=1),
                                bus=EventBus([sink]))
        snapshots = sink.of_type("search_alpha")
        assert len(snapshots) == 1
        assert snapshots[0].payload["stage"] == "bilevel"
        assert snapshots[0].payload["methods"] == [m.value
                                                   for m in result.architecture]


def _event_shape(sink):
    """Each event as ``(type, span name, parent span name, payload keys)``;
    a span's ``attrs`` keys follow its own, prefixed ``attrs.``."""
    names = {e.payload["span_id"]: e.payload["name"]
             for e in sink.events if e.type == "span"}
    shape = []
    for event in sink.events:
        keys = list(event.payload)
        if event.type != "span":
            shape.append((event.type, None, None, keys))
            continue
        keys += [f"attrs.{key}" for key in event.payload.get("attrs", {})]
        shape.append(("span", event.payload["name"],
                      names.get(event.payload["parent_id"]), keys))
    return shape


def _traced():
    sink = MemorySink()
    bus = EventBus([sink])
    return sink, bus, Tracer(bus=bus, ids=sequential_ids("s"))


_SPAN = ["name", "trace_id", "span_id", "parent_id", "start", "duration_s",
         "status"]
_EPOCH_END = ["stage", "epoch", "train_loss", "val_auc", "val_log_loss"]
_ALPHA = ["stage", "epoch", "temperature", "alpha", "probabilities",
          "methods", "counts"]


def _search_epoch(extra_before=()):
    return [*extra_before,
            ("search_alpha", None, None, _ALPHA),
            ("epoch_end", None, None, _EPOCH_END),
            ("span", "search.alpha_update", "search.epoch",
             _SPAN + ["attrs", "attrs.epoch"]),
            ("span", "search.epoch", "search.run",
             _SPAN + ["attrs", "attrs.epoch", "attrs.temperature",
                      "attrs.train_loss"])]


@pytest.mark.invariants
class TestEventStreamPinned:
    """The ordered event stream of each loop, pinned: types, span names
    and parentage, and payload keys in emission order."""

    def test_checkpointed_guarded_search(self, tiny_splits, tmp_path):
        train, val, _ = tiny_splits
        sink, bus, tracer = _traced()
        search_optinter(FaultyDataset(train, BatchCorruptor(at_batch=1)),
                        val, _config(), bus=bus, tracer=tracer,
                        checkpoint_dir=tmp_path,
                        recovery=RecoveryPolicy(max_batch_skips=2))
        checkpoint = ("checkpoint", None, None,
                      ["epoch", "global_step", "path"])
        skip = ("recovery", None, None,
                ["action", "reason", "strikes", "stage", "epoch", "step",
                 "loss"])
        assert _event_shape(sink) == [
            *_search_epoch([skip]), checkpoint,
            *_search_epoch(), checkpoint,
            ("span", "search.run", None,
             _SPAN + ["attrs", "attrs.stage", "attrs.epochs", "attrs.steps"]),
        ]

    def test_bilevel_search(self, tiny_splits):
        train, val, _ = tiny_splits
        sink, bus, tracer = _traced()
        search_bilevel(train, val, _config(), bus=bus, tracer=tracer)
        assert _event_shape(sink) == [
            *_search_epoch(), *_search_epoch(),
            ("span", "search.run", None,
             _SPAN + ["attrs", "attrs.stage", "attrs.epochs", "attrs.steps"]),
        ]
        # Every Θ update applied: two epochs of ceil(n / 128) batches.
        assert sink.events[-1].payload["attrs"]["steps"] == \
            2 * -(-len(train) // 128)

    def test_validated_trainer_fit(self, tiny_splits):
        train, val, _ = tiny_splits
        sink, bus, tracer = _traced()
        model = FNN(train.cardinalities, embed_dim=4, hidden_dims=(8,),
                    rng=np.random.default_rng(0))
        Trainer(model, Adam(model.parameters(), lr=3e-3), batch_size=128,
                max_epochs=2, rng=np.random.default_rng(1), bus=bus,
                tracer=tracer).fit(train, val)
        epoch = [
            ("span", "train.eval", "train.epoch",
             _SPAN + ["attrs", "attrs.split", "attrs.epoch", "attrs.auc"]),
            ("eval", None, None, ["split", "epoch", "auc", "log_loss"]),
            ("span", "train.epoch", "train.run",
             _SPAN + ["attrs", "attrs.epoch", "attrs.train_loss"]),
            ("epoch_end", None, None,
             ["epoch_s", "epoch", "train_loss", "val_auc", "val_log_loss"]),
        ]
        assert _event_shape(sink) == [
            ("run_start", None, None,
             ["model", "params", "n_train", "n_val", "batch_size",
              "max_epochs"]),
            *epoch, *epoch,
            ("run_end", None, None, ["epochs_run", "best_val_auc", "wall_s"]),
            ("span", "train.run", None,
             _SPAN + ["attrs", "attrs.model", "attrs.epochs_run",
                      "attrs.best_val_auc"]),
        ]
