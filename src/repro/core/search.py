"""Search-stage algorithms (paper §II-C2, Algorithm 1; ablation §III-E).

Three ways to obtain an architecture:

* :func:`search_optinter` — the paper's algorithm: Θ and α updated
  *simultaneously* on the same training batch by gradient descent, with the
  Gumbel-softmax temperature annealed towards hard selections.
* :func:`search_bilevel` — the DARTS-style ablation baseline: Θ steps on
  training batches alternate with α steps on validation batches.  The paper
  finds this converges worse for CTR (and needs ~2x memory).
* :func:`random_architecture` — the Random baseline of Table VIII.

The first two run on :class:`~repro.training.trainer.Trainer`'s epoch
loop, configured by :class:`SearchTrainer` and :class:`BilevelTrainer`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..data.dataset import Batch, CTRDataset
from ..fsutil import PathLike
from ..nn.losses import binary_cross_entropy_with_logits
from ..nn.optim import Adam, Optimizer
from ..obs.events import EventBus
from ..obs.tracing import Tracer
from ..resilience.recovery import DivergenceGuard, RecoveryPolicy
from ..training.history import EpochRecord, History
from ..training.trainer import Trainer, evaluate_model, guarded_backward
from .architecture import Architecture
from .optinter import OptInterModel


@dataclass
class SearchConfig:
    """Hyper-parameters for the search stage (paper Table IV naming).

    ``lr`` is the network learning rate (lr_o / lr_c), ``lr_arch`` the
    architecture-parameter learning rate (lr_a), ``l2_cross`` the L2 penalty
    on the cross-product embedding table (l2_c).
    """

    embed_dim: int = 8
    cross_embed_dim: int = 4
    hidden_dims: Sequence[int] = (64, 64)
    layer_norm: bool = True
    factorization: str = "hadamard"
    lr: float = 2e-3
    lr_arch: float = 1e-2
    l2_cross: float = 1e-2
    batch_size: int = 256
    epochs: int = 3
    temperature_start: float = 1.0
    temperature_end: float = 0.3
    seed: int = 0
    verbose: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.temperature_start <= 0 or self.temperature_end <= 0:
            raise ValueError(
                "temperatures must be positive, got "
                f"{self.temperature_start} -> {self.temperature_end}")


@dataclass
class SearchResult:
    """Outcome of a search stage; ``triple_architecture`` is ``None``
    unless the training data carried triples."""

    architecture: Architecture
    alpha: np.ndarray
    history: History
    model: OptInterModel
    triple_architecture: Optional[Architecture] = None

    @classmethod
    def of(cls, model: OptInterModel, history: History) -> "SearchResult":
        """The searched model with its argmax decodes and final pair α."""
        architecture, triple_architecture = model.derive_architectures()
        return cls(architecture, model.combination.alpha.data.copy(),
                   history, model, triple_architecture)


def _annealed_temperature(config: SearchConfig, epoch: int) -> float:
    """Exponential decay from temperature_start to temperature_end."""
    if config.epochs <= 1:
        return config.temperature_end
    ratio = config.temperature_end / config.temperature_start
    return config.temperature_start * ratio ** (epoch / (config.epochs - 1))


def _build_search_model(train: CTRDataset, config: SearchConfig,
                        rng: np.random.Generator) -> OptInterModel:
    """The search-mode model; it searches triples too when ``train``
    carries them."""
    if train.x_cross is None:
        raise ValueError("search requires cross-product features on the dataset")
    triples = train.triples if train.x_triple is not None else None
    return OptInterModel(
        cardinalities=train.cardinalities,
        cross_cardinalities=train.cross_cardinalities,
        embed_dim=config.embed_dim,
        cross_embed_dim=config.cross_embed_dim,
        hidden_dims=config.hidden_dims,
        layer_norm=config.layer_norm,
        temperature=config.temperature_start,
        factorization=config.factorization,
        rng=rng,
        triples=triples,
        triple_cardinalities=train.triple_cardinalities,
    )


def table_iv_groups(model: OptInterModel, lr: float, l2_cross: float,
                    lr_arch: Optional[float] = None) -> List[Dict]:
    """Adam groups mirroring Table IV: the network at ``lr`` (lr_o / lr_c),
    every group's memorized embedding table with its own L2 penalty
    (l2_c), and every group's α at ``lr_arch`` (lr_a).

    Without ``lr_arch`` α is left out (the bi-level search steps it with
    its own optimizer).  Group and parameter order are part of the Adam
    state and checkpoint layout.
    """
    cross_params = model.cross_parameters()
    alpha = model.architecture_parameters()
    skip = {id(p) for p in cross_params + alpha}
    groups = [{"params": [p for p in model.parameters() if id(p) not in skip],
               "lr": lr}]
    if cross_params:
        groups.append({"params": cross_params, "lr": lr,
                       "weight_decay": l2_cross})
    if alpha and lr_arch is not None:
        groups.append({"params": alpha, "lr": lr_arch})
    return groups


class SearchTrainer(Trainer):
    """A search stage as a :class:`Trainer` configuration (Alg. 1).

    Every epoch first anneals the model's Gumbel-softmax temperature
    (the ``search.epoch`` span carries it).  After the validation pass
    a ``search.alpha_update`` span publishes the pair α's
    ``search_alpha`` snapshot and the ``epoch_end`` event, both led by
    ``stage``.  There is no early stopping and no best-state restore,
    so checkpoints hold empty ``extras`` and no ``best_state``.  The run
    is a ``search.run`` span without ``run_start``/``eval``/``run_end``
    events, and resuming happens before it opens.
    """

    #: Leads the run span's attributes, the α snapshots and the strikes.
    stage = "search"

    def __init__(self, model: OptInterModel, optimizer: Optimizer,
                 config: SearchConfig, **kwargs) -> None:
        super().__init__(model, optimizer, batch_size=config.batch_size,
                         max_epochs=config.epochs, **kwargs)
        self.config = config
        self.strike_labels = {"stage": self.stage}

    def fit(self, train: CTRDataset,
            val: Optional[CTRDataset] = None) -> History:
        history, start_epoch = self._resume()
        with self.tracer.span("search.run", stage=self.stage,
                              epochs=self.max_epochs) as run_span:
            self._fit(train, val, history, start_epoch, run_span)
            run_span.set_attr("steps", self._global_step)
        return history

    @contextmanager
    def _epoch(self, run_span, epoch: int) -> Iterator[EpochRecord]:
        temperature = _annealed_temperature(self.config, epoch)
        self.model.set_temperature(temperature)
        record = EpochRecord(epoch=epoch, train_loss=float("nan"))
        with self.tracer.span("search.epoch", parent=run_span, epoch=epoch,
                              temperature=temperature) as epoch_span:
            yield record
            # The α snapshot is the search's decision step — its own
            # span so a trace shows where selection time goes.
            with self.tracer.span("search.alpha_update", epoch=epoch):
                self._publish_alpha(record, temperature)
            epoch_span.set_attr("train_loss", record.train_loss)

    def _publish_alpha(self, record: EpochRecord, temperature: float) -> None:
        """Publish the per-epoch α snapshot and epoch metrics.

        The ``search_alpha`` payload carries the raw logits, the
        noiseless selection probabilities and the argmax decode — enough
        to replay the selection-probability trajectory (paper Table VI /
        Figure 5) from a trace file alone, without the model.  A model
        with a triple group adds the same four fields for it under
        ``triple_*`` keys.
        """
        if not self._buses:
            return
        architecture, triple_architecture = self.model.derive_architectures()
        payload = _alpha_fields(self.model.combination, architecture)
        if triple_architecture is not None:
            triple = _alpha_fields(self.model.triple_combination,
                                   triple_architecture)
            payload.update({f"triple_{key}": value
                            for key, value in triple.items()})
        self._emit("search_alpha",
                   stage=self.stage,
                   epoch=record.epoch,
                   temperature=temperature,
                   **payload)
        self._emit("epoch_end", stage=self.stage, **record.as_dict())

    def _validate(self, val: CTRDataset, record: EpochRecord) -> None:
        metrics = evaluate_model(self.model, val)
        record.val_auc = metrics["auc"]
        record.val_log_loss = metrics["log_loss"]

    def _checkpoint_extras(self) -> Dict:
        return {}


def _alpha_fields(combination, architecture: Architecture) -> Dict:
    """One group's ``search_alpha`` fields: α logits, noiseless
    probabilities and the argmax decode."""
    return {"alpha": combination.alpha.data,
            "probabilities": combination.probabilities(),
            "methods": [m.value for m in architecture],
            "counts": architecture.counts()}


class BilevelTrainer(SearchTrainer):
    """The bi-level ablation: each Θ step on a training batch is followed
    by an α step, with its own optimizer, on the next batch of an endless
    shuffled stream over ``val``.

    One guard covers both levels and both optimizers.  As in
    :class:`Trainer`, only applied Θ updates count as steps and a
    rollback rewinds the count, which the run span reports as ``steps``.
    """

    stage = "bilevel"

    def __init__(self, model: OptInterModel, theta_optimizer: Optimizer,
                 alpha_optimizer: Optimizer, config: SearchConfig,
                 val: CTRDataset, recovery: Optional[RecoveryPolicy] = None,
                 **kwargs) -> None:
        super().__init__(model, theta_optimizer, config, **kwargs)
        self.alpha_optimizer = alpha_optimizer
        self._val_batches = self._endless(val)
        if recovery is not None:
            self._guard = DivergenceGuard(
                recovery, model, [theta_optimizer, alpha_optimizer],
                emit=self._emit, on_rollback=self._rewind)

    def _endless(self, val: CTRDataset) -> Iterator[Batch]:
        while True:
            yield from val.iter_batches(self.batch_size, shuffle=True,
                                        rng=self.rng)

    def _step(self, batch: Batch, epoch: int) -> Optional[float]:
        step = self._global_step
        # Lower level: network weights on the training batch.
        self.model.zero_grad()
        loss = binary_cross_entropy_with_logits(self.model(batch), batch.y)
        value = guarded_backward(loss, self._guard, epoch=epoch, step=step,
                                 **self.strike_labels, level="theta")
        if value is not None:
            self.optimizer.step()
            self._global_step += 1
        # Upper level: architecture parameters on a validation batch.
        val_batch = next(self._val_batches)
        self.model.zero_grad()
        val_loss = binary_cross_entropy_with_logits(self.model(val_batch),
                                                    val_batch.y)
        if guarded_backward(val_loss, self._guard, epoch=epoch, step=step,
                            split="validation", **self.strike_labels,
                            level="alpha") is not None:
            self.alpha_optimizer.step()
        # An α-level rollback rewinds past this batch's Θ update too.
        return value if self._global_step > step else None


def search_optinter(train: CTRDataset, val: Optional[CTRDataset],
                    config: SearchConfig,
                    bus: Optional[EventBus] = None,
                    recovery: Optional[RecoveryPolicy] = None,
                    checkpoint_dir: Optional[PathLike] = None,
                    resume: bool = False,
                    keep_last: int = 3,
                    tracer: Optional[Tracer] = None) -> SearchResult:
    """Algorithm 1: joint gradient descent on (Θ, α) over training batches.

    When ``train`` carries third-order crosses (``x_triple``) the field
    triples are searched alongside the pairs, one α per order, and the
    result's ``triple_architecture`` holds their decode.

    ``bus`` receives one ``search_alpha`` + ``epoch_end`` event pair per
    epoch; the final ``search_alpha`` event's argmax equals the returned
    :class:`SearchResult` architecture.

    ``checkpoint_dir`` makes the search crash-safe: a full-state
    checkpoint (Θ, α, optimizer moments, RNG stream, history) is written
    atomically after every epoch, and ``resume=True`` continues from the
    newest valid one, reproducing the uninterrupted search bit-for-bit.
    ``recovery`` attaches a divergence guard that skips non-finite
    batches and rolls back with the learning rate halved instead of
    propagating NaNs into α.
    """
    rng = np.random.default_rng(config.seed)
    model = _build_search_model(train, config, rng)
    optimizer = Adam(table_iv_groups(model, config.lr, config.l2_cross,
                                     config.lr_arch))
    trainer = SearchTrainer(model, optimizer, config, rng=rng,
                            verbose=config.verbose, bus=bus,
                            recovery=recovery, checkpoint_dir=checkpoint_dir,
                            keep_last=keep_last, resume=resume,
                            tracer=tracer)
    return SearchResult.of(model, trainer.fit(train, val))


def search_bilevel(train: CTRDataset, val: CTRDataset,
                   config: SearchConfig,
                   bus: Optional[EventBus] = None,
                   recovery: Optional[RecoveryPolicy] = None,
                   tracer: Optional[Tracer] = None) -> SearchResult:
    """DARTS-style bi-level ablation: Θ on train batches, α on val batches.

    The two parameter families alternate instead of sharing one update;
    the paper reports this as slower to converge and roughly twice as
    memory-hungry (Table VIII).  ``recovery`` guards both levels: a
    non-finite loss on either the Θ or the α step skips that update (and
    past the strike budget rolls back both optimizers together).
    """
    if val is None or len(val) == 0:
        raise ValueError("bi-level search needs a non-empty validation set")
    rng = np.random.default_rng(config.seed)
    model = _build_search_model(train, config, rng)
    theta_opt = Adam(table_iv_groups(model, config.lr, config.l2_cross))
    alpha_opt = Adam(model.architecture_parameters(), lr=config.lr_arch)
    trainer = BilevelTrainer(model, theta_opt, alpha_opt, config, val,
                             recovery=recovery, rng=rng,
                             verbose=config.verbose, bus=bus, tracer=tracer)
    return SearchResult.of(model, trainer.fit(train, val))


def random_architecture(num_pairs: int,
                        rng: Optional[np.random.Generator] = None) -> Architecture:
    """The Random baseline: one uniformly random method per interaction."""
    return Architecture.random(num_pairs, rng=rng)
