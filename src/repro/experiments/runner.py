"""Model registry and the train/evaluate loop shared by every experiment.

``run_model`` knows how to build, train and score every row of the paper's
Table V: plain baselines via the :class:`~repro.training.Trainer`, AutoFIS
via its two-stage pipeline, and OptInter via search + re-train.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..core.architecture import Architecture
from ..core.optinter import OptInterModel
from ..core.retrain import retrain, run_optinter
from ..data.dataset import CTRDataset
from ..data.synthetic import GroundTruth, make_dataset
from ..models import (
    DCN,
    DeepFM,
    FactorizationMachine,
    FFM,
    FNN,
    FmFM,
    FwFM,
    IPNN,
    LogisticRegression,
    OPNN,
    PIN,
    Poly2,
    WideDeep,
    train_autofis,
)
from ..nn.optim import Adam
from ..training.trainer import Trainer, evaluate_model
from .configs import ExperimentConfig


@dataclass
class ResultRow:
    """One row of an overall-performance table.

    ``status`` is ``"ok"`` for a trained-and-scored model and
    ``"failed"`` when :func:`run_zoo` caught the model's training
    failure (``error`` then holds the one-line cause and the metric
    fields are NaN/0).  Aggregations must skip failed rows — see
    :meth:`~repro.experiments.tables.Table5Result.best`.
    """

    model: str
    auc: float
    log_loss: float
    params: int
    extra: Optional[dict] = None
    status: str = "ok"
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @classmethod
    def failed(cls, model: str, error: BaseException) -> "ResultRow":
        return cls(model=model, auc=float("nan"), log_loss=float("nan"),
                   params=0, status="failed",
                   error=f"{type(error).__name__}: {error}")

    def formatted(self) -> str:
        from ..training.metrics import format_param_count

        if not self.ok:
            return f"{self.model:<12} FAILED  ({self.error})"
        return (f"{self.model:<12} AUC {self.auc:.4f}  "
                f"logloss {self.log_loss:.4f}  params {format_param_count(self.params)}")


@dataclass
class DatasetBundle:
    """A dataset with its splits and generator ground truth."""

    name: str
    full: CTRDataset
    train: CTRDataset
    val: CTRDataset
    test: CTRDataset
    truth: GroundTruth


def prepare_dataset(config: ExperimentConfig) -> DatasetBundle:
    """Generate + split the synthetic dataset for an experiment config."""
    dataset, truth = make_dataset(config.make_dataset_config())
    rng = np.random.default_rng(config.seed)
    train, val, test = dataset.split(config.split, rng=rng)
    return DatasetBundle(name=config.dataset, full=dataset, train=train,
                         val=val, test=test, truth=truth)


#: Table V baseline groups, in the paper's row order.
NAIVE_MODELS = ("LR", "FNN")
FACTORIZED_MODELS = ("FM", "FwFM", "FmFM", "IPNN", "OPNN", "DeepFM", "PIN",
                     "OptInter-F")
MEMORIZED_MODELS = ("Poly2", "WideDeep", "OptInter-M")
HYBRID_MODELS = ("AutoFIS", "OptInter")
ALL_MODELS = NAIVE_MODELS + FACTORIZED_MODELS + MEMORIZED_MODELS + HYBRID_MODELS
#: models beyond the paper's Table V (run on request, not by default).
EXTENDED_MODELS = ("FFM", "DCN")


def _build_plain_model(name: str, train: CTRDataset, config: ExperimentConfig,
                       rng: np.random.Generator):
    """Construct a baseline model (no search stage) by registry name."""
    cards = train.cardinalities
    kwargs = dict(embed_dim=config.embed_dim, hidden_dims=config.hidden_dims,
                  layer_norm=config.layer_norm, rng=rng)
    shallow = dict(embed_dim=config.embed_dim, rng=rng)
    if name == "LR":
        return LogisticRegression(cards, rng=rng)
    if name == "FNN":
        return FNN(cards, **kwargs)
    if name == "FM":
        return FactorizationMachine(cards, **shallow)
    if name == "FwFM":
        return FwFM(cards, **shallow)
    if name == "FmFM":
        return FmFM(cards, **shallow)
    if name == "IPNN":
        return IPNN(cards, **kwargs)
    if name == "OPNN":
        return OPNN(cards, **kwargs)
    if name == "DeepFM":
        return DeepFM(cards, **kwargs)
    if name == "PIN":
        return PIN(cards, **kwargs)
    if name == "FFM":
        return FFM(cards, embed_dim=max(config.embed_dim // 2, 1), rng=rng)
    if name == "DCN":
        return DCN(cards, **kwargs)
    if name == "Poly2":
        return Poly2(cards, train.cross_cardinalities, rng=rng)
    if name == "WideDeep":
        return WideDeep(cards, train.cross_cardinalities, **kwargs)
    raise KeyError(f"unknown model {name!r}")


def train_registry_model(model_name: str, bundle: DatasetBundle,
                         config: ExperimentConfig, *, bus=None,
                         recovery=None, checkpoint_dir=None,
                         resume: bool = False):
    """Train one registry model on a bundle; returns the trained model.

    ``bus`` (a :class:`repro.obs.events.EventBus`) receives the training
    events of whichever pipeline the model name selects.

    ``checkpoint_dir``/``resume`` enable crash-safe training with resume
    from the newest valid full-state checkpoint; ``recovery`` (a
    :class:`repro.resilience.RecoveryPolicy`) enables divergence
    recovery.  Both are honoured by the OptInter pipelines, the
    fixed-architecture variants and every plain Trainer-based baseline;
    AutoFIS runs its own two-stage loop and currently ignores them.
    """
    run_kw = dict(bus=bus, recovery=recovery, checkpoint_dir=checkpoint_dir,
                  resume=resume)
    if model_name == "OptInter":
        return run_optinter(bundle.train, bundle.val, config.search_config(),
                            config.retrain_config(), **run_kw).model
    if model_name == "AutoFIS":
        return train_autofis(
            bundle.train, bundle.val, embed_dim=config.embed_dim,
            hidden_dims=config.hidden_dims, lr=config.lr,
            batch_size=config.batch_size,
            search_epochs=config.search_epochs,
            retrain_epochs=config.epochs, patience=config.patience,
            seed=config.seed, bus=bus).model
    if model_name in ("OptInter-M", "OptInter-F"):
        # Uniform architectures go through the same retrain pipeline as
        # OptInter so the cross-table L2 treatment is identical.
        num_pairs = bundle.train.num_pairs
        arch = (Architecture.all_memorize(num_pairs)
                if model_name == "OptInter-M"
                else Architecture.all_factorize(num_pairs))
        model, _ = retrain(arch, bundle.train, bundle.val,
                           config.retrain_config(), **run_kw)
        return model
    rng = np.random.default_rng(config.seed)
    model = _build_plain_model(model_name, bundle.train, config, rng)
    Trainer(model, Adam(model.parameters(), lr=config.lr),
            batch_size=config.batch_size, max_epochs=config.epochs,
            patience=config.patience, rng=rng,
            **run_kw).fit(bundle.train, bundle.val)
    return model


def run_model(name: str, bundle: DatasetBundle,
              config: ExperimentConfig, bus=None,
              recovery=None, checkpoint_dir=None,
              resume: bool = False) -> ResultRow:
    """Train one registry model (see :func:`train_registry_model`) and
    score it on the test split; an OptInter-family row carries its
    architecture and an AutoFIS row its selection counts in ``extra``."""
    model = train_registry_model(name, bundle, config, bus=bus,
                                 recovery=recovery,
                                 checkpoint_dir=checkpoint_dir,
                                 resume=resume)
    metrics = evaluate_model(model, bundle.test)
    extra = None
    if name == "AutoFIS":
        extra = {"counts": model.selection_counts()}
    elif isinstance(model, OptInterModel):
        extra = {"architecture": model.architecture,
                 "counts": model.architecture.counts()}
    return ResultRow(model=name, auc=metrics["auc"],
                     log_loss=metrics["log_loss"],
                     params=model.num_parameters(), extra=extra)


def run_fixed_architecture(architecture: Architecture, bundle: DatasetBundle,
                           config: ExperimentConfig,
                           label: str = "fixed", bus=None, recovery=None,
                           checkpoint_dir=None,
                           resume: bool = False) -> ResultRow:
    """Retrain + score an explicit architecture (Table VIII / IX helper)."""
    model, _ = retrain(architecture, bundle.train, bundle.val,
                       config.retrain_config(), bus=bus, recovery=recovery,
                       checkpoint_dir=checkpoint_dir, resume=resume)
    metrics = evaluate_model(model, bundle.test)
    return ResultRow(model=label, auc=metrics["auc"],
                     log_loss=metrics["log_loss"],
                     params=model.num_parameters(),
                     extra={"architecture": architecture,
                            "counts": architecture.counts()})


def run_zoo(bundle: DatasetBundle, config: ExperimentConfig,
            models: Sequence[str] = ALL_MODELS) -> List[ResultRow]:
    """Train and score a list of registry models on one dataset.

    One model's training failure must not sink the whole table: the
    exception is recorded as a failed :class:`ResultRow` (status
    ``"failed"``, NaN metrics, the cause in ``error``) and the remaining
    models still run.  ``KeyboardInterrupt``/``SystemExit`` propagate —
    a user abort is not a model failure.
    """
    rows: List[ResultRow] = []
    for name in models:
        try:
            rows.append(run_model(name, bundle, config))
        except Exception as exc:
            rows.append(ResultRow.failed(name, exc))
    return rows
