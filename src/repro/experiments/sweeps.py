"""Hyper-parameter sweeps (paper §III-A4: grid search per dataset).

:func:`grid_search` trains one registry model under every combination of
the supplied parameter grid and ranks the combinations by validation AUC
— the procedure the paper used to pick the Table IV settings, packaged so
users can re-tune when they change the data.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence

from ..training.trainer import evaluate_model
from .configs import ExperimentConfig
from .runner import DatasetBundle, train_registry_model


@dataclass
class SweepTrial:
    """One grid point's outcome."""

    params: Dict[str, Any]
    val_auc: float
    val_log_loss: float
    test_auc: float
    n_parameters: int

    def render(self) -> str:
        settings = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return (f"{settings:<40} val AUC {self.val_auc:.4f}  "
                f"test AUC {self.test_auc:.4f}")


@dataclass
class SweepResult:
    """All trials of one grid search, best (by validation AUC) first."""

    model: str
    trials: List[SweepTrial]

    @property
    def best(self) -> SweepTrial:
        return self.trials[0]

    def render(self) -> str:
        lines = [f"== grid search for {self.model} "
                 f"({len(self.trials)} trials, best first) =="]
        lines.extend(trial.render() for trial in self.trials)
        return "\n".join(lines)


_CONFIG_FIELDS = set(ExperimentConfig.__dataclass_fields__)


def expand_grid(grid: Dict[str, Sequence[Any]]) -> List[Dict[str, Any]]:
    """Cartesian product of a parameter grid, stable (sorted-key) ordering."""
    if not grid:
        raise ValueError("grid must contain at least one parameter")
    unknown = set(grid) - _CONFIG_FIELDS
    if unknown:
        raise ValueError(
            f"unknown ExperimentConfig fields: {sorted(unknown)}"
        )
    keys = sorted(grid)
    return [dict(zip(keys, values))
            for values in itertools.product(*(grid[k] for k in keys))]


def grid_search(model: str, bundle: DatasetBundle,
                base_config: ExperimentConfig,
                grid: Dict[str, Sequence[Any]]) -> SweepResult:
    """Train ``model`` at every grid point; rank by validation AUC.

    One training per grid point; the dataset bundle (and thus the split)
    is fixed across trials so validation AUCs are directly comparable.
    Test AUC is recorded for reporting only — never used for selection.
    """
    if bundle.val is None or len(bundle.val) == 0:
        raise ValueError("grid search needs a non-empty validation split")
    trials: List[SweepTrial] = []
    for params in expand_grid(grid):
        config = replace(base_config, **params)
        trained = train_registry_model(model, bundle, config)
        val_metrics = evaluate_model(trained, bundle.val)
        test_metrics = evaluate_model(trained, bundle.test)
        trials.append(SweepTrial(
            params=params,
            val_auc=val_metrics["auc"],
            val_log_loss=val_metrics["log_loss"],
            test_auc=test_metrics["auc"],
            n_parameters=trained.num_parameters(),
        ))
    trials.sort(key=lambda t: t.val_auc, reverse=True)
    return SweepResult(model=model, trials=trials)
