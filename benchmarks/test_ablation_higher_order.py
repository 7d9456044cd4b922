"""Extension ablation: third-order interactions (paper §II-B1's sketch).

The paper limits OptInter to second-order interactions but claims the
framework extends to higher orders.  This bench validates the extension:
on data with a planted third-order effect, the higher-order search must
(a) keep the planted triple out of the naïve bucket and (b) beat the
pairs-only OptInter pipeline; on the same data the triple architecture
must stay selective (not memorize everything).
"""

from dataclasses import replace

import numpy as np

from repro.core import Method, RetrainConfig, SearchConfig, run_optinter
from repro.data import SyntheticConfig, make_dataset
from repro.training import evaluate_model

from .conftest import run_once

TOL = 0.01


def _triple_dataset():
    config = SyntheticConfig(
        cardinalities=[10, 12, 8, 14, 9, 11],
        n_samples=12_000,
        n_memorizable=1,
        n_factorizable=1,
        n_memorizable_triples=2,
        triple_strength=2.5,
        min_count=2,
        cross_min_count=3,
        seed=17,
    )
    dataset, truth = make_dataset(config, with_triples=True,
                                  triple_min_count=3)
    train, val, test = dataset.split((0.7, 0.1, 0.2),
                                     rng=np.random.default_rng(0))
    return dataset, truth, train, val, test


def _search_config(**overrides):
    base = dict(embed_dim=6, cross_embed_dim=3, hidden_dims=(32,),
                epochs=2, batch_size=256, lr=2e-3, lr_arch=2e-2,
                l2_cross=5e-2, temperature_start=0.5, temperature_end=0.5,
                seed=0)
    base.update(overrides)
    return SearchConfig(**base)


def _pairs_only(split):
    """The split without its third-order crosses."""
    return replace(split, x_triple=None, triples=None,
                   triple_cardinalities=None)


def test_higher_order_extension(benchmark, show):
    dataset, truth, train, val, test = _triple_dataset()
    retrain_config = RetrainConfig(embed_dim=6, cross_embed_dim=3,
                                   hidden_dims=(32,), epochs=8,
                                   batch_size=256, lr=2e-3, l2_cross=5e-2,
                                   seed=1)

    def run_both():
        # run_optinter searches the triples whenever the splits carry them.
        higher = run_optinter(train, val, _search_config(), retrain_config)
        pairs_only = run_optinter(_pairs_only(train), _pairs_only(val),
                                  _search_config(), retrain_config)
        return higher, pairs_only

    higher, pairs_only = run_once(benchmark, run_both)
    auc_higher = evaluate_model(higher.model, test)["auc"]
    auc_pairs = evaluate_model(pairs_only.model, test)["auc"]

    lines = [
        f"pairs-only OptInter: AUC {auc_pairs:.4f}  "
        f"pair arch {pairs_only.architecture.counts()}",
        f"third-order OptInter: AUC {auc_higher:.4f}  "
        f"pair arch {higher.architecture.counts()}  "
        f"triple arch {higher.triple_architecture.counts()}",
    ]
    show("Ablation — third-order extension", "\n".join(lines))

    # (a) Every planted triple is modelled, not dropped.
    for planted in truth.memorizable_triples:
        t_idx = train.triples.index(planted)
        assert higher.triple_architecture[t_idx] is not Method.NAIVE

    # (b) Third-order search beats pairs-only on triple-bearing data.
    assert auc_higher > auc_pairs - TOL

    # (c) The triple architecture stays selective.
    counts = higher.triple_architecture.counts()
    assert counts[0] < len(train.triples)
