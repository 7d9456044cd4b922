"""Third-order interactions: the extension the paper sketches (§II-B1).

Generates data with planted third-order effects (e.g. "this app, on this
site, at this hour"), then compares:

* the standard second-order OptInter pipeline, which cannot represent the
  triple directly; and
* the same pipeline on the triple-bearing data, which searches
  {memorize, factorize, naïve} over every field triple as well.

    python examples/higher_order_interactions.py
"""

from dataclasses import replace

import numpy as np

from repro.core import Method, RetrainConfig, SearchConfig, run_optinter
from repro.data import SyntheticConfig, make_dataset
from repro.training import evaluate_model, format_param_count


def main() -> None:
    print("Generating data with 2 planted third-order interactions...")
    config = SyntheticConfig(
        cardinalities=[10, 12, 8, 14, 9, 11],
        n_samples=10_000,
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
    print(f"  planted triples: {truth.memorizable_triples}")
    print(f"  {dataset.num_pairs} pairs, {len(dataset.triples)} triples")

    search_config = SearchConfig(
        embed_dim=6, cross_embed_dim=3, hidden_dims=(32,), epochs=2,
        batch_size=256, lr=2e-3, lr_arch=2e-2, l2_cross=5e-2,
        temperature_start=0.5, temperature_end=0.5, seed=0)

    retrain_config = RetrainConfig(embed_dim=6, cross_embed_dim=3,
                                   hidden_dims=(32,), epochs=8,
                                   batch_size=256, lr=2e-3, l2_cross=5e-2,
                                   seed=1)

    print("\nSecond-order OptInter (the paper's setting)...")
    # Without x_triple, run_optinter searches the pairs only.
    pairs_train, pairs_val = (
        replace(split, x_triple=None, triples=None, triple_cardinalities=None)
        for split in (train, val))
    pairs_only = run_optinter(pairs_train, pairs_val, search_config,
                              retrain_config)
    metrics2 = evaluate_model(pairs_only.model, test)
    print(f"  AUC {metrics2['auc']:.4f}, "
          f"params {format_param_count(pairs_only.model.num_parameters())}, "
          f"pair arch {pairs_only.architecture.counts()}")

    print("\nThird-order OptInter (the extension)...")
    higher = run_optinter(train, val, search_config, retrain_config)
    metrics3 = evaluate_model(higher.model, test)
    print(f"  AUC {metrics3['auc']:.4f}, "
          f"params {format_param_count(higher.model.num_parameters())}, "
          f"pair arch {higher.architecture.counts()}, "
          f"triple arch {higher.triple_architecture.counts()}")

    print("\nPlanted-triple decisions:")
    for planted in truth.memorizable_triples:
        t_idx = train.triples.index(planted)
        chosen = higher.triple_architecture[t_idx]
        marker = "ok" if chosen is not Method.NAIVE else "MISSED"
        print(f"  triple {planted} -> {chosen.value} [{marker}]")

    gain = metrics3["auc"] - metrics2["auc"]
    print(f"\nThird-order search gains {gain:+.4f} AUC on triple-bearing "
          "data.")


if __name__ == "__main__":
    main()
