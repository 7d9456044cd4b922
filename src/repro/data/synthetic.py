"""Synthetic CTR dataset generators replacing Criteo / Avazu / iPinYou.

The public datasets the paper evaluates on are unavailable offline, so this
module builds synthetic equivalents that pose the *same decision problem*
OptInter solves: for each feature interaction, is it best memorized,
factorized, or ignored?

The ground-truth click logit is a mixture of

* per-field **main effects** — every model can learn these;
* **memorizable pair effects** — an i.i.d. effect per crossed value.  These
  are full-rank by construction: a dot product of two per-field latent
  vectors cannot represent them, so only a memorized embedding (or a very
  deep network) captures them.  They play the role of strong-signal crosses
  like Avazu's (site, app) combinations;
* **factorizable pair effects** — low-rank latent dot products, exactly the
  structure FM-style factorization recovers;
* **noise pairs** — no effect; the naïve method is optimal for them.

Each planted pair is labelled in the returned :class:`GroundTruth`, so the
Figure 5/6 analyses (does OptInter memorize the high-MI pairs?) have an
oracle to compare against.

``criteo_like`` / ``avazu_like`` / ``ipinyou_like`` mirror the paper's
Table II at laptop scale: field counts, positive ratios and the cardinality
skew (Avazu's one huge ``device_id``-like field) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .cross import CrossProductTransform
from .dataset import CTRDataset
from .preprocessing import QuantileBucketizer
from .schema import Schema, make_schema
from .vocabulary import FieldVocabularies


class PairRole(str, Enum):
    """Ground-truth character of a planted feature interaction."""

    MEMORIZABLE = "memorizable"
    FACTORIZABLE = "factorizable"
    NOISE = "noise"


@dataclass
class GroundTruth:
    """Oracle knowledge about the generated data."""

    pair_roles: Dict[int, PairRole]
    intercept: float
    positive_ratio: float
    #: field triples carrying a planted third-order memorizable effect
    #: (empty unless the config requests the higher-order extension).
    memorizable_triples: List[Tuple[int, int, int]] = field(
        default_factory=list)

    def pairs_with_role(self, role: PairRole) -> List[int]:
        return [p for p, r in self.pair_roles.items() if r == role]


@dataclass
class SyntheticConfig:
    """Recipe for one synthetic CTR dataset."""

    cardinalities: List[int]
    n_samples: int = 20_000
    positive_ratio: float = 0.25
    n_memorizable: int = 3
    n_factorizable: int = 3
    main_strength: float = 0.4
    memorize_strength: float = 2.0
    factorize_strength: float = 1.0
    #: std of the third-field modulation applied to memorizable effects.
    #: Real strong crosses are context-dependent (e.g. an app/site cross
    #: matters more for some device types); modulation reproduces that:
    #: a scalar cross weight (Poly2) only captures the mean effect, while
    #: a memorized *embedding* feeding an MLP can capture the interaction
    #: with the modulating field.  Set to 0 for purely scalar effects.
    modulation_strength: float = 0.6
    #: fields that never participate in planted pairs (e.g. an Avazu-like
    #: device_id whose crosses are too sparse to carry learnable signal).
    exclude_from_planting: Tuple[int, ...] = ()
    #: third-order extension: number of planted memorizable field triples
    #: (effects i.i.d. per crossed value triple) and their strength.
    n_memorizable_triples: int = 0
    triple_strength: float = 2.0
    latent_dim: int = 4
    zipf_exponent: float = 1.1
    continuous_fields: Tuple[int, ...] = ()
    num_buckets: int = 10
    min_count: int = 2
    cross_min_count: int = 2
    name: str = "synthetic"
    seed: int = 0
    field_names: Optional[List[str]] = None
    planted_pairs: Optional[Dict[Tuple[int, int], PairRole]] = None

    @property
    def num_fields(self) -> int:
        return len(self.cardinalities)


def _zipf_probs(cardinality: int, exponent: float,
                rng: np.random.Generator) -> np.ndarray:
    """Skewed categorical distribution with shuffled rank order."""
    ranks = np.arange(1, cardinality + 1, dtype=np.float64)
    probs = ranks**-exponent
    probs /= probs.sum()
    rng.shuffle(probs)
    return probs


def _plant_pairs(config: SyntheticConfig,
                 rng: np.random.Generator) -> Dict[Tuple[int, int], PairRole]:
    """Choose which field pairs carry which interaction character."""
    if config.planted_pairs is not None:
        return dict(config.planted_pairs)
    m = config.num_fields
    excluded = set(config.exclude_from_planting)
    all_pairs = [(i, j) for i in range(m) for j in range(i + 1, m)
                 if i not in excluded and j not in excluded]
    wanted = config.n_memorizable + config.n_factorizable
    if wanted > len(all_pairs):
        raise ValueError(
            f"cannot plant {wanted} pairs: only {len(all_pairs)} exist"
        )
    chosen = rng.choice(len(all_pairs), size=wanted, replace=False)
    roles: Dict[Tuple[int, int], PairRole] = {}
    for k, idx in enumerate(chosen):
        role = (PairRole.MEMORIZABLE if k < config.n_memorizable
                else PairRole.FACTORIZABLE)
        roles[all_pairs[idx]] = role
    return roles


def _calibrate_intercept(logits: np.ndarray, target: float) -> float:
    """Bisect an intercept so mean(sigmoid(logits + b)) == target."""
    low, high = -30.0, 30.0
    for _ in range(80):
        mid = 0.5 * (low + high)
        mean = float(np.mean(1.0 / (1.0 + np.exp(-(logits + mid)))))
        if mean < target:
            low = mid
        else:
            high = mid
    return 0.5 * (low + high)


def generate_raw(config: SyntheticConfig
                 ) -> Tuple[np.ndarray, np.ndarray, GroundTruth, Schema]:
    """Sample raw values and labels from the planted generative model.

    Returns ``(raw, y, truth, schema)`` where ``raw`` is an object array:
    integer category codes for categorical fields, floats for continuous
    ones (to be bucketized downstream).
    """
    rng = np.random.default_rng(config.seed)
    n, m = config.n_samples, config.num_fields

    # 1. Sample categorical codes per field with Zipf skew.
    codes = np.empty((n, m), dtype=np.int64)
    for col, card in enumerate(config.cardinalities):
        probs = _zipf_probs(card, config.zipf_exponent, rng)
        codes[:, col] = rng.choice(card, size=n, p=probs)

    # 2. Main effects.
    logits = np.zeros(n)
    for col, card in enumerate(config.cardinalities):
        weights = rng.normal(0.0, config.main_strength, size=card)
        logits += weights[codes[:, col]]

    # 3. Planted pair effects.
    roles_by_pair = _plant_pairs(config, rng)
    schema = make_schema(
        list(config.cardinalities),
        name=config.name,
        positive_ratio=config.positive_ratio,
        continuous_fields=config.continuous_fields,
        field_names=config.field_names,
    )
    pair_roles: Dict[int, PairRole] = {
        p: PairRole.NOISE for p in range(schema.num_pairs)
    }
    for (i, j), role in roles_by_pair.items():
        pair_idx = schema.pair_index(i, j)
        pair_roles[pair_idx] = role
        card_i, card_j = config.cardinalities[i], config.cardinalities[j]
        if role is PairRole.MEMORIZABLE:
            table = rng.normal(0.0, config.memorize_strength,
                               size=(card_i, card_j))
            effect = table[codes[:, i], codes[:, j]]
            if config.modulation_strength > 0 and m > 2:
                # Context-dependent strength: a third field modulates the
                # cross effect (mean 1 keeps the average effect intact).
                candidates = [f for f in range(m) if f not in (i, j)]
                k = int(rng.choice(candidates))
                modulation = rng.normal(1.0, config.modulation_strength,
                                        size=config.cardinalities[k])
                effect = effect * modulation[codes[:, k]]
            logits += effect
        elif role is PairRole.FACTORIZABLE:
            u = rng.normal(0.0, 1.0, size=(card_i, config.latent_dim))
            v = rng.normal(0.0, 1.0, size=(card_j, config.latent_dim))
            dots = (u[codes[:, i]] * v[codes[:, j]]).sum(axis=1)
            logits += config.factorize_strength * dots / np.sqrt(config.latent_dim)

    # 3b. Optional third-order planted effects (higher-order extension).
    memorizable_triples: List[Tuple[int, int, int]] = []
    if config.n_memorizable_triples > 0:
        if m < 3:
            raise ValueError("triples need at least 3 fields")
        excluded = set(config.exclude_from_planting)
        candidates = [t for t in
                      [(a, b, c) for a in range(m) for b in range(a + 1, m)
                       for c in range(b + 1, m)]
                      if not ({t[0], t[1], t[2]} & excluded)]
        if config.n_memorizable_triples > len(candidates):
            raise ValueError(
                f"cannot plant {config.n_memorizable_triples} triples: "
                f"only {len(candidates)} are available")
        picks = rng.choice(len(candidates),
                           size=config.n_memorizable_triples, replace=False)
        for pick in picks:
            i, j, k = candidates[pick]
            memorizable_triples.append((i, j, k))
            table = rng.normal(0.0, config.triple_strength,
                               size=(config.cardinalities[i],
                                     config.cardinalities[j],
                                     config.cardinalities[k]))
            logits += table[codes[:, i], codes[:, j], codes[:, k]]

    # 4. Calibrate the intercept to the requested positive ratio, then label.
    intercept = _calibrate_intercept(logits, config.positive_ratio)
    probs = 1.0 / (1.0 + np.exp(-(logits + intercept)))
    y = (rng.random(n) < probs).astype(np.float64)

    # 5. Emit raw values: categorical codes stay as ints; continuous fields
    #    become noisy monotone transforms of their codes so quantile
    #    bucketing approximately recovers the signal.
    raw = np.empty((n, m), dtype=object)
    for col in range(m):
        if col in config.continuous_fields:
            jitter = rng.normal(0.0, 0.15, size=n)
            raw[:, col] = np.exp(0.3 * codes[:, col] + jitter)
        else:
            raw[:, col] = codes[:, col]

    truth = GroundTruth(
        pair_roles=pair_roles,
        intercept=intercept,
        positive_ratio=float(y.mean()),
        memorizable_triples=memorizable_triples,
    )
    return raw, y, truth, schema


def make_dataset(config: SyntheticConfig, with_cross: bool = True,
                 with_triples: bool = False, triple_min_count: int = 2,
                 triple_tuples: Optional[List[Tuple[int, ...]]] = None,
                 ) -> Tuple[CTRDataset, GroundTruth]:
    """Full pipeline: generate, bucketize, index, cross-transform.

    The result is ready for any model in the zoo; ``with_cross=False`` skips
    the cross-product transformation for models that never memorize.
    ``with_triples=True`` additionally attaches third-order cross ids (the
    higher-order extension; all C(M,3) triples unless ``triple_tuples`` is
    given) from a :class:`~repro.data.cross.CrossProductTransform` over
    the triples; :class:`repro.core.OptInterModel` then searches and
    re-trains them alongside the pairs (``run_optinter``).
    """
    raw, y, truth, schema = generate_raw(config)
    n, m = raw.shape

    # Bucketize continuous columns into categorical codes.
    processed = np.empty((n, m), dtype=np.int64)
    for col in range(m):
        if col in config.continuous_fields:
            bucketizer = QuantileBucketizer(num_buckets=config.num_buckets)
            processed[:, col] = bucketizer.fit_transform(
                raw[:, col].astype(np.float64)
            )
        else:
            processed[:, col] = raw[:, col].astype(np.int64)

    # Frequency-thresholded vocabularies over all fields.
    vocabs = FieldVocabularies(min_count=config.min_count).fit(processed)
    x = vocabs.transform(processed)
    cardinalities = vocabs.sizes

    x_cross = None
    cross_cards = None
    cross = None
    if with_cross:
        cross = CrossProductTransform(schema, min_count=config.cross_min_count)
        x_cross = cross.fit_transform(x, cardinalities)
        cross_cards = cross.cardinalities

    x_triple = None
    triple_cards = None
    tuples = None
    if with_triples:
        transform = CrossProductTransform(
            schema, min_count=triple_min_count,
            tuples=schema.pairs(3) if triple_tuples is None else triple_tuples)
        x_triple = transform.fit_transform(x, cardinalities)
        triple_cards = transform.cardinalities
        tuples = transform.pairs

    dataset = CTRDataset(
        schema=schema,
        x=x,
        y=y,
        cardinalities=cardinalities,
        x_cross=x_cross,
        cross_cardinalities=cross_cards,
        x_triple=x_triple,
        triple_cardinalities=triple_cards,
        triples=tuples,
        cross_transform=cross,
    )
    return dataset, truth


# ----------------------------------------------------------------------
# Paper-shaped dataset factories (Table II, scaled to laptop size)
# ----------------------------------------------------------------------
def criteo_like(n_samples: int = 20_000, seed: int = 0,
                scale: float = 1.0) -> SyntheticConfig:
    """Criteo-shaped config: mixed continuous/categorical, pos ratio 0.23.

    The real Criteo has 13 continuous + 26 categorical fields and 46M rows;
    we keep the continuous/categorical mix and the positive ratio with
    3 continuous + 9 categorical fields.
    """
    cards = [int(c * scale) for c in
             (10, 10, 10, 40, 60, 80, 30, 120, 200, 25, 15, 50)]
    return SyntheticConfig(
        cardinalities=[max(c, 4) for c in cards],
        n_samples=n_samples,
        positive_ratio=0.23,
        n_memorizable=4,
        n_factorizable=4,
        continuous_fields=(0, 1, 2),
        min_count=4,
        cross_min_count=10,
        name="criteo_like",
        seed=seed,
    )


def avazu_like(n_samples: int = 20_000, seed: int = 1,
               scale: float = 1.0) -> SyntheticConfig:
    """Avazu-shaped config: all categorical, one device_id-like huge field.

    Real Avazu: 24 categorical fields, pos ratio 0.17, and a ``Device_ID``
    field whose crosses dominate the memorized table size (paper §III-B).
    Field 0 here plays that role.
    """
    cards = [int(c * scale) for c in
             (2000, 40, 60, 25, 80, 100, 30, 15, 50, 20)]
    return SyntheticConfig(
        cardinalities=[max(c, 4) for c in cards],
        n_samples=n_samples,
        positive_ratio=0.17,
        n_memorizable=3,
        n_factorizable=3,
        zipf_exponent=1.05,
        min_count=3,
        cross_min_count=5,
        # device_id crosses are too sparse to carry learnable signal (as in
        # the real Avazu); plant interactions among the other fields only.
        exclude_from_planting=(0,),
        name="avazu_like",
        seed=seed,
        field_names=["device_id", "site_id", "app_id", "banner_pos",
                     "site_domain", "app_domain", "device_model",
                     "device_type", "category", "hour"][: len(cards)],
    )


def ipinyou_like(n_samples: int = 20_000, seed: int = 2,
                 scale: float = 1.0) -> SyntheticConfig:
    """iPinYou-shaped config: fewer fields, rare positives.

    Real iPinYou has 16 categorical fields and a 0.08% positive ratio; a
    ratio that extreme is statistically hopeless at 2e4 rows, so we use 2%
    — still an order of magnitude rarer than the other datasets, which
    preserves the "sparse positives make memorization risky" regime.
    """
    cards = [int(c * scale) for c in (30, 50, 20, 70, 40, 90, 25, 12)]
    return SyntheticConfig(
        cardinalities=[max(c, 4) for c in cards],
        n_samples=n_samples,
        positive_ratio=0.02,
        n_memorizable=2,
        n_factorizable=2,
        min_count=3,
        cross_min_count=5,
        name="ipinyou_like",
        seed=seed,
    )


def dataset_statistics(dataset: CTRDataset) -> Dict[str, float]:
    """The paper's Table II row for a dataset."""
    stats = {
        "n_samples": len(dataset),
        "n_fields": dataset.num_fields,
        "n_pairs": dataset.num_pairs,
        "n_original_values": int(sum(dataset.cardinalities)),
        "positive_ratio": dataset.positive_ratio,
    }
    if dataset.cross_cardinalities is not None:
        stats["n_cross_values"] = int(sum(dataset.cross_cardinalities))
    return stats
