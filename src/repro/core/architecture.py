"""Architecture: the per-interaction modelling-method assignment.

An :class:`Architecture` maps each of the ``M(M-1)/2`` feature interactions
to one of the three methods in OptInter's search space 𝒦 = {memorize,
factorize, naïve}.  The paper reports architectures as count triples
``[x, y, z]`` (Table VI); :meth:`Architecture.counts` follows that
convention.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Sequence

import numpy as np


class Method(str, Enum):
    """One modelling method for a feature interaction."""

    MEMORIZE = "memorize"
    FACTORIZE = "factorize"
    NAIVE = "naive"


#: Canonical method order — index k of the architecture parameter α_(i,j)^k.
METHOD_ORDER: List[Method] = [Method.MEMORIZE, Method.FACTORIZE, Method.NAIVE]


@dataclass(frozen=True)
class Architecture:
    """Immutable assignment of a method to every feature interaction."""

    methods: tuple

    def __post_init__(self) -> None:
        for method in self.methods:
            if not isinstance(method, Method):
                raise TypeError(f"expected Method, got {type(method).__name__}")

    @property
    def num_pairs(self) -> int:
        return len(self.methods)

    def __getitem__(self, pair_idx: int) -> Method:
        return self.methods[pair_idx]

    def __iter__(self):
        return iter(self.methods)

    def counts(self) -> List[int]:
        """Counts in the paper's Table VI order: [memorize, factorize, naïve]."""
        return [sum(1 for m in self.methods if m is target)
                for target in METHOD_ORDER]

    def pairs_with(self, method: Method) -> List[int]:
        """Pair indices assigned to ``method``."""
        return [p for p, m in enumerate(self.methods) if m is method]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(cls, num_pairs: int, method: Method) -> "Architecture":
        """Every interaction modelled the same way (OptInter-M / -F / FNN)."""
        return cls(methods=tuple([method] * num_pairs))

    @classmethod
    def all_memorize(cls, num_pairs: int) -> "Architecture":
        return cls.uniform(num_pairs, Method.MEMORIZE)

    @classmethod
    def all_factorize(cls, num_pairs: int) -> "Architecture":
        return cls.uniform(num_pairs, Method.FACTORIZE)

    @classmethod
    def all_naive(cls, num_pairs: int) -> "Architecture":
        return cls.uniform(num_pairs, Method.NAIVE)

    @classmethod
    def random(cls, num_pairs: int,
               rng: Optional[np.random.Generator] = None) -> "Architecture":
        """Uniformly random assignment (the paper's Random baseline)."""
        rng = rng or np.random.default_rng()
        draws = rng.integers(0, len(METHOD_ORDER), size=num_pairs)
        return cls(methods=tuple(METHOD_ORDER[d] for d in draws))

    @classmethod
    def from_alpha(cls, alpha: np.ndarray) -> "Architecture":
        """Argmax decode of architecture parameters (paper Eq. 19)."""
        alpha = np.asarray(alpha)
        if alpha.ndim != 2 or alpha.shape[1] != len(METHOD_ORDER):
            raise ValueError(
                f"alpha must have shape [num_pairs, {len(METHOD_ORDER)}], "
                f"got {alpha.shape}"
            )
        if not np.all(np.isfinite(alpha)):
            # argmax would quietly decode NaN rows as "memorize".
            raise ValueError("alpha holds non-finite values; the search "
                             "diverged")
        picks = alpha.argmax(axis=1)
        return cls(methods=tuple(METHOD_ORDER[p] for p in picks))

    @classmethod
    def from_assignment(cls, assignment: Sequence[str]) -> "Architecture":
        """Build from method-name strings (``"memorize"`` etc.)."""
        return cls(methods=tuple(Method(name) for name in assignment))

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps([m.value for m in self.methods])

    @classmethod
    def from_json(cls, payload: str) -> "Architecture":
        return cls.from_assignment(json.loads(payload))

    def summary(self) -> Dict[str, int]:
        counts = self.counts()
        return {"memorize": counts[0], "factorize": counts[1], "naive": counts[2]}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        x, y, z = self.counts()
        return f"Architecture(memorize={x}, factorize={y}, naive={z})"
