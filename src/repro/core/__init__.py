"""``repro.core`` — the OptInter framework (the paper's contribution).

Architecture representation, the Gumbel-softmax combination block, the
OptInter model (search / fixed modes over pairs and, optionally, field
triples, plus the OptInter-M / OptInter-F instances), the search
algorithms (joint, bi-level, random) and the re-train stage.
"""

from .architecture import Architecture, Method, METHOD_ORDER
from .combination import CombinationBlock, sample_gumbel
from .optinter import OptInterModel, optinter_f, optinter_m, optinter_naive
from .search import (
    SearchConfig,
    SearchResult,
    random_architecture,
    search_bilevel,
    search_optinter,
)
from .retrain import (
    OptInterResult,
    RetrainConfig,
    build_fixed_model,
    retrain,
    run_optinter,
)

__all__ = [
    "Architecture",
    "Method",
    "METHOD_ORDER",
    "CombinationBlock",
    "sample_gumbel",
    "OptInterModel",
    "optinter_m",
    "optinter_f",
    "optinter_naive",
    "SearchConfig",
    "SearchResult",
    "search_optinter",
    "search_bilevel",
    "random_architecture",
    "RetrainConfig",
    "OptInterResult",
    "build_fixed_model",
    "retrain",
    "run_optinter",
]
