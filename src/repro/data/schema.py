"""Dataset schema: field specifications and pair enumeration.

A CTR dataset is multi-field (paper Eq. 1): each instance has ``M`` fields,
each field holding one categorical value (continuous fields are bucketed
into categories during preprocessing, as in the paper's setup).  The schema
records field names, kinds and cardinalities and enumerates the
``M(M-1)/2`` second-order feature interactions the paper considers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Tuple


@dataclass(frozen=True)
class FieldSpec:
    """Description of one input field.

    Parameters
    ----------
    name:
        Human-readable field name (e.g. ``"site_id"``).
    cardinality:
        Number of distinct raw values for categorical fields; for continuous
        fields this is the number of buckets produced by preprocessing.
    kind:
        ``"categorical"`` or ``"continuous"``.
    """

    name: str
    cardinality: int
    kind: str = "categorical"

    def __post_init__(self) -> None:
        if self.kind not in ("categorical", "continuous"):
            raise ValueError(f"unknown field kind: {self.kind!r}")
        if self.cardinality < 1:
            raise ValueError(f"cardinality must be >= 1, got {self.cardinality}")


@dataclass(frozen=True)
class Schema:
    """An ordered collection of :class:`FieldSpec`."""

    fields: Tuple[FieldSpec, ...]
    name: str = "synthetic"
    positive_ratio: float = 0.5

    def __post_init__(self) -> None:
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("field names must be unique")
        if not 0.0 < self.positive_ratio < 1.0:
            raise ValueError("positive_ratio must be in (0, 1)")

    @property
    def num_fields(self) -> int:
        return len(self.fields)

    @property
    def field_names(self) -> List[str]:
        return [f.name for f in self.fields]

    @property
    def cardinalities(self) -> List[int]:
        return [f.cardinality for f in self.fields]

    @property
    def num_pairs(self) -> int:
        """Number of second-order feature interactions, C(M, 2)."""
        m = self.num_fields
        return m * (m - 1) // 2

    def pairs(self, order: int = 2) -> List[Tuple[int, ...]]:
        """All C(M, order) field-index tuples in lexicographic order: by
        default the pairs (i, j) with i < j, in the paper's order."""
        if order < 2:
            raise ValueError(f"order must be >= 2, got {order}")
        return list(combinations(range(self.num_fields), order))

    def pair_names(self) -> List[str]:
        """Readable names for every feature interaction."""
        return [
            f"{self.fields[i].name}x{self.fields[j].name}" for i, j in self.pairs()
        ]

    def pair_index(self, i: int, j: int) -> int:
        """Position of pair (i, j) (i < j) in the flattened pair list."""
        if not 0 <= i < j < self.num_fields:
            raise ValueError(f"invalid pair ({i}, {j}) for {self.num_fields} fields")
        m = self.num_fields
        # Pairs are enumerated row by row: offset of row i plus column offset.
        return i * m - i * (i + 1) // 2 + (j - i - 1)


def make_schema(
    cardinalities: List[int],
    name: str = "synthetic",
    positive_ratio: float = 0.5,
    continuous_fields: Tuple[int, ...] = (),
    field_names: List[str] | None = None,
) -> Schema:
    """Convenience constructor from a list of cardinalities."""
    if field_names is None:
        field_names = [f"field_{i}" for i in range(len(cardinalities))]
    if len(field_names) != len(cardinalities):
        raise ValueError("field_names and cardinalities must have equal length")
    fields = tuple(
        FieldSpec(
            name=field_names[i],
            cardinality=card,
            kind="continuous" if i in continuous_fields else "categorical",
        )
        for i, card in enumerate(cardinalities)
    )
    return Schema(fields=fields, name=name, positive_ratio=positive_ratio)
