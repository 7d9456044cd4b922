"""Vocabularies with frequency thresholding and an out-of-vocabulary bucket.

The paper replaces rare feature values with a dummy OOV feature (Criteo:
values seen < 20 times; Avazu: < 5 times; cross-product values likewise).
:class:`Vocabulary` reproduces that: it is built from training data only,
maps any value seen fewer than ``min_count`` times — and any unseen value at
transform time — to the reserved OOV id 0.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Dict, Hashable, Iterable, List

import numpy as np

OOV_ID = 0


class Vocabulary:
    """Frequency-thresholded value-to-id mapping with a reserved OOV slot."""

    def __init__(self, min_count: int = 1) -> None:
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        self.min_count = min_count
        self._value_to_id: Dict[Hashable, int] = {}
        self._frozen = False

    def fit(self, values: Iterable[Hashable]) -> "Vocabulary":
        """Build the mapping from training values; call exactly once."""
        if self._frozen:
            raise RuntimeError("vocabulary is already fitted")
        self._fit_counts(Counter(values))
        return self

    def _fit_counts(self, counts: "Counter") -> None:
        """Freeze the mapping from a finished frequency table."""
        next_id = OOV_ID + 1
        # Deterministic ordering: by descending frequency then value repr.
        for value, count in sorted(
            counts.items(), key=lambda kv: (-kv[1], repr(kv[0]))
        ):
            if count >= self.min_count:
                self._value_to_id[value] = next_id
                next_id += 1
        self._frozen = True

    @classmethod
    def from_counts(cls, counts: "Counter",
                    min_count: int = 1) -> "Vocabulary":
        """Build a fitted vocabulary straight from a frequency table.

        The mapping is identical to ``Vocabulary(min_count).fit(stream)``
        where ``stream`` is any ordering of the counted multiset — the
        chunked-ingest accumulators rely on this equivalence for their
        bit-for-bit differential guarantee.
        """
        vocab = cls(min_count=min_count)
        vocab._fit_counts(counts)
        return vocab

    @property
    def size(self) -> int:
        """Total id count, including the OOV slot."""
        return len(self._value_to_id) + 1

    def lookup(self, value: Hashable) -> int:
        """Id for ``value``; OOV (0) when unseen or below threshold."""
        return self._value_to_id.get(value, OOV_ID)

    def transform(self, values: Iterable[Hashable]) -> np.ndarray:
        """Vectorised lookup returning an int64 array.

        An empty iterable yields an empty *int64* array — downstream
        index arithmetic must never see a dtype change on the empty edge
        case.  ``None``/NaN entries fall
        through ``dict.get`` to the OOV id like any unseen value.
        """
        if not self._frozen:
            raise RuntimeError("vocabulary must be fitted before transform")
        return np.fromiter(
            map(self._value_to_id.get, values, repeat(OOV_ID)), dtype=np.int64
        )

    def __contains__(self, value: Hashable) -> bool:
        return value in self._value_to_id

    def __len__(self) -> int:
        return self.size


class FieldVocabularies:
    """Per-field vocabularies over a 2-D array of raw categorical values."""

    def __init__(self, min_count: int = 1) -> None:
        self.min_count = min_count
        self.vocabularies: List[Vocabulary] = []

    def fit(self, raw: np.ndarray) -> "FieldVocabularies":
        """Fit one vocabulary per column of ``raw`` (shape [n, M])."""
        raw = np.asarray(raw)
        if raw.ndim != 2:
            raise ValueError(f"expected 2-D raw values, got shape {raw.shape}")
        self.vocabularies = [
            Vocabulary(self.min_count).fit(raw[:, col]) for col in range(raw.shape[1])
        ]
        return self

    def transform(self, raw: np.ndarray) -> np.ndarray:
        """Map raw values column by column into ids (shape preserved)."""
        raw = np.asarray(raw)
        if raw.shape[1] != len(self.vocabularies):
            raise ValueError(
                f"expected {len(self.vocabularies)} columns, got {raw.shape[1]}"
            )
        out = np.empty(raw.shape, dtype=np.int64)
        for col, vocab in enumerate(self.vocabularies):
            out[:, col] = vocab.transform(raw[:, col])
        return out

    @property
    def sizes(self) -> List[int]:
        """Vocabulary size (incl. OOV) per field."""
        return [v.size for v in self.vocabularies]
