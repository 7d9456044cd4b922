"""Fixtures shared by the data-layer tests."""

from __future__ import annotations

import pytest

from repro.data import cross


@pytest.fixture()
def sorted_cross_keys(monkeypatch):
    """Cap the dense cross-key space at 0, so every pair (or tuple)
    layout with a key counts sorted runs and looks ids up with
    ``searchsorted``."""
    monkeypatch.setattr(cross, "_DENSE_KEYS", 0)
