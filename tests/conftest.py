"""Fixtures shared by the test modules; plain builders live in support.py."""

from __future__ import annotations

import pytest

from contourdyn.geometry import Grid


@pytest.fixture
def grid256() -> Grid:
    return Grid(half_width=20.0, node_count=256)


@pytest.fixture
def grid512() -> Grid:
    return Grid(half_width=20.0, node_count=512)
