"""Fixtures shared by the test modules."""

import pytest

from qloss import bloch


@pytest.fixture
def filtering_only(monkeypatch):
    """Turn the pencil route of the normal form off, so that a rank-2 state
    is filtered as a state of any other rank is."""
    monkeypatch.setattr(bloch, "_kronecker", lambda g, rank_tol: None)
