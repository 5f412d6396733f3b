"""Fixtures shared by the test modules."""

import pytest

from qloss import bloch


@pytest.fixture
def filtering_only(monkeypatch):
    """Turn both pencil routes of the normal form off, so that a rank-2
    state is filtered wherever the ``no_normal_form`` rule lets it be."""
    monkeypatch.setattr(bloch, "_pencil_vectors", lambda g, bound: None)
    monkeypatch.setattr(bloch, "_l_eps_pencil", lambda g, bound: False)
