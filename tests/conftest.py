"""Fixtures shared by the test modules: a guard against neighbor searches, and child environments."""

import os
from pathlib import Path

import pytest

from angleid import neighbors

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture()
def no_search(monkeypatch):
    """Fails the test if any neighbor search runs: every route looks up ``neighbors._knn_kernel``."""
    def search(*args, **kwargs):
        raise AssertionError("a neighbor search ran")

    monkeypatch.setattr(neighbors, "_knn_kernel", search)


@pytest.fixture()
def package_env():
    """``package_env(**extra)``: this environment plus ``extra``, with this checkout's
    ``src/`` first on PYTHONPATH, so a child interpreter imports the package under test."""
    def env(**extra) -> dict:
        path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
        return dict(os.environ, PYTHONPATH=path, **extra)

    return env
