"""Shared fixtures: the 4-dim orthonormal toy setup and the bundled files."""

from pathlib import Path

import numpy as np
import pytest

from convneg.spectral import Dmat

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def identity(dim: int) -> Dmat:
    return Dmat(np.eye(dim))


def from_diagonal(values) -> Dmat:
    return Dmat(np.diag(np.asarray(values, dtype=float)))


@pytest.fixture
def eigen_solves(monkeypatch):
    """The names of the `np.linalg.eigh` and `eigvalsh` calls made from here on, in order."""
    calls = []

    def counting(name, real):
        def solve(a, *args, **kwargs):
            calls.append(name)
            return real(a, *args, **kwargs)

        return solve

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def onb():
    """Pure states on the standard basis: apple, orange, fig, movie."""
    basis = np.eye(4)
    return {
        "apple": Dmat(np.outer(basis[0], basis[0])),
        "orange": Dmat(np.outer(basis[1], basis[1])),
        "fig": Dmat(np.outer(basis[2], basis[2])),
        "movie": Dmat(np.outer(basis[3], basis[3])),
    }


@pytest.fixture
def fruit_raw(onb):
    """Worldly-context mixture: half apple, third orange, sixth fig."""
    mix = (
        onb["apple"].matrix / 2.0
        + onb["orange"].matrix / 3.0
        + onb["fig"].matrix / 6.0
    )
    return Dmat(mix)


@pytest.fixture
def fixture_paths():
    return {
        "vectors": FIXTURES / "toy_vectors.txt",
        "hierarchy": FIXTURES / "toy_hierarchy.tsv",
        "dataset": FIXTURES / "toy_dataset.tsv",
        "grid": FIXTURES / "toy_grid.cfg",
    }
