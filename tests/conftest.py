import os
from pathlib import Path

import pytest

from charrig import corpus
from charrig.cochains import _snf_boundary

# The CLI tests run `python -m charrig.cli` in child processes: give them
# the src/ that the `pythonpath` setting of pyproject.toml gives pytest.
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (
    str(Path(__file__).resolve().parent.parent / "src"),
    os.environ.get("PYTHONPATH"))))

CORPUS = list(corpus.CORPUS_NAMES)
SURFACES = ["s2", "t2", "rp2", "klein"]


@pytest.fixture(scope="session")
def cx():
    """Loader fixture: complexes cached for the whole session so the
    Smith-normal-form caches are shared across tests."""
    return corpus.load


@pytest.fixture(scope="session", params=CORPUS)
def corpus_complex(request):
    return corpus.load(request.param)


def cycle_basis(X, j):
    """The Z-basis of the j-cycles that the library reads, the sparse
    columns of V past the rank of the cached factorization of boundary_j
    (shared with the cache, read-only); empty outside 0..dim."""
    fact = _snf_boundary(X, j)
    return tuple(fact.V[fact.rank:])
