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


def boundary_oracle(X, j):
    """Dense boundary_j: C_j -> C_{j-1}, one list per (j-1)-simplex, built
    from the simplex lists alone by deleting one vertex at a time (deleting
    vertex i gives the sign (-1)^i); n_{j-1} rows, none outside 1..dim+1."""
    lower = X.simplices[j - 1] if 1 <= j <= X.dim + 1 else ()
    upper = X.simplices[j] if 1 <= j <= X.dim else ()
    row_of = {s: r for r, s in enumerate(lower)}
    mat = [[0] * len(upper) for _ in lower]
    for c, s in enumerate(upper):
        for i in range(len(s)):
            mat[row_of[s[:i] + s[i + 1:]]][c] += (-1) ** i
    return mat
