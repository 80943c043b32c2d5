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
    """The Z-basis of the j-cycles that the library reads, the basis of
    the cycle lines of the cached factorization of boundary_j (columns
    of V past the rank, shared with the cache, read-only); empty outside
    0..dim."""
    return _snf_boundary(X, j).cycles.basis


def replay(n, log, inverse):
    """A transform of a Smith factorization replayed forward from the
    identity on Z^n, restated plainly as the reference for the views the
    library builds backward: U by rows from the row log and V by columns
    from the column log, or with `inverse` Uinv by columns and Vinv by
    rows. A log entry (i, t, q) is line i -= q * line t (q != 0), a swap
    of lines i and t (q == 0, i != t) or a negation of line i (i == t);
    the inverse applies line t += q * line i, the inverse operation on
    the other side."""
    vecs = [{i: 1} for i in range(n)]
    for i, t, q in log:
        if q:
            dst, src, c = (t, i, q) if inverse else (i, t, -q)
            for k, x in vecs[src].items():
                v = vecs[dst].get(k, 0) + c * x
                if v:
                    vecs[dst][k] = v
                else:
                    del vecs[dst][k]
        elif i != t:
            vecs[i], vecs[t] = vecs[t], vecs[i]
        else:
            vecs[i] = {k: -x for k, x in vecs[i].items()}
    return vecs


def transforms(fact):
    """U, V, Uinv and Vinv of a factorization replayed by `replay`, as
    lists of sparse vectors: U and Vinv by rows, V and Uinv by columns."""
    (m, n), rows, cols = fact.shape, fact.row_log, fact.col_log
    return (replay(m, rows, False), replay(n, cols, False),
            replay(m, rows, True), replay(n, cols, True))


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
