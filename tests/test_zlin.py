"""Exact linear algebra: Smith normal form, solvability, presentations."""
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import Matrix, eye
from sympy.matrices.normalforms import invariant_factors

from charrig import corpus, zlin
from charrig.simplicial import barycentric_subdivide
from conftest import CORPUS, transforms


def matvec(a, x):
    """a @ x computed by sympy, an oracle made apart from zlin."""
    if not x:
        return [Fraction(0)] * len(a)
    return [Fraction(int(v.p), int(v.q)) for v in Matrix(a) * Matrix(x)]


def dense(fact):
    """U, V, Uinv and Vinv of a factorization, replayed by the reference
    `conftest.replay`, as dense lists of rows."""
    m, n = fact.shape
    U, V, Uinv, Vinv = transforms(fact)

    def rows(vecs, k):
        return [[v.get(c, 0) for c in range(k)] for v in vecs]

    def cols(vecs, k):
        return [list(r) for r in zip(*rows(vecs, k))]
    return rows(U, m), cols(V, n), cols(Uinv, m), rows(Vinv, n)


VIEWS = ("U", "V_rows", "cycles")


def views(fact):
    """What a factorization builds from its logs: U, V by rows and the
    cycle lines, each as a list of sparse vectors."""
    c = fact.cycles
    return [fact.U, fact.V_rows, c.basis, c.coords, c.by_line,
            c.torsion_cols, c.torsion_rows]


def assert_views_match_the_replay(f):
    """U is rows ..rank of the replayed U; V_rows is the replayed V by
    rows; the cycle lines are columns rank.. of V and rows rank.. of
    Vinv, then column and row i of each for each torsion index i, and
    `by_line` holds those columns by rows. Every view has ascending
    keys, and no vector holds a zero."""
    m, n = f.shape
    r = f.rank
    U, V, Uinv, Vinv = transforms(f)
    tors = [i for i in range(r) if f.diag[i] > 1]
    assert f.U == tuple(U[:r])
    assert f.V_rows == [{j: col[i] for j, col in enumerate(V) if i in col}
                        for i in range(n)]
    c = f.cycles
    assert (c.basis, c.coords) == (tuple(V[r:]), tuple(Vinv[r:]))
    assert c.torsion == tuple(f.diag[i] for i in tors)
    assert c.torsion_cols == tuple(V[i] for i in tors)
    assert c.torsion_rows == tuple(Vinv[i] for i in tors)
    picked = c.basis + c.torsion_cols
    assert list(c.by_line) == [
        {k: col[i] for k, col in enumerate(picked) if i in col}
        for i in range(n)]
    lists = (f.U, f.V_rows, c.basis, c.coords, c.by_line, c.torsion_cols,
             c.torsion_rows)
    assert all(list(v) == sorted(v) for vecs in lists for v in vecs)
    assert all(x != 0 for vecs in lists for vec in vecs for x in vec.values())


def as_dict(v):
    """The sparse form of a dense vector."""
    return {i: x for i, x in enumerate(v) if x}


def small_matrices(max_dim=8, lo=-5, hi=5):
    return st.integers(1, max_dim).flatmap(
        lambda m: st.integers(1, max_dim).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(lo, hi), min_size=n, max_size=n),
                min_size=m, max_size=m)))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_snf_transforms_and_divisibility(a):
    f = zlin.smith_normal_form(a)
    m, n = f.shape
    U, V, Uinv, Vinv = dense(f)
    S = Matrix.zeros(m, n)
    for i, d in enumerate(f.diag):
        S[i, i] = d
    assert Matrix(U) * Matrix(a) * Matrix(V) == S
    assert Matrix(U) * Matrix(Uinv) == eye(m)
    assert Matrix(Vinv) * Matrix(V) == eye(n)
    assert abs(Matrix(U).det()) == 1
    assert abs(Matrix(V).det()) == 1
    assert_views_match_the_replay(f)
    nz = [d for d in f.diag if d]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_transpose_factors_the_transposed_matrix(a):
    """`T` is the factorization of A^T: the same diagonal, and the
    reference replay of its exchanged logs gives U_T A^T V_T == S^T. Its
    views match that replay, and reading them caches nothing on the
    factorization it transposes."""
    f = zlin.smith_normal_form(a)
    t = f.T
    m, n = f.shape
    assert (t.shape, t.diag, t.rank) == ((n, m), f.diag, f.rank)
    U, V, _, _ = dense(t)
    S = Matrix.zeros(n, m)
    for i, d in enumerate(t.diag):
        S[i, i] = d
    assert Matrix(U) * Matrix(a).T * Matrix(V) == S
    assert_views_match_the_replay(t)
    assert not set(VIEWS) & set(f.__dict__)


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=6))
def test_snf_matches_independent_oracle(a):
    f = zlin.smith_normal_form(a)
    expected = [int(d) for d in invariant_factors(Matrix(a)) if d != 0]
    assert [d for d in f.diag if d] == expected


def key_orders(fact):
    """The views with the key order of every dict."""
    return [[list(vec) for vec in vecs] for vecs in views(fact)]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_dict_rows_and_row_only_factorization_match_dense_rows(a):
    """Ascending dict rows give the factorization of the dense rows, dict
    key order included. A factorization read only for U builds neither
    V_rows nor the cycle lines; read later, they are those of the full
    factorization."""
    f = zlin.smith_normal_form(a)
    rows = [as_dict(r) for r in a]
    g = zlin.smith_normal_form(rows, ncols=len(a[0]))
    assert (g.diag, views(g)) == (f.diag, views(f))
    assert key_orders(g) == key_orders(f)
    h = zlin.smith_normal_form(rows, ncols=len(a[0]))
    assert (h.diag, h.U) == (f.diag, f.U)
    assert "V_rows" not in h.__dict__ and "cycles" not in h.__dict__
    assert views(h) == views(f)


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_dict_row_key_order_does_not_change_the_factorization(a, rnd):
    """Dict rows with their keys shuffled give the factorization of the
    ascending ones: the same diagonal, both logs and every view, dict key
    order included."""
    rows = [as_dict(r) for r in a]
    shuffled = [dict(rnd.sample(list(r.items()), len(r))) for r in rows]
    f = zlin.smith_normal_form(rows, ncols=len(a[0]))
    g = zlin.smith_normal_form(shuffled, ncols=len(a[0]))
    assert (g.diag, g.row_log, g.col_log) == (f.diag, f.row_log, f.col_log)
    assert views(g) == views(f)
    assert key_orders(g) == key_orders(f)


def unit_matrices_with_one_larger_entry(max_dim=7):
    """Matrices with entries in {-1, 0, 1} and one entry of ±2 or ±3, like
    the boundary operators and relation matrices: unit pivots clear most
    of the block, and the larger entry can leave a non-unit pivot."""
    def place(shape):
        m, n = shape
        return st.tuples(
            st.lists(st.lists(st.sampled_from((-1, 0, 0, 1)), min_size=n,
                              max_size=n), min_size=m, max_size=m),
            st.integers(0, m - 1), st.integers(0, n - 1),
            st.sampled_from((2, 3, -2, -3)))

    def build(drawn):
        a, i, j, v = drawn
        a[i][j] = v
        return a
    return st.tuples(st.integers(1, max_dim), st.integers(1, max_dim)) \
        .flatmap(place).map(build)


TRANSFORM_ORDERS = [("U", "V_rows", "cycles"), ("V_rows", "cycles", "U"),
                    ("cycles", "U", "V_rows"), ("cycles", "V_rows", "U")]


def check_transforms_in_order(a, order, dict_rows):
    """Read the views of a fresh factorization in `order`, each read
    building exactly the view read, and check them against the replayed
    transforms, on which sympy checks U a V = S, U Uinv = I and
    Vinv V = I."""
    m, n = len(a), len(a[0])
    rows = [as_dict(r) for r in a] if dict_rows else a
    f = zlin.smith_normal_form(rows, ncols=n)
    for k, name in enumerate(order):
        getattr(f, name)
        assert set(order[:k + 1]) == {x for x in order if x in f.__dict__}
    assert_views_match_the_replay(f)
    U, V, Uinv, Vinv = dense(f)
    S = Matrix.zeros(m, n)
    for i, d in enumerate(f.diag):
        S[i, i] = d
    assert Matrix(U) * Matrix(a) * Matrix(V) == S
    assert Matrix(U) * Matrix(Uinv) == eye(m)
    assert Matrix(Vinv) * Matrix(V) == eye(n)
    return f


@settings(max_examples=80, deadline=None)
@given(unit_matrices_with_one_larger_entry(),
       st.sampled_from(TRANSFORM_ORDERS), st.booleans())
def test_transforms_built_on_first_read_in_any_order(a, order, dict_rows):
    f = check_transforms_in_order(a, order, dict_rows)
    expected = [int(d) for d in invariant_factors(Matrix(a)) if d != 0]
    assert [d for d in f.diag if d] == expected


@pytest.mark.parametrize("order", TRANSFORM_ORDERS)
def test_unit_and_euclid_pivots_in_one_factorization(order):
    """The first pivot is a unit; the rest of the block holds no unit, so
    the next pivot, 2, runs the divisibility sweep against the 3 and the
    other 2, and the remainder the sweep leaves in its row is the next
    pivot."""
    a = [[1, -1, 0, 0],
         [1, 1, 0, 0],
         [0, 0, 2, 0],
         [0, 0, 0, 3]]
    f = check_transforms_in_order(a, order, dict_rows=False)
    assert f.diag == (1, 1, 2, 6)
    assert f.diag == tuple(int(d) for d in invariant_factors(Matrix(a)))


def test_snf_examples():
    """Transforms pinned through the reference replay, with the views
    read from them."""
    f = zlin.smith_normal_form([[2]])
    assert f.diag == (2,) and transforms(f)[:2] == ([{0: 1}], [{0: 1}])
    assert f.cycles.torsion == (2,) and f.cycles.torsion_rows == ({0: 1},)
    z = zlin.smith_normal_form([[0, 0], [0, 0]])
    assert z.diag == (0, 0)
    assert all(vecs == [{0: 1}, {1: 1}] for vecs in transforms(z))
    assert z.cycles.basis == z.cycles.coords == ({0: 1}, {1: 1})
    # swapping the two columns of [[0, 1]] brings the pivot to (0, 0)
    s = zlin.smith_normal_form([[0, 1]])
    _, V, _, Vinv = transforms(s)
    assert s.diag == (1,) and V == [{1: 1}, {0: 1}] and Vinv == V
    assert s.cycles.basis == s.cycles.coords == ({0: 1},)
    assert s.V_rows == [{1: 1}, {0: 1}]


def test_snf_pivot_examples():
    """The pivot is the smallest |entry|, ties by row then column: the
    scan may stop at the first row holding a unit, but not before."""
    # row 0 holds only non-units; the first unit, (1, 1), is the pivot
    f = zlin.smith_normal_form([[2, 3], [4, 1]])
    assert f.diag == (1, 10)
    U, V, Uinv, Vinv = transforms(f)
    assert U == [{1: 1}, {0: -1, 1: 3}] and V == [{1: 1}, {0: 1, 1: -4}]
    assert Uinv == [{0: 3, 1: 1}, {0: -1}] and Vinv == [{0: 4, 1: 1}, {0: 1}]
    assert f.cycles.torsion_cols == ({0: 1, 1: -4},)
    assert f.cycles.torsion_rows == ({0: 1},)
    # no unit in the active block: the whole block is scanned for the 2
    g = zlin.smith_normal_form([[2, 4], [6, 3]])
    assert g.diag == (1, 18)
    U, V, Uinv, Vinv = transforms(g)
    assert U == [{0: -2, 1: 1}, {0: -21, 1: 10}]
    assert V == [{0: 3, 1: 1}, {0: -5, 1: -2}]
    assert Uinv == [{0: 10, 1: 21}, {0: -1, 1: -2}]
    assert Vinv == [{0: 2, 1: -5}, {0: 1, 1: -3}]
    assert g.V_rows == [{0: 3, 1: -5}, {0: 1, 1: -2}]
    for fact in (f, g):
        assert_views_match_the_replay(fact)
    # a remainder left in column 0, in row 0, and in row 0 after column 0
    # is cleared: each sends the elimination back to the pivot choice
    for a, diag in (([[2], [3]], (1,)), ([[2, 3]], (1,)),
                    ([[2, 3], [4, 5]], (1, 2))):
        for order in TRANSFORM_ORDERS:
            assert check_transforms_in_order(a, order, dict_rows=True).diag == diag


def test_snf_is_deterministic():
    rng = random.Random(7)
    a = [[rng.randrange(-5, 6) for _ in range(5)] for _ in range(4)]
    f1 = zlin.smith_normal_form(a)
    f2 = zlin.smith_normal_form([row[:] for row in a])
    assert (views(f1), f1.diag) == (views(f2), f2.diag)
    assert key_orders(f1) == key_orders(f2)


@settings(max_examples=50, deadline=None)
@given(small_matrices(max_dim=6), st.integers(0, 10**6))
def test_solve_integer_roundtrip(a, seed):
    rng = random.Random(seed)
    n = len(a[0])
    x0 = [rng.randrange(-3, 4) for _ in range(n)]
    b = [int(v) for v in matvec(a, x0)]
    x = zlin.solve_integer(zlin.smith_normal_form(a), as_dict(b))
    assert x is not None and all(x.values())
    assert matvec(a, zlin.dense(x, n)) == b
    # the rational solver on a rational right side a @ x0 / q
    q = rng.randrange(1, 6)
    bq = [Fraction(v, q) for v in b]
    y = zlin.solve_rational(a, as_dict(bq))
    assert y is not None and all(y.values())
    assert matvec(a, zlin.dense(y, n)) == bq
    # and on an arbitrary right side: None exactly when rank(a) < rank([a | b])
    c = [rng.randrange(-3, 4) for _ in range(len(a))]
    inconsistent = Matrix(a).rank() < Matrix(a).row_join(Matrix(c)).rank()
    y = zlin.solve_rational(a, as_dict(c))
    assert (y is None) == inconsistent
    if y is not None:
        assert matvec(a, zlin.dense(y, n)) == c


@settings(max_examples=50, deadline=None)
@given(small_matrices(max_dim=6), st.integers(0, 10**6))
def test_solve_transposed_agrees_with_solving_the_transpose(a, seed):
    """A^T x = e b read from the factorization of A, for an integer b, has
    a solution exactly when the factorization of A^T finds one, over Z
    (with e = 1) and over Q. Rational right sides reach it as numerators
    over one denominator (see `cochains.solve_coboundary`)."""
    rng = random.Random(seed)
    fact = zlin.smith_normal_form(a)
    at = [list(col) for col in zip(*a)]
    x0 = [rng.randrange(-3, 4) for _ in range(len(a))]
    b0 = [int(v) for v in matvec(at, x0)]
    for b in (b0, [rng.randrange(-3, 4) for _ in range(len(at))]):
        for integral in (True, False):
            sol = zlin.solve_transposed(fact, as_dict(b), integral)
            expected = (zlin.solve_integer(zlin.smith_normal_form(at), as_dict(b))
                        if integral else zlin.solve_rational(at, as_dict(b)))
            assert (sol is None) == (expected is None)
            if sol is not None:
                x, e = zlin.dense(sol[0], len(a)), sol[1]
                assert e >= 1 and (e == 1 or not integral)
                assert all(isinstance(v, int) for v in x)
                assert matvec(at, x) == [e * v for v in b]


def _dense_solve_transposed(fact, b, integral):
    """The dense formula the sparse solve replaced, kept as its reference:
    one dot product per column of V for w = V^T b, the division by the
    whole diagonal, and x = U^T y over every row of U."""
    m, _ = fact.shape
    r = fact.rank
    U, V, _, _ = transforms(fact)
    w = [sum(b[i] * x for i, x in col.items()) for col in V]
    if any(w[r:]):
        return None
    pairs = list(zip(w, fact.diag[:r]))
    if integral:
        if any(wt % d for wt, d in pairs):
            return None
        y, e = [wt // d for wt, d in pairs], 1
    else:
        e = lcm(*(d // gcd(wt, d) for wt, d in pairs))
        y = [wt * e // d for wt, d in pairs]
    x = [0] * m
    for yt, row in zip(y, U):
        for i, u in row.items():
            x[i] += yt * u
    return x, e


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.integers(0, 10**6))
def test_row_index_and_sparse_solve_match_the_dense_formula(a, seed):
    """V_rows is exactly the transpose of the replayed V, with ascending
    columns and no zeros, and the sparse solve returns the same (x, e),
    or None, as the dense formula over the replayed U and V, over Z and
    over Q, for a solvable right side, a random one and one with a
    single nonzero entry."""
    fact = zlin.smith_normal_form(a)
    m, n = fact.shape
    _, V, _, _ = dense(fact)
    assert [[row.get(j, 0) for j in range(n)] for row in fact.V_rows] == V
    assert all(list(row) == sorted(row) and all(row.values())
               for row in fact.V_rows)
    rng = random.Random(seed)
    x0 = [rng.randrange(-3, 4) for _ in range(m)]
    solvable = [sum(a[i][j] * x0[i] for i in range(m)) for j in range(n)]
    single = [0] * n
    single[rng.randrange(n)] = rng.choice((-2, -1, 1, 3))
    for b in (solvable, [rng.randrange(-3, 4) for _ in range(n)], single):
        for integral in (True, False):
            sol = zlin.solve_transposed(fact, as_dict(b), integral)
            if sol is not None:
                assert all(sol[0].values())
                sol = zlin.dense(sol[0], m), sol[1]
            assert sol == _dense_solve_transposed(fact, b, integral)


def test_solve_integer_examples():
    f = zlin.smith_normal_form([[2]])
    assert zlin.solve_integer(f, {0: 4}) == {0: 2}
    assert zlin.solve_integer(f, {0: 3}) is None


@settings(max_examples=30, deadline=None)
@given(small_matrices(max_dim=4, lo=-3, hi=3),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_solve_integer_unsolvable_confirmed_by_enumeration(a, braw):
    m = len(a)
    b = braw[:m]
    x = zlin.solve_integer(zlin.smith_normal_form(a), as_dict(b))
    if x is not None:
        assert matvec(a, zlin.dense(x, len(a[0]))) == b
        return
    # brute-force over the SNF-reduced system: solvability would demand
    # each diagonal d_i to divide (U b)_i and zero rows to match exactly
    f = zlin.smith_normal_form(a)
    c = matvec(dense(f)[0], b)
    solvable = True
    for i in range(m):
        if i < len(f.diag) and f.diag[i]:
            solvable = solvable and (c[i] % f.diag[i] == 0)
        else:
            solvable = solvable and (c[i] == 0)
    assert not solvable


def plain_smith_logs(a, n):
    """The elimination restated plainly, as an oracle for its logs: column
    swaps move the entries, and each pivot scan walks every row from t
    on, empty ones included. Returns (diag, row_log, col_log)."""
    m = len(a)
    rows = [{j: x for j, x in (r.items() if isinstance(r, dict)
                                else enumerate(r)) if x} for r in a]
    row_log, col_log = [], []

    def add(i, t, q):  # row_i -= q * row_t
        for j, x in rows[t].items():
            v = rows[i].get(j, 0) - q * x
            if v:
                rows[i][j] = v
            else:
                del rows[i][j]
        row_log.append((i, t, q))

    diag, t = [], 0
    while t < min(m, n):
        entries = [(abs(v), i, j) for i in range(t, m) for j, v in rows[i].items()]
        if not entries:
            break
        _, i, j = min(entries)
        if i != t:
            rows[i], rows[t] = rows[t], rows[i]
            row_log.append((i, t, 0))
        if j != t:
            for r in rows:
                vj, vt = r.pop(j, None), r.pop(t, None)
                if vt is not None:
                    r[j] = vt
                if vj is not None:
                    r[t] = vj
            col_log.append((j, t, 0))
        rt = rows[t]
        if rt[t] < 0:
            for k in rt:
                rt[k] = -rt[k]
            row_log.append((t, t, 0))
        p = rt[t]
        below = [i for i in range(m) if i != t and t in rows[i]]
        for i in below:
            add(i, t, rows[i][t] // p)
        if any(t in rows[i] for i in below):
            continue
        for k in sorted(rt):
            if k != t:
                q, r = divmod(rt[k], p)
                col_log.append((k, t, q))
                if r:
                    rt[k] = r
                else:
                    del rt[k]
        if len(rt) > 1:
            continue
        bad = [i for i in range(t + 1, m) if any(v % p for v in rows[i].values())]
        if bad:
            add(t, bad[0], -1)
            continue
        diag.append(p)
        t += 1
    return tuple(diag) + (0,) * (min(m, n) - len(diag)), row_log, col_log


@st.composite
def matrices_with_zero_rows(draw):
    """A small or a unit matrix with all-zero rows put in anywhere: a scan
    meets them before and after pivot rows of every size."""
    a = draw(st.one_of(small_matrices(), unit_matrices_with_one_larger_entry()))
    for _ in range(draw(st.integers(0, 4))):
        a.insert(draw(st.integers(0, len(a))), [0] * len(a[0]))
    return a


def assert_logs_are_the_plain_ones(rows, n):
    f = zlin.smith_normal_form(rows, ncols=n)
    assert (f.diag, f.row_log, f.col_log) == plain_smith_logs(rows, n)


@settings(max_examples=200, deadline=None)
@given(matrices_with_zero_rows(), st.booleans(),
       st.randoms(use_true_random=False))
@example([[0, 0], [2, 3]], False, random.Random(0))
@example([[0, 0, 0], [0, 4, 6], [0, 0, 0], [6, 0, 9]], True, random.Random(0))
def test_elimination_logs_match_the_plain_elimination(a, as_dicts, rnd):
    """Relabelled column swaps, skipped empty rows and one-pass row
    operations log what the plain elimination logs, for dense rows and
    for dict rows with their keys shuffled. In the examples the pivot row
    is swapped into a row that the scan found empty, and a remainder
    sends the elimination back to the scan from there."""
    rows = a
    if as_dicts:
        rows = [dict(rnd.sample(list(r.items()), len(r)))
                for r in map(as_dict, a)]
    assert_logs_are_the_plain_ones(rows, len(a[0]))


@pytest.mark.parametrize("name", CORPUS)
def test_boundary_logs_match_the_plain_elimination(name):
    """Every boundary operator of sd^0, sd^1 and sd^2 of each corpus
    complex."""
    X = corpus.load(name)
    for _ in range(3):
        for j in range(X.dim + 2):
            assert_logs_are_the_plain_ones(X.boundary_rows(j), X.n_simplices(j))
        X = barycentric_subdivide(X).complex


@settings(max_examples=100, deadline=None)
@given(st.one_of(matrices_with_zero_rows(), unit_matrices_with_one_larger_entry()))
@example([[2, 0, 0], [0, 6, 0], [0, 0, 0]])  # two torsion lines and a cycle
def test_views_match_the_replayed_transforms(a):
    """U (below the rank), V_rows and the cycle lines equal what the
    plain forward replay builds, zero rows and non-unit pivots included."""
    assert_views_match_the_replay(zlin.smith_normal_form(a))


@pytest.mark.parametrize("name", CORPUS)
def test_boundary_views_match_the_replayed_transforms(name):
    """Every boundary operator of sd^0, sd^1 and sd^2 of each corpus
    complex."""
    X = corpus.load(name)
    for _ in range(3):
        for j in range(X.dim + 2):
            assert_views_match_the_replay(zlin.smith_normal_form(
                X.boundary_rows(j), ncols=X.n_simplices(j)))
        X = barycentric_subdivide(X).complex


def test_rows_are_read_as_integers_and_left_unchanged():
    """Values that are not integral are refused; integral Fractions,
    floats and bools factor as the ints they equal, into ints; explicit
    zeros are dropped; no input row is changed, the cached boundary rows
    included; a matrix without rows has an empty factorization."""
    for bad in ([[Fraction(1, 2)]], [[1, 0.5]], [{0: 2, 1: Fraction(3, 2)}]):
        with pytest.raises(ValueError):
            zlin.smith_normal_form(bad, ncols=len(bad[0]))
    mixed = [[Fraction(4, 2), True], [0, 6.0], [0, Fraction(-3)]]
    f = zlin.smith_normal_form(mixed)
    g = zlin.smith_normal_form([[2, 1], [0, 6], [0, -3]])
    assert (f.diag, f.row_log, f.col_log) == (g.diag, g.row_log, g.col_log)
    assert all(type(x) is int for x in f.diag)
    assert all(type(x) is int for vecs in views(f) for v in vecs
               for x in v.values())
    zeros = [{1: 0, 0: 2}, {0: 0, 1: 0}, {1: 3, 0: 0}]
    snapshot = [list(r.items()) for r in zeros]
    h = zlin.smith_normal_form(zeros, ncols=2)
    k = zlin.smith_normal_form([{0: 2}, {}, {1: 3}], ncols=2)
    assert (h.diag, h.row_log, h.col_log) == (k.diag, k.row_log, k.col_log)
    assert [list(r.items()) for r in zeros] == snapshot
    X = corpus.load("klein")
    for j in range(X.dim + 2):
        rows = X.boundary_rows(j)
        snapshot = [list(r.items()) for r in rows]
        zlin.cokernel(zlin.smith_normal_form(rows, ncols=X.n_simplices(j)))
        assert X.boundary_rows(j) is rows
        assert [list(r.items()) for r in rows] == snapshot
    empty = zlin.smith_normal_form([], ncols=3)
    assert (empty.shape, empty.diag, empty.rank) == ((0, 3), (), 0)
    assert (empty.row_log, empty.col_log) == ([], [])
    assert empty.V_rows == [{0: 1}, {1: 1}, {2: 1}]
    assert empty.cycles.basis == empty.cycles.coords == ({0: 1}, {1: 1}, {2: 1})


def kernel_basis(a):
    """The basis of the cycle lines, made dense: the kernel basis the
    library reads (as the cycle basis of a boundary operator)."""
    f = zlin.smith_normal_form(a)
    return [[col.get(i, 0) for i in range(f.shape[1])] for col in f.cycles.basis]


def test_kernel_basis_examples():
    assert kernel_basis([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == []
    assert kernel_basis([[0, 0], [0, 0]]) == [[1, 0], [0, 1]]


def test_kernel_basis_spans_and_is_exact():
    rng = random.Random(3)
    for _ in range(40):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        K = kernel_basis(a)
        for col in K:
            assert all(v == 0 for v in matvec(a, col))
        # rank-nullity over Q
        assert len(K) == n - Matrix(a).rank()


def test_cokernel_examples():
    g = zlin.cokernel(zlin.smith_normal_form([[2]]))
    assert (g.rank, g.torsion) == (0, (2,))
    empty = zlin.cokernel(zlin.smith_normal_form([{}, {}, {}], ncols=0))
    assert (empty.rank, empty.torsion) == (3, ())


@settings(max_examples=100, deadline=None)
@given(st.one_of(small_matrices(), matrices_with_zero_rows()))
@example([[1, -1, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0], [0, 0, 2, 0],
          [0, 0, 0, 3]])  # the divisibility sweep adds a row into row 3
def test_cokernel_picks_rows_of_U_and_columns_of_Uinv_and_caches_none(a):
    """`cokernel` keeps row i of U and column i of Uinv for each free
    index past the rank, then each torsion index, with ascending keys,
    built from the row log (sweeps and zero rows included); the
    factorization it reads builds no view."""
    f = zlin.smith_normal_form(a)
    g = zlin.cokernel(f)
    assert not set(VIEWS) & set(f.__dict__)
    U, _, Uinv, _ = transforms(f)
    picked = [*range(f.rank, len(a)),
              *(i for i in range(f.rank) if f.diag[i] > 1)]
    assert g.gen_lift == tuple(Uinv[i] for i in picked)
    assert g._proj_rows == tuple(U[i] for i in picked)
    assert all(list(v) == sorted(v) for v in g.gen_lift + g._proj_rows)


def test_cokernel_order_matches_determinant_oracle():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        det = Matrix(a).det()
        g = zlin.cokernel(zlin.smith_normal_form(a))
        if det != 0:
            assert g.rank == 0 and prod(g.torsion) == abs(det)
        else:
            assert g.rank > 0


def test_fg_group_projection_left_inverse():
    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(0, 5)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        g = zlin.cokernel(zlin.smith_normal_form(a))
        for t in range(g.n_coords):
            e = [0] * g.n_coords
            e[t] = 1
            assert g.project(g.lift(e)) == tuple(e)
        # the image itself projects to zero
        for _ in range(3):
            x = [rng.randrange(-2, 3) for _ in range(n)]
            assert g.project(as_dict(matvec(a, x))) == (0,) * g.n_coords


def test_solve_rational():
    x = zlin.solve_rational([[2, 1], [4, 2]], {0: 3, 1: 6})
    assert x is not None and 2 * x.get(0, 0) + x.get(1, 0) == 3
    assert zlin.solve_rational([[1], [1]], {0: 1, 1: 2}) is None
    assert zlin.solve_rational([], {}, ncols=2) == {}
    # the matrix must be integral; a rational one is refused, not truncated
    with pytest.raises(ValueError):
        zlin.solve_rational([[Fraction(1, 2)]], {0: 1})
    with pytest.raises(ValueError):
        zlin.smith_normal_form([{0: Fraction(1, 2)}], ncols=1)


def test_shape_errors():
    """A right side with an index outside the rows of the matrix."""
    with pytest.raises(zlin.ShapeError):
        zlin.solve_integer(zlin.smith_normal_form([[1, 2]]), {0: 1, 1: 2})


def _sparse_vectors(length):
    """Vectors of ints and Fractions, mostly zero, with a drawn length."""
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3),
                      st.fractions(-3, 3, max_denominator=5))
    return length.flatmap(lambda n: st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(
    _sparse_vectors(st.just(n)), _sparse_vectors(st.just(n)))))
def test_vec_dot_is_the_dense_dot(uv):
    """Both vectors as sparse dicts, in either order."""
    u, v = uv
    expected = sum(x * y for x, y in zip(u, v))
    su, sv = as_dict(u), as_dict(v)
    assert zlin.vec_dot(su, sv) == zlin.vec_dot(sv, su) == expected


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(_sparse_vectors(st.just(n)), max_size=4).flatmap(
        lambda rows: st.tuples(st.just(n), _sparse_vectors(st.just(len(rows))),
                               st.just(rows)))))
def test_combine_is_the_dense_linear_combination(case):
    """sum_t coeffs[t] * rows[t] over sparse dict rows, with the
    coefficients dense or a sparse dict, is a dict free of zeros that
    `dense` spells out as the dense linear combination."""
    n, coeffs, rows = case
    expected = [sum(c * row[i] for c, row in zip(coeffs, rows))
                for i in range(n)]
    for cs in (coeffs, as_dict(coeffs)):
        got = zlin.combine(cs, [as_dict(r) for r in rows])
        assert all(got.values()) and zlin.dense(got, n) == expected
