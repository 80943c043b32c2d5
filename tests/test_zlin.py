"""Exact linear algebra: Smith normal form, solvability, presentations."""
import random
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix, eye
from sympy.matrices.normalforms import invariant_factors

from charrig import zlin


def matvec(a, x):
    """a @ x computed by sympy, an oracle made apart from zlin."""
    if not x:
        return [Fraction(0)] * len(a)
    return [Fraction(int(v.p), int(v.q)) for v in Matrix(a) * Matrix(x)]


def dense(fact):
    """U, V, Uinv and Vinv of a factorization as dense lists of rows; U and
    Vinv are stored by rows, V and Uinv by columns."""
    m, n = fact.shape

    def rows(vecs, k):
        return [[v.get(c, 0) for c in range(k)] for v in vecs]

    def cols(vecs, k):
        return [list(r) for r in zip(*rows(vecs, k))]
    return rows(fact.U, m), cols(fact.V, n), cols(fact.Uinv, m), rows(fact.Vinv, n)


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
    assert all(x != 0 for vecs in (f.U, f.V, f.Uinv, f.Vinv)
               for vec in vecs for x in vec.values())
    nz = [d for d in f.diag if d]
    assert all(d > 0 for d in nz)
    assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))


@settings(max_examples=40, deadline=None)
@given(small_matrices(max_dim=6))
def test_snf_matches_independent_oracle(a):
    f = zlin.smith_normal_form(a)
    expected = [int(d) for d in invariant_factors(Matrix(a)) if d != 0]
    assert [d for d in f.diag if d] == expected


def key_orders(fact):
    """The four transforms with the key order of every dict."""
    return [[list(vec) for vec in vecs]
            for vecs in (fact.U, fact.V, fact.Uinv, fact.Vinv)]


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_dict_rows_and_row_only_factorization_match_dense_rows(a):
    """Ascending dict rows give the factorization of the dense rows, dict
    key order included. A factorization read only for U and Uinv, as
    `cokernel` reads it, builds neither V nor Vinv; read later, they are
    those of the full factorization."""
    f = zlin.smith_normal_form(a)
    rows = [as_dict(r) for r in a]
    g = zlin.smith_normal_form(rows, ncols=len(a[0]))
    assert (g.diag, g.U, g.V, g.Uinv, g.Vinv) == (f.diag, f.U, f.V, f.Uinv, f.Vinv)
    assert key_orders(g) == key_orders(f)
    h = zlin.smith_normal_form(rows, ncols=len(a[0]))
    assert (h.diag, h.U, h.Uinv) == (f.diag, f.U, f.Uinv)
    assert "V" not in h.__dict__ and "Vinv" not in h.__dict__
    assert (h.V, h.Vinv) == (f.V, f.Vinv)


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.randoms(use_true_random=False))
def test_dict_row_key_order_does_not_change_the_factorization(a, rnd):
    """Dict rows with their keys shuffled give the factorization of the
    ascending ones: the same diagonal, both logs and all four transforms,
    dict key order included."""
    rows = [as_dict(r) for r in a]
    shuffled = [dict(rnd.sample(list(r.items()), len(r))) for r in rows]
    f = zlin.smith_normal_form(rows, ncols=len(a[0]))
    g = zlin.smith_normal_form(shuffled, ncols=len(a[0]))
    assert (g.diag, g.row_log, g.col_log) == (f.diag, f.row_log, f.col_log)
    assert (g.U, g.V, g.Uinv, g.Vinv) == (f.U, f.V, f.Uinv, f.Vinv)
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


TRANSFORM_ORDERS = [("U", "Uinv", "V", "Vinv"), ("V", "Vinv", "U", "Uinv"),
                    ("Vinv", "U", "V", "Uinv"), ("Uinv", "Vinv", "V", "U")]


def check_transforms_in_order(a, order, dict_rows):
    """Read the transforms of a fresh factorization in `order`; sympy checks
    U a V = S, U Uinv = I and Vinv V = I, and each read builds exactly
    the transform read."""
    m, n = len(a), len(a[0])
    rows = [as_dict(r) for r in a] if dict_rows else a
    f = zlin.smith_normal_form(rows, ncols=n)
    for k, name in enumerate(order):
        getattr(f, name)
        assert set(order[:k + 1]) == {x for x in order if x in f.__dict__}
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
    f = zlin.smith_normal_form([[2]])
    assert f.diag == (2,) and f.U == [{0: 1}] and f.V == [{0: 1}]
    z = zlin.smith_normal_form([[0, 0], [0, 0]])
    assert z.diag == (0, 0)
    assert z.U == z.V == z.Uinv == z.Vinv == [{0: 1}, {1: 1}]
    # swapping the two columns of [[0, 1]] brings the pivot to (0, 0)
    s = zlin.smith_normal_form([[0, 1]])
    assert s.diag == (1,) and s.V == [{1: 1}, {0: 1}] and s.Vinv == s.V


def test_snf_pivot_examples():
    """The pivot is the smallest |entry|, ties by row then column: the
    scan may stop at the first row holding a unit, but not before."""
    # row 0 holds only non-units; the first unit, (1, 1), is the pivot
    f = zlin.smith_normal_form([[2, 3], [4, 1]])
    assert f.diag == (1, 10)
    assert f.U == [{1: 1}, {0: -1, 1: 3}] and f.V == [{1: 1}, {0: 1, 1: -4}]
    assert f.Uinv == [{0: 3, 1: 1}, {0: -1}] and f.Vinv == [{0: 4, 1: 1}, {0: 1}]
    # no unit in the active block: the whole block is scanned for the 2
    g = zlin.smith_normal_form([[2, 4], [6, 3]])
    assert g.diag == (1, 18)
    assert g.U == [{0: -2, 1: 1}, {0: -21, 1: 10}]
    assert g.V == [{0: 3, 1: 1}, {0: -5, 1: -2}]
    assert g.Uinv == [{0: 10, 1: 21}, {0: -1, 1: -2}]
    assert g.Vinv == [{0: 2, 1: -5}, {0: 1, 1: -3}]
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
    assert (f1.U, f1.V, f1.Uinv, f1.Vinv, f1.diag) \
        == (f2.U, f2.V, f2.Uinv, f2.Vinv, f2.diag)


@settings(max_examples=50, deadline=None)
@given(small_matrices(max_dim=6), st.integers(0, 10**6))
def test_solve_integer_roundtrip(a, seed):
    rng = random.Random(seed)
    n = len(a[0])
    x0 = [rng.randrange(-3, 4) for _ in range(n)]
    b = [int(v) for v in matvec(a, x0)]
    x = zlin.solve_integer(a, as_dict(b))
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
            expected = zlin.solve_integer(at, as_dict(b)) if integral \
                else zlin.solve_rational(at, as_dict(b))
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
    w = [sum(b[i] * x for i, x in col.items()) for col in fact.V]
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
    for yt, row in zip(y, fact.U):
        for i, u in row.items():
            x[i] += yt * u
    return x, e


@settings(max_examples=60, deadline=None)
@given(small_matrices(), st.integers(0, 10**6))
def test_row_index_and_sparse_solve_match_the_dense_formula(a, seed):
    """V_rows is exactly the transpose of V, with ascending columns and no
    zeros, and the sparse solve returns the same (x, e), or None, as the
    dense formula, over Z and over Q, for a solvable right side, a random
    one and one with a single nonzero entry."""
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
    assert zlin.solve_integer([[2]], {0: 4}) == {0: 2}
    assert zlin.solve_integer([[2]], {0: 3}) is None


@settings(max_examples=30, deadline=None)
@given(small_matrices(max_dim=4, lo=-3, hi=3),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
def test_solve_integer_unsolvable_confirmed_by_enumeration(a, braw):
    m = len(a)
    b = braw[:m]
    x = zlin.solve_integer(a, as_dict(b))
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


def kernel_basis(a):
    """The columns of V past the rank, made dense: the kernel basis the
    library reads (as the cycle basis of a boundary operator)."""
    f = zlin.smith_normal_form(a)
    return [[col.get(i, 0) for i in range(f.shape[1])] for col in f.V[f.rank:]]


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
    g = zlin.cokernel([[2]])
    assert (g.rank, g.torsion) == (0, (2,))
    empty = zlin.cokernel([{}, {}, {}], ncols=0)
    assert (empty.rank, empty.torsion) == (3, ())


def test_cokernel_order_matches_determinant_oracle():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 5)
        a = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        det = Matrix(a).det()
        g = zlin.cokernel(a)
        if det != 0:
            assert g.rank == 0 and prod(g.torsion) == abs(det)
        else:
            assert g.rank > 0


def test_fg_group_projection_left_inverse():
    rng = random.Random(5)
    for _ in range(25):
        m, n = rng.randrange(1, 5), rng.randrange(0, 5)
        a = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        g = zlin.cokernel(a)
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
        zlin.solve_integer([[1, 2]], {0: 1, 1: 2})


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
