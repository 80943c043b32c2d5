"""Cochains, cohomology in three rings, cup product, Bockstein, exactness."""
import random
from fractions import Fraction
import functools
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix
from sympy.matrices.normalforms import invariant_factors

from charrig import cli, corpus, zlin
from charrig.cochains import (
    Cochain, QuotientForm, RingError, _mod1, alpha, basis_cochain, beta, bockstein,
    check_exactness, coboundary, cocycle_coords, cohomology,
    cup, cup_int_qmodz, cycle_periods, d_of_quotient, homology,
    integral_form_generators, is_integral_form, r_to_rational,
    s_class_of_form, solve_coboundary, zero_cochain,
    _class_order, _snf_boundary,
)
from charrig.simplicial import (
    barycentric_subdivide, complex_from_maximal, load_complex,
)
from conftest import boundary_oracle, cycle_basis


def oracle_cohomology(X, j):
    """Betti number and torsion of H^j(X; Z) straight from sympy on the
    boundary matrices (UCT: torsion of H^j is the torsion of H_{j-1})."""
    def rank(j):
        m = Matrix(boundary_oracle(X, j)) if X.n_simplices(j) and (
            j == 0 or X.n_simplices(j - 1)) else None
        if m is None or m.rows == 0 or m.cols == 0:
            return 0
        return m.rank()
    betti = X.n_simplices(j) - rank(j) - rank(j + 1)
    tors = []
    if 0 < j <= X.dim and X.n_simplices(j - 1):
        m = Matrix(boundary_oracle(X, j))
        if m.rows and m.cols:
            tors = [int(d) for d in invariant_factors(m) if d not in (0, 1)]
    return betti, tors


def test_groups_match_oracle_everywhere(corpus_complex):
    X = corpus_complex
    for j in range(X.dim + 2):
        g = cohomology(X, j, "Z")
        betti, tors = oracle_cohomology(X, j) if j <= X.dim + 1 else (0, [])
        assert (g.rank, list(g.torsion)) == (betti, tors), (X.name, j)
        gq = cohomology(X, j, "Q")
        assert gq.rank == betti
        gz = cohomology(X, j, "QmodZ")
        hom_j = homology(X, j)
        assert gz.rank == hom_j.rank
        assert gz.torsion == hom_j.torsion


def test_known_groups(cx):
    assert cohomology(cx("s1"), 1, "Z").describe() == "Z"
    assert cohomology(cx("rp2"), 2, "Z").describe() == "Z/2"
    assert cohomology(cx("t2"), 1, "Z").describe() == "Z + Z"
    assert cohomology(cx("point"), 0, "QmodZ").describe() == "Q/Z"
    assert cohomology(cx("klein"), 1, "Z").describe() == "Z"
    assert cohomology(cx("klein"), 2, "Z").describe() == "Z/2"
    assert cohomology(cx("moore_z3"), 1, "Z").describe() == "0"
    assert cohomology(cx("moore_z3"), 2, "Z").describe() == "Z/3"


def test_coboundary_of_vertex_indicator(cx):
    s1 = cx("s1")
    dx = coboundary(basis_cochain(s1, "Z", 0, 0))
    incident = {i for i, s in enumerate(s1.simplices[1]) if 0 in s}
    assert {i for i, v in enumerate(dx.values) if v} == incident
    assert all(v in (-1, 1) for v in dx.values if v)


def test_coboundary_squares_to_zero(corpus_complex):
    X = corpus_complex
    rng = random.Random(0)
    for j in range(X.dim + 1):
        vals = tuple(Fraction(rng.randrange(-6, 7), 3)
                     for _ in range(X.n_simplices(j)))
        c = Cochain(X, "Q", j, vals)
        assert coboundary(coboundary(c)).is_zero()


def test_top_degree_coboundary_is_zero(cx):
    t2 = cx("t2")
    c = basis_cochain(t2, "Z", 2, 0)
    assert coboundary(c).is_zero()


@pytest.mark.parametrize("bad", [0.1, True, "1/2"])
def test_cochain_refuses_inexact_and_non_numeric_values(cx, bad):
    """Only ints and Fractions are values: a float, a bool or a str is
    refused with TypeError, never coerced to a Fraction."""
    s1 = cx("s1")
    assert Cochain(s1, "Q", 0, [Fraction(1, 2), 0, 1]).values == \
        (Fraction(1, 2), 0, 1)
    with pytest.raises(TypeError):
        Cochain(s1, "Q", 0, [bad, 0, 1])


def test_is_integral_form_examples(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    third = Cochain(s1, "Q", 1, tuple(Fraction(z.get(i, 0), 3) for i in range(3)))
    assert is_integral_form(third)  # period 1
    half = Cochain(s1, "Q", 1, (Fraction(1, 2), 0, 0))
    assert not is_integral_form(half)  # period 1/2
    b = coboundary(basis_cochain(s1, "Z", 0, 1))
    assert is_integral_form(b.to_q())


def test_cup_unital_and_associative(cx):
    rng = random.Random(1)
    for name in ("rp2", "t2"):
        X = cx(name)
        one = Cochain(X, "Q", 0, [1] * X.n_simplices(0))
        y = Cochain(X, "Q", 1, tuple(Fraction(rng.randrange(-4, 5), 2)
                                     for _ in range(X.n_simplices(1))))
        assert cup(one, y).values == y.values
        assert cup(y, one).values == y.values
        a = Cochain(X, "Q", 1, tuple(Fraction(rng.randrange(-3, 4), 3)
                                     for _ in range(X.n_simplices(1))))
        b = basis_cochain(X, "Q", 0, 2)
        c = basis_cochain(X, "Q", 1, 4)
        assert cup(cup(b, a), c).values == cup(b, cup(a, c)).values


def test_cup_leibniz_exact(cx):
    rng = random.Random(2)
    rp2 = cx("rp2")
    for _ in range(3):
        x = Cochain(rp2, "Q", 1, tuple(Fraction(rng.randrange(-3, 4), 2)
                                       for _ in range(rp2.n_simplices(1))))
        y = Cochain(rp2, "Q", 1, tuple(Fraction(rng.randrange(-3, 4), 3)
                                       for _ in range(rp2.n_simplices(1))))
        lhs = coboundary(cup(x, y))
        rhs = cup(coboundary(x), y) + cup(x, coboundary(y)).scale(-1)
        assert lhs.values == rhs.values


def test_cup_ring_mismatch():
    from charrig import corpus
    s1 = corpus.load("s1")
    u = Cochain(s1, "QmodZ", 0, (Fraction(1, 2), 0, 0))
    with pytest.raises(RingError):
        cup(u, u)


def test_torus_intersection_pairing_via_snf_oracle(cx):
    t2 = cx("t2")
    hz1 = cohomology(t2, 1, "Z")
    u, v = hz1.gen_cochains
    fund = homology(t2, 2).gen_cycles[0]
    P = [[cup(a, b).pair(fund) for b in (u, v)] for a in (u, v)]
    # class-level antisymmetry on the fundamental evaluation
    assert P[0][0] == 0 and P[1][1] == 0 and P[0][1] == -P[1][0]
    # unimodularity via the Smith normal form oracle
    assert zlin.smith_normal_form(P).diag == (1, 1)
    assert abs(P[0][1]) == 1


def test_bockstein_on_projective_plane(cx):
    rp2 = cx("rp2")
    hqz = cohomology(rp2, 1, "QmodZ")
    phi = hqz.make([Fraction(1, 2)])
    b = bockstein(phi)
    assert b.group.describe() == "Z/2" and not b.is_zero()


def test_bockstein_kills_alpha_images(cx):
    t2 = cx("t2")
    hq = cohomology(t2, 1, "Q")
    rng = random.Random(3)
    for _ in range(4):
        coords = [Fraction(rng.randrange(-4, 5), rng.randrange(1, 5))
                  for _ in range(hq.rank)]
        assert bockstein(alpha(hq.make(coords))).is_zero()


def test_bockstein_of_integral_period_lift_is_zero(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    # integral-period rational cochain, reduced mod 1: class has B = 0
    u = Cochain(s1, "QmodZ", 1, tuple(Fraction(z.get(i, 0), 1) for i in range(3)))
    hqz = cohomology(s1, 1, "QmodZ")
    assert bockstein(hqz.class_from_cocycle(u)).is_zero()


def test_sequence_map_examples(cx):
    rp2 = cx("rp2")
    hz2 = cohomology(rp2, 2, "Z")
    tors = hz2.make((1,))
    assert r_to_rational(tors).is_zero()  # torsion dies rationally
    s1 = cx("s1")
    rho = basis_cochain(s1, "Q", 0, 0).scale(Fraction(1, 3))
    assert s_class_of_form(coboundary(rho)).is_zero()
    hq1 = cohomology(s1, 1, "Q")
    x = hq1.make([Fraction(2, 5)])
    th = beta(x)
    assert d_of_quotient(th).is_zero()  # representative is closed


def test_quotient_form_equality(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    th = QuotientForm(Cochain(s1, "Q", 1, (Fraction(1, 2), 0, 0)))
    shift = Cochain(s1, "Q", 1, tuple(Fraction(z.get(i, 0)) for i in range(3)))
    assert QuotientForm(th.rep + shift) == th
    other = QuotientForm(Cochain(s1, "Q", 1, (Fraction(1, 3), 0, 0)))
    assert not (th == other)


def test_qmodz_presentation_is_hom_on_homology(corpus_complex):
    """Evaluating the synthesized representative on the homology generator
    basis returns exactly the class coordinates."""
    X = corpus_complex
    rng = random.Random(4)
    for j in range(X.dim + 1):
        g = cohomology(X, j, "QmodZ")
        if g.n_coords == 0:
            continue
        coords = []
        for i in range(g.rank):
            coords.append(Fraction(rng.randrange(0, 7), 7))
        for d in g.torsion:
            coords.append(Fraction(rng.randrange(0, d), d))
        cls = g.make(coords)
        rep = g.cochain_for(cls.coords)
        assert coboundary(rep).is_zero()
        assert g.class_from_cocycle(rep) == cls
        hom_j = homology(X, j)
        for val, gen in zip(cls.coords, hom_j.gen_cycles):
            assert rep.pair(gen) == val


def test_qmodz_roundtrip_through_perturbed_cocycles(cx):
    rp2 = cx("rp2")
    g = cohomology(rp2, 1, "QmodZ")
    cls = g.make([Fraction(1, 2)])
    rep = g.cochain_for(cls.coords)
    noise = coboundary(basis_cochain(rp2, "Q", 0, 3).scale(Fraction(2, 5)))
    perturbed = (rep.to_q() + noise).mod1()
    assert g.class_from_cocycle(perturbed) == cls


def test_integral_form_generators_are_integral(corpus_complex):
    X = corpus_complex
    for k in range(X.dim + 2):
        gens = list(integral_form_generators(X, k))
        for om in gens:
            assert is_integral_form(om)
        # b_k free classes plus one coboundary per (k-1)-simplex that is a
        # face of some k-simplex
        faces = {s[:i] + s[i + 1:] for s in X.simplices[k]
                 for i in range(k + 1)} if 1 <= k <= X.dim else set()
        assert len(gens) == oracle_cohomology(X, k)[0] + len(faces)


def test_exactness_all_corpus_degrees(corpus_complex):
    X = corpus_complex
    for k in range(1, X.dim + 2):
        results = check_exactness(X, k, random.Random(0))
        assert len(results) == 6
        bad = [(r.name, r.witness) for r in results if r.status != "pass"]
        assert not bad, (X.name, k, bad)


@st.composite
def random_complexes(draw):
    """The closure of up to 8 random simplices on at most 7 vertices."""
    n = draw(st.integers(1, 7))
    simplex = st.lists(st.integers(0, n - 1), min_size=1, max_size=4,
                       unique=True).map(lambda s: tuple(sorted(s)))
    tops = draw(st.lists(simplex, min_size=1, max_size=8, unique=True))
    return complex_from_maximal("random", sorted(tops), n)


def _apex_join(X, count):
    """X joined to `count` new apexes, numbered after its vertices so every
    joined simplex stays increasing: the cone for one apex, the
    suspension for two."""
    n = X.vertex_count
    tops = [s + (a,) for a in range(n, n + count)
            for level in X.simplices for s in level]
    return complex_from_maximal(("cone", "suspension")[count - 1], tops,
                                n + count)


@st.composite
def cones_and_suspensions(draw):
    """The cone or the suspension of a random complex."""
    return _apex_join(draw(random_complexes()), draw(st.sampled_from([1, 2])))


@settings(max_examples=20, deadline=None)
@given(random_complexes())
def test_cones_are_acyclic_and_suspensions_shift_degree(X):
    """The joins are what they are named: the cone of X has the integral
    cohomology of a point, and H^{j+1} of the suspension is the reduced
    H^j(X)."""
    cone, susp = _apex_join(X, 1), _apex_join(X, 2)
    groups = [(cohomology(cone, j, "Z").rank, cohomology(cone, j, "Z").torsion)
              for j in range(cone.dim + 2)]
    assert groups == [(1, ())] + [(0, ())] * (cone.dim + 1)
    for j in range(X.dim + 1):
        g, h = cohomology(X, j, "Z"), cohomology(susp, j + 1, "Z")
        assert (h.rank, h.torsion) == (g.rank - (j == 0), g.torsion), j


@settings(max_examples=40, deadline=None)
@given(random_complexes())
def test_random_complexes_match_oracle_and_are_exact(X):
    """H^j in Z, Q and Q/Z agree with sympy (Q/Z by universal coefficients:
    b_j divisible factors and the torsion of H^{j+1}(Z)), and both long
    sequences are exact in every degree."""
    for j in range(X.dim + 2):
        betti, tors = oracle_cohomology(X, j)
        g = cohomology(X, j, "Z")
        assert (g.rank, list(g.torsion)) == (betti, tors), j
        assert cohomology(X, j, "Q").rank == betti, j
        gz = cohomology(X, j, "QmodZ")
        assert (gz.rank, list(gz.torsion)) == \
            (betti, oracle_cohomology(X, j + 1)[1]), j
    for k in range(1, X.dim + 2):
        bad = [(r.name, r.witness) for r in check_exactness(X, k, random.Random(0))
               if r.status != "pass"]
        assert not bad, (k, bad)


def test_exactness_rp2_torsion_node(cx):
    rp2 = cx("rp2")
    results = {r.name: r for r in check_exactness(rp2, 2, random.Random(0))}
    r = results["bockstein.ker_r_eq_im_B"]
    assert r.status == "pass"
    assert r.witness["witnesses"], "expected a torsion witness at H^2(Z)"


def test_cup_int_qmodz_well_defined(cx):
    rp2 = cx("rp2")
    hz1 = cohomology(rp2, 1, "Z")
    # no free classes in degree 1 on rp2; use t2 instead
    t2 = cx("t2")
    c = cohomology(t2, 1, "Z").gen_cochains[0]
    u = cohomology(t2, 1, "QmodZ").cochain_for((Fraction(1, 3), Fraction(0)))
    prod = cup_int_qmodz(c, u)
    assert prod.ring == "QmodZ" and prod.degree == 2
    assert coboundary(prod).is_zero()


# ---------------------------------------------------------------------------
# cochain-side reads of the boundary factorization, against sympy

@pytest.fixture(scope="module", params=list(corpus.CORPUS_NAMES) + ["sd1(t2)"])
def read_complex(request):
    if request.param == "sd1(t2)":
        return barycentric_subdivide(corpus.load("t2")).complex
    return corpus.load(request.param)


def _sympy_matrix(rows, ncols):
    return Matrix(len(rows), ncols, lambda r, c: rows[r][c])


def _rank_and_divisor(m):
    """Rank and product of the nonzero invariant factors (the gcd of the
    maximal nonzero minors) of a sympy integer matrix."""
    if m.rows == 0 or m.cols == 0:
        return 0, 1
    factors = [int(d) for d in invariant_factors(m) if d != 0]
    out = 1
    for d in factors:
        out *= d
    return len(factors), out


def _coboundary_matrix(X, j):
    """delta^j: C^j -> C^{j+1} as a sympy matrix, the transpose of the
    oracle boundary_{j+1}."""
    m = Matrix.zeros(X.n_simplices(j + 1), X.n_simplices(j))
    for r, row in enumerate(boundary_oracle(X, j + 1)):
        for c, sign in enumerate(row):
            m[c, r] = sign
    return m


def _cocycle_rows(X, j):
    """A Z-basis of the j-cocycles read from the factorization of d_j,
    made dense: the rows of Vinv below the rank, then the free generators
    of H^j(Z)."""
    fact = _snf_boundary(X, j)
    g = cohomology(X, j, "Z")
    return ([[row.get(i, 0) for i in range(X.n_simplices(j))]
             for row in fact.Vinv[:fact.rank]]
            + [list(c.values) for c in g.gen_cochains[:g.rank]])


def test_cocycle_basis_is_saturated_kernel(read_complex):
    """The rows of Vinv below the rank of d_j and the free generators of
    H^j(Z) form a saturated basis of ker delta^j, and `cocycle_coords`
    reads each of them back: a unit vector on a torsion row or a free
    generator, zero on a row with d_i = 1."""
    X = read_complex
    for j in range(X.dim + 1):
        W = _cocycle_rows(X, j)
        delta = _coboundary_matrix(X, j)
        rank, _ = _rank_and_divisor(delta)
        assert len(W) == X.n_simplices(j) - rank, (X.name, j)
        if not W:
            continue
        Wm = _sympy_matrix(W, X.n_simplices(j))
        if delta.rows:
            assert (delta * Wm.T).is_zero_matrix, (X.name, j)
        # a saturated lattice: every invariant factor is 1
        assert [int(d) for d in invariant_factors(Wm)] == [1] * len(W)
        fact = _snf_boundary(X, j)
        g = cohomology(X, j, "Z")
        units = fact.diag.count(1)
        for i, w in enumerate(W):
            if i < units:
                t = None
            elif i < fact.rank:
                t = g.rank + i - units  # torsion coordinate
            else:
                t = i - fact.rank       # free coordinate
            assert cocycle_coords(X, j, dict(enumerate(w))) == \
                [int(s == t) for s in range(g.n_coords)], (X.name, j, i)


def test_cycle_periods_pair_with_the_cycle_basis(read_complex):
    X = read_complex
    rng = random.Random(3)
    for j in range(-1, X.dim + 2):
        num = [rng.randrange(-5, 6) for _ in range(X.n_simplices(j))]
        got = cycle_periods(Cochain(X, "Z", j, num))
        sparse = {i: v for i, v in enumerate(num) if v}
        dense = [zlin.vec_dot(sparse, z) for z in cycle_basis(X, j)]
        assert all(got.values()), (X.name, j)
        assert zlin.dense(got, len(dense)) == dense, (X.name, j)


def _presentation_calls(X, j):
    """(fact, rows, ncols) for each factorization that `homology` hands
    to `zlin.cokernel` in degree j, built afresh: a relation matrix that
    `homology` factors itself, with its rows and column count, or the
    cached factorization of d_{j+1}, with that operator's rows."""
    made, seen = {}, []
    real_snf, real_cokernel = zlin.smith_normal_form, zlin.cokernel

    def snf(a, ncols=None):
        fact = real_snf(a, ncols=ncols)
        made[id(fact)] = (a, ncols)
        return fact

    def cokernel(fact):
        seen.append(fact)
        return real_cokernel(fact)

    X._cache.pop(("homology", j), None)
    with mock.patch.object(zlin, "smith_normal_form", snf), \
            mock.patch.object(zlin, "cokernel", cokernel):
        homology(X, j)
    out = []
    for fact in seen:
        if fact is X._cache.get(("snf_boundary", j + 1)):
            out.append((fact, X.boundary_rows(j + 1), X.n_simplices(j + 1)))
        else:
            out.append((fact, *made[id(fact)]))
    return out


def _relation_matrices(X, j):
    """The relation matrices of `_presentation_calls`, their dict rows
    checked to be ascending and free of zeros, then made dense over
    `ncols` columns."""
    out = []
    for _, a, ncols in _presentation_calls(X, j):
        for r in a:
            assert list(r) == sorted(r) and all(r.values()), r
        out.append([zlin.dense(r, ncols) for r in a])
    return out


def _dense_relation_matrices(X, j):
    """The same matrix by the dense formula: the cycle coordinates of the
    boundary of every (j+1)-simplex, one sum over its faces for each row
    of Vinv past the rank."""
    fv = _snf_boundary(X, j)
    faces = list(zip(*boundary_oracle(X, j + 1)))
    return [[[sum(s * row.get(i, 0) for i, s in enumerate(col))
              for col in faces]
             for row in fv.Vinv[fv.rank:]]]


@functools.lru_cache(maxsize=None)
def _fixed_space(name):
    """A corpus complex, or its first subdivision for "sd1(<name>)"."""
    if name.startswith("sd1("):
        return barycentric_subdivide(load_complex(corpus.resolve(name[4:-1]))).complex
    return load_complex(corpus.resolve(name))


_FIXED_SPACES = list(corpus.CORPUS_NAMES) + [
    f"sd1({n})" for n in ("s1", "s2", "t2", "rp2", "klein", "moore_z3")]


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED_SPACES).map(_fixed_space),
                 random_complexes()), st.data())
def test_relation_matrices_match_the_dense_formulas(X, data):
    j = data.draw(st.integers(0, X.dim + 1))
    assert _relation_matrices(X, j) == _dense_relation_matrices(X, j), j


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED_SPACES).map(_fixed_space),
                 random_complexes()), st.data())
def test_homology_over_a_zero_boundary_reads_the_next_factorization(X, data):
    """When d_j = 0 (j = 0, or above the top dimension), `homology(X, j)`
    presents the very object `_snf_boundary(X, j + 1)` and factors
    nothing, and the presentation equals the one from a fresh
    factorization of the dense relation formula."""
    j = data.draw(st.sampled_from([
        j for j in range(X.dim + 3) if not _snf_boundary(X, j).rank]))
    next_fact = _snf_boundary(X, j + 1)
    X._cache.pop(("homology", j), None)
    with mock.patch.object(zlin, "smith_normal_form",
                           side_effect=AssertionError("factored")):
        homology(X, j)
    calls = _presentation_calls(X, j)
    assert len(calls) == 1 and calls[0][0] is next_fact, j
    [dense] = _dense_relation_matrices(X, j)
    fresh = zlin.smith_normal_form(dense, ncols=X.n_simplices(j + 1))
    assert homology(X, j).fg == zlin.cokernel(fresh), j
    assert not {"U", "Uinv"} & set(next_fact.__dict__), j


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED_SPACES).map(_fixed_space),
                 random_complexes()), st.integers(0, 2**32))
def test_integral_classes_round_trip_through_their_representatives(X, seed):
    """In every degree of H^j(Z): the class of `cochain_for(c)` is
    `make(c)`, also after adding delta b for a random integer b; each
    torsion generator is a cocycle whose class has order d_i, with m times
    it an integral coboundary only when d_i divides m; each free generator
    is a cocycle with period 1 on its homology generator and 0 on the
    others."""
    rng = random.Random(seed)
    for j in range(X.dim + 2):
        g = cohomology(X, j, "Z")
        hom = homology(X, j)
        c = [rng.randrange(-4, 5) for _ in range(g.n_coords)]
        x = g.cochain_for(c)
        assert g.class_from_cocycle(x) == g.make(c), j
        b = Cochain(X, "Z", j - 1, [rng.randrange(-3, 4)
                                    for _ in range(X.n_simplices(j - 1))])
        assert g.class_from_cocycle(x + coboundary(b)) == g.make(c), j
        for t, d in enumerate(g.torsion):
            gen = g.gen_cochains[g.rank + t]
            assert coboundary(gen).is_zero(), (j, t)
            assert _class_order(g.class_from_cocycle(gen)) == d, (j, t)
            for m in range(1, d + 1):
                solved = solve_coboundary(X, j - 1, gen.scale(m), integral=True)
                assert (solved is not None) == (m == d), (j, t, m)
        for t in range(g.rank):
            gen = g.gen_cochains[t]
            assert coboundary(gen).is_zero(), (j, t)
            assert [gen.pair(z) for z in hom.gen_cycles] == \
                [int(s == t) for s in range(len(hom.gen_cycles))], (j, t)


def _transforms(f):
    return f.diag, f.U, f.V, f.Uinv, f.Vinv


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED_SPACES).map(_fixed_space),
                 random_complexes()), st.data())
def test_sparse_and_row_only_factorizations_match_the_dense_one(X, data):
    """For d_j and the relation matrix of H_j: dict rows and dense rows
    give the same diag and the same four transforms. The presentation
    that `zlin.cokernel` reads from a fresh factorization is that of the
    full one and of the factorization `homology` presents, and reading it
    builds no transform; read afterwards, U and Uinv build neither V nor
    Vinv, and all four are those of the full factorization."""
    j = data.draw(st.integers(0, X.dim + 1))
    calls = _presentation_calls(X, j)
    mats = [(None, X.boundary_rows(j), X.n_simplices(j))] + calls
    for used, rows, ncols in mats:
        dense = [zlin.dense(r, ncols) for r in rows]
        full = zlin.smith_normal_form(dense, ncols=ncols)
        assert _transforms(zlin.smith_normal_form(rows, ncols=ncols)) == \
            _transforms(full), j
        row_only = zlin.smith_normal_form(rows, ncols=ncols)
        assert zlin.cokernel(row_only) == zlin.cokernel(full), j
        if used is not None:
            assert zlin.cokernel(used) == zlin.cokernel(full), j
        assert not {"U", "Uinv", "V", "Vinv"} & set(row_only.__dict__), j
        assert (row_only.diag, row_only.U, row_only.Uinv) == \
            (full.diag, full.U, full.Uinv), j
        assert "V" not in row_only.__dict__, j
        assert "Vinv" not in row_only.__dict__, j
        assert _transforms(row_only) == _transforms(full), j


@settings(max_examples=40, deadline=None)
@given(st.one_of(st.sampled_from(_FIXED_SPACES).map(_fixed_space),
                 random_complexes()), st.data())
def test_coboundary_kernel_is_the_signed_face_sum(X, data):
    """The values of `coboundary`, summed over the rows of the cached
    sparse boundary, are sum_i (-1)^i x(face_i) over the columns of the
    oracle boundary, in degrees -1..dim+1, over Z, Q and Q/Z (mod 1)."""
    j = data.draw(st.integers(-1, X.dim + 1))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    faces = list(zip(*boundary_oracle(X, j + 1)))
    for ring, den in (("Z", 1), ("Q", rng.randrange(1, 7)),
                      ("QmodZ", rng.randrange(1, 7))):
        x = Cochain(X, ring, j, [Fraction(rng.randrange(-9, 10), den)
                                 for _ in range(X.n_simplices(j))])
        a = x.values
        expected = ([sum(s * a[r] for r, s in enumerate(col))
                     for col in faces]
                    if faces else [0] * X.n_simplices(j + 1))
        dx = coboundary(x)
        _assert_normal_form(dx)
        assert list(dx.values) == _reduced(ring, expected), (ring, j)


def _solvable(delta, b):
    """Solvability of delta x = b over Z and over Q from invariant factors:
    over Q the rank must not grow when b is joined, over Z neither may the
    gcd of the maximal minors change."""
    if delta.rows == 0:
        return True, True
    den = lcm(*(Fraction(v).denominator for v in b))
    col = Matrix([int(Fraction(v) * den) for v in b])
    rank, divisor = _rank_and_divisor(delta)
    aug_rank, aug_divisor = _rank_and_divisor(delta.row_join(col))
    over_q = aug_rank == rank
    return over_q and den == 1 and aug_divisor == divisor, over_q


def _apply(delta, x):
    if delta.cols == 0:
        return [Fraction(0)] * delta.rows
    return [Fraction(int(v.p), int(v.q)) for v in delta * Matrix(x)]


def test_solve_coboundary_matches_sympy_solvability(read_complex):
    """delta x = b over Z and over Q, including j = -1 and j = dim: x is
    returned exactly when sympy's invariant factors say a solution exists,
    and then delta x = b."""
    X = read_complex
    rng = random.Random(5)
    for j in range(-1, X.dim + 1):
        delta = _coboundary_matrix(X, j)
        x0 = [rng.randrange(-3, 4) for _ in range(delta.cols)]
        exact = _apply(delta, x0)
        hz = cohomology(X, j + 1, "Z")
        rhs = [[0] * delta.rows,
               [rng.randrange(-2, 3) for _ in range(delta.rows)],
               [int(v) for v in exact],
               [v / 2 for v in exact]]
        # torsion generators of H^{j+1}(Z): exact over Q, not over Z
        rhs.extend(list(g.values) for g in hz.gen_cochains[hz.rank:])
        for b in rhs:
            over_z, over_q = _solvable(delta, b)
            bc = Cochain(X, "Q", j + 1, b)
            xq = solve_coboundary(X, j, bc, integral=False)
            assert (xq is not None) == over_q, (X.name, j, b)
            if xq is not None:
                assert (xq.ring, xq.degree) == ("Q", j)
                assert _apply(delta, xq.values) == [Fraction(v) for v in b]
            # a right side with a fractional value has no integral solution
            xz = solve_coboundary(X, j, bc, integral=True)
            assert (xz is not None) == over_z, (X.name, j, b)
            if xz is not None:
                assert (xz.ring, xz.degree) == ("Z", j)
                assert all(isinstance(v, int) for v in xz.values)
                assert _apply(delta, xz.values) == list(b)


@pytest.mark.parametrize("ring", ["Z", "Q", "QmodZ"])
def test_cochain_with_periods_is_a_cocycle_with_those_periods(read_complex, ring):
    """The cochain read off the cycle basis is closed and takes the given
    values on every generator cycle, torsion generators included: zero over
    Z and Q, multiples of 1/d over Q/Z."""
    X = read_complex
    rng = random.Random(5)
    for j in range(X.dim + 2):
        hom = homology(X, j)
        coords = [rng.randrange(-6, 7) if ring == "Z"
                  else Fraction(rng.randrange(-6, 7), rng.randrange(1, 6))
                  for _ in range(hom.rank)]
        coords += [Fraction(rng.randrange(1, d), d) if ring == "QmodZ" else 0
                   for d in hom.torsion]
        w = hom.cochain_with_periods(coords, ring)
        assert w.ring == ring and coboundary(w).is_zero(), j
        expect = [_mod1(c) for c in coords] if ring == "QmodZ" else coords
        assert [w.pair(z) for z in hom.gen_cycles] == expect, j


# ---------------------------------------------------------------------------
# the integer-numerator representation against plain Fraction values

PROPERTY_SPACES = list(corpus.CORPUS_NAMES) + ["sd1(s2)"]
RINGS = ["Z", "Q", "QmodZ"]


@functools.lru_cache(maxsize=None)
def _space(name):
    """A corpus complex, or "sd1(s2)" for the first subdivision of s2."""
    if name == "sd1(s2)":
        return barycentric_subdivide(corpus.load("s2")).complex
    return corpus.load(name)


def _reduced(ring, vals):
    """The Fraction model of a cochain's values: Q/Z values taken mod 1."""
    return [Fraction(v) % 1 if ring == "QmodZ" else v for v in vals]


_INTS = st.integers(-9, 9)
_FRACTIONS = st.tuples(st.integers(-36, 36), st.integers(1, 12)).map(
    lambda t: Fraction(*t))


def _values(draw, X, ring, degree):
    """One value per simplex, about half of them zero, as cochains are
    sparse."""
    n = X.n_simplices(degree)
    entry = st.one_of(st.just(0), _INTS if ring == "Z" else _FRACTIONS)
    return draw(st.lists(entry, min_size=n, max_size=n))


def _assert_normal_form(x):
    """Nonzero int numerators keyed by simplex indices, over one den."""
    assert type(x.num) is dict and x.den >= 1
    assert all(type(v) is int and v != 0 for v in x.num.values())
    assert all(i in range(x.cx.n_simplices(x.degree)) for i in x.num)
    if x.ring == "Z":
        assert x.den == 1
    else:
        assert gcd(x.den, *x.num.values()) == 1
    if x.ring == "QmodZ":
        assert all(0 < v < x.den for v in x.num.values())


@pytest.mark.parametrize("name", PROPERTY_SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_arithmetic_matches_fraction_values(name, data):
    """+, -, neg, scale, to_q, mod1 and serialize agree with the same
    operation on Fraction values, and every result is in normal form."""
    X = _space(name)
    ring = data.draw(st.sampled_from(RINGS))
    j = data.draw(st.integers(0, X.dim))
    a, b = _values(data.draw, X, ring, j), _values(data.draw, X, ring, j)
    c = data.draw(_FRACTIONS if ring == "Q" else _INTS)
    x, y = Cochain(X, ring, j, a), Cochain(X, ring, j, b)
    cases = [(x, a), (x + y, [p + q for p, q in zip(a, b)]),
             (x - y, [p - q for p, q in zip(a, b)]), (-x, [-p for p in a]),
             (x.scale(c), [c * p for p in a])]
    if ring != "Q":
        with pytest.raises(RingError):
            x.scale(Fraction(1, 2))
    for z, vals in cases:
        _assert_normal_form(z)
        assert (z.cx, z.ring, z.degree) == (X, ring, j)
        assert list(z.values) == _reduced(ring, vals)
        assert z == Cochain(X, ring, j, vals)
    assert x + y - y == x and x - x == zero_cochain(X, ring, j)
    for z, r in ((x.to_q(), "Q"), (x.mod1(), "QmodZ")):
        _assert_normal_form(z)
        expect = _reduced(ring, a) if r == "Q" else _reduced(r, a)
        assert z.ring == r and list(z.values) == expect
    keys = [",".join(map(str, s)) for s in X.simplices[j]]
    assert x.serialize() == {"ring": ring, "degree": j, "values": {
        k: f"{Fraction(v).numerator}/{Fraction(v).denominator}"
        for k, v in zip(keys, _reduced(ring, a)) if v}}
    if ring != "Z":
        assert x.to_q().mod1() == x.mod1()
        assert x.to_q() != x.mod1()  # equality compares the rings too
    with pytest.raises(TypeError):
        hash(x)


@pytest.mark.parametrize("name", PROPERTY_SPACES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_pairing_and_coboundary_match_fraction_values(name, data):
    """pair on integer chains and delta, read off the simplices' faces,
    agree with Fraction arithmetic (mod 1 over Q/Z)."""
    X = _space(name)
    ring = data.draw(st.sampled_from(RINGS))
    j = data.draw(st.integers(0, X.dim))
    a = _values(data.draw, X, ring, j)
    x = Cochain(X, ring, j, a)
    z = data.draw(st.lists(st.integers(-3, 3), min_size=len(a),
                           max_size=len(a)))
    got = x.pair({i: c for i, c in enumerate(z) if c})
    assert got == _reduced(ring, [sum(p * q for p, q in zip(a, z))])[0]
    assert isinstance(got, int if ring == "Z" else Fraction)
    dx = coboundary(x)
    _assert_normal_form(dx)
    expect = []
    for s in X.simplices[j + 1] if j < X.dim else ():
        faces = [s[:i] + s[i + 1:] for i in range(j + 2)]
        expect.append(sum((-1) ** i * a[X.index[j][f]]
                          for i, f in enumerate(faces)))
    assert (dx.ring, dx.degree) == (ring, j + 1)
    assert list(dx.values) == _reduced(ring, expect)


@pytest.mark.parametrize("name", PROPERTY_SPACES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_cup_matches_fraction_values(name, data):
    """The front-face/back-face product over Z and Q, denominators
    multiplied, agrees with the product of Fraction values."""
    X = _space(name)
    k = data.draw(st.integers(0, X.dim))
    l = data.draw(st.integers(0, X.dim - k))
    rx, ry = data.draw(st.sampled_from(["Z", "Q"])), data.draw(
        st.sampled_from(["Z", "Q"]))
    a, b = _values(data.draw, X, rx, k), _values(data.draw, X, ry, l)
    p = cup(Cochain(X, rx, k, a), Cochain(X, ry, l, b))
    _assert_normal_form(p)
    expect = [a[X.index[k][s[:k + 1]]] * b[X.index[l][s[k:]]]
              for s in X.simplices[k + l]]
    assert p.ring == ("Z" if rx == ry == "Z" else "Q") and p.degree == k + l
    assert list(p.values) == expect


@pytest.mark.parametrize("name", PROPERTY_SPACES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pullback_matches_fraction_values(name, data):
    """phi^* x along each map the CLI checks naturality along (the
    last-vertex map of the subdivision and a star inclusion) is x
    evaluated on the pushed-forward simplices, as Fractions (mod 1 over
    Q/Z)."""
    X = _space(name)
    ring = data.draw(st.sampled_from(RINGS))
    phi = data.draw(st.sampled_from(cli._naturality_maps(X)))
    j = data.draw(st.integers(0, X.dim))
    a = _values(data.draw, X, ring, j)
    y = Cochain(X, ring, j, a).pullback(phi)
    _assert_normal_form(y)
    n = phi.source.n_simplices(j)
    expect = []
    for i in range(n):
        pushed = phi.push_chain(j, {i: 1})
        expect.append(sum(a[t] * q for t, q in pushed.items()))
    assert (y.cx, y.ring, y.degree) == (phi.source, ring, j)
    assert list(y.values) == _reduced(ring, expect)


@pytest.mark.parametrize("name", PROPERTY_SPACES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_pull_cochain_is_the_transpose_of_subdivision(name, data):
    """Sd^* x on K is x evaluated on the subdivided simplices, as
    Fractions (mod 1 over Q/Z); it commutes with the coboundary, and
    Sd^* lambda^* is the identity on cochains of K."""
    X = _space(name)
    sd = barycentric_subdivide(X)
    Y = sd.complex
    ring = data.draw(st.sampled_from(RINGS))
    j = data.draw(st.integers(0, X.dim))
    a = _values(data.draw, Y, ring, j)
    x = Cochain(Y, ring, j, a)
    y = sd.pull_cochain(x)
    _assert_normal_form(y)
    n = X.n_simplices(j)
    expect = []
    for i in range(n):
        expect.append(sum(a[t] * q for t, q in sd.subdivide_chain(j, {i: 1}).items()))
    assert (y.cx, y.ring, y.degree) == (X, ring, j)
    assert list(y.values) == _reduced(ring, expect)
    assert sd.pull_cochain(coboundary(x)) == coboundary(y)
    b = Cochain(X, ring, j, _values(data.draw, X, ring, j))
    assert sd.pull_cochain(b.pullback(sd.last_vertex)) == b


def test_cochain_construction_errors(cx):
    s1 = cx("s1")
    with pytest.raises(RingError):
        Cochain(s1, "Z", 0, (Fraction(1, 2), 0, 0))
    with pytest.raises(RingError):
        Cochain(s1, "R", 0, (0, 0, 0))
    with pytest.raises(ValueError):
        Cochain(s1, "Q", 0, (0, 0))
    with pytest.raises(RingError):
        basis_cochain(s1, "Z", 0, 0).scale(Fraction(1, 2))
    assert Cochain(s1, "Z", 0, (Fraction(4, 2), 0, 0)).num == {0: 2}


def test_basis_cochain_rejects_an_index_outside_the_simplices(cx):
    """A negative or too large index is no simplex, not a key of num."""
    s1 = cx("s1")
    assert basis_cochain(s1, "Z", 0, 2).values == (0, 0, 1)
    for i in (-1, 3):
        with pytest.raises(IndexError):
            basis_cochain(s1, "Z", 0, i)


def test_pair_rejects_an_index_outside_the_simplices(cx):
    """pair reads the chain where the cochain is nonzero only, yet a chain
    holding a negative or too large simplex index is refused."""
    x = basis_cochain(cx("s1"), "Q", 0, 0)
    assert x.pair({0: 1}) == 1
    for chain in ({-1: 1}, {0: 1, 3: 1}):
        with pytest.raises(zlin.ShapeError):
            x.pair(chain)
