"""Complexes, maps, subdivision, stars."""
import argparse
import json

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from charrig.simplicial import (
    Complex, DuplicateError, FaceClosureError, ParseError,
    SimplicialMap, barycentric_subdivide, closed_star_neighborhood,
    complex_from_maximal, parse_complex, subcomplex_from_simplices,
)
from charrig import cli, zlin
from charrig.cochains import basis_cochain, cohomology, homology
from conftest import CORPUS, boundary_oracle, cycle_basis
from test_cochains import cones_and_suspensions, random_complexes


def test_parse_triangle_circle():
    doc = json.dumps({"name": "circle", "simplices": [[0, 1], [1, 2], [0, 2]],
                      "vertices": 3})
    cx = parse_complex(doc)
    assert cx.n_simplices(0) == 3 and cx.n_simplices(1) == 3
    assert cx.dim == 1


def test_parse_rp2_counts(cx):
    rp2 = cx("rp2")
    assert [rp2.n_simplices(d) for d in range(3)] == [6, 15, 10]


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_complex("not json at all {")
    with pytest.raises(ParseError):
        parse_complex(json.dumps({"simplices": [[0, 1]]}))  # no name
    with pytest.raises(ParseError):
        parse_complex(json.dumps({"name": "x", "simplices": [[1, 0]]}))
    with pytest.raises(DuplicateError):
        parse_complex(json.dumps({"name": "x", "simplices": [[0, 1], [0, 1]]}))
    with pytest.raises(ParseError):
        parse_complex(json.dumps({"name": "x", "simplices": [[0, 1, 2]],
                                  "dimension": 1}))


def test_explicit_mode_face_closure_error():
    doc = json.dumps({"name": "bad", "explicit": True,
                      "simplices": [[0, 1, 2], [0, 1], [1, 2],
                                    [0], [1], [2]]})
    with pytest.raises(FaceClosureError):
        parse_complex(doc)


def test_boundary_matrix_shapes_and_degrees(cx):
    """boundary_rows(j) has one row per (j-1)-simplex for every j in
    -1..dim+1, the point's boundary in degree 1 is one empty row, and the
    columns of the circle's boundary sum to zero."""
    for name in CORPUS:
        X = cx(name)
        for j in range(-1, X.dim + 2):
            assert len(X.boundary_rows(j)) == X.n_simplices(j - 1), (name, j)
    assert cx("point").boundary_rows(1) == [{}]
    s1 = cx("s1")
    col_sums = zlin.combine([1] * s1.n_simplices(0), s1.boundary_rows(1))
    assert col_sums == {}
    assert all(len(row) == 2 for row in s1.boundary_rows(1))


def test_boundary_squares_to_zero(corpus_complex):
    X = corpus_complex
    for j in range(1, X.dim + 1):
        if X.n_simplices(j + 1):
            prod = _dense_boundary(X, j) * _dense_boundary(X, j + 1)
            assert prod.is_zero_matrix


def _dense_boundary(X, j):
    return Matrix([zlin.dense(row, X.n_simplices(j))
                   for row in X.boundary_rows(j)])


def test_subdivision_edge():
    edge = complex_from_maximal("edge", [(0, 1)])
    sd = barycentric_subdivide(edge)
    assert sd.complex.n_simplices(0) == 3
    assert sd.complex.n_simplices(1) == 2


def test_subdivision_preserves_euler_and_betti(cx):
    for name in ("s1", "s2", "rp2"):
        X = cx(name)
        sd = barycentric_subdivide(X)
        Y = sd.complex
        assert Y.euler_characteristic() == X.euler_characteristic()
        for j in range(X.dim + 1):
            gx = cohomology(X, j, "Z")
            gy = cohomology(Y, j, "Z")
            assert (gx.rank, gx.torsion) == (gy.rank, gy.torsion), (name, j)


def test_subdivision_chain_map_commutes_with_boundary(cx):
    for name in ("s1", "s2", "rp2"):
        X = cx(name)
        sd = barycentric_subdivide(X)
        Y = sd.complex
        for j in range(1, X.dim + 1):
            for i in range(X.n_simplices(j)):
                vec = {i: 1}
                lhs = Y.boundary_of_chain(j, sd.subdivide_chain(j, vec))
                rhs = sd.subdivide_chain(j - 1, X.boundary_of_chain(j, vec))
                assert lhs == rhs


def test_last_vertex_section_of_subdivision(cx):
    for name in ("s1", "s2"):
        X = cx(name)
        sd = barycentric_subdivide(X)
        for j in range(X.dim + 1):
            for i in range(X.n_simplices(j)):
                vec = {i: 1}
                assert sd.last_vertex.push_chain(j, sd.subdivide_chain(j, vec)) == vec


def test_subdivided_fundamental_cycle(cx):
    s1 = cx("s1")
    sd = barycentric_subdivide(s1)
    z = cycle_basis(s1, 1)[0]
    z6 = sd.subdivide_chain(1, z)
    assert len(z6) == 6
    assert all(abs(c) == 1 for c in z6.values())
    assert sd.complex.is_cycle(1, z6)


def test_carrier_points_at_smallest_containing_simplex(cx):
    s2 = cx("s2")
    sd = barycentric_subdivide(s2)
    for d in range(sd.complex.dim + 1):
        for i, s in enumerate(sd.complex.simplices[d]):
            # the carrier of a flag is its top element
            assert sd.vertex_carrier[s[-1]] == sd.carrier[d][i]


def test_closed_star_of_vertex(cx):
    s1 = cx("s1")
    K = subcomplex_from_simplices(s1, [(0,)])
    star = closed_star_neighborhood(s1, K)
    lists = [sorted(s1.simplices[d][i] for i in level)
             for d, level in enumerate(star.included)]
    assert lists[0] == [(0,), (1,), (2,)]
    assert lists[1] == [(0, 1), (0, 2)]


def test_closed_star_of_empty_is_empty(cx):
    s1 = cx("s1")
    K = subcomplex_from_simplices(s1, [])
    star = closed_star_neighborhood(s1, K)
    assert star.is_empty()


def test_star_in_twice_subdivided_torus_loses_top_cohomology(cx):
    from charrig.geometry import cohomology_vanishes_above
    from charrig.simplicial import subdivision_tower
    from charrig.cochains import homology as hom
    t2 = cx("t2")
    gen = hom(t2, 1).gen_cycles[0]
    tower = subdivision_tower(t2, 2)
    z = gen
    for sd in tower:
        z = sd.subdivide_chain(1, z)
    Y = tower[1].complex
    simps = [Y.simplices[1][i] for i in z]
    K = subcomplex_from_simplices(Y, simps)
    star = closed_star_neighborhood(Y, K)
    ucx, _ = star.as_complex()
    assert cohomology_vanishes_above(ucx, 1)
    assert cohomology(ucx, 2, "Z").describe() == "0"


def _unit_chains(X, j):
    for i in range(X.n_simplices(j)):
        yield {i: 1}


def test_push_chain_identity_and_constant(cx):
    s1 = cx("s1")
    pt = cx("point")
    ident = SimplicialMap(s1, s1, range(s1.vertex_count))
    const = SimplicialMap(s1, pt, [0, 0, 0])
    for j in (0, 1):
        for e in _unit_chains(s1, j):
            assert ident.push_chain(j, e) == e
            # a vertex goes to the point, an edge degenerates
            assert const.push_chain(j, e) == ({0: 1} if j == 0 else {})


def test_push_chain_commutes_with_boundary(cx):
    """boundary . phi_* = phi_* . boundary on every unit chain, for a
    degree-two map of the circle and for `last_vertex` of s2 and t2."""
    s1 = cx("s1")
    maps = [SimplicialMap(barycentric_subdivide(s1).complex, s1,
                          [0, 2, 1, 1, 2, 0])]
    maps += [barycentric_subdivide(cx(name)).last_vertex
             for name in ("s2", "t2")]
    for phi in maps:
        X, Y = phi.source, phi.target
        for j in range(1, X.dim + 1):
            for e in _unit_chains(X, j):
                assert Y.boundary_of_chain(j, phi.push_chain(j, e)) == \
                    phi.push_chain(j - 1, X.boundary_of_chain(j, e)), (Y.name, j)


def test_degree_two_circle_map(cx):
    s1 = cx("s1")
    sd = barycentric_subdivide(s1)
    phi = SimplicialMap(sd.complex, s1, [0, 2, 1, 1, 2, 0])
    z = cycle_basis(sd.complex, 1)[0]
    img = phi.push_chain(1, z)
    fund = cycle_basis(s1, 1)[0]
    ratios = {img.get(i, 0) // c for i, c in fund.items()}
    assert len(ratios) == 1 and abs(ratios.pop()) == 2


def test_simplicial_map_validation(cx):
    s1 = cx("s1")
    s2 = cx("s2")
    with pytest.raises(Exception):
        SimplicialMap(s2, s1, [0, 1, 2, 2])  # (0,1,2) has no image simplex


def test_subcomplex_as_complex_preserves_orientation(cx):
    t2 = cx("t2")
    K = subcomplex_from_simplices(t2, [t2.simplices[2][0]])
    sub, incl = K.as_complex()
    for j in range(sub.dim + 1):
        for i in range(sub.n_simplices(j)):
            entry = incl.chain_columns(j)[i]
            assert entry is not None and entry[1] == 1


# ---------------------------------------------------------------------------
# sparse chains on random complexes, cones and suspensions

RANDOM_SPACES = st.one_of(random_complexes(), cones_and_suspensions())


def _chains(X, j):
    """Sparse j-chains of X: dicts of nonzero coefficients."""
    n = X.n_simplices(j)
    if not n:
        return st.just({})
    return st.dictionaries(st.integers(0, n - 1),
                           st.integers(-3, 3).filter(bool), max_size=n)


@settings(max_examples=40, deadline=None)
@given(RANDOM_SPACES, st.data())
def test_boundary_of_chain_is_the_matrix_product(X, data):
    """The sparse boundary is the product with the dense boundary matrix,
    stores no zero, and its boundary is the empty chain."""
    j = data.draw(st.integers(0, X.dim))
    c = data.draw(_chains(X, j))
    b = X.boundary_of_chain(j, c)
    assert all(b.values())
    if j:
        x = zlin.dense(c, X.n_simplices(j))
        expect = [sum(r * v for r, v in zip(row, x))
                  for row in boundary_oracle(X, j)]
        assert zlin.dense(b, X.n_simplices(j - 1)) == expect
    else:
        assert b == {}
    assert X.boundary_of_chain(j - 1, b) == {}
    assert X.is_cycle(j - 1, b)


@settings(max_examples=25, deadline=None)
@given(RANDOM_SPACES, st.data())
def test_last_vertex_push_inverts_subdivide_chain(X, data):
    """lambda_# Sd_# = id on sparse chains, and neither side stores a zero."""
    sd = barycentric_subdivide(X)
    j = data.draw(st.integers(0, X.dim))
    c = data.draw(_chains(X, j))
    up = sd.subdivide_chain(j, c)
    assert all(up.values())
    assert sd.last_vertex.push_chain(j, up) == c


@settings(max_examples=25, deadline=None)
@given(RANDOM_SPACES, st.data())
def test_out_of_range_indices_raise_shape_errors(X, data):
    """pair refuses a chain index outside the simplices, and the integer
    and rational solves a right-side index outside the rows."""
    j = data.draw(st.integers(0, X.dim))
    n = X.n_simplices(j)
    x = basis_cochain(X, "Q", j, 0)
    bad = data.draw(st.sampled_from([-1, n, n + 3]))
    with pytest.raises(zlin.ShapeError):
        x.pair({0: 1, bad: 1})
    # the boundary C_{j+1} -> C_j has n rows, empty ones when j = dim
    rows, ncols = X.boundary_rows(j + 1), X.n_simplices(j + 1)
    with pytest.raises(zlin.ShapeError):
        zlin.solve_integer(rows, {bad: 1}, ncols=ncols)
    with pytest.raises(zlin.ShapeError):
        zlin.solve_rational(rows, {bad: 1}, ncols=ncols)


@settings(max_examples=30, deadline=None)
@given(RANDOM_SPACES)
def test_boundary_rows_are_the_oracle_and_the_only_stored_boundary(X):
    """After `inspect`, boundary_rows(j) is the oracle boundary in every
    degree -1..dim+2, as ascending sparse rows that store no zero, and no
    other form of the boundary (a per-degree face table) is cached."""
    cli.cmd_inspect(X, argparse.Namespace(seed=0, max_subdiv=2), 1)
    assert not [key for key in X._cache
                if isinstance(key, tuple) and key[0] == "faces"]
    for j in range(-1, X.dim + 3):
        rows = X.boundary_rows(j)
        assert all(list(r) == sorted(r) and all(r.values()) for r in rows), j
        assert [zlin.dense(r, X.n_simplices(j)) for r in rows] == \
            boundary_oracle(X, j), j
