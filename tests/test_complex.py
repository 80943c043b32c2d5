"""Complexes, maps, subdivision, stars."""
import argparse
import json
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st
from sympy import Matrix

from charrig.simplicial import (
    Complex, DuplicateError, FaceClosureError, MismatchError, ParseError,
    SimplicialMap, Subcomplex, barycentric_subdivide, chain_support,
    closed_star_neighborhood, complex_from_maximal, parse_complex,
    subcomplex_from_simplices,
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
    with pytest.raises(MismatchError) as err:
        SimplicialMap(s2, s1, [0, 1, 2, 2])  # (0,1,2) has no image simplex
    assert str(err.value) == "image of (0, 1, 2) does not span a target simplex"


# Every construction error, with the exception class and message the
# per-simplex checks gave before validation ran by columns: the message
# names the first offending simplex (and face) in level order.
V3 = [(0,), (1,), (2,)]
CONSTRUCTION_ERRORS = {
    "no_simplices": (
        lambda cx: Complex("x", [[], []]),
        ParseError, "complex has no simplices"),
    "wrong_length": (
        lambda cx: Complex("x", [V3, [(0, 1), (0, 1, 2), (1,)]]),
        ParseError, "simplex (0, 1, 2) listed in dimension 1"),
    "wrong_length_vertex": (
        lambda cx: Complex("x", [[(0,), (1, 2), (2,)]]),
        ParseError, "simplex (1, 2) listed in dimension 0"),
    "not_increasing": (
        lambda cx: Complex("x", [V3, [(0, 1), (2, 1), (1, 0)]]),
        ParseError, "simplex (2, 1) is not strictly increasing"),
    "not_increasing_triangle": (
        lambda cx: Complex("x", [V3, [(0, 1), (0, 2), (1, 2)], [(0, 2, 1)]]),
        ParseError, "simplex (0, 2, 1) is not strictly increasing"),
    "repeated_vertex": (
        lambda cx: Complex("x", [V3, [(1, 1)]]),
        ParseError, "simplex (1, 1) is not strictly increasing"),
    "duplicate": (
        lambda cx: Complex("x", [V3, [(0, 1), (1, 2), (0, 1), (1, 2)]]),
        DuplicateError, "duplicate simplex (0, 1)"),
    "duplicate_vertex": (
        lambda cx: Complex("x", [[(0,), (1,), (0,)], [(0, 1), (0, 2)]]),
        DuplicateError, "duplicate simplex (0,)"),
    "duplicate_before_bad_length": (
        lambda cx: Complex("x", [V3, [(1, 2), (1, 2), (0, 1, 2)]]),
        DuplicateError, "duplicate simplex (1, 2)"),
    "bad_length_before_duplicate": (
        lambda cx: Complex("x", [V3, [(1, 2), (2,), (1, 2)]]),
        ParseError, "simplex (2,) listed in dimension 1"),
    "lower_level_first": (
        lambda cx: Complex("x", [[(0,), (0,)], [(1, 0)]]),
        DuplicateError, "duplicate simplex (0,)"),
    "vertex_count_low": (
        lambda cx: Complex("x", [V3, [(0, 2)]], 2),
        ParseError, "vertex_count 2 below maximum index 2"),
    "missing_face": (
        lambda cx: Complex("x", [V3, [(0, 1), (1, 2)], [(0, 1, 2)]]),
        FaceClosureError, "face (0, 2) of (0, 1, 2) is missing"),
    "missing_last_face": (
        lambda cx: Complex("x", [V3, [(0, 2), (1, 2)], [(0, 1, 2)]]),
        FaceClosureError, "face (0, 1) of (0, 1, 2) is missing"),
    "missing_vertex": (
        lambda cx: Complex("x", [[(0,), (2,)], [(0, 2), (0, 1)]]),
        FaceClosureError, "face (1,) of (0, 1) is missing"),
    "missing_face_second_simplex": (
        lambda cx: Complex("x", [[(0,), (1,), (2,), (3,)],
                                 [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
                                 [(0, 1, 2), (1, 2, 3), (0, 2, 3)]]),
        FaceClosureError, "face (0, 3) of (0, 2, 3) is missing"),
    "explicit_missing_face": (
        lambda cx: parse_complex(json.dumps({
            "name": "bad", "explicit": True,
            "simplices": [[0, 1, 2], [0, 1], [1, 2], [0], [1], [2]]})),
        FaceClosureError, "face (0, 2) of (0, 1, 2) is missing"),
    "maximal_not_increasing": (
        lambda cx: complex_from_maximal("x", [(0, 1), (2, 1)]),
        ParseError, "simplex (2, 1) is not strictly increasing"),
    "subcomplex_edge_without_vertex": (
        lambda cx: Subcomplex(cx("s1"), [{0}, {0}]),
        FaceClosureError, "subcomplex not face-closed at (0, 1)"),
    "subcomplex_triangle_without_edge": (
        lambda cx: Subcomplex(cx("s2"), [{0, 1, 2, 3}, {0, 1, 3, 5}, {1, 2}]),
        FaceClosureError, "subcomplex not face-closed at (0, 1, 3)"),
    "map_length": (
        lambda cx: SimplicialMap(cx("s1"), cx("point"), [0, 0]),
        MismatchError, "vertex map length differs from vertex count"),
    "map_range": (
        lambda cx: SimplicialMap(cx("s1"), cx("point"), [0, 1, 0]),
        MismatchError, "vertex map leaves the target vertex range"),
    "map_triangle_into_circle": (
        lambda cx: SimplicialMap(cx("s2"), cx("s1"), [0, 1, 2, 2]),
        MismatchError, "image of (0, 1, 2) does not span a target simplex"),
    "map_edge_misses": (
        lambda cx: SimplicialMap(cx("s1"), Complex("ep", [V3, [(0, 1)]]),
                                 [0, 1, 2]),
        MismatchError, "image of (0, 2) does not span a target simplex"),
    "map_reversed_edge_misses": (
        lambda cx: SimplicialMap(cx("s1"), Complex("ep", [V3, [(0, 1)]]),
                                 [2, 1, 0]),
        MismatchError, "image of (0, 1) does not span a target simplex"),
    "map_edge_fails_after_vertices": (
        lambda cx: SimplicialMap(cx("s2"), Complex("ep", [V3, [(0, 1)]]),
                                 [0, 1, 1, 2]),
        MismatchError, "image of (0, 3) does not span a target simplex"),
}


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_ERRORS))
def test_construction_errors_are_pinned(cx, case):
    """Each construction error keeps its exception class and its message
    byte for byte."""
    build, cls, message = CONSTRUCTION_ERRORS[case]
    with pytest.raises(Exception) as err:
        build(cx)
    assert type(err.value) is cls
    assert str(err.value) == message


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
    """pair refuses a chain index outside the simplices, and the integer,
    rational and transposed solves a right-side index outside the rows."""
    j = data.draw(st.integers(0, X.dim))
    n = X.n_simplices(j)
    x = basis_cochain(X, "Q", j, 0)
    bad = data.draw(st.sampled_from([-1, n, n + 3]))
    with pytest.raises(zlin.ShapeError):
        x.pair({0: 1, bad: 1})
    # the boundary C_{j+1} -> C_j has n rows, empty ones when j = dim
    rows, ncols = X.boundary_rows(j + 1), X.n_simplices(j + 1)
    with pytest.raises(zlin.ShapeError):
        zlin.solve_integer(zlin.smith_normal_form(rows, ncols=ncols), {bad: 1})
    with pytest.raises(zlin.ShapeError):
        zlin.solve_rational(rows, {bad: 1}, ncols=ncols)
    with pytest.raises(zlin.ShapeError):
        zlin.solve_transposed(zlin.smith_normal_form(rows, ncols=ncols).T,
                              {bad: 1}, True)


@settings(max_examples=30, deadline=None)
@given(RANDOM_SPACES)
def test_boundary_rows_are_the_oracle_and_the_only_stored_boundary(X):
    """After `inspect`, boundary_rows(j) is the oracle boundary in every
    degree -1..dim+2, as ascending sparse rows that store no zero, holding
    exactly the (face, sign) pairs that `faces` gives each simplex, and no
    other form of the boundary (a per-degree face table) is cached."""
    cli.cmd_inspect(X, argparse.Namespace(seed=0, max_subdiv=2), 1)
    assert not [key for key in X._cache
                if isinstance(key, tuple) and key[0] == "faces"]
    for j in range(-1, X.dim + 3):
        rows = X.boundary_rows(j)
        assert all(list(r) == sorted(r) and all(r.values()) for r in rows), j
        assert [zlin.dense(r, X.n_simplices(j)) for r in rows] == \
            boundary_oracle(X, j), j
        entries = {(r, c): sign for r, row in enumerate(rows)
                   for c, sign in row.items()}
        assert entries == {(r, c): sign for c in range(X.n_simplices(j))
                           for r, sign in (X.faces(j, c) if j >= 1 else ())}, j


@st.composite
def vertex_maps(draw):
    """A random complex X, a target Y and a vertex map X -> Y: into X
    itself, into a full simplex of dimension at most dim X, into another
    random complex, or constant into a simplex. The map need not be
    simplicial, and is seldom monotone."""
    X = draw(RANDOM_SPACES)
    kind = draw(st.sampled_from(["self", "simplex", "random", "constant"]))
    if kind == "self":
        Y = X
    elif kind == "random":
        Y = draw(random_complexes())
    else:
        m = draw(st.integers(1, X.dim + 1))
        Y = complex_from_maximal("simplex", [tuple(range(m))])
    w = st.integers(0, Y.vertex_count - 1)
    if kind == "constant":
        vm = [draw(w)] * X.vertex_count
    else:
        vm = draw(st.lists(w, min_size=X.vertex_count, max_size=X.vertex_count))
    return X, Y, vm


def _reference_columns(X, Y, vm, j):
    """The induced chain map on j-simplices by its definition: a repeated
    vertex makes the image degenerate (None); otherwise the sorted image
    and the parity of its inversions."""
    out = []
    for s in X.simplices[j] if 0 <= j <= X.dim else ():
        image = [vm[v] for v in s]
        if len(set(image)) < len(image):
            out.append(None)
            continue
        inversions = sum(a > b for a, b in combinations(image, 2))
        out.append((Y.simplex_index(sorted(image)), (-1) ** inversions))
    return tuple(out)


@settings(max_examples=120, deadline=None)
@given(vertex_maps())
def test_simplicial_maps_match_the_reference(case):
    """A vertex map is refused exactly when some image spans no target
    simplex, naming the first such source simplex; an accepted map has the
    reference chain columns in every degree -1..dim+1 and is monotone
    exactly when it is weakly increasing on every simplex."""
    X, Y, vm = case
    spans = {s for level in Y.simplices for s in level}
    culprit = next((s for level in X.simplices for s in level
                    if tuple(sorted({vm[v] for v in s})) not in spans), None)
    if culprit is not None:
        with pytest.raises(MismatchError) as err:
            SimplicialMap(X, Y, vm)
        assert str(err.value) == \
            f"image of {culprit} does not span a target simplex"
        return
    phi = SimplicialMap(X, Y, vm)
    for j in range(-1, X.dim + 2):
        assert phi.chain_columns(j) == _reference_columns(X, Y, vm, j), j
    assert phi.is_monotone() == all(
        vm[a] <= vm[b] for level in X.simplices for s in level
        for a, b in zip(s, s[1:]))


# ---------------------------------------------------------------------------
# face closure against a closure written with combinations

def _closure_oracle(X, simplices):
    """Every face of the given simplices, one index set per dimension,
    found by deleting vertices in every way."""
    out = [set() for _ in X.simplices]
    for s in simplices:
        for r in range(1, len(s) + 1):
            for f in combinations(s, r):
                out[r - 1].add(X.index[r - 1][f])
    return out


@settings(max_examples=40, deadline=None)
@given(RANDOM_SPACES, st.data())
def test_face_closures_match_the_oracle(X, data):
    """subcomplex_from_simplices, chain_support and closed_star_neighborhood
    are the face closure of the simplices they select: the given ones, the
    support of a chain, and every simplex meeting K's vertex set."""
    every = [s for level in X.simplices for s in level]
    chosen = data.draw(st.lists(st.sampled_from(every), max_size=6))
    K = subcomplex_from_simplices(X, chosen)
    assert list(map(set, K.included)) == _closure_oracle(X, chosen)

    j = data.draw(st.integers(0, X.dim))
    c = data.draw(_chains(X, j))
    support = chain_support(X, j, c)
    assert list(map(set, support.included)) == \
        _closure_oracle(X, [X.simplices[j][i] for i in c])

    verts = K.vertex_set()
    meeting = [s for s in every if verts.intersection(s)]
    star = closed_star_neighborhood(X, K)
    assert list(map(set, star.included)) == _closure_oracle(X, meeting)
