"""Cycle surgery: good neighborhoods, pseudomanifolds, splitting, bounding."""
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from unittest import mock

from charrig import corpus, geometry, zlin
from charrig.cochains import cohomology, homology
from charrig.geometry import (
    BoundResult, DimensionError, GeometryBudgetExceeded, NotNullHomologous,
    Pseudomanifold, bound_in_good_neighborhood, cohomology_vanishes_above,
    good_neighborhood, good_neighborhood_of_cycle, is_pseudomanifold,
    _carried_subcomplex, normalize_cycle, resolve_cycle, split_cycle,
    transport_chain, verify_normalization,
)
from charrig.simplicial import (
    SimplicialMap, complex_from_maximal, subcomplex_from_simplices,
    subdivision_tower,
)
from conftest import boundary_oracle, cycle_basis
from test_complex import RANDOM_SPACES


def test_good_neighborhood_of_vertex_is_cone(corpus_complex):
    X = corpus_complex
    K = subcomplex_from_simplices(X, [X.simplices[0][0]])
    nb = good_neighborhood(X, K, 0)
    assert nb.level == 0  # the closed star of a vertex is already a cone
    assert cohomology_vanishes_above(nb.complex, 0)


def test_good_neighborhood_of_torus_cycle_is_annular(cx):
    t2 = cx("t2")
    gen = homology(t2, 1).gen_cycles[0]
    nb = good_neighborhood_of_cycle(t2, 1, gen, 1)
    assert cohomology(nb.complex, 2, "Z").describe() == "0"
    assert cohomology_vanishes_above(nb.complex, 1)


def test_good_neighborhood_of_rp2_torsion_cycle(cx):
    rp2 = cx("rp2")
    tors = homology(rp2, 1).gen_cycles[0]
    nb = good_neighborhood_of_cycle(rp2, 1, tors, 1)
    assert cohomology(nb.complex, 2, "Z").describe() == "0"


def test_good_neighborhood_budget_error(cx):
    """A neighborhood of everything can never lose the top cohomology."""
    s1 = cx("s1")
    K = subcomplex_from_simplices(s1, s1.simplices[1])
    with pytest.raises(GeometryBudgetExceeded):
        good_neighborhood(s1, K, 0, max_subdiv=1)


def test_is_pseudomanifold_examples(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    pm = resolve_cycle(s1, 1, z)
    assert is_pseudomanifold(pm)
    # same induced orientation on a shared edge: boundary cells break it
    strip = complex_from_maximal("strip", [(0, 1, 2), (1, 2, 3)])
    bad = Pseudomanifold(strip, SimplicialMap(strip, strip, range(4)),
                         {0: 1, 1: -1})
    assert not is_pseudomanifold(bad)
    # disjoint circles: the condition is local
    two = complex_from_maximal(
        "two", [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    fund = {i: 1 if s in ((0, 1), (1, 2), (3, 4), (4, 5)) else -1
            for i, s in enumerate(two.simplices[1])}
    pm2 = Pseudomanifold(two, SimplicialMap(two, two, range(6)), fund)
    assert is_pseudomanifold(pm2)


def test_resolve_figure_eight(cx):
    fig8 = complex_from_maximal(
        "fig8", [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    z = {}
    for e, v in [((0, 1), 1), ((1, 2), 1), ((0, 2), -1),
                 ((2, 3), 1), ((3, 4), 1), ((2, 4), -1)]:
        z[fig8.simplex_index(e)] = v
    pm = resolve_cycle(fig8, 1, z)
    assert is_pseudomanifold(pm)
    # abstract result is two disjoint circles: the shared vertex doubled
    assert pm.complex.n_simplices(0) == 6
    assert pm.ambient_cycle() == z


def test_resolve_wedge_of_spheres_in_four_dim_ambient():
    """Two tetrahedral 2-spheres sharing an edge inside the 4-sphere."""
    d5 = complex_from_maximal(
        "bd5", [t for t in itertools.combinations(range(6), 5)])
    assert d5.dim == 4
    wedge = {}

    def add_sphere(tetra, sign):
        t = sorted(tetra)
        for i in range(4):
            face = d5.simplex_index(tuple(t[:i] + t[i + 1:]))
            wedge[face] = wedge.get(face, 0) + sign * (-1) ** i

    add_sphere((0, 1, 2, 3), 1)
    add_sphere((2, 3, 4, 5), 1)
    assert d5.is_cycle(2, wedge)
    pm = resolve_cycle(d5, 2, wedge)
    assert is_pseudomanifold(pm)
    # the shared edge is separated into one copy per sphere
    assert pm.complex.n_simplices(0) == 8
    assert pm.complex.n_simplices(2) == 8
    assert pm.ambient_cycle() == wedge
    # each 1-cell has exactly two cofaces (already checked inside
    # is_pseudomanifold, restated here as the wedge's point)
    counts = [sum(1 for v in row if v)
              for row in boundary_oracle(pm.complex, 2)]
    assert set(counts) == {2}


def test_split_identity_on_unit_coefficients(cx):
    t2 = cx("t2")
    gen = homology(t2, 1).gen_cycles[0]
    sr = split_cycle(t2, 1, gen)
    assert sr.level == 0 and sr.cycle == gen
    assert not sr.witness


def test_split_doubled_circle_in_torus(cx):
    t2 = cx("t2")
    gen = homology(t2, 1).gen_cycles[0]
    doubled = {i: 2 * c for i, c in gen.items()}
    sr = split_cycle(t2, 1, doubled)
    assert sr.level == 2
    assert all(abs(c) <= 1 for c in sr.cycle.values())
    db = sr.complex.boundary_of_chain(2, sr.witness)
    assert all(sr.transported.get(i, 0) == db.get(i, 0) + sr.cycle.get(i, 0)
               for i in sr.transported.keys() | db.keys() | sr.cycle.keys())
    # the split pieces are two parallel circles: a valid pseudomanifold
    pm = resolve_cycle(sr.complex, 1, sr.cycle)
    assert is_pseudomanifold(pm)


def test_split_zero_cycle_multiplicity_three(cx):
    s2 = cx("s2")
    z = {0: 3, 1: -3}
    sr = split_cycle(s2, 0, z)
    assert all(abs(c) <= 1 for c in sr.cycle.values())
    assert sum(1 for c in sr.cycle.values() if c == 1) == 3
    assert sum(1 for c in sr.cycle.values() if c == -1) == 3
    results = verify_normalization(*normalize_cycle(s2, 0, z))
    assert all(r.status == "pass" for r in results)


def test_split_needs_room(cx):
    s1 = cx("s1")
    z = {i: 2 * c for i, c in cycle_basis(s1, 1)[0].items()}
    with pytest.raises(DimensionError):
        split_cycle(s1, 1, z)  # 1-cycles in a 1-complex have no room


def test_normalization_suite_on_corpus_cycles(corpus_complex):
    X = corpus_complex
    rng = random.Random(0)
    for d in range(min(2, X.dim)):
        hom_d = homology(X, d)
        cycles = list(hom_d.gen_cycles)
        if hom_d.gen_cycles:
            cycles.append({i: 2 * c for i, c in hom_d.gen_cycles[0].items()})
        if X.n_simplices(d + 1):
            vec = {rng.randrange(X.n_simplices(d + 1)): 1}
            cycles.append(X.boundary_of_chain(d + 1, vec))
        for z in cycles:
            if not z:
                continue
            results = verify_normalization(*normalize_cycle(X, d, z))
            bad = [(r.name, r.detail) for r in results if r.status != "pass"]
            assert not bad, (X.name, d, bad)


def test_equator_bounds_in_good_neighborhood(cx):
    s2 = cx("s2")
    eq = {}
    eq[s2.simplex_index((0, 1))] = 1
    eq[s2.simplex_index((1, 2))] = 1
    eq[s2.simplex_index((0, 2))] = -1
    sr, pm = normalize_cycle(s2, 1, eq)
    out = bound_in_good_neighborhood(pm, s2, sr.tower)
    assert isinstance(out, BoundResult)
    nb = out.neighborhood
    assert cohomology_vanishes_above(nb.complex, 1)
    db = nb.complex.boundary_of_chain(2, out.chain)
    zP = pm.ambient_cycle()
    for sd in nb.tower:
        zP = sd.subdivide_chain(1, zP)
    assert db == nb.chain_to_neighborhood(1, zP) == out.cycle
    # the collapse certificate deflates the band to a graph
    assert out.collapsed_dim <= 1


def test_torus_generator_not_null_homologous(cx):
    t2 = cx("t2")
    gen = homology(t2, 1).gen_cycles[0]
    sr, pm = normalize_cycle(t2, 1, gen)
    out = bound_in_good_neighborhood(pm, t2, sr.tower)
    assert isinstance(out, NotNullHomologous)
    assert tuple(out.coords) in ((1, 0), (0, 1), (-1, 0), (0, -1))


def test_rp2_torsion_not_null_homologous_over_z(cx):
    rp2 = cx("rp2")
    tors = homology(rp2, 1).gen_cycles[0]
    sr, pm = normalize_cycle(rp2, 1, tors)
    out = bound_in_good_neighborhood(pm, rp2, sr.tower)
    assert isinstance(out, NotNullHomologous)
    assert out.group == "Z/2" and out.coords == (1,)


def test_boundary_cycle_bounds_locally(cx):
    """The boundary of one triangle bounds with a small neighborhood."""
    rp2 = cx("rp2")
    vec = {0: 1}
    z = rp2.boundary_of_chain(2, vec)
    sr, pm = normalize_cycle(rp2, 1, z)
    out = bound_in_good_neighborhood(pm, rp2, sr.tower)
    assert isinstance(out, BoundResult)


def test_neighborhoods_always_pass_direct_vanishing(cx):
    """Never trusted from theory: re-verify every emitted neighborhood."""
    for name, d in [("t2", 1), ("rp2", 1), ("s2", 1), ("klein", 1)]:
        X = cx(name)
        for g in homology(X, d).gen_cycles:
            nb = good_neighborhood_of_cycle(X, d, g, d)
            assert cohomology_vanishes_above(nb.complex, d)
            for j in range(d + 1, nb.complex.dim + 1):
                assert cohomology(nb.complex, j, "Z").describe() == "0"


def test_purity_refuses_a_simplex_off_the_top_cells():
    """A triangle boundary or a tetrahedron boundary with an isolated
    vertex is a cycle of +-1 cells, yet not pure: the closure of its top
    cells misses the last vertex. Without that vertex it is a
    pseudomanifold. On the 2-sphere only the purity test sees the vertex,
    since it is no face of the codimension-one cells either."""
    circle = 3, [(0, 1), (1, 2), (0, 2)], {0: 1, 1: -1, 2: 1}
    sphere = 4, list(itertools.combinations(range(4), 3)), \
        {0: -1, 1: 1, 2: -1, 3: 1}
    for n, tops, fund in (circle, sphere):
        for count, pure in ((n + 1, False), (n, True)):
            c = complex_from_maximal("c", tops, count)
            pm = Pseudomanifold(c, SimplicialMap(c, c, range(count)), fund)
            assert is_pseudomanifold(pm) is pure, (n, count)


def _transport_oracle(K, tower):
    """The simplices of each subdivision in turn whose carrier one level
    down was kept, one simplex at a time."""
    included = [set(level) for level in K.included]
    for sd in tower:
        included = [{i for i, (cd, ci) in enumerate(level)
                     if ci in included[cd]} for level in sd.carrier]
    return included


@settings(max_examples=30, deadline=None)
@given(RANDOM_SPACES, st.data())
def test_carried_subcomplex_matches_the_per_simplex_transport(X, data):
    """The simplices of sd^n X (n <= 2) whose base carrier lies in a random
    subcomplex K are those found by composing the carriers level by
    level; for n = 0 they are K itself."""
    every = [s for level in X.simplices for s in level]
    K = subcomplex_from_simplices(
        X, data.draw(st.lists(st.sampled_from(every), max_size=4)))
    n = data.draw(st.integers(0, 2 if X.dim <= 2 else 1))
    tower = subdivision_tower(X, n)
    carried = _carried_subcomplex(X, tower, K)
    assert carried.parent is (tower[-1].complex if tower else X)
    assert list(map(set, carried.included)) == _transport_oracle(K, tower)


def test_min_level_forces_a_subdivided_neighborhood(corpus_complex):
    """A vertex star is good at level 0, so min_level=1 must be what makes
    the neighborhood live one subdivision down."""
    X = corpus_complex
    K = subcomplex_from_simplices(X, [X.simplices[0][0]])
    nb = good_neighborhood(X, K, 0, min_level=1)
    assert nb.level >= 1 and len(nb.tower) == nb.level
    assert nb.subcomplex.parent is nb.tower[-1].complex
    assert cohomology_vanishes_above(nb.complex, 0)


def _disc_witness_oracle(base, tower, d, rho, route, s2):
    """The solve that the written-down witness replaced: boundary(h) =
    route - s2 inside the part of sd^2 carried by the closed coface rho,
    through a fresh factorization of that disc's boundary operator; h
    pushed back to the whole sd^2."""
    rhs = zlin.combine((1, -1), (route, s2))
    coface = subcomplex_from_simplices(base, [base.simplices[d + 1][rho]])
    sub, incl = _carried_subcomplex(base, tower, coface).as_complex()
    cols = incl.chain_columns(d)
    assert rhs.keys() <= {t for t, _ in cols}
    local = {c: sign * rhs[t] for c, (t, sign) in enumerate(cols) if t in rhs}
    fact = zlin.smith_normal_form(sub.boundary_rows(d + 1),
                                  ncols=sub.n_simplices(d + 1))
    assert fact.rank == sub.n_simplices(d + 1)  # the disc has no (d+1)-cycle
    sol = zlin.solve_integer(fact, local)
    assert sol is not None
    return incl.push_chain(d + 1, sol)


@settings(max_examples=30, deadline=None)
@given(st.one_of(st.sampled_from(corpus.CORPUS_NAMES).map(corpus.load),
                 RANDOM_SPACES), st.data())
def test_parallel_copy_witness_is_the_solve_in_the_carried_disc(X, data):
    """Splitting a doubled 0-cycle (a vertex) or 1-cycle (a homology
    generator or the boundary of a triangle) factors nothing, and each
    witness h that `_parallel_copy` writes down is the unique solution of
    boundary(h) = copy - Sd^2(cell) in the subdivided closed coface."""
    d = data.draw(st.integers(0, 1))
    assume(d < X.dim)
    if d == 0:
        cells = [i for i, row in enumerate(X.boundary_rows(1)) if row]
        z = {data.draw(st.sampled_from(cells)): 1}
    else:
        z = data.draw(st.sampled_from(
            list(homology(X, 1).gen_cycles)
            + [X.boundary_of_chain(2, {t: 1}) for t in range(X.n_simplices(2))]))
    vec = {i: 2 * c for i, c in z.items()}
    calls = []
    real = geometry._parallel_copy

    def spy(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    with mock.patch.object(geometry, "_parallel_copy", spy), \
            mock.patch.object(zlin, "smith_normal_form",
                              side_effect=AssertionError("factored")):
        try:
            split_cycle(X, d, vec)
        except GeometryBudgetExceeded:
            assume(False)
    assert len(calls) == len(vec)
    for (base, tower, dd, cell, rho), (route, h) in calls:
        s2 = transport_chain(tower, dd, {cell: 1})
        assert h == _disc_witness_oracle(base, tower, dd, rho, route, s2)
