"""Differential cocycle classes: equality, structure maps, the diagram."""
import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charrig import diffcocycle
from charrig.cochains import (
    Cochain, QuotientForm, basis_cochain, bockstein, coboundary, cohomology,
    is_integral_form, zero_cochain, _units,
)
from charrig.diffcocycle import (
    DiffClass, NotInImage, class_equal, coboundary_shift, delta1, delta2,
    equivalence_witness, i1, i2, lift_through_i2, preimage_of_class,
    preimage_of_form, pullback, sample_classes, verify_diagram, zero_class,
)
from charrig.simplicial import (
    SimplicialMap, barycentric_subdivide, closed_star_neighborhood,
    subcomplex_from_simplices,
)
from conftest import CORPUS, cycle_basis
from test_cochains import cones_and_suspensions, random_complexes

DEGREES = [("s1", 1), ("s1", 2), ("s2", 1), ("s2", 2), ("rp2", 1),
           ("rp2", 2), ("t2", 1), ("t2", 2), ("klein", 2), ("moore_z3", 2)]


def test_cocycle_invariants_enforced(cx):
    s1 = cx("s1")
    # delta h = 0 but omega - c != 0: construction must refuse
    with pytest.raises(ValueError):
        DiffClass(basis_cochain(s1, "Z", 1, 0), zero_cochain(s1, "Q", 0),
                  zero_cochain(s1, "Q", 1))


def test_class_is_unhashable_and_equal_only_by_identity(cx):
    """== never compares components, so it cannot stand in for
    class_equal; a class is not hashable."""
    s1 = cx("s1")
    x = zero_class(s1, 1)
    y = DiffClass(x.c, x.h, x.omega)
    with pytest.raises(TypeError):
        hash(x)
    assert x == x and x != y and not (x == y)
    assert class_equal(x, y)


@pytest.mark.parametrize("name,k", DEGREES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_cocycle_identities_checked_over_common_denominators(cx, name, k, data):
    """(c, h, omega) with omega = delta h + c is accepted for any integral
    cocycle c and a rational h, drawn with mixed denominators or built as
    z/2 + y/3 for a cocycle z with an odd value and y with values 1 or 2
    (so h has denominator 6 and omega 1 or 3); moving any value of omega
    by 1/d or by one numerator, or c off the cocycles, is refused."""
    X = cx(name)
    n_prev, n_k = X.n_simplices(k - 1), X.n_simplices(k)
    ints = st.lists(st.integers(-3, 3), min_size=n_prev, max_size=n_prev)
    dens = st.lists(st.integers(1, 6), min_size=n_prev, max_size=n_prev)
    drawn = Cochain(X, "Q", k - 1, [Fraction(p, q) for p, q in
                                    zip(data.draw(ints), data.draw(dens))])
    z = sum(cohomology(X, k - 1, "Z").gen_cochains,
            zero_cochain(X, "Z", k - 1))
    if k >= 2:
        z = z + coboundary(basis_cochain(X, "Z", k - 2, 0))
    y = Cochain(X, "Z", k - 1, data.draw(st.lists(
        st.integers(1, 2), min_size=n_prev, max_size=n_prev)))
    sixths = z.to_q().scale(Fraction(1, 2)) + y.to_q().scale(Fraction(1, 3))
    assert sixths.den == 6 and coboundary(sixths).den in (1, 3)
    c = coboundary(Cochain(X, "Z", k - 1, data.draw(ints)))
    for g in cohomology(X, k, "Z").gen_cochains:
        c = c + g.scale(data.draw(st.integers(-2, 2)))
    for h in (drawn, sixths):
        omega = coboundary(h) + c.to_q()
        DiffClass(c, h, omega)
        for d in (data.draw(st.integers(1, 6)), omega.den):
            for e in range(n_k):
                with pytest.raises(ValueError, match="delta h != omega - c"):
                    DiffClass(c, h, omega + basis_cochain(
                        X, "Q", k, e).scale(Fraction(1, d)))
    if not n_k:
        return
    off = c + basis_cochain(X, "Z", k, data.draw(st.integers(0, n_k - 1)))
    if not coboundary(off).is_zero():
        with pytest.raises(ValueError, match="c is not a cocycle"):
            DiffClass(off, h, coboundary(h) + off.to_q())


def test_class_equal_under_coboundary_shifts(cx):
    rng = random.Random(0)
    for name, k in DEGREES:
        X = cx(name)
        for x in sample_classes(X, k, random.Random(1), count=3):
            n_prev = X.n_simplices(k - 1)
            b = Cochain(X, "Z", k - 1,
                        tuple(rng.randrange(-2, 3) for _ in range(n_prev)))
            n_pp = X.n_simplices(k - 2) if k >= 2 else 0
            s = Cochain(X, "Q", k - 2,
                        tuple(Fraction(rng.randrange(-2, 3), 3)
                              for _ in range(n_pp)))
            y = coboundary_shift(x, b, s)
            w = equivalence_witness(x, y)
            assert w is not None
            wb, ws = w
            # the witness satisfies the defining identities exactly
            assert (x.c - y.c).values == coboundary(wb).values
            assert (x.h - y.h).values == \
                (coboundary(ws) - wb.to_q()).values


def test_difference_is_validated_once(cx, monkeypatch):
    """x - y is built as one class, the componentwise difference: its
    validation takes the two coboundaries of c and h, where x + (-y)
    validates -y first and takes four."""
    X = cx("t2")
    xs = sample_classes(X, 2, random.Random(1), count=3)
    calls = []
    real = diffcocycle._coboundary_num
    monkeypatch.setattr(diffcocycle, "_coboundary_num",
                        lambda x: calls.append(x) or real(x))
    for x in xs:
        for y in xs:
            calls.clear()
            d = x - y
            assert len(calls) == 2
            s = x + (-y)
            assert [(v.num, v.den) for v in (d.c, d.h, d.omega)] == \
                [(v.num, v.den) for v in (s.c, s.h, s.omega)]
            assert class_equal(d + y, x)


def test_distinct_holonomies_are_distinct_classes(cx):
    s1 = cx("s1")

    def hol(q):
        h = Cochain(s1, "Q", 0, (q, q, q))
        return DiffClass(zero_cochain(s1, "Z", 1), h, zero_cochain(s1, "Q", 1))

    assert not class_equal(hol(Fraction(1, 3)), hol(Fraction(1, 2)))
    assert class_equal(hol(Fraction(1, 3)), hol(Fraction(1, 3)))
    assert class_equal(hol(Fraction(1, 3)), hol(Fraction(4, 3)))  # differ by 1


def test_i2_kills_exactly_integral_forms(cx):
    s1 = cx("s1")
    integral = QuotientForm(Cochain(s1, "Q", 0, (2, 2, 2)))
    assert class_equal(i2(integral), zero_class(s1, 1))
    frac = QuotientForm(Cochain(s1, "Q", 0, (Fraction(1, 3),) * 3))
    assert not class_equal(i2(frac), zero_class(s1, 1))


def test_delta1_of_i2_is_d(cx):
    t2 = cx("t2")
    th = QuotientForm(basis_cochain(t2, "Q", 0, 3).scale(Fraction(1, 4)))
    assert delta1(i2(th)).values == coboundary(th.rep).values


def test_i1_image_is_flat_and_matches_minus_bockstein(cx):
    rp2 = cx("rp2")
    hqz = cohomology(rp2, 1, "QmodZ")
    u = hqz.make([Fraction(1, 2)])
    x = i1(u)
    assert delta1(x).is_zero()
    assert delta2(x) == -bockstein(u)
    assert not delta2(x).is_zero()


def test_lift_through_i2_roundtrip_and_obstruction(cx):
    s2 = cx("s2")
    th = QuotientForm(basis_cochain(s2, "Q", 0, 1).scale(Fraction(1, 5)))
    back = lift_through_i2(i2(th))
    assert back == th
    rp2 = cx("rp2")
    tors = cohomology(rp2, 2, "Z").make((1,))
    with pytest.raises(NotInImage) as err:
        lift_through_i2(preimage_of_class(rp2, tors))
    assert err.value.witness["degree"] == 1
    assert err.value.witness["cochain"]["degree"] == 2


def test_delta2_surjectivity_preimages(cx):
    for name in ("s1", "rp2", "t2", "klein", "moore_z3"):
        X = cx(name)
        for k in range(1, X.dim + 1):
            hz = cohomology(X, k, "Z")
            for t in range(hz.n_coords):
                e = [0] * hz.n_coords
                e[t] = 1
                cls = hz.make(tuple(e))
                assert delta2(preimage_of_class(X, cls)) == cls


def test_delta1_surjectivity_preimages(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    # synthesized integral forms with periods 0, +-1, +-2
    for period in (0, 1, -1, 2, -2):
        om = Cochain(s1, "Q", 1,
                     tuple(Fraction(period * z.get(i, 0), 3) for i in range(3)))
        assert is_integral_form(om)
        x = preimage_of_form(s1, om)
        assert delta1(x).values == om.values


def test_pullback_functorial(cx):
    s1 = cx("s1")
    sd = barycentric_subdivide(s1)
    lv = sd.last_vertex
    x = sample_classes(s1, 1, random.Random(2), count=2)[1]
    # identity pullback
    assert class_equal(
        pullback(SimplicialMap(s1, s1, range(s1.vertex_count)), x), x)
    # composition: pulling back through sd twice equals the composite
    sd2 = barycentric_subdivide(sd.complex)
    composite = SimplicialMap(sd2.complex, s1, [
        lv.vertex_map[w] for w in sd2.last_vertex.vertex_map])
    a = pullback(sd2.last_vertex, pullback(lv, x))
    b = pullback(composite, x)
    assert class_equal(a, b)


def test_pullback_to_point_kills_positive_degree(cx):
    s1 = cx("s1")
    pt = cx("point")
    const = SimplicialMap(s1, pt, [0, 0, 0])
    x = sample_classes(pt, 1, random.Random(0), count=2)[-1]
    y = pullback(const, x)
    assert y.degree == 1
    # positive-degree classes on the point are i1 images of H^0(Q/Z);
    # pulled back they stay flat
    assert delta1(y).is_zero()


def test_restriction_to_good_neighborhood_lifts(cx):
    """On a star neighborhood (cone), delta2 dies and the lift exists."""
    t2 = cx("t2")
    K = subcomplex_from_simplices(t2, [(0,)])
    star = closed_star_neighborhood(t2, K)
    sub, incl = star.as_complex()
    for x in sample_classes(t2, 2, random.Random(3), count=3):
        y = pullback(incl, x)
        th = lift_through_i2(y)  # H^2(star) = 0, never obstructed
        assert class_equal(i2(th), y)


def test_verify_diagram_full_corpus(corpus_complex):
    X = corpus_complex
    for k in range(1, X.dim + 2):
        results = verify_diagram(X, k, random.Random(0))
        bad = [(r.name, r.witness) for r in results if r.status != "pass"]
        assert not bad, (X.name, k, bad)


def test_verify_diagram_naturality(cx):
    rp2 = cx("rp2")
    maps = [barycentric_subdivide(rp2).last_vertex]
    K = subcomplex_from_simplices(rp2, [(0,)])
    _, incl = closed_star_neighborhood(rp2, K).as_complex()
    maps.append(incl)
    for k in (1, 2):
        results = verify_diagram(rp2, k, random.Random(0), maps=maps)
        names = {r.name for r in results}
        assert "naturality.transformations_commute" in names
        assert all(r.status == "pass" for r in results)


def test_warm_rerun_factors_nothing(monkeypatch):
    """Every Smith factorization is cached: one per boundary operator of a
    complex, and one per relation matrix of H_j with d_j != 0, which
    `homology` factors once per (complex, degree) and presents with
    `zlin.cokernel`; H_j with d_j = 0 reads the factorization of d_{j+1}.
    A second pass over the same suites factors nothing."""
    from charrig import cli, corpus, zlin
    from charrig.cochains import check_exactness
    from charrig.simplicial import load_complex
    t2 = load_complex(corpus.resolve("t2"))
    maps = cli._naturality_maps(t2)

    def suites():
        for k in (1, 2):
            check_exactness(t2, k, random.Random(0))
            verify_diagram(t2, k, random.Random(0), maps=maps)

    suites()
    calls = []
    real = zlin.smith_normal_form
    monkeypatch.setattr(zlin, "smith_normal_form",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    suites()
    assert calls == []


def test_only_boundary_and_presentation_factorizations(monkeypatch):
    """A cold pass of the exactness, diagram and equivalence suites factors
    only boundary operators and the relation matrices of homology, and
    presents groups only in `homology`: cocycles with given periods come
    from the cycle basis, not from a factored pairing, and H^j(Z) is read
    from the factorization of d_j."""
    from charrig import cli, corpus, zlin
    from charrig.characters import verify_equivalence
    from charrig.cochains import check_exactness
    from charrig.simplicial import load_complex
    callers = {}

    def traced(name):
        real = getattr(zlin, name)

        def call(*a, **kw):
            callers.setdefault(name, set()).add(sys._getframe(1).f_code.co_name)
            return real(*a, **kw)
        monkeypatch.setattr(zlin, name, call)

    traced("smith_normal_form")
    traced("cokernel")
    for name in ("t2", "rp2", "klein"):
        X = load_complex(corpus.resolve(name))
        maps = cli._naturality_maps(X)
        for k in (1, 2):
            check_exactness(X, k, random.Random(0))
            verify_diagram(X, k, random.Random(0), maps=maps)
            verify_equivalence(X, k, random.Random(0), maps=maps)
    assert callers == {"smith_normal_form": {"_snf_boundary", "homology"},
                       "cokernel": {"homology"}}, callers


def test_failed_rational_solve_is_a_finding_with_a_witness(cx, monkeypatch,
                                                           capsys):
    """When a rational delta-solve that must succeed returns None, the CLI
    reports a failed check carrying the degree and the cochain that did not
    solve, and exits 1 without a traceback; `equivalence_witness` raises
    the same finding as an InvariantError."""
    from charrig import cli, diffcocycle
    from charrig.report import InvariantError
    real = diffcocycle.solve_coboundary
    monkeypatch.setattr(
        diffcocycle, "solve_coboundary",
        lambda X, j, b, integral: real(X, j, b, integral) if integral else None)
    assert cli.main(["diagram", "s1", "--degree", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["diagram.diagram"]
    assert failed[0]["detail"].startswith("preimage of a form")
    assert failed[0]["witness"] == {
        "degree": 0, "cochain": {"degree": 1, "ring": "Q", "values": {}}}
    X = cx("t2")
    x = zero_class(X, 2)
    y = coboundary_shift(x, basis_cochain(X, "Z", 1, 0), zero_cochain(X, "Q", 0))
    with pytest.raises(InvariantError) as err:
        equivalence_witness(x, y)
    assert err.value.witness["degree"] == 0
    assert err.value.witness["cochain"]["degree"] == 1


def test_failed_integral_lift_is_a_finding_with_a_witness(monkeypatch, capsys):
    """Where a lift through i2 must exist, NotInImage is a failed invariant:
    with every integral delta-solve failing, the CLI reports the failed
    check diagram.diagram carrying the degree and c, exits 1 and writes
    nothing to stderr."""
    from charrig import cli, diffcocycle
    real = diffcocycle.solve_coboundary
    monkeypatch.setattr(
        diffcocycle, "solve_coboundary",
        lambda X, j, b, integral: None if integral else real(X, j, b, integral))
    assert cli.main(["diagram", "s1", "--degree", "1"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [c for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert [c["name"] for c in failed] == ["diagram.diagram"]
    assert failed[0]["detail"].startswith("delta2 obstruction")
    assert failed[0]["witness"] == {
        "degree": 0, "cochain": {"degree": 1, "ring": "Z", "values": {}}}


def test_suites_make_no_dense_cycle_or_cocycle_basis():
    """Cold exactness, diagram, equivalence and ring suites, naturality
    maps included, read cycles and cocycles straight from the sparse Smith
    transforms: no complex caches a dense cycle or cocycle basis. The sd1
    source of `last_vertex` factors no boundary at all: every comparison
    on it is decided on the base complex through Sd^*."""
    from charrig import cli, corpus
    from charrig.characters import verify_equivalence
    from charrig.cochains import check_exactness
    from charrig.product import verify_ring_axioms
    from charrig.simplicial import load_complex
    complexes, sd1 = [], []
    for name in ("t2", "rp2", "klein"):
        X = load_complex(corpus.resolve(name))
        maps = cli._naturality_maps(X)
        complexes += [X] + [phi.source for phi in maps]
        sd1.append(maps[0].source)
        for k in (1, 2):
            check_exactness(X, k, random.Random(0))
            verify_diagram(X, k, random.Random(0), maps=maps)
            verify_equivalence(X, k, random.Random(0), maps=maps)
        verify_ring_axioms(X, (1, 1), random.Random(0), maps=maps)
    dense = [(Y.name, key) for Y in complexes for key in Y._cache
             if key[0] in ("cycle_basis", "cocycle_basis")]
    assert not dense, dense
    factored = [(Y.name, key) for Y in sd1 for key in Y._cache
                if key[0] == "snf_boundary"]
    assert not factored, factored


# ---------------------------------------------------------------------------
# naturality along last_vertex, decided on the base complex through Sd^*

def _assert_on_base_decisions_agree(K, rng):
    """Along lambda: sd K -> K, each decision made on K through Sd^*
    (`class_equal_on_source`, `is_pullback_class`, `char_pullback_is`)
    gives the answer of the factoring one on sd K (`class_equal` there,
    `pullback_class`, equality of `char_pullback` results), on a true pair
    and on false pairs. The true pair is lambda^* x and a coboundary
    shift of it. A false pair adds i1(u) for a nonzero u, or i2 of a
    cochain that Sd^* kills but whose coboundary is nonzero, or, for the
    characteristic class, a nonzero integral class; a Q/Z cocycle moved by
    a nonzero class is no pullback of the class it came from."""
    from charrig.characters import char_pullback, char_pullback_is, phi_direct
    from charrig.diffcocycle import (
        class_equal_on_source, is_pullback_class, pullback_class,
        sample_qmodz_classes)
    sd = barycentric_subdivide(K)
    lam, S = sd.last_vertex, sd.complex
    for k in range(1, K.dim + 2):
        flat = [u for u in sample_qmodz_classes(S, k - 1, rng)
                if not u.is_zero()][:1]
        # half a (k-1)-cochain on a simplex that lies in no Sd_# sigma but
        # has a coface: Sd^* kills it and its coboundary, so only the
        # comparison of the forms on sd K tells the pair apart
        invisible = [basis_cochain(S, "Q", k - 1, i).scale(Fraction(1, 2))
                     for i in range(S.n_simplices(k - 1))
                     if sd.carrier[k - 1][i][0] != k - 1
                     and S.boundary_rows(k)[i]][:1]
        hz = cohomology(K, k, "Z")
        shifts = [hz.make(e) for e in _units(hz.n_coords)]
        for x in sample_classes(K, k, rng, count=3):
            y = pullback(lam, x)
            b = Cochain(S, "Z", k - 1, [rng.randrange(-2, 3)
                                        for _ in range(S.n_simplices(k - 1))])
            s = Cochain(S, "Q", k - 2, [Fraction(rng.randrange(-3, 4), 3)
                                        for _ in range(S.n_simplices(k - 2))])
            pairs = [(coboundary_shift(y, b, s), True)]
            pairs += [(y + i1(u), False) for u in flat]
            pairs += [(y + i2(QuotientForm(t)), False) for t in invisible]
            ch = phi_direct(x)
            for z, equal in pairs:
                assert class_equal(y, z) is equal
                assert class_equal_on_source(lam, y, z) is equal
                assert (char_pullback(lam, ch) == phi_direct(z)) is equal
                assert char_pullback_is(lam, ch, z) is equal
            d2 = delta2(x)
            assert delta2(y) == pullback_class(lam, d2)
            assert is_pullback_class(lam, d2, y.c)
            for other in (d2 + e for e in shifts):
                assert delta2(y) != pullback_class(lam, other)
                assert not is_pullback_class(lam, other, y.c)
        for u in sample_qmodz_classes(K, k - 1, rng):
            rep = u.cocycle().pullback(lam)
            assert is_pullback_class(lam, u, rep)
            for v in flat:
                wrong = rep + v.cocycle()
                assert (pullback_class(lam, u) == cohomology(
                    S, k - 1, "QmodZ").class_from_cocycle(wrong)) is False
                assert not is_pullback_class(lam, u, wrong)


@pytest.mark.parametrize("name", CORPUS)
def test_on_base_decisions_agree_with_factoring_on_sd1(name):
    from charrig import corpus
    from charrig.simplicial import load_complex
    _assert_on_base_decisions_agree(load_complex(corpus.resolve(name)),
                                    random.Random(0))


@settings(max_examples=25, deadline=None)
@given(st.one_of(random_complexes(), cones_and_suspensions()),
       st.integers(0, 2**32))
def test_on_base_decisions_agree_with_factoring_on_random_complexes(X, seed):
    _assert_on_base_decisions_agree(X, random.Random(seed))


def test_planted_pullback_defect_fails_every_naturality_check(monkeypatch):
    """A class pullback along last_vertex that adds half of a pulled-back
    free integral generator to h, a closed cochain that is not exact mod
    1, moves every pulled-back class by a nonzero flat class. The three
    naturality checks, which decide on the base complex, each fail and
    name the map in their witness; the star inclusion stays clean."""
    from charrig import characters, cli, corpus, diffcocycle, product
    from charrig.characters import verify_equivalence
    from charrig.product import verify_ring_axioms
    from charrig.simplicial import load_complex
    X = load_complex(corpus.resolve("t2"))
    maps = cli._naturality_maps(X)
    real = diffcocycle.pullback

    def planted(phi, x):
        y = real(phi, x)
        if phi is not maps[0]:
            return y
        gen = cohomology(X, x.degree - 1, "Z").gen_cochains[0]
        half = gen.pullback(phi).to_q().scale(Fraction(1, 2))
        return DiffClass(y.c, y.h + half, y.omega)

    for module in (diffcocycle, characters, product):
        monkeypatch.setattr(module, "pullback", planted)
    results = (verify_diagram(X, 2, random.Random(0), maps=maps)
               + verify_equivalence(X, 2, random.Random(0), maps=maps)
               + verify_ring_axioms(X, (1, 1), random.Random(0), maps=maps))
    by_name = {r.name: r for r in results}
    for name in ("naturality.transformations_commute", "phi.naturality",
                 "ring.naturality"):
        r = by_name[name]
        assert r.status == "fail", name
        problems = r.witness["problems"]
        assert problems and {p[-1] for p in problems} == {0}, (name, problems)


def test_cold_cli_runs_factor_no_boundary_of_the_subdivision():
    """`diagram`, `phi` and `ring`, run cold through their CLI handlers,
    never factor a boundary of sd K, the source of `last_vertex`."""
    import argparse
    from charrig import cli, corpus
    from charrig.simplicial import load_complex
    for name in ("t2", "moore_z3"):
        for handler, params in ((cli.cmd_diagram, {"degree": 2}),
                                (cli.cmd_phi, {"degree": 2}),
                                (cli.cmd_ring, {"degrees": (1, 1)})):
            X = load_complex(corpus.resolve(name))
            handler(X, argparse.Namespace(seed=0, max_subdiv=2, **params), 1)
            Y = barycentric_subdivide(X).complex
            factored = [key for key in Y._cache if key[0] == "snf_boundary"]
            assert not factored, (name, handler.__name__, factored)
