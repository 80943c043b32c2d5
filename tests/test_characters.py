"""The hom-on-cycles model and the equivalence of the two models."""
import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from charrig import characters, corpus, diffcocycle, zlin
from charrig.cochains import (
    Cochain, _mod1, basis_cochain, bockstein, coboundary, cohomology,
    cycle_coords, integral_form_generators, zero_cochain,
)
from charrig.characters import (
    Character, NotACycle, char_i1, char_i2, char_pullback,
    character_from_holonomies, delta2_via_lift, evaluate_via_normalization,
    is_character, phi_direct, phi_good, phi_inverse,
    sample_cycles, verify_equivalence, verify_phi_good,
)
from charrig.diffcocycle import (
    class_equal, delta2, i1, i2, preimage_of_form, pullback, sample_classes,
    verify_diagram, zero_class,
)
from charrig.simplicial import (
    barycentric_subdivide, complex_from_maximal, load_complex,
)
from conftest import cycle_basis
from test_cochains import random_complexes


@functools.lru_cache(maxsize=None)
def _complex(name):
    """A corpus complex, or "sd1(s2)" for the first subdivision of s2."""
    if name == "sd1(s2)":
        return barycentric_subdivide(corpus.load("s2")).complex
    return corpus.load(name)


def test_evaluate_linearity_and_errors(cx):
    s1 = cx("s1")
    ch = character_from_holonomies(s1, 2, {0: 1}, 3)
    z = cycle_basis(s1, 1)[0]
    assert ch.evaluate({}) == 0
    assert ch.evaluate(z) == Fraction(1, 3)
    assert ch.evaluate({i: 2 * c for i, c in z.items()}) == Fraction(2, 3)
    with pytest.raises(NotACycle):
        ch.evaluate({0: 1})


@pytest.mark.parametrize("name", list(corpus.CORPUS_NAMES) + ["sd1(s2)"])
@settings(max_examples=10, deadline=None)
@given(rnd=st.randoms(use_true_random=False))
def test_evaluate_through_the_lift_is_the_basis_formula(name, rnd):
    """f(z) = T(z) mod 1 agrees with f dotted with the cycle coordinates of
    z, on random cycle-basis combinations plus boundaries."""
    X = _complex(name)
    for k in range(1, X.dim + 2):
        K = cycle_basis(X, k - 1)
        ch = character_from_holonomies(
            X, k, {t: rnd.randrange(12) for t in range(len(K))}, 12)
        coeffs = [rnd.randrange(-3, 4) for _ in K]
        z = zlin.combine(coeffs, K)
        a = [rnd.randrange(-2, 3) for _ in range(X.n_simplices(k))]
        if a:
            a = {i: c for i, c in enumerate(a) if c}
            z = zlin.combine((1, 1), (z, X.boundary_of_chain(k, a)))
        expect = _mod1(Fraction(zlin.vec_dot(cycle_coords(X, k - 1, z),
                                             ch.f_num), ch.f_den))
        assert ch.evaluate(z) == expect, k


def test_is_character_examples(cx):
    s1 = cx("s1")
    zc = phi_direct(zero_class(s1, 1))
    assert is_character(zc)
    # a valid degree-1 pair on the triangle, built by the solver
    ch = character_from_holonomies(s1, 1, {0: 2, 2: 3}, 6)
    assert is_character(ch)
    # perturb the form off the compatibility identity
    bad = ch.omega + basis_cochain(s1, "Q", 1, 0).scale(Fraction(1, 2))
    assert not is_character(Character(s1, 1, ch.f_num, ch.f_den, bad))


def test_is_character_rejects_bad_data(cx):
    s1 = cx("s1")
    # a form of degree 1 on a degree-2 character
    ch = Character(s1, 2, {0: 1}, 3,
                   basis_cochain(s1, "Q", 1, 0).scale(Fraction(1, 2)))
    assert not is_character(ch)


def test_character_rejects_indices_outside_the_cycle_basis(cx):
    s1 = cx("s1")
    om = zero_cochain(s1, "Q", 2)
    assert Character(s1, 2, {0: 1}, 2, om).f_num == {0: 1}
    for t in (1, -1):       # s1 has one 1-cycle, index 0
        with pytest.raises(ValueError):
            Character(s1, 2, {t: 1}, 2, om)


def test_character_rejects_a_denominator_below_1(cx):
    """-2 would store f_num == {0: -1}, outside the normal form, and 0
    would divide by zero."""
    s1 = cx("s1")
    om = zero_cochain(s1, "Q", 2)
    for den in (-2, 0):
        with pytest.raises(ValueError):
            Character(s1, 2, {0: 1}, den, om)


def test_char_i1_holonomy_at_cycle_index_0(cx):
    s1 = cx("s1")
    u = cohomology(s1, 1, "QmodZ").make([Fraction(1, 2)])
    ch = char_i1(u)
    assert ch.f_num == {0: 1} and ch.f_den == 2


def test_delta2_via_lift_zero_character(cx):
    t2 = cx("t2")
    assert delta2_via_lift(phi_direct(zero_class(t2, 2))).is_zero()


def test_delta2_via_lift_detects_period_class(cx):
    s1 = cx("s1")
    z = cycle_basis(s1, 1)[0]
    om = Cochain(s1, "Q", 1,
                 tuple(Fraction(z.get(i, 0), 3) for i in range(3)))  # period 1
    ch = phi_direct(preimage_of_form(s1, om))
    cls = delta2_via_lift(ch)
    hz1 = cohomology(s1, 1, "Z")
    assert cls.group is hz1 and abs(cls.coords[0]) == 1


def test_flat_order_two_character_on_rp2(cx):
    rp2 = cx("rp2")
    hqz = cohomology(rp2, 1, "QmodZ")
    u = hqz.make([Fraction(1, 2)])
    ch = char_i1(u)
    assert ch.omega.is_zero()
    d2 = delta2_via_lift(ch)
    assert not d2.is_zero() and d2.group.torsion == (2,)
    assert delta2_via_lift(ch, "centered") == d2
    # consistency with the cocycle model and the Bockstein sign
    assert d2 == delta2(i1(u))
    assert d2 == -bockstein(u)


def test_phi_direct_unwinds_i2(cx):
    t2 = cx("t2")
    th_rep = basis_cochain(t2, "Q", 1, 5).scale(Fraction(1, 3))
    from charrig.cochains import QuotientForm
    th = QuotientForm(th_rep)
    ch = phi_direct(i2(th))
    K = cycle_basis(t2, 1)
    for t, z in enumerate(K):
        val = Fraction(ch.f_num.get(t, 0), ch.f_den)
        assert val == th_rep.pair(z) % 1
        assert (val - th_rep.pair(z)).denominator == 1
    assert ch.omega.values == coboundary(th_rep).values
    assert ch == char_i2(th)


def test_phi_inverse_holonomy_character(cx):
    s1 = cx("s1")
    ch = character_from_holonomies(s1, 2, {0: 1}, 3)
    x = phi_inverse(ch)
    assert x.c.values == ()  # no 2-simplices on the circle
    assert x.omega.values == ()
    z = cycle_basis(s1, 1)[0]
    assert x.h.pair(z) % 1 == Fraction(1, 3)
    assert phi_direct(x) == ch


def test_equivalence_suite(corpus_complex):
    X = corpus_complex
    for k in range(1, X.dim + 2):
        results = verify_equivalence(X, k, random.Random(0), n_round_trips=8)
        bad = [(r.name, r.witness) for r in results if r.status != "pass"
               and not (r.name == "phi.pseudomanifold_path"
                        and r.status == "skipped" and r.witness["skipped"]
                        and not r.witness["problems"])]
        assert not bad, (X.name, k, bad)


def test_phi_good_suites_small(cx):
    for name, k in [("s1", 1), ("s1", 2), ("s2", 2), ("rp2", 2), ("t2", 2)]:
        X = cx(name)
        results = verify_phi_good(X, k, random.Random(0), n_pairs=4)
        bad = [(r.name, r.witness) for r in results if r.status != "pass"]
        assert not bad, (name, k, bad)


def test_phi_good_agrees_on_torsion_cycle(cx):
    rp2 = cx("rp2")
    from charrig.cochains import homology
    tors = homology(rp2, 1).gen_cycles[0]
    for x in sample_classes(rp2, 2, random.Random(1), count=4):
        assert phi_good(x, tors) == phi_direct(x).evaluate(tors)


def test_phi_good_boundary_formula(cx):
    s2 = cx("s2")
    x = sample_classes(s2, 2, random.Random(2), count=3)[1]
    vec = {0: 1}
    bnd = s2.boundary_of_chain(2, vec)
    expected = (Fraction(x.omega.values[0]) -
                int(Fraction(x.omega.values[0]))) % 1
    got = phi_good(x, bnd)
    assert (got - x.omega.values[0]).denominator == 1


def test_pseudomanifold_path_agreement(cx):
    t2 = cx("t2")
    rng = random.Random(3)
    classes = sample_classes(t2, 2, rng, count=3)
    from charrig.cochains import homology
    gen = homology(t2, 1).gen_cycles[0]
    doubled = {i: 2 * c for i, c in gen.items()}
    for x in classes:
        assert evaluate_via_normalization(x, gen) == phi_direct(x).evaluate(gen)
        assert evaluate_via_normalization(x, doubled) == \
            phi_direct(x).evaluate(doubled)


def test_character_pullback_is_hom_model(cx):
    s1 = cx("s1")
    sd = barycentric_subdivide(s1)
    lv = sd.last_vertex
    ch = character_from_holonomies(s1, 2, {0: 1}, 4)
    pulled = char_pullback(lv, ch)
    z6 = cycle_basis(sd.complex, 1)[0]
    assert pulled.evaluate(z6) == ch.evaluate(lv.push_chain(1, z6))


def test_char_pullback_is_the_value_on_pushed_cycles(corpus_complex):
    """char_pullback, read as the periods of the pulled-back lift, equals
    f(phi_* a) on every cycle-basis vector a of the source, for every map
    the CLI checks naturality along."""
    from charrig.cli import _naturality_maps
    X = corpus_complex
    for phi in _naturality_maps(X):
        for k in range(1, X.dim + 2):
            for x in sample_classes(X, k, random.Random(k), count=3):
                ch = phi_direct(x)
                T = ch._lift
                f = dict(enumerate(
                    zlin.vec_dot(phi.push_chain(k - 1, z), T.num)
                    for z in cycle_basis(phi.source, k - 1)))
                expect = Character(phi.source, k, f, T.den,
                                   ch.omega.pullback(phi))
                assert char_pullback(phi, ch) == expect, (X.name, k)


def test_naturality_of_phi(cx):
    rp2 = cx("rp2")
    maps = [barycentric_subdivide(rp2).last_vertex]
    results = verify_equivalence(rp2, 2, random.Random(0),
                                 n_round_trips=6, maps=maps)
    names = {r.name: r.status for r in results}
    assert names.get("phi.naturality") == "pass"


def _wedge(X, Y):
    """X and Y glued at the last vertex of X and the first vertex of Y,
    for complexes whose vertices are 0, 1, ..., n - 1."""
    shift = X.n_simplices(0) - 1
    simplices = {s for level in X.simplices for s in level}
    simplices |= {tuple(v + shift for v in s) for level in Y.simplices
                  for s in level}
    return complex_from_maximal(f"{X.name}_v_{Y.name}", sorted(simplices),
                                shift + Y.n_simplices(0))


@settings(max_examples=60, deadline=None)
@given(random_complexes(), st.sampled_from([None, "rp2", "moore_z3"]),
       st.integers(0, 2**32))
def test_suites_pass_on_random_complexes_and_wedges(X, other, seed):
    """Every check of the diagram and equivalence suites passes in every
    degree 1..dim+1 on a random complex, or on its wedge with rp2 or
    moore_z3 to bring in torsion, with the CLI's naturality maps; on
    complexes of dimension at most 2 with at most 8 vertices, so do the
    checks of `verify_phi_good` within one subdivision. The one exception
    is `phi.pseudomanifold_path`, which is skipped, naming the pairs, when
    the surgery can split none of the sampled cycles it would compare."""
    from charrig.cli import _naturality_maps
    if other:
        X = _wedge(X, corpus.load(other))
    maps = _naturality_maps(X)
    for k in range(1, X.dim + 2):
        results = (verify_diagram(X, k, random.Random(seed), maps=maps)
                   + verify_equivalence(X, k, random.Random(seed), maps=maps))
        if X.dim <= 2 and X.n_simplices(0) <= 8:
            results += verify_phi_good(X, k, random.Random(seed), max_subdiv=1)
        bad = [(r.name, r.witness) for r in results if r.status != "pass"
               and not (r.name == "phi.pseudomanifold_path"
                        and r.status == "skipped" and r.witness["skipped"]
                        and not r.witness["problems"])]
        assert not bad, (X.name, k, bad)


def test_degree_2_suites_make_fewer_vec_dots_than_form_generators(monkeypatch):
    """Both suites solve for a preimage of every integral form generator,
    which has two or three nonzeros. Solves and periods read V by rows
    from those nonzeros, so a degree-2 pass of either suite on sd1(t2)
    makes fewer `zlin.vec_dot` calls than there are generators, where one
    per column of V for each generator made 14720 and 34010."""
    X = barycentric_subdivide(load_complex(corpus.resolve("t2"))).complex
    n_gens = sum(1 for _ in integral_form_generators(X, 2))
    assert n_gens == 127
    calls = []
    real = zlin.vec_dot
    monkeypatch.setattr(zlin, "vec_dot",
                        lambda u, v: calls.append(1) or real(u, v))
    for suite in (verify_diagram, verify_equivalence):
        calls.clear()
        results = suite(X, 2, random.Random(0))
        assert all(r.status == "pass" for r in results)
        assert len(calls) < n_gens, (suite.__name__, len(calls))


def test_delta1_surjectivity_builds_no_character_per_form(monkeypatch):
    """`phi.five_lemma_rows` reads delta1 surjectivity off the class that
    `preimage_of_form` returns: in a degree-2 equivalence pass on sd1(t2)
    none of those classes reaches `phi_direct`."""
    X = barycentric_subdivide(load_complex(corpus.resolve("t2"))).complex
    made = []
    real_pre, real_phi = preimage_of_form, phi_direct

    def spy_pre(cx, om):
        made.append(real_pre(cx, om))
        return made[-1]

    def spy_phi(x):
        assert not any(x is y for y in made), "phi_direct of a form preimage"
        return real_phi(x)

    monkeypatch.setattr(diffcocycle, "preimage_of_form", spy_pre)
    monkeypatch.setattr(characters, "preimage_of_form", spy_pre, raising=False)
    monkeypatch.setattr(characters, "phi_direct", spy_phi)
    results = verify_equivalence(X, 2, random.Random(0))
    assert all(r.status == "pass" for r in results)
    assert len(made) == sum(1 for _ in integral_form_generators(X, 2))


def test_five_lemma_rows_catches_a_preimage_with_the_wrong_form(monkeypatch):
    """With `preimage_of_form` planted to return the zero class for a
    nonzero form, the delta1 surjectivity row fails."""
    t2 = corpus.load("t2")
    real = preimage_of_form

    def planted(cx, om):
        return real(cx, om) if om.is_zero() else zero_class(cx, om.degree)

    monkeypatch.setattr(diffcocycle, "preimage_of_form", planted)
    monkeypatch.setattr(characters, "preimage_of_form", planted, raising=False)
    status = {r.name: r for r in verify_equivalence(t2, 2, random.Random(0))}
    row = status["phi.five_lemma_rows"]
    assert row.status == "fail"
    assert ("delta1 surjectivity on the hom model",) in row.witness["problems"]
