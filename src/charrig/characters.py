"""The hom-on-cycles model of differential characters and the equivalence
with the differential-cocycle model, computed three independent ways.

A degree-k character is a Q/Z-valued function on the (k-1)-cycles together
with a compatible integral form: f(boundary a) = omega(a) mod 1 for every
k-chain a. The equivalence takes a cocycle class to the character read off
its h component (phi_direct), and back by extending f over all chains with
a divisibility lift (phi_inverse). An independent evaluation (phi_good)
restricts the class to a good neighborhood of the cycle, where it must be
an i2 image, and integrates the resulting form. A third
(evaluate_via_normalization) splits the cycle by surgery into a boundary
and a pseudomanifold cycle and adds the form's value on the first to the
character's value on the second.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .cochains import (
    RING_Q, RING_QMODZ, RING_Z,
    Cochain, CohomologyClass, NotACycle, QuotientForm,
    basis_cochain, coboundary, cochain_on_cycle_basis, cohomology,
    cycle_periods, homology, integral_form_generators, is_integral_form,
    n_cycles, zero_cochain,
    _cochain, _mod1, _normal_form,
)
from .diffcocycle import (
    DiffClass, class_equal, coboundary_shift, delta1, delta2,
    i1 as dc_i1, i2 as dc_i2, lift_through_i2, preimage_of_form, pullback,
    sample_classes, sample_qmodz_classes, sample_quotient_forms,
)
from .geometry import (
    GeometryBudgetExceeded, GoodNeighborhood, good_neighborhood,
    good_neighborhood_of_cycle, normalize_cycle, push_down_chain,
    transport_chain,
)
from .report import SKIPPED, CheckResult, check
from .simplicial import (
    Complex, MismatchError, SimplicialMap, chain_support,
    closed_star_neighborhood,
)


@dataclass(frozen=True)
class Character:
    """Q/Z values f_num.get(t, 0) / f_den on the cycle basis of Z_{k-1},
    plus a compatible form omega. `f_num` is a sparse dict from cycle
    index to int, stored in the normal form of a Q/Z cochain (no zero,
    0 < f_num[t] < f_den, no common factor); an index outside
    range(n_cycles) or an f_den below 1 is a ValueError. Two characters
    are equal when they live on the same complex object with equal
    fields; they are not hashable."""

    __hash__ = None

    cx: Complex
    degree: int
    f_num: dict
    f_den: int
    omega: Cochain        # rational degree-k cochain, in the integral forms

    def __post_init__(self):
        if self.f_den < 1:
            raise ValueError(f"character denominator {self.f_den} is below 1")
        n = n_cycles(self.cx, self.degree - 1)
        for t in self.f_num:
            if not 0 <= t < n:
                raise ValueError(
                    f"degree-{self.degree} character has {n} cycle-basis "
                    f"values, got index {t}")
        num, den = _normal_form(RING_QMODZ, self.f_num, self.f_den)
        object.__setattr__(self, "f_num", num)
        object.__setattr__(self, "f_den", den)

    @cached_property
    def _lift(self) -> Cochain:
        """The floor lift T reduced mod 1, a Q/Z cochain."""
        return lift_T(self).mod1()

    def evaluate(self, z: dict) -> Fraction:
        """Value on a sparse integer (k-1)-cycle: the floor lift T takes f's
        values on the cycle basis and vanishes on the rest of the
        Smith-adapted basis, so f(z) = T(z) mod 1."""
        if not self.cx.is_cycle(self.degree - 1, z):
            raise NotACycle("chain has nonzero boundary")
        return self._lift.pair(z)


def is_character(ch: Character) -> bool:
    """Compatibility f(boundary e) = omega(e) mod 1 on every basis k-chain,
    with omega closed of integral periods. As f(boundary e) = T(boundary e)
    mod 1 for the lift T, that is delta T = omega mod 1."""
    omega = ch.omega
    if omega.degree != ch.degree or omega.ring not in (RING_Z, RING_Q):
        return False
    if not is_integral_form(omega):
        return False
    return (coboundary(lift_T(ch)) - omega.to_q()).mod1().is_zero()


# ---------------------------------------------------------------------------
# the divisibility lift T and the characteristic class

def lift_T(ch: Character, strategy: str = "floor") -> Cochain:
    """A rational (k-1)-cochain whose values on cycles agree with f mod 1.

    Built on the Smith-adapted basis of the chain group: zero on the
    complement of the cycles, a lift of f on the cycle basis.
    """
    den = ch.f_den
    if strategy == "floor":
        lifts = ch.f_num
    elif strategy == "centered":
        lifts = {t: v if 2 * v <= den else v - den
                 for t, v in ch.f_num.items()}
    else:
        raise ValueError(f"unknown lift strategy {strategy!r}")
    return cochain_on_cycle_basis(ch.cx, ch.degree - 1, lifts, RING_Q, den)


def _lift_and_cocycle(ch: Character, strategy: str):
    """The lift T and the integral cocycle c = omega - delta T; c is
    integer-valued for a character (a RingError otherwise)."""
    T = lift_T(ch, strategy)
    diff = ch.omega - coboundary(T)
    return T, _cochain(ch.cx, RING_Z, ch.degree, diff.num, diff.den)


def delta2_via_lift(ch: Character, strategy: str = "floor") -> CohomologyClass:
    """Characteristic class [omega - delta T] in H^k(Z)."""
    _, c = _lift_and_cocycle(ch, strategy)
    return cohomology(ch.cx, ch.degree, RING_Z).class_from_cocycle(c)


# ---------------------------------------------------------------------------
# the equivalence, three ways

def phi_direct(x: DiffClass) -> Character:
    """Character read off the h component on the cycle basis."""
    h = x.h
    f = cycle_periods(h)
    return Character(x.cx, x.degree, f, h.den, x.omega)


def phi_inverse(ch: Character) -> DiffClass:
    """Differential class with phi_direct equal to the given character."""
    T, c = _lift_and_cocycle(ch, "floor")
    return DiffClass(c, T, ch.omega)


def phi_good(x: DiffClass, z: dict, max_subdiv: int = 2) -> Fraction:
    """Evaluate the class on a cycle through a good neighborhood of its
    support: restrict, lift through i2, integrate the quotient form."""
    cx = x.cx
    k = x.degree
    if not cx.is_cycle(k - 1, z):
        raise NotACycle("chain has nonzero boundary")
    if not z:
        return Fraction(0)
    nb = good_neighborhood_of_cycle(cx, k - 1, z, k - 1, max_subdiv)
    return _value_on_neighborhood(x, nb, z)


def _value_on_neighborhood(x: DiffClass, nb: GoodNeighborhood,
                           z: dict) -> Fraction:
    """Restrict a class to a good neighborhood, lift it through i2 there
    (possible because H^k vanishes) and integrate over the carried cycle."""
    y = x
    for sd in nb.tower:
        y = pullback(sd.last_vertex, y)
    theta = lift_through_i2(pullback(nb.inclusion, y))
    j = x.degree - 1
    z_local = nb.chain_to_neighborhood(j, transport_chain(nb.tower, j, z))
    return theta.rep.mod1().pair(z_local)


def evaluate_via_normalization(x: DiffClass, z: dict) -> Fraction:
    """Evaluate on a cycle through its pseudomanifold normalization:
    z = boundary(b) + P gives the value omega(b) + f(P). The witness b
    lives in the subdivided complex; omega is paired with its push-down
    lambda_# b, since (lambda^* omega)(b) = omega(lambda_# b)."""
    cx = x.cx
    k = x.degree
    sr, pm = normalize_cycle(cx, k - 1, z)
    part_form = delta1(x).pair(push_down_chain(sr.tower, k, sr.witness))
    zP = pm.ambient_cycle()
    zP_base = push_down_chain(sr.tower, k - 1, zP)
    part_char = phi_direct(x).evaluate(zP_base)
    return _mod1(part_form + part_char)


# ---------------------------------------------------------------------------
# hom-model transformations (the character side of the diagram)

def char_i1(u: CohomologyClass) -> Character:
    """H^{k-1}(Q/Z) included as the flat characters."""
    rep = u.group.cochain_for(u.coords)
    cx = rep.cx
    f = cycle_periods(rep)
    return Character(cx, rep.degree + 1, f, rep.den,
                     zero_cochain(cx, RING_Q, rep.degree + 1))


def char_i2(theta: QuotientForm) -> Character:
    """Forms modulo integral forms included by integration mod 1."""
    rep = theta.rep
    f = cycle_periods(rep)
    return Character(rep.cx, rep.degree + 1, f, rep.den, coboundary(rep))


def char_pullback(phi: SimplicialMap, ch: Character) -> Character:
    """The hom-model pullback: f'(a) = f(phi_* a) = (phi^* T)(a) for the
    lift T of f."""
    if ch.cx is not phi.target:
        raise MismatchError("character does not live on the map's target")
    T = ch._lift.pullback(phi)
    f = cycle_periods(T)
    return Character(phi.source, ch.degree, f, T.den, ch.omega.pullback(phi))


def char_pullback_is(phi: SimplicialMap, ch: Character, y: DiffClass) -> bool:
    """char_pullback(phi, ch) == phi_direct(y) for a class y on phi's
    source. Along a last-vertex map sd K -> K no character is built on
    sd K: the forms must agree on sd K, and then D = phi^* T - h_y, for
    the lift T of ch, is a Q/Z cocycle on sd K (delta of each side is
    the common form mod 1). The two characters agree iff D vanishes on
    every cycle of sd K, iff its class is zero, iff Sd^* D vanishes on
    K's cycle basis, since Sd^* is an isomorphism on H(Q/Z)."""
    sd = phi.subdivision
    if sd is None:
        return char_pullback(phi, ch) == phi_direct(y)
    if ch.omega.pullback(phi) != y.omega:
        return False
    D = sd.pull_cochain(ch._lift.pullback(phi)) - sd.pull_cochain(y.h.mod1())
    return not any(p % D.den for p in cycle_periods(D).values())


# ---------------------------------------------------------------------------
# verification suites

def verify_equivalence(cx: Complex, k: int, rng, n_round_trips: int = 20,
                       maps=None) -> list[CheckResult]:
    """The equivalence suite: both models carry the same structure and the
    translation is a bijection computed constructively."""
    results = []
    classes = sample_classes(cx, k, rng, count=6)

    # phi_direct lands in characters and is constant on classes
    probs = []
    for idx, x in enumerate(classes):
        ch = phi_direct(x)
        if not is_character(ch):
            probs.append(("phi_direct output fails the character condition", idx))
        n_prev = cx.n_simplices(k - 1) if k >= 1 else 0
        if n_prev:
            b = basis_cochain(cx, RING_Z, k - 1, rng.randrange(n_prev))
            y = coboundary_shift(x, b, zero_cochain(cx, RING_Q, k - 2))
            if phi_direct(y) != ch:
                probs.append(("phi_direct is not class-invariant", idx))
    results.append(check("phi.well_defined", not probs,
                         f"{len(classes)} classes", {"problems": probs}))

    # compatibility with i1, i2 and delta1 (property 1.11 shape)
    probs = []
    for u in sample_qmodz_classes(cx, k - 1, rng):
        if phi_direct(dc_i1(u)) != char_i1(u):
            probs.append(("phi . i1 != i1 on the hom model", list(map(str, u.coords))))
    for th in sample_quotient_forms(cx, k, rng):
        if phi_direct(dc_i2(th)) != char_i2(th):
            probs.append(("phi . i2 != i2 on the hom model",))
    for x in classes:
        if phi_direct(x).omega != delta1(x):
            probs.append(("delta1 not preserved",))
    results.append(check("phi.structure_compatibility", not probs, "",
                         {"problems": probs}))

    # delta2 through the lift: strategy independence and model agreement
    probs = []
    for idx, x in enumerate(classes):
        ch = phi_direct(x)
        d2a = delta2_via_lift(ch, "floor")
        d2b = delta2_via_lift(ch, "centered")
        if d2a != d2b:
            probs.append(("lift strategies disagree", idx))
        if d2a != delta2(x):
            probs.append(("delta2 . phi != delta2", idx))
    results.append(check("phi.delta2_via_lift", not probs,
                         "two lift strategies", {"problems": probs}))

    # bijectivity by explicit round trips
    probs = []
    trips = 0
    rounds = list(classes)
    while len(rounds) < n_round_trips:
        # past the zero class; none at all when zero is the only class
        more = sample_classes(cx, k, rng, count=4)[1:]
        if not more:
            break
        rounds.extend(more)
    for idx, x in enumerate(rounds[:n_round_trips]):
        ch = phi_direct(x)
        back = phi_inverse(ch)
        if phi_direct(back) != ch:
            probs.append(("phi(phi_inverse(ch)) != ch", idx))
        if not class_equal(back, x):
            probs.append(("phi_inverse(phi(x)) differs from x", idx))
        trips += 1
    # synthesized characters round-trip too
    for trial in range(3):
        f = {t: rng.randrange(0, 6) for t in range(n_cycles(cx, k - 1))}
        ch = character_from_holonomies(cx, k, f, 6)
        x = phi_inverse(ch)
        if phi_direct(x) != ch:
            probs.append(("synthesized character fails the round trip", trial))
        trips += 1
    results.append(check("phi.bijective_round_trips", not probs,
                         f"{trips} round trips", {"problems": probs}))

    # the two short exact rows of the five-lemma ladder, hom-model side
    probs = []
    for u in sample_qmodz_classes(cx, k - 1, rng):
        ch = char_i1(u)
        if bool(ch.f_num) == u.is_zero():
            probs.append(("hom-model i1 injectivity",))
    for x in classes:
        ch = phi_direct(x)
        if ch.omega.is_zero():
            u = cohomology(cx, k - 1, RING_QMODZ).class_from_cocycle(ch._lift)
            if char_i1(u) != ch:
                probs.append(("flat character outside im(i1)",))
    # delta1 surjectivity: phi_direct keeps the form of its class, so the
    # preimage class of each generator carries it
    for om in integral_form_generators(cx, k):
        if preimage_of_form(cx, om).omega != om.to_q():
            probs.append(("delta1 surjectivity on the hom model",))
    results.append(check("phi.five_lemma_rows", not probs, "",
                         {"problems": probs}))

    # naturality (property 1.10 shape): char_pullback(phi, phi(x)) =
    # phi(pullback(phi, x)). Along last_vertex: sd cx -> cx no character
    # is built on sd cx: the forms are compared there and the holonomies
    # on cx's cycle basis through Sd^*, exact because Sd_# is an
    # isomorphism on homology (`char_pullback_is`)
    if maps:
        probs = []
        for mi, phi in enumerate(maps):
            if phi.target is not cx:
                continue
            for x in classes[:4]:
                if not char_pullback_is(phi, phi_direct(x), pullback(phi, x)):
                    probs.append(("phi does not commute with pullback", mi))
        results.append(check("phi.naturality", not probs,
                             f"{len(maps)} maps", {"problems": probs}))
    return results


def character_from_holonomies(cx: Complex, k: int, f_num: dict,
                              f_den: int) -> Character:
    """The character with the values f_num.get(t, 0) / f_den on the cycle
    basis and the exact form of its canonical lift (any holonomy data is
    realizable)."""
    ch0 = Character(cx, k, f_num, f_den, zero_cochain(cx, RING_Q, k))
    return Character(cx, k, ch0.f_num, ch0.f_den, coboundary(lift_T(ch0)))


def verify_phi_good(cx: Complex, k: int, rng, n_pairs: int = 6,
                    max_subdiv: int = 2) -> list[CheckResult]:
    """Agreement of the neighborhood evaluation with the direct one, its
    independence from the choice of neighborhood, the boundary formula,
    and the pseudomanifold-path evaluation."""
    results = []
    classes = sample_classes(cx, k, rng, count=4)
    cycles = sample_cycles(cx, k - 1, rng)
    pairs = []
    for x in classes:
        for z in cycles:
            pairs.append((x, z))
    rng.shuffle(pairs)
    pairs = pairs[:n_pairs]

    probs = []
    for idx, (x, z) in enumerate(pairs):
        direct = phi_direct(x).evaluate(z)
        via_nb = phi_good(x, z, max_subdiv)
        if direct != via_nb:
            probs.append(("phi_good disagrees with phi_direct", idx))
    results.append(check("phi.good_neighborhood_agreement", not probs,
                         f"{len(pairs)} (class, cycle) pairs", {"problems": probs}))

    # independence of the neighborhood: compare against a second, different
    # good neighborhood (finer subdivision level, or a fattened star)
    probs = []
    compared = 0
    for idx, (x, z) in enumerate(pairs[:3]):
        if not z:
            continue
        v1 = phi_good(x, z, max_subdiv)
        v2 = _phi_good_alternative(x, z, max_subdiv)
        if v2 is None:
            continue
        compared += 1
        if v1 != v2:
            probs.append(("value depends on the neighborhood", idx))
    results.append(check("phi.neighborhood_independence", not probs,
                         f"{compared} alternative neighborhoods",
                         {"problems": probs}))

    # boundaries: phi(x)(boundary e) = omega(e) mod 1
    probs = []
    n_k = cx.n_simplices(k)
    x = classes[min(1, len(classes) - 1)]
    for e in range(min(n_k, 3)):
        vec = {e: 1}
        bnd = cx.boundary_of_chain(k, vec)
        if phi_direct(x).evaluate(bnd) != delta1(x).mod1().pair(vec):
            probs.append(("boundary evaluation misses the form", e))
    results.append(check("phi.boundary_formula", not probs,
                         f"{min(n_k, 3)} basis chains", {"problems": probs}))

    # the pseudomanifold path (cycle surgery consistency); a pair whose
    # cycle the surgery cannot split within budget is skipped, as
    # `_phi_good_alternative` skips a neighborhood, and when every pair
    # was skipped the check compared nothing and is itself skipped
    probs, skipped, compared = [], [], 0
    for idx, (x, z) in enumerate(pairs[:4]):
        if k - 1 >= cx.dim or not z:
            continue
        direct = phi_direct(x).evaluate(z)
        try:
            via_pm = evaluate_via_normalization(x, z)
        except GeometryBudgetExceeded:
            skipped.append(idx)
            continue
        compared += 1
        if direct != via_pm:
            probs.append(("pseudomanifold-path value disagrees", idx))
    path = check("phi.pseudomanifold_path", not probs,
                 "normalization evaluation",
                 {"problems": probs,
                  **({"skipped": skipped} if skipped else {})})
    if skipped and not compared:
        path.status = SKIPPED
    results.append(path)
    return results


def _phi_good_alternative(x: DiffClass, z: dict, max_subdiv: int):
    """The phi_good value through a second good neighborhood: first try a
    strictly finer one (deeper subdivision), else a fattened star; None
    when no alternative fits the subdivision budget."""
    cx = x.cx
    k = x.degree
    support = chain_support(cx, k - 1, z)
    base_nb = good_neighborhood(cx, support, k - 1, max_subdiv)
    candidates = []
    if base_nb.level < max_subdiv:
        candidates.append(lambda: good_neighborhood(
            cx, support, k - 1, max_subdiv, min_level=base_nb.level + 1))
    fat = closed_star_neighborhood(cx, support)
    candidates.append(lambda: good_neighborhood(cx, fat, k - 1, max_subdiv))
    for cand in candidates:
        try:
            nb = cand()
        except GeometryBudgetExceeded:
            continue
        if nb.level == base_nb.level and nb.subcomplex.included == \
                base_nb.subcomplex.included:
            continue
        return _value_on_neighborhood(x, nb, z)
    return None


def sample_cycles(cx: Complex, d: int, rng):
    """Deterministic sparse cycle samples: homology generators (shared
    with `homology`, read-only), a boundary, a doubled generator, and the
    zero cycle."""
    hom = homology(cx, d)
    out = list(hom.gen_cycles)
    if cx.n_simplices(d + 1):
        e = rng.randrange(cx.n_simplices(d + 1))
        out.append(cx.boundary_of_chain(d + 1, {e: 1}))
    if hom.gen_cycles:
        out.append({i: 2 * c for i, c in hom.gen_cycles[0].items()})
    out.append({})
    return out
