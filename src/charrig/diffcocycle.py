"""Differential cohomology classes, each held by its validated cocycle
(c, h, omega).

A degree-k differential cocycle is an integral k-cocycle c, a rational
(k-1)-cochain h and a rational k-cochain omega with delta h = omega - c;
omega is then closed with integral periods. `DiffClass` is that triple
and refuses any other. Two cocycles represent the same class when omega
agrees exactly and (c, h) differ by (delta b, -b + delta s) for an
integral b and rational s. The four structure maps i1, i2, delta1,
delta2 and pullback make the classes the engine's model of the
character functor. Equality is decided by curvature and periods, as in
the equivalence with characters (see `_decide_equivalence`).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .cochains import (
    RING_Q, RING_QMODZ, RING_Z,
    Cochain, CohomologyClass, QuotientForm,
    alpha, basis_cochain, beta, bockstein, coboundary,
    cochain_on_cycle_basis, cohomology, cycle_periods, d_of_quotient,
    is_integral_form, integral_form_generators, r_to_rational,
    s_class_of_form, solve_coboundary, zero_cochain,
    _coboundary_num, _cochain, _units,
)
from .report import CheckResult, InvariantError, check
from .simplicial import Complex, MismatchError, SimplicialMap


class NotInImage(InvariantError):
    """c is not an integral coboundary, so the class is not an i2 image.
    Expected where delta2 may be nonzero; elsewhere a failed invariant,
    witnessed by the degree of the solve and c."""


@dataclass(frozen=True, eq=False)
class DiffClass:
    """A differential cohomology class, held by its validated cocycle
    (c, h, omega). Unhashable, and == is identity: equality of classes
    is `class_equal`."""
    c: Cochain
    h: Cochain
    omega: Cochain

    __hash__ = None

    def __post_init__(self):
        c, h, omega = self.c, self.h, self.omega
        if not (c.cx is h.cx is omega.cx):
            raise MismatchError("components live on different complexes")
        if c.ring != RING_Z or h.ring != RING_Q or omega.ring != RING_Q:
            raise ValueError("expected rings (Z, Q, Q)")
        k = c.degree
        if h.degree != k - 1 or omega.degree != k:
            raise ValueError("component degrees must be (k, k-1, k)")
        # both identities as integer comparisons over the denominators:
        # delta c = 0, and delta h = omega - c, cross-multiplied
        if _coboundary_num(c):
            raise ValueError("c is not a cocycle")
        hd, od = h.den, omega.den
        dh, w, ci = _coboundary_num(h), omega.num, c.num
        if any(dh.get(i, 0) * od != (w.get(i, 0) - ci.get(i, 0) * od) * hd
               for i in {*dh, *w, *ci}):
            raise ValueError("delta h != omega - c")

    @property
    def cx(self) -> Complex:
        return self.c.cx

    @property
    def degree(self) -> int:
        return self.c.degree

    def __add__(self, other: "DiffClass") -> "DiffClass":
        return DiffClass(self.c + other.c, self.h + other.h,
                         self.omega + other.omega)

    def __sub__(self, other: "DiffClass") -> "DiffClass":
        return self + (-other)

    def __neg__(self) -> "DiffClass":
        return DiffClass(-self.c, -self.h, -self.omega)

    def scale(self, n: int) -> "DiffClass":
        return DiffClass(self.c.scale(n), self.h.scale(n), self.omega.scale(n))

    def __repr__(self):
        return f"DiffClass(deg {self.degree} on {self.cx.name})"


def zero_class(cx: Complex, k: int) -> DiffClass:
    return DiffClass(zero_cochain(cx, RING_Z, k),
                     zero_cochain(cx, RING_Q, k - 1),
                     zero_cochain(cx, RING_Q, k))


def coboundary_shift(x: DiffClass, b: Cochain, s: Cochain) -> DiffClass:
    """The representative changed by the coboundary of (b, s); same class."""
    return DiffClass(x.c + coboundary(b), x.h - b.to_q() + coboundary(s),
                     x.omega)


def _decide_equivalence(x: DiffClass, y: DiffClass, want_witness: bool):
    """Decide class equality; with want_witness also reconstruct (b, s).
    Returns None when the classes differ, True for a bare positive answer,
    or the witness pair.

    Equal exactly when omega agrees, c_x - c_y = delta b0 for an integral
    b0, and the cocycle v = h_x - h_y + b0 has integer periods t on the
    cycle basis. That suffices because H^{k-1}(Q/Z) = Hom(H_{k-1}, Q/Z)
    (Ext(-, Q/Z) = 0): the integral cocycle n with periods t leaves v - n
    without periods, hence exact over Q, and b = b0 - n is the witness."""
    if x.cx is not y.cx or x.degree != y.degree:
        raise MismatchError("classes live on different complexes or degrees")
    cx = x.cx
    k = x.degree
    if x.omega != y.omega:
        return None
    b0 = solve_coboundary(cx, k - 1, x.c - y.c, integral=True)
    if b0 is None:
        return None
    v = (x.h - y.h) + b0.to_q()
    periods = cycle_periods(v)
    if any(p % v.den for p in periods.values()):
        return None
    if not want_witness:
        return True
    n = cochain_on_cycle_basis(
        cx, k - 1, {t: p // v.den for t, p in periods.items()}, RING_Z)
    rest = v - n.to_q()
    s = solve_coboundary(cx, k - 2, rest, integral=False)
    if s is None:
        raise InvariantError(
            "witness reconstruction: a cochain without periods is not exact",
            {"degree": k - 2, "cochain": rest.serialize()})
    return b0 - n, s


def equivalence_witness(x: DiffClass, y: DiffClass):
    """(b, s) with c_x - c_y = delta b and h_x - h_y = -b + delta s,
    or None when the classes differ."""
    return _decide_equivalence(x, y, want_witness=True)


def class_equal(x: DiffClass, y: DiffClass) -> bool:
    """Decidable equality of differential cohomology classes."""
    return _decide_equivalence(x, y, want_witness=False) is not None


# ---------------------------------------------------------------------------
# comparisons on the source of a naturality map: along the last-vertex
# map of a subdivision sd K -> K they are decided on K through Sd^* (see
# `Subdivision`), never through a group of sd K

def class_equal_on_source(phi: SimplicialMap, x: DiffClass,
                          y: DiffClass) -> bool:
    """`class_equal(x, y)` for two classes on phi's source. Along a
    last-vertex map: omega_x = omega_y exactly on sd K, and Sd^* x =
    (Sd^* c, Sd^* h, Sd^* omega), a class since Sd^* is a cochain map,
    equals Sd^* y by `class_equal` on K. The difference x - y is then
    flat, a class of H^{k-1}(sd K; Q/Z), on which Sd^* is injective."""
    sd = phi.subdivision
    if sd is None:
        return class_equal(x, y)

    def down(z: DiffClass) -> DiffClass:
        return DiffClass(sd.pull_cochain(z.c), sd.pull_cochain(z.h),
                         sd.pull_cochain(z.omega))
    return x.omega == y.omega and class_equal(down(x), down(y))


def is_pullback_class(phi: SimplicialMap, u: CohomologyClass,
                      rep: Cochain) -> bool:
    """[rep] = phi^* u for a cocycle rep on phi's source and a class u on
    its target, in any ring. Along a last-vertex map: [Sd^* rep] = u on
    K, as Sd^* inverts lambda^* on cohomology."""
    if phi.subdivision is None:
        return cohomology(phi.source, rep.degree, rep.ring) \
            .class_from_cocycle(rep) == pullback_class(phi, u)
    return u.group.class_from_cocycle(phi.subdivision.pull_cochain(rep)) == u


# ---------------------------------------------------------------------------
# the four structure maps

def i1(u: CohomologyClass) -> DiffClass:
    """Inclusion of H^{k-1}(Q/Z): flat classes with zero curvature."""
    if u.group.ring != RING_QMODZ:
        raise ValueError("i1 expects a Q/Z cohomology class")
    rep = u.group.cochain_for(u.coords)
    return i1_of_cocycle(rep)


def i1_of_cocycle(rep: Cochain) -> DiffClass:
    h = rep.to_q()
    dh = coboundary(h)
    if dh.den != 1:
        raise ValueError("representative is not a cocycle mod 1")
    c = _cochain(rep.cx, RING_Z, dh.degree, (-dh).num)
    return DiffClass(c, h, zero_cochain(rep.cx, RING_Q, dh.degree))


def i2(theta: QuotientForm) -> DiffClass:
    """Inclusion of forms modulo integral forms."""
    h = theta.rep
    return DiffClass(zero_cochain(h.cx, RING_Z, h.degree + 1), h,
                     coboundary(h))


def delta1(x: DiffClass) -> Cochain:
    """The curvature component; an integral form, constant on classes."""
    return x.omega


def delta2(x: DiffClass) -> CohomologyClass:
    """The characteristic class [c] in H^k(Z); constant on classes."""
    return cohomology(x.cx, x.degree, RING_Z).class_from_cocycle(x.c)


def pullback(phi: SimplicialMap, x: DiffClass) -> DiffClass:
    """Componentwise cochain pullback along a simplicial map."""
    if x.cx is not phi.target:
        raise MismatchError("class does not live on the map's target")
    return DiffClass(x.c.pullback(phi), x.h.pullback(phi),
                     x.omega.pullback(phi))


def lift_through_i2(x: DiffClass) -> QuotientForm:
    """The unique quotient form with i2(theta) = x; needs delta2(x) = 0."""
    b = solve_coboundary(x.cx, x.degree - 1, x.c, integral=True)
    if b is None:
        raise NotInImage("delta2 obstruction: c is not an integral coboundary",
                         {"degree": x.degree - 1, "cochain": x.c.serialize()})
    return QuotientForm(x.h + b.to_q())


# ---------------------------------------------------------------------------
# constructive surjectivity

def preimage_of_class(cx: Complex, zclass: CohomologyClass) -> DiffClass:
    """A differential class with delta2 equal to the given integral class."""
    c = zclass.group.cochain_for(zclass.coords)
    return DiffClass(c, zero_cochain(cx, RING_Q, c.degree - 1), c.to_q())


def preimage_of_form(cx: Complex, omega: Cochain) -> DiffClass:
    """A differential class with delta1 equal to the given integral form:
    c is the integral cocycle with omega's periods on the cycle basis, so
    omega - c has no periods and is exact over Q."""
    if not is_integral_form(omega):
        raise ValueError("delta1 preimages exist only for integral forms")
    omega = omega.to_q()
    k = omega.degree
    periods = {t: p // omega.den
               for t, p in cycle_periods(omega).items()}
    c = cochain_on_cycle_basis(cx, k, periods, RING_Z)
    rest = omega - c.to_q()
    h = solve_coboundary(cx, k - 1, rest, integral=False)
    if h is None:
        raise InvariantError(
            "preimage of a form: omega - c has no periods but is not exact",
            {"degree": k - 1, "cochain": rest.serialize()})
    return DiffClass(c, h, omega)


# ---------------------------------------------------------------------------
# seeded samples and the diagram suite

def sample_classes(cx: Complex, k: int, rng, count: int = 6) -> list[DiffClass]:
    """A deterministic spanning-flavored family of degree-k classes:
    delta2 preimages of the integral generators, i1 and i2 images, and
    seeded combinations shifted by random coboundaries."""
    hz = cohomology(cx, k, RING_Z)
    hqz = cohomology(cx, k - 1, RING_QMODZ)
    out = [zero_class(cx, k)]
    for e in _units(hz.n_coords):
        out.append(preimage_of_class(cx, hz.make(e)))
    for i in range(hqz.n_coords):
        coords = [Fraction(0)] * hqz.n_coords
        if i < hqz.rank:
            coords[i] = Fraction(1, 2 + i)
        else:
            coords[i] = Fraction(1, hqz.torsion[i - hqz.rank])
        out.append(i1(hqz.make(coords)))
    n_prev = cx.n_simplices(k - 1) if k >= 1 else 0
    if n_prev:
        theta = basis_cochain(cx, RING_Q, k - 1, rng.randrange(n_prev)).scale(
            Fraction(1, rng.randrange(2, 5)))
        out.append(i2(QuotientForm(theta)))
    while len(out) < count + 1 and len(out) >= 2:
        x = out[rng.randrange(1, len(out))]
        y = out[rng.randrange(1, len(out))]
        z = x + y.scale(rng.randrange(-2, 3))
        if n_prev and rng.randrange(2):
            b_vals = tuple(rng.randrange(-2, 3) for _ in range(n_prev))
            z = coboundary_shift(z, Cochain(cx, RING_Z, k - 1, b_vals),
                                 zero_cochain(cx, RING_Q, k - 2))
        out.append(z)
    return out[:count + 1]


def sample_quotient_forms(cx: Complex, k: int, rng, count: int = 3):
    """Quotient forms in degree k-1: scaled basis cochains and a closed one."""
    n_prev = cx.n_simplices(k - 1) if k >= 1 else 0
    out = [QuotientForm(zero_cochain(cx, RING_Q, k - 1))]
    for _ in range(count):
        if not n_prev:
            break
        t = rng.randrange(n_prev)
        out.append(QuotientForm(basis_cochain(cx, RING_Q, k - 1, t).scale(
            Fraction(1, rng.randrange(2, 6)))))
    hq = cohomology(cx, k - 1, RING_Q)
    if hq.rank:
        out.append(QuotientForm(hq.cochain_for(
            [Fraction(1, 3)] + [Fraction(0)] * (hq.rank - 1))))
    return out


def sample_qmodz_classes(cx: Complex, j: int, rng):
    g = cohomology(cx, j, RING_QMODZ)
    out = [g.zero_class()]
    for i in range(g.rank):
        coords = [Fraction(0)] * g.n_coords
        coords[i] = Fraction(1, 2)
        out.append(g.make(coords))
        coords2 = list(coords)
        coords2[i] = Fraction(rng.randrange(1, 5), 5)
        out.append(g.make(coords2))
    for t, d in enumerate(g.torsion):
        coords = [Fraction(0)] * g.n_coords
        coords[g.rank + t] = Fraction(1, d)
        out.append(g.make(coords))
    return out


def verify_diagram(cx: Complex, k: int, rng, maps=None) -> list[CheckResult]:
    """Exact diagonal sequences and the four commuting faces at degree k,
    checked constructively on generators and seeded samples."""
    results = []
    hz = cohomology(cx, k, RING_Z)
    hqz_prev = cohomology(cx, k - 1, RING_QMODZ)
    hq_prev = cohomology(cx, k - 1, RING_Q)

    # diagonal 1: 0 -> forms/integral -> G^k -> H^k(Z) -> 0
    probs, wit = [], []
    thetas = sample_quotient_forms(cx, k, rng)
    for idx, th in enumerate(thetas):
        lifted = lift_through_i2(i2(th))
        if not (lifted == th):
            probs.append(("i2 image does not lift back to its argument", idx))
        if class_equal(i2(th), zero_class(cx, k)) != th.is_zero():
            probs.append(("i2 injectivity violated", idx))
    for x in sample_classes(cx, k, rng, count=4):
        if delta2(x).is_zero():
            th = lift_through_i2(x)
            if not class_equal(i2(th), x):
                probs.append(("kernel element outside the image of i2",))
            else:
                wit.append({"lift": "ok"})
        else:
            try:
                lift_through_i2(x)
                probs.append(("lift succeeded despite delta2 obstruction",))
            except NotInImage:
                wit.append({"obstructed": list(delta2(x).coords)})
    for e in _units(hz.n_coords):
        pre = preimage_of_class(cx, hz.make(e))
        if delta2(pre) != hz.make(e):
            probs.append(("delta2 surjectivity preimage failed", e))
    results.append(check("diagonal.i2_delta2_exact", not probs,
                         f"{len(thetas)} forms, {hz.n_coords} classes",
                         {"witnesses": wit[:4], "problems": probs}))

    # diagonal 2: 0 -> H^{k-1}(Q/Z) -> G^k -> integral forms -> 0
    probs, wit = [], []
    for u in sample_qmodz_classes(cx, k - 1, rng):
        x = i1(u)
        if not delta1(x).is_zero():
            probs.append(("delta1 of an i1 image is nonzero",))
        if class_equal(x, zero_class(cx, k)) != u.is_zero():
            probs.append(("i1 injectivity violated", list(map(str, u.coords))))
    for x in sample_classes(cx, k, rng, count=4):
        if delta1(x).is_zero():
            u = hqz_prev.class_from_cocycle(x.h.mod1())
            if not class_equal(i1(u), x):
                probs.append(("flat class outside the image of i1",))
            else:
                wit.append({"flat_preimage": "ok"})
    forms = integral_form_generators(cx, k)
    n_prev = cx.n_simplices(k - 1) if k >= 1 else 0
    if n_prev:
        forms = chain(forms, [coboundary(basis_cochain(cx, RING_Q, k - 1, 0)
                                         .scale(Fraction(1, 2)))])
    n_forms = 0
    for n_forms, om in enumerate(forms, 1):
        pre = preimage_of_form(cx, om)
        if delta1(pre) != om.to_q():
            probs.append(("delta1 surjectivity preimage failed", n_forms - 1))
    results.append(check("diagonal.i1_delta1_exact", not probs,
                         f"{n_forms} integral forms",
                         {"witnesses": wit[:4], "problems": probs}))

    # face: i1 . alpha = i2 . beta on H^{k-1}(Q)
    probs = []
    rats = [hq_prev.zero_class()]
    for i in range(hq_prev.rank):
        coords = [Fraction(0)] * hq_prev.rank
        coords[i] = Fraction(rng.randrange(1, 6), rng.randrange(2, 6))
        rats.append(hq_prev.make(coords))
    for idx, xq in enumerate(rats):
        if not class_equal(i1(alpha(xq)), i2(beta(xq))):
            probs.append(("i1(alpha(x)) != i2(beta(x))", idx))
    results.append(check("face.i1_alpha_eq_i2_beta", not probs,
                         f"{len(rats)} rational classes", {"problems": probs}))

    # face: delta1 . i2 = d on quotient forms
    probs = []
    for idx, th in enumerate(thetas):
        if delta1(i2(th)) != d_of_quotient(th):
            probs.append(("delta1(i2(theta)) != d theta", idx))
    results.append(check("face.delta1_i2_eq_d", not probs,
                         f"{len(thetas)} forms", {"problems": probs}))

    # face: r . delta2 = s . delta1 on sampled classes
    probs = []
    for idx, x in enumerate(sample_classes(cx, k, rng, count=5)):
        if r_to_rational(delta2(x)) != s_class_of_form(delta1(x)):
            probs.append(("r(delta2) != s(delta1)", idx))
    results.append(check("face.r_delta2_eq_s_delta1", not probs,
                         "sampled classes", {"problems": probs}))

    # face: delta2 . i1 = -B on H^{k-1}(Q/Z)
    probs = []
    for idx, u in enumerate(sample_qmodz_classes(cx, k - 1, rng)):
        if delta2(i1(u)) != -bockstein(u):
            probs.append(("delta2(i1(u)) != -B(u)", idx))
    results.append(check("face.delta2_i1_eq_minus_bockstein", not probs,
                         "includes torsion duals", {"problems": probs}))

    # naturality of the four transformations under the supplied maps. i1
    # of phi^* u is i1 of the pulled-back representative, so no side needs
    # a group of phi's source. Along last_vertex: sd cx -> cx the i1, i2
    # and delta2 comparisons are decided on cx through Sd^*, exactly,
    # because Sd^* inverts lambda^* on cohomology and the forms are
    # compared on sd cx (`class_equal_on_source`, `is_pullback_class`)
    if maps:
        probs = []
        for mi, phi in enumerate(maps):
            if phi.target is not cx:
                continue
            for u in sample_qmodz_classes(cx, k - 1, rng):
                lhs = pullback(phi, i1(u))
                rhs = i1_of_cocycle(u.cocycle().pullback(phi))
                if not class_equal_on_source(phi, lhs, rhs):
                    probs.append(("i1 naturality", mi))
            for th in sample_quotient_forms(cx, k, rng, count=2):
                lhs = pullback(phi, i2(th))
                rhs = i2(QuotientForm(th.rep.pullback(phi)))
                if not class_equal_on_source(phi, lhs, rhs):
                    probs.append(("i2 naturality", mi))
            for x in sample_classes(cx, k, rng, count=3):
                y = pullback(phi, x)
                if delta1(y) != delta1(x).pullback(phi):
                    probs.append(("delta1 naturality", mi))
                if not is_pullback_class(phi, delta2(x), y.c):
                    probs.append(("delta2 naturality", mi))
        results.append(check("naturality.transformations_commute", not probs,
                             f"{len(maps)} maps", {"problems": probs}))
    return results


def pullback_class(phi: SimplicialMap, u: CohomologyClass) -> CohomologyClass:
    """phi^* on cohomology in any ring, through a representative cocycle."""
    rep = u.group.cochain_for(u.coords).pullback(phi)
    return cohomology(phi.source, rep.degree, rep.ring).class_from_cocycle(rep)
