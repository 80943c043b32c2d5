"""The star product on differential cocycle classes and its axiom suite.

The representative formula is
    (c1, h1, w1) * (c2, h2, w2) = (c1 u c2, (-1)^k c1 u h2 + h1 u w2, w1 u w2)
whose differential-cocycle closure is an algebraic identity. Because the
simplicial cup product is not graded-commutative at cochain level, the
curvatures w1 u w2 and (-1)^{kl} w2 u w1 differ by an exact (but nonzero)
cochain, so graded commutativity (1.17) fails at class level in this
model. The suite records the witness and checks that the defect is exact.
No cochain-level correction can restore 1.17 here: class equality needs
omega to match exactly, and 1.18 fixes delta1(x * y) = delta1 x u delta1 y.
A real fix needs graded-commutative forms, which this model does not have.
"""
from __future__ import annotations

from .cochains import (
    QuotientForm, cup, cup_class_qmodz, cup_integral_classes, solve_coboundary,
)
from .diffcocycle import (
    DiffClass, class_equal, class_equal_on_source, delta1, delta2, i1, i2,
    pullback, sample_classes, sample_qmodz_classes, sample_quotient_forms,
    zero_class,
)
from .report import CheckResult, check
from .simplicial import Complex, MismatchError


def star(x: DiffClass, y: DiffClass) -> DiffClass:
    """Product of differential cohomology classes (representative formula
    above); the output satisfies the cocycle invariants exactly."""
    if x.cx is not y.cx:
        raise MismatchError("factors live on different complexes")
    k = x.degree
    c = cup(x.c, y.c)
    h = cup(x.c, y.h).scale((-1) ** k) + cup(x.h, y.omega)
    return DiffClass(c, h, cup(x.omega, y.omega))


def _flip_star(x: DiffClass, y: DiffClass) -> DiffClass:
    """The transposed-formula variant (-1)^{kl} (y * x)."""
    k, l = x.degree, y.degree
    return star(y, x).scale((-1) ** (k * l))


def verify_ring_axioms(cx: Complex, degrees, rng, maps=None) -> list[CheckResult]:
    """Run the ring axiom grid for one pair of degrees.

    Every check is exact. Graded commutativity (and the uniqueness
    mechanism against the flipped product, which presumes it) is reported
    with witnesses when it fails; the defect diagnosis check then confirms
    the failure is exactly the non-commutativity of the cup product on
    curvatures.
    """
    k, l = degrees
    xs = sample_classes(cx, k, rng, count=4)
    ys = sample_classes(cx, l, rng, count=4) if l != k else xs
    results = []

    # 1.16: closure and degree additivity (construction validates the
    # cocycle identities; any violation raises). Each product and its flip
    # is built once here; the later checks read them and skip a pair whose
    # product failed to close
    probs = []
    pairs = [(x, y) for x in xs for y in ys]
    built = {}  # pair index -> (x, y, x * y, its flip)
    for idx, (x, y) in enumerate(pairs):
        try:
            built[idx] = (x, y, star(x, y), _flip_star(x, y))
        except Exception as e:
            probs.append(("product failed to close", idx, repr(e)))
            continue
        if built[idx][2].degree != k + l:
            probs.append(("degree is not additive", idx))
    head = {idx: b for idx, b in built.items() if idx < 4}
    results.append(check("ring.closure_1_16", not probs,
                         f"{len(pairs)} products in degree {k + l}",
                         {"problems": probs}))

    # biadditivity and associativity
    probs = []
    for idx in range(min(3, len(xs) - 1)):
        x, x2 = xs[idx], xs[idx + 1]
        y = ys[idx % len(ys)]
        if not class_equal(star(x + x2, y), star(x, y) + star(x2, y)):
            probs.append(("left additivity", idx))
        if not class_equal(star(y, x + x2), star(y, x) + star(y, x2)):
            probs.append(("right additivity", idx))
    results.append(check("ring.biadditivity", not probs, "",
                         {"problems": probs}))
    probs = []
    for idx in range(min(3, len(xs))):
        x = xs[idx]
        y = ys[(idx + 1) % len(ys)]
        z = xs[(idx + 2) % len(xs)]
        left = star(star(x, y), z)
        right = star(x, star(y, z))
        if left.c != right.c or left.h != right.h or left.omega != right.omega:
            probs.append(("associator is nonzero at cochain level", idx))
    results.append(check("ring.associativity", not probs,
                         "representative-level identity", {"problems": probs}))

    # 1.17: graded commutativity at class level (contingent; see module doc)
    probs, wit = [], []
    defect_probs = []
    for idx, (_, _, lhs, rhs) in built.items():
        if not class_equal(lhs, rhs):
            probs.append(idx)
            if len(wit) < 2:
                wit.append({"pair": idx,
                            "curvature_defect":
                                (delta1(lhs) - delta1(rhs)).serialize()})
        defect = delta1(lhs) - delta1(rhs)
        if not defect.is_zero():
            sol = solve_coboundary(cx, k + l - 1, defect, integral=False)
            if sol is None:
                defect_probs.append(("curvature defect is not exact", idx))
    results.append(check("ring.axiom_1_17_graded_commutativity", not probs,
                         f"{len(probs)} of {len(pairs)} pairs fail",
                         {"failing_pairs": probs, "witnesses": wit}))
    results.append(check("ring.commutativity_defect_exact", not defect_probs,
                         "the defect is exact; no cochain-level correction "
                         "restores 1.17, since omega must match exactly and "
                         "1.18 fixes the curvature",
                         {"problems": defect_probs}))

    # 1.18: curvature is multiplicative at cochain level
    probs = []
    for idx, (x, y, p, _) in built.items():
        if delta1(p) != cup(delta1(x), delta1(y)):
            probs.append(idx)
    results.append(check("ring.axiom_1_18_curvature", not probs,
                         "cochain-level equality", {"failing_pairs": probs}))

    # 1.19: characteristic class is multiplicative
    probs = []
    for idx, (x, y, p, _) in built.items():
        if delta2(p) != cup_integral_classes(delta2(x), delta2(y)):
            probs.append(idx)
    results.append(check("ring.axiom_1_19_char_class", not probs,
                         "class-level equality in H(Z)", {"failing_pairs": probs}))

    # 1.20: module structure over flat classes
    probs = []
    count = 0
    for x in xs[:3]:
        for u in sample_qmodz_classes(cx, l - 1, rng):
            lhs = star(x, i1(u))
            rhs = i1(cup_class_qmodz(delta2(x), u)).scale((-1) ** k)
            count += 1
            if not class_equal(lhs, rhs):
                probs.append(("1.20 fails", list(map(str, u.coords))))
    results.append(check("ring.axiom_1_20_flat_module", not probs,
                         f"{count} pairs", {"problems": probs}))

    # 1.21: module structure over quotient forms
    probs = []
    count = 0
    for x in xs[:3]:
        for th in sample_quotient_forms(cx, l, rng):
            lhs = star(x, i2(th))
            rhs = i2(QuotientForm(cup(delta1(x), th.rep))).scale((-1) ** k)
            count += 1
            if not class_equal(lhs, rhs):
                probs.append(("1.21 fails",))
    results.append(check("ring.axiom_1_21_form_module", not probs,
                         f"{count} pairs", {"problems": probs}))

    # uniqueness mechanism: the difference with an axiom-satisfying variant
    # is flat and kills i2 images; ∗ against itself is trivial, against the
    # flip it presumes 1.17 and fails with it
    probs = []
    for idx, (_, _, p, _) in head.items():
        if not class_equal(p - p, zero_class(cx, k + l)):
            probs.append(("difference with itself is nonzero", idx))
    results.append(check("ring.uniqueness_vs_itself", not probs, "",
                         {"problems": probs}))
    probs = []
    for idx, (_, _, p, flip) in head.items():
        if not delta1(p - flip).is_zero():
            probs.append(("difference with the flip variant is not flat", idx))
    for x in xs[:2]:
        for th in sample_quotient_forms(cx, l, rng)[:2]:
            d = star(x, i2(th)) - _flip_star(x, i2(th))
            if not class_equal(d, zero_class(cx, k + l)):
                probs.append(("difference does not vanish on an i2 image",))
    results.append(check("ring.uniqueness_vs_flip", not probs,
                         "presumes graded commutativity",
                         {"problems": probs[:4]}))

    # naturality under order-preserving maps. Along last_vertex: sd cx ->
    # cx the two sides are compared by their forms on sd cx and their Sd^*
    # images on cx, exact because Sd^* is injective on the flat classes
    # of sd cx (`class_equal_on_source`)
    if maps:
        probs = []
        for mi, phi in enumerate(maps):
            if phi.target is not cx or not phi.is_monotone():
                continue
            for x, y, p, _ in (head[i] for i in range(3) if i in head):
                lhs = pullback(phi, p)
                rhs = star(pullback(phi, x), pullback(phi, y))
                if not class_equal_on_source(phi, lhs, rhs):
                    probs.append(("star is not natural", mi))
        results.append(check("ring.naturality", not probs,
                             "order-preserving maps", {"problems": probs}))
    return results


CONTINGENT_CHECKS = frozenset({
    "ring.axiom_1_17_graded_commutativity",
    "ring.uniqueness_vs_flip",
})
