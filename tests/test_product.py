"""The star product: examples, the axiom grid, and the documented
graded-commutativity finding."""
import random
from fractions import Fraction

from charrig.cochains import (
    QuotientForm, basis_cochain, cohomology, cup,
)
from charrig.diffcocycle import (
    class_equal, delta1, delta2, i2, preimage_of_class, sample_classes,
    zero_class,
)
from charrig.product import CONTINGENT_CHECKS, star, verify_ring_axioms
from charrig.simplicial import (
    barycentric_subdivide, closed_star_neighborhood, subcomplex_from_simplices,
)
from conftest import boundary_oracle

GRID = [("t2", (1, 1)), ("t2", (1, 2)), ("rp2", (1, 1)), ("rp2", (1, 2)),
        ("klein", (1, 1)), ("klein", (1, 2)), ("s2", (1, 1)), ("s2", (1, 2))]


def test_zero_class_annihilates(cx):
    t2 = cx("t2")
    x = sample_classes(t2, 1, random.Random(0), count=3)[1]
    assert class_equal(star(x, zero_class(t2, 1)), zero_class(t2, 2))
    assert class_equal(star(zero_class(t2, 1), x), zero_class(t2, 2))


def test_torus_product_hits_top_class(cx):
    t2 = cx("t2")
    hz1 = cohomology(t2, 1, "Z")
    x = preimage_of_class(t2, hz1.make((1, 0)))
    y = preimage_of_class(t2, hz1.make((0, 1)))
    d2 = delta2(star(x, y))
    assert d2.group is cohomology(t2, 2, "Z")
    assert abs(d2.coords[0]) == 1


def test_module_identity_over_forms(cx):
    """x * i2(theta) agrees with (-1)^k i2(delta1(x) cup theta)."""
    t2 = cx("t2")
    for x in sample_classes(t2, 1, random.Random(1), count=3):
        th = QuotientForm(basis_cochain(t2, "Q", 0, 2).scale(Fraction(1, 3)))
        lhs = star(x, i2(th))
        rhs = i2(QuotientForm(cup(delta1(x), th.rep))).scale(-1)
        assert class_equal(lhs, rhs)


def test_ring_axiom_grid(cx):
    for name, degs in GRID:
        X = cx(name)
        results = verify_ring_axioms(X, degs, random.Random(0))
        hard_failures = [(r.name, r.witness) for r in results
                         if r.status != "pass" and r.name not in CONTINGENT_CHECKS]
        assert not hard_failures, (name, degs, hard_failures)
        # the defect diagnosis must pass whenever commutativity fails
        by_name = {r.name: r for r in results}
        assert by_name["ring.commutativity_defect_exact"].status == "pass"


def test_graded_commutativity_finding_is_recorded(cx):
    """In this cochain model the curvature cup product is not graded
    commutative, so axiom 1.17 fails at class level; the suite must record
    witnesses rather than hide or patch it."""
    t2 = cx("t2")
    results = {r.name: r for r in verify_ring_axioms(t2, (1, 1),
                                                     random.Random(0))}
    r = results["ring.axiom_1_17_graded_commutativity"]
    assert r.status == "fail"
    assert r.witness["failing_pairs"], "failure must carry witnesses"
    assert r.witness["witnesses"][0]["curvature_defect"]["values"], \
        "witness must include the nonzero curvature defect"
    # and the defect is exactly a coboundary; no cochain-level correction
    # can remove it, since 1.18 fixes the curvature of the product
    assert results["ring.commutativity_defect_exact"].status == "pass"


def test_commutativity_defect_is_the_curvature(cx):
    t2 = cx("t2")
    hz1 = cohomology(t2, 1, "Z")
    x = preimage_of_class(t2, hz1.make((1, 0)))
    y = preimage_of_class(t2, hz1.make((0, 1)))
    lhs = star(x, y)
    rhs = star(y, x).scale(-1)
    assert not class_equal(lhs, rhs)
    defect = delta1(lhs) - delta1(rhs)
    assert not defect.is_zero()
    # if the curvatures did agree, the classes would too: verified by
    # patching rhs's curvature artificially and asserting the c/h data is
    # then equivalent -- i.e. the defect is the *only* obstruction
    from charrig.diffcocycle import DiffClass
    from charrig.cochains import coboundary, zero_cochain
    from charrig import zlin
    sol = zlin.solve_rational(
        [list(col) for col in zip(*boundary_oracle(t2, 2))],
        {i: v for i, v in enumerate(defect.values) if v},
        ncols=t2.n_simplices(1))
    assert sol is not None
    from charrig.cochains import Cochain
    eta = Cochain(t2, "Q", 1, zlin.dense(sol, t2.n_simplices(1)))
    patched = DiffClass(rhs.c, rhs.h + eta, rhs.omega + defect)
    assert class_equal(lhs, patched)


def test_ring_naturality_under_monotone_maps(cx):
    rp2 = cx("rp2")
    maps = [barycentric_subdivide(rp2).last_vertex]
    K = subcomplex_from_simplices(rp2, [(0,)])
    _, incl = closed_star_neighborhood(rp2, K).as_complex()
    maps.append(incl)
    results = {r.name: r for r in verify_ring_axioms(rp2, (1, 1),
                                                     random.Random(0),
                                                     maps=maps)}
    assert results["ring.naturality"].status == "pass"
