"""Command-line verification driver.

Subcommands: inspect (groups and integral forms), diagram (exactness and
commutativity at one degree), phi (the model equivalence), ring (product
axioms), pseudo (cycle surgery and bounding). Reports are deterministic:
the canonical hash covers everything except timings, and checks run one
after another in a fixed order.
"""
from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from . import __version__, corpus, zlin
from .cochains import (
    RING_Q, RING_QMODZ, RING_Z, _coboundary_num, check_exactness,
    cohomology, integral_form_generators,
)
from .characters import verify_equivalence, verify_phi_good
from .diffcocycle import verify_diagram
from .geometry import (
    BoundResult, DimensionError, GeometryBudgetExceeded, NotNullHomologous,
    bound_in_good_neighborhood, cohomology_vanishes_above,
    normalize_cycle, verify_normalization,
)
from .product import verify_ring_axioms
from .report import InvariantError, Report, check
from .simplicial import (
    Complex, DuplicateError, FaceClosureError, ParseError,
    barycentric_subdivide, closed_star_neighborhood, subcomplex_from_simplices,
)

INPUT_ERROR = 2


def _naturality_maps(cx: Complex):
    maps = [barycentric_subdivide(cx).last_vertex]
    star = closed_star_neighborhood(
        cx, subcomplex_from_simplices(cx, [cx.simplices[0][0]]))
    if not star.is_empty():
        _, incl = star.as_complex()
        maps.append(incl)
    return maps


def _run_tasks(rep: Report, tasks):
    """Evaluate (name, callable) tasks in order, add their results to the
    report and record each task's wall time under its name. A failed
    invariant becomes the failed check <command>.<task name>."""
    for name, fn in tasks:
        t0 = time.monotonic()
        try:
            out = fn()
        except InvariantError as e:
            out = check(f"{rep.command}.{name}", False, str(e), e.witness)
        rep.timings_ms[name] = int((time.monotonic() - t0) * 1000)
        rep.extend(out if isinstance(out, list) else [out])


# (ring, degree offset, attribute) of the groups whose free rank or torsion
# must equal those of H^j in each ring, by the universal coefficient theorem:
# rank H^j(Z) = rank H^j(Q) = free rank of H^j(Q/Z), and torsion H^j(Q/Z) =
# torsion H^{j+1}(Z).
_UCT_PARTNERS = {
    RING_Z: ((RING_Q, 0, "rank"), (RING_QMODZ, -1, "torsion")),
    RING_Q: ((RING_Z, 0, "rank"), (RING_QMODZ, 0, "rank")),
    RING_QMODZ: ((RING_Z, 0, "rank"), (RING_Z, 1, "torsion")),
}


def _uct_disagreement(cx: Complex, j: int, ring: str):
    """None when H^j in `ring` agrees with its universal-coefficient
    partners, else a witness naming the two groups that disagree."""
    g = cohomology(cx, j, ring)
    for other_ring, shift, attr in _UCT_PARTNERS[ring]:
        if j + shift < 0:
            continue
        h = cohomology(cx, j + shift, other_ring)
        if getattr(g, attr) != getattr(h, attr):
            return {"groups": [f"H{j}({ring})", f"H{j + shift}({other_ring})"],
                    attr: [getattr(g, attr), getattr(h, attr)]}
    return None


# Every cmd_* handler keeps a third positional `jobs` argument, unused:
# perfbench/run.py calls cmd_*(cx, args, 1).
def cmd_inspect(cx: Complex, args, jobs: int) -> Report:
    rep = Report(__version__, "inspect", cx.name,
                 list(range(cx.dim + 2)), args.seed)
    counts = ",".join(str(cx.n_simplices(d)) for d in range(cx.dim + 1))
    rep.notes.append(f"simplices per dimension: {counts}; "
                     f"euler characteristic {cx.euler_characteristic()}")
    tasks = []
    for j in range(cx.dim + 2):
        for ring in (RING_Z, RING_Q, RING_QMODZ):
            def fn(j=j, ring=ring):
                wit = _uct_disagreement(cx, j, ring)
                return check(f"inspect.H{j}({ring})", wit is None,
                             cohomology(cx, j, ring).describe(), wit)
            tasks.append((f"H{j}{ring}", fn))
        def forms(j=j):
            count, bad = 0, []
            for count, g in enumerate(integral_form_generators(cx, j), 1):
                if g.den != 1 or _coboundary_num(g):
                    bad.append(count - 1)
            return check(f"inspect.integral_forms_{j}", not bad,
                         f"{count} generators (free classes + "
                         f"integral coboundaries)",
                         {"not_closed_or_not_integral": bad} if bad else None)
        tasks.append((f"L{j}", forms))
    _run_tasks(rep, tasks)
    return rep


def cmd_diagram(cx: Complex, args, jobs: int) -> Report:
    k = args.degree
    rep = Report(__version__, "diagram", cx.name, [k], args.seed)
    rep.notes.append("sign convention: delta2 . i1 = -B along the drawn "
                     "diagram edge; the +B variant is isomorphic via u -> -u")
    maps = _naturality_maps(cx)
    tasks = [
        ("exactness", lambda: check_exactness(cx, k, random.Random(args.seed))),
        ("diagram", lambda: verify_diagram(cx, k, random.Random(args.seed),
                                           maps=maps)),
    ]
    _run_tasks(rep, tasks)
    return rep


def cmd_phi(cx: Complex, args, jobs: int) -> Report:
    k = args.degree
    rep = Report(__version__, "phi", cx.name, [k], args.seed)
    tasks = [
        ("equivalence", lambda: verify_equivalence(
            cx, k, random.Random(args.seed), maps=_naturality_maps(cx))),
        ("good", lambda: verify_phi_good(
            cx, k, random.Random(args.seed + 1), max_subdiv=args.max_subdiv)),
    ]
    _run_tasks(rep, tasks)
    return rep


def cmd_ring(cx: Complex, args, jobs: int) -> Report:
    degs = args.degrees
    rep = Report(__version__, "ring", cx.name, list(degs), args.seed)
    rep.notes.append("graded commutativity is contingent in this cochain "
                     "model: the curvature cup product does not commute; "
                     "failures carry witnesses, and the defect is exact. No "
                     "cochain-level correction can restore 1.17, since class "
                     "equality needs omega to match exactly and 1.18 fixes "
                     "delta1(x*y) = delta1(x) u delta1(y); a fix needs "
                     "graded-commutative forms")
    maps = _naturality_maps(cx)
    _run_tasks(rep, [("ring", lambda: verify_ring_axioms(
        cx, degs, random.Random(args.seed), maps=maps))])
    return rep


def cmd_pseudo(cx: Complex, args, jobs: int) -> Report:
    d, vec = corpus.load_cycle(args.cycle, cx)
    rep = Report(__version__, "pseudo", cx.name, [d], args.seed)
    if not cx.is_cycle(d, vec):
        rep.extend([check("pseudo.input_is_cycle", False, "nonzero boundary")])
        return rep

    @functools.cache
    def normalized():
        # one normalization for both tasks; one that raised is not kept,
        # so bounding raises it again and fails as the surgery did
        return normalize_cycle(cx, d, vec)

    def surgery():
        return verify_normalization(*normalized())

    def bounding():
        sr, pm = normalized()
        out = bound_in_good_neighborhood(pm, cx, sr.tower,
                                         max_subdiv=args.max_subdiv)
        if isinstance(out, NotNullHomologous):
            return [check("pseudo.bounding", True,
                          f"not null-homologous in {out.group}",
                          {"witness_class": list(out.coords),
                           "pseudomanifold": pm.serialize()})]
        if not isinstance(out, BoundResult):
            raise InvariantError("bounding gave neither a chain nor a class",
                                 {"returned": type(out).__name__})
        nb = out.neighborhood
        # the chain must bound the carried cycle, and H^j must vanish
        # above nb.k in the neighborhood
        diff = zlin.combine((1, -1), (nb.complex.boundary_of_chain(
            nb.k + 1, out.chain), out.cycle))
        wrong = [list(nb.complex.simplices[nb.k][i]) for i in sorted(diff)]
        vanishes = cohomology_vanishes_above(nb.complex, nb.k)
        if wrong or not vanishes:
            return [check("pseudo.bounding", False,
                          f"no bounding chain inside a {nb.k}-good "
                          f"neighborhood at subdivision level {nb.level}",
                          {"boundary_differs_on": wrong,
                           "cohomology_vanishes_above": vanishes})]
        return [check("pseudo.bounding", True,
                      f"bounds inside a {nb.k}-good neighborhood at "
                      f"subdivision level {nb.level}; collapse certificate "
                      f"removed {out.collapse_pairs} pairs down to dimension "
                      f"{out.collapsed_dim}",
                      {"chain_cells": len(out.chain),
                       "neighborhood_counts":
                           [nb.complex.n_simplices(j)
                            for j in range(nb.complex.dim + 1)]})]

    _run_tasks(rep, [("surgery", surgery), ("bounding", bounding)])
    rep.notes.append("the emitted neighborhood is of the bounding chain's "
                     "support, which contains the cycle's support")
    return rep


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="charrig",
        description="exact verification of differential character structure "
                    "on finite simplicial complexes")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("complex", help="corpus name or path to a complex file")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("canonical", "pretty"),
                        default="canonical")
        sp.add_argument("--max-subdiv", type=int, choices=(0, 1, 2), default=2)

    sp = sub.add_parser("inspect", help="cohomology groups in all three rings")
    common(sp)
    sp = sub.add_parser("diagram", help="character diagram checks at one degree")
    common(sp)
    sp.add_argument("--degree", type=_degree, required=True)
    sp = sub.add_parser("phi", help="equivalence of the two character models")
    common(sp)
    sp.add_argument("--degree", type=_degree, required=True)
    sp = sub.add_parser("ring", help="product axiom suite")
    common(sp)
    sp.add_argument("--degrees", type=_degree_pair, required=True,
                    metavar="K,L")
    sp = sub.add_parser("pseudo", help="cycle surgery and bounding")
    common(sp)
    sp.add_argument("--cycle", required=True,
                    help="corpus cycle name or path to a cycle file")
    return p


def _degree(text: str) -> int:
    try:
        k = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"degree {text!r} is not an integer") from None
    if k < 0:
        raise argparse.ArgumentTypeError(f"degree {k} is negative")
    return k


def _degree_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("expected two degrees like 1,1")
    return (_degree(parts[0]), _degree(parts[1]))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cx = corpus.load(args.complex)
    except (FileNotFoundError, ParseError, FaceClosureError, DuplicateError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR
    handler = {"inspect": cmd_inspect, "diagram": cmd_diagram,
               "phi": cmd_phi, "ring": cmd_ring, "pseudo": cmd_pseudo}
    try:
        rep = handler[args.command](cx, args, 1)
    except (FileNotFoundError, ParseError, DimensionError,
            GeometryBudgetExceeded, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return INPUT_ERROR
    print(rep.render(args.format))
    return 0 if rep.all_passed() else 1


if __name__ == "__main__":
    sys.exit(main())
