"""Combinatorial cycle surgery: good neighborhoods, pseudomanifold
normalization of integer cycles, and bounding inside good neighborhoods.

Smooth deformations are replaced by their combinatorial shadows: parallel
copies of an over-counted cell are routed through distinct sectors of the
second barycentric subdivision inside the open star of the cell, and sheet
separation at an over-crowded codimension-one face is an abstract regluing
of the incident cells (the ambient images stay put, so the homology
witnesses are exact and supported where they should be).
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import zlin
from .cochains import _snf_boundary, homology
from .report import CheckResult, InvariantError, check
from .simplicial import (
    Complex, SimplicialMap, Subcomplex, _sort_sign, chain_support,
    closed_star_neighborhood, complex_from_maximal,
    subcomplex_from_simplices, subdivision_tower,
)


class GeometryBudgetExceeded(Exception):
    pass


class DimensionError(Exception):
    pass


@dataclass(frozen=True)
class NotNullHomologous:
    """Returned when a cycle has a nonzero homology class; carries the
    class coordinates in the base complex as witness."""
    coords: tuple
    group: str


# ---------------------------------------------------------------------------
# cohomology vanishing via Smith normal form ranks

def cohomology_vanishes_above(cx: Complex, k: int) -> bool:
    """H^j(cx; Z) = 0 for every j > k, decided by boundary-matrix ranks and
    invariant factors (H^j has rank b_j and torsion from the SNF of d_j)."""
    for j in range(k + 1, cx.dim + 1):
        f_j = _snf_boundary(cx, j)
        f_j1 = _snf_boundary(cx, j + 1)
        betti = cx.n_simplices(j) - f_j.rank - f_j1.rank
        if betti:
            return False
        if any(d > 1 for d in f_j.diag):
            return False
    return True


# ---------------------------------------------------------------------------
# good neighborhoods

def transport_chain(tower, j: int, vec: dict) -> dict:
    """A j-chain on the base of `tower` (a list of Subdivision objects from
    the base complex to the top subdivision) carried to the top."""
    for sd in tower:
        vec = sd.subdivide_chain(j, vec)
    return vec


def push_down_chain(tower, j: int, vec: dict) -> dict:
    """A j-chain on the top of `tower` pushed down to its base along the
    last-vertex maps."""
    for sd in reversed(tower):
        vec = sd.last_vertex.push_chain(j, vec)
    return vec


@dataclass
class GoodNeighborhood:
    base: Complex
    level: int
    tower: list          # Subdivision objects, base -> ambient
    ambient: Complex
    subcomplex: Subcomplex
    complex: Complex     # the neighborhood as a standalone complex
    inclusion: SimplicialMap
    k: int               # cohomology vanishes above this degree

    def chain_to_neighborhood(self, j: int, vec):
        """Reindex an ambient chain supported inside the neighborhood."""
        return _chain_to_subcomplex(self.inclusion, j, vec)


def _chain_to_subcomplex(incl: SimplicialMap, j: int, vec: dict) -> dict:
    """Reindex a sparse ambient j-chain onto the source of the inclusion
    `incl` of a subcomplex through its chain columns, keeping the sign; a
    ValueError when the chain leaves the subcomplex."""
    back = {t: (c, sign) for c, (t, sign) in enumerate(incl.chain_columns(j))}
    if not vec.keys() <= back.keys():
        raise ValueError("chain leaves the subcomplex")
    return {back[i][0]: back[i][1] * coef for i, coef in vec.items()}


def _transport_subcomplex(K: Subcomplex, sd) -> Subcomplex:
    """The subdivision of a subcomplex, located by carrier membership."""
    included = []
    for d in range(sd.complex.dim + 1):
        level = set()
        for i in range(sd.complex.n_simplices(d)):
            cd, ci = sd.carrier[d][i]
            if K.contains(cd, ci):
                level.add(i)
        included.append(level)
    return Subcomplex(sd.complex, included)


def good_neighborhood(base: Complex, K: Subcomplex, k: int,
                      max_subdiv: int = 2, min_level: int = 0) -> GoodNeighborhood:
    """A closed-star neighborhood of (the image of) K in at most
    `max_subdiv` barycentric subdivisions whose integral cohomology
    vanishes above k; the vanishing is always checked directly.

    `min_level` forces extra subdivisions first (used to produce a second,
    finer neighborhood for independence tests)."""
    if K.is_empty():
        raise ValueError("cannot build a neighborhood of an empty subcomplex")
    cache_key = ("good_nb", tuple(tuple(sorted(lv)) for lv in K.included),
                 k, max_subdiv, min_level)
    if cache_key in base._cache:
        return base._cache[cache_key]
    tower = []
    ambient = base
    K_here = K
    for level in range(max_subdiv + 1):
        if level >= min_level:
            U = closed_star_neighborhood(ambient, K_here)
            ucx, incl = U.as_complex(f"{base.name}|nb{level}")
            if cohomology_vanishes_above(ucx, k):
                nb = GoodNeighborhood(base, level, list(tower), ambient, U,
                                      ucx, incl, k)
                base._cache[cache_key] = nb
                return nb
        if level == max_subdiv:
            break
        tower = subdivision_tower(base, level + 1)
        sd = tower[level]
        K_here = _transport_subcomplex(K_here, sd)
        ambient = sd.complex
    raise GeometryBudgetExceeded(
        f"no {k}-good closed-star neighborhood within {max_subdiv} subdivisions")


def good_neighborhood_of_cycle(base: Complex, j: int, vec, k: int,
                               max_subdiv: int = 2) -> GoodNeighborhood:
    return good_neighborhood(base, chain_support(base, j, vec), k, max_subdiv)


# ---------------------------------------------------------------------------
# pseudomanifolds

@dataclass
class Pseudomanifold:
    complex: Complex               # abstract oriented (k-1)-complex
    map_to_ambient: SimplicialMap
    fundamental_cycle: dict        # sparse top chain, +-1 on every top simplex

    @property
    def dim(self) -> int:
        return self.complex.dim

    def ambient_cycle(self):
        return self.map_to_ambient.push_chain(self.dim, self.fundamental_cycle)

    def serialize(self):
        return {
            "simplices": [[list(s) for s in lvl] for lvl in self.complex.simplices],
            "vertex_map": list(self.map_to_ambient.vertex_map),
            "fundamental_cycle": zlin.dense(self.fundamental_cycle,
                                            self.complex.n_simplices(self.dim)),
        }


def is_pseudomanifold(P: Pseudomanifold) -> bool:
    """Every codimension-one cell bounds exactly two top cells with
    cancelling induced orientations, and the ambient map is an embedding
    surrogate (simplexwise injective, injective on top-cell interiors)."""
    cx = P.complex
    d = cx.dim
    if set(P.fundamental_cycle) != set(range(cx.n_simplices(d))):
        return False
    if any(c not in (1, -1) for c in P.fundamental_cycle.values()):
        return False
    # purity: every simplex is a face of a top cell
    covered = [set() for _ in range(d)]
    for s in cx.simplices[d]:
        for r in range(1, d + 1):
            for f in combinations(s, r):
                covered[r - 1].add(f)
    for r in range(d):
        if set(cx.simplices[r]) != covered[r]:
            return False
    if d >= 1:
        # row r of the boundary operator holds the cofaces of face r
        if any(len(row) != 2 for row in cx.boundary_rows(d)):
            return False
        if not cx.is_cycle(d, P.fundamental_cycle):
            return False
    # embedding surrogate
    vm = P.map_to_ambient.vertex_map
    images = set()
    for s in cx.simplices[d]:
        img = tuple(sorted(vm[v] for v in s))
        if len(set(img)) != d + 1:
            return False
        if img in images:
            return False
        images.add(img)
    return True


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def resolve_cycle(ambient: Complex, d: int, vec: dict):
    """Reglue the +-1 cells of a d-cycle so every (d-1)-face has exactly
    two sheets with cancelling orientations; sheets are paired off in
    sorted order. The ambient images of the cells are untouched, so the
    pseudomanifold's fundamental cycle maps onto the input cycle."""
    if not ambient.is_cycle(d, vec):
        raise ValueError("input chain is not a cycle")
    cells = sorted(vec.items())
    if any(abs(c) != 1 for _, c in cells):
        raise ValueError("resolve expects coefficients in {-1, 0, +1}")
    uf = _UnionFind()
    cell_tuples = [ambient.simplices[d][i] for i, _ in cells]
    if d >= 1:
        incident: dict[int, list] = {}
        for pos, (i, coef) in enumerate(cells):
            for f_idx, sign in ambient.faces(d, i):
                incident.setdefault(f_idx, []).append((pos, sign * coef))
        for f_idx in sorted(incident):
            entries = incident[f_idx]
            plus = sorted(p for p, s in entries if s > 0)
            minus = sorted(p for p, s in entries if s < 0)
            face = ambient.simplices[d - 1][f_idx]
            if len(plus) != len(minus):
                raise InvariantError("cycle condition violated at a face",
                                     {"face": list(face), "sheets":
                                      [len(plus), len(minus)]})
            for a, b in zip(plus, minus):
                for v in face:
                    sa = cell_tuples[a].index(v)
                    sb = cell_tuples[b].index(v)
                    uf.union((a, sa), (b, sb))
    # abstract vertices = union-find classes, labelled deterministically
    classes = {}
    for pos in range(len(cells)):
        for slot in range(d + 1):
            root = uf.find((pos, slot))
            classes.setdefault(root, []).append((pos, slot))
    order = sorted(classes, key=min)
    label = {root: i for i, root in enumerate(order)}
    vertex_map = [0] * len(order)
    for root, members in classes.items():
        imgs = {cell_tuples[p][s] for p, s in members}
        if len(imgs) != 1:
            raise InvariantError("glued slots map to different ambient vertices",
                                 {"vertices": sorted(imgs)})
        vertex_map[label[root]] = imgs.pop()
    tops = []
    coefs = []
    for pos, (i, coef) in enumerate(cells):
        labs = [label[uf.find((pos, slot))] for slot in range(d + 1)]
        if len(set(labs)) != d + 1:
            raise InvariantError("cell collapsed during regluing",
                                 {"cell": list(cell_tuples[pos])})
        sign = _sort_sign(labs)[1]
        tops.append(tuple(sorted(labs)))
        coefs.append(coef * sign)
    abstract = complex_from_maximal(f"{ambient.name}|pm", sorted(set(tops)),
                                    len(order))
    fund = {abstract.simplex_index(t): c for t, c in zip(tops, coefs)}
    return Pseudomanifold(abstract, SimplicialMap(abstract, ambient, vertex_map),
                          fund)


# ---------------------------------------------------------------------------
# splitting multi-coefficient cells into parallel copies

@dataclass
class SplitResult:
    base: Complex
    level: int
    tower: list
    complex: Complex      # where the output cycle lives
    degree: int
    transported: dict     # the input cycle transported to `complex`
    cycle: dict           # sparse, coefficients in {-1, +1}
    witness: dict         # (d+1)-chain with transported = boundary(witness) + cycle


def split_cycle(base: Complex, d: int, vec: dict) -> SplitResult:
    """Replace every coefficient-n cell of a d-cycle (n > 1) by n parallel
    copies routed through sectors of the second barycentric subdivision,
    homologous inside the closed star of the cell. Needs d < dim, unless
    the cycle already has unit coefficients and is returned as it is."""
    if not base.is_cycle(d, vec):
        raise ValueError("input chain is not a cycle")
    return _split_chain(base, d, vec)


def _split_chain(base: Complex, d: int, vec: dict) -> SplitResult:
    """Splitting body; also valid for chains rel boundary, because every
    parallel copy shares the boundary of the cell it copies."""
    if all(abs(c) <= 1 for c in vec.values()):
        return SplitResult(base, 0, [], base, d, dict(vec), dict(vec), {})
    if d >= base.dim:
        raise DimensionError("splitting needs cycles below the top dimension")
    if d > 1:
        raise GeometryBudgetExceeded(
            "parallel-copy routing is implemented for cells of dimension <= 1")
    tower = subdivision_tower(base, 2)
    Y = tower[1].complex
    z2 = transport_chain(tower, d, vec)
    z_out = dict(z2)
    b1 = {}
    cofaces = base.boundary_rows(d + 1)
    for i, coef in sorted(vec.items()):
        n = abs(coef)
        if n <= 1:
            continue
        sign = 1 if coef > 0 else -1
        slots = list(cofaces[i])
        if len(slots) < n - 1:
            raise GeometryBudgetExceeded(
                f"cell {base.simplices[d][i]} has {len(slots)} cofaces, "
                f"needs {n - 1} parallel slots")
        s2 = transport_chain(tower, d, {i: 1})
        zlin._axpy(z_out, s2, sign - coef)
        for copy_idx in range(n - 1):
            rho = slots[copy_idx]
            route = _parallel_copy(base, tower, d, i, rho)
            zlin._axpy(z_out, route, sign)
            # boundary(h) = route - s2, so the identity z2 = boundary(b1) + z'
            # wants -h per copy
            h = _local_homology_witness(base, tower, d, rho, route, s2)
            zlin._axpy(b1, h, -sign)
    # exactness of the bookkeeping: transported = boundary(b1) + cycle
    bad = zlin.combine((1, -1, -1), (z2, Y.boundary_of_chain(d + 1, b1), z_out))
    if bad:
        raise InvariantError("split witness identity failed", {"simplices": [
            list(Y.simplices[d][c]) for c in sorted(bad)]})
    large = [list(Y.simplices[d][c]) for c in sorted(z_out) if abs(z_out[c]) > 1]
    if large:
        raise InvariantError("split left a large coefficient", {"simplices": large})
    return SplitResult(base, 2, tower, Y, d, z2, z_out, b1)


def _parallel_copy(base: Complex, tower, d: int, cell: int, rho: int):
    """A +-1 copy of the subdivided d-cell routed through the sd^2 sector
    of the coface rho, sharing exactly the cell's boundary."""
    sd1, sd2 = tower
    Y = sd2.complex
    if d == 0:
        v = base.simplices[0][cell][0]
        a, b = base.simplices[1][rho]
        mid = sd1.new_vertex(1, rho)
        quarter_edge = tuple(sorted((v, mid)))
        q = sd2.new_vertex(1, sd1.complex.simplex_index(quarter_edge))
        return {Y.simplex_index((q,)): 1}
    # d == 1: route a -> c1 -> y -> c2 -> b inside the coface triangle
    a, b = base.simplices[1][cell]
    mid = sd1.new_vertex(1, cell)
    beta = sd1.new_vertex(2, rho)
    s1cx = sd1.complex
    c1 = sd2.new_vertex(2, s1cx.simplex_index(tuple(sorted((a, mid, beta)))))
    yv = sd2.new_vertex(1, s1cx.simplex_index(tuple(sorted((mid, beta)))))
    c2 = sd2.new_vertex(2, s1cx.simplex_index(tuple(sorted((b, mid, beta)))))
    out = {}
    for (u, w) in ((a, c1), (c1, yv), (yv, c2), (c2, b)):
        lo, hi = (u, w) if u < w else (w, u)
        out[Y.simplex_index((lo, hi))] = 1 if lo == u else -1
    return out


def _local_homology_witness(base: Complex, tower, d: int, rho: int,
                            route, s2):
    """Solve boundary(h) = route - s2 inside the subdivided closed coface."""
    rhs = zlin.combine((1, -1), (route, s2))
    local = _carrier_subcomplex(base, tower, d + 1, rho)
    sub, incl = local.as_complex()
    sol = zlin.solve_integer([], _chain_to_subcomplex(incl, d, rhs),
                             fact=_snf_boundary(sub, d + 1))
    if sol is None:
        raise InvariantError("no local witness inside a disk",
                             {"coface": list(base.simplices[d + 1][rho])})
    return incl.push_chain(d + 1, sol)


def _carried_cells(base: Complex, tower) -> dict:
    """For `tower` = subdivision_tower(base, n): per base simplex (d, i),
    the simplices of the top complex whose base carrier it is, as one
    index list per dimension. The carrier maps of the levels are composed
    once per tower and the result is cached on the base."""
    key = ("carried_cells", len(tower))
    if key not in base._cache:
        carrier = [[(d, i) for i in range(base.n_simplices(d))]
                   for d in range(base.dim + 1)]
        for sd in tower:
            carrier = [[carrier[cd][ci] for cd, ci in level]
                       for level in sd.carrier]
        cells = {}
        for d, level in enumerate(carrier):
            for i, c in enumerate(level):
                cells.setdefault(c, [[] for _ in carrier])[d].append(i)
        base._cache[key] = cells
    return base._cache[key]


def _carrier_subcomplex(base: Complex, tower, d: int, idx: int) -> Subcomplex:
    """All simplices of the top of `tower` carried inside the closed
    d-simplex `idx`: those whose base carrier is a face of it."""
    cells = _carried_cells(base, tower)
    top = tower[-1].complex if tower else base
    included = [set() for _ in range(top.dim + 1)]
    closed = subcomplex_from_simplices(base, [base.simplices[d][idx]])
    for fd, faces in enumerate(closed.included):
        for fi in faces:
            for cd, ids in enumerate(cells[fd, fi]):
                included[cd].update(ids)
    return Subcomplex(top, included)


def normalize_cycle(base: Complex, d: int, vec: dict):
    """Split then resolve: the full cycle-to-pseudomanifold pipeline.
    Returns (SplitResult, Pseudomanifold)."""
    sr = split_cycle(base, d, vec)
    pm = resolve_cycle(sr.complex, d, sr.cycle)
    return sr, pm


# ---------------------------------------------------------------------------
# bounding in a good neighborhood

@dataclass
class BoundResult:
    neighborhood: GoodNeighborhood
    chain: dict                 # y with boundary(y) = cycle, in the neighborhood
    cycle: dict                 # the fundamental cycle carried into it
    collapse_pairs: int
    collapsed_dim: int


def bound_in_good_neighborhood(P: Pseudomanifold, base: Complex, tower,
                               max_subdiv: int = 2):
    """Either a (k-1)-good neighborhood of a bounding chain for P's
    fundamental cycle, or NotNullHomologous with the class as witness.

    `base` and `tower` describe how P's ambient complex sits over the base
    complex (empty tower when they coincide)."""
    d = P.dim
    k = d + 1
    ambient = P.map_to_ambient.target
    zP = P.ambient_cycle()
    z_base = push_down_chain(tower, d, zP)
    hom = homology(base, d)
    coords = hom.project_chain(z_base)
    if any(coords):
        return NotNullHomologous(coords, hom.fg.describe())
    if base.dim < k:
        raise DimensionError("ambient dimension is below the bounding degree")
    w = zlin.solve_integer([], zP, fact=_snf_boundary(ambient, k))
    if w is None:
        raise InvariantError("a null-homologous cycle does not bound",
                             {"cycle": [list(ambient.simplices[d][i])
                                        for i in sorted(zP)]})
    if base.dim == k:
        # the cycle separates; pick the compact side by shifting with
        # multiples of the fundamental top cycles
        _normalize_top_chain(ambient, k, w)
        if any(abs(c) > 1 for c in w.values()):
            raise GeometryBudgetExceeded(
                "bounding chain cannot be normalized to unit coefficients")
    elif any(abs(c) > 1 for c in w.values()):
        sr = _split_chain(ambient, k, w)
        ambient = sr.complex
        w = sr.cycle
        zP = transport_chain(sr.tower, d, zP)
    # neighborhood of the support of w (which contains |P|)
    support = [ambient.simplices[k][i] for i in w]
    support += [ambient.simplices[d][i] for i in zP]
    K = subcomplex_from_simplices(ambient, support)
    nb = good_neighborhood(ambient, K, d, max_subdiv)
    y_local = nb.chain_to_neighborhood(k, transport_chain(nb.tower, k, w))
    z_local = nb.chain_to_neighborhood(d, transport_chain(nb.tower, d, zP))
    pairs, dim_left = _greedy_collapse(nb.complex)
    return BoundResult(nb, y_local, z_local, pairs, dim_left)


def _normalize_top_chain(cx: Complex, k: int, w: dict) -> None:
    """Shift the sparse chain w in place by top-cycle multiples so its
    coefficients land in {-1, 1}: w - t F, then w + t F, for each
    cycle-basis column F (the sparse columns of V past the rank) and each
    nonzero value t of w, keeping the first shift that succeeds; w is left
    as it was when none does."""
    if all(abs(c) <= 1 for c in w.values()):
        return
    fact = _snf_boundary(cx, k)
    for F in fact.V[fact.rank:]:
        for t in sorted(set(w.values())):
            for s in (-t, t):
                zlin._axpy(w, F, s)
                if all(abs(c) <= 1 for c in w.values()):
                    return
                zlin._axpy(w, F, -s)


def _greedy_collapse(cx: Complex):
    """Greedy free-face collapse; returns (pairs removed, top dimension
    left). A certificate of how far the neighborhood deflates, reported
    alongside the direct cohomology check, never instead of it."""
    alive = [set(range(cx.n_simplices(d))) for d in range(cx.dim + 1)]
    # cofaces[d][i]: the cofaces of d-simplex i, row i of the boundary
    # operator on (d+1)-chains
    cofaces = [cx.boundary_rows(d + 1) for d in range(cx.dim)]
    pairs = 0
    progress = True
    while progress:
        progress = False
        for d in range(cx.dim - 1, -1, -1):
            for i in sorted(alive[d]):
                up = [j for j in cofaces[d][i] if j in alive[d + 1]]
                if len(up) == 1:
                    j = up[0]
                    if d + 2 <= cx.dim and any(
                            jj in alive[d + 2] for jj in cofaces[d + 1][j]):
                        continue
                    alive[d].discard(i)
                    alive[d + 1].discard(j)
                    pairs += 1
                    progress = True
    dim_left = max((d for d in range(cx.dim + 1) if alive[d]), default=0)
    return pairs, dim_left


# ---------------------------------------------------------------------------
# verification suite

def verify_normalization(base: Complex, d: int, vec: dict,
                         rng=None) -> list[CheckResult]:
    """Normalization identity, pseudomanifold validity and support
    containment for one cycle."""
    results = []
    sr, pm = normalize_cycle(base, d, vec)
    Y = sr.complex
    ok_pm = is_pseudomanifold(pm)
    results.append(check("surgery.is_pseudomanifold", ok_pm,
                         f"{Y.name}: {len(pm.fundamental_cycle)} top cells"))
    identity_ok = not zlin.combine((1, -1, -1), (
        sr.transported, Y.boundary_of_chain(d + 1, sr.witness), pm.ambient_cycle()))
    results.append(check("surgery.homology_identity", identity_ok,
                         "transported z = boundary(b) + P"))
    if sr.witness:
        star = closed_star_neighborhood(
            Y, chain_support(Y, d, sr.transported))
        wit_support = chain_support(Y, d + 1, sr.witness)
        contained = all(wit_support.included[dd] <= star.included[dd]
                        for dd in range(len(wit_support.included)))
        results.append(check("surgery.witness_in_closed_star", contained,
                             "splitting homologies stay near the cycle"))
    return results
