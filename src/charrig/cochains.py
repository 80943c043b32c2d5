"""Cochains over Z, Q and Q/Z, their cohomology, the cup product, and the
two long exact sequences feeding the character diagram.

Coefficient conventions: "R" is realized as Q and "R/Z" as Q/Z. A cochain
holds its nonzero integer numerators, a dict from simplex index, over one
positive common denominator, in the normal form given in `Cochain`, so
sums, coboundaries, cup products and pairings are integer operations on
the nonzeros with at most one division at the end. Chains, homology
generator cycles and cycle coordinates are sparse dicts of nonzeros too
(see `simplicial`); only `Cochain.values` spells a cochain out densely.
H^j(Q/Z) is presented as Hom(H_j, Q/Z): an element is its tuple of
evaluations on a fixed homology generator basis (free generators first,
then one coordinate per torsion factor), and a representative cocycle is
synthesized on demand.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, gcd, lcm

from . import zlin
from .report import CheckResult, check
from .simplicial import Complex, MismatchError

RING_Z = "Z"
RING_Q = "Q"
RING_QMODZ = "QmodZ"


class RingError(Exception):
    pass


class NotACycle(ValueError):
    pass


def _mod1(x) -> Fraction:
    """The representative of x mod 1 in [0, 1), as a Fraction."""
    x = Fraction(x)
    return x - floor(x)


def _over_common_denominator(values):
    """Integers num and den > 0 with values[i] = num[i] / den, for int or
    Fraction values."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


# ---------------------------------------------------------------------------
# cochains

class Cochain:
    """A degree-j cochain taking the value num.get(i, 0) / den on the i-th
    j-simplex: `num` is a dict from simplex index to nonzero int.

    Normal form, which every operation keeps: num holds no zero; den = 1
    over Z; over Q, den > 0 and gcd(den, *num.values()) = 1; over Q/Z
    also 0 < num[i] < den, so each value is its representative in [0, 1).
    `Cochain(cx, ring, degree, values)` takes one int or Fraction per
    simplex, raising TypeError on any other value (a float, a bool, a
    str), and `values` gives them back (Fractions over Q and Q/Z). Two
    cochains are equal when they live on the same complex object with the
    same ring, degree and normal form; cochains are not hashable.
    """

    __slots__ = ("cx", "ring", "degree", "num", "den")
    __hash__ = None

    def __init__(self, cx: Complex, ring: str, degree: int, values):
        n = cx.n_simplices(degree)
        if len(values) != n:
            raise ValueError(
                f"degree-{degree} cochain on {cx.name} needs "
                f"{n} values, got {len(values)}")
        if ring not in (RING_Z, RING_Q, RING_QMODZ):
            raise RingError(f"unknown ring {ring!r}")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(
                    f"cochain value {v!r} is not an int or a Fraction")
        num, den = _over_common_denominator(values)
        self.cx, self.ring, self.degree = cx, ring, degree
        self.num, self.den = _normal_form(ring, dict(enumerate(num)), den)

    @property
    def values(self) -> tuple:
        """The values, one per simplex: ints over Z, Fractions otherwise."""
        num = zlin.dense(self.num, self.cx.n_simplices(self.degree))
        if self.ring == RING_Z:
            return tuple(num)
        return tuple(Fraction(v, self.den) for v in num)

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (self.cx is other.cx and self.ring == other.ring
                and self.degree == other.degree and self.den == other.den
                and self.num == other.num)

    def __repr__(self):
        return (f"Cochain({self.cx.name}, {self.ring}, degree {self.degree}, "
                f"{self.num} / {self.den})")

    def is_zero(self) -> bool:
        return not self.num

    def _add_scaled(self, other: "Cochain", sign: int) -> "Cochain":
        """self + sign * other over the least common denominator."""
        if self.cx is not other.cx:
            raise MismatchError("cochains live on different complexes")
        if self.degree != other.degree or self.ring != other.ring:
            raise RingError("degree or ring mismatch")
        den = lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return _cochain(self.cx, self.ring, self.degree,
                        zlin.combine((a, b), (self.num, other.num)), den)

    def __add__(self, other):
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        return self._add_scaled(other, -1)

    def __neg__(self):
        return _cochain(self.cx, self.ring, self.degree,
                        {i: -v for i, v in self.num.items()}, self.den)

    def scale(self, c):
        """c times the cochain, for an int or Fraction c; an int over Z and
        over Q/Z, where a fraction of a value mod 1 is not defined."""
        p, q = c.numerator, c.denominator
        if self.ring != RING_Q and q != 1:
            raise RingError(f"cannot scale a {self.ring} cochain by a non-integer")
        return _cochain(self.cx, self.ring, self.degree,
                        {i: p * v for i, v in self.num.items()}, self.den * q)

    def pair(self, chain: dict):
        """Evaluate on a sparse chain {simplex index: coefficient}: an int
        over Z, a Fraction over Q, a Fraction in [0, 1) over Q/Z. A
        ShapeError when an index lies outside the simplices."""
        n = self.cx.n_simplices(self.degree)
        if chain and (min(chain) < 0 or max(chain) >= n):
            raise zlin.ShapeError(f"chain index outside the {n} simplices")
        total = zlin.vec_dot(chain, self.num)
        if self.ring == RING_Z:
            return total
        if self.ring == RING_QMODZ:
            total %= self.den
        return Fraction(total, self.den)

    def to_q(self) -> "Cochain":
        """View over Q (Z inclusion, or the canonical [0,1) lift of Q/Z)."""
        return _cochain(self.cx, RING_Q, self.degree, self.num, self.den)

    def mod1(self) -> "Cochain":
        if self.ring == RING_QMODZ:
            return self
        return _cochain(self.cx, RING_QMODZ, self.degree, self.num, self.den)

    def pullback(self, phi) -> "Cochain":
        """phi^* of the cochain along a simplicial map into its complex."""
        if self.cx is not phi.target:
            raise MismatchError("cochain does not live on the map's target")
        get = self.num.get
        num = {}
        for c, entry in enumerate(phi.chain_columns(self.degree)):
            if entry is not None:
                v = get(entry[0])
                if v:
                    num[c] = entry[1] * v
        return _cochain(phi.source, self.ring, self.degree, num, self.den)

    def serialize(self) -> dict:
        vals = {}
        den = self.den
        for i, v in sorted(self.num.items()):
            key = ",".join(map(str, self.cx.simplices[self.degree][i]))
            g = gcd(v, den)
            vals[key] = f"{v // g}/{den // g}"
        return {"ring": self.ring, "degree": self.degree, "values": vals}


def _normal_form(ring: str, num: dict, den: int):
    """(num, den) in the normal form of `Cochain`, for a dict num of
    integers and den > 0, as a new dict: zeros dropped and values reduced
    mod den over Q/Z, then one gcd pass; a RingError when a Z cochain is
    not integral."""
    if ring == RING_QMODZ:
        num = {i: r for i, v in num.items() if (r := v % den)}
    else:
        num = {i: v for i, v in num.items() if v}
    if den != 1:
        g = gcd(den, *num.values())
        if g != 1:
            num = {i: v // g for i, v in num.items()}
            den //= g
        if ring == RING_Z and den != 1:
            raise RingError("non-integer value in a Z cochain")
    return num, den


def _cochain(cx: Complex, ring: str, degree: int, num, den: int = 1) -> Cochain:
    """The trusted constructor: a dict of integer numerators over a
    positive denominator, brought to normal form (a new dict, so `num` may
    be a cached row), with no further validation."""
    x = object.__new__(Cochain)
    x.cx, x.ring, x.degree = cx, ring, degree
    x.num, x.den = _normal_form(ring, num, den)
    return x


def zero_cochain(cx: Complex, ring: str, degree: int) -> Cochain:
    return _cochain(cx, ring, degree, {})


def basis_cochain(cx: Complex, ring: str, degree: int, i: int) -> Cochain:
    """The cochain with value 1 on simplex i and 0 elsewhere."""
    if not 0 <= i < cx.n_simplices(degree):
        raise IndexError(f"no {degree}-simplex {i} on {cx.name}")
    return _cochain(cx, ring, degree, {i: 1})


def _coboundary_num(x: Cochain) -> dict:
    """The nonzero numerators of delta x over x.den, not reduced: the sum
    of x_i times row i of the cached sparse d_{j+1}, which holds the
    cofaces of simplex i with their signs."""
    return zlin.combine(x.num, x.cx.boundary_rows(x.degree + 1))


def coboundary(x: Cochain) -> Cochain:
    """delta x = x applied to boundaries, summed over the nonzeros of x;
    Q/Z values are reduced mod 1."""
    return _cochain(x.cx, x.ring, x.degree + 1, _coboundary_num(x), x.den)


def cup(x: Cochain, y: Cochain) -> Cochain:
    """Alexander-Whitney front-face/back-face product on ordered simplices."""
    if x.cx is not y.cx:
        raise MismatchError("cup factors live on different complexes")
    if x.ring == RING_QMODZ or y.ring == RING_QMODZ:
        raise RingError("cup is defined over Z and Q factors only")
    ring = RING_Z if (x.ring == RING_Z and y.ring == RING_Z) else RING_Q
    cx = x.cx
    k, l = x.degree, y.degree
    out = {}
    if x.num and y.num and k + l <= cx.dim:
        front_index = cx.index[k]
        back_index = cx.index[l]
        xs, ys = x.num.get, y.num.get
        for c, s in enumerate(cx.simplices[k + l]):
            a = xs(front_index[s[:k + 1]])
            if a:
                b = ys(back_index[s[k:]])
                if b:
                    out[c] = a * b
    return _cochain(cx, ring, k + l, out, x.den * y.den)


def cup_int_qmodz(c: Cochain, u: Cochain) -> Cochain:
    """Cup of an integer cochain with a Q/Z cochain, valued in Q/Z."""
    if c.ring != RING_Z or u.ring != RING_QMODZ:
        raise RingError("expected a Z cochain cup a Q/Z cochain")
    return cup(c, u.to_q()).mod1()


def cup_integral_classes(a: "CohomologyClass", b: "CohomologyClass") -> "CohomologyClass":
    """Cup product on integral cohomology classes."""
    if a.group.ring != RING_Z or b.group.ring != RING_Z:
        raise RingError("expected two integral classes")
    prod = cup(a.cocycle(), b.cocycle())
    return cohomology(prod.cx, prod.degree, RING_Z).class_from_cocycle(prod)


def cup_class_qmodz(a: "CohomologyClass", u: "CohomologyClass") -> "CohomologyClass":
    """Cup of an integral class with a Q/Z class, valued in H(Q/Z)."""
    if a.group.ring != RING_Z or u.group.ring != RING_QMODZ:
        raise RingError("expected an integral class cup a Q/Z class")
    prod = cup_int_qmodz(a.cocycle(), u.group.cochain_for(u.coords))
    return cohomology(prod.cx, prod.degree, RING_QMODZ).class_from_cocycle(prod)


# ---------------------------------------------------------------------------
# cached chain-level data
#
# One Smith factorization U d_j V = S per boundary operator d_j: C_j ->
# C_{j-1}, cached per complex, serves both sides. Chain side in degree j:
# the j-cycles are the columns of V past the rank, and the rows of Vinv
# past the rank give a cycle's coordinates. Cochain side, by transposition:
# delta^{j-1} = d_j^T, so the j-coboundaries are the x with w = V^T x in
# d_i Z below the rank and 0 past it, and H^j(Z) is read from the same
# factorization (`ZCohomology`); delta^j x = b is solved through that of
# d_{j+1} as S^T y = V^T b, x = U^T y. A cocycle with prescribed periods
# takes them on the cycle basis and vanishes on the rest of the
# Smith-adapted basis (`cochain_on_cycle_basis`).
# The build is sparse from input to output. Each d_j is stored once, as
# the cached coface rows of `Complex.boundary_rows(j)`: one ascending dict
# per (j-1)-simplex. `_snf_boundary` factors those rows as they are, and
# is the only place a boundary operator is factored, `geometry` included.
# The transforms are sparse too (U and Vinv by rows, V and Uinv by
# columns, see `zlin.SNFResult`): coordinates, periods, relation matrices
# and solves read those rows and columns directly. Periods and coboundary
# solves read V by rows (`SNFResult.V_rows`, built on the first of them),
# so they cost the nonzeros of the cochain they are given, not one
# pairing per column of V. Each transform is built on its first read: a
# boundary factorization never builds Uinv, and builds U only when a
# coboundary is solved. The relation matrix of H_j is dict rows, and its
# presentation (`zlin.cokernel`) reads only U and Uinv, so its V and
# Vinv are never built. The cycle basis is never made dense:
# every reader walks the sparse columns V[rank:] of the factorization of
# d_j. The coboundary reads the same coface rows of d_{j+1}: row i holds
# the signed cofaces of simplex i.


def _snf_boundary(cx: Complex, j: int) -> zlin.SNFResult:
    key = ("snf_boundary", j)
    if key not in cx._cache:
        cx._cache[key] = zlin.smith_normal_form(cx.boundary_rows(j),
                                                ncols=cx.n_simplices(j))
    return cx._cache[key]


def n_cycles(cx: Complex, j: int) -> int:
    """The rank of Z_j: n_j minus the rank of boundary_j."""
    if not 0 <= j <= cx.dim:
        return 0
    fact = _snf_boundary(cx, j)
    return fact.shape[1] - fact.rank


def cycle_periods(x: Cochain) -> dict:
    """The pairings of the numerators of a j-cochain with the cycle basis,
    the columns of V past the rank, summed over the rows of V where the
    cochain is nonzero: a sparse dict {t: p_t} free of zeros."""
    cx, j = x.cx, x.degree
    if not 0 <= j <= cx.dim:
        return {}
    fact = _snf_boundary(cx, j)
    r = fact.rank
    rows = fact.V_rows
    out = {}
    for i, xi in x.num.items():
        for t, v in rows[i].items():
            if t >= r:
                out[t - r] = out.get(t - r, 0) + xi * v
    return {t: p for t, p in out.items() if p}


def cycle_coords(cx: Complex, j: int, vec: dict) -> dict:
    """The nonzero coordinates {t: c_t} of a sparse j-cycle in the cycle
    basis (NotACycle otherwise)."""
    if not cx.is_cycle(j, vec):
        raise NotACycle("chain has nonzero boundary")
    fact = _snf_boundary(cx, j)
    return {t: c for t, row in enumerate(fact.Vinv[fact.rank:])
            if (c := zlin.vec_dot(row, vec))}


def cochain_on_cycle_basis(cx: Complex, j: int, num, ring: str,
                           den: int = 1) -> Cochain:
    """The j-cochain with the values num[t] / den on the cycle basis that
    vanishes on the rest of the Smith-adapted basis of C_j: the sum of
    num[t] times row rank + t of Vinv, over den. `num` is a sparse dict
    {t: num[t]} over the cycle basis."""
    fact = _snf_boundary(cx, j)
    return _cochain(cx, ring, j, zlin.combine(num, fact.Vinv[fact.rank:]), den)


def _torsion_indices(fact: zlin.SNFResult) -> range:
    """The i with d_i > 1 below the rank: d_i | d_{i+1}, so after the 1s."""
    return range(fact.diag.count(1), fact.rank)


def cocycle_coords(cx: Complex, j: int, num: dict) -> list:
    """Unreduced coordinates in H^j(Z) of a j-cocycle with numerators num:
    its periods on the free homology generators, then its pairing with
    column i of V for each torsion index i of d_j (see `ZCohomology`)."""
    fact = _snf_boundary(cx, j)
    hom = homology(cx, j)
    return ([zlin.vec_dot(z, num) for z in hom.gen_cycles[:hom.rank]]
            + [zlin.vec_dot(fact.V[i], num) for i in _torsion_indices(fact)])


def solve_coboundary(cx: Complex, j: int, b: Cochain, integral: bool):
    """A j-cochain x with delta x = b, over Z when `integral` and over Q
    otherwise, or None when there is none."""
    if integral and b.den != 1:
        return None
    sol = zlin.solve_transposed(_snf_boundary(cx, j + 1), b.num, integral)
    if sol is None:
        return None
    x, e = sol
    return _cochain(cx, RING_Z if integral else RING_Q, j, x, e * b.den)


@dataclass(frozen=True)
class HomologyData:
    cx: Complex
    degree: int
    fg: zlin.FgAbelianGroup      # presentation over cycle coordinates
    gen_cycles: tuple            # sparse chains, free gens then torsion;
                                 # shared and read-only

    @property
    def rank(self):
        return self.fg.rank

    @property
    def torsion(self):
        return self.fg.torsion

    def project_chain(self, vec: dict) -> tuple:
        return self.fg.project(cycle_coords(self.cx, self.degree, vec))

    def cochain_with_periods(self, coords, ring: str) -> Cochain:
        """The cochain taking the values `coords` on `gen_cycles` (trailing
        ones may be left out); a cocycle when they define a homomorphism
        H_j -> ring: zero on torsion over Z and Q, in (1/d)Z over Q/Z."""
        num, den = _over_common_denominator(coords)
        psi = zlin.combine(num, self.fg._proj_rows)
        return cochain_on_cycle_basis(self.cx, self.degree, psi, ring, den)


def homology(cx: Complex, j: int) -> HomologyData:
    """H_j(cx; Z) with explicit generator cycles."""
    key = ("homology", j)
    if key not in cx._cache:
        fact = _snf_boundary(cx, j)
        K = fact.V[fact.rank:]
        # relations: the cycle coordinates of each (j+1)-simplex's boundary,
        # row t of Vinv past the rank carried to the (j+1)-simplices through
        # the cofaces of each j-simplex
        cofaces = cx.boundary_rows(j + 1)
        Y = [zlin.combine(row, cofaces) for row in fact.Vinv[fact.rank:]]
        fg = zlin.cokernel(Y, ncols=cx.n_simplices(j + 1))
        gens = tuple(zlin.combine(fg.lift(e), K) for e in _units(fg.n_coords))
        cx._cache[key] = HomologyData(cx, j, fg, gens)
    return cx._cache[key]


# ---------------------------------------------------------------------------
# cohomology groups and classes

@dataclass(frozen=True)
class CohomologyClass:
    group: object
    coords: tuple

    def __add__(self, other):
        if self.group is not other.group:
            raise MismatchError("classes belong to different groups")
        return self.group.make(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.group.make(tuple(-a for a in self.coords))

    def scale(self, c: int):
        return self.group.make(tuple(c * a for a in self.coords))

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.coords)

    def cocycle(self) -> Cochain:
        return self.group.cochain_for(self.coords)

    def serialize(self):
        return {"ring": self.group.ring, "degree": self.group.degree,
                "coords": list(self.coords)}


class ZCohomology:
    """H^j(X; Z) = Hom(H_j, Z) + the sum of Z/d_i over the d_i > 1 of
    U d_j V = S, read from that cached factorization and from `homology`.

    Free generator t has period 1 on free homology generator t and 0 on
    the others. Torsion generator i is row i of Vinv: the cochain with
    w = V^T x = e_i, a cocycle since d_i times it is a coboundary.
    """

    ring = RING_Z

    def __init__(self, cx: Complex, j: int):
        self.cx = cx
        self.degree = j
        fact = _snf_boundary(cx, j)
        hom = homology(cx, j)
        tors = _torsion_indices(fact)
        self.rank = hom.rank
        self.torsion = tuple(fact.diag[i] for i in tors)
        self.n_coords = self.rank + len(tors)
        self.gen_cochains = (
            *(hom.cochain_with_periods(e, RING_Z) for e in _units(self.rank)),
            *(_cochain(cx, RING_Z, j, fact.Vinv[i]) for i in tors))

    def make(self, coords) -> CohomologyClass:
        if len(coords) != self.n_coords:
            raise ValueError("coordinate length mismatch")
        r = self.rank
        return CohomologyClass(self, (*coords[:r], *(
            c % d for c, d in zip(coords[r:], self.torsion))))

    def zero_class(self) -> CohomologyClass:
        return self.make((0,) * self.n_coords)

    def class_from_cocycle(self, coch: Cochain) -> CohomologyClass:
        if coch.ring != RING_Z or coch.degree != self.degree or coch.cx is not self.cx:
            raise RingError("expected an integral cocycle of the right degree")
        if _coboundary_num(coch):
            raise ValueError("cochain is not a cocycle")
        return self.make(cocycle_coords(self.cx, self.degree, coch.num))

    def cochain_for(self, coords) -> Cochain:
        return _cochain(self.cx, RING_Z, self.degree, zlin.combine(
            self.make(coords).coords, [g.num for g in self.gen_cochains]))

    def describe(self) -> str:
        return zlin.describe_group("Z", self.rank, self.torsion)


class QCohomology:
    """H^j(X; Q), coordinatized by evaluation on free homology generators."""

    ring = RING_Q

    def __init__(self, cx: Complex, j: int):
        self.cx = cx
        self.degree = j
        self.hom = homology(cx, j)
        self.rank = self.hom.rank
        self.torsion = ()
        self.free_cycles = self.hom.gen_cycles[:self.rank]

    def make(self, coords) -> CohomologyClass:
        return CohomologyClass(self, tuple(Fraction(c) for c in coords))

    def zero_class(self) -> CohomologyClass:
        return self.make((Fraction(0),) * self.rank)

    def class_from_cocycle(self, coch: Cochain) -> CohomologyClass:
        if coch.ring not in (RING_Z, RING_Q) or coch.degree != self.degree \
                or coch.cx is not self.cx:
            raise RingError("expected a rational cocycle of the right degree")
        if _coboundary_num(coch):
            raise ValueError("cochain is not a cocycle")
        return self.make(tuple(coch.pair(z) for z in self.free_cycles))

    def cochain_for(self, coords) -> Cochain:
        return self.hom.cochain_with_periods(coords, RING_Q)

    def describe(self) -> str:
        return zlin.describe_group("Q", self.rank, self.torsion)


class QmodZCohomology:
    """H^j(X; Q/Z) presented as Hom(H_j(Z), Q/Z).

    Coordinates are evaluations on the homology generator basis: one
    Fraction mod 1 per free generator, and one (with denominator dividing
    the factor) per torsion generator.
    """

    ring = RING_QMODZ

    def __init__(self, cx: Complex, j: int):
        self.cx = cx
        self.degree = j
        self.hom = homology(cx, j)
        self.rank = self.hom.rank  # number of divisible (Q/Z) factors
        self.torsion = self.hom.torsion

    @property
    def n_coords(self):
        return self.rank + len(self.torsion)

    def make(self, coords) -> CohomologyClass:
        coords = [_mod1(c) for c in coords]
        if len(coords) != self.n_coords:
            raise ValueError("coordinate length mismatch")
        for t, d in enumerate(self.torsion):
            v = coords[self.rank + t]
            if d % v.denominator:
                raise ValueError(
                    f"torsion coordinate {v} incompatible with factor {d}")
        return CohomologyClass(self, tuple(coords))

    def zero_class(self) -> CohomologyClass:
        return self.make((Fraction(0),) * self.n_coords)

    def class_from_cocycle(self, coch: Cochain) -> CohomologyClass:
        if coch.ring != RING_QMODZ or coch.degree != self.degree \
                or coch.cx is not self.cx:
            raise RingError("expected a Q/Z cochain of the right degree")
        if any(v % coch.den for v in _coboundary_num(coch).values()):
            raise ValueError("cochain is not a cocycle mod 1")
        return self.make(tuple(coch.pair(z) for z in self.hom.gen_cycles))

    def cochain_for(self, coords) -> Cochain:
        return self.hom.cochain_with_periods(self.make(coords).coords,
                                             RING_QMODZ)

    def describe(self) -> str:
        return zlin.describe_group("Q/Z", self.rank, self.torsion)


def _units(n):
    for t in range(n):
        e = [0] * n
        e[t] = 1
        yield tuple(e)


def cohomology(cx: Complex, j: int, ring: str):
    """The cohomology group of the complex in one of the three rings."""
    key = ("cohomology", ring, j)
    if key not in cx._cache:
        if ring == RING_Z:
            cx._cache[key] = ZCohomology(cx, j)
        elif ring == RING_Q:
            cx._cache[key] = QCohomology(cx, j)
        elif ring == RING_QMODZ:
            cx._cache[key] = QmodZCohomology(cx, j)
        else:
            raise RingError(f"unknown ring {ring!r}")
    return cx._cache[key]


# ---------------------------------------------------------------------------
# integral forms and quotient forms

def is_integral_form(omega: Cochain) -> bool:
    """Closed with integer evaluation on every integer cycle."""
    if omega.ring not in (RING_Z, RING_Q):
        raise RingError("integral forms are rational cochains")
    if _coboundary_num(omega):
        return False
    return omega.den == 1 or not any(
        p % omega.den for p in cycle_periods(omega).values())


class QuotientForm:
    """A rational cochain modulo closed integral-period cochains."""

    __hash__ = None

    def __init__(self, rep: Cochain):
        if rep.ring not in (RING_Z, RING_Q):
            raise RingError("quotient forms are represented by rational cochains")
        self.rep = rep.to_q()

    def __add__(self, other):
        return QuotientForm(self.rep + other.rep)

    def __neg__(self):
        return QuotientForm(-self.rep)

    def __sub__(self, other):
        return QuotientForm(self.rep - other.rep)

    def __eq__(self, other):
        if not isinstance(other, QuotientForm):
            return NotImplemented
        return is_integral_form(self.rep - other.rep)

    def is_zero(self) -> bool:
        return is_integral_form(self.rep)

    def __repr__(self):
        return f"QuotientForm(deg {self.rep.degree} on {self.rep.cx.name})"


def integral_form_generators(cx: Complex, k: int):
    """A finite generating family of the integral forms in degree k, as Z
    cochains: free integral cohomology generators plus coboundaries of the
    integer basis cochains. An iterator: each coboundary is built when it
    is reached, so the family is never held at once."""
    hz = cohomology(cx, k, RING_Z)
    yield from hz.gen_cochains[:hz.rank]
    # the coboundary of the t-th basis (k-1)-cochain is row t of d_k
    for row in cx.boundary_rows(k):
        if row:
            yield _cochain(cx, RING_Z, k, row)


# ---------------------------------------------------------------------------
# Bockstein and the sequence maps

def bockstein(u: CohomologyClass) -> CohomologyClass:
    """Connecting map H^j(Q/Z) -> H^{j+1}(Z): lift a representative cocycle
    to a rational cochain and take the class of its (integral) coboundary."""
    group = u.group
    if group.ring != RING_QMODZ:
        raise RingError("bockstein starts from a Q/Z class")
    rep = group.cochain_for(u.coords)
    return bockstein_of_cocycle(rep)


def bockstein_of_cocycle(rep: Cochain) -> CohomologyClass:
    if rep.ring != RING_QMODZ:
        raise RingError("expected a Q/Z cocycle")
    c = coboundary(_cochain(rep.cx, RING_Q, rep.degree, rep.num, rep.den))
    if c.den != 1:
        raise ValueError("input was not a cocycle mod 1")
    return cohomology(rep.cx, c.degree, RING_Z).class_from_cocycle(
        _cochain(rep.cx, RING_Z, c.degree, c.num))


def alpha(x: CohomologyClass) -> CohomologyClass:
    """Reduction H^j(Q) -> H^j(Q/Z); torsion evaluations vanish rationally."""
    if x.group.ring != RING_Q:
        raise RingError("alpha starts from a rational class")
    g = cohomology(x.group.cx, x.group.degree, RING_QMODZ)
    coords = list(x.coords) + [Fraction(0)] * len(g.torsion)
    return g.make(coords)


def r_to_rational(c: CohomologyClass) -> CohomologyClass:
    """Coefficient inclusion H^j(Z) -> H^j(Q)."""
    if c.group.ring != RING_Z:
        raise RingError("r starts from an integral class")
    g = cohomology(c.group.cx, c.group.degree, RING_Q)
    return g.class_from_cocycle(c.cocycle().to_q())


def beta(x: CohomologyClass) -> QuotientForm:
    """De Rham map H^j(Q) -> forms modulo integral forms."""
    if x.group.ring != RING_Q:
        raise RingError("beta starts from a rational class")
    return QuotientForm(x.group.cochain_for(x.coords))


def s_class_of_form(omega: Cochain) -> CohomologyClass:
    """Cohomology class in H^j(Q) of a closed rational cochain."""
    g = cohomology(omega.cx, omega.degree, RING_Q)
    return g.class_from_cocycle(omega)


def d_of_quotient(theta: QuotientForm) -> Cochain:
    """Coboundary on a representative; lands in the integral forms."""
    return coboundary(theta.rep)


# ---------------------------------------------------------------------------
# exactness of the two long sequences

def _sample_fracs(rng, count=2):
    base = [Fraction(1, 2), Fraction(1, 3)]
    if rng is not None:
        for _ in range(count):
            base.append(Fraction(rng.randrange(1, 7), rng.randrange(2, 7)))
    return base


def check_exactness(cx: Complex, k: int, rng=None) -> list[CheckResult]:
    """Exactness of the Bockstein sequence (alpha, B, r) and the de Rham-type
    sequence (beta, d, s) at the nodes displayed in the character diagram,
    verified constructively on generators. Returns one result per node."""
    hz_prev = cohomology(cx, k - 1, RING_Z)
    hq_prev = cohomology(cx, k - 1, RING_Q)
    hqz_prev = cohomology(cx, k - 1, RING_QMODZ)
    hz_k = cohomology(cx, k, RING_Z)
    results = []
    fracs = _sample_fracs(rng)
    # the integral classes dual to the free homology generators: period 1 on
    # generator i and 0 on the others, None when the constructed cochain is
    # not a cocycle
    duals = []
    for e in _units(hq_prev.rank):
        w = hq_prev.hom.cochain_with_periods(e, RING_Z)
        duals.append(hz_prev.class_from_cocycle(w)
                     if coboundary(w).is_zero() else None)

    # --- Bockstein: ker alpha = im r at H^{k-1}(Q)
    probs, wit = [], []
    for e in _units(hz_prev.n_coords):
        x = r_to_rational(hz_prev.make(e))
        if not alpha(x).is_zero():
            probs.append(("alpha(r(gen)) != 0", e))
    for i, pre in enumerate(duals):
        # the lattice of integer-evaluation classes is spanned by the dual
        # basis vectors; each needs an integral preimage under r
        target = [Fraction(0)] * hq_prev.rank
        target[i] = Fraction(1)
        if pre is None:
            probs.append(("dual preimage is not a cocycle", i))
            continue
        if r_to_rational(pre).coords != tuple(target):
            probs.append(("preimage does not map onto the dual vector", i))
        else:
            wit.append({"dual_index": i, "preimage": list(pre.coords)})
    results.append(check("bockstein.ker_alpha_eq_im_r", not probs,
                         f"{hq_prev.rank} dual generators", {"witnesses": wit, "problems": probs}))

    # --- Bockstein: ker B = im alpha at H^{k-1}(Q/Z)
    probs, wit = [], []
    for i in range(hqz_prev.rank):
        for q in fracs:
            coords = [Fraction(0)] * hqz_prev.n_coords
            coords[i] = q
            phi = hqz_prev.make(coords)
            if not bockstein(phi).is_zero():
                probs.append(("B(alpha image) != 0", i, str(q)))
                continue
            # constructive preimage through alpha
            ratl = hq_prev.make([Fraction(0)] * i + [q] + [Fraction(0)] * (hq_prev.rank - 1 - i))
            if alpha(ratl) != phi:
                probs.append(("rational lift does not reduce to the class", i, str(q)))
            else:
                wit.append({"free_index": i, "value": str(q)})
    for t, d in enumerate(hqz_prev.torsion):
        for m in range(1, d):
            coords = [Fraction(0)] * hqz_prev.n_coords
            coords[hqz_prev.rank + t] = Fraction(m, d)
            img = bockstein(hqz_prev.make(coords))
            if img.is_zero():
                probs.append(("B vanishes on a nonzero torsion dual", t, m))
        coords = [Fraction(0)] * hqz_prev.n_coords
        coords[hqz_prev.rank + t] = Fraction(1, d)
        ordr = _class_order(bockstein(hqz_prev.make(coords)))
        if ordr != d:
            probs.append(("B(torsion dual) has order", t, ordr, "expected", d))
    results.append(check("bockstein.ker_B_eq_im_alpha", not probs,
                         f"{hqz_prev.rank} divisible factors, "
                         f"{len(hqz_prev.torsion)} torsion duals",
                         {"witnesses": wit[:4], "problems": probs}))

    # --- Bockstein: ker r = im B at H^k(Z)
    probs, wit = [], []
    for t, d in enumerate(hz_k.torsion):
        e = [0] * hz_k.n_coords
        e[hz_k.rank + t] = 1
        tors = hz_k.make(e)
        if not r_to_rational(tors).is_zero():
            probs.append(("torsion class survives rationally", t))
            continue
        c = tors.cocycle()
        b = solve_coboundary(cx, k - 1, c.scale(d), integral=True)
        if b is None:
            probs.append(("d*c is not an integral coboundary", t))
            continue
        u = _cochain(cx, RING_QMODZ, k - 1, b.num, d)
        phi = hqz_prev.class_from_cocycle(u)
        if bockstein(phi) != tors:
            probs.append(("constructed Bockstein preimage misses the class", t))
        else:
            wit.append({"torsion_index": t, "order": d})
    for i in range(hqz_prev.rank):
        coords = [Fraction(0)] * hqz_prev.n_coords
        coords[i] = Fraction(1, 2)
        if not r_to_rational(bockstein(hqz_prev.make(coords))).is_zero():
            probs.append(("r(B(phi)) != 0", i))
    results.append(check("bockstein.ker_r_eq_im_B", not probs,
                         f"{len(hz_k.torsion)} torsion generators",
                         {"witnesses": wit, "problems": probs}))

    # --- de Rham: ker beta = im r at H^{k-1}(Q)
    probs, wit = [], []
    for e in _units(hz_prev.n_coords):
        x = r_to_rational(hz_prev.make(e))
        if not beta(x).is_zero():
            probs.append(("beta(r(gen)) != 0", e))
    for i, pre in enumerate(duals):
        if pre is None:
            probs.append(("dual preimage is not a cocycle", i))
        elif not beta(r_to_rational(pre)).is_zero():
            probs.append(("preimage not in ker beta", i))
        else:
            wit.append({"dual_index": i})
    results.append(check("derham.ker_beta_eq_im_r", not probs,
                         f"{hq_prev.rank} dual generators",
                         {"witnesses": wit, "problems": probs}))

    # --- de Rham: ker d = im beta at forms/integral forms (degree k-1)
    probs, wit = [], []
    samples = []
    for i in range(hq_prev.rank):
        for q in fracs[:2]:
            samples.append(hq_prev.make([Fraction(0)] * i + [q]
                                        + [Fraction(0)] * (hq_prev.rank - 1 - i)))
    samples.append(hq_prev.zero_class())
    shift = next(integral_form_generators(cx, k - 1), None)
    for idx, x in enumerate(samples):
        theta = beta(x)
        if not d_of_quotient(theta).is_zero():
            probs.append(("d(beta(x)) != 0", idx))
            continue
        rep = theta.rep if shift is None else theta.rep + shift.to_q()
        closed = QuotientForm(rep)
        back = beta(s_class_of_form(closed.rep))
        if back != closed:
            probs.append(("closed quotient form not recovered through beta", idx))
        else:
            wit.append({"sample": idx})
    results.append(check("derham.ker_d_eq_im_beta", not probs,
                         f"{len(samples)} closed samples",
                         {"witnesses": wit[:4], "problems": probs}))

    # --- de Rham: ker s = im d at integral forms (degree k)
    probs, wit = [], []
    n_prev = cx.n_simplices(k - 1) if k >= 1 else 0
    exact_samples = []
    for t in range(min(n_prev, 4)):
        exact_samples.append(coboundary(basis_cochain(cx, RING_Q, k - 1, t)))
    if n_prev:
        exact_samples.append(coboundary(
            basis_cochain(cx, RING_Q, k - 1, 0).scale(Fraction(1, 3))))
    for idx, omega in enumerate(exact_samples):
        if omega.is_zero():
            continue
        if not s_class_of_form(omega).is_zero():
            probs.append(("exact form has nonzero rational class", idx))
            continue
        rho = solve_coboundary(cx, k - 1, omega, integral=False)
        if rho is None:
            probs.append(("exact form not solvable as a coboundary", idx))
            continue
        theta = QuotientForm(rho)
        if d_of_quotient(theta) != omega:
            probs.append(("primitive does not reproduce the form", idx))
        else:
            wit.append({"sample": idx})
    # s(d(theta)) = 0 for arbitrary quotient forms
    for t in range(min(n_prev, 3)):
        theta = QuotientForm(basis_cochain(cx, RING_Q, k - 1, t).scale(Fraction(1, 2)))
        omega = d_of_quotient(theta)
        if not omega.is_zero() and not s_class_of_form(omega).is_zero():
            probs.append(("s(d(theta)) != 0", t))
    results.append(check("derham.ker_s_eq_im_d", not probs,
                         f"{len(exact_samples)} exact samples",
                         {"witnesses": wit[:4], "problems": probs}))
    return results


def _class_order(c: CohomologyClass):
    """Order of an integral cohomology class, None when infinite."""
    if any(c.coords[:c.group.rank]):
        return None
    order = 1
    for t, d in enumerate(c.group.torsion):
        v = c.coords[c.group.rank + t] % d
        if v:
            order = lcm(order, d // gcd(v, d))
    return order
