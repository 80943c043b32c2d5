"""Exact integer and rational linear algebra.

Everything here works with arbitrary-precision Python ints and Fractions;
no floating point is used anywhere. The central routine is a Smith normal
form with unimodular transforms (and their inverses), from which integer
solvability, cokernels and finitely generated abelian group presentations
are derived; a kernel basis is the columns of V past the rank, read
sparse where it is needed. The factorization is sparse throughout: it
takes its rows as dense sequences or as dicts from column index to
nonzero int (the boundary operators and the relation matrices of the
homology presentations come as dicts), and the working matrix and the
four transforms are dicts, so an elementary operation costs the nonzeros
it touches. A column swap relabels two columns instead of moving their
entries, and the pivot scan passes each empty row once, so the
elimination costs the entries it changes, not the rows and columns of
the matrix. The elimination updates the working matrix only and logs its
operations; each transform is replayed from the log on first read, so a
reader pays only for the transforms it reads. A group presentation
(`cokernel`) builds only the rows of U and columns of Uinv it picks, in
one backward pass over the row log, and caches nothing; so the
presentation of H_0, which reads the factorization of the boundary
operator d_1 itself, leaves that factorization as it found it. A
boundary factorization builds U only once something solves against it.

Solves cost what their right side touches. A factorization indexes V by
rows on first use (`SNFResult.V_rows`), so V^T b is summed over the
nonzero entries of b only; the division by the diagonal and the final
combination run over the nonzero coordinates, as sparse dicts. A
factorization that is never solved against never builds the index.

Chains, cochain numerators, solve vectors and cycle coordinates are one
format: a dict from index to nonzero int (or Fraction). Every pairing goes
through `vec_dot`, which visits the smaller dict, and every combination of
sparse rows through `combine`; `dense` spells a vector out only for
`Cochain.values` and `Pseudomanifold.serialize`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm


class ShapeError(Exception):
    pass


# ---------------------------------------------------------------------------
# exact vectors: pairing and linear combination

def _entries(v):
    """(index, value) pairs of a dense sequence or of a sparse dict."""
    return v.items() if isinstance(v, dict) else enumerate(v)


def vec_dot(u: dict, v: dict):
    """sum of u[i] * v[i] over the indices that both sparse vectors hold,
    visiting the smaller one."""
    if len(u) > len(v):
        u, v = v, u
    get = v.get
    return sum(x * get(i, 0) for i, x in u.items())


def combine(coeffs, rows) -> dict:
    """sum of coeffs[t] * rows[t] over the nonzero coefficients, as a
    sparse dict free of zeros; the rows are sparse dicts, and coeffs a
    dense sequence or a sparse dict {t: c_t}."""
    out = {}
    for t, c in _entries(coeffs):
        if c:
            _axpy(out, rows[t], c)
    return out


def dense(v: dict, n: int) -> list:
    """The sparse vector v as a length-n list."""
    out = [0] * n
    for i, x in v.items():
        out[i] = x
    return out


def _axpy(dst: dict, src: dict, q: int) -> None:
    """dst += q * src on sparse vectors, dropping the entries that cancel."""
    for j, x in src.items():
        new = dst.get(j, 0) + q * x
        if new:
            dst[j] = new
        else:
            dst.pop(j, None)


def _sparse_identity(n: int) -> list:
    return [{i: 1} for i in range(n)]


# ---------------------------------------------------------------------------
# Smith normal form

def _replay(n: int, log: list, inverse: bool) -> list:
    """A transform as sparse vectors, replayed from the identity on Z^n.

    Each log entry (i, t, q) is one elementary operation on the working
    matrix: with q != 0, line i -= q * line t; with q == 0 and i != t, a
    swap of lines i and t; with q == 0 and i == t, a negation of line i.
    The transform (U by rows, V by columns) applies the operation itself,
    its inverse (Uinv by columns, Vinv by rows) the inverse operation on
    the other side, which is vec_t += q * vec_i."""
    vecs = _sparse_identity(n)
    for i, t, q in log:
        if q:
            if inverse:
                _axpy(vecs[t], vecs[i], q)
            else:
                _axpy(vecs[i], vecs[t], -q)
        elif i != t:
            vecs[i], vecs[t] = vecs[t], vecs[i]
        else:
            vec = vecs[i]
            for j in vec:
                vec[j] = -vec[j]
    return vecs


@dataclass(frozen=True)
class SNFResult:
    """U @ A @ V == S with U, V unimodular.

    S is diagonal with nonnegative entries d_0 | d_1 | ... (zeros trailing);
    only the diagonal is stored. The elimination records its row and
    column operations in two logs (see `_replay`), and U, Uinv, V and Vinv
    are each built from them on first read and kept: a reader pays only
    for the transforms it reads, and an inverse costs one pass over its
    log, not another elimination.

    Each transform is a list of sparse vectors, dicts from index to nonzero
    int: U and Vinv by rows (U[i] is row i), V and Uinv by columns (V[j] is
    column j). The dicts are shared with every reader of a cached
    factorization and are read-only.

    `V_rows` is V by rows, V_rows[i] a dict ascending in the column
    index: built on first read and kept, it costs as much memory as V
    again, and lets a solve or a period reading visit only the rows of V
    where its input is nonzero.
    """
    shape: tuple[int, int]
    diag: tuple[int, ...]
    rank: int  # the number of nonzero d_i
    row_log: list
    col_log: list

    @cached_property
    def U(self) -> list:
        return _replay(self.shape[0], self.row_log, False)

    @cached_property
    def Uinv(self) -> list:
        return _replay(self.shape[0], self.row_log, True)

    @cached_property
    def V(self) -> list:
        return _replay(self.shape[1], self.col_log, False)

    @cached_property
    def Vinv(self) -> list:
        return _replay(self.shape[1], self.col_log, True)

    @cached_property
    def V_rows(self) -> list:
        rows = [{} for _ in range(self.shape[1])]
        for j, col in enumerate(self.V):
            for i, x in col.items():
                rows[i][j] = x
        return rows


def _integer_rows(a) -> list:
    """Working copies of the rows of `a` as dicts from column index to
    nonzero int, without touching `a`. Each row is copied with `dict` and
    the value types are checked in one C-level pass; only when some value
    is not an int are the entries converted one by one, and a value that
    is not integral is a ValueError."""
    rows = [dict(r) if isinstance(r, dict) else dict(enumerate(r)) for r in a]
    if set(map(type, chain.from_iterable(map(dict.values, rows)))) <= {int}:
        return [r if 0 not in r.values() else {j: x for j, x in r.items() if x}
                for r in rows]
    ints = [{j: int(x) for j, x in r.items() if x} for r in rows]
    if any(v != r[j] for row, r in zip(ints, rows) for j, v in row.items()):
        raise ValueError("Smith normal form needs an integer matrix")
    return ints


def smith_normal_form(a, ncols: int | None = None) -> SNFResult:
    """Smith normal form over Z.

    Pivot choice: smallest absolute value in the active submatrix, ties
    broken by row index then column index, which keeps the result
    deterministic and bounds coefficient growth.

    Each row of `a` is a dense sequence or a dict from column index to
    value, in any key order; `a` itself is never changed. `ncols` gives
    the column count, which dict rows and a 0-row matrix cannot express;
    without it, the length of the first row. A matrix without rows
    returns at once.

    Only the working matrix is updated; each operation is appended to the
    row or column log from which `SNFResult` builds the transforms. One
    step handles every pivot p: a floor-division row operation per row
    clears column t down to remainders below p, after which column t
    holds only p, so clearing row t touches row t alone and its column
    operations are only logged, with their remainders kept in row t. A
    remainder left in column t or row t, or a row that p does not divide
    (added to row t by the divisibility sweep), sends the elimination
    back to the pivot choice. A unit pivot leaves no remainder, and over
    99 % of the pivots of the boundary operators and presentations in the
    perfbench workloads are units, where eliminating units first pays
    most (Dumas, Saunders and Villard, J. Symb. Comp. 32, 2001).

    The elimination costs the entries it changes. A column swap relabels
    two columns and moves no entry: the rows keep their physical column
    keys, `col` maps each logical column to its physical one and `pos`
    inverts it, and the logs speak of logical columns. A row that is
    empty stays empty (a row operation only changes rows holding column
    t, the sweep adds into row t, and a swap brings only the nonempty
    pivot row to t), so the pivot scan and the sweep pass each empty row
    once: `nxt` links an empty row to the next row not known to be empty,
    with path compression. A row operation updates the row and the
    column sets in one pass over the pivot row.
    """
    m = len(a)
    n = ncols if ncols is not None else (len(a[0]) if m else 0)
    if not m:
        return SNFResult((0, n), (), 0, [], [])
    rows = _integer_rows(a)
    col_rows = [set() for _ in range(n)]  # physical column -> rows holding it
    for i, r in enumerate(rows):
        for j in r:
            col_rows[j].add(i)
    col = list(range(n))  # logical column -> physical column
    pos = list(range(n))  # physical column -> logical column
    nxt = list(range(m + 1))  # rows i .. nxt[i] - 1 are empty; nxt[m] == m
    row_log, col_log = [], []

    def skip(i):
        # the first row at or after i not known to be empty, marking the
        # empty rows passed and pointing the path walked at the result
        j = i
        while nxt[j] != j or (j < m and not rows[j]):
            if nxt[j] == j:
                nxt[j] = j + 1
            j = nxt[j]
        while i != j:
            nxt[i], i = j, nxt[i]
        return j

    def row_op(i, t, q):
        # row_i -= q * row_t
        ri = rows[i]
        get = ri.get
        for j, x in rows[t].items():
            v = get(j)
            if v is None:
                ri[j] = -q * x
                col_rows[j].add(i)
            else:
                v -= q * x
                if v:
                    ri[j] = v
                else:
                    del ri[j]
                    col_rows[j].discard(i)
        row_log.append((i, t, q))

    def row_swap(i, t):
        ri, rt = rows[i], rows[t]
        for j in ri.keys() - rt.keys():
            s = col_rows[j]
            s.discard(i)
            s.add(t)
        for j in rt.keys() - ri.keys():
            s = col_rows[j]
            s.discard(t)
            s.add(i)
        rows[i], rows[t] = rt, ri
        nxt[t] = t  # a scan may have passed position t while it was empty
        row_log.append((i, t, 0))

    def col_swap(j, t):
        pj, pt = col[t], col[j]
        col[j], col[t] = pj, pt
        pos[pj], pos[pt] = j, t
        col_log.append((j, t, 0))

    def find_pivot(t):
        # (|entry|, logical column) least in the first row holding the
        # least |entry|; rows from t on hold no column left of t
        best = bi = None
        i = skip(t)
        while i < m:
            r = rows[i]
            key = min(zip(map(abs, r.values()), map(pos.__getitem__, r)))
            if best is None or key[0] < best[0]:
                best, bi = key, i
                if key[0] == 1:
                    break  # no later row beats a unit found in an earlier one
            i = skip(i + 1)
        return None if bi is None else (bi, best[1])

    diag = []
    t = 0
    limit = min(m, n)
    while t < limit:
        piv = find_pivot(t)
        if piv is None:
            break
        if piv[0] != t:
            row_swap(piv[0], t)
        if piv[1] != t:
            col_swap(piv[1], t)
        ct = col[t]
        rt = rows[t]
        if rt[ct] < 0:
            for j in rt:
                rt[j] = -rt[j]
            row_log.append((t, t, 0))
        # p is the smallest |entry| of the active block, so no quotient
        # below is 0 (`_replay` would read a logged 0 as a swap). Each
        # `continue` picks a strictly smaller pivot, so the loop ends: a
        # cleared column or row may leave a remainder below p, and after
        # the sweep the next pass picks (t, t) again and leaves one in row t.
        p = rt[ct]
        in_col = col_rows[ct]
        for i in sorted(in_col):
            if i != t:
                row_op(i, t, rows[i][ct] // p)
        if len(in_col) > 1:
            continue
        # column t holds only p, so a column operation touches row t alone
        for lj in sorted(map(pos.__getitem__, rt)):
            if lj != t:
                j = col[lj]
                q, r = divmod(rt[j], p)
                col_log.append((lj, t, q))
                if r:
                    rt[j] = r
                else:
                    del rt[j]
                    col_rows[j].discard(t)
        if len(rt) > 1:
            continue
        if p > 1:
            # divisibility sweep: p must divide the rest of the block
            i = skip(t + 1)
            while i < m and not any(v % p for v in rows[i].values()):
                i = skip(i + 1)
            if i < m:
                row_op(t, i, -1)  # row_t += row_i
                continue
        diag.append(p)
        t += 1
    rank = len(diag)
    diag.extend([0] * (limit - rank))
    return SNFResult((m, n), tuple(diag), rank, row_log, col_log)


def describe_group(free: str, rank: int, torsion) -> str:
    """A group as `rank` copies of the factor `free` (Z, Q or Q/Z), then
    Z/d for each torsion factor d, joined by " + "; "0" when trivial."""
    parts = [free] * rank + [f"Z/{d}" for d in torsion]
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FgAbelianGroup:
    """Finitely generated abelian group Z^rank + sum of Z/d_i.

    Coordinates are (free part, then torsion part); `gen_lift` columns send
    coordinate vectors to the ambient Z^m, and `project` is a left inverse,
    so project(gen_lift(x)) == reduce(x).
    """
    rank: int
    torsion: tuple[int, ...]
    gen_lift: tuple  # sparse ambient column vectors, one per coordinate
    _proj_rows: tuple  # sparse rows of U picking out each coordinate

    @property
    def n_coords(self) -> int:
        return self.rank + len(self.torsion)

    def reduce(self, coords):
        coords = list(coords)
        if len(coords) != self.n_coords:
            raise ShapeError("coordinate length mismatch")
        for i, d in enumerate(self.torsion):
            coords[self.rank + i] %= d
        return tuple(coords)

    def project(self, v: dict) -> tuple:
        """Coordinates of the class of a sparse ambient vector."""
        return self.reduce([vec_dot(row, v) for row in self._proj_rows])

    def lift(self, coords) -> dict:
        """A sparse ambient representative of the class with these coordinates."""
        return combine(self.reduce(coords), self.gen_lift)

    def describe(self) -> str:
        return describe_group("Z", self.rank, self.torsion)


def _add_line(lines: list, dst: int, src: int, c: int) -> None:
    """lines[dst] += c * lines[src] on sparse lines, where None is zero."""
    if lines[src]:
        if lines[dst] is None:
            lines[dst] = {}
        _axpy(lines[dst], lines[src], c)


def cokernel(fact: SNFResult) -> FgAbelianGroup:
    """Presentation of Z^m / im(A) from the factorization U A V = S of A,
    m the number of rows. Only the picked rows of U and columns of Uinv
    are built, in one backward pass over the row log, with ascending
    keys; nothing is cached on `fact`, which may be a shared boundary
    factorization.

    With U = E_K ... E_1, a picked row e_p^T U takes the operations from
    the last: (i, t, q) sends entry t to entry t - q * entry i; and a
    picked column Uinv e_p = E_1^-1 ... E_K^-1 e_p too: entry i goes to
    entry i + q * entry t. A swap exchanges entries i and t of both, a
    negation negates entry i. The picked vectors are held side by side,
    by ambient line, so an operation costs the picked vectors that are
    nonzero on the line it reads."""
    m = fact.shape[0]
    free_idx = list(range(fact.rank, m))
    tors_idx = [i for i in range(fact.rank) if fact.diag[i] > 1]
    torsion = tuple(fact.diag[i] for i in tors_idx)
    picked = free_idx + tors_idx
    # by ambient line x: {k: entry x of picked row k of U} and {k: entry
    # x of picked column k of Uinv}; None (or {}) where every entry is 0
    u, w = [None] * m, [None] * m
    for k, x in enumerate(picked):
        u[x], w[x] = {k: 1}, {k: 1}
    for i, t, q in reversed(fact.row_log):
        if q:
            _add_line(u, t, i, -q)
            _add_line(w, i, t, q)
        elif i != t:
            u[i], u[t] = u[t], u[i]
            w[i], w[t] = w[t], w[i]
        else:
            for vec in (u[i], w[i]):
                for k in vec or ():
                    vec[k] = -vec[k]
    proj, lift = [{} for _ in picked], [{} for _ in picked]
    for lines, vecs in ((u, proj), (w, lift)):
        for x, line in enumerate(lines):
            for k, v in (line or {}).items():
                vecs[k][x] = v
    return FgAbelianGroup(len(free_idx), torsion, tuple(lift), tuple(proj))


# ---------------------------------------------------------------------------
# solves through a Smith factorization

def _divide_by_diag(fact: SNFResult, c: dict, integral: bool):
    """Integers y_t and e > 0 with d_t y_t = e c_t, for the nonzero entries
    {t: c_t} of an integer vector c; y is a dict over the same t, and
    e = 1 for an integral solve. None when some c_t past the rank is
    nonzero or, for an integral solve, some d_t does not divide c_t."""
    r, diag = fact.rank, fact.diag
    if any(t >= r for t in c):
        return None
    if integral:
        if any(ct % diag[t] for t, ct in c.items()):
            return None
        return {t: ct // diag[t] for t, ct in c.items()}, 1
    e = lcm(*(diag[t] // gcd(ct, diag[t]) for t, ct in c.items()))
    return {t: ct * e // diag[t] for t, ct in c.items()}, e


def _solve(fact: SNFResult, b: dict, integral: bool):
    """x with A x = b through U A V = S: S y = U b, x = V y, for sparse b
    and x; b may hold Fractions, and a rational x comes back as Fractions.
    An index of b outside the rows of A is a ShapeError."""
    m = fact.shape[0]
    if b and (min(b) < 0 or max(b) >= m):
        raise ShapeError(f"rhs index outside the {m} rows")
    q = lcm(*(v.denominator for v in b.values()))
    if integral and q != 1:
        return None
    ub = ((t, int(vec_dot(row, b) * q)) for t, row in enumerate(fact.U))
    sol = _divide_by_diag(fact, {t: ct for t, ct in ub if ct}, integral)
    if sol is None:
        return None
    y, e = sol
    x = combine(y, fact.V)
    return x if integral else {i: Fraction(v, e * q) for i, v in x.items()}


def solve_transposed(fact: SNFResult, b: dict, integral: bool):
    """Integers x and e > 0 with A^T x = e b, for an integer vector b given
    as a sparse dict {i: b_i} over the columns of A, from the factorization
    U A V = S of A itself, so A^T = Vinv^T S^T Uinv^T: S^T y = V^T b and
    x = U^T y. x is a sparse dict free of zeros; e = 1 when `integral`;
    None when there is no solution (over Z when `integral`, else over Q).
    V^T b is summed over the rows of V where b is nonzero, and x over the
    rows of U where y is nonzero."""
    rows = fact.V_rows
    w = {}
    for i, bi in b.items():
        for t, v in rows[i].items():
            w[t] = w.get(t, 0) + bi * v
    sol = _divide_by_diag(fact, {t: wt for t, wt in w.items() if wt}, integral)
    if sol is None:
        return None
    y, e = sol
    return combine(y, fact.U), e


def solve_integer(fact: SNFResult, b: dict):
    """One integer solution x of A x = b through the factorization of A
    (sparse b and x, see `_solve`), or None if unsolvable over Z."""
    return _solve(fact, b, integral=True)


def solve_rational_with_fact(fact: SNFResult, b: dict):
    """Rational solution of A x = b through an existing Smith factorization
    of the integer matrix A (sparse b and x), or None when inconsistent."""
    return _solve(fact, b, integral=False)


def solve_rational(a, b: dict, ncols: int | None = None):
    """One rational solution x of a @ x == b for an integer matrix a and a
    sparse rational right side b, or None when inconsistent."""
    return solve_rational_with_fact(smith_normal_form(a, ncols=ncols), b)
