"""Finite oriented simplicial complexes, simplicial maps, barycentric
subdivision and closed-star neighborhoods.

Simplices are strictly increasing vertex tuples; the orientation is the
given vertex order and the boundary operator uses the alternating-sign
face convention: face i deletes vertex i and carries the sign (-1)^i, per
simplex in `Complex.faces` and per face position over a whole level in
`Complex.boundary_rows`. Simplex indexing within a dimension is
lexicographic, so every derived object is reproducible.

A j-chain is a sparse dict from j-simplex index to nonzero integer
coefficient, with no zero stored. The chain operations
(`Complex.boundary_of_chain`, `SimplicialMap.push_chain` and
`Subdivision.subdivide_chain`) return new dicts of that form and cost the
nonzeros of their input.

Construction validates by columns: a level of d-simplices is read as its
d + 1 vertex columns (`zip(*level)`), and each check (lengths, strict
increase, duplicates, face closure, images under a vertex map) is one
pass of C-level `map` calls over whole columns. Only when a check fails
does a per-simplex loop run, to name the first culprit in the message.

Face closure is computed in one place, `_face_closure`, also by columns:
the facets of the d-simplices taken join the (d-1)-simplices taken, a
level at a time from the top down. `subcomplex_from_simplices`,
`chain_support` and `closed_star_neighborhood` are that closure applied
to the simplices they select.
"""
from __future__ import annotations

import json
from collections import deque
from itertools import chain, combinations, compress, filterfalse, repeat
from operator import add, eq, is_, itemgetter, le, lt, not_


def _collect(terms) -> dict:
    """The sparse sum of (index, value) terms, as a dict free of zeros."""
    out = {}
    for i, v in terms:
        out[i] = out.get(i, 0) + v
    return {i: v for i, v in out.items() if v}


def _facets(simplices):
    """The faces of equal-length simplices by face position: entry i
    iterates the faces deleting vertex i, one per simplex in order. The
    columns are split once; nothing is built per simplex but the face."""
    cols = list(zip(*simplices))
    return [zip(*(cols[:i] + cols[i + 1:])) for i in range(len(cols))]


class ParseError(Exception):
    pass


class FaceClosureError(Exception):
    pass


class DuplicateError(Exception):
    pass


class MismatchError(Exception):
    pass


class Complex:
    """Immutable simplicial complex. Its boundary operators are stored once
    each, as the cached sparse rows of `boundary_rows`.

    Each level is validated by columns: its lengths, strict increase,
    duplicates and face closure are checked over whole vertex columns.
    The per-simplex loops after a failed check only name the first
    offending simplex (and face), with the message they always gave."""

    def __init__(self, name: str, simplices_by_dim, vertex_count: int | None = None):
        self.name = name
        cleaned = [_checked_level(d, simps)
                   for d, simps in enumerate(simplices_by_dim)]
        while cleaned and not cleaned[-1]:
            cleaned.pop()
        if not cleaned:
            raise ParseError("complex has no simplices")
        max_vertex = cleaned[0][-1][0] if cleaned[0] else -1
        if vertex_count is None:
            vertex_count = max_vertex + 1
        elif vertex_count < max_vertex + 1:
            raise ParseError(f"vertex_count {vertex_count} below maximum index {max_vertex}")
        self.vertex_count = vertex_count
        self.simplices = tuple(cleaned)
        self.index = tuple(dict(zip(level, range(len(level))))
                           for level in cleaned)
        self._validate_closure()
        self._cache: dict = {}

    # -- structure ---------------------------------------------------------

    def _validate_closure(self):
        """Every face of every simplex is listed, checked once per face
        position over the whole level."""
        for d in range(1, len(self.simplices)):
            lower = self.index[d - 1]
            if all(all(map(lower.__contains__, faces))
                   for faces in _facets(self.simplices[d])):
                continue
            for s in self.simplices[d]:
                for i in range(d + 1):
                    face = s[:i] + s[i + 1:]
                    if face not in lower:
                        raise FaceClosureError(f"face {face} of {s} is missing")

    @property
    def dim(self) -> int:
        return len(self.simplices) - 1

    def n_simplices(self, j: int) -> int:
        if 0 <= j <= self.dim:
            return len(self.simplices[j])
        return 0

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(level) for d, level in enumerate(self.simplices))

    def simplex_index(self, s) -> int:
        t = tuple(s)
        d = len(t) - 1
        if not (0 <= d <= self.dim) or t not in self.index[d]:
            raise KeyError(f"{t} is not a simplex of {self.name}")
        return self.index[d][t]

    def faces(self, j: int, c: int):
        """The (face index, sign) pairs of the j-simplex c, for 1 <= j <=
        dim: face i deletes vertex i and carries the sign (-1)^i."""
        s = self.simplices[j][c]
        lower = self.index[j - 1]
        return [(lower[s[:i] + s[i + 1:]], (-1) ** i) for i in range(j + 1)]

    def boundary_rows(self, j: int):
        """The boundary operator C_j -> C_{j-1} as its n_{j-1} rows, one
        per (j-1)-simplex: a sparse dict from the indices of its cofaces
        to their signs, keys ascending; cached. The rows are empty for
        j = dim + 1, and there are none for j <= 0.

        The rows are filled a face position at a time, by C-level lookups
        over the whole level. The levels are sorted, so the cofaces of a
        simplex that delete their vertex i precede those that delete
        vertex i + 1, and each row's keys come out ascending."""
        key = ("boundary", j)
        if key not in self._cache:
            rows = [{} for _ in range(self.n_simplices(j - 1))]
            if 1 <= j <= self.dim:
                lower = self.index[j - 1].__getitem__
                # one int per coface, shared by the rows of its j + 1 faces
                cofaces = list(range(self.n_simplices(j)))
                for i, faces in enumerate(_facets(self.simplices[j])):
                    deque(map(dict.__setitem__,
                              map(rows.__getitem__, map(lower, faces)),
                              cofaces, repeat((-1) ** i)), 0)
            self._cache[key] = rows
        return self._cache[key]

    def boundary_of_chain(self, j: int, vec: dict) -> dict:
        """The boundary of a sparse j-chain, as a sparse (j-1)-chain."""
        if not 1 <= j <= self.dim:
            return {}
        return _collect((r, sign * coef) for c, coef in vec.items()
                        for r, sign in self.faces(j, c))

    def is_cycle(self, j: int, vec: dict) -> bool:
        return not self.boundary_of_chain(j, vec)

    def __repr__(self):
        counts = ",".join(str(len(l)) for l in self.simplices)
        return f"Complex({self.name}: {counts})"


def _checked_level(d: int, simps) -> tuple:
    """The d-simplices as a sorted tuple of tuples, after checking their
    lengths, their strict increase and that none repeats, each over the
    whole level; a failed check reruns the checks simplex by simplex to
    raise for the first offender."""
    level = tuple(map(tuple, simps))
    if set(map(len, level)) <= {d + 1}:
        cols = list(zip(*level))
        if (all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:]))
                and len(set(level)) == len(level)):
            return tuple(sorted(level))
    seen = set()
    for t in level:
        if len(t) != d + 1:
            raise ParseError(f"simplex {t} listed in dimension {d}")
        if any(t[i] >= t[i + 1] for i in range(d)):
            raise ParseError(f"simplex {t} is not strictly increasing")
        if t in seen:
            raise DuplicateError(f"duplicate simplex {t}")
        seen.add(t)
    return tuple(sorted(seen))


def complex_from_maximal(name: str, maximal, vertex_count: int | None = None) -> Complex:
    """Build a complex from maximal simplices, generating all faces."""
    by_dim: dict[int, set] = {}
    listed = set()
    for s in maximal:
        t = tuple(s)
        if len(set(t)) != len(t):
            raise ParseError(f"simplex {t} has repeated vertices")
        if any(t[i] >= t[i + 1] for i in range(len(t) - 1)):
            raise ParseError(f"simplex {t} is not strictly increasing")
        if t in listed:
            raise DuplicateError(f"duplicate simplex {t}")
        listed.add(t)
        for r in range(1, len(t) + 1):
            for f in combinations(t, r):
                by_dim.setdefault(r - 1, set()).add(f)
    if vertex_count is not None:
        for v in range(vertex_count):
            by_dim.setdefault(0, set()).add((v,))
    dims = max(by_dim) if by_dim else 0
    levels = [sorted(by_dim.get(d, ())) for d in range(dims + 1)]
    return Complex(name, levels, vertex_count)


def parse_complex(document: str) -> Complex:
    """Parse the JSON complex-description format.

    Fields: `name`, optional `dimension`, optional `vertices` (count),
    `simplices` = maximal simplices (faces auto-generated), optional
    `explicit` = true to declare `simplices` as the full face-closed list.
    """
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("missing or invalid 'name'")
    simps = doc.get("simplices")
    if not isinstance(simps, list) or not simps:
        raise ParseError("missing or empty 'simplices'")
    for s in simps:
        if not isinstance(s, list) or not all(isinstance(v, int) and v >= 0 for v in s):
            raise ParseError(f"bad simplex entry {s!r}")
    vertices = doc.get("vertices")
    if vertices is not None and (not isinstance(vertices, int) or vertices < 0):
        raise ParseError("'vertices' must be a nonnegative integer")
    if doc.get("explicit", False):
        by_dim: dict[int, list] = {}
        for s in simps:
            by_dim.setdefault(len(s) - 1, []).append(tuple(s))
        levels = [by_dim.get(d, []) for d in range(max(by_dim) + 1)]
        cx = Complex(name, levels, vertices)
    else:
        cx = complex_from_maximal(name, [tuple(s) for s in simps], vertices)
    dimension = doc.get("dimension")
    if dimension is not None and dimension != cx.dim:
        raise ParseError(f"declared dimension {dimension}, actual {cx.dim}")
    return cx


def load_complex(path) -> Complex:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_complex(fh.read())


# ---------------------------------------------------------------------------
# subcomplexes

class Subcomplex:
    """Face-closed selection of simplices of a parent complex."""

    def __init__(self, parent: Complex, included):
        self.parent = parent
        self.included = tuple(frozenset(level) for level in included)
        for d in range(1, len(parent.simplices)):
            lower, index = self.included[d - 1], parent.index[d - 1]
            if all(lower.issuperset(map(index.__getitem__, faces))
                   for faces in _facets(map(parent.simplices[d].__getitem__,
                                            self.included[d]))):
                continue
            for idx in self.included[d]:
                if any(f not in self.included[d - 1]
                       for f, _ in parent.faces(d, idx)):
                    s = parent.simplices[d][idx]
                    raise FaceClosureError(
                        f"subcomplex not face-closed at {s}")

    def is_empty(self) -> bool:
        return all(not level for level in self.included)

    def vertex_set(self):
        return frozenset(self.parent.simplices[0][i][0] for i in self.included[0])

    def as_complex(self, name: str | None = None):
        """Standalone complex plus the inclusion map into the parent.

        Vertices are renumbered order-preservingly, so orientations agree.
        """
        if self.is_empty():
            raise ValueError("empty subcomplex has no standalone complex")
        verts = sorted(self.vertex_set())
        renum = {v: i for i, v in enumerate(verts)}
        levels = []
        for d, level in enumerate(self.included):
            levels.append([tuple(renum[v] for v in self.parent.simplices[d][i])
                           for i in sorted(level)])
        while levels and not levels[-1]:
            levels.pop()
        sub = Complex(name or f"{self.parent.name}|sub", levels, len(verts))
        incl = SimplicialMap(sub, self.parent, verts)
        return sub, incl


def _face_closure(parent: Complex, included) -> Subcomplex:
    """The subcomplex of every face of the given simplices, one set of
    indices per dimension of the parent. The faces are closed downward a
    level at a time, by columns: the facets of the d-simplices taken join
    the (d-1)-simplices taken."""
    included = [set(level) for level in included]
    for d in range(len(included) - 1, 0, -1):
        index = parent.index[d - 1]
        for faces in _facets(map(parent.simplices[d].__getitem__, included[d])):
            included[d - 1].update(map(index.__getitem__, faces))
    return Subcomplex(parent, included)


def subcomplex_from_simplices(parent: Complex, simplices) -> Subcomplex:
    """Face closure of the given simplices inside the parent."""
    included = [set() for _ in parent.simplices]
    for s in map(tuple, simplices):
        included[len(s) - 1].add(parent.index[len(s) - 1][s])
    return _face_closure(parent, included)


def chain_support(parent: Complex, j: int, vec: dict) -> Subcomplex:
    """Face closure of the simplices of a sparse j-chain."""
    included = [set() for _ in parent.simplices]
    included[j].update(vec)
    return _face_closure(parent, included)


def closed_star_neighborhood(parent: Complex, K: Subcomplex) -> Subcomplex:
    """Closed star of K's vertex set: the face closure of every simplex
    meeting it."""
    if K.parent is not parent:
        raise MismatchError("subcomplex belongs to a different complex")
    verts = K.vertex_set()
    return _face_closure(parent, [
        compress(range(len(level)), map(not_, map(verts.isdisjoint, level)))
        for level in parent.simplices])


# ---------------------------------------------------------------------------
# simplicial maps

def _sort_sign(seq):
    """Sorted tuple and permutation parity; None when entries repeat."""
    if len(set(seq)) != len(seq):
        return None, 0
    inv = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                inv += 1
    return tuple(sorted(seq)), (-1) ** inv


class SimplicialMap:
    """Vertex map carrying every source simplex onto a target simplex.

    Validation, `chain_columns` and `is_monotone` read the source by
    columns: each vertex column of a level goes through the vertex map
    once, and the images are zipped back from the mapped columns. An
    image that is a target simplex as it stands (so strictly increasing)
    needs one index lookup and has sign +1; only the other images are
    deduplicated or sorted with their sign. The per-simplex loop after a
    failed validation only names the first source simplex at fault.

    `subdivision` is the `Subdivision` whose `last_vertex` map this is,
    and None for every other map."""

    subdivision = None

    def __init__(self, source: Complex, target: Complex, vertex_map):
        self.source = source
        self.target = target
        vm = tuple(vertex_map)
        if len(vm) != source.vertex_count:
            raise MismatchError("vertex map length differs from vertex count")
        if vm and not 0 <= min(vm) <= max(vm) < target.vertex_count:
            raise MismatchError("vertex map leaves the target vertex range")
        self.vertex_map = vm
        # An image that repeats a vertex spans what the image of the face
        # omitting one repeat spans, checked a level down; so a level
        # needs only its images with distinct vertices checked, sorted.
        for d, level in enumerate(source.simplices):
            index = target.index[d] if d <= target.dim else {}
            images = zip(*self._mapped_columns(d))
            odd = list(filterfalse(index.__contains__, images))
            distinct = compress(odd, map(eq, map(len, map(set, odd)),
                                         repeat(d + 1)))
            if all(map(index.__contains__, map(tuple, map(sorted, distinct)))):
                continue
            for s in level:
                image = tuple(sorted(set(vm[v] for v in s)))
                e = len(image) - 1
                if e > target.dim or image not in target.index[e]:
                    raise MismatchError(
                        f"image of {s} does not span a target simplex")
        self._columns: dict = {}

    def _mapped_columns(self, d: int) -> list:
        """The d + 1 vertex columns of the source d-simplices, each sent
        through the vertex map; zipped, they give the images."""
        get = self.vertex_map.__getitem__
        return [tuple(map(get, col)) for col in zip(*self.source.simplices[d])]

    def chain_columns(self, j: int):
        """Sparse induced chain map: per source j-simplex, (target idx, sign)
        or None for a degenerate image. Every image is degenerate when j
        exceeds the target dimension."""
        if j not in self._columns:
            if not 0 <= j <= self.source.dim:
                cols = ()
            elif j > self.target.dim:
                cols = (None,) * self.source.n_simplices(j)
            else:
                index = self.target.index[j]
                images = list(zip(*self._mapped_columns(j)))
                pos = list(map(index.get, images))
                cols = list(zip(pos, repeat(1)))
                for c in compress(range(len(pos)), map(is_, pos, repeat(None))):
                    image, sign = _sort_sign(images[c])
                    cols[c] = None if image is None else (index[image], sign)
                cols = tuple(cols)
            self._columns[j] = cols
        return self._columns[j]

    def push_chain(self, j: int, vec: dict) -> dict:
        """The image of a sparse j-chain of the source, a sparse j-chain of
        the target; degenerate images drop out."""
        cols = self.chain_columns(j)
        return _collect((e[0], e[1] * coef) for c, coef in vec.items()
                        if (e := cols[c]) is not None)

    def is_monotone(self) -> bool:
        """True when the vertex map is weakly increasing on every simplex,
        which is what cochain-level cup functoriality needs. The consecutive
        vertices of a simplex span an edge, so the edges decide it."""
        if self.source.dim < 1:
            return True
        first, second = self._mapped_columns(1)
        return all(map(le, first, second))


# ---------------------------------------------------------------------------
# barycentric subdivision

def _position_flags(n: int) -> list:
    """Every chain of nonempty subsets of the positions 0..n-1 that ends at
    the full set, smallest subset first; a subset is a sorted tuple."""
    ending: dict = {}
    for r in range(1, n + 1):
        for top in combinations(range(n), r):
            ending[top] = [(top,)] + [
                flag + (top,) for rr in range(1, r)
                for sub in combinations(top, rr) for flag in ending[sub]]
    return ending[tuple(range(n))]


class Subdivision:
    """One barycentric subdivision with carrier and transport data.

    `complex` is the subdivided complex; new vertex i corresponds to the old
    simplex `vertex_carrier[i]` (a (dim, index) pair). `carrier[j][i]` is the
    smallest old simplex containing new j-simplex i. `subdivide_chain(j, vec)`
    applies the subdivision chain map C_j(old) -> C_j(new) to a sparse
    chain, and `last_vertex` is the simplicial map new -> old sending each
    barycenter to the top vertex of its simplex; the two compose to the
    identity on old chains, lambda_# Sd_# = id.

    `pull_cochain` is Sd^*, the transpose of the subdivision chain map:
    (Sd^* x)(sigma) = x(Sd_# sigma). Transposing lambda_# Sd_# = id gives
    Sd^* lambda^* = id on cochains, and Sd_# lambda_# is chain homotopic
    to the identity (Munkres, Elements of Algebraic Topology, 17-18), so
    lambda^* and Sd^* are inverse isomorphisms on cohomology in every
    ring. Sd^* commutes with the coboundary, since Sd_# commutes with the
    boundary. The map `last_vertex` records its subdivision, so a check
    of naturality along it can decide a comparison on sd K by pulling
    both sides back to K, whose groups are already built.
    """

    def __init__(self, base: Complex):
        self.base = base
        offset = []
        total = 0
        for level in base.simplices:
            offset.append(total)
            total += len(level)
        self.vertex_of = offset  # offset[d] + idx = new vertex id
        self.vertex_carrier = tuple(
            (d, i) for d, level in enumerate(base.simplices)
            for i in range(len(level)))

        # The flags (inclusion chains) of the face poset whose top is a
        # d-simplex follow one set of patterns for the whole level: chains
        # of vertex-position subsets ending at all d + 1 positions. So the
        # new vertex ids of each position subset's face are one column, and
        # a pattern's flags are its columns zipped. A flag lists new vertex
        # ids in increasing dimension, so it is strictly increasing.
        by_dim: list[list[tuple]] = [[] for _ in range(base.dim + 1)]
        for d, level in enumerate(base.simplices):
            cols = list(zip(*level))
            ids = {}
            for r in range(d + 1):
                index, off = base.index[r], offset[r]
                for pos in combinations(range(d + 1), r + 1):
                    faces = zip(*map(cols.__getitem__, pos))
                    ids[pos] = tuple(map(add, map(index.__getitem__, faces),
                                         repeat(off)))
            for pattern in _position_flags(d + 1):
                by_dim[len(pattern) - 1].extend(
                    zip(*map(ids.__getitem__, pattern)))
        self.complex = Complex(f"sd({base.name})", by_dim, total)
        # the carrier of a flag is its top simplex
        self.carrier = tuple(
            tuple(map(self.vertex_carrier.__getitem__, map(itemgetter(-1), level)))
            for level in self.complex.simplices)
        lv = tuple(map(itemgetter(-1), chain.from_iterable(base.simplices)))
        self.last_vertex = SimplicialMap(self.complex, base, lv)
        self.last_vertex.subdivision = self
        self._sd_cols: dict = {}

    def new_vertex(self, d: int, idx: int) -> int:
        return self.vertex_of[d] + idx

    def _sd_simplex(self, d: int, idx: int):
        """Subdivision chain of one old simplex: list of (new idx, sign)."""
        key = (d, idx)
        if key in self._sd_cols:
            return self._sd_cols[key]
        if d == 0:
            out = (((self.complex.index[0][(self.new_vertex(0, idx),)]), 1),)
        else:
            apex = self.new_vertex(d, idx)
            acc: dict[int, int] = {}
            for fidx, fsign in self.base.faces(d, idx):
                for new_idx, sign in self._sd_simplex(d - 1, fidx):
                    tup = self.complex.simplices[d - 1][new_idx] + (apex,)
                    ni = self.complex.index[d][tup]
                    acc[ni] = acc.get(ni, 0) + fsign * sign
            par = (-1) ** d  # makes boundary commute with subdivision
            out = tuple((i, par * v) for i, v in sorted(acc.items()) if v)
        self._sd_cols[key] = out
        return out

    def pull_cochain(self, x):
        """Sd^* x on the base complex for a cochain x on the subdivided
        one: its value on base simplex sigma is x(Sd_# sigma), summed over
        the cached `_sd_simplex` columns. A new j-simplex lies in Sd_# of
        its carrier only, and only when that carrier has dimension j, so
        the sum visits the carriers of the nonzeros of x."""
        from .cochains import _cochain
        if x.cx is not self.complex:
            raise MismatchError("cochain does not live on the subdivision")
        j = x.degree
        get = x.num.get
        num = {}
        for d, i in {self.carrier[j][ni] for ni in x.num}:
            if d == j:
                num[i] = sum(sign * get(ni, 0)
                             for ni, sign in self._sd_simplex(j, i))
        return _cochain(self.base, x.ring, j, num, x.den)

    def subdivide_chain(self, j: int, vec: dict) -> dict:
        return _collect((ni, sign * coef) for i, coef in vec.items()
                        for ni, sign in self._sd_simplex(j, i))


def barycentric_subdivide(base: Complex) -> Subdivision:
    key = "subdivision"
    if key not in base._cache:
        base._cache[key] = Subdivision(base)
    return base._cache[key]


def subdivision_tower(base: Complex, levels: int):
    """[Subdivision at depth 1, ..., depth `levels`], cached on the base."""
    tower = []
    cx = base
    for _ in range(levels):
        sd = barycentric_subdivide(cx)
        tower.append(sd)
        cx = sd.complex
    return tower
