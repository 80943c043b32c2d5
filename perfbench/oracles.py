"""Correctness oracles made apart from the program under test.

`inspect` and `pseudo.bounding` report `pass` whatever they compute, so
their outputs are checked here against:

- the textbook homology of each space, which must hold at every
  subdivision level;
- the Euler characteristic from simplex counts;
- for the shipped complexes, sympy's invariant factors of boundary
  matrices built here from the maximal simplices;
- for the shipped cycles, an integer solve of d b = z.

Every report's `canonical_sha256` is recomputed from its canonical bytes,
every check must pass, and a contingent check may instead fail with a
witness.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from itertools import combinations
from pathlib import Path

# Integral homology H_j = Z^b + torsion, j = 0, 1, 2.
TEXTBOOK = {
    "point": [(1, ())],
    "interval": [(1, ())],
    "s1": [(1, ()), (1, ())],
    "s2": [(1, ()), (0, ()), (1, ())],
    "t2": [(1, ()), (2, ()), (1, ())],
    "rp2": [(1, ()), (0, (2,)), (0, ())],
    "klein": [(1, ()), (1, (2,)), (0, ())],
    "moore_z3": [(1, ()), (0, (3,)), (0, ())],
}

_GROUP = re.compile(r"inspect\.H(\d+)\((\w+)\)")
_FORMS = re.compile(r"inspect\.integral_forms_(\d+)")


def _homology(space: str, j: int):
    table = TEXTBOOK[space]
    return table[j] if 0 <= j < len(table) else (0, ())


def expected_cohomology(space: str, j: int) -> dict:
    """(rank, torsion) of H^j in each coefficient ring, by universal
    coefficients: H^j(Z) = Z^b_j + T_{j-1}, H^j(Q) = Q^b_j,
    H^j(Q/Z) = (Q/Z)^b_j + T_j."""
    b, t = _homology(space, j)
    return {"Z": (b, tuple(sorted(_homology(space, j - 1)[1]))),
            "Q": (b, ()),
            "QmodZ": (b, tuple(sorted(t)))}


def parse_group(text: str) -> tuple:
    """'Z + Z + Z/2' (or Q, Q/Z parts) -> (rank, sorted torsion)."""
    if text == "0":
        return (0, ())
    rank, torsion = 0, []
    for part in text.split(" + "):
        if part in ("Z", "Q", "Q/Z"):
            rank += 1
        elif part.startswith("Z/"):
            torsion.append(int(part[2:]))
        else:
            raise ValueError(f"unreadable group {text!r}")
    return (rank, tuple(sorted(torsion)))


def canonical_hash_problem(doc: dict) -> str | None:
    doc = dict(doc)
    claimed = doc.pop("canonical_sha256")
    doc.pop("timings_ms", None)
    body = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    if hashlib.sha256(body).hexdigest() != claimed:
        return "canonical_sha256 does not match the canonical bytes"
    return None


class Checker:
    """Collects problems found in the operations' outputs."""

    def __init__(self, corpus_dir: Path):
        self.corpus_dir = corpus_dir
        self.problems: list[str] = []
        self.groups: dict = {}     # space at level 0 -> {(j, ring): group}
        self.bounds: dict = {}     # (space, cycle) -> bool claimed

    def _fail(self, label: str, what: str):
        self.problems.append(f"{label}: {what}")

    def check(self, op, cx, rep):
        # read at each call: every set-up imports charrig afresh
        contingent = sys.modules["charrig.product"].CONTINGENT_CHECKS
        label = op.label()
        doc = json.loads(rep.render("canonical"))
        problem = canonical_hash_problem(doc)
        if problem:
            self._fail(label, problem)
        for c in doc["checks"]:
            if c["status"] == "pass":
                continue
            if (c["name"] in contingent and c["status"] == "fail"
                    and c["witness"]):
                continue
            self._fail(label, f"check {c['name']} is {c['status']}")
        if op.command == "inspect":
            self._inspect(op, cx, doc, label)
        elif op.command == "pseudo":
            self._pseudo(op, doc, label)

    def _inspect(self, op, cx, doc, label):
        counts = [len(level) for level in cx.simplices]
        euler = sum((-1) ** d * n for d, n in enumerate(counts))
        seen = {}
        alternating = 0
        for c in doc["checks"]:
            m = _GROUP.fullmatch(c["name"])
            if m:
                j, ring = int(m.group(1)), m.group(2)
                got = parse_group(c["detail"])
                seen[(j, ring)] = got
                if got != expected_cohomology(op.space, j)[ring]:
                    self._fail(label, f"H^{j}({ring}) = {c['detail']}")
                if ring == "Z":
                    alternating += (-1) ** j * got[0]
                continue
            m = _FORMS.fullmatch(c["name"])
            if m:
                # one per free class and per (j-1)-simplex with a coface
                j = int(m.group(1))
                top = cx.simplices[j] if j < len(counts) else ()
                faces = {s[:i] + s[i + 1:] for s in top for i in range(len(s))}
                want = _homology(op.space, j)[0] + (len(faces) if j else 0)
                got = int(c["detail"].split()[0])
                if got != want:
                    self._fail(label, f"{got} integral form generators in "
                                      f"degree {j}, expected {want}")
        if len(seen) != 3 * (len(counts) + 1):
            self._fail(label, f"reported {len(seen)} groups")
        if alternating != euler:
            self._fail(label, f"alternating rank sum {alternating} differs "
                              f"from Euler characteristic {euler}")
        if op.level == 0:
            self.groups[op.space] = seen

    def _pseudo(self, op, doc, label):
        details = [c["detail"] for c in doc["checks"]
                   if c["name"] == "pseudo.bounding"]
        if len(details) != 1:
            self._fail(label, "no pseudo.bounding check")
            return
        self.bounds[(op.space, op.params["cycle"])] = \
            details[0].startswith("bounds inside")

    def finish(self):
        """The sympy oracles, on every shipped complex and cycle seen."""
        if not self.groups and not self.bounds:
            return
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        def factors(rows, ncols):
            if not rows or not ncols:
                return ()
            return tuple(int(f) for f in
                         invariant_factors(Matrix(rows), domain=ZZ) if f)

        boundary_cache = {}

        def boundaries(space):
            if space not in boundary_cache:
                boundary_cache[space] = _boundary_matrices(
                    self.corpus_dir / f"{space}.json")
            return boundary_cache[space]

        for space, seen in sorted(self.groups.items()):
            simplices, mats = boundaries(space)
            top = len(simplices) - 1
            fs = [factors(mats[j], len(simplices[j])) if j <= top else ()
                  for j in range(top + 3)]
            for j in range(top + 2):
                n_j = len(simplices[j]) if j <= top else 0
                b = n_j - len(fs[j]) - len(fs[j + 1])
                t_j = tuple(sorted(f for f in fs[j + 1] if f > 1))
                t_prev = tuple(sorted(f for f in fs[j] if f > 1))
                want = {"Z": (b, t_prev), "Q": (b, ()), "QmodZ": (b, t_j)}
                for ring, group in want.items():
                    if seen.get((j, ring)) != group:
                        self._fail(f"inspect sd0({space})",
                                   f"H^{j}({ring}) = {seen.get((j, ring))}, "
                                   f"sympy gives {group}")
        for (space, cycle), claimed in sorted(self.bounds.items()):
            simplices, mats = boundaries(space)
            cdoc = json.loads((self.corpus_dir / "cycles" / f"{cycle}.json")
                              .read_text())
            d = cdoc["degree"]
            index = {s: i for i, s in enumerate(simplices[d])}
            z = [0] * len(simplices[d])
            for s, coef in cdoc["chain"]:
                z[index[tuple(s)]] += coef
            if d + 1 >= len(simplices):
                bounds = not any(z)
            else:
                a = mats[d + 1]
                fa = factors(a, len(simplices[d + 1]))
                fz = factors([row + [zi] for row, zi in zip(a, z)],
                             len(simplices[d + 1]) + 1)
                bounds = len(fa) == len(fz) and math.prod(fa) == math.prod(fz)
            if bounds != claimed:
                self._fail(f"pseudo {space} cycle={cycle}",
                           f"program says bounds={claimed}, integer solve "
                           f"says {bounds}")


def _boundary_matrices(path: Path):
    """Simplices per dimension from the maximal simplices of a complex file,
    and the boundary matrices d_j : C_j -> C_{j-1} (dense, rows = faces)."""
    doc = json.loads(path.read_text())
    by_dim: dict[int, set] = {}
    for s in doc["simplices"]:
        for r in range(1, len(s) + 1):
            for f in combinations(sorted(s), r):
                by_dim.setdefault(r - 1, set()).add(f)
    simplices = [sorted(by_dim[d]) for d in range(max(by_dim) + 1)]
    mats = [[]]
    for j in range(1, len(simplices)):
        row_of = {f: i for i, f in enumerate(simplices[j - 1])}
        mat = [[0] * len(simplices[j]) for _ in simplices[j - 1]]
        for col, s in enumerate(simplices[j]):
            for i in range(len(s)):
                mat[row_of[s[:i] + s[i + 1:]]][col] += (-1) ** i
        mats.append(mat)
    return simplices, mats
