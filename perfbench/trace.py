"""Spans around the public functions of each charrig layer.

`Tracer.install` wraps each function named in TARGETS and rebinds every
name in every loaded `charrig` module that refers to the original, so
names bound by `from .x import y` are traced too. Spans (name, start, end,
parent, extra) are kept in memory; `layer_metrics` turns one round's spans
into calls, self time in reference units (see reference.py) and the extra
counts below, and `write` saves the first traced round's spans.
"""
from __future__ import annotations

import bisect
import gzip
import sys
import time

# (module, attribute path) of every traced function
TARGETS = (
    ("simplicial", "load_complex"),
    ("simplicial", "barycentric_subdivide"),
    ("zlin", "smith_normal_form"),
    ("zlin", "vec_dot"),
    ("zlin", "cokernel"),
    ("zlin", "solve_rational_with_fact"),
    ("zlin", "solve_rational"),
    ("cochains", "cohomology"),
    ("cochains", "homology"),
    ("cochains", "cocycle_coords"),
    ("cochains", "coboundary"),
    ("cochains", "Cochain.pair"),
    ("cochains", "cup"),
    ("characters", "phi_direct"),
    ("characters", "phi_inverse"),
    ("characters", "phi_good"),
    ("diffcocycle", "class_equal"),
    ("diffcocycle", "pullback"),
    ("diffcocycle", "preimage_of_form"),
    ("product", "star"),
    ("geometry", "good_neighborhood"),
    ("geometry", "normalize_cycle"),
    ("geometry", "bound_in_good_neighborhood"),
)
OPERATION = "bench.operation"


def _snf_entries(args, kwargs, out):
    a = args[0]
    ncols = kwargs.get("ncols", args[1] if len(args) > 1 else None)
    return len(a) * (len(a[0]) if a else (ncols or 0))


def _neighborhood_simplices(args, kwargs, out):
    return sum(len(level) for level in out.complex.simplices)


# extra count per call: name of the metric and how to compute it
EXTRAS = {
    "zlin.smith_normal_form": ("entries", _snf_entries),
    "geometry.good_neighborhood": ("simplices", _neighborhood_simplices),
}
BUILDS = ("cochains.cohomology", "cochains.homology",
          "simplicial.barycentric_subdivide")


def metric_names() -> list[str]:
    names = []
    for mod, attr in TARGETS:
        base = f"{mod}.{attr}"
        names.append(f"{base}.calls")
        if base in EXTRAS:
            names.append(f"{base}.{EXTRAS[base][0]}")
        if base in BUILDS:
            names.append(f"{base}.builds")
        names.append(f"{base}.self_ref")
    return names + ["other.self_ref"]


class Tracer:
    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, extra]
        self._stack: list = []
        self._seen: dict = {}      # name -> {id: object} of returned objects

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_fn = EXTRAS.get(name, (None, None))[1]
        seen = self._seen.setdefault(name, {}) if name in BUILDS else None
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra_fn is not None:
                span[4] = extra_fn(args, kwargs, out)
            elif seen is not None and id(out) not in seen:
                seen[id(out)] = out
                span[4] = 1
            return out
        return traced

    def install(self):
        """Wrap the targets in the charrig modules loaded now."""
        mods = [m for n, m in sys.modules.items()
                if n == "charrig" or n.startswith("charrig.")]
        for mod_name, attr in TARGETS:
            owner = sys.modules[f"charrig.{mod_name}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            orig = getattr(owner, leaf)
            wrapped = self._wrap(f"{mod_name}.{attr}", orig)
            setattr(owner, leaf, wrapped)
            if path:
                continue
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)

    def operation(self, fn, *args):
        return self._wrap(OPERATION, fn)(*args)

    def start_round(self) -> int:
        for seen in self._seen.values():
            seen.clear()
        return len(self.spans)

    def keep_first_round(self, first: int):
        """Drop the spans recorded since `first` unless they are the first
        round's, so memory does not grow with the number of rounds."""
        if first:
            del self.spans[first:]

    def layer_metrics(self, first: int, windows) -> dict:
        """Calls, extra counts and self time per traced function over the
        spans recorded since index `first`. Self time is in reference
        units: `windows` holds (start, end, reference units per second) of
        the set-up and of each operation, sorted by start, and a span's
        self seconds are scaled by the factor of the window it starts in."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= first:
                child[parent - first] += t1 - t0
        starts = [w[0] for w in windows]
        out = {n: 0 for n in metric_names()}
        for i, (name, t0, t1, parent, extra) in enumerate(spans):
            k = max(0, bisect.bisect_right(starts, t0) - 1)
            self_ref = (t1 - t0 - child[i]) * windows[k][2]
            if name == OPERATION:
                out["other.self_ref"] += self_ref
                continue
            out[f"{name}.calls"] += 1
            out[f"{name}.self_ref"] += self_ref
            if name in EXTRAS:
                out[f"{name}.{EXTRAS[name][0]}"] += extra
            elif name in BUILDS:
                out[f"{name}.builds"] += extra
        return out

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\textra\n")
            for name, t0, t1, parent, extra in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{extra}\n")
