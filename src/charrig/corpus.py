"""Locating and loading the shipped corpus of complexes and cycles.

Resolution order for a name: an existing path as given, the name plus
.json, then the same two inside the corpus directory (the CHARRIG_CORPUS
environment variable when set, else the files packaged with the library).
"""
from __future__ import annotations

import json
import os
from pathlib import Path

from .simplicial import Complex, ParseError, load_complex

CORPUS_NAMES = ("point", "interval", "s1", "s2", "t2", "rp2", "klein", "moore_z3")


def corpus_dir() -> Path:
    env = os.environ.get("CHARRIG_CORPUS")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "corpus"


def resolve(name: str, kind: str = "complex") -> Path:
    sub = corpus_dir() if kind == "complex" else corpus_dir() / "cycles"
    candidates = [Path(name), Path(str(name) + ".json"),
                  sub / name, sub / (str(name) + ".json")]
    for cand in candidates:
        if cand.is_file():
            return cand
    raise FileNotFoundError(f"no {kind} file found for {name!r}")


_loaded: dict = {}


def load(name: str) -> Complex:
    """Load a corpus complex by name or path, cached by resolved path."""
    path = resolve(name)
    key = str(path)
    if key not in _loaded:
        _loaded[key] = load_complex(path)
    return _loaded[key]


def load_cycle(name: str, cx: Complex):
    """Load a cycle file; returns (degree, sparse chain on cx). A ParseError
    when the entries cancel to the zero chain."""
    path = resolve(name, kind="cycle")
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "degree" not in doc or "chain" not in doc:
        raise ParseError(f"cycle file {path} needs 'degree' and 'chain'")
    want = doc.get("complex")
    if want is not None and want != cx.name:
        raise ParseError(f"cycle file targets complex {want!r}, got {cx.name!r}")
    d, chain = doc["degree"], doc["chain"]
    if not _is_int(d) or not 0 <= d <= cx.dim:
        raise ParseError(f"cycle file {path}: degree {d!r} is not an "
                         f"integer in 0..{cx.dim}")
    if not isinstance(chain, list):
        raise ParseError(f"cycle file {path}: 'chain' is not a list")
    vec = {}
    for entry in chain:
        if not (isinstance(entry, list) and len(entry) == 2
                and isinstance(entry[0], list) and len(entry[0]) == d + 1
                and all(map(_is_int, entry[0])) and _is_int(entry[1])):
            raise ParseError(f"cycle file {path}: chain entry {entry!r} is "
                             f"not a [{d}-simplex, integer] pair")
        simplex, coef = entry
        try:
            i = cx.simplex_index(tuple(simplex))
        except KeyError as e:
            raise ParseError(f"cycle file {path}: {e.args[0]}") from None
        vec[i] = vec.get(i, 0) + coef
    vec = {i: c for i, c in vec.items() if c}
    if not vec:
        raise ParseError(f"cycle file {path}: the chain is zero")
    return d, vec


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)
