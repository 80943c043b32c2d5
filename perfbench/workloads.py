"""The benchmark's workloads: which CLI subcommands run on which inputs.

An operation is one call of a CLI subcommand handler (`cli.cmd_*`) on a
freshly built complex, as in one `charrig` process: no cache is shared
between operations. The workload seed is passed as the subcommand's
`--seed`.
"""
from __future__ import annotations

import argparse
import json
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_NAMES = ("point", "interval", "s1", "s2", "t2", "rp2", "klein",
                "moore_z3")
# diagram, phi and ring at every degree take 7 s on klein and 15 s on
# moore_z3 (2-CPU host), more than all the other complexes together, so
# `corpus` runs only inspect and pseudo on those two.
CORPUS_FULL_SUITE = ("point", "interval", "s1", "s2", "t2", "rp2")
# sd2(t2) inspect alone takes about 60 s; the ladder stops at sd1.
LADDER = (("t2", 0), ("t2", 1), ("rp2", 0), ("rp2", 1), ("klein", 0),
          ("klein", 1), ("moore_z3", 0), ("moore_z3", 1))
SUITES_SD1 = (("s1", "diagram", 1), ("s1", "phi", 1), ("s2", "diagram", 1),
              ("s2", "phi", 1), ("s2", "phi", 2))

WORKLOADS = ("corpus", "groups_ladder", "suites_sd1")


@dataclass(frozen=True)
class Op:
    """One subcommand call: input complex (name, subdivision level),
    subcommand and its arguments."""
    space: str
    level: int
    command: str
    params: dict = field(default_factory=dict)

    def label(self) -> str:
        extra = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.command} sd{self.level}({self.space}) {extra}".strip()

    def namespace(self, seed: int) -> argparse.Namespace:
        return argparse.Namespace(seed=seed, max_subdiv=2, **self.params)


def _dims(corpus_dir: Path) -> dict:
    out = {}
    for name in CORPUS_NAMES:
        doc = json.loads((corpus_dir / f"{name}.json").read_text())
        out[name] = max(len(s) for s in doc["simplices"]) - 1
    return out


def _cycles(corpus_dir: Path):
    for path in sorted((corpus_dir / "cycles").glob("*.json")):
        doc = json.loads(path.read_text())
        yield doc["complex"], path.stem


def operations(workload: str, corpus_dir: Path) -> list[Op]:
    if workload == "corpus":
        ops = []
        dims = _dims(corpus_dir)
        for name in CORPUS_NAMES:
            ops.append(Op(name, 0, "inspect"))
            if name not in CORPUS_FULL_SUITE:
                continue
            top = dims[name] + 1
            for k in range(1, top + 1):
                ops.append(Op(name, 0, "diagram", {"degree": k}))
                ops.append(Op(name, 0, "phi", {"degree": k}))
            for k in range(1, top):
                for l in range(1, top - k + 1):
                    ops.append(Op(name, 0, "ring", {"degrees": (k, l)}))
        for name, cycle in _cycles(corpus_dir):
            ops.append(Op(name, 0, "pseudo", {"cycle": cycle}))
        return ops
    if workload == "groups_ladder":
        return [Op(name, level, "inspect") for name, level in LADDER]
    if workload == "suites_sd1":
        return [Op(name, 1, cmd, {"degree": k}) for name, cmd, k in SUITES_SD1]
    raise ValueError(f"unknown workload {workload!r}")


def build_inputs(ops: list[Op], simplicial, corpus_dir: Path) -> list:
    """One freshly loaded (and subdivided) complex per operation."""
    out = []
    for op in ops:
        cx = simplicial.load_complex(corpus_dir / f"{op.space}.json")
        for _ in range(op.level):
            cx = simplicial.barycentric_subdivide(cx).complex
        out.append(cx)
    return out
