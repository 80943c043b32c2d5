"""Report bytes pinned against a committed table of canonical hashes.

Refactors of the linear algebra must not move any report: not the
choice between dense and sparse rows fed to a Smith factorization, nor
factoring a group presentation without its column transforms, since
both give the same diag and the same row transforms, hence the same
generators. The table in data/report_hashes.json covers `inspect` on
every corpus complex, `diagram` and `phi` at degrees 1 and 2 on s1, s2,
t2 and rp2 and at degree 2 on klein and moore_z3, `ring 1,1` on t2 and
moore_z3, `pseudo` on every shipped cycle, and on first barycentric
subdivisions (sd1) `inspect` of t2, rp2, klein and moore_z3, `diagram 1`
and `phi 1`, `phi 2` of s2, on second subdivisions (sd2) `inspect` of
t2 and moore_z3 and `diagram 2` and `phi 2` of t2, and on third
subdivisions (sd3) `inspect` of t2 and moore_z3, all at seed 0. A
change that is meant to alter reports regenerates the table from the
repository root:

    PYTHONPATH=src python -c "import json,sys; sys.path.insert(0,'tests'); import test_report_hashes as t; open(t.TABLE,'w').write(json.dumps(t.current_hashes(),indent=1,sort_keys=True)+'\\n')"
"""
import argparse
import json
from pathlib import Path

from charrig import cli, corpus
from charrig.simplicial import barycentric_subdivide, load_complex

TABLE = Path(__file__).resolve().parent / "data" / "report_hashes.json"
SUITE_SPACES = ("s1", "s2", "t2", "rp2")
DEGREE2_SPACES = ("klein", "moore_z3")
SD1_INSPECT = ("t2", "rp2", "klein", "moore_z3")
SD2_INSPECT = ("t2", "moore_z3")
SD3_INSPECT = ("t2", "moore_z3")


def _operations():
    """(label, complex name, subdivision level, handler, arguments)."""
    for name in corpus.CORPUS_NAMES:
        yield f"inspect {name}", name, 0, cli.cmd_inspect, {}
    for name in SUITE_SPACES:
        for k in (1, 2):
            yield f"diagram {name} {k}", name, 0, cli.cmd_diagram, {"degree": k}
            yield f"phi {name} {k}", name, 0, cli.cmd_phi, {"degree": k}
    for name in DEGREE2_SPACES:
        yield f"diagram {name} 2", name, 0, cli.cmd_diagram, {"degree": 2}
        yield f"phi {name} 2", name, 0, cli.cmd_phi, {"degree": 2}
    for name in ("t2", "moore_z3"):
        yield f"ring {name} 1,1", name, 0, cli.cmd_ring, {"degrees": (1, 1)}
    for path in sorted((corpus.corpus_dir() / "cycles").glob("*.json")):
        name = json.loads(path.read_text())["complex"]
        yield (f"pseudo {path.stem}", name, 0, cli.cmd_pseudo,
               {"cycle": path.stem})
    for name in SD1_INSPECT:
        yield f"inspect sd1({name})", name, 1, cli.cmd_inspect, {}
    yield "diagram sd1(s2) 1", "s2", 1, cli.cmd_diagram, {"degree": 1}
    for k in (1, 2):
        yield f"phi sd1(s2) {k}", "s2", 1, cli.cmd_phi, {"degree": k}
    for name in SD2_INSPECT:
        yield f"inspect sd2({name})", name, 2, cli.cmd_inspect, {}
    yield "phi sd2(t2) 2", "t2", 2, cli.cmd_phi, {"degree": 2}
    yield "diagram sd2(t2) 2", "t2", 2, cli.cmd_diagram, {"degree": 2}
    for name in SD3_INSPECT:
        yield f"inspect sd3({name})", name, 3, cli.cmd_inspect, {}


def current_hashes() -> dict:
    """Canonical hash of every pinned operation, each on a fresh complex."""
    out = {}
    for label, name, level, handler, params in _operations():
        cx = load_complex(corpus.resolve(name))
        for _ in range(level):
            cx = barycentric_subdivide(cx).complex
        args = argparse.Namespace(seed=0, max_subdiv=2, **params)
        out[label] = handler(cx, args, 1).canonical_hash()
    return out


def test_report_hashes_match_pinned_table():
    pinned = json.loads(TABLE.read_text())
    current = current_hashes()
    assert sorted(current) == sorted(pinned)
    moved = {k: (pinned[k], v) for k, v in current.items() if pinned[k] != v}
    assert not moved, moved
