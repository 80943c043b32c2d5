"""Report bytes pinned against a committed table of canonical hashes.

Refactors of the linear algebra must not move any report. The table in
data/report_hashes.json covers `inspect` on every corpus complex,
`diagram` and `phi` at degrees 1 and 2 on s1, s2, t2 and rp2, `ring 1,1`
on t2 and `pseudo` on every shipped cycle, all at seed 0. A change that is
meant to alter reports regenerates the table from the repository root:

    PYTHONPATH=src python -c "import json,sys; sys.path.insert(0,'tests'); import test_report_hashes as t; open(t.TABLE,'w').write(json.dumps(t.current_hashes(),indent=1,sort_keys=True)+'\\n')"
"""
import argparse
import json
from pathlib import Path

from charrig import cli, corpus
from charrig.simplicial import load_complex

TABLE = Path(__file__).resolve().parent / "data" / "report_hashes.json"
SUITE_SPACES = ("s1", "s2", "t2", "rp2")


def _operations():
    for name in corpus.CORPUS_NAMES:
        yield f"inspect {name}", name, cli.cmd_inspect, {}
    for name in SUITE_SPACES:
        for k in (1, 2):
            yield f"diagram {name} {k}", name, cli.cmd_diagram, {"degree": k}
            yield f"phi {name} {k}", name, cli.cmd_phi, {"degree": k}
    yield "ring t2 1,1", "t2", cli.cmd_ring, {"degrees": (1, 1)}
    for path in sorted((corpus.corpus_dir() / "cycles").glob("*.json")):
        name = json.loads(path.read_text())["complex"]
        yield f"pseudo {path.stem}", name, cli.cmd_pseudo, {"cycle": path.stem}


def current_hashes() -> dict:
    """Canonical hash of every pinned operation, each on a fresh complex."""
    out = {}
    for label, name, handler, params in _operations():
        cx = load_complex(corpus.resolve(name))
        args = argparse.Namespace(seed=0, max_subdiv=2, **params)
        out[label] = handler(cx, args, 1).canonical_hash()
    return out


def test_report_hashes_match_pinned_table():
    pinned = json.loads(TABLE.read_text())
    current = current_hashes()
    assert sorted(current) == sorted(pinned)
    moved = {k: (pinned[k], v) for k, v in current.items() if pinned[k] != v}
    assert not moved, moved
