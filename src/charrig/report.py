"""Deterministic check reports.

A report is a list of named checks with status and witnesses. The canonical
byte form (and its hash) excludes timings, so repeated runs of the same
inputs produce identical hashes no matter how long they took.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "pass"
FAIL = "fail"
SKIPPED = "skipped"


class InvariantError(Exception):
    """An invariant of the computation failed (cycle surgery, a witness
    reconstruction, an exact solve). This is a verifier finding, not bad
    input: the CLI reports it as a failed check with `witness`."""

    def __init__(self, message: str, witness: dict):
        super().__init__(message)
        self.witness = witness


def jsonable(obj):
    """Recursively convert witnesses to canonical JSON-able values."""
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, int):
        return obj
    if isinstance(obj, str):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


@dataclass
class CheckResult:
    name: str
    status: str
    detail: str = ""
    witness: dict | list | None = None

    def canonical(self):
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "witness": jsonable(self.witness) if self.witness is not None else None,
        }


def check(name, ok, detail="", witness=None) -> CheckResult:
    return CheckResult(name, PASS if ok else FAIL, detail, witness)


@dataclass
class Report:
    tool_version: str
    command: str
    complex_name: str
    degrees: list
    seed: int
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    timings_ms: dict = field(default_factory=dict)  # task name -> wall ms

    def extend(self, results):
        self.checks.extend(results)

    @property
    def n_failed(self) -> int:
        return sum(1 for c in self.checks if c.status == FAIL)

    def all_passed(self) -> bool:
        return self.n_failed == 0

    def canonical_dict(self):
        return {
            "tool_version": self.tool_version,
            "command": self.command,
            "complex": self.complex_name,
            "degrees": list(self.degrees),
            "seed": self.seed,
            "notes": list(self.notes),
            "checks": [c.canonical() for c in self.checks],
        }

    def canonical_bytes(self) -> bytes:
        return json.dumps(self.canonical_dict(), sort_keys=True,
                          separators=(",", ":")).encode("utf-8")

    def canonical_hash(self) -> str:
        return hashlib.sha256(self.canonical_bytes()).hexdigest()

    def render(self, fmt: str = "canonical") -> str:
        if fmt == "canonical":
            doc = self.canonical_dict()
            doc["canonical_sha256"] = self.canonical_hash()
            doc["timings_ms"] = dict(self.timings_ms)
            return json.dumps(doc, sort_keys=True, indent=1)
        lines = [f"{self.command} {self.complex_name} degrees={self.degrees} "
                 f"seed={self.seed} [charrig {self.tool_version}]"]
        for note in self.notes:
            lines.append(f"  note: {note}")
        for c in self.checks:
            mark = {"pass": "ok", "fail": "FAIL", "skipped": "--"}[c.status]
            msg = f"  [{mark:4}] {c.name}"
            if c.detail:
                msg += f": {c.detail}"
            lines.append(msg)
        lines.append(f"{self.n_failed} failed / {len(self.checks)} checks; "
                     f"hash {self.canonical_hash()[:16]}")
        return "\n".join(lines)
