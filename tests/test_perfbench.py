"""The benchmark harness still finds what it traces."""
import importlib
import importlib.util
from pathlib import Path

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def test_every_trace_target_resolves_to_a_callable():
    """`perfbench/trace.py` wraps each (module, attribute path) of TARGETS
    when a run traces; a name deleted from charrig would make that raise.
    The file is loaded by path, as its name shadows the stdlib `trace`."""
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    assert trace.TARGETS
    for mod_name, attr in trace.TARGETS:
        owner = importlib.import_module(f"charrig.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), (mod_name, attr)
