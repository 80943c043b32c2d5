"""Benchmark of the charrig verifier, run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

A run sets up its inputs several times, then runs whole rounds of the
workload's operations (see workloads.py) until `--seconds` would be
passed, checks every output with the oracles in oracles.py and prints one
JSON object as its last line. With `--trace 0` it reports the end-to-end
metrics, with `--trace 1` the per-layer metrics of traced rounds. The
README in this directory explains the metrics and gives reference figures.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import oracles
import reference
import trace
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "charrig" / "corpus"
OUT = Path(__file__).resolve().parent / "out"
MIN_SETUPS = 11


def setup(ops, tracer=None):
    """Import charrig afresh and build one input complex per operation.
    Returns ((start, end) of the timed part, cli module, inputs)."""
    for name in [n for n in sys.modules
                 if n == "charrig" or n.startswith("charrig.")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module("charrig.cli")
    simplicial = sys.modules["charrig.simplicial"]
    if tracer is not None:
        tracer.install()
    inputs = workloads.build_inputs(ops, simplicial, CORPUS)
    return (t0, time.perf_counter()), cli, inputs


def run_round(cli, ops, inputs, seed, checker, tracer=None):
    """Run every operation once; returns the (start, end) of each and the
    number that raised."""
    handlers = {"inspect": cli.cmd_inspect, "diagram": cli.cmd_diagram,
                "phi": cli.cmd_phi, "ring": cli.cmd_ring,
                "pseudo": cli.cmd_pseudo}
    windows, failed = [], 0
    for i, op in enumerate(ops):
        cx, inputs[i] = inputs[i], None
        fn, args = handlers[op.command], (cx, op.namespace(seed), 1)
        gc.collect()
        t0 = time.perf_counter()
        try:
            rep = tracer.operation(fn, *args) if tracer else fn(*args)
        except Exception as e:  # an operation that raises counts as failed
            rep = None
            failed += 1
            print(f"failed: {op.label()}: {type(e).__name__}: {e}",
                  file=sys.stderr)
        windows.append((t0, time.perf_counter()))
        if rep is not None:
            checker.check(op, cx, rep)
    return windows, failed


def per_op_median(rounds):
    return [statistics.median(col) for col in zip(*rounds)]


def measure(args, ops, checker, probe, tracer):
    """Set up, then run rounds until `args.seconds` would be passed. A
    traced run alternates untraced and traced rounds. Returns the setup
    windows, each round's operation windows and the traced rounds' layer
    metrics."""
    setup_windows = []
    for _ in range(MIN_SETUPS):
        window, cli, inputs = setup(ops)
        setup_windows.append(window)
    rounds, layers, failed = [], [], 0
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first = tracer.start_round() if traced else 0
        if rounds:
            window, cli, inputs = setup(ops, tracer if traced else None)
            setup_windows.append(window)
        windows, n_failed = run_round(cli, ops, inputs, args.seed, checker,
                                      tracer if traced else None)
        rounds.append(windows)
        failed += n_failed
        if traced:
            factors = [(t0, t1, probe.measure(t0, t1)[1] / (t1 - t0))
                       for t0, t1 in [setup_windows[-1]] + windows]
            layers.append(tracer.layer_metrics(first, factors))
            tracer.keep_first_round(first)
        elapsed = time.perf_counter() - start
        if tracer is not None and not layers:
            continue
        if elapsed + elapsed / len(rounds) > args.seconds:
            return setup_windows, rounds, layers, failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "charrig" / "cli.py").is_file():
        print(f"error: no charrig sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CHARRIG_JOBS", None)
    sys.path.insert(0, str(SRC))

    ops = workloads.operations(args.workload, CORPUS)
    tracer = trace.Tracer() if args.trace else None
    checker = oracles.Checker(CORPUS)
    with reference.Probe() as probe:
        setup_windows, rounds, layers, failed = measure(
            args, ops, checker, probe, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checker.finish()

    setup_s, setup_ref = zip(*(probe.measure(*w) for w in setup_windows))
    raw_s, ref = [], []
    for windows in rounds:
        r_s, r_ref = zip(*(probe.measure(*w) for w in windows))
        raw_s.append(r_s)
        ref.append(r_ref)
    attempted = len(rounds) * len(ops)
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations"
          f" x {len(rounds)} rounds, {failed} failed; "
          f"{len(probe.durations)} reference samples")
    if tracer is None:
        metrics = {
            "setup_s": {"value": reference.NOMINAL_S
                        * statistics.median(setup_ref), "unit": "s"},
            "verify_ref": {"value": sum(per_op_median(ref)), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        print(f"raw seconds: verify {sum(per_op_median(raw_s)):.4f} "
              f"(median per operation, summed), setup "
              f"{statistics.median(setup_s):.4f} "
              f"(median of {len(setup_s)})")
    else:
        untraced = statistics.median(sum(r) for r in ref[0::2])
        traced_ref = statistics.median(sum(r) for r in ref[1::2])
        metrics = {}
        for name in trace.metric_names():
            values = [layer[name] for layer in layers]
            if name.endswith("_ref"):
                metrics[name] = {"value": statistics.median(values),
                                 "unit": "ref"}
                continue
            metrics[name] = {"value": values[0], "unit": "count"}
            if len(set(values)) > 1:
                checker.problems.append(f"{name} differs between rounds: "
                                        f"{values}")
        metrics["trace.overhead_pct"] = {
            "value": 100 * (traced_ref / untraced - 1), "unit": "%"}
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans)
        print(f"spans of the first traced round written to "
              f"{spans.relative_to(ROOT)}")
    for problem in dict.fromkeys(checker.problems):
        print(f"problem: {problem}")
    print(json.dumps({"correct": not checker.problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
