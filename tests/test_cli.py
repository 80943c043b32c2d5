"""The command-line driver: reports, exit codes, determinism."""
import argparse
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from charrig import cli, corpus, geometry, zlin
from charrig.cochains import basis_cochain, cohomology
from charrig.report import InvariantError
from charrig.simplicial import barycentric_subdivide, load_complex


def run_cli(*args, env=None, check=False, timeout=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "charrig.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=timeout)
    if check and proc.returncode != 0:
        raise AssertionError(f"cli failed: {proc.stdout}\n{proc.stderr}")
    return proc.returncode, proc.stdout, proc.stderr


def parse_report(stdout):
    return json.loads(stdout)


def test_inspect_rp2_reports_torsion():
    code, out, _ = run_cli("inspect", "rp2")
    assert code == 0
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["inspect.H2(Z)"]["detail"] == "Z/2"
    assert by_name["inspect.H1(Z)"]["detail"] == "0"


def test_inspect_point_trivial_positive_degrees():
    code, out, _ = run_cli("inspect", "point")
    assert code == 0
    doc = parse_report(out)
    for c in doc["checks"]:
        if c["name"].startswith("inspect.H") and not c["name"].startswith("inspect.H0"):
            assert c["detail"] == "0", c


def test_inspect_t2_free_groups():
    code, out, _ = run_cli("inspect", "t2")
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["inspect.H1(Z)"]["detail"] == "Z + Z"
    assert by_name["inspect.H2(Z)"]["detail"] == "Z"
    assert by_name["inspect.H1(QmodZ)"]["detail"] == "Q/Z + Q/Z"


def test_diagram_s1_passes():
    code, out, _ = run_cli("diagram", "s1", "--degree", "1")
    assert code == 0
    doc = parse_report(out)
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_diagram_rp2_degree2_has_torsion_witnesses():
    code, out, _ = run_cli("diagram", "rp2", "--degree", "2")
    assert code == 0
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["bockstein.ker_r_eq_im_B"]["witness"]["witnesses"]


def test_diagram_degree_beyond_dimension_vacuous():
    code, out, _ = run_cli("diagram", "s1", "--degree", "3")
    assert code == 0


def test_phi_command():
    code, out, _ = run_cli("phi", "s1", "--degree", "2")
    assert code == 0
    doc = parse_report(out)
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_ring_contingent_finding_reported():
    """Graded commutativity fails in this model; the command reports it
    with witnesses (exit 1) and the defect diagnosis passes."""
    code, out, _ = run_cli("ring", "t2", "--degrees", "1,1")
    assert code == 1
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["ring.axiom_1_17_graded_commutativity"]["status"] == "fail"
    assert by_name["ring.axiom_1_17_graded_commutativity"]["witness"]["witnesses"]
    assert by_name["ring.commutativity_defect_exact"]["status"] == "pass"
    assert by_name["ring.axiom_1_18_curvature"]["status"] == "pass"
    assert by_name["ring.axiom_1_19_char_class"]["status"] == "pass"
    assert by_name["ring.axiom_1_20_flat_module"]["status"] == "pass"
    assert by_name["ring.axiom_1_21_form_module"]["status"] == "pass"


def test_ring_grid_passes_when_no_noncommuting_pair():
    code, out, _ = run_cli("ring", "rp2", "--degrees", "1,2")
    assert code == 0


def test_pseudo_equator_bounds():
    code, out, _ = run_cli("pseudo", "s2", "--cycle", "s2_equator")
    assert code == 0
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert "bounds inside" in by_name["pseudo.bounding"]["detail"]


def test_pseudo_torus_generator_not_null():
    code, out, _ = run_cli("pseudo", "t2", "--cycle", "t2_generator")
    assert code == 0
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert "not null-homologous" in by_name["pseudo.bounding"]["detail"]
    assert by_name["pseudo.bounding"]["witness"]["witness_class"] in (
        [1, 0], [0, 1], [-1, 0], [0, -1])


def test_pseudo_rp2_torsion_not_null():
    code, out, _ = run_cli("pseudo", "rp2", "--cycle", "rp2_torsion")
    assert code == 0
    doc = parse_report(out)
    by_name = {c["name"]: c for c in doc["checks"]}
    assert "not null-homologous in Z/2" in by_name["pseudo.bounding"]["detail"]


def test_pseudo_identity_normalization():
    code, out, _ = run_cli("pseudo", "s1", "--cycle", "s1_fundamental")
    assert code == 0


@pytest.mark.parametrize("corrupt", ["chain", "vanishing"])
def test_pseudo_bounding_fails_with_a_witness(monkeypatch, capsys, corrupt):
    """A bounding chain whose boundary misses the cycle, or a neighborhood
    whose cohomology does not vanish, fails pseudo.bounding (exit 1)."""
    real = cli.bound_in_good_neighborhood

    def corrupted(*args, **kwargs):
        out = real(*args, **kwargs)
        i = min(out.chain)
        out.chain = dict(out.chain)
        out.chain[i] = -out.chain[i]
        return out

    if corrupt == "chain":
        monkeypatch.setattr(cli, "bound_in_good_neighborhood", corrupted)
    else:
        monkeypatch.setattr(cli, "cohomology_vanishes_above", lambda cx, k: False)
    code = cli.main(["pseudo", "s2", "--cycle", "s2_equator"])
    assert code == 1
    doc = parse_report(capsys.readouterr().out)
    by_name = {c["name"]: c for c in doc["checks"]}
    bad = by_name["pseudo.bounding"]
    assert bad["status"] == "fail"
    assert not bad["detail"].startswith("bounds inside")
    wit = bad["witness"]
    assert bool(wit["boundary_differs_on"]) == (corrupt == "chain")
    assert wit["cohomology_vanishes_above"] == (corrupt == "chain")


@pytest.mark.parametrize("broken", ["result", "bounding_chain"])
def test_surgery_invariant_failure_is_a_failed_check(monkeypatch, capsys,
                                                     broken):
    """A bounding step that returns neither a chain nor a class, or a
    null-homologous cycle with no integral bounding chain, fails
    pseudo.bounding with a witness (exit 1) instead of a traceback."""
    if broken == "result":
        monkeypatch.setattr(cli, "bound_in_good_neighborhood",
                            lambda *args, **kwargs: None)
    else:
        monkeypatch.setattr(zlin, "solve_integer", lambda *args, **kwargs: None)
    code = cli.main(["pseudo", "s2", "--cycle", "s2_equator"])
    assert code == 1
    doc = parse_report(capsys.readouterr().out)
    by_name = {c["name"]: c for c in doc["checks"]}
    bad = by_name["pseudo.bounding"]
    assert bad["status"] == "fail"
    if broken == "result":
        assert bad["witness"] == {"returned": "NoneType"}
    else:
        assert bad["detail"] == "a null-homologous cycle does not bound"
        assert len(bad["witness"]["cycle"]) == 3  # the equator's edges
    assert by_name["surgery.is_pseudomanifold"]["status"] == "pass"


def test_pseudo_normalizes_the_cycle_once(monkeypatch, capsys):
    """The surgery and bounding tasks read one normalization."""
    real, calls = cli.normalize_cycle, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cli, "normalize_cycle", counted)
    monkeypatch.setattr(geometry, "normalize_cycle", counted)
    assert cli.main(["pseudo", "s2", "--cycle", "s2_equator"]) == 0
    assert len(calls) == 1


def test_failed_normalization_fails_surgery_and_bounding_alike(monkeypatch,
                                                               capsys):
    """A normalization that raises fails both tasks with its witness."""
    def broken(*args):
        raise InvariantError("cannot split", {"cell": [0, 1]})

    monkeypatch.setattr(cli, "normalize_cycle", broken)
    assert cli.main(["pseudo", "s2", "--cycle", "s2_equator"]) == 1
    checks = parse_report(capsys.readouterr().out)["checks"]
    assert [(c["name"], c["status"], c["detail"], c["witness"])
            for c in checks] == [
        (f"pseudo.{task}", "fail", "cannot split", {"cell": [0, 1]})
        for task in ("surgery", "bounding")]


@pytest.mark.parametrize("argv", [
    ["phi", "s2", "--degree", "2", "--max-subdiv", "0"],
    ["pseudo", "s2", "--cycle", "s2_equator", "--max-subdiv", "0"],
])
def test_exit_code_when_no_good_neighborhood_fits_the_budget(argv):
    code, out, err = run_cli(*argv)
    assert code == 2
    assert err.startswith("input error:") and "within 0 subdivisions" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv", [
    ["phi", "point", "--degree", "2"],
    ["phi", "t2", "--degree", "4"],
])
def test_phi_finishes_when_the_degree_has_only_the_zero_class(argv):
    """The round trips stop sampling when a sample adds no class beyond
    zero, instead of sampling forever."""
    code, out, err = run_cli(*argv, timeout=60)
    assert code == 0, err
    by_name = {c["name"]: c for c in parse_report(out)["checks"]}
    trips = by_name["phi.bijective_round_trips"]
    assert trips["status"] == "pass" and trips["detail"] == "4 round trips"


def test_phi_skips_cycles_the_surgery_cannot_split(tmp_path):
    """A free triangle loop attached to a filled triangle: the doubled
    loop among the sampled cycles has an edge with no coface, so the cycle
    surgery cannot split it. The pseudomanifold-path check skips the two
    pairs with that cycle and names them, instead of failing the run as an
    input error; it still compares the pair with a boundary, so it passes."""
    loop_and_disk = tmp_path / "loop_and_disk.json"
    loop_and_disk.write_text(json.dumps({"name": "loop_and_disk", "simplices": [
        [0], [1], [2], [3], [4], [0, 1], [1, 2], [0, 2], [2, 3], [2, 4],
        [3, 4], [2, 3, 4]]}))
    code, out, err = run_cli("phi", str(loop_and_disk), "--degree", "2",
                             timeout=120)
    assert code == 0, err
    by_name = {c["name"]: c for c in parse_report(out)["checks"]}
    path = by_name["phi.pseudomanifold_path"]
    assert path["status"] == "pass" and path["witness"]["skipped"] == [0, 1]


def test_phi_path_is_skipped_when_it_compares_no_pair(tmp_path):
    """A filled triangle and two isolated vertices in degree 1: at this
    seed the sampled pairs are doubled 0-cycles on an isolated vertex,
    which has no coface to split along, and zero cycles. The path compared
    nothing, so it is skipped rather than passed; the run still exits 0."""
    disk_and_points = tmp_path / "disk_and_points.json"
    disk_and_points.write_text(json.dumps({
        "name": "disk_and_points", "simplices": [[0], [1, 2, 3], [4], [5]]}))
    code, out, err = run_cli("phi", str(disk_and_points), "--degree", "1",
                             "--seed", "5")
    assert code == 0, err
    checks = parse_report(out)["checks"]
    path = [c for c in checks if c["name"] == "phi.pseudomanifold_path"][0]
    assert path["status"] == "skipped"
    assert path["witness"] == {"problems": [], "skipped": [0, 2]}
    assert all(c["status"] == "pass" for c in checks if c is not path)


@pytest.mark.parametrize("argv", [
    ["diagram", "t2", "--degree=-1"],
    ["phi", "t2", "--degree=-1"],
    ["ring", "t2", "--degrees=-1,1"],
    ["ring", "t2", "--degrees=1,-2"],
])
def test_negative_degrees_are_rejected_when_parsed(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "is negative" in err and "Traceback" not in err


def test_caches_hold_no_dense_matrices():
    """After `inspect` and `diagram 2` on sd1(t2), no value cached on the
    complex or on its subdivision is a list of dense rows: boundary
    operators are cached as sparse rows and relation matrices are never
    made dense."""
    X = barycentric_subdivide(load_complex(corpus.resolve("t2"))).complex
    cli.cmd_inspect(X, argparse.Namespace(seed=0, max_subdiv=2), 1)
    cli.cmd_diagram(X, argparse.Namespace(seed=0, max_subdiv=2, degree=2), 1)
    for cx in (X, barycentric_subdivide(X).complex):
        dense = [key for key, v in cx._cache.items() if isinstance(v, list)
                 and any(isinstance(row, list) for row in v)]
        assert dense == [], (cx.name, dense)


def test_inspect_builds_no_row_transform_of_a_boundary():
    """`inspect` on sd1(t2) reads the cycle lines of each cached boundary
    factorization but never solves against one, so none builds U or
    V_rows. H_0 and H_j above the top dimension are presented from the
    factorization of d_{j+1}, which reaches d_{dim+3}, and the
    presentation caches nothing on it either: only the d_j of a group
    H_j that `inspect` reads build their cycle lines."""
    X = barycentric_subdivide(load_complex(corpus.resolve("t2"))).complex
    cli.cmd_inspect(X, argparse.Namespace(seed=0, max_subdiv=2), 1)
    facts = {key[1]: v for key, v in X._cache.items()
             if key[0] == "snf_boundary"}
    assert sorted(facts) == list(range(X.dim + 4))
    built = {j: sorted({"U", "V_rows", "cycles"} & set(f.__dict__))
             for j, f in facts.items()}
    assert built == {j: ["cycles"] if j <= X.dim + 2 else [] for j in facts}


def _matrix_key(a, ncols):
    """A factorization input as (columns, nonzero (column, value) pairs of
    each row), the same for dict and dense rows."""
    n = ncols if ncols is not None else (len(a[0]) if a else 0)
    return n, tuple(tuple(sorted((j, x) for j, x in (
        r.items() if isinstance(r, dict) else enumerate(r)) if x)) for r in a)


@pytest.mark.parametrize("name", corpus.CORPUS_NAMES)
def test_cold_inspect_factors_no_matrix_twice(name, monkeypatch):
    """A cold `inspect` on a corpus complex and on its first subdivision
    factors each nonempty matrix once: H_0 reads the factorization of d_1
    rather than factoring d_1 again as its relation matrix. The one input
    met more than once is the 0 x 0 matrix (d_j for j > dim + 1, and the
    relation matrix of a degree with no cycles), whose factorization
    records no operation."""
    real = zlin.smith_normal_form
    for sd in (0, 1):
        seen = {}

        def spy(a, ncols=None):
            key = _matrix_key(a, ncols)
            seen[key] = seen.get(key, 0) + 1
            return real(a, ncols=ncols)

        monkeypatch.setattr(zlin, "smith_normal_form", spy)
        X = load_complex(corpus.resolve(name))
        if sd:
            X = barycentric_subdivide(X).complex
        cli.cmd_inspect(X, argparse.Namespace(seed=0, max_subdiv=2), 1)
        monkeypatch.setattr(zlin, "smith_normal_form", real)
        repeated = [key for key, count in seen.items() if count > 1]
        assert repeated in ([], [(0, ())]), (name, sd, repeated)
        assert _matrix_key(X.boundary_rows(1), X.n_simplices(1)) in seen


def test_timings_per_task_outside_the_hash():
    """Every task's wall time is reported under its name; the canonical
    hash is the pinned one."""
    _, out, _ = run_cli("phi", "s1", "--degree", "1")
    doc = parse_report(out)
    assert sorted(doc["timings_ms"]) == ["equivalence", "good"]
    assert all(isinstance(v, int) and v >= 0 for v in doc["timings_ms"].values())
    pinned = json.loads((Path(__file__).resolve().parent / "data"
                         / "report_hashes.json").read_text())
    assert doc["canonical_sha256"] == pinned["phi s1 1"]


def test_exit_code_on_missing_input():
    code, _, err = run_cli("inspect", "no_such_complex")
    assert code == 2
    assert "input error" in err


def test_exit_code_on_malformed_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"name": "bad", "simplices": [[1, 0]]}')
    code, _, err = run_cli("inspect", str(bad))
    assert code == 2


def test_exit_code_on_cycle_naming_missing_simplex(tmp_path):
    bad = tmp_path / "bad_cycle.json"
    bad.write_text(json.dumps({"complex": "s2", "degree": 1,
                               "chain": [[[0, 9], 1]]}))
    code, out, err = run_cli("pseudo", "s2", "--cycle", str(bad))
    assert code == 2
    assert err.startswith("input error:") and "(0, 9)" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("doc", [
    # non-integer coefficients: once truncated to the fundamental cycle
    {"degree": 1, "chain": [[[0, 1], 1.5], [[1, 2], 1.5], [[0, 2], -1.5]]},
    {"degree": 1, "chain": [[[0, 1], True], [[1, 2], 1], [[0, 2], -1]]},
    {"degree": 1, "chain": 5},
    {"degree": 1, "chain": [[[0, 1]]]},
    {"degree": 1, "chain": [[[0, 1, 2], 1]]},
    {"degree": "x", "chain": []},
    {"degree": 7, "chain": []},
    {"degree": -1, "chain": []},
])
def test_exit_code_on_malformed_cycle_file(tmp_path, doc):
    bad = tmp_path / "bad_cycle.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli("pseudo", "s1", "--cycle", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("input error:") and "Traceback" not in err


@pytest.mark.parametrize("chain", [[], [[[0, 1], 1], [[1, 2], 2], [[0, 1], -1],
                                        [[1, 2], -2]]])
def test_exit_code_on_a_zero_cycle_file(tmp_path, capsys, chain):
    """An empty chain, or entries that cancel, is the zero chain: exit 2
    with a message naming the file, not an error about an empty complex."""
    zero = tmp_path / "zero_cycle.json"
    zero.write_text(json.dumps({"degree": 1, "chain": chain}))
    assert cli.main(["pseudo", "s1", "--cycle", str(zero)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        f"input error: cycle file {zero}: the chain is zero\n"


def test_exit_code_on_doubled_top_dimensional_cycle(tmp_path):
    """The doubled fundamental class of s2 would need splitting in the top
    dimension, which the surgery cannot do."""
    doubled = tmp_path / "s2_double.json"
    doubled.write_text(json.dumps({"complex": "s2", "degree": 2, "chain": [
        [[1, 2, 3], 2], [[0, 2, 3], -2], [[0, 1, 3], 2], [[0, 1, 2], -2]]}))
    code, out, err = run_cli("pseudo", "s2", "--cycle", str(doubled))
    assert code == 2
    assert err.startswith("input error:")
    assert "Traceback" not in err and out == ""


def test_inspect_flags_a_group_that_breaks_universal_coefficients(monkeypatch):
    """H^2(rp2; Z) with its Z/2 dropped disagrees with H^1(rp2; Q/Z)."""
    cx = load_complex(corpus.resolve("rp2"))
    monkeypatch.setattr(cohomology(cx, 2, "Z"), "torsion", ())
    args = argparse.Namespace(seed=0, max_subdiv=2)
    by_name = {c.name: c for c in cli.cmd_inspect(cx, args, 1).checks}
    bad = by_name["inspect.H2(Z)"]
    assert bad.status == "fail"
    assert bad.witness == {"groups": ["H2(Z)", "H1(QmodZ)"],
                           "torsion": [(), (2,)]}
    assert by_name["inspect.H1(QmodZ)"].status == "fail"
    assert by_name["inspect.H2(Q)"].status == "pass"


def test_inspect_flags_integral_form_generators_that_are_not(monkeypatch):
    """Half a basis 1-cochain is neither integer-valued nor closed."""
    cx = load_complex(corpus.resolve("s2"))
    half = basis_cochain(cx, "Q", 1, 0).scale(Fraction(1, 2))
    monkeypatch.setattr(cli, "integral_form_generators",
                        lambda cx, j: [half] if j == 1 else [])
    args = argparse.Namespace(seed=0, max_subdiv=2)
    by_name = {c.name: c for c in cli.cmd_inspect(cx, args, 1).checks}
    assert by_name["inspect.integral_forms_1"].status == "fail"
    assert by_name["inspect.integral_forms_1"].witness == {
        "not_closed_or_not_integral": [0]}
    assert by_name["inspect.integral_forms_2"].status == "pass"


def test_corpus_env_override(tmp_path):
    alt = tmp_path / "alt_corpus"
    shutil.copytree(corpus.corpus_dir(), alt)
    code, out, _ = run_cli("inspect", "rp2", env={"CHARRIG_CORPUS": str(alt)})
    assert code == 0


def test_pretty_format():
    code, out, _ = run_cli("diagram", "s1", "--degree", "1",
                           "--format", "pretty")
    assert code == 0
    assert "[ok" in out and "hash" in out


def test_seed_is_recorded():
    _, out, _ = run_cli("diagram", "s1", "--degree", "1", "--seed", "5")
    doc = parse_report(out)
    assert doc["seed"] == 5


def test_canonical_hash_deterministic_across_runs_and_hashseed():
    _, out1, _ = run_cli("diagram", "rp2", "--degree", "2",
                         env={"PYTHONHASHSEED": "1"})
    _, out2, _ = run_cli("diagram", "rp2", "--degree", "2",
                         env={"PYTHONHASHSEED": "31337"})
    d1, d2 = parse_report(out1), parse_report(out2)
    assert d1["canonical_sha256"] == d2["canonical_sha256"]


def test_inspect_report_identical_across_runs():
    _, out1, _ = run_cli("inspect", "t2")
    _, out2, _ = run_cli("inspect", "t2")
    d1, d2 = parse_report(out1), parse_report(out2)
    assert d1["canonical_sha256"] == d2["canonical_sha256"]
    # timings may differ; everything hashed must be byte-identical
    d1.pop("timings_ms"), d2.pop("timings_ms")
    assert d1 == d2
