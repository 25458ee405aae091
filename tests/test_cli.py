"""Tests for the command line interface: outputs, formats, exit codes."""

import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from varncode import (
    VarncodeError,
    build_code,
    char_root,
    parse_cost_spec,
    prepare,
    report,
    split_trace,
)
from varncode.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VIOLATION,
    main,
    make_probs,
    parse_gen,
    read_probs_file,
    root_dict,
)

from code_reference import (
    codeword_cost,
    codeword_letters,
    reference_split_trace,
    trace_records,
    tree_dict,
)

EXIT_ORACLE = 4


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# probability sources
# ---------------------------------------------------------------------------

def test_make_probs_families():
    for dist in ("uniform", "zipf:1.0", "zipf:2.0", "geom:0.7", "dyadic"):
        p = make_probs(dist, 50, 3)
        assert p.shape == (50,)
        assert abs(p.sum() - 1.0) < 1e-9
        assert (p > 0).all()
    z = make_probs("zipf:1.0", 4, 0)
    assert z[0] / z[1] == pytest.approx(2.0)
    g = make_probs("geom:0.5", 3, 0)
    assert g[0] / g[1] == pytest.approx(2.0)
    d = make_probs("dyadic", 5, 0)
    assert d[-1] == d[-2]


def test_make_probs_reproducible():
    a = make_probs("uniform", 20, 7)
    b = make_probs("uniform", 20, 7)
    c = make_probs("uniform", 20, 8)
    assert (a == b).all()
    assert not (a == c).all()


def test_parse_gen():
    assert parse_gen("uniform:12", 0).shape == (12,)
    assert parse_gen("zipf:1.5,9", 0).shape == (9,)
    assert parse_gen("geom:0.8,6", 0).shape == (6,)
    assert parse_gen("dyadic:4", 0).shape == (4,)
    assert parse_gen("dyadic:1", 0).tolist() == [1.0]
    from varncode import ProbInputError
    for bad in ("uniform", "zipf:9", "geom:0.5", "wat:3", "uniform:x", "uniform:0",
                "geom:1.5,6", "geom:0,6", "zipf:,40", "geom:,12", "zipf:x,5"):
        with pytest.raises(ProbInputError):
            parse_gen(bad, 0)


def test_make_probs_refuses_parameters_it_does_not_read():
    """A parameter is read or refused: uniform and dyadic take none, and
    zipf and geom take a number after their colon."""
    from varncode import ProbInputError
    for bad in ("uniform:junk", "dyadic:7", "uniform:", "zipf:x", "zipf:", "geom:"):
        with pytest.raises(ProbInputError):
            make_probs(bad, 5, 0)
    assert make_probs("zipf", 5, 0).tolist() == make_probs("zipf:1.0", 5, 0).tolist()
    assert make_probs("geom", 5, 0).tolist() == make_probs("geom:0.5", 5, 0).tolist()
    for argv in (("bench", "--costs", "linear", "--sizes", "5", "--dist", "uniform:junk"),
                 ("bench", "--costs", "linear", "--sizes", "5", "--dist", "dyadic:7"),
                 ("code", "--costs", "linear", "--gen", "zipf:,40"),
                 ("code", "--costs", "linear", "--gen", "geom:,12")):
        assert main(list(argv)) == EXIT_PARSE


def test_read_probs_file(tmp_path):
    lines = tmp_path / "p.txt"
    lines.write_text("# header\n0.5\n0.25  # tail comment\n\n0.25\n")
    assert read_probs_file(str(lines)) == [0.5, 0.25, 0.25]
    arr = tmp_path / "p.json"
    arr.write_text("[0.5, 0.5]")
    assert read_probs_file(str(arr)) == [0.5, 0.5]
    from varncode import ProbInputError
    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nnope\n")
    with pytest.raises(ProbInputError):
        read_probs_file(str(bad))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def test_root_text(capsys):
    code, out, err = run(capsys, "root", "--costs", "finite:1,2")
    assert code == EXIT_OK
    assert "c = 0.69424191363" in out
    assert "tail_convergent = True" in out


def test_root_json(capsys):
    d = run_json(capsys, "root", "--costs", "repeat:3", "--format", "json")
    assert d["kind"] == "IntegerProfile"
    assert d["c"] == pytest.approx(2.0)
    assert d["beta_finite"] is True
    assert d["tail_convergent"] is True


def test_root_json_infinite_beta(capsys):
    d = run_json(capsys, "root", "--costs", "balanced", "--format", "json")
    assert d["beta"] is None
    assert d["beta_finite"] is False
    assert d["tail_convergent"] is False


def test_code_text(capsys):
    code, out, err = run(
        capsys, "code", "--costs", "finite:1,1",
        "--inline", "0.25,0.25,0.25,0.25",
    )
    assert code == EXIT_OK
    body = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(body) == 4
    assert "# cost = 2.0" in out


def test_code_json_structure(capsys):
    d = run_json(
        capsys, "code", "--costs", "finite:1,3",
        "--inline", "0.333333,0.333333,0.166667,0.166667", "--normalize",
        "--format", "json",
    )
    assert set(d.keys()) == {"root", "codewords", "report"}
    assert len(d["codewords"]) == 4
    for cw in d["codewords"]:
        assert set(cw.keys()) == {"index", "letters", "cost"}
    assert d["report"]["cost"] == pytest.approx(11.0 / 3.0, abs=1e-4)
    names = [b["name"] for b in d["report"]["bounds"]]
    assert "Mehlhorn_eqMbound" in names
    assert "Thm_first" in names


def test_code_json_trace_and_tree(capsys):
    d = run_json(
        capsys, "code", "--costs", "finite:1,2",
        "--inline", "0.5,0.3,0.2", "--format", "json", "--trace", "--tree",
    )
    assert "trace" in d
    assert "tree" in d
    assert d["tree"]["letter_index"] == 0
    ev = trace_records(d["trace"])[0]
    assert ev["range"] == [0, 2]
    assert ev["bins"][0]["letter"] == 1


def test_code_trace_text(capsys):
    code, out, err = run(
        capsys, "code", "--costs", "finite:1,5", "--inline", "0.5,0.5",
        "--trace",
    )
    assert code == EXIT_OK
    assert "right-shift@1" in out


def test_bounds_json_epsilon(capsys):
    d = run_json(
        capsys, "bounds", "--costs", "fib", "--gen", "uniform:20",
        "--epsilon", "0.5", "--format", "json",
    )
    rows = {b["name"]: b for b in d["bounds"]}
    assert not rows["Mehlhorn_eqMbound"]["applicable"]
    assert rows["Mehlhorn_eqMbound"]["reason"] == "infinite_alphabet"
    # Fibonacci multiplicities grow without bound, so the constant bounds
    # drop out and only the approximation row applies
    assert not rows["Thm_beta"]["applicable"]
    assert rows["Thm_beta"]["reason"] == "beta_infinite"
    assert rows["Lem_Kbound"]["reason"] == "unbounded_profile"
    approx = rows["Thm_approx(0.5)"]
    assert approx["applicable"]
    assert d["nr"] <= approx["value"] + 1e-7


def test_bounds_text_shows_f_constant(capsys):
    code, out, err = run(
        capsys, "bounds", "--costs", "linear", "--gen", "uniform:10",
        "--epsilon", "0.5",
    )
    assert code == EXIT_OK
    assert "N_eps=7" in out


def test_oracle_json(capsys):
    d = run_json(
        capsys, "oracle", "--costs", "finite:1,1",
        "--inline", "0.333333,0.333333,0.166667,0.166667", "--normalize",
        "--format", "json",
    )
    assert d["opt_cost"] == pytest.approx(2.0, abs=1e-6)
    assert d["codeword_costs"] == [2.0, 2.0, 2.0, 2.0]
    assert len(d["words"]) == 4
    assert d["cost_cap_used"] is None  # infinity serializes as null


def test_code_json_tree_of_a_deep_chain(capsys, tmp_path):
    # a zero-mass chain nests the tree 2001 levels deep
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(["1"] + ["0"] * 2000))
    code, out, err = run(capsys, "code", "--costs", "finite:1,2", "--probs",
                         str(path), "--format", "json", "--tree")
    assert code == EXIT_OK, err
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(10_000)
    try:
        node = json.loads(out)["tree"]
    finally:
        sys.setrecursionlimit(limit)
    levels = 1
    while "children" in node:
        node = node["children"][-1]
        levels += 1
    assert levels == 2001


ZEROS = ",0" * 500


@pytest.mark.parametrize("spec", [
    "rll:1,100000",
    "finite:1,1e300",
    "finite:1e-300,1",
    "profile:5" + ZEROS + ",1",
    "profile:5" + ZEROS + ",1;tail=repeat",
])
def test_wide_cost_ratios(capsys, spec):
    d = run_json(capsys, "root", "--costs", spec, "--format", "json")
    assert d["beta_finite"] and math.isfinite(d["beta"])
    argv = ("--costs", spec, "--inline", "0.5,0.3,0.2", "--format", "json")
    d = run_json(capsys, "code", *argv)
    assert d["root"]["beta_finite"]
    d = run_json(capsys, "bounds", *argv)
    assert all(math.isfinite(b["value"]) for b in d["bounds"] if b["applicable"])


def test_finite_profile_code_and_oracle(capsys):
    argv = ("--costs", "profile:1,1", "--inline", "0.5,0.3,0.2")
    code, _, err = run(capsys, "code", *argv)
    assert code == EXIT_OK, err
    d = run_json(capsys, "oracle", *argv, "--format", "json")
    assert d["opt_cost"] == pytest.approx(2.2, abs=1e-12)


def test_compare_clean(capsys):
    d = run_json(
        capsys, "compare", "--costs", "finite:1,3", "--gen", "uniform:7",
        "--format", "json",
    )
    assert d["violations"] == []
    assert d["opt_cost"] <= d["cost"] + 1e-9
    assert d["lower_bound"] <= d["opt_cost"] + 1e-9
    assert d["gap"] == pytest.approx(d["cost"] - d["opt_cost"], abs=1e-12)


def test_compare_flags_violations(capsys, monkeypatch):
    class FakeResult:
        opt_cost = 99.0
        nodes_explored = 1

    monkeypatch.setattr("varncode.cli.exact_opt", lambda *a, **k: FakeResult())
    code, out, err = run(
        capsys, "compare", "--costs", "finite:1,2", "--inline", "0.5,0.5",
    )
    assert code == EXIT_VIOLATION
    assert "VIOLATION" in out


def test_bench_json_times_every_layer(capsys):
    code, out, err = run(
        capsys, "bench", "--costs", "linear", "finite:1,2", "--sizes", "100,200",
        "--dist", "zipf:1.0", "uniform", "--repeats", "2",
    )
    assert code == EXIT_OK, err
    doc = json.loads(out)
    assert doc["repeats"] == 2 and doc["statistic"] == "median"
    assert doc["numpy"] == np.__version__
    assert [(r["costs"], r["dist"], r["n"]) for r in doc["rows"]] == [
        (c, d, n) for c in ("linear", "finite:1,2") for d in ("zipf:1.0", "uniform")
        for n in (100, 200)]
    for row in doc["rows"]:
        assert sorted(row["seconds"]) == ["build_code", "codeword_lines", "emit",
                                          "parse_root", "prepare", "report"]
        assert all(s >= 0.0 for s in row["seconds"].values())
        assert 0.0 <= row["nr"] <= row["bound"] + 1e-7
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--costs", "linear", "--format", "json"])
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --format json" in capsys.readouterr().err


def test_bench_flags_a_row_over_its_bound(capsys, monkeypatch):
    monkeypatch.setattr("varncode.analysis.AnalysisReport.min_applicable",
                        lambda self: -1.0)
    code, out, err = run(capsys, "bench", "--costs", "linear", "--sizes", "50,60")
    assert code == EXIT_VIOLATION
    rows = json.loads(out)["rows"]
    assert [r["bound"] for r in rows] == [-1.0, -1.0]
    assert err.splitlines() == [
        f"VIOLATION: nr exceeds bound for linear zipf:1.0 n={n}" for n in (50, 60)]


def test_bench_row_without_a_bound(capsys):
    code, out, err = run(capsys, "bench", "--costs", "balanced", "--sizes", "50")
    assert code == EXIT_OK, err
    (row,) = json.loads(out)["rows"]
    assert row["bound"] is None and row["nr"] >= 0.0
    assert err == ""


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_json_output_is_byte_stable(capsys):
    argv = ("code", "--costs", "fib", "--gen", "zipf:1.0,40",
            "--epsilon", "0.25", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2


def reference_code_output(costs, gen, fmt, trace=False, tree=False):
    """`code` output the pre-writer way: a dict payload through json.dumps,
    or one print per text line (text stops before any trace lines)."""
    spec = parse_cost_spec(costs)
    root = char_root(spec)
    built = build_code(prepare(parse_gen(gen, 0)), spec, root)
    rep = report(built)
    words = [(i, codeword_letters(built, i), codeword_cost(built, i))
             for i in range(built.n)]
    buf = io.StringIO()
    if fmt == "json":
        payload = {
            "root": root_dict(spec, root),
            "codewords": [{"index": i, "letters": list(letters), "cost": cost}
                          for i, letters, cost in words],
            "report": rep.to_dict(),
        }
        if tree:
            payload["tree"] = tree_dict(built)
        if trace:
            columns = split_trace(built)
            assert trace_records(columns) == reference_split_trace(built)
            payload["trace"] = {part: {k: x.tolist() for k, x in cols.items()}
                                for part, cols in columns.items()}
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")), file=buf)
    else:
        for i, letters, cost in words:
            print(f"{i}\t{','.join(str(m) for m in letters)}\t{cost!r}", file=buf)
        print(f"# cost = {rep.cost!r}", file=buf)
        print(f"# entropy = {rep.entropy!r}", file=buf)
        print(f"# lower_bound = {rep.lower_bound!r}", file=buf)
        print(f"# redundancy = {rep.redundancy!r}  nr = {rep.nr!r}", file=buf)
    return buf.getvalue()


# zipf:1.0,9000 spans three write blocks.
@pytest.mark.parametrize("costs,gen", [
    ("linear", "zipf:1.0,9000"),
    ("finite:1,2", "uniform:300"),
    ("fib", "dyadic:40"),
    ("finite:1,1,5", "uniform:1"),
])
@pytest.mark.parametrize("flags", [(), ("--trace",), ("--tree",), ("--trace", "--tree")])
def test_code_output_matches_reference(capsys, costs, gen, flags):
    trace, tree = "--trace" in flags, "--tree" in flags
    code, out, _ = run(capsys, "code", "--costs", costs, "--gen", gen,
                       "--format", "json", *flags)
    assert code == EXIT_OK
    assert out == reference_code_output(costs, gen, "json", trace, tree)
    code, out, _ = run(capsys, "code", "--costs", costs, "--gen", gen, *flags)
    assert code == EXIT_OK
    ref = reference_code_output(costs, gen, "text")
    assert out.startswith(ref) if trace else out == ref


def test_seeded_generator_stable_across_runs(capsys):
    argv = ("bounds", "--costs", "finite:1,2", "--gen", "uniform:30",
            "--seed", "5", "--format", "json")
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_parse_errors(capsys, tmp_path):
    code, _, err = run(capsys, "root", "--costs", "wat:1,2")
    assert code == EXIT_PARSE
    assert err.startswith("error parse:")

    code, _, err = run(capsys, "code", "--costs", "finite:1,2",
                       "--gen", "nope:4")
    assert code == EXIT_PARSE

    code, _, err = run(capsys, "code", "--costs", "finite:1,2",
                       "--probs", str(tmp_path / "missing.txt"))
    assert code == EXIT_PARSE

    # probabilities that do not sum to 1 without --normalize
    code, _, err = run(capsys, "code", "--costs", "finite:1,2",
                       "--inline", "0.5,0.2")
    assert code == EXIT_PARSE
    assert "normalize" in err

    code, _, err = run(capsys, "bench", "--costs", "linear", "--dist", "bogus",
                       "--sizes", "10")
    assert code == EXIT_PARSE

    code, _, err = run(capsys, "code", "--costs", "linear", "--inline", "0.5,x")
    assert code == EXIT_PARSE


# json.loads recurses once per nested array: 3000 levels pass its limit.
# float() would take booleans and numeric strings, but they are not numbers.
@pytest.mark.parametrize("text", ["[null]", "[[0.5], 0.5]", "[0.5, {}]", "[1" + "0" * 400 + "]",
                                  pytest.param("[" * 3000 + "]" * 3000, id="nested3000"),
                                  "[true, false]", '[0.5, "0.5"]'])
def test_json_probs_that_are_not_numbers_exit_parse(capsys, tmp_path, text):
    path = tmp_path / "p.json"
    path.write_text(text)
    code, _, err = run(capsys, "code", "--costs", "finite:1,2", "--probs", str(path))
    assert code == EXIT_PARSE
    assert err.startswith("error parse:")


def test_probs_summing_past_the_float_range(capsys):
    argv = ("code", "--costs", "finite:1,2", "--inline")
    code, _, err = run(capsys, *argv, "1e308,1e308")
    assert code == EXIT_PARSE
    assert err.startswith("error parse:")
    code, out, _ = run(capsys, *argv, "1e308,1e308", "--normalize")
    assert code == EXIT_OK
    assert out == run(capsys, *argv, "0.5,0.5")[1]


def test_profile_letter_count_past_the_float_range_exits_parse(capsys):
    code, _, err = run(capsys, "root", "--costs", "profile:1e308,1e308")
    assert code == EXIT_PARSE
    assert err.startswith("error parse:")


@pytest.mark.parametrize("spec", ["profile:1e309", "repeat:1e309", "rll:1,1e309",
                                  "profile:1,inf", "finite:1,nan"])
def test_non_finite_cost_numbers_exit_parse(capsys, spec):
    # They used to reach int(inf) and end in an OverflowError traceback.
    code, out, err = run(capsys, "root", "--costs", spec)
    assert code == EXIT_PARSE
    assert err.startswith("error parse:") and "non-finite" in err
    assert out == ""


def test_repeating_profile_near_the_float_maximum_roots(capsys):
    # Its weighted sum once multiplied the int d_j * j past the float range.
    d = run_json(capsys, "root", "--costs", "profile:1e308,1e308;tail=repeat",
                 "--format", "json")
    assert d["c"] > 0.0


def test_rll_span_past_the_limit_exits_parse(capsys):
    # Only the rejection runs: an unbounded span would list every letter.  The
    # span just past the limit goes first, so a missing limit fails there.
    for spec in ("rll:1,100001", "rll:1,1e300", "rll:2,1e15"):
        code, _, err = run(capsys, "root", "--costs", spec)
        assert code == EXIT_PARSE
        assert err == "error parse: rll takes at most 100000 letters\n"


def test_compare_accepts_an_optimal_code_at_a_huge_cost_scale(capsys):
    # C(T) is 1 ulp below OPT's rearranged sum at 3.3e299: an absolute 1e-9
    # slack refused the cap, then flagged OPT as above C(T).
    d = run_json(capsys, "compare", "--costs", "finite:1e-300,1", "--inline",
                 "0.6654575346533242,0.2721042781738002,0.062438187172875484",
                 "--format", "json")
    assert d["violations"] == []
    assert d["opt_cost"] > d["cost"]


def test_closed_stdout_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "varncode.cli", "code", "--costs", "finite:1,2",
         "--gen", "zipf:1.0,100000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"0\t")
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == EXIT_OK
    assert err == b""


def test_sub_ulp_masses_build(capsys):
    # The tail's bins are narrower than an ulp of their left ends: each such
    # bin counts as empty and steals, where the build once exited 3.
    d = run_json(capsys, "code", "--costs", "finite:1,1", "--gen", "dyadic:90",
                 "--format", "json")
    rep = d["report"]
    assert len(d["codewords"]) == 90
    assert rep["cost"] == pytest.approx(rep["entropy"], abs=1e-9)


def test_exit_oracle_errors(capsys):
    code, _, err = run(capsys, "oracle", "--costs", "finite:1,1",
                       "--gen", "uniform:11")
    assert code == EXIT_ORACLE
    assert err.startswith("error oracle_too_large:")

    code, _, err = run(capsys, "oracle", "--costs", "finite:1,1",
                       "--inline", "0.5,0.5", "--cap", "0.25")
    assert code == EXIT_ORACLE
    assert err.startswith("error cap_too_small:")


def test_oracle_nan_cap_exits_parse(capsys):
    # With a NaN cap no code ever beat the greedy incumbent.
    code, out, err = run(capsys, "oracle", "--costs", "finite:1,1.5,2,4", "--inline",
                         "0.4381883914602914,0.3694675067801307,0.10058977006306621,"
                         "0.046781581982974274,0.020654476626692977,"
                         "0.017782912633495823,0.0036656661708954702,"
                         "0.002869694282453028", "--cap", "nan")
    assert code == EXIT_PARSE
    assert out == ""
    assert err.startswith("error parse:")


# The reason token and exit code each error class maps to.
ERROR_MAPPING = {
    "CostSpecError": ("parse", 2),
    "ProbInputError": ("parse", 2),
    "OracleTooLargeError": ("oracle_too_large", 4),
    "CapTooSmallError": ("cap_too_small", 4),
}


def test_every_error_maps_to_its_reason_and_exit_code(capsys, monkeypatch):
    classes = VarncodeError.__subclasses__()
    assert sorted(cls.__name__ for cls in classes) == sorted(ERROR_MAPPING)
    for cls in classes:
        def fail(text, cls=cls):
            raise cls("boom")

        monkeypatch.setattr("varncode.cli.parse_cost_spec", fail)
        code, out, err = run(capsys, "root", "--costs", "linear")
        reason, exit_code = ERROR_MAPPING[cls.__name__]
        assert err == f"error {reason}: boom\n"
        assert code == exit_code == cls.exit_code
        assert out == ""


@pytest.mark.parametrize("command", ["root", "code", "bounds", "compare", "bench"])
def test_root_tolerance_is_not_an_option(capsys, command):
    argv = [command, "--costs", "linear", "--tol", "1e-3"]
    if command in ("code", "bounds", "compare"):
        argv += ["--inline", "1.0"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_PARSE
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


def test_dominator_option_is_rejected(capsys):
    code, _, err = run(capsys, "root", "--costs", "profile:1,2;dominator=3,1")
    assert code == EXIT_PARSE
    assert "unknown profile option 'dominator'" in err


@pytest.mark.parametrize("spec", ["fib", "balanced"])
@pytest.mark.parametrize("epsilon", ["0.9", "nan"])
def test_epsilon_out_of_range(capsys, spec, epsilon):
    # balanced's tail diverges, so its Thm_approx row never reaches approx_bound.
    code, _, err = run(capsys, "bounds", "--costs", spec,
                       "--gen", "uniform:5", "--epsilon", epsilon)
    assert code == EXIT_PARSE
    assert "epsilon must lie in (0, 1/2]" in err


# ---------------------------------------------------------------------------
# console entry point
# ---------------------------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "varncode.cli", "root", "--costs", "fib",
         "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_OK
    d = json.loads(proc.stdout)
    assert d["c"] == pytest.approx(1.2715533031636117, abs=1e-9)
