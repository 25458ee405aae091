"""Command line interface.

Subcommands: root (characteristic root), code (build + codewords + report),
bounds (report only), oracle (exact small-instance optimum), compare (coder
vs oracle), bench (per-layer timing JSON, each row's nr against its bound).
Exit codes: 0 ok (also when the reader closes stdout early), 2 parse/input
error, 4 oracle limits, 5 audit violation (compare, bench).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .analysis import report
from .coder import build_code, prepare, split_trace
from .costs import char_root, parse_cost_spec
from .errors import ProbInputError, VarncodeError
from .oracle import exact_opt

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VIOLATION = 5

_GAP_TOL = 1e-7
# The absolute tolerances of compare's verdicts: OPT against the entropy
# bound and against C(T); _GAP_TOL for the gap against the bound row, and
# for bench's nr against it.
_COST_TOL = 1e-9
_WRITE_BLOCK = 4096


# ---------------------------------------------------------------------------
# probability sources
# ---------------------------------------------------------------------------

def make_probs(dist: str, n: int, seed: int) -> np.ndarray:
    """Distribution family -> probability vector of length n."""
    name, colon, params = dist.partition(":")
    name = name.strip().lower()
    if n < 1:
        raise ProbInputError("need n >= 1")
    try:  # what follows a colon is a number, which only zipf and geom read
        param = float(params) if colon else None
    except ValueError:
        raise ProbInputError(f"malformed distribution {dist!r}") from None
    if name == "uniform" and param is None:
        rng = np.random.default_rng(seed)
        x = rng.random(n) + 1e-9
    elif name == "zipf":
        s = 1.0 if param is None else param
        x = np.arange(1, n + 1, dtype=np.float64) ** (-s)
    elif name == "geom":
        q = 0.5 if param is None else param
        if not 0.0 < q < 1.0:
            raise ProbInputError("geometric ratio must be in (0, 1)")
        x = q ** np.arange(n, dtype=np.float64)
    elif name == "dyadic" and param is None:  # 2^-1, ..., 2^-(n-1), 2^-(n-1)
        x = np.exp2(-np.minimum(np.arange(1, n + 1), max(n - 1, 1)))
    else:
        raise ProbInputError(f"unknown distribution {dist!r}: expected "
                             "uniform | dyadic | zipf[:S] | geom[:Q]")
    return x / x.sum()


def parse_gen(spec: str, seed: int) -> np.ndarray:
    """Generator DSL: uniform:N | zipf:S,N | geom:Q,N | dyadic:N."""
    name, _, params = spec.strip().partition(":")
    name = name.strip().lower()
    parts = [p.strip() for p in params.split(",")] if params else []
    try:
        if name in ("uniform", "dyadic"):
            if len(parts) != 1:
                raise ValueError
            return make_probs(name, int(parts[0]), seed)
        if name in ("zipf", "geom"):
            if len(parts) != 2:
                raise ValueError
            return make_probs(f"{name}:{parts[0]}", int(parts[1]), seed)
    except ValueError as exc:
        raise ProbInputError(f"malformed generator spec {spec!r}") from exc
    raise ProbInputError(f"unknown generator {spec!r}")


def read_probs_file(path: str) -> list[float]:
    """One value per line with '#' comments, or a JSON array."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("["):
        try:
            data = json.loads(text)
        except RecursionError as exc:
            raise ProbInputError("JSON probability file nests too deeply") from exc
        if not isinstance(data, list):
            raise ProbInputError("JSON probability file must hold an array")
        for v in data:
            # float() would take true and "0.5" too.
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ProbInputError(
                    f"JSON probability file holds a non-number: {json.dumps(v)[:40]}")
        try:
            return [float(v) for v in data]
        except OverflowError as exc:  # an int past the float range
            raise ProbInputError(f"JSON probability file holds a non-number: {exc}") from exc
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            values.append(float(body))
        except ValueError as exc:
            raise ProbInputError(f"bad probability on line {lineno}: {body!r}") from exc
    return values


def load_input(args: argparse.Namespace):
    if args.probs is not None:
        raw = read_probs_file(args.probs)
    elif args.inline is not None:
        try:
            raw = [float(p) for p in args.inline.split(",") if p.strip()]
        except ValueError as exc:
            raise ProbInputError(f"bad inline probabilities {args.inline!r}") from exc
    else:
        raw = parse_gen(args.gen, args.seed)
    return prepare(raw, normalize=args.normalize)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def emit_json(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    sys.stdout.write("\n")


def _write_joined(parts: list[str], sep: str) -> None:
    """Write sep.join(parts) a block at a time: one write per line is slow,
    and one string of the whole output doubles the peak memory."""
    for k in range(0, len(parts), _WRITE_BLOCK):
        if k:
            sys.stdout.write(sep)
        sys.stdout.write(sep.join(parts[k:k + _WRITE_BLOCK]))


def _num(x: float | None):
    if x is None or not math.isfinite(x):
        return None
    return x


def root_dict(spec, root) -> dict:
    return {
        "spec": spec.label,
        "kind": spec.kind,
        "c": root.value,
        "tolerance": root.tolerance,
        "residual": root.residual,
        "beta": _num(root.beta),
        "beta_finite": math.isfinite(root.beta),
        "tail_convergent": root.tail_convergent,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_root(args: argparse.Namespace) -> int:
    spec = parse_cost_spec(args.costs)
    root = char_root(spec)
    if args.fmt == "json":
        emit_json(root_dict(spec, root))
    else:
        beta = "inf" if not math.isfinite(root.beta) else repr(root.beta)
        print(f"spec: {spec.label} ({spec.kind})")
        print(f"c = {root.value!r}")
        print(f"tolerance = {root.tolerance!r}")
        print(f"residual |S(c)-1| = {root.residual!r}")
        print(f"beta = {beta}")
        print(f"tail_convergent = {root.tail_convergent}")
    return EXIT_OK


def _build(args: argparse.Namespace):
    """Parse, root, load, build and report: the steps code, bounds and
    compare share."""
    spec = parse_cost_spec(args.costs)
    root = char_root(spec)
    pin = load_input(args)
    tree = build_code(pin, spec, root)
    return tree, report(tree, epsilon=args.epsilon)


def cmd_code(args: argparse.Namespace) -> int:
    tree, rep = _build(args)
    trace = args.trace and {part: {k: x.tolist() for k, x in cols.items()}
                            for part, cols in split_trace(tree).items()}
    if args.fmt == "json":
        payload = {"root": root_dict(tree.spec, tree.root), "report": rep.to_dict()}
        if trace:
            payload["trace"] = trace
        rest = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        if args.tree:
            # "tree" sorts last; to_json writes any depth.
            rest = rest[:-1] + ',"tree":' + tree.to_json() + "}"
        # "codewords" sorts before every other key, so the array is written
        # first, item by item in sorted-key order, from the same fold as the
        # text lines (a finite float's repr is also its JSON form).  Each
        # word starts with the comma of its first letter.
        words, costs = tree._symbol_words(lambda m: f",{m}")
        lines = [f'{{"cost":{c!r},"index":{i},"letters":[{w[1:]}]}}'
                 for i, w, c in zip(range(tree.n), words, costs)]
        sys.stdout.write('{"codewords":[')
        _write_joined(lines, ",")
        sys.stdout.write("]," + rest[1:] + "\n")
    else:
        _write_joined(tree.codeword_lines(), "\n")
        sys.stdout.write("\n")
        print(f"# cost = {rep.cost!r}")
        print(f"# entropy = {rep.entropy!r}")
        print(f"# lower_bound = {rep.lower_bound!r}")
        print(f"# redundancy = {rep.redundancy!r}  nr = {rep.nr!r}")
        if trace:  # a line per split, then one per bin
            split = trace["split"]
            bins = zip(*(trace["bin"][k] for k in ("letter", "lo", "hi", "initial_first",
                                                   "initial_last", "final_first", "final_last")))
            lines = []
            for v, l, r, left, right, k in zip(*(split[k] for k in (
                    "node", "first", "last", "left_shifted", "right_shifted", "bins"))):
                tags = ", ".join(["left-shift"] * left + [f"right-shift@{r}"] * right)
                lines.append(f"# split node {v} slots {l}..{r}" + (f" [{tags}]" if tags else ""))
                for m, lo, hi, e, f, a, b in itertools.islice(bins, k):
                    init = f"{e}..{f}" if f >= e else "-"
                    lines.append(f"#   bin {m}: [{lo:.6g}, {hi:.6g}) initial {init} "
                                 f"final {a}..{b}")
            _write_joined(lines + [""], "\n")
    return EXIT_OK


def cmd_bounds(args: argparse.Namespace) -> int:
    _, rep = _build(args)
    if args.fmt == "json":
        emit_json(rep.to_dict())
    else:
        print(f"cost = {rep.cost!r}")
        print(f"entropy = {rep.entropy!r}")
        print(f"lower_bound = {rep.lower_bound!r}")
        print(f"redundancy = {rep.redundancy!r}")
        print(f"nr = {rep.nr!r}")
        for b in rep.bounds:
            if b.applicable:
                print(f"{b.name}: {b.value!r}")
            else:
                print(f"{b.name}: n/a ({b.reason})")
        ab = rep.approx
        if ab is not None:
            print(
                f"approx: C <= (1+{ab.epsilon:g})*OPT + {ab.f_value!r}"
                f"  (N_eps={ab.cost_threshold:g}, m_eps={ab.index_threshold})"
            )
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    spec = parse_cost_spec(args.costs)
    pin = load_input(args)
    res = exact_opt(pin, spec, cap=args.cap)
    if args.fmt == "json":
        emit_json({
            "opt_cost": res.opt_cost,
            "codeword_costs": list(res.opt_codeword_costs),
            "nodes_explored": res.nodes_explored,
            "cost_cap_used": _num(res.cost_cap_used),
            "words": [list(w) for w in res.opt_words],
        })
    else:
        print(f"opt_cost = {res.opt_cost!r}")
        print(f"codeword_costs = {list(res.opt_codeword_costs)}")
        print(f"nodes_explored = {res.nodes_explored}")
        for k, w in enumerate(res.opt_words):
            print(f"word {k}: {','.join(str(m) for m in w)}")
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    tree, rep = _build(args)
    res = exact_opt(tree.input, tree.spec, cap=tree.cost())
    c = tree.root.value
    gap = rep.cost - res.opt_cost
    best = rep.min_applicable()
    gap_bound = best / c if best is not None else None
    # Each verdict allows its absolute tolerance, or n ulps of the cost where
    # that is more, as the oracle's cap test does.
    scale = tree.n * math.ulp(max(rep.cost, res.opt_cost))
    violations = []
    if rep.lower_bound > res.opt_cost + max(_COST_TOL, scale):
        violations.append("entropy lower bound exceeds OPT")
    if res.opt_cost > rep.cost + max(_COST_TOL, scale):
        violations.append("OPT exceeds the constructed cost")
    if gap_bound is not None and gap > gap_bound + max(_GAP_TOL, scale):
        violations.append("cost gap exceeds the bound")
    payload = {
        "cost": rep.cost,
        "opt_cost": res.opt_cost,
        "lower_bound": rep.lower_bound,
        "gap": gap,
        "gap_bound": gap_bound,
        "nodes_explored": res.nodes_explored,
        "violations": violations,
    }
    if args.fmt == "json":
        emit_json(payload)
    else:
        print(f"C(T) = {rep.cost!r}")
        print(f"OPT  = {res.opt_cost!r}")
        print(f"H/c  = {rep.lower_bound!r}")
        print(f"gap  = {gap!r}")
        if gap_bound is not None:
            print(f"bound/c = {gap_bound!r}")
        for v in violations:
            print(f"VIOLATION: {v}")
    return EXIT_VIOLATION if violations else EXIT_OK


def _median_seconds(fn, repeats: int):
    """Median wall time of fn() over `repeats` calls, and its last result."""
    times = []
    for _ in range(max(1, repeats)):
        out = None  # free the last result before making the next
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return sorted(times)[len(times) // 2], out


def _commit() -> str | None:
    """The source checkout's commit, marked -dirty if it has changes."""
    import subprocess  # only bench needs it; every other command's startup counts

    try:
        run = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                             cwd=os.path.dirname(os.path.abspath(__file__)),
                             capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return run.stdout.strip()


def _bench_layers(spec_text: str, dist: str, n: int, args) -> dict:
    """Seconds per layer of `code --format text`, each timed on its own."""
    def parse_root():
        spec = parse_cost_spec(spec_text)
        return spec, char_root(spec)

    def emit():
        with contextlib.redirect_stdout(io.StringIO()):
            _write_joined(lines, "\n")

    probs = make_probs(dist, n, args.seed)
    seconds = {}
    seconds["parse_root"], (spec, root) = _median_seconds(parse_root, args.repeats)
    seconds["prepare"], pin = _median_seconds(lambda: prepare(probs), args.repeats)
    seconds["build_code"], tree = _median_seconds(lambda: build_code(pin, spec, root),
                                                  args.repeats)
    seconds["report"], rep = _median_seconds(lambda: report(tree), args.repeats)
    seconds["codeword_lines"], lines = _median_seconds(tree.codeword_lines, args.repeats)
    seconds["emit"], _ = _median_seconds(emit, args.repeats)
    return {"costs": spec_text, "dist": dist, "n": n, "cost": rep.cost,
            "nr": rep.nr, "bound": rep.min_applicable(), "seconds": seconds}


def cmd_bench(args: argparse.Namespace) -> int:
    import platform  # only bench reads it; every other command's startup counts

    sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    rows = [_bench_layers(spec_text, dist, n, args)
            for spec_text in args.costs for dist in args.dist for n in sizes]
    emit_json({
        "commit": _commit(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "repeats": max(1, args.repeats),
        "seed": args.seed,
        "statistic": "median",
        "rows": rows,
    })
    violations = [r for r in rows
                  if r["bound"] is not None and r["nr"] > r["bound"] + _GAP_TOL]
    for r in violations:
        print(f"VIOLATION: nr exceeds bound for {r['costs']} {r['dist']} n={r['n']}",
              file=sys.stderr)
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _add_costs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--costs", required=True, metavar="SPEC",
                   help="cost spec DSL, e.g. finite:1,3 linear repeat:2 fib")


def _add_probs(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--probs", metavar="FILE",
                   help="probability file: one value per line (# comments) or JSON array")
    g.add_argument("--inline", metavar="P1,P2,...", help="probabilities inline")
    g.add_argument("--gen", metavar="SPEC",
                   help="generator: uniform:N | zipf:S,N | geom:Q,N | dyadic:N")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument("--normalize", action="store_true",
                   help="rescale probabilities to sum to 1")


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", dest="fmt", choices=("text", "json"),
                   default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="varncode",
        description="Prefix-free codes with unequal letter costs.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("root", help="characteristic root of a cost spec")
    p.set_defaults(run=cmd_root)
    _add_costs(p)
    _add_format(p)

    p = sub.add_parser("code", help="build a code and print codewords + report")
    p.set_defaults(run=cmd_code)
    _add_costs(p)
    _add_probs(p)
    _add_format(p)
    p.add_argument("--epsilon", type=float, default=None,
                   help="enable the approximation bound row")
    p.add_argument("--trace", action="store_true", help="record split details")
    p.add_argument("--tree", action="store_true",
                   help="include the serialized tree in JSON output")

    p = sub.add_parser("bounds", help="entropy, redundancy, and bound table")
    p.set_defaults(run=cmd_bounds)
    _add_costs(p)
    _add_probs(p)
    _add_format(p)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("oracle", help="exact optimum for small instances")
    p.set_defaults(run=cmd_oracle)
    _add_costs(p)
    _add_probs(p)
    _add_format(p)
    p.add_argument("--cap", type=float, default=None,
                   help="prune the search above this cost")

    p = sub.add_parser("compare", help="constructed cost vs exact optimum")
    p.set_defaults(run=cmd_compare)
    _add_costs(p)
    _add_probs(p)
    _add_format(p)
    p.add_argument("--epsilon", type=float, default=None)

    p = sub.add_parser("bench", help="per-layer seconds as JSON, with each row's "
                       "nr against its bound, over instance sizes")
    p.set_defaults(run=cmd_bench)
    p.add_argument("--costs", required=True, nargs="+", metavar="SPEC",
                   help="cost specs")
    p.add_argument("--sizes", default="1000,10000,100000,1000000",
                   help="comma-separated instance sizes")
    p.add_argument("--dist", default=["zipf:1.0"], nargs="+",
                   help="distribution families: uniform | dyadic | zipf[:S] | geom[:Q]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=1)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout: that ends the output, not the run's
        # success.  Point stdout at devnull so the interpreter's last flush
        # writes nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (OSError, ValueError) as exc:
        print(f"error parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except VarncodeError as exc:
        print(f"error {exc.reason}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
