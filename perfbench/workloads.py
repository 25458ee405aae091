"""The three workloads: seeded inputs, one pass of timed work, output checks.

Every workload is a closed loop with one client in this process: the next
instance starts when the previous one has ended, and CLI children run one at
a time.  Each instance ends as one of four kinds:

    ok          the output passed every check in checks.py
    documented  a VarncodeError (the CLI's exits 2-5)
    traceback   any other exception (the CLI's exit 1)
    check       the program returned an output that failed a check

Failures are never filtered out; they count against `verified_rate`.  Only
the known defects listed in KNOWN_DEFECTS keep a run `correct`: the inputs
are all well-formed, so a documented error is a failure like any other.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import pickle
import resource
import signal
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from varncode import (
    CapTooSmallError,
    VarncodeError,
    build_code,
    char_root,
    exact_opt,
    parse_cost_spec,
    prepare,
    report,
)
from varncode.cli import parse_gen, root_dict

import checks
from spans import Spans

# (kind, layer, detail) -> the ROADMAP defect it is, and which instances hit it.
KNOWN_DEFECTS = {
    ("traceback", "coder.build_code", "IndexError"): (
        "build_code reads lcosts[m] for the last letter of a finite integer "
        "profile without ensure(m)", lambda inst: inst.spec.startswith("profile:")),
    ("traceback", "oracle.exact_opt", "TypeError"): (
        "exact_opt reads spec.costs, which is None for integer profiles",
        lambda inst: inst.spec.startswith("profile:")),
    ("check", "analysis.report", "bound:Mehlhorn_eqMbound"): (
        "the row is marked applicable at n = 1 but counts the one symbol twice",
        lambda inst: inst.n == 1),
}


@dataclass
class Outcome:
    """One timed instance: its wall time, size, how it ended, and counters."""

    key: str
    seconds: float
    symbols: int
    kind: str = "ok"
    layer: str | None = None
    detail: str | None = None
    known: bool = False
    counts: dict = field(default_factory=dict)
    digest: str | None = None


@dataclass
class Instance:
    key: str
    spec: str
    n: int
    probs: np.ndarray
    alphabet: int | None = None      # letters of a finite alphabet, else None


def _fail(outcome: Outcome, inst: Instance, kind, layer, detail) -> Outcome:
    outcome.kind, outcome.layer, outcome.detail = kind, layer, detail
    known = KNOWN_DEFECTS.get((kind, layer, detail))
    outcome.known = bool(known and known[1](inst))
    return outcome


def _library_path(inst: Instance, sp, codewords: bool, oracle: bool):
    """parse -> root -> prepare -> build -> report [-> codewords] [-> oracle]."""
    with sp.span("costs.parse_cost_spec"):
        spec = parse_cost_spec(inst.spec)
    with sp.span("costs.char_root"):
        root = char_root(spec)
    with sp.span("coder.prepare"):
        pin = prepare(inst.probs)
    with sp.span("coder.build_code"):
        tree = build_code(pin, spec, root)
    with sp.span("analysis.report"):
        rep = report(tree)
    words = opt = None
    if codewords:
        with sp.span("coder.codewords"):
            words = list(tree.codewords())
    if oracle:
        with sp.span("oracle.exact_opt"):
            try:
                opt = exact_opt(pin, spec, cap=tree.cost())
            except CapTooSmallError as exc:
                # The oracle found no code as cheap as the built one: the
                # output is wrong (or the oracle is), not a refusal.  The
                # checks decide which.
                opt = exc
    return spec, root, tree, rep, words, opt


def _run_library(inst: Instance, sp, codewords: bool, oracle: bool):
    """One timed instance: (outcome, results or None when a layer raised)."""
    t0 = perf_counter()
    try:
        result = _library_path(inst, sp, codewords, oracle)
    except VarncodeError as exc:
        outcome = Outcome(key=inst.key, seconds=perf_counter() - t0, symbols=inst.n,
                          counts={"error": repr(exc)})
        return _fail(outcome, inst, "documented", sp.layer, type(exc).__name__), None
    except Exception as exc:  # a traceback is a program defect: record, keep going
        outcome = Outcome(key=inst.key, seconds=perf_counter() - t0, symbols=inst.n,
                          counts={"error": traceback.format_exc(limit=-3)})
        return _fail(outcome, inst, "traceback", sp.layer, type(exc).__name__), None
    return Outcome(key=inst.key, seconds=perf_counter() - t0, symbols=inst.n), result


def _in_child(fn, *args):
    """fn(*args) in a forked child, its result sent back through a pipe.

    The child's memory is its own, so what fn allocates stays out of this
    process's peak RSS, which is a metric.
    """
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(rfd)
            try:
                payload = (True, fn(*args))
            except BaseException:
                payload = (False, traceback.format_exc())
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(0)
    os.close(wfd)
    reaped = False
    try:
        with os.fdopen(rfd, "rb") as fh:
            data = fh.read()
        os.waitpid(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    ok, value = pickle.loads(data)
    if not ok:
        raise RuntimeError(f"output check crashed in its child:\n{value}")
    return value


# ---------------------------------------------------------------------------
# bulk-build
# ---------------------------------------------------------------------------

BULK_SPECS = ("linear", "finite:1,2", "fib", "finite:1,1,5")
BULK_DISTS = ("zipf", "uniform", "hist")


def bulk_probs(dist: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if dist == "zipf":
        x = np.arange(1, n + 1, dtype=np.float64) ** -1.0
    elif dist == "uniform":
        x = rng.random(n) + 1e-9
    else:
        # Counts of 3n draws from zipf(1.3): about 85% of symbols get none,
        # which makes zero-mass chains as deep as the zero count.
        w = np.arange(1, n + 1, dtype=np.float64) ** -1.3
        x = rng.multinomial(3 * n, w / w.sum()).astype(np.float64)
    return x / x.sum()


class BulkBuild:
    """One large n through prepare -> build_code -> report, per spec x dist."""

    child_reference = False

    def __init__(self, smoke: bool):
        self.n = 2_000 if smoke else 100_000
        self.instances: list[Instance] = []
        self.first: dict[str, tuple] = {}

    def setup(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.instances = [
            Instance(f"{spec}|{dist}", spec, self.n, bulk_probs(dist, self.n, rng))
            for dist in BULK_DISTS for spec in BULK_SPECS
        ]
        warm = bulk_probs("zipf", max(self.n // 20, 2), rng)
        for text in BULK_SPECS:
            spec = parse_cost_spec(text)
            report(build_code(prepare(warm), spec, char_root(spec)))

    def run_pass(self, sp, clock) -> list[Outcome]:
        out = []
        for i, inst in enumerate(self.instances):
            # Two reference samples per instance: 24 per pass, 10% of it.
            clock.tick(2)
            sp.instance = i
            outcome, result = _run_library(inst, sp, codewords=False, oracle=False)
            if result is not None:
                self._check(inst, outcome, result)
            result = None  # free this tree before the next one is built
            out.append(outcome)
        return out

    def _check(self, inst, outcome, result) -> None:
        spec, root, tree, rep, _, _ = result
        leaf_hash = hashlib.sha256(np.asarray(tree.leaf_costs).tobytes()).hexdigest()
        first = self.first.get(inst.key)
        if first is None:
            bad, digest, depth = _in_child(checks.check_tree, tree, inst.probs, spec,
                                           root.value, rep)
            first = (bad, digest, depth, tree.cost(), leaf_hash)
            self.first[inst.key] = first
        elif (tree.cost(), leaf_hash) != first[3:]:
            _fail(outcome, inst, "check", *checks.fail("deterministic"))
            return
        bad, digest, depth = first[:3]
        outcome.digest = digest
        outcome.counts.update(nodes=tree.num_nodes, depth=depth)
        if bad is not None:
            _fail(outcome, inst, "check", *bad)

    def repro(self, outcome: Outcome) -> dict:
        spec, dist = outcome.key.split("|")
        return {"spec": spec, "dist": dist, "n": self.n, "seed": self.seed}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# audit-small
# ---------------------------------------------------------------------------

FAMILIES = ("finite_int", "finite_frac", "telegraph", "rll", "linear", "repeat",
            "fib", "balanced", "profile_zero", "profile_repeat")
ALPHAS = (0.25, 0.5, 1.0, 4.0)


def draw_spec(family: str, rng: np.random.Generator) -> tuple[str, int | None]:
    """A well-formed DSL string of the family, with its finite alphabet size."""
    if family == "finite_int":
        t = int(rng.integers(2, 6))
        costs = [1] + sorted(int(c) for c in rng.integers(1, 7, t - 1))
        return "finite:" + ",".join(map(str, costs)), t
    if family == "finite_frac":
        t = int(rng.integers(2, 5))
        costs = [1.0] + sorted(round(1.0 + 4.0 * float(u), 2) for u in rng.random(t - 1))
        return "finite:" + ",".join(f"{c:g}" for c in costs), t
    if family == "telegraph":
        return "telegraph", 2
    if family == "rll":
        a = int(rng.integers(1, 4))
        b = a + int(rng.integers(1, 4))
        return f"rll:{a},{b}", b - a + 1
    if family == "linear":
        return "linear", None
    if family == "repeat":
        return f"repeat:{int(rng.integers(1, 4))}", None
    if family in ("fib", "balanced"):
        return family, None
    levels = [int(d) for d in rng.integers(0, 4, int(rng.integers(1, 4)))]
    levels[-1] = max(levels[-1], 1)
    if family == "profile_zero":
        if sum(levels) < 2:
            levels[-1] = 2
        return "profile:" + ",".join(map(str, levels)), sum(levels)
    return "profile:" + ",".join(map(str, levels)) + ";tail=repeat", None


# The specs are one fixed draw; --seed draws the probabilities.  The oracle's
# cost swings by 100x with the letter costs (finite:1,1,5,5 at n = 10 explores
# ~10^5 states), so drawing specs per seed would make a seed's few heaviest
# instances decide its throughput: 22% spread in oracle work between seeds,
# against 3.5% with fixed specs.
SPEC_SEED = 20070501


def audit_pool(seed: int, size: int) -> list[Instance]:
    """Every (family, n, alpha) cell the same number of times."""
    spec_rng = np.random.default_rng(SPEC_SEED)
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(size):
        family = FAMILIES[i % len(FAMILIES)]
        n = 1 + (i // len(FAMILIES)) % 10
        alpha = ALPHAS[(i // (10 * len(FAMILIES))) % len(ALPHAS)]
        spec, t = draw_spec(family, spec_rng)
        probs = rng.dirichlet([alpha] * n) if n > 1 else np.ones(1)
        pool.append(Instance(f"{i}", spec, n, probs, t))
    return pool


# One reference sample per REF_EVERY instances: about 30 per pass, 12% of it.
REF_EVERY = 200


class AuditSmall:
    """Thousands of small instances through every layer, audited by the oracle."""

    child_reference = False

    # 6000 instances put 60 beyond p99.  The oracle's work on an instance
    # depends on its probabilities, so with 2000 the p99 of oracle work spread
    # 14% between seeds (quartiles over median, ten seeds); with 6000, 5.6%.
    def __init__(self, smoke: bool):
        self.size = 80 if smoke else 6000
        self.pool: list[Instance] = []

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.pool = audit_pool(seed, self.size)
        for inst in self.pool[:125]:
            _run_library(inst, Spans(False), codewords=True, oracle=self._oracle(inst))

    @staticmethod
    def _oracle(inst: Instance) -> bool:
        return inst.alphabet is not None and inst.alphabet <= 4

    def run_pass(self, sp, clock) -> list[Outcome]:
        out = []
        for i, inst in enumerate(self.pool):
            if i % REF_EVERY == 0:
                clock.tick()
            sp.instance = i
            oracle = self._oracle(inst)
            outcome, result = _run_library(inst, sp, codewords=True, oracle=oracle)
            if result is not None:
                spec, root, tree, rep, cws, opt = result
                words = [w for _, w, _ in cws]
                costs = [c for _, _, c in cws]
                if isinstance(opt, CapTooSmallError):
                    opt_cost = math.inf  # OPT > C(T): a check must fail
                else:
                    opt_cost = opt.opt_cost if opt else None
                bad = checks.check_words(words, costs, inst.probs, spec, root.value, rep,
                                         opt_cost)
                outcome.digest = checks.words_digest(words, costs)
                outcome.counts.update(nodes=tree.num_nodes, depth=max(map(len, words)),
                                      letters=sum(map(len, words)))
                if opt is not None and not isinstance(opt, CapTooSmallError):
                    outcome.counts["nodes_explored"] = opt.nodes_explored
                if bad is not None:
                    _fail(outcome, inst, "check", *bad)
            out.append(outcome)
        return out

    def repro(self, outcome: Outcome) -> dict:
        inst = self.pool[int(outcome.key)]
        inline = ",".join(repr(float(p)) for p in inst.probs)
        sub = "oracle" if outcome.layer == "oracle.exact_opt" else "code"
        return {"spec": inst.spec, "n": inst.n, "seed": self.seed,
                "instance": int(outcome.key),
                "command": f"varncode {sub} --costs '{inst.spec}' --inline {inline}"}

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# codebook-cli
# ---------------------------------------------------------------------------

CLI_SPECS = ("linear", "finite:1,2")
CLI_FORMATS = ("text", "json")


class CodebookCli:
    """`varncode code --gen zipf:1.0,N` as child processes, text and JSON."""

    child_reference = True

    def __init__(self, smoke: bool, root: Path, tmp_dir: Path):
        self.base = 2_000 if smoke else 50_000
        self.root = root
        self.tmp_dir = tmp_dir
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.sizes: dict[str, int] = {}
        self.first: dict[tuple, tuple] = {}
        self.max_rss_kb = 0

    def argv(self, spec: str, fmt: str, n: int) -> list[str]:
        return [sys.executable, "-m", "varncode.cli", "code", "--costs", spec,
                "--gen", f"zipf:1.0,{n}", "--format", fmt]

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        spread = self.base // 100
        self.sizes = {s: self.base + int(rng.integers(-spread, spread + 1)) for s in CLI_SPECS}
        self.tmp_dir.mkdir(parents=True, exist_ok=True)
        self._spawn(self.argv("linear", "json", 1_000))

    def _spawn(self, argv):
        """Run one child; return (start, end, exit code, stdout, stderr, maxrss KB)."""
        out_path = self.tmp_dir / "child.out"
        err_path = self.tmp_dir / "child.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.root)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            t1 = perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (t0, t1, proc.returncode, out_path.read_bytes(), err_path.read_bytes(),
                usage.ru_maxrss)

    def run_pass(self, sp, clock) -> list[Outcome]:
        out = []
        for spec in CLI_SPECS:
            n = self.sizes[spec]
            outputs = {}
            for fmt in CLI_FORMATS:
                # One child reference per child: four per pass.
                clock.tick()
                sp.instance = len(out)
                argv = self.argv(spec, fmt, n)
                sp.layer = "cli.process"
                t0, t1, code, stdout, stderr, rss = self._spawn(argv)
                sp.add("cli.process", t0, t1)
                self.max_rss_kb = max(self.max_rss_kb, rss)
                inst = Instance(f"{spec}|{fmt}", spec, n, np.empty(0))
                outcome = Outcome(key=inst.key, seconds=t1 - t0, symbols=n,
                                  counts={"bytes": len(stdout)})
                if code != 0:
                    kind = "documented" if code in (2, 3, 4, 5) else "traceback"
                    lines = stderr.decode(errors="replace").strip().splitlines() or [""]
                    _fail(outcome, inst, kind, "cli.process", lines[-1].split(":")[0])
                    outcome.counts["error"] = lines[-1]
                else:
                    outputs[fmt] = (outcome, stdout)
                if sp.record:
                    outcome.counts.update(self._replay(sp, spec, fmt, n))
                out.append(outcome)
            self._check(spec, n, outputs)
        return out

    def _replay(self, sp, spec_text: str, fmt: str, n: int) -> dict:
        """The calls cmd_code makes, in process, so the child's wall can be split."""
        t0 = perf_counter()
        with sp.span("costs.parse_cost_spec"):
            spec = parse_cost_spec(spec_text)
        with sp.span("costs.char_root"):
            root = char_root(spec)
        with sp.span("cli.parse_gen"):
            raw = parse_gen(f"zipf:1.0,{n}", 0)
        with sp.span("coder.prepare"):
            pin = prepare(raw)
        with sp.span("coder.build_code"):
            tree = build_code(pin, spec, root)
        with sp.span("analysis.report"):
            rep = report(tree)
        if fmt == "text":
            with sp.span("coder.codewords"):
                lines = list(tree.codeword_lines())
            with sp.span("cli.emit"):
                buf = io.StringIO()
                for line in lines:
                    print(line, file=buf)
                print(f"# cost = {rep.cost!r}", file=buf)
                print(f"# entropy = {rep.entropy!r}", file=buf)
                print(f"# lower_bound = {rep.lower_bound!r}", file=buf)
                print(f"# redundancy = {rep.redundancy!r}  nr = {rep.nr!r}", file=buf)
                buf.getvalue()
            letters = sum(line.count(",") + 1 for line in lines)
        else:
            with sp.span("coder.codewords"):
                cws = list(tree.codewords())
            with sp.span("cli.emit"):
                payload = {
                    "root": root_dict(spec, root),
                    "codewords": [{"index": i, "letters": list(w), "cost": c}
                                  for i, w, c in cws],
                    "report": rep.to_dict(),
                }
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            letters = sum(len(w) for _, w, _ in cws)
        return {"replay_s": perf_counter() - t0, "nodes": tree.num_nodes,
                "letters": letters}

    def _check(self, spec_text: str, n: int, outputs: dict) -> None:
        """The first pass where both formats print is parsed and checked in
        full; every later output must repeat its bytes exactly."""
        first = self.first.get(spec_text)
        if first is None and len(outputs) == len(CLI_FORMATS):
            shas = {f: hashlib.sha256(data).hexdigest() for f, (_, data) in outputs.items()}
            first = self.first[spec_text] = (self._check_outputs(spec_text, n, outputs), shas)
        for fmt, (outcome, data) in outputs.items():
            inst = Instance(outcome.key, spec_text, n, np.empty(0))
            if first is None:
                # The other format failed, so this one cannot be cross-checked.
                _fail(outcome, inst, "check", *checks.fail("text_json_agree"))
                continue
            (bad, digest, depth), shas = first
            outcome.digest = digest
            outcome.counts["depth"] = depth
            if bad is not None:
                _fail(outcome, inst, "check", *bad)
            elif hashlib.sha256(data).hexdigest() != shas[fmt]:
                _fail(outcome, inst, "check", *checks.fail("deterministic"))

    def _check_outputs(self, spec_text: str, n: int, outputs: dict):
        try:
            twords, tcosts, summary = checks.parse_text_output(outputs["text"][1].decode())
            jwords, jcosts, payload = checks.parse_json_output(outputs["json"][1].decode())
        except (ValueError, KeyError, TypeError):
            return checks.fail("text_json_agree"), None, 0
        if (twords != jwords or tcosts != jcosts
                or float(summary.get("cost", "nan")) != payload["report"]["cost"]):
            return checks.fail("text_json_agree"), None, 0
        x = np.arange(1, n + 1, dtype=np.float64) ** -1.0
        probs = x / x.sum()
        spec = parse_cost_spec(spec_text)
        bad = checks.check_words(jwords, jcosts, probs, spec, payload["root"]["c"],
                                 payload["report"])
        return bad, checks.words_digest(jwords, jcosts), max(map(len, jwords))

    def repro(self, outcome: Outcome) -> dict:
        spec, fmt = outcome.key.split("|")
        n = self.sizes[spec]
        return {"spec": spec, "n": n, "command": " ".join(self.argv(spec, fmt, n)[1:])}

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0
