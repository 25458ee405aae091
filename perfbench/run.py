"""varncode benchmark: one workload, one seed, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload bulk-build --seed 0 --seconds 30 --trace 0

Workloads: bulk-build, codebook-cli, audit-small (see perfbench/README.md).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from a traced run.  --smoke runs
tiny sizes, for the benchmark's own tests.  The package is imported from
./src of the checkout this file sits in; without it the run exits non-zero.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 5
MIN_PASSES = 3
IMPORTS = "import numpy, varncode, varncode.cli"

LAYERS = (
    "costs.parse_cost_spec",
    "costs.char_root",
    "cli.parse_gen",
    "coder.prepare",
    "coder.build_code",
    "analysis.report",
    "coder.codewords",
    "cli.emit",
    "oracle.exact_opt",
    "cli.process",
)


def import_package() -> None:
    """Import numpy and varncode from ./src, or exit non-zero."""
    # One client on one core: no BLAS threads spinning beside it (children
    # inherit this too).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import numpy  # noqa: F401
        import varncode
        import varncode.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import varncode from {src}: {exc}")
    if src.resolve() not in Path(varncode.__file__).resolve().parents:
        raise SystemExit(f"perfbench: varncode imported from {varncode.__file__}, not {src}")


def import_seconds() -> float:
    """Time of `IMPORTS` in a fresh interpreter, timed inside it."""
    code = f"from time import perf_counter as t; t0 = t(); {IMPORTS}; print(t() - t0)"
    out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                         text=True, timeout=120, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    return float(out.stdout)


class Tally:
    """Folds each pass into per-instance figures as it ends, so the
    benchmark's own memory grows only by a few floats per instance and pass
    (peak RSS is a metric).

    `attempted` and `failed` count distinct instances, so the same seed gives
    the same counts however many passes a run makes.
    """

    def __init__(self, wl):
        self.wl = wl
        self.passes = 0
        self.wall = 0.0
        self.scales: list[float] = []
        self.times: dict[str, list[float]] = {}   # scaled, one per pass
        self.raw: dict[str, list[float]] = {}
        self.symbols: dict[str, int] = {}
        self.failures: dict[str, tuple] = {}      # key -> (kind, layer, detail)
        self.digests: dict[str, str] = {}
        self.repros: dict[str, dict] = {}
        self.correct = True
        self.totals: Counter = Counter()
        self.max_depth = 0
        self.startup: list[float] = []

    def add(self, outcomes, scale: float) -> None:
        self.passes += 1
        self.scales.append(scale)
        for o in outcomes:
            self.wall += o.seconds
            self.times.setdefault(o.key, []).append(o.seconds * scale)
            self.raw.setdefault(o.key, []).append(o.seconds)
            self.symbols[o.key] = o.symbols
            self.totals["symbols"] += o.symbols
            for name in ("nodes", "letters", "bytes", "nodes_explored"):
                self.totals[name] += o.counts.get(name, 0)
            self.max_depth = max(self.max_depth, o.counts.get("depth", 0))
            if "replay_s" in o.counts:
                self.startup.append(o.seconds - o.counts["replay_s"])
                self.totals["replay_s"] += o.counts["replay_s"]
            if o.digest:
                self.digests.setdefault(o.key, o.digest)
            if o.kind == "ok" or o.key in self.failures:
                continue
            self.failures[o.key] = (o.kind, o.layer, o.detail)
            self.correct &= o.known
            key = f"{o.kind}|{o.layer}|{o.detail}"
            if key not in self.repros:
                self.repros[key] = dict(self.wl.repro(o), known_defect=o.known,
                                        error=str(o.counts.get("error", ""))[-400:])

    @property
    def failed(self) -> int:
        return len(self.failures)


def measure(wl, tally: Tally, seconds: float, sp, clock) -> None:
    """Whole passes, at least MIN_PASSES, until the timed wall reaches `seconds`.

    Checks and reference samples run between timed sections and do not count
    against `seconds`.
    """
    while tally.passes < MIN_PASSES or tally.wall < seconds:
        outcomes = wl.run_pass(sp, clock)
        tally.add(outcomes, clock.take_scale())


def end_to_end(wl, t: Tally, times: dict, setup_s: float) -> dict:
    """Every instance runs once per pass; its time is its median pass.

    `times` is Tally.times (scaled by the reference, see reference.py) or
    Tally.raw.
    """
    import numpy as np

    per = {k: statistics.median(v) for k, v in times.items()}
    ok = [k for k in per if k not in t.failures]
    total = sum(per.values())
    lat_ms = np.array([per[k] for k in (ok or per)]) * 1e3
    return {
        "setup_s": (setup_s, "s"),
        "symbols_per_s": (sum(t.symbols[k] for k in ok) / total, "1/s"),
        "instances_per_s": (len(ok) / total, "1/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p99_ms": (float(np.percentile(lat_ms, 99)), "ms"),
        "verified_rate": (1.0 - len(t.failures) / len(per), "ratio"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
    }


def failure_kinds(tallies) -> Counter:
    """(kind, layer, detail) -> distinct instances that ended so."""
    failures: dict = {}
    for t in tallies:
        failures.update(t.failures)
    return Counter(failures.values())


def per_layer(untraced: Tally, traced: Tally, spans) -> dict:
    from spans import self_times

    times = self_times(spans)
    failures = failure_kinds((untraced, traced))
    out = {}
    for layer in LAYERS:
        calls, secs = times.get(layer, (0, 0.0))
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (secs, "s")
        out[f"{layer}.share"] = (secs / traced.wall, "ratio")
        out[f"{layer}.failures"] = (sum(c for (_, lay, _), c in failures.items()
                                        if lay == layer), "count")

    def per(layer, count):
        return times.get(layer, (0, 0.0))[1] * 1e9 / count if count else 0.0

    tot = traced.totals
    out["coder.prepare.ns_per_symbol"] = (per("coder.prepare", tot["symbols"]), "ns")
    out["coder.build_code.nodes"] = (tot["nodes"], "count")
    out["coder.build_code.ns_per_node"] = (per("coder.build_code", tot["nodes"]), "ns")
    out["coder.build_code.max_depth"] = (traced.max_depth, "count")
    out["coder.codewords.letters"] = (tot["letters"], "count")
    out["coder.codewords.ns_per_letter"] = (per("coder.codewords", tot["letters"]), "ns")
    out["cli.emit.bytes"] = (tot["bytes"], "B")
    out["cli.startup_s"] = (statistics.fmean(traced.startup) if traced.startup else 0.0, "s")
    out["oracle.exact_opt.nodes_explored"] = (tot["nodes_explored"], "count")
    for kind in ("traceback", "documented", "check"):
        out[f"fail.{kind}"] = (sum(c for (k, _, _), c in failures.items() if k == kind),
                               "count")
    # Per pass, from each instance's median scaled pass, so that other
    # tenants' load does not pass for tracing cost.  On codebook-cli these are
    # the children's walls; the in-process replay is not part of them.
    untraced_pass = sum(statistics.median(v) for v in untraced.times.values())
    overhead = sum(statistics.median(v) for v in traced.times.values()) - untraced_pass
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_share"] = (overhead / untraced_pass, "ratio")
    return out


def environment(args) -> dict:
    import numpy as np

    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "varncode").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "source_sha256": src.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        env["commit"] = ref
    return env


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("bulk-build", "codebook-cli", "audit-small"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind so that a running CLI child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    import_package()
    sys.path.insert(0, str(HERE))
    import workloads
    from reference import CHILD_REF_S, REF_S, Clock
    from spans import Spans, write_spans

    smoke = args.smoke
    if args.workload == "bulk-build":
        wl = workloads.BulkBuild(smoke)
    elif args.workload == "audit-small":
        wl = workloads.AuditSmall(smoke)
    else:
        wl = workloads.CodebookCli(smoke, ROOT, RESULTS / "tmp")

    # Set-up is mostly a fresh interpreter's imports: the child reference.
    setup_clock = Clock(child=True)
    imports, setups = [], []
    for _ in range(SETUP_REPEATS):
        setup_clock.tick()
        imports.append(import_seconds())
        t0 = perf_counter()
        wl.setup(args.seed)
        setups.append(perf_counter() - t0)
    setup_clock.tick()
    setup_raw_s = statistics.median(imports) + statistics.median(setups)
    setup_scale = setup_clock.take_scale()
    clock = Clock(child=wl.child_reference)
    # Objects made during set-up stay out of the collector's scans while timing.
    gc.collect()
    gc.freeze()

    tallies = [Tally(wl)]
    if args.trace:
        # Untraced and traced passes alternate, so that a slow stretch of the
        # machine falls on both and does not pass for tracing cost.
        sp = Spans(True)
        tallies.append(Tally(wl))
        while tallies[1].passes < 1 or tallies[0].wall + tallies[1].wall < args.seconds:
            for t, spans in ((tallies[0], Spans(False)), (tallies[1], sp)):
                outcomes = wl.run_pass(spans, clock)
                t.add(outcomes, clock.take_scale())
        metrics = per_layer(tallies[0], tallies[1], sp.spans)
    else:
        measure(wl, tallies[0], args.seconds, Spans(False), clock)
        metrics = end_to_end(wl, tallies[0], tallies[0].times, setup_raw_s * setup_scale)
        raw = end_to_end(wl, tallies[0], tallies[0].raw, setup_raw_s)

    kinds = failure_kinds(tallies)
    attempted = len(set().union(*(t.times for t in tallies)))
    failed = sum(kinds.values())
    counts: dict = {}
    for (kind, layer, detail), c in kinds.items():
        counts.setdefault(kind, {}).setdefault(layer, {})[detail] = c
    repros: dict = {}
    for t in tallies:
        repros = {**t.repros, **repros}
    digests = sorted(tallies[0].digests.items())
    info = {
        "environment": environment(args),
        "passes": sum(t.passes for t in tallies),
        "ref_s": {"in_process": REF_S, "child": CHILD_REF_S},
        "scales": {"setup": setup_scale, "passes": [s for t in tallies for s in t.scales]},
        "setup_runs_s": setups,
        "import_runs_s": imports,
        "fail_rate": failed / attempted,
        "failures": {"counts": counts, "repros": repros},
        "digests": digests,
    }
    if not args.trace:
        info["raw_metrics"] = {name: value for name, (value, _) in raw.items()}
    if args.trace and tallies[1].startup:
        info["replay_s_per_pass"] = tallies[1].totals["replay_s"] / tallies[1].passes
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(info, indent=1) + "\n")
    if args.trace:
        write_spans(RESULTS / f"{stem}-spans.csv", sp.spans)
    summary = {k: v for k, v in info.items() if k != "digests"}
    summary["digest_of_digests"] = hashlib.sha256(
        json.dumps(info["digests"]).encode()).hexdigest()
    print("perfbench-info " + json.dumps(summary, sort_keys=True))
    print(json.dumps({
        "correct": all(t.correct for t in tallies),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
