"""Print a byte-identity fingerprint of the CLI over a fixed case matrix.

Usage: python3 tools/cli_matrix.py SRC_DIR

Imports varncode from SRC_DIR (the directory that holds the `varncode`
package) and runs `varncode.cli.main` in-process on every case.  Each case
prints one tab-separated line: the argv, the exit code, the sha256 of
stdout, and the first two whitespace tokens of stderr.  Run it on two
checkouts and diff the outputs: an empty diff means every case printed the
same bytes and exited the same way.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

SPECS = (
    "finite:1,2", "finite:1,1", "finite:1,1.5,3", "finite:2,3,7",
    "finite:1,1,1,1", "telegraph", "rll:1,3", "rll:2,5", "linear",
    "repeat:1", "repeat:3", "fib", "balanced", "profile:1,1",
    "profile:0,2,1", "profile:2,1,1;tail=zero", "profile:1,0,2;tail=repeat",
    "profile:0,1;tail=repeat", "profile:1,1,0;tail=repeat",
    # One alphabet two ways, at a root that is not dyadic (z = 1/3): in
    # closed form, and by Newton.
    "repeat:2", "profile:2;tail=repeat",
)
INPUTS = (
    ("--inline", "1.0"), ("--inline", "0.5,0.5"), ("--inline", "0.7,0.3,0,0,0"),
    ("--inline", "0.4,0.3,0.2,0.1"), ("--gen", "uniform:7"), ("--gen", "dyadic:9"),
    ("--gen", "zipf:1.0,40"), ("--gen", "geom:0.3,12"),
)
FORMATS = (("--format", "text"), ("--format", "json"))
EPSILONS = ((), ("--epsilon", "0.25"), ("--epsilon", "0.5"), ("--epsilon", "0.7"),
            ("--epsilon", "0.05"), ("--epsilon", "0.01"))
SMALL_INPUTS = INPUTS[:5]
PARSE_ERRORS = (
    ("root", "--costs", "finite:1"),
    ("root", "--costs", "bogus"),
    ("root", "--costs", "profile:1,-2"),
    ("root", "--costs", "profile:1;tail=zero"),
    ("root", "--costs", "repeat:2.5"),
    ("root", "--costs", "profile:1e308,1e308"),
    ("root",),
    ("code", "--costs", "linear", "--gen", "nope:3"),
    # Generator text that names no parameter where one is read.
    ("code", "--costs", "linear", "--gen", "zipf:,40"),
    ("code", "--costs", "linear", "--gen", "geom:,12"),
    ("code", "--costs", "linear", "--inline", "0.5,x"),
    ("code", "--costs", "linear", "--inline", "0.5,0.4"),
    ("bounds", "--costs", "fib", "--gen", "uniform:5", "--epsilon", "0"),
    ("bounds", "--costs", "balanced", "--gen", "uniform:5", "--epsilon", "0"),
    ("compare", "--costs", "finite:1,1,1,1,1", "--gen", "uniform:3"),
    ("oracle", "--costs", "finite:1,2", "--inline", "0.5,0.5", "--cap", "0.5"),
    # Non-finite numbers, and an rll span past its letter limit.
    ("root", "--costs", "profile:1e309"),
    ("root", "--costs", "repeat:1e309"),
    ("root", "--costs", "rll:1,1e309"),
    ("root", "--costs", "profile:1,inf"),
    ("root", "--costs", "rll:1,1000000"),
    # A non-integer rll bound.
    ("root", "--costs", "rll:1.5,3.9"),
    # A repeat multiplicity below 1.
    ("root", "--costs", "repeat:0"),
    ("root", "--costs", "repeat:-3"),
    # Finite costs whose ratio, once rescaled, passes the float range.
    ("root", "--costs", "finite:1e-300,1e10"),
)
# Named alphabets spelled with other case, spaces and a float multiplicity:
# each prints its canonical label.
SPELLINGS = (" Linear ", "REPEAT: 2.0", "Telegraph")
# Finite lists rescaled so the cheapest letter costs 1 (`rll:2,5` is one of
# SPECS), and one within 1e-12 of 1 that is kept as given.
RESCALED = ("finite:2,3", "finite:2,4,7", "finite:1.0000000000001,2")
RESCALED_ORACLE = ("oracle", "--costs", "finite:2,3", "--inline", "0.5,0.3,0.2",
                   "--format", "json")
# Alphabets whose cheapest letter does not cost 1 in the oracle's own
# units: profiles whose cheapest level is 3 and 2, and a finite list within
# 1e-12 of 1 that is kept as given.
ORACLE_UNITS = ("profile:0,0,1,1", "profile:0,3", "finite:1.0000000000001,2")
# Roots near both ends of what a spec can reach: the largest profile coefficient's,
# and two far below 1, at 2.9e-9 and 9.9e-298, that only a relative stop
# resolves; and a repeating profile whose weighted sum nears the float maximum.
EXTREME_ROOTS = ("profile:1e300", "finite:1,1e10", "finite:1,1e300",
                 "profile:1e308,1e308;tail=repeat")
# Geometric and dyadic tails whose deep bins are narrower than an ulp of
# their left ends, or lie where an infinite alphabet's cumulative letter
# weight stops growing: each such bin counts as empty.  n stays at most 400:
# on a finite alphabet a geometric source makes chains about n deep, so the
# codeword output grows as n^2.
COLLAPSED_BINS = tuple(("--gen", g) for g in (
    "geom:0.5,60", "geom:0.5,200", "geom:0.3,100", "geom:0.9,400", "dyadic:60",
    "dyadic:100"))
# Above _VECTOR_SLOTS (64) symbols, so the trace and tree read a numpy-built tree.
NUMPY_INPUT = ("--gen", "zipf:1.0,300")
# The trace alone, in both formats: of a right-shifted split, and of a tree
# whose zero-width blocks reach `_Walk.chains` on the numpy path.
TRACED = (("--costs", "finite:1,5", "--inline", "0.5,0.5"),
          ("--costs", "finite:1,2", "--gen", "geom:0.3,100"))
# The oracle at the largest n it takes, the size its audits search.
ORACLE_INPUT = ("--gen", "zipf:1.0,10")
# An optimal code whose C(T) is 1 ulp below OPT's rearranged sum at 3.3e299.
HUGE_SCALE_COMPARE = ("compare", "--costs", "finite:1e-300,1", "--inline",
                      "0.6654575346533242,0.2721042781738002,0.062438187172875484")


def cases():
    for spec in SPECS:
        costs = ("--costs", spec)
        for fmt in FORMATS:
            yield ("root",) + costs + fmt
            for inp in INPUTS:
                for eps in EPSILONS:
                    yield ("bounds",) + costs + inp + fmt + eps
                    for extra in ((), ("--trace", "--tree")):
                        yield ("code",) + costs + inp + fmt + eps + extra
            for inp in SMALL_INPUTS:
                yield ("oracle",) + costs + inp + fmt
                for eps in EPSILONS[:3]:
                    yield ("compare",) + costs + inp + fmt + eps
    yield from PARSE_ERRORS
    for spec in SPELLINGS + RESCALED:
        yield ("root", "--costs", spec, "--format", "json")
    yield RESCALED_ORACLE
    for spec in EXTREME_ROOTS:
        for fmt in FORMATS:
            yield ("root", "--costs", spec) + fmt
    for spec in SPECS:
        for fmt in FORMATS:
            yield ("oracle", "--costs", spec) + ORACLE_INPUT + fmt
    for spec in ORACLE_UNITS:
        for command in ("oracle", "compare"):
            yield (command, "--costs", spec) + ORACLE_INPUT + ("--format", "json")
    for fmt in FORMATS:
        yield HUGE_SCALE_COMPARE + fmt
    for spec in SPECS:
        for inp in COLLAPSED_BINS + (NUMPY_INPUT,):
            for extra in ((), ("--trace", "--tree")):
                yield ("code", "--costs", spec) + inp + ("--format", "json") + extra
    for case in TRACED:
        for fmt in FORMATS:
            yield ("code",) + case + fmt + ("--trace",)


def run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return code, digest, " ".join(err.getvalue().split()[:2])


def main():
    if len(sys.argv) != 2:
        raise SystemExit("usage: cli_matrix.py SRC_DIR")
    sys.path.insert(0, sys.argv[1])
    from varncode.cli import main as cli_main

    count = 0
    for argv in cases():
        code, digest, err = run(cli_main, argv)
        print(f"{' '.join(argv)}\t{code}\t{digest}\t{err}")
        count += 1
    print(f"# {count} cases", file=sys.stderr)


if __name__ == "__main__":
    main()
