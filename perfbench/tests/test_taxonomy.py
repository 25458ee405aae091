"""Wrong outputs end as failed checks, not as refusals, and fail the run.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402
import workloads  # noqa: E402
from reference import Clock  # noqa: E402
from spans import Spans  # noqa: E402
from varncode import CapTooSmallError  # noqa: E402

INSTANCE = workloads.Instance("0", "finite:1,2", 3, np.array([0.5, 0.3, 0.2]), 2)


class CheapTree:
    """A built tree that claims half its cost and gives every symbol the
    codeword (1,): cheaper than any prefix-free code."""

    def __init__(self, tree):
        self._tree = tree

    def __getattr__(self, name):
        return getattr(self._tree, name)

    def cost(self):
        return self._tree.cost() / 2

    def codewords(self):
        for i, _, _ in self._tree.codewords():
            yield i, (1,), 1.0


def audit(monkeypatch=None, **patches):
    wl = workloads.AuditSmall(smoke=True)
    wl.seed = 0
    wl.pool = [INSTANCE]
    for name, fn in patches.items():
        monkeypatch.setattr(workloads, name, fn)
    [outcome] = wl.run_pass(Spans(False), Clock())
    return wl, outcome


def test_valid_code_passes():
    _, outcome = audit()
    assert outcome.kind == "ok"
    assert outcome.counts["nodes_explored"] > 0


def test_low_cost_tree_is_a_failed_check(monkeypatch):
    real = workloads.build_code
    wl, outcome = audit(monkeypatch, build_code=lambda *a: CheapTree(real(*a)))
    assert outcome.kind == "check"
    tally = run.Tally(wl)
    tally.add([outcome], 1.0)
    assert tally.failed == 1 and not tally.correct


def test_oracle_above_the_built_cost_is_an_oracle_gap(monkeypatch):
    def oracle(pin, spec, cap=None):
        raise CapTooSmallError("no prefix-free code exists at or below the cap")

    _, outcome = audit(monkeypatch, exact_opt=oracle)
    assert (outcome.kind, outcome.layer, outcome.detail) == (
        "check", "oracle.exact_opt", "oracle_gap")


@pytest.mark.parametrize("kind", ["documented", "traceback", "check"])
def test_unknown_failures_make_the_run_incorrect(kind):
    wl = workloads.AuditSmall(smoke=True)
    wl.seed = 0
    wl.pool = [INSTANCE]
    outcome = workloads.Outcome(key="0", seconds=0.001, symbols=3, kind=kind,
                                layer="coder.build_code", detail="SomeError")
    tally = run.Tally(wl)
    tally.add([outcome], 1.0)
    assert tally.failed == 1 and not tally.correct
