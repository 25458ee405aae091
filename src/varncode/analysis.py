"""Entropy, redundancy, and additive redundancy bounds.

All bounds are stated in normalized form NR = c*C(T) - H(p); divide by c for
the plain redundancy R = C(T) - H/c.  Each bound function evaluates one closed
formula; report() assembles them into a table with machine-readable
applicability reasons, so callers never have to guess which formula makes
sense for which alphabet.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coder import CodeTree, ProbInput
from .costs import CharRoot, CostSpec, tail_sum_g
from .errors import (
    BetaInfiniteError,
    DivergentSpecError,
    DivergentTailError,
    InfiniteAlphabetError,
    UnboundedProfileError,
)

BOUND_REFERENCE = "Mehlhorn_eqMbound"
BOUND_MAX_COST = "Thm_first"
BOUND_BETA = "Thm_beta"
BOUND_SIZE = "Thm_tbound"
BOUND_MULTIPLICITY = "Lem_Kbound"
BOUND_APPROX_PREFIX = "Thm_approx"


def entropy(probs) -> float:
    """Shannon entropy in bits; 0*log(0) taken as 0."""
    if isinstance(probs, ProbInput):
        p = probs.probs
    else:
        p = np.asarray(probs, dtype=np.float64)
    pos = p[p > 0.0]
    return float(np.sum(-pos * np.log2(pos)))


def _second_cost_gap(spec: CostSpec) -> float:
    return spec.letter_cost(2) - spec.letter_cost(1)


def reference_bound(spec: CostSpec, root: CharRoot, p1: float, pn: float) -> float:
    """Prior-art comparison value: NR <= (1 - p1 - pn) + c*c_t.

    Only meaningful for finite alphabets; grows with the largest letter cost,
    which is what the sharper bounds below avoid.
    """
    if not spec.is_finite_alphabet:
        raise InfiniteAlphabetError("reference bound needs a finite alphabet")
    return (1.0 - p1 - pn) + root.value * spec.max_cost


def max_cost_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + c*c_t for finite alphabets."""
    if not spec.is_finite_alphabet:
        raise InfiniteAlphabetError("max-cost bound needs a finite alphabet")
    return 2.0 * (1.0 - p1) + root.value * spec.max_cost


def beta_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2 beta) when beta is finite."""
    if not math.isfinite(root.beta):
        raise BetaInfiniteError("beta is infinite for this alphabet")
    return 2.0 * (1.0 - p1) + max(
        root.value * _second_cost_gap(spec),
        1.0 + math.log2(root.beta),
    )


def size_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2 t) for finite alphabets."""
    if not spec.is_finite_alphabet:
        raise InfiniteAlphabetError("size bound needs a finite alphabet")
    return 2.0 * (1.0 - p1) + max(
        root.value * _second_cost_gap(spec),
        1.0 + math.log2(spec.alphabet_size),
    )


def multiplicity_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR bound from the largest multiplicity K = max_j d_j.

    With at most K letters per integer cost level, beta <= K/(1 - 2^(-c)) and
    NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2(K/(1 - 2^(-c)))).  Non-integer
    costs pay one extra c inside the logarithm's companion term.
    """
    K = spec.max_multiplicity()
    if not math.isfinite(K):
        raise UnboundedProfileError("multiplicity is unbounded for this alphabet")
    c = root.value
    log_term = 1.0 + math.log2(K / (1.0 - 2.0 ** (-c)))
    if not spec.integer_costs:
        log_term += c
    return 2.0 * (1.0 - p1) + max(c * _second_cost_gap(spec), log_term)


@dataclass(frozen=True)
class ApproxBound:
    """Additive constant for the (1+eps)-competitive guarantee.

    The built code satisfies C(T) <= (1 + epsilon) * H/c + f_value, where
    f_value = (4/3) * (2/c + (c2 - c1) + cost_threshold).  cost_threshold is
    the smallest cost level N with the cost-weighted tail beyond N at most
    epsilon/6; index_threshold counts the letters costing at most N, and
    tail_value is the tail actually achieved.
    """

    epsilon: float
    cost_threshold: float
    index_threshold: int
    tail_value: float
    f_value: float


def approx_bound(spec: CostSpec, root: CharRoot, epsilon: float) -> ApproxBound:
    """Compute N_eps by scanning cost levels and assemble f(C, eps).

    Scan candidates are the integer levels for profiles and the distinct
    letter costs for finite lists; the tail at N sums c_m * 2^(-c*c_m) over
    letters with cost strictly greater than N, so a finite alphabet always
    terminates at its largest cost.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if not root.tail_convergent:
        raise DivergentTailError(
            "approximation bound needs a convergent cost-weighted tail"
        )
    c = root.value
    target = epsilon / 6.0
    threshold = None
    tail = None
    if spec.costs is not None:
        levels = sorted(set(spec.costs))
        candidates = [0.0] + levels
        for N in candidates:
            t = _finite_tail_beyond(spec, c, N)
            if t <= target:
                threshold = N
                tail = t
                break
    else:
        N = -1
        while True:
            N += 1
            if N > 10 ** 6:
                raise DivergentSpecError("tail scan failed to reach the target")
            t = _profile_tail_beyond(spec, c, N)
            if t <= target:
                threshold = float(N)
                tail = t
                break
    count = spec.count_at_most(threshold)
    f_value = (4.0 / 3.0) * (2.0 / c + _second_cost_gap(spec) + threshold)
    return ApproxBound(
        epsilon=epsilon,
        cost_threshold=threshold,
        index_threshold=count,
        tail_value=tail,
        f_value=f_value,
    )


def _finite_tail_beyond(spec: CostSpec, c: float, N: float) -> float:
    return math.fsum(
        ci * 2.0 ** (-c * ci) for ci in spec.costs if ci > N + 1e-12
    )


def _profile_tail_beyond(spec: CostSpec, c: float, N: int) -> float:
    z = 2.0 ** (-c)
    if spec.is_finite_alphabet:
        count = spec.count_at_most(N)
        return tail_sum_g(spec, c, count + 1)
    return spec.family.weighted_tail_after(N, z)


@dataclass(frozen=True)
class BoundValue:
    """One row of the bound table: a value or a reason it does not apply."""

    name: str
    value: float | None
    applicable: bool
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self.value,
            "applicable": self.applicable,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class AnalysisReport:
    """Cost, entropy, redundancy, and every bound evaluated for one build."""

    cost: float
    entropy: float
    lower_bound: float
    redundancy: float
    nr: float
    bounds: tuple[BoundValue, ...]

    def bound(self, name: str) -> BoundValue:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def min_applicable(self) -> float | None:
        vals = [b.value for b in self.bounds if b.applicable]
        return min(vals) if vals else None

    def to_dict(self) -> dict:
        return {
            "cost": self.cost,
            "entropy": self.entropy,
            "lower_bound": self.lower_bound,
            "redundancy": self.redundancy,
            "nr": self.nr,
            "bounds": [b.to_dict() for b in self.bounds],
        }


def report(tree: CodeTree, epsilon: float | None = None) -> AnalysisReport:
    """Evaluate cost, entropy, redundancy, and the full bound table.

    The tree carries its input, spec, and root.  `epsilon` enables the
    approximation-bound row, reported in NR form:
    2(1-p1) + c(c2-c1) + c*N_eps + (eps/2)*c*C(T).
    """
    pinput = tree.input
    spec = tree.spec
    root = tree.root
    c = root.value
    C = tree.cost()
    H = entropy(pinput)
    lower = H / c
    p1 = pinput.p1
    pn = pinput.pn
    finite = spec.is_finite_alphabet

    rows = []
    if finite:
        rows.append(BoundValue(BOUND_REFERENCE, reference_bound(spec, root, p1, pn), True))
        rows.append(BoundValue(BOUND_MAX_COST, max_cost_bound(spec, root, p1), True))
    else:
        rows.append(BoundValue(BOUND_REFERENCE, None, False, "infinite_alphabet"))
        rows.append(BoundValue(BOUND_MAX_COST, None, False, "infinite_alphabet"))
    if math.isfinite(root.beta):
        rows.append(BoundValue(BOUND_BETA, beta_bound(spec, root, p1), True))
    else:
        rows.append(BoundValue(BOUND_BETA, None, False, "beta_infinite"))
    if finite:
        rows.append(BoundValue(BOUND_SIZE, size_bound(spec, root, p1), True))
    else:
        rows.append(BoundValue(BOUND_SIZE, None, False, "infinite_alphabet"))
    if math.isfinite(spec.max_multiplicity()):
        rows.append(BoundValue(BOUND_MULTIPLICITY, multiplicity_bound(spec, root, p1), True))
    else:
        rows.append(BoundValue(BOUND_MULTIPLICITY, None, False, "unbounded_profile"))

    if epsilon is None:
        rows.append(BoundValue(BOUND_APPROX_PREFIX, None, False, "epsilon_not_set"))
    elif not root.tail_convergent:
        name = f"{BOUND_APPROX_PREFIX}({epsilon:g})"
        rows.append(BoundValue(name, None, False, "divergent_tail"))
    else:
        ab = approx_bound(spec, root, epsilon)
        value = (
            2.0 * (1.0 - p1)
            + c * _second_cost_gap(spec)
            + c * ab.cost_threshold
            + 0.5 * epsilon * c * C
        )
        rows.append(BoundValue(f"{BOUND_APPROX_PREFIX}({epsilon:g})", value, True))

    return AnalysisReport(
        cost=C,
        entropy=H,
        lower_bound=lower,
        redundancy=C - lower,
        nr=c * C - H,
        bounds=tuple(rows),
    )
