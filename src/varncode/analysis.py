"""Entropy, redundancy, and additive redundancy bounds.

All bounds are stated in normalized form NR = c*C(T) - H(p); divide by c for
the plain redundancy R = C(T) - H/c.  Each bound function evaluates one closed
formula; report() assembles them into a table with machine-readable
applicability reasons, so callers never have to guess which formula makes
sense for which alphabet.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .coder import CodeTree, ProbInput
from .costs import CharRoot, CostSpec

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


def reference_bound(spec: CostSpec, root: CharRoot, p1: float, pn: float) -> float:
    """Prior-art comparison value: NR <= (1 - p1 - pn) + c*c_t.

    Grows with the largest letter cost, which is what the sharper bounds
    below avoid: inf for infinite alphabets, where c_t is infinite.
    """
    return (1.0 - p1 - pn) + root.value * spec.max_cost


def max_cost_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + c*c_t; inf for infinite alphabets."""
    return 2.0 * (1.0 - p1) + root.value * spec.max_cost


def beta_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2 beta); inf when beta is."""
    return 2.0 * (1.0 - p1) + max(
        root.value * spec.second_cost_gap,
        1.0 + math.log2(root.beta),
    )


def size_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2 t); inf for infinite t."""
    return 2.0 * (1.0 - p1) + max(
        root.value * spec.second_cost_gap,
        1.0 + math.log2(spec.alphabet_size),
    )


def multiplicity_bound(spec: CostSpec, root: CharRoot, p1: float) -> float:
    """NR bound from the largest multiplicity K = max_j d_j.

    With at most K letters per integer cost level, beta <= K/(1 - 2^(-c)) and
    NR <= 2(1 - p1) + max(c*(c2 - c1), 1 + log2(K/(1 - 2^(-c)))).  Non-integer
    costs pay one extra c inside the logarithm's companion term.  inf when
    the profile is unbounded (K infinite).
    """
    K = spec.max_multiplicity()
    c = root.value
    log_term = 1.0 + math.log2(K / -math.expm1(-c * math.log(2.0)))
    if not spec.integer_costs:
        log_term += c
    return 2.0 * (1.0 - p1) + max(c * spec.second_cost_gap, log_term)


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


def _check_epsilon(epsilon: float) -> None:
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")


def approx_bound(spec: CostSpec, root: CharRoot, epsilon: float) -> ApproxBound:
    """Compute N_eps in one walk up the cost levels and assemble f(C, eps).

    The tail at N sums c_m * 2^(-c*c_m) over letters costing more than N,
    each in closed form (a finite list sums its remaining costs), so it is
    exact at any epsilon and exactly 0 past a finite alphabet's last level.
    The walk stops at the first N (0 or a level's cost) whose tail is at
    most epsilon/6, having counted the letters costing at most N on the way.
    """
    _check_epsilon(epsilon)
    if not root.tail_convergent:
        raise ValueError("approximation bound needs a convergent cost-weighted tail")
    c = root.value
    target = epsilon / 6.0
    threshold, count, tail = 0.0, 0, spec.weighted_sum(c)
    for cost, d in spec.levels():
        if tail <= target:
            break
        threshold = cost
        count += d
        tail = spec.weighted_sum(c, above=cost)
    f_value = (4.0 / 3.0) * (2.0 / c + spec.second_cost_gap + threshold)
    return ApproxBound(
        epsilon=epsilon,
        cost_threshold=threshold,
        index_threshold=count,
        tail_value=tail,
        f_value=f_value,
    )


@dataclass(frozen=True)
class BoundValue:
    """One row of the bound table: a value or a reason it does not apply."""

    name: str
    value: float | None
    applicable: bool
    reason: str | None = None


@dataclass(frozen=True)
class AnalysisReport:
    """Cost, entropy, redundancy, and every bound evaluated for one build.

    `approx` is the ApproxBound behind the Thm_approx row, or None when that
    row does not apply; to_dict leaves it out.
    """

    cost: float
    entropy: float
    lower_bound: float
    redundancy: float
    nr: float
    bounds: tuple[BoundValue, ...]
    approx: ApproxBound | None = None

    def bound(self, name: str) -> BoundValue:
        for b in self.bounds:
            if b.name == name:
                return b
        raise KeyError(name)

    def min_applicable(self) -> float | None:
        vals = [b.value for b in self.bounds if b.applicable]
        return min(vals) if vals else None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if k != "approx"}


def report(tree: CodeTree, epsilon: float | None = None) -> AnalysisReport:
    """Evaluate cost, entropy, redundancy, and the full bound table.

    The tree carries its input, spec, and root.  Each of the five fixed
    bounds applies exactly when its value is finite; on a finite alphabet an
    infinite value can only be a float overflow.  `epsilon`, in (0, 1/2] on
    every alphabet, enables the approximation-bound row, in NR form:
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
    for name, value, reason in (
        (BOUND_REFERENCE, reference_bound(spec, root, p1, pn), "infinite_alphabet"),
        (BOUND_MAX_COST, max_cost_bound(spec, root, p1), "infinite_alphabet"),
        (BOUND_BETA, beta_bound(spec, root, p1), "beta_infinite"),
        (BOUND_SIZE, size_bound(spec, root, p1), "infinite_alphabet"),
        (BOUND_MULTIPLICITY, multiplicity_bound(spec, root, p1), "unbounded_profile"),
    ):
        if math.isfinite(value):
            rows.append(BoundValue(name, value, True))
        else:
            rows.append(BoundValue(name, None, False,
                                   "overflow" if finite else reason))

    ab = None
    if epsilon is None:
        rows.append(BoundValue(BOUND_APPROX_PREFIX, None, False, "epsilon_not_set"))
    else:
        _check_epsilon(epsilon)
        name = f"{BOUND_APPROX_PREFIX}({epsilon:g})"
        if not root.tail_convergent:
            rows.append(BoundValue(name, None, False, "divergent_tail"))
        else:
            ab = approx_bound(spec, root, epsilon)
            value = (
                2.0 * (1.0 - p1)
                + c * spec.second_cost_gap
                + c * ab.cost_threshold
                + 0.5 * epsilon * c * C
            )
            rows.append(BoundValue(name, value, True))

    return AnalysisReport(
        cost=C,
        entropy=H,
        lower_bound=lower,
        redundancy=C - lower,
        nr=c * C - H,
        bounds=tuple(rows),
        approx=ab,
    )
