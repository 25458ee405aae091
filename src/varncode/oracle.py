"""Exact minimum-cost codes for desk-scale instances.

A branch-and-bound search over tree shapes.  Each state is a set of frontier
words (potential internal nodes or leaves) plus a set of finalized leaf words;
the cheapest frontier word is processed first and either finalized or expanded
with the k cheapest letters (using any other letters, or skipping a cheaper
one, can never help).  Probabilities never enter the search: once a leaf-cost
multiset is fixed, the best assignment pairs the largest probability with the
smallest cost (rearrangement), so states are compared by that value alone.

The lower bound completes a state with the cheapest n - |done| words reachable
from the frontier, generated in cost order from a heap; this never exceeds the
value of any true completion, so pruning is exact.

Equal-cost words decide in order.  When every child costs strictly more than
its parent, all words of the head's cost are already in the frontier and are
processed one after another, and two of them can swap their decisions (leaf,
or expand by k letters) without changing any cost multiset.  So when the next
head ties the current one, it may take no smaller decision than the one just
made: each multiset of decisions is searched once, in non-decreasing order,
which is the order the depth-first search meets first, so the optimum and its
witness words are the ones the unpruned search finds.  The rule holds only if
no letter cost is absorbed in float, so it is on only when the cheapest letter
exceeds ulp(n * c_t), an upper bound on the ulp of every word cost searched:
finite:1e-300,1 normalises to costs 1 and 1e300, and 1e300 + 1 == 1e300.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from .coder import ProbInput
from .costs import CostSpec
from .errors import CapTooSmallError, OracleTooLargeError

MAX_N = 10
MAX_T = 4

# Improvements smaller than this are ties; keeps float noise from flapping
# the incumbent between equal-cost optima.
_IMPROVE = 1e-12
# A cap admits costs up to this much above it, or n ulps of the cap where
# that is more.
_CAP_SLACK = 1e-9


@dataclass(frozen=True)
class OracleResult:
    """Optimal expected cost with a witness code.

    opt_codeword_costs is ascending and pairs with the probabilities in
    descending order; opt_words are the matching letter sequences, forming a
    prefix-free witness.
    """

    opt_cost: float
    opt_codeword_costs: tuple[float, ...]
    nodes_explored: int
    cost_cap_used: float
    opt_words: tuple[tuple[int, ...], ...]


def exact_opt(pinput: ProbInput, spec: CostSpec, cap: float | None = None) -> OracleResult:
    """Exhaustively find OPT for n <= 10 symbols and t <= 4 letters.

    `cap` bounds the search (use the constructed code's cost for a massive
    speedup); CapTooSmallError means every prefix-free code costs more than
    cap + slack, which cannot happen when cap came from a valid code.  The
    slack is 1e-9, or n ulps of the cap where that is more: two sums of the
    same n products, in different orders, can differ by that much.
    """
    if not spec.is_finite_alphabet:
        raise OracleTooLargeError("oracle needs a finite alphabet")
    t = int(spec.alphabet_size)
    n = pinput.n
    if n > MAX_N:
        raise OracleTooLargeError(f"n={n} exceeds oracle limit {MAX_N}")
    if t > MAX_T:
        raise OracleTooLargeError(f"t={t} exceeds oracle limit {MAX_T}")
    costs = [spec.letter_cost(m) for m in range(1, t + 1)]
    probs = pinput.probs.tolist()
    cap_used = math.inf if cap is None else float(cap)
    ceiling = cap_used
    if math.isfinite(cap_used):
        ceiling += max(_CAP_SLACK, n * math.ulp(cap_used))

    if n == 1:
        value = probs[0] * costs[0]
        if value > ceiling:
            raise CapTooSmallError("single codeword already exceeds the cap")
        return OracleResult(
            opt_cost=value,
            opt_codeword_costs=(costs[0],),
            nodes_explored=1,
            cost_cap_used=cap_used,
            opt_words=((1,),),
        )

    def value_of(sorted_costs):
        return math.fsum(map(operator.mul, probs, sorted_costs))

    def greedy_complete():
        # Expand the cheapest node with as many letters as still fit.
        heap = [(0.0, ())]
        while len(heap) < n:
            cost, word = heapq.heappop(heap)
            k = min(t, n - len(heap))
            for i in range(k):
                heapq.heappush(heap, (cost + costs[i], word + (i + 1,)))
        return sorted(heap)

    best_leaves = greedy_complete()
    best_value = value_of([w for w, _ in best_leaves])
    if best_value > ceiling:
        best_leaves = None
        best_value = math.inf

    # The equal-cost symmetry rule needs every child to cost more than its
    # parent (see the module docstring).
    symmetric = math.ulp(n * costs[-1]) < costs[0]
    heappop, heappush = heapq.heappop, heapq.heappush
    nodes = 0

    def search(frontier, done, kmin):
        # frontier: ascending list of (cost, word); done: list of (cost, word),
        # ascending in cost, as heads are taken in cost order; kmin: the least
        # decision (1 = leaf, k = expand by k letters) the head may take.
        # |done| + |frontier| never exceeds n, so a leaf always fits.
        nonlocal best_value, best_leaves, nodes
        nodes += 1
        if not frontier:
            if len(done) == n:
                value = value_of(sorted(w for w, _ in done))
                if value < best_value - _IMPROVE and value <= ceiling:
                    best_value = value
                    best_leaves = sorted(done)
            return
        # Lower bound: complete the state with the cheapest n - |done| words
        # reachable from the frontier, popped in cost order from a heap seeded
        # with the whole frontier (an ascending list is a heap).  No pick
        # costs less than a done word, so done + picks is ascending as built.
        completion = [w for w, _ in done]
        heap = [w for w, _ in frontier]
        for _ in range(n - len(done) - 1):
            w = heappop(heap)
            completion.append(w)
            for ci in costs:
                heappush(heap, w + ci)
        completion.append(heap[0])
        lb = value_of(completion)
        if lb > ceiling:
            return
        if best_leaves is not None and lb >= best_value - _IMPROVE:
            return
        head, rest = frontier[0], frontier[1:]
        cost, word = head
        # children cost more, so a tie can only be the next frontier word
        tied = symmetric and bool(rest) and rest[0][0] == cost
        # finalize the cheapest frontier word as a leaf
        if kmin == 1:
            search(rest, done + [head], 1)
        # or expand it with the k cheapest letters
        max_k = min(t, n - len(done) - len(frontier) + 1)
        children = [(cost + costs[i], word + (i + 1,)) for i in range(max_k)]
        for k in range(max(2, kmin), max_k + 1):
            search(sorted(rest + children[:k]), done, k if tied else 1)

    search([(0.0, ())], [], 1)
    if best_leaves is None:
        raise CapTooSmallError("no prefix-free code exists at or below the cap")
    return OracleResult(
        opt_cost=best_value,
        opt_codeword_costs=tuple(w for w, _ in best_leaves),
        nodes_explored=nodes,
        cost_cap_used=cap_used,
        opt_words=tuple(word for _, word in best_leaves),
    )
