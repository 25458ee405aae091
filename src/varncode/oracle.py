"""Exact minimum-cost codes for desk-scale instances.

A branch-and-bound search over tree shapes.  Each state is a set of frontier
words (potential internal nodes or leaves) plus a set of finalized leaf words;
the cheapest frontier word is processed first and either finalized or expanded
with the k cheapest letters (using any other letters, or skipping a cheaper
one, can never help).  Probabilities never enter the search: once a leaf-cost
multiset is fixed, the best assignment pairs the largest probability with the
smallest cost (rearrangement), so states are compared by that value alone.
Words never enter it either: a state holds only their costs, and the search
keeps the decisions (leaf, or expand by k letters) that led to the best code.
The witness words come from replaying those decisions on (cost, word) pairs,
the head being the least pair.  Which of two equal-cost words is the head
changes no cost, so the replay passes through the same cost states, and its
words are the ones a search over pairs would return.

A state whose frontier and leaves already number n can expand no word: it is
a forced completion.  It is finished in one step, all its frontier words
becoming leaves, or is a dead end if its head may not be a leaf (see below).
The states on the way to that leaf set have lower bounds no greater than its
value, so finishing it at once keeps the optimum and its witness words and
only searches fewer states.

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

    def replay(decisions):
        # The search's decisions on (cost, word) pairs: the head is the least
        # pair, so equal-cost words are taken in word order.
        frontier, done = [(0.0, ())], []
        for k in decisions:
            (cost, word), frontier = frontier[0], frontier[1:]
            if k == 1:
                done.append((cost, word))
            else:
                frontier = sorted(frontier + [(cost + costs[i], word + (i + 1,))
                                              for i in range(k)])
        return sorted(done)

    # The greedy code: expand the cheapest word with as many letters as still
    # fit, then make every word a leaf.
    greedy, slots = [], 1
    while slots < n:
        greedy.append(min(t, n - slots + 1))
        slots += greedy[-1] - 1
    greedy += [1] * n
    fsum, mul = math.fsum, operator.mul
    best_leaves = replay(greedy)
    best_value = fsum(map(mul, probs, [w for w, _ in best_leaves]))
    best_path = greedy  # the decisions to the incumbent, None while there is none
    if best_value > ceiling:
        best_path, best_value = None, math.inf

    # The equal-cost symmetry rule needs every child to cost more than its
    # parent (see the module docstring).
    symmetric = math.ulp(n * costs[-1]) < costs[0]
    heapreplace, heappush = heapq.heapreplace, heapq.heappush
    cheapest, dearer = costs[0], costs[1:]
    path = []  # the decisions (1 = leaf, k = expand by k letters) down to this state
    nodes = 0

    def search(frontier, done, kmin):
        # frontier: ascending list of word costs; done: the leaf costs, taken
        # as heads in cost order, and no child costs less than its parent, so
        # done + frontier is ascending; kmin: the least decision the head may
        # take.  |done| + |frontier| never exceeds n, so a leaf always fits.
        nonlocal best_value, best_path, nodes
        nodes += 1
        if len(done) + len(frontier) == n:
            # A forced completion (see the module docstring): every frontier
            # word becomes a leaf, unless the head may not be one.
            if kmin == 1:
                value = fsum(map(mul, probs, done + frontier))
                if value < best_value - _IMPROVE and value <= ceiling:
                    best_value = value
                    best_path = path + [1] * len(frontier)
            return
        if not frontier:
            return
        # Lower bound: complete the state with the cheapest n - |done| words
        # reachable from the frontier, popped in cost order from a heap seeded
        # with the whole frontier (an ascending list is a heap).  No pick
        # costs less than a done word, so done + picks is ascending as built.
        completion = done[:]
        heap = frontier[:]
        for _ in range(n - len(done) - 1):
            w = heapreplace(heap, heap[0] + cheapest)
            completion.append(w)
            for ci in dearer:
                heappush(heap, w + ci)
        completion.append(heap[0])
        lb = fsum(map(mul, probs, completion))
        # With no incumbent best_value is inf, and an infinite bound already
        # exceeds the (then finite) ceiling.
        if lb > ceiling or lb >= best_value - _IMPROVE:
            return
        head, rest = frontier[0], frontier[1:]
        # children cost more, so a tie can only be the next frontier word
        tied = symmetric and bool(rest) and rest[0] == head
        # finalize the cheapest frontier word as a leaf
        if kmin == 1:
            path.append(1)
            search(rest, done + [head], 1)
            path.pop()
        # or expand it with the k cheapest letters
        max_k = min(t, n - len(done) - len(frontier) + 1)
        children = [head + ci for ci in costs[:max_k]]
        for k in range(max(2, kmin), max_k + 1):
            path.append(k)
            search(sorted(rest + children[:k]), done, k if tied else 1)
            path.pop()

    search([0.0], [], 1)
    if best_path is None:
        raise CapTooSmallError("no prefix-free code exists at or below the cap")
    if best_path is not greedy:
        best_leaves = replay(best_path)
    return OracleResult(
        opt_cost=best_value,
        opt_codeword_costs=tuple(w for w, _ in best_leaves),
        nodes_explored=nodes,
        cost_cap_used=cap_used,
        opt_words=tuple(word for _, word in best_leaves),
    )
