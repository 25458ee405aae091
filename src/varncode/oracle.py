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
a forced completion, finished in one step, all its frontier words becoming
leaves.  The states on the way to that leaf set have lower bounds no greater
than its value, so finishing it at once keeps the optimum and its witness
words and only searches fewer states.  Two kinds of dead end are never
entered: a leaf that empties the frontier short of n leaves, and a tied
expansion (see below) to a forced completion whose head may not be a leaf.

Two lower bounds prune a state, the cheaper first.  The Kraft-entropy bound
is the paper's H/c argument applied to the leaves still to be placed: with c'
such that S(c') = sum_i 2^(-c' c_i) <= 1, the leaves under a frontier word of
cost f have sum 2^(-c' l) <= 2^(-c' f), so by Gibbs' inequality a completion
costs at least done.p + E, E = (H(q) + Q log2 Q - Q log2 K) / c'.  K is the
frontier's sum of 2^(-c' f); q are the n - |done| smallest probabilities (the
done words are the cheapest, so they take the largest), Q their sum and
H(q) = -sum q log2 q.  c' steps up from `costs.solve_root`'s root until
S(c') <= 1 holds beyond the rounding of its evaluation.  Each frontier word
carries its 2^(-c' f), a child's being its parent's times 2^(-c' c_i), in an
ascending list whose largest the head takes.
Dividing by c' amplifies rounding, so the bound subtracts the margin
8 n u ((H(q) + |Q log2 Q| + 2Q + |Q log2 K|) / c' + n c_t Q + done.p + |E|),
u = 2^-53, which covers the rounding of the word costs, the carried powers,
the sums, logarithms and products, and the search's value of a completion.
It is skipped where Q = 0, or where K < 2^-1000 and the powers may have
underflowed.  The heap bound, built only when the first does not prune,
completes the state with the cheapest n - |done| words reachable from the
frontier, taken in cost order.  Neither exceeds the value of any completion,
so the optimum and its witness words are the ones the unpruned search finds.

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
finite:1e-300,1 is rescaled to costs 1 and 1e300, and 1e300 + 1 == 1e300.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass

from .coder import ProbInput
from .costs import CostSpec, solve_root
from .errors import CapTooSmallError, OracleTooLargeError

MAX_N = 10
MAX_T = 4

# Improvements smaller than this are ties; keeps float noise from flapping
# the incumbent between equal-cost optima.
_IMPROVE = 1e-12
# A cap admits costs up to this much above it, or n ulps of the cap where
# that is more.
_CAP_SLACK = 1e-9
# The unit roundoff, and the least Kraft sum K the bound reads: below it the
# carried powers may have lost their relative precision to underflow.
_U = 2.0 ** -53
_KRAFT_FLOOR = 2.0 ** -1000


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


def _kraft_exponent(spec: CostSpec, costs: list[float]) -> float | None:
    """c' at or above the characteristic root, S(c') <= 1 certified, or None:
    c' steps up from `solve_root`'s root of `spec` until S(c') - 1 over its
    letter costs `costs`, the cheapest term as expm1, is below minus a bound
    on its own rounding."""
    t, c1, dearer, ln2 = len(costs), costs[0], costs[1:], math.log(2.0)
    try:
        c = solve_root(spec)
        for k in range(6, 66):  # up by 64 ulps of c, then by doubling steps
            c *= 1.0 + 2.0 ** (k - 53)
            head = math.expm1(-c * c1 * ln2)
            terms = [2.0 ** (-c * ci) for ci in dearer]
            # a few roundings of each term, c*c_i more of a power from its
            # rounded exponent, t of the sum, and t subnormal ulps
            err = 2 * (t + 5) * _U * (
                -head + math.fsum((1.0 + c * ci) * w for ci, w in zip(dearer, terms))
            ) + t * 2.0 ** -1074
            if head + sum(terms) + err <= 0.0:
                return c
    except (ArithmeticError, ValueError):
        pass
    return None


def exact_opt(pinput: ProbInput, spec: CostSpec, cap: float | None = None) -> OracleResult:
    """Exhaustively find OPT for n <= 10 symbols and t <= 4 letters.

    `cap` bounds the search (use the constructed code's cost for a massive
    speedup); CapTooSmallError means every prefix-free code costs more than
    cap + slack, which cannot happen when cap came from a valid code.  The
    slack is 1e-9, or n ulps of the cap where that is more: two sums of the
    same n products, in different orders, can differ by that much.  A NaN
    cap raises ValueError.
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
    if math.isnan(cap_used):  # no value compares below it
        raise ValueError("cap must be a number, not NaN")
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
    heapreplace, heappush, log2 = heapq.heapreplace, heapq.heappush, math.log2
    cheapest, dearer = costs[0], costs[1:]
    # The Kraft-entropy bound's terms for the q = probs[d:] still to place,
    # per count d of leaves placed, while Q > 0 (see the module docstring),
    # summed from the smallest probability up.
    kraft, cp = [], _kraft_exponent(spec, costs)
    powers_of = [0.0] * t
    if cp is not None:
        powers_of = [2.0 ** (-cp * ci) for ci in costs]
        e = 8 * n * _U
        ec = e / cp
        big_q = h = 0.0
        for d in range(n - 1, -1, -1):
            if probs[d] > 0.0:
                big_q += probs[d]
                h -= probs[d] * log2(probs[d])
            if big_q > 0.0 and d < n - 1:
                qq = big_q * log2(big_q)
                kraft.append((big_q, h + qq,
                              e * ((h + abs(qq) + 2 * big_q) / cp + n * costs[-1] * big_q)))
        kraft.reverse()
    path = []  # the decisions (1 = leaf, k = expand by k letters) down to this state
    nodes = 0

    def search(frontier, powers, done, dp, kmin):
        # frontier: ascending list of word costs; done: the leaf costs, taken
        # as heads in cost order, and no child costs less than its parent, so
        # done + frontier is ascending; powers: the frontier's 2^(-c' f),
        # ascending; dp: done's cost paired with the largest probabilities;
        # kmin: the least decision the head may take.  |done| + |frontier| is
        # below n but for a forced completion, whose head may be a leaf.
        nonlocal best_value, best_path, nodes
        nodes += 1
        d = len(done)
        if d + len(frontier) == n:
            # A forced completion (see the module docstring): every frontier
            # word becomes a leaf.
            value = fsum(map(mul, probs, done + frontier))
            if value < best_value - _IMPROVE and value <= ceiling:
                best_value = value
                best_path = path + [1] * len(frontier)
            return
        # The Kraft-entropy bound first: it costs O(|frontier|).
        if d < len(kraft):
            big_k = sum(powers)
            if big_k >= _KRAFT_FLOOR:
                big_q, g, a = kraft[d]
                lk = big_q * log2(big_k)
                nb = (g - lk) / cp
                lb = dp + nb - a - e * (dp + abs(nb)) - ec * abs(lk)
                if lb > ceiling or lb >= best_value - _IMPROVE:
                    return
        # The heap bound: complete the state with the cheapest n - |done|
        # words reachable from the frontier, popped in cost order from a heap
        # seeded with the whole frontier (an ascending list is a heap).  No
        # pick costs less than a done word, so done + picks is ascending as
        # built.
        completion = done[:]
        heap = frontier[:]
        for _ in range(n - d - 1):
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
        power, others = powers[-1], powers[:-1]
        # children cost more, so a tie can only be the next frontier word
        tied = symmetric and bool(rest) and rest[0] == head
        # finalize the cheapest frontier word as a leaf, unless that empties
        # the frontier short of n leaves
        if kmin == 1 and rest:
            path.append(1)
            search(rest, others, done + [head], dp + probs[d] * head, 1)
            path.pop()
        # or expand it with the k cheapest letters; a tied expansion to n
        # words is a forced completion whose head may not be a leaf
        max_k = min(t, n - d - len(frontier) + 1)
        if tied and d + len(rest) + max_k == n:
            max_k -= 1
        children = [head + ci for ci in costs[:max_k]]
        child_powers = [power * w for w in powers_of[:max_k]]
        for k in range(max(2, kmin), max_k + 1):
            path.append(k)
            search(sorted(rest + children[:k]), sorted(others + child_powers[:k]),
                   done, dp, k if tied else 1)
            path.pop()

    search([0.0], [1.0], [], 0.0, 1)
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
