"""Tests for the exact small-instance oracle and equal-cost cross-check."""

import functools
import heapq
import itertools
import math
import random

import numpy as np
import pytest

from varncode import (
    CapTooSmallError,
    OracleResult,
    OracleTooLargeError,
    build_code,
    char_root,
    entropy,
    exact_opt,
    finite_list,
    oracle,
    parse_cost_spec,
    prepare,
)

from code_reference import huffman_equal_cost, root_60_digits, verify_prefix_free

THIRDS_SIXTHS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)


# ---------------------------------------------------------------------------
# golden instances
# ---------------------------------------------------------------------------

def test_thirds_sixths_equal_costs_optimum():
    res = exact_opt(prepare(THIRDS_SIXTHS), parse_cost_spec("finite:1,1"))
    assert abs(res.opt_cost - 2.0) < 1e-12
    assert res.opt_codeword_costs == (2.0, 2.0, 2.0, 2.0)
    assert verify_prefix_free(res.opt_words)


def test_thirds_sixths_one_three_optimum():
    res = exact_opt(prepare(THIRDS_SIXTHS), parse_cost_spec("finite:1,3"))
    assert abs(res.opt_cost - 3.5) < 1e-12
    assert res.opt_codeword_costs == (3.0, 3.0, 4.0, 5.0)
    assert verify_prefix_free(res.opt_words)
    # the two cheapest codewords go to the two 1/3 probabilities
    assert res.opt_cost == pytest.approx(
        (3.0 + 3.0) / 3.0 + (4.0 + 5.0) / 6.0, abs=1e-12
    )


def test_single_symbol_optimum():
    res = exact_opt(prepare([1.0]), parse_cost_spec("finite:1,3"))
    assert res.opt_cost == 1.0
    assert res.opt_words == ((1,),)


def test_result_invariants():
    rng = np.random.default_rng(2)
    spec = parse_cost_spec("finite:1,2,3")
    for _ in range(20):
        n = int(rng.integers(2, 8))
        p = rng.random(n)
        pin = prepare(p, normalize=True)
        res = exact_opt(pin, spec)
        assert len(res.opt_codeword_costs) == n
        assert len(res.opt_words) == n
        assert list(res.opt_codeword_costs) == sorted(res.opt_codeword_costs)
        assert verify_prefix_free(res.opt_words)
        assert res.nodes_explored >= 1
        direct = math.fsum(
            float(q) * w for q, w in zip(pin.probs, res.opt_codeword_costs)
        )
        assert res.opt_cost == pytest.approx(direct, abs=1e-12)
        # word letter costs match the reported codeword costs
        for w, word in zip(res.opt_codeword_costs, res.opt_words):
            assert w == pytest.approx(
                sum(spec.costs[m - 1] for m in word), abs=1e-12
            )


def test_finite_profile_matches_finite_list():
    # A finite profile has no cost list; the oracle reads its letter costs.
    profile = parse_cost_spec("profile:1,1")
    costs = parse_cost_spec("finite:1,2")
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        pin = prepare(rng.random(n) + 1e-3, normalize=True)
        assert exact_opt(pin, profile) == exact_opt(pin, costs)


def test_determinism():
    pin = prepare([0.4, 0.3, 0.2, 0.1])
    spec = parse_cost_spec("finite:1,2")
    a = exact_opt(pin, spec)
    b = exact_opt(pin, spec)
    assert a.opt_cost == b.opt_cost
    assert a.opt_words == b.opt_words
    assert a.nodes_explored == b.nodes_explored


# ---------------------------------------------------------------------------
# equal-cost agreement with classic merging
# ---------------------------------------------------------------------------

def test_dyadic_binary_huffman():
    pin = prepare([0.5, 0.25, 0.125, 0.125])
    assert huffman_equal_cost(pin, 2) == pytest.approx(1.75, abs=1e-12)
    res = exact_opt(pin, parse_cost_spec("finite:1,1"))
    assert res.opt_cost == pytest.approx(1.75, abs=1e-12)


def test_huffman_matches_oracle_all_arities():
    rng = np.random.default_rng(13)
    specs = {
        2: finite_list([1.0, 1.0]),
        3: finite_list([1.0, 1.0, 1.0]),
        4: finite_list([1.0, 1.0, 1.0, 1.0]),
    }
    for trial in range(36):
        t = 2 + trial % 3
        n = int(rng.integers(2, 8))
        p = rng.random(n)
        pin = prepare(p, normalize=True)
        merged = huffman_equal_cost(pin, t)
        res = exact_opt(pin, specs[t])
        assert res.opt_cost == pytest.approx(merged, abs=1e-9)


def test_huffman_edge_cases():
    assert huffman_equal_cost(prepare([1.0]), 2) == 1.0
    assert huffman_equal_cost(prepare([0.5, 0.5]), 3) == 1.0
    # 4 uniform symbols over 3 letters: two at depth 1, two at depth 2
    assert huffman_equal_cost(prepare([0.25] * 4), 3) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        huffman_equal_cost(prepare([0.5, 0.5]), 1)


# ---------------------------------------------------------------------------
# optimality properties
# ---------------------------------------------------------------------------

def test_entropy_lower_bound_and_build_upper_bound():
    rng = np.random.default_rng(19)
    labels = ("finite:1,1", "finite:1,2", "finite:1,3", "finite:1,2,3")
    for trial in range(40):
        n = int(rng.integers(2, 8))
        p = rng.random(n) + 1e-3
        pin = prepare(p, normalize=True)
        spec = parse_cost_spec(labels[trial % 4])
        root = char_root(spec)
        tree = build_code(pin, spec, root)
        res = exact_opt(pin, spec, cap=tree.cost())
        assert entropy(pin) / root.value <= res.opt_cost + 1e-9
        assert res.opt_cost <= tree.cost() + 1e-12


def test_extra_letters_never_hurt():
    rng = np.random.default_rng(37)
    small = parse_cost_spec("finite:1,2")
    large = parse_cost_spec("finite:1,2,3")
    for _ in range(15):
        n = int(rng.integers(2, 7))
        pin = prepare(rng.random(n), normalize=True)
        assert exact_opt(pin, large).opt_cost <= exact_opt(pin, small).opt_cost + 1e-12


def test_rearrangement_is_best_assignment():
    """Pairing sorted probs with sorted costs beats every other permutation."""
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(2, 5)
        probs = sorted((rng.random() for _ in range(n)), reverse=True)
        total = sum(probs)
        probs = [p / total for p in probs]
        costs = sorted(rng.uniform(1.0, 5.0) for _ in range(n))
        paired = math.fsum(p * w for p, w in zip(probs, costs))
        for perm in itertools.permutations(costs):
            alt = math.fsum(p * w for p, w in zip(probs, perm))
            assert paired <= alt + 1e-12


def test_oracle_beats_every_fixed_depth_profile():
    """Brute-force check against all leaf-depth multisets for binary costs."""
    spec = parse_cost_spec("finite:1,1")
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        pin = prepare(rng.random(n), normalize=True)
        res = exact_opt(pin, spec)
        best = math.inf
        for depths in itertools.product(range(1, n + 1), repeat=n):
            if abs(sum(0.5 ** d for d in depths) - 1.0) > 1e-12 \
                    and sum(0.5 ** d for d in depths) > 1.0:
                continue
            value = math.fsum(
                p * d for p, d in zip(pin.probs, sorted(depths))
            )
            best = min(best, value)
        assert res.opt_cost == pytest.approx(best, abs=1e-9)


# ---------------------------------------------------------------------------
# limits and caps
# ---------------------------------------------------------------------------

def test_size_limits():
    spec = parse_cost_spec("finite:1,2")
    with pytest.raises(OracleTooLargeError):
        exact_opt(prepare([1.0 / 11] * 11), spec)
    with pytest.raises(OracleTooLargeError):
        exact_opt(prepare([0.5, 0.5]), parse_cost_spec("finite:1,1,1,1,1"))
    with pytest.raises(OracleTooLargeError):
        exact_opt(prepare([0.5, 0.5]), parse_cost_spec("linear"))


def test_cap_semantics():
    pin = prepare(THIRDS_SIXTHS)
    spec = parse_cost_spec("finite:1,1")
    with pytest.raises(CapTooSmallError):
        exact_opt(pin, spec, cap=1.5)
    capped = exact_opt(pin, spec, cap=2.0)
    assert capped.opt_cost == pytest.approx(2.0, abs=1e-12)
    assert capped.cost_cap_used == 2.0
    open_search = exact_opt(pin, spec)
    assert open_search.cost_cap_used == math.inf
    assert open_search.opt_cost == capped.opt_cost
    # a tight cap prunes at least as hard as no cap
    assert capped.nodes_explored <= open_search.nodes_explored


def test_nan_cap_is_rejected():
    # Every comparison with NaN is false, so the search would keep its
    # greedy start as OPT.
    spec = parse_cost_spec("finite:1,1.5,2,4")
    for probs in ([1.0], THIRDS_SIXTHS):
        with pytest.raises(ValueError, match="NaN"):
            exact_opt(prepare(probs), spec, cap=math.nan)


def test_cap_slack_is_absolute_at_ordinary_scales():
    pin = prepare([1.0])  # n = 1: one codeword of cost 1
    spec = parse_cost_spec("finite:1,2")
    assert exact_opt(pin, spec, cap=1.0 - 0.5e-9).opt_cost == 1.0
    with pytest.raises(CapTooSmallError):
        exact_opt(pin, spec, cap=1.0 - 2e-9)


def test_cap_slack_scales_with_the_cap():
    # The built code is optimal, but its C(T) is 1 ulp below OPT's
    # rearranged sum at 3.3e299, far more than 1e-9.
    spec = parse_cost_spec("finite:1e-300,1")
    pin = prepare([0.6654575346533242, 0.2721042781738002, 0.062438187172875484])
    built = build_code(pin, spec, char_root(spec)).cost()
    res = exact_opt(pin, spec, cap=built)
    assert built < res.opt_cost <= built + pin.n * math.ulp(built)
    with pytest.raises(CapTooSmallError):
        exact_opt(pin, spec, cap=res.opt_cost - 2 * pin.n * math.ulp(built))


# ---------------------------------------------------------------------------
# the pruned search against the unpruned one
# ---------------------------------------------------------------------------

def _reference_exact_opt(pinput, spec, cap=None, forced=False):
    """exact_opt's search without its equal-cost symmetry rule.

    Every order of decisions over equal-cost words is searched, and the lower
    bound heaps every child of every pick.  The decisions are tried in the
    same depth-first order, so the results must be exact_opt's; only the
    number of states searched may differ.  `forced` makes every word of a
    state that can expand none a leaf in one step, as exact_opt does; it
    changes only that number.
    """
    t = int(spec.alphabet_size)
    n = pinput.n
    costs = [spec.letter_cost(m) for m in range(1, t + 1)]
    probs = pinput.probs.tolist()
    cap_used = math.inf if cap is None else float(cap)
    improve = 1e-12
    # 1e-9 above a finite cap, or n ulps of it where that is more
    ceiling = cap_used
    if math.isfinite(cap_used):
        ceiling += max(1e-9, n * math.ulp(cap_used))

    if n == 1:
        value = probs[0] * costs[0]
        if value > ceiling:
            raise CapTooSmallError("single codeword already exceeds the cap")
        return OracleResult(value, (costs[0],), 1, cap_used, ((1,),))

    def value_of(sorted_costs):
        return math.fsum(p * w for p, w in zip(probs, sorted_costs))

    heap = [(0.0, ())]
    while len(heap) < n:
        cost, word = heapq.heappop(heap)
        for i in range(min(t, n - len(heap))):
            heapq.heappush(heap, (cost + costs[i], word + (i + 1,)))
    best_leaves = sorted(heap)
    best_value = value_of([w for w, _ in best_leaves])
    if best_value > ceiling:
        best_leaves, best_value = None, math.inf

    def lower_bound(frontier, done, need):
        heap = list(frontier)
        heapq.heapify(heap)
        picked = []
        while len(picked) < need:
            cost = heapq.heappop(heap)
            picked.append(cost)
            for ci in costs:
                heapq.heappush(heap, cost + ci)
        return value_of(sorted(done + picked))

    nodes = 0

    def search(frontier, done):
        nonlocal best_value, best_leaves, nodes
        nodes += 1
        if not frontier:
            if len(done) == n:
                value = value_of(sorted(w for w, _ in done))
                if value < best_value - improve and value <= ceiling:
                    best_value = value
                    best_leaves = sorted(done)
            return
        slots = len(done) + len(frontier)
        if forced and slots == n:
            value = value_of(sorted(w for w, _ in done + frontier))
            if value < best_value - improve and value <= ceiling:
                best_value = value
                best_leaves = sorted(done + frontier)
            return
        need = n - len(done)
        lb = lower_bound([w for w, _ in frontier], [w for w, _ in done], need)
        if lb > ceiling:
            return
        if best_leaves is not None and lb >= best_value - improve:
            return
        head, rest = frontier[0], frontier[1:]
        if slots <= n and (rest or not forced):
            search(rest, done + [head])
        cost, word = head
        for k in range(2, min(t, n - slots + 1) + 1):
            children = [(cost + costs[i], word + (i + 1,)) for i in range(k)]
            search(sorted(rest + children), done)

    search([(0.0, ())], [])
    if best_leaves is None:
        raise CapTooSmallError("no prefix-free code exists at or below the cap")
    return OracleResult(best_value, tuple(w for w, _ in best_leaves), nodes, cap_used,
                        tuple(word for _, word in best_leaves))


def _outcome(search, pin, spec, cap):
    """(cost hex, codeword cost hexes, words) and nodes, or ('cap', 0)."""
    try:
        res = search(pin, spec, cap=cap)
    except CapTooSmallError:
        return "cap", 0
    costs = tuple(w.hex() for w in res.opt_codeword_costs)
    return (res.opt_cost.hex(), costs, res.opt_words), res.nodes_explored


def assert_matches_reference(pin, spec, cap):
    """Same optimum, witness and refusals as the reference; no more states.

    Returns the reference's optimum, or None when it refused the cap, and the
    state counts of exact_opt and of the reference with forced completions.
    """
    got, nodes = _outcome(exact_opt, pin, spec, cap)
    want, ref_nodes = _outcome(_reference_exact_opt, pin, spec, cap)
    assert got == want
    assert nodes <= ref_nodes
    forced, forced_nodes = _outcome(functools.partial(_reference_exact_opt, forced=True),
                                    pin, spec, cap)
    assert forced == want
    assert forced_nodes <= ref_nodes
    opt = None if want == "cap" else float.fromhex(want[0])
    return opt, nodes, forced_nodes


# finite:1e-300,1 normalises to costs 1 and 1e300, whose sum absorbs the 1.
REFERENCE_SPECS = ("finite:1,2", "finite:1,1", "finite:1,1,5", "finite:1,1,1,1",
                   "finite:1,1.14,1.75", "telegraph", "rll:1,3", "profile:1,1",
                   "finite:1e-300,1")


@pytest.mark.parametrize("spec_text", REFERENCE_SPECS)
def test_exact_opt_matches_the_unpruned_search(spec_text):
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    rng = np.random.default_rng(10)
    total = ref_total = 0
    for n in range(2, 11):
        for alpha in (0.25, 1.0, 4.0):
            pin = prepare(rng.dirichlet([alpha] * n))
            built = build_code(pin, spec, root).cost()
            opt, nodes, ref_nodes = assert_matches_reference(pin, spec, None)
            # the built code's cost, and a cap below the optimum
            for cap in (built, opt * (1.0 - 1e-6)):
                _, more, ref_more = assert_matches_reference(pin, spec, cap)
                nodes += more
                ref_nodes += ref_more
            total += nodes
            ref_total += ref_nodes
    # ref_total counts the reference's states with forced completions
    if spec_text == "finite:1e-300,1":
        # absorption turns the symmetry rule off: the same states are searched
        assert total == ref_total
    else:
        assert total < ref_total


def _letter_costs(spec):
    return [spec.letter_cost(m) for m in range(1, int(spec.alphabet_size) + 1)]


@pytest.mark.parametrize("spec_text", REFERENCE_SPECS + ("finite:1,1e10", "finite:1,1,1e-12,3"))
def test_kraft_exponent_is_a_certified_root(spec_text):
    # c' may sit above the root, never below it: S(c') <= 1 is what makes the
    # Kraft-entropy bound a lower bound.
    mpmath = pytest.importorskip("mpmath")
    spec = parse_cost_spec(spec_text)
    cp = oracle._kraft_exponent(spec, _letter_costs(spec))
    root, g = root_60_digits(spec, mpmath)
    assert mpmath.mpf(cp) >= root
    assert g(mpmath.mpf(cp)) <= 0
    assert abs(mpmath.mpf(cp) / root - 1) < 1e-9
    if spec_text == "finite:1e-300,1":
        assert abs(root / mpmath.mpf("9.87160e-298") - 1) < 1e-5


# Cost ratios that stretch the bound's float margin, each with a
# zero-probability last symbol.
WIDE_SPECS = ("finite:1,1e10", "finite:1,1e4", "finite:1e-8,1,1", "finite:1,1.0000001",
              "finite:1,1,1e-12,3")


@pytest.mark.parametrize("spec_text", WIDE_SPECS)
def test_wide_cost_ratios_match_the_unpruned_search(spec_text):
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    rng = np.random.default_rng(16)
    for n in range(2, 11):
        pin = prepare(np.append(rng.dirichlet([1.0] * (n - 1)), 0.0))
        for cap in (None, build_code(pin, spec, root).cost()):
            assert_matches_reference(pin, spec, cap)


def test_search_without_a_certified_exponent(monkeypatch):
    # With no c', only the heap bound prunes, and the results are the same.
    rng = np.random.default_rng(17)
    cases = [(parse_cost_spec(s), prepare(rng.dirichlet([1.0] * 7)))
             for s in ("finite:1,2", "finite:1,1,5", "finite:1e-300,1")]
    bounded = [_outcome(exact_opt, pin, spec, None) for spec, pin in cases]
    monkeypatch.setattr(oracle, "_kraft_exponent", lambda spec, costs: None)
    for (spec, pin), (got, nodes) in zip(cases, bounded):
        heap_only, more = _outcome(exact_opt, pin, spec, None)
        assert heap_only == got
        assert more >= nodes
        assert_matches_reference(pin, spec, None)


# Each search's state count, and the witness it returns: the greedy code when
# nothing beats it, else the replay of the decisions that led to the optimum.
PINNED_SEARCHES = (
    # the greedy code is optimal
    ("finite:1,3", THIRDS_SIXTHS, 6, ((1, 1, 1), (2,), (1, 2), (1, 1, 2))),
    # the search beats the greedy code
    ("finite:1,2", (0.9, 0.05, 0.05), 5, ((1,), (2, 1), (2, 2))),
    # two letters of equal cost: a tied expansion to n words would be a forced
    # state whose head may not be a leaf, a dead end, so it is not entered
    ("finite:1,1,2", (0.3, 0.2, 0.2, 0.1, 0.1, 0.1), 20,
     ((1,), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2))),
)


# Named by spec alone, so that re-pinning a count keeps each test's name.
@pytest.mark.parametrize("spec_text, probs, nodes, words", PINNED_SEARCHES,
                         ids=[case[0] for case in PINNED_SEARCHES])
def test_search_states_and_witness_are_pinned(spec_text, probs, nodes, words):
    pin, spec = prepare(probs), parse_cost_spec(spec_text)
    res = exact_opt(pin, spec)
    assert res.nodes_explored == nodes
    assert res.opt_words == words
    assert _outcome(exact_opt, pin, spec, None)[0] == \
        _outcome(_reference_exact_opt, pin, spec, None)[0]
