"""Tests for probability preparation, tree building, and split traces."""

import hashlib
import json
import math
import pickle
import random
import subprocess
import sys
import warnings

import numpy as np
import pytest

from varncode import (
    ProbInputError,
    build_code,
    char_root,
    finite_list,
    parse_cost_spec,
    prepare,
    report,
    split_trace,
)
from varncode.cli import make_probs, parse_gen

from code_reference import (
    assert_same_prepared,
    codeword_cost,
    codeword_letters,
    exact_split_costs,
    kraft_sum,
    reference_prepare,
    trace_records,
    tree_dict,
    verify_prefix_free,
)

THIRDS_SIXTHS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)


def build(probs, spec_text, normalize=False):
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    pin = prepare(probs, normalize=normalize)
    return build_code(pin, spec, root)


# ---------------------------------------------------------------------------
# prepare
# ---------------------------------------------------------------------------

def test_prepare_sorts_descending_with_stable_ties():
    pin = prepare([0.2, 0.5, 0.3])
    assert pin.probs.tolist() == [0.5, 0.3, 0.2]
    assert pin.perm.tolist() == [1, 2, 0]
    tied = prepare([0.25, 0.25, 0.25, 0.25])
    assert tied.perm.tolist() == [0, 1, 2, 3]


def test_prepare_prefix_and_midpoints():
    pin = prepare(THIRDS_SIXTHS)
    assert pin.prefix[0] == 0.0
    assert abs(pin.prefix[-1] - 1.0) < 1e-12
    for k in range(pin.n):
        assert abs(pin.prefix[k] + 0.5 * pin.probs[k] - pin.mid[k]) < 1e-15
    assert pin.p1 == pytest.approx(1.0 / 3.0)
    assert pin.pn == pytest.approx(1.0 / 6.0)


def test_prepare_validation():
    with pytest.raises(ProbInputError):
        prepare([])
    with pytest.raises(ProbInputError):
        prepare([[0.5, 0.5]])
    with pytest.raises(ProbInputError):
        prepare([0.5, -0.1, 0.6])
    with pytest.raises(ProbInputError):
        prepare([0.5, math.nan])
    with pytest.raises(ProbInputError):
        prepare([0.5, math.inf])
    with pytest.raises(ProbInputError):
        prepare([0.0, 0.0])
    with pytest.raises(ProbInputError):
        prepare([0.3, 0.3])  # sums to 0.6


@pytest.mark.parametrize("probs", [[10 ** 400], ["a"], [1 + 0j, 0], object()],
                         ids=["huge-int", "string", "complex", "object"])
def test_prepare_maps_conversion_errors(probs):
    with pytest.raises(ProbInputError):
        prepare(probs)


def _hist_like(n, seed):
    """Counts of 3n zipf(1.3) draws: about 85% of the symbols get none."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -1.3
    x = np.random.default_rng(seed).multinomial(3 * n, w / w.sum()).astype(np.float64)
    return x / x.sum()


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("make", [
    lambda: make_probs("uniform", 10 ** 5, 7),
    lambda: _hist_like(10 ** 5, 7),
    lambda: make_probs("geom:0.9", 10 ** 5, 0),  # zeros from where 0.9^k underflows
    lambda: make_probs("zipf:1.0", 10 ** 5, 0),  # already in descending order
], ids=["uniform", "hist", "geom-zero-tail", "zipf-sorted"])
def test_prepare_matches_the_reference_at_large_n(make, normalize):
    p = make()
    assert_same_prepared(prepare(p, normalize=normalize),
                         reference_prepare(p, normalize=normalize))


def test_prepare_normalize():
    pin = prepare([3.0, 1.0], normalize=True)
    assert pin.probs.tolist() == [0.75, 0.25]
    assert abs(math.fsum(pin.probs) - 1.0) < 1e-12
    # within-tolerance sums pass untouched
    ok = prepare([0.5, 0.5 + 5e-10])
    assert math.fsum(ok.probs) != 1.0


def test_prepare_sum_past_the_float_range():
    with pytest.raises(ProbInputError):
        prepare([1e308, 1e308])
    assert prepare([1e308, 1e308], normalize=True).probs.tolist() == [0.5, 0.5]


def _sum_near(n, target, tiny):
    """n masses whose exact sum is within an ulp of target: 0.9, then n - 2
    masses of tiny * 2^-53, then the rest.  Added one by one to 0.9, a mass
    with tiny < 1/2 rounds away and one with tiny > 1/2 rounds up to 2^-53,
    so a float sum that adds them there misses the exact one by ulps."""
    x = np.full(n, tiny * 2.0 ** -53)
    x[0], x[-1] = 0.9, 0.0
    for _ in range(4):
        x[-1] += target - math.fsum(x)
    return x


@pytest.mark.parametrize("normalize", [False, True])
def test_prepare_decides_the_sum_tolerance_as_the_exact_sum_does(normalize):
    """prepare decides |sum - 1| <= 1e-9 from a rough sum away from the
    edge; at the edge, past the float range and at a zero sum its verdict,
    error and message are those of the exact sum, and numpy warns of
    nothing."""
    cases = [_sum_near(n, edge + k * np.spacing(edge), tiny)
             for n in (2, 10 ** 5) for edge in (1.0 + 1e-9, 1.0 - 1e-9)
             for k in range(-4, 5) for tiny in (0.4, 0.75)]
    cases += [np.array([1e308, 1e308]), np.full(64, 1e307), np.zeros(3), np.zeros(64)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in cases:
            try:
                want = reference_prepare(x, normalize=normalize)
            except ProbInputError as exc:
                with pytest.raises(ProbInputError) as got:
                    prepare(x, normalize=normalize)
                assert str(got.value) == str(exc)
            else:
                assert_same_prepared(prepare(x, normalize=normalize), want)


def test_prepare_accuracy_large_n():
    rng = np.random.default_rng(3)
    p = rng.random(10 ** 5)
    p /= p.sum()
    pin = prepare(p, normalize=True)
    k = 52341
    direct = math.fsum(np.sort(p)[::-1][:k].tolist())
    assert abs(pin.prefix[k] - direct) < 1e-11


# ---------------------------------------------------------------------------
# small builds with known shapes
# ---------------------------------------------------------------------------

def test_thirds_sixths_equal_costs():
    # splitting puts 1/3 at depth 1; expected cost still hits the optimum 2.0
    tree = build(THIRDS_SIXTHS, "finite:1,1")
    assert tree.cost() == pytest.approx(2.0, abs=1e-12)
    assert sorted(tree.leaf_costs.tolist()) == [1.0, 2.0, 3.0, 3.0]
    assert verify_prefix_free([w for _, w, _ in tree.codewords()])


def test_thirds_sixths_one_three_costs():
    # the splitting heuristic lands on 11/3 here; the optimum is 3.5
    tree = build(THIRDS_SIXTHS, "finite:1,3")
    assert tree.cost() == pytest.approx(11.0 / 3.0, abs=1e-12)
    assert sorted(tree.leaf_costs.tolist()) == [2.0, 4.0, 4.0, 6.0]
    assert verify_prefix_free([w for _, w, _ in tree.codewords()])


def test_single_symbol():
    tree = build([1.0], "finite:1,2")
    assert codeword_letters(tree, 0) == (1,)
    assert tree.cost() == 1.0
    assert kraft_sum(tree) <= 1.0 + 1e-12


def test_two_equal_symbols_right_shift():
    tree = build([0.5, 0.5], "finite:1,5")
    assert codeword_letters(tree, 0) == (1,)
    assert codeword_letters(tree, 1) == (2,)
    assert tree.cost() == pytest.approx(3.0)
    trace = trace_records(split_trace(tree))
    ev = trace[0]
    assert ev["right_shifted"]
    assert ev["right_shift_index"] == 1
    assert [e["right_shift_index"] for e in trace
            if e["right_shift_index"] is not None] == [1]


def test_left_shift_takes_one_item():
    tree = build([0.9, 0.06, 0.04], "finite:1,2,3")
    ev = trace_records(split_trace(tree))[0]
    assert ev["left_shifted"]
    stolen = [b for b in ev["bins"] if b["initial"] is None]
    assert stolen
    for b in stolen:
        assert b["final"][0] == b["final"][1]
    assert tree.cost() == pytest.approx(0.9 + 0.06 * 2 + 0.04 * 3)


def test_zero_probabilities_get_codewords():
    tree = build([1.0, 0.0, 0.0], "finite:1,2")
    words = [codeword_letters(tree, i) for i in range(3)]
    assert words[0] == (1,)
    assert verify_prefix_free(words)
    assert tree.cost() == pytest.approx(1.0)
    assert kraft_sum(tree) <= 1.0 + 1e-9


def test_deep_chain_of_zeros():
    probs = [1.0] + [0.0] * 3000
    tree = build(probs, "finite:1,1")
    assert tree.stats.max_depth == 3000
    assert tree.cost() == pytest.approx(1.0)


def _check_dyadic_optimal(n):
    q = np.exp2(-np.arange(1, n + 1))
    q[-1] *= 2.0
    tree = build(q, "finite:1,1", normalize=True)
    # dyadic probabilities under unit costs: cost equals the entropy exactly
    H = -math.fsum(p * math.log2(p) for p in q / q.sum())
    assert tree.cost() == pytest.approx(H, abs=1e-9)
    for i in range(n):
        assert len(codeword_letters(tree, i)) <= n + 1


def test_dyadic_within_envelope_is_optimal():
    _check_dyadic_optimal(40)


def test_sub_ulp_dyadic_tail_is_optimal():
    # At n = 80 the tail's masses lie below an ulp of their bins' left ends:
    # those bins collapse to zero width and steal like empty ones.
    _check_dyadic_optimal(80)


# Geometric and dyadic tails whose masses fall below an ulp of their bins'
# left ends, or past where an infinite alphabet's cumulative letter weight
# stops growing, over every cost family the CLI matrix runs.
COLLAPSE_GENS = ("geom:0.5,60", "geom:0.5,200", "geom:0.3,100", "geom:0.9,400",
                 "dyadic:60", "dyadic:100")
COLLAPSE_SPECS = (
    "finite:1,2", "finite:1,1", "finite:1,1.5,3", "finite:2,3,7",
    "finite:1,1,1,1", "telegraph", "rll:1,3", "rll:2,5", "linear",
    "repeat:1", "repeat:3", "fib", "balanced", "profile:1,1",
    "profile:0,2,1", "profile:2,1,1;tail=zero", "profile:1,0,2;tail=repeat",
    "profile:0,1;tail=repeat", "profile:1,1,0;tail=repeat",
)


@pytest.mark.parametrize("gen", COLLAPSE_GENS)
def test_collapsed_bins_build_the_exact_split(gen):
    """A bin whose float width collapsed steals like an empty one: the code
    is prefix-free, keeps every applicable bound, and matches the split in
    exact rationals up to symbols of negligible mass."""
    for spec_text in COLLAPSE_SPECS:
        tree = build(parse_gen(gen, 0), spec_text)
        assert verify_prefix_free([w for _, w, _ in tree.codewords()])
        assert kraft_sum(tree) <= 1.0 + 1e-12
        rep = report(tree)
        for b in rep.bounds:
            if b.applicable:
                assert rep.nr <= b.value + 1e-9, (spec_text, b.name)
        exact = exact_split_costs(tree)
        probs = tree.input.probs.tolist()
        cost = math.fsum(p * c for p, c in zip(probs, exact))
        assert tree.cost() == pytest.approx(cost, rel=1e-14, abs=0.0), spec_text
        moved = [p for p, a, b in zip(probs, tree.leaf_costs.tolist(), exact) if a != b]
        assert math.fsum(moved) <= 1e-12, spec_text


# ---------------------------------------------------------------------------
# tree accessors
# ---------------------------------------------------------------------------

def test_codeword_costs_match_letters():
    tree = build(THIRDS_SIXTHS, "finite:1,3")
    spec_costs = (1.0, 3.0)
    for i in range(4):
        word = codeword_letters(tree, i)
        direct = sum(spec_costs[m - 1] for m in word)
        assert codeword_cost(tree, i) == pytest.approx(direct, abs=1e-12)


def test_cost_is_weighted_codeword_cost():
    rng = np.random.default_rng(9)
    p = rng.random(60)
    p /= p.sum()
    tree = build(p, "finite:1,2,3", normalize=True)
    pin = tree.input
    direct = math.fsum(
        float(pin.probs[k]) * codeword_cost(tree, int(pin.perm[k]))
        for k in range(pin.n)
    )
    assert tree.cost() == pytest.approx(direct, abs=1e-10)


def test_to_dict_shape():
    tree = build(THIRDS_SIXTHS, "finite:1,1")
    d = tree_dict(tree)
    assert d["letter_index"] == 0
    seen = []

    def walk(node, cost_so_far):
        if "leaf_index" in node:
            seen.append((node["leaf_index"], cost_so_far))
        kids = node.get("children", [])
        letters = [k["letter_index"] for k in kids]
        assert letters == sorted(letters)
        for k in kids:
            walk(k, cost_so_far + 1.0)

    walk(d, 0.0)
    assert sorted(i for i, _ in seen) == [0, 1, 2, 3]
    for i, cost in seen:
        assert cost == codeword_cost(tree, i)


def test_to_json_deep_tree():
    tree = build([1.0] + [0.0] * 1500, "finite:1,1")
    text = tree.to_json()
    # the stdlib decoder is recursive, so give it room to read it back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        parsed = json.loads(text)
    finally:
        sys.setrecursionlimit(old)
    assert parsed["letter_index"] == 0


LAYOUT_INPUTS = {
    "numpy": lambda: make_probs("zipf:1.0", 300, 0),
    "scalar": lambda: make_probs("zipf:1.0", 40, 0),
    "chain": lambda: [1.0] + [0.0] * 1500,
    "one": lambda: [1.0],
}


@pytest.mark.parametrize("spec_text",
                         ["finite:1,2", "finite:1,1,5", "profile:1,2", "linear", "fib"])
@pytest.mark.parametrize("kind", sorted(LAYOUT_INPUTS))
def test_layout_readers_read_the_built_tree(kind, spec_text):
    """to_json reads each node's children as a range of ids and matches the
    reference nesting; split_trace reads the letter table without growing it."""
    tree = build(LAYOUT_INPUTS[kind](), spec_text, normalize=True)
    letters = len(tree._table.cum)
    split_trace(tree)
    assert len(tree._table.cum) == letters
    text = tree.to_json()
    # the stdlib decoder and dict comparison recurse once per level
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(20000)
    try:
        assert json.loads(text) == tree_dict(tree)
    finally:
        sys.setrecursionlimit(old)


def test_to_json_has_no_depth_limit():
    # json.dumps recurses once per level and overflows the C stack on a chain
    # this deep, so run it where a crash cannot take the test session along
    script = (
        "from varncode import build_code, char_root, parse_cost_spec, prepare\n"
        "spec = parse_cost_spec('finite:1,2')\n"
        "tree = build_code(prepare([1.0] + [0.0] * 100000), spec, char_root(spec))\n"
        "assert tree.to_json().count('{') == tree.num_nodes\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_codeword_lines_format():
    tree = build(THIRDS_SIXTHS, "finite:1,3")
    lines = list(tree.codeword_lines())
    assert len(lines) == 4
    first = lines[0].split("\t")
    assert first[0] == "0"
    assert all(part.isdigit() for part in first[1].split(","))
    assert float(first[2]) == codeword_cost(tree, 0)


def reference_codewords(tree):
    """Codewords the pre-fold way: one leaf-to-root parent walk per symbol."""
    return [(i, codeword_letters(tree, i), codeword_cost(tree, i)) for i in range(tree.n)]


def reference_lines(tree):
    return [f"{i}\t{','.join(str(m) for m in letters)}\t{cost!r}"
            for i, letters, cost in reference_codewords(tree)]


FOLD_SPECS = ("linear", "finite:1,2", "fib", "finite:1,1,5", "profile:1,1")


@pytest.mark.parametrize("spec_text", FOLD_SPECS)
@pytest.mark.parametrize("probs", [
    make_probs("zipf:1.0", 400, 0),
    make_probs("uniform", 300, 5),
    make_probs("dyadic", 40, 0),
    [1.0],
    [1.0] + [0.0] * 2000,
], ids=["zipf", "uniform", "dyadic", "n1", "zero_chain"])
def test_codeword_fold_matches_parent_walk(spec_text, probs):
    tree = build(probs, spec_text)
    assert list(tree.codewords()) == reference_codewords(tree)
    assert list(tree.codeword_lines()) == reference_lines(tree)


# ---------------------------------------------------------------------------
# structural properties over random instances
# ---------------------------------------------------------------------------

SPECS = ("finite:1,1", "finite:1,2", "finite:1,3", "finite:1,2,3",
         "finite:1,1,5", "linear", "repeat:2", "fib")


def test_random_builds_are_prefix_free_with_kraft():
    rng = np.random.default_rng(17)
    for trial in range(60):
        n = int(rng.integers(2, 120))
        p = rng.random(n) + 1e-6
        p /= p.sum()
        spec = parse_cost_spec(SPECS[trial % len(SPECS)])
        root = char_root(spec)
        pin = prepare(p, normalize=True)
        tree = build_code(pin, spec, root)
        words = [codeword_letters(tree, i) for i in range(n)]
        assert verify_prefix_free(words)
        assert kraft_sum(tree) <= 1.0 + 1e-9
        assert tree.num_nodes - 1 <= 2 * n - 1
        assert tree.stats.max_depth >= 1


def test_decomposition_identities():
    """Total cost and entropy recomputed from per-node weights."""
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(2, 90))
        p = rng.random(n)
        p /= p.sum()
        spec = parse_cost_spec(SPECS[trial % len(SPECS)])
        root = char_root(spec)
        pin = prepare(p, normalize=True)
        tree = build_code(pin, spec, root)
        direct_cost = math.fsum(
            float(pin.probs[k]) * codeword_cost(tree, int(pin.perm[k]))
            for k in range(n)
        )
        H = -math.fsum(float(q) * math.log2(float(q)) for q in pin.probs if q > 0)
        assert abs(tree.cost_decomposition() - direct_cost) < 1e-7
        assert abs(tree.entropy_decomposition() - H) < 1e-7


@pytest.mark.parametrize("spec_text", ["finite:1,2", "finite:1,1,5", "linear", "fib"])
@pytest.mark.parametrize("gen", ["zipf:1.0,3000", "uniform:500", "geom:0.9,200",
                                 "zeros", "tiny"])
def test_nodes_in_level_order_and_stats_count_them(spec_text, gen):
    """Node ids run level by level, each node's children in letter order,
    and BuildStats counts the tree it comes with.  The zero and subnormal
    tails make zero-width chains."""
    if gen == "zeros":
        probs = np.concatenate((make_probs("zipf:1.0", 300, 0), np.zeros(700)))
    elif gen == "tiny":
        probs = np.concatenate((make_probs("zipf:1.0", 300, 0), np.full(700, 1e-300)))
    else:
        probs = parse_gen(gen, 0)
    tree = build(probs, spec_text, normalize=True)
    parent, letter = tree._parent, tree._letter
    depth = np.zeros(tree.num_nodes, dtype=np.int64)
    for v in range(1, tree.num_nodes):
        depth[v] = depth[parent[v]] + 1
    assert np.all(np.diff(depth) >= 0)
    key = parent[1:] * (int(letter.max()) + 1) + letter[1:]
    same_level = np.diff(depth[1:]) == 0
    assert np.all(np.diff(key)[same_level] > 0)
    stats = tree.stats
    assert stats.nodes == tree.num_nodes
    assert stats.internal == sum(not tree.is_leaf(v) for v in range(tree.num_nodes))
    assert stats.max_depth == depth.max()
    assert stats.max_letter == letter.max()
    splits = trace_records(split_trace(tree))
    assert stats.left_shifts == sum(e["left_shifted"] for e in splits)
    assert stats.right_shifts == sum(e["right_shifted"] for e in splits)
    assert 0 < stats.bins_evaluated


@pytest.mark.parametrize("spec_text", ["finite:1,2", "linear", "fib", "profile:1,1"])
def test_tree_pickles_with_its_lazy_letter_table(spec_text):
    tree = build(THIRDS_SIXTHS, spec_text)
    copy = pickle.loads(pickle.dumps(tree))
    assert list(copy.codewords()) == list(tree.codewords())
    assert trace_records(split_trace(copy)) == trace_records(split_trace(tree))


@pytest.mark.parametrize("probs", [[1.0, 1e-300, 1e-300], [0.0, 1.0, 5e-324]])
def test_entropy_decomposition_with_a_zero_weight_parent(probs):
    """The internal node over the two smallest masses stores weight 0 (a prefix
    difference that rounds away); its children still split finitely."""
    tree = build(probs, "finite:1,1", normalize=True)
    H = -math.fsum(float(q) * math.log2(float(q)) for q in tree.input.probs if q > 0)
    assert 0.0 <= tree.entropy_decomposition() <= 1e-295
    assert abs(tree.entropy_decomposition() - H) < 1e-9


def test_permutation_invariance():
    rng = random.Random(31)
    base = [0.4, 0.23, 0.17, 0.1, 0.06, 0.04]
    reference = build(base, "finite:1,2").cost()
    for _ in range(10):
        shuffled = base[:]
        rng.shuffle(shuffled)
        tree = build(shuffled, "finite:1,2")
        assert tree.cost() == pytest.approx(reference, abs=1e-12)
        # every original index keeps the cost its probability had
        for i, p in enumerate(shuffled):
            j = base.index(p)
            ref_tree = build(base, "finite:1,2")
            assert codeword_cost(tree, i) == codeword_cost(ref_tree, j)


def test_builds_agree_across_prepared_copies():
    p = [0.35, 0.3, 0.2, 0.15]
    t1 = build(p, "linear")
    t2 = build(p, "linear")
    assert [codeword_letters(t1, i) for i in range(4)] == \
        [codeword_letters(t2, i) for i in range(4)]


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------

def check_trace(tree, spec, root):
    pin = tree.input
    mid = pin.mid
    z_pow = {}
    for ev in trace_records(split_trace(tree)):
        first, last = ev["range"]
        lo, hi = ev["interval"]
        bins = ev["bins"]
        finals = [b["final"] for b in bins]
        # bins partition [first..last] left to right
        assert finals[0][0] == first
        assert finals[-1][1] == last
        for (a1, b1), (a2, b2) in zip(finals, finals[1:]):
            assert a2 == b1 + 1
        assert abs(hi - lo - ev["weight"]) < 1e-12
        assert abs(
            math.fsum(b["final_weight"] for b in bins) - ev["weight"]
        ) < 1e-9
        for b in bins:
            # fractional width is 2^(-c * c_m) of the node's weight
            m = b["letter"]
            if m not in z_pow:
                z_pow[m] = 2.0 ** (-root.value * spec.letter_cost(m))
            assert abs((b["hi"] - b["lo"]) - ev["weight"] * z_pow[m]) < 1e-9
            # initial contents are exactly the midpoints inside [lo, hi)
            inside = [
                k for k in range(first, last + 1)
                if b["lo"] <= mid[k] < b["hi"]
            ]
            if b["initial"] is None:
                if not ev["right_shifted"]:
                    assert not inside
                assert b["final"][0] == b["final"][1]
                assert ev["left_shifted"] or ev["right_shifted"]
            elif not (ev["left_shifted"] or ev["right_shifted"]):
                assert inside == list(range(b["initial"][0], b["initial"][1] + 1))
                assert b["final"] == b["initial"]
        if ev["right_shifted"]:
            assert bins[-1]["letter"] == 2
            assert bins[-1]["final"] == [last, last]
        if not ev["right_shifted"]:
            # shifts only move items toward cheaper bins: every item ends in
            # a bin starting at or before its own midpoint
            for b in bins:
                for k in range(b["final"][0], b["final"][1] + 1):
                    assert mid[k] >= b["lo"] - 1e-12


def test_trace_invariants_random():
    rng = np.random.default_rng(41)
    for trial in range(25):
        n = int(rng.integers(2, 60))
        p = rng.random(n) + 1e-4
        p /= p.sum()
        spec = parse_cost_spec(SPECS[trial % len(SPECS)])
        root = char_root(spec)
        pin = prepare(p, normalize=True)
        tree = build_code(pin, spec, root)
        check_trace(tree, spec, root)
        assert sum(len(e["bins"]) for e in trace_records(split_trace(tree))) == \
            tree.num_nodes - 1


BIN_KEYS = ("letter", "lo", "hi", "initial", "final", "initial_weight", "final_weight")


def record(node, slots, interval, weight, left, right, right_index, *bins):
    """A trace record as `trace_records` rebuilds it; each bin is a tuple in
    BIN_KEYS order."""
    return {"node": node, "range": slots, "interval": interval, "weight": weight,
            "left_shifted": left, "right_shifted": right,
            "right_shift_index": right_index,
            "bins": [dict(zip(BIN_KEYS, b)) for b in bins]}


# `code --trace --format json` records as printed while the trace was still
# recorded inside build_code's loop, with the bin ends re-pinned at roots
# within a few ulps; split_trace's columns rebuild them exactly.
PINNED_TRACES = [
    # left shift
    ('finite:1,2,3', '0.9,0.06,0.04', [
        record(0, [0, 2], [0.0, 1.0], 1.0, True, False, None,
               (1, 0.0, 0.5436890126920764, [0, 0], [0, 0],
                0.9, 0.9),
               (2, 0.5436890126920764, 0.8392867552141612, None, [1, 1],
                0.0, 0.05999999999999994),
               (3, 0.8392867552141612, 1.0, [1, 2], [2, 2],
                0.09999999999999998, 0.040000000000000036)),
    ]),
    # right shift
    ('finite:1,5', '0.5,0.5', [
        record(0, [0, 1], [0.0, 1.0], 1.0, False, True, 1,
               (1, 0.0, 0.7548776662466927, [0, 1], [0, 0],
                1.0, 0.5),
               (2, 0.7548776662466927, 1.0, None, [1, 1],
                0.0, 0.5)),
    ]),
    # zero-mass chain, finite last letter
    ('finite:1,2', '0.7,0.3,0,0,0', [
        record(0, [0, 4], [0.0, 1.0], 1.0, False, False, None,
               (1, 0.0, 0.6180339887498949, [0, 0], [0, 0],
                0.7, 0.7),
               (2, 0.6180339887498949, 1.0, [1, 1], [1, 4],
                0.30000000000000004, 0.30000000000000004)),
        record(2, [1, 4], [0.7, 1.0], 0.30000000000000004, False, False, None,
               (1, 0.7, 0.8854101966249684, [1, 1], [1, 1],
                0.30000000000000004, 0.30000000000000004),
               (2, 0.8854101966249684, 1.0, None, [2, 4],
                0.0, 0.0)),
        record(4, [2, 4], [1.0, 1.0], 0.0, True, False, None,
               (1, 1.0, 1.0, None, [2, 2],
                0.0, 0.0),
               (2, 1.0, 1.0, None, [3, 4],
                0.0, 0.0)),
        record(6, [3, 4], [1.0, 1.0], 0.0, True, False, None,
               (1, 1.0, 1.0, None, [3, 3],
                0.0, 0.0),
               (2, 1.0, 1.0, None, [4, 4],
                0.0, 0.0)),
    ]),
    # infinite alphabet
    ('linear', 'dyadic:6', [
        record(0, [0, 5], [0.0, 1.0], 1.0, True, False, None,
               (1, 0.0, 0.5, [0, 0], [0, 0],
                0.5, 0.5),
               (2, 0.5, 0.75, [1, 1], [1, 1],
                0.25, 0.25),
               (3, 0.75, 0.875, [2, 2], [2, 2],
                0.125, 0.125),
               (4, 0.875, 0.9375, [3, 3], [3, 3],
                0.0625, 0.0625),
               (5, 0.9375, 0.96875, [4, 4], [4, 4],
                0.03125, 0.03125),
               (6, 0.96875, 0.984375, None, [5, 5],
                0.0, 0.03125)),
    ]),
    # one symbol: the root's only child is a leaf, and nothing splits
    ('linear', '1.0', []),
]


@pytest.mark.parametrize("spec_text,probs,expected", PINNED_TRACES)
def test_split_trace_pinned(spec_text, probs, expected):
    if probs.startswith("dyadic"):
        tree = build(parse_gen(probs, 0), spec_text)
    else:
        tree = build([float(p) for p in probs.split(",")], spec_text)
    assert trace_records(split_trace(tree)) == expected


# ---------------------------------------------------------------------------
# verify_prefix_free
# ---------------------------------------------------------------------------

def _hist(n, seed):
    """Counts of 3n draws from zipf(1.3), normalized: most symbols get none."""
    w = np.arange(1, n + 1, dtype=np.float64) ** -1.3
    x = np.random.default_rng(seed).multinomial(3 * n, w / w.sum()).astype(np.float64)
    return x / x.sum()


# Frozen from builds whose letter table added every letter's weight in turn,
# with no closed-form tail.
@pytest.mark.parametrize("spec_text,input_name,leaf_sha,cost_hex", [
    ("linear", "halves", "ac54bc27fe55d55b8852ba641a3a00cac4854715072b6c353a0602e4c974c4f7",
     "0x1.8000000000000p+0"),
    ("repeat:3", "halves", "7bd9f8d57d5ac54b430e5e254c86f6d47ab151ef6a6887aeed541637f09e684b",
     "0x1.0000000000000p+0"),
    ("profile:1,0,2;tail=repeat", "halves",
     "581105df9512f633021fa7a3736eb29e65bbc119191ef530fe4418b51f6400a7", "0x1.0000000000000p+1"),
    ("fib", "halves", "7d4d8d11183bb80f55b048f9b19c1e18f08cedfafcf0511eef9179a8823c1290",
     "0x1.8000000000000p+0"),
    ("linear", "hist", "1cc9b30a3b8cb03c33f0a2f203550d2d45b1303e3c10ba5f44532f835cf4e024",
     "0x1.9ad0e56041892p+2"),
    ("repeat:3", "hist", "9b1ee400b4a7646c93336aa83f87606604c5bbf5366e62c3ced0f7588ae7f676",
     "0x1.a25b7a32846fep+1"),
    ("profile:1,0,2;tail=repeat", "hist",
     "10926ca707bfc2c867a82d3dc6a97dd679cae3b7e0dd7219772b2e586d494a90", "0x1.a69e60f04c752p+2"),
    ("fib", "hist", "a9bb0cc178a3234d33ff05ac92a6f4bbb41930b31078c42176ddf0fcf9e05828",
     "0x1.5c33e1f67152ap+2"),
])
def test_zero_tail_builds_pinned(spec_text, input_name, leaf_sha, cost_hex):
    """n = 2e4 with a tail of zero-mass symbols, each of which takes a
    letter of its own under an infinite alphabet: 16 000 to 20 000 letters,
    on the repeating profiles past the level where a letter's weight
    underflows."""
    if input_name == "halves":
        probs = [0.5, 0.5] + [0.0] * 20_000
    else:
        probs = _hist(20_000, 2007)  # 15 922 zero counts
    tree = build(probs, spec_text)
    assert hashlib.sha256(tree.leaf_costs.tobytes()).hexdigest() == leaf_sha
    assert tree.cost().hex() == cost_hex


def test_verify_prefix_free_detects_violations():
    assert verify_prefix_free([(1,), (2, 1), (2, 2)])
    assert not verify_prefix_free([(1,), (1, 2)])
    assert not verify_prefix_free([(2, 1), (2, 1)])
    assert verify_prefix_free([])
    assert verify_prefix_free([(3, 1, 4)])


@pytest.mark.parametrize("spec_text", ["profile:1,1", "profile:0,2", "profile:1,0,3"])
def test_finite_profiles_build_valid_codes(spec_text):
    # The last letter of a finite profile used to be read before the lazy
    # letter table held it (IndexError on nearly every input).
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    rng = np.random.default_rng(23)
    for n in range(2, 41):
        pin = prepare(rng.random(n) + 1e-3, normalize=True)
        tree = build_code(pin, spec, root)
        assert verify_prefix_free([w for _, w, _ in tree.codewords()])
        assert kraft_sum(tree) <= 1.0 + 1e-9
        rep = report(tree)
        for b in rep.bounds:
            if b.applicable:
                assert rep.nr <= b.value + 1e-7, (n, b.name)
