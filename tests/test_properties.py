"""Property tests over generated cost specs and probability vectors.

Any spec and vector build a prefix-free code within the Kraft bound, deep
geometric tails whose bins collapse below an ulp included; the numpy and the
scalar split paths build the same tree bit for bit, and under two letters
count the same bin ends; split_trace describes
exactly the tree it was derived from, and its columns rebuild the records of
the split kernel rerun over every node; every bound row the report applies
holds, and the cost and entropy decompositions add up; the exact oracle finds
what its unpruned search finds; the characteristic root is within 8 unit
roundoffs of its 60-digit value for cost ratios up to 1e300; a hand-built
CostSpec and finite_list rescale a cost list to the bits of its DSL spelling,
and finite_list's label is that spelling; approx_bound
stops at the first cost level whose weighted tail fits; the CLI maps any JSON
array in a --probs file to a documented exit code; any cost DSL string roots
or exits as a parse error; prepare gives the bytes of its stable-sort
reference, ties and signed zeros included; and `linear` and `repeat:d`, as
custom profiles with an empty prefix, give the bits of the repeat family
they replaced.
Examples come from a fixed seed, so the suite is reproducible.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varncode import (
    BOUND_REFERENCE,
    CostSpecError,
    VarncodeError,
    approx_bound,
    build_code,
    char_root,
    coder,
    finite_list,
    parse_cost_spec,
    prepare,
    report,
    split_trace,
)
from varncode.cli import main
from varncode.costs import CostSpec, LetterTable

from code_reference import (
    assert_same_prepared,
    codeword_letters,
    excess_60_digits,
    kraft_sum,
    reference_prepare,
    reference_repeat,
    reference_split_trace,
    repeat_table,
    trace_records,
    verify_prefix_free,
)
from test_oracle import assert_matches_reference

FAMILIES = ("linear", "fib", "balanced", "telegraph", "repeat:1", "repeat:3",
            "rll:1,3", "rll:2,5")


def _profile_text(levels, tail):
    return f"profile:{','.join(map(str, levels))};tail={tail}"


def _has_two_letters(levels, tail):
    return (tail == "repeat" and levels[-1] > 0) or sum(levels) >= 2


finite_specs = st.lists(st.floats(1.0, 20.0), min_size=2, max_size=6).map(
    lambda costs: "finite:" + ",".join(map(repr, costs)))
# Few distinct costs, so letters share levels.
tied_finite_specs = st.lists(st.integers(1, 6), min_size=2, max_size=8).map(
    lambda costs: "finite:" + ",".join(map(str, costs)))
profile_specs = st.tuples(
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.sampled_from(("zero", "repeat")),
).filter(lambda lt: _has_two_letters(*lt)).map(lambda lt: _profile_text(*lt))
specs = st.one_of(st.sampled_from(FAMILIES), finite_specs, profile_specs)

# Zeros, ties (a few shared values), extremes and ordinary masses; prepare
# rescales, so only a positive total is needed.
masses = st.one_of(
    st.just(0.0),
    st.sampled_from((1.0, 0.5, 0.25)),
    st.sampled_from((5e-324, 1e-300, 1e-30, 1e30, 1e300, 1.7e308)),
    st.floats(0.0, 1.0),
)
vectors = st.lists(masses, min_size=1, max_size=60).filter(
    lambda ws: any(w > 0.0 for w in ws))
# Geometric tails q^0, ..., q^(n-1), or dyadic ones 2^-1, ..., 2^-(n-1),
# 2^-(n-1), optionally followed by zero masses: their deep bins are narrower
# than an ulp of their left ends, or lie where the cumulative letter weight
# has stopped growing.
zero_tails = st.one_of(st.just(0), st.integers(1, 50))
geometric_tails = st.builds(
    lambda q, n, zeros: [q ** i for i in range(n)] + [0.0] * zeros,
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), st.integers(1, 300),
    zero_tails)
dyadic_tails = st.builds(
    lambda n, zeros: [2.0 ** -min(i, n - 1) for i in range(1, n + 1)] + [0.0] * zeros,
    st.integers(1, 300), zero_tails)
build_vectors = st.one_of(vectors, geometric_tails, dyadic_tails)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def slot_ranges(tree):
    """(first, last) sorted slot of every node, from the public accessors."""
    child = {(tree.parent_of(v), tree.letter_of(v)): v
             for v in range(1, tree.num_nodes)}
    first = [tree.n] * tree.num_nodes
    last = [-1] * tree.num_nodes
    for k, i in enumerate(tree.input.perm.tolist()):
        path = [0]
        for m in codeword_letters(tree, i):
            path.append(child[(path[-1], m)])
        for v in path:
            first[v] = min(first[v], k)
            last[v] = max(last[v], k)
    return child, first, last


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec_text=specs, weights=build_vectors)
def test_build_is_prefix_free_and_its_trace_is_the_tree(spec_text, weights):
    spec = parse_cost_spec(spec_text)
    pin = prepare(weights, normalize=True)
    tree = build_code(pin, spec, char_root(spec))
    assert verify_prefix_free([w for _, w, _ in tree.codewords()])
    assert kraft_sum(tree) <= 1 + 1e-9

    trace = trace_records(split_trace(tree))
    if tree.n == 1:
        assert trace == []
        return
    internal = [v for v in range(tree.num_nodes) if not tree.is_leaf(v)]
    assert [e["node"] for e in trace] == internal
    assert sum(len(e["bins"]) for e in trace) == tree.num_nodes - 1
    child, first, last = slot_ranges(tree)
    # the build stored the ranges the codewords span
    assert tree._first.tolist() == first and tree._last.tolist() == last
    for e in trace:
        v = e["node"]
        assert e["range"] == [first[v], last[v]]
        finals = [b["final"] for b in e["bins"]]
        # the bins partition the node's range, left to right
        assert finals[0][0] == first[v] and finals[-1][1] == last[v]
        assert all(b[0] == a[1] + 1 for a, b in zip(finals, finals[1:]))
        # and each bin is the child on that letter, in letter order
        letters = [b["letter"] for b in e["bins"]]
        assert letters == sorted(m for p, m in child if p == v)
        for m, (a, b) in zip(letters, finals):
            u = child[(v, m)]
            assert [first[u], last[u]] == [a, b]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec_text=specs, weights=build_vectors)
# A right shift, in a level of two blocks.
@example(spec_text="finite:1,5", weights=[1.0] * 9)
# A tree whose top levels split on the numpy path.
@example(spec_text="finite:1,1,5", weights=[1.0] * 100)
# A level of zero-width blocks only, whose chains finish in closed form.
@example(spec_text="finite:1,2", weights=[1.0] + [0.0] * 1500)
@example(spec_text="finite:1,1,5", weights=[1.0] + [0.0] * 1500)
@example(spec_text="linear", weights=[1.0] + [0.0] * 1500)
@example(spec_text="linear", weights=[1.0])
# More letters than numpy's int64 holds (t = 10**19 + 1).
@example(spec_text="profile:1e19,1", weights=[1.0] * 100)
def test_trace_columns_are_the_split_kernel_rerun(spec_text, weights):
    spec = parse_cost_spec(spec_text)
    tree = build_code(prepare(weights, normalize=True), spec, char_root(spec))
    columns = split_trace(tree)
    assert trace_records(columns) == reference_split_trace(tree)
    if tree.n >= 2:
        assert (int(columns["split"]["bins"].sum()) == len(columns["bin"]["letter"])
                == tree.num_nodes - 1)


def _build_on_one_path(slots, spec_text, weights):
    """The tree built with every level of at least `slots` slots on the numpy
    path, or the type of the error raised."""
    spec = parse_cost_spec(spec_text)
    pin = prepare(weights, normalize=True)
    saved = coder._VECTOR_SLOTS
    coder._VECTOR_SLOTS = slots
    try:
        tree = build_code(pin, spec, char_root(spec))
    except VarncodeError as exc:
        return type(exc)
    finally:
        coder._VECTOR_SLOTS = saved
    return tree


def _node_arrays(tree):
    """The five node arrays' bytes, or the error type in place of a tree."""
    if isinstance(tree, type):
        return tree
    return [a.tobytes() for a in (tree._parent, tree._letter, tree._first,
                                  tree._last, tree._word_cost)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec_text=specs, weights=build_vectors)
# A zero-width chain under t = 3 letters that ends with fewer than t slots.
@example(spec_text="finite:1,2,3", weights=[1.0] + [0.0] * 6)
@example(spec_text="finite:1,2,3", weights=[1.0] + [0.0] * 7)
# A finite profile whose last letter is first read by the last-letter rule.
@example(spec_text="profile:1,0,3", weights=[0.3, 0.3, 0.2, 0.1, 0.1])
# A zero-width block over positive subnormals: its leaves weigh probs[a].
@example(spec_text="finite:1,1", weights=[1.0, 5e-324, 5e-324, 5e-324])
# More letters than numpy's int64 holds (t = 10**19 + 1), on both kinds of block.
@example(spec_text="profile:1e19,1", weights=[1.0] * 100)
@example(spec_text="profile:1e19,1", weights=[1.0] + [0.0] * 99)
# t = 3: the root's second round holds only letter 3, whose bin end is not
# computed.
@example(spec_text="finite:1,1,5", weights=[1.0] * 64)
# A level of two blocks, one of them right-shifted.
@example(spec_text="finite:1,5", weights=[1.0] * 9)
def test_numpy_and_scalar_split_paths_build_the_same_tree(spec_text, weights):
    vector = _node_arrays(_build_on_one_path(2, spec_text, weights))
    scalar = _node_arrays(_build_on_one_path(10 ** 9, spec_text, weights))
    assert vector == scalar


@settings(max_examples=100, deadline=None, derandomize=True)
@given(spec_text=st.sampled_from(("finite:1,2", "telegraph")),
       weights=st.lists(st.floats(1e-6, 1.0), min_size=2, max_size=300))
def test_both_split_paths_compute_one_bin_end_per_two_letter_split(spec_text, weights):
    """Under t = 2 a split computes letter 1's bin end only: letter 2 takes
    the rest.  Every mass is positive, so no level is made only of
    zero-width blocks (those chains finish in closed form on the numpy path,
    with no bin ends)."""
    vector = _build_on_one_path(2, spec_text, weights).stats
    scalar = _build_on_one_path(10 ** 9, spec_text, weights).stats
    assert vector.bins_evaluated == scalar.bins_evaluated == scalar.internal


def test_zero_width_block_over_subnormals_keeps_their_weights():
    weights = [1.0, 5e-324, 5e-324, 5e-324]
    for slots in (2, 10 ** 9):
        tree = _build_on_one_path(slots, "finite:1,1", weights)
        weight = tree._weights()
        leaf = [tree.is_leaf(v) for v in range(tree.num_nodes)]
        assert sorted(weight[leaf].tolist()) == [5e-324] * 3 + [1.0]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(spec_text=specs, weights=build_vectors,
       epsilon=st.sampled_from((None, 0.05, 0.25, 0.5)))
def test_applicable_bounds_hold_and_decompositions_add_up(spec_text, weights,
                                                          epsilon):
    spec = parse_cost_spec(spec_text)
    tree = build_code(prepare(weights, normalize=True), spec, char_root(spec))
    rep = report(tree, epsilon=epsilon)
    for b in rep.bounds:
        assert b.applicable == (b.value is not None and math.isfinite(b.value))
        # n = 1 is pinned below: the reference row fails there.
        if b.applicable and not (tree.n == 1 and b.name == BOUND_REFERENCE):
            assert rep.nr <= b.value + 1e-9, b.name
    assert abs(tree.cost_decomposition() - rep.cost) <= 1e-9 * max(1.0, rep.cost)
    assert (abs(tree.entropy_decomposition() - rep.entropy)
            <= 1e-9 * max(1.0, rep.entropy))


# Up to four letters drawn from at most three costs, so letters tie on purpose.
# 1e-300 beside an ordinary cost normalises it to about 1e300, which absorbs
# the cheapest letter in a sum.
oracle_specs = st.lists(
    st.one_of(st.sampled_from((1.0, 2.0, 1e-300)), st.floats(1.0, 5.0)),
    min_size=1, max_size=3, unique=True,
).flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=4)).map(
    lambda costs: "finite:" + ",".join(map(repr, costs)))
# n >= 4: fewer symbols leave the search nothing to prune.
oracle_vectors = st.lists(masses, min_size=4, max_size=7).filter(
    lambda ws: any(w > 0.0 for w in ws))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec_text=oracle_specs, weights=oracle_vectors)
def test_exact_opt_matches_the_unpruned_search(spec_text, weights):
    spec = parse_cost_spec(spec_text)
    pin = prepare(weights, normalize=True)
    for cap in (None, build_code(pin, spec, char_root(spec)).cost()):
        assert_matches_reference(pin, spec, cap)


def _letter_levels(spec):
    """(cost, count) per level, read off the DSL's costs or multiplicities.

    A finite list's level starts at a cost and takes every cost at most
    1e-12 above it.  A repeat tail is cut where its terms are far below
    any tolerance asserted here.
    """
    if spec.costs is None:
        return [(float(j), d) for j, d in enumerate(spec.d_profile(3000), start=1)
                if d]
    levels = []
    for ci in spec.costs:
        if levels and ci <= levels[-1][0] + 1e-12:
            levels[-1][1] += 1
        else:
            levels.append([ci, 1])
    return [tuple(level) for level in levels]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec_text=st.one_of(finite_specs, tied_finite_specs, profile_specs),
       epsilon=st.sampled_from((0.5, 0.1, 0.01)))
def test_approx_threshold_is_the_first_level_whose_tail_fits(spec_text, epsilon):
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    c = root.value
    ab = approx_bound(spec, root, epsilon)
    target = epsilon / 6.0
    levels = _letter_levels(spec)

    def tail_after(N):
        return math.fsum(d * cost * 2.0 ** (-c * cost)
                         for cost, d in levels if cost > N + 1e-12)

    N = ab.cost_threshold
    candidates = [0.0] + [cost for cost, _ in levels]
    assert N in candidates
    assert tail_after(N) <= target + 1e-12
    assert all(tail_after(M) > target - 1e-12 for M in candidates if M < N)
    assert ab.tail_value == pytest.approx(tail_after(N), abs=1e-12)
    assert ab.index_threshold == sum(d for cost, d in levels if cost <= N + 1e-12)
    if spec.is_finite_alphabet and N == levels[-1][0]:
        assert ab.tail_value == 0.0


# Numbers at and past the float range's ends, signed zero, and ints of
# hundreds of digits, beside ordinary small ones.
dsl_numbers = st.one_of(
    st.integers(0, 6).map(str),
    st.integers(10 ** 100, 10 ** 400).map(str),
    st.sampled_from(("1e308", "1.7976931348623157e308", "1e309", "inf", "-inf", "nan",
                     "-0", "-0.0", "1e-300", "5e-324", "2.5")),
)
dsl_lists = st.lists(dsl_numbers, min_size=1, max_size=4).map(",".join)
# rll spans stay small or land far past the limit: two numbers drawn above
# give at most 6 letters, or differ by 1e84 or more once rounded to floats.
rll_texts = st.one_of(
    st.tuples(st.integers(1, 10 ** 6), st.integers(1, 3)).map(
        lambda ab: f"rll:{ab[0]},{ab[0] + ab[1]}"),
    st.tuples(dsl_numbers, dsl_numbers).map(lambda ab: f"rll:{ab[0]},{ab[1]}"),
)
dsl_texts = st.one_of(
    dsl_lists.map(lambda xs: f"finite:{xs}"),
    rll_texts,
    dsl_numbers.map(lambda x: f"repeat:{x}"),
    st.tuples(dsl_lists, st.sampled_from(("", ";tail=zero", ";tail=repeat"))).map(
        lambda lt: f"profile:{lt[0]}{lt[1]}"),
    st.tuples(st.sampled_from(("telegraph", "linear", "fib", "balanced")),
              st.sampled_from(("", ":", ":1", ":inf"))).map("".join),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=dsl_texts)
@example(text="profile:1e308,1e308;tail=repeat")
@example(text="rll:1,1e300")
def test_cost_dsl_roots_or_exits_parse(text):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["root", "--costs", text])
    if code:
        assert code == 2 and err.getvalue().startswith("error parse:"), err.getvalue()
    else:
        assert out.getvalue().startswith("spec: ")


# The cheapest letter costs 1 and the others up to 1e300 times more, so the
# root runs from about 1 down to about 1e-297.
wide_cost_lists = st.lists(st.floats(0.0, 300.0), min_size=1, max_size=5).map(
    lambda exponents: [1.0] + [10.0 ** x for x in exponents])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(costs=wide_cost_lists)
@example(costs=[1.0, 1e300])
@example(costs=[1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
def test_root_is_within_8_unit_roundoffs(costs):
    """S(c) - 1 at 60 digits changes sign within [c(1 - 8u), c(1 + 8u)]."""
    mpmath = pytest.importorskip("mpmath")
    spec = finite_list(costs)
    c = mpmath.mpf(char_root(spec).value)
    g = excess_60_digits(spec, mpmath)
    u = mpmath.mpf(2) ** -53
    assert g(c * (1 - 8 * u)) >= 0 >= g(c * (1 + 8 * u))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(costs=wide_cost_lists, scale=st.floats(1e-3, 1e3))
# Rescaled, these costs' ratio passes the float range: all three refuse them.
@example(costs=[1e-300, 1e10], scale=1.0)
def test_finite_list_rescales_as_the_dsl_does(costs, scale):
    """A hand-built CostSpec, finite_list and the DSL spelling of the same
    costs all refuse them, or all give the same bits, with the cheapest
    letter at 1."""
    costs = [c * scale for c in costs]
    text = "finite:" + ",".join(map(repr, costs))
    try:
        spec = finite_list(costs)
    except CostSpecError:
        with pytest.raises(CostSpecError):
            parse_cost_spec(text)
        with pytest.raises(CostSpecError):
            CostSpec(costs=tuple(sorted(costs)))
        return
    hand = CostSpec(costs=tuple(sorted(costs)))
    assert spec.costs == parse_cost_spec(text).costs == hand.costs
    assert abs(spec.costs[0] - 1.0) <= 1e-12


@settings(max_examples=300, deadline=None, derandomize=True)
@given(costs=wide_cost_lists, scale=st.floats(1e-3, 1e3))
@example(costs=[1.0, 1.2345678], scale=1.0)
@example(costs=[3.0, 1.0000000000001], scale=1.0)
def test_finite_list_label_parses_to_its_costs(costs, scale):
    """The label finite_list writes for a cost list is its DSL string."""
    try:
        spec = finite_list([c * scale for c in costs])
    except CostSpecError:
        return
    assert parse_cost_spec(spec.label).costs == spec.costs


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="one symbol: "
                   "1 - p1 - pn is -1, and the reference row falls below nr")
def test_reference_bound_holds_for_one_symbol():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["code", "--costs", "finite:1,2", "--inline", "1.0",
                     "--format", "json"])
    if code != 0:  # any other failure is not the known one
        raise RuntimeError(f"exit {code}")
    rep = json.loads(out.getvalue())["report"]
    (row,) = [b for b in rep["bounds"] if b["name"] == BOUND_REFERENCE]
    assert rep["nr"] <= row["value"] + 1e-9  # 0.694 against 0.388


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(json_values, max_size=12), normalize=st.booleans(),
       trace=st.booleans(), spec_text=st.sampled_from(("finite:1,2", "linear")))
def test_cli_maps_any_json_probs_to_a_documented_exit(tmp_path_factory, values,
                                                      normalize, trace, spec_text):
    path = tmp_path_factory.getbasetemp() / "probs.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    argv = ["code", "--costs", spec_text, "--probs", str(path), "--format", "json"]
    argv += ["--normalize"] * normalize + ["--trace"] * trace
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in values):
        assert code == 2  # booleans and strings included
    else:
        assert code in (0, 2, 3, 4, 5)


# Few values, so most vectors hold ties.  From `coder._CHECKED_SORT_MIN` = 64
# symbols up, prepare falls back to its stable sort on those, and the distinct
# lists take its default sort alone.
prepare_pool = st.sampled_from((0.0, -0.0, 5e-324, 1e-300, 1.0 / 3.0, 0.25, 0.1, 1.0, 3.0))
prepare_vectors = st.one_of(
    st.lists(st.one_of(prepare_pool, st.floats(0.0, 1.0)), min_size=1, max_size=300),
    st.lists(prepare_pool, min_size=64, max_size=300),
    st.lists(st.floats(0.0, 1.0), min_size=64, max_size=300, unique=True),
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(values=prepare_vectors, normalize=st.booleans())
@example(values=[0.0, -0.0, 0.5, -0.0, 0.5, 0.0] * 20, normalize=True)
def test_prepare_is_bit_identical_to_its_reference(values, normalize):
    total = math.fsum(values)
    if not normalize and total > 0.0:
        values = [v / total for v in values]
    try:
        want = reference_prepare(values, normalize=normalize)
    except VarncodeError:
        with pytest.raises(VarncodeError):
            prepare(values, normalize=normalize)
        return
    assert_same_prepared(prepare(values, normalize=normalize), want)


def _bits(values):
    return [x.hex() if isinstance(x, float) else x for x in values]


def _assert_same_as_the_repeat_family(spec, d):
    ref = reference_repeat(d, spec.label)
    root = char_root(spec)
    assert _bits(dataclasses.astuple(root)) == _bits(dataclasses.astuple(char_root(ref)))
    c = root.value
    assert (_bits(spec.weighted_sum(c, float(a)) for a in range(61))
            == _bits(ref.weighted_sum(c, float(a)) for a in range(61)))
    for epsilon in (0.5, 0.25, 0.05, 0.01):
        assert (_bits(dataclasses.astuple(approx_bound(spec, root, epsilon)))
                == _bits(dataclasses.astuple(approx_bound(ref, root, epsilon))))
    assert list(itertools.islice(spec.levels(), 60)) == [(float(j), d) for j in range(1, 61)]
    for m in (1, 2, d, d + 1, 2 * d + 1, 5000):
        assert spec.letter_cost(m) == float(-(-m // d))
    assert spec.d_profile(60) == ref.d_profile(60) == (d,) * 60
    assert spec.max_multiplicity() == ref.max_multiplicity() == float(d)
    costs, cum = LetterTable(spec, c).arrays(5000)
    ref_costs, ref_cum = repeat_table(d, c, 5000)
    assert costs.tobytes() == ref_costs.tobytes()
    assert cum.tobytes() == ref_cum.tobytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(d=st.integers(1, 10 ** 6))
@example(d=1)
@example(d=2)
@example(d=10 ** 6)
def test_repeat_is_bit_identical_to_the_repeat_family(d):
    _assert_same_as_the_repeat_family(parse_cost_spec(f"repeat:{d}"), d)


def test_linear_is_bit_identical_to_the_repeat_family():
    _assert_same_as_the_repeat_family(parse_cost_spec("linear"), 1)
