"""Tests for cost specifications, characteristic roots, and profile tails."""

import math
import pickle
import random

import pytest

from varncode import (
    CostSpecError,
    build_code,
    char_root,
    custom_profile,
    exact_opt,
    finite_list,
    parse_cost_spec,
    prepare,
    reference_bound,
)
from varncode.costs import (
    BalancedWordsFamily,
    CostSpec,
    CustomProfileFamily,
    FibonacciFamily,
    LetterTable,
)

from code_reference import root_60_digits
from test_oracle import REFERENCE_SPECS

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Roots recomputed by direct bisection of sum_i 2^(-c*c_i) = 1, outside
# the package, and frozen here.
ROOT_12 = 0.6942419136306172
ROOT_13 = 0.5514630897455957
ROOT_123 = 0.8791464216066383
ROOT_115 = 1.039817386626304


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_finite_list_sorts_and_labels():
    spec = finite_list([3.0, 1.0, 2.0])
    assert spec.costs == (1.0, 2.0, 3.0)
    assert spec.label == "finite:1,2,3"
    assert spec.kind == "FiniteList"
    assert spec.alphabet_size == 3
    assert spec.is_finite_alphabet
    assert spec.max_cost == 3.0
    assert spec.integer_costs


def test_finite_list_rejects_bad_costs():
    with pytest.raises(CostSpecError):
        finite_list([1.0])
    with pytest.raises(CostSpecError):
        finite_list([0.0, 1.0])
    with pytest.raises(CostSpecError):
        finite_list([-1.0, 2.0])
    with pytest.raises(CostSpecError):
        finite_list([1.0, math.inf])
    with pytest.raises(CostSpecError):
        CostSpec(costs=(2.0, 1.0))
    with pytest.raises(CostSpecError):
        CostSpec(costs=None, family=None)


def test_letter_cost_indexing():
    spec = finite_list([1.0, 2.0, 2.0, 5.0])
    assert spec.letter_cost(1) == 1.0
    assert spec.letter_cost(3) == 2.0
    assert spec.letter_cost(4) == 5.0
    with pytest.raises(CostSpecError):
        spec.letter_cost(0)
    with pytest.raises(CostSpecError):
        spec.letter_cost(5)

    lin = parse_cost_spec("linear")
    assert [lin.letter_cost(m) for m in (1, 2, 3)] == [1.0, 2.0, 3.0]
    rep = parse_cost_spec("repeat:3")
    assert [rep.letter_cost(m) for m in (1, 3, 4, 6, 7)] == [1.0, 1.0, 2.0, 2.0, 3.0]
    fib = parse_cost_spec("fib")
    # multiplicities 1, 1, 2, 3: letters 1|2|3 4|5 6 7
    assert [fib.letter_cost(m) for m in (1, 2, 3, 4, 5, 7)] == [1.0, 2.0, 3.0, 3.0, 4.0, 4.0]


def test_letter_cost_stops_where_a_profile_alphabet_ends():
    spec = custom_profile([1, 1])
    fam = spec.family
    levels_read = []
    multiplicity = fam.multiplicity
    fam.multiplicity = lambda j: levels_read.append(j) or multiplicity(j)
    assert spec.letter_cost(2) == 2.0
    with pytest.raises(CostSpecError):
        spec.letter_cost(3)
    # the walk ends at the last letter, not after 10^7 empty levels
    assert max(levels_read) == 2


@pytest.mark.parametrize("spec_text", ["linear", "fib", "balanced", "repeat:3",
                                       "profile:1,0,3;tail=repeat"])
def test_letter_table_bits_do_not_depend_on_how_it_grew(spec_text):
    """The builder asks for letters one at a time on its scalar path and in
    batches on its vector path; both must see the same bin ends."""
    spec = parse_cost_spec(spec_text)
    c = char_root(spec).value
    one_by_one = LetterTable(spec, c)
    for m in range(1, 3001):
        one_by_one.ensure(m)
    rng = random.Random(spec_text)
    for _ in range(5):
        batched = LetterTable(spec, c)
        m = 0
        while m < 3000:
            m = min(3000, m + rng.randint(1, 400))
            costs, cum = batched.arrays(m)
        assert batched.costs == one_by_one.costs
        assert [x.hex() for x in batched.cum] == [x.hex() for x in one_by_one.cum]
        assert costs.tolist() == batched.costs and cum.tolist() == batched.cum


def _reference_table(spec, c, letters):
    """costs and cum through `letters` from the definition, outside the
    package: cum[m] = cum[m-1] + 2^(-c*c_m), the costs read off d_profile."""
    levels = 16
    while sum(spec.d_profile(levels)) < letters:
        levels *= 2
    costs, cum = [0.0], [0.0]
    for j, d in enumerate(spec.d_profile(levels), start=1):
        for _ in range(min(d, letters + 1 - len(costs))):
            costs.append(float(j))
            cum.append(cum[-1] + 2.0 ** (-c * float(j)))
    return costs, cum


@pytest.mark.parametrize("spec_text", ["linear", "repeat:3", "fib", "balanced",
                                       "profile:1,0,3;tail=repeat",
                                       "profile:0,0,5;tail=repeat",
                                       "profile:2,0,1,3;tail=zero"])
def test_letter_table_matches_a_reference_sum(spec_text):
    """Grown by ensure and arrays in random steps, and pickled mid-walk, the
    table holds the reference's bits, also past the level where a repeating
    profile's letter weights underflow to 0.0."""
    spec = parse_cost_spec(spec_text)
    c = char_root(spec).value
    letters = int(min(spec.alphabet_size, 6000))
    ref_costs, ref_cum = _reference_table(spec, c, letters)
    if spec.family.repeat_tail() is not None:
        assert 2.0 ** (-c * ref_costs[-1]) == 0.0
    rng = random.Random(spec_text)
    for _ in range(5):
        table = LetterTable(spec, c)
        m = 0
        while m < letters:
            m = min(letters, m + rng.choice((1, 2, rng.randint(1, 50), rng.randint(1, 2000))))
            if rng.random() < 0.5:
                costs, cum = table.arrays(m)
                assert costs.tolist() == table.costs and cum.tolist() == table.cum
            else:
                table.ensure(m)
            if rng.random() < 0.1:
                table = pickle.loads(pickle.dumps(table))
        assert table.costs == ref_costs
        assert [x.hex() for x in table.cum] == [x.hex() for x in ref_cum]
    if spec.is_finite_alphabet:
        with pytest.raises(CostSpecError):
            table.ensure(letters + 1)


@pytest.mark.parametrize("spec_text", ["linear", "repeat:3", "profile:1,0,3;tail=repeat"])
def test_letter_table_reads_only_a_repeating_profiles_prefix(spec_text):
    """Past the prefix the table grows in closed form: 85 000 letters read
    no more levels from the family than the prefix holds, plus two."""
    spec = parse_cost_spec(spec_text)
    c = char_root(spec).value
    fam = spec.family
    levels_read = []
    multiplicity = fam.multiplicity
    fam.multiplicity = lambda j: levels_read.append(j) or multiplicity(j)
    table = LetterTable(spec, c)
    table.ensure(85_000)
    assert len(table.costs) == 85_001
    assert len(levels_read) <= fam.repeat_tail()[0] + 2


@pytest.mark.parametrize("spec_text", ["telegraph", "finite:1,1,3", "linear", "repeat:2",
                                       "fib", "balanced", "profile:0,0,1,1;tail=zero",
                                       "profile:0,1;tail=repeat", "profile:0,3,1"])
def test_second_cost_gap_reads_the_levels_once(spec_text):
    ref = parse_cost_spec(spec_text)
    expected = ref.letter_cost(2) - ref.letter_cost(1)
    spec = parse_cost_spec(spec_text)  # fresh: the gap is cached per spec
    levels_read = []
    if spec.family is not None:
        multiplicity = spec.family.multiplicity
        spec.family.multiplicity = lambda j: levels_read.append(j) or multiplicity(j)
    assert spec.second_cost_gap == expected
    assert len(levels_read) == len(set(levels_read))


def test_normalize_rescales_finite_lists():
    """Every finite CostSpec is in units of its cheapest letter: built by
    hand, by finite_list or by the DSL it is one spec, and costs within 1e-12
    of 1 are kept as given."""
    hand = CostSpec(costs=(2.0, 4.0, 7.0), label="finite:2,4,7")
    assert hand.costs == (1.0, 2.0, 3.5)
    assert hand == finite_list([7.0, 2.0, 4.0]) == parse_cost_spec("finite:2,4,7")
    for costs in ((1.0000000000001, 2.0), (1.0 - 1e-13, 3.0)):
        assert CostSpec(costs=costs).costs == costs
        assert finite_list(costs).costs == costs
    # Rescaled, these costs' ratio passes the float range.
    with pytest.raises(CostSpecError):
        CostSpec(costs=(1e-300, 1e10))
    # Profiles keep their integer levels, whatever their cheapest cost.
    assert parse_cost_spec("profile:0,2").letter_cost(1) == 2.0


def test_char_sum_decreases():
    for spec in (parse_cost_spec("telegraph"), finite_list([1.0, 1.0, 5.0]),
                 parse_cost_spec("linear"), parse_cost_spec("fib")):
        values = [spec.char_sum(c) for c in (0.7, 1.1, 1.6, 2.4)]
        finite = [v for v in values if math.isfinite(v)]
        assert all(a > b for a, b in zip(finite, finite[1:]))


# ---------------------------------------------------------------------------
# characteristic roots
# ---------------------------------------------------------------------------

def test_root_golden_values():
    tel = char_root(parse_cost_spec("telegraph")).value
    assert abs(tel - ROOT_12) < 1e-9
    assert abs(tel - (1.0 - math.log2(math.sqrt(5.0) - 1.0))) < 1e-9
    assert abs(char_root(finite_list([1.0, 3.0])).value - ROOT_13) < 1e-9
    assert abs(char_root(finite_list([1.0, 2.0, 3.0])).value - ROOT_123) < 1e-9
    assert abs(char_root(finite_list([1.0, 1.0, 5.0])).value - ROOT_115) < 1e-9


def test_root_closed_forms():
    assert char_root(parse_cost_spec("linear")).value == 1.0
    for d in range(1, 9):
        root = char_root(parse_cost_spec(f"repeat:{d}"))
        assert abs(root.value - math.log2(d + 1)) < 1e-12
    fib = char_root(parse_cost_spec("fib"))
    assert abs(fib.value - (-math.log2(math.sqrt(2.0) - 1.0))) < 1e-12
    assert abs(fib.value - 1.2715533031636117) < 1e-9
    bal = char_root(parse_cost_spec("balanced"))
    assert bal.value == 1.0
    assert not bal.tail_convergent


def test_root_residual_certificate():
    for spec in (parse_cost_spec("telegraph"), finite_list([1.0, 2.0, 3.0]),
                 parse_cost_spec("repeat:4"), parse_cost_spec("fib")):
        root = char_root(spec)
        assert root.residual <= 1e-9
        assert abs(spec.char_sum(root.value) - 1.0) == root.residual


def test_root_matches_bisection_on_profile_prefixes():
    """Closed-form roots agree with plain bisection over truncations."""
    for text, levels in (("linear", 40), ("repeat:3", 40), ("fib", 60)):
        spec = parse_cost_spec(text)
        exact = char_root(spec).value
        d = spec.d_profile(levels)
        lo, hi = 1e-9, 64.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            s = sum(dj * 2.0 ** (-mid * j) for j, dj in enumerate(d, start=1))
            if s >= 1.0:
                lo = mid
            else:
                hi = mid
        # truncation only loses mass, so the truncated root sits slightly below
        assert exact - 1e-6 < 0.5 * (lo + hi) <= exact + 1e-12


def test_root_requires_normalized_spec():
    """char_root reads costs in units of the cheapest letter, and every
    CostSpec holds them so: a hand-built (2, 3) is finite:2,3, with its root
    and its exact optimum."""
    hand, dsl = CostSpec(costs=(2.0, 3.0)), parse_cost_spec("finite:2,3")
    assert hand.costs == dsl.costs == (1.0, 1.5)
    assert char_root(hand) == char_root(dsl) == char_root(finite_list([2.0, 3.0]))
    pin = prepare([0.5, 0.3, 0.2])
    assert exact_opt(pin, hand) == exact_opt(pin, dsl)
    assert exact_opt(pin, hand).opt_cost == pytest.approx(1.85, abs=1e-12)


def test_root_brackets_the_largest_profile_coefficient():
    """1e300 letters of cost 1: the bracket's top, 1 + log2 1e300, comes from
    the largest multiplicity, and the level is summed as one term, never
    letter by letter."""
    root = char_root(parse_cost_spec("profile:1e300"))
    assert abs(root.value - math.log2(1e300)) < 1e-9


def test_root_resolves_a_tiny_root():
    # 2^-c + 2^(-c*1e300) = 1 at c about 9.87e-298, far below any absolute
    # tolerance; 2.88953e-9 is the 60-digit root of finite:1,1e10.
    assert abs(char_root(parse_cost_spec("finite:1,1e300")).value / 9.8716e-298 - 1) < 1e-5
    assert abs(char_root(parse_cost_spec("finite:1,1e10")).value / 2.88953e-9 - 1) < 1e-5


# Costs 1 and 1001: S(c) less its cheapest term would cancel to a few digits
# at these roots, so the dearer terms are summed on their own.
WIDE_GAPS = tuple(pytest.param(f"profile:1,{'0,' * 999}1{tail}", id=f"profile:1,0x999,1{tail}")
                  for tail in ("", ";tail=repeat"))


@pytest.mark.parametrize("spec_text", REFERENCE_SPECS + (
    "finite:1,1e10", "finite:1,1e300", "profile:1e300", "profile:0,2,1;tail=repeat",
    "rll:1,100") + WIDE_GAPS)
def test_root_matches_the_60_digit_root(spec_text):
    mpmath = pytest.importorskip("mpmath")
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    ref, _ = root_60_digits(spec, mpmath)
    assert abs(mpmath.mpf(root.value) / ref - 1) < 1e-15
    assert abs(mpmath.mpf(root.value) - ref) <= root.tolerance


# ---------------------------------------------------------------------------
# beta
# ---------------------------------------------------------------------------

def test_beta_golden_values():
    assert abs(char_root(parse_cost_spec("telegraph")).beta - PHI) < 1e-9
    assert abs(char_root(finite_list([1.0, 1.0])).beta - 2.0) < 1e-12
    assert abs(char_root(finite_list([1.0, 3.0])).beta - 1.465571231876768) < 1e-9
    assert abs(char_root(parse_cost_spec("linear")).beta - 2.0) < 1e-12
    assert abs(char_root(parse_cost_spec("repeat:2")).beta - 3.0) < 1e-9
    assert char_root(parse_cost_spec("balanced")).beta == math.inf


def test_beta_matches_direct_supremum():
    """root.beta agrees with the literal sup over suffix sums."""
    rng = random.Random(4)
    for _ in range(40):
        t = rng.randint(2, 7)
        costs = sorted(1.0 + 3.0 * rng.random() for _ in range(t))
        costs[0] = 1.0
        spec = finite_list(costs)
        root = char_root(spec)
        c = root.value
        direct = max(
            2.0 ** (c * costs[m])
            * sum(2.0 ** (-c * ci) for ci in costs[m:])
            for m in range(t)
        )
        assert abs(root.beta - direct) < 1e-9


def test_beta_custom_repeat_profile():
    """The sup sits at the heavy first level, not the repeating tail."""
    spec = custom_profile([5, 1], tail="repeat")
    root = char_root(spec)
    z = 2.0 ** (-root.value)
    w1 = 5.0 * z + z ** 2 / (1.0 - z)
    candidates = (w1 / z, (z ** 2 / (1.0 - z)) / z ** 2, 1.0 / (1.0 - z))
    assert abs(root.beta - max(candidates)) < 1e-9
    assert root.beta == pytest.approx(5.0 + z / (1.0 - z), abs=1e-9)


def test_beta_unbounded_profiles_are_infinite():
    assert char_root(parse_cost_spec("fib")).beta == math.inf


def test_beta_at_least_one():
    for label in ("finite:1,2", "finite:1,1,5", "linear", "repeat:5", "fib"):
        spec = parse_cost_spec(label)
        assert char_root(spec).beta >= 1.0


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_d_profile_families():
    assert parse_cost_spec("linear").d_profile(5) == (1, 1, 1, 1, 1)
    assert parse_cost_spec("repeat:4").d_profile(3) == (4, 4, 4)
    assert parse_cost_spec("fib").d_profile(7) == (1, 1, 2, 3, 5, 8, 13)
    assert parse_cost_spec("balanced").d_profile(8) == (0, 2, 0, 2, 0, 4, 0, 10)


def test_d_profile_finite_lists():
    # level j holds costs in [j, j+1), so 2.5 counts at level 2
    spec = finite_list([1.0, 2.0, 2.0, 2.5, 4.0])
    assert spec.d_profile(4) == (1, 3, 0, 1)
    assert spec.max_multiplicity() == 3.0
    assert finite_list([1.0, 1e300]).max_multiplicity() == 1.0
    # near-integer costs snap to their level
    spec2 = finite_list([1.0, 2.0 - 1e-12])
    assert spec2.d_profile(2) == (1, 1)


def test_custom_profile_tails():
    zero = custom_profile([1, 2, 1], tail="zero")
    assert zero.is_finite_alphabet
    assert zero.alphabet_size == 4
    assert zero.max_cost == 3.0
    assert zero.d_profile(5) == (1, 2, 1, 0, 0)

    rep = custom_profile([1, 3], tail="repeat")
    assert not rep.is_finite_alphabet
    assert rep.d_profile(5) == (1, 3, 3, 3, 3)
    root = char_root(rep)
    assert root.residual < 1e-9
    assert root.tail_convergent


def test_custom_profile_validation():
    with pytest.raises(CostSpecError):
        custom_profile([], tail="zero")
    with pytest.raises(CostSpecError):
        custom_profile([1], tail="zero")  # fewer than 2 letters
    with pytest.raises(CostSpecError):
        custom_profile([1, 0], tail="repeat")  # the zero repeats: one letter
    with pytest.raises(CostSpecError):
        custom_profile([0, 0], tail="repeat")
    with pytest.raises(CostSpecError):
        custom_profile([1, 2], tail="bounce")


def test_custom_profile_takes_only_integer_counts():
    """custom_profile and the DSL refuse the same counts, with one message."""
    for counts in ([1.5, 1], [1, -2], [math.inf, 1], [math.nan, 1]):
        with pytest.raises(CostSpecError, match="integers >= 0"):
            custom_profile(counts)
    with pytest.raises(CostSpecError, match="integers >= 0"):
        parse_cost_spec("profile:1.5,1")
    assert custom_profile([1.0, 2.0]).family.prefix == (1, 2)


def test_profile_letter_count_past_the_float_range_is_a_spec_error():
    # 2e308 letters: the total would overflow float where char_root reads it.
    for text in ("profile:1e308,1e308", "profile:1e308,1e308,0;tail=repeat"):
        with pytest.raises(CostSpecError, match="float range"):
            parse_cost_spec(text)
    assert parse_cost_spec("profile:1e308,1e307").alphabet_size == 1.1e308


def test_profile_letter_count_is_exact_past_float_precision():
    # 10**18 + 1 letters round to 1e18 as a float; a walk that stopped at the
    # rounded count lost level 2, and c_t with it.
    spec = parse_cost_spec("profile:1e18,1")
    t = 10 ** 18 + 1
    assert list(spec.levels()) == [(1.0, 10 ** 18), (2.0, 1)]
    assert spec.max_cost == 2.0
    assert spec.letter_cost(t) == 2.0
    with pytest.raises(CostSpecError):
        spec.letter_cost(t + 1)
    root = char_root(spec)
    assert LetterTable(spec, root.value).t == t
    probs = [1 / 3] * 3
    assert reference_bound(spec, root, probs[0], probs[-1]) == (
        (1.0 - probs[0] - probs[-1]) + root.value * 2.0)
    tree = build_code(prepare(probs), spec, root)
    assert tree.cost() == 1.0


def test_custom_profile_char_sum_matches_truncation():
    fam = CustomProfileFamily([2, 0, 1], tail_d=1)
    z = 0.4
    direct = sum(fam.multiplicity(j) * z ** j for j in range(1, 400))
    assert abs(fam.char_sum_z(z) - direct) < 1e-12


# ---------------------------------------------------------------------------
# weighted tails
# ---------------------------------------------------------------------------

def test_tail_sum_linear():
    spec = parse_cost_spec("linear")
    root = char_root(spec)
    # sum_j j * 2^(-j) = 2
    assert abs(spec.weighted_sum(root.value) - 2.0) < 1e-12
    z = 0.3
    direct = math.fsum(4 * j * z ** j for j in range(1, 400))
    assert abs(parse_cost_spec("repeat:4").family.weighted_sum_z(z) - direct) < 1e-12


def test_tail_sum_fibonacci_total():
    spec = parse_cost_spec("fib")
    root = char_root(spec)
    assert abs(spec.weighted_sum(root.value) - 2.0 * math.sqrt(2.0)) < 1e-9


def test_tail_sum_matches_direct_summation():
    """Each closed-form z*S'(z), and its tail past a level, matches
    sum_{j > above} j*d_j*z^j summed term by term."""
    for spec, radius in ((parse_cost_spec("fib"), 1.0 / PHI),
                         (parse_cost_spec("balanced"), 0.5),
                         (parse_cost_spec("repeat:2"), 1.0),
                         (custom_profile([2, 0, 1], tail="repeat"), 1.0)):
        d = spec.d_profile(600)
        for k in range(1, 31):
            z = 0.9 * radius * k / 30
            for above in (0, 1, 2, 3, 7, 20):
                direct = math.fsum(j * dj * z ** j
                                   for j, dj in enumerate(d, start=1) if j > above)
                assert spec.family.weighted_sum_z(z, above) == pytest.approx(
                    direct, rel=1e-12, abs=1e-15)


def test_tail_sum_finite_specs():
    spec = finite_list([1.0, 2.0, 3.0])
    root = char_root(spec)
    c = root.value
    expect = 2.0 ** (-c) + 2.0 * 2.0 ** (-2 * c) + 3.0 * 2.0 ** (-3 * c)
    assert abs(spec.weighted_sum(c) - expect) < 1e-12
    assert spec.weighted_sum(c, above=2.0) == 3.0 * 2.0 ** (-3 * c)
    assert spec.weighted_sum(c, above=3.0) == 0.0
    prof = custom_profile([1, 0, 2], tail="zero")
    z = 0.7
    assert prof.family.weighted_sum_z(z) == math.fsum([z, 6 * z ** 3])
    assert prof.family.weighted_sum_z(z, 1) == 6 * z ** 3
    assert prof.family.weighted_sum_z(z, 3) == 0.0
    # A finite alphabet's weighted sum converges for every z.
    assert math.isfinite(prof.family.weighted_sum_z(2.0))
    assert char_root(prof).tail_convergent


def test_tail_sum_divergent_at_root():
    spec = parse_cost_spec("balanced")
    root = char_root(spec)
    assert spec.weighted_sum(root.value) == math.inf
    assert not root.tail_convergent
    for spec, radius in ((parse_cost_spec("fib"), 1.0 / PHI),
                         (parse_cost_spec("repeat:3"), 1.0),
                         (custom_profile([1, 1], tail="repeat"), 1.0)):
        assert spec.family.weighted_sum_z(1.01 * radius) == math.inf


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

def test_parse_finite_and_shorthands():
    assert parse_cost_spec("finite:1,2").costs == (1.0, 2.0)
    assert parse_cost_spec("finite:2,4").costs == (1.0, 2.0)  # normalized
    assert parse_cost_spec("finite: 3 , 1 , 2 ").costs == (1.0, 2.0, 3.0)
    assert parse_cost_spec("telegraph").costs == (1.0, 2.0)
    assert parse_cost_spec("rll:2,5").costs == (1.0, 1.5, 2.0, 2.5)


def test_parse_profile_families():
    for text in ("linear", " Linear "):
        lin = parse_cost_spec(text)
        assert (lin.label, lin.d_profile(4)) == ("linear", (1, 1, 1, 1))
        assert char_root(lin).value == 1.0
    rep = parse_cost_spec("repeat:3").family
    assert (rep.prefix, rep.tail_d) == ((), 3)
    rep = parse_cost_spec("REPEAT: 2.0")
    assert (rep.label, rep.family.prefix, rep.family.tail_d) == ("repeat:2", (), 2)
    tel = parse_cost_spec("telegraph")
    assert (tel.label, tel.costs) == ("telegraph", (1.0, 2.0))
    fib = parse_cost_spec("fib")
    assert (fib.label, fib.d_profile(6)) == ("fib", (1, 1, 2, 3, 5, 8))
    assert type(fib.family) is FibonacciFamily
    bal = parse_cost_spec("balanced")
    assert (bal.label, bal.d_profile(8)) == ("balanced", (0, 2, 0, 2, 0, 4, 0, 10))
    assert type(bal.family) is BalancedWordsFamily
    prof = parse_cost_spec("profile:1,0,2;tail=repeat")
    assert prof.family.prefix == (1, 0, 2)
    assert prof.family.tail_d == 2


def test_parse_errors():
    bad = [
        "",
        "finite:",
        "finite:1",
        "finite:1,oops",
        "finite:0,1",
        "finite:-1,2",
        "finite:1e-300,1e10",  # rescaled, the ratio passes the float range
        "rll:3",
        "rll:5,2",
        "repeat:x",
        "repeat:2.5",
        "linear:1",
        "fib:2",
        "telegraph:9",
        "profile:",
        "profile:1,-2",
        "profile:1,2;tail=wave",
        "profile:1,2;volume=11",
        "profile:1,2;dominator=2,1",
        "wat:1,2",
    ]
    for text in bad:
        with pytest.raises(CostSpecError):
            parse_cost_spec(text)
    # repeat:0 would also fail later, in CustomProfileFamily, with another message.
    for text in ("repeat:0", "repeat:-3"):
        with pytest.raises(CostSpecError, match="repeat multiplicity"):
            parse_cost_spec(text)


def test_rll_bounds_must_be_integers():
    # Non-integer bounds were once truncated: rll:1.5,3.9 gave costs 1, 2, 3.
    for text in ("rll:1.5,3.9", "rll:1,3.5", "rll:2.5,4"):
        with pytest.raises(CostSpecError, match="rll takes two integers"):
            parse_cost_spec(text)
    assert parse_cost_spec("rll:1.0,3.0").costs == parse_cost_spec("rll:1,3").costs


def test_parse_roundtrips_through_label():
    for text in ("finite:1,2,3", "linear", "repeat:4", "fib", "balanced"):
        spec = parse_cost_spec(text)
        again = parse_cost_spec(spec.label)
        assert again.kind == spec.kind
        assert again.d_profile(6) == spec.d_profile(6)
