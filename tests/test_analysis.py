"""Tests for entropy, the additive redundancy bounds, and report assembly."""

import math
import random

import numpy as np
import pytest

from varncode import (
    BOUND_APPROX_PREFIX,
    BOUND_BETA,
    BOUND_MAX_COST,
    BOUND_MULTIPLICITY,
    BOUND_REFERENCE,
    BOUND_SIZE,
    approx_bound,
    beta_bound,
    build_code,
    char_root,
    custom_profile,
    entropy,
    finite_list,
    max_cost_bound,
    multiplicity_bound,
    parse_cost_spec,
    prepare,
    reference_bound,
    report,
    size_bound,
)

THIRDS_SIXTHS = (1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
H_THIRDS_SIXTHS = 1.9182958340544893
ROOT_12 = 0.6942419136306172
PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_values():
    assert entropy(THIRDS_SIXTHS) == pytest.approx(H_THIRDS_SIXTHS, abs=1e-12)
    assert entropy([1.0]) == 0.0
    assert entropy([0.5, 0.5]) == pytest.approx(1.0)
    assert entropy([0.5, 0.5, 0.0]) == pytest.approx(1.0)
    for n in (4, 16, 64):
        assert entropy([1.0 / n] * n) == pytest.approx(math.log2(n), abs=1e-9)


def test_entropy_accepts_prepared_input():
    pin = prepare(THIRDS_SIXTHS)
    assert entropy(pin) == pytest.approx(entropy(THIRDS_SIXTHS), abs=1e-12)


# ---------------------------------------------------------------------------
# bound formulas against hand-computed values
# ---------------------------------------------------------------------------

def hand_probs():
    return 0.5, 0.1  # p1, pn


def test_reference_bound_telegraph():
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    p1, pn = hand_probs()
    assert reference_bound(spec, root, p1, pn) == pytest.approx(
        0.4 + ROOT_12 * 2.0, abs=1e-9
    )


def test_max_cost_bound_telegraph():
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    p1, _ = hand_probs()
    assert max_cost_bound(spec, root, p1) == pytest.approx(
        1.0 + ROOT_12 * 2.0, abs=1e-9
    )


def test_beta_bound_telegraph():
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    p1, _ = hand_probs()
    # second-letter gap term: c * (2 - 1); beta term: 1 + log2(phi)
    expect = 1.0 + max(ROOT_12, 1.0 + math.log2(PHI))
    assert beta_bound(spec, root, p1) == pytest.approx(expect, abs=1e-9)


def test_size_bound_telegraph():
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    p1, _ = hand_probs()
    assert size_bound(spec, root, p1) == pytest.approx(
        1.0 + max(ROOT_12, 2.0), abs=1e-12
    )


def test_multiplicity_bound_values():
    p1 = 0.5
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    z = 2.0 ** (-root.value)
    expect = 1.0 + max(root.value, 1.0 + math.log2(1.0 / (1.0 - z)))
    assert multiplicity_bound(spec, root, p1) == pytest.approx(expect, abs=1e-9)

    lin = parse_cost_spec("linear")
    lroot = char_root(lin)
    # K = 1 and z = 1/2, so the log term is exactly 2
    assert multiplicity_bound(lin, lroot, p1) == pytest.approx(3.0, abs=1e-12)

    frac = finite_list([1.0, 1.5])
    froot = char_root(frac)
    fz = 2.0 ** (-froot.value)
    # both costs sit in level [1, 2), so K = 2; non-integer costs add c
    base = 1.0 + math.log2(2.0 / (1.0 - fz)) + froot.value
    expect2 = 1.0 + max(froot.value * 0.5, base)
    assert multiplicity_bound(frac, froot, p1) == pytest.approx(expect2, abs=1e-9)


def test_bounds_are_inf_where_their_quantity_is_infinite():
    """c_t and t are infinite for every infinite alphabet; beta and K are
    infinite for fib and balanced but finite (2 and 1) for linear."""
    p1, pn = hand_probs()
    for spec, beta_and_k_infinite in (
        (parse_cost_spec("linear"), False), (parse_cost_spec("fib"), True),
        (parse_cost_spec("balanced"), True),
    ):
        root = char_root(spec)
        assert reference_bound(spec, root, p1, pn) == math.inf
        assert max_cost_bound(spec, root, p1) == math.inf
        assert size_bound(spec, root, p1) == math.inf
        for bound in (beta_bound, multiplicity_bound):
            assert (bound(spec, root, p1) == math.inf) == beta_and_k_infinite


def test_bound_orderings():
    """Reference <= max-cost bound and beta <= size bound, all finite specs."""
    rng = random.Random(5)
    for _ in range(50):
        t = rng.randint(2, 6)
        costs = sorted([1.0] + [1.0 + 4.0 * rng.random() for _ in range(t - 1)])
        spec = finite_list(costs)
        root = char_root(spec)
        p = sorted((rng.random() for _ in range(4)), reverse=True)
        tot = sum(p)
        p1, pn = p[0] / tot, p[-1] / tot
        assert reference_bound(spec, root, p1, pn) <= \
            max_cost_bound(spec, root, p1) + 1e-12
        assert beta_bound(spec, root, p1) <= size_bound(spec, root, p1) + 1e-12


# ---------------------------------------------------------------------------
# approximation bound
# ---------------------------------------------------------------------------

def test_approx_bound_epsilon_validation():
    root = char_root(parse_cost_spec("fib"))
    for eps in (0.0, -0.1, 0.51, 2.0):
        with pytest.raises(ValueError):
            approx_bound(parse_cost_spec("fib"), root, eps)


def test_approx_bound_fib_thresholds():
    spec = parse_cost_spec("fib")
    root = char_root(spec)
    expected = {0.5: 13.0, 0.25: 15.0, 0.1: 18.0}
    counts = {0.5: 609, 0.25: 1596, 0.1: 6764}
    for eps, N in expected.items():
        ab = approx_bound(spec, root, eps)
        assert ab.cost_threshold == N
        assert ab.index_threshold == counts[eps]
        assert ab.tail_value <= eps / 6.0
        assert ab.f_value == pytest.approx(
            (4.0 / 3.0) * (2.0 / root.value + 1.0 + N), abs=1e-9
        )


def test_approx_bound_fib_minimality():
    """The scan stops at the first level whose weighted tail fits."""
    spec = parse_cost_spec("fib")
    root = char_root(spec)
    z = 2.0 ** (-root.value)
    F = [0, 1, 1]
    for _ in range(160):
        F.append(F[-1] + F[-2])

    def tail_after(N):
        return math.fsum(j * F[j] * z ** j for j in range(N + 1, 140))

    for eps in (0.5, 0.25, 0.1):
        ab = approx_bound(spec, root, eps)
        N = int(ab.cost_threshold)
        assert tail_after(N) <= eps / 6.0
        assert tail_after(N - 1) > eps / 6.0
        assert ab.tail_value == pytest.approx(tail_after(N), abs=1e-9)


def test_approx_bound_linear():
    spec = parse_cost_spec("linear")
    root = char_root(spec)
    # tail beyond N is (N+2) * 2^-N; first fit for eps=0.5 is N=7
    ab = approx_bound(spec, root, 0.5)
    assert ab.cost_threshold == 7.0
    assert ab.index_threshold == 7
    assert ab.tail_value == pytest.approx(9.0 / 128.0, abs=1e-12)
    assert ab.f_value == pytest.approx((4.0 / 3.0) * 10.0, abs=1e-12)


def test_approx_bound_finite_stops_at_max_cost():
    spec = parse_cost_spec("telegraph")
    root = char_root(spec)
    ab = approx_bound(spec, root, 0.5)
    assert ab.cost_threshold == 2.0
    assert ab.index_threshold == 2
    assert ab.tail_value == 0.0


def test_approx_bound_tails_are_exact_at_tiny_epsilon():
    """Every tail is summed in closed form, so N_eps stays the first level
    whose direct tail fits however small epsilon is, and a finite alphabet
    stops at the level where its tail fits, not at its last letter."""
    for text in ("linear", "repeat:3", "fib", "profile:1,1;tail=repeat"):
        spec = parse_cost_spec(text)
        root = char_root(spec)
        z = 2.0 ** (-root.value)
        d = spec.d_profile(1200)

        def tail_after(N):
            return math.fsum(j * dj * z ** j
                             for j, dj in enumerate(d, start=1) if j > N)

        for eps in (1e-12, 1e-15, 1e-100):
            ab = approx_bound(spec, root, eps)
            N = int(ab.cost_threshold)
            assert tail_after(N) <= eps / 6.0
            assert tail_after(N - 1) > eps / 6.0
            assert ab.tail_value == pytest.approx(tail_after(N), rel=1e-12)
    spec = parse_cost_spec("finite:1,2,1000")
    ab = approx_bound(spec, char_root(spec), 1e-12)
    assert (ab.cost_threshold, ab.index_threshold) == (2.0, 2)
    assert 0.0 < ab.tail_value < 1e-200


def test_approx_bound_divergent_tail():
    spec = parse_cost_spec("balanced")
    root = char_root(spec)
    with pytest.raises(ValueError, match="convergent"):
        approx_bound(spec, root, 0.5)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def build_and_report(probs, spec_text, epsilon=None):
    spec = parse_cost_spec(spec_text)
    root = char_root(spec)
    pin = prepare(probs, normalize=True)
    tree = build_code(pin, spec, root)
    return report(tree, epsilon=epsilon), tree, root


def test_report_finite_structure():
    rep, tree, root = build_and_report(THIRDS_SIXTHS, "finite:1,2")
    assert rep.cost == tree.cost()
    assert rep.entropy == pytest.approx(H_THIRDS_SIXTHS, abs=1e-12)
    assert rep.lower_bound == pytest.approx(rep.entropy / root.value, abs=1e-12)
    assert rep.redundancy == pytest.approx(rep.cost - rep.lower_bound, abs=1e-12)
    assert rep.nr == pytest.approx(root.value * rep.cost - rep.entropy, abs=1e-12)
    names = [b.name for b in rep.bounds]
    assert names == [
        BOUND_REFERENCE, BOUND_MAX_COST, BOUND_BETA, BOUND_SIZE,
        BOUND_MULTIPLICITY, BOUND_APPROX_PREFIX,
    ]
    for b in rep.bounds[:5]:
        assert b.applicable
        assert b.reason is None
        assert rep.nr <= b.value + 1e-7
    last = rep.bound(BOUND_APPROX_PREFIX)
    assert not last.applicable
    assert last.reason == "epsilon_not_set"
    with pytest.raises(KeyError):
        rep.bound("Thm_missing")


def test_report_infinite_alphabet_rows():
    rep, _, root = build_and_report(THIRDS_SIXTHS, "linear")
    assert not rep.bound(BOUND_REFERENCE).applicable
    assert rep.bound(BOUND_REFERENCE).reason == "infinite_alphabet"
    assert not rep.bound(BOUND_MAX_COST).applicable
    assert not rep.bound(BOUND_SIZE).applicable
    beta_row = rep.bound(BOUND_BETA)
    assert beta_row.applicable
    p1 = 1.0 / 3.0
    assert beta_row.value == pytest.approx(2.0 * (1.0 - p1) + 2.0, abs=1e-9)
    mult_row = rep.bound(BOUND_MULTIPLICITY)
    assert mult_row.applicable
    assert mult_row.value == pytest.approx(beta_row.value, abs=1e-9)
    assert rep.nr <= rep.min_applicable() + 1e-7


def test_report_balanced_rows():
    rep, _, _ = build_and_report((0.4, 0.3, 0.2, 0.1), "balanced")
    assert rep.bound(BOUND_BETA).reason == "beta_infinite"
    assert rep.bound(BOUND_MULTIPLICITY).reason == "unbounded_profile"
    rep2, _, _ = build_and_report((0.4, 0.3, 0.2, 0.1), "balanced", epsilon=0.5)
    row = rep2.bound(BOUND_APPROX_PREFIX + "(0.5)")
    assert not row.applicable
    assert row.reason == "divergent_tail"
    assert rep2.approx is None


def test_report_epsilon_row():
    rep, tree, root = build_and_report(THIRDS_SIXTHS, "fib", epsilon=0.25)
    row = rep.bound(BOUND_APPROX_PREFIX + "(0.25)")
    assert row.applicable
    c = root.value
    expect = 2.0 * (1.0 - 1.0 / 3.0) + c * 1.0 + c * 15.0 \
        + 0.5 * 0.25 * c * tree.cost()
    assert row.value == pytest.approx(expect, abs=1e-9)
    assert rep.nr <= row.value + 1e-7
    assert rep.approx == approx_bound(tree.spec, root, 0.25)
    assert "approx" not in rep.to_dict()


def test_report_row_whose_value_overflows_does_not_apply():
    """c = 2 and c_t = 1e308: c*c_t is inf on a finite alphabet, so the two
    rows built on it read n/a (overflow) rather than an applicable inf."""
    rep, _, root = build_and_report((0.5, 0.3, 0.2), "finite:1,1,1,1,1e308")
    assert root.value == pytest.approx(2.0)
    for name in (BOUND_REFERENCE, BOUND_MAX_COST):
        assert rep.bound(name).value is None
        assert not rep.bound(name).applicable
        assert rep.bound(name).reason == "overflow"
    assert all(b.applicable for b in rep.bounds[2:5])


def test_report_to_dict_schema():
    rep, _, _ = build_and_report(THIRDS_SIXTHS, "finite:1,3")
    d = rep.to_dict()
    assert sorted(d.keys()) == [
        "bounds", "cost", "entropy", "lower_bound", "nr", "redundancy",
    ]
    for row in d["bounds"]:
        assert sorted(row.keys()) == ["applicable", "name", "reason", "value"]
        assert isinstance(row["applicable"], bool)
        if row["applicable"]:
            assert isinstance(row["value"], float)
            assert row["reason"] is None
        else:
            assert row["value"] is None
            assert isinstance(row["reason"], str)


def test_nr_within_applicable_bounds_random():
    rng = np.random.default_rng(29)
    labels = ("finite:1,1", "finite:1,2", "finite:1,2,3", "finite:1,1,5",
              "linear", "repeat:2", "repeat:5", "fib")
    for trial in range(60):
        n = int(rng.integers(2, 150))
        p = rng.random(n) + 1e-6
        spec = parse_cost_spec(labels[trial % len(labels)])
        root = char_root(spec)
        pin = prepare(p, normalize=True)
        tree = build_code(pin, spec, root)
        rep = report(tree)
        assert rep.redundancy >= -1e-9
        for b in rep.bounds:
            if b.applicable:
                assert rep.nr <= b.value + 1e-7
