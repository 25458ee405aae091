"""Letter-cost alphabets and the characteristic equation.

An alphabet is either an explicit finite list of positive letter costs or an
integer-cost profile (d_1, d_2, ...) giving the number of letters of each
integer cost, possibly infinite.  The characteristic root c is the unique
positive solution of

    1 = sum_i 2^(-c * c_i) = sum_j d_j * 2^(-c * j)

and generalizes "bits per symbol" to unequal letter costs.  Everything else in
the package (bin widths, entropy lower bound, redundancy bounds) is phrased in
terms of c and a few tail sums computed here.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CostSpecError

FINITE_LIST = "FiniteList"
INTEGER_PROFILE = "IntegerProfile"

# Costs within this distance of an integer are treated as integers (fast paths,
# sharper multiplicity bounds).
INTEGER_SNAP = 1e-9

# Walks over an infinite alphabet stop with CostSpecError past this level.
_MAX_LEVEL = 10 ** 7

# rll:a,b lists its b - a + 1 letters at parse time, so it takes at most
# this many: `root --costs rll:1,100000` takes about a second.
_RLL_MAX_LETTERS = 100_000


def _geom_weighted_tail(z: float, level: int) -> float:
    """sum_{j > level} j * z^j for 0 < z < 1, in closed form."""
    m = level
    return z ** (m + 1) * ((m + 1) - m * z) / (1.0 - z) ** 2


# ---------------------------------------------------------------------------
# profile families
# ---------------------------------------------------------------------------

class ProfileFamily:
    """Integer-cost alphabet described by multiplicities d_j, j = 1, 2, ...

    Subclasses supply the analytic facts the rest of the package needs:
    multiplicities, the characteristic sum S(z) = sum_j d_j z^j and the
    weighted sum z*S'(z) = sum_j j*d_j*z^j with its tails past each level as
    functions of z = 2^(-c) (each math.inf where its series diverges), an
    exact root when one is known, the exact letter count, the largest
    multiplicity K (or infinity), and where the profile starts repeating, if
    it does.  `CostSpec.levels()` walks the levels that have letters.
    """

    def multiplicity(self, j: int) -> int:
        raise NotImplementedError

    def repeat_tail(self) -> tuple[int, int] | None:
        """(J, d) when every level past J holds d > 0 letters, else None."""
        return None

    def char_sum_z(self, z: float) -> float:
        """sum_j d_j z^j, or math.inf where the series diverges."""
        raise NotImplementedError

    def weighted_sum_z(self, z: float, above: int = 0) -> float:
        """sum_{j > above} j d_j z^j, or math.inf where the series diverges."""
        raise NotImplementedError

    def closed_root(self) -> float | None:
        return None

    def total_letters(self) -> int | float:
        """Number of letters as an exact int; math.inf for infinite alphabets."""
        return math.inf

    def max_multiplicity(self) -> float:
        """K = max_j d_j, or math.inf when the profile is unbounded."""
        raise NotImplementedError


_PHI = (1.0 + math.sqrt(5.0)) / 2.0
_PSI = -1.0 / _PHI


class FibonacciFamily(ProfileFamily):
    """Fibonacci multiplicities d_j = F_j (1, 1, 2, 3, 5, ...)."""

    # generating function z/(1 - z - z^2), radius of convergence 1/phi

    def __init__(self):
        self._fib = [0, 1, 1]

    def multiplicity(self, j):
        fib = self._fib
        while len(fib) <= j:
            fib.append(fib[-1] + fib[-2])
        return fib[j]

    def char_sum_z(self, z):
        den = 1.0 - z - z * z
        if den <= 0.0:
            return math.inf
        return z / den

    def weighted_sum_z(self, z, above=0):
        if _PHI * z >= 1.0:
            return math.inf
        # F_j = (phi^j - psi^j)/sqrt(5) splits the sum into two geometric ones.
        return (_geom_weighted_tail(_PHI * z, above)
                - _geom_weighted_tail(_PSI * z, above)) / math.sqrt(5.0)

    def closed_root(self):
        # z/(1-z-z^2) = 1 at z = sqrt(2) - 1.
        return -math.log2(math.sqrt(2.0) - 1.0)

    def max_multiplicity(self):
        return math.inf


class BalancedWordsFamily(ProfileFamily):
    """Balanced-word alphabet: d_j = 0 for odd j, 2*Catalan(j/2 - 1) for even j."""

    # generating function 1 - sqrt(1 - 4 z^2), radius 1/2, value 1 at z = 1/2

    def multiplicity(self, j):
        if j <= 0 or j % 2 == 1:
            return 0
        k = j // 2 - 1
        return 2 * math.comb(2 * k, k) // (k + 1)

    def char_sum_z(self, z):
        x = 4.0 * z * z
        if x > 1.0:
            return math.inf
        return 1.0 - math.sqrt(1.0 - x)

    def weighted_sum_z(self, z, above=0):
        # z * d/dz (1 - sqrt(1 - 4z^2)); infinite slope at z = 1/2.
        x = 4.0 * z * z
        if x >= 1.0:
            return math.inf
        # No closed form past a level, so the head is subtracted.  That loses
        # precision on deep tails, but approx_bound never reads one: at this
        # family's root z = 1/2 the sum is infinite.
        head = math.fsum(j * self.multiplicity(j) * z ** j
                         for j in range(2, above + 1, 2))
        return max(x / math.sqrt(1.0 - x) - head, 0.0)

    def closed_root(self):
        # S reaches 1 at its convergence boundary z = 1/2, where its slope is
        # infinite and past which it diverges: no Newton step could reach it.
        return 1.0

    def max_multiplicity(self):
        return math.inf


class CustomProfileFamily(ProfileFamily):
    """Explicit multiplicities d_1..d_J, then tail_d letters at every level past J.

    tail_d = 0 ends the alphabet at level J.  `linear` and `repeat:d` are the
    empty prefix with tail_d = d, the only case with a closed root,
    log2(d + 1); `profile:...;tail=repeat` is its prefix with tail_d = d_J.
    """

    def __init__(self, prefix, tail_d=0):
        self.prefix = tuple(int(d) for d in prefix)
        self.tail_d = int(tail_d)
        total = math.inf if self.tail_d else sum(self.prefix)
        if total < 2:
            raise CostSpecError("profile must supply at least 2 letters")
        try:
            float(total)
        except OverflowError:
            raise CostSpecError("profile letter count exceeds the float range") from None
        self._total = total

    def multiplicity(self, j):
        return self.prefix[j - 1] if j <= len(self.prefix) else self.tail_d

    def repeat_tail(self):
        return (len(self.prefix), self.tail_d) if self.tail_d else None

    def char_sum_z(self, z):
        base = math.fsum(d * z ** j for j, d in enumerate(self.prefix, start=1))
        if not self.tail_d:
            return base
        if z >= 1.0:
            return math.inf
        J = len(self.prefix)
        return base + self.tail_d * z ** (J + 1) / (1.0 - z)

    def weighted_sum_z(self, z, above=0):
        J = len(self.prefix)
        head = math.fsum(
            # The float first: d_j * j can pass the float range as an int.
            self.prefix[j - 1] * z ** j * j for j in range(above + 1, J + 1)
        )
        if not self.tail_d:
            return head
        if z >= 1.0:
            return math.inf
        return head + self.tail_d * _geom_weighted_tail(z, max(above, J))

    def closed_root(self):
        # d*z/(1-z) = 1 at z = 1/(d+1).
        return None if self.prefix else math.log2(self.tail_d + 1)

    def total_letters(self):
        return self._total

    def max_multiplicity(self):
        return float(max(self.prefix + (self.tail_d,)))


# ---------------------------------------------------------------------------
# cost specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """A letter-cost alphabet: explicit cost list or integer-cost profile.

    Exactly one of `costs` (nondecreasing positive floats) and `family` is set.
    A cost list is kept in units of its cheapest letter: unless c_1 is within
    1e-12 of 1, every cost is divided by c_1, which scales the root by c_1 and
    changes no c*c_i.  `label` is a short display form, normally the DSL
    string that produced it.
    """

    costs: tuple[float, ...] | None = None
    family: ProfileFamily | None = None
    label: str = ""

    def __post_init__(self):
        if (self.costs is None) == (self.family is None):
            raise CostSpecError("spec needs exactly one of costs/family")
        if self.costs is not None:
            if len(self.costs) < 2:
                raise CostSpecError("finite alphabet needs at least 2 letters")
            if any(not (c > 0.0) or not math.isfinite(c) for c in self.costs):
                raise CostSpecError("letter costs must be positive and finite")
            if any(a > b for a, b in zip(self.costs, self.costs[1:])):
                raise CostSpecError("letter costs must be nondecreasing")
            c1 = self.costs[0]
            if abs(c1 - 1.0) > 1e-12:
                scaled = tuple(c / c1 for c in self.costs)
                if not math.isfinite(scaled[-1]):
                    raise CostSpecError("letter costs must be positive and finite")
                object.__setattr__(self, "costs", scaled)

    # -- basic shape ----------------------------------------------------

    @property
    def kind(self) -> str:
        return FINITE_LIST if self.costs is not None else INTEGER_PROFILE

    @property
    def alphabet_size(self) -> float:
        """Number of letters t; math.inf for infinite alphabets."""
        if self.costs is not None:
            return len(self.costs)
        return float(self.family.total_letters())

    @property
    def is_finite_alphabet(self) -> bool:
        return self.alphabet_size != math.inf

    def letter_cost(self, m: int) -> float:
        """Cost of the m-th cheapest letter, 1-based."""
        if m < 1:
            raise CostSpecError("letter index must be >= 1")
        if self.costs is not None:
            if m > len(self.costs):
                raise CostSpecError("letter index beyond alphabet")
            return self.costs[m - 1]
        seen = 0
        for cost, d in self.levels():
            seen += d
            if seen >= m:
                return cost
        raise CostSpecError("letter index beyond alphabet")

    @property
    def max_cost(self) -> float:
        """c_t for finite alphabets; math.inf otherwise."""
        if self.costs is not None:
            return self.costs[-1]
        return max(cost for cost, _ in self.levels()) if self.is_finite_alphabet else math.inf

    @cached_property
    def second_cost_gap(self) -> float:
        """c_2 - c_1, read by four of the bounds; computed once per spec."""
        if self.costs is not None:
            return self.costs[1] - self.costs[0]
        # Every alphabet has two letters: c_2 is c_1 again, or the next level.
        levels = self.levels()
        c1, d = next(levels)
        return 0.0 if d > 1 else next(levels)[0] - c1

    @property
    def integer_costs(self) -> bool:
        if self.family is not None:
            return True
        return all(abs(c - round(c)) <= INTEGER_SNAP for c in self.costs)

    # -- characteristic sum and profile views ---------------------------

    def char_sum(self, c: float) -> float:
        """S(c) = sum_i 2^(-c*c_i); math.inf where the series diverges."""
        if self.costs is not None:
            return math.fsum(2.0 ** (-c * ci) for ci in self.costs)
        return self.family.char_sum_z(2.0 ** (-c))

    def weighted_sum(self, c: float, above: float = 0.0) -> float:
        """sum c_i 2^(-c*c_i) over the letters costing more than `above`.

        `above` is 0 (every letter) or a level's cost from levels(), so the
        sum is the tail past that level.  math.inf where the series diverges.
        """
        if self.costs is not None:
            start = bisect_right(self.costs, above + 1e-12)
            return math.fsum(ci * 2.0 ** (-c * ci) for ci in self.costs[start:])
        return self.family.weighted_sum_z(2.0 ** (-c), int(above))

    def levels(self):
        """(cost, count) for each cost level with letters, cheapest first.

        Profile levels are the integer costs j with d_j > 0, read from
        multiplicity(j) until the exact letter count is reached; an infinite
        alphabet raises CostSpecError past `_MAX_LEVEL` instead of walking on.
        A finite list groups each cost with the costs at most 1e-12 above it.
        """
        if self.costs is None:
            fam, total = self.family, self.family.total_letters()
            j = seen = 0
            while seen < total:
                j += 1
                if j > _MAX_LEVEL:
                    raise CostSpecError("letter index beyond alphabet")
                d = fam.multiplicity(j)
                if d:
                    seen += d
                    yield float(j), d
            return
        costs = self.costs
        i = 0
        while i < len(costs):
            k = bisect_right(costs, costs[i] + 1e-12, i)
            yield costs[i], k - i
            i = k

    def d_profile(self, up_to: int) -> tuple[int, ...]:
        """Multiplicities d_1..d_up_to; d_j counts costs in [j, j+1)."""
        if up_to < 1:
            raise CostSpecError("profile length must be >= 1")
        if self.family is not None:
            return tuple(self.family.multiplicity(j) for j in range(1, up_to + 1))
        out = [0] * up_to
        for c in self.costs:
            j = _cost_level(c)
            if 1 <= j <= up_to:
                out[j - 1] += 1
        return tuple(out)

    def max_multiplicity(self) -> float:
        """K = max_j d_j (math.inf for unbounded profiles)."""
        if self.family is not None:
            return self.family.max_multiplicity()
        # Counted per level: d_profile would be as long as the largest cost.
        return float(max(Counter(map(_cost_level, self.costs)).values()))


def _cost_level(c: float) -> int:
    """The level j with c in [j, j+1), snapping near-integer costs."""
    return int(math.floor(round(c) if abs(c - round(c)) <= INTEGER_SNAP else c))


# -- constructors -------------------------------------------------------

def finite_list(costs, label="") -> CostSpec:
    """Finite alphabet from an iterable of positive costs, sorted; `CostSpec`
    rescales them, and the label keeps the given costs, each in its shortest
    round-trip form, so it parses back to the same spec."""
    tup = tuple(sorted(float(c) for c in costs))
    if not label:
        label = "finite:" + ",".join(repr(c).removesuffix(".0") for c in tup)
    return CostSpec(costs=tup, label=label)


def custom_profile(prefix, tail="zero", label="") -> CostSpec:
    """d_1..d_J, then nothing (tail "zero") or d_J at every level (tail "repeat").

    Each d_j must be an integer >= 0, as an int or a float."""
    prefix = tuple(prefix)
    # d % 1 rather than int(d), which raises on inf; inf % 1 is nan.
    if not prefix or not all(d >= 0 and d % 1 == 0 for d in prefix):
        raise CostSpecError("profile coefficients must be integers >= 0")
    prefix = tuple(int(d) for d in prefix)
    if tail not in ("zero", "repeat"):
        raise CostSpecError(f"unknown profile tail rule {tail!r}")
    fam = CustomProfileFamily(prefix, prefix[-1] if tail == "repeat" else 0)
    if not label:
        label = "profile:" + ",".join(str(d) for d in fam.prefix)
    return CostSpec(family=fam, label=label)


# ---------------------------------------------------------------------------
# DSL
# ---------------------------------------------------------------------------

_NAMED_SPECS = {
    "telegraph": lambda: finite_list((1.0, 2.0), label="telegraph"),
    "linear": lambda: CostSpec(family=CustomProfileFamily((), 1), label="linear"),
    "fib": lambda: CostSpec(family=FibonacciFamily(), label="fib"),
    "balanced": lambda: CostSpec(family=BalancedWordsFamily(), label="balanced"),
}


def parse_cost_spec(text: str) -> CostSpec:
    """Parse the cost DSL used by the CLI.

    Grammar:
        finite:c1,c2,...      explicit costs, rescaled by CostSpec so
                              the cheapest costs 1
        rll:a,b               costs a, a+1, ..., b, rescaled the same way; at
                              most 100 000 letters (_RLL_MAX_LETTERS)
        telegraph             shorthand for finite:1,2
        linear                one letter of each integer cost
        repeat:d              d letters of each integer cost
        fib                   Fibonacci multiplicities
        balanced              balanced-word multiplicities
        profile:d1,d2,...[;tail=zero|repeat]
    """
    s = text.strip()
    if not s:
        raise CostSpecError("empty cost spec")
    head, sep, rest = s.partition(":")
    head = head.strip().lower()

    if head == "finite":
        return finite_list(_parse_floats(rest, "finite"), label=s)

    if head == "rll":
        parts = _parse_floats(rest, "rll")
        if len(parts) != 2 or any(p != int(p) for p in parts):
            raise CostSpecError("rll takes two integers: rll:a,b")
        a, b = (int(p) for p in parts)
        if a < 1 or b < a + 1:
            raise CostSpecError("rll needs 1 <= a < b")
        if b - a + 1 > _RLL_MAX_LETTERS:
            raise CostSpecError(f"rll takes at most {_RLL_MAX_LETTERS} letters")
        return finite_list(range(a, b + 1), label=s)

    if head in _NAMED_SPECS:
        if sep:
            raise CostSpecError(f"{head} takes no parameters")
        return _NAMED_SPECS[head]()

    if head == "repeat":
        parts = _parse_floats(rest, "repeat")
        if len(parts) != 1 or parts[0] != int(parts[0]):
            raise CostSpecError("repeat takes one integer: repeat:d")
        d = int(parts[0])
        if d < 1:
            raise CostSpecError("repeat multiplicity must be >= 1")
        return CostSpec(family=CustomProfileFamily((), d), label=f"repeat:{d}")

    if head == "profile":
        pieces = [p.strip() for p in rest.split(";") if p.strip()]
        if not pieces:
            raise CostSpecError("profile needs coefficients")
        coeffs = _parse_floats(pieces[0], "profile")
        tail = "zero"
        for opt in pieces[1:]:
            key, _, val = opt.partition("=")
            key = key.strip().lower()
            if key != "tail":
                raise CostSpecError(f"unknown profile option {key!r}")
            tail = val.strip().lower()
        return custom_profile(coeffs, tail=tail, label=s)

    raise CostSpecError(f"unknown cost spec {text!r}")


def _parse_floats(text: str, what: str) -> list[float]:
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            raise CostSpecError(f"malformed {what} parameter list {text!r}")
        try:
            value = float(piece)
        except ValueError as exc:
            raise CostSpecError(f"bad number {piece!r} in {what} spec") from exc
        if not math.isfinite(value):
            raise CostSpecError(f"{what} spec holds a non-finite number {piece!r}")
        out.append(value)
    return out


# ---------------------------------------------------------------------------
# characteristic root
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CharRoot:
    """Characteristic root c with its certificate.

    `tolerance` bounds |value - true root|, 4 ulps or 1e-15 for a closed form;
    `residual` is the measured |S(value) - 1|.  `beta` and `tail_convergent`
    are evaluated at the root, so bound formulas need no second pass.
    """

    value: float
    tolerance: float
    residual: float
    beta: float
    tail_convergent: bool


def char_root(spec: CostSpec) -> CharRoot:
    """Solve 1 = sum_i 2^(-c*c_i) for c > 0: the built-in profile families
    have exact algebraic roots, and `solve_root` finds the others.  A finite
    list is in units of its cheapest letter, as every `CostSpec` holds it."""
    closed = spec.family.closed_root() if spec.family is not None else None
    value = solve_root(spec) if closed is None else closed
    tolerance = 4.0 * math.ulp(value) if closed is None else 1e-15

    return CharRoot(
        value=value,
        tolerance=tolerance,
        residual=abs(spec.char_sum(value) - 1.0),
        beta=_beta_value(spec, value),
        tail_convergent=math.isfinite(spec.weighted_sum(value)),
    )


def solve_root(spec: CostSpec) -> float:
    """The root of S(c) = 1 for a finite list or a custom profile: Newton on
    the convex, decreasing phi(c) = log2 sum_{i>1} 2^(-c c_i)
    - log2(1 - 2^(-c c_1)).  The cheapest term is an expm1, and the others are
    summed scaled by 2^(c c_2), a level's letters as one term and a repeating
    tail in closed form, so phi stays in range for any cost ratio or count
    and subtracts no nearly equal sums.  Bisection in log2 c narrows a bracket
    to a factor 2; Newton then climbs from below to a step under 1e-8 c."""
    fam = spec.family
    levels = ([(ci, 1) for ci in spec.costs] if fam is None else
              [(float(j), d) for j, d in enumerate(fam.prefix, start=1) if d])
    c1 = levels[0][0]
    dearer = [(ci, d) for ci, d in [(c1, levels[0][1] - 1)] + levels[1:] if d]
    # a repeating profile's levels from `start` on hold tail_d letters each
    start, tail_d = (len(fam.prefix) + 1, fam.tail_d) if fam else (0, 0)
    c2 = dearer[0][0] if dearer else start  # the second letter's cost
    counts, gaps = [d for _, d in dearer], [ci - c2 for ci, _ in dearer]
    ln2 = math.log(2.0)

    def phi(c):  # phi(c) and phi'(c)
        ws = [d * 2.0 ** (-c * g) for d, g in zip(counts, gaps)]
        r, rg = sum(ws), math.fsum(map(operator.mul, ws, gaps))
        if tail_d:  # the levels c_2 + m + k, k >= 0; q = 1 - 2^-c
            q, m = -math.expm1(-c * ln2), start - c2
            y = tail_d * 2.0 ** (-c * m) / q
            r, rg = r + y, rg + y * (m + 2.0 ** -c / q)
        head = -math.expm1(-c * c1 * ln2)  # 1 - 2^(-c c_1)
        return (math.log2(r) - c * c2 - math.log2(head),
                -c2 - rg / r - c1 * 2.0 ** (-c * c1) / head)

    # Jensen on the two cheapest letters puts the root above 2 / (c_1 + c_2);
    # at hi, S <= t 2^(-c c_1), or for a profile K z / (1 - z) with K its
    # largest multiplicity, is at most 1.
    lo = 2.0 / (c1 + c2)
    hi = math.log2(len(spec.costs)) / c1 if fam is None else 1.0 + math.log2(max(fam.prefix))
    while hi > 2.0 * lo:
        mid = math.sqrt(lo) * math.sqrt(hi)
        lo, hi = (mid, hi) if phi(mid)[0] > 0.0 else (lo, mid)
    for _ in range(100):  # each step stays below the root: phi is convex
        value, slope = phi(lo)
        lo -= value / slope
        if abs(value / slope) <= 1e-8 * lo:  # the next step would be below an ulp
            break
    return lo


def _beta_value(spec: CostSpec, c: float) -> float:
    """beta = sup_m 2^(c*c_m) * sum_{i>=m} 2^(-c*c_i).

    Each supremand is summed in ratio form from the top letter down,
    r_m = 1 + r_{m+1} * 2^(-c*(c_{m+1} - c_m)), so no power of 2 can
    overflow or underflow to a zero divisor, however wide the costs spread.
    """
    if spec.costs is not None:
        costs = spec.costs
        best = r = 1.0
        for m in range(len(costs) - 2, -1, -1):
            r = 1.0 + r * 2.0 ** (-c * (costs[m + 1] - costs[m]))
            if r > best:
                best = r
        return best
    fam = spec.family
    z = 2.0 ** (-c)
    # Per level the supremand is largest at the level's first letter, where
    # it is r_j = sum_{l >= j} d_l z^(l-j) = d_j + z * r_{j+1}.
    tail = fam.repeat_tail()
    if spec.is_finite_alphabet:
        top, r = int(spec.max_cost), 0.0
    elif tail is not None:
        # Past level J the ratio is constant.
        top, r = tail[0], tail[1] / (1.0 - z)
    else:
        # d_j reaches K = inf (fib, balanced): the supremum is infinite.
        return fam.max_multiplicity() / (1.0 - z)
    best = r
    for j in range(top, 0, -1):
        d = fam.multiplicity(j)
        r = d + z * r
        if d and r > best:
            best = r
    return best


# ---------------------------------------------------------------------------
# letter table used by the code builder
# ---------------------------------------------------------------------------

class LetterTable:
    """Letter costs and cumulative bin weights at a fixed root.

    costs[m] is c_m (1-based; costs[0] unused) and cum[m] is
    sum_{i<=m} 2^(-c*c_i), the right boundary of bin m as a fraction of the
    parent interval; `t` is the exact letter count, 0 for an infinite
    alphabet.  A profile's table grows as the builder asks for deeper bins, a
    level at a time: multiplicity(j) up to a repeating tail (or until all t
    letters are in), then tail_d letters per level.  It holds numbers, lists,
    arrays and the family, but no generator, so it pickles mid-walk.  Each
    cum entry adds one letter's weight to the one before it, so its bits do
    not depend on how it grew.
    """

    def __init__(self, spec: CostSpec, c: float):
        self.c = c
        self.costs = [0.0]
        self.cum = [0.0]
        self._family = fam = spec.family
        self._level = self._left = 0  # a level, and its letters not yet added
        # Set once adding a letter's weight leaves cum[-1] unchanged: weights
        # only fall with the level and a sum rounds monotonically, so every
        # later entry equals cum[-1] too.  Only a repeating profile checks:
        # its tail is the one the table can then add in closed form.
        self._flat = False
        self._arrays = (np.empty(0), np.empty(0))
        if fam is None:
            self.t = len(spec.costs)
            self._prefix, self._tail_d = 0, 0
            acc = 0.0
            for ci in spec.costs:
                acc += 2.0 ** (-c * ci)
                self.costs.append(ci)
                self.cum.append(acc)
        else:
            total = fam.total_letters()
            self.t = 0 if total == math.inf else total
            # Levels up to _prefix come from multiplicity(j); every level
            # past it holds _tail_d letters, and none when that is 0.
            self._prefix, self._tail_d = fam.repeat_tail() or (_MAX_LEVEL, 0)

    def ensure(self, m: int) -> None:
        """Extend the table so letter m is materialized."""
        costs, cum = self.costs, self.cum
        while len(costs) <= m:
            if self._left == 0:
                if 0 < self.t < len(costs):
                    raise CostSpecError("letter index beyond alphabet")
                if self._level < self._prefix:
                    self._level += 1
                    self._left = self._family.multiplicity(self._level)
                    continue
                if not self._tail_d:
                    raise CostSpecError("letter index beyond alphabet")
                if self._flat and m + 1 - len(costs) > self._tail_d:
                    # Letter m lies past the next level.
                    self._extend_flat_tail(m)
                    return
                self._level += 1
                self._left = self._tail_d
                if self._level > _MAX_LEVEL:
                    raise CostSpecError("letter index beyond alphabet")
            cost = float(self._level)
            w = 2.0 ** (-self.c * cost)
            batch = min(self._left, m + 1 - len(costs))
            acc = cum[-1]
            for _ in range(batch):
                acc += w
                costs.append(cost)
                cum.append(acc)
            self._left -= batch
            if self._tail_d:
                self._flat = acc + w == acc

    def _extend_flat_tail(self, m: int) -> None:
        """Add letters through m in closed form, past a repeating profile's
        prefix and once cum is flat: whole levels of d letters."""
        d = self._tail_d
        need = m + 1 - len(self.costs)
        opened = -(-need // d)  # levels through the one holding letter m
        top = self._level + opened
        if top > _MAX_LEVEL:
            raise CostSpecError("letter index beyond alphabet")
        levels = np.arange(self._level + 1, top + 1, dtype=np.float64)
        self.costs.extend(levels.repeat(d)[:need].tolist())
        self.cum.extend([self.cum[-1]] * need)
        self._level = top
        self._left = opened * d - need

    def arrays(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """(costs, cum) as float64 arrays holding at least letters 0..m; the
        copy is kept, and only the letters added since are converted when
        the table grows."""
        self.ensure(m)
        have = len(self._arrays[0])
        if have != len(self.costs):
            self._arrays = tuple(np.concatenate((x, y[have:]))
                                 for x, y in zip(self._arrays, (self.costs, self.cum)))
        return self._arrays
