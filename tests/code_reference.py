"""Reference readers of built codes and roots, for the tests.

Each takes the plainest route to what it reports: a parent walk per
codeword, a sorted scan for prefixes, a merge heap for equal letter costs,
the split itself in exact rationals, the characteristic root at 60 digits,
a stable sort with three-pass long-double sums for the prepared input, the
split kernel rerun per node for the trace, and the repeat family that
`linear` and `repeat:d` were built on before they became custom profiles
with an empty prefix.
The program computes none of these itself; the tests hold its outputs
against them.
"""

import heapq
import math
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from varncode import CostSpecError, ProbInputError
from varncode.coder import _SUM_TOL, ProbInput, _split
from varncode.costs import CostSpec, ProfileFamily


def verify_prefix_free(words) -> bool:
    """True iff no word is a prefix of another (duplicates also fail).

    Words are sequences of letter indices.  Sorting makes any prefix pair
    adjacent, so one linear scan suffices.
    """
    ws = sorted(tuple(w) for w in words)
    for a, b in zip(ws, ws[1:]):
        if b[:len(a)] == a:
            return False
    return True


def kraft_sum(tree) -> float:
    """sum_k 2^(-c * cost of codeword k); at most 1 for any prefix-free code."""
    return float(np.sum(np.exp2(-tree.root.value * tree.leaf_costs)))


def _leaf(tree, original_index) -> int:
    """The leaf node that encodes symbol original_index."""
    (slot,) = np.flatnonzero(tree.input.perm == original_index)
    return int(tree._leaf_node[slot])


def codeword_letters(tree, original_index) -> tuple[int, ...]:
    """Symbol original_index's codeword, walked from its leaf up to the root."""
    v = _leaf(tree, original_index)
    letters = []
    while v:  # only the root, node 0, has no parent
        letters.append(tree.letter_of(v))
        v = tree.parent_of(v)
    return tuple(reversed(letters))


def codeword_cost(tree, original_index) -> float:
    return float(tree._word_cost[_leaf(tree, original_index)])


def reference_prepare(probs, normalize: bool = False) -> ProbInput:
    """`prepare` as one stable argsort, a list for each exact sum, and the
    midpoints from a shifted copy of the long-double prefix sums."""
    a = np.array(probs, dtype=np.float64, copy=True)
    if a.ndim != 1 or a.size == 0:
        raise ProbInputError("probabilities must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise ProbInputError("probabilities must be finite")
    if np.any(a < 0.0):
        raise ProbInputError("probabilities must be nonnegative")
    try:
        total = math.fsum(a.tolist())
    except OverflowError:
        if not normalize:
            raise ProbInputError("probabilities sum beyond the float range") from None
        a = a / a.max()
        total = math.fsum(a.tolist())
    if total <= 0.0:
        raise ProbInputError("probabilities sum to zero")
    if normalize:
        a = a / total
    elif abs(total - 1.0) > _SUM_TOL:
        raise ProbInputError(f"probabilities sum to {total!r}; pass normalize=True to rescale")
    order = np.argsort(-a, kind="stable")
    sorted_p = a[order]
    ld = sorted_p.astype(np.longdouble)
    csum = np.cumsum(ld)
    prefix = np.empty(a.size + 1, dtype=np.float64)
    prefix[0] = 0.0
    prefix[1:] = csum.astype(np.float64)
    shifted = np.empty_like(csum)
    shifted[0] = 0.0
    shifted[1:] = csum[:-1]
    mid = (shifted + 0.5 * ld).astype(np.float64)
    return ProbInput(probs=sorted_p, prefix=prefix, mid=mid,
                     perm=order.astype(np.int64))


def assert_same_prepared(got: ProbInput, want: ProbInput) -> None:
    """Every array field equal in dtype and bytes."""
    for field in ("perm", "probs", "prefix", "mid"):
        x, y = getattr(got, field), getattr(want, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field


def tree_dict(tree) -> dict:
    """The nested {letter_index, children | leaf_index} form of the tree,
    leaf_index the original symbol index: what `to_json` writes."""
    perm = tree.input.perm.tolist()
    nodes = []
    for v in range(tree.num_nodes):
        d = {"letter_index": tree.letter_of(v)}
        if tree.is_leaf(v):
            d["leaf_index"] = perm[tree._first[v]]
        else:
            d["children"] = []
        nodes.append(d)
    for v in range(1, tree.num_nodes):
        nodes[tree.parent_of(v)]["children"].append(nodes[v])
    for d in nodes:
        if "children" in d:
            d["children"].sort(key=lambda ch: ch["letter_index"])
    return nodes[0]


def reference_split_trace(tree) -> list[dict]:
    """Every split of a built tree as one record per split node, with one
    dict per bin, from `_split` rerun over each node on the tree's own
    LetterTable: the form `split_trace` returned before it read columns off
    the stored tree."""
    pin = tree.input
    P, s = pin.prefix.tolist(), pin.mid.tolist()
    table = tree._table

    records = []
    for v, (l, r) in enumerate(zip(tree._first.tolist(), tree._last.tolist())):
        if l == r:  # a leaf, or the root of a one-symbol input
            continue
        L = P[l]
        w = P[r + 1] - L
        ranges, stole, rshift = _split(l, r, L, w, s, table.cum, table.t)
        bins = []
        for a, b, m in ranges:
            lo = L + w * table.cum[m - 1]
            hi = L + w * table.cum[m]
            e = bisect_left(s, lo, l, r + 1)
            f = bisect_left(s, hi, l, r + 1) - 1
            bins.append({
                "letter": m,
                "lo": lo,
                "hi": hi,
                "initial": [e, f] if f >= e else None,
                "final": [a, b],
                "initial_weight": P[f + 1] - P[e] if f >= e else 0.0,
                "final_weight": P[b + 1] - P[a],
            })
        records.append({
            "node": v,
            "range": [l, r],
            "interval": [L, P[r + 1]],
            "weight": w,
            "left_shifted": stole,
            "right_shifted": rshift,
            "right_shift_index": r if rshift else None,
            "bins": bins,
        })
    return records


SPLIT_COLUMNS = ("node", "first", "last", "interval_lo", "interval_hi",
                 "left_shifted", "right_shifted", "bins")
BIN_COLUMNS = ("letter", "lo", "hi", "initial_first", "initial_last", "final_first",
               "final_last", "initial_weight", "final_weight")


def trace_records(columns) -> list[dict]:
    """`reference_split_trace`'s records rebuilt from `split_trace` columns,
    numpy arrays or the JSON lists `code --trace` prints.  Each split's
    weight is interval_hi - interval_lo, the float subtraction the split
    read, and a right-shifted split moved its last slot."""
    split, bin_ = ({k: np.asarray(x).tolist() for k, x in columns[part].items()}
                   for part in ("split", "bin"))
    assert set(split) == set(SPLIT_COLUMNS) and set(bin_) == set(BIN_COLUMNS)
    bins = [{"letter": m, "lo": lo, "hi": hi,
             "initial": [e, f] if f >= e else None, "final": [a, b],
             "initial_weight": iw, "final_weight": fw}
            for m, lo, hi, e, f, a, b, iw, fw in zip(*(bin_[k] for k in BIN_COLUMNS))]
    records, at = [], 0
    for v, l, r, lo, hi, left, right, k in zip(*(split[k] for k in SPLIT_COLUMNS)):
        records.append({"node": v, "range": [l, r], "interval": [lo, hi],
                        "weight": hi - lo, "left_shifted": left, "right_shifted": right,
                        "right_shift_index": r if right else None,
                        "bins": bins[at:at + k]})
        at += k
    assert at == len(bins)
    return records


def exact_split_costs(tree) -> list[float]:
    """Each sorted slot's codeword cost under the same split rule the build
    runs, with every sum, midpoint and bin end an exact rational over the
    tree's own float probabilities and letter weights, so no bin collapses.
    A word's cost adds the table's float letter costs, root first, as the
    build does, so a slot whose path matches gets the same bits."""
    table = tree._table
    t = int(tree.spec.alphabet_size) if tree.spec.is_finite_alphabet else 0
    probs = [Fraction(p) for p in tree.input.probs.tolist()]
    P = [Fraction(0)]
    for p in probs:
        P.append(P[-1] + p)
    s = [P[k] + p / 2 for k, p in enumerate(probs)]
    W = [Fraction(0)]  # exact cumulative letter weights

    def letter(m):
        while len(W) <= m:
            table.ensure(len(W))
            W.append(W[-1] + Fraction(2.0 ** (-table.c * table.costs[len(W)])))
        return W[m]

    costs = [table.costs[1]] * len(probs)  # a one-symbol input's one letter
    stack = [(0, len(probs) - 1, 0.0)] if len(probs) > 1 else []
    while stack:
        l, r, wc = stack.pop()
        kids, k, m = [], l, 0
        while k <= r:
            m += 1
            bin_end = P[l] + (P[r + 1] - P[l]) * letter(m)
            j = r if m == t else max(bisect_left(s, bin_end, k, r + 1) - 1, k)
            kids.append((k, j, m))
            k = j + 1
        if len(kids) == 1:  # everything fell in bin 1
            letter(2)
            kids = [(l, r - 1, 1), (r, r, 2)]
        for a, b, m in kids:
            if a == b:
                costs[a] = wc + table.costs[m]
            else:
                stack.append((a, b, wc + table.costs[m]))
    return costs


def huffman_equal_cost(pinput, t: int) -> float:
    """Optimal expected depth for t equal-cost letters (classic merging).

    Pads with zero-probability symbols so every merge takes exactly t nodes;
    a single symbol costs 1.0 (one letter).
    """
    if t < 2:
        raise ValueError("need at least 2 letters")
    n = pinput.n
    if n == 1:
        return 1.0
    pad = (-(n - 1)) % (t - 1)
    heap = pinput.probs.tolist() + [0.0] * pad
    heapq.heapify(heap)
    total = 0.0
    while len(heap) > 1:
        merged = math.fsum(heapq.heappop(heap) for _ in range(t))
        total += merged
        heapq.heappush(heap, merged)
    return total


class RepeatFamily(ProfileFamily):
    """d copies of every integer cost: d_j = d (d = 1 is `linear`).

    The class the package once used for `linear` and `repeat:d`, kept as the
    reference that the empty-prefix custom profile must match bit for bit.
    """

    def __init__(self, d: int):
        if d < 1:
            raise CostSpecError("repeat multiplicity must be >= 1")
        self.d = int(d)

    def multiplicity(self, j):
        return self.d

    def repeat_tail(self):
        return 0, self.d

    def char_sum_z(self, z):
        if z >= 1.0:
            return math.inf
        return self.d * z / (1.0 - z)

    def weighted_sum_z(self, z, above=0):
        if z >= 1.0:
            return math.inf
        m = above  # sum_{j > m} j z^j in closed form
        return self.d * (z ** (m + 1) * ((m + 1) - m * z) / (1.0 - z) ** 2)

    def closed_root(self):
        # d*z/(1-z) = 1 at z = 1/(d+1).
        return math.log2(self.d + 1)

    def max_multiplicity(self):
        return float(self.d)


def reference_repeat(d: int, label: str) -> CostSpec:
    return CostSpec(family=RepeatFamily(d), label=label)


def repeat_table(d: int, c: float, letters: int) -> tuple[np.ndarray, np.ndarray]:
    """(costs, cum) of `repeat:d` through `letters` from the definition:
    letter m costs ceil(m / d) and cum[m] = cum[m-1] + 2^(-c*c_m)."""
    costs, cum = [0.0], [0.0]
    for m in range(1, letters + 1):
        costs.append(float(-(-m // d)))
        cum.append(cum[-1] + 2.0 ** (-c * costs[-1]))
    return np.array(costs), np.array(cum)


def excess_60_digits(spec, mpmath):
    """g(c) = S(c) - 1 at 60 digits.

    `spec` is a finite list, whose cheapest term goes through expm1 so that g
    resolves a root far below an ulp of 1, or a custom profile, whose
    repeating tail is summed in closed form.
    """
    mpmath.mp.dps = 60
    ln2 = mpmath.log(2)
    if spec.costs is not None:
        costs = spec.costs

        def g(c):
            return mpmath.expm1(-c * costs[0] * ln2) + mpmath.fsum(
                mpmath.power(2, -c * ci) for ci in costs[1:])
    else:
        fam = spec.family

        def g(c):
            z = mpmath.power(2, -c)
            s = mpmath.fsum(d * z ** j for j, d in enumerate(fam.prefix, start=1) if d) - 1
            if fam.tail_d:  # 1 - z as expm1, which stays nonzero as c -> 0
                s += fam.tail_d * z ** (len(fam.prefix) + 1) / -mpmath.expm1(-c * ln2)
            return s
    return g


def root_60_digits(spec, mpmath):
    """The root of S(c) = 1 bisected in log c at 60 digits, and g(c) = S(c) - 1."""
    g = excess_60_digits(spec, mpmath)
    lo, hi = mpmath.mpf(10) ** -320, mpmath.mpf(2048)
    while hi / lo - 1 > mpmath.mpf(10) ** -50:
        mid = mpmath.sqrt(lo * hi)
        lo, hi = (mid, hi) if g(mid) > 0 else (lo, mid)
    return hi, g
