"""Code construction by recursive probability splitting.

The builder sorts the probabilities, then recursively partitions each
contiguous block among the letters: letter m receives a sub-interval whose
width is the fraction 2^(-c*c_m) of the block, and a probability lands in the
bin containing its midpoint s_k = P_(k-1) + p_k/2.  Two local fixups keep the
recursion honest: an empty bin steals the next item (left shift), and when
everything falls in bin 1 the last item moves to bin 2 (right shift) so every
internal node branches.  Bins are materialized lazily, so infinite alphabets
cost nothing extra.

That per-block rule is one kernel, `_split`: `build_code` calls it to grow
the tree, and `split_trace` calls it again over a finished tree's internal
nodes to report each split's bins and shifts.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .costs import CharRoot, CostSpec, LetterTable
from .errors import BinUnderflowError, ProbInputError

_SUM_TOL = 1e-9


@dataclass(eq=False)
class ProbInput:
    """Sorted probabilities with prefix sums and split midpoints.

    probs is descending; perm[k] is the original index of sorted slot k.
    prefix has length n+1 with prefix[k] = p_0 + ... + p_(k-1); mid[k] is the
    midpoint prefix[k] + probs[k]/2 that decides bin membership.
    """

    probs: np.ndarray
    prefix: np.ndarray
    mid: np.ndarray
    perm: np.ndarray
    total: float

    @property
    def n(self) -> int:
        return int(self.probs.shape[0])

    @property
    def p1(self) -> float:
        return float(self.probs[0])

    @property
    def pn(self) -> float:
        return float(self.probs[-1])


def prepare(probs, normalize: bool = False) -> ProbInput:
    """Validate, optionally rescale, and sort a probability vector.

    Sorting is stable on the original order, so tied probabilities keep their
    relative positions and repeated calls are reproducible.
    """
    a = np.array(probs, dtype=np.float64, copy=True)
    if a.ndim != 1 or a.size == 0:
        raise ProbInputError("probabilities must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise ProbInputError("probabilities must be finite")
    if np.any(a < 0.0):
        raise ProbInputError("probabilities must be nonnegative")
    try:
        total = math.fsum(a.tolist())
    except OverflowError:  # the sum passes the float range
        if not normalize:
            raise ProbInputError("probabilities sum beyond the float range") from None
        a = a / a.max()
        total = math.fsum(a.tolist())
    if total <= 0.0:
        raise ProbInputError("probabilities sum to zero")
    if normalize:
        a = a / total
        total = math.fsum(a.tolist())
    elif abs(total - 1.0) > _SUM_TOL:
        raise ProbInputError(
            f"probabilities sum to {total!r}; pass normalize=True to rescale"
        )
    order = np.argsort(-a, kind="stable")
    sorted_p = a[order]
    # Extended-precision accumulation keeps prefix-sum error near 1e-13 even
    # at n = 10^6, which is what the bin boundaries are computed from.
    ld = sorted_p.astype(np.longdouble)
    csum = np.cumsum(ld)
    prefix = np.empty(a.size + 1, dtype=np.float64)
    prefix[0] = 0.0
    prefix[1:] = csum.astype(np.float64)
    shifted = np.empty_like(csum)
    shifted[0] = 0.0
    shifted[1:] = csum[:-1]
    mid = (shifted + 0.5 * ld).astype(np.float64)
    return ProbInput(
        probs=sorted_p,
        prefix=prefix,
        mid=mid,
        perm=order.astype(np.int64),
        total=total,
    )


class CodeTree:
    """Built prefix-free code in compact array form.

    Nodes are indexed 0..num_nodes-1 with the root at 0; parents precede
    children.  Leaves carry the sorted probability slot they encode; edge
    letters are 1-based letter indices (0 on the root).  The per-node arrays
    are numpy views of the builder's buffers.
    """

    def __init__(self, spec, root, pinput, parent, letter, weight, leaf,
                 word_cost, table):
        self.spec: CostSpec = spec
        self.root: CharRoot = root
        self.input: ProbInput = pinput
        self._parent = np.frombuffer(parent, dtype=np.int64)
        self._letter = np.frombuffer(letter, dtype=np.int64)
        self._weight = np.frombuffer(weight, dtype=np.float64)
        self._leaf = np.frombuffer(leaf, dtype=np.int64)
        self._word_cost = np.frombuffer(word_cost, dtype=np.float64)
        self._table: LetterTable = table
        nodes = np.flatnonzero(self._leaf >= 0)
        self._leaf_node = np.empty(pinput.n, dtype=np.int64)
        self._leaf_node[self._leaf[nodes]] = nodes
        self._cost: float | None = None
        self._iperm: np.ndarray | None = None

    # -- shape ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.input.n

    @property
    def num_nodes(self) -> int:
        return len(self._parent)

    def parent_of(self, v: int) -> int:
        return self._parent.item(v)

    def letter_of(self, v: int) -> int:
        return self._letter.item(v)

    def is_leaf(self, v: int) -> bool:
        return self._leaf.item(v) >= 0

    def sum_branching(self) -> int:
        """Total number of children over all internal nodes: every node but
        the root is exactly one node's child."""
        return self.num_nodes - 1

    # -- codewords -------------------------------------------------------

    @property
    def leaf_costs(self) -> np.ndarray:
        """Codeword cost per sorted slot."""
        return self._word_cost[self._leaf_node]

    def cost(self) -> float:
        """Expected codeword cost C(T)."""
        if self._cost is None:
            self._cost = float(np.dot(self.input.probs, self.leaf_costs))
        return self._cost

    def _sorted_slot(self, original_index: int) -> int:
        n = self.n
        if not 0 <= original_index < n:
            raise ValueError(f"unknown symbol index {original_index}")
        if self._iperm is None:
            inv = np.empty(n, dtype=np.int64)
            inv[self.input.perm] = np.arange(n, dtype=np.int64)
            self._iperm = inv
        return int(self._iperm[original_index])

    def codeword_letters(self, original_index: int) -> tuple[int, ...]:
        v = int(self._leaf_node[self._sorted_slot(original_index)])
        letters = []
        parent = self._parent.item  # .item reads a Python int, no numpy scalar
        letter = self._letter.item
        while v:  # only the root, node 0, has no parent
            letters.append(letter(v))
            v = parent(v)
        letters.reverse()
        return tuple(letters)

    def codeword_cost(self, original_index: int) -> float:
        slot = self._sorted_slot(original_index)
        return float(self._word_cost[self._leaf_node[slot]])

    def _symbol_words(self, piece) -> tuple[list, list[float]]:
        """Every symbol's codeword and cost, in original symbol order.

        piece(m) is letter m's contribution; a word is the sum, parent first,
        of its letters' pieces.  Nodes are stored parents-first, so one fold
        word[v] = word[parent[v]] + piece(letter[v]) builds every node's word.
        """
        letter = self._letter.tolist()
        pieces = [piece(m) for m in range(max(letter) + 1)]
        words = [pieces[0][:0]]  # the root's empty word
        append = words.append
        for p, m in zip(self._parent.tolist()[1:], letter[1:]):
            append(words[p] + pieces[m])
        nodes = np.empty(self.n, dtype=np.int64)
        nodes[self.input.perm] = self._leaf_node
        costs = self._word_cost[nodes].tolist()
        return [words[v] for v in nodes.tolist()], costs

    def codewords(self):
        """Iterate over (original_index, letters, cost) for every symbol."""
        words, costs = self._symbol_words(lambda m: (m,))
        return zip(range(self.n), words, costs)

    def kraft_sum(self) -> float:
        """sum_k 2^(-c * cost of codeword k); at most 1 for any prefix-free code."""
        return float(np.sum(np.exp2(-self.root.value * self.leaf_costs)))

    # -- decomposition identities ---------------------------------------

    def cost_decomposition(self) -> float:
        """C(T) recomputed as sum over non-root nodes of c_letter * weight."""
        lc = np.asarray(self._table.costs, dtype=np.float64)
        return float(np.dot(lc[self._letter], self._weight))

    def entropy_decomposition(self) -> float:
        """H(p) recomputed as the weighted sum of per-split child entropies.

        Each child's share is taken of its siblings' summed weight, not of
        the parent's stored weight, which can round to 0 while the children
        hold subnormal masses.
        """
        parent = self._parent[1:]
        w = self._weight[1:]
        pw = np.bincount(parent, weights=w)[parent]
        mask = w > 0.0
        return float(np.sum(-w[mask] * np.log2(w[mask] / pw[mask])))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Nested {letter_index, children | leaf_index} form of the tree."""
        perm = self.input.perm.tolist()
        nodes = []
        for m, s in zip(self._letter.tolist(), self._leaf.tolist()):
            d = {"letter_index": m}
            if s >= 0:
                d["leaf_index"] = perm[s]
            else:
                d["children"] = []
            nodes.append(d)
        for v, p in enumerate(self._parent.tolist()[1:], start=1):
            nodes[p]["children"].append(nodes[v])
        for d in nodes:
            if "children" in d:
                d["children"].sort(key=lambda ch: ch["letter_index"])
        return nodes[0]

    def codeword_lines(self) -> list[str]:
        """'original_index TAB comma-separated letters TAB cost' per symbol."""
        words, costs = self._symbol_words(lambda m: f",{m}")
        # Each word starts with the comma of its first letter.
        return [f"{i}\t{w[1:]}\t{c!r}" for i, w, c in zip(range(self.n), words, costs)]

    def tree_depth(self) -> int:
        depth = [0] * self.num_nodes
        for v, p in enumerate(self._parent.tolist()[1:], start=1):
            depth[v] = depth[p] + 1
        return max(depth)

    def to_json(self) -> str:
        """to_dict() as compact JSON with sorted keys, written from a stack:
        json.dumps recurses per level and overflows on deep zero-mass chains."""
        letter = self._letter.tolist()
        leaf = self._leaf.tolist()
        perm = self.input.perm.tolist()
        children = [[] for _ in letter]
        for v, p in enumerate(self._parent.tolist()[1:], start=1):
            children[p].append(v)
        parts = []
        stack = [0]
        while stack:
            v = stack.pop()
            if isinstance(v, str):
                parts.append(v)
            elif leaf[v] >= 0:
                parts.append(f'{{"leaf_index":{perm[leaf[v]]},"letter_index":{letter[v]}}}')
            else:
                parts.append('{"children":[')
                stack.append(f'],"letter_index":{letter[v]}}}')
                kids = sorted(children[v], key=letter.__getitem__)
                for k, u in enumerate(reversed(kids)):
                    if k:
                        stack.append(",")
                    stack.append(u)
        return "".join(parts)


def _split(l, r, L, w, s, probs, cum, ensure, finite_t):
    """Divide the sorted block [l, r] with interval [L, L + w) among letters.

    Letter m's bin ends at L + w * cum[m]; slot k lands in the bin holding
    its midpoint s[k].  Returns ([(first, last, m), ...] left to right,
    left_shifted, right_shifted).
    """
    k = l
    m = 0
    ranges = []
    prevR = L
    stole = False
    while k <= r:
        m += 1
        if m >= len(cum):
            ensure(m)
        if m == finite_t:
            # Last letter of a finite alphabet: in exact arithmetic every
            # remaining midpoint lies in this bin; taking them directly
            # also covers float edges and zero-probability tails.
            ranges.append((k, r, m))
            break
        Rm = L + w * cum[m]
        j = bisect_left(s, Rm, k, r + 1) - 1
        if j < k:
            if w > 0.0 and Rm <= prevR and probs[k] > 0.0:
                raise BinUnderflowError(
                    f"bin {m} width underflowed with mass left at slot {k}"
                )
            j = k
            stole = True
        ranges.append((k, j, m))
        prevR = Rm
        k = j + 1

    if len(ranges) == 1:
        # Everything fell in bin 1: move the last item to bin 2 so the
        # node branches.
        if 2 >= len(cum):
            ensure(2)
        return [(l, r - 1, 1), (r, r, 2)], stole, True
    return ranges, stole, False


def build_code(pinput: ProbInput, spec: CostSpec, root: CharRoot) -> CodeTree:
    """Build a prefix-free code tree for sorted probabilities.

    Node ids follow the builder's depth-first stack: a block's node is
    numbered when it is popped, a one-slot child when its parent splits.
    `split_trace(tree)` reports every split of the result.
    """
    n = pinput.n
    table = LetterTable(spec, root.value)
    lcosts = table.costs
    cum = table.cum
    ensure = table.ensure
    finite_t = int(spec.alphabet_size) if spec.is_finite_alphabet else 0

    parent = array("q")
    letter = array("q")
    weight = array("d")
    leaf = array("q")
    word_cost = array("d")

    probs = pinput.probs.tolist()
    P = pinput.prefix.tolist()
    s = pinput.mid.tolist()

    ensure(1)  # a one-symbol input's only letter; every split's first bin
    stack = [(0, n - 1, -1, 0)]
    while stack:
        l, r, par, let = stack.pop()
        v = len(parent)
        parent.append(par)
        letter.append(let)
        word_cost.append(word_cost[par] + lcosts[let] if let else 0.0)
        L = P[l]
        w = P[r + 1] - L
        weight.append(w)
        leaf.append(-1)
        if l < r:
            ranges = _split(l, r, L, w, s, probs, cum, ensure, finite_t)[0]
        else:  # the root of a one-symbol input: its symbol gets letter 1
            ranges = [(l, r, 1)]
        for a, b, m in reversed(ranges):
            if a == b:
                parent.append(v)
                letter.append(m)
                word_cost.append(word_cost[v] + lcosts[m])
                weight.append(probs[a])
                leaf.append(a)
            else:
                stack.append((a, b, v, m))

    return CodeTree(spec, root, pinput, parent, letter, weight, leaf,
                    word_cost, table)


def split_trace(tree: CodeTree) -> list[dict]:
    """Every split of a built tree, in the order the builder made them: the
    `trace` records of `varncode code --trace --format json`.

    Per bin: its bounds [lo, hi), the slots whose midpoints fall inside
    (`initial`, None if none) and the slots the letter received (`final`).
    The kernel reruns on the tree's own LetterTable, so every bound is the
    builder's float.
    """
    pin = tree.input
    probs, P, s = pin.probs.tolist(), pin.prefix.tolist(), pin.mid.tolist()
    table = tree._table
    finite_t = int(tree.spec.alphabet_size) if tree.spec.is_finite_alphabet else 0

    # Slot range of every node: children follow their parent, so one
    # reverse pass folds each subtree into its root.
    parent = tree._parent.tolist()
    leaf = tree._leaf.tolist()
    first = [k if k >= 0 else tree.n for k in leaf]
    last = leaf[:]
    for v in range(len(parent) - 1, 0, -1):
        p = parent[v]
        first[p] = min(first[p], first[v])
        last[p] = max(last[p], last[v])

    records = []
    for v, (l, r) in enumerate(zip(first, last)):
        if l == r:  # a leaf, or the root of a one-symbol input
            continue
        L = P[l]
        w = P[r + 1] - L
        ranges, stole, rshift = _split(l, r, L, w, s, probs, table.cum,
                                       table.ensure, finite_t)
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
