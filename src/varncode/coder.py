"""Code construction by recursive probability splitting.

The builder sorts the probabilities, then recursively partitions each
contiguous block among the letters: letter m receives a sub-interval whose
width is the fraction 2^(-c*c_m) of the block, and a probability lands in the
bin containing its midpoint s_k = P_(k-1) + p_k/2.  Two local fixups keep the
recursion honest: an empty bin steals the next item (left shift), and when
everything falls in bin 1 the last item moves to bin 2 (right shift) so every
internal node branches.  Bins are materialized lazily, so infinite alphabets
cost nothing extra.
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


@dataclass(frozen=True)
class BinTrace:
    """One bin of one split: boundaries, initial occupants, final occupants."""

    index: int
    lo: float
    hi: float
    initial: tuple[int, int] | None
    final: tuple[int, int]
    initial_weight: float
    final_weight: float


@dataclass(frozen=True)
class NodeTrace:
    """One split event: the block [first, last] divided at node `node`."""

    node: int
    first: int
    last: int
    lo: float
    hi: float
    weight: float
    bins: tuple[BinTrace, ...]
    left_shifted: bool
    right_shifted: bool
    right_shift_index: int | None


@dataclass
class SplitTrace:
    events: list[NodeTrace]

    def total_bins(self) -> int:
        return sum(len(e.bins) for e in self.events)

    def right_shift_indices(self) -> list[int]:
        return [
            e.right_shift_index for e in self.events if e.right_shift_index is not None
        ]


class CodeTree:
    """Built prefix-free code in compact array form.

    Nodes are indexed 0..num_nodes-1 with the root at 0; parents precede
    children.  Leaves carry the sorted probability slot they encode; edge
    letters are 1-based letter indices (0 on the root).
    """

    def __init__(self, spec, root, pinput, parent, letter, weight, leaf,
                 word_cost, child_count, leaf_node, letter_costs, trace=None):
        self.spec: CostSpec = spec
        self.root: CharRoot = root
        self.input: ProbInput = pinput
        self._parent = parent
        self._letter = letter
        self._weight = weight
        self._leaf = leaf
        self._word_cost = word_cost
        self._child_count = child_count
        self._leaf_node = np.asarray(leaf_node, dtype=np.int64)
        self._letter_costs = letter_costs
        self.trace: SplitTrace | None = trace
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
        return self._parent[v]

    def letter_of(self, v: int) -> int:
        return self._letter[v]

    def is_leaf(self, v: int) -> bool:
        return self._leaf[v] >= 0

    def sum_branching(self) -> int:
        """Total number of children over all internal nodes."""
        return int(np.frombuffer(self._child_count, dtype=np.int64).sum())

    # -- codewords -------------------------------------------------------

    @property
    def leaf_costs(self) -> np.ndarray:
        """Codeword cost per sorted slot."""
        wc = np.frombuffer(self._word_cost, dtype=np.float64)
        return wc[self._leaf_node]

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
        parent = self._parent
        letter = self._letter
        while parent[v] >= 0:
            letters.append(letter[v])
            v = parent[v]
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
        costs = np.frombuffer(self._word_cost, dtype=np.float64)[nodes].tolist()
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
        letters = np.frombuffer(self._letter, dtype=np.int64)
        weights = np.frombuffer(self._weight, dtype=np.float64)
        lc = np.asarray(self._letter_costs, dtype=np.float64)
        return float(np.dot(lc[letters], weights))

    def entropy_decomposition(self) -> float:
        """H(p) recomputed as the weighted sum of per-split child entropies."""
        weights = np.frombuffer(self._weight, dtype=np.float64)
        parents = np.frombuffer(self._parent, dtype=np.int64)
        w = weights[1:]
        pw = weights[parents[1:]]
        mask = w > 0.0
        w = w[mask]
        pw = pw[mask]
        return float(np.sum(-w * np.log2(w / pw)))

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        """Nested {letter_index, children | leaf_index} form of the tree."""
        N = self.num_nodes
        parent = self._parent
        letter = self._letter
        leaf = self._leaf
        perm = self.input.perm
        nodes = []
        for v in range(N):
            d = {"letter_index": int(letter[v])}
            if leaf[v] >= 0:
                d["leaf_index"] = int(perm[leaf[v]])
            else:
                d["children"] = []
            nodes.append(d)
        for v in range(1, N):
            nodes[parent[v]]["children"].append(nodes[v])
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
        parent = self._parent
        depth = array("q", bytes(8 * self.num_nodes))
        best = 0
        for v in range(1, self.num_nodes):
            d = depth[parent[v]] + 1
            depth[v] = d
            if d > best:
                best = d
        return best

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


def build_code(pinput: ProbInput, spec: CostSpec, root: CharRoot,
               trace: bool = False) -> CodeTree:
    """Build a prefix-free code tree for sorted probabilities.

    Returns a CodeTree; when `trace` is set the tree's `.trace` records every
    split (bin boundaries, initial and final bin contents, shift flags).
    Tracing is meant for audits at moderate n; the plain build allocates no
    per-bin records.
    """
    n = pinput.n
    c = root.value
    table = LetterTable(spec, c)
    lcosts = table.costs
    cum = table.cum
    ensure = table.ensure
    finite_t = int(spec.alphabet_size) if spec.is_finite_alphabet else 0

    parent = array("q")
    letter = array("q")
    weight = array("d")
    leaf = array("q")
    word_cost = array("d")
    child_count = array("q")
    leaf_node = [0] * n
    events = [] if trace else None

    probs = pinput.probs.tolist()
    P = pinput.prefix.tolist()
    s = pinput.mid.tolist()

    if n == 1:
        ensure(1)
        parent.append(-1); letter.append(0); weight.append(probs[0])
        leaf.append(-1); word_cost.append(0.0); child_count.append(1)
        parent.append(0); letter.append(1); weight.append(probs[0])
        leaf.append(0); word_cost.append(lcosts[1]); child_count.append(0)
        leaf_node[0] = 1
        return CodeTree(spec, root, pinput, parent, letter, weight, leaf,
                        word_cost, child_count, leaf_node, lcosts,
                        trace=SplitTrace([]) if trace else None)

    stack = [(0, n - 1, -1, 0)]
    while stack:
        l, r, par, let = stack.pop()
        v = len(parent)
        parent.append(par)
        letter.append(let)
        if let:
            word_cost.append(word_cost[par] + lcosts[let])
            child_count[par] += 1
        else:
            word_cost.append(0.0)
        child_count.append(0)
        L = P[l]
        w = P[r + 1] - L
        weight.append(w)
        leaf.append(-1)

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

        rshift = False
        if len(ranges) == 1:
            # Everything fell in bin 1: move the last item to bin 2 so the
            # node branches.
            if 2 >= len(cum):
                ensure(2)
            ranges = [(l, r - 1, 1), (r, r, 2)]
            rshift = True

        if events is not None:
            bins = []
            for a, b, mm in ranges:
                lo_m = L + w * cum[mm - 1]
                hi_m = L + w * cum[mm]
                e = bisect_left(s, lo_m, l, r + 1)
                f = bisect_left(s, hi_m, l, r + 1) - 1
                initial = (e, f) if f >= e else None
                bins.append(BinTrace(
                    index=mm,
                    lo=lo_m,
                    hi=hi_m,
                    initial=initial,
                    final=(a, b),
                    initial_weight=(P[f + 1] - P[e]) if initial else 0.0,
                    final_weight=P[b + 1] - P[a],
                ))
            events.append(NodeTrace(
                node=v,
                first=l,
                last=r,
                lo=L,
                hi=P[r + 1],
                weight=w,
                bins=tuple(bins),
                left_shifted=stole,
                right_shifted=rshift,
                right_shift_index=r if rshift else None,
            ))

        for a, b, mm in reversed(ranges):
            if a == b:
                u = len(parent)
                parent.append(v)
                letter.append(mm)
                word_cost.append(word_cost[v] + lcosts[mm])
                child_count[v] += 1
                child_count.append(0)
                weight.append(probs[a])
                leaf.append(a)
                leaf_node[a] = u
            else:
                stack.append((a, b, v, mm))

    return CodeTree(spec, root, pinput, parent, letter, weight, leaf,
                    word_cost, child_count, leaf_node, lcosts,
                    trace=SplitTrace(events) if trace else None)


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
