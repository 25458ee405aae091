"""Code construction by recursive probability splitting.

The builder sorts the probabilities, then recursively partitions each
contiguous block among the letters: letter m receives a sub-interval whose
width is the fraction 2^(-c*c_m) of the block, and a probability lands in the
bin containing its midpoint s_k = P_(k-1) + p_k/2.  Two local fixups keep the
recursion honest: an empty bin steals the next item (left shift), and when
everything falls in bin 1 the last item moves to bin 2 (right shift) so every
internal node branches.  A bin whose float width collapsed, because the block
is narrower than an ulp of its left end or the letter's weight no longer moves
the cumulative sum, holds no midpoint and so counts as empty: it steals too,
and `BuildStats.left_shifts` counts those splits.  Bins are materialized
lazily, so infinite alphabets cost nothing extra.

`build_code` grows the tree breadth first, one level at a time, and numbers
the nodes in level order, each node's children in ascending letter order.
The per-block rule is one kernel, `_split`.  A level holding fewer than
`_VECTOR_SLOTS` slots runs it block by block; a larger level splits all its
blocks at once in numpy, with the same floats and so the same nodes.  The
scalar path exists because numpy's per-call overhead dominates small levels:
an n <= 10 build takes a median of 36 us through it and 650 us through numpy.
A level whose blocks all have zero width finishes their chains in closed
form, in one step.  `split_trace` reruns `_split` over a finished tree's
internal nodes to report each split's bins and shifts.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .costs import CharRoot, CostSpec, LetterTable
from .errors import ProbInputError

_SUM_TOL = 1e-9
# From this many symbols up, prepare sorts with numpy's default sort and checks
# for ties, and tests the sum on numpy's sum before taking the exact one.  With
# numpy 2.4 on a 2-core x86-64 VM, the sort took 3.5-4 us against 2 us for the
# stable sort at 8-64 symbols, and 76 us against 256 us at 4096; numpy's sum
# took 2.1 us against 0.4-1.4 us for math.fsum at 8-64, and 3 us against 115
# us at 4096.
_CHECKED_SORT_MIN = 64


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
    relative positions, zero-mass symbols sort last in input order, and
    repeated calls are reproducible.  Input that numpy cannot convert to
    floats raises `ProbInputError`.

    The sort is numpy's default, unstable one, which is several times faster
    than its stable sort at large n.  When the values are distinct only one
    permutation sorts them, so both sorts return it.  Equal values end up
    adjacent whatever the sort, so the vector has a tie exactly when two
    sorted neighbours are equal (0.0 and -0.0 included), and only then is it
    sorted again with the stable sort.  Below `_CHECKED_SORT_MIN` symbols the
    stable sort alone is cheaper than the default sort plus that check, so
    small inputs take it directly.  The sum is tested with math.fsum, unless
    from that size up numpy's sum lies far enough inside the tolerance.
    """
    try:
        a = np.array(probs, dtype=np.float64, copy=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProbInputError(f"probabilities must be real numbers: {exc}") from exc
    if a.ndim != 1 or a.size == 0:
        raise ProbInputError("probabilities must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(a)):
        raise ProbInputError("probabilities must be finite")
    if np.any(a < 0.0):
        raise ProbInputError("probabilities must be nonnegative")
    checked = a.size >= _CHECKED_SORT_MIN
    exact = normalize or not checked
    if not exact:
        # n nonnegative floats added in any order are within (n-1)*2^-53 of
        # their exact sum, relative, and fsum within 2^-53: a sum more than
        # 2n*2^-53 inside the tolerance passes the exact rule too.
        with np.errstate(over="ignore"):
            rough = float(np.add.reduce(a))
        exact = abs(rough - 1.0) > _SUM_TOL - a.size * 2.0 ** -52 * rough
    if exact:
        try:
            total = math.fsum(memoryview(a))
        except OverflowError:  # the sum passes the float range
            if not normalize:
                raise ProbInputError("probabilities sum beyond the float range") from None
            a = a / a.max()
            total = math.fsum(memoryview(a))
        if total <= 0.0:
            raise ProbInputError("probabilities sum to zero")
        if normalize:
            a = a / total
        elif abs(total - 1.0) > _SUM_TOL:
            raise ProbInputError(
                f"probabilities sum to {total!r}; pass normalize=True to rescale"
            )
    order = np.argsort(-a, kind=None if checked else "stable")
    sorted_p = a[order]
    if checked and (sorted_p[1:] == sorted_p[:-1]).any():
        order = np.argsort(-a, kind="stable")
        sorted_p = a[order]
    # Extended-precision accumulation keeps prefix-sum error near 1e-13 even
    # at n = 10^6, which is what the bin boundaries are computed from.
    ld = sorted_p.astype(np.longdouble)
    csum = np.cumsum(ld)
    prefix = np.empty(a.size + 1, dtype=np.float64)
    prefix[0] = 0.0
    prefix[1:] = csum
    ld *= 0.5  # ld[k] becomes mid[k] = prefix[k] + p_k / 2, still in long double
    ld[1:] += csum[:-1]
    mid = ld.astype(np.float64)
    return ProbInput(
        probs=sorted_p,
        prefix=prefix,
        mid=mid,
        perm=order.astype(np.int64),
    )


class CodeTree:
    """Built prefix-free code in compact array form.

    Nodes are indexed 0..num_nodes-1 in level order with the root at 0, each
    node's children in ascending letter order, so parents precede children.
    Every node keeps its block [first, last] of sorted probability slots, as
    the build split it; a leaf is a one-slot node other than the root, and
    encodes that slot.  Edge letters are 1-based letter indices (0 on the
    root).  The per-node arrays are numpy views of the builder's output, and
    `stats` holds the build's counters.
    """

    def __init__(self, spec, root, pinput, parent, letter, first, last, word_cost,
                 table, counts):
        self.spec: CostSpec = spec
        self.root: CharRoot = root
        self.input: ProbInput = pinput
        self._parent = np.frombuffer(parent, dtype=np.int64)
        self._letter = np.frombuffer(letter, dtype=np.int64)
        self._first = np.frombuffer(first, dtype=np.int64)
        self._last = np.frombuffer(last, dtype=np.int64)
        self._word_cost = np.frombuffer(word_cost, dtype=np.float64)
        self._table: LetterTable = table
        self._counts = counts  # depth, left and right shifts, bins evaluated
        # The root of a one-symbol input holds one slot but is internal.
        leaves = np.flatnonzero(self._first[1:] == self._last[1:]) + 1
        self._leaf_node = np.empty(pinput.n, dtype=np.int64)
        self._leaf_node[self._first[leaves]] = leaves
        self._cost: float | None = None

    # -- shape ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.input.n

    @property
    def num_nodes(self) -> int:
        return len(self._parent)

    @property
    def stats(self) -> BuildStats:
        """The build's deterministic counters."""
        depth, left, right, bins = self._counts
        return BuildStats(self.num_nodes, self.num_nodes - self.n, depth, left, right,
                          int(self._letter.max()), bins)

    def parent_of(self, v: int) -> int:
        return self._parent.item(v)

    def letter_of(self, v: int) -> int:
        return self._letter.item(v)

    def is_leaf(self, v: int) -> bool:
        return v > 0 and self._first.item(v) == self._last.item(v)

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

    # -- decomposition identities ---------------------------------------

    def _weights(self) -> np.ndarray:
        """Every node's mass, the float its split read: a one-slot node's
        probability, a larger block's prefix-sum difference."""
        first, last = self._first, self._last
        P = self.input.prefix
        return np.where(first == last, self.input.probs[first], P[last + 1] - P[first])

    def cost_decomposition(self) -> float:
        """C(T) recomputed as sum over non-root nodes of c_letter * weight."""
        lc = np.asarray(self._table.costs, dtype=np.float64)
        return float(np.dot(lc[self._letter], self._weights()))

    def entropy_decomposition(self) -> float:
        """H(p) recomputed as the weighted sum of per-split child entropies.

        Each child's share is taken of its siblings' summed weight, not of
        the parent's weight, which can round to 0 while the children hold
        subnormal masses.
        """
        parent = self._parent[1:]
        w = self._weights()[1:]
        pw = np.bincount(parent, weights=w)[parent]
        mask = w > 0.0
        return float(np.sum(-w[mask] * np.log2(w[mask] / pw[mask])))

    # -- serialization ---------------------------------------------------

    def codeword_lines(self) -> list[str]:
        """'original_index TAB comma-separated letters TAB cost' per symbol."""
        words, costs = self._symbol_words(lambda m: f",{m}")
        # Each word starts with the comma of its first letter.
        return [f"{i}\t{w[1:]}\t{c!r}" for i, w, c in zip(range(self.n), words, costs)]

    def to_json(self) -> str:
        """The tree as nested {letter_index, children | leaf_index} objects,
        leaf_index the original symbol index, in compact JSON with sorted
        keys.  Node v's children are ids kids[v] to kids[v + 1] - 1; a leaf
        has none.  It is written from a stack: json.dumps recurses per level
        and overflows on deep zero-mass chains."""
        letter = self._letter.tolist()
        slot = self.input.perm[self._first].tolist()
        kids = (np.searchsorted(self._parent[1:], np.arange(len(letter) + 1))
                + 1).tolist()
        parts = []
        stack = [0]
        while stack:
            v = stack.pop()
            if isinstance(v, str):
                parts.append(v)
            elif kids[v] == kids[v + 1]:
                parts.append(f'{{"leaf_index":{slot[v]},"letter_index":{letter[v]}}}')
            else:
                parts.append('{"children":[')
                stack.append(f'],"letter_index":{letter[v]}}}')
                for u in range(kids[v + 1] - 1, kids[v], -1):
                    stack.append(u)
                    stack.append(",")
                stack.append(kids[v])
        return "".join(parts)


def _split(l, r, L, w, s, cum, finite_t):
    """Divide the sorted block [l, r] with interval [L, L + w) among letters.

    Letter m's bin ends at L + w * cum[m]; slot k lands in the bin holding
    its midpoint s[k].  Returns ([(first, last, m), ...] left to right,
    left_shifted, right_shifted).  cum must hold every letter it reads.
    """
    k = l
    m = 0
    ranges = []
    stole = False
    while k <= r:
        m += 1
        if m == finite_t:
            # Last letter of a finite alphabet: in exact arithmetic every
            # remaining midpoint lies in this bin; taking them directly
            # also covers float edges and zero-probability tails.
            ranges.append((k, r, m))
            break
        Rm = L + w * cum[m]
        j = bisect_left(s, Rm, k, r + 1) - 1
        if j < k:  # an empty bin, or one whose float width collapsed
            j = k
            stole = True
        ranges.append((k, j, m))
        k = j + 1

    if len(ranges) == 1:
        # Everything fell in bin 1: move the last item to bin 2 so the
        # node branches.
        return [(l, r - 1, 1), (r, r, 2)], stole, True
    return ranges, stole, False


class BuildStats(NamedTuple):
    """Deterministic counters of one build: no timings, the same on every run.

    left_shifts and right_shifts count the splits that took each fixup;
    bins_evaluated counts the bin ends L + w*cum[m] computed, on either split
    path: the build's unit of work, a few per symbol.  A finite alphabet's
    last letter takes the rest of its block, so its bin end is neither
    computed nor counted.
    """

    nodes: int
    internal: int
    max_depth: int
    left_shifts: int
    right_shifts: int
    max_letter: int
    bins_evaluated: int


# A tree level holding fewer slots than this splits its blocks one at a time
# with `_split`: numpy's per-call overhead outweighs the loop there.  Builds
# of n = 2..10 took a median of 36 us with the loop and 650 us (290-1140)
# with numpy on every level, on a 2-core x86-64 VM.
_VECTOR_SLOTS = 64
# Candidate letters per block in a numpy level's first round; a block that
# has not finished tries twice as many letters in the next round.
_FIRST_BATCH = 2


class _Walk:
    """One breadth-first build: the node arrays, the inputs the splits read,
    and the counters.

    A level is its internal blocks left to right, as (first slot, last slot,
    node id, word cost): numpy arrays on the vector path, a list of tuples on
    the scalar path.  Each split appends the block's children, with their
    slot ranges, in letter order, so nodes are numbered in level order.
    Vector levels come first and are kept as one numpy chunk per level; the
    scalar levels below them append to `array` buffers.
    """

    def __init__(self, pinput: ProbInput, table: LetterTable):
        self.pin = pinput
        self.table = table
        # No block reaches letter t > n, so such an alphabet splits like an
        # infinite one, and t stays in numpy's int64 range.
        self.t = table.t if table.t <= pinput.n else 0
        # The scalar path reads Python floats: from lists when it builds the
        # whole tree (they index fastest, about 1 us of an n <= 10 build),
        # else from memoryviews, with no O(n) copy for the few slots below
        # the vector levels.
        data = (pinput.prefix, pinput.mid)
        self.views = ([x.tolist() for x in data] if pinput.n < _VECTOR_SLOTS
                      else [memoryview(x) for x in data])
        # The root, over every slot; every other node is some level's child.
        self.buffers = (array("q", [-1]), array("q", [0]), array("q", [0]),
                        array("q", [pinput.n - 1]), array("d", [0.0]))
        self.chunks = []
        self.base = 0  # nodes in the chunks
        self.depth = self.left_shifts = self.right_shifts = self.bins = 0

    def arrays(self):
        """parent, letter, first and last slot, and word cost of every node:
        the root, then the vector levels' chunks, then the scalar levels."""
        if not self.chunks:
            return self.buffers
        return [np.concatenate((view[:1], *chunks, view[1:]))
                for chunks, view in zip(zip(*self.chunks),
                                        map(np.frombuffer, self.buffers, "qqqqd"))]

    def vector_levels(self, level: list) -> list:
        """Split level after level in numpy while a level holds at least
        `_VECTOR_SLOTS` slots; return the first smaller level as a list.  A
        level's slots are its blocks' sizes, and a child level never holds
        more than its parent."""
        level = tuple(map(np.array, zip(*level)))
        while len(level[0]) and int((level[1] - level[0] + 1).sum()) >= _VECTOR_SLOTS:
            level = self.vector_level(*level)
        return list(zip(*(x.tolist() for x in level)))

    def scalar_levels(self, level: list) -> None:
        """Split the remaining levels block by block with `_split`."""
        P, s = self.views
        t = self.t
        lcosts, cum = self.table.costs, self.table.cum
        parent, letter, first, last, word_cost = self.buffers
        base = self.base
        bins = lefts = rights = depth = 0
        while level:
            nxt = []
            for l, r, v, wc in level:
                if l < r:
                    ranges, stole, rshift = _split(l, r, P[l], P[r + 1] - P[l], s, cum, t)
                    m = 1 if rshift else ranges[-1][2]
                    bins += m - (m == t)
                    lefts += stole
                    rights += rshift
                else:  # the root of a one-symbol input: its symbol gets letter 1
                    ranges = [(l, r, 1)]
                for a, b, m in ranges:
                    c = wc + lcosts[m]
                    if a < b:
                        nxt.append((a, b, base + len(parent), c))
                    parent.append(v)
                    letter.append(m)
                    first.append(a)
                    last.append(b)
                    word_cost.append(c)
            level = nxt
            depth += 1
        self.bins += bins
        self.left_shifts += lefts
        self.right_shifts += rights
        self.depth += depth

    def emit(self, parent, letter, a, b, word_cost):
        """Append a level's children, given as arrays in level order, and
        return the internal ones as the next level."""
        nodes = self.base + len(self.buffers[0])
        ids = np.arange(nodes, nodes + len(a))
        inner = a < b
        self.chunks.append((parent, letter, a, b, word_cost))
        self.base += len(a)
        self.depth += 1
        return a[inner], b[inner], ids[inner], word_cost[inner]

    def vector_level(self, l, r, v, wc):
        """Split every block of the level at once, the way `_split` splits one.

        Round by round, each unfinished block takes its next batch of
        letters: the bin ends, one searchsorted for the last midpoint J_m in
        each bin, and the left shift j_m = max(J_m, j_(m-1) + 1) as a running
        maximum of J_m - m along the batch.  A level of zero-width blocks
        alone finishes in closed form.
        """
        pin, table, t = self.pin, self.table, self.t
        P = pin.prefix
        L = P[l]
        w = P[r + 1] - L
        if not w.any():
            return self.chains(l, r, v, wc)
        rows, letters, firsts, lasts = [], [], [], []
        count = np.zeros(len(l), dtype=np.int64)  # children per block
        jprev = l - 1  # each block's last slot already given to a letter
        stole = np.zeros(len(l), dtype=bool)
        active = np.arange(len(l))
        m0, K = 0, _FIRST_BATCH
        while active.size:
            ra = r[active]
            jp = jprev[active]
            # No block needs more letters than it has slots left.
            K = min(K, int((ra - jp).max()), t - m0 if t else K)
            # A finite alphabet's last letter takes the rest of every block,
            # so its bin end is never computed.
            forced = m0 + K == t
            cum = table.arrays(m0 + K)[1][m0 + 1:m0 + K + 1 - forced]
            R = L[active, None] + w[active, None] * cum
            self.bins += R.size
            J = np.minimum(np.searchsorted(pin.mid, R), ra[:, None] + 1) - 1
            if forced:
                J = np.concatenate((J, ra[:, None]), axis=1)
            col = np.arange(1, K + 1)
            j = col + np.maximum(jp[:, None], np.maximum.accumulate(J - col, axis=1))
            first = np.concatenate((jp[:, None], j[:, :-1]), axis=1) + 1
            done = j >= ra[:, None]
            finished = done[:, -1]
            last = np.where(finished, done.argmax(axis=1) + 1, K)
            # Block i takes letters m0 + 1 .. m0 + last[i], in row-major order.
            valid = col <= last[:, None]
            stole[active[np.flatnonzero(valid & (J < first)) // K]] = True
            rows.append(np.repeat(active, last))
            letters.append(np.tile(m0 + col, (active.size, 1))[valid])
            firsts.append(first[valid])
            lasts.append(j[valid])
            count[active[finished]] = m0 + last[finished]
            more = ~finished
            jprev[active[more]] = j[more, -1]
            active = active[more]
            m0 += K
            K *= 2
        row, m, a, b = (np.concatenate(x) for x in (rows, letters, firsts, lasts))
        # Everything fell in bin 1: move the last slot to bin 2 so the node
        # branches.
        shifted = np.flatnonzero(count == 1)
        if shifted.size:
            b[(m == 1) & (count[row] == 1)] -= 1
            count[shifted] = 2
            row = np.concatenate((row, shifted))
            m = np.concatenate((m, np.full(shifted.size, 2)))
            a = np.concatenate((a, r[shifted]))
            b = np.concatenate((b, r[shifted]))
        # A block's letters are 1..count: place each child by its letter.  One
        # round over every block, unshifted, already left them in that order.
        if len(rows) > 1 or shifted.size:
            at = (np.cumsum(count) - count)[row] + m - 1
            for x in (row, m, a, b):
                x[at] = x.copy()
        self.left_shifts += int(stole.sum())
        self.right_shifts += shifted.size
        lcosts = table.arrays(int(count.max()))[0]
        return self.emit(v[row], m, a, b, wc[row] + lcosts[m])

    def chains(self, l, r, v, wc):
        """Finish a level whose blocks all have zero width, in closed form.

        Every bin end of such a block is its left end, so each letter takes
        one slot, letter i the block's i-th, except that a finite alphabet's
        last letter t takes all but t - 1 slots, and that child splits the
        same way one level down: a chain of internal nodes.  Nodes are
        numbered in level order across all the chains.
        """
        size = r - l + 1
        t = self.t or int(size.max()) + 1  # on an infinite alphabet nothing chains
        depth = (size - 2) // (t - 1) + 1  # internal nodes per chain
        start = np.cumsum(depth) - depth
        total = int(depth.sum())
        chain = np.repeat(np.arange(len(l)), depth)
        step = np.arange(total) - start[chain]
        lcosts = self.table.arrays(min(t, int(size.max())))[0]
        # Word costs grow along a chain one edge at a time, as the loop adds
        # them.
        acc = np.repeat(wc, depth)
        for c in np.flatnonzero(depth > 1).tolist():
            acc[start[c]:start[c] + depth[c]] = np.cumsum(
                np.concatenate(([wc[c]], np.full(depth[c] - 1, lcosts[t]))))
        order = np.lexsort((chain, step))  # level by level, chains in order
        where = np.empty(total, dtype=np.int64)
        where[order] = np.arange(total)
        chain, step, acc = chain[order], step[order], acc[order]
        lo, hi = l[chain] + step * (t - 1), r[chain]  # each chain node's block
        kids = np.minimum(hi - lo + 1, t)
        before = np.cumsum(kids) - kids  # children of the chain nodes before each
        p = np.repeat(np.arange(total), kids)
        m = np.arange(len(p)) - before[p] + 1
        a = lo[p] + m - 1
        b = np.where(m == t, hi[p], a)
        # A chain node below the first is its parent's letter-t child.
        up = before[where[np.maximum(start[chain] + step - 1, 0)]]
        node = np.where(step == 0, v[chain],
                        self.base + len(self.buffers[0]) + up + t - 1)
        self.emit(node[p], m, a, b, acc[p] + lcosts[m])
        self.depth += int(depth.max()) - 1
        self.left_shifts += total
        return l[:0], r[:0], v[:0], wc[:0]


def build_code(pinput: ProbInput, spec: CostSpec, root: CharRoot) -> CodeTree:
    """Build a prefix-free code tree for sorted probabilities.

    The tree grows one level at a time, and nodes are numbered in level
    order, each node's children in ascending letter order.  A level holding
    at least `_VECTOR_SLOTS` slots splits all its blocks at once in numpy; a
    smaller one, and so every level below it, splits block by block with
    `_split`.  Both paths give the same nodes, bit for bit.
    `split_trace(tree)` reports every split of the result.
    """
    n = pinput.n
    table = LetterTable(spec, root.value)
    # A scalar block has under _VECTOR_SLOTS slots and at most a letter each.
    table.ensure(min(n, _VECTOR_SLOTS - 1, table.t or n))
    walk = _Walk(pinput, table)
    level = [(0, n - 1, 0, 0.0)]
    if n >= _VECTOR_SLOTS:
        level = walk.vector_levels(level)
    walk.scalar_levels(level)
    return CodeTree(spec, root, pinput, *walk.arrays(), table,
                    (walk.depth, walk.left_shifts, walk.right_shifts, walk.bins))


def split_trace(tree: CodeTree) -> list[dict]:
    """Every split of a built tree, in node order (level order): the `trace`
    records of `varncode code --trace --format json`.

    Per bin: its bounds [lo, hi), the slots whose midpoints fall inside
    (`initial`, None if none) and the slots the letter received (`final`).
    The kernel reruns on the tree's own LetterTable, so every bound is the
    builder's float; the build created every letter a split reads.
    """
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
