"""Independent checks of varncode's outputs, run outside the timed region.

Nothing here calls `verify_prefix_free` or `CodeTree.kraft_sum`: every check
recomputes its quantity from the letters, the letter costs and the
probabilities the benchmark generated.  Each check returns None when it holds
or a (layer, check name) pair naming the layer whose output was wrong and
the first check it failed.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

TOL = 1e-9

# Which layer produced the value a check looks at.
CHECK_LAYER = {
    "one_leaf_per_symbol": "coder.build_code",
    "prefix_free": "coder.build_code",
    "kraft": "coder.build_code",
    "deterministic": "coder.build_code",
    "word_cost": "coder.codewords",
    "cost_identity": "analysis.report",
    "entropy_bound": "analysis.report",
    "oracle_gap": "oracle.exact_opt",
    "text_json_agree": "cli.emit",
}


def fail(check: str) -> tuple[str, str]:
    layer = "analysis.report" if check.startswith("bound:") else CHECK_LAYER[check]
    return layer, check


class LetterCosts:
    """Cost of letter m (1-based), from CostSpec.letter_cost.

    For integer-cost profiles `letter_cost(m)` rescans the levels, so large
    letter indices are read off the cumulative `d_profile` instead; the first
    few are compared against `letter_cost` so both views must agree.
    """

    def __init__(self, spec):
        self.spec = spec
        self.table = [0.0]
        if spec.costs is not None:
            self.table += [spec.letter_cost(m) for m in range(1, len(spec.costs) + 1)]
        self.levels = 0

    def upto(self, m: int) -> list[float]:
        if m >= len(self.table) and self.spec.costs is None:
            self._grow(m)
        return self.table

    def _grow(self, m: int) -> None:
        levels = max(8, self.levels)
        while True:
            cum = np.cumsum(self.spec.d_profile(levels))
            if int(cum[-1]) >= m or levels >= 1 << 20:
                break
            levels *= 2
        self.levels = levels
        count = min(m, int(cum[-1]))
        level_of = np.searchsorted(cum, np.arange(1, count + 1)) + 1
        self.table = [0.0] + level_of.astype(np.float64).tolist()
        for k in range(1, min(len(self.table), 17)):
            if self.spec.letter_cost(k) != self.table[k]:
                self.table = [0.0]  # disagreement: every letter check fails
                break


def _entropy(probs: np.ndarray) -> float:
    pos = probs[probs > 0.0]
    return float(-math.fsum((pos * np.log2(pos)).tolist()))


def report_rows(rep) -> tuple[float, list]:
    """(cost, [(name, value, applicable)]) from an AnalysisReport or its JSON."""
    if isinstance(rep, dict):
        return rep["cost"], [(b["name"], b["value"], b["applicable"]) for b in rep["bounds"]]
    return rep.cost, [(b.name, b.value, b.applicable) for b in rep.bounds]


def check_report(rep, probs: np.ndarray, c: float, cost: float):
    """C(T) = report cost, H/c <= C(T), nr <= every applicable bound row."""
    rep_cost, rows = report_rows(rep)
    if abs(rep_cost - cost) > TOL * max(1.0, cost):
        return fail("cost_identity")
    H = _entropy(probs)
    if H / c > cost + TOL * max(1.0, cost):
        return fail("entropy_bound")
    nr = c * cost - H
    for name, value, applicable in rows:
        if applicable and nr > value + TOL:
            return fail(f"bound:{name}")
    return None


def check_words(words, costs, probs: np.ndarray, spec, c: float, rep,
                opt_cost: float | None = None):
    """Check a codeword table given per symbol in original order.

    words[i] is symbol i's letter tuple and costs[i] its reported cost.
    """
    n = probs.shape[0]
    if len(words) != n or len(costs) != n or any(len(w) == 0 for w in words):
        return fail("one_leaf_per_symbol")
    ordered = sorted(tuple(w) for w in words)
    for a, b in zip(ordered, ordered[1:]):
        if b[: len(a)] == a:
            return fail("prefix_free")
    top = max(max(w) for w in words)
    table = LetterCosts(spec).upto(top)
    if top >= len(table):
        return fail("word_cost")
    mine = []
    for w, reported in zip(words, costs):
        acc = 0.0
        for m in w:
            acc += table[m]
        if abs(acc - reported) > TOL * max(1.0, acc):
            return fail("word_cost")
        mine.append(acc)
    mine = np.asarray(mine)
    if math.fsum(np.exp2(-c * mine).tolist()) > 1.0 + TOL:
        return fail("kraft")
    cost = math.fsum((probs * mine).tolist())
    bad = check_report(rep, probs, c, cost)
    if bad is None and opt_cost is not None and cost < opt_cost - TOL:
        bad = fail("oracle_gap")
    return bad


def words_digest(words, costs) -> str:
    """sha256 of the codeword table in `codeword_lines` form."""
    h = hashlib.sha256()
    for i, (w, cost) in enumerate(zip(words, costs)):
        h.update(f"{i}\t{','.join(map(str, w))}\t{cost!r}\n".encode())
    return h.hexdigest()


def check_tree(tree, probs: np.ndarray, spec, c: float, rep):
    """Check a built tree through its accessors, without codeword walks.

    Zero-mass inputs make chains as deep as n, where materialising every
    codeword costs O(n^2); this check is linear in the number of nodes.
    Returns (failure or None, digest, max depth).  The digest covers each
    symbol's codeword cost and the set of codewords (as chained path hashes),
    so it does not depend on node numbering.
    """
    N = tree.num_nodes
    n = probs.shape[0]
    parent = [tree.parent_of(v) for v in range(N)]
    letter = [tree.letter_of(v) for v in range(N)]
    isleaf = np.fromiter(map(tree.is_leaf, range(N)), dtype=bool, count=N)
    par = np.asarray(parent, dtype=np.int64)
    let = np.asarray(letter, dtype=np.int64)
    if par[0] != -1 or isleaf[0] or int(isleaf.sum()) != n:
        return fail("one_leaf_per_symbol"), None, 0
    kids = par[1:]
    if (np.any(kids < 0) or np.any(kids >= np.arange(1, N))
            or np.any(isleaf[kids]) or np.any(let[1:] < 1)):
        return fail("prefix_free"), None, 0
    edges = kids * (int(let.max()) + 1) + let[1:]
    if np.unique(edges).size != N - 1:
        return fail("prefix_free"), None, 0
    internal = np.zeros(N, dtype=bool)
    internal[kids] = True
    if np.any(~isleaf & ~internal):
        return fail("one_leaf_per_symbol"), None, 0

    table = LetterCosts(spec).upto(int(let.max()))
    if int(let.max()) >= len(table):
        return fail("word_cost"), None, 0
    # Python lists, not numpy element access, in this per-node loop: it is
    # most of the check's time.  A path hash is 8 little-endian bytes.
    cost = [0.0] * N
    depth = [0] * N
    path = [bytes(8)] * N
    blake2b = hashlib.blake2b
    for v in range(1, N):
        p = parent[v]
        m = letter[v]
        cost[v] = cost[p] + table[m]
        depth[v] = depth[p] + 1
        path[v] = blake2b(path[p] + m.to_bytes(8, "little"), digest_size=8).digest()
    leaf_cost = np.asarray(cost)[isleaf]
    slot_cost = np.asarray(tree.leaf_costs, dtype=np.float64)
    if slot_cost.shape != (n,) or not np.array_equal(np.sort(leaf_cost), np.sort(slot_cost)):
        return fail("word_cost"), None, 0
    perm = np.asarray(tree.input.perm)
    if not np.array_equal(np.sort(perm), np.arange(n)) or np.any(np.diff(probs[perm]) > 0):
        return fail("one_leaf_per_symbol"), None, 0
    if math.fsum(np.exp2(-c * leaf_cost).tolist()) > 1.0 + TOL:
        return fail("kraft"), None, 0
    cost_t = math.fsum((probs[perm] * slot_cost).tolist())
    if abs(tree.cost() - cost_t) > TOL * max(1.0, cost_t):
        return fail("cost_identity"), None, 0
    bad = check_report(rep, probs, c, cost_t)
    by_symbol = np.empty(n)
    by_symbol[perm] = slot_cost
    h = hashlib.sha256(by_symbol.tobytes())
    h.update(np.sort(np.frombuffer(b"".join(path), dtype="<u8")[isleaf]).tobytes())
    return bad, h.hexdigest(), max(depth)


def parse_text_output(text: str):
    """`code --format text` -> (words, costs, summary dict)."""
    words, costs, summary = [], [], {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            summary[key.strip()] = value.split()[0]
            continue
        index, letters, cost = line.split("\t")
        if int(index) != len(words):
            raise ValueError(f"text output out of order at symbol {index}")
        words.append(tuple(int(m) for m in letters.split(",")))
        costs.append(float(cost))
    return words, costs, summary


def parse_json_output(text: str):
    """`code --format json` -> (words, costs, payload)."""
    payload = json.loads(text)
    cws = payload["codewords"]
    if [cw["index"] for cw in cws] != list(range(len(cws))):
        raise ValueError("JSON codewords out of order")
    return [tuple(cw["letters"]) for cw in cws], [cw["cost"] for cw in cws], payload
