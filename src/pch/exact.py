"""Exhaustive oracles for properly coloured structures at small n.

These are the ground truth for every heuristic.  Three parts serve them:

- A memoised DFS over (visited set, last vertex, incoming colour, first
  colour) states answers the Hamiltonian cycle and path oracles and the
  longest cycle and path oracles.  It returns the largest order that closes
  under the cycle or path rule and reads a witness back from its memo.  Each
  oracle only chooses the rule and the shortest order that counts (n for the
  Hamiltonian oracles).  It answers the easy Exists queries in a few hundred
  nodes.
- A popcount-layered Held-Karp table (Held & Karp 1962) answers the same four
  queries in numpy: for each (visited set, last vertex) a small bitset of the
  feasible last steps, with a witness read back along them.  A layer step
  with one label per colour is one float32 matrix product per colour; with
  one label per vertex (more colours than label bits) it stays a rows x m x m
  array.  A layer's masks come from one popcount index, built once for the
  widest pass, and a live flag per mask keeps each step to the rows that
  hold a label; the witness's end is looked for once, from the top filled
  layer down.  Its rows are counted before either engine starts.  The DFS goes
  first, as a probe of `_PROBE_PER_N2` * n^2 nodes (at most `_PROBE_MAX`)
  for a spanning answer, which needs about n^2 of them, and then hands off to
  the table.  So the sub-millisecond Exists queries build no table, and a
  proof below n, which would need the DFS to exhaust its states, pays at
  most the probe before the table answers.  The table is skipped when the
  probe and its rows do not fit into the node limit, or when a pass would
  take more than `TABLE_BYTES_MAX` bytes (for example n > 22 for a path with
  at most 8 colours); the DFS then resumes from its memo up to the node limit.
- A PC 2-factor test decides in polynomial time whether g has a spanning set
  of vertex-disjoint PC cycles: Edmonds' blossom algorithm (Edmonds 1965),
  seeded greedily, on an auxiliary graph whose perfect matchings are the PC
  2-factors of g (`pc_two_factor_matching`).  A perfect matching gives a
  verified 2-factor; otherwise the final search forest gives a Tutte
  barrier (Tutte 1954; Gallai-Edmonds), which `check_barrier` confirms in
  linear time before any answer leaves.  No PC 2-factor of g (of g + z,
  `_plus_z`) means no PC Hamiltonian cycle (path).  `_search` alone asks it:
  after the DFS probe for the Hamiltonian oracles, and before it for the
  longest oracles when the table will answer, so that a barrier skips the
  probe.  `exact_pc_two_factor` returns a spanning cycle the probe finds as a
  2-factor of one cycle, and otherwise the test's answer.

Results report `nodes`, the DFS nodes plus the table rows charged against
the node limit, and `rows`, the table rows alone; the 2-factor test charges
nothing.  The table checks the time limit between layers, and the 2-factor
test runs only before the deadline.  The node budget bounds the work of the
DFS and the table, not their time: when the table cannot start and a PC
2-factor exists, the DFS runs to the node limit (5,000,000 nodes took 20.8 s
on a two-tournament colouring at n = 20).  A "not exists" answer is
definitive; running out of budget is reported as a distinct outcome, never
conflated with non-existence.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from pch.ec_graph import (
    Certificate,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    KIND_PATH_CYCLE_SYSTEM,
    _verified,
    ham_cycle_certificate,
    ham_path_certificate,
    two_factor_certificate,
)

DEFAULT_NODE_LIMIT = 5_000_000


class SearchStatus(str, Enum):
    EXISTS = "exists"
    NOT_EXISTS = "not_exists"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class SearchBudget:
    node_limit: int = DEFAULT_NODE_LIMIT
    time_limit: float | None = None  # seconds


@dataclass(frozen=True)
class TutteBarrier:
    """Proof that g has no PC 2-factor: a node set S of its auxiliary graph
    whose removal leaves more than |S| components of odd order.

    `nodes` names S by auxiliary-graph labels (`_aux_graph`); `odd_components`
    is the count the checker found, and `aux_order` the auxiliary graph's
    number of nodes.
    """

    nodes: tuple[tuple[str, int, int], ...]
    odd_components: int
    aux_order: int

    @property
    def size(self) -> int:
        return len(self.nodes)


@dataclass
class OracleResult:
    """`nodes` counts DFS nodes plus table rows against the budget; `rows` the table rows alone.

    A NOT_EXISTS answer from the PC 2-factor test carries its checked `barrier`.
    """

    status: SearchStatus
    certificate: Certificate | None = None
    nodes: int = 0
    rows: int = 0
    barrier: TutteBarrier | None = None

    @property
    def exists(self) -> bool:
        return self.status == SearchStatus.EXISTS


@dataclass
class ExtremalResult:
    """Result of a longest-structure search; `exact` is False on budget exhaustion.

    `nodes` and `rows` count as in `OracleResult`; `barrier` is the PC 2-factor
    test's barrier that proved no spanning answer exists and skipped the probe.
    """

    value: int
    witness: DirectedCycle | DirectedPath | None
    exact: bool
    nodes: int
    rows: int = 0
    barrier: TutteBarrier | None = None


class _OutOfBudget(Exception):
    pass


class _Meter:
    """Node counter with optional deadline, checked cheaply.

    `nodes` counts DFS nodes plus table rows, `rows` the table rows alone.
    `nodes` never exceeds `limit`: a node that would pass it is not searched.
    """

    __slots__ = ("nodes", "rows", "limit", "deadline")

    def __init__(self, budget: SearchBudget | None):
        b = budget or SearchBudget()
        self.nodes = 0
        self.rows = 0
        self.limit = b.node_limit
        self.deadline = None if b.time_limit is None else time.monotonic() + b.time_limit

    def tick(self):
        if self.nodes >= self.limit:
            raise _OutOfBudget
        self.nodes += 1
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget

    def expired(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def spend(self, rows: int):
        """Charge `rows` table rows at once, after checking both limits."""
        if self.nodes + rows > self.limit or self.expired():
            raise _OutOfBudget
        self.nodes += rows
        self.rows += rows


# ---------------------------------------------------------------------------
# one search for PC cycles and paths: a memoised DFS, then a Held-Karp table
# ---------------------------------------------------------------------------

# The DFS probe's length is _PROBE_PER_N2 * n * n nodes: a spanning answer
# needs about n^2 of them, while the table's charge grows as 2^n.  The worst
# spanning answer measured took 1,317 nodes (3.3 n^2) on
# `random_bounded_colouring(20, 9, 605, colours=3)`, and none of seeds
# 0-2999 of that family needs more than 4 * 20^2; `near_bollobas_erdos(5, s)`
# needs at most 2.25 n^2, and three-colour graphs at max monochromatic degree
# (n - 1) // 2, n 8-13, at most 0.51 n^2.  The search hands off to the table
# when probe + charge <= node limit.
_PROBE_PER_N2 = 4
# Above n = 32 the probe stops at _PROBE_MAX nodes.  No table fits there, so
# the probe only goes before the PC 2-factor test, and a node scans n
# vertices: 4 n^2 nodes took 1.5 s on `bollobas_erdos(40)` (n = 161), whose
# test takes 21 ms.  Spanning answers at that size need about n nodes
# (three-colour and palette-n graphs at n 41-161: at most 12 n), or far
# more than 4 n^2 (near-BE at n >= 81).
_PROBE_MAX = _PROBE_PER_N2 * 32 * 32


def _probe_nodes(n: int, limit: int) -> int:
    """Nodes of the DFS probe at order n under a node limit."""
    return min(_PROBE_PER_N2 * n * n, _PROBE_MAX, limit)


def _search(g: ColouredComplete, budget: SearchBudget | None, cycle: bool, shortest: int, probe_only: bool = False):
    """Largest order, at least `shortest`, of a PC cycle (or path) of g; n must be at least 3 (2).

    A cycle is rooted at the lowest vertex of its set and grows only above it,
    so only roots 0..n-shortest are searched; it closes when the edge back to
    the root differs from both the incoming and the first colour.  A path may
    stop anywhere, starts from every ordered pair and holds the first colour
    at 0.  The DFS stops as soon as it reaches order n.

    The DFS goes first, as a probe of `_probe_nodes` nodes for a spanning
    answer.  The PC 2-factor test (`pc_two_factor_matching` on g, on g + z
    for paths) gives a barrier when g has no spanning PC cycle (or path).  A
    Hamiltonian query (shortest n) asks it when the probe runs out below the
    node limit and before the deadline: a barrier gives order 0; with
    `probe_only` the query stops there with order 0 and no test.  A longest
    query asks it first, when the table's charge (`_table_rows`, in rows)
    fits into the node limit: a barrier makes the probe 0 nodes.  The table
    answers when probe + charge fits, at about 3 us a node (3.5 ms at
    n = 17); otherwise the DFS resumes from its memo up to the node limit.

    Returns (order, witness vertices, exact, meter, barrier); the order is 0
    and the witness None when nothing closes, the meter holds the nodes and
    rows spent, and the barrier is the test's, or None.  Out of budget, exact
    is False and the result keeps the best first edge whose DFS finished.
    """
    n, k = g.n, g.k
    if n < 2 + cycle:
        raise ValueError(f"need n >= {2 + cycle}, got {n}")
    rows = g.rows
    full = (1 << n) - 1
    meter = _Meter(budget)
    limit = meter.limit
    charge = _table_rows(g, cycle, shortest)
    meter.limit = probe = _probe_nodes(n, limit)
    spanning = shortest == n

    def two_factor_barrier():
        return pc_two_factor_matching(g if cycle else _plus_z(g))[1]

    barrier = None
    fits = charge is not None and charge <= limit
    if fits and not spanning and not meter.expired() and (barrier := two_factor_barrier()) is not None:
        meter.limit = probe = 0  # no spanning answer for the probe to find
    handoff = fits and probe + charge <= limit
    # memo value: best * m + act + 1, where best is the largest closable order
    # from the state and act the next vertex on the way there (-1: close here).
    # One int, not a tuple: Hamiltonian proofs memoise ~10^6 states, and their
    # values (best 0) stay in the interpreter's cached small ints.
    m = n + 1
    memo: dict[int, int] = {}

    def key(mask: int, last: int, in_c: int, first_c: int) -> int:
        return ((mask * n + last) * k + in_c) * k + first_c

    tick = meter.tick

    def search(mask: int, last: int, in_c: int, first_c: int, size: int) -> int:
        ky = ((mask * n + last) * k + in_c) * k + first_c  # key(), inlined
        hit = memo.get(ky)
        if hit is not None:
            return hit // m
        row = rows[last]
        if cycle:
            s = (mask & -mask).bit_length() - 1
            best = size if size >= shortest and (c := row[s]) != in_c and c != first_c else 0
        else:
            s, best = -1, size if size >= shortest else 0
        act = -1
        if mask != full:  # a spanning state is a leaf, not a search node
            tick()
            for u in range(s + 1, n):
                if mask >> u & 1:
                    continue
                c = row[u]
                if c == in_c:
                    continue
                got = search(mask | (1 << u), u, c, first_c, size + 1)
                if got > best:
                    best, act = got, u
                    if got == n:
                        break
        memo[ky] = best * m + act + 1
        return best

    best, start = 0, None

    def sweep() -> bool:
        """Search every first edge; False when the meter stops it.  A second
        sweep resumes the first: finished states are memo hits."""
        nonlocal best, start
        if cycle:
            seeds = ((r, v) for r in range(n - shortest + 1) for v in range(r + 1, n))
        else:
            seeds = itertools.permutations(range(n), 2)
        try:
            for a, b in seeds:
                c = rows[a][b]
                got = search((1 << a) | (1 << b), b, c, c if cycle else 0, 2)
                if got > best:
                    best, start = got, (a, b)
                    if got == n:
                        break
        except _OutOfBudget:
            return False
        return True

    exact = sweep()
    if not exact and probe < limit and not meter.expired():
        # the probe ran out, not the budget or the clock
        if spanning and (probe_only or (barrier := two_factor_barrier()) is not None):
            return 0, None, True, meter, barrier
        meter.limit = limit
        if not handoff:
            exact = sweep()
        else:
            try:
                order, witness = _table(g, cycle, shortest, meter)
                return order, witness, True, meter, barrier
            except _OutOfBudget:
                pass

    witness = None
    if start is not None:
        seq = list(start)
        mask = (1 << seq[0]) | (1 << seq[1])
        in_c = rows[seq[0]][seq[1]]
        first_c = in_c if cycle else 0
        while (act := memo[key(mask, seq[-1], in_c, first_c)] % m - 1) >= 0:
            in_c = rows[seq[-1]][act]
            seq.append(act)
            mask |= 1 << act
        witness = tuple(seq)
    return best, witness, exact, meter, barrier


# A table pass over m vertices holds 2^m rows (2^(m-1) for a cycle) of m
# labels each; no pass may take more bytes than this.  With at most 8 colours
# (one byte per label) that admits paths up to n = 22 and cycles up to n = 23;
# with 16-bit labels paths up to n = 21, with 32-bit labels up to n = 20, so
# a pass has at most 22 mask bits.  Each row also takes 4 bytes of the
# popcount layer index (`_popcount_layers`), kept for the widest pass so far,
# and a 1-byte live flag while a pass runs.
TABLE_BYTES_MAX = 1 << 27


def _label_bytes(bits: int) -> int:
    """Bytes of the narrowest unsigned integer of at least `bits` bits: 1, 2, 4 or 8."""
    return 1 << max(0, (bits - 1).bit_length() - 3)


def _table_passes(g: ColouredComplete, cycle: bool, shortest: int):
    """(root, first colour) of each table pass; one pass (0, None) for paths.

    A PC cycle leaves its root on two different colours and is found from
    either end, so the passes skip each root's largest colour.
    """
    if not cycle:
        return [(0, None)]
    return [(r, f) for r in range(g.n - shortest + 1) for f in sorted(set(g.rows[r][r + 1 :]))[:-1]]


def _table_rows(g: ColouredComplete, cycle: bool, shortest: int) -> int | None:
    """Rows the table fills at most, or None when its largest pass is over TABLE_BYTES_MAX.

    A label takes min(colours, n) bits, as in `_table_pass`: one per colour
    g uses, or one per vertex, so 1 to 4 bytes.  Every DFS query pays for
    this check, so g's colours are counted only where they decide: between
    a quarter of the ceiling and the ceiling itself (paths at n = 21 and 22,
    cycles at n = 22 and 23).
    """
    n = g.n
    cells = n << (n - cycle)
    if cells > TABLE_BYTES_MAX:
        return None
    if cells > TABLE_BYTES_MAX // 4:
        colours = len(np.unique(g.matrix)) - 1  # -1 on the diagonal is no colour
        if cells * _label_bytes(min(colours, n)) > TABLE_BYTES_MAX:
            return None
    return sum(1 << (n - cycle - r) for r, _ in _table_passes(g, cycle, shortest))


def _table(g: ColouredComplete, cycle: bool, shortest: int, meter: _Meter):
    """(order, witness) of `_search` from a popcount-layered Held-Karp table.

    Cycles are searched one pass per root r and first colour, over the
    vertices r..n-1; a pass that cannot beat the best order so far is skipped.
    Raises _OutOfBudget when a layer's rows do not fit the meter.
    """
    n = g.n
    best, witness = 0, None
    for r, first in _table_passes(g, cycle, shortest):
        if n - r <= best:
            break
        got = _table_pass(g.matrix[r:, r:], first, max(shortest, best + 1), meter)
        if got is not None:
            best, witness = len(got), tuple(r + v for v in got)
            if best == n:
                break
    return best, witness


def _table_pass(C: np.ndarray, first: int | None, shortest: int, meter: _Meter):
    """Vertices of a PC path of largest order, at least `shortest`, in colour matrix C; None if none.

    With `first` set, the same for PC cycles that start at vertex 0 on an
    edge of colour `first`.  R[mask, v] is the set of labels of the last steps
    of the PC walks over exactly `mask` that end at v.  A label is the colour
    of the step when the pass has no more colours than its label width,
    otherwise the vertex the step came from.  A step v -> u is allowed when
    R[mask, v] holds a label whose colour at v differs from c(v, u), and it
    leaves the label of v -> u at u.  With colour labels that is one matrix
    product per colour c: bit c at u is set when some v with c(v, u) = c
    holds a label other than c.  With vertex labels it is a rows x m x m
    array of the allowed steps.  Layers are filled in popcount order, and
    each entry (mask + u, u) has the single source mask, so it is written
    once.

    Each layer's masks come from the process-wide popcount index, and a
    1-byte flag per mask marks the rows a step has written, so a layer step
    costs its live rows, in ascending order, not a scan of all 2^bits masks.
    The end test runs once, after the fill: from the top filled layer down,
    the first layer with a row that closes (a cycle back to vertex 0 on a
    colour other than `first` and the last step's; any path) gives the
    witness's end, its first such row and then its first vertex.
    """
    m = len(C)
    cycle = first is not None
    off = int(cycle)  # a cycle's root, vertex 0, lies in every set and has no bit
    bits = m - off
    colours, lab = np.unique(C, return_inverse=True)
    colours = len(colours) - 1  # -1 on the diagonal is no colour
    dt = np.dtype(f"u{_label_bytes(min(colours, m))}")
    full = np.iinfo(dt).max
    one = np.ones((), dt)
    by_colour = colours <= dt.itemsize * 8
    if by_colour:
        lab = lab.reshape(m, m) - 1  # -1 on the diagonal
        # B[c, v, u]: the step v -> u has colour c (a cycle's first step `first`)
        B = lab[None, :, off:] == np.arange(colours)[:, None, None]
        if cycle:
            B[:, 0] &= C[0, off:] == first
        B = B.astype(np.float32)
        bit = (one << np.arange(colours, dtype=dt))[:, None, None]  # bit[c]: the label of colour c
        keep = full ^ bit  # keep[c]: the labels other than c
        lab = np.maximum(lab, 0).astype(dt)
        forbid = one << lab  # forbid[v, u]: labels at v whose colour is c(v, u)
    else:
        lab = np.broadcast_to(np.arange(m, dtype=dt)[:, None], (m, m))
        same = C[:, :, None] == C[None, :, :]  # same[p, v, u]: c(p, v) == c(v, u)
        forbid = (same * (one << np.arange(m, dtype=dt))[:, None, None]).sum(0, dtype=dt)
    if cycle:
        forbid[0] = np.where(C[0] == first, 0, full)  # the first step takes colour `first`
    allow = ~forbid.T  # allow[u, v]: labels at v that may step on to u
    leave = (one << lab).T  # leave[u, v]: the label that v -> u leaves at u

    R = np.zeros((1 << bits, m), dt)
    if cycle:
        R[0, 0] = full
    else:
        R[1 << np.arange(m), np.arange(m)] = full
    layers = _popcount_layers(bits)
    alive = np.zeros(1 << bits, bool)  # alive[mask]: R[mask] holds a label
    alive[layers[1 - off]] = True  # the first layer: the root alone, or each single vertex
    chunk = max(1, (1 << 17) // (m * min(colours, m)))  # temporaries of about 2^17 cells
    for j in range(1 - off, bits + 1):
        layer = layers[j]
        meter.spend(len(layer))
        live = layer[alive[layer]]
        if not len(live):
            break
        top = j
        if j == bits:
            break
        for c0 in range(0, len(live), chunk):
            src = live[c0 : c0 + chunk]
            if by_colour:
                # bit c at u: some v holds a label other than c and c(v, u) = c;
                # a count is at most m, so float32 sums it exactly
                hit = (R[src] & keep) != 0  # (colour, src, v)
                out = ((hit.astype(np.float32) @ B > 0) * bit).sum(0, dtype=dt)
            else:
                step = ((R[src][:, None, :] & allow) != 0) * leave  # (src, u, v)
                out = np.bitwise_or.reduce(step, axis=2)[:, off:]
            # u already in the set: bit u of the little-endian mask bytes
            out *= 1 - np.unpackbits(src.view(np.uint8).reshape(-1, 4), axis=1, count=bits, bitorder="little")
            s, u = np.nonzero(out)
            dest = src[s] | (1 << u)
            R[dest, u + off] = out[s, u]
            alive[dest] = True

    # close[v]: the labels at v that end a witness (a cycle steps back to vertex
    # 0 on a colour other than `first`)
    close = np.where(C[:, 0] == first, 0, allow[0]).astype(dt) if cycle else np.full(m, full, dt)
    for j in range(top, shortest - off - 1, -1):
        live = layers[j][alive[layers[j]]]
        s, v = np.nonzero(R[live] & close)
        if len(s):
            break
    else:
        return None

    mask, v = int(live[s[0]]), int(v[0])
    ok = int(close[v])
    seq = [v]
    while (mask != 0) if cycle else (mask != 1 << v):
        mask &= ~(1 << (v - off))
        for p in ((0,) if cycle else ()) + tuple(u + off for u in range(bits) if mask >> u & 1):
            if leave[v, p] & ok and R[mask, p] & allow[v, p]:
                break
        else:
            raise RuntimeError("no table entry leads to the witness's next vertex")
        ok, v = int(allow[v, p]), p
        seq.append(v)
    return seq[::-1]


def _popcounts(bits: int) -> np.ndarray:
    """popcounts[mask] for every mask of `bits` bits."""
    pc = np.zeros(1 << bits, np.uint8)
    for b in range(bits):
        pc[1 << b : 2 << b] = pc[: 1 << b] + 1
    return pc


# _LAYERS[j]: the masks of popcount j, ascending, for the widest pass so far
_LAYERS: list[np.ndarray] = []


def _popcount_layers(bits: int) -> list[np.ndarray]:
    """[the masks of `bits` bits with popcount j, ascending] for j = 0..bits.

    The masks are little-endian int32, so `bits` must be below 32;
    `TABLE_BYTES_MAX` keeps it at most 22.  The index is built once for the
    widest width asked for so far.  A narrower width takes the first
    comb(bits, j) masks of each layer: the masks below 2^bits come first.
    """
    global _LAYERS
    if bits >= 32:
        raise ValueError(f"a table mask of {bits} bits does not fit 32 bits")
    if len(_LAYERS) <= bits:
        pc = _popcounts(bits)
        _LAYERS = [np.flatnonzero(pc == j).astype("<i4") for j in range(bits + 1)]
    return [_LAYERS[j][: math.comb(bits, j)] for j in range(bits + 1)]


# ---------------------------------------------------------------------------
# PC 2-factors by perfect matching (Tutte 1954; Edmonds 1965)
# ---------------------------------------------------------------------------

def _aux_graph(g: ColouredComplete):
    """(adjacency, labels, a) of the auxiliary graph of g.

    For each vertex v there are two ports ("p", v, 0) and ("p", v, 1), and for
    each colour c at v two nodes ("a", v, c) and ("b", v, c); a(v, c) is
    joined to b(v, c), each b to both ports of its vertex, and each edge uv of
    colour c joins a(u, c) to a(v, c).  In a perfect matching the two ports of
    v take two b's, whose a's are matched along two edges of distinct colours
    at v, while every other a takes its own b: the matched a-a edges are a
    PC 2-factor of g, and every PC 2-factor arises so.  a[v][c] is the node of
    a(v, c); b(v, c) is the node after it, and a vertex's ports the two nodes
    before its first a.
    """
    n, rows = g.n, g.rows
    adj: list[list[int]] = []
    labels: list[tuple[str, int, int]] = []
    a: list[dict[int, int]] = []
    for v in range(n):
        p = len(adj)
        colours = sorted(set(rows[v]) - {-1})
        adj += [[p + 2 + 2 * i + 1 for i in range(len(colours))] for _ in range(2)]
        labels += [("p", v, 0), ("p", v, 1)]
        av = {}
        for c in colours:
            x = len(adj)
            adj += [[x + 1], [x, p, p + 1]]
            labels += [("a", v, c), ("b", v, c)]
            av[c] = x
        a.append(av)
    for u in range(n):
        au, row = a[u], rows[u]
        for v in range(u + 1, n):
            x, y = au[row[v]], a[v][row[v]]
            adj[x].append(y)
            adj[y].append(x)
    return adj, labels, a


def _greedy_matching(g: ColouredComplete, a: list[dict[int, int]], size: int) -> list[int]:
    """A matching of the auxiliary graph from a greedy PC subgraph of degree at most 2.

    Edges are taken in row order while both ends have fewer than two edges
    and neither has one of its colour; their b's go to the ports, and every
    other a to its b.  Only the ports of the vertices left below degree 2 are
    unmatched.
    """
    n, rows = g.n, g.rows
    match = [-1] * size
    used: list[list[int]] = [[] for _ in range(n)]
    for u in range(n):
        row, uu = rows[u], used[u]
        for v in range(u + 1, n):
            if len(uu) == 2:
                break
            c, vv = row[v], used[v]
            if len(vv) < 2 and c not in uu and c not in vv:
                x, y = a[u][c], a[v][c]
                match[x], match[y] = y, x
                uu.append(c)
                vv.append(c)
    for v in range(n):
        p = next(iter(a[v].values())) - 2  # v's ports are the two nodes before its first a
        for c, x in a[v].items():
            if c in used[v]:
                match[x + 1], match[p] = p, x + 1
                p += 1
            else:
                match[x], match[x + 1] = x + 1, x
    return match


def _maximum_matching(adj: list[list[int]], match: list[int]) -> list[bool]:
    """Grow `match` in place into a maximum matching by Edmonds' blossom algorithm.

    Each round grows one alternating forest from every unmatched node.  An
    edge between even nodes of two trees closes an augmenting path, which is
    flipped, and the next round starts; an edge within one tree contracts a
    blossom onto its base, relabelling only the members of the bases it
    takes in (a list per base), in ascending order.  Returns `even` of the
    last round, which found no augmenting path: its even nodes (blossoms
    included) are the nodes that some maximum matching leaves unmatched
    (Gallai-Edmonds), and its odd nodes, their other neighbours, form a Tutte
    barrier.
    """
    size = len(adj)
    while True:
        base = list(range(size))
        members = [[x] for x in range(size)]  # members[b]: the nodes whose base is b
        parent = [-1] * size  # the tree edge into an odd node; set on even blossom nodes too
        even = [match[v] < 0 for v in range(size)]
        queue = deque(v for v in range(size) if even[v])
        mark = [0] * size
        stamp = 0

        def lca(x: int, y: int) -> int:
            """Base of the blossom that edge x-y closes, or -1 when x and y lie in different trees."""
            nonlocal stamp
            stamp += 1
            while True:
                x = base[x]
                mark[x] = stamp
                if match[x] < 0:
                    break
                x = parent[match[x]]
            while True:
                y = base[y]
                if mark[y] == stamp:
                    return y
                if match[y] < 0:
                    return -1
                y = parent[match[y]]

        def mark_path(x: int, top: int, child: int, inside: set[int]) -> None:
            while base[x] != top:
                inside.add(base[x])
                inside.add(base[match[x]])
                parent[x] = child
                child = match[x]
                x = parent[match[x]]

        def flip(x: int) -> None:
            """Match x to its tree parent and so on up to the root."""
            while x >= 0:
                up = parent[x]
                nxt = match[up]
                match[x], match[up] = up, x
                x = nxt

        augmented = False
        while queue and not augmented:
            v = queue.popleft()
            for u in adj[v]:
                if base[v] == base[u] or match[v] == u:
                    continue
                if even[u]:
                    top = lca(v, u)
                    if top < 0:
                        mv, mu = match[v], match[u]
                        flip(mv)
                        flip(mu)
                        match[v], match[u] = u, v
                        augmented = True
                        break
                    inside: set[int] = set()
                    mark_path(v, top, u, inside)
                    mark_path(u, top, v, inside)
                    blossom = sorted(x for b in inside for x in members[b])
                    for x in blossom:
                        base[x] = top
                        if not even[x]:
                            even[x] = True
                            queue.append(x)
                    for b in inside - {top}:
                        members[top] += members[b]
                elif parent[u] < 0:
                    parent[u] = v
                    w = match[u]
                    even[w] = True
                    queue.append(w)
        if not augmented:
            return even


def _odd_components(adj: list[list[int]], removed: set[int]) -> int:
    """Number of components of odd order left when `removed` is deleted; linear time."""
    seen = bytearray(len(adj))
    for x in removed:
        seen[x] = 1
    odd = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = 1
        stack, order = [s], 0
        while stack:
            x = stack.pop()
            order += 1
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = 1
                    stack.append(y)
        odd += order & 1
    return odd


def check_barrier(g: ColouredComplete, barrier: TutteBarrier) -> bool:
    """True iff removing `barrier.nodes` from the auxiliary graph of g leaves more odd components than nodes removed."""
    adj, labels, _ = _aux_graph(g)
    index = {lab: x for x, lab in enumerate(labels)}
    removed = {index.get(lab, -1) for lab in barrier.nodes}
    if -1 in removed or len(removed) != len(barrier.nodes):
        return False
    return _odd_components(adj, removed) > len(removed)


def pc_two_factor_matching(g: ColouredComplete) -> tuple[Certificate | None, TutteBarrier | None]:
    """A verified PC 2-factor of g, or a checked Tutte barrier proving that none exists.

    Exactly one of the pair is None.  Polynomial: Edmonds' blossom algorithm
    on the auxiliary graph (`_aux_graph`), seeded with `_greedy_matching`.
    """
    adj, labels, a = _aux_graph(g)
    match = _greedy_matching(g, a, len(adj))
    even = _maximum_matching(adj, match)
    if all(m >= 0 for m in match):
        nbrs: list[list[int]] = [[] for _ in range(g.n)]
        for v, av in enumerate(a):
            for x in av.values():
                if labels[match[x]][0] == "a":
                    nbrs[v].append(labels[match[x]][1])
        cycles, seen = [], set()
        for s in range(g.n):
            if s in seen:
                continue
            cyc = [s, nbrs[s][0]]  # walk on from the last vertex, away from the one before
            while cyc[-1] != s:
                x, y = nbrs[cyc[-1]]
                cyc.append(y if x == cyc[-2] else x)
            cycles.append(tuple(cyc[:-1]))
            seen.update(cyc)
        return _verified(g, two_factor_certificate(cycles), "oracle"), None
    removed = {x for x in range(len(adj)) if not even[x] and any(even[y] for y in adj[x])}
    odd = _odd_components(adj, removed)
    if odd <= len(removed):
        raise RuntimeError(f"matching produced an invalid barrier: {odd} odd components, {len(removed)} nodes removed")
    return None, TutteBarrier(tuple(labels[x] for x in sorted(removed)), odd, len(adj))


# ---------------------------------------------------------------------------
# Hamiltonian cycle and path
# ---------------------------------------------------------------------------

def _plus_z(g: ColouredComplete) -> ColouredComplete:
    """g + z: a new vertex z = n joined to each vertex v in its own new colour k + v.

    Its PC 2-factors are a PC path of g plus PC cycles, spanning g (Feng et al. 2006).
    """
    n, k = g.n, g.k
    return ColouredComplete(n + 1, k + n, [c for v in range(n) for c in (*g.rows[v][v + 1 :], k + v)])


def _hamiltonian(g: ColouredComplete, budget: SearchBudget | None, cycle: bool) -> OracleResult:
    """`_search` for a spanning PC cycle (or path): a verified certificate, or none with the test's barrier."""
    order, witness, exact, meter, barrier = _search(g, budget, cycle, g.n)
    if order == g.n:
        cert = (ham_cycle_certificate if cycle else ham_path_certificate)(witness)
        return OracleResult(SearchStatus.EXISTS, _verified(g, cert, "oracle"), meter.nodes, meter.rows)
    status = SearchStatus.NOT_EXISTS if exact else SearchStatus.EXHAUSTED
    return OracleResult(status, None, meter.nodes, meter.rows, barrier)


def exact_pc_ham_cycle(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian cycle.

    Every cycle through vertex 0 is searched from its first edge (0, v);
    memoisation makes the search complete even on adversarial two-colourings.
    When the DFS probe finds no cycle, the PC 2-factor test runs before the
    table: with no PC 2-factor there is no PC Hamiltonian cycle, and the
    answer is NOT_EXISTS with the test's barrier and no table rows.
    """
    return _hamiltonian(g, budget, True)


def exact_pc_ham_path(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """As `exact_pc_ham_cycle`, for a PC Hamiltonian path; a barrier is of g + z (`_plus_z`)."""
    return _hamiltonian(g, budget, False)


# ---------------------------------------------------------------------------
# 2-factor
# ---------------------------------------------------------------------------

def exact_pc_two_factor(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive answer on a spanning set of vertex-disjoint PC cycles.

    A PC Hamiltonian cycle is a PC 2-factor of one cycle, so the Hamiltonian
    DFS probe of `exact_pc_ham_cycle` goes first (`_probe_nodes`: 4 n^2
    nodes, at most `_PROBE_MAX` = 4,096 and the budget's node limit), and a
    spanning answer is the certificate.  When the probe finishes, or runs out
    below the node limit and before the deadline, `pc_two_factor_matching`
    settles the query with its 2-factor or its barrier; no table is built.
    A budget or deadline that stops the probe gives EXHAUSTED.
    """
    order, witness, exact, meter, _ = _search(g, budget, True, g.n, probe_only=True)
    if order == g.n:
        return OracleResult(SearchStatus.EXISTS, _verified(g, two_factor_certificate([witness]), "oracle"), meter.nodes)
    if not exact:
        return OracleResult(SearchStatus.EXHAUSTED, None, meter.nodes)
    cert, barrier = pc_two_factor_matching(g)
    if cert is not None:
        return OracleResult(SearchStatus.EXISTS, cert, meter.nodes)
    return OracleResult(SearchStatus.NOT_EXISTS, None, meter.nodes, 0, barrier)


# ---------------------------------------------------------------------------
# longest PC cycle / path
# ---------------------------------------------------------------------------

def _longest(g: ColouredComplete, budget: SearchBudget | None, cycle: bool) -> ExtremalResult:
    """`_search` for the longest PC cycle (or path), whose witness `_verified` checks once."""
    order, witness, exact, meter, barrier = _search(g, budget, cycle, 2 + cycle)
    if witness is None and not cycle:
        # out of budget before the first seed finished: any edge is a PC path
        order, witness = 2, (0, 1)
    if witness is not None:
        cert = Certificate(KIND_PATH_CYCLE_SYSTEM, cycles=(witness,) if cycle else (), path=None if cycle else witness)
        _verified(g, cert, "oracle")
        witness = (DirectedCycle if cycle else DirectedPath).unchecked(witness)
    return ExtremalResult(order, witness, exact, meter.nodes, meter.rows, barrier)


def longest_pc_cycle(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum length of a PC cycle (0 if none), with a witness that `_verified` checks.

    A barrier of the PC 2-factor test skips the DFS probe (`_search`).
    Out of budget (`exact` False), 0 means that no cycle was found within the
    budget, not that none exists.
    """
    return _longest(g, budget, True)


def longest_pc_path(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum order of a PC path (at least 2 for n >= 2), with a witness that `_verified` checks.

    A barrier of the PC 2-factor test on g + z (`_plus_z`) skips the DFS probe.
    """
    return _longest(g, budget, False)
