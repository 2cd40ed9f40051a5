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
  array.  Its rows are counted before either engine starts.  The DFS goes
  first, as a probe of `_PROBE_PER_N2` * n^2 nodes for a spanning answer,
  which needs about n^2 of them, and then hands off to the table.  So the
  sub-millisecond Exists queries build no table, and a proof below n, which
  would need the DFS to exhaust its states, pays only the probe before the
  table answers.  The table is skipped when the probe and its rows do not
  fit into the node limit, or when a pass would take more than
  `TABLE_BYTES_MAX` bytes (for example n > 22 for a path with at most 8
  colours); the DFS then runs to the budget alone.
- `exact_pc_two_factor` searches cycle covers of the uncovered vertex set.

Results report `nodes`, the DFS nodes plus the table rows charged against
the node limit, and `rows`, the table rows alone.  The table checks the time
limit between layers.  A "not exists" answer is definitive; running out of
budget is reported as a distinct outcome, never conflated with non-existence.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from pch.ec_graph import (
    Certificate,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    ham_cycle_certificate,
    ham_path_certificate,
    two_factor_certificate,
    verify_certificate,
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


@dataclass
class OracleResult:
    """`nodes` counts DFS nodes plus table rows against the budget; `rows` the table rows alone."""

    status: SearchStatus
    certificate: Certificate | None = None
    nodes: int = 0
    rows: int = 0

    @property
    def exists(self) -> bool:
        return self.status == SearchStatus.EXISTS


@dataclass
class ExtremalResult:
    """Result of a longest-structure search; `exact` is False on budget exhaustion.

    `nodes` and `rows` count as in `OracleResult`.
    """

    value: int
    witness: DirectedCycle | DirectedPath | None
    exact: bool
    nodes: int
    rows: int = 0


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

    def spend(self, rows: int):
        """Charge `rows` table rows at once, after checking both limits."""
        if self.nodes + rows > self.limit or (self.deadline is not None and time.monotonic() > self.deadline):
            raise _OutOfBudget
        self.nodes += rows
        self.rows += rows


def _verified(g, cert: Certificate) -> Certificate:
    out = verify_certificate(g, cert)
    if not out.valid:
        raise RuntimeError(f"oracle produced an invalid certificate: {out.reason}")
    return out


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


def _search(g: ColouredComplete, budget: SearchBudget | None, cycle: bool, shortest: int):
    """Largest order, at least `shortest`, of a PC cycle (or path) of g.

    A cycle is rooted at the lowest vertex of its set and grows only above it,
    so only roots 0..n-shortest are searched; it closes when the edge back to
    the root differs from both the incoming and the first colour.  A path may
    stop anywhere, starts from every ordered pair and holds the first colour
    at 0.  The DFS stops as soon as it reaches order n.

    The DFS goes first, as a probe for a spanning answer.  When the table
    fits (`_table_rows`, its charge in rows) and probe + charge fits into the
    node limit, where probe is _PROBE_PER_N2 * n * n, the DFS stops after
    probe nodes and the table answers instead.  A query the probe answers
    costs what the DFS alone costs.  A handed-off query costs the table plus
    the probe, at about 3 us a node (3.5 ms at n = 17).  The probe's best order
    is not passed to the table as a floor: on the bench's four longest
    queries the probe closes nothing.

    Returns (order, witness vertices, exact, meter); the order is 0 and the
    witness None when nothing closes, and the meter holds the nodes and rows
    spent.  Out of budget, exact is False and the result keeps the best first
    edge whose DFS finished.
    """
    n, k = g.n, g.k
    rows = g.rows
    full = (1 << n) - 1
    meter = _Meter(budget)
    limit = meter.limit
    charge = _table_rows(g, cycle, shortest)
    probe = _PROBE_PER_N2 * n * n
    handoff = charge is not None and probe + charge <= limit
    if handoff:
        meter.limit = probe
    if cycle:
        seeds = ((r, v) for r in range(n - shortest + 1) for v in range(r + 1, n))
    else:
        seeds = itertools.permutations(range(n), 2)
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
    try:
        for a, b in seeds:
            c = rows[a][b]
            got = search((1 << a) | (1 << b), b, c, c if cycle else 0, 2)
            if got > best:
                best, start = got, (a, b)
                if got == n:
                    break
        exact = True
    except _OutOfBudget:
        exact = False

    if not exact and handoff and meter.nodes == meter.limit:
        meter.limit = limit
        try:
            order, witness = _table(g, cycle, shortest, meter)
            return order, witness, True, meter
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
    return best, witness, exact, meter


# A table pass over m vertices holds 2^m rows (2^(m-1) for a cycle) of m
# labels each; no pass may take more bytes than this.  With at most 8 colours
# (one byte per label) that admits paths up to n = 22 and cycles up to n = 23;
# with 16-bit labels paths up to n = 21, with 32-bit labels up to n = 20.  The
# popcounts of the rows take one more byte per row while a pass runs.
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

    A label takes at most min(k, n) bits: one per colour or one per vertex,
    so at most 4 bytes when the cells fit a quarter of the ceiling (n < 32).
    Cheap, because every DFS query pays for it.
    """
    n = g.n
    cells = n << (n - cycle)
    if cells > TABLE_BYTES_MAX // 4 and cells * _label_bytes(min(g.k, n)) > TABLE_BYTES_MAX:
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
    popcount = _popcounts(bits)
    chunk = max(1, (1 << 17) // (m * min(colours, m)))  # temporaries of about 2^17 cells
    shifts = np.arange(bits)
    end = None  # (mask, last vertex, labels allowed at it) of the best witness
    for j in range(1 - off, bits + 1):
        layer = np.flatnonzero(popcount == j)
        meter.spend(len(layer))
        live = layer[R[layer].any(axis=1)]
        if not len(live):
            break
        size = j + off
        if size >= shortest:
            ends = R[live] & (allow[0] if cycle else full)
            if cycle:
                ends[:, C[:, 0] == first] = 0
            s, v = np.nonzero(ends)
            if len(s):
                end = (int(live[s[0]]), int(v[0]), int(allow[0, v[0]]) if cycle else int(full))
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
            out[(src[:, None] >> shifts) & 1 == 1] = 0  # u already in the set
            s, u = np.nonzero(out)
            R[src[s] | (1 << u), u + off] = out[s, u]
    if end is None:
        return None

    mask, v, ok = end
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


def _existence(g: ColouredComplete, found, certificate) -> OracleResult:
    """An oracle answer from a `_search` result: spanning order, exhausted, or neither."""
    order, witness, exact, meter = found
    if order == g.n:
        return OracleResult(SearchStatus.EXISTS, _verified(g, certificate(witness)), meter.nodes, meter.rows)
    return OracleResult(SearchStatus.NOT_EXISTS if exact else SearchStatus.EXHAUSTED, None, meter.nodes, meter.rows)


# ---------------------------------------------------------------------------
# Hamiltonian cycle and path
# ---------------------------------------------------------------------------

def exact_pc_ham_cycle(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian cycle.

    Every cycle through vertex 0 is searched from its first edge (0, v);
    memoisation makes the search complete even on adversarial two-colourings.
    """
    n = g.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    found = _search(g, budget, True, n)
    return _existence(g, found, ham_cycle_certificate)


def exact_pc_ham_path(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian path."""
    n = g.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    found = _search(g, budget, False, n)
    return _existence(g, found, ham_path_certificate)


# ---------------------------------------------------------------------------
# 2-factor
# ---------------------------------------------------------------------------

def exact_pc_two_factor(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a spanning set of vertex-disjoint PC cycles.

    Recurses over the uncovered vertex set: the lowest uncovered vertex leads
    its cycle, so each cycle cover is enumerated once.
    """
    n = g.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rows = g.rows
    meter = _Meter(budget)
    # memo value: a cycle (tuple) through the lowest vertex completing the mask, or None
    memo: dict[int, tuple[int, ...] | None] = {}

    def cycles_through(s: int, mask: int):
        """Yield PC cycles within mask containing s (orientation deduped)."""
        path = [s]

        def walk(last: int, used: int, in_c: int, first_c: int):
            row = rows[last]
            for u in range(s + 1, n):
                if not (mask >> u & 1) or (used >> u & 1):
                    continue
                c = row[u]
                if c == in_c:
                    continue
                meter.tick()
                path.append(u)
                close_c = rows[u][s]
                if len(path) >= 3 and close_c != c and close_c != first_c and path[1] < path[-1]:
                    yield tuple(path)
                yield from walk(u, used | (1 << u), c, first_c)
                path.pop()

        for v in range(s + 1, n):
            if not (mask >> v & 1):
                continue
            path.append(v)
            yield from walk(v, (1 << s) | (1 << v), rows[s][v], rows[s][v])
            path.pop()

    def cover(mask: int) -> bool:
        if mask == 0:
            return True
        hit = memo.get(mask, "miss")
        if hit != "miss":
            return hit is not None
        meter.tick()
        s = (mask & -mask).bit_length() - 1
        for cyc in cycles_through(s, mask):
            sub = mask
            for v in cyc:
                sub &= ~(1 << v)
            if cover(sub):
                memo[mask] = cyc
                return True
        memo[mask] = None
        return False

    try:
        if cover((1 << n) - 1):
            cycles = []
            mask = (1 << n) - 1
            while mask:
                cyc = memo[mask]
                cycles.append(cyc)
                for v in cyc:
                    mask &= ~(1 << v)
            cert = _verified(g, two_factor_certificate(cycles))
            return OracleResult(SearchStatus.EXISTS, cert, meter.nodes)
    except _OutOfBudget:
        return OracleResult(SearchStatus.EXHAUSTED, None, meter.nodes)
    return OracleResult(SearchStatus.NOT_EXISTS, None, meter.nodes)


# ---------------------------------------------------------------------------
# longest PC cycle / path
# ---------------------------------------------------------------------------

def longest_pc_cycle(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum length of a PC cycle (0 if none), with a witness.

    Out of budget (`exact` False), 0 means that no cycle was found within the
    budget, not that none exists.
    """
    n = g.n
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    order, witness, exact, meter = _search(g, budget, True, 3)
    return ExtremalResult(order, None if witness is None else DirectedCycle(witness), exact, meter.nodes, meter.rows)


def longest_pc_path(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum order of a PC path (at least 2 for n >= 2), with a witness."""
    n = g.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    order, witness, exact, meter = _search(g, budget, False, 2)
    if witness is None:
        # out of budget before the first seed finished: any edge is a PC path
        order, witness = 2, (0, 1)
    return ExtremalResult(order, DirectedPath(witness), exact, meter.nodes, meter.rows)
