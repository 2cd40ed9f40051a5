"""Exhaustive oracles for properly coloured structures at small n.

These are the ground truth for every heuristic.  Two searches serve them:

- One memoised search over (visited set, last vertex, incoming colour,
  first colour) states answers the Hamiltonian cycle and path oracles and the
  longest cycle and path oracles.  It returns the largest order that closes
  under the cycle or path rule and reads a witness back from its memo.  Each
  oracle only chooses the rule, the shortest order that counts (n for the
  Hamiltonian oracles) and the first edges to search from.
- `exact_pc_two_factor` searches cycle covers of the uncovered vertex set.

A "not exists" answer is definitive; running out of budget is reported as a
distinct outcome, never conflated with non-existence.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from enum import Enum

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
    status: SearchStatus
    certificate: Certificate | None = None
    nodes: int = 0

    @property
    def exists(self) -> bool:
        return self.status == SearchStatus.EXISTS


@dataclass
class ExtremalResult:
    """Result of a longest-structure search; `exact` is False on budget exhaustion."""

    value: int
    witness: DirectedCycle | DirectedPath | None
    exact: bool
    nodes: int


class _OutOfBudget(Exception):
    pass


class _Meter:
    """Node counter with optional deadline, checked cheaply."""

    __slots__ = ("nodes", "limit", "deadline")

    def __init__(self, budget: SearchBudget | None):
        b = budget or SearchBudget()
        self.nodes = 0
        self.limit = b.node_limit
        self.deadline = None if b.time_limit is None else time.monotonic() + b.time_limit

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget


def _verified(g, cert: Certificate) -> Certificate:
    out = verify_certificate(g, cert)
    if not out.valid:
        raise RuntimeError(f"oracle produced an invalid certificate: {out.reason}")
    return out


# ---------------------------------------------------------------------------
# one memoised search for PC cycles and paths
# ---------------------------------------------------------------------------

def _search(g: ColouredComplete, budget: SearchBudget | None, cycle: bool, shortest: int, seeds):
    """Largest order, at least `shortest`, of a PC cycle (or path) whose first edge is in `seeds`.

    A cycle is rooted at the lowest vertex of its set and grows only above it;
    it closes when the edge back to the root differs from both the incoming
    and the first colour.  A path may stop anywhere and holds the first colour
    at 0.  The search stops as soon as it reaches order n.

    Returns (order, witness vertices, exact, nodes); the order is 0 and the
    witness None when nothing closes.  Out of budget, exact is False and the
    result keeps the best first edge whose search finished.
    """
    n, k = g.n, g.k
    rows = g.rows
    full = (1 << n) - 1
    meter = _Meter(budget)
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
    return best, witness, exact, meter.nodes


def _existence(g: ColouredComplete, found, certificate) -> OracleResult:
    """An oracle answer from a `_search` result: spanning order, exhausted, or neither."""
    order, witness, exact, nodes = found
    if order == g.n:
        return OracleResult(SearchStatus.EXISTS, _verified(g, certificate(witness)), nodes)
    return OracleResult(SearchStatus.NOT_EXISTS if exact else SearchStatus.EXHAUSTED, None, nodes)


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
    found = _search(g, budget, True, n, ((0, v) for v in range(1, n)))
    return _existence(g, found, ham_cycle_certificate)


def exact_pc_ham_path(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian path."""
    n = g.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    found = _search(g, budget, False, n, itertools.permutations(range(n), 2))
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
    order, witness, exact, nodes = _search(g, budget, True, 3, itertools.combinations(range(n), 2))
    return ExtremalResult(order, None if witness is None else DirectedCycle(witness), exact, nodes)


def longest_pc_path(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum order of a PC path (at least 2 for n >= 2), with a witness."""
    n = g.n
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    order, witness, exact, nodes = _search(g, budget, False, 2, itertools.permutations(range(n), 2))
    if witness is None:
        # out of budget before the first seed finished: any edge is a PC path
        order, witness = 2, (0, 1)
    return ExtremalResult(order, DirectedPath(witness), exact, nodes)
