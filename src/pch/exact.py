"""Exhaustive oracles for properly coloured structures at small n.

These are the ground truth for every heuristic: memoized state-space searches
over (visited-set, last vertex, incoming colour [, first colour]) states.  A
"not exists" answer is definitive; running out of budget is reported as a
distinct outcome, never conflated with non-existence.
"""

from __future__ import annotations

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
        self.deadline = time.monotonic() + b.time_limit if b.time_limit else None

    def tick(self):
        self.nodes += 1
        if self.nodes > self.limit:
            raise _OutOfBudget
        if self.deadline is not None and self.nodes % 4096 == 0:
            if time.monotonic() > self.deadline:
                raise _OutOfBudget


def _verified(g, cert: Certificate) -> Certificate:
    out = verify_certificate(g, cert)
    assert out.valid, f"oracle produced an invalid certificate: {out.reason}"
    return out


# ---------------------------------------------------------------------------
# Hamiltonian cycle
# ---------------------------------------------------------------------------

def exact_pc_ham_cycle(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian cycle.

    States are (visited set, last vertex, incoming colour, first-edge colour)
    with the start fixed at vertex 0; memoisation makes the search complete
    even on adversarial two-colourings.
    """
    n, k = g.n, g.k
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rows = g.rows
    full = (1 << n) - 1
    meter = _Meter(budget)
    # memo value: next vertex to move to, -2 for "close now", -1 for dead end
    memo: dict[int, int] = {}

    def key(mask: int, last: int, in_c: int, first_c: int) -> int:
        return ((mask * n + last) * k + in_c) * k + first_c

    def extend(mask: int, last: int, in_c: int, first_c: int) -> bool:
        if mask == full:
            c = rows[last][0]
            return c != in_c and c != first_c
        ky = key(mask, last, in_c, first_c)
        hit = memo.get(ky)
        if hit is not None:
            return hit != -1
        meter.tick()
        row = rows[last]
        for u in range(1, n):
            if mask >> u & 1:
                continue
            c = row[u]
            if c == in_c:
                continue
            if extend(mask | (1 << u), u, c, first_c):
                memo[ky] = u
                return True
        memo[ky] = -1
        return False

    def reconstruct(v0: int) -> list[int]:
        path = [0, v0]
        mask = 1 | (1 << v0)
        in_c = rows[0][v0]
        first_c = in_c
        while mask != full:
            ky = key(mask, path[-1], in_c, first_c)
            nxt = memo.get(ky)
            if nxt is None or nxt < 0:
                # the winning move was found before memoisation kicked in; re-derive
                row = rows[path[-1]]
                for u in range(1, n):
                    if not (mask >> u & 1) and row[u] != in_c and extend(mask | (1 << u), u, row[u], first_c):
                        nxt = u
                        break
            assert nxt is not None and nxt >= 0
            path.append(nxt)
            in_c = rows[path[-2]][nxt]
            mask |= 1 << nxt
        return path

    try:
        for v0 in range(1, n):
            c0 = rows[0][v0]
            if extend(1 | (1 << v0), v0, c0, c0):
                cyc = reconstruct(v0)
                cert = _verified(g, ham_cycle_certificate(cyc))
                return OracleResult(SearchStatus.EXISTS, cert, meter.nodes)
    except _OutOfBudget:
        return OracleResult(SearchStatus.EXHAUSTED, None, meter.nodes)
    return OracleResult(SearchStatus.NOT_EXISTS, None, meter.nodes)


# ---------------------------------------------------------------------------
# Hamiltonian path
# ---------------------------------------------------------------------------

def exact_pc_ham_path(g: ColouredComplete, budget: SearchBudget | None = None) -> OracleResult:
    """Definitive search for a properly coloured Hamiltonian path."""
    n, k = g.n, g.k
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n == 2:
        cert = _verified(g, ham_path_certificate((0, 1)))
        return OracleResult(SearchStatus.EXISTS, cert, 0)
    rows = g.rows
    full = (1 << n) - 1
    meter = _Meter(budget)
    memo: dict[int, int] = {}

    def key(mask: int, last: int, in_c: int) -> int:
        return (mask * n + last) * k + in_c

    def extend(mask: int, last: int, in_c: int) -> bool:
        if mask == full:
            return True
        ky = key(mask, last, in_c)
        hit = memo.get(ky)
        if hit is not None:
            return hit != -1
        meter.tick()
        row = rows[last]
        for u in range(n):
            if mask >> u & 1:
                continue
            c = row[u]
            if c == in_c:
                continue
            if extend(mask | (1 << u), u, c):
                memo[ky] = u
                return True
        memo[ky] = -1
        return False

    def reconstruct(a: int, b: int) -> list[int]:
        path = [a, b]
        mask = (1 << a) | (1 << b)
        in_c = rows[a][b]
        while mask != full:
            ky = key(mask, path[-1], in_c)
            nxt = memo.get(ky)
            if nxt is None or nxt < 0:
                row = rows[path[-1]]
                for u in range(n):
                    if not (mask >> u & 1) and row[u] != in_c and extend(mask | (1 << u), u, row[u]):
                        nxt = u
                        break
            assert nxt is not None and nxt >= 0
            path.append(nxt)
            in_c = rows[path[-2]][nxt]
            mask |= 1 << nxt
        return path

    try:
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                if extend((1 << a) | (1 << b), b, rows[a][b]):
                    cert = _verified(g, ham_path_certificate(reconstruct(a, b)))
                    return OracleResult(SearchStatus.EXISTS, cert, meter.nodes)
    except _OutOfBudget:
        return OracleResult(SearchStatus.EXHAUSTED, None, meter.nodes)
    return OracleResult(SearchStatus.NOT_EXISTS, None, meter.nodes)


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
    """Maximum length of a PC cycle (0 if none), with a witness."""
    n, k = g.n, g.k
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    rows = g.rows
    meter = _Meter(budget)
    # memo value: (best closable total length from this state, action); action is
    # the next vertex, -2 to close immediately, -1 if nothing closes
    memo: dict[int, tuple[int, int]] = {}
    best_overall = 0
    best_state: tuple | None = None  # seed (s, v) achieving best_overall

    def key(mask: int, last: int, in_c: int, first_c: int) -> int:
        return ((mask * n + last) * k + in_c) * k + first_c

    def search(mask: int, last: int, in_c: int, first_c: int, size: int) -> int:
        ky = key(mask, last, in_c, first_c)
        hit = memo.get(ky)
        if hit is not None:
            return hit[0] + size if hit[0] >= 0 else 0
        meter.tick()
        s = (mask & -mask).bit_length() - 1
        best = -1  # best extra length beyond current size, relative
        act = -1
        close_c = rows[last][s]
        if size >= 3 and close_c != in_c and close_c != first_c:
            best = 0
            act = -2
        row = rows[last]
        for u in range(s + 1, n):
            if mask >> u & 1:
                continue
            c = row[u]
            if c == in_c:
                continue
            got = search(mask | (1 << u), u, c, first_c, size + 1)
            if got and got - size > best:
                best = got - size
                act = u
        memo[ky] = (best, act)
        return best + size if best >= 0 else 0

    try:
        for s in range(n):
            for v in range(s + 1, n):
                c0 = rows[s][v]
                got = search((1 << s) | (1 << v), v, c0, c0, 2)
                if got > best_overall:
                    best_overall = got
                    best_state = (s, v)
        exact = True
    except _OutOfBudget:
        exact = False

    witness = None
    if best_state is not None:
        s, v = best_state
        seq = [s, v]
        mask = (1 << s) | (1 << v)
        in_c = rows[s][v]
        first_c = in_c
        while True:
            _, act = memo[key(mask, seq[-1], in_c, first_c)]
            if act == -2:
                break
            seq.append(act)
            in_c = rows[seq[-2]][act]
            mask |= 1 << act
        witness = DirectedCycle(tuple(seq))
    return ExtremalResult(best_overall, witness, exact, meter.nodes)


def longest_pc_path(g: ColouredComplete, budget: SearchBudget | None = None) -> ExtremalResult:
    """Maximum order of a PC path (at least 2 for n >= 2), with a witness."""
    n, k = g.n, g.k
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rows = g.rows
    meter = _Meter(budget)
    # memo value: (best final order reachable from this state, next vertex or -1)
    memo: dict[int, tuple[int, int]] = {}
    best_overall = 0
    best_state: tuple | None = None

    def key(mask: int, last: int, in_c: int) -> int:
        return (mask * n + last) * k + in_c

    def search(mask: int, last: int, in_c: int, size: int) -> int:
        ky = key(mask, last, in_c)
        hit = memo.get(ky)
        if hit is not None:
            return hit[0]
        meter.tick()
        best = size
        act = -1
        row = rows[last]
        for u in range(n):
            if mask >> u & 1:
                continue
            c = row[u]
            if c == in_c:
                continue
            got = search(mask | (1 << u), u, c, size + 1)
            if got > best:
                best = got
                act = u
        memo[ky] = (best, act)
        return best

    try:
        for a in range(n):
            for b in range(a + 1, n):
                got = search((1 << a) | (1 << b), b, rows[a][b], 2)
                if got > best_overall:
                    best_overall = got
                    best_state = (a, b)
        exact = True
    except _OutOfBudget:
        exact = False

    witness = None
    if best_state is not None:
        a, b = best_state
        seq = [a, b]
        mask = (1 << a) | (1 << b)
        in_c = rows[a][b]
        while True:
            _, act = memo[key(mask, seq[-1], in_c)]
            if act < 0:
                break
            seq.append(act)
            in_c = rows[seq[-2]][act]
            mask |= 1 << act
        witness = DirectedPath(tuple(seq))
    return ExtremalResult(best_overall, witness, exact, meter.nodes)
