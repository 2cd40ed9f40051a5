"""Absorbing paths, end-joining, the absorbing cycle and its universality audit.

An order-4 PC path z1 z2 z3 z4 is absorbing for an ordered quadruple
(x1, x2; y1, y2) of distinct vertices when it avoids the quadruple and both
z1 z2 x1 x2 and y1 y2 z3 z4 are PC paths.  Such a path can swallow any PC path
running from the edge x1 x2 to the edge y1 y2: splice the path between z2 and
z3 and every junction stays proper.

The absorbing cycle stitches a few random disjoint PC 4-paths (its family)
together with short connector paths into one PC cycle.  It has to absorb only
the one spanning path the pipeline produces, whose end quadruple the pipeline
steers by reversing the path and rotating its ends.  A family that absorbs
every ordered quadruple of the vertices outside it is universal;
`verify_family_universality` checks that exactly, as an audit.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

import numpy as np

from pch.ec_graph import (
    DirectedCycle,
    DirectedPath,
    colour_counts,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
)


class AbsorptionError(RuntimeError):
    """A splice broke its own guarantee: the member was not embedded forward,
    or the result lost a vertex or properness.  A bug, never an outcome."""


# ---------------------------------------------------------------------------
# the absorbing predicate and exact counting
# ---------------------------------------------------------------------------

def is_absorbing(g, quad, path4) -> bool:
    """Check the three absorbing conditions exactly.

    Repeats inside the 8 vertices make the answer False, not an error; ids
    outside the graph are a usage error.
    """
    quad = tuple(quad)
    zs = tuple(path4)
    if len(quad) != 4 or len(zs) != 4:
        raise ValueError("need an ordered quadruple and an order-4 path")
    for v in quad + zs:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if len(set(quad)) != 4 or len(set(zs)) != 4:
        return False
    if set(quad) & set(zs):
        return False
    x1, x2, y1, y2 = quad
    z1, z2, z3, z4 = zs
    return (
        is_properly_coloured_path(g, (z1, z2, z3, z4))
        and is_properly_coloured_path(g, (z1, z2, x1, x2))
        and is_properly_coloured_path(g, (y1, y2, z3, z4))
    )


def enumerate_absorbing(g, quad):
    """Lazily yield every absorbing 4-tuple for the quadruple (brute force)."""
    rest = [v for v in range(g.n) if v not in set(quad)]
    for zs in itertools.permutations(rest, 4):
        if is_absorbing(g, quad, zs):
            yield zs


def count_absorbing(g, quad) -> int:
    """Exact number of absorbing 4-tuples for the quadruple.

    Counts pairs (z1, z4) around each middle edge (z2, z3) by colour
    histograms instead of enumerating all (n-4)^4 tuples; the enumeration
    variant above is the slow cross-check.
    """
    if g.n < 8:
        return sum(1 for _ in enumerate_absorbing(g, quad))
    x1, x2, y1, y2 = quad
    C = g.matrix
    k = g.k
    ext = np.array([v for v in range(g.n) if v not in set(quad)], dtype=np.intp)
    m = len(ext)
    Cx = C[np.ix_(ext, ext)]                      # colours among outside vertices
    a = C[ext, x1]                                # colour(z, x1)
    b = C[ext, y2]                                # colour(z, y2)
    gate2 = a != C[x1, x2]                        # z1 z2 x1 x2 needs c(z2,x1) != c(x1,x2)
    gate3 = b != C[y1, y2]                        # y1 y2 z3 z4 needs c(y2,z3) != c(y1,y2)

    cnts = colour_counts(Cx, k)                   # per-row colour counts over outside vertices

    idx = np.arange(m)
    total = 0
    for i2 in range(m):
        if not gate2[i2]:
            continue
        a2 = int(a[i2])
        row2 = Cx[i2]                             # colour(z2, z) over outside z
        mcol = row2                               # colour(z2, z3) as z3 varies
        safe = np.where(mcol >= 0, mcol, 0)
        # z1 must avoid colours {a2, c(z2,z3)} towards z2; z3 and z2 fall out
        # automatically because their colours towards z2 sit in the avoided set
        n1 = (m - 1) - cnts[i2, a2] - np.where(mcol != a2, cnts[i2, safe], 0)
        # z4 must avoid colours {c(z2,z3), c(z3,y2)} towards z3
        n4 = (m - 1) - np.take_along_axis(cnts, safe[:, None], axis=1)[:, 0]
        n4 = n4 - np.where(b != mcol, np.take_along_axis(cnts, np.where(b >= 0, b, 0)[:, None], axis=1)[:, 0], 0)
        # overlap: z eligible as both z1 and z4 was double counted in n1*n4
        zok1 = row2 != a2
        both = (
            zok1[None, :]
            & (row2[None, :] != mcol[:, None])
            & (Cx != mcol[:, None])
            & (Cx != b[:, None])
        )
        n14 = both.sum(axis=1)
        valid3 = gate3 & (idx != i2)
        total += int(np.sum(np.where(valid3, n1 * n4 - n14, 0)))
    return total


# ---------------------------------------------------------------------------
# the universality audit
# ---------------------------------------------------------------------------

MASK_MEMBERS = 64


def _pair_table(g, members, out):
    """The left and right member masks of the ordered pairs of outside vertices.

    Bit j of the left mask of (a, b) says member z1 z2 z3 z4 avoids a and b
    and z1 z2 a b is PC: c(a, z2) != c(z1, z2) and c(a, b) != c(a, z2).  Bit
    j of the right mask says it avoids them and a b z3 z4 is PC: c(b, z3) !=
    c(z3, z4) and c(a, b) != c(b, z3).  Both tables are m x m, diagonal unused.
    """
    if len(members) > MASK_MEMBERS:
        raise ValueError(f"exact check takes at most {MASK_MEMBERS} members, got {len(members)}")
    C = g.matrix
    zs = np.array(members, dtype=np.intp)
    bits = np.left_shift(np.uint64(1), np.arange(len(zs), dtype=np.uint64))
    free = (out[:, None, None] != zs[None]).all(axis=2)        # member j avoids out[a]
    c2, c3 = C[np.ix_(out, zs[:, 1])], C[np.ix_(out, zs[:, 2])]

    def bitset(cells):
        return np.bitwise_or.reduce(np.where(cells, bits, np.uint64(0)), axis=1)

    F = bitset(free)
    left = bitset(free & (c2 != C[zs[:, 0], zs[:, 1]]))[:, None] & F[None, :]
    right = F[:, None] & bitset(free & (c3 != C[zs[:, 2], zs[:, 3]]))[None, :]
    block = C[np.ix_(out, out)]
    for j, bit in enumerate(bits):
        np.bitwise_and(left, ~bit, out=left, where=block == c2[:, j, None])
        np.bitwise_and(right, ~bit, out=right, where=block == c3[None, :, j])
    return left, right


def _pairs(chosen, m):
    """The ordered pairs (a, b) of outside indices at the true entries of
    `chosen`, which runs over the m(m - 1) pairs with a != b row by row."""
    a, r = np.divmod(np.flatnonzero(chosen), m - 1)
    return a, r + (r >= a)


def _disjoint(left, right, m):
    """Pairs (a, b) from `left` and (c, d) from `right` on four distinct
    vertices, or None.  For each left pair, count the right pairs that share
    a vertex with it."""
    (a, b), (c, d) = left, right
    deg = np.bincount(c, minlength=m) + np.bincount(d, minlength=m)
    key = c * m + d
    touch = deg[a] + deg[b] - np.isin(a * m + b, key) - np.isin(b * m + a, key)
    found = np.flatnonzero(touch < len(c))
    if not len(found):
        return None
    x, y = a[found[0]], b[found[0]]
    j = np.flatnonzero((c != x) & (c != y) & (d != x) & (d != y))[0]
    return x, y, c[j], d[j]


def verify_family_universality(g, members, outside=None):
    """Check that some member absorbs every ordered quadruple of `outside` vertices.

    `outside` defaults to the vertices not used by the family; a repeated
    vertex or an id outside the graph raises ValueError, and so do more than
    64 members.  The check is exact: member j absorbs (x1, x2; y1, y2) iff
    bit j is set in both the left mask of (x1, x2) and the right mask of
    (y1, y2) (see `_pair_table`).  Each side groups the m(m - 1) ordered
    outside pairs by mask.  Coverage is the fraction of (left pair, right
    pair) combinations whose masks meet, overlapping vertices included.  For
    every combination of masks that do not meet, the pairs of both groups
    are searched for four distinct vertices, exactly and with no budget.
    Returns (ok, coverage, an uncovered quadruple or None).
    """
    used = {v for mb in members for v in mb}
    if outside is None:
        outside = [v for v in range(g.n) if v not in used]
    outside = sorted(outside)
    for v in outside:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if len(set(outside)) != len(outside):
        raise ValueError("outside repeats a vertex")
    if len(outside) < 4:
        return True, 1.0, None
    if not members:
        return False, 0.0, tuple(outside[:4])
    out = np.array(outside, dtype=np.intp)
    m = len(out)
    left, right = _pair_table(g, members, out)
    offdiag = ~np.eye(m, dtype=bool)
    lmasks, linv, lcounts = np.unique(left[offdiag], return_inverse=True, return_counts=True)
    rmasks, rinv, rcounts = np.unique(right[offdiag], return_inverse=True, return_counts=True)
    meets = (lmasks[:, None] & rmasks[None, :]) != 0   # some member absorbs this mask pair
    if meets.all():
        return True, 1.0, None
    # pair-level covered fraction (combinations sharing a vertex included)
    coverage = int(lcounts @ meets @ rcounts) / (m * (m - 1)) ** 2
    for i, j in zip(*np.nonzero(~meets)):
        quad = _disjoint(_pairs(linv == i, m), _pairs(rinv == j, m), m)
        if quad is not None:
            return False, coverage, tuple(int(out[v]) for v in quad)
    # every combination that no member absorbs shares a vertex
    return True, 1.0, None


# ---------------------------------------------------------------------------
# joining ends
# ---------------------------------------------------------------------------

def join_ends(
    g,
    v1: int,
    v2: int,
    v1p: int,
    v2p: int,
    avoid=frozenset(),
    max_len: int = 8,
) -> DirectedPath | None:
    """Find a path P of order 2..max_len with v1 v2 P v1' v2' properly coloured.

    Iterative deepening over the order; within one order a depth-limited DFS
    with (vertex, arriving colour, depth) failure memoisation, scanning
    candidates in ascending order for reproducibility.  Returns None when no
    order within the cap admits a path (a legitimate outcome, not an error).
    """
    ends = (v1, v2, v1p, v2p)
    if len(set(ends)) != 4:
        raise ValueError("the four anchor vertices must be distinct")
    blocked = set(avoid) | set(ends)
    pool = [v for v in range(g.n) if v not in blocked]
    c_in = g.colour(v1, v2)
    c_out = g.colour(v1p, v2p)

    for order in range(2, max_len + 1):
        dead: set[tuple[int, int, int]] = set()
        path: list[int] = []

        def dfs(prev: int, prev_c: int, depth: int) -> bool:
            # depth = vertices still to place
            state = (prev, prev_c, depth)
            if state in dead:
                return False
            for u in pool:
                if u in path:
                    continue
                c = g.colour(prev, u)
                if c == prev_c:
                    continue
                if depth == 1:
                    closing = g.colour(u, v1p)
                    if closing != c and closing != c_out:
                        path.append(u)
                        return True
                    continue
                path.append(u)
                if dfs(u, c, depth - 1):
                    return True
                path.pop()
            dead.add(state)
            return False

        if dfs(v2, c_in, order):
            if not is_properly_coloured_path(g, (v1, v2, *path, v1p, v2p)):
                raise RuntimeError("join produced an improper concatenation")
            return DirectedPath(tuple(path))
    return None


# ---------------------------------------------------------------------------
# the absorbing cycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AbsorbingCycle:
    cycle: DirectedCycle
    family: tuple[tuple[int, int, int, int], ...]
    connectors: tuple[DirectedPath, ...]


@dataclass(frozen=True)
class BuildParams:
    target_size: int = 3
    retry_budget: int = 25
    seed: int = 0
    join_max_len: int = 6


@dataclass
class BuildResult:
    cycle: AbsorbingCycle | None
    failed_stage: str | None
    attempts: int = 0

    @property
    def success(self) -> bool:
        return self.cycle is not None


def _draw_family(g, rng: random.Random, size: int) -> tuple[tuple[int, ...], ...] | None:
    """`size` random disjoint PC 4-paths, each grown one vertex at a time, or None."""
    members = []
    free = list(range(g.n))
    for _ in range(size):
        path = [rng.choice(free)]
        while len(path) < 4:
            end = g.rows[path[-1]]
            opts = [u for u in free if u not in path and (len(path) == 1 or end[u] != end[path[-2]])]
            if not opts:
                return None
            path.append(rng.choice(opts))
        members.append(tuple(path))
        free = [v for v in free if v not in path]
    return tuple(members)


def build_absorbing_cycle(g, params: BuildParams | None = None) -> BuildResult:
    """Draw disjoint PC 4-paths and stitch them into one PC cycle.

    Each attempt draws `target_size` members, then connects consecutive
    members P_j, P_{j+1} (cyclically) by a path joining the last two vertices
    of P_j to the first two of P_{j+1}, avoiding everything already placed.
    A failed draw ("family") or join ("join:j") abandons the attempt; fresh
    randomness is used until the retry budget runs out.  No member has to
    absorb any given quadruple: the pipeline steers its path until one does.
    """
    params = params or BuildParams()
    if g.n < params.target_size * 4 + 4:
        raise ValueError(f"n={g.n} too small for a family of {params.target_size} disjoint 4-paths")
    if params.retry_budget < 1:
        raise ValueError(f"need retry_budget >= 1, got {params.retry_budget}")
    rng = random.Random(params.seed)
    last_stage = "family"
    for attempt in range(1, params.retry_budget + 1):
        members = _draw_family(g, rng, params.target_size)
        if members is None:
            last_stage = "family"
            continue
        used = {v for mb in members for v in mb}
        connectors: list[DirectedPath] = []
        for j, mb in enumerate(members):
            nxt = members[(j + 1) % len(members)]
            q = join_ends(
                g, mb[2], mb[3], nxt[0], nxt[1],
                avoid=used - {mb[2], mb[3], nxt[0], nxt[1]},
                max_len=params.join_max_len,
            )
            if q is None:
                last_stage = f"join:{j}"
                break
            connectors.append(q)
            used.update(q.vertices)
        else:
            cycle = DirectedCycle(tuple(v for mb, q in zip(members, connectors) for v in mb + q.vertices))
            if is_properly_coloured_cycle(g, cycle):
                return BuildResult(AbsorbingCycle(cycle, members, tuple(connectors)), None, attempt)
            last_stage = "verify"
    return BuildResult(None, last_stage, params.retry_budget)


def absorb_path(g, ac: AbsorbingCycle, p: DirectedPath) -> DirectedCycle | None:
    """Splice a disjoint PC path of order >= 4 into the absorbing cycle.

    The first family member absorbing (p1, p2; p_last-1, p_last) takes the
    path between its second and third vertices; the result is a PC cycle on
    exactly the union of the vertex sets.  Returns None when no member
    absorbs the path, a legitimate outcome: the caller may reverse or
    rotate the path and try again.
    """
    vs = p.vertices
    if len(vs) < 4:
        raise ValueError(f"path order {len(vs)} below 4")
    if not is_properly_coloured_path(g, p):
        raise ValueError("path is not properly coloured")
    cyc_set = set(ac.cycle.vertices)
    if cyc_set & set(vs):
        raise ValueError("path intersects the absorbing cycle")
    quad = (vs[0], vs[1], vs[-2], vs[-1])
    member = next((mb for mb in ac.family if is_absorbing(g, quad, mb)), None)
    if member is None:
        return None
    z2, z3 = member[1], member[2]
    cv = list(ac.cycle.vertices)
    i2 = cv.index(z2)
    if cv[(i2 + 1) % len(cv)] != z3:
        raise AbsorptionError("family member not embedded forward in the cycle")
    merged = cv[: i2 + 1] + list(vs) + cv[i2 + 1 :]
    out = DirectedCycle(tuple(merged))
    if set(out.vertices) != cyc_set | set(vs):
        raise AbsorptionError("absorption changed the vertex set")
    if not is_properly_coloured_cycle(g, out):
        raise AbsorptionError("absorption broke properness")
    return out
