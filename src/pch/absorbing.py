"""Absorbing paths, end-joining, the absorbing cycle and its universality audit.

An order-4 PC path z1 z2 z3 z4 is absorbing for an ordered quadruple
(x1, x2; y1, y2) of distinct vertices when it avoids the quadruple and both
z1 z2 x1 x2 and y1 y2 z3 z4 are PC paths.  Such a path can swallow any PC path
running from the edge x1 x2 to the edge y1 y2: splice the path between z2 and
z3 and every junction stays proper.

The absorbing cycle stitches a few random disjoint PC 4-paths (its family)
together with short connector paths into one PC cycle.  It has to absorb only
one spanning path of the rest, whose end quadruple the pipeline steers by
reversing the path and by growing fresh greedy paths.  A family that absorbs
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
from pch.rotations import _grow_path


class AbsorptionError(RuntimeError):
    """A splice or stitch broke its own guarantee: a member not embedded
    forward, a lost vertex or lost properness.  A bug, never an outcome."""


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

    One numpy pass over every middle edge (z2, z3) of the m = n - 4 outside
    vertices at once: the two gates pick the z2 rows and z3 columns of one
    middle-colour matrix, whose diagonal is masked off; the choices of z1
    and of z4 come from the per-row colour histograms of the outside block,
    and the pairs with z1 = z4 from a boolean (z2, z3, z) cube summed over z.
    The cube is built a block of z2 rows at a time, so that no temporary has
    more than about 2^20 cells at any n.  A quadruple of other than 4
    vertices, or with an id outside 0..n-1, is a ValueError; one with a
    repeated vertex has no absorbing tuple, as in `enumerate_absorbing`.
    The enumeration is the slow cross-check.
    """
    quad = tuple(quad)
    if len(quad) != 4:
        raise ValueError(f"need an ordered quadruple, got {len(quad)} vertices")
    for v in quad:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    m = g.n - 4
    if len(set(quad)) != 4 or m < 4:
        return 0
    x1, x2, y1, y2 = quad
    C = g.matrix
    ext = np.delete(np.arange(g.n), quad)
    Cx = C[np.ix_(ext, ext)]                      # colours among outside vertices, -1 on the diagonal
    a = C[ext, x1]                                # colour(z, x1)
    b = C[ext, y2]                                # colour(z, y2)
    cnts = colour_counts(Cx, g.k)
    # z1 z2 x1 x2 needs c(z2, x1) != c(x1, x2); y1 y2 z3 z4 needs c(y2, z3) != c(y1, y2)
    i2 = np.flatnonzero(a != C[x1, x2])
    i3 = np.flatnonzero(b != C[y1, y2])
    if not len(i2) or not len(i3):
        return 0
    mid = Cx[np.ix_(i2, i3)]                      # colour(z2, z3) on the middle edges
    valid = i2[:, None] != i3[None, :]
    safe = np.where(valid, mid, 0)                # the diagonal's -1 made an index
    a2, b3 = a[i2], b[i3]
    # z1 avoids colours {c(z2, x1), c(z2, z3)} towards z2; z3 falls out by its colour
    n1 = (m - 1) - cnts[i2, a2][:, None] - np.where(
        mid != a2[:, None], np.take_along_axis(cnts[i2], safe, axis=1), 0)
    # z4 avoids colours {c(z2, z3), c(z3, y2)} towards z3; z2 falls out by its colour
    n4 = (m - 1) - np.take_along_axis(cnts[i3], safe.T, axis=1).T - np.where(
        mid != b3[None, :], cnts[i3, b3][None, :], 0)
    # z eligible as both z1 and z4 was counted twice in n1 * n4
    row2, row3 = Cx[i2], Cx[i3]
    ok1 = row2 != a2[:, None]
    ok4 = row3 != b3[:, None]
    step = max(1, 2 ** 20 // (len(i3) * m))
    n14 = np.empty_like(n1)
    for lo in range(0, len(i2), step):
        hi = lo + step
        c = safe[lo:hi, :, None]
        both = row2[lo:hi, None, :] != c
        both &= row3[None, :, :] != c
        both &= ok1[lo:hi, None, :]
        both &= ok4[None, :, :]
        n14[lo:hi] = np.count_nonzero(both, axis=2)
    return int(np.sum(n1 * n4 - n14, where=valid))


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
    64 members and a member that is not a PC path of 4 distinct vertices of
    g.  The check is exact: member j absorbs (x1, x2; y1, y2) iff
    bit j is set in both the left mask of (x1, x2) and the right mask of
    (y1, y2) (see `_pair_table`).  Each side groups the m(m - 1) ordered
    outside pairs by mask.  Coverage is the fraction of (left pair, right
    pair) combinations whose masks meet, overlapping vertices included.  For
    every combination of masks that do not meet, the pairs of both groups
    are searched for four distinct vertices, exactly and with no budget.
    Returns (ok, coverage, an uncovered quadruple or None).
    """
    for mb in members:
        if len(mb) != 4 or len(set(mb)) != 4 or not is_properly_coloured_path(g, mb):
            raise ValueError(f"member {tuple(mb)} is not a PC path of 4 distinct vertices of 0..{g.n - 1}")
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
    scanning the vertex ids in ascending order, skipping the anchors and
    `avoid`, so the first path found is the least of the shortest order.  A
    state (vertex, arriving colour, vertices left) that fails is memoised
    with the vertices of the partial path that kept a candidate out anywhere
    below it: the failure holds on every partial path through them, in every
    order.  Returns None when no order within the cap admits a path (a
    legitimate outcome, not an error).  The anchors are checked through
    ``g.colour``; the search reads ``g.rows``.
    """
    ends = (v1, v2, v1p, v2p)
    if len(set(ends)) != 4:
        raise ValueError("the four anchor vertices must be distinct")
    blocked = set(avoid) | set(ends)
    c_in = g.colour(v1, v2)
    c_out = g.colour(v1p, v2p)
    rows, n = g.rows, g.n
    into_v1p = rows[v1p]
    dead: dict[tuple[int, int, int], int] = {}  # failed state -> mask of the path vertices it needs
    path: list[int] = []

    def dfs(prev: int, prev_c: int, depth: int, mask: int) -> int | None:
        """Place `depth` more vertices after `prev`, off the path's vertex
        `mask`: None once the join is found, else the failure's mask."""
        why = 0
        row = rows[prev]
        for u in range(n):
            if u == prev or u in blocked:
                continue
            c = row[u]
            if c == prev_c:
                continue
            if depth == 1:
                closing = into_v1p[u]
                if closing == c or closing == c_out:
                    continue
            else:
                known = dead.get((u, c, depth - 1))
                if known is not None and known & ~mask == 0:
                    why |= known
                    continue
            if mask >> u & 1:  # only the path keeps u out
                why |= 1 << u
                continue
            path.append(u)
            if depth == 1:
                return None
            below = dfs(u, c, depth - 1, mask | 1 << u)
            if below is None:
                return None
            path.pop()
            why |= below & ~(1 << u)
        dead[prev, prev_c, depth] = why
        return why

    for order in range(2, max_len + 1):
        if dfs(v2, c_in, order, 0) is None:
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


# attempts at drawing and stitching a family, and the longest join between
# consecutive members
RETRY_BUDGET = 25
JOIN_MAX_LEN = 6


@dataclass
class BuildResult:
    cycle: AbsorbingCycle | None
    failed_stage: str | None
    attempts: int = 0

    @property
    def success(self) -> bool:
        return self.cycle is not None


def _draw_family(g, rng: random.Random, size: int) -> tuple[tuple[int, ...], ...] | None:
    """`size` random disjoint PC 4-paths, or None when a member gets stuck.
    Each is a start popped from one shared list of free vertices, grown at
    its right end to order 4 by `_grow_path` on that list."""
    members = []
    free = list(range(g.n))
    for _ in range(size):
        start = free.pop(rng.randrange(len(free)))
        path = _grow_path(g, rng, start, free, left=False, order=4)
        if len(path) < 4:
            return None
        members.append(tuple(path))
    return tuple(members)


def build_absorbing_cycle(g, family_size: int = 3, seed: int = 0) -> BuildResult:
    """Draw disjoint PC 4-paths and stitch them into one PC cycle.

    Each attempt draws `family_size` members, then connects consecutive
    members P_j, P_{j+1} (cyclically) by a path joining the last two vertices
    of P_j to the first two of P_{j+1}, avoiding everything already placed.
    A failed draw ("family") or join ("join:j") abandons the attempt; fresh
    randomness is used until the retry budget runs out.  A stitched cycle
    that fails its final check is a bug (`AbsorptionError`): members are PC
    4-paths and `join_ends` checks each junction.  No member has to absorb
    any given quadruple: the pipeline steers its path until one does.
    """
    if family_size < 1:
        raise ValueError(f"family size must be >= 1, got {family_size}")
    if g.n < family_size * 4 + 4:
        raise ValueError(f"n={g.n} too small for a family of {family_size} disjoint 4-paths")
    rng = random.Random(seed)
    last_stage = "family"
    for attempt in range(1, RETRY_BUDGET + 1):
        members = _draw_family(g, rng, family_size)
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
                max_len=JOIN_MAX_LEN,
            )
            if q is None:
                last_stage = f"join:{j}"
                break
            connectors.append(q)
            used.update(q.vertices)
        else:
            cycle = DirectedCycle(tuple(v for mb, q in zip(members, connectors) for v in mb + q.vertices))
            if not is_properly_coloured_cycle(g, cycle):
                raise AbsorptionError("stitched absorbing cycle is not properly coloured")
            return BuildResult(AbsorbingCycle(cycle, members, tuple(connectors)), None, attempt)
    return BuildResult(None, last_stage, RETRY_BUDGET)


def absorbing_member(g, ac: AbsorbingCycle, quad):
    """The first family member of `ac` that absorbs `quad`, or None."""
    return next((mb for mb in ac.family if is_absorbing(g, quad, mb)), None)


def _splice(ac: AbsorbingCycle, member, vertices: tuple[int, ...]) -> DirectedCycle:
    """The cycle of `ac` with `vertices` between the second and third
    vertices of `member`, unchecked: the caller checks the result."""
    cv = ac.cycle.vertices
    i2 = cv.index(member[1])
    if cv[(i2 + 1) % len(cv)] != member[2]:
        raise AbsorptionError("family member not embedded forward in the cycle")
    return type(ac.cycle).unchecked(cv[: i2 + 1] + vertices + cv[i2 + 1 :])


def absorb_path(g, ac: AbsorbingCycle, p: DirectedPath) -> DirectedCycle | None:
    """Splice a disjoint PC path of order >= 4 into the absorbing cycle.

    The first family member absorbing (p1, p2; p_last-1, p_last) takes the
    path between its second and third vertices; the result is a PC cycle on
    exactly the union of the vertex sets.  Returns None when no member
    absorbs the path, a legitimate outcome: the caller may reverse the path
    or try another one.
    """
    vs = p.vertices
    if len(vs) < 4:
        raise ValueError(f"path order {len(vs)} below 4")
    if not is_properly_coloured_path(g, p):
        raise ValueError("path is not properly coloured")
    cyc_set = set(ac.cycle.vertices)
    if cyc_set & set(vs):
        raise ValueError("path intersects the absorbing cycle")
    member = absorbing_member(g, ac, (vs[0], vs[1], vs[-2], vs[-1]))
    if member is None:
        return None
    out = DirectedCycle(_splice(ac, member, vs).vertices)
    if set(out.vertices) != cyc_set | set(vs):
        raise AbsorptionError("absorption changed the vertex set")
    if not is_properly_coloured_cycle(g, out):
        raise AbsorptionError("absorption broke properness")
    return out
