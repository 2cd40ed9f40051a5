"""Absorbing paths, end-joining, the absorbing cycle and its universality audit.

An order-4 PC path z1 z2 z3 z4 is absorbing for an ordered quadruple
(x1, x2; y1, y2) of distinct vertices when it avoids the quadruple and both
z1 z2 x1 x2 and y1 y2 z3 z4 are PC paths.  Such a path can swallow any PC path
running from the edge x1 x2 to the edge y1 y2: splice the path between z2 and
z3 and every junction stays proper.

`count_absorbing` counts those paths exactly from one same-colour bitset
table per graph, S[v, w] = {z != v : c(v, z) = c(v, w)}: with the two middle
vertices fixed, the choices of z1 and of z4 and their overlap are popcounts
of AND-NOTs of table rows.  The table is cached for the most recent graph
while it fits TABLE_CAP_BYTES; above that each call builds the rows it needs
a block at a time.

The absorbing cycle stitches a few random disjoint PC 4-paths (its family)
together with short connector paths into one PC cycle.  It has to absorb only
one spanning path of the rest, whose end quadruple the pipeline steers by
reversing the path and by growing fresh greedy paths.  A family that absorbs
every ordered quadruple of the vertices outside it is universal;
`verify_family_universality` checks that exactly, as an audit.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from pch.ec_graph import (
    DirectedCycle,
    DirectedPath,
    _check_vertices,
    _proper_walk,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
)
from pch.rotations import _grow_path


class AbsorptionError(RuntimeError):
    """A splice or stitch broke its own guarantee: a member not embedded
    forward, or a stitched cycle that is not properly coloured.  A bug,
    never an outcome."""


# ---------------------------------------------------------------------------
# the absorbing predicate and exact counting
# ---------------------------------------------------------------------------

def is_absorbing(g, quad, path4) -> bool:
    """Check the three absorbing conditions exactly.

    Repeats inside the 8 vertices make the answer False, not an error; an id
    that `_check_vertices` rejects is a ValueError.  The 8 ids are checked
    once, so each condition is one `_proper_walk`.
    """
    quad = tuple(quad)
    zs = tuple(path4)
    if len(quad) != 4 or len(zs) != 4:
        raise ValueError("need an ordered quadruple and an order-4 path")
    _check_vertices(g, quad + zs)
    if len(set(quad + zs)) != 8:
        return False
    x1, x2, y1, y2 = quad
    z1, z2, z3, z4 = zs
    return (
        _proper_walk(g.rows, zs)
        and _proper_walk(g.rows, (z1, z2, x1, x2))
        and _proper_walk(g.rows, (y1, y2, z3, z4))
    )


TABLE_CAP_BYTES = 2 ** 27
BLOCK_BYTES = 2 ** 20


def _bitsets(cells):
    """Pack a boolean array along its last axis, vertex z at bit z, into
    uint64 words with the word axis first: (..., n) -> (ceil(n / 64), ...)."""
    bits = np.packbits(cells, axis=-1, bitorder="little")
    padded = np.zeros(bits.shape[:-1] + (-(-bits.shape[-1] // 8) * 8,), dtype=np.uint8)
    padded[..., :bits.shape[-1]] = bits
    return np.moveaxis(padded.view("<u8"), -1, 0)


def _same_colour(C, rows, cols):
    """S[v, w] for v in `rows` and w in `cols`, shape (words, len(rows),
    len(cols)): the bitset of the vertices z != v with c(v, z) = c(v, w).
    S[v, v] is empty."""
    key = C[np.ix_(rows, cols)]
    key[key < 0] = -2                             # the diagonal's -1 matches no z
    return _bitsets(C[rows][:, None, :] == key[:, :, None])


@functools.lru_cache(maxsize=1)
def _same_colour_table(g):
    """S for every pair of vertices of g, built a block of rows at a time;
    read-only, and kept for the most recent graph only."""
    n = g.n
    verts = np.arange(n)
    table = np.empty((-(-n // 64), n, n), dtype=np.uint64)
    step = max(1, BLOCK_BYTES // (n * n))
    for lo in range(0, n, step):
        table[:, lo:lo + step] = _same_colour(g.matrix, verts[lo:lo + step], verts)
    table.setflags(write=False)
    return table


def _popcount(bits):
    """Set bits of each cell of a word-first bitset array, as int64."""
    counts = np.bitwise_count(bits[0]).astype(np.int64)
    for word in bits[1:]:
        counts += np.bitwise_count(word)
    return counts


def count_absorbing(g, quad) -> int:
    """Exact number of absorbing 4-tuples for the quadruple.

    The two gates pick the z2 and z3 candidates among the outside vertices:
    c(z2, x1) != c(x1, x2) and c(z3, y2) != c(y1, y2).  Every middle edge
    (z2, z3) then needs only bitsets of the graph's same-colour table S,
    where S[v, w] is the set of vertices z != v with c(v, z) = c(v, w).
    The choices of z1 are the outside vertices off S[z2, x1] and S[z2, z3],
    bar z2; those of z4 are off S[z3, y2] and S[z3, z2], bar z3; and the
    vertices in both sets were counted twice.  Each is a popcount.

    S takes n^2 * ceil(n / 64) uint64 words.  While that is at most
    TABLE_CAP_BYTES (up to n = 1024), it is built once per graph and
    cached, read-only, for the most recent graph only.  Above the cap each
    call builds just the rows that a block of z2 rows needs and keeps
    nothing.  Either way the middle edges are taken a block of z2 rows at a
    time, with no temporary much above BLOCK_BYTES.

    A quadruple of other than 4 vertices, or with an id that
    `_check_vertices` rejects, is a ValueError; one with a repeated vertex
    has no absorbing tuple.
    """
    quad = tuple(quad)
    if len(quad) != 4:
        raise ValueError(f"need an ordered quadruple, got {len(quad)} vertices")
    _check_vertices(g, quad)
    n = g.n
    if len(set(quad)) != 4 or n < 8:
        return 0
    x1, x2, y1, y2 = quad
    C = g.matrix
    outside = np.ones(n, dtype=bool)
    outside[list(quad)] = False
    v2 = np.flatnonzero(outside & (C[:, x1] != C[x1, x2]))
    v3 = np.flatnonzero(outside & (C[:, y2] != C[y1, y2]))
    if not len(v2) or not len(v3):
        return 0
    words = -(-n // 64)
    if n * n * words * 8 <= TABLE_CAP_BYTES:
        # one flat take per block: far faster than 2-d fancy indexing
        flat = _same_colour_table(g).reshape(words, n * n)

        def same(rows, cols):
            return flat.take(rows[:, None] * n + cols, axis=1)

        def same_t(rows, cols):                   # S[cols, rows], laid out (rows, cols)
            return flat.take(cols * n + rows[:, None], axis=1)

        depth = 8 * words                         # bytes per middle edge
    else:
        def same(rows, cols):
            return _same_colour(C, rows, cols)

        def same_t(rows, cols):
            return _same_colour(C, cols, rows).transpose(0, 2, 1)

        depth = n                                 # the boolean cells behind each one
    ext = _bitsets(outside)[:, None]
    left = ext & ~same(v2, np.array([x1]))[:, :, 0]
    right = ext & ~same(v3, np.array([y2]))[:, :, 0]
    step = max(1, BLOCK_BYTES // (len(v3) * depth))
    total = 0
    for lo in range(0, len(v2), step):
        rows = v2[lo:lo + step]
        z1 = same(rows, v3)                       # the z1 choices: z2 is in, z3 is out
        np.invert(z1, out=z1)
        z1 &= left[:, lo:lo + step, None]
        z4 = same_t(rows, v3)                     # the z4 choices: z3 is in, z2 is out
        np.invert(z4, out=z4)
        z4 &= right[:, None, :]
        pairs = _popcount(z1) - 1
        pairs *= _popcount(z4) - 1
        z1 &= z4
        pairs -= _popcount(z1)
        total += int(np.sum(pairs, where=rows[:, None] != v3))
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
    F = _bitsets(free)[0]
    left = _bitsets(free & (c2 != C[zs[:, 0], zs[:, 1]]))[0][:, None] & F[None, :]
    right = F[:, None] & _bitsets(free & (c3 != C[zs[:, 2], zs[:, 3]]))[0][None, :]
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
    vertex or an id that `_check_vertices` rejects raises ValueError, and so
    do more than 64 members and a member that is not a PC path of 4 distinct
    vertices of g.  The check is exact: member j absorbs (x1, x2; y1, y2) iff
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
    outside = [v for v in range(g.n) if v not in used] if outside is None else list(outside)
    _check_vertices(g, outside)
    outside = sorted(outside)
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
    legitimate outcome, not an error).  The anchors go through
    `_check_vertices`; their colours and the search read ``g.rows``.
    """
    ends = (v1, v2, v1p, v2p)
    _check_vertices(g, ends)
    if len(set(ends)) != 4:
        raise ValueError("the four anchor vertices must be distinct")
    blocked = set(avoid) | set(ends)
    rows, n = g.rows, g.n
    c_in = rows[v1][v2]
    c_out = rows[v1p][v2p]
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
