"""Chord rotations on properly coloured 1-path-cycles, and the 2-factor search.

A 1-path-cycle is a vertex-disjoint union of one directed path and any number
of cycles, properly coloured as a whole.  Its parameters (x, c_x; y, c_y) are
the path's endpoints together with the colours of the path edges at those
endpoints.  A chord is an edge yw with c(yw) != c_y; rotating along it rewires
the system while preserving its vertex set and properness, moving the right
end y to a neighbour of w.  The left end x is rotated as the right end of the
reversed system, ``sys.reverse()``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

from pch.ec_graph import (
    Certificate,
    DirectedCycle,
    DirectedPath,
    two_factor_certificate,
    verify_certificate,
)
from pch.exact import TutteBarrier, pc_two_factor_matching


@dataclass(frozen=True)
class PathCycleSystem:
    """One directed path plus vertex-disjoint cycles."""

    path: DirectedPath
    cycles: tuple[DirectedCycle, ...] = ()

    def vertices(self) -> tuple[int, ...]:
        out = list(self.path.vertices)
        for cyc in self.cycles:
            out.extend(cyc.vertices)
        return tuple(out)

    @property
    def order(self) -> int:
        return len(self.vertices())

    @cached_property
    def index(self) -> dict[int, tuple[int, int]]:
        """v -> (piece, position): piece -1 is the path, i >= 0 is ``cycles[i]``."""
        out = {v: (-1, i) for i, v in enumerate(self.path.vertices)}
        for c, cyc in enumerate(self.cycles):
            out.update((v, (c, i)) for i, v in enumerate(cyc.vertices))
        return out

    def reverse(self) -> PathCycleSystem:
        """The same system with its path walked the other way: the left end
        here is the right end there."""
        return PathCycleSystem(self.path.reverse(), self.cycles)


# ---------------------------------------------------------------------------
# chords and single rotations
# ---------------------------------------------------------------------------

def _right_chords(sys: PathCycleSystem, g):
    """The right chord targets, in ascending order: every system vertex w
    outside {y, x, x's path neighbour} with c(y, w) != c_y.  Leaving out x and
    its neighbour keeps the left end, its colour and a path of order >= 2
    through every rotation along them (`_rewire_right`)."""
    path = sys.path.vertices
    row = g.rows[path[-1]]
    c_y = row[path[-2]]
    skip = (path[-1], path[0], path[1])
    return (w for w in sorted(sys.index) if w not in skip and row[w] != c_y)


def _rewire_right(sys: PathCycleSystem, w: int, want: int) -> PathCycleSystem:
    """The right rotation along chord y-w that makes `want` the new endpoint;
    `want` must be one of ``rotation_targets(sys, g, w)``.  It rearranges the
    system's own vertices, so its paths and cycles skip the distinctness check."""
    path = sys.path.vertices
    piece, i = sys.index[w]
    if piece < 0:
        # chord into the path (2 <= i <= len-3 for a valid chord): the far
        # neighbour of w keeps everything on one path, the near one splits off
        # the tail as a cycle
        if want == path[i + 1]:
            return PathCycleSystem(DirectedPath.unchecked(path[: i + 1] + path[i + 1 :][::-1]), sys.cycles)
        return PathCycleSystem(DirectedPath.unchecked(path[:i]), sys.cycles + (DirectedCycle.unchecked(path[i:]),))
    # chord into a cycle: absorb the whole cycle into the path, walking off w
    # away from the new endpoint
    verts = sys.cycles[piece].vertices
    L = len(verts)
    step = -1 if want == verts[(i + 1) % L] else 1
    new_path = path + tuple(verts[(i + step * t) % L] for t in range(L))
    return PathCycleSystem(DirectedPath.unchecked(new_path), sys.cycles[:piece] + sys.cycles[piece + 1 :])


def rotation_targets(sys: PathCycleSystem, g, w: int) -> list[int]:
    """Achievable new right ends (neighbours of w) for the chord y-w.

    For a chord w from `_right_chords`, one or two of w's system neighbours
    qualify: exactly those u for which ``_rewire_right(sys, w, u)`` is a
    properly coloured system ending at u.  The one keeping the whole path
    intact comes first; a caller that needs one rotation takes it.  The
    colours are read from ``g.rows``: the system's vertices must be vertices
    of g, and a w outside the system is a KeyError.
    """
    piece, i = sys.index[w]
    row = g.rows[w]
    cew = row[sys.path.last]
    verts = sys.path.vertices if piece < 0 else sys.cycles[piece].vertices
    before, after = verts[i - 1], verts[(i + 1) % len(verts)]
    out = []
    if cew != row[before]:
        out.append(after)
    if cew != row[after]:
        out.append(before)
    return out


# ---------------------------------------------------------------------------
# greedy growth
# ---------------------------------------------------------------------------

# blind draws before a pick scans its candidates
_BLIND_DRAWS = 4
# greedy restarts of every maximal path: the 2-factor search's initial path
# and the pipeline's spanning paths
GREEDY_RESTARTS = 20


def _grow_path(g, rng: random.Random, start: int, cand: list[int], *, left=True, order=0) -> list[int]:
    """Greedily grow a PC path from `start` through the vertices of `cand`
    until both ends are stuck, or until it has `order` vertices if `order` > 0.

    The second vertex is a uniform draw from `cand`.  Then the right and
    left ends take turns (the right end alone when `left` is false), each
    removing a uniform random u with ``row[u] != avoid`` (the end's colour
    row, and the colour of the path edge there) from `cand` by swap-and-pop.
    A pick is a blind draw ``getrandbits(bits)``, rejected while it is at
    least ``size``, exactly as ``rng.randrange(size)`` draws; `bits` is kept
    equal to ``size.bit_length()`` as a running value that drops by one when
    ``size`` falls below ``1 << (bits - 1)``.  The first draw is inline; only
    when it misses do up to ``_BLIND_DRAWS - 1`` more draws follow, and then
    one scan that picks among the allowed ones with ``rng.choice``.  An end
    that finds nothing stays stuck, since its last edge is fixed and the
    candidates only shrink.
    """
    path = [start]
    size = len(cand)
    if not size:
        return path
    rows = g.rows
    i = rng.randrange(size)
    size -= 1
    u, cand[i] = cand[i], cand[size]
    cand.pop()
    path.append(u)
    head: list[int] = []
    # each end's vertex, its colour row and the colour of the path edge at it
    r, rrow, ravoid = u, rows[u], rows[u][start]
    l, lrow, lavoid = start, rows[start], rows[start][u]
    stop = max(size + 2 - order, 0) if order else 0
    getrandbits = rng.getrandbits
    bits = size.bit_length()
    low = 1 << bits >> 1      # bits drops by one when size falls below low
    both = left               # both ends live, taking turns
    right = not left          # the right end made the first pick
    while size > stop:
        if right:
            row, avoid = rrow, ravoid
        else:
            row, avoid = lrow, lavoid
        i = getrandbits(bits)
        while i >= size:
            i = getrandbits(bits)
        if row[cand[i]] == avoid:
            for _ in range(_BLIND_DRAWS - 1):
                i = getrandbits(bits)
                while i >= size:
                    i = getrandbits(bits)
                if row[cand[i]] != avoid:
                    break
            else:
                opts = [i for i, v in enumerate(cand) if row[v] != avoid]
                if not opts:
                    if not both:
                        break
                    both = False
                    right = not right
                    continue
                i = rng.choice(opts)
        size -= 1
        if size < low:
            bits -= 1
            low >>= 1
        u, cand[i] = cand[i], cand[size]
        cand.pop()
        row = rows[u]
        if right:
            path.append(u)
            r, rrow, ravoid = u, row, row[r]
        else:
            head.append(u)
            l, lrow, lavoid = u, row, row[l]
        if both:
            right = not right
    return head[::-1] + path


def maximal_path_cycle(g, seed: int = 0, vertices=None) -> PathCycleSystem:
    """Longest greedily grown PC path inside `vertices` (default: all of g)
    over `GREEDY_RESTARTS` randomized restarts.

    Each start is a uniform draw from the sorted set, and `_grow_path` grows
    it through the rest of the set, in sorted order, so growth inside S makes
    the draws that growth on the restriction of g to S makes, relabelled.
    The result cannot be extended by one vertex of the set at either end
    (local maximality); the restarts approximate global maximality.  The
    vertices must be at least 2 distinct ids of g, else it is a ValueError;
    every path seed runs this test of the sorted set, cheaper than `_check_vertices`.
    """
    vs = list(range(g.n)) if vertices is None else sorted(vertices)
    if len(vs) < 2 or len(set(vs)) < len(vs) or not 0 <= vs[0] <= vs[-1] < g.n:
        raise ValueError(f"need at least 2 distinct vertices in 0..{g.n - 1}, got {vs}")
    rng = random.Random(seed)
    best: list[int] | None = None
    for _ in range(GREEDY_RESTARTS):
        i = rng.randrange(len(vs))
        path = _grow_path(g, rng, vs[i], vs[:i] + vs[i + 1 :])
        if best is None or len(path) > len(best):
            best = path
        if len(best) == len(vs):
            break
    # _grow_path pops each vertex of the checked, distinct `vs` at most once
    return PathCycleSystem(DirectedPath.unchecked(tuple(best)), ())


# ---------------------------------------------------------------------------
# the 2-factor search
# ---------------------------------------------------------------------------

@dataclass
class TwoFactorOutcome:
    """Exactly one of `certificate` and `barrier`, proof that g has no PC 2-factor, is set;
    with the barrier, `best_system` is the greedy path's system."""

    certificate: Certificate | None
    best_system: PathCycleSystem | None
    stats: dict
    barrier: TutteBarrier | None = None

    @property
    def success(self) -> bool:
        return self.certificate is not None


def _closable(sys: PathCycleSystem, g) -> bool:
    """The path closes into a PC cycle: order >= 3 and its closing edge avoids both end colours."""
    path = sys.path.vertices
    if len(path) < 3:
        return False
    x, y = g.rows[path[0]], g.rows[path[-1]]
    return x[path[-1]] not in (x[path[1]], y[path[-2]])


# the depth and rotation cap of the 2-factor closure's search
EXPANSION_DEPTH = 2
EXPANSION_ROTATIONS = 5_000


def _close_system(sys: PathCycleSystem, g, stats: dict):
    """Turn the current system into vertex-disjoint PC cycles on the same
    vertices, or None.

    One breadth-first search over the path's left end, rotated as the right
    end of the reversed system.  Layer 0 is that system; layer L holds, for
    each state (z, c_z) that L rotations reach, the first system found to
    reach it (chords ascending, `rotation_targets` in its order), sorted by
    state once the layer is complete.  The first system whose path closes
    gives the cycles, marked "fallback" in ``stats["closed_via"]`` when
    reached by rotations.  The search stops after layer `EXPANSION_DEPTH`,
    after the first layer that reaches one vertex in two colours, or when
    the call's `EXPANSION_ROTATIONS` rotations run out, dropping the layer
    cut short; each rotation adds 1 to ``stats["rotations"]``.  Rotations
    keep x, its neighbour and c_x, so whether a state closes depends on
    (z, c_z) alone: a state met again deeper fails again.
    """
    layer = [sys.reverse()]
    cap = stats["rotations"] + EXPANSION_ROTATIONS
    for depth in range(EXPANSION_DEPTH + 1):
        for cur in layer:
            if _closable(cur, g):
                if depth:
                    stats["closed_via"] = "fallback"
                return cur.cycles + (DirectedCycle.unchecked(cur.path.vertices[::-1]),)
        # the last layer, or one vertex reached in two colours
        if depth == EXPANSION_DEPTH or len({cur.path.last for cur in layer}) < len(layer):
            break
        new = {}
        for cur in layer:
            for w in _right_chords(cur, g):
                # both neighbours of w can be reachable endpoints; take each
                for tgt in rotation_targets(cur, g, w):
                    if stats["rotations"] >= cap:
                        return None
                    nxt = _rewire_right(cur, w, tgt)
                    stats["rotations"] += 1
                    inner, z = nxt.path.vertices[-2:]
                    new.setdefault((z, g.rows[z][inner]), nxt)
        layer = [new[key] for key in sorted(new)]
    return None


def find_pc_two_factor(g, seed: int = 0) -> TwoFactorOutcome:
    """Search for a properly coloured 2-factor by growth, rotation and closure.

    Grow a maximal PC path (`GREEDY_RESTARTS` restarts).  When it spans g,
    `_close_system` rotates its left end until the end colours allow closing
    it (at most `EXPANSION_DEPTH` layers and `EXPANSION_ROTATIONS`
    rotations, absorbing any disjoint cycles hit along the way).  When the
    path does not span g, or no state closes, `pc_two_factor_matching`
    answers: its verified 2-factor, marked ``closed_via: "matching"``, or
    its barrier, with the greedy path's system.  So the search fails only
    when g has no PC 2-factor.
    """
    if g.n < 3:
        raise ValueError(f"need n >= 3, got {g.n}")
    stats: dict = {"rotations": 0}
    sys = maximal_path_cycle(g, seed=random.Random(seed).randrange(2 ** 30))
    # a closure keeps the system's vertices, so only a spanning path can close into the 2-factor
    closed = _close_system(sys, g, stats) if sys.order == g.n else None
    if closed is not None:
        cert = verify_certificate(g, two_factor_certificate(closed))
        if not cert.valid:
            raise RuntimeError(f"2-factor search produced an invalid certificate: {cert.reason}")
        return TwoFactorOutcome(cert, None, stats)
    cert, barrier = pc_two_factor_matching(g)
    if cert is not None:
        stats["closed_via"] = "matching"
        return TwoFactorOutcome(cert, None, stats)
    return TwoFactorOutcome(None, sys, stats, barrier)
