"""Absorbing paths, absorbing families, end-joining and the absorbing cycle.

An order-4 PC path z1 z2 z3 z4 is absorbing for an ordered quadruple
(x1, x2; y1, y2) of distinct vertices when it avoids the quadruple and both
z1 z2 x1 x2 and y1 y2 z3 z4 are PC paths.  Such a path can swallow any PC path
running from the edge x1 x2 to the edge y1 y2: splice the path between z2 and
z3 and every junction stays proper.

The absorbing cycle stitches a family of absorbing paths together with short
connector paths into one PC cycle; if the family covers every ordered
quadruple of vertices outside the cycle, the cycle can absorb any disjoint PC
path of order >= 4 into a longer PC cycle.
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
    """An absorption step that verified universality promised cannot fail."""


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
        # automatically because their colours towards z2 sit in the forbidden set
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
# absorbing families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyParams:
    target_size: int
    retry_budget: int = 25
    seed: int = 0


@dataclass
class FamilyResult:
    members: tuple[tuple[int, int, int, int], ...]
    ok: bool
    coverage: float
    attempts: int
    uncovered: tuple | None = None

    def vertex_set(self) -> set[int]:
        return {v for member in self.members for v in member}


def _attach_tables(C: np.ndarray, member):
    """Boolean n x n tables of a member z1 z2 z3 z4: xok[a, b] says z1 z2 a b
    is a PC path, yok[a, b] says a b z3 z4 is one (vertex overlaps ignored)."""
    z1, z2, z3, z4 = member
    col2 = C[:, z2]
    row3 = C[z3]
    xok = (col2[:, None] != C[z1, z2]) & (col2[:, None] != C)
    yok = (row3[None, :] != C[z3, z4]) & (C != row3[None, :])
    return xok, yok


class _MemberTables:
    """Per-member lookup tables so an absorption test costs a few indexings."""

    def __init__(self, g, member):
        self.member = member
        self.inside = set(member)
        self.xok, self.yok = (t.tolist() for t in _attach_tables(g.matrix, member))

    def absorbs(self, x1, x2, y1, y2) -> bool:
        if x1 in self.inside or x2 in self.inside or y1 in self.inside or y2 in self.inside:
            return False
        return self.xok[x1][x2] and self.yok[y1][y2]


MASK_MEMBERS = 64
MISS_SEARCH_BUDGET = 200_000


def _pair_member_masks(g, members):
    """Bitmask arrays X, Y: bit m of X[a, b] says member m can attach the
    ordered pair (a, b) on its left side and avoids both vertices; Y likewise
    on the right.  A quadruple is absorbed by member m iff bit m is set in
    both its pair entries, so coverage questions reduce to mask intersections.
    The masks are uint64, so at most 64 members fit.
    """
    if len(members) > MASK_MEMBERS:
        raise ValueError(
            f"exact check takes at most {MASK_MEMBERS} members, got {len(members)}; use mode='sample'"
        )
    n = g.n
    C = g.matrix
    X = np.zeros((n, n), dtype=np.uint64)
    Y = np.zeros((n, n), dtype=np.uint64)
    for bit, mb in enumerate(members):
        xok, yok = _attach_tables(C, mb)
        free = np.ones(n, dtype=bool)
        free[list(mb)] = False
        pair_free = free[:, None] & free[None, :]
        X |= (xok & pair_free).astype(np.uint64) << np.uint64(bit)
        Y |= (yok & pair_free).astype(np.uint64) << np.uint64(bit)
    return X, Y


def verify_family_universality(
    g,
    members,
    outside=None,
    mode: str = "auto",
    sample: int = 100_000,
    seed: int = 0,
):
    """Check that some member absorbs every ordered quadruple of `outside` vertices.

    `outside` defaults to the vertices not used by the family.  The default
    check is exact over the whole quadruple space via pair-member bitmasks and
    raises ValueError for more than 64 members; mode="sample" instead scans
    `sample` random quadruples.  Returns (ok, coverage, an uncovered
    quadruple or None).
    """
    used = {v for mb in members for v in mb}
    if outside is None:
        outside = [v for v in range(g.n) if v not in used]
    outside = sorted(outside)
    if len(outside) < 4:
        return True, 1.0, None
    if not members:
        return False, 0.0, tuple(outside[:4])
    if mode == "sample":
        tables = [_MemberTables(g, mb) for mb in members]
        rng = random.Random(seed)
        covered = 0
        first_miss = None
        for _ in range(sample):
            x1, x2, y1, y2 = rng.sample(outside, 4)
            if any(t.absorbs(x1, x2, y1, y2) for t in tables):
                covered += 1
            elif first_miss is None:
                first_miss = (x1, x2, y1, y2)
        return first_miss is None, covered / sample, first_miss

    X, Y = _pair_member_masks(g, members)
    out = np.array(outside)
    Xo = X[np.ix_(out, out)]
    Yo = Y[np.ix_(out, out)]
    offdiag = ~np.eye(len(out), dtype=bool)
    ux, cx = np.unique(Xo[offdiag], return_counts=True)
    uy, cy = np.unique(Yo[offdiag], return_counts=True)
    meets = (ux[:, None] & uy[None, :]) != 0      # some member absorbs this mask pair
    if meets.all():
        return True, 1.0, None
    # pair-level covered fraction (overlapping-vertex combinations not excluded);
    # exact enough for ranking failed attempts
    coverage = int(cx @ meets @ cy) / (int(cx.sum()) * int(cy.sum()))

    # some mask combination admits no member; look for a realisation with four
    # distinct vertices (combinations sharing a vertex are not quadruples)
    def realisations():
        for i, j in np.argwhere(~meets):
            ys = np.argwhere((Yo == uy[j]) & offdiag)
            for i1, i2 in np.argwhere((Xo == ux[i]) & offdiag):
                for j1, j2 in ys:
                    yield i1, i2, j1, j2

    tried = 0
    for quad in itertools.islice(realisations(), MISS_SEARCH_BUDGET):
        tried += 1
        if len(set(quad)) == 4:
            return False, coverage, tuple(int(out[i]) for i in quad)
    if tried < MISS_SEARCH_BUDGET:
        # every conflicting combination shares a vertex: no true quadruple misses
        return True, 1.0, None
    return False, coverage, None


def sample_absorbing_family(g, params: FamilyParams) -> FamilyResult:
    """Randomized absorbing family with verified universality.

    Each attempt samples `target_size` ordered 4-tuples uniformly, deletes the
    later tuple of every intersecting pair (keeping a disjoint prefix), drops
    tuples that are not PC paths, and verifies that the survivors absorb every
    ordered quadruple of the remaining vertices.  Failing attempts retry with
    fresh randomness; exhaustion returns the best family with its coverage.
    """
    if g.n < params.target_size * 4 + 4:
        raise ValueError(f"n={g.n} too small for a family of {params.target_size} disjoint 4-paths")
    rng = random.Random(params.seed)
    best: FamilyResult | None = None
    for attempt in range(1, params.retry_budget + 1):
        raw = [tuple(rng.sample(range(g.n), 4)) for _ in range(params.target_size)]
        kept: list[tuple[int, ...]] = []
        used: set[int] = set()
        for t in raw:
            if used.isdisjoint(t):
                kept.append(t)
                used.update(t)
        members = tuple(t for t in kept if is_properly_coloured_path(g, t))
        if not members:
            result = FamilyResult((), False, 0.0, attempt)
        else:
            ok, coverage, miss = verify_family_universality(g, members)
            result = FamilyResult(members, ok, coverage, attempt, miss)
            if ok:
                return result
        if best is None or result.coverage > best.coverage:
            best = result
    assert best is not None
    return best


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
            full = (v1, v2, *path, v1p, v2p)
            assert is_properly_coloured_path(g, full), "join produced an improper concatenation"
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
    family: FamilyResult | None
    attempts: int = 0

    @property
    def success(self) -> bool:
        return self.cycle is not None


def build_absorbing_cycle(g, params: BuildParams | None = None) -> BuildResult:
    """Sample a universal family and stitch it into one PC cycle.

    Consecutive members P_j, P_{j+1} (cyclically) are connected by a path
    joining the last two vertices of P_j to the first two of P_{j+1}, avoiding
    everything already placed.  Any stage failure abandons the attempt; fresh
    randomness is used until the retry budget runs out.
    """
    params = params or BuildParams()
    rng = random.Random(params.seed)
    last_family: FamilyResult | None = None
    last_stage = "family"
    for attempt in range(1, params.retry_budget + 1):
        fam = sample_absorbing_family(
            g, FamilyParams(params.target_size, retry_budget=4, seed=rng.randrange(2 ** 30))
        )
        last_family = fam
        if not fam.ok:
            last_stage = "family"
            continue
        members = fam.members
        used = set(fam.vertex_set())
        connectors: list[DirectedPath] = []
        stage_failed = None
        for j, mb in enumerate(members):
            nxt = members[(j + 1) % len(members)]
            q = join_ends(
                g, mb[2], mb[3], nxt[0], nxt[1],
                avoid=used - {mb[2], mb[3], nxt[0], nxt[1]},
                max_len=params.join_max_len,
            )
            if q is None:
                stage_failed = f"join:{j}"
                break
            connectors.append(q)
            used.update(q.vertices)
        if stage_failed:
            last_stage = stage_failed
            continue
        seq: list[int] = []
        for mb, q in zip(members, connectors):
            seq.extend(mb)
            seq.extend(q.vertices)
        cycle = DirectedCycle(tuple(seq))
        if not is_properly_coloured_cycle(g, cycle):
            last_stage = "verify"
            continue
        return BuildResult(AbsorbingCycle(cycle, members, tuple(connectors)), None, fam, attempt)
    return BuildResult(None, last_stage, last_family, params.retry_budget)


def absorb_path(g, ac: AbsorbingCycle, p: DirectedPath) -> DirectedCycle:
    """Splice a disjoint PC path of order >= 4 into the absorbing cycle.

    The family member absorbing (p1, p2; p_last-1, p_last) is located and the
    path inserted between its second and third vertices; the result is a PC
    cycle on exactly the union of the vertex sets.
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
    member = None
    for mb in ac.family:
        if is_absorbing(g, quad, mb):
            member = mb
            break
    if member is None:
        raise AbsorptionError(f"no family member absorbs {quad}; family is not universal")
    z2, z3 = member[1], member[2]
    cv = list(ac.cycle.vertices)
    i2 = cv.index(z2)
    assert cv[(i2 + 1) % len(cv)] == z3, "family member not embedded forward in the cycle"
    merged = cv[: i2 + 1] + list(vs) + cv[i2 + 1 :]
    out = DirectedCycle(tuple(merged))
    assert is_properly_coloured_cycle(g, out), "absorption broke properness"
    assert set(out.vertices) == cyc_set | set(vs)
    return out
