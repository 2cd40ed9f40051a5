"""Chord rotations on properly coloured 1-path-cycles, and the 2-factor search.

A 1-path-cycle is a vertex-disjoint union of at most one directed path and any
number of cycles, properly coloured as a whole.  Its parameters (x, c_x; y,
c_y) are the path's endpoints together with the colours of the path edges at
those endpoints.  A right chord is an edge yw with c(yw) != c_y (left chords
mirror this at x); rotating along a chord rewires the system while preserving
its vertex set and properness, moving one endpoint to a neighbour of w.

A chord sequence is "spread out" when the original endpoints and all chord
targets are pairwise at distance greater than 5 inside the original system.
This is the paper's lemma: the rotations never interfere, so independently
derived left and right sequences can be combined (`is_spread_out`,
`apply_chord_sequence`, `combine_rotation_sequences`).  The 2-factor search
does not rely on the spacing: it derives every rotation directly from the
current system, which also works at small n where the spacing cannot be met.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, replace
from functools import cached_property

from pch.ec_graph import (
    KIND_PATH_CYCLE_SYSTEM,
    Certificate,
    DirectedCycle,
    DirectedPath,
    is_properly_coloured_path,
    two_factor_certificate,
    verify_certificate,
)

LEFT = "left"
RIGHT = "right"

SPREAD_DISTANCE = 5


@dataclass(frozen=True)
class Params:
    x: int
    c_x: int
    y: int
    c_y: int


@dataclass(frozen=True)
class Chord:
    side: str                 # LEFT or RIGHT
    endpoint: int             # the path endpoint the chord leaves from
    w: int                    # the chord target inside the system
    target: int | None = None # which neighbour of w becomes the new endpoint;
                              # None picks the path-keeping case when both work


@dataclass(frozen=True)
class PathCycleSystem:
    """At most one directed path plus vertex-disjoint cycles."""

    path: DirectedPath | None
    cycles: tuple[DirectedCycle, ...] = ()

    def vertices(self) -> tuple[int, ...]:
        out: list[int] = []
        if self.path is not None:
            out.extend(self.path.vertices)
        for cyc in self.cycles:
            out.extend(cyc.vertices)
        return tuple(out)

    @property
    def order(self) -> int:
        return len(self.vertices())

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices())

    @cached_property
    def index(self) -> dict[int, tuple[int, int]]:
        """v -> (piece, position): piece -1 is the path, i >= 0 is ``cycles[i]``."""
        out: dict[int, tuple[int, int]] = {}
        if self.path is not None:
            out.update((v, (-1, i)) for i, v in enumerate(self.path.vertices))
        for c, cyc in enumerate(self.cycles):
            out.update((v, (c, i)) for i, v in enumerate(cyc.vertices))
        return out

    def params(self, g) -> Params:
        if self.path is None:
            raise ValueError("pathless system has no parameters")
        vs = self.path.vertices
        if len(vs) < 2:
            raise ValueError("parameters need a path of order >= 2")
        return Params(vs[0], g.colour(vs[0], vs[1]), vs[-1], g.colour(vs[-1], vs[-2]))


def system_adjacency(sys: PathCycleSystem) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in sys.vertices()}
    if sys.path is not None:
        for a, b in sys.path.edges():
            adj[a].append(b)
            adj[b].append(a)
    for cyc in sys.cycles:
        for a, b in cyc.edges():
            adj[a].append(b)
            adj[b].append(a)
    return adj


def system_distances(sys: PathCycleSystem) -> dict[int, dict[int, int]]:
    """All-pairs hop distances within the system (missing entry = unreachable)."""
    adj = system_adjacency(sys)
    out: dict[int, dict[int, int]] = {}
    for s in adj:
        dist = {s: 0}
        q = deque([s])
        while q:
            v = q.popleft()
            for u in adj[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    q.append(u)
        out[s] = dist
    return out


def validate_system(sys: PathCycleSystem, g) -> None:
    """Raise ValueError unless sys is a properly coloured 1-path-cycle in g."""
    if sys.path is not None and sys.path.order < 2:
        raise ValueError("system path must have order >= 2")
    cert = verify_certificate(g, Certificate(
        KIND_PATH_CYCLE_SYSTEM,
        cycles=tuple(cyc.vertices for cyc in sys.cycles),
        path=sys.path.vertices if sys.path is not None else None,
    ))
    if not cert.valid:
        raise ValueError(cert.reason)


# ---------------------------------------------------------------------------
# chords and single rotations
# ---------------------------------------------------------------------------

def find_chords(sys: PathCycleSystem, g, side: str) -> list[Chord]:
    """All chords on the given side: edges from that endpoint whose colour
    differs from the endpoint's parameter colour.  The non-interference
    precondition (w not in {other end} u N(other end)) belongs to rotate.
    """
    p = sys.params(g)
    endpoint, pcol = (p.y, p.c_y) if side == RIGHT else (p.x, p.c_x)
    out = []
    for w in sorted(sys.vertices()):
        if w != endpoint and g.colour(endpoint, w) != pcol:
            out.append(Chord(side, endpoint, w))
    return out


def _right_chords(sys: PathCycleSystem, g):
    """The right chord targets ``rotate`` accepts, in ascending order: every
    system vertex w outside {y, x, x's path neighbour} with c(y, w) != c_y."""
    path = sys.path.vertices
    row = g.rows[path[-1]]
    c_y = row[path[-2]]
    skip = (path[-1], path[0], path[1])
    return (w for w in sorted(sys.index) if w not in skip and row[w] != c_y)


def _guarantee(ok: bool, what: str) -> None:
    """Raise RuntimeError(what) unless ok: an invariant check that, unlike assert, holds under python -O."""
    if not ok:
        raise RuntimeError(what)


def _rotate_right(sys: PathCycleSystem, g, w: int, target: int | None = None) -> PathCycleSystem:
    path = sys.path.vertices
    y = path[-1]
    c_y = g.colour(y, path[-2])

    if w == y or w not in sys.index:
        raise ValueError(f"chord target {w} must lie in the system and differ from the endpoint")
    if g.colour(y, w) == c_y:
        raise ValueError(f"edge ({y}, {w}) has the endpoint colour {c_y}: not a chord")
    if w == path[0] or w == path[1]:
        raise ValueError(f"chord target {w} hits the opposite endpoint or its neighbour")

    targets = rotation_targets(sys, g, RIGHT, w)
    want = targets[0] if target is None else target
    if want not in targets:
        if want in system_adjacency(sys)[w]:
            raise ValueError(f"rotation endpoint {want} is blocked by the colour at {w}")
        raise ValueError(f"rotation target {want} is not a neighbour of {w}")

    out = _rewire_right(sys, w, want)
    validate_system(out, g)
    _guarantee(out.vertex_set() == sys.vertex_set(), "rotation changed the vertex set")
    return out


def _rewire_right(sys: PathCycleSystem, w: int, want: int) -> PathCycleSystem:
    """The right rotation along chord y-w that makes `want` the new endpoint;
    `want` must be one of ``rotation_targets(sys, g, RIGHT, w)``."""
    path = sys.path.vertices
    piece, i = sys.index[w]
    if piece < 0:
        # chord into the path (2 <= i <= len-3 for a valid chord): the far
        # neighbour of w keeps everything on one path, the near one splits off
        # the tail as a cycle
        if want == path[i + 1]:
            return PathCycleSystem(DirectedPath(path[: i + 1] + path[i + 1 :][::-1]), sys.cycles)
        return PathCycleSystem(DirectedPath(path[:i]), sys.cycles + (DirectedCycle(path[i:]),))
    # chord into a cycle: absorb the whole cycle into the path, walking off w
    # away from the new endpoint
    verts = sys.cycles[piece].vertices
    L = len(verts)
    step = -1 if want == verts[(i + 1) % L] else 1
    new_path = path + tuple(verts[(i + step * t) % L] for t in range(L))
    return PathCycleSystem(DirectedPath(new_path), sys.cycles[:piece] + sys.cycles[piece + 1 :])


def rotation_targets(sys: PathCycleSystem, g, side: str, w: int) -> list[int]:
    """Achievable new endpoints (neighbours of w) for a chord on this side.

    One or two of w's system neighbours qualify; the one keeping the whole
    path intact comes first, and ``rotate`` takes it when no target is given.
    """
    path = sys.path.vertices
    end = path[-1] if side == RIGHT else path[0]
    cew = g.colour(end, w)
    piece, i = sys.index[w]
    verts = path if piece < 0 else sys.cycles[piece].vertices
    # w's neighbours before and after it: along its cycle, or along the path
    # walked from the other end
    before, after = verts[i - 1], verts[(i + 1) % len(verts)]
    if piece < 0 and side == LEFT:
        before, after = after, before
    out = []
    if cew != g.colour(w, before):
        out.append(after)
    if cew != g.colour(w, after):
        out.append(before)
    return out


def _mirror(sys: PathCycleSystem) -> PathCycleSystem:
    return PathCycleSystem(sys.path.reverse() if sys.path else None, sys.cycles)


def rotate(sys: PathCycleSystem, g, chord: Chord) -> PathCycleSystem:
    """One chord rotation; returns a new properly coloured system on the same vertices."""
    if sys.path is None:
        raise ValueError("cannot rotate a pathless system")
    p = sys.params(g)
    if chord.side == RIGHT:
        if chord.endpoint != p.y:
            raise ValueError(f"right chord endpoint {chord.endpoint} is not the right end {p.y}")
        return _rotate_right(sys, g, chord.w, chord.target)
    if chord.side == LEFT:
        if chord.endpoint != p.x:
            raise ValueError(f"left chord endpoint {chord.endpoint} is not the left end {p.x}")
        return _mirror(_rotate_right(_mirror(sys), g, chord.w, chord.target))
    raise ValueError(f"unknown chord side {chord.side!r}")


# ---------------------------------------------------------------------------
# chord sequences
# ---------------------------------------------------------------------------

def is_spread_out(sys: PathCycleSystem, seq) -> bool:
    """Pairwise distances in sys among {x, y, chord targets} all exceed SPREAD_DISTANCE."""
    chords = tuple(seq)
    if sys.path is None:
        return False
    pts = [sys.path.first, sys.path.last] + [c.w for c in chords]
    if len(set(pts)) != len(pts):
        return False
    dist = system_distances(sys)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if dist[pts[i]].get(pts[j], None) is not None and dist[pts[i]][pts[j]] <= SPREAD_DISTANCE:
                return False
    return True


def apply_chord_sequence(
    sys: PathCycleSystem,
    g,
    seq,
    check_guarantees: bool = True,
) -> PathCycleSystem:
    """Iterated rotation.  With a spread-out sequence, also checks the
    non-interference guarantees and raises RuntimeError if one fails: vertex
    set preserved, new endpoints adjacent (in the original system) to {x, y}
    or some chord target, and all-right sequences leaving the left parameters
    untouched.
    """
    chords = tuple(seq)
    orig = sys
    p0 = sys.params(g) if sys.path is not None else None
    cur = sys
    for i, ch in enumerate(chords):
        try:
            cur = rotate(cur, g, ch)
        except ValueError as exc:
            raise ValueError(f"chord {i} ({ch.side}, {ch.endpoint}->{ch.w}): {exc}") from None

    if check_guarantees and chords and p0 is not None and is_spread_out(orig, chords):
        adj = system_adjacency(orig)
        allowed = {p0.x, p0.y}
        for ch in chords:
            allowed.update(adj[ch.w])
        p = cur.params(g)
        _guarantee(cur.vertex_set() == orig.vertex_set(), "rotations changed the vertex set")
        _guarantee(p.x in allowed and p.y in allowed, "endpoint escaped the guaranteed set")
        _guarantee(p.c_x in {g.colour(p.x, u) for u in adj[p.x]}, "left colour not an original system colour")
        _guarantee(p.c_y in {g.colour(p.y, u) for u in adj[p.y]}, "right colour not an original system colour")
        if all(ch.side == RIGHT for ch in chords):
            _guarantee(p.x == p0.x and p.c_x == p0.c_x, "right rotations moved the left end")
            _guarantee(p.y in adj[chords[-1].w], "right end not next to the last chord target")
        if all(ch.side == LEFT for ch in chords):
            _guarantee(p.y == p0.y and p.c_y == p0.c_y, "left rotations moved the right end")
            _guarantee(p.x in adj[chords[-1].w], "left end not next to the last chord target")
    return cur


def combine_rotation_sequences(
    sys: PathCycleSystem,
    g,
    right_seq,
    left_seq,
) -> PathCycleSystem:
    """Apply a right-only then a left-only sequence derived independently from sys.

    Requires the concatenation to be spread out in sys; the spacing guarantees
    that the left chords stay valid after the right rotations, yielding a
    system whose right parameters come from the right sequence and left
    parameters from the left sequence, on the same vertex set.
    """
    right = tuple(right_seq)
    left = tuple(left_seq)
    if not all(ch.side == RIGHT for ch in right):
        raise ValueError("right_seq must contain only right chords")
    if not all(ch.side == LEFT for ch in left):
        raise ValueError("left_seq must contain only left chords")
    if not is_spread_out(sys, right + left):
        raise ValueError("combined chord sequence is not spread out in the original system")

    # the left-alone endpoint trace; the replay below is steered to follow it,
    # since a chord into the path can legitimately move either way
    probe = sys
    trace: list[int] = []
    for ch in left:
        probe = rotate(probe, g, ch)
        trace.append(probe.params(g).x)
    left_params = probe.params(g) if left else None

    cur = apply_chord_sequence(sys, g, right, check_guarantees=False)
    right_params = cur.params(g)
    for i, (ch, tgt) in enumerate(zip(left, trace)):
        try:
            cur = rotate(cur, g, replace(ch, target=tgt))
        except ValueError as exc:
            raise ValueError(
                f"left chord {i} invalidated after combination (spread-out precondition broken): {exc}"
            ) from None
    _guarantee(cur.vertex_set() == sys.vertex_set(), "combined rotations changed the vertex set")
    final = cur.params(g)
    _guarantee((final.y, final.c_y) == (right_params.y, right_params.c_y), "left chords moved the right end")
    if left_params is not None:
        _guarantee((final.x, final.c_x) == (left_params.x, left_params.c_x), "right chords moved the left end")
    return cur


# ---------------------------------------------------------------------------
# endpoint-colour expansion (reachable (z, c_z) states by one-sided rotations)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EndpointState:
    vertex: int
    colour: int
    chords: tuple[Chord, ...]
    system: PathCycleSystem


@dataclass
class ExpansionResult:
    layers: list[dict]          # depth -> {(z, c_z): EndpointState}
    rotations: int

    def layer_sizes(self) -> list[int]:
        return [len(layer) for layer in self.layers]

    def states(self) -> list[EndpointState]:
        """Each reached (z, c_z) state once, at its shallowest layer, in layer
        order and sorted within a layer; the starting state comes first."""
        seen = set()
        out = []
        for layer in self.layers:
            for key in sorted(layer):
                if key not in seen:
                    seen.add(key)
                    out.append(layer[key])
        return out


def expand_endpoint_colours(
    sys: PathCycleSystem,
    g,
    side: str,
    max_depth: int = 3,
    require_spread: bool = True,
    max_rotations: int = 200_000,
) -> ExpansionResult:
    """Breadth-first search over endpoint states reachable by one-sided rotations.

    Layer L holds, for each endpoint state (z, c_z) reachable in exactly L
    rotations on the given side, one witness chord sequence (first found wins;
    targets scanned in ascending vertex order for reproducibility).  Stops
    early when one layer holds two states on the same vertex with different
    colours, the raw material for closing a path into a cycle.
    """
    if side == LEFT:
        return _mirror_expansion(_expand_right(_mirror(sys), g, max_depth, require_spread, max_rotations))
    return _expand_right(sys, g, max_depth, require_spread, max_rotations)


def _expand_right(sys: PathCycleSystem, g, max_depth: int, require_spread: bool, max_rotations: int) -> ExpansionResult:
    p0 = sys.params(g)
    dist = system_distances(sys) if require_spread else None
    layers: list[dict] = [
        {(p0.y, p0.c_y): EndpointState(p0.y, p0.c_y, (), sys)}
    ]
    rotations = 0

    for _ in range(max_depth):
        new: dict[tuple[int, int], EndpointState] = {}
        for key in sorted(layers[-1]):
            st = layers[-1][key]
            cur = st.system
            z = cur.path.last
            if require_spread:
                spread_pts = [p0.x, p0.y] + [c.w for c in st.chords]
            for w in _right_chords(cur, g):
                if require_spread:
                    dw = dist[w]
                    if any(dw.get(p, 10 ** 9) <= SPREAD_DISTANCE for p in spread_pts):
                        continue
                # both neighbours of w can be reachable endpoints; take each
                for tgt in rotation_targets(cur, g, RIGHT, w):
                    if rotations >= max_rotations:
                        return ExpansionResult(layers, rotations)
                    nxt = _rewire_right(cur, w, tgt)
                    rotations += 1
                    np = nxt.path.vertices
                    nz = np[-1]
                    ncz = g.colour(nz, np[-2])
                    if (nz, ncz) not in new:
                        new[(nz, ncz)] = EndpointState(nz, ncz, st.chords + (Chord(RIGHT, z, w, tgt),), nxt)
        layers.append(new)
        # no new state, or one vertex reached in two colours
        if not new or len({z for z, _ in new}) < len(new):
            break
    return ExpansionResult(layers, rotations)


def _mirror_expansion(res: ExpansionResult) -> ExpansionResult:
    def flip_state(st: EndpointState) -> EndpointState:
        chords = tuple(Chord(LEFT, c.endpoint, c.w, c.target) for c in st.chords)
        return EndpointState(st.vertex, st.colour, chords, _mirror(st.system))

    layers = [
        {key: flip_state(st) for key, st in layer.items()}
        for layer in res.layers
    ]
    return ExpansionResult(layers, res.rotations)


# ---------------------------------------------------------------------------
# greedy growth
# ---------------------------------------------------------------------------

def _grow_path(g, rng: random.Random, path: list[int], allowed: set[int]) -> list[int]:
    """Greedily extend a PC path at both ends through `allowed` until stuck."""
    cand = sorted(allowed - set(path))
    while True:
        grew = False
        inner = path[-2] if len(path) >= 2 else None
        end = g.rows[path[-1]]
        opts = [u for u in cand if inner is None or end[u] != end[inner]]
        if opts:
            nxt = rng.choice(opts)
            path.append(nxt)
            cand.remove(nxt)
            grew = True
        inner = path[1] if len(path) >= 2 else None
        end = g.rows[path[0]]
        opts = [u for u in cand if inner is None or end[u] != end[inner]]
        if opts:
            nxt = rng.choice(opts)
            path.insert(0, nxt)
            cand.remove(nxt)
            grew = True
        if not grew:
            return path


def maximal_path_cycle(g, seed: int = 0, restarts: int = 50) -> PathCycleSystem:
    """Longest greedily grown PC path over randomized restarts.

    The result cannot be extended by appending a single vertex at either end
    (local maximality); global maximality is approximated by the restarts.
    """
    if g.n < 2:
        raise ValueError(f"need n >= 2, got {g.n}")
    rng = random.Random(seed)
    everything = set(range(g.n))
    best: list[int] | None = None
    for _ in range(max(1, restarts)):
        path = _grow_path(g, rng, [rng.randrange(g.n)], everything)
        if best is None or len(path) > len(best):
            best = path
        if len(best) == g.n:
            break
    return PathCycleSystem(DirectedPath(tuple(best)), ())


# ---------------------------------------------------------------------------
# the 2-factor search
# ---------------------------------------------------------------------------

# outer restarts of the 2-factor search, and greedy restarts for each one's
# initial path
_ATTEMPTS = 30
GREEDY_RESTARTS = 20
# the closure's left expansion depth and its rotation cap
_CLOSE_DEPTH = 2
_CLOSE_ROTATIONS = 100_000


@dataclass
class TwoFactorOutcome:
    certificate: Certificate | None
    best_system: PathCycleSystem | None
    stats: dict

    @property
    def success(self) -> bool:
        return self.certificate is not None


def _close_path_into_cycles(sys: PathCycleSystem) -> tuple[DirectedCycle, ...]:
    return sys.cycles + (DirectedCycle(sys.path.vertices),)


def _closable(sys: PathCycleSystem, g) -> bool:
    """The path closes into a PC cycle: order >= 3 and its closing edge avoids both end colours."""
    p = sys.params(g)
    return sys.path.order >= 3 and g.colour(p.x, p.y) not in (p.c_x, p.c_y)


def _close_system(sys: PathCycleSystem, g, stats: dict):
    """Turn the current system into vertex-disjoint PC cycles on the same vertices.

    Closes the path at once when it can; otherwise rotates its left end and
    closes the first reached state that can ("fallback" in
    ``stats["closed_via"]``).  The expansion goes to depth 1 first and to
    ``_CLOSE_DEPTH`` only when no depth-1 state closes; both list the depth-1
    states first and in the same order, so the closed state is the one the
    deeper expansion alone would pick.
    """
    if _closable(sys, g):
        return _close_path_into_cycles(sys)

    for depth in (1, _CLOSE_DEPTH):
        res = expand_endpoint_colours(
            sys, g, LEFT, max_depth=depth, require_spread=False,
            max_rotations=_CLOSE_ROTATIONS,
        )
        stats["rotations"] += res.rotations
        for st in res.states():
            if _closable(st.system, g):
                stats["closed_via"] = "fallback"
                return _close_path_into_cycles(st.system)
    return None


def _reopen(g, cycles: tuple[DirectedCycle, ...], free: set[int], rng: random.Random) -> PathCycleSystem:
    """Start a new path among uncovered vertices, keeping the closed cycles.
    A single stranded vertex is a one-vertex path, rotated into the first
    vertex of the first cycle, which absorbs that cycle."""
    start = min(free) if len(free) == 1 else rng.choice(sorted(free))
    sys = PathCycleSystem(DirectedPath(tuple(_grow_path(g, rng, [start], free))), cycles)
    if sys.path.order >= 2:
        return sys
    w = cycles[0].vertices[0]
    return _rewire_right(sys, w, rotation_targets(sys, g, RIGHT, w)[0])


def find_pc_two_factor(g, seed: int = 0) -> TwoFactorOutcome:
    """Search for a properly coloured 2-factor by growth, rotation and closure.

    Grow a maximal PC path, rotate its endpoints until the end colours allow
    closing it (absorbing any disjoint cycles hit along the way), and repeat
    with the leftover vertices until the cycles span.  Failure returns the
    largest system found, never an exception.
    """
    if g.n < 3:
        raise ValueError(f"need n >= 3, got {g.n}")
    rng = random.Random(seed)
    stats: dict = {"attempts": 0, "rotations": 0}
    best: PathCycleSystem | None = None

    for attempt in range(_ATTEMPTS):
        stats["attempts"] = attempt + 1
        sys = maximal_path_cycle(g, seed=rng.randrange(2 ** 30), restarts=GREEDY_RESTARTS)
        # each pass closes the system and reopens it on at least one more
        # vertex, so the cycles span or the attempt stops within n passes
        while True:
            if best is None or sys.order > best.order:
                best = sys
            closed = _close_system(sys, g, stats)
            if closed is None:
                break
            covered = {v for cyc in closed for v in cyc.vertices}
            if len(covered) == g.n:
                cert = verify_certificate(g, two_factor_certificate(closed))
                if not cert.valid:
                    raise RuntimeError(f"2-factor search produced an invalid certificate: {cert.reason}")
                return TwoFactorOutcome(cert, None, stats)
            sys = _reopen(g, closed, set(range(g.n)) - covered, rng)
    return TwoFactorOutcome(None, best, stats)


# ---------------------------------------------------------------------------
# Hamiltonian path heuristic (2-factor cycles opened and merged by rotations)
# ---------------------------------------------------------------------------

def find_pc_ham_path_heuristic(g, two_factor: TwoFactorOutcome) -> DirectedPath | None:
    """Open the 2-factor a search found into a spanning PC path: open its
    first cycle into a path at each vertex in turn, then absorb the remaining
    cycles by chord rotations.  Returns None when the search found no
    2-factor or no opening absorbs every cycle; any returned path is verified
    spanning and properly coloured.
    """
    if not two_factor.success:
        return None
    cycles = [DirectedCycle(tuple(c)) for c in two_factor.certificate.cycles]
    rest = tuple(cycles[1:])
    verts = cycles[0].vertices
    for i in range(len(verts)):
        cur = PathCycleSystem(DirectedPath(verts[i:] + verts[:i]), rest)
        while cur is not None and cur.cycles:
            cur = _absorb_cycle(cur, g)
        if cur is not None:
            _guarantee(is_properly_coloured_path(g, cur.path), "spanning path is not properly coloured")
            return cur.path
    return None


def _absorb_cycle(sys: PathCycleSystem, g) -> PathCycleSystem | None:
    """The first chord rotation, right end first, whose target lies on a
    cycle: it absorbs that cycle into the path.  None when there is none."""
    on_cycles = {v for cyc in sys.cycles for v in cyc.vertices}
    for cur, back in ((sys, lambda s: s), (_mirror(sys), _mirror)):
        for w in _right_chords(cur, g):
            if w in on_cycles:
                return back(_rewire_right(cur, w, rotation_targets(cur, g, RIGHT, w)[0]))
    return None
