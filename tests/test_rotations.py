import hashlib
import json
import random
import time
from collections import deque
from dataclasses import replace

import pytest

import pch.ec_graph
import pch.rotations
from pch.constructions import (
    bollobas_erdos,
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
    random_colouring,
)
from pch.ec_graph import (
    VERDICT_INVALID,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    verify_certificate,
)
from pch.exact import check_barrier, exact_pc_two_factor, pc_two_factor_matching
from pch.rotations import (
    PathCycleSystem,
    _closable,
    _close_system,
    _rewire_right,
    _right_chords,
    find_pc_two_factor,
    maximal_path_cycle,
    rotation_targets,
)
from tests.conftest import canonical, induced_subgraph, random_system_instance, validate_system


def graph_from_edges(n, k, edges, default=0):
    """Explicit colours for listed pairs, `default` elsewhere."""
    tab = {}
    for (a, b), c in edges.items():
        tab[(min(a, b), max(a, b))] = c
    return ColouredComplete.from_function(n, k, lambda u, v: tab.get((u, v), default))


def path_system(*verts) -> PathCycleSystem:
    return PathCycleSystem(DirectedPath(tuple(verts)))


def system_adjacency(sys: PathCycleSystem) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {v: [] for v in sys.vertices()}
    pieces = [sys.path.vertices] + [c.vertices + c.vertices[:1] for c in sys.cycles]
    for vs in pieces:
        for a, b in zip(vs, vs[1:]):
            adj[a].append(b)
            adj[b].append(a)
    return adj


def ends(sys, g):
    """(x, c_x, y, c_y): the path's ends and the colours of its edges there."""
    vs = sys.path.vertices
    return vs[0], g.colour(vs[0], vs[1]), vs[-1], g.colour(vs[-1], vs[-2])


# -- single rotations: the three cases ----------------------------------------

def test_rotate_path_rewire_case():
    # chord (4, 2) avoids the colour of edge (2, 1): keep one path, flip the tail
    edges = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (3, 4): 1, (4, 2): 2}
    g = graph_from_edges(5, 3, edges, default=2)
    sys = path_system(0, 1, 2, 3, 4)
    # the path-keeping target comes first
    assert rotation_targets(sys, g, 2) == [3, 1]
    out = check_rotation_contract(g, sys, 2, 3)
    assert out.path.vertices == (0, 1, 2, 4, 3)
    assert out.cycles == ()
    assert ends(out, g) == (0, 0, 3, g.colour(3, 4))


def test_rotate_split_case():
    # chord colour matches the edge towards x, so the tail splits off as a cycle
    edges = {(0, 1): 0, (1, 2): 2, (2, 3): 0, (3, 4): 1, (4, 2): 2}
    g = graph_from_edges(5, 3, edges, default=1)
    sys = path_system(0, 1, 2, 3, 4)
    assert rotation_targets(sys, g, 2) == [1]
    out = check_rotation_contract(g, sys, 2, 1)
    assert out.path.vertices == (0, 1)
    assert len(out.cycles) == 1
    assert canonical(out.cycles[0].vertices) == canonical((2, 3, 4))


def test_rotate_absorbs_cycle():
    g = rainbow(8)
    sys = PathCycleSystem(DirectedPath((0, 1, 2)), (DirectedCycle((3, 4, 5)),))
    out = check_rotation_contract(g, sys, 4, rotation_targets(sys, g, 4)[0])
    assert out.cycles == ()
    assert out.path.order == 6
    assert out.path.vertices[:4] == (0, 1, 2, 4)


def test_rotate_targeted_outcomes():
    g = rainbow(7)
    sys = path_system(0, 1, 2, 3, 4, 5, 6)
    # in a rainbow colouring both neighbours of an interior target are reachable
    assert rotation_targets(sys, g, 3) == [4, 2]
    fwd = check_rotation_contract(g, sys, 3, 4)
    assert fwd.path.vertices == (0, 1, 2, 3, 6, 5, 4)
    split = check_rotation_contract(g, sys, 3, 2)
    assert split.path.vertices == (0, 1, 2)
    assert canonical(split.cycles[0].vertices) == canonical((3, 4, 5, 6))


def eligible_chords(sys, g):
    """Every rotation at either end, left end first, as (system, w, target)
    triples: a left-end rotation is a right-end rotation of the reversed
    system."""
    out = []
    for start in (sys.reverse(), sys):
        adj = system_adjacency(start)
        x, _, y, c_y = ends(start, g)
        for w in sorted(start.vertices()):
            if w != y and g.colour(y, w) != c_y and w != x and w not in adj[x]:
                for tgt in rotation_targets(start, g, w):
                    out.append((start, w, tgt))
    return out


def check_rotation_contract(g, sys, w, target):
    """Soundness plus the endpoint contract and locality, checked exactly:
    the right rotation along chord y-w that ends at `target` is a valid
    system on the same vertices that keeps the left end and its colour."""
    old_adj = system_adjacency(sys)
    x, c_x, y, _ = ends(sys, g)
    out = _rewire_right(sys, w, target)
    validate_system(out, g)
    assert sorted(out.vertices()) == sorted(sys.vertices())
    assert out.path.order >= 2
    qx, qc_x, qy, qc_y = ends(out, g)
    assert (qx, qc_x) == (x, c_x)
    assert qy == target
    nb = old_adj[qy]
    assert qy in old_adj[w]
    assert w in nb and len(nb) == 2
    wprime = nb[0] if nb[1] == w else nb[1]
    assert qc_y == g.colour(qy, wprime)

    def dist_from(s):
        d = {s: 0}
        q2 = deque([s])
        while q2:
            v = q2.popleft()
            for u in old_adj[v]:
                if u not in d:
                    d[u] = d[v] + 1
                    q2.append(u)
        return d

    dx, dy, dw = dist_from(x), dist_from(y), dist_from(w)
    new_adj = system_adjacency(out)
    for v in old_adj:
        if min(dx.get(v, 99), dy.get(v, 99), dw.get(v, 99)) >= 2:
            assert sorted(old_adj[v]) == sorted(new_adj[v])
    return out


def test_rotate_random_soundness_sample():
    rng = random.Random(2024)
    done = 0
    while done < 300:
        g, sys = random_system_instance(rng)
        chords = eligible_chords(sys, g)
        if not chords:
            continue
        check_rotation_contract(g, *rng.choice(chords))
        done += 1


# -- endpoint expansion: the closure's breadth-first search -----------------------

def closure_checks(monkeypatch, sys, g, stats, closes=lambda s, g: False):
    """`_close_system` on sys with `_closable` replaced by `closes` (default:
    nothing closes): its result, and each system it tests for closing, in
    order, with the rotation count at the test.  The rotation count tells
    the layers apart: layer L is tested once all of it is built."""
    checked = []

    def spy(s, g):
        checked.append((s, stats["rotations"]))
        return closes(s, g)

    monkeypatch.setattr(pch.rotations, "_closable", spy)
    return _close_system(sys, g, stats), checked


def layers(checked):
    """The tested systems grouped by layer (by the rotation count at the test)."""
    counts = sorted({count for _, count in checked})
    return [[s for s, count in checked if count == c] for c in counts]


def test_expand_depth_zero_is_right_endpoint(monkeypatch):
    # a closable path closes at once, as itself, without rotating; the
    # first system tested is the reversed start, whose right end is the
    # path's left end
    g = rainbow(20)
    sys = path_system(*range(20))
    stats = {"rotations": 0}
    assert _close_system(sys, g, stats) == (DirectedCycle(tuple(range(20))),)
    assert stats == {"rotations": 0}
    closed, checked = closure_checks(monkeypatch, sys, g, {"rotations": 0}, _closable)
    assert closed == (DirectedCycle(tuple(range(20))),) and checked == [(sys.reverse(), 0)]


def rainbow_layer_one(g, targets):
    """Layer 1 of the right expansion of the identity path in a rainbow
    colouring, by case analysis: each chord target w admits both outcomes."""
    n = g.n
    expected = set()
    for w in targets:
        # rewiring towards the far neighbour: the new end keeps its other edge
        nxt = w + 1
        expected.add((nxt, g.colour(nxt, nxt + 1 if nxt + 1 < n else nxt - 1)))
        # splitting towards the near neighbour
        expected.add((w - 1, g.colour(w - 1, w - 2)))
    return expected


def test_expand_rainbow_depth_one_matches_case_analysis(monkeypatch):
    # identity path in a rainbow colouring, rotated at its right end (the
    # left end of the reversed path): every interior target w in positions
    # 2..n-3 admits both outcomes, and layer 1 reaches vertices in two
    # colours, so it is the last layer
    n = 16
    g = rainbow(n)
    _, checked = closure_checks(monkeypatch, path_system(*range(n)).reverse(), g, {"rotations": 0})
    start, one = layers(checked)
    assert start == [path_system(*range(n))]
    assert {ends(s, g)[2:] for s in one} == rainbow_layer_one(g, range(2, n - 2))


def right_rotations(sys, g):
    """Every system that one right-end rotation of sys makes."""
    return {_rewire_right(s, w, t) for s, w, t in eligible_chords(sys, g) if s is sys}


def test_expansion_states_are_valid_systems_at_their_depth(monkeypatch):
    # each tested system is a valid system on the start's vertices with the
    # start's left end, made by exactly as many right-end rotations of the
    # start as its layer's depth; within a layer each state (z, c_z) comes
    # once, in sorted order.  Both ends of each greedy path are rotated.
    cases = [(random_bounded_colouring(45, 18, s), s) for s in range(10)]
    cases += [(near_bollobas_erdos(10, s), 10 + s) for s in range(10)]
    # the right end of this path reaches depth 2; the other paths' right
    # ends stop after depth 1
    cases.append((near_bollobas_erdos(10, 0), 0))
    replayed = {False: 0, True: 0}
    deepest = {False: 0, True: 0}
    for g, seed in cases:
        sys = maximal_path_cycle(g, seed=seed)
        for flip in (False, True):
            start = sys.reverse() if flip else sys
            x, c_x = ends(start, g)[:2]
            _, checked = closure_checks(monkeypatch, start.reverse(), g, {"rotations": 0})
            grouped = layers(checked)
            assert grouped[0] == [start]
            reach = [{start}, right_rotations(start, g)]
            for depth, layer in enumerate(grouped):
                if depth == 2:
                    reach.append(set().union(*(right_rotations(s, g) for s in reach[1])))
                keys = [ends(cur, g)[2:] for cur in layer]
                assert keys == sorted(set(keys))
                for cur in layer:
                    validate_system(cur, g)
                    assert sorted(cur.vertices()) == sorted(start.vertices())
                    assert ends(cur, g)[:2] == (x, c_x)
                    assert cur in reach[depth]
                replayed[flip] += len(layer)
            deepest[flip] = max(deepest[flip], len(grouped) - 1)
    assert min(replayed.values()) > 1000 and deepest == {False: 2, True: 2}


def test_expansion_is_read_lazily_and_counts_its_rotations(monkeypatch):
    # a layer is tested once it is complete, and its rotations are added to
    # the caller's count; the next layer is built only when none closes
    g = near_bollobas_erdos(10, 0)
    sys = maximal_path_cycle(g, seed=0)
    stats = {"rotations": 7}
    _, checked = closure_checks(monkeypatch, sys.reverse(), g, stats)
    layer_one = sum(len(rotation_targets(sys, g, w)) for w in _right_chords(sys, g))
    counts = [count for _, count in checked]
    assert counts == sorted(counts) and sorted(set(counts)) == [7, 7 + layer_one, stats["rotations"]]
    assert 7 + layer_one < stats["rotations"]
    # a depth-1 state that closes ends the search: no depth-2 layer is built
    first = next(s for s, count in checked if count == 7 + layer_one)
    stats = {"rotations": 7}
    closed, _ = closure_checks(monkeypatch, sys.reverse(), g, stats, lambda s, g: s == first)
    assert closed == first.cycles + (DirectedCycle(first.path.vertices[::-1]),)
    assert stats == {"rotations": 7 + layer_one, "closed_via": "fallback"}
    # a cap cuts the layer it is reached in, which is then dropped untested
    monkeypatch.setattr(pch.rotations, "EXPANSION_ROTATIONS", 3)
    capped = {"rotations": 0}
    closed, checked = closure_checks(monkeypatch, sys.reverse(), g, capped)
    assert closed is None and checked == [(sys, 0)] and capped == {"rotations": 3}


def test_expand_no_chords_gives_empty_layer():
    # all edges at the path's left end share the path-edge colour there,
    # the closing edge among them: no chord, no close, no rotation
    n = 8
    edges = {}
    for i in range(n - 1):
        edges[(i, i + 1)] = i % 2
    for u in range(1, n):
        edges[(0, u)] = 0  # equal to the path edge colour at x
    g = graph_from_edges(n, 3, edges, default=2)
    stats = {"rotations": 0}
    assert _close_system(path_system(*range(n)), g, stats) is None
    assert stats == {"rotations": 0}


def test_expand_left_side_mirrors(monkeypatch):
    # every system tested keeps the path's right end and its colour
    g = rainbow(20)
    sys = path_system(*range(20))
    _, checked = closure_checks(monkeypatch, sys, g, {"rotations": 0})
    assert len(layers(checked)) > 1
    for s, _ in checked:
        assert ends(s.reverse(), g)[2:] == (19, g.colour(19, 18))


def _closure_corpus():
    """3,000 random systems and the greedy paths of `random_colouring(n, k, s)`
    for n 8-60 step 4, k 2-4 and s 0-3, each system at both ends."""
    rng = random.Random(5)
    for _ in range(3000):
        g, sys = random_system_instance(rng)
        yield g, sys
        yield g, sys.reverse()
    for n in range(8, 61, 4):
        for k in (2, 3, 4):
            for s in range(4):
                g = random_colouring(n, k, s)
                sys = maximal_path_cycle(g, seed=s)
                yield g, sys
                yield g, sys.reverse()


def test_closure_outcomes_are_pinned():
    # taken while the search read a lazy generator of endpoint states: first
    # 16 hex digits of sha256 over the json of each closure's cycles (or
    # None) and stats, rotations counted from 3.  Every closure is valid PC
    # cycles on the system's own vertices.
    records, modes = [], {}
    for g, sys in _closure_corpus():
        stats = {"rotations": 3}
        closed = _close_system(sys, g, stats)
        mode = "open" if closed is None else stats.get("closed_via", "immediate")
        modes[mode] = modes.get(mode, 0) + 1
        if closed is not None:
            assert all(is_properly_coloured_cycle(g, cyc.vertices) for cyc in closed)
            assert sorted(v for cyc in closed for v in cyc.vertices) == sorted(sys.vertices())
        records.append({"cycles": None if closed is None else [cyc.vertices for cyc in closed], "stats": stats})
    assert modes == {"fallback": 2610, "immediate": 3322, "open": 404}
    assert hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16] == "cf202956910e00e5"


# -- growth and the 2-factor search ---------------------------------------------

def test_maximal_path_cycle_extremes():
    assert maximal_path_cycle(rainbow(5), seed=1).path.order == 5
    assert maximal_path_cycle(monochromatic(5), seed=1).path.order == 2


def test_maximal_path_cycle_layered_bound():
    g = layered_colouring(10, 3)
    for seed in range(10):
        sys = maximal_path_cycle(g, seed=seed)
        assert sys.path.order <= 2 * 3 + 1  # paths have length < 2l+1


_GROWTH_GRAPHS = [
    pytest.param(lambda: rainbow(12), id="rainbow12"),
    pytest.param(lambda: monochromatic(9), id="mono9"),
    pytest.param(lambda: layered_colouring(14, 3), id="layered14-3"),
    pytest.param(lambda: random_bounded_colouring(40, 16, 1, colours=3), id="three-colour40"),
    pytest.param(lambda: random_bounded_colouring(30, 12, 2, colours=4), id="four-colour30"),
]


@pytest.mark.parametrize("make", _GROWTH_GRAPHS)
def test_greedy_paths_are_pc_allowed_and_locally_maximal(make):
    # maximal_path_cycle over the whole graph, and one growth through a
    # third of the vertices: PC, inside the allowed set, and no unused
    # allowed vertex extends either end (the scan after the blind draws)
    g = make()
    for seed in range(6):
        rng = random.Random(seed)
        allowed = set(rng.sample(range(g.n), g.n // 3))
        start = min(allowed)
        for path, allowed_here in (
            (maximal_path_cycle(g, seed=seed).path.vertices, set(range(g.n))),
            (tuple(pch.rotations._grow_path(g, rng, start, sorted(allowed - {start}))), allowed),
        ):
            assert is_properly_coloured_path(g, path)
            assert len(set(path)) == len(path) and set(path) <= allowed_here
            unused = allowed_here - set(path)
            ends = ((path[-1], path[-2]), (path[0], path[1])) if len(path) > 1 else ((path[0], None),)
            for end, inner in ends:
                row = g.rows[end]
                assert not [u for u in unused if inner is None or row[u] != row[inner]]


@pytest.mark.parametrize("make", _GROWTH_GRAPHS)
def test_growth_inside_a_vertex_set_is_growth_on_its_restriction(make):
    # every draw indexes a sorted list, so the path grown inside S is the one
    # grown on induced_subgraph(g, S), relabelled through its old ids
    g = make()
    assert maximal_path_cycle(g, 5, range(g.n)) == maximal_path_cycle(g, 5)
    for seed in range(6):
        rng = random.Random(100 + seed)
        for size in (2, 3, g.n // 2, g.n - 1, g.n):
            S = rng.sample(range(g.n), size)
            sub, old = induced_subgraph(g, sorted(S))
            want = tuple(old[v] for v in maximal_path_cycle(sub, seed).path.vertices)
            assert maximal_path_cycle(g, seed, S).path.vertices == want
    with pytest.raises(ValueError, match="at least 2"):
        maximal_path_cycle(g, 0, [g.n - 1])


def test_greedy_growth_rejects_bad_vertex_sets():
    # a repeated id, an id outside g and a negative id, which would wrap
    g = random_bounded_colouring(12, 5, 0, colours=3)
    for vertices in ([3, 3], [5]):
        with pytest.raises(ValueError, match="at least 2 distinct vertices in 0..11"):
            maximal_path_cycle(g, 0, vertices)
    for vertices, bad in (([20, 1], 20), ([-1, 2, 3], -1), ([0, 11, 12], 12)):
        with pytest.raises(ValueError, match=f"vertex {bad} outside 0..11"):
            maximal_path_cycle(g, 0, vertices)


def test_a_growth_pick_is_uniform_among_allowed():
    # start 0 sees one colour everywhere; inside 1..10 the edges among the
    # vertices outside A = {1, 4, 6} have colour 0 and all others colour 1,
    # so after a first vertex outside A the next pick is allowed only in A,
    # and both the blind draws and the scan pick it
    A = {1, 4, 6}
    g = ColouredComplete.from_function(11, 2, lambda u, v: int(u > 0 and (u in A or v in A)))
    rng = random.Random(0)
    counts = {1: 0, 4: 0, 6: 0}
    for _ in range(4000):
        cand = list(range(1, 11))
        path = pch.rotations._grow_path(g, rng, 0, cand, left=False, order=3)
        assert len(path) == 3 and sorted(cand + path) == list(range(11))
        if path[1] not in A:
            counts[path[2]] += 1
    assert sum(counts.values()) > 2600
    assert all(abs(3 * c / sum(counts.values()) - 1) < 0.1 for c in counts.values())


def _reference_pick(rng, cand, row, avoid, scans):
    """The pick of the growth loop as it was written with ``randrange`` and
    ``choice`` (`pick_extension` before it drew through ``getrandbits`` and
    before it moved inline); appends to `scans` whenever the blind draws all
    miss."""
    if not cand:
        return None
    for _ in range(pch.rotations._BLIND_DRAWS):
        i = rng.randrange(len(cand))
        if row[cand[i]] != avoid:
            break
    else:
        scans.append(len(cand))
        opts = [i for i, u in enumerate(cand) if row[u] != avoid]
        if not opts:
            return None
        i = rng.choice(opts)
    u = cand[i]
    cand[i] = cand[-1]
    cand.pop()
    return u


def _reference_grow(g, rng, path, cand, scans):
    """The growth loop as it was written over `_reference_pick`, with the ends
    taking turns on a deque; it takes the candidate list that it used to
    build as ``sorted(allowed - set(path))``."""
    rows = g.rows
    path = deque(path)
    right = left = True
    while right or left:
        if right:
            end = rows[path[-1]]
            nxt = _reference_pick(rng, cand, end, end[path[-2]] if len(path) > 1 else -1, scans)
            if nxt is None:
                right = False
            else:
                path.append(nxt)
        if left:
            end = rows[path[0]]
            nxt = _reference_pick(rng, cand, end, end[path[1]] if len(path) > 1 else -1, scans)
            if nxt is None:
                left = False
            else:
                path.appendleft(nxt)
    return list(path)


def _reference_member(g, rng, free, scans):
    """One family member as `_draw_family` grew it: a start popped from
    `free`, then right-end picks up to order 4, or None when stuck."""
    path = [free.pop(rng.randrange(len(free)))]
    while len(path) < 4:
        end = g.rows[path[-1]]
        nxt = _reference_pick(rng, free, end, end[path[-2]] if len(path) > 1 else -1, scans)
        if nxt is None:
            return None
        path.append(nxt)
    return tuple(path)


_DRAW_GRAPHS = [
    rainbow(9), monochromatic(7), layered_colouring(14, 3), layered_colouring(24, 4),
    *(random_colouring(n, k, n + k) for n in (5, 8, 16, 33, 64) for k in (2, 3)),
    *(random_bounded_colouring(n, int(.45 * n), n, colours=3) for n in (12, 40, 80, 160)),
    random_bounded_colouring(60, 24, 1, colours=4), random_bounded_colouring(130, 52, 2),
]


def test_growth_draws_as_randrange_and_choice():
    # the loop against the reference on each graph and seed 0..39: one
    # growth from a random start through a random share of the other
    # vertices (none, one, some or all), and members grown right-only up to
    # order 4 on one shared list; same paths, same candidates left and same
    # generator state
    scans, seen = [], set()
    for gi, g in enumerate(_DRAW_GRAPHS):
        for seed in range(40):
            pick = random.Random(1000 * gi + seed)
            start = pick.randrange(g.n)
            others = [v for v in range(g.n) if v != start]
            share = pick.choice((0, 1, pick.randrange(len(others) + 1), len(others)))
            cand = sorted(pick.sample(others, share))
            ours, ref = random.Random(seed), random.Random(seed)
            mine, theirs = list(cand), list(cand)
            path = pch.rotations._grow_path(g, ours, start, mine)
            assert path == _reference_grow(g, ref, [start], theirs, scans)
            assert mine == theirs and ours.getstate() == ref.getstate()
            seen.add("one-vertex" if len(path) == 1 else "stuck with candidates" if mine else "spanning")
            mine, theirs = list(range(g.n)), list(range(g.n))
            for _ in range(g.n // 4):
                member = pch.rotations._grow_path(g, ours, mine.pop(ours.randrange(len(mine))), mine, left=False, order=4)
                want = _reference_member(g, ref, theirs, scans)
                assert (tuple(member) if len(member) == 4 else None) == want
                assert mine == theirs and ours.getstate() == ref.getstate()
                seen.add("member" if want else "stuck member")
    assert len(scans) > 1000
    assert seen == {"one-vertex", "stuck with candidates", "spanning", "member", "stuck member"}


def test_two_factor_rainbow_and_mono():
    out = find_pc_two_factor(rainbow(7))
    assert out.success
    assert verify_certificate(rainbow(7), out.certificate).valid
    out = find_pc_two_factor(monochromatic(7))
    assert not out.success
    assert out.best_system is not None and out.best_system.order >= 2


def test_two_factor_invalid_certificate_raises(monkeypatch):
    monkeypatch.setattr(
        pch.ec_graph, "verify_certificate", lambda g, cert: replace(cert, verdict=VERDICT_INVALID, reason="forced")
    )
    with pytest.raises(RuntimeError, match="2-factor search produced an invalid certificate: forced"):
        find_pc_two_factor(rainbow(7))


@pytest.mark.parametrize("k", [3, 4, 10, 20, 40])
def test_two_factor_stops_with_a_barrier_after_one_attempt(monkeypatch, k):
    # BE(k) has no PC 2-factor: after its one rotation attempt the search
    # asks the matching and stops with its barrier
    starts = []
    grow = pch.rotations.maximal_path_cycle
    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", lambda *a, **kw: starts.append(a) or grow(*a, **kw))
    g = bollobas_erdos(k)
    t0 = time.perf_counter()
    out = find_pc_two_factor(g)
    assert time.perf_counter() - t0 < 1.0
    assert not out.success and len(starts) == 1 and "attempts" not in out.stats
    assert check_barrier(g, out.barrier)
    assert out.best_system is not None


def test_two_factor_closure_stops_at_the_expansion_cap(monkeypatch):
    # BE(40)'s closure expansion reaches the shared rotation cap; the search
    # stops there, on its one path, and the matching's barrier answers
    starts = []
    grow = pch.rotations.maximal_path_cycle
    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", lambda *a, **kw: starts.append(a) or grow(*a, **kw))
    g = bollobas_erdos(40)
    out = find_pc_two_factor(g, 0)
    assert not out.success and len(starts) == 1
    assert out.stats["rotations"] == 5_000 == pch.rotations.EXPANSION_ROTATIONS
    assert check_barrier(g, out.barrier)


def test_two_factor_success_path_skips_the_matching(monkeypatch):
    calls = []
    matching = pch.rotations.pc_two_factor_matching
    monkeypatch.setattr(pch.rotations, "pc_two_factor_matching", lambda g: calls.append(g) or matching(g))
    # a rotation attempt that succeeds never asks
    assert find_pc_two_factor(rainbow(7)).success and not calls
    # one that stops short asks once and returns the matching's 2-factor
    g = random_colouring(8, 2, 0)
    out = find_pc_two_factor(g, 0)
    assert calls == [g]
    assert out.success and out.barrier is None and out.best_system is None
    assert out.stats["closed_via"] == "matching"
    assert out.certificate == matching(g)[0]
    assert verify_certificate(g, out.certificate).valid


def test_two_factor_small_n():
    out = find_pc_two_factor(rainbow(3))
    assert out.success
    with pytest.raises(ValueError, match="^need n >= 3, got 2$"):
        find_pc_two_factor(rainbow(2))


def test_two_factor_oracle_agreement_sample():
    hits = total = 0
    for seed in range(15):
        g = random_bounded_colouring(12, 4, seed)
        oracle = exact_pc_two_factor(g)
        heur = find_pc_two_factor(g, seed)
        if heur.success:
            assert verify_certificate(g, heur.certificate).valid
        if oracle.exists:
            total += 1
            # a 2-factor from the matching is not the rotations' own
            hits += heur.success and heur.stats.get("closed_via") != "matching"
    assert total > 0
    assert hits / total >= 0.9


def _two_factor_corpus():
    for seed in range(10):
        yield random_bounded_colouring(9, 3, seed, colours=3), seed
    # about 100 of these stop short of a 2-factor in their rotation attempt
    # though one exists, such as random_colouring(6, 3, 82) at seed 82
    for n in range(6, 17):
        for k in (2, 3):
            for seed in range(150):
                yield random_colouring(n, k, seed), seed


def test_two_factor_never_claims_nonexistent():
    # the search succeeds exactly when a PC 2-factor exists, and each of its
    # failures carries a barrier that proves it
    rescued = 0
    for g, seed in _two_factor_corpus():
        heur = find_pc_two_factor(g, seed)
        assert heur.success == exact_pc_two_factor(g).exists
        if heur.success:
            assert verify_certificate(g, heur.certificate).valid
            rescued += heur.stats.get("closed_via") == "matching"
        else:
            assert check_barrier(g, heur.barrier)
    assert rescued > 0


@pytest.mark.parametrize(
    "g, cut",
    [
        pytest.param(rainbow(12), 1, id="rainbow12-cut1"),
        pytest.param(rainbow(12), 3, id="rainbow12-cut3"),
        pytest.param(random_bounded_colouring(9, 4, 1, colours=3), 1, id="three9-cut1"),
    ],
)
def test_a_closed_path_short_of_spanning_goes_to_the_matching(monkeypatch, g, cut):
    # an initial path `cut` vertices short could still close, but its cycle
    # would leave vertices out: the one attempt does not try to close it,
    # makes no rotation and the matching answers
    starts, closures = [], []

    def short(*args, **kwargs):
        starts.append(args)
        sys = maximal_path_cycle(*args, **kwargs)
        return replace(sys, path=DirectedPath(sys.path.vertices[:-cut]))

    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", short)
    monkeypatch.setattr(pch.rotations, "_close_system", lambda *a: closures.append(a))
    out = find_pc_two_factor(g)
    assert len(starts) == 1 and closures == []
    assert out.stats == {"rotations": 0, "closed_via": "matching"}
    assert out.certificate == pc_two_factor_matching(g)[0]
    assert out.success and verify_certificate(g, out.certificate).valid


def _two_factor_digest(g):
    """First 16 hex digits of sha256 over ``json.dumps(records, sort_keys=True)``:
    one record per seed 0-2 of `find_pc_two_factor` (its cycles or None, its
    stats and its best system's vertices or None)."""
    records = []
    for seed in range(3):
        out = find_pc_two_factor(g, seed)
        records.append({
            "cycles": out.certificate.cycles if out.success else None,
            "stats": out.stats,
            "best": out.best_system.vertices() if out.best_system else None,
        })
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, digest", [
    pytest.param(lambda: random_bounded_colouring(12, 5, 0, colours=3),
                 "a2395f985b98e727", id="three12"),
    pytest.param(lambda: random_bounded_colouring(24, 10, 1, colours=3),
                 "1306cd07fdd5b662", id="three24"),
    pytest.param(lambda: random_bounded_colouring(40, 18, 2, colours=3),
                 "38d6966d01d2a53b", id="three40"),
    pytest.param(lambda: random_bounded_colouring(30, 12, 3, colours=4),
                 "19a1bc9517d540da", id="four30"),
    pytest.param(lambda: random_bounded_colouring(40, 16, 0),
                 "16c845cb73c32329", id="rainbow40"),
    pytest.param(lambda: near_bollobas_erdos(10, 0),
                 "376ab2a86b3b79eb", id="near-be10"),
    pytest.param(lambda: layered_colouring(14, 3),
                 "22913d676fc6adfa", id="layered14-3"),
])
def test_two_factor_outcomes_are_pinned(make, digest):
    # taken before growth became one inline loop; layered14-3 again once a
    # path short of spanning no longer rotated (its greedy paths miss
    # vertices, and each seed's 2 rotations went to 0)
    assert _two_factor_digest(make()) == digest


def test_rotate_preconditions():
    # a right-end chord leaves y, misses x and x's path neighbour, and avoids
    # c_y: on the rainbow path 0..5 that leaves 2 and 3, on a monochromatic
    # one nothing; at both ends of random systems the chord targets are
    # exactly the vertices this derivation gives
    assert list(_right_chords(path_system(0, 1, 2, 3, 4, 5), rainbow(6))) == [2, 3]
    assert list(_right_chords(path_system(0, 1, 2, 3, 4, 5), monochromatic(6))) == []
    rng = random.Random(7)
    total = 0
    for _ in range(1000):
        g, sys = random_system_instance(rng)
        for start in (sys, sys.reverse()):
            x, _, y, c_y = ends(start, g)
            skip = {y, x, start.path.vertices[1]}
            chords = [w for w in sorted(start.vertices()) if w not in skip and g.colour(y, w) != c_y]
            assert list(_right_chords(start, g)) == chords
            total += len(chords)
    assert total > 7_000


def test_rotate_takes_its_target_from_rotation_targets():
    # at both ends of random systems, a neighbour u of a chord target w is a
    # rotation target exactly when the rotation to it is a valid system on
    # the same vertices that ends at u
    rng = random.Random(7)
    rotations = blocked = 0
    for _ in range(1000):
        g, sys = random_system_instance(rng)
        for start in (sys, sys.reverse()):
            adj = system_adjacency(start)
            for w in _right_chords(start, g):
                targets = rotation_targets(start, g, w)
                assert len(set(targets)) == len(targets) and set(targets) <= set(adj[w])
                for u in adj[w]:
                    out = _rewire_right(start, w, u)
                    try:
                        validate_system(out, g)
                        ok = sorted(out.vertices()) == sorted(start.vertices()) and out.path.last == u
                    except ValueError:
                        ok = False
                    assert (u in targets) == ok
                    rotations += ok
                    blocked += not ok
    assert rotations > 12_000 and blocked > 3_000


def test_closable_is_a_pc_cycle_check():
    # a path closes exactly when, of order >= 3, it is a PC cycle once its
    # ends are joined
    rng = random.Random(11)
    closable = 0
    for _ in range(4000):
        g, sys = random_system_instance(rng)
        for start in (sys, sys.reverse()):
            path = start.path.vertices
            want = len(path) >= 3 and is_properly_coloured_cycle(g, path)
            assert _closable(start, g) == want
            closable += want
    assert closable > 4_000


def test_layered_has_no_two_factor_and_both_sides_agree():
    # every PC cycle in the layered family uses at least as many hub vertices
    # as others, so no cycle family can cover the big side: no PC 2-factor
    g = layered_colouring(10, 3)
    assert not exact_pc_two_factor(g).exists
    out = find_pc_two_factor(g)
    assert not out.success
    assert out.best_system is not None


def test_closure_rotates_left_end_on_blocked_path(monkeypatch):
    # rainbow except the closing edge repeats the colour at x: the immediate
    # closure is blocked, so rotating the left end must close it, in layer 1
    n = 40
    counter = iter(range(n * n))
    tab = {}
    for u in range(n):
        for v in range(u + 1, n):
            tab[(u, v)] = next(counter)
    tab[(0, n - 1)] = tab[(0, 1)]
    g = ColouredComplete.from_function(n, n * n, lambda u, v: tab[(u, v)])
    sys = path_system(*range(n))
    stats = {"rotations": 0}
    closed, checked = closure_checks(monkeypatch, sys, g, stats, _closable)
    assert closed is not None
    layer_one = sum(len(rotation_targets(sys.reverse(), g, w)) for w in _right_chords(sys.reverse(), g))
    assert stats == {"rotations": layer_one, "closed_via": "fallback"}
    assert checked[0] == (sys.reverse(), 0)
    covered = set()
    for cyc in closed:
        assert is_properly_coloured_cycle(g, cyc)
        covered |= set(cyc.vertices)
    assert covered == set(range(n))


def test_two_factor_near_threshold_closes_in_few_rotations():
    # max monochromatic degree floor(n/2) - 1 on n = 321: the closures need
    # rotations, and the left end alone reaches a closable state quickly
    g = near_bollobas_erdos(80, 5)
    out = find_pc_two_factor(g, 5)
    assert out.success
    assert 0 < out.stats["rotations"] <= 1_000


def test_two_factor_closure_tries_depth_one_first():
    # a depth-1 state closes here, so the closure never builds its depth-2 layer
    out = find_pc_two_factor(near_bollobas_erdos(40, 2), 2)
    assert out.success
    assert out.stats["rotations"] <= 200
