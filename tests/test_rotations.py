import hashlib
import itertools
import json
import random
import time
from collections import deque
from dataclasses import replace

import pytest

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
    induced_subgraph,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    verify_certificate,
)
from pch.exact import check_barrier, exact_pc_two_factor, pc_two_factor_matching
from pch.rotations import (
    PathCycleSystem,
    _closable,
    _rewire_right,
    _right_chords,
    expand_endpoint_colours,
    find_pc_two_factor,
    maximal_path_cycle,
    rotation_targets,
)
from tests.conftest import random_system_instance, validate_system


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
    for piece in (sys.path, *sys.cycles):
        for a, b in piece.edges():
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
    assert out.cycles[0].canonical() == DirectedCycle((2, 3, 4)).canonical()


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
    assert split.cycles[0].canonical() == DirectedCycle((3, 4, 5, 6)).canonical()


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


# -- endpoint expansion --------------------------------------------------------

def test_expand_depth_zero_is_right_endpoint():
    # the first state, read before any rotation, is the right end itself
    g = rainbow(20)
    sys = path_system(*range(20))
    stats = {"rotations": 0}
    st = next(expand_endpoint_colours(sys, g, stats))
    assert (st.vertex, st.colour, st.depth, st.system) == (19, g.colour(19, 18), 0, sys)
    assert stats["rotations"] == 0


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


def depth_at_most_one(states):
    """The states of an expansion that take at most one rotation."""
    return list(itertools.takewhile(lambda st: st.depth <= 1, states))


def test_expand_rainbow_depth_one_matches_case_analysis():
    # identity path in a rainbow colouring: every interior target w in positions
    # 2..n-3 admits both outcomes
    n = 16
    g = rainbow(n)
    states = depth_at_most_one(expand_endpoint_colours(path_system(*range(n)), g, {"rotations": 0}))
    assert {(st.vertex, st.colour) for st in states[1:]} == rainbow_layer_one(g, range(2, n - 2))


def right_rotations(sys, g):
    """Every system that one right-end rotation of sys makes."""
    return {_rewire_right(s, w, t) for s, w, t in eligible_chords(sys, g) if s is sys}


def test_expansion_states_are_valid_systems_at_their_depth():
    # each state's system is a valid system on the start's vertices with the
    # start's left end, ends at the state's (vertex, colour), and is made by
    # exactly `depth` right-end rotations from the start, which no fewer
    # rotations reach that endpoint state in; the left end is expanded as the
    # right end of the reversed system
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
            x, c_x, y, c_y = ends(start, g)
            one = right_rotations(start, g)
            shallower = {(y, c_y)} | {ends(s, g)[2:] for s in one}
            two = None
            for i, st in enumerate(expand_endpoint_colours(start, g, {"rotations": 0})):
                cur = st.system
                validate_system(cur, g)
                assert sorted(cur.vertices()) == sorted(start.vertices())
                assert ends(cur, g) == (x, c_x, st.vertex, st.colour)
                if st.depth == 0:
                    assert i == 0 and cur == start
                elif st.depth == 1:
                    assert cur in one and (st.vertex, st.colour) != (y, c_y)
                else:
                    if two is None:
                        two = set().union(*(right_rotations(s, g) for s in one))
                    assert st.depth == 2 and cur in two
                    assert (st.vertex, st.colour) not in shallower
                replayed[flip] += 1
                deepest[flip] = max(deepest[flip], st.depth)
    assert min(replayed.values()) > 1000 and deepest == {False: 2, True: 2}


def test_expansion_is_read_lazily_and_counts_its_rotations(monkeypatch):
    # states come layer by layer, each (z, c_z) once and sorted within its
    # layer; a layer's rotations are made, and added to the caller's count,
    # only when the caller reads past the layer before it
    g = near_bollobas_erdos(10, 0)
    sys = maximal_path_cycle(g, seed=0)
    stats = {"rotations": 7}
    read = [
        (st.depth, (st.vertex, st.colour), stats["rotations"])
        for st in expand_endpoint_colours(sys, g, stats)
    ]
    assert read == sorted(read) and read[-1][0] == 2
    assert len({key for _, key, _ in read}) == len(read)
    made = {depth: {count for d, _, count in read if d == depth} for depth in (0, 1, 2)}
    layer_one = sum(len(rotation_targets(sys, g, w)) for w in _right_chords(sys, g))
    assert made == {0: {7}, 1: {7 + layer_one}, 2: {stats["rotations"]}}
    assert 7 + layer_one < stats["rotations"]
    # a cap cuts the layer it is reached in, which is then dropped
    monkeypatch.setattr(pch.rotations, "EXPANSION_ROTATIONS", 3)
    capped = {"rotations": 0}
    assert [st.depth for st in expand_endpoint_colours(sys, g, capped)] == [0]
    assert capped["rotations"] == 3


def test_expand_no_chords_gives_empty_layer():
    # all edges at the right endpoint share the path-edge colour
    n = 8
    edges = {}
    for i in range(n - 1):
        edges[(i, i + 1)] = i % 2
    for u in range(n - 1):
        edges[(u, n - 1)] = (n - 2) % 2  # equal to the path edge colour at y
    g = graph_from_edges(n, 3, edges, default=2)
    sys = path_system(*range(n))
    stats = {"rotations": 0}
    assert [st.depth for st in expand_endpoint_colours(sys, g, stats)] == [0]
    assert stats["rotations"] == 0


def test_expand_left_side_mirrors():
    # the left end expands as the right end of the reversed system
    g = rainbow(20)
    sys = path_system(*range(20))
    states = depth_at_most_one(expand_endpoint_colours(sys.reverse(), g, {"rotations": 0}))
    assert len(states) > 1
    for st in states:
        assert ends(st.system.reverse(), g) == (st.vertex, st.colour, 19, g.colour(19, 18))


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
    for vertices in ([3, 3], [20, 1], [-1, 2, 3], [0, 11, 12], [5]):
        with pytest.raises(ValueError, match="at least 2 distinct vertices in 0..11"):
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
        pch.rotations, "verify_certificate", lambda g, cert: replace(cert, verdict=VERDICT_INVALID, reason="forced")
    )
    with pytest.raises(RuntimeError, match="forced"):
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
    # an initial path `cut` vertices short still closes, but its cycle leaves
    # vertices out: the one attempt ends there and the matching answers
    starts, closures = [], []

    def short(*args, **kwargs):
        starts.append(args)
        sys = maximal_path_cycle(*args, **kwargs)
        return replace(sys, path=DirectedPath(sys.path.vertices[:-cut]))

    close = pch.rotations._close_system
    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", short)
    monkeypatch.setattr(pch.rotations, "_close_system", lambda *a: closures.append(close(*a)) or closures[-1])
    out = find_pc_two_factor(g)
    (closed,) = closures
    assert len(starts) == 1
    assert closed is not None and sum(c.order for c in closed) == g.n - cut
    assert out.stats["closed_via"] == "matching"
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
                 "11e5ec35da7cad98", id="layered14-3"),
])
def test_two_factor_outcomes_are_pinned(make, digest):
    # taken before growth became one inline loop
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


def test_expansion_needs_a_path_of_order_two():
    sys = PathCycleSystem(DirectedPath((0,)), (DirectedCycle((3, 4, 5)),))
    with pytest.raises(ValueError, match="order >= 2"):
        next(expand_endpoint_colours(sys, rainbow(8), {"rotations": 0}))


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
    # closure is blocked, so rotating the left end must close it
    from pch.rotations import _close_system

    starts = []
    expand = pch.rotations.expand_endpoint_colours

    def spy(sys, *args, **kwargs):
        starts.append(sys)
        return expand(sys, *args, **kwargs)

    monkeypatch.setattr(pch.rotations, "expand_endpoint_colours", spy)

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
    closed = _close_system(sys, g, stats)
    assert closed is not None
    assert stats.get("closed_via") == "fallback"
    assert starts == [sys.reverse()]
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
