import random
from collections import deque
from dataclasses import replace

import pytest

import pch.rotations
from pch.constructions import (
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
)
from pch.ec_graph import (
    VERDICT_INVALID,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    is_properly_coloured_path,
    two_factor_certificate,
    verify_certificate,
)
from pch.exact import exact_pc_two_factor
from pch.rotations import (
    LEFT,
    RIGHT,
    Chord,
    PathCycleSystem,
    TwoFactorOutcome,
    apply_chord_sequence,
    combine_rotation_sequences,
    expand_endpoint_colours,
    find_chords,
    find_pc_ham_path_heuristic,
    find_pc_two_factor,
    is_spread_out,
    maximal_path_cycle,
    rotate,
    rotation_targets,
    system_adjacency,
    validate_system,
)
from tests.conftest import random_system_instance


def graph_from_edges(n, k, edges, default=0):
    """Explicit colours for listed pairs, `default` elsewhere."""
    tab = {}
    for (a, b), c in edges.items():
        tab[(min(a, b), max(a, b))] = c
    return ColouredComplete.from_function(n, k, lambda u, v: tab.get((u, v), default))


def path_system(*verts) -> PathCycleSystem:
    return PathCycleSystem(DirectedPath(tuple(verts)))


def test_validate_system_rejects_broken_systems():
    g, mono = rainbow(8), monochromatic(8)
    validate_system(PathCycleSystem(DirectedPath((0, 1, 2)), (DirectedCycle((3, 4, 5)),)), g)
    for graph, sys, reason in [
        (g, PathCycleSystem(DirectedPath((0,)), (DirectedCycle((3, 4, 5)),)), "order >= 2"),
        (g, PathCycleSystem(DirectedPath((0, 1, 2)), (DirectedCycle((2, 4, 5)),)), "shares vertex 2"),
        (g, PathCycleSystem(DirectedPath((0, 1, 8))), "outside 0..7"),
        (mono, PathCycleSystem(DirectedPath((0, 1, 2))), "path: adjacent edges"),
        (mono, PathCycleSystem(None, (DirectedCycle((0, 1, 2)),)), "cycle 0: adjacent edges"),
    ]:
        with pytest.raises(ValueError, match=reason):
            validate_system(sys, graph)


# -- chords -------------------------------------------------------------------

def test_find_chords_rainbow_path():
    g = rainbow(6)
    sys = path_system(0, 1, 2, 3, 4, 5)
    chords = find_chords(sys, g, RIGHT)
    # every system vertex qualifies except the endpoint itself and its path
    # neighbour, whose edge IS the endpoint colour
    assert [c.w for c in chords] == [0, 1, 2, 3]
    assert all(c.side == RIGHT and c.endpoint == 5 for c in chords)
    left = find_chords(sys, g, LEFT)
    assert [c.w for c in left] == [2, 3, 4, 5]


def test_find_chords_monochromatic_empty():
    g = monochromatic(5)
    sys = path_system(0, 1)
    assert find_chords(sys, g, RIGHT) == []
    assert find_chords(sys, g, LEFT) == []


def test_find_chords_three_colour_membership():
    edges = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (3, 4): 1, (4, 2): 2}
    g = graph_from_edges(5, 3, edges)
    sys = path_system(0, 1, 2, 3, 4)
    chords = find_chords(sys, g, RIGHT)
    assert Chord(RIGHT, 4, 2) in chords


def test_find_chords_requires_path():
    g = rainbow(6)
    sys = PathCycleSystem(None, (DirectedCycle((0, 1, 2)),))
    with pytest.raises(ValueError):
        find_chords(sys, g, RIGHT)


# -- single rotations: the three cases ----------------------------------------

def test_rotate_path_rewire_case():
    # chord (4, 2) avoids the colour of edge (2, 1): keep one path, flip the tail
    edges = {(0, 1): 0, (1, 2): 1, (2, 3): 0, (3, 4): 1, (4, 2): 2}
    g = graph_from_edges(5, 3, edges, default=2)
    sys = path_system(0, 1, 2, 3, 4)
    out = rotate(sys, g, Chord(RIGHT, 4, 2))
    assert out.path.vertices == (0, 1, 2, 4, 3)
    assert out.cycles == ()
    p = out.params(g)
    assert (p.x, p.c_x) == (0, 0)
    assert p.y == 3 and p.c_y == g.colour(3, 4)


def test_rotate_split_case():
    # chord colour matches the edge towards x, so the tail splits off as a cycle
    edges = {(0, 1): 0, (1, 2): 2, (2, 3): 0, (3, 4): 1, (4, 2): 2}
    g = graph_from_edges(5, 3, edges, default=1)
    sys = path_system(0, 1, 2, 3, 4)
    out = rotate(sys, g, Chord(RIGHT, 4, 2))
    assert out.path.vertices == (0, 1)
    assert len(out.cycles) == 1
    assert out.cycles[0].canonical() == DirectedCycle((2, 3, 4)).canonical()


def test_rotate_absorbs_cycle():
    g = rainbow(8)
    sys = PathCycleSystem(DirectedPath((0, 1, 2)), (DirectedCycle((3, 4, 5)),))
    out = rotate(sys, g, Chord(RIGHT, 2, 4))
    assert out.cycles == ()
    assert out.path.order == 6
    assert out.vertex_set() == sys.vertex_set()
    assert out.path.vertices[:4] == (0, 1, 2, 4)


def test_rotate_targeted_outcomes():
    g = rainbow(7)
    sys = path_system(0, 1, 2, 3, 4, 5, 6)
    # in a rainbow colouring both neighbours of an interior target are reachable
    assert rotation_targets(sys, g, RIGHT, 3) == [4, 2]
    fwd = rotate(sys, g, Chord(RIGHT, 6, 3, target=4))
    assert fwd.path.vertices == (0, 1, 2, 3, 6, 5, 4)
    split = rotate(sys, g, Chord(RIGHT, 6, 3, target=2))
    assert split.path.vertices == (0, 1, 2)
    assert split.cycles[0].canonical() == DirectedCycle((3, 4, 5, 6)).canonical()


def test_rotate_preconditions():
    g = rainbow(6)
    sys = path_system(0, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        rotate(sys, g, Chord(RIGHT, 4, 2))  # wrong endpoint
    with pytest.raises(ValueError):
        rotate(sys, g, Chord(RIGHT, 5, 0))  # hits opposite endpoint
    with pytest.raises(ValueError):
        rotate(sys, g, Chord(RIGHT, 5, 1))  # hits its neighbour
    mono = monochromatic(6)
    with pytest.raises(ValueError):
        rotate(path_system(0, 1, 2, 3, 4, 5), mono, Chord(RIGHT, 5, 2))  # not a chord


def eligible_chords(sys, g):
    adj = system_adjacency(sys)
    p = sys.params(g)
    out = []
    for side in (LEFT, RIGHT):
        other = p.y if side == LEFT else p.x
        for ch in find_chords(sys, g, side):
            if ch.w != other and ch.w not in adj[other]:
                for tgt in rotation_targets(sys, g, side, ch.w):
                    out.append(Chord(side, ch.endpoint, ch.w, tgt))
    return out


def check_rotation_contract(g, sys, ch):
    """Soundness plus the endpoint contract and locality, checked exactly."""
    old_adj = system_adjacency(sys)
    p = sys.params(g)
    out = rotate(sys, g, ch)  # validates properness + vertex set
    q = out.params(g)
    if ch.side == RIGHT:
        assert (q.x, q.c_x) == (p.x, p.c_x)
        newend, newcol = q.y, q.c_y
    else:
        assert (q.y, q.c_y) == (p.y, p.c_y)
        newend, newcol = q.x, q.c_x
    nb = old_adj[newend]
    assert newend in old_adj[ch.w]
    assert ch.w in nb and len(nb) == 2
    wprime = nb[0] if nb[1] == ch.w else nb[1]
    assert newcol == g.colour(newend, wprime)

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

    endpoint = p.y if ch.side == RIGHT else p.x
    other = p.x if ch.side == RIGHT else p.y
    dx, dy, dw = dist_from(other), dist_from(endpoint), dist_from(ch.w)
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
        check_rotation_contract(g, sys, rng.choice(chords))
        done += 1


# -- sequences ----------------------------------------------------------------

def test_apply_sequence_empty_and_single():
    g = rainbow(8)
    sys = path_system(*range(8))
    assert apply_chord_sequence(sys, g, []) == sys
    ch = Chord(RIGHT, 7, 3)
    assert apply_chord_sequence(sys, g, [ch]) == rotate(sys, g, ch)


def test_apply_sequence_two_spread_right_chords():
    g = rainbow(30)
    sys = path_system(*range(30))
    first = Chord(RIGHT, 29, 14)
    mid = rotate(sys, g, first)
    second = Chord(RIGHT, mid.params(g).y, 7)
    out = apply_chord_sequence(sys, g, [first, second])
    p = out.params(g)
    assert p.x == 0 and p.c_x == g.colour(0, 1)
    assert p.y in (6, 8)  # a neighbour of the last chord target in the original


def test_apply_sequence_reports_failing_index():
    g = rainbow(10)
    sys = path_system(*range(10))
    with pytest.raises(ValueError, match="chord 1"):
        apply_chord_sequence(sys, g, [Chord(RIGHT, 9, 4), Chord(RIGHT, 9, 4)])


def test_is_spread_out_examples():
    g = rainbow(30)
    sys7 = path_system(*range(7))
    assert is_spread_out(sys7, [])  # ends at distance 6 > 5
    assert not is_spread_out(path_system(*range(6)), [])
    sys30 = path_system(*range(30))
    assert is_spread_out(sys30, [Chord(RIGHT, 29, 14)])
    assert not is_spread_out(sys30, [Chord(RIGHT, 29, 1)])  # target adjacent to x
    # unreachable pieces count as infinitely far apart
    sys_c = PathCycleSystem(DirectedPath(tuple(range(7))), (DirectedCycle((10, 11, 12)),))
    assert is_spread_out(sys_c, [Chord(RIGHT, 6, 11)])


def test_combine_empty_sides():
    g = rainbow(20)
    sys = path_system(*range(20))
    r = [Chord(RIGHT, 19, 9)]
    assert combine_rotation_sequences(sys, g, r, []) == apply_chord_sequence(sys, g, r)
    l = [Chord(LEFT, 0, 9)]
    assert combine_rotation_sequences(sys, g, [], l) == apply_chord_sequence(sys, g, l)


def test_combine_parameter_identity():
    g = rainbow(40)
    sys = path_system(*range(40))
    right = [Chord(RIGHT, 39, 20)]
    left = [Chord(LEFT, 0, 30)]
    alone_r = apply_chord_sequence(sys, g, right).params(g)
    alone_l = apply_chord_sequence(sys, g, left).params(g)
    combined = combine_rotation_sequences(sys, g, right, left)
    p = combined.params(g)
    assert (p.y, p.c_y) == (alone_r.y, alone_r.c_y)
    assert (p.x, p.c_x) == (alone_l.x, alone_l.c_x)
    assert combined.vertex_set() == sys.vertex_set()


def test_combine_rejects_crowded_sequences():
    g = rainbow(12)
    sys = path_system(*range(12))
    with pytest.raises(ValueError, match="spread"):
        combine_rotation_sequences(sys, g, [Chord(RIGHT, 11, 5)], [Chord(LEFT, 0, 6)])


def test_combine_randomized_parameter_identity():
    done = 0
    for seed in range(40):
        g = random_bounded_colouring(45, 18, seed)
        sys = maximal_path_cycle(g, seed=seed, restarts=10)
        if sys.path.order < 28:
            continue
        res_r = expand_endpoint_colours(sys, g, RIGHT, max_depth=1)
        res_l = expand_endpoint_colours(sys, g, LEFT, max_depth=1)
        pick = None
        for kr in sorted(res_r.layers[1]):
            for kl in sorted(res_l.layers[1]):
                sr, sl = res_r.layers[1][kr], res_l.layers[1][kl]
                if is_spread_out(sys, sr.chords + sl.chords):
                    pick = (sr, sl)
                    break
            if pick:
                break
        if pick is None:
            continue
        sr, sl = pick
        combined = combine_rotation_sequences(sys, g, sr.chords, sl.chords)
        p = combined.params(g)
        assert (p.y, p.c_y) == (sr.vertex, sr.colour)
        assert (p.x, p.c_x) == (sl.vertex, sl.colour)
        done += 1
    assert done >= 3


# -- endpoint expansion --------------------------------------------------------

def test_expand_depth_zero_is_right_endpoint():
    g = rainbow(20)
    sys = path_system(*range(20))
    res = expand_endpoint_colours(sys, g, RIGHT, max_depth=0)
    assert list(res.layers[0]) == [(19, g.colour(19, 18))]


def test_expand_rainbow_depth_one_matches_case_analysis():
    # identity path in a rainbow colouring: every interior target w in positions
    # 2..n-3 admits both outcomes; with spacing off, nothing else interferes
    n = 16
    g = rainbow(n)
    sys = path_system(*range(n))
    res = expand_endpoint_colours(sys, g, RIGHT, max_depth=1, require_spread=False)
    expected = set()
    for w in range(2, n - 2):
        # rewiring towards the far neighbour: the new end keeps its other edge
        nxt = w + 1
        expected.add((nxt, g.colour(nxt, nxt + 1 if nxt + 1 < n else nxt - 1)))
        # splitting towards the near neighbour
        expected.add((w - 1, g.colour(w - 1, w - 2)))
    assert set(res.layers[1]) == expected


def test_expand_spread_depth_one_respects_distances():
    n = 30
    g = rainbow(n)
    sys = path_system(*range(n))
    res = expand_endpoint_colours(sys, g, RIGHT, max_depth=1, require_spread=True)
    targets_used = {w for (z, c) in res.layers[1] for w in (z - 1, z + 1) if 0 <= w < n}
    # chord targets must sit more than 5 positions from both ends
    for (z, c) in res.layers[1]:
        assert any(5 < w < n - 6 for w in (z - 1, z + 1))


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
    res = expand_endpoint_colours(sys, g, RIGHT, max_depth=2, require_spread=False)
    assert res.layers[1] == {}


def test_expand_left_side_mirrors():
    g = rainbow(20)
    sys = path_system(*range(20))
    res = expand_endpoint_colours(sys, g, LEFT, max_depth=1, require_spread=False)
    assert all(ch.side == LEFT for st in res.layers[1].values() for ch in st.chords)
    for (z, c), st in res.layers[1].items():
        p = st.system.params(g)
        assert (p.x, p.c_x) == (z, c)
        assert (p.y, p.c_y) == (19, g.colour(19, 18))


# -- growth and the 2-factor search ---------------------------------------------

def test_maximal_path_cycle_extremes():
    assert maximal_path_cycle(rainbow(5), seed=1).path.order == 5
    assert maximal_path_cycle(monochromatic(5), seed=1).path.order == 2


def test_maximal_path_cycle_layered_bound():
    g = layered_colouring(10, 3)
    for seed in range(10):
        sys = maximal_path_cycle(g, seed=seed)
        assert sys.path.order <= 2 * 3 + 1  # paths have length < 2l+1


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


# -- invariant checks raise, so they hold under python -O --------------------

def test_rotation_vertex_set_check_raises(monkeypatch):
    # a rotation whose path loses its last vertex is still a valid system
    monkeypatch.setattr(pch.rotations, "DirectedPath", lambda vs: DirectedPath(vs[:-1]))
    with pytest.raises(RuntimeError, match="vertex set"):
        rotate(path_system(*range(8)), rainbow(8), Chord(RIGHT, 7, 3))


def test_chord_sequence_guarantee_raises(monkeypatch):
    # a rotation that does nothing leaves the right end away from the chord target
    monkeypatch.setattr(pch.rotations, "rotate", lambda sys, g, chord: sys)
    with pytest.raises(RuntimeError, match="last chord target"):
        apply_chord_sequence(path_system(*range(30)), rainbow(30), [Chord(RIGHT, 29, 14)])


def test_combine_guarantee_raises(monkeypatch):
    # right rotations that lose a vertex
    monkeypatch.setattr(
        pch.rotations,
        "apply_chord_sequence",
        lambda sys, g, seq, check_guarantees=True: path_system(*sys.path.vertices[:-1]),
    )
    with pytest.raises(RuntimeError, match="vertex set"):
        combine_rotation_sequences(path_system(*range(40)), rainbow(40), [Chord(RIGHT, 39, 20)], [Chord(LEFT, 0, 30)])


def test_ham_path_heuristic_check_raises(monkeypatch):
    g = rainbow(8)
    tf = find_pc_two_factor(g)
    monkeypatch.setattr(pch.rotations, "is_properly_coloured_path", lambda g, path: False)
    with pytest.raises(RuntimeError, match="not properly coloured"):
        find_pc_ham_path_heuristic(g, tf)


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
            hits += heur.success
    assert total > 0
    assert hits / total >= 0.9


def test_two_factor_never_claims_nonexistent():
    for seed in range(10):
        g = random_bounded_colouring(9, 3, seed, colours=3)
        heur = find_pc_two_factor(g, seed)
        if heur.success:
            assert exact_pc_two_factor(g).exists


def test_ham_path_heuristic_spanning_and_proper():
    for seed in range(6):
        g = random_bounded_colouring(14, 5, seed)
        p = find_pc_ham_path_heuristic(g, find_pc_two_factor(g, seed))
        if p is not None:
            assert p.order == g.n
            assert is_properly_coloured_path(g, p)


@pytest.mark.parametrize("seed", [13, 14])
def test_ham_path_heuristic_absorbs_a_second_cycle(seed):
    g = random_bounded_colouring(14, 5, seed)
    tf = find_pc_two_factor(g, seed)
    assert len(tf.certificate.cycles) == 2
    p = find_pc_ham_path_heuristic(g, tf)
    assert sorted(p.vertices) == list(range(g.n))
    assert is_properly_coloured_path(g, p)


def test_ham_path_heuristic_tries_the_next_opening():
    # triangles 012 and 345; every edge from 0 to the other triangle has the
    # colour of 01 and every one from 2 the colour of 21, so the opening at 0,
    # path 0 1 2, has no chord into 345 and the opening at 1 absorbs it
    edges = {(0, 1): 0, (1, 2): 1, (0, 2): 2, (3, 4): 0, (4, 5): 1, (3, 5): 2}
    for b in (3, 4, 5):
        edges.update({(0, b): 0, (1, b): 3, (2, b): 1})
    g = graph_from_edges(6, 4, edges)
    tf = TwoFactorOutcome(two_factor_certificate([(0, 1, 2), (3, 4, 5)]), None, {})
    p = find_pc_ham_path_heuristic(g, tf)
    assert p.vertices[:3] == (1, 2, 0)
    assert sorted(p.vertices) == list(range(6))
    assert is_properly_coloured_path(g, p)


def test_ham_path_heuristic_without_a_two_factor():
    g = monochromatic(7)
    assert find_pc_ham_path_heuristic(g, find_pc_two_factor(g)) is None


@pytest.mark.parametrize(
    "g, cut, sizes",
    [
        pytest.param(rainbow(12), 1, [12], id="1-sizes0"),
        pytest.param(rainbow(12), 3, [9, 3], id="3-sizes1"),
        # unlike in a rainbow colouring, the stranded vertex's edge into the
        # cycle can repeat a cycle colour there, so the walk direction matters
        pytest.param(random_bounded_colouring(9, 4, 1, colours=3), 1, [9], id="1-sizes2"),
    ],
)
def test_two_factor_reopens_on_leftover_vertices(monkeypatch, g, cut, sizes):
    # an initial path `cut` vertices short: one leftover vertex is rotated
    # into the closed cycle, three grow a path of their own
    def short(*args, **kwargs):
        sys = maximal_path_cycle(*args, **kwargs)
        return replace(sys, path=DirectedPath(sys.path.vertices[:-cut]))

    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", short)
    out = find_pc_two_factor(g)
    assert out.success and verify_certificate(g, out.certificate).valid
    assert [len(c) for c in out.certificate.cycles] == sizes


def test_rotate_takes_its_target_from_rotation_targets():
    rng = random.Random(7)
    rotations = blocked = 0
    for _ in range(300):
        g, sys = random_system_instance(rng)
        adj = system_adjacency(sys)
        p = sys.params(g)
        path = sys.path.vertices
        for side, off_limits in ((RIGHT, (p.x, path[1])), (LEFT, (p.y, path[-2]))):
            for ch in find_chords(sys, g, side):
                if ch.w in off_limits:
                    with pytest.raises(ValueError, match="opposite endpoint"):
                        rotate(sys, g, ch)
                    continue
                targets = rotation_targets(sys, g, side, ch.w)
                for tgt, chord in [(targets[0], ch)] + [(t, replace(ch, target=t)) for t in targets]:
                    q = rotate(sys, g, chord).params(g)
                    assert (q.y if side == RIGHT else q.x) == tgt
                    rotations += 1
                for u in adj[ch.w]:
                    if u not in targets:
                        with pytest.raises(ValueError, match="blocked"):
                            rotate(sys, g, replace(ch, target=u))
                        blocked += 1
    assert rotations > 1000 and blocked > 100


def test_chord_sequence_wrapper():
    g = rainbow(30)
    sys = path_system(*range(30))
    seq = (Chord(RIGHT, 29, 14),)
    assert is_spread_out(sys, seq)
    out = apply_chord_sequence(sys, g, seq)
    assert out.params(g).x == 0


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
    from pch.ec_graph import is_properly_coloured_cycle

    sides = []
    expand = pch.rotations.expand_endpoint_colours

    def spy(sys, g, side, *args, **kwargs):
        sides.append(side)
        return expand(sys, g, side, *args, **kwargs)

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
    assert sides == [LEFT]
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
