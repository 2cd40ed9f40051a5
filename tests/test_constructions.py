import itertools
import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pch import constructions
from pch.constructions import (
    GenerationError,
    OrientedGraph,
    bollobas_erdos,
    colouring_from_oriented,
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
    random_colouring,
    random_oriented,
    tournament_with_source,
)
from pch.ec_graph import (
    ColouredComplete,
    is_properly_coloured_cycle,
    max_mono_degree,
    min_colour_degree,
)
from pch.exact import SearchStatus, exact_pc_ham_cycle, longest_pc_cycle
from pch.pipeline import PipelineConfig, run_pipeline
from tests.conftest import arc_cycles, colour_counts, directed_cycles, properly_coloured_cycle_set


def in_degrees(og: OrientedGraph) -> list[int]:
    """The in-degree of each vertex of og."""
    heads = [0] * og.n
    for _, v in og.arcs:
        heads[v] += 1
    return heads


def test_bollobas_erdos_k1_shape():
    g = bollobas_erdos(1)
    assert g.n == 5 and g.k == 2
    # colour-0 edges form the 2-regular nearest-neighbour circulant: a 5-cycle
    red = sorted(
        (u, v) for u in range(5) for v in range(u + 1, 5) if g.colour(u, v) == 0
    )
    assert red == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert max_mono_degree(g) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_bollobas_erdos_regularity(k):
    g = bollobas_erdos(k)
    n = 4 * k + 1
    assert g.n == n
    for v in range(n):
        per_colour = [0, 0]
        for u in range(n):
            if u != v:
                per_colour[g.colour(u, v)] += 1
        assert per_colour == [2 * k, 2 * k]
    assert max_mono_degree(g) == 2 * k == n // 2


def test_bollobas_erdos_rejects_k_below_one():
    with pytest.raises(ValueError, match="^need k >= 1, got 0$"):
        bollobas_erdos(0)


def test_bollobas_erdos_no_pc_ham_cycle_small():
    assert not exact_pc_ham_cycle(bollobas_erdos(1)).exists


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_bollobas_erdos_never_solved_by_the_pipeline(k):
    # acceptance criterion 1 proves NOT_EXISTS for these k
    g = bollobas_erdos(k)
    for seed in range(3):
        assert run_pipeline(g, PipelineConfig(seed=seed)).certificate is None


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_near_bollobas_erdos_at_threshold_has_pc_ham_cycle(k):
    for seed in range(5):
        g = near_bollobas_erdos(k, seed)
        assert (g.n, g.k) == (4 * k + 1, 3)
        assert max_mono_degree(g) == 2 * k - 1 == g.n // 2 - 1
        assert near_bollobas_erdos(k, seed) == g
        res = exact_pc_ham_cycle(g)
        assert res.status == SearchStatus.EXISTS


def test_near_bollobas_erdos_domain():
    with pytest.raises(ValueError):
        near_bollobas_erdos(1, 0)


def test_near_bollobas_erdos_seed_it_cannot_generate():
    # a vertex keeps four red or four blue edges: a generation failure,
    # like a seed random_bounded_colouring cannot colour
    with pytest.raises(GenerationError, match="seed 168: max monochromatic degree 4, expected 3"):
        near_bollobas_erdos(2, 168)
    assert max_mono_degree(near_bollobas_erdos(2, 167)) == 3


def test_tournament_with_source_shape():
    og = tournament_with_source(2)
    assert og.n == 4
    heads = in_degrees(og)
    assert heads[3] == 0 and sum(u == 3 for u, _ in og.arcs) == 3
    assert max(heads) == 2
    # no directed Hamiltonian cycle: every vertex order through the source dies
    for order in itertools.permutations([0, 1, 2]):
        cyc = (3,) + order
        arcs_ok = all((cyc[i], cyc[(i + 1) % 4]) in og.arcs for i in range(4))
        assert not arcs_ok
    assert all(len(c) < 4 for c in directed_cycles(og))


def test_tournament_with_source_rejects_small_m():
    with pytest.raises(ValueError):
        tournament_with_source(1)


def test_tournament_colouring_degrees():
    og = tournament_with_source(3)
    g = colouring_from_oriented(og)
    assert g.n == 6
    assert min_colour_degree(g) == 3
    assert max_mono_degree(g) == 3


def test_tournament_colouring_no_pc_ham_cycle():
    g = colouring_from_oriented(tournament_with_source(2))
    assert max_mono_degree(g) == 2
    assert not exact_pc_ham_cycle(g).exists


def test_cycle_set_on_a_complete_graph():
    # the set holds every PC cycle, the longest of which the exact oracle measures
    g = colouring_from_oriented(tournament_with_source(3))
    cycles = properly_coloured_cycle_set(g)
    assert max(map(len, cycles)) == longest_pc_cycle(g).value
    assert all(is_properly_coloured_cycle(g, c) for c in cycles)


def test_from_oriented_triangle():
    og = OrientedGraph(3, frozenset({(0, 1), (1, 2), (2, 0)}))
    g = colouring_from_oriented(og)
    assert properly_coloured_cycle_set(g) == {(0, 1, 2)}
    # colours along the directed triangle are the head colours
    assert g.colour(0, 1) == 1 and g.colour(1, 2) == 2 and g.colour(0, 2) == 0


def test_from_oriented_single_arc_degrees():
    og = OrientedGraph(2, frozenset({(0, 1)}))
    g = colouring_from_oriented(og)
    # exactly one pair is not coloured n = 2: the arc, in its head's colour
    assert sum(g.colour(u, v) != 2 for u, v in itertools.combinations(range(2), 2)) == 1
    assert g.colour(0, 1) == 1
    assert max_mono_degree(g) == 1
    # both endpoints of the single arc see exactly one colour from it
    assert min_colour_degree(g) == 1


def test_from_oriented_guarantees_on_random_digraphs():
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        og = random_oriented(n, 0.7, seed)
        g = colouring_from_oriented(og)
        assert arc_cycles(g) == directed_cycles(og)
        # on the arc colours 0..n-1 the max monochromatic degree is the max in-degree
        assert colour_counts(g.matrix, g.k)[:, :n].max() == max(in_degrees(og))


def test_completion_policies():
    og = OrientedGraph(4, frozenset({(0, 1), (2, 3)}))
    extra = colouring_from_oriented(og)
    assert extra.n == 4
    assert extra.colour(0, 1) == 1 and extra.colour(2, 3) == 3
    assert extra.colour(0, 2) == extra.colour(1, 3) == 4


def test_layered_parameters():
    g = layered_colouring(10, 3)
    assert max_mono_degree(g) == 7
    assert min_colour_degree(g) == 3
    # rule checks: hub i colours all its Y edges i+1, Y-Y edges are colour 1,
    # and the hub clique is rainbow in colours above l
    for i in range(3):
        assert {g.colour(i, y) for y in range(3, 10)} == {i + 1}
    assert {g.colour(a, b) for a in range(3, 10) for b in range(a + 1, 10)} == {1}
    hub = [g.colour(a, b) for a in range(3) for b in range(a + 1, 3)]
    assert len(set(hub)) == len(hub) and all(c > 3 for c in hub)


def _reference_layered(n, l):
    """The construction as first written: one colour function per pair."""
    fresh = {}
    nxt = l + 1
    for i in range(l):
        for j in range(i + 1, l):
            fresh[(i, j)] = nxt
            nxt += 1

    def col(u, v):
        if v < l:
            return fresh[(u, v)]
        if u < l:
            return u + 1
        return 1

    return ColouredComplete.from_function(n, l + l * (l - 1) // 2 + 1, col)


def test_layered_matches_reference():
    for n in range(2, 18):
        for l in range(1, n // 2 + 1):
            g, want = layered_colouring(n, l), _reference_layered(n, l)
            assert g.k == want.k
            assert (g.matrix == want.matrix).all(), (n, l)


def test_layered_domain():
    with pytest.raises(ValueError):
        layered_colouring(10, 6)
    with pytest.raises(ValueError):
        layered_colouring(10, 0)


def test_random_bounded_respects_cap_and_seed():
    g1 = random_bounded_colouring(10, 4, seed=7)
    g2 = random_bounded_colouring(10, 4, seed=7)
    assert g1 == g2
    assert max_mono_degree(g1) <= 4
    g3 = random_bounded_colouring(10, 4, seed=8)
    assert g3 != g1  # overwhelmingly likely under any seeding scheme


def test_random_bounded_loose_cap_and_small_palette():
    g = random_bounded_colouring(10, 9, seed=0, colours=1)
    assert max_mono_degree(g) == 9  # monochromatic allowed when the cap is n-1
    for seed in range(5):
        g = random_bounded_colouring(12, 4, seed, colours=4)
        assert max_mono_degree(g) <= 4


def test_random_bounded_infeasible():
    with pytest.raises(GenerationError):
        random_bounded_colouring(10, 1, seed=0, colours=2)


def test_random_bounded_domain_errors():
    with pytest.raises(ValueError):
        random_bounded_colouring(2, 1, seed=0)
    with pytest.raises(ValueError):
        random_bounded_colouring(10, 0, seed=0)
    for colours in (0, 2**31 + 1):
        with pytest.raises(ValueError, match="colours <= 2"):
            random_bounded_colouring(50, 20, seed=0, colours=colours)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts >= 1"):
            random_bounded_colouring(10, 4, seed=0, restarts=restarts)


def test_oriented_graph_rejects_antiparallel_arcs():
    with pytest.raises(ValueError):
        OrientedGraph(3, frozenset({(0, 1), (1, 0)}))


@pytest.mark.parametrize("arc, message", [((1, 1), "loop at 1"), ((0, 3), r"arc \(0, 3\) outside 0..2")],
                         ids=["loop", "outside"])
def test_oriented_graph_rejects_loops_and_foreign_arcs(arc, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        OrientedGraph(3, frozenset({(0, 1), arc}))


def test_rainbow_and_monochromatic_extremes():
    assert max_mono_degree(rainbow(6)) == 1
    assert min_colour_degree(rainbow(6)) == 5
    assert max_mono_degree(monochromatic(6)) == 5
    assert min_colour_degree(monochromatic(6)) == 1


def test_random_bounded_many_seeds_at_scale():
    # the instance family used by the absorbing-count bound checks
    for seed in range(30):
        g = random_bounded_colouring(50, 20, seed)
        assert max_mono_degree(g) <= 20


# ---------------------------------------------------------------------------
# random_bounded_colouring against its original O(k)-per-pair draw
# ---------------------------------------------------------------------------

def _reference_bounded_colouring(n, dmax, seed, colours=None, restarts=100):
    """The generator as first written: every pair filters the whole palette."""
    k = colours if colours is not None else n
    if dmax * k < n - 1:
        raise GenerationError("infeasible")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for _ in range(restarts):
        counts = [[0] * k for _ in range(n)]
        tab = {}
        rng.shuffle(pairs)
        stuck = False
        for u, v in pairs:
            cu, cv = counts[u], counts[v]
            allowed = [c for c in range(k) if cu[c] < dmax and cv[c] < dmax]
            if not allowed:
                stuck = True
                break
            c = rng.choice(allowed)
            tab[(u, v)] = c
            cu[c] += 1
            cv[c] += 1
        if not stuck:
            return ColouredComplete.from_function(n, k, lambda u, v: tab[(u, v)])
    raise GenerationError("no colouring")


def _same_outcome(n, dmax, seed, colours=None, restarts=100):
    try:
        want = _reference_bounded_colouring(n, dmax, seed, colours, restarts)
    except GenerationError:
        with pytest.raises(GenerationError):
            random_bounded_colouring(n, dmax, seed, colours=colours, restarts=restarts)
        return False
    assert random_bounded_colouring(n, dmax, seed, colours=colours, restarts=restarts) == want
    return True


# (palette, max monochromatic degree in percent of n) of the benchmark grid
BENCH_MIXES = ((3, 45), (4, 40), (6, 30), (None, 40))


@pytest.mark.parametrize("n", [40, 80, 160, 320])
@pytest.mark.parametrize("colours,pct", BENCH_MIXES)
def test_random_bounded_matches_reference_on_bench_grid(n, colours, pct):
    for seed in range(3):
        _same_outcome(n, n * pct // 100, seed, colours)


def test_random_bounded_matches_reference_on_exhaustive_families():
    for seed in range(40):
        _same_outcome(20, 9, seed, 3)
        _same_outcome(14, 6, seed, 3)
    for seed in range(5):
        assert _same_outcome(50, 20, seed)


def test_random_bounded_matches_reference_when_generation_fails():
    # three colours at cap 3 on K_10 leave no slack: some seeds dead-end on
    # every restart, others find a colouring
    outcomes = {_same_outcome(10, 3, seed, 3) for seed in range(4)}
    assert outcomes == {True, False}


@contextmanager
def _bulk_from(pairs):
    """Run the generator with its bulk pass from ``pairs`` pairs on."""
    with mock.patch.object(constructions, "_BULK_MIN_PAIRS", pairs):
        yield


# inputs whose first capped colour falls inside the bulk prefix; ranking the
# (vertex, colour) keys all u-keys first, not in pair order, got them wrong
PREFIX_CUTS = ((80, 24, 1, 6), (14, 6, 7, 3), (20, 9, 11, 3))


@pytest.mark.parametrize("bulk_from", [constructions._BULK_MIN_PAIRS, 0], ids=["break-even", "bulk-only"])
def test_random_bounded_matches_reference_on_both_paths(bulk_from):
    with _bulk_from(bulk_from):
        for n, dmax, seed, colours in PREFIX_CUTS:
            assert _same_outcome(n, dmax, seed, colours)
        # K_9 with three colours at cap 3 dead-ends often: seed 3 needs 26 shuffles
        assert all(_same_outcome(9, 3, seed, 3) for seed in range(30))
        assert not _same_outcome(9, 3, 3, 3, restarts=25)
        assert _same_outcome(9, 3, 3, 3, restarts=26)
        assert _same_outcome(10, 9, 0, 1)


def test_random_bounded_bulk_pass_matches_reference_on_exhaustive_families():
    # the bench's n = 14 and n = 20 graphs fall below the break-even
    with _bulk_from(0):
        for seed in range(40):
            _same_outcome(20, 9, seed, 3)
            _same_outcome(14, 6, seed, 3)


def test_random_bounded_bulk_pass_restarts_like_the_reference():
    # 1,035 pairs, above the break-even: the bulk prefix caps a colour, the
    # per-pair tail dead-ends and the next shuffle starts a new bulk pass
    assert _same_outcome(46, 17, 2, 3, restarts=2)
    assert not _same_outcome(46, 17, 2, 3, restarts=1)
    assert _same_outcome(46, 13, 0, 4, restarts=9)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(3, 24),
    colours=st.integers(1, 8),
    slack=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    restarts=st.integers(1, 4),
    bulk=st.booleans(),
)
def test_random_bounded_matches_reference_property(n, colours, slack, seed, restarts, bulk):
    dmax = max(1, -(-(n - 1) // colours)) + slack
    with _bulk_from(0 if bulk else 10**9):
        _same_outcome(n, dmax, seed, colours, restarts)


@pytest.mark.parametrize("seed", [0, 1, 12345, 2**40 + 3])
def test_word_source_replays_getrandbits(seed):
    rng, words = random.Random(seed), constructions._Words(seed)
    for count, bits in ((5, 32), (3000, 32), (9000, 32), (700, 7), (40, 1)):
        draw = words.take(count, 32 - bits)
        got = [draw() for _ in range(min(count, constructions._CHUNK))]
        assert got == [rng.getrandbits(bits) for _ in got]
        words.settle()
    for bound, count in ((1, 10), (3, 500), (5, 2000), (320, 4000)):
        drawn, used = words.below(bound, count)
        assert drawn.tolist() == [rng.randrange(bound) for _ in range(count)]
        words.consume(int(used[-1]))
    assert words.take(1)() == rng.getrandbits(32)


def _reference_random_colouring(n, k, seed):
    rng = random.Random(seed)
    return ColouredComplete.from_function(n, k, lambda u, v: rng.randrange(k))


def test_random_colouring_matches_per_pair_randrange():
    # the callers' sizes: n 2-16 on 1-6 colours, and larger palettes
    for n in range(2, 17):
        for k in (1, 2, 3, 4, 5, 6, n, 2 * n):
            for seed in range(3):
                assert random_colouring(n, k, seed) == _reference_random_colouring(n, k, seed)
    assert random_colouring(60, 7, 4) == _reference_random_colouring(60, 7, 4)
    for k in (0, 2**31 + 1):
        with pytest.raises(ValueError):
            random_colouring(5, k, 0)
