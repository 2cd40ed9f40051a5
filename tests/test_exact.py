import itertools
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from pch.constructions import (
    OrientedGraph,
    bollobas_erdos,
    colouring_from_oriented,
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
    random_colouring,
)
import pch.exact
from pch.ec_graph import (
    VERDICT_INVALID,
    ham_cycle_certificate,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    verify_certificate,
)
from pch.exact import (
    SearchBudget,
    SearchStatus,
    check_barrier,
    exact_pc_ham_cycle,
    exact_pc_ham_path,
    exact_pc_two_factor,
    longest_pc_cycle,
    longest_pc_path,
    pc_two_factor_matching,
)


# -- independent brute-force oracles (permutation based, n <= 8) -------------

def brute_longest_path(g):
    best = 0
    for size in range(g.n, 1, -1):
        for sub in itertools.combinations(range(g.n), size):
            for perm in itertools.permutations(sub):
                if perm[0] > perm[-1]:
                    continue
                if is_properly_coloured_path(g, perm):
                    return size
    return best


def brute_longest_cycle(g):
    for size in range(g.n, 2, -1):
        for sub in itertools.combinations(range(g.n), size):
            for perm in itertools.permutations(sub[1:]):
                if is_properly_coloured_cycle(g, (sub[0],) + perm):
                    return size
    return 0


def brute_ham_cycle_exists(g):
    return brute_longest_cycle(g) == g.n if g.n >= 3 else False


def brute_two_factor_exists(g):
    cycles = [
        c
        for size in range(3, g.n + 1)
        for sub in itertools.combinations(range(g.n), size)
        for perm in itertools.permutations(sub[1:])
        if is_properly_coloured_cycle(g, c := (sub[0],) + perm)
    ]
    full = frozenset(range(g.n))

    seen = set()

    def cover(rest: frozenset) -> bool:
        if not rest:
            return True
        if rest in seen:
            return False
        seen.add(rest)
        lead = min(rest)
        for c in cycles:
            if lead in c and rest.issuperset(c):
                if cover(rest - frozenset(c)):
                    return True
        return False

    return cover(full)


def ham_cycle_by_table(g, budget=None):
    """`exact_pc_ham_cycle` without its 2-factor test: the DFS probe, then the
    Held-Karp table or the DFS alone, as for every other query."""
    return pch.exact._existence(g, pch.exact._search(g, budget, True, g.n), ham_cycle_certificate)


def mask_two_factor_exists(g):
    """Cycle covers by a memoised search over the uncovered vertex set: the
    lowest uncovered vertex leads its cycle, so each cover is met once."""
    rows, n = g.rows, g.n
    memo = {}

    def cycles_through(s, mask):
        path = [s]

        def walk(last, used, in_c, first_c):
            for u in range(s + 1, n):
                if not (mask >> u & 1) or (used >> u & 1) or rows[last][u] == in_c:
                    continue
                c = rows[last][u]
                path.append(u)
                close_c = rows[u][s]
                if len(path) >= 3 and close_c not in (c, first_c) and path[1] < path[-1]:
                    yield tuple(path)
                yield from walk(u, used | (1 << u), c, first_c)
                path.pop()

        for v in range(s + 1, n):
            if mask >> v & 1:
                path.append(v)
                yield from walk(v, (1 << s) | (1 << v), rows[s][v], rows[s][v])
                path.pop()

    def cover(mask):
        if mask == 0:
            return True
        if mask not in memo:
            s = (mask & -mask).bit_length() - 1
            memo[mask] = any(
                cover(mask & ~sum(1 << v for v in cyc)) for cyc in cycles_through(s, mask)
            )
        return memo[mask]

    return cover((1 << n) - 1)


# -- direct examples ---------------------------------------------------------

def test_ham_cycle_trivial_cases():
    assert exact_pc_ham_cycle(rainbow(5)).exists
    assert exact_pc_ham_cycle(monochromatic(5)).status == SearchStatus.NOT_EXISTS


def test_ham_cycle_extremal_families():
    assert not exact_pc_ham_cycle(bollobas_erdos(1)).exists


def test_ham_path_examples():
    assert exact_pc_ham_path(monochromatic(3)).status == SearchStatus.NOT_EXISTS
    assert exact_pc_ham_path(rainbow(6)).exists
    # layered(8,2): PC paths have at most 5 vertices, so no spanning path
    assert exact_pc_ham_path(layered_colouring(8, 2)).status == SearchStatus.NOT_EXISTS


def test_two_factor_examples():
    assert exact_pc_two_factor(rainbow(6)).exists
    assert exact_pc_two_factor(monochromatic(6)).status == SearchStatus.NOT_EXISTS


def test_longest_examples():
    assert longest_pc_cycle(monochromatic(5)).value == 0
    assert longest_pc_cycle(rainbow(6)).value == 6
    assert longest_pc_path(monochromatic(5)).value == 2
    assert longest_pc_path(rainbow(6)).value == 6


def test_layered_longest_frozen_values():
    # computed by the exhaustive searches and frozen; the structural bounds
    # say cycle < 2l and path length < 2l+1
    res = longest_pc_cycle(layered_colouring(8, 2))
    assert res.value == 3
    res = longest_pc_cycle(layered_colouring(10, 3))
    assert res.value == 5
    res = longest_pc_path(layered_colouring(12, 3))
    assert res.value == 7  # order 7 = length 6 < 2*3+1


def test_certificates_verify_and_witnesses_check():
    for g in (rainbow(7), random_colouring(8, 3, 1), random_colouring(8, 5, 2)):
        r = exact_pc_ham_cycle(g)
        if r.exists:
            assert verify_certificate(g, r.certificate).valid
        r = exact_pc_ham_path(g)
        if r.exists:
            assert verify_certificate(g, r.certificate).valid
        r = exact_pc_two_factor(g)
        if r.exists:
            assert verify_certificate(g, r.certificate).valid
        c = longest_pc_cycle(g)
        if c.witness is not None:
            assert is_properly_coloured_cycle(g, c.witness)
            assert c.witness.order == c.value
        p = longest_pc_path(g)
        assert is_properly_coloured_path(g, p.witness)
        assert p.witness.order == p.value


def _random_size(seed):
    rng = random.Random(seed)
    return rng.randint(5, 7), rng.randint(2, 5), seed


@pytest.mark.parametrize(
    "n, k, seed",
    [pytest.param(*_random_size(seed), id=str(seed)) for seed in range(12)]
    # every longest PC path (2-0-1-3, 3-0-1-4, ...) starts with a descending
    # pair from both ends, so a search seeded only from pairs a < b misses it
    + [pytest.param(4, 2, 24, id="n4-k2-s24"), pytest.param(5, 2, 37, id="n5-k2-s37")],
)
def test_against_brute_force(n, k, seed):
    g = random_colouring(n, k, seed)
    assert exact_pc_ham_cycle(g).exists == brute_ham_cycle_exists(g)
    assert longest_pc_cycle(g).value == brute_longest_cycle(g)
    assert longest_pc_path(g).value == brute_longest_path(g)
    assert exact_pc_two_factor(g).exists == brute_two_factor_exists(g)


@pytest.mark.parametrize("seed", range(8))
def test_cross_oracle_consistency(seed):
    g = random_bounded_colouring(9, 4, seed, colours=4)
    if exact_pc_ham_cycle(g).exists:
        assert exact_pc_two_factor(g).exists
        assert exact_pc_ham_path(g).exists
    assert (longest_pc_path(g).value == g.n) == exact_pc_ham_path(g).exists


def test_budget_exhaustion_reported_distinctly(monkeypatch):
    tight = SearchBudget(node_limit=10)
    assert exact_pc_ham_cycle(bollobas_erdos(2), tight).status == SearchStatus.EXHAUSTED
    assert exact_pc_ham_path(layered_colouring(8, 2), tight).status == SearchStatus.EXHAUSTED
    # half the nodes of a full DFS (which a handoff's nodes would not count:
    # they hold the table's rows): the first edges that finished leave a
    # witness; 5 nodes on rainbow(9) stop before the first edge finishes
    for g, limit in ((layered_colouring(10, 3), None), (rainbow(9), 5)):
        for oracle, is_pc in ((longest_pc_cycle, is_properly_coloured_cycle), (longest_pc_path, is_properly_coloured_path)):
            full = oracle(g)
            with monkeypatch.context() as m:
                m.setattr(pch.exact, "_table_rows", lambda *args: None)  # the DFS alone
                dfs_nodes = oracle(g).nodes
            res = oracle(g, SearchBudget(node_limit=limit or dfs_nodes // 2))
            assert not res.exact
            assert res.value <= full.value
            if res.witness is None:
                # no cycle found within the budget; a path always has an edge
                assert oracle is longest_pc_cycle and res.value == 0
                continue
            assert is_pc(g, res.witness)
            assert res.witness.order == res.value
            assert oracle is longest_pc_cycle or res.value >= 2


def test_zero_time_limit_stops_at_first_deadline_check():
    res = exact_pc_ham_cycle(bollobas_erdos(4), SearchBudget(time_limit=0.0, node_limit=50_000))
    assert res.status == SearchStatus.EXHAUSTED
    assert res.nodes <= 4096


def split_tournament():
    """Rotational regular tournaments on 0..8 and 9..19, every arc from the
    first to the second: a PC 2-factor but no PC Hamiltonian cycle, and a
    table too large for the default budget, so the DFS runs after its probe."""
    arcs = {(u, v) for u in range(9) for v in range(9, 20)}
    for first, size in ((0, 9), (9, 11)):
        arcs |= {(first + i, first + (i + d) % size) for i in range(size) for d in range(1, size // 2 + 1)}
    return colouring_from_oriented(OrientedGraph(20, frozenset(arcs)))


def test_time_limit_stops_the_dfs_after_its_probe():
    # the DFS checks the clock every 4,096 nodes; without that it would run
    # to the 5,000,000-node budget
    res = exact_pc_ham_cycle(split_tournament(), SearchBudget(time_limit=0.5))
    assert res.status == SearchStatus.EXHAUSTED
    assert res.rows == 0
    assert 0 < res.nodes < pch.exact.DEFAULT_NODE_LIMIT
    assert res.nodes % 4096 == 0


def test_deadline_passing_while_the_table_runs_is_exhausted(monkeypatch):
    # the clock holds through the probe's check and the table's first layer,
    # then runs out
    answers = iter([False, False])
    monkeypatch.setattr(pch.exact._Meter, "expired", lambda self: next(answers, True))
    res = ham_cycle_by_table(bollobas_erdos(4))
    assert res.status == SearchStatus.EXHAUSTED
    assert res.rows > 0


# -- the Held-Karp table against the DFS and the brute-force oracles ----------

# (cycle, shortest order) of the four table modes: Hamiltonian cycle and path,
# longest cycle and path
TABLE_MODES = {"ham-cycle": (True, None), "ham-path": (False, None), "longest-cycle": (True, 3), "longest-path": (False, 2)}


def _brute_order(g, mode):
    if mode == "ham-cycle":
        return g.n if brute_ham_cycle_exists(g) else 0
    if mode == "ham-path":
        return g.n if brute_longest_path(g) == g.n else 0
    return brute_longest_cycle(g) if mode == "longest-cycle" else brute_longest_path(g)


TABLE_CORPUS = (
    [pytest.param(random_colouring(*_random_size(seed)), id=str(seed)) for seed in range(12)]
    + [pytest.param(random_colouring(4, 2, 24), id="n4-k2-s24"), pytest.param(random_colouring(5, 2, 37), id="n5-k2-s37")]
    + [pytest.param(bollobas_erdos(k), id=f"be{k}") for k in (1, 2, 3)]
    + [pytest.param(rainbow(9), id="rainbow9")]
    + [pytest.param(layered_colouring(n, l), id=f"layered{n}-{l}") for n in range(2, 13) for l in range(1, n // 2 + 1)]
    # the layer step's colour-label passes at n >= 13: two colours (no PC
    # Hamiltonian cycle, longest cycle 12), and 13 colours over 14 vertices
    + [pytest.param(random_colouring(13, 2, 1), id="n13-k2-s1"), pytest.param(random_colouring(14, 13, 1), id="n14-k13-s1")]
)


@pytest.mark.parametrize("g", TABLE_CORPUS)
def test_table_matches_search_and_brute_force(g, monkeypatch):
    for mode, (cycle, shortest) in TABLE_MODES.items():
        if cycle and g.n < 3:
            continue
        shortest = shortest or g.n
        meter = pch.exact._Meter(None)
        order, witness = pch.exact._table(g, cycle, shortest, meter)
        # the charge counts the rows of every pass, and the table fills no more
        passes = pch.exact._table_passes(g, cycle, shortest)
        charge = pch.exact._table_rows(g, cycle, shortest)
        assert charge == sum(1 << (g.n - cycle - r) for r, _ in passes)
        assert meter.nodes <= charge
        with monkeypatch.context() as m:
            m.setattr(pch.exact, "_table_rows", lambda *args: None)  # the DFS alone
            dfs_order, _, exact, _ = pch.exact._search(g, None, cycle, shortest)
        assert exact
        assert order == dfs_order, mode
        if g.n <= 8:
            assert order == _brute_order(g, mode), mode
        if witness is None:
            assert order == 0
        else:
            assert len(witness) == order
            assert (is_properly_coloured_cycle if cycle else is_properly_coloured_path)(g, witness), mode


@pytest.mark.parametrize("order", ["wide-then-narrow", "narrow-then-wide"])
def test_popcount_layers_match_the_popcounts(order, monkeypatch):
    # one index serves every width: a narrow pass reads a prefix of each
    # layer of the widest index built so far
    monkeypatch.setattr(pch.exact, "_LAYERS", [])
    widths = range(16, -1, -1) if order == "wide-then-narrow" else range(17)
    for b in widths:
        layers = pch.exact._popcount_layers(b)
        popcounts = pch.exact._popcounts(b)
        assert len(layers) == b + 1
        for j, layer in enumerate(layers):
            assert layer.dtype == np.dtype("<i4")
            assert np.array_equal(layer, np.flatnonzero(popcounts == j)), (b, j)
    assert len(pch.exact._LAYERS) == 17
    with pytest.raises(ValueError, match="32 bits"):
        pch.exact._popcount_layers(32)


def test_table_hands_off_after_its_charge():
    # BE(3): one pass of 2^12 rows for the first colour at the root (the
    # other colour finds each cycle from its other end); the DFS needs
    # 36,758 nodes, so it stops at its probe of 4 * 13^2 = 676 and the table
    # answers when no 2-factor test goes before it
    res = ham_cycle_by_table(bollobas_erdos(3))
    assert res.status == SearchStatus.NOT_EXISTS
    assert (res.nodes, res.rows) == (676 + 4096, 4096)
    # the oracle's 2-factor test answers after the probe, with no table
    res = exact_pc_ham_cycle(bollobas_erdos(3))
    assert (res.status, res.nodes, res.rows) == (SearchStatus.NOT_EXISTS, 676, 0)
    # layered(17, 4): the DFS needs 89,332 nodes, over the 4 * 17^2 = 1,156
    # of the probe, so it hands off; the table stops at its first empty layer
    res = longest_pc_path(layered_colouring(17, 4))
    assert (res.value, res.exact, res.nodes, res.rows) == (9, True, 1_156 + 109_293, 109_293)
    # layered(17, 3): the DFS needs 3,308 nodes, so it hands off as well
    res = longest_pc_cycle(layered_colouring(17, 3))
    assert (res.value, res.exact, res.nodes, res.rows) == (5, True, 1_156 + 23_719, 23_719)
    # layered(17, 2): the DFS finishes in 585 nodes, within the probe
    res = longest_pc_cycle(layered_colouring(17, 2))
    assert (res.value, res.exact, res.nodes, res.rows) == (3, True, 585, 0)


def test_table_charge_over_remaining_budget_stays_exhausted():
    # BE(4) charges 2^16 rows and hands off only when the budget holds the
    # DFS's probe of 4 * 17^2 = 1,156 nodes and the table's 2^16 rows: 66,692
    handoff = 1_156 + 65_536
    res = ham_cycle_by_table(bollobas_erdos(4), SearchBudget(node_limit=handoff))
    assert (res.status, res.nodes, res.rows) == (SearchStatus.NOT_EXISTS, handoff, 65_536)
    # one node fewer, or room for the table's rows alone, and the DFS runs to
    # the budget
    for limit in (handoff - 1, 66_000):
        res = ham_cycle_by_table(bollobas_erdos(4), SearchBudget(node_limit=limit))
        assert (res.status, res.nodes, res.rows) == (SearchStatus.EXHAUSTED, limit, 0)
    # layered(16, 5) paths charge 2^16 rows as well, after a probe of 1,024
    limit = 66_000
    res = longest_pc_path(layered_colouring(16, 5), SearchBudget(node_limit=limit))
    assert not res.exact and res.nodes <= limit and res.rows == 0
    assert 2 <= res.value <= 11 and res.witness.order == res.value
    assert is_properly_coloured_path(layered_colouring(16, 5), res.witness)


def test_table_checks_time_limit_between_layers():
    res = exact_pc_ham_cycle(bollobas_erdos(4), SearchBudget(time_limit=0.0))
    assert res.status == SearchStatus.EXHAUSTED
    # BE(2) hands off after its probe of 4 * 9^2 = 324 DFS nodes, before the
    # DFS's first deadline check (at 4,096 nodes), so only the table sees the
    # deadline, before its first layer
    res = exact_pc_ham_cycle(bollobas_erdos(2), SearchBudget(time_limit=0.0))
    assert res.status == SearchStatus.EXHAUSTED
    assert (res.nodes, res.rows) == (324, 0)
    with pytest.raises(pch.exact._OutOfBudget):
        pch.exact._table(bollobas_erdos(2), True, 9, pch.exact._Meter(SearchBudget(time_limit=0.0)))


@pytest.mark.parametrize(
    "oracle, g, rows",
    [pytest.param(ham_cycle_by_table, bollobas_erdos(k), rows, id=f"be{k}-cycle") for k, rows in ((2, 256), (3, 4_096), (4, 65_536))]
    + [pytest.param(ham_cycle_by_table, layered_colouring(13, 4), 10_896, id="layered13-4-cycle")]
    + [
        pytest.param(longest_pc_cycle, layered_colouring(n, l), rows, id=f"layered{n}-{l}-longest-cycle")
        for n, l, rows in ((16, 5, 162_018), (17, 4, 127_538))
    ]
    + [
        pytest.param(longest_pc_path, layered_colouring(n, l), rows, id=f"layered{n}-{l}-longest-path")
        for n, l, rows in ((16, 5, 64_838), (17, 4, 109_293))
    ],
)
def test_rows_count_the_table_apart_from_the_dfs(oracle, g, rows):
    # each of these hands off: nodes - rows is the DFS's probe of 4 n^2
    # nodes, and rows are the table's, at most its charge; they are pinned,
    # so a change to the layer step must fill the same table
    cycle = oracle is not longest_pc_path
    shortest = g.n if oracle is ham_cycle_by_table else 2 + cycle
    charge = pch.exact._table_rows(g, cycle, shortest)
    res = oracle(g)
    if oracle is ham_cycle_by_table:
        assert res.status == SearchStatus.NOT_EXISTS
    else:
        assert res.exact
    assert res.nodes - res.rows == 4 * g.n * g.n
    assert res.rows == rows <= charge


@pytest.mark.parametrize(
    "oracle, g, witness",
    [
        pytest.param(longest_pc_cycle, layered_colouring(17, 4), (0, 6, 3, 2, 5, 4, 1), id="layered17-4-longest-cycle"),
        pytest.param(longest_pc_path, layered_colouring(17, 4), (8, 7, 3, 2, 6, 5, 1, 0, 4), id="layered17-4-longest-path"),
        pytest.param(longest_pc_cycle, layered_colouring(16, 5), (0, 1, 8, 7, 4, 3, 6, 5, 2), id="layered16-5-longest-cycle"),
        pytest.param(
            longest_pc_path, layered_colouring(16, 5), (10, 9, 4, 3, 8, 7, 2, 0, 1, 6, 5), id="layered16-5-longest-path"
        ),
    ],
)
def test_bench_longest_witnesses_are_pinned(oracle, g, witness):
    # the table's witness is its first end in the top layer that has one, read
    # back through the first matching source: a layer step that visits its
    # live rows in another order, or an end test that picks another layer,
    # changes these
    res = oracle(g)
    assert (res.exact, res.value, res.witness.vertices) == (True, len(witness), witness)


def test_rows_zero_without_a_handoff():
    # the DFS finishes first, the table is over its ceiling, the budget cannot
    # hold the handoff, or the 2-factor search, which has no table
    res = exact_pc_ham_path(bollobas_erdos(4))
    assert (res.status, res.nodes, res.rows) == (SearchStatus.EXISTS, 386, 0)
    g = random_bounded_colouring(40, 16, 0, colours=3)
    assert exact_pc_ham_cycle(g, SearchBudget(node_limit=2_000)).rows == 0
    res = longest_pc_path(layered_colouring(16, 5), SearchBudget(node_limit=1_000))
    assert (res.exact, res.nodes, res.rows) == (False, 1_000, 0)
    res = exact_pc_two_factor(monochromatic(6))
    assert res.status == SearchStatus.NOT_EXISTS and res.rows == 0


@pytest.mark.parametrize(
    "oracle, graphs",
    [
        pytest.param(exact_pc_ham_cycle, [near_bollobas_erdos(k, s) for k in (4, 5) for s in range(10)], id="near-be"),
        pytest.param(
            exact_pc_ham_cycle, [random_bounded_colouring(20, 9, s, colours=3) for s in range(1, 41)], id="bench-r20"
        ),
        pytest.param(exact_pc_ham_path, [bollobas_erdos(k) for k in (3, 4)], id="be-path"),
    ]
    + [
        pytest.param(
            oracle,
            [random_bounded_colouring(n, (n - 1) // 2, s, colours=3) for n in range(8, 14) for s in range(10)],
            id=f"three-colour-{kind}",
        )
        for oracle, kind in ((exact_pc_ham_cycle, "cycle"), (exact_pc_ham_path, "path"))
    ],
)
def test_spanning_answers_stay_on_the_dfs(oracle, graphs):
    # the DFS is a probe of 4 n^2 nodes for a spanning answer: these need at
    # most 2.25 n^2 (near-BE(5), 993 of 1,764 nodes; bench-r20's family needs
    # at most 1,317 of 1,600 over seeds 0-2999) and never reach the table,
    # while every bench proof still hands off (see
    # test_rows_count_the_table_apart_from_the_dfs)
    for g in graphs:
        res = oracle(g)
        assert (res.status, res.rows) == (SearchStatus.EXISTS, 0)


def test_no_table_above_memory_ceiling(monkeypatch):
    def no_table(*args):
        raise AssertionError("table allocated above the ceiling")

    monkeypatch.setattr(pch.exact, "_table_pass", no_table)
    g = random_bounded_colouring(40, 16, 0, colours=3)
    budget = SearchBudget(node_limit=2_000)
    for cycle in (True, False):
        for shortest in (g.n, 2 + cycle):
            assert pch.exact._table_rows(g, cycle, shortest) is None
    # the DFS answers exactly as it did before the table existed
    res = exact_pc_ham_cycle(g, budget)
    assert (res.status, res.nodes) == (SearchStatus.EXISTS, 47)
    res = exact_pc_ham_path(g, budget)
    assert (res.status, res.nodes) == (SearchStatus.EXISTS, 39)
    res = longest_pc_cycle(g, budget)
    assert (res.value, res.exact, res.nodes) == (40, True, 47)
    res = longest_pc_path(g, budget)
    assert (res.value, res.exact, res.nodes) == (40, True, 39)


def test_invalid_certificate_raises(monkeypatch):
    # a plain assert would vanish under python -O and let the certificate out
    monkeypatch.setattr(
        pch.exact, "verify_certificate", lambda g, cert: replace(cert, verdict=VERDICT_INVALID, reason="forced")
    )
    with pytest.raises(RuntimeError, match="forced"):
        exact_pc_ham_cycle(rainbow(5))


def test_monotonicity():
    for seed in range(5):
        g = random_colouring(8, 3, seed)
        assert longest_pc_cycle(g).value <= g.n
        assert longest_pc_path(g).value >= 2


def test_domain_errors():
    with pytest.raises(ValueError):
        exact_pc_ham_cycle(rainbow(2))
    with pytest.raises(ValueError):
        exact_pc_two_factor(rainbow(2))
    for oracle, n in ((exact_pc_ham_path, 1), (longest_pc_path, 1), (longest_pc_cycle, 2)):
        with pytest.raises(ValueError, match=f"^need n >= {n + 1}, got {n}$"):
            oracle(rainbow(n))


def test_longest_values_invariant_under_relabelling():
    # permuting vertex labels must not change any extremal value
    from pch.ec_graph import ColouredComplete

    for seed in range(6):
        rng = random.Random(seed)
        n = rng.randint(5, 8)
        g = random_colouring(n, rng.randint(2, 5), seed)
        perm = list(range(n))
        rng.shuffle(perm)
        h = ColouredComplete.from_function(n, g.k, lambda a, b: g.colour(perm[a], perm[b]))
        assert longest_pc_cycle(g).value == longest_pc_cycle(h).value
        assert longest_pc_path(g).value == longest_pc_path(h).value
        assert exact_pc_ham_cycle(g).exists == exact_pc_ham_cycle(h).exists
        assert exact_pc_two_factor(g).exists == exact_pc_two_factor(h).exists


# -- the PC 2-factor test: a perfect matching or a Tutte barrier ---------------

@pytest.mark.parametrize("n, k", [(n, k) for n in range(6, 11) for k in range(2, 5)])
def test_matching_agrees_with_the_mask_search(n, k):
    # the 225-graph corpus: random_colouring(n, k, s), n 6-10, k 2-4, s 0-14
    for s in range(15):
        g = random_colouring(n, k, s)
        want = mask_two_factor_exists(g)
        cert, barrier = pc_two_factor_matching(g)
        assert (cert is not None, barrier is None) == (want, want)
        if want:
            assert verify_certificate(g, cert).valid
        else:
            assert check_barrier(g, barrier) and barrier.odd_components > barrier.size
        res = exact_pc_two_factor(g)
        assert res.exists == want
        assert (res.barrier is None) == want


@pytest.mark.parametrize("g", [bollobas_erdos(3), bollobas_erdos(4), layered_colouring(13, 4)], ids=["be3", "be4", "layered13-4"])
def test_bench_proofs_answer_from_the_two_factor_test(g):
    # the DFS probe of 4 n^2 nodes runs out, and the test answers: no table
    for oracle in (exact_pc_ham_cycle, exact_pc_two_factor):
        res = oracle(g)
        assert (res.status, res.nodes, res.rows) == (SearchStatus.NOT_EXISTS, 4 * g.n * g.n, 0)
        assert check_barrier(g, res.barrier)


def brute_matching_size(adj):
    """Largest matching of a small graph: the lowest node is left out or matched to a neighbour."""
    memo = {}

    def best(mask):
        if mask == 0:
            return 0
        if mask not in memo:
            v = (mask & -mask).bit_length() - 1
            rest = mask & ~(1 << v)
            memo[mask] = max([best(rest)] + [1 + best(rest & ~(1 << u)) for u in adj[v] if rest >> u & 1])
        return memo[mask]

    return best((1 << len(adj)) - 1)


def test_blossom_matching_is_maximum_with_a_tight_barrier():
    # general graphs, seeded with random partial matchings: the matching is
    # maximum, and the odd nodes of the last forest leave exactly as many odd
    # components beyond |S| as nodes stay unmatched (Tutte-Berge)
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(1, 12)
        edges = [(u, v) for u in range(size) for v in range(u + 1, size) if rng.random() < rng.random() * 0.5]
        adj = [[] for _ in range(size)]
        match = [-1] * size
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            if match[u] < 0 and match[v] < 0 and rng.random() < 0.5:
                match[u], match[v] = v, u
        even = pch.exact._maximum_matching(adj, match)
        assert all(m < 0 or (match[m] == v and m in adj[v]) for v, m in enumerate(match))
        matched = sum(m >= 0 for m in match)
        assert matched == 2 * brute_matching_size(adj)
        barrier = {x for x in range(size) if not even[x] and any(even[y] for y in adj[x])}
        assert pch.exact._odd_components(adj, barrier) - len(barrier) == size - matched


def test_matching_barrier_where_contraction_dominates():
    # layered_colouring(81, 20) contracts thousands of blossoms: each must
    # relabel its own members in the order a scan of every node would, so the
    # barrier is the same node set
    g = layered_colouring(81, 20)
    cert, barrier = pc_two_factor_matching(g)
    assert cert is None
    assert (barrier.size, barrier.odd_components, barrier.aux_order) == (1_239, 1_281, 3_402)
    assert check_barrier(g, barrier)


def test_tampered_barriers_are_rejected():
    g = bollobas_erdos(3)
    _, barrier = pc_two_factor_matching(g)
    # BE(k)'s barrier is every b-node: its removal leaves the 2n ports alone
    # and the a-nodes as the red and the blue circulant, of odd order 4k + 1
    assert barrier.nodes == tuple(("b", v, c) for v in range(g.n) for c in (0, 1))
    assert barrier.odd_components == 2 * g.n + 2
    for i in range(barrier.size):
        assert not check_barrier(g, replace(barrier, nodes=barrier.nodes[:i] + barrier.nodes[i + 1 :]))
    # a node twice, or a label the auxiliary graph does not have
    assert not check_barrier(g, replace(barrier, nodes=barrier.nodes + barrier.nodes[:1]))
    assert not check_barrier(g, replace(barrier, nodes=barrier.nodes[1:] + (("a", 0, 7),)))
    # offered for graphs on 13 vertices that have a PC 2-factor
    for h in (rainbow(13), random_colouring(13, 3, 0), near_bollobas_erdos(3, 0)):
        assert pc_two_factor_matching(h)[0] is not None
        assert not check_barrier(h, barrier)


def test_a_barrier_that_does_not_check_raises(monkeypatch):
    # like _verified for certificates: a barrier that leaves too few odd
    # components is a bug, never a NOT_EXISTS answer
    monkeypatch.setattr(pch.exact, "_odd_components", lambda adj, removed: len(removed))
    with pytest.raises(RuntimeError, match="invalid barrier"):
        pc_two_factor_matching(bollobas_erdos(2))


@pytest.mark.parametrize("k", [3, 4, 10, 20, 40])
def test_bollobas_erdos_has_no_pc_two_factor_within_a_second(k):
    g = bollobas_erdos(k)
    for oracle in (exact_pc_ham_cycle, exact_pc_two_factor):
        t0 = time.perf_counter()
        res = oracle(g)
        assert time.perf_counter() - t0 < 1.0
        assert (res.status, res.rows) == (SearchStatus.NOT_EXISTS, 0)
        assert check_barrier(g, res.barrier) and res.barrier.size == 2 * g.n


def test_two_factor_probe_answers_the_bench_family(monkeypatch):
    # the bench's r14 queries are answered by the Hamiltonian DFS probe
    def no_matching(g):
        raise AssertionError("the matching ran")

    monkeypatch.setattr(pch.exact, "pc_two_factor_matching", no_matching)
    for s in range(100):
        res = exact_pc_two_factor(random_bounded_colouring(14, 6, s, colours=3))
        assert res.exists and res.nodes < 4 * 14 * 14


def test_two_factor_budget_below_the_probe_stays_exhausted():
    g = bollobas_erdos(3)
    res = exact_pc_two_factor(g, SearchBudget(node_limit=100))
    assert (res.status, res.nodes, res.barrier) == (SearchStatus.EXHAUSTED, 100, None)
    res = exact_pc_two_factor(g, SearchBudget(time_limit=0.0))
    assert (res.status, res.nodes) == (SearchStatus.EXHAUSTED, 676)
    # a probe that finishes without a spanning cycle leaves the answer to the matching
    res = exact_pc_two_factor(monochromatic(6))
    assert res.status == SearchStatus.NOT_EXISTS and res.nodes < 4 * 36
    assert check_barrier(monochromatic(6), res.barrier)


def test_two_factor_from_the_matching_when_the_probe_runs_out(monkeypatch):
    # with no probe, every answer is the matching's, and it verifies
    monkeypatch.setattr(pch.exact, "_PROBE_MAX", 0)
    for s in range(5):
        g = random_bounded_colouring(14, 6, s, colours=3)
        res = exact_pc_two_factor(g)
        assert (res.status, res.nodes) == (SearchStatus.EXISTS, 0)
        assert verify_certificate(g, res.certificate).valid


def test_library_imports_only_stdlib_and_numpy():
    import ast
    import sys
    from pathlib import Path

    allowed = set(sys.stdlib_module_names) | {"numpy", "pch"}
    for path in Path(pch.exact.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in allowed, f"{path.name} imports {name}"
