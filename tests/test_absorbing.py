import hashlib
import itertools
import json
import random

import numpy as np
import pytest

import pch.absorbing
import tests.conftest
from pch.absorbing import (
    RETRY_BUDGET,
    AbsorbingCycle,
    AbsorptionError,
    _draw_family,
    build_absorbing_cycle,
    count_absorbing,
    is_absorbing,
    join_ends,
    verify_family_universality,
)
from pch.constructions import (
    layered_colouring,
    monochromatic,
    near_bollobas_erdos,
    rainbow,
    random_bounded_colouring,
    random_colouring,
)
from pch.ec_graph import (
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
)
from tests.conftest import absorb_path, colour_counts, universal_absorbing_cycle


def enumerate_absorbing(g, quad):
    """Lazily yield every absorbing 4-tuple for the quadruple (brute force)."""
    rest = [v for v in range(g.n) if v not in set(quad)]
    for zs in itertools.permutations(rest, 4):
        if is_absorbing(g, quad, zs):
            yield zs


def cube_count(g, quad) -> int:
    """The exact count by a (z2, z3, z) cube per quadruple: the reference for
    the bitset table at sizes the enumeration cannot reach.

    Every middle edge (z2, z3) of the m = n - 4 outside vertices at once: the
    two gates pick the z2 rows and z3 columns of one middle-colour matrix,
    the choices of z1 and of z4 come from the per-row colour histograms of
    the outside block, and the pairs with z1 = z4 from the cube summed over z.
    """
    quad = tuple(quad)
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
    c = safe[:, :, None]
    both = Cx[i2][:, None, :] != c
    both &= Cx[i3][None, :, :] != c
    both &= (Cx[i2] != a2[:, None])[:, None, :]
    both &= (Cx[i3] != b3[:, None])[None, :, :]
    return int(np.sum(n1 * n4 - np.count_nonzero(both, axis=2), where=valid))


def test_is_absorbing_rainbow_and_mono():
    g = rainbow(9)
    assert is_absorbing(g, (0, 1, 2, 3), (4, 5, 6, 7))
    assert not is_absorbing(monochromatic(9), (0, 1, 2, 3), (4, 5, 6, 7))


def test_is_absorbing_rejects_overlap_and_repeats():
    g = rainbow(9)
    assert not is_absorbing(g, (0, 1, 2, 3), (3, 5, 6, 7))
    assert not is_absorbing(g, (0, 1, 2, 2), (4, 5, 6, 7))
    with pytest.raises(ValueError):
        is_absorbing(g, (0, 1, 2, 99), (4, 5, 6, 7))
    for quad, path4 in (((0, 1, 2), (4, 5, 6, 7)), ((0, 1, 2, 3), (4, 5, 6, 7, 8))):
        with pytest.raises(ValueError, match="^need an ordered quadruple and an order-4 path$"):
            is_absorbing(g, quad, path4)


@pytest.mark.parametrize("quad, path4", [((True, 2, 3, 4), (5, 6, 7, 8)), ((0, 1, 2, 3), (4, 5, 6, 7.0))],
                         ids=["bool", "float"])
def test_is_absorbing_rejects_a_non_integer_vertex(quad, path4):
    # True would read as vertex 1, and 7.0 would index like 7
    with pytest.raises(ValueError, match="is not an integer"):
        is_absorbing(rainbow(9), quad, path4)


def test_is_absorbing_end_condition_counterexample():
    # c(z2, x1) equals c(x1, x2), breaking the left attachment condition only
    tab = {}
    n = 9

    def setc(a, b, c):
        tab[(min(a, b), max(a, b))] = c

    fresh = iter(range(3, 100))
    for u in range(n):
        for v in range(u + 1, n):
            setc(u, v, next(fresh))
    setc(5, 0, 1)   # z2 -> x1
    setc(0, 1, 1)   # x1 -> x2
    g = ColouredComplete.from_function(n, 100, lambda u, v: tab[(u, v)])
    assert not is_absorbing(g, (0, 1, 2, 3), (4, 5, 6, 7))
    assert is_absorbing(g, (2, 1, 0, 3), (4, 5, 6, 7))


def test_count_rainbow_k9_all_tuples():
    g = rainbow(9)
    assert count_absorbing(g, (0, 1, 2, 3)) == 5 * 4 * 3 * 2


def test_count_monochromatic_zero():
    assert count_absorbing(monochromatic(9), (0, 1, 2, 3)) == 0


# seeds 0-7 draw n from 9-11; n 4-7 leave fewer than four vertices outside the quadruple
@pytest.mark.parametrize(
    "seed, n",
    [(s, None) for s in range(8)] + [(n, n) for n in range(4, 8)],
    ids=[str(s) for s in range(8)] + [f"n{n}" for n in range(4, 8)],
)
def test_count_matches_enumeration(seed, n):
    rng = random.Random(seed)
    n = rng.randint(9, 11) if n is None else n
    g = random_bounded_colouring(n, 4, seed, colours=rng.randint(3, 6))
    quad = tuple(rng.sample(range(n), 4))
    fast = count_absorbing(g, quad)
    slow = sum(1 for _ in enumerate_absorbing(g, quad))
    assert fast == slow


def _palette_graph(palette, n, seed):
    if palette == "mono":
        return monochromatic(n)
    if palette == "rainbow":
        return rainbow(n)
    return random_colouring(n, palette, seed)


def _close_star(g, v):
    """g with every edge at v recoloured to the colour of the edge v, v + 1."""
    c = int(g.matrix[v, (v + 1) % g.n])
    return ColouredComplete.from_function(g.n, g.k, lambda a, b: c if v in (a, b) else int(g.matrix[a, b]))


# gate2 is closed when every outside z has c(z, x1) = c(x1, x2), gate3 when
# every outside z has c(z, y2) = c(y1, y2); a random quadruple closes them in part
@pytest.mark.parametrize("gate", ["open", "gate2", "gate3"])
@pytest.mark.parametrize("palette", ["mono", 2, 3, 4, 5, 6, "rainbow"])
def test_count_matches_enumeration_grid(palette, gate):
    rng = random.Random(f"{palette}-{gate}")
    for n in range(4, 13):
        for _ in range(2):
            g = _palette_graph(palette, n, rng.randrange(10 ** 6))
            quad = tuple(rng.sample(range(n), 4))
            if gate == "gate2":
                g = _close_star(g, quad[0])
            elif gate == "gate3":
                g = _close_star(g, quad[3])
            slow = sum(1 for _ in enumerate_absorbing(g, quad))
            assert count_absorbing(g, quad) == slow
            if gate != "open":
                assert slow == 0


# the exhaustive bench batches: 25 quadruples on random_bounded_colouring(50, 20, s)
@pytest.mark.parametrize("seed, total, low", [(1, 86_995_710, 3_297_650), (2, 86_464_522, 3_060_442)])
def test_count_bench_instances(seed, total, low):
    g = random_bounded_colouring(50, 20, seed)
    rng = random.Random(seed)
    counts = [count_absorbing(g, tuple(rng.sample(range(50), 4))) for _ in range(25)]
    assert (sum(counts), min(counts)) == (total, low)


@pytest.mark.parametrize(
    "quad",
    [(0, 1, 2, -1), (0, 1, 2, 10), (0, 1, 2), (0, 1, 2, 3, 4), (True, 2, 3, 4), (1.0, 2, 3, 4)],
    ids=["negative", "past-n", "three", "five", "bool", "float"],
)
def test_count_rejects_bad_quadruples(quad):
    with pytest.raises(ValueError):
        count_absorbing(random_bounded_colouring(10, 5, 1), quad)


def _count_cases(n, colours, gate, seed):
    """A colouring on n vertices with `colours` colours (palette n when None)
    and three quadruples, with gate2 or gate3 closed as in the grid above."""
    rng = random.Random(f"{n}-{colours}-{gate}-{seed}")
    g = random_colouring(n, colours or n, rng.randrange(10 ** 6))
    quads = [tuple(rng.sample(range(n), 4)) for _ in range(3)]
    if gate == "gate2":
        g = _close_star(g, quads[0][0])
    elif gate == "gate3":
        g = _close_star(g, quads[0][3])
    return g, quads


# 65 and 70 vertices take two 64-bit words per bitset, 130 take three
@pytest.mark.parametrize("gate", ["open", "gate2", "gate3"])
@pytest.mark.parametrize("colours", [None, 3], ids=["palette-n", "three"])
@pytest.mark.parametrize("n", [65, 70, 130])
def test_count_matches_cube(n, colours, gate):
    g, quads = _count_cases(n, colours, gate, 0)
    for quad in quads:
        assert count_absorbing(g, quad) == cube_count(g, quad)
    if gate != "open":
        assert count_absorbing(g, quads[0]) == 0
    # numpy integer ids count the same
    assert count_absorbing(g, tuple(np.array(quads[1]))) == cube_count(g, quads[1])


# the cached table in one block is test_count_matches_cube's
@pytest.mark.parametrize("cap, block_bytes", [
    (pch.absorbing.TABLE_CAP_BYTES, 2 ** 12), (0, pch.absorbing.BLOCK_BYTES), (0, 2 ** 12),
], ids=["table-many-blocks", "above-cap-one-block", "above-cap-many-blocks"])
@pytest.mark.parametrize("n", [9, 65, 130])
def test_count_paths_match_cube(monkeypatch, n, cap, block_bytes):
    # above the cap every call builds the rows a block needs and caches nothing
    monkeypatch.setattr(pch.absorbing, "TABLE_CAP_BYTES", cap)
    monkeypatch.setattr(pch.absorbing, "BLOCK_BYTES", block_bytes)
    pch.absorbing._same_colour_table.cache_clear()
    for colours in (None, 3):
        g, quads = _count_cases(n, colours, "open", 1)
        for quad in quads:
            assert count_absorbing(g, quad) == cube_count(g, quad)
    assert pch.absorbing._same_colour_table.cache_info().currsize == (cap > 0)


def test_count_cache_serves_no_stale_table():
    # two graphs and an equal copy of the first, in turn through the
    # one-entry cache; the copy may share the first graph's table
    a = random_colouring(70, 70, 1)
    b = random_colouring(70, 70, 2)
    a_copy = ColouredComplete(a.n, a.k, a.matrix[np.triu_indices(a.n, 1)])
    assert a_copy == a and a_copy is not a
    quads = [tuple(random.Random(s).sample(range(70), 4)) for s in range(3)]
    want = {id(g): [cube_count(g, q) for q in quads] for g in (a, b)}
    want[id(a_copy)] = want[id(a)]
    assert want[id(a)] != want[id(b)]
    for g in (a, b, a_copy, b, a, a_copy, a):
        assert [count_absorbing(g, q) for q in quads] == want[id(g)]


def test_same_colour_table_is_read_only_and_exact():
    g = random_colouring(70, 5, 3)
    table = pch.absorbing._same_colour_table(g)
    assert table.shape == (2, 70, 70) and table.dtype == np.uint64
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0, 0] = 1
    C = g.matrix
    for v, w in [(0, 1), (5, 69), (69, 3), (7, 7)]:
        got = {64 * i + j for i in range(2) for j in range(64) if int(table[i, v, w]) >> j & 1}
        assert got == {z for z in range(70) if z != v and v != w and C[v, z] == C[v, w]}


@pytest.mark.parametrize("quad", [(0, 0, 1, 2), (0, 1, 1, 2)], ids=["x1-x2", "x2-y1"])
def test_count_repeated_vertex_is_zero(quad):
    g = random_bounded_colouring(10, 5, 1)
    assert count_absorbing(g, quad) == 0 == sum(1 for _ in enumerate_absorbing(g, quad))


def test_enumerate_yields_absorbing_tuples():
    g = random_bounded_colouring(10, 4, 3, colours=5)
    quad = (0, 1, 2, 3)
    got = list(enumerate_absorbing(g, quad))
    for zs in got[:20]:
        assert is_absorbing(g, quad, zs)


def test_count_bound_single_instance():
    # the quantitative bound at n = 50, eps = 0.1 (cap at (1/2 - eps) n = 20)
    g = random_bounded_colouring(50, 20, 0)
    rng = random.Random(1)
    for _ in range(10):
        quad = tuple(rng.sample(range(50), 4))
        assert count_absorbing(g, quad) >= 0.1 ** 2 * 50 ** 4 / 4


def test_family_rainbow_and_mono():
    g = rainbow(20)
    res = build_absorbing_cycle(g, 2, seed=0)
    assert res.success and len(res.cycle.family) == 2
    assert verify_family_universality(g, res.cycle.family) == (True, 1.0, None)
    # a monochromatic colouring has no PC member to audit
    members = [(0, 1, 2, 3), (4, 5, 6, 7)]
    with pytest.raises(ValueError, match="not a PC path"):
        verify_family_universality(monochromatic(20), members)
    # two PC members in colour 0 elsewhere: z2 x1 and x1 x2 share colour 0,
    # so neither member absorbs anything
    g = ColouredComplete.from_function(20, 8, lambda u, v: 1 + u if v == u + 1 and v % 4 and v < 8 else 0)
    ok, coverage, _ = verify_family_universality(g, members)
    assert not ok
    assert coverage == 0.0


def test_family_members_disjoint_pc_paths():
    for seed in range(5):
        g = random_bounded_colouring(40, 14, seed)
        res = build_absorbing_cycle(g, 4, seed=seed)
        assert res.success and len(res.cycle.family) == 4
        seen = set()
        for mb in res.cycle.family:
            assert is_properly_coloured_path(g, mb)
            assert not (seen & set(mb))
            seen.update(mb)


@pytest.mark.parametrize("g, size", [
    (rainbow(24), 5),
    (monochromatic(24), 5),
    # every PC 4-path here uses two of the 4 hubs
    (layered_colouring(24, 4), 2),
    (random_bounded_colouring(40, 16, 0, colours=3), 5),
    (random_bounded_colouring(40, 12, 1, colours=4), 5),
], ids=repr)
def test_draw_family_gives_disjoint_pc_four_paths(g, size):
    families = [_draw_family(g, random.Random(seed), size) for seed in range(8)]
    # a monochromatic colouring has no PC path of order 3
    assert (families == [None] * 8) == (g.k == 1)
    for family in filter(None, families):
        assert len(family) == size
        assert all(len(mb) == 4 and is_properly_coloured_path(g, mb) for mb in family)
        assert len({v for mb in family for v in mb}) == 4 * size


def _universality_case(seed, members=None, outside=None):
    """A small random colouring (n 10-14, k 2-4) with a family of disjoint PC
    4-paths; a random family has 1-3 members, and outside="custom" draws an
    outside set that contains a member vertex."""
    rng = random.Random(seed)
    n, k = rng.randint(10, 14), rng.randint(2, 4)
    g = random_bounded_colouring(n, n - 1, seed, colours=k)
    if members is None:
        members = []
        for _ in range(rng.randint(1, min(3, n // 4))):
            free = [v for v in range(n) if all(v not in mb for mb in members)]
            paths = (tuple(rng.sample(free, 4)) for _ in range(200))
            members.append(next(t for t in paths if is_properly_coloured_path(g, t)))
    if outside == "custom":
        on_member = rng.choice([v for mb in members for v in mb])
        rest = [v for v in range(n) if v != on_member]
        outside = sorted(rng.sample(rest, rng.randint(3, 7)) + [on_member])
    return g, list(members), outside


def _attach_tables(C: np.ndarray, member):
    """Boolean n x n tables of a member z1 z2 z3 z4: xok[a, b] says z1 z2 a b
    is a PC path, yok[a, b] says a b z3 z4 is one (vertex overlaps ignored)."""
    z1, z2, z3, z4 = member
    col2 = C[:, z2]
    row3 = C[z3]
    xok = (col2[:, None] != C[z1, z2]) & (col2[:, None] != C)
    yok = (row3[None, :] != C[z3, z4]) & (C != row3[None, :])
    return xok, yok


def _pair_mask_coverage(g, members, outside):
    """Coverage by the pair-mask formula over n x n tables: the fraction of
    (left pair, right pair) combinations of ordered outside pairs, shared
    vertices included, whose member masks meet."""
    n = g.n
    X = np.zeros((n, n), dtype=np.uint64)
    Y = np.zeros((n, n), dtype=np.uint64)
    for bit, mb in enumerate(members):
        xok, yok = _attach_tables(g.matrix, mb)
        free = np.ones(n, dtype=bool)
        free[list(mb)] = False
        pair_free = free[:, None] & free[None, :]
        X |= (xok & pair_free).astype(np.uint64) << np.uint64(bit)
        Y |= (yok & pair_free).astype(np.uint64) << np.uint64(bit)
    out = np.array(sorted(outside))
    offdiag = ~np.eye(len(out), dtype=bool)
    ux, cx = np.unique(X[np.ix_(out, out)][offdiag], return_counts=True)
    uy, cy = np.unique(Y[np.ix_(out, out)][offdiag], return_counts=True)
    meets = (ux[:, None] & uy[None, :]) != 0
    return int(cx @ meets @ cy) / (int(cx.sum()) * int(cy.sum()))


@pytest.mark.parametrize(
    "seed, members, outside",
    [pytest.param(s, None, None, id=f"s{s}-default") for s in range(6)]
    + [pytest.param(s, None, "custom", id=f"s{s}-custom") for s in range(6, 12)]
    # universal on a 4-vertex outside although some mask pairs do not meet
    # (every such combination shares a vertex); in the last, the outside
    # vertices form a member
    + [
        pytest.param(40, ((1, 12, 5, 6), (9, 2, 7, 10)), (0, 3, 4, 8), id="s40-universal"),
        pytest.param(187, ((1, 6, 10, 3), (7, 8, 4, 5)), (0, 2, 9, 11), id="s187-universal"),
        pytest.param(
            40, ((1, 12, 5, 6), (9, 2, 7, 10), (0, 3, 4, 8)), (0, 3, 4, 8), id="s40-universal-on-member"
        ),
    ],
)
def test_family_universality_cross_check(seed, members, outside):
    # the exact check against an exhaustive scan of every ordered quadruple
    g, members, outside = _universality_case(seed, members, outside)
    used = {v for mb in members for v in mb}
    out = [v for v in range(g.n) if v not in used] if outside is None else list(outside)
    ok, coverage, miss = verify_family_universality(g, members, outside=outside)
    unabsorbed = [
        q for q in itertools.permutations(out, 4) if not any(is_absorbing(g, q, mb) for mb in members)
    ]
    assert ok == (not unabsorbed)
    if ok:
        assert (coverage, miss) == (1.0, None)
    else:
        assert miss in unabsorbed
        assert coverage == _pair_mask_coverage(g, members, out)


def test_universality_rejects_bad_outside():
    g = rainbow(12)
    members = [(0, 1, 2, 3)]
    with pytest.raises(ValueError, match="repeats"):
        verify_family_universality(g, members, outside=[8, 8, 9, 10])
    with pytest.raises(ValueError, match="outside 0..11"):
        verify_family_universality(g, members, outside=[8, 9, 10, 12])
    assert verify_family_universality(g, members, outside=[8, 9, 10]) == (True, 1.0, None)


def test_universality_without_members_misses_the_first_four_outside_vertices():
    assert verify_family_universality(rainbow(12), []) == (False, 0.0, (0, 1, 2, 3))
    assert verify_family_universality(rainbow(12), [], outside=[9, 2, 7, 5, 11]) == (False, 0.0, (2, 5, 7, 9))


def test_universality_rejects_bad_members():
    g = rainbow(12)
    for member in ((-1, 1, 2, 3), (0, 1, 2, 12), (0, 1, 1, 2), (0, 1, 2)):
        with pytest.raises(ValueError, match="is not a PC path of 4 distinct vertices of 0..11"):
            verify_family_universality(g, [(4, 5, 6, 7), member])
    # c(1, 2) = c(0, 1): the member 0 1 2 3 is no PC path and absorbs no
    # quadruple, so auditing it as a member would report coverage it lacks
    base = random_colouring(12, 12, 3)
    g = ColouredComplete.from_function(
        12, 12, lambda u, v: base.colour(0, 1) if (u, v) == (1, 2) else base.colour(u, v)
    )
    assert not any(is_absorbing(g, q, (0, 1, 2, 3)) for q in itertools.permutations(range(4, 12), 4))
    with pytest.raises(ValueError, match=r"member \(0, 1, 2, 3\) is not a PC path"):
        verify_family_universality(g, [(0, 1, 2, 3)])


def test_universality_beyond_mask_width_fails_loudly():
    # 65 disjoint PC members of which only the last absorbs anything: every
    # quadruple of the four outside vertices is covered, but only by member 64
    n = 264
    members = [tuple(range(4 * i, 4 * i + 4)) for i in range(65)]
    live = set(members[-1])
    g = ColouredComplete.from_function(
        n, n * n, lambda u, v: 1 + u * n + v if u in live or v in live or u // 4 == v // 4 < 65 else 0
    )
    outside = range(260, 264)
    for quad in itertools.permutations(outside, 4):
        assert [mb for mb in members if is_absorbing(g, quad, mb)] == [members[-1]]
    # an exact check that silently dropped member 64 would report a miss
    with pytest.raises(ValueError, match="at most 64 members"):
        verify_family_universality(g, members)
    # 64 members fit, the live one in the top bit
    assert verify_family_universality(g, members[1:]) == (True, 1.0, None)
    assert not verify_family_universality(g, members[:64])[0]


def test_universality_at_bench_scale_rainbow():
    g = rainbow(80)
    res = build_absorbing_cycle(g, 3, seed=0)
    assert res.success
    assert verify_family_universality(g, res.cycle.family) == (True, 1.0, None)


@pytest.mark.parametrize("dmax, colours, coverage", [(36, 3, 0.66161), (24, 6, 0.97195)])
def test_universality_at_bench_scale_few_colours(dmax, colours, coverage):
    # 5-member builder families at n = 80, the bench's few-colour scale
    g = random_bounded_colouring(80, dmax, 0, colours=colours)
    res = build_absorbing_cycle(g, 5, seed=0)
    assert res.success
    members = res.cycle.family
    used = {v for mb in members for v in mb}
    out = [v for v in range(g.n) if v not in used]
    ok, cov, miss = verify_family_universality(g, members)
    assert not ok
    assert cov == _pair_mask_coverage(g, members, out) == pytest.approx(coverage, abs=5e-6)
    assert len(set(miss)) == 4 and set(miss) <= set(out)
    assert not any(is_absorbing(g, miss, mb) for mb in members)


def test_join_ends_rainbow_immediate():
    g = rainbow(10)
    p = join_ends(g, 0, 1, 2, 3)
    assert p is not None and p.order == 2
    assert is_properly_coloured_path(g, (0, 1) + p.vertices + (2, 3))


def test_join_ends_monochromatic_fails():
    assert join_ends(monochromatic(10), 0, 1, 2, 3) is None


def test_join_ends_respects_avoid():
    g = rainbow(12)
    avoid = {4, 5, 6, 7, 8}
    p = join_ends(g, 0, 1, 2, 3, avoid=avoid)
    assert p is not None
    assert not (set(p.vertices) & avoid)


def test_join_ends_random_instances_verify():
    success = 0
    for seed in range(30):
        g = random_bounded_colouring(30, 10, seed)
        rng = random.Random(seed)
        v1, v2, v1p, v2p = rng.sample(range(30), 4)
        p = join_ends(g, v1, v2, v1p, v2p, max_len=8)
        if p is not None:
            success += 1
            assert is_properly_coloured_path(g, (v1, v2) + p.vertices + (v1p, v2p))
    assert success == 30  # colour-rich instances always admit short joins


def test_join_ends_domain():
    with pytest.raises(ValueError):
        join_ends(rainbow(10), 0, 1, 1, 3)


def _least_shortest_join(g, v1, v2, v1p, v2p, max_len, avoid=frozenset()):
    """The first connector of the shortest order, in ascending vertex order, by brute force."""
    pool = [v for v in range(g.n) if v not in {v1, v2, v1p, v2p} | set(avoid)]
    for order in range(2, max_len + 1):
        for p in itertools.permutations(pool, order):
            if is_properly_coloured_path(g, (v1, v2, *p, v1p, v2p)):
                return p
    return None


def test_join_ends_finds_a_connector_whenever_one_exists():
    # a failure memoised without the partial path it met once hid this
    # connector: 6 8 4 5 7 3 0 2 is properly coloured
    g = random_colouring(9, 2, 0)
    for max_len in (4, 8):
        assert join_ends(g, 6, 8, 0, 2, max_len=max_len).vertices == (4, 5, 7, 3)
    misses = 0
    for n, k, s in itertools.product((9, 10, 11), (2, 3), range(400)):
        g = random_colouring(n, k, s)
        anchors = random.Random(s).sample(range(n), 4)
        for max_len in (2, 3, 4):
            want = _least_shortest_join(g, *anchors, max_len)
            got = join_ends(g, *anchors, max_len=max_len)
            assert (None if got is None else got.vertices) == want, (n, k, s, max_len)
            misses += want is None
    assert 0 < misses < 7200  # both outcomes occur


@pytest.mark.parametrize("n", [10, 12])
def test_join_ends_with_avoid_and_long_orders_matches_brute_force(n):
    for k, s in itertools.product((2, 3), range(60)):
        g = random_colouring(n, k, s)
        rng = random.Random(1000 + s)
        anchors = rng.sample(range(n), 4)
        avoid = frozenset(rng.sample([v for v in range(n) if v not in anchors], rng.randrange(3)))
        for max_len in (5, 6):
            got = join_ends(g, *anchors, avoid=avoid, max_len=max_len)
            want = _least_shortest_join(g, *anchors, max_len, avoid)
            assert (None if got is None else got.vertices) == want, (k, s, max_len)


def test_build_rainbow_cycle_size():
    res = build_absorbing_cycle(rainbow(30), 2, seed=0)
    assert res.success
    assert res.cycle.cycle.order <= 2 * 4 + 2 * 6
    assert is_properly_coloured_cycle(rainbow(30), res.cycle.cycle)


def test_build_monochromatic_fails_at_family():
    res = build_absorbing_cycle(monochromatic(30), 2, seed=0)
    assert not res.success
    assert res.failed_stage == "family"
    assert res.attempts == RETRY_BUDGET


def _build_digest(g):
    """First 16 hex digits of sha256 over ``json.dumps(records, sort_keys=True)``:
    one record per family size 1, 3, 5 and seed 0-2 of `build_absorbing_cycle`
    (family, connector vertices, attempts and failed stage)."""
    records = []
    for size in (1, 3, 5):
        for seed in range(3):
            res = build_absorbing_cycle(g, size, seed)
            ac = res.cycle
            records.append({
                "family": ac.family if ac else None,
                "connectors": [q.vertices for q in ac.connectors] if ac else None,
                "attempts": res.attempts,
                "failed_stage": res.failed_stage,
            })
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("make, digest", [
    # joins fail at size 5
    pytest.param(lambda: random_colouring(24, 2, 0), "854f27e8dd11025b", id="two24"),
    # joins fail at size 1, members get stuck at sizes 3 and 5
    pytest.param(lambda: layered_colouring(24, 3), "8f22d79b5f58107a", id="layered24-3"),
    pytest.param(lambda: monochromatic(24), "0761f47777b8a88a", id="mono24"),
    pytest.param(lambda: random_bounded_colouring(80, 36, 1, colours=3), "f4e162468129a160", id="three80"),
    pytest.param(lambda: random_bounded_colouring(80, 24, 3, colours=6), "ec45086828b9bcc7", id="six80"),
    pytest.param(lambda: random_bounded_colouring(160, 64, 1), "c586e73b8308d2f2", id="rainbow160"),
    pytest.param(lambda: near_bollobas_erdos(10, 0), "3352dc2b9b8233ee", id="near-be10"),
])
def test_absorbing_cycle_builds_are_pinned(make, digest):
    # taken before member growth went through the path-growth loop
    assert _build_digest(make()) == digest


def test_build_raises_on_a_stitched_cycle_that_fails_its_check(monkeypatch):
    # members are PC 4-paths and join_ends checks every junction, so a
    # failed check of the stitched cycle is a bug, not a retry
    monkeypatch.setattr(pch.absorbing, "is_properly_coloured_cycle", lambda g, cyc: False)
    with pytest.raises(AbsorptionError, match="stitched"):
        build_absorbing_cycle(rainbow(30), 2, seed=0)


@pytest.mark.parametrize("size", [0, -2])
def test_build_rejects_a_family_size_below_one(monkeypatch, size):
    draws = []
    monkeypatch.setattr(pch.absorbing, "_draw_family", lambda *args: draws.append(args))
    with pytest.raises(ValueError, match=f"family size must be >= 1, got {size}"):
        build_absorbing_cycle(rainbow(30), size)
    assert draws == []


def test_build_and_absorb_random_instance():
    g = random_bounded_colouring(40, 14, 5)
    ac = universal_absorbing_cycle(g, family_size=4, seed=5)
    assert ac is not None
    outside = [v for v in range(40) if v not in set(ac.cycle.vertices)]
    rng = random.Random(9)
    absorbed = 0
    for _ in range(200):
        if absorbed >= 10:
            break
        order = rng.randint(4, min(6, len(outside)))
        verts = rng.sample(outside, order)
        if not is_properly_coloured_path(g, verts):
            continue
        merged = absorb_path(g, ac, DirectedPath(tuple(verts)))
        assert merged is not None
        assert set(merged.vertices) == set(ac.cycle.vertices) | set(verts)
        assert is_properly_coloured_cycle(g, merged)
        absorbed += 1
    assert absorbed >= 10


def test_absorb_path_preconditions():
    g = rainbow(30)
    res = build_absorbing_cycle(g, 2, seed=0)
    assert res.success
    ac = res.cycle
    outside = [v for v in range(30) if v not in set(ac.cycle.vertices)]
    with pytest.raises(ValueError):
        absorb_path(g, ac, DirectedPath(tuple(outside[:3])))  # too short
    inside = ac.cycle.vertices[0]
    with pytest.raises(ValueError):
        absorb_path(g, ac, DirectedPath((inside,) + tuple(outside[:3])))  # overlaps


def _absorbing_setup():
    g = rainbow(30)
    ac = build_absorbing_cycle(g, 2, seed=0).cycle
    outside = [v for v in range(30) if v not in set(ac.cycle.vertices)]
    return g, ac, DirectedPath(tuple(outside[:4]))


def test_absorb_path_member_not_forward_raises():
    g, ac, p = _absorbing_setup()
    backwards = AbsorbingCycle(DirectedCycle(ac.cycle.vertices[::-1]), ac.family, ac.connectors)
    with pytest.raises(AbsorptionError, match="not embedded forward"):
        absorb_path(g, backwards, p)


def test_absorb_path_broken_properness_raises(monkeypatch):
    # plain asserts would vanish under python -O and let a bad cycle out
    g, ac, p = _absorbing_setup()
    monkeypatch.setattr(tests.conftest, "is_properly_coloured_cycle", lambda g, c: False)
    with pytest.raises(AbsorptionError, match="broke properness"):
        absorb_path(g, ac, p)


def test_absorb_path_lost_vertex_raises(monkeypatch):
    g, ac, p = _absorbing_setup()
    monkeypatch.setattr(tests.conftest, "DirectedCycle", lambda vs: DirectedCycle(vs[:-1]))
    with pytest.raises(AbsorptionError, match="vertex set"):
        absorb_path(g, ac, p)


def test_join_ends_improper_concatenation_raises(monkeypatch):
    monkeypatch.setattr(pch.absorbing, "is_properly_coloured_path", lambda g, p: False)
    with pytest.raises(RuntimeError, match="improper concatenation"):
        join_ends(rainbow(10), 0, 1, 2, 3)


def test_absorb_path_without_absorbing_member_returns_none(monkeypatch):
    g, ac, p = _absorbing_setup()
    monkeypatch.setattr(pch.absorbing, "is_absorbing", lambda g, quad, mb: False)
    assert absorb_path(g, ac, p) is None


def test_join_ends_hundred_seeds_short_orders():
    # colour-rich bounded instances always admit joins of order at most 8
    for seed in range(100):
        g = random_bounded_colouring(30, 10, seed)
        rng = random.Random(seed + 1)
        v1, v2, v1p, v2p = rng.sample(range(30), 4)
        p = join_ends(g, v1, v2, v1p, v2p, max_len=8)
        assert p is not None and 2 <= p.order <= 8
        assert is_properly_coloured_path(g, (v1, v2) + p.vertices + (v1p, v2p))


def test_build_size_bound_n60():
    built = 0
    for seed in range(6):
        g = random_bounded_colouring(60, 21, seed)
        res = build_absorbing_cycle(g, 5, seed=seed)
        if res.success:
            built += 1
            ac = res.cycle
            assert ac.cycle.order <= (4 + 6) * len(ac.family)
            assert is_properly_coloured_cycle(g, ac.cycle)
    assert built >= 4


def test_absorbing_member_splices_any_matching_path():
    # the splice property: an absorbing 4-path wraps around any PC path whose
    # end pairs it absorbs, giving one longer PC path
    for seed in range(10):
        g = random_bounded_colouring(24, 9, seed)
        rng = random.Random(seed)
        path = None
        while path is None:
            cand = rng.sample(range(24), rng.randint(4, 7))
            if is_properly_coloured_path(g, cand):
                path = cand
        quad = (path[0], path[1], path[-2], path[-1])
        member = next(
            (zs for zs in enumerate_absorbing(g, quad) if not set(zs) & set(path)), None
        )
        if member is None:
            continue
        z1, z2, z3, z4 = member
        assert is_properly_coloured_path(g, (z1, z2, *path, z3, z4))
