import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pch.absorbing import count_absorbing, is_absorbing, join_ends, verify_family_universality
from pch.constructions import (
    OrientedGraph,
    colouring_from_oriented,
    layered_colouring,
    monochromatic,
    rainbow,
    random_colouring,
    tournament_with_source,
)
from pch.ec_graph import (
    CERT_KINDS,
    KIND_HAM_CYCLE,
    KIND_HAM_PATH,
    KIND_PATH_CYCLE_SYSTEM,
    KIND_TWO_FACTOR,
    VERDICT_INVALID,
    Certificate,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    GraphFormatError,
    certificate_from_json,
    certificate_to_json,
    graph_from_text,
    graph_to_text,
    ham_cycle_certificate,
    ham_path_certificate,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    max_mono_degree,
    min_colour_degree,
    two_factor_certificate,
    verify_certificate,
)
from tests.conftest import canonical, colour_counts, induced_subgraph

colourings = st.builds(
    random_colouring,
    n=st.integers(4, 10),
    k=st.integers(1, 6),
    seed=st.integers(0, 10_000),
)


def test_colour_of_symmetric_and_stored():
    g = monochromatic(4)
    assert g.colour(1, 3) == 0
    r = rainbow(4)
    assert r.colour(0, 1) == r.colour(1, 0)


def test_colour_of_domain_errors():
    g = rainbow(4)
    with pytest.raises(ValueError):
        g.colour(2, 2)
    with pytest.raises(ValueError):
        g.colour(0, 4)


def test_colour_of_oriented_arc_gets_head_colour():
    og = tournament_with_source(2)
    g = colouring_from_oriented(og)
    # arc u -> v is coloured with v's colour id (the head vertex id)
    for (u, v) in og.arcs:
        assert g.colour(u, v) == v


def test_mono_degree_examples():
    assert max_mono_degree(monochromatic(4)) == 3
    assert max_mono_degree(rainbow(4)) == 1
    assert max_mono_degree(layered_colouring(10, 3)) == 7


def test_min_colour_degree_examples():
    assert min_colour_degree(monochromatic(4)) == 1
    assert min_colour_degree(rainbow(4)) == 3
    assert min_colour_degree(layered_colouring(10, 3)) == 3


@settings(max_examples=40)
@given(colourings)
def test_symmetry_and_degree_identity(g):
    for u in range(g.n):
        for v in range(u + 1, g.n):
            assert g.colour(u, v) == g.colour(v, u)
    assert min_colour_degree(g) + max_mono_degree(g) <= g.n


def test_pc_path_basics():
    g = monochromatic(4)
    assert is_properly_coloured_path(g, (0, 1))
    assert not is_properly_coloured_path(g, (0, 1, 2))
    r = rainbow(5)
    assert is_properly_coloured_path(r, (0, 1, 2, 3, 4))


@settings(max_examples=40)
@given(colourings, st.integers(0, 10_000))
def test_pc_path_reversal_invariant(g, seed):
    import random

    order = random.Random(seed).sample(range(g.n), random.Random(seed + 1).randint(2, g.n))
    p = DirectedPath(tuple(order))
    assert is_properly_coloured_path(g, p) == is_properly_coloured_path(g, p.reverse())


def test_pc_cycle_basics():
    assert is_properly_coloured_cycle(rainbow(3), (0, 1, 2))
    assert not is_properly_coloured_cycle(monochromatic(3), (0, 1, 2))


@settings(max_examples=40)
@given(colourings, st.integers(0, 10_000))
def test_pc_cycle_rotation_and_reversal_invariant(g, seed):
    import random

    rng = random.Random(seed)
    order = rng.sample(range(g.n), rng.randint(3, g.n))
    cyc = DirectedCycle(tuple(order))
    base = is_properly_coloured_cycle(g, cyc)
    shift = rng.randrange(len(order))
    rotated = tuple(order[shift:] + order[:shift])
    assert is_properly_coloured_cycle(g, rotated) == base
    assert is_properly_coloured_cycle(g, cyc.reverse()) == base


def _edge_colour(g, u, v):
    """The colour of edge uv read without `colour`, or None when g has no such edge."""
    return int(g.matrix[u, v]) if u != v and 0 <= u < g.n and 0 <= v < g.n else None


def _reference_proper(g, vs, closed):
    pairs = list(zip(vs, vs[1:] + vs[:1] if closed else vs[1:]))
    cols = [_edge_colour(g, u, v) for u, v in pairs]
    turns = zip(cols[-1:] + cols[:-1], cols) if closed else zip(cols, cols[1:])
    return None not in cols and all(a != b for a, b in turns)


@pytest.mark.parametrize("g", [
    random_colouring(7, 3, 0),
    random_colouring(6, 2, 1),
    monochromatic(5),
    rainbow(6),
    colouring_from_oriented(tournament_with_source(3)),
], ids=repr)
def test_properness_predicates_match_a_per_edge_reference(g):
    # ids from -1 to n with repeats, and walks over distinct valid ids: a
    # self-pair or an id outside the graph makes either predicate False,
    # never an error
    rng = random.Random(g.n)
    seen = set()
    for i in range(1200):
        size = rng.randint(0, min(g.n, 7))
        if i % 2:
            vs = [rng.randint(-1, g.n) for _ in range(size)]
        else:
            vs = rng.sample(range(g.n), size)
        path, cycle = is_properly_coloured_path(g, vs), is_properly_coloured_cycle(g, vs)
        assert path == _reference_proper(g, vs, closed=False)
        assert cycle == (len(vs) >= 3 and _reference_proper(g, vs, closed=True))
        assert is_properly_coloured_path(g, tuple(vs)) == path
        seen.update({("path", path), ("cycle", cycle)})
    assert ("path", False) in seen and ("cycle", False) in seen
    assert ("path", True) in seen


# every public entry point that takes vertex ids, with `v` in the place of vertex 1 of rainbow(9)
_ID_ENTRY_POINTS = {
    "colour": lambda g, v: g.colour(v, 2),
    "pc-path": lambda g, v: is_properly_coloured_path(g, (v, 2, 3)),
    "pc-cycle": lambda g, v: is_properly_coloured_cycle(g, (v, 2, 3)),
    "is_absorbing": lambda g, v: is_absorbing(g, (v, 2, 3, 4), (5, 6, 7, 8)),
    "count_absorbing": lambda g, v: count_absorbing(g, (v, 2, 3, 4)),
    "universality-member": lambda g, v: verify_family_universality(g, [(v, 0, 2, 3)]),
    "universality-outside": lambda g, v: verify_family_universality(g, [(0, 2, 3, 5)], outside=[v, 4, 6, 7, 8]),
    "join_ends": lambda g, v: join_ends(g, v, 2, 3, 4),
    "OrientedGraph": lambda g, v: OrientedGraph(g.n, frozenset({(v, 2)})),
}


@pytest.mark.parametrize("entry", _ID_ENTRY_POINTS)
@pytest.mark.parametrize("bad", [True, 1.0, "1", -1, 9], ids=repr)
def test_every_entry_point_turns_away_a_bad_vertex_id(entry, bad):
    # one rule: an id is an int or a numpy integer in 0..n-1, and a bool is
    # neither; the two predicates say False, the rest raise ValueError
    call, g = _ID_ENTRY_POINTS[entry], rainbow(9)
    if entry.startswith("pc-"):
        assert call(g, bad) is False
    else:
        with pytest.raises(ValueError):
            call(g, bad)


@pytest.mark.parametrize("entry", _ID_ENTRY_POINTS)
def test_every_entry_point_reads_a_numpy_id_as_the_int(entry):
    call, g = _ID_ENTRY_POINTS[entry], rainbow(9)
    assert call(g, np.int64(1)) == call(g, 1)


@pytest.mark.parametrize("vs", [(0, 1, 2.5), (0.0, 1, 2), (0, "1", 2), (0, 1, None)], ids=repr)
def test_pc_path_with_a_non_integer_id_is_false(vs):
    # the docstring's promise for a bad id holds for a float or a string too
    g = rainbow(5)
    assert is_properly_coloured_path(g, vs) is False
    assert is_properly_coloured_cycle(g, vs) is False


@pytest.mark.parametrize("cycle, shown", [
    (tuple(np.arange(5)), "np.int64(0)"),
    ((0, 1, 2, 3, 4.0), "4.0"),
    ((True, 0, 2, 3, 4), "True"),
], ids=["numpy", "float", "bool"])
def test_certificate_with_a_non_int_vertex_says_so(cycle, shown):
    # the id is in range but no int (a bool is an int subclass, and no
    # vertex id): the reason names its type, not its range
    out = verify_certificate(rainbow(5), Certificate("HamCycle", cycles=(cycle,)))
    assert out.verdict == VERDICT_INVALID
    assert out.reason == f"cycle 0: vertex {shown} is not an int"


def test_directed_types_reject_bad_input():
    with pytest.raises(ValueError):
        DirectedPath((0, 1, 0))
    with pytest.raises(ValueError):
        DirectedCycle((0, 1))


def test_unchecked_path_equals_the_checked_one():
    p = DirectedPath((2, 0, 1))
    assert DirectedPath.unchecked((2, 0, 1)) == p
    assert hash(DirectedPath.unchecked((2, 0, 1))) == hash(p)
    assert p.reverse() == DirectedPath((1, 0, 2)) and p.reverse().reverse() == p
    # the public constructor keeps its check
    with pytest.raises(ValueError, match="repeats"):
        DirectedPath((2, 0, 2))


def test_cycle_canonical():
    c = DirectedCycle((4, 7, 9))
    assert canonical(c.vertices) == canonical((9, 4, 7)) == canonical((7, 4, 9)) == (4, 7, 9)


def test_verify_certificate_examples():
    ok = verify_certificate(rainbow(4), ham_cycle_certificate((0, 1, 2, 3)))
    assert ok.valid
    bad = verify_certificate(monochromatic(4), ham_cycle_certificate((0, 1, 2, 3)))
    assert not bad.valid and "colour" in bad.reason


def test_verify_certificate_idempotent():
    cert = verify_certificate(rainbow(5), ham_path_certificate((0, 1, 2, 3, 4)))
    assert cert.valid
    again = verify_certificate(rainbow(5), cert)
    assert again.valid


def test_verify_certificate_malformed_never_raises():
    g = rainbow(5)
    cases = [
        Certificate("HamCycle", cycles=((0, 1, 99),)),
        Certificate("HamCycle", cycles=((0, 1, 1),)),
        Certificate("HamCycle", cycles=((0, 1),)),
        Certificate("TwoFactor", cycles=((0, 1, 2), (2, 3, 4))),
        Certificate("HamPath", path=(0, 1, 2)),
        Certificate("Nonsense"),
        Certificate("HamCycle", cycles=((0, 1, 2, 3, 4),), path=(0,)),
    ]
    for cert in cases:
        out = verify_certificate(g, cert)
        assert not out.valid
        assert out.reason


@pytest.mark.parametrize("cert, reason", [
    (Certificate("HamPath", cycles=((0, 1, 2),), path=(3, 4)), "HamPath needs a path and no cycles"),
    (Certificate("HamPath"), "HamPath needs a path and no cycles"),
    (Certificate("TwoFactor", cycles=((0, 1, 2),), path=(3, 4)), "TwoFactor must not contain a path"),
    (Certificate("TwoFactor"), "TwoFactor needs at least one cycle"),
    (Certificate("HamCycle", cycles=(None,)), "malformed structure: "),
], ids=["path-with-cycles", "path-missing", "two-factor-with-path", "two-factor-empty", "cycle-not-a-sequence"])
def test_verify_certificate_names_the_shape_problem(cert, reason):
    out = verify_certificate(rainbow(5), cert)
    assert not out.valid
    assert out.reason.startswith(reason)


def test_two_factor_certificate_requires_spanning():
    g = rainbow(6)
    ok = verify_certificate(g, two_factor_certificate([(0, 1, 2), (3, 4, 5)]))
    assert ok.valid
    partial = verify_certificate(g, two_factor_certificate([(0, 1, 2)]))
    assert not partial.valid


def test_path_cycle_system_certificate_need_not_span():
    g = rainbow(8)
    cert = Certificate("PathCycleSystem", cycles=((0, 1, 2),), path=(4, 5))
    assert verify_certificate(g, cert).valid


def test_path_cycle_system_certificate_rejects_broken_systems():
    g, mono = rainbow(8), monochromatic(8)
    for graph, cycles, path, reason in [
        (g, ((2, 4, 5),), (0, 1, 2), "shares vertex 2"),
        (g, (), (0, 1, 8), "outside 0..7"),
        (mono, (), (0, 1, 2), "path: adjacent edges"),
        (mono, ((2, 3, 4),), (0, 1), "cycle 0: adjacent edges"),
    ]:
        out = verify_certificate(graph, Certificate("PathCycleSystem", cycles=cycles, path=path))
        assert not out.valid and reason in out.reason


def test_certificate_json_roundtrip():
    cert = verify_certificate(rainbow(4), ham_cycle_certificate((0, 1, 2, 3)))
    data = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(data)
    assert back == cert


@pytest.mark.parametrize("obj, message", [
    ([{"kind": "HamCycle"}], "certificate JSON must be an object"),
    ({"kind": 3, "cycles": [[0, 1, 2]]}, "certificate JSON needs a string 'kind'"),
    ({"cycles": [[0, 1, 2]]}, "certificate JSON needs a string 'kind'"),
], ids=["list", "int-kind", "no-kind"])
def test_certificate_from_json_rejects_bad_shapes(obj, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        certificate_from_json(obj)


def test_induced_subgraph_keeps_colours():
    g = layered_colouring(10, 3)
    sub, old = induced_subgraph(g, [2, 4, 6, 8])
    for a in range(4):
        for b in range(a + 1, 4):
            assert sub.colour(a, b) == g.colour(old[a], old[b])
    assert max_mono_degree(sub) <= max_mono_degree(g)


@pytest.mark.parametrize("keep, message", [
    ([2, 4, 2], "keep list repeats a vertex"),
    ([2, 10], "vertex 10 outside 0..9"),
    ([-1, 3], "vertex -1 outside 0..9"),
    ([], "keep list is empty"),
])
def test_induced_subgraph_rejects_bad_keep_lists(keep, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        induced_subgraph(layered_colouring(10, 3), keep)


def test_text_roundtrip_simple():
    g = layered_colouring(8, 2)
    assert graph_from_text(graph_to_text(g)) == g


@settings(max_examples=30)
@given(colourings)
def test_text_roundtrip_random(g):
    assert graph_from_text(graph_to_text(g)) == g


def test_text_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3\n")
    assert err.value.line == 1
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("0 3\n")
    assert (err.value.line, err.value.message) == (1, "need n >= 1 and k >= 1, got n=0 k=3")
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 1\n")  # missing final row
    assert err.value.line == 3
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 5\n1\n")  # colour out of range
    assert err.value.line == 2
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0\n1\n")  # a row one entry short
    assert (err.value.line, err.value.message) == (2, "row for vertex 0 has 1 entries, expected 2")
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 x\n1\n")
    assert err.value.line == 2
    # blank lines may follow the rows; anything else names its line
    assert graph_from_text("3 2\n0 1\n1\n\n  \n") == graph_from_text("3 2\n0 1\n1\n")
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 1\n1\n\n0\n")
    assert (err.value.line, err.value.message) == (5, "trailing non-empty line after colour rows")


def test_per_vertex_degree_identity():
    from pch.constructions import random_colouring

    for seed in range(6):
        g = random_colouring(9, 4, seed)
        for row in colour_counts(g.matrix, g.k).tolist():
            distinct = sum(1 for c in row if c > 0)
            assert distinct + max(row) <= g.n


def test_two_colouring_family_rejects_every_ham_cycle_claim():
    # an odd cycle cannot alternate two colours, so every claimed Hamiltonian
    # cycle in the two-colouring family fails verification
    from itertools import permutations
    from pch.constructions import bollobas_erdos
    from pch.ec_graph import ham_cycle_certificate

    g5 = bollobas_erdos(1)
    for rest in permutations(range(1, 5)):
        cyc = (0,) + rest
        assert not is_properly_coloured_cycle(g5, cyc)
        assert not verify_certificate(g5, ham_cycle_certificate(cyc)).valid

    import random

    g21 = bollobas_erdos(5)
    rng = random.Random(3)
    for _ in range(20):
        order = list(range(21))
        rng.shuffle(order)
        assert not verify_certificate(g21, ham_cycle_certificate(order)).valid


@settings(max_examples=60)
@given(
    st.sampled_from(["HamCycle", "HamPath", "TwoFactor", "PathCycleSystem", "Junk"]),
    st.lists(st.lists(st.integers(-2, 12), max_size=8), max_size=3),
    st.one_of(st.none(), st.lists(st.integers(-2, 12), max_size=8)),
)
def test_verify_never_raises_on_fuzzed_claims(kind, cycles, path):
    g = rainbow(8)
    cert = Certificate(kind, cycles=tuple(tuple(c) for c in cycles),
                       path=tuple(path) if path is not None else None)
    out = verify_certificate(g, cert)
    assert out.verdict in ("Valid", "Invalid")


@settings(max_examples=60)
@given(st.text(alphabet="0123456789 \n-x", max_size=60))
def test_parser_raises_only_format_errors(text):
    try:
        graph_from_text(text)
    except GraphFormatError:
        pass


# ---------------------------------------------------------------------------
# the colour matrix and its row tuples
# ---------------------------------------------------------------------------

def _representation_cases():
    from pch.constructions import bollobas_erdos, random_bounded_colouring

    return [
        random_colouring(9, 4, 3),
        random_bounded_colouring(17, 6, 1, colours=3),
        random_bounded_colouring(12, 5, 2),
        bollobas_erdos(2),
        layered_colouring(10, 3),
        rainbow(7),
        monochromatic(5),
        colouring_from_oriented(tournament_with_source(3)),
    ]


@pytest.mark.parametrize("g", _representation_cases(), ids=repr)
def test_matrix_and_rows_agree_with_colour(g):
    m = g.matrix
    assert m.shape == (g.n, g.n) and m.dtype == np.int32
    assert (m == m.T).all()
    assert (np.diag(m) == -1).all()
    assert len(g.rows) == g.n
    for u in range(g.n):
        assert g.rows[u] == tuple(m[u].tolist())
        for v in range(g.n):
            if u != v:
                assert g.rows[u][v] == m[u, v] == g.colour(u, v)


def test_matrix_is_read_only():
    g = random_colouring(6, 3, 0)
    with pytest.raises(ValueError):
        g.matrix[0, 1] = 2
    assert g.colour(0, 1) == g.matrix[0, 1]


@pytest.mark.parametrize("g", _representation_cases(), ids=repr)
def test_induced_subgraph_matches_per_pair_reference(g):
    keep = [v for v in range(g.n) if v % 3 != 1][::-1]
    sub, old = induced_subgraph(g, keep)
    ref = ColouredComplete.from_function(len(old), g.k, lambda a, b: g.colour(old[a], old[b]))
    assert old == tuple(keep)
    assert sub == ref
    # what the constructor guarantees for a flat table holds for the restriction
    m = sub.matrix
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, -1] = 0
    assert m.dtype == np.int32
    assert (np.diag(m) == -1).all()
    assert sub.rows == tuple(map(tuple, m.tolist()))


@pytest.mark.parametrize("g", _representation_cases(), ids=repr)
def test_colour_histograms_match_per_pair_loop(g):
    hist = [[0] * g.k for _ in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            hist[u][g.colour(u, v)] += 1
            hist[v][g.colour(u, v)] += 1
    assert colour_counts(g.matrix, g.k).tolist() == hist
    assert max_mono_degree(g) == max(max(row) for row in hist)
    assert min_colour_degree(g) == min(sum(1 for c in row if c) for row in hist)


def _degree_cases():
    cases = [ColouredComplete(1, 1, []), ColouredComplete(1, 50, []), ColouredComplete(2, 1, [0]),
             ColouredComplete(2, 1000, [999]), ColouredComplete(3, 10 ** 6, [7, 10 ** 6 - 1, 7])]
    cases += [random_colouring(n, k, seed=n * k) for n in (3, 5, 12, 31, 60) for k in (1, 2, 3, n, n * n)]
    return cases + [rainbow(40), monochromatic(9), layered_colouring(20, 7)]


@pytest.mark.parametrize("g", _degree_cases(), ids=repr)
def test_degrees_match_the_colour_histogram_reference(g):
    # palettes from one colour to far more colours than vertices, and n = 1, 2
    counts = colour_counts(g.matrix, g.k)
    assert max_mono_degree(g) == int(counts.max())
    assert min_colour_degree(g) == int((counts > 0).sum(axis=1).min())


def test_degrees_take_memory_of_the_graph_not_of_the_palette():
    # a histogram row per vertex and colour takes n * (k + 1) counts: 115 MB here
    import tracemalloc

    g = rainbow(300)
    tracemalloc.start()
    try:
        assert (max_mono_degree(g), min_colour_degree(g)) == (1, 299)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("n, k, message", [
    (0, 2, "need n >= 1, got 0"),
    (-1, 2, "need n >= 1, got -1"),
    (3, 0, "need k >= 1, got 0"),
])
def test_constructor_rejects_empty_vertex_sets_and_palettes(n, k, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ColouredComplete(n, k, [])


def test_constructor_rejects_colours_beyond_int32():
    from pch.ec_graph import ColouredComplete

    assert ColouredComplete(2, 2 ** 31, [2 ** 31 - 1]).colour(0, 1) == 2 ** 31 - 1
    for big in (2 ** 31, 2 ** 40, 2 ** 70):
        with pytest.raises(ValueError, match="int32"):
            ColouredComplete(2, 2 ** 80, [big])
    with pytest.raises(ValueError, match="outside"):
        ColouredComplete(3, 2, [0, 2, 1])
    with pytest.raises(ValueError, match="outside"):
        ColouredComplete(3, 2, [0, -1, 1])


def test_constructor_takes_only_a_flat_table():
    from pch.ec_graph import ColouredComplete

    g = random_colouring(6, 3, 2)
    flat = g.matrix[np.triu_indices(g.n, 1)]
    mine = flat.copy()
    h = ColouredComplete(g.n, g.k, mine)
    assert h == g and h.rows == g.rows
    mine[0] = (mine[0] + 1) % 3                      # the caller's array stays its own
    assert h == g and mine.flags.writeable
    assert flat.max() == 2
    with pytest.raises(ValueError, match="outside"):
        ColouredComplete(g.n, 2, flat)
    for bad in (flat[:-1], np.append(flat, 0), g.matrix, flat[None, :]):
        with pytest.raises(ValueError, match="entries"):
            ColouredComplete(g.n, g.k, bad)
    with pytest.raises(ValueError, match="entries"):
        ColouredComplete(g.n + 1, g.k, flat)
    assert ColouredComplete(1, 1, []).rows == ((-1,),)
    with pytest.raises(ValueError, match="entries"):
        ColouredComplete(1, 1, [[-1]])


def reference_structure_problem(g, cert: Certificate) -> str | None:
    """`_structure_problem` as it was written before the checked pieces
    walked their colours unchecked: every piece through the public
    predicates, overlap by ``set.intersection``."""
    n = g.n
    if cert.kind not in CERT_KINDS:
        return f"unknown certificate kind {cert.kind!r}"
    pieces = [(f"cycle {i}", tuple(c)) for i, c in enumerate(cert.cycles)]
    if cert.path is not None:
        pieces.append(("path", tuple(cert.path)))

    seen: set[int] = set()
    for name, vs in pieces:
        for v in vs:
            if type(v) is not int:
                return f"{name}: vertex {v!r} is not an int"
            if not 0 <= v < n:
                return f"{name}: vertex {v!r} outside 0..{n - 1}"
        if len(set(vs)) != len(vs):
            return f"{name}: repeated vertex"
        overlap = seen.intersection(vs)
        if overlap:
            return f"{name}: shares vertex {min(overlap)} with another piece"
        seen.update(vs)

    for i, cyc in enumerate(cert.cycles):
        if len(cyc) < 3:
            return f"cycle {i}: fewer than 3 vertices"
        if not is_properly_coloured_cycle(g, cyc):
            return f"cycle {i}: adjacent edges share a colour"
    if cert.path is not None:
        if len(cert.path) < 1:
            return "path: empty"
        if not is_properly_coloured_path(g, cert.path):
            return "path: adjacent edges share a colour"

    if cert.kind == KIND_HAM_CYCLE:
        if len(cert.cycles) != 1 or cert.path is not None:
            return "HamCycle needs exactly one cycle and no path"
        if len(seen) != n:
            return f"cycle covers {len(seen)} of {n} vertices"
    elif cert.kind == KIND_HAM_PATH:
        if cert.path is None or cert.cycles:
            return "HamPath needs a path and no cycles"
        if len(seen) != n:
            return f"path covers {len(seen)} of {n} vertices"
    elif cert.kind == KIND_TWO_FACTOR:
        if cert.path is not None:
            return "TwoFactor must not contain a path"
        if not cert.cycles:
            return "TwoFactor needs at least one cycle"
        if len(seen) != n:
            return f"cycles cover {len(seen)} of {n} vertices"
    return None


def _random_structure(rng, n, kind):
    """(cycles, path) of the shape `kind` asks for, on shuffled vertices,
    spanning g unless a random share is dropped."""
    order = list(range(n))
    rng.shuffle(order)
    if rng.random() < 0.2:
        del order[rng.randrange(1, n):]
    if kind == KIND_HAM_PATH or (kind == KIND_PATH_CYCLE_SYSTEM and rng.random() < 0.7):
        cut = rng.randint(1, len(order))
        path, order = tuple(order[:cut]), order[cut:]
    else:
        path = None
    if kind == KIND_HAM_CYCLE:
        return [tuple(order)], path
    cycles = []
    while len(order) >= 3 and kind != KIND_HAM_PATH:
        cut = rng.randint(3, len(order))
        cycles.append(tuple(order[:cut]))
        order = order[cut:]
    return cycles, path


def _fault(rng, n, cycles, path):
    """One fault put into (cycles, path): a faulty id, a repeat, a shared
    vertex, a short cycle or path, or the wrong pieces for the kind."""
    pieces = cycles + ([path] if path is not None else [])
    fault = rng.choice(("id", "range", "repeat", "share", "short cycle", "short path", "shape"))
    if fault in ("id", "range", "repeat") and any(pieces):
        j = rng.choice([j for j, p in enumerate(pieces) if p])
        vs = list(pieces[j])
        i = rng.randrange(len(vs))
        if fault == "id":
            w = int(float(vs[i]))            # the id under an earlier fault too
            vs[i] = rng.choice((bool(w % 2), float(w), np.int64(w), str(w)))
        elif fault == "range":
            vs[i] = rng.choice((-1, n, n + 3))
        else:
            vs[i] = vs[rng.randrange(len(vs))]
        pieces[j] = tuple(vs)
    elif fault == "share" and len(pieces) >= 2:
        a, b = rng.sample(range(len(pieces)), 2)
        vs = list(pieces[b])
        for i, v in zip(rng.sample(range(len(vs)), min(len(vs), 3)), rng.sample(pieces[a], min(len(pieces[a]), 3))):
            vs[i] = v
        pieces[b] = tuple(vs)
    elif fault == "short cycle":
        pieces.insert(rng.randrange(len(cycles) + 1), tuple(rng.sample(range(n), 2)))
    elif fault == "short path":
        return cycles, tuple(rng.sample(range(n), rng.randint(0, 1)))
    elif fault == "shape":
        return rng.choice(([], cycles + cycles[:1])), rng.choice((None, (), tuple(range(min(n, 2)))))
    if path is not None:
        return pieces[:-1], pieces[-1]
    return pieces, None


_CHECK_GRAPHS = [
    rainbow(5), rainbow(8), monochromatic(6), random_colouring(7, 2, 3), random_colouring(9, 3, 4),
    random_colouring(8, 8, 5), layered_colouring(10, 3),
]
# every check the certificates must trip, by a piece of its reason
_CHECK_REASONS = (
    "vertex True is not", "vertex False is not", ".0 is not", "np.int64(", "' is not", "outside 0..",
    "repeated vertex", "shares vertex", "fewer than 3", "path: empty", "cycle 0: adjacent",
    "path: adjacent", "HamCycle needs", "HamPath needs", "TwoFactor must not", "TwoFactor needs",
    "cycle covers", "path covers", "cycles cover", "unknown certificate kind",
)


def test_verify_matches_the_reference_check():
    # valid and faulty certificates of every kind (and of no known kind) on
    # small graphs: the same verdict and the same reason as the reference,
    # whichever check trips first
    rng = random.Random(42)
    reasons = []
    for g in _CHECK_GRAPHS:
        for _ in range(500):
            kind = rng.choice(CERT_KINDS)
            cycles, path = _random_structure(rng, g.n, kind)
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                cycles, path = _fault(rng, g.n, cycles, path)
            if rng.random() < 0.05:
                kind = rng.choice(("Junk", "hamcycle"))
            if rng.random() < 0.2:
                cycles, path = [list(c) for c in cycles], None if path is None else list(path)
            cert = Certificate(kind, cycles=tuple(cycles), path=path)
            try:
                want = reference_structure_problem(g, cert)
            except Exception as exc:
                want = f"malformed structure: {exc}"
            out = verify_certificate(g, cert)
            assert (out.valid, out.reason) == (want is None, want)
            reasons.append(want)
    assert reasons.count(None) > 300
    for piece in _CHECK_REASONS:
        assert any(piece in r for r in reasons if r), piece
