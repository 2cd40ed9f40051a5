import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pch.constructions import (
    colouring_from_oriented,
    layered_colouring,
    monochromatic,
    rainbow,
    random_colouring,
    tournament_with_source,
)
from pch.ec_graph import (
    Certificate,
    DirectedCycle,
    DirectedPath,
    GraphFormatError,
    certificate_from_json,
    certificate_to_json,
    graph_from_text,
    graph_to_text,
    ham_cycle_certificate,
    ham_path_certificate,
    induced_subgraph,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    max_mono_degree,
    min_colour_degree,
    two_factor_certificate,
    verify_certificate,
)

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
    cg = colouring_from_oriented(og)
    # arc u -> v is coloured with v's colour id (the head vertex id)
    for (u, v) in og.arcs:
        assert cg.colour(u, v) == v


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


def test_directed_types_reject_bad_input():
    with pytest.raises(ValueError):
        DirectedPath((0, 1, 0))
    with pytest.raises(ValueError):
        DirectedCycle((0, 1))


def test_cycle_canonical():
    c = DirectedCycle((4, 7, 9))
    assert c.canonical() == DirectedCycle((9, 4, 7)).canonical() == DirectedCycle((7, 4, 9)).canonical()


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


def test_certificate_json_roundtrip():
    cert = verify_certificate(rainbow(4), ham_cycle_certificate((0, 1, 2, 3)))
    data = json.loads(json.dumps(certificate_to_json(cert)))
    back = certificate_from_json(data)
    assert back == cert


def test_induced_subgraph_keeps_colours():
    g = layered_colouring(10, 3)
    sub, old = induced_subgraph(g, [2, 4, 6, 8])
    for a in range(4):
        for b in range(a + 1, 4):
            assert sub.colour(a, b) == g.colour(old[a], old[b])
    assert max_mono_degree(sub) <= max_mono_degree(g)


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
        graph_from_text("3 2\n0 1\n")  # missing final row
    assert err.value.line == 3
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 5\n1\n")  # colour out of range
    assert err.value.line == 2
    with pytest.raises(GraphFormatError) as err:
        graph_from_text("3 2\n0 x\n1\n")
    assert err.value.line == 2


def test_per_vertex_degree_identity():
    from pch.constructions import random_colouring
    from pch.ec_graph import colour_histograms

    for seed in range(6):
        g = random_colouring(9, 4, seed)
        for row in colour_histograms(g):
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
        colouring_from_oriented(tournament_with_source(3), complete_with="extra"),
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
    from pch.ec_graph import ColouredComplete

    keep = [v for v in range(g.n) if v % 3 != 1][::-1]
    sub, old = induced_subgraph(g, keep)
    ref = ColouredComplete.from_function(len(old), g.k, lambda a, b: g.colour(old[a], old[b]))
    assert old == tuple(keep)
    assert sub == ref


@pytest.mark.parametrize("g", _representation_cases(), ids=repr)
def test_colour_histograms_match_per_pair_loop(g):
    from pch.ec_graph import colour_histograms

    hist = [[0] * g.k for _ in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            hist[u][g.colour(u, v)] += 1
            hist[v][g.colour(u, v)] += 1
    assert colour_histograms(g) == hist
    assert max_mono_degree(g) == max(max(row) for row in hist)
    assert min_colour_degree(g) == min(sum(1 for c in row if c) for row in hist)


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
