"""The benchmark's workloads: instances made from a seed, queries, checks.

Every library call goes through a module attribute (``pipeline.run_pipeline``,
``exact.exact_pc_ham_cycle``, ...) looked up when the query runs, so the
tracer's wrappers see it.  A query is one call that takes an input graph to
an answer; its check runs after the sweep, outside the timed region, and
returns ``(solved, problem, note)``: ``problem`` is None unless the answer is
wrong, ``note`` is a short description for the run's detail line.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from pch import absorbing, constructions, ec_graph, exact, pipeline
from pch.exact import SearchStatus

Check = Callable[[object], "tuple[bool, str | None, str]"]


@dataclass
class Query:
    name: str
    graph: ec_graph.ColouredComplete
    run: Callable[[], object]
    check: Check
    dmax: int | None = None       # generator's promised max monochromatic degree

    def input_problem(self) -> str | None:
        if self.dmax is None:
            return None
        mono = ec_graph.max_mono_degree(self.graph)
        return None if mono <= self.dmax else f"{self.name}: max mono degree {mono} > {self.dmax}"


def _cert_problem(g, cert, kind: str) -> str | None:
    if cert.kind != kind:
        return f"expected a {kind} certificate, got {cert.kind}"
    verdict = ec_graph.verify_certificate(g, cert)
    return None if verdict.valid else f"invalid {kind} certificate: {verdict.reason}"


# ---------------------------------------------------------------------------
# pipeline workloads
# ---------------------------------------------------------------------------

def _pipeline_queries(
    name: str, n: int, dmax: int, seed: int, colours: int | None, pipeline_seeds=None
) -> list[Query]:
    """One graph, and one ``run_pipeline`` query per pipeline seed (default: ``seed``)."""
    g = constructions.random_bounded_colouring(n, dmax, seed, colours=colours)

    def check(res):
        if res.certificate is None:
            if res.failure is None:
                return False, "no certificate and no stage failure", "?"
            return False, None, f"failed at {res.failure.stage}"
        return True, _cert_problem(g, res.certificate, ec_graph.KIND_HAM_CYCLE), "solved"

    def query(ps):
        return Query(
            f"{name}-p{ps}", g,
            lambda: pipeline.run_pipeline(g, pipeline.PipelineConfig(seed=ps)), check, dmax,
        )

    return [query(ps) for ps in (pipeline_seeds or [seed])]


# (colours, max monochromatic degree in percent of n): the paper's regime
FEW_COLOUR_MIXES = ((3, 45), (4, 40), (6, 30))
# size -> pipeline seeds per graph; three at n = 160 put the median query in
# the middle of nine n = 160 runs instead of on one of three
FEW_COLOUR_RUNS = {80: 1, 160: 3, 320: 1}
# near-rainbow runs several pipeline seeds per graph: the pipeline's own
# randomness (absorbing attempts) spreads solve times more than the graph does,
# and a graph at n = 320 costs about five solves to generate
NEAR_RAINBOW_SIZES = (160, 320, 320, 320)
NEAR_RAINBOW_PIPELINE_SEEDS = 10


def few_colour(seed: int, smallest: bool = False) -> list[Query]:
    grid = [(n, k, pct) for n in FEW_COLOUR_RUNS for k, pct in FEW_COLOUR_MIXES]
    grid = grid[:1] if smallest else grid
    return [
        q
        for i, (n, k, pct) in enumerate(grid)
        for q in _pipeline_queries(
            f"n{n}-k{k}", n, n * pct // 100, seed + i, k,
            [seed + i + len(grid) * j for j in range(1 if smallest else FEW_COLOUR_RUNS[n])],
        )
    ]


def near_rainbow(seed: int, smallest: bool = False) -> list[Query]:
    sizes = NEAR_RAINBOW_SIZES[:1] if smallest else NEAR_RAINBOW_SIZES
    runs = 1 if smallest else NEAR_RAINBOW_PIPELINE_SEEDS
    return [
        q
        for i, n in enumerate(sizes)
        for q in _pipeline_queries(
            f"n{n}-g{seed + i}", n, n * 40 // 100, seed + i, None,
            [seed + i + len(sizes) * j for j in range(runs)],
        )
    ]


# ---------------------------------------------------------------------------
# exhaustive workload: the ground-truth oracles and the absorbing count
# ---------------------------------------------------------------------------

EXISTS_SEEDS = 40        # random Exists instances of each kind; they set query_s_p50
COUNT_INSTANCES = 2
COUNT_QUADS = 25
COUNT_BOUND = 0.1 ** 2 * 50 ** 4 / 4   # eps^2 n^4 / 4 at eps = 0.1, n = 50


def _expect_not_exists(res):
    note = f"{res.status.value}, {res.nodes} nodes"
    if res.status == SearchStatus.EXISTS:
        return True, "EXISTS on a colouring with no PC Hamiltonian cycle", note
    return res.status == SearchStatus.NOT_EXISTS, None, note


def _expect_exists(g, kind: str) -> Check:
    def check(res):
        note = f"{res.status.value}, {res.nodes} nodes"
        if res.status == SearchStatus.EXHAUSTED:
            return False, None, note
        if res.status == SearchStatus.NOT_EXISTS:
            return True, f"NOT_EXISTS where a {kind} exists", note
        return True, _cert_problem(g, res.certificate, kind), note

    return check


def _expect_longest(g, want: int, is_cycle: bool) -> Check:
    def check(res):
        note = f"value {res.value}, exact={res.exact}, {res.nodes} nodes"
        if not res.exact:
            over = f"value {res.value} above the bound {want}" if res.value > want else None
            return False, over, note
        if res.value != want:
            return True, f"value {res.value}, expected {want}", note
        w = res.witness
        pc = ec_graph.is_properly_coloured_cycle if is_cycle else ec_graph.is_properly_coloured_path
        if w is None or w.order != want or not pc(g, w):
            return True, "witness is not a PC structure of the reported size", note
        return True, None, note

    return check


def _expect_counts(counts):
    low = min(counts)
    note = f"{len(counts)} quads, min count {low}"
    return True, (None if low >= COUNT_BOUND else f"count {low} below {COUNT_BOUND:.0f}"), note


def exhaustive(seed: int, smallest: bool = False) -> list[Query]:
    def cut(items):
        return items[:1] if smallest else items

    queries = []
    be4 = constructions.bollobas_erdos(4)
    # NotExists proofs: these dominate sweep_s
    for name, g in cut([
        ("be3-hamcycle", constructions.bollobas_erdos(3)),
        ("be4-hamcycle", be4),
        ("layered13-4-hamcycle", constructions.layered_colouring(13, 4)),
    ]):
        queries.append(Query(name, g, lambda g=g: exact.exact_pc_ham_cycle(g), _expect_not_exists))
    # Exists queries that DFS answers in well under a millisecond
    queries.append(Query(
        "be4-hampath", be4, lambda: exact.exact_pc_ham_path(be4),
        _expect_exists(be4, ec_graph.KIND_HAM_PATH),
    ))
    for i in range(1 if smallest else EXISTS_SEEDS):
        g = constructions.random_bounded_colouring(20, 9, seed + i, colours=3)
        queries.append(Query(
            f"r20-hamcycle-s{seed + i}", g, lambda g=g: exact.exact_pc_ham_cycle(g),
            _expect_exists(g, ec_graph.KIND_HAM_CYCLE), 9,
        ))
        g = constructions.random_bounded_colouring(14, 6, seed + i, colours=3)
        queries.append(Query(
            f"r14-twofactor-s{seed + i}", g, lambda g=g: exact.exact_pc_two_factor(g),
            _expect_exists(g, ec_graph.KIND_TWO_FACTOR), 6,
        ))
    # longest PC cycle and path on the layered family: 2l - 1 and order 2l + 1
    for n, l in cut([(17, 4), (16, 5)]):
        g = constructions.layered_colouring(n, l)
        queries.append(Query(
            f"layered{n}-{l}-longest-cycle", g, lambda g=g: exact.longest_pc_cycle(g),
            _expect_longest(g, 2 * l - 1, True),
        ))
        queries.append(Query(
            f"layered{n}-{l}-longest-path", g, lambda g=g: exact.longest_pc_path(g),
            _expect_longest(g, 2 * l + 1, False),
        ))
    # absorbing counts on the acceptance family, one batch of quadruples per instance
    for i in range(1 if smallest else COUNT_INSTANCES):
        g = constructions.random_bounded_colouring(50, 20, seed + i)
        rng = random.Random(seed + i)
        quads = [tuple(rng.sample(range(50), 4)) for _ in range(COUNT_QUADS)]
        queries.append(Query(
            f"count-absorbing-s{seed + i}", g,
            lambda g=g, quads=quads: [absorbing.count_absorbing(g, q) for q in quads],
            _expect_counts, 20,
        ))
    return queries


WORKLOADS = {
    "few-colour": few_colour,
    "near-rainbow": near_rainbow,
    "exhaustive": exhaustive,
}
