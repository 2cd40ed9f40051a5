"""Shared instance generators and reference code for the test suite.

Structure-first randomization: pick the path/cycle decomposition first, colour
its edges properly, then fill the remaining pairs at random.  This yields
valid 1-path-cycles inside otherwise arbitrary colourings, which
`validate_system` checks as `PathCycleSystem` certificates.  Absorbing cycles
with a universal family come from retrying build seeds under the exact audit.

The references are plain, fully checked versions of what the library does
inline: per-vertex colour histograms, the restriction of a graph to a vertex
set, a checked absorption, and brute-force cycle enumeration.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterable

import numpy as np

from pch.absorbing import (
    AbsorbingCycle,
    AbsorptionError,
    _splice,
    absorbing_member,
    build_absorbing_cycle,
    verify_family_universality,
)
from pch.ec_graph import (
    KIND_PATH_CYCLE_SYSTEM,
    Certificate,
    ColouredComplete,
    DirectedCycle,
    DirectedPath,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    verify_certificate,
)
from pch.rotations import PathCycleSystem


def validate_system(sys: PathCycleSystem, g) -> None:
    """Raise ValueError unless sys is a properly coloured 1-path-cycle in g:
    its `PathCycleSystem` certificate verifies."""
    cert = verify_certificate(g, Certificate(
        KIND_PATH_CYCLE_SYSTEM,
        cycles=tuple(cyc.vertices for cyc in sys.cycles),
        path=sys.path.vertices,
    ))
    if not cert.valid:
        raise ValueError(cert.reason)


def random_system_instance(rng: random.Random, n_range=(8, 18), k_range=(3, 7)):
    """A random colouring plus a properly coloured 1-path-cycle inside it."""
    n = rng.randint(*n_range)
    k = rng.randint(*k_range)
    verts = list(range(n))
    rng.shuffle(verts)
    m = rng.randint(5, n)
    used = verts[:m]
    p_len = rng.randint(2, m)
    path = used[:p_len]
    rest = used[p_len:]
    cycles = []
    while len(rest) >= 3:
        clen = rng.randint(3, len(rest)) if len(rest) >= 6 else len(rest)
        if len(rest) - clen in (1, 2):
            clen = len(rest)
        cycles.append(rest[:clen])
        rest = rest[clen:]

    tab: dict[tuple[int, int], int] = {}

    def setc(a, b, c):
        tab[(min(a, b), max(a, b))] = c

    def getc(a, b):
        return tab.get((min(a, b), max(a, b)))

    for piece, is_cycle in [(path, False)] + [(c, True) for c in cycles]:
        prev = None
        for i in range(len(piece) - 1):
            c = rng.choice([c for c in range(k) if c != prev])
            setc(piece[i], piece[i + 1], c)
            prev = c
        if is_cycle:
            first = getc(piece[0], piece[1])
            setc(piece[-1], piece[0], rng.choice([c for c in range(k) if c != prev and c != first]))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in tab:
                tab[(u, v)] = rng.randrange(k)

    g = ColouredComplete.from_function(n, k, lambda u, v: tab[(u, v)])
    sys = PathCycleSystem(
        DirectedPath(tuple(path)),
        tuple(DirectedCycle(tuple(c)) for c in cycles),
    )
    validate_system(sys, g)
    return g, sys


def universal_absorbing_cycle(g, family_size: int, seed: int, builds: int = 25):
    """An absorbing cycle whose family absorbs every ordered quadruple of the
    vertices outside the family, or None after `builds` build seeds.

    The builder demands no universality; this retries build seeds until the
    exact audit passes, for tests that absorb arbitrary outside paths.
    """
    rng = random.Random(seed)
    for _ in range(builds):
        res = build_absorbing_cycle(g, family_size, seed=rng.randrange(2 ** 30))
        if res.success and verify_family_universality(g, res.cycle.family)[0]:
            return res.cycle
    return None


def colour_counts(matrix: np.ndarray, k: int) -> np.ndarray:
    """counts[i, c] = entries of colour c in row i of a colour matrix (-1 skipped)."""
    rows = matrix.shape[0]
    span = k + 1                                  # a leading column per row takes the -1s
    wide = np.int32 if rows * span < 2 ** 31 else np.int64
    cells = matrix + (np.arange(rows, dtype=wide) * span + 1)[:, None]
    return np.bincount(cells.ravel(), minlength=rows * span).reshape(rows, span)[:, 1:]


def induced_subgraph(g: ColouredComplete, keep: Iterable[int]) -> tuple[ColouredComplete, tuple[int, ...]]:
    """Restriction of g to `keep`; returns (subgraph, new-index -> old-index map)."""
    old = tuple(keep)
    if len(set(old)) != len(old):
        raise ValueError("keep list repeats a vertex")
    for v in old:
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")
    if len(old) < 1:
        raise ValueError("keep list is empty")
    # the kept rows, then their kept columns: a quarter of the time np.ix_
    # takes for the same block at pipeline sizes
    idx = np.array(old)
    block = g.matrix[idx][:, idx]
    return ColouredComplete(len(old), g.k, block[np.triu_indices(len(old), 1)]), old


def absorb_path(g, ac: AbsorbingCycle, p: DirectedPath) -> DirectedCycle | None:
    """Splice a disjoint PC path of order >= 4 into the absorbing cycle.

    The first family member absorbing (p1, p2; p_last-1, p_last) takes the
    path between its second and third vertices; the result is a PC cycle on
    exactly the union of the vertex sets.  Returns None when no member
    absorbs the path, a legitimate outcome: the caller may reverse the path
    or try another one.
    """
    vs = p.vertices
    if len(vs) < 4:
        raise ValueError(f"path order {len(vs)} below 4")
    if not is_properly_coloured_path(g, p):
        raise ValueError("path is not properly coloured")
    cyc_set = set(ac.cycle.vertices)
    if cyc_set & set(vs):
        raise ValueError("path intersects the absorbing cycle")
    member = absorbing_member(g, ac, (vs[0], vs[1], vs[-2], vs[-1]))
    if member is None:
        return None
    out = DirectedCycle(_splice(ac, member, vs).vertices)
    if set(out.vertices) != cyc_set | set(vs):
        raise AbsorptionError("absorption changed the vertex set")
    if not is_properly_coloured_cycle(g, out):
        raise AbsorptionError("absorption broke properness")
    return out


def canonical(vs) -> tuple[int, ...]:
    """Orientation- and rotation-independent form of the cycle on the vertex
    sequence `vs`: min vertex first, smaller neighbour next."""
    vs = tuple(vs)
    i = vs.index(min(vs))
    fwd = vs[i:] + vs[:i]
    rev = (fwd[0],) + fwd[1:][::-1]
    return min(fwd, rev)


def _cycles(n: int, succ, keep) -> set[tuple[int, ...]]:
    """The simple cycles that walk `succ` (v -> its next vertices, ascending)
    from their smallest vertex and that `keep` accepts, canonical form."""
    found: set[tuple[int, ...]] = set()

    def walk(start: int, path: list[int], on_path: set[int]):
        for w in succ(path[-1]):
            if w == start and len(path) >= 3:
                if keep(path):
                    found.add(canonical(path))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                walk(start, path, on_path)
                path.pop()
                on_path.remove(w)

    for s in range(n):
        walk(s, [s], {s})
    return found


def properly_coloured_cycle_set(g) -> set[tuple[int, ...]]:
    """All PC cycles of g, canonical form, by exhaustive search: the
    brute-force reference for small n."""
    return _cycles(
        g.n, lambda v: range(g.n), lambda path: path[1] < path[-1] and is_properly_coloured_cycle(g, path)
    )


def directed_cycles(og) -> set[tuple[int, ...]]:
    """All directed simple cycles of the oriented graph og, in undirected
    canonical form.  Antisymmetry means at most one traversal direction of
    a cycle subgraph can be a directed cycle, so the canonical form loses
    nothing."""
    succ = {v: sorted(w for u, w in og.arcs if u == v) for v in range(og.n)}
    return _cycles(og.n, succ.__getitem__, lambda path: True)


def arc_cycles(g) -> set[tuple[int, ...]]:
    """The PC cycles of ``colouring_from_oriented(og)`` that use no edge of
    the fresh colour n, canonical form: those whose edges are all arcs of og."""
    return {
        c for c in properly_coloured_cycle_set(g)
        if all(g.colour(u, v) != g.n for u, v in zip(c, c[1:] + c[:1]))
    }


def near_two_colouring(n: int, s: int) -> ColouredComplete | None:
    """A three-colouring at max monochromatic degree floor(n/2) - 1, mostly in
    two colours, or None when colour 2 overshoots that cap.

    The pairs are shuffled by ``random.Random(s)``; each takes colour 0, else
    colour 1, while both ends stay under the cap, and otherwise colour 2.
    """
    cap = n // 2 - 1
    pairs = list(itertools.combinations(range(n), 2))
    random.Random(s).shuffle(pairs)
    degree = [[0] * n for _ in range(3)]
    colour = {}
    for u, v in pairs:
        c = next((c for c in (0, 1) if degree[c][u] < cap and degree[c][v] < cap), 2)
        degree[c][u] += 1
        degree[c][v] += 1
        colour[u, v] = colour[v, u] = c
    if max(degree[2]) > cap:
        return None
    return ColouredComplete.from_function(n, 3, lambda u, v: colour[u, v])
