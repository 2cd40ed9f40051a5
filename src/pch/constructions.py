"""Generators for extremal and random edge-colourings.

The extremal families here are tight for the half-degree threshold: they have
max monochromatic degree about n/2 yet admit no properly coloured Hamiltonian
cycle (and, for the layered family, no long PC path or cycle at all).  The
random generator produces colourings with a prescribed bound on the
monochromatic degree, for stress-testing the solvers.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from pch.ec_graph import ColouredComplete, ColouredGraph, is_properly_coloured_cycle, max_mono_degree


class GenerationError(RuntimeError):
    """Randomized generation failed within its retry budget (not a usage error)."""


# ---------------------------------------------------------------------------
# oriented graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrientedGraph:
    """Digraph with at most one arc per vertex pair and no loops."""

    n: int
    arcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        object.__setattr__(self, "arcs", arcs)
        for u, v in arcs:
            if u == v:
                raise ValueError(f"loop at {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) outside 0..{self.n - 1}")
            if (v, u) in arcs:
                raise ValueError(f"both orientations of {{{u}, {v}}} present")

    def has_arc(self, u: int, v: int) -> bool:
        return (u, v) in self.arcs

    def out_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[0] == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[1] == v)

    def max_in_degree(self) -> int:
        return max((self.in_degree(v) for v in range(self.n)), default=0)

    def is_tournament(self) -> bool:
        return len(self.arcs) == self.n * (self.n - 1) // 2

    def out_neighbours(self, v: int) -> list[int]:
        return sorted(w for (u, w) in self.arcs if u == v)

    def directed_cycles(self) -> set[tuple[int, ...]]:
        """All directed simple cycles, in undirected canonical form.

        Antisymmetry means at most one traversal direction of a cycle subgraph
        can be a directed cycle, so the canonical form loses nothing.
        """
        succ = {v: self.out_neighbours(v) for v in range(self.n)}
        found: set[tuple[int, ...]] = set()

        def walk(start: int, path: list[int], on_path: set[int]):
            for w in succ[path[-1]]:
                if w == start and len(path) >= 3:
                    found.add(_undirected_canonical(tuple(path)))
                elif w > start and w not in on_path:
                    on_path.add(w)
                    path.append(w)
                    walk(start, path, on_path)
                    path.pop()
                    on_path.remove(w)

        for s in range(self.n):
            walk(s, [s], {s})
        return found


def _undirected_canonical(cycle: tuple[int, ...]) -> tuple[int, ...]:
    i = cycle.index(min(cycle))
    rot = cycle[i:] + cycle[:i]
    if rot[1] > rot[-1]:
        rot = (rot[0],) + rot[1:][::-1]
    return rot


def random_oriented(n: int, arc_prob: float, seed: int) -> OrientedGraph:
    """Each unordered pair independently carries an arc with the given probability."""
    rng = random.Random(seed)
    arcs = set()
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < arc_prob:
                arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    return OrientedGraph(n, frozenset(arcs))


def random_tournament(n: int, seed: int) -> OrientedGraph:
    return random_oriented(n, 1.1, seed)


# ---------------------------------------------------------------------------
# extremal families
# ---------------------------------------------------------------------------

def monochromatic(n: int, colour: int = 0, k: int | None = None) -> ColouredComplete:
    """All edges the same colour."""
    kk = k if k is not None else colour + 1
    return ColouredComplete.from_function(n, kk, lambda u, v: colour)


def rainbow(n: int) -> ColouredComplete:
    """All edges distinctly coloured."""
    m = n * (n - 1) // 2
    return ColouredComplete(n, max(1, m), range(m))


def bollobas_erdos(k: int) -> ColouredComplete:
    """Two-colouring of K_{4k+1}: a 2k-regular circulant red, its complement blue.

    Max monochromatic degree is 2k = floor(n/2), one above the conjectured
    threshold, and there is no PC Hamiltonian cycle: with two colours a PC
    cycle must alternate, but an odd cycle cannot be 2-edge-coloured properly.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    n = 4 * k + 1
    u, v = np.triu_indices(n, 1)
    return ColouredComplete(n, 2, (np.minimum(v - u, n - (v - u)) > k).astype(int))


def near_bollobas_erdos(k: int, seed: int) -> ColouredComplete:
    """``bollobas_erdos(k)`` pushed to max monochromatic degree 2k - 1 =
    floor(n/2) - 1, the conjectured threshold, with a third colour 2.

    Greedy near-matchings of the red and then the blue edges, in a seeded
    random order, are recoloured 2; then each vertex with 2k edges of one
    colour recolours the one towards the neighbour with fewest colour-2 edges.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    n = 4 * k + 1
    C = bollobas_erdos(k).matrix.tolist()
    rng = random.Random(seed)
    for colour in (0, 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if C[u][v] == colour]
        rng.shuffle(pairs)
        matched: set[int] = set()
        for u, v in pairs:
            if u not in matched and v not in matched:
                C[u][v] = C[v][u] = 2
                matched.update((u, v))
    for u in range(n):
        for colour in (0, 1):
            partners = [v for v in range(n) if C[u][v] == colour]
            if len(partners) == 2 * k:
                v = min(partners, key=lambda w: (C[w].count(2), w))
                C[u][v] = C[v][u] = 2
    g = ColouredComplete(n, 3, [C[u][v] for u in range(n) for v in range(u + 1, n)])
    if max_mono_degree(g) != 2 * k - 1:
        raise RuntimeError(f"max monochromatic degree {max_mono_degree(g)}, expected {2 * k - 1}")
    return g


def colouring_from_oriented(og: OrientedGraph, complete_with: str | None = None):
    """Colour each arc u->v with a per-vertex colour of the head v.

    Without completion the result is a ``ColouredGraph`` on exactly the arc
    pairs: its PC cycles are precisely the directed cycles of ``og``, its max
    monochromatic degree is the max in-degree, and each vertex sees
    ``d_out(v) + min(1, d_in(v))`` colours.

    ``complete_with`` fills the remaining pairs so that a ``ColouredComplete``
    results: ``"rainbow"`` uses a fresh colour per missing pair,
    ``"extra"`` a single fresh colour for all of them.
    """
    n = og.n
    colours = {(min(u, v), max(u, v)): v for (u, v) in og.arcs}
    if complete_with is None:
        return ColouredGraph(n, max(n, 1), colours)
    missing = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in colours]
    if complete_with == "extra":
        k = n + 1
        for pair in missing:
            colours[pair] = n
    elif complete_with == "rainbow":
        k = n + max(1, len(missing))
        for i, pair in enumerate(missing):
            colours[pair] = n + i
    else:
        raise ValueError(f"unknown completion policy {complete_with!r}")
    return ColouredComplete.from_function(n, max(k, n, 1), lambda u, v: colours[(u, v)])


def tournament_with_source(m: int) -> OrientedGraph:
    """Regular tournament on 2m-1 vertices plus a source beating everyone.

    The source has in-degree 0, so no directed Hamiltonian cycle exists, while
    the max in-degree is m.  Feeding this to ``colouring_from_oriented`` gives
    a K_{2m} with max monochromatic degree m = n/2 and no PC Hamiltonian cycle.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got {m}")
    base = 2 * m - 1
    arcs = set()
    for i in range(base):
        for j in range(1, m):
            arcs.add((i, (i + j) % base))
    source = base
    for y in range(base):
        arcs.add((source, y))
    return OrientedGraph(2 * m, frozenset(arcs))


def layered_colouring(n: int, l: int) -> ColouredComplete:
    """Colouring with a small hub set X (|X| = l) that bounds all PC paths and cycles.

    Vertices 0..l-1 form X, the rest Y.  All edges from the i-th hub to Y get
    colour i+1 (ids 1..l as in the construction), all Y-Y edges colour 1, and
    X is internally rainbow in fresh colours above l.  Consequently every PC
    cycle is shorter than 2l and every PC path has length (edge count) below
    2l+1, while the max monochromatic degree is n-l and the min colour degree
    is l.
    """
    if not (1 <= l and 2 * l <= n):
        raise ValueError(f"need 1 <= l <= n/2, got l={l}, n={n}")
    k = l + l * (l - 1) // 2 + 1
    u, v = np.triu_indices(n, 1)
    # hub rows carry the hub's colour, Y-Y pairs colour 1; the pairs inside X,
    # in row-major order, take the fresh colours l + 1, l + 2, ...
    table = np.where(u < l, u + 1, 1)
    inside = v < l
    table[inside] = l + 1 + np.arange(inside.sum())
    return ColouredComplete(n, k, table)


# ---------------------------------------------------------------------------
# random colourings with bounded monochromatic degree
# ---------------------------------------------------------------------------

def random_bounded_colouring(
    n: int,
    dmax: int,
    seed: int,
    colours: int | None = None,
    restarts: int = 100,
) -> ColouredComplete:
    """Random colouring with max monochromatic degree at most dmax.

    Pairs are coloured in random order; each pair draws uniformly among the
    colours still under the per-vertex cap at both endpoints, restarting on a
    dead end.  Deterministic for a fixed seed.  The palette defaults to n
    colours, which keeps outputs generic.  A small ``colours`` does not make
    the cap bind: the draws are uniform, so the realised max monochromatic
    degree is about (n - 1) / colours plus noise unless dmax is below that
    (at n = 320 and 3 colours, seed 0 gives 133 for every dmax from 0.45n
    to 0.49n).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    k = colours if colours is not None else n
    if k < 1:
        raise ValueError(f"need colours >= 1, got {k}")
    if dmax * k < n - 1:
        raise GenerationError(
            f"infeasible: dmax * colours = {dmax * k} < n - 1 = {n - 1} edges per vertex"
        )

    rng = random.Random(seed)
    pairs = list(enumerate(itertools.combinations(range(n), 2)))
    for _ in range(restarts):
        counts = [[0] * k for _ in range(n)]
        # colours that reached the cap at each vertex; while both endpoints have
        # none, every colour is allowed and the draw skips the O(k) filter
        capped: list[set[int]] = [set() for _ in range(n)]
        flat = [0] * len(pairs)
        rng.shuffle(pairs)
        for i, (u, v) in pairs:
            fu, fv = capped[u], capped[v]
            allowed = [c for c in range(k) if c not in fu and c not in fv] if fu or fv else range(k)
            if not allowed:
                break
            c = flat[i] = rng.choice(allowed)
            cu, cv = counts[u], counts[v]
            cu[c] += 1
            cv[c] += 1
            if cu[c] == dmax:
                fu.add(c)
            if cv[c] == dmax:
                fv.add(c)
        else:
            return ColouredComplete(n, k, flat)
    raise GenerationError(f"no colouring with dmax={dmax}, colours={k} found in {restarts} restarts")


def random_colouring(n: int, k: int, seed: int) -> ColouredComplete:
    """Uniform random k-colouring (no degree constraint)."""
    rng = random.Random(seed)
    return ColouredComplete.from_function(n, k, lambda u, v: rng.randrange(k))


# ---------------------------------------------------------------------------
# cycle-set cross checks
# ---------------------------------------------------------------------------

def properly_coloured_cycle_set(cg) -> set[tuple[int, ...]]:
    """All PC cycles of a (possibly partial) coloured graph, canonical form.

    Exhaustive; intended for small n cross-checks against directed cycle sets.
    """
    n = cg.n
    adj = [[v for v in range(n) if v != u and cg.has_edge(u, v)] for u in range(n)]
    found: set[tuple[int, ...]] = set()

    def walk(start: int, path: list[int], on_path: set[int]):
        last = path[-1]
        for w in adj[last]:
            if w == start and len(path) >= 3:
                if path[1] < path[-1] and is_properly_coloured_cycle(cg, path):
                    found.add(_undirected_canonical(tuple(path)))
            elif w > start and w not in on_path:
                on_path.add(w)
                path.append(w)
                walk(start, path, on_path)
                path.pop()
                on_path.remove(w)

    for s in range(n):
        walk(s, [s], {s})
    return found
