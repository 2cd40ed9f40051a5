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

from pch.ec_graph import ColouredComplete, _check_vertices, max_mono_degree


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
        ids = set(range(self.n))    # `in` takes an id of any type, in O(1)
        for u, v in self.arcs:
            if u == v:
                raise ValueError(f"loop at {u!r}")
            if u not in ids or v not in ids:
                raise ValueError(f"arc ({u!r}, {v!r}) outside 0..{self.n - 1}")
            _check_vertices(self, (u, v))     # a bool or a float equal to a vertex
            if (v, u) in self.arcs:
                raise ValueError(f"both orientations of {{{u}, {v}}} present")
        object.__setattr__(self, "arcs", frozenset((int(u), int(v)) for u, v in self.arcs))


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

def monochromatic(n: int) -> ColouredComplete:
    """All edges colour 0."""
    return ColouredComplete(n, 1, np.zeros(n * (n - 1) // 2, dtype=int))


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
    A seed that still leaves a vertex with 2k edges of one colour raises
    `GenerationError`, the type `random_bounded_colouring` raises for a seed
    it cannot generate; over k in {2, 3, 4, 5, 10, 20, 40} and seeds 0-199
    only (2, 168) does.
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
        raise GenerationError(f"seed {seed}: max monochromatic degree {max_mono_degree(g)}, expected {2 * k - 1}")
    return g


def colouring_from_oriented(og: OrientedGraph) -> ColouredComplete:
    """Colour each arc u->v with a per-vertex colour of the head v, and every
    other pair with the fresh colour n, so k = n + 1; a tournament leaves no
    other pair, so k = n.

    The PC cycles that avoid colour n are precisely the directed cycles of
    ``og``: two arcs into one vertex share its colour.  On the arc pairs the
    max monochromatic degree is the max in-degree, and each vertex sees
    ``d_out(v) + min(1, d_in(v))`` arc colours.
    """
    n = og.n
    colours = {(min(u, v), max(u, v)): v for (u, v) in og.arcs}
    k = n if len(colours) == n * (n - 1) // 2 else n + 1
    return ColouredComplete.from_function(n, k, lambda u, v: colours.get((u, v), n))


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

# Below this many pairs the per-pair loop colours every pair.  The bulk pass
# has a fixed cost that only larger inputs make up: on three colours at
# dmax = 0.45n it was 0.14 ms slower than the loop at 276 pairs (n = 24) and
# 0.17 ms faster at 1,540 (n = 56); on n colours it won from 276 pairs on
# (2-core host, Python 3.11).
_BULK_MIN_PAIRS = 1024
# most words one per-pair loop holds as Python ints at a time, and fewest
# words fetched from the generator at once
_CHUNK = 1 << 13
_FETCH = 1 << 10


class _Words:
    """The 32-bit outputs of ``random.Random(seed)``, in stream order.

    ``getrandbits(32 * B)`` packs the next B outputs least significant first,
    so its little-endian bytes, read as ``<u4``, are the words that B
    successive ``getrandbits(32)`` calls would return.  CPython's
    ``_randbelow(b)`` takes one word per try, keeps its top
    ``b.bit_length()`` bits and retries while they are at least b; ``shuffle``
    and ``choice`` draw only through it.  ``buf`` holds the words fetched but
    not yet consumed.
    """

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self.buf = np.empty(0, dtype=np.uint32)
        self._held, self._handed = 0, iter(())

    def _fill(self, count: int) -> None:
        if count > len(self.buf):
            short = max(count - len(self.buf), _FETCH)
            fresh = np.frombuffer(self._rng.getrandbits(32 * short).to_bytes(4 * short, "little"), dtype="<u4")
            self.buf = np.concatenate([self.buf, fresh]) if len(self.buf) else fresh

    def take(self, want: int, shift: int = 0):
        """``__next__`` of an iterator over the next words, each shifted right
        by ``shift``: at least one and at most ``_CHUNK`` of them.  ``settle``
        consumes the ones it handed out."""
        count = min(max(want, 1), _CHUNK)
        self._fill(count)
        self._held, self._handed = count, iter((self.buf[:count] >> shift).tolist())
        return self._handed.__next__

    def settle(self) -> None:
        self.buf = self.buf[self._held - self._handed.__length_hint__():]

    def consume(self, used: int) -> None:
        self.buf = self.buf[used:]

    def below(self, bound: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The next ``count`` draws of ``_randbelow(bound)`` and, for each, how
        many words the draws up to and including it take; nothing is consumed."""
        bits = bound.bit_length()
        tries = (1 << bits) / bound  # expected words per draw, below 2
        while True:
            tops = self.buf >> (32 - bits)
            hits = np.flatnonzero(tops < bound)
            if len(hits) >= count:
                return tops[hits[:count]].astype(np.int64), hits[:count] + 1
            self._fill(len(self.buf) + int((count - len(hits)) * tries * 1.05) + 64)


def _shuffle(order: list[int], words: _Words) -> None:
    """``random.Random(seed).shuffle(order)``: Fisher-Yates from the top, one
    ``_randbelow(i + 1)`` per slot i, with the words of each bit width of
    i + 1 shifted in one numpy step."""
    i = len(order) - 1
    while i > 0:
        top = (i + 1).bit_length()
        low = (1 << (top - 1)) - 1  # lowest slot whose i + 1 has top bits
        # a slot takes 2**top / (i + 1) words on average, under 1.5 over a width
        draw = words.take(3 * (i - low) // 2 + 16, 32 - top)
        try:
            for i in range(i, low - 1, -1):
                r = draw()
                while r > i:
                    r = draw()
                order[i], order[r] = order[r], order[i]
            i = low - 1
        except StopIteration:  # out of words: resume at slot i with the next ones
            pass
        words.settle()


def _first_capping_pair(keys: np.ndarray, dmax: int) -> int | None:
    """Index of the first pair whose (vertex, colour) keys, at 2t and 2t + 1,
    bring some key to its dmax-th occurrence; None if no key gets there."""
    if np.bincount(keys).max() < dmax:
        return None
    ranked = np.argsort(keys, kind="stable")
    runs = keys[ranked]
    starts = np.flatnonzero(np.r_[True, runs[1:] != runs[:-1]])
    sizes = np.diff(np.r_[starts, len(runs)])
    return int(ranked[starts[sizes >= dmax] + dmax - 1].min()) // 2


def _bounded_table(n: int, k: int, dmax: int, order: list[int], words: _Words) -> np.ndarray | list[int] | None:
    """Colour the pairs in ``order`` as the per-pair draw would; None at a dead end.

    While neither endpoint has a capped colour every draw is ``_randbelow(k)``,
    so from ``_BULK_MIN_PAIRS`` pairs on, the prefix up to and including the
    first pair that caps a colour is drawn in one numpy pass; the per-pair
    loop colours the rest.
    """
    total = len(order)
    t = 0
    if total >= _BULK_MIN_PAIRS:
        us, vs = np.triu_indices(n, 1)
        pairs = np.fromiter(order, np.int64, total)
        drawn, used = words.below(k, total)
        # the (vertex, colour) keys of pair t sit at 2t and 2t + 1, in draw order
        keys = np.empty(2 * total, dtype=np.int64)
        keys[0::2] = us[pairs] * k + drawn
        keys[1::2] = vs[pairs] * k + drawn
        cut = _first_capping_pair(keys, dmax)
        t = total if cut is None else cut + 1
        words.consume(int(used[t - 1]))
        table = np.zeros(total, dtype=np.int64)
        table[pairs[:t]] = drawn[:t]
        if t == total:
            return table
        flat = table.tolist()
        counts = np.bincount(keys[: 2 * t], minlength=n * k).reshape(n, k).tolist()
        capped = [{c for c, m in enumerate(row) if m == dmax} for row in counts]
    else:
        flat = [0] * total
        counts = [[0] * k for _ in range(n)]
        # colours that reached the cap at each vertex; while both endpoints
        # have none, every colour is allowed and the draw skips the O(k) filter
        capped = [set() for _ in range(n)]
    ends = list(itertools.combinations(range(n), 2))
    full, full_shift = range(k), 32 - k.bit_length()
    word = words.take(2 * (total - t) + 16)
    while True:
        try:
            for t in range(t, total):
                e = order[t]
                u, v = ends[e]
                fu, fv = capped[u], capped[v]
                if fu or fv:
                    allowed = [c for c in full if c not in fu and c not in fv]
                    if not allowed:
                        words.settle()
                        return None
                    a = len(allowed)
                    shift = 32 - a.bit_length()
                else:
                    allowed, a, shift = full, k, full_shift
                r = word() >> shift
                while r >= a:
                    r = word() >> shift
                c = flat[e] = allowed[r]
                cu, cv = counts[u], counts[v]
                cu[c] += 1
                cv[c] += 1
                if cu[c] == dmax:
                    fu.add(c)
                if cv[c] == dmax:
                    fv.add(c)
            break
        except StopIteration:  # out of words: redraw pair t from the next ones
            words.settle()
            word = words.take(2 * (total - t) + 16)
    words.settle()
    return flat


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
    dead end.  The palette defaults to n colours, which keeps outputs
    generic.  A small ``colours`` does not make the cap bind: the draws are
    uniform, so the realised max monochromatic degree is about
    (n - 1) / colours plus noise unless dmax is below that (at n = 320 and 3
    colours, seed 0 gives 133 for every dmax from 0.45n to 0.49n).

    The result is, bit for bit, what this loop over ``random.Random(seed)``
    gives: ``rng.shuffle`` the pair list (row-major pairs u < v, each restart
    reshuffling the previous order), then per pair ``rng.choice`` among the
    allowed colours in increasing order.  The stream is read as raw 32-bit
    words (see ``_Words``): the shuffle and the capped draws replay CPython's
    ``_randbelow`` on them, and the draws before any colour is capped, where
    the allowed list is the whole palette, are taken in one numpy pass.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if dmax < 1:
        raise ValueError(f"need dmax >= 1, got {dmax}")
    k = colours if colours is not None else n
    if not 1 <= k <= 2**31:
        raise ValueError(f"need 1 <= colours <= 2**31 (the int32 colour matrix), got {k}")
    if restarts < 1:
        raise ValueError(f"need restarts >= 1, got {restarts}")
    if dmax * k < n - 1:
        raise GenerationError(
            f"infeasible: dmax * colours = {dmax * k} < n - 1 = {n - 1} edges per vertex"
        )

    words = _Words(seed)
    order = list(range(n * (n - 1) // 2))
    for _ in range(restarts):
        _shuffle(order, words)
        table = _bounded_table(n, k, dmax, order, words)
        if table is not None:
            del words, order  # drop the word buffer before the graph is built
            return ColouredComplete(n, k, table)
    raise GenerationError(f"no colouring with dmax={dmax}, colours={k} found in {restarts} restarts")


def random_colouring(n: int, k: int, seed: int) -> ColouredComplete:
    """Uniform random k-colouring (no degree constraint): pair by pair in
    row-major order, the colour ``random.Random(seed).randrange(k)`` draws."""
    if not 1 <= k <= 2**31:
        raise ValueError(f"need 1 <= k <= 2**31 (the int32 colour matrix), got {k}")
    return ColouredComplete(n, k, _Words(seed).below(k, n * (n - 1) // 2)[0])
