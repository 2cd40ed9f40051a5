"""Edge-coloured complete graphs and the predicates shared by every solver.

Vertices are ``0..n-1`` and colours are small non-negative integers below a
declared colour count ``k``.  A colouring is arbitrary: many edges at a vertex
may share a colour.  "Properly coloured" (PC) always means that no two
adjacent edges of the structure under discussion share a colour.

``ColouredComplete`` builds its colours once, at construction, into one
representation: a read-only ``np.int32`` n x n ``matrix`` with -1 on the
diagonal for vectorised code, and the same values as row tuples ``rows`` for
scalar hot loops.  Instances are immutable, so they can be shared freely
between workers.  ``ColouredGraph`` is the partial (non-complete) variant used
by the oriented-graph construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

Vertex = int
ColourId = int

KIND_HAM_CYCLE = "HamCycle"
KIND_HAM_PATH = "HamPath"
KIND_TWO_FACTOR = "TwoFactor"
KIND_PATH_CYCLE_SYSTEM = "PathCycleSystem"
CERT_KINDS = (KIND_HAM_CYCLE, KIND_HAM_PATH, KIND_TWO_FACTOR, KIND_PATH_CYCLE_SYSTEM)

VERDICT_VALID = "Valid"
VERDICT_INVALID = "Invalid"
VERDICT_UNCHECKED = "Unchecked"


class GraphFormatError(ValueError):
    """Malformed graph/certificate text input; carries the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class ColouredComplete:
    """Complete graph on n vertices; ``table`` colours the pairs u < v in row-major order."""

    __slots__ = ("n", "k", "matrix", "rows")

    def __init__(self, n: int, k: int, table: Sequence[ColourId]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        expected = n * (n - 1) // 2
        flat = np.asarray(table)
        if flat.ndim != 1 or len(flat) != expected:
            raise ValueError(f"colour table has {flat.size} entries, expected {expected}")
        if expected:
            lo, hi = flat.min(), flat.max()
            if lo < 0 or hi >= k:
                raise ValueError(f"colour {lo if lo < 0 else hi} outside 0..{k - 1}")
            if hi > np.iinfo(np.int32).max:
                raise ValueError(f"colour {hi} does not fit the int32 colour matrix")
        m = np.full((n, n), -1, dtype=np.int32)
        upper = np.triu_indices(n, 1)
        m[upper] = flat
        m[upper[::-1]] = flat
        m.setflags(write=False)
        self.n = n
        self.k = k
        self.matrix = m
        self.rows = tuple(map(tuple, m.tolist()))

    @classmethod
    def from_function(cls, n: int, k: int, colour_fn: Callable[[int, int], ColourId]) -> "ColouredComplete":
        """Build from a function on ordered pairs u < v."""
        tab = [colour_fn(u, v) for u in range(n) for v in range(u + 1, n)]
        return cls(n, k, tab)

    def colour(self, u: Vertex, v: Vertex) -> ColourId:
        if u == v:
            raise ValueError(f"no self-edge at vertex {u}")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"vertex pair ({u}, {v}) outside 0..{self.n - 1}")
        return self.rows[u][v]

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u != v and 0 <= u < self.n and 0 <= v < self.n

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ColouredComplete)
            and self.k == other.k
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.matrix.tobytes()))

    def __repr__(self) -> str:
        return f"ColouredComplete(n={self.n}, k={self.k})"


class ColouredGraph:
    """Partially coloured graph: only some pairs carry an edge (and a colour)."""

    __slots__ = ("n", "k", "_colours")

    def __init__(self, n: int, k: int, colours: dict):
        self.n = n
        self.k = k
        self._colours = {}
        for (u, v), c in colours.items():
            if u == v or not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"bad edge ({u}, {v})")
            if not (0 <= c < k):
                raise ValueError(f"colour {c} outside 0..{k - 1}")
            self._colours[(u, v) if u < v else (v, u)] = c

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._colours

    def colour(self, u: Vertex, v: Vertex) -> ColourId:
        if u > v:
            u, v = v, u
        try:
            return self._colours[(u, v)]
        except KeyError:
            raise ValueError(f"no edge between {u} and {v}") from None

    def edges(self) -> Iterator[tuple[int, int, ColourId]]:
        for (u, v), c in sorted(self._colours.items()):
            yield u, v, c

    def edge_count(self) -> int:
        return len(self._colours)

    def __repr__(self) -> str:
        return f"ColouredGraph(n={self.n}, k={self.k}, m={len(self._colours)})"


def colour_counts(matrix: np.ndarray, k: int) -> np.ndarray:
    """counts[i, c] = entries of colour c in row i of a colour matrix (-1 skipped)."""
    rows = matrix.shape[0]
    span = k + 1                                  # a leading column per row takes the -1s
    wide = np.int32 if rows * span < 2 ** 31 else np.int64
    cells = matrix + (np.arange(rows, dtype=wide) * span + 1)[:, None]
    return np.bincount(cells.ravel(), minlength=rows * span).reshape(rows, span)[:, 1:]


def colour_histograms(g: ColouredComplete) -> list[list[int]]:
    """Per-vertex colour counts: hist[v][c] = number of edges at v coloured c."""
    return colour_counts(g.matrix, g.k).tolist()


def max_mono_degree(g: ColouredComplete) -> int:
    """Largest number of same-coloured edges incident with one vertex."""
    if g.n < 2:
        raise ValueError("need n >= 2")
    return int(colour_counts(g.matrix, g.k).max())


def min_colour_degree(g: ColouredComplete) -> int:
    """Minimum over vertices of the number of distinct colours at that vertex."""
    if g.n < 2:
        raise ValueError("need n >= 2")
    return int((colour_counts(g.matrix, g.k) > 0).sum(axis=1).min())


# ---------------------------------------------------------------------------
# directed paths and cycles
# ---------------------------------------------------------------------------

def _as_vertex_seq(p) -> tuple[int, ...]:
    if isinstance(p, (DirectedPath, DirectedCycle)):
        return p.vertices
    return tuple(p)


@dataclass(frozen=True)
class DirectedPath:
    """A directed path given by its vertex sequence; reversal is a different path."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 1:
            raise ValueError("path needs at least one vertex")
        if len(set(vs)) != len(vs):
            raise ValueError("path repeats a vertex")

    @property
    def order(self) -> int:
        return len(self.vertices)

    @property
    def first(self) -> int:
        return self.vertices[0]

    @property
    def last(self) -> int:
        return self.vertices[-1]

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for i in range(len(vs) - 1):
            yield vs[i], vs[i + 1]

    def reverse(self) -> "DirectedPath":
        return DirectedPath(self.vertices[::-1])


@dataclass(frozen=True)
class DirectedCycle:
    """A cycle with a chosen orientation and start; length at least 3."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < 3:
            raise ValueError("cycle needs at least three vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("cycle repeats a vertex")

    @property
    def order(self) -> int:
        return len(self.vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        vs = self.vertices
        for i in range(len(vs)):
            yield vs[i], vs[(i + 1) % len(vs)]

    def reverse(self) -> "DirectedCycle":
        return DirectedCycle(self.vertices[::-1])

    def canonical(self) -> tuple[int, ...]:
        """Orientation- and rotation-independent form: min vertex first, smaller neighbour next."""
        vs = self.vertices
        i = vs.index(min(vs))
        fwd = vs[i:] + vs[:i]
        rev = (fwd[0],) + fwd[1:][::-1]
        return min(fwd, rev)


def is_properly_coloured_path(g, p) -> bool:
    """True iff consecutive edge colours along p all differ (order <= 2 is proper)."""
    vs = _as_vertex_seq(p)
    for i in range(len(vs) - 1):
        if not g.has_edge(vs[i], vs[i + 1]):
            return False
    if len(vs) <= 2:
        return True
    prev = g.colour(vs[0], vs[1])
    for i in range(1, len(vs) - 1):
        cur = g.colour(vs[i], vs[i + 1])
        if cur == prev:
            return False
        prev = cur
    return True


def is_properly_coloured_cycle(g, cyc) -> bool:
    """True iff around the cycle (wrap included) no vertex sees two equal edge colours."""
    vs = _as_vertex_seq(cyc)
    if len(vs) < 3:
        return False
    for i in range(len(vs)):
        if not g.has_edge(vs[i], vs[(i + 1) % len(vs)]):
            return False
    prev = g.colour(vs[-1], vs[0])
    for i in range(len(vs)):
        cur = g.colour(vs[i], vs[(i + 1) % len(vs)])
        if cur == prev:
            return False
        prev = cur
    return True


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Certificate:
    """A claimed structure plus a verdict.

    Structures are kept as raw vertex tuples so that malformed claims (from
    files, say) can still be represented and judged Invalid instead of
    crashing.
    """

    kind: str
    cycles: tuple[tuple[int, ...], ...] = ()
    path: tuple[int, ...] | None = None
    verdict: str = VERDICT_UNCHECKED
    reason: str | None = None

    @property
    def valid(self) -> bool:
        return self.verdict == VERDICT_VALID

    def covered_vertices(self) -> set[int]:
        out: set[int] = set()
        for cyc in self.cycles:
            out.update(cyc)
        if self.path is not None:
            out.update(self.path)
        return out


def ham_cycle_certificate(cycle) -> Certificate:
    return Certificate(KIND_HAM_CYCLE, cycles=(tuple(_as_vertex_seq(cycle)),))

def ham_path_certificate(path) -> Certificate:
    return Certificate(KIND_HAM_PATH, path=tuple(_as_vertex_seq(path)))

def two_factor_certificate(cycles) -> Certificate:
    return Certificate(KIND_TWO_FACTOR, cycles=tuple(tuple(_as_vertex_seq(c)) for c in cycles))


def _structure_problem(g, cert: Certificate) -> str | None:
    n = g.n
    if cert.kind not in CERT_KINDS:
        return f"unknown certificate kind {cert.kind!r}"
    pieces: list[tuple[str, tuple[int, ...]]] = [(f"cycle {i}", tuple(c)) for i, c in enumerate(cert.cycles)]
    if cert.path is not None:
        pieces.append(("path", tuple(cert.path)))

    seen: set[int] = set()
    for name, vs in pieces:
        for v in vs:
            if not isinstance(v, int) or not (0 <= v < n):
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
    # PathCycleSystem: any disjoint PC pieces, no spanning requirement
    return None


def verify_certificate(g, cert: Certificate) -> Certificate:
    """Recompute the verdict of a certificate against g; never raises on bad claims."""
    try:
        problem = _structure_problem(g, cert)
    except Exception as exc:  # malformed beyond the explicit checks
        problem = f"malformed structure: {exc}"
    if problem is None:
        return replace(cert, verdict=VERDICT_VALID, reason=None)
    return replace(cert, verdict=VERDICT_INVALID, reason=problem)


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "cycles": [list(c) for c in cert.cycles],
        "path": list(cert.path) if cert.path is not None else None,
        "verdict": cert.verdict,
        "reason": cert.reason,
    }


def certificate_from_json(obj: dict) -> Certificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ValueError("certificate JSON needs a string 'kind'")
    cycles = obj.get("cycles") or []
    path = obj.get("path")
    try:
        cyc_tuples = tuple(tuple(int(v) for v in c) for c in cycles)
        path_tuple = tuple(int(v) for v in path) if path is not None else None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"certificate JSON has a non-integer vertex: {exc}") from None
    return Certificate(
        kind,
        cycles=cyc_tuples,
        path=path_tuple,
        verdict=obj.get("verdict", VERDICT_UNCHECKED),
        reason=obj.get("reason"),
    )


# ---------------------------------------------------------------------------
# restriction and text I/O
# ---------------------------------------------------------------------------

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
    sub = g.matrix[np.ix_(old, old)]
    return ColouredComplete(len(old), g.k, sub[np.triu_indices(len(old), 1)]), old


def graph_to_text(g: ColouredComplete) -> str:
    lines = [f"{g.n} {g.k}"]
    for u in range(g.n - 1):
        lines.append(" ".join(map(str, g.rows[u][u + 1 :])))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> ColouredComplete:
    raw = text.splitlines()
    if not raw:
        raise GraphFormatError(1, "empty input")
    head = raw[0].split()
    if len(head) != 2:
        raise GraphFormatError(1, f"expected 'n k', got {raw[0]!r}")
    try:
        n, k = int(head[0]), int(head[1])
    except ValueError:
        raise GraphFormatError(1, f"expected integers 'n k', got {raw[0]!r}") from None
    if n < 1 or k < 1:
        raise GraphFormatError(1, f"need n >= 1 and k >= 1, got n={n} k={k}")

    tab: list[int] = []
    lineno = 1
    for u in range(n - 1):
        lineno = u + 2
        if lineno > len(raw):
            raise GraphFormatError(lineno, f"missing row for vertex {u}")
        parts = raw[u + 1].split()
        want = n - 1 - u
        if len(parts) != want:
            raise GraphFormatError(lineno, f"row for vertex {u} has {len(parts)} entries, expected {want}")
        for col, p in enumerate(parts):
            try:
                c = int(p)
            except ValueError:
                raise GraphFormatError(lineno, f"column {col + 1}: {p!r} is not an integer") from None
            if not (0 <= c < k):
                raise GraphFormatError(lineno, f"column {col + 1}: colour {c} outside 0..{k - 1}")
            tab.append(c)
    for idx in range(n, len(raw)):
        if raw[idx].strip():
            raise GraphFormatError(idx + 1, "trailing non-empty line after colour rows")
    return ColouredComplete(n, k, tab)


def write_graph(g: ColouredComplete, path) -> None:
    with open(path, "w") as fh:
        fh.write(graph_to_text(g))


def read_graph(path) -> ColouredComplete:
    with open(path) as fh:
        return graph_from_text(fh.read())
