"""Edge-coloured complete graphs and the predicates shared by every solver.

Vertices are ``0..n-1`` and colours are small non-negative integers below a
declared colour count ``k``.  A colouring is arbitrary: many edges at a vertex
may share a colour.  "Properly coloured" (PC) always means that no two
adjacent edges of the structure under discussion share a colour.

``ColouredComplete`` builds its colours once, at construction, into one
representation: a read-only ``np.int32`` n x n ``matrix`` with -1 on the
diagonal for vectorised code, and the same values as row tuples ``rows`` for
scalar hot loops.  Instances are immutable, so they can be shared freely
between workers.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from typing import Callable, Sequence

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
    """Complete graph on n vertices; ``table`` colours the pairs u < v in
    row-major order."""

    __slots__ = ("n", "k", "matrix", "rows")

    def __init__(self, n: int, k: int, table: Sequence[ColourId]):
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        if k < 1:
            raise ValueError(f"need k >= 1, got {k}")
        expected = n * (n - 1) // 2
        tab = np.asarray(table)
        if tab.shape != (expected,):
            raise ValueError(f"colour table has {tab.size} entries, expected {expected}")
        if expected:
            lo, hi = tab.min(), tab.max()
            if lo < 0 or hi >= k:
                raise ValueError(f"colour {lo if lo < 0 else hi} outside 0..{k - 1}")
            if hi > np.iinfo(np.int32).max:
                raise ValueError(f"colour {hi} does not fit the int32 colour matrix")
        m = np.full((n, n), -1, dtype=np.int32)
        upper = np.triu_indices(n, 1)
        m[upper] = tab
        m[upper[::-1]] = tab
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
        _check_vertices(self, (u, v))
        if u == v:
            raise ValueError(f"no self-edge at vertex {u}")
        return self.rows[u][v]

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


def _check_vertices(g, vs) -> None:
    """The one vertex-id check: an int (not a bool) or a numpy integer in 0..n-1, else a ValueError."""
    for v in vs:
        if type(v) is not int and (isinstance(v, bool) or not isinstance(v, (int, np.integer))):
            raise ValueError(f"vertex {v!r} is not an integer")
        if not (0 <= v < g.n):
            raise ValueError(f"vertex {v} outside 0..{g.n - 1}")


def _colour_run_starts(g: ColouredComplete) -> np.ndarray:
    """True where a run of one colour starts in each row of g's matrix, sorted, its
    diagonal -1 (sorted first) dropped: the runs are the colours at a vertex."""
    return np.diff(np.sort(g.matrix, axis=1)[:, 1:], axis=1, prepend=-1) != 0


def max_mono_degree(g: ColouredComplete) -> int:
    """Largest number of same-coloured edges incident with one vertex."""
    starts = _colour_run_starts(g).ravel()
    return int(np.diff(np.flatnonzero(starts), append=starts.size).max(initial=0))


def min_colour_degree(g: ColouredComplete) -> int:
    """Minimum over vertices of the number of distinct colours at that vertex."""
    return int(_colour_run_starts(g).sum(axis=1).min())


# ---------------------------------------------------------------------------
# directed paths and cycles
# ---------------------------------------------------------------------------

def _as_vertex_seq(p) -> tuple[int, ...]:
    if isinstance(p, _VertexSeq):
        return p.vertices
    return tuple(p)


@dataclass(frozen=True)
class _VertexSeq:
    """Distinct vertices in order, at least `_MIN_ORDER` of them; a path and
    a cycle on the same vertices are different objects."""

    vertices: tuple[int, ...]

    def __post_init__(self):
        vs = tuple(self.vertices)
        object.__setattr__(self, "vertices", vs)
        if len(vs) < self._MIN_ORDER:
            raise ValueError(self._TOO_SHORT)
        if len(set(vs)) != len(vs):
            raise ValueError(f"{self._NOUN} repeats a vertex")

    @classmethod
    def unchecked(cls, vertices: tuple[int, ...]):
        """The sequence on `vertices`, a tuple of distinct vertices long
        enough for the class, without the constructor's check; for callers
        that rearrange the vertices of a valid path or cycle."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "vertices", vertices)
        return seq

    @property
    def order(self) -> int:
        return len(self.vertices)

    def reverse(self):
        return type(self).unchecked(self.vertices[::-1])


@dataclass(frozen=True)
class DirectedPath(_VertexSeq):
    """A directed path given by its vertex sequence; reversal is a different path."""

    _MIN_ORDER = 1
    _NOUN = "path"
    _TOO_SHORT = "path needs at least one vertex"

    @property
    def last(self) -> int:
        return self.vertices[-1]


@dataclass(frozen=True)
class DirectedCycle(_VertexSeq):
    """A cycle with a chosen orientation and start; length at least 3."""

    _MIN_ORDER = 3
    _NOUN = "cycle"
    _TOO_SHORT = "cycle needs at least three vertices"


def is_properly_coloured_path(g, p) -> bool:
    """True iff each step along p is an edge of g and consecutive edge colours
    differ.  A path of at most one vertex is proper without looking at its
    id.  Otherwise an id that `_check_vertices` rejects, or a step with a
    self-pair, makes it False; then `_proper_walk` reads the colours."""
    vs = _as_vertex_seq(p)
    if len(vs) < 2:
        return True
    try:
        _check_vertices(g, vs)
    except ValueError:
        return False
    return not any(map(operator.eq, vs, vs[1:])) and _proper_walk(g.rows, vs)


def is_properly_coloured_cycle(g, cyc) -> bool:
    """True iff around the cycle (wrap included) no vertex sees two equal edge
    colours: the path walk over the cycle and its first two vertices again."""
    vs = _as_vertex_seq(cyc)
    return len(vs) >= 3 and is_properly_coloured_path(g, vs + vs[:2])


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


def ham_cycle_certificate(cycle) -> Certificate:
    return Certificate(KIND_HAM_CYCLE, cycles=(tuple(_as_vertex_seq(cycle)),))

def ham_path_certificate(path) -> Certificate:
    return Certificate(KIND_HAM_PATH, path=tuple(_as_vertex_seq(path)))

def two_factor_certificate(cycles) -> Certificate:
    return Certificate(KIND_TWO_FACTOR, cycles=tuple(tuple(_as_vertex_seq(c)) for c in cycles))


def _proper_walk(rows, vs: tuple[int, ...]) -> bool:
    """The library's one properness walk, for ids already checked to be ids
    of g with no self-pair step, so no step checks them again."""
    prev = None
    for u, v in zip(vs, vs[1:]):
        cur = rows[u][v]
        if cur == prev:
            return False
        prev = cur
    return True


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
            # exactly an int, as JSON gives it: no bool, no numpy id (so not `_check_vertices`)
            if type(v) is not int:
                return f"{name}: vertex {v!r} is not an int"
            if not 0 <= v < n:
                return f"{name}: vertex {v!r} outside 0..{n - 1}"
        piece = set(vs)
        if len(piece) != len(vs):
            return f"{name}: repeated vertex"
        if not seen.isdisjoint(piece):
            return f"{name}: shares vertex {min(seen & piece)} with another piece"
        seen |= piece

    rows = g.rows
    for i, cyc in enumerate(cert.cycles):
        if len(cyc) < 3:
            return f"cycle {i}: fewer than 3 vertices"
        vs = pieces[i][1]
        if not _proper_walk(rows, vs + vs[:2]):
            return f"cycle {i}: adjacent edges share a colour"
    if cert.path is not None:
        if len(cert.path) < 1:
            return "path: empty"
        if not _proper_walk(rows, pieces[-1][1]):
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


def _verified(g, cert: Certificate, who: str) -> Certificate:
    """The producers' one verified exit: `cert` judged Valid, else a RuntimeError naming `who`."""
    out = verify_certificate(g, cert)
    if not out.valid:
        raise RuntimeError(f"{who} produced an invalid certificate: {out.reason}")
    return out


def certificate_to_json(cert: Certificate) -> dict:
    return {
        "kind": cert.kind,
        "cycles": [list(c) for c in cert.cycles],
        "path": list(cert.path) if cert.path is not None else None,
        "verdict": cert.verdict,
        "reason": cert.reason,
    }


def _json_vertex(v) -> int:
    """A JSON integer as is; a bool, float or string is no vertex id."""
    if type(v) is not int:
        raise TypeError(repr(v))
    return v


def certificate_from_json(obj: dict) -> Certificate:
    if not isinstance(obj, dict):
        raise ValueError("certificate JSON must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str):
        raise ValueError("certificate JSON needs a string 'kind'")
    cycles = obj.get("cycles") or []
    path = obj.get("path")
    try:
        cyc_tuples = tuple(tuple(map(_json_vertex, c)) for c in cycles)
        path_tuple = tuple(map(_json_vertex, path)) if path is not None else None
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
# text I/O
# ---------------------------------------------------------------------------

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
