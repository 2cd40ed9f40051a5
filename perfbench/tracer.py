"""Spans and counters recorded from outside the ``pch`` package.

A ``Tracer`` replaces library functions by name in the module namespace
where their callers look them up (``pch.pipeline.find_pc_two_factor``,
``pch.absorbing.colour_matrix``, ...) and restores the originals on exit.
Each call of a wrapped function becomes one span: its name, start, end, the
span that was open when it began, the query it belongs to, and attributes
read from the call's arguments and result.  ``ColouredComplete.colour`` is
too hot for spans, so it only bumps a counter.

Spans stay in memory; ``layer_metrics`` turns one traced sweep's spans into
the per-layer numbers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field

CLOSE_MODES = ("immediate", "spread", "fallback")
PIPELINE_STAGES = ("absorbing_cycle", "restriction", "ham_path", "absorb")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    query: int           # index of the benchmark query that caused it
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# observers: call the original and read attributes from arguments and result
# ---------------------------------------------------------------------------

def _plain(call, args, kwargs):
    return call(*args, **kwargs), {}


def _pipeline_run(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"failed_stage": out.report.get("failed_stage")}


def _build(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"attempts": out.attempts}


def _family(call, args, kwargs):
    params = args[1]
    out = call(*args, **kwargs)
    # a failed family reports the attempt of its best member set, not the count
    attempts = out.attempts if out.ok else params.retry_budget
    return out, {"sampled": params.target_size * attempts}


def _universality(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"kept": len(args[1]), "coverage": out[1]}


def _join(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"ok": out is not None}


def _two_factor(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"rotations": out.stats.get("rotations", 0)}


_UNSET = object()


def _close(call, args, kwargs):
    # immediate closure leaves stats["closed_via"] alone, so mark it before the
    # call and put the caller's value back when the call did not set it
    stats = args[3]
    before = stats.get("closed_via", _UNSET)
    stats["closed_via"] = _UNSET
    out = call(*args, **kwargs)
    mode = stats["closed_via"]
    if mode is _UNSET:
        if before is _UNSET:
            del stats["closed_via"]
        else:
            stats["closed_via"] = before
        mode = "immediate"
    return out, {"mode": mode if out is not None else None}


def _oracle(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"status": out.status.value, "nodes": out.nodes}


def _extremal(call, args, kwargs):
    out = call(*args, **kwargs)
    return out, {"status": "exact" if out.exact else "exhausted", "nodes": out.nodes}


# (module, attribute, span name, observer).  One library function appears
# once per namespace that calls it.  Missing attributes are skipped, so a
# refactor that deletes a function reads as zero calls, not as a crash.
WRAPS = (
    ("pch.constructions", "random_bounded_colouring", "constructions.gen", _plain),
    ("pch.constructions", "bollobas_erdos", "constructions.gen", _plain),
    ("pch.constructions", "layered_colouring", "constructions.gen", _plain),
    ("pch.pipeline", "run_pipeline", "pipeline.run", _pipeline_run),
    ("pch.pipeline", "build_absorbing_cycle", "absorbing.build", _build),
    ("pch.pipeline", "absorb_path", "absorbing.absorb", _plain),
    ("pch.pipeline", "induced_subgraph", "ec_graph.induced_subgraph", _plain),
    ("pch.pipeline", "verify_certificate", "ec_graph.verify", _plain),
    ("pch.pipeline", "find_pc_two_factor", "rotations.two_factor", _two_factor),
    ("pch.pipeline", "find_pc_ham_path_heuristic", "rotations.ham_path", _plain),
    ("pch.pipeline", "exact_pc_ham_cycle", "exact.exists", _oracle),
    ("pch.pipeline", "exact_pc_ham_path", "exact.exists", _oracle),
    ("pch.rotations", "find_pc_two_factor", "rotations.two_factor", _two_factor),
    ("pch.rotations", "verify_certificate", "ec_graph.verify", _plain),
    ("pch.rotations", "_try_close", "rotations.close", _close),
    ("pch.absorbing", "colour_matrix", "absorbing.colour_matrix", _plain),
    ("pch.absorbing", "verify_family_universality", "absorbing.universality", _universality),
    ("pch.absorbing", "sample_absorbing_family", "absorbing.family", _family),
    ("pch.absorbing", "join_ends", "absorbing.join", _join),
    ("pch.absorbing", "count_absorbing", "absorbing.count", _plain),
    ("pch.exact", "exact_pc_ham_cycle", "exact.exists", _oracle),
    ("pch.exact", "exact_pc_ham_path", "exact.exists", _oracle),
    ("pch.exact", "exact_pc_two_factor", "exact.exists", _oracle),
    ("pch.exact", "longest_pc_cycle", "exact.longest", _extremal),
    ("pch.exact", "longest_pc_path", "exact.longest", _extremal),
    ("pch.exact", "verify_certificate", "ec_graph.verify", _plain),
)


class Tracer:
    """Install with ``with Tracer() as tr:``; spans and counts land on ``tr``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.colour_calls = 0
        self.query = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        for module_name, attr, name, observe in WRAPS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is not None:
                self._patch(module, attr, self._wrap(original, name, observe))
        from pch.ec_graph import ColouredComplete
        self._patch(ColouredComplete, "colour", self._count_colour(ColouredComplete.colour))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, original, name, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.query)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result, span.attrs = observe(original, args, kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            return result

        return traced

    def _count_colour(self, original):
        def colour(g, u, v):
            self.colour_calls += 1
            return original(g, u, v)

        return colour


# ---------------------------------------------------------------------------
# per-layer numbers of one traced sweep
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _seconds(spans) -> float:
    return sum((sp.seconds for sp in spans), 0.0)


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer metrics of the spans recorded by one traced sweep.

    A call that raised has no attributes; it counts as a call with zero work.

    ``*_s`` values are inclusive span time (a layer's nested calls of other
    layers included), except ``pipeline.self_s``, which subtracts the child
    spans of each ``run_pipeline`` call.
    """
    spans = tr.spans
    by_name: dict[str, list[Span]] = {}
    child_seconds = [0.0] * len(spans)
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent >= 0:
            child_seconds[sp.parent] += sp.seconds

    def named(name: str) -> list[Span]:
        return by_name.get(name, [])

    def seconds(name: str) -> float:
        return _seconds(named(name))

    def attr_sum(name: str, key: str) -> float:
        return sum(sp.attrs.get(key, 0) for sp in named(name))

    best_coverage: dict[int, float] = {}
    for sp in named("absorbing.universality"):
        coverage = sp.attrs.get("coverage", 0.0)
        best_coverage[sp.query] = max(best_coverage.get(sp.query, 0.0), coverage)
    joins = named("absorbing.join")
    runs = named("pipeline.run")
    run_self = sum(
        (sp.seconds - child_seconds[i] for i, sp in enumerate(spans) if sp.name == "pipeline.run"),
        0.0,
    )
    closes = [sp.attrs.get("mode") for sp in named("rotations.close")]
    oracles = named("exact.exists") + named("exact.longest")
    oracle_seconds = _seconds(oracles)
    nodes = sum(sp.attrs.get("nodes", 0) for sp in oracles)
    counts = named("absorbing.count")

    out = {
        "ec_graph.colour_calls": tr.colour_calls,
        "ec_graph.verify_s": seconds("ec_graph.verify"),
        "ec_graph.induced_subgraph_s": seconds("ec_graph.induced_subgraph"),
        "absorbing.build_s": seconds("absorbing.build"),
        "absorbing.build_attempts": attr_sum("absorbing.build", "attempts"),
        "absorbing.colour_matrix_calls": len(named("absorbing.colour_matrix")),
        "absorbing.colour_matrix_s": seconds("absorbing.colour_matrix"),
        "absorbing.universality_s": seconds("absorbing.universality"),
        "absorbing.family_kept_frac": _ratio(
            attr_sum("absorbing.universality", "kept"), attr_sum("absorbing.family", "sampled")
        ),
        "absorbing.family_coverage": _ratio(sum(best_coverage.values()), len(best_coverage)),
        "absorbing.join_calls": len(joins),
        "absorbing.join_fail_frac": _ratio(sum(not sp.attrs.get("ok") for sp in joins), len(joins)),
        "absorbing.count_quads_per_s": _ratio(len(counts), _seconds(counts)),
        "absorbing.absorb_s": seconds("absorbing.absorb"),
        "rotations.two_factor_calls": len(named("rotations.two_factor")),
        "rotations.two_factor_s": seconds("rotations.two_factor"),
        "rotations.ham_path_s": seconds("rotations.ham_path"),
        "rotations.rotations": attr_sum("rotations.two_factor", "rotations"),
        "pipeline.self_s": run_self,
        "exact.nodes": nodes,
        "exact.nodes_per_s": _ratio(nodes, oracle_seconds),
        "exact.notexists_s": _seconds(
            sp for sp in named("exact.exists") if sp.attrs.get("status") == "not_exists"
        ),
        "exact.exists_s": _seconds(
            sp for sp in named("exact.exists") if sp.attrs.get("status") == "exists"
        ),
        "exact.longest_s": seconds("exact.longest"),
        "exact.exhausted_frac": _ratio(
            sum(sp.attrs.get("status") == "exhausted" for sp in oracles), len(oracles)
        ),
    }
    for mode in CLOSE_MODES:
        out[f"rotations.closed_via.{mode}"] = closes.count(mode)
    for stage in PIPELINE_STAGES:
        out[f"pipeline.failed_stage.{stage}"] = sum(
            sp.attrs.get("failed_stage") == stage for sp in runs
        )
    return out
