"""Offline benchmark of the ``pch`` library, driven through its public API.

    python3 perfbench/run.py --workload few-colour --seed 1 --seconds 25 --trace 0

One process runs one workload serially.  It builds the workload's instances
from ``--seed`` several times (``setup_s`` is the median), then answers the
whole query set in sweeps until ``--seconds`` would be exceeded, always at
least one sweep.  Outputs are checked after each sweep, outside the timed
region.  Times are scaled to a reference machine speed (see REF_NOMINAL_S).
With ``--trace 0`` the last stdout line carries the end-to-end
metrics; with ``--trace 1`` untraced and traced sweeps alternate and it
carries the per-layer metrics of the traced sweeps plus the tracing
overhead.  The line before it is a JSON detail record: solved and failed
shares, sample counts and one note per query.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path

from tracer import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
COLOUR_LOOKUPS = 20_000
DETERMINISTIC_COUNTS = (
    "exact.nodes",
    "ec_graph.colour_calls",
    "absorbing.build_attempts",
    "rotations.rotations",
    "rotations.two_factor_calls",
)
# On a shared host the machine's speed drifts: over 200 s, the medians of one
# exact-oracle call in eight 25-second windows spanned 34% of their median
# (2-core host).  A fixed pure-Python reference kernel slows down in step, so
# every time is scaled by REF_NOMINAL_S over the mean of the kernel runs just
# before and just after it: times read as seconds on a machine where the
# kernel takes 30 ms.  On that host, scaling cut the span of the window
# medians to 6.5%.
REF_ITERATIONS = 100_000
REF_NOMINAL_S = 0.030
REF_EVERY_S = 0.5        # longest stretch of queries between two kernel runs
_REF_TABLE = {i: (i * 7919) % 65521 for i in range(4096)}


def _import_library():
    """Import ``pch`` from this checkout's ``src``, or exit without a result."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    try:
        import pch
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pch from {ROOT / 'src'}: {exc}")
    if Path(pch.__file__).resolve().parent != ROOT / "src" / "pch":
        sys.exit(f"perfbench: imported pch from {pch.__file__}, not from this checkout")


def _reference_seconds() -> float:
    """Wall time of one run of the reference kernel: dict lookups and int ops."""
    table = _REF_TABLE
    acc = 0
    t0 = time.perf_counter()
    for i in range(REF_ITERATIONS):
        acc = (acc + table[(i * 2654435761 ^ acc) & 4095]) & 0xFFFFFFFF
    return time.perf_counter() - t0


def _scale(before: float, after: float) -> float:
    return REF_NOMINAL_S / ((before + after) / 2)


def _timed(work):
    """(result, raw seconds, scale) of one call, with the kernel run around it."""
    before = _reference_seconds()
    t0 = time.perf_counter()
    out = work()
    raw = time.perf_counter() - t0
    return out, raw, _scale(before, _reference_seconds())


class Sweep:
    """One pass over the query set: scaled wall time, per-query times, verdicts.

    The reference kernel runs outside the timed region after any query that
    ends REF_EVERY_S or more after its last run, and after the last query;
    each query is scaled by the kernel runs that bracket it.
    """

    def __init__(self, queries, tracer=None):
        gc.collect()
        outputs, raw, scales, pending = [], [], [], []
        before = _reference_seconds()
        since = time.perf_counter()
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query = i
            t0 = time.perf_counter()
            try:
                outputs.append((q.run(), None))
            except Exception as exc:  # a raising query is a failed query, not a crash
                outputs.append((None, f"raised {type(exc).__name__}: {exc}"))
            t1 = time.perf_counter()
            raw.append(t1 - t0)
            pending.append(i)
            if t1 - since >= REF_EVERY_S or i == len(queries) - 1:
                after = _reference_seconds()
                scales.extend([_scale(before, after)] * len(pending))
                pending, before, since = [], after, time.perf_counter()
        self.query_seconds = [t * s for t, s in zip(raw, scales)]
        self.raw_wall = sum(raw)
        self.wall = sum(self.query_seconds)
        self.scale = self.wall / self.raw_wall
        self.verdicts = [
            (False, err, "raised") if err else q.check(out)
            for q, (out, err) in zip(queries, outputs)
        ]


def _colour_ns(g, seed: int) -> float:
    """Median raw cost of one ``g.colour`` lookup, loop included, over 5 batches."""
    rng = random.Random(seed)
    pairs = [tuple(rng.sample(range(g.n), 2)) for _ in range(COLOUR_LOOKUPS)]
    colour = g.colour
    samples = []
    for _ in range(5):
        t0 = time.perf_counter()
        for u, v in pairs:
            colour(u, v)
        samples.append((time.perf_counter() - t0) / len(pairs) * 1e9)
    return statistics.median(samples)


def _normalised(value: float, unit: str, scale: float) -> float:
    if unit == "s":
        return value * scale
    return value / scale if unit == "1/s" else value


def measure(workload: str, seed: int, seconds: float, trace: bool, smallest: bool = False):
    """Run one workload; return (metrics with units, detail record, correct)."""
    from workloads import WORKLOADS  # imports pch, so only after _import_library

    make = WORKLOADS[workload]
    setup_seconds = []
    for _ in range(SETUP_REPS):
        gc.collect()
        queries, raw, scale = _timed(lambda: make(seed, smallest))
        setup_seconds.append(raw * scale)
    graphs = {id(q.graph): q for q in queries}.values()
    input_problems = [p for p in (q.input_problem() for q in graphs) if p]

    plain: list[Sweep] = []
    traced: list[tuple[Sweep, dict]] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        plain.append(Sweep(queries))
        if trace:
            with Tracer() as tr:
                sweep = Sweep(queries, tr)
            traced.append((sweep, layer_metrics(tr)))
        now = time.perf_counter()
        if now - start + (now - lap) > seconds:
            break

    verdicts = [v for s in plain + [s for s, _ in traced] for v in s.verdicts]
    failed = sum(problem is not None for _, problem, _ in verdicts)
    detail = {
        "workload": workload,
        "seed": seed,
        "sweeps": len(plain),
        "sweep_raw_s": [s.raw_wall for s in plain],
        "sweep_scale": [s.scale for s in plain],
        "query_samples": sum(len(s.query_seconds) for s in plain),
        "solved_frac": sum(solved for solved, _, _ in verdicts) / len(verdicts),
        "failed_frac": failed / len(verdicts),
        "attempted": len(verdicts),
        "failed": failed,
        "problems": input_problems + sorted({p for _, p, _ in verdicts if p})[:5],
        "queries": {
            q.name: {"note": v[2], "seconds": t}
            for q, v, t in zip(queries, plain[0].verdicts, plain[0].query_seconds)
        },
    }

    if not trace:
        metrics = {
            "sweep_s": (statistics.median(s.wall for s in plain), "s"),
            "query_s_p50": (statistics.median(t for s in plain for t in s.query_seconds), "s"),
            "setup_s": (statistics.median(setup_seconds), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        per_sweep = [
            {k: _normalised(v, _unit(k), s.scale) for k, v in m.items()} for s, m in traced
        ]
        metrics = {
            name: (statistics.median_low(m[name] for m in per_sweep), _unit(name))
            for name in per_sweep[0]
        }
        with Tracer() as tr:
            _, _, scale = _timed(lambda: make(seed, smallest))
        metrics["constructions.gen_s"] = (
            sum(sp.seconds for sp in tr.spans if sp.name == "constructions.gen") * scale, "s"
        )
        largest = max((q.graph for q in queries), key=lambda g: g.n)
        ns, _, scale = _timed(lambda: _colour_ns(largest, seed))
        metrics["ec_graph.colour_ns"] = (ns * scale, "ns")
        metrics["trace.overhead_frac"] = (
            statistics.median(s.wall for s, _ in traced)
            / statistics.median(s.wall for s in plain) - 1,
            "frac",
        )
        detail["counts_repeat"] = all(
            len({m[name] for m in per_sweep}) == 1 for name in DETERMINISTIC_COUNTS
        )
    correct = failed == 0 and not input_problems
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, detail, correct


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_coverage")):
        return "frac"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument(
        "--seed", type=int, required=True, help="base seed; offsets every instance seed"
    )
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    metrics, detail, correct = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail))
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
