"""End-to-end Hamiltonian cycle construction.

Stages: build a small absorbing cycle; delete its vertices; find a spanning
properly coloured path of the rest; absorb the path into the cycle, reversed,
end-rotated or from another seed until some member absorbs its end quadruple.
The spanning path is grown greedily first.  Only when greedy growth stops
short does the paper's route run: a properly coloured 2-factor of the rest,
searched with the path seed as its one setting, whose cycles are opened into
a spanning path by rotations, with exhaustive search as the desk-scale
stand-in for the 2-factor-to-path theorem on small restrictions.  The
report's ``ham_path`` record names the first path seed's route, and the
``absorb`` record's ``routes`` the route of each later seed's path.
The asymptotic constants behind the guarantee are reported by
``check_constants`` rather than enforced: the sizes they demand are far
beyond any instance this code will ever see, so the pipeline runs with
practical parameters and verifies its output instead.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

from pch import rotations
from pch.absorbing import AbsorptionError, BuildParams, absorb_path, build_absorbing_cycle
from pch.ec_graph import (
    Certificate,
    ColouredComplete,
    DirectedPath,
    ham_cycle_certificate,
    induced_subgraph,
    verify_certificate,
)
from pch.exact import OracleResult, SearchBudget, exact_pc_ham_cycle, exact_pc_ham_path
from pch.rotations import (
    GREEDY_RESTARTS,
    LEFT,
    RIGHT,
    PathCycleSystem,
    TwoFactorOutcome,
    expand_endpoint_colours,
    find_pc_ham_path_heuristic,
    find_pc_two_factor,
)

FALLBACK_NONE = "none"
FALLBACK_EXACT = "exact"

# spanning paths offered for absorption per run, and the depth and rotation
# cap of each one-sided end expansion of one of them
_PATH_SEEDS = 3
_ROTATION_DEPTH = 2
_ROTATION_CAP = 5_000
# restriction size up to which the exact path search backs up the heuristic
_EXACT_PATH_CAP = 15


@dataclass
class PipelineConfig:
    """How one run is seeded and what happens when a stage fails.

    ``seed`` drives the absorbing cycle and the path seeds: each seed's
    greedy growth and, when that stops short of spanning, its 2-factor
    search.  ``budget`` bounds the exact searches: the path search on a
    restriction of at most 15 vertices and, with ``fallback="exact"``, the
    Hamiltonian cycle oracle that a failed run asks.  The sizes are practical
    constants (family size from n, joins of order at most 6), not the ones
    ``check_constants`` reports for the asymptotic argument.
    """

    seed: int = 0
    fallback: str = FALLBACK_NONE
    budget: SearchBudget = field(default_factory=SearchBudget)


@dataclass
class StageFailure:
    stage: str
    detail: str
    partial: dict = field(default_factory=dict)  # artifacts from completed stages


@dataclass
class PipelineResult:
    certificate: Certificate | None
    failure: StageFailure | None
    fallback_result: OracleResult | None
    report: dict

    @property
    def success(self) -> bool:
        return self.certificate is not None


def _default_family_target(n: int) -> int:
    # leave at least ~n/3 vertices (and >= 6) outside the cycle for the path
    return max(1, min(5, (n - max(6, n // 3)) // 6))


def _spanning_path(sub, seed: int) -> tuple[DirectedPath | None, dict, TwoFactorOutcome | None]:
    """A spanning PC path of `sub` for `seed` (None if none was found), the
    record of its route, and the 2-factor search it took (None when the
    greedy path spans)."""
    greedy = rotations.maximal_path_cycle(sub, seed, restarts=GREEDY_RESTARTS)
    if greedy.path.order == sub.n:
        return greedy.path, {"how": "greedy"}, None
    tf = find_pc_two_factor(sub, seed)
    route = {
        "how": "two_factor",
        "attempts": tf.stats["attempts"],
        "rotations": tf.stats["rotations"],
        # "fallback" once some closure needed rotations, else "immediate"
        "closed_via": tf.stats.get("closed_via", "immediate"),
    }
    return find_pc_ham_path_heuristic(sub, tf), route, tf


def _rotated(sub, path: DirectedPath, tried: dict):
    """The spanning paths that rotating one end of `path` reaches."""
    for side in (RIGHT, LEFT):
        res = expand_endpoint_colours(
            PathCycleSystem(path), sub, side, max_depth=_ROTATION_DEPTH,
            require_spread=False, max_rotations=_ROTATION_CAP,
        )
        tried["rotations"] += res.rotations
        yield from (st.system.path for st in res.states()[1:] if not st.system.cycles)


def _steer(g, ac, sub, old_ids, first: DirectedPath, seed: int, tried: dict):
    """Absorb a spanning path of `sub` into `ac`: the cycle, or None.

    Each seed's path (`first` for `seed`; later seeds build their own) is
    tried forward and reversed, and then so is each spanning path its end
    rotations reach.  `tried` records the path seeds, the routes of the
    paths later seeds built, end quadruples and rotations.
    """
    for i in range(_PATH_SEEDS):
        tried["path_seeds"].append(seed + i)
        path = first
        if i > 0:
            path, route, _ = _spanning_path(sub, seed + i)
            tried["routes"].append(route)
        if path is None:
            continue
        for variant in itertools.chain([path], _rotated(sub, path, tried)):
            lifted = DirectedPath(tuple(old_ids[v] for v in variant.vertices))
            for p in (lifted, lifted.reverse()):
                tried["quads"] += 1
                cycle = absorb_path(g, ac, p)
                if cycle is not None:
                    return cycle
    return None


def run_pipeline(g: ColouredComplete, cfg: PipelineConfig | None = None) -> PipelineResult:
    cfg = cfg or PipelineConfig()
    n = g.n
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    report: dict = {"n": n, "stages": {}, "seed": cfg.seed}
    partial: dict = {}

    def fail(stage: str, detail: str) -> PipelineResult:
        fb = None
        if cfg.fallback == FALLBACK_EXACT:
            fb = exact_pc_ham_cycle(g, cfg.budget)
        report["failed_stage"] = stage
        return PipelineResult(None, StageFailure(stage, detail, dict(partial)), fb, report)

    t0 = time.perf_counter()
    target = _default_family_target(n)
    build = build_absorbing_cycle(g, BuildParams(target, seed=cfg.seed))
    report["stages"]["absorbing_cycle"] = {
        "seconds": round(time.perf_counter() - t0, 4),
        "family_target": target,
        "success": build.success,
        "cycle_order": build.cycle.cycle.order if build.success else None,
    }
    if not build.success:
        return fail("absorbing_cycle", f"stage {build.failed_stage} exhausted retries")
    ac = build.cycle
    partial["absorbing_cycle"] = ac

    t0 = time.perf_counter()
    on_cycle = set(ac.cycle.vertices)
    keep = [v for v in range(n) if v not in on_cycle]
    if len(keep) < 4:
        return fail("restriction", f"only {len(keep)} vertices left outside the cycle")
    sub, old_ids = induced_subgraph(g, keep)
    report["stages"]["restriction"] = {"seconds": round(time.perf_counter() - t0, 4), "n_rest": sub.n}

    t0 = time.perf_counter()
    path, record, tf = _spanning_path(sub, cfg.seed)
    if tf is not None:
        partial["two_factor"] = tf
    if path is None and sub.n <= _EXACT_PATH_CAP:
        res = exact_pc_ham_path(sub, cfg.budget)
        record["how"] = f"exact:{res.status.value}"
        if res.exists:
            path = DirectedPath(res.certificate.path)
    report["stages"]["ham_path"] = {
        "seconds": round(time.perf_counter() - t0, 4),
        **record,
        "success": path is not None,
    }
    if path is None:
        return fail("ham_path", "no spanning PC path found on the restriction")
    partial["ham_path"] = DirectedPath(tuple(old_ids[v] for v in path.vertices))

    t0 = time.perf_counter()
    tried: dict = {"path_seeds": [], "routes": [], "quads": 0, "rotations": 0}
    try:
        cycle = _steer(g, ac, sub, old_ids, path, cfg.seed, tried)
    except (AbsorptionError, ValueError) as exc:
        return fail("absorb", str(exc))
    report["stages"]["absorb"] = {
        "seconds": round(time.perf_counter() - t0, 4),
        **tried,
        "cycle_order": cycle.order if cycle is not None else None,
    }
    if cycle is None:
        return fail(
            "absorb",
            f"no family member absorbs any of {tried['quads']} end quadruples over path seeds "
            f"{tried['path_seeds']} and {tried['rotations']} end rotations",
        )
    cert = verify_certificate(g, ham_cycle_certificate(cycle))
    if not cert.valid:
        raise RuntimeError(f"pipeline produced an invalid certificate: {cert.reason}")
    return PipelineResult(cert, None, None, report)


def check_constants(eps: float) -> dict:
    """The constants the asymptotic argument would demand at a given epsilon.

    These are reported so users can see why the guaranteed regime is out of
    numerical reach: the absorbing-cycle fraction gamma decays like
    eps^(4/eps^2), so the smallest covered n is astronomically large for any
    epsilon of interest.
    """
    if not (0 < eps < 0.25):
        raise ValueError(f"need 0 < eps < 1/4, got {eps}")
    gamma = 2.0 ** -5 * eps ** (4.0 * eps ** -2 + 2.0)
    # the float may underflow to 0; the log10 form stays informative
    gamma_log10 = -5.0 * math.log10(2.0) + (4.0 * eps ** -2 + 2.0) * math.log10(eps)
    eps_prime = (2.0 * eps - gamma) / (2.0 - 2.0 * gamma)
    depth_cap = math.ceil(1.0 / math.log2(1.0 + eps)) + 1
    join_cap = 2.0 * eps ** -2
    rotation_n0 = math.ceil(11.0 / eps * (math.ceil(1.0 / math.log2(1.0 + eps)) + 3))
    two_factor_n1 = max(math.ceil(1000.0 / (eps * math.log2(1.0 + eps))), rotation_n0)

    def n1_of(e: float) -> int:
        r_n0 = math.ceil(11.0 / e * (math.ceil(1.0 / math.log2(1.0 + e)) + 3))
        return max(math.ceil(1000.0 / (e * math.log2(1.0 + e))), r_n0)

    n0_lower = math.ceil(n1_of(eps_prime) / (1.0 - gamma))
    return {
        "eps": eps,
        "gamma": gamma,
        "gamma_log10": gamma_log10,
        "eps_prime": eps_prime,
        "family_size_fraction": 2.0 ** -7 * eps ** 2,
        "cycle_size_fraction": gamma,
        "join_order_cap": join_cap,
        "endpoint_depth_cap": depth_cap,
        "rotation_expansion_n0": rotation_n0,
        "two_factor_n1": two_factor_n1,
        "absorbing_cycle_n0": None,          # implicit in the argument; no closed form
        "overall_N0_lower_bound": n0_lower,  # from the two-factor side alone
        "note": (
            "the guaranteed regime needs n at least the overall bound; "
            "the absorbing-cycle threshold is implicit and only increases it"
        ),
    }
