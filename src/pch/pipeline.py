"""End-to-end Hamiltonian cycle construction.

Stages: build a small absorbing cycle; delete its vertices; grow a spanning
properly coloured path of the rest; absorb it into the cycle.  Steering tries
the path forward, then reversed, and then a fresh greedy path of each later
path seed the same way, until some member absorbs an end quadruple.
That member takes the path between its second and third vertices unchecked:
``verify_certificate`` is the one full check of the cycle, and an invalid
cycle raises RuntimeError instead of being returned.
The spanning path is the greedy ``maximal_path_cycle`` path, grown inside the
rest in the input's own vertex ids; steering and absorption use the same ids.
A first path that does not span fails the run at ``ham_path``, and a later
seed's path that does not span is skipped.  The paper's route through a PC
2-factor of the rest is not taken: wherever greedy growth stopped short on
the measured generators, the rest had no PC Hamiltonian path at all.
The report's ``ham_path`` record holds the first greedy path's ``order``,
and the ``absorb`` record's ``orders`` that of each later seed's path.
A run returns a verified Hamiltonian cycle or the stage that failed and
why; it asks no exact oracle (``pch solve --fallback exact`` asks one after
a failed run).
The asymptotic constants behind the guarantee are reported by
``check_constants`` rather than enforced: the sizes they demand are far
beyond any instance this code will ever see, so the pipeline runs with
practical parameters and verifies its output instead.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from pch import rotations
from pch.absorbing import _splice, absorbing_member, build_absorbing_cycle
from pch.ec_graph import (
    Certificate,
    ColouredComplete,
    DirectedPath,
    ham_cycle_certificate,
    verify_certificate,
)

# spanning paths offered for absorption per run: on the measured threshold,
# near-BE and few-colour corpus, 20 solve every run that end rotations did
_PATH_SEEDS = 20


@dataclass
class PipelineConfig:
    """How one run is seeded.

    ``seed`` drives the absorbing cycle and the path seeds' greedy growth.
    The sizes are practical constants (family size from n, joins of
    order at most 6), not the ones ``check_constants`` reports for the
    asymptotic argument.
    """

    seed: int = 0


@dataclass
class StageFailure:
    stage: str
    detail: str
    partial: dict = field(default_factory=dict)  # artifacts from completed stages


@dataclass
class PipelineResult:
    certificate: Certificate | None
    failure: StageFailure | None
    report: dict

    @property
    def success(self) -> bool:
        return self.certificate is not None


def _default_family_target(n: int) -> int:
    # leave at least ~n/3 vertices (and >= 6) outside the cycle for the path
    return max(1, min(5, (n - max(6, n // 3)) // 6))


def _steer(g, ac, keep: list[int], first: DirectedPath, seed: int, tried: dict):
    """Absorb a spanning path of the vertices `keep` into `ac`: the cycle, or None.

    Each seed's path (`first` for `seed`; later seeds grow their own) is
    tried forward, then reversed.  The first candidate whose end quadruple
    some member absorbs is spliced into the cycle, unchecked; a later seed's
    path that does not span is skipped.  `tried` records the path seeds, the
    orders of the paths later seeds grew and the end quadruples.
    """
    for i in range(_PATH_SEEDS):
        tried["path_seeds"].append(seed + i)
        path = first
        if i > 0:
            path = rotations.maximal_path_cycle(g, seed + i, keep).path
            tried["orders"].append(path.order)
            if path.order < len(keep):
                continue
        vs = path.vertices
        ends = (vs[0], vs[1], vs[-2], vs[-1])
        # forward, then reversed: the reversed path's end quadruple is the
        # forward one read backwards
        for quad, backwards in ((ends, False), (ends[::-1], True)):
            tried["quads"] += 1
            member = absorbing_member(g, ac, quad)
            if member is not None:
                return _splice(ac, member, vs[::-1] if backwards else vs)
    return None


def run_pipeline(g: ColouredComplete, cfg: PipelineConfig | None = None) -> PipelineResult:
    """A verified PC Hamiltonian cycle of g, or the stage that failed and why.

    An order below 8 is a ValueError.  At orders 8 and 9 the family target
    is 1, so the smallest absorbing cycle, one 4-path closed by a connector
    of order 2, has 6 vertices and leaves at most 3 outside it: a run there
    fails at ``absorbing_cycle`` or at ``restriction``, which needs 4, and
    ``pch solve --method pipeline --fallback exact`` is the route to an
    answer.
    """
    cfg = cfg or PipelineConfig()
    n = g.n
    if n < 8:
        raise ValueError(f"need n >= 8, got {n}")
    report: dict = {"n": n, "stages": {}, "seed": cfg.seed}
    partial: dict = {}

    def fail(stage: str, detail: str) -> PipelineResult:
        report["failed_stage"] = stage
        return PipelineResult(None, StageFailure(stage, detail, dict(partial)), report)

    t0 = time.perf_counter()
    target = _default_family_target(n)
    build = build_absorbing_cycle(g, target, seed=cfg.seed)
    report["stages"]["absorbing_cycle"] = {
        "seconds": round(time.perf_counter() - t0, 6),
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
    report["stages"]["restriction"] = {"seconds": round(time.perf_counter() - t0, 6), "n_rest": len(keep)}

    t0 = time.perf_counter()
    path = rotations.maximal_path_cycle(g, cfg.seed, keep).path
    report["stages"]["ham_path"] = {
        "seconds": round(time.perf_counter() - t0, 6),
        "order": path.order,
        "success": path.order == len(keep),
    }
    if path.order < len(keep):
        return fail("ham_path", f"the greedy path spans {path.order} of the {len(keep)} vertices outside the cycle")
    partial["ham_path"] = path

    t0 = time.perf_counter()
    tried: dict = {"path_seeds": [], "orders": [], "quads": 0}
    cycle = _steer(g, ac, keep, path, cfg.seed, tried)
    report["stages"]["absorb"] = {
        "seconds": round(time.perf_counter() - t0, 6),
        **tried,
        "cycle_order": cycle.order if cycle is not None else None,
    }
    if cycle is None:
        quads, seeds = tried["quads"], tried["path_seeds"]
        return fail("absorb", f"no family member absorbs any of {quads} end quadruples over path seeds {seeds}")
    cert = verify_certificate(g, ham_cycle_certificate(cycle))
    if not cert.valid:
        raise RuntimeError(f"pipeline produced an invalid certificate: {cert.reason}")
    return PipelineResult(cert, None, report)


def _rotation_thresholds(eps: float) -> tuple[int, int]:
    """The orders from which rotation expansion and the 2-factor step hold at
    `eps`; the second is never below the first."""
    rotation_n0 = math.ceil(11.0 / eps * (math.ceil(1.0 / math.log2(1.0 + eps)) + 3))
    return rotation_n0, max(math.ceil(1000.0 / (eps * math.log2(1.0 + eps))), rotation_n0)


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
    rotation_n0, two_factor_n1 = _rotation_thresholds(eps)
    n0_lower = math.ceil(_rotation_thresholds(eps_prime)[1] / (1.0 - gamma))
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
