"""Command-line front end: generators, verification, solvers, oracles and
lemma-style property harnesses with reproducible seeds and JSON reports.

Exit codes: 0 success / structure exists, 1 failure / does not exist,
2 usage or input error.  PCH_BUDGET_NODES overrides the search budget.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from pch import absorbing, constructions, exact, pipeline, rotations
from pch.ec_graph import (
    ColouredComplete,
    GraphFormatError,
    certificate_from_json,
    certificate_to_json,
    graph_to_text,
    max_mono_degree,
    min_colour_degree,
    read_graph,
    verify_certificate,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


@dataclass
class RunReport:
    command: str
    seed: int | None = None
    instance: dict | None = None
    result: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _budget(args) -> exact.SearchBudget:
    nodes = getattr(args, "budget_nodes", None)
    if nodes is None:
        env = os.environ.get("PCH_BUDGET_NODES")
        nodes = int(env) if env else exact.DEFAULT_NODE_LIMIT
    return exact.SearchBudget(node_limit=nodes)


def _instance_meta(g: ColouredComplete) -> dict:
    return {
        "n": g.n,
        "k": g.k,
        "delta_mon": max_mono_degree(g),
        "min_colour_degree": min_colour_degree(g),
    }


def _emit(report: RunReport, args) -> None:
    text = json.dumps(report.to_json(), indent=2, default=str)
    path = getattr(args, "report", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


class UsageError(Exception):
    """Usage-level error; main() maps it to exit code 2 with the message."""


def _load_graph(path: str) -> ColouredComplete:
    try:
        return read_graph(path)
    except FileNotFoundError:
        raise UsageError(f"input file not found: {path}")
    except GraphFormatError as exc:
        raise UsageError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    fam = args.family
    seed = args.seed
    if fam == "be":
        if args.k is None:
            raise UsageError("--family be needs --k")
        g = constructions.bollobas_erdos(args.k)
    elif fam == "t2m":
        if args.m is None:
            raise UsageError("--family t2m needs --m")
        og = constructions.tournament_with_source(args.m)
        g = constructions.colouring_from_oriented(og, complete_with="extra")
    elif fam == "oriented":
        if args.n is None:
            raise UsageError("--family oriented needs --n")
        og = constructions.random_tournament(args.n, seed)
        g = constructions.colouring_from_oriented(og, complete_with="extra")
    elif fam == "layered":
        if args.n is None or args.l is None:
            raise UsageError("--family layered needs --n and --l")
        g = constructions.layered_colouring(args.n, args.l)
    elif fam == "random":
        if args.n is None or args.dmax is None:
            raise UsageError("--family random needs --n and --dmax")
        try:
            g = constructions.random_bounded_colouring(args.n, args.dmax, seed, colours=args.colours)
        except constructions.GenerationError as exc:
            print(f"generation failed: {exc}", file=sys.stderr)
            return EXIT_FAIL
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown family {fam}")
    text = graph_to_text(g)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = _load_graph(args.input)
    try:
        with open(args.cert) as fh:
            cert = certificate_from_json(json.load(fh))
    except FileNotFoundError:
        raise UsageError(f"certificate file not found: {args.cert}")
    except (json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"{args.cert}: {exc}")
    out = verify_certificate(g, cert)
    report = RunReport("verify", instance=_instance_meta(g), result=certificate_to_json(out))
    _emit(report, args)
    return EXIT_OK if out.valid else EXIT_FAIL


def cmd_oracle(args) -> int:
    g = _load_graph(args.input)
    budget = _budget(args)
    t0 = time.perf_counter()
    result: dict
    code = EXIT_FAIL
    if args.query in ("hamcycle", "hampath", "twofactor"):
        fn = {
            "hamcycle": exact.exact_pc_ham_cycle,
            "hampath": exact.exact_pc_ham_path,
            "twofactor": exact.exact_pc_two_factor,
        }[args.query]
        res = fn(g, budget)
        result = {
            "status": res.status.value,
            "nodes": res.nodes,
            "rows": res.rows,
            "certificate": certificate_to_json(res.certificate) if res.certificate else None,
        }
        code = EXIT_OK if res.exists else EXIT_FAIL
    else:
        fn = exact.longest_pc_cycle if args.query == "longest-cycle" else exact.longest_pc_path
        res = fn(g, budget)
        result = {
            "value": res.value,
            "exact": res.exact,
            "nodes": res.nodes,
            "rows": res.rows,
            "witness": list(res.witness.vertices) if res.witness else None,
        }
        code = EXIT_OK if res.exact else EXIT_FAIL
    report = RunReport("oracle", instance=_instance_meta(g), result=result,
                       timings={"seconds": round(time.perf_counter() - t0, 4)})
    _emit(report, args)
    return code


def cmd_solve(args) -> int:
    g = _load_graph(args.input)
    t0 = time.perf_counter()
    if args.method == "rotation":
        out = rotations.find_pc_two_factor(g, args.seed)
        result = {
            "success": out.success,
            "certificate": certificate_to_json(out.certificate) if out.certificate else None,
            "stats": out.stats,
            "best_system_order": out.best_system.order if out.best_system else None,
        }
        code = EXIT_OK if out.success else EXIT_FAIL
    else:
        cfg = pipeline.PipelineConfig(seed=args.seed, fallback=args.fallback, budget=_budget(args))
        res = pipeline.run_pipeline(g, cfg)
        result = {
            "success": res.success,
            "certificate": certificate_to_json(res.certificate) if res.certificate else None,
            "failure": asdict(res.failure) if res.failure else None,
            "fallback": (
                {"status": res.fallback_result.status.value}
                if res.fallback_result is not None
                else None
            ),
            "report": res.report,
        }
        if res.success:
            code = EXIT_OK
        elif res.fallback_result is not None and res.fallback_result.exists:
            code = EXIT_OK
        else:
            code = EXIT_FAIL
    report = RunReport("solve", seed=args.seed, instance=_instance_meta(g), result=result,
                       timings={"seconds": round(time.perf_counter() - t0, 4)})
    _emit(report, args)
    return code


def cmd_absorb_check(args) -> int:
    g = _load_graph(args.input)
    eps = args.eps
    bound = eps * eps * g.n ** 4 / 4
    rng = random.Random(args.seed)
    if args.quads == "all":
        import itertools

        quads = list(itertools.permutations(range(g.n), 4))
    elif args.quads.startswith("sample:"):
        count = int(args.quads.split(":", 1)[1])
        if count < 0:
            raise UsageError(f"--quads sample size must be >= 0, got {count}")
        quads = [tuple(rng.sample(range(g.n), 4)) for _ in range(count)]
    else:
        raise UsageError(f"--quads must be 'all' or 'sample:N', got {args.quads!r}")

    counts = [absorbing.count_absorbing(g, q) for q in quads]
    violations = [
        {"quad": list(q), "count": c} for q, c in zip(quads, counts) if c < bound
    ]

    build = absorbing.build_absorbing_cycle(
        g, absorbing.BuildParams(target_size=args.family_size, seed=args.seed)
    )
    family_ok = family_coverage = None
    if build.success:
        family_ok, family_coverage, _ = absorbing.verify_family_universality(g, build.cycle.family)
    report = RunReport(
        "absorb-check",
        seed=args.seed,
        instance=_instance_meta(g),
        result={
            "eps": eps,
            "bound": bound,
            "quads": len(quads),
            "counts": [{"quad": list(q), "count": c} for q, c in zip(quads, counts)],
            "min_count": min(counts) if counts else None,
            "violations": violations,
            "family_ok": family_ok,
            "family_coverage": family_coverage,
            "cycle_order": build.cycle.cycle.order if build.success else None,
        },
    )
    _emit(report, args)
    return EXIT_OK if not violations else EXIT_FAIL


def cmd_constants(args) -> int:
    try:
        out = pipeline.check_constants(args.eps)
    except ValueError as exc:
        raise UsageError(str(exc))
    print(json.dumps(out, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# lemma-style harnesses
# ---------------------------------------------------------------------------

# trials per instance of lemma ifar, and the expansion depth of lemma rotation3
IFAR_TRIALS = 20
ROTATION3_DEPTH = 2


def _ratio(num, den):
    return num / den if den else None


def _ifar_max_len(eps: float) -> int:
    # 2 / eps^2 is at least 8 for eps <= 1/2, where it may also overflow
    return 8 if eps <= 0.5 else int(2 * eps ** -2)


# each lemma is a per-seed function, (instance, seed, params) -> record, and a
# report function, (params, records in seed order) -> report

def _abspath_seed(g, seed: int, params: dict) -> list[int]:
    rng = random.Random(seed)
    return [absorbing.count_absorbing(g, tuple(rng.sample(range(g.n), 4))) for _ in range(params["quads"])]


def _abspath_report(params: dict, records: list) -> dict:
    n, eps = params["n"], params["eps"]
    bound = eps * eps * n ** 4 / 4
    counts = [c for rec in records for c in rec]
    violations = sum(c < bound for c in counts)
    return {
        "n": n, "eps": eps, "dmax": params["dmax"], "bound": bound,
        "instances": len(records), "quads_per_instance": params["quads"],
        "min_count": min(counts, default=None), "violations": violations, "pass": violations == 0,
    }


def _ifar_seed(g, seed: int, params: dict) -> int:
    max_len = _ifar_max_len(params["eps"])
    rng = random.Random(seed)
    succ = 0
    for _ in range(IFAR_TRIALS):
        v1, v2, v1p, v2p = rng.sample(range(g.n), 4)
        succ += absorbing.join_ends(g, v1, v2, v1p, v2p, max_len=max_len) is not None
    return succ


def _ifar_report(params: dict, records: list) -> dict:
    trials, succ = IFAR_TRIALS * len(records), sum(records)
    return {
        "n": params["n"], "eps": params["eps"], "dmax": params["dmax"],
        "max_len": _ifar_max_len(params["eps"]), "trials": trials, "successes": succ,
        "rate": _ratio(succ, trials), "pass": succ == trials,
    }


def _rotation3_seed(g, seed: int, params: dict) -> list[float]:
    sys = rotations.maximal_path_cycle(g, seed=seed)
    res = rotations.expand_endpoint_colours(
        sys, g, rotations.RIGHT, max_depth=ROTATION3_DEPTH, require_spread=g.n >= 20
    )
    sizes = res.layer_sizes()
    return [b / a for a, b in zip(sizes, sizes[1:]) if a]


def _rotation3_report(params: dict, records: list) -> dict:
    ratios = [r for rec in records for r in rec]
    return {
        "n": params["n"], "eps": params["eps"], "dmax": params["dmax"],
        "growth_ratios": ratios, "reference": 1 + params["eps"],
        "note": "probe only: the growth bound assumes maximality and spacing",
        "mean_ratio": _ratio(sum(ratios), len(ratios)),
    }


def _2factor_seed(g, seed: int, params: dict) -> tuple[bool, bool, bool]:
    """(oracle finds a 2-factor, heuristic finds one, heuristic's certificate is invalid)"""
    oracle = exact.exact_pc_two_factor(g)
    heur = rotations.find_pc_two_factor(g, seed)
    invalid = heur.success and not verify_certificate(g, heur.certificate).valid
    return oracle.exists, heur.success, invalid


def _2factor_report(params: dict, records: list) -> dict:
    oracle_yes = sum(o for o, _, _ in records)
    agree = sum(o and h for o, h, _ in records)
    invalid = sum(bad for _, _, bad in records)
    return {
        "n": params["n"], "dmax": params["dmax"], "instances": len(records),
        "oracle_exists": oracle_yes, "heuristic_success": sum(h for _, h, _ in records),
        "agreement": agree, "invalid_certificates": invalid,
        "rate": _ratio(agree, oracle_yes),
        "pass": invalid == 0 and (not oracle_yes or agree / oracle_yes >= 0.9),
    }


def _abscycle_seed(g, seed: int, params: dict) -> tuple | None:
    """(cycle order, order within the size bound, family universal, coverage), or None unbuilt"""
    res = absorbing.build_absorbing_cycle(g, absorbing.BuildParams(params["family_size"], seed=seed))
    if not res.success:
        return None
    order = res.cycle.cycle.order
    ok, coverage, _ = absorbing.verify_family_universality(g, res.cycle.family)
    return order, order <= (4 + absorbing.JOIN_MAX_LEN) * len(res.cycle.family), ok, coverage


def _abscycle_report(params: dict, records: list) -> dict:
    built = [rec for rec in records if rec is not None]
    universal = sum(ok for _, _, ok, _ in built)
    bound_ok = all(within for _, within, _, _ in built)
    return {
        "n": params["n"], "dmax": params["dmax"], "instances": len(records),
        "built": len(built), "universal": universal,
        "orders": [order for order, _, _, _ in built], "coverages": [cov for _, _, _, cov in built],
        "size_bound_ok": bound_ok, "pass": universal > 0 and bound_ok,
    }


_LEMMAS = {
    "abspath": (_abspath_seed, _abspath_report),
    "ifar": (_ifar_seed, _ifar_report),
    "rotation3": (_rotation3_seed, _rotation3_report),
    "2factor": (_2factor_seed, _2factor_report),
    "abscycle": (_abscycle_seed, _abscycle_report),
}


def _lemma_seed(name: str, params: dict, seed: int):
    g = constructions.random_bounded_colouring(params["n"], params["dmax"], seed)
    return _LEMMAS[name][0](g, seed, params)


def lemma_check(name: str, params: dict) -> dict:
    """Run one lemma-style property suite and aggregate its statistics.

    ``params["seeds"]`` is a number of seeds from 0 or a range of seeds;
    ``params["dmax"]`` None means ⌊(1/2 - eps)n⌋.  With ``params["jobs"]``
    above 1 the seeds run in consecutive chunks on a process pool of at most
    one worker per CPU; the report is the serial run's either way.
    """
    if name not in _LEMMAS:
        raise UsageError(f"unknown lemma {name!r}; choose from {sorted(_LEMMAS)}")
    eps, dmax, seeds, jobs = params["eps"], params["dmax"], params["seeds"], params["jobs"]
    if not (eps > 0 and math.isfinite(eps)):
        raise UsageError(f"--eps must be a finite number > 0, got {eps}")
    if dmax is None:
        dmax = int((0.5 - eps) * params["n"])
    elif dmax < 1:
        raise UsageError(f"--dmax must be >= 1, got {dmax}")
    if isinstance(seeds, int) and seeds < 0:
        raise UsageError(f"--seeds must be >= 0, got {seeds}")
    if params["quads"] < 0:
        raise UsageError(f"--quads must be >= 0, got {params['quads']}")
    seeds = range(seeds) if isinstance(seeds, int) else seeds
    params = {**params, "dmax": dmax, "seeds": seeds}
    per_seed = functools.partial(_lemma_seed, name, params)
    if jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(seeds), os.cpu_count() or 1)) as pool:
            records = list(pool.map(per_seed, seeds, chunksize=-(-len(seeds) // jobs)))
    else:
        records = list(map(per_seed, seeds))
    return {"lemma": name, **_LEMMAS[name][1](params, records)}


def cmd_lemma_check(args) -> int:
    params = {
        "n": args.n, "eps": args.eps, "seeds": args.seeds, "quads": args.quads,
        "dmax": args.dmax, "family_size": args.family_size, "jobs": args.jobs,
    }
    out = lemma_check(args.lemma, params)
    report = RunReport("lemma-check", seed=0, result=out)
    _emit(report, args)
    return EXIT_OK if out.get("pass", True) else EXIT_FAIL


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pch",
        description="properly coloured Hamiltonian structures: generators, solvers, oracles",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a colouring family instance")
    g.add_argument("--family", required=True, choices=["be", "oriented", "t2m", "layered", "random"])
    g.add_argument("--k", type=int, help="be: half the monochromatic degree (n = 4k+1)")
    g.add_argument("--m", type=int, help="t2m: half the vertex count (n = 2m)")
    g.add_argument("--n", type=int)
    g.add_argument("--l", type=int, help="layered: hub size")
    g.add_argument("--dmax", type=int, help="random: monochromatic degree cap")
    g.add_argument("--colours", type=int, help="random: palette size (default n)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", help="output path (default stdout)")
    g.set_defaults(fn=cmd_gen)

    v = sub.add_parser("verify", help="verify a certificate against a graph")
    v.add_argument("--input", required=True)
    v.add_argument("--cert", required=True)
    v.add_argument("--report")
    v.set_defaults(fn=cmd_verify)

    o = sub.add_parser("oracle", help="exhaustive small-n searches")
    o.add_argument("--query", required=True,
                   choices=["hamcycle", "hampath", "twofactor", "longest-cycle", "longest-path"])
    o.add_argument("--input", required=True)
    o.add_argument("--budget-nodes", type=int, dest="budget_nodes",
                   help="node budget, spent by DFS nodes and Held-Karp table rows alike; "
                        "the report gives the total as nodes and the table's share as rows")
    o.add_argument("--report")
    o.set_defaults(fn=cmd_oracle)

    s = sub.add_parser("solve", help="rotation 2-factor search or the full pipeline")
    s.add_argument("--method", required=True, choices=["rotation", "pipeline"])
    s.add_argument("--input", required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--fallback", choices=["none", "exact"], default="none")
    s.add_argument("--report")
    s.set_defaults(fn=cmd_solve)

    a = sub.add_parser("absorb-check", help="absorbing-count bound and absorbing-cycle family audit")
    a.add_argument("--input", required=True)
    a.add_argument("--eps", type=float, required=True)
    a.add_argument("--quads", default="sample:50", help="'all' or 'sample:N'")
    a.add_argument("--family-size", type=int, default=3, dest="family_size")
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--report")
    a.set_defaults(fn=cmd_absorb_check)

    l = sub.add_parser("lemma-check", help="run a lemma-style property suite")
    l.add_argument("--lemma", required=True, choices=sorted(_LEMMAS))
    l.add_argument("--n", type=int, default=50)
    l.add_argument("--eps", type=float, default=0.1)
    l.add_argument("--dmax", type=int)
    l.add_argument("--seeds", type=int, default=10)
    l.add_argument("--quads", type=int, default=50)
    l.add_argument("--family-size", type=int, default=3, dest="family_size")
    l.add_argument("--jobs", type=int, default=1)
    l.add_argument("--report")
    l.set_defaults(fn=cmd_lemma_check)

    c = sub.add_parser("constants", help="report the asymptotic constants for an epsilon")
    c.add_argument("--eps", type=float, required=True)
    c.set_defaults(fn=cmd_constants)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except constructions.GenerationError as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        # library preconditions surface as usage errors, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
