"""Command-line front end: generators, verification, solvers, oracles and
lemma-style property harnesses with reproducible seeds and JSON reports.

Exit codes: 0 success / structure exists, 1 failure / does not exist,
2 usage or input error.  PCH_BUDGET_NODES overrides the search budget.
"""

from __future__ import annotations

import argparse
import json
import operator
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

def _lemma_abspath(params: dict) -> dict:
    n, eps = params["n"], params["eps"]
    seeds, quads = params["seeds"], params["quads"]
    dmax = params.get("dmax") or int((0.5 - eps) * n)
    bound = eps * eps * n ** 4 / 4
    worst = None
    violations = 0
    for seed in seeds:
        g = constructions.random_bounded_colouring(n, dmax, seed)
        rng = random.Random(seed)
        for _ in range(quads):
            quad = tuple(rng.sample(range(n), 4))
            c = absorbing.count_absorbing(g, quad)
            if worst is None or c < worst:
                worst = c
            if c < bound:
                violations += 1
    return _derived({
        "lemma": "abspath", "n": n, "eps": eps, "dmax": dmax, "bound": bound,
        "instances": len(seeds), "quads_per_instance": quads,
        "min_count": worst, "violations": violations,
    })


def _lemma_ifar(params: dict) -> dict:
    n, eps, seeds = params["n"], params["eps"], params["seeds"]
    dmax = params.get("dmax") or int((0.5 - eps) * n)
    max_len = min(int(2 * eps ** -2), 8)
    trials = params.get("trials", 20)
    succ = 0
    total = 0
    for seed in seeds:
        g = constructions.random_bounded_colouring(n, dmax, seed)
        rng = random.Random(seed)
        for _ in range(trials):
            v1, v2, v1p, v2p = rng.sample(range(n), 4)
            total += 1
            p = absorbing.join_ends(g, v1, v2, v1p, v2p, max_len=max_len)
            if p is not None:
                succ += 1
    return _derived({
        "lemma": "ifar", "n": n, "eps": eps, "dmax": dmax, "max_len": max_len,
        "trials": total, "successes": succ,
    })


def _lemma_rotation3(params: dict) -> dict:
    n, eps, seeds = params["n"], params["eps"], params["seeds"]
    dmax = params.get("dmax") or int((0.5 - eps) * n)
    ratios = []
    for seed in seeds:
        g = constructions.random_bounded_colouring(n, dmax, seed)
        sys = rotations.maximal_path_cycle(g, seed=seed)
        res = rotations.expand_endpoint_colours(
            sys, g, rotations.RIGHT, max_depth=params.get("depth", 2), require_spread=n >= 20
        )
        sizes = res.layer_sizes()
        for a, b in zip(sizes, sizes[1:]):
            if a:
                ratios.append(b / a)
    return _derived({
        "lemma": "rotation3", "n": n, "eps": eps, "dmax": dmax,
        "growth_ratios": ratios, "reference": 1 + eps,
        "note": "probe only: the growth bound assumes maximality and spacing",
    })


def _lemma_2factor(params: dict) -> dict:
    n, eps, seeds = params["n"], params["eps"], params["seeds"]
    dmax = params.get("dmax") or int((0.5 - eps) * n)
    agree = 0
    oracle_yes = 0
    heur_yes = 0
    invalid = 0
    for seed in seeds:
        g = constructions.random_bounded_colouring(n, dmax, seed)
        oracle = exact.exact_pc_two_factor(g)
        heur = rotations.find_pc_two_factor(g, seed)
        if heur.success:
            heur_yes += 1
            if not verify_certificate(g, heur.certificate).valid:
                invalid += 1
        if oracle.exists:
            oracle_yes += 1
            if heur.success:
                agree += 1
    return _derived({
        "lemma": "2factor", "n": n, "dmax": dmax, "instances": len(seeds),
        "oracle_exists": oracle_yes, "heuristic_success": heur_yes,
        "agreement": agree, "invalid_certificates": invalid,
    })


def _lemma_abscycle(params: dict) -> dict:
    n, eps, seeds = params["n"], params["eps"], params["seeds"]
    dmax = params.get("dmax") or int((0.5 - eps) * n)
    target = params.get("family_size", 3)
    join_cap = absorbing.JOIN_MAX_LEN
    built = universal = 0
    orders, coverages = [], []
    bound_ok = True
    for seed in seeds:
        g = constructions.random_bounded_colouring(n, dmax, seed)
        res = absorbing.build_absorbing_cycle(g, absorbing.BuildParams(target, seed=seed))
        if res.success:
            built += 1
            order = res.cycle.cycle.order
            orders.append(order)
            if order > (4 + join_cap) * len(res.cycle.family):
                bound_ok = False
            ok, coverage, _ = absorbing.verify_family_universality(g, res.cycle.family)
            universal += ok
            coverages.append(coverage)
    return _derived({
        "lemma": "abscycle", "n": n, "dmax": dmax, "instances": len(seeds),
        "built": built, "universal": universal, "orders": orders, "coverages": coverages,
        "size_bound_ok": bound_ok,
    })


def _ratio(num, den):
    return num / den if den else None


# the fields of a lemma report computed from its counts
_DERIVED = {
    "abspath": lambda r: {"pass": r["violations"] == 0},
    "ifar": lambda r: {
        "rate": _ratio(r["successes"], r["trials"]), "pass": r["successes"] == r["trials"],
    },
    "rotation3": lambda r: {"mean_ratio": _ratio(sum(r["growth_ratios"]), len(r["growth_ratios"]))},
    "2factor": lambda r: {
        "rate": _ratio(r["agreement"], r["oracle_exists"]),
        "pass": r["invalid_certificates"] == 0
        and (not r["oracle_exists"] or r["agreement"] / r["oracle_exists"] >= 0.9),
    },
    "abscycle": lambda r: {"pass": r["universal"] > 0 and r["size_bound_ok"]},
}


def _derived(report: dict) -> dict:
    return {**report, **_DERIVED[report["lemma"]](report)}


# how lemma-check --jobs combines the reports of its seed chunks: counts add,
# lists concatenate, min_count is the least (None only when no quads ran);
# every other field is copied from the first chunk (n, eps, dmax, bound,
# quads_per_instance, ...) or derived again from the merged counts
_MERGE = {
    "min_count": lambda a, b: a if a is None else min(a, b),
    "size_bound_ok": operator.and_,
    **dict.fromkeys((
        "instances", "violations", "trials", "successes", "oracle_exists", "heuristic_success",
        "agreement", "invalid_certificates", "built", "universal", "orders", "coverages",
        "growth_ratios",
    ), operator.add),
}


def _merge_reports(parts: list[dict]) -> dict:
    out = dict(parts[0])
    for part in parts[1:]:
        for key, rule in _MERGE.items():
            if key in out:
                out[key] = rule(out[key], part[key])
    return _derived(out)


_LEMMAS = {
    "abspath": _lemma_abspath,
    "ifar": _lemma_ifar,
    "rotation3": _lemma_rotation3,
    "2factor": _lemma_2factor,
    "abscycle": _lemma_abscycle,
}


def lemma_check(name: str, params: dict) -> dict:
    """Run one lemma-style property suite and aggregate its statistics.

    ``params["seeds"]`` is a number of seeds from 0 or a range of seeds.
    """
    if name not in _LEMMAS:
        raise UsageError(f"unknown lemma {name!r}; choose from {sorted(_LEMMAS)}")
    seeds = params["seeds"]
    return _LEMMAS[name]({**params, "seeds": range(seeds) if isinstance(seeds, int) else seeds})


def cmd_lemma_check(args) -> int:
    params = {
        "n": args.n, "eps": args.eps, "seeds": args.seeds, "quads": args.quads,
        "dmax": args.dmax, "family_size": args.family_size,
    }
    if args.jobs > 1 and args.seeds > 1:
        # consecutive seed ranges, one per worker
        per = -(-args.seeds // args.jobs)
        chunks = [
            {**params, "seeds": range(s, min(s + per, args.seeds))} for s in range(0, args.seeds, per)
        ]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            out = _merge_reports(list(pool.map(lemma_check, [args.lemma] * len(chunks), chunks)))
    else:
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
