"""Command-line front end: generators, verification, solvers, oracles and
lemma-style property harnesses with reproducible seeds and JSON reports.

Exit codes: 0 success / structure exists, 1 failure / does not exist,
2 usage or input error.  PCH_BUDGET_NODES overrides the search budget.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import math
import os
import random
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

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


def _int(text: str, source: str) -> int:
    """`text` read as an integer; a UsageError names `source` when it is not one."""
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {text!r}") from None


def _check_eps(eps: float) -> None:
    """A UsageError unless `eps` is a finite number > 0."""
    if not (eps > 0 and math.isfinite(eps)):
        raise UsageError(f"--eps must be a finite number > 0, got {eps}")


def _budget(args) -> exact.SearchBudget:
    nodes = getattr(args, "budget_nodes", None)
    source = "--budget-nodes"
    if nodes is None:
        env = os.environ.get("PCH_BUDGET_NODES")
        nodes = _int(env, "PCH_BUDGET_NODES") if env else exact.DEFAULT_NODE_LIMIT
        source = "PCH_BUDGET_NODES"
    if nodes < 1:
        raise UsageError(f"{source} must be >= 1, got {nodes}")
    return exact.SearchBudget(node_limit=nodes)


def _instance_meta(g: ColouredComplete) -> dict:
    return {
        "n": g.n,
        "k": g.k,
        "delta_mon": max_mono_degree(g),
        "min_colour_degree": min_colour_degree(g),
    }


def _emit(args, command: str, result: dict, seed: int | None = None,
          instance: dict | None = None, timings: dict | None = None) -> None:
    """Write the command's JSON report."""
    report = {"command": command, "seed": seed, "instance": instance, "result": result, "timings": timings or {}}
    args.write(json.dumps(report, indent=2, default=str) + "\n")


@contextlib.contextmanager
def _output(path: str | None):
    """The writer of a command's output: stdout's, or that of `path`, opened
    before the work so that an unwritable path costs no run.  The write
    replaces the file; a command that raises leaves it as it was, or absent."""
    if not path:
        yield sys.stdout.write
        return
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        def write(text: str) -> None:
            fh.truncate(0)
            fh.write(text)

        try:
            yield write
        except BaseException:
            if new:
                os.remove(path)
            raise


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

# each family's required flags and its builder from the parsed arguments
_FAMILIES = {
    "be": (("k",), lambda a: constructions.bollobas_erdos(a.k)),
    "oriented": (("n",), lambda a: constructions.colouring_from_oriented(constructions.random_tournament(a.n, a.seed))),
    "t2m": (("m",), lambda a: constructions.colouring_from_oriented(constructions.tournament_with_source(a.m))),
    "layered": (("n", "l"), lambda a: constructions.layered_colouring(a.n, a.l)),
    "random": (("n", "dmax"), lambda a: constructions.random_bounded_colouring(a.n, a.dmax, a.seed, colours=a.colours)),
}


def cmd_gen(args) -> int:
    needs, build = _FAMILIES[args.family]
    if any(getattr(args, flag) is None for flag in needs):
        raise UsageError(f"--family {args.family} needs " + " and ".join(f"--{flag}" for flag in needs))
    args.write(graph_to_text(build(args)))
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
    _emit(args, "verify", certificate_to_json(out), instance=_instance_meta(g))
    return EXIT_OK if out.valid else EXIT_FAIL


def _barrier_record(barrier: exact.TutteBarrier | None) -> dict | None:
    """Size of a checked barrier: |S|, the odd components it leaves, and the auxiliary graph's order."""
    if barrier is None:
        return None
    return {"size": barrier.size, "odd_components": barrier.odd_components, "aux_order": barrier.aux_order}


def _oracle_record(res: exact.OracleResult) -> dict:
    return {
        "status": res.status.value,
        "nodes": res.nodes,
        "rows": res.rows,
        "certificate": certificate_to_json(res.certificate) if res.certificate else None,
        "barrier": _barrier_record(res.barrier),
    }


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
        result = _oracle_record(res)
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
    _emit(args, "oracle", result, instance=_instance_meta(g),
          timings={"seconds": round(time.perf_counter() - t0, 6)})
    return code


def cmd_solve(args) -> int:
    if args.method == "rotation" and args.fallback != "none":
        # the rotation search ends with the PC 2-factor test, whose answer is final
        raise UsageError(f"--fallback {args.fallback} applies to --method pipeline only")
    g = _load_graph(args.input)
    t0 = time.perf_counter()
    if args.method == "rotation":
        out = rotations.find_pc_two_factor(g, args.seed)
        result = {
            "success": out.success,
            "certificate": certificate_to_json(out.certificate) if out.certificate else None,
            "stats": out.stats,
            "best_system_order": out.best_system.order if out.best_system else None,
            "barrier": _barrier_record(out.barrier),
        }
        code = EXIT_OK if out.success else EXIT_FAIL
    else:
        budget = _budget(args)  # checked before the run, so a bad budget exits 2 at once
        res = pipeline.run_pipeline(g, pipeline.PipelineConfig(seed=args.seed))
        fallback = None
        if not res.success and args.fallback == "exact":
            fallback = exact.exact_pc_ham_cycle(g, budget)
        result = {
            "success": res.success,
            "certificate": certificate_to_json(res.certificate) if res.certificate else None,
            "failure": asdict(res.failure) if res.failure else None,
            "fallback": _oracle_record(fallback) if fallback is not None else None,
            "report": res.report,
        }
        code = EXIT_OK if res.success or (fallback is not None and fallback.exists) else EXIT_FAIL
    _emit(args, "solve", result, seed=args.seed, instance=_instance_meta(g),
          timings={"seconds": round(time.perf_counter() - t0, 6)})
    return code


def cmd_absorb_check(args) -> int:
    g = _load_graph(args.input)
    eps = args.eps
    _check_eps(eps)
    bound = _count_bound(eps, g.n)
    if args.quads == "all":
        quads = list(itertools.permutations(range(g.n), 4))
    elif args.quads.startswith("sample:"):
        count = _int(args.quads.split(":", 1)[1], "--quads sample size")
        if count < 1:
            raise UsageError(f"--quads sample size must be >= 1, got {count}")
        _check_quads_fit("absorb-check", g.n)
        quads = _sample_quads(g.n, args.seed, count)
    else:
        raise UsageError(f"--quads must be 'all' or 'sample:N', got {args.quads!r}")

    # the build rejects a family too large for n at once, so it goes before the counts
    built = _abscycle_seed(g, args.seed, {"family_size": args.family_size})
    cycle_order, _, family_ok, family_coverage = built or (None,) * 4
    counts = [absorbing.count_absorbing(g, q) for q in quads]
    violations = [
        {"quad": list(q), "count": c} for q, c in zip(quads, counts) if c < bound
    ]
    result = {
        "eps": eps,
        "bound": bound,
        "quads": len(quads),
        "counts": [{"quad": list(q), "count": c} for q, c in zip(quads, counts)],
        "min_count": min(counts) if counts else None,
        "violations": violations,
        "family_ok": family_ok,
        "family_coverage": family_coverage,
        "cycle_order": cycle_order,
    }
    _emit(args, "absorb-check", result, seed=args.seed, instance=_instance_meta(g))
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

# trials per instance of lemma ifar
IFAR_TRIALS = 20


def _ratio(num, den):
    return num / den if den else None


def _ifar_max_len(eps: float) -> int:
    # 2 / eps^2 is at least 8 for eps <= 1/2, where it may also overflow
    return 8 if eps <= 0.5 else int(2 * eps ** -2)


def _count_bound(eps: float, n: int) -> float:
    return eps * eps * n ** 4 / 4


def _check_quads_fit(who: str, n: int) -> None:
    if n < 4:
        raise UsageError(f"{who} samples quadruples, which needs n >= 4, got n = {n}")


def _sample_quads(n: int, seed: int, count: int) -> list[tuple[int, ...]]:
    """`count` ordered quadruples of distinct vertices drawn from random.Random(seed)."""
    rng = random.Random(seed)
    return [tuple(rng.sample(range(n), 4)) for _ in range(count)]


# each lemma is a per-seed function, (instance, seed, params) -> record, and a
# report function, (params, records in seed order) -> report

def _abspath_seed(g, seed: int, params: dict) -> list[int]:
    return [absorbing.count_absorbing(g, q) for q in _sample_quads(g.n, seed, params["quads"])]


def _abspath_report(params: dict, records: list) -> dict:
    n, eps = params["n"], params["eps"]
    bound = _count_bound(eps, n)
    counts = [c for rec in records for c in rec]
    violations = sum(c < bound for c in counts)
    return {
        "n": n, "eps": eps, "dmax": params["dmax"], "bound": bound,
        "instances": len(records), "quads_per_instance": params["quads"],
        "min_count": min(counts, default=None), "violations": violations, "pass": violations == 0,
    }


def _ifar_seed(g, seed: int, params: dict) -> int:
    max_len = _ifar_max_len(params["eps"])
    quads = _sample_quads(g.n, seed, IFAR_TRIALS)
    return sum(absorbing.join_ends(g, *q, max_len=max_len) is not None for q in quads)


def _ifar_report(params: dict, records: list) -> dict:
    trials, succ = IFAR_TRIALS * len(records), sum(records)
    return {
        "n": params["n"], "eps": params["eps"], "dmax": params["dmax"],
        "max_len": _ifar_max_len(params["eps"]), "trials": trials, "successes": succ,
        "rate": _ratio(succ, trials), "pass": succ == trials,
    }


def _2factor_seed(g, seed: int, params: dict) -> tuple[bool, bool, bool]:
    """(oracle finds a 2-factor, the rotation route closes one itself, the search's certificate is invalid)"""
    oracle = exact.exact_pc_two_factor(g)
    heur = rotations.find_pc_two_factor(g, seed)
    invalid = heur.success and not verify_certificate(g, heur.certificate).valid
    return oracle.exists, heur.success and heur.stats.get("closed_via") != "matching", invalid


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
    res = absorbing.build_absorbing_cycle(g, params["family_size"], seed=seed)
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
    "2factor": (_2factor_seed, _2factor_report),
    "abscycle": (_abscycle_seed, _abscycle_report),
}


def _lemma_seed(name: str, params: dict, seed: int):
    g = constructions.random_bounded_colouring(params["n"], params["dmax"], seed)
    return _LEMMAS[name][0](g, seed, params)


def lemma_check(name: str, params: dict) -> dict:
    """Run one lemma-style property suite and aggregate its statistics.

    ``params["seeds"]`` is a number of seeds from 0;
    ``params["dmax"]`` None means ⌊(1/2 - eps)n⌋.  With ``params["jobs"]``
    above 1 the seeds run in consecutive chunks on a process pool of at most
    one worker per CPU; the report is the serial run's either way.
    """
    if name not in _LEMMAS:
        raise UsageError(f"unknown lemma {name!r}; choose from {sorted(_LEMMAS)}")
    eps, dmax, seeds, jobs = params["eps"], params["dmax"], params["seeds"], params["jobs"]
    _check_eps(eps)
    if dmax is None:
        dmax = math.floor((0.5 - eps) * params["n"])
        if dmax < 1:
            raise UsageError(f"the default --dmax ⌊(1/2 - eps)n⌋ is {dmax} for --eps {eps} and --n {params['n']}; "
                             "pass --dmax >= 1 or a smaller --eps")
    elif dmax < 1:
        raise UsageError(f"--dmax must be >= 1, got {dmax}")
    if seeds < 1:
        raise UsageError(f"--seeds must be >= 1, got {seeds}")
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    if params["quads"] < 1:
        raise UsageError(f"--quads must be >= 1, got {params['quads']}")
    if name in ("abspath", "ifar"):
        _check_quads_fit(f"lemma {name}", params["n"])
    seeds = range(seeds)
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
    _emit(args, "lemma-check", out, seed=0)
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
    g.add_argument("--family", required=True, choices=list(_FAMILIES))
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
        with _output(getattr(args, "report", None) or getattr(args, "out", None)) as args.write:
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
    except OSError as exc:
        # a path the user named cannot be read or written
        if exc.filename not in {getattr(args, flag, None) for flag in ("input", "cert", "out", "report")}:
            raise
        print(f"error: {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
