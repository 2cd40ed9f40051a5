import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pch.absorbing import build_absorbing_cycle, verify_family_universality
from pch import absorbing, cli, pipeline
from pch.cli import main
from pch.constructions import (
    bollobas_erdos,
    colouring_from_oriented,
    rainbow,
    random_bounded_colouring,
    random_tournament,
    tournament_with_source,
)
from pch.ec_graph import (
    certificate_from_json,
    certificate_to_json,
    graph_from_text,
    graph_to_text,
    ham_cycle_certificate,
    read_graph,
    verify_certificate,
    write_graph,
)


def run(*argv):
    return main(list(argv))


def test_gen_then_oracle_not_exists(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run("gen", "--family", "be", "--k", "1", "--out", str(gpath)) == 0
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath)) == 1


def test_gen_roundtrip_matches_library(tmp_path):
    gpath = tmp_path / "g.txt"
    assert run("gen", "--family", "layered", "--n", "10", "--l", "3", "--out", str(gpath)) == 0
    g = read_graph(gpath)
    from pch.constructions import layered_colouring

    assert g == layered_colouring(10, 3)


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    run("gen", "--family", "random", "--n", "12", "--dmax", "4", "--seed", "9", "--out", str(a))
    run("gen", "--family", "random", "--n", "12", "--dmax", "4", "--seed", "9", "--out", str(b))
    assert a.read_text() == b.read_text()


def test_verify_valid_and_invalid(tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(5), gpath)
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(certificate_to_json(ham_cycle_certificate((0, 1, 2, 3, 4)))))
    assert run("verify", "--input", str(gpath), "--cert", str(cpath)) == 0
    cpath.write_text(json.dumps({"kind": "HamCycle", "cycles": [[0, 1, 2]], "path": None}))
    assert run("verify", "--input", str(gpath), "--cert", str(cpath)) == 1


def test_verify_one_vertex_graph(tmp_path, capsys):
    # a graph with no edges has max monochromatic degree and min colour degree 0
    gpath, cpath = tmp_path / "g1.txt", tmp_path / "c1.json"
    gpath.write_text("1 1\n")
    cpath.write_text(json.dumps({"kind": "HamPath", "path": [0]}))
    assert run("verify", "--input", str(gpath), "--cert", str(cpath)) == 0
    rep = json.loads(capsys.readouterr().out)
    assert list(rep) == ["command", "seed", "instance", "result", "timings"]
    assert rep["instance"] == {"n": 1, "k": 1, "delta_mon": 0, "min_colour_degree": 0}
    assert rep["result"]["verdict"] == "Valid"


@pytest.mark.parametrize("cycle", [
    [0, 1.5, 4.9, 3, 2],
    [False, True, 4, 3, 2],
    ["0", "1", "4", "3", "2"],
], ids=["floats", "bools", "strings"])
def test_verify_rejects_non_integer_vertices(tmp_path, capsys, cycle):
    # each body would read as the valid cycle (0, 1, 4, 3, 2) if coerced to int
    gpath = tmp_path / "g.txt"
    assert run("gen", "--family", "random", "--n", "5", "--dmax", "4", "--seed", "0",
               "--out", str(gpath)) == 0
    assert verify_certificate(read_graph(gpath), ham_cycle_certificate((0, 1, 4, 3, 2))).valid
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps({"kind": "HamCycle", "cycles": [cycle]}))
    assert run("verify", "--input", str(gpath), "--cert", str(cpath)) == 2
    assert "non-integer vertex" in capsys.readouterr().err


@pytest.mark.parametrize("argv, og", [
    (["--family", "t2m", "--m", "3"], tournament_with_source(3)),
    (["--family", "oriented", "--n", "7", "--seed", "4"], random_tournament(7, 4)),
], ids=["t2m", "oriented"])
def test_gen_oriented_families_write_the_completed_colouring(tmp_path, argv, og):
    gpath = tmp_path / "g.txt"
    assert run("gen", *argv, "--out", str(gpath)) == 0
    text = gpath.read_text()
    assert text == graph_to_text(colouring_from_oriented(og))
    # arc u -> v is coloured v; both families are tournaments, so no pair is
    # left for the fresh colour n and the palette is the n head colours
    g, n = graph_from_text(text), og.n
    heads = {(min(u, v), max(u, v)): v for u, v in og.arcs}
    assert len(heads) == n * (n - 1) // 2
    assert g.k == n
    assert all(g.colour(u, v) == heads.get((u, v), n) for u in range(n) for v in range(u + 1, n))


@pytest.mark.parametrize("argv, message", [
    (["--family", "be"], "--family be needs --k"),
    (["--family", "oriented"], "--family oriented needs --n"),
    (["--family", "t2m", "--n", "6"], "--family t2m needs --m"),
    (["--family", "layered", "--n", "10"], "--family layered needs --n and --l"),
    (["--family", "random", "--dmax", "3"], "--family random needs --n and --dmax"),
], ids=["be", "oriented", "t2m", "layered", "random"])
def test_gen_missing_family_flags_are_usage_errors(capsys, argv, message):
    assert run("gen", *argv) == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_gen_infeasible_random_colouring_fails(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    assert run("gen", "--family", "random", "--n", "5", "--dmax", "1", "--colours", "2", "--out", str(gpath)) == 1
    err = capsys.readouterr().err
    assert err.startswith("generation failed: infeasible")
    assert "Traceback" not in err
    assert not gpath.exists()


def test_malformed_input_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("4 2\n0 1 9\n0 1\n0\n")
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath)) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_input_is_usage_error(tmp_path):
    assert run("oracle", "--query", "hamcycle", "--input", str(tmp_path / "nope.txt")) == 2


def test_missing_certificate_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(5), gpath)
    cpath = tmp_path / "nope.json"
    assert run("verify", "--input", str(gpath), "--cert", str(cpath)) == 2
    assert f"error: certificate file not found: {cpath}\n" in capsys.readouterr().err


@pytest.mark.parametrize("argv, bad, reason", [
    (["gen", "--family", "be", "--k", "1", "--out", "{tmp}/nope/g.txt"], "{tmp}/nope/g.txt", "No such file or directory"),
    (["solve", "--method", "rotation", "--input", "{g}", "--report", "{tmp}/nope/r.json"], "{tmp}/nope/r.json",
     "No such file or directory"),
    (["verify", "--input", "{g}", "--cert", "{tmp}"], "{tmp}", "Is a directory"),
    (["oracle", "--query", "hamcycle", "--input", "{tmp}"], "{tmp}", "Is a directory"),
], ids=["gen-out", "solve-report", "verify-cert", "oracle-input"])
def test_unusable_paths_are_usage_errors(tmp_path, capsys, argv, bad, reason):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(5), gpath)
    fill = {"tmp": tmp_path, "g": gpath}
    assert run(*(arg.format(**fill) for arg in argv)) == 2
    assert capsys.readouterr().err == f"error: {bad.format(**fill)}: {reason}\n"


def _counting_pipeline(monkeypatch, report_path) -> list:
    """Patch the CLI's `run_pipeline` to record, per call, whether
    `report_path` already exists."""
    calls = []
    run_pipeline = pipeline.run_pipeline

    def counting(*args, **kwargs):
        calls.append(report_path.exists())
        return run_pipeline(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_pipeline", counting)
    return calls


def test_an_unwritable_report_costs_no_run(tmp_path, capsys, monkeypatch):
    gpath, rpath = tmp_path / "g.txt", tmp_path / "nope" / "r.json"
    write_graph(rainbow(24), gpath)
    calls = _counting_pipeline(monkeypatch, rpath)
    assert run("solve", "--method", "pipeline", "--input", str(gpath), "--report", str(rpath)) == 2
    assert capsys.readouterr().err == f"error: {rpath}: No such file or directory\n"
    assert calls == []


def _without_seconds(record):
    if isinstance(record, dict):
        return {k: _without_seconds(v) for k, v in record.items() if k != "seconds"}
    return [_without_seconds(v) for v in record] if isinstance(record, list) else record


def test_a_report_is_opened_before_the_run_and_holds_the_printed_json(tmp_path, capsys, monkeypatch):
    gpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    write_graph(rainbow(24), gpath)
    calls = _counting_pipeline(monkeypatch, rpath)
    assert run("solve", "--method", "pipeline", "--input", str(gpath)) == 0
    printed = json.loads(capsys.readouterr().out)
    assert run("solve", "--method", "pipeline", "--input", str(gpath), "--report", str(rpath)) == 0
    assert capsys.readouterr().out == ""
    assert calls == [False, True]
    assert _without_seconds(json.loads(rpath.read_text())) == _without_seconds(printed)


def test_a_failed_command_leaves_its_output_file_as_it_was(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("kept\n")
    assert run("gen", "--family", "random", "--n", "5", "--dmax", "1", "--colours", "2", "--out", str(gpath)) == 1
    assert gpath.read_text() == "kept\n"
    assert run("gen", "--family", "be", "--k", "1", "--out", str(gpath)) == 0
    assert read_graph(gpath) == bollobas_erdos(1)


def test_solve_rotation_rejects_a_fallback(tmp_path, capsys):
    # the rotation search ends with the PC 2-factor test, so nothing is left to fall back on
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(5), gpath)
    assert run("solve", "--method", "rotation", "--fallback", "exact", "--input", str(gpath)) == 2
    assert capsys.readouterr().err == "error: --fallback exact applies to --method pipeline only\n"


def test_unknown_subcommand_usage():
    assert run("frobnicate") == 2


def test_solve_rotation_report(tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(9), gpath)
    rpath = tmp_path / "r.json"
    assert run("solve", "--method", "rotation", "--input", str(gpath), "--seed", "4",
               "--report", str(rpath)) == 0
    rep = json.loads(rpath.read_text())
    assert rep["command"] == "solve"
    assert rep["seed"] == 4
    assert rep["instance"]["n"] == 9
    assert rep["result"]["success"] is True
    assert rep["result"]["certificate"]["kind"] == "TwoFactor"


def test_solve_pipeline_with_fallback(tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(24), gpath)
    rpath = tmp_path / "r.json"
    code = run("solve", "--method", "pipeline", "--input", str(gpath), "--fallback", "exact",
               "--report", str(rpath))
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["result"]["success"] or rep["result"]["fallback"]["status"] == "exists"


def test_solve_pipeline_reports_the_fallback_cycle(tmp_path):
    # n = 8 leaves too few vertices outside the absorbing cycle, so only the
    # exact fallback answers, and its record carries the cycle it found
    gpath, rpath = tmp_path / "g.txt", tmp_path / "r.json"
    run("gen", "--family", "random", "--n", "8", "--dmax", "3", "--colours", "3", "--seed", "0",
        "--out", str(gpath))
    assert run("solve", "--method", "pipeline", "--input", str(gpath), "--seed", "0",
               "--fallback", "exact", "--report", str(rpath)) == 0
    res = json.loads(rpath.read_text())["result"]
    assert res["certificate"] is None and res["failure"]["stage"] == "restriction"
    fb = res["fallback"]
    assert fb["status"] == "exists" and fb["nodes"] >= 1 and fb["rows"] == 0
    cert = verify_certificate(read_graph(gpath), certificate_from_json(fb["certificate"]))
    assert cert.valid and cert.kind == "HamCycle"


def test_readme_cli_examples_parse():
    # every `pch ...` line in the README's sh blocks names real commands and flags
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = [
        line.split("#", 1)[0].split()
        for block in re.findall(r"```sh\n(.*?)```", text, re.S)
        for line in block.splitlines()
        if line.startswith("pch ")
    ]
    assert len(lines) >= 11
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv[1:])


def test_readme_constant_quotes_match_the_code():
    # every "`NAME` = value" in the README is the value of a module constant
    import pkgutil
    from importlib import import_module

    import pch

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quotes = dict(re.findall(r"`([A-Z_][A-Z0-9_]*)` = (\d[\d,]*)", text))
    assert {"_BULK_MIN_PAIRS", "EXPANSION_DEPTH", "EXPANSION_ROTATIONS", "GREEDY_RESTARTS"} <= set(quotes)
    modules = [import_module(f"pch.{m.name}") for m in pkgutil.iter_modules(pch.__path__)]
    for name, value in quotes.items():
        owners = [getattr(m, name) for m in modules if name in vars(m)]
        assert owners, f"README quotes {name}, which no module defines"
        assert all(v == int(value.replace(",", "")) for v in owners), (name, value, owners)


def test_module_runs_as_a_script(tmp_path):
    # `python -m pch.cli` reaches main() through the module's __main__ guard
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}

    def script(*argv):
        return subprocess.run([sys.executable, "-m", "pch.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    out = script("constants", "--eps", "0.1")
    assert out.returncode == 0, out.stderr
    assert isinstance(json.loads(out.stdout), dict)
    gpath = tmp_path / "g.txt"
    write_graph(bollobas_erdos(2), gpath)
    out = script("oracle", "--query", "hamcycle", "--input", str(gpath))
    assert out.returncode == 1, out.stderr
    assert json.loads(out.stdout)["result"]["status"] == "not_exists"


def test_readme_function_names_resolve():
    # every backticked "`name(" in the README names an attribute of a pch
    # submodule, or of a class defined in one (bare or as `Class.name`), or
    # the generator's `random.Random(` and `getrandbits(`
    import inspect
    import pkgutil
    from importlib import import_module

    import pch

    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    calls = set(re.findall(r"`([A-Za-z_][\w.]*)\(", text))
    assert {"find_pc_two_factor", "PathCycleSystem.reverse", "getrandbits"} <= calls
    modules = [import_module(f"pch.{m.name}") for m in pkgutil.iter_modules(pch.__path__)]
    known = {"random.Random", "getrandbits"} | {name for m in modules for name in vars(m)}
    for m in modules:
        for cls in vars(m).values():
            if inspect.isclass(cls) and cls.__module__ == m.__name__:
                known |= {name for attr in dir(cls) for name in (attr, f"{cls.__name__}.{attr}")}
    assert not calls - known, f"README names {sorted(calls - known)}, which the code does not define"


def test_oracle_longest_report(tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(7), gpath)
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "longest-cycle", "--input", str(gpath), "--report", str(rpath)) == 0
    rep = json.loads(rpath.read_text())
    assert rep["result"]["value"] == 7 and rep["result"]["exact"]


def test_oracle_report_counts_table_rows(tmp_path):
    # layered(13, 4) has no PC 2-factor: its longest cycle skips the DFS
    # probe and hands off at once to a table of 14,122 rows, and the report
    # gives the barrier that proved no spanning cycle exists
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "layered", "--n", "13", "--l", "4", "--out", str(gpath))
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "longest-cycle", "--input", str(gpath), "--report", str(rpath)) == 0
    res = json.loads(rpath.read_text())["result"]
    assert (res["value"], res["nodes"], res["rows"]) == (7, 14_122, 14_122)
    assert res["barrier"] == {"size": 39, "odd_components": 45, "aux_order": 130}
    # g + z has none either (one more vertex, joined in 13 new colours): the
    # Hamiltonian path query answers after its probe, and the longest path
    # skips it
    assert run("oracle", "--query", "hampath", "--input", str(gpath), "--report", str(rpath)) == 1
    res = json.loads(rpath.read_text())["result"]
    assert (res["status"], res["nodes"], res["rows"]) == ("not_exists", 676, 0)
    assert res["barrier"] == {"size": 59, "odd_components": 63, "aux_order": 184}
    assert run("oracle", "--query", "longest-path", "--input", str(gpath), "--report", str(rpath)) == 0
    res = json.loads(rpath.read_text())["result"]
    assert (res["value"], res["nodes"], res["rows"]) == (9, 8_099, 8_099)
    assert res["barrier"]["size"] == 59
    # BE(3) has no PC 2-factor: the test after the probe answers, with no
    # table, and the report gives the barrier's size: the 26 b-nodes, whose
    # removal leaves 26 lone ports and the odd red and blue a-circulants
    run("gen", "--family", "be", "--k", "3", "--out", str(gpath))
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--report", str(rpath)) == 1
    res = json.loads(rpath.read_text())["result"]
    assert (res["status"], res["nodes"], res["rows"]) == ("not_exists", 676, 0)
    assert res["barrier"] == {"size": 26, "odd_components": 28, "aux_order": 78}
    assert run("oracle", "--query", "twofactor", "--input", str(gpath), "--report", str(rpath)) == 1
    assert json.loads(rpath.read_text())["result"]["barrier"]["size"] == 26
    assert run("solve", "--method", "rotation", "--input", str(gpath), "--report", str(rpath)) == 1
    res = json.loads(rpath.read_text())["result"]
    assert (res["success"], res["barrier"]["size"]) == (False, 26)
    assert "attempts" not in res["stats"]
    # its spanning path is found by the DFS alone, and a found cycle has no barrier
    assert run("oracle", "--query", "longest-path", "--input", str(gpath), "--report", str(rpath)) == 0
    res = json.loads(rpath.read_text())["result"]
    assert (res["value"], res["nodes"], res["rows"], res["barrier"]) == (13, 88, 0, None)
    run("gen", "--family", "random", "--n", "12", "--dmax", "4", "--seed", "1", "--out", str(gpath))
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--report", str(rpath)) == 0
    assert json.loads(rpath.read_text())["result"]["barrier"] is None


def test_budget_flag_bounds_oracle_and_fallback(tmp_path):
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "be", "--k", "2", "--out", str(gpath))
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--budget-nodes", "5",
               "--report", str(rpath)) == 1
    assert json.loads(rpath.read_text())["result"]["status"] == "exhausted"
    # pch solve's exact fallback takes the same flag
    assert run("solve", "--method", "pipeline", "--fallback", "exact", "--budget-nodes", "5",
               "--input", str(gpath), "--report", str(rpath)) == 1
    assert json.loads(rpath.read_text())["result"]["fallback"]["status"] == "exhausted"


def test_budget_below_one_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "be", "--k", "2", "--out", str(gpath))
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--budget-nodes", "-3") == 2
    assert "--budget-nodes must be >= 1, got -3" in capsys.readouterr().err


def test_solve_budget_below_one_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "be", "--k", "2", "--out", str(gpath))
    assert run("solve", "--method", "pipeline", "--input", str(gpath), "--budget-nodes", "0") == 2
    assert "--budget-nodes must be >= 1, got 0" in capsys.readouterr().err


def test_absorb_check(tmp_path):
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "random", "--n", "30", "--dmax", "12", "--seed", "2", "--out", str(gpath))
    rpath = tmp_path / "r.json"
    code = run("absorb-check", "--input", str(gpath), "--eps", "0.1", "--quads", "sample:10",
               "--seed", "2", "--report", str(rpath))
    rep = json.loads(rpath.read_text())
    assert rep["result"]["bound"] == pytest.approx(0.01 * 30 ** 4 / 4)
    assert code in (0, 1)
    assert rep["result"]["min_count"] is not None
    # the family audit is of the cycle the command built, not of another sample
    g = read_graph(gpath)
    build = build_absorbing_cycle(g, 3, seed=2)
    assert build.success
    off = [v for v in range(g.n) if v not in build.cycle.cycle.vertices]
    ok, coverage, _ = verify_family_universality(g, build.cycle.family, off)
    assert rep["result"]["cycle_order"] == build.cycle.cycle.order
    assert (rep["result"]["family_ok"], rep["result"]["family_coverage"]) == (ok, coverage)


def test_absorb_check_rejects_a_family_too_large_before_counting(tmp_path, monkeypatch, capsys):
    # rainbow(11) holds no family of 3 disjoint 4-paths and an absorbing
    # cycle, which the command says before it counts any of its 7,920
    # quadruples
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(11), gpath)

    def no_count(*args):
        raise AssertionError("counted a quadruple")

    monkeypatch.setattr(absorbing, "count_absorbing", no_count)
    assert run("absorb-check", "--input", str(gpath), "--eps", "0.1", "--quads", "all") == 2
    assert "n=11 too small for a family of 3 disjoint 4-paths" in capsys.readouterr().err


def test_lemma_check_2factor_small(tmp_path):
    rpath = tmp_path / "r.json"
    code = run("lemma-check", "--lemma", "2factor", "--n", "9", "--dmax", "3",
               "--seeds", "4", "--report", str(rpath))
    rep = json.loads(rpath.read_text())
    assert rep["result"]["instances"] == 4
    assert rep["result"]["invalid_certificates"] == 0
    assert code in (0, 1)


@pytest.mark.parametrize("lemma, n", [("2factor", 9), ("abscycle", 30)])
def test_lemma_check_defaults_dmax_from_eps(tmp_path, capsys, lemma, n):
    rpath = tmp_path / f"{lemma}.json"
    code = run("lemma-check", "--lemma", lemma, "--n", str(n), "--eps", "0.1", "--seeds", "2",
               "--report", str(rpath))
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(rpath.read_text())["result"]["dmax"] == int((0.5 - 0.1) * n)


def test_lemma_check_unknown_is_usage_error():
    assert run("lemma-check", "--lemma", "nope") == 2
    assert run("lemma-check", "--lemma", "rotation3") == 2
    # the library entry point checks the name itself, past argparse's choices
    with pytest.raises(cli.UsageError, match="unknown lemma 'nope'"):
        cli.lemma_check("nope", {"eps": 0.1, "dmax": None, "seeds": 1, "jobs": 1})


def test_abscycle_seed_records_nothing_for_an_unbuilt_cycle(monkeypatch):
    monkeypatch.setattr(absorbing, "build_absorbing_cycle", lambda g, size, seed: absorbing.BuildResult(None, "family"))
    assert cli._abscycle_seed(rainbow(20), 0, {"family_size": 3}) is None


def test_constants_command(capsys):
    assert run("constants", "--eps", "0.1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["endpoint_depth_cap"] == 9
    assert run("constants", "--eps", "0.3") == 2


def test_lemma_check_all_harnesses_smoke(tmp_path):
    cases = [
        ("abspath", ["--n", "20", "--dmax", "7", "--seeds", "2", "--quads", "5"]),
        ("ifar", ["--n", "16", "--dmax", "6", "--seeds", "2"]),
        ("abscycle", ["--n", "30", "--dmax", "11", "--seeds", "2"]),
    ]
    for lemma, extra in cases:
        rpath = tmp_path / f"{lemma}.json"
        code = run("lemma-check", "--lemma", lemma, *extra, "--report", str(rpath))
        rep = json.loads(rpath.read_text())
        assert rep["result"]["lemma"] == lemma
        assert code in (0, 1)


def test_lemma_check_parallel_jobs(tmp_path):
    rpath = tmp_path / "r.json"
    code = run("lemma-check", "--lemma", "2factor", "--n", "9", "--dmax", "3",
               "--seeds", "4", "--jobs", "2", "--report", str(rpath))
    rep = json.loads(rpath.read_text())
    assert rep["result"]["instances"] == 4
    assert code in (0, 1)


@pytest.mark.parametrize("lemma,extra", [
    ("abspath", ["--n", "20", "--dmax", "7", "--quads", "5"]),
    ("ifar", ["--n", "16", "--dmax", "6"]),
    ("abscycle", ["--n", "30", "--dmax", "12"]),
    ("2factor", ["--n", "9", "--dmax", "3"]),
])
def test_lemma_check_jobs_match_serial(tmp_path, lemma, extra):
    results = []
    for jobs in ("1", "2"):
        rpath = tmp_path / f"{lemma}-{jobs}.json"
        run("lemma-check", "--lemma", lemma, *extra, "--seeds", "5", "--jobs", jobs,
            "--report", str(rpath))
        results.append(json.loads(rpath.read_text())["result"])
    assert results[1] == results[0]


def test_lemma_check_jobs_pool_is_capped_at_cpu_count(monkeypatch):
    seen = {}

    class FakePool:
        def __init__(self, max_workers):
            seen["max_workers"] = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, seeds, chunksize):
            seen["chunksize"] = chunksize
            return map(fn, seeds)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    params = {"n": 16, "eps": 0.1, "dmax": 6, "seeds": 8, "quads": 5, "family_size": 3}
    serial = cli.lemma_check("ifar", {**params, "jobs": 1})
    assert seen == {}
    assert cli.lemma_check("ifar", {**params, "jobs": 5000}) == serial
    assert seen == {"max_workers": 2, "chunksize": 1}
    assert cli.lemma_check("ifar", {**params, "jobs": 3}) == serial
    assert seen == {"max_workers": 2, "chunksize": 3}


@pytest.mark.parametrize("lemma, bad", [
    ("2factor", ["--dmax", "0"]),
    ("abspath", ["--dmax", "-3"]),
    ("ifar", ["--eps", "0"]),
    ("abscycle", ["--eps", "-0.1"]),
])
def test_lemma_check_rejects_bad_dmax_and_eps(capsys, lemma, bad):
    assert run("lemma-check", "--lemma", lemma, "--n", "9", "--seeds", "2", *bad) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "error:" in err


def test_lemma_check_ifar_tiny_eps(tmp_path, capsys):
    rpath = tmp_path / "ifar.json"
    code = run("lemma-check", "--lemma", "ifar", "--n", "9", "--dmax", "3", "--seeds", "1",
               "--eps", "1e-200", "--report", str(rpath))
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err
    assert json.loads(rpath.read_text())["result"]["max_len"] == 8


@pytest.mark.parametrize("argv, message", [
    (["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "-2"],
     "--seeds must be >= 1, got -2"),
    (["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "1", "--quads", "-4"],
     "--quads must be >= 1, got -4"),
    (["absorb-check", "--eps", "0.1", "--quads", "sample:-3"],
     "--quads sample size must be >= 1, got -3"),
    # counts that are no integers at all name their source too
    (["absorb-check", "--eps", "0.1", "--quads", "sample:x"],
     "--quads sample size must be an integer, got 'x'"),
    # argparse rejects a budget that is no integer
    (["oracle", "--query", "hamcycle", "--budget-nodes", "abc"],
     "argument --budget-nodes: invalid int value: 'abc'"),
    # absorb-check takes an eps as lemma-check does
    (["absorb-check", "--eps", "nan", "--quads", "sample:1"],
     "--eps must be a finite number > 0, got nan"),
    (["absorb-check", "--eps", "0", "--quads", "sample:1"],
     "--eps must be a finite number > 0, got 0.0"),
    (["absorb-check", "--eps", "-0.1", "--quads", "sample:1"],
     "--eps must be a finite number > 0, got -0.1"),
    (["absorb-check", "--eps", "0.1", "--quads", "bogus"],
     "--quads must be 'all' or 'sample:N', got 'bogus'"),
    # a job count below 1 is no serial run
    (["lemma-check", "--lemma", "ifar", "--n", "9", "--dmax", "3", "--seeds", "1", "--jobs", "0"],
     "--jobs must be >= 1, got 0"),
    (["lemma-check", "--lemma", "ifar", "--n", "9", "--dmax", "3", "--seeds", "1", "--jobs", "-3"],
     "--jobs must be >= 1, got -3"),
], ids=["seeds", "quads", "absorb-sample", "absorb-sample-text", "budget-text",
        "absorb-eps-nan", "absorb-eps-zero", "absorb-eps-negative", "absorb-quads-text", "jobs-zero", "jobs"])
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv, message):
    if argv[0] != "lemma-check":
        gpath = tmp_path / "g.txt"
        write_graph(rainbow(9), gpath)
        argv = argv + ["--input", str(gpath)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


@pytest.mark.parametrize("argv, message", [
    (["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["lemma-check", "--lemma", "ifar", "--n", "9", "--dmax", "3", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["lemma-check", "--lemma", "2factor", "--n", "9", "--dmax", "3", "--seeds", "0"], "--seeds must be >= 1, got 0"),
    (["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "1", "--quads", "0"],
     "--quads must be >= 1, got 0"),
    (["absorb-check", "--eps", "0.1", "--quads", "sample:0"], "--quads sample size must be >= 1, got 0"),
], ids=["abspath-seeds", "ifar-seeds", "2factor-seeds", "abspath-quads", "absorb-sample"])
def test_checks_over_nothing_are_usage_errors(tmp_path, capsys, argv, message):
    # a check with no seeds or no quadruples would pass with no evidence
    if argv[0] == "absorb-check":
        gpath = tmp_path / "g.txt"
        write_graph(rainbow(9), gpath)
        argv = argv + ["--input", str(gpath)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert message in err


def test_lemma_check_names_the_flags_behind_a_default_dmax_below_one(capsys):
    # (1/2 - 0.6) * 10 is below 1, so the default dmax cannot colour anything
    assert run("lemma-check", "--lemma", "ifar", "--n", "10", "--eps", "0.6") == 2
    err = capsys.readouterr().err
    assert "--eps" in err and "--dmax" in err
    assert "need dmax" not in err


@pytest.mark.parametrize("argv", [
    ["lemma-check", "--lemma", "abspath", "--n", "3", "--dmax", "1", "--seeds", "1"],
    ["absorb-check", "--eps", "0.1", "--quads", "sample:2"],
    ["lemma-check", "--lemma", "ifar", "--n", "3"],
], ids=["lemma-check", "absorb-check", "lemma-check-ifar"])
def test_quadruples_on_fewer_than_four_vertices_are_usage_errors(tmp_path, capsys, argv):
    if argv[0] == "absorb-check":
        gpath = tmp_path / "g.txt"
        write_graph(rainbow(3), gpath)
        argv = argv + ["--input", str(gpath)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "needs n >= 4, got n = 3" in err
    assert "Sample larger" not in err


@pytest.mark.parametrize("argv", [
    ["lemma-check", "--lemma", "abscycle", "--n", "30", "--seeds", "1"],
    ["absorb-check", "--eps", "0.1", "--quads", "sample:1"],
], ids=["lemma-check", "absorb-check"])
def test_family_size_below_one_is_a_usage_error(tmp_path, capsys, argv):
    if argv[0] == "absorb-check":
        gpath = tmp_path / "g.txt"
        write_graph(rainbow(30), gpath)
        argv = argv + ["--input", str(gpath)]
    assert run(*argv, "--family-size", "0") == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "family size must be >= 1, got 0" in err


def test_lemma_check_abscycle_audits_what_it_builds(tmp_path):
    rpath = tmp_path / "abscycle.json"
    code = run("lemma-check", "--lemma", "abscycle", "--n", "30", "--dmax", "12",
               "--seeds", "3", "--report", str(rpath))
    rep = json.loads(rpath.read_text())["result"]
    audits = []
    for seed in range(3):
        g = random_bounded_colouring(30, 12, seed)
        build = build_absorbing_cycle(g, 3, seed=seed)
        if build.success:
            off = [v for v in range(30) if v not in build.cycle.cycle.vertices]
            audits.append(verify_family_universality(g, build.cycle.family, off))
    assert rep["built"] == len(audits) > 0
    assert rep["universal"] == sum(ok for ok, _, _ in audits)
    assert rep["coverages"] == [coverage for _, coverage, _ in audits]
    assert rep["pass"] == (rep["universal"] > 0 and rep["size_bound_ok"])
    assert code == (0 if rep["pass"] else 1)


def test_lemma_check_abscycle_audits_the_vertices_off_the_cycle(tmp_path):
    # seed 1's family absorbs every quadruple of the 12 vertices off its
    # 18-vertex cycle, though not every one of the 18 vertices off its members
    rpath = tmp_path / "abscycle.json"
    code = run("lemma-check", "--lemma", "abscycle", "--n", "30", "--dmax", "12",
               "--seeds", "2", "--report", str(rpath))
    rep = json.loads(rpath.read_text())["result"]
    assert (rep["built"], rep["orders"], rep["universal"]) == (2, [18, 18], 1)
    assert rep["coverages"][1] == 1.0
    assert rep["pass"] is True and code == 0
    g = random_bounded_colouring(30, 12, 1)
    assert not verify_family_universality(g, build_absorbing_cycle(g, 3, seed=1).cycle.family)[0]


def test_lemma_check_abspath_at_contract_scale(tmp_path):
    rpath = tmp_path / "abspath.json"
    code = run("lemma-check", "--lemma", "abspath", "--n", "50", "--eps", "0.1",
               "--seeds", "10", "--quads", "50", "--report", str(rpath))
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["result"]["pass"] is True
    assert rep["result"]["violations"] == 0
    assert rep["result"]["min_count"] >= 15625
