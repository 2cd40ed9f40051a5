import json

import pytest

from pch.absorbing import BuildParams, build_absorbing_cycle, verify_family_universality
from pch import cli
from pch.cli import main
from pch.constructions import rainbow, random_bounded_colouring
from pch.ec_graph import certificate_to_json, ham_cycle_certificate, read_graph, write_graph


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


def test_malformed_input_is_usage_error(tmp_path, capsys):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("4 2\n0 1 9\n0 1\n0\n")
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath)) == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_missing_input_is_usage_error(tmp_path):
    assert run("oracle", "--query", "hamcycle", "--input", str(tmp_path / "nope.txt")) == 2


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


def test_oracle_longest_report(tmp_path):
    gpath = tmp_path / "g.txt"
    write_graph(rainbow(7), gpath)
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "longest-cycle", "--input", str(gpath), "--report", str(rpath)) == 0
    rep = json.loads(rpath.read_text())
    assert rep["result"]["value"] == 7 and rep["result"]["exact"]


def test_oracle_report_counts_table_rows(tmp_path):
    # BE(3) hands off after 512 DFS nodes to a table of 4,096 rows
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "be", "--k", "3", "--out", str(gpath))
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--report", str(rpath)) == 1
    res = json.loads(rpath.read_text())["result"]
    assert (res["status"], res["nodes"], res["rows"]) == ("not_exists", 4_608, 4_096)
    # its spanning path is found by the DFS alone
    assert run("oracle", "--query", "longest-path", "--input", str(gpath), "--report", str(rpath)) == 0
    res = json.loads(rpath.read_text())["result"]
    assert (res["value"], res["nodes"], res["rows"]) == (13, 88, 0)


def test_budget_env_override(tmp_path, monkeypatch):
    gpath = tmp_path / "g.txt"
    run("gen", "--family", "be", "--k", "2", "--out", str(gpath))
    monkeypatch.setenv("PCH_BUDGET_NODES", "5")
    rpath = tmp_path / "r.json"
    assert run("oracle", "--query", "hamcycle", "--input", str(gpath), "--report", str(rpath)) == 1
    assert json.loads(rpath.read_text())["result"]["status"] == "exhausted"
    # the pipeline's exact fallback spends the same budget
    assert run("solve", "--method", "pipeline", "--fallback", "exact",
               "--input", str(gpath), "--report", str(rpath)) == 1
    assert json.loads(rpath.read_text())["result"]["fallback"]["status"] == "exhausted"


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
    build = build_absorbing_cycle(g, BuildParams(target_size=3, seed=2))
    assert build.success
    ok, coverage, _ = verify_family_universality(g, build.cycle.family)
    assert rep["result"]["cycle_order"] == build.cycle.cycle.order
    assert (rep["result"]["family_ok"], rep["result"]["family_coverage"]) == (ok, coverage)


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


def test_constants_command(capsys):
    assert run("constants", "--eps", "0.1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["endpoint_depth_cap"] == 9
    assert run("constants", "--eps", "0.3") == 2


def test_lemma_check_all_harnesses_smoke(tmp_path):
    cases = [
        ("abspath", ["--n", "20", "--dmax", "7", "--seeds", "2", "--quads", "5"]),
        ("ifar", ["--n", "16", "--dmax", "6", "--seeds", "2"]),
        ("rotation3", ["--n", "16", "--dmax", "6", "--seeds", "2"]),
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
    ("rotation3", ["--n", "16", "--dmax", "6"]),
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


@pytest.mark.parametrize("argv", [
    ["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "-2"],
    ["lemma-check", "--lemma", "abspath", "--n", "9", "--dmax", "3", "--seeds", "1", "--quads", "-4"],
    ["absorb-check", "--eps", "0.1", "--quads", "sample:-3"],
], ids=["seeds", "quads", "absorb-sample"])
def test_negative_counts_are_usage_errors(tmp_path, capsys, argv):
    if argv[0] == "absorb-check":
        gpath = tmp_path / "g.txt"
        write_graph(rainbow(9), gpath)
        argv = argv + ["--input", str(gpath)]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "must be >= 0" in err


def test_lemma_check_abscycle_audits_what_it_builds(tmp_path):
    rpath = tmp_path / "abscycle.json"
    code = run("lemma-check", "--lemma", "abscycle", "--n", "30", "--dmax", "12",
               "--seeds", "3", "--report", str(rpath))
    rep = json.loads(rpath.read_text())["result"]
    audits = []
    for seed in range(3):
        g = random_bounded_colouring(30, 12, seed)
        build = build_absorbing_cycle(g, BuildParams(3, seed=seed))
        if build.success:
            audits.append(verify_family_universality(g, build.cycle.family))
    assert rep["built"] == len(audits) > 0
    assert rep["universal"] == sum(ok for ok, _, _ in audits)
    assert rep["coverages"] == [coverage for _, coverage, _ in audits]
    assert rep["pass"] == (rep["universal"] > 0 and rep["size_bound_ok"])
    assert code == (0 if rep["pass"] else 1)


def test_lemma_check_abspath_at_contract_scale(tmp_path):
    rpath = tmp_path / "abspath.json"
    code = run("lemma-check", "--lemma", "abspath", "--n", "50", "--eps", "0.1",
               "--seeds", "10", "--quads", "50", "--report", str(rpath))
    assert code == 0
    rep = json.loads(rpath.read_text())
    assert rep["result"]["pass"] is True
    assert rep["result"]["violations"] == 0
    assert rep["result"]["min_count"] >= 15625
