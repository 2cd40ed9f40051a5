from dataclasses import replace

import pytest

import pch.absorbing
import pch.pipeline
import pch.rotations
from pch.constructions import monochromatic, near_bollobas_erdos, rainbow, random_bounded_colouring
from pch.ec_graph import VERDICT_INVALID, DirectedPath, max_mono_degree, induced_subgraph, verify_certificate
from pch.exact import exact_pc_ham_cycle
from pch.pipeline import PipelineConfig, check_constants, run_pipeline
from pch.rotations import find_pc_two_factor, maximal_path_cycle


def test_rainbow_succeeds_and_verifies():
    res = run_pipeline(rainbow(30))
    assert res.success
    assert res.certificate.valid
    assert res.certificate.covered_vertices() == set(range(30))


def test_invalid_certificate_raises(monkeypatch):
    monkeypatch.setattr(
        pch.pipeline, "verify_certificate", lambda g, cert: replace(cert, verdict=VERDICT_INVALID, reason="forced")
    )
    with pytest.raises(RuntimeError, match="forced"):
        run_pipeline(rainbow(30))


def test_monochromatic_fails_with_exact_fallback():
    res = run_pipeline(monochromatic(30), PipelineConfig(fallback="exact", seed=1))
    assert not res.success
    assert res.failure.stage == "absorbing_cycle"
    assert res.fallback_result is not None
    assert not res.fallback_result.exists


def test_random_instances_successes_verify():
    successes = 0
    for seed in range(6):
        g = random_bounded_colouring(36, 13, seed)
        res = run_pipeline(g, PipelineConfig(seed=seed))
        if res.success:
            successes += 1
            cert = verify_certificate(g, res.certificate)
            assert cert.valid
            assert cert.covered_vertices() == set(range(36))
    assert successes >= 3  # colour-rich instances should mostly go through


def test_verdict_agreement_with_exact_small_n():
    for seed in range(8):
        g = random_bounded_colouring(10, 4, seed, colours=5)
        res = run_pipeline(g, PipelineConfig(seed=seed, fallback="exact"))
        verdict = res.success or (res.fallback_result is not None and res.fallback_result.exists)
        assert verdict == exact_pc_ham_cycle(g).exists


def test_restriction_mono_degree_monotone():
    for seed in range(5):
        g = random_bounded_colouring(20, 8, seed)
        sub, _ = induced_subgraph(g, range(5, 20))
        assert max_mono_degree(sub) <= max_mono_degree(g)


def test_pipeline_rejects_tiny_n():
    with pytest.raises(ValueError):
        run_pipeline(rainbow(7))


def test_check_constants_examples():
    out = check_constants(0.1)
    assert out["endpoint_depth_cap"] == 9
    assert out["join_order_cap"] == pytest.approx(200.0)
    # eps' formula: (2 eps - gamma) / (2 - 2 gamma); gamma underflows at 0.1
    assert out["eps_prime"] == pytest.approx(0.1)
    assert out["gamma_log10"] < -400
    assert out["two_factor_n1"] >= out["rotation_expansion_n0"]


def test_check_constants_gamma_formula():
    # at eps = 0.2 the float survives: 2^-5 * 0.2^(4 * 25 + 2)
    out = check_constants(0.2)
    assert out["gamma"] == pytest.approx(2.0 ** -5 * 0.2 ** 102)
    # the quarter-threshold value itself is outside the domain but its formula
    # value is astronomically small
    assert 2.0 ** -5 * 0.25 ** 66 < 1e-40


def test_check_constants_domain():
    for bad in (0.0, 0.25, 0.3, -0.1):
        with pytest.raises(ValueError):
            check_constants(bad)


def _record_two_factor_calls(monkeypatch) -> list:
    """Route every 2-factor search through a wrapper that keeps its outcomes."""
    outcomes = []

    def counting(g, seed=0):
        outcomes.append(find_pc_two_factor(g, seed))
        return outcomes[-1]

    monkeypatch.setattr(pch.pipeline, "find_pc_two_factor", counting)
    monkeypatch.setattr(pch.rotations, "find_pc_two_factor", counting)
    return outcomes


def test_report_contains_stage_records():
    res = run_pipeline(rainbow(30), PipelineConfig(seed=3))
    assert res.success
    stages = res.report["stages"]
    assert list(stages) == ["absorbing_cycle", "restriction", "ham_path", "absorb"]
    for record in stages.values():
        assert record["seconds"] >= 0
    assert stages["ham_path"]["how"] == "greedy"
    assert stages["ham_path"]["success"]


def test_pipeline_runs_one_two_factor_search(monkeypatch):
    # at most one, and none at all when the greedy path spans
    outcomes = _record_two_factor_calls(monkeypatch)
    for g, seed in (
        (rainbow(30), 3),
        (random_bounded_colouring(160, 72, 0, colours=3), 0),
        (near_bollobas_erdos(80, 6), 6),
    ):
        res = run_pipeline(g, PipelineConfig(seed=seed))
        assert res.success
        assert res.report["stages"]["ham_path"]["how"] == "greedy"
    assert outcomes == []


def test_short_greedy_path_falls_back_to_the_two_factor_route(monkeypatch):
    # greedy growth that stops one vertex short of the restriction, once
    outcomes = _record_two_factor_calls(monkeypatch)
    calls = []

    def one_short(*args, **kwargs):
        sys = maximal_path_cycle(*args, **kwargs)
        calls.append(args)
        if len(calls) == 1:
            sys = replace(sys, path=DirectedPath(sys.path.vertices[:-1]))
        return sys

    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", one_short)
    g = rainbow(30)
    res = run_pipeline(g, PipelineConfig(seed=3))
    _assert_solved(g, res)
    record = res.report["stages"]["ham_path"]
    [tf] = outcomes
    assert tf.success
    assert record["how"] == "two_factor"
    assert record["attempts"] == tf.stats["attempts"] >= 1
    assert record["rotations"] == tf.stats["rotations"]
    assert record["closed_via"] == tf.stats.get("closed_via", "immediate")


@pytest.mark.parametrize("make, seed", [
    pytest.param(lambda: rainbow(30), 3, id="rainbow30"),
    pytest.param(lambda: random_bounded_colouring(160, 72, 0, colours=3), 0, id="three-colour160"),
])
def test_pipeline_builds_one_maximal_path_cycle(monkeypatch, make, seed):
    # the 2-factor search starts from one; opening its first cycle needs no other
    g = make()
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return maximal_path_cycle(*args, **kwargs)

    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", counting)
    assert run_pipeline(g, PipelineConfig(seed=seed)).success
    assert len(calls) == 1


def _assert_solved(g, res):
    assert res.success, res.failure
    cert = verify_certificate(g, res.certificate)
    assert cert.valid
    assert cert.covered_vertices() == set(range(g.n))


@pytest.mark.parametrize("seed", range(3))
def test_few_colours_solved(seed):
    # three colours at n = 160: the universal-family demand failed every seed
    g = random_bounded_colouring(160, 72, seed, colours=3)
    _assert_solved(g, run_pipeline(g, PipelineConfig(seed=seed)))


@pytest.mark.parametrize("k", [10, 20, 40])
def test_near_threshold_solved(k):
    # max monochromatic degree floor(n/2) - 1, the conjecture's threshold
    for seed in range(4):
        g = near_bollobas_erdos(k, seed)
        _assert_solved(g, run_pipeline(g, PipelineConfig(seed=seed)))


def test_unabsorbed_path_fails_at_absorb_with_what_was_tried(monkeypatch):
    monkeypatch.setattr(pch.absorbing, "is_absorbing", lambda g, quad, mb: False)
    g = random_bounded_colouring(40, 14, 1)
    res = run_pipeline(g, PipelineConfig(seed=1))
    assert not res.success
    assert res.failure.stage == res.report["failed_stage"] == "absorb"
    # the greedy path spanned, so no 2-factor outcome is kept
    assert res.report["stages"]["ham_path"]["how"] == "greedy"
    assert "two_factor" not in res.failure.partial
    tried = res.report["stages"]["absorb"]
    assert tried["path_seeds"] == [1, 2, 3]
    assert tried["rotations"] > 0
    # every path and every rotated path, each forward and reversed
    assert tried["quads"] > 2 * len(tried["path_seeds"])
    assert tried["cycle_order"] is None
    assert f"{tried['quads']} end quadruples" in res.failure.detail


def test_later_path_seeds_report_their_routes(monkeypatch):
    # path seed 2's greedy path stops one vertex short, so it takes the
    # 2-factor route; seed 3's spans.  The pipeline passes the seed by
    # position, the 2-factor search's own growth by keyword.
    monkeypatch.setattr(pch.absorbing, "is_absorbing", lambda g, quad, mb: False)
    outcomes = _record_two_factor_calls(monkeypatch)

    def second_seed_short(*args, **kwargs):
        sys = maximal_path_cycle(*args, **kwargs)
        if args[1:2] == (2,):
            sys = replace(sys, path=DirectedPath(sys.path.vertices[:-1]))
        return sys

    monkeypatch.setattr(pch.rotations, "maximal_path_cycle", second_seed_short)
    res = run_pipeline(random_bounded_colouring(40, 14, 1), PipelineConfig(seed=1))
    assert res.failure.stage == "absorb"
    assert res.report["stages"]["ham_path"]["how"] == "greedy"
    tried = res.report["stages"]["absorb"]
    assert tried["path_seeds"] == [1, 2, 3]
    [tf] = outcomes
    assert tried["routes"] == [
        {
            "how": "two_factor",
            "attempts": tf.stats["attempts"],
            "rotations": tf.stats["rotations"],
            "closed_via": tf.stats.get("closed_via", "immediate"),
        },
        {"how": "greedy"},
    ]


def _timeless(report):
    stages = {
        name: {k: v for k, v in record.items() if k != "seconds"}
        for name, record in report["stages"].items()
    }
    return {**report, "stages": stages}


def test_report_repeats_for_the_same_seed():
    g = near_bollobas_erdos(20, 0)
    first, second = (run_pipeline(g, PipelineConfig(seed=0)).report for _ in range(2))
    assert first["stages"]["absorb"]["rotations"] > 0
    assert _timeless(first) == _timeless(second)
