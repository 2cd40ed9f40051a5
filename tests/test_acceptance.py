"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances and scales are pinned here exactly as contracted; run with
``pytest tests/test_acceptance.py -s`` to see the per-criterion lines.
"""

import random
import time

import pytest

from pch.absorbing import absorb_path, count_absorbing
from pch.constructions import (
    bollobas_erdos,
    colouring_from_oriented,
    layered_colouring,
    properly_coloured_cycle_set,
    random_bounded_colouring,
    random_colouring,
    random_oriented,
)
from pch.ec_graph import (
    DirectedPath,
    is_properly_coloured_cycle,
    is_properly_coloured_path,
    max_mono_degree,
    min_colour_degree,
    verify_certificate,
)
from pch.exact import (
    SearchStatus,
    exact_pc_ham_cycle,
    exact_pc_two_factor,
    longest_pc_cycle,
    longest_pc_path,
)
from pch.pipeline import PipelineConfig, run_pipeline
from pch.rotations import find_pc_two_factor
from tests.conftest import random_system_instance, universal_absorbing_cycle
from tests.test_rotations import check_rotation_contract, eligible_chords


def report(num, name, detail):
    print(f"ACCEPTANCE {num} ({name}): PASS - {detail}")


def test_acceptance_1_extremal_conformance():
    t0 = time.time()
    for k in (1, 2, 3, 4, 5):
        g = bollobas_erdos(k)
        assert max_mono_degree(g) == 2 * k
        res = exact_pc_ham_cycle(g)
        assert res.status == SearchStatus.NOT_EXISTS
    elapsed = time.time() - t0
    assert elapsed < 30.0
    report(1, "extremal conformance", f"k=1..5 all NotExists with delta_mon=2k in {elapsed:.1f}s")


def test_acceptance_2_oriented_equivalence():
    t0 = time.time()
    rng = random.Random(1234)
    for trial in range(200):
        n = rng.randint(3, 7)
        og = random_oriented(n, rng.uniform(0.3, 0.9), trial)
        cg = colouring_from_oriented(og)
        assert properly_coloured_cycle_set(cg) == og.directed_cycles()
    elapsed = time.time() - t0
    assert elapsed < 10.0
    report(2, "oriented-graph equivalence", f"200 digraphs on n<=7 match in {elapsed:.1f}s")


def test_acceptance_3_layered_bounds():
    t0 = time.time()
    checked = 0
    for n in range(2, 13):
        for l in range(1, n // 2 + 1):
            g = layered_colouring(n, l)
            assert max_mono_degree(g) == n - l
            assert min_colour_degree(g) == l
            if n >= 3:
                cyc = longest_pc_cycle(g)
                assert cyc.exact
                assert cyc.value < 2 * l
            pth = longest_pc_path(g)
            assert pth.exact
            assert pth.value - 1 < 2 * l + 1  # length = order - 1
            checked += 1
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(3, "layered bounds", f"{checked} (n, l) pairs within bounds in {elapsed:.1f}s")


def test_acceptance_4_absorbing_count_bound():
    t0 = time.time()
    n, eps, dmax = 50, 0.1, 20
    bound = eps * eps * n ** 4 / 4
    assert bound == pytest.approx(15625.0)
    worst = None
    for seed in range(10):
        g = random_bounded_colouring(n, dmax, seed)
        assert max_mono_degree(g) <= dmax
        rng = random.Random(seed)
        for _ in range(50):
            quad = tuple(rng.sample(range(n), 4))
            c = count_absorbing(g, quad)
            worst = c if worst is None else min(worst, c)
            assert c >= bound
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(4, "absorbing count bound",
           f"500 quads over 10 instances, min count {worst} >= {int(bound)} in {elapsed:.1f}s")


def test_acceptance_5_rotation_soundness():
    t0 = time.time()
    rng = random.Random(0xA11CE)
    done = 0
    while done < 10_000:
        g, sys = random_system_instance(rng)
        chords = eligible_chords(sys, g)
        if not chords:
            continue
        check_rotation_contract(g, sys, rng.choice(chords))
        done += 1
    elapsed = time.time() - t0
    report(5, "rotation soundness", f"10000 rotations, zero contract violations in {elapsed:.1f}s")


def test_acceptance_6_two_factor_agreement():
    t0 = time.time()
    n, dmax, seeds = 12, 4, 50
    oracle_yes = agree = 0
    for seed in range(seeds):
        g = random_bounded_colouring(n, dmax, seed)
        heur = find_pc_two_factor(g, seed)
        if heur.success:
            cert = verify_certificate(g, heur.certificate)
            assert cert.valid, f"seed {seed}: invalid certificate {cert.reason}"
        oracle = exact_pc_two_factor(g)
        if oracle.exists:
            oracle_yes += 1
            agree += 1 if heur.success else 0
    elapsed = time.time() - t0
    assert elapsed < 600.0
    assert oracle_yes > 0
    rate = agree / oracle_yes
    assert rate >= 0.9
    report(6, "2-factor agreement",
           f"heuristic matched oracle on {agree}/{oracle_yes} (rate {rate:.2f}) in {elapsed:.1f}s")


def test_acceptance_7_absorption_correctness():
    t0 = time.time()
    n, dmax = 40, 14
    instances = 0
    absorptions = 0
    seed = 0
    while instances < 20:
        seed += 1
        assert seed <= 80, "could not assemble 20 verified absorbing cycles"
        g = random_bounded_colouring(n, dmax, seed)
        # universality verified exhaustively over the quadruples outside the family
        ac = universal_absorbing_cycle(g, target_size=4, seed=seed)
        if ac is None:
            continue
        outside = [v for v in range(n) if v not in set(ac.cycle.vertices)]
        if len(outside) < 8:
            continue
        instances += 1
        rng = random.Random(seed * 7919)
        done = 0
        while done < 100:
            order = rng.randint(4, 8)
            verts = rng.sample(outside, order)
            if not is_properly_coloured_path(g, verts):
                continue
            merged = absorb_path(g, ac, DirectedPath(tuple(verts)))
            assert merged is not None
            assert set(merged.vertices) == set(ac.cycle.vertices) | set(verts)
            assert is_properly_coloured_cycle(g, merged)
            done += 1
            absorptions += 1
    elapsed = time.time() - t0
    report(7, "absorption correctness",
           f"{absorptions} absorptions over {instances} verified cycles, zero failures in {elapsed:.1f}s")


def test_acceptance_8_pipeline_validity():
    t0 = time.time()
    successes = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(8, 12)
        if seed % 2:
            g = random_bounded_colouring(n, rng.randint(2, n // 2), seed)
        else:
            g = random_colouring(n, rng.randint(2, 5), seed)
        res = run_pipeline(g, PipelineConfig(seed=seed, fallback="exact"))
        if res.success:
            successes += 1
            cert = verify_certificate(g, res.certificate)
            assert cert.valid
            assert cert.covered_vertices() == set(range(n))
        verdict = res.success or (res.fallback_result is not None and res.fallback_result.exists)
        assert verdict == exact_pc_ham_cycle(g).exists, f"seed {seed}: verdict mismatch"
    # large colour-rich instances exercise the native path end to end
    native = 0
    for seed in range(6):
        g = random_bounded_colouring(36, 13, seed)
        res = run_pipeline(g, PipelineConfig(seed=seed))
        if res.success:
            native += 1
            assert verify_certificate(g, res.certificate).valid
    assert native >= 3
    elapsed = time.time() - t0
    report(8, "pipeline validity",
           f"100 small verdicts agree with the oracle, {native}/6 native successes verify, {elapsed:.1f}s")
