"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion PASS lines."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from dotchain import (
    PhaseNoiseModel,
    adiabatic_angle,
    apply_ising_phases,
    exact_mean_fidelity,
    ideal_cluster,
    ising_coupling,
    measure,
    monte_carlo_fidelity,
    next_nearest_crosstalk_ratio,
    project,
    schedule_rounds,
    singlet_admixture,
    solve_hold_time,
    state_fidelity,
    stabilizer_expectation,
)
from dotchain.config import config_from_strings, load_config_file
from dotchain.harness import (
    prepare_chain,
    run_figure2,
    run_figure3,
    run_measure_demo,
    run_prepare,
)
from dotchain.measurement import MeasurementSpec, Z_AXIS

from conftest import random_state
from oracles import brute_mean_fidelity, ising_hamiltonian, trapezoid_phase


def test_criterion_1_adiabatic_limits(dev):
    tc = dev.tunnel_coupling_mev
    low = singlet_admixture(adiabatic_angle(-2.5, tc))
    high = singlet_admixture(adiabatic_angle(+2.5, tc))
    assert low <= 1e-4
    assert high >= 0.999
    assert adiabatic_angle(0.0, tc) == math.pi / 4
    print(
        f"\nACCEPTANCE 1 PASS: admixture {low:.2e} at -Ec/2, {high:.6f} at +Ec/2, "
        "theta(0) = pi/4 exactly"
    )


def test_criterion_2_coupling_magnitude(dev, golden):
    value = ising_coupling(dev, math.pi / 2)
    reference = golden["ising_coupling_max_default_mev"]
    assert value == pytest.approx(reference, rel=5e-3)
    assert value == pytest.approx(reference, rel=1e-12)  # frozen oracle, exact
    print(f"ACCEPTANCE 2 PASS: peak coupling {value:.6e} meV vs golden {reference:.6e}")


def test_criterion_3_hold_time_calibration(dev):
    tau2 = solve_hold_time(1.0, dev)
    assert 1.5 <= tau2 <= 3.5
    oracle = trapezoid_phase(1.0, tau2, 1.0, -2.5, 2.5, dev, steps=10_000_000)
    assert oracle == pytest.approx(math.pi, rel=1e-6)
    print(
        f"ACCEPTANCE 3 PASS: hold {tau2:.4f} ns in [1.5, 3.5]; 1e7-step trapezoid "
        f"phase {oracle / math.pi:.9f} pi"
    )


def test_criterion_4_crosstalk(dev):
    ratio = next_nearest_crosstalk_ratio(dev)
    assert 0.08 <= ratio <= 0.15
    print(f"ACCEPTANCE 4 PASS: next-nearest crosstalk ratio {ratio:.4f} in [0.08, 0.15]")


def test_criterion_5_cluster_correctness():
    worst_fidelity, worst_stab = 1.0, 1.0
    for n in range(2, 13):
        prepared, _ = prepare_chain(config_from_strings({"n_qubits": str(n)}))
        fidelity = state_fidelity(ideal_cluster(n), prepared)
        stabs = [stabilizer_expectation(prepared, site) for site in range(n)]
        assert fidelity >= 1 - 1e-8
        assert min(stabs) >= 1 - 1e-8
        worst_fidelity = min(worst_fidelity, fidelity)
        worst_stab = min(worst_stab, min(stabs))
    print(
        f"ACCEPTANCE 5 PASS: n = 2..12 end-to-end, worst fidelity {worst_fidelity:.12f}, "
        f"worst stabilizer {worst_stab:.12f}"
    )


def test_criterion_6_diagonal_evolution_oracle():
    rng = np.random.default_rng(616)
    worst = 0.0
    cases = [(n, i) for n in (2, 3, 4) for i in range(34 if n < 4 else 32)]
    assert len(cases) == 100
    for n, _ in cases:
        phases = rng.uniform(-2 * math.pi, 2 * math.pi, n - 1)
        state = random_state(n, rng)
        fast = apply_ising_phases(state, phases).amplitudes
        dense = expm(1j * ising_hamiltonian(n, phases)) @ state.amplitudes
        worst = max(worst, float(np.max(np.abs(fast - dense))))
    assert worst <= 1e-10
    print(f"ACCEPTANCE 6 PASS: 100 random bond vectors, max amplitude deviation {worst:.2e}")


def test_criterion_7_fidelity_figure(golden):
    sigma = 0.03 * math.pi
    model = PhaseNoiseModel(sigma)
    estimate = monte_carlo_fidelity(20, model, trials=100_000, seed=2024)
    assert 0.937 <= estimate.mean <= 0.977
    exact = exact_mean_fidelity(20, model)
    assert abs(estimate.mean - exact) <= 4 * estimate.standard_error
    assert exact == pytest.approx(golden["exact_mean_fidelity_n20_sigma_003pi"], rel=1e-12)

    rng = np.random.default_rng(7)
    for n in range(2, 7):
        s = float(rng.uniform(0.0, 0.15 * math.pi))
        assert exact_mean_fidelity(n, PhaseNoiseModel(s)) == pytest.approx(
            brute_mean_fidelity(n, s), rel=1e-12
        )

    by_n = [exact_mean_fidelity(n, model) for n in range(2, 21)]
    assert all(b < a for a, b in zip(by_n, by_n[1:]))
    sigmas = [k * 0.01 * math.pi for k in range(11)]
    by_sigma = [exact_mean_fidelity(20, PhaseNoiseModel(s)) for s in sigmas]
    assert all(b < a for a, b in zip(by_sigma, by_sigma[1:]))
    print(
        f"ACCEPTANCE 7 PASS: MC(n=20, sigma=0.03pi, 1e5 trials) = {estimate.mean:.4f} "
        f"+- {estimate.standard_error:.1e} in [0.937, 0.977]; exact {exact:.4f}; "
        "enumeration match and monotone grids"
    )


def test_criterion_8_measurement_semantics():
    rng = np.random.default_rng(88)
    worst_total = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        axis = rng.normal(size=3)
        axis = tuple(axis / np.linalg.norm(axis))
        spec = MeasurementSpec(int(rng.integers(0, n)), axis)
        p_plus, _ = project(state, spec, +1)
        p_minus, _ = project(state, spec, -1)
        worst_total = max(worst_total, abs(p_plus + p_minus - 1.0))
    assert worst_total <= 1e-10

    # graph-state rule: z-measuring the middle of the 3-chain leaves the
    # outer qubits in |+>|+> (singlet branch) or |->|-> (triplet branch)
    state = ideal_cluster(3)
    spec = MeasurementSpec(1, Z_AXIS)
    expected = {
        -1: np.array([0.5, 0.5, 0, 0, 0.5, 0.5, 0, 0]),
        +1: np.array([0, 0, 0.5, -0.5, 0, 0, -0.5, 0.5]),
    }
    for outcome, target in expected.items():
        prob, post = project(state, spec, outcome)
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert np.max(np.abs(post.amplitudes - target)) <= 1e-10
    sampled, _ = measure(state, spec, seed=1)
    assert sampled.outcome in (-1, +1)

    sched_rng = np.random.default_rng(42)
    for _ in range(1000):
        size = int(sched_rng.integers(0, 20))
        requested = sched_rng.choice(64, size=size, replace=False).tolist()
        schedule = schedule_rounds(requested)
        for rnd in schedule.rounds:
            present = set(rnd)
            assert all(q + 1 not in present for q in rnd)
        assert sorted(q for rnd in schedule.rounds for q in rnd) == sorted(requested)
    print(
        f"ACCEPTANCE 8 PASS: Born totals within {worst_total:.1e}; z-deletion rule on "
        "n=3 matches enumeration; 1000 random schedules respect the exclusion rule"
    )


def test_criterion_9_reproducibility(tmp_path):
    base = {"trials": "300", "seed": "77", "sigma_over_pi": "0.0,0.03", "n_qubits": "5"}
    commands = {
        "figure2": (run_figure2, ["figure2a", "figure2c"]),
        "figure3": (run_figure3, ["fidelity"]),
        "measure-demo": (run_measure_demo, ["records", "schedule"]),
    }
    for name, (command, artifacts) in commands.items():
        first_dir = tmp_path / name / "first"
        second_dir = tmp_path / name / "second"
        first = command(config_from_strings(dict(base)), first_dir)
        rerun_cfg = config_from_strings(load_config_file(first["manifest"]))
        second = command(rerun_cfg, second_dir)
        for artifact in artifacts:
            assert first[artifact].read_bytes() == second[artifact].read_bytes(), (
                f"{name}/{artifact} not byte-identical on manifest re-run"
            )

    first_report = run_prepare(config_from_strings(dict(base)), tmp_path / "prep1")
    manifest = tmp_path / "prep1" / "run_manifest.json"
    second_report = run_prepare(config_from_strings(load_config_file(manifest)), tmp_path / "prep2")
    assert first_report == second_report
    assert (tmp_path / "prep1" / "stabilizers.csv").read_bytes() == (
        tmp_path / "prep2" / "stabilizers.csv"
    ).read_bytes()
    print("ACCEPTANCE 9 PASS: all commands byte-identical when re-run from their manifests")
