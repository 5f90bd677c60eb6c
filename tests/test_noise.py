import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dotchain import (
    MAX_QUBITS,
    FidelityEstimate,
    PhaseNoiseModel,
    apply_ising_phases,
    exact_mean_fidelities,
    exact_mean_fidelity,
    ideal_cluster,
    init_plus_chain,
    ideal_cluster_fidelity,
    monte_carlo_fidelities,
    monte_carlo_fidelity,
    sample_bond_error_batch,
    sample_bond_errors,
    state_fidelity,
    trial_fidelities,
)
from dotchain import noise
from dotchain.noise import CHUNK_ELEMENTS, _chunk_trials

from oracles import brute_mean_fidelity, per_point_monte_carlo, unscaled_mean_fidelity

SIGMA = 0.03 * math.pi


def test_model_validation():
    PhaseNoiseModel(sigma_rad=0.0)
    with pytest.raises(ValueError):
        PhaseNoiseModel(sigma_rad=-0.1)
    with pytest.raises(ValueError):
        PhaseNoiseModel(sigma_rad=float("nan"))


def test_estimate_validation():
    with pytest.raises(ValueError):
        FidelityEstimate(mean=1.2, standard_error=0.0, n_trials=10, base_seed=0)
    with pytest.raises(ValueError):
        FidelityEstimate(mean=0.5, standard_error=-1.0, n_trials=10, base_seed=0)
    with pytest.raises(ValueError):
        FidelityEstimate(mean=0.5, standard_error=0.0, n_trials=0, base_seed=0)


def test_sample_zero_sigma_is_exact_pi():
    phases = sample_bond_errors(PhaseNoiseModel(0.0), 5, seed=3)
    assert np.array_equal(phases, np.full(5, math.pi))


def test_sample_determinism():
    model = PhaseNoiseModel(SIGMA)
    a = sample_bond_errors(model, 7, seed=11, stream=4)
    b = sample_bond_errors(model, 7, seed=11, stream=4)
    assert np.array_equal(a, b)
    c = sample_bond_errors(model, 7, seed=11, stream=5)
    assert not np.array_equal(a, c)
    d = sample_bond_errors(model, 7, seed=12, stream=4)
    assert not np.array_equal(a, d)


def test_batch_rows_equal_single_streams():
    # a batch spanning two chunk boundaries, started off a chunk boundary
    model = PhaseNoiseModel(SIGMA)
    chunk = _chunk_trials(1, 6)
    first, count = chunk - 3, chunk + 10
    batch = sample_bond_error_batch(model, 6, seed=19, first_stream=first, n_streams=count)
    assert batch.shape == (count, 6)
    for t in range(count):
        assert np.array_equal(batch[t], sample_bond_errors(model, 6, seed=19, stream=first + t))


def test_trial_fidelities_follow_streams():
    # every chunked trial is its own stream's draw, contracted as a one-row
    # batch (a lone 1-d vector goes through numpy's scalar math instead)
    model = PhaseNoiseModel(SIGMA)
    trials = 2 * _chunk_trials(1, 4) + 7
    fidelities = trial_fidelities(5, model, trials, seed=23)
    for t in range(trials):
        phases = sample_bond_errors(model, 4, seed=23, stream=t)
        assert fidelities[t] == ideal_cluster_fidelity(phases[np.newaxis])[0]


def test_trial_fidelities_prefix_property():
    model = PhaseNoiseModel(SIGMA)
    chunk = _chunk_trials(1, 7)
    full = trial_fidelities(8, model, 2 * chunk + 50, seed=29)
    for k in (1, 100, chunk, chunk + 1, 2 * chunk + 3):
        assert np.array_equal(trial_fidelities(8, model, k, seed=29), full[:k])


def test_sample_validation():
    with pytest.raises(ValueError):
        sample_bond_errors(PhaseNoiseModel(0.1), 0, seed=1)


def test_sample_moments():
    model = PhaseNoiseModel(SIGMA)
    n = 100_000
    deltas = np.concatenate(
        [sample_bond_errors(model, 10, seed=21, stream=t) - math.pi for t in range(n // 10)]
    )
    assert abs(deltas.mean()) <= 3 * SIGMA / math.sqrt(n)
    assert deltas.std(ddof=1) == pytest.approx(SIGMA, rel=0.02)


def test_monte_carlo_zero_sigma():
    est = monte_carlo_fidelity(5, PhaseNoiseModel(0.0), trials=200, seed=9)
    assert est.mean == 1.0
    assert est.standard_error == 0.0
    assert est.n_trials == 200 and est.base_seed == 9


def test_monte_carlo_validation():
    model = PhaseNoiseModel(SIGMA)
    with pytest.raises(ValueError):
        monte_carlo_fidelity(1, model, trials=200, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_fidelity(25, model, trials=200, seed=0)
    with pytest.raises(ValueError):
        monte_carlo_fidelity(5, model, trials=99, seed=0)


def test_monte_carlo_two_qubits_closed_form(golden):
    est = monte_carlo_fidelity(2, PhaseNoiseModel(SIGMA), trials=20_000, seed=17)
    expected = (5 + 3 * math.exp(-(SIGMA**2) / 2)) / 8
    assert expected == pytest.approx(golden["mean_fidelity_n2_sigma_003pi"], rel=1e-12)
    assert abs(est.mean - expected) <= 3 * est.standard_error


def test_monte_carlo_reproducible():
    model = PhaseNoiseModel(SIGMA)
    a = monte_carlo_fidelity(6, model, trials=500, seed=123)
    b = monte_carlo_fidelity(6, model, trials=500, seed=123)
    assert a == b  # bit-identical dataclasses


def test_monte_carlo_matches_dense_route():
    # the O(n) overlap inside the estimator must agree with a literal dense
    # preparation, trial by trial
    model = PhaseNoiseModel(SIGMA)
    n, seed = 6, 77
    ideal = ideal_cluster(n)
    fidelities = []
    for t in range(300):
        phases = sample_bond_errors(model, n - 1, seed, stream=t)
        noisy = apply_ising_phases(init_plus_chain(n), phases)
        assert abs(noisy.norm() - 1.0) <= 1e-10  # phase noise stays unitary
        fidelities.append(state_fidelity(ideal, noisy))
    est = monte_carlo_fidelity(n, model, trials=300, seed=seed)
    assert est.mean == pytest.approx(float(np.mean(fidelities)), abs=1e-12)


def test_grid_points_equal_single_point_calls():
    # widths 1, 3 and 5, a repeated point and a repeated sigma, out of order
    points = [(20, 0.05), (3, 0.03), (10, 0.0), (20, 0.03), (18, 0.03), (3, 0.03), (12, 0.05)]
    models = [(n, PhaseNoiseModel(s * math.pi)) for n, s in points]
    estimates = monte_carlo_fidelities(models, trials=300, seed=37)
    assert estimates == [monte_carlo_fidelity(n, m, trials=300, seed=37) for n, m in models]
    assert monte_carlo_fidelities([], trials=300, seed=37) == []
    with pytest.raises(ValueError):
        monte_carlo_fidelities(models, trials=99, seed=37)
    with pytest.raises(ValueError):
        monte_carlo_fidelities(models + [(25, models[0][1])], trials=300, seed=37)


@settings(max_examples=15, deadline=None)
@given(
    lengths=st.lists(st.integers(min_value=2, max_value=24), min_size=1, max_size=3),
    others=st.lists(
        st.floats(min_value=1e-3, max_value=0.3 * math.pi), max_size=39, unique=True
    ),
    repeats=st.lists(st.integers(min_value=0, max_value=39), max_size=5),
    trials=st.integers(min_value=100, max_value=3000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(lengths=[24, 9], others=[0.01 * k for k in range(1, 40)], repeats=[0, 5], trials=3000, seed=3)
def test_streamed_grid_matches_per_point_oracle(lengths, others, repeats, trials, seed):
    # up to 40 sigmas x 3000 trials: chunks end well inside the trial range
    distinct = [0.0] + others
    sigmas = distinct + [distinct[r % len(distinct)] for r in repeats]
    points = [(n, PhaseNoiseModel(s)) for n in lengths for s in sigmas]
    estimates = monte_carlo_fidelities(points, trials, seed)
    oracle = {}
    for (n, model), est in zip(points, estimates):
        key = (n, model.sigma_rad)
        if key not in oracle:
            oracle[key] = per_point_monte_carlo(n, model.sigma_rad, trials, seed)
        assert (est.mean, est.standard_error) == oracle[key]


def test_grid_draws_stay_within_element_budget(monkeypatch):
    sizes = []
    draw = noise.normals

    def counted(seed, domain, first_stream, n_streams, per_stream):
        sizes.append((n_streams, per_stream))
        return draw(seed, domain, first_stream, n_streams, per_stream)

    monkeypatch.setattr(noise, "normals", counted)
    sigmas = [0.01 * k * math.pi for k in range(40)]
    points = [(n, PhaseNoiseModel(s)) for n in (5, 24) for s in sigmas] + [(13, PhaseNoiseModel(SIGMA))]
    monte_carlo_fidelities(points, trials=3000, seed=43)
    trial_fidelities(24, PhaseNoiseModel(SIGMA), 20_000, seed=43)
    assert sizes
    for n_streams, per_stream in sizes:
        assert n_streams * per_stream <= CHUNK_ELEMENTS or n_streams == 1
    assert _chunk_trials(40, 23) == CHUNK_ELEMENTS // 40
    assert _chunk_trials(1, 23) == CHUNK_ELEMENTS // 23
    assert _chunk_trials(3, 10**5) == 1


@pytest.mark.parametrize("budget", [2**15, 2**17])
def test_values_do_not_depend_on_chunk_size(monkeypatch, budget):
    # at the larger budgets the per-bond complex arrays reach 256 KiB, where
    # numpy's temporary elision starts working in place
    sigmas = [0.01 * k * math.pi for k in range(40)]
    points = [(n, PhaseNoiseModel(s)) for n in (5, 24) for s in sigmas]
    singles = [
        (2, PhaseNoiseModel(SIGMA), 20_000),
        (9, PhaseNoiseModel(0.1), 20_000),
        (24, PhaseNoiseModel(SIGMA), 3000),
    ]

    def values():
        grid = monte_carlo_fidelities(points, trials=3000, seed=47)
        return grid, [trial_fidelities(n, model, trials, seed=47) for n, model, trials in singles]

    grid, per_trial = values()
    monkeypatch.setattr(noise, "CHUNK_ELEMENTS", budget)
    grid_at_budget, per_trial_at_budget = values()
    assert grid_at_budget == grid
    for got, want in zip(per_trial_at_budget, per_trial):
        assert got.tobytes() == want.tobytes()


def test_exact_zero_sigma():
    assert exact_mean_fidelity(12, PhaseNoiseModel(0.0)) == 1.0


def test_exact_golden(golden):
    value = exact_mean_fidelity(20, PhaseNoiseModel(SIGMA))
    assert value == pytest.approx(golden["exact_mean_fidelity_n20_sigma_003pi"], rel=1e-12)


def test_exact_matches_enumeration():
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        sigma = float(rng.uniform(0.0, 0.2 * math.pi))
        exact = exact_mean_fidelity(n, PhaseNoiseModel(sigma))
        brute = brute_mean_fidelity(n, sigma)
        assert exact == pytest.approx(brute, rel=1e-12)


def test_exact_matches_unscaled_contraction_bit_for_bit():
    # dividing by 4 every step is exact, so no value moves in the last bit
    rng = np.random.default_rng(8)
    for _ in range(600):
        n = int(rng.integers(2, 25))
        sigma = float(rng.uniform(0.0, 0.3 * math.pi))
        assert exact_mean_fidelity(n, PhaseNoiseModel(sigma)) == unscaled_mean_fidelity(n, sigma)
    for n in range(2, 25):
        assert exact_mean_fidelity(n, PhaseNoiseModel(SIGMA)) == unscaled_mean_fidelity(n, SIGMA)


def test_exact_grid_points_equal_single_point_calls():
    # repeated and out-of-order points, a repeated sigma at other lengths;
    # the unscaled contraction is a pass of its own per point
    points = [(20, 0.05), (3, 0.03), (24, 0.0), (2, 0.03), (20, 0.03), (3, 0.03), (12, 0.05), (20, 0.05)]
    rng = np.random.default_rng(9)
    sigmas = rng.uniform(0.0, 0.3 * math.pi, 5)
    points += [(int(rng.integers(2, 25)), float(rng.choice(sigmas)) / math.pi) for _ in range(60)]
    models = [(n, PhaseNoiseModel(s * math.pi)) for n, s in points]
    values = exact_mean_fidelities(models)
    assert values == [exact_mean_fidelity(n, m) for n, m in models]
    assert values == [unscaled_mean_fidelity(n, m.sigma_rad) for n, m in models]
    assert exact_mean_fidelities(iter(models)) == values
    assert exact_mean_fidelities([]) == []


@pytest.mark.parametrize("n", [0, 1, MAX_QUBITS + 1])
def test_exact_grid_refuses_chain_lengths_out_of_range(n):
    model = PhaseNoiseModel(SIGMA)
    with pytest.raises(ValueError, match="n_qubits"):
        exact_mean_fidelities([(5, model), (n, model)])
    with pytest.raises(ValueError, match="n_qubits"):
        exact_mean_fidelity(n, model)


def test_exact_mean_does_not_overflow(monkeypatch):
    # 4^600 overflows a float; the per-step rescale never forms it
    monkeypatch.setattr(noise, "MAX_QUBITS", 10**4)
    model = PhaseNoiseModel(SIGMA)
    long_chain = exact_mean_fidelity(600, model)
    assert math.isfinite(long_chain) and 0.0 < long_chain < exact_mean_fidelity(20, model)
    assert exact_mean_fidelity(10**4, model) == pytest.approx(6.05e-8, rel=1e-2)
    assert exact_mean_fidelity(10**4, PhaseNoiseModel(0.0)) == 1.0


def test_estimators_agree():
    for n in (2, 5, 10, 20):
        for sigma in (0.01 * math.pi, SIGMA, 0.05 * math.pi):
            model = PhaseNoiseModel(sigma)
            est = monte_carlo_fidelity(n, model, trials=4000, seed=31)
            exact = exact_mean_fidelity(n, model)
            assert abs(est.mean - exact) <= 4 * est.standard_error


def test_exact_monotone_in_sigma_and_n():
    sigmas = np.linspace(0.0, 0.1 * math.pi, 9)
    values = [exact_mean_fidelity(20, PhaseNoiseModel(float(s))) for s in sigmas]
    assert all(b < a for a, b in zip(values, values[1:]))

    model = PhaseNoiseModel(SIGMA)
    by_n = [exact_mean_fidelity(n, model) for n in range(2, 21)]
    assert all(b < a for a, b in zip(by_n, by_n[1:]))
