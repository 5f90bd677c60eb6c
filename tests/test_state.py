import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dotchain import (
    ChainState,
    apply_ising_phases,
    cluster_stabilizers,
    ideal_cluster_fidelity,
    init_plus_chain,
)

from conftest import random_state
from oracles import (
    exp_cluster_stabilizers,
    exp_contract_bonds,
    exp_ising_amplitudes,
    ideal_cluster,
    ising_hamiltonian,
    stabilizer_expectation,
    stabilizer_operator,
    state_fidelity,
)


def test_init_plus_chain_amplitudes():
    one = init_plus_chain(1)
    assert np.allclose(one.amplitudes, [1 / math.sqrt(2)] * 2)
    two = init_plus_chain(2)
    assert np.allclose(two.amplitudes, [0.5] * 4)
    ten = init_plus_chain(10)
    assert np.allclose(ten.amplitudes, 2.0**-5)
    assert ten.norm() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, -3, 25])
def test_init_capacity(n):
    with pytest.raises(ValueError):
        init_plus_chain(n)


def test_chain_state_validation():
    with pytest.raises(ValueError):
        ChainState(2, np.ones(4, dtype=complex))  # norm 2
    with pytest.raises(ValueError):
        ChainState(2, np.ones(3, dtype=complex) / math.sqrt(3))  # wrong length
    with pytest.raises(ValueError):
        ChainState(0, np.ones(1, dtype=complex))


def test_apply_zero_phases_is_identity():
    state = init_plus_chain(3)
    out = apply_ising_phases(state, np.zeros(2))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_pi_flips_doubly_excited():
    rng = np.random.default_rng(5)
    state = random_state(2, rng)
    out = apply_ising_phases(state, [math.pi])
    expected = state.amplitudes.copy()
    expected[3] *= np.exp(1j * math.pi)
    assert np.allclose(out.amplitudes, expected, atol=1e-15)
    # |00>, |01>, |10> untouched
    assert np.array_equal(out.amplitudes[:3], state.amplitudes[:3])


def test_apply_validates():
    state = init_plus_chain(3)
    with pytest.raises(ValueError):
        apply_ising_phases(state, [0.1])  # wrong bond count
    with pytest.raises(ValueError):
        apply_ising_phases(state, [0.1, float("nan")])


def test_apply_matches_matrix_exponential_oracle():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        for _ in range(10):
            phases = rng.uniform(-2 * math.pi, 2 * math.pi, n - 1)
            state = random_state(n, rng)
            out = apply_ising_phases(state, phases)
            u = expm(1j * ising_hamiltonian(n, phases))
            expected = u @ state.amplitudes
            assert np.max(np.abs(out.amplitudes - expected)) <= 1e-10


def test_norm_preserved():
    rng = np.random.default_rng(99)
    state = random_state(6, rng)
    out = apply_ising_phases(state, rng.uniform(-10, 10, 5))
    assert abs(out.norm() - 1.0) <= 1e-10


def test_ideal_cluster_small():
    assert np.allclose(ideal_cluster(1).amplitudes, [1 / math.sqrt(2)] * 2)
    two = ideal_cluster(2)
    assert np.allclose(two.amplitudes * 2.0, [1, 1, 1, -1])
    three = ideal_cluster(3)
    signs = [1, 1, 1, -1, 1, 1, -1, 1]
    assert np.allclose(three.amplitudes * math.sqrt(8), signs)


@pytest.mark.parametrize("n", range(2, 13))
def test_ideal_cluster_equals_pi_evolution(n):
    evolved = apply_ising_phases(init_plus_chain(n), np.full(n - 1, math.pi))
    assert state_fidelity(ideal_cluster(n), evolved) >= 1 - 1e-8


def test_stabilizers_of_ideal_cluster():
    for n in (1, 2, 3, 5, 8):
        state = ideal_cluster(n)
        for site in range(n):
            assert stabilizer_expectation(state, site) == pytest.approx(1.0, abs=1e-10)


def test_stabilizers_of_ideal_cluster_exactly_one():
    # rounding in the 2^(-n/2) amplitudes must not push a Pauli expectation past 1
    for n in range(1, 8):
        state = ideal_cluster(n)
        assert [stabilizer_expectation(state, site) for site in range(n)] == [1.0] * n


def test_stabilizer_of_plus_chain_is_zero():
    assert stabilizer_expectation(init_plus_chain(2), 0) == pytest.approx(0.0, abs=1e-12)


def test_stabilizer_site_range():
    state = ideal_cluster(3)
    with pytest.raises(ValueError):
        stabilizer_expectation(state, 3)
    with pytest.raises(ValueError):
        stabilizer_expectation(state, -1)


def test_stabilizer_under_bond_error():
    # a phase error delta on one bond pulls the two adjacent stabilizers
    # down to (1 + cos(delta))/2 and leaves every other site at exactly +1
    # (the dense engine and the closed form in the bond phases alike)
    delta = 0.1
    state = apply_ising_phases(init_plus_chain(2), [math.pi + delta])
    expected = (1 + math.cos(delta)) / 2
    closed2 = cluster_stabilizers([math.pi + delta])
    for site in (0, 1):
        assert stabilizer_expectation(state, site) == pytest.approx(expected, abs=1e-12)
        assert closed2[site] == pytest.approx(expected, abs=1e-12)

    phases = np.full(5, math.pi)
    phases[2] += delta
    state6 = apply_ising_phases(init_plus_chain(6), phases)
    closed6 = cluster_stabilizers(phases)
    for site in range(6):
        for value in (stabilizer_expectation(state6, site), closed6[site]):
            if site in (2, 3):
                assert value == pytest.approx(expected, abs=1e-10)
                assert value < 1.0
            else:
                assert value == pytest.approx(1.0, abs=1e-10)


@settings(max_examples=100, deadline=None)
@given(
    phases=st.integers(min_value=2, max_value=12).flatmap(
        lambda n: st.lists(
            st.floats(min_value=-4 * math.pi, max_value=4 * math.pi), min_size=n - 1, max_size=n - 1
        )
    )
)
def test_closed_form_stabilizers_match_dense(phases):
    n = len(phases) + 1
    state = apply_ising_phases(init_plus_chain(n), phases)
    closed = cluster_stabilizers(phases)
    assert closed.shape == (n,)
    for site in range(n):
        assert closed[site] == pytest.approx(stabilizer_expectation(state, site), abs=1e-12)


def test_cluster_stabilizers_refuse_non_finite_phases():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            cluster_stabilizers([math.pi, bad])


def test_ideal_cluster_amplitudes_exact():
    # the sign of basis state z is (-1)^(number of adjacent 11 pairs), and
    # every magnitude is exactly 2^(-n/2)
    for n in range(1, 11):
        amps = ideal_cluster(n).amplitudes
        assert np.all(amps.imag == 0.0)
        for index, amp in enumerate(amps):
            bits = [(index >> (n - 1 - k)) & 1 for k in range(n)]
            pairs = sum(a & b for a, b in zip(bits, bits[1:]))
            assert amp.real == (-1) ** pairs * 2.0 ** (-n / 2.0)


def test_stabilizer_matches_kron_oracle():
    rng = np.random.default_rng(2718)
    for n in (2, 3, 4):
        state = apply_ising_phases(
            random_state(n, rng), rng.uniform(-math.pi, math.pi, n - 1)
        )
        for site in range(n):
            oracle = np.vdot(
                state.amplitudes, stabilizer_operator(n, site) @ state.amplitudes
            )
            assert stabilizer_expectation(state, site) == pytest.approx(
                float(oracle.real), abs=1e-10
            )


def test_state_fidelity_trivials():
    psi = random_state(3, np.random.default_rng(0))
    assert state_fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)
    zero = ChainState(1, np.array([1.0, 0.0], dtype=complex))
    one = ChainState(1, np.array([0.0, 1.0], dtype=complex))
    assert state_fidelity(zero, one) == 0.0
    with pytest.raises(ValueError):
        state_fidelity(zero, psi)


def test_state_fidelity_single_bond_error(golden):
    delta = 0.1
    noisy = apply_ising_phases(init_plus_chain(2), [math.pi + delta])
    fidelity = state_fidelity(ideal_cluster(2), noisy)
    assert fidelity == pytest.approx((5 + 3 * math.cos(delta)) / 8, rel=1e-12)
    assert fidelity == pytest.approx(golden["single_bond_fidelity_delta_01"], rel=1e-12)


def test_fast_cluster_fidelity_matches_dense():
    rng = np.random.default_rng(31)
    for n in range(2, 9):
        ideal = ideal_cluster(n)
        for _ in range(5):
            phases = math.pi + rng.normal(0.0, 0.3, n - 1)
            dense = state_fidelity(ideal, apply_ising_phases(init_plus_chain(n), phases))
            assert ideal_cluster_fidelity(phases) == pytest.approx(dense, abs=1e-12)


def test_fast_cluster_fidelity_batched():
    rng = np.random.default_rng(32)
    batch = math.pi + rng.normal(0.0, 0.2, size=(7, 4))
    values = ideal_cluster_fidelity(batch)
    assert values.shape == (7,)
    for row, value in zip(batch, values):
        assert ideal_cluster_fidelity(row) == value
    with pytest.raises(ValueError, match="bond axis"):
        ideal_cluster_fidelity(math.pi)  # a scalar has no bond axis


def test_cluster_fidelity_does_not_overflow():
    # 2^n overflows a double past n = 1023, so the contraction must rescale as it goes
    assert ideal_cluster_fidelity(np.full(1100, math.pi)) == 1.0
    phases = math.pi + np.random.default_rng(33).normal(0.0, 0.03 * math.pi, 10_000)
    value = ideal_cluster_fidelity(phases)
    assert math.isfinite(value) and 0.0 < value <= 1.0
    rows = ideal_cluster_fidelity(np.stack([phases, phases[::-1]]))
    assert np.all(np.isfinite(rows)) and np.all((0.0 < rows) & (rows <= 1.0))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(
    batch=st.sampled_from([(), (1,), (3, 40), (11, 300)]),
    bonds=st.integers(min_value=1, max_value=24),
    exponents=st.tuples(
        st.floats(min_value=-8.0, max_value=3.0), st.floats(min_value=-8.0, max_value=3.0)
    ),
    prefixes=st.lists(st.integers(min_value=0, max_value=24), max_size=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(batch=(), bonds=19, exponents=(-2.0, -1.0), prefixes=[], seed=0)
@example(batch=(1,), bonds=19, exponents=(-2.0, -1.0), prefixes=[], seed=0)
def test_contraction_matches_exp_oracle_bit_for_bit(batch, bonds, exponents, prefixes, seed):
    # 1-d vectors, one-row batches and sigma x trial batches, with phase
    # errors of magnitude 1e-8 .. 1e3 around pi, against the np.exp kernel;
    # a lone vector is compared with the kernel run on a one-row batch
    rng = np.random.default_rng(seed)
    lo, hi = sorted(exponents)
    shape = batch + (bonds,)
    deltas = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(lo, hi, shape)
    phases = math.pi + deltas
    rows = batch or (1,)
    columns = np.moveaxis(phases.reshape(rows + (bonds,)), -1, 0)
    (want,) = exp_contract_bonds(columns, rows, [bonds])
    assert _bits(ideal_cluster_fidelity(phases)) == _bits(want)
    prefixes = [k for k in prefixes if k <= bonds]
    got = [ideal_cluster_fidelity(phases[..., :k]) for k in prefixes]
    assert [_bits(v) for v in got] == [_bits(v) for v in exp_contract_bonds(columns, rows, prefixes)]
    if not batch:
        assert isinstance(ideal_cluster_fidelity(phases), float)


_NEAR_PI = st.floats(min_value=-1e-3, max_value=1e-3).map(lambda d: math.pi + d)


@settings(max_examples=150, deadline=None)
@given(
    phases=st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.lists(
            st.one_of(st.floats(min_value=-4 * math.pi, max_value=4 * math.pi), _NEAR_PI),
            min_size=n - 1,
            max_size=n - 1,
        )
    ),
    seed=st.one_of(st.none(), st.integers(min_value=0, max_value=2**32 - 1)),
)
@example(phases=[-0.0, 0.0, math.pi, -math.pi], seed=None)
def test_bond_factors_match_exp_oracle_bit_for_bit(phases, seed):
    # the dense evolution and the closed-form stabilizers take exp(i phi)
    # from _bond_factor, and give the bits they gave with np.exp; the state
    # is the plus chain (seed None) or a random one
    n = len(phases) + 1
    state = init_plus_chain(n) if seed is None else random_state(n, np.random.default_rng(seed))
    got = apply_ising_phases(state, phases).amplitudes
    assert got.tobytes() == exp_ising_amplitudes(state, phases).tobytes()
    assert cluster_stabilizers(phases).tobytes() == exp_cluster_stabilizers(phases).tobytes()


def test_cluster_fidelity_refuses_non_finite_phases():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            ideal_cluster_fidelity([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            ideal_cluster_fidelity(np.array([[math.pi, math.pi], [math.pi, bad]]))


def test_chain_state_refuses_nan_amplitudes():
    amps = np.full(4, 0.5, dtype=complex)
    amps[2] = math.nan
    with pytest.raises(ValueError, match="norm"):
        ChainState(2, amps)
    with pytest.raises(ValueError, match="norm"):
        ChainState(1, np.array([complex(math.nan, 0.0), 0.0]))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * -1 as complex
def test_dense_verifiers_refuse_nan_amplitudes():
    # ChainState checks its norm only when built; a NaN set afterwards must
    # not pass through the clamps of either verifier as a NaN result
    for bad in (math.nan, math.inf):
        state = ideal_cluster(3)
        state.amplitudes[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            stabilizer_expectation(state, 1)
        with pytest.raises(ValueError, match="non-finite"):
            state_fidelity(state, ideal_cluster(3))
        with pytest.raises(ValueError, match="non-finite"):
            state_fidelity(ideal_cluster(3), state)


def test_global_phase_insensitivity():
    from dotchain import MeasurementSpec, project
    from dotchain.measurement import Z_AXIS

    rng = np.random.default_rng(8)
    state = random_state(4, rng)
    rotated = ChainState(4, state.amplitudes * np.exp(1j * 0.8172))
    assert state_fidelity(state, rotated) == pytest.approx(1.0, abs=1e-12)
    for site in range(4):
        assert stabilizer_expectation(rotated, site) == pytest.approx(
            stabilizer_expectation(state, site), abs=1e-12
        )
        spec = MeasurementSpec(site, Z_AXIS)
        assert project(rotated, spec, +1)[0] == pytest.approx(
            project(state, spec, +1)[0], abs=1e-12
        )
