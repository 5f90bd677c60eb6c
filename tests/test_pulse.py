import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotchain import (
    HBAR_MEV_NS,
    CalibrationError,
    DetuningPulse,
    DeviceParams,
    accumulated_phase,
    adiabatic_angle,
    check_adiabaticity,
    ising_coupling,
    local_phase,
    local_phase_sensitivity,
    plateau_coupling,
    solve_hold_time,
)
from dotchain.pulse import detuning_window

from oracles import trapezoid_local_phase, trapezoid_phase


def default_pulse(dev, hold=2.0):
    return DetuningPulse(1.0, hold, *detuning_window(dev))


def test_detuning_endpoints(dev):
    pulse = default_pulse(dev)
    assert pulse.detuning_at(0.0) == -2.5
    assert pulse.detuning_at(pulse.duration_ns) == -2.5
    assert pulse.detuning_at(0.5) == 0.0  # midpoint of the up-ramp
    assert pulse.detuning_at(1.0) == 2.5
    assert pulse.detuning_at(1.0 + pulse.hold_ns / 2) == 2.5
    assert pulse.detuning_at(1.0 + pulse.hold_ns) == 2.5
    assert DetuningPulse(0.7, 1.0, -2.5, 2.5).duration_ns == pytest.approx(2.4)


def test_rectangular_pulse_endpoints():
    # Every pulse starts and ends at eps_low, a rectangular one (no ramp)
    # included; in between a rectangular pulse sits at eps_high.
    for ramp in (0.0, 0.3, 1.0):
        for hold in (0.0, 2.0):
            pulse = DetuningPulse(ramp, hold, -2.5, 2.5)
            assert pulse.detuning_at(0.0) == -2.5
            assert pulse.detuning_at(pulse.duration_ns) == -2.5
    pulse = DetuningPulse(0.0, 2.0, -2.5, 2.5)
    assert pulse.detuning_at(1.0) == 2.5
    assert pulse.detuning_at(math.nextafter(0.0, 1.0)) == 2.5
    assert pulse.detuning_at(math.nextafter(pulse.duration_ns, 0.0)) == 2.5


def test_detuning_out_of_range(dev):
    pulse = default_pulse(dev)
    for t in (-0.1, pulse.duration_ns + 1e-9, float("nan")):
        with pytest.raises(ValueError):
            pulse.detuning_at(t)


def test_detuning_stays_inside_window():
    # rounding near either end of a ramp must not leave [eps_low, eps_high]
    rng = np.random.default_rng(20261018)
    for _ in range(100):
        lo, hi = np.sort(rng.uniform(-3.0, 3.0, 2))
        pulse = DetuningPulse(
            ramp_ns=float(rng.uniform(0.01, 3.0)),
            hold_ns=float(rng.uniform(0.0, 5.0)),
            eps_low_mev=float(lo),
            eps_high_mev=float(hi),
        )
        eps = [pulse.detuning_at(float(t)) for t in np.linspace(0.0, pulse.duration_ns, 2001)]
        assert eps[0] == lo and eps[-1] == lo
        assert lo <= min(eps) and max(eps) <= hi


def test_pulse_validation():
    with pytest.raises(ValueError):
        DetuningPulse(ramp_ns=-1.0, hold_ns=0.0, eps_low_mev=-2.5, eps_high_mev=2.5)
    with pytest.raises(ValueError):
        DetuningPulse(ramp_ns=1.0, hold_ns=-0.5, eps_low_mev=-2.5, eps_high_mev=2.5)
    with pytest.raises(ValueError):
        DetuningPulse(ramp_ns=1.0, hold_ns=1.0, eps_low_mev=1.0, eps_high_mev=-1.0)
    with pytest.raises(ValueError):
        DetuningPulse(ramp_ns=float("nan"), hold_ns=1.0, eps_low_mev=-2.5, eps_high_mev=2.5)
    with pytest.raises(TypeError):  # the detuning window has no default
        DetuningPulse(ramp_ns=1.0, hold_ns=1.0)


def test_rectangular_pulse_gives_pi(dev):
    # hold chosen so the constant plateau integrand accumulates exactly pi
    rate = plateau_coupling(default_pulse(dev), dev) / HBAR_MEV_NS
    pulse = DetuningPulse(0.0, math.pi / rate, *detuning_window(dev))
    assert accumulated_phase(pulse, dev) == pytest.approx(math.pi, rel=1e-9)
    # the plateau sits within 2e-5 of the full-admixture coupling, so the same
    # hold computed from the theta = pi/2 coupling is pi at coarser tolerance
    ideal_rate = ising_coupling(dev, math.pi / 2) / HBAR_MEV_NS
    pulse2 = DetuningPulse(0.0, math.pi / ideal_rate, *detuning_window(dev))
    assert accumulated_phase(pulse2, dev) == pytest.approx(math.pi, rel=1e-4)
    # no ramp and no hold: no phase at all
    assert accumulated_phase(DetuningPulse(0.0, 0.0, *detuning_window(dev)), dev) == 0.0


def test_ramp_only_phase(dev):
    pulse = DetuningPulse(1.0, 0.0, *detuning_window(dev))
    phase = accumulated_phase(pulse, dev)
    # brute-force fixed-step oracle
    oracle = trapezoid_phase(1.0, 0.0, 1.0, -2.5, 2.5, dev, steps=1_000_000)
    assert phase == pytest.approx(oracle, rel=1e-6)
    # symmetric sweep: sin^2(theta(eps)) + sin^2(theta(-eps)) == 1 exactly,
    # so each ramp integrates to exactly ramp_ns * coupling_max / 2
    exact = ising_coupling(dev, math.pi / 2) / HBAR_MEV_NS
    assert phase == pytest.approx(exact, rel=1e-9)


def test_plateau_additivity(dev):
    base = default_pulse(dev, hold=1.3)
    doubled = default_pulse(dev, hold=2.6)
    rate = plateau_coupling(base, dev) / HBAR_MEV_NS
    gained = accumulated_phase(doubled, dev) - accumulated_phase(base, dev)
    assert gained == pytest.approx(1.3 * rate, rel=1e-9)


def test_phase_strictly_increasing_in_hold(dev):
    holds = np.linspace(0.0, 4.0, 9)
    phases = [accumulated_phase(default_pulse(dev, hold=h), dev) for h in holds]
    assert all(b > a for a, b in zip(phases, phases[1:]))


def test_sharp_passage_window(dev):
    # The integrand switches on within a few tunnel couplings of eps = 0:
    # from 0.15 to 0.85 of the maximum inside a window of 1e-2 * tau1. The
    # full 1e-4 -> 0.999 transition is wider (the admixture tails fall off
    # only as (tc/eps)^2) but completes within the ramp.
    tau1 = 1.0
    pulse = DetuningPulse(tau1, 0.0, *detuning_window(dev))
    peak = ising_coupling(dev, math.pi / 2)
    times = np.linspace(0.0, tau1, 200_001)
    values = np.array(
        [
            ising_coupling(dev, adiabatic_angle(pulse.detuning_at(float(t)), dev.tunnel_coupling_mev))
            for t in times
        ]
    )
    assert np.all(np.diff(values) >= 0)
    assert values[0] < 1e-4 * peak
    assert values[-1] > 0.999 * peak
    t_low = times[np.searchsorted(values, 0.15 * peak)]
    t_high = times[np.searchsorted(values, 0.85 * peak)]
    assert 0.0 < t_high - t_low <= 1e-2 * tau1


def test_closed_form_phase_matches_trapezoid_oracle(dev):
    rng = np.random.default_rng(20240917)
    for _ in range(5):
        ramp = float(rng.uniform(0.05, 2.0))
        hold = float(rng.uniform(0.0, 3.0))
        lo = float(rng.uniform(-3.0, -0.5))
        hi = float(rng.uniform(0.5, 3.0))
        pulse = DetuningPulse(ramp_ns=ramp, hold_ns=hold, eps_low_mev=lo, eps_high_mev=hi)
        closed_form = accumulated_phase(pulse, dev)
        oracle = trapezoid_phase(ramp, hold, ramp, lo, hi, dev, steps=10_000_000)
        assert closed_form == pytest.approx(oracle, rel=1e-6)


def test_rectangular_pulse_matches_trapezoid_oracle(dev):
    # no ramp: the pulse holds eps_high from just after 0 to just before its
    # end, which the oracle's hold segment integrates with eps_high at both
    # of its end nodes
    pulse = DetuningPulse(ramp_ns=0.0, hold_ns=1.5, eps_low_mev=-2.5, eps_high_mev=2.5)
    oracle = trapezoid_phase(0.0, 1.5, 0.0, -2.5, 2.5, dev, steps=100_000)
    assert accumulated_phase(pulse, dev) == pytest.approx(oracle, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    tc=st.floats(min_value=0.01, max_value=2.0),
    charging=st.floats(min_value=0.5, max_value=10.0),
    ramp=st.floats(min_value=0.05, max_value=2.0),
    hold=st.floats(min_value=0.0, max_value=3.0),
    edges=st.tuples(
        st.floats(min_value=0.05, max_value=1.0), st.floats(min_value=0.05, max_value=1.0)
    ).filter(lambda e: abs(e[0] - e[1]) >= 0.05),
    side=st.sampled_from(["below", "straddle", "above"]),
)
def test_closed_form_matches_trapezoid_oracle_across_devices(
    tc, charging, ramp, hold, edges, side
):
    # One-sided windows test each branch of F(eps) = (eps + d) / 2 alone.
    dev = DeviceParams(tunnel_coupling_mev=tc, charging_energy_mev=charging)
    a, b = (charging / 2.0 * e for e in sorted(edges))
    lo, hi = {"below": (-b, -a), "straddle": (-a, b), "above": (a, b)}[side]
    pulse = DetuningPulse(ramp_ns=ramp, hold_ns=hold, eps_low_mev=lo, eps_high_mev=hi)
    oracle = trapezoid_phase(ramp, hold, ramp, lo, hi, dev, steps=100_000)
    assert accumulated_phase(pulse, dev) == pytest.approx(oracle, rel=1e-6)


def test_solve_rectangular_golden(dev, golden):
    tau2 = solve_hold_time(0.0, dev)
    assert tau2 == pytest.approx(golden["hold_time_rect_default_ns"], rel=1e-9)
    assert tau2 == pytest.approx(3.73, rel=2e-3)


def test_solve_default_ramps(dev, golden):
    tau2 = solve_hold_time(1.0, dev)
    assert 1.5 <= tau2 <= 3.5
    assert tau2 == pytest.approx(golden["hold_time_tau1_1ns_default_ns"], rel=1e-7)
    pulse = DetuningPulse(1.0, tau2, *detuning_window(dev))
    assert accumulated_phase(pulse, dev) == pytest.approx(math.pi, rel=1e-9)


def test_solve_double_target_doubles_hold(dev):
    tau_pi = solve_hold_time(0.0, dev)
    tau_2pi = solve_hold_time(0.0, dev, target_phase_rad=2 * math.pi)
    assert tau_2pi == pytest.approx(2 * tau_pi, rel=1e-9)


def test_solve_unreachable_target(dev):
    # 40 ns of ramps accumulate far more than pi/40 on their own
    with pytest.raises(CalibrationError) as excinfo:
        solve_hold_time(20.0, dev, target_phase_rad=math.pi / 40)
    assert excinfo.value.ramp_phase_rad > math.pi / 40


def test_solve_input_validation(dev):
    with pytest.raises(ValueError):
        solve_hold_time(-1.0, dev)
    with pytest.raises(ValueError):
        solve_hold_time(1.0, dev, target_phase_rad=0.0)
    with pytest.raises(ValueError):
        solve_hold_time(1.0, dev, target_phase_rad=float("inf"))


def test_adiabaticity_warnings(dev):
    quiet = DetuningPulse(1.0, 2.7, *detuning_window(dev))
    with pytest.warns(UserWarning):
        fast = DetuningPulse(0.01, 1.0, *detuning_window(dev))
        messages = check_adiabaticity(fast, dev)
    assert len(messages) == 1 and messages[0].startswith("ramp_ns=0.01 ns is below")
    with pytest.warns(UserWarning):
        assert check_adiabaticity(quiet, dev, coherence_budget_ns=2.0)
    assert check_adiabaticity(quiet, dev, coherence_budget_ns=10.0) == []


def test_local_phase_matches_trapezoid_oracle(dev):
    # Theta and dTheta/deps against fixed-step trapezoids; the oracle's own
    # error, bounded by the change from N to 2N steps (its error is about a
    # third of that change), is kept below a tenth of the tolerance
    tc = dev.tunnel_coupling_mev
    rng = np.random.default_rng(20261020)
    pulses = [DetuningPulse(0.8, 0.0, -1.0, 3.0), DetuningPulse(0.0, 1.5, -1.0, 3.0)]
    for _ in range(3):
        ramp = float(rng.uniform(0.05, 2.0))
        hold = float(rng.uniform(0.0, 3.0))
        lo = float(rng.uniform(-3.0, -0.5))
        hi = float(rng.uniform(0.5, 3.0))
        pulses.append(DetuningPulse(ramp_ns=ramp, hold_ns=hold, eps_low_mev=lo, eps_high_mev=hi))
    for pulse in pulses:
        args = (pulse.ramp_ns, pulse.hold_ns, pulse.eps_low_mev, pulse.eps_high_mev, tc)
        coarse = trapezoid_local_phase(*args, steps=200_000)
        fine = trapezoid_local_phase(*args, steps=400_000)
        for got, n_steps, two_n_steps in zip(
            (local_phase(pulse, dev), local_phase_sensitivity(pulse, dev)), coarse, fine
        ):
            assert abs(n_steps - two_n_steps) <= 1e-7 * abs(two_n_steps)
            assert got == pytest.approx(two_n_steps, rel=1e-6)


def test_local_phase_default_pulse_baseline(dev):
    # the default pulse (tau1 = 1 ns, hold calibrated to a pi bond phase):
    # Theta = 1.228e4 rad, moved by 5.67 rad per ueV of detuning offset
    tau1 = 1.0
    pulse = DetuningPulse(tau1, solve_hold_time(tau1, dev), *detuning_window(dev))
    assert local_phase(pulse, dev) == pytest.approx(12279.54, abs=0.005)
    assert local_phase_sensitivity(pulse, dev) / 1e3 == pytest.approx(5.6710, abs=5e-5)


def test_local_phase_is_affine_in_hold(dev):
    # the hold adds F(eps_high) / hbar and sin^2 theta(eps_high) / hbar per
    # ns, and a rectangular pulse is all hold
    tc = dev.tunnel_coupling_mev
    rate = (2.5 + math.hypot(2.5, 2.0 * tc)) / 2.0 / HBAR_MEV_NS
    slope = math.sin(adiabatic_angle(2.5, tc)) ** 2 / HBAR_MEV_NS
    ramps = DetuningPulse(1.0, 0.0, -2.5, 2.5)
    held = DetuningPulse(1.0, 2.0, -2.5, 2.5)
    rectangular = DetuningPulse(0.0, 2.0, -2.5, 2.5)
    assert local_phase(held, dev) - local_phase(ramps, dev) == pytest.approx(2.0 * rate, rel=1e-12)
    assert local_phase(rectangular, dev) == pytest.approx(2.0 * rate, rel=1e-15)
    gained = local_phase_sensitivity(held, dev) - local_phase_sensitivity(ramps, dev)
    assert gained == pytest.approx(2.0 * slope, rel=1e-12)
    assert local_phase_sensitivity(rectangular, dev) == pytest.approx(2.0 * slope, rel=1e-15)
