"""Detuning pulses and the two-qubit phase they accumulate.

The entangling operation is a trapezoidal detuning sweep applied to every
molecule at once: ramp from eps_low to eps_high in ramp_ns, hold for
hold_ns, ramp back in ramp_ns. The conditional phase picked up by each
nearest-neighbor bond is the time integral of the Ising coupling along the
sweep, divided by hbar. A cluster state needs that phase to equal pi, which
fixes the hold time.

The integral is closed form. On the adiabatic branch the singlet admixture
is sin^2 theta = (eps + d) / (2 d) with d = sqrt(eps^2 + 4 tc^2), which is
dF/deps for F(eps) = (eps + d) / 2. A linear ramp therefore contributes
J_max * [F(eps_high) - F(eps_low)] per meV of sweep, J_max being the
theta = pi/2 coupling, and the hold adds its constant plateau coupling. The
phase is affine in the hold time, so calibration is one division.

The same sweep gives each qubit its own phase: its singlet sits F below
T(1,1), so |0> gains Theta = integral F dt / hbar, with the elementary
antiderivative eps^2/4 + (eps*d + a^2*asinh(eps/a))/4, a = 2 tc, over a
ramp. An offset of the detuning moves Theta by integral sin^2 theta dt / hbar.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .constants import HBAR_MEV_NS
from .physics import (
    HALF_PI,
    DeviceParams,
    _eps_plus_d,
    adiabatic_angle,
    ising_coupling,
    singlet_admixture,
)


class CalibrationError(ValueError):
    """Requested bond phase cannot be reached with a non-negative hold time."""

    def __init__(self, message: str, ramp_phase_rad: float):
        super().__init__(message)
        self.ramp_phase_rad = ramp_phase_rad


@dataclass(frozen=True)
class DetuningPulse:
    """Symmetric piecewise-linear detuning trapezoid eps(t).

    eps_low -> eps_high over ramp_ns, constant over hold_ns, and back over
    another ramp_ns, the mirror image of the up ramp.
    """

    ramp_ns: float
    hold_ns: float
    eps_low_mev: float
    eps_high_mev: float

    def __post_init__(self) -> None:
        values = (self.ramp_ns, self.hold_ns, self.eps_low_mev, self.eps_high_mev)
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"pulse parameters must be finite, got {self}")
        if self.ramp_ns < 0 or self.hold_ns < 0:
            raise ValueError("pulse durations must be >= 0")
        if self.eps_low_mev >= self.eps_high_mev:
            raise ValueError("eps_low_mev must be below eps_high_mev")
        if not math.isfinite(self.duration_ns):
            raise ValueError(f"pulse duration must be finite, got {self.duration_ns} ns")

    @property
    def duration_ns(self) -> float:
        return self.ramp_ns + self.hold_ns + self.ramp_ns

    def detuning_at(self, t_ns: float) -> float:
        """Detuning eps(t) in meV for t inside [0, duration].

        Time is measured from the nearer end of the pulse, so the down ramp
        is the exact mirror of the up ramp and every pulse starts and ends
        at eps_low, a rectangular one (ramp_ns = 0) included; rounding never
        takes a value outside [eps_low, eps_high].
        """
        if not math.isfinite(t_ns) or t_ns < 0.0 or t_ns > self.duration_ns:
            raise ValueError(
                f"t={t_ns} ns outside pulse duration [0, {self.duration_ns}] ns"
            )
        lo, hi = self.eps_low_mev, self.eps_high_mev
        edge = min(t_ns, self.duration_ns - t_ns)
        if edge == 0.0:
            return lo
        if edge >= self.ramp_ns:
            return hi
        return min(lo + (hi - lo) * (edge / self.ramp_ns), hi)


def detuning_window(
    dev: DeviceParams, eps_low_mev: float | None = None, eps_high_mev: float | None = None
) -> tuple[float, float]:
    """Sweep window (eps_low, eps_high) in meV; an end left None is -Ec/2 or +Ec/2."""
    half = dev.charging_energy_mev / 2.0
    lo = -half if eps_low_mev is None else eps_low_mev
    hi = half if eps_high_mev is None else eps_high_mev
    return lo, hi


def _ramp_coupling_integral_mev2(pulse: DetuningPulse, dev: DeviceParams) -> float:
    """Integral of the Ising coupling over detuning, across [eps_low, eps_high].

    Units meV^2 (meV integrated over meV): J_max * [F(eps_high) - F(eps_low)]
    with F = (eps + d) / 2. A linear ramp of duration T contributes
    T * integral / (eps_high - eps_low) to the time integral.
    """
    tc = dev.tunnel_coupling_mev
    span = _eps_plus_d(pulse.eps_high_mev, tc) - _eps_plus_d(pulse.eps_low_mev, tc)
    return ising_coupling(dev, HALF_PI) * span / 2.0


def plateau_coupling(pulse: DetuningPulse, dev: DeviceParams) -> float:
    """Ising coupling in meV while the pulse holds at eps_high."""
    return ising_coupling(dev, adiabatic_angle(pulse.eps_high_mev, dev.tunnel_coupling_mev))


def accumulated_phase(pulse: DetuningPulse, dev: DeviceParams) -> float:
    """Conditional phase (radians) a nearest-neighbor bond acquires over the pulse.

    (1/hbar) * integral of ising_coupling(adiabatic_angle(eps(t))) dt, in
    closed form on the hold plateau and on both ramps.
    """
    hold_mev_ns = pulse.hold_ns * plateau_coupling(pulse, dev)
    ramp_mev2_ns = (pulse.ramp_ns + pulse.ramp_ns) * _ramp_coupling_integral_mev2(pulse, dev)
    return (hold_mev_ns + ramp_mev2_ns / (pulse.eps_high_mev - pulse.eps_low_mev)) / HBAR_MEV_NS


def _local_phase_antiderivative(eps_mev: float, tc: float) -> float:
    """G(eps) with G' = F = (eps + d) / 2: eps^2/4 + (eps*d + a^2*asinh(eps/a))/4, a = 2 tc.

    Written as (eps*(eps + d) + a^2*asinh(eps/a)) / 4, with eps + d free of
    cancellation at eps < 0.
    """
    a = 2.0 * tc
    return (eps_mev * _eps_plus_d(eps_mev, tc) + a * a * math.asinh(eps_mev / a)) / 4.0


def local_phase(pulse: DetuningPulse, dev: DeviceParams) -> float:
    """Phase (radians) each qubit's |0> gains over the pulse: Theta = integral F dt / hbar.

    On the adiabatic branch the singlet sits F(eps) = (eps + d) / 2 below
    T(1,1), d = sqrt(eps^2 + 4 tc^2). Each linear ramp contributes
    ramp_ns * [G(eps_high) - G(eps_low)] / (eps_high - eps_low) for the
    antiderivative G of F, and the hold F(eps_high) * hold_ns. No routine
    applies this single-qubit frame yet.
    """
    tc = dev.tunnel_coupling_mev
    lo, hi = pulse.eps_low_mev, pulse.eps_high_mev
    ramp = _local_phase_antiderivative(hi, tc) - _local_phase_antiderivative(lo, tc)
    hold_mev_ns = pulse.hold_ns * _eps_plus_d(hi, tc) / 2.0
    return (hold_mev_ns + (pulse.ramp_ns + pulse.ramp_ns) * ramp / (hi - lo)) / HBAR_MEV_NS


def local_phase_sensitivity(pulse: DetuningPulse, dev: DeviceParams) -> float:
    """dTheta/deps (rad/meV) for one offset of the whole detuning: integral sin^2 theta dt / hbar.

    sin^2 theta = dF/deps, so each ramp contributes
    ramp_ns * [F(eps_high) - F(eps_low)] / (eps_high - eps_low) and the
    hold sin^2 theta(eps_high) * hold_ns.
    """
    tc = dev.tunnel_coupling_mev
    lo, hi = pulse.eps_low_mev, pulse.eps_high_mev
    ramp = (_eps_plus_d(hi, tc) - _eps_plus_d(lo, tc)) / 2.0
    hold_ns = pulse.hold_ns * singlet_admixture(adiabatic_angle(hi, tc))
    return (hold_ns + (pulse.ramp_ns + pulse.ramp_ns) * ramp / (hi - lo)) / HBAR_MEV_NS


def solve_hold_time(
    tau1_ns: float,
    dev: DeviceParams,
    target_phase_rad: float = math.pi,
    eps_low_mev: float | None = None,
    eps_high_mev: float | None = None,
) -> float:
    """Hold time (ns) for which the accumulated bond phase equals the target.

    The phase is affine in the hold time: the ramp-only phase plus the
    plateau rate times the hold. Raises CalibrationError, carrying the
    ramp-only phase, when the ramps alone overshoot the target.
    """
    if target_phase_rad <= 0 or not math.isfinite(target_phase_rad):
        raise ValueError("target_phase_rad must be positive and finite")
    if tau1_ns < 0 or not math.isfinite(tau1_ns):
        raise ValueError("tau1_ns must be >= 0 and finite")
    lo, hi = detuning_window(dev, eps_low_mev, eps_high_mev)

    ramps = DetuningPulse(ramp_ns=tau1_ns, hold_ns=0.0, eps_low_mev=lo, eps_high_mev=hi)
    ramp_phase = accumulated_phase(ramps, dev)
    rate = plateau_coupling(ramps, dev) / HBAR_MEV_NS  # rad/ns
    missing = target_phase_rad - ramp_phase
    if missing < -abs(target_phase_rad) * 1e-12 or (missing > 0 and rate <= 0.0):
        raise CalibrationError(
            f"target phase {target_phase_rad:.6g} rad unreachable: ramps alone "
            f"accumulate {ramp_phase:.6g} rad and the plateau adds "
            f"{rate:.6g} rad/ns",
            ramp_phase_rad=ramp_phase,
        )
    if missing <= 0.0:
        return 0.0
    return missing / rate


def check_adiabaticity(
    pulse: DetuningPulse, dev: DeviceParams, coherence_budget_ns: float | None = None
) -> list[str]:
    """Sanity warnings for the rapid-adiabatic-passage assumption.

    The sweep model assumes the ramp is slow against the tunnel coupling
    (tau1 >= 10 hbar/tc) yet the whole pulse fits inside the coherence
    budget. Violations are returned and emitted as warnings, not errors:
    the evolution itself stays ideal.
    """
    messages = []
    tc_time = HBAR_MEV_NS / dev.tunnel_coupling_mev
    if pulse.ramp_ns < 10.0 * tc_time:
        messages.append(
            f"ramp_ns={pulse.ramp_ns:.4g} ns is below 10*hbar/tc = {10 * tc_time:.4g} ns; "
            "the sweep may not be adiabatic"
        )
    if coherence_budget_ns is not None and pulse.duration_ns > coherence_budget_ns:
        messages.append(
            f"pulse duration {pulse.duration_ns:.4g} ns exceeds the coherence "
            f"budget {coherence_budget_ns:.4g} ns"
        )
    for m in messages:
        warnings.warn(m, stacklevel=2)
    return messages
