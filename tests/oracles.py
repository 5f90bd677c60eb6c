"""Independent brute-force oracles the implementation is checked against.

Everything here deliberately avoids the code paths under test: the phase
integral is a fixed-step trapezoid over inlined formulas, operators are
kron-built dense matrices, the mean fidelity is a 4^n enumeration, and a
Monte Carlo grid point is estimated alone, by drawing and contracting its
own trials.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from dotchain.noise import TRIAL_CHUNK, PhaseNoiseModel, sample_bond_error_batch
from dotchain.state import ideal_cluster_fidelity

HBAR_MEV_NS = 6.582119e-16 * 1e12
I2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])
P_ONE = np.diag([0.0, 1.0])

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def trapezoid_phase(
    tau_up_ns: float,
    hold_ns: float,
    tau_down_ns: float,
    eps_low_mev: float,
    eps_high_mev: float,
    dev,
    steps: int = 10_000_000,
) -> float:
    """Bond phase in radians from a fixed-step trapezoid over the whole pulse."""
    a = dev.intradot_spacing_nm
    b = dev.intermolecule_spacing_nm
    tc = dev.tunnel_coupling_mev
    k = 1439.96 / dev.relative_permittivity
    bracket = k * (2.0 / b - 2.0 / math.hypot(a, b))

    duration = tau_up_ns + hold_ns + tau_down_ns
    t = np.linspace(0.0, duration, steps + 1)
    eps = np.interp(
        t,
        [0.0, tau_up_ns, tau_up_ns + hold_ns, duration],
        [eps_low_mev, eps_high_mev, eps_high_mev, eps_low_mev],
    )
    d = np.hypot(2.0 * tc, eps)
    num = np.where(eps >= 0.0, eps + d, 4.0 * tc * tc / (d - eps))
    theta = np.arctan(num / (2.0 * tc))
    integrand = bracket * np.sin(theta) ** 2
    return float(_trapezoid(integrand, t) / HBAR_MEV_NS)


def kron_chain(n: int, site_ops: dict[int, np.ndarray]) -> np.ndarray:
    """Dense operator acting with site_ops[k] on qubit k (identity elsewhere)."""
    out = np.array([[1.0]], dtype=complex)
    for k in range(n):
        out = np.kron(out, site_ops.get(k, I2))
    return out


def ising_hamiltonian(n: int, bond_phases) -> np.ndarray:
    """Dense sum over bonds of phi_b * P1 x P1 on sites (b, b+1)."""
    dim = 2**n
    h = np.zeros((dim, dim), dtype=complex)
    for bond, phi in enumerate(bond_phases):
        h += phi * kron_chain(n, {bond: P_ONE, bond + 1: P_ONE})
    return h


def stabilizer_operator(n: int, site: int) -> np.ndarray:
    ops = {site: PAULI_X.astype(complex)}
    for neighbor in (site - 1, site + 1):
        if 0 <= neighbor < n:
            ops[neighbor] = PAULI_Z.astype(complex)
    return kron_chain(n, ops)


def brute_mean_fidelity(n: int, sigma_rad: float) -> float:
    """4^n enumeration of the Gaussian-averaged cluster fidelity."""
    q = math.exp(-0.5 * sigma_rad * sigma_rad)
    total = 0.0
    for z, zp in product(range(2**n), repeat=2):
        disagreements = 0
        for bond in range(n - 1):
            u = (z >> bond) & (z >> (bond + 1)) & 1
            up = (zp >> bond) & (zp >> (bond + 1)) & 1
            if u != up:
                disagreements += 1
        total += q**disagreements
    return total / 4.0**n


def per_point_monte_carlo(n: int, sigma_rad: float, trials: int, seed: int) -> tuple[float, float]:
    """Mean fidelity and its standard error for one grid point on its own.

    Draws and contracts TRIAL_CHUNK trials at a time, with no trial shared
    with any other point, then reduces with np.mean and np.std(ddof=1).
    """
    model = PhaseNoiseModel(sigma_rad)
    fidelities = np.empty(trials)
    for start in range(0, trials, TRIAL_CHUNK):
        count = min(TRIAL_CHUNK, trials - start)
        phases = sample_bond_error_batch(model, n - 1, seed, start, count)
        fidelities[start : start + count] = ideal_cluster_fidelity(phases)
    mean = min(float(np.mean(fidelities)), 1.0)  # a mean fidelity is at most 1
    return mean, float(np.std(fidelities, ddof=1) / math.sqrt(trials))
