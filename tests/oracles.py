"""Independent brute-force oracles the implementation is checked against.

Everything here deliberately avoids the code paths under test: the phase
integral is a fixed-step trapezoid over inlined formulas, one grid per
pulse segment, operators are kron-built dense matrices, the mean fidelity
is a 4^n enumeration, and a Monte Carlo grid point is estimated alone, by
drawing and contracting its own trials.

The dense verifiers of a chain live here, not in the package, which
verifies a chain in O(n) from its bond phases: ideal_cluster builds the
linear cluster from bit parity, stabilizer_expectation takes
<psi|X_s Z_{s-1} Z_{s+1}|psi> of a dense state, and state_fidelity the
overlap |<a|b>|^2 of two.

Five routines are kept in the form they had before they were optimised or
folded, as byte-identity references: the measurement loop that builds a
MeasurementSpec and the projector for every measurement, the mean fidelity
contraction that divides by 4^n at the end, and the bond contraction, the
dense Ising evolution and the closed-form stabilizers that take every bond
factor from np.exp.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from dotchain.measurement import MeasurementRecord, MeasurementSpec
from dotchain.noise import PhaseNoiseModel
from dotchain.rng import MEASUREMENT, NOISE, normals, uniforms
from dotchain.state import NORM_ATOL, ChainState, ideal_cluster_fidelity

HBAR_MEV_NS = 6.582119e-16 * 1e12
I2 = np.eye(2)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])
P_ONE = np.diag([0.0, 1.0])

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _pulse_segments(tau_up_ns, hold_ns, tau_down_ns, eps_low_mev, eps_high_mev, steps):
    """(t, eps) grids of the non-empty segments: ramp up, hold, ramp down.

    Each segment has its own grid, so every corner of the pulse is a node
    and a rectangular pulse (no ramp) holds eps_high over its whole hold.
    The steps are shared in proportion to each segment's length, at least
    one each, so the step size is that of one grid over the whole pulse.
    """
    duration = tau_up_ns + hold_ns + tau_down_ns
    for length, start, end in (
        (tau_up_ns, eps_low_mev, eps_high_mev),
        (hold_ns, eps_high_mev, eps_high_mev),
        (tau_down_ns, eps_high_mev, eps_low_mev),
    ):
        if length > 0.0:
            m = max(1, round(steps * length / duration))
            yield np.linspace(0.0, length, m + 1), np.linspace(start, end, m + 1)


def trapezoid_phase(
    tau_up_ns: float,
    hold_ns: float,
    tau_down_ns: float,
    eps_low_mev: float,
    eps_high_mev: float,
    dev,
    steps: int = 10_000_000,
) -> float:
    """Bond phase in radians from fixed-step trapezoids over the pulse's segments."""
    a = dev.intradot_spacing_nm
    b = dev.intermolecule_spacing_nm
    tc = dev.tunnel_coupling_mev
    k = 1439.96 / dev.relative_permittivity
    bracket = k * (2.0 / b - 2.0 / math.hypot(a, b))

    total = 0.0
    segments = _pulse_segments(tau_up_ns, hold_ns, tau_down_ns, eps_low_mev, eps_high_mev, steps)
    for t, eps in segments:
        d = np.hypot(2.0 * tc, eps)
        num = np.where(eps >= 0.0, eps + d, 4.0 * tc * tc / (d - eps))
        theta = np.arctan(num / (2.0 * tc))
        total += float(_trapezoid(bracket * np.sin(theta) ** 2, t))
    return total / HBAR_MEV_NS


def trapezoid_local_phase(
    ramp_ns: float,
    hold_ns: float,
    eps_low_mev: float,
    eps_high_mev: float,
    tc: float,
    steps: int,
) -> tuple[float, float]:
    """Local phase and its detuning slope (rad, rad/meV) from fixed-step trapezoids.

    Integrates F = (eps + d) / 2 and sin^2 theta over each segment of the
    symmetric pulse, d = sqrt(eps^2 + 4 tc^2).
    """
    phase = slope = 0.0
    for t, eps in _pulse_segments(ramp_ns, hold_ns, ramp_ns, eps_low_mev, eps_high_mev, steps):
        d = np.hypot(2.0 * tc, eps)
        num = np.where(eps >= 0.0, eps + d, 4.0 * tc * tc / (d - eps))  # eps + d
        sin2 = np.sin(np.arctan(num / (2.0 * tc))) ** 2
        phase += float(_trapezoid(num / 2.0, t))
        slope += float(_trapezoid(sin2, t))
    return phase / HBAR_MEV_NS, slope / HBAR_MEV_NS


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


def ideal_cluster(n: int) -> ChainState:
    """Linear cluster state from bit parity: (-1)^popcount(z & z >> 1) * 2^(-n/2).

    z & z >> 1 has a one for each adjacent pair of ones in z, so its
    popcount is the number of bonds whose two qubits are both |1>.
    """
    signs = [(-1.0) ** bin(z & z >> 1).count("1") for z in range(2**n)]
    return ChainState(n, np.array(signs) * 2.0 ** (-n / 2.0))


def stabilizer_expectation(state: ChainState, site: int) -> float:
    """Expectation of X_site * Z_{site-1} * Z_{site+1} (ends drop the missing Z).

    +1 on the ideal cluster at every site; a phase error on a bond pulls
    down exactly the two sites touching that bond.
    """
    n = state.n_qubits
    if not 0 <= site < n:
        raise ValueError(f"site {site} out of range for {n} qubits")
    phi = state.amplitudes.copy().reshape([2] * n)
    for neighbor in (site - 1, site + 1):
        if 0 <= neighbor < n:
            sel = [slice(None)] * n
            sel[neighbor] = 1
            phi[tuple(sel)] *= -1.0
    phi = np.flip(phi, axis=site)  # X on the site
    value = _finite(np.vdot(state.amplitudes, phi.reshape(-1)).real)
    # Rounding in the 2^(-n/2) amplitudes can overshoot a Pauli expectation.
    return min(max(value, -1.0), 1.0)


def state_fidelity(a: ChainState, b: ChainState) -> float:
    """|<a|b>|^2 clipped to [0, 1]; 1 iff the states agree up to global phase."""
    if a.n_qubits != b.n_qubits:
        raise ValueError(f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}")
    return min(_finite(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2), 1.0)


def _finite(value) -> float:
    """value as a float, refused if it is not finite, so no clamp hides a NaN."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"the amplitudes give the non-finite value {value}")
    return value


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


def sample_bond_error_batch(
    model: PhaseNoiseModel, n_bonds: int, seed: int, first_stream: int, n_streams: int
) -> np.ndarray:
    """Noisy bond phases pi + delta_b of consecutive streams, one row per stream.

    Row t holds the phases of Monte Carlo trial first_stream + t, delta_b iid
    N(0, sigma), deterministic per (seed, stream); the whole batch is one
    vectorised Philox draw. This is the grid's per-point reference draw.
    """
    if n_bonds < 1:
        raise ValueError(f"n_bonds must be >= 1, got {n_bonds}")
    return np.pi + model.sigma_rad * normals(seed, NOISE, first_stream, n_streams, n_bonds)


def per_point_monte_carlo(n: int, sigma_rad: float, trials: int, seed: int) -> tuple[float, float]:
    """Mean fidelity and its standard error for one grid point on its own.

    Draws and contracts 256 trials at a time as one batch, with no trial
    shared with any other point, then reduces with np.mean and
    np.std(ddof=1). The chunk is its own, so the oracle does not follow the
    estimator's chunking.
    """
    model = PhaseNoiseModel(sigma_rad)
    fidelities = np.empty(trials)
    for start in range(0, trials, 256):
        count = min(256, trials - start)
        phases = sample_bond_error_batch(model, n - 1, seed, start, count)
        fidelities[start : start + count] = ideal_cluster_fidelity(phases)
    mean = min(float(np.mean(fidelities)), 1.0)  # a mean fidelity is at most 1
    return mean, float(np.std(fidelities, ddof=1) / math.sqrt(trials))


def unscaled_mean_fidelity(n_qubits: int, sigma_rad: float) -> float:
    """Pair-chain transfer-matrix average, with one division by 4^n at the end."""
    q = math.exp(-0.5 * sigma_rad * sigma_rad)
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    t = np.empty((4, 4))
    for i, (z, zp) in enumerate(states):
        for j, (w, wp) in enumerate(states):
            t[i, j] = q if (z & w) != (zp & wp) else 1.0
    v = np.ones(4)
    for _ in range(n_qubits - 1):
        v = t @ v
    return float(v.sum() / 4.0**n_qubits)


def exp_contract_bonds(bond_columns, batch_shape, prefixes) -> list:
    """prefix_cluster_fidelities over bond phases handed over one bond at a time.

    bond_columns yields the phases of bond 0, 1, ... as arrays of
    batch_shape, so no batch x bonds buffer is needed; only as many bonds
    as the longest prefix are read. Prefixes must already be validated.
    """
    wanted = set(prefixes)
    last = max(wanted, default=0)
    bonds = iter(bond_columns)
    w0 = np.ones(batch_shape, dtype=np.complex128)
    w1 = np.ones(batch_shape, dtype=np.complex128)
    fidelities = {}
    for b in range(last + 1):
        half = (w0 + w1) * 0.5  # overlap of the chain of the first b bonds
        if b in wanted:
            fidelities[b] = np.abs(half) ** 2
        if b < last:
            rot = 1j * (next(bonds) - math.pi)  # exact: real part 0, imaginary part the delta
            w0, w1 = half, (w0 + w1 * np.exp(rot)) * 0.5
    return [fidelities[k] for k in prefixes]


def exp_ising_amplitudes(state: ChainState, bond_phases) -> np.ndarray:
    """apply_ising_phases' amplitudes, scaling each bond's 11 slice by np.exp(1j * phi)."""
    n = state.n_qubits
    amps = state.amplitudes.copy()
    psi = amps.reshape([2] * n)
    for b, phi in enumerate(np.asarray(bond_phases, dtype=float)):
        sel = [slice(None)] * n
        sel[b] = 1
        sel[b + 1] = 1
        psi[tuple(sel)] *= np.exp(1j * phi)
    return amps


def exp_cluster_stabilizers(bond_phases) -> np.ndarray:
    """cluster_stabilizers with h_b = (1 - np.exp(1j * phi_b)) / 2."""
    phases = np.asarray(bond_phases, dtype=float)
    h = np.ones(phases.size + 2, dtype=np.complex128)
    h[1:-1] = (1.0 - np.exp(1j * phases)) / 2.0
    return (h[:-1] * h[1:]).real


# The measurement loop that builds a MeasurementSpec and P for every
# measurement and carries the post-state from measurement to measurement.


def _apply_on_qubit(amps: np.ndarray, mat: np.ndarray, qubit: int, n: int) -> np.ndarray:
    """The 2x2 mat applied to one qubit, which is axis 1 of the view below."""
    psi = amps.reshape(2**qubit, 2, 2 ** (n - qubit - 1))
    # broadcast over j: out[:, j] = psi[:, 0]*mat[j, 0] + psi[:, 1]*mat[j, 1]
    out = psi[:, :1] * mat[:, :1] + psi[:, 1:] * mat[:, 1:]
    out += 0.0  # -0.0 -> +0.0, as in a sum accumulated from zero
    return out.reshape(-1)


def _check(state: ChainState, qubits) -> None:
    """The one input check of a public call: qubit range and state norm."""
    for q in qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    if abs(state.norm() - 1.0) > NORM_ATOL:
        raise ValueError("state is not normalized")


def projected_branch(state: ChainState, spec: MeasurementSpec, outcome: int) -> np.ndarray:
    """Unnormalized P psi of a checked state, P = (I + outcome * M(axis)) / 2."""
    nx, ny, nz = spec.basis
    mat = outcome * np.array([[-nz, nx + 1j * ny], [nx - 1j * ny, nz]])
    return _apply_on_qubit(state.amplitudes, (np.eye(2) + mat) / 2.0, spec.qubit, state.n_qubits)


def _probability(branch: np.ndarray) -> float:
    return min(max(float(np.vdot(branch, branch).real), 0.0), 1.0)


def _collapse(n: int, branch: np.ndarray, prob: float) -> ChainState | None:
    return ChainState(n, branch / math.sqrt(prob)) if prob > 0.0 else None


def spec_loop_project(
    state: ChainState, spec: MeasurementSpec, outcome: int
) -> tuple[float, ChainState | None]:
    if outcome not in (-1, +1):
        raise ValueError(f"outcome must be +-1, got {outcome}")
    _check(state, (spec.qubit,))
    branch = projected_branch(state, spec, outcome)
    prob = _probability(branch)
    return prob, _collapse(state.n_qubits, branch, prob)


def _sample(
    state: ChainState, spec: MeasurementSpec, u: float
) -> tuple[MeasurementRecord, ChainState | None]:
    """Outcome +1 when the uniform u falls below p+; the state is not re-checked."""
    plus = projected_branch(state, spec, +1)
    p_plus = _probability(plus)
    if u < p_plus:
        outcome, branch, prob = +1, plus, p_plus
    else:
        branch = state.amplitudes - plus
        outcome, prob = -1, _probability(branch)
    return MeasurementRecord(spec.qubit, outcome, prob), _collapse(state.n_qubits, branch, prob)


def spec_loop_measure(
    state: ChainState, spec: MeasurementSpec, seed: int, stream: int = 0
) -> tuple[MeasurementRecord, ChainState | None]:
    _check(state, (spec.qubit,))
    return _sample(state, spec, uniforms(seed, MEASUREMENT, stream, 1)[0, 0])


def spec_loop_run_schedule(state: ChainState, schedule, bases, seed: int) -> list[MeasurementRecord]:
    _check(state, schedule.qubits)
    order = [q for rnd in schedule.rounds for q in sorted(rnd)]
    draws = uniforms(seed, MEASUREMENT, 0, len(order))[:, 0] if order else ()
    records: list[MeasurementRecord] = []
    current = state
    for q, u in zip(order, draws):
        record, current = _sample(current, MeasurementSpec(qubit=q, basis=tuple(bases[q])), u)
        records.append(record)
    return records
