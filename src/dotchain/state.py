"""Dense N-qubit state engine in the |0> = singlet, |1> = triplet encoding.

States are complex amplitude vectors of length 2^n with qubit 0 as the most
significant bit of the basis index; that order is fixed. The entangling
evolution is diagonal: basis state z picks up
exp(i * sum_b phi_b * z_b * z_{b+1}) for bond phases phi. All operations
return new states and preserve the norm.

Capped at 24 qubits. The dense engine serves measurement and the oracle
tests. A chain prepared by Ising phases alone needs none of it:
ideal_cluster_fidelity and cluster_stabilizers verify it in O(n) from its
bond phases, which is how the prepare command checks its chain and figure3
scores its noisy trials. The O(n) contraction rescales every step, so it
has no qubit cap of its own. Its bond factors exp(i * (phi - pi)) come
from np.cos and np.sin, which give np.exp's bits at lower cost, and its
complex product is written so that a chain's value does not depend on the
size of the batch it is contracted in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
NORM_ATOL = 1e-10


@dataclass
class ChainState:
    n_qubits: int
    amplitudes: np.ndarray  # complex128, length 2**n_qubits, qubit 0 = MSB

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=np.complex128)
        if not 1 <= self.n_qubits <= MAX_QUBITS:
            raise ValueError(
                f"n_qubits must lie in [1, {MAX_QUBITS}], got {self.n_qubits}"
            )
        if self.amplitudes.shape != (2**self.n_qubits,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({2**self.n_qubits},)"
            )
        if not abs(self.norm() - 1.0) <= NORM_ATOL:  # a NaN norm fails too
            raise ValueError(f"state norm {self.norm()} is not 1 within {NORM_ATOL}")

    def norm(self) -> float:
        return math.sqrt(np.vdot(self.amplitudes, self.amplitudes).real)


def init_plus_chain(n: int) -> ChainState:
    """Product state with every qubit in (|0> + |1>)/sqrt(2)."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must lie in [1, {MAX_QUBITS}], got {n}")
    amps = np.full(2**n, 2.0 ** (-n / 2.0), dtype=np.complex128)
    return ChainState(n, amps)


def _scale_bonds(psi: np.ndarray, factors) -> None:
    """Multiply the z_b = z_{b+1} = 1 slice of psi (shape [2]*n) by factors[b], in place."""
    for b, factor in enumerate(factors):
        sel = [slice(None)] * psi.ndim
        sel[b] = 1
        sel[b + 1] = 1
        psi[tuple(sel)] *= factor


def apply_ising_phases(state: ChainState, bond_phases) -> ChainState:
    """Diagonal evolution: basis state z gains exp(i * sum_b phi_b z_b z_{b+1})."""
    phases = np.asarray(bond_phases, dtype=float)
    n = state.n_qubits
    if phases.shape != (n - 1,):
        raise ValueError(
            f"expected {n - 1} bond phases for {n} qubits, got shape {phases.shape}"
        )
    if phases.size and not np.all(np.isfinite(phases)):
        raise ValueError("bond phases must be finite")
    amps = state.amplitudes.copy()
    _scale_bonds(amps.reshape([2] * n), (np.exp(1j * phi) for phi in phases))
    return ChainState(n, amps)


def ideal_cluster(n: int) -> ChainState:
    """Linear cluster state: the plus chain with an exact pi phase per bond.

    Built with exact sign flips, so amplitudes are exactly +-2^(-n/2); equal
    (up to global phase) to init_plus_chain followed by apply_ising_phases
    with every bond at pi.
    """
    state = init_plus_chain(n)
    _scale_bonds(state.amplitudes.reshape([2] * n), [-1.0] * (n - 1))
    return state


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


def ideal_cluster_fidelity(bond_phases) -> np.ndarray | float:
    """Fidelity to the ideal cluster of the chain prepared with given bond phases.

    The overlap of the two diagonal preparations collapses to
    2^-n * sum_z exp(i * sum_b (phi_b - pi) z_b z_{b+1}), which factorizes
    along the chain; it is evaluated by a left-to-right contraction in O(n)
    instead of materializing 2^n amplitudes. Accepts a batch in the leading
    dimensions: shape (..., n_bonds) returns shape (...,). With no bonds the
    chain is one qubit, already the ideal cluster: fidelity 1.

    Matches state_fidelity(ideal_cluster(n), apply_ising_phases(plus, phases))
    to machine precision; the dense route is the test oracle for this one.
    """
    phases = np.asarray(bond_phases, dtype=float)
    (fidelity,) = prefix_cluster_fidelities(phases, phases.shape[-1:])
    return fidelity


def prefix_cluster_fidelities(bond_phases, prefixes) -> list:
    """Fidelity to the ideal cluster of each prefix chain of the given bonds.

    Prefix k keeps the first k bonds, a chain of k + 1 qubits, so one
    left-to-right contraction up to the longest prefix yields every shorter
    chain on the way; the result lists one ideal_cluster_fidelity value per
    entry of prefixes, in order. Each step halves the partial sums, so the
    overlap 2^-n * sum_z(...) is carried as (w0 + w1) / 2 and never
    overflows; halving is exact, so the values equal the unscaled sum
    divided by 2^n. The bond factors of the bonds read are formed at once,
    and the loop takes one bond at a time; the Monte Carlo estimator feeds
    it per-bond factors directly. A 1-d input is contracted in numpy's
    scalar arithmetic, which can differ in the last bit from the same
    vector as a batch row. Non-finite phases are refused, as
    apply_ising_phases and cluster_stabilizers refuse them.
    """
    phases = np.asarray(bond_phases, dtype=float)
    if phases.ndim == 0:
        raise ValueError("bond phases must have a bond axis")
    if not np.isfinite(phases).all():
        raise ValueError("bond phases must be finite")
    prefixes = list(prefixes)
    if any(not 0 <= k <= phases.shape[-1] for k in prefixes):
        raise ValueError(f"prefixes must lie in [0, {phases.shape[-1]}], got {prefixes}")
    read = np.moveaxis(phases[..., : max(prefixes, default=0)], -1, 0)
    return _contract_bonds(_bond_factor(read - math.pi), phases.shape[:-1], prefixes)


def _bond_factor(delta: np.ndarray) -> np.ndarray:
    """exp(i * delta) of an array of bond phase errors, as cos + i sin.

    np.cos and np.sin give the bits of np.exp of the purely imaginary
    argument at about two thirds of its cost.
    """
    rot = np.empty(delta.shape, dtype=np.complex128)
    np.cos(delta, out=rot.real)
    np.sin(delta, out=rot.imag)
    return rot


def _contract_bonds(bond_factors, batch_shape, prefixes) -> list:
    """prefix_cluster_fidelities over bond factors handed over one bond at a time.

    bond_factors yields exp(i * (phi_b - pi)) of bond 0, 1, ... as complex
    arrays of batch_shape, or as numpy complex scalars for an empty batch
    shape (never 0-d arrays, whose arithmetic rounds like a batch's), so no
    batch x bonds buffer is needed; only as many bonds as the longest
    prefix are read. Prefixes must already be validated. The complex
    product w1 * rot is the one step whose rounding depends on the code
    path: with rot a named operand, numpy's temporary elision cannot swap
    its operands, and it is written to a new array, never in place, so a
    trial's value does not depend on the size of its batch.
    """
    wanted = set(prefixes)
    last = max(wanted, default=0)
    factors = iter(bond_factors)
    w0 = np.ones(batch_shape, dtype=np.complex128)
    w1 = np.ones(batch_shape, dtype=np.complex128)
    fidelities = {}
    for b in range(last + 1):
        half = (w0 + w1) * 0.5  # overlap of the chain of the first b bonds
        if b in wanted:
            fidelity = np.abs(half) ** 2
            fidelities[b] = float(fidelity) if fidelity.ndim == 0 else fidelity
        if b < last:
            rot = next(factors)
            w0, w1 = half, (w0 + w1 * rot) * 0.5
    return [fidelities[k] for k in prefixes]


def cluster_stabilizers(bond_phases) -> np.ndarray:
    """Every stabilizer expectation of the chain prepared with given bond phases.

    For |+>^n followed by the Ising phases, K_s = X_s Z_{s-1} Z_{s+1} has
    expectation Re(h_{s-1} * h_s) with h_b = (1 - exp(i phi_b)) / 2, where a
    missing end bond counts as h = 1 (Raussendorf & Briegel, PRL 86, 5188
    (2001)). O(n) for all n sites at once; an empty bond vector is the
    one-qubit chain, with K_0 = <+|X|+> = 1.

    Matches stabilizer_expectation on apply_ising_phases(plus, phases) to
    machine precision; the dense route is the test oracle for this one.
    Non-finite phases are refused, as apply_ising_phases refuses them.
    """
    phases = np.asarray(bond_phases, dtype=float)
    if phases.ndim != 1:
        raise ValueError(f"expected a 1-d bond phase vector, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("bond phases must be finite")
    h = np.ones(phases.size + 2, dtype=np.complex128)
    h[1:-1] = (1.0 - np.exp(1j * phases)) / 2.0
    return (h[:-1] * h[1:]).real
