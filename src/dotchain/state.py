"""Dense N-qubit state engine in the |0> = singlet, |1> = triplet encoding.

States are complex amplitude vectors of length 2^n with qubit 0 as the most
significant bit of the basis index; that order is fixed. The entangling
evolution is diagonal: basis state z picks up
exp(i * sum_b phi_b * z_b * z_{b+1}) for bond phases phi. All operations
return new states and preserve the norm.

Capped at 24 qubits. The dense engine serves measurement only. A chain
prepared by Ising phases needs none of it: ideal_cluster_fidelity and
cluster_stabilizers verify it in O(n) from its bond phases, which is how
the prepare command checks its chain; figure3 scores its noisy trials
through _contract_bonds, the contraction under ideal_cluster_fidelity. The
dense verifiers are test oracles in tests/oracles.py. The O(n)
contraction carries unscaled partial sums and scales them by an exact
power of two every RESCALE_BONDS bonds, so it has no qubit cap of its own.
Every bond factor exp(i * phi), dense or O(n), comes from _bond_factor. The
contraction's complex product is written so that a chain's value does not
depend on the size of the batch it is contracted in; a lone bond vector is
contracted as a batch of one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24
NORM_ATOL = 1e-10
# The O(n) contraction's partial sums grow by at most 2 a bond, so scaling
# them by 2^-RESCALE_BONDS this often keeps them below 2^RESCALE_BONDS.
RESCALE_BONDS = 512


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
    psi = amps.reshape([2] * n)
    for b, factor in enumerate(_bond_factor(phases)):
        sel = [slice(None)] * n
        sel[b] = 1
        sel[b + 1] = 1
        psi[tuple(sel)] *= factor  # the z_b = z_{b+1} = 1 slice
    return ChainState(n, amps)


def ideal_cluster_fidelity(bond_phases) -> np.ndarray | float:
    """Fidelity to the ideal cluster of the chain prepared with given bond phases.

    The overlap of the two diagonal preparations collapses to
    2^-n * sum_z exp(i * sum_b (phi_b - pi) z_b z_{b+1}), which factorizes
    along the chain; _contract_bonds evaluates it in O(n) instead of
    materializing 2^n amplitudes, and the fidelity is |sums * scale|^2 of
    its last read. Accepts a batch in the leading dimensions: shape
    (..., n_bonds) returns shape (...,); a 1-d input is contracted as a
    one-row batch and returned as a float, with the bits it gets as a row of
    any batch. With no bonds the chain is one qubit, already the ideal
    cluster: fidelity 1. Non-finite phases are refused, as in
    apply_ising_phases and cluster_stabilizers.

    Matches the dense overlap of the ideal cluster with
    apply_ising_phases(plus, phases) to machine precision; that dense route,
    in tests/oracles.py, is the test oracle for this one.
    """
    phases = np.asarray(bond_phases, dtype=float)
    if phases.ndim == 0:
        raise ValueError("bond phases must have a bond axis")
    if not np.isfinite(phases).all():
        raise ValueError("bond phases must be finite")
    rows = np.atleast_2d(phases)
    factors = _bond_factor(np.moveaxis(rows, -1, 0) - math.pi)
    for sums, scale in _contract_bonds(factors, rows.shape[:-1], rows.shape[-1]):
        pass  # only the whole chain is read
    fidelity = np.abs(sums * scale) ** 2
    return float(fidelity[0]) if phases.ndim == 1 else fidelity


def _bond_factor(delta: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i * delta) of an array of real phases, as cos + i sin.

    np.cos and np.sin give the bits of np.exp of the purely imaginary
    argument at about two thirds of its cost; only at delta = -0.0 do they
    differ, in the sign of the zero imaginary part. Written into out, a
    complex array of delta's shape, when one is given.
    """
    rot = np.empty(delta.shape, dtype=np.complex128) if out is None else out
    np.cos(delta, out=rot.real)
    np.sin(delta, out=rot.imag)
    return rot


def _contract_bonds(bond_factors, batch_shape, last: int):
    """Yield (sums, scale) of the chain of the first b bonds, for b = 0 .. last.

    bond_factors yields exp(i * (phi_b - pi)) of bond 0, 1, ... as complex
    arrays of batch_shape, so no batch x bonds buffer is needed; bonds
    0 .. last - 1 are read, each before the next is asked for, so the
    caller may hand them over in one reused buffer. The overlap of that
    chain with the ideal cluster is sums * scale, scale an exact power of
    two, and its fidelity is the overlap's |.|^2, which a caller forms only
    for the entries it reads. sums is not modified after it is yielded.

    The partial sums w0, w1 over the last qubit's two states are carried
    unscaled, three array passes a bond (w0 + w1, w1 * rot, + w0); every
    RESCALE_BONDS bonds both are scaled by 2^-RESCALE_BONDS. Scaling by a
    power of two commutes with rounding, so every value has the bits of a
    contraction that halves both sums every bond, as long as no
    intermediate is subnormal. The complex product w1 * rot is the one step
    whose rounding depends on the code path: with rot a named operand,
    numpy's temporary elision cannot swap its operands, and it is written to
    a new array, never in place (an in-place product moved the last bit of
    some one-element batches with their alignment), so a trial's value does
    not depend on the size of its batch.
    """
    factors = iter(bond_factors)
    w0 = np.ones(batch_shape, dtype=np.complex128)
    w1 = np.ones(batch_shape, dtype=np.complex128)
    exponent = 1  # sums * 2^-exponent is the overlap
    for b in range(last + 1):
        total = w0 + w1
        yield total, 2.0**-exponent
        if b < last:
            rot = next(factors)
            w1 = w1 * rot
            w1 += w0
            w0 = total
            exponent += 1
            if exponent > RESCALE_BONDS:
                w0 = w0 * 2.0**-RESCALE_BONDS  # w0 is the yielded sums
                w1 *= 2.0**-RESCALE_BONDS
                exponent -= RESCALE_BONDS


def cluster_stabilizers(bond_phases) -> np.ndarray:
    """Every stabilizer expectation of the chain prepared with given bond phases.

    For |+>^n followed by the Ising phases, K_s = X_s Z_{s-1} Z_{s+1} has
    expectation Re(h_{s-1} * h_s) with h_b = (1 - exp(i phi_b)) / 2, where a
    missing end bond counts as h = 1 (Raussendorf & Briegel, PRL 86, 5188
    (2001)). O(n) for all n sites at once; an empty bond vector is the
    one-qubit chain, with K_0 = <+|X|+> = 1.

    Matches the dense stabilizer expectation on apply_ising_phases(plus,
    phases) to machine precision; that dense route, in tests/oracles.py, is
    the test oracle for this one.
    Non-finite phases are refused, as apply_ising_phases refuses them.
    """
    phases = np.asarray(bond_phases, dtype=float)
    if phases.ndim != 1:
        raise ValueError(f"expected a 1-d bond phase vector, got shape {phases.shape}")
    if not np.all(np.isfinite(phases)):
        raise ValueError("bond phases must be finite")
    h = np.ones(phases.size + 2, dtype=np.complex128)
    h[1:-1] = (1.0 - _bond_factor(phases)) / 2.0
    return (h[:-1] * h[1:]).real
