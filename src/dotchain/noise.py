"""Gaussian bond-phase noise and cluster-state fidelity estimators.

Interaction-strength fluctuations (charge noise, timing jitter) land as an
unwanted phase on each bond: phi_b = pi + delta_b with delta_b ~ N(0, sigma),
independent per bond and per trial. sigma is the standard deviation of the
phase error in radians.

Two estimators of the mean fidelity, kept deliberately independent:

- monte_carlo_fidelities samples bond errors per trial and averages the
  resulting fidelity to the ideal cluster, for a whole grid of
  (n, sigma) points at once; monte_carlo_fidelity and trial_fidelities are
  its one-point views. Trial t is stream t of the noise domain of the
  counter-based Philox layout in rng: bond b's error is sigma times
  Box-Muller normal b of the stream, which comes from its block b // 4,
  counter block (t + 1) + (b // 4) * 2**64 of key seed. A trial's normal for
  bond b is thus the same at every chain length, and every point of one
  seed reads the same normals for trial t, whatever its n and sigma: the
  grid draws each chunk of trials once, up to its longest chain, and one
  contraction over its distinct nonzero sigmas gives every (n, sigma)
  point as prefix n - 1 of its sigma's row. A sigma = 0 point is neither
  drawn nor contracted: every bond factor of it is exactly 1 + 0j, so
  every trial is exactly 1.0. Points that share trials have correlated
  estimates, as separate calls with one seed always had. A chunk holds
  CHUNK_ELEMENTS // max(distinct nonzero sigmas, bonds) trials, at least
  one. Its normals are drawn once, transposed once so that each bond's
  normals are one contiguous row, and handed to the contraction one bond
  at a time, as one sigma x trial array per bond, so no sigma x trial x
  bond buffer is built and every per-chunk array stays within 128 KiB at
  any chain length. The phase errors and bond factors of a chunk are
  written into two buffers that every bond reuses, and the contraction
  carries unscaled partial sums, three array passes a bond; |overlap|^2
  is formed, after an exact power-of-two scaling, only for the rows some
  point reads at that bond. The per-trial fidelities of every distinct
  point are rows of one (distinct points) x trials x 8 B table, filled
  chunk by chunk and reduced by one np.mean and by np.std a block of
  REDUCE_ELEMENTS at a time along its rows.
  Each trial's value is independent of the trial count, the chunk size
  (whatever CHUNK_ELEMENTS is) and the rest of the grid;
- exact_mean_fidelities integrates the Gaussian analytically, for a whole
  grid of points at once; exact_mean_fidelity is its one-point view. The
  average of exp(i delta (u - u')) over delta is exp(-sigma^2/2) whenever
  the bond occupations u, u' of a basis-state pair differ, so
  E[F] = 4^-n * sum_{z,z'} exp(-sigma^2 * d(z,z') / 2) with d counting
  disagreeing bonds; the double sum factorizes into a 4x4 transfer-matrix
  product over the pair chain, linear in n, and one stacked product over
  the distinct sigmas gives every chain length of each sigma as a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import NOISE, normals
from .state import MAX_QUBITS, _bond_factor, _contract_bonds

# Element budget of one chunk of trials: a chunk holds
# _chunk_trials(distinct nonzero sigmas, bonds) trials, so it draws at most
# CHUNK_ELEMENTS normals (64 KiB) and every per-bond complex array of the
# contraction (sigmas x trials) stays within 128 KiB, for any chain length.
# Values do not depend on it: state._contract_bonds names both operands of
# its complex product, so numpy's temporary elision, which works in place on
# temporaries of 256 KiB or more, cannot swap them and move the last bit of a
# fidelity (it did while the product took an unnamed np.exp temporary), and
# it writes the product to a new array: on numpy 2.4.6 an in-place w1 *= rot
# gave some one-element batches other bits, depending on their alignment.
# The budget only bounds memory.
CHUNK_ELEMENTS = 8192
# np.std holds a temporary as large as the rows it reduces, so the per-trial
# table is reduced a block of at most REDUCE_ELEMENTS (1 MiB) or one row at a
# time; a whole-table call doubled the peak memory of a 2e5-trial figure3 grid.
REDUCE_ELEMENTS = 2**17


@dataclass(frozen=True)
class PhaseNoiseModel:
    """Zero-mean Gaussian bond-phase error with standard deviation sigma_rad."""

    sigma_rad: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma_rad) or self.sigma_rad < 0:
            raise ValueError(f"sigma_rad must be finite and >= 0, got {self.sigma_rad}")


@dataclass(frozen=True)
class FidelityEstimate:
    mean: float
    standard_error: float
    n_trials: int
    base_seed: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.mean <= 1.0:
            raise ValueError(f"mean fidelity {self.mean} outside [0, 1]")
        if self.standard_error < 0:
            raise ValueError("standard_error must be >= 0")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")


def _chunk_trials(n_sigmas: int, n_bonds: int) -> int:
    """Trials per chunk: CHUNK_ELEMENTS spread over the wider of sigmas and bonds."""
    return max(1, CHUNK_ELEMENTS // max(n_sigmas, n_bonds))


def _noisy_bond_factors(scale: np.ndarray, by_bond: np.ndarray):
    """Yield exp(i * (phi_b - pi)) of bond 0, 1, ... as a sigmas x trials array.

    scale is a column of sigmas and by_bond holds one row of normals a bond.
    The phase errors and the factors of every bond are written into the
    same two buffers, so each factor is valid until the next is asked for.
    """
    delta = np.empty((scale.shape[0], by_bond.shape[1]))
    rot = np.empty(delta.shape, dtype=np.complex128)
    for z in by_bond:
        # (pi + sigma z) - pi, not sigma z: the trial's phase error as rounded in float64
        np.multiply(scale, z, out=delta)
        np.add(np.pi, delta, out=delta)
        np.subtract(delta, np.pi, out=delta)
        yield _bond_factor(delta, rot)


def _trial_table(keys, trials: int, seed: int) -> np.ndarray:
    """Per-trial fidelities of each distinct (n_qubits, sigma_rad) key, one row each.

    Draws and contracts each chunk of trials once for the whole grid, as the
    module docstring describes. A sigma = 0 row is neither drawn nor
    contracted, since each of its bond factors is exactly 1 + 0j and so each
    of its trials exactly 1.0.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for n_qubits, _ in keys:
        if not 2 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
    table = np.ones((len(keys), trials))
    noisy = [(i, n_qubits, sigma) for i, (n_qubits, sigma) in enumerate(keys) if sigma != 0.0]
    if not noisy:
        return table
    row = {sigma: r for r, sigma in enumerate(dict.fromkeys(sigma for _, _, sigma in noisy))}
    # bonds b -> (row of sigma, row of the table) of each point (b + 1, sigma)
    reads: dict[int, list[tuple[int, int]]] = {}
    for i, n_qubits, sigma in noisy:
        reads.setdefault(n_qubits - 1, []).append((row[sigma], i))
    scale = np.array(list(row))[:, np.newaxis]
    bonds = max(reads)
    count = _chunk_trials(len(row), bonds)
    for start in range(0, trials, count):
        size = min(count, trials - start)
        # one transpose a chunk, so that each bond's normals are a contiguous row
        by_bond = normals(seed, NOISE, start, size, bonds).T.copy()
        sums = _contract_bonds(_noisy_bond_factors(scale, by_bond), (len(row), size), bonds)
        for b, (total, weight) in enumerate(sums):
            for r, i in reads.get(b, ()):
                table[i, start : start + size] = np.abs(total[r] * weight) ** 2
    return table


def trial_fidelities(
    n_qubits: int, model: PhaseNoiseModel, trials: int, seed: int
) -> np.ndarray:
    """Fidelity to the ideal cluster of each Monte Carlo trial.

    The one-point view of the grid estimator: trials are drawn in chunks
    bounded by CHUNK_ELEMENTS and contracted one bond at a time, so no
    trials x bonds phase buffer is built. Entry t depends only on
    (n_qubits, model, seed, t), not on the trial count, the chunking or the
    other points of a grid.
    """
    return _trial_table([(n_qubits, model.sigma_rad)], trials, seed)[0]


def monte_carlo_fidelities(points, trials: int, seed: int) -> list[FidelityEstimate]:
    """Sampled mean fidelity of each (n_qubits, model) point of a grid, in order.

    Point by point, bit-identical to monte_carlo_fidelity: every point reads
    trials 0 .. trials - 1 of the seed, so all points share their trials
    (and are correlated). Each trial is drawn once for the whole grid, up to
    its longest chain, and contracted once per distinct nonzero sigma. The
    per-trial table of the distinct points is reduced along its trial axis
    by one np.mean and by np.std, one call per block of REDUCE_ELEMENTS; both
    give each row the bits of a call on that row alone.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    points = list(points)
    keys = list(dict.fromkeys((n_qubits, model.sigma_rad) for n_qubits, model in points))
    table = _trial_table(keys, trials, seed)
    means = np.mean(table, axis=1)
    stderrs = np.empty(len(keys))
    rows = max(1, REDUCE_ELEMENTS // trials)
    for i in range(0, len(keys), rows):
        stderrs[i : i + rows] = np.std(table[i : i + rows], axis=1, ddof=1) / math.sqrt(trials)
    estimates = {
        # min: guard against rounding just past 1 in the sigma = 0 case
        key: FidelityEstimate(min(float(mean), 1.0), float(stderr), trials, seed)
        for key, mean, stderr in zip(keys, means, stderrs)
    }
    return [estimates[n_qubits, model.sigma_rad] for n_qubits, model in points]


def monte_carlo_fidelity(
    n_qubits: int, model: PhaseNoiseModel, trials: int, seed: int
) -> FidelityEstimate:
    """Sampled mean fidelity of the noisy preparation to the ideal cluster.

    The one-point view of monte_carlo_fidelities. Per-trial fidelity is
    evaluated through the O(n) bond-phase overlap, contracted a chunk of
    trials at a time by state._contract_bonds, which equals the dense-state
    computation exactly; at n = 20 and 1e5 trials the dense route would
    take the better part of an hour.
    Bit-identical for identical (n, model, trials, seed).
    """
    return monte_carlo_fidelities([(n_qubits, model)], trials, seed)[0]


# Entry (i, j) pairs the states (z, z') of one site and (w, w') of the next,
# in the order below; True where the bond occupations z*w and z'*w' differ.
_PAIR_STATES = ((0, 0), (0, 1), (1, 0), (1, 1))
_DISAGREE = np.array([[(z & w) != (zp & wp) for w, wp in _PAIR_STATES] for z, zp in _PAIR_STATES])


def _pair_transfer_matrix(sigma_rad: float) -> np.ndarray:
    """4x4 transfer matrix over pair states (z, z') of adjacent sites."""
    return np.where(_DISAGREE, math.exp(-0.5 * sigma_rad * sigma_rad), 1.0)


def exact_mean_fidelities(points) -> list[float]:
    """Gaussian-averaged fidelity of each (n_qubits, model) point, in order.

    One pass contracts the pair-chain transfer matrices of every distinct
    sigma at once, as a stack, up to the longest chain, and reads every
    shorter chain on the way, so each value is the one a pass of its own
    would give, bit for bit. Each step divides by 4, so the 4^-n
    normalisation is carried along and the contraction cannot overflow;
    scaling by a power of two is exact, so each value equals the unscaled
    sum divided by 4^n.
    """
    points = list(points)
    for n_qubits, _ in points:
        if not 2 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
    if not points:
        return []
    sigmas = list(dict.fromkeys(model.sigma_rad for _, model in points))
    wanted = {n_qubits for n_qubits, _ in points}
    t = np.stack([_pair_transfer_matrix(sigma) for sigma in sigmas])
    v = np.full((len(sigmas), 4, 1), 0.25)
    values = {}
    for n_qubits in range(2, max(wanted) + 1):
        v = (t @ v) * 0.25
        if n_qubits in wanted:
            for sigma, value in zip(sigmas, v.sum(axis=1)[:, 0]):
                values[sigma, n_qubits] = float(value)
    return [values[model.sigma_rad, n_qubits] for n_qubits, model in points]


def exact_mean_fidelity(n_qubits: int, model: PhaseNoiseModel) -> float:
    """Gaussian-averaged fidelity, evaluated exactly in O(n).

    The one-point view of exact_mean_fidelities: contracts the pair-chain
    transfer matrix n-1 times. Agrees with the brute-force 4^n double sum
    (the test oracle for n <= 6) to machine precision, and with
    monte_carlo_fidelity within sampling error.
    """
    return exact_mean_fidelities([(n_qubits, model)])[0]
