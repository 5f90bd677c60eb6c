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
  counter-based Philox layout in rng: its bond errors are sigma times the
  first n - 1 Box-Muller normals of counter blocks t*w + 1 ... (t + 1)*w,
  w = ceil((n - 1) / 4), of key seed. So every point of one seed and one
  stream width w reads the same blocks for trial t, whatever its n and
  sigma: the grid draws each chunk of trials once per width, and one
  contraction up to the width's longest chain gives every shorter chain
  as a prefix. Points that share trials have correlated estimates, as
  separate calls with one seed always had. A chunk holds
  CHUNK_ELEMENTS // max(distinct sigmas, bonds) trials, at least one. Its
  normals are drawn once, transposed once so that each bond's normals are
  one contiguous row, and handed to the contraction one bond at a time,
  as one sigma x trial array per bond, so no sigma x trial x bond buffer is
  built and every per-chunk array stays within 128 KiB at any chain
  length. At most (points of one width) x trials x 8 B of per-trial
  fidelities are held at once. Each trial's value is independent of the
  trial count, the chunk size (whatever CHUNK_ELEMENTS is) and the rest of
  the grid;
- exact_mean_fidelities integrates the Gaussian analytically, for a whole
  grid of points at once; exact_mean_fidelity is its one-point view. The
  average of exp(i delta (u - u')) over delta is exp(-sigma^2/2) whenever
  the bond occupations u, u' of a basis-state pair differ, so
  E[F] = 4^-n * sum_{z,z'} exp(-sigma^2 * d(z,z') / 2) with d counting
  disagreeing bonds; the double sum factorizes into a 4x4 transfer-matrix
  product over the pair chain, linear in n, and one product per distinct
  sigma gives every chain length of that sigma as a prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import NOISE, normal_width, normals
from .state import MAX_QUBITS, _bond_factor, _contract_bonds

# Element budget of one chunk of trials: a chunk holds
# _chunk_trials(distinct sigmas, bonds) trials, so it draws at most
# CHUNK_ELEMENTS normals (64 KiB) and every per-bond complex array of the
# contraction (sigmas x trials) stays within 128 KiB, for any chain length.
# Values do not depend on it: state._contract_bonds names both operands of
# its complex product, so numpy's temporary elision, which works in place on
# temporaries of 256 KiB or more, cannot swap them and move the last bit of a
# fidelity (it did while the product took an unnamed np.exp temporary).
# The budget only bounds memory.
CHUNK_ELEMENTS = 8192


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


def sample_bond_error_batch(
    model: PhaseNoiseModel, n_bonds: int, seed: int, first_stream: int, n_streams: int
) -> np.ndarray:
    """Noisy bond phases of consecutive streams, one row per stream.

    Row t is exactly sample_bond_errors(model, n_bonds, seed, first_stream + t);
    the whole batch is one vectorised Philox draw.
    """
    if n_bonds < 1:
        raise ValueError(f"n_bonds must be >= 1, got {n_bonds}")
    return np.pi + model.sigma_rad * normals(seed, NOISE, first_stream, n_streams, n_bonds)


def sample_bond_errors(
    model: PhaseNoiseModel, n_bonds: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Noisy bond phases pi + delta_b, delta_b iid N(0, sigma).

    Deterministic per (seed, stream); Monte Carlo trial t draws from
    stream t of the run's base seed.
    """
    return sample_bond_error_batch(model, n_bonds, seed, stream, 1)[0]


def _chunk_trials(n_sigmas: int, n_bonds: int) -> int:
    """Trials per chunk: CHUNK_ELEMENTS spread over the wider of sigmas and bonds."""
    return max(1, CHUNK_ELEMENTS // max(n_sigmas, n_bonds))


def _reduce_trial_fidelities(points, trials: int, seed: int, reduce) -> list:
    """reduce(per-trial fidelities) of every (n_qubits, model) point, in order.

    Serves one stream width at a time, as the module docstring describes, and
    reduces a width's fidelity arrays before the next width starts.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    groups: dict[int, list[int]] = {}
    for i, (n_qubits, _) in enumerate(points):
        if not 2 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
        groups.setdefault(normal_width(n_qubits - 1), []).append(i)
    results = [None] * len(points)
    for members in groups.values():
        sigmas = list(dict.fromkeys(points[i][1].sigma_rad for i in members))
        row = {sigma: r for r, sigma in enumerate(sigmas)}
        scale = np.array(sigmas)[:, np.newaxis]
        prefixes = sorted({points[i][0] - 1 for i in members})
        bonds = prefixes[-1]
        fidelities = {i: np.empty(trials) for i in members}
        count = _chunk_trials(len(sigmas), bonds)
        for start in range(0, trials, count):
            size = min(count, trials - start)
            # one transpose a chunk, so that each bond's normals are a contiguous row
            by_bond = normals(seed, NOISE, start, size, bonds).T.copy()
            # the error of the phase pi + sigma z, rounded as sample_bond_errors rounds it
            factors = (_bond_factor((np.pi + scale * z) - np.pi) for z in by_bond)
            by_prefix = dict(zip(prefixes, _contract_bonds(factors, (len(sigmas), size), prefixes)))
            for i in members:
                n_qubits, model = points[i]
                fidelities[i][start : start + size] = by_prefix[n_qubits - 1][row[model.sigma_rad]]
        for i in members:
            results[i] = reduce(fidelities.pop(i))
    return results


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
    return _reduce_trial_fidelities([(n_qubits, model)], trials, seed, np.asarray)[0]


def monte_carlo_fidelities(points, trials: int, seed: int) -> list[FidelityEstimate]:
    """Sampled mean fidelity of each (n_qubits, model) point of a grid, in order.

    Point by point, bit-identical to monte_carlo_fidelity: every point reads
    trials 0 .. trials - 1 of the seed, so points of one stream width share
    their trials (and are correlated), and each trial is drawn once per
    width and contracted once per distinct sigma of that width.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")

    def estimate(fidelities: np.ndarray) -> FidelityEstimate:
        mean = float(np.mean(fidelities))
        stderr = float(np.std(fidelities, ddof=1) / math.sqrt(trials))
        # Guard against rounding just past 1 in the sigma = 0 case.
        mean = min(mean, 1.0)
        return FidelityEstimate(mean=mean, standard_error=stderr, n_trials=trials, base_seed=seed)

    return _reduce_trial_fidelities(list(points), trials, seed, estimate)


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

    One pass per distinct sigma contracts the pair-chain transfer matrix up
    to that sigma's longest chain and reads every shorter chain on the way,
    so each value is the one a pass of its own would give, bit for bit.
    Each step divides by 4, so the 4^-n normalisation is carried along and
    the contraction cannot overflow; scaling by a power of two is exact, so
    each value equals the unscaled sum divided by 4^n.
    """
    points = list(points)
    lengths: dict[float, set[int]] = {}
    for n_qubits, model in points:
        if not 2 <= n_qubits <= MAX_QUBITS:
            raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
        lengths.setdefault(model.sigma_rad, set()).add(n_qubits)
    values = {}
    for sigma, wanted in lengths.items():
        t = _pair_transfer_matrix(sigma)
        v = np.ones(4) / 4.0
        for n_qubits in range(2, max(wanted) + 1):
            v = (t @ v) * 0.25
            if n_qubits in wanted:
                values[sigma, n_qubits] = float(v.sum())
    return [values[model.sigma_rad, n_qubits] for n_qubits, model in points]


def exact_mean_fidelity(n_qubits: int, model: PhaseNoiseModel) -> float:
    """Gaussian-averaged fidelity, evaluated exactly in O(n).

    The one-point view of exact_mean_fidelities: contracts the pair-chain
    transfer matrix n-1 times. Agrees with the brute-force 4^n double sum
    (the test oracle for n <= 6) to machine precision, and with
    monte_carlo_fidelity within sampling error.
    """
    return exact_mean_fidelities([(n_qubits, model)])[0]
