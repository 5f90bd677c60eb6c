"""Gaussian bond-phase noise and cluster-state fidelity estimators.

Interaction-strength fluctuations (charge noise, timing jitter) land as an
unwanted phase on each bond: phi_b = pi + delta_b with delta_b ~ N(0, sigma),
independent per bond and per trial. sigma is the standard deviation of the
phase error in radians.

Two estimators of the mean fidelity, kept deliberately independent:

- monte_carlo_fidelity samples bond errors per trial and averages the
  resulting fidelity to the ideal cluster. Trial t is stream t of the
  noise domain of the counter-based Philox layout in rng: its bond errors
  are the first n - 1 Box-Muller normals of counter blocks
  t*w + 1 ... (t + 1)*w, w = ceil((n - 1) / 4), of key seed. A chunk of
  consecutive trials is therefore one vectorised draw, and each trial's
  value is independent of the trial count and of the chunking;
- exact_mean_fidelity integrates the Gaussian analytically. The average of
  exp(i delta (u - u')) over delta is exp(-sigma^2/2) whenever the bond
  occupations u, u' of a basis-state pair differ, so
  E[F] = 4^-n * sum_{z,z'} exp(-sigma^2 * d(z,z') / 2) with d counting
  disagreeing bonds; the double sum factorizes into a 4x4 transfer-matrix
  product over the pair chain, linear in n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import NOISE, normals
from .state import MAX_QUBITS, ideal_cluster_fidelity

# Monte Carlo trials drawn and contracted together. Bounds the phase buffer
# at TRIAL_CHUNK x bonds whatever the trial count; at 256 every per-chunk
# array stays under 50 KB, so peak memory does not grow with the chunk.
TRIAL_CHUNK = 256


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


def trial_fidelities(
    n_qubits: int, model: PhaseNoiseModel, trials: int, seed: int
) -> np.ndarray:
    """Fidelity to the ideal cluster of each Monte Carlo trial.

    Trials are drawn and contracted TRIAL_CHUNK at a time, so the
    trials x bonds phase buffer is never built whole. Entry t depends only
    on (n_qubits, model, seed, t), not on the trial count or the chunking.
    """
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    fidelities = np.empty(trials)
    for start in range(0, trials, TRIAL_CHUNK):
        count = min(TRIAL_CHUNK, trials - start)
        phases = sample_bond_error_batch(model, n_qubits - 1, seed, start, count)
        fidelities[start : start + count] = ideal_cluster_fidelity(phases)
    return fidelities


def monte_carlo_fidelity(
    n_qubits: int, model: PhaseNoiseModel, trials: int, seed: int
) -> FidelityEstimate:
    """Sampled mean fidelity of the noisy preparation to the ideal cluster.

    Per-trial fidelity is evaluated through the O(n) bond-phase overlap
    (ideal_cluster_fidelity), which equals the dense-state computation
    exactly; at n = 20 and 1e5 trials the dense route would take the better
    part of an hour. Bit-identical for identical (n, model, trials, seed).
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    fidelities = trial_fidelities(n_qubits, model, trials, seed)
    mean = float(np.mean(fidelities))
    stderr = float(np.std(fidelities, ddof=1) / math.sqrt(trials))
    # Guard against rounding just past 1 in the sigma = 0 case.
    mean = min(mean, 1.0)
    return FidelityEstimate(mean=mean, standard_error=stderr, n_trials=trials, base_seed=seed)


def _pair_transfer_matrix(sigma_rad: float) -> np.ndarray:
    """4x4 transfer matrix over pair states (z, z') of adjacent sites."""
    q = math.exp(-0.5 * sigma_rad * sigma_rad)
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    t = np.empty((4, 4))
    for i, (z, zp) in enumerate(states):
        for j, (w, wp) in enumerate(states):
            t[i, j] = q if (z & w) != (zp & wp) else 1.0
    return t


def exact_mean_fidelity(n_qubits: int, model: PhaseNoiseModel) -> float:
    """Gaussian-averaged fidelity, evaluated exactly in O(n).

    Contracts the pair-chain transfer matrix n-1 times; agrees with the
    brute-force 4^n double sum (the test oracle for n <= 6) to machine
    precision, and with monte_carlo_fidelity within sampling error.
    """
    if not 2 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"n_qubits must lie in [2, {MAX_QUBITS}], got {n_qubits}")
    t = _pair_transfer_matrix(model.sigma_rad)
    v = np.ones(4)
    for _ in range(n_qubits - 1):
        v = t @ v
    return float(v.sum() / 4.0**n_qubits)
