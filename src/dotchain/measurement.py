"""Projective single-qubit measurement and nearest-neighbor-safe scheduling.

Readout is a charge measurement: pushing one molecule's detuning up moves
the singlet component into the doubly occupied configuration while the
triplet stays put, so the charge sensor resolves the logical state. The
outcome convention follows the charge: +1 is the triplet branch (charge
unmoved), -1 the singlet branch. Arbitrary axes are a prior rotation plus
this z readout, so the Bloch frame here puts the triplet |1> at +z:

    M(axis) = [[-nz, nx + i*ny], [nx - i*ny, nz]]   in the (|0>, |1>) basis.

Pushing the detuning of two adjacent molecules at once would switch their
bond back on, so a measurement round never contains nearest neighbors;
schedule_rounds makes violating that unrepresentable.

One kernel applies every projector P to qubit q: with the amplitudes viewed
as (2**q, 2, 2**(n-q-1)), output half j is psi[:, 0]*P[j, 0] + psi[:, 1]*P[j, 1].
Each public call checks its input state once (post-states built here were
validated by ChainState); run_schedule draws all its uniforms in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import MEASUREMENT, uniforms
from .state import NORM_ATOL, ChainState

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement of one qubit along a unit Bloch axis (triplet at +z)."""

    qubit: int
    basis: tuple[float, float, float]

    def __post_init__(self) -> None:
        axis = tuple(float(c) for c in self.basis)
        if len(axis) != 3 or not all(math.isfinite(c) for c in axis):
            raise ValueError(f"basis must be a finite 3-vector, got {self.basis}")
        if abs(math.sqrt(sum(c * c for c in axis)) - 1.0) > 1e-10:
            raise ValueError(f"basis axis must be normalized to 1e-10, got {self.basis}")
        object.__setattr__(self, "basis", axis)
        if self.qubit < 0:
            raise ValueError(f"qubit index must be >= 0, got {self.qubit}")


@dataclass(frozen=True)
class MeasurementRecord:
    qubit: int
    outcome: int  # +1 triplet branch, -1 singlet branch
    probability: float
    post_state: ChainState

    def __post_init__(self) -> None:
        if self.outcome not in (-1, +1):
            raise ValueError(f"outcome must be +-1, got {self.outcome}")
        if not 0.0 <= self.probability <= 1.0 + 1e-12:
            raise ValueError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class RoundSchedule:
    """Rounds of simultaneous measurements; no round contains adjacent qubits."""

    rounds: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        seen = set()
        for rnd in self.rounds:
            for q in rnd:
                if q in seen:
                    raise ValueError(f"qubit {q} scheduled more than once")
                seen.add(q)
            present = set(rnd)
            for q in rnd:
                if q + 1 in present:
                    raise ValueError(f"round {rnd} contains nearest neighbors {q} and {q + 1}")

    @property
    def qubits(self) -> tuple[int, ...]:
        return tuple(q for rnd in self.rounds for q in rnd)


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


def _branch(state: ChainState, spec: MeasurementSpec, outcome: int) -> np.ndarray:
    """Unnormalized P psi of a checked state, P = (I + outcome * M(axis)) / 2."""
    nx, ny, nz = spec.basis
    mat = outcome * np.array([[-nz, nx + 1j * ny], [nx - 1j * ny, nz]])
    return _apply_on_qubit(state.amplitudes, (np.eye(2) + mat) / 2.0, spec.qubit, state.n_qubits)


def _probability(branch: np.ndarray) -> float:
    return min(max(float(np.vdot(branch, branch).real), 0.0), 1.0)


def _collapse(n: int, branch: np.ndarray, prob: float) -> ChainState | None:
    return ChainState(n, branch / math.sqrt(prob)) if prob > 0.0 else None


def project(
    state: ChainState, spec: MeasurementSpec, outcome: int
) -> tuple[float, ChainState | None]:
    """Born probability of the outcome and the renormalized post-state.

    The post-state is None when the probability vanishes. Deterministic
    companion of measure(); also the enumeration oracle used by the tests.
    """
    if outcome not in (-1, +1):
        raise ValueError(f"outcome must be +-1, got {outcome}")
    _check(state, (spec.qubit,))
    branch = _branch(state, spec, outcome)
    prob = _probability(branch)
    return prob, _collapse(state.n_qubits, branch, prob)


def _sample(state: ChainState, spec: MeasurementSpec, u: float) -> MeasurementRecord:
    """Outcome +1 when the uniform u falls below p+; the state is not re-checked."""
    plus = _branch(state, spec, +1)
    p_plus = _probability(plus)
    if u < p_plus:
        outcome, branch, prob = +1, plus, p_plus
    else:
        branch = state.amplitudes - plus
        outcome, prob = -1, _probability(branch)
    return MeasurementRecord(spec.qubit, outcome, prob, _collapse(state.n_qubits, branch, prob))


def measure(
    state: ChainState, spec: MeasurementSpec, seed: int, stream: int = 0
) -> MeasurementRecord:
    """Sample one projective measurement; deterministic per (seed, stream).

    Checks the state once and draws stream `stream` of the seed's measurement
    domain. One projection serves both outcomes: the -1 branch is psi - P+ psi,
    and its probability comes from its own norm, not from 1 - p+, which
    cancels when p+ is close to 1. Only the sampled branch is normalized.
    """
    _check(state, (spec.qubit,))
    return _sample(state, spec, uniforms(seed, MEASUREMENT, stream, 1)[0, 0])


def schedule_rounds(requested) -> RoundSchedule:
    """Split requested qubits into rounds with no nearest-neighbor pair.

    One round when no two requested indices are adjacent; otherwise the
    parity 2-coloring (evens, then odds), which is optimal on a path.
    Deterministic: rounds are sorted ascending.
    """
    qubits = list(requested)
    if len(set(qubits)) != len(qubits):
        raise ValueError("requested qubit indices must be distinct")
    if any(q < 0 for q in qubits):
        raise ValueError("qubit indices must be >= 0")
    ordered = sorted(qubits)
    if any(b - a == 1 for a, b in zip(ordered, ordered[1:])):
        rounds = (tuple(q for q in ordered if q % 2 == 0), tuple(q for q in ordered if q % 2 == 1))
    else:
        rounds = (tuple(ordered),)
    return RoundSchedule(rounds=tuple(rnd for rnd in rounds if rnd))


def run_schedule(
    state: ChainState, schedule: RoundSchedule, bases, seed: int
) -> list[MeasurementRecord]:
    """Execute the rounds in order, ascending qubit index inside each round.

    Within a round the projectors act on non-adjacent qubits and commute, so
    the intra-round order cannot change any joint outcome probability (the
    tests check this by enumeration). bases maps qubit index to a Bloch
    axis. Measurement t uses stream t of the seed: one draw of k streams
    serves all k measurements. Only the input state is checked; the
    post-states that follow were built, and validated, by this call.
    """
    _check(state, schedule.qubits)
    order = [q for rnd in schedule.rounds for q in sorted(rnd)]
    draws = uniforms(seed, MEASUREMENT, 0, len(order))[:, 0] if order else ()
    records: list[MeasurementRecord] = []
    for q, u in zip(order, draws):
        current = records[-1].post_state if records else state
        records.append(_sample(current, MeasurementSpec(qubit=q, basis=tuple(bases[q])), u))
    return records
