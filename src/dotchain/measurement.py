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
One helper builds P = (I + o*M(axis))/2 as that column pair; the pairs of
the three named axes and both outcomes are built once, at import, and any
other axis is built per use by the same helper. run_schedule resolves every
scheduled qubit's axis before it draws: an axis equal to a named one needs
no further check, any other is validated by MeasurementSpec, and a missing
axis is refused. It then draws all its uniforms in one call and carries one
post-state from measurement to measurement. measure, project and
run_schedule share the kernel and the projector lookup, and measure and
run_schedule share one sampler. Each public call checks its input state
once (post-states built here were validated by ChainState).
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


_TEXT = (str, bytes, bytearray)


def _axis_components(basis) -> tuple[float, ...]:
    """The axis as floats; text is refused, since float() would parse it."""
    components = tuple(basis)
    if not isinstance(basis, _TEXT):
        try:
            axis = tuple(map(float, components))
        except ValueError:
            axis = None
        if axis == components:  # a number equals its float; text never does
            return axis
    if isinstance(basis, _TEXT) or any(isinstance(c, _TEXT) for c in components):
        raise TypeError(f"basis components must be numbers, got {basis!r}")
    return tuple(map(float, components))


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement of one qubit along a unit Bloch axis (triplet at +z)."""

    qubit: int
    basis: tuple[float, float, float]

    def __post_init__(self) -> None:
        axis = _axis_components(self.basis)
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
                if q < 0:
                    raise ValueError(f"qubit index must be >= 0, got {q}")
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


def _projector_columns(axis, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Columns P[:, :1] and P[:, 1:] of P = (I + outcome * M(axis)) / 2."""
    nx, ny, nz = axis
    mat = outcome * np.array([[-nz, nx + 1j * ny], [nx - 1j * ny, nz]])
    projector = (np.eye(2) + mat) / 2.0
    return projector[:, :1], projector[:, 1:]


_NAMED_PROJECTORS = {
    (axis, outcome): _projector_columns(axis, outcome)
    for axis in NAMED_AXES.values()
    for outcome in (-1, +1)
}


def _projector(axis, outcome: int) -> tuple[np.ndarray, np.ndarray]:
    """Column pair of P for a validated axis: from the table if the axis is named."""
    columns = _NAMED_PROJECTORS.get((axis, outcome))
    return columns if columns is not None else _projector_columns(axis, outcome)


def _scheduled_projector(bases, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """P+ column pair of a scheduled qubit's axis, refusing a missing or invalid axis."""
    try:
        given = bases[qubit]
    except LookupError:
        raise ValueError(f"bases has no axis for scheduled qubit {qubit}") from None
    axis = _axis_components(given)  # the conversion MeasurementSpec applies
    if (axis, +1) not in _NAMED_PROJECTORS:
        MeasurementSpec(qubit, tuple(given))  # refuses a non-unit or non-finite axis
    return _projector(axis, +1)


def _apply_on_qubit(amps: np.ndarray, columns, qubit: int, n: int) -> np.ndarray:
    """The 2x2 P with the given columns applied to one qubit, axis 1 of the view below."""
    psi = amps.reshape(2**qubit, 2, 2 ** (n - qubit - 1))
    # broadcast over j: out[:, j] = psi[:, 0]*P[j, 0] + psi[:, 1]*P[j, 1]
    out = psi[:, :1] * columns[0] + psi[:, 1:] * columns[1]
    out += 0.0  # -0.0 -> +0.0, as in a sum accumulated from zero
    return out.reshape(-1)


def _check(state: ChainState, qubits) -> None:
    """The one input check of a public call: qubit range and state norm."""
    for q in qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    if not abs(state.norm() - 1.0) <= NORM_ATOL:  # a NaN norm fails too
        raise ValueError("state is not normalized")


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
    n = state.n_qubits
    branch = _apply_on_qubit(state.amplitudes, _projector(spec.basis, outcome), spec.qubit, n)
    prob = _probability(branch)
    return prob, _collapse(n, branch, prob)


def _sample(n: int, amps: np.ndarray, qubit: int, plus_columns, u: float) -> MeasurementRecord:
    """Outcome +1 when the uniform u falls below p+; amps is not re-checked."""
    plus = _apply_on_qubit(amps, plus_columns, qubit, n)
    p_plus = _probability(plus)
    if u < p_plus:
        outcome, branch, prob = +1, plus, p_plus
    else:
        branch = amps - plus
        outcome, prob = -1, _probability(branch)
    return MeasurementRecord(qubit, outcome, prob, _collapse(n, branch, prob))


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
    u = uniforms(seed, MEASUREMENT, stream, 1)[0, 0]
    return _sample(state.n_qubits, state.amplitudes, spec.qubit, _projector(spec.basis, +1), u)


def schedule_rounds(requested) -> RoundSchedule:
    """Split requested qubits into rounds with no nearest-neighbor pair.

    One round when no two requested indices are adjacent; otherwise the
    parity 2-coloring (evens, then odds), which is optimal on a path.
    Deterministic: rounds are sorted ascending.
    """
    qubits = list(requested)
    if len(set(qubits)) != len(qubits):
        raise ValueError("requested qubit indices must be distinct")
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
    axis; every scheduled qubit's axis is resolved, and a missing or invalid
    one refused, before anything is drawn or measured. Measurement t uses
    stream t of the seed: one draw of k streams serves all k measurements.
    Only the input state is checked; each later measurement samples the
    post-state of the one before it, which this call built and ChainState
    validated.
    """
    order = [q for rnd in schedule.rounds for q in sorted(rnd)]
    _check(state, order)
    projectors = [_scheduled_projector(bases, q) for q in order]
    draws = uniforms(seed, MEASUREMENT, 0, len(order))[:, 0] if order else ()
    records: list[MeasurementRecord] = []
    current = state
    for q, plus_columns, u in zip(order, projectors, draws):
        record = _sample(state.n_qubits, current.amplitudes, q, plus_columns, u)
        records.append(record)
        current = record.post_state
    return records
