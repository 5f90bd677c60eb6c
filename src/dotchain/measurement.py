"""Projective single-qubit measurement and nearest-neighbor-safe scheduling.

Readout is a charge measurement: pushing one molecule's detuning up moves
its singlet into the doubly occupied configuration while the triplet stays
put, so outcome +1 is the triplet branch (charge unmoved) and -1 the
singlet branch. An axis is a prior rotation plus this z readout, in a Bloch
frame with the triplet |1> at +z: outcome o projects with P = (I + o*M)/2,
M = [[-nz, nx + i*ny], [nx - i*ny, nz]] in the (|0>, |1>) basis.

Pushing two adjacent molecules at once would switch their bond back on, so
no measurement round holds nearest neighbors: RoundSchedule refuses one.

run_schedule is the one sampler. Measurement t of a schedule uses stream t
of the seed's measurement domain, with outcome -1 when that uniform reaches
p+ and p- > 0, so an outcome of probability 0 is never sampled. It returns
the record a one-way computation keeps, (qubit, outcome, probability) a
measurement (Raussendorf & Briegel, PRL 86, 5188 (2001)), and no
post-state. project gives one outcome's Born probability and post-state.

Checks: a qubit index is an int >= 0 and an outcome the int +1 or -1 (numpy
integers become ints; bool, float and text raise TypeError); an axis is a
finite unit 3-vector of numbers, read once. Specs, records and schedules
check their fields when built. Each public call checks the state's norm,
the qubit range and, in run_schedule, every scheduled axis before it draws.
A post-state is validated as a ChainState wherever p alone does not fix
its norm to 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import MEASUREMENT, uniforms
from .state import MAX_QUBITS, NORM_ATOL, ChainState

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

NAMED_AXES = {"x": X_AXIS, "y": Y_AXIS, "z": Z_AXIS}

_TEXT = (str, bytes, bytearray)


def _unit_axis(basis) -> tuple[float, ...]:
    """The axis as floats, refused unless it is a finite unit 3-vector of numbers."""
    components = () if isinstance(basis, _TEXT) else tuple(basis)
    if components in NAMED_AXES.values():  # no further check: text never equals a number
        return tuple(map(float, components))
    if isinstance(basis, _TEXT) or any(isinstance(c, _TEXT) for c in components):
        raise TypeError(f"basis components must be numbers, got {basis!r}")  # float() parses text
    axis = tuple(map(float, components))
    if len(axis) != 3 or not all(math.isfinite(c) for c in axis):
        raise ValueError(f"basis must be a finite 3-vector, got {axis}")
    if abs(math.sqrt(sum(c * c for c in axis)) - 1.0) > 1e-10:
        raise ValueError(f"basis axis must be normalized to 1e-10, got {axis}")
    return axis


def _integer(value, what: str) -> int:
    """A qubit index or an outcome as an int; bool, float and text raise TypeError."""
    if isinstance(value, bool):  # operator.index takes it; it refuses float and text itself
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _qubit(value) -> int:
    """A qubit index as an int >= 0, checked as _integer checks it."""
    qubit = _integer(value, "qubit index")
    if qubit < 0:
        raise ValueError(f"qubit index must be >= 0, got {qubit}")
    return qubit


def _outcome(outcome) -> int:
    """An outcome as the int +1 or -1, checked as _integer checks it."""
    outcome = _integer(outcome, "outcome")
    if outcome not in (-1, +1):
        raise ValueError(f"outcome must be +-1, got {outcome}")
    return outcome


@dataclass(frozen=True)
class MeasurementSpec:
    """Measurement of one qubit along a unit Bloch axis (triplet at +z)."""

    qubit: int
    basis: tuple[float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _qubit(self.qubit))
        object.__setattr__(self, "basis", _unit_axis(self.basis))


@dataclass(frozen=True)
class MeasurementRecord:
    """Classical outcome of one measurement; it holds no post-state."""

    qubit: int
    outcome: int  # +1 triplet branch, -1 singlet branch
    probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _qubit(self.qubit))
        object.__setattr__(self, "outcome", _outcome(self.outcome))
        if isinstance(self.probability, (bool, np.bool_, *_TEXT)):  # float() would take them
            raise TypeError(f"probability must be a real number, got {self.probability!r}")
        object.__setattr__(self, "probability", float(self.probability))
        if not 0.0 <= self.probability <= 1.0 + 1e-12:  # NaN fails too
            raise ValueError(f"probability {self.probability} outside [0, 1]")


@dataclass(frozen=True)
class RoundSchedule:
    """Rounds of simultaneous measurements; no round contains adjacent qubits."""

    rounds: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        rounds = tuple(tuple(_qubit(q) for q in rnd) for rnd in self.rounds)
        object.__setattr__(self, "rounds", rounds)
        seen = set()
        for rnd in rounds:
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


class _Projector(NamedTuple):
    """P = (I + o*M(axis))/2 in the forms the kernel reads.

    diagonal holds P[j, j] and flip P[j, 1 - j], each a scalar when its two
    entries are equal, else a (2, 1) column over j; flip is diagonal itself
    when all four are equal (P+ on x). zeroed is the half j with P[j, j] = 0
    when P is diag(0, 1) or diag(1, 0) (z), else None."""

    diagonal: complex | np.ndarray
    flip: complex | np.ndarray
    zeroed: int | None


def _build_projector(axis, outcome: int) -> _Projector:
    """P = (I + outcome * M(axis)) / 2 for a validated axis."""
    nx, ny, nz = axis
    mat = outcome * np.array([[-nz, nx + 1j * ny], [nx - 1j * ny, nz]])
    p = (np.eye(2) + mat) / 2.0

    def pair(a, b):
        return a if a == b else np.array([[a], [b]])

    zeroed = None
    if p[0, 1] == 0.0 and p[1, 0] == 0.0 and p[0, 0] * p[1, 1] == 0.0:
        zeroed = 0 if p[0, 0] == 0.0 else 1  # the other entry is then exactly 1
    diagonal = pair(p[0, 0], p[1, 1])
    flip = diagonal if p[0, 0] == p[1, 1] == p[0, 1] == p[1, 0] else pair(p[0, 1], p[1, 0])
    return _Projector(diagonal, flip, zeroed)


# P+ of each named axis keyed by the identity of its NAMED_AXES tuple, which
# stays alive, so no other object shares its id. An equal value goes through
# _unit_axis: (0j, 0j, 1 + 0j) equals Z_AXIS and is refused.
_NAMED_PLUS_BY_ID = {id(axis): _build_projector(axis, +1) for axis in NAMED_AXES.values()}


def _scheduled_projectors(bases, order) -> list[_Projector]:
    """P+ of each scheduled qubit's axis, refusing a missing or invalid axis."""
    projectors = []
    for qubit in order:
        try:
            given = bases[qubit]
        except LookupError:
            raise ValueError(f"bases has no axis for scheduled qubit {qubit}") from None
        named = _NAMED_PLUS_BY_ID.get(id(given))  # a NAMED_AXES tuple needs no check
        projectors.append(named if named is not None else _build_projector(_unit_axis(given), +1))
    return projectors


def _project_raw(amps: np.ndarray, projector: _Projector, qubit: int, n: int) -> np.ndarray:
    """P applied to one qubit, axis 1 of the view psi below, not writing amps: the
    bytes of the broadcast formula psi_0*P[j, 0] + psi_1*P[j, 1], a zero maybe -0.0."""
    psi = amps.reshape(2**qubit, 2, 2 ** (n - qubit - 1))
    if projector.zeroed is not None:  # P is diag(0, 1) or diag(1, 0): one half of psi, the other 0
        out = amps.copy()
        out.reshape(psi.shape)[:, projector.zeroed] = 0.0
        return out
    if projector.flip is projector.diagonal:  # P+ on x: out_j = t_j + t_{1-j}, t = psi*P[j, j]
        scaled = psi * projector.diagonal
        return (scaled + scaled[:, ::-1]).reshape(-1)
    # out_j = psi_j*P[j, j] + psi_{1-j}*P[j, 1-j] over one flipped copy
    out = (psi * projector.diagonal).reshape(-1)
    out += (psi[:, ::-1] * projector.flip).reshape(-1)
    return out


def _check(state: ChainState, qubits) -> None:
    """The one input check of a public call: qubit range and state norm."""
    for q in qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    if not abs(state.norm() - 1.0) <= NORM_ATOL:  # a NaN norm fails too
        raise ValueError("state is not normalized")


# From this p up, a norm summed over <= 2**MAX_QUBITS terms, each exact to 2**-1074,
# is exact to 2**-80 relative; below it p can be too inexact to scale a branch to 1.
_SCALED_NORM_EXACT_FROM = 2.0 ** (MAX_QUBITS - 1074 + 80)


def _probability(branch: np.ndarray) -> float:
    return min(max(float(np.vdot(branch, branch).real), 0.0), 1.0)


def project(
    state: ChainState, spec: MeasurementSpec, outcome: int
) -> tuple[float, ChainState | None]:
    """Born probability of the outcome and the renormalized post-state, None at 0."""
    outcome = _outcome(outcome)
    _check(state, (spec.qubit,))
    n = state.n_qubits
    branch = _project_raw(state.amplitudes, _build_projector(spec.basis, outcome), spec.qubit, n)
    branch += 0.0  # -0.0 -> +0.0: the broadcast formula's bytes, as a sum from zero has
    prob = _probability(branch)
    return prob, ChainState(n, branch / math.sqrt(prob)) if prob > 0.0 else None


def schedule_rounds(requested) -> RoundSchedule:
    """Split requested qubits into ascending rounds with no nearest-neighbor pair.

    One round when no two are adjacent; otherwise the parity 2-coloring
    (evens, then odds), which is optimal on a path.
    """
    qubits = [_qubit(q) for q in requested]
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
    """Measure the scheduled qubits in turn and return one record each.

    Rounds run in order, ascending qubit index inside each (projectors on
    non-adjacent qubits commute, so that order moves no joint probability).
    bases maps a qubit index to its Bloch axis; measurement t samples stream
    t of the seed. The state and every scheduled axis are checked first.
    """
    order = [q for rnd in schedule.rounds for q in sorted(rnd)]
    _check(state, order)
    projectors = _scheduled_projectors(bases, order)
    # one draw of k streams serves all k measurements, as Python floats
    draws = uniforms(seed, MEASUREMENT, 0, len(order))[:, 0].tolist() if order else ()
    n = state.n_qubits
    records: list[MeasurementRecord] = []
    amps = state.amplitudes  # the caller's until the first branch replaces it
    for q, plus, u in zip(order, projectors, draws):
        branch = _project_raw(amps, plus, q, n)
        outcome, prob = +1, _probability(branch)
        if u >= prob:  # -1 unless p- = 0
            # amps becomes psi - P+ psi, in place once it is this call's own; p-
            # is its own norm, not 1 - p+, which cancels when p+ is close to 1
            if amps is state.amplitudes:
                amps = amps - branch
            elif plus.zeroed is None:
                amps -= branch
            else:  # z: psi - P+ psi is psi with the half P+ keeps set to 0
                amps.reshape(2**q, 2, -1)[:, 1 - plus.zeroed] = 0.0
            p_minus = _probability(amps)
            if p_minus > 0.0:
                outcome, branch, prob = -1, amps, p_minus
        amps = branch
        # unchecked: q is a checked int, the outcome +-1 and prob a float in (0, 1]
        record = object.__new__(MeasurementRecord)
        record.__dict__.update(qubit=q, outcome=outcome, probability=prob)
        records.append(record)
        # amps / sqrt(prob) up to a zero's sign; its norm is 1 to rounding (checked,
        # finite input; p > 0 its own norm) unless p was clipped or is inexact
        amps *= 1.0 / math.sqrt(prob)
        if not _SCALED_NORM_EXACT_FROM <= prob < 1.0:
            ChainState(n, amps)
    return records
