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

One kernel applies every projector P to qubit q, with the amplitudes viewed
as psi of shape (2**q, 2, 2**(n-q-1)). It writes output half j as
psi_j*P[j, j] + psi_{1-j}*P[j, 1-j] over contiguous arrays: psi_{1-j} is
one copy of psi[:, ::-1], the flipped view, so no index table is needed.
Each coefficient pair is one scalar when its two entries are equal (both
on x, the diagonal on y) and a column over j otherwise (the off-diagonal on
y, whose sign flips on the bit-1 half). When all four entries of P are
equal, as for P+ on x, the projector is built with its flip the diagonal
object itself, and the kernel forms one product t = psi*P[0, 0] and writes
t_j + t_{1-j}: the same products and sums, one full-size multiply fewer.
When P is diag(0, 1) or diag(1, 0), as on z, the branch is the amplitudes
with one half set to 0. That kernel, _project_raw, can leave a -0.0
component. _apply_on_qubit, which project and measure use, adds 0.0 to its
result, so no post-state they return holds a -0.0, as a sum accumulated
from zero would not, and each gives the bytes of the broadcast formula
psi[:, 0]*P[j, 0] + psi[:, 1]*P[j, 1]. run_schedule returns no post-state
and skips that pass: a probability is a sum of squares, and the sign of a
zero moves no nonzero amplitude, so no record changes. One helper builds
P = (I + o*M(axis))/2 in the forms the kernel reads; the projectors of the
three named axes and both outcomes are built once, at import, and any
other axis is built per use by the same helper.

One check, _unit_axis, validates every axis, for MeasurementSpec and
run_schedule alike: text is refused, the components become floats, an axis
equal to a named one needs no further check, and any other must be a
finite unit 3-vector. It reads the axis once, so an iterator is accepted
by both. run_schedule skips it only for the NAMED_AXES tuples themselves,
recognised by identity, not by value, and validated at import; an equal
value, such as (0j, 0j, 1 + 0j), still goes through it. A qubit index is
an int, or a numpy integer converted to one, and so is an outcome, which
must then be +1 or -1: bool, float and text are refused with TypeError,
as qubit indices by MeasurementSpec, MeasurementRecord and RoundSchedule,
and as outcomes by MeasurementRecord and project. So a schedule holds
ints before anything is drawn.

run_schedule checks its schedule once, before it draws: the input state,
the qubit range, and every scheduled qubit's axis in one pass, a missing
axis refused. It then draws all its uniforms in one call, converted once
to Python floats, and carries the raw amplitudes of one post-state from
measurement to measurement, scaled by 1/sqrt(p); measure and project
divide by sqrt(p), which differs only in the sign of an exact zero.
measure, project and run_schedule share the kernel and the projector
lookup, and measure and run_schedule sample by one rule: -1 when the
uniform reaches p+ and p- > 0, so an outcome of probability 0 is never
sampled. Both form the -1 branch as psi - P+ psi. measure and the first
measurement of a schedule write it to a new array, since psi is the
caller's; later ones write it into the carried amplitudes, which belong to
run_schedule, and on z, where psi - P+ psi is psi with the half P+ keeps
set to 0, they set that half to 0 in place. Each public call checks its
input state once. measure and project return their post-states as
validated ChainStates; run_schedule builds none where p alone fixes the
norm to 1: p > 0 comes from the branch's own norm, on a checked, finite
input, and is neither clipped to 1 nor near the subnormal range. Any other
p has its scaled branch re-validated as a ChainState. Its records are
built without a second check: MeasurementRecord's own would only confirm
what the schedule and the sampler guarantee, an int qubit, an outcome of
+1 or -1 and a float probability in (0, 1]. That check refuses a bool or
text probability with TypeError and stores any other as a float.

A MeasurementRecord is the classical outcome of one measurement: qubit,
outcome and probability, the record a one-way computation keeps
(Raussendorf & Briegel, PRL 86, 5188 (2001)). It holds no state. measure
returns (record, post_state), as project returns (probability,
post_state), and run_schedule returns its records while keeping only the
current post-state, so at most one post-state outlives a step.
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
    """The axis as floats, refused unless it is a finite unit 3-vector.

    An axis equal to a named one is converted with no further check: text
    never equals a number. Otherwise text is refused with TypeError, since
    float() would parse it.
    """
    components = () if isinstance(basis, _TEXT) else tuple(basis)
    if components in NAMED_AXES.values():
        return tuple(map(float, components))
    if isinstance(basis, _TEXT) or any(isinstance(c, _TEXT) for c in components):
        raise TypeError(f"basis components must be numbers, got {basis!r}")
    axis = tuple(map(float, components))
    if len(axis) != 3 or not all(math.isfinite(c) for c in axis):
        raise ValueError(f"basis must be a finite 3-vector, got {axis}")
    if abs(math.sqrt(sum(c * c for c in axis)) - 1.0) > 1e-10:
        raise ValueError(f"basis axis must be normalized to 1e-10, got {axis}")
    return axis


def _integer(value, what: str) -> int:
    """A qubit index or an outcome as an int: numpy integers become ints.

    Python and numpy integers pass operator.index. bool is refused with
    TypeError although it is an int, as are float and text, which
    operator.index refuses itself.
    """
    if isinstance(value, bool):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


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
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index"))
        object.__setattr__(self, "basis", _unit_axis(self.basis))
        if self.qubit < 0:
            raise ValueError(f"qubit index must be >= 0, got {self.qubit}")


@dataclass(frozen=True)
class MeasurementRecord:
    """Classical outcome of one measurement; it holds no post-state."""

    qubit: int
    outcome: int  # +1 triplet branch, -1 singlet branch
    probability: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "qubit", _integer(self.qubit, "qubit index"))
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
        rounds = tuple(tuple(_integer(q, "qubit index") for q in rnd) for rnd in self.rounds)
        object.__setattr__(self, "rounds", rounds)
        seen = set()
        for rnd in rounds:
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


class _Projector(NamedTuple):
    """P = (I + o*M(axis))/2 in the forms the kernel reads.

    diagonal holds P[j, j] and flip holds P[j, 1 - j], each one scalar when
    its two entries are equal and the (2, 1) column over j otherwise. When
    all four entries are equal, as for P+ on x, flip is the diagonal object
    itself, which the kernel tests by identity. zeroed is the half j with
    P[j, j] = 0 when P is diag(0, 1) or diag(1, 0), as on z, and None
    otherwise.
    """

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


_NAMED_PROJECTORS = {
    (axis, outcome): _build_projector(axis, outcome)
    for axis in NAMED_AXES.values()
    for outcome in (-1, +1)
}


def _projector(axis, outcome: int) -> _Projector:
    """P for a validated axis: from the table if the axis is named."""
    projector = _NAMED_PROJECTORS.get((axis, outcome))
    return projector if projector is not None else _build_projector(axis, outcome)


# P+ of each named axis, keyed by the identity of its NAMED_AXES tuple, which
# the table keeps alive, so no other live object can share its id. An equal
# value is not looked up here: (0j, 0j, 1 + 0j) equals Z_AXIS and is refused.
_NAMED_PLUS_BY_ID = {id(axis): _NAMED_PROJECTORS[axis, +1] for axis in NAMED_AXES.values()}


def _scheduled_projectors(bases, order) -> list[_Projector]:
    """P+ of each scheduled qubit's axis, refusing a missing or invalid axis.

    A NAMED_AXES tuple itself, validated at import, takes its prebuilt P+;
    any other value goes through _unit_axis.
    """
    projectors = []
    for qubit in order:
        try:
            given = bases[qubit]
        except LookupError:
            raise ValueError(f"bases has no axis for scheduled qubit {qubit}") from None
        projector = _NAMED_PLUS_BY_ID.get(id(given))
        projectors.append(projector if projector is not None else _projector(_unit_axis(given), +1))
    return projectors


def _project_raw(amps: np.ndarray, projector: _Projector, qubit: int, n: int) -> np.ndarray:
    """P applied to one qubit, axis 1 of the view psi below; a zero may be -0.0.

    Its bytes differ from _apply_on_qubit's only in the sign of an exact
    zero, which no probability sees. It never writes to amps.
    """
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


def _apply_on_qubit(amps: np.ndarray, projector: _Projector, qubit: int, n: int) -> np.ndarray:
    """P applied to one qubit, as _project_raw; no component is -0.0."""
    out = _project_raw(amps, projector, qubit, n)
    out += 0.0  # -0.0 -> +0.0, as in a sum accumulated from zero
    return out


def _check(state: ChainState, qubits) -> None:
    """The one input check of a public call: qubit range and state norm."""
    for q in qubits:
        if q >= state.n_qubits:
            raise ValueError(f"qubit {q} out of range for {state.n_qubits} qubits")
    if not abs(state.norm() - 1.0) <= NORM_ATOL:  # a NaN norm fails too
        raise ValueError("state is not normalized")


# From this p up, a norm summed over at most 2**MAX_QUBITS terms, each exact
# to 2**-1074 in the subnormal range, is exact to 2**-80 relative; below it a
# branch's p can be too inexact for 1/sqrt(p) to scale its norm to 1.
_SCALED_NORM_EXACT_FROM = 2.0 ** (MAX_QUBITS - 1074 + 80)


def _probability(branch: np.ndarray) -> float:
    return min(max(float(np.vdot(branch, branch).real), 0.0), 1.0)


def project(
    state: ChainState, spec: MeasurementSpec, outcome: int
) -> tuple[float, ChainState | None]:
    """Born probability of the outcome and the renormalized post-state.

    The post-state is None when the probability vanishes. Deterministic
    companion of measure(); also the enumeration oracle used by the tests.
    """
    outcome = _outcome(outcome)
    _check(state, (spec.qubit,))
    n = state.n_qubits
    branch = _apply_on_qubit(state.amplitudes, _projector(spec.basis, outcome), spec.qubit, n)
    prob = _probability(branch)
    return prob, ChainState(n, branch / math.sqrt(prob)) if prob > 0.0 else None


def measure(
    state: ChainState, spec: MeasurementSpec, seed: int, stream: int = 0
) -> tuple[MeasurementRecord, ChainState]:
    """Sample one projective measurement: its record and its post-state.

    Deterministic per (seed, stream). The post-state is renormalized and
    never None: an outcome of probability 0 is never sampled.

    Checks the state once and draws stream `stream` of the seed's measurement
    domain. One projection serves both outcomes: the -1 branch is psi - P+ psi,
    and its probability comes from its own norm, not from 1 - p+, which
    cancels when p+ is close to 1. The outcome is -1 when the uniform reaches
    p+ and p- > 0; a state normalized only to NORM_ATOL can leave p- = 0 with
    p+ below 1. Only the sampled branch is normalized.
    """
    _check(state, (spec.qubit,))
    u = uniforms(seed, MEASUREMENT, stream, 1)[0, 0]
    n, amps = state.n_qubits, state.amplitudes
    branch = _apply_on_qubit(amps, _projector(spec.basis, +1), spec.qubit, n)
    outcome, prob = +1, _probability(branch)
    if u >= prob:
        minus = amps - branch
        p_minus = _probability(minus)
        if p_minus > 0.0:
            outcome, branch, prob = -1, minus, p_minus
    return MeasurementRecord(spec.qubit, outcome, prob), ChainState(n, branch / math.sqrt(prob))


def schedule_rounds(requested) -> RoundSchedule:
    """Split requested qubits into rounds with no nearest-neighbor pair.

    One round when no two requested indices are adjacent; otherwise the
    parity 2-coloring (evens, then odds), which is optimal on a path.
    Deterministic: rounds are sorted ascending.
    """
    qubits = [_integer(q, "qubit index") for q in requested]
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
    axis. The schedule is checked once, before anything is drawn or
    measured: the state and qubit range, then every scheduled qubit's axis
    in one pass, a missing or invalid one refused (a NAMED_AXES tuple
    itself, recognised by identity, is not validated again). Measurement t
    uses stream t of the seed: one draw of k streams serves all k
    measurements, converted once to Python floats.

    Only the input state is checked; each later measurement samples the raw
    amplitudes of the one before it, the sampled branch scaled in place by
    1/sqrt(p), with no ChainState in between. Their norm is 1 to rounding
    because the input is checked and finite and p > 0 comes from the
    branch's own norm, as the sampling rule ensures, when p is below 1 (not
    clipped) and at least _SCALED_NORM_EXACT_FROM (exact to rounding). For
    any other p the scaled branch is validated as a ChainState, which
    refuses a norm off 1 by more than NORM_ATOL. Only that one post-state is
    kept; the records hold none.

    The branches come from _project_raw, with no -0.0 cleanup, since no
    post-state is returned and no probability sees the sign of a zero; on x
    P+ takes one product. The -1 branch psi - P+ psi is written into the
    carried amplitudes once they are this call's own, never into the
    caller's, and on z it is those amplitudes with the half P+ keeps set to
    0. Each record is built without MeasurementRecord's check, which would
    find nothing: its qubit is an int of the validated schedule, and the
    sampling gives an outcome of +1 or -1 and a float probability in (0, 1].
    """
    order = [q for rnd in schedule.rounds for q in sorted(rnd)]
    _check(state, order)
    projectors = _scheduled_projectors(bases, order)
    draws = uniforms(seed, MEASUREMENT, 0, len(order))[:, 0].tolist() if order else ()
    n = state.n_qubits
    records: list[MeasurementRecord] = []
    amps = state.amplitudes  # the caller's until the first branch replaces it
    for q, plus, u in zip(order, projectors, draws):
        branch = _project_raw(amps, plus, q, n)
        outcome, prob = +1, _probability(branch)
        if u >= prob:  # as in measure: -1 unless p- = 0
            # amps becomes P- psi = psi - P+ psi, in place once it is this call's own
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
        record = object.__new__(MeasurementRecord)
        record.__dict__.update(qubit=q, outcome=outcome, probability=prob)
        records.append(record)
        # in place, and equal to amps / sqrt(prob) up to the sign of an
        # exact zero, which no probability sees; it never leaves the call
        amps *= 1.0 / math.sqrt(prob)
        if not _SCALED_NORM_EXACT_FROM <= prob < 1.0:  # p may be clipped or inexact
            ChainState(n, amps)
    return records
