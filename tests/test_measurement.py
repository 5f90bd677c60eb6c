import dataclasses
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotchain import (
    ChainState,
    MeasurementRecord,
    MeasurementSpec,
    RoundSchedule,
    init_plus_chain,
    project,
    run_schedule,
    schedule_rounds,
)
from dotchain import measurement
from dotchain.config import config_from_strings
from dotchain.harness import prepare_chain
from dotchain.measurement import NAMED_AXES, X_AXIS, Y_AXIS, Z_AXIS
from dotchain.rng import MEASUREMENT, uniforms

import oracles
from conftest import random_state
from oracles import (
    I2,
    PAULI_X,
    PAULI_Z,
    ideal_cluster,
    kron_chain,
    projected_branch,
    spec_loop_measure,
    spec_loop_project,
    spec_loop_run_schedule,
)

PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])


def ket(*amps):
    vec = np.array(amps, dtype=complex)
    n = int(math.log2(len(vec)))
    return ChainState(n, vec / np.linalg.norm(vec))


def measure_once(state, spec, seed):
    # the record of a one-qubit schedule, which draws stream 0, and the
    # post-state project gives for its outcome
    (record,) = run_schedule(state, schedule_rounds([spec.qubit]), {spec.qubit: spec.basis}, seed)
    return record, project(state, spec, record.outcome)[1]


def draw_stream(monkeypatch, stream):
    # measurement t of a schedule then draws stream t + stream of its seed
    monkeypatch.setattr(
        measurement,
        "uniforms",
        lambda seed, domain, first, count: uniforms(seed, domain, first + stream, count),
    )


def test_spec_validation():
    MeasurementSpec(qubit=0, basis=Z_AXIS)
    with pytest.raises(ValueError):
        MeasurementSpec(qubit=0, basis=(0.0, 0.0, 1.1))
    with pytest.raises(ValueError):
        MeasurementSpec(qubit=0, basis=(0.0, 0.0, float("nan")))
    with pytest.raises(ValueError):
        MeasurementSpec(qubit=-1, basis=Z_AXIS)


def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(qubit=0, outcome=2, probability=0.5)
    with pytest.raises(ValueError):
        MeasurementRecord(qubit=0, outcome=1, probability=1.5)
    # bool is a number to float(), text would be parsed by it: both refused
    with pytest.raises(TypeError, match="probability"):
        MeasurementRecord(qubit=0, outcome=1, probability=True)
    record = MeasurementRecord(qubit=0, outcome=1, probability=np.float64(0.5))
    assert type(record.probability) is float
    assert repr(record) == "MeasurementRecord(qubit=0, outcome=1, probability=0.5)"
    with pytest.raises(ValueError):
        MeasurementRecord(qubit=0, outcome=1, probability=math.nan)
    with pytest.raises(ValueError, match=">= 0"):
        MeasurementRecord(qubit=-1, outcome=1, probability=0.5)


def _assert_qubit_index_refused(monkeypatch, qubit):
    # refused with TypeError by every record that holds a qubit index, and
    # by a schedule before run_schedule could draw anything
    draws = []
    monkeypatch.setattr(measurement, "uniforms", lambda *args: draws.append(args))
    with pytest.raises(TypeError, match="integer"):
        MeasurementSpec(qubit=qubit, basis=Z_AXIS)
    with pytest.raises(TypeError, match="integer"):
        MeasurementRecord(qubit=qubit, outcome=1, probability=0.5)
    with pytest.raises(TypeError, match="integer"):
        RoundSchedule(rounds=((0, qubit),))
    with pytest.raises(TypeError, match="integer"):
        run_schedule(ideal_cluster(3), schedule_rounds([0, qubit]), {0: Z_AXIS, 2: Z_AXIS}, 0)
    assert draws == []


def test_bool_qubit_index_is_refused(monkeypatch):
    # bool is an int, and operator.index(True) is 1
    _assert_qubit_index_refused(monkeypatch, True)
    _assert_qubit_index_refused(monkeypatch, np.True_)


def test_float_qubit_index_is_refused(monkeypatch):
    _assert_qubit_index_refused(monkeypatch, 2.0)
    _assert_qubit_index_refused(monkeypatch, np.float64(2.0))


def test_text_qubit_index_is_refused(monkeypatch):
    _assert_qubit_index_refused(monkeypatch, "2")


def test_numpy_integer_qubit_index_becomes_int():
    for qubit in (np.int64(2), np.uint8(2), np.intp(2)):
        assert type(MeasurementSpec(qubit=qubit, basis=Z_AXIS).qubit) is int
        assert type(MeasurementRecord(qubit=qubit, outcome=1, probability=0.5).qubit) is int
        assert RoundSchedule(rounds=((0, qubit),)).rounds == ((0, 2),)
        schedule = schedule_rounds([np.int64(0), qubit])
        assert all(type(q) is int for q in schedule.qubits)
        bases = {0: Z_AXIS, 2: Z_AXIS}
        records = run_schedule(ideal_cluster(3), schedule, bases, 0)
        assert records == run_schedule(ideal_cluster(3), schedule_rounds([0, 2]), bases, 0)


@pytest.mark.parametrize(
    "outcome", [True, False, np.True_, 1.0, np.float64(-1.0), "1", 1 + 0j], ids=repr
)
def test_non_integer_outcome_is_refused(outcome):
    # an outcome is checked as a qubit index is: bool, float and text are
    # refused, not stored as given
    with pytest.raises(TypeError, match="integer"):
        MeasurementRecord(qubit=0, outcome=outcome, probability=0.5)
    with pytest.raises(TypeError, match="integer"):
        project(ideal_cluster(2), MeasurementSpec(0, Z_AXIS), outcome)


def test_numpy_integer_outcome_becomes_int():
    state = ideal_cluster(3)
    spec = MeasurementSpec(1, X_AXIS)
    for outcome in (-1, +1):
        want_p, want_post = project(state, spec, outcome)
        for value in (np.int64(outcome), np.int8(outcome), np.intp(outcome)):
            record = MeasurementRecord(qubit=0, outcome=value, probability=0.5)
            assert type(record.outcome) is int and record.outcome == outcome
            p, post = project(state, spec, value)
            assert repr(p) == repr(want_p)
            assert post.amplitudes.tobytes() == want_post.amplitudes.tobytes()
    with pytest.raises(ValueError, match="outcome"):
        MeasurementRecord(qubit=0, outcome=np.int64(0), probability=0.5)
    with pytest.raises(ValueError, match="outcome"):
        project(state, spec, np.uint8(2))


def test_z_measurement_of_singlet_state():
    # |0> is the singlet: the charge moves, outcome -1, with certainty
    record, post = measure_once(ket(1, 0), MeasurementSpec(0, Z_AXIS), seed=0)
    assert record.outcome == -1
    assert record.probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post.amplitudes, [1, 0])


def test_z_measurement_of_triplet_state():
    record, _ = measure_once(ket(0, 1), MeasurementSpec(0, Z_AXIS), seed=0)
    assert record.outcome == +1
    assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_x_measurement_of_plus_state():
    record, _ = measure_once(ket(1, 1), MeasurementSpec(0, X_AXIS), seed=0)
    assert record.outcome == +1
    assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_rejects_bad_input():
    state = ket(1, 0)
    with pytest.raises(ValueError):
        measure_once(state, MeasurementSpec(qubit=1, basis=Z_AXIS), seed=0)
    denormalized = ket(1, 0)
    denormalized.amplitudes = denormalized.amplitudes * 0.5
    with pytest.raises(ValueError):
        measure_once(denormalized, MeasurementSpec(0, Z_AXIS), seed=0)
    with pytest.raises(ValueError):
        project(state, MeasurementSpec(0, Z_AXIS), outcome=0)


def test_measure_deterministic_per_seed(monkeypatch):
    state = ideal_cluster(3)
    spec = MeasurementSpec(1, X_AXIS)
    draw_stream(monkeypatch, 2)
    a, a_post = measure_once(state, spec, seed=5)
    b, b_post = measure_once(state, spec, seed=5)
    assert a.outcome == b.outcome and a.probability == b.probability
    assert np.array_equal(a_post.amplitudes, b_post.amplitudes)


def _random_axis(rng):
    v = rng.normal(size=3)
    return tuple(v / np.linalg.norm(v))


def test_born_totals():
    rng = np.random.default_rng(404)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        state = random_state(n, rng)
        spec = MeasurementSpec(int(rng.integers(0, n)), _random_axis(rng))
        p_plus, _ = project(state, spec, +1)
        p_minus, _ = project(state, spec, -1)
        assert abs(p_plus + p_minus - 1.0) <= 1e-10


def test_remeasurement_idempotent():
    rng = np.random.default_rng(606)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        state = random_state(n, rng)
        spec = MeasurementSpec(int(rng.integers(0, n)), _random_axis(rng))
        record, post_state = measure_once(state, spec, seed=int(rng.integers(0, 1000)))
        p_same, post = project(post_state, spec, record.outcome)
        assert p_same == pytest.approx(1.0, abs=1e-10)
        repeat, _ = measure_once(post_state, spec, seed=999)
        assert repeat.outcome == record.outcome


def test_unlikely_minus_outcome_keeps_precision(monkeypatch):
    # p- comes from the norm of psi - P+ psi, not from 1 - p+, so it stays
    # accurate to the last digits when p+ is within 1e-6 of 1
    u = uniforms(0, MEASUREMENT, 0, 10**6)[:, 0]
    stream = int(np.argmax(u))
    p_minus = 2.0 * (1.0 - u[stream])
    angle = math.asin(math.sqrt(p_minus))
    state = ket(math.sin(angle), math.cos(angle))
    draw_stream(monkeypatch, stream)
    record, post = measure_once(state, MeasurementSpec(0, Z_AXIS), seed=0)
    assert record.outcome == -1
    assert record.probability == pytest.approx(math.sin(angle) ** 2, rel=1e-13)
    assert np.allclose(post.amplitudes, [1, 0], atol=1e-12)


def test_outcome_of_probability_zero_is_never_sampled(monkeypatch):
    # the norm is 1 - 4e-11, inside NORM_ATOL: p+ = 1 - 8e-11 on qubit 0's z
    # axis and p- is exactly 0, so even the largest uniform must give +1
    c = math.sqrt(0.5) * (1.0 - 4e-11)
    state = ChainState(2, np.array([0.0, 0.0, c, c]))
    largest = 1.0 - 2.0**-53

    def top_uniforms(seed, domain, first_stream, n_streams):
        return np.full((n_streams, 4), largest)

    monkeypatch.setattr(measurement, "uniforms", top_uniforms)
    record, post = measure_once(state, MeasurementSpec(0, Z_AXIS), seed=0)
    schedule = schedule_rounds([0, 1])
    first = run_schedule(state, schedule, {0: Z_AXIS, 1: Z_AXIS}, seed=0)[0]
    for got in (record, first):
        assert (got.qubit, got.outcome) == (0, +1)
        assert got.probability == pytest.approx(1.0 - 8e-11, abs=1e-15)
    assert post is not None and abs(post.norm() - 1.0) < 1e-15


@settings(max_examples=40, deadline=None)
@given(n=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_project_matches_kron_oracle(n, seed):
    # P = (I + o*M)/2 on qubit q as a kron-built 2^n operator, with
    # M = nx X - ny Y - nz Z (triplet |1> at +z)
    rng = np.random.default_rng(seed)
    state = random_state(n, rng)
    for q in range(n):
        axis = _random_axis(rng)
        m = axis[0] * PAULI_X - axis[1] * PAULI_Y - axis[2] * PAULI_Z
        for outcome in (-1, +1):
            branch = kron_chain(n, {q: (I2 + outcome * m) / 2.0}) @ state.amplitudes
            expected = float(np.vdot(branch, branch).real)
            prob, post = project(state, MeasurementSpec(q, axis), outcome)
            assert prob == pytest.approx(expected, abs=1e-12)
            assert np.max(np.abs(post.amplitudes - branch / math.sqrt(expected))) <= 1e-12


def test_middle_qubit_z_deletion():
    # measuring the middle qubit of a 3-chain in z cuts the graph: both
    # outcomes are equally likely and leave the outer qubits in a product
    state = ideal_cluster(3)
    spec = MeasurementSpec(1, Z_AXIS)

    p_minus, post_minus = project(state, spec, -1)  # singlet branch, bit 0
    assert p_minus == pytest.approx(0.5, abs=1e-12)
    expected_minus = np.zeros(8)
    expected_minus[[0, 1, 4, 5]] = 0.5  # |+>|0>|+>
    assert np.max(np.abs(post_minus.amplitudes - expected_minus)) <= 1e-10

    p_plus, post_plus = project(state, spec, +1)  # triplet branch, bit 1
    assert p_plus == pytest.approx(0.5, abs=1e-12)
    expected_plus = np.zeros(8)
    expected_plus[[2, 7]] = 0.5  # |->|1>|->
    expected_plus[[3, 6]] = -0.5
    assert np.max(np.abs(post_plus.amplitudes - expected_plus)) <= 1e-10

    # each branch factorizes over the outer qubits: rank-1 as a 2x2 table
    for post, bit in ((post_minus, 0), (post_plus, 1)):
        table = post.amplitudes.reshape(2, 2, 2)[:, bit, :]
        assert np.linalg.svd(table, compute_uv=False)[1] <= 1e-10


def test_schedule_examples():
    assert schedule_rounds({0, 2, 4}).rounds == ((0, 2, 4),)
    assert schedule_rounds([0, 1, 2, 3]).rounds == ((0, 2), (1, 3))
    assert schedule_rounds([5]).rounds == ((5,),)
    assert schedule_rounds([]).rounds == ()
    assert schedule_rounds([3, 4]).rounds == ((4,), (3,))


def test_schedule_validation():
    with pytest.raises(ValueError):
        schedule_rounds([1, 1])
    with pytest.raises(ValueError):
        schedule_rounds([-1])
    with pytest.raises(ValueError):
        RoundSchedule(rounds=((0, 1),))
    with pytest.raises(ValueError):
        RoundSchedule(rounds=((0,), (0,)))


@settings(max_examples=200, deadline=None)
@given(requested=st.sets(st.integers(min_value=0, max_value=63)))
def test_schedule_property(requested):
    schedule = schedule_rounds(requested)
    seen = []
    for rnd in schedule.rounds:
        present = set(rnd)
        assert all(q + 1 not in present for q in rnd)
        seen.extend(rnd)
    assert sorted(seen) == sorted(requested)
    ordered = sorted(requested)
    adjacent = any(b - a == 1 for a, b in zip(ordered, ordered[1:]))
    assert len(schedule.rounds) == (2 if adjacent else (1 if requested else 0))


def test_run_schedule_empty():
    state = ideal_cluster(3)
    records = run_schedule(state, RoundSchedule(rounds=()), {}, seed=0)
    assert records == []
    assert np.array_equal(state.amplitudes, ideal_cluster(3).amplitudes)


def test_run_schedule_deterministic():
    state = ideal_cluster(4)
    schedule = schedule_rounds(range(4))
    bases = {q: Z_AXIS for q in range(4)}
    a = run_schedule(state, schedule, bases, seed=42)
    b = run_schedule(state, schedule, bases, seed=42)
    assert [r.outcome for r in a] == [r.outcome for r in b]


def test_run_schedule_range_check():
    with pytest.raises(ValueError):
        run_schedule(ideal_cluster(2), schedule_rounds([5]), {5: Z_AXIS}, seed=0)


def test_run_schedule_equals_measure_loop():
    # one batched draw per schedule: measurement t still sees exactly the
    # uniform of stream t, bit for bit
    rng = np.random.default_rng(31)
    names = sorted(NAMED_AXES)
    for seed in (0, 1, 7, 2024, 2**63 + 5):
        state = random_state(6, rng)
        schedule = schedule_rounds(range(6))
        bases = {q: NAMED_AXES[names[int(rng.integers(0, 3))]] for q in range(6)}
        records = run_schedule(state, schedule, bases, seed)
        current, stream = state, 0
        for rnd in schedule.rounds:
            for q in sorted(rnd):
                expected, post = spec_loop_measure(current, MeasurementSpec(q, bases[q]), seed, stream)
                record = records[stream]
                assert (record.qubit, record.outcome) == (q, expected.outcome)
                assert record.probability == expected.probability
                current, stream = post, stream + 1
        assert stream == len(records) == 6


def _record_bytes(record):
    return record.qubit, record.outcome, repr(record.probability)


# Axes as a caller may pass them: named tuples, random unit axes, int-valued
# and signed-zero spellings of named axes, and numpy arrays.
AXIS_KINDS = ("named", "unit", "int", "negative_zero", "diagonal", "array_named", "array_unit")
SIGNED_ZERO_AXES = ((-0.0, 0.0, 1.0), (1.0, -0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, -1.0))
# P is diagonal on these: a 0/1 projector on -z, not one just inside the
# unit-norm tolerance
DIAGONAL_AXES = ((0.0, 0.0, -1.0), (0.0, 0.0, 1.0 - 4e-11), (0.0, 0.0, -1.0 + 4e-11))


def _axis_of_kind(kind, rng):
    named = NAMED_AXES[("x", "y", "z")[int(rng.integers(0, 3))]]
    if kind == "named":
        return named
    if kind == "unit":
        return _random_axis(rng)
    if kind == "int":
        return tuple(int(c) for c in named)
    if kind == "negative_zero":
        return SIGNED_ZERO_AXES[int(rng.integers(0, len(SIGNED_ZERO_AXES)))]
    if kind == "diagonal":
        return DIAGONAL_AXES[int(rng.integers(0, len(DIAGONAL_AXES)))]
    if kind == "array_named":
        return np.array(named)
    return np.array(_random_axis(rng))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    cluster=st.booleans(),
    kinds=st.lists(st.sampled_from(AXIS_KINDS), min_size=12, max_size=12),
    data=st.data(),
)
def test_measurement_bytes_match_spec_loop_oracle(n, seed, cluster, kinds, data):
    # the named-axis table, the up-front axis check and the one sampler
    # change no byte of any record, probability or post-state
    rng = np.random.default_rng(seed % 2**32)
    state = ideal_cluster(n) if cluster else random_state(n, rng)
    requested = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    schedule = schedule_rounds(requested)
    if data.draw(st.booleans()):
        schedule = RoundSchedule(rounds=schedule.rounds[::-1])
    bases = {q: _axis_of_kind(kinds[q], rng) for q in range(n)}
    records = run_schedule(state, schedule, bases, seed)
    expected = spec_loop_run_schedule(state, schedule, bases, seed)
    assert [_record_bytes(r) for r in records] == [_record_bytes(r) for r in expected]
    for stream, q in enumerate(schedule.qubits):
        spec = MeasurementSpec(q, tuple(bases[q]))
        with pytest.MonkeyPatch.context() as patch:
            draw_stream(patch, stream)
            (got,) = run_schedule(state, schedule_rounds([q]), {q: bases[q]}, seed)
        want, _ = spec_loop_measure(state, spec, seed, stream)
        assert _record_bytes(got) == _record_bytes(want)
        for outcome in (-1, +1):
            (p, post), (p_want, post_want) = (
                project(state, spec, outcome),
                spec_loop_project(state, spec, outcome),
            )
            assert repr(p) == repr(p_want)
            assert (post is None) == (post_want is None)
            if post is not None:
                assert post.amplitudes.tobytes() == post_want.amplitudes.tobytes()


@pytest.mark.parametrize("n", range(1, 13))
def test_schedule_records_equal_checked_records(n):
    # run_schedule builds its records without MeasurementRecord's check:
    # each is the record that check keeps, with the same field types, and
    # the list prints as the spec loop's does (a numpy scalar field would
    # print differently in the benchmark's !r digest)
    rng = np.random.default_rng(900 + n)
    schedule = schedule_rounds(range(n))
    for kind in AXIS_KINDS:
        for seed in (0, 17, 2**63 + 1):
            state = random_state(n, rng)
            bases = {q: _axis_of_kind(kind, rng) for q in range(n)}
            records = run_schedule(state, schedule, bases, seed)
            for r in records:
                assert type(r) is MeasurementRecord
                assert (type(r.qubit), type(r.outcome), type(r.probability)) == (int, int, float)
                assert r == MeasurementRecord(r.qubit, r.outcome, r.probability)
            assert repr(records) == repr(spec_loop_run_schedule(state, schedule, bases, seed))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(AXIS_KINDS),
    zeros=st.sampled_from((0.0, 0.1, 0.5)),
)
def test_kernel_matches_broadcast_oracle_bit_for_bit(n, seed, kind, zeros):
    # both branches of the kernel (zeroed half on z and -z, flipped copy on
    # every other axis) give the broadcast formula's bytes, at
    # every qubit and for both outcomes, on states with exact zeros and
    # -0.0 components, and leaves its input untouched
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    for part in (amps.real, amps.imag):
        part[rng.random(2**n) < zeros] = 0.0
        part[rng.random(2**n) < zeros] = -0.0
    if not np.any(amps):
        amps[0] = 1.0
    state = ChainState(n, amps / np.linalg.norm(amps))
    before = state.amplitudes.tobytes()
    axis = _axis_of_kind(kind, rng)
    for q in range(n):
        spec = MeasurementSpec(q, axis)
        for outcome in (-1, +1):
            projector = measurement._build_projector(spec.basis, outcome)
            got = measurement._project_raw(state.amplitudes, projector, q, n)
            got += 0.0
            assert got.tobytes() == projected_branch(state, spec, outcome).tobytes()
    assert state.amplitudes.tobytes() == before


NUMPY_TRACE_DOMAIN = 389047  # the tracemalloc domain of numpy's array buffers


def _array_bytes(snapshot) -> int:
    return sum(trace.size for trace in snapshot.traces if trace.domain == NUMPY_TRACE_DOMAIN)


def test_measurement_calls_leave_nothing_allocated():
    # after run_schedule and project return and their results are
    # dropped, no array buffer of theirs is left behind: no cache or table
    # grows with the number of calls. (Python's own free lists keep some
    # small objects, so only array buffers are counted.)
    n = 16
    state, _ = prepare_chain(config_from_strings({"n_qubits": str(n)}))
    schedule = schedule_rounds(range(n))
    axes = (X_AXIS, Y_AXIS, Z_AXIS, (0.6, 0.0, 0.8))
    bases = {q: axes[q % len(axes)] for q in range(n)}
    specs = [MeasurementSpec(n // 2, axis) for axis in axes]

    def calls(seeds):
        for seed in seeds:
            run_schedule(state, schedule, bases, seed)
            for spec in specs:
                measure_once(state, spec, seed)
                project(state, spec, -1)

    calls(range(1))  # the rng's generator is set up once
    tracemalloc.start()
    try:
        before = _array_bytes(tracemalloc.take_snapshot())
        calls(range(1, 4))
        after = _array_bytes(tracemalloc.take_snapshot())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after == before
    assert peak >= state.amplitudes.nbytes  # the calls were traced


def test_run_schedule_refuses_missing_axis_before_measuring(monkeypatch):
    draws = []
    monkeypatch.setattr(measurement, "uniforms", lambda *args: draws.append(args))
    state = ideal_cluster(4)
    with pytest.raises(ValueError, match="qubit 1"):
        run_schedule(state, schedule_rounds(range(4)), {0: Z_AXIS, 2: Z_AXIS, 3: Z_AXIS}, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        run_schedule(state, schedule_rounds(range(4)), {q: (0.0, 0.0, 2.0) for q in range(4)}, seed=0)
    # equal to the z axis, but refused like MeasurementSpec refuses it
    with pytest.raises(TypeError):
        run_schedule(state, schedule_rounds(range(4)), {q: (0j, 0j, 1 + 0j) for q in range(4)}, seed=0)
    assert draws == []


def test_clipped_branch_probability_is_revalidated():
    # this input's norm is just inside NORM_ATOL above 1, and rounding puts
    # its +x branch's norm just outside it: p+ is clipped to 1, and the
    # scaled branch is refused as a ChainState, as project and the spec
    # loop refuse it
    amps = np.array(
        [
            complex(0.5709117373900118, 0.4172047311696239),
            complex(0.5709117379609235, 0.4172047315868287),
        ]
    )
    state = ChainState(1, amps)
    spec = MeasurementSpec(0, X_AXIS)
    branch = projected_branch(state, spec, +1)
    assert np.vdot(branch, branch).real > 1.0
    with pytest.raises(ValueError, match="norm"):
        project(state, spec, +1)
    for run in (run_schedule, spec_loop_run_schedule):
        with pytest.raises(ValueError, match="norm"):
            run(state, schedule_rounds([0]), {0: X_AXIS}, seed=0)


class _AxisTuple(tuple):
    pass


# Equal but not identical spellings of the named axes, and (0j, 0j, 1 + 0j),
# which equals Z_AXIS and hashes like it but is refused
@pytest.mark.parametrize(
    "axis",
    [
        X_AXIS,
        tuple(list(Y_AXIS)),
        tuple(float(c) for c in Z_AXIS),
        (1, 0, 0),
        (0, 0, 1),
        [0.0, 1.0, 0.0],
        np.array(Z_AXIS),
        _AxisTuple(X_AXIS),
        (True, False, False),
        (-0.0, 0.0, 1.0),
        (0.0, -1.0, -0.0),
        (0j, 0j, 1 + 0j),
    ],
    ids=repr,
)
def test_named_axis_fast_path_accepts_nothing_new(monkeypatch, axis):
    # only a NAMED_AXES tuple itself skips _unit_axis: any other spelling
    # gives the spec loop's record bytes, or its exception before any draw
    draws = []
    monkeypatch.setattr(
        measurement, "uniforms", lambda *args: draws.append(args) or uniforms(*args)
    )
    state = random_state(5, np.random.default_rng(44))
    schedule = schedule_rounds(range(5))
    bases = {q: axis for q in range(5)}
    try:
        MeasurementSpec(0, axis)
    except Exception as exc:
        with pytest.raises(type(exc)):
            run_schedule(state, schedule, bases, seed=0)
        assert draws == []
        return
    for seed in (0, 9, 2**40 + 3):
        records = run_schedule(state, schedule, bases, seed)
        expected = spec_loop_run_schedule(state, schedule, bases, seed)
        assert [_record_bytes(r) for r in records] == [_record_bytes(r) for r in expected]
    assert len(draws) == 3


@pytest.mark.parametrize(
    "tiny, raises",
    [(1e-110, False), (1e-150, False), (1e-160, True)],
)
def test_tiny_branch_probability_matches_spec_loop_oracle(monkeypatch, tiny, raises):
    # qubit 0's |0> part has norm tiny, so p- = tiny^2, and the input norm is
    # 1 - 5e-13, inside NORM_ATOL, so the largest uniform draws the -1
    # branch, scaled by 1/tiny. At p = 1e-220 no post-state is re-validated
    # and at 1e-300 it is; at 1e-320, subnormal, p is too inexact to scale
    # the branch to norm 1, which both refuse as a ChainState
    rng = np.random.default_rng(12)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps[:4] *= tiny / np.linalg.norm(amps[:4])
    amps[4:] *= math.sqrt(1.0 - 1e-12) / np.linalg.norm(amps[4:])
    state = ChainState(3, amps)
    schedule = schedule_rounds(range(3))
    bases = {0: Z_AXIS, 1: Y_AXIS, 2: X_AXIS}

    def draws(seed, domain, start, count):
        return np.array([[1.0 - 2.0**-53], [0.3], [0.6]])[start : start + count]

    monkeypatch.setattr(measurement, "uniforms", draws)
    monkeypatch.setattr(oracles, "uniforms", draws)
    if raises:
        for run in (run_schedule, spec_loop_run_schedule):
            with pytest.raises(ValueError, match="norm"):
                run(state, schedule, bases, seed=0)
        return
    records = run_schedule(state, schedule, bases, seed=0)
    expected = spec_loop_run_schedule(state, schedule, bases, seed=0)
    assert [_record_bytes(r) for r in records] == [_record_bytes(r) for r in expected]
    assert records[0].outcome == -1 and 0.0 < records[0].probability < 1e-200
    assert all(0.01 < r.probability < 0.99 for r in records[1:])


@pytest.mark.parametrize(
    "axis",
    [
        ("0.6", "0.8", "0"),
        ("0", "0", "1"),  # the z axis once float() has parsed it
        (0.0, 0.0, "1"),
        ("x", 0.0, 0.0),  # float() would raise ValueError
        (b"0", b"0", b"1"),
        b"\x00\x00\x01",  # iterates as the ints 0, 0, 1
        "001",
        np.array(["0", "0", "1"]),
    ],
)
def test_text_axis_components_are_refused(monkeypatch, axis):
    draws = []
    monkeypatch.setattr(measurement, "uniforms", lambda *args: draws.append(args))
    with pytest.raises(TypeError, match="numbers"):
        MeasurementSpec(qubit=0, basis=axis)
    with pytest.raises(TypeError, match="numbers"):
        run_schedule(ideal_cluster(3), schedule_rounds([0, 2]), {0: Z_AXIS, 2: axis}, seed=0)
    assert draws == []


def test_iterator_axis_is_read_once():
    # run_schedule takes the axes MeasurementSpec takes, an iterator included
    state = init_plus_chain(2)
    axis = (0.6, 0.8, 0.0)
    assert MeasurementSpec(0, iter(axis)).basis == axis
    (record,) = run_schedule(state, schedule_rounds([0]), {0: iter(axis)}, 0)
    expected, _ = spec_loop_measure(state, MeasurementSpec(0, axis), 0)
    assert record == expected
    assert record.probability == pytest.approx(0.2, abs=1e-12)


def test_round_schedule_refuses_negative_qubit():
    with pytest.raises(ValueError, match=">= 0"):
        RoundSchedule(rounds=((-1,),))
    with pytest.raises(ValueError, match=">= 0"):
        RoundSchedule(rounds=((0, 2), (-3,)))


def test_prepared_cluster_shots_keep_probabilities_in_range():
    # the prepared cluster makes p+ exactly 1 (and its raw value land above
    # 1 or at 0) for many named-axis measurements, so this fails if the
    # clip in the probability or the own-norm p- is lost
    n = 10
    state, _ = prepare_chain(config_from_strings({"n_qubits": str(n), "seed": "1"}))
    schedule = schedule_rounds(range(n))
    rng = np.random.default_rng(7)
    names = sorted(NAMED_AXES)
    probabilities = []
    for shot in range(500):
        bases = {q: NAMED_AXES[names[int(rng.integers(0, 3))]] for q in range(n)}
        records = run_schedule(state, schedule, bases, seed=shot)
        assert len(records) == n
        for record in records:
            assert record.outcome in (-1, 1)
            assert 0.0 < record.probability <= 1.0
            probabilities.append(record.probability)
    assert 1.0 in probabilities


def test_run_schedule_keeps_one_live_post_state():
    # a record is an outcome, not a state: a schedule over all 16 qubits of
    # a prepared chain peaks below 4 state vectors (the current post-state,
    # the branch and the kernel's temporary), not one kept per record, and
    # no reference to an earlier vector outlives its step
    n = 16
    state, _ = prepare_chain(config_from_strings({"n_qubits": str(n)}))
    schedule = schedule_rounds(range(n))
    # the first draw imports numpy.random, which is not a state vector
    run_schedule(ideal_cluster(2), schedule_rounds([0]), {0: Z_AXIS}, seed=0)
    for cycle in ((X_AXIS,), (X_AXIS, Y_AXIS, Z_AXIS)):
        bases = {q: cycle[q % len(cycle)] for q in range(n)}
        tracemalloc.start()
        try:
            records = run_schedule(state, schedule, bases, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == n
        assert peak <= 4 * state.amplitudes.nbytes
        for record in records:
            for field in dataclasses.fields(record):
                assert not isinstance(getattr(record, field.name), (np.ndarray, ChainState))


def test_run_schedule_rejects_denormalized_state():
    state = ideal_cluster(3)
    state.amplitudes = state.amplitudes * 0.5
    with pytest.raises(ValueError):
        run_schedule(state, schedule_rounds(range(3)), {q: Z_AXIS for q in range(3)}, seed=0)


def test_measurement_refuses_nan_amplitudes():
    # a NaN norm is not within NORM_ATOL of 1, so the state is refused
    # before any probability is formed
    state = ideal_cluster(3)
    state.amplitudes = state.amplitudes.copy()
    state.amplitudes[5] = complex(math.nan, 0.0)
    spec = MeasurementSpec(1, Z_AXIS)
    with pytest.raises(ValueError, match="normalized"):
        run_schedule(state, schedule_rounds(range(3)), {q: Z_AXIS for q in range(3)}, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        measure_once(state, spec, seed=0)
    with pytest.raises(ValueError, match="normalized"):
        project(state, spec, +1)


def test_intra_round_order_irrelevant():
    # projectors on non-adjacent qubits commute: both orders give the same
    # joint outcome probabilities, checked exactly by enumeration
    rng = np.random.default_rng(17)
    state = random_state(4, rng)
    spec_a = MeasurementSpec(0, _random_axis(rng))
    spec_c = MeasurementSpec(2, _random_axis(rng))
    for o_a, o_c in product((-1, +1), repeat=2):
        p1, mid = project(state, spec_a, o_a)
        joint_ac = 0.0
        if mid is not None:
            p2, _ = project(mid, spec_c, o_c)
            joint_ac = p1 * p2
        q1, mid = project(state, spec_c, o_c)
        joint_ca = 0.0
        if mid is not None:
            q2, _ = project(mid, spec_a, o_a)
            joint_ca = q1 * q2
        assert joint_ac == pytest.approx(joint_ca, abs=1e-12)


def test_all_z_schedule_joint_distribution():
    # outcome tuples map to basis indices (+1 -> bit 1); empirical
    # frequencies must match the Born weights |amp|^2
    n, trials = 4, 100_000
    state = ideal_cluster(n)
    schedule = schedule_rounds(range(n))
    bases = {q: Z_AXIS for q in range(n)}
    counts = np.zeros(2**n)
    for t in range(trials):
        records = run_schedule(state, schedule, bases, seed=t)
        index = 0
        for record in sorted(records, key=lambda r: r.qubit):
            index = (index << 1) | (record.outcome == 1)
        counts[index] += 1
    born = np.abs(state.amplitudes) ** 2
    tv = 0.5 * np.sum(np.abs(counts / trials - born))
    assert tv < 0.01


def test_named_axes():
    assert set(NAMED_AXES) == {"x", "y", "z"}
    for axis in NAMED_AXES.values():
        assert math.isclose(sum(c * c for c in axis), 1.0)
