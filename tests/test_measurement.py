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
    measure,
    project,
    run_schedule,
    schedule_rounds,
)
from dotchain import measurement
from dotchain.config import config_from_strings
from dotchain.harness import prepare_chain
from dotchain.measurement import NAMED_AXES, X_AXIS, Z_AXIS
from dotchain.rng import MEASUREMENT, uniforms

from conftest import random_state
from oracles import (
    I2,
    PAULI_X,
    PAULI_Z,
    ideal_cluster,
    kron_chain,
    spec_loop_measure,
    spec_loop_project,
    spec_loop_run_schedule,
)

PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])


def ket(*amps):
    vec = np.array(amps, dtype=complex)
    n = int(math.log2(len(vec)))
    return ChainState(n, vec / np.linalg.norm(vec))


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


def test_z_measurement_of_singlet_state():
    # |0> is the singlet: the charge moves, outcome -1, with certainty
    record, post = measure(ket(1, 0), MeasurementSpec(0, Z_AXIS), seed=0)
    assert record.outcome == -1
    assert record.probability == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(post.amplitudes, [1, 0])


def test_z_measurement_of_triplet_state():
    record, _ = measure(ket(0, 1), MeasurementSpec(0, Z_AXIS), seed=0)
    assert record.outcome == +1
    assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_x_measurement_of_plus_state():
    record, _ = measure(ket(1, 1), MeasurementSpec(0, X_AXIS), seed=0)
    assert record.outcome == +1
    assert record.probability == pytest.approx(1.0, abs=1e-12)


def test_measure_rejects_bad_input():
    state = ket(1, 0)
    with pytest.raises(ValueError):
        measure(state, MeasurementSpec(qubit=1, basis=Z_AXIS), seed=0)
    denormalized = ket(1, 0)
    denormalized.amplitudes = denormalized.amplitudes * 0.5
    with pytest.raises(ValueError):
        measure(denormalized, MeasurementSpec(0, Z_AXIS), seed=0)
    with pytest.raises(ValueError):
        project(state, MeasurementSpec(0, Z_AXIS), outcome=0)


def test_measure_deterministic_per_seed():
    state = ideal_cluster(3)
    spec = MeasurementSpec(1, X_AXIS)
    a, a_post = measure(state, spec, seed=5, stream=2)
    b, b_post = measure(state, spec, seed=5, stream=2)
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
        record, post_state = measure(state, spec, seed=int(rng.integers(0, 1000)))
        p_same, post = project(post_state, spec, record.outcome)
        assert p_same == pytest.approx(1.0, abs=1e-10)
        repeat, _ = measure(post_state, spec, seed=999)
        assert repeat.outcome == record.outcome


def test_unlikely_minus_outcome_keeps_precision():
    # p- comes from the norm of psi - P+ psi, not from 1 - p+, so it stays
    # accurate to the last digits when p+ is within 1e-6 of 1
    u = uniforms(0, MEASUREMENT, 0, 10**6)[:, 0]
    stream = int(np.argmax(u))
    p_minus = 2.0 * (1.0 - u[stream])
    angle = math.asin(math.sqrt(p_minus))
    state = ket(math.sin(angle), math.cos(angle))
    record, post = measure(state, MeasurementSpec(0, Z_AXIS), seed=0, stream=stream)
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
    record, post = measure(state, MeasurementSpec(0, Z_AXIS), seed=0)
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
                expected, post = measure(current, MeasurementSpec(q, bases[q]), seed, stream=stream)
                record = records[stream]
                assert (record.qubit, record.outcome) == (q, expected.outcome)
                assert record.probability == expected.probability
                current, stream = post, stream + 1
        assert stream == len(records) == 6


def _record_bytes(record):
    return record.qubit, record.outcome, repr(record.probability)


def _state_bytes(state):
    return None if state is None else state.amplitudes.tobytes()


# Axes as a caller may pass them: named tuples, random unit axes, int-valued
# and signed-zero spellings of named axes, and numpy arrays.
AXIS_KINDS = ("named", "unit", "int", "negative_zero", "array_named", "array_unit")
SIGNED_ZERO_AXES = ((-0.0, 0.0, 1.0), (1.0, -0.0, -0.0), (-0.0, 1.0, 0.0), (0.0, -0.0, -1.0))


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
    # the projector table, the up-front axis check and the shared sampler
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
        (got, got_post), (want, want_post) = (
            measure(state, spec, seed, stream),
            spec_loop_measure(state, spec, seed, stream),
        )
        assert _record_bytes(got) == _record_bytes(want)
        assert _state_bytes(got_post) == _state_bytes(want_post)
        for outcome in (-1, +1):
            (p, post), (p_want, post_want) = (
                project(state, spec, outcome),
                spec_loop_project(state, spec, outcome),
            )
            assert repr(p) == repr(p_want)
            assert (post is None) == (post_want is None)
            if post is not None:
                assert post.amplitudes.tobytes() == post_want.amplitudes.tobytes()


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
    expected, _ = measure(state, MeasurementSpec(0, axis), 0)
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
    # a prepared chain peaks at a few state vectors (the kernel's temporaries
    # and the current post-state), not one kept per record
    n = 16
    state, _ = prepare_chain(config_from_strings({"n_qubits": str(n)}))
    schedule = schedule_rounds(range(n))
    bases = {q: X_AXIS for q in range(n)}
    tracemalloc.start()
    try:
        records = run_schedule(state, schedule, bases, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == n
    assert peak <= 6 * state.amplitudes.nbytes
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
        measure(state, spec, seed=0)
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
