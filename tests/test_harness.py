import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dotchain
from dotchain import (
    accumulated_phase,
    apply_ising_phases,
    cluster_stabilizers,
    init_plus_chain,
    plateau_coupling,
    solve_hold_time,
)
from dotchain.cli import main
from dotchain.config import ConfigError, config_from_strings, load_config_file
from dotchain.harness import (
    prepare_chain,
    run_figure2,
    run_figure3,
    run_measure_demo,
    run_prepare,
)
from dotchain.noise import CHUNK_ELEMENTS
from dotchain.rng import normal_width

from oracles import kron_chain, P_ONE, per_point_monte_carlo


def read_csv(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cfg_with(**overrides):
    return config_from_strings({k: str(v) for k, v in overrides.items()})


def test_figure2_outputs(tmp_path, dev, golden):
    paths = run_figure2(cfg_with(), tmp_path)
    header, rows = read_csv(paths["figure2a"])
    assert header == ["epsilon_mev", "coupling_mev"]
    assert len(rows) == 2001
    eps = [float(r[0]) for r in rows]
    coupling = [float(r[1]) for r in rows]
    assert eps[0] == -2.5 and eps[-1] == 2.5
    assert max(coupling) == pytest.approx(golden["ising_coupling_max_default_mev"], rel=1e-4)
    assert max(coupling) == pytest.approx(5.54e-4, rel=5e-3)
    assert all(b >= a for a, b in zip(coupling, coupling[1:]))

    header, rows = read_csv(paths["figure2c"])
    assert header == ["t_ns", "epsilon_mev", "coupling_mev"]
    assert len(rows) == 2001
    t = np.array([float(r[0]) for r in rows])
    eps_t = np.array([float(r[1]) for r in rows])
    c_t = np.array([float(r[2]) for r in rows])
    tau2 = solve_hold_time(1.0, dev)
    assert t[0] == 0.0 and t[-1] == pytest.approx(2.0 + tau2, rel=1e-12)
    assert eps_t.min() == -2.5 and eps_t.max() == 2.5
    # flat top at the plateau coupling throughout the hold
    hold = (t >= 1.0) & (t <= 1.0 + tau2)
    plateau = plateau_coupling(cfg_with().build_pulse(), dev)
    assert hold.sum() > 100
    assert np.allclose(c_t[hold], plateau, rtol=1e-12)
    assert paths["manifest"].exists()


def test_figure2_rejects_invalid_before_writing(tmp_path):
    from dotchain.config import ConfigError

    with pytest.raises(ConfigError):
        cfg_with(tunnel_coupling_mev=0)
    assert list(tmp_path.iterdir()) == []


def test_figure3_grid(tmp_path):
    cfg = cfg_with(trials=400, seed=5, sigma_over_pi="0.0,0.05")
    paths = run_figure3(cfg, tmp_path)
    header, rows = read_csv(paths["fidelity"])
    assert header == ["n", "sigma_over_pi", "mc_mean", "mc_stderr", "exact_mean", "trials", "seed"]
    assert len(rows) == 19 + 2  # n-sweep 2..20 plus two sigma rows

    n_sweep = rows[:19]
    assert [int(r[0]) for r in n_sweep] == list(range(2, 21))
    assert all(float(r[1]) == 0.03 for r in n_sweep)
    means = [float(r[2]) for r in n_sweep]
    errs = [float(r[3]) for r in n_sweep]
    exacts = [float(r[4]) for r in n_sweep]
    # monotone non-increasing within sampling error; exact strictly decreasing
    for k in range(len(means) - 1):
        assert means[k + 1] <= means[k] + 4 * (errs[k] + errs[k + 1])
        assert exacts[k + 1] < exacts[k]
    for r in rows:
        assert abs(float(r[2]) - float(r[4])) <= 4 * float(r[3]) + 1e-12
        assert int(r[5]) == 400 and int(r[6]) == 5

    sigma_rows = rows[19:]
    assert [float(r[1]) for r in sigma_rows] == [0.0, 0.05]
    assert all(int(r[0]) == 20 for r in sigma_rows)
    # sigma = 0 row: both estimators exactly 1
    assert float(sigma_rows[0][2]) == 1.0
    assert float(sigma_rows[0][4]) == 1.0


@pytest.mark.parametrize("trials", [100, 257, 2001])
def test_figure3_rows_match_per_point_oracle(tmp_path, trials):
    # 0.03 repeats the n-sweep's n = 20 row and appears twice in the list
    sigmas = [0.0, 0.03, 0.07, 0.03, 0.1]
    cfg = cfg_with(trials=trials, seed=41, sigma_over_pi=",".join(map(str, sigmas)))
    _, rows = read_csv(run_figure3(cfg, tmp_path)["fidelity"])
    grid = [(n, 0.03) for n in range(2, 21)] + [(20, s) for s in sigmas]
    assert [(int(r[0]), float(r[1])) for r in rows] == grid
    for row, (n, sigma_over_pi) in zip(rows, grid):
        oracle = per_point_monte_carlo(n, sigma_over_pi * math.pi, trials, 41)
        assert (float(row[2]), float(row[3])) == oracle


def test_figure3_draws_each_trial_once(tmp_path, monkeypatch):
    import dotchain.noise as noise

    calls = []
    draw = noise.normals

    def counted(seed, domain, first_stream, n_streams, per_stream):
        calls.append((normal_width(per_stream), first_stream, n_streams, per_stream))
        return draw(seed, domain, first_stream, n_streams, per_stream)

    monkeypatch.setattr(noise, "normals", counted)
    trials = 600
    cfg = cfg_with(trials=trials, seed=3)  # the default sigma grid
    run_figure3(cfg, tmp_path)

    sigmas = {0.03} | set(cfg.sigma_over_pi)
    streams = [t for _, first, count, _ in calls for t in range(first, first + count)]
    assert sorted(streams) == list(range(trials))
    # 5 blocks a trial for the 19 bonds of n = 20; 15 when each width drew its own
    assert sum(width * count for width, _, count, _ in calls) == 5 * trials
    for _, _, count, bonds in calls:
        assert count * max(len(sigmas), bonds) <= CHUNK_ELEMENTS or count == 1


def test_prepare_defaults(tmp_path):
    report = run_prepare(cfg_with(n_qubits=10), tmp_path / "run")
    assert report.fidelity_to_ideal >= 1 - 1e-8
    assert all(s >= 1 - 1e-8 for s in report.stabilizers)
    assert report.passed
    assert report.bond_phase_rad == pytest.approx(math.pi, rel=1e-9)
    written = json.loads((tmp_path / "run" / "prepare_report.json").read_text())
    assert written["passed"] is True
    assert written["n_qubits"] == 10
    header, rows = read_csv(tmp_path / "run" / "stabilizers.csv")
    assert header == ["site", "expectation"]
    assert len(rows) == 10


def test_prepare_single_qubit(tmp_path):
    report = run_prepare(cfg_with(n_qubits=1), tmp_path)
    assert report.fidelity_to_ideal == pytest.approx(1.0, abs=1e-12)
    assert report.stabilizers == pytest.approx((1.0,), abs=1e-12)
    assert report.passed


def test_every_bond_carries_the_accumulated_phase(tmp_path):
    # prepare_chain and run_prepare give each of the n - 1 bonds the phase
    # of the one collective pulse
    cfg = cfg_with(n_qubits=5)
    phi = accumulated_phase(cfg.build_pulse(), cfg.device)
    bonds = np.full(4, phi)
    state, _ = prepare_chain(cfg)
    expected = apply_ising_phases(init_plus_chain(5), bonds)
    assert np.array_equal(state.amplitudes, expected.amplitudes)
    report = run_prepare(cfg, tmp_path)
    assert report.bond_phase_rad == phi
    assert report.stabilizers == tuple(cluster_stabilizers(bonds).tolist())


def test_single_qubit_chain_and_measurement(tmp_path):
    # one qubit has no bond: the chain is |+> and a z measurement is a coin
    cfg = cfg_with(n_qubits=1)
    state, _ = prepare_chain(cfg)
    assert state.n_qubits == 1
    assert np.array_equal(state.amplitudes, init_plus_chain(1).amplitudes)
    paths = run_measure_demo(cfg, tmp_path)
    _, record_rows = read_csv(paths["records"])
    assert len(record_rows) == 1
    assert [float(v) for v in record_rows[0][2:5]] == [0.0, 0.0, 1.0]
    assert abs(float(record_rows[0][6]) - 0.5) <= 1e-15


def test_prepare_builds_no_dense_state(tmp_path, monkeypatch):
    # verification works from the bond phases alone: no 2^n vector at any n
    from dotchain.state import ChainState

    def refuse(self):
        raise AssertionError("run_prepare built a dense ChainState")

    monkeypatch.setattr(ChainState, "__post_init__", refuse)
    report = run_prepare(cfg_with(n_qubits=24), tmp_path)
    assert report.passed
    assert len(report.stabilizers) == 24


def test_prepare_half_phase(tmp_path, dev):
    # rectangular pulse at half the calibrated hold leaves the bond at pi/2:
    # single-bond fidelity (5 + 3 cos(pi/2))/8 = 0.625
    tau2 = solve_hold_time(0.0, dev)
    with pytest.warns(UserWarning, match="ramp_ns=0 ns is below"):
        report = run_prepare(cfg_with(n_qubits=2, tau1_ns=0.0, tau2_ns=tau2 / 2), tmp_path)
    assert report.bond_phase_rad == pytest.approx(math.pi / 2, rel=1e-9)
    assert report.fidelity_to_ideal == pytest.approx(0.625, rel=1e-6)
    assert not report.passed


def test_measure_demo(tmp_path):
    cfg = cfg_with(n_qubits=4, seed=3)
    paths = run_measure_demo(cfg, tmp_path)
    header, schedule_rows = read_csv(paths["schedule"])
    assert header == ["round", "qubit"]
    assert {int(r[0]) for r in schedule_rows} == {0, 1}  # path 2-coloring
    assert sorted(int(r[1]) for r in schedule_rows) == [0, 1, 2, 3]

    header, record_rows = read_csv(paths["records"])
    assert header == ["round", "qubit", "axis_x", "axis_y", "axis_z", "outcome", "probability"]
    assert len(record_rows) == 4
    for row in record_rows:
        assert [float(row[2]), float(row[3]), float(row[4])] == [0.0, 0.0, 1.0]
        assert int(row[5]) in (-1, 1)
        assert 0.0 <= float(row[6]) <= 1.0


def test_measure_demo_empty_pattern(tmp_path):
    paths = run_measure_demo(cfg_with(n_qubits=3, measure_pattern="none"), tmp_path)
    _, record_rows = read_csv(paths["records"])
    _, schedule_rows = read_csv(paths["schedule"])
    assert record_rows == [] and schedule_rows == []


def test_measure_demo_statistics(tmp_path, dev):
    # all-z joint outcome frequencies on the 3-qubit cluster against the
    # Born weights from direct enumeration
    from dotchain.measurement import Z_AXIS, run_schedule, schedule_rounds

    cfg = cfg_with(n_qubits=3)
    state, _ = prepare_chain(cfg)
    schedule = schedule_rounds(range(3))
    bases = {q: Z_AXIS for q in range(3)}
    trials = 10_000
    counts = np.zeros(8)
    for t in range(trials):
        records = run_schedule(state, schedule, bases, seed=t)
        index = 0
        for record in sorted(records, key=lambda r: r.qubit):
            index = (index << 1) | (record.outcome == 1)
        counts[index] += 1
    born = np.abs(state.amplitudes) ** 2
    tv = 0.5 * np.sum(np.abs(counts / trials - born))
    assert tv < 0.02


def test_manifest_contents(tmp_path):
    paths = run_figure2(cfg_with(seed=9), tmp_path)
    manifest = json.loads(paths["manifest"].read_text())
    assert manifest["command"] == "figure2"
    assert manifest["artifact"] == "dotchain"
    assert "Philox" in manifest["rng_algorithm"]
    assert manifest["constants"]["coulomb_ev_nm"] == 1.43996
    assert "seed = 9" in manifest["config_text"]


def test_manifest_rerun_reproduces_bytes(tmp_path):
    cfg = cfg_with(trials=200, seed=21, sigma_over_pi="0.03")
    first = run_figure3(cfg, tmp_path / "a")
    again = config_from_strings(load_config_file(first["manifest"]))
    second = run_figure3(again, tmp_path / "b")
    assert first["fidelity"].read_bytes() == second["fidelity"].read_bytes()


def test_cli_prepare_prints_local_phase(tmp_path):
    # one stdout line carries the qubits' own phase and its detuning slope;
    # it is printed only, and the files match those run_prepare writes
    result = CliRunner().invoke(main, ["prepare", "--out", str(tmp_path / "cli")])
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[1] == "local_phase=12279.5408 rad dlocal_phase/deps=5.67102 rad/ueV"
    run_prepare(config_from_strings({}), tmp_path / "lib")
    for name in ("prepare_report.json", "stabilizers.csv", "run_manifest.json"):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes()


def test_cli_prepare_exit_codes(tmp_path, dev):
    runner = CliRunner()
    ok = runner.invoke(main, ["prepare", "--qubits", "4", "--out", str(tmp_path / "ok")])
    assert ok.exit_code == 0, ok.output
    assert "verification passed" in ok.output

    # validation failure: zero tunnel coupling rejected before any run
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("tunnel_coupling_mev = 0.0\n")
    bad = runner.invoke(
        main, ["prepare", "--config", str(bad_cfg), "--out", str(tmp_path / "bad")]
    )
    assert bad.exit_code == 1

    # threshold failure: miscalibrated hold -> stabilizers below 1 - 1e-6
    tau2 = solve_hold_time(0.0, dev)
    half_cfg = tmp_path / "half.cfg"
    half_cfg.write_text(f"tau1_ns = 0.0\ntau2_ns = {tau2 / 2!r}\nn_qubits = 2\n")
    with pytest.warns(UserWarning, match="ramp_ns=0 ns is below"):
        failed = runner.invoke(
            main, ["prepare", "--config", str(half_cfg), "--out", str(tmp_path / "half")]
        )
    assert failed.exit_code == 2


def test_cli_prepare_at_qubit_cap(tmp_path):
    out = tmp_path / "cap"
    result = CliRunner().invoke(main, ["prepare", "--qubits", "24", "--out", str(out)])
    assert result.exit_code == 0, result.output
    header, rows = read_csv(out / "stabilizers.csv")
    assert header == ["site", "expectation"]
    assert [int(r[0]) for r in rows] == list(range(24))


def test_cli_overrides(tmp_path):
    runner = CliRunner()
    out = tmp_path / "f3"
    result = runner.invoke(
        main,
        [
            "figure3",
            "--trials",
            "150",
            "--seed",
            "8",
            "--sigma-over-pi",
            "0.02",
            "--out",
            str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    _, rows = read_csv(out / "fidelity.csv")
    assert len(rows) == 19 + 1
    assert float(rows[-1][1]) == 0.02
    assert int(rows[-1][5]) == 150 and int(rows[-1][6]) == 8


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("figure2", "--seed", "5"),
        ("figure2", "--trials", "150"),
        ("figure2", "--qubits", "5"),
        ("figure2", "--sigma-over-pi", "0.02"),
        ("figure3", "--qubits", "5"),
        ("prepare", "--seed", "5"),
        ("prepare", "--trials", "7"),
        ("prepare", "--sigma-over-pi", "0.02"),
        ("measure-demo", "--trials", "150"),
        ("measure-demo", "--sigma-over-pi", "0.02"),
    ],
)
def test_cli_refuses_unused_flags(tmp_path, command, flag, value):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, flag, value, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"{flag} is not used by {command}" in result.output
    assert not out.exists()


def test_cli_unknown_config_key(tmp_path):
    runner = CliRunner()
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("coupling = 3\n")
    result = runner.invoke(main, ["figure2", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 1


def test_cli_missing_config_is_validation_failure(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["figure2", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path)]
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("config_text", [5, None, ["seed = 3"]])
def test_manifest_config_text_must_be_text(tmp_path, config_text):
    manifest = tmp_path / "run_manifest.json"
    manifest.write_text(json.dumps({"config_text": config_text}))
    with pytest.raises(ConfigError, match="config_text is not a string"):
        load_config_file(manifest)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["prepare", "--config", str(manifest), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "config_text is not a string" in result.output
    assert not out.exists()


def test_cli_reports_unreachable_calibration(tmp_path):
    # 20 ns ramps alone overshoot a pi bond phase; auto-calibration must fail
    # with the ramp-only phase in the diagnostics, not crash or write files
    runner = CliRunner()
    cfg = tmp_path / "long_ramp.cfg"
    cfg.write_text("tau1_ns = 20.0\nn_qubits = 2\n")
    out = tmp_path / "out"
    result = runner.invoke(main, ["prepare", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert "unreachable" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["figure2", "prepare", "measure-demo"])
@pytest.mark.parametrize(
    "config_text, message",
    [
        ("tau1_ns = 20.0\n", "unreachable"),
        # valid keys, yet the pulse lasts longer than a double can hold
        ("tau1_ns = 1e308\ntau2_ns = 1.0\n", "duration must be finite"),
    ],
    ids=["unreachable", "endless"],
)
def test_cli_failures_exit_1_on_every_pulse_command(tmp_path, command, config_text, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text + "n_qubits = 2\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert message in result.output
    assert not out.exists()


def test_cli_prepare_refuses_non_finite_bond_phase(tmp_path):
    # a valid config whose hold-time coupling overflows gives an infinite
    # bond phase; prepare must refuse it before writing any file
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("relative_permittivity = 0.01\ntau2_ns = 1e306\nn_qubits = 3\n")
    out = tmp_path / "out"
    with pytest.warns(UserWarning, match="exceeds the coherence budget"):
        result = CliRunner().invoke(main, ["prepare", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert "bond phases must be finite" in result.output
    assert not (out / "stabilizers.csv").exists()
    assert not (out / "prepare_report.json").exists()


def test_cli_prepare_refuses_overflowing_permittivity(tmp_path):
    # the screened Coulomb constant is inf at eps_r = 1e-310; the refusal
    # names the key, not the pulse it would have made non-finite
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("relative_permittivity = 1e-310\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["prepare", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit), result.exception
    assert "relative_permittivity" in result.output
    assert not out.exists()


# The rng_algorithm that 0.4.0 manifests carry: stream s of width w read
# counter blocks s*w + 1 .. (s + 1)*w, so its figure3 rows of n > 5 differ.
RNG_ALGORITHM_0_4_0 = (
    "numpy.random.Philox 4x64-10, key = base_seed + domain*2**64 (noise 0, measurement 1); "
    "stream s of w blocks reads counter blocks s*w+1..(s+1)*w; "
    "uniform ((word >> 12) + 0.5) * 2**-52; normals by Box-Muller on word pairs"
)


def test_cli_refuses_figure3_manifest_from_0_4_0(tmp_path):
    runner = CliRunner()
    first = runner.invoke(main, ["figure3", "--trials", "150", "--out", str(tmp_path / "first")])
    assert first.exit_code == 0, first.output
    manifest = json.loads((tmp_path / "first" / "run_manifest.json").read_text())
    manifest.update(artifact_version="0.4.0", rng_algorithm=RNG_ALGORITHM_0_4_0)
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    out = tmp_path / "replay"
    result = runner.invoke(main, ["figure3", "--config", str(old), "--out", str(out)])
    assert result.exit_code == 1
    assert "rng_algorithm" in result.output
    assert not out.exists()


def test_cli_refuses_manifest_from_older_version(tmp_path):
    # figure2c.csv from 0.2.0 differs in the last bits, so replaying its
    # manifest would not reproduce it
    runner = CliRunner()
    first = runner.invoke(main, ["figure2", "--out", str(tmp_path / "first")])
    assert first.exit_code == 0, first.output
    manifest = json.loads((tmp_path / "first" / "run_manifest.json").read_text())
    manifest["artifact_version"] = "0.2.0"
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    result = runner.invoke(main, ["figure2", "--config", str(old), "--out", str(tmp_path / "replay")])
    assert result.exit_code == 1
    assert "artifact_version" in result.output


def test_runtime_does_not_import_scipy():
    # scipy is a test-only dependency; the pulse calculus is closed form
    src = str(Path(dotchain.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import sys, dotchain, dotchain.cli, dotchain.harness\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if m.startswith('scipy'))[:5]\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_cli_refuses_manifest_from_other_rng(tmp_path):
    # a manifest written under the old per-trial PCG64 streams would replay
    # into different CSVs, so it is a validation failure
    runner = CliRunner()
    first = runner.invoke(main, ["figure3", "--trials", "150", "--out", str(tmp_path / "first")])
    assert first.exit_code == 0, first.output
    manifest = json.loads((tmp_path / "first" / "run_manifest.json").read_text())
    manifest["rng_algorithm"] = (
        "numpy.random.PCG64 seeded by SeedSequence(entropy=base_seed, spawn_key=(stream,))"
    )
    old = tmp_path / "old_manifest.json"
    old.write_text(json.dumps(manifest))
    out = tmp_path / "replay"
    result = runner.invoke(main, ["figure3", "--config", str(old), "--out", str(out)])
    assert result.exit_code == 1
    assert "rng_algorithm" in result.output
    assert not out.exists()


def test_kron_helper_sanity():
    # guard the oracle itself: P1 x P1 on a 2-qubit chain marks index 3
    op = kron_chain(2, {0: P_ONE, 1: P_ONE})
    assert np.array_equal(np.diag(op).real, [0, 0, 0, 1])
