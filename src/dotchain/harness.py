"""Experiment drivers: sweep CSVs, preparation reports, measurement demos.

Output conventions, chosen for byte-exact reproducibility: CSV with a
mandatory header row, floats at 17 significant digits, '.' decimal
separator, LF line endings. Every run directory gets a run_manifest.json
snapshotting the resolved config, the constants table and the RNG algorithm;
re-running any command with the manifest as its config reproduces the CSVs
byte for byte.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .config import ExperimentConfig, canonical_text
from .constants import constants_table
from .measurement import NAMED_AXES, run_schedule, schedule_rounds
from .noise import PhaseNoiseModel, exact_mean_fidelities, monte_carlo_fidelities
from .physics import adiabatic_angle, ising_coupling
from .pulse import accumulated_phase
from .rng import RNG_ALGORITHM
from .state import apply_ising_phases, cluster_stabilizers, ideal_cluster_fidelity, init_plus_chain

STABILIZER_THRESHOLD = 1.0 - 1e-6

FIGURE_POINTS = 2001
FIGURE3_N_RANGE = range(2, 21)
FIGURE3_N_SWEEP_SIGMA_OVER_PI = 0.03


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_manifest(out_dir: Path, command: str, cfg: ExperimentConfig) -> Path:
    manifest = {
        "artifact": "dotchain",
        "artifact_version": __version__,
        "command": command,
        "rng_algorithm": RNG_ALGORITHM,
        "numpy_version": np.__version__,
        "constants": constants_table(),
        "config_text": canonical_text(cfg),
    }
    path = out_dir / "run_manifest.json"
    with open(path, "w", newline="") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _ensure_out(out_dir) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def run_figure2(cfg: ExperimentConfig, out_dir) -> dict[str, Path]:
    """Coupling vs detuning, and the calibrated pulse waveform.

    figure2a.csv: ising coupling across the detuning sweep, 2001 points.
    figure2c.csv: detuning and coupling against time over the full pulse
    (the hold plateau sits at the coupling maximum).
    """
    dev = cfg.device
    pulse = cfg.build_pulse()
    tc = dev.tunnel_coupling_mev
    out = _ensure_out(out_dir)

    lo, hi = cfg.resolved_eps()
    eps_grid = np.linspace(lo, hi, FIGURE_POINTS)
    sweep_rows = [
        (eps, ising_coupling(dev, adiabatic_angle(eps, tc))) for eps in eps_grid
    ]
    path_a = out / "figure2a.csv"
    write_csv(path_a, ["epsilon_mev", "coupling_mev"], sweep_rows)

    times = np.linspace(0.0, pulse.duration_ns, FIGURE_POINTS)
    wave_rows = []
    for t in times:
        eps = pulse.detuning_at(t)
        wave_rows.append((t, eps, ising_coupling(dev, adiabatic_angle(eps, tc))))
    path_c = out / "figure2c.csv"
    write_csv(path_c, ["t_ns", "epsilon_mev", "coupling_mev"], wave_rows)

    manifest = write_manifest(out, "figure2", cfg)
    return {"figure2a": path_a, "figure2c": path_c, "manifest": manifest}


def run_figure3(cfg: ExperimentConfig, out_dir) -> dict[str, Path]:
    """Fidelity grids: n = 2..20 at sigma = 0.03 pi, and the sigma sweep at n = 20.

    Each row carries both the Monte Carlo estimate and the exact Gaussian
    average so the two estimators can be compared downstream. All rows come
    from one monte_carlo_fidelities call and one exact_mean_fidelities
    call. Every row reads trials 0 .. trials - 1 of cfg.seed, so rows are
    correlated, as they always were; the noise module docstring gives the
    stream layout and the chunking that bounds memory. The widest stream
    width holds n = 18..20 and the whole sigma sweep, so at most
    (3 + len(sigma_over_pi)) x trials x 8 B of per-trial fidelities are held
    at once. Rows follow the config order; a repeated sigma repeats its row.
    """
    out = _ensure_out(out_dir)
    grid = [(n, FIGURE3_N_SWEEP_SIGMA_OVER_PI) for n in FIGURE3_N_RANGE]
    grid += [(20, sigma_over_pi) for sigma_over_pi in cfg.sigma_over_pi]
    points = [(n, PhaseNoiseModel(sigma_rad=sigma_over_pi * math.pi)) for n, sigma_over_pi in grid]
    estimates = monte_carlo_fidelities(points, cfg.trials, cfg.seed)
    exact = exact_mean_fidelities(points)
    rows = [
        (n, sigma_over_pi, mc.mean, mc.standard_error, mean, cfg.trials, cfg.seed)
        for (n, sigma_over_pi), mc, mean in zip(grid, estimates, exact)
    ]

    path = out / "fidelity.csv"
    write_csv(
        path,
        ["n", "sigma_over_pi", "mc_mean", "mc_stderr", "exact_mean", "trials", "seed"],
        rows,
    )
    manifest = write_manifest(out, "figure3", cfg)
    return {"fidelity": path, "manifest": manifest}


@dataclass(frozen=True)
class PrepareReport:
    n_qubits: int
    ramp_ns: float
    hold_ns: float
    bond_phase_rad: float
    fidelity_to_ideal: float
    stabilizers: tuple[float, ...]
    passed: bool


def prepare_chain(cfg: ExperimentConfig):
    """Calibrated end-to-end preparation: plus chain -> entangling pulse."""
    pulse = cfg.build_pulse()
    bonds = np.full(cfg.n_qubits - 1, accumulated_phase(pulse, cfg.device))
    return apply_ising_phases(init_plus_chain(cfg.n_qubits), bonds), pulse


def run_prepare(cfg: ExperimentConfig, out_dir) -> PrepareReport:
    """Prepare the chain and verify it: fidelity to the ideal cluster plus
    every stabilizer expectation. passed requires all stabilizers above
    1 - 1e-6.

    The collective pulse gives every bond the same phase, and the chain is
    verified in O(n) from that bond vector alone: no 2^n state is built.
    The dense engine gives the same numbers and is their test oracle.
    """
    pulse = cfg.build_pulse()
    n = cfg.n_qubits
    phase = accumulated_phase(pulse, cfg.device)
    bonds = np.full(n - 1, phase)
    stabs = tuple(cluster_stabilizers(bonds).tolist())  # refuses a non-finite phase
    out = _ensure_out(out_dir)
    report = PrepareReport(
        n_qubits=n,
        ramp_ns=pulse.ramp_ns,
        hold_ns=pulse.hold_ns,
        bond_phase_rad=phase,
        fidelity_to_ideal=min(ideal_cluster_fidelity(bonds), 1.0),
        stabilizers=stabs,
        passed=all(s >= STABILIZER_THRESHOLD for s in stabs),
    )
    write_csv(
        out / "stabilizers.csv",
        ["site", "expectation"],
        list(enumerate(stabs)),
    )
    with open(out / "prepare_report.json", "w", newline="") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
    write_manifest(out, "prepare", cfg)
    return report


def run_measure_demo(cfg: ExperimentConfig, out_dir) -> dict[str, Path]:
    """Prepare the cluster, then run the configured measurement pattern.

    Rounds never contain nearest neighbors; records land in records.csv,
    the round structure in schedule.csv.
    """
    state, _ = prepare_chain(cfg)
    out = _ensure_out(out_dir)
    schedule = schedule_rounds(cfg.pattern_qubits())
    axis = NAMED_AXES[cfg.measure_axis]
    bases = {q: axis for q in schedule.qubits}
    records = run_schedule(state, schedule, bases, cfg.seed)

    round_of = {}
    for round_index, rnd in enumerate(schedule.rounds):
        for q in rnd:
            round_of[q] = round_index

    record_rows = [
        (round_of[r.qubit], r.qubit, axis[0], axis[1], axis[2], r.outcome, r.probability)
        for r in records
    ]
    path_records = out / "records.csv"
    write_csv(
        path_records,
        ["round", "qubit", "axis_x", "axis_y", "axis_z", "outcome", "probability"],
        record_rows,
    )
    schedule_rows = [
        (round_index, q)
        for round_index, rnd in enumerate(schedule.rounds)
        for q in rnd
    ]
    path_schedule = out / "schedule.csv"
    write_csv(path_schedule, ["round", "qubit"], schedule_rows)
    manifest = write_manifest(out, "measure-demo", cfg)
    return {"records": path_records, "schedule": path_schedule, "manifest": manifest}
