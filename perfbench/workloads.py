"""The benchmark workloads, each built so that one dotchain layer dominates.

Every workload runs in passes. A pass is a fixed amount of work on inputs
made from the seed and the pass index; no two passes repeat an input, so a
cache in the program would only help where real inputs repeat too. Each
pass times only calls into dotchain ("items") and checks their outputs
afterwards; a failed check or an exception is counted, not raised.

- fidelity_sweep: harness.run_figure3 on the default grid, 2000 trials a point.
  One rng stream per Monte Carlo trial dominates; no pulse, no dense state.
  Cost is linear in trials; 1e4 trials would make one pass take 5-9 s.
- prepare_dense: harness.run_prepare at n = 22. A 2^22 amplitude vector is
  64 MiB and each stabilizer check copies one, so every check streams
  128 MiB, above the 105 MiB last-level cache. n = 24, the qubit cap, takes
  about 9 s a pass, too few passes in a run to filter out host noise.
- measure_shots: measurement.run_schedule over all qubits of a prepared
  n = 10 cluster, random axes per shot, 200 shots a pass. 16 KiB states
  stay in cache.

Set-up does what the program's own path does before its first timed call:
fidelity_sweep and prepare_dense import and parse a config (run_prepare
calibrates inside each pass); measure_shots also calibrates and prepares
its cluster.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import math
import random
import time
from pathlib import Path
from types import SimpleNamespace

# exact_mean_fidelity(20, 0.03 pi), frozen from the seed commit.
GOLDEN_EXACT_N20 = 0.9689096618301787
GOLDEN_RTOL = 1e-12
PREPARE_TOL = 1e-9
MC_SIGMAS = 5.0

# Device ranges for prepare_dense; every draw calibrates.
TUNNEL_COUPLING_MEV = (0.005, 0.05)
TAU1_NS = (0.5, 2.0)
CHARGING_ENERGY_MEV = (3.0, 6.0)

# Hold time that misses a pi bond phase on every device above; --fault uses it.
FAULT_TAU2_NS = "0.2"

SIZES = {
    "full": {"trials": 2_000, "dense_qubits": 22, "shot_qubits": 10, "shots": 200},
    "toy": {"trials": 100, "dense_qubits": 10, "shot_qubits": 4, "shots": 20},
}


def load_dotchain() -> SimpleNamespace:
    """Import the package and every layer module the workloads call into."""
    names = ("config", "harness", "measurement", "noise", "physics", "pulse", "rng", "state")
    return SimpleNamespace(
        package=importlib.import_module("dotchain"),
        **{name: importlib.import_module(f"dotchain.{name}") for name in names},
    )


class Workload:
    """Shared bookkeeping: set-up, passes, checks, and the output digest."""

    name = ""
    work_unit = ""
    host_scaled = True  # pass times are scaled by the reference loop (see run.host_scale)

    def __init__(self, seed: int, size: str, fault: bool, out_dir: Path):
        self.seed = seed
        self.size = SIZES[size]
        self.fault = fault
        self.out = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.dc = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)

    def setup(self) -> float:
        """Import, config parsing, calibration and initial state; returns seconds."""
        t0 = time.perf_counter()
        self.dc = load_dotchain()
        self.prepare()
        return time.perf_counter() - t0

    def prepare(self) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> tuple[list[float], int]:
        """Item times in seconds and units of work done."""
        raise NotImplementedError

    def finish(self) -> None:
        """Checks that need the whole run."""

    def empty_out(self) -> None:
        """Remove the last item's files, outside the timer.

        Each item then writes new files, as a fresh --out directory would.
        Rewriting an existing file makes ext4 flush it at close, which ties
        the timing to the host's disk traffic.
        """
        for path in self.out.iterdir():
            if path.is_file():
                path.unlink()

    def config(self, raw: dict[str, str]):
        return self.dc.config.config_from_strings(raw)


class FidelitySweep(Workload):
    name = "fidelity_sweep"
    work_unit = "trials"

    def pass_config(self, index: int):
        # A new Monte Carlo seed each pass: same cost, no repeated inputs.
        return self.config({"trials": str(self.size["trials"]), "seed": str(self.seed * 100_003 + index)})

    def prepare(self) -> None:
        # run_figure3 never calibrates a pulse, so neither does its set-up.
        self.pass_config(0)

    def run_pass(self, index):
        cfg = self.pass_config(index)
        self.empty_out()
        t0 = time.perf_counter()
        try:
            paths = self.dc.harness.run_figure3(cfg, self.out)
        except Exception as exc:  # counted as a failed pass, the run goes on
            self.check(False, f"run_figure3 raised {exc!r}")
            return [time.perf_counter() - t0], 0
        elapsed = time.perf_counter() - t0
        with open(paths["fidelity"], newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            sigma = float(row["sigma_over_pi"])
            mc, stderr, exact = (float(row[k]) for k in ("mc_mean", "mc_stderr", "exact_mean"))
            ok = mc == exact if sigma == 0.0 else abs(mc - exact) <= MC_SIGMAS * stderr
            self.check(ok, f"n={row['n']} sigma/pi={sigma}: mc {mc} vs exact {exact} +- {stderr}")
        if index == 0:
            self.digest.update(Path(paths["fidelity"]).read_bytes())
        return [elapsed], len(rows) * cfg.trials

    def finish(self):
        model = self.dc.noise.PhaseNoiseModel(sigma_rad=0.03 * math.pi)
        exact = self.dc.noise.exact_mean_fidelity(20, model)
        self.check(
            abs(exact - GOLDEN_EXACT_N20) <= GOLDEN_RTOL * GOLDEN_EXACT_N20,
            f"exact_mean_fidelity(20, 0.03 pi) = {exact!r}",
        )


class PrepareDense(Workload):
    name = "prepare_dense"
    work_unit = "stabilizer sites"
    # Memory traffic and page faults, which the interpreted reference loop tracks only in part.
    host_scaled = False

    def device(self, index: int) -> dict[str, str]:
        """Config of the device prepared in pass `index`."""
        rng = random.Random(f"{self.seed}:{index}")
        raw = {
            "tunnel_coupling_mev": repr(rng.uniform(*TUNNEL_COUPLING_MEV)),
            "tau1_ns": repr(rng.uniform(*TAU1_NS)),
            "charging_energy_mev": repr(rng.uniform(*CHARGING_ENERGY_MEV)),
            "n_qubits": str(self.size["dense_qubits"]),
            "seed": str(self.seed),
        }
        if self.fault:
            raw["tau2_ns"] = FAULT_TAU2_NS
        return raw

    def prepare(self) -> None:
        # run_prepare calibrates inside every pass, as the prepare command does.
        self.config(self.device(0))

    def run_pass(self, index):
        raw = self.device(index)
        self.empty_out()
        t0 = time.perf_counter()
        try:
            cfg = self.config(raw)
            report = self.dc.harness.run_prepare(cfg, self.out)
        except Exception as exc:  # counted as a failed pass, the run goes on
            self.check(False, f"run_prepare raised {exc!r}")
            return [time.perf_counter() - t0], 0
        elapsed = time.perf_counter() - t0
        target = cfg.target_phase_rad()
        self.check(
            report.passed
            and report.fidelity_to_ideal >= 1.0 - PREPARE_TOL
            and abs(report.bond_phase_rad - target) <= PREPARE_TOL * target,
            f"{raw}: passed={report.passed} fidelity={report.fidelity_to_ideal!r} "
            f"phase={report.bond_phase_rad!r}",
        )
        if index == 0:
            self.digest.update((self.out / "stabilizers.csv").read_bytes())
        return [elapsed], report.n_qubits


class MeasureShots(Workload):
    name = "measure_shots"
    work_unit = "measurements"

    def prepare(self) -> None:
        n = self.size["shot_qubits"]
        cfg = self.config({"n_qubits": str(n), "seed": str(self.seed)})
        self.state, _ = self.dc.harness.prepare_chain(cfg)
        self.schedule = self.dc.measurement.schedule_rounds(range(n))
        self.rng = random.Random(self.seed)
        self.shot = 0
        self.first = {}  # axis name of the first-measured qubit -> [shots, +1 outcomes]

    def run_pass(self, index):
        measurement = self.dc.measurement
        axes = measurement.NAMED_AXES
        names = sorted(axes)
        times, work = [], 0
        for _ in range(self.size["shots"]):
            picks = {q: self.rng.choice(names) for q in self.schedule.qubits}
            bases = {q: axes[a] for q, a in picks.items()}
            t0 = time.perf_counter()
            try:
                records = measurement.run_schedule(self.state, self.schedule, bases, self.shot)
            except Exception as exc:  # counted as a failed shot, the run goes on
                self.check(False, f"shot {self.shot}: run_schedule raised {exc!r}")
                times.append(time.perf_counter() - t0)
                self.shot += 1
                continue
            times.append(time.perf_counter() - t0)
            self.check(
                len(records) == len(bases)
                and all(r.outcome in (-1, 1) and 0.0 < r.probability <= 1.0 for r in records),
                f"shot {self.shot}: {[(r.outcome, r.probability) for r in records]}",
            )
            tally = self.first.setdefault(picks[records[0].qubit], [0, 0])
            tally[0] += 1
            tally[1] += records[0].outcome == 1
            if index == 0:
                line = "".join(f"{self.shot},{r.qubit},{r.outcome},{r.probability!r}\n" for r in records)
                self.digest.update(line.encode())
            work += len(records)
            self.shot += 1
        return times, work

    def finish(self):
        measurement = self.dc.measurement
        qubit = self.schedule.qubits[0]
        for axis, (shots, plus) in sorted(self.first.items()):
            spec = measurement.MeasurementSpec(qubit=qubit, basis=measurement.NAMED_AXES[axis])
            p, _ = measurement.project(self.state, spec, +1)
            freq = plus / shots
            allowed = MC_SIGMAS * math.sqrt(p * (1.0 - p) / shots)
            self.check(
                abs(freq - p) <= allowed,
                f"qubit {qubit} along {axis}: +1 frequency {freq} over {shots} shots, p = {p}",
            )


WORKLOADS = {w.name: w for w in (FidelitySweep, PrepareDense, MeasureShots)}
