"""Experiment configuration: flat key=value files with strict validation.

Every physical quantity carries its unit in the key name (tau1_ns,
tunnel_coupling_mev, ...). Unknown keys are rejected, every module
precondition is checked up front, and the canonical serialization
round-trips exactly so a run manifest can reproduce a run bit for bit.
A config file may also be a run manifest (JSON with a config_text field);
one written under a different RNG algorithm or package version is refused,
since it would not reproduce its run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import __version__
from .measurement import NAMED_AXES
from .physics import DeviceParams
from .pulse import DetuningPulse, check_adiabaticity, solve_hold_time
from .rng import RNG_ALGORITHM, SEED_BOUND
from .state import MAX_QUBITS

# Canonical defaults, as strings; the reference device and pulse.
DEFAULTS: dict[str, str] = {
    "dot_radius_nm": "100.0",
    "intradot_spacing_nm": "200.0",
    "intermolecule_spacing_nm": "2000.0",
    "relative_permittivity": "12.9",
    "tunnel_coupling_mev": "0.01",
    "charging_energy_mev": "5.0",
    "tau1_ns": "1.0",
    "tau2_ns": "auto",
    "eps_low_mev": "auto",
    "eps_high_mev": "auto",
    "target_phase_over_pi": "1.0",
    "coherence_budget_ns": "10.0",
    "n_qubits": "10",
    "trials": "20000",
    "seed": "1",
    "sigma_over_pi": "0.0,0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1",
    "measure_pattern": "all",
    "measure_axis": "z",
}


class ConfigError(ValueError):
    pass


def _parse_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"value must be finite: {text!r}")
    return value


def _parse_optional_float(text: str) -> float | None:
    return None if text == "auto" else _parse_float(text)


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text!r}") from exc


def _parse_float_list(text: str) -> tuple[float, ...]:
    items = [item.strip() for item in text.split(",") if item.strip() != ""]
    if not items:
        raise ConfigError("expected a comma-separated list of numbers")
    return tuple(_parse_float(item) for item in items)


def _parse_pattern(text: str) -> tuple[int, ...] | None:
    if text == "all":
        return None
    if text == "none":
        return ()
    return tuple(_parse_int(item.strip()) for item in text.split(",") if item.strip() != "")


@dataclass(frozen=True)
class ExperimentConfig:
    device: DeviceParams
    tau1_ns: float
    tau2_ns: float | None
    eps_low_mev: float | None
    eps_high_mev: float | None
    target_phase_over_pi: float
    coherence_budget_ns: float
    n_qubits: int
    trials: int
    seed: int
    sigma_over_pi: tuple[float, ...]
    measure_pattern: tuple[int, ...] | None
    measure_axis: str

    def resolved_eps(self) -> tuple[float, float]:
        half = self.device.charging_energy_mev / 2.0
        lo = -half if self.eps_low_mev is None else self.eps_low_mev
        hi = half if self.eps_high_mev is None else self.eps_high_mev
        return lo, hi

    def target_phase_rad(self) -> float:
        return self.target_phase_over_pi * math.pi

    def build_pulse(self) -> DetuningPulse:
        """The configured pulse; hold time calibrated when tau2_ns is auto."""
        lo, hi = self.resolved_eps()
        tau2 = self.tau2_ns
        if tau2 is None:
            tau2 = solve_hold_time(
                self.tau1_ns,
                self.device,
                target_phase_rad=self.target_phase_rad(),
                eps_low_mev=lo,
                eps_high_mev=hi,
            )
        pulse = DetuningPulse(
            ramp_up_ns=self.tau1_ns, hold_ns=tau2, eps_low_mev=lo, eps_high_mev=hi
        )
        check_adiabaticity(pulse, self.device, self.coherence_budget_ns)
        return pulse

    def pattern_qubits(self) -> tuple[int, ...]:
        if self.measure_pattern is None:
            return tuple(range(self.n_qubits))
        return self.measure_pattern


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; rejects unknown and duplicate keys."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def load_config_file(path) -> dict[str, str]:
    """Raw key/value strings from a config file or a run manifest.

    A manifest whose rng_algorithm or artifact_version differs from the
    running code is refused with ConfigError; fields it omits are not checked.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        manifest = json.loads(text)
        if "config_text" not in manifest:
            raise ConfigError(f"{path}: JSON file is not a run manifest (no config_text)")
        for key, current in (("rng_algorithm", RNG_ALGORITHM), ("artifact_version", __version__)):
            if key in manifest and manifest[key] != current:
                raise ConfigError(
                    f"{path}: manifest {key} {manifest[key]!r} differs from this "
                    f"dotchain's {current!r}; replaying it would not reproduce its run"
                )
        return parse_kv_text(manifest["config_text"])
    return parse_kv_text(text)


def config_from_strings(raw: dict[str, str]) -> ExperimentConfig:
    """Typed, fully validated config from raw strings merged over defaults."""
    unknown = set(raw) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    merged = {**DEFAULTS, **raw}

    try:
        device = DeviceParams(
            dot_radius_nm=_parse_float(merged["dot_radius_nm"]),
            intradot_spacing_nm=_parse_float(merged["intradot_spacing_nm"]),
            intermolecule_spacing_nm=_parse_float(merged["intermolecule_spacing_nm"]),
            relative_permittivity=_parse_float(merged["relative_permittivity"]),
            tunnel_coupling_mev=_parse_float(merged["tunnel_coupling_mev"]),
            charging_energy_mev=_parse_float(merged["charging_energy_mev"]),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid device parameters: {exc}") from exc

    config = ExperimentConfig(
        device=device,
        tau1_ns=_parse_float(merged["tau1_ns"]),
        tau2_ns=_parse_optional_float(merged["tau2_ns"]),
        eps_low_mev=_parse_optional_float(merged["eps_low_mev"]),
        eps_high_mev=_parse_optional_float(merged["eps_high_mev"]),
        target_phase_over_pi=_parse_float(merged["target_phase_over_pi"]),
        coherence_budget_ns=_parse_float(merged["coherence_budget_ns"]),
        n_qubits=_parse_int(merged["n_qubits"]),
        trials=_parse_int(merged["trials"]),
        seed=_parse_int(merged["seed"]),
        sigma_over_pi=_parse_float_list(merged["sigma_over_pi"]),
        measure_pattern=_parse_pattern(merged["measure_pattern"]),
        measure_axis=merged["measure_axis"],
    )
    _validate(config)
    return config


def _validate(cfg: ExperimentConfig) -> None:
    if cfg.tau1_ns < 0:
        raise ConfigError("tau1_ns must be >= 0")
    if cfg.tau2_ns is not None and cfg.tau2_ns < 0:
        raise ConfigError("tau2_ns must be >= 0 or auto")
    lo, hi = cfg.resolved_eps()
    if lo >= hi:
        raise ConfigError(f"eps_low_mev ({lo}) must be below eps_high_mev ({hi})")
    if cfg.target_phase_over_pi <= 0:
        raise ConfigError("target_phase_over_pi must be > 0")
    if cfg.coherence_budget_ns <= 0:
        raise ConfigError("coherence_budget_ns must be > 0")
    if not 1 <= cfg.n_qubits <= MAX_QUBITS:
        raise ConfigError(f"n_qubits must lie in [1, {MAX_QUBITS}]")
    if cfg.trials < 100:
        raise ConfigError("trials must be >= 100")
    if not 0 <= cfg.seed < SEED_BOUND:
        raise ConfigError("seed must lie in [0, 2**64)")
    if any(s < 0 for s in cfg.sigma_over_pi):
        raise ConfigError("sigma_over_pi entries must be >= 0")
    if cfg.measure_axis not in NAMED_AXES:
        raise ConfigError(f"measure_axis must be one of {sorted(NAMED_AXES)}")
    pattern = cfg.pattern_qubits()
    if len(set(pattern)) != len(pattern):
        raise ConfigError("measure_pattern indices must be distinct")
    if any(not 0 <= q < cfg.n_qubits for q in pattern):
        raise ConfigError(
            f"measure_pattern indices must lie in [0, {cfg.n_qubits - 1}]"
        )


def canonical_text(cfg: ExperimentConfig) -> str:
    """Round-trip serialization: parsing this text reproduces cfg exactly."""

    def opt(value: float | None) -> str:
        return "auto" if value is None else repr(value)

    if cfg.measure_pattern is None:
        pattern = "all"
    elif not cfg.measure_pattern:
        pattern = "none"
    else:
        pattern = ",".join(str(q) for q in cfg.measure_pattern)

    values = {
        "dot_radius_nm": repr(cfg.device.dot_radius_nm),
        "intradot_spacing_nm": repr(cfg.device.intradot_spacing_nm),
        "intermolecule_spacing_nm": repr(cfg.device.intermolecule_spacing_nm),
        "relative_permittivity": repr(cfg.device.relative_permittivity),
        "tunnel_coupling_mev": repr(cfg.device.tunnel_coupling_mev),
        "charging_energy_mev": repr(cfg.device.charging_energy_mev),
        "tau1_ns": repr(cfg.tau1_ns),
        "tau2_ns": opt(cfg.tau2_ns),
        "eps_low_mev": opt(cfg.eps_low_mev),
        "eps_high_mev": opt(cfg.eps_high_mev),
        "target_phase_over_pi": repr(cfg.target_phase_over_pi),
        "coherence_budget_ns": repr(cfg.coherence_budget_ns),
        "n_qubits": str(cfg.n_qubits),
        "trials": str(cfg.trials),
        "seed": str(cfg.seed),
        "sigma_over_pi": ",".join(repr(s) for s in cfg.sigma_over_pi),
        "measure_pattern": pattern,
        "measure_axis": cfg.measure_axis,
    }
    return "\n".join(f"{key} = {values[key]}" for key in DEFAULTS) + "\n"
