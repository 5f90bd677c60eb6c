"""Experiment configuration: flat key=value files with strict validation.

KEYS is the schema: each key's default text and kind (its parser and
canonical formatter), in canonical order. Device keys are the DeviceParams
fields, the rest ExperimentConfig fields, and a CLI override flag's click
name is the key it sets. Every physical quantity carries its unit in the
key name (tau1_ns, tunnel_coupling_mev, ...). Unknown keys are rejected,
every module precondition is checked up front, and the canonical
serialization round-trips exactly so a run manifest can reproduce a run
bit for bit. A config file may also be a run manifest (JSON with a
config_text field); one written under a different RNG algorithm or
package version is refused, since it would not reproduce its run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, NamedTuple

from . import __version__
from .measurement import NAMED_AXES
from .physics import DeviceParams
from .pulse import DetuningPulse, check_adiabaticity, detuning_window, solve_hold_time
from .rng import RNG_ALGORITHM, SEED_BOUND
from .state import MAX_QUBITS


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


def _format_pattern(pattern: tuple[int, ...] | None) -> str:
    if pattern is None:
        return "all"
    return ",".join(str(q) for q in pattern) if pattern else "none"


class _Kind(NamedTuple):
    parse: Callable[[str], Any]
    format: Callable[[Any], str]


_FLOAT = _Kind(_parse_float, repr)
_AUTO_OR_FLOAT = _Kind(_parse_optional_float, lambda v: "auto" if v is None else repr(v))
_INT = _Kind(_parse_int, str)
_FLOAT_LIST = _Kind(_parse_float_list, lambda values: ",".join(repr(v) for v in values))
_PATTERN = _Kind(_parse_pattern, _format_pattern)
_TEXT = _Kind(str, str)

# Defaults describe the reference device and pulse.
KEYS: dict[str, tuple[str, _Kind]] = {
    "dot_radius_nm": ("100.0", _FLOAT),
    "intradot_spacing_nm": ("200.0", _FLOAT),
    "intermolecule_spacing_nm": ("2000.0", _FLOAT),
    "relative_permittivity": ("12.9", _FLOAT),
    "tunnel_coupling_mev": ("0.01", _FLOAT),
    "charging_energy_mev": ("5.0", _FLOAT),
    "tau1_ns": ("1.0", _FLOAT),
    "tau2_ns": ("auto", _AUTO_OR_FLOAT),
    "eps_low_mev": ("auto", _AUTO_OR_FLOAT),
    "eps_high_mev": ("auto", _AUTO_OR_FLOAT),
    "target_phase_over_pi": ("1.0", _FLOAT),
    "coherence_budget_ns": ("10.0", _FLOAT),
    "n_qubits": ("10", _INT),
    "trials": ("20000", _INT),
    "seed": ("1", _INT),
    "sigma_over_pi": ("0.0,0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1", _FLOAT_LIST),
    "measure_pattern": ("all", _PATTERN),
    "measure_axis": ("z", _TEXT),
}
DEFAULTS: dict[str, str] = {key: default for key, (default, _) in KEYS.items()}
_DEVICE_KEYS = tuple(field.name for field in fields(DeviceParams))
_EXPERIMENT_KEYS = tuple(key for key in KEYS if key not in _DEVICE_KEYS)


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
        return detuning_window(self.device, self.eps_low_mev, self.eps_high_mev)

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
        pulse = DetuningPulse(ramp_ns=self.tau1_ns, hold_ns=tau2, eps_low_mev=lo, eps_high_mev=hi)
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
        if not isinstance(manifest["config_text"], str):
            raise ConfigError(f"{path}: manifest config_text is not a string")
        return parse_kv_text(manifest["config_text"])
    return parse_kv_text(text)


def config_from_strings(raw: dict[str, str]) -> ExperimentConfig:
    """Typed, fully validated config from raw strings merged over defaults."""
    unknown = set(raw) - set(KEYS)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")
    merged = {**DEFAULTS, **raw}

    def parse(keys: tuple[str, ...]) -> dict:
        return {key: KEYS[key][1].parse(merged[key]) for key in keys}

    try:
        device = DeviceParams(**parse(_DEVICE_KEYS))
    except ValueError as exc:
        raise ConfigError(f"invalid device parameters: {exc}") from exc
    config = ExperimentConfig(device=device, **parse(_EXPERIMENT_KEYS))
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
    values = {**vars(cfg.device), **vars(cfg)}
    return "".join(f"{key} = {kind.format(values[key])}\n" for key, (_, kind) in KEYS.items())
