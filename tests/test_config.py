import inspect
import json
import math
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotchain import MAX_QUBITS, RNG_ALGORITHM, DeviceParams, __version__
from dotchain.config import (
    KEYS,
    ConfigError,
    DEFAULTS,
    ExperimentConfig,
    canonical_text,
    config_from_strings,
    load_config_file,
    parse_kv_text,
)
from dotchain.measurement import NAMED_AXES


def test_defaults_build():
    cfg = config_from_strings({})
    assert cfg.device.charging_energy_mev == 5.0
    assert cfg.tau2_ns is None
    assert cfg.resolved_eps() == (-2.5, 2.5)
    assert cfg.n_qubits == 10
    assert cfg.sigma_over_pi[0] == 0.0 and cfg.sigma_over_pi[-1] == 0.1
    assert cfg.pattern_qubits() == tuple(range(10))


def test_parse_kv_text():
    raw = parse_kv_text("# comment\n\nseed = 7\n tau1_ns = 0.5 \n")
    assert raw == {"seed": "7", "tau1_ns": "0.5"}


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_kv_text("tau_one_ns = 1.0")
    with pytest.raises(ConfigError):
        config_from_strings({"tc_mev": "0.01"})


def test_duplicate_and_malformed_rejected():
    with pytest.raises(ConfigError):
        parse_kv_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError):
        parse_kv_text("just some words")
    with pytest.raises(ConfigError):
        config_from_strings({"seed": "one"})
    with pytest.raises(ConfigError):
        config_from_strings({"tau1_ns": "inf"})


@pytest.mark.parametrize(
    "overrides",
    [
        {"tunnel_coupling_mev": "0.0"},
        {"charging_energy_mev": "-5"},
        {"tau1_ns": "-1"},
        {"tau2_ns": "-0.5"},
        {"eps_low_mev": "3.0"},  # above eps_high default +2.5
        {"target_phase_over_pi": "0"},
        {"coherence_budget_ns": "0"},
        {"n_qubits": "0"},
        {"n_qubits": "25"},
        {"trials": "99"},
        {"seed": "-1"},
        {"sigma_over_pi": "0.01,-0.02"},
        {"sigma_over_pi": ""},
        {"measure_axis": "w"},
        {"measure_pattern": "0,0"},
        {"measure_pattern": "0,99"},
    ],
)
def test_validation_rejects(overrides):
    with pytest.raises(ConfigError):
        config_from_strings(overrides)


def test_canonical_round_trip():
    cfg = config_from_strings(
        {
            "tau2_ns": "2.25",
            "sigma_over_pi": "0.015,0.045",
            "measure_pattern": "0,2,5",
            "n_qubits": "7",
            "relative_permittivity": "13.1",
        }
    )
    text = canonical_text(cfg)
    again = config_from_strings(parse_kv_text(text))
    assert again == cfg
    assert canonical_text(again) == text


def test_canonical_covers_every_key():
    text = canonical_text(config_from_strings({}))
    keys = [line.split(" = ")[0] for line in text.strip().splitlines()]
    assert keys == list(DEFAULTS)


def test_keys_are_config_fields():
    device = {field.name for field in fields(DeviceParams)}
    experiment = {field.name for field in fields(ExperimentConfig)} - {"device"}
    assert set(KEYS) == device | experiment
    assert not device & experiment


def test_default_canonical_text_is_pinned():
    # Run manifests replay this text, so its format must not drift.
    assert canonical_text(config_from_strings({})) == (
        "dot_radius_nm = 100.0\n"
        "intradot_spacing_nm = 200.0\n"
        "intermolecule_spacing_nm = 2000.0\n"
        "relative_permittivity = 12.9\n"
        "tunnel_coupling_mev = 0.01\n"
        "charging_energy_mev = 5.0\n"
        "tau1_ns = 1.0\n"
        "tau2_ns = auto\n"
        "eps_low_mev = auto\n"
        "eps_high_mev = auto\n"
        "target_phase_over_pi = 1.0\n"
        "coherence_budget_ns = 10.0\n"
        "n_qubits = 10\n"
        "trials = 20000\n"
        "seed = 1\n"
        "sigma_over_pi = 0.0,0.01,0.02,0.03,0.04,0.05,0.06,0.07,0.08,0.09,0.1\n"
        "measure_pattern = all\n"
        "measure_axis = z\n"
    )


_POSITIVE = st.floats(min_value=1e-6, max_value=1e6)
# Valid values for every key but measure_pattern, whose range depends on n_qubits.
_VALID_VALUES = {
    "dot_radius_nm": _POSITIVE,
    "intradot_spacing_nm": st.floats(min_value=0.0, max_value=1e3),
    "intermolecule_spacing_nm": st.floats(min_value=2e3, max_value=1e6),
    "relative_permittivity": _POSITIVE,
    "tunnel_coupling_mev": _POSITIVE,
    "charging_energy_mev": _POSITIVE,
    "tau1_ns": st.floats(min_value=0.0, max_value=1e6),
    "tau2_ns": st.none() | st.floats(min_value=0.0, max_value=1e6),
    "eps_low_mev": st.none() | st.floats(min_value=-1e3, max_value=-1e-6),
    "eps_high_mev": st.none() | st.floats(min_value=1e-6, max_value=1e3),
    "target_phase_over_pi": _POSITIVE,
    "coherence_budget_ns": _POSITIVE,
    "n_qubits": st.integers(1, MAX_QUBITS),
    "trials": st.integers(100, 10**12),
    "seed": st.integers(0, 2**64 - 1),
    "sigma_over_pi": st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1).map(tuple),
    "measure_axis": st.sampled_from(sorted(NAMED_AXES)),
}


@st.composite
def valid_configs(draw):
    values = {key: draw(strategy) for key, strategy in _VALID_VALUES.items()}
    qubits = st.lists(st.integers(0, values["n_qubits"] - 1), unique=True).map(tuple)
    values["measure_pattern"] = draw(st.none() | qubits)
    device = {field.name: values.pop(field.name) for field in fields(DeviceParams)}
    return ExperimentConfig(device=DeviceParams(**device), **values)


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_canonical_text_round_trips_every_kind(cfg):
    assert set(_VALID_VALUES) | {"measure_pattern"} == set(KEYS)
    text = canonical_text(cfg)
    again = config_from_strings(parse_kv_text(text))
    assert again == cfg
    assert canonical_text(again) == text


def test_load_plain_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3\nn_qubits = 4\n")
    cfg = config_from_strings(load_config_file(path))
    assert cfg.seed == 3 and cfg.n_qubits == 4


def test_load_manifest_file(tmp_path):
    cfg = config_from_strings({"seed": "31", "trials": "250"})
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps({"config_text": canonical_text(cfg)}))
    again = config_from_strings(load_config_file(path))
    assert again == cfg


def test_load_rejects_foreign_json(tmp_path):
    path = tmp_path / "other.json"
    path.write_text(json.dumps({"seed": 3}))
    with pytest.raises(ConfigError):
        load_config_file(path)


def test_seed_range():
    # the seed fills the low 64 bits of the Philox key
    assert config_from_strings({"seed": str(2**64 - 1)}).seed == 2**64 - 1
    with pytest.raises(ConfigError):
        config_from_strings({"seed": str(2**64)})


@pytest.mark.parametrize(
    "field, value",
    [("rng_algorithm", "numpy.random.PCG64 seeded by SeedSequence"), ("artifact_version", "0.1.0")],
)
def test_load_rejects_mismatched_manifest(tmp_path, field, value):
    path = tmp_path / "run_manifest.json"
    manifest = {
        "rng_algorithm": RNG_ALGORITHM,
        "artifact_version": __version__,
        "config_text": canonical_text(config_from_strings({})),
    }
    path.write_text(json.dumps(manifest))
    assert config_from_strings(load_config_file(path)) == config_from_strings({})
    manifest[field] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(ConfigError, match=field):
        load_config_file(path)


def test_package_version_matches_pyproject():
    # manifests carry __version__ as their artifact_version; the installed
    # distribution must declare the same version
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == __version__


def test_all_lists_every_public_name_once():
    import dotchain

    public = {
        name
        for name, value in vars(dotchain).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(dotchain.__all__) == public
    assert len(dotchain.__all__) == len(set(dotchain.__all__))


def test_build_pulse_calibrates():
    cfg = config_from_strings({})
    pulse = cfg.build_pulse()
    assert pulse.ramp_ns == 1.0
    assert 1.5 <= pulse.hold_ns <= 3.5
    explicit = config_from_strings({"tau2_ns": "0.75"})
    assert explicit.build_pulse().hold_ns == 0.75


def test_target_phase():
    cfg = config_from_strings({"target_phase_over_pi": "2.0"})
    assert cfg.target_phase_rad() == pytest.approx(2 * math.pi)
