import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dotchain import (
    DeviceParams,
    adiabatic_angle,
    coulomb_background,
    coulomb_double_occupancy,
    ising_coupling,
    next_nearest_crosstalk_ratio,
    singlet_admixture,
)

HALF_PI = math.pi / 2


def test_default_device():
    dev = DeviceParams()
    assert dev.intradot_spacing_nm == 200.0
    assert dev.intermolecule_spacing_nm == 2000.0
    assert dev.tunnel_coupling_mev == 0.01
    assert dev.charging_energy_mev == 5.0
    assert dev.relative_permittivity == 12.9
    # sharp-hybridization regime required of the reference device
    assert dev.charging_energy_mev >= 100.0 * dev.tunnel_coupling_mev


@pytest.mark.parametrize(
    "kwargs",
    [
        {"relative_permittivity": -1.0},
        {"intradot_spacing_nm": float("nan")},
        {"intradot_spacing_nm": -5.0},
        {"intermolecule_spacing_nm": 0.0},
        {"intermolecule_spacing_nm": 100.0},  # below intradot spacing
        {"relative_permittivity": 0.0},
        {"tunnel_coupling_mev": 0.0},
        {"tunnel_coupling_mev": -0.01},
        {"charging_energy_mev": 0.0},
        {"charging_energy_mev": float("nan")},
        {"intermolecule_spacing_nm": float("inf")},
    ],
)
def test_device_validation(kwargs):
    with pytest.raises(ValueError):
        DeviceParams(**kwargs)


def test_device_refuses_overflowing_coulomb_constant():
    # e^2 / (4 pi eps0 eps_r) is inf at eps_r = 1e-310; every coupling would be inf or nan
    with pytest.raises(ValueError, match="relative_permittivity"):
        DeviceParams(relative_permittivity=1e-310)
    assert math.isfinite(DeviceParams(relative_permittivity=1e-300).coulomb_mev_nm)


def test_device_allows_point_molecule():
    dev = DeviceParams(intradot_spacing_nm=0.0)
    assert dev.intradot_spacing_nm == 0.0


def test_adiabatic_angle_limits(dev):
    tc = dev.tunnel_coupling_mev
    assert adiabatic_angle(-2.5, tc) < 0.005
    assert adiabatic_angle(+2.5, tc) > HALF_PI - 0.005


def test_adiabatic_angle_zero_detuning_is_quarter_pi():
    assert adiabatic_angle(0.0, 0.01) == math.pi / 4
    assert adiabatic_angle(0.0, 3.7) == math.pi / 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_adiabatic_angle_rejects_nonfinite(bad):
    with pytest.raises(ValueError):
        adiabatic_angle(bad, 0.01)
    with pytest.raises(ValueError):
        adiabatic_angle(0.0, bad)


def test_adiabatic_angle_rejects_nonpositive_coupling():
    with pytest.raises(ValueError):
        adiabatic_angle(1.0, 0.0)
    with pytest.raises(ValueError):
        adiabatic_angle(1.0, -0.1)


def test_adiabatic_angle_matches_unrearranged_formula():
    # the implementation rationalizes the arctan argument; same angle
    tc = 0.01
    for eps in np.linspace(-2.5, 2.5, 2001):
        raw = abs(math.atan(2 * tc / (eps - math.sqrt(4 * tc * tc + eps * eps))))
        assert adiabatic_angle(float(eps), tc) == pytest.approx(raw, abs=1e-12)


def test_adiabatic_angle_monotone(dev):
    tc = dev.tunnel_coupling_mev
    grid = np.linspace(-2.5, 2.5, 10_000)
    thetas = [adiabatic_angle(float(e), tc) for e in grid]
    assert all(b >= a for a, b in zip(thetas, thetas[1:]))
    assert all(0.0 <= t <= HALF_PI for t in thetas)


def test_admixture_trivials():
    assert singlet_admixture(0.0) == 0.0
    assert singlet_admixture(HALF_PI) == pytest.approx(1.0, abs=1e-15)
    assert singlet_admixture(math.pi / 4) == pytest.approx(0.5, abs=1e-15)


def test_admixture_rejects_out_of_range():
    with pytest.raises(ValueError):
        singlet_admixture(-0.1)
    with pytest.raises(ValueError):
        singlet_admixture(HALF_PI + 0.1)


def test_admixture_pinned_at_sweep_ends(dev):
    tc = dev.tunnel_coupling_mev
    half = dev.charging_energy_mev / 2
    assert singlet_admixture(adiabatic_angle(-half, tc)) <= 1e-4
    assert singlet_admixture(adiabatic_angle(+half, tc)) >= 0.999


def test_coulomb_background_golden(dev, golden):
    assert coulomb_background(dev) == pytest.approx(
        golden["coulomb_background_default_mev"], rel=1e-12
    )


def test_coulomb_background_far_spacing_scales_inverse(dev):
    far = DeviceParams(intermolecule_spacing_nm=dev.intermolecule_spacing_nm * 10)
    # at b >> a both terms approach 2/b, so 10x the spacing is ~1/10 the energy
    assert coulomb_background(far) == pytest.approx(coulomb_background(dev) / 10, rel=0.01)


def test_coulomb_background_point_molecule_equals_double_occupancy():
    dev = DeviceParams(intradot_spacing_nm=0.0)
    assert coulomb_background(dev) == pytest.approx(coulomb_double_occupancy(dev), rel=1e-15)


def test_coulomb_double_occupancy_golden(dev, golden):
    assert coulomb_double_occupancy(dev) == pytest.approx(
        golden["coulomb_double_occupancy_default_mev"], rel=1e-12
    )


def test_ising_coupling_zero_angle(dev):
    assert ising_coupling(dev, 0.0) == 0.0


def test_ising_coupling_max_golden(dev, golden):
    value = ising_coupling(dev, HALF_PI)
    assert value == pytest.approx(golden["ising_coupling_max_default_mev"], rel=1e-12)
    # headline magnitude: 5.54e-4 meV within half a percent
    assert value == pytest.approx(5.54e-4, rel=5e-3)


def test_ising_coupling_nonnegative(dev):
    for theta in np.linspace(0.0, HALF_PI, 101):
        assert ising_coupling(dev, float(theta)) >= 0.0


def test_ising_coupling_vanishes_far_apart():
    dev = DeviceParams(intermolecule_spacing_nm=1e12)
    assert ising_coupling(dev, HALF_PI) < 1e-12


def test_ising_coupling_consistency(dev):
    expected = coulomb_double_occupancy(dev) - coulomb_background(dev)
    assert ising_coupling(dev, HALF_PI) == pytest.approx(expected, rel=1e-12)


def test_crosstalk_golden(dev, golden):
    ratio = next_nearest_crosstalk_ratio(dev)
    assert ratio == pytest.approx(golden["nnn_crosstalk_ratio_default"], rel=1e-12)
    assert 0.08 <= ratio <= 0.15


def test_crosstalk_point_molecule_is_zero():
    assert next_nearest_crosstalk_ratio(DeviceParams(intradot_spacing_nm=0.0)) == 0.0


def test_crosstalk_insensitive_to_spacing(dev):
    doubled = DeviceParams(intermolecule_spacing_nm=dev.intermolecule_spacing_nm * 2)
    base = next_nearest_crosstalk_ratio(dev)
    assert abs(next_nearest_crosstalk_ratio(doubled) - base) / base < 0.05


@settings(max_examples=50, deadline=None)
@given(scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
def test_scale_invariance(scale):
    # Coulomb energies follow the 1/distance law: scaling all lengths by s
    # divides every energy by s.
    base = DeviceParams()
    scaled = DeviceParams(
        intradot_spacing_nm=base.intradot_spacing_nm * scale,
        intermolecule_spacing_nm=base.intermolecule_spacing_nm * scale,
    )
    for fn in (coulomb_background, coulomb_double_occupancy):
        assert fn(scaled) == pytest.approx(fn(base) / scale, rel=1e-12)
    assert ising_coupling(scaled, 1.0) == pytest.approx(
        ising_coupling(base, 1.0) / scale, rel=1e-12
    )
    assert next_nearest_crosstalk_ratio(scaled) == pytest.approx(
        next_nearest_crosstalk_ratio(base), rel=1e-12
    )
