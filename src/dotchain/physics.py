"""Closed-form device physics for a chain of double-dot singlet/triplet qubits.

Each qubit is a two-electron double quantum dot ("molecule"): intradot
spacing a, nearest molecules a distance b apart. The detuning eps
biases the (1,1) charge configuration against the doubly occupied (0,2)
singlet; the tunnel coupling tc hybridizes the two singlets with a mixing
angle theta. How much (0,2) weight a molecule carries (sin^2 theta) sets the
inter-molecule Coulomb energy, and the state-dependent part of that energy is
the Ising coupling that entangles neighbors.

Everything here is a pure function of value types: meV, nm, radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import COULOMB_MEV_NM, GAAS_RELATIVE_PERMITTIVITY

HALF_PI = math.pi / 2.0


@dataclass(frozen=True)
class DeviceParams:
    """Geometry and energy scales of the double-dot chain.

    Defaults describe the reference device: a = 200 nm intradot spacing,
    b = 2000 nm between molecules, GaAs permittivity, tc = 0.01 meV,
    charging energy 5 meV. Dots are point charges, so no dot size enters.
    a = 0 is accepted as the degenerate point-molecule limit (no dipole,
    hence no state-dependent coupling).
    """

    intradot_spacing_nm: float = 200.0
    intermolecule_spacing_nm: float = 2000.0
    relative_permittivity: float = GAAS_RELATIVE_PERMITTIVITY
    tunnel_coupling_mev: float = 0.01
    charging_energy_mev: float = 5.0

    def __post_init__(self) -> None:
        values = (
            self.intradot_spacing_nm,
            self.intermolecule_spacing_nm,
            self.relative_permittivity,
            self.tunnel_coupling_mev,
            self.charging_energy_mev,
        )
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"device parameters must be finite, got {self}")
        if self.intradot_spacing_nm < 0:
            raise ValueError("intradot_spacing_nm must be >= 0")
        if self.intermolecule_spacing_nm <= 0:
            raise ValueError("intermolecule_spacing_nm must be > 0")
        if self.intermolecule_spacing_nm <= self.intradot_spacing_nm:
            raise ValueError(
                "intermolecule_spacing_nm must exceed intradot_spacing_nm "
                "(molecules must not overlap)"
            )
        if self.relative_permittivity <= 0:
            raise ValueError("relative_permittivity must be > 0")
        if not math.isfinite(self.coulomb_mev_nm):
            raise ValueError(
                f"relative_permittivity {self.relative_permittivity!r} is too small: "
                "the screened Coulomb constant overflows"
            )
        if self.tunnel_coupling_mev <= 0:
            raise ValueError("tunnel_coupling_mev must be > 0")
        if self.charging_energy_mev <= 0:
            raise ValueError("charging_energy_mev must be > 0")

    @property
    def coulomb_mev_nm(self) -> float:
        """Screened Coulomb constant e^2/(4 pi eps0 eps_r) in meV*nm."""
        return COULOMB_MEV_NM / self.relative_permittivity


def adiabatic_angle(epsilon_mev: float, tunnel_coupling_mev: float) -> float:
    """Singlet mixing angle theta in [0, pi/2] at detuning eps.

    theta = |arctan(2 tc / (eps - sqrt(4 tc^2 + eps^2)))|, folded to its
    magnitude: theta -> 0 deep in the (1,1) regime (eps << -tc), pi/4 at the
    charge degeneracy eps = 0, pi/2 once the (0,2) singlet dominates.

    Evaluated as arctan((eps + sqrt(4 tc^2 + eps^2)) / (2 tc)), the same
    angle without the subtractive cancellation at |eps| >> tc.
    """
    if not (math.isfinite(epsilon_mev) and math.isfinite(tunnel_coupling_mev)):
        raise ValueError("detuning and tunnel coupling must be finite")
    if tunnel_coupling_mev <= 0:
        raise ValueError("tunnel_coupling_mev must be > 0")
    tc = tunnel_coupling_mev
    return math.atan(_eps_plus_d(epsilon_mev, tc) / (2.0 * tc))


def _eps_plus_d(epsilon_mev: float, tc: float) -> float:
    """eps + d with d = sqrt(4 tc^2 + eps^2), free of cancellation at eps < 0."""
    d = math.hypot(2.0 * tc, epsilon_mev)
    if epsilon_mev >= 0:
        return epsilon_mev + d
    # eps + d = 4 tc^2 / (d - eps)
    return 4.0 * tc * tc / (d - epsilon_mev)


def singlet_admixture(theta_rad: float) -> float:
    """Weight sin^2(theta) of the doubly occupied singlet at mixing angle theta."""
    if not 0.0 <= theta_rad <= HALF_PI:
        raise ValueError(f"theta_rad must lie in [0, pi/2], got {theta_rad}")
    s = math.sin(theta_rad)
    return s * s


def coulomb_background(dev: DeviceParams) -> float:
    """State-independent inter-molecule Coulomb energy (meV).

    Two neighboring molecules in spread-out charge configurations see
    k (2 e^2 / b + 2 e^2 / sqrt(a^2 + b^2)): two electron pairs across the
    gap b and two across the diagonal. This term is common to all logical
    states and only contributes a global phase.
    """
    a = dev.intradot_spacing_nm
    b = dev.intermolecule_spacing_nm
    return dev.coulomb_mev_nm * (2.0 / b + 2.0 / math.hypot(a, b))


def coulomb_double_occupancy(dev: DeviceParams) -> float:
    """Inter-molecule Coulomb energy with both molecules doubly occupied (meV).

    With both electron pairs pulled onto the facing dots, all four
    electron-electron distances collapse to b: k * 4 e^2 / b.
    """
    return dev.coulomb_mev_nm * 4.0 / dev.intermolecule_spacing_nm


def _coupling_bracket(a_nm: float, d_nm: float) -> float:
    """Geometric factor 2/d - 2/sqrt(a^2 + d^2) of the dipolar coupling, 1/nm."""
    return 2.0 / d_nm - 2.0 / math.hypot(a_nm, d_nm)


def ising_coupling(dev: DeviceParams, theta_rad: float) -> float:
    """State-dependent inter-molecule coupling energy at mixing angle theta (meV).

    sin^2(theta) * k * (2 e^2 / b - 2 e^2 / sqrt(a^2 + b^2)): the excess
    Coulomb energy paid only when both neighbors carry their doubly occupied
    component. This is the bond strength of the effective Ising interaction;
    it vanishes at theta = 0 and peaks at theta = pi/2, where it equals
    coulomb_double_occupancy - coulomb_background.
    """
    bracket = _coupling_bracket(dev.intradot_spacing_nm, dev.intermolecule_spacing_nm)
    return singlet_admixture(theta_rad) * dev.coulomb_mev_nm * bracket


def next_nearest_crosstalk_ratio(dev: DeviceParams) -> float:
    """Residual coupling to the next-nearest molecule, relative to the bond.

    Next-nearest molecules sit a distance 2b apart, so their state-dependent
    coupling is the dipolar bracket evaluated at 2b instead of b; the ratio
    is ~ 1/8 for a << b. Returns 0 when a = 0 (no dipole, both brackets
    vanish).
    """
    a = dev.intradot_spacing_nm
    b = dev.intermolecule_spacing_nm
    near = _coupling_bracket(a, b)
    far = _coupling_bracket(a, 2.0 * b)
    if near == 0.0:
        return 0.0
    return far / near
