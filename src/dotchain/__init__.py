"""Simulation of one-step cluster-state preparation in a chain of
singlet/triplet double-quantum-dot qubits."""

__version__ = "0.5.0"

from .constants import COULOMB_EV_NM, GAAS_RELATIVE_PERMITTIVITY, HBAR_EV_S, HBAR_MEV_NS
from .measurement import (
    MeasurementRecord,
    MeasurementSpec,
    RoundSchedule,
    measure,
    project,
    run_schedule,
    schedule_rounds,
)
from .noise import (
    FidelityEstimate,
    PhaseNoiseModel,
    exact_mean_fidelities,
    exact_mean_fidelity,
    monte_carlo_fidelities,
    monte_carlo_fidelity,
    trial_fidelities,
)
from .physics import (
    DeviceParams,
    adiabatic_angle,
    coulomb_background,
    coulomb_double_occupancy,
    ising_coupling,
    next_nearest_crosstalk_ratio,
    singlet_admixture,
)
from .pulse import (
    CalibrationError,
    DetuningPulse,
    accumulated_phase,
    check_adiabaticity,
    local_phase,
    local_phase_sensitivity,
    plateau_coupling,
    solve_hold_time,
)
from .rng import RNG_ALGORITHM
from .state import (
    MAX_QUBITS,
    ChainState,
    apply_ising_phases,
    cluster_stabilizers,
    ideal_cluster_fidelity,
    init_plus_chain,
)

__all__ = [
    "COULOMB_EV_NM",
    "GAAS_RELATIVE_PERMITTIVITY",
    "HBAR_EV_S",
    "HBAR_MEV_NS",
    "MAX_QUBITS",
    "RNG_ALGORITHM",
    "CalibrationError",
    "ChainState",
    "DetuningPulse",
    "DeviceParams",
    "FidelityEstimate",
    "MeasurementRecord",
    "MeasurementSpec",
    "PhaseNoiseModel",
    "RoundSchedule",
    "accumulated_phase",
    "adiabatic_angle",
    "apply_ising_phases",
    "check_adiabaticity",
    "cluster_stabilizers",
    "coulomb_background",
    "coulomb_double_occupancy",
    "exact_mean_fidelities",
    "exact_mean_fidelity",
    "ideal_cluster_fidelity",
    "init_plus_chain",
    "ising_coupling",
    "local_phase",
    "local_phase_sensitivity",
    "measure",
    "monte_carlo_fidelities",
    "monte_carlo_fidelity",
    "next_nearest_crosstalk_ratio",
    "plateau_coupling",
    "project",
    "run_schedule",
    "schedule_rounds",
    "singlet_admixture",
    "solve_hold_time",
    "trial_fidelities",
]
