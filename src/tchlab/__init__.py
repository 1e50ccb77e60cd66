"""Cavity-network quantum dynamics: coupled atom-cavity lattices, a timed
two-qubit conditional-sign gate on photonic qubits, single-photon walks that
emulate a free massive particle, and optical selection of dark atomic
states."""

from types import ModuleType as _ModuleType

from .basis import HilbertSpace, NetworkConfig
from .darkstates import (
    Classification,
    DarknessReport,
    DarkStudy,
    DecayConfig,
    EmissionReport,
    EmissionSamples,
    classify_dark,
    dark_study,
    emission_density,
    is_dark,
    sample_emission_times,
    singlet_product,
    triplet_state,
)
from .evolution import (
    EvolutionSettings,
    NumericalDriftError,
    StateVector,
    evolve_const,
    evolve_pulsed,
    rabi_periods,
)
from .gate import (
    GateConfig,
    branch_phase,
    cocsign_matrix,
    cocsign_schedule,
    decode,
    encode,
    gate_space,
    ideal_cocsign,
    modular_distance,
    resonance_table,
    run_gate,
    schedule_phase,
    sweep,
    trace_distance,
    uniform_superposition,
)
from .operators import (
    GaussianPulse,
    HopSpec,
    OperatorMatrix,
    amplitude_for_area,
    build_tc,
    build_tch,
    jump_operator,
    photon_number_operator,
    pulse_value,
)
from .walk import (
    CouplingNetwork,
    WalkConfig,
    WalkResult,
    ballistic_exponent,
    coupling_network,
    feynman_kernel,
    momentum_values,
    simulate_walk,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
