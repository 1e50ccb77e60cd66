"""Cavity-network quantum dynamics: coupled atom-cavity lattices, a timed
two-qubit conditional-sign gate on photonic qubits, single-photon walks that
emulate a free massive particle, and optical selection of dark atomic
states."""

from types import ModuleType as _ModuleType

from .basis import BasisState, HilbertSpace, NetworkConfig, enumerate_basis, state_index
from .darkstates import (
    Classification,
    DarknessReport,
    DecayConfig,
    EmissionReport,
    EmissionSamples,
    classify_dark,
    collective_lowering,
    emission_density,
    is_dark,
    multi_singlet_d3,
    sample_emission_times,
    singlet_product,
    singlet_state,
    three_level_lowering,
    triplet_state,
)
from .evolution import (
    EvolutionSettings,
    NumericalDriftError,
    StateVector,
    evolve_const,
    evolve_decay,
    evolve_pulsed,
    rabi_periods,
)
from .gate import (
    GateConfig,
    PulseSchedule,
    TransferWindow,
    aligned_modular_distance,
    branch_phase,
    cnot_matrix,
    cocsign_matrix,
    cocsign_schedule,
    csign_matrix,
    decode,
    density,
    encode,
    find_resonance,
    gate_space,
    hadamard_matrix,
    ideal_cocsign,
    ideal_target_state,
    min_transfer_time,
    modular_distance,
    resonance_table,
    run_gate,
    schedule_phase,
    sweep,
    trace_distance,
    transfer_window_check,
    uniform_superposition,
)
from .operators import (
    GaussianPulse,
    HopSpec,
    OperatorMatrix,
    amplitude_for_area,
    build_tc,
    build_tch,
    coupling_strength,
    jump_operator,
    photon_number_operator,
    pulse_value,
)
from .walk import (
    CouplingNetwork,
    WalkConfig,
    WalkResult,
    ballistic_exponent,
    cavity_basis_index,
    coupling_network,
    embed_in_space,
    feynman_kernel,
    free_hamiltonian,
    momentum_operator,
    momentum_values,
    qft_matrix,
    simulate_walk,
    walk_space,
)

__version__ = "0.1.0"

__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
