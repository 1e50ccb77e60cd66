import math

import numpy as np
import pytest

from tchlab import (
    BasisState,
    EvolutionSettings,
    GaussianPulse,
    HilbertSpace,
    HopSpec,
    NetworkConfig,
    NumericalDriftError,
    OperatorMatrix,
    StateVector,
    build_tc,
    build_tch,
    evolve_const,
    evolve_decay,
    evolve_pulsed,
    jump_operator,
    photon_number_operator,
    rabi_periods,
)


def jc_space(g=1e-3, omega=1.0, sector=1):
    cfg = NetworkConfig(
        n_cavities=1, atoms_per_cavity=(1,), couplings=(g,), max_photons=2, omega=omega
    )
    return HilbertSpace(cfg, sector)


def two_cavity_space():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(0, 0), max_photons=1, omega=1.0)
    return HilbertSpace(cfg, 1)


def test_rabi_periods():
    tau1, tau2 = rabi_periods(1e-3)
    assert abs(tau1 - math.pi / 1e-3) < 1e-9
    assert abs(tau2 - tau1 / math.sqrt(2.0)) < 1e-12
    with pytest.raises(ValueError):
        rabi_periods(0.0)


def test_const_evolution_is_unitary_and_composes():
    space = jc_space(g=0.2)
    h = build_tc(space, 0)
    rng = np.random.default_rng(7)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amps /= np.linalg.norm(amps)
    psi = StateVector(space, amps)
    out = evolve_const(h, psi, 3.7)
    assert abs(out.norm() - 1.0) < 1e-12
    two_step = evolve_const(h, evolve_const(h, psi, 1.3), 2.4)
    assert np.max(np.abs(two_step.amplitudes - out.amplitudes)) < 1e-12


def test_full_rabi_period_returns_minus_state():
    # omega = 1, g = 1e-3: omega * tau1 is an even multiple of pi, so the
    # free phase cancels and only the interaction's half-cycle sign remains
    space = jc_space()
    h = build_tc(space, 0)
    tau1, _ = rabi_periods(1e-3)
    psi = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    out = evolve_const(h, psi, tau1)
    assert np.linalg.norm(out.amplitudes + psi.amplitudes) < 1e-8


def test_half_rabi_period_swaps_photon_and_atom():
    space = jc_space()
    h = build_tc(space, 0)
    tau1, _ = rabi_periods(1e-3)
    excited_atom = np.zeros(space.dim, dtype=complex)
    excited_atom[space.index_of(BasisState((0,), (1,)))] = 1.0
    out = evolve_const(h, StateVector(space, excited_atom), tau1 / 2.0)
    photon = np.zeros(space.dim, dtype=complex)
    photon[space.index_of(BasisState((1,), (0,)))] = 1.0
    assert np.linalg.norm(out.amplitudes - (-1j) * photon) < 1e-8


def test_pulsed_swap_amplitude_and_phase():
    # quarter-cycle area moves the photon with a factor -i; the resonant
    # diagonal adds exp(-i omega T) over the window
    space = two_cavity_space()
    h0 = build_tch(space)
    jump = jump_operator(space, HopSpec(0, 1, amplitude=1.0))
    area = math.pi / 2.0
    sigma = 0.5
    amp = area / (sigma * math.sqrt(2.0 * math.pi))
    window = 12.0 * sigma
    pulse = GaussianPulse(amplitude=amp, center=window / 2.0, sigma=sigma)
    start = np.zeros(space.dim, dtype=complex)
    start[space.index_of(BasisState((0, 1), ()))] = 1.0
    out = evolve_pulsed(h0, [(jump, pulse)], StateVector(space, start), 0.0, window)
    target = np.zeros(space.dim, dtype=complex)
    target[space.index_of(BasisState((1, 0), ()))] = -1j * np.exp(-1j * window)
    assert np.linalg.norm(out.amplitudes - target) < 1e-6

    # doubled area completes the cycle: the photon returns negated
    pulse2 = GaussianPulse(amplitude=2.0 * amp, center=window / 2.0, sigma=sigma)
    out2 = evolve_pulsed(h0, [(jump, pulse2)], StateVector(space, start), 0.0, window)
    target2 = -np.exp(-1j * window) * start
    assert np.linalg.norm(out2.amplitudes - target2) < 1e-6


def test_pulsed_integrator_is_fourth_order():
    space = two_cavity_space()
    h0 = build_tch(space)
    jump = jump_operator(space, HopSpec(0, 1, amplitude=1.0))
    pulse = GaussianPulse(amplitude=1.25, center=3.0, sigma=0.5)
    start = StateVector(space, np.array([1.0, 0.0], dtype=complex))

    def run(n_steps):
        settings = EvolutionSettings(dt=6.0 / n_steps, norm_tolerance=1e-5)
        return evolve_pulsed(h0, [(jump, pulse)], start, 0.0, 6.0, settings).amplitudes

    ref = run(38400)
    err_coarse = np.linalg.norm(run(600) - ref)
    err_fine = np.linalg.norm(run(1200) - ref)
    assert 12.0 < err_coarse / err_fine < 20.0


def test_zero_amplitude_pulse_matches_const_route():
    space = two_cavity_space()
    h0 = build_tch(space)
    jump = jump_operator(space, HopSpec(0, 1, amplitude=1.0))
    pulse = GaussianPulse(amplitude=0.0, center=3.0, sigma=0.5)
    rng = np.random.default_rng(3)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    amps /= np.linalg.norm(amps)
    psi = StateVector(space, amps)
    pulsed = evolve_pulsed(h0, [(jump, pulse)], psi, 0.0, 6.0)
    const = evolve_const(h0, psi, 6.0)
    assert np.max(np.abs(pulsed.amplitudes - const.amplitudes)) < 1e-9


def test_pulsed_route_guards():
    space = two_cavity_space()
    h0 = build_tch(space)
    jump = jump_operator(space, HopSpec(0, 1, amplitude=1.0))
    pulse = GaussianPulse(amplitude=1.25, center=3.0, sigma=0.5)
    psi = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        evolve_pulsed(h0, [], psi, 0.0, 1.0)  # no time scale, no settings
    with pytest.raises(ValueError):
        evolve_pulsed(h0, [(jump, pulse)], psi, 1.0, 0.0)
    with pytest.raises(TypeError):
        evolve_pulsed(h0, [(jump, "not a pulse")], psi, 0.0, 1.0)
    same = evolve_pulsed(h0, [(jump, pulse)], psi, 2.0, 2.0)
    assert np.array_equal(same.amplitudes, psi.amplitudes)
    assert same is not psi
    with pytest.raises(NumericalDriftError):
        coarse = EvolutionSettings(dt=2.0, norm_tolerance=1e-8)
        evolve_pulsed(h0, [(jump, pulse)], psi, 0.0, 6.0, coarse)


def test_decay_route_exponential_and_guards():
    cfg = NetworkConfig(n_cavities=1, atoms_per_cavity=(0,), max_photons=1, omega=1.0)
    space = HilbertSpace(cfg, 1)
    kappa = 0.25
    n_op = photon_number_operator(space, 0)
    h_eff = OperatorMatrix(space, (1.0 - 0.5j * kappa) * n_op.matrix)
    psi = StateVector(space, np.array([1.0], dtype=complex))
    for t in (0.0, 0.8, 3.0):
        out = evolve_decay(h_eff, psi, t)
        assert abs(out.norm() ** 2 - math.exp(-kappa * t)) < 1e-12
    gaining = OperatorMatrix(space, (1.0 + 0.5j * kappa) * n_op.matrix)
    with pytest.raises(ValueError):
        evolve_decay(gaining, psi, 1.0)
    with pytest.raises(ValueError):
        evolve_decay(h_eff, psi, -1.0)


def test_equal_dimension_spaces_are_still_different():
    jc, ring = jc_space(), two_cavity_space()
    assert jc.dim == ring.dim == 2
    psi = StateVector(ring, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        evolve_const(build_tc(jc, 0), psi, 1.0)
    # an equal network rebuilt separately is the same space
    same = StateVector(jc_space(), np.array([1.0, 0.0], dtype=complex))
    assert abs(evolve_const(build_tc(jc, 0), same, 1.0).norm() - 1.0) < 1e-12


def test_state_vector_validation():
    space = two_cavity_space()
    with pytest.raises(ValueError):
        StateVector(space, np.zeros(3, dtype=complex))
    with pytest.raises(ValueError):
        EvolutionSettings(dt=0.0)
    with pytest.raises(ValueError):
        EvolutionSettings(dt=0.1, norm_tolerance=0.0)
