import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

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
import tchlab.evolution
from oracles import step_powers_loop
from tchlab.evolution import (
    _BLOCK_ENTRIES,
    _STEP_BLOCK,
    _expm,
    _step_powers,
    _top_gain,
    apply_propagator,
    pulsed_propagator,
)

import oracles
from strategies import networks


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


def _register_terms():
    """A two-excitation sector of three cavities with one static hop and two
    pulsed hop terms, one of them complex."""
    cfg = NetworkConfig(
        n_cavities=3, atoms_per_cavity=(1, 1, 1), couplings=(0.3, 0.5, 0.4), max_photons=2
    )
    space = HilbertSpace(cfg, 2)
    h0 = build_tch(space, [HopSpec(0, 1, amplitude=0.2, phase=0.3)])
    j1 = jump_operator(space, HopSpec(0, 2, amplitude=1.0))
    j2 = jump_operator(space, HopSpec(1, 2, amplitude=1.0, phase=0.7))
    return h0, j1, j2


# (t_start, pulses as (jump index, center, sigma, cutoff) with the center and
# sigma in units of the interval): the interval starts at t_start and lasts
# n_steps steps of 0.01
BLOCK_CASES = {
    "one pulse filling the interval": (0.0, [(0, 0.5, 1 / 12, 6.0)]),
    "two pulses with different windows": (0.0, [(0, 0.5, 1 / 12, 6.0), (1, 0.3, 0.05, 4.0)]),
    "window ending inside, late start": (1.5, [(1, 0.2, 0.1, 3.0)]),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("n_steps", [1, 601, 3 * _STEP_BLOCK + 1])
def test_block_product_matches_the_step_loop(monkeypatch, n_steps, case):
    t_start, shapes = BLOCK_CASES[case]
    span = 0.01 * n_steps
    h0, *jumps = _register_terms()
    pulses = [
        (jumps[k], GaussianPulse(amplitude=1.25, center=t_start + c * span,
                                 sigma=s * span, cutoff=cut))
        for k, c, s, cut in shapes
    ]
    dt = span / (n_steps - 0.5)  # n_steps equal steps, away from a rounding edge
    blocks = []
    ordered_product = tchlab.evolution._ordered_product

    def recording(r):
        blocks.append(len(r))
        return ordered_product(r)

    monkeypatch.setattr(tchlab.evolution, "_ordered_product", recording)
    u = pulsed_propagator(h0, pulses, t_start, t_start + span, dt)
    reference = oracles.rk4_propagator_loop(h0, pulses, t_start, t_start + span, dt)
    assert np.max(np.abs(u - reference)) < 1e-12
    assert sum(blocks) == n_steps and max(blocks) <= _STEP_BLOCK


def test_wide_sector_takes_shorter_blocks(monkeypatch):
    """On an 84-state sector a block holds _BLOCK_ENTRIES // 84**2 = 37 steps,
    so no stack of step matrices outgrows the entry budget."""
    cfg = NetworkConfig(
        n_cavities=4, atoms_per_cavity=(1, 1, 1, 1), couplings=(0.3, 0.5, 0.4, 0.2),
        max_photons=2,
    )
    space = HilbertSpace(cfg, 3)
    h0 = build_tch(space, [HopSpec(0, 1, amplitude=0.2, phase=0.3)])
    pulses = [
        (jump_operator(space, HopSpec(1, 2, amplitude=1.0)),
         GaussianPulse(amplitude=1.25, center=0.6, sigma=0.1)),
        (jump_operator(space, HopSpec(2, 3, amplitude=1.0, phase=0.7)),
         GaussianPulse(amplitude=0.8, center=0.4, sigma=0.05, cutoff=4.0)),
    ]
    block = _BLOCK_ENTRIES // space.dim**2
    n_steps = 3 * block + 1
    dt = 1.2 / (n_steps - 0.5)
    blocks = []
    ordered_product = tchlab.evolution._ordered_product

    def recording(r):
        blocks.append(len(r))
        return ordered_product(r)

    monkeypatch.setattr(tchlab.evolution, "_ordered_product", recording)
    u = pulsed_propagator(h0, pulses, 0.0, 1.2, dt)
    reference = oracles.rk4_propagator_loop(h0, pulses, 0.0, 1.2, dt)
    assert np.max(np.abs(u - reference)) < 1e-12
    assert blocks == [block, block, block, 1]
    assert block * space.dim**2 <= _BLOCK_ENTRIES < _STEP_BLOCK * space.dim**2


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


def test_decay_rejects_gain_hidden_off_the_diagonal():
    # anti-Hermitian part [[-0.1, 0.5], [0.5, -0.1]]: a lossy-looking diagonal,
    # but eigenvalues 0.4 and -0.6, so one direction grows
    space = two_cavity_space()
    gaining = OperatorMatrix(space, 1j * np.array([[-0.1, 0.5], [0.5, -0.1]]))
    assert abs(_top_gain(gaining.matrix) - 0.4) < 1e-12
    psi = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError, match="growing direction"):
        evolve_decay(gaining, psi, 1.0)
    # the same diagonal with no coupling is read off the diagonal and passes
    lossy = OperatorMatrix(space, np.diag([-0.1j, -0.1j]))
    assert _top_gain(lossy.matrix) == -0.1
    assert abs(evolve_decay(lossy, psi, 1.0).norm() ** 2 - math.exp(-0.2)) < 1e-12


def test_decay_matches_the_dense_exponential_on_both_bases():
    # four atoms, one photon plus two atomic excitations: a 15-dim sector
    cfg = NetworkConfig(
        n_cavities=1, atoms_per_cavity=(4,), couplings=(0.3, 0.3, 0.3, 0.3), max_photons=3
    )
    space = HilbertSpace(cfg, 3)
    m = build_tc(space, 0).matrix - 0.125j * photon_number_operator(space, 0).matrix
    h_eff = OperatorMatrix(space, m)
    # singlets on (0, 1) and (2, 3), photon present: reaches only itself
    singlets = {(0, 1, 0, 1): 0.5, (0, 1, 1, 0): -0.5, (1, 0, 0, 1): -0.5, (1, 0, 1, 0): 0.5}
    dark = np.zeros(space.dim, dtype=complex)
    for bits, amp in singlets.items():
        dark[space.index_of(BasisState((1,), bits))] = amp
    rng = np.random.default_rng(4)
    generic = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    for amps in (dark, generic / np.linalg.norm(generic)):
        psi = StateVector(space, amps)
        for t in (0.0, 0.8, 30.0):
            out = evolve_decay(h_eff, psi, t)
            reference = scipy.linalg.expm(-1j * m * t) @ amps
            assert np.max(np.abs(out.amplitudes - reference)) < 1e-10


def _generator(d, kind, norm, rng):
    """-i H for a random Hermitian H, or -i H - L L^H / 2 for a dissipative
    generator, scaled to the given 1-norm."""
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = -0.5j * (x + x.conj().T)
    if kind == "dissipative":
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a - 0.5 * (y @ y.conj().T)
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 15, 50, 200])
@pytest.mark.parametrize("kind", ["hermitian", "dissipative"])
def test_pade_exponential_matches_scipy(d, kind):
    rng = np.random.default_rng(d)
    # norms below theta_13 take no squaring; 200 takes six
    for norm in (1e-3, 0.1, 1.0, 5.0, 5.4, 30.0, 200.0):
        a = _generator(d, kind, norm, rng)
        reference = scipy.linalg.expm(a)
        error = np.linalg.norm(_expm(a) - reference, 1) / np.linalg.norm(reference, 1)
        assert error < 1e-12


def test_pade_exponential_of_zero_is_the_identity():
    for d in (1, 3, 20):
        zero = np.zeros((d, d), dtype=complex)
        assert np.array_equal(_expm(zero), np.eye(d))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_pade_exponential_refuses_a_non_finite_block(bad):
    a = np.zeros((3, 3), dtype=complex)
    a[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        _expm(a)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 1023, 1024, 1025, 2000])
def test_doubled_step_powers_match_sequential_stepping(n_steps):
    rng = np.random.default_rng(n_steps)
    step = _expm(_generator(6, "dissipative", 0.05, rng))
    coef = rng.normal(size=6) + 1j * rng.normal(size=6)
    coef /= np.linalg.norm(coef)
    table = _step_powers(step, coef, n_steps)
    assert table.shape == (n_steps + 1, 6)
    assert np.max(np.abs(table - step_powers_loop(step, coef, n_steps))) < 1e-13


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_propagator_fails_the_drift_check():
    space = two_cavity_space()
    psi = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    for bad in (math.nan, math.inf):
        u = np.eye(2, dtype=complex)
        u[0, 0] = bad
        with pytest.raises(NumericalDriftError):
            apply_propagator(u, psi, 1e-8)


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


@pytest.mark.parametrize(
    "kwargs", [{"dt": math.nan}, {"dt": math.inf}, {"dt": 0.1, "norm_tolerance": math.nan}]
)
def test_settings_refuse_non_finite_values(kwargs):
    with pytest.raises(ValueError, match="positive and finite"):
        EvolutionSettings(**kwargs)


@settings(max_examples=40, deadline=None)
@given(networks(), st.floats(0.0, 1e4), st.integers(0, 2**32 - 1))
def test_const_evolution_preserves_the_norm(network, t, seed):
    space, hops = network
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi = StateVector(space, amps / np.linalg.norm(amps))
    out = evolve_const(build_tch(space, hops), psi, t)
    assert abs(out.norm() - 1.0) < 1e-12
