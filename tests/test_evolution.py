import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import tchlab.darkstates
import tchlab.evolution
from oracles import step_powers_loop
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.darkstates import _expm, _lossy_propagation, _reachable_basis, _step_powers
from tchlab.gate import GateConfig, cocsign_schedule, gate_space
from tchlab.evolution import (
    MAX_PULSED_STEPS,
    _BLOCK_ENTRIES,
    _RK4_TERMS,
    _STEP_BLOCK,
    EvolutionSettings,
    NumericalDriftError,
    StateVector,
    _invariant_blocks,
    apply_propagator,
    evolve_const,
    evolve_pulsed,
    pulsed_propagators,
    rabi_periods,
)
from tchlab.operators import (
    GaussianPulse,
    HopSpec,
    build_tc,
    build_tch,
    jump_operator,
    photon_number_operator,
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
    # 1e-320 is finite, but its Rabi period pi/g is not
    for g, match in ((math.nan, "positive and finite"), (math.inf, "positive and finite"),
                     (1e-320, "pi/g beyond the float range")):
        with pytest.raises(ValueError, match=match):
            rabi_periods(g)


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
    excited_atom[oracles.state_index(space)[(0, 1)]] = 1.0
    out = evolve_const(h, StateVector(space, excited_atom), tau1 / 2.0)
    photon = np.zeros(space.dim, dtype=complex)
    photon[oracles.state_index(space)[(1, 0)]] = 1.0
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
    start[oracles.state_index(space)[(0, 1)]] = 1.0
    out = evolve_pulsed(h0, [(jump, pulse)], StateVector(space, start), 0.0, window)
    target = np.zeros(space.dim, dtype=complex)
    target[oracles.state_index(space)[(1, 0)]] = -1j * np.exp(-1j * window)
    assert np.linalg.norm(out.amplitudes - target) < 1e-6

    # doubled area completes the cycle: the photon returns negated
    pulse2 = GaussianPulse(amplitude=2.0 * amp, center=window / 2.0, sigma=sigma)
    out2 = evolve_pulsed(h0, [(jump, pulse2)], StateVector(space, start), 0.0, window)
    target2 = -np.exp(-1j * window) * start
    assert np.linalg.norm(out2.amplitudes - target2) < 1e-6


def test_pulsed_integrator_is_fourth_order(monkeypatch):
    monkeypatch.setattr(tchlab.evolution, "NORM_TOLERANCE", 1e-5)
    space = two_cavity_space()
    h0 = build_tch(space)
    jump = jump_operator(space, HopSpec(0, 1, amplitude=1.0))
    pulse = GaussianPulse(amplitude=1.25, center=3.0, sigma=0.5)
    start = StateVector(space, np.array([1.0, 0.0], dtype=complex))

    def run(n_steps):
        settings = EvolutionSettings(dt=6.0 / n_steps)
        return evolve_pulsed(h0, [(jump, pulse)], start, 0.0, 6.0, settings).amplitudes

    ref = run(38400)
    err_coarse = np.linalg.norm(run(600) - ref)
    err_fine = np.linalg.norm(run(1200) - ref)
    assert 12.0 < err_coarse / err_fine < 20.0


def _register_terms():
    """A two-excitation sector of three cavities with one static hop and two
    pulsed hop terms, all real."""
    cfg = NetworkConfig(
        n_cavities=3, atoms_per_cavity=(1, 1, 1), couplings=(0.3, 0.5, 0.4), max_photons=2
    )
    space = HilbertSpace(cfg, 2)
    h0 = build_tch(space, [HopSpec(0, 1, amplitude=0.2)])
    j1 = jump_operator(space, HopSpec(0, 2, amplitude=1.0))
    j2 = jump_operator(space, HopSpec(1, 2, amplitude=1.0))
    return h0, j1, j2


# (t_start, pulses as (jump index, sigma, cutoff) with sigma in units of the
# interval): every pulse is centred on the interval, which starts at t_start
# and lasts n_steps steps of 0.01
BLOCK_CASES = {
    "one pulse filling the interval": (0.0, [(0, 1 / 12, 6.0)]),
    "two pulses with different windows": (0.0, [(0, 1 / 12, 6.0), (1, 0.05, 4.0)]),
    "window ending inside, late start": (1.5, [(1, 0.1, 3.0)]),
}


def _record_chunks(monkeypatch, shapes=False):
    """Length of every stack of step matrices that goes to _ordered_product,
    with the size of its block if ``shapes``."""
    chunks = []
    ordered_product = tchlab.evolution._ordered_product

    def recording(r):
        chunks.append((len(r), r.shape[1]) if shapes else len(r))
        return ordered_product(r)

    monkeypatch.setattr(tchlab.evolution, "_ordered_product", recording)
    return chunks


def _block_sizes(h0, pulses):
    matrices = np.stack([h0.matrix] + [op.matrix for op, _ in pulses])
    return [len(b) for b in _invariant_blocks(matrices)]


def _half_chunks(n_steps, chunk):
    """Lengths of the chunks the first ceil(n/2) steps run in: at most
    ``chunk`` steps, and a chunk ends after n // 2 steps."""
    stop = n_steps - n_steps // 2
    bounds = sorted({*range(0, stop, chunk), n_steps // 2, stop})
    return [last - first for first, last in zip(bounds, bounds[1:])]


@pytest.mark.parametrize("case", BLOCK_CASES)
@pytest.mark.parametrize("n_steps", [1, 601, 3 * _STEP_BLOCK + 1])
def test_block_product_matches_the_step_loop(monkeypatch, n_steps, case):
    t_start, shapes = BLOCK_CASES[case]
    span = 0.01 * n_steps
    h0, *jumps = _register_terms()
    pulses = [
        (jumps[k], GaussianPulse(amplitude=1.25, center=t_start + 0.5 * span,
                                 sigma=s * span, cutoff=cut))
        for k, s, cut in shapes
    ]
    dt = span / (n_steps - 0.5)  # n_steps equal steps, away from a rounding edge
    chunks = _record_chunks(monkeypatch)
    u = pulsed_propagators(h0, pulses, t_start, t_start + span, dt, (1.0,))[0]
    reference = oracles.rk4_propagator_loop(h0, pulses, t_start, t_start + span, dt)
    assert np.max(np.abs(u - reference)) < 1e-12
    # each chunk of the first ceil(n/2) steps runs once on every invariant
    # block, and the stack of its five scale powers on the widest block
    # fits the entry budget
    sizes = _block_sizes(h0, pulses)
    chunk = min(_STEP_BLOCK, _BLOCK_ENTRIES // (5 * max(sizes) ** 2))
    assert chunks == [n for n in _half_chunks(n_steps, chunk) for _ in sizes]
    assert sum(chunks) == len(sizes) * ((n_steps + 1) // 2) and max(chunks) <= _STEP_BLOCK


def _wide_sector_terms():
    """An 84-state sector of four cavities with one static and one pulsed
    hop, real, all one invariant block, and the pulse centred on [0, 1.2]."""
    cfg = NetworkConfig(
        n_cavities=4, atoms_per_cavity=(1, 1, 1, 1), couplings=(0.3, 0.5, 0.4, 0.2),
        max_photons=2,
    )
    space = HilbertSpace(cfg, 3)
    h0 = build_tch(space, [HopSpec(0, 1, amplitude=0.2), HopSpec(2, 3, amplitude=0.1)])
    pulses = [
        (jump_operator(space, HopSpec(1, 2, amplitude=1.0)),
         GaussianPulse(amplitude=1.25, center=0.6, sigma=0.1)),
    ]
    return h0, pulses


def test_wide_sector_takes_shorter_blocks(monkeypatch):
    """On an 84-state block a chunk holds _BLOCK_ENTRIES // (5 * 84**2) = 7
    steps, so the stack of its five scale powers stays within the entry
    budget; 6 * 7 + 1 steps run their first 22 in three full chunks and the
    odd middle step."""
    h0, pulses = _wide_sector_terms()
    dim = h0.matrix.shape[0]
    assert _block_sizes(h0, pulses) == [dim] == [84]
    block = _BLOCK_ENTRIES // (5 * dim**2)
    n_steps = 6 * block + 1
    dt = 1.2 / (n_steps - 0.5)
    chunks = _record_chunks(monkeypatch)
    u = pulsed_propagators(h0, pulses, 0.0, 1.2, dt, (1.0,))[0]
    reference = oracles.rk4_propagator_loop(h0, pulses, 0.0, 1.2, dt)
    assert np.max(np.abs(u - reference)) < 1e-12
    assert chunks == [block, block, block, 1]
    assert 5 * block * dim**2 <= _BLOCK_ENTRIES < 5 * _STEP_BLOCK * dim**2


def _gate_link_terms():
    """The gate register's static part and its aux<->x exchange at unit
    amplitude, with the area-rule amplitude and step."""
    cfg = GateConfig()
    ev = cocsign_schedule(cfg)[0]
    space = gate_space(cfg)
    jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
    pulse = GaussianPulse(amplitude=1.0, center=ev.pulse.center, sigma=ev.pulse.sigma,
                          cutoff=ev.pulse.cutoff)
    return build_tch(space), [(jump, pulse)], ev.duration, cfg.resolved_alpha, cfg.resolved_dt


def _scaled(pulses, s):
    return [(op, GaussianPulse(amplitude=s * p.amplitude, center=p.center, sigma=p.sigma,
                               cutoff=p.cutoff)) for op, p in pulses]


# (h0, pulses, t_end, scales, dt): every case starts at 0
def _reference_cases():
    h0, pulses, window, alpha, dt = _gate_link_terms()
    yield "gate register", (h0, pulses, window, [s * alpha for s in (0.0, 0.5, 1.0, 1.5, 3.0)], dt)
    h0, pulses = _wide_sector_terms()
    yield "84-state sector", (h0, pulses, 1.2, [0.7, 1.0], 1.2 / 50.5)


REFERENCE_CASES = dict(_reference_cases())


@pytest.mark.parametrize("case", REFERENCE_CASES)
def test_scaled_propagators_match_the_block_product_and_the_loop(case):
    h0, pulses, t_end, scales, dt = REFERENCE_CASES[case]
    u = pulsed_propagators(h0, pulses, 0.0, t_end, dt, scales)
    assert u.shape == (len(scales),) + h0.matrix.shape
    for s, us in zip(scales, u):
        scaled = _scaled(pulses, s)
        block = oracles.rk4_block_product(h0, scaled, 0.0, t_end, dt)
        loop = oracles.rk4_propagator_loop(h0, scaled, 0.0, t_end, dt)
        assert np.max(np.abs(us - block)) < 1e-12
        assert np.max(np.abs(us - loop)) < 1e-12


def test_rk4_terms_are_closed_under_the_mirror_map():
    # transposing a step reverses each word, and the mirrored step reads its
    # start where the step reads its end
    mirrored = {(w, tuple(2 - tau for tau in reversed(times))) for w, times in _RK4_TERMS}
    assert mirrored == set(_RK4_TERMS)


@pytest.mark.parametrize("n_steps", [600, 601])
def test_a_time_symmetric_segment_runs_half_its_steps(monkeypatch, n_steps):
    """Real symmetric letters and a centred pulse: the second half is the
    transpose of the first, so only ceil(n/2) steps run on each block, the
    middle one on its own for odd n.  The pulsed 8-state blocks run them
    once per scale, and the pulse-free 2-state block once per call."""
    h0, pulses, window, alpha, _ = _gate_link_terms()
    dt = window / (n_steps - 0.5)
    chunks = _record_chunks(monkeypatch, shapes=True)
    u = pulsed_propagators(h0, pulses, 0.0, window, dt, (0.5 * alpha, alpha))
    for s, us in zip((0.5 * alpha, alpha), u):
        reference = oracles.rk4_propagator_loop(h0, _scaled(pulses, s), 0.0, window, dt)
        assert np.max(np.abs(us - reference)) < 1e-12
    assert _block_sizes(h0, pulses) == [8, 8, 2]
    half = (n_steps + 1) // 2
    assert sum(n for n, b in chunks if b == 8) == 2 * 2 * half  # two blocks, two scales
    assert sum(n for n, b in chunks if b == 2) == half  # once for both scales
    if n_steps % 2:
        assert chunks[-5:] == [(1, 8), (1, 8), (1, 8), (1, 8), (1, 2)]


def test_a_pulse_free_block_is_the_same_bits_at_every_scale(monkeypatch):
    """The aux<->x jump vanishes on the register's 2-state block, so that
    block runs once per chunk, not once per scale, and its entries are the
    same bits at every scale and in a one-scale call."""
    h0, pulses, window, alpha, dt = _gate_link_terms()
    free = _invariant_blocks(np.stack([h0.matrix, pulses[0][0].matrix]))[2]
    assert len(free) == 2 and not np.any(pulses[0][0].matrix[free[:, None], free])
    chunks = _record_chunks(monkeypatch, shapes=True)
    scales = (0.0, 0.5 * alpha, alpha, 3.0 * alpha)
    u = pulsed_propagators(h0, pulses, 0.0, window, dt, scales)
    assert sum(n for n, b in chunks if b == 2) == (math.ceil(window / dt) + 1) // 2
    alone = pulsed_propagators(h0, pulses, 0.0, window, dt, (alpha,))[0]
    for us in u:
        assert np.array_equal(us[free[:, None], free], alone[free[:, None], free])
    # the pulsed blocks do move with the scale
    assert not np.array_equal(u[0], u[2])


def test_stacked_products_round_as_the_per_state_ones():
    """A (runs, dim) stack carried by stacked matrix-vector products gives
    each row the bits of the per-state products of the oracles, and a
    StateVector, carried as a one-row stack, the bits of its row."""
    h0, pulses, window, alpha, dt = _gate_link_terms()
    space = h0.space
    rng = np.random.default_rng(5)
    states = rng.normal(size=(5, space.dim)) + 1j * rng.normal(size=(5, space.dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    free = evolve_const(h0, states, 123.4)
    links = pulsed_propagators(h0, pulses, 0.0, window, dt, (alpha, alpha, 0.5 * alpha, 0.0, alpha))
    linked = apply_propagator(links, states)
    for row, psi in enumerate(states):
        one = StateVector(space, psi)
        assert np.array_equal(free[row], oracles.evolve_const_state(h0, one, 123.4).amplitudes)
        assert np.array_equal(linked[row], oracles.apply_propagator_state(links[row], one).amplitudes)
        const, applied = evolve_const(h0, one, 123.4), apply_propagator(links[row], one)
        assert isinstance(const, StateVector) and const.space is space
        assert isinstance(applied, StateVector) and applied.space is space
        assert np.array_equal(const.amplitudes, free[row])
        assert np.array_equal(applied.amplitudes, linked[row])
    # every row is checked: a link that grows the last row trips the guard,
    # and so does that link on the last row carried alone
    grown = links.copy()
    grown[-1] *= 1.001
    with pytest.raises(NumericalDriftError, match="squared norm drifted"):
        apply_propagator(grown, states)
    with pytest.raises(NumericalDriftError, match="squared norm drifted"):
        apply_propagator(grown[-1], StateVector(space, states[-1]))


@pytest.mark.parametrize("n_steps", [111, 132, 155, 900])
def test_every_step_count_runs_the_mirrored_half(monkeypatch, n_steps):
    """Step counts at which a truncation edge of the gate's aux<->x window
    rounds inside at one end of the segment and outside at the other,
    among them the 900 steps of the alpha x 3 link, run ceil(n/2) steps
    and match the mirrored loop."""
    h0, pulses, window, alpha, _ = _gate_link_terms()
    strong = GateConfig(alpha=3.0 * alpha)
    dt = strong.resolved_dt if n_steps == 900 else window / (n_steps - 0.5)
    assert math.ceil(window / dt) == n_steps
    chunks = _record_chunks(monkeypatch)
    u = pulsed_propagators(h0, pulses, 0.0, window, dt, (strong.alpha,))[0]
    scaled = _scaled(pulses, strong.alpha)
    assert np.max(np.abs(u - oracles.rk4_propagator_loop(h0, scaled, 0.0, window, dt))) < 1e-12
    assert sum(chunks) == len(_block_sizes(h0, pulses)) * ((n_steps + 1) // 2)
    if n_steps == 900:
        # the forward grid reads the edge once more (measured 9.0e-11 apart)
        forward = oracles.rk4_propagator_loop(h0, scaled, 0.0, window, dt, mirrored=False)
        assert np.max(np.abs(u - forward)) < 1e-10


def _asymmetric_segments():
    h0, pulses, window, alpha, dt = _gate_link_terms()
    (jump, pulse), = pulses
    off_centre = GaussianPulse(amplitude=1.0, center=pulse.center + 0.25, sigma=pulse.sigma,
                               cutoff=20.0)
    yield "off-centre pulse", (h0, [(jump, off_centre)], window, alpha, dt)
    _, jump, _ = _register_terms()
    complex_h0 = build_tch(jump.space, [HopSpec(0, 1, amplitude=0.2, phase=0.3)])
    centred = GaussianPulse(amplitude=1.0, center=3.0, sigma=0.5)
    yield "complex hop phase", (complex_h0, [(jump, centred)], 6.0, 1.25, 0.01)


ASYMMETRIC_SEGMENTS = dict(_asymmetric_segments())


@pytest.mark.parametrize("case", ASYMMETRIC_SEGMENTS)
def test_a_segment_that_is_not_time_symmetric_is_refused(case):
    h0, pulses, t_end, s, dt = ASYMMETRIC_SEGMENTS[case]
    with pytest.raises(ValueError, match="symmetric|centred"):
        pulsed_propagators(h0, pulses, 0.0, t_end, dt, (s,))
    psi = StateVector(h0.space, np.eye(h0.matrix.shape[0])[0])
    with pytest.raises(ValueError, match="symmetric|centred"):
        evolve_pulsed(h0, _scaled(pulses, s), psi, 0.0, t_end, EvolutionSettings(dt=dt))
    # one step mirrors nothing, so it runs whole
    u = pulsed_propagators(h0, pulses, 0.0, t_end, t_end, (s,))[0]
    reference = oracles.rk4_propagator_loop(h0, _scaled(pulses, s), 0.0, t_end, t_end)
    assert np.max(np.abs(u - reference)) < 1e-12


def test_a_propagator_built_in_a_batch_equals_it_built_alone():
    h0, pulses, window, alpha, dt = _gate_link_terms()
    scales = [s * alpha for s in (0.5, 1.0, 1.5)]
    batch = pulsed_propagators(h0, pulses, 0.0, window, dt, scales)
    for s, u in zip(scales, batch):
        assert np.array_equal(u, pulsed_propagators(h0, pulses, 0.0, window, dt, (s,))[0])


def test_the_exchange_splits_the_register_into_invariant_blocks():
    # the aux<->x exchange keeps the y cavity's excitation count (0, 1 or 2)
    h0, pulses, window, *_ = _gate_link_terms()
    jump = pulses[0][0]
    blocks = _invariant_blocks(np.stack([h0.matrix, jump.matrix]))
    assert [len(b) for b in blocks] == [8, 8, 2]
    assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(18))
    space = jump.space
    y_count = space.occupations[:, 1] + space.occupations[:, 4]
    for b in blocks:
        assert len(set(y_count[b].tolist())) == 1
    outside = np.ones((18, 18), dtype=bool)
    for b in blocks:
        outside[b[:, None], b] = False
    u = pulsed_propagators(h0, pulses, 0.0, window, 0.01, (1.0, 2.0))
    assert np.all(u[:, outside] == 0.0)


def test_a_long_segment_stays_within_the_entry_budget():
    """A 60,000-step exchange (the gate at dt 1e-4): the chunks keep every
    array over the steps within _BLOCK_ENTRIES complex entries, so the
    build's peak allocation stays within one budget's worth of bytes."""
    h0, pulses, window, alpha, dt = _gate_link_terms()
    assert math.ceil(window / 1e-4) == 60_000
    tracemalloc.start()
    try:
        u = pulsed_propagators(h0, pulses, 0.0, window, 1e-4, (alpha,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * _BLOCK_ENTRIES
    # unitary up to 60,000 steps of rounding (measured 8.9e-12), and within
    # the default step's own RK4 error of its link (measured 7.4e-8)
    assert np.max(np.abs(u[0].conj().T @ u[0] - np.eye(18))) < 1e-10
    coarse = pulsed_propagators(h0, pulses, 0.0, window, dt, (alpha,))
    assert np.max(np.abs(u - coarse)) < 1e-7


@pytest.mark.parametrize("steps", [MAX_PULSED_STEPS + 1, 1e300, None])
def test_a_segment_over_the_step_limit_is_refused_before_integrating(monkeypatch, steps):
    # a step count that no run could finish, or no memory hold, must fail
    # before any table or chunk edge is built; None is the smallest double
    # as the step, an infinite count
    h0, pulses, window, alpha, _ = _gate_link_terms()
    dt = 5e-324 if steps is None else window / steps

    def integrated(*args):
        raise AssertionError("the segment was integrated")

    monkeypatch.setattr(tchlab.evolution, "_words", integrated)
    monkeypatch.setattr(tchlab.evolution, "_invariant_blocks", integrated)
    with pytest.raises(ValueError, match="limit"):
        pulsed_propagators(h0, pulses, 0.0, window, dt, (alpha,))


def test_a_segment_within_the_step_limit_is_not_refused(monkeypatch):
    h0, pulses, window, alpha, _ = _gate_link_terms()

    def integrated(*args):
        raise RuntimeError("integrating")

    monkeypatch.setattr(tchlab.evolution, "_words", integrated)
    with pytest.raises(RuntimeError, match="integrating"):
        pulsed_propagators(h0, pulses, 0.0, window, window / (MAX_PULSED_STEPS - 1), (alpha,))


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
        coarse = EvolutionSettings(dt=2.0)
        evolve_pulsed(h0, [(jump, pulse)], psi, 0.0, 6.0, coarse)


def test_decay_matches_the_dense_exponential_on_both_bases():
    # four atoms, one photon plus two atomic excitations: a 15-dim sector
    cfg = NetworkConfig(
        n_cavities=1, atoms_per_cavity=(4,), couplings=(0.3, 0.3, 0.3, 0.3), max_photons=3
    )
    space = HilbertSpace(cfg, 3)
    m = build_tc(space, 0).matrix - 0.125j * photon_number_operator(space, 0).matrix
    # P = diag(i^n), exactly, makes P^-1 (-i m) P real once the diagonal
    # omega * sector, a global phase, is left out
    gauge = np.array([1, 1j, -1, -1j])[space.occupations[:, 0] % 4]
    a = gauge.conj()[:, None] * (-1j * (m - 3.0 * np.eye(space.dim))) * gauge
    assert not a.imag.any()
    a = a.real
    index = oracles.state_index(space)
    # singlets on (0, 1) and (2, 3), photon present: reaches only itself
    singlets = {(0, 1, 0, 1): 0.5, (0, 1, 1, 0): -0.5, (1, 0, 0, 1): -0.5, (1, 0, 1, 0): 0.5}
    dark = np.zeros(space.dim, dtype=complex)
    for bits, amp in singlets.items():
        dark[index[(1,) + bits]] = amp
    rng = np.random.default_rng(4)
    generic = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    # the generic state reaches 8 of the 15 states, and so does each of its
    # real and imaginary parts, which decay apart under the real generator
    for amps, basis_dim in ((dark, 1), (generic / np.linalg.norm(generic), 8)):
        start = gauge.conj() * amps
        parts = [part.copy() for part in (start.real, start.imag) if part.any()]
        for t, n_steps in ((0.8, 1), (30.0, 1), (30.0, 60)):
            runs = [_lossy_propagation(lambda v: a @ v, part, t / n_steps, n_steps)
                    for part in parts]
            assert [run.basis_dim for run in runs] == [basis_dim] * len(parts)
            table = step_powers_loop(scipy.linalg.expm(-1j * m * t / n_steps), amps, n_steps)
            reference = np.sum(np.abs(table) ** 2, axis=1)
            assert np.max(np.abs(sum(run.survival for run in runs) - reference)) < 1e-10


@pytest.mark.parametrize("cap", [5, 12])
def test_the_arnoldi_block_is_the_projected_generator(cap):
    # A Q = Q B + r q_k e_k^T: B is Q^T A Q, and r is what the last image
    # leaves; a basis spanning the space leaves nothing
    rng = np.random.default_rng(cap)
    a = _generator(12, "real", 1.0, rng)
    psi = rng.normal(size=12)
    q, block, residual = _reachable_basis(lambda v: a @ v, psi, 1e12, cap)
    assert q.shape == (cap, 12) and block.shape == (cap, cap)
    basis = q.T
    assert np.max(np.abs(basis.T @ basis - np.eye(cap))) < 1e-13
    assert np.max(np.abs(block - basis.T @ a @ basis)) < 1e-13
    assert np.max(np.abs(np.tril(block, -2))) == 0.0
    left = a @ basis - basis @ block
    assert np.max(np.abs(left[:, :-1])) < 1e-13
    if cap == psi.size:
        assert residual == 0.0
    else:
        assert abs(np.linalg.norm(left[:, -1]) - residual) < 1e-13


def _generator(d, kind, norm, rng):
    """-i H for a random Hermitian H, -i H - L L^H / 2 for a dissipative
    generator, or the real dissipative S - L L^T / 2 for an antisymmetric S,
    scaled to the given 1-norm."""
    if kind == "real":
        x, y = rng.normal(size=(d, d)), rng.normal(size=(d, d))
        a = 0.5 * (x - x.T) - 0.5 * (y @ y.T)
        return a * (norm / np.linalg.norm(a, 1))
    x = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    a = -0.5j * (x + x.conj().T)
    if kind == "dissipative":
        y = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = a - 0.5 * (y @ y.conj().T)
    return a * (norm / np.linalg.norm(a, 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 15, 50, 200])
@pytest.mark.parametrize("kind", ["hermitian", "dissipative", "real"])
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


def test_pade_exponential_refuses_squarings_that_overflow():
    # an oscillation of 3e19 radians takes 65 squarings, each doubling the
    # rounding error of the scaled approximant, past the float range
    a = np.array([[0.0, 1e20], [-1e19, 0.0]])
    with pytest.raises(NumericalDriftError, match="overflows in 65 squarings"):
        _expm(a)


def test_a_decay_step_that_grows_the_norm_is_refused():
    # the squarings turn the unresolved rotation into a finite step with
    # entries near 1e188, which a dissipative generator cannot make
    a = np.array([[0.0, 1e20], [-1e20, 0.0]])
    with pytest.raises(NumericalDriftError, match="grows the norm"):
        _lossy_propagation(lambda v: a @ v, np.array([1.0, 0.0]), 1.0, 4)


def test_a_spanning_basis_that_fits_no_step_is_refused(monkeypatch):
    # a basis of the whole space cannot grow, so a span that fits no step
    # raises instead of doubling its cap forever
    a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
    monkeypatch.setattr(tchlab.darkstates, "_step_powers",
                        lambda step, coef, n_steps: np.full((n_steps + 1, len(coef)), np.nan))
    with pytest.raises(NumericalDriftError, match="spanning all 2 states"):
        _lossy_propagation(lambda v: a @ v, np.array([1.0, 0.0]), 0.1, 4)


@pytest.mark.parametrize("n_steps", [1, 2, 3, 4, 5, 1023, 1024, 1025, 2000])
def test_doubled_step_powers_match_sequential_stepping(n_steps):
    rng = np.random.default_rng(n_steps)
    # a complex step, and the real one the decay takes, keeps its type
    for kind, dtype in (("dissipative", complex), ("real", float)):
        step = _expm(_generator(6, kind, 0.05, rng))
        coef = rng.normal(size=6).astype(dtype)
        if dtype is complex:
            coef += 1j * rng.normal(size=6)
        coef /= np.linalg.norm(coef)
        table = _step_powers(step, coef, n_steps)
        assert table.shape == (n_steps + 1, 6) and table.dtype == dtype
        assert np.max(np.abs(table - step_powers_loop(step, coef, n_steps))) < 1e-13


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_a_non_finite_propagator_fails_the_drift_check():
    space = two_cavity_space()
    psi = StateVector(space, np.array([1.0, 0.0], dtype=complex))
    for bad in (math.nan, math.inf):
        u = np.eye(2, dtype=complex)
        u[0, 0] = bad
        with pytest.raises(NumericalDriftError, match="squared norm is not finite"):
            apply_propagator(u, psi)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_state_vector_refuses_non_finite_amplitudes(bad):
    # a NaN state would otherwise pass every norm check of the decay path
    space = HilbertSpace(NetworkConfig(n_cavities=1, atoms_per_cavity=(2,), max_photons=1), 1)
    with pytest.raises(ValueError, match="finite"):
        StateVector(space, [bad, 0.0, 0.0])


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


@pytest.mark.parametrize("kwargs", [{"dt": math.nan}, {"dt": math.inf}])
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
