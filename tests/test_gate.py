import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from tchlab import (
    GateConfig,
    HilbertSpace,
    HopSpec,
    NetworkConfig,
    NumericalDriftError,
    StateVector,
    build_tch,
    cocsign_matrix,
    cocsign_schedule,
    decode,
    density,
    encode,
    evolve_const,
    find_resonance,
    gate_space,
    ideal_cocsign,
    ideal_target_state,
    jump_operator,
    min_transfer_time,
    modular_distance,
    rabi_periods,
    resonance_table,
    run_gate,
    schedule_phase,
    sweep,
    trace_distance,
    transfer_window_check,
    uniform_superposition,
)
from tchlab.evolution import pulsed_propagators
from tchlab.gate import (
    AUX_CAVITY,
    BASIS_LABELS,
    X_CAVITY,
    Y_CAVITY,
    FreeSegment,
    _exchange_links,
    _xy_swap,
    branch_phase,
)

FAST_CONFIG = GateConfig()  # g=1e-3, sigma=0.5, (4, 6)


def basis_vector(label):
    q = np.zeros(4, dtype=complex)
    q[BASIS_LABELS.index(label)] = 1.0
    return q


# ---------------------------------------------------------------------------
# ideal matrices
# ---------------------------------------------------------------------------

def test_conditional_sign_conventions():
    assert np.array_equal(np.diag(cocsign_matrix()), [1, -1, 1, 1])
    m = cocsign_matrix()
    assert np.array_equal(m @ m, np.eye(4))


def test_ideal_application_and_input_checks():
    q = uniform_superposition()
    out = ideal_cocsign(q)
    assert np.allclose(out, np.array([1, -1, 1, 1]) / 2.0)
    with pytest.raises(ValueError):
        ideal_cocsign(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        ideal_cocsign(np.array([1.0, 1.0, 0.0, 0.0]))  # not normalized
    with pytest.raises(ValueError, match="normalized"):
        ideal_cocsign(np.array([np.nan, 0.0, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# resonance pairs
# ---------------------------------------------------------------------------

def test_resonance_examples():
    rows = resonance_table(1)
    assert rows[0][:2] == (1, 1)
    assert abs(rows[0][2] - abs(2.0 / math.sqrt(2.0) - 2.5)) < 1e-12

    n1, n2, res = find_resonance(1e-3, 10)
    assert (n1, n2) == (4, 6)
    assert abs(res - 0.01471862576143046) < 1e-12

    top3 = resonance_table(100, top=3)
    assert [(r[0], r[1]) for r in top3] == [(45, 64), (4, 6), (16, 23)]
    assert abs(top3[0][2] - 0.0096679918780751) < 1e-12
    assert abs(top3[2][2] - 0.026911934581185903) < 1e-12


def test_resonance_table_matches_tuple_sort():
    # the sort key (residual, n2, n1) is unique, so a smaller table is the
    # largest one filtered to its pairs, in the same order
    largest = oracles.resonance_table_loop(200)
    for n_max in range(1, 201):
        expected = [row for row in largest if row[0] <= n_max and row[1] <= n_max]
        assert resonance_table(n_max) == expected, n_max
        for top in (0, 1, 2, 3, 5, 10, 50):
            assert resonance_table(n_max, top) == expected[:top], (n_max, top)


def test_resonance_table_at_benchmark_size():
    rows = resonance_table(1000, 3)
    assert rows == oracles.resonance_table_loop(1000, 3)
    assert rows[0][:2] == (144, 204)


def test_resonance_improves_with_larger_search():
    best = [find_resonance(1e-3, n_max)[2] for n_max in (5, 10, 20, 50, 100)]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


def test_resonance_validation():
    with pytest.raises(ValueError):
        resonance_table(0)
    with pytest.raises(ValueError):
        resonance_table(5, top=-1)
    assert resonance_table(5, top=0) == []
    with pytest.raises(ValueError):
        find_resonance(0.0, 10)


@pytest.mark.parametrize("g", [math.nan, math.inf])
def test_find_resonance_refuses_a_non_finite_coupling(g):
    with pytest.raises(ValueError, match="positive and finite"):
        find_resonance(g, 10)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def test_schedule_layout_and_duration():
    cfg = FAST_CONFIG
    tau1, tau2 = rabi_periods(cfg.g)
    schedule = cocsign_schedule(cfg)
    assert len(schedule) == 8
    window = 12.0 * cfg.sigma
    expected = 4.0 * window + 3.0 * (tau1 / 2.0) + 2.0 * cfg.n2 * tau2
    assert abs(sum(ev.duration for ev in schedule) - expected) < 1e-9


def test_schedule_rejects_oversized_window():
    with pytest.warns(UserWarning):
        cfg = GateConfig(g=1.0, sigma=0.5)  # 12 sigma > tau1/2
    with pytest.raises(ValueError):
        cocsign_schedule(cfg)


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(g=0.0)
    with pytest.raises(ValueError):
        GateConfig(n1=0)
    with pytest.raises(ValueError):
        GateConfig(alpha=-1.0)
    with pytest.warns(UserWarning):
        GateConfig(g=1e-2, sigma=40.0)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
def test_gate_config_refuses_a_drift_tolerance_not_positive_and_finite(tolerance):
    # NaN compares false, so it would switch the drift guard off silently
    with pytest.raises(ValueError, match="norm_tolerance must be positive and finite"):
        GateConfig(norm_tolerance=tolerance)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_decode_roundtrip():
    space = gate_space(FAST_CONFIG)
    assert space.dim == 18
    rng = np.random.default_rng(11)
    q = rng.normal(size=4) + 1j * rng.normal(size=4)
    q /= np.linalg.norm(q)
    psi = encode(q, space)
    assert abs(psi.norm() - 1.0) < 1e-12
    assert np.max(np.abs(decode(psi) - q)) < 1e-12


# ---------------------------------------------------------------------------
# running the gate
# ---------------------------------------------------------------------------

def test_instant_swap_branches_carry_conditional_sign():
    cfg = FAST_CONFIG
    phase = schedule_phase(cfg, instant_swaps=True)
    assert abs(abs(phase) - 1.0) < 1e-12
    signs = {"00": 1.0, "01": -1.0, "10": 1.0, "11": 1.0}
    for label in BASIS_LABELS:
        psi = run_gate(basis_vector(label), cfg, instant_swaps=True)
        out = decode(psi)
        k = BASIS_LABELS.index(label)
        # all weight stays on the input branch
        others = np.delete(out, k)
        assert np.max(np.abs(others)) < 1e-12
        rel = out[k] / phase
        assert abs(rel - signs[label]) < 0.2  # timing mismatch only
        # timing mismatch leaks a little weight to non-encoded sector states
        assert abs(out[k]) > 0.99


def test_instant_swap_branch_phases_are_exact_signs():
    cfg = FAST_CONFIG
    signs = {"00": 1.0, "01": -1.0, "10": 1.0, "11": 1.0}
    for label in BASIS_LABELS:
        psi = run_gate(basis_vector(label), cfg, instant_swaps=True)
        rel = branch_phase(psi, label, cfg, instant_swaps=True)
        assert abs(rel - signs[label]) < 1e-9


def test_instant_swap_error_tracks_resonance_residual():
    q = uniform_superposition()
    errors = []
    for n1, n2, _ in resonance_table(100, top=3):
        cfg = dataclasses.replace(FAST_CONFIG, n1=n1, n2=n2)
        psi = run_gate(q, cfg, instant_swaps=True)
        target = ideal_target_state(q, cfg, instant_swaps=True)
        a, b = psi.amplitudes, target.amplitudes
        # squared distance minimized over a global phase
        errors.append(float(np.vdot(a, a).real + np.vdot(b, b).real - 2.0 * abs(np.vdot(b, a))))
    # residual order is (45,64) < (4,6) < (16,23); errors must follow
    assert errors[0] < errors[1] < errors[2]
    assert errors[2] < 0.05


def test_pulsed_gate_on_uniform_input():
    cfg = FAST_CONFIG
    q = uniform_superposition()
    psi = run_gate(q, cfg)
    assert abs(psi.norm() - 1.0) < 1e-7
    target = ideal_target_state(q, cfg)
    assert modular_distance(psi, target) < 0.01
    assert trace_distance(density(psi), density(target)) < 0.15


def test_pulsed_branch_phases():
    cfg = FAST_CONFIG
    signs = {"00": 1.0, "01": -1.0, "10": 1.0, "11": 1.0}
    for label in BASIS_LABELS:
        psi = run_gate(basis_vector(label), cfg)
        rel = branch_phase(psi, label, cfg)
        assert abs(rel - signs[label]) < 5e-2


def test_pulse_area_controls_the_gate():
    cfg = FAST_CONFIG
    q = uniform_superposition()
    a0 = cfg.resolved_alpha
    errors = {}
    for scale in (0.0, 1.0, 2.0, 3.0):
        c = dataclasses.replace(cfg, alpha=scale * a0)
        psi = run_gate(q, c)
        errors[scale] = modular_distance(psi, ideal_target_state(q, c))
    assert errors[1.0] < 0.01  # complete swaps
    assert errors[0.0] > 1.0  # no swaps at all
    assert errors[2.0] > 1.0  # full cycles put photons back with a stray sign
    assert errors[3.0] < 0.01  # three quarter-cycles swap again


def test_gate_integrator_drift_guard():
    cfg = dataclasses.replace(FAST_CONFIG, dt=1.0)
    with pytest.raises(NumericalDriftError):
        run_gate(uniform_superposition(), cfg)


def _per_state_gate(q, config):
    """The gate schedule with every exchange integrated on the carried state
    itself; returns the final state and the largest per-exchange drift."""
    space = gate_space(config)
    h0 = build_tch(space)
    psi = encode(q, space)
    drift = 0.0
    for ev in cocsign_schedule(config):
        if isinstance(ev, FreeSegment):
            psi = evolve_const(h0, psi, ev.duration)
            continue
        jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
        amps, d = oracles.rk4_pulsed_state(
            h0, [(jump, ev.pulse)], psi.amplitudes, 0.0, ev.duration, config.resolved_dt
        )
        psi = StateVector(space, amps)
        drift = max(drift, d)
    return psi, drift


def _reference_inputs():
    rng = np.random.default_rng(11)
    random = rng.normal(size=4) + 1j * rng.normal(size=4)
    inputs = {label: basis_vector(label) for label in BASIS_LABELS}
    inputs["uniform"] = uniform_superposition()
    inputs["random"] = random / np.linalg.norm(random)
    return inputs


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_gate_matches_per_state_integration(scale):
    cfg = dataclasses.replace(FAST_CONFIG, alpha=scale * FAST_CONFIG.resolved_alpha)
    unguarded = dataclasses.replace(cfg, norm_tolerance=1.0)
    for q in _reference_inputs().values():
        ref, drift = _per_state_gate(q, cfg)
        psi = run_gate(q, unguarded)
        assert np.max(np.abs(psi.amplitudes - ref.amplitudes)) < 1e-12
        # the guard trips exactly where the per-state drift exceeds it
        if drift > cfg.norm_tolerance:
            with pytest.raises(NumericalDriftError):
                run_gate(q, cfg)
        else:
            assert np.array_equal(run_gate(q, cfg).amplitudes, psi.amplitudes)


def test_drift_guard_watches_the_carried_state():
    # some propagator columns drift past 1e-8 at these amplitudes, but the
    # uniform input does not carry them
    a0 = FAST_CONFIG.resolved_alpha
    for scale in (1.5, 3.0):
        run_gate(uniform_superposition(), dataclasses.replace(FAST_CONFIG, alpha=scale * a0))
    # |00> does carry a drifting component at three quarter-cycles when the
    # step is not shrunk for the strong pulse
    coarse = dataclasses.replace(FAST_CONFIG, alpha=3.0 * a0, dt=FAST_CONFIG.sigma / 50.0)
    with pytest.raises(NumericalDriftError):
        run_gate(basis_vector("00"), coarse)


@settings(max_examples=8, deadline=None)
@given(st.floats(0.25, 6.0), st.floats(0.2, 1.0))
@example(1.0, FAST_CONFIG.sigma)
def test_exchange_propagator_is_unitary_within_its_step_error(scale, sigma):
    # RK4 is not unitary: for U = V + E with V unitary, |U^H U - 1| <= 2|E| + |E|^2,
    # and |E| is about |U - U_fine| with a quarter step (4th order: E_fine ~ E / 256).
    # Measured |U^H U - 1|_2: 9.5e-9 at the default gate and at most 5.8e-7 over
    # this range (sigma = 1 at twice the area rule), 5-10% of the step bound.
    area_rule = dataclasses.replace(FAST_CONFIG, sigma=sigma).resolved_alpha
    cfg = dataclasses.replace(FAST_CONFIG, sigma=sigma, alpha=scale * area_rule)
    u = _exchange_links(cfg, cfg.resolved_dt, (cfg.alpha,))[0][0]  # the aux<->x link
    u_fine = _exchange_links(cfg, cfg.resolved_dt / 4.0, (cfg.alpha,))[0][0]
    defect = np.linalg.norm(u.conj().T @ u - np.eye(len(u)), 2)
    assert defect <= 2.02 * np.linalg.norm(u - u_fine, 2) + 1e-13
    assert defect <= (1.5e-8 if (scale, sigma) == (1.0, FAST_CONFIG.sigma) else 1e-6)


@pytest.mark.parametrize("scale", [0.5, 1.0, 3.0])
def test_mirrored_y_link_matches_direct_integration(scale):
    cfg = dataclasses.replace(FAST_CONFIG, alpha=scale * FAST_CONFIG.resolved_alpha)
    ev = cocsign_schedule(cfg)[2]
    assert (ev.cavity_a, ev.cavity_b) == (AUX_CAVITY, Y_CAVITY)
    space = gate_space(cfg)
    jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
    direct = pulsed_propagators(
        build_tch(space), [(jump, ev.pulse)], 0.0, ev.duration, cfg.resolved_dt, (1.0,)
    )[0]
    stacks = _exchange_links(cfg, cfg.resolved_dt, (cfg.alpha,))
    assert not any(u.flags.writeable for u in stacks)  # shared by every run through the cache
    assert np.max(np.abs(stacks[1][0] - direct)) < 1e-13


def test_register_operators_equal_the_entrywise_loops():
    space = gate_space(FAST_CONFIG)
    assert np.array_equal(build_tch(space).matrix, oracles.build_tch_loop(space))
    for a, b in [(AUX_CAVITY, X_CAVITY), (AUX_CAVITY, Y_CAVITY), (X_CAVITY, Y_CAVITY)]:
        hop = HopSpec(a, b, amplitude=1.0)
        assert np.array_equal(jump_operator(space, hop).matrix, oracles.jump_operator_loop(space, hop))
    assert np.array_equal(_xy_swap(space), oracles.xy_swap_loop(space, X_CAVITY, Y_CAVITY))
    for label in BASIS_LABELS:
        x, y = int(label[0]), int(label[1])
        q = basis_vector(label)
        index = oracles.state_index(space)[(x, y, 0, 1 - x, 1 - y, 0)]
        assert encode(q, space).amplitudes[index] == 1.0
        assert np.array_equal(decode(encode(q, space)), q)


@pytest.mark.parametrize("atoms", [(1, 1, 0), (2, 2, 1), (0, 0, 2)])
def test_swap_permutation_equals_the_loop_on_wider_registers(atoms):
    network = NetworkConfig(n_cavities=3, atoms_per_cavity=atoms, max_photons=2)
    for sector in range(network.max_sector + 1):
        space = HilbertSpace(network, sector)
        assert np.array_equal(_xy_swap(space), oracles.xy_swap_loop(space, X_CAVITY, Y_CAVITY))


def test_encoding_refuses_a_foreign_space():
    space = HilbertSpace(NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1)), sector=1)
    with pytest.raises(ValueError, match="two-excitation sector"):
        encode(basis_vector("00"), space)


@pytest.mark.parametrize(
    "atoms, couplings",
    [((1, 1, 1), (1e-3, 2e-3, 1e-3)), ((1, 2, 1), (1e-3, 1e-3, 1e-3, 1e-3))],
    ids=["unequal coupling", "unequal atom count"],
)
def test_mirror_refuses_an_asymmetric_network(atoms, couplings):
    network = NetworkConfig(n_cavities=3, atoms_per_cavity=atoms, couplings=couplings)
    with pytest.raises(ValueError, match="equal atoms and couplings"):
        _xy_swap(HilbertSpace(network, sector=2))


def test_sweep_grid_and_thread_determinism():
    cfg = FAST_CONFIG
    a0 = cfg.resolved_alpha
    alphas = [0.9 * a0, a0, 1.1 * a0]
    rows = sweep(cfg, alphas)
    assert sweep(cfg, alphas) == rows
    assert [r[0] for r in rows] == alphas
    best = min(rows, key=lambda r: r[5])
    assert best[0] == a0
    # a one-amplitude sweep equals run_gate against ideal_target_state, bit
    # for bit
    q = uniform_superposition()
    for alpha in alphas:
        c = dataclasses.replace(cfg, alpha=alpha)
        psi, target = run_gate(q, c), ideal_target_state(q, c)
        distances = (trace_distance(density(psi), density(target)), modular_distance(psi, target))
        assert sweep(cfg, [alpha], q=q)[0][4:] == distances


def test_sweep_rows_do_not_depend_on_their_companions():
    # every link slice u[k] is applied with one memory layout, so a row is
    # the same bits whichever other amplitudes share its build
    cfg = FAST_CONFIG
    a = cfg.resolved_alpha
    alone = sweep(cfg, [a])[0]
    for alphas in (
        [0.9 * a, a],
        [0.5 * a, 0.9 * a, a, 1.1 * a, 1.5 * a],
        [0.25 * a, 0.5 * a, 0.75 * a, a, 1.25 * a, 1.5 * a, 2.0 * a],
    ):
        assert sweep(cfg, alphas)[alphas.index(a)] == alone
    assert sweep(cfg, [0.9 * a, a, 1.1 * a])[0] == sweep(cfg, [0.9 * a])[0]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distances_on_known_pairs():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    # global sign: invisible to trace distance, maximal for the raw metric
    assert trace_distance(density(psi), density(-psi)) < 1e-12
    assert abs(modular_distance(psi, -psi) - 4.0) < 1e-12
    # orthogonal pure states sit at the maximal trace distance
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(6, dtype=complex)
    e1[1] = 1.0
    assert abs(trace_distance(density(e0), density(e1)) - 2.0) < 1e-10
    with pytest.raises(ValueError):
        modular_distance(e0, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        trace_distance(np.eye(3), np.eye(4))


# ---------------------------------------------------------------------------
# transfer bound
# ---------------------------------------------------------------------------

def test_transfer_window():
    assert min_transfer_time(1e9) == 1e-9
    with pytest.raises(ValueError):
        min_transfer_time(0.0)
    tw = transfer_window_check(1e9, 1e-6)
    assert tw.delta_tau == 1e-9
    assert tw.ratio == 1e-3
    assert tw.flag  # boundary counts as significant
    assert not transfer_window_check(1e9, 2e-6).flag
    with pytest.raises(ValueError):
        transfer_window_check(1e9, 0.0)
