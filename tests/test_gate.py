import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import tchlab.evolution
import tchlab.gate
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.evolution import NumericalDriftError, pulsed_propagators, rabi_periods
from tchlab.gate import (
    AUX_CAVITY,
    BASIS_LABELS,
    MAX_PAIRS,
    MAX_ROWS,
    X_CAVITY,
    Y_CAVITY,
    FreeSegment,
    GateConfig,
    _exchange_links,
    _final_states,
    _xy_swap,
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
    schedule_duration,
    sweep,
    trace_distance,
    uniform_superposition,
)
from tchlab.operators import HopSpec, build_tch, jump_operator

FAST_CONFIG = GateConfig()  # g=1e-3, sigma=0.5, n2 = 6 (n1 = 4)


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

    n1, n2, res = resonance_table(10, top=1)[0]
    assert (n1, n2) == (4, 6)
    assert abs(res - 0.01471862576143046) < 1e-12

    top3 = resonance_table(100, top=3)
    assert [(r[0], r[1]) for r in top3] == [(45, 64), (4, 6), (16, 23)]
    assert abs(top3[0][2] - 0.0096679918780751) < 1e-12
    assert abs(top3[2][2] - 0.026911934581185903) < 1e-12


def test_resonance_table_matches_tuple_sort():
    # the sort key (residual, n2) is unique and the best n1 never exceeds
    # n2, so a smaller table is the largest one filtered to its n2, in the
    # same order
    largest = oracles.resonance_table_loop(200)
    rows = np.empty(len(largest), dtype=object)  # the oracle's tuples, filtered by numpy
    rows[:] = largest
    hold_counter = np.array([n2 for _, n2, _ in largest])
    for n_max in range(1, 201):
        expected = rows[hold_counter <= n_max].tolist()
        assert resonance_table(n_max) == expected, n_max
        for top in (0, 1, 2, 3, 5, 10, 50):
            assert resonance_table(n_max, top) == expected[:top], (n_max, top)


def test_resonance_table_at_benchmark_size():
    rows = resonance_table(1000, 3)
    assert rows == oracles.resonance_table_loop(1000, 3)
    assert rows[0][:2] == (144, 204)


def test_resonance_rows_are_the_gate_pairings():
    # one row per n2, each with the n1 a gate at that n2 runs with
    pairing = {n2: GateConfig(n2=n2).n1 for n2 in range(1, 201)}
    for n_max in range(1, 201):
        for top in (None, 1, 3, n_max):
            rows = resonance_table(n_max, top)
            assert len({n2 for _, n2, _ in rows}) == len(rows), (n_max, top)
            assert all(n1 == pairing[n2] for n1, n2, _ in rows), (n_max, top)
    assert [row[:2] for row in resonance_table(100, 100) if row[1] == 35] == [(24, 35)]


def test_resonance_improves_with_larger_search():
    best = [resonance_table(n_max, top=1)[0][2] for n_max in (5, 10, 20, 50, 100)]
    assert all(b1 >= b2 for b1, b2 in zip(best, best[1:]))


def test_resonance_validation():
    with pytest.raises(ValueError):
        resonance_table(0)
    with pytest.raises(ValueError):
        resonance_table(5, top=-1)
    assert resonance_table(5, top=0) == []
    # counters are integers; numpy integers pass
    for n_max, top in ((10.5, None), (10.0, None), (10, 2.0), (10, 2.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            resonance_table(n_max, top)
    assert resonance_table(np.int64(10), np.int64(2)) == resonance_table(10, 2)


def test_resonance_row_budget_counts_the_rows_listed():
    # min(top, n_max) rows, with top=None counting n_max, refused before
    # anything is allocated
    for n_max, top in ((MAX_ROWS + 1, None), (MAX_ROWS + 1, MAX_ROWS + 1), (MAX_PAIRS, 10**12)):
        with pytest.raises(ValueError, match=f"rows, more than the limit of {MAX_ROWS}"):
            resonance_table(n_max, top)
    assert len(resonance_table(MAX_ROWS + 1, 1)) == 1
    assert len(resonance_table(10**3, MAX_ROWS + 1)) == 10**3


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
    with pytest.raises(ValueError, match="window"):
        GateConfig(g=1.0, sigma=0.5)  # 12 sigma > tau1/2


def test_gate_config_validation():
    with pytest.raises(ValueError):
        GateConfig(g=0.0)
    with pytest.raises(ValueError):
        GateConfig(n2=0)
    with pytest.raises(ValueError):
        GateConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="window"):
        GateConfig(g=1e-2, sigma=40.0)
    for fields, refusal in (
        ({"g": 1.0, "n2": 204}, "window"),  # no window fits into the gaps of tau1/2
        ({"sigma": 1e-100}, "exceeds the limit"),  # an area-rule amplitude above MAX_ALPHA
        ({"sigma": 1.7976931348623157e308}, "amplitude at 0"),
    ):
        with pytest.raises(ValueError, match=refusal):
            GateConfig(**fields)
    for n2 in (6.5, 6.0, "6"):
        with pytest.raises(ValueError, match="resonance counter n2 must be an integer"):
            GateConfig(n2=n2)
    assert GateConfig(n2=np.int64(6)).n1 == FAST_CONFIG.n1


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

def test_schedule_duration_is_the_free_stretches_and_four_windows():
    schedule = cocsign_schedule(FAST_CONFIG)
    free = sum(ev.duration for ev in schedule if isinstance(ev, FreeSegment))
    windows = [ev.duration for ev in schedule if not isinstance(ev, FreeSegment)]
    assert windows == [FAST_CONFIG.window] * 4
    assert abs(schedule_duration(FAST_CONFIG) - (free + 4.0 * FAST_CONFIG.window)) < 1e-9


def test_instant_swap_branches_carry_conditional_sign():
    cfg = FAST_CONFIG  # the oracle reads g, n2 and omega, not the pulse
    signs = {"00": 1.0, "01": -1.0, "10": 1.0, "11": 1.0}
    for label in BASIS_LABELS:
        psi, phase = oracles.instant_swap_gate(basis_vector(label), cfg)
        assert abs(abs(phase) - 1.0) < 1e-12
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
        psi, phase = oracles.instant_swap_gate(basis_vector(label), cfg)
        overlap = complex(decode(psi)[BASIS_LABELS.index(label)])
        rel = overlap / abs(overlap) / phase
        assert abs(rel - signs[label]) < 1e-9


def test_instant_swap_error_tracks_resonance_residual():
    q = uniform_superposition()
    errors = []
    for n1, n2, _ in resonance_table(100, top=3):
        cfg = GateConfig(n2=n2)
        assert cfg.n1 == n1
        psi, phase = oracles.instant_swap_gate(q, cfg)
        a, b = psi.amplitudes, encode(ideal_cocsign(q), psi.space).amplitudes * phase
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
    target = oracles.ideal_target_state(q, cfg)
    assert modular_distance(psi, target) < 0.01
    assert trace_distance(psi, target) < 0.15


def test_pulsed_branch_phases():
    cfg = FAST_CONFIG
    signs = {"00": 1.0, "01": -1.0, "10": 1.0, "11": 1.0}
    for label in BASIS_LABELS:
        psi = run_gate(basis_vector(label), cfg)
        rel = branch_phase(psi, label, cfg)
        assert abs(rel - signs[label]) < 5e-2


@pytest.mark.parametrize("change", [{}, {"dt": 0.0099}, {"alpha": 3.0 * FAST_CONFIG.resolved_alpha}],
                         ids=["default", "odd-steps", "strong"])
def test_basis_branch_phases_equal_four_separate_runs(change, monkeypatch):
    # one register, one H0 and one link build give the same bits as four
    # runs, with no amplitude swept or beside the sweep's own runs
    monkeypatch.setattr(tchlab.evolution, "NORM_TOLERANCE", 1.0)
    cfg = dataclasses.replace(FAST_CONFIG, **change)
    rows, phases = sweep(cfg, [])
    assert rows == []
    assert list(phases) == list(BASIS_LABELS)
    for label in BASIS_LABELS:
        expected = branch_phase(run_gate(basis_vector(label), cfg), label, cfg)
        assert phases[label] == expected and type(phases[label]) is type(expected)
    a0 = cfg.resolved_alpha
    for q in (None, basis_vector("01")):
        assert sweep(cfg, [0.5 * a0, a0, 3.0 * a0], q)[1] == phases


@pytest.mark.parametrize("change", [{}, {"dt": 0.0099}], ids=["default", "odd-steps"])
def test_the_stacked_runner_equals_the_per_state_loop(change, monkeypatch):
    # three amplitudes, each carrying the four basis inputs and the uniform
    # one, in one stack; each state on its own through evolve_const and
    # apply_propagator, with its amplitude's link built alone
    monkeypatch.setattr(tchlab.evolution, "NORM_TOLERANCE", 1.0)
    cfg = dataclasses.replace(FAST_CONFIG, **change)
    a0 = cfg.resolved_alpha
    inputs = [basis_vector(label) for label in BASIS_LABELS] + [uniform_superposition()]
    alphas = (0.5 * a0, None, 3.0 * a0)
    space, states = _final_states(cfg, [(alpha, inputs) for alpha in alphas])
    h0 = build_tch(space)
    for alpha, stack in zip(alphas, states):
        run = dataclasses.replace(cfg, alpha=alpha)
        x, y = _exchange_links(cfg, space, h0, run.resolved_dt, (run.resolved_alpha,))
        assert stack.shape == (len(inputs), space.dim)
        for q, psi in zip(inputs, stack):
            loop = oracles.run_schedule_loop(encode(q, space), h0, cfg, (x[0], y[0]))
            assert np.array_equal(psi, loop.amplitudes)


@pytest.mark.parametrize("alpha, refusal", [
    (-1.0, "non-negative and finite"),
    (math.inf, "non-negative and finite"),
    (math.nan, "non-negative and finite"),
    (2.0 * tchlab.gate.MAX_ALPHA, "exceeds the limit"),
])
def test_sweep_refuses_an_amplitude_as_the_config_does_before_any_integration(
        monkeypatch, alpha, refusal):
    def integrated(*args):
        raise AssertionError("the link was integrated")

    monkeypatch.setattr(tchlab.gate, "pulsed_propagators", integrated)
    with pytest.raises(ValueError, match=refusal):
        GateConfig(alpha=alpha)
    with pytest.raises(ValueError, match=refusal):
        sweep(FAST_CONFIG, [FAST_CONFIG.resolved_alpha, alpha])


def test_sweep_builds_no_config_per_amplitude(monkeypatch):
    # each run's step and amplitude are resolved from the one config
    built = []
    post_init = GateConfig.__post_init__
    monkeypatch.setattr(GateConfig, "__post_init__", lambda self: built.append(self) or post_init(self))
    a0 = FAST_CONFIG.resolved_alpha
    rows, _ = sweep(FAST_CONFIG, [0.5 * a0, 3.0 * a0])
    assert built == [] and len(rows) == 2


def test_pulse_area_controls_the_gate():
    cfg = FAST_CONFIG
    q = uniform_superposition()
    a0 = cfg.resolved_alpha
    errors = {}
    for scale in (0.0, 1.0, 2.0, 3.0):
        c = dataclasses.replace(cfg, alpha=scale * a0)
        psi = run_gate(q, c)
        errors[scale] = modular_distance(psi, oracles.ideal_target_state(q, c))
    assert errors[1.0] < 0.01  # complete swaps
    assert errors[0.0] > 1.0  # no swaps at all
    assert errors[2.0] > 1.0  # full cycles put photons back with a stray sign
    assert errors[3.0] < 0.01  # three quarter-cycles swap again


def test_gate_integrator_drift_guard():
    cfg = dataclasses.replace(FAST_CONFIG, dt=1.0)
    with pytest.raises(NumericalDriftError):
        run_gate(uniform_superposition(), cfg)


def _per_state_gate(inputs, config):
    """The gate schedule with every exchange integrated on the carried states
    themselves, the columns of one array stepped together; returns the final
    states as columns and each one's largest per-exchange drift."""
    space = gate_space(config)
    h0 = build_tch(space)
    w, v = h0.eigensystem()
    psi = np.stack([encode(q, space).amplitudes for q in inputs], axis=1)
    drift = np.zeros(len(inputs))
    for ev in cocsign_schedule(config):
        if isinstance(ev, FreeSegment):  # exactly, as evolve_const does
            psi = v @ (np.exp(-1j * w * ev.duration)[:, None] * (v.conj().T @ psi))
            continue
        jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
        psi, d = oracles.rk4_pulsed_state(
            h0, [(jump, ev.pulse)], psi, 0.0, ev.duration, config.resolved_dt
        )
        drift = np.maximum(drift, d)
    return psi, drift


def _reference_inputs():
    rng = np.random.default_rng(11)
    random = rng.normal(size=4) + 1j * rng.normal(size=4)
    inputs = {label: basis_vector(label) for label in BASIS_LABELS}
    inputs["uniform"] = uniform_superposition()
    inputs["random"] = random / np.linalg.norm(random)
    return inputs


@pytest.mark.parametrize("scale", [0.0, 0.5, 1.0, 1.5, 3.0])
def test_gate_matches_per_state_integration(scale, monkeypatch):
    cfg = dataclasses.replace(FAST_CONFIG, alpha=scale * FAST_CONFIG.resolved_alpha)
    inputs = list(_reference_inputs().values())
    references, drifts = _per_state_gate(inputs, cfg)
    for q, ref, drift in zip(inputs, references.T, drifts):
        with monkeypatch.context() as unguarded:
            unguarded.setattr(tchlab.evolution, "NORM_TOLERANCE", 1.0)
            psi = run_gate(q, cfg)
        assert np.max(np.abs(psi.amplitudes - ref)) < 1e-12
        # the guard trips exactly where the per-state drift exceeds it
        if drift > tchlab.evolution.NORM_TOLERANCE:
            with pytest.raises(NumericalDriftError):
                run_gate(q, cfg)
        else:
            assert np.array_equal(run_gate(q, cfg).amplitudes, psi.amplitudes)


def test_runs_share_links_whatever_the_fields_the_links_do_not_read():
    # the links read g, sigma, omega, the step and the amplitudes; the hold
    # counter and the config's own alpha leave the rows whose schedule they
    # do not change as they are
    a0 = FAST_CONFIG.resolved_alpha
    alphas = (0.5 * a0, a0)
    reference, _ = sweep(FAST_CONFIG, alphas)
    for change in ({"n2": 7}, {"alpha": 0.5 * a0}):
        rows, _ = sweep(dataclasses.replace(FAST_CONFIG, **change), alphas)
        if "n2" not in change:
            assert rows == reference


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
    space = gate_space(cfg)
    h0 = build_tch(space)
    u = _exchange_links(cfg, space, h0, cfg.resolved_dt, (cfg.alpha,))[0][0]  # the aux<->x link
    u_fine = _exchange_links(cfg, space, h0, cfg.resolved_dt / 4.0, (cfg.alpha,))[0][0]
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
    h0 = build_tch(space)
    direct = pulsed_propagators(
        h0, [(jump, ev.pulse)], 0.0, ev.duration, cfg.resolved_dt, (1.0,)
    )[0]
    stacks = _exchange_links(cfg, space, h0, cfg.resolved_dt, (cfg.alpha,))
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
    rows, _ = sweep(cfg, alphas)
    assert sweep(cfg, alphas)[0] == rows
    assert [r[0] for r in rows] == alphas
    best = min(rows, key=lambda r: r[5])
    assert best[0] == a0
    # a one-amplitude sweep equals run_gate against the reference target,
    # bit for bit
    q = uniform_superposition()
    for alpha in alphas:
        c = dataclasses.replace(cfg, alpha=alpha)
        psi, target = run_gate(q, c), oracles.ideal_target_state(q, c)
        distances = (trace_distance(psi, target), modular_distance(psi, target))
        assert sweep(cfg, [alpha], q=q)[0][0][4:] == distances


def test_sweep_rows_do_not_depend_on_their_companions():
    # every link slice u[k] is applied with one memory layout, so a row is
    # the same bits whichever other amplitudes share its build
    cfg = FAST_CONFIG
    a = cfg.resolved_alpha
    alone = sweep(cfg, [a])[0][0]
    for alphas in (
        [0.9 * a, a],
        [0.5 * a, 0.9 * a, a, 1.1 * a, 1.5 * a],
        [0.25 * a, 0.5 * a, 0.75 * a, a, 1.25 * a, 1.5 * a, 2.0 * a],
    ):
        assert sweep(cfg, alphas)[0][alphas.index(a)] == alone
    assert sweep(cfg, [0.9 * a, a, 1.1 * a])[0][0] == sweep(cfg, [0.9 * a])[0][0]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distances_on_known_pairs():
    rng = np.random.default_rng(5)
    psi = rng.normal(size=6) + 1j * rng.normal(size=6)
    psi /= np.linalg.norm(psi)
    # global sign and phase: invisible to trace distance, seen by the raw metric
    assert trace_distance(psi, -psi) < 1e-12
    assert trace_distance(psi, np.exp(0.7j) * psi) < 1e-12
    assert abs(modular_distance(psi, -psi) - 4.0) < 1e-12
    # orthogonal pure states sit at the maximal trace distance
    e0 = np.zeros(6, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(6, dtype=complex)
    e1[1] = 1.0
    assert abs(trace_distance(e0, e1) - 2.0) < 1e-10
    # states as StateVectors or arrays, of one dimension
    space = gate_space(FAST_CONFIG)
    q = uniform_superposition()
    assert trace_distance(encode(q, space), encode(q, space).amplitudes) == 0.0
    assert trace_distance(np.zeros(6), np.zeros(6)) == 0.0
    with pytest.raises(ValueError):
        modular_distance(e0, np.zeros(5, dtype=complex))
    with pytest.raises(ValueError):
        trace_distance(e0, np.zeros(5, dtype=complex))


def test_trace_distance_matches_the_density_matrix_route():
    rng = np.random.default_rng(17)

    def state(n, scale=1.0):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        return scale * v / np.linalg.norm(v)

    # random unit pairs, pairs of unequal norms, near-identical pairs,
    # global phases and zero vectors
    pairs = [(state(18), state(18)) for _ in range(20)]
    pairs += [(state(18, rng.uniform(0.1, 2.0)), state(18, rng.uniform(0.1, 2.0)))
              for _ in range(20)]
    for _ in range(10):
        psi = state(18)
        pairs.append((psi, psi + 1e-9 * state(18)))
        pairs.append((psi, np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)) * psi))
    pairs += [(state(6), np.zeros(6)), (np.zeros(6), state(6, 0.5)), (np.zeros(4), np.zeros(4))]
    for psi, psi_id in pairs:
        reference = oracles.density_trace_distance(psi, psi_id)
        assert abs(trace_distance(psi, psi_id) - reference) < 1e-12
        assert abs(trace_distance(psi_id, psi) - reference) < 1e-12
    # each sweep row's d_tr against the density matrices of its own states
    a = FAST_CONFIG.resolved_alpha
    q = uniform_superposition()
    rows, _ = sweep(FAST_CONFIG, [0.9 * a, a, 1.1 * a], q=q)
    for alpha, _, _, _, d_tr, _ in rows:
        config = dataclasses.replace(FAST_CONFIG, alpha=alpha)
        reference = oracles.density_trace_distance(run_gate(q, config),
                                                   oracles.ideal_target_state(q, config))
        assert abs(d_tr - reference) <= 1e-13 * reference


# ---------------------------------------------------------------------------
# transfer bound
# ---------------------------------------------------------------------------

def test_transfer_window():
    # the time-energy bound is a reference in the oracles, checked against
    # the paper in test_acceptance
    assert oracles.min_transfer_time(1e9) == 1e-9
    with pytest.raises(ValueError):
        oracles.min_transfer_time(0.0)
    tw = oracles.transfer_window_check(1e9, 1e-6)
    assert tw.delta_tau == 1e-9
    assert tw.ratio == 1e-3
    assert tw.flag  # boundary counts as significant
    assert not oracles.transfer_window_check(1e9, 2e-6).flag
    with pytest.raises(ValueError):
        oracles.transfer_window_check(1e9, 0.0)
