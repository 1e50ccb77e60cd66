"""End-to-end checks of the library's headline behaviors.

Each test exercises one contract at its stated tolerance and prints a single
PASS/FAIL line naming the behavior (visible with -rA or on failure; the
pytest -v status line serves the same purpose when output is captured).
"""

import math
import time

import numpy as np

import oracles
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.darkstates import (
    DecayConfig,
    classify_dark,
    emission_density,
    sample_emission_times,
    singlet_product,
    triplet_state,
)
from tchlab.evolution import evolve_const, rabi_periods
from tchlab.gate import (
    GateConfig,
    modular_distance,
    resonance_table,
    run_gate,
    trace_distance,
    uniform_superposition,
)
from tchlab.operators import HopSpec, build_tc, build_tch, jump_operator, photon_number_operator
from tchlab.walk import WalkConfig, ballistic_exponent, momentum_values, simulate_walk


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_exchange_periods_return_and_swap_exactly():
    start = time.perf_counter()
    g, omega = 1e-3, 1.0
    cfg = NetworkConfig(1, (1,), (g,), max_photons=1, omega=omega)
    space = HilbertSpace(cfg, sector=1)
    h = build_tc(space, 0)
    tau1, _ = rabi_periods(g)

    rng = np.random.default_rng(11)
    amps = rng.normal(size=2) + 1j * rng.normal(size=2)
    amps = amps / np.linalg.norm(amps)
    (returned,) = evolve_const(h, amps[None], tau1)
    err_full = float(np.linalg.norm(returned + amps))

    atom = np.zeros(2, dtype=complex)
    atom[oracles.state_index(space)[(0, 1)]] = 1.0
    photon = np.zeros(2, dtype=complex)
    photon[oracles.state_index(space)[(1, 0)]] = 1.0
    (half,) = evolve_const(h, atom[None], tau1 / 2.0)
    err_half = float(np.linalg.norm(half - (-1j) * photon))

    elapsed = time.perf_counter() - start
    _report(
        "full exchange period returns -psi for any superposition",
        err_full < 1e-8,
        f"residual {err_full:.3g}",
    )
    _report(
        "half exchange period maps the excited atom to -i times the photon",
        err_half < 1e-8,
        f"residual {err_half:.3g}",
    )
    _report("exchange-period checks run in under 1 s", elapsed < 1.0, f"{elapsed:.3f} s")


def test_hold_time_resonance_search():
    start = time.perf_counter()
    n1, n2, residual = resonance_table(10, top=1)[0]
    best = [resonance_table(n, top=1)[0][2] for n in (5, 10, 20, 50, 100)]
    elapsed = time.perf_counter() - start
    _report(
        "smallest commensurate hold pair up to 10 is (4, 6)",
        (n1, n2) == (4, 6),
        f"got ({n1}, {n2})",
    )
    _report(
        "its mismatch residual is 0.0147 within 1e-4",
        abs(residual - 0.0147186257614305) < 1e-4,
        f"residual {residual:.17g}",
    )
    _report(
        "best residual never worsens as the search bound grows",
        all(b <= a + 1e-18 for a, b in zip(best, best[1:])),
        " -> ".join(f"{b:.4g}" for b in best),
    )
    _report("resonance search runs in under 1 s", elapsed < 1.0, f"{elapsed:.3f} s")


def test_entangling_gate_hits_contract_error():
    config = GateConfig(n2=64)
    q = uniform_superposition()
    psi = run_gate(q, config)
    target = oracles.ideal_target_state(q, config)
    d_mod = modular_distance(psi, target)
    _report(
        "pulsed conditional-sign gate error stays within 0.2 on the uniform input",
        d_mod <= 0.2,
        f"d_mod {d_mod:.6f}",
    )


def test_distance_reference_points():
    rng = np.random.default_rng(5)
    amps = rng.normal(size=8) + 1j * rng.normal(size=8)
    amps = amps / np.linalg.norm(amps)
    d_tr_same = trace_distance(amps, -amps)
    d_mod_flip = modular_distance(amps, -amps)
    e0 = np.zeros(8, dtype=complex)
    e1 = np.zeros(8, dtype=complex)
    e0[0] = 1.0
    e1[1] = 1.0
    d_tr_orth = trace_distance(e0, e1)
    _report(
        "trace distance ignores a global sign flip",
        d_tr_same < 1e-12,
        f"{d_tr_same:.3g}",
    )
    _report(
        "raw amplitude distance sees the flip at its maximum of 4",
        abs(d_mod_flip - 4.0) < 1e-12,
        f"{d_mod_flip:.17g}",
    )
    _report(
        "orthogonal pure states sit at trace distance 2",
        abs(d_tr_orth - 2.0) < 1e-10,
        f"{d_tr_orth:.17g}",
    )


def test_lattice_walk_contract():
    start = time.perf_counter()
    unitarity = 0.0
    spectrum = 0.0
    for n in (2, 8, 64):
        f = oracles.qft_matrix(n)
        unitarity = max(
            unitarity, float(np.max(np.abs(f @ f.conj().T - np.eye(n))))
        )
        w = np.sort(np.linalg.eigvalsh(oracles.momentum_operator(n)))
        spectrum = max(
            spectrum, float(np.max(np.abs(w - np.sort(momentum_values(n)))))
        )
    result = simulate_walk(WalkConfig(n_cavities=128))
    slope = ballistic_exponent(result.times, result.variances)
    elapsed = time.perf_counter() - start
    _report(
        "discrete Fourier transform is unitary to 1e-10",
        unitarity < 1e-10,
        f"max deviation {unitarity:.3g}",
    )
    _report(
        "momentum operator has the exact band spectrum to 1e-8",
        spectrum < 1e-8,
        f"max deviation {spectrum:.3g}",
    )
    _report(
        "momentum populations are conserved to 1e-10",
        result.momentum_drift < 1e-10,
        f"drift {result.momentum_drift:.3g}",
    )
    _report(
        "spread grows ballistically with exponent 2 within 0.05",
        abs(slope - 2.0) < 0.05,
        f"exponent {slope:.4f}",
    )
    _report("walk checks run in under 30 s", elapsed < 30.0, f"{elapsed:.3f} s")


def test_dark_state_selection_contract():
    start = time.perf_counter()
    cfg = DecayConfig()
    dark = emission_density(singlet_product([(0, 1)]), cfg)
    light = emission_density(triplet_state(), cfg)
    kappa = cfg.resolved_kappa
    analytic = kappa * np.exp(-kappa * dark.times)
    sup = float(np.max(np.abs(dark.density - analytic)))
    gap = (
        dark.mean_emission_time - light.mean_emission_time
    ) / dark.mean_emission_time

    correct = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        samples = sample_emission_times(dark, 10000, rng=rng)
        decision = classify_dark(
            samples,
            dark.mean_emission_time,
            light.mean_emission_time,
            detector_error=0.03,
            rng=rng,
        ).decision
        correct += decision == "dark"
    elapsed = time.perf_counter() - start
    _report(
        "antisymmetric pair emits exactly like an empty cavity (sup < 1e-3)",
        sup < 1e-3,
        f"sup {sup:.3g}",
    )
    _report(
        "mean first-emission times differ by more than 5%, dark later",
        gap > 0.05,
        f"relative gap {gap:.4f}",
    )
    _report(
        "timing classifier is right on at least 99 of 100 seeds",
        correct >= 99,
        f"{correct}/100 correct",
    )
    _report("dark-state checks run in under 2 min", elapsed < 120.0, f"{elapsed:.1f} s")


def test_transfer_window_thresholds():
    t_min = oracles.min_transfer_time(1e9)
    at_threshold = oracles.transfer_window_check(1e9, 1e-6)
    below = oracles.transfer_window_check(1e9, 2e-6)
    _report(
        "minimum transfer time is exactly the inverse detuning reach",
        t_min == 1e-9,
        f"{t_min:.17g}",
    )
    _report(
        "a window ratio of exactly 1e-3 raises the feasibility flag",
        at_threshold.flag and at_threshold.ratio == 1e-3,
        f"ratio {at_threshold.ratio:.17g}",
    )
    _report(
        "a slower gate clears the flag",
        not below.flag,
        f"ratio {below.ratio:.17g}",
    )


def test_builders_match_dense_kronecker_oracle():
    configs = [
        (
            NetworkConfig(2, (1, 1), (1e-3, 2e-3), max_photons=2, omega=1.0),
            [HopSpec(0, 1, amplitude=0.7, phase=0.3)],
        ),
        (
            NetworkConfig(3, (0, 0, 0), (), max_photons=2, omega=0.9),
            [
                HopSpec(0, 1, amplitude=0.5, phase=0.0),
                HopSpec(1, 2, amplitude=0.5, phase=1.1),
                HopSpec(0, 2, amplitude=0.25, phase=-0.4),
            ],
        ),
        (
            NetworkConfig(1, (2,), (1e-3, 1.5e-3), max_photons=2, omega=1.2),
            [],
        ),
    ]
    worst = 0.0
    checked = 0
    for cfg, hops in configs:
        full_h = np.zeros(
            (math.prod(oracles.slot_dims(cfg)),) * 2, dtype=complex
        )
        for cavity in range(cfg.n_cavities):
            full_h = full_h + oracles.full_tc(cfg, cavity)
        for hop in hops:
            full_h = full_h + oracles.full_hop(
                cfg, hop.i, hop.j, hop.amplitude, hop.phase
            )
        sector = 0
        while True:
            try:
                space = HilbertSpace(cfg, sector=sector)
            except ValueError:
                break
            if space.dim > 64:
                break
            pairs = [
                (
                    build_tc(space, 0).matrix,
                    oracles.project_to_sector(oracles.full_tc(cfg, 0), space),
                ),
                (
                    build_tch(space, hops).matrix,
                    oracles.project_to_sector(full_h, space),
                ),
            ]
            for cavity in range(cfg.n_cavities):
                full_n = oracles.full_photon_number(cfg, cavity)
                pairs.append(
                    (
                        photon_number_operator(space, cavity).matrix,
                        oracles.project_to_sector(full_n, space),
                    )
                )
            for hop in hops:
                full_jump = oracles.full_hop(
                    cfg, hop.i, hop.j, hop.amplitude, hop.phase
                )
                pairs.append(
                    (
                        jump_operator(space, hop).matrix,
                        oracles.project_to_sector(full_jump, space),
                    )
                )
            for produced, expected in pairs:
                worst = max(worst, float(np.max(np.abs(produced - expected))))
                checked += 1
            sector += 1
    _report(
        "every operator builder matches the dense tensor-product oracle to 1e-12",
        worst < 1e-12 and checked >= 20,
        f"worst deviation {worst:.3g} over {checked} operators",
    )
