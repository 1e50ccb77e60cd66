import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import collective_lowering_loop, dense_emission_survival

from tchlab import (
    DecayConfig,
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


def test_singlet_has_zero_absorption():
    report = is_dark(singlet_state(), (1e-3, 1e-3))
    assert report.is_dark
    assert report.absorption_residual < 1e-12


def test_triplet_absorbs_at_collective_rate():
    g = 1e-3
    report = is_dark(triplet_state(), (g, g))
    assert not report.is_dark
    assert abs(report.absorption_residual - g * math.sqrt(2.0)) < 1e-18


def test_unequal_couplings_relight_the_singlet():
    g1, g2 = 1.0e-3, 1.3e-3
    report = is_dark(singlet_state(), (g1, g2))
    assert not report.is_dark
    assert abs(report.absorption_residual - abs(g1 - g2) / math.sqrt(2.0)) < 1e-15


def test_singlet_invariant_under_shared_rotation():
    # any common single-atom rotation maps the singlet to det(U) times itself
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(z)
    uu = np.kron(u, u)
    rotated = uu @ singlet_state()
    det = np.linalg.det(u)
    assert np.max(np.abs(rotated - det * singlet_state())) < 1e-12
    assert is_dark(rotated, (1e-3, 1e-3)).is_dark


@pytest.mark.parametrize(
    "pairing",
    [(((0, 1), (2, 3))), (((0, 2), (1, 3))), (((0, 3), (1, 2)))],
)
def test_every_four_atom_pairing_is_dark(pairing):
    psi = singlet_product(pairing)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    report = is_dark(psi, (2e-3,) * 4)
    assert report.is_dark
    assert report.absorption_residual < 1e-12


def test_singlet_product_rejects_bad_pairings():
    with pytest.raises(ValueError):
        singlet_product(((0, 1), (1, 2)))  # atom reused
    with pytest.raises(ValueError):
        singlet_product(((0, 1), (2, 4)))  # gap in coverage
    with pytest.raises(ValueError):
        singlet_product(((0, 0),))  # self-pairing


def test_three_level_singlet_is_annihilated_exactly():
    psi = multi_singlet_d3()
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    for upper, lower in ((1, 0), (2, 1), (2, 0)):
        op = three_level_lowering(upper, lower)
        assert np.max(np.abs(op @ psi)) == 0.0


def test_three_level_lowering_validates_levels():
    with pytest.raises(ValueError):
        three_level_lowering(0, 1)
    with pytest.raises(ValueError):
        three_level_lowering(3, 0)
    with pytest.raises(ValueError):
        three_level_lowering(1, -1)


def test_collective_lowering_matches_definition():
    gs = (0.5, 0.25)
    op = collective_lowering(gs)
    # acting on |11> gives g1|01> + g2|10>
    psi = np.zeros(4)
    psi[3] = 1.0
    out = op @ psi
    expected = np.zeros(4)
    expected[1] = gs[0]
    expected[2] = gs[1]
    assert np.max(np.abs(out - expected)) < 1e-15


@pytest.mark.parametrize("n_atoms", range(9))
def test_collective_lowering_matches_the_entrywise_loop(n_atoms):
    couplings = np.random.default_rng(n_atoms).uniform(0.1, 2.0, size=n_atoms)
    op = collective_lowering(couplings)
    assert np.array_equal(op, collective_lowering_loop(couplings))


def test_is_dark_validates_input():
    with pytest.raises(ValueError):
        is_dark(np.zeros(4), (1e-3, 1e-3))  # unnormalized
    with pytest.raises(ValueError):
        is_dark(singlet_state(), (1e-3,) * 3)  # dimension mismatch


def test_decay_config_defaults():
    cfg = DecayConfig()
    assert cfg.resolved_kappa == 1e-4
    assert cfg.resolved_t_max == 200000.0
    with pytest.raises(ValueError):
        DecayConfig(kappa=-1.0)
    with pytest.raises(ValueError):
        DecayConfig(n_times=1)
    with pytest.raises(ValueError):
        DecayConfig(t_max=0.0)


@pytest.fixture(scope="module")
def emission_reports():
    cfg = DecayConfig(n_times=801)
    dark = emission_density(singlet_state(), cfg)
    light = emission_density(triplet_state(), cfg)
    return cfg, dark, light


def test_dark_state_decays_like_an_empty_cavity(emission_reports):
    cfg, dark, _ = emission_reports
    kappa = cfg.resolved_kappa
    analytic = kappa * np.exp(-kappa * dark.times)
    # finite-difference density carries O(dt^2) error; 1e-3 is the contract
    assert np.max(np.abs(dark.density - analytic)) < 1e-3
    assert np.max(np.abs(dark.density - analytic)) < 5e-6  # actual scale
    # the atomic part is invisible: survival matches pure cavity decay
    assert np.max(np.abs(dark.survival - np.exp(-kappa * dark.times))) < 1e-6
    # identical, sample for sample, to a cavity containing one bare photon
    empty = emission_density(np.ones(1), DecayConfig(couplings=(), n_times=801))
    assert np.array_equal(empty.times, dark.times)
    assert np.max(np.abs(dark.density - empty.density)) < 1e-12
    assert np.max(np.abs(dark.survival - empty.survival)) < 1e-12


def test_light_state_first_photon_arrives_earlier(emission_reports):
    # doubly excited dressed components leak at twice the bare rate, pulling
    # the first-arrival time of the bright state below the dark-state mean
    _, dark, light = emission_reports
    assert light.mean_emission_time < dark.mean_emission_time
    gap = dark.mean_emission_time - light.mean_emission_time
    assert gap / dark.mean_emission_time > 0.05


def test_emission_probability_is_conserved(emission_reports):
    _, dark, light = emission_reports
    for report in (dark, light):
        total = report.escape_probability + report.survival[-1]
        assert abs(total - 1.0) < 1e-4


def _mean_emission_time(times, survival):
    density = -np.gradient(survival, times)
    return float(np.trapezoid(times * density, times)) + times[-1] * float(survival[-1])


def _assert_matches_dense(psi_at, cfg):
    report = emission_density(psi_at, cfg)
    times, survival = dense_emission_survival(psi_at, cfg)
    assert np.array_equal(report.times, times)
    assert np.max(np.abs(report.survival - survival)) < 1e-11
    mean = _mean_emission_time(times, survival)
    assert abs(report.mean_emission_time - mean) < 1e-10 * mean
    return report


def _adjacent_singlets(n_atoms):
    return singlet_product([(i, i + 1) for i in range(0, n_atoms, 2)])


@pytest.mark.parametrize("n_atoms", [2, 4, 6, 8, 10])
def test_register_decay_runs_in_the_reached_subspace(n_atoms):
    cfg = DecayConfig(couplings=(1e-3,) * n_atoms)
    dark = _assert_matches_dense(_adjacent_singlets(n_atoms), cfg)
    assert dark.basis_dim == 1
    assert dark.closure_bound <= 1e-10
    light_state = triplet_state()
    if n_atoms > 2:
        light_state = np.kron(light_state, _adjacent_singlets(n_atoms - 2))
    light = _assert_matches_dense(light_state, cfg)
    # the triplet reaches 3 states; in the 4-dim 2-atom sector that is more
    # than a quarter, so the whole sector runs instead
    assert light.basis_dim == (3 if n_atoms > 2 else 4)
    assert light.closure_bound <= 1e-10


def test_crossed_pairing_and_empty_register_match_dense_decay():
    crossed_cfg = DecayConfig(couplings=(1e-3,) * 4)
    crossed = _assert_matches_dense(singlet_product(((0, 2), (1, 3))), crossed_cfg)
    assert crossed.basis_dim == 1
    empty = _assert_matches_dense(np.ones(1, dtype=complex), DecayConfig(couplings=()))
    assert empty.basis_dim == 1
    assert empty.closure_bound == 0.0


def test_generic_register_falls_back_to_the_whole_sector():
    rng = np.random.default_rng(11)
    cfg = DecayConfig(couplings=tuple(1e-3 * rng.uniform(0.5, 1.5, 10)))
    psi = np.zeros(2**10, dtype=complex)
    support = [b for b in range(2**10) if bin(b).count("1") == 5]
    psi[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    psi /= np.linalg.norm(psi)
    report = _assert_matches_dense(psi, cfg)
    assert report.basis_dim == 848  # the identity basis of the sector
    assert report.closure_bound == 0.0


@st.composite
def small_registers(draw):
    n_atoms = draw(st.integers(0, 4))
    couplings = draw(st.lists(st.floats(0.5e-3, 1.5e-3), min_size=n_atoms, max_size=n_atoms))
    excitations = draw(st.integers(0, n_atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    support = [b for b in range(2**n_atoms) if bin(b).count("1") == excitations]
    psi = np.zeros(2**n_atoms, dtype=complex)
    psi[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return couplings, psi / np.linalg.norm(psi)


@settings(max_examples=30, deadline=None)
@given(small_registers())
def test_survival_never_rises_and_balances_the_density(register):
    couplings, psi = register
    report = emission_density(psi, DecayConfig(couplings=tuple(couplings), kappa=1e-4))
    assert np.all(np.diff(report.survival) <= 1e-14)
    balance = float(np.trapezoid(report.density, report.times)) + float(report.survival[-1])
    assert abs(balance - 1.0) < 1e-4


def test_emission_density_rejects_bad_states():
    with pytest.raises(ValueError):
        emission_density(np.array([1.0, 1.0]) / math.sqrt(2.0), DecayConfig())
    with pytest.raises(ValueError):
        emission_density(np.array([1.0, 0.0, 0.0]), DecayConfig())


def test_sampling_is_deterministic(emission_reports):
    _, dark, _ = emission_reports
    a = sample_emission_times(dark, 100, rng=np.random.default_rng(3))
    b = sample_emission_times(dark, 100, rng=np.random.default_rng(3))
    assert np.array_equal(a.times, b.times)
    assert a.n_censored == b.n_censored
    with pytest.raises(ValueError):
        sample_emission_times(dark, 0)


def test_short_windows_censor_draws():
    cfg = DecayConfig(t_max=5000.0, n_times=501)
    report = emission_density(singlet_state(), cfg)
    samples = sample_emission_times(report, 500, rng=np.random.default_rng(5))
    assert samples.n_censored > 0
    assert np.all(samples.times <= cfg.resolved_t_max)


def _error_rate(n_trials, seeds=200, detector_error=0.03):
    wrong = 0
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        # synthetic two-population test: unit-mean vs 1.1-mean exponentials
        times = rng.exponential(1.0, size=n_trials)
        result = classify_dark(
            times,
            dark_mean=1.0,
            light_mean=1.1,
            detector_error=detector_error,
            rng=rng,
        )
        if result.decision != "dark":
            wrong += 1
    return wrong / seeds


def test_classifier_error_rate_falls_with_trials():
    rates = [_error_rate(n) for n in (100, 1000, 10000)]
    assert rates[0] > rates[1] > rates[2] or rates[2] == 0.0
    assert rates == sorted(rates, reverse=True)
    assert rates[2] == 0.0


def test_maximal_detector_noise_destroys_significance():
    inconclusive = 0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        times = rng.exponential(1.0, size=2000)
        result = classify_dark(
            times, dark_mean=1.0, light_mean=1.1, detector_error=0.5, rng=rng
        )
        if abs(result.z_score) < 3.0:
            inconclusive += 1
    assert inconclusive >= 45


def test_identical_samples_on_the_threshold_score_zero():
    result = classify_dark([1.0, 1.0], dark_mean=0.0, light_mean=2.0, detector_error=0.0)
    assert result.z_score == 0.0
    assert result.decision == "light"  # an exact tie goes to "light"
    off = classify_dark([0.5, 0.5], dark_mean=0.0, light_mean=2.0, detector_error=0.0)
    assert off.z_score == -math.inf
    assert off.decision == "dark"


def test_classifier_validates_inputs(emission_reports):
    _, dark, _ = emission_reports
    samples = sample_emission_times(dark, 10, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        classify_dark(samples, dark_mean=1.0, light_mean=1.0)
    with pytest.raises(ValueError):
        classify_dark(samples, dark_mean=1.0, light_mean=2.0, detector_error=1.5)
    tiny = sample_emission_times(dark, 1, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        classify_dark(tiny, dark_mean=1.0, light_mean=2.0)
