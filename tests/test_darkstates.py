import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    build_tc_loop,
    collective_lowering_loop,
    dense_emission_survival,
    interp_emission_times,
    mp_emission_survival,
    occupations_loop,
    state_index,
)

import tchlab
import tchlab.darkstates as darkstates
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.darkstates import (
    MAX_ATOMS,
    MAX_RATE,
    MAX_TIMES,
    MAX_TRIALS,
    DecayConfig,
    _collective_products,
    classify_dark,
    emission_density,
    is_dark,
    sample_emission_times,
    singlet_product,
    triplet_state,
)
from tchlab.evolution import NumericalDriftError
from tchlab.operators import build_tc, photon_number_operator


def test_singlet_has_zero_absorption():
    report = is_dark(singlet_product([(0, 1)]), (1e-3, 1e-3))
    assert report.is_dark
    assert report.absorption_residual < 1e-12


def test_triplet_absorbs_at_collective_rate():
    g = 1e-3
    report = is_dark(triplet_state(), (g, g))
    assert not report.is_dark
    assert abs(report.absorption_residual - g * math.sqrt(2.0)) < 1e-18


def test_unequal_couplings_relight_the_singlet():
    g1, g2 = 1.0e-3, 1.3e-3
    report = is_dark(singlet_product([(0, 1)]), (g1, g2))
    assert not report.is_dark
    assert abs(report.absorption_residual - abs(g1 - g2) / math.sqrt(2.0)) < 1e-15


def test_singlet_invariant_under_shared_rotation():
    # any common single-atom rotation maps the singlet to det(U) times itself
    rng = np.random.default_rng(7)
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(z)
    uu = np.kron(u, u)
    rotated = uu @ singlet_product([(0, 1)])
    det = np.linalg.det(u)
    assert np.max(np.abs(rotated - det * singlet_product([(0, 1)]))) < 1e-12
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


def test_collective_lowering_matches_definition():
    gs = (0.5, 0.25)
    op = collective_lowering_loop(gs)
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
    # applied to every basis vector at once, is_dark's bit arithmetic gives
    # the lowering matrix and its transpose, each entry one coupling
    lowering, raising = _collective_products(np.eye(2**n_atoms, dtype=complex), couplings)
    expected = collective_lowering_loop(couplings)
    assert np.array_equal(lowering, expected)
    assert np.array_equal(raising, expected.T)


@pytest.mark.parametrize("n_atoms", range(1, 11))
def test_is_dark_matches_the_dense_lowering_product(n_atoms):
    rng = np.random.default_rng(100 + n_atoms)
    couplings = tuple(rng.uniform(0.5, 1.5, size=n_atoms))
    psi = rng.normal(size=2**n_atoms) + 1j * rng.normal(size=2**n_atoms)
    psi /= np.linalg.norm(psi)
    lowering = collective_lowering_loop(couplings)
    absorption = np.linalg.norm(lowering.conj().T @ psi)
    emission = np.linalg.norm(lowering @ psi)
    report = is_dark(psi, couplings)
    # n products of order one per entry, summed in another order
    assert abs(report.absorption_residual - absorption) <= 1e-14 * absorption
    assert abs(report.emission_residual - emission) <= 1e-14 * emission


@pytest.mark.parametrize("n_atoms", range(2, 13))
def test_decay_sector_blocks_equal_the_entrywise_loop(n_atoms):
    # the sector a half-excited register decays in, as emission_density builds it
    sector = 1 + n_atoms // 2
    couplings = tuple(np.random.default_rng(n_atoms).uniform(0.5, 1.5, size=n_atoms))
    network = NetworkConfig(1, (n_atoms,), couplings=couplings, max_photons=sector, omega=1.3)
    space = HilbertSpace(network, sector)
    assert np.array_equal(build_tc(space, 0).matrix, build_tc_loop(space, 0))
    number = photon_number_operator(space, 0).matrix
    assert np.array_equal(number, np.diag([float(row[0]) for row in occupations_loop(network, sector)]))


def test_emission_density_refuses_a_stray_excitation_count():
    # a component below the excitation-count threshold still has to fit the sector
    psi = singlet_product(((0, 1), (2, 3))).astype(complex)
    psi[0] = 1e-14
    with pytest.raises(ValueError, match="outside 2 excitations"):
        emission_density(psi, DecayConfig(couplings=(1.0,) * 4))
    # an equal-weight mix of two and one excitations: the first largest
    # component, |0011>, fixes the sector, and |0100> lies outside it
    mix = np.zeros(16, dtype=complex)
    mix[[0b0011, 0b0100]] = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError, match="outside 2 excitations"):
        emission_density(mix, DecayConfig(couplings=(1.0,) * 4))


def test_is_dark_validates_input():
    with pytest.raises(ValueError):
        is_dark(np.zeros(4), (1e-3, 1e-3))  # unnormalized
    with pytest.raises(ValueError):
        is_dark(singlet_product([(0, 1)]), (1e-3,) * 3)  # dimension mismatch


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


@pytest.mark.parametrize("kwargs, message", [
    ({"couplings": (1e-3,) * 20}, "20 atoms exceed the limit of 18"),
    ({"n_times": MAX_TIMES + 1}, f"at most {MAX_TIMES}"),
    ({"kappa": 2e150}, "kappa must be positive and finite, at most 1e\\+150"),
    ({"couplings": (1e-3, 2e150)}, "couplings must be positive and finite"),
    ({"couplings": (-1e-3, 1e-3)}, "couplings must be positive and finite"),
    ({"kappa": 1e-320}, r"kappa \S+ puts the default horizon"),
    # a tenth of the smallest subnormal rounds to a default kappa of 0
    ({"couplings": (5e-324,)}, "a tenth of the coupling 4.94066e-324"),
    ({"kappa": 1e10, "t_max": 1e308}, "generator's step"),
], ids=["atoms", "n_times", "kappa", "coupling", "negative", "horizon", "default", "step"])
def test_decay_config_refuses_what_it_cannot_run(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DecayConfig(**kwargs)


def test_decay_config_takes_its_limits():
    assert DecayConfig(couplings=(1e-3,) * MAX_ATOMS).n_atoms == MAX_ATOMS
    assert DecayConfig(n_times=MAX_TIMES).n_times == MAX_TIMES
    assert DecayConfig(kappa=MAX_RATE, couplings=(MAX_RATE,)).resolved_t_max == 20.0 / MAX_RATE
    # a subnormal rate is fine with a horizon of its own
    assert DecayConfig(kappa=1e-320, t_max=1.0).resolved_t_max == 1.0


@pytest.mark.parametrize("omega", [0.0, math.nan, 1.7976931348623157e308])
def test_decay_config_refuses_an_omega_its_diagonal_cannot_take(omega):
    # the full register's diagonal, omega times its three excitations, overflows
    with pytest.raises(ValueError, match="omega"):
        DecayConfig(omega=omega)


def test_strong_coupling_decay_is_accurate_or_refused():
    # against 40 digits: steps of 1.4e4 radians round the survival by about
    # 1e-11, within the 2e-10 a report promises; steps of 1.4e8 radians
    # would round it by about 1e-7, and are refused
    light = triplet_state()
    kept = DecayConfig(couplings=(1e5, 1e5), kappa=1.0, n_times=201)
    _, reference = mp_emission_survival(light, kept)
    assert np.max(np.abs(emission_density(light, kept).survival - reference)) < 2e-10
    with pytest.raises(NumericalDriftError, match="squarings"):
        emission_density(light, DecayConfig(couplings=(1e9, 1e9), kappa=1.0, n_times=201))


def test_sampling_refuses_more_trials_than_its_limit():
    report = emission_density(singlet_product([(0, 1)]), DecayConfig(n_times=11))
    with pytest.raises(ValueError, match=f"limit of {MAX_TRIALS}"):
        sample_emission_times(report, MAX_TRIALS + 1)


def test_sampling_counts_trials_with_an_integer():
    # the counter check every config applies; numpy integers pass
    report = emission_density(singlet_product([(0, 1)]), DecayConfig(n_times=11))
    for n_trials in (5.0, 5.5):
        with pytest.raises(ValueError, match="n_trials must be an integer"):
            sample_emission_times(report, n_trials)
    samples = sample_emission_times(report, np.int64(5), rng=3)
    assert np.array_equal(samples.times, sample_emission_times(report, 5, rng=3).times)


# (atom counts, arguments, the refusal's words): each argument dark_study
# refuses, at the bare cavity and at a register alike
DARK_STUDY_REFUSALS = [
    ((0,), {"n_atoms": 3}, "zero or an even number"),
    ((0,), {"n_atoms": -2}, "zero or an even number"),
    ((0,), {"n_atoms": 2.0}, "n_atoms must be an integer"),
    ((0,), {"n_atoms": 20}, "limit of 18"),
    ((0,), {"n_atoms": 10**12}, "atoms exceed the limit of 18"),
] + [((atoms,), kwargs, message) for atoms in (0, 2) for kwargs, message in (
    ({"n_trials": 0}, "n_trials must be at least 2"),
    ({"n_trials": 1}, "n_trials must be at least 2"),
    ({"n_trials": MAX_TRIALS + 1}, f"limit of {MAX_TRIALS}"),
    ({"n_trials": 10.0}, "n_trials must be an integer"),
    ({"detector_error": math.nan}, r"detector_error must lie in \[0, 1\]"),
    ({"detector_error": 5.0}, r"detector_error must lie in \[0, 1\]"),
    ({"detector_error": -0.5}, r"detector_error must lie in \[0, 1\]"),
    ({"truth": "grey"}, "truth must be"),
    ({"kappa": math.inf}, "kappa must be"),
    ({"rng": -1}, "rng must be a seed"),
    ({"rng": 1.5}, "rng must be a seed"),
)]


@pytest.mark.parametrize("atoms, kwargs, message", DARK_STUDY_REFUSALS,
                         ids=[f"{a[0]}-{k}" for a, k, _ in DARK_STUDY_REFUSALS])
def test_dark_study_refuses_before_either_decay(monkeypatch, atoms, kwargs, message):
    def decayed(*args):
        raise AssertionError("the decay ran")

    monkeypatch.setattr(darkstates, "_lossy_propagation", decayed)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=message):
            darkstates.dark_study(**{"n_atoms": atoms[0], **kwargs})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_dark_study_looks_its_steps_up_on_the_module(monkeypatch):
    # wrapping a module attribute reaches every call the study makes, as the
    # benchmark's tracer does
    calls = []
    for name in ("emission_density", "sample_emission_times", "classify_dark", "is_dark"):
        def counted(*args, _fn=getattr(darkstates, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(darkstates, name, counted)
    study = darkstates.dark_study(2, n_times=101, n_trials=50, rng=1)
    assert sorted(calls) == sorted(["emission_density"] * 2 + ["sample_emission_times",
                                    "classify_dark"] + ["is_dark"] * 2)
    assert study.classification.n_trials == 50
    calls.clear()
    assert darkstates.dark_study(0, n_times=101).light is None
    assert calls == ["emission_density"]


@pytest.fixture(scope="module")
def emission_reports():
    cfg = DecayConfig(n_times=801)
    dark = emission_density(singlet_product([(0, 1)]), cfg)
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
    assert light.basis_dim == 3  # the triplet reaches 3 states, even in the 4-dim 2-atom sector
    assert light.closure_bound <= 1e-10


@pytest.mark.parametrize("kind", ["singlets", "complex"])
def test_the_decay_runs_the_gauged_lossy_generator(kind, monkeypatch):
    # four atoms with two excitations: the 15-state sector of one photon more
    cfg = DecayConfig(couplings=(0.7e-3, 1.0e-3, 1.1e-3, 1.3e-3))
    psi = _adjacent_singlets(4).astype(complex)
    if kind == "complex":
        rng = np.random.default_rng(5)
        support = [b for b in range(16) if bin(b).count("1") == 2]
        psi[support] = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi /= np.linalg.norm(psi)
    captured = {"psi0": []}
    propagate = darkstates._lossy_propagation

    def recorded(apply, psi0, dt, n_steps):
        captured["apply"] = apply
        captured["psi0"].append(psi0)
        return propagate(apply, psi0, dt, n_steps)

    monkeypatch.setattr(darkstates, "_lossy_propagation", recorded)
    emission_density(psi, cfg)
    network = NetworkConfig(n_cavities=1, atoms_per_cavity=(4,), couplings=cfg.couplings,
                            max_photons=3, omega=cfg.omega)
    space = HilbertSpace(network, 3)
    photons = space.occupations[:, 0]
    # the dense generator less its diagonal omega * sector, a global phase
    m = (build_tc(space, 0).matrix - 3.0 * cfg.omega * np.eye(space.dim)
         - 0.5j * cfg.resolved_kappa * np.diag(photons))
    gauge = np.array([1, 1j, -1, -1j])[photons % 4]
    expected = gauge.conj()[:, None] * (-1j * m) * gauge
    assert not expected.imag.any()
    # the product with each basis vector is a column of the generator
    a = np.array([captured["apply"](e) for e in np.eye(space.dim)]).T
    assert np.array_equal(a, expected.real)
    k = a + np.diag(0.5 * cfg.resolved_kappa * photons)
    assert np.array_equal(k, -k.T) and k.any()
    # the start is P^-1 psi0 = -i psi0, run as each of its nonzero real and
    # imaginary parts
    amps = np.zeros(space.dim, dtype=complex)
    index = state_index(space)
    for b in np.flatnonzero(psi):
        amps[index[(1,) + tuple(int(c) for c in f"{b:04b}")]] = psi[b]
    start = -1j * amps
    parts = [start.real, start.imag] if kind == "complex" else [start.imag]
    assert len(captured["psi0"]) == len(parts)
    for psi0, part in zip(captured["psi0"], parts):
        assert psi0.shape == (space.dim,) and np.array_equal(psi0, part)


def _fresh_process_run(body):
    """The words ``body`` prints, run in a fresh process that then prints
    its own peak resident size (VmHWM, in kB; ru_maxrss would also count
    this process's size at the fork)."""
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    code = body + (
        "status = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
        "print(status)\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
@pytest.mark.parametrize("bright", [False, True], ids=["singlet", "bright"])
def test_fourteen_atom_decay_builds_no_sector_matrix(bright):
    # the 14-atom decay sector holds 12,911 states: one dense complex matrix
    # on it would take 12,911^2 * 16 bytes, about 2.7 GB
    state = "np.kron(triplet_state(), singlets(12))" if bright else "singlets(14)"
    basis_dim, closure_bound, peak_kb = _fresh_process_run(
        "import numpy as np\n"
        "from tchlab.darkstates import DecayConfig, emission_density, singlet_product, triplet_state\n"
        "def singlets(n):\n"
        "    return singlet_product([(i, i + 1) for i in range(0, n, 2)])\n"
        f"report = emission_density({state}, DecayConfig(couplings=(1e-3,) * 14))\n"
        "print(report.basis_dim, report.closure_bound)\n"
    )
    assert int(basis_dim) == (3 if bright else 1)
    assert float(closure_bound) <= 1e-10
    assert int(peak_kb) < 256 * 1024


def test_crossed_pairing_and_empty_register_match_dense_decay():
    crossed_cfg = DecayConfig(couplings=(1e-3,) * 4)
    crossed = _assert_matches_dense(singlet_product(((0, 2), (1, 3))), crossed_cfg)
    assert crossed.basis_dim == 1
    empty = _assert_matches_dense(np.ones(1, dtype=complex), DecayConfig(couplings=()))
    assert empty.basis_dim == 1
    assert empty.closure_bound == 0.0


def _generic_register(n_atoms, **grid):
    """A register of random couplings with half its atoms excited in a
    random superposition, which reaches the whole decay sector, and its
    decay settings with ``grid`` passed on."""
    rng = np.random.default_rng(11)
    cfg = DecayConfig(couplings=tuple(1e-3 * rng.uniform(0.5, 1.5, n_atoms)), **grid)
    psi = np.zeros(2**n_atoms, dtype=complex)
    support = [b for b in range(2**n_atoms) if bin(b).count("1") == n_atoms // 2]
    psi[support] = rng.normal(size=len(support)) + 1j * rng.normal(size=len(support))
    return psi / np.linalg.norm(psi), cfg


def test_generic_register_decays_in_restarted_krylov_spans():
    # the 848-state sector runs in spans of at most 60 Krylov vectors
    report = _assert_matches_dense(*_generic_register(10))
    assert report.basis_dim <= 60
    assert report.closure_bound <= 1e-10


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads Linux's VmHWM")
def test_generic_twelve_atom_decay_runs_in_two_spans():
    # one dense complex matrix on the 3,302-state sector takes 174 MB, and a
    # dense matrix exponential holds about a dozen of them; the real and the
    # imaginary part of the start each run in two spans of 60 vectors
    widths, basis_dim, closure_bound, peak_kb = _fresh_process_run(
        "import numpy as np\n"
        "import tchlab.darkstates as darkstates\n"
        "from tchlab.darkstates import DecayConfig, emission_density\n"
        "widths = []\n"
        "reachable = darkstates._reachable_basis\n"
        "def counted(*args):\n"
        "    basis = reachable(*args)\n"
        "    widths.append(str(len(basis[1])))\n"
        "    return basis\n"
        "darkstates._reachable_basis = counted\n"
        + inspect.getsource(_generic_register) +
        "report = emission_density(*_generic_register(12, t_max=4000.0, n_times=201))\n"
        "print(','.join(widths), report.basis_dim, report.closure_bound)\n"
    )
    assert widths == "60,60,60,60"
    assert int(basis_dim) == 60
    assert float(closure_bound) <= 1e-10
    assert int(peak_kb) < 256 * 1024


def test_generic_decay_does_not_depend_on_the_blas_thread_count():
    # a BLAS matrix-vector product may split the 3,302-state sector across
    # threads and round by their count; the two interpreters run side by side
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    code = ("from tchlab.darkstates import DecayConfig, emission_density\n"
            "import numpy as np\n"
            + inspect.getsource(_generic_register) +
            "report = emission_density(*_generic_register(12, t_max=4000.0, n_times=201))\n"
            "print(report.survival.tobytes().hex())\n")
    procs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        procs.append(subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE))
    survival = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        survival.append(out)
    assert survival[0] == survival[1] and len(survival[0]) > 201 * 16


@pytest.mark.parametrize("n_times", [3, 11])
def test_coarse_grid_widens_the_basis_to_the_whole_sector(n_times, monkeypatch):
    # on 2 or 10 steps over the horizon not one step fits a 60- or 120-vector
    # span, so the basis doubles until it spans the whole 219-state sector;
    # a complex state runs its real and its imaginary part that way in turn,
    # and no run grows wider than the sector
    widths = []
    reachable = darkstates._reachable_basis

    def recorded(apply, psi0, horizon, cap):
        basis = reachable(apply, psi0, horizon, cap)
        widths.append(len(basis[1]))
        return basis

    monkeypatch.setattr(darkstates, "_reachable_basis", recorded)
    psi, cfg = _generic_register(8, n_times=n_times)
    for state, expected in ((psi.real / np.linalg.norm(psi.real), [60, 120, 219]),
                            (psi, [60, 120, 219] * 2)):
        widths.clear()
        report = _assert_matches_dense(state, cfg)
        assert widths == expected
        assert report.basis_dim == 219
        assert report.closure_bound <= 1e-10


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


def test_normalisation_checks_refuse_a_nan_amplitude():
    psi = singlet_product(((0, 1),)).astype(complex)
    psi[1] = np.nan
    with pytest.raises(ValueError, match="normalized"):
        emission_density(psi, DecayConfig())
    with pytest.raises(ValueError, match="normalized"):
        is_dark(psi, (1e-3, 1e-3))


def test_emission_density_refuses_a_nan_density():
    # a step of 5e-304 squares to 0, and the centred differences divide by it
    with pytest.raises(NumericalDriftError, match="dips to nan"):
        emission_density(singlet_product([(0, 1)]), DecayConfig(t_max=1e-300))


def test_sampling_is_deterministic(emission_reports):
    _, dark, _ = emission_reports
    a = sample_emission_times(dark, 100, rng=np.random.default_rng(3))
    b = sample_emission_times(dark, 100, rng=np.random.default_rng(3))
    assert np.array_equal(a.times, b.times)
    assert a.n_censored == b.n_censored
    with pytest.raises(ValueError):
        sample_emission_times(dark, 0)


@st.composite
def emission_curves(draw):
    """A report-like (times, survival) pair whose CDF 1 - S never falls: up
    to 3,000 knots with flat runs, starting at 0 or above, and ending at 1
    or below, where the draws above the end are censored."""
    n_knots = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rises = rng.random(n_knots) < draw(st.floats(0.05, 1.0))  # no rise: a flat run
    cdf = np.cumsum(rng.exponential(size=n_knots) * rises)
    if cdf[-1] > 0.0:
        cdf *= draw(st.sampled_from([1.0, 1.0 - 1e-9, 0.7, 0.01])) / cdf[-1]
    times = np.linspace(0.0, draw(st.floats(1e-3, 1e6)), n_knots)
    return types.SimpleNamespace(times=times, survival=1.0 - cdf)


@settings(max_examples=60, deadline=None)
@given(emission_curves(),
       st.sampled_from([1, darkstates._SAMPLE_BLOCK, darkstates._SAMPLE_BLOCK + 1, 50_000]),
       st.integers(0, 2**64 - 1))
def test_block_sampling_equals_one_interp_over_the_draws(report, n_trials, seed):
    # the blocks only reorder np.interp's queries, so every draw is the same
    # bits as the one-call route's
    samples = sample_emission_times(report, n_trials, rng=seed)
    times, censored = interp_emission_times(report, n_trials, rng=seed)
    assert np.array_equal(samples.times, times)
    assert np.array_equal(samples.censored, censored)


def test_short_windows_censor_draws():
    cfg = DecayConfig(t_max=5000.0, n_times=501)
    report = emission_density(singlet_product([(0, 1)]), cfg)
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
