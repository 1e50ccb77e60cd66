import math

import numpy as np
import pytest
from oracles import (
    dense_free_hamiltonian,
    dense_walk,
    distance_profile_loop,
    hop_table_matrix,
    momentum_operator,
    qft_matrix,
    state_index,
)

import tchlab.walk
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.operators import HopSpec, build_tch
from tchlab.walk import (
    WalkConfig,
    ballistic_exponent,
    coupling_network,
    feynman_kernel,
    momentum_values,
    simulate_walk,
)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_qft_is_unitary(n):
    f = qft_matrix(n)
    assert np.max(np.abs(f @ f.conj().T - np.eye(n))) < 1e-10


def test_qft_two_site_matrix():
    f = qft_matrix(2)
    expected = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    assert np.max(np.abs(f - expected)) < 1e-15


@pytest.mark.parametrize("n", [2, 8, 64])
def test_momentum_spectrum_is_exact(n):
    p = momentum_operator(n)
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    w = np.sort(np.linalg.eigvalsh(p))
    assert np.max(np.abs(w - np.sort(momentum_values(n)))) < 1e-8
    assert momentum_values(n)[0] == -math.sqrt(n) / 2.0


@pytest.mark.parametrize("n", [8, 64, 128])
def test_momentum_commutes_with_generator_for_even_n(n):
    p = momentum_operator(n)
    h = dense_free_hamiltonian(n, 1.0)
    assert np.max(np.abs(p @ h - h @ p)) < 1e-10


def test_odd_ring_breaks_the_commutation():
    # the band-centering shift is a clean translation only for even rings
    p = momentum_operator(9)
    h = dense_free_hamiltonian(9, 1.0)
    assert np.max(np.abs(p @ h - h @ p)) > 1e-2


def _random_network_matrix(n, seed):
    # Hermitian with a band of exact zeros, so some separations carry no hop
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h[np.abs(np.subtract.outer(np.arange(n), np.arange(n))) == 3] = 0.0
    return h + h.conj().T


def test_coupling_network_round_trip():
    # a ring, a random network with missing links, and one without hops
    for h in (dense_free_hamiltonian(16, 0.7), _random_network_matrix(12, 0), np.eye(5)):
        net = coupling_network(h)
        assert isinstance(net.hops, np.recarray)
        assert net.hops.dtype.names == ("q", "p", "amplitude", "phase")
        assert np.max(np.abs(hop_table_matrix(net) - h)) < 1e-12
        assert all(q < p for q, p, _, _ in net.hops)
        profile = net.distance_profile()
        assert [d for d, _, _, _ in profile] == sorted({p - q for q, p, _, _ in net.hops})
        assert sum(count for _, count, _, _ in profile) == len(net.hops)
    with pytest.raises(ValueError):
        coupling_network(np.array([[0.0, 1.0], [0.5, 0.0]]))


@pytest.mark.parametrize("n", [8, 64, 128, 1024])
@pytest.mark.parametrize("mass", [1.0, 0.3])
def test_free_hamiltonian_matches_dense_fourier_product(n, mass):
    # the walk's free Hamiltonian is the circulant of its hop profile: every
    # entry at separation d = (p - q) mod n of the dense product is c[d]
    profile = simulate_walk(WalkConfig(n_cavities=n, mass=mass, n_times=3)).network_profile
    row = np.zeros(n, dtype=complex)
    for d, count, r, phi in profile:
        assert count == n - d
        row[d] = r * np.exp(1j * phi)
    h = dense_free_hamiltonian(n, mass)
    q = np.arange(n)
    circulant = row[(q[None, :] - q[:, None]) % n]
    off_diagonal = ~np.eye(n, dtype=bool)
    assert np.max(np.abs(h - circulant)[off_diagonal]) < 1e-10
    assert np.max(np.abs(h.diagonal() - h[0, 0])) < 1e-10


@pytest.mark.parametrize(
    "h",
    [dense_free_hamiltonian(64, 1.0), dense_free_hamiltonian(16, 0.7),
     _random_network_matrix(12, 0), np.eye(5)],
    ids=["ring64", "ring16", "random", "no-hops"],
)
def test_distance_profile_matches_bucket_loop(h):
    net = coupling_network(h)
    profile = net.distance_profile()
    reference = distance_profile_loop(net.hops)
    assert [row[:2] for row in profile] == [row[:2] for row in reference]
    for (_, _, r, phi), (_, _, r_ref, phi_ref) in zip(profile, reference):
        assert abs(r - r_ref) < 1e-9
        assert abs(phi - phi_ref) < 1e-9


def test_network_realized_as_cavity_hamiltonian():
    # hop list + uniform cavity detuning reproduce the one-photon matrix
    n = 8
    h = dense_free_hamiltonian(n, 1.0)
    net = coupling_network(h)
    diag = net.diagonal
    assert np.max(np.abs(diag - diag[0])) < 1e-12  # circulant: constant diagonal
    cfg = NetworkConfig(
        n_cavities=n,
        atoms_per_cavity=(0,) * n,
        max_photons=1,
        omega=float(diag[0]),
    )
    space = HilbertSpace(cfg, sector=1)
    assert space.dim == n
    hops = [HopSpec(q, p, amplitude=r, phase=phi) for q, p, r, phi in net.hops]
    produced = build_tch(space, hops).matrix
    # basis index of the photon in each cavity, to reorder h into the sector
    index = state_index(space)
    perm = [index[tuple(int(c == q) for c in range(n))] for q in range(n)]
    embedded = np.zeros_like(h)
    embedded[np.ix_(perm, perm)] = h
    assert np.max(np.abs(produced - embedded)) < 1e-12


@pytest.mark.parametrize("n", [8, 64, 128, 1024])
@pytest.mark.parametrize("mass", [1.0, 0.3, 2.5])
def test_walk_profile_matches_the_dense_network_read(n, mass):
    # read from the circulant's first row, against the N x N matrix's hop table
    profile = simulate_walk(WalkConfig(n_cavities=n, mass=mass, n_times=3)).network_profile
    net = coupling_network(dense_free_hamiltonian(n, mass))
    reference = net.distance_profile()
    assert [row[:2] for row in profile] == [row[:2] for row in reference]
    assert sum(count for _, count, _, _ in profile) == len(net.hops)
    for (_, _, r, phi), (_, _, r_ref, phi_ref) in zip(profile, reference):
        assert abs(r - r_ref) < 1e-9
        assert abs(phi - phi_ref) < 1e-9


def test_walk_builds_no_dense_network(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulate_walk must not build the N x N network")

    monkeypatch.setattr(tchlab.walk, "coupling_network", refuse)
    result = simulate_walk(WalkConfig(n_cavities=64, n_times=3))
    assert [row[0] for row in result.network_profile] == list(range(1, 64))


def test_walk_config_defaults_and_validation():
    cfg = WalkConfig(n_cavities=64, mass=2.0)
    assert cfg.resolved_origin == 32
    assert cfg.resolved_t_max == 0.5
    with pytest.raises(ValueError):
        WalkConfig(n_cavities=1)
    with pytest.raises(ValueError, match="even"):
        WalkConfig(n_cavities=33)  # momentum would not commute with H
    with pytest.raises(ValueError):
        WalkConfig(mass=0.0)
    with pytest.raises(ValueError):
        WalkConfig(origin=200)
    with pytest.raises(ValueError):
        WalkConfig(t_max=-1.0)
    with pytest.raises(ValueError):
        WalkConfig(n_times=1)
    with pytest.raises(ValueError, match="two positive-time variance samples"):
        WalkConfig(n_times=2)  # the fit needs two samples after t = 0


def test_simulated_walk_conserves_everything():
    result = simulate_walk(WalkConfig(n_cavities=128))
    assert result.norm_drift < 1e-10
    assert result.momentum_drift < 1e-10
    assert abs(result.variances[0]) < 1e-12  # starts localized
    n, origin = 128, 64
    mirror = (2 * origin - np.arange(n)) % n
    refl = np.max(
        np.abs(np.abs(result.amplitudes) - np.abs(result.amplitudes[:, mirror]))
    )
    assert refl < 1e-8
    assert refl == result.reflection_residual  # bit for bit
    # the overlap with the kernel inside its validity band
    offsets = (np.arange(n) - origin + n // 2) % n - n // 2
    t = result.times[-1]
    edge = tchlab.walk.kernel_band_edge(n, t, 1.0)
    band = (np.abs(offsets) / math.sqrt(n) <= edge) | (np.abs(offsets) <= 2)
    psi, ker = result.amplitudes[-1, band], result.kernel[-1, band]
    overlap = abs(np.vdot(ker, psi)) / (np.linalg.norm(psi) * np.linalg.norm(ker))
    assert overlap == result.kernel_overlap
    assert 0.9 < result.kernel_overlap < 1.0


# Default origin, an off-centre origin and a non-unit mass on each ring;
# consecutive cases on one ring share the oracle's diagonalization.
WALK_CASES = [
    (n, origin, mass)
    for n in (8, 64, 128, 1024)
    for origin, mass in ((None, 1.0), (n // 8 + 1, 1.0), (None, 2.5))
]


@pytest.mark.parametrize("n, origin, mass", WALK_CASES)
def test_walk_matches_dense_diagonalization(n, origin, mass):
    config = WalkConfig(n_cavities=n, origin=origin, mass=mass, n_times=11)
    result = simulate_walk(config)
    amplitudes, populations, variances = dense_walk(config)
    assert np.max(np.abs(result.amplitudes - amplitudes)) < 1e-12
    assert np.max(np.abs(result.momentum_populations - populations)) < 1e-11
    assert np.max(np.abs(result.variances - variances)) < 1e-11
    # the residual is of the magnitudes, which off the middle of a small ring
    # differs from that of the probabilities
    mag = np.abs(result.amplitudes)
    mirror = (2 * config.resolved_origin - np.arange(n)) % n
    assert result.reflection_residual == np.max(np.abs(mag - mag[:, mirror]))


def test_ballistic_spreading_exponent():
    result = simulate_walk(WalkConfig(n_cavities=128))
    slope = ballistic_exponent(result.times, result.variances)
    assert abs(slope - 2.0) < 0.05
    assert result.ballistic_exponent == slope  # bit for bit


def test_kernel_matches_dynamics_in_band():
    # phases agree with the free propagator where the stationary momentum
    # stays inside the band
    t_max = 2.0
    result = simulate_walk(WalkConfig(n_cavities=128, t_max=t_max, n_times=3))
    n, origin = 128, 64
    x = result.positions - result.positions[origin]
    x_lim = 0.8 * (math.sqrt(n) / 2.0) * t_max / (2.0 * math.pi)
    band = np.abs(x) <= x_lim
    psi = result.amplitudes[-1, band]
    ker = result.kernel[-1, band]
    overlap = abs(np.vdot(ker, psi)) / (np.linalg.norm(ker) * np.linalg.norm(psi))
    assert overlap > 0.98
    assert np.max(np.abs(result.kernel[0])) == 0.0  # undefined at t = 0


def test_kernel_domain_errors():
    with pytest.raises(ValueError):
        feynman_kernel(np.zeros(3), 0.0, 1.0)
    with pytest.raises(ValueError):
        feynman_kernel(np.zeros(3), -1.0, 1.0)
    with pytest.raises(ValueError):
        feynman_kernel(np.zeros(3), 1.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_kernel_and_band_refuse_non_finite_values(value):
    with pytest.raises(ValueError, match="positive finite t"):
        feynman_kernel(np.zeros(3), value, 1.0)
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        feynman_kernel(np.zeros(3), 1.0, value)
    with pytest.raises(ValueError, match="mass must be positive and finite"):
        WalkConfig(n_cavities=8, mass=value)  # the walk checks the mass before the band


def test_ballistic_exponent_needs_data():
    with pytest.raises(ValueError):
        ballistic_exponent([0.0], [0.0])
