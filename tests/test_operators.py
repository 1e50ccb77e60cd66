import math

import numpy as np
import pytest
from hypothesis import given, settings

from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.darkstates import singlet_product
from tchlab.operators import (
    GaussianPulse,
    HopSpec,
    OperatorMatrix,
    amplitude_for_area,
    build_tc,
    build_tch,
    jump_operator,
    photon_number_operator,
    pulse_value,
)

import oracles
from strategies import networks

ORACLE_TOL = 1e-12

CONFIGS = [
    NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), max_photons=2),
    NetworkConfig(n_cavities=1, atoms_per_cavity=(2,), couplings=(0.7, 1.3), max_photons=2),
    NetworkConfig(
        n_cavities=3,
        atoms_per_cavity=(1, 1, 1),
        couplings=(1e-3, 1e-3, 1e-3),
        max_photons=2,
    ),
    NetworkConfig(
        n_cavities=2,
        atoms_per_cavity=(2, 1),
        couplings=(0.5, 0.9, 1.1),
        max_photons=3,
        omega=1.7,
    ),
    NetworkConfig(n_cavities=4, atoms_per_cavity=(0, 0, 0, 0), max_photons=1, omega=2.0),
]

HOPS = {
    2: [HopSpec(0, 1, amplitude=0.3, phase=0.4)],
    3: [HopSpec(0, 1, amplitude=0.2), HopSpec(1, 2, amplitude=0.5, phase=-1.1)],
    4: [
        HopSpec(0, 1, amplitude=0.2, phase=0.3),
        HopSpec(1, 2, amplitude=0.4, phase=2.2),
        HopSpec(0, 3, amplitude=0.9, phase=-0.7),
        HopSpec(2, 3, amplitude=0.1),
    ],
}


def all_sectors(cfg, limit=64):
    for sector in range(cfg.max_sector + 1):
        try:
            space = HilbertSpace(cfg, sector)
        except ValueError:
            continue
        if space.dim <= limit:
            yield space


@pytest.mark.parametrize("cfg", CONFIGS)
def test_tc_blocks_match_oracle(cfg):
    for space in all_sectors(cfg):
        for cavity in range(cfg.n_cavities):
            produced = build_tc(space, cavity).matrix
            expected = oracles.project_to_sector(oracles.full_tc(cfg, cavity), space)
            assert np.max(np.abs(produced - expected)) < ORACLE_TOL


@pytest.mark.parametrize("cfg", CONFIGS)
def test_network_hamiltonian_matches_oracle(cfg):
    hops = HOPS.get(cfg.n_cavities, [])
    for space in all_sectors(cfg):
        produced = build_tch(space, hops).matrix
        full = sum(
            (oracles.full_tc(cfg, c) for c in range(cfg.n_cavities)),
            np.zeros_like(oracles.full_tc(cfg, 0)),
        )
        for hop in hops:
            full = full + oracles.full_hop(cfg, hop.i, hop.j, hop.amplitude, hop.phase)
        expected = oracles.project_to_sector(full, space)
        assert np.max(np.abs(produced - expected)) < ORACLE_TOL


@pytest.mark.parametrize("cfg", CONFIGS)
def test_jump_and_number_operators_match_oracle(cfg):
    hops = HOPS.get(cfg.n_cavities, [])
    for space in all_sectors(cfg):
        for hop in hops:
            produced = jump_operator(space, hop).matrix
            expected = oracles.project_to_sector(
                oracles.full_hop(cfg, hop.i, hop.j, hop.amplitude, hop.phase), space
            )
            assert np.max(np.abs(produced - expected)) < ORACLE_TOL
        for cavity in range(cfg.n_cavities):
            produced = photon_number_operator(space, cavity).matrix
            expected = oracles.project_to_sector(
                oracles.full_photon_number(cfg, cavity), space
            )
            assert np.max(np.abs(produced - expected)) < ORACLE_TOL


@pytest.mark.parametrize("cfg", CONFIGS)
def test_full_space_excitation_conservation(cfg):
    # the interaction commutes with total excitation number on the full
    # product space, so sector block-diagonalization loses nothing
    hops = HOPS.get(cfg.n_cavities, [])
    full = sum(
        (oracles.full_tc(cfg, c) for c in range(cfg.n_cavities)),
        np.zeros_like(oracles.full_tc(cfg, 0)),
    )
    for hop in hops:
        full = full + oracles.full_hop(cfg, hop.i, hop.j, hop.amplitude, hop.phase)
    n_total = oracles.full_total_number(cfg)
    comm = full @ n_total - n_total @ full
    assert np.max(np.abs(comm)) < 1e-12


def test_single_atom_doublet_spectrum():
    # one cavity, one atom: the n-excitation doublet splits by g * sqrt(n)
    g = 0.37
    cfg = NetworkConfig(
        n_cavities=1, atoms_per_cavity=(1,), couplings=(g,), max_photons=2, omega=1.3
    )
    for n in (1, 2):
        space = HilbertSpace(cfg, n)
        w = np.linalg.eigvalsh(build_tc(space, 0).matrix)
        expected = np.array([n * 1.3 - g * math.sqrt(n), n * 1.3 + g * math.sqrt(n)])
        assert np.allclose(w, expected, atol=1e-12)


def test_singlet_does_not_couple():
    # equal couplings: the antisymmetric atom pair never exchanges with the mode
    cfg = NetworkConfig(n_cavities=1, atoms_per_cavity=(2,), couplings=(0.8, 0.8))
    space = HilbertSpace(cfg, 1)
    h = build_tc(space, 0).matrix
    amps = np.zeros(space.dim, dtype=complex)
    singlet = singlet_product([(0, 1)])
    index = oracles.state_index(space)
    amps[index[(0, 0, 1)]] = singlet[1]
    amps[index[(0, 1, 0)]] = singlet[2]
    out = h @ amps
    photon_idx = index[(1, 0, 0)]
    assert abs(out[photon_idx]) < 1e-15


def test_hermiticity_and_eigensystem_cache():
    cfg = CONFIGS[3]
    space = HilbertSpace(cfg, 2)
    h = build_tch(space, HOPS[2])
    assert h.hermiticity_defect() < 1e-15
    assert h.is_hermitian()
    w1, v1 = h.eigensystem()
    w2, v2 = h.eigensystem()
    assert w1 is w2 and v1 is v2  # cached
    skew = OperatorMatrix(space, 1j * np.eye(space.dim))
    assert not skew.is_hermitian()
    with pytest.raises(ValueError):
        skew.eigensystem()


def test_duplicate_and_out_of_range_hops_rejected():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(0, 0), max_photons=1)
    space = HilbertSpace(cfg, 1)
    with pytest.raises(ValueError):
        build_tch(space, [HopSpec(0, 1), HopSpec(1, 0)])
    with pytest.raises(ValueError):
        build_tch(space, [HopSpec(0, 5)])


def test_pulse_envelope_and_area():
    pulse = GaussianPulse(amplitude=2.0, center=5.0, sigma=0.5)
    assert pulse_value(pulse, 5.0) == 2.0
    assert pulse_value(pulse, 5.0 + 6.0 * 0.5 + 1e-9) == 0.0
    assert pulse_value(pulse, 5.0 - 6.0 * 0.5 - 1e-9) == 0.0
    # area rule: numerically integrate the envelope
    area = math.pi / 2.0
    amp = amplitude_for_area(area, 0.5)
    p = GaussianPulse(amplitude=amp, center=3.0, sigma=0.5)
    t = np.linspace(0.0, 6.0, 20001)
    vals = np.array([pulse_value(p, ti) for ti in t])
    measured = np.trapezoid(vals, t)
    assert abs(measured - area) < 1e-6 * area
    with pytest.raises(ValueError):
        amplitude_for_area(1.0, 0.0)


@pytest.mark.parametrize("field", ["amplitude", "center", "sigma", "cutoff"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_pulse_refuses_non_finite_fields(field, value):
    fields = {"amplitude": 1.25, "center": 3.0, "sigma": 0.5, "cutoff": 6.0, field: value}
    with pytest.raises(ValueError, match=f"pulse {field} must be finite"):
        GaussianPulse(**fields)


@settings(max_examples=40, deadline=None)
@given(networks())
def test_builders_match_oracle_on_random_networks(network):
    space, hops = network
    cfg = space.config
    full = sum((oracles.full_tc(cfg, c) for c in range(cfg.n_cavities)),
               np.zeros_like(oracles.full_tc(cfg, 0)))
    for cavity in range(cfg.n_cavities):
        expected = oracles.project_to_sector(oracles.full_tc(cfg, cavity), space)
        assert np.max(np.abs(build_tc(space, cavity).matrix - expected)) < ORACLE_TOL
        expected = oracles.project_to_sector(oracles.full_photon_number(cfg, cavity), space)
        assert np.max(np.abs(photon_number_operator(space, cavity).matrix - expected)) < ORACLE_TOL
    for hop in hops:
        hop_full = oracles.full_hop(cfg, hop.i, hop.j, hop.amplitude, hop.phase)
        expected = oracles.project_to_sector(hop_full, space)
        assert np.max(np.abs(jump_operator(space, hop).matrix - expected)) < ORACLE_TOL
        full = full + hop_full
    expected = oracles.project_to_sector(full, space)
    assert np.max(np.abs(build_tch(space, hops).matrix - expected)) < ORACLE_TOL


@settings(max_examples=60, deadline=None)
@given(networks())
def test_array_builders_equal_the_entrywise_loops(network):
    space, hops = network
    cfg = space.config
    assert space.occupations.tolist() == [list(t) for t in oracles.occupations_loop(cfg, space.sector)]
    for cavity in range(cfg.n_cavities):
        assert np.array_equal(build_tc(space, cavity).matrix, oracles.build_tc_loop(space, cavity))
    for hop in hops:
        assert np.array_equal(jump_operator(space, hop).matrix, oracles.jump_operator_loop(space, hop))
    assert np.array_equal(build_tch(space, hops).matrix, oracles.build_tch_loop(space, hops))
