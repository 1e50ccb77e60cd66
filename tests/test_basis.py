import types

import pytest

import tchlab
from tchlab import BasisState, HilbertSpace, NetworkConfig, enumerate_basis, state_index


def test_config_defaults_and_derived():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(1, 2))
    assert cfg.couplings == (1.0, 1.0, 1.0)
    assert cfg.n_atoms == 3
    assert list(cfg.atom_range(0)) == [0]
    assert list(cfg.atom_range(1)) == [1, 2]
    assert cfg.atom_cavity(0) == 0
    assert cfg.atom_cavity(2) == 1
    assert cfg.max_sector == 2 * 2 + 3


def test_config_validation():
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=0, atoms_per_cavity=())
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=2, atoms_per_cavity=(1,))
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=1, atoms_per_cavity=(-1,))
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), max_photons=0)
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), omega=0.0)
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=1, atoms_per_cavity=(2,), couplings=(1.0,))
    with pytest.raises(ValueError):
        NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), couplings=(0.0,))


def test_enumeration_matches_hand_list():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(1, 0), max_photons=1)
    states = enumerate_basis(cfg, 1)
    assert [s.as_tuple() for s in states] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    states = enumerate_basis(cfg, 2)
    assert [s.as_tuple() for s in states] == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_enumeration_is_sorted_and_sectored():
    cfg = NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1), max_photons=2)
    for sector in range(cfg.max_sector + 1):
        states = enumerate_basis(cfg, sector)
        tuples = [s.as_tuple() for s in states]
        assert tuples == sorted(tuples)
        assert all(s.total_excitations == sector for s in states)
        assert all(max(s.photons) <= 2 for s in states)


def test_gate_register_sector_dimension():
    cfg = NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1), max_photons=2)
    assert HilbertSpace(cfg, 2).dim == 18


def test_empty_sector_raises():
    cfg = NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), max_photons=1)
    with pytest.raises(ValueError):
        enumerate_basis(cfg, 5)
    with pytest.raises(ValueError):
        enumerate_basis(cfg, -1)


def test_large_atomless_ring_enumerates_fast():
    cfg = NetworkConfig(n_cavities=128, atoms_per_cavity=(0,) * 128, max_photons=1)
    space = HilbertSpace(cfg, 1)
    assert space.dim == 128
    # one photon per state, each cavity once
    assert sorted(s.photons.index(1) for s in space.states) == list(range(128))


def test_index_roundtrip_and_rejection():
    cfg = NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1), max_photons=2)
    space = HilbertSpace(cfg, 2)
    for i, state in enumerate(space.states):
        assert space.index_of(state) == i
        assert state_index(space, state) == i
    with pytest.raises(ValueError):
        space.index_of(BasisState((1, 0, 0), (0, 0, 0)))  # wrong sector
    with pytest.raises(ValueError):
        space.index_of(BasisState((3, 0, 0), (0, 0, 0)))  # beyond truncation


def test_package_exports_names_not_submodules():
    assert "HilbertSpace" in tchlab.__all__
    assert not [n for n in tchlab.__all__ if isinstance(getattr(tchlab, n), types.ModuleType)]


def test_basis_state_str():
    assert str(BasisState((1, 0), (0, 1))) == "|1,0;01>"
    assert str(BasisState((2,), ())) == "|2>"

