import types

import numpy as np
import pytest
from oracles import occupations_loop

import tchlab
from tchlab.basis import HilbertSpace, NetworkConfig
from tchlab.darkstates import DecayConfig
from tchlab.walk import WalkConfig


def _rows(config, sector):
    return [tuple(row) for row in HilbertSpace(config, sector).occupations.tolist()]


def test_config_defaults_and_derived():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(1, 2))
    assert cfg.couplings == (1.0, 1.0, 1.0)
    assert cfg.n_atoms == 3
    assert list(cfg.atom_range(0)) == [0]
    assert list(cfg.atom_range(1)) == [1, 2]
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
    assert _rows(cfg, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert _rows(cfg, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]


def test_enumeration_is_sorted_and_sectored():
    cfg = NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1), max_photons=2)
    for sector in range(cfg.max_sector + 1):
        rows = _rows(cfg, sector)
        assert rows == sorted(rows)
        assert all(sum(row) == sector for row in rows)
        assert all(max(row[:3]) <= 2 and max(row[3:]) <= 1 for row in rows)


def test_gate_register_sector_dimension():
    cfg = NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1), max_photons=2)
    assert HilbertSpace(cfg, 2).dim == 18


def test_empty_sector_raises():
    cfg = NetworkConfig(n_cavities=1, atoms_per_cavity=(1,), max_photons=1)
    with pytest.raises(ValueError):
        HilbertSpace(cfg, 5)
    with pytest.raises(ValueError):
        HilbertSpace(cfg, -1)


def test_large_atomless_ring_enumerates_fast():
    cfg = NetworkConfig(n_cavities=128, atoms_per_cavity=(0,) * 128, max_photons=1)
    space = HilbertSpace(cfg, 1)
    assert space.dim == 128
    # one photon per state, each cavity once
    assert sorted(row.index(1) for row in space.occupations.tolist()) == list(range(128))


def test_index_roundtrip_on_the_large_ring():
    # mixed-radix keys over 128 cavities would need 2**128 values; the rank
    # stays below the dimension
    cfg = NetworkConfig(n_cavities=128, atoms_per_cavity=(0,) * 128, max_photons=1)
    for sector in (1, 2):
        space = HilbertSpace(cfg, sector)
        assert space.dim == {1: 128, 2: 128 * 127 // 2}[sector]
        assert np.array_equal(space.rank(space.occupations), np.arange(space.dim))


def test_occupations_rank_back_to_their_indices():
    cfg = NetworkConfig(n_cavities=2, atoms_per_cavity=(2, 1), max_photons=3)
    for sector in range(cfg.max_sector + 1):
        space = HilbertSpace(cfg, sector)
        assert _rows(cfg, sector) == occupations_loop(cfg, sector)
        assert np.array_equal(space.rank(space.occupations), np.arange(space.dim))


@pytest.mark.parametrize("row", [
    (1, 0, 0, 0, 0, 0),  # one excitation short of the sector
    (3, 0, 0, 0, 0, 0),  # past the photon cap, and one too many
    (2, 1, 0, -1, 0, 0),  # a negative atom
    (0, 0, 0, 2, 0, 0),  # past the atom cap
])
def test_rank_refuses_rows_outside_the_sector(row):
    # the gate register: three one-atom cavities, two excitations, 18 states
    space = HilbertSpace(NetworkConfig(n_cavities=3, atoms_per_cavity=(1, 1, 1)), 2)
    with pytest.raises(ValueError):
        space.rank(row)
    with pytest.raises(ValueError):
        space.rank([space.occupations[0], row])


def test_package_root_binds_only_its_version():
    # each name is imported from the module that defines it
    public = [name for name, value in vars(tchlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public == []
    assert isinstance(tchlab.__version__, str)


@pytest.mark.parametrize("config, field, value", [
    (WalkConfig, "n_cavities", 64.0),
    (WalkConfig, "origin", 3.5),
    (WalkConfig, "n_times", 11.0),
    (DecayConfig, "n_times", 101.0),
])
def test_config_counters_refuse_non_integers(config, field, value):
    # refused at construction, not as an IndexError or TypeError in the run;
    # a numpy integer passes
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        config(**{field: value})
    assert getattr(config(**{field: np.int64(int(value))}), field) == int(value)


@pytest.mark.parametrize("field, value", [
    ("n_cavities", 2.0),
    ("atoms_per_cavity", (1.0, 1)),
    ("max_photons", 1.5),
])
def test_network_counters_refuse_non_integers(field, value):
    # refused at construction, not as a TypeError when the space enumerates
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        NetworkConfig(**{"n_cavities": 2, "atoms_per_cavity": (1, 1), field: value})
    numpy_counters = NetworkConfig(n_cavities=np.int64(2), atoms_per_cavity=(np.int64(1), 1),
                                   max_photons=np.int64(1))
    space = HilbertSpace(NetworkConfig(n_cavities=2, atoms_per_cavity=(1, 1), max_photons=1), 1)
    assert np.array_equal(HilbertSpace(numpy_counters, 1).occupations, space.occupations)
