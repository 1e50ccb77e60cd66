"""Sectored Fock-space bookkeeping for cavity networks with two-level atoms.

A network is a chain of single-mode cavities, each holding zero or more
two-level atoms.  Every interaction built on top of these spaces conserves
the total excitation number (photons plus excited atoms), so basis states
are enumerated one excitation sector at a time and operators never couple
across sectors by construction.

Basis order is ascending lexicographic on the concatenated occupation tuple,
photon numbers first (cavity 0, 1, ...), then atom bits (flat, cavity-major).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of a cavity network.

    Parameters
    ----------
    n_cavities : int
        Number of single-mode cavities in the chain.
    atoms_per_cavity : tuple of int
        How many two-level atoms sit in each cavity.
    couplings : tuple of float, optional
        Per-atom coupling strength, flat and cavity-major.  Defaults to 1.0
        for every atom.
    max_photons : int
        Per-cavity photon-number truncation (inclusive).
    omega : float
        Shared photon/atom transition frequency, in units with hbar = 1.
    """

    n_cavities: int
    atoms_per_cavity: tuple[int, ...]
    couplings: tuple[float, ...] | None = None
    max_photons: int = 2
    omega: float = 1.0

    def __post_init__(self):
        if self.n_cavities < 1:
            raise ValueError("need at least one cavity")
        if len(self.atoms_per_cavity) != self.n_cavities:
            raise ValueError("atoms_per_cavity length must match n_cavities")
        if any(a < 0 for a in self.atoms_per_cavity):
            raise ValueError("atom counts must be non-negative")
        if self.max_photons < 1:
            raise ValueError("max_photons must be at least 1")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if self.couplings is None:
            object.__setattr__(self, "couplings", (1.0,) * self.n_atoms)
        else:
            object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
        if len(self.couplings) != self.n_atoms:
            raise ValueError("couplings length must equal the total atom count")
        if not all(0.0 < g < math.inf for g in self.couplings):
            raise ValueError("couplings must be positive and finite")

    @property
    def n_atoms(self) -> int:
        return sum(self.atoms_per_cavity)

    def atom_range(self, cavity: int) -> range:
        """Flat atom indices belonging to ``cavity``."""
        start = sum(self.atoms_per_cavity[:cavity])
        return range(start, start + self.atoms_per_cavity[cavity])

    def atom_cavity(self, atom: int) -> int:
        """Cavity that flat atom index ``atom`` belongs to."""
        if not 0 <= atom < self.n_atoms:
            raise ValueError(f"atom index {atom} out of range")
        for cavity in range(self.n_cavities):
            if atom in self.atom_range(cavity):
                return cavity
        raise AssertionError("unreachable")

    @property
    def max_sector(self) -> int:
        return self.n_cavities * self.max_photons + self.n_atoms


@dataclass(frozen=True, order=True)
class BasisState:
    """One occupation-number basis state: photon numbers plus atom bits."""

    photons: tuple[int, ...]
    atom_bits: tuple[int, ...]

    @property
    def total_excitations(self) -> int:
        return sum(self.photons) + sum(self.atom_bits)

    def as_tuple(self) -> tuple[int, ...]:
        return self.photons + self.atom_bits

    def __str__(self) -> str:
        ph = ",".join(str(n) for n in self.photons)
        at = "".join(str(b) for b in self.atom_bits)
        return f"|{ph};{at}>" if self.atom_bits else f"|{ph}>"


def _occupations(caps, total):
    # ascending lexicographic fill of slots with per-slot caps summing to total
    if not caps:
        if total == 0:
            yield ()
        return
    rest = caps[1:]
    rest_cap = sum(rest)
    for v in range(max(0, total - rest_cap), min(caps[0], total) + 1):
        for tail in _occupations(rest, total - v):
            yield (v,) + tail


def enumerate_basis(config: NetworkConfig, sector: int) -> list[BasisState]:
    """All basis states with ``total_excitations == sector``, in ascending
    lexicographic order of the concatenated occupation tuple.

    Raises ValueError if no state satisfies the sector bound.
    """
    caps = (config.max_photons,) * config.n_cavities + (1,) * config.n_atoms
    n_cav = config.n_cavities
    states = [
        BasisState(t[:n_cav], t[n_cav:]) for t in _occupations(caps, sector)
    ]
    if not states:
        raise ValueError(
            f"sector {sector} is empty for this network "
            f"(valid sectors are 0..{config.max_sector})"
        )
    return states


class HilbertSpace:
    """A single excitation sector of a cavity network, with index lookup."""

    def __init__(self, config: NetworkConfig, sector: int):
        self.config = config
        self.sector = sector
        self.states = enumerate_basis(config, sector)
        self._index = {s: i for i, s in enumerate(self.states)}

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: BasisState) -> int:
        """Position of ``state`` in the basis; ValueError if it lies outside
        this sector (or violates the photon truncation)."""
        try:
            return self._index[state]
        except KeyError:
            raise ValueError(f"state {state} is not in sector {self.sector}") from None

    def __repr__(self) -> str:
        return (
            f"HilbertSpace(n_cavities={self.config.n_cavities}, "
            f"sector={self.sector}, dim={self.dim})"
        )


def state_index(space: HilbertSpace, state: BasisState) -> int:
    """Index of ``state`` in ``space``; ValueError if not in the sector."""
    return space.index_of(state)
