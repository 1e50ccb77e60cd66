"""Sectored Fock-space bookkeeping for cavity networks with two-level atoms.

A network is a chain of single-mode cavities, each holding zero or more
two-level atoms.  Every interaction built on top of these spaces conserves
the total excitation number (photons plus excited atoms), so basis states
are enumerated one excitation sector at a time and operators never couple
across sectors by construction.

Basis order is ascending lexicographic on the concatenated occupation tuple,
photon numbers first (cavity 0, 1, ...), then atom bits (flat, cavity-major).

``HilbertSpace`` holds the map between states and indices: ``occupations``
lists the basis as rows (photon numbers, then atom bits), and ``rank`` maps
rows back to indices by the combinatorial number system, one table lookup
per slot.  A rank stays below the sector dimension where a mixed-radix key
over many cavities would overflow.  A basis state is nothing but its row:
the builders move excitations between the columns of ``occupations`` and
rank the results, so no per-state object is ever made.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np


def as_int(value, name: str) -> int:
    """``operator.index(value)``, so numpy integers pass and floats of
    integer value do not; ValueError naming ``name`` else.  The one check
    every study's configuration applies to its counters."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {value!r}") from None


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of a cavity network.  A counter that is not an
    integer (numpy integers pass) is refused with ValueError.

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
        if as_int(self.n_cavities, "n_cavities") < 1:
            raise ValueError("need at least one cavity")
        if len(self.atoms_per_cavity) != self.n_cavities:
            raise ValueError("atoms_per_cavity length must match n_cavities")
        if any(as_int(a, "atoms_per_cavity") < 0 for a in self.atoms_per_cavity):
            raise ValueError("atom counts must be non-negative")
        if as_int(self.max_photons, "max_photons") < 1:
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

    @property
    def max_sector(self) -> int:
        return self.n_cavities * self.max_photons + self.n_atoms


def _below_table(caps: np.ndarray, sector: int) -> np.ndarray:
    """``below[i, r, v]``: how many sector states precede a state holding v
    at slot i with r excitations left for slots i.., among those that agree
    with it before slot i.  Rows r that no sector state leaves at slot i are
    zero, so no count exceeds the sector dimension and int64 cannot wrap."""
    below = np.zeros((len(caps), sector + 1, caps.max() + 2), dtype=np.int64)
    fill = np.zeros(sector + 1, dtype=np.int64)
    fill[0] = 1  # the one filling of no slots
    for i in range(len(caps) - 1, -1, -1):
        for v in range(1, below.shape[2]):
            below[i, :, v] = below[i, :, v - 1]
            below[i, v - 1 :, v] += fill[: max(0, sector + 2 - v)]
        fill = below[i, :, caps[i] + 1].copy()
        fill[: max(0, sector - caps[:i].sum())] = 0
    return below


class HilbertSpace:
    """A single excitation sector of a cavity network, its basis as occupation rows."""

    def __init__(self, config: NetworkConfig, sector: int):
        self.config = config
        self.sector = sector
        self._caps = np.array((config.max_photons,) * config.n_cavities + (1,) * config.n_atoms)
        if not 0 <= sector <= config.max_sector:
            raise ValueError(
                f"sector {sector} is empty for this network (valid sectors are 0..{config.max_sector})"
            )
        self._below = _below_table(self._caps, sector)
        # unrank 0..dim-1: each slot takes the largest v whose count fits the index left
        index, left = np.arange(self._below[0, sector, self._caps[0] + 1]), sector
        self.occupations = np.empty((len(index), len(self._caps)), dtype=np.int64)
        for i, cap in enumerate(self._caps):
            v = np.count_nonzero(self._below[i, left, 1 : cap + 1] <= index[:, None], axis=1)
            index, left = index - self._below[i, left, v], left - v
            self.occupations[:, i] = v
        self.occupations.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.occupations)

    def rank(self, rows) -> np.ndarray:
        """Basis index of each occupation row (last axis laid out like a row
        of ``occupations``); ValueError unless every row is a state of this
        sector, each slot within 0 and its photon or atom cap."""
        rows = np.asarray(rows)
        if np.any(rows < 0) or np.any(rows > self._caps) or np.any(rows.sum(axis=-1) != self.sector):
            raise ValueError(f"occupation rows outside sector {self.sector} or its caps")
        left = self.sector - np.cumsum(rows, axis=-1) + rows
        return self._below[np.arange(rows.shape[-1]), left, rows].sum(axis=-1)

    def __repr__(self) -> str:
        return (
            f"HilbertSpace(n_cavities={self.config.n_cavities}, "
            f"sector={self.sector}, dim={self.dim})"
        )
