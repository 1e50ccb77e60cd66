"""Hamiltonian builders for cavity networks in the rotating-wave approximation.

Per-cavity physics: a shared-frequency mode exchanging excitations with its
atoms through a collective coupling (each atom enters with its own strength
g_j).  Between cavities, photons hop with a complex amplitude.  All builders
return dense complex matrices restricted to one excitation sector (the
single-cavity block scatters its matrix on first use); matrix elements
carry the usual sqrt(n) bosonic enhancements.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import HilbertSpace


class OperatorMatrix:
    """A dense operator on one excitation sector, with a cached spectral
    decomposition for repeated exact propagation."""

    def __init__(self, space: HilbertSpace, matrix):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.shape != (space.dim, space.dim):
            raise ValueError(
                f"matrix shape {matrix.shape} does not match space dim {space.dim}"
            )
        self.space = space
        self.matrix = matrix
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T), initial=0.0))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        scale = max(1.0, float(np.max(np.abs(self.matrix), initial=0.0)))
        return self.hermiticity_defect() <= tol * scale

    def eigensystem(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues and eigenvectors (columns); cached. Hermitian only."""
        if self._eig is None:
            if not self.is_hermitian(1e-10):
                raise ValueError("eigensystem cache is for Hermitian operators only")
            w, v = np.linalg.eigh(self.matrix)
            self._eig = (w, v)
        return self._eig


@dataclass(frozen=True)
class HopSpec:
    """One photon-hopping link: amplitude * e^{i phase} a_i^dag a_j + h.c."""

    i: int
    j: int
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.i == self.j:
            raise ValueError("hop endpoints must differ")
        if self.i < 0 or self.j < 0:
            raise ValueError("hop endpoints must be non-negative cavity indices")
        if not math.isfinite(self.amplitude) or not math.isfinite(self.phase):
            raise ValueError("hop amplitude and phase must be finite")

    @property
    def pair(self) -> tuple[int, int]:
        return (min(self.i, self.j), max(self.i, self.j))


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian envelope amplitude * exp(-(t-center)^2 / 2 sigma^2), treated
    as exactly zero beyond ``cutoff`` sigmas from the center."""

    amplitude: float
    center: float
    sigma: float
    cutoff: float = 6.0

    def __post_init__(self):
        for name in ("amplitude", "center", "sigma", "cutoff"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"pulse {name} must be finite")
        if self.sigma <= 0.0:
            raise ValueError("pulse sigma must be positive")
        if self.cutoff <= 0.0:
            raise ValueError("pulse cutoff must be positive")


def pulse_value(pulse: GaussianPulse, t):
    """Envelope value at time t, or at every time of an array t (zero
    outside the truncation window)."""
    offset = np.asarray(t, dtype=float) - pulse.center
    inside = np.abs(offset) <= pulse.cutoff * pulse.sigma
    values = np.where(inside, pulse.amplitude * np.exp(-0.5 * (offset / pulse.sigma) ** 2), 0.0)
    return values[()]  # a scalar time gives a scalar


def amplitude_for_area(area: float, sigma: float) -> float:
    """Peak amplitude giving the requested time-integrated pulse area."""
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    return area / (sigma * math.sqrt(2.0 * math.pi))


class TCBlock(OperatorMatrix):
    """One cavity's TC block as ``build_tc`` returns it: the real diagonal
    and the exchange elements values[k] at (rows[k], cols[k]) and at
    (cols[k], rows[k]), each pair met once.  ``matrix`` scatters them into
    the dense operator on first use; the emission study applies the block
    through its pairs and never forms the dim x dim matrix."""

    def __init__(self, space: HilbertSpace, diagonal, rows, cols, values):
        self.space = space
        self.diagonal, self.rows, self.cols, self.values = diagonal, rows, cols, values
        self._eig = None

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        h = np.zeros((self.space.dim, self.space.dim), dtype=complex)
        h[np.diag_indices(self.space.dim)] = self.diagonal
        h[self.rows, self.cols] = h[self.cols, self.rows] = self.values
        return h


def build_tc(space: HilbertSpace, cavity: int) -> TCBlock:
    """Single-cavity block: omega * (photon number + excited atoms in the
    cavity) plus the excitation exchange a^dag sigma_j^- * g_j + h.c. for
    every atom j in the cavity.

    Exchange elements between |n>|e_j> and |n+1>|g_j> are g_j sqrt(n+1),
    all real: rows are the states |n+1>|g_j>, columns the states |n>|e_j>
    they come from.  Pairs pushed past the photon truncation are dropped
    (both directions, so the output stays Hermitian).
    """
    cfg = space.config
    if not 0 <= cavity < cfg.n_cavities:
        raise ValueError(f"cavity index {cavity} out of range")
    atoms = np.arange(cfg.atom_range(cavity).start, cfg.atom_range(cavity).stop)
    n, bits = space.occupations[:, cavity], space.occupations[:, cfg.n_cavities + atoms]
    diagonal = cfg.omega * (n + bits.sum(axis=1))
    # each excited atom next to room for a photon: |n>|e_j> -> |n+1>|g_j>
    s, k = np.nonzero((bits == 1) & (n < cfg.max_photons)[:, None])
    target = space.occupations[s]
    target[:, cavity] += 1
    target[np.arange(len(s)), cfg.n_cavities + atoms[k]] = 0
    values = np.array(cfg.couplings)[atoms[k]] * np.sqrt(n[s] + 1)
    return TCBlock(space, diagonal, space.rank(target), s, values)


def _add_hop(h: np.ndarray, space: HilbertSpace, hop: HopSpec) -> None:
    cfg = space.config
    if hop.i >= cfg.n_cavities or hop.j >= cfg.n_cavities:
        raise ValueError(f"hop {hop.pair} references a missing cavity")
    amp = hop.amplitude * np.exp(1j * hop.phase)
    occ = space.occupations
    s = np.flatnonzero((occ[:, hop.j] >= 1) & (occ[:, hop.i] < cfg.max_photons))
    target = occ[s]
    target[:, hop.j] -= 1
    target[:, hop.i] += 1
    t = space.rank(target)
    val = amp * np.sqrt(occ[s, hop.j]) * np.sqrt(occ[s, hop.i] + 1)
    h[t, s] += val
    h[s, t] += np.conj(val)


def build_tch(space: HilbertSpace, hops=()) -> OperatorMatrix:
    """Full network Hamiltonian: the sum of every cavity's block plus the
    photon-hopping terms.  Each unordered cavity pair may appear at most once
    in ``hops``."""
    seen: set[tuple[int, int]] = set()
    for hop in hops:
        if hop.pair in seen:
            raise ValueError(f"duplicate hop between cavities {hop.pair}")
        seen.add(hop.pair)
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for cavity in range(space.config.n_cavities):
        h += build_tc(space, cavity).matrix
    for hop in hops:
        _add_hop(h, space, hop)
    return OperatorMatrix(space, h)


def jump_operator(space: HilbertSpace, hop: HopSpec) -> OperatorMatrix:
    """The bare photon-exchange term for one link, amplitude included:
    amplitude * e^{i phase} a_i^dag a_j + h.c.

    For pulsed evolution, pass amplitude 1.0 and let the pulse envelope carry
    the time-dependent strength.
    """
    h = np.zeros((space.dim, space.dim), dtype=complex)
    _add_hop(h, space, hop)
    return OperatorMatrix(space, h)


def photon_number_operator(space: HilbertSpace, cavity: int) -> OperatorMatrix:
    """Diagonal photon-number operator of one cavity."""
    if not 0 <= cavity < space.config.n_cavities:
        raise ValueError(f"cavity index {cavity} out of range")
    return OperatorMatrix(space, np.diag(space.occupations[:, cavity].astype(complex)))
