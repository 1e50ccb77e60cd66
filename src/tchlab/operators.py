"""Hamiltonian builders for cavity networks in the rotating-wave approximation.

Per-cavity physics: a shared-frequency mode exchanging excitations with its
atoms through a collective coupling (each atom enters with its own strength
g_j).  Between cavities, photons hop with a complex amplitude.  All builders
return dense complex matrices restricted to one excitation sector; matrix
elements carry the usual sqrt(n) bosonic enhancements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import BasisState, HilbertSpace


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


def coupling_strength(
    omega: float,
    volume: float,
    dipole: float,
    position: float,
    length: float,
    hbar: float = 1.0,
) -> float:
    """Atom-field coupling sqrt(hbar omega / V) * d * sin(pi x / L) for an
    atom at ``position`` inside a cavity of mode length ``length``."""
    if volume <= 0.0:
        raise ValueError("mode volume must be positive")
    if length <= 0.0:
        raise ValueError("cavity length must be positive")
    if not 0.0 <= position <= length:
        raise ValueError(f"position {position} outside the cavity [0, {length}]")
    return math.sqrt(hbar * omega / volume) * dipole * math.sin(math.pi * position / length)


def build_tc(space: HilbertSpace, cavity: int) -> OperatorMatrix:
    """Single-cavity block: omega * (photon number + excited atoms in the
    cavity) plus the excitation exchange a^dag sigma_j^- * g_j + h.c. for
    every atom j in the cavity.

    Exchange elements between |n>|e_j> and |n+1>|g_j> are g_j sqrt(n+1);
    pairs pushed past the photon truncation are dropped (both directions,
    so the output stays Hermitian).
    """
    cfg = space.config
    if not 0 <= cavity < cfg.n_cavities:
        raise ValueError(f"cavity index {cavity} out of range")
    atoms = list(cfg.atom_range(cavity))
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for s, state in enumerate(space.states):
        n = state.photons[cavity]
        local_exc = n + sum(state.atom_bits[j] for j in atoms)
        h[s, s] += cfg.omega * local_exc
        for j in atoms:
            if state.atom_bits[j] != 1 or n + 1 > cfg.max_photons:
                continue
            photons = list(state.photons)
            photons[cavity] = n + 1
            bits = list(state.atom_bits)
            bits[j] = 0
            target = BasisState(tuple(photons), tuple(bits))
            t = space.index_of(target)
            g = cfg.couplings[j] * math.sqrt(n + 1)
            h[t, s] += g
            h[s, t] += g
    return OperatorMatrix(space, h)


def _add_hop(h: np.ndarray, space: HilbertSpace, hop: HopSpec) -> None:
    cfg = space.config
    if hop.i >= cfg.n_cavities or hop.j >= cfg.n_cavities:
        raise ValueError(f"hop {hop.pair} references a missing cavity")
    amp = hop.amplitude * np.exp(1j * hop.phase)
    for s, state in enumerate(space.states):
        nj = state.photons[hop.j]
        ni = state.photons[hop.i]
        if nj < 1 or ni + 1 > cfg.max_photons:
            continue
        photons = list(state.photons)
        photons[hop.j] = nj - 1
        photons[hop.i] = ni + 1
        target = BasisState(tuple(photons), state.atom_bits)
        t = space.index_of(target)
        val = amp * math.sqrt(nj) * math.sqrt(ni + 1)
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
    diag = np.array([s.photons[cavity] for s in space.states], dtype=float)
    return OperatorMatrix(space, np.diag(diag).astype(complex))
