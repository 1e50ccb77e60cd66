"""A free massive particle emulated by one photon on a cavity ring.

Positions are the N cavity labels mapped to x_q = q / sqrt(N), so the ring
spans [0, sqrt(N)).  The discrete Fourier transform defines a momentum
operator with the exact spectrum sqrt(N) (a/N - 1/2) for a = 0..N-1, and the
free Hamiltonian is that momentum squared over twice the mass, diagonal in
the same Fourier basis: it is circulant, and the walk runs on FFTs.  Its
matrix elements are the hop amplitudes and phases a physical cavity chain
would need in order to realize the particle.  Being circulant, the matrix is
fixed by its first row c = ifft(band energies): every hop at separation d has
the value c[d], and the walk reads its distance profile from c alone, with
exact row values as the per-separation means.

The momentum operator follows the half-shift-conjugated Fourier form
A^-1 F D F^-1 A with A = diag(e^{i pi a}).  For even N that conjugation is a
half-ring translation in Fourier space, so momentum and the free Hamiltonian
commute exactly; odd N breaks the translation and the commutation with it,
so walks need even N.  The walk forms neither operator as an N x N matrix:
their dense forms are the references in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


def momentum_values(n: int) -> np.ndarray:
    """The exact momentum spectrum sqrt(n) * (a/n - 1/2), a = 0..n-1."""
    if n < 2:
        raise ValueError("need at least two sites")
    a = np.arange(n)
    return math.sqrt(n) * (a / n - 0.5)


@dataclass
class CouplingNetwork:
    """Cavity-chain realization of a one-photon Hamiltonian: per-cavity
    energies plus a hop table of records (q, p, amplitude, phase), q < p."""

    n: int
    diagonal: np.ndarray
    hops: np.recarray

    def to_matrix(self) -> np.ndarray:
        q, p = self.hops.q, self.hops.p
        m = np.diag(self.diagonal.astype(complex))
        m[q, p] = self.hops.amplitude * np.exp(1j * self.hops.phase)
        m[p, q] = np.conj(m[q, p])
        return m

    def distance_profile(self) -> list[tuple[int, int, float, float]]:
        """Per-separation aggregates (distance, count, mean amplitude,
        mean phase) over all hops."""
        separation = self.hops.p - self.hops.q
        counts = np.bincount(separation)
        r_sums = np.bincount(separation, weights=self.hops.amplitude)
        phi_sums = np.bincount(separation, weights=self.hops.phase)
        return [
            (int(d), int(counts[d]), float(r_sums[d] / counts[d]), float(phi_sums[d] / counts[d]))
            for d in np.flatnonzero(counts)
        ]


def coupling_network(h: np.ndarray) -> CouplingNetwork:
    """Read a Hermitian one-photon Hamiltonian as a cavity network: every
    entry above the diagonal larger than 1e-12 in magnitude is a hop."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError("need a square matrix")
    if np.max(np.abs(h - h.conj().T)) > 1e-9 * max(1.0, float(np.max(np.abs(h)))):
        raise ValueError("need a Hermitian matrix")
    n = h.shape[0]
    q, p = np.triu_indices(n, k=1)
    keep = np.abs(h[q, p]) > 1e-12
    q, p = q[keep], p[keep]
    links = h[q, p]
    hops = np.rec.fromarrays([q, p, np.abs(links), np.angle(links)], names="q,p,amplitude,phase")
    return CouplingNetwork(n=n, diagonal=np.real(np.diag(h)).copy(), hops=hops)


def feynman_kernel(x, t: float, mass: float):
    """Free-particle propagator profile t^{-1/2} exp(i m x^2 / t), in units
    with hbar = 1.  Only the x-dependence at fixed t matters for
    comparisons, so the overall normalization is 1.  Undefined at t <= 0.

    In the lattice units used by the walk (positions q / sqrt(N), Fourier
    phases 2 pi q a / N, plain exp(-i E t) time phases), the stationary-phase
    limit of the ring dynamics for particle mass m carries the curvature of
    ``mass = 2 pi^2 m`` in this parametrization, times an exact alternating
    sign from centering the momentum band; ``simulate_walk`` stores that
    matched form."""
    if not 0.0 < t < math.inf:
        raise ValueError("the kernel is defined for positive finite t only")
    if not 0.0 < mass < math.inf:
        raise ValueError("mass must be positive and finite")
    x = np.asarray(x, dtype=float)
    return t ** -0.5 * np.exp(1j * mass * x**2 / t)


@dataclass(frozen=True)
class WalkConfig:
    """Walk run parameters.  ``t_max = None`` picks mass/4, early enough
    that the spreading photon has not wrapped around the ring."""

    n_cavities: int = 128
    mass: float = 1.0
    origin: int | None = None
    t_max: float | None = None
    n_times: int = 51

    def __post_init__(self):
        if self.n_cavities < 2:
            raise ValueError("need at least two cavities")
        if self.n_cavities % 2:
            raise ValueError("need an even number of cavities (momentum must commute with H)")
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if self.origin is not None and not 0 <= self.origin < self.n_cavities:
            raise ValueError("origin cavity out of range")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        if self.n_times < 2:
            raise ValueError("need at least two time samples")

    @property
    def resolved_origin(self) -> int:
        return self.n_cavities // 2 if self.origin is None else self.origin

    @property
    def resolved_t_max(self) -> float:
        return self.mass / 4.0 if self.t_max is None else self.t_max


@dataclass
class WalkResult:
    """Simulated single-photon spread plus the analytic comparisons."""

    config: WalkConfig
    times: np.ndarray
    positions: np.ndarray  # x_q = q / sqrt(N), cavity order
    amplitudes: np.ndarray  # (n_times, N) complex, cavity order
    kernel: np.ndarray  # (n_times, N) complex, lattice-matched; zero at t = 0
    variances: np.ndarray
    momentum_populations: np.ndarray  # (n_times, N) magnitudes
    momentum_drift: float
    norm_drift: float
    # (separation, n_links, amplitude, phase) per hop distance of the ring
    network_profile: list[tuple[int, int, float, float]] = field(repr=False)


def simulate_walk(config: WalkConfig) -> WalkResult:
    """Spread one photon from the origin cavity under the free-particle
    Hamiltonian and tabulate everything the comparisons need: amplitudes,
    lattice-matched kernel values at the same points (see feynman_kernel for
    the unit conversion), position variance, and momentum-basis populations
    (conserved because momentum commutes with the generator).

    The kernel describes the dynamics where the stationary momentum lies
    inside the band, |x - x0| < (sqrt(N)/2) t / (2 pi m); outside that cone
    propagation is bandwidth-limited and the comparison is not meaningful."""
    n = config.n_cavities
    m = config.mass
    origin = config.resolved_origin
    times = np.linspace(0.0, config.resolved_t_max, config.n_times)

    # H = F diag(E) F^H with F[q, a] = exp(-2 pi i q a / n) / sqrt(n), so the
    # photon leaving the origin is F exp(-i E t) F^H e_origin: one FFT per time
    a = np.arange(n)
    energies = momentum_values(n) ** 2 / (2.0 * m)  # p^2 / 2m, in Fourier order
    launch = np.exp(2j * np.pi * (a * origin % n) / n)
    phases = np.exp(-1j * np.outer(times, energies))
    amplitudes = np.fft.fft(phases * launch, axis=1) / n
    # the momentum eigenvectors are the columns of A^-1 F, A = diag((-1)^a)
    populations = math.sqrt(n) * np.abs(np.fft.ifft((-1.0) ** a * amplitudes, axis=1))
    momentum_drift = float(np.max(np.abs(populations - populations[0])))

    positions = a / math.sqrt(n)
    prob = np.abs(amplitudes) ** 2
    norm_drift = float(np.max(np.abs(prob.sum(axis=1) - 1.0)))
    mean = prob @ positions
    variances = prob @ positions**2 - mean**2

    x0 = positions[origin]
    # exact alternating sign from centering the momentum band at zero
    band_sign = np.exp(-1j * np.pi * (a - origin))
    kernel = np.zeros((len(times), n), dtype=complex)
    for i, t in enumerate(times):
        if t > 0.0:
            kernel[i] = band_sign * feynman_kernel(
                positions - x0, t, 2.0 * math.pi**2 * m
            )

    # the n - d hops at separation d all equal the first-row entry c[d];
    # separations are kept under coupling_network's default tolerance
    row = np.fft.ifft(energies)
    sep = np.flatnonzero(np.abs(row[1:]) > 1e-12) + 1
    links = row[sep]
    profile = list(zip(
        sep.tolist(), (n - sep).tolist(), np.abs(links).tolist(), np.angle(links).tolist()
    ))

    return WalkResult(
        config=config,
        times=times,
        positions=positions,
        amplitudes=amplitudes,
        kernel=kernel,
        variances=variances,
        momentum_populations=populations,
        momentum_drift=momentum_drift,
        norm_drift=norm_drift,
        network_profile=profile,
    )


def ballistic_exponent(times, variances) -> float:
    """Log-log slope of variance growth; 2 means ballistic spreading."""
    times = np.asarray(times, dtype=float)
    variances = np.asarray(variances, dtype=float)
    mask = (times > 0.0) & (variances > 0.0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive-time variance samples")
    slope, _ = np.polyfit(np.log(times[mask]), np.log(variances[mask]), 1)
    return float(slope)
