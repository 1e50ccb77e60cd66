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
from dataclasses import dataclass

import numpy as np

from .basis import as_int

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
    sign from centering the momentum band; ``WalkStream`` computes that
    matched form."""
    if not 0.0 < t < math.inf:
        raise ValueError("the kernel is defined for positive finite t only")
    if not 0.0 < mass < math.inf:
        raise ValueError("mass must be positive and finite")
    x = np.asarray(x, dtype=float)
    return t ** -0.5 * np.exp(1j * mass * x**2 / t)


def kernel_band_edge(n: int, t: float, mass: float) -> float:
    """The largest |x - x0| whose stationary momentum at time t lies safely
    inside the band (0.8 of its edge), where the free-particle kernel
    describes the ring dynamics: 0.8 (sqrt(n) / 2) t / (2 pi mass)."""
    return 0.8 * (math.sqrt(n) / 2.0) * t / (2.0 * math.pi * mass)


# Work budget, refused before anything is allocated: n_cavities x n_times
# cells, which bounds the run's time and CSV size.  The CLI streams the walk
# a block of time rows at a time, so its peak grows with n_cavities only:
# on 2 cores with numpy 2.4, about 1.1 kB a cavity above the interpreter's
# 31 MB.  At the limit, 131,072 cavities at 64 times peak at 166 MB and
# write 1.8 GB of CSV in 11 s; 65,536 cavities at 51 times peak at 99 MB.
MAX_CELLS = 2**23


@dataclass(frozen=True)
class WalkConfig:
    """Walk run parameters.  ``t_max = None`` picks mass/4, early enough
    that the spreading photon has not wrapped around the ring.  ValueError
    for a counter (n_cavities, origin, n_times) that is not an integer
    (numpy integers pass), fewer than 3 time samples (the fit needs two
    after t = 0), more than ``MAX_CELLS`` cells (cavities times time
    samples), or a mass or horizon that puts the largest band energy, or
    its phase at t_max, the kernel's phase, or the edge of the kernel's
    validity band, beyond the float range."""

    n_cavities: int = 128
    mass: float = 1.0
    origin: int | None = None
    t_max: float | None = None
    n_times: int = 51

    def __post_init__(self):
        if as_int(self.n_cavities, "n_cavities") < 2:
            raise ValueError("need at least two cavities")
        if self.n_cavities % 2:
            raise ValueError("need an even number of cavities (momentum must commute with H)")
        if not 0.0 < self.mass < math.inf:
            raise ValueError("mass must be positive and finite")
        if self.origin is not None and not 0 <= as_int(self.origin, "origin") < self.n_cavities:
            raise ValueError("origin cavity out of range")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        # ballistic_exponent fits the samples after t = 0
        if as_int(self.n_times, "n_times") < 3:
            raise ValueError("need at least two positive-time variance samples")
        cells = self.n_cavities * self.n_times
        if cells > MAX_CELLS:
            raise ValueError(f"{self.n_cavities} cavities at {self.n_times} times make {cells} "
                             f"cells, more than the limit of {MAX_CELLS}")
        # the band energy p^2 / 2m at p = -sqrt(n) / 2, as simulate_walk forms it
        top = (0.5 * math.sqrt(self.n_cavities)) ** 2 / (2.0 * self.mass)
        if not top < math.inf:
            raise ValueError(f"mass {self.mass:g} puts the largest band energy, "
                             "n_cavities / (8 mass), beyond the float range")
        if not top * self.resolved_t_max < math.inf:
            raise ValueError(f"t_max {self.resolved_t_max:g} times the largest band energy "
                             f"{top:g} is beyond the float range")
        # the kernel's phase at the first sample after t = 0, whose reciprocal
        # numpy's complex division forms
        step = self.resolved_t_max / (self.n_times - 1)
        if not (step > 0.0 and 2.0 * math.pi**2 * self.mass * self.n_cavities * (1.0 / step)
                < math.inf):
            raise ValueError(f"mass {self.mass:g} over the time step {step:g} puts the kernel "
                             "phase, 2 pi^2 mass n_cavities / step, beyond the float range")
        # the band the walk compares the kernel within
        if not kernel_band_edge(self.n_cavities, self.resolved_t_max, self.mass) < math.inf:
            raise ValueError(f"t_max {self.resolved_t_max:g} over mass {self.mass:g} puts the "
                             "kernel band's edge, 0.4 sqrt(n_cavities) t_max / (2 pi mass), "
                             "beyond the float range")

    @property
    def resolved_origin(self) -> int:
        return self.n_cavities // 2 if self.origin is None else self.origin

    @property
    def resolved_t_max(self) -> float:
        return self.mass / 4.0 if self.t_max is None else self.t_max

    @property
    def times(self) -> np.ndarray:
        """The n_times sample times, evenly from 0 to resolved_t_max."""
        return np.linspace(0.0, self.resolved_t_max, self.n_times)

    @property
    def positions(self) -> np.ndarray:
        """The cavity positions x_q = q / sqrt(N), in cavity order."""
        return np.arange(self.n_cavities) / math.sqrt(self.n_cavities)


@dataclass
class WalkResult:
    """The walk's conservation checks and analytic comparisons."""

    config: WalkConfig
    variances: np.ndarray  # position variance per time
    momentum_drift: float
    norm_drift: float
    # largest | |psi(x0 + d)| - |psi(x0 - d)| |, zero by the ring's mirror symmetry
    reflection_residual: float
    # |<kernel|psi>| / (|kernel| |psi|) at t_max over the kernel band, 0 if either is 0
    kernel_overlap: float
    # log-log slope of the variances after t = 0; 2 means ballistic spreading
    ballistic_exponent: float


# Cells of a walk block, about: four time rows of the benchmark's
# 1024-cavity ring
_BLOCK_CELLS = 4096


class WalkStream:
    """The walk of one config, computed a few time rows at a time.

    Iterating yields one (amplitudes, kernel, populations) block of the next
    time rows at a time, three (rows, N) arrays in cavity order: the complex
    amplitudes, the lattice-matched kernel (zero at t = 0) and the
    momentum-basis magnitudes, in buffers that the next block overwrites,
    so the peak does not grow with the number of times.  As it runs, the
    stream keeps ``momentum_drift``, ``norm_drift``, ``reflection_residual``
    and ``variances`` (one per time) up to date, and sets
    ``kernel_overlap`` with the last block.

    A block starts at a multiple of 4 rows, holds about _BLOCK_CELLS cells
    in a multiple of 4 rows, and the last one ends at the last time with at
    least two rows.  So every variance row goes through the same kernel of
    the BLAS matrix-vector product as in one product over every time on one
    thread (OpenBLAS computes its rows in groups of 4, and one row alone
    goes to a dot product), and the variances do not depend on the block
    size or the BLAS thread count.

    H = F diag(E) F^H with F[q, a] = exp(-2 pi i q a / n) / sqrt(n), so the
    photon leaving the origin is F exp(-i E t) F^H e_origin: one FFT per
    time.  The momentum eigenvectors are the columns of A^-1 F,
    A = diag((-1)^a).  Every buffer is allocated once and filled in place."""

    def __init__(self, config: WalkConfig):
        n, m = config.n_cavities, config.mass
        origin = config.resolved_origin
        self.config = config
        self.times = config.times
        self._positions = positions = config.positions
        a = np.arange(n)
        self._energies = momentum_values(n) ** 2 / (2.0 * m)  # p^2 / 2m, in Fourier order
        self._launch = np.exp(2j * np.pi * (a * origin % n) / n)
        self._alternating = (-1.0) ** a
        self._mirror = (2 * origin - a) % n
        self._squares = positions**2
        # feynman_kernel's phase numerator at the lattice-matched mass, and the
        # exact alternating sign from centering the momentum band at zero
        self._phase = 1j * (2.0 * math.pi**2 * m) * (positions - positions[origin])**2
        self._band_sign = np.exp(-1j * np.pi * (a - origin))
        # the kernel band: sites within kernel_band_edge, and the origin's neighbors
        offsets = np.abs((a - origin + n // 2) % n - n // 2)
        edge = kernel_band_edge(n, float(self.times[-1]), m)
        self._band = (offsets / np.sqrt(n) <= edge) | (offsets <= 2)
        self.variances = np.empty(config.n_times)
        self.momentum_drift = self.norm_drift = self.reflection_residual = 0.0
        self.kernel_overlap = 0.0
        step = 4 * max(1, _BLOCK_CELLS // (4 * n))
        bounds = list(range(0, config.n_times, step)) + [config.n_times]
        if bounds[-1] - bounds[-2] < 2:
            del bounds[-2]  # a last row alone joins the block before it
        self._bounds = bounds
        rows = max(np.diff(bounds))
        self._work = np.empty((rows, n), complex)
        self._amplitudes = np.empty((rows, n), complex)
        self._kernel = np.empty((rows, n), complex)
        self._populations = np.empty((rows, n))
        self._mag = np.empty((rows, n))
        self._scratch = np.empty((rows, n))
        self._means = np.empty(rows)
        self._first = np.empty(n)

    def __iter__(self):
        n = self.config.n_cavities
        self.momentum_drift = self.norm_drift = self.reflection_residual = 0.0
        for start, stop in zip(self._bounds[:-1], self._bounds[1:]):
            k = stop - start
            t = self.times[start:stop]
            work, scratch = self._work[:k], self._scratch[:k]
            amplitudes, populations = self._amplitudes[:k], self._populations[:k]
            phases = np.multiply(t[:, None], self._energies, out=populations)  # E t, for now
            np.multiply(-1j, phases, out=work)
            np.exp(work, out=work)
            np.multiply(work, self._launch, out=work)
            np.fft.fft(work, axis=1, out=amplitudes)
            np.divide(amplitudes, n, out=amplitudes)
            np.multiply(self._alternating, amplitudes, out=work)
            np.fft.ifft(work, axis=1, out=work)
            np.abs(work, out=populations)
            np.multiply(math.sqrt(n), populations, out=populations)
            if start == 0:
                self._first[:] = populations[0]
            drift = np.abs(np.subtract(populations, self._first, out=scratch), out=scratch)
            self.momentum_drift = max(self.momentum_drift, float(np.max(drift)))

            mag = np.abs(amplitudes, out=self._mag[:k])
            np.take(mag, self._mirror, axis=1, out=scratch)
            np.subtract(mag, scratch, out=scratch)
            self.reflection_residual = max(self.reflection_residual,
                                           float(np.max(np.abs(scratch, out=scratch))))
            prob = np.square(mag, out=mag)
            sums = np.sum(prob, axis=1, out=self._means[:k])
            sums -= 1.0
            self.norm_drift = max(self.norm_drift, float(np.max(np.abs(sums, out=sums))))
            means = np.matmul(prob, self._positions, out=self._means[:k])
            variances = np.matmul(prob, self._squares, out=self.variances[start:stop])
            variances -= np.square(means, out=means)

            kernel = self._kernel[:k]
            for row, time in zip(kernel, t):
                if time > 0.0:  # feynman_kernel's steps, in place
                    np.divide(self._phase, time, out=row)
                    np.exp(row, out=row)
                    np.multiply(time ** -0.5, row, out=row)
                    np.multiply(self._band_sign, row, out=row)
                else:
                    row[:] = 0.0
            if stop == self.config.n_times:
                psi_final = amplitudes[-1, self._band]
                ker_final = kernel[-1, self._band]
                denom = np.linalg.norm(psi_final) * np.linalg.norm(ker_final)
                self.kernel_overlap = (float(abs(np.vdot(ker_final, psi_final)) / denom)
                                       if denom > 0 else 0.0)
            yield amplitudes, kernel, populations


def ring_profile(config: WalkConfig) -> list[tuple[int, int, float, float]]:
    """(separation, n_links, amplitude, phase) per hop distance of the walk's
    ring: the n - d hops at separation d all equal the first-row entry c[d]
    of the circulant, c = ifft(band energies); separations are kept under
    coupling_network's default tolerance."""
    n = config.n_cavities
    row = np.fft.ifft(momentum_values(n) ** 2 / (2.0 * config.mass))
    sep = np.flatnonzero(np.abs(row[1:]) > 1e-12) + 1
    links = row[sep]
    return list(zip(
        sep.tolist(), (n - sep).tolist(), np.abs(links).tolist(), np.angle(links).tolist()
    ))


def simulate_walk(config: WalkConfig, write) -> WalkResult:
    """Spread one photon from the origin cavity under the free-particle
    Hamiltonian, streamed: the blocks of a ``WalkStream`` go to
    write(amplitudes, kernel) one time's rows at a time, as each block is
    computed (amplitudes and lattice-matched kernel values at the same
    points; see feynman_kernel for the unit conversion).  The result holds
    the stream's position variances and conservation checks (momentum-basis
    populations are conserved because momentum commutes with the
    generator), and the variance's ``ballistic_exponent``, whose ValueError
    (fewer than two positive variances, as when they underflow) ends the
    walk after its last row.

    The kernel describes the dynamics where the stationary momentum lies
    inside the band, |x - x0| < (sqrt(N)/2) t / (2 pi m); outside that cone
    propagation is bandwidth-limited and the comparison is not meaningful."""
    stream = WalkStream(config)
    for amplitudes, kernel, _ in stream:
        for row in zip(amplitudes, kernel):
            write(*row)
    return WalkResult(
        config=config,
        variances=stream.variances,
        momentum_drift=stream.momentum_drift,
        norm_drift=stream.norm_drift,
        reflection_residual=stream.reflection_residual,
        kernel_overlap=stream.kernel_overlap,
        ballistic_exponent=ballistic_exponent(stream.times, stream.variances),
    )


def ballistic_exponent(times, variances) -> float:
    """Log-log slope of variance growth; 2 means ballistic spreading.  The
    least-squares slope over the samples with positive time and variance,
    sum((x - mean x)(y - mean y)) / sum((x - mean x)^2) of x = log t and
    y = log variance: ValueError for fewer than two such samples, or for
    samples all at one time."""
    times = np.asarray(times, dtype=float)
    variances = np.asarray(variances, dtype=float)
    mask = (times > 0.0) & (variances > 0.0)
    if mask.sum() < 2:
        raise ValueError("need at least two positive-time variance samples")
    x = np.log(times[mask])
    y = np.log(variances[mask])
    x -= x.mean()
    y -= y.mean()
    spread = np.sum(x * x)
    if not spread > 0.0:
        raise ValueError("need variance samples at two different times")
    return float(np.sum(x * y) / spread)
