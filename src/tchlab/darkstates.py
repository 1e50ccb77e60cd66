"""Optical selection of dark (collectively decoupled) atomic states.

A register of two-level atoms in one leaky cavity couples to the mode only
through the collective lowering operator sum_j g_j sigma_j^-.  States the
collective raising operator annihilates (singlets, for equal couplings)
never absorb the probe photon, so the photon leaks out with exactly the
empty-cavity profile.  Any other state hybridizes with the mode; in the
strong-coupling regime the dressed components with more photons leak
faster, so the first arrival shifts earlier on average.  Either way the
arrival-time statistics of the leaked photon separate "dark" from "light"
hypotheses.

Atomic basis indices are the bit patterns of the excited flags, atom 0 most
significant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import HilbertSpace, NetworkConfig
from .evolution import NumericalDriftError, _lossy_propagation
from .operators import build_tc


# ---------------------------------------------------------------------------
# state constructors
# ---------------------------------------------------------------------------

def triplet_state() -> np.ndarray:
    """Two-atom symmetric one-excitation state (|01> + |10>) / sqrt(2)."""
    t = np.zeros(4, dtype=complex)
    t[1] = 1.0 / math.sqrt(2.0)
    t[2] = 1.0 / math.sqrt(2.0)
    return t


def singlet_product(pairing) -> np.ndarray:
    """Tensor product of singlets over a perfect matching of the atoms.

    ``pairing`` is a sequence of index pairs covering 0..n-1 exactly once,
    e.g. ((0, 1), (2, 3)) or the crossed ((0, 2), (1, 3)).  Each pair (i, j)
    with i < j contributes (|0_i 1_j> - |1_i 0_j>) / sqrt(2).
    """
    pairs = [tuple(sorted(p)) for p in pairing]
    if not pairs:
        raise ValueError("pairing must contain at least one pair")
    flat = [a for p in pairs for a in p]
    n = len(flat)
    if sorted(flat) != list(range(n)):
        raise ValueError("pairing must cover atoms 0..n-1 exactly once")
    amps = np.zeros(2**n, dtype=complex)
    weight = (1.0 / math.sqrt(2.0)) ** len(pairs)
    for choices in itertools.product((0, 1), repeat=len(pairs)):
        index = 0
        sign = 1.0
        for (i, j), c in zip(pairs, choices):
            # c = 0 puts the excitation on atom j (plus branch), c = 1 on atom i
            hi, lo = (i, j) if c else (j, i)
            index |= 1 << (n - 1 - hi)
            if c:
                sign = -sign
        amps[index] = sign * weight
    return amps


# ---------------------------------------------------------------------------
# darkness check
# ---------------------------------------------------------------------------

class DarknessReport(NamedTuple):
    is_dark: bool
    absorption_residual: float
    emission_residual: float


def is_dark(psi_at, couplings) -> DarknessReport:
    """Check whether an atomic state decouples from the cavity mode.

    The absorption channel is the collective raising operator applied to the
    state (can it take a photon?), the emission channel the collective
    lowering (can it give one up?).  Darkness means the absorption residual
    is below 1e-9."""
    psi_at = np.asarray(psi_at, dtype=complex)
    n = len(couplings)
    if psi_at.shape != (2**n,):
        raise ValueError("atomic state dimension must be 2**n_atoms")
    if not abs(np.vdot(psi_at, psi_at).real - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("atomic state must be normalized")
    lowered, raised = _collective_products(psi_at, couplings)
    absorption = float(np.linalg.norm(raised))
    emission = float(np.linalg.norm(lowered))
    return DarknessReport(absorption < 1e-9, absorption, emission)


def _collective_products(psi_at: np.ndarray, couplings):
    """(L psi, L^dag psi) for L = sum_j g_j sigma_j^- (atom 0 the most
    significant bit), by bit arithmetic over the register index: atom j
    moves each ground index to ground | bit (raising) and back (lowering).
    Rows are register indices, so psi may also be a matrix of columns."""
    n = len(couplings)
    raised = np.zeros_like(psi_at)
    lowered = np.zeros_like(psi_at)
    index = np.arange(2**n)
    for j, g in enumerate(couplings):
        bit = 1 << (n - 1 - j)
        ground = index[index & bit == 0]
        raised[ground | bit] += float(g) * psi_at[ground]
        lowered[ground] += float(g) * psi_at[ground | bit]
    return lowered, raised


# ---------------------------------------------------------------------------
# leaky-cavity emission
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayConfig:
    """One leaky cavity holding the atomic register.

    ``kappa = None`` picks a photon loss rate of a tenth of the first
    coupling (or 1e-4 with no atoms); ``t_max = None`` observes for 20
    photon lifetimes."""

    couplings: tuple[float, ...] = (1e-3, 1e-3)
    kappa: float | None = None
    omega: float = 1.0
    n_times: int = 2001

    t_max: float | None = None

    def __post_init__(self):
        if self.kappa is not None and not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if self.n_times < 3:
            raise ValueError("need at least three time samples")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))

    @property
    def n_atoms(self) -> int:
        return len(self.couplings)

    @property
    def resolved_kappa(self) -> float:
        if self.kappa is not None:
            return self.kappa
        base = self.couplings[0] if self.couplings else 1e-3
        return base / 10.0

    @property
    def resolved_t_max(self) -> float:
        return 20.0 / self.resolved_kappa if self.t_max is None else self.t_max


@dataclass
class EmissionReport:
    """Survival curve and emission-time density of the probe photon."""

    config: DecayConfig
    sector: int
    times: np.ndarray
    survival: np.ndarray
    density: np.ndarray
    escape_probability: float
    mean_emission_time: float  # censored at t_max
    basis_dim: int  # dimension of the widest basis a decay span ran in
    closure_bound: float  # sum of the spans' amplitude error bounds


def emission_density(psi_at, config: DecayConfig) -> EmissionReport:
    """Evolve photon + atomic state under the lossy cavity and tabulate the
    survival probability S(t) and emission density p(t) = -dS/dt.

    The decay runs in restarted Krylov spans under the lossy generator,
    applied through the TC block's exchange pairs and the diagonal photon
    loss, so no sector matrix is formed.  A singlet product reaches one
    dimension and the triplet reference three, and either covers the
    horizon in one span.  The spans' error bounds sum to at most 1e-10 per
    unit amplitude, so S is exact within 2e-10.  The report records the
    widest basis and that sum.

    The density comes from centered differences of S; a grid too coarse to
    keep p non-negative (beyond -1e-6), or so fine that its differences are
    NaN, raises NumericalDriftError, as does a broken balance between the
    integrated density and the remaining survival."""
    psi_at = np.asarray(psi_at, dtype=complex)
    s = config.n_atoms
    if psi_at.shape != (2**s,):
        raise ValueError("atomic state dimension must be 2**n_atoms")
    if not abs(np.vdot(psi_at, psi_at).real - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("atomic state must be normalized")
    # the largest component fixes the sector, and every component must lie in it
    excitations = bin(int(np.argmax(np.abs(psi_at)))).count("1")
    sector = 1 + excitations
    support = np.flatnonzero(psi_at)
    occupations = np.ones((len(support), 1 + s), dtype=np.int64)
    occupations[:, 1:] = (support[:, None] >> np.arange(s - 1, -1, -1)) & 1
    if np.any(occupations.sum(axis=1) != sector):
        raise ValueError(f"atomic state has components outside {excitations} excitations")
    # photons never exceed the total excitation count, so this cap is exact
    network = NetworkConfig(
        n_cavities=1,
        atoms_per_cavity=(s,),
        couplings=config.couplings,
        max_photons=sector,
        omega=config.omega,
    )
    space = HilbertSpace(network, sector)
    kappa = config.resolved_kappa
    # On one cavity the diagonal of the TC block is exactly omega * sector.
    # Removing it changes only a global phase, and keeps the rounding floor
    # of omega out of the residual that closes the reachable basis; the
    # photon loss -i kappa/2 n is all that stays on the diagonal.
    block = build_tc(space, 0)
    rows, cols, values = block.rows, block.cols, block.values
    loss = (block.diagonal - config.omega * sector) - 0.5j * kappa * space.occupations[:, 0]
    # The exchange values are real and enter in symmetric pairs, so they add
    # nothing to the anti-Hermitian part of the generator: that part is
    # diagonal, and its eigenvalues are loss.imag.
    if float(np.max(loss.imag)) > 1e-12 * max(1.0, kappa):
        raise ValueError("effective generator has a growing direction")

    def generator_times(v):
        out = loss * v
        np.add.at(out, rows, values * v[cols])
        np.add.at(out, cols, values * v[rows])
        return out

    amps = np.zeros(space.dim, dtype=complex)
    amps[space.rank(occupations)] = psi_at[support]

    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    run = _lossy_propagation(generator_times, amps, times[1] - times[0], len(times) - 1)
    survival = run.survival

    # a step whose square underflows makes the differences NaN, refused below
    with np.errstate(divide="ignore", invalid="ignore"):
        density = -np.gradient(survival, times)
    if not float(density.min()) >= -1e-6:  # NaN fails too
        raise NumericalDriftError(
            f"emission density dips to {density.min():.3e}; the time grid does not resolve it"
        )
    balance = float(np.trapezoid(density, times)) + float(survival[-1])
    if not abs(balance - 1.0) <= 1e-4:  # NaN fails too
        raise NumericalDriftError(
            f"density + survival balance off by {balance - 1.0:.3e}"
        )
    mean = float(np.trapezoid(times * density, times)) + times[-1] * float(survival[-1])
    return EmissionReport(
        config=config,
        sector=sector,
        times=times,
        survival=survival,
        density=density,
        escape_probability=1.0 - float(survival[-1]),
        mean_emission_time=mean,
        basis_dim=run.basis_dim,
        closure_bound=run.closure_bound,
    )


# ---------------------------------------------------------------------------
# sampling and classification
# ---------------------------------------------------------------------------

@dataclass
class EmissionSamples:
    """Monte Carlo emission times; censored entries sit at t_max."""

    times: np.ndarray
    censored: np.ndarray

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())


def sample_emission_times(report: EmissionReport, n_trials: int, rng=None) -> EmissionSamples:
    """Inverse-CDF draws from the numeric emission density.  Trials whose
    uniform draw exceeds the total escape probability are censored at the
    observation horizon."""
    if n_trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(rng)
    cdf = np.maximum.accumulate(1.0 - report.survival)
    u = rng.random(n_trials)
    times = np.interp(u, cdf, report.times)
    censored = u > cdf[-1]
    times[censored] = report.times[-1]
    return EmissionSamples(times=times, censored=censored)


@dataclass
class Classification:
    decision: str
    z_score: float
    n_trials: int
    sample_mean: float
    threshold: float
    dark_mean: float
    light_mean: float
    detector_error: float
    n_censored: int | None


def classify_dark(
    samples,
    dark_mean: float,
    light_mean: float,
    detector_error: float = 0.03,
    rng=None,
) -> Classification:
    """Decide dark vs light from sampled emission times.

    Detector error flips each sample's evidence with probability epsilon by
    mirroring it across the hypothesis midpoint; at epsilon = 1/2 the mean
    carries no information and the z-score collapses.  The decision compares
    the (flipped) sample mean with the midpoint threshold; an exact tie goes
    to "light"."""
    if not 0.0 <= detector_error <= 1.0:
        raise ValueError("detector_error must lie in [0, 1]")
    if dark_mean == light_mean:
        raise ValueError("hypotheses with equal means cannot be classified")
    if isinstance(samples, EmissionSamples):
        times = samples.times
        n_censored = samples.n_censored
    else:
        times = np.asarray(samples, dtype=float)
        n_censored = None
    n = len(times)
    if n < 2:
        raise ValueError("need at least two samples")
    rng = np.random.default_rng(rng)
    flips = rng.random(n) < detector_error
    observed = np.where(flips, dark_mean + light_mean - times, times)
    threshold = 0.5 * (dark_mean + light_mean)
    mean = float(observed.mean())
    se = float(observed.std(ddof=1)) / math.sqrt(n)
    if se > 0.0:
        z = (mean - threshold) / se
    else:  # identical samples: certain, unless they sit on the threshold
        z = math.copysign(math.inf, mean - threshold) if mean != threshold else 0.0
    if mean == threshold:
        decision = "light"
    elif (mean < threshold) == (dark_mean < threshold):
        decision = "dark"
    else:
        decision = "light"
    return Classification(
        decision=decision,
        z_score=float(z),
        n_trials=n,
        sample_mean=mean,
        threshold=threshold,
        dark_mean=dark_mean,
        light_mean=light_mean,
        detector_error=detector_error,
        n_censored=n_censored,
    )
