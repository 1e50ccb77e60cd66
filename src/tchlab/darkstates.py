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

The decay, ``_lossy_propagation``, sums over the sector in numpy's own
loops rather than BLAS, so its bytes do not depend on the thread count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import HilbertSpace, NetworkConfig, as_int
from .evolution import NumericalDriftError
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

# Work budgets, refused before anything is allocated.  On 2 cores with
# numpy 2.4, 18 atoms peak at about 890 MB, mostly in the TC block's
# exchange pairs (each two more atoms take about four times as much);
# 1,000,000 time samples peak at about 610 MB and write 110 MB of CSV; and
# 10,000,000 emission draws peak at about 290 MB.
MAX_ATOMS = 18
MAX_TIMES = 1_000_000
MAX_TRIALS = 10_000_000
# the largest coupling or loss rate: the decay sums squares of products of
# the generator, which stay finite below this on every register up to
# MAX_ATOMS atoms
MAX_RATE = 1e150


@dataclass(frozen=True)
class DecayConfig:
    """One leaky cavity holding the atomic register.

    ``kappa = None`` picks a photon loss rate of a tenth of the first
    coupling (or 1e-4 with no atoms); ``t_max = None`` observes for 20
    photon lifetimes.  ValueError for a register above ``MAX_ATOMS`` atoms,
    an n_times that is not an integer (numpy integers pass) or above
    ``MAX_TIMES``, a coupling or loss rate outside (0, ``MAX_RATE``], a
    default horizon beyond the float range, or a generator step (the
    largest rate times the time step) that overflows, or an omega that is
    not positive and finite or whose diagonal, omega times the register's
    largest excitation count, overflows."""

    couplings: tuple[float, ...] = (1e-3, 1e-3)
    kappa: float | None = None
    omega: float = 1.0
    n_times: int = 2001

    t_max: float | None = None

    def __post_init__(self):
        if self.kappa is not None and not 0.0 < self.kappa <= MAX_RATE:
            raise ValueError(f"kappa must be positive and finite, at most {MAX_RATE:g}")
        if not 3 <= as_int(self.n_times, "n_times") <= MAX_TIMES:
            raise ValueError(f"need at least three time samples, and at most {MAX_TIMES}")
        if self.t_max is not None and not 0.0 < self.t_max < math.inf:
            raise ValueError("t_max must be positive and finite")
        couplings = tuple(float(g) for g in self.couplings)
        object.__setattr__(self, "couplings", couplings)
        if len(couplings) > MAX_ATOMS:
            raise ValueError(f"{len(couplings)} atoms exceed the limit of {MAX_ATOMS}")
        if not all(0.0 < g <= MAX_RATE for g in couplings):
            raise ValueError(f"couplings must be positive and finite, at most {MAX_RATE:g}")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if not self.omega * (len(couplings) + 1) < math.inf:
            raise ValueError(f"omega {self.omega:g} times the {len(couplings) + 1} "
                             "excitations of a full register overflows")
        if not self.resolved_t_max < math.inf:
            source = (f"kappa {self.kappa:g}" if self.kappa is not None
                      else f"the default kappa, a tenth of the coupling {couplings[0]:g},")
            raise ValueError(f"{source} puts the default horizon 20 / kappa beyond the "
                             "float range; pass t_max")
        step = self.resolved_t_max / (self.n_times - 1)
        if not max(couplings + (self.resolved_kappa,)) * step < math.inf:
            raise ValueError(f"the generator's step, its largest rate times the time step "
                             f"t_max / (n_times - 1) = {step:g}, overflows")

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
        if self.t_max is not None:
            return self.t_max
        # a default kappa a tenth of a subnormal coupling may round to 0
        return 20.0 / self.resolved_kappa if self.resolved_kappa > 0.0 else math.inf


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
    closure_bound: float  # the runs' error bounds, weighted by their parts' squared norms


def emission_density(psi_at, config: DecayConfig) -> EmissionReport:
    """Evolve photon + atomic state under the lossy cavity and tabulate the
    survival probability S(t) and emission density p(t) = -dS/dt.

    The decay runs in restarted Krylov spans, in real arithmetic: under
    the gauge P = diag(i^n), n the photon number, -i times the lossy
    generator is the real A = K - kappa/2 n with K antisymmetric, applied
    through the TC block's exchange pairs and the diagonal photon loss, so
    no sector matrix is formed.  The start P^-1 psi0 = -i psi0 runs as its
    nonzero real and imaginary parts, one after the other, whose squared
    norms add up to S.  A singlet product reaches one dimension and the
    triplet reference three, and either covers the horizon in one span.
    Each run bounds its error by 1e-10 per unit amplitude; weighted by the
    parts' squared norms, S is exact within 2e-10.  The report records the
    widest basis and the weighted bound.

    The density comes from centered differences of S; a grid too coarse to
    keep p non-negative (beyond -1e-6), or so fine that its differences are
    NaN, raises NumericalDriftError, as does a broken balance between the
    integrated density and the remaining survival, and a step so long
    against the generator's oscillation that the Pade squarings' rounding
    over the grid exceeds ``_ROUNDING_TOLERANCE``."""
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
    # On one cavity the diagonal of the TC block is exactly omega * sector.
    # Dropping it changes only a global phase, and keeps the rounding floor
    # of omega out of the residual that closes the reachable basis.  Under
    # P = diag(i^n), -i times the rest of the lossy generator is the real
    # A = K - kappa/2 n: an exchange value v at (r, c), with one photon more
    # in row r than in column c, becomes K[r, c] = -v and K[c, r] = +v.
    block = build_tc(space, 0)
    rows, cols, values = block.rows, block.cols, block.values
    half_loss = 0.5 * config.resolved_kappa * space.occupations[:, 0]

    def generator_times(v):
        return (np.bincount(cols, values * v[rows], space.dim)
                - np.bincount(rows, values * v[cols], space.dim) - half_loss * v)

    amps = np.zeros(space.dim, dtype=complex)
    amps[space.rank(occupations)] = psi_at[support]
    # every start holds one photon, so P^-1 psi0 = -i psi0; A is real, so
    # the real and imaginary parts decay apart, each copied out contiguous
    # (einsum sums a strided vector in another order)
    start = -1j * amps
    parts = [part.copy() for part in (start.real, start.imag) if part.any()]

    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    runs = [_lossy_propagation(generator_times, part, times[1] - times[0], len(times) - 1)
            for part in parts]
    survival = sum(run.survival for run in runs)

    # a step whose square underflows makes the differences NaN, and one
    # whose square overflows makes them inf or NaN: both are refused below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
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
    rounding = max(run.rounding for run in runs)
    if not rounding <= _ROUNDING_TOLERANCE:
        raise NumericalDriftError(
            f"the decay steps' Pade squarings leave a rounding of about {rounding:.3g} over "
            f"the grid, beyond {_ROUNDING_TOLERANCE:g}; the time step does not resolve the "
            "generator's oscillation"
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
        basis_dim=max(run.basis_dim for run in runs),
        closure_bound=sum(float(np.einsum("i,i->", part, part)) * run.closure_bound
                          for part, run in zip(parts, runs)),
    )


# amplitude error per unit initial norm a decay may spend over its horizon
_CLOSURE_TOLERANCE = 1e-10
# columns a span's basis may hold, doubled while a span fits not one grid step
_BASIS_CAP = 60
# how far the 2-norm of a decay step's exponential may exceed 1 by rounding
_GROWTH_TOLERANCE = 1e-6
# how far the rounding of a run's steps, n_steps 2^s eps for a step whose
# oscillation takes s Pade squarings, may reach: against 40-digit mpmath
# references the survival error stays below 0.045 of that estimate, so at
# most about 9e-11 here
_ROUNDING_TOLERANCE = 2e-9


class _LossyRun(NamedTuple):
    """Result of ``_lossy_propagation``."""

    survival: np.ndarray  # squared norm at each of the n_steps + 1 grid times
    basis_dim: int  # dimension of the widest basis a span ran in
    closure_bound: float  # sum of the spans' amplitude error bounds
    rounding: float  # n_steps 2^s eps for the most squarings s (see _ROUNDING_TOLERANCE)


def _norm(v: np.ndarray) -> float:
    """2-norm of a real vector, summed in numpy's einsum loop, not BLAS."""
    return math.sqrt(float(np.einsum("i,i->", v, v)))


def _reachable_basis(apply, psi0: np.ndarray, horizon: float, cap: int):
    """At most ``cap`` orthonormal vectors Q of the Krylov space of the real
    generator A and psi0, with B and the norm of r in A Q = Q B + r e_k^T,
    read from the Arnoldi recurrence (Saad 1992): column j of B holds the
    coefficients both Gram-Schmidt passes took off the image of vector j,
    and below its diagonal the norm of what was left, the next vector's
    length.  The basis stops at the first k with horizon * |r| within
    ``_CLOSURE_TOLERANCE``, at Q spanning the whole space (r is then 0),
    or at the cap.  ``apply`` maps a real vector to its product with A."""
    dim = psi0.size
    cap = min(cap, dim)
    # writing a vector touches only its own pages: the vectors the basis
    # never reaches stay unmapped
    q = np.empty((cap, dim))
    block = np.zeros((cap, cap))
    q[0] = psi0 / _norm(psi0)
    for k in range(1, cap + 1):
        w = apply(q[k - 1])
        for _ in range(2):  # a second pass restores orthogonality lost to rounding
            coefficients = np.einsum("ki,i->k", q[:k], w)
            block[:k, k - 1] += coefficients
            w = w - np.einsum("ki,k->i", q[:k], coefficients)
        residual = _norm(w) if k < dim else 0.0
        if horizon * residual <= _CLOSURE_TOLERANCE or k == cap:
            return q[:k], block[:k, :k], residual
        block[k, k - 1] = residual
        q[k] = w / residual


def _lossy_propagation(apply, psi0: np.ndarray, dt: float, n_steps: int) -> _LossyRun:
    """Step exp(A dt) psi0 over n_steps equal steps in restarted Krylov
    spans, recording the squared norm at every grid time; ``apply`` maps a
    real vector to its product with A, which callers keep dissipative.
    Each span builds the basis Q of its start psi and steps exp(B dt) of
    the Arnoldi block from c = |psi| e_1 over the grid left.  With
    A Q = Q B + r e_k^T, Duhamel's formula bounds the span's amplitude
    error by |r| times the integral of the last coefficient |c_k|, summed
    on the grid; a span runs while that bound per unit initial norm keeps
    within the share of ``_CLOSURE_TOLERANCE`` its steps take of the
    n_steps, and the next restarts from Q c.  A basis closed within the
    tolerance keeps within it to the horizon, since under a dissipative
    generator |c_k| never exceeds |psi0|; one that fits not one step
    doubles its cap, and one spanning the space has r = 0 and covers the
    rest, so the loop ends.

    B = Q^T A Q is dissipative too, so |exp(B dt)|_2 <= 1: a step
    exponential that grows beyond rounding (an oscillation the Pade
    squarings do not resolve) raises NumericalDriftError before it is
    stepped, and so does a basis spanning the space that fits no step.  The
    run records the rounding its steps' squarings leave over the grid,
    n_steps 2^s eps for the most squarings s the oscillating part of any
    span's step takes, for ``emission_density`` to check."""
    horizon = dt * n_steps
    scale = _norm(psi0)
    survival = np.empty(n_steps + 1)
    psi, start, cap, basis_dim, bound, squarings = psi0, 0, _BASIS_CAP, 0, 0.0, 0
    while True:
        q, block, residual = _reachable_basis(apply, psi, horizon, cap)
        a = block * dt
        # a squaring doubles the rounding of what rotates, while the damping,
        # the symmetric part, only shrinks it: count the rotation's squarings
        squarings = max(squarings, _squarings(0.5 * (a - a.T))[1])
        step = _expm(a)
        if not _contracts(step, 1.0 + _GROWTH_TOLERANCE):
            raise NumericalDriftError(
                f"a decay step of the {len(block)}-vector basis grows the norm by a factor "
                f"of up to {np.linalg.norm(step, 2):.6g}; the step exponential does not "
                "resolve the generator"
            )
        coef = np.zeros(len(block))
        coef[0] = _norm(psi)
        table = _step_powers(step, coef, n_steps - start)
        drift = residual * dt * np.cumsum(np.abs(table[1:, -1])) / scale
        within = drift <= _CLOSURE_TOLERANCE * np.arange(1, len(table)) / n_steps
        stop = len(within) if within.all() else int(np.argmin(within))
        if stop == 0:
            if len(block) == psi.size:
                raise NumericalDriftError(
                    f"a basis spanning all {psi.size} states fits not one decay step"
                )
            cap *= 2
            continue
        table = table[: stop + 1]
        survival[start : start + stop + 1] = np.sum(table**2, axis=1)
        basis_dim, bound = max(basis_dim, len(coef)), bound + float(drift[stop - 1])
        start += stop
        if start == n_steps:
            return _LossyRun(survival, basis_dim, bound,
                             n_steps * 2.0**squarings * np.finfo(float).eps)
        psi = np.einsum("ki,k->i", q, table[stop])


def _contracts(step: np.ndarray, ceiling: float) -> bool:
    """Whether the 2-norm of ``step`` is below ``ceiling``: then no entry
    exceeds it, and ceiling^2 I - step^T step is positive definite, which
    its Cholesky factorization tells (the Gram matrix of entries that small
    cannot overflow, and no eigen- or singular-value routine is loaded)."""
    if not np.max(np.abs(step)) < ceiling:
        return False
    try:
        np.linalg.cholesky(ceiling**2 * np.eye(len(step)) - step.T @ step)
    except np.linalg.LinAlgError:
        return False
    return True


def _step_powers(step: np.ndarray, coef: np.ndarray, n_steps: int) -> np.ndarray:
    """Rows step^i coef for i = 0..n_steps, by doubling: rows [k, 2k) are
    rows [0, k) times step^k, and step^k is squared each round, so the grid
    takes about log2(n_steps) matrix products instead of n_steps steps."""
    table = np.empty((n_steps + 1, len(coef)), dtype=np.result_type(step, coef))
    table[0] = coef
    power = step.T  # rows are row vectors: (P c)^T = c^T P^T
    filled = 1
    while filled <= n_steps:
        count = min(filled, n_steps + 1 - filled)
        table[filled : filled + count] = table[:count] @ power
        filled += count
        if filled <= n_steps:
            power = power @ power
    return table


# [13/13] Pade coefficients and the 1-norm up to which that approximant
# meets double precision unscaled (Higham, SIAM J. Matrix Anal. Appl. 26,
# 1179 (2005)).  They are divided by b_0, which leaves the approximant
# unchanged and makes V = I at a = 0, so exp(0) comes out as I exactly.
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
))
_THETA13 = 5.371920351148152


def _squarings(a: np.ndarray) -> tuple[float, int]:
    """The 1-norm of a and the number s of halvings that bring it to at most
    theta_13: the squarings ``_expm`` takes, each doubling the rounding of
    the scaled approximant, about 2^s eps in all."""
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    return norm, math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the [13/13] Pade approximant:
    a is halved s times until its 1-norm is at most theta_13, the
    approximant r = (V - U)^-1 (V + U) is one linear solve, and r is
    squared s times.  ValueError if a has a non-finite entry, and
    NumericalDriftError if the squarings, each doubling r's rounding error,
    overflow."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite block")
    norm, s = _squarings(a)
    a = a / 2.0**s
    b = _PADE13
    eye = np.eye(len(a), dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(s):
            r = r @ r
    if not np.all(np.isfinite(r)):
        raise NumericalDriftError(f"a step of 1-norm {norm:.3e} overflows in {s} squarings")
    return r


# ---------------------------------------------------------------------------
# sampling, classification and the study
# ---------------------------------------------------------------------------

@dataclass
class EmissionSamples:
    """Monte Carlo emission times; censored entries sit at t_max."""

    times: np.ndarray
    censored: np.ndarray

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())


# Draws inverted per block of sample_emission_times.  Blocks of 4,096 to
# 16,384 draws cost about the same; one sort over all the draws would hold
# index arrays as long as the draws and raise the peak.
_SAMPLE_BLOCK = 16_384


def sample_emission_times(report: EmissionReport, n_trials: int, rng=None) -> EmissionSamples:
    """Inverse-CDF draws from the numeric emission density.  Trials whose
    uniform draw exceeds the total escape probability are censored at the
    observation horizon.

    The uniform draws are inverted by ``np.interp`` in blocks of
    ``_SAMPLE_BLOCK``, each block in the order of its draws' top 16 bits
    (a stable argsort of a uint16 key, numpy's radix sort), and the results
    are scattered back to their draws' places.  ``np.interp`` starts each
    search at the interval of the query before it, so queries in this order
    mostly find their interval there, where random ones bisect the whole
    CDF.  The result is ``np.interp(u, cdf, report.times)`` bit for bit:
    the CDF never decreases, so a query u takes its value from the one
    interval cdf[j] <= u < cdf[j+1], whichever order it comes in.  The
    draws, and so the generator's stream, are those of one
    ``rng.random(n_trials)``.  ``n_trials`` is a counter: a float, even of
    integer value, is refused with ValueError (numpy integers pass)."""
    n_trials = as_int(n_trials, "n_trials")
    if n_trials < 1:
        raise ValueError("need at least one trial")
    if n_trials > MAX_TRIALS:
        raise ValueError(f"{n_trials} trials exceed the limit of {MAX_TRIALS}")
    rng = np.random.default_rng(rng)
    cdf = np.maximum.accumulate(1.0 - report.survival)
    u = rng.random(n_trials)
    times = np.empty(n_trials)
    for start in range(0, n_trials, _SAMPLE_BLOCK):
        part = u[start:start + _SAMPLE_BLOCK]
        # u < 1, so the key stays below 65536
        order = np.argsort((part * 65536.0).astype(np.uint16), kind="stable")
        times[start:start + len(part)][order] = np.interp(part[order], cdf, report.times)
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


def _light_reference(n_atoms: int) -> np.ndarray:
    """Symmetric pair on atoms (0, 1), singlets on the remaining adjacent
    pairs: same excitation count as the all-singlet state but optically
    active."""
    state = triplet_state()
    if n_atoms > 2:
        rest = singlet_product([(i, i + 1) for i in range(0, n_atoms - 2, 2)])
        state = np.kron(state, rest)
    return state


class DarkStudy(NamedTuple):
    """The decays of the singlet product and the light reference, their
    darkness checks and the classification; at zero atoms only ``dark``,
    the bare cavity's decay."""

    dark: EmissionReport
    light: EmissionReport | None = None
    dark_check: DarknessReport | None = None
    light_check: DarknessReport | None = None
    classification: Classification | None = None


def dark_study(n_atoms: int, g: float = 1e-3, *, kappa=None, omega=1.0, t_max=None,
               n_times=2001, truth="dark", n_trials=10_000, detector_error=0.03,
               rng=None) -> DarkStudy:
    """The dark-state study on ``n_atoms`` atoms, each coupled by ``g`` to
    one leaky cavity: the decays of the singlet on every adjacent pair and
    of ``_light_reference``, ``n_trials`` emission times drawn from the
    decay ``truth`` names, and their classification, with the draws and
    then the flips from ``default_rng(rng)``.  Every check runs before
    either decay, zero atoms included: ValueError for an odd, negative or
    (before the couplings are built) above-``MAX_ATOMS`` ``n_atoms``,
    ``n_trials`` outside [2, ``MAX_TRIALS``], ``detector_error`` outside
    [0, 1], NaN included, an unknown ``truth``, an ``rng`` (a negative seed)
    that ``default_rng`` refuses, or what ``DecayConfig`` refuses."""
    if as_int(n_atoms, "n_atoms") < 0 or n_atoms % 2:
        raise ValueError(f"n_atoms must be zero or an even number, not {n_atoms}")
    if n_atoms > MAX_ATOMS:  # before the couplings take memory by the atom
        raise ValueError(f"{n_atoms} atoms exceed the limit of {MAX_ATOMS}")
    # classification needs two samples for a spread
    if not 2 <= as_int(n_trials, "n_trials") <= MAX_TRIALS:
        raise ValueError(f"n_trials must be at least 2 and within the limit of {MAX_TRIALS}")
    if not 0.0 <= detector_error <= 1.0:  # NaN compares false
        raise ValueError("detector_error must lie in [0, 1]")
    if truth not in ("dark", "light"):
        raise ValueError(f"truth must be 'dark' or 'light', not {truth!r}")
    try:
        generator = np.random.default_rng(rng)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"rng must be a seed or generator default_rng takes, not {rng!r}") from exc
    couplings = (g,) * n_atoms
    config = DecayConfig(couplings=couplings, kappa=kappa, omega=omega, n_times=n_times,
                         t_max=t_max)
    if n_atoms == 0:
        return DarkStudy(emission_density(np.array([1.0 + 0.0j]), config))
    dark_state = singlet_product([(i, i + 1) for i in range(0, n_atoms, 2)])
    light_state = _light_reference(n_atoms)
    dark = emission_density(dark_state, config)
    light = emission_density(light_state, config)
    samples = sample_emission_times(dark if truth == "dark" else light, n_trials, rng=generator)
    result = classify_dark(samples, dark.mean_emission_time, light.mean_emission_time,
                           detector_error=detector_error, rng=generator)
    return DarkStudy(dark, light, is_dark(dark_state, couplings),
                     is_dark(light_state, couplings), result)
