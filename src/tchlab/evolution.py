"""Time evolution on one excitation sector.

Three propagation routes, shared across the experiments:

- ``evolve_const``: time-independent Hermitian generator, exact matrix
  exponential through the cached spectral decomposition.  This is what makes
  the very long resonant free-evolution stretches cheap and exact.
- ``evolve_pulsed``: Hermitian static part plus Gaussian-windowed hop pulses,
  integrated as a propagator with a classic fixed-step fourth-order one-step
  scheme (three generator evaluations per step: start, midpoint twice, end),
  then applied to the state under a norm-drift check.  On a linear equation
  each step is one matrix R = I + h/6 (K1 + 2 K2 + 2 K3 + K4), so the steps
  are taken in blocks of at most ``_STEP_BLOCK``: every R of a block is
  formed at once from stacked generators, and the block's R's are multiplied
  in pairs into one product.  A block keeps about a dozen stacks of d x d
  matrices, one per step, so it holds fewer steps on sectors wider than 32
  states: each stack stays within ``_BLOCK_ENTRIES`` complex entries
  (4 MiB), whatever the step and the sector.
- ``evolve_decay``: non-Hermitian effective generator whose shrinking norm is
  the observable, never renormalized.  It shares one lossy propagator with
  ``darkstates.emission_density``: an orthonormal basis of the subspace the
  initial state reaches (Arnoldi, two-pass Gram-Schmidt), grown until the
  horizon times the next residual norm is at most 1e-10, which bounds the
  amplitude error per unit initial norm by that product for a dissipative
  generator.  One step over the uniform grid is the matrix exponential of
  the projected block, by scaling and squaring with the [13/13] Pade
  approximant (``_expm``), and the grid is filled by doubling: the states at
  steps [k, 2k) are those at [0, k) times the k-th step power, which is
  squared each round, so about log2(n) matrix products replace n steps.  A
  basis that would outgrow a quarter of the sector is replaced by the
  identity, so the same exponential-and-doubling code runs on the full
  matrix.  It is numpy only: the package never loads scipy.

All times are in units with hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import GaussianPulse, OperatorMatrix, pulse_value


class NumericalDriftError(RuntimeError):
    """Raised when a propagation step violates its conservation tolerance."""


@dataclass
class StateVector:
    """Complex amplitudes over the basis of one sector."""

    space: object
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude shape {self.amplitudes.shape} does not match "
                f"space dim {self.space.dim}"
            )
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValueError("amplitudes must be finite")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class EvolutionSettings:
    """Fixed-step integrator controls for the pulsed route."""

    dt: float
    norm_tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0.0 < self.norm_tolerance < math.inf:
            raise ValueError("norm_tolerance must be positive and finite")


def _check_same_space(op: OperatorMatrix, psi: StateVector) -> None:
    if (op.space.config, op.space.sector) != (psi.space.config, psi.space.sector):
        raise ValueError("operator and state live on different spaces")


def rabi_periods(g: float, hbar: float = 1.0) -> tuple[float, float]:
    """Full vacuum-Rabi period pi*hbar/g of the one-excitation doublet and
    the sqrt(2)-shortened period of the two-excitation doublet."""
    if not 0.0 < g < math.inf:
        raise ValueError("coupling g must be positive and finite")
    tau1 = math.pi * hbar / g
    return tau1, tau1 / math.sqrt(2.0)


def evolve_const(h: OperatorMatrix, psi: StateVector, t: float) -> StateVector:
    """Exact propagation exp(-i H t) |psi> for Hermitian H."""
    _check_same_space(h, psi)
    w, v = h.eigensystem()
    phases = np.exp(-1j * w * t)
    amps = v @ (phases * (v.conj().T @ psi.amplitudes))
    return StateVector(psi.space, amps)


def evolve_pulsed(
    h0: OperatorMatrix,
    pulses,
    psi: StateVector,
    t_start: float,
    t_end: float,
    settings: EvolutionSettings | None = None,
) -> StateVector:
    """Integrate i d|psi>/dt = (H0 + sum_k nu_k(t) J_k) |psi> over
    [t_start, t_end] with a fixed-step fourth-order scheme.

    ``pulses`` is a sequence of (jump operator, Gaussian envelope) pairs; the
    jump operators should be built with unit amplitude so the envelopes alone
    carry the strength.  Outside each envelope's truncation window its term
    is exactly zero.

    Raises NumericalDriftError if the squared norm moves by more than the
    settings tolerance (the generator is Hermitian, so any drift is
    integrator error).
    """
    _check_same_space(h0, psi)
    pulses = list(pulses)
    for op, pulse in pulses:
        _check_same_space(op, psi)
        if not isinstance(pulse, GaussianPulse):
            raise TypeError("each pulse must pair an operator with a GaussianPulse")
    if t_end < t_start:
        raise ValueError("t_end must not precede t_start")
    if settings is None:
        sigma_min = min((p.sigma for _, p in pulses), default=None)
        if sigma_min is None:
            raise ValueError("settings are required when no pulses set a time scale")
        settings = EvolutionSettings(dt=sigma_min / 50.0)
    u = pulsed_propagator(h0, pulses, t_start, t_end, settings.dt)
    return apply_propagator(u, psi, settings.norm_tolerance)


# steps formed and multiplied together at once: at most _STEP_BLOCK, and on
# sectors wider than 32 states few enough that one stack of step matrices
# holds at most _BLOCK_ENTRIES complex entries, for any dt
_STEP_BLOCK = 256
_BLOCK_ENTRIES = _STEP_BLOCK * 32 * 32


def pulsed_propagator(
    h0: OperatorMatrix,
    pulses,
    t_start: float,
    t_end: float,
    dt: float,
) -> np.ndarray:
    """Propagator of i dU/dt = (H0 + sum_k nu_k(t) J_k) U from U = 1 over
    [t_start, t_end], in equal fourth-order steps no longer than dt.  A column
    no state carries may drift more than any carried state, so the drift
    check belongs to ``apply_propagator``.

    The steps run in blocks.  For each block the generators -i H(t) at
    every step's start, midpoint and end are stacked (envelopes evaluated as
    arrays), every step matrix R comes from three stacked matrix products,
    and the R's are multiplied in adjacent pairs into the block product,
    which then left-multiplies the running U.  This is the step-by-step
    scheme up to rounding.  A block holds about a dozen live stacks of d x d
    complex matrices, one per step, so it takes at most ``_STEP_BLOCK``
    steps and at most ``_BLOCK_ENTRIES // d**2``: each stack stays within
    4 MiB for any dt and any sector dimension d."""
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    h = (t_end - t_start) / n_steps
    d = h0.matrix.shape[0]
    block = max(1, min(_STEP_BLOCK, _BLOCK_ENTRIES // d**2))
    eye = np.eye(d, dtype=complex)
    base = -1j * h0.matrix
    terms = [(-1j * op.matrix, pulse) for op, pulse in pulses]

    def generators(times: np.ndarray) -> np.ndarray:
        """-i H(t) at each of the times, stacked."""
        g = np.broadcast_to(base, (len(times),) + base.shape)
        for term, pulse in terms:
            g = g + pulse_value(pulse, times)[:, None, None] * term
        return g

    u = eye
    for first in range(0, n_steps, block):
        t = t_start + np.arange(first, min(first + block, n_steps)) * h
        # the step's end is t + h, not the next start: at a truncation edge
        # the envelope jumps, so the two times must round as stepping does
        a, m, b = generators(t), generators(t + 0.5 * h), generators(t + h)
        # each step maps y to R y with R = I + h/6 (a + 2 K2 + 2 K3 + K4)
        k2 = m @ (eye + 0.5 * h * a)
        k3 = m @ (eye + 0.5 * h * k2)
        k4 = b @ (eye + h * k3)
        u = _ordered_product(eye + (h / 6.0) * (a + 2.0 * k2 + 2.0 * k3 + k4)) @ u
    return u


def _ordered_product(r: np.ndarray) -> np.ndarray:
    """r[n-1] @ ... @ r[1] @ r[0] for a stack of n matrices, multiplied in
    adjacent pairs level by level; an odd last matrix waits a level."""
    while len(r) > 1:
        n = len(r)
        pairs = r[1::2] @ r[0 : n - 1 : 2]
        r = np.concatenate([pairs, r[n - 1 :]]) if n % 2 else pairs
    return r[0]


def apply_propagator(u: np.ndarray, psi: StateVector, norm_tolerance: float) -> StateVector:
    """u |psi> for a propagator of a Hermitian generator; NumericalDriftError
    if the squared norm of psi moves by more than ``norm_tolerance`` or
    either norm is not finite."""
    y = u @ psi.amplitudes
    norm_in = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    norm_out = float(np.vdot(y, y).real)
    if not math.isfinite(norm_out):
        raise NumericalDriftError(f"squared norm is not finite ({norm_out}) after the propagator")
    if not abs(norm_out - norm_in) <= norm_tolerance:
        raise NumericalDriftError(
            f"squared norm drifted by {abs(norm_out - norm_in):.3e} "
            f"(tolerance {norm_tolerance:.3e}); reduce dt"
        )
    return StateVector(psi.space, y)


def evolve_decay(
    h_eff: OperatorMatrix,
    psi: StateVector,
    t: float,
    settings: EvolutionSettings | None = None,
) -> StateVector:
    """Propagate exp(-i H_eff t) |psi> for a lossy effective generator,
    without renormalizing: the decreasing squared norm is the survival
    probability.

    The anti-Hermitian part of H_eff must be dissipative (negative
    semidefinite); a gaining generator is rejected, and any norm increase
    beyond tolerance raises NumericalDriftError.  The propagation runs in the
    subspace psi reaches (see the module docstring), exact within an
    amplitude error of 1e-10 times the norm of psi.
    """
    _check_same_space(h_eff, psi)
    if t < 0.0:
        raise ValueError("decay evolution requires t >= 0")
    m = h_eff.matrix
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    top = _top_gain(m)
    if top > 1e-10 * scale:
        raise ValueError(
            f"anti-Hermitian part has a growing direction (max eigenvalue {top:.3e})"
        )
    tol = settings.norm_tolerance if settings is not None else 1e-8
    amps = _lossy_propagation(m, psi.amplitudes, t, 1).final
    norm_in = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    norm_out = float(np.vdot(amps, amps).real)
    if not norm_out <= norm_in + tol:  # NaN fails too
        raise NumericalDriftError(
            f"squared norm grew by {norm_out - norm_in:.3e} under a lossy generator"
        )
    return StateVector(psi.space, amps)


def _top_gain(m: np.ndarray) -> float:
    """Largest eigenvalue of the anti-Hermitian part (m - m^H) / 2i, the
    fastest rate at which m can grow a norm.  When that part has no nonzero
    off-diagonal entry its eigenvalues are its diagonal, read directly."""
    gain = (m - m.conj().T) / 2j
    if np.count_nonzero(gain) == np.count_nonzero(gain.diagonal()):
        return float(np.max(gain.diagonal().real))
    return float(np.max(np.linalg.eigvalsh(gain)))


# horizon * (next residual norm) at which the reachable basis counts as closed
_CLOSURE_TOLERANCE = 1e-10


class _LossyRun(NamedTuple):
    """Result of ``_lossy_propagation``."""

    survival: np.ndarray  # squared norm at each of the n_steps + 1 grid times
    final: np.ndarray  # amplitudes at the last grid time
    basis_dim: int  # dimension of the basis the propagation ran in
    closure_bound: float  # horizon * residual; 0 on the identity basis


def _reachable_basis(m: np.ndarray, psi0: np.ndarray, horizon: float):
    """Orthonormal columns Q spanning the Krylov space of m and psi0, with
    m Q and the closure bound; None when Q would grow past a quarter of the
    space (or psi0 vanishes), where the identity basis is cheaper."""
    dim = len(psi0)
    limit = dim // 4
    beta = float(np.linalg.norm(psi0))
    if limit == 0 or beta == 0.0:
        return None
    q = np.empty((dim, limit), dtype=complex, order="F")  # contiguous columns
    images = np.empty((dim, limit), dtype=complex)
    q[:, 0] = psi0 / beta
    for k in range(1, limit + 1):
        w = m @ q[:, k - 1]
        images[:, k - 1] = w
        for _ in range(2):  # a second pass restores orthogonality lost to rounding
            w = w - q[:, :k] @ (q[:, :k].conj().T @ w)
        residual = float(np.linalg.norm(w))
        if horizon * residual <= _CLOSURE_TOLERANCE:
            return q[:, :k], images[:, :k], horizon * residual
        if k < limit:
            q[:, k] = w / residual
    return None


def _lossy_propagation(m: np.ndarray, psi0: np.ndarray, dt: float, n_steps: int) -> _LossyRun:
    """Step exp(-i m dt) psi0 over n_steps equal steps inside the subspace
    psi0 reaches, recording the squared norm at every grid time.

    With Q the reachable basis and m Q = Q B + r e_k^T, Duhamel's formula
    bounds the amplitude error of Q exp(-i B t) Q^H psi0 by t |r| |psi0| when
    m is dissipative; the basis grows until that bound over the horizon
    n_steps * dt is at most ``_CLOSURE_TOLERANCE`` per unit norm.  The step
    exp(-i B dt) is the Pade exponential ``_expm`` and the grid is filled by
    ``_step_powers``, both numpy only.  Callers check dissipativity."""
    reach = _reachable_basis(m, psi0, dt * n_steps)
    if reach is None:
        block, coef, bound = m, psi0, 0.0
    else:
        q, images, bound = reach
        block = q.conj().T @ images
        coef = q.conj().T @ psi0
    table = _step_powers(_expm(-1j * block * dt), coef, n_steps)
    survival = np.sum(table.real**2 + table.imag**2, axis=1)
    final = table[-1] if reach is None else q @ table[-1]
    return _LossyRun(survival, final, len(coef), bound)


def _step_powers(step: np.ndarray, coef: np.ndarray, n_steps: int) -> np.ndarray:
    """Rows step^i coef for i = 0..n_steps, by doubling: rows [k, 2k) are
    rows [0, k) times step^k, and step^k is squared each round, so the grid
    takes about log2(n_steps) matrix products instead of n_steps steps."""
    table = np.empty((n_steps + 1, len(coef)), dtype=complex)
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by scaling and squaring with the [13/13] Pade approximant:
    a is halved s times until its 1-norm is at most theta_13, the
    approximant r = (V - U)^-1 (V + U) is one linear solve, and r is
    squared s times.  ValueError if a has a non-finite entry."""
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite block")
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
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
    for _ in range(s):
        r = r @ r
    return r
