"""Time evolution on one excitation sector.

Three propagation routes, shared across the experiments:

- ``evolve_const``: time-independent Hermitian generator, exact matrix
  exponential through the cached spectral decomposition.  This is what makes
  the very long resonant free-evolution stretches cheap and exact.
- ``evolve_pulsed``: Hermitian static part plus Gaussian-windowed hop pulses,
  integrated as a propagator with a classic fixed-step fourth-order one-step
  scheme (three generator evaluations per step: start, midpoint twice, end),
  then applied to the state under a norm-drift check.  The propagator comes
  from ``pulsed_propagators``, which builds it at any number of pulse
  scales s at once.  It splits the sector into the blocks that no
  generator couples and integrates each on its own.  On a linear equation
  each step is one matrix R(s), a polynomial of degree 4 in s whose
  coefficients S_p are sums of words in -i H0 and the -i J_k; they are
  formed for a chunk of steps at once by one matrix product per power,
  independently of s, and each scale's R's are multiplied in pairs into one
  product.  A chunk holds at most ``_STEP_BLOCK`` steps, and on wide blocks
  few enough that its S_p stacks stay within ``_BLOCK_ENTRIES`` complex
  entries (4 MiB), whatever the step and the sector.  Every segment is
  time-symmetric by precondition (real symmetric letters, every pulse
  centred; ValueError otherwise) and integrates only its first half: step
  n-1-k is taken as the transpose of step k, so the second half's product
  is the transpose of the first's.
- ``_lossy_propagation``: non-Hermitian effective generator whose shrinking
  norm, never renormalized, is the survival curve that
  ``darkstates.emission_density`` reads.  It needs only products of the
  generator with a vector: restarted Krylov spans (Saad 1992; Hochbruck and
  Lubich 1997), each stepping the Pade exponential (``_expm``) of the
  block its Arnoldi recurrence leaves over the grid by doubling step
  powers.  A basis that closes covers the whole grid in one span.  Every
  sum over the sector in a basis and its block runs in numpy's own loops
  rather than BLAS, whose dot products split a long vector across threads
  and round by the thread count, so a closed basis gives the same bytes at
  any thread count.  It is numpy only: the package never loads scipy.

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


def rabi_periods(g: float) -> tuple[float, float]:
    """Full vacuum-Rabi period pi/g of the one-excitation doublet and the
    sqrt(2)-shortened period of the two-excitation doublet."""
    if not 0.0 < g < math.inf:
        raise ValueError("coupling g must be positive and finite")
    tau1 = math.pi / g
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
    [t_start, t_end] with a fixed-step fourth-order scheme whose second half
    mirrors its first (``pulsed_propagators``).

    ``pulses`` is a sequence of (jump operator, Gaussian envelope) pairs; the
    jump operators should be built with unit amplitude so the envelopes alone
    carry the strength.  Outside each envelope's truncation window its term
    is exactly zero.  ValueError unless H0 and the jump operators are real
    symmetric and every pulse is centred on the interval, when it takes two
    steps or more.

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
    u = pulsed_propagators(h0, pulses, t_start, t_end, settings.dt, (1.0,))[0]
    return apply_propagator(u, psi, settings.norm_tolerance)


# steps expanded and multiplied together at once: at most _STEP_BLOCK, and
# few enough that the stack of step matrices over the powers of the scale
# holds at most _BLOCK_ENTRIES complex entries on the widest invariant block,
# for any dt
_STEP_BLOCK = 256
_BLOCK_ENTRIES = _STEP_BLOCK * 32 * 32

# One step of the scheme on y' = G(t) y, with a, m, b the generator at the
# step's start, midpoint and end, is R = I + h/6 (a + 4m + b)
# + h^2/6 (ma + mm + bm) + h^3/12 (mma + bmm) + h^4/24 bmma.  Each term is
# (weight of h^len, evaluation times of its factors left to right, with
# 0, 1, 2 = start, midpoint, end).
_RK4_TERMS = (
    (1.0, ()),
    (1.0 / 6.0, (0,)), (4.0 / 6.0, (1,)), (1.0 / 6.0, (2,)),
    (1.0 / 6.0, (1, 0)), (1.0 / 6.0, (1, 1)), (1.0 / 6.0, (2, 1)),
    (1.0 / 12.0, (1, 1, 0)), (1.0 / 12.0, (2, 1, 1)),
    (1.0 / 24.0, (2, 1, 1, 0)),
)
_MAX_WORD = 4


def pulsed_propagators(
    h0: OperatorMatrix,
    pulses,
    t_start: float,
    t_end: float,
    dt: float,
    scales,
) -> np.ndarray:
    """Propagators of i dU/dt = (H0 + s sum_k nu_k(t) J_k) U from U = 1 over
    [t_start, t_end], one for each scale s of ``scales``, stacked in that
    order, in equal fourth-order steps no longer than dt.  A column no state
    carries may drift more than any carried state, so the drift check
    belongs to ``apply_propagator``.

    The sector splits into the connected components of the joint nonzero
    pattern of H0 and the J_k, which no generator couples, and each block is
    integrated on its own; the entries between blocks are exact zeros.  On a
    linear equation a step is a polynomial of degree 4 in the scale,
    R(s) = sum_p s^p S_p, expanded over words of length at most 4 in the
    letters -i H0 and -i J_k (``_RK4_TERMS``): each word's coefficient is an
    array over the steps, built from h and the envelopes at each step's
    start, midpoint and end, and the power p is its count of pulse letters.
    The steps run in chunks.  For each chunk and block, every S_p stack is
    one matrix product of the coefficients with the word matrices, which do
    not depend on the scale; each scale then forms its R's as one
    combination of those stacks and multiplies them in adjacent pairs into
    the chunk product, which left-multiplies its running U.  A scale's
    propagator does not depend on the other scales of the call.  A chunk
    takes at most ``_STEP_BLOCK`` steps, and few enough that its five S_p
    stacks together hold at most ``_BLOCK_ENTRIES`` entries (4 MiB) on the
    widest block, in one buffer every block reuses, for any dt.  The word
    table of a block of b states holds sum_{l<=4} (1 + K)^l matrices of
    b x b for K pulses: 31 for one pulse.

    A segment of n >= 2 steps is time-symmetric by precondition: every
    letter equals its transpose (real symmetric H0 and J_k) and every pulse
    is centred on the segment, ``center == 0.5 * (t_start + t_end)``;
    ValueError otherwise.  Transposing a step reverses each word, and
    ``_RK4_TERMS`` is closed under reversing a word while swapping its
    start and end times, so step n-1-k is defined as the transpose of step
    k: the second half reads the first half's envelope samples in mirror
    order.  With V_k the product of the first k steps, U = V_{n//2}^T
    V_{ceil(n/2)}: only the first ceil(n/2) steps run, the product after
    n // 2 of them is kept, and for odd n the middle step runs on its own.
    A one-step segment runs whole and needs no precondition."""
    scales = [float(s) for s in scales]
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    h = (t_end - t_start) / n_steps
    d = h0.matrix.shape[0]
    letters = np.stack([-1j * h0.matrix] + [-1j * op.matrix for op, _ in pulses])
    half = n_steps // 2
    if half and not np.array_equal(letters, letters.transpose(0, 2, 1)):
        raise ValueError("a pulsed segment needs real symmetric H0 and jump operators")
    if half and any(pulse.center != 0.5 * (t_start + t_end) for _, pulse in pulses):
        raise ValueError("a pulsed segment needs every pulse centred on it")
    words = _words(len(letters))
    powers = np.count_nonzero(words > 0, axis=1)
    n_powers = 1 + int(powers.max())
    by_power = [np.flatnonzero(powers == p) for p in range(n_powers)]
    blocks = _invariant_blocks(letters)
    widest = max(map(len, blocks))
    chunk = max(1, min(_STEP_BLOCK, _BLOCK_ENTRIES // (n_powers * widest**2)))
    tables = []
    for block in blocks:
        table = _word_matrices(letters[:, block[:, None], block]).reshape(len(words), -1)
        # real views: a real coefficient times a complex entry is two real
        # products, so each S_p stack is one real matrix product
        tables.append([table[w].view(float) for w in by_power])
    u = [np.broadcast_to(np.eye(len(b), dtype=complex), (len(scales), len(b), len(b))).copy()
         for b in blocks]
    # the first ceil(n/2) steps run, and the product after n // 2 of them
    # is kept (the identity for one step): its transpose is the rest
    first_half = [ub.copy() for ub in u]
    stop = n_steps - half
    bounds = sorted({*range(0, stop, chunk), half, stop})
    buffer = np.empty(n_powers * chunk * widest**2, dtype=complex)
    for first, last in zip(bounds, bounds[1:]):
        t = t_start + np.arange(first, last) * h
        coef = _word_coefficients([pulse for _, pulse in pulses], t, h, words)
        coef = [coef[:, w] for w in by_power]
        for block, table, ub in zip(blocks, tables, u):
            b = len(block)
            stack = buffer[: n_powers * len(t) * b * b].reshape(n_powers, -1)
            for p in range(n_powers):
                np.matmul(coef[p], table[p], out=stack[p].view(float).reshape(len(t), 2 * b * b))
            for i, s in enumerate(scales):
                r = (s ** np.arange(n_powers)) @ stack
                ub[i] = _ordered_product(r.reshape(len(t), b, b)) @ ub[i]
        if last == half:
            first_half = [ub.copy() for ub in u]
    out = np.zeros((len(scales), d, d), dtype=complex)
    for block, v, ub in zip(blocks, first_half, u):
        out[:, block[:, None], block] = np.swapaxes(v, 1, 2) @ ub
    return out


def _invariant_blocks(matrices: np.ndarray) -> list[np.ndarray]:
    """Index sets of the connected components of the joint nonzero pattern
    of a stack of square matrices, ordered by their first index: each label
    falls to the smallest label among its neighbours until none moves."""
    linked = np.any(matrices != 0, axis=0)
    linked |= linked.T
    labels = np.arange(len(linked))
    while True:
        lowest = np.min(np.where(linked, labels, labels[:, None]), axis=1)
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    # each component's label is its smallest index, its root (np.unique
    # would load numpy.ma)
    roots = np.flatnonzero(labels == np.arange(len(labels)))
    return [np.flatnonzero(labels == root) for root in roots]


def _words(n_letters: int) -> np.ndarray:
    """Every word of length 0 to _MAX_WORD over the letters 1..n_letters-1
    and the static letter 0, shortest first and lexicographic within a
    length, as rows of letters padded with -1 at the right."""
    rows = [np.full((1, _MAX_WORD), -1)]
    for length in range(1, _MAX_WORD + 1):
        grid = np.indices((n_letters,) * length).reshape(length, -1).T
        rows.append(np.pad(grid, ((0, 0), (0, _MAX_WORD - length)), constant_values=-1))
    return np.concatenate(rows)


def _word_matrices(letters: np.ndarray) -> np.ndarray:
    """The product of each word of ``_words`` over a stack of letter
    matrices, leftmost letter leftmost: each length is the letters times
    every word one shorter."""
    level = np.eye(letters.shape[1], dtype=complex)[None]
    out = [level]
    for _ in range(_MAX_WORD):
        level = (letters[:, None] @ level[None]).reshape((-1,) + letters.shape[1:])
        out.append(level)
    return np.concatenate(out)


def _word_coefficients(pulses, t: np.ndarray, h: float, words: np.ndarray) -> np.ndarray:
    """Coefficient of each word in the step matrix of each step starting at
    the times t: the sum over the ``_RK4_TERMS`` of the word's length of
    weight * h^length times the envelope of each pulse letter at its
    factor's time (the static letter counts 1)."""
    # the step's end is t + h, not the next start: at a truncation edge
    # the envelope jumps, so the two times must round as stepping does
    values = np.ones((len(t), 3, 1 + len(pulses)))
    for k, pulse in enumerate(pulses):
        for tau, time in enumerate((t, t + 0.5 * h, t + h)):
            values[:, tau, k + 1] = pulse_value(pulse, time)
    lengths = np.count_nonzero(words >= 0, axis=1)
    coef = np.zeros((len(t), len(words)))
    for weight, times in _RK4_TERMS:
        chosen = lengths == len(times)
        # the envelope of each letter of each word at its factor's time
        factors = values[:, np.array(times, dtype=int), words[chosen, : len(times)]]
        coef[:, chosen] += weight * h ** len(times) * np.prod(factors, axis=2)
    return coef


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


# amplitude error per unit initial norm a decay may spend over its horizon
_CLOSURE_TOLERANCE = 1e-10
# columns a span's basis may hold, doubled while a span fits not one grid step
_BASIS_CAP = 60


class _LossyRun(NamedTuple):
    """Result of ``_lossy_propagation``."""

    survival: np.ndarray  # squared norm at each of the n_steps + 1 grid times
    basis_dim: int  # dimension of the widest basis a span ran in
    closure_bound: float  # sum of the spans' amplitude error bounds


def _norm(v: np.ndarray) -> float:
    """2-norm of a complex vector, summed in numpy's einsum loop, not BLAS."""
    return math.sqrt(float(np.einsum("i,i->", v.real, v.real) + np.einsum("i,i->", v.imag, v.imag)))


def _adjoint_times(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """q^H v for a vector or matrix v, summed in numpy's einsum loop, not
    BLAS: each term conj(q) v is exactly the conjugate of q conj(v), so the
    conjugate of q^T conj(v) needs no conjugated copy of q."""
    return np.einsum("ij,i...->j...", q, v.conj()).conj()


def _basis_times(q: np.ndarray, c: np.ndarray) -> np.ndarray:
    """q c for a coefficient vector c, summed in numpy's einsum loop, not
    BLAS, whose matrix-vector product rounds by the thread count."""
    return np.einsum("ij,j->i", q, c)


def _reachable_basis(apply, psi0: np.ndarray, horizon: float, cap: int):
    """At most ``cap`` orthonormal columns Q of the Krylov space of the
    generator and psi0, with B and the norm of r in m Q = Q B + r e_k^T,
    read from the Arnoldi recurrence (Saad 1992): column j of B holds the
    coefficients both Gram-Schmidt passes took off the image of column j,
    and below its diagonal the norm of what was left, the next column's
    length.  The basis stops at the first k with horizon * |r| within
    ``_CLOSURE_TOLERANCE``, at Q spanning the space (r is then 0), or at
    the cap.  ``apply`` maps a vector to its product with the generator."""
    dim = len(psi0)
    cap = min(cap, dim)
    # column-major, so that a column is contiguous and writing it touches
    # only its own pages: the columns the basis never reaches stay unmapped
    q = np.empty((dim, cap), dtype=complex, order="F")
    block = np.zeros((cap, cap), dtype=complex)
    q[:, 0] = psi0 / _norm(psi0)
    for k in range(1, cap + 1):
        w = apply(q[:, k - 1])
        for _ in range(2):  # a second pass restores orthogonality lost to rounding
            coefficients = _adjoint_times(q[:, :k], w)
            block[:k, k - 1] += coefficients
            w = w - _basis_times(q[:, :k], coefficients)
        residual = _norm(w) if k < dim else 0.0
        if horizon * residual <= _CLOSURE_TOLERANCE or k == cap:
            return q[:, :k], block[:k, :k], residual
        block[k, k - 1] = residual
        q[:, k] = w / residual


def _lossy_propagation(apply, psi0: np.ndarray, dt: float, n_steps: int) -> _LossyRun:
    """Step exp(-i m dt) psi0 over n_steps equal steps in restarted Krylov
    spans, recording the squared norm at every grid time; ``apply`` maps a
    vector to its product with the generator m, which callers check is
    dissipative.  Each span builds the basis Q of its start state psi and
    steps exp(-i B dt) of the Arnoldi block from c = |psi| e_1 over the grid
    left.  With m Q = Q B + r e_k^T, Duhamel's formula bounds the span's
    amplitude error by |r| times the integral of the last coefficient
    |c_k|, summed on the grid; a span runs while that bound per unit initial
    norm keeps within the share of ``_CLOSURE_TOLERANCE`` its steps take of
    the n_steps, and the next restarts from Q c.  A basis closed within the
    tolerance keeps within it to the horizon, since under a dissipative
    generator |c_k| never exceeds |psi0|; one that fits not one step doubles
    its cap, and one spanning the space has r = 0 and covers the rest, so
    the loop ends."""
    horizon = dt * n_steps
    scale = _norm(psi0)
    survival = np.empty(n_steps + 1)
    psi, start, cap, basis_dim, bound = psi0, 0, _BASIS_CAP, 0, 0.0
    while True:
        q, block, residual = _reachable_basis(apply, psi, horizon, cap)
        coef = np.zeros(len(block), dtype=complex)
        coef[0] = _norm(psi)
        table = _step_powers(_expm(-1j * block * dt), coef, n_steps - start)
        drift = residual * dt * np.cumsum(np.abs(table[1:, -1])) / scale
        within = drift <= _CLOSURE_TOLERANCE * np.arange(1, len(table)) / n_steps
        stop = len(within) if within.all() else int(np.argmin(within))
        if stop == 0:
            cap *= 2
            continue
        table = table[: stop + 1]
        survival[start : start + stop + 1] = np.sum(table.real**2 + table.imag**2, axis=1)
        basis_dim, bound = max(basis_dim, len(coef)), bound + float(drift[stop - 1])
        start += stop
        if start == n_steps:
            return _LossyRun(survival, basis_dim, bound)
        psi = _basis_times(q, table[stop])


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
