"""Unitary time evolution on one excitation sector.

Two propagation routes, shared across the experiments (``darkstates``
owns the lossy decay):

- ``evolve_const``: time-independent Hermitian generator, exact matrix
  exponential through the cached spectral decomposition.  This is what makes
  the very long resonant free-evolution stretches cheap and exact.  It
  and ``apply_propagator`` carry a (runs, dim) stack of amplitude rows on
  the caller's sector, by stacked matrix-vector products, which give each
  row the same bits whatever the other rows (a 2-D product of dim x runs
  would not: gemm and gemv round differently).
- ``evolve_pulsed``: Hermitian static part plus Gaussian-windowed hop pulses,
  integrated as a propagator with a classic fixed-step fourth-order one-step
  scheme (three generator evaluations per step: start, midpoint twice, end),
  then applied to the state under a norm-drift check against
  ``NORM_TOLERANCE``.  The propagator comes
  from ``pulsed_propagators``, which builds it at any number of pulse
  scales s at once.  It splits the sector into the blocks that no
  generator couples and integrates each on its own.  On a linear equation
  each step is one matrix R(s), a polynomial of degree 4 in s whose
  coefficients S_p are sums of words in -i H0 and the -i J_k; they are
  formed for a chunk of steps at once by one matrix product per power,
  independently of s, and each scale's R's are multiplied in pairs into one
  product.  A block on which every pulse letter vanishes has R = S_0 at
  every scale, so it runs once per call, not once per scale.  A chunk
  holds at most ``_STEP_BLOCK`` steps, and on wide blocks few enough that
  its S_p stacks stay within ``_BLOCK_ENTRIES`` complex entries (4 MiB),
  whatever the step and the sector.  Every segment is
  time-symmetric by precondition (real symmetric letters, every pulse
  centred; ValueError otherwise) and integrates only its first half: step
  n-1-k is taken as the transpose of step k, so the second half's product
  is the transpose of the first's.

All times are in units with hbar = 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operators import GaussianPulse, OperatorMatrix, pulse_value


class NumericalDriftError(RuntimeError):
    """Raised when a propagation step violates its conservation tolerance."""


# how far a propagator of a Hermitian generator may move a squared norm
NORM_TOLERANCE = 1e-8


@dataclass
class EvolutionSettings:
    """Fixed-step integrator controls for the pulsed route."""

    dt: float

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")


def rabi_periods(g: float) -> tuple[float, float]:
    """Full vacuum-Rabi period pi/g of the one-excitation doublet and the
    sqrt(2)-shortened period of the two-excitation doublet.  ValueError
    unless g is positive and finite and pi/g is finite too."""
    if not 0.0 < g < math.inf:
        raise ValueError("coupling g must be positive and finite")
    tau1 = math.pi / g
    if not tau1 < math.inf:
        raise ValueError(f"coupling g {g:g} puts the Rabi period pi/g beyond the float range")
    return tau1, tau1 / math.sqrt(2.0)


def evolve_const(h: OperatorMatrix, psi: np.ndarray, t: float) -> np.ndarray:
    """Exact propagation exp(-i H t) |psi> for Hermitian H, of each row of a
    (runs, dim) stack of amplitudes on h's space.  Stacked matrix-vector
    products give each row the same bits whatever the other rows (one 2-D
    product of dim x runs would not: gemm and gemv round differently)."""
    w, v = h.eigensystem()
    phases = np.exp(-1j * w * t)
    return (v @ (phases[:, None] * (v.conj().T @ psi[..., None])))[..., 0]


def evolve_pulsed(
    h0: OperatorMatrix,
    pulses,
    psi: np.ndarray,
    t_start: float,
    t_end: float,
    settings: EvolutionSettings | None = None,
) -> np.ndarray:
    """Integrate i d|psi>/dt = (H0 + sum_k nu_k(t) J_k) |psi> over
    [t_start, t_end] for each row of a (runs, dim) stack of amplitudes, with
    a fixed-step fourth-order scheme whose second half mirrors its first
    (``pulsed_propagators``).

    ``pulses`` is a sequence of (jump operator, Gaussian envelope) pairs; the
    jump operators should be built with unit amplitude so the envelopes alone
    carry the strength.  Outside each envelope's truncation window its term
    is exactly zero.  ValueError unless H0 and the jump operators are real
    symmetric and every pulse is centred on the interval, when it takes two
    steps or more.

    Raises NumericalDriftError if the squared norm moves by more than
    ``NORM_TOLERANCE`` (the generator is Hermitian, so any drift is
    integrator error).
    """
    pulses = list(pulses)
    for _, pulse in pulses:
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
    return apply_propagator(u, psi)


# steps expanded and multiplied together at once: at most _STEP_BLOCK, and
# few enough that the stack of step matrices over the powers of the scale
# holds at most _BLOCK_ENTRIES complex entries on the widest invariant block,
# for any dt
_STEP_BLOCK = 256
_BLOCK_ENTRIES = _STEP_BLOCK * 32 * 32
# the most steps one pulsed segment may take: about a minute of integration
# on the gate register (its default link takes 600 in 0.05 s)
MAX_PULSED_STEPS = 1_000_000

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


# unstable steps overflow in the word tables and products; the result is
# checked instead
@np.errstate(over="ignore", invalid="ignore")
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
    the chunk product, which left-multiplies its running U.  A block on
    which every pulse letter vanishes (decided once per block from the
    letters) has exact-zero S_p for p >= 1, so its R is S_0, the same bits
    at every non-negative scale: it forms S_0 alone and runs once per
    chunk for all scales.  A scale's propagator does not depend on the
    other scales of the call.  A chunk takes at most ``_STEP_BLOCK`` steps,
    and few enough that its five S_p stacks together hold at most
    ``_BLOCK_ENTRIES`` entries (4 MiB) on the widest block, in one buffer
    every block reuses, for any dt.  The word
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
    A one-step segment runs whole and needs no precondition.  A segment
    that needs more than ``MAX_PULSED_STEPS`` steps is refused with
    ValueError before anything is built, and steps beyond the scheme's
    stability, whose product overflows, raise NumericalDriftError: an entry
    that is not finite reaches every carried state through the product
    with it."""
    scales = [float(s) for s in scales]
    span = (t_end - t_start) / dt
    if not span <= MAX_PULSED_STEPS:  # NaN and inf fail too
        raise ValueError(
            f"a pulsed segment of {t_end - t_start:.6g} in steps of {dt:.6g} needs "
            f"{span:.3g} steps, more than the limit of {MAX_PULSED_STEPS}"
        )
    n_steps = max(1, math.ceil(span))
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
    # how many S_p each block forms: S_0 alone where no pulse reaches it
    block_powers = [n_powers if np.any(letters[1:, b[:, None], b]) else 1 for b in blocks]
    tables = []
    for block, powers in zip(blocks, block_powers):
        table = _word_matrices(letters[:, block[:, None], block]).reshape(len(words), -1)
        # real views: a real coefficient times a complex entry is two real
        # products, so each S_p stack is one real matrix product
        tables.append([table[w].view(float) for w in by_power[:powers]])
    u = [np.broadcast_to(np.eye(len(b), dtype=complex),
                         (len(scales) if powers > 1 else 1, len(b), len(b))).copy()
         for b, powers in zip(blocks, block_powers)]
    # the first ceil(n/2) steps run, and the product after n // 2 of them
    # is kept (the identity for one step): its transpose is the rest
    first_half = [ub.copy() for ub in u]
    stop = n_steps - half
    # chunk edges every chunk steps, and at half, which is stop or stop - 1
    edges = itertools.chain(range(0, half, chunk), range(half, stop, chunk), (stop,))
    buffer = np.empty(n_powers * chunk * widest**2, dtype=complex)
    for first, last in itertools.pairwise(edges):
        t = t_start + np.arange(first, last) * h
        coef = _word_coefficients([pulse for _, pulse in pulses], t, h, words)
        coef = [coef[:, w] for w in by_power]
        for block, table, ub in zip(blocks, tables, u):
            b, powers = len(block), len(table)
            stack = buffer[: powers * len(t) * b * b].reshape(powers, -1)
            for p in range(powers):
                np.matmul(coef[p], table[p], out=stack[p].view(float).reshape(len(t), 2 * b * b))
            if powers == 1:  # pulse-free: one product for every scale
                ub[0] = _ordered_product(stack[0].reshape(len(t), b, b)) @ ub[0]
                continue
            for i, s in enumerate(scales):
                r = (s ** np.arange(n_powers)) @ stack
                ub[i] = _ordered_product(r.reshape(len(t), b, b)) @ ub[i]
        if last == half:
            first_half = [ub.copy() for ub in u]
    out = np.zeros((len(scales), d, d), dtype=complex)
    for block, v, ub in zip(blocks, first_half, u):
        out[:, block[:, None], block] = np.swapaxes(v, 1, 2) @ ub
    if not np.all(np.isfinite(out)):
        raise NumericalDriftError(
            f"the propagator overflows: steps of {h:.3g} are beyond the scheme's stability; reduce dt"
        )
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


def apply_propagator(u: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """u[i] |psi[i]> for a stack of propagators of Hermitian generators and
    a (runs, dim) stack of amplitudes, or u |psi[i]> for one propagator, by
    stacked matrix-vector products that give each row the same bits
    whatever the other rows.  NumericalDriftError if the squared norm of a
    state moves by more than ``NORM_TOLERANCE`` or either norm is not
    finite; the rows are checked in order."""
    out = (u @ psi[..., None])[..., 0]
    for before, after in zip(psi, out):
        _check_norm_drift(before, after)
    return out


def _check_norm_drift(before: np.ndarray, after: np.ndarray) -> None:
    """NumericalDriftError if the squared norm moves from ``before`` to
    ``after`` by more than ``NORM_TOLERANCE`` or either is not finite."""
    norm_in = float(np.vdot(before, before).real)
    norm_out = float(np.vdot(after, after).real)
    if not math.isfinite(norm_out):
        raise NumericalDriftError(f"squared norm is not finite ({norm_out}) after the propagator")
    if not abs(norm_out - norm_in) <= NORM_TOLERANCE:
        raise NumericalDriftError(
            f"squared norm drifted by {abs(norm_out - norm_in):.3e} "
            f"(tolerance {NORM_TOLERANCE:.3e}); reduce dt"
        )
