"""Time evolution on one excitation sector.

Three propagation routes, shared across the experiments:

- ``evolve_const``: time-independent Hermitian generator, exact matrix
  exponential through the cached spectral decomposition.  This is what makes
  the very long resonant free-evolution stretches cheap and exact.
- ``evolve_pulsed``: Hermitian static part plus Gaussian-windowed hop pulses,
  integrated as a propagator with a classic fixed-step fourth-order one-step
  scheme (three generator evaluations per step: start, midpoint twice, end),
  then applied to the state under a norm-drift check.
- ``evolve_decay``: non-Hermitian effective generator whose shrinking norm is
  the observable; propagated with a dense matrix exponential and never
  renormalized.

All times are in units with hbar = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

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

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class EvolutionSettings:
    """Fixed-step integrator controls for the pulsed route."""

    dt: float
    norm_tolerance: float = 1e-8

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.norm_tolerance <= 0.0:
            raise ValueError("norm_tolerance must be positive")


def _check_same_space(op: OperatorMatrix, psi: StateVector) -> None:
    if (op.space.config, op.space.sector) != (psi.space.config, psi.space.sector):
        raise ValueError("operator and state live on different spaces")


def rabi_periods(g: float, hbar: float = 1.0) -> tuple[float, float]:
    """Full vacuum-Rabi period pi*hbar/g of the one-excitation doublet and
    the sqrt(2)-shortened period of the two-excitation doublet."""
    if g <= 0.0:
        raise ValueError("coupling g must be positive")
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
    check belongs to ``apply_propagator``."""
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    dt = (t_end - t_start) / n_steps
    base = h0.matrix

    def generator(t: float) -> np.ndarray:
        h = base
        for op, pulse in pulses:
            v = pulse_value(pulse, t)
            if v != 0.0:
                h = h + v * op.matrix
        return h

    y = np.eye(base.shape[0], dtype=complex)
    for step in range(n_steps):
        t = t_start + step * dt
        h_a = generator(t)
        h_m = generator(t + 0.5 * dt)
        h_b = generator(t + dt)
        k1 = -1j * (h_a @ y)
        k2 = -1j * (h_m @ (y + 0.5 * dt * k1))
        k3 = -1j * (h_m @ (y + 0.5 * dt * k2))
        k4 = -1j * (h_b @ (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def apply_propagator(u: np.ndarray, psi: StateVector, norm_tolerance: float) -> StateVector:
    """u |psi> for a propagator of a Hermitian generator; NumericalDriftError
    if the squared norm of psi moves by more than ``norm_tolerance``."""
    y = u @ psi.amplitudes
    norm_in = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    norm_out = float(np.vdot(y, y).real)
    if abs(norm_out - norm_in) > norm_tolerance:
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
    beyond tolerance raises NumericalDriftError.
    """
    _check_same_space(h_eff, psi)
    if t < 0.0:
        raise ValueError("decay evolution requires t >= 0")
    m = h_eff.matrix
    gain = (m - m.conj().T) / 2j
    scale = max(1.0, float(np.max(np.abs(m), initial=0.0)))
    top = float(np.max(np.linalg.eigvalsh(gain)))
    if top > 1e-10 * scale:
        raise ValueError(
            f"anti-Hermitian part has a growing direction (max eigenvalue {top:.3e})"
        )
    tol = settings.norm_tolerance if settings is not None else 1e-8
    amps = scipy.linalg.expm(-1j * m * t) @ psi.amplitudes
    norm_in = float(np.vdot(psi.amplitudes, psi.amplitudes).real)
    norm_out = float(np.vdot(amps, amps).real)
    if norm_out > norm_in + tol:
        raise NumericalDriftError(
            f"squared norm grew by {norm_out - norm_in:.3e} under a lossy generator"
        )
    return StateVector(psi.space, amps)
