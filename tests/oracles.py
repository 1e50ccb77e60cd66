"""Independent full-tensor-product construction of every network operator.

These oracles build operators on the unprojected product space (one bosonic
mode per cavity, one two-level system per atom) from Kronecker products of
textbook single-site matrices, then cut out an excitation sector.  They share
no code with the production builders beyond the basis-state labels used to
align row order, so elementwise agreement is a real check.

``rk4_pulsed_state`` is the reference for the pulsed route: it steps one
state vector directly instead of integrating a propagator and applying it."""

from __future__ import annotations

import math

import numpy as np

from tchlab.operators import pulse_value

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|
ATOM_NUMBER = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def slot_dims(config) -> list[int]:
    """Product-space factors: each cavity's mode then its atoms, in order."""
    dims = []
    for c in range(config.n_cavities):
        dims.append(config.max_photons + 1)
        dims.extend([2] * config.atoms_per_cavity[c])
    return dims


def photon_slot(config, cavity: int) -> int:
    return sum(1 + config.atoms_per_cavity[c] for c in range(cavity))


def atom_slot(config, atom: int) -> int:
    count = 0
    for c in range(config.n_cavities):
        for _ in range(config.atoms_per_cavity[c]):
            if count == atom:
                return photon_slot(config, c) + 1 + (atom - sum(config.atoms_per_cavity[:c]))
            count += 1
    raise ValueError(f"atom index {atom} out of range")


def embed(config, factors: dict[int, np.ndarray]) -> np.ndarray:
    """Kronecker product with identity on every slot not in ``factors``."""
    dims = slot_dims(config)
    out = np.array([[1.0 + 0.0j]])
    for slot, dim in enumerate(dims):
        out = np.kron(out, factors.get(slot, np.eye(dim, dtype=complex)))
    return out


def full_index(config, photons, atom_bits) -> int:
    dims = slot_dims(config)
    digits = []
    atom = 0
    for c in range(config.n_cavities):
        digits.append(photons[c])
        for _ in range(config.atoms_per_cavity[c]):
            digits.append(atom_bits[atom])
            atom += 1
    index = 0
    for digit, dim in zip(digits, dims):
        index = index * dim + digit
    return index


def full_total_number(config) -> np.ndarray:
    n = np.zeros((int(np.prod(slot_dims(config))),) * 2, dtype=complex)
    for c in range(config.n_cavities):
        a = annihilation(config.max_photons + 1)
        n += embed(config, {photon_slot(config, c): a.conj().T @ a})
    for j in range(sum(config.atoms_per_cavity)):
        n += embed(config, {atom_slot(config, j): ATOM_NUMBER})
    return n


def full_tc(config, cavity: int) -> np.ndarray:
    a = annihilation(config.max_photons + 1)
    ps = photon_slot(config, cavity)
    h = config.omega * embed(config, {ps: a.conj().T @ a})
    for j in config.atom_range(cavity):
        sl = atom_slot(config, j)
        h += config.omega * embed(config, {sl: ATOM_NUMBER})
        h += config.couplings[j] * embed(config, {ps: a.conj().T, sl: SIGMA_MINUS})
        h += config.couplings[j] * embed(config, {ps: a, sl: SIGMA_MINUS.conj().T})
    return h


def full_hop(config, i: int, j: int, amplitude: float, phase: float) -> np.ndarray:
    a = annihilation(config.max_photons + 1)
    term = (
        amplitude
        * np.exp(1j * phase)
        * embed(config, {photon_slot(config, i): a.conj().T, photon_slot(config, j): a})
    )
    return term + term.conj().T


def full_photon_number(config, cavity: int) -> np.ndarray:
    a = annihilation(config.max_photons + 1)
    return embed(config, {photon_slot(config, cavity): a.conj().T @ a})


def project_to_sector(full_matrix: np.ndarray, space) -> np.ndarray:
    """Cut the rows/columns of the production sector basis, in its order."""
    idx = [full_index(space.config, s.photons, s.atom_bits) for s in space.states]
    return full_matrix[np.ix_(idx, idx)]


def rk4_pulsed_state(h0, pulses, amplitudes, t_start, t_end, dt):
    """Fixed-step fourth-order integration of i dy/dt = (H0 + sum_k nu_k(t)
    J_k) y on one state vector, with the step count and generator of the
    production scheme.  Returns the final amplitudes and the magnitude of
    the squared-norm change."""
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    dt = (t_end - t_start) / n_steps
    base = h0.matrix

    def generator(t: float) -> np.ndarray:
        h = base
        copied = False
        for op, pulse in pulses:
            v = pulse_value(pulse, t)
            if v != 0.0:
                if not copied:
                    h = h.copy()
                    copied = True
                h += v * op.matrix
        return h

    y = np.asarray(amplitudes, dtype=complex).copy()
    norm_in = float(np.vdot(y, y).real)
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

    norm_out = float(np.vdot(y, y).real)
    return y, abs(norm_out - norm_in)
