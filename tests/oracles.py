"""Independent full-tensor-product construction of every network operator.

These oracles build operators on the unprojected product space (one bosonic
mode per cavity, one two-level system per atom) from Kronecker products of
textbook single-site matrices, then cut out an excitation sector.  They share
no code with the production builders beyond the basis-state labels used to
align row order, so elementwise agreement is a real check.

``rk4_pulsed_state`` is the reference for the pulsed route: it steps one
state vector directly instead of integrating a propagator and applying it.
``rk4_propagator_loop`` steps the propagator one step at a time, the
reference for the block product that ``evolution.pulsed_propagator`` takes.

``dense_emission_survival`` is the reference for the lossy decay path: the
matrix exponential of the full effective generator, stepped over the time
grid on the whole sector.  ``step_powers_loop`` steps one vector at a time,
the reference for the doubling that ``evolution._step_powers`` does, and
``collective_lowering_loop`` fills the collective lowering operator one
entry at a time.

The walk references build the free Hamiltonian as the dense product
F diag(E) F^H and propagate it by diagonalization (``dense_walk``); the
loop references (``distance_profile_loop``, ``resonance_table_loop``,
``walk_rows_loop``, ``write_csv_loop``) are the per-element forms the
vectorized production code replaced."""

from __future__ import annotations

import csv
import functools
import math

import numpy as np
import scipy.linalg

from tchlab.basis import BasisState, HilbertSpace, NetworkConfig
from tchlab.operators import build_tc, photon_number_operator, pulse_value
from tchlab.walk import momentum_operator, momentum_values, qft_matrix

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


def rk4_propagator_loop(h0, pulses, t_start, t_end, dt):
    """The propagator of the same fourth-order scheme, stepped one step at a
    time on the identity: the sequential form of the block product in
    ``evolution.pulsed_propagator``."""
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


def dense_free_hamiltonian(n: int, mass: float) -> np.ndarray:
    """p^2 / 2m as the dense product F diag(E) F^H."""
    f = qft_matrix(n)
    energies = momentum_values(n) ** 2 / (2.0 * mass)
    return f @ (energies[:, None] * f.conj().T)


# Cached so that walks from several origins on one ring diagonalize once.
@functools.lru_cache(maxsize=2)
def _hamiltonian_eigensystem(n: int, mass: float):
    return np.linalg.eigh(dense_free_hamiltonian(n, mass))


@functools.lru_cache(maxsize=1)
def _momentum_eigenvectors(n: int) -> np.ndarray:
    return np.linalg.eigh(momentum_operator(n))[1]


def dense_walk(config):
    """The walk by dense diagonalization: eigh of the free Hamiltonian for
    the amplitudes, eigh of the momentum operator for the populations.
    Returns (amplitudes, momentum populations, variances), each with one
    row per time sample."""
    n = config.n_cavities
    origin = config.resolved_origin
    times = np.linspace(0.0, config.resolved_t_max, config.n_times)

    w, v = _hamiltonian_eigensystem(n, config.mass)
    psi0 = np.zeros(n, dtype=complex)
    psi0[origin] = 1.0
    coef = v.conj().T @ psi0
    positions = np.arange(n) / math.sqrt(n)
    pv = _momentum_eigenvectors(n)  # columns in ascending momentum

    amplitudes = np.empty((len(times), n), dtype=complex)
    variances = np.empty(len(times))
    populations = np.empty((len(times), n))
    for i, t in enumerate(times):
        amps = v @ (np.exp(-1j * w * t) * coef)
        amplitudes[i] = amps
        prob = np.abs(amps) ** 2
        mean = float(prob @ positions)
        variances[i] = float(prob @ positions**2) - mean**2
        populations[i] = np.abs(pv.conj().T @ amps)
    return amplitudes, populations, variances


def distance_profile_loop(hops):
    """Per-separation (distance, count, mean amplitude, mean phase), one
    bucket per separation."""
    buckets: dict[int, list[tuple[float, float]]] = {}
    for q, p, r, phi in hops:
        buckets.setdefault(p - q, []).append((r, phi))
    out = []
    for d in sorted(buckets):
        rs = [r for r, _ in buckets[d]]
        phis = [phi for _, phi in buckets[d]]
        out.append((d, len(rs), float(np.mean(rs)), float(np.mean(phis))))
    return out


def walk_rows_loop(result):
    """The walk CSV rows cell by cell: (time, cavity, position, re, im, abs)
    tuples for the amplitudes and for the kernel, time-major."""
    amp_rows = []
    kernel_rows = []
    for i, t in enumerate(result.times):
        for q in range(result.config.n_cavities):
            a = result.amplitudes[i, q]
            k = result.kernel[i, q]
            x = result.positions[q]
            amp_rows.append((t, q, x, a.real, a.imag, abs(a)))
            kernel_rows.append((t, q, x, k.real, k.imag, abs(k)))
    return amp_rows, kernel_rows


def write_csv_loop(path, header, rows):
    """The CSV writer one row at a time through the csv module, formatting
    each cell itself: integers with ``str``, everything else as a double
    with 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([
                str(v) if isinstance(v, (int, np.integer)) else format(float(v), ".17g")
                for v in row
            ])
    return path


def resonance_table_loop(n_max: int, top=None):
    """Every (n1, n2, residual) as a tuple, sorted by (residual, n2, n1)."""
    rows = []
    for n1 in range(1, n_max + 1):
        for n2 in range(1, n_max + 1):
            residual = abs(2.0 * n2 / math.sqrt(2.0) - 2.0 * n1 - 0.5)
            rows.append((n1, n2, residual))
    rows.sort(key=lambda r: (r[2], r[1], r[0]))
    return rows if top is None else rows[:top]


def dense_emission_survival(psi_at, config):
    """Survival of the probe photon on the time grid of
    ``emission_density``: expm of the unshifted effective generator on the
    whole one-cavity sector, applied once per grid step.  Returns (times,
    survival)."""
    psi_at = np.asarray(psi_at, dtype=complex)
    s = config.n_atoms
    support = [b for b in range(2**s) if abs(psi_at[b]) > 0.0]
    sector = 1 + bin(support[0]).count("1")
    network = NetworkConfig(
        n_cavities=1,
        atoms_per_cavity=(s,),
        couplings=config.couplings,
        max_photons=sector,
        omega=config.omega,
    )
    space = HilbertSpace(network, sector)
    h_eff = (
        build_tc(space, 0).matrix
        - 0.5j * config.resolved_kappa * photon_number_operator(space, 0).matrix
    )
    amps = np.zeros(space.dim, dtype=complex)
    for b in support:
        bits = tuple((b >> (s - 1 - j)) & 1 for j in range(s))
        amps[space.index_of(BasisState((1,), bits))] = psi_at[b]

    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    step = scipy.linalg.expm(-1j * h_eff * (times[1] - times[0]))
    survival = np.empty(len(times))
    for i in range(len(times)):
        survival[i] = float(np.vdot(amps, amps).real)
        if i + 1 < len(times):
            amps = step @ amps
    return times, survival


def step_powers_loop(step, coef, n_steps):
    """Rows step^i coef for i = 0..n_steps, one matrix-vector step each."""
    table = np.empty((n_steps + 1, len(coef)), dtype=complex)
    table[0] = coef
    for i in range(n_steps):
        table[i + 1] = step @ table[i]
    return table


def collective_lowering_loop(couplings):
    """sum_j g_j sigma_j^- on the atomic register (atom 0 the most
    significant bit), one basis index and one atom at a time."""
    couplings = tuple(float(g) for g in couplings)
    n = len(couplings)
    dim = 2**n
    op = np.zeros((dim, dim), dtype=complex)
    for b in range(dim):
        for j in range(n):
            bit = 1 << (n - 1 - j)
            if b & bit:
                op[b & ~bit, b] += couplings[j]
    return op
