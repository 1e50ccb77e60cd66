"""Independent full-tensor-product construction of every network operator.

These oracles build operators on the unprojected product space (one bosonic
mode per cavity, one two-level system per atom) from Kronecker products of
textbook single-site matrices, then cut out an excitation sector.  They share
no code with the production builders beyond the basis-state labels used to
align row order, so elementwise agreement is a real check.

``rk4_pulsed_state`` is the reference for the pulsed route: it steps one
state vector directly instead of integrating a propagator and applying it.
``rk4_propagator_loop`` steps the propagator one step at a time, and
``rk4_block_product`` forms every step matrix of a block of steps from
stacked generators and multiplies them in adjacent pairs, on the whole
sector and one amplitude at a time: the two references for the
word expansion over invariant blocks that ``evolution.pulsed_propagators``
takes.  All three step every step of the segment and read the second
half's envelopes at the first half's times in mirror order
(``step_times``), the grid the production scheme's transposed half stands
for; ``rk4_propagator_loop`` also runs on the forward grid.
``instant_swap_gate`` is the gate with zero-width exchanges, the model the
timing-error paper checks run on: it carries the state itself through each
exchange's quarter-cycle evolution, so that only the resonance mismatch is
left as error.  ``evolve_const_state`` and ``apply_propagator_state`` are
the per-state products, v (exp(-i w t) * (v^H psi)) and u psi, the
references for the stacked rows of ``evolution.evolve_const`` and
``evolution.apply_propagator``; ``run_schedule_loop`` carries one state
through the gate schedule by them, the per-state reference for the stacked
runner of ``gate._final_states``.  ``ideal_target_state`` is the encoded
ideal output times ``gate.schedule_phase``, the target ``gate.sweep``
measures its rows against.
``density_trace_distance`` is the reference for the closed form of
``gate.trace_distance``: the eigenvalues of the difference of the two
density matrices.  ``min_transfer_time`` and ``transfer_window_check`` are
the time-energy bound on an exchange, 1/delta_omega, and its ratio to the
gate clock, checked as a paper statement in ``test_acceptance``.

``dense_emission_survival`` is the reference for the lossy decay path: the
matrix exponential of the full effective generator, stepped over the time
grid on the whole sector; the exponential is cached per configuration and
sector, so the states of one register share it.  ``interp_emission_times``
draws emission times through one ``np.interp`` in draw order, the reference
for the blocks ``darkstates.sample_emission_times`` sorts.
``step_powers_loop`` steps one vector at a time, the reference for the
doubling that ``darkstates._step_powers`` does, and
``collective_lowering_loop`` fills the collective lowering operator one
entry at a time, the dense reference for the matrix-free
``darkstates.is_dark``.

The sector-operator references are the entry-at-a-time loops that
``HilbertSpace.rank`` replaced: ``occupations_loop`` enumerates a sector by
recursion over the slots, and ``build_tc_loop``, ``add_hop_loop`` (with
``build_tch_loop`` and ``jump_operator_loop`` on top) and ``xy_swap_loop``
build one occupation tuple per matrix entry and find its index in
``state_index``, a dict over the rows of ``space.occupations``, with no rank
arithmetic.  Tests that pick a basis state by hand look it up there too.

The walk references are the dense Fourier and momentum operators
(``qft_matrix``, ``momentum_operator``), the free Hamiltonian as the dense
product F diag(E) F^H (``dense_free_hamiltonian``), the walk propagated
by diagonalization (``dense_walk``) and the dense matrix rebuilt from a
``walk.CouplingNetwork`` hop table (``hop_table_matrix``); the loop references
(``distance_profile_loop``, ``resonance_table_loop``, ``walk_rows_loop``,
``write_csv_loop``) are the per-element forms the vectorized production
code replaced.  ``jsonable`` copies a summary into plain JSON types before
``json.dumps`` walks it, the reference for the ``default=`` hook of
``reports.write_json``."""

from __future__ import annotations

import csv
import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg

from tchlab.basis import HilbertSpace, NetworkConfig
import tchlab.evolution
from tchlab.evolution import NumericalDriftError, rabi_periods
from tchlab.gate import (
    AUX_CAVITY,
    X_CAVITY,
    Y_CAVITY,
    FreeSegment,
    cocsign_schedule,
    encode,
    gate_space,
    hold_duration,
    ideal_cocsign,
    schedule_phase,
)
from tchlab.operators import (
    HopSpec,
    build_tc,
    build_tch,
    jump_operator,
    photon_number_operator,
    pulse_value,
)
from tchlab.walk import momentum_values

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
    n = space.config.n_cavities
    idx = [full_index(space.config, row[:n], row[n:]) for row in space.occupations.tolist()]
    return full_matrix[np.ix_(idx, idx)]


def occupations_loop(config, sector) -> list[tuple[int, ...]]:
    """Every occupation tuple of the sector (photons, then atom bits) in
    ascending lexicographic order, one recursive fill at a time."""
    caps = (config.max_photons,) * config.n_cavities + (1,) * config.n_atoms

    def fill(caps, total):
        if not caps:
            if total == 0:
                yield ()
            return
        for v in range(max(0, total - sum(caps[1:])), min(caps[0], total) + 1):
            for tail in fill(caps[1:], total - v):
                yield (v,) + tail

    return list(fill(caps, sector))


def state_index(space) -> dict[tuple[int, ...], int]:
    """Basis index of each occupation tuple of the sector (photon numbers,
    then atom bits), in basis order."""
    return {tuple(row): i for i, row in enumerate(space.occupations.tolist())}


def build_tc_loop(space, cavity: int) -> np.ndarray:
    """``operators.build_tc`` one basis state and one atom at a time."""
    cfg = space.config
    index = state_index(space)
    atoms = list(cfg.atom_range(cavity))
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for state, s in index.items():
        n = state[cavity]
        bits = state[cfg.n_cavities :]
        local_exc = n + sum(bits[j] for j in atoms)
        h[s, s] += cfg.omega * local_exc
        for j in atoms:
            if bits[j] != 1 or n + 1 > cfg.max_photons:
                continue
            target = list(state)
            target[cavity] = n + 1
            target[cfg.n_cavities + j] = 0
            t = index[tuple(target)]
            g = cfg.couplings[j] * math.sqrt(n + 1)
            h[t, s] += g
            h[s, t] += g
    return h


def add_hop_loop(h: np.ndarray, space, hop) -> None:
    """``operators._add_hop`` one basis state at a time."""
    cfg = space.config
    index = state_index(space)
    amp = hop.amplitude * np.exp(1j * hop.phase)
    for state, s in index.items():
        nj = state[hop.j]
        ni = state[hop.i]
        if nj < 1 or ni + 1 > cfg.max_photons:
            continue
        target = list(state)
        target[hop.j] = nj - 1
        target[hop.i] = ni + 1
        t = index[tuple(target)]
        val = amp * math.sqrt(nj) * math.sqrt(ni + 1)
        h[t, s] += val
        h[s, t] += np.conj(val)


def build_tch_loop(space, hops=()) -> np.ndarray:
    h = np.zeros((space.dim, space.dim), dtype=complex)
    for cavity in range(space.config.n_cavities):
        h += build_tc_loop(space, cavity)
    for hop in hops:
        add_hop_loop(h, space, hop)
    return h


def jump_operator_loop(space, hop) -> np.ndarray:
    h = np.zeros((space.dim, space.dim), dtype=complex)
    add_hop_loop(h, space, hop)
    return h


def xy_swap_loop(space, x: int, y: int) -> np.ndarray:
    """Index of each basis state's image when cavities x and y trade their
    photons and their (equally many) atoms."""
    cfg = space.config
    index = state_index(space)
    x_atoms, y_atoms = cfg.atom_range(x), cfg.atom_range(y)
    atom_swap = list(range(cfg.n_atoms))
    atom_swap[x_atoms.start : x_atoms.stop] = y_atoms
    atom_swap[y_atoms.start : y_atoms.stop] = x_atoms
    image = []
    for state in index:
        photons = list(state[: cfg.n_cavities])
        photons[x], photons[y] = photons[y], photons[x]
        bits = tuple(state[cfg.n_cavities + j] for j in atom_swap)
        image.append(index[tuple(photons) + bits])
    return np.array(image)


def step_times(t_start, t_end, dt, mirrored=True):
    """The step count and size of the production scheme, and the (start,
    midpoint, end) times of each step, one row per step.  Mirrored, step
    k >= ceil(n/2) reads step n-1-k's (end, midpoint, start), so the second
    half samples every envelope at the first half's times in mirror order;
    otherwise every step reads its own forward-grid times."""
    n_steps = max(1, math.ceil((t_end - t_start) / dt))
    h = (t_end - t_start) / n_steps
    times = []
    for step in range(n_steps):
        t = t_start + step * h
        times.append((t, t + 0.5 * h, t + h))
    if mirrored:
        for step in range((n_steps + 1) // 2, n_steps):
            times[step] = times[n_steps - 1 - step][::-1]
    return n_steps, h, times


def rk4_pulsed_state(h0, pulses, amplitudes, t_start, t_end, dt):
    """Fixed-step fourth-order integration of i dy/dt = (H0 + sum_k nu_k(t)
    J_k) y on one state vector, or on each column of a matrix of them, all
    stepped as one array, with the step count, the mirrored sample times
    (``step_times``) and the generator of the production scheme.  Returns
    the final amplitudes and the magnitude of each state's squared-norm
    change."""
    _, dt, times = step_times(t_start, t_end, dt)
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

    y = np.array(amplitudes, dtype=complex)
    norm_in = np.sum(np.abs(y) ** 2, axis=0)
    for t_a, t_m, t_b in times:
        h_a = generator(t_a)
        h_m = generator(t_m)
        h_b = generator(t_b)
        k1 = -1j * (h_a @ y)
        k2 = -1j * (h_m @ (y + 0.5 * dt * k1))
        k3 = -1j * (h_m @ (y + 0.5 * dt * k2))
        k4 = -1j * (h_b @ (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    return y, np.abs(np.sum(np.abs(y) ** 2, axis=0) - norm_in)


def instant_swap_gate(q, config):
    """The gate with zero-width exchanges on an encoded two-qubit state:
    aux<->x, tau1/2, aux<->y, the hold of 2 n2 tau2, aux<->x, tau1/2,
    aux<->y, tau1/2, each exchange as the state's own evolution
    evolve_const_state(J, psi, pi/2) under its unit-amplitude jump operator J
    and each free stretch as evolve_const_state(H0, psi, duration).  Returns
    the final state, a row on ``gate_space(config)``, and the schedule phase
    -exp(-2 i omega T), with T the free durations alone, summed in schedule
    order."""
    space = gate_space(config)
    h0 = build_tch(space)
    gap = rabi_periods(config.g)[0] / 2.0
    free = (gap, hold_duration(config.g, config.n2), gap, gap)
    psi = encode(q, space)
    for cavity, duration in zip((X_CAVITY, Y_CAVITY, X_CAVITY, Y_CAVITY), free):
        jump = jump_operator(space, HopSpec(AUX_CAVITY, cavity, amplitude=1.0))
        psi = evolve_const_state(h0, evolve_const_state(jump, psi, math.pi / 2.0), duration)
    return psi, -np.exp(-2j * config.omega * sum(free))


def evolve_const_state(h, psi, t):
    """exp(-i H t) |psi> for one (dim,) amplitude row by per-state
    matrix-vector products through h's eigensystem,
    v (exp(-i w t) * (v^H psi))."""
    w, v = h.eigensystem()
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi))


def apply_propagator_state(u, psi):
    """u |psi> for one (dim,) amplitude row by a per-state matrix-vector
    product; NumericalDriftError if the squared norm moves by more than
    ``evolution.NORM_TOLERANCE`` (read at the call) or is not finite."""
    y = u @ psi
    drift = abs(np.vdot(y, y).real - np.vdot(psi, psi).real)
    if not drift <= tchlab.evolution.NORM_TOLERANCE:  # NaN fails too
        raise NumericalDriftError(f"squared norm drifted by {drift:.3e}")
    return y


def run_schedule_loop(psi, h0, config, links):
    """Carry one register state, a (dim,) amplitude row, through the gate
    schedule on its own: free segments by ``evolve_const_state`` under h0,
    each exchange by ``apply_propagator_state`` with its link under the
    norm-drift check.  ``links`` holds the aux<->x and the aux<->y
    propagator, indexed by the exchanged qubit cavity.  The per-state
    reference for the stack that ``gate._final_states`` carries."""
    for ev in cocsign_schedule(config):
        if isinstance(ev, FreeSegment):
            psi = evolve_const_state(h0, psi, ev.duration)
        else:
            psi = apply_propagator_state(links[ev.cavity_b], psi)
    return psi


def ideal_target_state(q, config) -> np.ndarray:
    """The encoded ideal gate output times the schedule's global phase: the
    reference target of the rows ``gate.sweep`` writes."""
    return encode(ideal_cocsign(q), gate_space(config)) * schedule_phase(config)


def density_trace_distance(psi, psi_id) -> float:
    """Trace distance of two states by the density-matrix route: the sum of
    the absolute eigenvalues of the Hermitian |psi><psi| - |psi_id><psi_id|."""
    a, b = (np.asarray(s, dtype=complex) for s in (psi, psi_id))
    delta = np.outer(a, a.conj()) - np.outer(b, b.conj())
    return float(np.sum(np.abs(np.linalg.eigvalsh((delta + delta.conj().T) / 2.0))))


class TransferWindow(NamedTuple):
    """Shortest admissible exchange time against the gate clock."""

    delta_tau: float
    ratio: float
    flag: bool


def min_transfer_time(delta_omega_max: float) -> float:
    """Time-energy bound: an exchange confined to a frequency window of
    width delta_omega cannot be shorter than 1/delta_omega."""
    if delta_omega_max <= 0.0:
        raise ValueError("frequency window must be positive")
    return 1.0 / delta_omega_max


def transfer_window_check(delta_omega_max: float, tau1: float) -> TransferWindow:
    """Compare the shortest exchange time with the Rabi period tau1; the
    flag trips when the exchange eats 1e-3 of the period or more."""
    if tau1 <= 0.0:
        raise ValueError("tau1 must be positive")
    delta_tau = min_transfer_time(delta_omega_max)
    ratio = delta_tau / tau1
    return TransferWindow(delta_tau=delta_tau, ratio=ratio, flag=ratio >= 1e-3)


def rk4_propagator_loop(h0, pulses, t_start, t_end, dt, mirrored=True):
    """The propagator of the same fourth-order scheme, stepped one step at a
    time on the identity: the sequential form of
    ``evolution.pulsed_propagators`` at one scale.  ``mirrored=False``
    samples every step on the forward grid instead (``step_times``)."""
    _, dt, times = step_times(t_start, t_end, dt, mirrored)
    base = h0.matrix

    def generator(t: float) -> np.ndarray:
        h = base
        for op, pulse in pulses:
            v = pulse_value(pulse, t)
            if v != 0.0:
                h = h + v * op.matrix
        return h

    y = np.eye(base.shape[0], dtype=complex)
    for t_a, t_m, t_b in times:
        h_a = generator(t_a)
        h_m = generator(t_m)
        h_b = generator(t_b)
        k1 = -1j * (h_a @ y)
        k2 = -1j * (h_m @ (y + 0.5 * dt * k1))
        k3 = -1j * (h_m @ (y + 0.5 * dt * k2))
        k4 = -1j * (h_b @ (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_block_product(h0, pulses, t_start, t_end, dt, block=256):
    """The same fourth-order propagator in blocks of at most ``block``
    steps, at the mirrored sample times: the generators at every step's
    start, midpoint and end are stacked, each step matrix
    R = I + h/6 (a + 2 K2 + 2 K3 + K4) comes from three stacked matrix
    products, and a block's R's are multiplied in adjacent pairs into the
    block product."""
    n_steps, h, times = step_times(t_start, t_end, dt)
    times = np.array(times)
    d = h0.matrix.shape[0]
    eye = np.eye(d, dtype=complex)
    base = -1j * h0.matrix
    terms = [(-1j * op.matrix, pulse) for op, pulse in pulses]

    def generators(times):
        g = np.broadcast_to(base, (len(times),) + base.shape)
        for term, pulse in terms:
            g = g + pulse_value(pulse, times)[:, None, None] * term
        return g

    def ordered_product(r):
        while len(r) > 1:
            n = len(r)
            pairs = r[1::2] @ r[0 : n - 1 : 2]
            r = np.concatenate([pairs, r[n - 1 :]]) if n % 2 else pairs
        return r[0]

    u = eye
    for first in range(0, n_steps, block):
        a, m, b = (generators(column) for column in times[first : first + block].T)
        k2 = m @ (eye + 0.5 * h * a)
        k3 = m @ (eye + 0.5 * h * k2)
        k4 = b @ (eye + h * k3)
        u = ordered_product(eye + (h / 6.0) * (a + 2.0 * k2 + 2.0 * k3 + k4)) @ u
    return u


def qft_matrix(n: int) -> np.ndarray:
    """Unitary with elements exp(-2 pi i a c / n) / sqrt(n)."""
    a = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(a, a) / n) / math.sqrt(n)


def momentum_operator(n: int) -> np.ndarray:
    """Discrete momentum: A^-1 F diag(sqrt(n)(a/n - 1/2)) F^-1 A with
    A = diag(e^{i pi a}).  Hermitian with the spectrum of momentum_values."""
    f = qft_matrix(n)
    a_phase = np.exp(1j * np.pi * np.arange(n))
    core = f @ (momentum_values(n)[:, None] * f.conj().T)
    return (a_phase.conj()[:, None] * core) * a_phase[None, :]


def dense_free_hamiltonian(n: int, mass: float) -> np.ndarray:
    """p^2 / 2m as the dense product F diag(E) F^H."""
    f = qft_matrix(n)
    energies = momentum_values(n) ** 2 / (2.0 * mass)
    return f @ (energies[:, None] * f.conj().T)


def hop_table_matrix(network) -> np.ndarray:
    """The dense one-photon matrix of a ``walk.CouplingNetwork``: its
    diagonal, amplitude * exp(i phase) at each hop's (q, p) and the
    conjugate at (p, q)."""
    hops = network.hops
    m = np.diag(network.diagonal.astype(complex))
    m[hops.q, hops.p] = hops.amplitude * np.exp(1j * hops.phase)
    m[hops.p, hops.q] = np.conj(m[hops.q, hops.p])
    return m


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


def jsonable(value):
    """Recursively coerce numpy scalars/arrays and complex numbers into JSON
    structures (complex -> {"re": ..., "im": ...}); other values pass as is."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, (complex, np.complexfloating)):
        return {"re": float(value.real), "im": float(value.imag)}
    return value


def resonance_table_loop(n_max: int, top=None):
    """One (n1, n2, residual) tuple per n2 up to n_max, sorted by
    (residual, n2).  Its n1 is found by brute force, not by a rounding rule:
    the argmin of the mismatch over every n1 up to n_max on the full
    n_max x n_max grid.  Its residual is that pair's cancellation-free
    |8 n2^2 - (4 n1 + 1)^2| / (2 (2 sqrt(2) n2 + 4 n1 + 1)), one Python
    float operation at a time."""
    n1 = np.arange(1, n_max + 1)[:, None]
    n2 = np.arange(1, n_max + 1)
    best = np.argmin(np.abs(2.0 * n2 / math.sqrt(2.0) - 2.0 * n1 - 0.5), axis=0) + 1
    rows = []
    for a, b in zip(best.tolist(), n2.tolist()):
        m = 4 * a + 1
        rows.append((a, b, abs(8 * b * b - m * m) / (2.0 * (math.sqrt(8.0) * b + m))))
    rows.sort(key=lambda r: (r[2], r[1]))
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
    space, step = _dense_decay_step(config, sector)
    index = state_index(space)
    amps = np.zeros(space.dim, dtype=complex)
    for b in support:
        bits = tuple((b >> (s - 1 - j)) & 1 for j in range(s))
        amps[index[(1,) + bits]] = psi_at[b]

    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    survival = np.empty(len(times))
    for i in range(len(times)):
        survival[i] = float(np.vdot(amps, amps).real)
        if i + 1 < len(times):
            amps = step @ amps
    return times, survival


def mp_emission_survival(psi_at, config, digits=40):
    """``dense_emission_survival`` with the step exponential and every step
    in mpmath at ``digits`` significant digits: the reference that shows
    the rounding of the double-precision step exponential."""
    import mpmath

    psi_at = np.asarray(psi_at, dtype=complex)
    s = config.n_atoms
    support = [b for b in range(2**s) if abs(psi_at[b]) > 0.0]
    sector = 1 + bin(support[0]).count("1")
    space, h_eff = _decay_sector(config, sector)
    index = state_index(space)
    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    with mpmath.workdps(digits):
        step = mpmath.expm(-1j * mpmath.matrix(h_eff.tolist()) * mpmath.mpf(times[1] - times[0]))
        amps = mpmath.matrix(space.dim, 1)
        for b in support:
            bits = tuple((b >> (s - 1 - j)) & 1 for j in range(s))
            amps[index[(1,) + bits]] = mpmath.mpc(psi_at[b])
        survival = np.empty(len(times))
        for i in range(len(times)):
            survival[i] = float(sum(abs(a) ** 2 for a in amps))
            amps = step * amps
    return times, survival


def _decay_sector(config, sector):
    """The one-cavity sector and its effective generator."""
    network = NetworkConfig(
        n_cavities=1,
        atoms_per_cavity=(config.n_atoms,),
        couplings=config.couplings,
        max_photons=sector,
        omega=config.omega,
    )
    space = HilbertSpace(network, sector)
    return space, (build_tc(space, 0).matrix
                   - 0.5j * config.resolved_kappa * photon_number_operator(space, 0).matrix)


# Cached so that the dark and light states of one register exponentiate once.
@functools.lru_cache(maxsize=2)
def _dense_decay_step(config, sector):
    """The one-cavity sector and the expm of its effective generator over
    one step of the ``emission_density`` grid."""
    space, h_eff = _decay_sector(config, sector)
    times = np.linspace(0.0, config.resolved_t_max, config.n_times)
    return space, scipy.linalg.expm(-1j * h_eff * (times[1] - times[0]))


def interp_emission_times(report, n_trials, rng=None):
    """Inverse-CDF emission draws as one ``np.interp`` over the draws in
    the order drawn, the censored ones then set to the horizon: the
    reference for the bucket-ordered blocks of
    ``darkstates.sample_emission_times``.  Returns (times, censored)."""
    rng = np.random.default_rng(rng)
    cdf = np.maximum.accumulate(1.0 - report.survival)
    u = rng.random(n_trials)
    times = np.interp(u, cdf, report.times)
    censored = u > cdf[-1]
    times[censored] = report.times[-1]
    return times, censored


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

