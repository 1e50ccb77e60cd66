"""Two-qubit conditional-sign gate on a three-cavity photonic register.

Qubit encoding: logical |0> is an excited atom in an empty cavity, logical
|1> is one photon next to a de-excited atom.  Cavity 0 carries qubit x,
cavity 1 carries qubit y, cavity 2 is an auxiliary cavity that starts empty
with its atom in the ground state, so every register state sits in the
two-excitation sector of the three-cavity network.

The gate itself is a timed sequence of photon-exchange pulses and free
stretches.  Exchanges are Gaussian hop pulses whose time-integrated area is
a quarter of a full hop cycle (a complete photon swap, phase -i per moved
photon); free stretches last half a one-excitation Rabi period, except for
the central stretch of 2*n2 two-excitation half-periods.  The pair (n1, n2)
is chosen so that 2*n2 two-excitation periods come as close as possible to
2*n1 + 1/2 one-excitation periods; the leftover mismatch is the gate's
intrinsic error and shrinks as better pairs are allowed.

With the sign convention used here the ideal action is
|x,y> -> (-1)^((x XOR 1) AND y) |x,y>, i.e. only |01> changes sign.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .basis import HilbertSpace, NetworkConfig
from .evolution import (
    StateVector,
    apply_propagator,
    evolve_const,
    pulsed_propagators,
    rabi_periods,
)
from .operators import (
    GaussianPulse,
    HopSpec,
    amplitude_for_area,
    build_tch,
    jump_operator,
)

X_CAVITY, Y_CAVITY, AUX_CAVITY = 0, 1, 2
BASIS_LABELS = ("00", "01", "10", "11")
PULSE_CUTOFF = 6.0  # envelope truncation, in sigmas; window width is twice this


# ---------------------------------------------------------------------------
# the ideal gate
# ---------------------------------------------------------------------------

def cocsign_matrix() -> np.ndarray:
    """Sign flip on |01> only: phase (-1)^((x XOR 1) AND y)."""
    return np.diag([1.0, -1.0, 1.0, 1.0]).astype(complex)


def _as_qubit_pair(q) -> np.ndarray:
    q = np.asarray(q, dtype=complex)
    if q.shape != (4,):
        raise ValueError("a two-qubit state needs exactly 4 amplitudes")
    if not abs(np.vdot(q, q).real - 1.0) <= 1e-9:  # NaN fails too
        raise ValueError("two-qubit amplitudes must be normalized")
    return q


def uniform_superposition() -> np.ndarray:
    """The balanced input (|00> + |01> + |10> + |11>) / 2."""
    return np.full(4, 0.5, dtype=complex)


def ideal_cocsign(q) -> np.ndarray:
    """Apply the ideal gate (sign flip on |01>) to a two-qubit state."""
    return cocsign_matrix() @ _as_qubit_pair(q)


# ---------------------------------------------------------------------------
# resonance pairs
# ---------------------------------------------------------------------------

def resonance_table(n_max: int, top: int | None = None) -> list[tuple[int, int, float]]:
    """All (n1, n2) pairs up to n_max ranked by the timing mismatch
    |2 n2 / sqrt(2) - 2 n1 - 1/2|, in units of the one-excitation period.
    Ties prefer smaller n2, then smaller n1.  ``top`` keeps the first rows.

    For a given n2 the mismatch grows with the distance of n1 from
    n2 / sqrt(2) - 1/4, so only the ``top`` values of n1 nearest to it can
    rank: just a window of 2 top + 1 of them per n2 is ranked, O(n_max top)
    pairs instead of n_max^2.  Without ``top`` the window is all n_max
    values, which is the full table."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if top is not None and top < 0:
        raise ValueError("top must be non-negative")
    width = n_max if top is None else min(2 * top + 1, n_max)
    n2 = np.arange(1, n_max + 1)[:, None]
    nearest = np.rint(n2 / math.sqrt(2.0) - 0.25).astype(np.int64)
    n1 = np.clip(nearest - width // 2, 1, n_max - width + 1) + np.arange(width)
    n1, n2 = n1.ravel(), np.broadcast_to(n2, n1.shape).ravel()
    residual = np.abs(2.0 * n2 / math.sqrt(2.0) - 2.0 * n1 - 0.5)
    order = np.lexsort((n1, n2, residual))[:top]
    return list(zip(n1[order].tolist(), n2[order].tolist(), residual[order].tolist()))


def find_resonance(g: float, n_max: int) -> tuple[int, int, float]:
    """Best (n1, n2, residual) with both counters <= n_max.  The residual is
    in units of the one-excitation Rabi period, so it does not depend on g;
    g is validated because the pair is meaningless without a coupling."""
    if not 0.0 < g < math.inf:
        raise ValueError("coupling g must be positive and finite")
    n1, n2, residual = resonance_table(n_max, top=1)[0]
    return n1, n2, residual


# ---------------------------------------------------------------------------
# configuration and schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateConfig:
    """Physical and numerical parameters of one gate run.

    ``alpha = None`` selects the pulse-area rule: the Gaussian's integral is
    fixed to a quarter hop cycle (pi/2 in hbar = 1 units), which executes a
    complete photon swap.  ``dt = None`` selects the default integrator step
    min(sigma/50, tau1/200) / max(1, alpha / (2 * area-rule alpha)).
    """

    g: float = 1e-3
    sigma: float = 0.5
    alpha: float | None = None
    n1: int = 4
    n2: int = 6
    omega: float = 1.0
    dt: float | None = None
    norm_tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.g < math.inf:
            raise ValueError("coupling g must be positive and finite")
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("pulse sigma must be positive and finite")
        if self.alpha is not None and not 0.0 <= self.alpha < math.inf:
            raise ValueError("pulse amplitude alpha must be non-negative and finite")
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError("resonance counters must be positive integers")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError("integrator step dt must be a positive finite number")
        if not 0.0 < self.norm_tolerance < math.inf:
            raise ValueError("norm_tolerance must be positive and finite")
        if self.sigma > self.tau1 / 10.0:
            warnings.warn(
                "pulse sigma is not small against the Rabi period; "
                "exchange and Rabi dynamics will mix",
                stacklevel=2,
            )

    @property
    def tau1(self) -> float:
        return rabi_periods(self.g)[0]

    @property
    def resolved_alpha(self) -> float:
        if self.alpha is not None:
            return self.alpha
        return amplitude_for_area(math.pi / 2.0, self.sigma)

    @property
    def window(self) -> float:
        return 2.0 * PULSE_CUTOFF * self.sigma

    @property
    def resolved_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        strength = self.resolved_alpha / (2.0 * amplitude_for_area(math.pi / 2.0, self.sigma))
        return min(self.sigma / 50.0, self.tau1 / 200.0) / max(1.0, strength)

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            n_cavities=3,
            atoms_per_cavity=(1, 1, 1),
            couplings=(self.g, self.g, self.g),
            max_photons=2,  # the two-excitation sector holds at most two photons per cavity
            omega=self.omega,
        )


@dataclass(frozen=True)
class FreeSegment:
    duration: float


@dataclass(frozen=True)
class ExchangeSegment:
    cavity_a: int
    cavity_b: int
    duration: float
    pulse: GaussianPulse  # center is relative to the segment start


def cocsign_schedule(config: GateConfig) -> tuple[FreeSegment | ExchangeSegment, ...]:
    """The gate's segment sequence: exchange aux<->x, free tau1/2, exchange
    aux<->y, free 2 n2 tau2, exchange aux<->x, free tau1/2, exchange aux<->y,
    and a trailing free tau1/2 over the whole register.  Every exchange
    centres its pulse in a window of 2 PULSE_CUTOFF sigma."""
    tau1, tau2 = rabi_periods(config.g)
    w = config.window
    if w > tau1 / 2.0:
        raise ValueError(
            f"exchange window {w:.3g} does not fit the free gaps of {tau1 / 2.0:.3g}; "
            "reduce sigma"
        )

    def exchange(a: int, b: int) -> ExchangeSegment:
        pulse = GaussianPulse(
            amplitude=config.resolved_alpha,
            center=w / 2.0,
            sigma=config.sigma,
            cutoff=PULSE_CUTOFF,
        )
        return ExchangeSegment(a, b, w, pulse)

    return (
        exchange(AUX_CAVITY, X_CAVITY),
        FreeSegment(tau1 / 2.0),
        exchange(AUX_CAVITY, Y_CAVITY),
        FreeSegment(2.0 * config.n2 * tau2),
        exchange(AUX_CAVITY, X_CAVITY),
        FreeSegment(tau1 / 2.0),
        exchange(AUX_CAVITY, Y_CAVITY),
        FreeSegment(tau1 / 2.0),
    )


# ---------------------------------------------------------------------------
# register embedding
# ---------------------------------------------------------------------------

def gate_space(config: GateConfig) -> HilbertSpace:
    """The two-excitation sector of the three-cavity register."""
    return HilbertSpace(config.network(), sector=2)


def _code_indices(space: HilbertSpace) -> np.ndarray:
    """Basis index of each encoded |x,y>, photons (x, y, 0) next to atom bits
    (1-x, 1-y, 0), in BASIS_LABELS order."""
    if (space.config.atoms_per_cavity, space.sector) != ((1, 1, 1), 2):
        raise ValueError("the register is the two-excitation sector of three one-atom cavities")
    return space.rank([[x, y, 0, 1 - x, 1 - y, 0] for x, y in np.ndindex(2, 2)])


def encode(q, space: HilbertSpace) -> StateVector:
    """Embed two-qubit amplitudes into the register sector."""
    q = _as_qubit_pair(q)
    amps = np.zeros(space.dim, dtype=complex)
    amps[_code_indices(space)] = q
    return StateVector(space, amps)


def decode(psi: StateVector) -> np.ndarray:
    """Project a register state back onto the four encoded basis states.
    The result is not renormalized; missing weight is leakage."""
    return psi.amplitudes[_code_indices(psi.space)]


# ---------------------------------------------------------------------------
# running the gate
# ---------------------------------------------------------------------------

def _xy_swap(space: HilbertSpace) -> np.ndarray:
    """Index of each basis state's image under the exchange of the x and y
    cavities with their atoms; ValueError when the network is not symmetric
    under that exchange."""
    cfg = space.config
    x_atoms, y_atoms = cfg.atom_range(X_CAVITY), cfg.atom_range(Y_CAVITY)
    if [cfg.couplings[j] for j in x_atoms] != [cfg.couplings[j] for j in y_atoms]:
        raise ValueError("the x and y cavities need equal atoms and couplings to mirror a link")
    x_slots = cfg.n_cavities + np.arange(x_atoms.start, x_atoms.stop)
    y_slots = cfg.n_cavities + np.arange(y_atoms.start, y_atoms.stop)
    columns = np.arange(cfg.n_cavities + cfg.n_atoms)
    columns[np.r_[X_CAVITY, Y_CAVITY, x_slots, y_slots]] = np.r_[Y_CAVITY, X_CAVITY, y_slots, x_slots]
    return space.rank(space.occupations[:, columns])


@functools.lru_cache(maxsize=64)
def _exchange_links(
    config: GateConfig, dt: float, amplitudes: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator stacks of the aux<->x and the aux<->y exchange on the
    register sector, one per pulse amplitude in the order given, in steps
    of dt.  The stacks are read-only and shared by every run that agrees on
    config, step and amplitudes.

    Only the aux<->x link is integrated, with its pulse at unit amplitude
    scaled by each amplitude.  The aux<->y link is that link seen through
    the x<->y swap of basis labels, so its stack is the same stack with
    rows and columns permuted."""
    space = gate_space(config)
    ev = cocsign_schedule(config)[0]  # the first aux<->x exchange
    jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
    pulse = dataclasses.replace(ev.pulse, amplitude=1.0)
    x_link = pulsed_propagators(build_tch(space), [(jump, pulse)], 0.0, ev.duration, dt, amplitudes)
    swap = _xy_swap(space)
    # C-contiguous like the integrated stack, so that every slice has one
    # memory layout and applying it rounds the same way
    y_link = np.ascontiguousarray(x_link[:, swap[:, None], swap])
    x_link.flags.writeable = y_link.flags.writeable = False
    return x_link, y_link


def _run_schedule(psi: StateVector, h0, config: GateConfig, links) -> StateVector:
    """Carry a register state through the schedule: free segments exactly
    under h0, each exchange by its propagator in ``links`` under the
    norm-drift check against ``config.norm_tolerance``, or by its zero-width
    limit when ``links`` is None.  ``links`` holds the aux<->x and the
    aux<->y propagator, so the exchanged qubit cavity (X_CAVITY = 0 or
    Y_CAVITY = 1) indexes it."""
    for ev in cocsign_schedule(config):
        if isinstance(ev, FreeSegment):
            psi = evolve_const(h0, psi, ev.duration)
        elif links is None:
            jump = jump_operator(psi.space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
            psi = evolve_const(jump, psi, math.pi / 2.0)
        else:
            psi = apply_propagator(links[ev.cavity_b], psi, config.norm_tolerance)
    return psi


def run_gate(q, config: GateConfig, instant_swaps: bool = False) -> StateVector:
    """Evolve an encoded two-qubit state through the full schedule.

    Each exchange applies its link's cached propagator at the config's
    amplitude and step to the carried state, whose norm drift is checked
    against ``config.norm_tolerance``.

    ``instant_swaps`` replaces each Gaussian exchange by its zero-width
    limit, the exact quarter-cycle hop map exp(-i (pi/2) J); free segments
    are untouched.  Useful for separating timing error from pulse error.
    """
    space = gate_space(config)
    links = None
    if not instant_swaps:
        stacks = _exchange_links(config, config.resolved_dt, (config.resolved_alpha,))
        links = tuple(u[0] for u in stacks)
    return _run_schedule(encode(q, space), build_tch(space), config, links)


def schedule_phase(config: GateConfig, instant_swaps: bool = False) -> complex:
    """Deterministic global phase the schedule imprints on a perfectly
    executed gate, relative to the bare encoded ideal state.

    Two exact bookkeeping facts: each half-period Rabi flip and each
    completed photon swap contributes -i, and over the schedule every input
    branch accumulates the same overall -1; the resonant diagonal commutes
    with everything and adds exp(-2 i omega T) for the two excitations over
    the total duration T."""
    total = sum(
        ev.duration
        for ev in cocsign_schedule(config)
        if isinstance(ev, FreeSegment) or not instant_swaps
    )
    return -np.exp(-2j * config.omega * total)


def ideal_target_state(q, config: GateConfig, instant_swaps: bool = False) -> StateVector:
    """The encoded ideal gate output, carrying the schedule's deterministic
    global phase so that raw (phase-sensitive) distances measure genuine
    error."""
    space = gate_space(config)
    target = encode(ideal_cocsign(q), space)
    target.amplitudes *= schedule_phase(config, instant_swaps=instant_swaps)
    return target


def branch_phase(
    psi: StateVector, label: str, config: GateConfig, instant_swaps: bool = False
) -> complex:
    """Phase of the surviving encoded component for a basis input, relative
    to the schedule's deterministic global phase.  Near +1 for inputs the
    gate leaves alone, near -1 for the flipped branch.  Pass the
    ``instant_swaps`` flag the state was run with: the schedule phase of
    zero-width swaps omits the exchange durations."""
    if label not in BASIS_LABELS:
        raise ValueError(f"label must be one of {BASIS_LABELS}")
    overlap = complex(decode(psi)[BASIS_LABELS.index(label)])
    if abs(overlap) < 1e-9:
        raise ValueError("no surviving weight on the encoded branch")
    return overlap / abs(overlap) / schedule_phase(config, instant_swaps)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def _amps(psi) -> np.ndarray:
    if isinstance(psi, StateVector):
        return psi.amplitudes
    return np.asarray(psi, dtype=complex)


def density(psi) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    a = _amps(psi)
    return np.outer(a, a.conj())


def trace_distance(rho, rho_id) -> float:
    """tr sqrt((rho - rho_id)^dag (rho - rho_id)): the sum of the absolute
    eigenvalues of the (Hermitian) difference.  Insensitive to global phase
    of the underlying states."""
    rho = np.asarray(rho, dtype=complex)
    rho_id = np.asarray(rho_id, dtype=complex)
    if rho.shape != rho_id.shape or rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("trace distance needs two square matrices of equal shape")
    delta = rho - rho_id
    delta = (delta + delta.conj().T) / 2.0
    return float(np.sum(np.abs(np.linalg.eigvalsh(delta))))


def modular_distance(psi, psi_id) -> float:
    """Squared amplitude distance ||psi - psi_id||^2, taken raw: a global
    phase between the states shows up in full (maximum 4 for unit vectors)."""
    a, b = _amps(psi), _amps(psi_id)
    if a.shape != b.shape:
        raise ValueError("modular distance needs states of equal dimension")
    d = a - b
    return float(np.vdot(d, d).real)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def sweep(
    config: GateConfig, alphas, q=None
) -> list[tuple[float, float, int, int, float, float]]:
    """Gate-error curve over pulse amplitude at the config's width and
    resonance pair.  Returns one row (alpha, sigma, n1, n2, d_tr, d_mod) per
    amplitude, in the order given."""
    if q is None:
        q = uniform_superposition()
    q = _as_qubit_pair(q)
    configs = [dataclasses.replace(config, alpha=float(alpha)) for alpha in alphas]
    space = gate_space(config)
    h0 = build_tch(space)
    psi0, ideal = encode(q, space), encode(ideal_cocsign(q), space).amplitudes
    groups = {}  # the runs of each step size share one build of their links
    for i, cfg in enumerate(configs):
        groups.setdefault(cfg.resolved_dt, []).append(i)
    rows = [None] * len(configs)
    for dt, members in groups.items():
        stacks = _exchange_links(config, dt, tuple(configs[i].alpha for i in members))
        for k, i in enumerate(members):
            cfg = configs[i]
            psi = _run_schedule(psi0, h0, cfg, tuple(u[k] for u in stacks))
            target = ideal * schedule_phase(cfg)  # as ideal_target_state, on one encoding
            d_tr = trace_distance(density(psi), density(target))
            d_mod = modular_distance(psi, target)
            rows[i] = (cfg.alpha, cfg.sigma, cfg.n1, cfg.n2, d_tr, d_mod)
    return rows


# ---------------------------------------------------------------------------
# physical-transfer bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferWindow:
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
    """Compare the shortest exchange time with the Rabi period; the flag
    trips when the exchange eats 1e-3 of the period or more."""
    if tau1 <= 0.0:
        raise ValueError("tau1 must be positive")
    delta_tau = min_transfer_time(delta_omega_max)
    ratio = delta_tau / tau1
    return TransferWindow(delta_tau=delta_tau, ratio=ratio, flag=ratio >= 1e-3)
