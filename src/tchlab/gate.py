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
the central hold of 2*n2 full two-excitation periods tau2.  The hold is the
only place the counters enter the dynamics, so n2 is the one input: n1 is
derived from it as the count for which 2*n1 + 1/2 one-excitation periods
come closest to the hold (``paired_n1``).  The leftover mismatch is the
gate's intrinsic error and shrinks as larger n2 are allowed.

With the sign convention used here the ideal action is
|x,y> -> (-1)^((x XOR 1) AND y) |x,y>, i.e. only |01> changes sign.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .basis import HilbertSpace, NetworkConfig, as_int
from .evolution import apply_propagator, evolve_const, pulsed_propagators, rabi_periods
from .operators import GaussianPulse, HopSpec, amplitude_for_area, build_tch, jump_operator

X_CAVITY, Y_CAVITY, AUX_CAVITY = 0, 1, 2
BASIS_LABELS = ("00", "01", "10", "11")
PULSE_CUTOFF = 6.0  # envelope truncation, in sigmas; window width is twice this
# the largest pulse amplitude: the exchange's step expansion takes its fourth
# power, which stays below 1e300
MAX_ALPHA = 1e75
# Work budget of resonance_table: ranked (n1, n2) pairs, one per n2, so an
# n_max above it is refused before anything is allocated.  A time budget:
# the ranking keeps a running top over chunks of n2, so its peak follows
# --top and not n_max.  On 2 cores with numpy 2.4 `tchlab resonance` takes
# about 0.5 s at the limit with the default --top, and peaks at 35 MB.
MAX_PAIRS = 20_000_000
# n2 per chunk of resonance_table's ranking, or --top if that is larger
_RANK_CHUNK = 2**16
# Work budget of resonance_table's rows, min(top, n_max).  `tchlab resonance`
# prints and writes about 1.7 kB a row: the limit peaks at about 510 MB with
# n_max at MAX_PAIRS.
MAX_ROWS = 300_000


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

def paired_n1(n2):
    """The n1 >= 1 nearest n2 / sqrt(2) - 1/4, which minimizes the mismatch
    |2 n2 / sqrt(2) - 2 n1 - 1/2|, for an integer or array n2.  A float (of
    integer value), so that no n2 overflows a cast."""
    return np.maximum(1.0, np.rint(n2 / math.sqrt(2.0) - 0.25))


def hold_duration(g: float, n2) -> float:
    """Length 2 n2 tau2 of the schedule's central hold."""
    return 2.0 * n2 * rabi_periods(g)[1]


def resonance_residual(n2: np.ndarray) -> np.ndarray:
    """The mismatch |sqrt(2) n2 - 2 n1 - 1/2| of each int64 n2 and its
    ``paired_n1``, in one-excitation periods, as |8 n2^2 - (4 n1 + 1)^2| /
    (2 (2 sqrt(2) n2 + 4 n1 + 1)): the difference times its conjugate sum
    over that sum.  The numerator is an exact integer (below 2**63 up to
    ``MAX_PAIRS``), so no two terms of size sqrt(2) n2 cancel.  Computed in
    place, so that at most four arrays of n2's length are alive at once."""
    m = 4 * paired_n1(n2).astype(np.int64) + 1
    num = np.square(n2)
    num *= 8
    num -= np.square(m)
    np.abs(num, out=num)
    den = math.sqrt(8.0) * n2
    den += m
    den *= 2.0
    return np.divide(num, den, out=den)


def resonance_table(n_max: int, top: int | None = None) -> list[tuple[int, int, float]]:
    """One row (n1, n2, residual) for every n2 up to n_max, with n1 its
    ``paired_n1``, ranked by the mismatch in one-excitation periods, then by
    n2.  ``top`` keeps the first rows (None: all).  A non-integer, an n_max
    above ``MAX_PAIRS`` and more than ``MAX_ROWS`` rows are refused with
    ValueError before anything is allocated.

    n2 is ranked in chunks of ``_RANK_CHUNK``, or of ``top`` if that is
    larger.  Each chunk joins the kept rows, in n2 order, and before the
    next chunk only the rows whose residual is at most the top-th smallest
    stay, ties included, so the one stable sort of the kept rows at the end
    gives the order of one stable sort of every row."""
    n_max = as_int(n_max, "n_max")
    top = n_max if top is None else as_int(top, "top")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if top < 0:
        raise ValueError("top must be non-negative")
    if n_max > MAX_PAIRS:
        raise ValueError(f"n_max {n_max} ranks {n_max} pairs, more than the limit of {MAX_PAIRS}")
    if min(top, n_max) > MAX_ROWS:
        raise ValueError(f"n_max {n_max} and top {top} list {min(top, n_max)} rows, "
                         f"more than the limit of {MAX_ROWS}")
    if top == 0:
        return []
    chunk = max(_RANK_CHUNK, top)
    n2 = np.empty(0, np.int64)
    residual = np.empty(0)
    for start in range(1, n_max + 1, chunk):
        fresh = np.arange(start, min(start + chunk, n_max + 1))
        n2 = np.concatenate((n2, fresh))
        residual = np.concatenate((residual, resonance_residual(fresh)))
        if len(residual) > top and start + chunk <= n_max:  # another chunk comes
            keep = residual <= np.partition(residual, top - 1)[top - 1]
            n2, residual = n2[keep], residual[keep]
    order = np.argsort(residual, kind="stable")[:top]
    n1 = paired_n1(n2[order]).astype(np.int64)
    return list(zip(n1.tolist(), n2[order].tolist(), residual[order].tolist()))


# ---------------------------------------------------------------------------
# configuration and schedule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GateConfig:
    """Physical and numerical parameters of one gate run.

    ``n2`` sets the hold, and ``n1`` is its ``paired_n1``.  ``alpha = None``
    selects the pulse-area rule: the Gaussian's integral is fixed to a
    quarter hop cycle (pi/2 in hbar = 1 units), which executes a complete
    photon swap.  ``dt = None`` selects the default integrator step
    min(sigma/50, tau1/200) / max(1, alpha / (2 * area-rule alpha)).
    ValueError, besides for a parameter out of its range or an n2 that is
    not an integer (numpy integers pass), for a g whose Rabi period pi/g
    overflows (``rabi_periods``), a sigma so wide that the area-rule
    amplitude is 0, an amplitude above ``MAX_ALPHA``, an exchange window
    2 PULSE_CUTOFF sigma longer than the free gaps tau1/2, and an omega or g
    whose largest register frequency, 2 omega + 3 g, times the schedule's
    duration overflows.
    """

    g: float = 1e-3
    sigma: float = 0.5
    alpha: float | None = None
    n2: int = 6
    omega: float = 1.0
    dt: float | None = None

    def __post_init__(self):
        tau1 = self.tau1
        if not 0.0 < self.sigma < math.inf:
            raise ValueError("pulse sigma must be positive and finite")
        _run_alpha(self, self.alpha)
        # the hold's counter becomes a float in its duration and its CSV cell
        if not 1 <= as_int(self.n2, "resonance counter n2") <= 2**53:
            raise ValueError("resonance counter n2 must be a positive integer of at most 2**53, "
                             "the last a float holds exactly")
        if self.dt is not None and not 0.0 < self.dt < math.inf:
            raise ValueError("integrator step dt must be a positive finite number")
        if not 0.0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        if not amplitude_for_area(math.pi / 2.0, self.sigma) > 0.0:
            raise ValueError(f"pulse sigma {self.sigma:g} puts the area-rule amplitude at 0")
        if self.window > tau1 / 2.0:
            raise ValueError(f"exchange window {self.window:.3g} at sigma {self.sigma:g} does "
                             f"not fit the free gaps of {tau1 / 2.0:.3g} at g {self.g:g}; "
                             "reduce sigma")
        object.__setattr__(self, "_schedule", cocsign_schedule(self))  # what every run reads
        duration = schedule_duration(self)
        if not (2.0 * self.omega + 3.0 * self.g) * duration < math.inf:
            raise ValueError(f"omega {self.omega:g} and g {self.g:g} put the register's phase, "
                             f"(2 omega + 3 g) times the schedule's duration {duration:g}, "
                             "beyond the float range")

    @property
    def n1(self) -> int:
        return int(paired_n1(self.n2))

    @property
    def tau1(self) -> float:
        return rabi_periods(self.g)[0]

    @property
    def resolved_alpha(self) -> float:
        return _run_alpha(self, self.alpha)

    @property
    def window(self) -> float:
        return 2.0 * PULSE_CUTOFF * self.sigma

    @property
    def resolved_dt(self) -> float:
        return _run_dt(self, self.resolved_alpha)

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            n_cavities=3,
            atoms_per_cavity=(1, 1, 1),
            couplings=(self.g, self.g, self.g),
            max_photons=2,  # the two-excitation sector holds at most two photons per cavity
            omega=self.omega,
        )


def _run_alpha(config: GateConfig, alpha) -> float:
    """The pulse amplitude of a run of ``config`` at alpha, None selecting
    the area rule: ValueError for one that is negative, not finite or above
    ``MAX_ALPHA``, as ``GateConfig`` refuses its own."""
    source = ""
    if alpha is None:
        alpha = amplitude_for_area(math.pi / 2.0, config.sigma)
        source = f" (the area rule at sigma {config.sigma:g})"
    elif not 0.0 <= alpha < math.inf:
        raise ValueError("pulse amplitude alpha must be non-negative and finite")
    if not alpha <= MAX_ALPHA:
        raise ValueError(f"pulse amplitude alpha {alpha:g}{source} exceeds the limit of {MAX_ALPHA:g}")
    return alpha


def _run_dt(config: GateConfig, alpha: float) -> float:
    """The integrator step of a run of ``config`` at amplitude alpha: the
    config's dt, else the default of ``GateConfig``."""
    if config.dt is not None:
        return config.dt
    strength = alpha / (2.0 * amplitude_for_area(math.pi / 2.0, config.sigma))
    return min(config.sigma / 50.0, config.tau1 / 200.0) / max(1.0, strength)


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
    aux<->y, the hold of 2 n2 tau2, exchange aux<->x, free tau1/2, exchange
    aux<->y, and a trailing free tau1/2 over the whole register.  Every
    exchange centres its pulse in a window of 2 PULSE_CUTOFF sigma, which
    ``GateConfig`` has checked to fit the free gaps."""
    w = config.window
    gap = FreeSegment(config.tau1 / 2.0)
    pulse = GaussianPulse(config.resolved_alpha, center=w / 2.0, sigma=config.sigma,
                          cutoff=PULSE_CUTOFF)
    to_x, to_y = (ExchangeSegment(AUX_CAVITY, b, w, pulse) for b in (X_CAVITY, Y_CAVITY))
    return (to_x, gap, to_y, FreeSegment(hold_duration(config.g, config.n2)),
            to_x, gap, to_y, gap)


def schedule_duration(config: GateConfig) -> float:
    """The segment durations of the config's one schedule summed in schedule order."""
    return sum(ev.duration for ev in config._schedule)


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


def encode(q, space: HilbertSpace) -> np.ndarray:
    """Embed two-qubit amplitudes into the register sector: one row of four
    gives one (dim,) row, a (runs, 4) stack one (runs, dim) stack."""
    q = np.asarray(q, dtype=complex)
    rows = [_as_qubit_pair(row) for row in q] if q.ndim == 2 else [_as_qubit_pair(q)]
    psi = np.zeros((len(rows), space.dim), dtype=complex)
    psi[:, _code_indices(space)] = np.reshape(rows, (-1, 4))
    return psi if q.ndim == 2 else psi[0]


def decode(psi: np.ndarray, space: HilbertSpace) -> np.ndarray:
    """Project register states, one row or a stack of rows, back onto the
    four encoded basis states.  The result is not renormalized; missing
    weight is leakage."""
    return psi[..., _code_indices(space)]


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


def _exchange_links(
    config: GateConfig, space: HilbertSpace, h0, dt: float, amplitudes: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Propagator stacks of the aux<->x and the aux<->y exchange on the
    caller's register sector ``space`` with its H0, one per pulse amplitude
    in the order given, in steps of dt.  Only the aux<->x link is built,
    integrated with the unit-amplitude pulse scaled by each amplitude.  The
    aux<->y link is that link seen through the x<->y swap of basis labels,
    so its stack is the same stack with rows and columns permuted."""
    ev = config._schedule[0]  # the first aux<->x exchange
    jump = jump_operator(space, HopSpec(ev.cavity_a, ev.cavity_b, amplitude=1.0))
    unit = dataclasses.replace(ev.pulse, amplitude=1.0)
    x_link = pulsed_propagators(h0, [(jump, unit)], 0.0, ev.duration, dt, amplitudes)
    swap = _xy_swap(space)
    # C-contiguous like the integrated stack, so that every slice has one
    # memory layout and applying it rounds the same way
    return x_link, np.ascontiguousarray(x_link[:, swap[:, None], swap])


def _final_states(config: GateConfig, runs) -> tuple[HilbertSpace, list[np.ndarray]]:
    """The register, and for each (alpha, inputs) pair of ``runs`` the final
    states of its two-qubit inputs at that pulse amplitude (None: the area
    rule), one row each, in the orders given.  Each run's amplitude and step
    come from ``config`` (``_run_alpha``, ``_run_dt``), and an amplitude
    ``GateConfig`` would refuse raises its ValueError before any work.

    Every run of a call shares one register, one H0 and one schedule, and
    the runs of each step size one ``_exchange_links`` call over their
    amplitudes.  The states are carried through the schedule together, as
    one (states, dim) stack: each free segment is one ``evolve_const`` and
    each exchange one ``apply_propagator`` with every state's own link,
    which checks every carried state's norm drift.  On a stack both give
    each state the bits it gets carried alone, so a state's bits do not
    depend on the other runs of the call."""
    alphas = [_run_alpha(config, alpha) for alpha, _ in runs]
    space = gate_space(config)
    h0 = build_tch(space)
    psi = encode([q for _, inputs in runs for q in inputs], space)
    sizes = [len(inputs) for _, inputs in runs]
    groups = {}
    for i, alpha in enumerate(alphas):
        groups.setdefault(_run_dt(config, alpha), []).append(i)
    # the aux<->x and aux<->y link of each run, indexed by the exchanged
    # qubit cavity (X_CAVITY = 0 or Y_CAVITY = 1), then one row per state
    links = np.empty((2, len(runs), space.dim, space.dim), dtype=complex)
    for dt, members in groups.items():
        amplitudes = tuple(alphas[i] for i in members)
        links[X_CAVITY, members], links[Y_CAVITY, members] = _exchange_links(
            config, space, h0, dt, amplitudes)
    links = links[:, np.repeat(np.arange(len(runs)), sizes)]
    for ev in config._schedule:
        if isinstance(ev, FreeSegment):
            psi = evolve_const(h0, psi, ev.duration)
        else:
            psi = apply_propagator(links[ev.cavity_b], psi)
    edges = np.cumsum([0] + sizes)
    return space, [psi[first:last] for first, last in zip(edges, edges[1:])]


def run_gate(q, config: GateConfig) -> np.ndarray:
    """Evolve an encoded two-qubit state through the full schedule to its
    final (dim,) row on ``gate_space(config)``.

    Each exchange applies its link's propagator at the config's amplitude
    and step to the carried state, whose norm drift is checked against
    ``evolution.NORM_TOLERANCE``: ``_final_states`` with one run of one
    input.
    """
    _, ((psi,),) = _final_states(config, [(config.alpha, [q])])
    return psi


def schedule_phase(config: GateConfig) -> complex:
    """Deterministic global phase the schedule imprints on a perfectly
    executed gate, relative to the bare encoded ideal state.

    Two exact bookkeeping facts: each half-period Rabi flip and each
    completed photon swap contributes -i, and over the schedule every input
    branch accumulates the same overall -1; the resonant diagonal commutes
    with everything and adds exp(-2 i omega T) for the two excitations over
    the total duration T."""
    return -np.exp(-2j * config.omega * schedule_duration(config))


def branch_phase(code: np.ndarray, label: str, config: GateConfig) -> complex:
    """Phase of the surviving encoded component for a basis input, from the
    four ``decode``d amplitudes of its final state, relative to the
    schedule's deterministic global phase.  Near +1 for inputs the gate
    leaves alone, near -1 for the flipped branch."""
    if label not in BASIS_LABELS:
        raise ValueError(f"label must be one of {BASIS_LABELS}")
    overlap = complex(code[BASIS_LABELS.index(label)])
    if abs(overlap) < 1e-9:
        raise ValueError("no surviving weight on the encoded branch")
    return overlap / abs(overlap) / schedule_phase(config)


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def trace_distance(psi, psi_id) -> float:
    """Trace norm of |psi><psi| - |psi_id><psi_id|, insensitive to a global
    phase of either state.  The difference has rank 2 at most, so with a the
    state of larger norm and b_perp = b - (<a|b> / ||a||^2) a the part of the
    other state orthogonal to it, the norm is the closed form
    2 sqrt(((||a||^2 - ||b||^2) / 2)^2 + ||a||^2 ||b_perp||^2), in which no
    two large terms cancel (Nielsen and Chuang, section 9.2); two zero
    vectors are at distance 0."""
    a, b = np.asarray(psi, dtype=complex), np.asarray(psi_id, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("trace distance needs states of equal dimension")
    na2, nb2 = np.vdot(a, a).real, np.vdot(b, b).real
    if nb2 > na2:
        a, b, na2, nb2 = b, a, nb2, na2
    if na2 == 0.0:
        return 0.0
    b_perp = b - (np.vdot(a, b) / na2) * a
    return float(2.0 * math.hypot((na2 - nb2) / 2.0, math.sqrt(na2) * np.linalg.norm(b_perp)))


def modular_distance(psi, psi_id) -> float:
    """Squared amplitude distance ||psi - psi_id||^2, taken raw: a global
    phase between the states shows up in full (maximum 4 for unit vectors)."""
    a, b = np.asarray(psi, dtype=complex), np.asarray(psi_id, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("modular distance needs states of equal dimension")
    d = a - b
    return float(np.vdot(d, d).real)


# ---------------------------------------------------------------------------
# parameter sweeps
# ---------------------------------------------------------------------------

def sweep(
    config: GateConfig, alphas, q=None
) -> tuple[list[tuple[float, float, int, int, float, float]], dict[str, complex]]:
    """Gate-error curve over pulse amplitude at the config's width and
    resonance pair, and the basis branch phases at the config's amplitude.

    Returns the rows, one (alpha, sigma, n1, n2, d_tr, d_mod) per amplitude
    in the order given, and ``branch_phase`` of each basis input by label in
    BASIS_LABELS order.  The distances are taken to the encoded ideal
    output times ``schedule_phase``, so that raw (phase-sensitive) distances
    measure genuine error.  One run of ``_final_states``: each amplitude's
    input and the four basis inputs are carried as one stack through one
    build of the links per step size."""
    q = _as_qubit_pair(uniform_superposition() if q is None else q)
    alphas = [float(alpha) for alpha in alphas]
    runs = [(alpha, [q]) for alpha in alphas] + [(config.alpha, np.eye(4, dtype=complex))]
    space, states = _final_states(config, runs)
    target = encode(ideal_cocsign(q), space) * schedule_phase(config)
    rows = [(alpha, config.sigma, config.n1, config.n2,
             trace_distance(psi, target), modular_distance(psi, target))
            for alpha, (psi,) in zip(alphas, states)]
    return rows, {label: branch_phase(code, label, config)
                  for label, code in zip(BASIS_LABELS, decode(states[-1], space))}
