"""Command line experiments.

Four subcommands: ``gate`` sweeps the entangling-gate error over pulse
amplitude, ``walk`` spreads one photon over a cavity ring and compares it
with the free-particle propagator, ``dark`` separates dark from light atomic
states by photon arrival times, and ``resonance`` ranks the Rabi-counter
pairs the gate schedule relies on.

Each subcommand parses its flags, makes one library call for its study
and writes what that call returns.

Exit codes: 0 success, 2 usage error, 3 numerical drift beyond tolerance,
4 classification attempted but statistically inconclusive (|z| < 3, or
samples without spread, for which the z-score is written as null).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from .darkstates import MAX_ATOMS, MAX_RATE, MAX_TIMES, MAX_TRIALS, dark_study
from .evolution import NumericalDriftError, rabi_periods
from .gate import (
    BASIS_LABELS,
    MAX_PAIRS,
    MAX_ROWS,
    GateConfig,
    hold_duration,
    resonance_table,
    schedule_duration,
    sweep,
    uniform_superposition,
)
from .reports import format_column, write_csv, write_grid_csv, write_json
from .walk import MAX_CELLS, WalkConfig, simulate_walk

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DRIFT = 3
EXIT_INCONCLUSIVE = 4


def _float_list(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a comma list of numbers: {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("needs at least one number")
    return values


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=".", help="directory for output files")
    parser.add_argument("--seed", type=int, default=0, help="random seed")


# ---------------------------------------------------------------------------
# gate
# ---------------------------------------------------------------------------

def cmd_gate(args) -> int:
    config = GateConfig(
        g=args.g,
        sigma=args.sigma,
        n2=args.n2,
        omega=args.omega,
        dt=args.dt,
    )
    if args.n1 not in (None, config.n1):
        raise ValueError(f"--n1 {args.n1} is not the pairing of --n2 {config.n2}, "
                         f"which is n1 = {config.n1}")
    base_alpha = config.resolved_alpha
    alphas = [s * base_alpha for s in args.alpha_scales]
    if args.input == "uniform":
        q = uniform_superposition()
    else:
        q = np.zeros(4, dtype=complex)
        q[BASIS_LABELS.index(args.input)] = 1.0

    # every result before the first file, so that a failure leaves none
    rows, phases = sweep(config, alphas, q=q)
    columns = ("alpha", "sigma", "n1", "n2", "d_tr", "d_mod")
    sweep_path = write_csv(os.path.join(args.out_dir, "gate_sweep.csv"), columns, rows)

    tau1, tau2 = rabi_periods(config.g)
    summary = {
        "command": "gate",
        "g": config.g,
        "omega": config.omega,
        "sigma": config.sigma,
        "n1": config.n1,
        "n2": config.n2,
        "input": args.input,
        "alpha_scales": list(args.alpha_scales),
        "area_rule_alpha": base_alpha,
        "tau1": tau1,
        "tau2": tau2,
        "total_duration": schedule_duration(config),
        "n_points": len(rows),
        "best": dict(zip(columns, min(rows, key=lambda r: r[5]))),
        "basis_branch_phases": phases,
        "files": {"sweep": os.path.basename(sweep_path)},
    }
    write_json(os.path.join(args.out_dir, "gate_summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# walk
# ---------------------------------------------------------------------------

def cmd_walk(args) -> int:
    config = WalkConfig(
        n_cavities=args.n_cavities,
        mass=args.mass,
        origin=args.origin,
        t_max=args.t_max,
        n_times=args.n_times,
    )
    result = simulate_walk(config)

    # every result before the first file, so that a failure leaves none
    n = config.n_cavities
    origin = config.resolved_origin
    sites = (np.arange(n), result.positions)
    amp_path = write_grid_csv(
        os.path.join(args.out_dir, "walk_amplitude.csv"),
        ("time", "cavity", "position", "re_amplitude", "im_amplitude", "abs_amplitude"),
        result.times, sites, result.amplitudes,
    )
    kernel_path = write_grid_csv(
        os.path.join(args.out_dir, "kernel.csv"),
        ("time", "cavity", "position", "re_kernel", "im_kernel", "abs_kernel"),
        result.times, sites, result.kernel,
    )
    net_path = write_csv(
        os.path.join(args.out_dir, "network.csv"),
        ("separation", "n_links", "mean_amplitude", "mean_phase"),
        result.network_profile,
    )

    summary = {
        "command": "walk",
        "n_cavities": n,
        "mass": config.mass,
        "origin": origin,
        "t_max": config.resolved_t_max,
        "n_times": config.n_times,
        "ballistic_exponent": result.ballistic_exponent,
        "momentum_population_drift": result.momentum_drift,
        "norm_drift": result.norm_drift,
        "reflection_residual": result.reflection_residual,
        "kernel_overlap_final": result.kernel_overlap,
        "n_links": sum(count for _, count, _, _ in result.network_profile),
        "files": {
            "amplitude": os.path.basename(amp_path),
            "kernel": os.path.basename(kernel_path),
            "network": os.path.basename(net_path),
        },
    }
    write_json(os.path.join(args.out_dir, "walk_summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# dark
# ---------------------------------------------------------------------------

def cmd_dark(args) -> int:
    study = dark_study(args.atoms, args.g, kappa=args.kappa, omega=args.omega,
                       t_max=args.t_max, n_times=args.n_times, truth=args.truth,
                       n_trials=args.n_trials, detector_error=args.detector_error,
                       rng=args.seed)
    config = study.dark.config

    if args.atoms == 0:
        report = study.dark
        write_csv(
            os.path.join(args.out_dir, "emission_density.csv"),
            ("time", "density", "survival"),
            np.column_stack((report.times, report.density, report.survival)),
        )
        write_json(
            os.path.join(args.out_dir, "dark_summary.json"),
            {
                "command": "dark",
                "atoms": 0,
                "kappa": config.resolved_kappa,
                "omega": config.omega,
                "t_max": config.resolved_t_max,
                "n_times": config.n_times,
                "escape_probability": report.escape_probability,
                "mean_emission_time": report.mean_emission_time,
            },
        )
        return EXIT_OK

    dark_report, light_report, dark_check, light_check, result = study

    # Samples of zero variance off the threshold score z = +-inf: no spread
    # to measure significance by, so the run is inconclusive and z is null.
    z_score = result.z_score if math.isfinite(result.z_score) else None
    write_csv(
        os.path.join(args.out_dir, "emission_density.csv"),
        ("time", "p_dark", "p_light", "s_dark", "s_light"),
        np.column_stack((
            dark_report.times,
            dark_report.density,
            light_report.density,
            dark_report.survival,
            light_report.survival,
        )),
    )
    write_json(
        os.path.join(args.out_dir, "classify.json"),
        {
            "truth": args.truth,
            "decision": result.decision,
            "correct": result.decision == args.truth,
            "z_score": z_score,
            "n_trials": result.n_trials,
            "n_censored": result.n_censored,
            "sample_mean": result.sample_mean,
            "threshold": result.threshold,
            "dark_mean": result.dark_mean,
            "light_mean": result.light_mean,
            "detector_error": result.detector_error,
            "seed": args.seed,
        },
    )
    write_json(
        os.path.join(args.out_dir, "dark_summary.json"),
        {
            "command": "dark",
            "atoms": args.atoms,
            "g": args.g,
            "kappa": config.resolved_kappa,
            "omega": config.omega,
            "t_max": config.resolved_t_max,
            "n_times": config.n_times,
            "dark_absorption_residual": dark_check.absorption_residual,
            "light_absorption_residual": light_check.absorption_residual,
            "dark_is_dark": dark_check.is_dark,
            "light_is_dark": light_check.is_dark,
            "dark_escape_probability": dark_report.escape_probability,
            "light_escape_probability": light_report.escape_probability,
            "dark_mean_emission_time": dark_report.mean_emission_time,
            "light_mean_emission_time": light_report.mean_emission_time,
        },
    )
    if z_score is None or abs(z_score) < 3.0:
        why = (f"all {args.n_trials} samples are equal, so z is undefined" if z_score is None
               else f"|z| = {abs(z_score):.3g} < 3 with {args.n_trials} trials")
        print(f"inconclusive: {why}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ---------------------------------------------------------------------------
# resonance
# ---------------------------------------------------------------------------

def cmd_resonance(args) -> int:
    tau1, tau2 = rabi_periods(args.g)
    rows = resonance_table(args.n_max, top=args.top)
    n2s = np.array([n2 for _, n2, _ in rows])
    with np.errstate(over="ignore"):  # a hold past the float range is inf, refused below
        holds = hold_duration(args.g, n2s)
    if not np.all(np.isfinite(holds)):
        longest = int(np.argmax(n2s))
        raise ValueError(f"g {args.g:g} puts the hold 2 n2 tau2 of the listed n2 {n2s[longest]} "
                         f"at {holds[longest]:g}, beyond the float range")
    holds = holds.tolist()
    table = [
        {"n1": n1, "n2": n2, "residual": residual, "hold_duration": hold}
        for (n1, n2, residual), hold in zip(rows, holds)
    ]
    print(f"{'n1':>5} {'n2':>5} {'residual':>24} {'hold_duration':>24}")
    residuals = format_column([row["residual"] for row in table])
    durations = format_column([row["hold_duration"] for row in table])
    for row, residual, duration in zip(table, residuals, durations):
        print(f"{row['n1']:>5} {row['n2']:>5} {residual:>24} {duration:>24}")
    summary = {
        "command": "resonance",
        "g": args.g,
        "n_max": args.n_max,
        "top": args.top,
        "tau1": tau1,
        "tau2": tau2,
        "rows": table,
    }
    if table:
        summary["best"] = table[0]
    write_json(os.path.join(args.out_dir, "resonance_summary.json"), summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: every default is
    immutable, so no parse leaves a value for the next one."""
    parser = argparse.ArgumentParser(
        prog="tchlab",
        description="Cavity-network experiments: entangling gate, photon walk, dark states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gate", help="sweep the entangling gate error over pulse amplitude")
    _add_common(p)
    p.add_argument("--g", type=float, default=1e-3, help="atom-cavity coupling")
    p.add_argument("--omega", type=float, default=1.0, help="shared resonance frequency")
    p.add_argument("--sigma", type=float, default=0.5, help="exchange pulse width")
    p.add_argument("--n1", type=int, default=None,
                   help="single-excitation Rabi counter; optional, refused unless it pairs with --n2")
    p.add_argument("--n2", type=int, default=6, help="double-excitation Rabi counter")
    p.add_argument(
        "--alpha-scales",
        type=_float_list,
        default=(0.5, 0.75, 1.0, 1.25, 1.5),
        help="comma list of multiples of the pulse-area-rule amplitude",
    )
    p.add_argument(
        "--input",
        choices=("uniform",) + BASIS_LABELS,
        default="uniform",
        help="two-qubit input state",
    )
    p.add_argument(
        "--dt",
        type=float,
        default=None,
        help="exchange-window integrator step (default: sigma / 50, less for strong pulses)",
    )
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser("walk", help="single-photon spread on a cavity ring")
    _add_common(p)
    p.add_argument("--n-cavities", type=int, default=128,
                   help=f"even, at least 2; times --n-times at most {MAX_CELLS} cells")
    p.add_argument("--mass", type=float, default=1.0)
    p.add_argument("--origin", type=int, default=None, help="start cavity (default: middle)")
    p.add_argument("--t-max", type=float, default=None, help="default: mass / 4, pre-wrap")
    p.add_argument("--n-times", type=int, default=51)
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("dark", help="dark-state selection by photon arrival times")
    _add_common(p)
    p.add_argument("--atoms", type=int, default=2,
                   help=f"register size, zero or even, at most {MAX_ATOMS}")
    p.add_argument("--g", type=float, default=1e-3,
                   help=f"atom-cavity coupling, at most {MAX_RATE:g}")
    p.add_argument("--omega", type=float, default=1.0,
                   help="frequency; a global phase of the decay, so it changes no computed number")
    p.add_argument("--kappa", type=float, default=None,
                   help=f"photon loss rate (default g/10), at most {MAX_RATE:g}")
    p.add_argument("--t-max", type=float, default=None, help="observation horizon (default 20/kappa)")
    p.add_argument("--n-times", type=int, default=2001, help=f"time samples, at most {MAX_TIMES}")
    p.add_argument("--n-trials", type=int, default=10000,
                   help=f"sampled emission times, at least 2 and at most {MAX_TRIALS}")
    p.add_argument("--detector-error", type=float, default=0.03,
                   help="flip probability of each sample's evidence, in [0, 1]")
    p.add_argument("--truth", choices=("dark", "light"), default="dark",
                   help="hypothesis the samples are drawn from")
    p.set_defaults(func=cmd_dark)

    p = sub.add_parser("resonance", help="rank Rabi-counter pairs by timing mismatch")
    _add_common(p)
    p.add_argument("--g", type=float, default=1e-3)
    p.add_argument("--n-max", type=int, default=100,
                   help=f"largest n2, one ranked pair each; at most {MAX_PAIRS} pairs")
    p.add_argument("--top", type=int, default=3,
                   help=f"rows kept; at most {MAX_ROWS} rows, the lesser of --top and --n-max")
    p.set_defaults(func=cmd_resonance)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NumericalDriftError as exc:
        print(f"numerical drift: {exc}", file=sys.stderr)
        return EXIT_DRIFT
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
