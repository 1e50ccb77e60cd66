import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tchlab
from oracles import jsonable, walk_rows_loop, write_csv_loop
from tchlab.cli import build_parser, main
from tchlab.reports import write_json
from tchlab.darkstates import (
    MAX_ATOMS,
    MAX_TIMES,
    MAX_TRIALS,
    DecayConfig,
    _light_reference,
    dark_study,
    emission_density,
    singlet_product,
)
from tchlab.gate import (
    MAX_PAIRS,
    MAX_ROWS,
    GateConfig,
    hold_duration,
    sweep,
    uniform_superposition,
)
from tchlab.walk import MAX_CELLS, WalkConfig, simulate_walk
from tchlab.evolution import pulsed_propagators

GATE_ARGS = ["--alpha-scales", "0.5,1.0"]


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


@pytest.fixture(scope="module")
def gate_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("gate")
    assert main(["gate", "--out-dir", str(out), *GATE_ARGS]) == 0
    return out


@pytest.fixture(scope="module")
def walk_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("walk")
    args = ["walk", "--out-dir", str(out), "--n-cavities", "32", "--n-times", "5"]
    assert main(args) == 0
    return out


@pytest.fixture(scope="module")
def dark_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dark")
    assert main(["dark", "--out-dir", str(out)]) == 0
    return out


def test_gate_outputs_and_headers(gate_dir):
    header, rows = _read_csv(gate_dir / "gate_sweep.csv")
    assert header == ["alpha", "sigma", "n1", "n2", "d_tr", "d_mod"]
    assert len(rows) == 2
    summary = json.loads((gate_dir / "gate_summary.json").read_text())
    assert summary["command"] == "gate"
    assert summary["input"] == "uniform"
    assert summary["n_points"] == 2
    assert summary["files"] == {"sweep": "gate_sweep.csv"}
    assert summary["best"]["d_mod"] <= min(float(r[5]) for r in rows) + 1e-18
    phases = summary["basis_branch_phases"]
    assert set(phases) == {"00", "01", "10", "11"}
    assert phases["01"]["re"] < 0.0  # the conditioned branch is inverted


def test_gate_csv_round_trips_floats_exactly(gate_dir):
    _, rows = _read_csv(gate_dir / "gate_sweep.csv")
    config = GateConfig()
    alphas = [0.5 * config.resolved_alpha, 1.0 * config.resolved_alpha]
    expected, _ = sweep(config, alphas, q=uniform_superposition())
    assert len(rows) == len(expected)
    for row, exp in zip(rows, expected):
        for cell, value in zip(row, exp):
            assert float(cell) == float(value)


def test_gate_basis_input_label(tmp_path):
    args = ["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0",
            "--input", "01"]
    assert main(args) == 0
    summary = json.loads((tmp_path / "gate_summary.json").read_text())
    assert summary["input"] == "01"


@pytest.mark.parametrize("n1, n2", [(5, 6), (999, 6), (0, 6), (4, 10)])
def test_gate_refuses_an_n1_that_is_not_the_pairing_of_n2(tmp_path, capsys, n1, n2):
    code = main(["gate", "--out-dir", str(tmp_path), "--n1", str(n1), "--n2", str(n2)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"which is n1 = {GateConfig(n2=n2).n1}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_gate_labels_the_pairing_of_n2_whether_or_not_n1_is_given(tmp_path):
    files = {}
    for name, extra in (("derived", []), ("given", ["--n1", "7"])):
        out = tmp_path / name
        assert main(["gate", "--out-dir", str(out), "--alpha-scales", "1.0",
                     "--n2", "10", *extra]) == 0
        files[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert files["derived"] == files["given"]
    summary = json.loads(files["derived"]["gate_summary.json"])
    assert (summary["n1"], summary["n2"]) == (7, 10)


def test_a_window_wider_than_the_free_gaps_is_refused_without_a_warning(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["gate", "--g", "1e4", "--out-dir", str(tmp_path)]) == 2
    assert "exchange window" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_default_gate_run_integrates_one_link_stack(tmp_path, monkeypatch):
    # one stack for the sweep's five scales and the area rule, which the
    # four basis-phase runs share: every amplitude shares the default step
    amplitudes = []

    def counted(h0, pulses, t_start, t_end, dt, scales):
        amplitudes.append(len(scales))
        return pulsed_propagators(h0, pulses, t_start, t_end, dt, scales)

    monkeypatch.setattr(tchlab.gate, "pulsed_propagators", counted)
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    assert amplitudes == [6]


def test_a_default_gate_run_builds_one_register_and_one_h0(tmp_path, monkeypatch):
    # the sweep and the branch phases run on one register and its H0, and
    # the link build takes both instead of building its own
    built = []

    def counted(builder):
        def build(*args, **kwargs):
            built.append(builder.__name__)
            return builder(*args, **kwargs)
        return build

    for name in ("gate_space", "build_tch"):
        monkeypatch.setattr(tchlab.gate, name, counted(getattr(tchlab.gate, name)))
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    assert sorted(built) == ["build_tch", "gate_space"]


def test_a_default_gate_run_builds_one_schedule(tmp_path, monkeypatch):
    # the config keeps the schedule its duration check builds, and the
    # links, the carried stack, the phases and the summary read that one
    built = []
    schedule = tchlab.gate.cocsign_schedule

    def counted(config):
        built.append(config)
        return schedule(config)

    monkeypatch.setattr(tchlab.gate, "cocsign_schedule", counted)
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    assert len(built) == 1


def test_the_gate_command_writes_the_rows_and_phases_of_the_two_calls(tmp_path):
    scales = ["0.5", "1", "3"]
    assert main(["gate", "--out-dir", str(tmp_path), "--input", "10",
                 "--alpha-scales", ",".join(scales)]) == 0
    config = GateConfig()
    q = np.zeros(4, dtype=complex)
    q[2] = 1.0
    rows, phases = sweep(config, [float(s) * config.resolved_alpha for s in scales], q=q)
    reference = write_csv_loop(tmp_path / "loop_gate_sweep.csv",
                               ("alpha", "sigma", "n1", "n2", "d_tr", "d_mod"), rows)
    assert (tmp_path / "gate_sweep.csv").read_bytes() == reference.read_bytes()
    summary = json.loads((tmp_path / "gate_summary.json").read_text())
    written = {label: complex(p["re"], p["im"]) for label, p in summary["basis_branch_phases"].items()}
    assert written == phases


def test_every_main_call_shares_one_parser(capsys):
    # argparse copies its defaults into each namespace and a default is a
    # tuple, so no parse can change the next one's values
    assert build_parser() is build_parser()
    first = build_parser().parse_args(["gate"])
    first.alpha_scales += (9.0,)
    assert build_parser().parse_args(["gate"]).alpha_scales == (0.5, 0.75, 1.0, 1.25, 1.5)
    before = build_parser.cache_info()
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["gate", "--help"])
    after = build_parser.cache_info()
    assert (after.misses, after.hits) == (before.misses, before.hits + 2)
    shared, fresh = capsys.readouterr().out, _help_text(build_parser.__wrapped__(), "gate")
    assert shared == fresh + fresh and "--alpha-scales" in fresh


def _help_text(parser, command):
    """What ``command --help`` prints through ``parser``."""
    with pytest.raises(SystemExit), contextlib.redirect_stdout(io.StringIO()) as out:
        parser.parse_args([command, "--help"])
    return out.getvalue()


def test_gate_coarse_step_exits_with_drift_code(tmp_path, capsys):
    args = ["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0",
            "--dt", "1.0"]
    assert main(args) == 3
    assert "drift" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("dt", ["0", "-0.01", "inf", "nan"])
def test_gate_rejects_a_step_that_is_not_positive_and_finite(tmp_path, capsys, dt):
    args = ["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0", "--dt", dt]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "dt must be a positive finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "gate_sweep.csv").exists()


def test_gate_default_step_follows_strong_pulses(tmp_path):
    # at three area-rule amplitudes the default step shrinks enough for the
    # carried |00> branch to stay inside the drift tolerance
    assert main(["gate", "--out-dir", str(tmp_path), "--input", "00",
                 "--alpha-scales", "3"]) == 0


def test_walk_outputs_and_headers(walk_dir):
    header, rows = _read_csv(walk_dir / "walk_amplitude.csv")
    assert header == ["time", "cavity", "position", "re_amplitude",
                      "im_amplitude", "abs_amplitude"]
    assert len(rows) == 5 * 32
    header, _ = _read_csv(walk_dir / "kernel.csv")
    assert header == ["time", "cavity", "position", "re_kernel", "im_kernel",
                      "abs_kernel"]
    header, net_rows = _read_csv(walk_dir / "network.csv")
    assert header == ["separation", "n_links", "mean_amplitude", "mean_phase"]
    assert len(net_rows) > 0
    summary = json.loads((walk_dir / "walk_summary.json").read_text())
    assert summary["command"] == "walk"
    assert abs(summary["ballistic_exponent"] - 2.0) < 0.1
    assert summary["momentum_population_drift"] < 1e-10
    assert summary["norm_drift"] < 1e-10
    assert summary["reflection_residual"] < 1e-8
    assert summary["files"]["amplitude"] == "walk_amplitude.csv"


def test_walk_runs_are_byte_identical(walk_dir, tmp_path):
    args = ["walk", "--out-dir", str(tmp_path), "--n-cavities", "32",
            "--n-times", "5"]
    assert main(args) == 0
    for name in ("walk_amplitude.csv", "kernel.csv", "network.csv",
                 "walk_summary.json"):
        assert (walk_dir / name).read_bytes() == (tmp_path / name).read_bytes()


WALK_CSV_CASES = [
    (n, origin, mass)
    for n in (8, 128)
    for origin, mass in ((None, 1.0), (n // 8 + 1, 1.0), (None, 2.5))
] + [(1024, 700, 1.0)]  # the benchmark's walk-ring shape


@pytest.mark.parametrize("n, origin, mass", WALK_CSV_CASES)
def test_walk_csvs_match_the_per_cell_writer(tmp_path, n, origin, mass):
    args = ["walk", "--out-dir", str(tmp_path), "--n-cavities", str(n), "--mass", str(mass)]
    if origin is not None:
        args += ["--origin", str(origin)]
    assert main(args) == 0
    result = simulate_walk(WalkConfig(n_cavities=n, mass=mass, origin=origin))
    amp_rows, kernel_rows = walk_rows_loop(result)
    for name, values, rows in (("walk_amplitude.csv", "amplitude", amp_rows),
                               ("kernel.csv", "kernel", kernel_rows)):
        header = ("time", "cavity", "position", f"re_{values}", f"im_{values}", f"abs_{values}")
        reference = write_csv_loop(tmp_path / f"loop_{name}", header, rows)
        assert (tmp_path / name).read_bytes() == reference.read_bytes()
    reference = write_csv_loop(tmp_path / "loop_network.csv",
                               ("separation", "n_links", "mean_amplitude", "mean_phase"),
                               result.network_profile)
    assert (tmp_path / "network.csv").read_bytes() == reference.read_bytes()
    # the summary holds the walk's own scalars, unchanged
    summary = json.loads((tmp_path / "walk_summary.json").read_text())
    assert summary["reflection_residual"] == result.reflection_residual
    assert summary["kernel_overlap_final"] == result.kernel_overlap


def test_gate_and_dark_csvs_match_the_row_at_a_time_writer(dark_dir, tmp_path):
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    config = GateConfig()
    scales = build_parser().parse_args(["gate"]).alpha_scales
    rows, _ = sweep(config, [s * config.resolved_alpha for s in scales], q=uniform_superposition())
    reference = write_csv_loop(tmp_path / "loop_gate_sweep.csv",
                               ("alpha", "sigma", "n1", "n2", "d_tr", "d_mod"), rows)
    assert (tmp_path / "gate_sweep.csv").read_bytes() == reference.read_bytes()

    decay = DecayConfig(couplings=(1e-3, 1e-3))
    dark = emission_density(singlet_product([(0, 1)]), decay)
    light = emission_density(_light_reference(2), decay)
    rows = zip(dark.times, dark.density, light.density, dark.survival, light.survival)
    reference = write_csv_loop(tmp_path / "loop_emission_density.csv",
                               ("time", "p_dark", "p_light", "s_dark", "s_light"), rows)
    assert (dark_dir / "emission_density.csv").read_bytes() == reference.read_bytes()

    assert main(["dark", "--out-dir", str(tmp_path / "bare"), "--atoms", "0"]) == 0
    bare = emission_density(np.array([1.0 + 0.0j]), DecayConfig(couplings=()))
    reference = write_csv_loop(tmp_path / "loop_bare.csv", ("time", "density", "survival"),
                               zip(bare.times, bare.density, bare.survival))
    assert (tmp_path / "bare" / "emission_density.csv").read_bytes() == reference.read_bytes()


NON_FINITE_CASES = [
    (["gate", "--alpha-scales", "inf"], "alpha"),
    (["gate", "--sigma", "nan"], "sigma"),
    (["gate", "--g", "nan"], "coupling g"),
    (["gate", "--omega", "nan"], "omega"),
    (["walk", "--mass", "inf"], "mass"),
    (["walk", "--t-max", "inf"], "t_max"),
    (["dark", "--kappa", "inf"], "kappa"),
    (["dark", "--t-max", "nan"], "t_max"),
    (["dark", "--omega", "nan"], "omega"),
    (["resonance", "--g", "inf"], "coupling g"),
]


@pytest.mark.parametrize("args, name", NON_FINITE_CASES,
                         ids=[" ".join(args) for args, _ in NON_FINITE_CASES])
def test_non_finite_parameters_are_usage_errors(tmp_path, capsys, args, name):
    assert main([*args, "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{name} must be" in err and "finite" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["--n-trials", "0"], ["--n-trials", "1"],
    ["--detector-error", "nan"], ["--detector-error", "2"], ["--detector-error", "-0.5"],
    # the bare cavity classifies nothing, but its flags are checked all the same
    ["--atoms", "0", "--n-trials", "0"], ["--atoms", "0", "--n-trials", "1"],
    ["--atoms", "0", "--detector-error", "nan"], ["--atoms", "0", "--detector-error", "5"],
    ["--seed", "-1"], ["--atoms", "0", "--seed", "-1"],
], ids=" ".join)
def test_dark_writes_nothing_when_classification_fails(tmp_path, capsys, monkeypatch, args):
    # a trial count, flip probability or seed that sampling and
    # classification would refuse is refused before either decay runs
    def decayed(*args):
        raise AssertionError("the decay ran")

    monkeypatch.setattr(tchlab.darkstates, "_lossy_propagation", decayed)
    assert main(["dark", "--out-dir", str(tmp_path), *args]) == 2
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if "--n-trials" in args:
        assert "n_trials must be at least 2" in err
    elif "--seed" in args:
        assert "rng must be a seed" in err
    else:
        assert "detector_error must lie in [0, 1]" in err


@pytest.mark.parametrize("t_max", ["1e-300", "1e-200"])
def test_dark_on_an_underflowing_grid_exits_with_drift_code(tmp_path, capsys, t_max):
    # the grid step squared underflows, so the differenced density is NaN
    assert main(["dark", "--out-dir", str(tmp_path), "--t-max", t_max]) == 3
    assert "emission density dips to nan" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_dark_on_an_overflowing_grid_exits_with_drift_code(tmp_path, capsys):
    # the grid step squared overflows in the differenced density; under the
    # suite's error::RuntimeWarning that must not escape as a warning
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", "2", "--t-max", "1e300"]) == 3
    err = capsys.readouterr().err
    assert "balance" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


# (argv, the parameter the refusal names): a tiny rate puts the default
# horizon 20 / kappa at infinity, and a huge one squares past the float range
OVERFLOWING_DARK_CASES = [
    (["--kappa", "1e-320"], "kappa"),
    (["--kappa", "1e300"], "kappa"),
    (["--g", "1e300"], "coupling"),
    (["--g", "1e-320"], "coupling"),
]


@pytest.mark.parametrize("args, name", OVERFLOWING_DARK_CASES,
                         ids=[" ".join(args) for args, _ in OVERFLOWING_DARK_CASES])
def test_overflowing_dark_parameters_are_refused_before_the_decay(
        tmp_path, capsys, monkeypatch, args, name):
    def decayed(*args):
        raise AssertionError("the decay ran")

    monkeypatch.setattr(tchlab.darkstates, "_lossy_propagation", decayed)
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", "2", *args]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dark_on_an_unresolved_oscillation_exits_with_drift_code(tmp_path, capsys):
    # g dt = 5e26 radians a step: squaring the step's exponential doubles its
    # rounding error 88 times, past the float range
    args = ["--atoms", "2", "--g", "1e20", "--kappa", "1", "--t-max", "1e10"]
    assert main(["dark", "--out-dir", str(tmp_path), *args]) == 3
    err = capsys.readouterr().err
    assert "squarings" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


DARK_BUDGET_CASES = [
    (["--atoms", "40"], "limit of 18"),
    (["--atoms", "20"], "limit of 18"),
    (["--n-trials", "1000000000000"], "limit of 10000000"),
    (["--n-times", "1000000000000"], "at most 1000000"),
]


@pytest.mark.parametrize("args, limit", DARK_BUDGET_CASES,
                         ids=[" ".join(args) for args, _ in DARK_BUDGET_CASES])
def test_dark_work_budgets_refuse_before_allocating(tmp_path, capsys, monkeypatch, args, limit):
    # each refused run would need gigabytes to terabytes, and is refused
    # before anything of its size is allocated or any decay runs
    def decayed(*args):
        raise AssertionError("the decay ran")

    monkeypatch.setattr(tchlab.darkstates, "_lossy_propagation", decayed)
    tracemalloc.start()
    try:
        code = main(["dark", "--out-dir", str(tmp_path), *args])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert limit in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 16 * 2**20


def test_dark_limits_appear_in_the_help(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["dark", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for phrase in ("at most 18", "at most 1000000", "at least 2 and at most 10000000",
                   "at most 1e+150"):
        assert phrase in text


@pytest.mark.parametrize("g", ["1e20", "1e21"])
def test_dark_on_a_growing_step_exponential_exits_with_drift_code(tmp_path, g):
    # g dt of 1e18 radians a step or more: the Pade squarings return a finite step
    # that grows the norm, which used to send the span loop doubling its cap
    # forever; a fresh process with a timeout fails a regression, not hangs
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "tchlab.cli", "dark",
         "--atoms", "2", "--g", g, "--kappa", "1", "--out-dir", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "grows the norm" in proc.stderr and "Traceback" not in proc.stderr
    assert list(tmp_path.iterdir()) == []


BUDGET_CASES = [
    (["walk", "--n-cavities", "1000000000"], "limit of 8388608"),
    (["walk", "--n-times", "1000000000", "--n-cavities", "2"], "limit of 8388608"),
    # two times leave the ballistic fit one positive time, refused before the walk
    (["walk", "--n-cavities", "1048576", "--n-times", "2"], "two positive-time variance samples"),
    (["resonance", "--n-max", "1000000000"], "limit of 20000000"),
    (["resonance", "--n-max", "20000001"], "limit of 20000000"),
    (["resonance", "--n-max", "20000000", "--top", "20000000"], f"limit of {MAX_ROWS}"),
]


@pytest.mark.parametrize("args, limit", BUDGET_CASES,
                         ids=[" ".join(args) for args, _ in BUDGET_CASES])
def test_walk_and_resonance_budgets_refuse_before_allocating(tmp_path, capsys, args, limit):
    # each refused run would need hundreds of megabytes or more
    tracemalloc.start()
    try:
        code = main([*args, "--out-dir", str(tmp_path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert limit in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 16 * 2**20


@pytest.mark.parametrize("command, phrase", [("walk", "at most 8388608"),
                                             ("resonance", "at most 20000000"),
                                             ("resonance", f"at most {MAX_ROWS} rows")])
def test_walk_and_resonance_limits_appear_in_the_help(capsys, command, phrase):
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert phrase in " ".join(capsys.readouterr().out.split())


def test_the_walk_budget_holds_the_65536_cavity_ring():
    # 3,342,336 cells; the benchmark's 1024-cavity ring and 1000 x 7
    # resonance pairs run in other tests
    assert WalkConfig(n_cavities=65536).n_times == 51


# under the suite's error::RuntimeWarning filter an overflow fails the test
OVERFLOWING_CASES = [
    (["gate", "--omega", "1e3"], 3, "overflows"),
    (["gate", "--omega", "1e300"], 3, "overflows"),
    (["gate", "--sigma", "1e-100"], 2, "sigma"),
    (["gate", "--sigma", "5e-324"], 2, "sigma"),
    (["walk", "--mass", "1e-320"], 2, "mass"),
    (["walk", "--mass", "1e-307"], 2, "mass"),
    (["walk", "--t-max", "1e308", "--n-cavities", "1024"], 2, "t_max"),
    # products that overflowed, divided by zero or took memory by the atom
    # before they were checked: refused before any work, naming the parameter
    (["gate", "--g", "5e-324"], 2, "pi/g"),
    (["gate", "--g", "1e-320"], 2, "pi/g"),
    (["resonance", "--g", "1e-320"], 2, "pi/g"),
    (["gate", "--g", "1e-307"], 2, "g 1e-307"),
    (["gate", "--g", "1.7976931348623157e308"], 2, "g 1.79769e+308"),
    (["gate", "--omega", "1.7976931348623157e308"], 2, "omega 1.79769e+308"),
    (["dark", "--omega", "1.7976931348623157e308"], 2, "omega 1.79769e+308"),
    (["gate", "--sigma", "1.7976931348623157e308"], 2, "sigma"),
    (["gate", "--n2", "1" + "0" * 400], 2, "counter n2"),
    # past 2**53 a float no longer holds every counter (nor its CSV cell)
    (["gate", "--n2", str(2**53 + 1)], 2, "counter n2"),
    (["dark", "--atoms", "1000000000000"], 2, "atoms exceed the limit of 18"),
    # a step of 1e11 radians: its Pade squarings round the survival by 8e-5
    (["dark", "--atoms", "2", "--g", "1e12", "--kappa", "1", "--n-times", "201"], 3, "squarings"),
    # hold durations past the float range are inf, which the summary refuses
    # after the table is printed, with no overflow warning on the way
    (["resonance", "--g", "1e-306", "--n-max", "1000", "--top", "1000"], 2, "not JSON compliant"),
]


@pytest.mark.parametrize("args, code, name", OVERFLOWING_CASES,
                         ids=[" ".join(a if len(a) < 40 else f"{a[:6]}...({len(a)} digits)"
                                       for a in args) for args, _, _ in OVERFLOWING_CASES])
def test_overflowing_gate_and_walk_parameters_end_in_a_documented_code(
        tmp_path, capsys, args, code, name):
    assert main([*args, "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [["--alpha-scales", "1e300"], ["--dt", "1e-300"],
                                  ["--dt", "5e-324"]], ids=" ".join)
def test_gate_needing_too_many_steps_is_a_usage_error(tmp_path, capsys, monkeypatch, args):
    # refused before integration: a regression fails here, not by memory
    def integrated(*args):
        raise AssertionError("the link was integrated")

    monkeypatch.setattr(tchlab.evolution, "_words", integrated)
    assert main(["gate", "--out-dir", str(tmp_path), *args]) == 2
    assert "limit" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walk_rejects_odd_cavity_counts(tmp_path, capsys):
    assert main(["walk", "--out-dir", str(tmp_path), "--n-cavities", "33"]) == 2
    assert "even" in capsys.readouterr().err


def test_dark_outputs_and_headers(dark_dir):
    header, rows = _read_csv(dark_dir / "emission_density.csv")
    assert header == ["time", "p_dark", "p_light", "s_dark", "s_light"]
    assert len(rows) == 2001
    classify = json.loads((dark_dir / "classify.json").read_text())
    assert classify["truth"] == "dark"
    assert classify["decision"] == "dark"
    assert classify["correct"] is True
    assert abs(classify["z_score"]) >= 3.0
    assert classify["n_trials"] == 10000
    summary = json.loads((dark_dir / "dark_summary.json").read_text())
    assert summary["dark_is_dark"] is True
    assert summary["light_is_dark"] is False
    assert summary["dark_absorption_residual"] < 1e-12
    assert abs(summary["light_absorption_residual"] - 1e-3 * math.sqrt(2)) < 1e-15
    assert (summary["dark_mean_emission_time"]
            > summary["light_mean_emission_time"])


def test_dark_runs_are_byte_identical(dark_dir, tmp_path):
    assert main(["dark", "--out-dir", str(tmp_path)]) == 0
    for name in ("emission_density.csv", "classify.json", "dark_summary.json"):
        assert (dark_dir / name).read_bytes() == (tmp_path / name).read_bytes()


def test_dark_seed_changes_the_draws(dark_dir, tmp_path):
    assert main(["dark", "--out-dir", str(tmp_path), "--seed", "1"]) == 0
    a = json.loads((dark_dir / "classify.json").read_text())
    b = json.loads((tmp_path / "classify.json").read_text())
    assert a["sample_mean"] != b["sample_mean"]
    assert a["threshold"] == b["threshold"]  # hypotheses are seed-free


def test_dark_with_light_truth(tmp_path):
    assert main(["dark", "--out-dir", str(tmp_path), "--truth", "light"]) == 0
    classify = json.loads((tmp_path / "classify.json").read_text())
    assert classify["truth"] == "light"
    assert classify["decision"] == "light"
    assert classify["correct"] is True


def test_dark_few_trials_is_inconclusive(tmp_path, capsys):
    args = ["dark", "--out-dir", str(tmp_path), "--n-trials", "40"]
    assert main(args) == 4
    assert "inconclusive" in capsys.readouterr().err
    classify = json.loads((tmp_path / "classify.json").read_text())
    assert abs(classify["z_score"]) < 3.0


def test_dark_samples_without_spread_are_inconclusive(tmp_path, capsys):
    # a 1-unit horizon censors every draw at t_max: zero variance off the
    # threshold, where z would be infinite
    args = ["dark", "--out-dir", str(tmp_path), "--atoms", "2", "--detector-error", "0",
            "--n-trials", "5", "--t-max", "1", "--n-times", "101"]
    assert main(args) == 4
    assert "inconclusive" in capsys.readouterr().err
    text = (tmp_path / "classify.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    classify = json.loads(text)
    assert classify["z_score"] is None
    assert classify["n_censored"] == 5


def test_importing_the_cli_leaves_scipy_linalg_unloaded():
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    code = "import sys, tchlab.cli; sys.exit('scipy.linalg' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_a_gate_run_leaves_numpy_ma_unloaded(tmp_path):
    # numpy.ma costs a first run about 14 ms and 1.2 MB to import
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    args = ["gate", "--alpha-scales", "1.0", "--out-dir", str(tmp_path)]
    code = ("import sys; from tchlab.cli import main\n"
            f"sys.exit(main({args!r}) or 'numpy.ma' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
    assert (tmp_path / "gate_summary.json").is_file()


def test_every_subcommand_runs_without_scipy(tmp_path):
    # a None entry in sys.modules makes every scipy import fail
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    runs = [
        [*args, "--out-dir", str(tmp_path / args[0])]
        for args in (
            ["dark", "--atoms", "2"],
            ["walk", "--n-cavities", "32", "--n-times", "5"],
            ["resonance", "--n-max", "60"],
            ["gate", "--alpha-scales", "1.0"],
        )
    ]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from tchlab.cli import main\n"
        f"for args in {runs!r}:\n"
        "    code = main(args)\n"
        "    if code:\n"
        "        sys.exit(f'{args[0]} exited {code}')\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a BLAS dot product may split a long vector across threads and round
    # by the thread count; the 14-atom register's decay sector holds 12,911
    # states, long enough to be split.  The alpha x 3 gate builds its links
    # in 900 steps, its own step count.
    src = str(Path(tchlab.__file__).resolve().parent.parent)
    studies = {"dark": ["dark", "--atoms", "14"], "gate": ["gate"],
               "gate-a3": ["gate", "--alpha-scales", "3"], "walk": ["walk", "--n-cavities", "1024"]}
    procs = []
    for threads in ("1", "2"):
        runs = [[*args, "--out-dir", str(tmp_path / threads / name)] for name, args in studies.items()]
        code = ("import sys; from tchlab.cli import main\n"
                f"sys.exit(max(main(args) for args in {runs!r}))")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        procs.append(subprocess.Popen([sys.executable, "-c", code], env=env,
                                      stderr=subprocess.PIPE, text=True))
    for proc in procs:  # the two interpreters run side by side
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    one, two = (sorted(p.relative_to(tmp_path / t) for p in (tmp_path / t).rglob("*.*"))
                for t in ("1", "2"))
    assert one == two and len(one) == 3 + 2 + 2 + 4
    for name in one:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_dark_without_atoms_profiles_bare_decay(tmp_path):
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", "0"]) == 0
    header, rows = _read_csv(tmp_path / "emission_density.csv")
    assert header == ["time", "density", "survival"]
    assert not (tmp_path / "classify.json").exists()
    summary = json.loads((tmp_path / "dark_summary.json").read_text())
    assert summary["atoms"] == 0
    assert abs(summary["escape_probability"] + math.exp(-20.0) - 1.0) < 1e-4


@pytest.mark.parametrize("atoms", [4, 6])
def test_dark_larger_registers(tmp_path, atoms):
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", str(atoms)]) == 0
    summary = json.loads((tmp_path / "dark_summary.json").read_text())
    assert summary["atoms"] == atoms
    assert summary["dark_is_dark"] is True
    assert summary["light_is_dark"] is False
    assert summary["dark_absorption_residual"] < 1e-12
    classify = json.loads((tmp_path / "classify.json").read_text())
    assert classify["decision"] == "dark"


def test_dark_study_does_not_depend_on_the_atom_count(tmp_path):
    # every pair is a singlet, and the light reference decays as one bright
    # pair, so each summary float is the 2-atom value within 1e-12 relative
    # (a 2-atom 0, the dark absorption residual, stays exactly 0), and so is
    # the decision
    def run(atoms):
        out = tmp_path / str(atoms)
        assert main(["dark", "--out-dir", str(out), "--atoms", str(atoms)]) == 0
        return [json.loads((out / name).read_text()) for name in ("dark_summary.json", "classify.json")]

    summary, classify = run(2)
    for atoms in range(4, 16, 2):
        other, other_classify = run(atoms)
        assert set(other) == set(summary) and other["atoms"] == atoms
        for key, value in summary.items():
            if isinstance(value, float):
                assert abs(other[key] - value) <= 1e-12 * abs(value), (atoms, key)
            elif key != "atoms":
                assert other[key] == value, (atoms, key)
        assert other_classify["decision"] == classify["decision"], atoms


def test_dark_omega_moves_only_its_echo(tmp_path):
    # the decay drops the diagonal omega times the sector as a global phase,
    # so omega reaches no number of the study, only the summary's echo of it
    for omega in ("1", "2.5"):
        assert main(["dark", "--out-dir", str(tmp_path / omega), "--atoms", "4",
                     "--omega", omega]) == 0
    one, other = tmp_path / "1", tmp_path / "2.5"
    for name in ("emission_density.csv", "classify.json"):
        assert (one / name).read_bytes() == (other / name).read_bytes(), name
    summary, other_summary = (json.loads((d / "dark_summary.json").read_text()) for d in (one, other))
    assert (summary.pop("omega"), other_summary.pop("omega")) == (1.0, 2.5)
    assert summary == other_summary


@pytest.mark.parametrize("truth", ["dark", "light"])
@pytest.mark.parametrize("atoms", [0, 2, 4])
def test_dark_writes_exactly_what_dark_study_returns(tmp_path, atoms, truth):
    # the CLI's defaults are dark_study's, and its files hold the study's
    # numbers and decision unchanged: every float read back compares ==
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", str(atoms),
                 "--truth", truth]) == 0
    study = dark_study(atoms, truth=truth, rng=0)
    summary = json.loads((tmp_path / "dark_summary.json").read_text())
    _, rows = _read_csv(tmp_path / "emission_density.csv")
    dark, light, dark_check, light_check, result = study
    config = dark.config
    assert (summary["kappa"], summary["t_max"]) == (config.resolved_kappa, config.resolved_t_max)
    if atoms == 0:
        assert study[1:] == (None,) * 4
        assert not (tmp_path / "classify.json").exists()
        expected = {"escape_probability": dark.escape_probability,
                    "mean_emission_time": dark.mean_emission_time}
        columns = (dark.times, dark.density, dark.survival)
    else:
        expected = {
            "dark_absorption_residual": dark_check.absorption_residual,
            "light_absorption_residual": light_check.absorption_residual,
            "dark_is_dark": dark_check.is_dark,
            "light_is_dark": light_check.is_dark,
            "dark_escape_probability": dark.escape_probability,
            "light_escape_probability": light.escape_probability,
            "dark_mean_emission_time": dark.mean_emission_time,
            "light_mean_emission_time": light.mean_emission_time,
        }
        columns = (dark.times, dark.density, light.density, dark.survival, light.survival)
        classify = json.loads((tmp_path / "classify.json").read_text())
        assert classify["decision"] == result.decision == truth
        for key in ("z_score", "n_trials", "n_censored", "sample_mean", "threshold",
                    "dark_mean", "light_mean", "detector_error"):
            assert classify[key] == getattr(result, key), key
    for key, value in expected.items():
        assert summary[key] == value, key
    assert [[float(cell) for cell in row] for row in rows] == np.column_stack(columns).tolist()


def test_dark_rejects_odd_atom_counts(tmp_path, capsys):
    assert main(["dark", "--out-dir", str(tmp_path), "--atoms", "3"]) == 2
    assert "even" in capsys.readouterr().err


def test_resonance_prints_table_and_summary(tmp_path, capsys):
    assert main(["resonance", "--out-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.strip()]
    assert lines[0].split() == ["n1", "n2", "residual", "hold_duration"]
    assert len(lines) == 4  # header + top-3 rows
    assert lines[1].split()[:2] == ["45", "64"]
    summary = json.loads((tmp_path / "resonance_summary.json").read_text())
    assert summary["best"]["n1"] == 45
    assert summary["best"]["n2"] == 64
    assert len(summary["rows"]) == 3


def test_resonance_lists_each_hold_counter_once(tmp_path, capsys):
    assert main(["resonance", "--out-dir", str(tmp_path), "--n-max", "100", "--top", "100"]) == 0
    rows = json.loads((tmp_path / "resonance_summary.json").read_text())["rows"]
    assert len(rows) == len({row["n2"] for row in rows}) == 100
    assert len(capsys.readouterr().out.splitlines()) == 101  # header + rows


@pytest.mark.parametrize("g", ["0.001", "0.37", "1e300"])
def test_resonance_takes_every_hold_from_one_call(tmp_path, monkeypatch, g):
    # one array call, with the bits of one scalar call per row
    calls = []

    def counted(*args):
        calls.append(args)
        return hold_duration(*args)

    monkeypatch.setattr(tchlab.cli, "hold_duration", counted)
    assert main(["resonance", "--out-dir", str(tmp_path), "--g", g, "--n-max", "500",
                 "--top", "500"]) == 0
    rows = json.loads((tmp_path / "resonance_summary.json").read_text())["rows"]
    assert len(calls) == 1
    assert [row["hold_duration"] for row in rows] == [
        hold_duration(float(g), row["n2"]) for row in rows]


@pytest.mark.parametrize("argv", [
    ["gate", "--alpha-scales", "0.5,1"],
    ["walk", "--n-cavities", "8"],
    ["dark", "--atoms", "0", "--n-times", "101"],
    ["dark", "--atoms", "2", "--n-times", "101", "--n-trials", "50"],
    ["resonance", "--n-max", "50", "--top", "5"],
], ids=" ".join)
def test_every_summary_is_the_text_of_its_plain_copy(tmp_path, monkeypatch, argv):
    # each file write_json writes holds what json.dumps writes for the
    # plain-typed copy of its payload
    written = []

    def recorded(path, payload):
        written.append((path, payload))
        return write_json(path, payload)

    monkeypatch.setattr(tchlab.cli, "write_json", recorded)
    assert main([*argv, "--out-dir", str(tmp_path)]) in (0, 4)
    assert written
    for path, payload in written:
        text = json.dumps(jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
        assert Path(path).read_bytes() == (text + "\n").encode()


def test_resonance_with_no_rows(tmp_path):
    assert main(["resonance", "--out-dir", str(tmp_path), "--top", "0"]) == 0
    summary = json.loads((tmp_path / "resonance_summary.json").read_text())
    assert summary["rows"] == []
    assert "best" not in summary


def test_unknown_subcommand_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["quench", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2


def test_bad_float_list_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0,x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("scales", ["", " ", ","])
def test_empty_alpha_scales_is_a_usage_error(tmp_path, capsys, scales):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--out-dir", str(out), "--alpha-scales", scales])
    assert exc.value.code == 2
    assert "--alpha-scales" in capsys.readouterr().err
    assert not out.exists()


def test_out_dir_is_created(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["resonance", "--out-dir", str(nested), "--n-max", "10"]) == 0
    assert (nested / "resonance_summary.json").exists()


# every double: signed zeros, subnormals, the extremes, nan and infinities,
# and ordinary magnitudes, which the whole range alone seldom draws
DOUBLES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-320, 2.2250738585072014e-308,
                                     1e-300, 1e300, 1.7976931348623157e308, -1.7976931348623157e308,
                                     math.nan, math.inf, -math.inf]),
                    st.floats(), st.floats(1e-4, 1e4))


def _doubles(costly=None):
    """Every double, less the magnitudes in an open band (lo, hi) of valid
    values whose run is not cheap: that work has its own tests."""
    if costly is None:
        return DOUBLES
    lo, hi = costly
    return DOUBLES.filter(lambda x: not lo < abs(x) < hi)


def _ints(cheap, limit=None):
    """Small values up to ``cheap`` and values past the documented limit,
    up to 10^12 (any value up to 10^12 when nothing past it costs work)."""
    if limit is None:
        return st.integers(-2, 10**12)
    return st.one_of(st.integers(-2, cheap), st.integers(limit + 1, 10**12))


SEEDS = st.integers(-(10**12), 10**12)
# (cheap base arguments the drawn flags override, every documented flag)
SUBCOMMANDS = {
    "gate": (["--alpha-scales", "1", "--dt", "0.015"], {
        "--g": _doubles(), "--omega": _doubles(),
        # 800 sigma steps of 0.015: wide valid pulses are not cheap
        "--sigma": _doubles(costly=(1.0, 1e4)),
        "--n1": _ints(None), "--n2": _ints(None),
        "--alpha-scales": st.lists(_doubles(), min_size=1, max_size=3).map(
            lambda xs: ",".join(map(repr, xs))),
        "--input": st.sampled_from(["uniform", "00", "01", "10", "11"]),
        # a window of 6 takes more than 1,000,000 steps below 6e-6
        "--dt": _doubles(costly=(5e-6, 0.02)),
        "--seed": SEEDS,
    }),
    "walk": (["--n-cavities", "16", "--n-times", "5"], {
        "--n-cavities": _ints(64, MAX_CELLS), "--mass": _doubles(),
        "--origin": st.integers(-(10**12), 10**12), "--t-max": _doubles(),
        "--n-times": _ints(60, MAX_CELLS), "--seed": SEEDS,
    }),
    "dark": (["--n-times", "21", "--n-trials", "50"], {
        "--atoms": _ints(6, MAX_ATOMS), "--g": _doubles(), "--omega": _doubles(),
        "--kappa": _doubles(), "--t-max": _doubles(), "--n-times": _ints(60, MAX_TIMES),
        "--n-trials": _ints(1000, MAX_TRIALS), "--detector-error": _doubles(),
        "--truth": st.sampled_from(["dark", "light"]), "--seed": SEEDS,
    }),
    "resonance": ([], {
        "--g": _doubles(),
        # an n_max just past the row budget is cheap at a small --top
        "--n-max": st.one_of(_ints(300, MAX_PAIRS), st.integers(MAX_ROWS + 1, MAX_ROWS + 10)),
        "--top": _ints(50, MAX_ROWS), "--seed": SEEDS,
    }),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    base, flags = SUBCOMMANDS[command]
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), min_size=1, max_size=3, unique=True))
    drawn = [f"{flag}={draw(flags[flag])!r}".replace("'", "") for flag in chosen]
    return [command, *base, *drawn]


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _refuse_constant(name):
    raise ValueError(f"{name} in a JSON file")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argvs())
@example(["resonance", "--n-max", str(MAX_ROWS + 1), "--top", str(MAX_ROWS + 1)])
def test_every_documented_argv_ends_in_a_documented_code(argv):
    # under the suite's error::RuntimeWarning: no warning, traceback or
    # crash, and a refused run leaves no file
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        try:
            code = main([*argv, "--out-dir", str(out)])
        except SystemExit as exc:  # argparse refuses the flag's text
            code = exc.code
        assert code in (0, 2, 3, 4), argv
        written = sorted(out.iterdir()) if out.exists() else []
        if code in (2, 3):
            assert written == [], argv
        for path in written:
            text = path.read_text()
            if path.suffix == ".json":
                assert _finite_numbers(json.loads(text, parse_constant=_refuse_constant)), path
            else:
                _, *rows = csv.reader(text.splitlines())
                assert all(math.isfinite(float(cell)) for row in rows for cell in row), path
