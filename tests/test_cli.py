import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tchlab
from oracles import walk_rows_loop, write_csv_loop
from tchlab import GateConfig, WalkConfig, simulate_walk, sweep, uniform_superposition
from tchlab.cli import _light_reference, build_parser, main
from tchlab.darkstates import DecayConfig, emission_density, singlet_product
from tchlab.evolution import pulsed_propagators
from tchlab.gate import _exchange_links

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
    expected = sweep(config, alphas, q=uniform_superposition())
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


def test_a_default_gate_run_integrates_two_link_stacks(tmp_path, monkeypatch):
    # one stack for the sweep's five scales and one for the area rule, which
    # the four basis-phase runs share through the cache
    amplitudes = []

    def counted(h0, pulses, t_start, t_end, dt, scales):
        amplitudes.append(len(scales))
        return pulsed_propagators(h0, pulses, t_start, t_end, dt, scales)

    monkeypatch.setattr(tchlab.gate, "pulsed_propagators", counted)
    _exchange_links.cache_clear()
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    assert amplitudes == [5, 1]


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


def test_gate_and_dark_csvs_match_the_row_at_a_time_writer(dark_dir, tmp_path):
    assert main(["gate", "--out-dir", str(tmp_path)]) == 0
    config = GateConfig()
    scales = build_parser().parse_args(["gate"]).alpha_scales
    rows = sweep(config, [s * config.resolved_alpha for s in scales], q=uniform_superposition())
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


@pytest.mark.parametrize("args", [["--n-trials", "0"], ["--detector-error", "nan"],
                                  ["--detector-error", "2"]], ids=" ".join)
def test_dark_writes_nothing_when_classification_fails(tmp_path, args):
    assert main(["dark", "--out-dir", str(tmp_path), *args]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("t_max", ["1e-300", "1e-200"])
def test_dark_on_an_underflowing_grid_exits_with_drift_code(tmp_path, capsys, t_max):
    # the grid step squared underflows, so the differenced density is NaN
    assert main(["dark", "--out-dir", str(tmp_path), "--t-max", t_max]) == 3
    assert "emission density dips to nan" in capsys.readouterr().err
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
