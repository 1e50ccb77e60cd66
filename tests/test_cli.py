import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tchlab import GateConfig, sweep, uniform_superposition
from tchlab.cli import main

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


def test_gate_thread_count_does_not_change_rows(gate_dir, tmp_path, monkeypatch):
    monkeypatch.setenv("TCHLAB_THREADS", "2")
    assert main(["gate", "--out-dir", str(tmp_path), *GATE_ARGS]) == 0
    serial = (gate_dir / "gate_sweep.csv").read_bytes()
    threaded = (tmp_path / "gate_sweep.csv").read_bytes()
    assert serial == threaded


def test_gate_rejects_malformed_thread_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TCHLAB_THREADS", "two")
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--out-dir", str(tmp_path), *GATE_ARGS])
    assert exc.value.code == 2


def test_gate_basis_input_label(tmp_path):
    args = ["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0",
            "--input", "01"]
    assert main(args) == 0
    summary = json.loads((tmp_path / "gate_summary.json").read_text())
    assert summary["input"] == "01"


def test_gate_coarse_step_exits_with_drift_code(tmp_path, capsys):
    args = ["gate", "--out-dir", str(tmp_path), "--alpha-scales", "1.0",
            "--dt", "1.0"]
    assert main(args) == 3
    assert "drift" in capsys.readouterr().err.lower()


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


def test_out_dir_is_created(tmp_path):
    nested = tmp_path / "a" / "b"
    assert main(["resonance", "--out-dir", str(nested), "--n-max", "10"]) == 0
    assert (nested / "resonance_summary.json").exists()
