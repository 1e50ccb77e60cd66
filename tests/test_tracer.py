"""The benchmark tracer wraps tchlab functions by name; every name it lists
must still exist, or traced benchmark runs crash instead of a test failing.
Its CSV hook counts rows as the writer iterates them, so the writer must
consume ``rows`` through the object it is handed.  The CLI must reach each
study through a function the tracer wraps, or the study's time is booked
to ``cli.main``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tchlab import reports
from tchlab.walk import WalkConfig, ring_profile

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
TARGETS = TRACER.TARGETS


@pytest.mark.parametrize(
    "module_name, attr", [(t[1], t[2]) for t in TARGETS], ids=[f"{t[1]}.{t[2]}" for t in TARGETS]
)
def test_every_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    if module_name.startswith("tchlab"):
        assert owner.__module__ == module_name


def test_traced_csv_writer_counts_rows_and_bytes(tmp_path):
    # the tracer swaps ``rows`` for a one-pass counter and reads the file
    # size after the call; the writer must consume rows through it
    tracer = TRACER.Tracer("contract")
    write_csv = tracer.wrap("reports.write_csv", reports.write_csv, TRACER._csv_rows)
    header = ("separation", "n_links", "mean_amplitude", "mean_phase")
    rows = iter(ring_profile(WalkConfig(n_cavities=16, n_times=3)))  # through a one-pass iterator
    path = write_csv(tmp_path / "network.csv", header, rows)
    metrics = TRACER.layer_metrics(tracer.spans)
    assert metrics["reports.write_csv.calls"] == 1
    assert metrics["reports.rows"] == 16 - 1 == path.read_bytes().count(b"\r\n") - 1
    assert metrics["reports.bytes_written"] == path.stat().st_size


def test_a_traced_gate_run_books_its_stack_to_the_sweep(tmp_path):
    # in a child process: installing the tracer rebinds module attributes
    # for the whole process
    code = f"""
import importlib.util, json, sys
spec = importlib.util.spec_from_file_location("bench_tracer", {str(TRACER_PATH)!r})
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer("gate")
tracer.install()
import tchlab.cli
code = tchlab.cli.main(["gate", "--alpha-scales", "1", "--out-dir", {str(tmp_path)!r}])
json.dump({{"code": code, "spans": tracer.spans}}, sys.stdout)
"""
    src = str(TRACER_PATH.parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["code"] == 0
    spans = run["spans"]
    names = [span["name"] for span in spans]
    assert names.count("gate.sweep") == 1
    sweep = names.index("gate.sweep")

    def ancestors(i):
        while spans[i]["parent"] is not None:
            i = spans[i]["parent"]
            yield i

    evolves = [i for i, name in enumerate(names) if name == "evolution.evolve_const"]
    assert len(evolves) == 4
    assert all(sweep in ancestors(i) for i in evolves)
