"""The benchmark tracer wraps tchlab functions by name; every name it lists
must still exist, or traced benchmark runs crash instead of a test failing.
Its CSV hook counts rows as the writer iterates them, so the writer must
consume ``rows`` through the object it is handed."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from tchlab import WalkConfig, reports, simulate_walk

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
    result = simulate_walk(WalkConfig(n_cavities=16, n_times=3))
    header = ("separation", "n_links", "mean_amplitude", "mean_phase")
    rows = zip(*map(reports.format_column, zip(*result.network_profile)))  # as ``tchlab walk``
    path = write_csv(tmp_path / "network.csv", header, rows)
    metrics = TRACER.layer_metrics(tracer.spans)
    assert metrics["reports.write_csv.calls"] == 1
    assert metrics["reports.rows"] == 16 - 1 == path.read_bytes().count(b"\r\n") - 1
    assert metrics["reports.bytes_written"] == path.stat().st_size
