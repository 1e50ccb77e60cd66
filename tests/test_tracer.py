"""The benchmark tracer wraps tchlab functions by name; every name it lists
must still exist, or traced benchmark runs crash instead of a test failing."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


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
