"""The three benchmark workloads: their operations, inputs and output checks.

A workload is a list of operations.  Each operation is a thunk that drives
tchlab's public API or ``tchlab.cli.main`` in-process; the repetition child
times the whole list and only then runs the checks, so checking never counts
towards ``wall_s``.  Inputs come from the seed alone, and no operation's cost
depends on the seed.

tchlab is always reached through module attributes looked up at call time
(``tchlab.cli.main``, ``tchlab.darkstates.emission_density``), so the tracer
can wrap those attributes from outside the package.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Per-workload sizes.  "full" is what the benchmark measures; "quick" is the
# reduced size the harness self-check runs.
SIZES = {
    "gate-design": {
        "full": {"n_max": 1000, "top": 3, "n_alpha": 21, "top_pair": [144, 204]},
        "quick": {"n_max": 60, "top": 3, "n_alpha": 3, "top_pair": [4, 6]},
    },
    "walk-ring": {
        "full": {"n_cavities": 1024, "n_times": 51},
        "quick": {"n_cavities": 64, "n_times": 11},
    },
    "dark-register": {
        "full": {"atoms": [2, 4, 6, 8, 10], "n_trials": 100_000, "cli_atoms": 2},
        "quick": {"atoms": [2, 4], "n_trials": 10_000, "cli_atoms": 2},
    },
}

# Where the self-check plants a wrong value, and the check it must trip.
CORRUPTIONS = {
    "gate-design": ("gate/gate_summary.json", ("best", "d_mod"), 0.5),
    "walk-ring": ("walk/walk_summary.json", ("ballistic_exponent",), 1.0),
    "dark-register": ("cli-dark/dark_summary.json", ("dark_absorption_residual",), 0.5),
}

# A documented input the CLI rejects today (ROADMAP item 2).  It runs after
# timing stops and is reported beside the result, not as an operation, so
# the measured workloads contain only operations that can succeed.
DEFECT_PROBES = {
    "dark-register": ["dark", "--atoms", "4"],
}

G = 1e-3
DETECTOR_ERROR = 0.03


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _load(path: Path):
    return json.loads(Path(path).read_text())


def run_cli(argv) -> int:
    import tchlab.cli

    try:
        return tchlab.cli.main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2


def _exit_ok(rc) -> None:
    _expect(rc == 0, f"exit code {rc}")


# ---------------------------------------------------------------------------
# gate-design
# ---------------------------------------------------------------------------

def alpha_scales(seed: int, n: int) -> list[float]:
    """n amplitude multiples spread over [0.5, 1.5] with seeded jitter."""
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.5, 1.5, n)
    jitter = rng.uniform(-0.4, 0.4, n) * (1.0 / (n - 1))
    return [float(s) for s in np.clip(grid + jitter, 0.5, 1.5)]


class GateDesign:
    """Resonance search, then an amplitude sweep at the best pair."""

    def __init__(self, seed: int, size: dict, out: Path):
        self.seed, self.size = seed, size
        self.scales = alpha_scales(seed, size["n_alpha"])
        self.res_dir, self.gate_dir = out / "resonance", out / "gate"

    def operations(self):
        def resonance():
            return run_cli(["resonance", "--n-max", self.size["n_max"], "--top", self.size["top"],
                            "--out-dir", self.res_dir, "--seed", self.seed])

        def gate():
            best = _load(self.res_dir / "resonance_summary.json")["best"]
            return run_cli(["gate", "--n1", best["n1"], "--n2", best["n2"],
                            "--alpha-scales", ",".join(repr(s) for s in self.scales),
                            "--input", "uniform", "--out-dir", self.gate_dir, "--seed", self.seed])

        return [("resonance", resonance), ("gate", gate)]

    def check(self, name, rc):
        _exit_ok(rc)
        if name == "resonance":
            summary = _load(self.res_dir / "resonance_summary.json")
            _expect(len(summary["rows"]) == self.size["top"], "wrong number of rows")
            pair = [summary["best"]["n1"], summary["best"]["n2"]]
            _expect(pair == self.size["top_pair"], f"top pair {pair}")
            return {"resonance_summary": summary}
        summary = _load(self.gate_dir / "gate_summary.json")
        _expect([summary["n1"], summary["n2"]] == self.size["top_pair"], "gate ran at the wrong pair")
        _expect(summary["n_points"] == len(self.scales), "wrong number of sweep points")
        for label, phase in summary["basis_branch_phases"].items():
            target = -1.0 if label == "01" else 1.0
            err = abs(complex(phase["re"], phase["im"]) - target)
            _expect(err <= 1e-6, f"branch {label} phase is {err:.3g} from {target:+g}")
        _expect(summary["best"]["d_mod"] <= 0.2, f"best d_mod {summary['best']['d_mod']}")
        return {"gate_summary": summary}


# ---------------------------------------------------------------------------
# walk-ring
# ---------------------------------------------------------------------------

class WalkRing:
    """One walk on a 1024-cavity ring from a seeded origin.

    The origin is drawn from the middle half of the ring: the ballistic
    exponent uses unwrapped positions, so a start near the seam would not
    measure spreading."""

    def __init__(self, seed: int, size: dict, out: Path):
        self.seed, self.size = seed, size
        n = size["n_cavities"]
        self.origin = int(np.random.default_rng(seed).integers(n // 4, 3 * n // 4))
        self.walk_dir = out / "walk"

    def operations(self):
        def walk():
            return run_cli(["walk", "--n-cavities", self.size["n_cavities"],
                            "--n-times", self.size["n_times"], "--origin", self.origin,
                            "--out-dir", self.walk_dir, "--seed", self.seed])

        return [("walk", walk)]

    def check(self, name, rc):
        _exit_ok(rc)
        summary = _load(self.walk_dir / "walk_summary.json")
        _expect(summary["origin"] == self.origin, "walk started at the wrong cavity")
        _expect(summary["norm_drift"] <= 1e-10, f"norm drift {summary['norm_drift']}")
        _expect(abs(summary["ballistic_exponent"] - 2.0) <= 0.05,
                f"ballistic exponent {summary['ballistic_exponent']}")
        _expect(summary["reflection_residual"] <= 1e-10,
                f"reflection residual {summary['reflection_residual']}")
        return {"walk_summary": summary}


# ---------------------------------------------------------------------------
# dark-register
# ---------------------------------------------------------------------------

def _pairs(n_atoms: int):
    return [(i, i + 1) for i in range(0, n_atoms, 2)]


def dark_study(n_atoms: int, truth: str, n_trials: int, sample_seed) -> dict:
    """The calls ``cmd_dark`` makes, with the light reference built as the
    README describes it: a triplet on atoms (0, 1) times singlets on the
    remaining adjacent pairs."""
    import tchlab.darkstates as ds

    couplings = (G,) * n_atoms
    config = ds.DecayConfig(couplings=couplings)
    dark_state = ds.singlet_product(_pairs(n_atoms))
    light_state = ds.triplet_state()
    if n_atoms > 2:
        light_state = np.kron(light_state, ds.singlet_product(_pairs(n_atoms - 2)))
    dark = ds.emission_density(dark_state, config)
    light = ds.emission_density(light_state, config)
    rng = np.random.default_rng(sample_seed)
    samples = ds.sample_emission_times(dark if truth == "dark" else light, n_trials, rng=rng)
    result = ds.classify_dark(samples, dark.mean_emission_time, light.mean_emission_time,
                              detector_error=DETECTOR_ERROR, rng=rng)
    dark_check = ds.is_dark(dark_state, couplings)
    light_check = ds.is_dark(light_state, couplings)
    return {
        "atoms": n_atoms,
        "truth": truth,
        "decision": result.decision,
        "z_score": result.z_score,
        "sample_mean": result.sample_mean,
        "n_censored": result.n_censored,
        "dark_mean_emission_time": dark.mean_emission_time,
        "light_mean_emission_time": light.mean_emission_time,
        "dark_escape_probability": dark.escape_probability,
        "light_escape_probability": light.escape_probability,
        "dark_absorption_residual": dark_check.absorption_residual,
        "light_absorption_residual": light_check.absorption_residual,
    }


class DarkRegister:
    """The dark-state study at every register size, plus one CLI run."""

    def __init__(self, seed: int, size: dict, out: Path):
        self.seed, self.size = seed, size
        rng = np.random.default_rng(seed)
        self.truths = {n: str(rng.choice(["dark", "light"])) for n in size["atoms"]}
        self.cli_truth = str(rng.choice(["dark", "light"]))
        self.cli_dir = out / "cli-dark"

    def operations(self):
        ops = []
        for n in self.size["atoms"]:
            def study(n=n):
                return dark_study(n, self.truths[n], self.size["n_trials"], [self.seed, n])
            ops.append((f"atoms-{n}", study))

        def cli_dark():
            return run_cli(["dark", "--atoms", self.size["cli_atoms"], "--truth", self.cli_truth,
                            "--out-dir", self.cli_dir, "--seed", self.seed])

        ops.append(("cli-dark", cli_dark))
        return ops

    def check(self, name, value):
        if name != "cli-dark":
            self._check_study(value)
            return {"study": value}
        _exit_ok(value)
        summary = _load(self.cli_dir / "dark_summary.json")
        classify = _load(self.cli_dir / "classify.json")
        self._check_study({**summary, **classify, "truth": self.cli_truth})
        return {"dark_summary": summary, "classify": classify}

    def _check_study(self, r):
        _expect(r["dark_absorption_residual"] <= 1e-12,
                f"dark absorption residual {r['dark_absorption_residual']}")
        _expect(r["light_absorption_residual"] > 1e-6,
                f"light absorption residual {r['light_absorption_residual']}")
        _expect(r["decision"] == r["truth"], f"decided {r['decision']}, truth {r['truth']}")


WORKLOADS = {"gate-design": GateDesign, "walk-ring": WalkRing, "dark-register": DarkRegister}


# ---------------------------------------------------------------------------
# reference comparison and the self-check's corruption
# ---------------------------------------------------------------------------

def compare(actual, expected, path="") -> list[str]:
    """Differences between two JSON values: floats to 1e-9 (relative to
    magnitudes above 1), everything else exactly."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(actual) != set(expected):
            return [f"{path}: keys {sorted(set(actual) ^ set(expected))} differ"]
        return [d for k in expected for d in compare(actual[k], expected[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)} != {len(expected)}"]
        return [d for i, (a, e) in enumerate(zip(actual, expected))
                for d in compare(a, e, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if abs(actual - expected) <= 1e-9 * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(actual) is not type(expected) or actual != expected:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def corrupt(workload: str, out: Path) -> None:
    """Overwrite one checked value in one output file."""
    rel, keys, value = CORRUPTIONS[workload]
    path = out / rel
    data = _load(path)
    node = data
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    path.write_text(json.dumps(data))
