"""tchlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-check

Runs repetitions of one workload, each in a fresh child process
(bench/rep.py), one after another, for about ``--seconds``: a repetition
starts only if it is expected to end in time, and at least MIN_REPS run.
With ``--trace 0`` it reports the end-to-end metrics as medians over the
repetitions; with ``--trace 1`` it alternates untraced and traced
repetitions and reports the per-layer metrics of BENCHMARK.json, including
the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  The full record
(provenance, every repetition, the spans of traced ones) is written to
``.bench_out/<workload>-seed<N>-trace<T>.json`` under the repository root.

``--self-check`` runs every workload once at a reduced size and asserts that
every metric named in BENCHMARK.json is reported with its unit and that a
corrupted output file counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
REP_TIMEOUT_S = 120


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def _child_env() -> dict:
    env = dict(os.environ)
    # One sweep worker: the spans nest on one stack, and the CLI default is 1.
    env.pop("TCHLAB_THREADS", None)
    return env


def run_rep(workload, seed, index, traced=False, quick=False, corrupt=False) -> dict:
    rep_dir = OUT / f"{workload}-seed{seed}-rep{index}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    rep_dir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed),
           "--dir", str(rep_dir)]
    cmd += ["--trace"] * traced + ["--quick"] * quick + ["--corrupt"] * corrupt
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=REP_TIMEOUT_S,
                              env=_child_env())
        stderr, code = proc.stderr, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stderr, code = f"timed out after {REP_TIMEOUT_S} s: {exc.stderr}", None
    result_path = rep_dir / "result.json"
    if code == 0 and result_path.is_file():
        result = json.loads(result_path.read_text())
    else:
        print(f"repetition {index} of {workload} crashed (exit {code}):\n{stderr[-2000:]}",
              file=sys.stderr)
        result = {"crashed": True, "ops": [{"name": "repetition", "ok": False,
                                            "error": f"exit {code}"}]}
    shutil.rmtree(rep_dir, ignore_errors=True)
    return result


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def run_workload(workload, seed, seconds, trace, quick=False) -> tuple[dict, dict]:
    """Run repetitions for ``seconds``; returns (final result, full record)."""
    spec = _spec()
    reps = []
    start = time.monotonic()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        reps.append(run_rep(workload, seed, len(reps), traced=traced, quick=quick))
        least = (2 if quick else 2 * MIN_REPS) if trace else (1 if quick else MIN_REPS)
        elapsed = time.monotonic() - start
        # Start another repetition only if it is expected to end in time.
        if len(reps) >= least and (quick or elapsed * (len(reps) + 1) / len(reps) > seconds):
            break

    ops = [op for r in reps for op in r["ops"]]
    failed = sum(not op["ok"] for op in ops)
    crashed = [r for r in reps if r.get("crashed")]
    plain = [r for r in reps if not r.get("crashed") and not r["traced"]]
    traced = [r for r in reps if not r.get("crashed") and r["traced"]]
    lines = [f"workload {workload}  seed {seed}  repetitions {len(plain)} untraced, "
             f"{len(traced)} traced, {len(crashed)} crashed"]
    end_to_end, per_layer = {}, {}
    for m in spec["end_to_end"] if plain else []:
        q1, med, q3 = _quartiles([r[m["name"]] for r in plain])
        end_to_end[m["name"]] = {"value": med, "unit": m["unit"]}
        lines.append(f"  {m['name']:<16} median {med:.6g} {m['unit']}  "
                     f"q1 {q1:.6g}  q3 {q3:.6g}  n={len(plain)}")
    lines.append(f"  {'ops_failed_frac':<16} {failed / len(ops):.6g} fraction  "
                 f"{failed} of {len(ops)} operations")
    for m in spec["per_layer"] if trace and plain and traced else []:
        if m["name"] == "trace.overhead_s":
            value = (statistics.median(r["wall_s"] for r in traced)
                     - statistics.median(r["wall_s"] for r in plain))
        else:
            values = [r["layer_metrics"].get(m["name"], 0) for r in traced]
            if m["unit"] == "s":
                value = statistics.median(values)
            else:  # counts repeat exactly; keep them whole
                value = statistics.median_low(values)
            if m["unit"] != "s" and len(set(values)) > 1:
                print(f"warning: {m['name']} varies between repetitions: {values}",
                      file=sys.stderr)
        per_layer[m["name"]] = {"value": value, "unit": m["unit"]}
        shown = f"{value:.6g}" if isinstance(value, float) else value
        lines.append(f"  {m['name']:<34} {shown} {m['unit']}")
    for r in reps:
        lines += [f"  failed {op['name']}: {op['error']}" for op in r["ops"] if not op["ok"]]
    probe = next((r["probe"] for r in plain + traced if r["probe"]), None)
    if probe:
        lines.append(f"  known-defect probe `tchlab {' '.join(probe['argv'])}`: "
                     f"exit {probe['exit_code']} (documented: 0) {probe['stderr']}")

    first = (plain + traced + [{}])[0]
    provenance = {
        "git_commit": _git_commit(),
        "versions": first.get("versions"),
        "blas": first.get("blas"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "argv": sys.argv,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    metrics = per_layer if trace else end_to_end
    correct = not crashed and failed == 0 and bool(metrics)
    final = {"correct": correct, "attempted": len(ops), "failed": failed, "metrics": metrics}
    record = {"workload": workload, "provenance": provenance, "result": final,
              "report": lines, "repetitions": reps}
    return final, record


def _check_metrics(workload, final, names_units) -> list[str]:
    problems = []
    for name, unit in names_units:
        m = final["metrics"].get(name)
        if m is None:
            problems.append(f"{workload}: metric {name} missing")
        elif m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            problems.append(f"{workload}: metric {name} has no value with unit {unit}")
    extra = set(final["metrics"]) - {n for n, _ in names_units}
    if extra:
        problems.append(f"{workload}: unexpected metrics {sorted(extra)}")
    return problems


def _check_layers(workload, final, layers) -> list[str]:
    """Layers the workload does not call must report zero; each layer it
    calls must report some work."""
    problems = []
    by_layer = {}
    for name, m in final["metrics"].items():
        by_layer.setdefault(name.split(".", 1)[0], []).append(m["value"])
    for layer, values in by_layer.items():
        if layer == "trace":
            continue
        if layer in layers and not any(values):
            problems.append(f"{workload}: layer {layer} reported no work")
        if layer not in layers and any(values):
            problems.append(f"{workload}: layer {layer} reported work it should not do")
    return problems


def self_check() -> int:
    """Quick run of every workload, untraced and traced, plus one repetition
    with a corrupted output file; and bench/spec.json against BENCHMARK.json."""
    spec = _spec()
    notes = json.loads((BENCH / "spec.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(notes["workloads"]):
        problems.append("bench/spec.json and BENCHMARK.json name different workloads")
    if [m["name"] for m in spec["per_layer"]] != list(notes["per_layer"]):
        problems.append("bench/spec.json and BENCHMARK.json name different per-layer metrics")
    for w in spec["workloads"]:
        name = w["name"]
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            final, record = run_workload(name, 1, 0, trace, quick=True)
            print("\n".join(record["report"]))
            if not final["correct"] or final["failed"]:
                problems.append(f"{name}: quick run with trace {trace} failed")
            problems += _check_metrics(name, final, [(m["name"], m["unit"]) for m in spec[kind]])
            if trace:
                problems += _check_layers(name, final, notes["workloads"][name]["layers"])
        bad = run_rep(name, 1, "corrupt", quick=True, corrupt=True)
        if bad.get("crashed") or all(op["ok"] for op in bad["ops"]):
            problems.append(f"{name}: a corrupted output file did not fail an operation")
        else:
            failed = [op for op in bad["ops"] if not op["ok"]]
            print(f"{name}: corrupted output failed {failed[0]['name']}: {failed[0]['error']}")
    for problem in problems:
        print("SELF-CHECK FAILED:", problem)
    if not problems:
        print("self-check passed")
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tchlab" / "__init__.py").is_file():
        print(f"no tchlab sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        print(f"--workload must be one of {names}", file=sys.stderr)
        return 2

    final, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    print("\n".join(record["report"]))
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
