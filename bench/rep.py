"""One repetition of one workload, in a fresh process.

    python3 bench/rep.py --workload NAME --seed N --dir DIR --t0 T
        [--trace] [--quick] [--corrupt]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process; set-up time runs from there until tchlab is imported.  The result
goes to DIR/result.json; outputs of the operations go under DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_tchlab():
    sys.path.insert(0, str(SRC))
    import tchlab.cli  # noqa: F401  the package imports every tchlab module

    if not Path(tchlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported tchlab from {tchlab.__file__}, not from {SRC}")
    return tchlab


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        try:
            threads = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_()
            break
        except (OSError, AttributeError):
            continue
    env = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                      "MKL_NUM_THREADS") if k in os.environ}
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": threads, "thread_env": env}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", type=Path, required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--quick", action="store_true")
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)

    tchlab = _import_tchlab()
    setup_s = time.monotonic() - args.t0

    import numpy as np
    import scipy

    import tracer as tracing
    import workloads as wl

    size_name = "quick" if args.quick else "full"
    workload = wl.WORKLOADS[args.workload](args.seed, wl.SIZES[args.workload][size_name], args.dir)
    ops = workload.operations()
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(run_id=args.dir.name)
        tracer.install()
        close_root = tracer.root("bench.rep")

    values, errors = {}, {}
    start = time.monotonic()
    for name, op in ops:
        try:
            values[name] = op()
        except Exception as exc:  # a crashing operation is a failed operation
            errors[name] = f"{type(exc).__name__}: {exc}"
    wall_s = time.monotonic() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = None
    if tracer is not None:
        close_root()
        spans = tracer.spans[:]

    if args.corrupt:
        wl.corrupt(args.workload, args.dir)

    reference = None
    if args.seed == wl.DEFAULT_SEED and not args.quick:
        reference = json.loads((BENCH / "reference.json").read_text())[args.workload]
    for name, _ in ops:
        if name in errors:
            continue
        try:
            summary = workload.check(name, values[name])
            if reference is not None:
                diffs = wl.compare(summary, reference[name])
                if diffs:
                    raise wl.CheckFailed("differs from the seed commit: " + "; ".join(diffs[:5]))
        except Exception as exc:  # a wrong or unreadable output fails the operation
            errors[name] = f"{type(exc).__name__}: {exc}"

    probe = None
    if args.workload in wl.DEFECT_PROBES:
        probe_argv = wl.DEFECT_PROBES[args.workload] + ["--out-dir", str(args.dir / "probe")]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc = wl.run_cli(probe_argv)
        probe = {"argv": wl.DEFECT_PROBES[args.workload], "exit_code": rc,
                 "stderr": err.getvalue().strip()}

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [{"name": name, "ok": name not in errors, "error": errors.get(name)}
                for name, _ in ops],
        "probe": probe,
        "layer_metrics": tracing.layer_metrics(spans) if spans is not None else None,
        "spans": spans,
        "versions": {
            "tchlab": tchlab.__version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "blas": _blas(),
    }
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
