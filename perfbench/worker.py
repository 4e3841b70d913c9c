"""One workload in one fresh interpreter; started by run.py.

The parent sets the BLAS thread variables before this interpreter starts, so
they are in force before numpy is imported. Protocol on stdout: the line
``READY`` once set-up is done, then one line ``RESULT <json>`` (with
--setup-only, holding only the reference times just after set-up). Anything
the program prints is captured, never echoed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    try:
        build = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = " ".join(str(build.get(k, "")) for k in ("name", "version", "openblas configuration"))
    except (TypeError, KeyError):
        blas = "unknown"
    cpu_model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = [(int((c / "level").read_text()), (c / "size").read_text().strip()) for c in caches]
    if levels:
        llc = f"L{max(levels)[0]} {max(levels)[1]}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--fault", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # SIGTERM from run.py (deadline or its own SIGTERM) still removes the work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    pinned = all(os.environ.get(var) == "1" for var in THREAD_VARS)

    import revealtrack

    source = Path(revealtrack.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"revealtrack imported from {source}, not from this checkout's src/", file=sys.stderr)
        return 3

    import tracer as tracing
    from reference import Reference
    from workloads import WORKLOADS, Checks

    checks = Checks(fault=args.fault)
    checks.record(pinned, "BLAS threads not pinned to 1 before numpy was imported")
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if args.trace else None
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-work-", dir=ROOT))
    try:
        if tracer:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir, checks, golden)
        print("READY", flush=True)
        # The reference is timed just after set-up and after every pass, so
        # each pass lies between two reference times.
        reference = Reference(stream=bool(workload.MEMORY_BOUND))
        brackets = [reference.time()]
        if args.setup_only:
            print("RESULT " + json.dumps({"reference": brackets}), flush=True)
            return 0
        setup = tracer.snapshot() if tracer else None

        passes = []
        clock = time.perf_counter
        start = clock()
        # Pass 0 is untraced and not reported: it fills the package's caches,
        # so that every later pass does the same work and per-pass counts
        # repeat exactly. At least one measured pass follows (traced runs:
        # one traced and one untraced).
        min_passes = 3 if tracer else 2
        while len(passes) < min_passes or clock() - start < args.seconds:
            traced = tracer is not None and len(passes) % 2 == 1
            if tracer:
                (tracer.install if traced else tracer.uninstall)()
            began = clock()
            try:
                phases = workload.run_pass()
            except Exception:
                checks.record(False, traceback.format_exc(limit=4))
                phases = None
            seconds = clock() - began
            brackets.append(reference.time())
            passes.append({"seconds": seconds, "traced": traced, "phases": phases, "reference": brackets[-2:]})
        if tracer:
            tracer.uninstall()
        workload.final_checks()

        result = {
            "workload": args.workload,
            "phases": [name for name, _unit in workload.PHASES],
            "units": workload.units(),
            "memory_bound": list(workload.MEMORY_BOUND),
            "reference": brackets,
            "passes": passes,
            "attempted": checks.attempted,
            "failed": checks.failed,
            "failures": checks.failures,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "environment": environment(),
        }
        if tracer:
            names = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
            result["per_layer"] = tracing.per_layer_metrics(names, tracer, setup, passes)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
