"""revealtrack benchmark: one workload, measured in fresh interpreters.

Usage (from the repository root):

    python3 perfbench/run.py --workload curriculum --seed 1 --seconds 20 --trace 0

Each run starts the workload in a new interpreter with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1, importing revealtrack from
this checkout's ``src/``. The load is a closed loop with one client: the
worker repeats one fixed pass of work until its time is up.

``--trace 0`` measures the end-to-end metrics. It splits ``--seconds``
over three measuring workers and starts two interpreters that only set up
before the first worker and after each one; set-up time is measured from
process start to the READY line in all eleven. ``--trace 1`` runs a single
interpreter with spans around every public function of the package and
reports the per-layer metrics; it alternates traced and untraced passes to
measure the tracing overhead.

The shared virtual machine this was tuned on changes speed by up to two
times, for seconds to minutes at a time. So a fixed reference load
(reference.py) is timed just before and just after every sample: every pass
of a worker, and every set-up. Each sample is scaled to the reference speed
by the slower of those two reference times, and each metric is the median
of its scaled samples over the run. Phases bound by memory bandwidth (a
workload's MEMORY_BOUND) are scaled by a memory-bound stream load, the others
by a CPU-bound load. The report prints the unscaled medians beside the
scaled ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric under its workload-specific name with unit and sample
count, the environment, and any failed checks.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from reference import Reference, speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Untraced runs split --seconds over this many measuring workers, with
# SETUPS_BETWEEN set-up-only interpreters before, between and after them.
MEASURING_WORKERS = 3
SETUPS_BETWEEN = 2
# A run ends within this much more than --seconds, or its worker is stopped.
TIME_MARGIN_S = 90.0
# End-to-end phase metrics, in the order of each workload's PHASES.
PHASE_METRICS = ("phase1_per_s", "phase2_per_s", "phase3_per_s")


class WorkerError(RuntimeError):
    pass


def spawn(flags: list[str], deadline: float, reference: Reference) -> tuple[dict, dict]:
    """Run worker.py to completion. Returns (set-up sample, result): the
    seconds from process start to READY, with the reference times just
    before the start and just after READY (timed by the worker)."""
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    cmd = [sys.executable, str(HERE / "worker.py"), *flags]
    before = reference.time()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    ready = result = None
    finished = False
    timer = threading.Timer(max(1.0, deadline - start), proc.terminate)
    try:
        timer.start()
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - start
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        finished = True
    finally:
        timer.cancel()
        if not finished:
            proc.terminate()
        proc.stdout.close()
        try:
            code = proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            code = proc.wait()
    if code != 0 or ready is None or result is None:
        raise WorkerError(f"worker exited with code {code} ({' '.join(flags)})")
    return {"seconds": ready, "reference": [before, result["reference"][0]]}, result


def scaled_median(samples: list[tuple[float, list[dict]]], load: str | None) -> float:
    """Median over (seconds, reference bracket) samples, each scaled to the
    quiet speed of ``load``, or unscaled if ``load`` is None."""
    return median(seconds * speed(bracket, load) if load else seconds for seconds, bracket in samples)


def setup_summary(setups: list[dict]) -> dict:
    """Set-up time over the interpreters of a run, scaled by the CPU load;
    ``wall`` is the unscaled median."""
    samples = [(s["seconds"], s["reference"]) for s in setups]
    return {"value": scaled_median(samples, "cpu"), "wall": scaled_median(samples, None), "unit": "s",
            "samples": len(setups), "per_interpreter": [s["seconds"] for s in setups]}


def phase_summary(passes: list[dict], key: str, unit: str, load: str) -> dict:
    """One phase over the passes of a run: the median pass time, scaled by
    ``load``, as a rate (for a phase reported in seconds, as seconds per
    item); ``wall`` is unscaled."""
    items = passes[0]["phases"][key][0]
    samples = [(p["phases"][key][1], p["reference"]) for p in passes]
    seconds, wall = scaled_median(samples, load), scaled_median(samples, None)
    per_pass = [s for s, _bracket in samples]
    if unit == "s":
        return {"value": seconds / items, "wall": wall / items, "unit": unit,
                "samples": len(samples), "per_pass": [s / items for s in per_pass]}
    return {"value": items / seconds, "wall": items / wall, "unit": unit,
            "samples": len(samples), "per_pass": [items / s for s in per_pass]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="revealtrack benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke size for the benchmark's own tests")
    parser.add_argument("--fault", action="store_true",
                        help="use one deliberately wrong expected value, to test failure counting")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so that spawn() stops its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "revealtrack" / "__init__.py").is_file():
        print(f"error: no revealtrack sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workers = 1 if args.trace else MEASURING_WORKERS
    flags = [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds / workers),
        "--trace", str(args.trace), "--size", args.size,
    ]
    deadline = time.perf_counter() + TIME_MARGIN_S + 2 * args.seconds
    os.environ.update({var: "1" for var in THREAD_VARS})
    reference = Reference()
    setups, results = [], []
    try:
        # Untraced runs sample set-up before, between and after the measuring
        # workers, so that its samples span the whole run as the passes do.
        between = 0 if args.trace else SETUPS_BETWEEN
        for _ in range(between):
            setups.append(spawn(flags + ["--setup-only"], deadline, reference)[0])
        for index in range(workers):
            # A requested wrong expected value goes to the first worker only.
            fault = ["--fault"] if args.fault and index == 0 else []
            setup, result = spawn(flags + fault, deadline, reference)
            setups.append(setup)
            results.append(result)
            for _ in range(between):
                setups.append(spawn(flags + ["--setup-only"], deadline, reference)[0])
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # Each worker's pass 0 fills the package's caches and is left out.
    passes = [p for r in results for p in r["passes"][1:] if p["phases"] is not None and not p["traced"]]
    if not passes:
        print("error: no pass completed", file=sys.stderr)
        return 1
    result = results[0]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)

    report = {"failed_share": {"value": failed / attempted, "unit": "share", "samples": attempted}}
    if args.trace:
        report.update(result["per_layer"])
        metrics = {name: {"value": m["value"], "unit": m["unit"]} for name, m in result["per_layer"].items()}
    else:
        report["setup_s"] = setup_summary(setups)
        report["peak_rss_mb"] = {"value": max(r["peak_rss_mb"] for r in results), "unit": "MiB",
                                 "samples": len(results)}
        for key in passes[0]["phases"]:
            load = "stream" if key.split(".")[0] in result["memory_bound"] else "cpu"
            report[key] = phase_summary(passes, key, result["units"][key], load)
        metrics = {name: {"value": report[name]["value"], "unit": report[name]["unit"]}
                   for name in ("setup_s", "peak_rss_mb")}
        for name, key in zip(PHASE_METRICS, result["phases"]):
            load = "stream" if key in result["memory_bound"] else "cpu"
            metrics[name] = {"value": phase_summary(passes, key, "1/s", load)["value"], "unit": "1/s"}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in wanted if name not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    env = result["environment"]
    print(f"revealtrack benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, {env['llc']}, threads {env['threads']}")
    for name, m in report.items():
        extra = f" wall {m['wall']:.6g}" if "wall" in m else ""
        print(f"  {name:58s} {m['value']:16.6g} {m['unit']:10s} n={m['samples']}{extra}")
    print(f"  checks: {failed} of {attempted} failed")
    for failure in [f for r in results for f in r["failures"]]:
        print(f"  FAILED: {failure}")
    print("report " + json.dumps({"workload": args.workload, "metrics": report, "environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: metrics[name] for name in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
