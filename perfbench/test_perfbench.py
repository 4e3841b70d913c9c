"""Tests of the benchmark itself, at the tiny size (a few seconds per run).

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The end-to-end metrics each workload reports under its own names.
NAMED = {
    "curriculum": ("gen_traces_per_s", "replay_traces_per_s", "readback_traces_per_s"),
    "arrangements": ("filter_symbols_per_s", "joint_symbols_per_s", "marginal_symbols_per_s"),
    "long-horizon": ("decay_rows_per_s", "verify_s", "recurrence_swaps_per_s"),
}
COMMON = ("setup_s", "peak_rss_mb", "failed_share")
# Per-layer metrics that must be nonzero at the tiny size, per workload.
TRACED = {
    "curriculum": ("trace.generate.us_per_call", "trace.parse.us_per_call", "trace.export_dataset.bytes"),
    "arrangements": ("automaton.belief_update.us_per_call.m120", "joint.joint_step.us_per_call.m120",
                     "automaton.kernel_bytes"),
    "long-horizon": ("householder.run_recurrence.steps", "scenarios.run_and_report.rows",
                     "checks.check_trace_roundtrip.self_s"),
}


def bench(*flags: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1", *flags],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    """(final line, report line) of a successful run."""
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    final = json.loads(lines[-1])
    report = json.loads(next(line for line in lines if line.startswith("report "))[len("report "):])
    return final, report


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_every_metric_is_emitted_with_unit_and_samples(workload, trace):
    final, report = parse(bench("--workload", workload, "--trace", trace, "--size", "tiny"))
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["failed"] == 0 and final["attempted"] >= 1

    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(final["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert final["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(final["metrics"][m["name"]]["value"], float)

    named = [m["name"] for m in wanted] if trace == "1" else COMMON + NAMED[workload]
    for name in named:
        entry = report["metrics"][name]
        assert entry["unit"] and entry["samples"] >= 0, (name, entry)
    for name in TRACED[workload] if trace == "1" else NAMED[workload]:
        assert report["metrics"][name]["value"] > 0 and report["metrics"][name]["samples"] >= 1, name
    if trace == "1":
        assert report["metrics"]["trace_overhead_share"]["samples"] >= 1
    else:
        # Every timed metric has its unscaled median beside it.
        for name in ("setup_s", *NAMED[workload]):
            assert report["metrics"][name]["wall"] > 0, name
    assert report["environment"]["threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_value_is_one_failed_operation(workload):
    final, report = parse(bench("--workload", workload, "--trace", "0", "--size", "tiny", "--fault"))
    assert final["correct"] is False and final["failed"] == 1
    assert report["metrics"]["failed_share"]["value"] == pytest.approx(1 / final["attempted"])
    assert final["metrics"]["phase1_per_s"]["value"] > 0


def test_unpinned_blas_threads_fail_a_check():
    env = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = str(ROOT / "src")
    out = subprocess.run(
        [sys.executable, "perfbench/worker.py", "--workload", "curriculum", "--seed", "3",
         "--seconds", "0.5", "--trace", "0", "--size", "tiny"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1][len("RESULT "):])
    assert result["failed"] == 1
    assert "BLAS threads" in result["failures"][0]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "curriculum", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
