"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion runs the ``revealtrack.checks`` function that
``verify`` runs, at this suite's sizes, and pins every tolerance on its
measured numbers.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from revealtrack import checks
from revealtrack import trace as trace_module
from revealtrack.cli import main

# Maps the worked example's arrangement numbering ([1,2,3], [2,1,3], [3,2,1],
# [1,3,2], [2,3,1], [3,1,2]) onto the package's lexicographic indexing.
ARRANGEMENT_ORDER = [0, 2, 5, 1, 4, 3]


@contextmanager
def criterion(cid: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {cid} FAIL: {description}")
        raise
    print(f"[acceptance] {cid} PASS: {description}")


def test_c01_joint_absorbing_decay(tmp_path):
    with criterion("C01", "joint absorbing scenario: exact halving norms, decode [0,.5,.5]"):
        started = time.perf_counter()
        out = tmp_path / "joint.csv"
        assert main(["decay", "--scenario", "joint-absorbing", "--cycles", "20", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 40
        for row in rows:
            step = int(row[0])
            assert float(row[2]) == 2.0 ** -(step // 2)  # bitwise: halving is exact

        measured = checks.check_absorbing_decay(cycles=20).measured
        assert measured["inexact_norms"] == 0  # mass == 2**-cycle bitwise after every reveal
        assert measured["decode_error"] <= 1e-15
        assert time.perf_counter() - started < 1.0


def test_c02_marginal_swap_reveal_decay(tmp_path):
    with criterion("C02", "marginal swap/reveal cycle: five exact matrices, floors .5/.25/.125"):
        started = time.perf_counter()
        assert checks.check_swap_reveal_decay().measured["exact_matrices"] == 5  # entrywise exact

        out = tmp_path / "marginal.csv"
        assert main(["decay", "--scenario", "marginal-swap-reveal", "--cycles", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        floors = [float(row[4]) for row in rows if row[1] == "reveal"]
        assert floors == [0.5, 0.25, 0.125]
        assert time.perf_counter() - started < 1.0


def test_c03_three_item_worked_example():
    with criterion("C03", "six-state noisy swap: h1/h2 exact, uniform reset to 1/6"):
        measured = checks.check_noisy_swap_example().measured
        assert np.array_equal(measured["h1"][ARRANGEMENT_ORDER], [0.0, 0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(measured["h2"][ARRANGEMENT_ORDER], [0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
        assert measured["reset_error"] <= 1e-15


def test_c04_hidden_swap_belief_collapse():
    with criterion("C04", "conditional swap: belief [1,0] -> [.5,.5] -> [1,0] exact"):
        measured = checks.check_hidden_swap_belief().measured
        assert np.array_equal(measured["b0"], [1.0, 0.0])
        assert np.array_equal(measured["b1"], [0.5, 0.5])
        assert np.array_equal(measured["b2"], [1.0, 0.0])


def test_c05_oracle_equivalence_property():
    with criterion("C05", "1000 random automata: decode matches exact filter, mass telescopes"):
        started = time.perf_counter()
        result = checks.check_oracle_equivalence(runs=1000, max_m=5, steps=40, seed=20260810)
        measured = result.measured
        assert measured["decode_error"] <= 1e-9  # worst step of every run
        assert measured["telescope_error"] <= 1e-9  # relative to the survival product
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle property took {elapsed:.1f}s"


def test_c06_marginal_joint_bridge():
    with criterion("C06", "mixing-only bridge to 1e-9; reveal zero-set containment (n=3 exhaustive)"):
        # 60 mixing-only runs of 20 steps for n <= 4, compared at every
        # step; then all nine reveal targets for n = 3 on the identity state
        # and 50 mixed ones
        measured = checks.check_marginal_bridge(runs=60, max_n=4, steps=20, seed=99).measured
        assert measured["mixing_error"] <= 1e-9
        assert measured["support_leak"] <= 1e-12


def test_c07_sinkhorn_projection():
    with criterion("C07", "Sinkhorn: 1000 positive 5x5 to 1e-9; diag(1,1,.5) -> identity"):
        measured = checks.check_sinkhorn(runs=1000, seed=7).measured
        assert measured["unconverged"] == 0
        assert measured["sum_error"] <= 1e-9  # worst row or column sum of every matrix
        assert np.allclose(measured["pinned"], np.eye(3), atol=1e-9)


def test_c08_vectorized_step_identity():
    with criterion("C08", "Kronecker-vectorized step equals bilinear step to 1e-12 (1000 cases)"):
        assert checks.check_kronecker(runs=1000, seed=8).measured["gap"] <= 1e-12


def test_c09_householder_permutation_tracking():
    with criterion("C09", "256 swap gates in S_8 track composition to 1e-12; eigen gates"):
        for seed in range(9, 14):
            measured = checks.check_householder_composition(length=256, n=8, seed=seed).measured
            assert measured["gap"] <= 1e-12
            assert measured["min_eig"] == -1.0 and measured["has_negative"]

        measured = checks.check_eigen_gate(seed=14).measured
        assert measured["capped_min_eig"] >= 0.0 and not measured["capped_has_negative"]


def test_c10_discretized_state_counts():
    with criterion("C10", "exact big-integer state counts"):
        measured = checks.check_state_counts().measured
        assert measured["marginal_n10_k10"] == 10**81
        assert measured["joint_n3"] == 64


def test_c11_trace_pipeline():
    with criterion("C11", "10,000 traces round-trip; curriculum quadruples; byte-identical regen"):
        started = time.perf_counter()
        measured = checks.check_trace_roundtrip(count=10_000, seed=11, max_commands=64).measured
        assert measured["reparsed"]  # parsed.events == trace.events for every trace
        assert measured["disagreements"] == 0
        assert measured["stages"] == [(8, 1), (16, 2), (32, 4), (64, 8)]
        assert measured["regenerated"]  # the first 500 regenerate to the same export bytes
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"trace pipeline took {elapsed:.1f}s"


def test_c11_detects_nondeterministic_generate(monkeypatch):
    # Every second call draws from another stream. The regeneration is
    # compared with the traces of the parse pass, so it must differ.
    generate = trace_module.generate
    calls = []

    def flaky(config, rng=None):
        calls.append(config)
        if len(calls) % 2 == 0:
            rng = np.random.default_rng([config.seed, len(calls)])
        return generate(config, rng)

    monkeypatch.setattr(trace_module, "generate", flaky)
    result = checks.check_trace_roundtrip(count=6, seed=5)
    assert result.measured["reparsed"] and result.measured["disagreements"] == 0
    assert result.measured["regenerated"] is False
    assert not result.passed
    assert len(calls) == 12  # one parse pass and one regeneration


def test_c12_underflow_threshold_and_reset_stability():
    with criterion("C12", "single-precision underflow at cycle 127; resets keep 1e4 cycles alive"):
        measured = checks.check_underflow_threshold(long_cycles=10_000).measured
        first_step = measured["joint_underflow_step"]
        assert first_step is not None
        assert (first_step + 1) // 2 == 127

        assert measured["reset_underflow_step"] is None
        assert measured["reset_min_l1"] == 2.0**-8
