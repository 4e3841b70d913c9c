"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every criterion runs the ``revealtrack.checks`` function that
``verify`` runs, at this suite's sizes, and asserts that its result passed:
each bound is stated once, on the result. The assertions that remain here
test what ``verify`` does not: the CLI's CSV output, wall time, and the
worked example in its own numbering.
"""

from __future__ import annotations

import dataclasses
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from revealtrack import checks, joint, marginal
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

        result = checks.check_absorbing_decay(cycles=20)
        assert result.passed, result.detail
        assert time.perf_counter() - started < 1.0


def test_c02_marginal_swap_reveal_decay(tmp_path):
    with criterion("C02", "marginal swap/reveal cycle: five exact matrices, floors .5/.25/.125"):
        started = time.perf_counter()
        result = checks.check_swap_reveal_decay()
        assert result.passed, result.detail

        out = tmp_path / "marginal.csv"
        assert main(["decay", "--scenario", "marginal-swap-reveal", "--cycles", "3", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        floors = [float(row[4]) for row in rows if row[1] == "reveal"]
        assert floors == [0.5, 0.25, 0.125]
        assert time.perf_counter() - started < 1.0


def test_c03_three_item_worked_example():
    with criterion("C03", "six-state noisy swap: h1/h2 exact, uniform reset to 1/6"):
        result = checks.check_noisy_swap_example()
        assert result.passed, result.detail
        # The check states h1 and h2 through lex_index; these restate them
        # in the worked example's own numbering, which does not go through it.
        measured = result.measured
        assert np.array_equal(measured["h1"][ARRANGEMENT_ORDER], [0.0, 0.5, 0.5, 0.0, 0.0, 0.0])
        assert np.array_equal(measured["h2"][ARRANGEMENT_ORDER], [0.0, 0.0, 0.5, 0.0, 0.0, 0.0])


def test_c04_hidden_swap_belief_collapse():
    with criterion("C04", "conditional swap: belief [1,0] -> [.5,.5] -> [1,0] exact"):
        result = checks.check_hidden_swap_belief()
        assert result.passed, result.detail


def test_c05_oracle_equivalence_property():
    with criterion("C05", "1000 random automata: decode matches exact filter, mass telescopes"):
        started = time.perf_counter()
        result = checks.check_oracle_equivalence(runs=1000, max_m=5, steps=40, seed=20260810)
        assert result.passed, result.detail
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"oracle property took {elapsed:.1f}s"
        # A zero survival would stop the check with a math domain error.
        result = checks.check_oracle_equivalence(runs=200, max_m=5, steps=40, seed=2024)
        assert result.passed, result.detail


def test_c06_marginal_joint_bridge():
    with criterion("C06", "mixing-only bridge to 1e-9; reveal zero-set containment (n=3 exhaustive)"):
        # mixing-only runs of 20 steps for n <= 4, compared at every step;
        # then all nine reveal targets for n = 3 on the identity state and
        # 50 mixed ones
        for runs, seed in ((60, 99), (40, 2025)):
            result = checks.check_marginal_bridge(runs=runs, max_n=4, steps=20, seed=seed)
            assert result.passed, result.detail


def test_c07_sinkhorn_projection():
    with criterion("C07", "Sinkhorn: 1000 positive 5x5 to 1e-9; diag(1,1,.5) -> identity"):
        for seed in (7, 13):
            result = checks.check_sinkhorn(runs=1000, seed=seed)
            assert result.passed, result.detail


def test_c08_vectorized_step_identity():
    with criterion("C08", "marginal_step mix then reveal equals its Kronecker form to 1e-12 (1000 cases)"):
        for seed in (8, 9):
            result = checks.check_kronecker(runs=1000, seed=seed)
            assert result.passed, result.detail


# verify's default sizes and seeds. A per-row step that is off in one part
# in 1e10 differs from its stacked row at every step from the first on: in
# each of C05's four state counts (40 steps), of C06's three n (20 steps)
# and, at the reveal only, of C08's four n.
@pytest.mark.parametrize(
    "module, name, check, mismatches",
    [
        (marginal, "marginal_reveal", lambda: checks.check_kronecker(runs=200, seed=20260813), 4),
        (
            marginal,
            "marginal_mix",
            lambda: checks.check_marginal_bridge(runs=50, max_n=4, steps=20, seed=20260811),
            60,
        ),
        (
            joint,
            "joint_step",
            lambda: checks.check_oracle_equivalence(runs=200, max_m=5, steps=40, seed=20260810),
            160,
        ),
    ],
    ids=["C08-marginal_reveal", "C06-marginal_mix", "C05-joint_step"],
)
def test_stacked_checks_fail_on_a_per_row_step_off_by_one_part_in_1e10(monkeypatch, module, name, check, mismatches):
    clean = check()
    step = getattr(module, name)

    def scaled(*args):
        out = step(*args)
        if isinstance(out, joint.JointLinearState):
            return joint.JointLinearState(out.h * (1 + 1e-10), out.exponent)
        return out * (1 + 1e-10)

    monkeypatch.setattr(module, name, scaled)
    patched = check()
    assert clean.passed and not patched.passed
    # The stacked rows do not call the per-row step, so only the count moves.
    assert patched.measured == {**clean.measured, "per_row_mismatches": mismatches}
    assert patched.detail == f"{clean.detail}; {mismatches} per-row steps differ from their stacked rows"


def test_c09_householder_permutation_tracking():
    with criterion("C09", "256 swap gates in S_8 track composition to 1e-12; eigen gates"):
        for seed in range(9, 14):
            result = checks.check_householder_composition(length=256, n=8, seed=seed)
            assert result.passed, result.detail

        result = checks.check_eigen_gate(seed=14)
        assert result.passed, result.detail


def test_c10_discretized_state_counts():
    with criterion("C10", "exact big-integer state counts"):
        result = checks.check_state_counts()
        assert result.passed, result.detail


def test_c11_trace_pipeline():
    with criterion("C11", "10,000 traces round-trip; curriculum quadruples; byte-identical regen"):
        started = time.perf_counter()
        result = checks.check_trace_roundtrip(count=10_000, seed=11, max_commands=64)
        assert result.passed, result.detail
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
        result = checks.check_underflow_threshold(long_cycles=10_000)
        assert result.passed, result.detail


def test_every_check_carries_its_bounds_as_data():
    for result in checks.run_all(runs=2, max_n=3, steps=3, trace_count=2, seed=20260810):
        assert result.passed, result.detail
        assert result.bounds, result.name
        for key, relation, limit in result.bounds:
            assert key in result.measured, (result.name, key)
            assert relation in ("<=", ">=", "=="), (result.name, relation)
            failing = [math.nan]  # NaN fails every relation
            if relation != "==":
                assert isinstance(result.measured[key], float), (result.name, key)
                failing.append(math.nextafter(limit, math.inf if relation == "<=" else -math.inf))
            for value in failing:
                broken = dataclasses.replace(result, measured={**result.measured, key: value})
                assert not broken.passed, (result.name, key, value)
