from __future__ import annotations

import io
import math
from fractions import Fraction

import numpy as np
import pytest

from revealtrack.automaton import InconsistentObservationError
from revealtrack.marginal import MixSpec, RevealSpec, marginal_init, marginal_step
from revealtrack.scenarios import (
    RESET,
    DecayReport,
    DecayRow,
    FloatGrid,
    JointScenario,
    SINGLE_PRECISION,
    adversarial_joint_scenario,
    adversarial_marginal_scenario,
    dfa_scenario,
    run_and_report,
)


def test_float_grid_rounding():
    grid = FloatGrid(sig_bits=24, min_exp=-126)
    assert grid.round_array(np.array([1.0]))[0] == 1.0
    # one ulp below the 24-bit grid rounds away
    assert grid.round_array(np.array([1.0 + 2.0**-25]))[0] == 1.0
    assert grid.round_array(np.array([1.0 + 2.0**-23]))[0] == 1.0 + 2.0**-23
    # flush-to-zero strictly below the smallest normal
    assert grid.round_array(np.array([2.0**-126]))[0] == 2.0**-126
    assert grid.round_array(np.array([2.0**-127]))[0] == 0.0
    assert grid.round_array(np.array([0.0]))[0] == 0.0
    assert grid.round_array(np.array([-3.0]))[0] == -3.0
    assert SINGLE_PRECISION.min_normal == 2.0**-126


def _reference_round(grid, x):
    """Grid rounding as one expression per step: frexp, rint, ldexp, where."""
    x = np.asarray(x, dtype=float)
    scale = 2.0 ** grid.sig_bits
    mant, exp = np.frexp(x)
    out = np.ldexp(np.rint(mant * scale) / scale, exp)
    return np.where(np.abs(out) < 2.0 ** grid.min_exp, 0.0, out)


def _fraction_round(grid, value):
    """Grid rounding in exact rationals, independent of frexp and rint: the
    significand rounded to sig_bits bits, ties to even, then a flush to
    +0.0 below 2**min_exp."""
    q = abs(Fraction(value))
    if q == 0:
        return 0.0
    e = q.numerator.bit_length() - q.denominator.bit_length()  # 2**(e-1) < q < 2**(e+1)
    if q >= Fraction(2) ** e:
        e += 1
    unit = Fraction(2) ** (e - grid.sig_bits)  # one grid step in q's binade [2**(e-1), 2**e)
    rounded = round(q / unit) * unit  # Fraction rounds half to even
    if rounded < Fraction(2) ** grid.min_exp:
        return 0.0
    return math.copysign(float(rounded), value)


def _grid_values(grid):
    rng = np.random.default_rng(grid.sig_bits)
    step = 2.0 ** -grid.sig_bits  # one grid step at 1/2 <= |m| < 1
    edge = grid.min_normal
    random = rng.standard_normal(600) * 2.0 ** rng.integers(-140, 40, 600)
    # Halfway between two grid values, on both sides of an even significand.
    ties = np.array([1 + step, 1 + 3 * step, 0.75 + step, 0.75 + 3 * step, 2.0**-30 * (1 + step)])
    zeros = np.array([0.0, -0.0])
    subnormals = np.array([5e-324, -5e-324, 2.0**-1060, -(2.0**-1030) * 1.5])
    # Within one grid step of 2**min_exp, ties and both signs included.
    offsets = np.arange(-4, 5) * step / 2
    near_edge = np.concatenate([edge * (1 + offsets), edge * (1 - offsets / 2), -edge * (1 + offsets)])
    values = np.concatenate([random, ties, -ties, zeros, subnormals, near_edge])
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("grid", [SINGLE_PRECISION, FloatGrid(8, -20)], ids=["single", "8-bit"])
def test_float_grid_rounding_matches_the_reference_bits(grid):
    values = _grid_values(grid)
    cases = [values, values[::-1], values[::3], values[:81].reshape(9, 9), values[:1]]
    for x in cases:
        before = x.tobytes()
        out = grid.round_array(x)
        expected = _reference_round(grid, x)
        assert out.dtype == expected.dtype and out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
        assert x.tobytes() == before and not np.shares_memory(out, x)


@pytest.mark.parametrize(
    "grid",
    [SINGLE_PRECISION, FloatGrid(8, -20), FloatGrid(53, -1022), FloatGrid(1, -1022)],
    ids=["single", "8-bit", "53-bit", "1-bit"],
)
def test_float_grid_rounding_matches_exact_rationals(grid):
    values = _grid_values(grid)
    expected = np.array([_fraction_round(grid, value) for value in values.tolist()])
    assert grid.round_array(values).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "sig_bits, min_exp",
    [(52, -1100), (24, 2000), (True, -126), (24.0, -126), (0, -126), (54, -126), (24, -1023), (24, False)],
)
def test_float_grid_rejects_what_float64_cannot_emulate(sig_bits, min_exp):
    # Below 2**-1022 float64 itself is subnormal, so an exact float64 floor
    # would lose the entry before crossing the grid's threshold.
    with pytest.raises(ValueError, match="is not an int in"):
        FloatGrid(sig_bits, min_exp)


def test_marginal_underflow_at_the_smallest_float64_normal():
    grid = FloatGrid(52, -1022)
    assert run_and_report(adversarial_marginal_scenario(1200), grid).first_underflow_step == 2045  # cycle 1023


def test_joint_scenario_shape():
    empty = adversarial_joint_scenario(0)
    assert empty.steps == ()
    assert empty.initial.sum() == 1.0
    with_resets = adversarial_joint_scenario(4, reset_every=2)
    labels = [with_resets.automaton.symbols[s].name if s != RESET else RESET for s in with_resets.steps]
    assert labels == ["mix", "reveal", "mix", "reveal", RESET, "mix", "reveal", "mix", "reveal", RESET]
    with pytest.raises(ValueError):
        adversarial_joint_scenario(-1)
    with pytest.raises(ValueError):
        adversarial_joint_scenario(2, reset_every=0)
    for build in (adversarial_marginal_scenario, dfa_scenario):
        with pytest.raises(ValueError, match="must be >= 0"):
            build(-1)


def test_run_and_report_rejects_what_it_cannot_replay():
    with pytest.raises(TypeError, match="unknown scenario type"):
        run_and_report("joint-absorbing")
    a = adversarial_joint_scenario(1).automaton
    with pytest.raises(ValueError, match="initial state has no mass"):
        run_and_report(JointScenario(a, np.zeros(3), ()))
    # The absorbing state 0 is outside the reveal set.
    pinned = JointScenario(a, np.array([1.0, 0.0, 0.0]), (a.symbol_index("reveal"),))
    with pytest.raises(InconsistentObservationError, match="step 1: symbol 'reveal' is inconsistent"):
        run_and_report(pinned)


def test_joint_absorbing_norms_are_exact_halvings():
    report = run_and_report(adversarial_joint_scenario(50))
    assert report.first_underflow_step is None
    for row in report.rows:
        cycle_completed = row.step // 2
        assert row.l1_norm == 2.0 ** -cycle_completed
        assert row.log2_norm == -float(cycle_completed)
        assert row.survival == (0.5 if row.op == "reveal" else 1.0)


def test_dfa_scenario_constant_norm():
    report = run_and_report(dfa_scenario(100))
    assert len(report.rows) == 100
    for row in report.rows:
        assert row.l1_norm == 1.0
        assert row.survival == 1.0
        assert row.min_nonzero == 1.0


def test_marginal_scenario_values():
    scenario = adversarial_marginal_scenario(3)
    assert len(scenario.steps) == 6
    assert isinstance(scenario.steps[0], MixSpec)
    assert isinstance(scenario.steps[1], RevealSpec)
    assert adversarial_marginal_scenario(0).steps == ()
    report = run_and_report(scenario)
    floors = [row.min_nonzero for row in report.rows if row.op == "reveal"]
    assert floors == [0.5, 0.25, 0.125]
    assert all(row.survival is None for row in report.rows)


def test_joint_underflow_cycle():
    report = run_and_report(adversarial_joint_scenario(130), SINGLE_PRECISION)
    assert report.first_underflow_step == 254  # reveal of cycle 127
    # the rounded tracker's entries flush to zero during cycle 126
    dead = [row.step for row in report.rows if row.l1_norm == 0.0]
    assert dead[0] == 252


def test_marginal_underflow_cycle():
    report = run_and_report(adversarial_marginal_scenario(130), SINGLE_PRECISION)
    assert report.first_underflow_step == 253  # mix of cycle 127


def test_gated_resets_prevent_underflow():
    report = run_and_report(adversarial_joint_scenario(500, reset_every=8), SINGLE_PRECISION)
    assert report.first_underflow_step is None
    norms = [row.l1_norm for row in report.rows]
    assert min(norms) == 2.0**-8
    resets = [row for row in report.rows if row.op == "reset"]
    assert all(row.l1_norm == 1.0 for row in resets)
    assert all(row.survival is None for row in resets)


def test_reset_keeps_decode_exact():
    # Re-inflation must not change the decoded belief: norms return to 1
    # and the post-reveal survival pattern is unchanged afterwards.
    report = run_and_report(adversarial_joint_scenario(20, reset_every=4))
    survivals = [row.survival for row in report.rows if row.op == "reveal"]
    assert survivals == [0.5] * 20


def test_csv_layout():
    report = run_and_report(adversarial_joint_scenario(1))
    buf = io.StringIO()
    report.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "step,op,l1_norm,survival,min_nonzero,log2_norm"
    assert lines[1] == "1,mix,1.0,1.0,0.25,0.0"
    assert lines[2] == "2,reveal,0.5,0.5,0.25,-1.0"

    marginal_buf = io.StringIO()
    run_and_report(adversarial_marginal_scenario(1)).to_csv(marginal_buf)
    first = marginal_buf.getvalue().splitlines()[1].split(",")
    assert first[3] == ""  # survival not applicable to marginal runs


def test_csv_to_path(tmp_path):
    out = tmp_path / "report.csv"
    run_and_report(adversarial_joint_scenario(2)).to_csv(out)
    assert out.read_text().startswith("step,op,")


def test_emulated_rows_match_exact_until_flush():
    exact = run_and_report(adversarial_joint_scenario(40))
    emulated = run_and_report(adversarial_joint_scenario(40), SINGLE_PRECISION)
    for row_exact, row_emulated in zip(exact.rows, emulated.rows):
        assert row_exact.l1_norm == row_emulated.l1_norm  # powers of two fit in 24 bits


# The per-step report loop that ``run_and_report`` replaced: every column is
# computed from the state of its own step, and the CSV is written row by row.


def _reference_min_nonzero(x):
    positive = x[x > 0]
    return float(positive.min()) if positive.size else None


def _reference_joint(scenario, grid):
    a = scenario.automaton
    total = scenario.initial.sum()
    belief = scenario.initial / total
    cum_log2 = math.log2(total)
    tracked = grid.round_array(scenario.initial) if grid else scenario.initial
    rows = []
    first_underflow = None
    for step, op in enumerate(scenario.steps, start=1):
        if op == RESET:
            tracked = grid.round_array(belief) if grid else belief
            cum_log2 = 0.0
            label = "reset"
            surv = None
        else:
            sym = a.symbols[int(op)]
            surv = float(np.add.reduce(sym.mask * belief))
            belief = sym.apply(belief) / surv
            tracked = grid.round_array(sym.apply(tracked)) if grid else sym.apply(tracked)
            cum_log2 += math.log2(surv)
            label = sym.name
        rows.append(DecayRow(step, label, float(tracked.sum()), surv, _reference_min_nonzero(tracked), cum_log2))
        if grid and first_underflow is None and cum_log2 < grid.min_exp:
            first_underflow = step
    return DecayReport(tuple(rows), first_underflow)


def _reference_marginal(scenario, grid):
    h = marginal_init(scenario.n)
    tracked = grid.round_array(h) if grid else h
    rows = []
    first_underflow = None
    for step, op in enumerate(scenario.steps, start=1):
        h = marginal_step(h, op)
        tracked = grid.round_array(marginal_step(tracked, op)) if grid else h
        l1 = float(np.abs(tracked).sum())
        exact_floor = _reference_min_nonzero(h)
        rows.append(
            DecayRow(step, op.label, l1, None, _reference_min_nonzero(tracked), math.log2(l1) if l1 > 0 else -math.inf)
        )
        if grid and first_underflow is None and exact_floor is not None and exact_floor < grid.min_normal:
            first_underflow = step
    return DecayReport(tuple(rows), first_underflow)


def _reference_csv(report):
    sink = io.StringIO()
    sink.write("step,op,l1_norm,survival,min_nonzero,log2_norm\n")
    for row in report.rows:
        fields = (
            str(row.step),
            row.op,
            repr(row.l1_norm),
            "" if row.survival is None else repr(row.survival),
            "" if row.min_nonzero is None else repr(row.min_nonzero),
            repr(row.log2_norm),
        )
        sink.write(",".join(fields) + "\n")
    return sink.getvalue()


def _reference_report(scenario, grid):
    if isinstance(scenario, JointScenario):
        return _reference_joint(scenario, grid)
    return _reference_marginal(scenario, grid)


COARSE = FloatGrid(sig_bits=8, min_exp=-20)
GRIDS = {"float64": None, "single": SINGLE_PRECISION, "coarse": COARSE}
SCENARIOS = {
    "joint-absorbing": lambda cycles: adversarial_joint_scenario(cycles),
    "marginal-swap-reveal": lambda cycles: adversarial_marginal_scenario(cycles),
    "dfa": lambda cycles: dfa_scenario(2 * cycles),
    "full-reveal-every-k": lambda cycles: adversarial_joint_scenario(cycles, reset_every=8),
}


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("scenario_name", sorted(SCENARIOS))
def test_report_matches_per_step_reference(scenario_name, grid_name):
    grid = GRIDS[grid_name]
    for cycles in (1, 30, 140, 1200):
        scenario = SCENARIOS[scenario_name](cycles)
        report = run_and_report(scenario, grid)
        expected = _reference_report(scenario, grid)
        assert report == expected, (scenario_name, grid_name, cycles)
        buf = io.StringIO()
        report.to_csv(buf)
        assert buf.getvalue() == _reference_csv(expected), (scenario_name, grid_name, cycles)


def test_coarse_grid_underflows_within_30_cycles():
    joint = run_and_report(adversarial_joint_scenario(30), COARSE)
    marginal = run_and_report(adversarial_marginal_scenario(30), COARSE)
    assert joint.first_underflow_step == 42  # reveal of cycle 21
    assert marginal.first_underflow_step == 41  # mix of cycle 21
    assert joint.rows[-1].l1_norm == 0.0
    assert joint.rows[-1].min_nonzero is None


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize(
    "scenario",
    [adversarial_joint_scenario(0), adversarial_marginal_scenario(0), dfa_scenario(0)],
    ids=["joint", "marginal", "dfa"],
)
def test_empty_run_reports_header_only(scenario, grid_name):
    report = run_and_report(scenario, GRIDS[grid_name])
    assert report.rows == ()
    assert report.first_underflow_step is None
    buf = io.StringIO()
    report.to_csv(buf)
    assert buf.getvalue() == "step,op,l1_norm,survival,min_nonzero,log2_norm\n"
