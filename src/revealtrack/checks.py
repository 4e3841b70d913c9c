"""Named self-checks wired to the ``verify`` CLI command.

Each check replays a construction or property and returns a
``CheckResult``: a one-line detail, the numbers it measured, and its bounds
as data, one ``(key, relation, limit)`` triple per condition on a measured
value. ``CheckResult.passed`` is the one place a pass is decided. A check's
run count and seed are keyword-only with no default, so each caller states
them: ``run_all`` holds ``verify``'s, derived from its flags, and
``tests/test_acceptance.py`` runs the same checks at its own sizes and
asserts ``passed``, so each bound is stated once, here. The ``verify``
command prints one line per check and exits nonzero if any fails.

Worst-case errors are folded with ``np.maximum``, which keeps a NaN that
the builtin ``max`` would drop.

The checks that draw many runs, C05, C06 and C08, draw each run as it
would be drawn alone, in blocks of bounded memory, then step the runs of
one state count in a block as one stack through the library's stacked
steps, each row with the bits of its per-row step; a maximum is exact,
so the folded errors have the bits of a per-run loop. The first run of
each stack also steps alone, through the per-row steps that the decay
scenarios run, and the check fails on any such step whose bytes differ
from its stacked row (``per_row_mismatches``): so ``verify`` itself ties
the two forms of each step together.
"""

from __future__ import annotations

import io
import math
import operator
from dataclasses import dataclass

import numpy as np

from . import householder as hh
from . import joint as jt
from . import marginal as mg
from . import scenarios as sc
from . import trace as tr
from .automaton import (
    Pfsa,
    belief_update,
    belief_update_stack,
    gather_stack,
    joint_discretization_count,
    marginal_discretization_count,
    one_hot,
    random_automaton,
    sample_trajectory,
)
from .perm import Mixture, Permutation, compose, identity, lex_index, symmetric_group, to_matrix, transposition


def _equal(value, limit) -> bool:
    if isinstance(value, np.ndarray) or isinstance(limit, np.ndarray):
        return np.array_equal(value, limit)
    return value == limit


# Every comparison is False for a NaN, so a NaN fails every relation.
_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": _equal}


@dataclass(frozen=True)
class CheckResult:
    """A check's outcome: ``bounds`` is a tuple of ``(key, relation,
    limit)``, where ``relation`` is ``"<="``, ``">="`` or ``"=="`` and
    ``measured[key]`` is the value held to ``limit``."""

    name: str
    detail: str
    measured: dict
    bounds: tuple

    @property
    def passed(self) -> bool:
        return all(_RELATIONS[relation](self.measured[key], limit) for key, relation, limit in self.bounds)


def check_absorbing_decay(cycles: int = 20) -> CheckResult:
    scenario = sc.adversarial_joint_scenario(cycles)
    state = jt.joint_init(scenario.initial)
    expected_belief = np.array([0.0, 0.5, 0.5])
    decode_error = 0.0
    inexact_norms = 0
    for cycle in range(1, cycles + 1):
        state = jt.joint_step(state, scenario.automaton, 0)
        state = jt.joint_step(state, scenario.automaton, 1)
        inexact_norms += math.ldexp(state.mass, state.exponent) != 2.0 ** -cycle
        decode_gap = np.abs(jt.joint_decode(state) - expected_belief).max()
        decode_error = np.maximum(decode_error, decode_gap)
    return CheckResult(
        "joint-absorbing-decay",
        f"inexact norms {inexact_norms}, max decode error {decode_error:.2e} over {cycles} cycles",
        {"inexact_norms": inexact_norms, "decode_error": decode_error},
        (("inexact_norms", "==", 0), ("decode_error", "<=", 1e-15)),
    )


def check_swap_reveal_decay() -> CheckResult:
    scenario = sc.adversarial_marginal_scenario(3)
    expected = [
        np.array([[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]]),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0.5]]),
        np.array([[1, 0, 0], [0, 0.5, 0.25], [0, 0.5, 0.25]]),
        np.array([[1, 0, 0], [0, 1, 0], [0, 0, 0.25]]),
        np.array([[1, 0, 0], [0, 0.5, 0.125], [0, 0.5, 0.125]]),
    ]
    h = mg.marginal_init(3)
    states = []
    for op in scenario.steps:
        h = mg.marginal_step(h, op)
        states.append(h)
    exact = sum(np.array_equal(got, want) for got, want in zip(states, expected))
    floors = [float(states[k][2, 2]) for k in (1, 3, 5)]
    return CheckResult(
        "marginal-swap-reveal-decay",
        f"{exact}/{len(expected)} matrices exact, unrevealed entry follows {floors}",
        {"exact_matrices": exact, "floors": floors},
        (("exact_matrices", "==", len(expected)), ("floors", "==", [0.5, 0.25, 0.125])),
    )


def check_noisy_swap_example() -> CheckResult:
    a = sc.noisy_swap_s3()
    state = jt.joint_init(one_hot(6, a.q0))
    swapped = jt.joint_step(state, a, a.symbol_index("fuzzy_swap"))
    h1_expected = np.zeros(6)
    h1_expected[lex_index(Permutation((1, 0, 2)))] = 0.5
    h1_expected[lex_index(Permutation((2, 1, 0)))] = 0.5
    observed = jt.joint_step(swapped, a, a.symbol_index("observe"))
    h2_expected = np.zeros(6)
    h2_expected[lex_index(Permutation((2, 1, 0)))] = 0.5
    reset = jt.joint_init(np.full(6, 1.0 / 6.0))
    reset_error = np.abs(reset.h - 1.0 / 6.0).max()
    return CheckResult(
        "noisy-swap-worked-example",
        f"h1 exact={_equal(swapped.h, h1_expected)}, h2 exact={_equal(observed.h, h2_expected)}, "
        f"uniform reset error {reset_error:.2e}",
        {"h1": swapped.h, "h2": observed.h, "reset_error": reset_error},
        (("h1", "==", h1_expected), ("h2", "==", h2_expected), ("reset_error", "<=", 1e-15)),
    )


def check_hidden_swap_belief() -> CheckResult:
    a = sc.hidden_swap_automaton()
    b0 = one_hot(2, a.q0)
    b1 = belief_update(a, b0, a.symbol_index("swap"))
    b2 = belief_update(a, b1, a.symbol_index("check"))
    return CheckResult(
        "hidden-swap-belief",
        f"trajectory {b0} -> {b1} -> {b2}",
        {"b0": b0, "b1": b1, "b2": b2},
        (("b0", "==", [1.0, 0.0]), ("b1", "==", [0.5, 0.5]), ("b2", "==", [1.0, 0.0])),
    )


# C05, C06 and C08 draw and step their runs in blocks of at most _BLOCK
# runs, and of fewer when the arrays a block steps would pass _BLOCK_BYTES,
# so that their memory grows with neither the run count nor the step count.
_BLOCK = 256
_BLOCK_BYTES = 2**24


def _block(run_bytes: int) -> int:
    """Runs per block when the arrays of one run take ``run_bytes``."""
    return max(1, min(_BLOCK, _BLOCK_BYTES // run_bytes))


def _per_row_note(mismatches: int) -> str:
    """Nothing when every per-row step has the bits of its stacked row, so
    a passing detail line reads as before; else how many steps differ."""
    return f"; {mismatches} per-row steps differ from their stacked rows" if mismatches else ""


def check_oracle_equivalence(*, runs: int, max_m: int, steps: int, seed: int) -> CheckResult:
    """Random automata: at every step the joint tracker decodes to the
    exact filter's belief, and its carried mass telescopes to the product
    of the reveal survivals. Each run is drawn as it would be alone; the
    runs of one state count in a block then step as one stack, and the
    first of them also alone (see ``_oracle_group``)."""
    rng = np.random.default_rng(seed)
    # Symbols take 8 bytes a step, dense kernels about 3 * 8 * m**2 a run.
    block = _block(8 * (steps + 3 * max_m**2))
    decode_error = 0.0
    telescope_error = 0.0
    log_mass_error = 0.0
    mismatches = 0
    for first in range(0, runs, block):
        drawn = []
        for _ in range(min(block, runs - first)):
            m = int(rng.integers(2, max_m + 1))
            a = random_automaton(m, int(rng.integers(2, 4)), rng)
            drawn.append((a, np.array(sample_trajectory(a, steps, rng).symbols, dtype=np.intp)))
        for m in sorted({a.m for a, _ in drawn}):
            group_error, group_mismatches, ends = _oracle_group([run for run in drawn if run[0].m == m])
            decode_error = np.maximum(decode_error, group_error)
            mismatches += group_mismatches
            for mass, exponent, log_product in ends:
                # Compared in the state's own power-of-two scale: past
                # float64's range both the mass and the product underflow to 0.
                product = math.exp(log_product - exponent * math.log(2))
                telescope_error = np.maximum(telescope_error, abs(mass - product) / product)
                log_mass_error = np.maximum(log_mass_error, abs(jt.log_mass(mass, exponent) - log_product))
    return CheckResult(
        "joint-oracle-equivalence",
        f"{runs} runs of {steps} steps: decode err {decode_error:.2e}, "
        f"telescoping err {telescope_error:.2e}, log-mass err {log_mass_error:.2e}" + _per_row_note(mismatches),
        {
            "decode_error": decode_error,
            "telescope_error": telescope_error,
            "log_mass_error": log_mass_error,
            "per_row_mismatches": mismatches,
        },
        (
            ("decode_error", "<=", 1e-9),
            ("telescope_error", "<=", 1e-9),
            ("log_mass_error", "<=", 1e-9),
            ("per_row_mismatches", "==", 0),
        ),
    )


def _oracle_group(runs: list[tuple[Pfsa, np.ndarray]]) -> tuple[float, int, list[tuple[float, int, float]]]:
    """C05 on runs of one state count, stepped as one stack: the largest
    gap between the joint decode and the exact filter, the count of
    per-row steps of the first run whose bytes differ from its stacked
    row, and per run its final mass and exponent and the sum of its log
    survivals.

    Step t picks each run's folded kernel (``Symbol.folded_kernel``) for
    its t-th symbol, and ``joint_step_stack`` and ``belief_update_stack``
    give each run the bits of its own ``joint_step`` and ``belief_update``.
    The decodes ``h / mass`` are the exactly rounded divisions of
    ``joint_decode``, a survival is the row sum of a mask times a belief,
    and each run adds its log survivals with ``math.log`` in step order.
    The first run also steps alone, through ``joint_step`` and
    ``belief_update``.
    """
    rows = np.arange(len(runs))
    m = runs[0][0].m
    # Every run's kernels and masks, padded to the widest alphabet; a run
    # only ever picks its own symbols.
    width = max(len(a.symbols) for a, _ in runs)
    kernels = np.zeros((len(runs), width, m, m))
    masks = np.zeros((len(runs), width, m))
    for r, (a, _) in enumerate(runs):
        for k, symbol in enumerate(a.symbols):
            kernels[r, k] = symbol.folded_kernel
            masks[r, k] = symbol.mask
    symbols = np.array([symbols for _, symbols in runs])
    # joint_init of a one-hot belief: mass 1, so it decodes to itself.
    h = np.zeros((len(runs), m))
    h[rows, [a.q0 for a, _ in runs]] = 1.0
    mass, exponent = np.ones(len(runs)), np.zeros(len(runs), dtype=np.int64)
    exact = belief = h
    log_products = [0.0] * len(runs)
    decode_error = 0.0
    first = runs[0][0]
    alone = jt.joint_init(h[0])
    alone_exact = h[0]
    mismatches = 0
    for picked in symbols.T:
        step = kernels[rows, picked]
        survivals = np.add.reduce(masks[rows, picked] * belief, axis=1)
        log_products = [x + math.log(s) for x, s in zip(log_products, survivals.tolist())]
        h, mass, exponent = jt.joint_step_stack(h, exponent, step)
        exact = belief_update_stack(step, exact)
        belief = h / mass[:, None]
        decode_error = np.maximum(decode_error, np.abs(belief - exact).max(initial=0.0))
        alone = jt.joint_step(alone, first, picked[0])
        alone_exact = belief_update(first, alone_exact, picked[0])
        mismatches += (alone.h.tobytes(), alone.mass, alone.exponent) != (h[0].tobytes(), mass[0], exponent[0])
        mismatches += alone_exact.tobytes() != exact[0].tobytes()
    return decode_error, mismatches, list(zip(mass.tolist(), exponent.tolist(), log_products))


def _random_mixture(rng: np.random.Generator, group, max_k: int) -> Mixture:
    k = int(rng.integers(1, max_k + 1))
    picks = rng.choice(len(group), size=k, replace=False)
    weights = rng.dirichlet(np.ones(k))
    return Mixture(tuple((group[i], float(w)) for i, w in zip(picks, weights)))


def check_marginal_bridge(*, runs: int, max_n: int, steps: int, seed: int) -> CheckResult:
    """Mixing-only runs track the joint marginal at every step; a reveal
    zeroes only entries the conditioned joint's marginal has (near) zero,
    exhaustive over the nine reveal targets for n = 3 on the identity state
    and 50 mixed ones. Each mixing run is drawn as it would be alone; the
    runs of one n in a block then step as one stack, and the first of them
    also alone (see ``_bridge_group``)."""
    rng = np.random.default_rng(seed)
    # Per step, a run holds its P_s and marginal, about 2 * 8 * n**2 bytes,
    # and its belief and that belief's collapse, about 8 * (n + 1) * n!.
    block = _block(8 * max(steps, 1) * (2 * max_n**2 + (max_n + 1) * math.factorial(max_n)))
    mixing_error = 0.0
    mismatches = 0
    for first in range(0, runs, block):
        drawn = []
        for _ in range(min(block, runs - first)):
            n = int(rng.integers(2, max_n + 1))
            group = symmetric_group(n)
            drawn.append((n, [_random_mixture(rng, group, min(4, len(group))) for _ in range(steps)]))
        for n in sorted({n for n, _ in drawn}):
            gap, group_mismatches = _bridge_group(n, [mixtures for size, mixtures in drawn if size == n])
            mixing_error = np.maximum(mixing_error, gap)
            mismatches += group_mismatches

    # The identity state and 50 states mixed 1 to 6 times, drawn one after
    # another, then mixed as one stack: the states still mixing at step t
    # take their t-th kernel's gathers.
    group = symmetric_group(3)
    mixing = [[]]
    for _ in range(50):
        mixing.append(
            [
                jt.mixture_symbol(3, _random_mixture(rng, group, 3), action="position").transition
                for _ in range(int(rng.integers(1, 7)))
            ]
        )
    prefixes = np.zeros((len(mixing), 6))
    prefixes[:, 0] = 1.0
    for t in range(max(map(len, mixing))):
        live = [r for r, kernels in enumerate(mixing) if len(kernels) > t]
        prefixes[live] = gather_stack([mixing[r][t] for r in live], prefixes[live])
    # Every prefix against every target cell: a survival is the sum of a
    # mask times a belief, a posterior its exactly rounded quotient by that
    # sum, and the stacked collapses and reveals give each the bits of its
    # own call, so the maximum over all zeroed entries is the maximum of
    # the per-reveal ones.
    cells = np.array([(position, element) for position in range(3) for element in range(3)])
    masks = np.array([jt.placement_reveal_symbol(3, position, element).mask for position, element in cells])
    masked = masks * prefixes[:, None]
    mass = np.add.reduce(masked, axis=2)
    consistent = mass > 0.0  # else the observation is impossible there
    prefix_rows, target_rows = np.nonzero(consistent)
    posteriors = mg.joint_to_marginal(masked[consistent] / mass[consistent][:, None], 3)
    revealed = mg.marginal_reveal_stack(
        mg.joint_to_marginal(prefixes, 3)[prefix_rows], *cells[target_rows].T
    )
    leak = posteriors[revealed == 0.0].max(initial=0.0)
    reveals = len(prefix_rows)
    return CheckResult(
        "marginal-joint-bridge",
        f"mixing error {mixing_error:.2e} over {runs} runs; "
        f"largest posterior mass on a zeroed entry {leak:.2e} ({reveals} reveals)" + _per_row_note(mismatches),
        {"mixing_error": mixing_error, "support_leak": leak, "reveals": reveals, "per_row_mismatches": mismatches},
        (("mixing_error", "<=", 1e-9), ("support_leak", "<=", 1e-12), ("per_row_mismatches", "==", 0)),
    )


def _bridge_group(n: int, runs: list[list[Mixture]]) -> tuple[float, int]:
    """C06's mixing half on runs of one n, stepped as one stack: the
    largest gap, over every step of every run, between the marginal
    tracker's state and the marginal of the joint belief, and the count of
    per-row steps of the first run whose bytes differ from its stacked row.

    Step t mixes each run's marginal by the P_s its ``MixSpec`` builds, in
    ``marginal_mix_stack``, and pushes its joint belief through the gathers
    of its ``mixture_symbol`` in ``gather_stack``, so each row has the bits
    of ``marginal_mix`` and ``Symbol.apply``; ``joint_to_marginal``
    collapses every belief with the bits of its own call, and a maximum is
    exact. The first run also steps alone, through ``marginal_mix`` and
    ``Symbol.apply``.
    """
    count, steps = len(runs), len(runs[0])
    specs = [[mg.MixSpec(mixture) for mixture in mixtures] for mixtures in runs]
    matrices = np.array([[spec.matrix for spec in row] for row in specs])
    symbols = [[jt.mixture_symbol(n, mixture, action="position") for mixture in mixtures] for mixtures in runs]
    b = np.zeros((count, math.factorial(n)))
    b[:, 0] = 1.0
    h = np.tile(mg.marginal_init(n), (count, 1, 1))
    beliefs = np.empty((count, steps) + b.shape[1:])
    marginals = np.empty((count, steps, n, n))
    alone_b, alone_h = b[0], h[0]
    mismatches = 0
    for t in range(steps):
        b = gather_stack([row[t].transition for row in symbols], b)
        h = mg.marginal_mix_stack(h, matrices[:, t])
        beliefs[:, t], marginals[:, t] = b, h
        alone_b, alone_h = symbols[0][t].apply(alone_b), mg.marginal_mix(alone_h, specs[0][t])
        mismatches += (alone_b.tobytes() != b[0].tobytes()) + (alone_h.tobytes() != h[0].tobytes())
    return np.abs(marginals - mg.joint_to_marginal(beliefs, n)).max(initial=0.0), mismatches


def check_sinkhorn(*, runs: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    # One draw fills the stack in the order of ``runs`` draws of one matrix.
    result = mg.sinkhorn_project_stack(rng.random((runs, 5, 5)) + 1e-3)
    unconverged = int(np.count_nonzero(~result.converged))
    # Measured from the returned matrices, not from their reported residuals.
    sum_error = max(
        np.abs(result.matrix.sum(axis=1) - 1.0).max(initial=0.0),
        np.abs(result.matrix.sum(axis=2) - 1.0).max(initial=0.0),
    )
    pinned = mg.sinkhorn_project(np.diag([1.0, 1.0, 0.5])).matrix
    identity_ok = np.allclose(pinned, np.eye(3), atol=1e-9)
    return CheckResult(
        "sinkhorn-projection",
        f"{runs} positive matrices: {unconverged} unconverged, row/column sums within "
        f"{sum_error:.2e} of 1; diagonal support -> identity {identity_ok}",
        {"unconverged": unconverged, "sum_error": sum_error, "pinned": pinned, "identity_ok": identity_ok},
        (("unconverged", "==", 0), ("sum_error", "<=", 1e-9), ("identity_ok", "==", True)),
    )


def check_kronecker(*, runs: int, seed: int) -> CheckResult:
    """The tracker's stacked steps, a random mix and then a random reveal,
    equal their one bilinear step D_l P_s H D_r + B in Kronecker form;
    folding P_s into the left factor makes one Kronecker product per
    instance. Each instance is drawn as it would be alone; those of one n in
    a block then step as one stack, each row with the bits of its own
    ``marginal_step`` calls and ``vectorized_step``, and the first of them
    also steps alone through ``marginal_step``."""
    rng = np.random.default_rng(seed)
    gap = 0.0
    mismatches = 0
    # An instance holds at most a 25 x 25 Kronecker product, 5 kB, and its
    # 5 x 5 factors, so a block of _BLOCK stays far below _BLOCK_BYTES.
    for first in range(0, runs, _BLOCK):
        drawn = []
        for _ in range(min(_BLOCK, runs - first)):
            n = int(rng.integers(2, 6))
            group = symmetric_group(n)
            h = rng.random((n, n))
            mix = mg.MixSpec(_random_mixture(rng, group, min(4, len(group))))
            drawn.append((h, mix, divmod(int(rng.integers(n * n)), n)))  # a uniform cell
        for n in sorted({len(h) for h, _, _ in drawn}):
            group = [run for run in drawn if len(run[0]) == n]
            h = np.array([run[0] for run in group])
            p_s = np.array([run[1].matrix for run in group])
            positions, elements = np.array([run[2] for run in group]).T
            mixed = mg.marginal_mix_stack(h, p_s)
            tracked = mg.marginal_reveal_stack(mixed, positions, elements)
            d_l, d_r, inject = mg.reveal_operators_stack(n, positions, elements)
            vectorized = mg.vectorized_step(h, np.matmul(d_l, p_s), d_r, inject)
            gap = np.maximum(gap, np.abs(tracked - vectorized).max())
            h0, mix, cell = group[0]
            alone = mg.marginal_step(h0, mix)
            mismatches += alone.tobytes() != mixed[0].tobytes()
            mismatches += mg.marginal_step(alone, mg.RevealSpec(*cell)).tobytes() != tracked[0].tobytes()
    return CheckResult(
        "kronecker-vectorization",
        f"{runs} marginal mix-then-reveal steps against their Kronecker form: max gap {gap:.2e}"
        + _per_row_note(mismatches),
        {"gap": gap, "per_row_mismatches": mismatches},
        (("gap", "<=", 1e-12), ("per_row_mismatches", "==", 0)),
    )


def check_householder_composition(length: int = 256, n: int = 8, *, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    steps = []
    cumulative = identity(n)
    for _ in range(length):
        i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
        steps.append(hh.swap_head(n, i, j))
        cumulative = compose(cumulative, transposition(n, i, j))
    tracked = hh.run_recurrence(steps, np.eye(n))
    gap = np.abs(tracked - to_matrix(cumulative)).max()
    # Each gate's one nontrivial eigenvalue is 1 - beta, on its key.
    min_eig = min(1.0 - step.beta for step in steps)
    return CheckResult(
        "householder-composition",
        f"{length} swaps in S_{n}: max deviation {gap:.2e}, min eig {min_eig}",
        {"gap": gap, "min_eig": min_eig, "has_negative": min_eig < 0.0},
        (("gap", "<=", 1e-12), ("min_eig", "==", -1.0), ("has_negative", "==", True)),
    )


def check_eigen_gate(*, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed)
    swaps = [hh.swap_head(8, 0, 1), hh.swap_head(8, 2, 3)]
    swap_min = min(1.0 - step.beta for step in swaps)
    capped = []
    for _ in range(64):
        key = rng.standard_normal(8)
        key /= np.linalg.norm(key)
        capped.append(hh.HouseholderStep(float(rng.uniform(0.0, 1.0)), key))
    capped_min = min(1.0 - step.beta for step in capped)
    det = float(np.linalg.det(hh.run_recurrence(capped, np.eye(8))))
    return CheckResult(
        "householder-eigen-gate",
        f"beta=2 min eig {swap_min}; capped min eig {capped_min:.3f}, "
        f"product det {det:.3e} (a swap needs det -1)",
        {
            "swap_min_eig": swap_min,
            "swap_has_negative": swap_min < 0.0,
            "capped_min_eig": capped_min,
            "capped_has_negative": capped_min < 0.0,
            "det": det,
        },
        (
            ("swap_min_eig", "==", -1.0),
            ("swap_has_negative", "==", True),
            ("capped_min_eig", ">=", 0.0),
            ("capped_has_negative", "==", False),
            ("det", ">=", -1e-12),
        ),
    )


def check_state_counts() -> CheckResult:
    counts = {
        "joint_n3": joint_discretization_count(3),
        "marginal_n10_k10": marginal_discretization_count(10, 10),
        "marginal_n2_k5": marginal_discretization_count(2, 5),
    }
    return CheckResult(
        "discretized-state-counts",
        "2**3! = 64, 10**81, 5**1 = 5",
        counts,
        (("joint_n3", "==", 64), ("marginal_n10_k10", "==", 10**81), ("marginal_n2_k5", "==", 5)),
    )


def check_trace_roundtrip(*, count: int, seed: int, max_commands: int = 40) -> CheckResult:
    """Random traces of 1..``max_commands`` commands reparse to the same
    events with no reveal disagreement; the first 500 regenerate to the
    export bytes of the traces the reparse pass generated; the curriculum
    runs through its four (length, spacing) stages."""
    rng = np.random.default_rng(seed)
    configs = [
        tr.TraceConfig(
            n_vars=int(rng.integers(2, 7)),
            n_commands=int(rng.integers(1, max_commands + 1)),
            reveal_spacing=int(rng.integers(1, 9)),
            command_kind=tr.ELEMENTARY_SWAP if rng.random() < 0.5 else tr.FULL_PERMUTATION,
            seed=int(rng.integers(0, 2**63)),
        )
        for _ in range(count)
    ]
    reparsed = True
    disagreements = 0
    first = []
    for config in configs:
        trace = tr.generate(config)
        parsed = tr.parse(tr.render(trace))
        reparsed = reparsed and parsed.events == trace.events
        disagreements += len(tr.execute(parsed.events).disagreements)
        if len(first) < 500:
            first.append(trace)

    def exported(traces) -> str:
        sink = io.StringIO()
        tr.export_dataset(traces, sink)
        return sink.getvalue()

    regenerated = exported(first) == exported(tr.generate(c) for c in configs[:500])
    stages = [(batch[0].n_commands, batch[0].reveal_spacing) for batch in tr.curriculum(stage_samples=1)]
    return CheckResult(
        "trace-roundtrip",
        f"{count} traces reparsed={reparsed}, reveal disagreements={disagreements}, "
        f"regenerated bytes identical={regenerated}, curriculum stages {stages}",
        {"reparsed": reparsed, "disagreements": disagreements, "regenerated": regenerated, "stages": stages},
        (
            ("reparsed", "==", True),
            ("disagreements", "==", 0),
            ("regenerated", "==", True),
            ("stages", "==", [(8, 1), (16, 2), (32, 4), (64, 8)]),
        ),
    )


def check_underflow_threshold(long_cycles: int = 1000) -> CheckResult:
    """Single-precision underflow of both trackers at cycle 127; gated
    resets every 8 cycles hold the norm at 2**-8 over ``long_cycles``."""
    joint_first = sc.run_and_report(
        sc.adversarial_joint_scenario(130), sc.SINGLE_PRECISION
    ).first_underflow_step
    marginal_first = sc.run_and_report(
        sc.adversarial_marginal_scenario(130), sc.SINGLE_PRECISION
    ).first_underflow_step
    reset_report = sc.run_and_report(
        sc.adversarial_joint_scenario(long_cycles, reset_every=8), sc.SINGLE_PRECISION
    )
    reset_floor = min(row.l1_norm for row in reset_report.rows)
    joint_cycle = None if joint_first is None else (joint_first + 1) // 2
    marginal_cycle = None if marginal_first is None else (marginal_first + 1) // 2
    return CheckResult(
        "underflow-threshold",
        f"joint underflow at cycle {joint_cycle}, marginal at {marginal_cycle}, "
        f"with 8-cycle resets none over {long_cycles} cycles (norm floor {reset_floor!r})",
        {
            "joint_underflow_step": joint_first,
            "marginal_underflow_step": marginal_first,
            "reset_underflow_step": reset_report.first_underflow_step,
            "reset_min_l1": reset_floor,
            "joint_underflow_cycle": joint_cycle,
            "marginal_underflow_cycle": marginal_cycle,
        },
        (
            ("joint_underflow_cycle", "==", 127),
            ("marginal_underflow_cycle", "==", 127),
            ("reset_underflow_step", "==", None),
            ("reset_min_l1", "==", 2.0 ** -min(8, long_cycles)),
        ),
    )


def run_all(*, runs: int, max_n: int, steps: int, trace_count: int, seed: int) -> list[CheckResult]:
    """Every check at ``verify``'s sizes: its flags hold the defaults of
    these keywords, and a size no flag sets is the check's own default."""
    return [
        check_absorbing_decay(),
        check_swap_reveal_decay(),
        check_noisy_swap_example(),
        check_hidden_swap_belief(),
        check_oracle_equivalence(runs=runs, max_m=max_n, steps=steps, seed=seed),
        check_marginal_bridge(runs=max(10, runs // 4), max_n=min(max_n, 4), steps=min(steps, 20), seed=seed + 1),
        check_sinkhorn(runs=runs, seed=seed + 2),
        check_kronecker(runs=runs, seed=seed + 3),
        check_householder_composition(seed=seed + 4),
        check_eigen_gate(seed=seed + 5),
        check_state_counts(),
        check_trace_roundtrip(count=trace_count, seed=seed + 6),
        check_underflow_threshold(),
    ]
