"""Prebuilt automata, decay scenarios, and the per-step decay report.

The two adversarial constructions:

- ``adversarial_joint_scenario``: a 3-state automaton where a mixing symbol
  sends states 1 and 2 to the absorbing state 0 with probability 1/2 each
  (staying put otherwise) and a reveal keeps {1, 2}. Starting from mass
  split evenly over {1, 2}, every mix/reveal cycle halves the unnormalized
  mass while the decoded belief returns to the same two-point distribution,
  so the deferred-normalization tracker decays as 2^-t.

- ``adversarial_marginal_scenario``: over three items, alternate a 50/50
  swap of positions 1 and 2 with the reveal "position 1 holds element 1".
  The reveal replenishes entry (1, 1) but the never-revealed entry (2, 2)
  halves every cycle.

``run_and_report`` replays a scenario and records one row per step. Its
loop only steps the trackers and stores each state in a (steps, m) array
(n*n columns for a marginal run); the ell-1 norm and smallest-nonzero
columns, and the marginal run's exact floor, come from that stored
trajectory in one vectorized pass afterwards. With a ``FloatGrid`` the
reported tracker stores every value rounded to a reduced significand with
flush-to-zero below the smallest normal magnitude 2**min_exp. A joint
run steps one ``joint.JointLinearState`` beside the rounded tracker, and
that state gives the exact columns: the survival is its step's mass
ratio and the log2 norm is ``exponent + log2(mass)``, so the diagnostic
outlives both the rounded tracker and float64. Without a grid the reported
tracker is that state's ``h`` until its first rescale (a reset restores
it), so each symbol is applied once there. The reported first
underflow step is the first step whose exact
decay quantity (the ell-1 mass for joint runs, the smallest nonzero entry
for marginal runs) drops below 2**min_exp; the rounded tracker's entries
hit hard zero around the same point, visible in the row values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple, Union

import numpy as np

from .automaton import InconsistentObservationError, Pfsa, reveal_only, transition_only
from .joint import JointLinearState, joint_decode, joint_init, joint_step, mixture_symbol, placement_reveal_symbol
from .marginal import MixSpec, RevealSpec, marginal_init, marginal_step
from .perm import Mixture, identity, transposition

RESET = "reset"


@dataclass(frozen=True)
class FloatGrid:
    """A reduced float format: ``sig_bits`` significand bits, round to
    nearest, and hard flush-to-zero below 2**min_exp (no subnormals).
    Raises ValueError unless ``sig_bits`` is an int (a bool is not) in
    [1, 53] and ``min_exp`` an int in [-1022, 1023]: then 2**min_exp is a
    float64 normal, so float64 holds every value the grid keeps, and an
    exact float64 quantity crosses 2**min_exp before it loses bits."""

    sig_bits: int
    min_exp: int
    # 2**sig_bits and 2**min_exp, taken once.
    _scale: float = field(init=False, repr=False, compare=False)
    min_normal: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, low, high in (("sig_bits", 1, 53), ("min_exp", -1022, 1023)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
                raise ValueError(f"{name} {value!r} is not an int in [{low}, {high}]")
        object.__setattr__(self, "_scale", 2.0**self.sig_bits)
        object.__setattr__(self, "min_normal", 2.0**self.min_exp)

    def round_array(self, x: np.ndarray) -> np.ndarray:
        """A fresh float64 array of ``x`` (one or more dimensions) on the
        grid: each significand rounded to ``sig_bits`` bits, ties to even,
        then every magnitude below 2**min_exp flushed to +0.0. Works in
        the significand array that ``frexp`` returns."""
        out, exp = np.frexp(np.asarray(x, dtype=float))
        out *= self._scale
        np.rint(out, out=out)
        out /= self._scale
        np.ldexp(out, exp, out=out)
        out[np.abs(out) < self.min_normal] = 0.0
        return out


SINGLE_PRECISION = FloatGrid(sig_bits=24, min_exp=-126)


@dataclass(frozen=True)
class JointScenario:
    """A joint-tracker run: automaton, initial unnormalized state, and a
    step list of symbol indices with optional ``RESET`` markers."""

    automaton: Pfsa
    initial: np.ndarray
    steps: tuple[Union[int, str], ...]

    def __post_init__(self) -> None:
        initial = np.asarray(self.initial, dtype=float).copy()
        initial.setflags(write=False)
        object.__setattr__(self, "initial", initial)


@dataclass(frozen=True)
class MarginalScenario:
    """A marginal-tracker run from the identity state."""

    n: int
    steps: tuple[Union[MixSpec, RevealSpec], ...]


def hidden_swap_automaton() -> Pfsa:
    """Two arrangements of a pair under an unobserved conditional swap.

    The ``swap`` symbol exchanges the pair with probability 1/2 and reveals
    nothing; the ``check`` symbol prints the first slot and is only
    consistent with the untouched arrangement (state 0). Starting certain
    of state 0, the belief diffuses to [1/2, 1/2] under ``swap`` and
    collapses back to [1, 0] when ``check`` is observed.
    """
    swap = transition_only(2, [[0.5, 0.5], [0.5, 0.5]], name="swap")
    check = reveal_only(2, {0}, name="check")
    return Pfsa((swap, check), q0=0)


def absorbing_automaton() -> Pfsa:
    """Three states; ``mix`` drains states 1 and 2 into the absorbing
    state 0 with probability 1/2, and ``keep`` reveals {1, 2}."""
    t_mix = np.array(
        [
            [1.0, 0.5, 0.5],
            [0.0, 0.5, 0.0],
            [0.0, 0.0, 0.5],
        ]
    )
    mix = transition_only(3, t_mix, name="mix")
    keep = reveal_only(3, {1, 2}, name="reveal")
    return Pfsa((mix, keep), q0=1)


def adversarial_joint_scenario(cycles: int, reset_every: int | None = None) -> JointScenario:
    """``cycles`` mix/reveal pairs on the absorbing automaton.

    The initial unnormalized state splits mass evenly over states {1, 2}
    (ell-1 norm 1); after t cycles the norm is exactly 2**-t while the
    decoded belief after every reveal is [0, 1/2, 1/2]. With
    ``reset_every=k`` a gated reset (re-inflating the tracker with its own
    decoded belief, the norm-1 prior a full reveal supplies) is inserted
    after every k-th cycle, bounding the norm below by 2**-k.
    """
    if cycles < 0:
        raise ValueError("cycles must be >= 0")
    if reset_every is not None and reset_every < 1:
        raise ValueError("reset_every must be >= 1")
    a = absorbing_automaton()
    cycle_steps = (a.symbol_index("mix"), a.symbol_index("reveal"))
    steps: list[Union[int, str]] = []
    for cycle in range(1, cycles + 1):
        steps.extend(cycle_steps)
        if reset_every is not None and cycle % reset_every == 0:
            steps.append(RESET)
    return JointScenario(a, np.array([0.0, 0.5, 0.5]), tuple(steps))


def adversarial_marginal_scenario(cycles: int) -> MarginalScenario:
    """``cycles`` alternations of a 50/50 swap of positions 1 and 2 with
    the reveal "position 1 holds element 1" over three items.

    The smallest nonzero entry after t cycles is exactly 2**-t.
    """
    if cycles < 0:
        raise ValueError("cycles must be >= 0")
    mix = MixSpec(Mixture(((identity(3), 0.5), (transposition(3, 1, 2), 0.5))))
    reveal = RevealSpec(position=1, element=1)
    steps: list[Union[MixSpec, RevealSpec]] = []
    for _ in range(cycles):
        steps.extend((mix, reveal))
    return MarginalScenario(3, tuple(steps))


def dfa_scenario(steps: int) -> JointScenario:
    """Deterministic regime: permutation kernels, vacuous reveals, one-hot
    start. The tracker's norm stays exactly 1 forever."""
    if steps < 0:
        raise ValueError("steps must be >= 0")
    swap01 = transition_only(3, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], name="swap01")
    rotate = transition_only(3, [[0, 0, 1], [1, 0, 0], [0, 1, 0]], name="rotate")
    a = Pfsa((swap01, rotate), q0=0)
    initial = np.zeros(3)
    initial[a.q0] = 1.0
    return JointScenario(a, initial, tuple(i % 2 for i in range(steps)))


def noisy_swap_s3() -> Pfsa:
    """Six arrangements of three items; a commanded swap of items 1 and 2
    slips to a swap of items 1 and 3 half the time, and an observation pins
    "position 0 holds element 2"."""
    fuzzy = mixture_symbol(
        3,
        Mixture(((transposition(3, 0, 1), 0.5), (transposition(3, 0, 2), 0.5))),
        action="element",
        name="fuzzy_swap",
    )
    observe = placement_reveal_symbol(3, position=0, element=2, name="observe")
    return Pfsa((fuzzy, observe), q0=0)


class DecayRow(NamedTuple):
    step: int
    op: str
    l1_norm: float
    survival: float | None
    min_nonzero: float | None
    log2_norm: float


@dataclass(frozen=True)
class DecayReport:
    rows: tuple[DecayRow, ...]
    first_underflow_step: int | None

    def to_csv(self, sink) -> None:
        if isinstance(sink, (str, os.PathLike)):
            with open(sink, "w", encoding="utf-8") as fh:
                self.to_csv(fh)
            return
        lines = ["step,op,l1_norm,survival,min_nonzero,log2_norm\n"]
        for step, op, l1_norm, surv, floor, log2_norm in self.rows:
            surv = "" if surv is None else repr(surv)
            floor = "" if floor is None else repr(floor)
            lines.append(f"{step},{op},{l1_norm!r},{surv},{floor},{log2_norm!r}\n")
        sink.write("".join(lines))


def _min_nonzero(states: np.ndarray) -> np.ndarray:
    """The smallest positive entry of each row of ``states``; +inf where a
    row has none."""
    return np.min(states, axis=1, initial=np.inf, where=states > 0)


def _rows(
    states: np.ndarray,
    l1_norms: list[float],
    labels: list[str],
    survivals: list[float | None],
    log2_norms: list[float],
) -> tuple[DecayRow, ...]:
    """One row per stored state; the floor column comes from ``states``."""
    floors = _min_nonzero(states).tolist()
    has_floor = (states > 0).any(axis=1).tolist()
    floors = [floor if ok else None for floor, ok in zip(floors, has_floor)]
    return tuple(
        map(DecayRow, range(1, len(labels) + 1), labels, l1_norms, survivals, floors, log2_norms)
    )


def run_and_report(
    scenario: Union[JointScenario, MarginalScenario], grid: FloatGrid | None = None
) -> DecayReport:
    """Replay a scenario, recording norms, survivals, and underflow.

    Rows describe the tracker as stored: rounded to ``grid`` after every
    step when a grid is given, plain float64 otherwise. The underflow step
    compares the exact decay quantity against the grid's smallest normal
    magnitude (see module docstring).
    """
    if isinstance(scenario, JointScenario):
        return _run_joint(scenario, grid)
    if isinstance(scenario, MarginalScenario):
        return _run_marginal(scenario, grid)
    raise TypeError(f"unknown scenario type {type(scenario)!r}")


def _run_joint(scenario: JointScenario, grid: FloatGrid | None) -> DecayReport:
    a = scenario.automaton
    state = joint_init(scenario.initial)
    if state.mass <= 0:
        raise ValueError("scenario initial state has no mass")
    tracked = grid.round_array(scenario.initial) if grid else scenario.initial

    stored, labels, survivals, log2_norms = [], [], [], []
    first_underflow = None
    for index, op in enumerate(scenario.steps):
        if op == RESET:
            # Gated reset: history annihilated, prior injected at full mass.
            state = JointLinearState(joint_decode(state), 0.0)
            tracked = grid.round_array(state.h) if grid else state.h
            labels.append("reset")
            survivals.append(None)
        else:
            before, exponent = state.mass, state.exponent
            state = joint_step(state, a, int(op))
            sym = a.symbols[int(op)]
            if state.mass <= 0.0:
                raise InconsistentObservationError(
                    f"step {index + 1}: symbol {sym.name!r} is inconsistent"
                )
            if grid:
                tracked = grid.round_array(sym.apply(tracked))
            elif state.exponent == 0:
                tracked = state.h  # the bits of sym.apply(tracked) until a rescale
            else:
                tracked = sym.apply(tracked)
            labels.append(sym.name)
            survivals.append(math.ldexp(state.mass / before, state.exponent - exponent))
        stored.append(tracked)
        log2_norms.append(state.exponent + math.log2(state.mass))
        if grid and first_underflow is None and log2_norms[-1] < grid.min_exp:
            first_underflow = index + 1
    # No step writes to an array once stored, so each row is its step's state.
    states = np.array(stored).reshape(len(stored), a.m)
    rows = _rows(states, states.sum(axis=1).tolist(), labels, survivals, log2_norms)
    return DecayReport(rows, first_underflow)


def _run_marginal(scenario: MarginalScenario, grid: FloatGrid | None) -> DecayReport:
    n, count = scenario.n, len(scenario.steps)
    h = marginal_init(n)
    tracked = grid.round_array(h) if grid else None

    exact = np.empty((count, n, n))
    stored = np.empty((count, n, n)) if grid else exact
    for index, op in enumerate(scenario.steps):
        h = marginal_step(h, op)
        exact[index] = h
        if grid:
            tracked = grid.round_array(marginal_step(tracked, op))
            stored[index] = tracked
    exact = exact.reshape(count, n * n)
    stored = stored.reshape(count, n * n)

    l1_norms = np.abs(stored).sum(axis=1).tolist()
    log2_norms = [math.log2(l1) if l1 > 0 else -math.inf for l1 in l1_norms]
    labels = [op.label for op in scenario.steps]
    rows = _rows(stored, l1_norms, labels, [None] * count, log2_norms)

    first_underflow = None
    if grid:
        # Rows without a positive entry have an infinite floor and never count.
        below = np.flatnonzero(_min_nonzero(exact) < grid.min_normal)
        first_underflow = int(below[0]) + 1 if below.size else None
    return DecayReport(rows, first_underflow)
