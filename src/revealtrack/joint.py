"""Unnormalized joint belief tracking and joint automata over arrangements.

The joint tracker defers the filter's normalization to decode time:

    h' = T @ (z * h),      decode(h) = h / ||h||_1

Each reveal multiplies the running ell-1 mass by the survival probability
s = ||z * b||_1 of the current belief b, so mass telescopes to the product
of survivals and can shrink exponentially. ``log_mass`` carries the natural
log of that mass alongside h so diagnostics outlive h itself.

Arrangement automata: the states are the n! ways to place n distinct
elements on n positions, encoded as permutations c with
``c(element) = position`` and indexed lexicographically by one-line
notation (``perm.symmetric_group``). With that encoding the marginal of a
point belief at arrangement c is exactly ``perm.to_matrix(c)``. Group
elements act two ways:

- position action: the content of position p moves to position g(p)
  (c -> compose(c, g)); this matches row-mixing of marginal matrices.
- element action: element e trades places with element g(e)
  (c -> compose(g, c)); a "swap items 1 and 2 wherever they are" command.

Arrangement symbols store their kernels as ``PermutationMixture`` gathers
built from ``perm.one_line_table(n)``: a ``perm.Mixture`` of k group elements
costs k gathers of length n! per step, and a reveal is the identity gather.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

from .automaton import PermutationMixture, Pfsa, Symbol
from .perm import Mixture, Permutation, lex_index, lex_indices, one_line_table


class MassUnderflowError(ArithmeticError):
    """The unnormalized state has zero mass; decoding is undefined."""


@dataclass(frozen=True)
class JointLinearState:
    """Unnormalized message h, its ell-1 mass ``h.sum()``, and the running
    log of that mass."""

    h: np.ndarray
    log_mass: float
    mass: float = field(init=False)

    def __post_init__(self) -> None:
        h = np.asarray(self.h, dtype=float).copy()
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "mass", float(h.sum()))

    @classmethod
    def _adopt(cls, h: np.ndarray, log_mass: float, mass: float) -> JointLinearState:
        """A state that takes ownership of a fresh ``h`` summing to ``mass``,
        without the copy and the sum of the constructor."""
        h.setflags(write=False)
        state = object.__new__(cls)
        object.__setattr__(state, "h", h)
        object.__setattr__(state, "log_mass", log_mass)
        object.__setattr__(state, "mass", mass)
        return state


def joint_init(b0: np.ndarray) -> JointLinearState:
    b0 = np.asarray(b0, dtype=float)
    total = b0.sum()
    return JointLinearState(b0, math.log(total) if total > 0 else -math.inf)


def joint_step(state: JointLinearState, a: Pfsa, symbol: int) -> JointLinearState:
    """One linear update h' = T @ (z * h); never renormalizes.

    A state that has decayed to the zero vector is representable: the step
    returns it with log_mass = -inf instead of raising.
    """
    h = a.symbols[symbol].apply(state.h)
    before = state.mass
    after = float(h.sum())
    if before > 0 and after > 0:
        log_mass = state.log_mass + math.log(after / before)
    else:
        log_mass = -math.inf
    return JointLinearState._adopt(h, log_mass, after)


def joint_decode(state: JointLinearState) -> np.ndarray:
    """Normalized belief h / ||h||_1. Raises MassUnderflowError on zero mass."""
    if state.mass <= 0.0:
        raise MassUnderflowError("joint state mass is zero; cannot decode a belief")
    return state.h / state.mass


def survival(a: Pfsa, b: np.ndarray, symbol: int) -> float:
    """Belief mass consistent with the symbol's reveal, s = ||z * b||_1,
    for a belief vector b.

    Zero signals an observation inconsistent with the belief. The product
    with the float64 mask is float64 for any real b, and ``np.add.reduce``
    sums a 1-D array as ``.sum()`` does, without its Python wrapper.
    """
    return float(np.add.reduce(a.symbols[symbol].mask * b))


def gated_reset(state: JointLinearState, prior: np.ndarray) -> JointLinearState:
    """Annihilate history and inject a prior: h' = 0 * h + prior.

    With a one-hot prior this is the linear implementation of a full state
    reveal; with a uniform prior it re-inflates the tracker to full mass.
    """
    return joint_init(np.asarray(prior, dtype=float))


# For every arrangement c of the one-line table, the arrangement that the
# action of g moves onto c: e -> g^-1(c(e)) for the position action
# (c -> compose(c, g)) and e -> c(g^-1(e)) for the element action
# (c -> compose(g, c)).
_PULLBACKS = {
    "position": lambda table, g_inv: g_inv[table],
    "element": lambda table, g_inv: table[:, g_inv],
}


def mixture_symbol(
    n: int,
    mixture: Mixture | Sequence[tuple[Permutation, float]],
    action: str = "position",
    name: str = "mix",
) -> Symbol:
    """Transition-only symbol applying a convex mixture of group elements.

    ``action`` is "position" or "element" (see module docstring). The
    ``perm.Mixture`` (or bare pairs, through ``Mixture.of``) must act on ``n`` items.
    """
    if action not in _PULLBACKS:
        raise KeyError(action)
    mixture = Mixture.of(mixture)
    if mixture.n != n:
        raise ValueError(f"mixture components act on {mixture.n} items, expected {n}")
    sources = [_gather(action, g.mapping) for g, _ in mixture.components]
    return Symbol(name, PermutationMixture(sources, mixture.weights), _all_states(math.factorial(n)))


# Holds every element of S_2..S_4 under both actions; at n = 8 a full cache
# takes 64 gathers of 40320 indices, about 21 MB.
@lru_cache(maxsize=64)
def _gather(action: str, mapping: tuple[int, ...]) -> np.ndarray:
    """The read-only gather of group element ``mapping`` under ``action``."""
    sources = lex_indices(_PULLBACKS[action](one_line_table(len(mapping)), np.argsort(mapping)))
    sources.setflags(write=False)
    return sources


@lru_cache(maxsize=None)
def _all_states(m: int) -> frozenset[int]:
    return frozenset(range(m))


@lru_cache(maxsize=None)
def _identity_kernel(m: int) -> PermutationMixture:
    return PermutationMixture(np.arange(m)[None, :], [1.0])


def placement_reveal_symbol(n: int, position: int, element: int, name: str = "observe") -> Symbol:
    """Reveal-only symbol for the observation "position holds element"."""
    if not (0 <= position < n and 0 <= element < n):
        raise ValueError(f"placement ({position}, {element}) out of range for n={n}")
    table = one_line_table(n)
    keep = frozenset(np.flatnonzero(table[:, element] == position).tolist())
    return Symbol(name, _identity_kernel(len(table)), keep)


def arrangement_automaton(n: int, symbols: Sequence[Symbol], q0: Permutation | None = None) -> Pfsa:
    """Bundle arrangement symbols into an automaton starting at ``q0``
    (identity arrangement by default, which is lex index 0)."""
    return Pfsa(tuple(symbols), q0=lex_index(q0) if q0 is not None else 0)
