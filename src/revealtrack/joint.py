"""Unnormalized joint belief tracking and joint automata over arrangements.

The joint tracker defers the filter's normalization to decode time:

    h' = T @ (z * h),      decode(h) = h / ||h||_1

Each reveal multiplies the running ell-1 mass by the survival probability
s = ||z * b||_1 of the current belief b, so mass telescopes to the product
of survivals and can shrink exponentially. The state stores its message
as h * 2**exponent (Rabiner's scaled forward recursion, 1989, section
V.A): once the mass of h falls below 2**-512, ``joint_step`` scales h into
mass [1/2, 1) by a power of two, which rounds nothing. So a state that
never gets that low keeps the unscaled bits, and ``log_mass``, the natural
log of the mass summed from the ratio of each step's mass to the last,
stays finite after h alone would underflow.

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
from .perm import Mixture, Permutation, lex_indices, one_line_table


class MassUnderflowError(ArithmeticError):
    """The unnormalized state has zero mass; decoding is undefined."""


_RESCALE_BELOW = 2.0**-512  # far above the subnormals, so no entry that carries mass has lost bits


@dataclass(frozen=True)
class JointLinearState:
    """Unnormalized message h * 2**exponent. ``mass`` is ``h.sum()``, so
    the message's ell-1 mass is ``ldexp(mass, exponent)``; ``log_mass`` is
    the running natural log of that mass, -inf once h is the zero vector.
    Raises ValueError unless h is a vector whose every entry is real,
    finite and nonnegative (the zero vector is allowed) and the exponent is
    an int (a bool is not)."""

    h: np.ndarray
    log_mass: float
    exponent: int = 0
    mass: float = field(init=False)

    def __post_init__(self) -> None:
        if isinstance(self.exponent, bool) or not isinstance(self.exponent, int):
            raise ValueError(f"exponent {self.exponent!r} is not an int")
        h = np.asarray(self.h)
        if h.ndim != 1:
            raise ValueError(f"message must be a vector, got shape {h.shape}")
        if np.iscomplexobj(h):
            raise ValueError(f"message has complex dtype {h.dtype}; entries must be real")
        h = h.astype(float)
        bad = ~np.isfinite(h) | (h < 0)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"entry {i} is {float(h.flat[i])!r}; entries must be finite and nonnegative")
        h.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "mass", float(h.sum()))

    @classmethod
    def _adopt(cls, h: np.ndarray, log_mass: float, mass: float, exponent: int) -> JointLinearState:
        """A state that takes ownership of a fresh ``h`` summing to ``mass``,
        without the copy and the sum of the constructor."""
        h.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(h=h, log_mass=log_mass, exponent=exponent, mass=mass)
        return state


def joint_init(b0: np.ndarray) -> JointLinearState:
    """The state h = b0, checked as ``JointLinearState`` checks it."""
    state = JointLinearState(b0, -math.inf)
    return JointLinearState._adopt(state.h, math.log(state.mass), state.mass, 0) if state.mass > 0 else state


def joint_step(state: JointLinearState, a: Pfsa, symbol: int) -> JointLinearState:
    """One linear update h' = T @ (z * h); never renormalizes. Below a
    mass of 2**-512, h' is scaled into [1/2, 1) by a power of two that the
    exponent takes back, which rounds nothing.

    A state that has decayed to the zero vector is representable: the step
    returns it with log_mass = -inf instead of raising.
    """
    h = a.symbols[symbol].apply(state.h)
    before = state.mass
    after = float(np.add.reduce(h))
    if before > 0 and after > 0:
        log_mass = state.log_mass + math.log(after / before)
    else:
        log_mass = -math.inf
    if 0 < after < _RESCALE_BELOW:
        after, shift = math.frexp(after)
        np.ldexp(h, -shift, out=h)
        return JointLinearState._adopt(h, log_mass, after, state.exponent + shift)
    return JointLinearState._adopt(h, log_mass, after, state.exponent)


def joint_decode(state: JointLinearState) -> np.ndarray:
    """Normalized belief h / ||h||_1. Raises MassUnderflowError on zero mass."""
    if state.mass <= 0.0:
        raise MassUnderflowError("joint state mass is zero; cannot decode a belief")
    return state.h / state.mass


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
    # The Mixture has checked the weights, and each cached gather is a
    # permutation row, so the kernel takes both without checking them again.
    sources = np.array([_gather(action, g.mapping) for g, _ in mixture.components])
    sources.setflags(write=False)
    kernel = PermutationMixture._adopt(sources, mixture.weights)
    return Symbol(name, kernel, _all_states(math.factorial(n)))


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


def arrangement_automaton(n: int, symbols: Sequence[Symbol]) -> Pfsa:
    """Bundle arrangement symbols over n items into an automaton that starts
    at the identity arrangement, lex index 0. Raises ValueError unless
    every symbol has n! states."""
    m = math.factorial(n)
    for symbol in symbols:
        if symbol.m != m:
            raise ValueError(f"symbol {symbol.name!r} has {symbol.m} states, expected {n}! = {m}")
    return Pfsa(tuple(symbols), q0=0)
