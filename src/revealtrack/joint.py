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
log of the mass the state carries, read from h's sum and the exponent,
stays finite after h alone would underflow.

``joint_step_stack`` is the stacked form of ``joint_step`` for dense
kernels: T messages, each with its own exponent, step at once through a
``(T, m, m)`` stack of folded kernels (``Symbol.folded_kernel``) in one
``np.matmul``, which gives each row the bits of its own ``joint_step``.
Both rescale by the one rule of ``_rescale``.

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

from .automaton import PermutationMixture, Pfsa, Symbol, all_states
from .perm import Mixture, Permutation, lex_indices, one_line_table


class MassUnderflowError(ArithmeticError):
    """The unnormalized state has zero mass; decoding is undefined."""


_RESCALE_BELOW = 2.0**-512  # far above the subnormals, so no entry that carries mass has lost bits


@dataclass(frozen=True)
class JointLinearState:
    """Unnormalized message h * 2**exponent. ``mass`` is ``h.sum()``, so
    the message's ell-1 mass is ``ldexp(mass, exponent)``, and ``log_mass``
    is its natural log, -inf once h is the zero vector. Raises ValueError
    unless h is a vector whose every entry is real, finite and nonnegative
    (the zero vector is allowed) and the exponent is an int (a bool is
    not)."""

    h: np.ndarray
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

    @property
    def log_mass(self) -> float:
        """The natural log of the carried mass ``ldexp(mass, exponent)``."""
        return log_mass(self.mass, self.exponent)

    @classmethod
    def _adopt(cls, h: np.ndarray, mass: float, exponent: int) -> JointLinearState:
        """A state that takes ownership of a fresh ``h`` summing to ``mass``,
        without the copy and the sum of the constructor."""
        h.setflags(write=False)
        state = object.__new__(cls)
        state.__dict__.update(h=h, exponent=exponent, mass=mass)
        return state


def log_mass(mass: float, exponent: int) -> float:
    """The natural log of ``ldexp(mass, exponent)`` for a state's ``mass``
    and ``exponent``, read without forming the product: -inf at zero mass."""
    return math.log(mass) + exponent * math.log(2) if mass > 0 else -math.inf


def _rescale(h: np.ndarray, mass: np.ndarray, exponent: np.ndarray) -> None:
    """The rescale rule, in place on a ``(T, m)`` stack of messages with
    their row masses and int exponents: each row whose mass lies in
    (0, 2**-512) is scaled into mass [1/2, 1) by the power of two that
    ``frexp`` reads off its mass, and its exponent takes the power back.
    Scaling by a power of two rounds nothing."""
    low = np.flatnonzero((mass > 0.0) & (mass < _RESCALE_BELOW))
    if len(low):
        mass[low], shift = np.frexp(mass[low])
        h[low] = np.ldexp(h[low], -shift[:, None])
        exponent[low] += shift


def joint_init(b0: np.ndarray) -> JointLinearState:
    """The state h = b0, checked as ``JointLinearState`` checks it."""
    return JointLinearState(b0)


def joint_step(state: JointLinearState, a: Pfsa, symbol: int) -> JointLinearState:
    """One linear update h' = T @ (z * h); never renormalizes. Below a
    mass of 2**-512, h' is scaled into [1/2, 1) by a power of two that the
    exponent takes back, which rounds nothing.

    A state that has decayed to the zero vector is representable: the step
    returns it, with log_mass -inf, instead of raising.
    """
    h = a.symbols[symbol].apply(state.h)
    mass = float(np.add.reduce(h))
    exponent = state.exponent
    if mass < _RESCALE_BELOW:  # rare: _rescale, as a stack of one, keeps a zero mass as it is
        masses, exponents = np.array([mass]), np.array([exponent])
        _rescale(h[None], masses, exponents)
        mass, exponent = float(masses[0]), int(exponents[0])
    return JointLinearState._adopt(h, mass, exponent)


def joint_step_stack(
    h: np.ndarray, exponent: np.ndarray, kernels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``joint_step`` of T messages at once, each through its own dense
    kernel: row r steps ``h[r] * 2**exponent[r]`` through ``kernels[r]``,
    a folded kernel (``Symbol.folded_kernel``) of a ``(T, m, m)`` stack.

    Returns the new ``(T, m)`` messages, their ``(T,)`` masses and int
    exponents, fresh arrays with the bits of ``joint_step`` row by row; a
    row may hold the zero vector. The inputs are not modified.
    """
    h = np.matmul(kernels, np.ascontiguousarray(h, dtype=float)[..., None])[..., 0]
    mass = np.add.reduce(h, axis=-1)
    exponent = np.array(exponent, dtype=np.int64)
    _rescale(h, mass, exponent)
    return h, mass, exponent


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
    return Symbol(name, kernel, all_states(math.factorial(n)))


# Holds every element of S_2..S_4 under both actions; at n = 8 a full cache
# takes 64 gathers of 40320 indices, about 21 MB.
@lru_cache(maxsize=64)
def _gather(action: str, mapping: tuple[int, ...]) -> np.ndarray:
    """The read-only gather of group element ``mapping`` under ``action``."""
    sources = lex_indices(_PULLBACKS[action](one_line_table(len(mapping)), np.argsort(mapping)))
    sources.setflags(write=False)
    return sources


@lru_cache(maxsize=None)
def _identity_kernel(m: int) -> PermutationMixture:
    return PermutationMixture(np.arange(m)[None, :], [1.0])


def placement_reveal_symbol(n: int, position: int, element: int, name: str = "observe") -> Symbol:
    """Reveal-only symbol for the observation "position holds element".
    Raises ValueError unless both are ints or numpy integers (a bool is
    not) in range(n)."""
    # A bool or a float would index the table as a mask or not at all.
    for cell in (position, element):
        if isinstance(cell, bool) or not isinstance(cell, (int, np.integer)):
            raise ValueError(f"placement ({position!r}, {element!r}) is not two integers")
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
