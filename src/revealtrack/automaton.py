"""Probabilistic finite-state automata with state reveals.

An automaton has m states, an alphabet of symbols, and per symbol:

- a column-stochastic transition matrix ``T`` with
  ``T[i, j] = P(next state = i | current state = j)``, and
- a nonempty reveal set ``rho``: the environment may only emit the symbol
  while the true state lies in ``rho``, so observing the symbol prunes every
  state outside ``rho`` from the belief.

Beliefs are plain length-m numpy vectors on the probability simplex. The
exact filtering update for a symbol is

    b' = f(T @ (z * b)),   f(x) = x / ||x||_1

where ``z`` is the 0/1 diagonal mask of the reveal set. A symbol with
``rho`` equal to the whole state set is transition-only (the reveal is
vacuous); a symbol whose ``T`` is the identity is reveal-only (the state
does not move).

An automaton is valid when built, and nothing checks it again. A
``PermutationMixture`` raises ``ValueError`` unless its weights are finite,
nonnegative and sum to 1 within 1e-12 and each index row is a permutation
of range(m). A ``Symbol`` raises unless its reveal set is a nonempty subset
of range(m) and a dense kernel is finite and nonnegative with every column
summing to 1 within 1e-12; a ``Pfsa`` raises unless 0 <= q0 < m. So every
belief update starts from a finite column-stochastic kernel.

A kernel is stored in one of two forms. General kernels are dense m-by-m
arrays. A convex mixture of k permutation matrices, such as a shuffle of
arrangements, is a ``PermutationMixture``: k index gathers and k weights,
O(k m) in memory and per step instead of O(m^2). The text format always
holds the dense matrix.

``Symbol.apply`` runs the step T @ (z * b) unnormalized, in a form chosen
once per symbol from its structure: a dense kernel keeps T with z folded
into its columns and does one product; a mixture that reveals every state
gathers with no mask product; the identity gather of a reveal-only mixture
is the mask product alone; any other symbol prunes, then steps. Since z
holds only 0 and 1, each form gives the bits of T @ (z * b): a term
(T_ij z_j) b_j equals T_ij (z_j b_j), sign of zero included, and the
terms are summed in the same order.

``belief_update_stack`` is the stacked form of ``belief_update`` for dense
kernels: it steps T beliefs at once, each through its own kernel from a
``(T, m, m)`` stack of ``Symbol.folded_kernel`` arrays, in one
``np.matmul``. A batched product of ``(T, m, m)`` by ``(T, m, 1)`` sums
each row's terms as the single matrix-vector product does, so row r gets
the bits of ``belief_update`` with row r's symbol; ``tests/test_joint.py``
pins this against the per-row path.
"""

from __future__ import annotations

import bisect
import math
import os
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import lru_cache, partial

import numpy as np

_SIMPLEX_ATOL = 1e-12
_NAME_RE = re.compile(r"^[A-Za-z0-9_\-]+$")


class InconsistentObservationError(ValueError):
    """A reveal carried zero belief mass: the observed symbol is impossible
    under the current belief, so the normalized update is undefined."""


class DeadEndError(RuntimeError):
    """No symbol is consistent with the current state during sampling."""


class AutomatonFormatError(ValueError):
    """The textual automaton document is malformed."""


def _simplex_error(x: np.ndarray, what: str) -> str | None:
    """Why ``x``, a vector or a matrix read by columns, is not a probability
    distribution, or None when it is one: the entries must be finite and
    nonnegative, and each sum within ``_SIMPLEX_ATOL`` of 1.

    The passing path is three reductions for a vector and four for a
    matrix; the message is built only on failure. NaN fails both entry
    bounds, and entries at most 1 keep the sums from overflowing. Starting
    both bounds at 0 changes nothing for a nonempty x and lets an empty one
    reach its sum, 0.
    """
    lo, hi = np.minimum.reduce(x, axis=None, initial=0.0), np.maximum.reduce(x, axis=None, initial=0.0)
    if lo >= 0.0 and hi <= 1.0 + _SIMPLEX_ATOL:
        off = abs(np.add.reduce(x, axis=0) - 1.0)  # a float for a vector
        if x.ndim == 1:
            return None if off <= _SIMPLEX_ATOL else f"{what} sums to {float(x.sum())!r}, expected 1"
        if np.maximum.reduce(off) <= _SIMPLEX_ATOL:
            return None
        j = int(off.argmax())
        return f"{what} column {j} sums to {float(x[:, j].sum())!r}, expected 1"
    if not np.isfinite(x).all():
        return f"{what} has non-finite entries"
    return f"{what} has {'negative entries' if lo < 0.0 else 'entries above 1'}"


class PermutationMixture:
    """The kernel T = sum_g weights[g] * P_g with k permutation matrices P_g,
    stored as gathers: row g of the read-only (k, m) array ``sources`` holds,
    for each state i, the state P_g moves to i, so
    ``(P_g @ v)[i] = v[sources[g, i]]``.

    ``T @ v`` sums the k gathers in component order, and ``np.asarray``
    builds the dense matrix.
    """

    # Keeps numpy operators from densifying the kernel behind its back:
    # ``array == kernel`` defers to ``__eq__`` and ``array @ kernel`` raises.
    __array_ufunc__ = None

    def __init__(self, sources, weights) -> None:
        sources = np.asarray(sources)
        weights = np.array(weights, dtype=float)
        if sources.ndim != 2 or not np.issubdtype(sources.dtype, np.integer):
            raise ValueError(f"sources must be a (k, m) integer array, got {sources.shape}")
        if weights.shape != sources.shape[:1] or not len(weights):
            raise ValueError(f"{sources.shape[0]} index rows but weights of shape {weights.shape}")
        bad = _simplex_error(weights, "mixture weight vector")
        if bad:
            raise ValueError(bad)
        sources = sources.astype(np.intp)
        m = sources.shape[1]
        # Each row is a permutation when it sorts to 0, 1, ..., m - 1.
        rows = np.sort(sources, axis=1)
        if rows.tobytes() != np.arange(m, dtype=np.intp).tobytes() * len(rows):
            g = (rows != np.arange(m)).any(axis=1).argmax()
            raise ValueError(f"index row {g} is not a permutation of range({m})")
        sources.setflags(write=False)
        weights.setflags(write=False)
        self._hold(sources, weights)

    @classmethod
    def _adopt(cls, sources: np.ndarray, weights: np.ndarray) -> PermutationMixture:
        """A kernel that takes read-only ``sources`` (intp, each row a
        permutation) and ``weights`` (on the simplex) as they are, without
        the copies and checks of the constructor: the caller has checked
        both."""
        kernel = object.__new__(cls)
        kernel._hold(sources, weights)
        return kernel

    def _hold(self, sources: np.ndarray, weights: np.ndarray) -> None:
        self.sources = sources
        self.weights = weights
        # (weight, index row) pairs as Python floats and row views: the
        # per-step loop then does no numpy indexing of its own.
        self._terms = tuple(zip(weights.tolist(), sources))

    @property
    def shape(self) -> tuple[int, int]:
        m = self.sources.shape[1]
        return (m, m)

    @property
    def nbytes(self) -> int:
        return self.sources.nbytes + self.weights.nbytes

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        (w, src), *rest = self._terms
        out = w * v[src]
        for w, src in rest:
            out += w * v[src]
        return out

    def column(self, j: int) -> np.ndarray:
        """Column j of the dense matrix: the distribution of the next state
        from state j, each entry summed in component order."""
        col = np.zeros(self.shape[0])
        for w, src in self._terms:
            col[src == j] += w
        return col

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        m = self.shape[0]
        t = np.zeros((m, m))
        for w, src in self._terms:
            t[np.arange(m), src] += w
        return t if dtype is None else t.astype(dtype)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PermutationMixture)
            and np.array_equal(self.sources, other.sources)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:
        return hash((self.sources.tobytes(), self.weights.tobytes()))

    def __repr__(self) -> str:
        return f"PermutationMixture(k={len(self.weights)}, m={self.shape[0]})"


def _forward_step(
    t: np.ndarray | PermutationMixture, mask: np.ndarray, reveals_all: bool
) -> Callable[[np.ndarray], np.ndarray]:
    """The function v -> t @ (mask * v), in the cheapest form that gives
    its bits (see the module docstring); ``reveals_all`` says that ``mask``
    is all ones, and a dense ``t`` comes with the mask already folded in.

    Each form takes v as ``mask * v`` would: a dense product gets it
    contiguous, since numpy sums a matrix-vector product over a reversed or
    broadcast view in another order, and the gathers get it as float64.
    """
    if not isinstance(t, PermutationMixture):
        return partial(_dense_step, t)
    if reveals_all:
        return partial(_gather_step, t)
    (w, src), *rest = t._terms
    if not rest and w == 1.0 and np.array_equal(src, np.arange(len(src))):
        return mask.__mul__
    return partial(_pruned_step, t, mask)


# The steps at module level, so that a symbol pickles.
def _dense_step(kernel: np.ndarray, v: np.ndarray) -> np.ndarray:
    return kernel @ np.ascontiguousarray(v)


def _gather_step(t: PermutationMixture, v: np.ndarray) -> np.ndarray:
    return t @ np.asarray(v, dtype=float)


def _pruned_step(t: PermutationMixture, mask: np.ndarray, v: np.ndarray) -> np.ndarray:
    return t @ (mask * v)


@dataclass(frozen=True)
class Symbol:
    """One input symbol: a transition kernel plus a reveal set, both checked
    when the symbol is built (see the module docstring).

    The kernel is a ``PermutationMixture`` when one is given and a dense
    read-only array otherwise. ``apply`` runs a step chosen once, at
    construction, from that structure: a dense kernel with the reveal mask
    folded into its columns, a full-reveal mixture's gathers with no mask
    product, the mask product alone for the identity gather, and otherwise
    T @ (z * v). As z holds only 0 and 1, each gives the bits of
    T @ (z * v).

    A dense kernel's folded form T·diag(z) is ``folded_kernel``, read-only,
    so that a caller can stack the kernels of many symbols for
    ``belief_update_stack`` without folding them again; it is None for a
    ``PermutationMixture``. A symbol given ``all_states(m)`` itself takes a
    shared read-only all-ones mask without scanning the set again.
    """

    name: str
    transition: np.ndarray | PermutationMixture  # (m, m), column-stochastic
    reveal: frozenset[int]  # nonempty, inside range(m)
    # 0/1 diagonal of the reveal matrix.
    mask: np.ndarray = field(init=False, repr=False, compare=False)
    folded_kernel: np.ndarray | None = field(init=False, repr=False, compare=False)
    _step: Callable[[np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        t = self.transition
        if not isinstance(t, PermutationMixture):
            t = np.asarray(t, dtype=float)
            if t.ndim != 2 or t.shape[0] != t.shape[1]:
                raise ValueError(f"transition matrix must be square, got {t.shape}")
            t = t.copy()
            t.setflags(write=False)
            object.__setattr__(self, "transition", t)
        if not _NAME_RE.match(self.name):
            raise ValueError(f"symbol name {self.name!r} must match {_NAME_RE.pattern}")
        m = t.shape[0]
        reveal = self.reveal
        everything, ones = _full_reveal(m)
        if reveal is everything:  # built here from range(m): nothing to scan
            mask = ones
        else:
            # A frozenset of ints is kept as given; checking the element
            # types costs about a quarter of rebuilding the set.
            if type(reveal) is not frozenset or not set(map(type, reveal)) <= {int}:
                reveal = frozenset(int(q) for q in reveal)
                object.__setattr__(self, "reveal", reveal)
            if not reveal:
                raise ValueError(f"symbol {self.name!r}: reveal set is empty")
            if min(reveal) < 0 or max(reveal) >= m:
                far = min(reveal) if min(reveal) < 0 else max(reveal)
                raise ValueError(f"symbol {self.name!r}: reveals state {far}, outside range({m})")
            mask = np.zeros(m)
            mask[np.fromiter(reveal, np.intp, len(reveal))] = 1.0
            mask.setflags(write=False)
        reveals_all = len(reveal) == m
        folded = None
        if isinstance(t, np.ndarray):
            bad = _simplex_error(t, "transition matrix")
            if bad:
                raise ValueError(f"symbol {self.name!r}: {bad}")
            folded = t if reveals_all else t * mask
            folded.setflags(write=False)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "folded_kernel", folded)
        object.__setattr__(self, "_step", _forward_step(t if folded is None else folded, mask, reveals_all))

    @property
    def m(self) -> int:
        return self.transition.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        """The unnormalized forward step T @ (z * v): prune to the reveal
        set, then push through the kernel. Always a fresh array."""
        return self._step(v)

    def column(self, state: int) -> np.ndarray:
        """Column ``state`` of the kernel: the next-state distribution."""
        t = self.transition
        return t.column(state) if isinstance(t, PermutationMixture) else t[:, state]

    def __eq__(self, other) -> bool:
        """Equal names, reveal sets and kernels; a kernel never equals one
        stored in the other form."""
        if not isinstance(other, Symbol):
            return NotImplemented
        t, u = self.transition, other.transition
        if isinstance(t, PermutationMixture):
            same_kernel = t == u
        else:
            same_kernel = isinstance(u, np.ndarray) and np.array_equal(t, u)
        return self.name == other.name and self.reveal == other.reveal and same_kernel

    def __hash__(self) -> int:
        t = self.transition
        key = t if isinstance(t, PermutationMixture) else t.tobytes()
        return hash((self.name, self.reveal, key))


@dataclass(frozen=True)
class Pfsa:
    """An immutable automaton: symbols with unique names over one state
    count m, plus the initial state index q0 in range(m)."""

    symbols: tuple[Symbol, ...]
    q0: int

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("automaton needs at least one symbol")
        sizes = {s.m for s in self.symbols}
        if len(sizes) != 1:
            raise ValueError(f"symbols disagree on state count: {sorted(sizes)}")
        names = [s.name for s in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("symbol names must be unique")
        if not 0 <= self.q0 < self.m:
            raise ValueError(f"q0={self.q0} out of range for m={self.m}")

    @property
    def m(self) -> int:
        return self.symbols[0].m

    def symbol_index(self, name: str) -> int:
        for i, s in enumerate(self.symbols):
            if s.name == name:
                return i
        raise KeyError(name)


@lru_cache(maxsize=None)
def _full_reveal(m: int) -> tuple[frozenset[int], np.ndarray]:
    """Every state of range(m), as a reveal set and as its read-only
    all-ones mask, built once per m."""
    ones = np.ones(m)
    ones.setflags(write=False)
    return frozenset(range(m)), ones


def all_states(m: int) -> frozenset[int]:
    """The reveal set of every state of range(m), shared per m: a symbol
    that reveals it skips the scans a reveal set is otherwise checked with."""
    return _full_reveal(m)[0]


def reveal_only(m: int, subset, name: str = "reveal") -> Symbol:
    """A symbol that prunes the belief to ``subset`` without moving state."""
    return Symbol(name, np.eye(m), subset)


def transition_only(m: int, transition, name: str = "step") -> Symbol:
    """A symbol that moves state by ``transition`` and reveals nothing."""
    t = np.asarray(transition, dtype=float)
    if t.shape != (m, m):
        raise ValueError(f"expected a {m}x{m} matrix, got {t.shape}")
    return Symbol(name, t, all_states(m))


def one_hot(m: int, q: int) -> np.ndarray:
    b = np.zeros(m)
    b[q] = 1.0
    return b


def belief_update(a: Pfsa, b: np.ndarray, symbol: int) -> np.ndarray:
    """Exact normalized belief update for one observed symbol.

    Computes f(T @ (z * b)) with f(x) = x/||x||_1. Raises
    InconsistentObservationError when the reveal keeps zero mass, since the
    normalization of the zero vector is undefined.
    """
    v = a.symbols[symbol].apply(np.asarray(b, dtype=float))
    # The bits of v.sum() and v / mass, without the sum's Python wrapper
    # and in the fresh array apply returns.
    mass = np.add.reduce(v)
    if mass <= 0.0:
        raise InconsistentObservationError(
            f"symbol {a.symbols[symbol].name!r} has zero belief mass"
        )
    v /= mass
    return v


def belief_update_stack(kernels: np.ndarray, beliefs: np.ndarray) -> np.ndarray:
    """``belief_update`` of T beliefs at once, each through its own dense
    kernel: row r of the result is f(kernels[r] @ beliefs[r]) for a
    ``(T, m, m)`` stack of folded kernels (``Symbol.folded_kernel``) and a
    ``(T, m)`` stack of beliefs, with the bits of ``belief_update`` row by
    row (see the module docstring). Raises InconsistentObservationError,
    naming the first such row, when a row keeps zero mass.
    """
    v = np.matmul(kernels, np.ascontiguousarray(beliefs, dtype=float)[..., None])[..., 0]
    mass = np.add.reduce(v, axis=-1)
    empty = mass <= 0.0
    if empty.any():
        raise InconsistentObservationError(f"row {int(empty.argmax())} has zero belief mass")
    v /= mass[:, None]
    return v


def belief_trajectory(a: Pfsa, symbols) -> np.ndarray:
    """Beliefs along a symbol sequence; row t is the belief after t symbols.

    Row 0 is the initial belief, one-hot at q0.
    This per-step-normalized filter is the reference the deferred-
    normalization trackers are measured against. Each row is the fresh
    array ``belief_update`` returns, copied once into the stacked result.
    """
    b = one_hot(a.m, a.q0)
    rows = [b]
    for s in symbols:
        b = belief_update(a, b, s)
        rows.append(b)
    return np.array(rows)


def _column_cdf(a: Pfsa, symbol: int, state: int) -> tuple[list[int], list[float]]:
    """The states of nonzero probability in column ``state`` of the symbol's
    kernel, and the running sums of their probabilities, as lists.

    These sums are the full column's running sums at those states, bit for
    bit, since adding a zero changes no sum.
    """
    col = a.symbols[symbol].column(state)
    support = np.flatnonzero(col)
    return support.tolist(), np.cumsum(col[support]).tolist()


def _draw_next(support: list[int], cdf: list[float], rng: np.random.Generator) -> int:
    """The state of ``support`` that a uniform draw lands on.

    ``bisect_right`` makes the comparisons of ``np.searchsorted(...,
    side="right")`` on the same float64 values. A column may sum to
    slightly less than 1, so a draw can land past its total; it then goes
    to the last state of nonzero probability.
    """
    k = bisect.bisect_right(cdf, rng.random())
    return support[min(k, len(support) - 1)]


@dataclass(frozen=True)
class Trajectory:
    states: tuple[int, ...]   # q_0 .. q_T
    symbols: tuple[int, ...]  # sigma_1 .. sigma_T


def sample_trajectory(a: Pfsa, steps: int, rng: np.random.Generator) -> Trajectory:
    """Simulate the environment for ``steps`` symbols.

    At each step the environment, which sees the true state, picks uniformly
    among the symbols whose reveal set contains that state (the consistency
    constraint), then the state moves through the symbol's kernel. Raises
    DeadEndError if no symbol is consistent with the current state.
    """
    q = a.q0
    states = [q]
    chosen: list[int] = []
    # Built once per call, as lists: each state's consistent symbols and
    # each (symbol, state) column's support and running sums.
    options_at: dict[int, list[int]] = {}
    columns: dict[tuple[int, int], tuple[list[int], list[float]]] = {}
    for t in range(steps):
        options = options_at.get(q)
        if options is None:
            options = options_at[q] = [i for i, s in enumerate(a.symbols) if q in s.reveal]
        if not options:
            raise DeadEndError(f"state {q} at step {t} admits no consistent symbol")
        s = options[rng.integers(len(options))]
        column = columns.get((s, q))
        if column is None:
            column = columns[s, q] = _column_cdf(a, s, q)
        q = _draw_next(*column, rng)
        chosen.append(s)
        states.append(q)
    return Trajectory(tuple(states), tuple(chosen))


def random_automaton(m: int, n_symbols: int, rng: np.random.Generator) -> Pfsa:
    """A random automaton for property checks.

    Symbol 0 always reveals the full state set, so every state has at least
    one consistent symbol and trajectories never dead-end. Remaining symbols
    get random column-stochastic kernels and random nonempty reveal sets,
    each state kept with probability 1/2.
    """
    if n_symbols < 1:
        raise ValueError("need at least one symbol")
    symbols = []
    for k in range(n_symbols):
        t = rng.random((m, m)) + 1e-3
        t /= t.sum(axis=0, keepdims=True)
        if k == 0:
            subset = all_states(m)
        else:
            keep = rng.random(m) < 0.5
            if not keep.any():
                keep[rng.integers(m)] = True
            subset = frozenset(int(q) for q in np.flatnonzero(keep))
        symbols.append(Symbol(f"s{k}", t, subset))
    return Pfsa(tuple(symbols), q0=int(rng.integers(m)))


def joint_discretization_count(n: int) -> int:
    """Number of DFA states for a binary discretization of a belief over all
    n! arrangements: 2 ** n!. Exact big integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return 2 ** math.factorial(n)


def marginal_discretization_count(n: int, k: int) -> int:
    """Number of DFA states when each of the (n-1)^2 free coordinates of an
    n-by-n doubly stochastic matrix is split into k bins: k ** (n-1)^2."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 2:
        raise ValueError("k must be >= 2")
    return k ** ((n - 1) ** 2)


# Textual automaton format. Layout:
#
#   pfsa v1
#   states <m>
#   q0 <index>
#   symbol <name>
#   reveal <sorted indices>
#   T
#   <m rows of m floats>
#
# with one `symbol` block per alphabet entry. Floats are written with repr
# and therefore round-trip bit-exactly.


def write_automaton(a: Pfsa, sink) -> None:
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            write_automaton(a, fh)
        return
    sink.write("pfsa v1\n")
    sink.write(f"states {a.m}\n")
    sink.write(f"q0 {a.q0}\n")
    for sym in a.symbols:
        sink.write(f"symbol {sym.name}\n")
        sink.write(("reveal " + " ".join(str(q) for q in sorted(sym.reveal))).rstrip() + "\n")
        sink.write("T\n")
        for row in np.asarray(sym.transition):
            sink.write(" ".join(repr(float(v)) for v in row) + "\n")


def read_automaton(source) -> Pfsa:
    if isinstance(source, (str, os.PathLike)):
        with open(source, "r", encoding="utf-8") as fh:
            return loads_automaton(fh.read())
    return loads_automaton(source.read())


def loads_automaton(text: str) -> Pfsa:
    lines = text.splitlines()
    pos = 0

    def take(keyword: str) -> str:
        nonlocal pos
        if pos >= len(lines):
            raise AutomatonFormatError(f"unexpected end of document, wanted {keyword!r}")
        line = lines[pos]
        head, _, rest = line.partition(" ")
        if head != keyword:
            raise AutomatonFormatError(f"line {pos + 1}: expected {keyword!r}, got {line!r}")
        pos += 1
        return rest.strip()

    def take_row() -> str:
        nonlocal pos
        if pos >= len(lines):
            raise AutomatonFormatError("unexpected end of document inside matrix")
        line = lines[pos]
        pos += 1
        return line

    if take("pfsa") != "v1":
        raise AutomatonFormatError("unsupported format version")
    try:
        m = int(take("states"))
        q0 = int(take("q0"))
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from exc

    blocks = []
    while pos < len(lines) and lines[pos].strip():
        name = take("symbol")
        reveal_text = take("reveal")
        try:
            subset = frozenset(int(v) for v in reveal_text.split())
        except ValueError as exc:
            raise AutomatonFormatError(f"bad reveal set for {name!r}") from exc
        take("T")
        rows = []
        for _ in range(m):
            raw = take_row()
            try:
                row = [float(v) for v in raw.split()]
            except ValueError as exc:
                raise AutomatonFormatError(f"bad matrix row {raw!r}") from exc
            if len(row) != m:
                raise AutomatonFormatError(f"row of length {len(row)}, expected {m}")
            rows.append(row)
        blocks.append((name, np.array(rows), subset))
    # Blank lines may only end the document.
    for k in range(pos, len(lines)):
        if lines[k].strip():
            raise AutomatonFormatError(f"line {k + 1}: {lines[k]!r} follows a blank line")
    if not blocks:
        raise AutomatonFormatError("document defines no symbols")
    try:
        return Pfsa(tuple(Symbol(*block) for block in blocks), q0=q0)
    except ValueError as exc:
        raise AutomatonFormatError(str(exc)) from exc
