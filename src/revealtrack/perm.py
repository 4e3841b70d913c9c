"""Exact arithmetic on the symmetric group S_n.

Conventions used throughout the package:

- A permutation is stored in zero-based one-line notation: ``mapping[i]`` is
  the image of ``i``. The array is always a bijection on ``{0, ..., n-1}``.
- ``compose(p, q)`` applies ``p`` first, then ``q``:
  ``compose(p, q)(i) == q(p(i))``.
- ``to_matrix(p)`` is the column representation ``M @ e_i == e_{p(i)}``,
  so matrices compose in reverse order:
  ``to_matrix(compose(p, q)) == to_matrix(q) @ to_matrix(p)``.
- A convex mixture of group elements is a ``Mixture``, validated once when
  built; ``Mixture.of`` is the one coercion from bare pairs.
- Randomness always comes from an explicit ``numpy.random.Generator``
  (PCG64 via ``numpy.random.default_rng(seed)``); callers own their
  generators and record the 64-bit seed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0, ..., n-1} in one-line notation."""

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.mapping)
        if n == 0:
            raise ValueError("permutation must have at least one element")
        if sorted(self.mapping) != list(range(n)):
            raise ValueError(f"{self.mapping!r} is not a bijection on range({n})")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]


def identity(n: int) -> Permutation:
    """The identity permutation of S_n. Requires n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return Permutation(tuple(range(n)))


def compose(first: Permutation, second: Permutation) -> Permutation:
    """Apply ``first`` then ``second``: result(i) = second(first(i))."""
    if first.n != second.n:
        raise ValueError(f"size mismatch: {first.n} vs {second.n}")
    return Permutation(tuple(second.mapping[first.mapping[i]] for i in range(first.n)))


def inverse(p: Permutation) -> Permutation:
    inv = [0] * p.n
    for i, v in enumerate(p.mapping):
        inv[v] = i
    return Permutation(tuple(inv))


def transposition(n: int, i: int, j: int) -> Permutation:
    """The transposition exchanging i and j in S_n."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"indices ({i}, {j}) out of range for n={n}")
    if i == j:
        raise ValueError("transposition requires two distinct indices")
    mapping = list(range(n))
    mapping[i], mapping[j] = mapping[j], mapping[i]
    return Permutation(tuple(mapping))


def to_matrix(p: Permutation) -> np.ndarray:
    """The n-by-n 0/1 matrix with M @ e_i = e_{p(i)}."""
    m = np.zeros((p.n, p.n))
    for i, v in enumerate(p.mapping):
        m[v, i] = 1.0
    return m


def sample_uniform(n: int, rng: np.random.Generator) -> Permutation:
    """Uniformly random element of S_n; deterministic given a seeded rng."""
    return Permutation(tuple(int(v) for v in rng.permutation(n)))


@dataclass(frozen=True)
class Mixture:
    """A convex mixture of group elements as ``(Permutation, weight)`` pairs,
    validated here and nowhere else: ValueError unless it is nonempty, its
    weights are finite, nonnegative and sum to 1 within 1e-12, and every
    component acts on the same number of items. ``n`` and the read-only
    ``weights`` are left out of equality and repr."""

    components: tuple[tuple[Permutation, float], ...]
    n: int = field(init=False, repr=False, compare=False)
    weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        components = tuple((p, float(w)) for p, w in self.components)
        if not components:
            raise ValueError("mixture needs at least one component")
        weights = np.array([w for _, w in components])
        if not np.isfinite(weights).all():
            raise ValueError(f"weights {weights} are not finite")
        if (weights < 0).any() or abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights {weights} are not a distribution")
        sizes = {p.n for p, _ in components}
        if len(sizes) != 1:
            raise ValueError("mixture components act on different sizes")
        weights.setflags(write=False)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "n", sizes.pop())
        object.__setattr__(self, "weights", weights)

    def __reduce__(self):
        # Unpickle through validation, which makes ``weights`` read-only again.
        return type(self), (self.components,)

    @classmethod
    def of(cls, mixture: Mixture | Sequence[tuple[Permutation, float]]) -> Mixture:
        """``mixture`` itself if it is a Mixture, else the Mixture of its pairs."""
        return mixture if isinstance(mixture, cls) else cls(mixture)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> tuple[Permutation, ...]:
    """All n! elements of S_n, ordered lexicographically by one-line notation."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return tuple(Permutation(m) for m in itertools.permutations(range(n)))


def lex_index(p: Permutation) -> int:
    """Index of p in the lexicographic enumeration of S_n."""
    return int(lex_indices(np.array([p.mapping]))[0])


@lru_cache(maxsize=None)
def one_line_table(n: int) -> np.ndarray:
    """All n! elements of S_n as a read-only (n!, n) array whose row i is
    the one-line notation of ``symmetric_group(n)[i]``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def _lex_codes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The base-n place values of a one-line permutation of size n, and the
    ascending codes of the rows of ``one_line_table(n)``; both read-only."""
    place = n ** np.arange(n - 1, -1, -1)
    codes = one_line_table(n) @ place
    place.setflags(write=False)
    codes.setflags(write=False)
    return place, codes


def lex_indices(rows: np.ndarray) -> np.ndarray:
    """Lexicographic index of every one-line permutation in the rows of an
    (r, n) integer array; the vectorized ``lex_index``.

    Read as base-n numbers, one-line permutations sort in lex order, so the
    index is a binary search among the codes of ``one_line_table(n)``.
    """
    rows = np.asarray(rows)
    place, codes = _lex_codes(rows.shape[1])
    return np.searchsorted(codes, rows @ place)
