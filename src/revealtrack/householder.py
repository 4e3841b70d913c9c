"""Hand-built generalized-Householder recurrence for permutation tracking.

Each step carries a gate beta in [0, 2] and a unit key vector k; its
transition matrix is A = I - beta * k k^T, a symmetric rank-1 update with
eigenvalue 1 - beta on span{k} and 1 on the orthogonal complement. At
beta = 2 with k = (e_i - e_j)/sqrt(2) the matrix is exactly the
transposition of coordinates i and j, so a sequence of such steps composes
permutations through the linear recurrence H_t = A_t H_{t-1}. Gates capped
at beta <= 1 keep every eigenvalue nonnegative, which is why such a
recurrence cannot realize a swap (a swap has determinant -1).

A step applies (beta k)(k^T H) with its gated key beta k stored: bit for
bit beta (k (k^T H)) when beta is a power of two, as at every swap; other
gates can differ in the last bit.

Each step picks one of two update forms when it is built. Both take the
full dot k^T H. The dense form subtracts the whole n-row outer product of
beta k and k^T H. The row form, taken when n is at least
``_ROW_FORM_RATIO`` times the number of nonzero entries of beta k,
subtracts only the rows where beta k is nonzero, each with the multiply and
subtract the dense form does there. So the two give the same bits on every
finite state with no -0.0 outside the support; the dense form can turn
such a -0.0 into +0.0, and the row form leaves it alone. A swap has two
nonzeros, so it steps in the row form from n = 24. Over 1024 swaps from the
n-by-n identity (one BLAS thread, 2-vCPU VM, best of 9), a step took
2.93 us dense against 3.33 us by rows at n = 16, 3.31 against 3.32 us at
n = 24 and 9.13 against 3.85 us at n = 64.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

import numpy as np

# The row form costs one Python-level update per nonzero of the gated key,
# the dense form an n-row product: the rows win once n reaches about this
# many times the nonzero count (measured crossovers on an n-by-n state:
# n = 24 at 2 nonzeros, 40 to 48 at 4, 64 to 96 at 8).
_ROW_FORM_RATIO = 12


@dataclass(frozen=True)
class HouseholderStep:
    """A gated reflection: transition matrix I - beta * k k^T with unit k.
    It applies (beta k)(k^T H) through the read-only ``scaled_key`` beta k:
    beta (k (k^T H)) bit for bit when beta is a power of two; other gates
    can differ in the last bit. Steps compare and hash by gate and key.
    A step whose gated key has few nonzeros next to n keeps them as the
    private ``(row, entry)`` pairs ``_rows`` and updates only those rows;
    otherwise ``_rows`` is None (see the module docstring). Raises
    ValueError unless beta is a real number (a bool is not) in [0, 2] and
    k is a real, finite unit vector."""

    beta: float
    key: np.ndarray
    scaled_key: np.ndarray = field(init=False, repr=False, compare=False)
    _rows: tuple[tuple[int, float], ...] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.beta, bool) or not isinstance(self.beta, numbers.Real):
            raise ValueError(f"beta {self.beta!r} is not a real number")
        key = np.asarray(self.key)
        if np.iscomplexobj(key):
            raise ValueError(f"key has complex dtype {key.dtype}; entries must be real")
        key = key.astype(float)
        if key.ndim != 1:
            raise ValueError("key must be a vector")
        if not np.all(np.isfinite(key)):
            raise ValueError(f"key {key} is not finite")
        norm = np.linalg.norm(key)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"key norm {norm!r} is not 1 within 1e-12")
        if not 0.0 <= self.beta <= 2.0:
            raise ValueError(f"beta {self.beta} outside [0, 2]")
        key.setflags(write=False)
        object.__setattr__(self, "key", key)
        scaled_key = self.beta * key
        scaled_key.setflags(write=False)
        object.__setattr__(self, "scaled_key", scaled_key)
        support = np.flatnonzero(scaled_key)
        rows = None
        if support.size * _ROW_FORM_RATIO <= key.shape[0]:
            rows = tuple(zip(support.tolist(), scaled_key[support].tolist()))
        object.__setattr__(self, "_rows", rows)

    @property
    def n(self) -> int:
        return self.key.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, HouseholderStep):
            return NotImplemented
        return self.beta == other.beta and np.array_equal(self.key, other.key)

    def __hash__(self) -> int:
        return hash((self.beta, tuple(self.key.tolist())))  # -0.0 hashes as 0.0


# A step is frozen with a read-only key, so equal arguments can share one.
# ``typed`` keeps an argument of another type (a float n, say) out of an int
# key's entry, so it fails as an uncached call would. Bounded like the
# ``trace`` event caches: 8192 entries hold every ordered pair at n = 90.
@lru_cache(maxsize=8192, typed=True)
def swap_head(n: int, i: int, j: int) -> HouseholderStep:
    """The step realizing the transposition of coordinates i and j:
    beta = 2, k = (e_i - e_j)/sqrt(2). Memoized: equal arguments return
    the same step."""
    if i == j:
        raise ValueError("swap needs two distinct coordinates")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"coordinates ({i}, {j}) out of range for n={n}")
    key = np.zeros(n)
    key[i] = 1.0
    key[j] = -1.0
    key /= np.sqrt(2.0)
    return HouseholderStep(2.0, key)


def run_recurrence(steps: Sequence[HouseholderStep], h0: np.ndarray) -> np.ndarray:
    """Fold H <- A(step) @ H over the steps in sequence order; H is a
    vector or a matrix.

    Each step is applied as the rank-1 update H - (beta k)(k^T H), which
    costs O(n m) for an n-by-m state and never forms A. It is
    H - beta (k (k^T H)) bit for bit when beta is a power of two, and can
    differ in the last bit otherwise. A step in the row form subtracts only
    the rows where beta k is nonzero and leaves every other row as it was.
    ``np.multiply.outer`` keeps a vector state a vector. Raises ValueError
    for a complex or non-finite state.
    """
    h = np.asarray(h0)
    if np.iscomplexobj(h):
        raise ValueError(f"state has complex dtype {h.dtype}; entries must be real")
    h = h.astype(float)
    if h.ndim not in (1, 2):
        raise ValueError(f"state must be a vector or a matrix, got shape {h.shape}")
    # Dense, 0 * inf would put a NaN in a row the step does not touch.
    if not np.isfinite(h).all():
        raise ValueError("state is not finite")
    for step in steps:
        key = step.key
        if key.shape[0] != h.shape[0]:
            raise ValueError(f"step of size {step.n} applied to state of shape {h.shape}")
        kh = np.dot(key, h)
        rows = step._rows
        if rows is None:
            h -= np.multiply.outer(step.scaled_key, kh)
        else:
            for row, entry in rows:
                h[row] -= entry * kh
    return h
