"""Marginal (position-by-element) belief tracking on the Birkhoff polytope.

The marginal state is an n-by-n nonnegative matrix H with H[i, j] the
probability that position i holds element j; a distribution over
arrangements yields a doubly stochastic H (every row and column sums to 1).
Two linear updates move the state:

- mixing: H <- P_s @ H with P_s a convex combination of permutation
  matrices acting on positions (rows); doubly stochastic H stays doubly
  stochastic. A ``MixSpec`` builds its read-only P_s from its ``perm.Mixture``
  once, when it is constructed, so a mix step is one n-by-n product.
- reveal of "position i holds element j": H <- D_l @ H @ D_r + B with
  D_l = I - e_i e_i^T, D_r = I - e_j e_j^T, B = e_i e_j^T. Entry (i, j)
  becomes 1 and the rest of the cross is zeroed; everything else is
  untouched. The result can leave the Birkhoff polytope, so a Sinkhorn
  projection is applied at decode time, keeping the recursion itself
  linear.

Both updates are instances of the bilinear step A_l @ H @ A_r + B, which
vectorizes to (A_r^T kron A_l) vec(H) + vec(B) under column-major vec;
``vectorized_step`` exists to check ``marginal_step`` against that form
(check C08), not for speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar

import numpy as np

from .perm import Mixture, one_line_table, to_matrix


class NoSupportError(ValueError):
    """Sinkhorn input has an all-zero row or column; no doubly stochastic
    scaling exists."""


@dataclass(frozen=True)
class MixSpec:
    """A probabilistic shuffle of positions: a ``perm.Mixture`` and its matrix."""

    label: ClassVar[str] = "mix"
    mixture: Mixture
    # Read-only P_s = sum_i c_i P_i, built once from the components.
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mixture = Mixture.of(self.mixture)
        out = np.zeros((mixture.n, mixture.n))
        for p, w in mixture.components:
            out += w * to_matrix(p)
        out.setflags(write=False)
        object.__setattr__(self, "mixture", mixture)
        object.__setattr__(self, "matrix", out)


@dataclass(frozen=True)
class RevealSpec:
    """The observation "position holds element"."""

    label: ClassVar[str] = "reveal"
    position: int
    element: int

    def validated(self, n: int) -> "RevealSpec":
        if not (0 <= self.position < n and 0 <= self.element < n):
            raise ValueError(f"reveal ({self.position}, {self.element}) out of range for n={n}")
        return self


def marginal_init(n: int) -> np.ndarray:
    """Start state: every element known to sit at its own position."""
    return np.eye(n)


def marginal_mix(state: np.ndarray, mix: MixSpec) -> np.ndarray:
    p_s = mix.matrix
    state = np.asarray(state, dtype=float)
    if state.shape != p_s.shape:
        raise ValueError(f"state shape {state.shape} under mixture of size {p_s.shape[0]}")
    return p_s @ state


def reveal_operators(n: int, r: RevealSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (D_l, D_r, B) triple implementing the reveal as a bilinear step."""
    r.validated(n)
    d_l = np.eye(n)
    d_l[r.position, r.position] = 0.0
    d_r = np.eye(n)
    d_r[r.element, r.element] = 0.0
    inject = np.zeros((n, n))
    inject[r.position, r.element] = 1.0
    return d_l, d_r, inject


def marginal_reveal(state: np.ndarray, r: RevealSpec) -> np.ndarray:
    """Pin entry (position, element) to 1 and zero the rest of its cross.

    Equal to D_l @ H @ D_r + B but computed by masking, so entries outside
    the cross are preserved bit-for-bit.
    """
    state = np.asarray(state, dtype=float)
    r.validated(state.shape[0])
    out = state.copy()
    out[r.position, :] = 0.0
    out[:, r.element] = 0.0
    out[r.position, r.element] = 1.0
    return out


def marginal_step(state: np.ndarray, op: MixSpec | RevealSpec) -> np.ndarray:
    """One marginal-tracker update: a mix or a reveal."""
    if isinstance(op, MixSpec):
        return marginal_mix(state, op)
    if isinstance(op, RevealSpec):
        return marginal_reveal(state, op)
    raise TypeError(f"unknown marginal step {op!r}")


def vectorized_step(
    state: np.ndarray, a_left: np.ndarray, a_right: np.ndarray, inject: np.ndarray
) -> np.ndarray:
    """Same bilinear step through vec(H') = (A_r^T kron A_l) vec(H) + vec(B).

    Uses column-major vectorization. Exists to check ``marginal_step``
    against the Kronecker form; both sides must agree to 1e-12.
    """
    state = np.asarray(state, dtype=float)
    n_rows, n_cols = state.shape
    if a_left.shape[1] != n_rows or a_right.shape[0] != n_cols:
        raise ValueError(
            f"dimension mismatch: H {state.shape}, A_l {a_left.shape}, A_r {a_right.shape}"
        )
    vec = state.reshape(-1, order="F")
    out = np.kron(a_right.T, a_left) @ vec + inject.reshape(-1, order="F")
    return out.reshape((a_left.shape[0], a_right.shape[1]), order="F")


@dataclass(frozen=True)
class SinkhornResult:
    """The projected matrix, sweeps run, residual and converged flag of one
    matrix; for a ``(..., n, n)`` stack, the projected stack and one array
    of each of the others, of the stack's leading shape."""

    matrix: np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray
    converged: bool | np.ndarray


def sinkhorn_project(
    state: np.ndarray, max_iters: int = 1000, tol: float = 1e-9
) -> SinkhornResult:
    """Alternate row/column normalization toward a doubly stochastic matrix.

    Requires finite, nonnegative entries, an int ``max_iters`` >= 0 and a
    finite ``tol`` >= 0 (raises ValueError otherwise) and a nonzero entry
    in every row and column (raises NoSupportError otherwise). Stops once
    the worst row/column sum deviates from 1 by at most ``tol``; if
    ``max_iters`` passes are exhausted first, the best iterate is returned
    with ``converged=False`` rather than raising, since matrices produced
    by reveals can sit on the polytope boundary where convergence is slow.

    Each iterate divides the rows by their sums, then the columns by
    theirs, and takes one row sum and one column sum of the result: they
    give the residual, and the row sums divide the next iterate's rows.
    The sums of the input serve the support check and the first residual
    the same way. This is the one-matrix case of the plain sweep loop that
    ``sinkhorn_project_stack`` runs. The input is copied in C order, so the
    bits of the result do not depend on its memory layout.
    """
    h = np.array(state, dtype=float, order="C")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got {h.shape}")
    iterations, residual, converged = _sweep(h[None], max_iters, tol)
    return SinkhornResult(h, int(iterations[0]), float(residual[0]), bool(converged[0]))


def sinkhorn_project_stack(
    states: np.ndarray, max_iters: int = 1000, tol: float = 1e-9
) -> SinkhornResult:
    """``sinkhorn_project`` of every matrix of a ``(..., n, n)`` stack in one
    sweep loop: each matrix leaves the loop at the sweep where its own call
    stops, so its matrix, iterations, residual and converged flag have the
    bits of that call. The checks run over the whole stack, in the order
    ``sinkhorn_project`` runs them, so a stack with one faulty matrix raises
    what that matrix raises alone. Raises ValueError for an input with no
    leading axis.
    """
    h = np.array(states, dtype=float, order="C")  # so that the reshape below is a view
    if h.ndim < 3 or h.shape[-1] != h.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got {h.shape}")
    lead = h.shape[:-2]
    iterations, residual, converged = _sweep(h.reshape((math.prod(lead),) + h.shape[-2:]), max_iters, tol)
    return SinkhornResult(h, iterations.reshape(lead), residual.reshape(lead), converged.reshape(lead))


def _line_sums(h: np.ndarray) -> np.ndarray:
    """Each matrix's row sums, then its column sums, as a row of a (T, 2n) array."""
    return np.concatenate((np.add.reduce(h, axis=2), np.add.reduce(h, axis=1)), axis=1)


def _residual(sums: np.ndarray) -> np.ndarray:
    """Each matrix's largest deviation of a row or column sum from 1."""
    return np.maximum.reduce(np.abs(sums - 1.0), axis=1)


def _sweep(h: np.ndarray, max_iters: int, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The checks and sweeps of ``sinkhorn_project`` over a (T, n, n) stack
    ``h`` that the caller owns: projects ``h`` in place and returns the
    per-matrix iterations, residuals and converged flags.

    Each sweep gathers the matrices still live, divides their rows and then
    their columns once, writes them back with their line sums, residuals and
    sweep count, and drops from the live set those now within ``tol``.
    Raises ValueError unless ``max_iters`` is an int (not a bool) of at
    least 0 and ``tol`` a finite number of at least 0.
    """
    if isinstance(max_iters, bool) or not isinstance(max_iters, int) or max_iters < 0:
        raise ValueError(f"max_iters must be an int >= 0, got {max_iters!r}")
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 <= tol < math.inf:
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    if not np.isfinite(h).all():
        raise ValueError("Sinkhorn input must be finite")
    if (h < 0).any():
        raise ValueError("Sinkhorn input must be nonnegative")
    n = h.shape[-1]
    sums = _line_sums(h)
    if not sums.all():  # a zero sum; the entries are finite
        raise NoSupportError("input has an all-zero row or column")

    residual = _residual(sums)
    converged = residual <= tol
    iterations = np.zeros(len(h), dtype=int)
    if converged.all():
        return iterations, residual, converged
    live = np.flatnonzero(~converged)
    for iteration in range(1, max_iters + 1):
        work = h[live] / sums[live, :n, None]
        work /= np.add.reduce(work, axis=1, keepdims=True)
        line = _line_sums(work)
        res = _residual(line)
        h[live], sums[live], residual[live], iterations[live] = work, line, res, iteration
        live = live[~(res <= tol)]  # a NaN residual never stops
        if not len(live):
            break
    return iterations, residual, residual <= tol


def joint_to_marginal(b: np.ndarray, n: int) -> np.ndarray:
    """Collapse a belief over all n! arrangements to its n-by-n marginal.

    Arrangements are indexed lexicographically with c(element) = position
    (see ``joint``), so H[i, j] sums the belief of every arrangement placing
    element j at position i. A point belief at arrangement c maps to
    ``to_matrix(c)``; a distribution maps into the Birkhoff polytope.

    ``b`` may also be a stack of beliefs of shape ``(..., n!)``; the result
    then has shape ``(..., n, n)``, one marginal per belief. Each cell is
    the sequential sum of its arrangements in lex order, as a loop over the
    arrangements would add them: one gather lays the (n-1)! arrangements of
    every cell along an axis, and numpy reduces that axis one row after
    another. A belief gives the same bits alone as inside a stack.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim < 1 or b.shape[-1] != math.factorial(n):
        raise ValueError(f"belief of shape {b.shape} is not over {math.factorial(n)} arrangements")
    cells = _cells(n)
    if b.ndim == 1:
        return b[cells].sum(axis=0).reshape(n, n)
    # ``stack[:, cells]`` keeps numpy's fast gather, which ``b[..., cells]``
    # loses.
    stack = b.reshape(-1, b.shape[-1])
    return stack[:, cells].sum(axis=1).reshape(b.shape[:-1] + (n, n))


@lru_cache(maxsize=None)
def _cells(n: int) -> np.ndarray:
    """Read-only ((n-1)!, n*n) array: column i*n + e lists, in lex order,
    the arrangements that place element e at position i."""
    table = one_line_table(n)
    keys = (table * n + np.arange(n)).ravel()
    # A stable sort keeps each cell's arrangements in lex order.
    order = np.argsort(keys, kind="stable") // n
    cells = np.ascontiguousarray(order.reshape(n * n, -1).T)
    cells.setflags(write=False)
    return cells
