from __future__ import annotations

import math
import pickle
import re

import numpy as np
import pytest

from revealtrack import marginal
from revealtrack.checks import _random_mixture, check_kronecker, check_marginal_bridge, check_sinkhorn
from revealtrack.marginal import (
    MixSpec,
    NoSupportError,
    RevealSpec,
    joint_to_marginal,
    marginal_init,
    marginal_mix,
    marginal_reveal,
    marginal_step,
    reveal_operators,
    sinkhorn_project,
    sinkhorn_project_stack,
    vectorized_step,
)
from revealtrack.joint import mixture_symbol, placement_reveal_symbol
from revealtrack.perm import (
    Mixture,
    Permutation,
    identity,
    sample_uniform,
    symmetric_group,
    to_matrix,
    transposition,
)

HALF_SWAP_12 = MixSpec(((identity(3), 0.5), (transposition(3, 1, 2), 0.5)))


def birkhoff_residual(state: np.ndarray) -> float:
    """Largest deviation of any row or column sum from 1."""
    return float(max(np.abs(state.sum(axis=1) - 1.0).max(), np.abs(state.sum(axis=0) - 1.0).max()))


def test_mix_spreads_rows():
    h1 = marginal_mix(marginal_init(3), HALF_SWAP_12)
    assert np.array_equal(h1, [[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])


def test_single_component_mix_is_row_permutation():
    rng = np.random.default_rng(0)
    h = rng.random((4, 4))
    p = sample_uniform(4, rng)
    mixed = marginal_mix(h, MixSpec(((p, 1.0),)))
    assert np.array_equal(mixed, to_matrix(p) @ h)
    for i in range(4):
        assert np.array_equal(mixed[p(i)], h[i])


def test_mix_preserves_doubly_stochastic():
    rng = np.random.default_rng(1)
    group = symmetric_group(4)
    h = marginal_init(4)
    for _ in range(50):
        k = int(rng.integers(1, 5))
        picks = rng.choice(len(group), size=k, replace=False)
        weights = rng.dirichlet(np.ones(k))
        h = marginal_mix(h, MixSpec(tuple((group[i], float(w)) for i, w in zip(picks, weights))))
        assert birkhoff_residual(h) <= 1e-12


def test_mix_validation():
    with pytest.raises(ValueError):
        MixSpec(((identity(3), 0.6), (transposition(3, 0, 1), 0.6)))
    with pytest.raises(ValueError):
        MixSpec(((identity(3), -0.5), (transposition(3, 0, 1), 1.5)))
    with pytest.raises(ValueError):
        MixSpec(())
    with pytest.raises(ValueError):
        marginal_mix(np.eye(4), HALF_SWAP_12)
    with pytest.raises(TypeError, match="unknown marginal step 'mix'"):
        marginal_step(np.eye(3), "mix")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="not finite"):
        MixSpec(((identity(3), bad), (transposition(3, 0, 1), 0.5)))


def _per_call_realized(mix: MixSpec) -> np.ndarray:
    """P_s built from scratch, as every mix step once did."""
    out = np.zeros((mix.mixture.n, mix.mixture.n))
    for p, w in mix.mixture.components:
        out += w * to_matrix(p)
    return out


def test_stored_mix_matrix_keeps_every_state_bit():
    rng = np.random.default_rng(20)
    for n in range(2, 8):
        for k in range(1, 5):
            perms = [sample_uniform(n, rng) for _ in range(k)]
            if k >= 2:
                perms[1] = perms[0]  # one permutation repeated twice
            weights = rng.dirichlet(np.ones(k))
            mix = MixSpec(tuple((p, float(w)) for p, w in zip(perms, weights)))
            stored = reference = marginal_init(n)
            for _ in range(40):
                if rng.random() < 0.3:
                    reveal = RevealSpec(int(rng.integers(n)), int(rng.integers(n)))
                    stored = marginal_reveal(stored, reveal)
                    reference = marginal_reveal(reference, reveal)
                else:
                    stored = marginal_mix(stored, mix)
                    reference = _per_call_realized(mix) @ reference
                assert np.array_equal(stored, reference)


def test_mix_matrix_is_built_once(monkeypatch):
    calls = []

    def counting_to_matrix(p):
        calls.append(p)
        return to_matrix(p)

    monkeypatch.setattr("revealtrack.marginal.to_matrix", counting_to_matrix)
    components = ((identity(4), 0.25), (transposition(4, 0, 3), 0.75))
    mix = MixSpec(components)
    assert len(calls) == 2
    calls.clear()
    h = marginal_init(4)
    for _ in range(10):
        h = marginal_mix(h, mix)
    assert calls == []
    assert not mix.matrix.flags.writeable
    with pytest.raises(ValueError):
        mix.matrix[0, 0] = 1.0
    twin = MixSpec(components)
    assert twin == mix and hash(twin) == hash(mix)
    assert twin.matrix is not mix.matrix
    assert repr(mix) == f"MixSpec(mixture=Mixture(components={components!r}))"


def _count_mixtures(monkeypatch) -> list:
    """Record every ``Mixture`` built, and so validated, from now on."""
    built = []
    validate = Mixture.__post_init__

    def counting(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(Mixture, "__post_init__", counting)
    return built


def test_mix_spec_holds_one_mixture_whatever_the_container(monkeypatch):
    listed = MixSpec([(identity(3), 1.0)])
    tupled = MixSpec(((identity(3), 1.0),))
    assert listed == tupled and hash(listed) == hash(tupled)

    rng = np.random.default_rng(21)
    group = symmetric_group(4)
    picks = rng.choice(len(group), size=3, replace=False)
    pairs = [(group[i], float(w)) for i, w in zip(picks, rng.dirichlet(np.ones(3)))]
    mixture = Mixture(pairs)
    built = _count_mixtures(monkeypatch)
    spec = MixSpec(mixture)
    symbol = mixture_symbol(4, mixture)
    assert spec.mixture is mixture and built == []

    from_pairs = mixture_symbol(4, pairs)
    assert np.array_equal(np.asarray(from_pairs.transition), np.asarray(symbol.transition))
    assert np.array_equal(from_pairs.transition.weights, symbol.transition.weights)
    v = rng.random(len(group))
    assert np.array_equal(from_pairs.apply(v), symbol.apply(v))
    assert np.array_equal(MixSpec(pairs).matrix, spec.matrix)
    assert len(built) == 2  # one Mixture for each consumer handed pairs

    assert not mixture.weights.flags.writeable
    with pytest.raises(ValueError):
        mixture.weights[0] = 1.0
    twin = pickle.loads(pickle.dumps(mixture))
    assert twin == mixture and hash(twin) == hash(mixture) and twin.n == 4
    assert np.array_equal(twin.weights, mixture.weights) and not twin.weights.flags.writeable


def test_bridge_check_validates_each_mixture_once(monkeypatch):
    built = _count_mixtures(monkeypatch)
    assert check_marginal_bridge(runs=50, max_n=4, steps=20, seed=20260811).passed
    # 50 runs of 20 mixing steps, then 168 mixing steps over the 50 prefixes.
    assert len(built) == 1168


def test_reveal_pins_cross():
    h1 = np.array([[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])
    h2 = marginal_reveal(h1, RevealSpec(1, 1))
    assert np.array_equal(h2, [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]])


def test_reveal_semantics_exact():
    rng = np.random.default_rng(5)
    h = rng.random((5, 5))
    r = RevealSpec(2, 3)
    out = marginal_reveal(h, r)
    assert np.array_equal(out[2], np.eye(5)[3])
    assert np.array_equal(out[:, 3], np.eye(5)[2])
    for i in range(5):
        for j in range(5):
            if i != 2 and j != 3:
                assert out[i, j] == h[i, j]  # bit-for-bit outside the cross
    with pytest.raises(ValueError):
        marginal_reveal(h, RevealSpec(5, 0))


def test_reveal_fixes_consistent_permutation_matrix():
    p = to_matrix(Permutation((2, 0, 1)))
    consistent = marginal_reveal(p, RevealSpec(2, 0))  # entry (2,0) is 1
    assert np.array_equal(consistent, p)
    inconsistent = marginal_reveal(p, RevealSpec(0, 0))
    assert not np.array_equal(inconsistent, p)


def test_vectorized_identity_and_reveal():
    h = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(vectorized_step(h, np.eye(3), np.eye(3), np.zeros((3, 3))), h)
    d_l, d_r, inject = reveal_operators(3, RevealSpec(1, 1))
    h1 = np.array([[1, 0, 0], [0, 0.5, 0.5], [0, 0.5, 0.5]])
    via_kron = vectorized_step(h1, d_l, d_r, inject)
    assert np.allclose(via_kron, [[1, 0, 0], [0, 1, 0], [0, 0, 0.5]], atol=1e-12)
    assert np.allclose(via_kron, marginal_reveal(h1, RevealSpec(1, 1)), atol=1e-12)
    with pytest.raises(ValueError):
        vectorized_step(h, np.eye(4), np.eye(3), np.zeros((3, 3)))


def test_combined_shuffle_and_mask_step():
    # A single bilinear step may combine a nontrivial row shuffle with the
    # reveal masks; both evaluation routes must still agree.
    rng = np.random.default_rng(33)
    p_s = to_matrix(sample_uniform(4, rng))
    d_l, d_r, inject = reveal_operators(4, RevealSpec(2, 1))
    h = rng.random((4, 4))
    direct = p_s @ d_l @ h @ d_r + inject
    vectorized = vectorized_step(h, p_s @ d_l, d_r, inject)
    assert np.abs(direct - vectorized).max() <= 1e-12


def test_kronecker_check_catches_a_reveal_that_keeps_the_cross(monkeypatch):
    # C08 runs the tracker's own step, so a reveal that pins its entry but
    # leaves the rest of the cross in place fails it.
    def pin_only(state, r):
        out = np.array(state, dtype=float)
        out[r.position, r.element] = 1.0
        return out

    assert check_kronecker(runs=50, seed=13).passed
    monkeypatch.setattr(marginal, "marginal_reveal", pin_only)
    assert not check_kronecker(runs=50, seed=13).passed


def test_sinkhorn_doubly_stochastic_input_untouched():
    h = to_matrix(Permutation((1, 2, 0)))
    result = sinkhorn_project(h)
    assert result.iterations == 0
    assert result.converged
    assert np.array_equal(result.matrix, h)


def test_sinkhorn_diagonal_support_forces_identity():
    result = sinkhorn_project(np.diag([1.0, 1.0, 0.5]))
    assert result.converged
    assert np.allclose(result.matrix, np.eye(3), atol=1e-9)


def test_sinkhorn_no_support():
    with pytest.raises(NoSupportError):
        sinkhorn_project(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        sinkhorn_project(np.array([[1.0, -0.1], [0.5, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_sinkhorn_rejects_non_finite_input(bad):
    with pytest.raises(ValueError, match="finite"):
        sinkhorn_project(np.array([[1.0, bad], [0.5, 1.0]]))


def test_sinkhorn_budget_exhaustion_returns_best_iterate():
    slow = np.array([[1.0, 1.0], [1.0, 0.0]])
    capped = sinkhorn_project(slow, max_iters=5)
    assert not capped.converged
    assert capped.iterations == 5
    assert capped.residual > 1e-9
    # The limit [[0,1],[1,0]] sits on the polytope boundary, so progress is
    # only O(1/k); a bigger budget must still shrink the residual.
    generous = sinkhorn_project(slow, max_iters=100_000, tol=1e-5)
    assert generous.converged
    assert generous.residual <= 1e-5
    assert np.allclose(generous.matrix, [[0, 1], [1, 0]], atol=1e-4)


@pytest.mark.parametrize(
    "project",
    [sinkhorn_project, lambda h, **budget: sinkhorn_project_stack(np.array([h]), **budget)],
    ids=["matrix", "stack"],
)
@pytest.mark.parametrize(
    "budget, message",
    [
        ({"max_iters": -3}, "max_iters must be an int >= 0, got -3"),
        ({"max_iters": True}, "max_iters must be an int >= 0, got True"),
        ({"max_iters": 2.0}, "max_iters must be an int >= 0, got 2.0"),
        ({"tol": math.nan}, "tol must be a finite number >= 0, got nan"),
        ({"tol": math.inf}, "tol must be a finite number >= 0, got inf"),
        ({"tol": -1e-9}, "tol must be a finite number >= 0, got -1e-09"),
        ({"tol": "1e-9"}, "tol must be a finite number >= 0, got '1e-9'"),
    ],
    ids=["negative-budget", "bool-budget", "float-budget", "nan-tol", "inf-tol", "negative-tol", "str-tol"],
)
def test_sinkhorn_rejects_a_bad_budget(project, budget, message):
    # A negative budget would report 0 sweeps, and a NaN tol would run out
    # every sweep of the budget; both raise before the first sweep, as
    # they do on a matrix that needs none.
    for h in ([[1.0, 1.0], [0.0, 1.0]], [[2.0, 1.0], [1.0, 2.0]], np.eye(2)):
        with pytest.raises(ValueError, match=re.escape(message)):
            project(h, **budget)


def test_joint_to_marginal_point_masses():
    group = symmetric_group(3)
    for index, c in enumerate(group):
        b = np.zeros(6)
        b[index] = 1.0
        assert np.array_equal(joint_to_marginal(b, 3), to_matrix(c))
    uniform = np.full(6, 1.0 / 6.0)
    assert np.allclose(joint_to_marginal(uniform, 3), np.full((3, 3), 1.0 / 3.0), atol=1e-15)
    with pytest.raises(ValueError):
        joint_to_marginal(np.ones(5) / 5.0, 3)


def test_joint_to_marginal_matches_loop_bitwise():
    # Reference: the per-pair loop, adding each arrangement in lex order.
    rng = np.random.default_rng(17)
    for n in range(2, 6):
        group = symmetric_group(n)
        for _ in range(20):
            b = rng.dirichlet(np.ones(len(group)))
            expected = np.zeros((n, n))
            for index, c in enumerate(group):
                for element in range(n):
                    expected[c(element), element] += b[index]
            assert np.array_equal(joint_to_marginal(b, n), expected)


def test_joint_to_marginal_is_doubly_stochastic_on_distributions():
    rng = np.random.default_rng(21)
    for _ in range(20):
        b = rng.dirichlet(np.ones(24))
        assert birkhoff_residual(joint_to_marginal(b, 4)) <= 1e-12


def bincount_marginal(b, n):
    """``joint_to_marginal`` as first written: one ``np.bincount`` per
    element, which adds the arrangements in lex order."""
    positions = np.array([c.mapping for c in symmetric_group(n)]).T
    out = np.empty((n, n))
    for element in range(n):
        out[:, element] = np.bincount(positions[element], weights=b, minlength=n)
    return out


@pytest.mark.parametrize("n", range(2, 8))
def test_stacked_joint_to_marginal_keeps_every_bit(n):
    rng = np.random.default_rng(40 + n)
    m = len(symmetric_group(n))
    stack = rng.dirichlet(np.ones(m), size=6)
    stack[stack < np.quantile(stack, 0.4)] = 0.0  # zero entries, one row all zero
    stack[1] = 0.0
    stack[2] *= 1e-300  # subnormal sums
    stack[3, :] = np.where(np.arange(m) % 2, -0.0, stack[3])
    got = joint_to_marginal(stack, n)
    assert got.shape == (6, n, n)
    for k, b in enumerate(stack):
        expected = bincount_marginal(b, n)
        alone = joint_to_marginal(b, n)
        assert np.array_equal(alone, expected) and np.array_equal(got[k], expected)
        assert np.array_equal(np.signbit(alone), np.signbit(expected))
    deeper = joint_to_marginal(stack.reshape(2, 3, m), n)
    assert deeper.shape == (2, 3, n, n) and np.array_equal(deeper.reshape(6, n, n), got)
    with pytest.raises(ValueError):
        joint_to_marginal(stack[:, 1:], n)


def per_step_bridge_measurements(runs, max_n, steps, seed):
    """The marginal-bridge check as first written, mixing error folded at
    every step, with ``bincount_marginal`` as the collapse."""
    rng = np.random.default_rng(seed)
    mixing_error = 0.0
    for _ in range(runs):
        n = int(rng.integers(2, max_n + 1))
        group = symmetric_group(n)
        b = np.zeros(len(group))
        b[0] = 1.0
        h = marginal_init(n)
        for _ in range(steps):
            components = _random_mixture(rng, group, min(4, len(group)))
            b = mixture_symbol(n, components, action="position").apply(b)
            h = marginal_mix(h, MixSpec(components))
            mixing_error = np.maximum(mixing_error, np.abs(h - bincount_marginal(b, n)).max())

    group = symmetric_group(3)
    prefixes = [np.eye(6)[0]]
    for _ in range(50):
        b = np.eye(6)[0]
        for _ in range(int(rng.integers(1, 7))):
            components = _random_mixture(rng, group, 3)
            b = mixture_symbol(3, components, action="position").apply(b)
        prefixes.append(b)
    targets = [
        (RevealSpec(position, element), placement_reveal_symbol(3, position, element).mask)
        for position in range(3)
        for element in range(3)
    ]
    leak = 0.0
    reveals = 0
    for b in prefixes:
        h = bincount_marginal(b, 3)
        for reveal, mask in targets:
            mass = float((mask * b).sum())
            if mass <= 0.0:
                continue
            posterior = bincount_marginal(mask * b / mass, 3)
            leak = np.maximum(leak, posterior[marginal_reveal(h, reveal) == 0.0].max())
            reveals += 1
    return {"mixing_error": mixing_error, "support_leak": leak, "reveals": reveals}


@pytest.mark.parametrize("max_n", (2, 4, 5))
def test_bridge_check_folds_the_same_bits_as_a_per_step_loop(max_n):
    for seed in (3, 20260811):
        measured = check_marginal_bridge(runs=12, max_n=max_n, steps=20, seed=seed).measured
        assert measured == per_step_bridge_measurements(12, max_n, 20, seed)  # bit for bit


def per_sweep_sinkhorn(state, max_iters=1000, tol=1e-9):
    """``sinkhorn_project`` as first written: every check and residual takes
    its own row and column sums."""
    h = np.asarray(state, dtype=float).copy()
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("Sinkhorn input must be finite")
    if np.any(h < 0):
        raise ValueError("Sinkhorn input must be nonnegative")
    if np.any(h.sum(axis=1) == 0) or np.any(h.sum(axis=0) == 0):
        raise NoSupportError("input has an all-zero row or column")
    residual = birkhoff_residual(h)
    if residual <= tol:
        return h, 0, residual, True
    for iteration in range(1, max_iters + 1):
        h /= h.sum(axis=1, keepdims=True)
        h /= h.sum(axis=0, keepdims=True)
        residual = birkhoff_residual(h)
        if residual <= tol:
            return h, iteration, residual, True
    return h, max_iters, residual, False


def outcome(project, state, **kwargs):
    try:
        result = project(state, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)
    if project is sinkhorn_project:
        result = (result.matrix, result.iterations, result.residual, result.converged)
    matrix, iterations, residual, converged = result
    # Bytes, so that a NaN residual compares equal to itself.
    return matrix.tobytes(), matrix.shape, iterations, np.float64(residual).tobytes(), converged


def sinkhorn_inputs():
    rng = np.random.default_rng(71)
    for n in range(1, 8):
        for _ in range(4):
            yield rng.random((n, n)) + 1e-3
            sparse = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
            yield sparse + np.eye(n)[rng.permutation(n)]  # keeps total support
            yield sparse  # may lack total support, or have a zero line
    yield np.array([[1.0, 1.0], [0.0, 1.0]])  # no total support: exhausts the budget
    yield np.diag([1.0, 1.0, 0.5])
    yield np.eye(4)
    yield [[2.0, 1.0], [1.0, 2.0]]  # a list
    yield np.array([[1e308, 1e308], [1.0, 1.0]])  # row sums overflow to inf
    # Errors, each input faulty in more than one way to pin their order.
    yield np.array([[np.nan, -1.0], [0.0, 0.0]])  # non-finite before negative
    yield np.array([[np.inf, 1.0], [1.0, 1.0]])
    yield np.array([[-1.0, 0.0], [0.0, 1.0]])  # negative before zero line
    yield np.array([[1.0, 1.0], [0.0, 0.0]])  # zero row
    yield np.array([[1.0, 0.0], [1.0, 0.0]])  # zero column
    yield np.zeros((0, 0))  # no lines at all
    yield np.array([[np.nan, -1.0, 0.0]])  # non-square before non-finite
    yield np.ones(3)
    yield np.ones((2, 2, 2))


def test_sinkhorn_keeps_the_per_sweep_results_and_errors():
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing input
        for state in sinkhorn_inputs():
            for kwargs in ({"max_iters": 100}, {"max_iters": 0}, {"max_iters": 3}, {"tol": 1e-3}):
                expected = outcome(per_sweep_sinkhorn, state, **kwargs)
                assert outcome(sinkhorn_project, state, **kwargs) == expected


def stack_outcomes(result):
    """Each matrix's ``outcome`` fields, read from a ``sinkhorn_project_stack`` result."""
    n = result.matrix.shape[-1]
    assert result.matrix.shape[:-2] == result.iterations.shape == result.residual.shape == result.converged.shape
    return [
        (matrix.tobytes(), matrix.shape, int(iterations), np.float64(residual).tobytes(), bool(converged))
        for matrix, iterations, residual, converged in zip(
            result.matrix.reshape(-1, n, n),
            result.iterations.ravel().tolist(),
            result.residual.ravel().tolist(),
            result.converged.ravel().tolist(),
        )
    ]


def mixed_stack(rng, count=64):
    """``count`` 2-by-2 matrices that leave the sweep loop at different
    sweeps, or never: every kind below at least four times, the rest random."""
    kinds = [
        np.full((2, 2), 0.5),  # doubly stochastic: no sweep
        np.eye(2)[::-1],
        np.array([[1.0, 1.0], [1.0, 0.0]]),  # converges as O(1/k)
        np.array([[1e308, 1e308], [1.0, 1.0]]),  # row sums overflow to inf
        np.array([[1.0, 1.0], [0.0, 1.0]]),  # no total support: exhausts any budget
    ]
    stack = kinds * 4 + [rng.random((2, 2)) + 1e-3 for _ in range(count - 4 * len(kinds))]
    return np.array(stack)[rng.permutation(count)]


SWEEP_BUDGETS = ({}, {"max_iters": 3}, {"max_iters": 0}, {"max_iters": 100}, {"tol": 1e-3})


def test_a_stack_of_one_keeps_the_single_matrix_results_and_errors():
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing input
        for state in sinkhorn_inputs():
            state = np.asarray(state, dtype=float)
            if state.ndim != 2 or state.shape[0] != state.shape[1]:
                continue
            for kwargs in SWEEP_BUDGETS:
                expected = outcome(sinkhorn_project, state, **kwargs)
                try:
                    got = stack_outcomes(sinkhorn_project_stack(state[None], **kwargs))[0]
                except ValueError as exc:
                    got = type(exc), str(exc)
                assert got == expected


def test_a_mixed_stack_keeps_each_matrix_results():
    rng = np.random.default_rng(73)
    stacks = [mixed_stack(rng)]
    for n in (3, 5):
        sparse = rng.random((64, n, n)) * (rng.random((64, n, n)) < 0.6)
        stacks.append(sparse + np.eye(n)[[rng.permutation(n) for _ in range(64)]])  # keeps total support
        stacks.append(rng.random((64, n, n)) + 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):  # the overflowing inputs
        for stack in stacks:
            before = stack.tobytes()
            for kwargs in SWEEP_BUDGETS:
                expected = [outcome(sinkhorn_project, matrix, **kwargs) for matrix in stack]
                assert stack_outcomes(sinkhorn_project_stack(stack, **kwargs)) == expected
            assert stack.tobytes() == before  # the input is copied
        mixed = sinkhorn_project_stack(stacks[0])
    # The 2-by-2 stack holds matrices that stop at sweep 0, at many later
    # sweeps, and never within the budget.
    assert {0, 1000} < set(mixed.iterations.tolist())
    assert len(set(mixed.iterations.tolist())) > 10
    assert not mixed.converged.all()


def test_a_stack_keeps_its_leading_shape():
    rng = np.random.default_rng(74)
    stack = rng.random((2, 3, 4, 4)) + 1e-3
    stack[1, 2] = np.eye(4)
    result = sinkhorn_project_stack(stack)
    assert result.matrix.shape == (2, 3, 4, 4)
    assert result.iterations.shape == result.residual.shape == result.converged.shape == (2, 3)
    assert result.iterations[1, 2] == 0
    assert stack_outcomes(result) == [outcome(sinkhorn_project, matrix) for matrix in stack.reshape(6, 4, 4)]


def test_projection_bits_do_not_depend_on_memory_layout():
    # Both projections copy their input in C order: numpy sums a contiguous
    # row of 8 or more entries in another order than a strided one.
    rng = np.random.default_rng(76)
    for n in (3, 8, 12):
        stack = rng.random((2, 3, n, n)) + 1e-3
        expected = [outcome(sinkhorn_project, matrix) for matrix in stack.reshape(6, n, n)]
        wide = np.zeros((2, 3, n, 2 * n))
        wide[..., ::2] = stack
        for layout in (np.asfortranarray(stack), wide[..., ::2], np.swapaxes(np.swapaxes(stack, 2, 3).copy(), 2, 3)):
            assert stack_outcomes(sinkhorn_project_stack(layout)) == expected
            assert [outcome(sinkhorn_project, layout[i, j]) for i in range(2) for j in range(3)] == expected


@pytest.mark.parametrize(
    "bad",
    (
        np.array([[np.nan, 1.0], [1.0, 1.0]]),
        np.array([[np.inf, 1.0], [1.0, 1.0]]),
        np.array([[-1.0, 1.0], [1.0, 1.0]]),
        np.array([[1.0, 1.0], [0.0, 0.0]]),
        np.array([[1.0, 0.0], [1.0, 0.0]]),
    ),
)
def test_a_stack_with_one_faulty_matrix_raises_what_that_matrix_raises(bad):
    with pytest.raises(ValueError) as alone:
        sinkhorn_project(bad)
    stack = np.random.default_rng(75).random((16, 2, 2)) + 1e-3
    for index in (0, 9, 15):
        faulty = stack.copy()
        faulty[index] = bad
        with pytest.raises(ValueError) as stacked:
            sinkhorn_project_stack(faulty)
        assert type(stacked.value) is type(alone.value) and str(stacked.value) == str(alone.value)


def test_a_stack_needs_a_leading_axis_of_square_matrices():
    with pytest.raises(ValueError, match="expected a stack of square matrices"):
        sinkhorn_project_stack(np.eye(3))
    with pytest.raises(ValueError, match="expected a stack of square matrices"):
        sinkhorn_project_stack(np.ones((2, 2, 3)))
    empty = sinkhorn_project_stack(np.ones((0, 3, 3)))
    assert empty.matrix.shape == (0, 3, 3) and empty.iterations.shape == (0,)


def per_matrix_sinkhorn_check(runs, seed):
    """``check_sinkhorn``'s measurements from one (5, 5) draw and one
    projection per matrix."""
    rng = np.random.default_rng(seed)
    unconverged = 0
    sum_error = 0.0
    for _ in range(runs):
        result = sinkhorn_project(rng.random((5, 5)) + 1e-3)
        unconverged += not result.converged
        sum_error = np.maximum(sum_error, np.abs(result.matrix.sum(axis=0) - 1.0).max())
        sum_error = np.maximum(sum_error, np.abs(result.matrix.sum(axis=1) - 1.0).max())
    pinned = sinkhorn_project(np.diag([1.0, 1.0, 0.5])).matrix
    return unconverged, np.float64(sum_error).tobytes(), pinned.tobytes(), np.allclose(pinned, np.eye(3), atol=1e-9)


@pytest.mark.parametrize("runs", (1, 7, 200))
def test_sinkhorn_check_draws_and_measures_as_a_per_matrix_loop(runs):
    # verify's seed for C07, and two more.
    for seed in (20260812, 3, 2**63 + 5):
        stacked, single = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(stacked.random((runs, 5, 5)), [single.random((5, 5)) for _ in range(runs)])
        assert stacked.bit_generator.state == single.bit_generator.state
        measured = check_sinkhorn(runs=runs, seed=seed).measured
        got = (
            measured["unconverged"],
            np.float64(measured["sum_error"]).tobytes(),
            measured["pinned"].tobytes(),
            measured["identity_ok"],
        )
        assert got == per_matrix_sinkhorn_check(runs, seed)
