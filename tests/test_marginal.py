from __future__ import annotations

import numpy as np
import pytest

from revealtrack.checks import (
    check_kronecker,
    check_marginal_bridge,
    check_sinkhorn,
    check_swap_reveal_decay,
)
from revealtrack.marginal import (
    MixSpec,
    NoSupportError,
    RevealSpec,
    bilinear_step,
    birkhoff_residual,
    joint_to_marginal,
    marginal_init,
    marginal_mix,
    marginal_reveal,
    reveal_operators,
    sinkhorn_project,
    vectorized_step,
)
from revealtrack.perm import Permutation, identity, sample_uniform, symmetric_group, to_matrix, transposition

HALF_SWAP_12 = MixSpec(((identity(3), 0.5), (transposition(3, 1, 2), 0.5)))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_mix_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="not finite"):
        MixSpec(((identity(3), bad), (transposition(3, 0, 1), 0.5)))


def _per_call_realized(mix: MixSpec) -> np.ndarray:
    """P_s built from scratch, as every mix step once did."""
    out = np.zeros((mix.n, mix.n))
    for p, w in mix.components:
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
    assert repr(mix) == f"MixSpec(components={components!r})"


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


def test_repeated_cycle_halves_unrevealed_entry():
    assert check_swap_reveal_decay().measured["floors"] == [0.5, 0.25, 0.125]


def test_vectorized_matches_bilinear():
    assert check_kronecker(runs=1000, seed=9).measured["gap"] <= 1e-12


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
    direct = bilinear_step(h, p_s @ d_l, d_r, inject)
    vectorized = vectorized_step(h, p_s @ d_l, d_r, inject)
    assert np.abs(direct - vectorized).max() <= 1e-12


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


def test_sinkhorn_random_positive_matrices():
    measured = check_sinkhorn(runs=1000, seed=13).measured
    assert measured["unconverged"] == 0
    assert measured["sum_error"] <= 1e-9  # worst row or column sum of every matrix


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


def test_mixing_bridge_joint_vs_marginal():
    measured = check_marginal_bridge(runs=40, max_n=4, steps=20, seed=2025).measured
    assert measured["mixing_error"] <= 1e-9  # every step of every run
