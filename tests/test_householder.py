from __future__ import annotations

import itertools

import numpy as np
import pytest

from revealtrack.householder import HouseholderStep, run_recurrence, swap_head
from revealtrack.perm import compose, identity, to_matrix, transposition


def householder_matrix(step: HouseholderStep) -> np.ndarray:
    return np.eye(step.n) - step.beta * np.outer(step.key, step.key)


def test_two_dimensional_swap_matrix():
    step = swap_head(2, 0, 1)
    assert np.abs(householder_matrix(step) - np.array([[0, 1], [1, 0]])).max() <= 1e-12


def test_beta_zero_is_identity():
    key = np.zeros(4)
    key[1] = 1.0
    step = HouseholderStep(0.0, key)
    assert np.array_equal(householder_matrix(step), np.eye(4))


def test_spectrum_by_direct_action():
    rng = np.random.default_rng(3)
    for beta in (0.0, 0.5, 1.0, 2.0):
        key = rng.standard_normal(6)
        key /= np.linalg.norm(key)
        a = householder_matrix(HouseholderStep(beta, key))
        assert np.abs(a @ key - (1.0 - beta) * key).max() <= 1e-10
        ortho = rng.standard_normal(6)
        ortho -= (ortho @ key) * key
        ortho /= np.linalg.norm(ortho)
        assert np.abs(a @ ortho - ortho).max() <= 1e-10


def test_symmetry_and_involution_at_beta_two():
    rng = np.random.default_rng(4)
    for _ in range(20):
        key = rng.standard_normal(5)
        key /= np.linalg.norm(key)
        a = householder_matrix(HouseholderStep(2.0, key))
        assert np.abs(a - a.T).max() <= 1e-12
        assert np.abs(a @ a - np.eye(5)).max() <= 1e-12


def test_swap_head_matches_transposition_matrix():
    for n in (3, 5, 8):
        for i in range(n):
            for j in range(i + 1, n):
                got = householder_matrix(swap_head(n, i, j))
                want = to_matrix(transposition(n, i, j))
                assert np.abs(got - want).max() <= 1e-12


def test_swap_applied_twice_restores_state():
    rng = np.random.default_rng(7)
    h0 = rng.random((5, 5))
    step = swap_head(5, 1, 3)
    assert np.abs(run_recurrence([step, step], h0) - h0).max() <= 1e-12


def test_rank_one_step_matches_dense_matrix():
    # run_recurrence applies H - (beta k)(k^T H); the dense matrix is the reference.
    rng = np.random.default_rng(23)
    for n in (2, 8, 64):
        for _ in range(50):
            key = rng.standard_normal(n)
            key /= np.linalg.norm(key)
            step = HouseholderStep(float(rng.uniform(0.0, 2.0)), key)
            for h in (rng.standard_normal((n, n)), rng.standard_normal((n, 3)), rng.standard_normal(n)):
                got = run_recurrence([step], h)
                assert got.shape == h.shape
                assert np.abs(got - householder_matrix(step) @ h).max() <= 1e-14


def test_validation():
    with pytest.raises(ValueError):
        swap_head(4, 2, 2)
    with pytest.raises(ValueError):
        swap_head(4, 0, 4)
    with pytest.raises(ValueError):
        HouseholderStep(1.0, np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        HouseholderStep(2.5, np.array([1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="not finite"):
            HouseholderStep(1.0, np.array([bad, 0.0]))
    with pytest.raises(ValueError, match="key must be a vector"):
        HouseholderStep(1.0, np.eye(2))


def test_swap_head_shares_one_step_per_argument_triple():
    step = swap_head(6, 1, 4)
    assert swap_head(6, 1, 4) is step
    assert swap_head(6, 4, 1) is not step  # the key's sign differs
    assert not step.key.flags.writeable
    with pytest.raises(ValueError):
        step.key[0] = 1.0
    # Invalid arguments raise on every call; no failure is stored.
    before = swap_head.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError):
            swap_head(6, 2, 2)
        with pytest.raises(ValueError):
            swap_head(6, 0, 6)
        with pytest.raises(TypeError):
            swap_head(6.0, 1, 4)  # not the cached int entry
    assert swap_head.cache_info().currsize == before


def test_empty_recurrence_returns_start():
    h0 = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(run_recurrence([], h0), h0)
    with pytest.raises(ValueError):
        run_recurrence([swap_head(4, 0, 1)], h0)


def test_recurrence_composes_exhaustive_small_sequences():
    pairs = [(0, 1), (0, 2), (1, 2)]
    for length in range(6):
        for sequence in itertools.product(pairs, repeat=length):
            cumulative = identity(3)
            steps = []
            for i, j in sequence:
                cumulative = compose(cumulative, transposition(3, i, j))
                steps.append(swap_head(3, i, j))
            got = run_recurrence(steps, np.eye(3))
            assert np.abs(got - to_matrix(cumulative)).max() <= 1e-12


def test_capped_gates_cannot_realize_a_swap():
    # With beta <= 1 every step has nonnegative determinant 1 - beta, so the
    # product determinant stays >= 0 while any swap matrix has determinant -1.
    rng = np.random.default_rng(13)
    swap = to_matrix(transposition(4, 0, 2))
    for _ in range(50):
        steps = []
        for _ in range(12):
            key = rng.standard_normal(4)
            key /= np.linalg.norm(key)
            steps.append(HouseholderStep(float(rng.uniform(0.0, 1.0)), key))
        assert min(1.0 - step.beta for step in steps) >= 0.0
        product = run_recurrence(steps, np.eye(4))
        assert np.linalg.det(product) >= -1e-12
        assert np.abs(product - swap).max() > 1e-6


def reference_recurrence(steps, h0):
    # The rank-1 step as beta * (k (k^T H)): the scaled-key step must match it
    # bit for bit at power-of-two gates and within the last bit otherwise.
    h = np.asarray(h0, dtype=float).copy()
    for step in steps:
        k = step.key
        h -= step.beta * np.multiply.outer(k, k @ h)
    return h


def test_swap_head_recurrence_matches_reference_bit_for_bit():
    rng = np.random.default_rng(29)
    for n in (2, 8, 16, 17, 24, 64, 128):
        first = rng.integers(n, size=2048)
        second = (first + rng.integers(1, n, size=2048)) % n
        steps = [swap_head(n, i, j) for i, j in zip(first.tolist(), second.tolist())]
        for h0 in (rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal((n, 3))):
            assert np.array_equal(run_recurrence(steps, h0), reference_recurrence(steps, h0))


def test_each_step_picks_its_update_form_by_its_key_support():
    rng = np.random.default_rng(37)
    assert swap_head(8, 2, 5)._rows is None  # dense: C09's size
    key = rng.standard_normal(64)
    assert HouseholderStep(2.0, key / np.linalg.norm(key))._rows is None
    root = 1.0 / np.sqrt(2.0)
    assert swap_head(64, 2, 5)._rows == ((2, 2.0 * root), (5, -2.0 * root))
    assert swap_head(64, 5, 2)._rows == ((2, -2.0 * root), (5, 2.0 * root))


def test_mixed_update_forms_match_reference_bit_for_bit():
    # One sequence at n = 64 whose steps take both forms: swaps and two-entry
    # keys by rows, full-support keys dense.
    rng = np.random.default_rng(41)
    n = 64
    for beta in (1.0, 2.0):
        steps = []
        for t in range(768):
            if t % 3 == 0:
                i, j = rng.choice(n, size=2, replace=False).tolist()
                steps.append(HouseholderStep(beta, swap_head(n, i, j).key))
            elif t % 3 == 1:
                key = np.zeros(n)
                key[rng.choice(n, size=2, replace=False)] = rng.standard_normal(2)
                steps.append(HouseholderStep(beta, key / np.linalg.norm(key)))
            else:
                key = rng.standard_normal(n)
                steps.append(HouseholderStep(beta, key / np.linalg.norm(key)))
        assert {step._rows is None for step in steps} == {True, False}
        for h0 in (rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal((n, 3))):
            assert np.array_equal(run_recurrence(steps, h0), reference_recurrence(steps, h0))


def test_row_form_leaves_rows_outside_the_key_alone():
    # At n = 3 a swap of 0 and 1 steps dense and turns the -0.0 of row 2
    # into +0.0: k^T h is negative, 0 times it is -0.0, and -0.0 - -0.0 is
    # +0.0. By rows, at n = 24, that row keeps its sign, and the rows the
    # swap touches get the dense form's bits.
    h0 = np.array([-0.0, 3.0, -0.0])
    assert swap_head(3, 0, 1)._rows is None
    dense = run_recurrence([swap_head(3, 0, 1)], h0)
    assert dense[2] == 0.0 and not np.signbit(dense[2])
    wide = np.zeros(24)
    wide[:3] = h0
    assert swap_head(24, 0, 1)._rows is not None
    by_rows = run_recurrence([swap_head(24, 0, 1)], wide)
    assert by_rows[:2].tobytes() == dense[:2].tobytes()
    assert by_rows[2] == 0.0 and np.signbit(by_rows[2])


def test_random_gate_recurrence_stays_within_last_bits_of_reference():
    rng = np.random.default_rng(31)
    for n in (2, 8, 64):
        steps = []
        for _ in range(256):
            key = rng.standard_normal(n)
            key /= np.linalg.norm(key)
            steps.append(HouseholderStep(float(rng.uniform(0.0, 2.0)), key))
        for h0 in (rng.standard_normal(n), rng.standard_normal((n, n)), rng.standard_normal((n, 3))):
            gap = np.abs(run_recurrence(steps, h0) - reference_recurrence(steps, h0)).max()
            assert gap <= 1e-14


def test_recurrence_rejects_a_state_that_is_neither_vector_nor_matrix():
    with pytest.raises(ValueError, match=r"shape \(3, 3, 3\)"):
        run_recurrence([swap_head(3, 0, 1)], np.arange(27.0).reshape(3, 3, 3))
    with pytest.raises(ValueError, match=r"shape \(\)"):
        run_recurrence([swap_head(3, 0, 1)], np.float64(1.0))


def test_recurrence_rejects_a_complex_state():
    # Cast to float, the state would silently lose its imaginary part.
    with pytest.raises(ValueError, match="complex dtype"):
        run_recurrence([swap_head(2, 0, 1)], np.array([1 + 2j, 3]))


def test_recurrence_rejects_a_non_finite_state():
    # Dense, a swap of 0 and 1 turned [inf, 0, 1] into [nan, inf, nan]: row
    # 2, which it does not touch, took 0 * inf.
    for bad in (np.inf, np.nan):
        for n in (3, 64):
            h0 = np.arange(float(n))
            h0[0] = bad
            with pytest.raises(ValueError, match="not finite"):
                run_recurrence([swap_head(n, 0, 1)], h0)
    with pytest.raises(ValueError, match="not finite"):
        run_recurrence([], np.array([[1.0, -np.inf], [0.0, 1.0]]))


def test_step_rejects_a_gate_or_key_that_is_not_real():
    for beta in (True, np.bool_(False), 1 + 0j, "2"):
        with pytest.raises(ValueError, match="is not a real number"):
            HouseholderStep(beta, [1.0, 0.0])
    with pytest.raises(ValueError, match="complex dtype"):
        HouseholderStep(2.0, np.array([1.0 + 0j, 0.0]))
    assert HouseholderStep(np.float64(2.0), [1.0, 0.0]) == HouseholderStep(2, [1.0, 0.0])


def test_steps_compare_and_hash_by_gate_and_key():
    a = HouseholderStep(2.0, [1.0, 0.0])
    b = HouseholderStep(2.0, [1.0, 0.0])
    assert a == b and a in [b] and hash(a) == hash(b)
    assert {a, b} == {a}
    signed_zero = HouseholderStep(2.0, [1.0, -0.0])
    assert signed_zero == a and hash(signed_zero) == hash(a)
    assert HouseholderStep(1.0, [1.0, 0.0]) != a
    assert HouseholderStep(2.0, [0.0, 1.0]) != a
    assert a != (2.0, [1.0, 0.0])
    # The update form is derived from the key, and neither compares nor hashes.
    wide = swap_head(24, 0, 1)
    dense = HouseholderStep(2.0, wide.key)
    object.__setattr__(dense, "_rows", None)
    assert wide._rows is not None
    assert dense == wide and hash(dense) == hash(wide)
    assert "_rows" not in repr(wide)


def test_scaled_key_is_the_gated_key_and_read_only():
    step = swap_head(5, 0, 3)
    assert np.array_equal(step.scaled_key, 2.0 * step.key)
    assert not step.scaled_key.flags.writeable
    with pytest.raises(ValueError):
        step.scaled_key[0] = 1.0
    assert "scaled_key" not in repr(step)
