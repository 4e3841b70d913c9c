from __future__ import annotations

import math

import numpy as np
import pytest

from revealtrack.perm import (
    Mixture,
    Permutation,
    compose,
    identity,
    inverse,
    lex_index,
    lex_indices,
    one_line_table,
    sample_uniform,
    symmetric_group,
    to_matrix,
    transposition,
)


def test_identity_basic():
    assert identity(3).mapping == (0, 1, 2)
    assert identity(1).mapping == (0,)
    with pytest.raises(ValueError):
        identity(0)


def test_identity_is_neutral():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = sample_uniform(5, rng)
        assert compose(identity(5), p) == p
        assert compose(p, identity(5)) == p


def test_invalid_mapping_rejected():
    with pytest.raises(ValueError):
        Permutation((0, 0, 2))
    with pytest.raises(ValueError):
        Permutation((1, 2, 3))
    with pytest.raises(ValueError):
        Permutation(())


@pytest.mark.parametrize(
    "pairs, message",
    [
        ((), "at least one component"),
        (((identity(3), 0.6), (transposition(3, 0, 1), 0.6)), "not a distribution"),
        (((identity(3), -0.5), (transposition(3, 0, 1), 1.5)), "not a distribution"),
        (((identity(3), np.nan), (transposition(3, 0, 1), 0.5)), "not finite"),
        (((identity(3), np.inf), (transposition(3, 0, 1), 0.5)), "not finite"),
        (((identity(3), -np.inf), (transposition(3, 0, 1), 0.5)), "not finite"),
        (((identity(3), 0.5), (transposition(4, 0, 1), 0.5)), "act on different sizes"),
    ],
)
def test_mixture_rejects_invalid_components(pairs, message):
    with pytest.raises(ValueError, match=message):
        Mixture(pairs)


def test_swap_composed_with_itself_is_identity():
    swap = transposition(4, 0, 1)
    assert compose(swap, swap) == identity(4)


def test_cup_shuffle_sequence():
    # Swapping slots (0,1), then (1,2), then (0,2) rearranges (1,2,3)
    # into (1,3,2).
    swaps = [transposition(3, 0, 1), transposition(3, 1, 2), transposition(3, 0, 2)]
    cumulative = identity(3)
    for s in swaps:
        cumulative = compose(cumulative, s)
    # to_matrix(p) @ items moves the item in slot i to slot p(i)
    assert (to_matrix(cumulative) @ (1, 2, 3)).tolist() == [1, 3, 2]
    # intermediate layouts
    assert (to_matrix(swaps[0]) @ (1, 2, 3)).tolist() == [2, 1, 3]
    assert (to_matrix(compose(swaps[0], swaps[1])) @ (1, 2, 3)).tolist() == [2, 3, 1]


def test_compose_matches_stepwise_application():
    # Composing 64 random transpositions must equal moving the items by
    # each transposition's matrix in turn.
    rng = np.random.default_rng(42)
    n = 7
    items = list(range(100, 100 + n))
    expected = np.array(items, dtype=float)
    cumulative = identity(n)
    for _ in range(64):
        i, j = rng.choice(n, size=2, replace=False)
        t = transposition(n, int(i), int(j))
        expected = to_matrix(t) @ expected
        cumulative = compose(cumulative, t)
    assert np.array_equal(to_matrix(cumulative) @ items, expected)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_transposition_examples():
    assert transposition(3, 0, 1).mapping == (1, 0, 2)
    with pytest.raises(ValueError):
        transposition(3, 1, 1)
    with pytest.raises(ValueError):
        transposition(3, 0, 3)
    swap = transposition(5, 2, 4)
    assert inverse(swap) == swap


def test_transposition_matrix_swaps_rows():
    expected = np.eye(3)[[0, 2, 1]]
    assert np.array_equal(to_matrix(transposition(3, 1, 2)), expected)


def test_to_matrix_identity_and_action():
    assert np.array_equal(to_matrix(identity(3)), np.eye(3))
    p = Permutation((2, 0, 1))
    m = to_matrix(p)
    for j in range(3):
        e = np.zeros(3)
        e[j] = 1.0
        moved = np.zeros(3)
        moved[p(j)] = 1.0
        assert np.array_equal(m @ e, moved)


def test_to_matrix_homomorphism_exhaustive():
    # Matrix composition reverses application order: M(p then q) = M(q) M(p).
    for n in (3, 4):
        for p in symmetric_group(n):
            for q in symmetric_group(n):
                assert np.array_equal(
                    to_matrix(compose(p, q)), to_matrix(q) @ to_matrix(p)
                )


def test_permutation_matrix_is_doubly_stochastic():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m = to_matrix(sample_uniform(6, rng))
        assert np.array_equal(m.sum(axis=0), np.ones(6))
        assert np.array_equal(m.sum(axis=1), np.ones(6))


def test_group_laws_random_triples():
    rng = np.random.default_rng(7)
    for n in range(2, 9):
        for _ in range(25):
            p, q, r = (sample_uniform(n, rng) for _ in range(3))
            assert compose(compose(p, q), r) == compose(p, compose(q, r))
            assert compose(p, inverse(p)) == identity(n)
            assert compose(inverse(p), p) == identity(n)


def test_sample_uniform_deterministic():
    a = sample_uniform(8, np.random.default_rng(123))
    b = sample_uniform(8, np.random.default_rng(123))
    assert a == b
    assert sample_uniform(1, np.random.default_rng(0)) == identity(1)


def test_sample_uniform_frequencies():
    # 60,000 draws from S_3: each of the 6 elements has expected count
    # 10,000 with sigma = sqrt(N p (1-p)) = sqrt(60000 * 5/36) ~ 91.287.
    draws = 60_000
    rng = np.random.default_rng(2026)
    counts = {p.mapping: 0 for p in symmetric_group(3)}
    for _ in range(draws):
        counts[sample_uniform(3, rng).mapping] += 1
    bound = 3.0 * math.sqrt(draws * (1 / 6) * (5 / 6))
    for mapping, count in counts.items():
        assert abs(count - draws / 6) <= bound, (mapping, count)


def test_sample_uniform_always_valid():
    rng = np.random.default_rng(5)
    for _ in range(100_000):
        sample_uniform(6, rng)  # constructor validates bijectivity


def test_symmetric_group_enumeration():
    group = symmetric_group(3)
    assert len(group) == 6
    assert [p.mapping for p in group] == sorted(p.mapping for p in group)
    assert group[0] == identity(3)
    for index, p in enumerate(group):
        assert lex_index(p) == index
    for n in range(1, 9):
        assert np.array_equal(lex_indices(one_line_table(n)), np.arange(math.factorial(n)))
    for build in (symmetric_group, one_line_table):
        with pytest.raises(ValueError, match="n must be >= 1"):
            build(0)
