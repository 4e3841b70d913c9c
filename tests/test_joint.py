from __future__ import annotations

import math

import numpy as np
import pytest

from revealtrack.automaton import (
    Pfsa,
    Symbol,
    belief_trajectory,
    belief_update,
    dumps_automaton,
    one_hot,
    random_automaton,
    reveal_only,
    sample_trajectory,
    transition_only,
)
from revealtrack.checks import check_oracle_equivalence
from revealtrack.joint import (
    JointLinearState,
    MassUnderflowError,
    arrangement_automaton,
    gated_reset,
    joint_decode,
    joint_init,
    joint_step,
    mixture_symbol,
    placement_reveal_symbol,
    survival,
)
from revealtrack.perm import Permutation, compose, lex_index, symmetric_group, transposition
from revealtrack.scenarios import absorbing_automaton, noisy_swap_s3

# The worked three-item example numbers its arrangements 1..6 as the lists
# [1,2,3], [2,1,3], [3,2,1], [1,3,2], [2,3,1], [3,1,2]; this table maps that
# ordering onto the package's lexicographic element->position indexing.
ARRANGEMENT_ORDER = (0, 2, 5, 1, 4, 3)


def reorder(h: np.ndarray) -> np.ndarray:
    return h[list(ARRANGEMENT_ORDER)]


def test_absorbing_cycle_values():
    a = absorbing_automaton()
    state = joint_init(np.array([0.0, 0.5, 0.5]))
    state = joint_step(state, a, a.symbol_index("mix"))
    assert np.array_equal(state.h, [0.5, 0.25, 0.25])
    state = joint_step(state, a, a.symbol_index("reveal"))
    assert np.array_equal(state.h, [0.0, 0.25, 0.25])
    state = joint_step(state, a, a.symbol_index("mix"))
    state = joint_step(state, a, a.symbol_index("reveal"))
    assert np.array_equal(state.h, [0.0, 0.125, 0.125])
    assert np.array_equal(joint_decode(state), [0.0, 0.5, 0.5])
    assert state.mass == 0.25


def test_vacuous_symbol_keeps_state():
    a = Pfsa((reveal_only(3, {0, 1, 2}, name="noop"),), q0=0)
    state = joint_init(np.array([0.1, 0.2, 0.3]))
    stepped = joint_step(state, a, 0)
    assert np.array_equal(stepped.h, state.h)
    assert stepped.log_mass == state.log_mass


def test_noisy_swap_worked_example():
    a = noisy_swap_s3()
    state = joint_init(one_hot(6, a.q0))
    state = joint_step(state, a, a.symbol_index("fuzzy_swap"))
    assert np.array_equal(reorder(state.h), [0.0, 0.5, 0.5, 0.0, 0.0, 0.0])
    state = joint_step(state, a, a.symbol_index("observe"))
    assert np.array_equal(reorder(state.h), [0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
    # The surviving arrangement is [3,2,1]: element 0 at position 2 and
    # element 2 at position 0.
    assert np.array_equal(joint_decode(state), one_hot(6, lex_index(Permutation((2, 1, 0)))))


def test_fuzzy_swap_matrix_matches_hand_computation():
    a = noisy_swap_s3()
    t = np.asarray(a.symbols[a.symbol_index("fuzzy_swap")].transition)
    hand = np.array(
        [
            [0.0, 0.5, 0.5, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.5, 0.0],
            [0.5, 0.0, 0.0, 0.0, 0.0, 0.5],
            [0.0, 0.0, 0.0, 0.0, 0.5, 0.5],
            [0.0, 0.5, 0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5, 0.0, 0.0],
        ]
    )
    order = list(ARRANGEMENT_ORDER)
    assert np.array_equal(t[np.ix_(order, order)], hand)


def test_decode_one_hot_and_underflow():
    state = joint_init(one_hot(4, 2))
    assert np.array_equal(joint_decode(state), one_hot(4, 2))
    dead = JointLinearState(np.zeros(3), -math.inf)
    with pytest.raises(MassUnderflowError):
        joint_decode(dead)


def test_zero_state_is_representable():
    a = Pfsa((reveal_only(2, {1}, name="pin"),), q0=0)
    state = joint_step(joint_init(one_hot(2, 0)), a, 0)
    assert np.array_equal(state.h, [0.0, 0.0])
    assert state.log_mass == -math.inf
    again = joint_step(state, a, 0)  # stepping a dead state stays dead
    assert np.array_equal(again.h, [0.0, 0.0])


def test_survival_examples():
    a = absorbing_automaton()
    assert survival(a, np.array([0.5, 0.25, 0.25]), a.symbol_index("reveal")) == 0.5
    assert survival(a, np.array([0.5, 0.25, 0.25]), a.symbol_index("mix")) == 1.0
    assert survival(a, one_hot(3, 0), a.symbol_index("reveal")) == 0.0


def per_step_oracle_measurements(runs, max_m, steps, seed):
    """The oracle check as first written: decode, survival and error fold
    at every step."""
    rng = np.random.default_rng(seed)
    decode_error = 0.0
    telescope_error = 0.0
    log_mass_error = 0.0
    for _ in range(runs):
        m = int(rng.integers(2, max_m + 1))
        a = random_automaton(m, int(rng.integers(2, 4)), rng)
        symbols = sample_trajectory(a, steps, rng).symbols
        exact = belief_trajectory(a, symbols)
        state = joint_init(one_hot(a.m, a.q0))
        belief = joint_decode(state)
        log_product = 0.0
        for t, s in enumerate(symbols, start=1):
            log_product += math.log(survival(a, belief, s))
            state = joint_step(state, a, s)
            belief = joint_decode(state)
            decode_error = np.maximum(decode_error, np.abs(belief - exact[t]).max())
        product = math.exp(log_product)
        telescope_error = np.maximum(telescope_error, abs(state.mass - product) / product)
        log_mass_error = np.maximum(log_mass_error, abs(state.log_mass - log_product))
    return {"decode_error": decode_error, "telescope_error": telescope_error, "log_mass_error": log_mass_error}


@pytest.mark.parametrize("max_m", (2, 5, 8))
def test_oracle_check_folds_the_same_bits_as_a_per_step_loop(max_m):
    for seed in (1, 20260810, 99):
        measured = check_oracle_equivalence(runs=25, max_m=max_m, steps=40, seed=seed).measured
        expected = per_step_oracle_measurements(25, max_m, 40, seed)
        assert measured.keys() == expected.keys()
        for key, value in expected.items():
            assert measured[key] == value, key  # bit for bit, not within a tolerance


def test_gated_reset():
    state = JointLinearState(np.array([1e-30, 0.0, 2e-30, 0.0, 0.0, 0.0]), -68.0)
    uniform = np.full(6, 1.0 / 6.0)
    reset = gated_reset(state, uniform)
    assert np.array_equal(reset.h, uniform)
    assert abs(reset.log_mass) <= 1e-12
    pinned = gated_reset(state, one_hot(6, 4))
    assert np.array_equal(pinned.h, one_hot(6, 4))


def test_mixture_symbol_validation():
    with pytest.raises(ValueError):
        mixture_symbol(3, [(transposition(3, 0, 1), 0.7), (transposition(3, 0, 2), 0.7)])
    with pytest.raises(KeyError):
        mixture_symbol(3, [(transposition(3, 0, 1), 1.0)], action="sideways")
    with pytest.raises(ValueError, match="act on 4 items, expected 3"):
        mixture_symbol(3, [(transposition(4, 0, 1), 1.0)])


def test_position_action_mixture_is_column_stochastic_permutation_blend():
    group = symmetric_group(3)
    sym = mixture_symbol(3, [(group[1], 0.25), (group[4], 0.75)], action="position")
    t = np.asarray(sym.transition)
    assert np.allclose(t.sum(axis=0), 1.0)
    assert set(np.unique(t)) <= {0.0, 0.25, 0.75}


def test_placement_reveal_symbol():
    sym = placement_reveal_symbol(3, position=0, element=2)
    keep = {i for i, c in enumerate(symmetric_group(3)) if c(2) == 0}
    assert sym.reveal == keep
    assert np.array_equal(np.asarray(sym.transition), np.eye(6))
    with pytest.raises(ValueError):
        placement_reveal_symbol(3, position=3, element=0)


def test_arrangement_automaton_start_state():
    sym = placement_reveal_symbol(3, 0, 0)
    a = arrangement_automaton(3, [sym])
    assert a.q0 == 0
    b = arrangement_automaton(3, [sym], q0=Permutation((2, 1, 0)))
    assert b.q0 == lex_index(Permutation((2, 1, 0)))


def test_dfa_embedding_constant_mass():
    stepper = transition_only(3, np.eye(3)[[1, 2, 0]], name="rot")
    a = Pfsa((stepper,), q0=0)
    state = joint_init(one_hot(3, 0))
    for _ in range(100):
        state = joint_step(state, a, 0)
        assert state.mass == 1.0
        assert sorted(state.h) == [0.0, 0.0, 1.0]


def dense_equivalent(a: Pfsa) -> Pfsa:
    """The same automaton with every kernel stored as a dense matrix."""
    return Pfsa(tuple(Symbol(s.name, np.asarray(s.transition), s.reveal) for s in a.symbols), a.q0)


def random_mixture(n: int, k: int, rng: np.random.Generator):
    group = symmetric_group(n)
    picks = rng.choice(len(group), size=min(k, len(group)), replace=False)
    weights = rng.dirichlet(np.ones(len(picks)))
    return [(group[int(i)], float(w)) for i, w in zip(picks, weights)]


def test_mixture_kernel_matches_per_state_construction():
    # Reference: T[index(act(g, c)), index(c)] += w, state by state.
    actions = {"position": lambda g, c: compose(c, g), "element": lambda g, c: compose(g, c)}
    rng = np.random.default_rng(41)
    for n in range(1, 6):
        states = symmetric_group(n)
        for action, act in actions.items():
            for k in (1, 2, 4):
                components = random_mixture(n, k, rng)
                reference = np.zeros((len(states), len(states)))
                for g, w in components:
                    for c in states:
                        reference[lex_index(act(g, c)), lex_index(c)] += w
                kernel = mixture_symbol(n, components, action=action).transition
                assert np.array_equal(np.asarray(kernel), reference), (n, action, k)


def test_gather_apply_matches_dense():
    rng = np.random.default_rng(42)
    for n in range(2, 6):
        symbols = [
            mixture_symbol(n, random_mixture(n, k, rng), action=action)
            for action in ("position", "element")
            for k in (1, 2, 4)
        ]
        symbols += [placement_reveal_symbol(n, int(rng.integers(n)), int(rng.integers(n)))]
        for sym in symbols:
            dense = np.asarray(sym.transition)
            for _ in range(5):
                v = rng.dirichlet(np.ones(sym.m))
                assert np.abs(sym.apply(v) - dense @ (sym.mask * v)).max() <= 1e-15


def test_gather_and_dense_trajectories_agree():
    rng = np.random.default_rng(43)
    for n in (3, 4, 5):
        symbols = [
            mixture_symbol(n, random_mixture(n, 2, rng), name="mix2"),
            mixture_symbol(n, random_mixture(n, 4, rng), action="element", name="mix4"),
            placement_reveal_symbol(n, 0, int(rng.integers(n))),
        ]
        gather = arrangement_automaton(n, symbols)
        dense = dense_equivalent(gather)
        for seed in range(5):
            got = sample_trajectory(gather, 60, np.random.default_rng(seed))
            assert got == sample_trajectory(dense, 60, np.random.default_rng(seed))


def test_gather_document_matches_dense():
    a = noisy_swap_s3()
    assert dumps_automaton(a) == dumps_automaton(dense_equivalent(a))
    assert a == noisy_swap_s3() and hash(a.symbols[0]) == hash(noisy_swap_s3().symbols[0])
    assert a.symbols[0] != dense_equivalent(a).symbols[0]


def test_joint_run_at_n8():
    n, rng = 8, np.random.default_rng(44)
    a = arrangement_automaton(
        n,
        [
            mixture_symbol(n, random_mixture(n, 2, rng), name="mix2"),
            mixture_symbol(n, random_mixture(n, 4, rng), name="mix4"),
            placement_reveal_symbol(n, 3, 5),
        ],
    )
    assert a.m == 40320
    assert sum(s.transition.nbytes for s in a.symbols) < 10_000_000
    stream = sample_trajectory(a, 200, rng).symbols
    assert stream.count(2) >= 10  # the reveal prunes the belief repeatedly
    b = one_hot(a.m, a.q0)
    state = joint_init(b)
    for symbol in stream:
        b = belief_update(a, b, symbol)
        state = joint_step(state, a, symbol)
        assert np.abs(joint_decode(state) - b).max() <= 1e-12
