from __future__ import annotations

import io
import math

import numpy as np
import pytest

from revealtrack.automaton import (
    PermutationMixture,
    Pfsa,
    Symbol,
    belief_trajectory,
    belief_update,
    one_hot,
    random_automaton,
    reveal_only,
    sample_trajectory,
    transition_only,
    write_automaton,
)
from revealtrack.checks import check_oracle_equivalence
from revealtrack.joint import (
    JointLinearState,
    MassUnderflowError,
    arrangement_automaton,
    joint_decode,
    joint_init,
    joint_step,
    mixture_symbol,
    placement_reveal_symbol,
    _gather,
)
from revealtrack.perm import Mixture, Permutation, compose, lex_index, symmetric_group, transposition
from revealtrack.scenarios import absorbing_automaton, adversarial_joint_scenario, noisy_swap_s3

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


def test_exact_mass_outlives_h():
    # 1200 cycles halve the message's mass to 2**-1200, below float64's
    # smallest subnormal; the power-of-two exponent carries it exactly.
    scenario = adversarial_joint_scenario(1200)
    state = joint_init(scenario.initial)
    for symbol in scenario.steps:
        state = joint_step(state, scenario.automaton, symbol)
    assert abs(state.log_mass - 1200 * math.log(0.5)) <= 1e-12 * 1200 * math.log(2)
    fraction, shift = math.frexp(state.mass)
    assert fraction == 0.5 and shift + state.exponent == -1199
    assert np.array_equal(joint_decode(state), [0.0, 0.5, 0.5])


def test_rescale_keeps_the_message():
    # Below 2**-512 a step scales h by a power of two into mass [1/2, 1):
    # the message h * 2**exponent and the log mass carry on unchanged.
    a = absorbing_automaton()
    state = JointLinearState(np.array([0.0, 2.0**-513, 2.0**-513]), 0.0)
    mixed = joint_step(state, a, a.symbol_index("mix"))
    assert mixed.exponent == 0 and mixed.mass == 2.0**-512
    revealed = joint_step(mixed, a, a.symbol_index("reveal"))
    assert np.array_equal(revealed.h, [0.0, 0.25, 0.25]) and revealed.exponent == -512
    assert revealed.log_mass == math.log(0.5)


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
            log_product += math.log(float(np.add.reduce(a.symbols[s].mask * belief)))
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


def test_joint_init_restarts_from_a_prior():
    # A full reset starts the tracker again at a prior, whatever it held before.
    uniform = np.full(6, 1.0 / 6.0)
    reset = joint_init(uniform)
    assert np.array_equal(reset.h, uniform)
    assert abs(reset.log_mass) <= 1e-12
    pinned = joint_init(one_hot(6, 4))
    assert np.array_equal(pinned.h, one_hot(6, 4)) and pinned.log_mass == 0.0


def test_joint_init_rejects_a_bad_prior():
    for prior, entry in (
        ([np.nan, 1.0], "entry 0 is nan"),
        ([-1.0, 2.0], "entry 0 is -1.0"),
        ([1.0, np.inf], "entry 1 is inf"),
    ):
        with pytest.raises(ValueError, match=entry):
            joint_init(np.array(prior))
    zero = joint_init(np.zeros(3))  # a decayed state stays representable
    assert zero.mass == 0.0 and zero.log_mass == -math.inf


@pytest.mark.parametrize("h, entry", [([np.nan, 1.0], "entry 0 is nan"), ([1.0, -2.0], "entry 1 is -2.0")])
def test_joint_state_rejects_a_bad_message(h, entry):
    # The constructor checks what joint_init checks, so a NaN is never
    # stepped into a log mass of -inf that reads as decay.
    with pytest.raises(ValueError, match=entry):
        JointLinearState(np.array(h), 0.0)


def test_joint_state_rejects_a_complex_message():
    # Cast to float, the message would silently lose its imaginary part.
    with pytest.raises(ValueError, match="complex dtype"):
        JointLinearState(np.array([1 + 1j, 1.0]), 0.0)
    with pytest.raises(ValueError, match="complex dtype"):
        joint_init(np.array([0.5 + 0j, 0.5]))


def test_joint_state_rejects_a_matrix_message():
    # A 3x3 message would otherwise step, sum all nine entries as its mass
    # and decode to a matrix.
    with pytest.raises(ValueError, match=r"message must be a vector, got shape \(3, 3\)"):
        joint_init(np.ones((3, 3)))
    with pytest.raises(ValueError, match="must be a vector"):
        JointLinearState(np.ones((3, 3)), 0.0)


@pytest.mark.parametrize("exponent", [1.5, True])
def test_joint_state_rejects_an_exponent_that_is_not_an_int(exponent):
    # A float exponent would build and fail later in math.ldexp.
    with pytest.raises(ValueError, match="is not an int"):
        JointLinearState(np.ones(3), 0.0, exponent)


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
    # The automaton is over n items: a symbol over 4 items is an error, not
    # another state.
    mix4 = mixture_symbol(4, [(transposition(4, 0, 1), 1.0)], name="mix4")
    with pytest.raises(ValueError, match="symbol 'mix4' has 24 states, expected 3! = 6"):
        arrangement_automaton(3, [mix4])


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


def test_trusted_mixture_symbol_equals_the_checked_construction():
    # mixture_symbol adopts its gathers and the Mixture's weights without
    # the PermutationMixture checks; the checked constructor, given the
    # same gathers and weights, must build an equal symbol.
    rng = np.random.default_rng(43)
    for n in (2, 3, 4):
        group = symmetric_group(n)
        for action in ("position", "element"):
            for g in group:
                others = rng.choice(len(group), size=int(rng.integers(0, 3)), replace=False)
                components = [g] + [group[int(i)] for i in others]
                weights = rng.dirichlet(np.ones(len(components)))
                mixture = Mixture(tuple(zip(components, weights.tolist())))
                symbol = mixture_symbol(n, mixture, action=action)
                checked = PermutationMixture([_gather(action, p.mapping) for p in components], mixture.weights)
                reference = Symbol("mix", checked, frozenset(range(math.factorial(n))))
                assert symbol == reference and hash(symbol) == hash(reference), (n, action, g)
                kernel = symbol.transition
                assert kernel.sources.dtype == np.intp
                assert not kernel.sources.flags.writeable and not kernel.weights.flags.writeable
                assert [w for w, _ in kernel._terms] == [w for w, _ in checked._terms]


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
    gather, dense = io.StringIO(), io.StringIO()
    write_automaton(a, gather)
    write_automaton(dense_equivalent(a), dense)
    assert gather.getvalue() == dense.getvalue()
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
