from __future__ import annotations

import io
import itertools
import math
import pickle

import numpy as np
import pytest

from revealtrack.automaton import (
    AutomatonFormatError,
    DeadEndError,
    InconsistentObservationError,
    PermutationMixture,
    Pfsa,
    Symbol,
    all_states,
    belief_trajectory,
    belief_update,
    joint_discretization_count,
    loads_automaton,
    marginal_discretization_count,
    one_hot,
    random_automaton,
    read_automaton,
    reveal_only,
    sample_trajectory,
    transition_only,
    write_automaton,
)
from revealtrack.joint import placement_reveal_symbol
from revealtrack.perm import compose, identity, sample_uniform, to_matrix
from revealtrack.scenarios import hidden_swap_automaton


def document(a: Pfsa) -> str:
    """The text ``write_automaton`` writes for ``a``."""
    sink = io.StringIO()
    write_automaton(a, sink)
    return sink.getvalue()


def enumerated_posterior(a: Pfsa, symbols) -> np.ndarray:
    """Brute-force oracle: sum over every state trajectory consistent with
    the reveals, weighted by the product of transition probabilities."""
    t = len(symbols)
    weights = np.zeros(a.m)
    for path in itertools.product(range(a.m), repeat=t):
        states = (a.q0,) + path
        weight = 1.0
        for k, sym in enumerate(symbols):
            if states[k] not in a.symbols[sym].reveal:
                weight = 0.0
                break
            weight *= a.symbols[sym].transition[states[k + 1], states[k]]
        weights[states[-1]] += weight
    total = weights.sum()
    assert total > 0, "no consistent trajectory"
    return weights / total


def test_belief_update_matches_trajectory_enumeration():
    rng = np.random.default_rng(101)
    for _ in range(30):
        m = int(rng.integers(2, 5))
        a = random_automaton(m, int(rng.integers(2, 4)), rng)
        symbols = sample_trajectory(a, 6, rng).symbols
        expected = enumerated_posterior(a, symbols)
        got = belief_trajectory(a, symbols)[-1]
        assert np.abs(got - expected).max() <= 1e-12


def scaled_forward_messages(a: Pfsa, symbols) -> np.ndarray:
    """Independently coded forward pass: unnormalized messages rescaled by
    their max entry each step (a different normalization schedule), with
    one final sum-normalization per step for comparison."""
    alpha = one_hot(a.m, a.q0)
    out = [alpha / alpha.sum()]
    for sym in symbols:
        keep = np.zeros(a.m)
        keep[list(a.symbols[sym].reveal)] = 1.0
        alpha = a.symbols[sym].transition @ (keep * alpha)
        alpha = alpha / alpha.max()
        out.append(alpha / alpha.sum())
    return np.array(out)


def test_belief_update_matches_scaled_forward_pass():
    rng = np.random.default_rng(909)
    for _ in range(100):
        m = int(rng.integers(2, 6))
        a = random_automaton(m, int(rng.integers(2, 4)), rng)
        symbols = sample_trajectory(a, 50, rng).symbols
        gap = np.abs(belief_trajectory(a, symbols) - scaled_forward_messages(a, symbols)).max()
        assert gap <= 1e-9


def test_vacuous_reveal_is_identity():
    a = Pfsa((reveal_only(3, {0, 1, 2}, name="noop"),), q0=0)
    b = np.array([0.2, 0.3, 0.5])
    assert np.array_equal(belief_update(a, b, 0), b)


def test_zero_mass_reveal_raises():
    a = Pfsa((reveal_only(2, {1}, name="pin"),), q0=0)
    with pytest.raises(InconsistentObservationError):
        belief_update(a, one_hot(2, 0), 0)


def test_belief_update_preserves_simplex():
    rng = np.random.default_rng(55)
    for _ in range(10_000):
        m = int(rng.integers(2, 6))
        a = random_automaton(m, int(rng.integers(1, 4)), rng)
        b = rng.dirichlet(np.ones(m))
        options = [
            s for s in range(len(a.symbols))
            if (a.symbols[s].mask * b).sum() > 0
        ]
        sym = options[int(rng.integers(len(options)))]
        out = belief_update(a, b, sym)
        assert np.all(out >= 0)
        assert abs(out.sum() - 1.0) <= 1e-12


def test_dfa_embedding_tracks_composition():
    # Permutation kernels with vacuous reveals reduce the filter to a DFA:
    # one-hot beliefs follow the composed permutation exactly.
    rng = np.random.default_rng(77)
    n = 5
    perms = [sample_uniform(n, rng) for _ in range(4)]
    symbols = tuple(
        transition_only(n, to_matrix(p), name=f"p{k}") for k, p in enumerate(perms)
    )
    a = Pfsa(symbols, q0=2)
    picks = [int(rng.integers(len(perms))) for _ in range(30)]
    beliefs = belief_trajectory(a, picks)
    cumulative = identity(n)
    state = 2
    for t, pick in enumerate(picks, start=1):
        cumulative = compose(cumulative, perms[pick])
        state = perms[pick](state)
        expected = one_hot(n, cumulative(2))
        assert state == cumulative(2)
        assert np.array_equal(beliefs[t], expected)


def test_trajectory_consistency_constraint():
    rng = np.random.default_rng(31)
    for _ in range(50):
        a = random_automaton(int(rng.integers(2, 6)), 3, rng)
        traj = sample_trajectory(a, 25, rng)
        assert len(traj.states) == 26
        for t, sym in enumerate(traj.symbols):
            assert traj.states[t] in a.symbols[sym].reveal


def test_trajectory_deterministic_and_single_state():
    a = Pfsa((transition_only(1, [[1.0]], name="stay"),), q0=0)
    traj = sample_trajectory(a, 10, np.random.default_rng(0))
    assert traj.states == (0,) * 11
    b = random_automaton(4, 3, np.random.default_rng(9))
    t1 = sample_trajectory(b, 20, np.random.default_rng(4))
    t2 = sample_trajectory(b, 20, np.random.default_rng(4))
    assert t1 == t2


def test_trajectory_dead_end():
    # State 1 is reachable but no symbol reveals it.
    kernel = np.array([[0.0, 0.0], [1.0, 1.0]])
    sym = Symbol("drift", kernel, frozenset({0}))
    a = Pfsa((sym,), q0=0)
    with pytest.raises(DeadEndError):
        sample_trajectory(a, 5, np.random.default_rng(0))


def test_empirical_transition_frequencies():
    # A kernel whose columns are identical makes successive states i.i.d.
    # draws from that column; check 3-sigma multinomial bounds over 1e5.
    column = np.array([0.5, 0.3, 0.2])
    kernel = np.tile(column[:, None], (1, 3))
    a = Pfsa((transition_only(3, kernel, name="jump"),), q0=0)
    draws = 100_000
    traj = sample_trajectory(a, draws, np.random.default_rng(12))
    counts = np.bincount(traj.states[1:], minlength=3)
    for i, p in enumerate(column):
        sigma = math.sqrt(draws * p * (1 - p))
        assert abs(counts[i] - draws * p) <= 3 * sigma, (i, counts[i])


def test_invalid_symbols_and_automata_do_not_construct():
    with pytest.raises(ValueError, match="column 0 sums to 0.999"):
        Symbol("wonky", np.array([[0.5, 0.5], [0.499, 0.5]]), frozenset({0}))
    with pytest.raises(ValueError, match="reveal set is empty"):
        Symbol("mute", np.eye(2), frozenset())
    for reveal in ({0, 2}, {-1}, {10**30}):
        with pytest.raises(ValueError, match="outside range"):
            Symbol("far", np.eye(2), frozenset(reveal))
    with pytest.raises(ValueError, match="q0=5"):
        Pfsa((Symbol("id", np.eye(2), frozenset({0})),), q0=5)
    with pytest.raises(ValueError, match="negative"):
        Symbol("neg", np.array([[1.5, 0.0], [-0.5, 1.0]]), frozenset({0}))
    with pytest.raises(ValueError, match=r"must be square, got \(2, 3\)"):
        Symbol("wide", np.ones((2, 3)) / 2, frozenset({0}))
    for name in ("", "two words", "#hash"):
        with pytest.raises(ValueError, match="symbol name"):
            Symbol(name, np.eye(2), frozenset({0}))
    pin, step = Symbol("pin", np.eye(2), frozenset({0})), Symbol("step", np.eye(3), frozenset({0}))
    for symbols, message in (
        ((), "needs at least one symbol"),
        ((pin, step), r"disagree on state count: \[2, 3\]"),
        ((pin, pin), "names must be unique"),
    ):
        with pytest.raises(ValueError, match=message):
            Pfsa(symbols, q0=0)
    a = hidden_swap_automaton()  # a valid automaton builds
    with pytest.raises(KeyError, match="'absent'"):
        a.symbol_index("absent")


def test_symbol_keeps_a_frozenset_of_ints():
    states = frozenset({0, 2})
    kept = Symbol("kept", np.eye(3), states)
    assert kept.reveal is states
    np.testing.assert_array_equal(kept.mask, [1.0, 0.0, 1.0])
    for given in ({0, 2}, [2, 0], frozenset({np.int64(0), np.int64(2)}), frozenset({0, np.int64(2)})):
        built = Symbol("kept", np.eye(3), given)
        assert type(built.reveal) is frozenset
        assert all(type(q) is int for q in built.reveal)
        assert built == kept and hash(built) == hash(kept)
        np.testing.assert_array_equal(built.mask, kept.mask)


def test_symbol_folds_its_kernel_and_shares_the_mask_of_every_state():
    everything = all_states(3)
    assert everything == frozenset(range(3)) and all_states(3) is everything
    t = np.array([[0.5, 0.0, 0.25], [0.5, 0.5, 0.25], [0.0, 0.5, 0.5]])
    full = Symbol("full", t, everything)
    assert full.mask is Symbol("eye", np.eye(3), everything).mask
    assert not full.mask.flags.writeable and full.mask.tolist() == [1.0, 1.0, 1.0]
    assert full.folded_kernel is full.transition
    # An equal set that is not the shared one is scanned and gets its own mask.
    again = Symbol("again", t, frozenset(range(3)))
    assert again.mask is not full.mask and again.mask.tolist() == [1.0, 1.0, 1.0] and again == Symbol("again", t, everything)
    pruned = Symbol("pruned", t, frozenset({0, 2}))
    assert pruned.folded_kernel.tobytes() == (t * pruned.mask).tobytes()
    assert not pruned.folded_kernel.flags.writeable
    assert Symbol("mix", PermutationMixture([[1, 2, 0]], [1.0]), everything).folded_kernel is None
    with pytest.raises(ValueError, match=r"reveals state 2, outside range\(2\)"):
        Symbol("small", np.eye(2), everything)


def _apply_cases(rng, m):
    """Finite vectors over m states: zeros, -0.0, negatives, large and tiny
    magnitudes, as contiguous arrays, as strided, reversed and broadcast
    views, and as float32 and integer arrays."""
    base = rng.standard_normal(3 * m) * 10.0 ** rng.integers(-300, 300, 3 * m)
    base[rng.random(3 * m) < 0.2] = 0.0
    base[rng.random(3 * m) < 0.2] = -0.0
    return [
        base[:m],
        base[::3],
        base[::-1][:m],
        base[1::2][:m],
        np.broadcast_to(base[2:3], (m,)),
        np.abs(base[:m]),
        np.zeros(m),
        -np.zeros(m),
        np.clip(base[:m], -1e30, 1e30).astype(np.float32),
        rng.integers(-3, 4, m),
    ]


def test_apply_matches_the_pruned_product_bit_for_bit():
    # Each step Symbol.apply chooses gives the bits of T @ (z * v).
    rng = np.random.default_rng(17)
    symbols = []
    for m in range(1, 9):
        for _ in range(6):
            # Column-stochastic, with zero and -0.0 entries.
            t = rng.random((m, m))
            zero = rng.random((m, m)) < 0.3
            t[zero] = 0.0
            t[zero & (rng.random((m, m)) < 0.3)] = -0.0
            t[rng.integers(m, size=m), np.arange(m)] += 1.0
            t /= t.sum(axis=0)
            sources = np.array([rng.permutation(m) for _ in range(rng.integers(1, 5))])
            kernel = PermutationMixture(sources, rng.dirichlet(np.ones(len(sources))))
            partial = frozenset(np.flatnonzero(rng.random(m) < 0.5).tolist()) or {m - 1}
            for reveal in (partial, frozenset(range(m))):
                symbols += [Symbol("dense", t, reveal), Symbol("mix", kernel, reveal)]
        symbols.append(Symbol("eye", np.eye(m), frozenset(range(0, m, 2))))
        symbols.append(Symbol("gather", PermutationMixture([np.arange(m)], [1.0]), frozenset({m - 1})))
    for n in (2, 3, 4):
        symbols += [placement_reveal_symbol(n, p, e) for p in range(n) for e in range(n)]

    for sym in symbols:
        copy = pickle.loads(pickle.dumps(sym))  # the chosen step pickles too
        for v in _apply_cases(rng, sym.m):
            out = sym.apply(v)
            expected = sym.transition @ (sym.mask * v)
            assert out.dtype == expected.dtype == np.float64
            assert out.tobytes() == expected.tobytes() == copy.apply(v).tobytes(), (sym, v)
            assert not np.shares_memory(out, v) and out.flags.writeable


def test_symbol_rejects_non_finite_kernel():
    for kernel in ([[np.nan, 0.0], [np.nan, 1.0]], [[np.inf, 0.0], [0.0, 1.0]], [[-np.inf, 0.0], [2.0, 1.0]]):
        with pytest.raises(ValueError, match="non-finite"):
            Symbol("bad", kernel, frozenset({0, 1}))


def test_nan_kernel_cannot_reach_belief_update():
    def update():
        a = Pfsa((Symbol("nan", [[np.nan, 0.0], [np.nan, 1.0]], frozenset({0, 1})),), q0=0)
        return belief_update(a, one_hot(2, 0), 0)

    with pytest.raises(ValueError, match="non-finite"):
        update()


def test_permutation_mixture_rejects_invalid_components():
    swap = [[1, 0, 2], [0, 1, 2]]
    mix = Symbol("mix", PermutationMixture(swap, [0.25, 0.75]), frozenset({0}))
    assert repr(mix.transition) == "PermutationMixture(k=2, m=3)"
    assert mix != "mix"  # a symbol compares only with symbols
    for weights, message in (
        ([np.nan, 1.0], "non-finite"),
        ([np.inf, 0.0], "non-finite"),
        ([-0.25, 1.25], "negative"),
        ([0.25, 0.7], "sums to"),
    ):
        with pytest.raises(ValueError, match=message):
            PermutationMixture(swap, weights)
    for sources in ([[1, 1, 2]], [[0, 1, 3]], [[0, 1, -1]]):
        with pytest.raises(ValueError, match="index row 0 is not a permutation of range"):
            PermutationMixture(sources, [1.0])
    with pytest.raises(ValueError, match="index row 1"):
        PermutationMixture([[0, 1, 2], [2, 2, 0]], [0.5, 0.5])
    for sources in ([0, 1, 2], [[0.0, 1.0, 2.0]]):
        with pytest.raises(ValueError, match=r"sources must be a \(k, m\) integer array"):
            PermutationMixture(sources, [1.0])
    with pytest.raises(ValueError, match=r"2 index rows but weights of shape \(1,\)"):
        PermutationMixture(swap, [1.0])


def test_sample_transition_skips_zero_probability_tail():
    # Column 0 sums to 1 - 5e-13, which a Symbol accepts; a draw just below
    # 1 lands past its total and must go to state 1, not to state 2.
    kernel = np.array([[0.6, 0.0, 0.0], [0.4 - 5e-13, 1.0, 0.0], [0.0, 0.0, 1.0]])
    a = Pfsa((Symbol("leaky", kernel, frozenset({0, 1, 2})),), q0=0)

    class TopDraw:
        def random(self) -> float:
            return 1.0 - 2.0 ** -53

        def integers(self, high: int) -> int:
            return high - 1

    # State 0 goes to 1, where the top draw stays.
    assert sample_trajectory(a, 3, TopDraw()).states == (0, 1, 1, 1)


def test_sample_trajectory_matches_per_step_draws():
    # The reference searches each step's dense column afresh. Kernels with
    # zeros, entries too small to move a running sum, and columns a little
    # short of 1 must give the same states from the same draws.
    def reference(a, steps, rng):
        q, states, chosen = a.q0, [a.q0], []
        for _ in range(steps):
            options = [i for i, sym in enumerate(a.symbols) if q in sym.reveal]
            s = options[rng.integers(len(options))]
            col = np.asarray(a.symbols[s].transition)[:, q]
            nxt = int(np.searchsorted(np.cumsum(col), rng.random(), side="right"))
            q = nxt if nxt < a.m else int(np.flatnonzero(col)[-1])
            chosen.append(s)
            states.append(q)
        return tuple(states), tuple(chosen)

    meta = np.random.default_rng(4)
    for _ in range(40):
        m = int(meta.integers(2, 7))
        symbols = []
        for k in range(3):
            t = meta.random((m, m)) * (meta.random((m, m)) < 0.5)
            t[meta.integers(m, size=m), np.arange(m)] += 1.0
            t /= t.sum(axis=0)
            t[meta.integers(m), :] *= meta.choice([1.0, 1e-300])
            t /= t.sum(axis=0)
            t *= 1.0 - 4e-13 * meta.random(m)
            reveal = range(m) if k == 0 else np.flatnonzero(meta.random(m) < 0.6)
            symbols.append(Symbol(f"s{k}", t, frozenset(int(q) for q in reveal) or {0}))
        a = Pfsa(tuple(symbols), q0=int(meta.integers(m)))
        seed = int(meta.integers(2**32))
        got = sample_trajectory(a, 60, np.random.default_rng(seed))
        assert (got.states, got.symbols) == reference(a, 60, np.random.default_rng(seed))


def test_special_symbol_builders():
    vacuous = reveal_only(3, {0, 1, 2})
    assert np.array_equal(vacuous.transition, np.eye(3))
    stepper = transition_only(3, np.eye(3)[[1, 2, 0]])
    assert stepper.reveal == frozenset({0, 1, 2})
    assert np.array_equal(stepper.mask, np.ones(3))
    with pytest.raises(ValueError):
        reveal_only(3, set())
    with pytest.raises(ValueError):
        reveal_only(3, {5})
    with pytest.raises(ValueError):
        transition_only(2, [[0.9, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match=r"expected a 3x3 matrix, got \(2, 2\)"):
        transition_only(3, np.eye(2))
    with pytest.raises(ValueError, match="at least one symbol"):
        random_automaton(3, 0, np.random.default_rng(0))


def test_discretization_counts():
    assert joint_discretization_count(3) == 64
    assert joint_discretization_count(1) == 2
    assert marginal_discretization_count(10, 10) == 10**81
    assert marginal_discretization_count(2, 5) == 5
    with pytest.raises(ValueError):
        marginal_discretization_count(3, 1)
    with pytest.raises(ValueError, match="n must be >= 1"):
        joint_discretization_count(0)
    with pytest.raises(ValueError, match="n must be >= 1"):
        marginal_discretization_count(0, 2)


def test_document_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(88)
    for k in range(10):
        a = random_automaton(int(rng.integers(2, 6)), int(rng.integers(1, 4)), rng)
        path = tmp_path / f"auto{k}.pfsa"
        write_automaton(a, path)
        back = read_automaton(path)
        assert back.q0 == a.q0
        assert len(back.symbols) == len(a.symbols)
        for s1, s2 in zip(a.symbols, back.symbols):
            assert s1 == s2  # includes bit-exact transition comparison
    # string path as well
    text = document(hidden_swap_automaton())
    assert loads_automaton(text) == hidden_swap_automaton()


def test_document_errors():
    with pytest.raises(AutomatonFormatError):
        loads_automaton("not a pfsa\n")
    with pytest.raises(AutomatonFormatError):
        loads_automaton("pfsa v2\nstates 1\nq0 0\n")
    good = document(hidden_swap_automaton())
    truncated = "\n".join(good.splitlines()[:-1])
    with pytest.raises(AutomatonFormatError):
        loads_automaton(truncated)
    with pytest.raises(AutomatonFormatError):
        loads_automaton(good.replace("0.5 0.5", "0.5 frog", 1))
    head = "pfsa v1\nstates 2\nq0 0\n"
    with pytest.raises(AutomatonFormatError, match="end of document, wanted 'q0'"):
        loads_automaton("pfsa v1\nstates 2\n")
    with pytest.raises(AutomatonFormatError, match="invalid literal"):
        loads_automaton("pfsa v1\nstates two\nq0 0\n")
    with pytest.raises(AutomatonFormatError, match="bad reveal set for 's'"):
        loads_automaton(head + "symbol s\nreveal zero\nT\n1.0 0.0\n0.0 1.0\n")
    with pytest.raises(AutomatonFormatError, match="row of length 1, expected 2"):
        loads_automaton(head + "symbol s\nreveal 0\nT\n1.0\n0.0 1.0\n")
    with pytest.raises(AutomatonFormatError, match="defines no symbols"):
        loads_automaton(head)
    # Blank lines may end a document but not split it.
    assert loads_automaton(good + "\n \n") == hidden_swap_automaton()
    first, second = good.split("symbol check")
    with pytest.raises(AutomatonFormatError, match="line 10: 'symbol check' follows a blank line"):
        loads_automaton(first + "\nsymbol check" + second)


def test_loads_rejects_invalid_automata():
    head = "pfsa v1\nstates 2\nq0 {q0}\nsymbol s\nreveal {reveal}\nT\n{kernel}\n"
    for q0, reveal, kernel, message in (
        (0, "0", "0.9 0.0\n0.0 1.0", "column 0 sums to"),
        (0, "0", "1.5 0.0\n-0.5 1.0", "negative"),
        (0, "", "1.0 0.0\n0.0 1.0", "reveal set is empty"),
        (0, "0 2", "1.0 0.0\n0.0 1.0", "reveals state 2, outside range"),
        (2, "0", "1.0 0.0\n0.0 1.0", "q0=2 out of range"),
    ):
        with pytest.raises(AutomatonFormatError, match=message):
            loads_automaton(head.format(q0=q0, reveal=reveal, kernel=kernel))


def test_loads_rejects_non_finite_kernel():
    for kernel in ("nan 0.0\nnan 1.0", "inf 0.0\n0.0 1.0"):
        with pytest.raises(AutomatonFormatError):
            loads_automaton(f"pfsa v1\nstates 2\nq0 0\nsymbol s\nreveal 0\nT\n{kernel}\n")


def test_read_write_file_object():
    buf = io.StringIO()
    write_automaton(hidden_swap_automaton(), buf)
    buf.seek(0)
    assert read_automaton(buf) == hidden_swap_automaton()
