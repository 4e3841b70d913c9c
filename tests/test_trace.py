from __future__ import annotations

import contextlib
import io
import json
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from revealtrack import trace as trace_module
from revealtrack.perm import Permutation, identity, sample_uniform, transposition
from revealtrack.trace import (
    COMMAND_KINDS,
    CURRICULUM_STAGES,
    ELEMENTARY_SWAP,
    FULL_PERMUTATION,
    RevealMismatch,
    Trace,
    TraceConfig,
    TraceEvent,
    TraceParseError,
    build_trace,
    curriculum,
    derive_seed,
    execute,
    export_dataset,
    generate,
    parse,
    render,
    var_name,
)

# The canonical three-variable session: swap (a,b), (b,c), (a,c) with a
# reveal after every command, printing a, c, a.
SHELL_GAME_TEXT = (
    ">>> a = 1\n"
    ">>> b = 2\n"
    ">>> c = 3\n"
    ">>> a, b = b, a\n"
    ">>> print('a', a)\n"
    "a 2\n"
    ">>> b, c = c, b\n"
    ">>> print('c', c)\n"
    "c 1\n"
    ">>> a, c = c, a\n"
    ">>> print('a', a)\n"
    "a 1\n"
)


def shell_game_trace() -> Trace:
    config = TraceConfig(3, 3, 1, ELEMENTARY_SWAP, seed=0)
    commands = [transposition(3, 0, 1), transposition(3, 1, 2), transposition(3, 0, 2)]
    return build_trace(config, commands, reveal_vars=[0, 2, 0])


def test_config_validation():
    with pytest.raises(ValueError):
        TraceConfig(1, 5, 1, ELEMENTARY_SWAP, 0)
    with pytest.raises(ValueError):
        TraceConfig(27, 5, 1, ELEMENTARY_SWAP, 0)
    with pytest.raises(ValueError):
        TraceConfig(3, 0, 1, ELEMENTARY_SWAP, 0)
    with pytest.raises(ValueError):
        TraceConfig(3, 5, 0, ELEMENTARY_SWAP, 0)
    with pytest.raises(ValueError):
        TraceConfig(3, 5, 1, "sorted", 0)
    with pytest.raises(ValueError):
        TraceConfig(3, 5, 1, ELEMENTARY_SWAP, -1)


def test_shell_game_session_is_producible():
    trace = shell_game_trace()
    assert trace.text == SHELL_GAME_TEXT
    assert render(trace) == SHELL_GAME_TEXT
    assert trace.final_state == (1, 3, 2)
    reveals = [e for e in trace.events if e.kind == "reveal"]
    assert [(var_name(e.var), e.value) for e in reveals] == [("a", 2), ("c", 1), ("a", 1)]
    for (start, end), expected in zip(trace.reveal_spans, ("2", "1", "1")):
        assert trace.text[start:end] == expected


def test_shell_game_roundtrip_and_execution():
    trace = shell_game_trace()
    parsed = parse(trace.text)
    assert parsed.events == trace.events
    assert parsed.reveal_spans == trace.reveal_spans
    result = execute(parsed.events)
    assert result.final_state == (1, 3, 2)
    assert result.disagreements == ()


def test_session_with_leading_reveal_parses():
    # A reveal before any command is grammatical even though the generator
    # never emits one.
    text = (
        ">>> a = 1\n"
        ">>> b = 2\n"
        ">>> c = 3\n"
        ">>> print('a', a)\n"
        "a 1\n"
        ">>> a, b = b, a\n"
        ">>> print('a', a)\n"
        "a 2\n"
        ">>> b, c = c, b\n"
        ">>> print('c', c)\n"
        "c 1\n"
        ">>> a, c = c, a\n"
        ">>> print('a', a)\n"
        "a 1\n"
    )
    parsed = parse(text)
    result = execute(parsed.events)
    assert result.final_state == (1, 3, 2)
    assert result.disagreements == ()
    assert render(parsed) == text


def test_render_goldens():
    config = TraceConfig(3, 1, 1, FULL_PERMUTATION, seed=0)
    trace = build_trace(config, [Permutation((1, 2, 0))], reveal_vars=[1])
    lines = trace.text.splitlines()
    assert lines[0] == ">>> a = 1"
    assert lines[3] == ">>> a, b, c = b, c, a"
    assert lines[4] == ">>> print('b', b)"
    assert lines[5] == "b 3"
    assert not any(line != line.rstrip() for line in lines)
    assert trace.text.endswith("\n")


def test_boundary_command_counts():
    with pytest.raises(ValueError):
        TraceConfig(3, 0, 1, ELEMENTARY_SWAP, 0)
    config = TraceConfig(3, 1, 1, ELEMENTARY_SWAP, seed=5)
    trace = generate(config)
    kinds = [e.kind for e in trace.events]
    assert kinds.count("command") == 1
    assert kinds.count("reveal") == 1


def test_reveal_cadence():
    rng = np.random.default_rng(17)
    for _ in range(100):
        config = TraceConfig(
            n_vars=int(rng.integers(2, 6)),
            n_commands=int(rng.integers(1, 30)),
            reveal_spacing=int(rng.integers(1, 9)),
            command_kind=ELEMENTARY_SWAP,
            seed=int(rng.integers(0, 2**63)),
        )
        trace = generate(config)
        reveals = sum(1 for e in trace.events if e.kind == "reveal")
        assert reveals == config.n_commands // config.reveal_spacing


def test_generate_roundtrip_property():
    rng = np.random.default_rng(2027)
    for _ in range(800):
        config = TraceConfig(
            n_vars=int(rng.integers(2, 7)),
            n_commands=int(rng.integers(1, 41)),
            reveal_spacing=int(rng.integers(1, 9)),
            command_kind=ELEMENTARY_SWAP if rng.random() < 0.5 else FULL_PERMUTATION,
            seed=int(rng.integers(0, 2**63)),
        )
        trace = generate(config)
        parsed = parse(render(trace))
        assert parsed.events == trace.events
        assert parsed.final_state == trace.final_state
        result = execute(parsed.events)
        assert result.disagreements == ()
        for start, end in trace.reveal_spans:
            assert trace.text[start:end].isdigit()


def test_generate_deterministic():
    config = TraceConfig(5, 16, 2, FULL_PERMUTATION, seed=99)
    assert generate(config).text == generate(config).text


def reference_draws(
    config: TraceConfig, rng: np.random.Generator
) -> tuple[list[Permutation], list[int]]:
    """The draw loop as first written: one Permutation per slot, then the
    revealed variable when the slot ends a reveal window."""
    commands, reveal_vars = [], []
    for slot in range(1, config.n_commands + 1):
        if config.command_kind == ELEMENTARY_SWAP:
            i, j = (int(v) for v in rng.choice(config.n_vars, size=2, replace=False))
            commands.append(transposition(config.n_vars, i, j))
        else:
            p = sample_uniform(config.n_vars, rng)
            while p == identity(config.n_vars):
                p = sample_uniform(config.n_vars, rng)
            commands.append(p)
        if slot % config.reveal_spacing == 0:
            reveal_vars.append(int(rng.integers(config.n_vars)))
    return commands, reveal_vars


@pytest.mark.parametrize("kind", COMMAND_KINDS)
@pytest.mark.parametrize("n_vars", (2, 5, 8, 26))
def test_generate_keeps_the_reference_draws(kind, n_vars):
    for seed in (0, 1, 7, 2**63 + 5):
        for spacing in (1, 3):
            config = TraceConfig(n_vars, 40, spacing, kind, seed=seed)
            drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            expected = build_trace(config, *reference_draws(config, reference))
            assert generate(config, drawn) == expected
            # A generator that drew more than the reference would shift
            # every later draw of a caller that shares it.
            assert drawn.bit_generator.state == reference.bit_generator.state


class _CountingGenerator:
    """Forwards to a real generator, counting the methods called on it and
    recording the row count of each ``permuted`` call."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.calls: Counter[str] = Counter()
        self.permuted_rows: list[int] = []

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.rng, name)

    def permuted(self, x, axis=None, out=None):
        self.calls["permuted"] += 1
        self.permuted_rows.append(len(x))
        return self.rng.permuted(x, axis=axis, out=out)


def window_rounds(config: TraceConfig, seed: int) -> list[int]:
    """The rows of each batched draw when a reveal window draws all its
    commands at once and then, while any came out the identity, as many
    rows as it is short; read off per-slot ``rng.permutation(n)`` draws."""
    rng = np.random.default_rng(seed)
    n, spacing = config.n_vars, config.reveal_spacing
    rounds = []
    for start in range(0, config.n_commands, spacing):
        size = short = min(spacing, config.n_commands - start)
        while short:
            rounds.append(short)
            short -= sum(rng.permutation(n).tolist() != list(range(n)) for _ in range(short))
        if size == spacing:
            rng.integers(n)
    return rounds


@pytest.mark.parametrize("spacing", (1, 3, 8, 64))
@pytest.mark.parametrize("n_vars", (2, 3, 5))
def test_full_traces_take_one_permuted_call_per_window(n_vars, spacing):
    # 40 commands: a partial last window at spacing 3, five whole windows at
    # spacing 8, and one window without a reveal at spacing 64.
    windows = -(-40 // spacing)
    for seed in (0, 5, 2**63 + 5):
        config = TraceConfig(n_vars, 40, spacing, FULL_PERMUTATION, seed=seed)
        drawn, reference = _CountingGenerator(np.random.default_rng(seed)), np.random.default_rng(seed)
        assert generate(config, drawn) == build_trace(config, *reference_draws(config, reference))
        assert drawn.rng.bit_generator.state == reference.bit_generator.state
        assert drawn.calls["permutation"] == 0
        assert drawn.calls["integers"] == config.n_reveals
        rounds = window_rounds(config, seed)
        assert drawn.permuted_rows == rounds
        # Half of S_2 is the identity, so some window at n = 2 always redraws.
        assert len(rounds) > windows if n_vars == 2 else len(rounds) >= windows


def test_event_caches_stay_bounded():
    caches = [obj for obj in vars(trace_module).values() if hasattr(obj, "cache_info")]
    assert caches
    # 160 traces of 64 distinct commands at n = 26 overflow an 8192-entry cache.
    for index in range(160):
        config = TraceConfig(26, 64, 8, FULL_PERMUTATION, seed=derive_seed(3, 0, index))
        assert parse(generate(config).text).events == generate(config).events
    for cache in caches:
        info = cache.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, cache
    assert max(cache.cache_info().currsize for cache in caches) == trace_module._CACHE_SIZE


def test_parse_memo_never_stores_an_error():
    line = ">>> a, b, c, d, e = b, c, d, e, a"
    five = "".join(f">>> {var_name(i)} = {i + 1}\n" for i in range(5)) + line + "\n"
    three = ">>> a = 1\n>>> b = 2\n>>> c = 3\n" + line + "\n"

    def error(text):
        with pytest.raises(TraceParseError) as info:
            parse(text)
        return str(info.value), info.value.line, info.value.column

    trace_module._parse_line.cache_clear()
    fresh = error(three)
    assert fresh == ("line 4, column 14: unknown variable 'd'", 4, 14)
    # The memo holds the three init lines, and nothing for the command.
    assert trace_module._parse_line.cache_info().currsize == 3
    assert parse(five).final_state == (2, 3, 4, 5, 1)
    assert error(three) == fresh
    assert error(three.replace(">>> c = 3\n", ">>> c = 3\n>>> print('a', a)\na 1\n")) == (
        "line 6, column 14: unknown variable 'd'", 6, 14,
    )


def test_parse_neither_replays_nor_reassembles(monkeypatch):
    trace = generate(TraceConfig(5, 64, 8, FULL_PERMUTATION, seed=11))
    expected = execute(trace.events).final_state

    def fail(*args):
        raise AssertionError("parse builds the trace in its own walk")

    monkeypatch.setattr(trace_module, "execute", fail)
    monkeypatch.setattr(trace_module, "_assemble", fail)
    parsed = parse(trace.text)
    assert parsed.final_state == expected
    assert (parsed.text, parsed.reveal_spans) == (trace.text, trace.reveal_spans)


@pytest.mark.parametrize("spacing", (1, 3, 8))
@pytest.mark.parametrize("n_vars", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_parse_inverts_generate(kind, n_vars, spacing):
    # 1 to 36 commands: traces with no reveal, with a partial last window
    # and with whole windows only.
    for index in range(8):
        config = TraceConfig(n_vars, 1 + 5 * index, spacing, kind, seed=derive_seed(11, spacing, index))
        trace = generate(config)
        parsed = parse(trace.text)
        assert parsed.events == trace.events
        assert parsed.text == trace.text
        assert parsed.reveal_spans == trace.reveal_spans
        assert parsed.final_state == trace.final_state
        assert render(parsed) == parsed.text
        assert (parsed.config.n_vars, parsed.config.n_commands) == (n_vars, config.n_commands)
        assert parsed.config.reveal_spacing == (spacing if config.n_reveals else config.n_commands + 1)


@pytest.mark.parametrize("n_vars", (2, 3, 4, 5, 6))
@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_a_parsed_config_rebuilds_its_trace(kind, n_vars):
    # Traces with no reveal, with a partial last window and with whole
    # windows only: the parsed config counts the reveals the text holds.
    for spacing in (1, 2, 3, 8):
        for n_commands in range(1, 20):
            config = TraceConfig(n_vars, n_commands, spacing, kind, seed=derive_seed(13, spacing, n_commands))
            parsed = parse(generate(config).text)
            assert parsed.config.n_reveals == len(parsed.reveal_spans)
            commands = [ev.permutation for ev in parsed.events if ev.kind == "command"]
            revealed = [ev.var for ev in parsed.events if ev.kind == "reveal"]
            assert build_trace(parsed.config, commands, revealed).text == parsed.text


def test_parse_normalizes_line_endings():
    trace = shell_game_trace()
    for text in (trace.text.replace("\n", "\r\n"), trace.text[:-1]):
        parsed = parse(text)
        assert parsed == parse(trace.text)
        assert parsed.events == trace.events
        assert (parsed.text, parsed.reveal_spans) == (trace.text, trace.reveal_spans)


@pytest.mark.parametrize(
    "text, error",
    [
        # Ends inside a reveal, and initializes only one variable.
        (">>> a = 1\n>>> print('a', a)\n", ("line 3, column 1: transcript ends inside a reveal", 3, 1)),
        # Has no command, and initializes only one variable.
        (">>> a = 1\n>>> print('a', a)\na 1\n", ("line 4, column 1: transcript initializes fewer than two variables", 4, 1)),
        # Its first variable is not a, then the command names unknown a.
        (">>> c = 1\n>>> a, b = b, a\n", ("line 1, column 1: out-of-order variable 'c'", 1, 1)),
        # A wrong output name, then an unknown variable.
        (
            ">>> a = 1\n>>> b = 2\n>>> print('a', a)\nb 1\n>>> a, z = z, a\n",
            ("line 4, column 1: output line names 'b' but print revealed 'a'", 4, 1),
        ),
        # A non-bijective command, then an init after it.
        (">>> a = 1\n>>> b = 2\n>>> a, b = b, b\n>>> c = 3\n", ("line 3, column 1: assignment tuple is not bijective", 3, 1)),
        # Integer literals as the interpreter writes them: an init value with
        # a leading zero, then a second one; reveal outputs that print never
        # writes, then an unknown variable.
        (
            ">>> a = 01\n>>> b = 002\n>>> a, b = b, a\n",
            ("line 1, column 9: leading zeros in an integer literal are not permitted", 1, 9),
        ),
        (
            ">>> a = 1\n>>> b = 2\n>>> a, b = b, a\n>>> print('a', a)\na 02\n>>> a, z = z, a\n",
            ("line 5, column 3: leading zeros in an integer literal are not permitted", 5, 3),
        ),
        (
            SHELL_GAME_TEXT.replace("c 1\n", "c 001\n") + ">>> a, z = z, a\n",
            ("line 9, column 3: leading zeros in an integer literal are not permitted", 9, 3),
        ),
    ],
    ids=[
        "open-reveal", "no-command", "first-name", "output-name", "not-bijective",
        "init-zeros", "output-zeros", "second-output-zeros",
    ],
)
def test_parse_reports_the_first_fault(text, error):
    with pytest.raises(TraceParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.column) == error


def test_full_permutations_exclude_identity():
    config = TraceConfig(3, 200, 200, FULL_PERMUTATION, seed=1)
    trace = generate(config)
    for e in trace.events:
        if e.kind == "command":
            assert e.permutation != identity(3)


def test_mutated_reveal_is_flagged_exactly_once():
    trace = shell_game_trace()
    start, end = trace.reveal_spans[1]
    original = int(trace.text[start:end])
    corrupted = trace.text[:start] + str(original % 3 + 1) + trace.text[end:]
    result = execute(parse(corrupted).events)
    assert len(result.disagreements) == 1
    mismatch = result.disagreements[0]
    assert mismatch.simulated == original
    assert mismatch.printed == original % 3 + 1


def test_execute_init_only_reveals_initial_values():
    events = [
        TraceEvent("init", (">>> a = 1",), var=0, value=1),
        TraceEvent("init", (">>> b = 2",), var=1, value=2),
        TraceEvent("reveal", (">>> print('b', b)", "b 2"), var=1, value=2),
    ]
    result = execute(events)
    assert result.final_state == (1, 2)
    assert result.disagreements == ()


def test_execute_rejects_an_init_after_a_command():
    events = [
        trace_module._init(0, 1),
        trace_module._init(1, 2),
        trace_module._swap_command(2, 0, 1),
        trace_module._init(2, 3),
    ]
    with pytest.raises(ValueError, match=r"^init event 3 comes after a command$"):
        execute(events)


def test_execute_rejects_an_init_after_a_reveal():
    # The reveal precedes every command; the init must still come first.
    events = [
        trace_module._init(0, 1),
        trace_module._init(1, 2),
        trace_module._reveal(1, 2),
        trace_module._init(2, 3),
        trace_module._full_command((1, 2, 0)),
    ]
    with pytest.raises(ValueError, match=r"^init event 3 comes after a reveal$"):
        execute(events)


@pytest.mark.parametrize(
    "events, message",
    [
        ([trace_module._init(1, 2)], "init event 0 out of order"),
        ([trace_module._init(0, 1), trace_module._init(1, 2), trace_module._full_command((1, 2, 0))],
         "command over 3 vars, state has 2"),
        ([trace_module._init(0, 1), trace_module._init(1, 2), trace_module._reveal(2, 3)],
         "reveal of unknown variable index 2"),
        ([trace_module._init(0, 1), TraceEvent("comment", ("# a",))], "unknown event kind 'comment'"),
    ],
    ids=["init-order", "command-size", "reveal-var", "event-kind"],
)
def test_execute_rejects_a_malformed_session(events, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        execute(events)


def test_build_trace_rejects_inputs_that_do_not_fit_the_config():
    config = TraceConfig(3, 3, 1, ELEMENTARY_SWAP, seed=0)
    swaps = [transposition(3, 0, 1), transposition(3, 1, 2), transposition(3, 0, 2)]
    for commands, reveal_vars, message in (
        ([Permutation((1, 2, 0))] + swaps[1:], [0, 2, 0], r"\(1, 2, 0\) is not a transposition"),
        (swaps[:2], [0, 2, 0], "expected 3 commands, got 2"),
        (swaps, [0, 2], "expected 3 reveal choices, got 2"),
        ([transposition(4, 0, 1)] + swaps[1:], [0, 2, 0], "command over 4 vars in a 3-var trace"),
    ):
        with pytest.raises(ValueError, match=message):
            build_trace(config, commands, reveal_vars)
    assert var_name(25) == "z"
    with pytest.raises(ValueError, match="variable index 26 out of range"):
        var_name(26)


def test_parse_names_what_an_init_comes_after():
    base = ">>> a = 1\n>>> b = 2\n"
    cases = [
        (base + ">>> print('b', b)\nb 2\n>>> c = 3\n>>> a, b, c = b, c, a\n", "line 5, column 1: initialization after the first reveal"),
        (base + ">>> a, b = b, a\n>>> print('b', b)\nb 1\n>>> c = 3\n", "line 6, column 1: initialization after the first command"),
        (base + ">>> print('b', b)\nb 2\n>>> a, b = b, a\n>>> c = 3\n", "line 6, column 1: initialization after the first reveal"),
    ]
    for text, message in cases:
        with pytest.raises(TraceParseError) as info:
            parse(text)
        assert str(info.value) == message


@pytest.mark.parametrize("n_vars", (2, 5, 26))
@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_parse_shares_the_events_generate_builds(kind, n_vars):
    # Other tests overflow the caches, which evict apart: start them empty.
    for cache in (trace_module._parse_line, trace_module._full_command, trace_module._swap_command):
        cache.cache_clear()
    trace = generate(TraceConfig(n_vars, 16, 2, kind, seed=3))
    parsed = parse(trace.text)
    assert len(parsed.events) == len(trace.events)
    for ours, generated in zip(parsed.events, trace.events):
        assert ours is generated


def test_parse_keeps_its_own_event_for_a_swap_written_otherwise():
    text = ">>> a = 1\n>>> b = 2\n>>> c = 3\n>>> c, a = a, c\n"
    event = parse(text).events[-1]
    shared = trace_module._swap_command(3, 0, 2)
    assert event.text_lines == (">>> c, a = a, c",) and event is not shared
    assert event.permutation == shared.permutation


@pytest.mark.parametrize("n_vars", (2, 5, 26))
@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_every_command_step_gathers_its_mapping(kind, n_vars):
    rng = np.random.default_rng(n_vars)
    for seed in range(4):
        trace = generate(TraceConfig(n_vars, 24, 3, kind, seed=seed))
        for events in (trace.events, parse(trace.text).events):
            assert sum(ev.kind == "command" for ev in events) == 24
            for ev in events:
                if ev.kind != "command":
                    assert ev.step is None
                    continue
                state = rng.integers(0, 1000, n_vars).tolist()
                assert ev.step(state) == tuple(state[k] for k in ev.permutation.mapping)


def test_one_variable_command_steps_to_a_one_tuple():
    command = TraceEvent("command", (">>> a = a",), permutation=Permutation((0,)))
    assert command.step([7]) == (7,)
    init = TraceEvent("init", (">>> a = 7",), var=0, value=7)
    assert execute([init, command]).final_state == (7,)


def command_line(p: Permutation, kind: str) -> str:
    names = [var_name(i) for i in range(p.n)]
    if kind == ELEMENTARY_SWAP:
        i, j = (k for k in range(p.n) if p.mapping[k] != k)
        return f">>> {names[i]}, {names[j]} = {names[j]}, {names[i]}"
    return f">>> {', '.join(names)} = {', '.join(names[k] for k in p.mapping)}"


def reference_session(config: TraceConfig, rng: np.random.Generator) -> tuple[list[TraceEvent], tuple[int, ...]]:
    """The events and final state of ``generate``, each event built afresh
    and the state stepped by a list comprehension over the mapping."""
    commands, reveal_vars = reference_draws(config, rng)
    state = list(range(1, config.n_vars + 1))
    events = [TraceEvent("init", (f">>> {var_name(v)} = {v + 1}",), var=v, value=v + 1) for v in range(config.n_vars)]
    reveals = iter(reveal_vars)
    for slot, p in enumerate(commands, start=1):
        events.append(TraceEvent("command", (command_line(p, config.command_kind),), permutation=p))
        state = [state[k] for k in p.mapping]
        if slot % config.reveal_spacing == 0:
            var = next(reveals)
            name, value = var_name(var), state[var]
            lines = (f">>> print('{name}', {name})", f"{name} {value}")
            events.append(TraceEvent("reveal", lines, var=var, value=value))
    return events, tuple(state)


def reference_execute(events) -> tuple[tuple[int, ...], tuple[RevealMismatch, ...]]:
    """``execute`` on well-formed events, stepping by a list comprehension."""
    state: list[int] = []
    mismatches = []
    for index, ev in enumerate(events):
        if ev.kind == "init":
            state.append(ev.value)
        elif ev.kind == "command":
            state = [state[k] for k in ev.permutation.mapping]
        elif state[ev.var] != ev.value:
            mismatches.append(RevealMismatch(index, ev.var, state[ev.var], ev.value))
    return tuple(state), tuple(mismatches)


@pytest.mark.parametrize("kind", COMMAND_KINDS)
def test_steps_match_a_list_comprehension_on_random_traces(kind):
    picks = np.random.default_rng(16)
    disagreeing = 0
    for _ in range(1000):
        n_vars, n_commands, spacing = (int(v) for v in picks.integers((2, 1, 1), (9, 41, 6)))
        config = TraceConfig(n_vars, n_commands, spacing, kind, seed=int(picks.integers(2**63)))
        trace = generate(config)
        events, final_state = reference_session(config, np.random.default_rng(config.seed))
        assert trace.events == tuple(events)
        assert trace.final_state == final_state
        # Misprint a random share of the reveals, so that execute has
        # disagreements to report.
        misprinted = [
            TraceEvent(ev.kind, ev.text_lines, var=ev.var, value=ev.value + 1)
            if ev.kind == "reveal" and picks.random() < 0.3 else ev
            for ev in trace.events
        ]
        result = execute(misprinted)
        assert (result.final_state, result.disagreements) == reference_execute(misprinted)
        assert result.final_state == final_state
        disagreeing += bool(result.disagreements)
    assert disagreeing > 500


def test_events_compare_hash_and_print_as_values():
    swap = trace_module._swap_command(2, 0, 1)
    assert repr(swap) == (
        "TraceEvent(kind='command', text_lines=('>>> a, b = b, a',), "
        "permutation=Permutation(mapping=(1, 0)), var=None, value=None)"
    )
    # Generated events come from the caches, parsed ones from the command
    # memo, and the copies from neither.
    trace = generate(TraceConfig(4, 12, 3, FULL_PERMUTATION, seed=2))
    cached = trace.events
    for events in (cached, parse(trace.text).events):
        fresh = [
            TraceEvent(
                ev.kind, ev.text_lines, ev.permutation and Permutation(ev.permutation.mapping), ev.var, ev.value
            )
            for ev in events
        ]
        assert tuple(fresh) == tuple(events) == cached
        assert [hash(ev) for ev in fresh] == [hash(ev) for ev in cached]
        assert [repr(ev) for ev in fresh] == [repr(ev) for ev in cached]
    # The step is derived data: an event without one still equals its value.
    stepless = TraceEvent("command", swap.text_lines, permutation=swap.permutation)
    object.__setattr__(stepless, "step", None)
    assert stepless == swap and hash(stepless) == hash(swap)
    assert repr(stepless) == repr(swap)


def test_parse_errors():
    base = ">>> a = 1\n>>> b = 2\n"
    with pytest.raises(TraceParseError, match="not bijective"):
        parse(base + ">>> a, b = b, b\n")
    with pytest.raises(TraceParseError, match="unknown variable"):
        parse(base + ">>> a, z = z, a\n")
    with pytest.raises(TraceParseError, match="after the first command"):
        parse(base + ">>> a, b = b, a\n>>> c = 3\n")
    with pytest.raises(TraceParseError, match="unrecognized"):
        parse(base + "a, b = b, a\n")
    with pytest.raises(TraceParseError, match="ends inside a reveal"):
        parse(base + ">>> print('a', a)\n")
    with pytest.raises(TraceParseError, match="output line names"):
        parse(base + ">>> print('a', a)\nb 1\n")
    with pytest.raises(TraceParseError, match="must be a swap"):
        parse(base + ">>> c = 3\n>>> a, b = b, c\n")
    with pytest.raises(TraceParseError, match="every variable in order"):
        parse(base + ">>> c = 3\n>>> b, a, c = a, b, c\n")
    with pytest.raises(TraceParseError, match="fewer than two"):
        parse(">>> a = 1\n")
    with pytest.raises(TraceParseError, match="initialized twice"):
        parse(">>> a = 1\n>>> a = 2\n")
    with pytest.raises(TraceParseError, match="line 5, column 1: transcript has no command"):
        parse(base + ">>> print('a', a)\na 1\n")
    with pytest.raises(TraceParseError, match="line 3, column 1: transcript has no command"):
        parse(base)
    with pytest.raises(TraceParseError, match="expected reveal output line"):
        parse(base + ">>> print('a', a)\n>>> a, b = b, a\n")
    with pytest.raises(TraceParseError, match="out-of-order variable 'c'"):
        parse(">>> a = 1\n>>> c = 2\n")
    with pytest.raises(TraceParseError, match="print label 'a' differs from variable 'b'"):
        parse(base + ">>> print('a', b)\n")
    with pytest.raises(TraceParseError, match="column 12: unknown variable 'c'"):
        parse(base + ">>> print('c', c)\n")
    with pytest.raises(TraceParseError, match="sides differ in length"):
        parse(base + ">>> c = 3\n>>> a, b, c = b, a\n")
    err = None
    try:
        parse(base + ">>> print('a', a)\nb 1\n")
    except TraceParseError as exc:
        err = exc
    assert err.line == 4


def test_parse_checks_the_first_name():
    # The first variable must be a: without that check this parsed as a
    # two-variable trace whose var 0 prints as z.
    with pytest.raises(TraceParseError) as info:
        parse(">>> z = 1\n>>> b = 2\n>>> z, b = b, z\n")
    assert (str(info.value), info.value.line, info.value.column) == (
        "line 1, column 1: out-of-order variable 'z'",
        1,
        1,
    )
    # The same command line parses under a and b, and is memoized by the
    # line and the variable count.
    assert parse(">>> a = 1\n>>> b = 2\n>>> a, b = b, a\n").final_state == (2, 1)


def test_parse_memo_keeps_no_copy_of_the_digits():
    # An init or output line is kept once, as the memo's key; its entry
    # holds where the digits start, so a 4000-digit line adds no 4 kB copy.
    digits = "7" * 4000
    text = f">>> a = {digits}\n>>> b = 2\n>>> a, b = b, a\n>>> print('b', b)\nb {digits}\n"
    trace_module._parse_line.cache_clear()
    tracemalloc.start()
    try:
        parse(text)
        before = tracemalloc.get_traced_memory()[0]
        trace_module._parse_line.cache_clear()
        kept = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    keys = sum(sys.getsizeof(line) for line in text.splitlines())
    assert kept < keys + 2000  # a copy of each value's digits would add 8 kB
    assert parse(text).final_state == (2, int(digits))


def test_parsed_long_values_stay_out_of_the_event_caches():
    # A long init or output value's event takes the parsed line, which is
    # also the memo's key, so the init and reveal caches keep no copy.
    texts = [
        f">>> a = {digits}\n>>> b = 2\n>>> a, b = b, a\n>>> print('b', b)\nb {digits}\n"
        for digits in (str(k) * 4000 for k in range(1, 10))
    ]
    for cache in (trace_module._parse_line, trace_module._init, trace_module._reveal):
        cache.cache_clear()
    tracemalloc.start()
    try:
        for text in texts:
            parse(text)
        before = tracemalloc.get_traced_memory()[0]
        trace_module._init.cache_clear()
        trace_module._reveal.cache_clear()
        freed = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert freed < 4000  # a rendered copy of each value would free 8 kB per text
    parsed = parse(texts[0])
    digits = "1" * 4000
    assert parsed.events[0] == TraceEvent("init", (f">>> a = {digits}",), var=0, value=int(digits))
    assert parsed.events[-1] == TraceEvent(
        "reveal", (">>> print('b', b)", f"b {digits}"), var=1, value=int(digits)
    )
    assert parsed.events[1] is trace_module._init(1, 2)
    assert render(parsed) == texts[0]


LONG = "7" * 5000  # past the default limit of 4300 digits


@pytest.mark.parametrize(
    "text, position",
    [
        (f">>> a = {LONG}\n>>> b = 2\n>>> a, b = b, a\n", (1, 9)),
        (f">>> a = 1\n>>> b = 2\n>>> a, b = b, a\n>>> print('a', a)\na {LONG}\n", (5, 3)),
    ],
    ids=["init", "output"],
)
def test_parse_rejects_a_value_past_the_digit_limit(text, position):
    with pytest.raises(TraceParseError, match="Exceeds the limit") as info:
        parse(text)
    assert (info.value.line, info.value.column) == position


def test_parse_follows_the_interpreter_digit_limit():
    value = "7" * 700
    text = f">>> a = {value}\n>>> b = 2\n>>> a, b = b, a\n"
    assert parse(text).final_state == (2, int(value))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(TraceParseError, match="line 1, column 9: Exceeds the limit"):
            parse(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_parse_reconstructs_metadata():
    trace = generate(TraceConfig(4, 12, 3, FULL_PERMUTATION, seed=3))
    parsed = parse(trace.text)
    assert parsed.config.n_vars == 4
    assert parsed.config.n_commands == 12
    assert parsed.config.reveal_spacing == 3
    assert parsed.config.command_kind == FULL_PERMUTATION


def test_parse_infers_no_spacing_its_reveals_contradict():
    ab, swap = ">>> a = 1\n>>> b = 2\n", ">>> a, b = b, a\n"
    reveal = ">>> print('a', a)\na 1\n"
    # A third window of two commands would have ended in a third reveal.
    parsed = parse(ab + swap * 2 + reveal + swap * 2 + reveal + swap * 3)
    assert (parsed.config.n_commands, len(parsed.reveal_spans)) == (7, 2)
    assert parsed.config.reveal_spacing == 1
    # Fewer trailing commands than the spacing, as generate writes them.
    parsed = parse(ab + swap * 2 + reveal + swap * 2 + reveal + swap)
    assert parsed.config.reveal_spacing == 2
    assert parsed.config.n_reveals == len(parsed.reveal_spans) == 2


_AB = ">>> a = 1\n>>> b = 2\n"
_ABC = _AB + ">>> c = 3\n"
_ABCDE = _ABC + ">>> d = 4\n>>> e = 5\n"
_SWAP = ">>> a, b = b, a\n"
_CYCLE = ">>> a, b, c, d, e = b, c, d, e, a\n"


@pytest.mark.parametrize(
    "first, second",
    [
        # An output line where a statement is expected.
        (
            (_AB + _SWAP + ">>> print('a', a)\na 2\n", ((2, 1), ELEMENTARY_SWAP)),
            (_AB + _SWAP + ">>> print('a', a)\na 2\na 2\n", ("line 6, column 1: unrecognized line 'a 2'", 6, 1)),
        ),
        # A leading-zero output inside a reveal, and the same line as a statement.
        (
            (_AB + _SWAP + ">>> print('a', a)\na 01\n", ("line 5, column 3: leading zeros in an integer literal are not permitted", 5, 3)),
            (_AB + _SWAP + "a 01\n", ("line 4, column 1: unrecognized line 'a 01'", 4, 1)),
        ),
        # A command, then an init, while a print is open.
        (
            (_AB + _SWAP, ((2, 1), ELEMENTARY_SWAP)),
            (_AB + ">>> print('a', a)\n" + _SWAP, ("line 4, column 1: expected reveal output line, got '>>> a, b = b, a'", 4, 1)),
        ),
        (
            (_ABC + _SWAP, ((2, 1, 3), ELEMENTARY_SWAP)),
            (_AB + ">>> print('a', a)\n>>> c = 3\n" + _SWAP, ("line 4, column 1: expected reveal output line, got '>>> c = 3'", 4, 1)),
        ),
        # A print of d under three variables and under five.
        (
            (_ABC + _SWAP + ">>> print('d', d)\nd 4\n", ("line 5, column 12: unknown variable 'd'", 5, 12)),
            (_ABCDE + _SWAP + ">>> print('d', d)\nd 4\n", ((2, 1, 3, 4, 5), ELEMENTARY_SWAP)),
        ),
        # The same command line under different variable counts.
        (
            (_ABC + _CYCLE, ("line 4, column 14: unknown variable 'd'", 4, 14)),
            (_ABCDE + _CYCLE, ((2, 3, 4, 5, 1), FULL_PERMUTATION)),
        ),
        (
            (_AB + _SWAP + ">>> print('a', a)\na 2\n", ((2, 1), ELEMENTARY_SWAP)),
            (_ABC + _SWAP + ">>> print('a', a)\na 2\n", ((2, 1, 3), ELEMENTARY_SWAP)),
        ),
    ],
    ids=["output-as-statement", "zeros", "command-in-reveal", "init-in-reveal", "print-d", "command-by-count", "swap-by-count"],
)
def test_parse_memo_keeps_contexts_apart(first, second):
    def outcome(text):
        try:
            parsed = parse(text)
        except TraceParseError as exc:
            return str(exc), exc.line, exc.column
        assert execute(parsed.events).final_state == parsed.final_state
        return parsed.final_state, parsed.config.command_kind

    # Each order makes a memo entry in one context and then reads the
    # same line in the other.
    for texts in ((first, second), (second, first)):
        trace_module._parse_line.cache_clear()
        for text, expected in texts:
            assert outcome(text) == expected


def _cpython_outputs(text: str) -> tuple[list[str], dict]:
    """What the interpreter prints when it runs each statement of ``text``
    as an interactive session does, and the namespace it ends with."""
    namespace: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for line in text.splitlines():
            if line.startswith(">>> "):
                exec(compile(line[4:], "<repl>", "single"), namespace)
    return out.getvalue().splitlines(), namespace


def test_cpython_runs_generated_transcripts_as_written():
    rng = np.random.default_rng(2024)
    checked = 0
    for kind in COMMAND_KINDS:
        for n_vars in (2, 5, 9, 26):
            for _ in range(38):
                n_commands, spacing = int(rng.integers(1, 65)), int(rng.integers(1, 9))
                trace = generate(TraceConfig(n_vars, n_commands, spacing, kind, seed=int(rng.integers(2**32))))
                printed, namespace = _cpython_outputs(trace.text)
                outputs = [line for line in trace.text.splitlines() if not line.startswith(">>> ")]
                assert printed == outputs, trace.config
                assert tuple(namespace[var_name(i)] for i in range(n_vars)) == trace.final_state
                checked += 1
    assert checked == 304
    # A transcript with one output value changed disagrees with the interpreter.
    trace = generate(TraceConfig(5, 16, 2, FULL_PERMUTATION, seed=1))
    start, end = trace.reveal_spans[3]
    mutated = trace.text[:start] + str(int(trace.text[start:end]) % 5 + 1) + trace.text[end:]
    outputs = [line for line in mutated.splitlines() if not line.startswith(">>> ")]
    assert _cpython_outputs(mutated)[0] != outputs


def test_export_dataset(tmp_path):
    configs = [
        TraceConfig(3, 6, 2, ELEMENTARY_SWAP, seed=derive_seed(7, 0, i)) for i in range(20)
    ]
    traces = [generate(c) for c in configs]
    out = tmp_path / "data.jsonl"
    count = export_dataset(traces, out)
    assert count == 20
    lines = out.read_text().splitlines()
    assert len(lines) == 20
    for line, trace in zip(lines, traces):
        record = json.loads(line)
        assert set(record) == {
            "text",
            "n_vars",
            "n_commands",
            "reveal_spacing",
            "command_kind",
            "seed",
            "reveal_spans",
            "final_state",
        }
        assert record["text"] == trace.text
        assert record["seed"] == trace.config.seed
        for start, end in record["reveal_spans"]:
            value = int(record["text"][start:end])
            assert 1 <= value <= record["n_vars"]
    # regeneration is byte-identical
    second = tmp_path / "data2.jsonl"
    export_dataset((generate(c) for c in configs), second)
    assert out.read_bytes() == second.read_bytes()


def test_export_dataset_bytes_match_a_list_building_reference():
    traces = [
        generate(TraceConfig(n_vars, n_commands, spacing, kind, seed=derive_seed(21, n_vars, n_commands)))
        for kind in COMMAND_KINDS
        for n_vars in (2, 5, 26)
        for n_commands, spacing in ((1, 2), (7, 3), (64, 8))
    ]
    traces += [parse(trace.text) for trace in traces]
    sink = io.StringIO()
    assert export_dataset(traces, sink) == len(traces)
    expected = "".join(
        json.dumps(
            {
                "text": trace.text,
                "n_vars": trace.config.n_vars,
                "n_commands": trace.config.n_commands,
                "reveal_spacing": trace.config.reveal_spacing,
                "command_kind": trace.config.command_kind,
                "seed": trace.config.seed,
                "reveal_spans": [list(span) for span in trace.reveal_spans],
                "final_state": list(trace.final_state),
            },
            separators=(",", ":"),
        )
        + "\n"
        for trace in traces
    )
    assert sink.getvalue() == expected


def test_export_dataset_sink_failure(tmp_path):
    with pytest.raises(OSError):
        export_dataset([], tmp_path / "missing" / "data.jsonl")


def test_curriculum_schedule():
    batches = curriculum(stage_samples=2, base_seed=5)
    assert len(batches) == 4
    assert [len(batch) for batch in batches] == [2, 2, 2, 2]
    shapes = [(batch[0].n_commands, batch[0].reveal_spacing) for batch in batches]
    assert shapes == list(CURRICULUM_STAGES)
    lengths = [shape[0] for shape in shapes]
    assert lengths == sorted(lengths)
    for batch in batches:
        for config in batch:
            assert config.n_vars == 5
            assert config.command_kind == FULL_PERMUTATION
    assert curriculum(stage_samples=1)[0][0].seed == derive_seed(0, 0, 0)
    assert sum(len(b) for b in curriculum(stage_samples=1)) == 4
    with pytest.raises(ValueError):
        curriculum(stage_samples=0)


def test_derive_seed_is_stable():
    assert derive_seed(0, 0, 0) == derive_seed(0, 0, 0)
    seeds = {derive_seed(0, s, i) for s in range(4) for i in range(100)}
    assert len(seeds) == 400
