"""Interpreter-session transcripts that interleave shuffles with reveals.

A trace is a rendered session over single-letter variables ``a``..``z``
initialized to 1..n, followed by shuffle commands with a print-based reveal
of one uniformly chosen variable after every S-th command. The grammar is
bit-exact; every line ends with a newline and carries no trailing spaces:

    init                >>> a = 1
    elementary swap     >>> a, c = c, a
    full permutation    >>> a, b, c = b, c, a
    reveal              >>> print('a', a)
                        a 2

A full-permutation command lists every variable on the left in canonical
order and variable ``sigma(i)`` at right-hand position ``i``, so executing
it assigns each variable the previous value of ``sigma(i)``; the stored
``Permutation`` is exactly that right-hand index map. An elementary swap
stores the equivalent full-size transposition. Rendering then parsing
reproduces the event list, and the executor replays the session to check
every revealed value.

Randomness: all sampling runs off ``numpy.random.default_rng(config.seed)``
in a fixed draw order, so a config regenerates its trace byte-for-byte. A
full-permutation slot draws ``rng.permutation(n)``, again while it is the
identity (which carries no signal), then ``rng.integers(n)`` for the
revealed variable if the slot ends a reveal window. A trace takes each
window's permutations in one ``rng.permuted`` call over rows of
``arange(n)``, whose rows are successive ``rng.permutation(n)`` draws, and
draws again only for the identity rows it drops. A swap slot draws
integers on [0, n-2] (none when n = 2), [0, n-1] and [0, 1], then one on
[0, n-1] if it ends a reveal window; a trace takes them all in one
``rng.integers`` call. These are the draws of a per-slot
``rng.choice(n, 2, replace=False)`` and ``rng.integers(n)``.

Events are immutable, and traces share them: each distinct command, reveal
and init line is built once per process and reused by every trace that
holds it, generated or parsed. ``parse`` reads each distinct line once per
process, keyed by the line, the variable count and whether a print is
open, and converts values on every read.
"""

from __future__ import annotations

import json
import operator
import os
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .perm import Permutation, transposition

ELEMENTARY_SWAP = "elementary_swap"
FULL_PERMUTATION = "full_permutation"
COMMAND_KINDS = (ELEMENTARY_SWAP, FULL_PERMUTATION)

MAX_VARS = 26
_MAX_SEED = 2**64

_INIT_RE = re.compile(r"^>>> ([a-z]) = (\d+)$")
_PRINT_RE = re.compile(r"^>>> print\('([a-z])', ([a-z])\)$")
_OUTPUT_RE = re.compile(r"^([a-z]) (\d+)$")
_ASSIGN_RE = re.compile(r"^>>> ([a-z](?:, [a-z])+) = ([a-z](?:, [a-z])+)$")


class TraceParseError(ValueError):
    """Malformed transcript; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


@dataclass(frozen=True)
class TraceConfig:
    n_vars: int
    n_commands: int
    reveal_spacing: int
    command_kind: str
    seed: int

    def __post_init__(self) -> None:
        if not 2 <= self.n_vars <= MAX_VARS:
            raise ValueError(f"n_vars must be in [2, {MAX_VARS}], got {self.n_vars}")
        if self.n_commands < 1:
            raise ValueError(f"n_commands must be >= 1, got {self.n_commands}")
        if self.reveal_spacing < 1:
            raise ValueError(f"reveal_spacing must be >= 1, got {self.reveal_spacing}")
        if self.command_kind not in COMMAND_KINDS:
            raise ValueError(f"command_kind must be one of {COMMAND_KINDS}")
        if not 0 <= self.seed < _MAX_SEED:
            raise ValueError("seed must be a 64-bit unsigned integer")

    @property
    def n_reveals(self) -> int:
        return self.n_commands // self.reveal_spacing


@dataclass(frozen=True)
class TraceEvent:
    """One transcript event; ``text_lines`` is its exact rendering.

    A command event also carries ``step``, derived from its permutation:
    the gather that runs the command, mapping a state to the tuple of
    ``state[k]`` for ``k`` in ``permutation.mapping``. ``_session``,
    ``execute`` and ``parse`` all apply it. It takes no part in equality,
    hashing or ``repr``.
    """

    kind: str  # "init" | "command" | "reveal"
    text_lines: tuple[str, ...]
    permutation: Permutation | None = None
    var: int | None = None
    value: int | None = None
    step: Callable[[Sequence[int]], tuple[int, ...]] | None = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        step = None
        if self.kind == "command" and self.permutation is not None:
            mapping = self.permutation.mapping
            # itemgetter of one index returns the item, not a 1-tuple.
            step = operator.itemgetter(*mapping) if len(mapping) > 1 else _one_step
        object.__setattr__(self, "step", step)


def _one_step(state: Sequence[int]) -> tuple[int, ...]:
    """The step of the one-variable command."""
    return (state[0],)


@dataclass(frozen=True)
class Trace:
    config: TraceConfig
    events: tuple[TraceEvent, ...]
    text: str
    reveal_spans: tuple[tuple[int, int], ...]
    final_state: tuple[int, ...]


@dataclass(frozen=True)
class RevealMismatch:
    event_index: int
    var: int
    simulated: int
    printed: int


@dataclass(frozen=True)
class ExecutionResult:
    final_state: tuple[int, ...]
    disagreements: tuple[RevealMismatch, ...]


_NAMES = "abcdefghijklmnopqrstuvwxyz"  # the MAX_VARS variable names


def var_name(index: int) -> str:
    if not 0 <= index < MAX_VARS:
        raise ValueError(f"variable index {index} out of range")
    return _NAMES[index]


# Events are few: a full command depends only on its mapping, a swap on
# (n, i, j), a reveal or an init line on (var, value). The caches evict
# beyond _CACHE_SIZE entries, which hold all of S_7, so long runs at large n
# keep their memory flat.
_CACHE_SIZE = 8192
# A value of more digits than this is one ``parse`` read, never one that
# ``generate`` writes: its init or reveal event is built outside the caches
# and takes the parsed lines, so its digits are held once, in the line that
# is also the parse memo's key.
_SHARED_DIGITS = 20


@lru_cache(maxsize=_CACHE_SIZE)
def _init(var: int, value: int) -> TraceEvent:
    return TraceEvent("init", (f">>> {var_name(var)} = {value}",), var=var, value=value)


@lru_cache(maxsize=_CACHE_SIZE)
def _full_command(mapping: tuple[int, ...]) -> TraceEvent:
    lhs = ", ".join(var_name(i) for i in range(len(mapping)))
    rhs = ", ".join(var_name(i) for i in mapping)
    return TraceEvent("command", (f">>> {lhs} = {rhs}",), permutation=Permutation(mapping))


@lru_cache(maxsize=_CACHE_SIZE)
def _swap_command(n: int, i: int, j: int) -> TraceEvent:
    """The swap of variables ``i < j``. Over two variables it is the one
    full command, whose line it shares, and so its event too."""
    if n == 2:
        return _full_command((1, 0))
    first, second = var_name(i), var_name(j)
    line = f">>> {first}, {second} = {second}, {first}"
    return TraceEvent("command", (line,), permutation=transposition(n, i, j))


@lru_cache(maxsize=_CACHE_SIZE)
def _reveal(var: int, value: int) -> TraceEvent:
    name = var_name(var)
    return TraceEvent("reveal", (f">>> print('{name}', {name})", f"{name} {value}"), var=var, value=value)


def _command_event(p: Permutation, kind: str) -> TraceEvent:
    if kind == ELEMENTARY_SWAP:
        moved = [i for i, v in enumerate(p.mapping) if v != i]
        if len(moved) != 2:
            raise ValueError(f"{p.mapping} is not a transposition")
        return _swap_command(p.n, *moved)
    return _full_command(p.mapping)


def _assemble(events: Sequence[TraceEvent]) -> tuple[str, tuple[tuple[int, int], ...]]:
    """Join event lines into the transcript and locate revealed-value spans."""
    lines: list[str] = []
    reveals: list[tuple[int, TraceEvent]] = []  # (index of the print line, event)
    for ev in events:
        if ev.kind == "reveal":
            reveals.append((len(lines), ev))
        lines += ev.text_lines
    # The output line after print line k starts past lines 0..k and their
    # k + 1 newlines; its value starts past the one-letter name and a space.
    ends = list(accumulate(map(len, lines)))
    spans = []
    for k, ev in reveals:
        start = ends[k] + k + 3
        spans.append((start, start + len(str(ev.value))))
    text = "\n".join(lines) + "\n" if lines else ""
    return text, tuple(spans)


def _session(config: TraceConfig, commands: Sequence[TraceEvent], reveal_vars: Sequence[int]) -> Trace:
    """The trace of ``commands`` with a reveal of ``reveal_vars[r]`` closing
    the r-th reveal window; ``build_trace`` and ``generate`` both end here."""
    state = list(range(1, config.n_vars + 1))
    events = [_init(var, value) for var, value in enumerate(state)]
    reveals = iter(reveal_vars)
    for slot, command in enumerate(commands, start=1):
        events.append(command)
        state = command.step(state)
        if slot % config.reveal_spacing == 0:
            var = next(reveals)
            events.append(_reveal(var, state[var]))
    text, spans = _assemble(events)
    return Trace(config, tuple(events), text, spans, tuple(state))


def render(trace: Trace) -> str:
    """The transcript text; a pure function of the events."""
    return _assemble(trace.events)[0]


def execute(events: Sequence[TraceEvent]) -> ExecutionResult:
    """Replay a session and check every reveal against the simulated state.

    Disagreements are collected and reported, never raised.
    """
    state: list[int] | tuple[int, ...] = []  # a tuple once a command has run
    mismatches: list[RevealMismatch] = []
    for index, ev in enumerate(events):
        if ev.kind == "init":
            # len(state) counts the inits so far, so another event came
            # first exactly when index exceeds it; the first such event is
            # the one just after the inits.
            if index != len(state):
                raise ValueError(f"init event {index} comes after a {events[len(state)].kind}")
            if ev.var != len(state):
                raise ValueError(f"init event {index} out of order")
            state.append(ev.value)
        elif ev.kind == "command":
            mapping = ev.permutation.mapping
            if len(mapping) != len(state):
                raise ValueError(f"command over {len(mapping)} vars, state has {len(state)}")
            state = ev.step(state)
        elif ev.kind == "reveal":
            if ev.var >= len(state):
                raise ValueError(f"reveal of unknown variable index {ev.var}")
            if state[ev.var] != ev.value:
                mismatches.append(RevealMismatch(index, ev.var, state[ev.var], ev.value))
        else:
            raise ValueError(f"unknown event kind {ev.kind!r}")
    return ExecutionResult(tuple(state), tuple(mismatches))


def build_trace(
    config: TraceConfig,
    commands: Sequence[Permutation],
    reveal_vars: Sequence[int],
) -> Trace:
    """Deterministic trace assembly from explicit commands and reveal picks.

    ``generate`` draws the same inputs and assembles them the same way;
    calling this directly pins down a specific session (useful for worked
    examples and tests).
    """
    if len(commands) != config.n_commands:
        raise ValueError(f"expected {config.n_commands} commands, got {len(commands)}")
    if len(reveal_vars) != config.n_reveals:
        raise ValueError(f"expected {config.n_reveals} reveal choices, got {len(reveal_vars)}")
    events = []
    for command in commands:
        if command.n != config.n_vars:
            raise ValueError(f"command over {command.n} vars in a {config.n_vars}-var trace")
        events.append(_command_event(command, config.command_kind))
    return _session(config, events, [operator.index(var) for var in reveal_vars])


@lru_cache(maxsize=64)
def _identity_rows(n: int, rows: int) -> np.ndarray:
    """``rows`` copies of ``arange(n)``, read-only; ``rng.permuted`` copies it."""
    tile = np.tile(np.arange(n), (rows, 1))
    tile.flags.writeable = False
    return tile


def _full_commands(
    config: TraceConfig, rng: np.random.Generator
) -> tuple[list[TraceEvent], list[int]]:
    """The draws of ``rng.permutation(n)`` per slot, redrawn while it is the
    identity, and of ``rng.integers(n)`` after each reveal window.

    Row r of ``rng.permuted`` over k rows of ``arange(n)`` along axis 1 is
    the r-th of k successive ``rng.permutation(n)`` draws, and the generator
    ends in the same state (numpy 2.4.6; ``tests/test_trace.py`` compares
    with the per-slot loop under any version). An identity redraw is just
    the next draw, so a window takes its commands in one call, drops the
    identity rows and draws again for as many rows as it is short.
    """
    n, spacing = config.n_vars, config.reveal_spacing
    identity = list(range(n))
    tile = _identity_rows(n, min(spacing, config.n_commands))
    commands: list[TraceEvent] = []
    reveal_vars: list[int] = []
    for start in range(0, config.n_commands, spacing):
        size = short = min(spacing, config.n_commands - start)
        while short:
            rows = rng.permuted(tile[:short], axis=1).tolist()
            drawn = [_full_command(tuple(row)) for row in rows if row != identity]
            commands += drawn
            short -= len(drawn)
        if size == spacing:
            reveal_vars.append(int(rng.integers(n)))
    return commands, reveal_vars


def _swap_commands(
    config: TraceConfig, rng: np.random.Generator
) -> tuple[list[TraceEvent], list[int]]:
    """The draws of ``rng.choice(n, 2, replace=False)`` per slot, and of
    ``rng.integers(n)`` after each reveal window, in one call.

    ``choice`` is Floyd's sampling: i on [0, n-2], then j on [0, n-1] with
    j = n-1 if it hits i, then one draw on [0, 1] that shuffles the pair.
    Each draw is a bounded integer, which ``integers`` takes elementwise
    from an array of bounds; a bound of 1 draws nothing in either call.
    """
    n, spacing = config.n_vars, config.reveal_spacing
    highs: list[int] = []
    for slot in range(1, config.n_commands + 1):
        highs += (n - 1, n, 2, n) if slot % spacing == 0 else (n - 1, n, 2)
    draws = iter(rng.integers(0, highs).tolist())
    commands: list[TraceEvent] = []
    reveal_vars: list[int] = []
    for slot in range(1, config.n_commands + 1):
        i, j, _ = next(draws), next(draws), next(draws)
        if j == i:
            j = n - 1
        commands.append(_swap_command(n, min(i, j), max(i, j)))
        if slot % spacing == 0:
            reveal_vars.append(next(draws))
    return commands, reveal_vars


def generate(config: TraceConfig, rng: np.random.Generator | None = None) -> Trace:
    """Sample a trace; with the default rng the result is a pure function
    of the config (seed included)."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    sample = _swap_commands if config.command_kind == ELEMENTARY_SWAP else _full_commands
    return _session(config, *sample(config, rng))


def parse(text: str) -> Trace:
    """Parse a transcript back into a trace, in one walk over its lines.

    Inverse of ``render`` on the event list. The walk builds the events,
    the reveal spans and the final state as it goes. Every line belongs to
    exactly one event, so the text is the lines joined by newlines, which
    is what ``render`` makes of the events. The returned config carries
    reconstructed metadata: counts are exact, the command kind is inferred
    from statement shapes, the spacing is inferred when every reveal ends a
    window of that many commands and fewer follow the last, is one more
    than the command count when there is no reveal (so the config has no
    reveal either), and is 1 otherwise; the seed is unknowable (0).

    The initialized variables must be ``a``, ``b``, ... in order, so each
    distinct line is read once per process, through one memo keyed by the
    line, the variable count and whether a print is open, bounded at
    ``_CACHE_SIZE`` entries. The memo keeps where a value's digits start,
    not a copy of them, and the value is converted on every read. An init
    or reveal of more than ``_SHARED_DIGITS`` digits gets an event of its
    own, equal to the cached one, that holds the parsed line itself.
    """
    lines = text.splitlines()
    events: list[TraceEvent] = []
    names = ""  # the initialized variables, a, b, ... in order
    n_vars = 0  # len(names), kept for the memo key
    state: list[int] | tuple[int, ...] = []  # a tuple once a command has run
    spans: list[tuple[int, int]] = []
    offset = 0  # where the next line starts in the returned text
    pending_print: str | None = None  # the variable an open reveal prints
    n_commands = commands_at_reveal = 0
    spacing: int | None = None  # the command gap before every reveal; 0 once two differ
    full = False

    for lineno, line in enumerate(lines, start=1):
        start, offset = offset, offset + len(line) + 1
        try:
            kind, what, detail = _parse_line(line, n_vars, pending_print is not None)
        except _LineError as exc:
            raise TraceParseError(exc.message, lineno, exc.column) from None
        if kind == "command":
            events.append(what)
            state = what.step(state)
            full = full or detail
            n_commands += 1
        elif kind == "print":
            pending_print = what
        else:  # an output or an init, whose digits fill the line from ``detail``
            try:  # under the current ``sys.get_int_max_str_digits()``
                value = int(line[detail:])
            except ValueError as exc:
                raise TraceParseError(str(exc), lineno, detail + 1) from None
            if kind == "output":
                if what != pending_print:
                    raise TraceParseError(
                        f"output line names {what!r} but print revealed {pending_print!r}",
                        lineno,
                    )
                var = names.index(what)
                if len(line) - detail > _SHARED_DIGITS:  # the print line, then this one
                    events.append(TraceEvent("reveal", (lines[lineno - 2], line), var=var, value=value))
                else:
                    events.append(_reveal(var, value))
                spans.append((start + detail, start + len(line)))
                gap, commands_at_reveal = n_commands - commands_at_reveal, n_commands
                if spacing is None:
                    spacing = gap
                elif gap != spacing:
                    spacing = 0
                pending_print = None
            else:
                # As in ``execute``: n_vars counts the inits so far, and the
                # first other event, if any, is the one just after them.
                if len(events) != n_vars:
                    raise TraceParseError(f"initialization after the first {events[n_vars].kind}", lineno)
                if what in names:
                    raise TraceParseError(f"variable {what!r} initialized twice", lineno)
                # n_vars < 26 here: after z, every name was initialized.
                if what != _NAMES[n_vars]:
                    raise TraceParseError(f"out-of-order variable {what!r}", lineno)
                if len(line) - detail > _SHARED_DIGITS:
                    events.append(TraceEvent("init", (line,), var=n_vars, value=value))
                else:
                    events.append(_init(n_vars, value))
                names += what
                n_vars += 1
                state.append(value)

    end_line = len(lines) + 1
    if pending_print is not None:
        raise TraceParseError("transcript ends inside a reveal", end_line)
    if n_vars < 2:
        raise TraceParseError("transcript initializes fewer than two variables", end_line)
    if not n_commands:
        raise TraceParseError("transcript has no command", end_line)
    # ``spacing`` commands after the last reveal would have ended in a reveal.
    if spacing and n_commands - commands_at_reveal >= spacing:
        spacing = 0
    if spacing is None:  # no reveal: one window longer than the trace
        spacing = n_commands + 1
    config = TraceConfig(
        n_vars=n_vars,
        n_commands=n_commands,
        reveal_spacing=spacing or 1,
        command_kind=FULL_PERMUTATION if full else ELEMENTARY_SWAP,
        seed=0,
    )
    return Trace(config, tuple(events), "\n".join(lines) + "\n", tuple(spans), tuple(state))


class _LineError(Exception):
    """A line-local parse error; ``parse`` adds the line number."""

    def __init__(self, message: str, column: int = 1):
        super().__init__(message)
        self.message = message
        self.column = column


def _digit_column(match: re.Match) -> int:
    """Where the integer literal in the second group of an init or output
    line starts. It must be written as the interpreter writes it, with no
    leading zero, so the line is the one its shared event renders."""
    column = match.start(2)
    if match.string[column] == "0" and match.end(2) > column + 1:
        raise _LineError("leading zeros in an integer literal are not permitted", column + 1)
    return column


@lru_cache(maxsize=_CACHE_SIZE)
def _parse_line(line: str, n: int, printing: bool) -> tuple[str, object, object]:
    """``line`` under the first ``n`` variables ``a``, ``b``, ..., with a
    print open or not: ``(kind, name, column)`` for an output (the one kind
    read while a print is open) or an init, whose digits fill the line from
    index ``column``, ``("print", name, None)``, or
    ``("command", event, lists_more_than_two)``.

    Memoized: a transcript repeats few distinct lines. Errors raise and are
    never stored, so each one is reported afresh. A command written as
    ``generate`` writes it gets the event ``generate`` uses; any other (a
    swap listed as ``c, a = a, c``, say) gets its own.
    """
    if printing:
        out = _OUTPUT_RE.match(line)
        if not out:
            raise _LineError(f"expected reveal output line, got {line!r}")
        return "output", out.group(1), _digit_column(out)
    names = _NAMES[:n]
    init = _INIT_RE.match(line)
    if init:
        return "init", init.group(1), _digit_column(init)
    printed = _PRINT_RE.match(line)
    if printed:
        label, operand = printed.groups()
        if label != operand:
            raise _LineError(f"print label {label!r} differs from variable {operand!r}")
        if label not in names:
            raise _LineError(f"unknown variable {label!r}", line.index(label) + 1)
        return "print", label, None
    match = _ASSIGN_RE.match(line)
    if not match:
        raise _LineError(f"unrecognized line {line!r}")
    lhs = match.group(1).split(", ")
    rhs = match.group(2).split(", ")
    for name in lhs + rhs:
        if name not in names:
            raise _LineError(f"unknown variable {name!r}", line.index(name) + 1)
    if len(lhs) != len(rhs):
        raise _LineError("left and right sides differ in length")
    if len(set(lhs)) != len(lhs) or len(set(rhs)) != len(rhs):
        raise _LineError("assignment tuple is not bijective")
    if len(lhs) == 2 and len(lhs) < n:
        if rhs != [lhs[1], lhs[0]]:
            raise _LineError("two-variable command must be a swap")
        i, j = names.index(lhs[0]), names.index(lhs[1])
        event = _swap_command(n, min(i, j), max(i, j))
    else:
        if "".join(lhs) != names:
            raise _LineError("full command must list every variable in order")
        event = _full_command(tuple(names.index(name) for name in rhs))
    if event.text_lines != (line,):
        event = TraceEvent("command", (line,), permutation=event.permutation)
    return "command", event, len(lhs) > 2


# Line-delimited dataset export. One JSON object per trace with the fields
# text, n_vars, n_commands, reveal_spacing, command_kind, seed,
# reveal_spans, final_state; spans are [start, end) character offsets of
# the revealed value inside `text`, usable for loss masking. Tuples encode
# as JSON arrays, so spans and state go to the encoder as they are.

_ENCODER = json.JSONEncoder(separators=(",", ":"))


def export_dataset(traces: Iterable[Trace], sink) -> int:
    if isinstance(sink, (str, os.PathLike)):
        with open(sink, "w", encoding="utf-8") as fh:
            return export_dataset(traces, fh)
    count = 0
    for trace in traces:
        record = {
            "text": trace.text,
            "n_vars": trace.config.n_vars,
            "n_commands": trace.config.n_commands,
            "reveal_spacing": trace.config.reveal_spacing,
            "command_kind": trace.config.command_kind,
            "seed": trace.config.seed,
            "reveal_spans": trace.reveal_spans,
            "final_state": trace.final_state,
        }
        sink.write(_ENCODER.encode(record) + "\n")
        count += 1
    return count


CURRICULUM_STAGES = ((8, 1), (16, 2), (32, 4), (64, 8))


def derive_seed(base_seed: int, stage: int, index: int) -> int:
    """Per-trace 64-bit seed split deterministically from a base seed."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(stage, index))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def curriculum(stage_samples: int, n_vars: int = 5, base_seed: int = 0) -> list[list[TraceConfig]]:
    """Four batches of full-permutation configs over ``n_vars`` variables
    with (length, spacing) rising through {(8,1), (16,2), (32,4), (64,8)}."""
    if stage_samples < 1:
        raise ValueError("stage_samples must be >= 1")
    batches = []
    for stage, (length, spacing) in enumerate(CURRICULUM_STAGES):
        batches.append(
            [
                TraceConfig(
                    n_vars=n_vars,
                    n_commands=length,
                    reveal_spacing=spacing,
                    command_kind=FULL_PERMUTATION,
                    seed=derive_seed(base_seed, stage, index),
                )
                for index in range(stage_samples)
            ]
        )
    return batches
