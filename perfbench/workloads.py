"""The three benchmark workloads.

Each workload builds its inputs in ``__init__`` (timed as set-up), then
``run_pass`` does one fixed unit of work and returns, per phase, the number
of items processed and the seconds spent on them. Every pass of a run does
the same work on the same inputs, so passes can be compared and per-pass
counts repeat exactly. ``final_checks`` runs once after the timed loop.

Only calls into revealtrack are timed. The correctness checks after each
operation use reference computations written here, so they add no calls
into the package and do not show up in the traced per-module numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

import numpy as np

from revealtrack import automaton as am
from revealtrack import cli
from revealtrack import householder as hh
from revealtrack import joint as jt
from revealtrack import marginal as mg
from revealtrack import perm
from revealtrack import trace as tr

clock = time.perf_counter

# A fixed base seed for the golden curriculum dataset: the workload's own
# dataset follows --seed, so its digest cannot be pinned.
GOLDEN_SEED = 20260810


class Checks:
    """Counts checked operations and failures; a failure never raises."""

    def __init__(self, fault: bool = False) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._fault = fault

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def take_fault(self) -> bool:
        """True once when a deliberately wrong expected value was requested."""
        fault, self._fault = self._fault, False
        return fault


def golden_key(argv: list[str]) -> str:
    """The golden-digest key of a file-producing command: its argv without --out."""
    out = argv.index("--out")
    return " ".join(argv[:out] + argv[out + 2:])


def run_cli(argv: list[str]) -> tuple[int, str, float]:
    """Run ``cli.main`` with its console output captured; returns (code, text, seconds)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        start = clock()
        code = cli.main(argv)
        elapsed = clock() - start
    return code, buf.getvalue(), elapsed


def manifest_digest(out: Path) -> str | None:
    manifest = out.with_name(out.name + ".manifest.json")
    return json.loads(manifest.read_text(encoding="utf-8"))["outputs"].get(out.name)


class Workload:
    # (name, unit) of the three phases, in the order run.py numbers them.
    PHASES: tuple[tuple[str, str], ...] = ()
    # Phases bound by memory bandwidth, which the CPU reference load does not
    # follow: run.py scales them by the stream load instead (README.md gives
    # the measurements).
    MEMORY_BOUND: tuple[str, ...] = ()

    def __init__(self, seed: int, size: str, workdir: Path, checks: Checks, golden: dict) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.checks = checks
        self.golden = golden

    def units(self) -> dict[str, str]:
        """Unit of every key ``run_pass`` returns."""
        return dict(self.PHASES)

    def golden_commands(self) -> list[list[str]]:
        """File-producing commands whose output digests are pinned in golden.json."""
        return []

    def check_golden(self, argv: list[str]) -> None:
        key = golden_key(argv)
        expected = self.golden.get("digests", {}).get(key)
        if self.checks.take_fault():
            expected = "0" * 64
        digest = manifest_digest(Path(argv[argv.index("--out") + 1]))
        self.checks.record(
            expected is not None and digest == expected,
            f"golden digest of `{key}`: got {digest}, expected {expected} "
            f"(recorded under numpy {self.golden.get('numpy')}, running {np.__version__})",
        )

    def run_pass(self) -> dict[str, tuple[float, float]]:
        raise NotImplementedError

    def final_checks(self) -> None:
        pass


class Curriculum(Workload):
    """gen-traces through the four-stage curriculum, replay, then read back."""

    PHASES = (
        ("gen_traces_per_s", "traces/s"),
        ("replay_traces_per_s", "traces/s"),
        ("readback_traces_per_s", "traces/s"),
    )
    N_VARS = 5
    # Traces per stage: a full pass writes 20 traces and takes well under a
    # second, so that the machine's speed changes little within a pass.
    STAGE_SAMPLES = {"full": 5, "tiny": 3}
    FIXED_COUNT = {"full": 100, "tiny": 4}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.stage_samples = self.STAGE_SAMPLES[self.size]
        self.count = 4 * self.stage_samples
        self.out = self.workdir / "curriculum.jsonl"
        self.gen_argv = self._curriculum_argv(self.seed, self.out)
        self.replay_argv = [
            "replay",
            "--manifest", str(self.out) + ".manifest.json",
            "--out-dir", str(self.workdir / "replay"),
        ]

    def _curriculum_argv(self, seed: int, out: Path) -> list[str]:
        return [
            "gen-traces", "--curriculum",
            "--n-vars", str(self.N_VARS),
            "--stage-samples", str(self.stage_samples),
            "--seed", str(seed),
            "--out", str(out),
        ]

    def run_pass(self):
        code, text, gen_s = run_cli(self.gen_argv)
        self.checks.record(
            code == 0 and f"wrote {self.count} records" in text,
            f"gen-traces exit {code}: {text.strip()[-200:]}",
        )
        code, text, replay_s = run_cli(self.replay_argv)
        self.checks.record(
            code == 0 and text.count("-> match") == 1,
            f"replay exit {code}: {text.strip()[-200:]}",
        )
        return {
            "gen_traces_per_s": (self.count, gen_s),
            "replay_traces_per_s": (self.count, replay_s),
            "readback_traces_per_s": (self.count, self._read_back()),
        }

    def _read_back(self) -> float:
        """Parse and execute every record; check text, spans and final state."""
        elapsed = 0.0
        records = 0
        with open(self.out, encoding="utf-8") as fh:
            start = clock()
            for line in fh:
                record = json.loads(line)
                parsed = tr.parse(record["text"])
                result = tr.execute(parsed.events)
                elapsed += clock() - start
                records += 1
                expected_state = record["final_state"]
                if self.checks.take_fault():
                    expected_state = expected_state + [0]
                self.checks.record(
                    parsed.text == record["text"]
                    and [list(span) for span in parsed.reveal_spans] == record["reveal_spans"]
                    and list(parsed.final_state) == expected_state
                    and list(result.final_state) == expected_state
                    and not result.disagreements,
                    f"read-back record {records} differs from what gen-traces wrote",
                )
                start = clock()
        self.checks.record(records == self.count, f"read back {records} of {self.count} records")
        return elapsed

    def golden_commands(self) -> list[list[str]]:
        """The curriculum at the golden seed, and one fixed gen-traces config."""
        return [
            self._curriculum_argv(GOLDEN_SEED, self.workdir / "golden-curriculum.jsonl"),
            [
                "gen-traces", "--n-vars", "5", "--commands", "64", "--spacing", "8",
                "--kind", "full", "--count", str(self.FIXED_COUNT[self.size]), "--seed", "7",
                "--out", str(self.workdir / "golden-fixed.jsonl"),
            ],
        ]

    def final_checks(self) -> None:
        for argv in self.golden_commands():
            code, text, _seconds = run_cli(argv)
            self.checks.record(code == 0, f"golden gen-traces exit {code}: {text.strip()[-200:]}")
            self.check_golden(argv)


def marginal_projector(group) -> np.ndarray:
    """(n*n, n!) 0/1 matrix taking a belief over the arrangements in
    ``group`` to its n-by-n marginal, flattened row-major; a reference for
    ``joint_to_marginal``."""
    n = group[0].n
    out = np.zeros((n * n, len(group)))
    for index, c in enumerate(group):
        for element, position in enumerate(c.mapping):
            out[position * n + element, index] = 1.0
    return out


def sinkhorn_residual(h: np.ndarray) -> float:
    return float(max(np.abs(h.sum(axis=0) - 1.0).max(), np.abs(h.sum(axis=1) - 1.0).max()))


class ArrangementCase:
    """One arrangement automaton over n items with its symbol stream."""

    def __init__(self, n: int, steps: int, rng: np.random.Generator) -> None:
        group = perm.symmetric_group(n)
        mixes = []
        for k in (2, 4):
            picks = rng.choice(len(group), size=k, replace=False)
            weights = rng.dirichlet(np.ones(k))
            mixes.append(tuple((group[int(i)], float(w)) for i, w in zip(picks, weights)))
        position, element = (int(v) for v in rng.integers(n, size=2))
        symbols = [
            jt.mixture_symbol(n, mixes[0], action="position", name="mix2"),
            jt.mixture_symbol(n, mixes[1], action="position", name="mix4"),
            jt.placement_reveal_symbol(n, position, element, name="observe"),
        ]
        self.n = n
        self.automaton = jt.arrangement_automaton(n, symbols)
        self.stream = am.sample_trajectory(self.automaton, steps, rng).symbols
        self.reveal = 2
        self.ops = (mg.MixSpec(mixes[0]), mg.MixSpec(mixes[1]), mg.RevealSpec(position, element))
        self.projector = marginal_projector(group)


class Arrangements(Workload):
    """Exact filter, joint tracker and marginal tracker on arrangement automata."""

    PHASES = (
        ("filter_symbols_per_s", "symbols/s"),
        ("joint_symbols_per_s", "symbols/s"),
        ("marginal_symbols_per_s", "symbols/s"),
    )
    # (n, stream length); the filter and joint rates are those of the largest n.
    SIZES = {"full": ((5, 128), (6, 128), (7, 32)), "tiny": ((3, 16), (4, 16), (5, 12))}
    # At n = 7 each filter and joint step streams a 203 MB kernel.
    MEMORY_BOUND = ("filter_symbols_per_s", "joint_symbols_per_s")
    DECODE_EVERY = 8
    # The marginal tracker takes about a millisecond per stream, so each pass
    # runs it this many times over each stream.
    MARGINAL_REPEATS = 8
    TOL = 1e-9

    def __init__(self, *args) -> None:
        super().__init__(*args)
        rng = np.random.default_rng(self.seed)
        self.cases = [ArrangementCase(n, steps, rng) for n, steps in self.SIZES[self.size]]

    def units(self) -> dict[str, str]:
        units = dict(self.PHASES)
        units.update({f"{phase}.m{case.automaton.m}": unit for case in self.cases for phase, unit in self.PHASES})
        return units

    def run_pass(self):
        out = {}
        for case in self.cases:
            filter_s, joint_s, marginal_s = self._run_case(case)
            m, steps = case.automaton.m, len(case.stream)
            out[f"filter_symbols_per_s.m{m}"] = (steps, filter_s)
            out[f"joint_symbols_per_s.m{m}"] = (steps, joint_s)
            out[f"marginal_symbols_per_s.m{m}"] = (steps * self.MARGINAL_REPEATS, marginal_s)
        largest = self.cases[-1].automaton.m
        for phase in ("filter_symbols_per_s", "joint_symbols_per_s"):
            out[phase] = out[f"{phase}.m{largest}"]
        # The marginal tracker costs microseconds per step at every n, so its
        # rate pools all three streams: the n = 7 stream alone is too short
        # for its mix of cheap reveals and dearer mixes to repeat across seeds.
        pooled = [out[f"marginal_symbols_per_s.m{case.automaton.m}"] for case in self.cases]
        out["marginal_symbols_per_s"] = (sum(i for i, _ in pooled), sum(s for _, s in pooled))
        return out

    def _run_case(self, case: ArrangementCase) -> tuple[float, float, float]:
        """Run the three trackers over the stream one after another, each
        timed as a whole (the marginal tracker MARGINAL_REPEATS times), then
        check their stored outputs."""
        a, n, checks = case.automaton, case.n, self.checks

        b = am.one_hot(a.m, a.q0)
        beliefs = []
        start = clock()
        for symbol in case.stream:
            b = am.belief_update(a, b, symbol)
            beliefs.append(b)
        filter_s = clock() - start

        state = jt.joint_init(am.one_hot(a.m, a.q0))
        states, decodes = [], {}
        start = clock()
        for t, symbol in enumerate(case.stream, start=1):
            state = jt.joint_step(state, a, symbol)
            states.append(state)
            if t % self.DECODE_EVERY == 0:
                joint_marginal = mg.joint_to_marginal(jt.joint_decode(state), n)
                decodes[t] = (joint_marginal, mg.sinkhorn_project(joint_marginal))
        joint_s = clock() - start

        marginal_s = 0.0
        for _ in range(self.MARGINAL_REPEATS):
            h = mg.marginal_init(n)
            marginals = []
            start = clock()
            for symbol in case.stream:
                op = case.ops[symbol]
                h = mg.marginal_reveal(h, op) if symbol == case.reveal else mg.marginal_mix(h, op)
                marginals.append(h)
            marginal_s += clock() - start

        revealed = False
        for t, (symbol, b, state, h) in enumerate(zip(case.stream, beliefs, states, marginals), start=1):
            expected = b + 1.0 if checks.take_fault() else b
            gap = float(np.abs(state.h / state.h.sum() - expected).max())
            checks.record(gap <= self.TOL, f"C05 m={a.m} step {t}: joint decode off the filter by {gap:.2e}")
            revealed = revealed or symbol == case.reveal
            reference = (case.projector @ b).reshape(n, n)
            if not revealed:
                gap = float(np.abs(h - reference).max())
                checks.record(gap <= self.TOL, f"C06 m={a.m} step {t}: marginal tracker off the bridge by {gap:.2e}")
            if t in decodes:
                joint_marginal, projected = decodes[t]
                gap = float(np.abs(joint_marginal - reference).max())
                checks.record(gap <= self.TOL, f"bridge m={a.m} step {t}: joint_to_marginal off by {gap:.2e}")
                if projected.converged:
                    residual = sinkhorn_residual(projected.matrix)
                    checks.record(residual <= self.TOL, f"Sinkhorn m={a.m} step {t}: residual {residual:.2e}")
        return filter_s, joint_s, marginal_s


class LongHorizon(Workload):
    """Decay scenarios and verify through the CLI, then the Householder recurrence."""

    PHASES = (
        ("decay_rows_per_s", "rows/s"),
        ("verify_s", "s"),
        ("recurrence_swaps_per_s", "swaps/s"),
    )
    CYCLES = {"full": 500, "tiny": 12}
    VERIFY = {"full": ["verify"], "tiny": ["verify", "--runs", "8", "--trace-count", "8"]}
    # (n, swaps): C09's size, then one where the dense n-by-n product dominates.
    RECURRENCES = {"full": ((8, 8192), (64, 2048)), "tiny": ((8, 32), (16, 16))}

    def __init__(self, *args) -> None:
        super().__init__(*args)
        cycles = self.CYCLES[self.size]
        runs = [
            (["--scenario", "joint-absorbing", "--cycles", str(cycles)], 2 * cycles),
            (["--scenario", "marginal-swap-reveal", "--cycles", str(cycles)], 2 * cycles),
            (["--scenario", "dfa", "--steps", str(2 * cycles)], 2 * cycles),
            (["--scenario", "full-reveal-every-k", "--cycles", str(cycles), "--k", "8"], 2 * cycles + cycles // 8),
        ]
        self.decays = []
        for index, (flags, rows) in enumerate(runs):
            for emulate in ("none", "single"):
                out = self.workdir / f"decay-{index}-{emulate}.csv"
                argv = ["decay", *flags, "--emulate", emulate, "--out", str(out)]
                self.decays.append((argv, rows))
        self.rows = sum(rows for _argv, rows in self.decays)

        rng = np.random.default_rng(self.seed)
        self.recurrences = []
        for n, length in self.RECURRENCES[self.size]:
            first = rng.integers(n, size=length)
            second = (first + rng.integers(1, n, size=length)) % n
            steps = []
            # The reference is the permutation matrix of the composed swaps:
            # each swap exchanges two rows of the product so far.
            expected = np.eye(n)
            for i, j in zip(first.tolist(), second.tolist()):
                steps.append(hh.swap_head(n, i, j))
                expected[[i, j]] = expected[[j, i]]
            self.recurrences.append((n, steps, expected))
        self.swaps = sum(len(steps) for _n, steps, _expected in self.recurrences)

    def golden_commands(self) -> list[list[str]]:
        return [argv for argv, _rows in self.decays]

    def run_pass(self):
        decay_s = 0.0
        for argv, rows in self.decays:
            code, text, seconds = run_cli(argv)
            decay_s += seconds
            self.checks.record(
                code == 0 and f"wrote {rows} steps" in text,
                f"decay exit {code}: {text.strip()[-200:]}",
            )
            self.check_golden(argv)

        code, text, verify_s = run_cli(self.VERIFY[self.size])
        self.checks.record(
            code == 0 and "13/13 checks passed" in text,
            f"verify exit {code}: {text.strip()[-300:]}",
        )

        recurrence_s = 0.0
        for n, steps, expected in self.recurrences:
            start = clock()
            tracked = hh.run_recurrence(steps, np.eye(n))
            recurrence_s += clock() - start
            if self.checks.take_fault():
                expected = expected + 1.0
            gap = float(np.abs(tracked - expected).max())
            self.checks.record(gap <= 1e-12, f"C09 n={n}: recurrence off the composed swaps by {gap:.2e}")
        return {
            "decay_rows_per_s": (self.rows, decay_s),
            "verify_s": (1, verify_s),
            "recurrence_swaps_per_s": (self.swaps, recurrence_s),
        }


WORKLOADS = {"curriculum": Curriculum, "arrangements": Arrangements, "long-horizon": LongHorizon}
