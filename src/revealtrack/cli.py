"""Command-line entry point.

Commands:

- ``gen-traces``: sample transcript datasets (JSONL), optionally through
  the four-stage curriculum.
- ``decay``: replay a decay scenario and write the per-step CSV report.
- ``simulate``: sample a trajectory from an automaton file and log the
  exact belief per step.
- ``verify``: run the named self-checks; nonzero exit on any failure.
- ``replay``: re-run the command recorded in a manifest and confirm the
  regenerated outputs match the recorded digests byte-for-byte.

The file-producing commands take one path: the parsed flags minus
``--out`` are the config, ``_RUNNERS`` gives the runner that writes the
output and returns the summary to print, and ``<output>.manifest.json``
records the command, the config, the package and numpy versions, and the
sha256 of the output and of each input file. ``_check_config`` holds
the parsed flags and a replayed config alike: each key must be a flag of
the command, each value must have its flag's type, an integer must be
within the bounds its flag's ``add_argument`` declares, and a choice must
be a value its flag can store. ``replay`` also checks that the manifest
names one output as a bare file name, then calls the same runner on the
manifest's config. All randomness descends from the single ``--seed``
flag (per-trace seeds are split deterministically), so identical
manifests regenerate identical bytes; ``replay`` warns when the running
numpy, whose random streams may change between versions, or a recorded
input differs.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, checks
from . import scenarios as sc
from . import trace as tr
from .automaton import DeadEndError, belief_trajectory, read_automaton, sample_trajectory


_KIND_FLAGS = {"full": tr.FULL_PERMUTATION, "swap": tr.ELEMENTARY_SWAP}
_SCENARIOS = {
    "joint-absorbing": lambda c: sc.adversarial_joint_scenario(c["cycles"]),
    "marginal-swap-reveal": lambda c: sc.adversarial_marginal_scenario(c["cycles"]),
    "dfa": lambda c: sc.dfa_scenario(c["steps"]),
    "full-reveal-every-k": lambda c: sc.adversarial_joint_scenario(c["cycles"], reset_every=c["k"]),
}
_GRIDS = {"none": None, "single": sc.SINGLE_PRECISION}


@dataclass(frozen=True)
class _Int:
    """An integer flag's type, which parses as ``int`` does, and its bounds.
    Below ``low`` a size draws from an empty range or checks nothing, a
    variable count has nothing to permute, and a seed is no seed numpy takes."""

    low: int
    high: float = math.inf
    __name__ = "int"  # argparse names the type of a malformed value by it

    def __call__(self, text: str) -> int:
        return int(text)


class _KindAction(argparse.Action):
    """Stores the command kind a ``--kind`` value names, as manifests record it."""

    def __call__(self, parser, namespace, value, option_string=None):
        setattr(namespace, self.dest, _KIND_FLAGS[value])


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_gen_traces(config: dict, out: Path) -> str:
    if config["curriculum"]:
        batches = tr.curriculum(
            stage_samples=config["stage_samples"],
            n_vars=config["n_vars"],
            base_seed=config["seed"],
        )
        configs = [c for batch in batches for c in batch]
    else:
        configs = [
            tr.TraceConfig(
                n_vars=config["n_vars"],
                n_commands=config["commands"],
                reveal_spacing=config["spacing"],
                command_kind=config["kind"],
                seed=tr.derive_seed(config["seed"], 0, index),
            )
            for index in range(config["count"])
        ]
    count = tr.export_dataset((tr.generate(c) for c in configs), out)
    return f"wrote {count} records to {out}"


def _run_decay(config: dict, out: Path) -> str:
    grid = _GRIDS[config["emulate"]]
    report = sc.run_and_report(_SCENARIOS[config["scenario"]](config), grid)
    report.to_csv(out)
    summary = f"wrote {len(report.rows)} steps to {out}"
    if grid is None:
        return summary
    step = report.first_underflow_step
    return summary + ("\nno underflow" if step is None else f"\nfirst underflow at step {step}")


def _run_simulate(config: dict, out: Path) -> str:
    automaton = read_automaton(config["automaton"])
    rng = np.random.default_rng(config["seed"])
    trajectory = sample_trajectory(automaton, config["steps"], rng)
    beliefs = belief_trajectory(automaton, trajectory.symbols)
    with open(out, "w", encoding="utf-8") as fh:
        belief_cols = ",".join(f"b{i}" for i in range(automaton.m))
        fh.write(f"step,symbol,state,{belief_cols}\n")
        for t in range(len(trajectory.states)):
            symbol = "" if t == 0 else automaton.symbols[trajectory.symbols[t - 1]].name
            row = ",".join(repr(float(v)) for v in beliefs[t])
            fh.write(f"{t},{symbol},{trajectory.states[t]},{row}\n")
    return f"wrote {config['steps']} steps to {out}"


# Each file-producing command: its runner and the config keys naming input files.
_RUNNERS = {
    "gen-traces": (_run_gen_traces, ()),
    "decay": (_run_decay, ()),
    "simulate": (_run_simulate, ("automaton",)),
}


def _flags(args: argparse.Namespace) -> dict:
    """The parsed flags by dest, without the command and its handler."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "func")}


def _cmd_produce(args: argparse.Namespace) -> int:
    config = _flags(args)
    out = Path(config.pop("out"))
    run, input_keys = _RUNNERS[args.command]
    manifest = {
        "artifact": "revealtrack",
        "version": __version__,
        "numpy": np.__version__,
        "command": args.command,
        "config": config,
    }
    if input_keys:
        manifest["inputs"] = {key: _sha256(Path(config[key])) for key in input_keys}
    print(run(config, out))
    manifest["outputs"] = {out.name: _sha256(out)}
    path = out.with_name(out.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = checks.run_all(**_flags(args))
    for result in results:
        print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    failures = sum(not result.passed for result in results)
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


class _Manifest(dict):
    """A JSON object read from a manifest; a missing key is a one-line error."""

    def __missing__(self, key):
        raise ValueError(f"manifest lacks key {key!r}")


def _replay_conditions(manifest: dict, config: dict, input_keys: tuple) -> list[str]:
    """What differs from the run a manifest records: the numpy version and
    the digest of each recorded input. A key the manifest lacks is not
    checked, so older manifests replay without a warning; an input that is
    not one of the command's ``input_keys`` is an error."""
    changed = []
    recorded = manifest.get("numpy")
    if recorded is not None and recorded != np.__version__:
        changed.append(f"numpy {recorded} recorded, {np.__version__} running")
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("manifest inputs must be a JSON object")
    for key, digest in inputs.items():
        if key not in input_keys:
            raise ValueError(f"manifest input {key!r} is not an input file of {manifest['command']}")
        if not isinstance(digest, str):
            raise ValueError("manifest inputs must map each input to a digest string")
        path = Path(config[key])
        if _sha256(path) != digest:
            changed.append(f"input {path} changed since the run")
    return changed


def _check_config(command: str, config: dict) -> None:
    """Each key of ``config`` must be a flag of ``command``, and each value
    must have the type its flag parses to: an int flag takes an int that is
    not a bool and is within the flag's bounds, a ``store_true`` flag a
    bool, and every other flag (a choice or a path) a string. A choice flag
    takes only a value it can store: ``--kind`` stores the command kind its
    name maps to, and every other choice stores its name."""
    # ``--help`` stores nothing, so no config holds it.
    actions = {a.dest: a for a in build_parser().commands[command]._actions if a.default is not argparse.SUPPRESS}
    for key, value in config.items():
        action = actions.get(key)
        if action is None:
            raise ValueError(f"manifest config {key!r} is not a flag of {command}")
        bounds = action.type
        if isinstance(bounds, _Int):
            ok, expected = type(value) is int, "an integer"
        elif action.nargs == 0:
            ok, expected = type(value) is bool, "true or false"
        else:
            ok, expected = isinstance(value, str), "a string"
        if not ok:
            raise ValueError(f"manifest config {key!r} must be {expected}, got {json.dumps(value)}")
        flag = f"{command} {action.option_strings[0]}"
        if isinstance(bounds, _Int) and value < bounds.low:
            raise ValueError(f"{flag} must be at least {bounds.low}, got {value}")
        if isinstance(bounds, _Int) and value > bounds.high:
            raise ValueError(f"{flag} must be at most {bounds.high}, got {value}")
        if action.choices is not None:
            stored = _KIND_FLAGS.values() if isinstance(action, _KindAction) else action.choices
            if value not in stored:
                raise ValueError(f"{flag} must be one of {', '.join(stored)}, got {json.dumps(value)}")


def _cmd_replay(args: argparse.Namespace) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"), object_hook=_Manifest)
    command = manifest["command"]
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ValueError(f"manifest command {command!r} is not replayable")
    outputs, config = manifest["outputs"], manifest["config"]
    if not isinstance(outputs, dict) or not isinstance(config, dict):
        raise ValueError("manifest outputs and config must be JSON objects")
    # Every runner writes one file, named without a directory part, so
    # replay writes nothing outside ``--out-dir``; a NUL byte, which no
    # path may hold, fails here rather than after ``--out-dir`` is made.
    if len(outputs) != 1:
        raise ValueError(f"manifest outputs must name exactly one file, got {len(outputs)}")
    [(name, recorded)] = outputs.items()
    if name in ("", ".", "..") or "\0" in name or Path(name).name != name:
        raise ValueError(f"manifest output {name!r} is not a bare file name")
    if not isinstance(recorded, str):
        raise ValueError("manifest outputs must map each file name to a digest string")
    _check_config(command, config)
    run, input_keys = _RUNNERS[command]
    changed = _replay_conditions(manifest, config, input_keys)
    if changed:
        print("warning: replay may not reproduce the outputs: " + "; ".join(changed), file=sys.stderr)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / name
    print(run(config, out))
    fresh = _sha256(out)
    match = "match" if fresh == recorded else "MISMATCH"
    print(f"{name}: recorded {recorded[:12]} regenerated {fresh[:12]} -> {match}")
    return 0 if fresh == recorded else 1


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise, so ``main`` reports them in one
    line; ``commands`` maps each command name to its subparser."""

    commands: dict[str, argparse.ArgumentParser]

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it
    unchanged, and every call returns a fresh namespace."""
    parser = _Parser(
        prog="revealtrack",
        description="Probabilistic state tracking with reveals: datasets, decay runs, checks.",
    )
    parser.add_argument("--version", action="version", version=f"revealtrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    gen = sub.add_parser("gen-traces", help="generate a transcript dataset (JSONL)")
    gen.add_argument("--n-vars", type=_Int(2, tr.MAX_VARS), default=5, help="variables per trace")
    gen.add_argument("--commands", type=_Int(1), default=64, help="commands per trace")
    gen.add_argument("--spacing", type=_Int(1), default=1, help="reveal after every S-th command")
    gen.add_argument("--kind", choices=_KIND_FLAGS, default=tr.FULL_PERMUTATION, action=_KindAction)
    gen.add_argument("--count", type=_Int(1), default=1000, help="number of traces")
    gen.add_argument("--seed", type=_Int(0), default=0)
    gen.add_argument("--curriculum", action="store_true", help="use the four-stage schedule")
    gen.add_argument("--stage-samples", type=_Int(1), default=15000, help="traces per curriculum stage")
    gen.add_argument("--out", default="traces.jsonl")
    gen.set_defaults(func=_cmd_produce)

    decay = sub.add_parser("decay", help="run a decay scenario and write the CSV report")
    decay.add_argument("--scenario", choices=_SCENARIOS, required=True)
    decay.add_argument("--cycles", type=_Int(1), default=20)
    decay.add_argument("--steps", type=_Int(1), default=100, help="steps for the dfa scenario")
    decay.add_argument("--k", type=_Int(1), default=8, help="reset cadence in cycles")
    decay.add_argument("--emulate", choices=_GRIDS, default="none")
    decay.add_argument("--out", default="decay.csv")
    decay.set_defaults(func=_cmd_produce)

    simulate = sub.add_parser("simulate", help="sample a trajectory and log exact beliefs")
    simulate.add_argument("--automaton", required=True, help="automaton document path")
    simulate.add_argument("--steps", type=_Int(1), default=10)
    simulate.add_argument("--seed", type=_Int(0), default=0)
    simulate.add_argument("--out", default="simulate.csv")
    simulate.set_defaults(func=_cmd_produce)

    verify = sub.add_parser("verify", help="run the self-check suite")
    verify.add_argument("--runs", type=_Int(1), default=200)
    verify.add_argument("--max-n", type=_Int(2), default=5)
    verify.add_argument("--steps", type=_Int(1), default=40)
    verify.add_argument("--trace-count", type=_Int(1), default=300)
    verify.add_argument("--seed", type=_Int(0), default=20260810)
    verify.set_defaults(func=_cmd_verify)

    replay = sub.add_parser("replay", help="regenerate a manifest's outputs and compare digests")
    replay.add_argument("--manifest", required=True)
    replay.add_argument("--out-dir", default="replay-out")
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_config(args.command, _flags(args))
        return args.func(args)
    except (ValueError, OSError, DeadEndError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
