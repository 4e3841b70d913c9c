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

Every file-producing command writes ``<output>.manifest.json`` next to its
output, recording the command, the full flag configuration, the seed, the
package and numpy versions, and a sha256 per output file; ``simulate`` also
records the sha256 of its input automaton. All randomness descends from the
single ``--seed`` flag (per-trace seeds are split deterministically), so
identical manifests regenerate identical bytes. ``numpy``'s random streams
may change between its versions, so ``replay`` warns when the running numpy
or a recorded input differs from the manifest.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, checks
from . import scenarios as sc
from . import trace as tr
from .automaton import DeadEndError, belief_trajectory, read_automaton, sample_trajectory, validate

_KIND_FLAGS = {"swap": tr.ELEMENTARY_SWAP, "full": tr.FULL_PERMUTATION}
_SCENARIOS = ("joint-absorbing", "marginal-swap-reveal", "dfa", "full-reveal-every-k")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out: Path, command: str, config: dict, inputs: dict | None = None) -> Path:
    """``inputs`` maps a config key that names an input file to its sha256."""
    manifest = {
        "artifact": "revealtrack",
        "version": __version__,
        "numpy": np.__version__,
        "command": command,
        "config": config,
        "outputs": {out.name: _sha256(out)},
    }
    if inputs:
        manifest["inputs"] = inputs
    path = out.with_name(out.name + ".manifest.json")
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _run_gen_traces(config: dict, out: Path) -> None:
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
    print(f"wrote {count} records to {out}")


def _cmd_gen_traces(args: argparse.Namespace) -> int:
    config = {
        "curriculum": args.curriculum,
        "stage_samples": args.stage_samples,
        "n_vars": args.n_vars,
        "commands": args.commands,
        "spacing": args.spacing,
        "kind": _KIND_FLAGS[args.kind],
        "count": args.count,
        "seed": args.seed,
    }
    out = Path(args.out)
    _run_gen_traces(config, out)
    _write_manifest(out, "gen-traces", config)
    return 0


def _build_scenario(config: dict):
    name = config["scenario"]
    if name == "joint-absorbing":
        return sc.adversarial_joint_scenario(config["cycles"])
    if name == "marginal-swap-reveal":
        return sc.adversarial_marginal_scenario(config["cycles"])
    if name == "dfa":
        return sc.dfa_scenario(config["steps"])
    if name == "full-reveal-every-k":
        return sc.adversarial_joint_scenario(config["cycles"], reset_every=config["k"])
    raise ValueError(f"unknown scenario {name!r}")


def _run_decay(config: dict, out: Path) -> sc.DecayReport:
    grid = sc.SINGLE_PRECISION if config["emulate"] == "single" else None
    report = sc.run_and_report(_build_scenario(config), grid)
    report.to_csv(out)
    return report


def _cmd_decay(args: argparse.Namespace) -> int:
    config = {
        "scenario": args.scenario,
        "cycles": args.cycles,
        "steps": args.steps,
        "k": args.k,
        "emulate": args.emulate,
    }
    out = Path(args.out)
    report = _run_decay(config, out)
    print(f"wrote {len(report.rows)} steps to {out}")
    if config["emulate"] != "none":
        if report.first_underflow_step is None:
            print("no underflow")
        else:
            print(f"first underflow at step {report.first_underflow_step}")
    _write_manifest(out, "decay", config)
    return 0


def _run_simulate(config: dict, out: Path) -> None:
    automaton = read_automaton(config["automaton"])
    problems = validate(automaton)
    if problems:
        raise ValueError("invalid automaton: " + "; ".join(problems))
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = {"automaton": str(args.automaton), "steps": args.steps, "seed": args.seed}
    out = Path(args.out)
    inputs = {"automaton": _sha256(Path(config["automaton"]))}
    _run_simulate(config, out)
    print(f"wrote {config['steps']} steps to {out}")
    _write_manifest(out, "simulate", config, inputs)
    return 0


# The smallest value of each size flag of ``verify``: below it a check
# either draws from an empty range or checks nothing.
_VERIFY_MINIMUMS = {"runs": 1, "max_n": 2, "steps": 1, "trace_count": 1}


def _cmd_verify(args: argparse.Namespace) -> int:
    for dest, low in _VERIFY_MINIMUMS.items():
        value = getattr(args, dest)
        if value < low:
            flag = "--" + dest.replace("_", "-")
            raise ValueError(f"verify {flag} must be at least {low}, got {value}")
    results = checks.run_all(
        runs=args.runs,
        max_n=args.max_n,
        steps=args.steps,
        trace_count=args.trace_count,
        seed=args.seed,
        inject_fault=args.inject_fault,
    )
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        failures += 0 if result.passed else 1
        print(f"{status} {result.name}: {result.detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


_RUNNERS = {
    "gen-traces": _run_gen_traces,
    "decay": _run_decay,
    "simulate": _run_simulate,
}


class _Manifest(dict):
    """A JSON object read from a manifest; a missing key is a one-line error."""

    def __missing__(self, key):
        raise ValueError(f"manifest lacks key {key!r}")


def _replay_conditions(manifest: dict, config: dict) -> list[str]:
    """What differs from the run a manifest records: the numpy version and
    the digest of each recorded input. A key the manifest lacks is not
    checked, so older manifests replay without a warning."""
    changed = []
    recorded = manifest.get("numpy")
    if recorded is not None and recorded != np.__version__:
        changed.append(f"numpy {recorded} recorded, {np.__version__} running")
    inputs = manifest.get("inputs", {})
    if not isinstance(inputs, dict):
        raise ValueError("manifest inputs must be a JSON object")
    for key, digest in inputs.items():
        path = Path(config[key])
        if _sha256(path) != digest:
            changed.append(f"input {path} changed since the run")
    return changed


def _cmd_replay(args: argparse.Namespace) -> int:
    manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"), object_hook=_Manifest)
    command = manifest["command"]
    if command not in _RUNNERS:
        print(f"manifest command {command!r} is not replayable", file=sys.stderr)
        return 2
    outputs, config = manifest["outputs"], manifest["config"]
    if not isinstance(outputs, dict) or not isinstance(config, dict):
        raise ValueError("manifest outputs and config must be JSON objects")
    changed = _replay_conditions(manifest, config)
    if changed:
        print("warning: replay may not reproduce the outputs: " + "; ".join(changed), file=sys.stderr)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ok = True
    for name, recorded in outputs.items():
        out = out_dir / name
        _RUNNERS[command](config, out)
        fresh = _sha256(out)
        match = "match" if fresh == recorded else "MISMATCH"
        ok = ok and fresh == recorded
        print(f"{name}: recorded {recorded[:12]} regenerated {fresh[:12]} -> {match}")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process: parsing leaves it
    unchanged, and every call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="revealtrack",
        description="Probabilistic state tracking with reveals: datasets, decay runs, checks.",
    )
    parser.add_argument("--version", action="version", version=f"revealtrack {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-traces", help="generate a transcript dataset (JSONL)")
    gen.add_argument("--n-vars", type=int, default=5, help="variables per trace")
    gen.add_argument("--commands", type=int, default=64, help="commands per trace")
    gen.add_argument("--spacing", type=int, default=1, help="reveal after every S-th command")
    gen.add_argument("--kind", choices=sorted(_KIND_FLAGS), default="full")
    gen.add_argument("--count", type=int, default=1000, help="number of traces")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--curriculum", action="store_true", help="use the four-stage schedule")
    gen.add_argument("--stage-samples", type=int, default=15000, help="traces per curriculum stage")
    gen.add_argument("--out", default="traces.jsonl")
    gen.set_defaults(func=_cmd_gen_traces)

    decay = sub.add_parser("decay", help="run a decay scenario and write the CSV report")
    decay.add_argument("--scenario", choices=_SCENARIOS, required=True)
    decay.add_argument("--cycles", type=int, default=20)
    decay.add_argument("--steps", type=int, default=100, help="steps for the dfa scenario")
    decay.add_argument("--k", type=int, default=8, help="reset cadence in cycles")
    decay.add_argument("--emulate", choices=("none", "single"), default="none")
    decay.add_argument("--out", default="decay.csv")
    decay.set_defaults(func=_cmd_decay)

    simulate = sub.add_parser("simulate", help="sample a trajectory and log exact beliefs")
    simulate.add_argument("--automaton", required=True, help="automaton document path")
    simulate.add_argument("--steps", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", default="simulate.csv")
    simulate.set_defaults(func=_cmd_simulate)

    verify = sub.add_parser("verify", help="run the self-check suite")
    verify.add_argument("--runs", type=int, default=200)
    verify.add_argument("--max-n", type=int, default=5)
    verify.add_argument("--steps", type=int, default=40)
    verify.add_argument("--trace-count", type=int, default=300)
    verify.add_argument("--seed", type=int, default=20260810)
    verify.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    verify.set_defaults(func=_cmd_verify)

    replay = sub.add_parser("replay", help="regenerate a manifest's outputs and compare digests")
    replay.add_argument("--manifest", required=True)
    replay.add_argument("--out-dir", default="replay-out")
    replay.set_defaults(func=_cmd_replay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DeadEndError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
