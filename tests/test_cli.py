from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from revealtrack import checks
from revealtrack.automaton import write_automaton
from revealtrack.cli import _Int, build_parser, main
from revealtrack.scenarios import hidden_swap_automaton


GOLDEN = Path(__file__).parents[1] / "perfbench" / "golden.json"


def read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header.split(","), [row.split(",") for row in rows]


def test_gen_traces_count_and_manifest(tmp_path):
    out = tmp_path / "traces.jsonl"
    argv = [
        "gen-traces", "--n-vars", "5", "--commands", "64", "--spacing", "8",
        "--kind", "full", "--count", "100", "--seed", "7", "--out", str(out),
    ]
    assert main(argv) == 0
    assert len(out.read_text().splitlines()) == 100
    manifest = json.loads((tmp_path / "traces.jsonl.manifest.json").read_text())
    assert manifest["command"] == "gen-traces"
    assert manifest["config"]["seed"] == 7
    digest = manifest["outputs"]["traces.jsonl"]

    again = tmp_path / "again.jsonl"
    assert main(argv[:-1] + [str(again)]) == 0
    assert again.read_bytes() == out.read_bytes()
    assert json.loads((tmp_path / "again.jsonl.manifest.json").read_text())["outputs"]["again.jsonl"] == digest


def test_gen_traces_curriculum(tmp_path):
    out = tmp_path / "curriculum.jsonl"
    assert main([
        "gen-traces", "--curriculum", "--stage-samples", "2", "--seed", "3", "--out", str(out),
    ]) == 0
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 8
    assert [(r["n_commands"], r["reveal_spacing"]) for r in records] == [
        (8, 1), (8, 1), (16, 2), (16, 2), (32, 4), (32, 4), (64, 8), (64, 8),
    ]


def test_decay_joint(tmp_path):
    out = tmp_path / "joint.csv"
    assert main(["decay", "--scenario", "joint-absorbing", "--cycles", "10", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert header == ["step", "op", "l1_norm", "survival", "min_nonzero", "log2_norm"]
    assert len(rows) == 20
    for row in rows:
        step = int(row[0])
        assert float(row[2]) == 2.0 ** -(step // 2)


def test_decay_marginal(tmp_path):
    out = tmp_path / "marginal.csv"
    assert main(["decay", "--scenario", "marginal-swap-reveal", "--cycles", "3", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    floors = [float(row[4]) for row in rows if row[1] == "reveal"]
    assert floors == [0.5, 0.25, 0.125]
    assert all(row[3] == "" for row in rows)


def test_decay_dfa(tmp_path):
    out = tmp_path / "dfa.csv"
    assert main(["decay", "--scenario", "dfa", "--steps", "100", "--out", str(out)]) == 0
    _, rows = read_csv(out)
    assert len(rows) == 100
    assert all(float(row[2]) == 1.0 for row in rows)


def test_decay_emulated_underflow(tmp_path, capsys):
    out = tmp_path / "emu.csv"
    assert main([
        "decay", "--scenario", "joint-absorbing", "--cycles", "130",
        "--emulate", "single", "--out", str(out),
    ]) == 0
    assert "first underflow at step 254" in capsys.readouterr().out


def test_decay_with_resets(tmp_path, capsys):
    out = tmp_path / "resets.csv"
    assert main([
        "decay", "--scenario", "full-reveal-every-k", "--cycles", "64", "--k", "8",
        "--emulate", "single", "--out", str(out),
    ]) == 0
    assert "no underflow" in capsys.readouterr().out
    _, rows = read_csv(out)
    assert min(float(row[2]) for row in rows) == 2.0**-8


def test_decay_reports_match_golden_digests(tmp_path):
    # Every decay run of perfbench/golden.json, the benchmark's 500-cycle
    # runs included: single precision flushes only from cycle 127 on. Their
    # bytes do not depend on numpy's random streams.
    golden = json.loads(GOLDEN.read_text())
    keys = [key for key in golden["digests"] if key.startswith("decay ")]
    assert len(keys) == 16
    for key in keys:
        out = tmp_path / "decay.csv"
        assert main(key.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["digests"][key], key


def test_gen_traces_match_golden_digests(tmp_path):
    # The two small gen-traces runs of perfbench/golden.json. Their bytes
    # follow numpy's random streams, so they hold for the recorded version.
    golden = json.loads(GOLDEN.read_text())
    if np.__version__ != golden["numpy"]:
        pytest.skip(f"digests recorded under numpy {golden['numpy']}, running {np.__version__}")
    keys = [
        key for key in golden["digests"]
        if key.startswith("gen-traces ") and ("--stage-samples 3 " in key or "--count 4 " in key)
    ]
    assert len(keys) == 2
    for key in keys:
        out = tmp_path / "traces.jsonl"
        assert main(key.split() + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == golden["digests"][key], key


# Swap-command bytes and the default verify report, recorded under numpy
# 2.4.6. Both follow numpy's random streams, so they hold for that version.
RECORDED_NUMPY = "2.4.6"
SWAP_ARGV = "gen-traces --n-vars 5 --commands 64 --spacing 8 --kind swap --count 20 --seed 7"
SWAP_DIGEST = "b3433a6d9b784863b7cd7cb7f994a44ac56b0ae0fd756e13bfc3f871676c6ac5"
VERIFY_STDOUT = """\
PASS joint-absorbing-decay: inexact norms 0, max decode error 0.00e+00 over 20 cycles
PASS marginal-swap-reveal-decay: 5/5 matrices exact, unrevealed entry follows [0.5, 0.25, 0.125]
PASS noisy-swap-worked-example: h1 exact=True, h2 exact=True, uniform reset error 0.00e+00
PASS hidden-swap-belief: trajectory [1. 0.] -> [0.5 0.5] -> [1. 0.]
PASS joint-oracle-equivalence: 200 runs of 40 steps: decode err 2.22e-16, telescoping err 5.51e-15, log-mass err 5.33e-15
PASS marginal-joint-bridge: mixing error 2.22e-16 over 50 runs; largest posterior mass on a zeroed entry 0.00e+00 (389 reveals)
PASS sinkhorn-projection: 200 positive matrices: 0 unconverged, row/column sums within 9.87e-10 of 1; diagonal support -> identity True
PASS kronecker-vectorization: 200 marginal mix-then-reveal steps against their Kronecker form: max gap 2.22e-16
PASS householder-composition: 256 swaps in S_8: max deviation 1.27e-14, min eig -1.0
PASS householder-eigen-gate: beta=2 min eig -1.0; capped min eig 0.002, product det 4.127e-27 (a swap needs det -1)
PASS discretized-state-counts: 2**3! = 64, 10**81, 5**1 = 5
PASS trace-roundtrip: 300 traces reparsed=True, reveal disagreements=0, regenerated bytes identical=True, curriculum stages [(8, 1), (16, 2), (32, 4), (64, 8)]
PASS underflow-threshold: joint underflow at cycle 127, marginal at 127, with 8-cycle resets none over 1000 cycles (norm floor 0.00390625)
13/13 checks passed
"""


def _needs_recorded_numpy():
    if np.__version__ != RECORDED_NUMPY:
        pytest.skip(f"recorded under numpy {RECORDED_NUMPY}, running {np.__version__}")


def test_gen_traces_swap_digest(tmp_path):
    _needs_recorded_numpy()
    out = tmp_path / "swap.jsonl"
    assert main(SWAP_ARGV.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWAP_DIGEST


# At n = 2 half of all permutation draws are the identity and are drawn
# again, and 37 commands at spacing 5 leave a last window without a reveal.
FULL_REDRAW_ARGV = "gen-traces --n-vars 2 --commands 37 --spacing 5 --kind full --count 50 --seed 3"
FULL_REDRAW_DIGEST = "d6681725a0da028f096613018f610c67cf39540a9a9059d81b83ad8a96a089b6"


def test_gen_traces_full_redraw_digest(tmp_path):
    _needs_recorded_numpy()
    out = tmp_path / "full.jsonl"
    assert main(FULL_REDRAW_ARGV.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FULL_REDRAW_DIGEST


def test_verify_default_output(capsys):
    _needs_recorded_numpy()
    assert main(["verify"]) == 0
    assert capsys.readouterr().out == VERIFY_STDOUT


# The surface of the file-producing commands, recorded under numpy 2.4.6
# with relative paths: each command's stdout and its manifest text. The
# manifest config is every flag but --out.
SURFACE = (
    (
        SWAP_ARGV + " --out swap.jsonl",
        "wrote 20 records to swap.jsonl\n",
        """\
{
  "artifact": "revealtrack",
  "command": "gen-traces",
  "config": {
    "commands": 64,
    "count": 20,
    "curriculum": false,
    "kind": "elementary_swap",
    "n_vars": 5,
    "seed": 7,
    "spacing": 8,
    "stage_samples": 15000
  },
  "numpy": "2.4.6",
  "outputs": {
    "swap.jsonl": "b3433a6d9b784863b7cd7cb7f994a44ac56b0ae0fd756e13bfc3f871676c6ac5"
  },
  "version": "0.1.0"
}
""",
    ),
    (
        "gen-traces --curriculum --stage-samples 2 --seed 5 --out curriculum.jsonl",
        "wrote 8 records to curriculum.jsonl\n",
        """\
{
  "artifact": "revealtrack",
  "command": "gen-traces",
  "config": {
    "commands": 64,
    "count": 1000,
    "curriculum": true,
    "kind": "full_permutation",
    "n_vars": 5,
    "seed": 5,
    "spacing": 1,
    "stage_samples": 2
  },
  "numpy": "2.4.6",
  "outputs": {
    "curriculum.jsonl": "8205ad4f77e2ec93957dd5f51ea3dfbbd276400c3a766d281800079765a7923c"
  },
  "version": "0.1.0"
}
""",
    ),
    (
        "decay --scenario full-reveal-every-k --cycles 40 --k 4 --emulate single --out resets.csv",
        "wrote 90 steps to resets.csv\nno underflow\n",
        """\
{
  "artifact": "revealtrack",
  "command": "decay",
  "config": {
    "cycles": 40,
    "emulate": "single",
    "k": 4,
    "scenario": "full-reveal-every-k",
    "steps": 100
  },
  "numpy": "2.4.6",
  "outputs": {
    "resets.csv": "115f8efd1a029e11498082a3662b08691b185fb505d7330d0049d152c034848c"
  },
  "version": "0.1.0"
}
""",
    ),
    (
        "simulate --automaton hidden.pfsa --steps 4 --seed 6 --out sim.csv",
        "wrote 4 steps to sim.csv\n",
        """\
{
  "artifact": "revealtrack",
  "command": "simulate",
  "config": {
    "automaton": "hidden.pfsa",
    "seed": 6,
    "steps": 4
  },
  "inputs": {
    "automaton": "f88ee950a36d02c494a453d13a322dac0be93e143a5e9674e28b5aa9e238553d"
  },
  "numpy": "2.4.6",
  "outputs": {
    "sim.csv": "65fa281c2e040e67544f386a31a870d53535c018e60b6999c1c5fdb078657ed1"
  },
  "version": "0.1.0"
}
""",
    ),
)


def test_produce_stdout_and_manifests_match_recorded(tmp_path, monkeypatch, capsys):
    _needs_recorded_numpy()
    monkeypatch.chdir(tmp_path)
    write_automaton(hidden_swap_automaton(), "hidden.pfsa")
    for argv, stdout, manifest in SURFACE:
        assert main(argv.split()) == 0, argv
        assert capsys.readouterr().out == stdout, argv
        assert Path(argv.split()[-1] + ".manifest.json").read_text() == manifest, argv


def test_replay_prints_each_runners_summary(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_automaton(hidden_swap_automaton(), "hidden.pfsa")
    for argv, summary in (
        (
            "decay --scenario full-reveal-every-k --cycles 40 --k 4 --emulate single --out resets.csv",
            f"wrote 90 steps to {Path('again', 'resets.csv')}\nno underflow\n",
        ),
        (
            "simulate --automaton hidden.pfsa --steps 4 --seed 6 --out sim.csv",
            f"wrote 4 steps to {Path('again', 'sim.csv')}\n",
        ),
    ):
        out = argv.split()[-1]
        assert main(argv.split()) == 0
        capsys.readouterr()
        assert main(["replay", "--manifest", out + ".manifest.json", "--out-dir", "again"]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith(summary), printed
        digest_line = printed[len(summary):]
        assert digest_line.startswith(f"{out}: recorded ") and digest_line.endswith(" -> match\n")
        assert digest_line.count("\n") == 1


def test_decay_rejects_unknown_scenario(tmp_path, capsys):
    # Every usage error, the unknown scenario among them, is one error line.
    for argv in (
        ["decay", "--scenario", "nonsense", "--out", str(tmp_path / "x.csv")],
        ["decay", "--out", str(tmp_path / "x.csv")],
        ["verify", "--runs", "abc"],
        ["nonsense"],
    ):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: revealtrack") and captured.err.count("\n") == 1, argv
    assert not (tmp_path / "x.csv").exists()


def test_simulate_belief_log(tmp_path):
    automaton_path = tmp_path / "hidden.pfsa"
    write_automaton(hidden_swap_automaton(), automaton_path)
    out = tmp_path / "sim.csv"
    # seed 6 drives the environment through swap then check
    assert main([
        "simulate", "--automaton", str(automaton_path),
        "--steps", "2", "--seed", "6", "--out", str(out),
    ]) == 0
    header, rows = read_csv(out)
    assert header == ["step", "symbol", "state", "b0", "b1"]
    assert rows[0][1:] == ["", "0", "1.0", "0.0"]
    assert rows[1][1] == "swap" and rows[1][3:] == ["0.5", "0.5"]
    assert rows[2][1] == "check" and rows[2][3:] == ["1.0", "0.0"]

    rerun = tmp_path / "sim2.csv"
    assert main([
        "simulate", "--automaton", str(automaton_path),
        "--steps", "2", "--seed", "6", "--out", str(rerun),
    ]) == 0
    assert rerun.read_bytes() == out.read_bytes()


def test_simulate_missing_file(tmp_path):
    assert main([
        "simulate", "--automaton", str(tmp_path / "absent.pfsa"), "--out", str(tmp_path / "x.csv"),
    ]) == 2


def test_simulate_invalid_automaton(tmp_path, capsys):
    bad = tmp_path / "bad.pfsa"
    head = "pfsa v1\nstates 2\nq0 0\n"
    documents = (
        ("0", "0.9 0.0\n0.0 1.0", "column 0 sums to 0.9"),
        ("0 2", "1.0 0.0\n0.0 1.0", "reveals state 2, outside range(2)"),
        ("0", "nan 0.0\nnan 1.0", "non-finite"),
    )
    texts = [(head + f"symbol s\nreveal {reveal}\nT\n{kernel}\n", message) for reveal, kernel, message in documents]
    # A blank line may end a document but not split it.
    texts.append((
        head + "symbol s\nreveal 0 1\nT\n1.0 0.0\n0.0 1.0\n\nsymbol t\nreveal 0\nT\n1.0 0.0\n0.0 1.0\n",
        "line 10: 'symbol t' follows a blank line",
    ))
    for text, message in texts:
        bad.write_text(text)
        assert main(["simulate", "--automaton", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err, err


def test_simulate_dead_end_is_one_line_error(tmp_path, capsys):
    # state 0 moves to state 1, which no symbol reveals
    doomed = tmp_path / "doomed.pfsa"
    doomed.write_text("pfsa v1\nstates 2\nq0 0\nsymbol s\nreveal 0\nT\n0.0 0.0\n1.0 1.0\n")
    assert main([
        "simulate", "--automaton", str(doomed), "--steps", "3", "--out", str(tmp_path / "x.csv"),
    ]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_small_run(capsys):
    assert main(["verify", "--runs", "10", "--trace-count", "10"]) == 0
    out = capsys.readouterr().out
    assert "13/13 checks passed" in out
    assert "FAIL" not in out


def test_verify_runs_past_float64_range(capsys):
    # At 2500 steps a run's mass leaves float64's range; C05 compares it in
    # the state's own power-of-two scale.
    assert main(["verify", "--steps", "2500", "--runs", "20"]) == 0
    assert "13/13 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("count", ("0", "-3"))
def test_gen_traces_rejects_count_below_one(tmp_path, capsys, count):
    out = tmp_path / "traces.jsonl"
    assert main(["gen-traces", "--count", count, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: gen-traces --count must be at least 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decay", "--scenario", "joint-absorbing", "--cycles", "0"], "decay --cycles must be at least 1, got 0"),
        (["decay", "--scenario", "dfa", "--steps", "0"], "decay --steps must be at least 1, got 0"),
        (["decay", "--scenario", "full-reveal-every-k", "--k", "0"], "decay --k must be at least 1, got 0"),
        (["gen-traces", "--seed", "-1"], "gen-traces --seed must be at least 0, got -1"),
        (["gen-traces", "--curriculum", "--stage-samples", "0"],
         "gen-traces --stage-samples must be at least 1, got 0"),
        (["verify", "--seed", "-1"], "verify --seed must be at least 0, got -1"),
    ],
    ids=["decay-cycles", "decay-dfa-steps", "decay-k", "gen-traces-seed", "stage-samples", "verify-seed"],
)
def test_integer_flag_below_its_minimum_names_the_flag(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    if argv[0] != "verify":
        argv = argv + ["--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_every_integer_flag_has_a_minimum():
    # No flag parses with a bare int: every flag with an integer default
    # declares its bounds in its ``_Int`` type, and they hold the default.
    for command, subparser in build_parser().commands.items():
        for action in subparser._actions:
            assert action.type is not int, (command, action.dest)
            if type(action.default) is int:
                assert isinstance(action.type, _Int), (command, action.dest)
                assert action.type.low <= action.default <= action.type.high, (command, action.dest)


def test_integer_flag_above_its_maximum_names_the_flag(tmp_path, capsys):
    out = tmp_path / "traces.jsonl"
    assert main(["gen-traces", "--n-vars", "27", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: gen-traces --n-vars must be at most 26, got 27\n"
    assert not out.exists()


def test_verify_injected_fault(capsys, monkeypatch):
    failing = checks.CheckResult(
        "underflow-threshold",
        "deliberate failure",
        {"joint_underflow_cycle": 126},
        (("joint_underflow_cycle", "==", 127),),
    )
    monkeypatch.setattr(checks, "check_underflow_threshold", lambda: failing)
    assert main(["verify", "--runs", "5", "--trace-count", "5"]) == 1
    assert "FAIL underflow-threshold: deliberate failure" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, value",
    [("--runs", "0"), ("--max-n", "1"), ("--steps", "0"), ("--trace-count", "0")],
)
def test_verify_rejects_sizes_that_check_nothing(flag, value, capsys):
    assert main(["verify", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert flag in captured.err


def test_parser_is_built_once_and_keeps_each_commands_defaults(tmp_path):
    parser = build_parser()
    assert build_parser() is parser
    for argv, defaults in (
        (["decay", "--scenario", "dfa"], {"steps": 100, "cycles": 20, "k": 8, "emulate": "none"}),
        (["verify"], {"steps": 40, "seed": 20260810, "runs": 200}),
        (["gen-traces"], {"seed": 0, "count": 1000, "spacing": 1}),
        (["decay", "--scenario", "dfa"], {"steps": 100, "cycles": 20, "k": 8, "emulate": "none"}),
        (["gen-traces"], {"seed": 0, "count": 1000, "spacing": 1}),
    ):
        args = parser.parse_args(argv)
        assert {key: getattr(args, key) for key in defaults} == defaults, argv
        assert not hasattr(args, "scenario") or argv[0] == "decay"

    traces, decay = tmp_path / "traces.jsonl", tmp_path / "decay.csv"
    gen_argv = ["gen-traces", "--count", "2", "--commands", "4", "--out", str(traces)]
    decay_argv = ["decay", "--scenario", "dfa", "--out", str(decay)]
    configs = []
    for argv, out in ((gen_argv, traces), (decay_argv, decay), (gen_argv, traces), (decay_argv, decay)):
        assert main(argv) == 0
        configs.append(json.loads(out.with_name(out.name + ".manifest.json").read_text())["config"])
    assert configs[0] == configs[2] and configs[1] == configs[3]
    assert (configs[0]["seed"], configs[0]["n_vars"], configs[0]["spacing"]) == (0, 5, 1)
    assert configs[1] == {"scenario": "dfa", "cycles": 20, "steps": 100, "k": 8, "emulate": "none"}


def test_replay_matches_and_detects_tampering(tmp_path):
    out = tmp_path / "traces.jsonl"
    assert main([
        "gen-traces", "--n-vars", "3", "--commands", "8", "--spacing", "2",
        "--kind", "swap", "--count", "5", "--seed", "11", "--out", str(out),
    ]) == 0
    manifest_path = tmp_path / "traces.jsonl.manifest.json"
    assert main([
        "replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "replayed"),
    ]) == 0
    assert (tmp_path / "replayed" / "traces.jsonl").read_bytes() == out.read_bytes()

    tampered = json.loads(manifest_path.read_text())
    tampered["outputs"]["traces.jsonl"] = "0" * 64
    manifest_path.write_text(json.dumps(tampered))
    assert main([
        "replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "replayed2"),
    ]) == 1


def test_replay_warns_when_numpy_differs(tmp_path, capsys):
    out = tmp_path / "traces.jsonl"
    assert main([
        "gen-traces", "--n-vars", "3", "--commands", "8", "--count", "3", "--seed", "2", "--out", str(out),
    ]) == 0
    manifest_path = tmp_path / "traces.jsonl.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["numpy"] == np.__version__
    manifest["numpy"] = "0.0.0"
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "again")]) == 0
    captured = capsys.readouterr()
    assert "-> match" in captured.out
    assert captured.err == (
        f"warning: replay may not reproduce the outputs: numpy 0.0.0 recorded, {np.__version__} running\n"
    )


def test_replay_reports_automaton_edited_after_simulate(tmp_path, capsys):
    automaton_path = tmp_path / "hidden.pfsa"
    write_automaton(hidden_swap_automaton(), automaton_path)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--automaton", str(automaton_path), "--steps", "4", "--out", str(out)]) == 0
    manifest_path = tmp_path / "sim.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["inputs"] == {"automaton": hashlib.sha256(automaton_path.read_bytes()).hexdigest()}

    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "same")]) == 0
    assert capsys.readouterr().err == ""

    # A trailing blank line changes the file's bytes but not the automaton.
    automaton_path.write_text(automaton_path.read_text() + "\n")
    assert main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "edited")]) == 0
    captured = capsys.readouterr()
    assert "-> match" in captured.out
    assert captured.err == (
        f"warning: replay may not reproduce the outputs: input {automaton_path} changed since the run\n"
    )


def test_replay_without_recorded_conditions(tmp_path, capsys):
    # Manifests written before numpy and inputs were recorded still replay.
    automaton_path = tmp_path / "hidden.pfsa"
    write_automaton(hidden_swap_automaton(), automaton_path)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--automaton", str(automaton_path), "--steps", "4", "--out", str(out)]) == 0
    manifest_path = tmp_path / "sim.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["numpy"], manifest["inputs"]
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "again")]) == 0
    captured = capsys.readouterr()
    assert "-> match" in captured.out and captured.err == ""


@pytest.mark.parametrize("drop", ("outputs", "emulate"))
def test_replay_incomplete_manifest_is_one_line_error(tmp_path, capsys, drop):
    out = tmp_path / "joint.csv"
    assert main(["decay", "--scenario", "joint-absorbing", "--cycles", "2", "--out", str(out)]) == 0
    manifest_path = tmp_path / "joint.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.pop(drop, None)
    manifest["config"].pop(drop, None)
    manifest_path.write_text(json.dumps(manifest))
    assert main([
        "replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "again"),
    ]) == 2
    err = capsys.readouterr().err
    assert err == f"error: manifest lacks key {drop!r}\n"


def test_replay_manifest_fields_must_be_objects(tmp_path, capsys):
    manifest_path = tmp_path / "odd.manifest.json"
    manifest_path.write_text(json.dumps({"command": "decay", "config": [], "outputs": {}}))
    assert main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: manifest outputs and config must be JSON objects\n"


def _replay_edited(tmp_path, capsys, argv, edit):
    """The exit code and standard error of replaying the manifest that
    ``argv`` writes, after ``edit`` has changed it."""
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    manifest_path = tmp_path / "out.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    edit(manifest)
    manifest_path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = main(["replay", "--manifest", str(manifest_path), "--out-dir", str(tmp_path / "again")])
    return code, capsys.readouterr().err


DECAY_ARGV = ["decay", "--scenario", "joint-absorbing", "--cycles", "2"]
GEN_ARGV = ["gen-traces", "--curriculum", "--stage-samples", "1"]


@pytest.mark.parametrize(
    "argv, key, stored",
    [
        pytest.param(DECAY_ARGV, "scenario",
                     "joint-absorbing, marginal-swap-reveal, dfa, full-reveal-every-k", id="scenario"),
        pytest.param(DECAY_ARGV, "emulate", "none, single", id="emulate"),
        pytest.param(["gen-traces", "--count", "2", "--commands", "4"], "kind",
                     "full_permutation, elementary_swap", id="kind"),
    ],
)
def test_replay_unknown_flag_value_is_one_line_error(tmp_path, capsys, argv, key, stored):
    code, err = _replay_edited(tmp_path, capsys, argv, lambda m: m["config"].update({key: "nonsense"}))
    flag = f"{argv[0]} --{key}"
    assert (code, err) == (2, f'error: {flag} must be one of {stored}, got "nonsense"\n')
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize(
    "argv, key, value, message",
    [
        (DECAY_ARGV, "cycles", "40", "'cycles' must be an integer, got \"40\""),
        (DECAY_ARGV, "cycles", 40.0, "'cycles' must be an integer, got 40.0"),
        (DECAY_ARGV, "cycles", True, "'cycles' must be an integer, got true"),
        (DECAY_ARGV, "emulate", 1, "'emulate' must be a string, got 1"),
        (GEN_ARGV, "curriculum", "yes", "'curriculum' must be true or false, got \"yes\""),
    ],
    ids=["int-as-string", "int-as-float", "int-as-bool", "table-as-int", "bool-as-string"],
)
def test_replay_checks_each_value_against_its_flag(tmp_path, capsys, argv, key, value, message):
    code, err = _replay_edited(tmp_path, capsys, argv, lambda m: m["config"].update({key: value}))
    assert code == 2
    assert err == f"error: manifest config {message}\n"


def test_replay_checks_each_value_against_its_minimum(tmp_path, capsys):
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m["config"].update(cycles=0))
    assert (code, err) == (2, "error: decay --cycles must be at least 1, got 0\n")
    assert not (tmp_path / "again").exists()


def test_replay_checks_each_value_against_its_maximum(tmp_path, capsys):
    code, err = _replay_edited(tmp_path, capsys, GEN_ARGV, lambda m: m["config"].update(n_vars=27))
    assert (code, err) == (2, "error: gen-traces --n-vars must be at most 26, got 27\n")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("key, value", [("bogus", 1), ("help", True)])
def test_replay_rejects_a_key_that_no_flag_has(tmp_path, capsys, key, value):
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m["config"].update({key: value}))
    assert (code, err) == (2, f"error: manifest config {key!r} is not a flag of decay\n")
    assert not (tmp_path / "again").exists()


def test_replay_checks_the_command_and_digests_first(tmp_path, capsys):
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m.update(command=["decay"]))
    assert (code, err) == (2, "error: manifest command ['decay'] is not replayable\n")
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m.update(outputs={"out": 7}))
    assert (code, err) == (2, "error: manifest outputs must map each file name to a digest string\n")


def test_replay_rejects_an_input_the_command_does_not_read(tmp_path, capsys):
    code, err = _replay_edited(tmp_path, capsys, GEN_ARGV, lambda m: m.update(inputs={"seed": "00"}))
    assert (code, err) == (2, "error: manifest input 'seed' is not an input file of gen-traces\n")
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("name", ("../up.csv", "sub/out.csv", "ABSOLUTE", "", ".", "..", "a\0b"))
def test_replay_writes_nothing_outside_its_out_dir(tmp_path, capsys, name):
    name = str(tmp_path / "up.csv") if name == "ABSOLUTE" else name
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m.update(outputs={name: "0" * 64}))
    assert (code, err) == (2, f"error: manifest output {name!r} is not a bare file name\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["out", "out.manifest.json"]


@pytest.mark.parametrize("count", (0, 2))
def test_replay_needs_exactly_one_output(tmp_path, capsys, count):
    outputs = {f"out{index}": "0" * 64 for index in range(count)}
    code, err = _replay_edited(tmp_path, capsys, DECAY_ARGV, lambda m: m.update(outputs=outputs))
    assert (code, err) == (2, f"error: manifest outputs must name exactly one file, got {count}\n")
    assert not (tmp_path / "again").exists()


def test_replay_rejects_a_non_string_input_digest(tmp_path, capsys):
    automaton_path = tmp_path / "hidden.pfsa"
    write_automaton(hidden_swap_automaton(), automaton_path)
    argv = ["simulate", "--automaton", str(automaton_path), "--steps", "4"]
    code, err = _replay_edited(tmp_path, capsys, argv, lambda m: m.update(inputs={"automaton": 7}))
    assert (code, err) == (2, "error: manifest inputs must map each input to a digest string\n")
    code, err = _replay_edited(tmp_path, capsys, argv, lambda m: m.update(inputs=["automaton"]))
    assert (code, err) == (2, "error: manifest inputs must be a JSON object\n")
    assert not (tmp_path / "again").exists()
