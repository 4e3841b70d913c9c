"""Spans around calls into revealtrack's public functions, installed from outside.

The tracer never edits the package. It replaces every module-level binding
of a public function (including the copies that ``from .x import y`` put
into other modules and into the package namespace) with a wrapper, and
restores the originals on ``uninstall``. Calls between modules therefore go
through the wrappers too, which is what gives each module its self time.

Two kinds of wrapper:

- a span records calls and self time (duration minus the time of spans
  opened inside it) and, for selected functions, the per-call duration
  under a size label so latency percentiles can be reported per size;
- a counter only counts calls. Hot leaf functions get a counter, not a
  span: a span costs about a microsecond, more than the leaf itself, and
  its parent's self time absorbs the leaf's cost instead.

Spans are aggregated as they close instead of being stored one by one: a
long-horizon pass makes a few hundred thousand calls, and aggregating keeps
the traced process's memory flat.
"""

from __future__ import annotations

import importlib
import inspect
import math
import os
import time
from collections import defaultdict
from statistics import median

PACKAGE = "revealtrack"
MODULES = ("perm", "automaton", "joint", "marginal", "householder", "scenarios", "trace", "checks", "cli")

# Hot leaves: counted, never spanned.
COUNT_ONLY = {
    "perm": ("lex_index", "compose", "transposition", "identity", "sample_uniform"),
    "trace": ("var_name",),
    "automaton": ("one_hot",),
}

# Methods spanned besides module-level functions: (module, class, method).
METHODS = (("scenarios", "FloatGrid", "round_array"), ("scenarios", "DecayReport", "to_csv"))


def _m_of_automaton(arg_index):
    return lambda args, result: f"m{args[arg_index].m}"


def _file_bytes(sink) -> int:
    return os.path.getsize(sink) if isinstance(sink, (str, os.PathLike)) else 0


def _recurrence_flops(args) -> int:
    steps, h0 = args[0], args[1]
    n = h0.shape[0]
    k = h0.shape[1] if h0.ndim == 2 else 1
    # Per step: outer product, scaling and subtraction from I (3 n^2), then
    # the dense product A @ H (2 n^2 k).
    return len(steps) * (3 * n * n + 2 * n * n * k)


class Tracer:
    """Aggregated spans and counters for one traced process."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object, object]] = []
        self.spans: set[str] = set()
        self._build()

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, label=None, extra=None):
        self.spans.add(name)
        stack = self._stack
        calls, self_s, durations = self.calls, self.self_s, self.durations
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                calls[name] += 1
                self_s[name] += elapsed - frame[0]
            if label is not None:
                durations[f"{name}.{label(args, result)}"].append(elapsed)
            if extra is not None:
                extra(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _add(self, key, value) -> None:
        self.counts[key] += value

    # -- what gets wrapped ------------------------------------------------

    def _build(self) -> None:
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
        labels = {
            "automaton.belief_update": _m_of_automaton(0),
            "joint.joint_step": _m_of_automaton(1),
            "trace.generate": lambda args, result: f"c{args[0].n_commands}",
            "trace.parse": lambda args, result: f"c{result.config.n_commands}",
        }
        extras = {
            "marginal.sinkhorn_project": lambda args, r: (
                self._add("marginal.sinkhorn_project.iterations", r.iterations),
                self._add("marginal.sinkhorn_project.converged", int(r.converged)),
            ),
            "householder.run_recurrence": lambda args, r: (
                self._add("householder.run_recurrence.steps", len(args[0])),
                self._add("householder.run_recurrence.flops", _recurrence_flops(args)),
            ),
            "scenarios.run_and_report": lambda args, r: self._add(
                "scenarios.run_and_report.rows", len(r.rows)
            ),
            "scenarios.DecayReport.to_csv": lambda args, r: self._add(
                "scenarios.DecayReport.to_csv.bytes", _file_bytes(args[1])
            ),
            "trace.export_dataset": lambda args, r: self._add(
                "trace.export_dataset.bytes", _file_bytes(args[1])
            ),
        }

        replacements: dict[int, object] = {}
        for mod_name, mod in mods.items():
            leaves = COUNT_ONLY.get(mod_name, ())
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue  # imported from elsewhere; wrapped under its home module
                name = f"{mod_name}.{attr}"
                if attr in leaves:
                    replacements[id(obj)] = self._counter(f"{name}.calls", obj)
                else:
                    replacements[id(obj)] = self._span(name, obj, labels.get(name), extras.get(name))

        # Rebind every module-level reference, including re-exports.
        namespaces = list(mods.values()) + [importlib.import_module(PACKAGE)]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    self._patches.append((ns, attr, obj, wrapper))

        for mod_name, cls_name, meth in METHODS:
            cls = getattr(mods[mod_name], cls_name)
            name = f"{mod_name}.{cls_name}.{meth}"
            fn = vars(cls)[meth]
            self._patches.append((cls, meth, fn, self._span(name, fn, labels.get(name), extras.get(name))))

        perm_cls = mods["perm"].Permutation
        init = vars(perm_cls)["__post_init__"]

        def permutation_init(obj, _init=init, counts=self.counts):
            counts["perm.Permutation.constructed"] += 1
            _init(obj)

        self._patches.append((perm_cls, "__post_init__", init, permutation_init))

        symbol_cls = mods["automaton"].Symbol
        symbol_init = vars(symbol_cls)["__post_init__"]

        def symbol_post_init(obj, _init=symbol_init, counts=self.counts):
            _init(obj)
            counts["automaton.kernel_bytes"] += obj.transition.nbytes

        self._patches.append((symbol_cls, "__post_init__", symbol_init, symbol_post_init))

    # -- switching --------------------------------------------------------

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def snapshot(self) -> dict:
        """Totals so far, for splitting set-up from the measured passes."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }


# -- per-layer metrics ------------------------------------------------------

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Latency metric -> the span label its samples are recorded under. The
# trace layer is timed at curriculum stage 4 (64 commands, spacing 8): a
# median over all four stages would sit between two stage lengths.
LATENCIES = {
    "automaton.belief_update.us_per_call.m120": "automaton.belief_update.m120",
    "automaton.belief_update.us_per_call.m720": "automaton.belief_update.m720",
    "automaton.belief_update.us_per_call.m5040": "automaton.belief_update.m5040",
    "joint.joint_step.us_per_call.m120": "joint.joint_step.m120",
    "joint.joint_step.us_per_call.m720": "joint.joint_step.m720",
    "joint.joint_step.us_per_call.m5040": "joint.joint_step.m5040",
    "trace.generate.us_per_call": "trace.generate.c64",
    "trace.parse.us_per_call": "trace.parse.c64",
}


def joint_step_flops(m: int) -> int:
    """Computed: reveal mask product (m), dense matvec (2 m^2), two sums (2 m)."""
    return 2 * m * m + 3 * m


def joint_step_bytes(m: int) -> int:
    """Computed: the float64 kernel once (8 m^2) plus nine passes over
    length-m float64 vectors (mask build, product, matvec in and out, two
    sums, the state copy). Cache reuse is ignored."""
    return 8 * m * m + 72 * m


def latency_summary(samples: list[float]) -> dict:
    """Median and the highest ladder percentile with at least ten samples
    beyond it (nearest rank), in microseconds."""
    if not samples:
        return {"median": 0.0, "tail": 0.0, "tail_pct": 0.0, "samples": 0}
    ordered = sorted(samples)
    n = len(ordered)
    out = {"median": median(ordered) * 1e6, "tail": 0.0, "tail_pct": 0.0, "samples": n}
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= 10:
            out["tail"] = ordered[math.ceil(pct / 100.0 * n) - 1] * 1e6
            out["tail_pct"] = pct
            break
    return out


def per_layer_metrics(specs: list[dict], tracer: Tracer, setup: dict, passes: list[dict]) -> dict:
    """Every per-layer metric named in ``specs``.

    Spans and counts are given per unit of work: one set-up plus the mean
    of the traced passes, which all do the same work, so counts repeat
    exactly from run to run. Latencies pool every traced call.
    """
    final = tracer.snapshot()
    traced = [p["seconds"] for p in passes if p["traced"]]
    plain = [p["seconds"] for p in passes[1:] if not p["traced"]]  # pass 0 warms caches

    def per_unit(kind: str, key: str) -> float:
        before = setup[kind].get(key, 0)
        return before + (final[kind].get(key, 0) - before) / len(traced)

    def total(kind: str, key: str) -> float:
        return final[kind].get(key, 0)

    latencies = {name: latency_summary(tracer.durations.get(key, [])) for name, key in LATENCIES.items()}

    def value(name: str):
        if name == "trace_overhead_share":
            return median(traced) / median(plain) - 1.0
        if name.count(".") == 1 and name.endswith(".self_s") and name.split(".")[0] in MODULES:
            prefix = name.split(".")[0] + "."
            return sum(per_unit("self_s", k) for k in final["self_s"] if k.startswith(prefix))
        for base, summary in latencies.items():
            if name == base:
                return summary["median"]
            if name.startswith(base + "."):
                return summary[name[len(base) + 1:]]
        head, _, size = name.rpartition(".")
        if head in ("joint.joint_step.flops_per_call", "joint.joint_step.bytes_per_call",
                    "joint.joint_step.flops_per_byte", "joint.joint_step.gbps"):
            m = int(size[1:])
            if not latencies[f"joint.joint_step.us_per_call.{size}"]["samples"]:
                return 0.0  # no calls at this state count
            if head.endswith("flops_per_call"):
                return joint_step_flops(m)
            if head.endswith("bytes_per_call"):
                return joint_step_bytes(m)
            if head.endswith("flops_per_byte"):
                return joint_step_flops(m) / joint_step_bytes(m)
            seconds = latencies[f"joint.joint_step.us_per_call.{size}"]["median"] * 1e-6
            return joint_step_bytes(m) / seconds / 1e9
        if name == "marginal.sinkhorn_project.converged_share":
            calls = total("calls", "marginal.sinkhorn_project")
            return total("counts", "marginal.sinkhorn_project.converged") / calls if calls else 0.0
        if name == "householder.run_recurrence.flops_per_step":
            steps = total("counts", "householder.run_recurrence.steps")
            return total("counts", "householder.run_recurrence.flops") / steps if steps else 0.0
        if name.endswith(".self_s"):
            return per_unit("self_s", name[: -len(".self_s")])
        if name.endswith(".calls") and name[: -len(".calls")] in tracer.spans:
            return per_unit("calls", name[: -len(".calls")])
        return per_unit("counts", name)

    def samples(name: str) -> int:
        for base, summary in latencies.items():
            if name == base or name.startswith(base + "."):
                return summary["samples"]
        return len(traced)  # per-pass values are means over the traced passes

    return {
        spec["name"]: {"value": float(value(spec["name"])), "unit": spec["unit"], "samples": samples(spec["name"])}
        for spec in specs
    }
