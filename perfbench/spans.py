"""In-memory span tracer for the traced benchmark run.

The tracer sits outside the program: it wraps the public functions of each
dotchain layer module and rebinds every dotchain namespace that holds one of
them (the defining module, the modules that imported the name, the package
re-exports). Calls between layers and calls inside one layer both resolve
through those namespaces, so both are recorded. Restoring the originals
makes the next pass untraced again.

A span is (id, parent id, name, start, end). At each span's end the tracer
adds its duration to its parent's child time, so a span's self time is its
duration minus its child spans' durations; those never overlap because the
run has one thread. Counts and times are summed per (parent name, name)
pair as spans end. The spans themselves are kept in memory, up to
SPAN_CAP of them, and written out once at the end.
"""

from __future__ import annotations

import collections
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("physics", "pulse", "rng", "noise", "state", "measurement", "harness", "config")

# Methods traced as spans of their layer, besides the module-level functions.
METHODS = (
    ("state", "ChainState", "__post_init__"),
    ("config", "ExperimentConfig", "build_pulse"),
)

CONFIG_PARSERS = ("config.parse_kv_text", "config.load_config_file", "config.config_from_strings")

# Bounds the spans file to about 10 MB; a fidelity_sweep pass makes ~120k spans.
SPAN_CAP = 200_000


def _count_mc(counters, bound, result):
    trials = bound.arguments["trials"]
    counters["noise.mc.trials"] += trials
    counters["noise.buffer_bytes_computed"] += trials * (bound.arguments["n_qubits"] - 1) * 8


def _count_dense(counters, bound, result):
    counters["state.dense_bytes_computed"] += bound.arguments["self"].amplitudes.nbytes


def _count_csv(counters, bound, result):
    counters["harness.bytes_written"] += os.path.getsize(bound.arguments["path"])


def _count_manifest(counters, bound, result):
    counters["harness.bytes_written"] += os.path.getsize(result)


# Counters kept at the call boundary; each hook sees the bound arguments.
HOOKS = {
    "noise.monte_carlo_fidelity": _count_mc,
    "state.ChainState.__post_init__": _count_dense,
    "harness.write_csv": _count_csv,
    "harness.write_manifest": _count_manifest,
}


class Tracer:
    """Records spans around every public function of the dotchain layers."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.spans_total = 0
        # Frames of the open spans: [name id, span id or -1 past the cap, child seconds].
        self.stack = [[-1, -1, 0.0]]
        self.pair_calls: collections.Counter = collections.Counter()
        self.pair_s: collections.Counter = collections.Counter()
        self.self_s: collections.Counter = collections.Counter()
        self.counters: collections.Counter = collections.Counter()
        self._patches = self._plan()

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding to rebind."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dotchain.{layer}"]
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[id(value)] = (value, self._wrap(value, f"{layer}.{attr}"))
        patches = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dotchain" and not mod_name.startswith("dotchain."):
                continue
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    patches.append((module, attr, value, wrappers[id(value)][1]))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"dotchain.{layer}"], cls_name)
            original = vars(cls)[meth]
            patches.append((cls, meth, original, self._wrap(original, f"{layer}.{cls_name}.{meth}")))
        return patches

    def _wrap(self, fn, span_name: str):
        sid = len(self.names)
        self.names.append(span_name)
        hook = HOOKS.get(span_name)
        signature = inspect.signature(fn) if hook else None
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, pair_calls, pair_s, self_s = self.stack, self.pair_calls, self.pair_s, self.self_s
        counters = self.counters
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            top = stack[-1]
            idx = -1
            if len(names) < SPAN_CAP:
                idx = len(names)
                names.append(sid)
                parents.append(top[1])
                starts.append(0.0)
                ends.append(0.0)
            frame = [sid, idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                top[2] += duration
                pair = (top[0], sid)
                pair_calls[pair] += 1
                pair_s[pair] += duration
                self_s[sid] += duration - frame[2]
                tracer.spans_total += 1
                if idx >= 0:
                    starts[idx] = t0
                    ends[idx] = t1
            if hook is not None:
                hook(counters, signature.bind(*args, **kwargs), result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _tallies(self):
        return (self.pair_calls, self.pair_s, self.self_s, self.counters)

    def mark(self):
        """A point to roll back to, so that only chosen passes count."""
        return len(self.span_name), self.spans_total, [collections.Counter(t) for t in self._tallies()]

    def rollback(self, point) -> None:
        size, total, saved = point
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[size:]
        self.spans_total = total
        for tally, old in zip(self._tallies(), saved):
            tally.clear()
            tally.update(old)

    def write(self, path) -> None:
        """Spans as JSON lines: a header with the name table, then one span a line."""
        with open(path, "w") as fh:
            header = {
                "names": self.names,
                "fields": ["id", "parent", "name", "start_s", "end_s"],
                "spans_total": self.spans_total,
                "spans_written": len(self.span_name),
            }
            fh.write(json.dumps(header) + "\n")
            rows = zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            for i, (sid, par, t0, t1) in enumerate(rows):
                fh.write(f"[{i},{par},{sid},{t0!r},{t1!r}]\n")

    def layer_metrics(self, work_units: int) -> dict[str, float]:
        """Per-layer counts and times over every span since the last rollback point."""
        names = self.names

        def layer(sid: int) -> str:
            return "" if sid < 0 else names[sid].split(".", 1)[0]

        calls: collections.Counter = collections.Counter()
        incl: collections.Counter = collections.Counter()
        layer_calls: collections.Counter = collections.Counter()
        integrand = branches = 0
        contract_s = parse_s = 0.0
        for (psid, sid), n in self.pair_calls.items():
            span, seconds = names[sid], self.pair_s[(psid, sid)]
            calls[span] += n
            incl[span] += seconds
            layer_calls[layer(sid)] += n
            if span == "physics.ising_coupling" and layer(psid) == "pulse":
                integrand += n
            elif span == "state.ideal_cluster_fidelity" and layer(psid) == "noise":
                contract_s += seconds
            elif span in CONFIG_PARSERS and layer(psid) != "config":
                parse_s += seconds
            elif span == "measurement.project" and psid >= 0 and names[psid] == "measurement.measure":
                branches += n
        physics_self = sum(s for sid, s in self.self_s.items() if layer(sid) == "physics")

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        c = self.counters
        return {
            "physics.calls": layer_calls["physics"],
            "physics.self_s": physics_self,
            "pulse.solve_hold_time.calls": calls["pulse.solve_hold_time"],
            "pulse.solve_hold_time.s": incl["pulse.solve_hold_time"],
            "pulse.accumulated_phase.calls": calls["pulse.accumulated_phase"],
            "pulse.integrand_evals": integrand,
            "rng.streams": calls["rng.stream_rng"],
            "rng.stream_s": incl["rng.stream_rng"],
            "rng.streams_per_item": ratio(calls["rng.stream_rng"], work_units),
            "noise.mc.s": incl["noise.monte_carlo_fidelity"],
            "noise.mc.trials": c["noise.mc.trials"],
            "noise.sample_s": incl["noise.sample_bond_errors"],
            "noise.contract_s": contract_s,
            "noise.exact.s": incl["noise.exact_mean_fidelity"],
            "noise.buffer_bytes_computed": c["noise.buffer_bytes_computed"],
            "state.dense_vectors": calls["state.ChainState.__post_init__"],
            "state.dense_bytes_computed": c["state.dense_bytes_computed"],
            "state.stabilizer.calls": calls["state.stabilizer_expectation"],
            "state.stabilizer.s": incl["state.stabilizer_expectation"],
            "state.evolve.s": incl["state.apply_ising_phases"],
            "state.ideal_cluster.s": incl["state.ideal_cluster"],
            "state.fidelity.s": incl["state.state_fidelity"],
            "measurement.measure.calls": calls["measurement.measure"],
            "measurement.measure.s": incl["measurement.measure"],
            "measurement.project.calls": calls["measurement.project"],
            "measurement.project.s": incl["measurement.project"],
            "measurement.branches_per_measure": ratio(branches, calls["measurement.measure"]),
            "harness.write_csv.s": incl["harness.write_csv"],
            "harness.manifest.s": incl["harness.write_manifest"],
            "harness.bytes_written": c["harness.bytes_written"],
            "config.parse.s": parse_s,
            "config.build_pulse.s": incl["config.ExperimentConfig.build_pulse"],
        }
