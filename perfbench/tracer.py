"""Span tracer for the benchmark's traced runs.

The tracer wraps the public functions of each layer from outside the
package and records one span per call: layer name, start, end and the span
that was open when the call began.  A layer's self time is the duration of
its spans minus the part covered by their direct child spans.

The drivers import their layer functions with ``from .x import y``, so a
wrapper has to be installed in the namespace of the module that makes the
call (``bohmctx.scenarios.propagate``, not ``bohmctx.propagation.propagate``).
Functions that the drivers reach through a module attribute
(``analysis.audit_trajectories``, ``pointer.block_overlap``) are wrapped on
that module.  ``Tracer.installed`` restores every original on exit, so an
untraced run in the same process measures unmodified code.

Counts are computed from call arguments and results (grid points x
components x steps, trajectories x steps, ...), never timed, so they repeat
exactly across runs of the same code.
"""

import contextlib
import functools
import importlib
import inspect
import math
import time
from collections import Counter
from pathlib import Path

ROOT_LAYER = "cli"


# A counter is called as counter(tracer, arguments, result) after each call of
# its function, with the call's arguments bound to parameter names.

def _count_propagate(tracer, a, result):
    counts = tracer.counts
    state, n_steps, stride = a["state"], a["n_steps"], a["frame_stride"]
    components = 2 if hasattr(state, "up") else 1
    counts["propagation.point_steps"] += (math.prod(state.grid.shape)
                                          * components * n_steps)
    counts["propagation.frames"] += (n_steps // stride + 1 if stride
                                     else 1 + (n_steps > 0))


def _count_grid_rk4(tracer, a, result):
    counts = tracer.counts
    stacks = a["stacks"]
    n_steps = round((float(stacks.times[-1]) - float(stacks.times[0]))
                    / a["dt_traj"])
    counts["trajectories.rk4.traj_steps"] += len(a["positions"]) * n_steps
    counts["trajectories.rk4.failed"] += sum(1 for tr in result if tr.failed)
    for arr in (stacks.rho, *stacks.g, stacks.peaks):
        if id(arr) not in tracer.arrays:
            tracer.arrays[id(arr)] = arr  # held so that ids are not reused
            counts["guidance.stack_bytes"] += arr.nbytes


def _count_pointer_rk4(tracer, a, result):
    counts = tracer.counts
    n, coords = a["initial"].shape
    n_steps = round(a["model"].T / a["dt"])
    counts["pointer.rk4.coord_steps"] += n * coords * n_steps
    counts["pointer.rk4.trajectories"] += n
    counts["pointer.rk4.node_events"] += int(result.node_counts.sum())


def _count_samples(tracer, a, result):
    tracer.counts["sampling.samples"] += a["n"]


def _count_csv_rows(tracer, a, result):
    stride = a["stride"]
    tracer.counts["cli.write.rows"] += sum(len(range(0, len(tr.times), stride))
                                           for tr in a["trajectories"])


def _count_output_bytes(tracer, a, result):
    tracer.counts["cli.write.bytes"] += sum(Path(p).stat().st_size
                                            for p in result)


# (module, attribute, layer, counter).  Every call of a wrapped function also
# adds one to "<layer>.calls".
PATCHES = (
    ("bohmctx.cli", "run_scenario", "scenarios", None),
    ("bohmctx.cli", "write_outputs", "cli.write", _count_output_bytes),
    ("bohmctx.cli", "write_trajectories_csv", "cli.write", _count_csv_rows),
    ("bohmctx.cli", "_write_json", "cli.write", None),
    ("bohmctx.scenarios", "propagate", "propagation", _count_propagate),
    ("bohmctx.scenarios", "build_stacks", "guidance.build_stacks", None),
    ("bohmctx.scenarios", "current_and_density",
     "guidance.current_and_density", None),
    ("bohmctx.scenarios", "sample_equilibrium", "sampling", _count_samples),
    ("bohmctx.scenarios", "sample_model_equilibrium", "sampling",
     _count_samples),
    ("bohmctx.scenarios", "integrate_over_stacks", "trajectories.rk4",
     _count_grid_rk4),
    ("bohmctx.scenarios", "integrate_pointer_ensemble", "pointer.rk4",
     _count_pointer_rk4),
    ("bohmctx.scenarios", "classify_point", "pointer.classify", None),
    ("bohmctx.scenarios", "predictor_system", "pointer.predict", None),
    ("bohmctx.scenarios", "predictor_block_sum", "pointer.predict", None),
    ("bohmctx.scenarios", "born_rule_ks", "analysis", None),
    ("bohmctx.analysis", "audit_trajectories", "analysis", None),
    ("bohmctx.analysis", "determinant_attribution", "analysis", None),
    ("bohmctx.pointer", "block_overlap", "pointer.overlap", None),
    ("bohmctx.pointer", "system_overlap", "pointer.overlap", None),
)

LAYERS = ("propagation", "guidance.current_and_density",
          "guidance.build_stacks", "sampling", "trajectories.rk4",
          "pointer.rk4", "pointer.classify", "pointer.overlap",
          "pointer.predict", "analysis", "cli.write", "scenarios")


class Tracer:
    """Records spans and counts for the calls of wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []    # [layer, start, end, parent index or -1]
        self.counts = Counter()
        self.arrays = {}   # stack arrays already counted, by id
        self._open = []    # indices of spans not yet ended

    def wrap(self, layer, fn, counter=None):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([layer, self.clock(), None, parent])
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                self.spans[idx][2] = self.clock()
            self.counts[f"{layer}.calls"] += 1
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Install wrappers for `PATCHES`; restore every original on exit."""
        saved = []
        try:
            for module_name, attr, layer, counter in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
            self.arrays.clear()

    def self_times(self) -> dict:
        """Seconds per layer: span durations minus their direct children."""
        out = Counter()
        for layer, start, end, _ in self.spans:
            out[layer] += end - start
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[self.spans[parent][0]] -= end - start
        return dict(out)

    def total(self, layer) -> float:
        """Summed duration of the spans of `layer` that have no parent
        of the same layer."""
        return sum(end - start for name, start, end, parent in self.spans
                   if name == layer and (parent < 0
                                         or self.spans[parent][0] != layer))


def layer_metrics(self_s: dict, counts: dict, wall_s: float,
                  run_scenario_s: float) -> dict:
    """Per-layer metrics of one traced run, keyed as in `UNITS`.

    `self_s` maps layer to self time in seconds, `wall_s` is the traced
    duration of ``cli.main`` and `run_scenario_s` that of ``run_scenario``.
    Each layer's self time is given as ``<layer>.calls_per_s``, its calls
    divided by its self time, so that it does not move when another layer
    gets faster and reads 0, without being a time, on a layer the workload
    never calls; throughputs likewise divide a computed count by the
    layer's self time.  ``trace.overhead_frac`` needs untraced runs and is
    added by the caller.
    """
    def rate(num, layer):
        t = self_s.get(layer, 0.0)
        return num / t if t > 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    c = Counter(counts)
    m = {f"{layer}.calls_per_s": rate(c[f"{layer}.calls"], layer)
         for layer in LAYERS}
    write_mb = c["cli.write.bytes"] / 1e6
    m.update({
        "propagation.point_steps": c["propagation.point_steps"],
        "propagation.point_steps_per_s":
            rate(c["propagation.point_steps"], "propagation"),
        "guidance.current_and_density.calls_per_frame":
            ratio(c["guidance.current_and_density.calls"],
                  c["propagation.frames"]),
        "guidance.stack_mb": c["guidance.stack_bytes"] / 1e6,
        "sampling.samples": c["sampling.samples"],
        "trajectories.rk4.traj_steps": c["trajectories.rk4.traj_steps"],
        "trajectories.rk4.traj_steps_per_s":
            rate(c["trajectories.rk4.traj_steps"], "trajectories.rk4"),
        "trajectories.rk4.failed": c["trajectories.rk4.failed"],
        "pointer.rk4.coord_steps": c["pointer.rk4.coord_steps"],
        "pointer.rk4.coord_steps_per_s":
            rate(c["pointer.rk4.coord_steps"], "pointer.rk4"),
        "pointer.rk4.node_events": c["pointer.rk4.node_events"],
        "pointer.classify.calls_per_trajectory":
            ratio(c["pointer.classify.calls"], c["pointer.rk4.trajectories"]),
        "cli.write.mb": write_mb,
        "cli.write.rows": c["cli.write.rows"],
        "cli.write.mb_per_s": rate(write_mb, "cli.write"),
        "trace.wall_s": wall_s,
        "trace.coverage_frac":
            1.0 - self_s.get("scenarios", 0.0) / run_scenario_s,
    })
    return m


# Unit of every per-layer metric, in the order the benchmark reports them.
UNITS = {
    **{f"{layer}.calls_per_s": "1/s" for layer in LAYERS},
    "propagation.point_steps": "count",
    "propagation.point_steps_per_s": "1/s",
    "guidance.current_and_density.calls_per_frame": "1",
    "guidance.stack_mb": "MB",
    "sampling.samples": "count",
    "trajectories.rk4.traj_steps": "count",
    "trajectories.rk4.traj_steps_per_s": "1/s",
    "trajectories.rk4.failed": "count",
    "pointer.rk4.coord_steps": "count",
    "pointer.rk4.coord_steps_per_s": "1/s",
    "pointer.rk4.node_events": "count",
    "pointer.classify.calls_per_trajectory": "1",
    "cli.write.mb": "MB",
    "cli.write.rows": "count",
    "cli.write.mb_per_s": "MB/s",
    "trace.wall_s": "s",
    "trace.coverage_frac": "frac",
    "trace.overhead_frac": "frac",
}


# Computed counts that must repeat exactly across traced runs of one code.
EXACT_COUNTS = ("propagation.point_steps", "trajectories.rk4.traj_steps",
                "pointer.rk4.coord_steps", "sampling.samples",
                "cli.write.bytes")


def exact_count_keys(counts: dict) -> dict:
    """The subset of `counts` that the exact-repeat check compares."""
    return {k: v for k, v in counts.items()
            if k in EXACT_COUNTS or k.endswith(".calls")}
