"""Span tracing of the rate_alloc package from outside it.

`Recorder.install()` replaces each public module-level function of the
package's layer modules, in every package module that holds a reference
to it, with a wrapper that records a span: name, start, end and the
index of the enclosing span.  Predictor methods are wrapped too, since
the simulator calls them through the instance.  So every call is timed
as its caller sees it, and nothing under `src/` changes.
`uninstall()` puts the originals back.

Spans stay in memory as lists `[name, parent, start, end, info]`, where
`info` holds sizes an observer read from the call, and are written out
only after a traced pass has ended.  Times come from `time.perf_counter`, which reads
CLOCK_MONOTONIC on Linux, so spans recorded in a child process share the
parent's time line.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import statistics
import sys
import time

LAYERS = ("imaging", "analysis", "allocation", "kl_solver", "multistage", "sensing", "cli")
PREDICTOR_METHODS = ("begin_run", "predict")
OP = "bench.op"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _solve_info(args, kwargs, solution):
    kinds = [kind for _, kind in solution.trace]
    return {
        "iterations": len(kinds),
        "bisection": kinds.count("bisection"),
        "fallback": solution.status != "converged-by-newton",
    }


def _rows_info(args, kwargs, result):
    matrix = _arg(args, kwargs, 0, "matrix")
    rows = _arg(args, kwargs, 2, "row_end") - _arg(args, kwargs, 1, "row_start") + 1
    return {"rows": rows, "dim": matrix.dim}


def _pgm_info(args, kwargs, image):
    path = _arg(args, kwargs, 0, "path")
    with open(path, "rb") as handle:
        magic = handle.read(2).decode("ascii", "replace")
    return {"bytes": os.path.getsize(path), "format": magic}


def _threshold_info(args, kwargs, threshold):
    return {"coeffs": int(getattr(_arg(args, kwargs, 0, "coeff_blocks"), "size", 0))}


OBSERVERS = {
    "kl_solver.solve": _solve_info,
    "sensing.sample_rows": _rows_info,
    "sensing.adjoint_reconstruct": _rows_info,
    "imaging.load_pgm": _pgm_info,
    "analysis.solve_threshold": _threshold_info,
}


class Recorder:
    """In-memory span recorder that can wrap the package's public functions."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._patched = []

    def open(self, name, info=None) -> int:
        """Start a span by hand (the benchmark's own op spans); returns its index."""
        index = len(self.spans)
        self.spans.append([name, self._stack[-1], 0.0, 0.0, info])
        self._stack.append(index)
        self.spans[index][2] = time.perf_counter()
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1], 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if observe is not None:
                span[4] = observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> int:
        """Wrap every public function and predictor method; returns how many."""
        if self._patched:
            raise RuntimeError("already installed")
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"rate_alloc.{layer}")
            for attr, value in vars(module).items():
                if attr.startswith("_") or inspect.isclass(value) or not callable(value):
                    continue
                if getattr(value, "__module__", None) == module.__name__:
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        multistage = sys.modules["rate_alloc.multistage"]
        for cls in vars(multistage).values():
            if not (inspect.isclass(cls) and issubclass(cls, multistage.BoundsPredictor)):
                continue
            for attr in PREDICTOR_METHODS:
                original = cls.__dict__.get(attr)
                if inspect.isfunction(original):
                    setattr(cls, attr, self._wrap(f"multistage.{cls.__name__}.{attr}", original))
                    self._patched.append((cls, attr, original))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rate_alloc" or name.startswith("rate_alloc.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patched.append((module, attr, value))
        return len(wrappers)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, handle, **extra) -> None:
        """Write the spans as JSON lines: id, name, parent, start, end, info."""
        for index, (name, parent, start, end, info) in enumerate(self.spans):
            handle.write(json.dumps({"id": index, "name": name, "parent": parent, "start": start,
                                     "end": end, "info": info, **extra}) + "\n")

    def adopt(self, path) -> None:
        """Append spans a child process dumped, nesting its roots in the open span."""
        offset, parent = len(self.spans), self._stack[-1]
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                span = json.loads(line)
                up = span["parent"]
                self.spans.append([span["name"], parent if up < 0 else up + offset,
                                   span["start"], span["end"], span["info"]])


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _op_spans(spans):
    """The spans inside op spans, renumbered, and each one's op index."""
    kept, root, renumber, top = [], [], {}, []
    for index, (name, parent, start, end, info) in enumerate(spans):
        top.append(index if parent < 0 else top[parent])
        if spans[top[index]][0] == OP:
            renumber[index] = len(kept)
            kept.append([name, renumber.get(parent, -1), start, end, info])
            root.append(renumber[top[index]])
    return kept, root


def _share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def pass_metrics(spans, untraced_op_s: float) -> dict:
    """Per-layer metrics of one traced pass over a workload's ops.

    `spans` holds only this pass; each op span carries the op's tags as
    its info, and spans outside any op are left out.  Times are busy
    seconds summed over the pass.
    """
    spans, root = _op_spans(spans)
    own = self_times(spans)
    total, calls, module_self = {}, {}, {}
    for index, (name, _, start, end, _) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        module_self[layer] = module_self.get(layer, 0.0) + own[index]

    def tags(index):
        return spans[root[index]][4] or {}

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    ops = named(OP)
    op_s = sum(end - start for _, (_, _, start, end, _) in ops)
    m = {}
    m["imaging.partition_s"] = total.get("imaging.partition", 0.0)
    m["imaging.dct2_blocks_s"] = total.get("imaging.dct2_blocks", 0.0)
    for fmt in ("P2", "P5"):
        loads = [s for _, s in named("imaging.load_pgm") if s[4]["format"] == fmt]
        busy = sum(end - start for _, _, start, end, _ in loads)
        mib = sum(s[4]["bytes"] for s in loads) / 2**20
        m[f"imaging.load_pgm_s.{fmt}"] = busy
        m[f"imaging.load_pgm_mib_per_s.{fmt}"] = _share(mib, busy)

    thresholds = named("analysis.solve_threshold")
    for texture in ("textured", "cartoon"):
        m[f"analysis.solve_threshold_s.{texture}"] = sum(
            s[3] - s[2] for i, s in thresholds if tags(i).get("texture") == texture)
        shares = [t[4]["distinct_mag_share"] for _, t in ops
                  if t[4].get("texture") == texture and "distinct_mag_share" in t[4]]
        m[f"analysis.distinct_mag_share.{texture}"] = statistics.fmean(shares) if shares else 0.0
    m["analysis.coeffs"] = sum(s[4]["coeffs"] for _, s in thresholds)
    m["analysis.bounds_profile_s"] = total.get("analysis.bounds_profile", 0.0)
    m["analysis.sparsity_profile_s"] = total.get("analysis.sparsity_profile", 0.0)
    # one analysis pass partitions the image once (then DCT, threshold, bounds)
    m["analysis.passes_per_op"] = _share(calls.get("imaging.partition", 0), len(ops))

    m["allocation.single_stage_plan_s"] = total.get("allocation.single_stage_plan", 0.0)
    m["allocation.apportion_s"] = total.get("allocation.apportion", 0.0)
    m["allocation.apportion_calls"] = calls.get("allocation.apportion", 0)

    solves = [s[4] for _, s in named("kl_solver.solve")]
    iterations = [info["iterations"] for info in solves]
    bisection = sum(info["bisection"] for info in solves)
    m["kl_solver.solve_s"] = total.get("kl_solver.solve", 0.0)
    m["kl_solver.solve_calls"] = len(solves)
    m["kl_solver.iterations_p50"] = statistics.median(iterations) if iterations else 0
    m["kl_solver.iterations_max"] = max(iterations, default=0)
    m["kl_solver.bisection_steps"] = bisection
    m["kl_solver.newton_share"] = _share(sum(iterations) - bisection, sum(iterations))
    m["kl_solver.fallback_share"] = _share(sum(info["fallback"] for info in solves), len(solves))

    predicts = [s for s in spans if s[0].startswith("multistage.") and s[0].endswith(".predict")]
    m["multistage.run_simulation_s"] = total.get("multistage.run_simulation", 0.0)
    m["multistage.predict_s"] = sum(end - start for _, _, start, end, _ in predicts)
    m["multistage.predict_calls"] = len(predicts)

    sampled = [s[4] for _, s in named("sensing.sample_rows")]
    adjoint = [s[4] for _, s in named("sensing.adjoint_reconstruct")]
    m["sensing.build_matrix_s"] = total.get("sensing.build_matrix", 0.0)
    m["sensing.sample_rows_s"] = total.get("sensing.sample_rows", 0.0)
    m["sensing.sample_rows_calls"] = len(sampled)
    m["sensing.sample_plan_s"] = total.get("sensing.sample_plan", 0.0)
    m["sensing.reconstruct_plan_s"] = total.get("sensing.reconstruct_plan", 0.0)
    m["sensing.measurements"] = sum(info["rows"] for info in sampled)
    # computed, not measured: a rows x dim product reads the rows and one
    # vector and writes one vector, two flops per multiply-add
    m["sensing.sample_flops_computed"] = sum(2 * i["rows"] * i["dim"] for i in sampled)
    m["sensing.sample_bytes_computed"] = sum(8 * (i["rows"] * i["dim"] + i["dim"] + i["rows"]) for i in sampled)
    m["sensing.adjoint_flops_computed"] = sum(2 * i["rows"] * i["dim"] for i in adjoint)
    m["sensing.adjoint_bytes_computed"] = sum(8 * (i["rows"] * i["dim"] + i["rows"] + i["dim"]) for i in adjoint)

    for command, fmt in (("allocate", "P5"), ("analyze", "P5"), ("simulate", "P5"),
                         ("compare", "P5"), ("allocate", "P2")):
        m[f"cli.command_s.{command}.{fmt}"] = sum(
            s[3] - s[2] for _, s in ops
            if s[4].get("command") == command and s[4].get("format") == fmt)
    m["cli.bytes_written"] = sum(s[4].get("bytes_written", 0) for _, s in ops)

    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_s"] = module_self.get(layer, 0.0)
    m["trace.op_s"] = op_s
    m["trace.overhead_s"] = op_s - untraced_op_s
    m["trace.overhead_share"] = _share(op_s - untraced_op_s, untraced_op_s)
    m["trace.wrapped_calls"] = len(spans) - len(ops)
    # children that overlap or outlast their parent leave it a negative self
    # time; clamping it at zero makes the share exceed 1 in that case
    m["trace.accounted_share"] = _share(sum(max(t, 0.0) for t in own), op_s)
    return m


def unnested(spans) -> int:
    """How many spans do not lie within their parent's interval."""
    return sum(1 for _, parent, start, end, _ in spans
               if parent >= 0 and not (spans[parent][2] <= start <= end <= spans[parent][3]))


def per_op_totals(spans) -> dict:
    """Busy seconds of each span name within each op, keyed by op label."""
    spans, root = _op_spans(spans)
    out = {}
    for index, (name, _, start, end, _) in enumerate(spans):
        totals = out.setdefault(spans[root[index]][4]["label"], {})
        totals[name] = totals.get(name, 0.0) + (end - start)
    return out


UNITS = (("_mib_per_s", "MiB/s"), ("_flops_computed", "flop"), ("_bytes_computed", "B"),
         ("bytes_written", "B"),
         ("_share", "ratio"), ("_per_op", "1/op"), ("_calls", "count"), ("_s", "s"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from the suffix of its second part."""
    stem = name.split(".")[1]
    for suffix, unit in UNITS:
        if stem.endswith(suffix):
            return unit
    return "count"
