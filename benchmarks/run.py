"""rate-alloc benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload {plan,simulate,solve,cli} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run it from a checkout of the repository: it imports the package from
`src/` next to this directory and refuses to run without it.  Each run is
one closed-loop client.  The workload's ops form a fixed cycle built from
the seed (see workloads.py); the run repeats the cycle for S seconds,
timing each op and checking each output outside the timed region.

With `--trace 0` the run reports end-to-end metrics, computed from the
per-op median latencies (each op's median over its repeats):

    ops_per_s       ops in the cycle / sum of per-op medians   (1/s)
    mpix_per_s      padded Mpx in the cycle / same sum         (plan, simulate, cli)
    latency_p50_ms  median of the per-op medians
    latency_tail_ms 90th percentile of all timed samples, pooled over
                    the ops (a percentile of many samples, where the
                    largest per-op median would follow one op's noise)
    setup_s         median over fresh processes of package import plus
                    the workload's lazy caches and operator build
    peak_rss_mib    peak resident memory of this process (of the command
                    processes for cli)
    error_rate      failed ops / attempted ops
    psnr_db         mean reconstruction PSNR (simulate)

With `--trace 1` the run alternates untraced and traced passes over the
cycle and reports per-layer metrics from the spans of the traced passes
(median over passes), plus the tracing overhead: traced minus untraced op
time.  End-to-end numbers never come from traced passes.

Output: human-readable lines, one JSON line with the run's details
(machine, digest, sample counts), and as the last line a JSON object with
the keys correct, attempted, failed and metrics.  Details and spans are
also written under `.bench_out/`.  `--smoke` runs each workload at its
smallest size, for the benchmark's own check (smoke.py).
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads, so it is fixed before any
# import that pulls numpy in; command processes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("plan", "simulate", "solve", "cli")
SETUP_RUNS = 9
TAIL_PERCENTILE = 90

# what a fresh process pays before its first op: (module, dct block, operator block)
SETUP = {
    "plan": ("rate_alloc", 16, 0),
    "simulate": ("rate_alloc", 16, 16),
    "solve": ("rate_alloc", 0, 0),
    "cli": ("rate_alloc.cli", 32, 32),
}
SETUP_CODE = """
import importlib, sys, time
start = time.perf_counter()
importlib.import_module(sys.argv[1])
from rate_alloc import imaging, sensing
dct_block, operator_block = int(sys.argv[2]), int(sys.argv[3])
if dct_block:
    imaging.dct_matrix(dct_block)
if operator_block:
    sensing.build_matrix(operator_block, 1)
print(time.perf_counter() - start)
"""

E2E_UNITS = {
    "ops_per_s": "1/s", "mpix_per_s": "Mpx/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
    "setup_s": "s", "peak_rss_mib": "MiB", "error_rate": "ratio", "psnr_db": "dB",
}
# reported on every workload, so they make up the result line's metrics
E2E_COMMON = ("ops_per_s", "latency_p50_ms", "latency_tail_ms", "setup_s", "peak_rss_mib")


def import_package():
    """Import rate_alloc from this checkout's src/, or stop with an error."""
    if not (SRC / "rate_alloc" / "__init__.py").is_file():
        raise SystemExit(f"error: no rate_alloc package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rate_alloc

    if SRC not in Path(rate_alloc.__file__).resolve().parents:
        raise SystemExit(f"error: rate_alloc imported from {rate_alloc.__file__}, not {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(workload: str) -> list:
    module, dct_block, operator_block = SETUP[workload]
    argv = [sys.executable, "-c", SETUP_CODE, module, str(dct_block), str(operator_block)]
    times = []
    for _ in range(SETUP_RUNS):
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, check=True,
                              stdout=subprocess.PIPE, text=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def build_ops(workload: str, seed: int, smoke: bool) -> list:
    import workloads

    if workload == "plan":
        return workloads.plan_ops(seed, smoke)
    if workload == "simulate":
        return workloads.simulate_ops(seed, smoke)
    if workload == "solve":
        return workloads.solve_ops(seed, smoke)
    return workloads.cli_ops(seed, smoke, OUT / "cli", child_env(), HERE / "traced_cli.py")


class Runner:
    """Runs ops, checks their outputs and keeps the tallies of one run."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.digests = [None] * len(ops)
        self.attempted = 0
        self.failed = 0

    def attempt(self, index: int, run=None):
        """Run op `index` once; returns its latency, or None if it failed."""
        from workloads import CheckFailure

        op = self.ops[index]
        self.attempted += 1
        try:
            start = time.perf_counter()
            result = (run or op.run)()
            elapsed = time.perf_counter() - start
            digest = hashlib.sha256(op.check(result)).hexdigest()
            if self.digests[index] is None:
                self.digests[index] = digest
            elif digest != self.digests[index]:
                raise CheckFailure(f"{op.label}: output differs between repeats")
        except CheckFailure as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1
            return None
        except Exception:  # an op that raises is a failed op; the run goes on
            print(f"op failed: {op.label}", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return None
        return elapsed

    def digest(self) -> str:
        """SHA-256 over every op's integer outputs, in cycle order."""
        return hashlib.sha256("".join(d or "-" for d in self.digests).encode()).hexdigest()


def timed_run(runner: Runner, seconds: float) -> None:
    """Repeat the cycle until `seconds` have passed and every op has a sample."""
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        elapsed = runner.attempt(index)
        if elapsed is not None:
            runner.samples[index].append(elapsed)
        index = (index + 1) % len(runner.ops)
        if time.perf_counter() >= deadline and (index == 0 or all(runner.samples)):
            break


def end_to_end(workload: str, runner: Runner, setup: list) -> tuple:
    done = [i for i, s in enumerate(runner.samples) if s]
    medians = [statistics.median(runner.samples[i]) for i in done]
    cycle_s = sum(medians)
    pooled = [t for s in runner.samples for t in s]
    tail_value = (statistics.quantiles(pooled, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
                  if len(pooled) > 1 else pooled[0])
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF)
    metrics = {
        "ops_per_s": len(done) / cycle_s,
        "latency_p50_ms": 1000 * statistics.median(medians),
        "latency_tail_ms": 1000 * tail_value,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "error_rate": runner.failed / runner.attempted,
    }
    if workload != "solve":
        metrics["mpix_per_s"] = sum(runner.ops[i].mpix for i in done) / cycle_s
    if workload == "simulate":
        metrics["psnr_db"] = statistics.fmean(runner.ops[i].psnr for i in done)
    detail = {
        "ops_in_cycle": len(runner.ops),
        "ops_with_samples": len(done),
        "samples": sum(len(s) for s in runner.samples),
        "repeats_min": min(len(s) for s in runner.samples),
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_tail_samples": len(pooled),
        "setup_runs": setup,
        "per_op_median_ms": {runner.ops[i].label: 1000 * m for i, m in zip(done, medians)}
        if len(done) <= 20 else None,
        "samples_ms": [[1000 * t for t in s] for s in runner.samples],
    }
    return metrics, detail


def traced_run(runner: Runner, seconds: float, spans_path: Path) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones."""
    import tracing
    import workloads

    shares = {}
    for op in runner.ops:
        if op.image is not None and "texture" in op.tags:
            key = id(op.image)
            if key not in shares:
                shares[key] = workloads.distinct_mag_share(op.image, op.block)
            op.tags["distinct_mag_share"] = shares[key]

    per_pass, wrapped, by_op, unnested = [], 0, None, 0
    deadline = time.perf_counter() + seconds
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    child_spans = spans_path.with_suffix(".child.jsonl")
    with open(spans_path, "w", encoding="utf-8") as handle:
        while not per_pass or time.perf_counter() < deadline:
            untraced = [runner.attempt(i) for i in range(len(runner.ops))]
            recorder = tracing.Recorder()
            wrapped = recorder.install()
            try:
                for i, op in enumerate(runner.ops):
                    info = {"label": op.label, **op.tags}
                    span = recorder.open(tracing.OP, info)
                    run = op.run
                    if op.traced_run is not None:
                        def run(op=op):
                            result = op.traced_run(child_spans)
                            recorder.adopt(child_spans)
                            return result
                    ok = runner.attempt(i, run) is not None
                    recorder.close(span)
                    info.update(op.tags)
                    if not ok or untraced[i] is None:
                        raise RuntimeError(f"{op.label} failed in a traced pair")
            finally:
                recorder.uninstall()
            per_pass.append(tracing.pass_metrics(recorder.spans, sum(untraced)))
            unnested += tracing.unnested(recorder.spans)
            if len(runner.ops) <= 20:
                by_op = tracing.per_op_totals(recorder.spans)
            recorder.dump(handle, trace_pass=len(per_pass))
    child_spans.unlink(missing_ok=True)
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    return metrics, {"traced_passes": len(per_pass), "wrapped_functions": wrapped, "unnested_spans": unnested,
                     "spans_file": str(spans_path.relative_to(ROOT)), "last_pass_by_op_s": by_op}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="smallest sizes only")
    args = parser.parse_args(argv)
    import_package()

    wall = time.perf_counter()
    setup = measure_setup(args.workload) if not args.trace else []
    import tracing

    runner = Runner(build_ops(args.workload, args.seed, args.smoke))
    runner.attempt(0)  # warm-up: first-call work leaves the timed region
    OUT.mkdir(exist_ok=True)
    if args.trace:
        spans_path = OUT / f"trace-{args.workload}.jsonl"
        try:
            metrics, detail = traced_run(runner, args.seconds, spans_path)
        except RuntimeError as exc:
            print(f"traced run failed: {exc}", file=sys.stderr)
            metrics, detail = {}, {}
        units = {name: tracing.unit_of(name) for name in metrics}
        reported = list(metrics)
        correct = (runner.failed == 0 and detail.get("unnested_spans") == 0
                   and abs(metrics.get("trace.accounted_share", 0.0) - 1.0) < 1e-6)
    else:
        timed_run(runner, args.seconds)
        metrics, detail = end_to_end(args.workload, runner, setup) if any(runner.samples) else ({}, {})
        units = {name: E2E_UNITS[name] for name in metrics}
        reported = list(E2E_COMMON)
        correct = runner.failed == 0
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "smoke": args.smoke,
        "seconds": args.seconds, "wall_s": time.perf_counter() - wall,
        "digest_sha256": runner.digest(), "machine": machine(),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    })
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")

    for name in metrics:
        print(f"{args.workload:<9}{name:<42}{metrics[name]:>16.6g} {units[name]}")
    print(json.dumps({"detail": {k: v for k, v in detail.items() if k != "samples_ms"}}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
