"""Smoke check of the benchmark itself, with no timing asserts.

    python3 benchmarks/smoke.py

Runs every workload of run.py at its smallest size (`--smoke`),
untraced and traced, `solve` too, which BENCHMARK.json leaves out, and
checks that each run exits 0 with a last line that matches
BENCHMARK.json: exactly the keys correct, attempted, failed and metrics;
correct true and no failed op; and every listed metric, with its unit and
a numeric value.  Then checks that the benchmark exits non-zero without a
result line in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import numbers
import shutil
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace)] + (["--smoke"] if smoke else [])
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)


def problems(proc, spec: dict, trace: int) -> list:
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    found = []
    if set(result) != RESULT_KEYS:
        found.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        found.append(f"correct {result.get('correct')}, failed {result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        found.append(f"attempted {result.get('attempted')}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        found.append(f"metrics missing {sorted(set(wanted) - set(metrics))}, "
                     f"extra {sorted(set(metrics) - set(wanted))}")
    for name, unit in wanted.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), numbers.Real):
            found.append(f"{name}: {entry}")
    return found


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            found = problems(run(ROOT, workload, trace), spec, trace)
            print(f"{workload:<9} trace {trace}: {'ok' if not found else 'FAILED'}")
            for problem in found:
                print(f"    {problem}")
            failures += bool(found)

    bare = ROOT / ".bench_out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0, smoke=False)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"bare copy: {'refused' if refused else 'FAILED: ran without the package'}")
    failures += not refused
    shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
