"""The benchmark's in-process ops run and pass their own checks.

`benchmarks/workloads.py` reads plan, stage and operator attributes and
calls the package's wrappers by signature; running a smoke-sized slice of
its ops here makes a change that breaks one of those reads fail the tests
instead of the benchmark run.
"""

import importlib
import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(BENCHMARKS))


def test_smoke_ops_pass_their_checks(workloads):
    ops = workloads.plan_ops(1, True) + workloads.simulate_ops(1, True) + workloads.solve_ops(1, True)[:5]
    assert len(ops) == 11
    for op in ops:
        assert op.check(op.run()), op.label


def test_cli_allocate_ops_pass_their_checks(workloads, tmp_path):
    # the child processes load the smoke-sized P5 and P2 files and must plan what this process plans
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ops = workloads.cli_ops(1, True, tmp_path, env, BENCHMARKS / "traced_cli.py")
    ops = [op for op in ops if op.label in ("cli allocate P5", "cli allocate P2")]
    assert len(ops) == 2
    for op in ops:
        assert op.check(op.run()), op.label
