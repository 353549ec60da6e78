"""Pytest plugin: record which lines of src/rate_alloc/ the suite runs, without `coverage`.

Run from the repository root:

    TRACE_OUT=lines.json PYTHONPATH=src:tools python -m pytest -p linetrace \
        --deselect tests/test_chunks.py::TestPeakMemory

(the tracer's own allocations break those `tracemalloc` bounds). TRACE_OUT
receives a sorted JSON list of [file name, line number] pairs.
"""

import json
import os
import sys
import threading

ROOT = os.path.abspath("src/rate_alloc") + os.sep
lines = set()


def local(frame, event, arg):
    if event == "line":
        lines.add((os.path.basename(frame.f_code.co_filename), frame.f_lineno))
    return local


def start(frame, event, arg):
    return local(frame, "line", arg) if frame.f_code.co_filename.startswith(ROOT) else None


sys.settrace(start)  # set on import, so module-level lines count too
threading.settrace(start)


def pytest_unconfigure(config):
    sys.settrace(None)
    with open(os.environ["TRACE_OUT"], "w") as out:
        json.dump(sorted(lines), out)
