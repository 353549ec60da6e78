"""Run one rate-alloc command with every package function traced.

    python3 benchmarks/traced_cli.py SPANS_FILE -- ARGS...

runs `rate-alloc ARGS...` in this process with the benchmark's span
recorder installed, writes the spans to SPANS_FILE as JSON lines and
exits with the command's exit code.  The package must be importable
(the benchmark puts `src/` on PYTHONPATH).
"""

from __future__ import annotations

import sys

from tracing import Recorder


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: traced_cli.py SPANS_FILE -- ARGS...")
    from rate_alloc import cli

    recorder = Recorder()
    recorder.install()
    try:
        return cli.main(argv[2:])
    finally:
        recorder.uninstall()
        with open(argv[0], "w", encoding="utf-8") as handle:
            recorder.dump(handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
