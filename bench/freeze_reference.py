#!/usr/bin/env python3
"""Freeze the CLI's output for every workload at seed 0 into bench/reference/.

    python3 bench/freeze_reference.py

The files were written once from the commit that introduced the benchmark;
run this again only on purpose, when a change to the output is accepted.
"""

import contextlib
import gzip
import io
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import check  # noqa: E402
import workloads  # noqa: E402
from qutritchain import cli  # noqa: E402


def main() -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(workloads.instance(name, 0).argv())
        if code != 0:
            print(f"{name}: exit code {code}", file=sys.stderr)
            return 1
        # mtime=0 keeps the compressed bytes identical across re-freezes
        check.reference_path(name).write_bytes(gzip.compress(buf.getvalue().encode(), mtime=0))
        print(f"{name}: {buf.getvalue().count(chr(10)) - 1} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
