"""Run the qutritchain CLI once and stamp when its computation starts and ends.

Usage: python3 bench/probe.py STAMP_FILE full|setup -- CLI_ARGS...

The CLI receives exactly CLI_ARGS.  `compute_start` is taken on entry to the
subcommand's run_* function, so everything before it (interpreter start,
imports, argument parsing and build_config) is set-up.  `compute_end` is
taken once `cli.main` has returned and stdout is flushed.  In `setup` mode
the run stops at `compute_start` and exits 0, which times set-up alone.

Stamps come from time.monotonic (CLOCK_MONOTONIC), which the parent reads
too, so the two processes' times are comparable.  The `_cpu` stamps are
the process's CPU time from its start (time.process_time).  `peak_rss_kb`
is VmHWM, the peak resident memory of this program alone: the rusage a
parent reads also counts the pages of the parent it was forked from.
"""

import sys
import time


class _SetupDone(Exception):
    pass


def main() -> int:
    stamp_path, mode, _, *argv = sys.argv[1:]
    from qutritchain import cli

    stamps = {}

    def stamped(run):
        def run_stamped(cfg):
            stamps["compute_start"] = time.monotonic()
            stamps["compute_start_cpu"] = time.process_time()
            if mode == "setup":
                raise _SetupDone
            return run(cfg)

        return run_stamped

    for name in ("run_sweep", "run_threshold", "run_spectrum", "single_point_report"):
        setattr(cli, name, stamped(getattr(cli, name)))
    try:
        code = cli.main(argv)
    except _SetupDone:
        code = 0
    sys.stdout.flush()
    stamps["compute_end"] = time.monotonic()
    stamps["compute_end_cpu"] = time.process_time()
    with open("/proc/self/status", encoding="ascii") as fh:
        stamps["peak_rss_kb"] = next(int(line.split()[1]) for line in fh
                                     if line.startswith("VmHWM:"))

    import json

    with open(stamp_path, "w", encoding="utf-8") as fh:
        json.dump(stamps, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
