"""Time one contourdyn set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <config file>

Imports the program, parses the configuration and builds the initial state,
then prints ``time.perf_counter()``.  That clock is system-wide, so the
parent subtracts its own reading from just before it started this process
and gets process start to end of set-up.
"""

import sys
from time import perf_counter

import program

program.require_sources()

import workloads  # noqa: E402  (needs the sources on sys.path)

workloads.setup(sys.argv[1], sys.argv[2])
print(repr(perf_counter()))
