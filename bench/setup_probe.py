"""Benchmark set-up alone, in a fresh process.

``run.py`` times this script from process start to exit to measure
``setup_s``: interpreter start, ``import fiberdd``, input generation and
one untimed warm-up task.  Usage: ``python3 setup_probe.py WORKLOAD SEED``.
"""

import sys

import run

if __name__ == "__main__":
    run.setup(sys.argv[1], int(sys.argv[2]))
