"""Count the overlap integral's work over a fixed set of ``sweep`` tasks.

Usage, from anywhere::

    python3 tools/work_census.py CHECKOUT

Runs the 96 ``simulate`` requests of the benchmark's ``sweep`` workload
for seed 5, rounds 0-7 (built by ``CHECKOUT/bench/tasks.py``), in-process
through ``CHECKOUT``'s own ``fiberdd.cli.main``, and prints what the
overlap integral did for them:

- ``integrand points``: frequencies at which ``segment_filter`` was
  evaluated for the low band;
- ``points x segments``: the same, times the segments of the filter
  table each point was evaluated on (padded columns included);
- ``integrate_panels calls``: calls of the adaptive quadrature;
- ``_tail arguments``: arguments of the pair-sum tail integral K.

All four are counted by wrapping names of ``fiberdd.dephasing``, which
both the per-length and the cached low band bind, so two checkouts can be
compared line by line.  The wall time of the whole run is printed last;
it is one run, not a benchmark.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

SEED = 5
ROUNDS = 8


def census(root: Path) -> tuple[Counter, float, int]:
    """Work counters, wall seconds and task count of the checkout at
    ``root``, whose ``src`` and ``bench`` are put first on sys.path."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tasks
    from fiberdd import cli, dephasing

    counts = Counter()
    segment_filter, integrate_panels, tail = (
        dephasing.segment_filter, dephasing.integrate_panels, dephasing._tail)

    def counted_filter(gaps, mids, omega, *args, **kwargs):
        counts["integrand points"] += omega.size
        counts["points x segments"] += omega.size * gaps.shape[0]
        return segment_filter(gaps, mids, omega, *args, **kwargs)

    def counted_panels(*args, **kwargs):
        counts["integrate_panels calls"] += 1
        return integrate_panels(*args, **kwargs)

    def counted_tail(x, alpha):
        counts["_tail arguments"] += x.size
        return tail(x, alpha)

    dephasing.segment_filter = counted_filter
    dephasing.integrate_panels = counted_panels
    dephasing._tail = counted_tail
    task_list = tasks.task_list("sweep", SEED, ROUNDS)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        start = time.perf_counter()
        for task in task_list:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(tasks.sweep_argv(task, "sweep.csv"))
        seconds = time.perf_counter() - start
        os.chdir(root)
    return counts, seconds, len(task_list)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/work_census.py CHECKOUT", file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    counts, seconds, count = census(root)
    print(f"checkout {root}: bench sweep seed {SEED}, rounds 0-{ROUNDS - 1}, "
          f"{count} tasks")
    for name in ("integrand points", "points x segments",
                 "integrate_panels calls", "_tail arguments"):
        print(f"{name} = {counts[name]}")
    print(f"wall_s = {seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
