"""Count the overlap integral's work over a fixed set of ``sweep`` tasks.

Usage, from anywhere::

    python3 tools/work_census.py CHECKOUT

Runs the 96 ``simulate`` requests of the benchmark's ``sweep`` workload
for seed 5, rounds 0-7 (built by ``CHECKOUT/bench/tasks.py``), in-process
through ``CHECKOUT``'s own ``fiberdd.cli.main``, and prints what the
overlap integral did for them:

- ``curve overlap calls``: batched overlap calls of the curves
  (``train_overlaps`` as ``fiberdd.evolution`` binds it);
- ``probe overlap calls``: one-length overlap calls of the death-length
  probes (``overlap_from_positions`` as ``fiberdd.evolution`` binds it);
- ``integrand points``: frequencies at which ``segment_filter`` was
  evaluated for the low band;
- ``points x segments``: the same, times the segments of the filter
  table each point was evaluated on (padded columns included);
- ``gauss_kronrod calls`` and ``gauss_kronrod panels``: first passes
  that ``fiberdd.dephasing`` runs itself, without refinement, and the
  panels they evaluate;
- ``integrate_panels calls``: calls of the adaptive quadrature;
- ``_tail arguments``: arguments of the pair-sum tail integral K.

The last five are counted by wrapping names of ``fiberdd.dephasing``
(``integrate_panels`` evaluates its own panels through
``fiberdd.quadrature``, which no wrapper sees), so two checkouts can be
compared line by line; a name a checkout does not bind counts 0.  The
wall time of the whole run is printed last; it is one run, not a
benchmark.
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
    from fiberdd import cli, dephasing, evolution

    counts = Counter()

    def count(module, name, counter, amount=lambda *args: 1):
        """Wrap ``module.name`` to add ``amount(*args)`` to ``counter``."""
        if not hasattr(module, name):
            return
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[counter] += amount(*args)
            return original(*args, **kwargs)

        setattr(module, name, counted)

    def filter_points(gaps, mids, omega, *args):
        counts["points x segments"] += omega.size * gaps.shape[0]
        return omega.size

    count(evolution, "train_overlaps", "curve overlap calls")
    count(evolution, "overlap_from_positions", "probe overlap calls")
    count(dephasing, "segment_filter", "integrand points", filter_points)
    count(dephasing, "gauss_kronrod", "gauss_kronrod calls")
    count(dephasing, "gauss_kronrod", "gauss_kronrod panels",
          lambda fn, lefts, *args: lefts.size)
    count(dephasing, "integrate_panels", "integrate_panels calls")
    count(dephasing, "_tail", "_tail arguments", lambda x, *args: x.size)
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
    for name in ("curve overlap calls", "probe overlap calls",
                 "integrand points", "points x segments",
                 "gauss_kronrod calls", "gauss_kronrod panels",
                 "integrate_panels calls", "_tail arguments"):
        print(f"{name} = {counts[name]}")
    print(f"wall_s = {seconds:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
