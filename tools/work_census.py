"""Count the overlap integral's work over a fixed set of ``sweep`` tasks.

Usage, from anywhere::

    python3 tools/work_census.py CHECKOUT [SEED]

Runs the 96 ``simulate`` requests of the benchmark's ``sweep`` workload
for SEED (5 when omitted), rounds 0-7 (built by
``CHECKOUT/bench/tasks.py``), in-process
through ``CHECKOUT``'s own ``fiberdd.cli.main``, and prints what the
overlap integral did for them:

- ``curve overlap calls``: batched overlap calls of the curves
  (``train_overlaps`` as ``fiberdd.evolution`` binds it);
- ``probe overlap calls``: one-length overlap calls of the death-length
  probes (``overlap_from_positions`` as ``fiberdd.evolution`` binds it);
- ``death lengths refined``: calls of ``refine_esd`` as
  ``fiberdd.evolution`` binds it, one per death length a curve brackets;
- ``probes per death length``: probe overlap calls over death lengths
  refined (probes of a walk below a dead first point included);
- ``integrand points``: frequencies at which ``segment_filter`` was
  evaluated for the low band;
- ``points x segments``: the same, times the segments of the filter
  table each point was evaluated on (padded columns included);
- ``_tail arguments``: arguments of the pair-sum tail integral K;
- ``K near-branch arguments``: those of them below 4, which K sums as
  the free train's power series (``_series`` inside ``_tail``);
- ``pair terms summed``: terms of the pair sums P(x), over the rows of
  ``_pair_halves``: each row sums one term per entry of its train's
  pair weights (the last array of its ``pairs`` entry);
- ``series evaluations (lengths)``: lengths whose low band below x0 was
  summed from the filter's power series: the rows of ``_series`` less
  the K near-branch arguments;
- ``partial-band lengths``: lengths whose band [ir L, uv L] clips the
  panels between x0 and top, each integrating its part over a node
  table of its own (``_partial``);
- ``trains built``: ``_Train`` objects made, one per pulse count that a
  call needed and the cache did not hold, or per explicit train;
- ``node tables built``: filter tables at the Kronrod nodes of the
  panels between x0 and top (``_node_table``), a partial-band length's
  own included, with the pulse counts they were built for;
- ``alpha reweightings`` and ``reweighted panels``: weighings of a
  node table by one exponent (``kronrod_sums`` as ``fiberdd.dephasing``
  binds it), each the one Gauss-Kronrod pass its panels get, and the
  panels they sum;
- ``curve calls by pulse-count groups``: curve calls counted by their
  number of distinct pulse counts.

All but the first four and the last are counted by wrapping names of
``fiberdd.dephasing``, so two checkouts can be compared line by line.
A name a checkout does not bind counts 0, and is listed on a last
``not bound`` line so that a 0 from a renamed function is not read as
no work.  The wall time of the
whole run is printed before it; it is one run, not a benchmark.
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


def census(root: Path, seed: int = SEED) -> tuple[Counter, float, int]:
    """Work counters, wall seconds and task count of the ``sweep`` tasks
    of ``seed`` in the checkout at ``root``, whose ``src`` and ``bench``
    are put first on sys.path."""
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import tasks
    from fiberdd import cli, dephasing, evolution

    counts = Counter()
    tables = set()
    groups = Counter()
    missing = []

    def count(module, name, counter, amount=lambda *args: 1):
        """Wrap ``module.name`` to add ``amount(*args)`` to ``counter``."""
        if not hasattr(module, name):
            missing.append(f"{getattr(module, '__name__', module)}.{name}")
            return
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[counter] += amount(*args)
            return original(*args, **kwargs)

        setattr(module, name, counted)

    def filter_points(gaps, mids, omega, *args):
        counts["points x segments"] += omega.size * gaps.shape[0]
        return omega.size

    def node_table(gaps, *args):
        tables.add(gaps.shape[0] - 1)
        return 1

    def pair_terms(x, which, pairs, *args):
        sizes = [entry[-1].size for entry in pairs]
        return sum(sizes[g] for g in which.tolist())

    def curve_groups(pulses, *args):
        groups[len(set(pulses))] += 1
        return 1

    count(evolution, "train_overlaps", "curve overlap calls", curve_groups)
    count(evolution, "overlap_from_positions", "probe overlap calls")
    count(evolution, "refine_esd", "death lengths refined")
    count(dephasing, "segment_filter", "integrand points", filter_points)
    count(dephasing, "_tail", "_tail arguments", lambda x, *args: x.size)
    count(dephasing, "_tail", "K near-branch arguments",
          lambda x, *args: int((x < 4.0).sum()))
    count(dephasing, "_pair_halves", "pair terms summed", pair_terms)
    count(dephasing, "_series", "series rows", lambda ell, *args: ell.size)
    count(dephasing._Train, "__init__", "trains built")
    count(dephasing, "_node_table", "node tables built", node_table)
    count(dephasing, "kronrod_sums", "alpha reweightings")
    count(dephasing, "kronrod_sums", "reweighted panels",
          lambda fx, *args: fx.shape[0])
    count(dephasing, "_partial", "partial-band lengths")
    task_list = tasks.task_list("sweep", seed, ROUNDS)
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        start = time.perf_counter()
        for task in task_list:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(tasks.sweep_argv(task, "sweep.csv"))
        seconds = time.perf_counter() - start
        os.chdir(root)
    counts["node table pulse counts"] = sorted(tables)
    counts["curve calls by pulse-count groups"] = dict(sorted(groups.items()))
    # K's near branch runs through _series too, and its rows are not
    # lengths
    counts["series evaluations (lengths)"] = (
        counts["series rows"] - counts["K near-branch arguments"])
    deaths = counts["death lengths refined"]
    counts["probes per death length"] = (
        f"{counts['probe overlap calls'] / deaths:.2f}" if deaths else "-")
    counts["not bound"] = missing
    return counts, seconds, len(task_list)


def main(argv: list[str]) -> int:
    if not ((len(argv) == 1 or len(argv) == 2 and argv[1].isdigit())
            and (Path(argv[0]) / "src" / "fiberdd").is_dir()
            and (Path(argv[0]) / "bench" / "tasks.py").is_file()):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/work_census.py CHECKOUT [SEED]",
              file=sys.stderr)
        print("CHECKOUT must hold src/fiberdd and bench/tasks.py",
              file=sys.stderr)
        return 2
    root = Path(argv[0]).resolve()
    seed = int(argv[1]) if len(argv) == 2 else SEED
    counts, seconds, count = census(root, seed)
    print(f"checkout {root}: bench sweep seed {seed}, rounds 0-{ROUNDS - 1}, "
          f"{count} tasks")
    for name in ("curve overlap calls", "probe overlap calls",
                 "death lengths refined", "probes per death length",
                 "integrand points", "points x segments",
                 "_tail arguments", "K near-branch arguments",
                 "pair terms summed", "series evaluations (lengths)",
                 "partial-band lengths", "trains built", "node tables built",
                 "node table pulse counts", "alpha reweightings",
                 "reweighted panels",
                 "curve calls by pulse-count groups"):
        print(f"{name} = {counts[name]}")
    print(f"wall_s = {seconds:.3f}")
    print(f"not bound = {counts['not bound'] or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
