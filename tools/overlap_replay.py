"""Time the overlap integral's calls of a fixed set of ``sweep`` tasks.

Usage, from anywhere::

    python3 tools/overlap_replay.py CHECKOUT [CHECKOUT ...]

Runs the 96 ``simulate`` requests of the benchmark's ``sweep`` workload
for seed 5, rounds 0-7, through the first checkout's ``fiberdd.cli.main``
and records every overlap call they make: the batched curve calls
(``train_overlaps`` as ``fiberdd.evolution`` binds it) and the
one-length death-length probes (``overlap_from_positions``).  Then it
replays those calls, in their order, against each checkout's
``fiberdd.dephasing`` in this process (each checkout, even one given
twice, loaded under a module name of its own): one untimed pass each
warms the caches that depend on the pulse count alone, then each timed
pass clears every cache keyed by an exponent, as the benchmark's tasks
(each with its own exponent) find them, and times its calls one by one.
The checkouts take turns, in an order that alternates from round to
round, for ``ROUNDS`` rounds.

For each checkout it prints the best pass total and, per kind of call,
the count, the total of the calls' best times and the median of the
calls' best times.  Curves are split by their number of pulse-count
groups (distinct pulse counts in one call), and a least-squares line
through the curves' best times against their group counts gives the
cost of each further group.  With two or more checkouts, the ratio of
each total to the first checkout's follows.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import sys
import tempfile
import time

import numpy as np

import checkout

SEED = 5
ROUNDS = 15
TASK_ROUNDS = 8
# caches of fiberdd.dephasing that depend on the pulse count alone and
# stay warm between the benchmark's tasks
KEPT_CACHES = {"_unit_train", "_laguerre_rule"}


def record(fiberdd, tasks) -> list:
    """The overlap calls of the seed's tasks through ``fiberdd``'s
    ``cli``, each as (kind, pulses or positions, spectrum, lengths or
    length)."""
    evolution = fiberdd.evolution
    curve, probe = evolution.train_overlaps, evolution.overlap_from_positions
    calls = []

    def curve_call(pulses, spectrum, lengths):
        calls.append(("curve", np.array(pulses), spectrum,
                      np.array(lengths, dtype=float)))
        return curve(pulses, spectrum, lengths)

    def probe_call(positions, spectrum, length, **kwargs):
        calls.append(("probe", np.array(positions, dtype=float), spectrum,
                      float(length)))
        return probe(positions, spectrum, length, **kwargs)

    evolution.train_overlaps = curve_call
    evolution.overlap_from_positions = probe_call
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for task in tasks.task_list("sweep", SEED, TASK_ROUNDS):
                checkout.run_quiet(fiberdd.cli,
                                   tasks.sweep_argv(task, "sweep.csv"))
        finally:
            os.chdir(here)
            evolution.train_overlaps = curve
            evolution.overlap_from_positions = probe
    return calls


def replayer(fiberdd, calls):
    """A function that clears ``fiberdd``'s exponent-keyed caches, replays
    ``calls`` against its ``dephasing`` and returns each call's
    nanoseconds, after it has run once to warm the other caches."""
    dephasing = fiberdd.dephasing
    bound = [(dephasing.train_overlaps if kind == "curve"
              else dephasing.overlap_from_positions, first,
              fiberdd.NoiseSpectrum(*dataclasses.astuple(spectrum)), last)
             for kind, first, spectrum, last in calls]
    exponent_caches = [
        value for name, value in vars(dephasing).items()
        if hasattr(value, "cache_clear") and name not in KEPT_CACHES]

    def one_pass():
        for cache in exponent_caches:
            cache.cache_clear()
        times = []
        for fn, first, spectrum, last in bound:
            start = time.perf_counter_ns()
            try:
                fn(first, spectrum, last)
            except dephasing.QuadratureError:
                pass
            times.append(time.perf_counter_ns() - start)
        return times

    one_pass()
    return one_pass


def replay(packages, calls) -> list[np.ndarray]:
    """Per package, by position, the nanoseconds of each call of
    ``calls`` in each of ``ROUNDS`` timed passes, as a (ROUNDS, calls)
    array; each package is warmed by one untimed pass first."""
    passes = [replayer(fiberdd, calls) for fiberdd in packages]
    runs = [[] for _ in passes]
    sides = range(len(passes))
    for r in range(ROUNDS):
        for side in sides[::-1] if r % 2 else sides:
            gc.collect()
            gc.disable()
            runs[side].append(passes[side]())
            gc.enable()
    return [np.array(run, dtype=float) for run in runs]


def main(argv: list[str]) -> int:
    roots = checkout.roots(argv, __doc__,
                           "overlap_replay.py CHECKOUT [CHECKOUT ...]",
                           "each CHECKOUT")
    loaded = [checkout.load(root, f"replay_fiberdd_{i}")
              for i, root in enumerate(roots)]
    calls = record(*loaded[0])
    runs = replay([fiberdd for fiberdd, _ in loaded], calls)
    # each call's number of pulse-count groups, 0 for a probe
    groups = np.array([0 if kind == "probe" else np.unique(first).size
                       for kind, first, _, _ in calls])
    curves = groups > 0
    totals = []
    print(f"{len(calls)} overlap calls of bench sweep seed {SEED}, rounds "
          f"0-{TASK_ROUNDS - 1}; best of {ROUNDS} passes, exponent caches "
          f"cleared")
    for root, ns in zip(roots, runs):  # ns: (rounds, calls)
        best = ns.min(axis=0)
        totals.append(ns.sum(axis=1).min())
        print(f"\ncheckout {root}")
        print(f"  total (best pass) = {totals[-1] / 1e6:.2f} ms")
        for g in np.unique(groups):
            mine = best[groups == g]
            kind = f"curve, {g} groups" if g else "probe"
            print(f"  {kind}: {mine.size} calls, {mine.sum() / 1e6:.2f} ms, "
                  f"median {np.median(mine) / 1e3:.0f} us")
        if np.unique(groups[curves]).size > 1:
            slope = np.polyfit(groups[curves], best[curves], 1)[0]
            print(f"  each further pulse-count group: {slope / 1e3:.0f} us")
    if len(roots) > 1:
        print()
        for root, total in zip(roots[1:], totals[1:]):
            print(f"total / first checkout's: {root}: "
                  f"{total / totals[0]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
