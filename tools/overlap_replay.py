"""Time the overlap integral's calls of a fixed set of ``sweep`` tasks.

Usage, from anywhere::

    python3 tools/overlap_replay.py CHECKOUT [CHECKOUT ...]

Runs the 96 ``simulate`` requests of the benchmark's ``sweep`` workload
for seed 5, rounds 0-7, through the first checkout's ``fiberdd.cli.main``
and records every overlap call they make: the batched curve calls
(``train_overlaps`` as ``fiberdd.evolution`` binds it) and the
one-length death-length probes (``overlap_from_positions``).  Then it
replays those calls, in their order, against each checkout's
``fiberdd.dephasing``, each replay in a subprocess of its own: one
untimed pass warms the caches that depend on the pulse count alone,
then every cache keyed by an exponent is cleared, as the benchmark's
tasks (each with its own exponent) find them, and one pass is timed call
by call.  The checkouts take turns, in an order that alternates from
round to round, for ``ROUNDS`` rounds.

For each checkout it prints the best pass total and, per kind of call,
the count, the total of the calls' best times and the median of the
calls' best times.  Curves are split by their number of pulse-count
groups (distinct pulse counts in one call), and a least-squares line
through the curves' best times against their group counts gives the
cost of each further group.  With two or more checkouts, the ratio of
each total to the first checkout's follows.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import pickle
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SEED = 5
ROUNDS = 15
TASK_ROUNDS = 8
# caches of fiberdd.dephasing that depend on the pulse count alone and
# stay warm between the benchmark's tasks
KEPT_CACHES = {"_unit_train", "_laguerre_rule"}


def record(root: Path, out: Path) -> None:
    """Run in a subprocess: pickle the overlap calls of the seed's tasks
    through the checkout at ``root`` to ``out``."""
    out = out.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import numpy as np
    import tasks
    from fiberdd import cli, evolution

    calls = []

    def spectrum_fields(spectrum):
        return (spectrum.amplitude, spectrum.exponent, spectrum.ir_cutoff,
                spectrum.uv_cutoff)

    curve, probe = evolution.train_overlaps, evolution.overlap_from_positions

    def curve_call(pulses, spectrum, lengths):
        calls.append(("curve", np.array(pulses), spectrum_fields(spectrum),
                      np.array(lengths, dtype=float)))
        return curve(pulses, spectrum, lengths)

    def probe_call(positions, spectrum, length, **kwargs):
        calls.append(("probe", np.array(positions, dtype=float),
                      spectrum_fields(spectrum), float(length)))
        return probe(positions, spectrum, length, **kwargs)

    evolution.train_overlaps = curve_call
    evolution.overlap_from_positions = probe_call
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for task in tasks.task_list("sweep", SEED, TASK_ROUNDS):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(tasks.sweep_argv(task, "sweep.csv"))
    out.write_bytes(pickle.dumps(calls))


def replay(root: Path, calls_file: Path) -> None:
    """Run in a subprocess: print, as JSON, the nanoseconds of each call
    of ``calls_file`` against the checkout at ``root``."""
    sys.path[:0] = [str(root / "src")]
    from fiberdd import dephasing
    from fiberdd.noise import NoiseSpectrum

    calls = []
    for kind, first, fields, last in pickle.loads(calls_file.read_bytes()):
        fn = (dephasing.train_overlaps if kind == "curve"
              else dephasing.overlap_from_positions)
        calls.append((fn, first, NoiseSpectrum(*fields), last))
    exponent_caches = [
        value for name, value in vars(dephasing).items()
        if hasattr(value, "cache_clear") and name not in KEPT_CACHES]

    def one_pass():
        for cache in exponent_caches:
            cache.cache_clear()
        times = []
        for fn, first, spectrum, last in calls:
            start = time.perf_counter_ns()
            try:
                fn(first, spectrum, last)
            except dephasing.QuadratureError:
                pass
            times.append(time.perf_counter_ns() - start)
        return times

    one_pass()
    gc.collect()
    gc.disable()
    print(json.dumps(one_pass()))


def kinds(calls) -> list[str]:
    """Each call's kind: ``probe`` or ``curve, G groups``."""
    import numpy as np

    return ["probe" if kind == "probe"
            else f"curve, {np.unique(first).size} groups"
            for kind, first, _, _ in calls]


def main(argv: list[str]) -> int:
    if not (argv and all((Path(arg) / "src" / "fiberdd").is_dir()
                         and (Path(arg) / "bench" / "tasks.py").is_file()
                         for arg in argv)):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/overlap_replay.py CHECKOUT "
              "[CHECKOUT ...]", file=sys.stderr)
        print("each CHECKOUT must hold src/fiberdd and bench/tasks.py",
              file=sys.stderr)
        return 2
    import numpy as np

    roots = [Path(arg).resolve() for arg in argv]
    me = str(Path(__file__).resolve())
    with tempfile.TemporaryDirectory() as tmp:
        calls_file = Path(tmp) / "calls.pickle"
        subprocess.run([sys.executable, me, "--record", str(roots[0]),
                        str(calls_file)], check=True)
        calls = pickle.loads(calls_file.read_bytes())
        runs = {root: [] for root in roots}
        for r in range(ROUNDS):
            for root in roots[::-1] if r % 2 else roots:
                out = subprocess.run(
                    [sys.executable, me, "--replay", str(root),
                     str(calls_file)],
                    check=True, capture_output=True, text=True).stdout
                runs[root].append(json.loads(out))
    labels = kinds(calls)
    order = sorted(set(labels), key=lambda k: (k != "probe",
                                               int(k.split()[1])
                                               if k != "probe" else 0))
    totals = {}
    print(f"{len(calls)} overlap calls of bench sweep seed {SEED}, rounds "
          f"0-{TASK_ROUNDS - 1}; best of {ROUNDS} passes, exponent caches "
          f"cleared")
    for root in roots:
        ns = np.array(runs[root], dtype=float)  # (rounds, calls)
        best = ns.min(axis=0)
        totals[root] = ns.sum(axis=1).min()
        print(f"\ncheckout {root}")
        print(f"  total (best pass) = {totals[root] / 1e6:.2f} ms")
        for kind in order:
            mine = best[[label == kind for label in labels]]
            print(f"  {kind}: {mine.size} calls, {mine.sum() / 1e6:.2f} ms, "
                  f"median {np.median(mine) / 1e3:.0f} us")
        curves = [i for i, label in enumerate(labels) if label != "probe"]
        groups = [int(labels[i].split()[1]) for i in curves]
        if len(set(groups)) > 1:
            slope = np.polyfit(groups, best[curves], 1)[0]
            print(f"  each further pulse-count group: {slope / 1e3:.0f} us")
    if len(roots) > 1:
        print()
        for root in roots[1:]:
            print(f"total / first checkout's: {root}: "
                  f"{totals[root] / totals[roots[0]]:.3f}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--record":
        record(Path(sys.argv[2]), Path(sys.argv[3]))
    elif len(sys.argv) == 4 and sys.argv[1] == "--replay":
        replay(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        sys.exit(main(sys.argv[1:]))
