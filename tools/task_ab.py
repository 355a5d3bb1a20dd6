"""Time the benchmark's ``sweep`` tasks on two checkouts in one process.

Usage, from anywhere::

    python3 tools/task_ab.py CHECKOUT_A CHECKOUT_B [SEED ...]

Loads each checkout's ``src/fiberdd`` under a module name of its own
(``fiberdd_a``, ``fiberdd_b``), so both live in one interpreter and share
its start-up, numpy and host state.  Builds the ``simulate`` requests of
the benchmark's ``sweep`` workload, rounds 0-7, for each seed (5 and 6
by default) with ``CHECKOUT_A/bench/tasks.py``, and runs each task
through both checkouts' ``cli.main``, ``REPEATS`` times each, alternating
which checkout goes first from task to task.  Each checkout rewrites its
own CSV path every time, as the benchmark does.

For each checkout it prints the mean, p50 and p90 over the tasks of each
task's best time, then the median over the tasks of B's best over A's,
overall, for each sequence (free, se, cpmg) and for the tasks with and
without a death length (as A printed it), and whether exit codes, stdout
and CSV bytes agree task by task (each checkout's out directory read as
one placeholder).  The split shows whether a change moved the death-length
probes or the curves, whose pulse counts the sequence sets.  Run it with the same
checkout twice for an A/A baseline: its ratio should be within 1 % of 1.

Then it runs ``figure`` for each preset (``FIGURES``) at its defaults
the same way, alternating which checkout goes first from preset to
preset, and prints each side's best time, B's over A's, and whether exit
codes, stdout and CSV bytes agree.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

import checkout

DEFAULT_SEEDS = (5, 6)
TASK_ROUNDS = 8
REPEATS = 5
FIGURES = ("fig2a", "fig2b", "fig3", "fig4")


def paired(clis, argvs, csvs, first: int):
    """Each side's best time over ``REPEATS`` runs of ``argvs[side]``, side
    ``first`` going first in each round, and its last exit code, stdout
    and CSV ``csvs[side]`` text, in which its out directory reads OUT."""
    times = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(REPEATS):
        for side in (first, 1 - first):
            start = time.perf_counter()
            code, out, _ = checkout.run_quiet(clis[side], argvs[side])
            times[side] = min(times[side], time.perf_counter() - start)
            csv = csvs[side].read_text(encoding="utf-8")
            where = str(csvs[side].parent)
            results[side] = (code, out.replace(where, "OUT"),
                             csv.replace(where, "OUT"))
    return times, results


def main(argv: list[str]) -> int:
    roots = checkout.roots(
        argv[:2], __doc__, "task_ab.py CHECKOUT_A CHECKOUT_B [SEED ...]",
        "each CHECKOUT",
        valid=len(argv) >= 2 and all(arg.isdigit() for arg in argv[2:]))
    seeds = [int(arg) for arg in argv[2:]] or list(DEFAULT_SEEDS)
    (a, tasks), (b, _) = [checkout.load(root, name) for root, name
                          in zip(roots, ("fiberdd_a", "fiberdd_b"))]
    clis = [a.cli, b.cli]
    work = [task for seed in seeds
            for task in tasks.task_list("sweep", seed, TASK_ROUNDS)]

    best = [[], []]  # per side, per task
    agree = 0
    dies = []  # per task, whether A printed a death length
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [Path(tmp) / side for side in "ab"]
        for path in dirs:
            path.mkdir()
        csvs = [path / "sweep.csv" for path in dirs]
        for i, task in enumerate(work):
            times, results = paired(
                clis, [tasks.sweep_argv(task, str(csv)) for csv in csvs],
                csvs, i % 2)
            agree += results[0] == results[1]
            dies.append("esd_length = none;" not in results[0][1])
            for side in (0, 1):
                best[side].append(times[side])
        figures = [paired(clis, [["figure", preset, "--out", str(path)]
                                 for path in dirs],
                          [path / f"{preset}.csv" for path in dirs], i % 2)
                   for i, preset in enumerate(FIGURES)]

    print(f"{len(work)} sweep tasks (seeds {', '.join(map(str, seeds))}, "
          f"rounds 0-{TASK_ROUNDS - 1}), best of {REPEATS} per task")
    for label, root, mine in zip("AB", roots, best):
        ms = [t * 1e3 for t in mine]
        deciles = statistics.quantiles(ms, n=10, method="inclusive")
        print(f"{label} {root}: mean {statistics.fmean(ms):.3f} ms, "
              f"p50 {deciles[4]:.3f} ms, p90 {deciles[8]:.3f} ms")
    ratios = [b / a for a, b in zip(*best)]
    print(f"median per-task ratio B/A = {statistics.median(ratios):.3f}")
    groups = {f"sequence {seq}": [task["sequence"] == seq for task in work]
              for seq in ("free", "se", "cpmg")}
    groups["with a death length"] = dies
    groups["without a death length"] = [not d for d in dies]
    for label, members in groups.items():
        mine = [r for r, member in zip(ratios, members) if member]
        median = f"{statistics.median(mine):.3f}" if mine else "-"
        print(f"  {label}: {median} over {len(mine)} tasks")
    print(f"exit code, stdout and CSV bytes agree on {agree} of "
          f"{len(work)} tasks")
    print(f"figure presets, best of {REPEATS} each:")
    for preset, (times, results) in zip(FIGURES, figures):
        print(f"  {preset}: A {times[0] * 1e3:.3f} ms, "
              f"B {times[1] * 1e3:.3f} ms, B/A {times[1] / times[0]:.3f}, "
              f"outputs {'agree' if results[0] == results[1] else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
