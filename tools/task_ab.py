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
and CSV bytes agree task by task (each checkout's CSV path read as one
placeholder).  The split shows whether a change moved the death-length
probes or the curves, whose pulse counts the sequence sets.  Run it with the same
checkout twice for an A/A baseline: its ratio should be within 1 % of 1.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

DEFAULT_SEEDS = (5, 6)
TASK_ROUNDS = 8
REPEATS = 5


def load_package(root: Path, name: str):
    """The ``cli`` module of the checkout at ``root``, whose ``fiberdd``
    is imported as ``name``."""
    package = root / "src" / "fiberdd"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py",
        submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.cli")


def load_tasks(root: Path):
    """The checkout's ``bench/tasks.py``."""
    spec = importlib.util.spec_from_file_location(
        "task_ab_tasks", root / "bench" / "tasks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_once(cli, argv: list[str]):
    """Wall seconds of one ``cli.main`` call, its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def main(argv: list[str]) -> int:
    if len(argv) < 2 or any(arg.startswith("-") for arg in argv):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tools/task_ab.py CHECKOUT_A CHECKOUT_B "
              "[SEED ...]", file=sys.stderr)
        return 2
    roots = [Path(arg).resolve() for arg in argv[:2]]
    seeds = [int(arg) for arg in argv[2:]] or list(DEFAULT_SEEDS)
    clis = [load_package(root, name)
            for root, name in zip(roots, ("fiberdd_a", "fiberdd_b"))]
    tasks = load_tasks(roots[0])
    work = [task for seed in seeds
            for task in tasks.task_list("sweep", seed, TASK_ROUNDS)]

    best = [[], []]  # per side, per task
    agree = 0
    dies = []  # per task, whether A printed a death length
    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / side / "sweep.csv") for side in "ab"]
        for path in paths:
            Path(path).parent.mkdir()
        for i, task in enumerate(work):
            times = [float("inf"), float("inf")]
            results = [None, None]
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for _ in range(REPEATS):
                for side in order:
                    elapsed, code, out = run_once(
                        clis[side], tasks.sweep_argv(task, paths[side]))
                    times[side] = min(times[side], elapsed)
                    csv = Path(paths[side]).read_text(encoding="utf-8")
                    results[side] = (code, out.replace(paths[side], "OUT"),
                                     csv.replace(paths[side], "OUT"))
            agree += results[0] == results[1]
            dies.append("esd_length = none;" not in results[0][1])
            for side in (0, 1):
                best[side].append(times[side])

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
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
