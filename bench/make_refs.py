"""Regenerate the stored reference outputs in ``refs/``.

For each seed in REF_SEEDS, stores f_L, Gamma and C of the first
REF_ROUNDS rounds of the ``sweep`` and ``budget`` workloads (72 and 64
tasks), computed by the source in ``src/``.  That is about half of a
30-second run on a two-core host; later tasks, and other seeds, get the
invariant checks only.  Every output must first pass the invariant and
death-length checks.  Regenerate only when a change is meant to alter
the numbers.

Usage, from the root of a checkout: ``python3 bench/make_refs.py``.
"""

import sys

import run  # first: pins BLAS to one thread before numpy loads

import numpy as np  # noqa: E402
from checks import REF_DIR, Checker, read_curve_csv  # noqa: E402
from tasks import Runtime, task_list  # noqa: E402

REF_SEEDS = range(10)
REF_ROUNDS = {"sweep": 6, "budget": 16}


def reference_outputs(runtime, workload: str, seed: int) -> np.ndarray:
    checker = Checker(runtime, workload, None)
    values = []
    for index, task in enumerate(task_list(workload, seed,
                                           REF_ROUNDS[workload])):
        output = runtime.execute(task)
        problem = checker.check(index, task, output)
        if problem:
            sys.exit(f"seed {seed} task {index} {task}: {problem}")
        if workload == "sweep":
            values.append(read_curve_csv(runtime.csv_path)[:, 1:])
        else:
            values.append(np.stack([output.overlap, output.gamma,
                                    output.concurrence], axis=-1)[0])
    return np.array(values)


def main() -> None:
    run.import_package()
    run.OUT.mkdir(exist_ok=True)
    runtime = Runtime(run.OUT)
    REF_DIR.mkdir(exist_ok=True)
    for workload in REF_ROUNDS:
        arrays = {f"seed{seed}": reference_outputs(runtime, workload, seed)
                  for seed in REF_SEEDS}
        np.savez_compressed(REF_DIR / f"{workload}.npz", **arrays)
        print(f"{workload}: {len(arrays)} seeds, "
              f"{len(arrays['seed0'])} tasks each")


if __name__ == "__main__":
    main()
