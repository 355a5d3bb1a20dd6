"""fiberdd benchmark: one workload per invocation, all metrics on stdout.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep|budget|mc --seed N \
        --seconds S --trace 0|1

Load model: closed loop, one client, no think time, one process.  Tasks
run back to back in whole rounds (see tasks.py) until their summed
duration reaches ``--seconds``.  Every output is checked outside its
timed span.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs the first rounds untraced and then traced and reports per-layer
metrics from the spans.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric by name with its unit, and the provenance of the run.

BLAS is pinned to one thread before numpy is imported: the host may
have as few as two cores, shared with other work.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from checks import Checker  # noqa: E402
from tasks import ROUNDS, WARMUP, WORKLOADS, Runtime, task_list  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# setup_s is the median of this many fresh-process set-ups, spread
# evenly over the timed run so that they sample the host's speed over
# the whole run rather than in one moment at its start.
SETUP_PROBES = 7
SETUP_TIMEOUT_S = 60.0

# Tail percentile per workload: it leaves 17 or more tasks beyond it in
# a 55 s run at the defining commit, so that a host running 1.7 times
# slower still leaves ten.  It is fixed so that a faster program, which
# runs more tasks, reports the same percentile.
TAIL_PERCENTILE = {"sweep": 90, "budget": 85, "mc": 75}

# Rounds in a traced run; the counts of a seed repeat exactly.
TRACE_ROUNDS = {"sweep": 2, "budget": 4, "mc": 3}

END_TO_END_UNITS = {
    "setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms",
    "task_tail_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "filters.calls": "count", "filters.points": "count",
    "filters.segment_points": "count", "filters.s": "s",
    "filters.ns_per_segment_point": "ns",
    "filters.segment_points_per_cost_unit": "points/cost_unit",
    "quadrature.calls": "count", "quadrature.panels": "count",
    "quadrature.integrand_points": "count",
    "quadrature.refine_rounds": "count", "quadrature.self_s": "s",
    "quadrature.points_per_panel": "points/panel",
    "quadrature.points_per_cost_unit": "points/cost_unit",
    "cost.units": "cost_unit",
    "dephasing.overlap_calls": "count", "dephasing.overlap_s": "s",
    "dephasing.self_s": "s", "dephasing.unconverged": "count",
    "dephasing.coherence_calls": "count",
    "evolution.calls": "count", "evolution.self_s": "s",
    "evolution.overlaps_per_task": "1/task",
    "states.concurrence_calls": "count", "states.s": "s",
    "montecarlo.calls": "count", "montecarlo.trials": "count",
    "montecarlo.s": "s", "montecarlo.us_per_trial": "us",
    "montecarlo.contraction_s": "s",
    "cli.calls": "count", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def import_package():
    """Import fiberdd from this checkout's ``src``; exit 1 if absent."""
    sys.path.insert(0, str(SRC))
    try:
        import fiberdd
    except ImportError as exc:
        sys.exit(f"bench: cannot import fiberdd from {SRC}: {exc}")
    if Path(fiberdd.__file__).resolve().parent.parent != SRC:
        sys.exit(f"bench: fiberdd imported from {fiberdd.__file__}, "
                 f"not from {SRC}")
    return fiberdd


def setup(workload: str, seed: int):
    """Everything before the first timed task: import, inputs, warm-up."""
    import_package()
    OUT.mkdir(exist_ok=True)
    first_round = ROUNDS[workload](seed, 0)
    runtime = Runtime(OUT)
    checker = Checker(runtime, workload, seed)
    warmup = runtime.execute(WARMUP[workload])
    problem = Checker(runtime, workload, None).check(0, WARMUP[workload],
                                                     warmup)
    if problem:
        sys.exit(f"bench: warm-up task failed its check: {problem}")
    return runtime, checker, first_round


def probe_setup(workload: str, seed: int) -> float:
    """Wall time of one fresh process doing only ``setup``.

    The wait blocks in waitpid, with a watchdog thread for the timeout:
    a wait with a timeout polls at up to 50 ms steps, too coarse here.
    """
    start = time.perf_counter()
    probe = subprocess.Popen(
        [sys.executable, str(BENCH / "setup_probe.py"), workload,
         str(seed)], cwd=ROOT)
    watchdog = threading.Timer(SETUP_TIMEOUT_S, probe.kill)
    watchdog.start()
    try:
        code = probe.wait()
    finally:
        watchdog.cancel()
    if code != 0:
        sys.exit(f"bench: set-up probe exited {code}")
    return time.perf_counter() - start


def run_task(runtime, checker, index: int, task: dict, tracer=None):
    """(duration_s, failure or None) of one task; check untimed."""
    if tracer is not None:
        tracer.begin_task(index)
    start = time.perf_counter()
    try:
        output = runtime.execute(task)
    except Exception as exc:  # a raising task counts as failed
        return time.perf_counter() - start, f"raised {exc!r}"
    finally:
        if tracer is not None:
            tracer.end_task()
    duration = time.perf_counter() - start
    try:
        return duration, checker.check(index, task, output)
    except Exception as exc:  # an output the check cannot read is wrong
        return duration, f"check raised {exc!r}"


class Tally:
    """Durations and failures of the tasks run so far."""

    def __init__(self):
        self.durations: list[float] = []
        self.failures: list[str] = []

    def add(self, index: int, task: dict, result) -> None:
        duration, problem = result
        self.durations.append(duration)
        if problem:
            self.failures.append(f"task {index} {json.dumps(task)}: {problem}")


def run_timed(workload: str, seed: int, seconds: float, runtime, checker,
              first_round: list[dict]) -> tuple[Tally, list[float]]:
    """Whole rounds until ``seconds`` of task time; set-up probes between.

    A probe runs before the first round and then each time the task time
    passes another ``1 / (SETUP_PROBES - 1)`` of ``seconds``.
    """
    tally, setups = Tally(), []
    round_tasks, r = first_round, 0
    while True:
        done = sum(tally.durations)
        due = 1 + int((SETUP_PROBES - 1) * min(done / seconds, 1.0))
        while len(setups) < due:
            setups.append(probe_setup(workload, seed))
        if done >= seconds:
            return tally, setups
        for task in round_tasks:
            index = len(tally.durations)
            tally.add(index, task, run_task(runtime, checker, index, task))
        r += 1
        round_tasks = ROUNDS[workload](seed, r)


def end_to_end(workload: str, tally: Tally, setup_s: float) -> dict:
    ms = np.array(tally.durations) * 1e3
    n = ms.size
    q = TAIL_PERCENTILE[workload]
    beyond = int(np.sum(ms > np.percentile(ms, q)))
    print(f"# task_tail_ms is p{q}: {beyond} of {n} tasks beyond it")
    return {
        "setup_s": setup_s,
        "tasks_per_s": n / float(sum(tally.durations)),
        "task_p50_ms": float(np.percentile(ms, 50)),
        "task_tail_ms": float(np.percentile(ms, q)),
        "ok_ratio": (n - len(tally.failures)) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def traced(tasks: list[dict], runtime, checker,
           dump_path: Path) -> tuple[Tally, dict]:
    """Untraced then traced pass over ``tasks``; per-layer metrics."""
    plain, spanned = Tally(), Tally()
    for index, task in enumerate(tasks):
        plain.add(index, task, run_task(runtime, checker, index, task))
    tracer = Tracer()
    tracer.install()
    try:
        for index, task in enumerate(tasks):
            spanned.add(index, task,
                        run_task(runtime, checker, index, task, tracer))
    finally:
        tracer.uninstall()
    tracer.dump(dump_path)

    metrics = layer_metrics(tracer, len(tasks))
    # Contraction cost: the same configurations at the minimum of 2 trials.
    contraction = 0.0
    for task in tasks:
        if task["workload"] == "mc":
            start = time.perf_counter()
            runtime.mc(task, 2)
            contraction += time.perf_counter() - start
    trials = metrics["montecarlo.trials"]
    metrics["montecarlo.contraction_s"] = contraction
    metrics["montecarlo.us_per_trial"] = (
        (metrics["montecarlo.s"] - contraction) / trials * 1e6
        if trials else 0.0)
    metrics["trace.overhead_ratio"] = (sum(spanned.durations)
                                       / sum(plain.durations))
    tally = Tally()
    tally.durations = plain.durations + spanned.durations
    tally.failures = plain.failures + spanned.failures
    return tally, metrics


def provenance(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fiberdd").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(), "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "seed": seed,
    }


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    print("# provenance " + json.dumps(provenance(args.seed)))
    runtime, checker, first_round = setup(args.workload, args.seed)

    if args.trace:
        tasks = task_list(args.workload, args.seed,
                          TRACE_ROUNDS[args.workload])
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tally, metrics = traced(tasks, runtime, checker, dump)
        units = PER_LAYER_UNITS
    else:
        tally, setups = run_timed(args.workload, args.seed, args.seconds,
                                  runtime, checker, first_round)
        metrics = end_to_end(args.workload, tally, statistics.median(setups))
        units = END_TO_END_UNITS

    for failure in tally.failures[:20]:
        print(f"# FAILED {failure}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {units[name]}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": len(tally.durations),
        "failed": len(tally.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
