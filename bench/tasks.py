"""Workload definitions: seeded task generation and task execution.

A task is one call a user makes into fiberdd.  Tasks are plain dicts of
JSON types so that a task list can be serialized, compared and stored.
Each workload hands out tasks in small *rounds* of a stratified design:
which strata a round covers depends only on its index, and the seed only
jitters values inside their strata and shuffles the order.  Stratifying
keeps the distribution of task costs almost the same from seed to seed,
so medians over a run move with the program, not with the draw.  Strata
are paired across dimensions by a fixed cyclic shift per round (a
Latin-square walk) rather than at random, because a random pairing of
pulse count with length changes the cost mix by several percent from
seed to seed.  Each round mixes cheap and dear tasks, so a run, which
stops only between rounds, ends close to its time budget.

The package is driven only from outside: ``fiberdd.cli.main`` in-process
for ``sweep`` and the public functions of ``evolution`` and
``montecarlo`` for ``budget`` and ``mc``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

WORKLOADS = ("sweep", "budget", "mc")

# Physics shared by every task, spelled out so the benchmark does not
# depend on CLI defaults: the default 1/f band of the package and the
# narrower band of its Monte Carlo check.
NOISE_AMP = 0.008
ALPHA = 1.0
BAND = (1e-3, 1e3)
MC_BAND = (0.05, 50.0)
OMEGA0 = 1.0
SIGMA = 0.1

SWEEP_SEQUENCES = ("free", "se", "cpmg")
SWEEP_GRID_POINTS = 16
BUDGET_SLOTS = 16
BUDGET_MAX_PULSES = 64
MC_TRIALS = (1000, 2000, 4000)
MC_MAX_PULSES = 8


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # String seeds hash through SHA-512, which is stable across Python
    # versions and platforms.
    return random.Random(f"{workload}:{seed}:{round_index}")


def _stratum(index: int, count: int, lo: float, hi: float, rng) -> float:
    return lo + (hi - lo) * (index + rng.random()) / count


def sweep_round(seed: int, r: int) -> list[dict]:
    """12 ``simulate`` requests: 3 sequences x 4 length strata.

    Exponents take 12 strata per round, so no two tasks of a run share an
    exponent; cpmg densities take 4 strata over the round's cpmg tasks.
    """
    rng = _rng("sweep", seed, r)
    tasks = []
    for i in range(12):
        seq = SWEEP_SEQUENCES[i % 3]
        task = {
            "workload": "sweep",
            "sequence": seq,
            "density": (_stratum((i // 3 + 2 * r) % 4, 4, 0.03, 0.3, rng)
                        if seq == "cpmg" else None),
            "alpha": _stratum((5 * i + r) % 12, 12, 0.5, 1.5, rng),
            "length_max": _stratum((i // 3 + r) % 4, 4, 10.0, 30.0, rng),
        }
        tasks.append(task)
    rng.shuffle(tasks)
    return tasks


def budget_round(seed: int, r: int) -> list[dict]:
    """4 pulse-budget points, one quarter of a 16-stratum cycle.

    A cycle of 4 rounds visits each of 16 pulse-count strata over 0..64
    once, paired with one of 16 length strata over [20, 50]; each round
    takes every fourth pulse-count stratum, so its cost mix is balanced
    and a run can stop after any round.
    """
    rng = _rng("budget", seed, r)
    cycle, quarter = divmod(r, 4)
    span = BUDGET_MAX_PULSES + 1
    tasks = []
    for j in range(4):
        k = quarter + 4 * j
        pulses = int((k + rng.random()) * span / BUDGET_SLOTS)
        tasks.append({
            "workload": "budget",
            "pulses": min(pulses, BUDGET_MAX_PULSES),
            "length": _stratum((3 * k + cycle) % BUDGET_SLOTS, BUDGET_SLOTS,
                               20.0, 50.0, rng),
        })
    rng.shuffle(tasks)
    return tasks


def mc_round(seed: int, r: int) -> list[dict]:
    """3 Monte Carlo checks, one per trial count.

    Sequences rotate over the slots from round to round, lengths walk 9
    strata over [1, 3], and the cpmg pulse count walks 1..8 from a
    seeded offset.
    """
    rng = _rng("mc", seed, r)
    offset = _rng("mc", seed, -1).randrange(MC_MAX_PULSES)
    tasks = []
    for j, trials in enumerate(MC_TRIALS):
        seq = SWEEP_SEQUENCES[(j + r) % 3]
        tasks.append({
            "workload": "mc",
            "sequence": seq,
            "pulses": (1 + (r + offset) % MC_MAX_PULSES
                       if seq == "cpmg" else None),
            "length": _stratum((3 * j + r) % 9, 9, 1.0, 3.0, rng),
            "trials": trials,
            "mc_seed": rng.randrange(2 ** 32),
        })
    rng.shuffle(tasks)
    return tasks


ROUNDS = {"sweep": sweep_round, "budget": budget_round, "mc": mc_round}

# Fixed, seed-independent warm-up task per workload: setup_s includes it,
# and its inputs stay the same across seeds so setup_s does not move with
# the draw.
WARMUP = {
    "sweep": {"workload": "sweep", "sequence": "free", "density": None,
              "alpha": 1.0, "length_max": 10.0},
    "budget": {"workload": "budget", "pulses": 8, "length": 35.0},
    "mc": {"workload": "mc", "sequence": "free", "pulses": None,
           "length": 2.0, "trials": 200, "mc_seed": 0},
}


def task_list(workload: str, seed: int, rounds: int) -> list[dict]:
    """The first ``rounds`` rounds of a workload, flattened."""
    make = ROUNDS[workload]
    return [task for r in range(rounds) for task in make(seed, r)]


def task_bytes(tasks: list[dict]) -> bytes:
    """Canonical serialization of a task list (floats round-trip)."""
    return json.dumps(tasks, sort_keys=True).encode()


def sweep_argv(task: dict, out_path: str) -> list[str]:
    """Command line of a ``sweep`` task, every physics flag pinned."""
    argv = ["simulate", "--sequence", task["sequence"]]
    if task["density"] is not None:
        argv += ["--density", repr(task["density"])]
    argv += ["--alpha", repr(task["alpha"]),
             "--length-max", repr(task["length_max"]),
             "--grid-points", str(SWEEP_GRID_POINTS),
             "--noise-amp", repr(NOISE_AMP),
             "--ir-cutoff", repr(BAND[0]), "--uv-cutoff", repr(BAND[1]),
             "--omega0", repr(OMEGA0), "--sigma", repr(SIGMA),
             "--state", "paper", "--out", out_path]
    return argv


class Runtime:
    """Objects every task of a run shares, built once in set-up."""

    def __init__(self, out_dir: Path):
        import fiberdd

        self.fd = fiberdd
        self.csv_path = str(out_dir / "sweep.csv")
        self.profile = fiberdd.SpectralProfile(OMEGA0, SIGMA)
        self.state = fiberdd.mixed_third_state()
        self.spectrum = fiberdd.NoiseSpectrum(NOISE_AMP, ALPHA, *BAND)
        self.mc_spectrum = fiberdd.NoiseSpectrum(NOISE_AMP, ALPHA, *MC_BAND)

    def sequence(self, task: dict):
        """Pulse sequence object a task describes."""
        fd = self.fd
        seq = task.get("sequence", "cpmg")
        if seq == "free" or (seq == "cpmg" and task.get("pulses") == 0):
            return fd.Free()
        if seq == "se":
            return fd.SpinEcho()
        if task.get("density") is not None:
            return fd.CpmgDensity(task["density"])
        return fd.CpmgCount(task["pulses"])

    def sweep_spectrum(self, task: dict):
        return self.fd.NoiseSpectrum(NOISE_AMP, task["alpha"], *BAND)

    def execute(self, task: dict):
        """Run one task; returns what its output check needs."""
        kind = task["workload"]
        if kind == "sweep":
            from fiberdd import cli

            captured = io.StringIO()
            with contextlib.redirect_stdout(captured):
                code = cli.main(sweep_argv(task, self.csv_path))
            return {"exit": code, "stdout": captured.getvalue()}
        if kind == "budget":
            return self.fd.decoherence_curve(
                self.sequence(task), self.spectrum, self.profile,
                self.state, [task["length"]])
        return self.mc(task, task["trials"])

    def mc(self, task: dict, trials: int):
        """``mc_coherence`` as ``mc-check`` drives it, at ``trials``."""
        fd = self.fd
        seq = self.sequence(task)
        length = task["length"]
        positions = seq.positions(length)
        settings = fd.McSettings(
            trials=trials, seed=task["mc_seed"],
            resolution=fd.auto_resolution(positions, length,
                                          self.mc_spectrum))
        return fd.mc_coherence(seq, self.mc_spectrum, self.profile, length,
                               settings)
