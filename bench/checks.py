"""Output checks, run outside each task's timed span.

``sweep`` and ``budget`` outputs are compared with stored references
(f_L, Gamma, C) at 1e-9 relative, the agreement the overlap integral
must keep under any reformulation.  Concurrence is compared on the scale
of the initial concurrence, because near a death length C itself tends
to zero.  Tasks without a stored reference get invariant checks only.
A reported death length is checked as a real alive-to-dead crossing,
not against a stored number, so a corrected multi-crossing search still
passes.  ``mc`` results are checked against the analytic coherence
factor with the z <= 4 rule of ``fiberdd mc-check``.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from tasks import SWEEP_GRID_POINTS

REL_TOL = 1e-9
Z_LIMIT = 4.0
REF_DIR = Path(__file__).resolve().parent / "refs"

_ESD = re.compile(r"esd_length = (\S+?);")


def load_refs(workload: str, seed: int | None):
    """Stored (tasks, ..., 3) array of f, Gamma, C for a seed, or None."""
    path = REF_DIR / f"{workload}.npz"
    if seed is None or not path.exists():
        return None
    with np.load(path, allow_pickle=False) as refs:
        key = f"seed{seed}"
        return refs[key] if key in refs.files else None


def read_curve_csv(path: str) -> np.ndarray:
    """Rows (L, f_L, gamma, concurrence) of a ``simulate`` CSV."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("#") or line.startswith("L,"):
                continue
            rows.append([float(cell) for cell in line.split(",")])
    return np.array(rows)


def _close(got, want, scale) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return bool(np.all(np.abs(got - want) <= REL_TOL * scale))


def compare(values: np.ndarray, ref: np.ndarray, c0: float) -> str | None:
    """Columns (f, Gamma, C) against a reference; None when they agree."""
    if values.shape != ref.shape:
        return f"shape {values.shape} differs from reference {ref.shape}"
    for col, name in ((0, "f_L"), (1, "gamma")):
        if not _close(values[..., col], ref[..., col],
                      np.abs(ref[..., col])):
            return f"{name} differs from reference beyond {REL_TOL:g}"
    if not _close(values[..., 2], ref[..., 2], c0):
        return f"concurrence differs from reference beyond {REL_TOL:g}"
    return None


def invariants(values: np.ndarray, c0: float) -> str | None:
    """f >= 0, 0 < Gamma <= 1 and 0 <= C <= C0 for (f, Gamma, C) rows."""
    f, gamma, conc = values[..., 0], values[..., 1], values[..., 2]
    if not np.all(np.isfinite(values)):
        return "non-finite output"
    if np.any(f < 0.0):
        return "negative overlap"
    if np.any(gamma <= 0.0) or np.any(gamma > 1.0):
        return "coherence factor outside (0, 1]"
    if np.any(conc < 0.0) or np.any(conc > c0 * (1.0 + REL_TOL)):
        return "concurrence outside [0, C0]"
    return None


class Checker:
    """Checks the outputs of one run's tasks in order."""

    def __init__(self, runtime, workload: str, seed: int | None):
        self.rt = runtime
        self.refs = load_refs(workload, seed)
        self.c0 = runtime.fd.concurrence(runtime.state)

    def ref(self, index: int):
        if self.refs is None or index >= len(self.refs):
            return None
        return self.refs[index]

    def check(self, index: int, task: dict, output) -> str | None:
        """None if the output of task ``index`` is correct, else why not."""
        kind = task["workload"]
        if kind == "sweep":
            return self._sweep(index, task, output)
        if kind == "budget":
            return self._budget(index, output)
        return self._mc(task, output)

    def _values(self, index: int, values: np.ndarray) -> str | None:
        ref = self.ref(index)
        if ref is not None:
            return compare(values, ref, self.c0)
        return invariants(values, self.c0)

    def _budget(self, index: int, curve) -> str | None:
        if not bool(np.all(curve.converged)):
            return "quadrature did not converge"
        values = np.stack([curve.overlap, curve.gamma, curve.concurrence],
                          axis=-1)[0]
        return self._values(index, values)

    def _sweep(self, index: int, task: dict, output: dict) -> str | None:
        if output["exit"] != 0:
            return f"simulate exited {output['exit']}"
        rows = read_curve_csv(self.rt.csv_path)
        grid = np.linspace(0.0, task["length_max"],
                           SWEEP_GRID_POINTS + 1)[1:]
        if rows.shape != (SWEEP_GRID_POINTS, 4) or not np.array_equal(
                rows[:, 0], grid):
            return "csv does not hold the requested length grid"
        problem = self._values(index, rows[:, 1:])
        if problem:
            return problem
        return self._death_length(task, output["stdout"], rows)

    def _death_length(self, task: dict, stdout: str, rows) -> str | None:
        match = _ESD.search(stdout)
        if match is None:
            return "summary line has no esd_length"
        dead = rows[:, 3] == 0.0
        if match.group(1) == "none":
            return "dead grid points but no death length" if dead.any() \
                else None
        esd = float(match.group(1))
        delta = 1e-7 * task["length_max"]
        if not 0.0 < esd - delta:
            return f"death length {esd} is not positive"
        rt = self.rt
        curve = rt.fd.decoherence_curve(
            rt.sequence(task), rt.sweep_spectrum(task), rt.profile,
            rt.state, [esd - delta, esd + delta])
        if not (curve.concurrence[0] > 0.0 and curve.concurrence[1] == 0.0):
            return f"death length {esd} is not an alive-to-dead crossing"
        return None

    def _mc(self, task: dict, result) -> str | None:
        rt = self.rt
        fd = rt.fd
        seq = rt.sequence(task)
        length = task["length"]
        analytic = fd.coherence_factor(
            fd.overlap_from_positions(seq.positions(length), rt.mc_spectrum,
                                      length), rt.profile)
        if result.trials != task["trials"]:
            return f"ran {result.trials} trials, asked for {task['trials']}"
        z = fd.z_score(result, analytic)
        if not abs(z) <= Z_LIMIT:
            return f"|z| = {abs(z):.3g} against the analytic coherence"
        if not abs(result.imag_mean) <= Z_LIMIT * result.imag_std_error:
            return "imaginary mean beyond 4 standard errors"
        return None
