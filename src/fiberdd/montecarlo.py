"""Monte Carlo cross-check of the analytic coherence factor.

Instead of filter functions and quadrature, this path synthesizes
explicit noise trajectories and averages the dephasing factor over
them.  Trajectories come from a cosine/sine mode sum,

    beta(l) = sum_j sqrt(S(w_j) dw / pi) (a_j cos w_j l + b_j sin w_j l),

with w_j a uniform midpoint grid over the spectral band, dw its spacing,
and a_j, b_j independent standard normals; this is exactly stationary
with the target spectrum in the fine-grid limit.  Each trial also draws
the photon frequency from the Gaussian optical profile (variance
sigma^2 / 2), accumulates the phase along the toggling frame of the
pulse sequence by trapezoid integration, and the coherence factor is
estimated as the average of cos(phase).  Agreement with the analytic
route within a few standard errors validates spectrum, filter, and
quadrature at once.

The trials of one call run in contiguous ranges on a thread pool, one
thread per CPU the process may use (small calls run inline).  numpy
draws normals without holding the interpreter lock, so the threads run
in parallel.  Every trial has its own random stream and its own slot in
the result arrays, and the mean and standard error are reduced over the
full arrays in trial order, so results are bit-identical whatever the
number of threads.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .dephasing import SpectralProfile
from .noise import NoiseSpectrum

# Hard ceiling on trajectory grid size per trial.
MAX_GRID_POINTS = 10_000_000

# Chunk size (modes) for the trajectory-grid trig matrices.
_MODE_BLOCK = 2048

# Fewest trials worth a thread of their own (one trial is a few hundred
# microseconds, a thread's start-up far less); smaller calls run inline.
_MIN_TRIALS_PER_WORKER = 256


@dataclass(frozen=True)
class McSettings:
    """Sampling controls for the Monte Carlo estimator.

    trials : number of independent noise trajectories.
    seed : root seed; every trial uses an independent child stream, so
        results are bit-reproducible for a fixed (seed, trials, grid),
        whatever the number of threads the trials run on (one per CPU
        the process may use; there is no setting for it).
    resolution : trajectory grid points per unit length.
    frequency_modes : number of synthesis modes across the band.
    """

    trials: int = 10_000
    seed: int = 0
    resolution: int = 64
    frequency_modes: int = 8192

    def __post_init__(self):
        if not (isinstance(self.trials, (int, np.integer)) and self.trials >= 2):
            raise ValueError(f"trials must be an integer >= 2, got {self.trials}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if not (isinstance(self.resolution, (int, np.integer))
                and self.resolution >= 1):
            raise ValueError(
                f"resolution must be a positive integer, got {self.resolution}")
        if not (isinstance(self.frequency_modes, (int, np.integer))
                and self.frequency_modes >= 2):
            raise ValueError(
                f"frequency_modes must be an integer >= 2, "
                f"got {self.frequency_modes}")


@dataclass
class McResult:
    """Monte Carlo estimate of the coherence factor.

    ``estimate`` averages cos(phase); ``imag_mean`` averages sin(phase)
    and should be zero within its own standard error (the phase
    distribution is symmetric), making it a free consistency diagnostic.
    """

    estimate: float
    std_error: float
    imag_mean: float
    imag_std_error: float
    trials: int


def z_score(result: McResult, analytic: float) -> float:
    """Standardized disagreement (estimate - analytic) / std_error.

    A zero standard error with zero difference scores 0; a nonzero
    difference with zero standard error scores +-inf.
    """
    diff = result.estimate - analytic
    if result.std_error == 0.0:
        return 0.0 if diff == 0.0 else float(np.sign(diff) * np.inf)
    return float(diff / result.std_error)


def synthesis_grid(spectrum: NoiseSpectrum, n_modes: int):
    """Midpoint mode frequencies and amplitude weights sqrt(S dw / pi)."""
    span = spectrum.uv_cutoff - spectrum.ir_cutoff
    dw = span / n_modes
    omega = spectrum.ir_cutoff + (np.arange(n_modes) + 0.5) * dw
    return omega, np.sqrt(spectrum.density(omega) * dw / np.pi)


def trajectory_grid(length: float, resolution: int):
    """Uniform grid over [0, length] with ~resolution points per unit."""
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    segments = max(1, int(round(resolution * length)))
    return np.linspace(0.0, length, segments + 1)


def sample_trajectory(spectrum: NoiseSpectrum, length: float, rng,
                      *, resolution: int = 64, frequency_modes: int = 8192):
    """Draw one noise trajectory on the grid; returns (grid, values).

    Consumes exactly 2*frequency_modes standard normals from ``rng``
    (cosine coefficients first), matching the draw order of the phase
    estimator so trials can be replayed.
    """
    grid = trajectory_grid(length, resolution)
    omega, weight = synthesis_grid(spectrum, frequency_modes)
    a = rng.standard_normal(frequency_modes)
    b = rng.standard_normal(frequency_modes)
    beta = np.zeros(grid.size)
    for i in range(0, frequency_modes, _MODE_BLOCK):
        block = omega[i:i + _MODE_BLOCK, None] * grid
        beta += (a[i:i + _MODE_BLOCK] * weight[i:i + _MODE_BLOCK]) @ np.cos(block)
        beta += (b[i:i + _MODE_BLOCK] * weight[i:i + _MODE_BLOCK]) @ np.sin(block)
    return grid, beta


def auto_resolution(positions: np.ndarray, length: float,
                    spectrum: NoiseSpectrum) -> int:
    """Smallest grid resolution passing the discretization guardrails."""
    edges = np.concatenate(([0.0], np.asarray(positions, float), [length]))
    min_gap = float(np.diff(edges).min())
    return int(max(32.0,
                   np.ceil(2.0 * spectrum.uv_cutoff / np.pi),
                   np.ceil(16.0 / min_gap)))


def validate_settings(positions: np.ndarray, length: float,
                      spectrum: NoiseSpectrum,
                      settings: McSettings) -> list[str]:
    """Discretization guardrails; returns one message per violation.

    Each check ties a bias mechanism to a sizing hint: the trajectory
    grid must resolve both the fastest noise component and the shortest
    pulse gap (else the trapezoid phase is aliased), the mode grid must
    resolve the spectral edge and the filter's frequency structure (else
    the synthesized spectrum is miscalibrated), and the grid size must
    stay within the per-trial ceiling.
    """
    problems = []
    grid_points = max(1, int(round(settings.resolution * length))) + 1
    if grid_points > MAX_GRID_POINTS:
        problems.append(
            f"trajectory grid has {grid_points} points, above the "
            f"{MAX_GRID_POINTS} ceiling; lower resolution or length")

    min_period_pts = settings.resolution * 2.0 * np.pi / spectrum.uv_cutoff
    if min_period_pts < 4.0:
        problems.append(
            f"resolution {settings.resolution} gives {min_period_pts:.2f} "
            f"grid points per fastest noise period; need >= 4 "
            f"(resolution >= {int(np.ceil(2 * spectrum.uv_cutoff / np.pi))})")

    edges = np.concatenate(([0.0], np.asarray(positions, float), [length]))
    min_gap = float(np.diff(edges).min())
    if settings.resolution * min_gap < 16.0:
        problems.append(
            f"resolution {settings.resolution} puts fewer than 16 grid "
            f"points in the shortest pulse gap {min_gap:.4g}; need "
            f"resolution >= {int(np.ceil(16.0 / min_gap))}")

    span = spectrum.uv_cutoff - spectrum.ir_cutoff
    dw = span / settings.frequency_modes
    if dw > 0.2 * spectrum.ir_cutoff:
        problems.append(
            f"mode spacing {dw:.4g} too coarse for the spectral edge at "
            f"{spectrum.ir_cutoff}; need frequency_modes >= "
            f"{int(np.ceil(5.0 * span / spectrum.ir_cutoff))} "
            "or a larger ir_cutoff")

    if dw * length > 0.5 * np.pi:
        problems.append(
            f"mode spacing {dw:.4g} too coarse for length {length}; need "
            f"frequency_modes >= {int(np.ceil(2.0 * span * length / np.pi))}")
    return problems


def _worker_count(trials: int) -> int:
    """Threads for one call: no more than the CPUs this process may use,
    and no more than leave each thread _MIN_TRIALS_PER_WORKER trials."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, trials // _MIN_TRIALS_PER_WORKER))


def _phase_weights(positions: np.ndarray, length: float,
                   spectrum: NoiseSpectrum, settings: McSettings):
    """Mode weights (cos_w, sin_w) of the per-trial phase.

    A trial with mode coefficients a, b and photon frequency k has phase
    k * (a @ cos_w + b @ sin_w): the signed trapezoid of its trajectory
    against the toggling frame, contracted over the modes.
    """
    grid = trajectory_grid(length, settings.resolution)
    step = grid[1] - grid[0]
    mids = 0.5 * (grid[:-1] + grid[1:])
    signs = np.where(np.searchsorted(positions, mids, side="left") % 2,
                     -1.0, 1.0)
    trap = np.zeros(grid.size)
    trap[:-1] += 0.5 * step * signs
    trap[1:] += 0.5 * step * signs

    omega, weight = synthesis_grid(spectrum, settings.frequency_modes)
    cos_w = np.empty(omega.size)
    sin_w = np.empty(omega.size)
    for i in range(0, omega.size, _MODE_BLOCK):
        block = omega[i:i + _MODE_BLOCK, None] * grid
        cos_w[i:i + _MODE_BLOCK] = weight[i:i + _MODE_BLOCK] * (np.cos(block) @ trap)
        sin_w[i:i + _MODE_BLOCK] = weight[i:i + _MODE_BLOCK] * (np.sin(block) @ trap)
    return cos_w, sin_w


def _fill_trials(cos_phase: np.ndarray, sin_phase: np.ndarray,
                 lo: int, hi: int, cos_w: np.ndarray, sin_w: np.ndarray,
                 profile: SpectralProfile, settings: McSettings) -> None:
    """Write cos/sin of the phase of trials lo..hi-1 into their slots.

    Trial t draws from its own child stream (a, then b, then the photon
    frequency), so a trial's value does not depend on which range or
    thread computes it.
    """
    freq_std = profile.sigma / np.sqrt(2.0)
    for t in range(lo, hi):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=settings.seed, spawn_key=(t,)))
        a = rng.standard_normal(settings.frequency_modes)
        b = rng.standard_normal(settings.frequency_modes)
        photon = rng.normal(profile.omega0, freq_std) if freq_std > 0.0 \
            else profile.omega0
        phase = photon * (a @ cos_w + b @ sin_w)
        cos_phase[t] = np.cos(phase)
        sin_phase[t] = np.sin(phase)


def mc_coherence(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                 length: float, settings: McSettings = McSettings()) -> McResult:
    """Monte Carlo estimate of the coherence factor at one length.

    Raises ValueError (all violations listed) if the settings fail the
    discretization guardrails.  The per-trial phase is computed as a
    signed trapezoid of the trajectory against the toggling frame of
    ``seq``, contracted analytically over the mode coefficients, so no
    trajectory is ever materialized.  Contiguous trial ranges run in
    threads, one per CPU the process may use; the result is the same
    whatever that count.
    """
    positions = seq.positions(length)
    problems = validate_settings(positions, length, spectrum, settings)
    if problems:
        raise ValueError("Monte Carlo settings rejected:\n  "
                         + "\n  ".join(problems))

    cos_w, sin_w = _phase_weights(positions, length, spectrum, settings)
    # NaN until filled: a trial no range covered would show in the result.
    cos_phase = np.full(settings.trials, np.nan)
    sin_phase = np.full(settings.trials, np.nan)
    workers = _worker_count(settings.trials)
    fill = functools.partial(_fill_trials, cos_phase, sin_phase,
                             cos_w=cos_w, sin_w=sin_w, profile=profile,
                             settings=settings)
    if workers == 1:
        fill(0, settings.trials)
    else:
        # Imported here: concurrent.futures loads logging, start-up time
        # every command would pay although only large calls use a pool.
        from concurrent.futures import ThreadPoolExecutor
        bounds = [settings.trials * k // workers for k in range(workers + 1)]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            # list() reads every future, so a worker's exception is raised.
            list(pool.map(fill, bounds[:-1], bounds[1:]))

    root_n = np.sqrt(settings.trials)
    return McResult(
        estimate=float(cos_phase.mean()),
        std_error=float(cos_phase.std(ddof=1) / root_n),
        imag_mean=float(sin_phase.mean()),
        imag_std_error=float(sin_phase.std(ddof=1) / root_n),
        trials=settings.trials,
    )
