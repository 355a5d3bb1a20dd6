"""Entanglement evolution along the fiber.

Sweep-level machinery tying the lower layers together: attenuation
curves C(L) for a sequence, the sudden-death length where entanglement
hits exactly zero at finite L, and the minimum pulse budget reaching a
concurrence target at a given length.

A curve takes its overlaps from one batched pass
(``overlaps_from_positions``); single-length evaluations (death-length
probes, pulse budgets) use the one-length case and get the same bits.
Death lengths are bracketed on a curve and refined by regula falsi on
the coherence factor, each probe classified by the concurrence itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dephasing import SpectralProfile, coherence_factor, \
    overlap_from_positions, overlaps_from_positions
from .noise import NoiseSpectrum
from .quadrature import QuadratureError
from .sequences import CpmgCount, Free, SequenceDegenerateError
from .states import TwoQubitXState, apply_dephasing, concurrence, \
    esd_threshold_gamma


@dataclass
class DecoherenceCurve:
    """Per-length overlap, coherence factor, and concurrence of a sweep.

    ``converged`` flags quadrature success; failed points keep the best
    available estimate rather than poisoning the whole sweep.
    """

    lengths: np.ndarray
    overlap: np.ndarray
    gamma: np.ndarray
    concurrence: np.ndarray
    converged: np.ndarray


def sweep_positions(seq, length: float) -> np.ndarray:
    """Pulse positions for sweep use: a fixed-density train too short to
    realize its first pulse degrades gracefully to free evolution."""
    try:
        return seq.positions(length)
    except SequenceDegenerateError:
        return np.empty(0)


def _overlap_at(seq, spectrum: NoiseSpectrum, length: float) -> tuple[float, bool]:
    try:
        return overlap_from_positions(sweep_positions(seq, length),
                                      spectrum, length), True
    except QuadratureError as exc:
        return exc.best_estimate, False


def _dephased_concurrence(state: TwoQubitXState, gamma: float) -> float:
    """Concurrence after dephasing by gamma.  A coherence factor that
    underflowed to 0 leaves no coherence, so the pair is separable."""
    return 0.0 if gamma == 0.0 else concurrence(apply_dephasing(state, gamma))


def coherence_at(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                 length: float) -> float:
    """Coherence factor of a sequence at one length."""
    f, _ = _overlap_at(seq, spectrum, length)
    return coherence_factor(f, profile)


def concurrence_at(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                   state: TwoQubitXState, length: float) -> float:
    """Concurrence of the dephased state at one length."""
    return _dephased_concurrence(state, coherence_at(seq, spectrum, profile,
                                                     length))


def decoherence_curve(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                      state: TwoQubitXState, lengths) -> DecoherenceCurve:
    """Evaluate overlap, coherence factor, and concurrence over lengths.

    Lengths must be positive.  All overlaps come from one
    ``overlaps_from_positions`` pass, each bit for bit what the pointwise
    route gives; quadrature failures are per-point.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError("lengths must be a nonempty 1-D array")
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise ValueError("lengths must be positive and finite")

    overlaps = overlaps_from_positions(
        [sweep_positions(seq, length) for length in lengths], spectrum,
        lengths)
    gamma = np.array([coherence_factor(f, profile) for f in overlaps.value])
    conc = np.array([_dephased_concurrence(state, g) for g in gamma])
    return DecoherenceCurve(lengths, overlaps.value, gamma, conc,
                            overlaps.converged)


def esd_length(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
               state: TwoQubitXState, length_max: float, *,
               grid_points: int = 200) -> float | None:
    """Smallest length in (0, length_max] where concurrence reaches zero.

    Evaluates a uniform grid as one curve and refines from its first dead
    point (concurrence hits zero exactly at finite length, so the
    predicate is a clean boolean).  Returns None when the state stays
    entangled over the whole grid.  The initial state itself must be
    entangled.
    """
    if not (np.isfinite(length_max) and length_max > 0.0):
        raise ValueError(f"length_max must be positive, got {length_max}")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    if concurrence(state) <= 0.0:
        raise ValueError("initial state is separable; no death length exists")
    grid = np.linspace(0.0, length_max, grid_points + 1)[1:]
    curve = decoherence_curve(seq, spectrum, profile, state, grid)
    return curve_death_length(seq, spectrum, profile, state, curve,
                              tol=1e-7 * length_max)


def curve_death_length(seq, spectrum: NoiseSpectrum,
                       profile: SpectralProfile, state: TwoQubitXState,
                       curve: DecoherenceCurve, *,
                       tol: float) -> float | None:
    """Death length refined from a curve's first dead point, or None.

    The bracket runs from the grid point before it (or from a billionth
    of the first length when the first point is already dead).
    """
    dead = np.flatnonzero(curve.concurrence == 0.0)
    if dead.size == 0:
        return None
    i = int(dead[0])
    lo = curve.lengths[i - 1] if i > 0 else curve.lengths[0] * 1e-9
    return refine_esd(seq, spectrum, profile, state, lo, curve.lengths[i],
                      tol=tol)


def refine_esd(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
               state: TwoQubitXState, alive_length: float,
               dead_length: float, *, tol: float) -> float:
    """Narrow a bracket (alive_length, dead_length] down to the death point.

    Probes are proposed by regula falsi with the Illinois modification on
    g(L) = Gamma(L) - Gamma*, Gamma* = ``esd_threshold_gamma(state)``, and
    classified by the concurrence predicate (C == 0 is dead), so the
    bracket always runs from an evaluated alive length to an evaluated
    dead one.  A probe stays at least tol/2 inside the bracket, and a
    step that fails to halve the bracket is followed by a bisection.
    Stops at hi - lo <= tol and returns the midpoint.  Assumes a single
    alive-to-dead transition inside the bracket, which holds whenever
    the coherence factor is monotone there.
    """
    if not 0.0 < alive_length < dead_length:
        raise ValueError("need 0 < alive_length < dead_length")
    threshold = esd_threshold_gamma(state)

    def probe(length: float) -> tuple[float, bool]:
        gamma = coherence_at(seq, spectrum, profile, length)
        return gamma - threshold, _dephased_concurrence(state, gamma) == 0.0

    lo, hi = alive_length, dead_length
    g_lo, _ = probe(lo)
    g_hi, _ = probe(hi)
    last_dead = None  # which end the previous probe replaced
    bisect = False
    while hi - lo > tol:
        width = hi - lo
        if bisect or not g_lo > 0.0 >= g_hi:
            x = 0.5 * (lo + hi)
        else:
            x = lo + width * g_lo / (g_lo - g_hi)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        g, dead = probe(x)
        if dead:
            hi, g_hi = x, g
            if last_dead is True:
                g_lo *= 0.5  # Illinois: lo kept twice, weight it down
        else:
            lo, g_lo = x, g
            if last_dead is False:
                g_hi *= 0.5
        last_dead = dead
        bisect = not bisect and hi - lo > 0.5 * width
    return 0.5 * (lo + hi)


@dataclass
class PulseBudget:
    """Outcome of a minimum-pulse scan.

    ``required`` is the smallest pulse count meeting the target, or None
    if none does within the budget; the arrays record every count
    examined (0 = free evolution) with its concurrence, so the scan
    doubles as a growth curve.
    """

    required: int | None
    pulse_counts: np.ndarray
    concurrence: np.ndarray


def min_pulses_for_target(target: float, length: float,
                          spectrum: NoiseSpectrum, profile: SpectralProfile,
                          state: TwoQubitXState, *,
                          max_pulses: int = 512) -> PulseBudget:
    """Minimum CPMG pulse count whose concurrence at ``length`` reaches
    ``target``.

    Concurrence is not assumed monotone in the pulse count, so the scan
    walks N = 0, 1, 2, ... upward and stops at the first success, which
    is therefore minimal.  Raises ValueError if the target exceeds the
    initial concurrence (unreachable by a decohering channel).
    """
    if not (0.0 < target <= 1.0):
        raise ValueError(f"target must lie in (0, 1], got {target}")
    if target > concurrence(state):
        raise ValueError(
            f"target {target} exceeds the initial concurrence "
            f"{concurrence(state):.6g}; dephasing cannot increase it")
    if max_pulses < 0:
        raise ValueError("max_pulses must be nonnegative")

    counts, values = [], []
    required = None
    for n in range(max_pulses + 1):
        seq = Free() if n == 0 else CpmgCount(n)
        c = concurrence_at(seq, spectrum, profile, state, length)
        counts.append(n)
        values.append(c)
        if c >= target:
            required = n
            break
    return PulseBudget(required, np.array(counts), np.array(values))
