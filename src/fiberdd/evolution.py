"""Entanglement evolution along the fiber.

Sweep-level machinery tying the lower layers together: attenuation
curves C(L) for a sequence, the sudden-death length where entanglement
hits exactly zero at finite L, and the minimum pulse budget reaching a
concurrence target at a given length.

A curve takes its overlaps from one batched pass over its lengths'
pulse counts (``train_overlaps``), its coherence factors from one array
expression and its concurrences from one array pass over the X-form
spin-flip roots; single-length evaluations (death-length probes, pulse
budgets) run one explicit train (``overlap_from_positions``), reuse the
train the curve cached for that pulse count and get the same bits.
Death lengths are bracketed on a curve and refined by inverse
interpolation of ln L in ln(-ln Gamma), nearly linear within one pulse
count, through the bracket ends and the curve's other values of their
count.  Each probe sits tol/4 past its estimate, so a good estimate and
one more probe close the bracket (2 probes is the floor; about 2.2 on
the ``sweep`` tasks), and is classified by the concurrence itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dephasing import SpectralProfile, coherence_factor, min_length, \
    overlap_from_positions, train_overlaps
from .noise import NoiseSpectrum
from .quadrature import QuadratureError
from .sequences import CpmgCount, Free, is_finite, train
from .states import TwoQubitXState, concurrence, dephased_concurrence, \
    esd_threshold_gamma

# Death lengths are refined to this fraction of length_max; bench/checks.py
# probes +-1e-7 * length_max around the printed length, so the two agree.
DEATH_LENGTH_RTOL = 1e-7


class BestEstimate(float):
    """A value resting on at least one quadrature that did not meet its
    tolerance: the best estimate available, marked so callers can tell
    it from a converged one."""


class SeparableStateError(ValueError):
    """The initial state is not entangled, so it has no death length."""


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
    return train(seq.pulse_count(length), length)


def coherence_at(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                 length: float) -> float:
    """Coherence factor of a sequence at one length; a BestEstimate when
    the overlap quadrature did not converge."""
    try:
        f = overlap_from_positions(sweep_positions(seq, length), spectrum,
                                   length)
    except QuadratureError as exc:
        return BestEstimate(coherence_factor(exc.best_estimate, profile))
    return coherence_factor(f, profile)


def concurrence_at(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                   state: TwoQubitXState, length: float) -> float:
    """Concurrence of the dephased state at one length; a BestEstimate
    when its coherence factor is one."""
    gamma = coherence_at(seq, spectrum, profile, length)
    c = float(dephased_concurrence(state, [gamma])[0])
    return BestEstimate(c) if isinstance(gamma, BestEstimate) else c


def decoherence_curve(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                      state: TwoQubitXState, lengths) -> DecoherenceCurve:
    """Evaluate overlap, coherence factor, and concurrence over lengths.

    Lengths must be positive.  All overlaps come from one
    ``train_overlaps`` pass, the coherence factors from one
    array expression and the concurrences from one array pass over the
    X-form spin-flip roots, each bit for bit what the pointwise route
    gives; quadrature failures are per-point.  A coherence factor that
    underflowed to 0 leaves no coherence, so the pair is separable
    there.
    """
    lengths = np.asarray(lengths, dtype=float)
    if lengths.ndim != 1 or lengths.size == 0:
        raise ValueError("lengths must be a nonempty 1-D array")
    if not (lengths.min() > 0.0 and lengths.max() < np.inf):  # nan fails
        raise ValueError("lengths must be positive and finite")

    return pulse_count_curve([seq.pulse_count(length) for length in lengths],
                             spectrum, profile, state, lengths)


def pulse_count_curve(pulses, spectrum: NoiseSpectrum,
                      profile: SpectralProfile, state: TwoQubitXState,
                      lengths: np.ndarray) -> DecoherenceCurve:
    """``decoherence_curve`` of equally spaced trains given by their pulse
    counts, ``pulses[i]`` at ``lengths[i]``, in one ``train_overlaps``
    pass; each length gets the bits it gets alone."""
    overlaps = train_overlaps(pulses, spectrum, lengths)
    gamma = coherence_factor(overlaps.value, profile)
    conc = dephased_concurrence(state, gamma)
    return DecoherenceCurve(lengths, overlaps.value, gamma, conc,
                            overlaps.converged)


def esd_length(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
               state: TwoQubitXState, length_max: float, *,
               grid_points: int = 200) -> float | None:
    """Smallest length in (0, length_max] where concurrence reaches zero.

    Evaluates a uniform grid as one curve and refines from its first dead
    point (concurrence hits zero exactly at finite length, so the
    predicate is a clean boolean).  Returns None when the state stays
    entangled over the whole grid, and a BestEstimate when the
    refinement used an unconverged quadrature.  The initial state itself
    must be entangled.
    """
    if not (is_finite(length_max) and length_max > 0.0):
        raise ValueError(f"length_max must be positive, got {length_max}")
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    grid = np.linspace(0.0, length_max, grid_points + 1)[1:]
    curve = decoherence_curve(seq, spectrum, profile, state, grid)
    return curve_death_length(seq, spectrum, profile, state, curve,
                              tol=DEATH_LENGTH_RTOL * length_max)


def curve_death_length(seq, spectrum: NoiseSpectrum,
                       profile: SpectralProfile, state: TwoQubitXState,
                       curve: DecoherenceCurve, *,
                       tol: float) -> float | None:
    """Death length refined from a curve's first dead point, or None.

    The bracket runs from the grid point before it.  When the first
    point is already dead, it runs from a billionth of the first length
    instead, walked down by further factors of a billion while that is
    dead too, never below ``min_length(spectrum)``.  A state dead even
    there dies between 0, alive by its own concurrence, and that length,
    and gets the midpoint.  The refinement starts from the curve's
    coherence factors at up to three grid points on each side of the
    crossing, bracket ends included, the others only when they share the
    pulse count of both ends (``CpmgDensity`` Gamma jumps where the count
    changes), and from the walk's values at its ends.  A BestEstimate
    comes back when a value it used did not converge.  A state that is
    separable to begin with raises SeparableStateError.
    """
    if concurrence(state) <= 0.0:
        raise SeparableStateError(
            "initial state is separable; no death length exists")
    dead = np.flatnonzero(curve.concurrence == 0.0)
    if dead.size == 0:
        return None
    i = int(dead[0])
    lengths = curve.lengths
    if i > 0:
        lo, hi, known = lengths[i - 1], lengths[i], []
    else:
        lo, hi, known = _alive_below(seq, spectrum, profile, state,
                                     lengths[0])
        if lo == 0.0:
            mid = 0.5 * hi
            return BestEstimate(mid) if isinstance(known[0][1],
                                                   BestEstimate) else mid
    if hi == lengths[i]:
        count = seq.pulse_count(lo)
        if seq.pulse_count(hi) != count:
            count = None  # Gamma may jump inside the bracket: ends only
        known = [(lengths[j], curve.gamma[j] if curve.converged[j]
                  else BestEstimate(curve.gamma[j]))
                 for j in range(max(i - 3, 0), min(i + 3, lengths.size))
                 if j in (i - 1, i)
                 or seq.pulse_count(lengths[j]) == count] + known
    return refine_esd(seq, spectrum, profile, state, lo, hi, tol=tol,
                      known=known)


def _alive_below(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
                 state: TwoQubitXState, dead_length: float):
    """An alive length below ``dead_length``, walking down from it by
    factors of a billion, and the dead length above it, with the
    (length, Gamma) pairs evaluated there; 0 as the alive length when
    the state is dead even at the floor, ``min_length(spectrum)``."""
    floor = min_length(spectrum)
    hi, lo, known = dead_length, max(dead_length * 1e-9, floor), []
    while True:
        gamma, dead = _probe(seq, spectrum, profile, state, lo)
        if not dead:
            return lo, hi, known + [(lo, gamma)]
        if lo == floor:
            return 0.0, lo, [(lo, gamma)]
        hi, lo, known = lo, max(lo * 1e-9, floor), [(lo, gamma)]


def _probe(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
           state: TwoQubitXState, length: float):
    """Gamma at one length, and whether the state is dead there (C == 0)."""
    gamma = coherence_at(seq, spectrum, profile, length)
    return gamma, dephased_concurrence(state, [gamma])[0] == 0.0


def refine_esd(seq, spectrum: NoiseSpectrum, profile: SpectralProfile,
               state: TwoQubitXState, alive_length: float,
               dead_length: float, *, tol: float, known=()) -> float:
    """Narrow a bracket (alive_length, dead_length] down to the death point.

    Each probe is classified by the concurrence predicate (C == 0 is
    dead), so the bracket always runs from an evaluated alive length to
    an evaluated dead one.  ``known`` holds (length, Gamma) pairs already
    evaluated on the same smooth stretch of Gamma: bracket ends found
    there are not evaluated again.  An alive end that its probe finds
    dead raises ValueError.

    A probe is proposed by inverse interpolation: ln L as a polynomial in
    h = ln(-ln Gamma*) - ln(-ln Gamma), Gamma* = ``esd_threshold_gamma``,
    through the bracket ends and up to four more evaluated points of
    their pulse count (``known`` and earlier probes), those nearest the
    ends' secant estimate first, evaluated at h = 0.  Within one pulse
    count f = (A/pi) L^(1+alpha) B(L) with B slowly varying, so h is
    nearly linear in ln L.  Where Gamma* lies outside (0, 1), or Gamma
    at an end is 0 or 1, the same interpolation runs on L against
    Gamma - Gamma*.  An estimate outside the bracket gives way to the
    ends' secant.  The probe sits tol/4 past its estimate, away from the
    nearer end, and at least tol/2 inside the bracket, so an estimate
    good to tol/4 lets the next probe close the bracket.  The first two
    probes interpolate; after them a probe interpolates only while the
    bracket has halved once per two probes so far, and bisects
    otherwise, as it does whenever the ends' Gamma - Gamma* do not
    change sign: no bracket takes more than twice the probes of
    bisection.  Stops at hi - lo <= tol and returns the midpoint, as a
    BestEstimate when any value used did not converge.  Assumes a
    single alive-to-dead transition inside the bracket, which holds
    whenever the coherence factor is monotone there.
    """
    if not 0.0 < alive_length < dead_length:
        raise ValueError("need 0 < alive_length < dead_length")
    threshold = esd_threshold_gamma(state)
    points = {float(length): gamma for length, gamma in known}
    lo, hi = alive_length, dead_length
    if lo not in points:
        points[lo], dead = _probe(seq, spectrum, profile, state, lo)
        if dead:
            raise ValueError(f"alive_length {lo} is dead: concurrence 0")
    if hi not in points:
        points[hi] = _probe(seq, spectrum, profile, state, hi)[0]
    width, probes = hi - lo, 0
    while hi - lo > tol:
        if points[lo] - threshold > 0.0 >= points[hi] - threshold and (
                probes < 2
                or (hi - lo) * 2.0 ** math.ceil(probes / 2) <= width):
            x = _interpolate(seq, points, lo, hi, threshold)
            x += 0.25 * tol if x - lo < hi - x else -0.25 * tol
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        else:
            x = 0.5 * (lo + hi)
        points[x], dead = _probe(seq, spectrum, profile, state, x)
        probes += 1
        if dead:
            hi = x
        else:
            lo = x
    mid = 0.5 * (lo + hi)
    if any(isinstance(gamma, BestEstimate) for gamma in points.values()):
        return BestEstimate(mid)
    return mid


def _interpolate(seq, points: dict, lo: float, hi: float,
                 threshold: float) -> float:
    """The length in (lo, hi) at which Gamma meets ``threshold``, by
    inverse interpolation through the ends and up to four more of the
    (length, Gamma) ``points`` (see ``refine_esd``); the ends' secant
    when the polynomial's root leaves the bracket."""
    logs = 0.0 < threshold < 1.0 and 0.0 < points[hi] and points[lo] < 1.0
    level = math.log(-math.log(threshold)) if logs else 0.0

    def coords(length):
        gamma = points[length]
        if logs:
            return level - math.log(-math.log(gamma)), math.log(length)
        return gamma - threshold, length

    (y_lo, t_lo), (y_hi, t_hi) = fit = [coords(lo), coords(hi)]
    if not y_lo > y_hi:  # the logs rounded the ends together
        return 0.5 * (lo + hi)
    secant = t_lo + (t_hi - t_lo) * y_lo / (y_lo - y_hi)
    count = seq.pulse_count(lo)
    if count == seq.pulse_count(hi):  # else Gamma may jump: ends only
        near = math.exp(secant) if logs else secant
        others = sorted((length for length, gamma in points.items()
                         if length not in (lo, hi)
                         and (not logs or 0.0 < gamma < 1.0)
                         and seq.pulse_count(length) == count),
                        key=lambda length: abs(length - near))
        for length in others[:4]:
            y, t = coords(length)
            if all(y != y_fit for y_fit, _ in fit):
                fit.append((y, t))
    t = _root(fit)
    if not t_lo < t < t_hi:
        t = secant
    return math.exp(t) if logs else t


def _root(points) -> float:
    """The value at y = 0 of the polynomial in y through the (y, t)
    ``points`` (distinct y), by Neville's scheme."""
    ys = [y for y, _ in points]
    ts = [t for _, t in points]
    for k in range(1, len(ys)):
        for i in range(len(ys) - k):
            ts[i] = (ys[i + k] * ts[i] - ys[i] * ts[i + 1]) / (
                ys[i + k] - ys[i])
    return ts[0]


@dataclass
class PulseBudget:
    """Outcome of a minimum-pulse scan.

    ``required`` is the smallest pulse count meeting the target, or None
    if none does within the budget; the arrays record every count
    examined (0 = free evolution) with its concurrence, so the scan
    doubles as a growth curve, and whether that concurrence's quadrature
    converged (false for a best estimate).
    """

    required: int | None
    pulse_counts: np.ndarray
    concurrence: np.ndarray
    converged: np.ndarray


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

    values = []
    required = None
    for n in range(max_pulses + 1):
        seq = Free() if n == 0 else CpmgCount(n)
        values.append(concurrence_at(seq, spectrum, profile, state, length))
        if values[-1] >= target:
            required = n
            break
    return PulseBudget(required, np.arange(len(values)), np.array(values),
                       np.array([not isinstance(c, BestEstimate)
                                 for c in values]))
