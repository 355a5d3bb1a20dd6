"""From noise spectrum to coherence: overlap integral and attenuation factor.

The dephasing a photon pair accumulates over length L condenses into a
single overlap integral between the noise spectrum and the sequence's
filter function,

    f(L) = (1/pi) * int_ir^uv S(w) F(w) / w^2 dw

(the symmetric-band integral folded onto the positive half).  With the
segment boundaries b = (0, l_1, ..., l_N, L) and boundary weights
u = (-1, +-2, ..., (-1)^N), which sum to zero, the filter is the pair sum

    F(w) = -sum_{j<k} u_j u_k * 2 sin^2(w d_jk / 2),   d_jk = |b_j - b_k|,

so for S = A w^-alpha every pair contributes a self-similar tail
integral K(x) = int_x^inf t^-(2+alpha) (1 - cos t) dt.  The band is
split at w_c = min(uv, max(ir, pi / g_min)), g_min the shortest segment:

- below w_c the pair terms cancel each other (F is far smaller than the
  terms it sums, and K diverges at small x for alpha > 1), so [ir, w_c]
  runs the adaptive Gauss-Kronrod quadrature on the segment-factored
  ``segment_filter``;
- above w_c every pair argument w d_jk is at least pi, where the
  non-oscillating parts of all pair terms add with one sign, so
  [w_c, uv] is the closed form
  -sum_{j<k} u_j u_k d_jk^(1+alpha) [K(w_c d_jk) - K(uv d_jk)].

Every train here is equally spaced, with boundaries L*bh for fixed
bh = b/L, so its filter depends on x = w L alone: F(w) = Fh(w L), the
filter of the unit-length train (Cywinski et al., PRB 77, 174509
(2008)).  In x,

    f(L) = (A/pi) L^(1+alpha) [int_{ir L}^{x_c} x^-(2+alpha) Fh(x) dx
                               + P(x_c) - P(uv L)],
    P(x) = -sum_{j<k} u_j u_k dh_jk^(1+alpha) K(x dh_jk),

with dh = d/L, x_c = w_c L = min(uv L, max(ir L, X)) and X = pi/gh_min
(pi for free evolution, 2 pi N for CPMG).  Neither the x integrand nor
P(X) depends on L, so each (pulse count, exponent) keeps one low band
in a bounded cache: a grid anchored at X, with uniform panels no wider
than pi (half the shortest period of Fh) down to min(X, 4 pi) and
geometric ones by EDGE_RATIO below, extended downward when a call asks;
each panel's Gauss-Kronrod value and error with their running sums
from the top; and P(X).  One length then costs a searchsorted for
ir L, one partial panel [ir L, next grid point] and P(uv L).  Where
uv L <= X there are no pair terms and the length integrates [ir L, uv L]
on the grid points inside it, to integrate_panels' own 1e-8 abs +
1e-8 rel in w; where ir L >= X there is no low band and the pair terms
are P(ir L) - P(uv L).  An explicit train that is not ``train(N, L)``
builds an uncached low band from its own boundaries by the same code.

The depth rule certifies every length's low band.  Grid panel j,
counted from the top from 0, gets the error share 1e-8 (S_j + v_j) /
((j+1)(j+2)), with v_j its first-pass value and S_j the first-pass
values of the panels above it, summed.  A length with k whole panels
above ir L gives its partial panel the rest, 1e-8 (S + v) / (k + 1)
with S the sum of those k panels.  Grid and partial panels follow one
rule: one ``gauss_kronrod`` pass over all panels of a call at once,
then ``integrate_panels`` refines only the panels whose error misses
their share, to that share.  The shares add up to 1 and the integrand
is nonnegative, so S_j + v_j is a lower bound on the low band of every
length that uses panel j, and each length meets 1e-8 relative in x,
hence after the L^(1+alpha) scale the 1e-8 abs + 1e-8 rel that the low
band met in w before.  A rule relative to each panel's own value would
not do: rounding noise in ``segment_filter`` at x near 1e-8 keeps deep
panels above any tolerance of that kind.  A grid panel that misses its
share even after refinement is never kept; every call that needs it
evaluates it again and flags its lengths unconverged.

Cost: each (N, alpha) pays about 2N + log(X / (ir L_min)) /
log(EDGE_RATIO) panels once, shared by the lengths of a curve and by
its death-length probes, and each length adds one partial panel and its
(N+2)(N+1)/2 pair terms, with K evaluated only at the ~2N distinct
separations.  The error estimate is the low-band Gauss-Kronrod estimate
plus a rounding bound of 64 machine epsilons times the summed
magnitudes of the pair terms.

``train_overlaps`` evaluates many lengths at once from their pulse
counts and ``overlap_from_positions`` one explicit train, by the same
code.  Every sum over one length's terms runs in a fixed order, and the
panel sums run from the top in one order however deep the cache has
grown, so a length's result depends neither on the rest of its batch
nor on what the cache held before, bit for bit.

Averaging the random phase over the Gaussian noise *and* over the
photon's optical bandwidth gives the coherence factor

    Gamma = exp(-w0^2 f / (1 + s^2 f)) / sqrt(1 + s^2 f),

where w0 is the mean optical frequency and the frequency intensity
profile is Gaussian with variance s^2 / 2.  Gamma multiplies the
traveling-photon coherences of the two-qubit state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .filters import check_positions, segment_filter
from .noise import NoiseSpectrum
from .quadrature import EDGE_RATIO, Bands, QuadratureError, gauss_kronrod, \
    integrate_panels
from .sequences import train

# K(x) is summed as a power series below _TAIL_X0 and as a
# contour-rotated Laplace integral (Gauss-Laguerre) above it; these
# sizes keep K within a few 1e-14 relative over exponents [0, 2].
_TAIL_X0 = 4.0
_TAIL_SERIES_TERMS = 24
_LAGUERRE_NODES = 60
# Arguments per K evaluation pass, bounding its (arguments x nodes) arrays.
_TAIL_CHUNK = 2048
# Pair terms per pass of the pair sums, bounding their (x, pair) arrays.
_PAIR_WORK = 65_536
# Relative tolerance of every length's low band (see the depth rule).
_LOW_TOL = 1e-8
# Smallest low-band limit x = ir L: x^-4, the steepest spectral power,
# is finite from here up.
X_MIN = float(np.finfo(float).max) ** -0.25
# Largest float: f carries the factor L^(1+alpha) and the pair sums take
# uv L, so both must stay at or below it.
_FLOAT_MAX = float(np.finfo(float).max)
# Rounding bound on the pair sum, relative to its summed term magnitudes.
_PAIR_ROUNDING = 64.0 * float(np.finfo(float).eps)


@dataclass(frozen=True)
class SpectralProfile:
    """Optical frequency profile of the traveling photon.

    Gaussian intensity profile with mean ``omega0`` and variance
    ``sigma**2 / 2`` (the convention under which the closed-form
    attenuation above holds; ``sigma = 0`` is the monochromatic limit).
    """

    omega0: float
    sigma: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (np.isfinite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # coherence_factor squares both; a float product overflows to inf
        # where the power operator would raise OverflowError.
        for name, value in (("omega0", self.omega0), ("sigma", self.sigma)):
            if not np.isfinite(value * value):
                raise ValueError(
                    f"{name} = {value} is too large: its square overflows")


@cache
def _laguerre_rule():
    """Gauss-Laguerre nodes and weights, built on first use.

    Nodes whose weight is below 1e-18 of the largest change no sum in
    double precision (the rotated integrand is bounded by its value at
    s = 0) and are dropped.
    """
    s, w = np.polynomial.laguerre.laggauss(_LAGUERRE_NODES)
    keep = w > 1e-18 * w.max()
    return s[keep], w[keep]


def _tail_rotated(x: np.ndarray, p: float) -> np.ndarray:
    """K(x) for x >= _TAIL_X0 with p = 2 + alpha.

    K(x) = x^(1-p)/(p-1) - Re int_x^inf t^-p e^{it} dt, and rotating the
    contour to t = x + is turns the oscillating part into
    Re[i e^{ix} int_0^inf (x + is)^-p e^{-s} ds], a smooth Laplace
    integral with (x + is)^-p = |x + is|^-p e^{-i p atan(s/x)}.
    """
    s, w = _laguerre_rule()
    xs = x[:, None]
    mag = w * (xs * xs + s * s) ** (-0.5 * p)
    angle = p * np.arctan2(s, xs)
    re = (mag * np.cos(angle)).sum(axis=1)
    im = (mag * np.sin(angle)).sum(axis=1)
    return x ** (1.0 - p) / (p - 1.0) + np.sin(x) * re - np.cos(x) * im


def _frozen(*arrays):
    """The arrays made read-only, for caches that hand them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _series_terms(p: float):
    """Coefficients and exponents of the _tail_series terms for one p."""
    n = np.arange(1, _TAIL_SERIES_TERMS + 1)
    e = 2 * n + 1 - p
    return _frozen(np.cumprod(-1.0 / ((2 * n - 1) * (2 * n))), e, e > 0.0,
                   e < 0.0)


@lru_cache(maxsize=64)
def _tail_at_x0(p: float) -> float:
    """K(_TAIL_X0) for p = 2 + alpha, where the series takes over."""
    return float(_tail_rotated(np.array([_TAIL_X0]), p)[0])


def _tail_series(x: np.ndarray, p: float) -> np.ndarray:
    """int_x^X0 t^-p (1 - cos t) dt by the power series of 1 - cos t.

    Term n integrates t^e with e = 2n + 1 - p, as (X0^e - x^e)/e written
    through expm1 so it stays accurate for e near 0 (log case at e = 0)
    and never forms an overflowing power for large |e ln(X0/x)|.
    """
    coef, e, up, down = _series_terms(p)
    ell = np.log(_TAIL_X0 / x)[:, None]
    terms = np.empty((x.size, e.size))
    terms[:, up] = _TAIL_X0 ** e[up] * -np.expm1(-e[up] * ell) / e[up]
    terms[:, down] = (x[:, None] ** e[down] * np.expm1(e[down] * ell)
                      / e[down])
    terms[:, e == 0.0] = ell
    return -(terms * coef).sum(axis=1)


def _chunked(fn, x: np.ndarray, p: float) -> np.ndarray:
    """fn(x, p) in slices of _TAIL_CHUNK arguments, bounding the
    (arguments x terms) workspace; fn works row by row, so slicing
    changes no value."""
    if x.size <= _TAIL_CHUNK:
        return fn(x, p)
    return np.concatenate([fn(x[i:i + _TAIL_CHUNK], p)
                           for i in range(0, x.size, _TAIL_CHUNK)])


def _tail(x: np.ndarray, alpha: float) -> np.ndarray:
    """K(x) = int_x^inf t^-(2+alpha) (1 - cos t) dt for x > 0, each value
    a function of its own argument only."""
    p = 2.0 + alpha
    far = x >= _TAIL_X0
    out = np.empty_like(x)
    out[far] = _chunked(_tail_rotated, x[far], p)
    near = ~far
    if near.any():
        out[near] = _tail_at_x0(p) + _chunked(_tail_series, x[near], p)
    return out


@lru_cache(maxsize=64)
def max_length(spectrum: NoiseSpectrum) -> float:
    """The longest length whose overlap integral is computed: at and
    below it, uv_cutoff * length and length^(1+alpha) stay finite.  It
    lies 1e-12 relative below where the first of them overflows, far
    more than the rounding of the roots here (the exponent 1/(1+alpha)
    is rounded, and the largest float is e^709.8)."""
    return min(_FLOAT_MAX ** (1.0 / (1.0 + spectrum.exponent)),
               _FLOAT_MAX / spectrum.uv_cutoff) * (1.0 - 1e-12)


@lru_cache(maxsize=64)
def _pair_pattern(size: int):
    """Pair indices j < k of ``size`` boundaries and the products
    -u_j u_k of their weights u = (-1, +-2, ..., (-1)^N)."""
    signs = np.where(np.arange(size - 1) % 2, -1.0, 1.0)
    weights = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
    j, k = np.triu_indices(size, 1)
    return _frozen(j, k, -weights[j] * weights[k])


def _pair_terms(bounds: np.ndarray, alpha: float):
    """The pairs j < k of boundaries ``bounds``: their distinct
    separations d, each pair's index into them and c_jk d_jk^(1+alpha)."""
    j, k, coef = _pair_pattern(bounds.size)
    d = bounds[k] - bounds[j]
    distinct, inverse = np.unique(d, return_inverse=True)
    return distinct, inverse, coef * d ** (1.0 + alpha)


def _pair_halves(jobs, alpha: float):
    """P(x) = sum_{j<k} c_jk d_jk^(1+alpha) K(x d_jk) for each x, and the
    summed magnitudes of its terms, for (``_pair_terms``, x) jobs.

    One _tail call serves every job, evaluated once per distinct
    separation and x (an equally spaced train repeats its separations).
    Each x's terms are summed along its own row in pair order, about
    _PAIR_WORK terms per pass, so a value depends on its own x only.
    """
    if not jobs:
        return []
    args = [(x[:, None] * distinct).ravel() for (distinct, _, _), x in jobs]
    tails = _tail(np.concatenate(args), alpha)
    out = []
    end = 0
    for (distinct, inverse, weights), x in jobs:
        tail = tails[end:(end := end + x.size * distinct.size)].reshape(
            x.size, distinct.size)
        sums = np.empty(x.size)
        magnitudes = np.empty(x.size)
        step = max(1, _PAIR_WORK // weights.size)
        for i in range(0, x.size, step):
            # C order, so that each row sum below is the pairwise sum a
            # lone x gets (fancy indexing may hand back another layout)
            terms = np.ascontiguousarray(weights * tail[i:i + step, inverse])
            sums[i:i + step] = terms.sum(axis=1)
            magnitudes[i:i + step] = np.abs(terms).sum(axis=1)
        out.append((sums, magnitudes))
    return out


class _LowBand:
    """The low band of one train at one exponent, in x = w L.

    ``bounds`` are the train's boundaries in units of its length.  The
    grid runs down from top = pi / (shortest gap): uniform panels no
    wider than pi down to min(top, 4 pi), then geometric by EDGE_RATIO,
    as deep as a call asks.  Panels that meet the depth rule (module
    docstring) are kept from the top down, with the first-pass sum that
    sets the tolerance of the panels below them; a kept panel never
    changes.  ``pairs`` are the train's ``_pair_terms`` and ``top_pairs``
    is P(top) with its term magnitudes, once a call has needed it.
    """

    def __init__(self, bounds: np.ndarray, alpha: float):
        gaps = np.diff(bounds)
        self.alpha = alpha
        self.gaps = gaps[:, None]
        self.mids = (0.5 * (bounds[:-1] + bounds[1:]))[:, None]
        self.top = np.pi / gaps.min()
        self.knee = min(self.top, 4.0 * np.pi)
        self.uniform = math.ceil((self.top - self.knee) / np.pi)
        self.pairs = _pair_terms(bounds, alpha)
        self.top_pairs = None  # set by the first call that needs it
        # The kept panels, replaced as one tuple so that a reader never
        # mixes two extensions: their edges from the top down; the sums
        # of the values, errors and panel counts of the top k of them,
        # k = 0, 1, ...; their first-pass values summed; and the grid
        # point after the last of them (top until a call has asked, as
        # every x a call asks about lies below top).
        self.kept = (np.array([self.top]),
                     (np.zeros(1), np.zeros(1), np.zeros(1, np.intp)), 0.0,
                     self.top)

    def _grid(self, start: int, stop: int) -> np.ndarray:
        """Grid points start, ..., stop - 1 (start >= 1), counted down from
        the top."""
        deep = np.arange(start - self.uniform, stop - self.uniform)
        return np.where(
            deep > 0, self.knee / EDGE_RATIO ** np.maximum(deep, 0),
            self.knee + (self.top - self.knee) * (-deep / max(self.uniform,
                                                              1)))

    def points_to(self, start: int, x: float) -> np.ndarray:
        """Grid points from index ``start`` (at least 1) down to the first
        one at or below x, which ends the array."""
        stop = max(start, self.uniform) + 2 + max(0, math.ceil(
            math.log(self.knee / x) / math.log(EDGE_RATIO)))
        points = self._grid(start, stop)
        while not points[-1] <= x:  # the log above rounded short
            points = self._grid(start, stop := stop + 4)
        return points[:np.argmax(points <= x) + 1]

    def integrand(self, points) -> np.ndarray:
        x = points["x"]
        return segment_filter(self.gaps, self.mids, x) * x ** -(
            self.alpha + 2.0)

    def panels(self, x: float):
        """The grid panels wholly above x, 0 < x < top: their edges from
        the top down, then the sums of the values, errors and quadrature
        panel counts of the first k panels and whether all of them met
        the depth rule, for k = 0, 1, ...  A panel that did not, and every
        panel below it, is evaluated again by the next call that needs
        it."""
        kept_edges, kept_sums, first, below = self.kept
        kept = kept_edges.size - 1
        if below <= x:
            return kept_edges, *kept_sums, np.ones(kept + 1, bool)
        points = self.points_to(kept + 1, x)
        edges = np.concatenate((kept_edges, points[:-1]))
        lefts, rights = edges[kept + 1:], edges[kept:-1]
        values, errors = gauss_kronrod(self.integrand, lefts, rights, 0)
        depth = np.arange(kept, kept + values.size)
        share = _LOW_TOL / ((depth + 1.0) * (depth + 2.0))
        running = np.cumsum(np.concatenate(([first], values)))
        certified = errors <= share * running[1:]
        counts = np.ones(values.size, np.intp)
        redo = np.flatnonzero(~certified)
        if redo.size:
            res = integrate_panels(
                self.integrand,
                Bands(np.column_stack((lefts[redo], rights[redo])).ravel(),
                      np.full(redo.size, 2)),
                grouped=True, atol=share[redo] * running[redo],
                rtol=share[redo])
            values[redo] = res.values
            errors[redo] = res.errors
            counts[redo] = res.group_panels
            certified[redo] = res.converged
        # running sums from the top, continued one panel at a time, so
        # that extending them never changes an earlier sum
        sums = [np.concatenate((total, np.cumsum(np.concatenate(
            (total[-1:], new)))[1:]))
                for total, new in zip(kept_sums, (values, errors, counts))]
        good = certified.size if certified.all() else int(certified.argmin())
        self.kept = (edges[:kept + good + 1],
                     tuple(total[:kept + good + 1] for total in sums),
                     running[good], points[good])
        return edges, *sums, np.logical_and.accumulate(
            np.concatenate((np.ones(kept + 1, bool), certified)))


@lru_cache(maxsize=64)
def _low_band(n_pulses: int, alpha: float) -> _LowBand:
    """The shared _LowBand of the ``train`` of n_pulses at one exponent;
    the cache hands the same growing object to every caller."""
    bounds = np.concatenate(([0.0], train(n_pulses, 1.0), [1.0]))
    return _LowBand(bounds, alpha)


class Overlaps(NamedTuple):
    """Per-length overlap integrals of one batch.

    ``value`` and ``error`` are f and its error estimate; a length whose
    low-band quadrature did not converge keeps its best estimate and a
    false ``converged`` flag.  ``panels`` counts low-band panels.
    """

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    panels: np.ndarray


def train_overlaps(pulses, spectrum: NoiseSpectrum, lengths) -> Overlaps:
    """Overlap integrals of equally spaced trains at many lengths at once.

    ``pulses[i]`` is the pulse count at ``lengths[i]`` (0 for free
    evolution).  Every length of one count uses that count's cached
    low band at the spectrum's exponent, and its pair sums (see the
    module docstring).  Both are computed for unit amplitude, so the
    refinement path never depends on the amplitude and f stays exactly
    proportional to it.  A length's result does not depend on the other
    lengths of the batch, nor on what the cache held before, bit for
    bit.  The first length that is not positive and finite, or whose
    train it rounds together (subnormal lengths), raises the ValueError
    of ``filters.check_positions``; so does, with its own message, a
    nonzero amplitude where ir_cutoff * length is below X_MIN or the
    length is above ``max_length(spectrum)``.
    """
    lengths = np.asarray(lengths, dtype=float)
    pulses = np.asarray(pulses)
    if lengths.ndim != 1 or pulses.shape != lengths.shape:
        raise ValueError("need one pulse count per length")
    if pulses.size and not (pulses.dtype.kind in "iu" and pulses.min() >= 0):
        raise ValueError("pulse counts must be nonnegative integers")
    bad = ~(np.isfinite(lengths) & (lengths > 0.0))
    groups = []
    with np.errstate(invalid="ignore"):  # inf - inf gaps of infinite lengths
        for n in np.unique(pulses).tolist():
            rows = np.flatnonzero(pulses == n)
            bounds = np.concatenate((np.zeros((rows.size, 1)),
                                     train(n, lengths[rows]),
                                     lengths[rows, None]), axis=1)
            bad[rows] |= ~(np.diff(bounds, axis=1) > 0.0).all(axis=1)
            groups.append((rows, n))
    if bad.any():
        i = np.flatnonzero(bad)[0]
        check_positions(train(pulses[i], lengths[i]), lengths[i])
    return _overlaps(groups, spectrum, lengths)


def _overlaps(groups, spectrum: NoiseSpectrum, lengths) -> Overlaps:
    """Overlaps of checked trains.  ``groups`` pairs row indices with the
    pulse count of their ``train`` or with explicit boundaries in units
    of the length."""
    count = lengths.size
    if spectrum.amplitude == 0.0 or count == 0:
        return Overlaps(np.zeros(count), np.zeros(count),
                        np.ones(count, dtype=bool), np.zeros(count, np.intp))
    low, low_err, converged, panels, high, rounding = _unit_parts(
        groups, spectrum, lengths)
    scale = spectrum.amplitude / np.pi
    stretch = lengths ** (1.0 + spectrum.exponent)
    return Overlaps(scale * (stretch * (low + high)),
                    scale * (stretch * (low_err + rounding)), converged,
                    panels)


def _unit_parts(groups, spectrum: NoiseSpectrum, lengths):
    """Per length, in x units at unit amplitude: the low band and its
    error, whether it converged and its panel count, then the pair sums
    and their rounding bound."""
    alpha = spectrum.exponent
    lo = spectrum.ir_cutoff * lengths
    hi = spectrum.uv_cutoff * lengths
    if lo.min() < X_MIN:
        raise ValueError(
            f"ir_cutoff * length = {lo.min()} is below {X_MIN}, where the "
            f"low-band integrand x^-(2+alpha) overflows")
    if lengths.max() > (limit := max_length(spectrum)):
        raise ValueError(
            f"length = {lengths.max()} is above {limit}, where uv_cutoff * "
            f"length or length^(1+alpha) overflows")
    bands = [_low_band(key, alpha) if isinstance(key, int)
             else _LowBand(key, alpha) for _, key in groups]
    rows = [rows for rows, _ in groups]
    return (*_low_parts(rows, bands, lo, hi, lengths ** -(1.0 + alpha),
                        alpha), *_pair_parts(rows, bands, lo, hi, alpha))


def _pair_parts(groups, bands, lo, hi, alpha: float):
    """P(x_c) - P(b) and its rounding bound per length, with a = lo,
    b = hi and x_c = max(a, top) where top < b (0 elsewhere).

    One _pair_halves job per band: P(b), then P(a) where a >= top, then
    P(top) if no call has needed it before.
    """
    high = np.zeros(lo.size)
    rounding = np.zeros(lo.size)
    jobs, rows = [], []
    for r, band in zip(groups, bands):
        r = r[band.top < hi[r]]
        if r.size:
            over = lo[r] >= band.top
            x = [hi[r], lo[r][over]]
            if band.top_pairs is None:
                x.append([band.top])
            jobs.append((band.pairs, np.concatenate(x)))
            rows.append((r, over, band))
    for (r, over, band), (sums, mags) in zip(rows,
                                             _pair_halves(jobs, alpha)):
        if band.top_pairs is None:
            band.top_pairs = (sums[-1], mags[-1])
        top = np.full(r.size, band.top_pairs[0])
        top_mags = np.full(r.size, band.top_pairs[1])
        top[over] = sums[r.size:r.size + over.sum()]
        top_mags[over] = mags[r.size:r.size + over.sum()]
        high[r] = top - sums[:r.size]
        rounding[r] = _PAIR_ROUNDING * (top_mags + mags[:r.size])
    return high, rounding


def _low_parts(groups, bands, lo, hi, scale, alpha: float):
    """The low band [a, min(b, top)] per length, a = lo < top, b = hi:
    its value, error, convergence and panel count (0 and converged
    elsewhere).

    Where top < b, the band's cached panels above a plus one partial
    panel [a, next grid point], which gets the share of the depth rule
    left below them.  The partial panels of the whole batch take one
    ``gauss_kronrod`` pass; only those whose error misses that share go
    on to ``integrate_panels``, which evaluates them again and refines
    them to it.  Where b <= top, the band's grid points inside [a, b] go
    to ``integrate_panels`` to the absolute-plus-relative tolerance 1e-8
    (``scale``, L^-(1+alpha), takes the absolute part from w to x units).
    """
    low = np.zeros(lo.size)
    error = np.zeros(lo.size)
    converged = np.ones(lo.size, dtype=bool)
    panels = np.zeros(lo.size, np.intp)
    split, whole = [], []
    for column, (r, band) in enumerate(zip(groups, bands)):
        rows = r[(lo[r] < band.top) & (band.top < hi[r])]
        if rows.size:
            x = lo[rows]
            grid, *sums, certified = band.panels(x.min())
            k = np.searchsorted(-grid[1:], -x)
            split.append((rows, np.full(rows.size, column), x, grid[k],
                          k + 1.0, *(s[k] for s in sums), certified[k]))
        for i in r[hi[r] <= band.top]:
            inner = band.points_to(1, lo[i])[:-1]
            whole.append((i, column, np.concatenate(
                ([lo[i]], inner[inner < hi[i]][::-1], [hi[i]])),
                _LOW_TOL * scale[i], _LOW_TOL))
    if not (split or whole):
        return low, error, converged, panels

    if len(bands) == 1:
        gaps, mids = bands[0].gaps, bands[0].mids
    else:
        segments = max(band.gaps.shape[0] for band in bands)
        gaps = np.zeros((segments, len(bands)))
        mids = np.zeros((segments, len(bands)))
        for c, band in enumerate(bands):
            gaps[:band.gaps.shape[0], c] = band.gaps[:, 0]
            mids[:band.mids.shape[0], c] = band.mids[:, 0]
    power = -(alpha + 2.0)

    def integrand(columns):
        """The integrand at GROUPED_POINT records whose group g lies in
        band columns[g]."""
        def fn(points):
            x = points["x"]
            return segment_filter(
                gaps, mids, x,
                None if len(bands) == 1 else columns[points["group"]]) \
                * x ** power
        return fn

    if split:
        # the cached panels above each partial panel: their value, error,
        # panel count and certification
        rows, columns, lefts, rights, depth, above, above_error, counts, \
            certified = split[0] if len(split) == 1 else (
                np.concatenate(part) for part in zip(*split))
        atol = _LOW_TOL * above / depth
        rtol = _LOW_TOL / depth
        values, errors = gauss_kronrod(integrand(columns), lefts, rights,
                                       np.arange(rows.size)[:, None])
        hit = errors <= atol + rtol * np.abs(values)
        low[rows] = np.where(hit, above + values, above)
        error[rows] = np.where(hit, above_error + errors, above_error)
        panels[rows] = counts + hit
        converged[rows] = certified
        whole += [(rows[j], columns[j], np.array([lefts[j], rights[j]]),
                   atol[j], rtol[j]) for j in np.flatnonzero(~hit)]
    if whole:
        rows, columns, edges, atol, rtol = zip(*whole)
        res = integrate_panels(
            integrand(np.array(columns, np.intp)),
            Bands(np.concatenate(edges),
                  np.array([e.size for e in edges], np.intp)),
            grouped=True, atol=np.array(atol), rtol=np.array(rtol))
        rows = np.array(rows, np.intp)
        low[rows] += res.values
        error[rows] += res.errors
        panels[rows] += res.group_panels
        converged[rows] &= res.converged
    return low, error, converged, panels


def overlap_from_positions(positions, spectrum: NoiseSpectrum, length: float,
                           *, with_error: bool = False):
    """Overlap integral for explicit pulse positions, checked by
    ``filters.check_positions``: the core of ``train_overlaps`` on one
    length.  Positions equal to ``train(N, length)`` use the cached low
    band of that count, so they get the bits its ``train_overlaps`` row
    gets; any other train builds its own from its boundaries in units of
    the length.

    Returns f, or (f, error_estimate) when ``with_error`` is set.
    Raises QuadratureError (best estimate of the whole band attached)
    when the low-band quadrature does not converge.
    """
    positions = check_positions(positions, length)
    lengths = np.array([length], dtype=float)
    key = positions.size
    if not np.array_equal(positions, train(key, length)):
        key = np.concatenate(([0.0], positions, [length])) / length
    res = _overlaps([(np.zeros(1, np.intp), key)], spectrum, lengths)
    value, error = float(res.value[0]), float(res.error[0])
    if not res.converged[0]:
        raise QuadratureError(
            f"overlap integral at length {length}: low band not converged "
            f"after {int(res.panels[0])} panels (error {error:.3e})",
            value, error, int(res.panels[0]))
    return (value, error) if with_error else value


def overlap_integral(seq, spectrum: NoiseSpectrum, length: float,
                     *, with_error: bool = False):
    """Overlap integral f(L) for a pulse sequence (see module docstring).

    Nonnegative and exactly zero for zero noise amplitude.  For
    CpmgDensity sequences the length must realize at least one pulse;
    sweep helpers in the evolution module handle the shorter regime.
    """
    return overlap_from_positions(seq.positions(length), spectrum, length,
                                  with_error=with_error)


def coherence_factor(overlap, profile: SpectralProfile):
    """Coherence attenuation Gamma in [0, 1] for a given overlap value.

    ``overlap`` is a number (float result) or an array (array result,
    one array expression elementwise: a curve's Gamma in one pass, each
    value bit for bit its scalar result).  Monochromatic reduction:
    Gamma = exp(-w0^2 f) at sigma = 0.  Strong dephasing
    (w0^2 f / (1 + s^2 f) beyond about 745) underflows Gamma to exactly
    0, the completely dephased limit; the sweep helpers of the
    evolution module report concurrence 0 there.  A finite optical
    bandwidth *weakens* dephasing whenever w0^2 f exceeds (1 + s^2 f)/2,
    which is the regime of every sudden-death crossing studied here.
    """
    f = np.asarray(overlap, dtype=float)
    bad = ~(np.isfinite(f) & (f >= 0.0))
    if bad.any():
        raise ValueError(f"overlap must be >= 0, got {f[bad][0]}")
    # Overflow to inf is the completely dephased limit, not an error.
    with np.errstate(over="ignore", invalid="ignore"):
        bulge = 1.0 + profile.sigma ** 2 * f
        gamma = np.exp(-profile.omega0 ** 2 * f / bulge) / np.sqrt(bulge)
    # Gamma <= 1/sqrt(bulge) = 0 there, and w0^2 f may be inf as well
    # (inf/inf gives nan)
    gamma = np.where(bulge == np.inf, 0.0, gamma)
    return float(gamma) if f.ndim == 0 else gamma
