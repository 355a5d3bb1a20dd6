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
  integrates the filter itself: its power series at low frequencies,
  Gauss-Kronrod panels over the segment-factored ``segment_filter``
  above them (the low band below);
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
in a bounded cache, split at x0 = min(4, X):

- below x0, Fh(x) = sum_m f_m x^(2m) with 40 terms, whose coefficients
  depend on the train alone: from the closed form of ``train(N, L)``,
  cached per pulse count, or exactly from the boundaries of any other
  train.  Integrated termwise, int_a^x0 x^-(2+alpha) Fh dx =
  sum_m f_m (x0^e - a^e)/e with e = 2m - 1 - alpha, so a length pays
  one series evaluation at a = ir L, and no panel;
- between x0 and X, uniform panels no wider than pi (half the shortest
  period of Fh), whose Gauss-Kronrod nodes hold the values of Fh that
  ``segment_filter`` gave, cached per train.  An exponent weighs them by
  x^-(2+alpha) once; the panels must meet sum(errors) <= 1e-8
  sum(values), and only the panels whose error is above their equal
  share of that are refined, by ``integrate_panels``.  The integrand is
  nonnegative, so that sum is a lower bound on the low band of every
  length that spans [x0, X], and each such length meets 1e-8 relative
  in x, hence after the L^(1+alpha) scale the 1e-8 abs + 1e-8 rel that
  the low band met in w before.  Panels that miss even after
  refinement are never kept: every call that needs them weighs them
  again and flags its lengths unconverged.

Rare lengths keep an integral of their own: where ir L >= x0 or
uv L <= X, the part of [x0, X] inside [ir L, uv L] goes to
integrate_panels on the grid points inside it, to 1e-8 abs + 1e-8 rel
in w, and where uv L < x0 the series runs from ir L to uv L.  Where
ir L >= X there is no low band and the pair terms are P(ir L) - P(uv L).

Cost: each pulse count pays its filter at about 2N panels' nodes once,
each (N, alpha) weighs them once, and each length pays one series
evaluation plus its (N+2)(N+1)/2 pair terms, with K evaluated only at
the ~2N distinct separations.  The error estimate is the panels'
Gauss-Kronrod estimate plus a rounding bound of 64 machine epsilons
times the summed magnitudes of the series and of the pair terms.

``train_overlaps`` evaluates many lengths at once from their pulse
counts and ``overlap_from_positions`` one explicit train, by the same
code.  Every sum over one length's terms runs in a fixed order, and the
cached panels do not depend on which lengths asked for them, so a
length's result depends neither on the rest of its batch nor on what
the cache held before, bit for bit.

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
from .quadrature import Bands, QuadratureError, integrate_panels, \
    kronrod_nodes, kronrod_sums
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
# Terms of the power series of a unit-length filter, in x^2, summed
# below x0 = min(_TAIL_X0, top) (see the module docstring).
_SERIES_TERMS = 40
# Relative tolerance of every length's low band.
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
    # |x + is|^-p as x^-p (1 + (s/x)^2)^(-p/2): no square of x, which
    # overflows near the largest lengths
    ratio = s / xs
    mag = w * (1.0 + ratio * ratio) ** (-0.5 * p) * (x ** -p)[:, None]
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


def _pair_separations(bounds: np.ndarray):
    """The pairs j < k of boundaries ``bounds``: their distinct
    separations, each pair's index into them, and c_jk and d_jk."""
    j, k, coef = _pair_pattern(bounds.size)
    d = bounds[k] - bounds[j]
    distinct, inverse = np.unique(d, return_inverse=True)
    return distinct, inverse, coef, d


def _pair_terms(bounds: np.ndarray, alpha: float):
    """The pairs j < k of boundaries ``bounds`` at one exponent, as a
    low band holds them: their distinct separations d, each pair's index
    into them and c_jk d_jk^(1+alpha)."""
    distinct, inverse, coef, d = _pair_separations(bounds)
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


@lru_cache(maxsize=64)
def _train_series(n_pulses: int) -> np.ndarray:
    """Coefficients f_m, m < _SERIES_TERMS, of Fh(x) = sum_m f_m x^(2m)
    for the unit ``train`` of n_pulses, from its closed form (Cywinski et
    al.): 2 sin^2(x/2) = 1 - cos x for N = 0, 8 sin^4(x/4) for N = 1 and
    8 sin^4(x/4N) E(x) / cos^2(x/2N) above, with E = sin^2(x/2) for even
    N and cos^2(x/2) for odd N.

    Each factor's coefficients are quotients of integers, correctly
    rounded (sin^4's x^0 and x^2 terms exactly 0); the Cauchy products
    and the series division for 1/cos^2 run in floats.  That series
    converges for x < pi N only, so N = 1 (where 1/cos^2 cancels E)
    does not use it.
    """
    fact = [math.factorial(2 * m) for m in range(_SERIES_TERMS)]
    sign = [(-1) ** m for m in range(_SERIES_TERMS)]
    if n_pulses == 0:
        return _frozen(np.array([0.0] + [-sign[m] / fact[m]
                                         for m in range(1, _SERIES_TERMS)]))[0]
    quarter = np.array([0.0, 0.0] + [  # 8 sin^4(y) = 3 - 4 cos 2y + cos 4y
        sign[m] * (16 ** m - 4 ** (m + 1))
        / (fact[m] * (4 * n_pulses) ** (2 * m))
        for m in range(2, _SERIES_TERMS)])
    if n_pulses == 1:
        return _frozen(quarter)[0]
    odd = 1 if n_pulses % 2 else -1
    envelope = np.array([(1 + odd) / 2] + [odd * sign[m] / (2 * fact[m])
                                           for m in range(1, _SERIES_TERMS)])
    denominator = np.array([1.0] + [  # cos^2(x/2N) = (1 + cos(x/N)) / 2
        sign[m] / (2 * fact[m] * n_pulses ** (2 * m))
        for m in range(1, _SERIES_TERMS)])
    inverse = np.zeros(_SERIES_TERMS)
    inverse[0] = 1.0
    for m in range(1, _SERIES_TERMS):
        inverse[m] = -np.dot(denominator[1:m + 1], inverse[m - 1::-1])
    product = np.convolve(quarter, envelope)[:_SERIES_TERMS]
    return _frozen(np.convolve(product, inverse)[:_SERIES_TERMS])[0]


def _exact_series(bounds: np.ndarray) -> np.ndarray:
    """The coefficients of ``_train_series`` for any train with
    boundaries ``bounds`` (in units of its length), each the correctly
    rounded value of the exact one.

    Fh(x) = sum_{j<k} c_jk (1 - cos(x d_jk)), so f_m = (-1)^(m+1)
    sum c_jk d_jk^(2m) / (2m)!.  Every float is an integer over a power
    of two, so the moments are summed exactly as integers over the
    largest such denominator, grouped by distinct separation.
    """
    ratios = [b.as_integer_ratio() for b in bounds.tolist()]
    unit = max(den for _, den in ratios)  # every denominator divides it
    ints = [num * (unit // den) for num, den in ratios]
    j, k, coef = _pair_pattern(bounds.size)
    weights = {}
    for jj, kk, c in zip(j.tolist(), k.tolist(), coef.tolist()):
        d = ints[kk] - ints[jj]
        weights[d] = weights.get(d, 0) + int(c)
    moments = [0] * _SERIES_TERMS
    for d, term in weights.items():
        for m in range(1, _SERIES_TERMS):
            term *= d * d
            moments[m] += term
    return np.array([0.0] + [
        -(-1) ** m * moments[m] / (math.factorial(2 * m) * unit ** (2 * m))
        for m in range(1, _SERIES_TERMS)])


def _node_table(gaps: np.ndarray, mids: np.ndarray, grid: np.ndarray):
    """The Kronrod nodes of the panels between consecutive ``grid``
    points, their half widths and the filter of the segments ``gaps``,
    ``mids`` at them, read-only."""
    x, half = kronrod_nodes(grid[:-1], grid[1:])
    return _frozen(x, half,
                   segment_filter(gaps, mids, x.ravel()).reshape(x.shape))


class _Train:
    """One train in units of its length, whatever the exponent.

    ``bounds`` are its boundaries and ``series`` the coefficients of
    its filter's power series (``_train_series``), ``separations`` its
    ``_pair_separations``.  Its low band splits
    at x0 = min(4, top), top = pi / (shortest gap); ``grid`` holds the
    uniform panels from x0 to top, none wider than pi (half the shortest
    period of Fh), and ``nodes()`` the filter at their Kronrod nodes,
    evaluated on first use and then kept.
    """

    def __init__(self, bounds: np.ndarray, series: np.ndarray):
        gaps = np.diff(bounds)
        self.bounds = bounds
        self.series = series
        self.gaps = gaps[:, None]
        self.mids = (0.5 * (bounds[:-1] + bounds[1:]))[:, None]
        self.top = np.pi / gaps.min()
        self.x0 = min(_TAIL_X0, self.top)
        panels = math.ceil((self.top - self.x0) / np.pi)
        self.grid = self.x0 + (self.top - self.x0) * (
            np.arange(panels + 1) / max(panels, 1))
        self.grid[-1] = self.top
        self.separations = _pair_separations(bounds)
        self._nodes = None

    def nodes(self):
        if self._nodes is None:
            self._nodes = _node_table(self.gaps, self.mids, self.grid)
        return self._nodes


@lru_cache(maxsize=64)
def _unit_train(n_pulses: int) -> _Train:
    """The shared _Train of the ``train`` of n_pulses."""
    return _Train(np.concatenate(([0.0], train(n_pulses, 1.0), [1.0])),
                  _train_series(n_pulses))


class _LowBand:
    """The low band of one ``_Train`` at one exponent, in x = w L.

    Below x0 the band is the termwise integral of the filter's power
    series (``series``).  Above it, ``upper()`` weighs the train's cached
    node values by x^-(2+alpha) once: the panels must meet sum(errors)
    <= 1e-8 sum(values), and if they do not, each panel whose error is
    above its equal share of that goes to ``integrate_panels``, to that
    share.  The result is kept once it is certified; otherwise every
    call that needs it weighs the panels again and flags its lengths
    unconverged.  ``pairs`` are the train's ``_pair_terms`` at alpha and
    ``top_pairs`` is P(top) with its term magnitudes, once a call has
    needed it.
    """

    def __init__(self, unit: _Train, alpha: float):
        self.unit = unit
        self.alpha = alpha
        self.top = unit.top
        self.x0 = unit.x0
        # term m integrates f_m x^(e-1), e = 2m - 1 - alpha, from a to x0
        # as f_m x0^e (1 - (a/x0)^e) / e = scale_m * -expm1(-e ln(x0/a));
        # at e = 0 it is f_m ln(x0/a), kept as the column ``log_term``
        m = np.flatnonzero(unit.series)
        f = unit.series[m]
        e = 2.0 * m - 1.0 - alpha
        flat = np.flatnonzero(e == 0.0)  # at most one term
        e[flat] = 1.0
        self.decay = -e
        self.scale = -f * self.x0 ** e / e
        self.scale[flat] = f[flat]
        self.log_term = int(flat[0]) if flat.size else None
        distinct, inverse, coef, d = unit.separations
        self.pairs = (distinct, inverse, coef * d ** (1.0 + alpha))
        self.top_pairs = None  # set by the first call that needs it
        # set by the first certified upper(), at once if there are no panels
        self._upper = None if unit.grid.size > 1 else (0.0, 0.0, 0, True)

    def integrand(self, points) -> np.ndarray:
        x = points["x"]
        return segment_filter(self.unit.gaps, self.unit.mids, x) * x ** -(
            self.alpha + 2.0)

    def series(self, a: np.ndarray):
        """int_a^x0 x^-(2+alpha) Fh(x) dx for each 0 < a <= x0 and the
        summed magnitudes of its terms, each a function of its own a.

        Every term is written through expm1, so it stays accurate for
        exponents e near 0 and a near x0, and never forms an overflowing
        power (|e| <= 1 where e < 0).
        """
        ell = np.log(self.x0 / a)[:, None]
        terms = np.expm1(ell * self.decay)
        if self.log_term is not None:
            terms[:, self.log_term] = ell[:, 0]
        terms *= self.scale
        return terms.sum(axis=1), np.abs(terms).sum(axis=1)

    def upper(self):
        """int_x0^top: its value, error, panel count and certification."""
        if self._upper is not None:
            return self._upper
        x, half, filt = self.unit.nodes()
        values, errors = kronrod_sums(filt * x ** -(self.alpha + 2.0), half)
        counts = np.ones(values.size, np.intp)
        certified = np.ones(values.size, bool)
        tol = _LOW_TOL * values.sum()
        if errors.sum() > tol:
            miss = np.flatnonzero(errors > tol / values.size)
            grid = self.unit.grid
            res = integrate_panels(
                self.integrand,
                Bands(np.column_stack((grid[miss], grid[miss + 1])).ravel(),
                      np.full(miss.size, 2)),
                grouped=True, atol=tol / values.size, rtol=0.0)
            values[miss] = res.values
            errors[miss] = res.errors
            counts[miss] = res.group_panels
            certified[miss] = res.converged
        result = (values.sum(), errors.sum(), counts.sum(), certified.all())
        if result[3]:
            self._upper = result
        return result


@lru_cache(maxsize=64)
def _low_band(n_pulses: int, alpha: float) -> _LowBand:
    """The shared _LowBand of the ``train`` of n_pulses at one exponent."""
    return _LowBand(_unit_train(n_pulses), alpha)


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
             else _LowBand(_Train(key, _exact_series(key)), alpha)
             for _, key in groups]
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

    Below x0 it is the band's series, with a rounding bound of
    _PAIR_ROUNDING times the summed term magnitudes as its error (where
    b < x0, the series from a less the series from b).  Where
    a < x0 and top < b, [x0, top] is the band's ``upper()``.  Elsewhere
    the part of [x0, top] inside [a, b] goes to ``integrate_panels`` on
    the grid points inside it, to 1e-8 relative and 1e-8 (scale + the
    series value) absolute less the series' error (``scale``,
    L^-(1+alpha), takes the absolute part from w to x units).
    """
    low = np.zeros(lo.size)
    error = np.zeros(lo.size)
    converged = np.ones(lo.size, dtype=bool)
    panels = np.zeros(lo.size, np.intp)
    whole = []
    for column, (r, band) in enumerate(zip(groups, bands)):
        a, b = lo[r], hi[r]
        # a series from x0 has no terms: a >= x0 contributes exactly 0
        value, magnitudes = band.series(np.minimum(a, band.x0))
        short = b < band.x0  # [a, b] is [a, x0] less [b, x0]
        if short.any():
            cut, cut_magnitudes = band.series(b[short])
            value[short] -= cut
            magnitudes[short] += cut_magnitudes
        magnitudes *= _PAIR_ROUNDING
        spans = (a < band.x0) & (band.top < b)
        if spans.any():
            upper, upper_error, count, certified = band.upper()
            value += np.where(spans, upper, 0.0)
            magnitudes += np.where(spans, upper_error, 0.0)
            panels[r] = np.where(spans, count, 0)
            converged[r] = certified | ~spans
        low[r] = value
        error[r] = magnitudes
        grid = band.unit.grid
        for i in r[~spans & (band.x0 < b) & (a < band.top)]:
            left, right = max(lo[i], band.x0), min(hi[i], band.top)
            whole.append((i, column, np.concatenate(
                ([left], grid[(left < grid) & (grid < right)], [right])),
                _LOW_TOL * (scale[i] + low[i]) - error[i], _LOW_TOL))
    if not whole:
        return low, error, converged, panels

    if len(bands) == 1:
        gaps, mids = bands[0].unit.gaps, bands[0].unit.mids
    else:
        segments = max(band.unit.gaps.shape[0] for band in bands)
        gaps = np.zeros((segments, len(bands)))
        mids = np.zeros((segments, len(bands)))
        for c, band in enumerate(bands):
            gaps[:band.unit.gaps.shape[0], c] = band.unit.gaps[:, 0]
            mids[:band.unit.mids.shape[0], c] = band.unit.mids[:, 0]
    power = -(alpha + 2.0)
    rows, columns, edges, atol, rtol = zip(*whole)
    columns = np.array(columns, np.intp)

    def integrand(points):
        """The integrand at GROUPED_POINT records whose group g lies in
        band columns[g]."""
        x = points["x"]
        return segment_filter(
            gaps, mids, x,
            None if len(bands) == 1 else columns[points["group"]]) * x ** power

    res = integrate_panels(
        integrand, Bands(np.concatenate(edges),
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
