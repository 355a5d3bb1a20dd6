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
P(X) depends on L, so the lengths of one train share one low band,
split at x0 = min(4, X):

- below x0, Fh(x) = sum_m f_m x^(2m) with 40 terms, whose coefficients
  depend on the train alone.  Integrated termwise, int_a^x0
  x^-(2+alpha) Fh dx = sum_m f_m (x0^e - a^e)/e with e = 2m - 1 - alpha,
  so a length pays one series evaluation at a = ir L, and no panel;
- between x0 and X, uniform panels no wider than pi (half the shortest
  period of Fh), whose Gauss-Kronrod nodes hold the values of Fh that
  ``segment_filter`` gave, cached per train.  A call weighs them by
  x^-(2+alpha) in one Gauss-Kronrod pass per train, and the panels must
  meet sum(errors) <= 1e-8 sum(values).  The integrand is nonnegative,
  so that sum is a lower bound on the low band of every length that
  spans [x0, X], and each such length meets 1e-8 relative in x, hence
  after the L^(1+alpha) scale the 1e-8 abs + 1e-8 rel that the low
  band met in w before.

Rare lengths keep a band of their own: where ir L >= x0 or uv L <= X,
the part of [x0, X] inside [ir L, uv L] is one pass over a node table
of the length's own, on the grid points inside it, to 1e-8 abs + 1e-8
rel in w.  Where uv L < x0 the series runs from ir L to uv L.  An
explicit train, built per call, lays its grid only up to the call's
largest uv L, so a very short segment (X far above uv L) costs panels
up to uv L only.  Where ir L >= X there is no low band and the pair
terms are P(ir L) - P(uv L).

One pass is all a panel gets: each is at most pi wide and at least 4
from x = 0, the integrand's only singularity, so the 15-point rule
converges geometrically on it (Trefethen, SIAM Rev. 50, 67 (2008)).  A
band that misses is not refined; its lengths keep the first pass and
are flagged unconverged.

Both the series and P come from one table per train: its distinct
separations d_s, integers s over a unit, each with its exact weight
W_s, the sum of c_jk = -u_j u_k over its pairs.  Then Fh(x) =
sum_s W_s (1 - cos x d_s), so f_m = (-1)^(m+1) sum_s W_s d_s^(2m) /
(2m)!, summed in integers and correctly rounded, and P(x) =
sum_s W_s d_s^(1+alpha) K(x d_s).  ``train(N, L)`` has 2N separations
(over the unit 2N, in closed form), any other train those its pairs
group into exactly.

Cost: each pulse count pays its filter at about 2N panels' nodes once,
each call weighs its trains' nodes and sums their P(X), and each length
pays one series evaluation plus its about 2N pair terms.  One call runs
a fixed number of array passes over all its lengths, whatever mix of
pulse counts it holds: one series pass, each length with its train's
coefficients, one K pass (``_tail``) for every pair argument and each
train's P(X), and the band constants (the panels from x0 to X and P(X))
gathered per length.  Two steps run once per pulse count: ``_upper``
weighs its node table by x^-(2+alpha), and its pair terms are summed
row by row.  The error estimate is the panels' Gauss-Kronrod estimate
plus a rounding bound of 64 machine epsilons times the summed
magnitudes of the series and of the pair terms.

``train_overlaps`` evaluates many lengths at once from their pulse
counts and ``overlap_from_positions`` one explicit train, by the same
code.  Every sum over one length's terms runs in a fixed order, and the
cached node values do not depend on which lengths asked for them, so a
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
from collections import Counter
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .filters import check_positions, segment_filter
from .noise import NoiseSpectrum
from .quadrature import QuadratureError, kronrod_nodes, kronrod_sums
from .sequences import MAX_PULSES, is_finite, train

# K(x) is summed as a power series below _TAIL_X0 and as a
# contour-rotated Laplace integral (Gauss-Laguerre) above it; these
# sizes keep K within a few 1e-14 relative over exponents [0, 2].
_TAIL_X0 = 4.0
_LAGUERRE_NODES = 60
# Arguments per K evaluation pass, bounding its (arguments x nodes) arrays.
_TAIL_CHUNK = 2048
# Terms of the power series of a unit-length filter, in x^2, summed
# below x0 = min(_TAIL_X0, top) (see the module docstring).
_SERIES_TERMS = 40
# Relative tolerance of every length's low band.
_LOW_TOL = 1e-8
# Smallest low-band limit x = ir L, now only the documented floor of the
# length domain: x^-4 overflows below it, but the series forms no such
# power (its steepest term is a^-1), so it can drop to where ir L is normal.
X_MIN = float(np.finfo(float).max) ** -0.25
# Largest float: f carries the factor L^(1+alpha) and the pair sums take
# uv L, so both must stay at or below it.
_FLOAT_MAX = float(np.finfo(float).max)
# Rounding bound on the pair sum, relative to its summed term magnitudes.
_PAIR_ROUNDING = 64.0 * float(np.finfo(float).eps)
# Smallest spacing L/N of a train that needs no check (see train_overlaps).
_SAFE_STEP = 2.0 ** -1021
# ``_upper`` of a length that does not span [x0, top].
_NO_UPPER = (0.0, 0.0, 0, True)


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
        if not (is_finite(self.omega0) and self.omega0 > 0.0):
            raise ValueError(f"omega0 must be positive, got {self.omega0}")
        if not (is_finite(self.sigma) and self.sigma >= 0.0):
            raise ValueError(f"sigma must be >= 0, got {self.sigma}")
        # coherence_factor squares both; a float product overflows to inf
        # where the power operator would raise OverflowError.
        for name, value in (("omega0", self.omega0), ("sigma", self.sigma)):
            if not is_finite(value * value):
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
    # overflows near the largest lengths.  The (arguments x nodes)
    # arrays are worked on in place, in the order of operations of
    # w (1 + (s/x)^2)^(-p/2) x^-p and p atan2(s, x).
    mag = s / xs
    mag *= mag
    mag += 1.0
    mag **= -0.5 * p
    np.multiply(w, mag, out=mag)
    mag *= (x ** -p)[:, None]
    angle = np.arctan2(s, xs)
    angle *= p
    part = np.cos(angle)
    part *= mag
    re = part.sum(axis=1)
    part = np.sin(angle, out=part)
    part *= mag
    im = part.sum(axis=1)
    return x ** (1.0 - p) / (p - 1.0) + np.sin(x) * re - np.cos(x) * im


def _frozen(*arrays):
    """The arrays made read-only, for caches that hand them to every caller."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@lru_cache(maxsize=64)
def _term_exponents(x0: float, alpha: float):
    """The factors of ``_termwise`` that do not depend on the filter."""
    e = 2.0 * np.arange(1, _SERIES_TERMS) - 1.0 - alpha
    # alpha lies in [0, 2], so only e = 1 - alpha of m = 1 can vanish:
    # that term is f_1 ln(x0/a), column 0 with factor 1
    flat = alpha == 1.0
    e[0] = 1.0 if flat else e[0]
    factor = -x0 ** e / e
    factor[0] = 1.0 if flat else factor[0]
    return (*_frozen(factor, -e), 0 if flat else None)


def _termwise(coefficients: np.ndarray, x0: float, alpha: float):
    """The weights with which ``_series`` sums int_a^x0 x^-(2+alpha) Fh dx
    for Fh(x) = sum_m f_m x^(2m), f = ``coefficients``.

    f_0 = Fh(0) is 0 for every filter, so the terms run from m = 1.
    Term m integrates f_m x^(e-1), e = 2m - 1 - alpha, from a to x0 as
    f_m x0^e (1 - (a/x0)^e) / e = scale_m * expm1(decay_m ln(x0/a)) with
    decay = -e <= 1, so it never forms an overflowing power; at e = 0 it
    is f_m ln(x0/a), the column ``log_term``.  ``decay`` and
    ``log_term`` depend on alpha alone.
    """
    factor, decay, log_term = _term_exponents(x0, alpha)
    return coefficients[1:] * factor, decay, log_term


def _series(ell: np.ndarray, scale: np.ndarray, decay: np.ndarray,
            log_term, *, magnitudes: bool = True):
    """int_a^x0 x^-(2+alpha) Fh dx for each ell = ln(x0/a) >= 0, with the
    ``_termwise`` weights of Fh at alpha (one row of ``scale`` per ell,
    or one row for all), and the summed magnitudes of its terms (None
    unless ``magnitudes``).  Every row is summed over all its terms
    alone, so a value depends on its own ell and weights only."""
    terms = np.expm1(ell[:, None] * decay)
    if log_term is not None:
        terms[:, log_term] = ell
    terms *= scale
    return terms.sum(axis=1), (np.abs(terms).sum(axis=1) if magnitudes
                               else None)


def _chunked(fn, x: np.ndarray) -> np.ndarray:
    """fn(x) in slices of _TAIL_CHUNK arguments, bounding the
    (arguments x terms) workspace; fn works row by row, so slicing
    changes no value."""
    if x.size <= _TAIL_CHUNK:
        return fn(x)
    return np.concatenate([fn(x[i:i + _TAIL_CHUNK])
                           for i in range(0, x.size, _TAIL_CHUNK)])


def _tail(x: np.ndarray, alpha: float) -> np.ndarray:
    """K(x) = int_x^inf t^-(2+alpha) (1 - cos t) dt for x > 0, each value
    a function of its own argument only.

    From _TAIL_X0 = 4 up, K is the rotated Laplace integral.  Below it,
    K(x) = K(4) + int_x^4 t^-(2+alpha) (1 - cos t) dt, and 1 - cos t is
    the filter of the free train, so the integral is the low band's
    ``_series`` with the coefficients of ``_unit_train(0)`` and x0 = 4;
    K(4) comes from the same rotated pass as the far arguments.
    """
    p = 2.0 + alpha
    out = _chunked(lambda t: _tail_rotated(t, p), np.maximum(x, _TAIL_X0))
    near = x < _TAIL_X0
    if near.any():
        weights = _termwise(_unit_train(0).series, _TAIL_X0, alpha)
        out[near] += _chunked(
            lambda t: _series(np.log(_TAIL_X0 / t), *weights,
                              magnitudes=False)[0], x[near])
    return out


def min_length(spectrum: NoiseSpectrum) -> float:
    """The shortest length whose overlap integral is computed: the first
    whose ir_cutoff * length reaches X_MIN."""
    floor = X_MIN / spectrum.ir_cutoff
    while spectrum.ir_cutoff * floor < X_MIN:  # the quotient rounded down
        floor = math.nextafter(floor, math.inf)
    return floor


def max_length(spectrum: NoiseSpectrum) -> float:
    """The longest length whose overlap integral is computed: at and
    below it, uv_cutoff * length and length^(1+alpha) stay finite.  It
    lies 1e-12 relative below where the first of them overflows, far
    more than the rounding of the roots here (the exponent 1/(1+alpha)
    is rounded, and the largest float is e^709.8)."""
    return min(_FLOAT_MAX ** (1.0 / (1.0 + spectrum.exponent)),
               _FLOAT_MAX / spectrum.uv_cutoff) * (1.0 - 1e-12)


def _separations(bounds: np.ndarray):
    """The pair table of the train with boundaries ``bounds``: a unit,
    then the train's distinct pair separations as integers s over it in
    increasing order and their exact weights W_s, the sums of c_jk =
    -u_j u_k over the pairs j < k at d_jk = s / unit, with u = (-1, +-2,
    ..., (-1)^N) (zero sums dropped).  Every float is an integer over a
    power of two, so the pairs group exactly over the largest
    denominator.
    """
    ratios = [b.as_integer_ratio() for b in bounds.tolist()]
    unit = max(den for _, den in ratios)  # every denominator divides it
    ints = [num * (unit // den) for num, den in ratios]
    u = [-1] + [2 * (-1) ** i for i in range(len(ints) - 2)] + [
        (-1) ** len(ints)]  # the last is (-1)^N, N = len(ints) - 2
    weights = Counter()
    for (b, v), (c, w) in combinations(zip(ints, u), 2):
        weights[c - b] -= v * w
    return unit, *zip(*sorted((s, w) for s, w in weights.items() if w))


def _train_separations(n_pulses: int):
    """``_separations`` of the unit ``train`` of n_pulses, in closed form:
    over the unit 2N its boundaries are 0, 1, 3, ..., 2N - 1, 2N, so its
    separations are s = 1, ..., 2N, with W_s = 4 (-1)^(k-1) at
    s = 2k - 1, -4 (-1)^m (N - m) at s = 2m < 2N and (-1)^N at s = 2N.
    The free train has the one separation 1 over the unit 1, weight 1.
    """
    n = n_pulses
    if n == 0:
        return 1, [1], [1]
    return 2 * n, range(1, 2 * n + 1), [
        (-1) ** (s // 2) * (4 if s % 2 else 4 * (s // 2 - n))
        for s in range(1, 2 * n)] + [(-1) ** n]


def _pair_halves(x: np.ndarray, which: np.ndarray, pairs, alpha: float):
    """P(x_i) = sum_s W_s d_s^(1+alpha) K(x_i d_s) for each x_i, and the
    summed magnitudes of its terms, with the pairs ``pairs[g]`` of its
    train g = ``which[i]``, given as the train's distinct separations d_s
    and W_s d_s^(1+alpha).

    One _tail call serves every x, from a table of separations padded
    with zeros.  Each x's terms are then summed along a row of their own,
    over its own train's first columns of that table in separation order,
    so a value depends on its own x and train only.
    """
    sizes = [d.size for d, _ in pairs]
    if len(pairs) == 1:  # every x of one train: no table to gather from
        args = x[:, None] * pairs[0][0]
    else:
        table = np.zeros((len(pairs), max(sizes)))
        for g, (d, _) in enumerate(pairs):
            table[g, :sizes[g]] = d
        args = x[:, None] * table.take(which, axis=0)
    if min(sizes) == args.shape[1]:  # no padding
        tails = _tail(args.ravel(), alpha).reshape(args.shape)
    else:
        real = args > 0.0  # x > 0, so only the padding gives 0
        tails = np.zeros(args.shape)
        tails[real] = _tail(args[real], alpha)
    out = np.empty((2, x.size))  # the sums, then their term magnitudes
    for g, (_, weights) in enumerate(pairs):
        rows = slice(None) if len(pairs) == 1 else np.flatnonzero(which == g)
        # a C-order product, so each row sum is the pairwise sum a lone x
        # gets
        terms = weights * tails[rows, :sizes[g]]
        out[0, rows] = terms.sum(axis=1)
        out[1, rows] = np.abs(terms).sum(axis=1)
    return out


def _node_table(gaps: np.ndarray, mids: np.ndarray, grid: np.ndarray):
    """The Kronrod nodes of the panels between consecutive ``grid``
    points, their half widths and the filter of the segments ``gaps``,
    ``mids`` at them, read-only."""
    x, half = kronrod_nodes(grid[:-1], grid[1:])
    return _frozen(x, half,
                   segment_filter(gaps, mids, x.ravel()).reshape(x.shape))


class _Train:
    """One train in units of its length, whatever the exponent, from its
    boundaries ``bounds`` and its ``_separations`` table.

    ``series`` holds the coefficients f_m of its filter's power series,
    ``separations`` and ``weights`` its d_s = s / unit and W_s as floats.
    Its low band splits at x0 = min(4, top), top = pi / (shortest gap);
    ``grid`` holds the uniform panels from x0 to top, none wider than pi
    (half the shortest period of Fh), and ``nodes()`` the filter at their
    Kronrod nodes, evaluated on first use and then kept; each call weighs
    them, the series and the pair weights by its own exponent.  A train
    given a ``reach`` keeps its grid only up to a point past it, for the
    lengths with uv L <= reach, which use no panel beyond; the points
    kept are those of the whole grid, bit for bit.
    """

    def __init__(self, bounds: np.ndarray, unit: int, steps, weights,
                 reach: float = np.inf):
        # f_m = (-1)^(m+1) sum_s W_s s^(2m) / ((2m)! unit^(2m)) (module
        # docstring), summed in integers, each quotient correctly rounded
        moments = [0] * _SERIES_TERMS
        for s, term in zip(steps, weights):
            for m in range(1, _SERIES_TERMS):
                term *= s * s
                moments[m] += term
        self.series = _frozen(np.array([0.0] + [
            (-1) ** (m + 1) * moments[m]
            / (math.factorial(2 * m) * unit ** (2 * m))
            for m in range(1, _SERIES_TERMS)]))[0]
        self.separations, self.weights = _frozen(
            np.array([s / unit for s in steps]), np.array(weights, float))
        gaps = np.diff(bounds)
        self.gaps = gaps[:, None]
        self.mids = (0.5 * (bounds[:-1] + bounds[1:]))[:, None]
        self.top = np.pi / gaps.min()
        self.x0 = min(_TAIL_X0, self.top)
        panels = kept = math.ceil((self.top - self.x0) / np.pi)
        if panels and reach < self.top:  # one point past reach, for rounding
            kept = min(panels, 1 + max(0, math.ceil(
                (reach - self.x0) / (self.top - self.x0) * panels)))
        self.grid = self.x0 + (self.top - self.x0) * (
            np.arange(kept + 1) / max(panels, 1))
        if kept == panels:
            self.grid[-1] = self.top
        self._nodes = None

    def nodes(self):
        if self._nodes is None:
            self._nodes = _node_table(self.gaps, self.mids, self.grid)
        return self._nodes


@lru_cache(maxsize=80)
def _unit_train(n_pulses: int) -> _Train:
    """The shared _Train of the ``train`` of n_pulses (80 of them, so that
    a batch of the counts 0..64 finds them all when it comes again)."""
    return _Train(np.concatenate(([0.0], train(n_pulses, 1.0), [1.0])),
                  *_train_separations(n_pulses))


def _first_pass(nodes, alpha: float):
    """Gauss-Kronrod value and error of x^-(2+alpha) Fh on each panel of
    a ``_node_table``."""
    x, half, filt = nodes
    return kronrod_sums(filt * x ** -(alpha + 2.0), half)


def _upper(unit: _Train, alpha: float):
    """int_x0^top of x^-(2+alpha) Fh over the cached panels of the train
    ``unit`` in one pass: its value, error, panel count and whether it
    meets 1e-8 relative (see the module docstring)."""
    values, errors = _first_pass(unit.nodes(), alpha)
    total, error = values.sum(), errors.sum()
    return total, error, values.size, error <= _LOW_TOL * total


def _partial(unit: _Train, left: float, right: float, alpha: float):
    """int_left^right of x^-(2+alpha) Fh for x0 <= left < right <= top,
    in one pass over a node table of its own on the grid points of the
    train ``unit`` inside: its value, error and panel count, each sum
    over the panels in order (``np.add.reduceat``)."""
    grid = unit.grid
    values, errors = _first_pass(_node_table(
        unit.gaps, unit.mids,
        np.concatenate(([left], grid[(left < grid) & (grid < right)],
                        [right]))), alpha)
    return (np.add.reduceat(values, [0])[0], np.add.reduceat(errors, [0])[0],
            values.size)


class Overlaps(NamedTuple):
    """Per-length overlap integrals of one batch.

    ``value`` and ``error`` are f and its error estimate; a length whose
    low band missed its tolerance keeps its first-pass estimate and a
    false ``converged`` flag.  ``panels`` counts low-band panels.
    """

    value: np.ndarray
    error: np.ndarray
    converged: np.ndarray
    panels: np.ndarray


def train_overlaps(pulses, spectrum: NoiseSpectrum, lengths) -> Overlaps:
    """Overlap integrals of equally spaced trains at many lengths at once.

    ``pulses[i]`` is the pulse count at ``lengths[i]``, an integer from
    0 (free evolution) to ``MAX_PULSES``.  Every length of one count uses that count's cached
    train, weighed by the spectrum's exponent, for its low band and its
    pair sums (see the module docstring).  Both are computed for unit
    amplitude, so no convergence flag depends on the amplitude and f
    stays exactly proportional to it.  A length's result does not
    depend on the other lengths of the batch, nor on what the cache held
    before, bit for bit.  The first length that is not positive and
    finite, or whose train it rounds together (subnormal lengths), raises
    the ValueError of ``filters.check_positions``; so does, with its own
    message, a nonzero amplitude where ir_cutoff * length is below X_MIN
    or the length is above ``max_length(spectrum)``.
    """
    lengths = np.asarray(lengths, dtype=float)
    pulses = np.asarray(pulses)
    if lengths.ndim != 1 or pulses.shape != lengths.shape:
        raise ValueError("need one pulse count per length")
    if pulses.size and not (pulses.dtype.kind in "iu" and pulses.min() >= 0
                            and pulses.max() <= MAX_PULSES):
        raise ValueError("pulse counts must be integers from 0 to 2**50")
    # train(n, L) places (k - 1/2) s with s = L/n rounded.  Where s >=
    # 2^-1021 (n is at most 2^50), the first position s/2 is exact and
    # positive, neighbours differ by a relative 1/(k + 1/2) > 2^-51 and
    # the last lies a relative 1/(2n) >= 2^-51 below L, far more than the
    # 2^-53 of each rounding: the train lies strictly inside (0, L) in
    # increasing order.  Only the other trains are placed and checked, in
    # index order; a batch of finite lengths whose trains are all such
    # builds no mask.
    step = lengths / np.maximum(pulses, 1)
    if lengths.size and not (step.min() >= _SAFE_STEP
                             and lengths.max() < np.inf):
        unsafe = ~((step >= _SAFE_STEP) & (lengths < np.inf))
        for i in unsafe.nonzero()[0].tolist():
            check_positions(train(pulses[i], lengths[i]), lengths[i])
    keys = sorted(set(pulses.tolist()))
    return _overlaps(keys, np.searchsorted(keys, pulses), spectrum, lengths)


def _overlaps(keys, which, spectrum: NoiseSpectrum, lengths) -> Overlaps:
    """Overlaps of checked trains.  ``keys`` holds the trains, each the
    pulse count of a ``train`` or explicit boundaries in units of the
    length, and ``which[i]`` indexes the train of ``lengths[i]``."""
    count = lengths.size
    if spectrum.amplitude == 0.0 or count == 0:
        return Overlaps(np.zeros(count), np.zeros(count),
                        np.ones(count, dtype=bool), np.zeros(count, np.intp))
    low, low_err, converged, panels, high, rounding = _unit_parts(
        keys, which, spectrum, lengths)
    scale = spectrum.amplitude / np.pi
    stretch = lengths ** (1.0 + spectrum.exponent)
    # f beyond the largest float is +inf, which coherence_factor reads
    # as complete dephasing
    with np.errstate(over="ignore"):
        return Overlaps(scale * (stretch * (low + high)),
                        scale * (stretch * (low_err + rounding)), converged,
                        panels)


def _unit_parts(keys, which, spectrum: NoiseSpectrum, lengths):
    """Per length, in x units at unit amplitude, with the train
    ``keys[which[i]]`` (see ``_overlaps``): the low band and its error,
    whether it converged and its panel count, then the pair sums and
    their rounding bound."""
    alpha = spectrum.exponent
    lo = spectrum.ir_cutoff * lengths
    hi = spectrum.uv_cutoff * lengths
    if lo.min() < X_MIN:
        raise ValueError(
            f"ir_cutoff * length = {lo.min()} is below X_MIN = {X_MIN}, "
            f"the documented floor of the length domain")
    if lengths.max() > (limit := max_length(spectrum)):
        raise ValueError(
            f"length = {lengths.max()} is above {limit}, where uv_cutoff * "
            f"length or length^(1+alpha) overflows")
    trains = [_unit_train(key) if isinstance(key, int)
              else _Train(key, *_separations(key), hi.max()) for key in keys]
    x0, top = np.array([(unit.x0, unit.top) for unit in trains]).take(
        which, axis=0).T
    return (*_low_parts(which, trains, lo, hi, x0, top, lengths, alpha),
            *_pair_parts(which, trains, lo, hi, top, alpha))


def _pair_parts(which, trains, lo, hi, top, alpha: float):
    """P(x_c) - P(b) and its rounding bound per length, with a = lo,
    b = hi and x_c = max(a, top) where top < b (0 elsewhere), each length
    of train ``trains[which[i]]``, whose ``top`` it is given.

    One _pair_halves call serves every length: P(b) of each length
    (kept where top < b), then P(a) where top <= a < b, then P(top) of
    each train.
    """
    has = top < hi
    over = (has & (lo >= top)).nonzero()[0]
    a = lo[over]
    halves = _pair_halves(
        np.concatenate((hi, a, [unit.top for unit in trains])),
        np.concatenate((which, which[over], np.arange(len(trains)))),
        [(unit.separations,
          unit.weights * unit.separations ** (1.0 + alpha))
         for unit in trains], alpha)
    n, m = hi.size, a.size
    # P(x_c) and its term magnitudes, less P(b) and plus its magnitudes
    at = halves[:, n + m:].take(which, axis=1)
    if m:
        at[:, over] = halves[:, n:n + m]  # x_c = a
    at[0] -= halves[0, :n]
    at[1] += halves[1, :n]
    at[1] *= _PAIR_ROUNDING
    return at if has.all() else np.where(has, at, 0.0)


def _low_parts(which, trains, lo, hi, x0, top, lengths, alpha: float):
    """The low band [a, min(b, top)] per length, a = lo < top, b = hi,
    each length of train ``trains[which[i]]``, whose ``x0`` and ``top``
    it is given: its value, error, convergence and panel count (0 and
    converged elsewhere).

    Below x0 it is one ``_series`` pass over every length, each with its
    train's ``_termwise`` weights, with a rounding bound of
    _PAIR_ROUNDING times the summed term magnitudes as its error; where
    b < x0 the series runs from a to b, its weights anchored at b, so no
    two series from x0 cancel.
    Where a < x0 and top < b, [x0, top] is the train's ``_upper``, once
    per call.  Elsewhere the part of [x0, top] inside [a, b] is the
    length's own ``_partial``, and the length converges where its error
    is at most 1e-8 (L^-(1+alpha) + its low band): 1e-8 abs + 1e-8 rel
    in w, L^-(1+alpha) taking the absolute part to x units.  No band is
    refined.
    """
    scales = np.array([_termwise(unit.series, unit.x0, alpha)[0]
                       for unit in trains])
    _, decay, log_term = _term_exponents(_TAIL_X0, alpha)  # alpha's alone
    short = hi < x0
    any_short = short.any()
    # one row for all lengths, unless their trains or anchors differ
    if len(trains) > 1 or any_short:
        scales = scales.take(which, axis=0)
    if any_short:
        # [a, b] inside [0, x0] is one series anchored at b: term m's
        # factor x0^e/e becomes b^e/e, and the log term stays ln(b/a)
        anchor = (hi[short] / x0[short])[:, None] ** -decay
        if log_term is not None:
            anchor[:, log_term] = 1.0
        scales[short] *= anchor
    end = np.minimum(hi, x0)
    # a series from x0 has no terms: a >= x0 contributes exactly 0
    low, error = _series(np.log(end / np.minimum(lo, end)), scales, decay,
                         log_term)
    spans = (lo < x0) & (top < hi)
    every = spans.all()  # then every train, each with lengths, needs _upper
    needs = [True] * len(trains) if every else np.bincount(
        which[spans], minlength=len(trains)).tolist()
    # each length's (value, error, panels, converged), as floats; a train
    # without panels (x0 = top) has none to weigh
    upper = np.array([_upper(unit, alpha) if need and unit.grid.size > 1
                      else _NO_UPPER
                      for unit, need in zip(trains, needs)], float).take(
        which, axis=0)
    if not every:
        upper[~spans] = _NO_UPPER
    low += upper[:, 0]
    error = _PAIR_ROUNDING * error + upper[:, 1]
    panels = upper[:, 2].astype(np.intp)
    converged = upper[:, 3] == 1.0
    # lengths that meet [x0, top] without spanning it (spans implies meets)
    meets = [] if every else (
        (lo < top) & (x0 < hi) ^ spans).nonzero()[0].tolist()
    for i in meets:
        unit = trains[which[i]]
        value, err, panels[i] = _partial(unit, max(lo[i], unit.x0),
                                         min(hi[i], unit.top), alpha)
        low[i] += value
        error[i] += err
        converged[i] = error[i] <= _LOW_TOL * (
            lengths[i] ** -(1.0 + alpha) + low[i])
    return low, error, converged, panels


def overlap_from_positions(positions, spectrum: NoiseSpectrum, length: float,
                           *, with_error: bool = False):
    """Overlap integral for explicit pulse positions: the core of
    ``train_overlaps`` on one length.  Positions equal to
    ``train(N, length)`` use the cached train of that count, so they get
    the bits its ``train_overlaps`` row gets; where its spacing length/N
    is at least 2^-1021 and N at most 2^50, that equality is their one
    check (see ``train_overlaps``).  Every other input is checked by
    ``filters.check_positions``, and any other train builds its own from
    its boundaries in units of the length, with panels only up to
    uv_cutoff * length.

    Returns f, or (f, error_estimate) when ``with_error`` is set.
    Raises ValueError first if ``length`` is not a number (a 0-d array
    is one), and QuadratureError, with the first-pass estimate of the
    whole band attached, when the low band misses its tolerance.
    """
    if np.ndim(length) != 0:
        raise ValueError(f"length must be a number, got {length}")
    positions = np.asarray(positions, dtype=float)
    key = positions.size
    if not (positions.ndim == 1 and is_finite(length)
            and length / max(key, 1) >= _SAFE_STEP and key <= MAX_PULSES
            and (positions == train(key, length)).all()):
        positions = check_positions(positions, length)
        if not (positions == train(key, length)).all():
            key = np.concatenate(([0.0], positions, [length])) / length
    lengths = np.array([length], dtype=float)
    res = _overlaps([key], np.zeros(1, np.intp), spectrum, lengths)
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
    # a length that is not a number gets overlap_from_positions' error
    positions = seq.positions(length) if np.ndim(length) == 0 else []
    return overlap_from_positions(positions, spectrum, length,
                                  with_error=with_error)


def coherence_factor(overlap, profile: SpectralProfile):
    """Coherence attenuation Gamma in [0, 1] for a given overlap value.

    ``overlap`` is a number (float result) or an array (array result,
    one array expression elementwise: a curve's Gamma in one pass, each
    value bit for bit its scalar result).  Monochromatic reduction:
    Gamma = exp(-w0^2 f) at sigma = 0.  Strong dephasing
    (w0^2 f / (1 + s^2 f) beyond about 745) underflows Gamma to exactly
    0, the completely dephased limit; the sweep helpers of the
    evolution module report concurrence 0 there.  An overlap that
    overflowed to +inf is that limit too; NaN and negative overlaps
    raise ValueError.  A finite optical bandwidth *weakens* dephasing
    whenever w0^2 f exceeds (1 + s^2 f)/2, which is the regime of every
    sudden-death crossing studied here.
    """
    f = np.asarray(overlap, dtype=float)
    if not (f >= 0.0).all():
        raise ValueError(f"overlap must be >= 0, got {f[~(f >= 0.0)][0]}")
    # Overflow to inf is the completely dephased limit, not an error.
    with np.errstate(over="ignore", invalid="ignore"):
        bulge = 1.0 + profile.sigma ** 2 * f
        gamma = np.exp(-profile.omega0 ** 2 * f / bulge) / np.sqrt(bulge)
    # Gamma <= 1/sqrt(bulge) = 0 where the bulge is inf, and where f is
    # inf; the formula gives nan at both (inf/inf), and the bulge is nan
    # at f = inf and sigma = 0 (0 inf), so it is not below inf exactly
    # there
    gamma = np.where(bulge < np.inf, gamma, 0.0)
    return float(gamma) if f.ndim == 0 else gamma
