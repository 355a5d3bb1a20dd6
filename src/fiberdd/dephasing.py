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
  ``segment_filter``, with panels no wider than pi/L;
- above w_c every pair argument w d_jk is at least pi, where the
  non-oscillating parts of all pair terms add with one sign, so
  [w_c, uv] is the closed form
  -sum_{j<k} u_j u_k d_jk^(1+alpha) [K(w_c d_jk) - K(uv d_jk)].

The cost is about L*w_c/pi low-band panels plus (N+2)(N+1)/2 pair terms,
independent of uv; the pair terms need K only at their distinct
arguments (an equally spaced train of N pulses has about 2N distinct
separations).  The error estimate is the low-band Gauss-Kronrod
estimate plus a rounding bound of 64 machine epsilons times the summed
magnitudes of the pair terms.

``train_overlaps`` evaluates many lengths at once from their pulse
counts: one boundary table per distinct count, one K pass over every
length's pair arguments and one grouped quadrature whose groups are the
lengths' low bands, so a curve costs a few numpy passes instead of a
few per point.  ``overlap_from_positions`` runs the same passes on one
explicit train.  Every sum over one length's terms runs over that
length's own terms in a fixed order, so a length's result does not
depend on the rest of its batch, bit for bit.

Averaging the random phase over the Gaussian noise *and* over the
photon's optical bandwidth gives the coherence factor

    Gamma = exp(-w0^2 f / (1 + s^2 f)) / sqrt(1 + s^2 f),

where w0 is the mean optical frequency and the frequency intensity
profile is Gaussian with variance s^2 / 2.  Gamma multiplies the
traveling-photon coherences of the two-qubit state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache
from typing import NamedTuple

import numpy as np

from .filters import check_positions, segment_filter
from .noise import NoiseSpectrum
from .quadrature import EDGE_RATIO, QuadratureError, band_set, \
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
# Pair terms plus initial Kronrod points per batch block of lengths.
_BATCH_WORK = 65_536
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


def _table(rows, trains, lengths):
    """(rows, boundaries, gaps) of trains with one row per length: the
    boundaries (0, l_1, ..., l_N, L) and their segment lengths."""
    bounds = np.concatenate((np.zeros((rows.size, 1)), trains,
                             lengths[:, None]), axis=1)
    return rows, bounds, np.diff(bounds, axis=1)


@lru_cache(maxsize=64)
def _pair_pattern(size: int):
    """Pair indices j < k of ``size`` boundaries and the products
    -u_j u_k of their weights u = (-1, +-2, ..., (-1)^N)."""
    signs = np.where(np.arange(size - 1) % 2, -1.0, 1.0)
    weights = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
    j, k = np.triu_indices(size, 1)
    return _frozen(j, k, -weights[j] * weights[k])


def _pair_sums(tables, w_c: np.ndarray, uv: float, alpha: float):
    """int_{w_c}^uv w^-(2+alpha) F(w) dw by the pair sum, per length.

    One _tail call serves every length, evaluated once per distinct
    argument (an equally spaced train repeats its separations).  Each
    length's terms are summed along its own row in pair order.  Returns
    the band values and their rounding bounds (0 where w_c = uv).
    """
    high = np.zeros(w_c.size)
    rounding = np.zeros(w_c.size)
    pairs = []
    for rows, bounds, _ in tables:
        live = w_c[rows] < uv
        if not live.any():
            continue
        rows, bounds = rows[live], bounds[live]
        j, k, coef = _pair_pattern(bounds.shape[1])
        # C order: the row sums below then run along contiguous rows,
        # each the same pairwise sum a lone length gets
        d = np.ascontiguousarray(bounds[:, k] - bounds[:, j])
        pairs.append((rows, d, coef))
    if not pairs:
        return high, rounding

    args = np.concatenate([np.concatenate(((w_c[rows, None] * d).ravel(),
                                           (uv * d).ravel()))
                           for rows, d, _ in pairs])
    distinct, inverse = np.unique(args, return_inverse=True)
    tails = _tail(distinct, alpha)[inverse]
    start = 0
    for rows, d, coef in pairs:
        lo = tails[start:start + d.size].reshape(d.shape)
        hi = tails[start + d.size:start + 2 * d.size].reshape(d.shape)
        start += 2 * d.size
        terms = coef * d ** (1.0 + alpha) * (lo - hi)
        high[rows] = terms.sum(axis=1)
        rounding[rows] = _PAIR_ROUNDING * np.abs(terms).sum(axis=1)
    return high, rounding


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
    evolution); each distinct count gets one table of ``train`` rows.
    The band splits at w_c = min(uv, max(ir, pi/g_min)) per length (see
    the module docstring).  Above w_c one pair-sum pass covers every
    length, exact up to rounding.  Below it one grouped quadrature does:
    each length starts from panels no wider than pi/length (half the
    shortest oscillation period of its filter) with a geometric prefix
    resolving the spectral edge, and refines until its own value meets
    ``integrate_panels``' default tolerances.  Both parts are computed
    for unit amplitude, so the refinement path never depends on the
    amplitude and f stays exactly proportional to it.  Lengths run in
    blocks of about _BATCH_WORK pair terms and quadrature points, which
    bounds memory.  A length's result does not depend on the other
    lengths of the batch, bit for bit.  The first length that is not
    positive and finite, or whose train it rounds together (subnormal
    lengths), raises the ValueError of ``filters.check_positions``.
    """
    lengths = np.asarray(lengths, dtype=float)
    pulses = np.asarray(pulses)
    if lengths.ndim != 1 or pulses.shape != lengths.shape:
        raise ValueError("need one pulse count per length")
    if pulses.size and not (pulses.dtype.kind in "iu" and pulses.min() >= 0):
        raise ValueError("pulse counts must be nonnegative integers")
    bad = ~(np.isfinite(lengths) & (lengths > 0.0))
    tables = []
    with np.errstate(invalid="ignore"):  # inf - inf gaps of infinite lengths
        for n in np.unique(pulses):
            rows = np.flatnonzero(pulses == n)
            tables.append(_table(rows, train(n, lengths[rows]), lengths[rows]))
            bad[rows] |= ~(tables[-1][2] > 0.0).all(axis=1)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        check_positions(train(pulses[i], lengths[i]), lengths[i])
    return _overlaps(tables, spectrum, lengths)


def _overlaps(tables, spectrum: NoiseSpectrum, lengths) -> Overlaps:
    """Overlaps of the (rows, boundaries, gaps) tables of checked trains."""
    count = lengths.size
    result = Overlaps(np.zeros(count), np.zeros(count),
                      np.ones(count, dtype=bool), np.zeros(count, np.intp))
    if spectrum.amplitude == 0.0 or count == 0:
        return result

    ir, uv = spectrum.ir_cutoff, spectrum.uv_cutoff
    w_c = np.empty(count)
    pairs = np.empty(count)
    for rows, bounds, gaps in tables:
        w_c[rows] = np.minimum(uv, np.maximum(ir, np.pi / gaps.min(axis=1)))
        pairs[rows] = bounds.shape[1] * (bounds.shape[1] - 1) // 2
    # Kronrod points of about L*w_c/pi uniform and log(w_c/ir)/log(EDGE_RATIO)
    # geometric initial panels, plus the pair terms
    points = 15.0 * (lengths * (w_c - ir) / np.pi
                     + np.log(w_c / ir) / np.log(EDGE_RATIO) + 1.0)
    work = np.where(w_c < uv, pairs, 0.0) + np.where(w_c > ir, points, 0.0)
    for lo, hi in _blocks(work, _BATCH_WORK):
        block = [(rows[keep] - lo, bounds[keep], gaps[keep])
                 for rows, bounds, gaps in tables
                 if (keep := (rows >= lo) & (rows < hi)).any()]
        _overlap_block(block, lengths[lo:hi], w_c[lo:hi], spectrum,
                       Overlaps(*(a[lo:hi] for a in result)))
    return result


def _blocks(work: np.ndarray, budget: float):
    """Consecutive (lo, hi) index ranges whose summed work stays within
    ``budget``; a single item above it forms a range of its own."""
    lo, total = 0, 0.0
    for i, w in enumerate(work.tolist()):
        if total + w > budget and i > lo:
            yield lo, i
            lo, total = i, 0.0
        total += w
    yield lo, work.size


def _overlap_block(tables, lengths, w_c, spectrum: NoiseSpectrum,
                   out: Overlaps) -> None:
    """Overlaps of one block of lengths, written into ``out``."""
    ir, uv = spectrum.ir_cutoff, spectrum.uv_cutoff
    segments = max(g.shape[1] for _, _, g in tables)
    gaps = np.zeros((segments, lengths.size))
    mids = np.zeros((segments, lengths.size))
    for rows, bounds, g in tables:
        gaps[:g.shape[1], rows] = g.T
        mids[:g.shape[1], rows] = (0.5 * (bounds[:, :-1] + bounds[:, 1:])).T
    high, rounding = _pair_sums(tables, w_c, uv, spectrum.exponent)

    low = np.flatnonzero(w_c > ir)
    if low.size:
        power = -(spectrum.exponent + 2.0)

        def integrand(points):
            w = points["x"]
            return segment_filter(gaps, mids, w, low[points["group"]]) \
                * w ** power

        bands = band_set(ir, w_c[low], np.minimum(np.pi / lengths[low],
                                                  w_c[low] - ir))
        res = integrate_panels(integrand, bands, grouped=True)
        out.value[low] = res.values
        out.error[low] = res.errors
        out.converged[low] = res.converged
        out.panels[low] = res.group_panels

    scale = spectrum.amplitude / np.pi
    out.value[:] = scale * (out.value + high)
    out.error[:] = scale * (out.error + rounding)


def overlap_from_positions(positions, spectrum: NoiseSpectrum, length: float,
                           *, with_error: bool = False):
    """Overlap integral for explicit pulse positions, checked by
    ``filters.check_positions``: the core of ``train_overlaps`` run on a
    one-row table, so an equally spaced train gets the bits its
    ``train_overlaps`` row gets.

    Returns f, or (f, error_estimate) when ``with_error`` is set.
    Raises QuadratureError (best estimate of the whole band attached)
    when the low-band quadrature does not converge.
    """
    positions = check_positions(positions, length)
    lengths = np.array([length], dtype=float)
    res = _overlaps([_table(np.zeros(1, np.intp), positions[None], lengths)],
                    spectrum, lengths)
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
