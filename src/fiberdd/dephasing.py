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
  ``filter_generic``, with panels no wider than pi/L;
- above w_c every pair argument w d_jk is at least pi, where the
  non-oscillating parts of all pair terms add with one sign, so
  [w_c, uv] is the closed form
  -sum_{j<k} u_j u_k d_jk^(1+alpha) [K(w_c d_jk) - K(uv d_jk)].

The cost is about L*w_c/pi low-band panels plus (N+2)(N+1)/2 pair terms,
independent of uv.  The error estimate is the low-band Gauss-Kronrod
estimate plus a rounding bound of 64 machine epsilons times the summed
magnitudes of the pair terms.

Averaging the random phase over the Gaussian noise *and* over the
photon's optical bandwidth gives the coherence factor

    Gamma = exp(-w0^2 f / (1 + s^2 f)) / sqrt(1 + s^2 f),

where w0 is the mean optical frequency and the frequency intensity
profile is Gaussian with variance s^2 / 2.  Gamma multiplies the
traveling-photon coherences of the two-qubit state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .filters import check_positions, filter_generic
from .noise import NoiseSpectrum
from .quadrature import QuadratureError, band_boundaries, integrate_panels

# K(x) is summed as a power series below _TAIL_X0 and as a
# contour-rotated Laplace integral (Gauss-Laguerre) above it; these
# sizes keep K within a few 1e-14 relative over exponents [0, 2].
_TAIL_X0 = 4.0
_TAIL_SERIES_TERMS = 24
_LAGUERRE_NODES = 60
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


def _tail_series(x: np.ndarray, p: float) -> np.ndarray:
    """int_x^X0 t^-p (1 - cos t) dt by the power series of 1 - cos t.

    Term n integrates t^e with e = 2n + 1 - p, as (X0^e - x^e)/e written
    through expm1 so it stays accurate for e near 0 (log case at e = 0)
    and never forms an overflowing power for large |e ln(X0/x)|.
    """
    n = np.arange(1, _TAIL_SERIES_TERMS + 1)
    coef = np.cumprod(-1.0 / ((2 * n - 1) * (2 * n)))
    e = 2 * n + 1 - p
    ell = np.log(_TAIL_X0 / x)[:, None]
    terms = np.empty((x.size, n.size))
    up, down, flat = e > 0.0, e < 0.0, e == 0.0
    terms[:, up] = _TAIL_X0 ** e[up] * -np.expm1(-e[up] * ell) / e[up]
    terms[:, down] = (x[:, None] ** e[down] * np.expm1(e[down] * ell)
                      / e[down])
    terms[:, flat] = ell
    return -(terms @ coef)


def _tail(x: np.ndarray, alpha: float) -> np.ndarray:
    """K(x) = int_x^inf t^-(2+alpha) (1 - cos t) dt for x > 0."""
    p = 2.0 + alpha
    far = x >= _TAIL_X0
    rotated = _tail_rotated(np.append(x[far], _TAIL_X0), p)
    out = np.empty_like(x)
    out[far] = rotated[:-1]
    near = ~far
    if near.any():
        out[near] = rotated[-1] + _tail_series(x[near], p)
    return out


def _pair_sum_band(bounds: np.ndarray, alpha: float, lo: float, hi: float):
    """int_lo^hi w^-(2+alpha) F(w) dw by the pair sum, with a rounding bound.

    ``bounds`` are the segment boundaries (0, l_1, ..., l_N, L).
    """
    if lo >= hi:
        return 0.0, 0.0
    signs = np.where(np.arange(bounds.size - 1) % 2, -1.0, 1.0)
    weights = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
    j, k = np.triu_indices(bounds.size, 1)
    d = bounds[k] - bounds[j]
    tails = _tail(np.concatenate((lo * d, hi * d)), alpha)
    terms = (-weights[j] * weights[k] * d ** (1.0 + alpha)
             * (tails[:d.size] - tails[d.size:]))
    return float(terms.sum()), _PAIR_ROUNDING * float(np.abs(terms).sum())


def overlap_from_positions(positions, spectrum: NoiseSpectrum, length: float,
                           *, atol: float = 1e-8, rtol: float = 1e-8,
                           with_error: bool = False):
    """Overlap integral for explicit pulse positions.

    The band splits at w_c = min(uv, max(ir, pi/g_min)) (see the module
    docstring).  Below it, the quadrature starts from panels no wider
    than pi/length (half the shortest oscillation period of the filter)
    with a geometric prefix resolving the spectral edge, then refines
    adaptively until ``atol``/``rtol`` are met; above it, the pair sum
    is exact up to rounding.  The noise amplitude is factored out and
    both parts are computed for unit amplitude, so the refinement path
    never depends on the amplitude and f stays exactly proportional
    to it.

    Returns f, or (f, error_estimate) when ``with_error`` is set.
    Raises QuadratureError (best estimate of the whole band attached)
    when the low-band quadrature does not converge.
    """
    positions = check_positions(positions, length)
    if spectrum.amplitude == 0.0:
        return (0.0, 0.0) if with_error else 0.0

    scale = spectrum.amplitude / np.pi
    ir, uv = spectrum.ir_cutoff, spectrum.uv_cutoff
    bounds = np.concatenate(([0.0], positions, [length]))
    w_c = min(uv, max(ir, np.pi / float(np.diff(bounds).min())))
    high, rounding = _pair_sum_band(bounds, spectrum.exponent, w_c, uv)

    low = low_error = 0.0
    if w_c > ir:
        power = -(spectrum.exponent + 2.0)

        def integrand(w):
            return filter_generic(positions, length, w) * w ** power

        panels = band_boundaries(ir, w_c, min(np.pi / length, w_c - ir))
        try:
            res = integrate_panels(integrand, panels, atol=atol, rtol=rtol)
        except QuadratureError as exc:
            raise QuadratureError(
                f"overlap integral at length {length}: {exc}",
                scale * (exc.best_estimate + high),
                scale * (exc.error_estimate + rounding),
                exc.panels) from exc
        low, low_error = res.value, res.error

    value = scale * (low + high)
    return (value, scale * (low_error + rounding)) if with_error else value


def overlap_integral(seq, spectrum: NoiseSpectrum, length: float,
                     *, atol: float = 1e-8, rtol: float = 1e-8,
                     with_error: bool = False):
    """Overlap integral f(L) for a pulse sequence (see module docstring).

    Nonnegative and exactly zero for zero noise amplitude.  For
    CpmgDensity sequences the length must realize at least one pulse;
    sweep helpers in the evolution module handle the shorter regime.
    """
    return overlap_from_positions(seq.positions(length), spectrum, length,
                                  atol=atol, rtol=rtol, with_error=with_error)


def coherence_factor(overlap: float, profile: SpectralProfile) -> float:
    """Coherence attenuation Gamma in [0, 1] for a given overlap value.

    Monochromatic reduction: Gamma = exp(-w0^2 f) at sigma = 0.  Strong
    dephasing (w0^2 f / (1 + s^2 f) beyond about 745) underflows Gamma
    to exactly 0, the completely dephased limit; the sweep helpers of the
    evolution module report concurrence 0 there.  A finite
    optical bandwidth *weakens* dephasing whenever w0^2 f exceeds
    (1 + s^2 f)/2, which is the regime of every sudden-death crossing
    studied here.
    """
    if not (np.isfinite(overlap) and overlap >= 0.0):
        raise ValueError(f"overlap must be >= 0, got {overlap}")
    # Python floats overflow to inf without a warning; inf is the
    # completely dephased limit.
    overlap = float(overlap)
    bulge = 1.0 + profile.sigma ** 2 * overlap
    if bulge == np.inf:
        # Gamma <= 1/sqrt(bulge) = 0, and w0^2 f may be inf as well
        # (inf/inf would give nan)
        return 0.0
    return float(np.exp(-profile.omega0 ** 2 * overlap / bulge) / np.sqrt(bulge))
