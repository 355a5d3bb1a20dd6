"""Reference implementations the production routes are checked against."""

from fractions import Fraction
from functools import cache
from math import factorial

import numpy as np

from fiberdd.dephasing import _SERIES_TERMS, _Train, _separations, _tail
from fiberdd.evolution import concurrence_at
from fiberdd.filters import filter_generic
from fiberdd.quadrature import band_boundaries, integrate_panels

# sigma_y (x) sigma_y in the product basis; real for this pair.
SPIN_FLIP = np.array([
    [0.0, 0.0, 0.0, -1.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [-1.0, 0.0, 0.0, 0.0],
])


def eigen_concurrence(state):
    """Wootters concurrence of a two-qubit state from a numerical
    eigensolver: the square roots of the eigenvalues of
    rho (sy x sy) rho* (sy x sy), real and nonnegative up to numerical
    dust (clamped at zero), largest minus the other three."""
    rho = state.matrix()
    lam = np.real(np.linalg.eigvals(rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP))
    root = np.sqrt(np.sort(np.maximum(lam, 0.0))[::-1])
    return max(0.0, float(root[0] - root[1] - root[2] - root[3]))


def sorted_x_concurrences(diag, rho14, rho23):
    """Concurrence of the X states with populations ``diag`` and the
    coherence pairs rho14[i], rho23[i], from the four spin-flip roots
    |sqrt(rho11 rho44) +- |rho14|| and |sqrt(rho22 rho33) +- |rho23||
    stacked and sorted per state, the three smaller subtracted from the
    largest in increasing order of size from the top, clamped at 0."""
    d1, d2, d3, d4 = diag
    outer, inner = np.sqrt(max(d1 * d4, 0.0)), np.sqrt(max(d2 * d3, 0.0))
    c14, c23 = np.abs(rho14), np.abs(rho23)
    root = np.sort(np.abs(np.stack(
        [outer + c14, outer - c14, inner + c23, inner - c23], axis=1)),
        axis=1)
    c = root[:, 3] - root[:, 2] - root[:, 1] - root[:, 0]
    return np.where(c > 0.0, c, 0.0)


def full_band_overlap(positions, spectrum, length, *, atol=1e-16,
                      rtol=1e-13):
    """Overlap integral by adaptive Gauss-Kronrod over the whole band.

    Panels no wider than pi/length from ir to uv, the filter evaluated
    segment by segment throughout: no pair sum, no band split.
    """
    bounds = band_boundaries(spectrum.ir_cutoff, spectrum.uv_cutoff,
                             min(np.pi / length,
                                 spectrum.uv_cutoff - spectrum.ir_cutoff))
    power = -(spectrum.exponent + 2.0)

    def integrand(w):
        return filter_generic(positions, length, w) * w ** power

    res = integrate_panels(integrand, bounds, atol=atol, rtol=rtol)
    return spectrum.amplitude / np.pi * res.value


def pair_sum_half(bounds, alpha, x):
    """P(x) = sum_{j<k} c_jk d_jk^(1+alpha) K(x d_jk) for one x, with K
    evaluated once per pair (no grouping of equal separations), and the
    summed magnitudes of its terms."""
    signs = np.where(np.arange(bounds.size - 1) % 2, -1.0, 1.0)
    weights = np.concatenate(([0.0], signs)) - np.concatenate((signs, [0.0]))
    j, k = np.triu_indices(bounds.size, 1)
    d = bounds[k] - bounds[j]
    terms = -weights[j] * weights[k] * d ** (1.0 + alpha) * _tail(x * d, alpha)
    return float(terms.sum()), float(np.abs(terms).sum())


def grouped_pair_sum_half(bounds, alpha, x):
    """P(x) = sum_s W_s d_s^(1+alpha) K(x d_s) for one x and the summed
    magnitudes of its terms, over the distinct separations d_s of the
    float boundaries ``bounds`` in increasing order, grouped exactly as
    rationals, each with its summed pair weight W_s (zero sums dropped)."""
    table = sorted((d, w) for d, w in exact_pair_weights(
        [Fraction(b) for b in bounds.tolist()]).items() if w)
    d = np.array([float(s) for s, _ in table])
    weights = np.array([float(w) for _, w in table])
    terms = (weights * d ** (1.0 + alpha)) * _tail(x * d, alpha)
    return float(terms.sum()), float(np.abs(terms).sum())


def tail_oracle(x, alpha, digits=30):
    """K(x) = int_x^inf t^-p (1 - cos t) dt, p = 2 + alpha, from the
    incomplete gamma function in mpmath at ``digits`` digits:
    x^(1-p)/(p-1) - Re[i^(1-p) Gamma(1-p, -ix)], since the substitution
    t = iu turns int_x^inf t^-p e^(it) dt into i^(1-p) Gamma(1-p, -ix)."""
    import mpmath

    with mpmath.workdps(digits):
        p = 2 + mpmath.mpf(alpha)
        x = mpmath.mpf(x)
        return float(x ** (1 - p) / (p - 1) - mpmath.re(
            mpmath.mpc(0, 1) ** (1 - p) * mpmath.gammainc(1 - p, -1j * x)))


def pair_terms(bounds, alpha):
    """The pairs of boundaries ``bounds`` at one exponent, as
    ``_pair_halves`` takes them: the distinct separations d_s of their
    ``_Train`` and W_s d_s^(1+alpha)."""
    unit = _Train(bounds, *_separations(bounds))
    return unit.separations, unit.weights * unit.separations ** (1.0 + alpha)


def band_boundaries_loop(lo, hi, max_width, edge_ratio=1.25):
    """Initial panel boundaries with the geometric section grown one
    in-place product at a time."""
    pts = [lo]
    x = lo
    while x * (edge_ratio - 1.0) < max_width and x * edge_ratio < hi:
        x *= edge_ratio
        pts.append(x)
    rest = hi - x
    if rest > 0.0:
        n = max(1, int(np.ceil(rest / max_width)))
        pts.extend(x + rest * np.arange(1, n + 1) / n)
    pts[-1] = hi
    return np.array(pts)


def check_band(boundaries):
    """One band's boundaries as a float array; raises ValueError unless
    they hold at least one panel and strictly increase."""
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ValueError("boundaries must hold at least one panel")
    if not np.all(np.diff(boundaries) > 0.0):
        raise ValueError("boundaries must be strictly increasing")
    return boundaries


def first_error(check, cases):
    """Message of the first case for which ``check(*case)`` raises
    ValueError, or None when every case passes."""
    for case in cases:
        try:
            check(*case)
        except ValueError as exc:
            return str(exc)
    return None


def bisect_esd(seq, spectrum, profile, state, alive_length, dead_length,
               *, tol):
    """Death point of a bracket by plain bisection on C == 0."""
    lo, hi = alive_length, dead_length
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if concurrence_at(seq, spectrum, profile, state, mid) == 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def exact_pair_weights(bounds):
    """The distinct pair separations of the train with boundaries
    ``bounds`` (exact rationals, increasing), each mapped to its summed
    weight: the sum of c_jk = -u_j u_k over the pairs j < k at that
    separation, with u = (-1, +-2, ..., (-1)^N)."""
    signs = [(-1) ** i for i in range(len(bounds) - 1)]
    u = [-signs[0]] + [signs[i - 1] - signs[i]
                       for i in range(1, len(signs))] + [signs[-1]]
    weights = {}
    for j in range(len(bounds)):
        for k in range(j + 1, len(bounds)):
            d = bounds[k] - bounds[j]
            weights[d] = weights.get(d, 0) - u[j] * u[k]
    return weights


def exact_filter_series(bounds, terms):
    """Coefficients f_m, m < terms, of the unit-length filter
    Fh(x) = sum_m f_m x^(2m) of the train with boundaries ``bounds``
    (exact rationals, 0 to 1), as Fractions: Fh(x) = sum_{j<k} c_jk
    (1 - cos(x d_jk)), so f_m = (-1)^(m+1) sum_{j<k} c_jk d_jk^(2m) /
    (2m)!, grouped by ``exact_pair_weights``."""
    coef = [Fraction(0)] * terms
    for d, w in exact_pair_weights(bounds).items():
        power = Fraction(w)
        for m in range(1, terms):
            power *= d * d
            coef[m] += (-1) ** (m + 1) * power / factorial(2 * m)
    return coef


def exact_train_bounds(n_pulses):
    """The boundaries 0, (2k - 1)/(2N), 1 of the unit ``train`` of
    n_pulses as exact rationals."""
    return [Fraction(0)] + [Fraction(2 * k - 1, 2 * n_pulses)
                            for k in range(1, n_pulses + 1)] + [Fraction(1)]


@cache
def _exact_train_series(n_pulses):
    """``exact_filter_series`` of the unit ``train`` of n_pulses, with
    the production series' number of terms."""
    return exact_filter_series(exact_train_bounds(n_pulses), _SERIES_TERMS)


def short_band_overlap(n_pulses, spectrum, length, digits=40):
    """f(L) of ``train(n_pulses, L)`` where uv L lies below the series
    split x0, so the whole band [ir L, uv L] is the filter's power series:
    f = (A/pi) L^(1+alpha) sum_m f_m (b^e - a^e)/e, e = 2m - 1 - alpha
    (f_m ln(b/a) at e = 0), over the exact coefficients of
    ``exact_filter_series``, summed in mpmath at ``digits`` digits."""
    import mpmath

    coefficients = _exact_train_series(n_pulses)
    with mpmath.workdps(digits):
        alpha = mpmath.mpf(spectrum.exponent)
        L = mpmath.mpf(length)
        a = mpmath.mpf(spectrum.ir_cutoff) * L
        b = mpmath.mpf(spectrum.uv_cutoff) * L
        total = mpmath.mpf(0)
        for m, coefficient in enumerate(coefficients[1:], start=1):
            e = 2 * m - 1 - alpha
            term = mpmath.log(b / a) if e == 0 else (b ** e - a ** e) / e
            total += mpmath.mpf(coefficient.numerator) / \
                coefficient.denominator * term
        return float(mpmath.mpf(spectrum.amplitude) / mpmath.pi
                     * L ** (1 + alpha) * total)
