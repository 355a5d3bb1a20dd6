"""Filter functions of pulse sequences.

A sequence of polarization flips reweights how much each noise frequency
contributes to dephasing.  The weight is the filter function F(w):
with toggling sign y(l) flipping at every pulse, Y(w) = int_0^L y(l)
e^{iwl} dl and F(w) = w^2 |Y(w)|^2 / 2, which for pulses at
0 < l_1 < ... < l_N < L reduces to

    F(w) = 1/2 | sum_{k=0}^{N} (-1)^k (e^{i w l_{k+1}} - e^{i w l_k}) |^2,

with l_0 = 0 and l_{N+1} = L.  The generic evaluation below is what the
overlap integral consumes; the closed forms for specific sequences serve
as cross-checks and fast previews.
"""

from __future__ import annotations

import numpy as np

from .sequences import train

# Workspace bound for the segment-by-omega products.
_CHUNK_ELEMS = 16_384


def _as_freq_array(omega):
    w = np.asarray(omega, dtype=float)
    return w, w.ndim == 0


def check_positions(positions, length: float) -> np.ndarray:
    """Pulse positions as a float array; raises ValueError unless the
    length is positive and finite, else unless the positions are
    strictly increasing, else unless they lie strictly inside (0, length).
    Gaps are tested as ``~(gap > 0)``, so a NaN position fails too."""
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 1:
        raise ValueError("pulse positions must be a 1-D array")
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")
    gaps = np.diff(np.concatenate(([0.0], positions, [length])))
    if not (gaps > 0.0).all():
        if not (gaps[1:-1] > 0.0).all():
            raise ValueError("pulse positions must be strictly increasing")
        raise ValueError(
            "pulse positions must lie strictly inside (0, length)")
    return positions


def segment_filter(gaps, mids, omega):
    """Filter from segment lengths and midpoints, given as columns.

    F(w) = 2 |sum_k (-1)^k sin(w g_k / 2) e^{i w m_k}|^2 with g_k = gaps[k]
    and m_k = mids[k].  The sums run segment by segment in order, so each
    point's value depends only on its own frequency, never on the other
    points evaluated with it.
    """
    out = np.empty(omega.size)
    chunk = max(256, _CHUNK_ELEMS // gaps.shape[0])
    for i in range(0, omega.size, chunk):
        w = omega[i:i + chunk]
        amp = np.sin(0.5 * w * gaps)
        phase = w * mids
        re_terms = np.cos(phase)
        re_terms *= amp
        im_terms = np.sin(phase, out=phase)
        im_terms *= amp
        re, im = re_terms[0].copy(), im_terms[0].copy()
        for k in range(1, gaps.shape[0]):
            if k % 2:
                re -= re_terms[k]
                im -= im_terms[k]
            else:
                re += re_terms[k]
                im += im_terms[k]
        out[i:i + chunk] = 2.0 * (re * re + im * im)
    return out


def filter_generic(positions, length: float, omega):
    """Filter function for arbitrary pulse positions.

    Each segment term is factored as 2i sin(w g_k / 2) e^{i w m_k}
    (g_k segment length, m_k segment midpoint), which keeps full relative
    accuracy in the deeply cancelling regime w*length << 1 where the
    naive complex sum loses digits.

    Parameters
    ----------
    positions : sorted pulse locations strictly inside (0, length); an
        empty array selects free evolution.
    length : total propagation length.
    omega : scalar or array of frequencies (any sign).
    """
    positions = check_positions(positions, length)
    w, scalar = _as_freq_array(omega)
    bounds = np.concatenate(([0.0], positions, [length]))
    out = segment_filter(np.diff(bounds)[:, None],
                         (0.5 * (bounds[:-1] + bounds[1:]))[:, None],
                         np.atleast_1d(w).ravel())
    return float(out[0]) if scalar else out.reshape(w.shape)


def sequence_filter(seq, length: float, omega):
    """Generic filter evaluated at a sequence's own pulse positions."""
    return filter_generic(seq.positions(length), length, omega)


def filter_free(length: float, omega):
    """Free evolution: F(w) = 2 sin^2(w L / 2)."""
    w, scalar = _as_freq_array(omega)
    out = 2.0 * np.sin(0.5 * w * length) ** 2
    return float(out) if scalar else out


def filter_spin_echo(length: float, omega):
    """Mid-point echo: F(w) = 8 sin^4(w L / 4)."""
    w, scalar = _as_freq_array(omega)
    out = 8.0 * np.sin(0.25 * w * length) ** 4
    return float(out) if scalar else out


def _cpmg_form(quarter, half, envelope, w, length, n_pulses):
    """8 sin^4(quarter) envelope^2 / cos^2(half), the closed form shared
    by the CPMG filters; points with |cos(half)| < 1e-4 take the generic
    value of the ``n_pulses`` train at frequencies ``w`` instead."""
    cos_sub = np.cos(half)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 8.0 * np.sin(quarter) ** 4 * envelope ** 2 / cos_sub ** 2
    near = np.abs(cos_sub) < 1e-4
    if near.any():
        out[near] = filter_generic(train(n_pulses, length), length,
                                   w[near])
    return out


def filter_cpmg_closed(n_pulses: int, length: float, omega):
    """Closed-form CPMG filter for N equally spaced pulses.

    F(w) = 8 sin^4(x/4N) sin^2(x/2) / cos^2(x/2N) with x = w L for even
    N; odd N replaces sin^2(x/2) by cos^2(x/2).  The zeros of the
    denominator are removable but numerically treacherous, so points
    with |cos(x/2N)| < 1e-4 fall back to the complex-sum evaluation.
    """
    if not (isinstance(n_pulses, (int, np.integer)) and n_pulses >= 1):
        raise ValueError(f"n_pulses must be a positive integer, got {n_pulses!r}")
    w, scalar = _as_freq_array(omega)
    w1 = np.atleast_1d(w).ravel()

    x = w1 * length
    envelope = np.cos(0.5 * x) if n_pulses % 2 else np.sin(0.5 * x)
    out = _cpmg_form(x / (4.0 * n_pulses), x / (2.0 * n_pulses), envelope,
                     w1, length, n_pulses)
    return float(out[0]) if scalar else out.reshape(w.shape)


def filter_fixed_density(density: float, length: float, omega):
    """Idealized fixed-density filter F(w) = 8 sin^4(w/4n) sin^2(wL/2) / cos^2(w/2n).

    This is the continuum form in which the pulse count N = n*L is not
    quantized; it coincides with the exact train filter only when n*L is
    an even integer.  Near-singular points (|cos(w/2n)| < 1e-4) are
    replaced by the complex-sum value of the realized train with
    N = max(1, round(n*L)) pulses, which keeps the output finite.
    """
    if not (np.isfinite(density) and density > 0.0):
        raise ValueError(f"density must be positive, got {density}")
    w, scalar = _as_freq_array(omega)
    w1 = np.atleast_1d(w).ravel()

    out = _cpmg_form(w1 / (4.0 * density), w1 / (2.0 * density),
                     np.sin(0.5 * w1 * length), w1, length,
                     max(1, int(round(density * length))))
    return float(out[0]) if scalar else out.reshape(w.shape)
