"""Overlap integral and coherence factor."""

import numpy as np
import pytest

from fiberdd.dephasing import (SpectralProfile, _tail, coherence_factor,
                               overlap_from_positions, overlap_integral)
from fiberdd.filters import filter_generic
from fiberdd.noise import NoiseSpectrum
from fiberdd.quadrature import (QuadratureError, band_boundaries,
                                integrate_panels)
from fiberdd.sequences import CpmgCount, Free, SpinEcho
from oracles import full_band_overlap


def riemann_overlap(seq, spec, length, panels=1_000_000):
    """Brute-force midpoint Riemann sum, independent of the adaptive path."""
    edges = np.linspace(spec.ir_cutoff, spec.uv_cutoff, panels + 1)
    pos = seq.positions(length)
    total = 0.0
    for i in range(0, panels, 200_000):
        m = 0.5 * (edges[i:i + 200_000] + edges[i + 1:i + 200_001])
        total += float(np.sum(spec.density(m)
                              * filter_generic(pos, length, m) / m ** 2))
    return total * (edges[1] - edges[0]) / np.pi


@pytest.mark.parametrize("seq,spec,length", [
    (Free(), NoiseSpectrum(0.3, 1.0, 0.1, 100.0), 2.0),
    (SpinEcho(), NoiseSpectrum(0.3, 0.5, 0.1, 100.0), 3.0),
    (CpmgCount(4), NoiseSpectrum(0.3, 1.5, 0.1, 100.0), 2.0),
    (Free(), NoiseSpectrum(1.0, 0.0, 0.1, 200.0), 1.0),
    (CpmgCount(2), NoiseSpectrum(0.5, 2.0, 0.2, 50.0), 5.0),
])
def test_overlap_against_riemann(seq, spec, length):
    adaptive = overlap_integral(seq, spec, length)
    brute = riemann_overlap(seq, spec, length)
    assert adaptive == pytest.approx(brute, rel=1e-6)


# (alpha, band, length, pulses) from the grid alpha in {0, .01, .5, .99, 1,
# 1+1e-9, 1.01, 1.5, 1.99, 2} x four bands x L in {0.05, 1, 7.3, 30, 100}
# x N in {0, 1, 4, 17, 64}, chosen to keep the full-band oracle cheap.
# N = 64 at L = 1 on (0.05, 50) is where an unsplit pair sum cancels;
# on (2, 1e3) the low band vanishes whenever pi / g_min < 2 (N <= 17
# here), leaving the pair sum alone.
ORACLE_CASES = [
    (1.5, (0.05, 50.0), 1.0, 64),
    (2.0, (0.05, 50.0), 1.0, 64),
    (1.0, (1e-3, 1e3), 7.3, 17),
    (1.0 + 1e-9, (1e-3, 1e3), 7.3, 17),
    (1.0, (2.0, 1e3), 1.0, 64),
    (1.0 + 1e-9, (1e-2, 3.0), 30.0, 64),
    (0.0, (1e-3, 1e3), 1.0, 0),
    (0.01, (1e-2, 3.0), 30.0, 64),
    (0.5, (2.0, 1e3), 7.3, 1),
    (0.99, (0.05, 50.0), 100.0, 4),
    (1.01, (1e-3, 1e3), 0.05, 64),
    (1.99, (2.0, 1e3), 30.0, 0),
    (2.0, (1e-3, 1e3), 7.3, 4),
    (1.5, (2.0, 1e3), 100.0, 17),
]


@pytest.mark.parametrize("alpha,band,length,pulses", ORACLE_CASES)
def test_split_route_matches_full_band_oracle(alpha, band, length, pulses):
    spec = NoiseSpectrum(0.3, alpha, *band)
    pos = CpmgCount(pulses).positions(length) if pulses else np.empty(0)
    oracle = full_band_overlap(pos, spec, length)
    assert overlap_from_positions(pos, spec, length) == \
        pytest.approx(oracle, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.0 + 1e-9, 1.5, 2.0])
def test_tail_integral_matches_quadrature(alpha):
    # K(x) = int_x^inf t^-(2+alpha) (1 - cos t) dt on both sides of the
    # series / rotated-contour switch at x = 4, and its large-x limit
    def integrand(t):
        return t ** -(2.0 + alpha) * 2.0 * np.sin(0.5 * t) ** 2

    for lo, hi in [(1e-6, 4.0), (0.3, 4.0), (np.pi, 4.0), (4.0, 60.0),
                   (3.0, 1e3)]:
        ref = integrate_panels(integrand, band_boundaries(lo, hi, 0.5),
                               atol=0.0, rtol=1e-14).value
        got = _tail(np.array([lo, hi]), alpha)
        assert got[0] - got[1] == pytest.approx(ref, rel=1e-12)
    far = _tail(np.array([1e8]), alpha)[0]
    assert far == pytest.approx(1e8 ** -(1.0 + alpha) / (1.0 + alpha),
                                rel=1e-7)
    # x^e of the high series terms underflows here; the sum must not
    assert 0.0 < _tail(np.array([1e-300]), alpha)[0] < np.inf


def test_white_noise_linear_growth():
    # S = A on a wide band: f(L) = A L / 2
    A = 0.37
    for length in (2.0, 10.0):
        spec = NoiseSpectrum(A, 0.0, 1e-5, 64000.0 / length)
        f = overlap_integral(Free(), spec, length)
        assert f == pytest.approx(A * length / 2.0, rel=1e-3)


def test_zero_amplitude_is_exactly_zero():
    spec = NoiseSpectrum(0.0, 1.0, 1e-3, 1e3)
    assert overlap_integral(CpmgCount(3), spec, 4.0) == 0.0
    assert overlap_integral(Free(), spec, 4.0, with_error=True) == (0.0, 0.0)


def test_overlap_nonnegative_and_monotone_in_length_for_free():
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    values = [overlap_integral(Free(), spec, L)
              for L in np.linspace(0.5, 20.0, 12)]
    assert all(v > 0.0 for v in values)
    assert np.all(np.diff(values) > 0.0)


def test_pulses_suppress_overlap():
    spec = NoiseSpectrum(1.0, 1.0, 0.05, 50.0)
    f_free = overlap_integral(Free(), spec, 2.0)
    f_se = overlap_integral(SpinEcho(), spec, 2.0)
    f_cpmg = overlap_integral(CpmgCount(4), spec, 2.0)
    assert f_free > f_se > f_cpmg > 0.0


def test_amplitude_proportionality_exact():
    lo = NoiseSpectrum(0.05, 1.0, 1e-3, 1e3)
    hi = NoiseSpectrum(0.4, 1.0, 1e-3, 1e3)
    assert overlap_integral(Free(), hi, 5.0) == \
        8.0 * overlap_integral(Free(), lo, 5.0)


def test_with_error_reports_converged_estimate():
    spec = NoiseSpectrum(0.3, 1.0, 0.1, 100.0)
    f, err = overlap_integral(Free(), spec, 2.0, with_error=True)
    assert err > 0.0
    assert abs(f - riemann_overlap(Free(), spec, 2.0)) <= max(err * 10, 1e-6 * f)


def test_low_band_nonconvergence_carries_whole_band_estimate():
    # an unreachable tolerance exhausts the low-band panel budget; the
    # attached estimate still includes the closed-form band above w_c
    spec = NoiseSpectrum(0.3, 1.0, 1e-3, 100.0)
    f = overlap_integral(Free(), spec, 5.0)
    with pytest.raises(QuadratureError) as info:
        overlap_integral(Free(), spec, 5.0, atol=0.0, rtol=0.0)
    assert info.value.best_estimate == pytest.approx(f, rel=1e-12)
    assert "overlap integral at length 5.0" in str(info.value)


def test_overlap_from_positions_matches_sequence_route():
    spec = NoiseSpectrum(0.3, 1.0, 0.1, 100.0)
    direct = overlap_from_positions(CpmgCount(4).positions(2.0), spec, 2.0)
    assert direct == overlap_integral(CpmgCount(4), spec, 2.0)


def test_overlap_input_validation():
    spec = NoiseSpectrum(0.3, 1.0, 0.1, 100.0)
    with pytest.raises(ValueError):
        overlap_integral(Free(), spec, 0.0)
    with pytest.raises(ValueError):
        overlap_integral(Free(), spec, np.inf)


def test_monochromatic_reduction_is_bitwise():
    prof = SpectralProfile(1.7, 0.0)
    for f in (0.0, 0.3, 2.5):
        assert coherence_factor(f, prof) == np.exp(-1.7 ** 2 * f)


def test_coherence_factor_range_and_zero_overlap():
    prof = SpectralProfile(1.0, 0.4)
    assert coherence_factor(0.0, prof) == 1.0
    for f in np.linspace(0.01, 8.0, 20):
        g = coherence_factor(f, prof)
        assert 0.0 < g <= 1.0


def test_known_death_threshold_value():
    # at omega0 = 1, sigma = 0.1 the bundled state's death threshold
    # Gamma = 1/2 is crossed at this overlap value (frozen by bisection)
    prof = SpectralProfile(1.0, 0.1)
    assert coherence_factor(0.6944765127387947, prof) == \
        pytest.approx(0.5, abs=1e-12)


def test_bandwidth_weakens_dephasing_in_strong_noise():
    # sigma raises Gamma exactly when omega0^2 f > (1 + sigma^2 f) / 2
    f = 2.0
    mono = coherence_factor(f, SpectralProfile(1.0, 0.0))
    broad = coherence_factor(f, SpectralProfile(1.0, 0.5))
    assert broad > mono


def test_dispersion_derivative_sign_condition():
    # central finite difference in sigma^2 vs the closed-form sign rule
    checked_signs = set()
    grid = [(w0, s, f)
            for w0 in (0.6, 1.0, 1.6, 2.2)
            for s in (0.1, 0.4)
            for f in (0.1, 0.5, 1.2)]
    for w0, s, f in grid[:20]:
        h = 1e-6
        s2 = s ** 2
        up = coherence_factor(f, SpectralProfile(w0, np.sqrt(s2 + h)))
        dn = coherence_factor(f, SpectralProfile(w0, np.sqrt(s2 - h)))
        fd = (up - dn) / (2.0 * h)
        condition = w0 ** 2 * f - (1.0 + s2 * f) / 2.0
        assert abs(condition) > 1e-3  # grid avoids the degenerate boundary
        assert np.sign(fd) == np.sign(condition)
        checked_signs.add(np.sign(condition))
    assert checked_signs == {-1.0, 1.0}


def test_profile_validation():
    with pytest.raises(ValueError):
        SpectralProfile(0.0)
    with pytest.raises(ValueError):
        SpectralProfile(1.0, -0.1)
    with pytest.raises(ValueError):
        coherence_factor(-0.1, SpectralProfile(1.0))


def test_profile_rejects_overflowing_squares():
    # coherence_factor squares omega0 and sigma; 1e200**2 raises
    # OverflowError, so such profiles must be rejected up front
    with pytest.raises(ValueError, match="omega0"):
        SpectralProfile(1e200)
    with pytest.raises(ValueError, match="sigma"):
        SpectralProfile(1.0, 1e200)
    big = SpectralProfile(1e150, 1e150)
    assert 0.0 <= coherence_factor(1.0, big) <= 1.0
    # finite squares whose products with f overflow: complete dephasing
    assert coherence_factor(2.0, SpectralProfile(1e154, 1e154)) == 0.0
