"""Quadrature engine against closed-form integrals."""

import numpy as np
import pytest

from fiberdd.quadrature import (QuadratureError, band_boundaries,
                                integrate_panels)
from oracles import band_boundaries_loop, check_band, first_error


def test_polynomial_degree_22_exact():
    # the 15-point Kronrod rule integrates x^22 exactly; one panel suffices
    res = integrate_panels(lambda x: x ** 22, np.array([-1.0, 1.0]))
    assert abs(res.value - 2.0 / 23.0) < 1e-14


def test_sine_band():
    res = integrate_panels(np.sin, band_boundaries(1e-3, np.pi, 0.3))
    exact = np.cos(1e-3) + 1.0
    assert abs(res.value - exact) < 1e-12
    assert abs(res.value - exact) <= res.error + 1e-14


def test_steep_power_law_with_geometric_prefix():
    # integrand peaks six decades above its tail; the geometric edge panels
    # must carry the accuracy
    bounds = band_boundaries(1e-3, 1e3, 50.0)
    res = integrate_panels(lambda w: w ** -1.5, bounds)
    exact = 2.0 * (1e-3 ** -0.5 - 1e3 ** -0.5)
    assert abs(res.value / exact - 1.0) < 1e-10


def test_oscillatory_band():
    k = 50.0
    bounds = band_boundaries(0.5, 40.0, np.pi / k)
    res = integrate_panels(lambda x: np.cos(k * x), bounds)
    exact = (np.sin(40.0 * k) - np.sin(0.5 * k)) / k
    assert abs(res.value - exact) < 1e-12


def test_refinement_reaches_tolerance():
    # deliberately coarse initial panels; adaptivity must close the gap
    bounds = np.array([0.1, 5.0, 10.0])
    res = integrate_panels(lambda x: np.sin(3.0 * x) / x, bounds,
                           atol=1e-10, rtol=1e-10)
    ref = integrate_panels(lambda x: np.sin(3.0 * x) / x,
                           band_boundaries(0.1, 10.0, np.pi / 3.0),
                           atol=1e-12, rtol=1e-12)
    assert abs(res.value - ref.value) < 1e-8
    assert res.error <= 1e-10 + 1e-10 * abs(res.value)
    assert res.panels > 2


def test_panel_budget_error_carries_best_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate_panels(lambda x: np.cos(100.0 * x), np.array([0.0, 1.0, 3.0]),
                         max_panels=4)
    err = info.value
    assert np.isfinite(err.best_estimate)
    assert err.error_estimate > 0.0
    assert err.panels >= 4


def test_boundary_validation():
    with pytest.raises(ValueError):
        integrate_panels(np.sin, np.array([1.0]))
    with pytest.raises(ValueError):
        integrate_panels(np.sin, np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ValueError):
        band_boundaries(-1.0, 2.0, 0.5)
    with pytest.raises(ValueError):
        band_boundaries(1.0, 2.0, np.inf)


def test_band_boundaries_structure():
    b = band_boundaries(1e-3, 10.0, 0.25)
    assert b[0] == 1e-3 and b[-1] == 10.0
    widths = np.diff(b)
    assert np.all(widths > 0.0)
    assert widths.max() <= 0.25 + 1e-12
    # geometric growth near the lower edge
    assert widths[0] < 1e-3


@pytest.mark.parametrize("lo,hi,max_width,edge_ratio", [
    (lo, hi, width, ratio)
    for lo, hi in [(1e-3, 1e3), (1e-3, 0.2), (0.05, 50.0), (2.0, 2.1),
                   (1e-300, 1.0), (0.9, 1.0)]
    for width in (1e-4, 0.01, 0.26, np.pi / 7.3, 50.0)
    for ratio in (1.01, 1.25, 2.0)
    if (hi - lo) / width <= 1e5])
def test_band_boundaries_match_loop_oracle(lo, hi, max_width, edge_ratio):
    # (2.0, 2.1) and (0.9, 1.0) are spans shorter than one geometric step
    assert np.array_equal(band_boundaries(lo, hi, max_width, edge_ratio),
                          band_boundaries_loop(lo, hi, max_width, edge_ratio))


@pytest.mark.parametrize("steps", [1, 3, 10, 40])
def test_band_boundaries_match_loop_oracle_at_exact_powers(steps):
    # hi one ulp above lo * ratio**steps: the log estimate of the step
    # count rounds down, so the geometric section needs its spare terms
    for lo, ratio in [(1.0, 2.0), (1e-3, 1.25), (0.3, 1.5)]:
        hi = np.nextafter(lo * ratio ** steps, np.inf)
        for width in (hi, hi / 100.0):
            assert np.array_equal(band_boundaries(lo, hi, width, ratio),
                                  band_boundaries_loop(lo, hi, width, ratio))


def test_band_boundaries_rejects_non_growing_ratio():
    for ratio in (1.0, 0.8, np.inf):
        with pytest.raises(ValueError):
            band_boundaries(1.0, 2.0, 0.1, ratio)


def test_band_boundaries_match_loop_oracle_on_hand_picked_spans():
    # spans shorter than one geometric step (hi < lo * 1.25) and than one
    # panel included
    lo = 1e-3
    his = [1.1e-3, 1.25e-3, 2e-3, 0.05, 0.7, np.pi, 31.4, 1e3,
           np.nextafter(lo * 1.25 ** 10, np.inf)]
    widths = [1e-5, 1e-3, 0.02, 0.4, np.pi / 7.3, 50.0]
    for hi in his:
        for w in widths:
            if (hi - lo) / w <= 1e5:
                assert np.array_equal(band_boundaries(lo, hi, w),
                                      band_boundaries_loop(lo, hi, w))


def test_band_boundaries_validation_messages():
    with pytest.raises(ValueError, match=r"0 < lo < hi, got \[1.0, 0.5\]"):
        band_boundaries(1.0, 0.5, 0.1)
    with pytest.raises(ValueError, match="max_width .* got inf"):
        band_boundaries(1.0, 3.0, np.inf)
    with pytest.raises(ValueError, match="edge_ratio"):
        band_boundaries(1.0, 2.0, 0.1, 1.0)


def _recording(fn, calls, limit=200):
    # keeps each call's points; a refinement that never ends fails here
    def recorded(points):
        calls.append(points.copy())
        assert len(calls) <= limit, "refinement did not stop"
        return fn(points)
    return recorded


def test_nan_integrand_ends_refinement():
    calls = []
    with pytest.raises(QuadratureError, match="all panels at machine width"):
        integrate_panels(_recording(lambda x: np.full(x.shape, np.nan),
                                    calls), np.array([0.0, 1.0]))
    assert len(calls) == 1


BAD_BANDS = {
    "one point": [3.0],
    "no points": [],
    "two-dimensional": [[0.0, 1.0]],
    "repeated": [0.0, 1.0, 1.0],
    "falling": [2.0, 1.0],
    "nan": [0.0, np.nan, 1.0],
}


@pytest.mark.parametrize("first", sorted(BAD_BANDS))
def test_band_check_raises_what_the_per_band_check_raises(first):
    with pytest.raises(ValueError) as info:
        integrate_panels(np.sin, BAD_BANDS[first])
    assert str(info.value) == first_error(check_band, [(BAD_BANDS[first],)])
