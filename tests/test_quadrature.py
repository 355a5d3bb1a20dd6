"""Quadrature engine against closed-form integrals."""

import numpy as np
import pytest

from fiberdd.quadrature import (Bands, QuadratureError, band_boundaries,
                                band_set, integrate_panels)
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


def _grouped_integrand(points):
    # group g integrates cos((1 + 40 g) x) / (1 + x)
    x = points["x"]
    return np.cos((1.0 + 40.0 * points["group"]) * x) / (1.0 + x)


def _lone(group):
    def fn(x):
        return np.cos((1.0 + 40.0 * group) * x) / (1.0 + x)
    return fn


BANDS = [np.array([0.1, 5.0, 10.0]), band_boundaries(0.5, 3.0, 0.2),
         np.array([0.0, 1.0]), np.array([1.0, 2.0, 4.0])]


def test_grouped_matches_lone_integration():
    res = integrate_panels(_grouped_integrand, BANDS, atol=1e-11,
                           rtol=1e-11, grouped=True)
    assert res.converged.all()
    for g, band in enumerate(BANDS):
        lone = integrate_panels(_lone(g), band, atol=1e-11, rtol=1e-11)
        assert res.values[g] == lone.value
        assert res.errors[g] == lone.error
        assert res.group_panels[g] == lone.panels
    assert res.panels == res.group_panels.sum()


def test_grouped_tolerances_may_differ_per_group():
    atol = [1e-5, 1e-11, 0.0, 1e-9]
    rtol = [0.0, 1e-11, 1e-10, 1e-3]
    res = integrate_panels(_grouped_integrand, BANDS, atol=atol, rtol=rtol,
                           grouped=True)
    assert res.converged.all()
    for g, band in enumerate(BANDS):
        lone = integrate_panels(_lone(g), band, atol=atol[g], rtol=rtol[g])
        assert (res.values[g], res.errors[g], res.group_panels[g]) == \
            (lone.value, lone.error, lone.panels)


def test_grouped_failure_stays_in_its_group():
    # group 3 needs hundreds of panels; the budget of 40 stops it alone
    res = integrate_panels(_grouped_integrand, BANDS, atol=1e-11,
                           rtol=1e-11, max_panels=40, grouped=True)
    assert list(res.converged) == [True, True, True, False]
    for g in range(3):
        lone = integrate_panels(_lone(g), BANDS[g], atol=1e-11, rtol=1e-11)
        assert res.values[g] == lone.value
    with pytest.raises(QuadratureError) as info:
        integrate_panels(_lone(3), BANDS[3], atol=1e-11, rtol=1e-11,
                         max_panels=40)
    assert res.values[3] == info.value.best_estimate
    assert res.errors[3] == info.value.error_estimate
    assert res.group_panels[3] == info.value.panels


def _recording(fn, calls, limit=200):
    # keeps each call's points; a refinement that never ends fails here
    def recorded(points):
        calls.append(points.copy())
        assert len(calls) <= limit, "refinement did not stop"
        return fn(points)
    return recorded


# bands 1 and 3 meet 1e-11 on their initial panels, bands 0 and 2 do not
MIXED = [BANDS[0], np.linspace(0.0, 1.0, 41), BANDS[3],
         np.linspace(1.0, 2.0, 81)]


def test_grouped_call_refines_each_band_on_its_own():
    lone_rounds = []
    for g, band in enumerate(MIXED):
        calls = []
        integrate_panels(_recording(_lone(g), calls), band, atol=1e-11,
                         rtol=1e-11)
        lone_rounds.append(len(calls) - 1)
    assert [rounds > 0 for rounds in lone_rounds] == [True, False, True,
                                                      False]

    calls = []
    res = integrate_panels(_recording(_grouped_integrand, calls), MIXED,
                           atol=1e-11, rtol=1e-11, grouped=True)
    assert res.converged.all()
    assert set(calls[0]["group"]) == set(range(len(MIXED)))
    bands_per_call = [set(points["group"]) for points in calls[1:]]
    assert all(len(bands) == 1 for bands in bands_per_call)
    for g in range(len(MIXED)):
        assert bands_per_call.count({g}) == lone_rounds[g]


def _nan_in_band_2(points):
    values = _grouped_integrand(points)
    values[points["group"] == 2] = np.nan
    return values


def test_nan_integrand_ends_refinement():
    calls = []
    with pytest.raises(QuadratureError, match="all panels at machine width"):
        integrate_panels(_recording(lambda x: np.full(x.shape, np.nan),
                                    calls), BANDS[2])
    assert len(calls) == 1

    calls = []
    res = integrate_panels(_recording(_nan_in_band_2, calls), BANDS,
                           atol=1e-11, rtol=1e-11, grouped=True)
    assert list(res.converged) == [True, True, False, True]
    assert np.isnan(res.values[2])
    for g in (0, 1, 3):
        lone = integrate_panels(_lone(g), BANDS[g], atol=1e-11, rtol=1e-11)
        assert res.values[g] == lone.value
        assert res.errors[g] == lone.error
        assert res.group_panels[g] == lone.panels


def test_grouped_with_no_bands_is_empty():
    res = integrate_panels(_grouped_integrand, [], grouped=True)
    assert res.values.size == 0 and res.panels == 0


def test_band_set_matches_band_boundaries():
    # one shared geometric prefix, each band cut where it would stop
    # alone; spans shorter than one geometric step (hi < lo * 1.25) and
    # than one panel included
    lo = 1e-3
    his = [1.1e-3, 1.25e-3, 2e-3, 0.05, 0.7, np.pi, 31.4, 1e3,
           np.nextafter(lo * 1.25 ** 10, np.inf)]
    widths = [1e-5, 1e-3, 0.02, 0.4, np.pi / 7.3, 50.0]
    cases = [(hi, w) for hi in his for w in widths if (hi - lo) / w <= 1e5]
    bands = band_set(lo, [hi for hi, _ in cases], [w for _, w in cases])
    assert len(bands) == len(cases)
    for band, (hi, w) in zip(bands, cases):
        assert np.array_equal(band, band_boundaries(lo, hi, w))
        assert np.array_equal(band, band_boundaries_loop(lo, hi, w))
    # a band's boundaries do not depend on the others
    alone = band_set(lo, his[4:5], widths[2:3])
    assert np.array_equal(alone[0], band_boundaries(lo, his[4], widths[2]))
    assert len(band_set(lo, [], [])) == 0


def test_band_set_validation():
    with pytest.raises(ValueError, match=r"0 < lo < hi, got \[1.0, 0.5\]"):
        band_set(1.0, [2.0, 0.5], [0.1, 0.1])
    with pytest.raises(ValueError, match="max_width .* got inf"):
        band_set(1.0, [2.0, 3.0], [0.1, np.inf])
    with pytest.raises(ValueError, match="edge_ratio"):
        band_set(1.0, [2.0], [0.1], 1.0)


GOOD = [0.0, 1.0, 2.0]
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
    # every band checked in one pass; the first failing band decides
    for at in range(4):
        for second in [None, *sorted(BAD_BANDS)]:
            bands = [GOOD, GOOD, GOOD]
            bands.insert(at, BAD_BANDS[first])
            if second is not None:
                bands.append(BAD_BANDS[second])
            expected = first_error(check_band, [(b,) for b in bands])
            with pytest.raises(ValueError) as info:
                integrate_panels(_grouped_integrand, bands, grouped=True)
            assert str(info.value) == expected
    with pytest.raises(ValueError) as info:
        integrate_panels(np.sin, BAD_BANDS[first])
    assert str(info.value) == first_error(check_band, [(BAD_BANDS[first],)])


def test_band_check_accepts_back_to_back_bands():
    bands = band_set(0.1, [1.0, 5.0], [0.3, 0.3])
    res = integrate_panels(_grouped_integrand, bands, grouped=True)
    listed = integrate_panels(_grouped_integrand, list(bands), grouped=True)
    assert np.array_equal(res.values, listed.values)
    falling = Bands(np.array([0.0, 1.0, 2.0, 1.5]), np.array([2, 2]))
    with pytest.raises(ValueError, match="strictly increasing"):
        integrate_panels(_grouped_integrand, falling, grouped=True)
