"""Overlap integral and coherence factor."""

import functools
import re
import sys
import threading
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import fiberdd.dephasing as dephasing
import fiberdd.filters as filters
import fiberdd.quadrature as quadrature
from fiberdd.dephasing import (SpectralProfile, _tail, coherence_factor,
                               overlap_from_positions, overlap_integral,
                               train_overlaps)
from fiberdd.evolution import sweep_positions
from fiberdd.filters import filter_generic
from fiberdd.noise import NoiseSpectrum
from fiberdd.quadrature import (QuadratureError, band_boundaries,
                                integrate_panels)
from fiberdd.sequences import CpmgCount, CpmgDensity, Free, SpinEcho, train
from fiberdd.filters import check_positions
from oracles import (exact_filter_series, exact_pair_weights,
                     exact_train_bounds, first_error, full_band_overlap,
                     grouped_pair_sum_half, pair_sum_half, pair_terms,
                     short_band_overlap, tail_oracle)


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


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_tail_matches_incomplete_gamma_oracle(alpha):
    # K on both sides of x = 4, where the free train's series hands over
    # to the rotated rule, against mpmath's incomplete gamma function
    pytest.importorskip("mpmath")
    x = np.array([1e-6, 0.3, 1.0, 2.5, 3.0, np.pi, 3.5, 3.999, 4.0, 10.0,
                  4e3])
    got = _tail(x, alpha)
    for value, point in zip(got, x):
        assert value == pytest.approx(tail_oracle(point, alpha), rel=5e-14,
                                      abs=0.0)


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


def _miss_first_pass(monkeypatch, inside=(0.0, np.inf)):
    """Make every panel weighed from now on that lies inside the interval
    ``inside`` (all by default) miss its Gauss-Kronrod pass, by an
    infinite error; its value stays.  A panel is told by its nodes, the
    rows of the node table's ``x``."""
    first_pass = dephasing._first_pass

    def missed(nodes, alpha):
        values, errors = first_pass(nodes, alpha)
        x = nodes[0]
        errors[(x[:, 0] > inside[0]) & (x[:, -1] < inside[1])] = np.inf
        return values, errors

    monkeypatch.setattr(dephasing, "_first_pass", missed)


def test_low_band_nonconvergence_carries_whole_band_estimate(monkeypatch):
    # upper panels [x0, top] that miss their one pass flag the length;
    # the attached estimate still includes the series below x0 and the
    # closed-form band above w_c
    spec = NoiseSpectrum(0.3, 1.0, 1e-3, 100.0)
    f = overlap_integral(SpinEcho(), spec, 5.0)
    _miss_first_pass(monkeypatch)
    with pytest.raises(QuadratureError) as info:
        overlap_integral(SpinEcho(), spec, 5.0)
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


@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_infinite_overlap_is_complete_dephasing(sigma):
    # an overlap that overflowed to +inf gives Gamma = 0, alone and in an
    # array, with no warning; NaN and negative overlaps still raise
    prof = SpectralProfile(1.0, sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert coherence_factor(np.inf, prof) == 0.0
        gamma = coherence_factor(np.array([0.0, np.inf, 0.5]), prof)
    assert gamma[1] == 0.0
    assert gamma[0] == 1.0 and gamma[2] == coherence_factor(0.5, prof)
    for bad in (np.nan, -np.inf, -0.1):
        with pytest.raises(ValueError, match="overlap must be >= 0"):
            coherence_factor(bad, prof)
        with pytest.raises(ValueError, match="overlap must be >= 0"):
            coherence_factor(np.array([0.5, bad, np.inf]), prof)


def _counts(seq, lengths):
    return [seq.pulse_count(L) for L in lengths]


def _batch_vs_lone(seq, spec, lengths):
    batch = train_overlaps(_counts(seq, lengths), spec, lengths)
    for i, L in enumerate(lengths):
        f, err = overlap_from_positions(sweep_positions(seq, L), spec, L,
                                        with_error=True)
        assert batch.value[i] == f
        assert batch.error[i] == err
    assert batch.converged.all()
    return batch


# CpmgDensity(0.3) over this grid goes from no pulse (L < 5/3) to 9, and
# CpmgDensity(0.06) from none to 2, so each curve mixes pulse counts and
# free-evolution lengths in one batch.
@pytest.mark.parametrize("seq", [Free(), SpinEcho(), CpmgCount(3),
                                 CpmgCount(64), CpmgDensity(0.06),
                                 CpmgDensity(0.3)])
@pytest.mark.parametrize("alpha,band", [(0.0, (1e-3, 1e3)),
                                        (1.0, (1e-3, 1e3)),
                                        (1.7, (1e-3, 1e3)),
                                        (1.0, (2.0, 1e3)),
                                        (1.5, (0.05, 50.0))])
def test_batch_matches_each_length_alone(seq, alpha, band):
    # on (2, 1e3) some lengths have no low band; on (0.05, 50) some have
    # no pair-sum band (pi / g_min >= uv)
    spec = NoiseSpectrum(0.008, alpha, *band)
    lengths = np.concatenate(([0.05, 1.0], np.linspace(1.5, 30.0, 9)))
    batch = _batch_vs_lone(seq, spec, lengths)
    # the same lengths in reverse order and in pairs give the same bits
    again = train_overlaps(_counts(seq, lengths[::-1]), spec, lengths[::-1])
    assert np.array_equal(again.value[::-1], batch.value)
    for i in range(0, lengths.size - 1, 2):
        pair = train_overlaps(_counts(seq, lengths[i:i + 2]), spec,
                              lengths[i:i + 2])
        assert np.array_equal(pair.value, batch.value[i:i + 2])


def test_unconverged_length_is_isolated_in_batch(monkeypatch):
    # at L = 0.1, uv L = 10 lies below top = 4 pi, so [x0, uv L] takes a
    # node table of its own; its last panel, [9.7, 10], which no other
    # length's panels fit inside, misses, so that length alone is flagged
    # and every other length converges untouched
    spec = NoiseSpectrum(0.3, 1.0, 1e-3, 100.0)
    lengths = np.array([0.5, 2.0, 0.1, 4.0])
    end = spec.uv_cutoff * 0.1
    grid = dephasing._unit_train(2).grid
    assert grid[-2] < end < grid[-1]
    _miss_first_pass(monkeypatch, (grid[-2], end))
    batch = train_overlaps(np.full(lengths.size, 2), spec, lengths)
    with pytest.raises(QuadratureError) as info:
        overlap_from_positions(train(2, lengths[2]), spec, lengths[2])
    monkeypatch.undo()

    assert list(batch.converged) == [True, True, False, True]
    for i in (0, 1, 3):
        assert batch.value[i] == overlap_from_positions(
            train(2, lengths[i]), spec, lengths[i])
    assert batch.value[2] == info.value.best_estimate
    assert batch.error[2] == info.value.error_estimate
    # the length's first-pass panels: those of grid points 4, ..., 9.7, 10
    assert batch.panels[2] == info.value.panels == grid.size - 1
    assert "overlap integral at length 0.1" in str(info.value)


def test_batch_does_not_depend_on_workspace_chunks(monkeypatch):
    spec = NoiseSpectrum(0.008, 1.3, 1e-3, 1e3)
    lengths = np.linspace(0.5, 30.0, 12)
    counts = _counts(CpmgDensity(0.3), lengths)
    wide = train_overlaps(counts, spec, lengths)
    monkeypatch.setattr(filters, "_CHUNK_ELEMS", 1)
    monkeypatch.setattr(dephasing, "_TAIL_CHUNK", 3)
    dephasing._unit_train.cache_clear()  # rebuild the panels narrow too
    narrow = train_overlaps(counts, spec, lengths)
    for got, want in zip(narrow, wide):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("pulses,length", [(0, 7.3), (1, 0.05), (4, 30.0),
                                           (17, 1.0), (64, 0.5),
                                           (64, 50.0)])
@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.0 + 1e-9, 2.0])
def test_grouped_pair_sum_matches_per_pair_oracle(pulses, length, alpha):
    # the pairs are grouped exactly by separation (CPMG N = 64 has 128
    # among 2145 pairs), each half P(x) is bit for bit the grouped sum,
    # whatever the other x and trains of the pass, and it stays within
    # its rounding bound of the per-pair sum
    bounds = np.concatenate(([0.0], train(pulses, length), [length]))
    x = np.concatenate((np.linspace(2.0, 4.0, 23), [1e3]))
    terms = pair_terms(bounds, alpha)
    other = pair_terms(np.array([0.0, 0.3, 1.0]), alpha)
    both, which = np.concatenate((x[::-1], x)), np.repeat([0, 1], x.size)
    sums, magnitudes = (half[x.size:] for half in dephasing._pair_halves(
        both, which, [other, terms], alpha))
    for i in range(x.size):
        assert (sums[i], magnitudes[i]) == grouped_pair_sum_half(
            bounds, alpha, x[i])
        per_pair, per_pair_magnitude = pair_sum_half(bounds, alpha, x[i])
        assert (abs(sums[i] - per_pair)
                <= dephasing._PAIR_ROUNDING * per_pair_magnitude)
        assert magnitudes[i] <= per_pair_magnitude * (1.0 + 1e-12)
    alone = dephasing._pair_halves(x[5:6], np.zeros(1, np.intp), [terms],
                                   alpha)
    assert (alone[0][0], alone[1][0]) == (sums[5], magnitudes[5])


def _fresh(seq, spec, lengths):
    dephasing._unit_train.cache_clear()
    return train_overlaps(_counts(seq, lengths), spec, lengths)


@pytest.mark.parametrize("seq", [Free(), CpmgCount(3), CpmgCount(64),
                                 CpmgDensity(0.3)])
def test_length_does_not_depend_on_cache_state(seq):
    # each length alone on a cold cache is the reference
    spec = NoiseSpectrum(0.008, 1.2, 1e-3, 1e3)
    lengths = np.array([0.05, 1.0, 7.3, 30.0])
    alone = [_fresh(seq, spec, lengths[i:i + 1]) for i in range(lengths.size)]

    def same(batch, rows):
        for row, i in enumerate(rows):
            for got, want in zip(batch, alone[i]):
                assert got[row] == want[0]

    # after the panels were extended deeper, by a shorter length and by a
    # wider band at the same exponent
    _fresh(seq, spec, [1e-4])
    deep = NoiseSpectrum(0.008, 1.2, 1e-9, 1e3)
    train_overlaps(_counts(seq, [30.0]), deep, [30.0])
    for i in range(lengths.size):
        same(train_overlaps(_counts(seq, lengths[i:i + 1]), spec,
                            lengths[i:i + 1]), [i])
    # inside other batches, in reverse order, on a warm and a cold cache
    rows = [3, 0, 2, 1]
    same(train_overlaps(_counts(seq, lengths[rows]), spec, lengths[rows]),
         rows)
    same(_fresh(seq, spec, lengths[::-1]), [3, 2, 1, 0])
    for i in range(lengths.size):
        f, err = overlap_from_positions(sweep_positions(seq, lengths[i]),
                                        spec, lengths[i], with_error=True)
        assert (f, err) == (alone[i].value[0], alone[i].error[0])


def test_starved_run_leaves_no_trace_in_the_cache(monkeypatch):
    # under a tolerance of 1e-300 every band misses on its one pass and
    # is flagged; nothing of that run is kept, so a clean run afterwards
    # gets the cold-cache bits
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    lengths = np.array([0.05, 1.0, 30.0])
    clean = _fresh(CpmgCount(3), spec, lengths)
    monkeypatch.setattr(dephasing, "_LOW_TOL", 1e-300)
    bad = _fresh(CpmgCount(3), spec, lengths)
    monkeypatch.undo()
    assert not bad.converged.any()
    again = train_overlaps([3] * lengths.size, spec, lengths)
    for got, want in zip(again, clean):
        assert np.array_equal(got, want)


def test_threads_sharing_a_low_band_get_cold_cache_bits():
    # threads share one cached train, whose node table the first to
    # need it fills as one tuple, so a lost update costs only a second
    # evaluation, and every result keeps the bits of a lone cold run
    spec = NoiseSpectrum(0.008, 0.7, 1e-6, 1e3)
    lengths = [0.01, 0.3, 3.0, 30.0]
    want = [_fresh(CpmgCount(5), spec, [L]) for L in lengths]
    dephasing._unit_train.cache_clear()
    got = [[] for _ in range(8)]

    def work(i):
        for _ in range(10):
            got[i].append(train_overlaps([5], spec, [lengths[i % 4]]))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    for i, runs in enumerate(got):
        assert len(runs) == 10
        for run in runs:
            for part, reference in zip(run, want[i % 4]):
                assert part[0] == reference[0]


def test_panel_cache_is_bounded():
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    dephasing._unit_train.cache_clear()
    for pulses in range(80):
        train_overlaps([pulses], spec, [2.0])
    info = dephasing._unit_train.cache_info()
    assert info.misses == 80
    assert info.currsize == info.maxsize


TOLERANCE_SEQUENCES = [Free(), SpinEcho(), CpmgCount(3), CpmgCount(64),
                       CpmgDensity(0.3)]


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.7, 2.0])
@pytest.mark.parametrize("seq", TOLERANCE_SEQUENCES,
                         ids=lambda seq: repr(seq))
def test_each_length_meets_the_low_band_tolerance(seq, alpha):
    # the low band of every length, in the unit-amplitude w units of its
    # tolerance, meets 1e-8 abs + 1e-8 rel, and f
    # matches the full-band oracle wherever that is cheap
    lengths = np.array([0.05, 1.0, 7.3, 30.0])
    counts = _counts(seq, lengths)
    keys = sorted(set(counts))
    which = np.searchsorted(keys, counts)
    stretch = lengths ** (1.0 + alpha)
    for band in [(1e-3, 1e3), (0.05, 50.0), (2.0, 1e3), (1e-9, 1e9)]:
        spec = NoiseSpectrum(1.0, alpha, *band)
        low, low_err, converged, *_ = dephasing._unit_parts(
            keys, which, spec, lengths)
        assert converged.all()
        assert np.all(low_err * stretch <= 1e-8 + 1e-8 * low * stretch)

        f = train_overlaps(counts, spec, lengths).value
        for i, L in enumerate(lengths):
            if band[1] * L / np.pi * (counts[i] + 1) <= 2e4:
                assert f[i] == pytest.approx(
                    full_band_overlap(train(counts[i], L), spec, L),
                    rel=1e-10, abs=0.0)


BAD_PULSES = {
    "length zero": ([], 0.0),
    "length nan": ([1.0], np.nan),
    "unsorted": ([2.0, 1.0], 3.0),
    "repeated": ([1.0, 1.0, 2.0], 3.0),
    "at zero": ([0.0, 1.0], 3.0),
    "at the end": ([1.0, 3.0], 3.0),
    "unsorted and outside": ([3.5, 1.0], 3.0),
}


def test_nan_positions_are_rejected():
    # a NaN position compares false with everything, so it must fail the
    # gap test rather than pass it
    spec = NoiseSpectrum(0.008, 1.0)
    inside = "pulse positions must lie strictly inside"
    with pytest.raises(ValueError, match=inside):
        overlap_from_positions([np.nan], spec, 1.0)
    with pytest.raises(ValueError, match=inside):
        filter_generic([np.nan], 1.0, np.linspace(0.1, 5.0, 7))
    with pytest.raises(ValueError, match="strictly increasing"):
        check_positions([0.5, np.nan, 1.5], 2.0)


@pytest.mark.parametrize("first", sorted(BAD_PULSES))
def test_batch_position_check_raises_what_check_positions_raises(first):
    # batches are built from pulse counts; explicit positions run one
    # train at a time and get the check_positions verdict, before a zero
    # amplitude returns early
    positions, length = BAD_PULSES[first]
    expected = first_error(check_positions, [BAD_PULSES[first]])
    for amplitude in (0.008, 0.0):
        spectrum = NoiseSpectrum(amplitude, 1.0, 1e-3, 1e3)
        with pytest.raises(ValueError) as info:
            overlap_from_positions(positions, spectrum, length)
        assert str(info.value) == expected


@pytest.mark.parametrize("lengths,message", [
    ([1.0, 0.0], "length must be positive and finite, got 0.0"),
    ([np.inf, 1.0], "length must be positive and finite, got inf"),
    ([5e-323, 1e-322], "pulse positions must be strictly increasing"),
    ([1.0, 5e-324], "pulse positions must lie strictly inside"),
    ([5e-323, np.nan], "strictly increasing"),
    ([np.nan, 5e-323], "got nan")])
def test_count_built_trains_that_collapse_raise(lengths, message):
    # subnormal lengths round a train's positions together or onto an
    # end; the batch raises what check_positions says about the first
    # failing length's train, in index order
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    pulses = [20, 1] if lengths[1] == 5e-324 else [20, 20]
    with pytest.raises(ValueError, match=message):
        train_overlaps(pulses, spec, lengths)


@pytest.mark.parametrize("pulses", [[2, -1], [2.0, 1.0], [2, 1.5],
                                    [True, False], [2], [[2, 1]]])
def test_train_overlaps_rejects_bad_counts(pulses):
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    with pytest.raises(ValueError, match="pulse count"):
        train_overlaps(pulses, spec, [1.0, 2.0])


@pytest.mark.parametrize("band,lengths", [
    # uv L = 3 (series only), 8 (ends in panel 1), 11 (ends inside panel
    # 2), 15 (holds panel 2 whole) and 30 (spans [x0, top])
    ((1e-3, 10.0), [0.3, 0.8, 1.1, 1.5, 3.0]),
    # ir L = 11 (starts inside panel 2), 14 (starts past it) and 20
    # (past top: no low band)
    ((1.0, 100.0), [11.0, 14.0, 20.0]),
], ids=["uv-clipped", "ir-clipped"])
def test_missed_panel_flags_exactly_the_lengths_that_hold_it(monkeypatch,
                                                             band, lengths):
    # CPMG N = 3 has panels between 4, 6.97, 9.94, 12.91, 15.88 and
    # 6 pi; panel 2, [9.94, 12.91], misses its one pass wherever a band
    # holds it or part of it: exactly those lengths are flagged, with
    # their first-pass values, and every other length keeps its bits
    spec = NoiseSpectrum(0.008, 0.8, *band)
    lengths = np.array(lengths)
    want = _fresh(CpmgCount(3), spec, lengths)
    assert want.converged.all()
    unit = dephasing._unit_train(3)
    lo, hi = spec.ir_cutoff * lengths, spec.uv_cutoff * lengths
    holds = (np.maximum(lo, unit.x0) < unit.grid[3]) & (
        np.minimum(hi, unit.top) > unit.grid[2])
    _miss_first_pass(monkeypatch, unit.grid[2:4])
    got = _fresh(CpmgCount(3), spec, lengths)
    monkeypatch.undo()
    assert np.array_equal(got.converged, ~holds)
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.panels, want.panels)
    assert np.array_equal(got.error[~holds], want.error[~holds])
    assert (got.error[holds] == np.inf).all()


def _margin_trains():
    """Seeded explicit trains in units of their length: four clustered,
    their pulses within 1e-8 to 1e-1 of a centre, and four uniform ones
    with one more pulse 1e-10 to 1e-4 past their first."""
    rng = np.random.default_rng(2008)
    trains = []
    for k in range(8):
        n = int(rng.integers(2, 10))
        if k % 2:
            pos = rng.uniform(0.05, 0.95, n)
            pos = np.append(pos, pos.min() + 10.0 ** rng.uniform(-10, -4))
        else:
            pos = rng.uniform(0.1, 0.9) + 10.0 ** rng.uniform(-8, -1) * (
                rng.uniform(-1.0, 1.0, n))
        trains.append(check_positions(np.sort(pos), 1.0))
    return trains


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0])
def test_first_pass_error_is_within_a_tenth_of_its_tolerance(monkeypatch,
                                                             alpha):
    # no band is refined, so its one Gauss-Kronrod pass must meet its
    # tolerance; every spanning and partial band of train(N) and of the
    # seeded clustered and tiny-gap trains meets a tenth of it (the
    # largest seen over wider draws was 0.043, a clustered train at
    # alpha = 2), so a length converges at a tenth of _LOW_TOL
    monkeypatch.setattr(dephasing, "_LOW_TOL", dephasing._LOW_TOL / 10)
    bands = Counter()
    for name in ("_upper", "_partial"):
        def counted(*args, _band=getattr(dephasing, name), _name=name):
            bands[_name] += 1
            return _band(*args)
        monkeypatch.setattr(dephasing, name, counted)
    # on (1, 10), ir L >= x0 = 4 from L = 4 on: bands clipped below
    lengths = np.geomspace(1e-3, 50.0, 9)
    for band in [(1e-3, 1e3), (1.0, 10.0)]:
        spec = NoiseSpectrum(1.0, alpha, *band)
        for n in [*range(9), 16, 64, 128, 256]:
            assert train_overlaps([n] * lengths.size, spec,
                                  lengths).converged.all()
        for positions in _margin_trains():
            for length in (0.01, 0.3, 5.0):  # QuadratureError on a miss
                overlap_from_positions(positions * length, spec, length)
    # 17 spanning passes (one per train and call) and 83 partial bands
    assert bands["_upper"] >= 15 and bands["_partial"] >= 75, bands


def test_single_and_multi_band_batches_agree_bitwise():
    # a batch of mixed pulse counts runs its series, K and pair sums in
    # one pass over every count; a length gets the bits of its lone call
    spec = NoiseSpectrum(0.008, 1.4, 1e-3, 1e3)
    lone = train_overlaps([3], spec, [5.0])
    mixed = train_overlaps([0, 3, 9, 3], spec, [2.0, 5.0, 40.0, 9.0])
    for part, reference in zip(mixed, lone):
        assert part[1] == reference[0]


@pytest.mark.parametrize("spec,pulses,lengths", [
    # uv L <= top for N = 3 at 0.7 and N = 8 at 3.1, with the series-only
    # N = 0 at 0.2 and spanning N = 1 and N = 3 lengths beside them
    (NoiseSpectrum(0.008, 1.3, 1e-3, 10.0), [0, 1, 3, 8, 3, 1],
     [0.2, 0.9, 2.0, 3.1, 0.7, 4.0]),
    # ir L >= x0 = 4 at 4.5, 5.0 and 6.0; uv L <= top for N = 8 at 0.3
    (NoiseSpectrum(0.008, 0.6, 1.0, 100.0), [2, 8, 5, 8],
     [4.5, 5.0, 6.0, 0.3]),
])
def test_partial_low_bands_of_mixed_counts_match_lone_calls(monkeypatch, spec,
                                                            pulses, lengths):
    # lengths whose band only partly covers [x0, top] integrate their
    # part on their own train's segments; in a batch of mixed pulse
    # counts each row keeps the bits of its lone cold call, and no band,
    # spanning or partial, goes to the adaptive quadrature

    def unreachable(*args, **kwargs):
        raise AssertionError("integrate_panels called")

    monkeypatch.setattr(quadrature, "integrate_panels", unreachable)
    dephasing._unit_train.cache_clear()
    batch = train_overlaps(pulses, spec, lengths)
    assert batch.converged.all()
    for i, (n, length) in enumerate(zip(pulses, lengths)):
        dephasing._unit_train.cache_clear()
        lone = train_overlaps([n], spec, [length])
        for part, reference in zip(batch, lone):
            assert part[i] == reference[0]
        assert overlap_from_positions(train(n, length), spec, length,
                                      with_error=True) == \
            (batch.value[i], batch.error[i])


def test_length_above_max_length_raises():
    # L^(1+alpha) overflows past 1.34e154 at alpha = 1: a NaN overlap
    # flagged converged before this bound was checked
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    limit = dephasing.max_length(spec)
    assert limit == 1.3407807929929188e154
    with pytest.raises(ValueError, match=re.escape(f"above {limit}, where")):
        train_overlaps([0], spec, [8.3e297])
    with np.errstate(over="ignore"):  # x^2 in K at x = uv L, weighted 0
        at_limit = train_overlaps([0, 2], spec, [limit, 1e150])
    assert np.isfinite(at_limit.value).all() and at_limit.converged.all()
    # the bound sits just below the first overflow over all exponents
    for alpha in np.linspace(0.0, 2.0, 401):
        for uv in (1e-3, 1e3, 1e300):
            limit = dephasing.max_length(NoiseSpectrum(0.008, alpha,
                                                       1e-300, uv))
            with np.errstate(over="ignore"):
                for length, finite in ((limit, True),
                                       (limit * (1.0 + 3e-12), False)):
                    scaled = np.append(np.array([length]) ** (1.0 + alpha),
                                       uv * length)
                    assert np.isfinite(scaled).all() == finite


SERIES_COUNTS = [0, 1, 2, 3, 4, 7, 16, 64]


@pytest.mark.parametrize("pulses", SERIES_COUNTS)
def test_train_series_matches_exact_coefficients(pulses):
    # the coefficients from the closed-form table against the exact ones
    # from the train's rational boundaries: each is correctly rounded,
    # and as series on [0, x0] they agree to 1e-14 relative (summed
    # exactly)
    got = dephasing._unit_train(pulses).series
    want = exact_filter_series(exact_train_bounds(pulses), got.size)
    x0 = dephasing._unit_train(pulses).x0
    assert got.tolist() == [float(w) for w in want]
    for x in [1e-3, 0.1, 1.0, 2.5, x0]:
        power = Fraction(x) ** 2
        exact = sum(w * power ** m for m, w in enumerate(want))
        error = sum((Fraction(g) - w) * power ** m
                    for m, (g, w) in enumerate(zip(got.tolist(), want)))
        assert abs(error) <= 1e-14 * abs(exact)


def test_explicit_train_series_is_correctly_rounded():
    # an explicit train's coefficients are the exact ones of its float
    # boundaries, each correctly rounded
    bounds = np.array([0.0, 0.3, 0.35, 0.8, 1.0])
    got = dephasing._Train(bounds, *dephasing._separations(bounds)).series
    want = exact_filter_series([Fraction(b) for b in bounds], got.size)
    assert got.tolist() == [float(w) for w in want]


@pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-10])
def test_tiny_gap_runs_panels_only_up_to_uv_length(gap):
    # a gap g puts top = pi/g far above uv L = 1e3: the panels stop past
    # uv L (up to top, the 1e-10 gap asked for 74.5 GiB), and f is the
    # full-band oracle's; the band split in w at min(uv, pi/g) gave
    # 0.009970151466887005 at the 1e-10 gap too
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    positions = [0.5, 0.5 + gap]
    got = overlap_from_positions(positions, spec, 1.0)
    assert got == pytest.approx(full_band_overlap(positions, spec, 1.0),
                                rel=1e-13, abs=0.0)
    if gap == 1e-10:
        assert got == pytest.approx(0.009970151466887005, rel=1e-13, abs=0.0)
    bounds = np.array([0.0, 0.5, 0.5 + gap, 1.0])
    cut = dephasing._Train(bounds, *dephasing._separations(bounds), 1e3)
    assert cut.grid[-3] < 1e3 <= cut.grid[-1] and cut.grid.size < 330


def test_cut_grid_keeps_the_whole_grids_points():
    # a train cut at a reach keeps the first points of its whole grid,
    # bit for bit, up to one or two past the reach; at or above top it
    # is the whole grid
    bounds = np.array([0.0, 0.25, 0.25 + 1e-4, 0.7, 1.0])
    whole = dephasing._Train(bounds, *dephasing._separations(bounds)).grid
    for reach in (1.0, 4.0, 100.0, 1e3, 2e4, whole[-1], 1e9):
        cut = dephasing._Train(bounds, *dephasing._separations(bounds),
                               reach).grid
        assert cut.tolist() == whole[:cut.size].tolist()
        assert cut[-1] >= min(reach, whole[-1])
        assert cut.size == whole.size or cut.size == 2 or cut[-3] < reach


def test_train_positions_need_no_other_check(monkeypatch):
    # positions equal to train(N, L) at a spacing L/N of at least
    # 2^-1021 are checked by that equality; every other input still goes
    # through check_positions
    checked = []
    original = dephasing.check_positions

    def counted(positions, length):
        checked.append(length)
        return original(positions, length)

    monkeypatch.setattr(dephasing, "check_positions", counted)
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    same = overlap_from_positions(train(3, 2.0), spec, 2.0)
    assert checked == []
    assert same == train_overlaps([3], spec, [2.0]).value[0]
    overlap_from_positions([0.3, 1.1], spec, 2.0)
    assert checked == [2.0]
    with pytest.raises(ValueError, match="strictly increasing"):
        overlap_from_positions(train(20, 1e-322), spec, 1e-322)
    assert checked == [2.0, 1e-322]


@pytest.mark.parametrize("length", [np.array([1.0]), [1.0], np.ones((1, 1)),
                                    np.array([1.0, 2.0])])
def test_length_that_is_not_a_number_raises(length):
    # checked before anything else, so train(3, length) cannot broadcast
    # a one-element array into a train of three positions
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    message = re.escape(f"length must be a number, got {length}")
    for positions in ([0.5], [0.2, 0.5, 0.9], train(3, 1.0)):
        with pytest.raises(ValueError, match=message):
            overlap_from_positions(positions, spec, length)
    if isinstance(length, np.ndarray) and length.size == 1:
        for seq in (Free(), CpmgCount(3)):
            with pytest.raises(ValueError, match=message):
                overlap_integral(seq, spec, length)


@pytest.mark.parametrize("length", [np.array(2.0), np.float32(2.0),
                                    np.int64(2)])
def test_scalar_lengths_of_any_type_are_numbers(length):
    # a 0-d array, a float32 and an int64 length give the bits of 2.0
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    for seq in (Free(), CpmgCount(3)):
        assert overlap_integral(seq, spec, length) == overlap_integral(
            seq, spec, 2.0)
    assert overlap_from_positions([0.3, 1.1], spec, length) == \
        overlap_from_positions([0.3, 1.1], spec, 2.0)


EVERY_SEQUENCE = [Free(), SpinEcho(), CpmgCount(2), CpmgDensity(2.0)]


@pytest.mark.parametrize("seq", EVERY_SEQUENCE, ids=repr)
@pytest.mark.parametrize("length", [[1.0], np.array([1.0])],
                         ids=["list", "array"])
def test_every_sequence_rejects_a_length_that_is_not_a_number(seq, length):
    # the length is checked before the sequence counts its pulses, which
    # raised TypeError for a list (Free) or an array (CpmgDensity)
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    with pytest.raises(ValueError, match=re.escape(
            f"length must be a number, got {length}")):
        overlap_integral(seq, spec, length)


@pytest.mark.parametrize("seq", EVERY_SEQUENCE, ids=repr)
def test_every_sequence_takes_scalar_lengths_of_any_type(seq):
    spec = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
    for length in (np.array(1.0), np.float32(1.0)):
        assert overlap_integral(seq, spec, length) == overlap_integral(
            seq, spec, 1.0)


@pytest.mark.parametrize("ir", [1e-9, 1e-3, 1.0, 3.7])
def test_min_length_is_the_first_length_at_the_floor(ir):
    floor = dephasing.min_length(NoiseSpectrum(0.008, 1.0, ir, 1e3))
    assert ir * floor >= dephasing.X_MIN > ir * np.nextafter(floor, 0.0)
    if ir == 1e-9:  # X_MIN / ir rounds one ulp low here
        assert floor == np.nextafter(dephasing.X_MIN / ir, np.inf)


def test_length_below_the_floor_names_the_floor():
    with pytest.raises(ValueError, match=re.escape(
            f"ir_cutoff * length = 1.0000000000000001e-93 is below X_MIN = "
            f"{dephasing.X_MIN}, the documented floor of the length "
            f"domain")):
        train_overlaps([0], NoiseSpectrum(0.008), [1e-90])


@pytest.mark.parametrize("pulses", list(range(41)) + [64, 257])
def test_train_separations_are_the_exact_grouping(pulses):
    # the closed-form table of train(N) is the exact grouping of its
    # rational boundaries' pairs, with 2N distinct separations (1 for
    # free evolution): O(N), not the (N+2)(N+1)/2 pairs
    unit, steps, weights = dephasing._train_separations(pulses)
    want = sorted((d, w) for d, w in exact_pair_weights(
        exact_train_bounds(pulses)).items() if w)
    assert [(Fraction(s, unit), w) for s, w in zip(steps, weights)] == want
    assert len(steps) == max(1, 2 * pulses)


@pytest.mark.parametrize("pulses", [0, 1, 2, 16, 64])
@pytest.mark.parametrize("band", [(1e-3, 1.0), (1.0, 10.0)])
def test_short_band_matches_exact_series(pulses, band):
    # where uv L < x0 the whole band is the series from ir L to uv L; as
    # the difference of two series from x0 it lost up to all its digits
    # (f = 0 exactly, flagged converged, at 835 of 13,000 such lengths)
    pytest.importorskip("mpmath")
    x0 = dephasing._unit_train(pulses).x0
    lengths = np.geomspace(1e-4, 3.0, 12)
    lengths = lengths[band[1] * lengths < x0]
    for alpha in (0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.0):
        spec = NoiseSpectrum(0.008, alpha, *band)
        got = train_overlaps([pulses] * lengths.size, spec, lengths)
        want = [short_band_overlap(pulses, spec, length)
                for length in lengths]
        assert got.converged.all()
        np.testing.assert_allclose(got.value, want, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("pulses", SERIES_COUNTS)
def test_series_band_matches_quadrature(pulses):
    # int_a^x0 x^-(2+alpha) Fh dx by the termwise series against a
    # fine Gauss-Kronrod run over the closed-form filter, which keeps
    # full relative accuracy at small x where the segment sum cancels
    x0 = dephasing._unit_train(pulses).x0
    closed = (functools.partial(filters.filter_free, 1.0) if pulses == 0
              else functools.partial(filters.filter_spin_echo, 1.0)
              if pulses == 1
              else functools.partial(filters.filter_cpmg_closed, pulses, 1.0))
    for alpha in (0.0, 1.0, 2.0):
        weights = dephasing._termwise(dephasing._unit_train(pulses).series,
                                      x0, alpha)
        for a in (1e-8, 1e-3):
            ref = integrate_panels(lambda x: closed(x) * x ** -(2.0 + alpha),
                                   band_boundaries(a, x0, 0.5),
                                   atol=0.0, rtol=1e-14).value
            value, _ = dephasing._series(np.log(x0 / np.array([a])),
                                         *weights)
            assert value[0] == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("pulses", [[2 ** 51], [10 ** 20], [-1], [1.0],
                                    [3, 2 ** 50 + 1]])
def test_pulse_counts_outside_the_bound_raise_before_any_train(pulses):
    # each would otherwise ask for more memory than a host has, or be an
    # object array of counts beyond int64
    with pytest.raises(ValueError, match=r"integers from 0 to 2\*\*50"):
        train_overlaps(pulses, NoiseSpectrum(0.008), [1.0] * len(pulses))


def test_overlap_integral_of_a_count_past_the_bound_raises():
    with pytest.raises(ValueError, match=r"from 1 to 2\*\*50"):
        overlap_integral(CpmgCount(2 ** 51), NoiseSpectrum(0.008), 1.0)
