"""Property tests of the overlap integral over random spectra and pulses."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiberdd.dephasing as dephasing
from fiberdd.dephasing import overlap_from_positions, train_overlaps
from fiberdd.noise import NoiseSpectrum
from fiberdd.sequences import CpmgCount, CpmgDensity, Free, SpinEcho
from oracles import full_band_overlap

# Fixed example sequence per test: reruns are reproducible and no
# example database is written.
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)

@st.composite
def spectra(draw, max_uv=1e3):
    ir = draw(st.floats(1e-3, 1.0))
    uv = draw(st.floats(2.0 * ir, max_uv))
    return NoiseSpectrum(1.0, draw(st.floats(0.0, 2.0)), ir, uv)


@st.composite
def pulse_positions(draw, length, max_pulses=12):
    """Sorted, unequally spaced pulses; no segment below 1/20 of the mean."""
    n = draw(st.integers(0, max_pulses))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=n + 1,
                                  max_size=n + 1)))
    return length * np.cumsum(gaps)[:-1] / gaps.sum()


@st.composite
def tiny_gap_bounds(draw, max_pulses=12):
    """Boundaries of a unit-length train, 0 first and 1 last, whose
    segments may be as short as about 1e-12 (the last is never short)."""
    n = draw(st.integers(1, max_pulses))
    gaps = draw(st.lists(st.one_of(st.floats(0.05, 1.0),
                                   st.floats(1e-12, 1e-6)),
                         min_size=n, max_size=n))
    gaps = np.array(gaps + [draw(st.floats(0.05, 1.0))])
    bounds = np.concatenate(([0.0], np.cumsum(gaps) / gaps.sum()))
    bounds[-1] = 1.0
    return bounds


@st.composite
def configurations(draw, max_uv=1e3, max_length=40.0):
    """Pulses, a spectrum and a length, the length log-uniform in
    [0.05, max_length]."""
    spectrum = draw(spectra(max_uv))
    length = math.exp(draw(st.floats(math.log(0.05), math.log(max_length))))
    return draw(pulse_positions(length)), spectrum, length


@PROPERTY
@given(configurations())
def test_overlap_nonnegative(config):
    positions, spectrum, length = config
    assert overlap_from_positions(positions, spectrum, length) >= 0.0


@PROPERTY
@given(configurations(), st.floats(1e-6, 1e3), st.integers(-20, 20),
       st.floats(0.1, 10.0))
def test_overlap_linear_in_amplitude(config, amplitude, power, ratio):
    positions, unit, length = config

    def f(a):
        spec = NoiseSpectrum(a, unit.exponent, unit.ir_cutoff,
                             unit.uv_cutoff)
        return overlap_from_positions(positions, spec, length)

    base = f(amplitude)
    assert f(amplitude * 2.0 ** power) == base * 2.0 ** power
    assert f(amplitude * ratio) == pytest.approx(base * ratio, rel=1e-15)


@PROPERTY
@given(spectra(), st.floats(0.0, 1.0), st.floats(1e-4, 1.0))
def test_free_overlap_monotone_in_length(spectrum, where, step):
    # df/dL = (A/pi) L^alpha int_{ir L}^{uv L} t^-(1+alpha) sin t dt, which
    # is positive while ir * L <= pi/2: the lobe from pi/2 to pi outweighs
    # every later partial sum.  Beyond that a band-limited free f(L) can
    # oscillate.
    top = min(100.0, 0.5 * np.pi / spectrum.ir_cutoff)
    longer = 0.01 + where * (top - 0.01)
    shorter = longer / (1.0 + step)
    free = np.empty(0)
    assert overlap_from_positions(free, spectrum, shorter) < \
        overlap_from_positions(free, spectrum, longer)


@PROPERTY
@given(configurations(max_uv=200.0, max_length=10.0))
def test_overlap_matches_full_band_oracle(config):
    positions, spectrum, length = config
    assert overlap_from_positions(positions, spectrum, length) == \
        pytest.approx(full_band_overlap(positions, spectrum, length),
                      rel=1e-10, abs=0.0)


TINY = settings(PROPERTY, max_examples=20)


@TINY
@given(tiny_gap_bounds(), spectra(),
       st.lists(st.floats(0.05, 40.0), min_size=1, max_size=2),
       st.integers(-20, 20))
def test_tiny_gaps_give_finite_batch_independent_overlaps(bounds, spectrum,
                                                          lengths, power):
    # a segment far shorter than pi / (uv L) must not lay panels up to
    # pi / (that segment): each length gets a finite f >= 0, exactly
    # proportional to the amplitude, and its batch gives it the bits it
    # gets alone, although the batch runs its panels to the largest uv L
    lengths = np.array(lengths)

    def f(amplitude, rows):
        spec = NoiseSpectrum(amplitude, spectrum.exponent,
                             spectrum.ir_cutoff, spectrum.uv_cutoff)
        return dephasing._overlaps([bounds], np.zeros(rows.size, np.intp),
                                   spec, rows).value

    batch = f(1.0, lengths)
    assert np.isfinite(batch).all() and (batch >= 0.0).all()
    alone = [f(1.0, lengths[i:i + 1])[0] for i in range(lengths.size)]
    assert batch.tolist() == alone
    assert f(2.0 ** power, lengths).tolist() == (batch * 2.0 ** power).tolist()
    positions = bounds[1:-1] * lengths[0]
    assert overlap_from_positions(positions, spectrum, lengths[0]) >= 0.0


# CpmgDensity(0.3) is scaled as a train: its count at L is kept at cL.
@pytest.mark.parametrize("seq", [Free(), SpinEcho(), CpmgCount(3),
                                 CpmgCount(16), CpmgDensity(0.3)])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.37, 2.0])
def test_train_overlap_scales_with_length_and_band(seq, alpha):
    # an equally spaced train's filter depends on w*L alone, so
    # f(cL; ir/c, uv/c) = c^(1+alpha) f(L; ir, uv); c = 2^k keeps every
    # length, cut-off and position exactly scaled
    lengths = np.array([0.7, 7.3, 29.0])
    counts = [seq.pulse_count(L) for L in lengths]
    base = train_overlaps(counts, NoiseSpectrum(0.008, alpha, 1e-3, 1e3),
                          lengths).value
    for k in (-3, -1, 1, 2, 4):
        c = 2.0 ** k
        scaled = train_overlaps(
            counts, NoiseSpectrum(0.008, alpha, 1e-3 / c, 1e3 / c),
            c * lengths).value
        np.testing.assert_allclose(scaled, c ** (1.0 + alpha) * base,
                                   rtol=1e-13, atol=0.0)


# 1 +- 1e-9 is where _term_exponents switches the series term of e = 0 to
# its log form; 0 and 2 are the ends of the exponent's range.
EDGE_EXPONENTS = (0.0, 2.0, 1.0 - 1e-9, 1.0 + 1e-9)


@st.composite
def count_batches(draw, max_pulses=16):
    """A band and a batch of (pulse count, length) rows, uv L spread
    over 1e-3..1e3, the first row a short band (uv L below x0)."""
    ir = draw(st.floats(1e-3, 1.0))
    uv = min(ir * draw(st.floats(2.0, 1e4)), 1e3)
    # uv L of the first row: a decade, then 1..3 times it (3 < x0)
    short = draw(st.sampled_from([1e-3, 1e-2, 1e-1, 1.0])) * \
        draw(st.floats(1.0, 3.0))
    logs = draw(st.lists(st.floats(-3.0, 3.0), max_size=3))
    uv_lengths = np.array([short] + [10.0 ** x for x in logs])
    pulses = draw(st.lists(st.integers(0, max_pulses),
                           min_size=uv_lengths.size,
                           max_size=uv_lengths.size))
    return ir, uv, pulses, uv_lengths / uv


@PROPERTY
@given(count_batches(), st.sampled_from(EDGE_EXPONENTS),
       st.integers(-20, 20))
def test_edge_exponents_give_finite_batch_independent_overlaps(batch, alpha,
                                                               power):
    ir, uv, pulses, lengths = batch

    def f(amplitude, exponent, rows):
        spec = NoiseSpectrum(amplitude, exponent, ir, uv)
        return train_overlaps([pulses[i] for i in rows], spec,
                              lengths[rows]).value

    every = np.arange(lengths.size)
    values = f(1.0, alpha, every)
    assert np.isfinite(values).all() and (values >= 0.0).all()
    assert f(2.0 ** power, alpha, every).tolist() == \
        (values * 2.0 ** power).tolist()
    assert values.tolist() == [f(1.0, alpha, [i])[0] for i in every]
    if alpha not in (0.0, 2.0):
        # f moves by |d ln f / d alpha| 1e-9, at most |ln x| 1e-9 over
        # the band's x = w L, far below 1e-7 here
        flat = f(1.0, 1.0, every)
        assert np.abs(values / flat - 1.0).max() <= 1e-7
