"""Pulse placement policies."""

import re

import numpy as np
import pytest

from fiberdd.sequences import (MAX_PULSES, CpmgCount, CpmgDensity, Free,
                               SequenceDegenerateError, SpinEcho, is_finite,
                               train)


def test_free_and_se_positions():
    assert Free().positions(7.0).size == 0
    assert np.array_equal(SpinEcho().positions(7.0), [3.5])


def test_cpmg_equal_spacing_rule():
    L, N = 12.0, 5
    pos = CpmgCount(N).positions(L)
    assert np.array_equal(pos, (np.arange(1, N + 1) - 0.5) * (L / N))
    assert np.allclose(pos, (np.arange(1, N + 1) - 0.5) * L / N,
                       rtol=1e-15, atol=0)
    assert pos[0] > 0.0 and pos[-1] < L
    assert np.all(np.diff(pos) > 0.0)


def test_cpmg_symmetric_about_midpoint():
    pos = CpmgCount(8).positions(10.0)
    assert np.allclose(pos + pos[::-1], 10.0, rtol=0, atol=1e-12)


def test_cpmg_one_pulse_is_spin_echo():
    assert np.array_equal(CpmgCount(1).positions(9.0),
                          SpinEcho().positions(9.0))


def test_density_matches_count_bitwise():
    L, n = 23.0, 0.31  # round(n L) = 7
    assert np.array_equal(CpmgDensity(n).positions(L),
                          CpmgCount(7).positions(L))
    assert CpmgDensity(n).pulse_count(L) == 7


def test_density_degenerate_raises():
    with pytest.raises(SequenceDegenerateError):
        CpmgDensity(0.1).positions(2.0)


def test_sign_at_toggles_strictly_after_pulse():
    se = SpinEcho()
    assert se.sign_at(0.0, 10.0) == 1.0
    assert se.sign_at(4.999, 10.0) == 1.0
    assert se.sign_at(5.0, 10.0) == 1.0  # pulses strictly before count
    assert se.sign_at(5.001, 10.0) == -1.0
    assert se.sign_at(10.0, 10.0) == -1.0


def test_sign_at_alternates_over_cpmg_segments():
    seq = CpmgCount(4)
    L = 8.0
    mids = [0.5, 2.0, 4.0, 6.0, 7.5]  # one point inside each segment
    signs = [seq.sign_at(m, L) for m in mids]
    assert signs == [1.0, -1.0, 1.0, -1.0, 1.0]


def test_sign_at_domain():
    with pytest.raises(ValueError):
        Free().sign_at(-0.1, 1.0)
    with pytest.raises(ValueError):
        Free().sign_at(1.1, 1.0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        CpmgCount(0)
    with pytest.raises(ValueError):
        CpmgCount(2).positions(0.0)
    with pytest.raises(ValueError):
        CpmgDensity(0.0)
    with pytest.raises(ValueError):
        CpmgDensity(-0.5)
    with pytest.raises(ValueError):
        SpinEcho().positions(-1.0)


@pytest.mark.parametrize("seq,count", [(Free(), 0), (SpinEcho(), 1),
                                       (CpmgCount(5), 5),
                                       (CpmgDensity(0.6), 4)])
def test_positions_follow_from_the_pulse_count(seq, count):
    assert seq.pulse_count(7.3) == count
    assert np.array_equal(seq.positions(7.3), train(count, 7.3))
    with pytest.raises(ValueError, match="length"):
        seq.pulse_count(0.0)


def test_train_is_the_closed_form():
    for length in (0.3, 7.3, 29.0):
        assert np.array_equal(train(5, length),
                              (np.arange(1, 6) - 0.5) * (length / 5))
    assert train(0, 2.0).shape == (0,)


@pytest.mark.parametrize("value", [
    1.5, -0.0, np.inf, -np.inf, np.nan, np.float64(2.0), np.float64(np.nan),
    np.float32(np.inf), 3, True, 10 ** 400, "1.0", None, 1 + 2j,
    np.array(2.0), np.array([1.0]), np.array([1.0, np.inf])])
def test_is_finite_answers_and_raises_as_numpy(value):
    # a float takes the math.isfinite route; everything else, numpy's
    def outcome(check):
        try:
            return np.asarray(check(value)).tolist()
        except Exception as exc:  # the type is what must agree
            return type(exc)
    assert outcome(is_finite) == outcome(np.isfinite)


def test_pulse_counts_stop_at_max_pulses():
    # 2**50 is the largest count train_overlaps places without a check
    assert MAX_PULSES == 2 ** 50
    assert CpmgCount(MAX_PULSES).pulse_count(1.0) == MAX_PULSES
    assert CpmgDensity(1.0).pulse_count(float(MAX_PULSES)) == MAX_PULSES
    for count in (MAX_PULSES + 1, 10 ** 20, np.uint64(2 ** 63)):
        with pytest.raises(ValueError, match=r"from 1 to 2\*\*50"):
            CpmgCount(count)
    for density, length in ((1.0, 2.0 ** 51), (1e308, 10.0), (1e20, 15.0)):
        with pytest.raises(ValueError, match=re.escape(
                f"density * length = {density * length} is above 2**50")):
            CpmgDensity(density).pulse_count(length)
