"""Sweeps: decoherence curves, sudden-death length, pulse budgets."""

import math
import re

import numpy as np
import pytest

import fiberdd.evolution as evolution
from fiberdd.cli import main
from fiberdd.dephasing import SpectralProfile, coherence_factor, \
    overlap_integral
from fiberdd.evolution import (DEATH_LENGTH_RTOL, BestEstimate,
                               concurrence_at,
                               curve_death_length, decoherence_curve,
                               esd_length, min_pulses_for_target, refine_esd,
                               sweep_positions)
from fiberdd.noise import NoiseSpectrum
from fiberdd.quadrature import QuadratureError
from fiberdd.sequences import CpmgCount, CpmgDensity, Free, SpinEcho
from fiberdd.states import (apply_dephasing, bell_state, concurrence,
                            mixed_third_state, werner_state)
from oracles import bisect_esd

SPEC = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
PROF = SpectralProfile(1.0, 0.1)
STATE = mixed_third_state()


def test_curve_consistent_with_pointwise_route():
    lengths = np.linspace(1.0, 12.0, 6)
    curve = decoherence_curve(Free(), SPEC, PROF, STATE, lengths)
    assert curve.converged.all()
    for i, L in enumerate(lengths):
        f = overlap_integral(Free(), SPEC, L)
        assert curve.overlap[i] == f
        assert curve.gamma[i] == coherence_factor(f, PROF)
        assert curve.concurrence[i] == concurrence(
            apply_dephasing(STATE, curve.gamma[i]))


def test_curve_gamma_in_unit_interval_and_decreasing_for_free():
    curve = decoherence_curve(Free(), SPEC, PROF, STATE,
                              np.linspace(0.5, 15.0, 10))
    assert np.all((curve.gamma > 0.0) & (curve.gamma <= 1.0))
    assert np.all(np.diff(curve.gamma) < 0.0)


def test_curve_without_noise_is_flat():
    quiet = NoiseSpectrum(0.0, 1.0, 1e-3, 1e3)
    curve = decoherence_curve(Free(), quiet, PROF, STATE,
                              np.linspace(1.0, 20.0, 5))
    assert np.all(curve.gamma == 1.0)
    assert np.all(curve.concurrence == curve.concurrence[0])


def test_curve_input_validation():
    with pytest.raises(ValueError):
        decoherence_curve(Free(), SPEC, PROF, STATE, np.array([]))
    with pytest.raises(ValueError):
        decoherence_curve(Free(), SPEC, PROF, STATE, np.array([0.0, 1.0]))


def test_density_sweep_degrades_to_free_before_first_pulse():
    assert sweep_positions(CpmgDensity(0.06), 2.0).size == 0
    assert sweep_positions(CpmgDensity(0.06), 30.0).size == 2
    short = decoherence_curve(CpmgDensity(0.06), SPEC, PROF, STATE,
                              np.array([2.0]))
    free = decoherence_curve(Free(), SPEC, PROF, STATE, np.array([2.0]))
    assert short.gamma[0] == free.gamma[0]


def test_free_death_length_frozen_value():
    esd = esd_length(Free(), SPEC, PROF, STATE, 50.0)
    assert esd == pytest.approx(9.9266, abs=2e-3)


def test_spin_echo_death_length_frozen_value():
    esd = esd_length(SpinEcho(), SPEC, PROF, STATE, 50.0)
    assert esd == pytest.approx(28.052, abs=5e-3)


def test_death_length_none_when_window_too_short():
    assert esd_length(Free(), SPEC, PROF, STATE, 5.0) is None


def test_death_length_rejects_separable_state():
    with pytest.raises(ValueError):
        esd_length(Free(), SPEC, PROF, werner_state(0.2), 50.0)


def test_death_at_refined_point_brackets():
    esd = esd_length(Free(), SPEC, PROF, STATE, 50.0)
    from fiberdd.evolution import concurrence_at
    assert concurrence_at(Free(), SPEC, PROF, STATE, esd + 0.01) == 0.0
    assert concurrence_at(Free(), SPEC, PROF, STATE, esd - 0.01) > 0.0


def test_refine_esd_validates_bracket():
    with pytest.raises(ValueError):
        refine_esd(Free(), SPEC, PROF, STATE, 5.0, 4.0, tol=1e-4)


def test_bell_state_never_dies():
    # pure dephasing only drives Bell concurrence asymptotically to zero
    assert esd_length(Free(), SPEC, PROF, bell_state(), 30.0) is None


def test_min_pulses_frozen_value():
    budget = min_pulses_for_target(0.25, 20.0, SPEC, PROF, STATE)
    assert budget.required == 4
    assert np.array_equal(budget.pulse_counts, np.arange(5))
    assert budget.concurrence[-1] >= 0.25
    assert np.all(budget.concurrence[:-1] < 0.25)


def test_min_pulses_marks_unconverged_counts(monkeypatch):
    overlap = evolution.overlap_from_positions

    def flaky(positions, spectrum, length, **kwargs):
        value = overlap(positions, spectrum, length, **kwargs)
        if len(positions) == 2:
            raise QuadratureError("forced", value, 0.0, 1)
        return value

    clean = min_pulses_for_target(0.25, 20.0, SPEC, PROF, STATE)
    assert clean.converged.tolist() == [True] * 5
    monkeypatch.setattr(evolution, "overlap_from_positions", flaky)
    budget = min_pulses_for_target(0.25, 20.0, SPEC, PROF, STATE)
    assert budget.required == 4
    assert budget.converged.tolist() == [True, True, False, True, True]
    assert np.array_equal(budget.concurrence, clean.concurrence)
    marked = concurrence_at(CpmgCount(2), SPEC, PROF, STATE, 20.0)
    assert isinstance(marked, BestEstimate) and marked == clean.concurrence[2]
    monkeypatch.undo()
    assert type(concurrence_at(CpmgCount(2), SPEC, PROF, STATE,
                               20.0)) is float


def test_min_pulses_unreachable_within_budget():
    budget = min_pulses_for_target(0.3, 20.0, SPEC, PROF, STATE,
                                   max_pulses=1)
    assert budget.required is None
    assert budget.pulse_counts.size == 2


def test_min_pulses_target_validation():
    with pytest.raises(ValueError):
        min_pulses_for_target(0.5, 20.0, SPEC, PROF, STATE)  # above C(0)
    with pytest.raises(ValueError):
        min_pulses_for_target(0.0, 20.0, SPEC, PROF, STATE)
    with pytest.raises(ValueError):
        min_pulses_for_target(1.5, 20.0, SPEC, PROF, STATE)


# CpmgDensity(0.06) places its first pulse at L = 25/3, where Gamma jumps
# up by 0.12-0.13 on this weakly colored spectrum.  At amplitude 0.098
# the jump falls in the alive stretch (one crossing near 11.75), at 0.156
# in the dead stretch (one crossing near 6.01): Gamma is not monotone on
# [5, 12] either way, but C = 0 changes only once.
def _rising(amplitude):
    return NoiseSpectrum(amplitude, 0.25, 1e-3, 1e3)


ESD_BRACKETS = [
    (Free(), SPEC, 5.0, 12.0),
    (SpinEcho(), SPEC, 20.0, 40.0),
    (CpmgDensity(0.06), _rising(0.098), 5.0, 12.0),
    (CpmgDensity(0.06), _rising(0.156), 5.0, 12.0),
]


@pytest.mark.parametrize("seq,spec,alive,dead", ESD_BRACKETS)
@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_secant_refinement_matches_bisection(monkeypatch, seq, spec, alive,
                                             dead, tol):
    probes = []
    coherence_at = evolution.coherence_at

    def recorded(seq, spectrum, profile, length):
        probes.append(length)
        return coherence_at(seq, spectrum, profile, length)

    monkeypatch.setattr(evolution, "coherence_at", recorded)
    esd = refine_esd(seq, spec, PROF, STATE, alive, dead, tol=tol)
    monkeypatch.undo()

    assert abs(esd - bisect_esd(seq, spec, PROF, STATE, alive, dead,
                                tol=tol)) <= tol
    # the returned point sits between an evaluated alive point and an
    # evaluated dead one, each within tol
    state = [(L, concurrence_at(seq, spec, PROF, STATE, L) == 0.0)
             for L in probes]
    assert any(esd - tol <= L < esd and not is_dead for L, is_dead in state)
    assert any(esd < L <= esd + tol and is_dead for L, is_dead in state)
    # two endpoint evaluations plus far fewer probes than bisection's
    # log2((dead - alive) / tol)
    assert len(probes) - 2 < 0.75 * np.log2((dead - alive) / tol)


def test_refinement_survives_misleading_secant_values(monkeypatch):
    # Gamma values that point the secant the wrong way (the threshold
    # moved) leave bisection in charge; the invariant still holds
    monkeypatch.setattr(evolution, "esd_threshold_gamma", lambda state: 2.0)
    esd = refine_esd(Free(), SPEC, PROF, STATE, 5.0, 12.0, tol=1e-6)
    monkeypatch.undo()
    assert abs(esd - bisect_esd(Free(), SPEC, PROF, STATE, 5.0, 12.0,
                                tol=1e-6)) <= 1e-6


def test_refinement_worst_case_is_twice_bisection(monkeypatch):
    # a kinked Gamma (slopes 1500 times apart across the crossing at 7)
    # stalls the secant; bisecting after every step that does not halve
    # the bracket keeps the probe count within twice bisection's
    def kinked(seq, spectrum, profile, length):
        probes.append(length)
        if length > 7.0:
            return 0.5 * np.exp(-3.0 * (length - 7.0))
        return 0.5 + 1e-3 * (7.0 - length)

    for tol in (1e-3, 1e-7):
        probes = []
        monkeypatch.setattr(evolution, "coherence_at", kinked)
        esd = refine_esd(Free(), SPEC, PROF, STATE, 1.0, 13.0, tol=tol)
        monkeypatch.undo()
        assert abs(esd - 7.0) <= tol
        assert len(probes) - 2 <= 2 * np.ceil(np.log2(12.0 / tol))


def _record_probes(monkeypatch):
    probes = []
    coherence_at = evolution.coherence_at

    def recorded(seq, spectrum, profile, length):
        probes.append(length)
        return coherence_at(seq, spectrum, profile, length)

    monkeypatch.setattr(evolution, "coherence_at", recorded)
    return probes


def _assert_refined(seq, spec, esd, probes, alive, dead, tol):
    assert abs(esd - bisect_esd(seq, spec, PROF, STATE, alive, dead,
                                tol=tol)) <= tol
    state = [(L, concurrence_at(seq, spec, PROF, STATE, L) == 0.0)
             for L in probes]
    assert any(esd - tol <= L < esd and not is_dead for L, is_dead in state)
    assert any(esd < L <= esd + tol and is_dead for L, is_dead in state)


def _seeded_and_unseeded(monkeypatch, seq, spec, curve, alive, dead, tol):
    """Death length from the curve, its probes, and the probe count of
    the same bracket refined without the curve's values."""
    probes = _record_probes(monkeypatch)
    esd = curve_death_length(seq, spec, PROF, STATE, curve, tol=tol)
    seeded = list(probes)
    probes.clear()
    refine_esd(seq, spec, PROF, STATE, alive, dead, tol=tol)
    monkeypatch.undo()
    return esd, seeded, len(probes)


@pytest.mark.parametrize("seq,spec,alive,dead", ESD_BRACKETS)
@pytest.mark.parametrize("tol", [1e-3, 1e-6])
def test_curve_seeded_refinement_matches_bisection(monkeypatch, seq, spec,
                                                   alive, dead, tol):
    # the bracket's ends and their outer neighbours as a curve's grid
    half = 0.5 * (dead - alive)
    curve = decoherence_curve(seq, spec, PROF, STATE,
                              [alive - half, alive, dead, dead + half])
    assert list(curve.concurrence[:3] == 0.0) == [False, False, True]
    esd, seeded, unseeded = _seeded_and_unseeded(monkeypatch, seq, spec,
                                                 curve, alive, dead, tol)
    _assert_refined(seq, spec, esd, seeded, alive, dead, tol)
    # the curve's values stand in for both end evaluations, and inverse
    # quadratic steps from them need few probes (regula falsi from the
    # same ends takes up to 11 on these brackets)
    assert alive not in seeded and dead not in seeded
    assert len(seeded) < unseeded
    assert len(seeded) <= 6


@pytest.mark.parametrize("seq,alpha,length_max", [
    (Free(), 1.0, 20.0), (Free(), 1.0, 50.0), (Free(), 1.5, 12.0),
    (SpinEcho(), 1.0, 50.0), (SpinEcho(), 1.5, 30.0),
])
def test_sixteen_point_curve_refines_in_three_probes(monkeypatch, seq, alpha,
                                                     length_max):
    # ln L is nearly linear in ln(-ln Gamma) within one pulse count, so
    # the interpolation through the bracket and its neighbours lands
    # within a fraction of tol, and the probe placed tol/4 past it and
    # the next close the bracket
    spec = NoiseSpectrum(0.008, alpha, 1e-3, 1e3)
    grid = np.linspace(0.0, length_max, 17)[1:]
    curve = decoherence_curve(seq, spec, PROF, STATE, grid)
    i = int(np.flatnonzero(curve.concurrence == 0.0)[0])
    assert i > 0
    tol = DEATH_LENGTH_RTOL * length_max
    probes = _record_probes(monkeypatch)
    esd = curve_death_length(seq, spec, PROF, STATE, curve, tol=tol)
    seeded = list(probes)
    monkeypatch.undo()
    assert len(seeded) <= 3
    _assert_refined(seq, spec, esd, seeded, grid[i - 1], grid[i], tol)


# CpmgDensity(0.06) gets its first pulse at L = 25/3, where Gamma jumps.
# At amplitude 0.156 the grid point after the dead end has it; at 0.098
# the one before the alive end does not; in the last case the bracket
# itself straddles it.  No value across the jump may seed the
# interpolation, so only the bracket ends do in the last case.
@pytest.mark.parametrize("amplitude,lengths,seeds", [
    (0.156, [4.0, 5.5, 6.5, 8.5], [4.0, 5.5, 6.5]),
    (0.098, [8.0, 11.0, 12.0, 13.0], [11.0, 12.0, 13.0]),
    (0.156, [4.0, 5.5, 8.5, 10.0], [5.5, 8.5]),
])
def test_seeds_share_the_brackets_pulse_count(monkeypatch, amplitude,
                                              lengths, seeds):
    seq, spec, tol = CpmgDensity(0.06), _rising(amplitude), 1e-6
    curve = decoherence_curve(seq, spec, PROF, STATE, lengths)
    assert list(curve.concurrence[:3] == 0.0) == [False, False, True]
    passed = []
    refine = evolution.refine_esd

    def spy(*args, known, **kwargs):
        passed.extend(length for length, _ in known)
        return refine(*args, known=known, **kwargs)

    monkeypatch.setattr(evolution, "refine_esd", spy)
    esd, seeded, unseeded = _seeded_and_unseeded(
        monkeypatch, seq, spec, curve, lengths[1], lengths[2], tol)
    assert sorted(passed) == seeds
    _assert_refined(seq, spec, esd, seeded, lengths[1], lengths[2], tol)
    assert len(seeded) < unseeded


def _fail_first_probe(monkeypatch):
    """Make the first one-length overlap raise QuadratureError, with its
    converged value attached as the best estimate."""
    overlap = evolution.overlap_from_positions
    failed = []

    def flaky(positions, spectrum, length, **kwargs):
        value = overlap(positions, spectrum, length, **kwargs)
        if not failed:
            failed.append(length)
            raise QuadratureError("forced", value, 0.0, 1)
        return value

    monkeypatch.setattr(evolution, "overlap_from_positions", flaky)
    return failed


def test_unconverged_probe_marks_the_death_length(monkeypatch):
    clean = esd_length(Free(), SPEC, PROF, STATE, 50.0)
    assert type(clean) is not BestEstimate
    failed = _fail_first_probe(monkeypatch)
    marked = esd_length(Free(), SPEC, PROF, STATE, 50.0)
    assert len(failed) == 1
    assert isinstance(marked, BestEstimate) and marked == clean


def test_unconverged_curve_point_marks_the_death_length():
    curve = decoherence_curve(Free(), SPEC, PROF, STATE,
                              np.linspace(2.5, 20.0, 8))
    clean = curve_death_length(Free(), SPEC, PROF, STATE, curve, tol=1e-6)
    curve.converged[3] = False  # the bracket's dead end, L = 10
    assert curve.concurrence[3] == 0.0 and curve.concurrence[2] > 0.0
    marked = curve_death_length(Free(), SPEC, PROF, STATE, curve, tol=1e-6)
    assert isinstance(marked, BestEstimate) and marked == clean


# Solves Gamma(f*) = 1/2, the paper state's threshold, at w0 = 1, s = 0.1.
F_STAR = 0.6944765127387944


@pytest.mark.parametrize("pulses", [1, 4, 16])
@pytest.mark.parametrize("alpha", [0.6, 1.4])
def test_wide_band_death_length_matches_closed_form(tmp_path, capsys,
                                                    pulses, alpha):
    # On a band wide enough to stand for (0, inf), f(L) = (A/pi) L^mu
    # c(N) with mu = 1 + alpha: every boundary pair of the train adds
    # -u_j u_k d_jk^mu times the continued tail integral
    # K(0) = -Gamma(-mu) cos(pi mu / 2), the d_jk in units of L.  No
    # quadrature is involved in this reference.
    mu = 1.0 + alpha
    bounds = np.concatenate(([0.0], (np.arange(1, pulses + 1) - 0.5)
                             / pulses, [1.0]))
    weights = np.array([-1.0] + [2.0 * (-1) ** k for k in range(pulses)]
                       + [(-1.0) ** pulses])
    j, k = np.triu_indices(bounds.size, 1)
    pair_sum = float(np.sum(-weights[j] * weights[k]
                            * (bounds[k] - bounds[j]) ** mu))
    c = -math.gamma(-mu) * math.cos(math.pi * mu / 2.0) * pair_sum
    expected = (math.pi * F_STAR / (0.008 * c)) ** (1.0 / mu)

    length_max = 2.0 * expected
    code = main(["simulate", "--sequence", "cpmg", "--pulses", str(pulses),
                 "--alpha", str(alpha), "--ir-cutoff", "1e-9",
                 "--uv-cutoff", "1e9", "--length-max", repr(length_max),
                 "--out", str(tmp_path / "curve.csv")])
    assert code == 0
    found = float(re.search(r"esd_length = (\S+);",
                            capsys.readouterr().out).group(1))
    assert abs(found - expected) <= (DEATH_LENGTH_RTOL * length_max
                                     + 1e-8 * expected)


def test_curve_of_a_collapsing_train_raises():
    # at subnormal lengths the 20 positions round together
    with pytest.raises(ValueError,
                       match="pulse positions must be strictly increasing"):
        decoherence_curve(CpmgCount(20), SPEC, PROF, STATE, [5e-323, 1e-322])


def test_dead_first_point_walks_down_to_an_alive_length(monkeypatch):
    # every grid point is dead, and so is a billionth of the first one:
    # the bracket must still start from a length its probe found alive
    with pytest.raises(ValueError, match="alive_length .* is dead"):
        refine_esd(Free(), SPEC, PROF, STATE, 1e20, 1e40, tol=1e33)
    curve = decoherence_curve(Free(), SPEC, PROF, STATE, [1e40, 2e40])
    assert not curve.concurrence.any()
    brackets = []
    refine = evolution.refine_esd

    def spy(seq, spectrum, profile, state, alive, dead, **kwargs):
        brackets.append((alive, dead))
        return refine(seq, spectrum, profile, state, alive, dead, **kwargs)

    monkeypatch.setattr(evolution, "refine_esd", spy)
    esd = curve_death_length(Free(), SPEC, PROF, STATE, curve, tol=1e-6)
    [(alive, dead)] = brackets
    assert (alive, dead) == (1e40 * 1e-9 * 1e-9 * 1e-9 * 1e-9 * 1e-9,
                             1e40 * 1e-9 * 1e-9 * 1e-9 * 1e-9)
    assert concurrence_at(Free(), SPEC, PROF, STATE, alive) > 0.0
    assert concurrence_at(Free(), SPEC, PROF, STATE, dead) == 0.0
    assert abs(esd - esd_length(Free(), SPEC, PROF, STATE, 50.0)) <= 1e-5
