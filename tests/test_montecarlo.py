"""Monte Carlo estimator: statistics, determinism, guardrails."""

import math

import numpy as np
import pytest

from fiberdd.dephasing import SpectralProfile, coherence_factor, \
    overlap_integral
from fiberdd import montecarlo
from fiberdd.montecarlo import (MAX_GRID_POINTS, McResult, McSettings,
                                _fill_trials, _phase_weights, _worker_count,
                                auto_resolution, mc_coherence,
                                sample_trajectory, trajectory_grid,
                                validate_settings, z_score)
from fiberdd.noise import NoiseSpectrum
from fiberdd.sequences import CpmgCount, Free, SpinEcho

SPEC = NoiseSpectrum(0.5, 1.0, 0.05, 50.0)
PROF = SpectralProfile(1.0, 0.1)


def manual_estimate(seq, spec, prof, length, settings):
    """Independent re-derivation: explicit trajectories, signed trapezoid
    phase, serial fsum reduction."""
    pos = seq.positions(length)
    cos_terms, sin_terms = [], []
    for t in range(settings.trials):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=settings.seed, spawn_key=(t,)))
        grid, beta = sample_trajectory(
            spec, length, rng, resolution=settings.resolution,
            frequency_modes=settings.frequency_modes)
        photon = rng.normal(prof.omega0, prof.sigma / np.sqrt(2.0)) \
            if prof.sigma > 0.0 else prof.omega0
        mids = 0.5 * (grid[:-1] + grid[1:])
        signs = np.where(np.searchsorted(pos, mids, side="left") % 2,
                         -1.0, 1.0)
        step = grid[1] - grid[0]
        phase = photon * float(
            np.sum(signs * 0.5 * (beta[:-1] + beta[1:]) * step))
        cos_terms.append(math.cos(phase))
        sin_terms.append(math.sin(phase))
    return (math.fsum(cos_terms) / len(cos_terms),
            math.fsum(sin_terms) / len(sin_terms))


def test_zero_noise_gives_exact_unity():
    quiet = NoiseSpectrum(0.0, 1.0, 0.05, 50.0)
    res = mc_coherence(Free(), quiet, PROF, 2.0,
                       McSettings(trials=50, resolution=32))
    assert res.estimate == 1.0
    assert res.std_error == 0.0
    assert res.imag_mean == 0.0
    assert z_score(res, 1.0) == 0.0


def test_matches_serial_trajectory_reimplementation():
    for seq in (Free(), SpinEcho()):
        settings = McSettings(trials=6, seed=11, resolution=32)
        res = mc_coherence(seq, SPEC, PROF, 2.0, settings)
        est, imag = manual_estimate(seq, SPEC, PROF, 2.0, settings)
        assert res.estimate == pytest.approx(est, abs=5e-12)
        assert res.imag_mean == pytest.approx(imag, abs=5e-12)


def test_agrees_with_analytic_route():
    settings = McSettings(trials=4000, seed=3, resolution=32)
    analytic = coherence_factor(overlap_integral(Free(), SPEC, 2.0), PROF)
    res = mc_coherence(Free(), SPEC, PROF, 2.0, settings)
    assert abs(res.estimate - analytic) < 3.0 * res.std_error
    assert -1.0 <= res.estimate <= 1.0


def test_imaginary_part_consistent_with_zero():
    res = mc_coherence(Free(), SPEC, PROF, 2.0,
                       McSettings(trials=4000, seed=5, resolution=32))
    assert abs(res.imag_mean) <= 4.0 * res.imag_std_error


def test_bit_identical_rerun_and_seed_sensitivity():
    settings = McSettings(trials=500, seed=42, resolution=32)
    a = mc_coherence(Free(), SPEC, PROF, 2.0, settings)
    b = mc_coherence(Free(), SPEC, PROF, 2.0, settings)
    assert (a.estimate, a.std_error, a.imag_mean) == \
        (b.estimate, b.std_error, b.imag_mean)
    c = mc_coherence(Free(), SPEC, PROF, 2.0,
                     McSettings(trials=500, seed=43, resolution=32))
    assert c.estimate != a.estimate


def test_trial_ranges_are_split_invariant():
    settings = McSettings(trials=23, seed=4, resolution=64)
    length = 2.0
    weights = _phase_weights(CpmgCount(4).positions(length), length, SPEC,
                             settings)
    n = settings.trials
    whole = np.empty(n), np.empty(n)
    _fill_trials(*whole, 0, n, *weights, PROF, settings)
    split = np.empty(n), np.empty(n)
    for lo, hi in ((7, n), (0, 1), (1, 7)):
        _fill_trials(*split, lo, hi, *weights, PROF, settings)
    assert np.array_equal(whole[0], split[0])
    assert np.array_equal(whole[1], split[1])


def test_result_does_not_depend_on_worker_count(monkeypatch):
    settings = McSettings(trials=61, seed=8, resolution=32)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(montecarlo, "_worker_count",
                            lambda trials, w=workers: w)
        results.append(mc_coherence(SpinEcho(), SPEC, PROF, 2.0, settings))
    assert results[0] == results[1] == results[2]


def test_worker_count_respects_cpus_and_small_calls(monkeypatch):
    monkeypatch.setattr(montecarlo.os, "sched_getaffinity",
                        lambda pid: {0, 2, 5}, raising=False)
    assert _worker_count(2) == 1
    assert _worker_count(600) == 2
    assert _worker_count(10**7) == 3
    # no affinity API: fall back to the CPU count
    monkeypatch.delattr(montecarlo.os, "sched_getaffinity")
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: None)
    assert _worker_count(10**7) == 1
    monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
    assert _worker_count(10**7) == 4


def test_phase_weights_reproduce_overlap_integral():
    # Given the weights, the trial phase per unit photon frequency is
    # Gaussian with variance |cos_w|^2 + |sin_w|^2, so the estimator's
    # expectation is the coherence factor of half that variance: a
    # deterministic check on the discretization bias, next to the
    # statistical z-score checks.
    length = 2.0
    for amp in (0.15, 0.75):
        spectrum = NoiseSpectrum(amp, 1.0, 0.05, 50.0)
        for seq in (Free(), SpinEcho(), CpmgCount(4)):
            positions = seq.positions(length)
            settings = McSettings(
                resolution=auto_resolution(positions, length, spectrum))
            cos_w, sin_w = _phase_weights(positions, length, spectrum,
                                          settings)
            implied = 0.5 * (cos_w @ cos_w + sin_w @ sin_w)
            assert implied == pytest.approx(
                overlap_integral(seq, spectrum, length), rel=1e-2)


def test_quadrupling_trials_roughly_halves_std_error():
    small = mc_coherence(Free(), SPEC, PROF, 2.0,
                         McSettings(trials=800, seed=9, resolution=32))
    big = mc_coherence(Free(), SPEC, PROF, 2.0,
                       McSettings(trials=3200, seed=9, resolution=32))
    ratio = big.std_error / small.std_error
    assert 0.4 <= ratio <= 0.6


def test_echo_suppression_visible_stochastically():
    strong = NoiseSpectrum(0.75, 1.0, 0.05, 50.0)
    settings = McSettings(trials=2000, seed=17, resolution=64)
    free = mc_coherence(Free(), strong, PROF, 2.0, settings)
    cpmg = mc_coherence(CpmgCount(4), strong, PROF, 2.0, settings)
    assert cpmg.estimate > free.estimate


def test_trajectory_variance_matches_correlation():
    rng = np.random.default_rng(20260815)
    trials = 4000
    grids = np.empty((trials, 33))
    for t in range(trials):
        _, beta = sample_trajectory(SPEC, 1.0, rng, resolution=32,
                                    frequency_modes=2048)
        grids[t] = beta
    var = grids.var(axis=0, ddof=1).mean()
    assert var == pytest.approx(SPEC.correlation(0.0), rel=0.05)
    # pointwise means consistent with zero
    sd = grids.std(axis=0, ddof=1) / np.sqrt(trials)
    assert np.all(np.abs(grids.mean(axis=0)) <= 5.0 * sd)


def test_trajectory_covariance_matches_correlation_at_lag():
    rng = np.random.default_rng(99)
    trials = 4000
    lag = 16  # 0.5 length units at resolution 32
    acc = np.empty(trials)
    for t in range(trials):
        _, beta = sample_trajectory(SPEC, 1.0, rng, resolution=32,
                                    frequency_modes=2048)
        acc[t] = np.mean(beta[:-lag] * beta[lag:])
    expected = SPEC.correlation(0.5)
    assert abs(acc.mean() - expected) < 0.05 * SPEC.correlation(0.0)


def test_auto_resolution_covers_band_and_gaps():
    assert auto_resolution(np.empty(0), 2.0, SPEC) == 32
    assert auto_resolution(CpmgCount(4).positions(2.0), 2.0, SPEC) == 64


def test_guardrails_report_each_problem():
    coarse = validate_settings(np.empty(0), 2.0, SPEC,
                               McSettings(resolution=4))
    assert any("noise period" in p for p in coarse)

    tight = validate_settings(CpmgCount(20).positions(2.0), 2.0, SPEC,
                              McSettings(resolution=32))
    assert any("pulse gap" in p for p in tight)

    few_modes = validate_settings(np.empty(0), 2.0, SPEC,
                                  McSettings(resolution=32,
                                             frequency_modes=128))
    assert any("spectral edge" in p for p in few_modes)

    long_fiber = validate_settings(np.empty(0), 300.0, SPEC,
                                   McSettings(resolution=32))
    assert any("too coarse for length" in p for p in long_fiber)

    huge = validate_settings(np.empty(0), 100.0, SPEC,
                             McSettings(resolution=200_000))
    assert any(str(MAX_GRID_POINTS) in p for p in huge)


def test_mc_coherence_rejects_bad_settings_with_full_report():
    with pytest.raises(ValueError) as info:
        mc_coherence(CpmgCount(20), SPEC, PROF, 2.0,
                     McSettings(resolution=4, frequency_modes=128))
    text = str(info.value)
    assert "noise period" in text
    assert "pulse gap" in text
    assert "spectral edge" in text


def test_z_score_conventions():
    assert z_score(McResult(1.0, 0.0, 0.0, 0.0, 10), 1.0) == 0.0
    assert z_score(McResult(0.9, 0.0, 0.0, 0.0, 10), 1.0) == -np.inf
    assert z_score(McResult(0.8, 0.05, 0.0, 0.0, 10), 0.7) == \
        pytest.approx(2.0)


def test_trajectory_grid_shape():
    grid = trajectory_grid(2.0, 32)
    assert grid.size == 65
    assert grid[0] == 0.0 and grid[-1] == 2.0
    with pytest.raises(ValueError):
        trajectory_grid(0.0, 32)


def test_settings_validation():
    with pytest.raises(ValueError):
        McSettings(trials=1)
    with pytest.raises(ValueError):
        McSettings(seed=-1)
    with pytest.raises(ValueError):
        McSettings(resolution=0)
    with pytest.raises(ValueError):
        McSettings(frequency_modes=1)
