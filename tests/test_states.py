"""X states, the dephasing channel, and concurrence."""

from fractions import Fraction

import numpy as np
import pytest
from oracles import eigen_concurrence, sorted_x_concurrences

from fiberdd.states import (StateFileError, TwoQubitXState, apply_dephasing,
                            bell_state, concurrence, concurrence_x_closed,
                            dephased_concurrence, esd_threshold_gamma,
                            load_state_file, mixed_third_state, resolve_state,
                            validate_state, werner_state)


def random_x_state(rng):
    """Valid random X state: Dirichlet populations, bounded coherences."""
    d = rng.exponential(size=4)
    d /= d.sum()
    r14 = (rng.uniform() * np.sqrt(d[0] * d[3])
           * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    r23 = (rng.uniform() * np.sqrt(d[1] * d[2])
           * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
    return TwoQubitXState(tuple(d), r14, r23)


def test_bundled_state_concurrence_is_one_third():
    state = mixed_third_state()
    assert abs(concurrence(state) - 1.0 / 3.0) < 1e-12
    assert abs(concurrence_x_closed(state) - 1.0 / 3.0) < 1e-12
    assert not validate_state(state)


def test_bell_state_maximally_entangled():
    assert concurrence(bell_state()) == pytest.approx(1.0, abs=1e-12)
    assert concurrence_x_closed(bell_state()) == pytest.approx(1.0, abs=1e-12)


def test_werner_concurrence_closed_form():
    # known result: C = max(0, (3p - 1) / 2)
    for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        expected = max(0.0, (3.0 * p - 1.0) / 2.0)
        assert concurrence(werner_state(p)) == pytest.approx(expected,
                                                             abs=1e-12)


def test_eigen_and_closed_form_agree_on_random_states():
    rng = np.random.default_rng(20260815)
    for _ in range(1000):
        state = random_x_state(rng)
        assert abs(concurrence(state)
                   - concurrence_x_closed(state)) < 1e-10


def test_concurrence_matches_eigensolver_oracle():
    # criterion 5's bound, against a numerical eigensolver on the 4x4
    # density matrix; curves dephase 50 of the states at 16 points each
    rng = np.random.default_rng(1998)
    states = [random_x_state(rng) for _ in range(1000)]
    worst = max(abs(concurrence(state) - eigen_concurrence(state))
                for state in states)
    for state in states[:50]:
        gamma = rng.uniform(size=16)
        curve = dephased_concurrence(state, gamma)
        worst = max(worst, *(abs(c - eigen_concurrence(apply_dephasing(
            state, g))) for c, g in zip(curve, gamma)))
    assert worst < 1e-10


@pytest.mark.parametrize("state", [mixed_third_state(), werner_state(0.5),
                                   werner_state(0.8)],
                         ids=["mixed_third", "werner_0.5", "werner_0.8"])
def test_dephased_concurrence_against_exact_arithmetic(state):
    # d1 = d4 and d2 = d3, so sqrt(d1 d4) and sqrt(d2 d3) are the float
    # populations themselves and C(Gamma) = 2 max(0, Gamma|rho14| - d2,
    # Gamma|rho23| - d1) holds exactly in rational arithmetic
    d1, d2, d3, d4 = state.diag
    assert d1 == d4 and d2 == d3
    assert state.rho14.imag == state.rho23.imag == 0.0
    c14, c23 = Fraction(abs(state.rho14)), Fraction(abs(state.rho23))
    threshold = esd_threshold_gamma(state)
    near = [threshold]
    for direction in (0.0, 1.0):
        g = threshold
        for _ in range(50):
            g = np.nextafter(g, direction)
            near.append(g)
    gamma = np.concatenate((np.random.default_rng(2245).uniform(size=5000),
                            near))
    computed = dephased_concurrence(state, gamma)
    worst = 0.0
    for g, c in zip(gamma.tolist(), computed.tolist()):
        exact = 2 * max(Fraction(0), Fraction(g) * c14 - Fraction(d2),
                        Fraction(g) * c23 - Fraction(d1))
        worst = max(worst, abs(float(Fraction(c) - exact)))
    assert worst <= 4e-16


def test_concurrence_bounds():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = concurrence(random_x_state(rng))
        assert 0.0 <= c <= 1.0


def test_matrix_is_hermitian_unit_trace():
    state = TwoQubitXState((0.3, 0.25, 0.25, 0.2), 0.1 + 0.05j, 0.12 - 0.2j)
    rho = state.matrix()
    assert np.allclose(rho, rho.conj().T)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_validate_reports_each_violation_with_margin():
    bad = TwoQubitXState((0.5, 0.3, 0.3, -0.1), rho14=0.9, rho23=0.4)
    reports = {v.check: v.margin for v in validate_state(bad)}
    assert any("population 4" in key for key in reports)
    assert any("rho14" in key for key in reports)
    assert any("rho23" in key for key in reports)
    assert all(margin > 0.0 for margin in reports.values())


def test_validate_trace():
    off = TwoQubitXState((0.5, 0.25, 0.25, 0.1))
    assert any("trace" in v.check for v in validate_state(off))


def test_apply_dephasing_scales_only_coherences():
    state = mixed_third_state()
    out = apply_dephasing(state, 0.25)
    assert out.diag == state.diag
    assert out.rho23 == state.rho23 * 0.25
    assert out.rho14 == 0.0


def test_dephasing_composes():
    state = TwoQubitXState((0.4, 0.1, 0.2, 0.3), 0.15 + 0.1j, 0.05j)
    once = apply_dephasing(apply_dephasing(state, 0.7), 0.4)
    direct = apply_dephasing(state, 0.7 * 0.4)
    assert once.rho14 == pytest.approx(direct.rho14, rel=1e-15)
    assert once.rho23 == pytest.approx(direct.rho23, rel=1e-15)


def test_dephasing_gamma_domain():
    state = mixed_third_state()
    assert apply_dephasing(state, 1.0) == state
    with pytest.raises(ValueError):
        apply_dephasing(state, 0.0)
    with pytest.raises(ValueError):
        apply_dephasing(state, 1.0001)


def test_full_dephasing_limit_kills_entanglement():
    assert concurrence(apply_dephasing(mixed_third_state(), 1e-12)) == 0.0


def test_stacked_concurrence_matches_pointwise():
    # one array pass gives each dephased state's own bits,
    # including complete dephasing (gamma = 0) and no dephasing (1)
    rng = np.random.default_rng(606)
    states = [mixed_third_state(), bell_state(), werner_state(0.2),
              werner_state(1.0 / 3.0), werner_state(0.8)]
    states += [random_x_state(rng) for _ in range(200)]
    for state in states:
        gamma = np.concatenate(([0.0, 1.0, 1e-300, 0.5],
                                rng.uniform(size=12)))
        stacked = dephased_concurrence(state, gamma)
        for i, g in enumerate(gamma):
            expected = (0.0 if g == 0.0
                        else concurrence(apply_dephasing(state, g)))
            assert stacked[i] == expected
            assert dephased_concurrence(state, gamma[i:i + 1])[0] == expected
        assert concurrence(state) == stacked[1]


def test_sort_free_roots_match_sorted_roots_bit_for_bit():
    # the sort-free ordering of the spin-flip roots subtracts the same
    # roots in the same order as sorting them, so every value agrees to
    # the bit with the stack-and-sort oracle
    from fiberdd.states import _x_concurrences
    rng = np.random.default_rng(2245)
    states = [mixed_third_state(), bell_state(), werner_state(0.2),
              werner_state(1.0 / 3.0), werner_state(0.5), werner_state(1.0)]
    states += [random_x_state(rng) for _ in range(300)]
    # ties: outer = inner with c14 = c23, a root pair of equal size,
    # roots that meet across the pairs, and coherences of zero
    states += [TwoQubitXState((0.25, 0.25, 0.25, 0.25), 0.1, 0.1j),
               TwoQubitXState((0.25, 0.25, 0.25, 0.25), 0.25, -0.25),
               TwoQubitXState((0.36, 0.16, 0.16, 0.32), 0.1, 0.05),
               TwoQubitXState((0.3, 0.2, 0.2, 0.3), 0.0, 0.0),
               TwoQubitXState((0.3, 0.2, 0.2, 0.3), 0.2, 0.0),
               TwoQubitXState((0.3, 0.2, 0.2, 0.3), 0.0, 0.2),
               TwoQubitXState((0.5, 0.0, 0.0, 0.5), 0.0, 0.0)]
    gamma = np.concatenate(([0.0, 5e-324, 1e-300, 1.0, 0.5],
                            rng.uniform(size=40)))
    for state in states:
        rho14, rho23 = state.rho14 * gamma, state.rho23 * gamma
        for a, b in ((rho14, rho23), (rho14[:1], rho23[:1]),
                     (rho14[:0], rho23[:0])):
            got = _x_concurrences(state.diag, a, b)
            assert got.tobytes() == sorted_x_concurrences(
                state.diag, a, b).tobytes()
        assert dephased_concurrence(state, gamma).tobytes() == \
            sorted_x_concurrences(state.diag, rho14, rho23).tobytes()
    # random coherence pairs, not tied to one state's ratio
    for _ in range(200):
        state = random_x_state(rng)
        scale = rng.uniform(size=(2, 30))
        a, b = state.rho14 * scale[0], state.rho23 * scale[1]
        assert _x_concurrences(state.diag, a, b).tobytes() == \
            sorted_x_concurrences(state.diag, a, b).tobytes()


def test_stacked_concurrence_gamma_domain():
    state = mixed_third_state()
    assert dephased_concurrence(state, []).size == 0
    for bad in ([1.0001], [-0.1], [np.nan], [[0.5]]):
        with pytest.raises(ValueError):
            dephased_concurrence(state, bad)


def test_death_threshold_of_bundled_state_is_half():
    assert esd_threshold_gamma(mixed_third_state()) == pytest.approx(0.5,
                                                                     abs=1e-15)
    # just below threshold: dead; just above: alive
    state = mixed_third_state()
    assert concurrence(apply_dephasing(state, 0.4999)) == 0.0
    assert concurrence(apply_dephasing(state, 0.5001)) > 0.0


def test_death_threshold_edge_cases():
    # Bell state never dies at finite gamma; a diagonal state has no
    # coherence to lose
    assert esd_threshold_gamma(bell_state()) == 0.0
    assert esd_threshold_gamma(TwoQubitXState((0.4, 0.1, 0.1, 0.4))) == np.inf


def test_resolve_state_selectors():
    assert resolve_state("paper") == mixed_third_state()
    assert resolve_state("bell") == bell_state()
    assert resolve_state("werner:0.75") == werner_state(0.75)
    with pytest.raises(ValueError):
        resolve_state("werner:1.5")
    with pytest.raises(ValueError):
        resolve_state("werner:x")
    with pytest.raises(ValueError):
        resolve_state("plasma")


def test_state_file_round_trip(tmp_path):
    path = tmp_path / "state.cfg"
    path.write_text(
        "# comment line\n"
        "d1 = 0.30\nd2 = 0.20\n d3=0.25 # inline\nd4 = 0.25\n"
        "rho14 = 0.1+0.05j\nrho23 = 0.08\n")
    state = load_state_file(path)
    assert state.diag == (0.30, 0.20, 0.25, 0.25)
    assert state.rho14 == 0.1 + 0.05j
    assert state.rho23 == 0.08 + 0.0j
    assert resolve_state(f"file:{path}") == state


def test_state_file_errors(tmp_path):
    cases = {
        "nokey.cfg": ("just words\n", "key = value"),
        "unknown.cfg": ("d5 = 0.1\n", "unknown key"),
        "badnum.cfg": ("d1 = abc\n", "cannot parse"),
        "imag.cfg": ("d1 = 1j\nd2 = 0.5\nd3 = 0.25\nd4 = 0.25\n", "real"),
        "invalid.cfg": ("d1 = 0.9\nd2 = 0.9\n", "invalid density matrix"),
    }
    for name, (text, fragment) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(StateFileError, match=fragment):
            load_state_file(path)
    with pytest.raises(StateFileError, match="cannot read"):
        load_state_file(tmp_path / "missing.cfg")


@pytest.mark.parametrize("line", ["d1 = nan", "rho23 = nan"])
def test_state_file_rejects_non_finite_entries(tmp_path, line):
    # NaN compares false with every bound, so only an explicit
    # finiteness check catches it
    path = tmp_path / "nan.cfg"
    path.write_text(f"d1 = 0.3\nd2 = 0.2\nd3 = 0.25\nd4 = 0.25\n{line}\n")
    name = "population 1" if line.startswith("d1") else "rho23"
    with pytest.raises(StateFileError,
                       match=f"invalid density matrix: {name} is not finite"):
        load_state_file(path)


def test_state_file_reports_every_bad_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("d1 = 0.5\njust words\nd5 = 0.1\nrho14 = abc\n")
    with pytest.raises(StateFileError) as info:
        load_state_file(path)
    assert str(info.value).splitlines() == [
        f"{path}:2: expected key = value",
        f"{path}:3: unknown key 'd5' (expected one of "
        "['d1', 'd2', 'd3', 'd4', 'rho14', 'rho23'])",
        f"{path}:4: cannot parse 'abc' for rho14",
    ]
