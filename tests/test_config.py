"""Configuration layer: file parsing, precedence, consolidated errors."""

import re
from pathlib import Path

import numpy as np
import pytest

from fiberdd.config import (DEFAULT_NOISE_AMP, ConfigError, SimulationConfig,
                            build_runtime, build_sequence, ensure_state_valid,
                            length_grid, load_config_file, resolve,
                            resolved_lines)
from fiberdd.sequences import CpmgCount, CpmgDensity, Free, SpinEcho
from fiberdd.states import TwoQubitXState


def test_defaults():
    config = SimulationConfig()
    assert config.sequence == "free"
    assert config.pulses is None
    assert config.density is None
    assert config.alpha == 1.0
    assert config.noise_amp == DEFAULT_NOISE_AMP
    assert config.ir_cutoff == 1e-3
    assert config.uv_cutoff == 1e3
    assert config.omega0 == 1.0
    assert config.sigma == 0.1
    assert config.length_max == 30.0
    assert config.grid_points == 120
    assert config.state == "paper"
    assert config.trials == 10_000
    assert config.seed == 0
    assert config.out is None


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "\n"
        "sequence = cpmg   # trailing comment\n"
        "density = 0.25\n"
        "grid_points = 40\n"
        "state = bell\n")
    values = load_config_file(path)
    assert values == {"sequence": "cpmg", "density": 0.25,
                      "grid_points": 40, "state": "bell"}


def test_load_config_file_reports_all_problems(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(
        "sequence cpmg\n"
        "speling = 1\n"
        "alpha = fast\n")
    with pytest.raises(ConfigError) as info:
        load_config_file(path)
    text = str(info.value)
    assert "bad.cfg:1: expected key = value" in text
    assert "unknown key 'speling'" in text
    assert "cannot parse 'fast' for alpha" in text


def test_unknown_config_key_lists_the_accepted_keys(tmp_path):
    path = tmp_path / "typo.cfg"
    path.write_text("speling = 1\n")
    with pytest.raises(ConfigError) as info:
        load_config_file(path)
    assert str(info.value) == (
        f"{path}:1: unknown key 'speling' (expected one of "
        "['alpha', 'density', 'grid_points', 'ir_cutoff', 'length_max', "
        "'noise_amp', 'omega0', 'out', 'pulses', 'seed', 'sequence', "
        "'sigma', 'state', 'trials', 'uv_cutoff'])")


def test_load_config_file_missing():
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config_file("/nonexistent/run.cfg")


def test_shipped_default_config_equals_built_in_defaults():
    path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    assert resolve(load_config_file(path)) == SimulationConfig()


def test_resolve_precedence():
    file_values = {"alpha": 1.5, "sigma": 0.3}
    flag_values = {"alpha": 0.5, "sigma": None, "trials": 200}
    config = resolve(file_values, flag_values)
    assert config.alpha == 0.5        # flag beats file
    assert config.sigma == 0.3        # unset flag keeps file value
    assert config.trials == 200       # flag beats default
    assert config.omega0 == 1.0       # untouched default


def test_resolve_ignores_none_sources():
    assert resolve(None, None) == SimulationConfig()


def test_build_sequence_variants():
    assert isinstance(build_sequence(SimulationConfig()), Free)
    assert isinstance(
        build_sequence(SimulationConfig(sequence="se")), SpinEcho)
    cpmg = build_sequence(SimulationConfig(sequence="cpmg", pulses=4))
    assert isinstance(cpmg, CpmgCount) and cpmg.n_pulses == 4
    dens = build_sequence(SimulationConfig(sequence="cpmg", density=0.2))
    assert isinstance(dens, CpmgDensity) and dens.density == 0.2


@pytest.mark.parametrize("config, fragment", [
    (SimulationConfig(pulses=4), "neither"),
    (SimulationConfig(sequence="se", density=0.1), "neither"),
    (SimulationConfig(sequence="cpmg"), "exactly one"),
    (SimulationConfig(sequence="cpmg", pulses=4, density=0.1), "exactly one"),
    (SimulationConfig(sequence="udd"), "unknown sequence"),
])
def test_build_sequence_rejects(config, fragment):
    with pytest.raises(ValueError, match=fragment):
        build_sequence(config)


def test_build_runtime_happy_path():
    seq, spectrum, profile, state = build_runtime(SimulationConfig())
    assert isinstance(seq, Free)
    assert spectrum.amplitude == DEFAULT_NOISE_AMP
    assert profile.omega0 == 1.0
    assert isinstance(state, TwoQubitXState)


def test_build_runtime_collects_every_problem():
    config = SimulationConfig(sequence="cpmg", noise_amp=-1.0, omega0=0.0,
                              state="mystery", length_max=-2.0,
                              grid_points=1, trials=1, seed=-5)
    with pytest.raises(ConfigError) as info:
        build_runtime(config)
    text = str(info.value)
    for fragment in ("sequence:", "noise:", "optical profile:", "state:",
                     "length_max:", "grid_points:", "trials:", "seed:"):
        assert fragment in text


def test_every_state_file_problem_names_the_field(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just words\nd5 = 0.1\n")
    with pytest.raises(ConfigError) as info:
        build_runtime(SimulationConfig(state=f"file:{path}"))
    lines = str(info.value).splitlines()
    assert len(lines) == 2 and all(line.startswith("state: ") for line in lines)


def test_length_grid_excludes_zero():
    config = SimulationConfig(length_max=10.0, grid_points=5)
    grid = length_grid(config)
    assert np.array_equal(grid, np.array([2.0, 4.0, 6.0, 8.0, 10.0]))


def test_resolved_lines_cover_every_field():
    lines = resolved_lines(SimulationConfig(), extra_note=3)
    keys = {line.split("=", 1)[0].strip("# ") for line in lines}
    expected = {"sequence", "pulses", "density", "alpha", "noise_amp",
                "ir_cutoff", "uv_cutoff", "omega0", "sigma", "length_max",
                "grid_points", "state", "trials", "seed", "out",
                "extra_note"}
    assert keys == expected
    assert all(line.startswith("# ") for line in lines)
    assert "# sequence = 'free'" in lines
    assert "# extra_note = 3" in lines


def test_ensure_state_valid_rejects_bad_matrix():
    bad = TwoQubitXState((0.5, 0.5, 0.25, -0.25), 0.4, 0.0)
    with pytest.raises(ConfigError, match="invalid density matrix"):
        ensure_state_valid(bad)


def test_shortest_grid_length_may_sit_on_the_length_floor():
    # the floor is min_length: a grid that starts exactly there is
    # valid, one a float below it is not, and the message names X_MIN
    from fiberdd.dephasing import X_MIN, min_length
    config = SimulationConfig(ir_cutoff=1e-9, grid_points=2)
    floor = min_length(build_runtime(config)[1])
    config.length_max = 2.0 * floor
    build_runtime(config)
    config.length_max = 2.0 * np.nextafter(floor, 0.0)
    with pytest.raises(ConfigError, match=re.escape(
            f"is below X_MIN = {X_MIN}, the documented floor of the "
            f"length domain")):
        build_runtime(config)
