"""Configuration resolution shared by all CLI subcommands.

Precedence is defaults < config file < command-line flags.  Config files
are plain ``key = value`` text with '#' comments, keys spelled like the
flags with underscores.  Validation is consolidated: every bad field is
reported in one pass, using the constructors of the owning modules as
the single source of truth for what is valid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .dephasing import X_MIN, SpectralProfile, max_length, min_length
from .noise import NoiseSpectrum
from .sequences import CpmgCount, CpmgDensity, Free, PulseSequence, SpinEcho, \
    is_finite
from .states import TwoQubitXState, read_key_values, resolve_state

# Default noise amplitude, calibrated so that free evolution of the
# bundled mixed state (concurrence 1/3, death threshold Gamma = 1/2)
# hits sudden death near L = 10 with the default 1/f band below:
# comfortably before the L = 50 window of the pulse-budget scan.
DEFAULT_NOISE_AMP = 0.008
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class ConfigError(ValueError):
    """Consolidated configuration failure: one line per bad field."""


@dataclass
class SimulationConfig:
    """Fully resolved run parameters (all defaults expanded)."""

    sequence: str = "free"
    pulses: int | None = None
    density: float | None = None
    alpha: float = 1.0
    noise_amp: float = DEFAULT_NOISE_AMP
    ir_cutoff: float = 1e-3
    uv_cutoff: float = 1e3
    omega0: float = 1.0
    sigma: float = 0.1
    length_max: float = 30.0
    grid_points: int = 120
    state: str = "paper"
    trials: int = 10_000
    seed: int = 0
    out: str | None = None


# Narrower band and shorter fiber for the Monte Carlo cross-check: the
# trajectory/mode guardrails make the full default band intractable per
# trial, and the check only needs one representative point.
MC_CHECK_OVERRIDES = {"ir_cutoff": 0.05, "uv_cutoff": 50.0, "length_max": 2.0}

_PARSERS = {
    "sequence": str, "state": str, "out": str,
    "pulses": int, "grid_points": int, "trials": int, "seed": int,
    "density": float, "alpha": float, "noise_amp": float,
    "ir_cutoff": float, "uv_cutoff": float, "omega0": float,
    "sigma": float, "length_max": float,
}


def load_config_file(path) -> dict:
    """Parse a ``key = value`` config file into typed values."""
    return read_key_values(path, _PARSERS, ConfigError, "config")


def resolve(*sources: dict | None) -> SimulationConfig:
    """Merge value layers onto the defaults, later layers winning.

    None entries (flags left unset) never override earlier layers.
    """
    config = SimulationConfig()
    for source in sources:
        for key, value in (source or {}).items():
            if value is not None:
                setattr(config, key, value)
    return config


def build_sequence(config: SimulationConfig) -> PulseSequence:
    """Sequence object from the selection fields; raises ValueError."""
    kind = config.sequence
    if kind in ("free", "se"):
        if config.pulses is not None or config.density is not None:
            raise ValueError(
                f"sequence '{kind}' takes neither --pulses nor --density")
        return Free() if kind == "free" else SpinEcho()
    if kind == "cpmg":
        if (config.pulses is None) == (config.density is None):
            raise ValueError(
                "sequence 'cpmg' needs exactly one of --pulses or --density")
        if config.pulses is not None:
            return CpmgCount(config.pulses)
        return CpmgDensity(config.density)
    raise ValueError(f"unknown sequence {kind!r}; expected free, se, or cpmg")


def build_runtime(config: SimulationConfig):
    """Construct (sequence, spectrum, profile, state) or raise ConfigError.

    All owning-module constructors run even after a failure so the
    report covers every bad field at once.
    """
    problems = []
    seq = spectrum = profile = state = None
    try:
        seq = build_sequence(config)
    except ValueError as exc:
        problems.append(f"sequence: {exc}")
    try:
        spectrum = NoiseSpectrum(config.noise_amp, config.alpha,
                                 config.ir_cutoff, config.uv_cutoff)
    except ValueError as exc:
        problems.append(f"noise: {exc}")
    try:
        profile = SpectralProfile(config.omega0, config.sigma)
    except ValueError as exc:
        problems.append(f"optical profile: {exc}")
    try:
        state = resolve_state(config.state)
    except ValueError as exc:
        # a state file reports each bad line on a line of its own
        problems.extend(f"state: {line}" for line in str(exc).splitlines())

    if not (is_finite(config.length_max) and config.length_max > 0.0):
        problems.append(f"length_max: must be positive, got {config.length_max}")
    elif spectrum is not None and not (
            config.length_max <= (limit := max_length(spectrum))):
        problems.append(
            f"length_max: {config.length_max} is above {limit}, where "
            f"uv_cutoff * length_max or length_max^(1+alpha) overflows")
    elif config.grid_points >= 2:
        # the shortest grid length: below the smallest normal float its
        # pulse positions round together, and below min_length(spectrum)
        # lies outside the overlap's length domain
        shortest = config.length_max / config.grid_points
        if not shortest >= _SMALLEST_NORMAL:
            problems.append(
                f"length_max: length_max / grid_points = {shortest} is "
                f"below the smallest normal float {_SMALLEST_NORMAL}")
        elif spectrum is not None and not (
                shortest >= min_length(spectrum)):
            problems.append(
                f"length_max: ir_cutoff * length_max / grid_points = "
                f"{spectrum.ir_cutoff * shortest} is below X_MIN = {X_MIN}, "
                f"the documented floor of the length domain")
    if config.grid_points < 2:
        problems.append(f"grid_points: must be >= 2, got {config.grid_points}")
    if config.trials < 2:
        problems.append(f"trials: must be >= 2, got {config.trials}")
    if config.seed < 0:
        problems.append(f"seed: must be >= 0, got {config.seed}")

    if problems:
        raise ConfigError("\n".join(problems))
    return seq, spectrum, profile, state


def length_grid(config: SimulationConfig) -> np.ndarray:
    """Strictly positive uniform length grid ending at length_max."""
    return np.linspace(0.0, config.length_max, config.grid_points + 1)[1:]


def resolved_lines(config: SimulationConfig, **extra) -> list[str]:
    """The fully resolved configuration as '# key = value' lines."""
    pairs = [(f.name, getattr(config, f.name)) for f in fields(config)]
    pairs.extend(extra.items())
    return [f"# {key} = {value!r}" if isinstance(value, str)
            else f"# {key} = {value}" for key, value in pairs]


def ensure_state_valid(state: TwoQubitXState) -> None:
    """Re-check a resolved state; presets always pass, files may not."""
    from .states import validate_state

    bad = validate_state(state)
    if bad:
        raise ConfigError(
            "state: invalid density matrix: " + "; ".join(map(str, bad)))
