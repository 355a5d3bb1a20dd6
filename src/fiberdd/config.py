"""Configuration resolution shared by all CLI subcommands.

Precedence is defaults < config file < command-line flags.  Config files
are plain ``key = value`` text with '#' comments, keys spelled like the
flags with underscores.  Validation is consolidated: every bad field is
reported in one pass, using the constructors of the owning modules as
the single source of truth for what is valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

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


def _setting(default, parse, text: str):
    """A SimulationConfig field: its default, the parser of its value's
    text (config-file line and flag alike) and its flag's help."""
    return field(default=default, metadata={"parse": parse, "help": text})


@dataclass
class SimulationConfig:
    """Fully resolved run parameters (all defaults expanded).  Each field
    is a config-file key and, spelled with hyphens, a flag."""

    sequence: str = _setting(
        "free", str, "pulse sequence (cpmg needs --pulses or --density)")
    pulses: int | None = _setting(None, int, "fixed CPMG pulse count")
    density: float | None = _setting(None, float,
                                     "CPMG pulses per unit length")
    alpha: float = _setting(1.0, float, "spectral exponent in [0, 2]")
    noise_amp: float = _setting(DEFAULT_NOISE_AMP, float,
                                "noise amplitude (0 disables noise)")
    ir_cutoff: float = _setting(1e-3, float, "lower spectral cutoff")
    uv_cutoff: float = _setting(1e3, float, "upper spectral cutoff")
    omega0: float = _setting(1.0, float, "mean photon frequency")
    sigma: float = _setting(
        0.1, float, "optical bandwidth parameter (0 = monochromatic)")
    length_max: float = _setting(
        30.0, float,
        "sweep end (simulate/figure) or evaluation length (mc-check)")
    grid_points: int = _setting(120, int, "number of sweep lengths")
    state: str = _setting("paper", str, "paper | bell | werner:P | file:PATH")
    trials: int = _setting(10_000, int, "Monte Carlo trials")
    seed: int = _setting(0, int, "Monte Carlo root seed")
    out: str | None = _setting(
        None, str, "CSV path (simulate) or output directory (figure)")


# Narrower band and shorter fiber for the Monte Carlo cross-check: the
# trajectory/mode guardrails make the full default band intractable per
# trial, and the check only needs one representative point.
MC_CHECK_OVERRIDES = {"ir_cutoff": 0.05, "uv_cutoff": 50.0, "length_max": 2.0}


def load_config_file(path) -> dict:
    """Parse a ``key = value`` config file into typed values."""
    return read_key_values(
        path, {f.name: f.metadata["parse"] for f in fields(SimulationConfig)},
        ConfigError, "config")


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
    positive = is_finite(config.length_max) and config.length_max > 0.0
    try:
        seq = build_sequence(config)
        if positive:  # the run's largest pulse count
            seq.pulse_count(config.length_max)
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

    if not positive:
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
