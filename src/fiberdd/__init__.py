"""Entanglement evolution of photon pairs in noisy birefringent fiber.

Polarization-entangled pairs traveling through polarization-maintaining
fiber dephase under low-frequency birefringence noise; trains of
polarization-flip elements along the fiber filter that noise and delay
(or undo) entanglement sudden death.  This package computes the whole
chain: noise spectrum -> sequence filter function -> overlap integral ->
coherence factor -> X-state concurrence, plus sweep utilities, a Monte
Carlo cross-check, and a CSV-emitting command line (``fiberdd``).
"""

from .dephasing import (Overlaps, SpectralProfile, coherence_factor,
                        overlap_from_positions, overlap_integral,
                        train_overlaps)
from .evolution import (BestEstimate, DecoherenceCurve, PulseBudget,
                        coherence_at, concurrence_at, curve_death_length,
                        decoherence_curve, esd_length,
                        min_pulses_for_target, refine_esd, sweep_positions)
from .filters import (filter_cpmg_closed, filter_fixed_density, filter_free,
                      filter_generic, filter_spin_echo, sequence_filter)
from .montecarlo import (McResult, McSettings, auto_resolution, mc_coherence,
                         sample_trajectory, validate_settings, z_score)
from .noise import NoiseSpectrum
from .quadrature import QuadratureError, QuadratureResult
from .sequences import (CpmgCount, CpmgDensity, Free, PulseSequence,
                        SequenceDegenerateError, SpinEcho)
from .states import (StateFileError, StateViolation, TwoQubitXState,
                     apply_dephasing, bell_state, concurrence,
                     concurrence_x_closed, dephased_concurrence,
                     esd_threshold_gamma, load_state_file, mixed_third_state,
                     resolve_state, validate_state, werner_state)

__version__ = "0.1.0"

__all__ = [
    "Overlaps", "SpectralProfile", "coherence_factor",
    "overlap_from_positions", "overlap_integral", "train_overlaps",
    "BestEstimate", "DecoherenceCurve", "PulseBudget", "coherence_at",
    "concurrence_at", "curve_death_length", "decoherence_curve",
    "esd_length", "min_pulses_for_target", "refine_esd", "sweep_positions",
    "filter_cpmg_closed", "filter_fixed_density", "filter_free",
    "filter_generic", "filter_spin_echo", "sequence_filter",
    "McResult", "McSettings", "auto_resolution", "mc_coherence",
    "sample_trajectory", "validate_settings", "z_score",
    "NoiseSpectrum", "QuadratureError", "QuadratureResult",
    "CpmgCount", "CpmgDensity", "Free", "PulseSequence",
    "SequenceDegenerateError", "SpinEcho",
    "StateFileError", "StateViolation", "TwoQubitXState", "apply_dephasing",
    "bell_state", "concurrence", "concurrence_x_closed",
    "dephased_concurrence", "esd_threshold_gamma", "load_state_file",
    "mixed_third_state", "resolve_state", "validate_state", "werner_state",
]
