"""Pulse placement policies along the fiber.

A sequence here is a rule mapping a propagation length L to the number
N of polarization-flip (half-wave) elements inside (0, L).  Four
policies are provided: free evolution, a single mid-point echo, and
equally spaced trains specified either by pulse count or by linear pulse
density.  Every policy places its N pulses by the one equal-spacing rule
of ``train``, l_k = (k - 1/2) L / N, which never places an element at
the fiber end itself, so ``pulse_count(length)`` describes a sequence
completely and its positions follow from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The largest pulse count: up to it, ``train`` places a train strictly
# inside (0, L) wherever L / N >= 2^-1021 (see dephasing.train_overlaps)
MAX_PULSES = 2 ** 50


class SequenceDegenerateError(ValueError):
    """Fixed-density placement quantizes to zero pulses at this length."""


def is_finite(value):
    """``np.isfinite(value)``, at the cost of ``math.isfinite`` for a
    float (``np.float64`` included); anything else gets numpy's answer
    or exception."""
    if isinstance(value, float):
        return math.isfinite(value)
    return np.isfinite(value)


def _check_length(length: float) -> None:
    if not (is_finite(length) and length > 0.0):
        raise ValueError(f"length must be positive and finite, got {length}")


def train(n_pulses: int, length) -> np.ndarray:
    """Positions (k - 1/2) * length / n_pulses, k = 1..n_pulses, of an
    equally spaced train."""
    if n_pulses == 0:
        return np.empty(0)
    return (np.arange(1, n_pulses + 1) - 0.5) * (length / n_pulses)


class PulseSequence:
    """Base policy: subclasses define pulse_count(length)."""

    def pulse_count(self, length: float) -> int:
        raise NotImplementedError

    def positions(self, length: float) -> np.ndarray:
        return train(self.pulse_count(length), length)

    def sign_at(self, position: float, length: float) -> float:
        """Toggling-frame sign at a point: (-1)**(pulses strictly before it)."""
        if not 0.0 <= position <= length:
            raise ValueError(
                f"position {position} outside the fiber [0, {length}]")
        flips = np.searchsorted(self.positions(length), position, side="left")
        return -1.0 if flips % 2 else 1.0


@dataclass(frozen=True)
class Free(PulseSequence):
    """No pulses: bare dephasing accumulation."""

    def pulse_count(self, length: float) -> int:
        _check_length(length)
        return 0


@dataclass(frozen=True)
class SpinEcho(PulseSequence):
    """Single flip at the fiber midpoint."""

    def pulse_count(self, length: float) -> int:
        _check_length(length)
        return 1


@dataclass(frozen=True)
class CpmgCount(PulseSequence):
    """CPMG train with a fixed number of pulses regardless of length."""

    n_pulses: int

    def __post_init__(self):
        if not (isinstance(self.n_pulses, (int, np.integer))
                and 1 <= self.n_pulses <= MAX_PULSES):
            raise ValueError("n_pulses must be an integer from 1 to 2**50, "
                             f"got {self.n_pulses!r}")

    def pulse_count(self, length: float) -> int:
        _check_length(length)
        return self.n_pulses


@dataclass(frozen=True)
class CpmgDensity(PulseSequence):
    """CPMG train with a fixed linear pulse density.

    The realized count is N = round(density * length) (ties follow
    Python's round-half-to-even), so hardware with a per-unit-length
    pulse budget is modeled directly.  Lengths short enough that N
    rounds to zero raise SequenceDegenerateError; sweep helpers treat
    that regime as free evolution instead.  A density * length above
    MAX_PULSES raises ValueError.
    """

    density: float

    def __post_init__(self):
        if not (is_finite(self.density) and self.density > 0.0):
            raise ValueError(f"density must be positive, got {self.density}")

    def pulse_count(self, length: float) -> int:
        _check_length(length)
        if not (count := self.density * length) <= MAX_PULSES:
            raise ValueError(f"density * length = {count} is above 2**50, "
                             "the largest pulse count")
        return int(round(count))

    def positions(self, length: float) -> np.ndarray:
        n = self.pulse_count(length)
        if n == 0:
            raise SequenceDegenerateError(
                f"density {self.density} gives zero pulses at length {length}; "
                "use Free() for the unpulsed regime")
        return train(n, length)
