"""Stationary Gaussian dephasing environment of the fiber.

The birefringent phase noise accumulated along a polarization-maintaining
fiber is modeled as a zero-mean stationary Gaussian process in the length
coordinate, fully characterized by a power-law spectral density with hard
band cutoffs.  Hard cutoffs keep every downstream integral finite across
the whole exponent range, including 1/f and steeper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import band_boundaries, integrate_panels
from .sequences import is_finite


@dataclass(frozen=True)
class NoiseSpectrum:
    """Band-limited power-law spectral density S(w) = amplitude/|w|**exponent.

    Parameters
    ----------
    amplitude : overall noise power scale; zero selects a noiseless fiber.
    exponent : spectral slope, 0 (white) through 2 (random-walk-like);
        values near 1 give the 1/f character typical of birefringence
        fluctuations.
    ir_cutoff, uv_cutoff : band limits in inverse-length units.  S(w) is
        only defined for ir_cutoff <= |w| <= uv_cutoff; evaluation outside
        the band signals an integration bug and raises.
    """

    amplitude: float
    exponent: float = 1.0
    ir_cutoff: float = 1e-3
    uv_cutoff: float = 1e3

    def __post_init__(self):
        if not (is_finite(self.amplitude) and self.amplitude >= 0.0):
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if not (0.0 <= self.exponent <= 2.0):
            raise ValueError(f"exponent must lie in [0, 2], got {self.exponent}")
        if not (0.0 < self.ir_cutoff < self.uv_cutoff < np.inf):
            raise ValueError(
                f"cutoffs must satisfy 0 < ir < uv, got "
                f"[{self.ir_cutoff}, {self.uv_cutoff}]")

    def density(self, omega):
        """Spectral density at (array of) frequencies inside the band."""
        omega = np.asarray(omega, dtype=float)
        a = np.abs(omega)
        if np.any(a < self.ir_cutoff) or np.any(a > self.uv_cutoff):
            raise ValueError("frequency outside the spectral band "
                             f"[{self.ir_cutoff}, {self.uv_cutoff}]")
        return self.amplitude * a ** (-self.exponent)

    def correlation(self, separation: float) -> float:
        """Two-point correlation <beta(l) beta(l + separation)>.

        Computed as (1/pi) * int_ir^uv S(w) cos(w*separation) dw; the
        value at separation 0 is the pointwise variance of the process.
        The quadrature runs on the unit-amplitude integrand with fixed
        tolerances, so the refinement path (and hence the result, up to
        one float multiply) never depends on the amplitude.
        """
        if not np.isfinite(separation):
            raise ValueError(f"separation must be finite, got {separation}")
        if self.amplitude == 0.0:
            return 0.0
        span = self.uv_cutoff - self.ir_cutoff
        width = span if separation == 0.0 else min(span, np.pi / abs(separation))
        bounds = band_boundaries(self.ir_cutoff, self.uv_cutoff, width)

        def integrand(w):
            return np.cos(w * separation) * w ** (-self.exponent)

        res = integrate_panels(integrand, bounds, atol=1e-12, rtol=1e-10)
        return self.amplitude * res.value / np.pi
