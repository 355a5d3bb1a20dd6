"""Reference implementations the production routes are checked against."""

import numpy as np

from fiberdd.filters import filter_generic
from fiberdd.quadrature import band_boundaries, integrate_panels


def full_band_overlap(positions, spectrum, length, *, atol=1e-16,
                      rtol=1e-13):
    """Overlap integral by adaptive Gauss-Kronrod over the whole band.

    Panels no wider than pi/length from ir to uv, the filter evaluated
    segment by segment throughout: no pair sum, no band split.
    """
    bounds = band_boundaries(spectrum.ir_cutoff, spectrum.uv_cutoff,
                             min(np.pi / length,
                                 spectrum.uv_cutoff - spectrum.ir_cutoff))
    power = -(spectrum.exponent + 2.0)

    def integrand(w):
        return filter_generic(positions, length, w) * w ** power

    res = integrate_panels(integrand, bounds, atol=atol, rtol=rtol)
    return spectrum.amplitude / np.pi * res.value
