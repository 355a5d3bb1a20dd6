"""Decoupling efficiency across noise colors 1/f^alpha.

The same pulse train fares very differently depending on where the noise
power lives.  Steep spectra (alpha near 2) concentrate power at low
frequencies, exactly where a pulse train filters best, so decoupling is
dramatic.  Flat spectra (alpha near 0) spread power across the band,
much of it above the pulse rate, and the train helps far less.

Run:  python3 demos/04_spectral_exponents.py
"""

from fiberdd import (CpmgDensity, Free, NoiseSpectrum, SpectralProfile,
                     coherence_at)

PROFILE = SpectralProfile(1.0, 0.1)
LENGTH = 20.0
DENSITY = 0.2
ALPHAS = (0.5, 0.75, 1.0, 1.25, 1.5)


def show_exponent_sweep():
    print(f"Coherence factor at L = {LENGTH:g}: free vs CPMG density "
          f"{DENSITY:g}")
    print(f"  {'alpha':>6} {'Gamma(free)':>12} {'Gamma(cpmg)':>12} "
          f"{'improvement':>12}")
    for alpha in ALPHAS:
        spectrum = NoiseSpectrum(0.008, alpha, 1e-3, 1e3)
        g_free = coherence_at(Free(), spectrum, PROFILE, LENGTH)
        g_cpmg = coherence_at(CpmgDensity(DENSITY), spectrum, PROFILE,
                              LENGTH)
        print(f"  {alpha:6.2f} {g_free:12.4g} {g_cpmg:12.4g} "
              f"{g_cpmg / g_free:11.3g}x")
    print("  The noise amplitude is held fixed, so the totals shift with")
    print("  alpha as well; the improvement column is the fair comparison.")
    print("  Redder noise (larger alpha) is easier to decouple because")
    print("  its power sits below the pulse rate.")
    print()
    n = CpmgDensity(DENSITY)
    print(f"  (CPMG density {DENSITY:g} at L = {LENGTH:g} means "
          f"{n.pulse_count(LENGTH)} pulses.)")


if __name__ == "__main__":
    show_exponent_sweep()
