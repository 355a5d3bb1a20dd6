"""How many pulses does a target entanglement level cost?

At a length where the unprotected state is long dead, walking the CPMG
pulse count upward first revives the entanglement, then saturates: once
the train outruns the noise band the remaining dephasing comes from the
high-frequency tail, and extra pulses buy almost nothing.  The same scan
answers the practical question of the minimum hardware budget for a
target concurrence.

Run:  python3 demos/03_pulse_budget.py  (under a second)
"""

import numpy as np

from fiberdd import (CpmgCount, Free, NoiseSpectrum, SpectralProfile,
                     concurrence_at, min_pulses_for_target,
                     mixed_third_state)

SPECTRUM = NoiseSpectrum(0.008, 1.0, 1e-3, 1e3)
PROFILE = SpectralProfile(1.0, 0.1)
STATE = mixed_third_state()
LENGTH = 50.0


def show_growth_curve():
    print(f"Concurrence at L = {LENGTH:g} vs pulse count")
    counts = [0, 1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64]
    values = []
    for n in counts:
        seq = Free() if n == 0 else CpmgCount(n)
        values.append(concurrence_at(seq, SPECTRUM, PROFILE, STATE, LENGTH))
    print(f"  {'N':>4} {'C':>8}   (initial C = 1/3)")
    for n, c in zip(counts, values):
        bar = "#" * int(round(60.0 * c))
        print(f"  {n:4d} {c:8.4f}   {bar}")
    gains = np.diff(values)
    print(f"  The steepest step gains {gains.max():.4f}; the last doubling "
          f"(48 to 64) gains only {values[-1] - values[-2]:.4f}.")
    print()


def show_minimum_budget():
    print("Minimum pulse budget for target concurrence")
    for target in (0.10, 0.20, 0.30):
        budget = min_pulses_for_target(target, LENGTH, SPECTRUM, PROFILE,
                                       STATE, max_pulses=256)
        print(f"  C >= {target:4.2f} at L = {LENGTH:g} needs "
              f"N = {budget.required} pulses "
              f"(reached C = {budget.concurrence[-1]:.4f})")
    print("  The budget grows steeply near the initial concurrence: the")
    print("  closer the target sits to C(0) = 1/3, the more of the noise")
    print("  band the train has to silence.")


if __name__ == "__main__":
    show_growth_curve()
    show_minimum_budget()
