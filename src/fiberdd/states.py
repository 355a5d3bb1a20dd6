"""Two-qubit polarization states of X form and their entanglement.

The states of interest (Bell mixtures, Werner states, and everything the
pure-dephasing channel produces from them) are X-form in the HV basis:
only the diagonal and the two anti-diagonal coherences rho14, rho23 are
nonzero.  The channel multiplies both coherences by the coherence factor
Gamma and leaves populations untouched.  Entanglement is quantified by
Wootters concurrence, available both through the spin-flip eigenvalue
construction and through the X-form closed form used to cross-check it.

The eigenvalue construction reads the spin-flip roots off the X form (no
eigensolver) for arrays of coherence pairs: a whole curve of dephased
states is one array pass (``dephased_concurrence``), and a single state
is the one-pair case of the same routine, so both give the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

class StateFileError(ValueError):
    """A density-matrix file could not be parsed or failed validation."""


@dataclass(frozen=True)
class StateViolation:
    """One failed density-matrix check with how far past the limit it is."""

    check: str
    margin: float

    def __str__(self):
        return f"{self.check} (margin {self.margin:.3e})"


@dataclass(frozen=True)
class TwoQubitXState:
    """X-form density matrix: four populations plus rho14 and rho23.

    ``diag`` orders the populations as (HH, HV, VH, VV); ``rho14`` couples
    HH with VV and ``rho23`` couples HV with VH.  Hermiticity is implicit
    in the representation, so validation only needs trace, population
    positivity, and the two coherence bounds.
    """

    diag: tuple[float, float, float, float]
    rho14: complex = 0.0j
    rho23: complex = 0.0j

    def matrix(self) -> np.ndarray:
        """Full 4x4 complex density matrix."""
        rho = np.diag(np.asarray(self.diag, dtype=complex))
        rho[0, 3], rho[3, 0] = self.rho14, np.conj(self.rho14)
        rho[1, 2], rho[2, 1] = self.rho23, np.conj(self.rho23)
        return rho


def validate_state(state: TwoQubitXState,
                   tol: float = 1e-12) -> list[StateViolation]:
    """Check trace, population positivity, and X-form positivity bounds.

    Returns an empty list for a valid state, otherwise one entry per
    failed check with its margin (how far beyond tolerance it lies).
    The coherence bounds |rho14|^2 <= rho11*rho44 and
    |rho23|^2 <= rho22*rho33 are exactly positivity of the 4x4 matrix
    for X form.  NaN fails no comparison, so each population or coherence
    that is not finite is reported on its own, with an infinite margin.
    """
    d = np.asarray(state.diag, dtype=float)
    entries = [f"population {i + 1}" for i in range(4)] + ["rho14", "rho23"]
    values = [*d, state.rho14, state.rho23]
    bad = [StateViolation(f"{name} is not finite", np.inf)
           for name, v in zip(entries, values) if not np.isfinite(v)]
    trace_gap = abs(float(d.sum()) - 1.0)
    if trace_gap > tol:
        bad.append(StateViolation("trace differs from 1", trace_gap))
    for i, di in enumerate(d):
        if di < -tol:
            bad.append(StateViolation(f"population {i + 1} negative", -di))
    outer = abs(state.rho14) ** 2 - d[0] * d[3]
    if outer > tol:
        bad.append(StateViolation("|rho14|^2 exceeds rho11*rho44", outer))
    inner = abs(state.rho23) ** 2 - d[1] * d[2]
    if inner > tol:
        bad.append(StateViolation("|rho23|^2 exceeds rho22*rho33", inner))
    return bad


def apply_dephasing(state: TwoQubitXState, gamma: float) -> TwoQubitXState:
    """Pure dephasing of the traveling photon: coherences scale by gamma.

    Populations are untouched, so X form is preserved.  Composable:
    applying gamma1 then gamma2 equals applying gamma1*gamma2.
    """
    if not (0.0 < gamma <= 1.0):
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    return TwoQubitXState(state.diag, state.rho14 * gamma, state.rho23 * gamma)


def concurrence(state: TwoQubitXState) -> float:
    """Wootters concurrence via the spin-flip eigenvalue construction.

    The eigenvalues of rho (sy x sy) rho* (sy x sy) are the squares of
    the roots below; the concurrence is the largest root minus the
    other three, clamped at zero.
    """
    return float(_x_concurrences(state.diag, np.array([state.rho14]),
                                 np.array([state.rho23]))[0])


def _x_concurrences(diag, rho14: np.ndarray, rho23: np.ndarray) -> np.ndarray:
    """Concurrence of the X states with common populations and the
    coherence pairs rho14[i], rho23[i].

    For X form the square roots of the spin-flip eigenvalues are
    |sqrt(rho11 rho44) +- |rho14|| and |sqrt(rho22 rho33) +- |rho23||
    (Wootters, PRL 80, 2245 (1998); Yu and Eberly, Science 323, 598
    (2009)).  The three smaller ones are subtracted from the largest, so
    no eigensolver is needed.  No sort either: the + root of each pair
    is at least its - root, so the largest root is the larger + root,
    the smallest the smaller - root, and the middle two are the smaller
    + root and the larger - root, in either order.
    """
    d1, d2, d3, d4 = diag
    outer, inner = math.sqrt(max(d1 * d4, 0.0)), math.sqrt(max(d2 * d3, 0.0))
    c14, c23 = np.abs(rho14), np.abs(rho23)
    plus14, plus23 = outer + c14, inner + c23
    minus14, minus23 = np.abs(outer - c14), np.abs(inner - c23)
    mid_a = np.minimum(plus14, plus23)
    mid_b = np.maximum(minus14, minus23)
    # the sorted roots' difference, subtracted from the largest down
    c = (np.maximum(plus14, plus23) - np.maximum(mid_a, mid_b)
         - np.minimum(mid_a, mid_b) - np.minimum(minus14, minus23))
    return np.where(c > 0.0, c, 0.0)


def dephased_concurrence(state: TwoQubitXState, gamma) -> np.ndarray:
    """Concurrence of ``state`` dephased by each coherence factor in
    ``gamma``, from one array pass over the X-form roots.

    Each value is bit for bit ``concurrence(apply_dephasing(state, g))``.
    A coherence factor of 0 (underflow of complete dephasing) leaves no
    coherence, so the pair is separable and its concurrence is 0.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.ndim != 1 or gamma.size and not (
            gamma.min() >= 0.0 and gamma.max() <= 1.0):  # nan fails both
        raise ValueError("gamma must be a 1-D array of values in [0, 1]")
    # same products as apply_dephasing's complex * float
    return _x_concurrences(state.diag, state.rho14 * gamma,
                           state.rho23 * gamma)


def concurrence_x_closed(state: TwoQubitXState) -> float:
    """Closed-form concurrence valid exactly for X-form states.

    C = 2 max(0, |rho14| - sqrt(rho22 rho33), |rho23| - sqrt(rho11 rho44)).
    """
    d1, d2, d3, d4 = state.diag
    outer = abs(state.rho14) - np.sqrt(max(d2 * d3, 0.0))
    inner = abs(state.rho23) - np.sqrt(max(d1 * d4, 0.0))
    return 2.0 * max(0.0, float(outer), float(inner))


def esd_threshold_gamma(state: TwoQubitXState) -> float:
    """Largest coherence factor at which the dephased state is separable.

    Scaling both coherences by gamma kills entanglement exactly when
    gamma |rho14| <= sqrt(rho22 rho33) and gamma |rho23| <= sqrt(rho11 rho44),
    so the threshold is the smaller of the two ratios (infinite ratios
    from vanishing coherences drop out).  Values >= 1 mean the state is
    already separable.
    """
    d1, d2, d3, d4 = state.diag
    ratios = []
    if abs(state.rho14) > 0.0:
        ratios.append(np.sqrt(max(d2 * d3, 0.0)) / abs(state.rho14))
    if abs(state.rho23) > 0.0:
        ratios.append(np.sqrt(max(d1 * d4, 0.0)) / abs(state.rho23))
    if not ratios:
        return np.inf
    return float(min(ratios))


def bell_state() -> TwoQubitXState:
    """Maximally entangled (|HH> + |VV>)/sqrt(2)."""
    return TwoQubitXState((0.5, 0.0, 0.0, 0.5), rho14=0.5 + 0.0j)


def werner_state(p: float) -> TwoQubitXState:
    """Werner mixture p |Phi+><Phi+| + (1-p)/4 * identity."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner weight must lie in [0, 1], got {p}")
    off = (1.0 - p) / 4.0
    return TwoQubitXState((off + 0.5 * p, off, off, off + 0.5 * p),
                          rho14=0.5 * p + 0.0j)


def mixed_third_state() -> TwoQubitXState:
    """Bundled default: the partially mixed X state with concurrence 1/3.

    Populations (1/6, 1/3, 1/3, 1/6) with rho23 = 1/3; its sudden-death
    threshold sits at coherence factor 1/2, making it the reference
    initial condition for every sudden-death sweep here.
    """
    s = 1.0 / 3.0
    return TwoQubitXState((0.5 * s, s, s, 0.5 * s), rho23=s + 0.0j)


_PRESETS = {
    "paper": mixed_third_state,
    "bell": bell_state,
}


def resolve_state(selector: str) -> TwoQubitXState:
    """Turn a CLI state selector into a state.

    Accepted forms: ``paper`` (default mixed state above), ``bell``,
    ``werner:P`` with P in [0, 1], and ``file:PATH`` pointing at a
    density-matrix file (see load_state_file).
    """
    if selector in _PRESETS:
        return _PRESETS[selector]()
    if selector.startswith("werner:"):
        try:
            p = float(selector.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad Werner weight in {selector!r}") from None
        return werner_state(p)
    if selector.startswith("file:"):
        return load_state_file(selector.split(":", 1)[1])
    raise ValueError(
        f"unknown state selector {selector!r}; expected paper, bell, "
        "werner:P, or file:PATH")


def read_key_values(path, parsers: dict, error: type[ValueError],
                    kind: str) -> dict:
    """Parse a ``key = value`` text file into typed values.

    ``parsers`` maps each accepted key to the function that parses its
    text (raising ValueError on bad text).  Blank lines and '#' comments
    are ignored; a later line for the same key wins.  Every bad line is
    reported, one per line, in a single ``error``; an unreadable file
    raises ``error`` naming the ``kind`` of file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise error(f"cannot read {kind} file {path}: {exc}") from exc

    values = {}
    problems = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"{path}:{lineno}: expected key = value")
            continue
        key, _, text = (part.strip() for part in line.partition("="))
        if key not in parsers:
            problems.append(f"{path}:{lineno}: unknown key {key!r} "
                            f"(expected one of {sorted(parsers)})")
            continue
        try:
            values[key] = parsers[key](text)
        except ValueError:
            problems.append(
                f"{path}:{lineno}: cannot parse {text!r} for {key}")
    if problems:
        raise error("\n".join(problems))
    return values


def load_state_file(path) -> TwoQubitXState:
    """Read an X state from a small key = value text file.

    Recognized keys: d1 d2 d3 d4 (populations), rho14, rho23 (complex
    accepted, e.g. ``0.25+0.1j``); a missing key is 0.  Blank lines and
    '#' comments are ignored, and every bad line is reported at once.
    The parsed state must pass validate_state.
    """
    values = dict.fromkeys(("d1", "d2", "d3", "d4", "rho14", "rho23"), 0j)
    parsers = dict.fromkeys(values,
                            lambda text: complex(text.replace(" ", "")))
    values.update(read_key_values(path, parsers, StateFileError, "state"))

    diag = []
    for key in ("d1", "d2", "d3", "d4"):
        v = values[key]
        if abs(v.imag) > 0.0:
            raise StateFileError(f"{path}: population {key} must be real")
        diag.append(v.real)
    state = TwoQubitXState(tuple(diag), values["rho14"], values["rho23"])
    bad = validate_state(state)
    if bad:
        raise StateFileError(
            f"{path}: invalid density matrix: " + "; ".join(map(str, bad)))
    return state
