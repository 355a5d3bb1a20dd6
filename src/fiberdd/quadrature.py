"""Adaptive panel quadrature for oscillatory band integrals.

Every integral in this package has the same shape: a smooth power-law
factor times trigonometric filter terms, over a finite frequency band.
Generic adaptive routines waste effort rediscovering the oscillation
scale, so the integrator here works on an explicit panel list.  Callers
build initial boundaries that already resolve the fastest oscillation
(no panel wider than half its period) and the steep spectral edge near
the infrared cutoff; the engine then bisects the worst panels until the
summed Gauss-Kronrod error estimate meets an absolute-plus-relative
tolerance.  That adaptive integrator, ``integrate_panels``, now serves
only ``noise.correlation`` and the test oracles.

``gauss_kronrod`` is the panel rule without refinement;
``kronrod_nodes`` and ``kronrod_sums`` are its two halves, for callers
that keep an integrand's values at the nodes and weigh them again.  The
overlap core in ``dephasing`` reads only these two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# 15-point Kronrod rule on (-1, 1) with its embedded 7-point Gauss rule
# (standard QUADPACK dqk15 constants).  Gauss points are every other
# Kronrod node, so one batch of evaluations yields both rules.
_KRONROD_NODES = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_KRONROD_WEIGHTS = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552591, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472782,
    0.20443294007529889, 0.19035057806478540, 0.16900472663926790,
    0.14065325971552591, 0.10479001032225018, 0.06309209262997855,
    0.02293532201052922,
])
_GAUSS_SLICE = slice(1, 15, 2)
_GAUSS_WEIGHTS = np.array([
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346939,
    0.38183005050511894, 0.27970539148927664, 0.12948496616886969,
])


@dataclass
class QuadratureResult:
    """Integral value with its achieved error estimate and panel count."""

    value: float
    error: float
    panels: int


class QuadratureError(RuntimeError):
    """Refinement exhausted the panel budget before reaching tolerance,
    or a low band's one pass in ``dephasing.overlap_from_positions``
    missed it.

    The best available estimate is carried along so callers can decide
    whether to reuse it (e.g. to mark a sweep point as unconverged) or
    discard it.
    """

    def __init__(self, message: str, best_estimate: float,
                 error_estimate: float, panels: int):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate
        self.panels = panels


def band_boundaries(lo: float, hi: float, max_width: float,
                    edge_ratio: float = 1.25) -> np.ndarray:
    """Initial panel boundaries over ``[lo, hi]``.

    Panels grow geometrically away from ``lo`` (resolving integrands that
    peak steeply at the lower cutoff, like power-law spectra) until they
    reach ``max_width``, then continue uniformly.  ``max_width`` should be
    at most half the period of the fastest oscillation present.

    Parameters
    ----------
    lo, hi : band limits, ``0 < lo < hi``.
    max_width : widest allowed panel; capped at the band span.
    edge_ratio : growth factor of the geometric section, above 1.
    """
    if not 0.0 < lo < hi:
        raise ValueError("band limits must satisfy 0 < lo < hi, "
                         f"got [{lo}, {hi}]")
    if not (max_width > 0.0 and np.isfinite(max_width)):
        raise ValueError("max_width must be positive and finite, "
                         f"got {max_width}")
    if not (edge_ratio > 1.0 and np.isfinite(edge_ratio)):
        raise ValueError(f"edge_ratio must exceed 1, got {edge_ratio}")

    # Geometric section: x_{k+1} = x_k * edge_ratio while the panel width
    # x_k*(edge_ratio - 1) stays below max_width and x_k*edge_ratio < hi.
    # cumprod multiplies in sequence, so x_k is the same float as k
    # repeated in-place products; x_k*edge_ratio passes hi after about
    # log(hi/lo)/log(edge_ratio) steps, and two more cover the rounding.
    steps = math.ceil((math.log(hi) - math.log(lo)) / math.log(edge_ratio))
    geometric = np.full(steps + 3, edge_ratio)
    geometric[0] = lo
    np.cumprod(geometric, out=geometric)
    last = ((geometric * (edge_ratio - 1.0) < max_width)
            & (geometric * edge_ratio < hi)).argmin()
    # Uniform tail with equal panels no wider than max_width.
    x = geometric[last]
    rest = hi - x
    n = max(1, math.ceil(rest / max_width)) if rest > 0.0 else 0
    edges = np.concatenate((geometric[:last + 1],
                            x + rest * np.arange(1, n + 1) / n))
    edges[-1] = hi
    return edges


def gauss_kronrod(fn: Callable[[np.ndarray], np.ndarray],
                  lefts: np.ndarray, rights: np.ndarray):
    """Gauss-Kronrod value and error estimate for a batch of panels,
    without refinement.

    The node sums run along each panel's own row, so a panel's value
    does not depend on the other panels of the batch.
    """
    x, half = kronrod_nodes(lefts, rights)
    return kronrod_sums(fn(x.ravel()).reshape(x.shape), half)


def kronrod_nodes(lefts: np.ndarray, rights: np.ndarray):
    """The 15 Kronrod nodes of each panel (one row per panel) and the
    panels' half widths."""
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    return mid[:, None] + half[:, None] * _KRONROD_NODES, half


def kronrod_sums(fx: np.ndarray, half: np.ndarray):
    """Gauss-Kronrod value and error estimate of each panel from the
    integrand at its ``kronrod_nodes`` (one row per panel)."""
    k15 = (fx * _KRONROD_WEIGHTS).sum(axis=1) * half
    g7 = (fx[:, _GAUSS_SLICE] * _GAUSS_WEIGHTS).sum(axis=1) * half
    return k15, np.abs(k15 - g7)


def integrate_panels(fn: Callable[[np.ndarray], np.ndarray],
                     boundaries, *,
                     atol: float = 1e-8, rtol: float = 1e-8,
                     max_panels: int = 200_000) -> QuadratureResult:
    """Integrate ``fn`` over the panels delimited by ``boundaries``.

    ``fn`` must accept a 1-D array of points strictly inside the band and
    return values elementwise (Kronrod nodes never touch panel edges, so
    ``fn`` is never called at the band limits themselves).

    Refinement bisects every panel holding more than its share of the
    error budget until ``sum(errors) <= atol + rtol*|value|``, one ``fn``
    call per round over the new panels.  Panels at machine width are
    left alone; if no splittable panel remains or the panel budget is
    exhausted, ``QuadratureError`` is raised with the best estimate
    attached.
    """
    edges = np.asarray(boundaries, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("boundaries must hold at least one panel")
    if not (np.diff(edges) > 0.0).all():
        raise ValueError("boundaries must be strictly increasing")
    lefts, rights = edges[:-1], edges[1:]
    vals, errs = gauss_kronrod(fn, lefts, rights)
    while True:
        # reduceat adds the panels in sequence (sum() adds pairwise)
        total = float(np.add.reduceat(vals, [0])[0])
        error = float(np.add.reduceat(errs, [0])[0])
        tol = atol + rtol * abs(total)
        if error <= tol:
            return QuadratureResult(total, error, vals.size)
        if vals.size >= max_panels:
            raise QuadratureError(
                f"needed more than {max_panels} panels (reached error "
                f"{error:.3e} vs tolerance {tol:.3e})",
                total, error, vals.size)

        widths = rights - lefts
        splittable = widths > 16.0 * np.finfo(float).eps * np.maximum(
            np.abs(lefts), np.abs(rights))
        mask = (errs > 0.5 * tol / vals.size) & splittable
        if not mask.any():
            # no panel above its share: split the worst splittable ones
            worst = np.where(splittable, errs, -np.inf).max()
            mask = splittable & (errs >= worst)
            if not mask.any():  # every panel at machine width, or NaN
                raise QuadratureError(
                    "all panels at machine width before reaching tolerance "
                    f"(error {error:.3e} vs tolerance {tol:.3e})",
                    total, error, vals.size)

        # new panels follow the kept ones, left halves before right halves
        mids = 0.5 * (lefts[mask] + rights[mask])
        new_lefts = np.concatenate([lefts[mask], mids])
        new_rights = np.concatenate([mids, rights[mask]])
        new_vals, new_errs = gauss_kronrod(fn, new_lefts, new_rights)

        keep = ~mask
        lefts = np.concatenate([lefts[keep], new_lefts])
        rights = np.concatenate([rights[keep], new_rights])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
