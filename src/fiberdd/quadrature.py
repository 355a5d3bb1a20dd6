"""Adaptive panel quadrature for oscillatory band integrals.

Every integral in this package has the same shape: a smooth power-law
factor times trigonometric filter terms, over a finite frequency band.
Generic adaptive routines waste effort rediscovering the oscillation
scale, so the integrator here works on an explicit panel list.  Callers
build initial boundaries that already resolve the fastest oscillation
(no panel wider than half its period) and the steep spectral edge near
the infrared cutoff; the engine then bisects the worst panels until the
summed Gauss-Kronrod error estimate meets an absolute-plus-relative
tolerance.

One call can integrate many bands at once (``grouped=True``): each band
is a group that must meet the tolerance on its own value within its own
panel budget, refined by the same rule as a lone band, and the
integrand is evaluated once per refinement round over the new panels of
every group.  Every per-group quantity is reduced over that group's own
panels in a fixed order, so a group's result never depends on which
other groups share the call.
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


# Integrand argument in grouped mode: each point with the group it serves.
GROUPED_POINT = np.dtype([("x", float), ("group", np.intp)])

# Refinement state of a group.
_RUNNING, _CONVERGED, _OUT_OF_PANELS, _AT_MACHINE_WIDTH = range(4)


@dataclass
class QuadratureResult:
    """Integral value with its achieved error estimate and panel count."""

    value: float
    error: float
    panels: int


@dataclass
class GroupedQuadratureResult:
    """Per-group values, error estimates, panel counts and convergence.

    A group that did not converge keeps its best estimate; ``panels`` is
    the total over all groups.
    """

    values: np.ndarray
    errors: np.ndarray
    group_panels: np.ndarray
    converged: np.ndarray

    @property
    def panels(self) -> int:
        return int(self.group_panels.sum())


class QuadratureError(RuntimeError):
    """Refinement exhausted the panel budget before reaching tolerance.

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
    if not (0.0 < lo < hi):
        raise ValueError(f"band limits must satisfy 0 < lo < hi, got [{lo}, {hi}]")
    if not (max_width > 0.0 and np.isfinite(max_width)):
        raise ValueError(f"max_width must be positive and finite, got {max_width}")
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
    grows = ((geometric * (edge_ratio - 1.0) < max_width)
             & (geometric * edge_ratio < hi))
    last = int(grows.argmin())
    x = float(geometric[last])
    # Uniform tail with equal panels no wider than max_width.
    rest = hi - x
    n = max(1, math.ceil(rest / max_width)) if rest > 0.0 else 0
    pts = np.concatenate((geometric[:last + 1],
                          x + rest * np.arange(1, n + 1) / n))
    pts[-1] = hi
    return pts


def _eval_panels(fn: Callable[[np.ndarray], np.ndarray],
                 lefts: np.ndarray, rights: np.ndarray, group=None):
    """Gauss-Kronrod value and error estimate for a batch of panels.

    The node sums run along each panel's own row, so a panel's value
    does not depend on the other panels of the batch.  With ``group``
    set, ``fn`` receives GROUPED_POINT records.
    """
    half = 0.5 * (rights - lefts)
    mid = 0.5 * (rights + lefts)
    x = mid[:, None] + half[:, None] * _KRONROD_NODES
    if group is None:
        points = x.ravel()
    else:
        points = np.empty(x.size, dtype=GROUPED_POINT)
        points["x"] = x.ravel()
        points["group"] = np.repeat(group, x.shape[1])
    fx = fn(points).reshape(x.shape)
    k15 = (fx * _KRONROD_WEIGHTS).sum(axis=1) * half
    g7 = (fx[:, _GAUSS_SLICE] * _GAUSS_WEIGHTS).sum(axis=1) * half
    return k15, np.abs(k15 - g7)


def _check_band(boundaries) -> np.ndarray:
    boundaries = np.asarray(boundaries, dtype=float)
    if boundaries.ndim != 1 or boundaries.size < 2:
        raise ValueError("boundaries must hold at least one panel")
    if not np.all(np.diff(boundaries) > 0.0):
        raise ValueError("boundaries must be strictly increasing")
    return boundaries


def integrate_panels(fn: Callable[[np.ndarray], np.ndarray],
                     boundaries, *,
                     atol: float = 1e-8, rtol: float = 1e-8,
                     max_panels: int = 200_000, grouped: bool = False):
    """Integrate ``fn`` over the panels delimited by ``boundaries``.

    ``fn`` must accept a 1-D array of points strictly inside the band and
    return values elementwise (Kronrod nodes never touch panel edges, so
    ``fn`` is never called at the band limits themselves).

    Refinement bisects every panel holding more than its share of the
    error budget until ``sum(errors) <= atol + rtol*|value|``.  Panels at
    machine width are left alone; if no splittable panel remains or the
    panel budget is exhausted, ``QuadratureError`` is raised with the best
    estimate attached.

    With ``grouped`` set, ``boundaries`` is a sequence of bands, one per
    group, and ``fn`` receives GROUPED_POINT records (``x`` and the index
    of its band as ``group``).  Each group meets its own tolerance within
    its own ``max_panels``; the result is a GroupedQuadratureResult, and
    a group that fails keeps its best estimate and a false ``converged``
    flag instead of raising.
    """
    bands = ([_check_band(b) for b in boundaries] if grouped
             else [_check_band(boundaries)])
    if not bands:
        empty = np.empty(0)
        return GroupedQuadratureResult(empty, empty, np.empty(0, np.intp),
                                       np.empty(0, bool))
    values, errors, counts, status = _refine(fn, bands, grouped, atol, rtol,
                                             max_panels)
    if grouped:
        return GroupedQuadratureResult(values, errors, counts,
                                       status == _CONVERGED)

    total, err, panels = float(values[0]), float(errors[0]), int(counts[0])
    if status[0] == _CONVERGED:
        return QuadratureResult(total, err, panels)
    tol = atol + rtol * abs(total)
    if status[0] == _OUT_OF_PANELS:
        message = (f"needed more than {max_panels} panels "
                   f"(reached error {err:.3e} vs tolerance {tol:.3e})")
    else:
        message = ("all panels at machine width before reaching tolerance "
                   f"(error {err:.3e} vs tolerance {tol:.3e})")
    raise QuadratureError(message, total, err, panels)


def _refine(fn, bands, grouped, atol, rtol, max_panels):
    """Refinement loop shared by lone and grouped integration.

    Panels are kept sorted by group, and within a group in the order a
    lone run would hold them (kept panels, then left halves, then right
    halves), so per-group sums see the same terms in the same order.
    Returns per-group values, errors, panel counts and final states.
    """
    n_groups = len(bands)
    counts = np.array([b.size - 1 for b in bands], dtype=np.intp)
    ids = np.repeat(np.arange(n_groups), counts)
    lefts = np.concatenate([b[:-1] for b in bands])
    rights = np.concatenate([b[1:] for b in bands])
    vals, errs = _eval_panels(fn, lefts, rights, ids if grouped else None)
    status = np.full(n_groups, _RUNNING)
    while True:
        starts = np.cumsum(counts) - counts
        totals = np.add.reduceat(vals, starts)
        errors = np.add.reduceat(errs, starts)
        tol = atol + rtol * np.abs(totals)
        status[(status == _RUNNING) & (errors <= tol)] = _CONVERGED
        status[(status == _RUNNING) & (counts >= max_panels)] = _OUT_OF_PANELS
        running = status == _RUNNING
        if not running.any():
            return totals, errors, counts, status

        widths = rights - lefts
        splittable = widths > 16.0 * np.finfo(float).eps * np.maximum(
            np.abs(lefts), np.abs(rights))
        mask = (running[ids] & (errs > (0.5 * tol / counts)[ids])
                & splittable)
        stuck = running & (np.bincount(ids[mask], minlength=n_groups) == 0)
        if stuck.any():
            # no panel above its share: split the worst splittable ones
            worst = np.maximum.reduceat(np.where(splittable, errs, -np.inf),
                                        starts)
            status[stuck & (worst == -np.inf)] = _AT_MACHINE_WIDTH
            stuck &= worst > -np.inf
            mask |= stuck[ids] & splittable & (errs >= worst[ids])
            if not mask.any():
                return totals, errors, counts, status

        mids = 0.5 * (lefts[mask] + rights[mask])
        new_lefts = np.concatenate([lefts[mask], mids])
        new_rights = np.concatenate([mids, rights[mask]])
        new_ids = np.concatenate([ids[mask], ids[mask]])
        new_vals, new_errs = _eval_panels(fn, new_lefts, new_rights,
                                          new_ids if grouped else None)

        keep = ~mask
        lefts = np.concatenate([lefts[keep], new_lefts])
        rights = np.concatenate([rights[keep], new_rights])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        ids = np.concatenate([ids[keep], new_ids])
        if n_groups > 1:
            order = np.argsort(ids, kind="stable")
            lefts, rights, vals, errs, ids = (
                lefts[order], rights[order], vals[order], errs[order],
                ids[order])
        counts = np.bincount(ids, minlength=n_groups)
