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
panel budget.  One integrand call evaluates the initial panels of every
group; a group that misses its tolerance there is refined on its own,
by the loop a lone band runs, as QUADPACK refines one integral at a
time.  Every per-group quantity is reduced over that group's own panels
in a fixed order, so a group's result never depends on which other
groups share the call.  ``band_set`` builds the initial panels of many
bands that share their lower limit in one pass, back to back in a
``Bands``.  ``gauss_kronrod`` is the panel rule without refinement;
``kronrod_nodes`` and ``kronrod_sums`` are its two halves, for callers
that keep an integrand's values at the nodes and weigh them again.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


# Growth ratio of the geometric panels at a band's lower limit.
EDGE_RATIO = 1.25

# Integrand argument in grouped mode: each point with the group it serves.
GROUPED_POINT = np.dtype([("x", float), ("group", np.intp)])

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


class Bands(Sequence):
    """Panel boundaries of many bands, stored back to back.

    Band i holds ``sizes[i]`` boundaries, the next ``sizes[i]`` entries
    of ``edges`` after those of the bands before it.  Indexing and
    iteration give the bands one at a time, as views of ``edges``.
    """

    def __init__(self, edges: np.ndarray, sizes: np.ndarray):
        self.edges = edges
        self.sizes = sizes
        self.ends = np.cumsum(sizes)

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, i: int) -> np.ndarray:
        return self.edges[self.ends[i] - self.sizes[i]:self.ends[i]]


def band_boundaries(lo: float, hi: float, max_width: float,
                    edge_ratio: float = EDGE_RATIO) -> np.ndarray:
    """Initial panel boundaries over ``[lo, hi]``: the one-band case of
    ``band_set``, which it returns bit for bit.

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
    return band_set(lo, [hi], [max_width], edge_ratio).edges


def band_set(lo: float, hi, max_width,
             edge_ratio: float = EDGE_RATIO) -> Bands:
    """Initial panel boundaries of many bands [lo, hi[i]] in one pass,
    each no wider than ``max_width[i]`` (see ``band_boundaries``).

    Every band starts at the same ``lo`` with the same ratio, so all
    share one geometric prefix and each band only picks where it leaves
    it; a band's boundaries do not depend on the other bands.
    """
    hi = np.asarray(hi, dtype=float)
    max_width = np.asarray(max_width, dtype=float)
    bad = ~((0.0 < lo) & (lo < hi))
    if bad.any():
        raise ValueError("band limits must satisfy 0 < lo < hi, "
                         f"got [{lo}, {hi[bad][0]}]")
    bad = ~((max_width > 0.0) & np.isfinite(max_width))
    if bad.any():
        raise ValueError("max_width must be positive and finite, "
                         f"got {max_width[bad][0]}")
    if not (edge_ratio > 1.0 and np.isfinite(edge_ratio)):
        raise ValueError(f"edge_ratio must exceed 1, got {edge_ratio}")
    if not hi.size:
        return Bands(np.empty(0), np.empty(0, np.intp))

    # Geometric section: x_{k+1} = x_k * edge_ratio while the panel width
    # x_k*(edge_ratio - 1) stays below max_width and x_k*edge_ratio < hi.
    # cumprod multiplies in sequence, so x_k is the same float as k
    # repeated in-place products; x_k*edge_ratio passes hi after about
    # log(hi/lo)/log(edge_ratio) steps, and two more cover the rounding.
    steps = math.ceil((math.log(hi.max()) - math.log(lo))
                      / math.log(edge_ratio))
    geometric = np.full(steps + 3, edge_ratio)
    geometric[0] = lo
    np.cumprod(geometric, out=geometric)
    grows = ((geometric * (edge_ratio - 1.0) < max_width[:, None])
             & (geometric * edge_ratio < hi[:, None]))
    last = grows.argmin(axis=1)
    x = geometric[last]
    # Uniform tail with equal panels no wider than max_width.
    rest = hi - x
    n = np.where(rest > 0.0, np.maximum(1.0, np.ceil(rest / max_width)),
                 0.0).astype(np.intp)
    sizes = last + 1 + n
    ends = np.cumsum(sizes)
    band = np.repeat(np.arange(hi.size), sizes)
    k = np.arange(ends[-1]) - (ends - sizes)[band]
    edges = np.empty(k.size)
    head = k <= last[band]
    edges[head] = geometric[k[head]]
    tail = band[~head]
    edges[~head] = x[tail] + rest[tail] * (k[~head] - last[tail]) / n[tail]
    edges[ends - 1] = hi
    return Bands(edges, sizes)


def gauss_kronrod(fn: Callable[[np.ndarray], np.ndarray],
                  lefts: np.ndarray, rights: np.ndarray, group=None):
    """Gauss-Kronrod value and error estimate for a batch of panels,
    without refinement.

    The node sums run along each panel's own row, so a panel's value
    does not depend on the other panels of the batch.  With ``group``
    set (one band index, or one per panel as a column), ``fn`` receives
    GROUPED_POINT records.
    """
    x, half = kronrod_nodes(lefts, rights)
    points = x
    if group is not None:
        points = np.empty(x.shape, dtype=GROUPED_POINT)
        points["x"] = x
        points["group"] = group
    return kronrod_sums(fn(points.ravel()).reshape(x.shape), half)


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


def _as_bands(boundaries, grouped: bool) -> Bands:
    """``integrate_panels``' boundaries as one validated Bands.

    A band that is not 1-D counts as holding no panel.  All bands are
    checked in one pass; the first failing band raises, with the panel
    count checked before the ordering.
    """
    if not isinstance(boundaries, Bands):
        bands = [np.asarray(b, dtype=float)
                 for b in (boundaries if grouped else [boundaries])]
        flat = [b for b in bands if b.ndim == 1]
        boundaries = Bands(
            np.concatenate(flat) if flat else np.empty(0),
            np.array([b.size if b.ndim == 1 else 0 for b in bands],
                     dtype=np.intp))
    edges, sizes, ends = boundaries.edges, boundaries.sizes, boundaries.ends
    rising = np.diff(edges) > 0.0
    between = ends[:-1] - 1  # steps from one band to the next
    rising[between[(between >= 0) & (between < rising.size)]] = True
    falls = np.bincount(np.searchsorted(ends, np.flatnonzero(~rising),
                                        side="right"),
                        minlength=sizes.size)
    bad = (sizes < 2) | (falls > 0)
    if bad.any():
        first = bad.argmax()
        if sizes[first] < 2:
            raise ValueError("boundaries must hold at least one panel")
        raise ValueError("boundaries must be strictly increasing")
    return boundaries


def integrate_panels(fn: Callable[[np.ndarray], np.ndarray],
                     boundaries, *,
                     atol=1e-8, rtol=1e-8,
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
    group (a ``Bands`` holds them back to back), and ``fn`` receives
    GROUPED_POINT records (``x`` and the index of its band as
    ``group``).  ``atol`` and ``rtol`` may then also hold one value per
    group.  Each group meets its own tolerance within its own
    ``max_panels``; the result is a GroupedQuadratureResult, and a group
    that fails keeps its best estimate and a false ``converged`` flag
    instead of raising.  All bands are validated and their initial
    panels evaluated in one pass; a band that misses its tolerance there
    is refined alone, one ``fn`` call per round over its new panels.
    """
    bands = _as_bands(boundaries, grouped)
    if not len(bands):
        empty = np.empty(0)
        return GroupedQuadratureResult(empty, empty, np.empty(0, np.intp),
                                       np.empty(0, bool))
    edges, sizes, ends = bands.edges, bands.sizes, bands.ends
    counts = sizes - 1
    starts = np.cumsum(counts) - counts
    lefts = np.delete(edges, ends - 1)
    rights = np.delete(edges, ends - sizes)
    group = np.repeat(np.arange(sizes.size), counts)[:, None]
    vals, errs = gauss_kronrod(fn, lefts, rights, group if grouped else None)
    atol = np.broadcast_to(np.asarray(atol, dtype=float), sizes.shape)
    rtol = np.broadcast_to(np.asarray(rtol, dtype=float), sizes.shape)
    # reduceat adds each band's panels left to right, as _refine does
    values = np.add.reduceat(vals, starts)
    errors = np.add.reduceat(errs, starts)
    converged = errors <= atol + rtol * np.abs(values)
    for g in np.flatnonzero(~converged):
        own = slice(starts[g], starts[g] + counts[g])
        values[g], errors[g], counts[g], converged[g] = _refine(
            fn, g if grouped else None, lefts[own], rights[own], vals[own],
            errs[own], atol[g], rtol[g], max_panels)
    if grouped:
        return GroupedQuadratureResult(values, errors, counts, converged)

    total, err, panels = float(values[0]), float(errors[0]), int(counts[0])
    if converged[0]:
        return QuadratureResult(total, err, panels)
    tol = atol[0] + rtol[0] * abs(total)
    if panels >= max_panels:
        message = (f"needed more than {max_panels} panels "
                   f"(reached error {err:.3e} vs tolerance {tol:.3e})")
    else:
        message = ("all panels at machine width before reaching tolerance "
                   f"(error {err:.3e} vs tolerance {tol:.3e})")
    raise QuadratureError(message, total, err, panels)


def _refine(fn, group, lefts, rights, vals, errs, atol, rtol, max_panels):
    """Refinement loop of one band, from its evaluated panels.

    New panels follow the kept ones, left halves before right halves,
    and the band's sums add its panels left to right, so a band refined
    here gives the same bits whichever call it came from.  Returns the
    band's value, error, panel count and whether it met the tolerance;
    short of it, the band ran out of panels if it holds ``max_panels``
    and has no panel left to split otherwise.
    """
    while True:
        total = np.add.reduceat(vals, [0])[0]
        error = np.add.reduceat(errs, [0])[0]
        tol = atol + rtol * abs(total)
        if error <= tol or vals.size >= max_panels:
            return total, error, vals.size, error <= tol

        widths = rights - lefts
        splittable = widths > 16.0 * np.finfo(float).eps * np.maximum(
            np.abs(lefts), np.abs(rights))
        mask = (errs > 0.5 * tol / vals.size) & splittable
        if not mask.any():
            # no panel above its share: split the worst splittable ones
            worst = np.where(splittable, errs, -np.inf).max()
            mask = splittable & (errs >= worst)
            if not mask.any():  # every panel at machine width, or NaN
                return total, error, vals.size, False

        mids = 0.5 * (lefts[mask] + rights[mask])
        new_lefts = np.concatenate([lefts[mask], mids])
        new_rights = np.concatenate([mids, rights[mask]])
        new_vals, new_errs = gauss_kronrod(fn, new_lefts, new_rights, group)

        keep = ~mask
        lefts = np.concatenate([lefts[keep], new_lefts])
        rights = np.concatenate([rights[keep], new_rights])
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
