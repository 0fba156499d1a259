"""Exact rearrangement operators on step functions.

The symmetric decreasing rearrangement of an N-cell step function is again a
step function once the grid is refined by 2: every superlevel set has measure
k*h for an integer k, and the centered interval of that measure has endpoints
on the half-cell lattice.  Every operator below is therefore exact: it
returns its output on the 2N-cell grid of the rearranged axis, on the circle,
an interval or the cylinder.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, NotIndicator, NotPeriodic
from .grid import Grid1D, GridFunctionND, StepFunction


def placement_order(n_refined: int) -> np.ndarray:
    """Cell visit order on a refined centered grid: by distance to 0, right first.

    The grid has ``n_refined`` cells (even) on a centered domain, so 0 is the
    boundary between cells n/2 - 1 and n/2.  Mirror cells are equidistant and
    the tie goes to the right cell; distances are nondecreasing along the
    returned permutation, read-only.  Values sorted descending and written
    along it are the rearrangement's (``_rearranged_values`` in closed form).
    """
    if n_refined % 2 != 0:
        raise ConfigError("placement order needs an even cell count")
    half = n_refined // 2
    out = np.empty(n_refined, dtype=np.intp)
    out[0::2] = half + np.arange(half)       # right cells: half, half+1, ...
    out[1::2] = half - 1 - np.arange(half)   # left mirrors
    out.flags.writeable = False
    return out


def _rearranged_values(values: np.ndarray, axis: int) -> np.ndarray:
    """Core step along ``axis``: each value on two half cells, in
    ``placement_order``.  The doubled values sorted descending come in equal
    pairs, one for a right cell and one for its mirror, so the result is the
    ascending sort followed by its reverse.  Other axes are independent
    slices."""
    asc = np.sort(values, axis=axis)
    return np.concatenate((asc, asc[(slice(None),) * axis + (slice(None, None, -1),)]), axis=axis)


def symmetric_decreasing_1d(u: StepFunction) -> StepFunction:
    """Symmetric decreasing rearrangement of u, exact on the half-cell grid.

    The output lives on the centered interval of the same length (already the
    case for periodic input), refined by 2.  Every strict superlevel set of
    the output is a centered interval whose measure equals that of the
    corresponding superlevel set of u.
    """
    grid = u.grid
    if grid.periodic:
        out_grid = grid.refined(2)
    else:
        out_grid = Grid1D.centered_interval(2 * grid.n, grid.length)
    return StepFunction(out_grid, _rearranged_values(u.values, axis=0))


def periodic_rearrange_1d(u: StepFunction) -> StepFunction:
    """Rearrangement of one period about 0, extended by periodic indexing."""
    if not u.grid.periodic:
        raise NotPeriodic("periodic rearrangement needs a periodic grid")
    return symmetric_decreasing_1d(u)


def periodic_rearrange_nd(u: GridFunctionND) -> GridFunctionND:
    """Rearrange every interval slice along the periodic axis."""
    return GridFunctionND(u.axis1.refined(2), u.axes_perp, _rearranged_values(u.values, axis=0))


def cylindrical_rearrange(u: GridFunctionND) -> GridFunctionND:
    """Rearrange every frozen-x1 slice along the interval axis: the exact 1D
    symmetric decreasing rearrangement, so that axis is refined by 2 and
    re-centered."""
    (g,) = u.axes_perp
    return GridFunctionND(
        u.axis1,
        (Grid1D.centered_interval(2 * g.n, g.length),),
        _rearranged_values(u.values, axis=1),
    )


def _check_indicator(values: np.ndarray) -> None:
    if not np.all((values == 0.0) | (values == 1.0)):
        raise NotIndicator("set rearrangement needs values in {0, 1}")


def rearrange_set_periodic(e: StepFunction) -> StepFunction:
    """Rearranged set as the indicator of {(chi_E)^* > 0}."""
    _check_indicator(e.values)
    return periodic_rearrange_1d(e)


def rearrange_set_cylindrical(e: GridFunctionND) -> GridFunctionND:
    _check_indicator(e.values)
    return cylindrical_rearrange(e)


def composition_commutes_check(g_monotone, u: StepFunction) -> bool:
    """Check (G o u)^* == G o (u^*) cellwise for a nondecreasing G >= 0.

    ``g_monotone`` is a vectorized callable; monotonicity is verified on the
    values of u, which is all the composition can see.
    """
    vals = np.asarray(g_monotone(u.values), dtype=float)
    order = np.argsort(u.values, kind="stable")
    if np.any(np.diff(vals[order]) < -1e-15 * (1 + np.abs(vals).max())):
        raise ConfigError("G must be nondecreasing on the values of u")
    lhs = symmetric_decreasing_1d(u.with_values(vals))
    rhs_vals = np.asarray(g_monotone(symmetric_decreasing_1d(u).values), dtype=float)
    return bool(np.array_equal(lhs.values, rhs_vals))
