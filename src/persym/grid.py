"""Uniform grids and exact step-function algebra.

Functions are represented as nonnegative piecewise-constant values on a
uniform grid, either one period of the circle (fixed to [-pi, pi)) or a
bounded interval of the line.  Everything downstream (rearrangement,
energies, seminorms) is an exact finite computation on this representation,
so the only approximation anywhere in the package lives in kernel weight
tables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
import numpy as np

from .errors import (
    ConfigError,
    IncompatibleGrids,
    NegativeValue,
    NotInterval,
    NotPeriodic,
    OutOfDomain,
)

HALF_PERIOD = math.pi


@dataclass(frozen=True)
class Grid1D:
    """Uniform 1D grid: ``n`` cells tiling [lo, hi), periodic or not.

    Periodic grids always cover one period [-pi, pi); cell ``i`` is
    ``[lo + i*h, lo + (i+1)*h)`` and periodic indices wrap modulo ``n``.
    """

    n: int
    lo: float
    hi: float
    periodic: bool

    def __post_init__(self):
        if self.n < 1:
            raise ConfigError(f"grid needs at least one cell, got n={self.n}")
        if not self.hi > self.lo:
            raise ConfigError(f"empty domain [{self.lo}, {self.hi})")
        if self.periodic and not (
            math.isclose(self.lo, -HALF_PERIOD) and math.isclose(self.hi, HALF_PERIOD)
        ):
            raise ConfigError("periodic grids cover exactly [-pi, pi)")

    @classmethod
    def circle(cls, n: int) -> "Grid1D":
        return cls(n, -HALF_PERIOD, HALF_PERIOD, True)

    @classmethod
    def interval(cls, n: int, lo: float, hi: float) -> "Grid1D":
        return cls(n, float(lo), float(hi), False)

    @classmethod
    def centered_interval(cls, n: int, length: float) -> "Grid1D":
        return cls(n, -length / 2.0, length / 2.0, False)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def h(self) -> float:
        return self.length / self.n

    def centers(self) -> np.ndarray:
        return self.lo + (np.arange(self.n) + 0.5) * self.h

    def boundaries(self) -> np.ndarray:
        """Cell edges lo + i h; the last is hi itself, which lo + n h may overshoot."""
        b = self.lo + np.arange(self.n + 1) * self.h
        b[-1] = self.hi
        return b

    def cell_of(self, x: float) -> int:
        """Index of the cell containing x (wrapping on periodic grids)."""
        if self.periodic:
            x = x - self.length * math.floor((x - self.lo) / self.length)
        elif not (self.lo <= x < self.hi):
            raise OutOfDomain(f"x={x} outside [{self.lo}, {self.hi})")
        i = int((x - self.lo) / self.h)
        return min(i, self.n - 1)

    def refined(self, factor: int) -> "Grid1D":
        return Grid1D(self.n * factor, self.lo, self.hi, self.periodic)


def _as_values(values, n: int | None = None) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.ndim != 1:
        raise ConfigError(f"values must be one-dimensional, got shape {arr.shape}")
    if n is not None and arr.size != n:
        raise ConfigError(f"expected {n} values, got {arr.size}")
    if arr.size and float(arr.min()) < 0.0:
        raise NegativeValue(
            "step functions are nonnegative; use absolute_value() on signed input"
        )
    if not np.all(np.isfinite(arr)):
        raise ConfigError("values must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class StepFunction:
    """Nonnegative piecewise-constant function on a Grid1D."""

    grid: Grid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values", _as_values(self.values, self.grid.n))

    @classmethod
    def on_circle(cls, values) -> "StepFunction":
        values = np.asarray(values, dtype=float)
        return cls(Grid1D.circle(values.size), values)

    @classmethod
    def constant(cls, grid: Grid1D, c: float) -> "StepFunction":
        return cls(grid, np.full(grid.n, float(c)))

    @property
    def h(self) -> float:
        return self.grid.h

    @property
    def mass(self) -> float:
        return self.h * float(self.values.sum())

    def is_constant(self, tol: float = 0.0) -> bool:
        return float(self.values.max() - self.values.min()) <= tol

    def is_indicator(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))

    def with_values(self, values) -> "StepFunction":
        return StepFunction(self.grid, values)

    def __call__(self, x: float) -> float:
        return float(self.values[self.grid.cell_of(x)])


def absolute_value(grid: Grid1D, values) -> StepFunction:
    """Explicit |.| preprocessor: the only door for signed input."""
    arr = np.asarray(values, dtype=float)
    return StepFunction(grid, np.abs(arr))


@dataclass(frozen=True)
class GridFunctionND:
    """Tensor-product function: periodic first axis, boxed interval axes after.

    The values must vanish on the boundary layer of every interval axis so
    that every superlevel set stays strictly inside the box; pass
    ``require_compact=False`` only for operator outputs documented to be
    approximate.
    """

    axis1: Grid1D
    axes_perp: tuple[Grid1D, ...]
    values: np.ndarray = field(repr=False)
    require_compact: bool = True

    def __post_init__(self):
        if not self.axis1.periodic:
            raise NotPeriodic("first axis of an ND function is the periodic one")
        axes = tuple(self.axes_perp)
        for g in axes:
            if g.periodic:
                raise NotInterval("perpendicular axes must be interval grids")
        object.__setattr__(self, "axes_perp", axes)
        shape = (self.axis1.n,) + tuple(g.n for g in axes)
        arr = np.ascontiguousarray(self.values, dtype=float)
        if arr.shape != shape:
            raise ConfigError(f"values shape {arr.shape} != grid shape {shape}")
        if arr.size and float(arr.min()) < 0.0:
            raise NegativeValue("ND grid functions are nonnegative")
        if not np.all(np.isfinite(arr)):
            raise ConfigError("values must be finite")
        if self.require_compact:
            for ax in range(1, arr.ndim):
                first = np.take(arr, 0, axis=ax)
                last = np.take(arr, -1, axis=ax)
                if first.any() or last.any():
                    raise ConfigError(
                        "values must vanish on the boundary layer of every "
                        f"perpendicular axis (axis {ax})"
                    )
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def ndim(self) -> int:
        return 1 + len(self.axes_perp)

    @property
    def grids(self) -> tuple[Grid1D, ...]:
        return (self.axis1,) + self.axes_perp

    @property
    def cell_volume(self) -> float:
        v = self.axis1.h
        for g in self.axes_perp:
            v *= g.h
        return v

    def is_indicator(self) -> bool:
        return bool(np.all((self.values == 0.0) | (self.values == 1.0)))


# ---------------------------------------------------------------------------
# operations


def refine(u: StepFunction, factor: int) -> StepFunction:
    """Embed u into a grid refined by an integer factor; pointwise equal."""
    if factor < 1 or int(factor) != factor:
        raise ConfigError(f"refinement factor must be a positive integer, got {factor}")
    if factor == 1:
        return u
    return StepFunction(u.grid.refined(int(factor)), np.repeat(u.values, int(factor)))


def superlevel_measure(u: StepFunction | GridFunctionND, tau: float) -> float:
    """Lebesgue measure of the strict superlevel set {u > tau}; exact."""
    if isinstance(u, GridFunctionND):
        return u.cell_volume * int(np.count_nonzero(u.values > tau))
    return u.h * int(np.count_nonzero(u.values > tau))


def _common_refinement(u: StepFunction, v: StepFunction) -> tuple[np.ndarray, np.ndarray]:
    m = math.lcm(u.grid.n, v.grid.n)
    return np.repeat(u.values, m // u.grid.n), np.repeat(v.values, m // v.grid.n)


def equimeasurable(u: StepFunction, v: StepFunction) -> bool:
    """True iff u and v have identical superlevel measures at every level.

    Exact: compares sorted value multisets after refining both functions to
    the common grid, which weights every value by its cell width.
    """
    if not math.isclose(u.grid.length, v.grid.length, rel_tol=1e-12):
        raise IncompatibleGrids(
            f"domain lengths differ: {u.grid.length} vs {v.grid.length}"
        )
    a, b = _common_refinement(u, v)
    return bool(np.array_equal(np.sort(a), np.sort(b)))


def layer_cake_value(u: StepFunction, x: float) -> float:
    """Evaluate u at x through its layer cake, integral of chi_{u>t}(x) dt.

    The integrand is piecewise constant in t with breakpoints at the distinct
    values of u, so the reconstruction is an exact finite sum and returns the
    cell value itself: the layer cake is the identity on step functions.
    """
    i = u.grid.cell_of(x)
    levels = np.concatenate(([0.0], np.unique(u.values)))
    widths = np.diff(levels)
    above = u.values[i] > levels[:-1]
    return float(widths[above].sum())


# ---------------------------------------------------------------------------
# JSON interchange
#
# 1D:  {"grid": {"n": 8, "domain": "periodic"}, "values": [..]}
#      {"grid": {"n": 8, "domain": [lo, hi]},   "values": [..]}
# ND:  {"axes": [{"n":..,"domain":..}, ...], "values": nested row-major}


def _grid_to_json(g: Grid1D) -> dict:
    return {"n": g.n, "domain": "periodic" if g.periodic else [g.lo, g.hi]}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _grid_from_json(obj: dict) -> Grid1D:
    try:
        n, dom = obj["n"], obj["domain"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"bad grid spec: {obj!r}") from exc
    if not (_is_number(n) and (isinstance(n, int) or n.is_integer())):
        raise ConfigError(f"grid cell count is not an integer: {n!r}")
    if dom == "periodic":
        return Grid1D.circle(int(n))
    if isinstance(dom, (list, tuple)) and len(dom) == 2 and all(map(_is_number, dom)):
        return Grid1D.interval(int(n), float(dom[0]), float(dom[1]))
    raise ConfigError(f"bad domain spec: {dom!r}")


def function_to_json(u: StepFunction | GridFunctionND) -> dict:
    if isinstance(u, GridFunctionND):
        return {
            "axes": [_grid_to_json(g) for g in u.grids],
            "values": u.values.tolist(),
        }
    return {"grid": _grid_to_json(u.grid), "values": u.values.tolist()}


def _json_values(obj: dict) -> np.ndarray:
    try:
        values = np.asarray(obj["values"], dtype=float)
    except (TypeError, ValueError) as exc:  # ragged rows or non-numbers
        raise ConfigError(f"function values are not a numeric array: {exc}") from exc
    if values.size and float(values.min()) < 0.0:  # an invalid file, not NegativeValue
        raise ConfigError(f"function values must be nonnegative, got {float(values.min())!r}")
    return values


def function_from_json(obj: dict) -> StepFunction | GridFunctionND:
    if not isinstance(obj, dict):
        raise ConfigError(f"function JSON is not an object: {obj!r}")
    if "axes" in obj:
        if "values" not in obj:
            raise ConfigError("ND function JSON needs 'axes' and 'values' keys")
        if not isinstance(obj["axes"], list):
            raise ConfigError(f"ND function 'axes' is not a list: {obj['axes']!r}")
        grids = [_grid_from_json(g) for g in obj["axes"]]
        if not grids:
            raise ConfigError("ND function needs at least one axis")
        return GridFunctionND(grids[0], tuple(grids[1:]), _json_values(obj))
    if "grid" not in obj or "values" not in obj:
        raise ConfigError("function JSON needs 'grid' and 'values' keys")
    return StepFunction(_grid_from_json(obj["grid"]), _json_values(obj))


def load_function(path: str) -> StepFunction | GridFunctionND:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return function_from_json(obj)


def save_function(path: str, u: StepFunction | GridFunctionND) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(function_to_json(u), fh)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc
