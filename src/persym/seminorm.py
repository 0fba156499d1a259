"""Periodic fractional seminorm by two independent routes, perimeter, coarea.

Route one ("direct") integrates the power kernel over cell pairs: periodized
1D tables, or the 2D table with analytic exterior masses.  Route two
("laplace") writes the kernel as a Gamma-weighted integral of Gaussians in
an auxiliary time variable, evaluates wrapped-Gaussian and line-Gaussian
tables at each quadrature node, and integrates with the validated
exp-substitution rule.  The routes share no kernel code, so their agreement
cross-validates both; divergence (sp >= 1 on non-constant step input) is a
first-class result, not an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import ConfigError, NotIndicator
from .grid import Grid1D, GridFunctionND, StepFunction
from .kernels import (
    LaplaceConfig,
    _gauss_tables_batch,
    _heat_table_batch,
    laplace_quadrature,
    offset_sums,
    riesz_weights_1d,
    riesz_weights_nd,
)

SQRT_PI = math.sqrt(math.pi)
LAPLACE_RTOL = 1e-9  # build target of the Laplace-route quadrature rule


@dataclass(frozen=True)
class SeminormParams:
    """Exponents of the fractional energy: s in (0,1), p >= 1, dimension n."""

    s: float
    p: float
    n: int = 1

    def __post_init__(self):
        if not 0.0 < self.s < 1.0:
            raise ConfigError(f"s must lie in (0, 1), got {self.s}")
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ConfigError(f"p must be finite and >= 1, got {self.p}")
        if self.n < 1:
            raise ConfigError(f"dimension must be positive, got {self.n}")

    @property
    def sigma(self) -> float:
        return self.s * self.p

    @property
    def lam(self) -> float:
        return (self.n + self.s * self.p) / 2.0

    @property
    def step_mode_finite(self) -> bool:
        return self.sigma < 1.0


@dataclass(frozen=True)
class SeminormResult:
    """Value of the seminorm, with divergence as a first-class outcome."""

    value: float
    method: str
    accuracy: float
    divergent: bool = False

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "accuracy", float(self.accuracy))

    def __repr__(self):
        if self.divergent:
            return f"SeminormResult(divergent, method={self.method!r})"
        return f"SeminormResult({self.value!r}, method={self.method!r})"


def _divergent(method: str) -> SeminormResult:
    return SeminormResult(math.inf, method, math.inf, divergent=True)


def _pair_costs(u: StepFunction | GridFunctionND, p: float) -> np.ndarray:
    """S[d] = sum over cell pairs at offset d of |u_i - u_j|^p."""
    periodic = (True, False) if isinstance(u, GridFunctionND) else (True,)
    return offset_sums(u.values, u.values, lambda a, b: np.abs(a - b) ** p, periodic)


def _is_2d(u: StepFunction | GridFunctionND, params: SeminormParams) -> bool:
    """Whether u is a 2D input; both routes take n in {1, 2} and need params.n == n."""
    nd = isinstance(u, GridFunctionND)
    if nd and u.ndim != 2:
        raise ConfigError(f"the seminorm routes implement n in {{1, 2}}, got n = {u.ndim}")
    dim = 2 if nd else 1
    if params.n != dim:
        raise ConfigError(f"{dim}D input needs params.n == {dim}")
    return nd


def gagliardo_periodic_direct(
    u: StepFunction | GridFunctionND, params: SeminormParams
) -> SeminormResult:
    """Fractional seminorm by exact sums against power-kernel tables.

    1D: x over one period, y over the whole line via periodized weights.
    2D: x over one period times the box, y over the plane; the function
    vanishes outside the box, so the exterior contributes |u|^p against
    closed-form tail masses.
    """
    if _is_2d(u, params):
        if not params.step_mode_finite:
            const = float(u.values.max() - u.values.min()) == 0.0
            return (
                SeminormResult(0.0, "direct", 1e-15)
                if const
                else _divergent("direct")
            )
        table = _nd_table_cached(
            u.axis1.n,
            u.axes_perp[0].n,
            u.axes_perp[0].lo,
            u.axes_perp[0].hi,
            params.sigma,
        )
        s = _pair_costs(u, params.p)
        interior = float(np.vdot(s, table.weights))
        tails = 2.0 * float(np.sum((u.values**params.p) * table.exterior[None, :]))
        total = interior + tails
        return SeminormResult(total ** (1.0 / params.p), "direct", table.accuracy)
    if not params.step_mode_finite:
        return (
            SeminormResult(0.0, "direct", 1e-15)
            if u.is_constant()
            else _divergent("direct")
        )
    w = _riesz_table_cached(u.grid.n, params.sigma)
    s = _pair_costs(u, params.p)
    total = float(np.vdot(s, w.weights))
    return SeminormResult(total ** (1.0 / params.p), "direct", w.accuracy)


@lru_cache(maxsize=64)
def _riesz_table_cached(n: int, sigma: float):
    return riesz_weights_1d(Grid1D.circle(n), sigma, periodized=True)


@lru_cache(maxsize=32)
def _nd_table_cached(n1: int, n2: int, lo: float, hi: float, sigma: float):
    return riesz_weights_nd(Grid1D.circle(n1), Grid1D.interval(n2, lo, hi), sigma)


@lru_cache(maxsize=64)
def _laplace_rule_cached(lam: float, z_min: float, z_max: float) -> LaplaceConfig:
    # the window covers the pair tables' exponential transients only: below
    # it every table is on its small-t branch, above it on its large-t one,
    # and the routes add both algebraic ends in closed form
    return laplace_quadrature(lam, z_min, z_max, rtol=LAPLACE_RTOL)


def _touch_count(d: int, n: int) -> int:
    """Number of periodic copies of offset d at exactly one cell of distance.

    For n >= 3 this is 1 for d in {1, n-1} and 0 otherwise; tiny circles
    wrap: on n = 2 the two cells touch on both sides, on n = 1 the cell
    touches its own copies twice.
    """
    return sum(1 for k in (-1, 0, 1) if abs(d - k * n) == 1)


@lru_cache(maxsize=32)
def _stack_1d(n: int, lam: float):
    """(rule, heat-table stack) for the 1D Laplace route on the n-cell circle."""
    h = 2.0 * math.pi / n
    cfg = _laplace_rule_cached(lam, h * h / 4.0, (2 * math.pi) ** 2)
    return cfg, _heat_table_batch(n, h, cfg.nodes)


@lru_cache(maxsize=16)
def _stack_2d(n1: int, n2: int, lo: float, hi: float, lam: float):
    """Rule and per-node tables for the 2D Laplace route (heat, gauss, ext, row)."""
    h1 = 2.0 * math.pi / n1
    g2 = Grid1D.interval(n2, lo, hi)
    z_min = min(h1, g2.h) ** 2 / 4.0
    z_max = (2.0 * math.pi) ** 2 + g2.length**2
    cfg = _laplace_rule_cached(lam, z_min, z_max)
    heat = _heat_table_batch(n1, h1, cfg.nodes)
    gauss, ext = _gauss_tables_batch(g2, cfg.nodes)
    row1 = h1 * np.sqrt(math.pi / cfg.nodes)
    return cfg, heat, gauss, ext, row1


def gagliardo_periodic_laplace(
    u: StepFunction | GridFunctionND, params: SeminormParams
) -> SeminormResult:
    """Fractional seminorm through the heat-kernel time integral.

    At each quadrature time the periodic axis contributes a wrapped-Gaussian
    pair table and every perpendicular axis a line-Gaussian factor (plus
    closed-form exterior masses); the validated rule then integrates
    t^(lam-1) times that profile and Gamma(lam) rescales.
    """
    nd = _is_2d(u, params)
    if not params.step_mode_finite:
        vals = u.values
        const = float(vals.max() - vals.min()) == 0.0
        return (
            SeminormResult(0.0, "laplace", 1e-15) if const else _divergent("laplace")
        )
    if nd:
        n1, h1 = u.axis1.n, u.axis1.h
        g2 = u.axes_perp[0]
        cfg, heat, gauss, ext, row1 = _stack_2d(n1, g2.n, g2.lo, g2.hi, params.lam)
        s = _pair_costs(u, params.p)
        upow = np.abs(u.values) ** params.p
        profile = np.einsum("qa,ab,qb->q", heat, s, gauss)
        profile += 2.0 * row1 * (ext @ upow.sum(axis=0))
        total = cfg.apply(profile)
        # beyond the window only the touching-pair products survive, with the
        # exact algebraic forms (multiplicity/2t per adjacent axis, with wrap
        # multiplicities on the periodic one, and h sqrt(pi/t) - 1/t per
        # zero-offset axis); everything else is exp(-h^2 t)-small there.  The
        # wrap multiplicity of d1 = 0 (n1 = 1) enters once, through t1c
        n2 = g2.n
        t1 = sum(s[d1, n2 - 1] * _touch_count(d1, n1) for d1 in range(n1))
        t1c = sum(
            (s[d1, n2] + s[d1, n2 - 2] if n2 >= 2 else 0.0) * _touch_count(d1, n1)
            for d1 in range(n1)
        )
        s_b = s[0, n2] + s[0, n2 - 2] if n2 >= 2 else 0.0
        total += cfg.algebraic_tail((t1 * g2.h + s_b * h1) * SQRT_PI / 2.0, 1.5)
        total += cfg.algebraic_tail(-(t1 + s_b) / 2.0 + t1c / 4.0, 2.0)
        # below the window every weight is on its small-t branch: heat tables
        # are h1^2/(2 sqrt(pi t)) up to exp(-1/4t), Gaussian tables h2^2 and
        # exterior masses h2 (sqrt(pi/t) - L2) up to O(t) relative
        upow_total = float(np.sum(upow))
        total += cfg.algebraic_head(2.0 * math.pi * h1 * g2.h * upow_total, 1.0)
        total += cfg.algebraic_head(
            float(s.sum()) * h1**2 * g2.h**2 / (2.0 * SQRT_PI)
            - 2.0 * SQRT_PI * h1 * g2.h * g2.length * upow_total,
            0.5,
        )
        total /= special.gamma(params.lam)
        acc = cfg.achieved + 1e-12
        return SeminormResult(total ** (1.0 / params.p), "laplace", acc)
    n, h = u.grid.n, u.grid.h
    cfg, heat = _stack_1d(n, params.lam)
    s = _pair_costs(u, params.p)
    total = cfg.apply(heat @ s)
    total += cfg.algebraic_tail(
        sum(s[d] * _touch_count(d, n) for d in range(n)) / 2.0, 1.0
    )
    total += cfg.algebraic_head(float(s.sum()) * h**2 / (2.0 * SQRT_PI), 0.5)
    total /= special.gamma(params.lam)
    return SeminormResult(total ** (1.0 / params.p), "laplace", cfg.achieved + 1e-12)


def fractional_perimeter(e: StepFunction | GridFunctionND, s: float) -> float:
    """Interaction of an indicator set with its complement under |z|^-(n+s).

    Exact finite sum of pair weights between set cells and complement cells
    (plus, in 2D, the analytic exterior which is all complement).
    """
    if not e.is_indicator():
        raise NotIndicator("fractional perimeter needs an indicator function")
    if isinstance(e, GridFunctionND):
        if e.ndim != 2:
            raise ConfigError("perimeter implements n in {1, 2}")
        table = _nd_table_cached(
            e.axis1.n, e.axes_perp[0].n, e.axes_perp[0].lo, e.axes_perp[0].hi, s
        )
        inside = e.values
        scost = offset_sums(inside, 1.0 - inside, np.multiply, (True, False))
        interior = float(np.vdot(scost, table.weights))
        tails = float(np.sum(inside * table.exterior[None, :]))
        return interior + tails
    w = _riesz_table_cached(e.grid.n, s)
    scost = offset_sums(e.values, 1.0 - e.values, np.multiply, (True,))
    return float(np.vdot(scost, w.weights))


def coarea_identity_check(u: StepFunction, s: float) -> float:
    """Relative residual of the level-set identity for the p = 1 seminorm.

    The p = 1 seminorm must equal twice the level integral of the perimeter
    of the strict superlevel sets; on step functions both sides are exact
    finite sums over the same weight table, so the residual is pure float
    rounding.
    """
    params = SeminormParams(s, 1.0)
    lhs = gagliardo_periodic_direct(u, params).value
    cuts = np.unique(np.concatenate(([0.0], u.values)))
    rhs = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        e = u.with_values((u.values > a).astype(float))
        rhs += (b - a) * fractional_perimeter(e, s)
    rhs *= 2.0
    if lhs == 0.0:
        return abs(rhs)
    return abs(lhs - rhs) / lhs
