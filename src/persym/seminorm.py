"""Periodic fractional seminorm by two independent routes, perimeter, coarea.

Both routes contract the pair costs of u with one table of cell-pair
weights (plus, in 2D, exterior masses); they differ in how the table is
built.  Route one ("direct") integrates the power kernel over cell pairs:
periodized 1D tables, or the 2D table with analytic exterior masses.  Route
two ("laplace") writes the kernel as a Gamma-weighted integral of Gaussians
in an auxiliary time variable and contracts the wrapped-Gaussian and
line-Gaussian tables at the nodes of the validated exp-substitution rule
into one table.  The tables share no kernel code, so their agreement
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
    KernelWeights,
    LaplaceConfig,
    NDKernelWeights,
    _gauss_tables_batch,
    _frozen,
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
    """S[d] = sum over cell pairs at offset d of |u_i - u_j|^p; S[-d] = S[d],
    so half the offsets of the periodic axis are summed."""
    periodic = (True, False) if isinstance(u, GridFunctionND) else (True,)
    cost = (lambda a, b: np.abs(a - b)) if p == 1.0 else (lambda a, b: np.abs(a - b) ** p)
    return offset_sums(u.values, u.values, cost, periodic, symmetric=True)


def _is_2d(u: StepFunction | GridFunctionND) -> bool:
    """Whether u is a 2D function; an ND one of another axis count is a ConfigError."""
    if not isinstance(u, GridFunctionND):
        return False
    if u.ndim != 2:
        raise ConfigError(
            f"an ND input needs one periodic axis and one interval axis, got {u.ndim} "
            "axes; a 1D function uses the 'grid' format"
        )
    return True


def gagliardo_periodic(
    u: StepFunction | GridFunctionND,
    params: SeminormParams,
    methods: tuple[str, ...] = ("direct", "laplace"),
) -> tuple[SeminormResult, ...]:
    """The fractional seminorm by each route of ``methods``, in their order.

    Each route contracts the pair costs S with its weight table W (see
    ``_ROUTES``): vdot(S, W) over cell offsets plus, in 2D,
    2 sum_x |u(x)|^p E[x2], since u vanishes outside the box, where the plane
    sees |u|^p against the table's exterior masses E.  The pair costs, and in
    2D the column sums of |u|^p over x1, are computed once for all routes.
    The dimension, 1 or 2, must be params.n.  A sum that overflows float
    range raises ConfigError; it is not the divergent result of sp >= 1.
    """
    if not set(methods) <= _ROUTES.keys():
        raise ConfigError(f"methods must be among {list(_ROUTES)}, got {list(methods)}")
    nd = _is_2d(u)
    if params.n != 1 + nd:
        raise ConfigError(f"{1 + nd}D input needs params.n == {1 + nd}")
    if not params.step_mode_finite:
        const = float(u.values.max() - u.values.min()) == 0.0
        return tuple(SeminormResult(0.0, m, 1e-15) if const else _divergent(m) for m in methods)
    s = _pair_costs(u, params.p)
    if nd:  # u is nonnegative, so |u|^p is u^p
        columns = (u.values**params.p).sum(axis=0)
    out = []
    for method in methods:
        table = _table(u, method, params.sigma)
        total = float(np.vdot(s, table.weights))
        if nd:
            total += 2.0 * float(columns @ table.exterior)
        if not math.isfinite(total):  # finite values, so an overflow, not divergence
            raise ConfigError(f"the {method} seminorm overflows: its p-th power is {total}")
        out.append(SeminormResult(total ** (1.0 / params.p), method, table.accuracy))
    return tuple(out)


def gagliardo_periodic_direct(
    u: StepFunction | GridFunctionND, params: SeminormParams
) -> SeminormResult:
    """Fractional seminorm by exact sums against power-kernel tables.

    1D: x over one period, y over the whole line via periodized weights.
    2D: x over one period times the box, y over the plane; the function
    vanishes outside the box, so the exterior contributes |u|^p against
    closed-form tail masses.
    """
    return gagliardo_periodic(u, params, ("direct",))[0]


def gagliardo_periodic_laplace(
    u: StepFunction | GridFunctionND, params: SeminormParams
) -> SeminormResult:
    """Fractional seminorm through the heat-kernel time integral, against the
    tables of ``_laplace_table_1d`` and ``_laplace_table_2d``."""
    return gagliardo_periodic(u, params, ("laplace",))[0]


def _table(u: StepFunction | GridFunctionND, method: str, sigma: float):
    """The weight table of route ``method`` at sigma, keyed by u's grid: the
    circle's cell count, and in 2D the interval axis's cell count and ends."""
    table_1d, table_2d = _ROUTES[method]
    if isinstance(u, GridFunctionND):
        g2 = u.axes_perp[0]
        return table_2d(u.axis1.n, g2.n, g2.lo, g2.hi, sigma)
    return table_1d(u.grid.n, sigma)


@lru_cache(maxsize=64)
def _riesz_table_cached(n: int, sigma: float):
    return riesz_weights_1d(Grid1D.circle(n), sigma, periodized=True)


@lru_cache(maxsize=32)
def _nd_table_cached(n1: int, n2: int, lo: float, hi: float, sigma: float):
    return riesz_weights_nd(Grid1D.circle(n1), Grid1D.interval(n2, lo, hi), sigma)


def _lattice_rows(cfg: LaplaceConfig) -> tuple[tuple[float, int, int], slice]:
    """The lattice (ds, k_lo, k_hi) that cfg was checked on, s = k ds for
    k_lo <= k <= k_hi, and the rows of a stack on it at cfg's nodes.

    The dim-D route's lam = (dim + sigma) / 2 lies in the band
    (dim / 2, (dim + 1) / 2) for every sigma in (0, 1), and every rule of a
    band is checked on the lattice over the union of the band's windows, so
    one stack per grid serves every sigma.
    """
    k_lo, k_hi = cfg.lattice
    first = cfg.k_lo - k_lo
    return (cfg.ds, k_lo, k_hi), slice(first, first + cfg.nodes.size)


@lru_cache(maxsize=8)
def _heat_stack(n: int, ds: float, k_lo: int, k_hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice times t_k = exp(k ds), k_lo <= k <= k_hi, and the heat rows on
    the n-cell circle at them, shape (k_hi - k_lo + 1, n); read-only."""
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    return _frozen(t), _frozen(_heat_table_batch(n, 2.0 * math.pi / n, t))


@lru_cache(maxsize=8)
def _heat_gauss_stack(
    n1: int, n2: int, lo: float, hi: float, ds: float, k_lo: int, k_hi: int
) -> tuple[np.ndarray, ...]:
    """Lattice times t_k = exp(k ds) with, at each, the heat row on the
    n1-cell circle, the line-Gaussian row on the n2-cell interval [lo, hi]
    and its exterior masses times the heat row's mass h1 sqrt(pi / t_k);
    read-only."""
    h1 = 2.0 * math.pi / n1
    g2 = Grid1D.interval(n2, lo, hi)
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    heat = _heat_table_batch(n1, h1, t)
    gauss, ext = _gauss_tables_batch(g2, t)
    ext *= (h1 * np.sqrt(math.pi / t))[:, None]
    return tuple(_frozen(a) for a in (t, heat, gauss, ext))


def _touches(n: int) -> np.ndarray:
    """Per offset d, the periodic copies of d at exactly one cell of distance:
    1 at d in {1, n-1} for n >= 3; on n = 2 the cells touch on both sides, on
    n = 1 the cell touches its own copies twice."""
    return (np.abs(np.arange(n)[:, None] - n * np.arange(-1, 2)) == 1).sum(axis=1)


@lru_cache(maxsize=64)
def _laplace_table_1d(n: int, sigma: float) -> KernelWeights:
    """Periodized power-kernel table of the Laplace route on the n-cell circle.

    W = (sum_q w_q heat_q + head + tail) / Gamma(lam), lam = (1 + sigma) / 2,
    the heat rows a slice of the grid's lattice stack (``_heat_stack``), so
    a fresh sigma costs its rule and one contraction.  Beyond the window
    only touching pairs survive, each as multiplicity / 2t; below it every
    entry is h^2 / (2 sqrt(pi t)) up to exp(-1/4t).  W[0] = 0, as in the
    direct table.
    """
    lam = (1.0 + sigma) / 2.0
    h = 2.0 * math.pi / n
    # the rule's window covers the pair tables' exponential transients only:
    # below it every table is on its small-t branch, above it on its large-t
    # one, and both algebraic ends are added in closed form
    cfg = laplace_quadrature(lam, h * h / 4.0, (2 * math.pi) ** 2, rtol=LAPLACE_RTOL)
    lattice, rows = _lattice_rows(cfg)
    _, heat = _heat_stack(n, *lattice)
    w = cfg.weights @ heat[rows]
    w += _touches(n) * cfg.algebraic_tail(0.5, 1.0)
    w += cfg.algebraic_head(h * h / (2.0 * SQRT_PI), 0.5)
    w[0] = 0.0
    w /= special.gamma(lam)
    return KernelWeights(
        n, h, True, w, accuracy=cfg.achieved + 1e-12, singular_diagonal=True
    )


@lru_cache(maxsize=32)
def _laplace_table_2d(n1: int, n2: int, lo: float, hi: float, sigma: float) -> NDKernelWeights:
    """x1-periodized 2D power-kernel table and exterior masses of the Laplace route.

    W = (sum_q w_q heat_q (x) gauss_q + head + tail) / Gamma(lam) and
    E = (sum_q w_q row1_q ext_q + head) / Gamma(lam), lam = (2 + sigma) / 2,
    row1_q = h1 sqrt(pi / t_q) the heat row's mass; the rows are slices of
    the grid's lattice stacks (``_heat_gauss_stack``).  Beyond the window
    only touching pairs survive, as multiplicity / 2t per adjacent axis
    (with wrap multiplicities on the periodic one) and h sqrt(pi / t) - 1 / t
    per zero-offset axis, and a boundary column sees the outside as 1 / 2t.
    Below the window heat tables are h1^2 / (2 sqrt(pi t)), Gaussian tables
    h2^2 and exterior masses h2 (sqrt(pi / t) - L2), up to O(t) relative.
    """
    lam = (2.0 + sigma) / 2.0
    h1 = 2.0 * math.pi / n1
    g2 = Grid1D.interval(n2, lo, hi)
    h2 = g2.h
    z_max = (2.0 * math.pi) ** 2 + g2.length**2  # the window as in _laplace_table_1d
    cfg = laplace_quadrature(lam, min(h1, h2) ** 2 / 4.0, z_max, rtol=LAPLACE_RTOL)
    lattice, rows = _lattice_rows(cfg)
    _, heat, gauss, ext_rows = _heat_gauss_stack(n1, n2, lo, hi, *lattice)
    w = (cfg.weights[:, None] * heat[rows]).T @ gauss[rows]
    ext = cfg.weights @ ext_rows[rows]
    touch = _touches(n1)
    w[:, n2 - 1] += touch * (cfg.algebraic_tail(h2 * SQRT_PI / 2.0, 1.5) + cfg.algebraic_tail(-0.5, 2.0))
    if n2 >= 2:
        near = [n2 - 2, n2]
        w[0, near] += cfg.algebraic_tail(h1 * SQRT_PI / 2.0, 1.5) + cfg.algebraic_tail(-0.5, 2.0)
        w[:, near] += touch[:, None] * cfg.algebraic_tail(0.25, 2.0)
    w += cfg.algebraic_head(h1**2 * h2**2 / (2.0 * SQRT_PI), 0.5)
    ext += 0.5 * cfg.algebraic_head(2.0 * math.pi * h1 * h2, 1.0)
    ext += 0.5 * cfg.algebraic_head(-2.0 * SQRT_PI * h1 * h2 * g2.length, 0.5)
    np.add.at(ext, [0, n2 - 1], cfg.algebraic_tail(h1 * SQRT_PI / 2.0, 1.5))  # twice if n2 = 1
    w[0, n2 - 1] = 0.0  # the self pair, as in the direct table
    gam = special.gamma(lam)
    return NDKernelWeights(
        n1, h1, n2, h2, sigma, w / gam, ext / gam, accuracy=cfg.achieved + 1e-12
    )


# method -> (1D table of (n, sigma), 2D table of (n1, n2, lo, hi, sigma))
_ROUTES = {
    "direct": (_riesz_table_cached, _nd_table_cached),
    "laplace": (_laplace_table_1d, _laplace_table_2d),
}


def fractional_perimeter(e: StepFunction | GridFunctionND, s: float) -> float:
    """Interaction of an indicator set with its complement under |z|^-(n+s).

    Exact finite sum of pair weights between set cells and complement cells
    (plus, in 2D, the analytic exterior which is all complement).
    """
    if not e.is_indicator():
        raise NotIndicator("fractional perimeter needs an indicator function")
    nd = _is_2d(e)
    table = _table(e, "direct", s)
    inside = e.values
    scost = offset_sums(inside, 1.0 - inside, np.multiply, (True, False) if nd else (True,))
    interior = float(np.vdot(scost, table.weights))
    if not nd:
        return interior
    return interior + float(np.sum(inside * table.exterior[None, :]))


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
