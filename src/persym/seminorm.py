"""Periodic fractional seminorm by two independent routes, perimeter, coarea.

Both routes contract the pair costs of u with one table of cell-pair
weights (plus, in 2D, exterior masses); they differ in how the table is
built.  Route one ("direct") integrates the power kernel over cell pairs:
periodized 1D tables, or the 2D table with analytic exterior masses.  Route
two ("laplace") writes the kernel as a Gamma-weighted integral of Gaussians
in an auxiliary time variable and contracts the wrapped-Gaussian and
line-Gaussian tables at the nodes of the validated exp-substitution rule
into one table, its heat and Gaussian rows taken from stacks kept once per
grid on the sigma-free log-t lattice, so a fresh s costs one rule and one
contraction.  The pair costs of u are free of s too: the last function's
are kept, so a sweep over s takes them once.  The tables share no kernel
code, so their agreement cross-validates both; divergence (sp >= 1 on
non-constant step input) is a first-class result, not an exception.  The
seminorm and the perimeter take a function on a circle or on a circle
times an interval, nothing else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NotIndicator
from .grid import Grid1D, GridFunctionND, StepFunction, _distinct
from .kernels import (
    KernelWeights,
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
_ROUTES = ("direct", "laplace")


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


def _pair_costs(u: StepFunction | GridFunctionND, p: float, periodic: tuple) -> np.ndarray:
    """S[d] = sum over cell pairs at offset d of |u_i - u_j|^p; S[-d] = S[d],
    so half the offsets of the periodic axis are summed."""
    cost = (lambda a, b: np.abs(a - b)) if p == 1.0 else (lambda a, b: np.abs(a - b) ** p)
    return offset_sums(u.values, u.values, cost, periodic, symmetric=True)


def _last_function(build):
    """``build(u, p, periodic)`` kept for the last function only.

    One slot, keyed by the identity of u's values array, p and the periodic
    flags.  A function owns its values as a private read-only copy, so that
    identity stands for the values themselves (as long as no caller turns
    writing back on), and the slot's reference keeps the array, and so its
    identity, alive.  Any other function replaces the slot; ``cache_clear``
    empties it.
    """
    slot = [None, None]  # key, value

    def cached(u, p, periodic):
        key = slot[0]
        if key is not None and key[0] is u.values and key[1] == p and key[2] == periodic:
            return slot[1]
        value = build(u, p, periodic)
        slot[:] = (u.values, p, periodic), value
        return value

    def cache_clear() -> None:
        slot[:] = None, None

    cached.cache_clear = cache_clear
    cached.__wrapped__ = build
    return cached


@_last_function
def _pair_data(u: StepFunction | GridFunctionND, p: float, periodic: tuple) -> tuple:
    """The sigma-free pair data of u, read-only: its pair costs
    (``_pair_costs``) and the costs of its pairs with the outside, in 2D
    twice the column sums of |u|^p (none in 1D).  A sweep over s, or one
    route after the other on one function, takes them once."""
    outside = ()
    # an overflow shows as a sum that is not finite, and then as a seminorm
    # that is not (checked by the caller)
    with np.errstate(over="ignore"):
        if u.values.ndim == 2:  # u is nonnegative, so |u|^p is u^p
            # doubling is exact, so this is bit for bit twice columns @ E
            outside = (_frozen(2.0 * (u.values**p).sum(axis=0)),)
        return _frozen(_pair_costs(u, p, periodic)), outside


def _dimension(u: StepFunction | GridFunctionND) -> int:
    """u's dimension: 1 on a circle, 2 on the cylinder.  A 1D interval is a
    ConfigError."""
    if isinstance(u, GridFunctionND):
        return 2
    if not u.grid.periodic:
        raise ConfigError(
            "a 1D input needs a periodic grid, got an interval; the seminorm and "
            "perimeter are periodic"
        )
    return 1


def gagliardo_periodic(
    u: StepFunction | GridFunctionND,
    params: SeminormParams,
    methods: tuple[str, ...] = ("direct", "laplace"),
) -> tuple[SeminormResult, ...]:
    """The fractional seminorm by each route of ``methods``, in their order.

    Each route contracts the pair costs S with its weight table W (see
    ``_table``) over cell offsets.  In 2D u vanishes outside the box, so a
    pair with one point y outside costs |u(x)|^p: against the table's
    exterior masses E, sum_x |u(x)|^p E[x2], once for (x, y) and once for
    (y, x): twice the column sums of |u|^p over x1 against E.  The pair
    costs, and in 2D those doubled column sums, are computed once for all
    routes, and kept for the last function (``_pair_data``), so that
    further calls on it at any s reuse them.  The dimension, 1 or 2, must
    be params.n.
    A sum that overflows float range raises ConfigError; it is not the
    divergent result of sp >= 1.
    """
    if not methods or not set(methods) <= set(_ROUTES):
        raise ConfigError(f"methods must be among {list(_ROUTES)}, got {list(methods)}")
    dim = _dimension(u)
    if params.n != dim:
        raise ConfigError(f"{dim}D input needs params.n == {dim}")
    if not params.step_mode_finite:
        const = float(u.values.max() - u.values.min()) == 0.0
        return tuple(SeminormResult(0.0, m, 1e-15) if const else _divergent(m) for m in methods)
    tables = [_table(u, method, params.sigma) for method in methods]
    s, outside = _pair_data(u, params.p, tables[0].periodic)
    out = []
    for method, table in zip(methods, tables):
        total = table.contract(s, *outside)  # a float: an overflow is inf, and silent
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
    tables of ``_laplace_table``."""
    return gagliardo_periodic(u, params, ("laplace",))[0]


def _table(u: StepFunction | GridFunctionND, method: str, sigma: float) -> KernelWeights:
    """The weight table of route ``method`` at sigma, keyed by u's grid: (n,)
    on the n-cell circle, (n1, n2, lo, hi) on the cylinder of the n1-cell
    circle and the n2-cell interval [lo, hi]."""
    if isinstance(u, GridFunctionND):
        g2 = u.axes_perp[0]
        grid = (u.axis1.n, g2.n, g2.lo, g2.hi)
    else:
        grid = (u.grid.n,)
    if method == "laplace":
        return _laplace_table(grid, sigma)
    return (_nd_table_cached if len(grid) > 1 else _riesz_table_cached)(*grid, sigma)


@lru_cache(maxsize=64)
def _riesz_table_cached(n: int, sigma: float):
    return riesz_weights_1d(Grid1D.circle(n), sigma)


@lru_cache(maxsize=32)
def _nd_table_cached(n1: int, n2: int, lo: float, hi: float, sigma: float):
    return riesz_weights_nd(Grid1D.circle(n1), Grid1D.interval(n2, lo, hi), sigma)


def _heat_far(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The heat row on the n-cell circle at large t, as coefficients of t^-1
    and t^-1/2: 1 / 2t per periodic copy at one cell of distance (on n <= 2
    a cell touches copies on both sides), and h sqrt(pi / t) - 1 / t at d = 0."""
    d = np.arange(n)
    copies = np.count_nonzero(np.abs(d[:, None] - n * np.arange(-1, 2)) == 1, axis=1)
    return 0.5 * copies - (d == 0), SQRT_PI * (2.0 * math.pi / n) * (d == 0)


@lru_cache(maxsize=8)
def _heat_stack(n: int, ds: float, k_lo: int, k_hi: int) -> tuple:
    """Lattice times t_k = exp(k ds), k_lo <= k <= k_hi, the heat rows on the
    n-cell circle at them, shape (k_hi - k_lo + 1, n), and the rows'
    algebraic ends (``_laplace_table``); read-only.  Below the lattice every
    entry is h^2 / (2 sqrt(pi t)) (k = 0) up to exp(-1/4t), above it the
    t^-1 part of ``_heat_far`` (k = -1); its t^-1/2 is the self pair's, 0."""
    h = 2.0 * math.pi / n
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    ends = np.stack((np.full(n, h * h / (2.0 * SQRT_PI)), _heat_far(n)[0]))
    return _frozen(t), _frozen(_heat_table_batch(n, h, t)), (0, -1), _frozen(ends)


@lru_cache(maxsize=8)
def _heat_gauss_stack(
    n1: int, n2: int, lo: float, hi: float, ds: float, k_lo: int, k_hi: int
) -> tuple:
    """Lattice times t_k = exp(k ds), a cylinder row at each and the rows'
    algebraic ends (``_laplace_table``); read-only.

    A row is the heat row on the n1-cell circle times the line-Gaussian row
    on the n2-cell interval [lo, hi], flattened, then the Gaussian exterior
    masses times the heat row's mass h1 sqrt(pi / t).  Below the lattice
    these are h1^2 / (2 sqrt(pi t)), h2^2 and h2 (sqrt(pi / t) - L2), up to
    O(t) relative; above it ``_heat_far``, 1 / 2t at d2 = -1, 1 plus
    h2 sqrt(pi / t) - 1 / t at d2 = 0, and 1 / 2t at a boundary column.  The
    ends are their products, whose t^-1 falls on the self pair alone (0).
    """
    h1 = 2.0 * math.pi / n1
    g2 = Grid1D.interval(n2, lo, hi)
    h2 = g2.h
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    heat = _heat_table_batch(n1, h1, t)
    gauss, ext = _gauss_tables_batch(g2, t)
    ext *= (h1 * np.sqrt(math.pi / t))[:, None]
    rows = np.hstack(((heat[:, :, None] * gauss[:, None, :]).reshape(t.size, -1), ext))
    d2 = np.arange(1 - n2, n2)
    inv1, root1 = _heat_far(n1)
    inv2, root2 = 0.5 * (np.abs(d2) == 1) - (d2 == 0), SQRT_PI * h2 * (d2 == 0)
    ends = np.zeros((4, rows.shape[1]))
    table, outside = ends[:, :-n2], ends[:, -n2:]
    table[0] = h1**2 * h2**2 / (2.0 * SQRT_PI)  # k = 1
    outside[0] = -SQRT_PI * h1 * h2 * g2.length
    outside[1] = math.pi * h1 * h2  # k = 0
    table[2] = (np.outer(root1, inv2) + np.outer(inv1, root2)).ravel()  # k = -1
    outside[2, 0] += 0.5 * SQRT_PI * h1
    outside[2, -1] += 0.5 * SQRT_PI * h1  # the same column again if n2 = 1
    table[3] = np.outer(inv1, inv2).ravel()  # k = -2
    return _frozen(t), _frozen(rows), (1, 0, -1, -2), _frozen(ends)


@lru_cache(maxsize=64)
def _laplace_table(grid: tuple, sigma: float) -> KernelWeights:
    """Power-kernel table of the Laplace route on a grid of ``_table``, the
    circle or the cylinder (its exterior masses after the entries).

    W = (sum_q w_q row_q + ends) / Gamma(lam), lam = (dim + sigma) / 2, the
    rows a slice of the grid's stack (``_heat_stack``, ``_heat_gauss_stack``):
    every lam of (dim / 2, (dim + 1) / 2) has its rule checked on one lattice
    (``laplace_quadrature``).  The rule's window covers the rows' exponential
    transients only; past it the rows follow the stack's ends, powers
    t^-beta kept as k = dim - 2 beta with their coefficients, which
    ``LaplaceConfig.beyond`` sums at lam - beta = (k + sigma) / 2, from sigma
    itself: no rounding of lam reaches it near 0 or 1.  W = 0 at the self
    pair, as in the direct table.
    """
    n1, *box = grid
    h = [2.0 * math.pi / n1]
    z_max = (2.0 * math.pi) ** 2
    if box:
        g2 = Grid1D.interval(*box)
        h.append(g2.h)
        z_max += g2.length**2
    cfg = laplace_quadrature((len(h) + sigma) / 2.0, min(h) ** 2 / 4.0, z_max, rtol=LAPLACE_RTOL)
    k_lo, k_hi = cfg.lattice
    _, rows, ks, ends = (_heat_gauss_stack if box else _heat_stack)(*grid, cfg.ds, k_lo, k_hi)
    first = cfg.k_lo - k_lo
    w = cfg.weights @ rows[first : first + cfg.nodes.size]
    w += np.array([cfg.beyond((k + sigma) / 2.0) for k in ks]) @ ends
    w[box[0] - 1 if box else 0] = 0.0  # the self pair
    w /= math.gamma(cfg.lam)
    if not box:
        return KernelWeights((True,), w, cfg.achieved + 1e-12)
    size = n1 * (2 * box[0] - 1)
    return KernelWeights((True, False), w[:size].reshape(n1, -1), cfg.achieved + 1e-12, w[size:])


def fractional_perimeter(e: StepFunction | GridFunctionND, s: float) -> float:
    """Interaction of an indicator set with its complement under |z|^-(n+s).

    Exact finite sum of pair weights between set cells and complement cells
    (plus, in 2D, the analytic exterior which is all complement, against
    the set's cell count per column).
    """
    if not e.is_indicator():
        raise NotIndicator("fractional perimeter needs an indicator function")
    dim = _dimension(e)
    table = _table(e, "direct", s)
    inside = e.values
    scost = offset_sums(inside, 1.0 - inside, np.multiply, table.periodic)
    outside = (inside.sum(axis=0),) if dim == 2 else ()
    return float(table.contract(scost, *outside))


def coarea_identity_check(u: StepFunction, s: float) -> float:
    """Relative residual of the level-set identity for the p = 1 seminorm.

    The p = 1 seminorm must equal twice the level integral of the perimeter
    of the strict superlevel sets; on step functions both sides are exact
    finite sums over the same weight table, so the residual is pure float
    rounding.
    """
    params = SeminormParams(s, 1.0)
    lhs = gagliardo_periodic_direct(u, params).value
    cuts = _distinct(np.concatenate(([0.0], u.values)))
    rhs = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        e = u.with_values((u.values > a).astype(float))
        rhs += (b - a) * fractional_perimeter(e, s)
    rhs *= 2.0
    if lhs == 0.0:
        return abs(rhs)
    return abs(lhs - rhs) / lhs
