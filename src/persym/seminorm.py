"""Periodic fractional seminorm by two independent routes, perimeter, coarea.

Both routes contract the pair costs of u with one table of cell-pair
weights (plus, in 2D, exterior masses); they differ in how the table is
built.  Route one ("direct") integrates the power kernel over cell pairs:
periodized 1D tables, or the 2D table with analytic exterior masses.  Route
two ("laplace") writes the kernel as a Gamma-weighted integral of Gaussians
in an auxiliary time variable and contracts the wrapped-Gaussian and
line-Gaussian tables at the nodes of the validated exp-substitution rule
into one table, its heat and Gaussian rows kept once per grid as factors
on the sigma-free log-t lattice, so a fresh s costs one rule and one
contraction.  The pair costs of u are free of s too: the last function's
are kept, so a sweep over s takes them once.  The tables share no kernel
code, so their agreement cross-validates both; divergence (sp >= 1 on
non-constant step input) is a first-class result, not an exception.  The
seminorm and the perimeter take a function on a circle or on a circle
times an interval, nothing else.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NotIndicator
from .grid import Grid1D, GridFunctionND, StepFunction, _distinct
from .kernels import (
    SIGMA_MIN,
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
_ROUTES = frozenset(("direct", "laplace"))


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
        if self.sigma < SIGMA_MIN:
            raise ConfigError(
                f"s p = {self.sigma} is below {SIGMA_MIN:g}: the tables scale like "
                "1 / (s p) and would leave float range"
            )

    @property
    def sigma(self) -> float:
        return self.s * self.p

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


@lru_cache(maxsize=1)
def _pair_data(u: StepFunction | GridFunctionND, p: float, periodic: tuple) -> tuple:
    """The sigma-free pair data of u, read-only: its pair costs
    (``_pair_costs``) and the costs of its pairs with the outside, in 2D
    twice the column sums of |u|^p (none in 1D).  Kept for the last
    function: functions hash by identity, and each owns a read-only copy of
    its values, so a sweep over s, or one route after the other on one
    function, takes them once."""
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
    if not methods or not _ROUTES.issuperset(methods):
        raise ConfigError(f"methods must be among {sorted(_ROUTES)}, got {list(methods)}")
    dim = _dimension(u)
    if params.n != dim:
        raise ConfigError(f"{dim}D input needs params.n == {dim}")
    if not params.step_mode_finite:
        const = float(u.values.max() - u.values.min()) == 0.0
        return tuple(SeminormResult(0.0, m, 1e-15) if const else _divergent(m) for m in methods)
    sigma = params.sigma
    tables = [_table(u, method, sigma) for method in methods]
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
    return (_laplace_table if method == "laplace" else _direct_table)(grid, sigma)


_Domain = namedtuple("_Domain", "axes z_min z_max")


@lru_cache(maxsize=16)
def _domain(grid: tuple) -> _Domain:
    """The sigma-free data of a grid of ``_table``: its axes, the circle and
    on the cylinder the interval, and the range [z_min, z_max] of the
    exponentials its Laplace rules integrate, h^2 / 4 for the narrowest
    cell to the sum of the squared axis lengths."""
    n1, *box = grid
    axes = (Grid1D.circle(n1), *([Grid1D.interval(*box)] if box else ()))
    h = min(g.h for g in axes)
    return _Domain(axes, h**2 / 4.0, sum(g.length**2 for g in axes))


@lru_cache(maxsize=64)
def _direct_table(grid: tuple, sigma: float) -> KernelWeights:
    """Power-kernel table of the direct route on a grid of ``_table``."""
    axes = _domain(grid).axes
    return (riesz_weights_nd if len(axes) > 1 else riesz_weights_1d)(*axes, sigma)


def _axis_ends(g: Grid1D) -> tuple:
    """The head (t -> 0) and tail (t -> inf) of an axis's factor of a Laplace
    stack, terms (k, c) of c t^((k - 1) / 2), c over its columns: on the circle
    the heat rows, head h^2 / (2 sqrt(pi t)) up to exp(-1/4t); on the interval
    the line-Gaussian rows, then the exterior masses, heads h^2 and h (sqrt(pi
    / t) - L) up to O(t) relative.  The rows' tails are 1 / 2t per copy of a
    cell one cell away (on n <= 2 a cell of the circle has one on each side)
    and h sqrt(pi / t) - 1 / t at d = 0, the masses' 1 / 2t at a boundary cell
    (twice if n = 1)."""
    n, root = g.n, SQRT_PI * g.h
    if g.periodic:
        d = np.arange(n)
        touching = np.count_nonzero(np.abs(d[:, None] - n * np.arange(-1, 2)) == 1, axis=1)
        tail = [(-1, 0.5 * touching - (d == 0)), (0, root * (d == 0))]
        return [(0, np.full(n, g.h**2 / (2.0 * SQRT_PI)))], tail
    d = np.arange(1 - n, 2 * n)  # the offsets, then each cell as n + its index
    rows, edge = d < n, 0.5 * (d == n) + 0.5 * (d == 2 * n - 1)
    head = [(1, np.where(rows, g.h**2, -g.h * g.length)), (0, root * ~rows)]
    tail = [(-1, np.where(rows, 0.5 * (np.abs(d) == 1) - (d == 0), edge)), (0, root * (d == 0))]
    return head, tail


@lru_cache(maxsize=16)
def _laplace_stack(grid: tuple, ds: float, k_lo: int, k_hi: int) -> tuple:
    """Lattice times t_k = exp(k ds), k_lo <= k <= k_hi, the two factors of
    the Laplace table left diag(v) right on a grid of ``_table`` at them,
    and the k of their ends; read-only.  On the cylinder left is the heat
    rows on the circle, transposed (n1, K), then their sum, the mass
    h1 sqrt(pi / t), against the interval's line-Gaussian rows and then its
    exterior masses (K, 3 n2 - 1); on the circle a row of ones against the
    heat rows (K, n1), so that v weighs the thinner factor.  Then come the
    products of the factors' ends (``_axis_ends``), a column of left and a
    row of right each; a tail product of k >= 0 lies on the self pair alone,
    where W = 0, and is dropped, as its excess (k + sigma) / 2 > 0 would sum
    it as a head.  About K (n1 + 3 n2) floats, where the table's own rows
    are K n1 (2 n2 - 1)."""
    g1, *box = _domain(grid).axes
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    heat = _heat_table_batch(g1.n, g1.h, t), _axis_ends(g1)
    if box:
        (g2,) = box
        left, right = (heat[0].T, heat[1]), (np.hstack(_gauss_tables_batch(g2, t)), _axis_ends(g2))
    else:  # the ones are 1 t^0 at both ends
        left, right = (np.ones((1, t.size)), ([(0, np.ones(1))],) * 2), heat
    (rows1, (head1, tail1)), (rows2, (head2, tail2)) = left, right
    head = [(k1 + k2, a, c) for k1, a in head1 for k2, c in head2]
    tail = [(k1 + k2, a, c) for k1, a in tail1 for k2, c in tail2 if k1 + k2 < 0]
    ks, a, c = zip(*head, *tail)
    left = np.hstack((rows1, np.transpose(a)))
    if box:
        left = np.vstack((left, left.sum(axis=0)))
    return _frozen(t), _frozen(left), _frozen(np.vstack((rows2, c))), ks


@lru_cache(maxsize=64)
def _laplace_table(grid: tuple, sigma: float) -> KernelWeights:
    """Power-kernel table of the Laplace route on a grid of ``_table``, the
    circle or the cylinder (its exterior masses after the entries).

    W = left diag(v) right / Gamma(lam), lam = (dim + sigma) / 2, from the
    grid's stack (``_laplace_stack``), v the rule's weights on a slice of its
    lattice: every lam of (dim / 2, (dim + 1) / 2) has its rule checked on one
    lattice (``laplace_quadrature``).  Past the rule's window the rows follow
    their ends, powers t^-beta as k = dim - 2 beta, which v weighs by the sums
    of ``LaplaceConfig.beyond`` at lam - beta = (k + sigma) / 2, from sigma
    itself: no rounding of lam reaches it near 0 or 1.  W = 0 at the self pair.
    """
    n1, *box = grid
    axes, z_min, z_max = _domain(grid)
    cfg = laplace_quadrature((len(axes) + sigma) / 2.0, z_min, z_max, rtol=LAPLACE_RTOL)
    k_lo, k_hi = cfg.lattice
    t, left, right, ks = _laplace_stack(grid, cfg.ds, k_lo, k_hi)
    first = cfg.k_lo - k_lo  # v from the rule's first node on
    v = np.zeros(t.size + len(ks) - first)
    v[: cfg.nodes.size] = cfg.weights
    v[t.size - first :] = [cfg.beyond((k + sigma) / 2) for k in ks]
    v /= math.gamma(cfg.lam)
    table = (left[:, first:] * v) @ right[first:]
    table[0, box[0] - 1 if box else 0] = 0.0  # the self pair
    if not box:
        return KernelWeights((True,), table[0], cfg.achieved + 1e-12)
    cut = 2 * box[0] - 1  # the exterior masses' first column
    return KernelWeights((True, False), table[:-1, :cut], cfg.achieved + 1e-12, table[-1, cut:])


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
