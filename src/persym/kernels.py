"""Cell-pair kernel weight tables and the Laplace-transform quadrature.

Every double integral in the package reduces to finite sums against tables
W[d] = integral of a convolution kernel over a pair of cells at offset d.
``offset_sums`` owns the offset layout and computes the pair-cost sums that
such tables contract with, each pair's cost once, on the three ``LAYOUTS``
(the circle, an interval, the cylinder): gathered along the periodic axis,
dense and binned by offset along the interval one (a symmetric cost over
half the offsets, mirrored by one gather).  ``KernelWeights`` is the one
table type, 1D or 2D, in that layout; its ``contract`` is the one
contraction of pair sums with a table.  Tables are read-only; the
single-time ones are cached by (grid, t).  This module builds the tables:

* wrapped Gaussian (periodic heat kernel) and line Gaussian, from one
  erf/erfc antiderivative value per lattice point, with a theta-series dual
  branch for small diffusion time;
* power kernel |z|^(-(1+sigma)) on the line (the all-positive even series
  of its second differences) and its Hurwitz-zeta periodization (explicit
  copies plus the same series summed over the far copies, positive-order
  zeta only, each term an even Taylor series at one point, certified by
  the first omitted terms); less its poles at sigma = 0 and 1, which have
  closed forms, it is analytic in sigma;
* the 2D power kernel |z|^(-(2+sigma)) with x1-periodization: the copies
  near the cell from hat moments per lattice square, over Gauss-Legendre
  panels graded by their distance from the kernel origin, with exact
  corner moments at it, each box four shifted slices of them and the
  copies folded onto |x1|; the far copies as a Hurwitz-zeta polynomial
  series whose box integral separates into one small contraction; all but
  the corner moments is analytic in sigma;
* both power tables as one kind of certified Chebyshev series in sigma
  (``_sigma_series``), built once per grid from their direct sums at 25
  sigmas and bounded on a Bernstein ellipse, which one evaluation
  (``_series_at``) turns into a table for each sigma;
* general nonnegative step-function kernels, whose tables are exact
  two-tap averages of the kernel values (and whose rearrangement is again
  a step kernel, so rearranged tables stay exact);
* the exp-substitution trapezoid rule turning t-integrals of
  t^(lambda-1) e^(-zt) into Gamma(lambda) z^(-lambda), its nodes on the
  fixed lattice s = k ds in s = log t, validated against that closed form
  before use through check data kept once per band of lambda.

The special functions are libm's erf and erfc and an Euler-Maclaurin Hurwitz
zeta (``_hurwitz_zeta``), so the tables need numpy alone.

Convention: W[0] := 0 for kernels singular at the origin (step-function
energies never see the diagonal because u(x) - u(y) vanishes there).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    ConfigError,
    GridMismatch,
    NonpositiveTime,
    RangeTooWide,
    SigmaOutOfRange,
    StepFunctionDivergence,
)
from .grid import Grid1D, StepFunction, refine
from .rearrange import periodic_rearrange_1d, symmetric_decreasing_1d

TWO_PI = 2.0 * math.pi
SQRT_PI = math.sqrt(math.pi)

# pointwise switch between the Gaussian-copy sum and the theta dual
# representation; both need <= ~8 terms there (tables: _heat_switch)
T_SWITCH = 1.0 / (4.0 * math.pi**2)
# relative size of the Gaussian-copy or theta terms a heat-kernel sum leaves out
HEAT_TAIL_RTOL = 1e-15
# below this time every theta term exp(-m^2 / 4t), m >= 1, is exp(-2500) or
# less, 0 in floats: the series takes this time instead, so that m^2 / 4t
# cannot overflow
THETA_FLOOR = 1e-4
# the power-kernel tables scale like 1 / sigma: below this sigma they would
# leave float range
SIGMA_MIN = 1e-300
# certified relative accuracy of the periodized 1D power-kernel table, and
# the accuracy of the 2D power-kernel table (quadrature checked against a
# fixed-order rule, copy tail and Chebyshev fit certified by their bounds)
RIESZ_RTOL = 1e-13
ND_TABLE_ACCURACY = 1e-12
# the longest side of a 2D table's cells, relative to the other: past it,
# splits of the long side near its ends would round away (``_panels``)
ND_ASPECT_MAX = 2.0**45


@dataclass(frozen=True)
class KernelWeights:
    """Cell-pair integrals of a convolution kernel, in the layout of ``offset_sums``.

    ``periodic`` is one of ``LAYOUTS``, as ``offset_sums`` takes it: a
    periodic axis of n cells stores offsets 0..n-1 (modulo n), an interval
    axis offsets -(n-1)..n-1 at index d + n - 1.  ``accuracy`` is the
    table's relative accuracy.  ``exterior``, where the kernel is integrable
    away from the grid, holds per cell of the last axis the kernel mass from
    that cell to the region outside the grid's box (on a cylinder, x1
    integrated over one period).  Kernels singular at the origin keep W = 0
    at offset 0.
    """

    periodic: tuple
    weights: np.ndarray = field(repr=False)
    accuracy: float
    exterior: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        periodic = tuple(map(bool, self.periodic))
        w = _frozen(self.weights)
        if periodic not in LAYOUTS or w.ndim != len(periodic) or (
            not periodic[-1] and w.shape[-1] % 2 == 0
        ):
            raise ConfigError(f"weight table of shape {w.shape} fits no grid of axes {periodic}")
        object.__setattr__(self, "periodic", periodic)
        object.__setattr__(self, "weights", w)
        if self.exterior is not None:
            object.__setattr__(self, "exterior", _frozen(self.exterior))

    @cached_property
    def n(self) -> tuple[int, ...]:
        """Cells per axis of the grid the table was built for."""
        return tuple(m if p else (m + 1) // 2 for p, m in zip(self.periodic, self.weights.shape))

    def contract(self, sums: np.ndarray, *outside: np.ndarray):
        """sum_d S[d] W[d] for pair sums S in this layout (``offset_sums``),
        a float, or one value per row of S's leading batch axes; plus
        m @ exterior for each array m of ``outside``, a cost per cell of the
        last axis, which sums the pairs whose partner lies outside the grid.
        A float sum that overflows is inf, without a warning."""
        w = self.weights
        if sums.ndim == w.ndim:
            total = float(np.vdot(sums, w))
        else:
            total = sums.reshape(sums.shape[: sums.ndim - w.ndim] + (-1,)) @ w.ravel()
        if outside:
            ext, tail = self.exterior, 0.0
            for m in outside:
                tail += float(np.vdot(m, ext))
            total = total + tail
        return total

    def offset(self, d: int) -> float:
        """The weight at offset d of a 1D table (0 past an interval's offsets)."""
        (n,), (periodic,) = self.n, self.periodic
        if periodic:
            return float(self.weights[d % n])
        if abs(d) >= n:
            return 0.0
        return float(self.weights[d + n - 1])

    def row_sum(self) -> float:
        """Kernel mass seen from one cell against the whole period."""
        if self.periodic != (True,):
            raise GridMismatch("row_sum is a notion of 1D periodic tables")
        return float(self.weights.sum())


def _frozen(a, dtype=float) -> np.ndarray:
    """``a`` as a read-only contiguous array: tables and plans are cached and shared."""
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


# the axes of a grid, one flag per axis: the circle, an interval, and the
# cylinder, a circle times an interval
LAYOUTS = ((True,), (False,), (True, False))

# largest temporary of offset_sums and of the table builders, in elements.
# 128 KiB blocks built 2D tables 1.3-2x faster than 2 MiB ones.  Offset sums
# at 1 << 14, 15 and 16 (2-vCPU Xeon, numpy 2.4, best of 7, two runs;
# symmetric as the seminorm's pair costs take them): 12x12 cylinder 48-57,
# 50-58, 51-64 us (full 104-110, 84-92, 91-95 us); 6x8 cylinder 19-27,
# 20-22, 26-29 us; 1024-cell circle 2.3-2.7, 1.6-2.5, 6.4-7.4 ms (full
# 4.5-5.2, 3.9-5.0, 11.7-12.2 ms) and interval 4.6-4.8, 4.6-4.7, 5.9-6.0 ms.
# Larger blocks re-round circle sums past 128 cells.
OFFSET_BLOCK = 1 << 14


def offset_sums(u, v, cost, periodic, *, symmetric=False) -> np.ndarray:
    """Pair costs summed by cell offset: S[d] = sum_i cost(u[i], v[i + d]).

    This is the offset layout of every pair table in the package:

    * a periodic axis of n cells has offsets 0..n-1, taken mod n, stored
      at index d;
    * an interval axis of n cells has offsets -(n-1)..n-1, stored at
      index d + n - 1, and pairs whose partner leaves the interval are
      dropped.

    ``periodic`` is one of ``LAYOUTS``, one flag per axis of ``u``; leading
    axes of ``v`` beyond ``len(periodic)`` are batch axes and lead the
    result.  ``cost`` is a vectorized binary function (``np.multiply``, or
    ``lambda a, b: j(a - b)``).  Contracting with a table of the same
    layout, ``w.contract(S)``, gives sum_{i,j} cost(u_i, v_j) W[j - i].

    Each pair's cost is taken once.  Periodic partners are gathered by the
    cached ``_offset_plan`` of the first block of offsets, later blocks
    rolling u by their first offset.  Interval pairs are all valid: the
    cost is taken on the dense cell x partner block, summed over the
    periodic cells and binned to offset slots by one ``np.bincount``.
    Periodic offsets, and past one offset the interval rows, come in
    blocks of at most OFFSET_BLOCK cost elements.

    ``symmetric=True`` asserts S[-d] = S[d], as for u against itself under
    a cost with cost(a, b) = cost(b, a); the code cannot tell this from its
    input.  Then only the periodic offsets 0..n // 2 are summed, and one
    gather through the plan's ``mirror`` fills every slot of the result
    from its own or its negated offset.  It takes no batch axes.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    periodic = tuple(periodic)
    if periodic not in LAYOUTS:
        raise GridMismatch(f"offset sums take the axes of one of {LAYOUTS}, got {periodic}")
    k = len(periodic)
    if u.ndim != k or v.shape[v.ndim - k :] != u.shape:
        raise GridMismatch(f"cannot pair shapes {u.shape} and {v.shape} on {k} axes")
    if symmetric and v.ndim != k:
        raise GridMismatch(f"symmetric offset sums take no batch axes, got shape {v.shape}")
    p = _offset_plan(u.shape, periodic, v.shape[: v.ndim - k], OFFSET_BLOCK, symmetric)
    cells = u.reshape(p.vshape[1:])
    vs = v.reshape(p.vshape)
    parts = []
    for s, width in p.blocks:  # s: the block's first offset
        c = np.roll(cells, s, axis=0) if s else cells
        if p.bins is None:  # summed over the cells
            parts.append(np.add.reduce(cost(c, vs.take(p.idx[:width], axis=1)), axis=2))
            continue
        # periodic cells outermost and (lead, offset, partner) innermost, so
        # that the cost runs long inner loops; the cells are summed in order
        partners = vs.take(p.idx[:width].T, axis=1).transpose(1, 0, 2, 3)[:, None]
        lead, held = partners.shape[2], partners.shape[2] * partners.shape[3]
        for cut in p.rows:
            pc = cost(c[:, cut, None, None, None], partners)
            pc = np.add.reduce(pc) if len(pc) > 1 else pc[0]  # over the periodic cells
            at = p.bins[: len(pc), :held].ravel()
            got = np.bincount(at, pc.ravel(), held * p.slots).reshape(held, p.slots)
            if cut.start:  # later rows take the first rows' bins, shifted down
                acc[:, : p.slots - cut.start] += got[:, cut.start :]
            else:
                acc = got
                parts.append(got.reshape(lead, -1))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if p.mirror is not None:
        return out.take(p.mirror)
    return out.reshape(p.shape)


_OffsetPlan = namedtuple("_OffsetPlan", "shape vshape blocks idx bins rows slots mirror")


@lru_cache(maxsize=32)
def _offset_plan(
    shape: tuple, periodic: tuple, batch: tuple, block: int, symmetric: bool
) -> _OffsetPlan:
    """Layout of ``offset_sums`` for one shape of a layout, batch, block
    size and symmetry: per temporary (``blocks``) its first periodic offset
    and its count of offsets; ``idx``, the cell (i + o) mod n per periodic
    offset o of the first block and periodic cell i; ``rows``, the chunks of
    interval rows, and ``bins``, per cell of the first chunk, leading row l
    and partner, the slot l * slots + partner - cell + m - 1 (None without
    an interval axis).  A symmetric plan covers the periodic offsets
    0..n // 2 only, and ``mirror`` holds, per slot of the result, the flat
    slot of the sums that holds it or its negated offset (None for a full
    plan).
    """
    lead = math.prod(batch)
    n = shape[0] if periodic[0] else 1  # the periodic cells, one if there are none
    m = 0 if periodic[-1] else shape[-1]  # the interval cells, none on the circle
    pairs, slots = max(m, 1), max(2 * m - 1, 1)
    top = n // 2 + 1 if symmetric else n  # periodic offsets summed
    dense = lead * n * pairs * pairs  # cost elements of one periodic offset
    step = min(top, max(1, block // dense))  # periodic offsets per temporary
    blocks = tuple((lo, min(lo + step, top) - lo) for lo in range(0, top, step))
    idx = (np.arange(step)[:, None] + np.arange(n)) % n
    out = batch + shape[:1] * periodic[0] + (slots,) * bool(m)  # the shape of the sums
    bins, rows = None, ()
    if m:
        r = min(m, max(1, block * m // dense))  # interval rows per temporary
        rows = tuple(slice(a, a + r) for a in range(0, m, r))
        slot = np.arange(m) - np.arange(r)[:, None] + m - 1
        bins = _frozen(slot[:, None] + slots * np.arange(lead * step)[:, None], np.intp)
    mirror = None
    if symmetric:  # the slot of -d: -d mod n on the periodic axis, 2 m - 2 - slot on the interval
        x, y = np.arange(n)[:, None], np.arange(slots)
        up = x > n // 2
        mirror = (np.where(up, -x % n, x) * slots + np.where(up, slots - 1 - y, y)).reshape(out)
    return _OffsetPlan(
        shape=out,
        vshape=(lead, n) + (pairs,) * bool(m),
        blocks=blocks,
        idx=idx,  # writeable: ``take`` copies a read-only index
        bins=bins,
        rows=rows,
        slots=slots,
        mirror=mirror,
    )


def check_kernel_monotone(w: KernelWeights) -> bool:
    """True iff W[d] strictly decreases in circle distance on (0, N/2].

    Runtime guard for equality-case analysis: the theorems' hypotheses need
    the kernel decreasing away from the origin, which this verifies on the
    table instead of assuming.
    """
    (n,), (periodic,) = w.n, w.periodic
    seq = w.weights[1 : n // 2 + 1] if periodic else w.weights[n - 1 :]
    return bool(np.all(np.diff(seq) < 0))


# ---------------------------------------------------------------------------
# special functions of the table builders


def _erf(x) -> np.ndarray:
    """libm's erf, elementwise."""
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(math.erf, x.ravel().tolist()), float, x.size).reshape(x.shape)


# erfc underflows to 0 short of here in every libm (fdlibm returns tiny * tiny
# from x = 28 on; the last nonzero double is 5e-324 at x = 27.23)
ERFC_ZERO = 28.0


def _erfc(x) -> np.ndarray:
    """libm's erfc, elementwise; arguments from ERFC_ZERO on give 0 without
    a call, which spares most of a wide lattice's points."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    live = ~(x >= ERFC_ZERO)  # NaN stays live
    vals = x[live].tolist()
    out[live] = np.fromiter(map(math.erfc, vals), float, len(vals))
    return out


# explicit terms of ``_hurwitz_zeta``, the bound of its relative truncation,
# and its Bernoulli coefficients B_2j / (2j)!, j = 1..9 (each the double
# nearest the rational)
ZETA_TERMS = 8
ZETA_RTOL = 1.2e-17
_BERNOULLI = np.array([
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
])
_ZETA_K = np.arange(ZETA_TERMS + 1.0)
_RISING = np.arange(2.0 * _BERNOULLI.size - 1.0)


def _hurwitz_zeta(s: np.ndarray, s1: np.ndarray, x: float) -> np.ndarray:
    """Hurwitz zeta(s, x) = sum_{k >= 0} (x + k)^(-s), orders s > 1, x >= 3;
    s1 = s - 1 comes from the caller, who may know it better near s = 1.

    Euler-Maclaurin summation (DLMF 2.10(i), 25.11): the terms k < N =
    ZETA_TERMS explicitly, then at y = x + N the integral y^(1-s) / (s - 1),
    the half term y^(-s) / 2 and the Bernoulli terms B_2j / (2j)!
    (s)_(2j-1) y^(1-s-2j), j = 1..9, the rising factorials a running product
    of (s + i) / y.  For powers of (x + k) the remainder is below the first
    omitted term, which is at most ZETA_RTOL of zeta at x = 3, 4.5, 5 and 11
    for s from 1 to 100 (checked against mpmath).
    """
    s = np.asarray(s, dtype=float)
    y = x + ZETA_TERMS
    p = np.power(x + _ZETA_K, -s[:, None])  # (x + k)^-s, the last column y^-s
    rising = s[:, None] + _RISING
    rising /= y
    np.multiply.accumulate(rising, axis=1, out=rising)
    last = np.divide(y, s1)
    last += 0.5
    last += rising[:, ::2] @ _BERNOULLI
    p[:, -1] *= last
    return p.sum(axis=1)


# ---------------------------------------------------------------------------
# wrapped Gaussian (periodic heat kernel)


def heat_kernel_periodic(z, t: float):
    """Wrapped Gaussian sum_k exp(-(z + 2 pi k)^2 t), dual representation.

    Direct Gaussian-copy sum for t >= 1/(4 pi^2), Fourier (theta) series
    (1 / (2 sqrt(pi t))) * (1 + 2 sum_m exp(-m^2/(4t)) cos(m z)) below it;
    both branches agree to ~1e-13 relative at the crossover.
    """
    t, rtol = float(t), HEAT_TAIL_RTOL
    if not 0 < t < math.inf:
        raise NonpositiveTime(f"diffusion time must be positive and finite, got {t}")
    z = np.asarray(z, dtype=float)
    scalar = z.ndim == 0
    z = np.atleast_1d(z)
    zr = z - TWO_PI * np.floor((z + math.pi) / TWO_PI)  # reduce to [-pi, pi)
    if t >= T_SWITCH:
        kmax = int(math.ceil(math.sqrt(-math.log(rtol) / t) / TWO_PI)) + 1
        k = np.arange(-kmax, kmax + 1)
        out = np.exp(-((zr[:, None] + TWO_PI * k[None, :]) ** 2) * t).sum(axis=1)
    else:
        mmax = int(math.ceil(2.0 * math.sqrt(t * -math.log(rtol)))) + 2
        m = np.arange(1, mmax + 1)
        terms = np.exp(-(m**2) / (4.0 * max(t, THETA_FLOOR)))
        series = 1.0 + 2.0 * (terms[None, :] * np.cos(m[None, :] * zr[:, None])).sum(axis=1)
        out = series / (2.0 * math.sqrt(math.pi * t))
    return float(out[0]) if scalar else out


def _e2(z, t, erfc: bool) -> np.ndarray:
    """Antiderivative E2 with E2'' = exp(-z^2 t), E2(0) = 0, and its erfc complement.

    The erf form z a erf(z sqrt t) + expm1(-z^2 t) / (2t), a = sqrt(pi) / (2
    sqrt t), is of size O(z^2) while z sqrt t stays below 1; the complement
    drops the affine part z a, leaving terms that are all Gaussian-small far
    out.  Second differences of either form are the same.  The second term
    is -(z^2 / 2) phi(z^2 t), phi(x) = -expm1(-x) / x; where z^2 t is
    subnormal it has lost bits, and the term takes phi = 1, exact there to
    rounding.
    """
    a = SQRT_PI / (2.0 * np.sqrt(t))
    x = z**2 * t
    quadratic = np.where(x < np.finfo(float).tiny, -0.5 * z**2, np.expm1(-x) / (2.0 * t))
    if erfc:
        return quadratic - z * a * _erfc(z * np.sqrt(t))
    return z * a * _erf(z * np.sqrt(t)) + quadratic


def _gauss_lattice(h: float, ts, jmax: int) -> np.ndarray:
    """Pair integrals of exp(-z^2 t) over two cells j = 0..jmax apart.

    Returns G, shape (len(ts), jmax + 1).  The integral of
    exp(-(j h + xi - eta)^2 t) over (xi, eta) in [0, h]^2 is the second
    difference G(j) = F(j+1) - 2 F(j) + F(j-1) of F(j) = E2(j h), so one
    antiderivative value per lattice point serves every offset.  A time whose
    lattice stays within one Gaussian width, (jmax + 1) h sqrt(t) <= 1, takes
    the erf form of E2 and the others its erfc complement, so rounding costs
    ~min((jmax + 1)^2, 1 / (t h^2)) ulps of G(0) either way; G(0) = 2 E2(h)
    always takes the erf form, which has no large constant near the origin.
    """
    t = np.asarray(ts, dtype=float)[:, None]
    z = h * np.arange(jmax + 2)
    g = np.empty((t.shape[0], jmax + 1))
    with np.errstate(over="ignore"):  # z^2 t past float range: exp and expm1 take -inf
        wide = z[-1] ** 2 * t[:, 0] > 1.0
        for sel, erfc in ((wide, True), (~wide, False)):
            if sel.any():
                f = _e2(z, t[sel], erfc)
                g[sel, 1:] = f[:, 2:] - 2.0 * f[:, 1:-1] + f[:, :-2]
        g[:, 0] = 2.0 * _e2(h, t[:, 0], False)
    return g


def _heat_switch(h: float) -> float:
    """Smallest time at which a heat table on cells of width h sums Gaussian copies.

    Each copy-branch entry of size O(h^2) is a second difference of
    antiderivative values of size O(1/t), so its rounding error relative to
    the row grows like 1/(t h^2); below t = 0.02 / h^2 the theta branch, which
    has no such cancellation, takes over.
    """
    return max(T_SWITCH, 0.02 / (h * h))


def _heat_table_batch(n: int, h: float, ts: np.ndarray) -> np.ndarray:
    """Heat-kernel weight tables for many times at once, shape (len(ts), n).

    Needs h = 2 pi / n.  Times t >= _heat_switch(h) sum Gaussian copies:
    every copy c = d h - 2 pi k of a centered offset d lies on the lattice
    j h, so W[d] = sum_{|k| <= kmax} G(|d - n k|) with G from
    ``_gauss_lattice``, gathered through one index matrix.  Smaller times sum
    the theta series, its terms folded modulo n and summed by one real FFT
    per time.  Each branch takes the times in chunks, sized so that no
    temporary exceeds OFFSET_BLOCK elements (unless one time's does): copy
    chunks run in ascending t and take kmax from their own smallest time,
    theta chunks in descending t and take the term count from their largest.
    """
    rtol = HEAT_TAIL_RTOL
    ts = np.asarray(ts, dtype=float)
    out = np.empty((ts.size, n))
    d = np.arange(n)
    dc = np.where(d <= n // 2, d, d - n)
    switch = _heat_switch(h)
    far = np.flatnonzero(ts >= switch)
    far = far[np.argsort(ts[far], kind="stable")]
    i = 0
    while i < far.size:
        kmax = int(math.ceil((math.sqrt(-math.log(rtol) / ts[far[i]]) + n * h) / TWO_PI)) + 1
        idx = np.abs(dc[:, None] - n * np.arange(-kmax, kmax + 1))
        chunk = far[i : i + max(1, OFFSET_BLOCK // idx.size)]
        out[chunk] = _gauss_lattice(h, ts[chunk], int(idx.max()))[:, idx].sum(axis=2)
        i += chunk.size
    near = np.flatnonzero(ts < switch)
    near = near[np.argsort(-ts[near], kind="stable")]
    lead = -math.log(max(rtol * h * h / 8.0, 1e-300))
    i = 0
    while i < near.size:
        mmax = int(math.ceil(2.0 * math.sqrt(ts[near[i]] * lead))) + 2
        width = n * (mmax // n + 1)  # room for m = 0..mmax, folded modulo n
        chunk = near[i : i + max(1, OFFSET_BLOCK // width)]
        tb = ts[chunk][:, None]
        m = np.arange(1, mmax + 1)
        terms = np.zeros((chunk.size, width))
        terms[:, 1 : mmax + 1] = np.exp(-(m**2) / (4.0 * np.maximum(tb, THETA_FLOOR))) * (
            4.0 / m**2
        ) * np.sin(m * h / 2.0) ** 2
        folded = terms.reshape(chunk.size, -1, n).sum(axis=1)
        series = h * h + 2.0 * np.fft.rfft(folded, axis=1).real[:, np.abs(dc)]
        out[chunk] = series / (2.0 * np.sqrt(math.pi * tb))
        i += chunk.size
    return out


@lru_cache(maxsize=128)
def heat_weights_periodic(grid: Grid1D, t: float) -> KernelWeights:
    """Cell-pair integrals of the wrapped Gaussian on a periodic grid (cached)."""
    if not grid.periodic:
        raise GridMismatch("heat_weights_periodic needs a periodic grid")
    if not 0 < t < math.inf:
        raise NonpositiveTime(f"diffusion time must be positive and finite, got {t}")
    table = _heat_table_batch(grid.n, grid.h, np.array([t]))[0]
    return KernelWeights((True,), table, 1e-12)


# ---------------------------------------------------------------------------
# line Gaussian


# nodes and weights of the Gauss-Legendre rule of ``_erfc_cells``
ERFC_RULE = np.polynomial.legendre.leggauss(8)


def _erfc_cells(u: np.ndarray) -> np.ndarray:
    """The integral of erfc over each cell [u_i, u_i+1] of edges u >= 0,
    increasing along the last axis.

    No difference of nearly equal values is taken.  A cell across which erfc
    falls by less than a factor e takes 8-point Gauss-Legendre quadrature,
    exact to rounding there.  Any other cell takes B(u_i) - B(u_i+1), where
    B(u) = int_u^inf erfc = exp(-u^2) / sqrt(pi) - u erfc(u) has no 1/sqrt(pi)
    to cancel.  As B / erfc falls with u, the second B is at most 1/e of the
    first.
    """
    e = _erfc(u)
    with np.errstate(over="ignore"):  # u^2 past float range: exp takes -inf
        b = np.exp(-u * u) / SQRT_PI - u * e
    out = b[..., :-1] - b[..., 1:]
    near, far = u[..., :-1], u[..., 1:]
    flat = e[..., :-1] < math.e * e[..., 1:]
    mid, half = (far[flat] + near[flat]) / 2.0, (far[flat] - near[flat]) / 2.0
    out[flat] = half * sum(w * _erfc(mid + half * x) for x, w in zip(*ERFC_RULE))
    return out


def _gauss_tables_batch(grid: Grid1D, ts) -> tuple[np.ndarray, np.ndarray]:
    """Line-Gaussian pair tables (len(ts), 2n-1) and exterior masses (len(ts), n).

    The exterior mass of a cell is its kernel mass to the complement of the
    grid interval.  The times come in chunks of at most OFFSET_BLOCK table
    entries (unless one time's row exceeds it).
    """
    ts = np.asarray(ts, dtype=float)
    b = grid.boundaries()
    lo, hi = grid.lo, grid.hi
    d = np.abs(np.arange(-(grid.n - 1), grid.n))
    table, ext = np.empty((ts.size, d.size)), np.empty((ts.size, grid.n))
    step = max(1, OFFSET_BLOCK // d.size)
    for i in range(0, ts.size, step):
        t = ts[i : i + step, None]
        st = np.sqrt(t)
        upper = _erfc_cells((hi - b[::-1]) * st)[:, ::-1]
        lower = _erfc_cells((b - lo) * st)
        table[i : i + step] = _gauss_lattice(grid.h, t[:, 0], grid.n - 1)[:, d]
        ext[i : i + step] = SQRT_PI / 2.0 * ((upper + lower) / st) / st
    return table, ext


@lru_cache(maxsize=128)
def gaussian_weights_interval(grid: Grid1D, t: float) -> KernelWeights:
    """Cell-pair integrals of exp(-r^2 t) on an interval grid, with tails (cached)."""
    if grid.periodic:
        raise GridMismatch("gaussian_weights_interval needs an interval grid")
    if not 0 < t < math.inf:
        raise NonpositiveTime(f"diffusion time must be positive and finite, got {t}")
    table, ext = _gauss_tables_batch(grid, [t])
    return KernelWeights((False,), table[0], 1e-12, ext[0])


# ---------------------------------------------------------------------------
# power kernel |z|^-(1+sigma) on the line and 2 pi periodized


def _check_sigma(sigma: float) -> None:
    if sigma >= 1.0:
        raise StepFunctionDivergence(
            f"sigma={sigma}: adjacent-cell weights diverge; step functions "
            "genuinely have infinite energy for sigma >= 1"
        )
    if not SIGMA_MIN <= sigma < 1.0:  # the tables scale like 1 / sigma
        raise SigmaOutOfRange(
            f"sigma must lie in [{SIGMA_MIN:g}, 1), below which the tables would leave "
            f"float range; got {sigma}"
        )


def _riesz_series(a: float, terms: int) -> np.ndarray:
    """q_k = prod_{j=2}^{2k-1} (j - a) / (2k)!, k = 1..terms, all positive
    for a < 2.

    The pair weight of |x - y|^(-(1+sigma)) at cell offset m, a = 1 - sigma,
    is the second difference c (P(z+h) - 2 P(z) + P(z-h)) at z = m h of
    P(r) = r^a, c = 1 / (sigma (sigma - 1)); its even Taylor series
    2 sum_k h^(2k) P^(2k)(z) / (2k)! becomes 2 h^a sum_k q_k m^(a - 2k),
    since c a (a - 1) = 1.
    """
    k2 = np.arange(2.0, 2.0 * terms + 1.0, 2.0)  # 2k, in floats: exact
    ratio = (k2 - 2.0) - a
    ratio *= (k2 - 1.0) - a
    ratio /= (k2 - 1.0) * k2
    ratio[0] = 1.0  # q_1 = 1/2
    np.multiply.accumulate(ratio, out=ratio)
    ratio *= 0.5
    return ratio


# series terms of the line weights below offset 40 (5 from there)
LINE_TERMS = 30


def _line_powers(mmax: int) -> tuple[int, tuple]:
    """The sigma-free part of ``_riesz_line_pairs`` up to offset mmax: mmax,
    and per block (lo, hi) of the offsets 2 <= m <= mmax the offsets m and
    the powers (1 / m^2)^i of its series (read-only)."""
    blocks = []
    for lo, hi, terms in ((2, min(40, mmax + 1), LINE_TERMS), (40, mmax + 1, 5)):
        if lo < hi:
            m = np.arange(lo, hi, dtype=float)
            blocks.append((lo, hi, _frozen(m), _frozen((1.0 / (m * m))[:, None] ** np.arange(terms))))
    return mmax, tuple(blocks)


def _adjacent_pair(h: float, sigma: float) -> float:
    """The pair weight L[1] of |x - y|^(-(1+sigma)) at cell offset 1, in
    closed form: 2 h^a (1 - 2^-sigma) / (sigma (1 - sigma)), a = 1 - sigma,
    which carries the table's pole at sigma = 1."""
    a = 1.0 - sigma
    return 2.0 * -math.expm1(-sigma * math.log(2.0)) / (sigma * a) * h**a


def _riesz_line_pairs(line: tuple[int, tuple], h: float, sigma: float, q: np.ndarray) -> np.ndarray:
    """Pair weights L[m] of |x - y|^(-(1+sigma)) at cell offsets m = 2..mmax,
    with L[0] = L[1] = 0, from ``line`` = ``_line_powers(mmax)`` and ``q`` =
    ``_riesz_series(1 - sigma, terms)``, terms >= LINE_TERMS; L[1] itself
    is ``_adjacent_pair``.

    L[m] for m >= 2 is the all-positive series 2 h^a sum_k q_k m^(a - 2k) of
    ``_riesz_series``: 30 terms below m = 40, 5 from there, the first
    omitted term below 2e-17 relative at m = 2 and 40.  No term cancels, so
    the weights hold a few ulps at every sigma; the series holds for every
    sigma > -1, past the ends of (0, 1) too.
    """
    mmax, blocks = line
    a = 1.0 - sigma
    out = np.zeros(mmax + 1)
    for lo, hi, m, powers in blocks:
        part = out[lo:hi]
        np.power(m, a - 2.0, out=part)
        part *= 2.0
        part *= powers @ q[: powers.shape[1]]
    out *= h**a
    return out


# copies -RIESZ_NEAR <= k < RIESZ_NEAR of the periodized 1D table are summed
# explicitly, the others by the Hurwitz-zeta series, each of its terms by
# RIESZ_TAYLOR even Taylor terms
RIESZ_NEAR = 4
RIESZ_TAYLOR = 10
# rounding floor of the periodized 1D table's certificate: the largest
# error of its fit measured against 40-digit Hurwitz-zeta values, 1.6e-15 (n
# from 2 to 4096, sigma from 1e-300 to 1 - 1e-9), with room to spare
RIESZ_ROUNDING = 4e-15


_PeriodizedPlan = namedtuple("_PeriodizedPlan", "n line near adjacent far orders")


def _periodized_plan(n: int) -> _PeriodizedPlan:
    """The sigma-free part of ``_periodized_direct`` on n cells (read-only).

    The line powers ``_line_powers`` of the offsets up to RIESZ_NEAR n - 1
    (``line``); per half-table offset d = 1..n // 2, the line offsets
    |d + k n| of its explicit copies, -RIESZ_NEAR <= k < RIESZ_NEAR
    (``near``), and how many of them are 1 (``adjacent``); the doubled
    orders 2j of the far copies' zeta terms (``orders``); and the far-copy
    matrix (``far``), shape (2, n // 2, J + M + 1) in the notation of
    ``_periodized_direct``, M = RIESZ_TAYLOR: per order j, the sum over the
    series terms (k, m) with k + m = j of C(2j, 2m) n^(-2k) y^(2m), y = d / n
    - 1/2, over the terms the table keeps (k <= J, m < M) in row 0, and in
    row 1 over the terms that bound the rest, each with its factor: 2 for
    the first omitted zeta term (k = J + 1), and 1 / (1 - rho_k) for each
    Taylor tail (m = M), rho_k = (2k + 2M + 1)(2k + 2M + 2) / ((2M + 1)(2M +
    2) 4 x^2), the ratio bound at |s| <= 2k + 1 and y^2 <= 1/4.
    """
    taylor = RIESZ_TAYLOR
    d = np.arange(1, n // 2 + 1)
    near = np.abs(d[:, None] + n * np.arange(-RIESZ_NEAR, RIESZ_NEAR))
    terms = math.ceil(17.0 / (2.0 * math.log10(n * RIESZ_NEAR))) + 1
    k = np.arange(1, terms + 2)[:, None]
    m = np.arange(taylor + 1)
    top = 2.0 * (k + taylor) + 1.0
    rho = top * (top + 1.0) / ((2 * taylor + 1) * (2 * taylor + 2) * 4.0 * (RIESZ_NEAR + 0.5) ** 2)
    omitted = k == terms + 1
    binom = np.frompyfunc(math.comb, 2, 1)(2 * (k + m), 2 * m).astype(float)  # exact below 2^53
    c = binom * float(n) ** (-2.0 * k)
    factors = (
        np.where(~omitted & (m < taylor), 1.0, 0.0),
        np.where(m < taylor, 2.0 * omitted, (1.0 + omitted) / (1.0 - rho)),
    )
    by_order = np.zeros((2, taylor + 1, terms + taylor + 1))  # [row, m, j - 1]
    for row, f in enumerate(factors):
        by_order[row, m, k + m - 1] = f * c
    ypow = ((d / n - 0.5) ** 2)[:, None] ** m
    return _PeriodizedPlan(
        n, _line_powers(RIESZ_NEAR * n - 1), _frozen(np.where(near > 1, near, 0), np.intp),
        _frozen(np.count_nonzero(near == 1, axis=1)), _frozen(ypow @ by_order),
        _frozen(2.0 * np.arange(1, terms + taylor + 2)),
    )


def _near_copies(plan: _PeriodizedPlan, h: float, sigma: float, q: np.ndarray) -> np.ndarray:
    """The near copies of ``_periodized_direct`` per half-table offset: the
    line weights ``_riesz_line_pairs`` at their line offsets >= 2 (the
    adjacent ones index L[0] = 0 instead), summed."""
    return np.add.reduce(_riesz_line_pairs(plan.line, h, sigma, q)[plan.near], axis=1)


def _periodized_direct(plan: _PeriodizedPlan, h: float, sigma: float):
    """The periodized 1D table less its two poles, summed directly at one
    sigma > -1 per half-table offset: the near copies (``_near_copies``),
    the far copies' orders j >= 2, and the truncation bound of those.

    The far copies are 4 (h n)^a sum_j q_j zeta(2j - a, x) F[d, j], x =
    RIESZ_NEAR + 1/2, a = 1 - sigma, J = ceil(17 / (2 log10(n K))) + 1,
    K = RIESZ_NEAR: the copies at offsets d + k n, |k| >= K, are the same
    series as the line weights summed over them, with Hurwitz zeta of
    positive order only.  The pair Z_k[d] + Z_k[n - d] of zeta(2k - a,
    K + d / n) and zeta(2k - a, K + 1 - d / n) is zeta(s, x + y) + zeta(s,
    x - y), s = 2k - a, y = d / n - 1/2, whose even Taylor series
    2 sum_m (s)_2m / (2m)! zeta(s + 2m, x) y^(2m) (d/dx zeta(s, x) =
    -s zeta(s + 1, x)) has positive terms only.  Term m + 1 is at most
    (s + 2m)(s + 2m + 1) / ((2m + 1)(2m + 2)) y^2 / x^2 times term m, a ratio
    that falls with m, so the first omitted term M = RIESZ_TAYLOR over one
    minus that ratio at m = M bounds the rest; successive zeta terms fall
    by at least (n K)^2 >= 16, so twice the first omitted one bounds them.
    Since q_k (s)_2m / (2m)! = q_j C(2j, 2m), j = k + m, ``_periodized_plan``
    keeps F and the bound as matrices per n.  The order j = 1 is the pole
    at sigma = 0, the same for every d, which ``riesz_weights_1d`` adds.
    """
    n = plan.n
    a = 1.0 - sigma
    # one series for the near and the far copies
    q = _riesz_series(a, max(LINE_TERMS, plan.orders.size))
    near = _near_copies(plan, h, sigma, q)
    orders = plan.orders[1:]
    series = _hurwitz_zeta(orders - a, (orders - 2.0) + sigma, RIESZ_NEAR + 0.5)
    series *= q[1 : orders.size + 1]
    series *= 4.0 * h**a * float(n) ** a
    far, bound = plan.far[:, :, 1:] @ series
    return near, far, bound


# degree in sigma of the direct tables' Chebyshev series, and rho of the
# Bernstein ellipse of [0, 1] that certifies them: its real ends FIT_ENDS,
# sigma = 1/2 -+ (rho + 1/rho) / 4 = -0.8 and 1.8, stay above -1, where the
# 1D line series converges, and mu = 1 + sigma / 2 = 0.6 and 1.9 above 1/2,
# where the 2D copy-tail series converges
FIT_DEGREE = 24
FIT_RHO = 5.0
FIT_ENDS = (0.5 - 0.25 * (FIT_RHO + 1.0 / FIT_RHO), 0.5 + 0.25 * (FIT_RHO + 1.0 / FIT_RHO))


_SigmaSeries = namedtuple("_SigmaSeries", "coef degrees log_r")


def _sigma_series(sample, log_r: np.ndarray, at_ends, across) -> tuple[_SigmaSeries, np.ndarray]:
    """The Chebyshev series in sigma of a direct table, once per grid
    (read-only), and its certificate.

    Each entry D(sigma) of the table, times r^sigma, r = exp(``log_r``) per
    entry, is F(sigma) = r^sigma D(sigma), which varies slowly in sigma.  F
    is sampled at the N + 1 = FIT_DEGREE + 1 Chebyshev points sigma_j = 1/2
    + cos(pi j / N) / 2 of [0, 1], from 1 down to 0: ``sample``(sigmas)
    gives D and its truncation bound there, (point, entry) each.  F is kept
    as its interpolant's coefficients a_k of F = sum_k a_k T_k(2 sigma - 1)
    (``coef``, one row per entry, its degrees k in ``degrees``), beside
    ``log_r``.  The type-I DCT takes the samples less their middle one,
    which a_0 takes back exactly: its rounding, which T_k = 1 at sigma = 1
    sums up, then scales with the samples' spread, not with their size
    (3e-15 of F there otherwise).  It reduces j k mod 2N before the cosine,
    whose argument would otherwise lose up to 6 bits.

    The interpolant errs by at most 4 M rho^(-N) / (rho - 1), M a bound of
    |F| on the Bernstein ellipse of [0, 1] with rho = FIT_RHO (Trefethen,
    Approximation Theory and Approximation Practice, Thm 8.2); the samples'
    truncation spreads by at most the Lebesgue constant 2 / pi log(N + 1) +
    1 (Thm 15.2).  The caller bounds |D| on the ellipse in two parts.
    ``at_ends`` holds, at each real end of FIT_ENDS, the value of the part of
    D that is a positive combination of powers r'^-sigma: r^sigma times that
    part is at most its value at Re sigma, convex in Re sigma, so at most
    its larger value at the two ends.  ``across`` bounds the rest of D over
    the whole ellipse, where |r^sigma| is at most its larger value at the
    ends.  Returns the series and, per entry, the certified error relative
    to the entry's least sample.
    """
    degree = FIT_DEGREE
    j = np.arange(degree + 1)
    sigmas = 0.5 + 0.5 * np.cos(math.pi / degree * j)
    values, truncation = np.multiply(sample(sigmas), np.exp(np.outer(sigmas, log_r)))
    ends = np.exp(np.outer(FIT_ENDS, log_r))
    peak = np.max(ends * at_ends, axis=0) + ends.max(axis=0) * across
    mid = values[degree // 2]
    half = np.where((j == 0) | (j == degree), 0.5, 1.0)
    dct = np.cos(math.pi / degree * (np.outer(j, j) % (2 * degree)))
    coef = ((values - mid).T * half) @ dct * (2.0 / degree * half)
    coef[:, 0] += mid
    lebesgue = 2.0 / math.pi * math.log(degree + 1) + 1.0
    error = 4.0 * peak / ((FIT_RHO - 1.0) * FIT_RHO**degree) + lebesgue * truncation.max(axis=0)
    series = _SigmaSeries(_frozen(coef), _frozen(np.arange(degree + 1.0)), _frozen(log_r))
    return series, error / values.min(axis=0)


def _series_at(series: _SigmaSeries, sigma: float) -> np.ndarray:
    """D(sigma) = r^-sigma F(sigma) per entry of a ``_sigma_series``: one
    cosine for T_k(2 sigma - 1) = cos(k arccos(2 sigma - 1)), one product
    with the coefficients and one exponential per entry."""
    coef, degrees, log_r = series
    cheb = degrees * math.acos(2.0 * sigma - 1.0)
    np.cos(cheb, out=cheb)
    w = log_r * -sigma
    np.exp(w, out=w)
    w *= coef @ cheb
    return w


_PeriodizedFit = namedtuple("_PeriodizedFit", "series adjacent mirror accuracy")


@lru_cache(maxsize=8)
def _periodized_fit(n: int, h: float) -> _PeriodizedFit:
    """The sigma-free part of ``riesz_weights_1d`` on n cells of width h,
    once per grid (read-only).

    The ``_sigma_series`` of one entry per half-table offset d = 1..n // 2,
    ``_periodized_direct``(sigma) scaled by r_d^sigma, r_d = h times its
    least line offset past the adjacent ones, and of a last entry G(sigma) =
    sigma zeta(1 + sigma, x), x = RIESZ_NEAR + 1/2, the pole order's zeta
    times its pole, 1 at sigma = 0 and entire, by ``_hurwitz_zeta``, with a
    zero row for d = 0 in front (``series``); beside it the count of
    adjacent copies per row (``adjacent``), the index of each table entry's
    half-table offset min(d, n - d) (``mirror``), and the table's
    ``accuracy``.

    The bounds on the Bernstein ellipse of ``_sigma_series``, where Re sigma
    runs over [1/2 - R, 1/2 + R], R = (rho + 1/rho) / 4, and |sigma| <= 1/2
    + R: the real ends -0.8 and 1.8 stay above -1, where the line series
    converges.  The near copies are positive combinations of r^-(1 + sigma),
    bounded at the real ends.  The far orders take their series with
    |q_j(sigma)| <= q_j at a = 1 - |sigma|, |zeta(s, x)| <= zeta(Re s, x) and
    |(h n)^a| <= (h n)^(1 - Re sigma), each at its largest on the ellipse,
    and with the truncation bound, which holds there too: a majorant, as
    their sum converges only for Re sigma > 0.  G takes the first
    Euler-Maclaurin remainder, for Re s > 0 (s = 1 + sigma, y = x +
    ZETA_TERMS): |zeta(s, x)| <= sum_k<ZETA_TERMS (x + k)^-Re s + |y^(1-s) /
    (s - 1)| + y^-Re s / 2 + |s| y^-Re s / (2 Re s), each term at its
    largest.  The samples carry the far copies' truncation, and G that of
    ``_hurwitz_zeta``.  ``accuracy`` is the largest certified error over the
    offsets, relative to the offset's least sample (each entry is at least
    F_d r_d^-sigma, as the poles are positive), plus G's, relative to its
    least sample (each entry is at least C), plus RIESZ_ROUNDING.
    """
    plan = _periodized_plan(n)
    apart = np.where(plan.near > 1, plan.near, np.inf).min(axis=1)
    x = RIESZ_NEAR + 0.5

    def sample(sigmas):  # the last is 0, where G is 1
        parts = np.array([_periodized_direct(plan, h, s) for s in sigmas])  # (point, 3, offset)
        s = sigmas[:-1]
        pole = np.append(s * _hurwitz_zeta(1.0 + s, s, x), 1.0)
        values = np.column_stack((parts[:, 0] + parts[:, 1], pole))
        return values, np.column_stack((parts[:, 2], ZETA_RTOL * pole))

    lo, hi = FIT_ENDS
    near = [np.append(_near_copies(plan, h, s, _riesz_series(1.0 - s, LINE_TERMS)), 0.0)
            for s in FIT_ENDS]
    orders = plan.orders[1:]
    q = _riesz_series(1.0 - hi, plan.orders.size)[1:]
    zeta = _hurwitz_zeta(orders - (1.0 - lo), (orders - 2.0) + lo, x)
    far = (plan.far[0, :, 1:] + plan.far[1, :, 1:]) @ (4.0 * (h * n) ** (1.0 - lo) * q * zeta)
    y, re_s = x + ZETA_TERMS, 1.0 + lo  # |G| on the ellipse, each term at its largest
    rest = np.sum((x + _ZETA_K[:-1]) ** -re_s) + y**-re_s * (0.5 + (1.0 + hi) / (2.0 * re_s))
    log_r = np.append(np.log(h * apart), 0.0)  # and G's
    series, error = _sigma_series(sample, log_r, near, np.append(far, hi * rest + y**-lo))
    coef = np.vstack((np.zeros(series.degrees.size), series.coef))  # d = 0 in front, W = 0
    d = np.arange(n)
    return _PeriodizedFit(
        series._replace(coef=_frozen(coef), log_r=_frozen(np.append(0.0, log_r))),
        _frozen(np.concatenate(([0.0], plan.adjacent, [0.0]))),
        _frozen(np.minimum(d, n - d), np.intp),
        float(np.max(error[:-1], initial=0.0)) + float(error[-1]) + RIESZ_ROUNDING,
    )


def riesz_weights_1d(grid: Grid1D, sigma: float) -> KernelWeights:
    """Cell-pair weights of |x - y|^(-(1+sigma)), 2 pi periodized.

    W[0] is 0 by the singular-diagonal convention, and W[d] = W[n - d].
    Each half-table entry splits as W[d] = A_d + C + r_d^-sigma F_d(sigma):
    A_d, the adjacent pairs, ``_adjacent_pair`` once per copy at line offset
    1, carries the pole at sigma = 1; C = 2 (h n)^a n^-2 zeta(1 + sigma,
    K + 1/2), a = 1 - sigma, the first order of the far copies (see
    ``_periodized_direct``), the same for every d, carries the pole at
    sigma = 0; and F_d, the rest, is analytic on a Bernstein ellipse about
    [0, 1].  ``_periodized_fit`` keeps F_d and sigma zeta(1 + sigma, K +
    1/2) per grid as one certified series in sigma, and a build for one
    sigma evaluates it (``_series_at``), adds the closed forms of A and C,
    and mirrors the half table.  ``accuracy``, relative to each entry, is
    the fit's certificate plus the rounding floor RIESZ_ROUNDING.
    """
    _check_sigma(sigma)
    if not grid.periodic:
        raise GridMismatch("periodized Riesz weights need a periodic grid")
    n, h = grid.n, grid.h
    fit = _periodized_fit(n, h)
    a = 1.0 - sigma
    w = _series_at(fit.series, sigma)
    pole = float(w[-1])  # sigma zeta(1 + sigma, K + 1/2)
    w += fit.adjacent * _adjacent_pair(h, sigma)
    w += 2.0 * h**a * float(n) ** a / (n * n) * (pole / sigma)
    w[0] = 0.0
    return KernelWeights((True,), w.take(fit.mirror), fit.accuracy)


# ---------------------------------------------------------------------------
# 2D power kernel |z|^-(2+sigma), x1-periodized, for the direct ND route


@lru_cache(maxsize=32)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _corner_rule(side: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sigma-free part of ``_corner_moments`` on [0, side]^2 (read-only):
    at the 40 Gauss-Legendre angles th of [0, pi/4], log(side / c),
    w (c + s) and w 2 c s, c = cos th, s = sin th, w the angle weight."""
    x, w = _gl(40)
    th = math.pi / 8.0 * (x + 1.0)
    c, s = np.cos(th), np.sin(th)
    w = w * (math.pi / 8.0)
    return _frozen(np.log(side / c)), _frozen(w * (c + s)), _frozen(w * 2.0 * c * s)


def _corner_moments(rule, sigma: float) -> tuple[float, float, float]:
    """Integrals of y, x and x y times (x^2 + y^2)^(-1 - sigma/2) over [0, side]^2.

    Exact in the radius, 40-point Gauss-Legendre in the angle over the half
    below the diagonal, which the other half mirrors (so the first two are
    equal); 1 - sigma > 0 keeps them finite.  The radial powers take 1 - sigma
    itself: formed as 3 - 2 mu, it would carry mu's rounding, relative to
    1 - sigma.  ``rule`` is ``_corner_rule(side)``, so a sigma costs two
    exponentials per angle.
    """
    log_ray, linear, product = rule
    m1 = (np.exp((1.0 - sigma) * log_ray) @ linear) / (1.0 - sigma)
    m11 = (np.exp((2.0 - sigma) * log_ray) @ product) / (2.0 - sigma)
    return m1, m1, m11


def _panels(j1, j2, h1: float, h2: float):
    """Quadrature panels of the lattice squares [j1, j1 + 1] h1 x [j2, j2 + 1] h2.

    A square whose span along the long cell side L ends at the kernel
    origin, less than L from it along the short side s, is split at
    distances 0, s, 2s, 4s, ... (up to L/2), L from the origin.  Returns per
    panel its square, and the offsets of its lower and upper corner from the
    square's lower corner, (P, 2) each.
    """
    h = np.array([h1, h2])
    ax = int(h2 > h1)
    big, small = h[ax], h[1 - ax]
    edges = [0.0, small]
    while 2.0 * edges[-1] <= 0.5 * big:
        edges.append(2.0 * edges[-1])
    edges = np.array(edges + [big])
    along, across = (j1, j2) if ax == 0 else (j2, j1)
    gap = np.maximum(across, -across - 1) * small  # from the origin along the short side
    near = (along >= -1) & (along <= 0) & (gap < big * (1.0 - 1e-9))
    pieces = np.where(near & (big > small * (1.0 + 1e-9)), edges.size - 1, 1)
    square = np.repeat(np.arange(pieces.size), pieces)
    start = np.zeros((square.size, 2))
    stop = np.tile(h, (square.size, 1))
    split = np.flatnonzero(pieces[square] > 1)
    # piece i, counted from the origin at the square's lower (along = 0) or
    # upper (along = -1) end
    i = split - np.repeat(np.cumsum(pieces) - pieces, pieces)[split]
    low = along[square[split]] == 0
    start[split, ax] = np.where(low, edges[i], big - edges[i + 1])
    stop[split, ax] = np.where(low, edges[i + 1], big - edges[i])
    return square, start, stop


def _gl_order(gap1, gap2, w1, w2) -> np.ndarray:
    """Gauss-Legendre order per panel of pair offsets, from Trefethen's bound.

    The panel, w1 by w2, lies gap1 and gap2 from the kernel origin along
    each axis.  With z2 real, (z1^2 + z2^2)^(-mu) is singular in z1 only at
    Re z1 = 0, |Im z1| >= gap2, so the z1 rule (half-width a = w1 / 2) sees a
    function analytic in the Bernstein ellipse of rho = r + sqrt(r^2 - 1),
    r = 1 + gap1 / a, and in that of rho = t + sqrt(t^2 + 1), t = gap2 / a;
    the larger holds, and the panel takes the smaller over its two axes.
    An m-point rule errs by at most 64 M / (15 (rho^2 - 1) rho^(2 m - 2))
    (Trefethen, SIAM Review 50, 2008, Thm 4.5), M = (1 + rho) times the
    panel's magnitude for the linear density; m is the smallest order that
    brings this below 2^-52 of the magnitude.  Every panel of ``_panels``
    off the origin has rho >= 3 (it lies a third of its width away along
    one axis, or a width across), so m <= 18.
    """

    def rho(along, across, a):
        r, t = 1.0 + along / a, across / a
        return np.maximum(r + np.sqrt(r * r - 1.0), t + np.sqrt(t * t + 1.0))

    g1, g2 = np.maximum(gap1, 0.0), np.maximum(gap2, 0.0)
    p = np.minimum(rho(g1, g2, 0.5 * w1), rho(g2, g1, 0.5 * w2))
    bound = 64.0 * (1.0 + p) / (15.0 * (p * p - 1.0))
    m = 1.0 + np.log(bound / np.finfo(float).eps) / (2.0 * np.log(p))
    return np.maximum(np.ceil(m), 1).astype(int)


def _hat_rule(m: int) -> np.ndarray:
    """The m x m Gauss-Legendre product rule on [-1, 1]^2 times the four bilinear hats.

    Column 2 a + b weights the hat that is 1 at the square's corner (a, b)
    (0 the lower end, 1 the upper end of each axis); rows run over the
    nodes, the first axis's index leading.
    """
    g, w = _gl(m)
    hats = w[:, None] * np.stack(((1.0 - g) / 2.0, (1.0 + g) / 2.0), axis=1)
    return _frozen(np.einsum("ia,jb->ijab", hats, hats).reshape(m * m, 4))


# total degree of the 2D copy-tail series, and the largest ratio of a box
# point's distance from the kernel origin to the first tail copy's, in periods
TAIL_DEGREE = 24
TAIL_REACH = 0.2


def _tail_copies(n1: int, h1: float, n2: int, h2: float) -> int:
    """Copies K per side that the 2D table integrates explicitly: the least K
    with r_max / (K + 1) <= TAIL_REACH, where r_max = hypot(pi + h1,
    (n2 + 1) h2) / 2 pi bounds |x| / 2 pi over the boxes of the sector."""
    return math.ceil(math.hypot(math.pi + h1, (n2 + 1) * h2) / TWO_PI / TAIL_REACH) - 1


def _tri_moments(count: int, h: float) -> np.ndarray:
    """M[d, j] = integral over |z| < h of (h - |z|) ((d h + z) / 2 pi)^(2 j),
    d < count, 2 j <= TAIL_DEGREE + 2 (read-only): the copy-tail series
    integrated along one axis.  A 16-point Gauss-Legendre rule per half cell
    is exact to polynomial degree 31."""
    g, w = _gl(16)
    z = 0.5 * h * np.concatenate((g - 1.0, g + 1.0))
    weight = 0.5 * h * np.tile(w, 2) * (h - np.abs(z))
    x2 = ((np.arange(count)[:, None] * h + z) / TWO_PI) ** 2
    powers = x2[:, :, None] ** np.arange(TAIL_DEGREE // 2 + 2)
    return _frozen(np.einsum("dzj,z->dj", powers, weight))


def _copy_tail_series(mu: float, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the 2D copy tail and of its first omitted degree.

    With xi = x1 / 2 pi and eta = x2 / 2 pi, and K = ``copies``,
    sum_{|k| > K} ((2 pi k + x1)^2 + x2^2)^(-mu)
    = (2 pi)^(-2 mu) sum_{i + b <= TAIL_DEGREE / 2} C[i, b] xi^(2 i) eta^(2 b),
    C[i, b] = 2 binom(-mu, b) binom(-2 mu - 2 b, 2 i) zeta(2 mu + 2 b + 2 i, K + 1),
    from the binomial series in eta^2 / (k + xi)^2 and then in xi / k (the
    generating function of DLMF 18.12.4); the odd powers of xi cancel
    between k and -k.  The series converges absolutely while
    |xi| + |eta| < K + 1.  Returns C, and the absolute coefficients of the
    terms with i + b = TAIL_DEGREE / 2 + 1; both are zero elsewhere.
    """
    top = TAIL_DEGREE // 2 + 1  # half the first omitted degree
    j = np.arange(top + 1)
    # binom(x, p) = prod_{q < p} (x - q) / (q + 1): at x = -2 mu - 2 b, row b,
    # for every p <= 2 top, then at x = -mu
    p = np.arange(2 * top)
    ratio = (-2.0 * mu - 2.0 * j[:, None] - p) / (p + 1.0)
    by_a = np.cumprod(np.hstack((np.ones((top + 1, 1)), ratio)), axis=1)[:, ::2].T  # [i, b]
    by_b = np.cumprod(np.append(1.0, (-mu - j[:-1]) / (j[:-1] + 1.0)))
    half = j[:, None] + j  # i + b
    order = 2.0 * mu + 2.0 * j
    zeta = _hurwitz_zeta(order, order - 1.0, copies + 1.0)
    c = 2.0 * by_a * by_b * zeta[np.minimum(half, top)]
    return np.where(half < top, c, 0.0), np.where(half == top, np.abs(c), 0.0)


def _nd_sector(n1: int, n2: int):
    """Offsets of one symmetry sector, 0 <= d1 <= n1/2 and 0 <= d2 < n2, less
    the singular diagonal (0, 0), which keeps the convention W = 0."""
    return np.divmod(np.arange(1, (n1 // 2 + 1) * n2), n2)


_NDPlan = namedtuple("_NDPlan", "copies nodes chunks into squares fold corner tri1 tri2")


def _nd_plan(n1: int, h1: float, n2: int, h2: float) -> _NDPlan:
    """The sigma-free part of ``_nd_direct`` on one grid, built by ``_nd_fit``.

    The boxes of the x1 copies k in [-K, K] of a sector offset d, K of
    ``_tail_copies``, are centred at the lattice points a = (d1 + n1 k, d2).
    The kernel and tri are even in z1, so the box at -a1 is the one at a1
    (``fold`` gathers, per copy and sector offset, the box at (|a1|, d2)),
    and the boxes at a1 >= 0 cover the lattice squares [j1, j1 + 1] h1 x
    [j2, j2 + 1] h2, j1 in [-1, K n1 + n1 // 2] and j2 in [-1, n2 - 1]
    (``squares``).  Their panels of ``_panels`` off the kernel origin keep
    their ``_gl_order`` nodes as log r^2 (``nodes``), in chunks of at most
    OFFSET_BLOCK nodes.  Along each axis of a square tri falls from its
    lower edge (hat e = 0) or rises to its upper one (e = 1), linearly over
    a panel, so the square's hats are a nonnegative combination of the
    panel's (``_hat_rule``), by their values at the panel's ends.  Panels
    of one order and place in their square share a chunk, whose matrix
    takes both steps; the moments go to the slots ``into`` = 4 square +
    2 e1 + e2.  The corner panels take the exact corner moments instead: on
    a box with |a| <= 1, tri = A + B |z| along each axis, (A, B) = (h, -1)
    where a = 0 and (0, 1) where a = 1, and the box holds two corner panels
    per zero coordinate; ``corner`` folds these weights of the moments of
    (y, x, x y).  ``tri1`` and ``tri2`` are the sector offsets'
    ``_tri_moments``.
    """
    copies = _tail_copies(n1, h1, n2, h2)
    d1, d2 = _nd_sector(n1, n2)
    top = copies * n1 + n1 // 2  # the largest |a1|
    squares = (top + 2, n2 + 1)  # from j = -1
    h = np.array([h1, h2])
    j = np.indices(squares).reshape(2, -1).T - 1
    square, start, stop = _panels(j[:, 0], j[:, 1], h1, h2)
    width = stop - start
    lo = j[square] * h + start
    gap = np.maximum(lo, -lo - width)
    off = np.flatnonzero(np.any(gap >= 1e-9 * h, axis=1))  # all but the corner panels
    order = _gl_order(*gap[off].T, *width[off].T)
    kind = np.column_stack((order, start[off], stop[off]))  # order and place in the square
    rank = np.lexsort(kind.T[::-1])
    panel, kind = off[rank], kind[rank]
    first = np.flatnonzero(np.append(True, np.any(kind[1:] != kind[:-1], axis=1)))
    nodes, chunks, n0 = np.empty(int(order @ order)), [], 0
    for p_first, p_end in zip(first, np.append(first[1:], panel.size)):
        m, ends = int(kind[p_first, 0]), kind[p_first, 1:].reshape(2, 2).T  # (axis, end)
        tri = np.stack((h[:, None] - ends, ends), axis=1)  # per axis, (e, end)
        area = 0.25 * np.prod(ends[:, 1] - ends[:, 0])  # the hat rule covers [-1, 1]^2
        hats = _hat_rule(m) @ (area * np.einsum("ac,bd->abcd", *tri).reshape(4, 4)).T
        g, per = _gl(m)[0] + 1.0, max(1, OFFSET_BLOCK // (m * m))
        for p0 in range(p_first, p_end, per):
            p1 = min(p0 + per, p_end)
            pp = panel[p0:p1]
            x = lo[pp][:, :, None] + 0.5 * width[pp][:, :, None] * g  # (panels, 2, m)
            x *= x
            n_end = n0 + (p1 - p0) * m * m
            nodes[n0:n_end].reshape(p1 - p0, m, m)[...] = x[:, 0, :, None] + x[:, 1, None, :]
            chunks.append((n0, int(p0), int(p1), hats))
            n0 = n_end
    np.log(nodes, out=nodes)
    fold = np.abs(d1 + n1 * np.arange(-copies, copies + 1)[:, None]) * n2 + d2
    corner = np.zeros((top + 1, n2, 3))  # at a = (0, 1), (1, 0), (1, 1)
    corner[:2, :2] = np.array([[(0, 0, 0), (2 * h1, 0, -2)], [(0, 2 * h2, -2), (0, 0, 1)]])[:, :n2]
    into = _frozen(4 * square[panel, None] + np.arange(4), np.intp)
    return _NDPlan(
        copies, _frozen(nodes), tuple(chunks), into, squares, _frozen(fold, np.intp),
        _frozen(corner.reshape(-1, 3)[fold].sum(axis=0)),
        _tri_moments(n1 // 2 + 1, h1)[d1], _tri_moments(n2, h2)[d2],
    )


def _nd_direct(plan: _NDPlan, mu: float) -> tuple[np.ndarray, np.ndarray]:
    """The sector entries less their corner terms, summed directly at one mu,
    and the truncation bound of their copy tails.

    The kernel exp(-mu log r^2) at the plan's nodes, one matrix product per
    chunk, gives each panel's moments of its square's hats, and one
    ``np.bincount`` sums them into H[j1, j2, e1, e2].  The box at a is then
    four shifted slices, H[a - 1, a - 1, 1, 1] + H[a - 1, a, 1, 0] +
    H[a, a - 1, 0, 1] + H[a, a, 0, 0], and a sector offset the sum of its
    folded copies' boxes.  The copies past both ends sum to the polynomial
    series of ``_copy_tail_series``, whose box integral against tri(z1)
    tri(z2) separates into the tri moments along each axis and C; twice its
    first omitted degree bounds the rest.
    """
    moments = np.empty((len(plan.into), 4))
    for n0, p0, p1, hats in plan.chunks:
        f = np.exp(-mu * plan.nodes[n0 : n0 + (p1 - p0) * len(hats)])
        np.matmul(f.reshape(p1 - p0, len(hats)), hats, out=moments[p0:p1])
    H = np.bincount(plan.into.ravel(), moments.ravel(), 4 * math.prod(plan.squares))
    H = H.reshape(*plan.squares, 2, 2)
    box = H[:-1, :-1, 1, 1] + H[:-1, 1:, 1, 0] + H[1:, :-1, 0, 1] + H[1:, 1:, 0, 0]
    tail, omitted = TWO_PI ** (-2.0 * mu) * np.sum(
        (plan.tri1 @ np.stack(_copy_tail_series(mu, plan.copies))) * plan.tri2, axis=2
    )
    return box.ravel()[plan.fold].sum(axis=0) + tail, 2.0 * omitted


_NDFit = namedtuple("_NDFit", "series corner corner_rule cells log_hi log_lo bound")


@lru_cache(maxsize=8)
def _nd_fit(n1: int, h1: float, n2: int, lo: float, hi: float) -> _NDFit:
    """The sigma-free part of ``riesz_weights_nd`` on n1 periodic cells of
    width h1 times the n2-cell interval [lo, hi], once per grid (read-only).

    The ``_sigma_series`` of the sector's ``_nd_direct`` at mu = 1 + sigma
    / 2, scaled by r^sigma, r the distance of a sector offset's centre from
    the kernel origin (``series``), beside the corner weights of the plan,
    ``_corner_rule``, the flat indices of the four table cells that each
    sector offset fills by symmetry, and the logs of the distances of the
    interval's cell edges to its upper and lower end, -inf at the end
    itself, from which the closed-form exterior masses take the powers
    1 - sigma.

    ``_nd_direct``, with the exact copy tail, is a positive combination of
    r'^-(2 + sigma) over points r', so all of it is bounded at the
    ellipse's real ends (``at_ends``), there evaluated directly plus the
    truncation bound; the samples carry the copy tails' truncation.
    ``bound`` is the largest certified error, relative to the offset's
    least sample; above ND_TABLE_ACCURACY the grid raises RangeTooWide.
    """
    grid2 = Grid1D.interval(n2, lo, hi)
    h2 = grid2.h
    if max(h1 / h2, h2 / h1) > ND_ASPECT_MAX:
        raise RangeTooWide(
            f"2D table cells {h1:g} by {h2:g}: one side is over {ND_ASPECT_MAX:g} times the other"
        )
    plan = _nd_plan(n1, h1, n2, h2)
    d1, d2 = _nd_sector(n1, n2)
    series, error = _sigma_series(
        lambda sigmas: np.moveaxis([_nd_direct(plan, 1.0 + s / 2.0) for s in sigmas], 1, 0),
        np.log(np.hypot(d1 * h1, d2 * h2)),
        [np.sum(_nd_direct(plan, 1.0 + s / 2.0), axis=0) for s in FIT_ENDS], 0.0,
    )
    bound = float(np.max(error, initial=0.0))  # no offsets on 1 x 1
    if bound > ND_TABLE_ACCURACY:
        raise RangeTooWide(f"2D table fit would not certify rtol={ND_TABLE_ACCURACY}")
    # (d1 or -d1, d2 or -d2) in weights[d1 mod n1, d2 + n2 - 1]
    rows = np.stack((d1, (n1 - d1) % n1))[:, None]
    cells = rows * (2 * n2 - 1) + (n2 - 1 + np.stack((d2, -d2)))
    corner_rule = _corner_rule(min(h1, h2))
    b = grid2.boundaries()
    gaps = (hi - b, b - lo)
    logs = [np.log(d, out=np.full(d.shape, -np.inf), where=d > 0) for d in gaps]
    return _NDFit(
        series, plan.corner, corner_rule, _frozen(cells, np.intp), *map(_frozen, logs), bound
    )


def riesz_weights_nd(grid1: Grid1D, grid2: Grid1D, sigma: float) -> KernelWeights:
    """Pair weights of |x - y|^(-(2+sigma)) with periodized x1, analytic tails.

    Offsets are computed for one symmetry sector and reflected (the kernel
    is even in each coordinate and the x1 copies are symmetric).  Each
    sector entry is the Gauss-Legendre quadrature of the boxes of the x1
    copies k in [-K, K] near the cell, K chosen per grid (``_tail_copies``),
    plus a Hurwitz-zeta series for the copies past both ends
    (``_nd_direct``), plus exact corner moments at the kernel origin.  All
    but the corner moments is analytic in sigma, and ``_nd_fit`` keeps it
    once per grid as a series in sigma, certified within ND_TABLE_ACCURACY.
    A build for one sigma evaluates that series (``_series_at``), adds the
    corner moments (two exponentials per angle node), and reflects the
    sector.
    """
    _check_sigma(sigma)
    if not grid1.periodic or grid2.periodic:
        raise GridMismatch("riesz_weights_nd needs (periodic, interval) axes")
    n1, h1, n2 = grid1.n, grid1.h, grid2.n
    mu = (2.0 + sigma) / 2.0
    fit = _nd_fit(n1, h1, n2, grid2.lo, grid2.hi)
    total = _series_at(fit.series, sigma)
    total += fit.corner @ _corner_moments(fit.corner_rule, sigma)
    w = np.zeros(n1 * (2 * n2 - 1))
    w[fit.cells] = total
    kappa = SQRT_PI * math.gamma(mu - 0.5) / math.gamma(mu)
    # d^(1 - sigma) - 1, so that differences keep their digits as the
    # powers all near 1 with sigma
    to_hi, to_lo = np.expm1((1.0 - sigma) * fit.log_hi), np.expm1((1.0 - sigma) * fit.log_lo)
    ext = to_hi[:-1] - to_hi[1:]
    ext += to_lo[1:] - to_lo[:-1]
    ext *= h1 * (kappa / (sigma * (1.0 - sigma)))
    return KernelWeights((True, False), w.reshape(n1, 2 * n2 - 1), ND_TABLE_ACCURACY, ext)


# ---------------------------------------------------------------------------
# kernel families: tables on any compatible grid, with exact rearrangements


class Kernel:
    """The one interface of the kernel families: ``weights(grid)``, the
    family's table on a grid it fits (a 2 pi periodic kernel on a periodic
    grid, a line kernel on an interval one), and ``rearranged()``, the
    kernel's symmetric decreasing rearrangement, again of its family.

    ``singular_diagonal``: the kernel is not integrable at the origin, so a
    pair energy whose cost does not vanish on the diagonal is infinite (its
    tables keep W = 0 at offset 0).
    """

    name: str = "kernel"
    singular_diagonal: bool = False

    def weights(self, grid: Grid1D) -> KernelWeights:
        raise NotImplementedError

    def rearranged(self) -> "Kernel":
        raise NotImplementedError


@dataclass(frozen=True)
class HeatKernel(Kernel):
    """Wrapped Gaussian at diffusion time t; already symmetric decreasing."""

    t: float

    @property
    def name(self) -> str:
        return f"heat:t={self.t:g}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        return heat_weights_periodic(grid, self.t)

    def rearranged(self) -> "HeatKernel":
        return self


@dataclass(frozen=True)
class PeriodizedRieszKernel(Kernel):
    """Periodized power kernel with the zero-diagonal convention.

    Symmetric decreasing away from the origin (the periodization of a convex
    decreasing profile), so it is its own rearrangement; the table's W[0] = 0
    convention makes it suitable for seminorms and perimeters, where the
    diagonal never contributes, not for pair energies of distinct functions
    (those are genuinely infinite for this kernel).
    """

    sigma: float
    singular_diagonal = True  # a class constant, not a field

    @property
    def name(self) -> str:
        return f"riesz:sigma={self.sigma:g}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        return riesz_weights_1d(grid, self.sigma)

    def rearranged(self) -> "PeriodizedRieszKernel":
        return self


@dataclass(frozen=True)
class StepKernelCircle(Kernel):
    """Nonnegative periodic step kernel; rearranging it is exact sorting.

    Its tables are exact: the pair offset z = x - y spreads over two kernel
    cells with triangular density, so on the kernel's values gamma refined
    to the grid's n cells, W[d] = (h^2/2) (gamma[m - d - 1] + gamma[m - d])
    with m = n/2; an even cell count keeps z = 0 on a cell boundary.
    """

    profile: StepFunction

    def __post_init__(self):
        if not self.profile.grid.periodic:
            raise GridMismatch("circle step kernel needs a periodic profile")
        if self.profile.grid.n % 2 != 0:
            raise ConfigError("circle step kernel needs an even cell count")

    @property
    def name(self) -> str:
        return f"step-circle:n={self.profile.grid.n}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        if not grid.periodic:
            raise GridMismatch("a circle step kernel needs a periodic grid")
        if grid.n % self.profile.grid.n != 0:
            raise GridMismatch(
                f"grid n={grid.n} does not refine the kernel grid "
                f"n={self.profile.grid.n}"
            )
        fine = refine(self.profile, grid.n // self.profile.grid.n)
        gam, n = fine.values, fine.grid.n
        d = np.arange(n)
        w = 0.5 * fine.grid.h**2 * (gam[(n // 2 - d - 1) % n] + gam[(n // 2 - d) % n])
        return KernelWeights((True,), w, 1e-15)

    def rearranged(self) -> "StepKernelCircle":
        return StepKernelCircle(periodic_rearrange_1d(self.profile))


@dataclass(frozen=True)
class GaussianKernel(Kernel):
    t: float

    @property
    def name(self) -> str:
        return f"gauss:t={self.t:g}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        return gaussian_weights_interval(grid, self.t)

    def rearranged(self) -> "GaussianKernel":
        return self


@dataclass(frozen=True)
class StepKernelLine(Kernel):
    """Compactly supported step kernel on a centered interval grid.

    Its tables are the circle's formula on the grid's offsets, with gamma 0
    off the kernel's support, so a grid narrower than the support sees only
    part of it and a wider one exact zeros past it.  A cell's exterior mass
    is its whole kernel mass less its mass to the grid's cells.
    """

    profile: StepFunction

    def __post_init__(self):
        g = self.profile.grid
        if g.periodic or g.n % 2 != 0 or not math.isclose(g.lo, -g.hi):
            raise ConfigError("line step kernel needs an even, centered profile grid")

    @property
    def name(self) -> str:
        return f"step-line:n={self.profile.grid.n}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        if grid.periodic:
            raise GridMismatch("a line step kernel needs an interval grid")
        ratio = self.profile.grid.h / grid.h
        k = round(ratio)
        if k < 1 or not math.isclose(ratio, k, rel_tol=1e-12):
            raise GridMismatch("kernel cell width must be an integer multiple of grid's")
        fine, n = refine(self.profile, k), grid.n
        gam = np.pad(fine.values, n)  # gamma, with n zero cells past each end
        at = fine.grid.n // 2 + n - np.arange(-(n - 1), n)  # m - d, shifted by the padding
        w = 0.5 * fine.grid.h**2 * (gam[at - 1] + gam[at])
        # cell i meets the offsets -i..n-1-i, a window of n entries, each
        # summed on its own (a row of the sliding view), with none of the
        # cancellation of a running-sum difference
        interior = sliding_window_view(w, n).sum(axis=1)[::-1]
        ext = np.maximum(grid.h * (fine.values.sum() * fine.grid.h) - interior, 0.0)
        return KernelWeights((False,), w, 1e-14, ext)

    def rearranged(self) -> "StepKernelLine":
        return StepKernelLine(symmetric_decreasing_1d(self.profile))


# ---------------------------------------------------------------------------
# Laplace-transform quadrature


@dataclass(frozen=True)
class LaplaceConfig:
    """Trapezoid-in-log-t rule for integrals of t^(lambda - 1) F(t).

    int_0^inf t^(lambda-1) F(t) dt is approximated by sum_q weight_q
    F(node_q); ``laplace_quadrature`` validated the rule against the exact
    Laplace transform Gamma(lambda) z^(-lambda) of e^(-z t) over the z-range
    it was built for.
    """

    lam: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    achieved: float
    ds: float
    k_lo: int  # node q is exp((k_lo + q) ds)
    # first and last k of the lattice the rule was checked on, shared by
    # every lam of its band (``laplace_quadrature``)
    lattice: tuple[int, int]

    def beyond(self, excess: float) -> float:
        """The rule continued past its window for a profile t^-beta, excess =
        lam - beta (passed in, so that no rounding of lam reaches it): the
        geometric sum ds e^(excess s_end) / expm1(|excess| ds) of its lattice
        nodes below the first node s_end (the head, excess > 0) or above the
        last (the tail, excess < 0); exact where the profile is the power."""
        k_end = self.k_lo if excess > 0.0 else self.k_lo + self.nodes.size - 1
        return self.ds * math.exp(excess * (k_end * self.ds)) / math.expm1(abs(excess) * self.ds)

    def gamma_identity_error(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        approx = np.exp(-np.outer(z, self.nodes)) @ self.weights
        exact = math.gamma(self.lam) * z ** (-self.lam)
        return np.abs(approx / exact - 1.0)


def laplace_window(lam: float, z_min: float, z_max: float, rtol: float) -> tuple[float, float]:
    """Ends (s_left, s_right) in s = log t of the window of ``laplace_quadrature``.

    Sized by the pure-exponential model e^(-z t) on [z_min, z_max] alone:
    the part of each transform left of s_left is below rtol * 1e-3 of
    Gamma(lam) z^-lam, and right of s_right e^(-z_min t) has decayed as far.
    The window never starts below s = -600 nor runs past the point where
    e^(lam s) would overflow.
    """
    eps = rtol * 1e-3
    lgamma = math.lgamma(lam)
    s_left = (math.log(eps * lam) + lgamma) / lam - math.log(z_max)
    big = -math.log(eps) + abs(lgamma) + 5.0
    big += lam * math.log(max(big, 2.0))
    return max(s_left, -600.0), min(math.log(big / z_min), 680.0 / lam)


LAPLACE_MAX_NODES = 200_000  # most nodes of a rule


def laplace_quadrature(
    lam: float,
    z_min: float,
    z_max: float,
    rtol: float = 1e-9,
) -> LaplaceConfig:
    """Build and validate the exp-substitution trapezoid rule.

    The nodes sit on the lattice s = k ds in s = log t, over the window of
    ``laplace_window`` snapped outward to it: k runs from floor(s_left / ds)
    to ceil(s_right / ds).  The trapezoid rule stays exponentially
    convergent on any such lattice, and every lam with the same ds shares
    its node values bit for bit.  A profile with algebraic ends (coef t^-beta
    as t -> 0 or t -> inf) needs the window only where it differs from
    those forms; ``LaplaceConfig.beyond`` sums the rule's own nodes beyond
    the window on them in closed form.  The spacing starts at
    ds = 0.25, where every rule of the seminorm routes passes (none did at
    0.5), and is halved until the Gamma-identity check passes at rtol; a
    rule of more than LAPLACE_MAX_NODES nodes is RangeTooWide.  It never
    depends on earlier calls, so a lam gets the same rule in every process.

    The check compares the rule's transform of e^(-z t), times z^lam =
    exp(lam log z), with Gamma(lam) at 41 geometric points z of [z_min,
    z_max], its largest relative error from the largest and the least
    product.  Its points, kept as log z, and e^(-z t) do not depend on lam: they are kept per band and spacing
    (``_rule_lattice``) on the lattice over the union of the windows of the
    band's ends, b = floor(2 lam) / 2 and b + 1/2; both window ends rise
    with lam in every band from 1/2 up short of the overflow clamp, so every
    lam of such a band shares one lattice (the seminorm routes read it as
    ``lattice``).  A lam whose own window leaves the band's is checked on
    the union of both, built for that call.  A rule takes the slice at its
    nodes times its weights.
    """
    if lam <= 0 or z_min <= 0 or z_max < z_min:
        raise ConfigError("need lam > 0 and 0 < z_min <= z_max")
    band = math.floor(2.0 * lam) / 2.0
    s_left, s_right = laplace_window(lam, z_min, z_max, rtol)
    ds = 0.25
    while True:
        k_lo = math.floor(s_left / ds)
        m = math.ceil(s_right / ds) - k_lo + 1
        if m > LAPLACE_MAX_NODES:
            raise RangeTooWide(
                f"would need {m} nodes for rtol={rtol} on z in [{z_min}, {z_max}]"
            )
        checks = _rule_lattice(z_min, z_max, rtol, band, ds)
        lattice = (min(checks.lattice[0], k_lo), max(checks.lattice[1], k_lo + m - 1))
        if lattice != checks.lattice:  # lam's window leaves its band's
            checks = _lattice_checks(z_min, z_max, ds, *lattice)
        rows = slice(k_lo - lattice[0], k_lo - lattice[0] + m)
        weights = checks.s[rows] * lam
        np.exp(weights, out=weights)
        weights *= ds
        scale = checks.log_z * lam  # z^lam, so that the transform is Gamma(lam) where exact
        np.exp(scale, out=scale)
        scale *= checks.decay[:, rows] @ weights
        exact = math.gamma(lam)
        err = max(float(scale.max()) - exact, exact - float(scale.min())) / exact
        if err <= rtol:
            weights.flags.writeable = False
            return LaplaceConfig(lam, checks.t[rows], weights, err, ds, k_lo, lattice)
        ds *= 0.5


_LatticeChecks = namedtuple("_LatticeChecks", "lattice log_z s t decay")


@lru_cache(maxsize=8)
def _rule_lattice(z_min: float, z_max: float, rtol: float, band: float, ds: float) -> _LatticeChecks:
    """The lam-free part of ``laplace_quadrature`` for every lam of one band
    b (b <= lam < b + 1/2) at spacing ds: ``_lattice_checks`` on the lattice
    over the windows of the band's ends b and b + 1/2 (those above 0)."""
    ends = [laplace_window(x, z_min, z_max, rtol) for x in (band, band + 0.5) if x > 0]
    lo, hi = min(e[0] for e in ends), max(e[1] for e in ends)
    return _lattice_checks(z_min, z_max, ds, math.floor(lo / ds), math.ceil(hi / ds))


def _lattice_checks(z_min: float, z_max: float, ds: float, k_lo: int, k_hi: int) -> _LatticeChecks:
    """The lam-free part of the Gamma-identity check of ``laplace_quadrature``
    on the lattice s_k = k ds, t_k = exp(s_k), k_lo <= k <= k_hi: the
    lattice (k_lo, k_hi), log z at its 41 points z, s, t and e^(-z t), shape
    (41, k_hi - k_lo + 1); read-only."""
    zs = np.geomspace(z_min, z_max, 41)
    s = ds * np.arange(k_lo, k_hi + 1)
    t = np.exp(s)
    return _LatticeChecks(
        (k_lo, k_hi), _frozen(np.log(zs)), _frozen(s), _frozen(t), _frozen(np.exp(-np.outer(zs, t)))
    )
