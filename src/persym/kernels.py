"""Cell-pair kernel weight tables and the Laplace-transform quadrature.

Every double integral in the package reduces to finite sums against tables
W[d] = integral of a convolution kernel over a pair of cells at offset d.
``offset_sums`` owns the offset layout and computes the pair-cost sums that
such tables contract with, each pair's cost once: gathered along periodic
axes, dense and binned by offset along interval ones (a symmetric cost over
half the offsets, mirrored by one gather).  This module builds the tables:

* wrapped Gaussian (periodic heat kernel) and line Gaussian, from one
  erf/erfc antiderivative value per lattice point, with a theta-series dual
  branch for small diffusion time;
* power kernel |z|^(-(1+sigma)) on the line (the all-positive even series
  of its second differences) and its Hurwitz-zeta periodization (explicit
  copies plus the same series summed over the far copies, positive-order
  zeta only, each term an even Taylor series at one point, certified by
  the first omitted terms), built in one pass against sigma-free arrays
  kept per cell count;
* the 2D power kernel |z|^(-(2+sigma)) with x1-periodization: the copies
  near the cell from hat moments per lattice square, over Gauss-Legendre
  panels graded by their distance from the kernel origin, with exact
  corner moments at it, each box four shifted slices of them and the
  copies folded onto |x1|; the far copies as a Hurwitz-zeta polynomial
  series whose box integral separates into one small contraction; all but
  the corner moments is analytic in sigma, so each grid keeps it as a
  certified Chebyshev series, fitted to direct sums at 25 sigmas, and a
  sigma evaluates that series;
* general nonnegative step-function kernels, whose tables are exact
  two-tap averages of the kernel values (and whose rearrangement is again
  a step kernel, so rearranged tables stay exact);
* the exp-substitution trapezoid rule turning t-integrals of
  t^(lambda-1) e^(-zt) into Gamma(lambda) z^(-lambda), its nodes on the
  fixed lattice s = k ds in s = log t, validated against that closed form
  before use through check data kept once per lattice.

Convention: W[0] := 0 for kernels singular at the origin (step-function
energies never see the diagonal because u(x) - u(y) vanishes there).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

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
# certified relative accuracy of the periodized 1D power-kernel table, and
# the accuracy of the 2D power-kernel table (quadrature checked against a
# fixed-order rule, copy tail and Chebyshev fit certified by their bounds)
RIESZ_RTOL = 1e-13
ND_TABLE_ACCURACY = 1e-12


@dataclass(frozen=True)
class KernelWeights:
    """Cell-pair integrals of a 1D convolution kernel, indexed by offset.

    Periodic tables store offsets 0..n-1 (modulo n); interval tables store
    offsets -(n-1)..n-1 in ``weights[d + n - 1]``.  ``exterior[i]`` is the
    kernel mass from cell i to the complement of the grid interval (filled
    for integrable line kernels); ``total_mass`` is the full line integral.
    """

    n: int
    h: float
    periodic: bool
    weights: np.ndarray = field(repr=False)
    accuracy: float = 1e-12
    singular_diagonal: bool = False
    total_mass: float | None = None
    exterior: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        w = _frozen(self.weights)
        expected = self.n if self.periodic else 2 * self.n - 1
        if w.size != expected:
            raise ConfigError(f"weight table needs {expected} entries, got {w.size}")
        object.__setattr__(self, "weights", w)
        if self.exterior is not None:
            object.__setattr__(self, "exterior", _frozen(self.exterior))

    def offset(self, d: int) -> float:
        if self.periodic:
            return float(self.weights[d % self.n])
        if abs(d) >= self.n:
            return 0.0
        return float(self.weights[d + self.n - 1])

    def row_sum(self) -> float:
        """Kernel mass seen from one cell against the whole period."""
        if not self.periodic:
            raise GridMismatch("row_sum is a periodic-table notion")
        return float(self.weights.sum())

    def is_even(self, tol: float = 1e-12) -> bool:
        if self.periodic:
            d = np.arange(1, self.n)
            return bool(
                np.allclose(self.weights[d], self.weights[self.n - d], rtol=tol, atol=0)
            )
        return bool(np.allclose(self.weights, self.weights[::-1], rtol=tol, atol=0))


def _frozen(a, dtype=float) -> np.ndarray:
    """``a`` as a read-only contiguous array: tables and plans are cached and shared."""
    a = np.ascontiguousarray(a, dtype=dtype)
    a.flags.writeable = False
    return a


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

    ``periodic`` holds one flag per axis of ``u``; leading axes of ``v``
    beyond ``len(periodic)`` are batch axes and lead the result.  ``cost``
    is a vectorized binary function (``np.multiply``, or
    ``lambda a, b: j(a - b)``).  Contracting with a table of the same
    layout, ``np.vdot(S, w.weights)``, gives sum_{i,j} cost(u_i, v_j) W[j - i].

    Each pair's cost is taken once.  Periodic partners (axes moved first)
    are gathered by the cached ``_offset_plan`` of the first block of
    offsets, later blocks rolling u by their first offset.  Interval pairs
    are all valid: the cost is taken on the dense cell x partner block,
    summed over the periodic cells and binned to offset slots by one
    ``np.bincount``.  Offsets, and past one offset the rows of the first
    interval axis, come in chunks of at most OFFSET_BLOCK cost elements.

    ``symmetric=True`` asserts S[-d] = S[d], as for u against itself under
    a cost with cost(a, b) = cost(b, a); the code cannot tell this from its
    input.  Then only the offsets 0..n // 2 of the first periodic axis are
    summed, and one gather through the plan's ``mirror`` fills every slot
    of the result from its own or its negated offset.  It takes no batch
    axes.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    periodic = tuple(periodic)
    k = len(periodic)
    if u.ndim != k or v.shape[v.ndim - k :] != u.shape:
        raise GridMismatch(f"cannot pair shapes {u.shape} and {v.shape} on {k} axes")
    if symmetric and v.ndim != k:
        raise GridMismatch(f"symmetric offset sums take no batch axes, got shape {v.shape}")
    p = _offset_plan(u.shape, periodic, v.shape[: v.ndim - k], OFFSET_BLOCK, symmetric)
    cells = u.transpose(p.order).reshape(p.vshape[1:])
    vs = v.transpose(p.v_axes).reshape(p.vshape)
    parts = []
    for s, sel in p.chunks:  # s: the block's first offset, in flat cells
        c = np.roll(cells, s, axis=0) if s else cells
        partners = vs.take(p.idx[sel], axis=1)
        if p.bins is None:  # summed over the cells
            parts.append(cost(c, partners).sum(axis=2))
            continue
        held = partners.shape[0] * partners.shape[1]
        for cut, shift in p.rows:
            pc = cost(c[:, cut, None], partners[..., None, :])
            pc = pc.sum(axis=2) if pc.shape[2] > 1 else pc[:, :, 0]  # over the periodic cells
            at = p.bins[:held, : pc.size // held].ravel()
            got = np.bincount(at, pc.ravel(), held * p.slots).reshape(held, p.slots)
            if shift:  # later rows take the first rows' bins, shifted down
                acc[:, : p.slots - shift] += got[:, shift:]
            else:
                acc = got
                parts.append(got.reshape(partners.shape[0], -1))
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    if p.mirror is not None:
        return out.take(p.mirror)
    return np.ascontiguousarray(out.reshape(p.shape).transpose(p.back))


_OffsetPlan = namedtuple(
    "_OffsetPlan", "order v_axes shape back vshape chunks idx bins rows slots mirror"
)


@lru_cache(maxsize=32)
def _offset_plan(
    shape: tuple, periodic: tuple, batch: tuple, block: int, symmetric: bool
) -> _OffsetPlan:
    """Layout of ``offset_sums`` for one shape, batch, block size and
    symmetry: axis orders with the periodic axes first and ``back``; per
    temporary (``chunks``) its block's first offset in flat cells and its
    rows of ``idx``, the flat cell (i + o) mod n per periodic offset o of the
    first block and periodic cell i; ``bins``, per leading row l and (cell,
    partner) pair of the first ``rows`` chunk of interval rows, the slot
    l * slots + the flat slot of partner - cell (None without interval
    axes).  A symmetric plan covers the first-axis offsets 0..n // 2 only,
    and ``mirror`` holds, per slot of the result in the caller's axis order,
    the flat slot of the sums that holds it or its negated offset (None for
    a full plan).
    """
    k, b, lead = len(shape), len(batch), math.prod(batch)
    order = tuple(sorted(range(k), key=lambda a: not periodic[a]))
    pshape = tuple(shape[a] for a in order if periodic[a])
    ishape = tuple(shape[a] for a in order if not periodic[a])
    ioff = tuple(2 * m - 1 for m in ishape)
    grid = pshape or (1,)  # the periodic cells, one if there are none
    n, cells, pairs, slots = grid[0], math.prod(grid), math.prod(ishape), math.prod(ioff)
    top = n // 2 + 1 if symmetric else n  # first-axis offsets summed
    dense = lead * cells * pairs * pairs  # cost elements of one periodic offset
    chunk = max(1, block // dense)  # periodic offsets per temporary
    rest = cells // n  # flat cells per first-axis cell
    step = min(top, max(1, chunk // rest))  # first-axis offsets per block
    blocks = [(lo * rest, (min(lo + step, top) - lo) * rest) for lo in range(0, top, step)]
    chunks = [(s, slice(r, min(r + chunk, m))) for s, m in blocks for r in range(0, m, chunk)]
    g, j = np.indices((step,) + grid[1:] + grid, sparse=True), len(grid)
    idx = np.ravel_multi_index([g[a] + g[j + a] for a in range(j)], grid, mode="wrap")
    n_rows = ishape[0] if ishape else 1
    rows = min(n_rows, max(1, block * n_rows // dense))  # interval rows per temporary
    bins = None
    if ishape:
        g, j = np.indices((rows,) + ishape[1:] + ishape, sparse=True), len(ishape)
        slot = np.ravel_multi_index([g[j + a] - g[a] + m - 1 for a, m in enumerate(ishape)], ioff)
        held = lead * min(chunk, blocks[0][1])  # leading rows of a temporary
        bins = _frozen(slot.ravel() + slots * np.arange(held)[:, None], np.intp)
    w, down = pairs // n_rows, slots // (2 * n_rows - 1)  # cells and slots of a row
    back = tuple(range(b)) + tuple(b + order.index(a) for a in range(k))
    mirror = None
    if symmetric:  # the slot of -d: -d mod m on a periodic axis, 2 m - 2 - slot on an interval one
        g, j = np.indices(pshape + ioff, sparse=True), len(pshape)
        neg = [-x % m for x, m in zip(g, pshape)] + [2 * m - 2 - x for x, m in zip(g[j:], ishape)]
        up = g[0] > n // 2 if pshape else False
        half = (top,) + pshape[1:] + ioff if pshape else ioff
        at = np.ravel_multi_index([np.where(up, y, x) for x, y in zip(g, neg)], half)
        mirror = np.ascontiguousarray(at.transpose(back))  # writeable, as idx
    return _OffsetPlan(
        order=order,
        v_axes=tuple(range(b)) + tuple(b + a for a in order),
        shape=batch + pshape + ioff,  # of the sums, periodic axes first
        back=back,
        vshape=(lead, cells) + (pairs,) * bool(ishape),
        chunks=tuple(chunks),
        idx=idx.reshape(-1, cells),  # writeable: ``take`` copies a read-only index
        bins=bins,
        rows=tuple((slice(a * w, (a + rows) * w), a * down) for a in range(0, n_rows, rows)),
        slots=slots,
        mirror=mirror,
    )


def check_kernel_monotone(w: KernelWeights) -> bool:
    """True iff W[d] strictly decreases in circle distance on (0, N/2].

    Runtime guard for equality-case analysis: the theorems' hypotheses need
    the kernel decreasing away from the origin, which this verifies on the
    table instead of assuming.
    """
    seq = w.weights[1 : w.n // 2 + 1] if w.periodic else w.weights[w.n - 1 :]
    return bool(np.all(np.diff(seq) < 0))


# ---------------------------------------------------------------------------
# wrapped Gaussian (periodic heat kernel)


@dataclass(frozen=True)
class HeatKernelParams:
    t: float
    tail_rtol: float = 1e-15

    def __post_init__(self):
        if not self.t > 0:
            raise NonpositiveTime(f"diffusion time must be positive, got {self.t}")


def heat_kernel_periodic(z, params: HeatKernelParams | float):
    """Wrapped Gaussian sum_k exp(-(z + 2 pi k)^2 t), dual representation.

    Direct Gaussian-copy sum for t >= 1/(4 pi^2), Fourier (theta) series
    (1 / (2 sqrt(pi t))) * (1 + 2 sum_m exp(-m^2/(4t)) cos(m z)) below it;
    both branches agree to ~1e-13 relative at the crossover.
    """
    if not isinstance(params, HeatKernelParams):
        params = HeatKernelParams(float(params))
    t, rtol = params.t, params.tail_rtol
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
        series = 1.0 + 2.0 * (
            np.exp(-(m**2) / (4.0 * t))[None, :] * np.cos(m[None, :] * zr[:, None])
        ).sum(axis=1)
        out = series / (2.0 * math.sqrt(math.pi * t))
    return float(out[0]) if scalar else out


def _e2(z, t, erfc: bool) -> np.ndarray:
    """Antiderivative E2 with E2'' = exp(-z^2 t), E2(0) = 0, and its erfc complement.

    The erf form z a erf(z sqrt t) + expm1(-z^2 t) / (2t), a = sqrt(pi) / (2
    sqrt t), is of size O(z^2) while z sqrt t stays below 1; the complement
    drops the affine part z a, leaving terms that are all Gaussian-small far
    out.  Second differences of either form are the same.
    """
    a = SQRT_PI / (2.0 * np.sqrt(t))
    if erfc:
        return np.expm1(-(z**2) * t) / (2.0 * t) - z * a * special.erfc(z * np.sqrt(t))
    return z * a * special.erf(z * np.sqrt(t)) + np.expm1(-(z**2) * t) / (2.0 * t)


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
    rtol = 1e-15  # relative size of the copy or theta terms left out
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
        terms[:, 1 : mmax + 1] = np.exp(-(m**2) / (4.0 * tb)) * (4.0 / m**2) * np.sin(
            m * h / 2.0
        ) ** 2
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
    if not t > 0:
        raise NonpositiveTime(f"diffusion time must be positive, got {t}")
    table = _heat_table_batch(grid.n, grid.h, np.array([t]))[0]
    return KernelWeights(grid.n, grid.h, True, table, accuracy=1e-12)


# ---------------------------------------------------------------------------
# line Gaussian


def _erfc_antideriv(u) -> np.ndarray:
    """A(u) = integral of erfc from 0 to u = u erfc(u) + (1 - exp(-u^2))/sqrt(pi)."""
    u = np.asarray(u, dtype=float)
    return u * special.erfc(u) - np.expm1(-(u**2)) / SQRT_PI


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
        upper = _erfc_antideriv((hi - b[:-1]) * st) - _erfc_antideriv((hi - b[1:]) * st)
        lower = _erfc_antideriv((b[1:] - lo) * st) - _erfc_antideriv((b[:-1] - lo) * st)
        table[i : i + step] = _gauss_lattice(grid.h, t[:, 0], grid.n - 1)[:, d]
        ext[i : i + step] = (SQRT_PI / (2.0 * t)) * (upper + lower)
    return table, ext


@lru_cache(maxsize=128)
def gaussian_weights_interval(grid: Grid1D, t: float) -> KernelWeights:
    """Cell-pair integrals of exp(-r^2 t) on an interval grid, with tails (cached)."""
    if grid.periodic:
        raise GridMismatch("gaussian_weights_interval needs an interval grid")
    if not t > 0:
        raise NonpositiveTime(f"diffusion time must be positive, got {t}")
    table, ext = _gauss_tables_batch(grid, [t])
    return KernelWeights(
        grid.n,
        grid.h,
        False,
        table[0],
        accuracy=1e-12,
        total_mass=math.sqrt(math.pi / t),
        exterior=ext[0],
    )


# ---------------------------------------------------------------------------
# power kernel |z|^-(1+sigma) on the line and 2 pi periodized


def _check_sigma(sigma: float) -> None:
    if sigma >= 1.0:
        raise StepFunctionDivergence(
            f"sigma={sigma}: adjacent-cell weights diverge; step functions "
            "genuinely have infinite energy for sigma >= 1"
        )
    if not 0.0 < sigma < 1.0:
        raise SigmaOutOfRange(f"sigma must lie in (0, 1), got {sigma}")


def _riesz_series(a: float, terms: int) -> np.ndarray:
    """q_k = prod_{j=2}^{2k-1} (j - a) / (2k)!, k = 1..terms, all positive for a < 2.

    The pair weight of |x - y|^(-(1+sigma)) at cell offset m, a = 1 - sigma,
    is the second difference c (P(z+h) - 2 P(z) + P(z-h)) at z = m h of
    P(r) = r^a, c = 1 / (sigma (sigma - 1)); its even Taylor series
    2 sum_k h^(2k) P^(2k)(z) / (2k)! becomes 2 h^a sum_k q_k m^(a - 2k),
    since c a (a - 1) = 1.
    """
    k = np.arange(2, terms + 1)
    ratio = (2 * k - 2 - a) * (2 * k - 1 - a) / ((2 * k - 1) * (2 * k))
    return 0.5 * np.cumprod(np.concatenate(([1.0], ratio)))


def _line_powers(mmax: int) -> tuple[int, tuple]:
    """The sigma-free part of ``_riesz_line_pairs`` up to offset mmax: mmax,
    and per block (lo, hi) of the offsets 2 <= m <= mmax the offsets m and
    the powers (1 / m^2)^i of its series (read-only)."""
    blocks = []
    for lo, hi, terms in ((2, min(40, mmax + 1), 30), (40, mmax + 1, 5)):
        if lo < hi:
            m = np.arange(lo, hi, dtype=float)
            blocks.append((lo, hi, _frozen(m), _frozen((1.0 / (m * m))[:, None] ** np.arange(terms))))
    return mmax, tuple(blocks)


def _riesz_line_pairs(line: tuple[int, tuple], h: float, sigma: float) -> np.ndarray:
    """Pair weights L[m] of |x - y|^(-(1+sigma)) at cell offsets m = 0..mmax,
    L[0] = 0, from ``line`` = ``_line_powers(mmax)``.

    L[1] = 2 h^a (1 - 2^-sigma) / (sigma (1 - sigma)) in closed form, and
    L[m] for m >= 2 the all-positive series 2 h^a sum_k q_k m^(a - 2k) of
    ``_riesz_series``: 30 terms below m = 40, 5 from there, the first
    omitted term below 2e-17 relative at m = 2 and 40.  No term cancels, so
    the weights hold a few ulps at every sigma.
    """
    mmax, blocks = line
    a = 1.0 - sigma
    q = _riesz_series(a, 30)
    out = np.zeros(mmax + 1)
    if mmax >= 1:
        out[1] = 2.0 * -math.expm1(-sigma * math.log(2.0)) / (sigma * (1.0 - sigma))
    for lo, hi, m, powers in blocks:
        out[lo:hi] = 2.0 * m ** (a - 2.0) * (powers @ q[: powers.shape[1]])
    return out * h**a


# copies -RIESZ_NEAR <= k < RIESZ_NEAR of the periodized 1D table are summed
# explicitly, the others by the Hurwitz-zeta series, each of its terms by
# RIESZ_TAYLOR even Taylor terms
RIESZ_NEAR = 4
RIESZ_TAYLOR = 10
# rounding floor of the periodized 1D table's certificate: the largest
# error measured against 40-digit Hurwitz-zeta values, 1.2e-15 (n from 2
# to 4096, sigma from 0.02 to 0.98), with room to spare
RIESZ_ROUNDING = 4e-15


@lru_cache(maxsize=8)
def _periodized_plan(n: int, taylor: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """The sigma-free part of the periodized 1D table on n cells (read-only).

    The line powers ``_line_powers`` of the offsets up to RIESZ_NEAR n - 1;
    per offset d = 1..n-1, the line offsets |d + k n| of its explicit copies,
    -RIESZ_NEAR <= k < RIESZ_NEAR; and the far-copy matrix, shape
    (2, n - 1, J + M + 1) in the notation of ``riesz_weights_1d``, M =
    ``taylor``: per order j, the sum over the series terms (k, m) with
    k + m = j of C(2j, 2m) n^(-2k) y^(2m), y = d / n - 1/2, over the terms
    the table keeps (k <= J, m < M) in row 0, and in row 1 over the terms
    that bound the rest, each with its factor: 2 for the first omitted zeta
    term (k = J + 1), and 1 / (1 - rho_k) for each Taylor tail (m = M),
    rho_k = (2k + 2M)(2k + 2M + 1) / ((2M + 1)(2M + 2) 4 x^2), the ratio
    bound at s <= 2k and y^2 <= 1/4.
    """
    d = np.arange(1, n)
    near = np.abs(d[:, None] + n * np.arange(-RIESZ_NEAR, RIESZ_NEAR))
    terms = math.ceil(17.0 / (2.0 * math.log10(n * RIESZ_NEAR))) + 1
    k = np.arange(1, terms + 2)[:, None]
    m = np.arange(taylor + 1)
    top = 2.0 * (k + taylor)
    rho = top * (top + 1.0) / ((2 * taylor + 1) * (2 * taylor + 2) * 4.0 * (RIESZ_NEAR + 0.5) ** 2)
    omitted = k == terms + 1
    c = special.comb(2 * (k + m), 2 * m) * float(n) ** (-2.0 * k)
    factors = (
        np.where(~omitted & (m < taylor), 1.0, 0.0),
        np.where(m < taylor, 2.0 * omitted, (1.0 + omitted) / (1.0 - rho)),
    )
    by_order = np.zeros((2, taylor + 1, terms + taylor + 1))  # [row, m, j - 1]
    for row, f in enumerate(factors):
        by_order[row, m, k + m - 1] = f * c
    ypow = ((d / n - 0.5) ** 2)[:, None] ** m
    line = _line_powers(RIESZ_NEAR * n - 1)
    return line, _frozen(near, np.intp), _frozen(ypow @ by_order)


def riesz_weights_1d(grid: Grid1D, sigma: float, periodized: bool) -> KernelWeights:
    """Cell-pair weights of |x - y|^(-(1+sigma)), optionally 2 pi periodized.

    W[0] is 0 by the singular-diagonal convention; the line weights are
    ``_riesz_line_pairs``.  Periodization sums the copies at offsets
    d + k n, -K <= k < K = RIESZ_NEAR, explicitly, and closes the far copies
    in one pass by summing the same series over them, with Hurwitz zeta of
    positive order only:
    W[d] += 2 h^a sum_{k <= J} q_k n^(a - 2k) (Z_k[d] + Z_k[n - d]),
    Z_k[j] = zeta(2k - a, K + j / n), J = ceil(17 / (2 log10(n K))) + 1.
    Successive terms fall by at least (n K)^2 >= 16, so twice the first
    omitted term bounds the rest.

    With x = K + 1/2 and y = d / n - 1/2, the pair Z_k[d] + Z_k[n - d] is
    zeta(s, x + y) + zeta(s, x - y), s = 2k - a, whose even Taylor series
    2 sum_m (s)_2m / (2m)! zeta(s + 2m, x) y^(2m) (d/dx zeta(s, x) =
    -s zeta(s + 1, x)) has positive terms only.  Term m + 1 is at most
    (s + 2m)(s + 2m + 1) / ((2m + 1)(2m + 2)) y^2 / x^2 times term m, a ratio
    that falls with m, so the first omitted term M = RIESZ_TAYLOR over one
    minus that ratio at m = M bounds the rest.  Since q_k (s)_2m / (2m)! =
    q_j C(2j, 2m), j = k + m, the far copies are
    4 (h n)^a sum_j q_j zeta(2j - a, x) F[d, j], and the bound the same sum
    over another matrix; ``_periodized_plan`` keeps both per n, with the
    line powers of the near copies, so a build takes one zeta call at x on
    the orders 2j - a.  ``accuracy`` is that bound, relative to each entry,
    plus the rounding floor RIESZ_ROUNDING.
    """
    _check_sigma(sigma)
    n, h = grid.n, grid.h
    if not periodized:
        line = _riesz_line_pairs(_line_powers(n - 1), h, sigma)
        w = np.concatenate((line[:0:-1], line))
        return KernelWeights(n, h, False, w, accuracy=1e-14, singular_diagonal=True)
    if not grid.periodic:
        raise GridMismatch("periodized Riesz weights need a periodic grid")
    a = 1.0 - sigma
    line, near, far_plan = _periodized_plan(n, RIESZ_TAYLOR)
    w = _riesz_line_pairs(line, h, sigma)[near].sum(axis=1)
    j = np.arange(1, far_plan.shape[2] + 1)
    series = _riesz_series(a, j.size) * special.zeta(2.0 * j - a, RIESZ_NEAR + 0.5)
    far, bound = far_plan @ (4.0 * h**a * float(n) ** a * series)
    w += far
    accuracy = float(np.max(bound / w, initial=0.0)) + RIESZ_ROUNDING
    w = np.concatenate(([0.0], w))
    return KernelWeights(n, h, True, w, accuracy=accuracy, singular_diagonal=True)


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
# degree in mu of the 2D table's Chebyshev fit, and rho of the Bernstein
# ellipse that certifies it: the ellipse's real ends, mu = 1.25 -+ (rho +
# 1/rho) / 8 = 0.6 and 1.9, stay above 1/2, where the copy-tail series converges
FIT_DEGREE = 24
FIT_RHO = 5.0


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
    zeta = special.zeta(2.0 * mu + 2.0 * j, copies + 1.0)
    c = 2.0 * by_a * by_b * zeta[np.minimum(half, top)]
    return np.where(half < top, c, 0.0), np.where(half == top, np.abs(c), 0.0)


@dataclass(frozen=True)
class NDKernelWeights:
    """x1-periodized 2D power-kernel weights plus analytic exterior masses.

    ``weights[d1, d2 + n2 - 1]`` is the pair weight at offset (d1 mod n1, d2);
    ``exterior[i2]`` is the kernel mass from any cell in column i2 to the
    region outside the x2 box (x1 integrated over one period of x and all
    copies of y).
    """

    n1: int
    h1: float
    n2: int
    h2: float
    sigma: float
    weights: np.ndarray = field(repr=False)
    exterior: np.ndarray = field(repr=False)
    accuracy: float = ND_TABLE_ACCURACY

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(self.weights))
        object.__setattr__(self, "exterior", _frozen(self.exterior))


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


_NDFit = namedtuple("_NDFit", "coef log_r2 corner corner_rule cells to_hi to_lo bound")


@lru_cache(maxsize=8)
def _nd_fit(grid1: Grid1D, grid2: Grid1D) -> _NDFit:
    """The sigma-free part of ``riesz_weights_nd``, once per grid (read-only).

    With r the distance of a sector offset's centre from the kernel origin,
    F(mu) = r^(2 mu) ``_nd_direct``(mu) varies slowly in mu.  It is sampled
    at the N + 1 = FIT_DEGREE + 1 Chebyshev points mu_j = 1.25 +
    cos(pi j / N) / 4 of [1, 1.5] and kept as its interpolant's
    coefficients, F = sum_k a_k T_k(x) with x = 4 mu - 5 = 2 sigma - 1
    (``coef``, one row per offset), beside log r^2, the corner weights of
    the plan, ``_corner_rule``, the flat indices of the four table
    cells that each sector offset fills by symmetry, and the distances of
    grid2's cell edges to its upper and lower end, which the closed-form
    exterior masses take to the power 1 - sigma.

    The certificate: F, with the exact copy tail, is a positive combination
    of exp(-mu (log r'^2 - log r^2)) over points r', so at complex mu
    |F(mu)| <= F(Re mu), a convex function of Re mu.  On the Bernstein
    ellipse of [1, 1.5] with rho = FIT_RHO, |F| is therefore at most its
    larger value M at the ellipse's two real ends, there evaluated directly
    plus the truncation bound, and the interpolant of F errs by at most
    4 M rho^(-N) / (rho - 1) (Trefethen, Approximation Theory and
    Approximation Practice, Thm 8.2).  The samples carry the copy tails'
    truncation, which interpolation spreads by at most the Lebesgue constant
    2 / pi log(N + 1) + 1 (Thm 15.2).  ``bound`` is the largest sum of both,
    relative to the offset's least sample; above ND_TABLE_ACCURACY the grid
    raises RangeTooWide.
    """
    n1, h1, n2, h2 = grid1.n, grid1.h, grid2.n, grid2.h
    plan = _nd_plan(n1, h1, n2, h2)
    d1, d2 = _nd_sector(n1, n2)
    log_r2 = np.log((d1 * h1) ** 2 + (d2 * h2) ** 2)
    j = np.arange(FIT_DEGREE + 1)
    mus = 1.25 + 0.25 * np.cos(math.pi / FIT_DEGREE * j)
    samples = np.array([_nd_direct(plan, mu) for mu in mus])  # (point, 2, offset)
    values, truncation = (samples * np.exp(np.outer(mus, log_r2))[:, None]).transpose(1, 0, 2)
    # the type-I DCT of the samples; j k is reduced mod 2N before the cosine,
    # whose argument would otherwise lose up to 6 bits
    half = np.where((j == 0) | (j == FIT_DEGREE), 0.5, 1.0)
    dct = np.cos(math.pi / FIT_DEGREE * (np.outer(j, j) % (2 * FIT_DEGREE)))
    coef = (values.T * half) @ dct * (2.0 / FIT_DEGREE * half)
    reach = 0.125 * (FIT_RHO + 1.0 / FIT_RHO)  # the ellipse's half-length in mu
    peak = np.max([np.exp(mu * log_r2) * np.sum(_nd_direct(plan, mu), axis=0)
                   for mu in (1.25 - reach, 1.25 + reach)], axis=0)
    lebesgue = 2.0 / math.pi * math.log(FIT_DEGREE + 1) + 1.0
    error = 4.0 * peak / ((FIT_RHO - 1.0) * FIT_RHO**FIT_DEGREE) + lebesgue * truncation.max(axis=0)
    bound = float(np.max(error / values.min(axis=0), initial=0.0))  # no offsets on 1 x 1
    if bound > ND_TABLE_ACCURACY:
        raise RangeTooWide(f"2D table fit would not certify rtol={ND_TABLE_ACCURACY}")
    # (d1 or -d1, d2 or -d2) in weights[d1 mod n1, d2 + n2 - 1]
    rows = np.stack((d1, (n1 - d1) % n1))[:, None]
    cells = rows * (2 * n2 - 1) + (n2 - 1 + np.stack((d2, -d2)))
    corner_rule = _corner_rule(min(h1, h2))
    b = grid2.boundaries()
    return _NDFit(
        _frozen(coef), _frozen(log_r2), plan.corner, corner_rule, _frozen(cells, np.intp),
        _frozen(grid2.hi - b), _frozen(b - grid2.lo), bound,
    )


def riesz_weights_nd(grid1: Grid1D, grid2: Grid1D, sigma: float) -> NDKernelWeights:
    """Pair weights of |x - y|^(-(2+sigma)) with periodized x1, analytic tails.

    Offsets are computed for one symmetry sector and reflected (the kernel
    is even in each coordinate and the x1 copies are symmetric).  Each
    sector entry is the Gauss-Legendre quadrature of the boxes of the x1
    copies k in [-K, K] near the cell, K chosen per grid (``_tail_copies``),
    plus a Hurwitz-zeta series for the copies past both ends
    (``_nd_direct``), plus exact corner moments at the kernel origin.  All
    but the corner moments is analytic in mu = 1 + sigma / 2, and
    ``_nd_fit`` keeps it once per grid as a Chebyshev series in mu,
    certified within ND_TABLE_ACCURACY.  A build for one sigma evaluates
    that series, T_k(2 sigma - 1) = cos(k arccos(2 sigma - 1)) times the
    coefficients, undoes the scaling by r^(2 mu) with one exponential per
    offset, adds the corner moments (two exponentials per angle node), and
    reflects the sector.
    """
    _check_sigma(sigma)
    if not grid1.periodic or grid2.periodic:
        raise GridMismatch("riesz_weights_nd needs (periodic, interval) axes")
    n1, h1 = grid1.n, grid1.h
    n2, h2 = grid2.n, grid2.h
    mu = (2.0 + sigma) / 2.0
    fit = _nd_fit(grid1, grid2)
    cheb = np.cos(math.acos(2.0 * sigma - 1.0) * np.arange(fit.coef.shape[1]))
    total = np.exp(-mu * fit.log_r2) * (fit.coef @ cheb)
    total += fit.corner @ _corner_moments(fit.corner_rule, sigma)
    w = np.zeros(n1 * (2 * n2 - 1))
    w[fit.cells] = total
    kappa = SQRT_PI * special.gamma(mu - 0.5) / special.gamma(mu)
    up = fit.to_hi[:-1] ** (1.0 - sigma) - fit.to_hi[1:] ** (1.0 - sigma)
    lo = fit.to_lo[1:] ** (1.0 - sigma) - fit.to_lo[:-1] ** (1.0 - sigma)
    ext = h1 * (kappa / (sigma * (1.0 - sigma))) * (up + lo)
    return NDKernelWeights(n1, h1, n2, h2, sigma, w.reshape(n1, 2 * n2 - 1), ext)


# ---------------------------------------------------------------------------
# step-function kernels: exact tables, exact rearranged tables


def step_kernel_table(kernel: StepFunction) -> KernelWeights:
    """Exact cell-pair weights of a step-function kernel on its own grid.

    The pair offset z = x - y spreads over two kernel cells with triangular
    density, so W[d] = (h^2/2) (gamma[m - d - 1] + gamma[m - d]) with
    m = n/2; an even cell count keeps z = 0 on a cell boundary.
    """
    g = kernel.grid
    if g.n % 2 != 0:
        raise ConfigError("step kernels need an even cell count")
    gam = kernel.values
    m = g.n // 2
    if g.periodic:
        idx = np.arange(g.n)
        w = 0.5 * g.h**2 * (gam[(m - idx - 1) % g.n] + gam[(m - idx) % g.n])
        return KernelWeights(g.n, g.h, True, w, accuracy=1e-15)
    d = np.arange(-(g.n - 1), g.n)

    def gam_at(j):
        j = np.asarray(j)
        inside = (j >= 0) & (j < g.n)
        return np.where(inside, gam[np.clip(j, 0, g.n - 1)], 0.0)

    w = 0.5 * g.h**2 * (gam_at(m - d - 1) + gam_at(m - d))
    return KernelWeights(
        g.n, g.h, False, w, accuracy=1e-15, total_mass=float(gam.sum()) * g.h
    )


# ---------------------------------------------------------------------------
# kernel families: tables on any compatible grid, with exact rearrangements


class CircleKernel:
    """2 pi periodic kernel able to produce weights on any periodic grid."""

    name: str = "kernel"

    def weights(self, grid: Grid1D) -> KernelWeights:
        raise NotImplementedError

    def rearranged(self) -> "CircleKernel":
        raise NotImplementedError


@dataclass(frozen=True)
class HeatKernel(CircleKernel):
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
class PeriodizedRieszKernel(CircleKernel):
    """Periodized power kernel with the zero-diagonal convention.

    Symmetric decreasing away from the origin (the periodization of a convex
    decreasing profile), so it is its own rearrangement; the table's W[0] = 0
    convention makes it suitable for seminorms and perimeters, where the
    diagonal never contributes, not for pair energies of distinct functions
    (those are genuinely infinite for this kernel).
    """

    sigma: float

    @property
    def name(self) -> str:
        return f"riesz:sigma={self.sigma:g}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        return riesz_weights_1d(grid, self.sigma, periodized=True)

    def rearranged(self) -> "PeriodizedRieszKernel":
        return self


@dataclass(frozen=True)
class StepKernelCircle(CircleKernel):
    """Nonnegative periodic step kernel; rearranging it is exact sorting."""

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
        if grid.n % self.profile.grid.n != 0:
            raise GridMismatch(
                f"grid n={grid.n} does not refine the kernel grid "
                f"n={self.profile.grid.n}"
            )
        return step_kernel_table(refine(self.profile, grid.n // self.profile.grid.n))

    def rearranged(self) -> "StepKernelCircle":
        return StepKernelCircle(periodic_rearrange_1d(self.profile))


class LineKernel:
    """Integrable line kernel for Euclidean energies."""

    name: str = "kernel"

    def weights(self, grid: Grid1D) -> KernelWeights:
        raise NotImplementedError

    def rearranged(self) -> "LineKernel":
        raise NotImplementedError


@dataclass(frozen=True)
class GaussianKernel(LineKernel):
    t: float

    @property
    def name(self) -> str:
        return f"gauss:t={self.t:g}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        return gaussian_weights_interval(grid, self.t)

    def rearranged(self) -> "GaussianKernel":
        return self


@dataclass(frozen=True)
class StepKernelLine(LineKernel):
    """Compactly supported step kernel on a centered interval grid."""

    profile: StepFunction

    def __post_init__(self):
        g = self.profile.grid
        if g.periodic or g.n % 2 != 0 or not math.isclose(g.lo, -g.hi):
            raise ConfigError("line step kernel needs an even, centered profile grid")

    @property
    def name(self) -> str:
        return f"step-line:n={self.profile.grid.n}"

    def weights(self, grid: Grid1D) -> KernelWeights:
        ratio = self.profile.grid.h / grid.h
        k = round(ratio)
        if k < 1 or not math.isclose(ratio, k, rel_tol=1e-12):
            raise GridMismatch("kernel cell width must be an integer multiple of grid's")
        base = step_kernel_table(refine(self.profile, k))
        d = np.arange(-(grid.n - 1), grid.n)
        w = np.array([base.offset(int(dd)) for dd in d])
        interior = np.array(
            [w[np.arange(grid.n) - i + grid.n - 1].sum() for i in range(grid.n)]
        )
        ext = np.maximum(grid.h * base.total_mass - interior, 0.0)
        return KernelWeights(
            grid.n,
            grid.h,
            False,
            w,
            accuracy=1e-14,
            total_mass=base.total_mass,
            exterior=ext,
        )

    def rearranged(self) -> "StepKernelLine":
        return StepKernelLine(symmetric_decreasing_1d(self.profile))


# ---------------------------------------------------------------------------
# Laplace-transform quadrature


@dataclass(frozen=True)
class LaplaceConfig:
    """Trapezoid-in-log-t rule for integrals of t^(lambda - 1) F(t).

    ``apply(F_values)`` approximates int_0^inf t^(lambda-1) F(t) dt by
    sum_q weight_q F(node_q); the constructor validated the rule against
    the exact Laplace transform Gamma(lambda) z^(-lambda) of e^(-z t) over
    the declared z-range.
    """

    lam: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    z_min: float
    z_max: float
    rtol: float
    achieved: float
    ds: float = 0.0
    k_lo: int = 0  # node q is exp((k_lo + q) ds)
    # first and last k of the lattice the rule was checked on, shared by
    # every lam of its band (``laplace_quadrature``)
    lattice: tuple[int, int] = (0, -1)

    def apply(self, fvals: np.ndarray) -> float:
        return float(self.weights @ fvals)

    def algebraic_tail(self, coef: float, beta: float) -> float:
        """Continue the trapezoid past the last node for F(t) ~ coef t^-beta.

        Geometric sum of the rule's own nodes beyond the window; exact when
        the profile has settled onto its algebraic tail there (beta > lam).
        """
        alpha = (self.lam - beta) * self.ds
        if alpha >= 0:
            raise ConfigError("algebraic tail needs beta > lam")
        s_max = math.log(self.nodes[-1])
        q = math.exp(alpha)
        return coef * self.ds * math.exp((self.lam - beta) * s_max) * q / (1.0 - q)

    def algebraic_head(self, coef: float, beta: float) -> float:
        """Continue the trapezoid before the first node for F(t) ~ coef t^-beta.

        Geometric sum of the rule's nodes below the window; exact when the
        profile is on its small-t algebraic branch there (beta < lam).
        """
        alpha = (self.lam - beta) * self.ds
        if alpha <= 0:
            raise ConfigError("algebraic head needs beta < lam")
        s_min = math.log(self.nodes[0])
        q = math.exp(-alpha)
        return coef * self.ds * math.exp((self.lam - beta) * s_min) * q / (1.0 - q)

    def gamma_identity_error(self, z) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=float))
        approx = np.exp(-np.outer(z, self.nodes)) @ self.weights
        exact = special.gamma(self.lam) * z ** (-self.lam)
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


def laplace_quadrature(
    lam: float,
    z_min: float,
    z_max: float,
    rtol: float = 1e-9,
    max_nodes: int = 200_000,
) -> LaplaceConfig:
    """Build and validate the exp-substitution trapezoid rule.

    The nodes sit on the lattice s = k ds in s = log t, over the window of
    ``laplace_window`` snapped outward to it: k runs from floor(s_left / ds)
    to ceil(s_right / ds).  The trapezoid rule stays exponentially
    convergent on any such lattice, and every lam with the same ds shares
    its node values bit for bit.  A profile with algebraic ends (coef t^-beta
    as t -> 0 or t -> inf) needs the window only where it differs from
    those forms; ``algebraic_head`` and ``algebraic_tail`` sum the rule's own
    nodes beyond the window on them in closed form.  The spacing starts at
    ds = 0.25, where every rule of the seminorm routes passes (none did at
    0.5), and is halved until the Gamma-identity check passes at rtol, else
    RangeTooWide.  It never depends on earlier calls, so a lam gets the same
    rule in every process.

    The check compares the rule's transform of e^(-z t) with Gamma(lam)
    z^-lam at 41 geometric points z of [z_min, z_max].  Its points and
    e^(-z t) do not depend on lam: they are kept per lattice
    (``_rule_lattice``), over the union of the windows of the band's ends,
    b = floor(2 lam) / 2 and b + 1/2, and of lam's own; both window ends
    rise with lam in every band from 1/2 up short of the overflow clamp, so
    every lam of such a band shares one lattice (the seminorm routes read it
    as ``lattice``).  A rule takes the slice at its nodes times its weights.
    """
    if lam <= 0 or z_min <= 0 or z_max < z_min:
        raise ConfigError("need lam > 0 and 0 < z_min <= z_max")
    band = math.floor(2.0 * lam) / 2.0
    ends = [laplace_window(x, z_min, z_max, rtol) for x in (band, band + 0.5, lam) if x > 0]
    s_left, s_right = ends[-1]
    lo, hi = min(e[0] for e in ends), max(e[1] for e in ends)
    ds = 0.25
    while True:
        k_lo = math.floor(s_left / ds)
        m = math.ceil(s_right / ds) - k_lo + 1
        if m > max_nodes:
            raise RangeTooWide(
                f"would need {m} nodes for rtol={rtol} on z in [{z_min}, {z_max}]"
            )
        lattice = (math.floor(lo / ds), math.ceil(hi / ds))
        zs, t, decay = _rule_lattice(z_min, z_max, ds, *lattice)
        rows = slice(k_lo - lattice[0], k_lo - lattice[0] + m)
        weights = ds * np.exp(lam * (ds * np.arange(k_lo, k_lo + m)))
        exact = special.gamma(lam) * zs ** (-lam)
        err = float(np.abs(decay[:, rows] @ weights / exact - 1.0).max())
        if err <= rtol:
            return LaplaceConfig(
                lam, t[rows], _frozen(weights), z_min, z_max, rtol, err, ds, k_lo, lattice
            )
        ds *= 0.5


@lru_cache(maxsize=8)
def _rule_lattice(z_min: float, z_max: float, ds: float, k_lo: int, k_hi: int):
    """The lam-free part of the Gamma-identity check of ``laplace_quadrature``
    on the lattice t_k = exp(k ds), k_lo <= k <= k_hi: its 41 points z, the
    lattice t and e^(-z t), shape (41, k_hi - k_lo + 1); read-only."""
    zs = np.geomspace(z_min, z_max, 41)
    t = np.exp(ds * np.arange(k_lo, k_hi + 1))
    return _frozen(zs), _frozen(t), _frozen(np.exp(-np.outer(zs, t)))
