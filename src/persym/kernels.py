"""Cell-pair kernel weight tables and the Laplace-transform quadrature.

Every double integral in the package reduces to finite sums against tables
W[d] = integral of a convolution kernel over a pair of cells at offset d.
``offset_sums`` owns the offset layout and computes the pair-cost sums that
such tables contract with.  This module builds the tables:

* wrapped Gaussian (periodic heat kernel) and line Gaussian, from one
  erf/erfc antiderivative value per lattice point, with a theta-series dual
  branch for small diffusion time;
* power kernel |z|^(-(1+sigma)) on the line (closed-form second
  antiderivative) and its periodization (explicit copies plus an
  Euler-Maclaurin tail with analytic derivatives, certified by the
  next-term bound);
* the 2D power kernel |z|^(-(2+sigma)) with x1-periodization, where the
  singular near-offsets are integrated exactly in the radial variable and
  by Gauss-Legendre in the angle;
* general nonnegative step-function kernels, whose tables are exact
  two-tap averages of the kernel values (and whose rearrangement is again
  a step kernel, so rearranged tables stay exact);
* the exp-substitution trapezoid rule turning t-integrals of
  t^(lambda-1) e^(-zt) into Gamma(lambda) z^(-lambda), validated against
  that closed form before use.

Convention: W[0] := 0 for kernels singular at the origin (step-function
energies never see the diagonal because u(x) - u(y) vanishes there).
"""

from __future__ import annotations

import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
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
# the self-convergence-checked accuracy of the 2D power-kernel table
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
        w = np.ascontiguousarray(self.weights, dtype=float)
        expected = self.n if self.periodic else 2 * self.n - 1
        if w.size != expected:
            raise ConfigError(f"weight table needs {expected} entries, got {w.size}")
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

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


# largest pair temporary of offset_sums, in elements
OFFSET_BLOCK = 1 << 18


def offset_sums(u, v, cost, periodic) -> np.ndarray:
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

    The partners of all offsets are one strided window view of ``v``
    extended past its ends (wrapped on periodic axes, zero-padded on
    interval axes); inputs with more than OFFSET_BLOCK cell pairs take the
    first axis's offsets in blocks so that no temporary exceeds that many
    elements (unless a single offset does).
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    k = len(periodic)
    if u.ndim != k or v.shape[v.ndim - k :] != u.shape:
        raise GridMismatch(f"cannot pair shapes {u.shape} and {v.shape} on {k} axes")
    first = v.ndim - k
    ext, keep = v, None
    for a, (n, per) in enumerate(zip(u.shape, periodic)):
        ax = first + a
        if per:
            ext = np.concatenate((ext, ext.take(range(n - 1), axis=ax)), axis=ax)
            continue
        zeros = np.zeros(ext.shape[:ax] + (n - 1,) + ext.shape[ax + 1 :])
        ext = np.concatenate((zeros, ext, zeros), axis=ax)
        j = np.arange(1 - n, n)[:, None] + np.arange(n)
        shape = [1] * (2 * k)
        shape[a], shape[k + a] = 2 * n - 1, n
        inside = ((j >= 0) & (j < n)).reshape(shape)
        keep = inside if keep is None else keep & inside
    # windows[..., d_1..d_k, i_1..i_k] = partner of cell i at offset d
    windows = sliding_window_view(ext, u.shape, axis=tuple(range(first, v.ndim)))
    n_off = windows.shape[first]
    if keep is not None:
        keep = np.broadcast_to(keep, (n_off,) + keep.shape[1:])
    step = max(1, OFFSET_BLOCK * n_off // windows.size)
    cells = tuple(range(-k, 0))
    parts = []
    for lo in range(0, n_off, step):
        blk = slice(lo, lo + step)
        c = cost(u, windows[(slice(None),) * first + (blk,)])
        if keep is not None:
            c = np.where(keep[blk], c, 0.0)
        parts.append(c.sum(axis=cells))
    return np.concatenate(parts, axis=first)


def check_kernel_monotone(w: KernelWeights) -> bool:
    """True iff W[d] strictly decreases in circle distance on (0, N/2].

    Runtime guard for equality-case analysis: the theorems' hypotheses need
    the kernel decreasing away from the origin, which this verifies on the
    table instead of assuming.
    """
    if not w.periodic:
        seq = w.weights[w.n - 1 :]
        return bool(np.all(np.diff(seq) < 0))
    half = w.n // 2
    seq = w.weights[1 : half + 1]
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


def heat_weights_periodic(grid: Grid1D, t: float) -> KernelWeights:
    """Cell-pair integrals of the wrapped Gaussian on a periodic grid."""
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
    grid interval.
    """
    ts = np.asarray(ts, dtype=float)[:, None]
    st = np.sqrt(ts)
    b = grid.boundaries()
    lo, hi = grid.lo, grid.hi
    upper = _erfc_antideriv((hi - b[:-1]) * st) - _erfc_antideriv((hi - b[1:]) * st)
    lower = _erfc_antideriv((b[1:] - lo) * st) - _erfc_antideriv((b[:-1] - lo) * st)
    d = np.arange(-(grid.n - 1), grid.n)
    # take keeps the table C-ordered (fancy indexing would not), which the
    # Laplace route's per-node einsum over these rows needs to stay fast
    table = _gauss_lattice(grid.h, ts[:, 0], grid.n - 1).take(np.abs(d), axis=1)
    return table, (SQRT_PI / (2.0 * ts)) * (upper + lower)


def gaussian_weights_interval(grid: Grid1D, t: float) -> KernelWeights:
    """Cell-pair integrals of exp(-r^2 t) on an interval grid, with tails."""
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


def _d2_power(a: float, z, h: float):
    """Second difference P(z+h) - 2 P(z) + P(z-h) of P(r) = r^a, cancellation-safe.

    Direct evaluation loses (z/h)^2 in relative precision, so for z >= 16 h it
    switches to the even-order Taylor series 2 sum_j h^(2j)/(2j)! P^(2j)(z),
    whose omitted terms are below 1e-16 relative at that threshold.
    """
    z = np.atleast_1d(np.asarray(z, dtype=float))
    out = np.empty_like(z)
    near = z < 16.0 * h
    if near.any():
        zn = z[near]
        p = lambda r: np.where(r > 0.0, r, 1.0) ** a * (r > 0.0)
        out[near] = p(zn + h) - 2.0 * p(zn) + p(zn - h)
    far = ~near
    if far.any():
        zf = z[far]
        acc = np.zeros_like(zf)
        for j in range(1, 6):
            acc += (
                2.0
                * h ** (2 * j)
                / math.factorial(2 * j)
                * math.prod(a - i for i in range(2 * j))
                * zf ** (a - 2 * j)
            )
        out[far] = acc
    return out


def _riesz_line_pair(m, h: float, sigma: float) -> np.ndarray:
    """Exact pair weight at cell offset |m| >= 1 from the second antiderivative.

    K2(r) = r^(1-sigma) / (sigma (sigma - 1)) satisfies K2'' = r^(-(1+sigma));
    the weight is the second difference of K2 at the three edge gaps, with
    K2(0) = 0 for sigma < 1 (this is where sigma >= 1 diverges).
    """
    m = np.asarray(m, dtype=float)
    c = 1.0 / (sigma * (sigma - 1.0))
    return c * _d2_power(1.0 - sigma, m * h, h)


def _riesz_em_tail(a, n: int, h: float, sigma: float, k0: int) -> tuple[np.ndarray, np.ndarray]:
    """sum_{k >= k0} pair_weight((a + k n) h) by Euler-Maclaurin, per offset a.

    Every piece is a second difference of an explicit antiderivative of the
    power kernel; the bound is the magnitude of the first omitted correction.
    Returns (values, bounds) shaped like the integer offset array ``a``.
    """
    s = sigma
    nh = n * h
    z0 = (np.asarray(a) + k0 * n) * h

    def d2(a_pow: float, coef: float) -> np.ndarray:
        return coef * _d2_power(a_pow, z0, h)

    c3 = 1.0 / (s * (s - 1.0) * (2.0 - s))
    c2 = 1.0 / (s * (s - 1.0))
    c1 = -1.0 / s
    cf1 = -(1.0 + s)
    cf3 = -(1.0 + s) * (2.0 + s) * (3.0 + s)
    cf5 = cf3 * (4.0 + s) * (5.0 + s)
    tail = (
        -d2(2.0 - s, c3) / nh
        + 0.5 * d2(1.0 - s, c2)
        - nh * d2(-s, c1) / 12.0
        + nh**3 * d2(-2.0 - s, cf1) / 720.0
        - nh**5 * d2(-4.0 - s, cf3) / 30240.0
    )
    bound = np.abs(nh**7 * d2(-6.0 - s, cf5)) / 1209600.0
    return tail, bound


def riesz_weights_1d(grid: Grid1D, sigma: float, periodized: bool) -> KernelWeights:
    """Cell-pair weights of |x - y|^(-(1+sigma)), optionally 2 pi periodized.

    W[0] is 0 by the singular-diagonal convention.  Periodization sums cell
    copies at offsets d + k N explicitly and closes the k-tail with an
    Euler-Maclaurin correction certified by its next-term bound, for all
    offsets at once; the copy count doubles until every offset certifies
    RIESZ_RTOL.
    """
    _check_sigma(sigma)
    n, h = grid.n, grid.h
    if not periodized:
        d = np.arange(-(n - 1), n)
        w = np.zeros(d.size)
        nz = d != 0
        w[nz] = _riesz_line_pair(np.abs(d[nz]), h, sigma)
        return KernelWeights(n, h, False, w, accuracy=1e-14, singular_diagonal=True)
    if not grid.periodic:
        raise GridMismatch("periodized Riesz weights need a periodic grid")
    d = np.arange(1, n)
    k0 = 8
    while True:
        ks = np.arange(-k0 + 1, k0)
        core = _riesz_line_pair(np.abs(d[:, None] + ks * n), h, sigma).sum(axis=1)
        t_plus, b_plus = _riesz_em_tail(d, n, h, sigma, k0)
        t_minus, b_minus = _riesz_em_tail(-d, n, h, sigma, k0)
        w = np.concatenate(([0.0], core + t_plus + t_minus))
        worst = float(np.max((b_plus + b_minus) / w[1:], initial=0.0))
        if worst <= RIESZ_RTOL:
            return KernelWeights(
                n, h, True, w, accuracy=max(worst, 1e-15), singular_diagonal=True
            )
        if k0 >= 128:
            raise RangeTooWide(
                f"Euler-Maclaurin tail would not certify rtol={RIESZ_RTOL} at k0={k0}"
            )
        k0 *= 2


# ---------------------------------------------------------------------------
# 2D power kernel |z|^-(2+sigma), x1-periodized, for the direct ND route


@lru_cache(maxsize=32)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _gl_on(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = _gl(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _corner_rect_moment(alpha: int, beta: int, w1: float, w2: float, mu: float) -> float:
    """Integral of x^alpha y^beta (x^2 + y^2)^(-mu) over [0, w1] x [0, w2].

    Exact power integral in the radius; Gauss-Legendre in the angle over the
    two sub-sectors split where the rectangle boundary switches edges.
    Needs alpha + beta + 2 > 2 mu, guaranteed because singular overlap
    densities always carry a vanishing linear factor.
    """
    gamma = alpha + beta + 2.0 - 2.0 * mu
    if gamma <= 0:
        raise ConfigError("non-integrable corner moment")
    theta_c = math.atan2(w2, w1)
    total = 0.0
    for lo, hi, edge in ((0.0, theta_c, "cos"), (theta_c, 0.5 * math.pi, "sin")):
        if hi <= lo:
            continue
        th, wt = _gl_on(lo, hi, 40)
        r = w1 / np.cos(th) if edge == "cos" else w2 / np.sin(th)
        integ = (r**gamma / gamma) * np.cos(th) ** alpha * np.sin(th) ** beta
        total += float(integ @ wt)
    return total


def _quadrants(h1: float, h2: float, order: int) -> tuple[np.ndarray, ...]:
    """Gauss-Legendre rule on the four sign quadrants of the pair-offset box.

    Quadrant q = 2 i + j takes z1 of sign (-, +)[i] and z2 of sign (-, +)[j],
    where tri(z1) tri(z2) = (h1 - |z1|) (h2 - |z2|) has no kink.  Returns
    nodes z1 (4, order, 1), z2 (4, 1, order) and tri-weighted weights t1
    (4, 1, order), t2 (4, order, 1): (t1 @ f(z1, z2) @ t2)[..., 0, 0] holds
    the integral of tri tri f over each quadrant.
    """

    def side(h: float) -> tuple[np.ndarray, np.ndarray]:
        z, w = (np.array(v) for v in zip(_gl_on(-h, 0.0, order), _gl_on(0.0, h, order)))
        return z, (h - np.abs(z)) * w

    (z1, t1), (z2, t2) = side(h1), side(h2)
    i, j = [0, 0, 1, 1], [0, 1, 0, 1]
    return z1[i, :, None], z2[j, None, :], t1[i, None, :], t2[j, :, None]


def _gl_order(gap1, gap2, h1: float, h2: float) -> np.ndarray:
    """Gauss-Legendre order per box of pair offsets, from Trefethen's bound.

    The box [c1 - h1, c1 + h1] x [c2 - h2, c2 + h2] lies gap1 and gap2 away
    from the kernel origin along each axis.  With z2 real, the integrand
    ((c1 + z1)^2 + (c2 + z2)^2)^(-mu) is singular in z1 only where
    Re(c1 + z1) = 0 and |Im(c1 + z1)| >= gap2.  So a quadrant's z1 rule
    (half-width a = h1 / 2) integrates a function analytic in the Bernstein
    ellipse E_rho whose real semi-axis ends at the origin, rho = r +
    sqrt(r^2 - 1) with r = 1 + gap1 / a, and also in the one whose
    imaginary semi-axis is gap2, rho = t + sqrt(t^2 + 1) with t = gap2 / a;
    the larger rho holds.  The z2 rule likewise, and the box takes the
    smaller rho of its two axes.

    An m-point rule errs by at most 64 M / (15 (rho^2 - 1) rho^(2 m - 2))
    (Trefethen, SIAM Review 50, 2008, Thm 4.5, whose rule I_n has n + 1
    points), M bounding the integrand on E_rho.  The linear triangle weight
    grows there to (1 + rho) times its mean, so M is taken as (1 + rho)
    times the box's magnitude.  The order is the smallest m at which the
    bound falls below 2^-52 of that magnitude, capped at 20: a box touching
    the origin has rho = 1 and keeps order 20.
    """

    def rho(along, across, a):
        r, t = 1.0 + along / a, across / a
        return np.maximum(r + np.sqrt(r * r - 1.0), t + np.sqrt(t * t + 1.0))

    g1, g2 = np.maximum(gap1, 0.0), np.maximum(gap2, 0.0)
    p = np.minimum(rho(g1, g2, 0.5 * h1), rho(g2, g1, 0.5 * h2))
    with np.errstate(divide="ignore"):  # rho = 1 gives m = inf, capped below
        bound = 64.0 * (1.0 + p) / (15.0 * (p * p - 1.0))
        m = 1.0 + np.log(bound / np.finfo(float).eps) / (2.0 * np.log(p))
    return np.clip(np.ceil(m), 1, 20).astype(int)


def _box_weights_2d(c1, c2, h1: float, h2: float, mu: float, rule, corner) -> np.ndarray:
    """Integral of tri(z1) tri(z2) ((c1+z1)^2 + (c2+z2)^2)^(-mu) over the z-box.

    One product rule per quadrant for all offsets (c1, c2) at once.  A quadrant
    whose shifted corner hits the kernel origin is expanded in bilinear
    monomials instead, with exact-in-radius ``corner`` moments for (alpha,
    beta) = (0, 1), (1, 0), (1, 1): the density vanishes linearly there.
    """
    z1, z2, t1, t2 = rule
    x = c1[:, None, None, None] + z1
    y = c2[:, None, None, None] + z2
    r2 = x**2 + y**2
    vals = (t1 @ np.power(r2, -mu, out=r2) @ t2)[..., 0, 0]  # in place: one full temporary
    # shifted by c, quadrant q of _quadrants spans [u0, u1] x [v0, v1]
    s1 = np.array([-1.0, -1.0, 1.0, 1.0])
    s2 = np.array([-1.0, 1.0, -1.0, 1.0])
    c1, c2 = c1[:, None], c2[:, None]
    u0, u1 = c1 + h1 * np.minimum(s1, 0.0), c1 + h1 * np.maximum(s1, 0.0)
    v0, v1 = c2 + h2 * np.minimum(s2, 0.0), c2 + h2 * np.maximum(s2, 0.0)
    tol1, tol2 = 1e-9 * h1, 1e-9 * h2
    if np.any(u0 * u1 < -tol1 * h1) or np.any(v0 * v1 < -tol2 * h2):
        raise ConfigError("offset is not on the cell lattice")
    touch = (np.minimum(np.abs(u0), np.abs(u1)) < tol1) & (
        np.minimum(np.abs(v0), np.abs(v1)) < tol2
    )
    # there tri(z) = a + b p with p = |c + z|: a = h + s c, and b = -s when
    # the left end of the shifted quadrant is at the origin, else b = s
    a1, b1 = h1 + s1 * c1, np.where(np.abs(u0) < tol1, -s1, s1)
    a2, b2 = h2 + s2 * c2, np.where(np.abs(v0) < tol2, -s2, s2)
    if np.any(touch & (np.abs(a1 * a2) > tol1 * tol2)):
        raise ConfigError("corner moment lost its linear factor")
    # one fixed order for every offset: quadrant by quadrant, and a touching
    # quadrant's three corner terms one after another
    box = np.zeros(len(vals))
    for q in range(4):
        hit = touch[:, q]
        box += np.where(hit, a1[:, q] * b2[:, q] * corner[0], vals[:, q])
        box += hit * (b1[:, q] * a2[:, q] * corner[1])
        box += hit * (b1[:, q] * b2[:, q] * corner[2])
    return box


def _copy_tails_2d(
    a, c2, h1: float, h2: float, mu: float, k_next: int, order: int
) -> np.ndarray:
    """sum_{k >= k_next} box_weight(a + 2 pi k, c2) by Euler-Maclaurin, per offset.

    int psi + psi/2 - psi'/12 + psi'''/720 - psi^(5)/30240 at k_next, where
    psi(k) = box_weight(a + 2 pi k, c2).  The k-integral has an incomplete-beta
    closed form in x1 (a + 2 pi k_next > h1 keeps it regular) and the
    derivatives are analytic.  All five are singular only where the copy at
    k_next is, so they share one node tensor of that copy's ``_gl_order``,
    passed as ``order``; each is contracted as soon as it is formed.
    """
    z1, z2, t1, t2 = _quadrants(h1, h2, order)

    def quad(f, scale=1.0):
        return ((t1 @ f @ t2)[..., 0, 0] * scale).sum(axis=1)

    w1 = (a + TWO_PI * k_next)[:, None, None, None] + z1
    w2 = c2[:, None, None, None] + z2
    rho = w1**2 + w2**2
    b = np.abs(w2)
    m = mu
    m2 = m * (m + 1.0)
    m3 = m2 * (m + 2.0)
    m4 = m3 * (m + 3.0)
    m5 = m4 * (m + 4.0)
    bcoef = 0.5 * special.beta(m - 0.5, 0.5)
    fint = quad(b ** (1.0 - 2.0 * m) * bcoef * special.betainc(m - 0.5, 0.5, b**2 / rho))
    psi = quad(rho ** (-m))
    psi1 = quad(-2.0 * m * w1 * rho ** (-m - 1.0), TWO_PI)
    psi3 = quad(
        12.0 * m2 * w1 * rho ** (-m - 2.0) - 8.0 * m3 * w1**3 * rho ** (-m - 3.0), TWO_PI**3
    )
    psi5 = quad(
        -120.0 * m3 * w1 * rho ** (-m - 3.0)
        + 160.0 * m4 * w1**3 * rho ** (-m - 4.0)
        - 32.0 * m5 * w1**5 * rho ** (-m - 5.0),
        TWO_PI**5,
    )
    return fint / TWO_PI + 0.5 * psi - psi1 / 12.0 + psi3 / 720.0 - psi5 / 30240.0


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


def _nd_cache_path(grid1, grid2, sigma, k_copies):
    cache_dir = os.environ.get("PERSYM_CACHE_DIR")
    if not cache_dir:
        return None
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"PERSYM_CACHE_DIR is not a usable directory: {exc}") from exc
    # bump the format version v2 whenever the builder's values change, so a
    # table written by an older builder is never served
    tag = (
        f"riesz2d_v2_n{grid1.n}x{grid2.n}_box{grid2.lo:.9g}_{grid2.hi:.9g}"
        f"_sigma{sigma:.9g}_k{k_copies}.npz"
    )
    return os.path.join(cache_dir, tag)


def _load_nd_cache(path: str, n1: int, n2: int):
    """(weights, exterior) from a cache file; None unless it is intact, right-shaped and finite."""
    try:
        with np.load(path) as data:
            w, ext = data["weights"], data["exterior"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile):
        return None  # every way np.load reports a file that is not an intact npz
    if w.shape != (n1, 2 * n2 - 1) or ext.shape != (n2,):
        return None
    if not (np.isfinite(w).all() and np.isfinite(ext).all()):
        return None  # e.g. a table built with an overshooting last cell edge
    return w, ext


def riesz_weights_nd(
    grid1: Grid1D, grid2: Grid1D, sigma: float, k_copies: int = 16
) -> NDKernelWeights:
    """Pair weights of |x - y|^(-(2+sigma)) with periodized x1, analytic tails.

    Desk-scale builder for the direct n = 2 seminorm route; the Laplace
    representation is the supported fast path beyond that.  Offsets are
    computed for one symmetry sector and reflected (the kernel is even in
    each coordinate and the x1 copies are symmetric).

    The box of each x1 copy k in [-k_copies, k_copies] and sector offset
    takes the smallest Gauss-Legendre order m at which Trefethen's bound
    64 M / (15 (rho^2 - 1) rho^(2 m - 2)) on an m-point rule falls below
    2^-52 of the box's magnitude, capped at 20; rho is the Bernstein-ellipse
    parameter set by the box's distance from the kernel origin (see
    ``_gl_order``).  Boxes touching the origin (the k = 0 neighbours, and
    the k = +-1 copies when n1 <= 2) keep order 20 and the exact corner
    moments; a copy one period away takes 5 to 12 nodes, one sixteen
    periods away 3 or 4, as do the Euler-Maclaurin tails, which take the
    order of the copy at k_copies + 1.  The boxes of one order go through
    ``_box_weights_2d`` together, in blocks of at most OFFSET_BLOCK
    quadrature points, so no temporary exceeds 2 MiB.  Set PERSYM_CACHE_DIR
    to persist tables across runs.
    """
    _check_sigma(sigma)
    if not grid1.periodic or grid2.periodic:
        raise GridMismatch("riesz_weights_nd needs (periodic, interval) axes")
    n1, h1 = grid1.n, grid1.h
    n2, h2 = grid2.n, grid2.h
    cache = _nd_cache_path(grid1, grid2, sigma, k_copies)
    cached = cache and _load_nd_cache(cache, n1, n2)
    if cached:
        return NDKernelWeights(n1, h1, n2, h2, sigma, *cached)
    mu = (2.0 + sigma) / 2.0
    # one symmetry sector, 0 <= d1 <= n1/2 and 0 <= d2 < n2; the singular
    # diagonal (0, 0) keeps the convention W = 0
    d1, d2 = np.divmod(np.arange(1, (n1 // 2 + 1) * n2), n2)
    c1, c2 = d1 * h1, d2 * h2
    corner = [_corner_rect_moment(al, be, h1, h2, mu) for al, be in ((0, 1), (1, 0), (1, 1))]
    # every (copy, offset) box, grouped by order; each group in OFFSET_BLOCK
    # blocks of 4 m^2 quadrature points per box
    x1 = (c1 + TWO_PI * np.arange(-k_copies, k_copies + 1)[:, None]).ravel()
    x2 = np.tile(c2, 2 * k_copies + 1)
    order = _gl_order(np.abs(x1) - h1, x2 - h2, h1, h2)
    boxes = np.empty(x1.size)
    for m in np.unique(order):
        rule = _quadrants(h1, h2, m)
        sel = np.flatnonzero(order == m)
        step = max(1, OFFSET_BLOCK // (4 * m * m))
        for lo in range(0, sel.size, step):
            b = sel[lo : lo + step]
            boxes[b] = _box_weights_2d(x1[b], x2[b], h1, h2, mu, rule, corner)
    total = boxes.reshape(-1, c1.size).sum(axis=0)
    k_next = k_copies + 1
    tail_order = np.max(_gl_order(TWO_PI * k_next - c1 - h1, c2 - h2, h1, h2), initial=1)
    for a in (c1, -c1):
        total += _copy_tails_2d(a, c2, h1, h2, mu, k_next, tail_order)
    w = np.zeros((n1, 2 * n2 - 1))
    for e1 in (d1, (n1 - d1) % n1):
        w[e1, n2 - 1 + d2] = total
        w[e1, n2 - 1 - d2] = total
    kappa = SQRT_PI * special.gamma(mu - 0.5) / special.gamma(mu)
    b = grid2.boundaries()
    up = (grid2.hi - b[:-1]) ** (1.0 - sigma) - (grid2.hi - b[1:]) ** (1.0 - sigma)
    lo = (b[1:] - grid2.lo) ** (1.0 - sigma) - (b[:-1] - grid2.lo) ** (1.0 - sigma)
    ext = h1 * (kappa / (sigma * (1.0 - sigma))) * (up + lo)
    if cache:  # write beside the final name, then rename: no reader sees a partial file
        try:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(cache), suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:  # a handle: savez would append .npz to tmp
                    np.savez(fh, weights=w, exterior=ext)
                os.replace(tmp, cache)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError as exc:
            raise ConfigError(f"cannot write to PERSYM_CACHE_DIR: {exc}") from exc
    return NDKernelWeights(n1, h1, n2, h2, sigma, w, ext)


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


def laplace_quadrature(
    lam: float,
    z_min: float,
    z_max: float,
    rtol: float = 1e-9,
    max_nodes: int = 200_000,
) -> LaplaceConfig:
    """Build and validate the exp-substitution trapezoid rule.

    The window in s = log t is sized by the pure-exponential model e^(-z t)
    on [z_min, z_max] alone: the part of each transform left of it is below
    rtol * 1e-3 of Gamma(lam) z^-lam, and right of it e^(-z_min t) has
    decayed as far.  A profile with algebraic ends (coef t^-beta as t -> 0
    or t -> inf) needs the window only where it differs from those forms;
    ``algebraic_head`` and ``algebraic_tail`` sum the rule's own nodes beyond
    the window on them in closed form.  The spacing is halved until the
    Gamma-identity check passes at rtol, else RangeTooWide.  The window
    never starts below s = -600 nor runs past the point where e^(lam s)
    would overflow.
    """
    if lam <= 0 or z_min <= 0 or z_max < z_min:
        raise ConfigError("need lam > 0 and 0 < z_min <= z_max")
    eps = rtol * 1e-3
    lgamma = math.lgamma(lam)
    s_left = (math.log(eps * lam) + lgamma) / lam - math.log(z_max)
    s_left = max(s_left, -600.0)
    big = -math.log(eps) + abs(lgamma) + 5.0
    big += lam * math.log(max(big, 2.0))
    s_right = min(math.log(big / z_min), 680.0 / lam)  # keep e^(lam s) finite
    ds = 0.5
    zs = np.geomspace(z_min, z_max, 41)
    while True:
        m = int(math.ceil((s_right - s_left) / ds)) + 1
        if m > max_nodes:
            raise RangeTooWide(
                f"would need {m} nodes for rtol={rtol} on z in [{z_min}, {z_max}]"
            )
        s = s_left + ds * np.arange(m)
        cfg = LaplaceConfig(
            lam, np.exp(s), ds * np.exp(lam * s), z_min, z_max, rtol, math.nan, ds
        )
        err = float(cfg.gamma_identity_error(zs).max())
        if err <= rtol:
            return LaplaceConfig(
                lam, cfg.nodes, cfg.weights, z_min, z_max, rtol, err, ds
            )
        ds *= 0.5
