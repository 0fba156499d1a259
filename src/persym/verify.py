"""Property-test harness: inequality margins, equality classes, brute force.

Every check here is an exact theorem instance: step functions are genuine
measurable functions, their rearrangements are computed exactly on the
half-cell grid, and kernels are either exactly tabulated step kernels or
erf-closed-form Gaussian families.  Margins are therefore nonnegative up to
the weight-table accuracy, and the zero-margin set can be compared against
the structural equality classes:

* constant (circle) or zero (line) function;
* a common translate: both functions are the same half-cell translate of
  their rearrangements;
* levelwise translates (cost |t| or exponent p = 1): every shared strict
  superlevel is a translated centered interval, the translate shared by
  both functions per level but free to vary across levels.

Translates are detected on the half-cell grid, which is complete for exact
step inputs: a non-constant step function equals a translate of its
rearrangement only if the translate aligns the two breakpoint lattices.
Classification works on raw value arrays: a function is a translate of its
rearrangement exactly when each strict superlevel set is one run of cells
(one arc on the circle) and all proper sets share one centre.  On the circle
an empty or full set is not proper, and a row turned to start at its minimum
has its proper sets as runs of cells.  Whole rows decide most classes
(``_class``: running maxima and mirror images); only a levelwise test builds
the sets of its levels (``_runs``).  Centres are integers in half cells until
a class is built.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import BudgetExceeded, ConfigError, KernelNotMonotone
from .functionals import (
    ConvexJ,
    _pair_sum,
    energy_circle,
    energy_euclidean,
    j_library,
    level_interaction_term,
    level_source_term,
    normalize,
    split_plus_minus,
)
from .grid import Grid1D, GridFunctionND, StepFunction, _distinct
from .kernels import (
    GaussianKernel,
    HeatKernel,
    Kernel,
    KernelWeights,
    StepKernelCircle,
    check_kernel_monotone,
    offset_sums,
)
from .rearrange import (
    cylindrical_rearrange,
    periodic_rearrange_1d,
    periodic_rearrange_nd,
    symmetric_decreasing_1d,
)
from .seminorm import SeminormParams, gagliardo_periodic

EXACT_TOL = 1e-12
# a Pólya case fails when its two seminorm routes disagree on the margin by
# more than this share of value + value_rearranged
DUAL_RTOL = 1e-6
# exhaustive oracle: margins up to ORACLE_ZERO_TOL (relative) count as zero,
# those up to ORACLE_INDETERMINATE_TOL are flagged rather than classified
ORACLE_ZERO_TOL = 1e-11
ORACLE_INDETERMINATE_TOL = 1e-8


# ---------------------------------------------------------------------------
# equality classification


@dataclass(frozen=True)
class EqualityClass:
    """Structural class of a (pair of) function(s) for the equality cases."""

    tag: str  # constant | zero | common-translate | levelwise-translate | neither
    shift: float | None = None
    level_shifts: tuple = ()

    @property
    def predicts_equality(self) -> bool:
        return self.tag != "neither"


def _turned(rows: np.ndarray, periodic: bool):
    """``rows`` and a turn of 0 on the line; on the circle each row turned to
    start at its first minimum, and the turns in cells: a proper circle set
    then misses the first cell, so it is an arc exactly when it is a run."""
    if not periodic:
        return rows, 0
    turn = rows.argmin(axis=1)
    n = rows.shape[1]
    return rows[np.arange(len(rows))[:, None], (turn[:, None] + np.arange(n)) % n], turn


def _runs(rows: np.ndarray, turn, taus: np.ndarray, periodic: bool):
    """Per row of ``rows``, turned by ``_turned``, and level tau of ``taus``:
    whether {row > tau} is one run of cells or not proper, and the run's
    centre in half cells from the left end of the row before its turn (cells
    a..b give a + b + 1), -1 where the set is not proper.  A proper set is
    nonempty, and on the circle not full: such a set matches every rotation."""
    n = rows.shape[1]
    masks = rows[:, None] > taus[:, None]
    size = masks.sum(axis=2)
    first = masks.argmax(axis=2)
    last = n - 1 - masks[..., ::-1].argmax(axis=2)
    proper = (size > 0) & (size < n) if periodic else size > 0
    centre = (first + last + 1 + 2 * np.reshape(turn, (-1, 1))) % (2 * n)
    return (last - first + 1 == size) | ~proper, np.where(proper, centre, -1)


def _class(rows: np.ndarray, levels, floor: float, ceil: float, periodic: bool, place):
    """The class of the rows of ``rows`` from their strict superlevel sets
    {row > tau}, tau any of ``levels`` below its top.  Common translate: every
    set is one run (an arc on the circle), the proper ones of one centre;
    levelwise: the same per level in [floor, ceil).  ``place`` maps centres to
    shifts.  A cell splits the set of every level from its value up to its
    wall, the lower of the highest values on its two sides; with no split at
    all, the runs share one centre exactly when each row is its own mirror
    image about the centre of its top set, one for all rows (0 outside the
    interval).  Only a levelwise test builds the sets of its levels."""
    n = rows.shape[1]
    turned, turn = _turned(rows, periodic)
    peak = np.maximum.accumulate(turned, 1)
    wall = np.minimum(peak, np.maximum.accumulate(turned[:, ::-1], 1)[:, ::-1])
    if (np.maximum(turned, floor) < np.minimum(wall, ceil)).any():
        return EqualityClass("neither")
    if not (turned < wall).any():
        centre = (turned.argmax(axis=1) - turned[:, ::-1].argmax(axis=1) + n + 2 * turn) % (2 * n)
        flat = peak[:, -1] == (turned[:, 0] if periodic else 0.0)  # no proper set
        shared = set(centre[~flat].tolist())
        if len(shared) < 2:
            c = shared.pop() if shared else -1
            rev = rows[:, ::-1]
            side = rev if periodic else np.zeros_like(rev)
            mirror = np.concatenate((side, rev, side), 1)[:, 2 * n - c : 3 * n - c]
            if c < 0 or (mirror == rows).all():
                return EqualityClass("common-translate", shift=float(place(c)))
    taus = _distinct(levels)[:-1]
    taus = taus[slice(*taus.searchsorted((floor, ceil)))]
    _, centre = _runs(turned, turn, taus, periodic)  # every kept set is one run (no split)
    top = centre.max(axis=0)  # per level, -1 where no set is proper
    if not ((centre == top) | (centre < 0)).all():
        return EqualityClass("neither")
    shifts = place(top).astype(float).tolist()
    return EqualityClass("levelwise-translate", level_shifts=tuple(zip(taus.tolist(), shifts)))


def _circle_class(rows: np.ndarray, whole: bool) -> EqualityClass:
    """Circle classes of the rows of ``rows`` at every level below the top.

    Rows that are ``whole`` functions are "constant" if one is, and their
    levelwise test takes the levels all of them cross; slices of one
    function take every level.  A centre c is the rotation (n - c) mod 2n
    half cells of the rearrangement, 0 where no set is proper.
    """
    n = rows.shape[1]
    floor, ceil = -math.inf, math.inf  # every level
    if whole:
        lo, hi = rows.min(axis=1).tolist(), rows.max(axis=1).tolist()
        if any(map(float.__eq__, lo, hi)):
            return EqualityClass("constant")
        floor, ceil = max(lo), min(hi)
    return _class(rows, rows, floor, ceil, True, lambda c: (n - c) % (2 * n) * (c >= 0))


def _line_class(rows: np.ndarray, grid: Grid1D, hi: float) -> EqualityClass:
    """Line classes of the rows of ``rows``, functions on the interval ``grid``
    with a positive maximum, at 0 and every value below the top; the
    levelwise test takes the levels below ``hi``, 0 only as a value."""
    levels = np.concatenate(([0.0], rows.ravel()))
    half = grid.h / 2.0
    return _class(rows, levels, float(rows.min()), hi, False, lambda c: grid.lo + c * half)


def classify_equality(u, v=None, context: str = "circle") -> EqualityClass:
    """Detect the structural equality class of a pair (or single function).

    Context ``circle`` and ``euclidean`` classify pairs on one periodic or
    one interval grid for the nonexpansivity and bilinear checks;
    ``periodic-ps`` and ``cylindrical-ps`` classify a single function for
    the seminorm checks.  Classification is structural: it needs neither
    the cost nor the kernel.  Inputs off their context raise ConfigError.
    """
    if context in ("circle", "euclidean"):
        v = u if v is None else v
        periodic = context == "circle"
        if not (
            isinstance(u, StepFunction)
            and isinstance(v, StepFunction)
            and u.grid == v.grid
            and u.grid.periodic == periodic
        ):
            kind = "periodic" if periodic else "interval"
            raise ConfigError(f"{context} classification needs u and v on one {kind} grid")
        rows = np.array((u.values, v.values))
        if periodic:
            return _circle_class(rows, whole=True)
        hi = min(float(u.values.max()), float(v.values.max()))
        if hi == 0.0:  # nonnegative values: a maximum of 0 is the zero function
            return EqualityClass("zero")
        return _line_class(rows, u.grid, hi)
    if context == "periodic-ps":
        if isinstance(u, GridFunctionND):
            return _circle_class(u.values.T, whole=False)
        if not (isinstance(u, StepFunction) and u.grid.periodic):
            raise ConfigError("periodic-ps classification needs a periodic grid")
        return _circle_class(u.values[None], whole=True)
    if context == "cylindrical-ps":
        if not isinstance(u, GridFunctionND):
            raise ConfigError("cylindrical-ps classification needs a function on the cylinder")
        top = float(u.values.max())
        if top == 0.0:
            return EqualityClass("zero")
        return _line_class(u.values, u.axes_perp[0], top)
    raise ConfigError(f"unknown context {context!r}")


# ---------------------------------------------------------------------------
# individual checks


def _margin_bound(acc_a: float, acc_b: float, *scales: float) -> float:
    """The margin that two tables of accuracies acc_a and acc_b cannot tell
    from zero: 4 (acc_a + acc_b) max(|scales|, 1), and at least EXACT_TOL."""
    return max(4.0 * (acc_a + acc_b) * max(*map(abs, scales), 1.0), EXACT_TOL)


@dataclass(frozen=True)
class CheckResult:
    margin: float
    lhs: float
    rhs: float
    bound: float


def _rearranged_pair(u: StepFunction, v: StepFunction, kernel: Kernel, periodic: bool):
    """The kernel's table on the grid u and v share, which must be periodic
    or an interval by ``periodic``; u and v rearranged, periodically or by
    Schwarz; and the rearranged kernel's table on their half-cell grid."""
    if u.grid != v.grid or u.grid.periodic != periodic:
        raise ConfigError(f"u and v must share one {'periodic' if periodic else 'interval'} grid")
    rearrange = periodic_rearrange_1d if periodic else symmetric_decreasing_1d
    su, sv = rearrange(u), rearrange(v)
    return kernel.weights(u.grid), su, sv, kernel.rearranged().weights(su.grid)


def check_riesz_circle(f: StepFunction, h: StepFunction, kernel: Kernel) -> CheckResult:
    """Margin of the circle convolution inequality under rearrangement.

    margin = (rearranged bilinear form) - (original) >= 0; the rearranged
    side pairs f*, h* with the rearranged kernel's own table on the
    half-cell grid.
    """
    w, sf, sh, w2 = _rearranged_pair(f, h, kernel, periodic=True)
    lhs = _pair_sum(f.values, h.values, np.multiply, w)
    rhs = _pair_sum(sf.values, sh.values, np.multiply, w2)
    return CheckResult(rhs - lhs, lhs, rhs, _margin_bound(w.accuracy, w2.accuracy, lhs, rhs))


def _internal_layer_checks(
    u: StepFunction,
    v: StepFunction,
    su: StepFunction,
    sv: StepFunction,
    j: ConvexJ,
    w: KernelWeights,
    w2: KernelWeights,
    bound: float,
) -> None:
    """Re-assert source invariance and interaction monotonicity on this run,
    with su and sv the rearrangements of u and v."""
    if not j.min_attained:
        return
    jn = normalize(j)
    jp, _ = split_plus_minus(jn)
    x = np.sort(np.concatenate((u.values, v.values)))
    for tau in x[[x.size // 4, 3 * x.size // 4]]:  # order statistics near the quartiles
        a0 = level_source_term(u, jp, w, tau)
        a1 = level_source_term(su, jp, w2, tau)
        if abs(a0 - a1) > bound * max(1.0, abs(a0)):
            raise AssertionError(f"source term moved under rearrangement: {a0} -> {a1}")
        b0 = level_interaction_term(u, v, jp, w, tau)
        b1 = level_interaction_term(su, sv, jp, w2, tau)
        if b1 < b0 - bound * max(1.0, abs(b0)):
            raise AssertionError(f"interaction term decreased: {b0} -> {b1}")


def check_nonexpansivity_circle(
    u: StepFunction,
    v: StepFunction,
    j: ConvexJ,
    kernel: Kernel,
    internal_checks: bool = False,
) -> CheckResult:
    """Margin of the circle energy under simultaneous rearrangement.

    margin = E[u, v, g] - E[u*, v*, g*] >= 0 for every nonnegative convex
    cost; the rearranged side is evaluated exactly on the half-cell grid
    against the rearranged kernel's table.
    """
    w, su, sv, w2 = _rearranged_pair(u, v, kernel, periodic=True)
    lhs = energy_circle(u, v, j, w).value
    rhs = energy_circle(su, sv, j, w2).value
    bound = _margin_bound(w.accuracy, w2.accuracy, lhs, rhs)
    if internal_checks:
        _internal_layer_checks(u, v, su, sv, j, w, w2, bound)
    return CheckResult(lhs - rhs, lhs, rhs, bound)


def check_nonexpansivity_euclidean(
    u: StepFunction, v: StepFunction, j: ConvexJ, kernel: Kernel
) -> CheckResult:
    """Margin of the whole-line energy under Schwarz rearrangement (n = 1); a
    cost with J(0) != 0 raises the energies' DivergentTail, a NotNormalized."""
    w, su, sv, w2 = _rearranged_pair(u, v, kernel, periodic=False)
    lhs = energy_euclidean(u, v, j, w).value
    rhs = energy_euclidean(su, sv, j, w2).value
    return CheckResult(lhs - rhs, lhs, rhs, _margin_bound(w.accuracy, w2.accuracy, lhs, rhs))


@dataclass(frozen=True)
class PolyaResult:
    margin: float
    margin_laplace: float
    value: float
    value_rearranged: float
    bound: float


def _polya(u, star, params: SeminormParams) -> PolyaResult:
    """Seminorm margin of u against its rearrangement ``star``, both routes."""
    (d0, l0), (d1, l1) = gagliardo_periodic(u, params), gagliardo_periodic(star, params)
    bound = _margin_bound(d0.accuracy, d1.accuracy, d0.value)
    return PolyaResult(d0.value - d1.value, l0.value - l1.value, d0.value, d1.value, bound)


def check_polya_periodic(
    u: StepFunction | GridFunctionND, params: SeminormParams
) -> PolyaResult:
    """Seminorm margin under periodic rearrangement, both routes reported."""
    nd = isinstance(u, GridFunctionND)
    return _polya(u, periodic_rearrange_nd(u) if nd else periodic_rearrange_1d(u), params)


def check_polya_cylindrical(u: GridFunctionND, params: SeminormParams) -> PolyaResult:
    """Seminorm margin under slicewise rearrangement in the interval axis."""
    return _polya(u, cylindrical_rearrange(u), params)


# ---------------------------------------------------------------------------
# exhaustive small-instance oracle


@dataclass
class CaseRecord:
    suite: str
    case_id: str
    margin: float
    class_predicted: str
    class_observed: str
    status: str


@dataclass
class VerificationReport:
    """The rows of a run and the largest case bound; every count reads the rows."""

    suite: str
    bound: float = EXACT_TOL
    rows: list = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return len(self.rows)

    @property
    def min_margin(self) -> float:
        return min((case.margin for case in self.rows), default=math.inf)

    @property
    def failures(self) -> list:
        return [case for case in self.rows if case.status == "fail"]

    @property
    def indeterminate(self) -> int:
        return sum(case.status == "indeterminate" for case in self.rows)

    @property
    def passed(self) -> bool:
        return not self.failures

    def merge(self, other: "VerificationReport") -> None:
        self.bound = max(self.bound, other.bound)
        self.rows.extend(other.rows)


def exhaustive_oracle_circle(
    n: int,
    levels: int,
    j: ConvexJ,
    kernel: Kernel,
    budget: int = 200_000,
) -> VerificationReport:
    """Enumerate all quantized pairs; compare margins with predicted classes.

    For strictly convex costs and a strictly decreasing kernel the zero
    margin set must coincide with the constant/common-translate classes;
    for the |t| cost with the levelwise-translate criterion.  Margins in
    (ORACLE_ZERO_TOL, ORACLE_INDETERMINATE_TOL) are flagged, not classified.
    """
    # every level-quantized value vector on n cells, shape (levels^n, n)
    funcs = np.indices((levels,) * n).reshape(n, -1).T.astype(float)
    m = funcs.shape[0]
    if m * m > budget:
        raise BudgetExceeded(f"{m * m} pairs exceed budget {budget}")
    grid = Grid1D.circle(n)
    w = kernel.weights(grid)
    if not check_kernel_monotone(w):
        raise KernelNotMonotone(f"{kernel.name}: oracle needs a decreasing kernel")
    rearranged = [periodic_rearrange_1d(StepFunction(grid, f)) for f in funcs]
    w2 = kernel.rearranged().weights(rearranged[0].grid)
    stars = np.stack([star.values for star in rearranged])
    lows, highs = funcs.min(axis=1), funcs.max(axis=1)
    consts = lows == highs
    # per (function, level): whether {f > tau} is one arc or not proper, and
    # its centre; per function: whether f is a translate of f*, and where
    taus = np.arange(levels - 1.0)
    ok, centre = _runs(*_turned(funcs, True), taus, True)
    centres = centre.max(axis=1, initial=-1)
    translate = (ok & ((centre == centres[:, None]) | (centre < 0))).all(axis=1)

    strict = j.strictly_convex
    is_abs = j.name.startswith("abs")
    tag = "levelwise-translate" if is_abs else "class-i-or-ii"
    cost = lambda a, b: j(a - b)
    report = VerificationReport(
        suite=f"exhaustive:n={n},levels={levels},J={j.name},{kernel.name}"
    )
    for a in range(m):
        lhs = w.contract(offset_sums(funcs[a], funcs, cost, w.periodic))
        rhs = w2.contract(offset_sums(stars[a], stars, cost, w2.periodic))
        margins = lhs - rhs
        if is_abs:
            # every level both functions cross, where both sets are proper,
            # holds two arcs of one centre
            shared = (taus >= np.maximum(lows[a], lows)[:, None]) & (
                taus < np.minimum(highs[a], highs)[:, None]
            )
            match = ok[a] & ok & (centre[a] == centre)
            predictions = (match | ~shared).all(axis=1)
        else:
            predictions = consts[a] | consts | (translate[a] & translate & (centres[a] == centres))
        for b in range(m):
            margin = float(margins[b])
            scale = max(float(lhs[b]), 1.0)
            predicted = bool(predictions[b])
            observed_zero = abs(margin) <= ORACLE_ZERO_TOL * scale
            if margin < -report.bound * scale:
                status = "fail"
            elif not observed_zero and abs(margin) <= ORACLE_INDETERMINATE_TOL * scale:
                status = "indeterminate"
            elif strict or is_abs:
                status = "pass" if observed_zero == predicted else "fail"
            else:
                # no completeness claim without strict convexity: soundness only
                status = "pass" if (not predicted or observed_zero) else "fail"
            report.rows.append(
                CaseRecord(
                    report.suite,
                    f"{a}-{b}",
                    margin,
                    tag if predicted else "neither",
                    "zero" if observed_zero else "positive",
                    status,
                )
            )
    return report


# ---------------------------------------------------------------------------
# randomized suites


def random_step(rng, grid: Grid1D, levels: int | None = None, vmax: float = 2.0):
    if levels is not None:
        return StepFunction(grid, rng.integers(0, levels, grid.n).astype(float))
    return StepFunction(grid, vmax * rng.random(grid.n))


def symmetric_decreasing_instance(rng, grid: Grid1D, shift: int = 0):
    """A base-grid function equal to a translate of its own rearrangement.

    Mirror-paired descending values make every superlevel set a centered
    interval of even cell count, so at shift 0 the function is exactly its
    own rearrangement; rolling by whole cells realizes the translate class.
    The mirror pairs need an even cell count.
    """
    if grid.n % 2:
        raise ConfigError(f"a symmetric decreasing instance needs an even cell count, got {grid.n}")
    half = grid.n // 2
    vals = np.sort(2.0 * rng.random(half))[::-1]
    full = np.empty(grid.n)
    full[half:] = vals
    full[:half] = vals[::-1]
    return StepFunction(grid, np.roll(full, shift))


def _nested_arc_function(grid: Grid1D, lengths, centers) -> StepFunction:
    """Staircase whose strict superlevel k is the arc of ``lengths[k]`` cells
    centered at half-cell position ``centers[k]`` (lengths and centers even)."""
    vals = np.zeros(grid.n)
    for length, c in zip(lengths, centers):
        start = (c - length) // 2
        vals[(start + np.arange(length)) % grid.n] += 1.0
    return StepFunction(grid, vals)


def levelwise_pair(rng, grid: Grid1D, n_levels: int = 3):
    """Two staircases whose superlevel arcs share per-level centers.

    The shared center may wander level to level within both functions'
    nesting slack, so the pair realizes the levelwise-translate equality
    class without being common translates of their rearrangements.  An arc
    of even length below n needs n >= 3.
    """
    n = grid.n
    if n <= 2:
        raise ConfigError(f"a levelwise pair needs at least 3 cells, got {n}")

    def draw_lengths():
        # nonincreasing even cell counts below n, drawn with replacement
        top = max(2, (n - 1) // 2 * 2)
        ls = sorted(rng.choice(np.arange(1, top // 2 + 1), n_levels, replace=True))
        return [2 * int(v) for v in reversed(ls)]

    lu = draw_lengths()
    lv = draw_lengths()
    centers = [2 * int(rng.integers(0, n))]
    for k in range(1, n_levels):
        room = min(lu[k - 1] - lu[k], lv[k - 1] - lv[k]) // 2
        step = 2 * int(rng.integers(-room, room + 1)) if room > 0 else 0
        centers.append(centers[-1] + step)
    return (
        _nested_arc_function(grid, lu, centers),
        _nested_arc_function(grid, lv, centers),
    )


def _case_rng(seed: int, suite: str, k: int):
    # crc32, not hash(): str hashes change with PYTHONHASHSEED across processes
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(suite.encode()), k]))


def _case_riesz(rng, k: int):
    n = int(rng.choice([6, 8, 12, 16]))
    grid = Grid1D.circle(n)
    kind = k % 5
    kernel = HeatKernel(0.25 if k % 2 == 0 else 1.0)
    if kind == 3:
        profile = StepFunction(grid, rng.random(n) + 0.05)
        kernel = StepKernelCircle(profile)  # generally not monotone
    if kind == 0:
        f = StepFunction.constant(grid, float(rng.random() * 2))
        h = random_step(rng, grid)
    elif kind == 1:
        shift = int(rng.integers(0, n))
        f = symmetric_decreasing_instance(rng, grid, shift)
        h = symmetric_decreasing_instance(rng, grid, shift)
    else:
        levels = 4 if kind == 2 else None
        f = random_step(rng, grid, levels)
        h = random_step(rng, grid, levels)
    return check_riesz_circle(f, h, kernel), classify_equality(f, h, "circle"), kind < 2


_CIRCLE_COSTS = [
    j_library("abs"),
    j_library("power", p=1.5),
    j_library("power", p=2),
    j_library("power", p=4),
    j_library("shifted_power", p=2, t0=0.8),
    j_library("exp_increasing"),
    j_library("one_sided"),
]


def _case_nonexp_circle(rng, k: int):
    n = int(rng.choice([6, 8, 12, 16]))
    grid = Grid1D.circle(n)
    j = _CIRCLE_COSTS[k % len(_CIRCLE_COSTS)]
    kernel = HeatKernel(float(rng.choice([0.25, 0.5, 1.0])))
    kind = k % 4
    expect_zero = True
    if kind == 0:
        u = random_step(rng, grid)
        v = StepFunction.constant(grid, float(rng.random() * 2))
    elif kind == 1:
        shift = int(rng.integers(0, n))
        u = symmetric_decreasing_instance(rng, grid, shift)
        v = symmetric_decreasing_instance(rng, grid, shift)
    elif kind == 2 and j.name == "abs":
        u, v = levelwise_pair(rng, grid)
    else:
        levels = 3 if kind == 2 else None
        u = random_step(rng, grid, levels)
        v = random_step(rng, grid, levels)
        expect_zero = False
    res = check_nonexpansivity_circle(u, v, j, kernel, internal_checks=(k % 10 == 0))
    return res, classify_equality(u, v, "circle"), expect_zero


_LINE_COSTS = [j_library("abs"), j_library("power", p=2), j_library("power", p=3)]


def _case_nonexp_rn(rng, k: int):
    n = int(rng.choice([6, 8, 12]))
    grid = Grid1D.interval(n, -2.0, 2.0)
    j = _LINE_COSTS[k % len(_LINE_COSTS)]
    kernel = GaussianKernel(float(rng.choice([0.5, 1.0, 2.0])))
    kind = k % 3
    if kind == 0:
        u = random_step(rng, grid)
        v = StepFunction.constant(grid, 0.0)
    elif kind == 1:
        # centered symmetric decreasing pair on the centered box
        u = symmetric_decreasing_instance(rng, grid)
        v = symmetric_decreasing_instance(rng, grid)
    else:
        u = random_step(rng, grid)
        v = random_step(rng, grid)
    res = check_nonexpansivity_euclidean(u, v, j, kernel)
    return res, classify_equality(u, v, "euclidean"), kind < 2


_POLYA_SP = [(0.2, 1.0), (0.3, 2.0), (0.45, 2.0), (0.7, 1.0), (0.3, 3.0)]


def _case_polya_per(rng, k: int):
    s, p = _POLYA_SP[k % len(_POLYA_SP)]
    if k % 8 == 7:
        # every eighth case is 2D: random and slicewise-translate in turn
        expect_zero = k % 16 == 15
        if expect_zero:
            # slicewise translate of a rearranged function: margin 0
            shift = int(rng.integers(0, 8))
            cols = [
                np.roll(symmetric_decreasing_instance(rng, Grid1D.circle(8)).values, shift)
                for _ in range(8)
            ]
            vals = np.stack(cols, axis=1)
        else:
            vals = 2.0 * rng.random((8, 8))
        vals[:, 0] = 0.0
        vals[:, -1] = 0.0
        u = GridFunctionND(Grid1D.circle(8), (Grid1D.centered_interval(8, 4.0),), vals)
        params = SeminormParams(s, p, 2)  # every (s, p) has sp < 1: finite
    else:
        n = int(rng.choice([6, 8, 12, 16]))
        grid = Grid1D.circle(n)
        params = SeminormParams(s, p, 1)
        kind = k % 3
        expect_zero = True
        if kind == 0 and p == 1.0:
            u, _ = levelwise_pair(rng, grid)
        elif kind == 1:
            u = symmetric_decreasing_instance(rng, grid)
        else:
            u = random_step(rng, grid, levels=4 if kind == 0 else None)
            expect_zero = False
    res = check_polya_periodic(u, params)
    return res, classify_equality(u, context="periodic-ps"), expect_zero


def _case_polya_cyl(rng, k: int):
    s = float(rng.choice([0.2, 0.4, 0.6]))
    vals = 2.0 * rng.random((6, 8))
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    if k % 3 == 0:
        vals = np.round(2 * vals) / 2.0
    u = GridFunctionND(Grid1D.circle(6), (Grid1D.centered_interval(8, 4.0),), vals)
    res = check_polya_cylindrical(u, SeminormParams(s, 1.0, 2))
    return res, classify_equality(u, context="cylindrical-ps"), False


def _run_cases(build, name: str, seed: int, cases: int) -> VerificationReport:
    """Run the randomized suite ``name`` of case builder ``build``; the one
    place a randomized case's status is decided (the oracle decides its own).

    A case fails when its margin is below -bound, when a constructed
    equality case has a margin above its bound, or, for Pólya cases, when
    the two seminorm routes disagree on the margin beyond DUAL_RTOL.
    """
    report = VerificationReport(suite=name)
    for k in range(cases):
        res, cls, expect_zero = build(_case_rng(seed, name, k), k)
        observed = abs(res.margin) <= res.bound
        fail = res.margin < -res.bound or (expect_zero and not observed)
        if isinstance(res, PolyaResult):
            gap = abs(res.margin - res.margin_laplace)
            fail = fail or gap > DUAL_RTOL * (res.value + res.value_rearranged)
        report.bound = max(report.bound, res.bound)
        report.rows.append(
            CaseRecord(
                name,
                f"{name}-{seed}-{k}",
                res.margin,
                cls.tag,
                "zero" if observed else "positive",
                "fail" if fail else "pass",
            )
        )
    return report


def _run_exhaustive(name: str, seed: int, cases: int) -> VerificationReport:
    """The small-instance enumeration (n = 4, two levels) with a quadratic
    cost and |t|; it draws nothing, so it ignores seed and cases."""
    report = VerificationReport(suite=name)
    for j in (j_library("power", p=2), j_library("abs")):
        report.merge(exhaustive_oracle_circle(4, 2, j, HeatKernel(1.0)))
    return report


# the one list of suites: name -> runner (name, seed, cases) -> report; a
# randomized suite's case builder (rng, k) gives (check result,
# EqualityClass, whether the case is a constructed equality case)
SUITES = {
    "riesz": partial(_run_cases, _case_riesz),
    "nonexp-circle": partial(_run_cases, _case_nonexp_circle),
    "nonexp-rn": partial(_run_cases, _case_nonexp_rn),
    "polya-per": partial(_run_cases, _case_polya_per),
    "polya-cyl": partial(_run_cases, _case_polya_cyl),
    "exhaustive": _run_exhaustive,
}


def run_suite(suites="all", seed: int = 7, cases: int = 200) -> VerificationReport:
    """Run named verification suites deterministically; aggregate reports.

    ``suites`` is a name in ``SUITES``, a list of names, or "all".
    """
    if cases < 1:
        raise ConfigError(f"need at least one case, got {cases}")
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    if suites == "all":
        names = list(SUITES)
    elif isinstance(suites, str):
        names = [suites]
    else:
        names = list(suites)
    total = VerificationReport(suite="+".join(names))
    for name in names:
        if name not in SUITES:
            raise ConfigError(f"unknown suite {name!r}")
        total.merge(SUITES[name](name, seed, cases))
    return total
