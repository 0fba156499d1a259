"""Convex cost library and the nonlocal interaction energies.

The double-integral energy of two step functions against a kernel table is
an exact finite sum sum_{i,j} J(u_i - v_j) W[j - i].  The layer
decomposition splits the one-sided part of that energy into a level
integral of a source term (invariant under rearrangement) minus an
interaction term (which only grows under rearrangement); because J itself
is the antiderivative of its one-sided derivative, the level integral is
evaluated exactly for every convex cost, not just powers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    ConfigError, DivergentTail, GridMismatch, NegativeEnergy, NotNormalized, UnknownCost
)
from .grid import StepFunction, _distinct
from .kernels import KernelWeights, offset_sums


@dataclass(frozen=True)
class ConvexJ:
    """Nonnegative convex cost with a lower-semicontinuous one-sided derivative.

    ``deriv`` is the left derivative, which for a convex function is the
    nondecreasing lower-semicontinuous representative; in particular for
    kinked costs like |t| it gives deriv(u - tau) = 1 exactly on the strict
    superlevel set {u > tau}.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    deriv: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    strictly_convex: bool
    min_attained: bool
    minimizer: float | None

    def __call__(self, t):
        return self.fn(np.asarray(t, dtype=float))

    def reflected(self) -> "ConvexJ":
        """The cost t -> J(-t)."""
        return ConvexJ(
            f"{self.name}~reflected",
            lambda t: self.fn(-np.asarray(t, dtype=float)),
            lambda t: -self.deriv(-np.asarray(t, dtype=float)),
            self.strictly_convex,
            self.min_attained,
            None if self.minimizer is None else -self.minimizer,
        )


def j_library(name: str, **params) -> ConvexJ:
    """Named convex costs: abs, power, shifted_power, one_sided, exp_increasing."""
    if name == "abs":
        return ConvexJ(
            "abs",
            lambda t: np.abs(t),
            lambda t: np.where(t > 0, 1.0, -1.0),
            strictly_convex=False,
            min_attained=True,
            minimizer=0.0,
        )
    if name == "power":
        p = float(params.get("p", 2.0))
        if p < 1.0:
            raise UnknownCost(f"power cost needs p >= 1, got {p}")
        if p == 1.0:
            return j_library("abs")
        return ConvexJ(
            f"power:{p:g}",
            lambda t: np.abs(t) ** p,
            lambda t: p * np.abs(t) ** (p - 1.0) * np.sign(t),
            strictly_convex=p > 1.0,
            min_attained=True,
            minimizer=0.0,
        )
    if name == "shifted_power":
        p = float(params.get("p", 2.0))
        t0 = float(params.get("t0", 0.0))
        if p < 1.0:
            raise UnknownCost(f"shifted_power cost needs p >= 1, got {p}")
        return ConvexJ(
            f"shifted_power:{p:g}@{t0:g}",
            lambda t: np.abs(t - t0) ** p,
            lambda t: p * np.abs(t - t0) ** (p - 1.0) * np.sign(t - t0)
            if p > 1.0
            else np.where(t - t0 > 0, 1.0, -1.0),
            strictly_convex=p > 1.0,
            min_attained=True,
            minimizer=t0,
        )
    if name == "one_sided":
        # zero on the negative half line, strictly convex above: the family
        # for which equality can hold beyond the constant/translate classes
        return ConvexJ(
            "one_sided",
            lambda t: np.maximum(t, 0.0) ** 2,
            lambda t: 2.0 * np.maximum(t, 0.0),
            strictly_convex=False,
            min_attained=True,
            minimizer=0.0,
        )
    if name == "exp_increasing":
        # strictly convex, infimum 0 never attained
        return ConvexJ(
            "exp_increasing",
            lambda t: np.exp(t),
            lambda t: np.exp(t),
            strictly_convex=True,
            min_attained=False,
            minimizer=None,
        )
    raise UnknownCost(f"unknown cost name {name!r}")


def normalize(j: ConvexJ) -> ConvexJ:
    """Shift the argument by the minimizer and subtract the minimum.

    Result satisfies J(0) = 0 = min J.  Costs whose infimum is not attained
    cannot be normalized this way (they are still legal energy costs, only
    the layer machinery needs J(0) = 0).
    """
    if not j.min_attained or j.minimizer is None:
        raise NotNormalized(f"{j.name}: infimum not attained, cannot normalize")
    t0 = j.minimizer
    m = float(j.fn(np.asarray(t0)))
    if t0 == 0.0 and m == 0.0:
        return j
    return ConvexJ(
        f"{j.name}~normalized",
        lambda t: j.fn(np.asarray(t, dtype=float) + t0) - m,
        lambda t: j.deriv(np.asarray(t, dtype=float) + t0),
        j.strictly_convex,
        True,
        0.0,
    )


def _require_vanishing_at_zero(j: ConvexJ) -> None:
    if abs(float(j(0.0))) > 1e-14:
        raise NotNormalized(f"{j.name}: J(0) = {float(j(0.0))}, normalize first")


def split_plus_minus(j: ConvexJ) -> tuple[ConvexJ, ConvexJ]:
    """Split a normalized cost into its increasing and decreasing halves.

    J_plus agrees with J on [0, inf) and vanishes below; J_minus is the
    complement; J_plus + J_minus = J pointwise.
    """
    _require_vanishing_at_zero(j)

    plus = ConvexJ(
        f"{j.name}+",
        lambda t: np.where(np.asarray(t, float) >= 0.0, j.fn(np.asarray(t, float)), 0.0),
        lambda t: np.where(np.asarray(t, float) > 0.0, j.deriv(np.asarray(t, float)), 0.0),
        j.strictly_convex,
        True,
        0.0,
    )
    minus = ConvexJ(
        f"{j.name}-",
        lambda t: np.where(np.asarray(t, float) < 0.0, j.fn(np.asarray(t, float)), 0.0),
        lambda t: np.where(np.asarray(t, float) < 0.0, j.deriv(np.asarray(t, float)), 0.0),
        j.strictly_convex,
        True,
        0.0,
    )
    return plus, minus


@dataclass(frozen=True)
class EnergyResult:
    value: float

    def __post_init__(self):
        if not math.isfinite(self.value):  # a sum of finite values that overflowed
            raise ConfigError(f"the energy overflows: it came out {self.value}")
        if self.value < 0.0:
            raise NegativeEnergy(f"energy came out negative: {self.value}")


def _check_alignment(u: StepFunction, v: StepFunction, w: KernelWeights, periodic: bool):
    if u.grid != v.grid:
        raise GridMismatch("u and v must share one grid; refine to align first")
    if u.grid.periodic != periodic:
        kind = "periodic" if periodic else "interval"
        raise GridMismatch(f"this energy needs {kind} grids")
    if w.n != (u.grid.n,) or w.periodic != (periodic,):
        raise GridMismatch("weight table was built for a different grid")


def _pair_sum(f: np.ndarray, g: np.ndarray, cost, w: KernelWeights) -> float:
    """sum_{i,j} cost(f_i, g_j) W[j - i] over the cells of the table's grid."""
    return float(w.contract(offset_sums(f, g, cost, w.periodic)))


@np.errstate(over="ignore")  # an overflow shows as a total that is not finite
def _energy(u: StepFunction, v: StepFunction, j: ConvexJ, w: KernelWeights) -> EnergyResult:
    """sum_{i,j} J(u_i - v_j) W[j - i], plus on an interval J(u_i) and
    J(-v_j) against the exterior masses."""
    sums = offset_sums(u.values, v.values, lambda a, b: j(a - b), w.periodic)
    outside = () if w.periodic[0] else (j(u.values), j(-v.values))
    return EnergyResult(float(w.contract(sums, *outside)))


def energy_circle(
    u: StepFunction, v: StepFunction, j: ConvexJ, w: KernelWeights
) -> EnergyResult:
    """E[u, v] = sum_{i,j} J(u_i - v_j) W[j - i] over one period squared; exact."""
    _check_alignment(u, v, w, periodic=True)
    return _energy(u, v, j, w)


def energy_euclidean(
    u: StepFunction, v: StepFunction, j: ConvexJ, w: KernelWeights
) -> EnergyResult:
    """Whole-line energy of compactly supported step functions, exact tails.

    Outside the common box one function vanishes, so the exterior
    contributes J(u_i) and J(-v_j) against analytic per-cell tail masses;
    this needs J(0) = 0, otherwise the integral over the complement of the
    box diverges.
    """
    _check_alignment(u, v, w, periodic=False)
    if abs(float(j(0.0))) > 1e-14:
        raise DivergentTail(
            f"{j.name}: J(0) != 0 makes the energy over the unbounded "
            "complement infinite; normalize first"
        )
    if w.exterior is None:
        raise GridMismatch("weight table carries no exterior masses")
    return _energy(u, v, j, w)


@dataclass(frozen=True)
class LayerDecomposition:
    """Level decomposition of the one-sided energy.

    At each breakpoint tau the source term is
    sum_{i,j} J'(u_i - tau) W[j-i] and the interaction term restricts j to
    the strict superlevel set {v > tau}; ``integral`` is the exact level
    integral of (source - interaction), which reconstructs the one-sided
    energy.
    """

    breakpoints: np.ndarray
    source: np.ndarray
    interaction: np.ndarray
    integral: float


def level_source_term(
    u: StepFunction, j_plus: ConvexJ, w: KernelWeights, tau: float
) -> float:
    """sum_{i,j} J'(u_i - tau) W[j - i]; invariant under rearrangement of u."""
    return float(np.sum(j_plus.deriv(u.values - tau)) * w.row_sum())


def level_interaction_term(
    u: StepFunction, v: StepFunction, j_plus: ConvexJ, w: KernelWeights, tau: float
) -> float:
    """sum_{i, j: v_j > tau} J'(u_i - tau) W[j - i]; grows under rearrangement."""
    mask = (v.values > tau).astype(float)
    return _pair_sum(j_plus.deriv(u.values - tau), mask, np.multiply, w)


def ab_decomposition(
    u: StepFunction, v: StepFunction, j_plus: ConvexJ, w: KernelWeights
) -> LayerDecomposition:
    """Exact level decomposition of the one-sided energy.

    Breakpoints are the distinct values of u and v; on each level interval
    the superlevel sets are frozen and the level integral of the derivative
    telescopes through J itself, so the reconstruction is exact for every
    convex cost, with no quadrature.
    """
    _check_alignment(u, v, w, periodic=True)
    if float(j_plus(-1.0)) != 0.0 or float(j_plus(0.0)) != 0.0:
        raise NotNormalized("layer decomposition needs the one-sided (plus) part")
    levels = _distinct(np.concatenate(([0.0], u.values, v.values)))
    source = np.array([level_source_term(u, j_plus, w, t) for t in levels])
    interaction = np.array(
        [level_interaction_term(u, v, j_plus, w, t) for t in levels]
    )
    # per-interval integral: on [tau_k, tau_k+1) the superlevel set of v is
    # frozen and the antiderivative of J'(u_i - tau) in tau is -J(u_i - tau)
    integral = 0.0
    for a, b in zip(levels[:-1], levels[1:]):
        allowed = (v.values <= a).astype(float)
        integral += _pair_sum(j_plus(u.values - a) - j_plus(u.values - b), allowed, np.multiply, w)
    # final interval [tau_max, inf): the derivative already vanishes there
    integral += float(np.sum(j_plus(u.values - levels[-1]))) * w.row_sum()
    return LayerDecomposition(levels, source, interaction, integral)
