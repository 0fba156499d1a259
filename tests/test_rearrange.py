import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persym.errors import NotIndicator, NotPeriodic
from persym.grid import (
    Grid1D,
    GridFunctionND,
    StepFunction,
    equimeasurable,
    refine,
    superlevel_measure,
)
from persym.rearrange import (
    _rearranged_values,
    composition_commutes_check,
    cylindrical_rearrange,
    periodic_rearrange_1d,
    periodic_rearrange_nd,
    placement_order,
    rearrange_set_cylindrical,
    rearrange_set_periodic,
    symmetric_decreasing_1d,
)

from conftest import random_circle_function, random_nd_function


def brute_force_rearrangement(u: StepFunction) -> np.ndarray:
    """Independent oracle: build u* from centered superlevel intervals.

    For each half-cell of the refined centered grid, the oracle value is the
    largest level whose centered interval of measure |{u > level}| covers the
    half-cell center.  Levels below the minimum of u cover everything.
    """
    n2 = 2 * u.grid.n
    centers = np.asarray(Grid1D.circle(n2).centers() if u.grid.periodic
                         else Grid1D.centered_interval(n2, u.grid.length).centers())
    levels = np.unique(u.values)
    out = np.full(n2, float(levels[0]) if levels[0] == u.values.min() else 0.0)
    out[:] = float(u.values.min())
    for lev in levels:
        m = superlevel_measure(u, lev)
        inside = np.abs(centers) < m / 2
        # value on the centered interval exceeds lev; next distinct level caps it
        higher = levels[levels > lev]
        cap = float(higher.min()) if higher.size else float(lev)
        out[inside] = np.maximum(out[inside], cap)
    return out


def test_placement_order_structure():
    order = placement_order(8)
    assert order.tolist() == [4, 3, 5, 2, 6, 1, 7, 0]
    assert sorted(order.tolist()) == list(range(8))
    centers = Grid1D.circle(8).centers()
    dists = np.abs(centers[order])
    assert np.all(np.diff(dists) >= -1e-15)


def _placed_by_order(values: np.ndarray, axis: int) -> np.ndarray:
    """The rearranged values as the placement order writes them: doubled,
    sorted descending and written along ``placement_order``."""
    doubled = np.repeat(values, 2, axis=axis)
    out = np.empty_like(doubled)
    out[(slice(None),) * axis + (placement_order(doubled.shape[axis]),)] = -np.sort(-doubled, axis=axis)
    return out


def test_closed_form_places_values_as_placement_order(rng):
    # byte for byte without -0.0; with both zeros in one input, the two sorts
    # may order them differently, so equal as values only
    for shape in [(1,), (2,), (7,), (16,), (3, 1), (6, 8), (5, 4, 3)]:
        for vals in (rng.random(shape), rng.integers(0, 3, shape).astype(float)):
            for axis in range(len(shape)):
                got = _rearranged_values(vals, axis)
                assert got.tobytes() == _placed_by_order(vals, axis).tobytes()
    zeros = np.array([0.0, -0.0, 1.0, -0.0, 0.0, 2.0, 0.0])
    assert np.array_equal(_rearranged_values(zeros, 0), _placed_by_order(zeros, 0))
    negative_zeros = np.array([-0.0, 1.0, -0.0, 3.0])
    got = _rearranged_values(negative_zeros, 0)
    assert got.tobytes() == _placed_by_order(negative_zeros, 0).tobytes()


def test_rearranged_values_per_axis_match_1d(rng):
    vals = rng.integers(0, 4, (6, 8)).astype(float)
    vals[2] = 2.0 * rng.random(8)
    g0, g1 = Grid1D.circle(6), Grid1D.interval(8, -1.0, 3.0)
    along0 = _rearranged_values(vals, axis=0)
    along1 = _rearranged_values(vals, axis=1)
    assert along0.shape == (12, 8) and along1.shape == (6, 16)
    for j in range(8):
        star = symmetric_decreasing_1d(StepFunction(g0, vals[:, j]))
        assert np.array_equal(along0[:, j], star.values)
    for i in range(6):
        star = symmetric_decreasing_1d(StepFunction(g1, vals[i]))
        assert np.array_equal(along1[i], star.values)


def test_rearrange_spec_example():
    u = StepFunction.on_circle([0.0, 3.0, 1.0, 2.0])
    star = periodic_rearrange_1d(u)
    expected = brute_force_rearrangement(u)
    assert star.values.tolist() == expected.tolist()
    # the largest value sits astride the center, then 2, then 1, then 0
    assert star.values.tolist() == [0, 1, 2, 3, 3, 2, 1, 0]
    assert equimeasurable(u, star)
    for tau in (-0.5, 0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        assert superlevel_measure(star, tau) == pytest.approx(
            superlevel_measure(u, tau)
        )


def test_rearrange_fixes_constants_and_symmetric_input():
    c = StepFunction.constant(Grid1D.circle(6), 2.5)
    assert periodic_rearrange_1d(c).values.tolist() == [2.5] * 12
    # indicator of the centered arc (-pi/2, pi/2) is already rearranged
    e = StepFunction.on_circle([0.0, 1.0, 1.0, 0.0])
    star = rearrange_set_periodic(e)
    assert star.values.tolist() == refine(e, 2).values.tolist()


def test_rearrange_requires_periodic_grid():
    u = StepFunction(Grid1D.interval(4, 0.0, 1.0), np.ones(4))
    with pytest.raises(NotPeriodic):
        periodic_rearrange_1d(u)


def test_interval_rearrangement_recenters():
    u = StepFunction(Grid1D.interval(4, 1.0, 3.0), [0.0, 2.0, 0.0, 0.0])
    star = symmetric_decreasing_1d(u)
    assert star.grid.lo == pytest.approx(-1.0)
    assert star.grid.hi == pytest.approx(1.0)
    assert star.values.tolist() == [0, 0, 0, 2, 2, 0, 0, 0]


def test_rearranged_oracle_agreement_randomized(rng):
    for _ in range(300):
        n = int(rng.integers(2, 12))
        u = random_circle_function(rng, n=n, levels=int(rng.integers(2, 5)))
        star = periodic_rearrange_1d(u)
        assert np.array_equal(star.values, brute_force_rearrangement(u))


def test_rearrangement_symmetry_and_monotone(rng):
    for _ in range(100):
        u = random_circle_function(rng, n=int(rng.integers(2, 10)))
        w = periodic_rearrange_1d(u).values
        n2 = w.size
        assert np.array_equal(w, w[::-1])  # exact mirror symmetry
        right = w[n2 // 2:]
        assert np.all(np.diff(right) <= 0)  # nonincreasing in |x|


def test_idempotence(rng):
    for _ in range(100):
        u = random_circle_function(rng, n=int(rng.integers(2, 9)))
        star = periodic_rearrange_1d(u)
        again = periodic_rearrange_1d(star)
        assert np.array_equal(again.values, refine(star, 2).values)


def test_level_set_compatibility(rng):
    for _ in range(100):
        u = random_circle_function(rng, n=6, levels=3)
        star = periodic_rearrange_1d(u)
        for tau in (0.0, 0.5, 1.0, 1.5):
            e = u.with_values((u.values > tau).astype(float))
            lhs = (star.values > tau).astype(float)
            rhs = rearrange_set_periodic(e).values
            assert np.array_equal(lhs, rhs)


def test_order_preservation(rng):
    for _ in range(100):
        n = int(rng.integers(2, 9))
        u = random_circle_function(rng, n=n)
        v = u.with_values(u.values + rng.random(n))
        su, sv = periodic_rearrange_1d(u), periodic_rearrange_1d(v)
        assert np.all(su.values <= sv.values + 1e-15)


def test_four_periodic_two_bump_example():
    # 4-periodic chi_(-1,2) + chi_(-1,0), carried onto [-pi, pi) by dilation:
    # cells (-2,-1),(-1,0),(0,1),(1,2) |-> values 0, 2, 1, 1
    u = StepFunction.on_circle([0.0, 2.0, 1.0, 1.0])
    star = periodic_rearrange_1d(u)
    # rearranged: chi_(-1,2) + chi_(0,1) centered, i.e. on half cells
    assert star.values.tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 0.0]
    assert equimeasurable(u, star)


def test_set_rearrangement_merges_arcs(rng):
    e = StepFunction.on_circle([1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    star = rearrange_set_periodic(e)
    ones = np.flatnonzero(star.values == 1.0)
    assert np.all(np.diff(ones) == 1)  # single centered arc
    assert star.values.sum() * star.h == pytest.approx(e.values.sum() * e.h)
    with pytest.raises(NotIndicator):
        rearrange_set_periodic(StepFunction.on_circle([0.0, 2.0]))
    for _ in range(200):
        b = random_circle_function(rng, n=8, levels=2)
        assert np.array_equal(
            rearrange_set_periodic(b).values, periodic_rearrange_1d(b).values
        )


@given(
    st.lists(st.integers(0, 4), min_size=2, max_size=8),
    st.lists(st.integers(0, 5), min_size=6, max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_composition_commutes(uvals, steps):
    u = StepFunction.on_circle(np.array(uvals, dtype=float))
    jumps = np.cumsum(np.array(steps, dtype=float))

    def staircase(t):
        t = np.asarray(t, dtype=float)
        return np.searchsorted(np.arange(1, 7), t, side="right") * 0.0 + np.interp(
            t, np.arange(6), jumps
        )

    assert composition_commutes_check(staircase, u)
    assert composition_commutes_check(lambda t: t, u)
    assert composition_commutes_check(lambda t: np.full_like(np.asarray(t, float), 2.0), u)


def test_periodic_rearrange_nd_slicewise(rng):
    u = random_nd_function(rng, n1=8, n2=8)
    star = periodic_rearrange_nd(u)
    for j in range(1, 7):
        col = StepFunction.on_circle(u.values[:, j])
        assert np.array_equal(star.values[:, j], periodic_rearrange_1d(col).values)
    # product structure: f(x1) g(x2) rearranges to f* g
    f = rng.random(8)
    gvals = np.concatenate(([0.0], rng.random(6), [0.0]))
    prod = np.outer(f, gvals)
    up = GridFunctionND(u.axis1, u.axes_perp, prod)
    sp = periodic_rearrange_nd(up)
    fstar = periodic_rearrange_1d(StepFunction.on_circle(f)).values
    assert np.allclose(sp.values, np.outer(fstar, gvals))


def test_cylindrical_rearrange_1d_slices(rng):
    u = random_nd_function(rng, n1=6, n2=8)
    star = cylindrical_rearrange(u)
    assert star.values.shape == (6, 16)
    for i in range(6):
        row = StepFunction(u.axes_perp[0], u.values[i])
        assert np.array_equal(star.values[i], symmetric_decreasing_1d(row).values)
    # a shifted slab becomes the centered slab
    vals = np.zeros((6, 8))
    vals[:, 4:6] = 1.0
    slab = GridFunctionND(u.axis1, u.axes_perp, vals)
    sslab = rearrange_set_cylindrical(slab)
    assert np.array_equal(
        sslab.values, np.tile(np.array([0.0] * 6 + [1.0] * 4 + [0.0] * 6), (6, 1))
    )


def test_rearrange_commutes_with_scaling(rng):
    for _ in range(50):
        u = random_circle_function(rng, n=7)
        c = float(rng.uniform(0.5, 3.0))
        left = periodic_rearrange_1d(u.with_values(c * u.values)).values
        right = c * periodic_rearrange_1d(u).values
        assert np.allclose(left, right, rtol=0, atol=1e-15 * c)


def test_idempotence_nd_operators(rng):
    u = random_nd_function(rng, n1=4, n2=6)
    per = periodic_rearrange_nd(u)
    again = periodic_rearrange_nd(per)
    assert np.array_equal(again.values, np.repeat(per.values, 2, axis=0))
    cyl = cylindrical_rearrange(u)
    again_c = cylindrical_rearrange(cyl)
    assert np.array_equal(again_c.values, np.repeat(cyl.values, 2, axis=1))
