import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persym.errors import (
    ConfigError,
    IncompatibleGrids,
    NegativeValue,
    OutOfDomain,
    PersymError,
)
from persym.grid import (
    Grid1D,
    GridFunctionND,
    StepFunction,
    absolute_value,
    equimeasurable,
    function_from_json,
    function_to_json,
    layer_cake_value,
    refine,
    superlevel_measure,
)

from conftest import random_circle_function


def test_circle_grid_geometry():
    g = Grid1D.circle(4)
    assert g.h == pytest.approx(math.pi / 2)
    assert g.boundaries()[0] == pytest.approx(-math.pi)
    assert g.boundaries()[-1] == pytest.approx(math.pi)
    # periodic lookup wraps
    assert g.cell_of(math.pi + 0.1) == g.cell_of(-math.pi + 0.1)


def test_last_boundary_is_hi():
    # lo + n h overshoots hi by one ulp on this box
    g = Grid1D.interval(12, -2.6850435714719296, 0.7295159521014427)
    b = g.boundaries()
    assert b[0] == g.lo and b[-1] == g.hi
    assert np.all(np.diff(b) > 0)


def test_interval_grid_rejects_outside_points():
    g = Grid1D.interval(4, 0.0, 1.0)
    with pytest.raises(OutOfDomain):
        g.cell_of(1.5)


def test_nonnegativity_enforced():
    with pytest.raises(NegativeValue):
        StepFunction.on_circle([1.0, -0.5, 0.0, 2.0])
    u = absolute_value(Grid1D.circle(4), [1.0, -0.5, 0.0, 2.0])
    assert u.values.tolist() == [1.0, 0.5, 0.0, 2.0]


BAD_VALUES = [
    (math.nan, ConfigError),
    (math.inf, ConfigError),
    (-math.inf, NegativeValue),
    (-0.5, NegativeValue),
]


def _raises_exactly(kind, build):
    with pytest.raises(PersymError) as info:
        build()
    assert type(info.value) is kind


@pytest.mark.parametrize(
    "grid",
    [Grid1D.circle(5), Grid1D.interval(3, -1.0, 2.0), Grid1D.circle(1)],
    ids=["circle-5", "interval-3", "circle-1"],
)
def test_step_function_checks_its_values(grid):
    # every value check holds at each cell; -0.0 is a nonnegative value
    for bad, kind in BAD_VALUES:
        for at in range(grid.n):
            vals = np.ones(grid.n)
            vals[at] = bad
            _raises_exactly(kind, lambda: StepFunction(grid, vals))
    for vals in (np.ones(grid.n + 1), np.ones(grid.n - 1), np.ones((grid.n, 1)), 1.0):
        _raises_exactly(ConfigError, lambda: StepFunction(grid, vals))
    zero = StepFunction(grid, np.full(grid.n, -0.0))
    assert np.signbit(zero.values).all() and not zero.values.flags.writeable


ND_AXES = [
    (Grid1D.interval(1, -1.0, 1.0),),
    (Grid1D.interval(2, -1.0, 1.0),),
    (Grid1D.interval(3, -1.0, 1.0),),
    (Grid1D.interval(3, -1.0, 1.0), Grid1D.interval(4, 0.0, 2.0)),
    (),
]


@pytest.mark.parametrize("axes", ND_AXES, ids=["1-cell", "2-cell", "3-cell", "two-axes", "no-axis"])
def test_nd_function_checks_its_values(axes):
    g1 = Grid1D.circle(4)
    shape = (4,) + tuple(g.n for g in axes)
    if len(axes) != 1:  # the cylinder has one interval axis, whatever the values
        with pytest.raises(ConfigError, match=f"one interval axis, got {1 + len(axes)} axes"):
            GridFunctionND(g1, axes, np.zeros(shape))
        return
    interior = (slice(None),) + tuple(slice(1, -1) for _ in axes)
    for bad, kind in BAD_VALUES:
        for at in np.ndindex(shape):
            vals = np.zeros(shape)
            vals[at] = bad
            _raises_exactly(kind, lambda: GridFunctionND(g1, axes, vals))
    for wrong in (shape[:-1] + (shape[-1] + 1,), (5,) + shape[1:], shape + (1,), shape[:-1]):
        _raises_exactly(ConfigError, lambda: GridFunctionND(g1, axes, np.zeros(wrong)))
    # a nonzero value on the first or last cell of the interval axis
    for at in np.ndindex(shape):
        vals = np.zeros(shape)
        vals[at] = 1.0
        edge = any(i in (0, m - 1) for i, m in zip(at[1:], shape[1:]))
        if edge:
            _raises_exactly(ConfigError, lambda: GridFunctionND(g1, axes, vals))
        else:
            assert GridFunctionND(g1, axes, vals).values[at] == 1.0
    vals = np.full(shape, -0.0)
    vals[interior] = 1.0
    u = GridFunctionND(g1, axes, vals)
    assert np.signbit(u.values[0]).any() and not u.values.flags.writeable


def test_refine_examples():
    u = StepFunction(Grid1D.interval(2, 0.0, 1.0), [3.0, 1.0])
    assert refine(u, 2).values.tolist() == [3, 3, 1, 1]
    assert refine(u, 1) is u
    w = StepFunction.on_circle([0.0, 3.0, 1.0, 2.0])
    assert refine(w, 3).values.tolist() == [0, 0, 0, 3, 3, 3, 1, 1, 1, 2, 2, 2]
    assert refine(w, 3).grid.h == pytest.approx(w.grid.h / 3)


def test_refine_is_pointwise_equal(rng):
    u = random_circle_function(rng, n=6)
    v = refine(u, 4)
    for x in -math.pi + 2 * math.pi * rng.random(50):
        assert v(x) == u(x)


def test_superlevel_measure_examples():
    const2 = StepFunction.constant(Grid1D.circle(4), 2.0)
    assert superlevel_measure(const2, 1.0) == pytest.approx(2 * math.pi)
    assert superlevel_measure(const2, 2.0) == 0.0  # strict inequality
    u = StepFunction.on_circle([0.0, 3.0, 1.0, 2.0])
    assert superlevel_measure(u, 1.5) == pytest.approx(math.pi)


def test_superlevel_measure_monotone_right_continuous(rng):
    u = random_circle_function(rng, n=10, levels=4)
    taus = np.sort(rng.uniform(-0.5, 4.5, size=60))
    meas = [superlevel_measure(u, t) for t in taus]
    assert all(a >= b for a, b in zip(meas, meas[1:]))
    for t in np.unique(u.values):
        below = superlevel_measure(u, t)
        for eps in (1e-12, 1e-9, 1e-6):
            assert superlevel_measure(u, t + eps) == below  # right continuity


def test_equimeasurable_examples():
    a = StepFunction.on_circle([1.0, 2.0, 3.0, 0.0])
    b = StepFunction.on_circle([3.0, 0.0, 2.0, 1.0])
    assert equimeasurable(a, b)
    c = StepFunction(Grid1D.interval(2, 0.0, 1.0), [1.0, 1.0])
    d = StepFunction(Grid1D.interval(2, 0.0, 1.0), [2.0, 0.0])
    assert not equimeasurable(c, d)


def test_equimeasurable_across_refinements(rng):
    u = random_circle_function(rng, n=6)
    assert equimeasurable(u, refine(u, 3))
    assert equimeasurable(refine(u, 2), refine(u, 3))


def test_equimeasurable_rejects_different_lengths():
    u = StepFunction(Grid1D.interval(4, 0.0, 1.0), np.ones(4))
    v = StepFunction(Grid1D.interval(4, 0.0, 2.0), np.ones(4))
    with pytest.raises(IncompatibleGrids):
        equimeasurable(u, v)


@given(st.lists(st.integers(0, 3), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_equimeasurable_is_equivalence(vals):
    u = StepFunction.on_circle(np.array(vals, dtype=float))
    perm = np.roll(u.values, 1)
    v = u.with_values(perm)
    assert equimeasurable(u, u)
    assert equimeasurable(u, v) == equimeasurable(v, u)
    # permutation oracle: sorted values decide everything
    w = u.with_values(np.sort(u.values))
    assert equimeasurable(u, w)


def test_layer_cake_is_direct_lookup(rng):
    u = random_circle_function(rng, n=9)
    assert layer_cake_value(u, u.grid.centers()[1]) == u.values[1]
    for x in -math.pi + 2 * math.pi * rng.random(100):
        assert layer_cake_value(u, x) == u(x)
    const = StepFunction.constant(Grid1D.circle(5), 1.7)
    assert layer_cake_value(const, 0.3) == pytest.approx(1.7)


def test_nd_function_requires_compact_support():
    g1 = Grid1D.circle(4)
    g2 = Grid1D.centered_interval(4, 2.0)
    vals = np.ones((4, 4))
    with pytest.raises(ConfigError):
        GridFunctionND(g1, (g2,), vals)
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    u = GridFunctionND(g1, (g2,), vals)
    assert superlevel_measure(u, 0.5) == pytest.approx(8 * u.cell_volume)


def _circle_function(values):
    return StepFunction(Grid1D.circle(4), values)


def _cylinder_function(values):
    return GridFunctionND(Grid1D.circle(4), (Grid1D.interval(3, -1.0, 1.0),), values)


OWNERS = pytest.mark.parametrize(
    "build,shape", [(_circle_function, (4,)), (_cylinder_function, (4, 3))], ids=["1D", "2D"]
)


@OWNERS
def test_functions_leave_the_callers_array_writeable(build, shape):
    a = np.zeros(shape)
    u = build(a)
    assert a.flags.writeable and not u.values.flags.writeable
    a[1] = 5.0  # the function keeps its own values
    assert not u.values.any()


@OWNERS
def test_functions_own_their_values_not_a_view(build, shape):
    b = np.zeros((shape[0] + 2,) + shape[1:])
    u = build(b[: shape[0]])
    b[1] = 7.0  # a write to the base reaches no view held by the function
    assert not u.values.any()
    assert u.values.base is None and u.values.flags.c_contiguous


def test_json_round_trip(rng, tmp_path):
    u = random_circle_function(rng, n=7)
    obj = function_to_json(u)
    v = function_from_json(json.loads(json.dumps(obj)))
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)

    g2 = Grid1D.centered_interval(5, 3.0)
    vals = np.zeros((4, 5))
    vals[:, 2] = 1.0
    w = GridFunctionND(Grid1D.circle(4), (g2,), vals)
    w2 = function_from_json(function_to_json(w))
    assert np.array_equal(w2.values, w.values)
    assert w2.axes_perp == w.axes_perp
