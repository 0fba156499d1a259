import dataclasses
import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from persym.errors import BudgetExceeded, ConfigError, KernelNotMonotone, NotNormalized
from persym.functionals import j_library
from persym.grid import Grid1D, GridFunctionND, StepFunction
from persym.kernels import GaussianKernel, HeatKernel, StepKernelCircle
from persym.rearrange import symmetric_decreasing_1d
from persym.seminorm import SeminormParams
import persym.verify
from persym.verify import (
    check_nonexpansivity_circle,
    check_nonexpansivity_euclidean,
    check_polya_cylindrical,
    check_polya_periodic,
    check_riesz_circle,
    classify_equality,
    exhaustive_oracle_circle,
    levelwise_pair,
    run_suite,
    symmetric_decreasing_instance,
)

from conftest import random_circle_function, random_interval_function, random_nd_function


class TestClassify:
    def test_constant_case(self, rng):
        u = StepFunction.constant(Grid1D.circle(8), 1.5)
        v = random_circle_function(rng, n=8)
        assert classify_equality(u, v, "circle").tag == "constant"

    def test_common_translate_by_construction(self, rng):
        g = Grid1D.circle(8)
        u = symmetric_decreasing_instance(rng, g, shift=3)
        v = symmetric_decreasing_instance(rng, g, shift=3)
        cls = classify_equality(u, v, "circle")
        assert cls.tag == "common-translate"

    def test_different_shifts_are_not_common(self, rng):
        g = Grid1D.circle(8)
        u = symmetric_decreasing_instance(rng, g, shift=1)
        v = symmetric_decreasing_instance(rng, g, shift=3)
        cls = classify_equality(u, v, "circle")
        assert cls.tag in ("neither", "levelwise-translate")
        assert cls.tag != "common-translate"

    def test_levelwise_pair_detected(self, rng):
        g = Grid1D.circle(10)
        for _ in range(20):
            u, v = levelwise_pair(rng, g)
            cls = classify_equality(u, v, "circle")
            assert cls.predicts_equality

    def test_two_bump_levelwise_only(self):
        u = StepFunction.on_circle([0.0, 2.0, 1.0, 1.0])
        cls = classify_equality(u, context="periodic-ps")
        assert cls.tag == "levelwise-translate"
        # two level sets are intervals centered at different points
        shifts = dict(cls.level_shifts)
        assert shifts[0.0] != shifts[1.0]

    def test_euclidean_zero_and_translate(self, rng):
        g = Grid1D.interval(8, -2.0, 2.0)
        z = StepFunction.constant(g, 0.0)
        u = random_interval_function(rng, n=8)
        assert classify_equality(u, z, "euclidean").tag == "zero"
        w = symmetric_decreasing_instance(rng, g)
        assert classify_equality(w, w, "euclidean").tag == "common-translate"

    def test_circle_pair_memory_is_bounded(self, rng):
        # two rearranged functions at shifts 1 and 3 on 256 cells: the masks
        # of every level, not every rotation of the rearrangement
        g = Grid1D.circle(256)
        u = symmetric_decreasing_instance(rng, g, shift=1)
        v = symmetric_decreasing_instance(rng, g, shift=3)
        tracemalloc.start()
        try:
            cls = classify_equality(u, v, "circle")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cls.tag == "neither"
        assert peak < 4 * 2**20

    def test_sup_inf_separated_pair_is_vacuous_levelwise(self):
        u = StepFunction.on_circle([0.0, 1.0, 0.5, 0.0])
        v = StepFunction.on_circle([2.0, 3.0, 2.5, 2.0])
        cls = classify_equality(u, v, "circle")
        assert cls.tag == "levelwise-translate"
        assert cls.level_shifts == ()


def _roll_shifts(a, b):
    """The z with a == np.roll(b, -z), in increasing order."""
    return [z for z in range(a.size) if np.array_equal(a, np.roll(b, -z))]


def _oracle_rotations(cols, taus):
    """Circle classes of the columns of cols (n x k) by explicit rolls."""
    rows = [np.repeat(c, 2) for c in cols.T]
    stars = [symmetric_decreasing_1d(StepFunction.on_circle(c)).values for c in cols.T]
    common = set.intersection(*(set(_roll_shifts(r, s)) for r, s in zip(rows, stars)))
    if common:
        return ("common-translate", float(min(common)), ())
    shifts = []
    for tau in taus:
        ok = set.intersection(
            *(set(_roll_shifts(r > tau, s > tau)) for r, s in zip(rows, stars))
        )
        if not ok:
            return ("neither", None, ())
        shifts.append((float(tau), float(min(ok))))
    return ("levelwise-translate", None, tuple(shifts))


def _oracle_translate(vals, grid):
    """Strip-and-compare: the a with u = u*(. - a) on the line, or None."""
    ur = np.repeat(vals, 2)
    star = symmetric_decreasing_1d(StepFunction(grid, vals)).values
    nz_u, nz_s = np.flatnonzero(ur), np.flatnonzero(star)
    if nz_u.size == 0:
        return None
    if not np.array_equal(ur[nz_u[0] : nz_u[-1] + 1], star[nz_s[0] : nz_s[-1] + 1]):
        return None
    hh = grid.h / 2.0
    return (grid.lo + nz_u[0] * hh) - (-grid.length / 2.0 + nz_s[0] * hh)


def _oracle_center(mask, grid):
    """Centre of the cells of mask (base grid, repeated onto half cells) if
    they form one contiguous run, else None."""
    nz = np.flatnonzero(np.repeat(mask, 2))
    for a, b in zip(nz, nz[1:]):
        if b != a + 1:
            return None
    return grid.lo + 0.5 * (nz[0] + nz[-1] + 1) * (grid.h / 2.0)


def _oracle_runs(rows, grid, levels):
    """Line classes of the nonzero rows: translates by strip-and-compare,
    levelwise by an explicit per-level contiguity check."""
    rows = [r for r in rows if r.any()]
    shifts = [_oracle_translate(r, grid) for r in rows]
    if all(a is not None for a in shifts) and all(abs(a - shifts[0]) <= 1e-9 for a in shifts):
        return ("common-translate", shifts[0], ())
    out = []
    for tau in levels:
        centres = [_oracle_center(r > tau, grid) for r in rows if (r > tau).any()]
        if any(c is None for c in centres) or max(centres) - min(centres) > 1e-9:
            return ("neither", None, ())
        out.append((float(tau), centres[0]))
    return ("levelwise-translate", None, tuple(out))


def _oracle_class(u, v, context):
    if context == "circle":
        if u.is_constant() or v.is_constant():
            return ("constant", None, ())
        lo = max(u.values.min(), v.values.min())
        hi = min(u.values.max(), v.values.max())
        levels = np.unique(np.concatenate((u.values, v.values)))
        shared = levels[(levels >= lo) & (levels < hi)]
        return _oracle_rotations(np.stack((u.values, v.values), 1), shared)
    if context == "euclidean":
        if not u.values.any() or not v.values.any():
            return ("zero", None, ())
        hi = min(u.values.max(), v.values.max())
        levels = np.unique(np.concatenate((u.values, v.values)))
        return _oracle_runs([u.values, v.values], u.grid, levels[levels < hi])
    levels = np.unique(u.values)
    if context == "periodic-ps":
        return _oracle_rotations(u.values, levels[levels < levels[-1]])
    if not u.values.any():
        return ("zero", None, ())
    return _oracle_runs(list(u.values), u.axes_perp[0], levels[levels < levels[-1]])


def _assert_same_class(cls, ref):
    tag, shift, level_shifts = ref
    assert cls.tag == tag
    if tag == "common-translate":
        assert cls.shift == pytest.approx(shift, abs=1e-12)
    assert len(cls.level_shifts) == len(level_shifts)
    for (t0, s0), (t1, s1) in zip(cls.level_shifts, level_shifts):
        assert t0 == t1 and s0 == pytest.approx(s1, abs=1e-12)


def _placed(rng, n, m, at):
    """A centred symmetric decreasing block of m (even) cells placed at
    cell ``at`` of n zero cells."""
    vals = np.zeros(n)
    vals[at : at + m] = symmetric_decreasing_instance(rng, Grid1D.circle(m)).values
    return np.round(vals)


class TestClassifyOracle:
    """classify_equality against brute-force loops on quantized inputs."""

    BOXES = ((-2.0, 2.0), (0.0, 3.0), (1.0, 2.5))

    def test_circle_pairs(self, rng):
        for k in range(150):
            n = int(rng.choice([2, 3, 4, 6, 8]))
            g = Grid1D.circle(n)
            if k % 3 == 0 and n % 2 == 0:  # mirror pairs need an even cell count
                shift = int(rng.integers(n))
                pair = [
                    symmetric_decreasing_instance(rng, g, shift).values.round() for _ in range(2)
                ]
            else:
                pair = [rng.integers(0, 3, n).astype(float) for _ in range(2)]
            if k % 5 == 0:
                pair[1] = pair[0]
            u, v = (StepFunction(g, x) for x in pair)
            _assert_same_class(classify_equality(u, v, "circle"), _oracle_class(u, v, "circle"))
            _assert_same_class(
                classify_equality(u, context="periodic-ps"), _oracle_class(u, u, "circle")
            )

    def test_circle_pairs_n16(self, rng):
        # continuous and quantized pairs on 16 cells: translates of a
        # rearrangement, levelwise pairs and random values, where most
        # shared levels are not one arc in some function
        g = Grid1D.circle(16)
        for k in range(80):
            shift = int(rng.integers(16))
            kind = k % 4
            if kind == 0:
                pair = [symmetric_decreasing_instance(rng, g, shift).values for _ in range(2)]
            elif kind == 1:
                pair = [x.values for x in levelwise_pair(rng, g, n_levels=1 + k % 3)]
            elif kind == 2:
                pair = [3.0 * rng.random(16) for _ in range(2)]
            else:
                pair = [rng.integers(0, 3, 16).astype(float) for _ in range(2)]
            if k % 8 < 4:
                pair = [x.round() for x in pair]
            if k % 5 == 0:
                pair[1] = pair[0]
            u, v = (StepFunction(g, x) for x in pair)
            _assert_same_class(classify_equality(u, v, "circle"), _oracle_class(u, v, "circle"))
            _assert_same_class(
                classify_equality(u, context="periodic-ps"), _oracle_class(u, u, "circle")
            )

    @pytest.mark.parametrize(
        "context,u,v,shifts",
        [
            # v's set at level 3 is two arcs, above the levels u reaches
            ("circle", [0, 1, 2, 1, 0, 0, 0, 0], [0, 4, 3, 4, 0, 0, 0, 0], [(0.0, 3.0), (1.0, 3.0)]),
            # u's set at level 0 is two arcs, below the levels v crosses
            ("circle", [1, 0, 2, 0, 1, 1, 1, 1], [1, 1, 2, 1, 1, 1, 1, 1], [(1.0, 3.0)]),
            # v's set at level 2 is two runs, above u's maximum
            ("euclidean", [0, 1, 2, 1, 0], [0, 3, 2, 3, 0], [(0.0, 0.0), (1.0, 0.0)]),
        ],
    )
    def test_splits_outside_the_shared_levels(self, context, u, v, shifts):
        # a set that is not one run, at a level the pair does not share, rules
        # out the common translate but not the levelwise class
        g = Grid1D.circle(len(u)) if context == "circle" else Grid1D.interval(len(u), -2.5, 2.5)
        u, v = StepFunction(g, u), StepFunction(g, v)
        cls = classify_equality(u, v, context)
        assert cls.tag == "levelwise-translate" and list(cls.level_shifts) == shifts
        _assert_same_class(cls, _oracle_class(u, v, context))

    def test_line_pairs(self, rng):
        for k in range(200):
            n = int(rng.choice([2, 3, 5, 6, 8]))
            g = Grid1D.interval(n, *self.BOXES[k % 3])
            if k % 4 == 0 and n >= 2:
                m = 2 * int(rng.integers(1, n // 2 + 1))
                at = int(rng.integers(0, n - m + 1))
                at_v = at if k % 8 == 0 else int(rng.integers(0, n - m + 1))
                pair = [_placed(rng, n, m, at), _placed(rng, n, m, at_v)]
            else:
                pair = [rng.integers(0, 3, n).astype(float) for _ in range(2)]
            if k % 7 == 0:
                pair[1] = pair[0]
            u, v = (StepFunction(g, x) for x in pair)
            _assert_same_class(
                classify_equality(u, v, "euclidean"), _oracle_class(u, v, "euclidean")
            )

    def test_cylinders(self, rng):
        for k in range(150):
            n1, n2 = int(rng.choice([1, 2, 4])), int(rng.choice([4, 5, 8]))
            if k % 3 == 0:
                m, at = 2, int(rng.integers(1, n2 - 2))
                rows = [_placed(rng, n2, m, at) * (rng.random() < 0.7) for _ in range(n1)]
                vals = np.stack(rows)
            else:
                vals = rng.integers(0, 3, (n1, n2)).astype(float)
                vals[rng.random(n1) < 0.3] = 0.0  # zero rows
            vals[:, 0] = vals[:, -1] = 0.0
            g2 = Grid1D.interval(n2, *self.BOXES[k % 3])
            u = GridFunctionND(Grid1D.circle(n1), (g2,), vals)
            _assert_same_class(
                classify_equality(u, context="cylindrical-ps"), _oracle_class(u, None, "cylinder")
            )

    def test_periodic_nd(self, rng):
        for k in range(100):
            n1, n2 = int(rng.choice([2, 4, 6])), int(rng.choice([3, 4]))
            if k % 3 == 0:
                shift = int(rng.integers(n1))
                g1 = Grid1D.circle(n1)
                cols = [
                    symmetric_decreasing_instance(rng, g1, shift).values.round() for _ in range(n2)
                ]
                vals = np.stack(cols, 1)
            else:
                vals = rng.integers(0, 3, (n1, n2)).astype(float)
            vals[:, 0] = vals[:, -1] = 0.0
            u = GridFunctionND(Grid1D.circle(n1), (Grid1D.centered_interval(n2, 3.0),), vals)
            _assert_same_class(
                classify_equality(u, context="periodic-ps"), _oracle_class(u, None, "periodic-ps")
            )

    def test_one_cell_circle(self):
        for x, y in ((1.5, 1.5), (0.0, 2.0)):
            u, v = StepFunction.on_circle([x]), StepFunction.on_circle([y])
            _assert_same_class(classify_equality(u, v, "circle"), _oracle_class(u, v, "circle"))
            _assert_same_class(
                classify_equality(u, context="periodic-ps"), _oracle_class(u, u, "circle")
            )
        vals = np.array([[0.0, 1.0, 2.0, 0.0]])
        u = GridFunctionND(Grid1D.circle(1), (Grid1D.centered_interval(4, 3.0),), vals)
        cls = classify_equality(u, context="periodic-ps")
        _assert_same_class(cls, _oracle_class(u, None, "periodic-ps"))
        assert cls.shift == 0.0

    def test_periodic_nd_constant_columns(self, rng):
        # every interior column constant along x1: no superlevel set is a
        # proper arc, so every rotation fits and the shift is 0
        for n1 in (1, 2, 5, 8):
            vals = np.zeros((n1, 5))
            vals[:, 1:-1] = rng.integers(1, 4, 3).astype(float)
            u = GridFunctionND(Grid1D.circle(n1), (Grid1D.centered_interval(5, 3.0),), vals)
            cls = classify_equality(u, context="periodic-ps")
            _assert_same_class(cls, _oracle_class(u, None, "periodic-ps"))
            assert (cls.tag, cls.shift) == ("common-translate", 0.0)

    def test_arcs_across_the_seam(self, rng):
        # nested arcs through cell 0 and cell n - 1, some above a constant
        # floor: one arc per level, or two where a cell inside is zeroed
        for n in range(2, 9):
            g = Grid1D.circle(n)
            for _ in range(25):
                pair = []
                for _ in range(2):
                    vals = np.full(n, float(rng.integers(0, 2)))
                    length = int(rng.integers(1, n))
                    start = int(rng.integers(n - length + 1, n + 1))
                    vals[(start + np.arange(length)) % n] += 1.0
                    inner = int(rng.integers(0, length + 1))
                    at = start + int(rng.integers(0, length - inner + 1))
                    vals[(at + np.arange(inner)) % n] += 1.0
                    if rng.random() < 0.2:
                        vals[(start + int(rng.integers(length))) % n] = 0.0
                    pair.append(vals)
                if rng.random() < 0.3:
                    pair[1] = pair[0]
                u, v = (StepFunction(g, x) for x in pair)
                _assert_same_class(
                    classify_equality(u, v, "circle"), _oracle_class(u, v, "circle")
                )
                _assert_same_class(
                    classify_equality(u, context="periodic-ps"), _oracle_class(u, u, "circle")
                )
                zero = np.zeros(n)
                vals = np.stack([zero, *pair, zero], 1)
                w = GridFunctionND(g, (Grid1D.centered_interval(4, 3.0),), vals)
                _assert_same_class(
                    classify_equality(w, context="periodic-ps"),
                    _oracle_class(w, None, "periodic-ps"),
                )


class TestClassifyConfig:
    def test_circle_pair_of_two_sizes(self, rng):
        u, v = random_circle_function(rng, n=4), random_circle_function(rng, n=6)
        with pytest.raises(ConfigError):
            classify_equality(u, v, "circle")

    def test_line_pair_on_two_boxes(self):
        u = StepFunction(Grid1D.interval(4, -2.0, 2.0), [0.0, 1.0, 1.0, 0.0])
        v = StepFunction(Grid1D.interval(4, -1.0, 1.0), [0.0, 1.0, 1.0, 0.0])
        with pytest.raises(ConfigError):
            classify_equality(u, v, "euclidean")

    def test_periodic_input_to_euclidean(self, rng):
        u = random_circle_function(rng, n=6)
        with pytest.raises(ConfigError):
            classify_equality(u, u, "euclidean")
        w = StepFunction(Grid1D.interval(4, 0.0, 1.0), np.ones(4))
        with pytest.raises(ConfigError):
            classify_equality(w, context="circle")


class TestInstanceBuilders:
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_symmetric_decreasing_instance_needs_even_n(self, rng, n):
        # mirror pairs need an even cell count; odd ones are refused, not
        # filled by broadcasting (a constant on 3 cells, a numpy error on 1 and 5)
        g = Grid1D.circle(n)
        if n % 2:
            with pytest.raises(ConfigError, match="even cell count"):
                symmetric_decreasing_instance(rng, g)
        else:
            u = symmetric_decreasing_instance(rng, g, shift=1)
            assert classify_equality(u, context="periodic-ps").predicts_equality

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levelwise_pair_needs_three_cells(self, rng, n):
        # arcs of even length below n: on 1 or 2 cells both functions came
        # out constant
        g = Grid1D.circle(n)
        if n <= 2:
            with pytest.raises(ConfigError, match="at least 3 cells"):
                levelwise_pair(rng, g)
        else:
            u, v = levelwise_pair(rng, g)
            assert u.values.min() < u.values.max() and v.values.min() < v.values.max()
            assert classify_equality(u, v, "circle").predicts_equality


class TestRieszCircle:
    def test_constant_gives_zero_margin(self, rng):
        g = Grid1D.circle(8)
        f = StepFunction.constant(g, 1.2)
        h = random_circle_function(rng, n=8)
        res = check_riesz_circle(f, h, HeatKernel(0.5))
        assert abs(res.margin) <= res.bound

    def test_common_translates_give_zero_margin(self, rng):
        g = Grid1D.circle(10)
        for shift in (0, 2, 7):
            f = symmetric_decreasing_instance(rng, g, shift)
            h = symmetric_decreasing_instance(rng, g, shift)
            res = check_riesz_circle(f, h, HeatKernel(1.0))
            assert abs(res.margin) <= res.bound

    def test_random_margins_nonnegative(self, rng):
        g = Grid1D.circle(8)
        for _ in range(100):
            f = random_circle_function(rng, n=8)
            h = random_circle_function(rng, n=8)
            res = check_riesz_circle(f, h, HeatKernel(0.25))
            assert res.margin >= -res.bound

    def test_step_kernel_margins_nonnegative(self, rng):
        g = Grid1D.circle(8)
        for _ in range(50):
            kern = StepKernelCircle(StepFunction(g, rng.random(8)))
            f = random_circle_function(rng, n=8)
            h = random_circle_function(rng, n=8)
            res = check_riesz_circle(f, h, kern)
            assert res.margin >= -res.bound  # exact tables: bound ~ 1e-12


class TestNonexpansivityCircle:
    @pytest.mark.parametrize(
        "jname,params",
        [
            ("abs", {}),
            ("power", {"p": 1.5}),
            ("power", {"p": 2}),
            ("power", {"p": 4}),
            ("shifted_power", {"p": 2, "t0": 0.5}),
            ("exp_increasing", {}),
            ("one_sided", {}),
        ],
    )
    def test_margins_nonnegative(self, jname, params, rng):
        j = j_library(jname, **params)
        g = Grid1D.circle(8)
        for _ in range(40):
            u = random_circle_function(rng, n=8)
            v = random_circle_function(rng, n=8)
            res = check_nonexpansivity_circle(u, v, j, HeatKernel(0.5))
            assert res.margin >= -res.bound

    def test_constant_v_strictly_convex_zero(self, rng):
        j = j_library("power", p=2)
        g = Grid1D.circle(8)
        u = random_circle_function(rng, n=8)
        v = StepFunction.constant(g, 0.7)
        res = check_nonexpansivity_circle(u, v, j, HeatKernel(1.0))
        assert abs(res.margin) <= res.bound

    def test_abs_sup_inf_separation_zero(self, rng):
        # sup u <= inf v forces equality for the |t| cost
        j = j_library("abs")
        u = StepFunction.on_circle(rng.random(8))
        v = StepFunction.on_circle(1.0 + rng.random(8))
        res = check_nonexpansivity_circle(u, v, j, HeatKernel(0.5))
        assert abs(res.margin) <= res.bound

    def test_internal_layer_checks_run(self, rng):
        j = j_library("power", p=2)
        u = random_circle_function(rng, n=8)
        v = random_circle_function(rng, n=8)
        res = check_nonexpansivity_circle(u, v, j, HeatKernel(0.5), internal_checks=True)
        assert res.margin >= -res.bound

    def test_levelwise_pair_zero_for_abs_positive_for_square(self, rng):
        g = Grid1D.circle(10)
        found_positive = False
        for _ in range(20):
            u, v = levelwise_pair(rng, g)
            res_abs = check_nonexpansivity_circle(u, v, j_library("abs"), HeatKernel(1.0))
            assert abs(res_abs.margin) <= res_abs.bound
            cls = classify_equality(u, v, "circle")
            if cls.tag == "levelwise-translate" and len(set(s for _, s in cls.level_shifts)) > 1:
                res_sq = check_nonexpansivity_circle(
                    u, v, j_library("power", p=2), HeatKernel(1.0)
                )
                if res_sq.margin > res_sq.bound:
                    found_positive = True
        assert found_positive


class TestNonexpansivityEuclidean:
    def test_zero_function_equality_any_cost(self, rng):
        g = Grid1D.interval(10, -2.0, 2.0)
        zero = StepFunction.constant(g, 0.0)
        for jname in ("abs", "power"):
            j = j_library(jname) if jname == "abs" else j_library(jname, p=2)
            u = random_interval_function(rng, n=10)
            res = check_nonexpansivity_euclidean(u, zero, j, GaussianKernel(1.0))
            assert abs(res.margin) <= res.bound

    def test_centered_symmetric_pair_zero(self, rng):
        g = Grid1D.interval(8, -1.0, 1.0)
        u = symmetric_decreasing_instance(rng, g)
        v = symmetric_decreasing_instance(rng, g)
        res = check_nonexpansivity_euclidean(u, v, j_library("power", p=2), GaussianKernel(0.7))
        assert abs(res.margin) <= res.bound

    def test_random_margins_nonnegative(self, rng):
        g = Grid1D.interval(8, -2.0, 2.0)
        for _ in range(60):
            u = random_interval_function(rng, n=8)
            v = random_interval_function(rng, n=8)
            res = check_nonexpansivity_euclidean(u, v, j_library("power", p=2), GaussianKernel(1.0))
            assert res.margin >= -res.bound

    def test_rejects_nonvanishing_cost(self, rng):
        g = Grid1D.interval(6, -1.0, 1.0)
        u = random_interval_function(rng, n=6)
        with pytest.raises(NotNormalized):
            check_nonexpansivity_euclidean(
                u, u, j_library("shifted_power", p=2, t0=1.0), GaussianKernel(1.0)
            )


class TestPolya:
    def test_fixed_point_zero_margin(self, rng):
        g = Grid1D.circle(8)
        u = symmetric_decreasing_instance(rng, g, shift=0)
        res = check_polya_periodic(u, SeminormParams(0.4, 2.0))
        assert abs(res.margin) <= res.bound
        assert abs(res.margin_laplace) <= 1e-6 * max(res.value, 1.0)

    def test_random_margins_nonnegative_1d(self, rng):
        for _ in range(40):
            u = random_circle_function(rng, n=int(rng.choice([6, 8, 12])))
            s, p = [(0.2, 1.0), (0.3, 2.0), (0.7, 1.0)][int(rng.integers(3))]
            res = check_polya_periodic(u, SeminormParams(s, p))
            assert res.margin >= -res.bound

    def test_random_margins_nonnegative_2d(self, rng):
        for _ in range(6):
            u = random_nd_function(rng, n1=8, n2=8)
            res = check_polya_periodic(u, SeminormParams(0.3, 1.0, 2))
            assert res.margin >= -res.bound
            res_c = check_polya_cylindrical(u, SeminormParams(0.3, 1.0, 2))
            assert res_c.margin >= -res_c.bound

    def test_cylindrical_fixed_point(self, rng):
        # slicewise symmetric decreasing about the box center: margin 0
        vals = np.zeros((6, 8))
        for i in range(6):
            row = symmetric_decreasing_instance(rng, Grid1D.circle(8)).values
            vals[i] = np.sort(row)[[0, 2, 4, 6, 7, 5, 3, 1]]
        vals[:, 0] = 0.0
        vals[:, -1] = 0.0
        u = GridFunctionND(Grid1D.circle(6), (Grid1D.centered_interval(8, 4.0),), vals)
        res = check_polya_cylindrical(u, SeminormParams(0.4, 1.0, 2))
        assert res.margin >= -res.bound

    def test_levelwise_instance_p1_zero_p2_positive(self, rng):
        g = Grid1D.circle(12)
        for _ in range(10):
            u, _ = levelwise_pair(rng, g)
            r1 = check_polya_periodic(u, SeminormParams(0.4, 1.0))
            assert abs(r1.margin) <= r1.bound
        # a two-bump whose level sets are differently-centered intervals
        u = StepFunction.on_circle([0.0, 2.0, 1.0, 1.0])
        r2 = check_polya_periodic(u, SeminormParams(0.3, 2.0))
        assert r2.margin > 1e-3


class TestExhaustive:
    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            exhaustive_oracle_circle(6, 3, j_library("power", p=2), HeatKernel(1.0))

    def test_binary_square_cost(self):
        rep = exhaustive_oracle_circle(4, 2, j_library("power", p=2), HeatKernel(1.0))
        assert rep.cases_run == 256
        assert not rep.failures
        assert rep.indeterminate == 0

    def test_needs_monotone_kernel(self):
        kern = StepKernelCircle(StepFunction.constant(Grid1D.circle(4), 1.0))
        with pytest.raises(KernelNotMonotone):
            exhaustive_oracle_circle(4, 2, j_library("power", p=2), kern)

    def test_one_sided_cost_has_extra_equalities(self):
        # with 3 levels the sup/inf-separated family realizes equality
        # without the constant or translate structure
        j = j_library("one_sided")
        rep = exhaustive_oracle_circle(4, 3, j, HeatKernel(1.0))
        assert not rep.failures
        extra = [
            r
            for r in rep.rows
            if r.class_observed == "zero" and r.class_predicted == "neither"
        ]
        assert extra  # equality cases strictly exceed the two classes


class TestRunSuite:
    def test_deterministic(self):
        a = run_suite(["nonexp-circle"], seed=3, cases=40)
        b = run_suite(["nonexp-circle"], seed=3, cases=40)
        assert [r.margin for r in a.rows] == [r.margin for r in b.rows]
        c = run_suite(["nonexp-circle"], seed=4, cases=40)
        assert [r.margin for r in a.rows] != [r.margin for r in c.rows]

    def test_dual_route_gap_fails_polya_cases(self, monkeypatch):
        both = persym.verify.gagliardo_periodic

        def skewed(u, params):
            direct, laplace = both(u, params)
            return direct, dataclasses.replace(laplace, value=laplace.value * (1.0 + 1e-3))

        monkeypatch.setattr(persym.verify, "gagliardo_periodic", skewed)
        rep = run_suite("polya-per", cases=4)
        assert rep.failures

    def test_all_suites_pass(self):
        rep = run_suite("all", seed=7, cases=30)
        assert rep.passed, rep.failures[:3]
        assert rep.cases_run > 0
        assert rep.min_margin >= -rep.bound

    def test_report_structure_is_pinned(self):
        # the columns of `persym verify --suite all --seed 7 --cases 200` that
        # no libm rounding can move: which cases run, in which order, and
        # their classes and statuses
        rep = run_suite("all", seed=7, cases=200)
        text = "".join(
            "\t".join((r.suite, r.case_id, r.class_predicted, r.class_observed, r.status)) + "\n"
            for r in rep.rows
        )
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "6da6d1353d1d9ee6d9ed82498df1f8cb9af4285fb6d23dd5c0d721e76457e1ce"
        assert rep.cases_run == 1512
        assert rep.min_margin >= -rep.bound


class TestClassifyPeriodicND:
    def test_common_translate_across_slices(self, rng):
        g1 = Grid1D.circle(8)
        shift = 3
        cols = [
            np.roll(symmetric_decreasing_instance(rng, g1).values, shift)
            for _ in range(6)
        ]
        vals = np.stack(cols, axis=1)
        vals[:, 0] = 0.0
        vals[:, -1] = 0.0
        u = GridFunctionND(g1, (Grid1D.centered_interval(6, 3.0),), vals)
        cls = classify_equality(u, context="periodic-ps")
        assert cls.tag == "common-translate"
        res = check_polya_periodic(u, SeminormParams(0.4, 2.0, 2))
        assert abs(res.margin) <= res.bound

    def test_mismatched_slice_shifts_not_common(self, rng):
        g1 = Grid1D.circle(8)
        base = symmetric_decreasing_instance(rng, g1).values
        vals = np.zeros((8, 6))
        vals[:, 1] = np.roll(base, 1)
        vals[:, 2] = np.roll(base, 4)
        u = GridFunctionND(g1, (Grid1D.centered_interval(6, 3.0),), vals)
        cls = classify_equality(u, context="periodic-ps")
        assert cls.tag != "common-translate"
        res = check_polya_periodic(u, SeminormParams(0.3, 2.0, 2))
        assert res.margin > res.bound  # p > 1: no translate, strict inequality


def test_checks_load_no_numpy_ma():
    # numpy's unique imports numpy.ma on its first call (about 10 ms of a
    # cold process); every check, the classifier and the other level sweeps
    # take distinct values without it
    src = os.path.dirname(os.path.dirname(persym.__file__))
    code = """
import sys
import numpy as np
from persym import *
from persym.functionals import ab_decomposition, split_plus_minus
c = Grid1D.circle(8)
u, v = StepFunction(c, [0, 1, 2, 3, 2, 1, 0, 0]), StepFunction(c, [1, 0, 0, 2, 2, 0, 1, 3])
line = Grid1D.interval(8, -2.0, 2.0)
a, b = StepFunction(line, u.values), StepFunction(line, v.values)
vals = np.zeros((6, 6))
vals[:, 1:5] = np.arange(24.0).reshape(6, 4) % 5
w = GridFunctionND(Grid1D.circle(6), (Grid1D.centered_interval(6, 3.0),), vals)
cost = j_library("power", p=2)
check_riesz_circle(u, v, HeatKernel(0.5))
check_nonexpansivity_circle(u, v, cost, HeatKernel(0.5), internal_checks=True)
check_nonexpansivity_euclidean(a, b, cost, GaussianKernel(1.0))
check_polya_periodic(u, SeminormParams(0.3, 1.0))
check_polya_periodic(w, SeminormParams(0.3, 1.0, 2))
check_polya_cylindrical(w, SeminormParams(0.3, 1.0, 2))
for args in ((u, v, "circle"), (a, b, "euclidean"), (u, None, "periodic-ps"), (w, None, "cylindrical-ps")):
    classify_equality(*args)
ab_decomposition(u, v, split_plus_minus(normalize(cost))[0], HeatKernel(0.5).weights(c))
coarea_identity_check(u, 0.4)
layer_cake_value(u, 0.1)
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.splitlines()[-1] == "False"
