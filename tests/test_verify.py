import dataclasses

import numpy as np
import pytest

from persym.errors import BudgetExceeded, KernelNotMonotone, NotNormalized
from persym.functionals import j_library
from persym.grid import Grid1D, GridFunctionND, StepFunction
from persym.kernels import GaussianKernel, HeatKernel, StepKernelCircle
from persym.seminorm import SeminormParams
import persym.verify
from persym.verify import (
    _rotation_mask,
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


def _roll_reference(a, b):
    """Shifts z with a == np.roll(b, -z), one np.roll per shift."""
    return np.array([np.array_equal(a, np.roll(b, -z)) for z in range(a.size)])


class TestRotationMask:
    def test_random_floats(self, rng):
        for n in (1, 2, 5, 16):
            a = rng.random(n)
            for b in (rng.random(n), np.roll(a, int(rng.integers(n))), a):
                assert np.array_equal(_rotation_mask(a, b), _roll_reference(a, b))

    def test_bool_masks(self, rng):
        for _ in range(50):
            a = rng.random(12) > 0.5
            for b in (rng.random(12) > 0.5, np.roll(a, int(rng.integers(12)))):
                assert np.array_equal(_rotation_mask(a, b), _roll_reference(a, b))

    def test_periodic_pattern_has_several_shifts(self):
        a = np.tile([2.0, 0.0, 1.0], 4)
        b = np.roll(a, 5)
        mask = _rotation_mask(a, b)
        assert np.array_equal(mask, _roll_reference(a, b))
        assert np.flatnonzero(mask).tolist() == [2, 5, 8, 11]

    def test_leading_axes_are_batch_axes(self, rng):
        a = rng.integers(0, 2, (3, 4, 8)).astype(float)
        b = np.roll(a, 3, axis=-1)
        b[0, 1] = rng.random(8)
        mask = _rotation_mask(a, b)
        assert mask.shape == (3, 4, 8)
        for i in range(3):
            for j in range(4):
                assert np.array_equal(mask[i, j], _roll_reference(a[i, j], b[i, j]))


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

    def test_sup_inf_separated_pair_is_vacuous_levelwise(self):
        u = StepFunction.on_circle([0.0, 1.0, 0.5, 0.0])
        v = StepFunction.on_circle([2.0, 3.0, 2.5, 2.0])
        cls = classify_equality(u, v, "circle")
        assert cls.tag == "levelwise-translate"
        assert cls.level_shifts == ()


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

    def test_monotone_guard(self, rng):
        g = Grid1D.circle(8)
        kern = StepKernelCircle(StepFunction.constant(g, 1.0))
        f = random_circle_function(rng, n=8)
        with pytest.raises(KernelNotMonotone):
            check_riesz_circle(f, f, kern, equality_analysis=True)


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
        laplace = persym.verify.gagliardo_periodic_laplace

        def skewed(u, params):
            res = laplace(u, params)
            return dataclasses.replace(res, value=res.value * (1.0 + 1e-3))

        monkeypatch.setattr(persym.verify, "gagliardo_periodic_laplace", skewed)
        rep = run_suite("polya-per", cases=4)
        assert rep.failures

    def test_all_suites_pass(self):
        rep = run_suite("all", seed=7, cases=30)
        assert rep.passed, rep.failures[:3]
        assert rep.cases_run > 0
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
