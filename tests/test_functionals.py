import math

import numpy as np
import pytest

from persym.errors import DivergentTail, GridMismatch, NotNormalized, PersymError, UnknownCost
from persym.functionals import (
    EnergyResult,
    ab_decomposition,
    energy_circle,
    energy_euclidean,
    j_library,
    level_interaction_term,
    level_source_term,
    normalize,
    split_plus_minus,
)
from persym.grid import Grid1D, StepFunction, refine
from persym.kernels import (
    HeatKernel,
    gaussian_weights_interval,
    heat_weights_periodic,
)
from persym.rearrange import periodic_rearrange_1d

from conftest import random_circle_function, random_interval_function


def dense_weights(w):
    """Dense reference M[i, j] = W[(j - i) % n] of a periodic table."""
    (n,) = w.n
    i = np.arange(n)
    return w.weights[(i[None, :] - i[:, None]) % n]


class TestCostLibrary:
    def test_flags(self):
        p2 = j_library("power", p=2)
        assert p2.strictly_convex and p2.min_attained and p2.minimizer == 0.0
        ab = j_library("abs")
        assert not ab.strictly_convex and ab.min_attained
        exp = j_library("exp_increasing")
        assert not exp.min_attained and exp.strictly_convex
        one = j_library("one_sided")
        assert not one.strictly_convex
        assert float(one(-3.0)) == 0.0
        with pytest.raises(UnknownCost):
            j_library("power", p=0.5)
        with pytest.raises(UnknownCost):
            j_library("nope")

    @pytest.mark.parametrize(
        "name,params",
        [
            ("abs", {}),
            ("power", {"p": 1.5}),
            ("power", {"p": 2}),
            ("power", {"p": 4}),
            ("shifted_power", {"p": 2, "t0": 0.7}),
            ("one_sided", {}),
            ("exp_increasing", {}),
        ],
    )
    def test_convexity_and_monotone_derivative(self, name, params, rng):
        j = j_library(name, **params)
        a = rng.uniform(-4, 4, 300)
        b = rng.uniform(-4, 4, 300)
        mid = j((a + b) / 2)
        assert np.all(mid <= (j(a) + j(b)) / 2 + 1e-12)
        ts = np.sort(rng.uniform(-4, 4, 300))
        assert np.all(np.diff(j.deriv(ts)) >= -1e-12)
        assert np.all(j(ts) >= -1e-15)

    def test_normalize_shifted(self):
        j = j_library("shifted_power", p=2, t0=1.5)
        jn = normalize(j)
        assert float(jn(0.0)) == pytest.approx(0.0, abs=1e-15)
        assert float(jn(2.0)) == pytest.approx(float(j(3.5)), rel=1e-14)
        with pytest.raises(NotNormalized):
            normalize(j_library("exp_increasing"))

    def test_split_examples(self, rng):
        jp, jm = split_plus_minus(j_library("abs"))
        ts = rng.uniform(-3, 3, 100)
        assert np.allclose(jp(ts), np.maximum(ts, 0.0))
        assert np.allclose(jm(ts), np.maximum(-ts, 0.0))
        jp2, jm2 = split_plus_minus(j_library("power", p=2))
        assert np.allclose(jp2(ts) + jm2(ts), ts**2, rtol=1e-14)
        assert np.all(jp2(ts[ts < 0]) == 0.0)
        with pytest.raises(NotNormalized):
            split_plus_minus(j_library("shifted_power", p=2, t0=1.0))

    def test_split_reconstructs_random_piecewise_quadratic(self, rng):
        # random normalized convex piecewise-quadratic: J(t) = a t^2 + b |t|
        a1, b1 = rng.uniform(0.2, 2.0, 2)
        j = j_library("power", p=2)
        two = j_library("abs")
        pts = rng.uniform(-5, 5, 1000)
        jp, jm = split_plus_minus(j)
        ap, am = split_plus_minus(two)
        mix = lambda t: a1 * j(t) + b1 * two(t)
        mix_split = lambda t: a1 * (jp(t) + jm(t)) + b1 * (ap(t) + am(t))
        assert np.allclose(mix(pts), mix_split(pts), rtol=1e-13)


class TestEnergyCircle:
    def test_constants_give_row_mass_times_cost(self, rng):
        g = Grid1D.circle(8)
        w = heat_weights_periodic(g, 0.7)
        u = StepFunction.constant(g, 1.3)
        v = StepFunction.constant(g, 1.3)
        e = energy_circle(u, v, j_library("power", p=2), w)
        assert e.value == pytest.approx(0.0, abs=1e-14)
        e2 = energy_circle(u, StepFunction.constant(g, 0.3), j_library("abs"), w)
        assert e2.value == pytest.approx(8 * w.row_sum() * 1.0, rel=1e-12)

    def test_quadratic_expansion_oracle(self, rng):
        # (u - v)^2 = u^2 + v^2 - 2 u v termwise against the bilinear form
        g = Grid1D.circle(10)
        w = heat_weights_periodic(g, 0.4)
        mat = dense_weights(w)
        for _ in range(20):
            u = random_circle_function(rng, n=10)
            v = random_circle_function(rng, n=10)
            direct = energy_circle(u, v, j_library("power", p=2), w).value
            uu = float(np.sum((u.values**2)[:, None] * mat))
            vv = float(np.sum((v.values**2)[None, :] * mat))
            cross = float(u.values @ mat @ v.values)
            assert direct == pytest.approx(uu + vv - 2 * cross, rel=1e-12)

    def test_indicator_abs_oracle(self, rng):
        # |chi_A - chi_B| = chi_A chi_{B^c} + chi_{A^c} chi_B
        g = Grid1D.circle(12)
        w = heat_weights_periodic(g, 1.1)
        mat = dense_weights(w)
        for _ in range(20):
            a = (rng.random(12) < 0.5).astype(float)
            b = (rng.random(12) < 0.5).astype(float)
            u, v = StepFunction(g, a), StepFunction(g, b)
            direct = energy_circle(u, v, j_library("abs"), w).value
            ref = float(a @ mat @ (1 - b)) + float((1 - a) @ mat @ b)
            assert direct == pytest.approx(ref, rel=1e-12, abs=1e-15)

    def test_symmetry_under_swap_and_reflection(self, rng):
        g = Grid1D.circle(9)
        w = heat_weights_periodic(g, 0.6)
        j = j_library("power", p=3)
        u = random_circle_function(rng, n=9)
        v = random_circle_function(rng, n=9)
        a = energy_circle(u, v, j, w).value
        b = energy_circle(v, u, j.reflected(), w).value
        assert a == pytest.approx(b, rel=1e-13)

    def test_grid_mismatch(self, rng):
        g = Grid1D.circle(8)
        w = heat_weights_periodic(g, 0.5)
        u = random_circle_function(rng, n=8)
        v = random_circle_function(rng, n=16)
        with pytest.raises(GridMismatch):
            energy_circle(u, v, j_library("abs"), w)
        with pytest.raises(GridMismatch):
            energy_circle(refine(u, 2), refine(v, 1), j_library("abs"), w)


def test_negative_energy_is_a_persym_error():
    # the CLI reports a PersymError as one "error:" line, not a traceback
    with pytest.raises(PersymError):
        EnergyResult(-1.0)


class TestEnergyEuclidean:
    def test_zero_functions(self):
        g = Grid1D.interval(6, -1.0, 1.0)
        w = gaussian_weights_interval(g, 1.0)
        z = StepFunction.constant(g, 0.0)
        assert energy_euclidean(z, z, j_library("abs"), w).value == 0.0

    def test_indicator_against_erf_closed_form(self):
        # u = chi_[-1,1], v = 0, J = |t|: |u(x) - v(y)| = u(x), so the energy
        # is |supp u| times the total Gaussian mass sqrt(pi / t)
        t = 0.9
        g = Grid1D.interval(8, -1.0, 1.0)
        w = gaussian_weights_interval(g, t)
        u = StepFunction.constant(g, 1.0)
        v = StepFunction.constant(g, 0.0)
        e = energy_euclidean(u, v, j_library("abs"), w)
        assert e.value == pytest.approx(2.0 * math.sqrt(math.pi / t), rel=1e-12)

    def test_shrinking_support_monotone(self, rng):
        g = Grid1D.interval(10, -2.0, 2.0)
        w = gaussian_weights_interval(g, 0.8)
        j = j_library("power", p=2)
        vals = rng.random(10)
        prev = None
        for keep in (10, 6, 3, 0):
            cut = vals.copy()
            cut[keep:] = 0.0
            e = energy_euclidean(
                StepFunction(g, cut), StepFunction.constant(g, 0.0), j, w
            ).value
            if prev is not None:
                assert e <= prev + 1e-14
            prev = e
        assert prev == 0.0

    def test_rejects_nonvanishing_at_zero(self):
        g = Grid1D.interval(4, 0.0, 1.0)
        w = gaussian_weights_interval(g, 1.0)
        u = StepFunction.constant(g, 1.0)
        with pytest.raises(DivergentTail):
            energy_euclidean(u, u, j_library("shifted_power", p=2, t0=0.5), w)

    def test_box_extension_invariance(self, rng):
        # embedding the functions in a wider zero-padded box must not change
        # the energy: the analytic tails are doing their job
        t = 1.2
        j = j_library("power", p=2)
        small = Grid1D.interval(6, -1.0, 1.0)
        u = random_interval_function(rng, n=6, lo=-1.0, hi=1.0)
        v = random_interval_function(rng, n=6, lo=-1.0, hi=1.0)
        e1 = energy_euclidean(u, v, j, gaussian_weights_interval(small, t)).value
        wide = Grid1D.interval(18, -3.0, 3.0)
        pad = np.zeros(18)
        uw, vw = pad.copy(), pad.copy()
        uw[6:12], vw[6:12] = u.values, v.values
        e2 = energy_euclidean(
            StepFunction(wide, uw),
            StepFunction(wide, vw),
            j,
            gaussian_weights_interval(wide, t),
        ).value
        assert e1 == pytest.approx(e2, rel=1e-11)


class TestLayerDecomposition:
    def test_interaction_zero_when_v_zero(self, rng):
        g = Grid1D.circle(8)
        w = heat_weights_periodic(g, 0.5)
        u = random_circle_function(rng, n=8)
        v = StepFunction.constant(g, 0.0)
        jp, _ = split_plus_minus(j_library("power", p=2))
        dec = ab_decomposition(u, v, jp, w)
        assert np.all(dec.interaction == 0.0)
        e = energy_circle(u, v, jp, w).value
        assert dec.integral == pytest.approx(e, rel=1e-12)

    @pytest.mark.parametrize("name,params", [("abs", {}), ("power", {"p": 2}), ("power", {"p": 1.5})])
    def test_reconstruction_matches_energy(self, name, params, rng):
        g = Grid1D.circle(10)
        w = heat_weights_periodic(g, 0.8)
        jp, _ = split_plus_minus(j_library(name, **params))
        for _ in range(25):
            u = random_circle_function(rng, n=10, levels=4)
            v = random_circle_function(rng, n=10, levels=4)
            dec = ab_decomposition(u, v, jp, w)
            e = energy_circle(u, v, jp, w).value
            assert dec.integral == pytest.approx(e, rel=1e-10, abs=1e-13)

    def test_source_dominates_interaction(self, rng):
        g = Grid1D.circle(8)
        w = heat_weights_periodic(g, 0.5)
        jp, _ = split_plus_minus(j_library("power", p=2))
        for _ in range(25):
            u = random_circle_function(rng, n=8)
            v = random_circle_function(rng, n=8)
            dec = ab_decomposition(u, v, jp, w)
            assert np.all(dec.source >= dec.interaction - 1e-12)
            assert np.all(dec.interaction >= -1e-15)

    def test_source_invariant_under_rearrangement(self, rng):
        # the source term only sees the value distribution of u and the total
        # kernel mass, both preserved exactly by rearrangement
        g = Grid1D.circle(8)
        kern = HeatKernel(0.7)
        w = kern.weights(g)
        w2 = kern.weights(g.refined(2))
        jp, _ = split_plus_minus(j_library("power", p=2))
        for _ in range(25):
            u = random_circle_function(rng, n=8, levels=4)
            star = periodic_rearrange_1d(u)
            for tau in np.unique(u.values):
                assert level_source_term(u, jp, w, tau) == pytest.approx(
                    level_source_term(star, jp, w2, tau), rel=1e-12, abs=1e-14
                )

    def test_interaction_grows_under_rearrangement(self, rng):
        g = Grid1D.circle(8)
        kern = HeatKernel(0.9)
        w = kern.weights(g)
        w2 = kern.weights(g.refined(2))
        jp, _ = split_plus_minus(j_library("power", p=2))
        for _ in range(50):
            u = random_circle_function(rng, n=8, levels=4)
            v = random_circle_function(rng, n=8, levels=4)
            su, sv = periodic_rearrange_1d(u), periodic_rearrange_1d(v)
            for tau in (0.5, 1.5, 2.5):
                before = level_interaction_term(u, v, jp, w, tau)
                after = level_interaction_term(su, sv, jp, w2, tau)
                assert after >= before - 1e-12 * max(1.0, before)


def test_energy_exact_under_refinement(rng):
    # the same pair on a refined grid with the refined table gives the same
    # energy to machine precision
    kern = HeatKernel(0.8)
    g = Grid1D.circle(6)
    u = random_circle_function(rng, n=6)
    v = random_circle_function(rng, n=6)
    j = j_library("power", p=2)
    base = energy_circle(u, v, j, kern.weights(g)).value
    for k in (2, 3):
        ref = energy_circle(
            refine(u, k), refine(v, k), j, kern.weights(g.refined(k))
        ).value
        assert ref == pytest.approx(base, rel=1e-12)
