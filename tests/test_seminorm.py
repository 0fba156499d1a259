import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import persym
from persym import cli, kernels, seminorm
from persym.errors import ConfigError, NotIndicator
from persym.grid import Grid1D, GridFunctionND, StepFunction, function_to_json, refine, save_function
from persym.seminorm import (
    SeminormParams,
    coarea_identity_check,
    fractional_perimeter,
    gagliardo_periodic,
    gagliardo_periodic_direct,
    gagliardo_periodic_laplace,
)

from conftest import hurwitz_periodized_reference, random_circle_function, random_nd_function


class TestParams:
    def test_derived_exponents(self):
        p = SeminormParams(0.4, 2.0, n=2)
        assert p.sigma == pytest.approx(0.8)
        assert p.lam == pytest.approx(1.4)
        assert p.step_mode_finite
        assert not SeminormParams(0.6, 2.0).step_mode_finite
        with pytest.raises(ConfigError):
            SeminormParams(1.2, 1.0)
        with pytest.raises(ConfigError):
            SeminormParams(0.5, 0.5)


class TestDirectRoute:
    def test_constant_vanishes(self):
        u = StepFunction.constant(Grid1D.circle(8), 2.7)
        for p in (1.0, 2.0):
            r = gagliardo_periodic_direct(u, SeminormParams(0.4, p))
            assert r.value == 0.0 and not r.divergent

    def test_translation_invariance(self, rng):
        u = random_circle_function(rng, n=12)
        params = SeminormParams(0.3, 2.0)
        base = gagliardo_periodic_direct(u, params).value
        for k in (1, 3, 7):
            shifted = u.with_values(np.roll(u.values, k))
            assert gagliardo_periodic_direct(shifted, params).value == pytest.approx(
                base, rel=1e-13
            )

    def test_refinement_stability(self, rng):
        u = random_circle_function(rng, n=6)
        params = SeminormParams(0.45, 1.0)
        base = gagliardo_periodic_direct(u, params).value
        for k in (2, 3, 4):
            r = gagliardo_periodic_direct(refine(u, k), params).value
            assert r == pytest.approx(base, rel=1e-12)

    def test_divergence_signal(self, rng):
        u = random_circle_function(rng, n=8, levels=3)
        if u.is_constant():
            u = u.with_values(u.values + np.arange(8.0))
        for s, p in [(0.6, 2.0), (0.5, 2.0), (0.95, 1.1)]:
            r = gagliardo_periodic_direct(u, SeminormParams(s, p))
            assert r.divergent and r.value == math.inf
        const = StepFunction.constant(Grid1D.circle(8), 1.0)
        r = gagliardo_periodic_direct(const, SeminormParams(0.6, 2.0))
        assert r.value == 0.0 and not r.divergent

    def test_scaling_homogeneity(self, rng):
        u = random_circle_function(rng, n=10)
        params = SeminormParams(0.35, 2.0)
        a = gagliardo_periodic_direct(u, params).value
        b = gagliardo_periodic_direct(u.with_values(2.0 * u.values), params).value
        assert b == pytest.approx(2.0 * a, rel=1e-13)


@pytest.mark.parametrize("route", [gagliardo_periodic_direct, gagliardo_periodic_laplace])
def test_input_dimension_must_match_params(route, rng):
    u1 = random_circle_function(rng, n=8)
    u2 = random_nd_function(rng, n1=4, n2=4)
    with pytest.raises(ConfigError, match=r"params\.n == 1"):
        route(u1, SeminormParams(0.3, 1.0, n=2))
    with pytest.raises(ConfigError, match=r"params\.n == 2"):
        route(u2, SeminormParams(0.3, 1.0, n=1))


class TestDualRoute:
    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("s,p", [(0.2, 1.0), (0.4, 2.0), (0.7, 1.0)])
    def test_1d_agreement(self, n, s, p, rng):
        params = SeminormParams(s, p, 1)
        for _ in range(3):
            u = random_circle_function(rng, n=n)
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            assert b == pytest.approx(a, rel=1e-6)

    @pytest.mark.parametrize("s", [0.2, 0.4, 0.7])
    def test_2d_agreement(self, s, rng):
        params = SeminormParams(s, 1.0, 2)
        for _ in range(2):
            u = random_nd_function(rng, n1=8, n2=8)
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            assert b == pytest.approx(a, rel=1e-6)

    def test_2d_constant_in_x1(self, rng):
        # function constant along the periodic axis still has cross-column
        # energy; both routes must agree on it
        col = np.concatenate(([0.0], rng.random(6), [0.0]))
        vals = np.tile(col, (8, 1))
        u = GridFunctionND(
            Grid1D.circle(8), (Grid1D.centered_interval(8, 4.0),), vals
        )
        params = SeminormParams(0.5, 1.0, 2)
        a = gagliardo_periodic_direct(u, params).value
        b = gagliardo_periodic_laplace(u, params).value
        assert b == pytest.approx(a, rel=1e-6)

    def test_laplace_divergence_signal(self, rng):
        u = random_circle_function(rng, n=8, levels=2)
        u = u.with_values(u.values + np.array([0, 1, 0, 0, 0, 0, 0, 0.0]))
        r = gagliardo_periodic_laplace(u, SeminormParams(0.7, 2.0))
        assert r.divergent


class TestPerimeter:
    def test_empty_and_full(self):
        g = Grid1D.circle(8)
        assert fractional_perimeter(StepFunction.constant(g, 0.0), 0.5) == 0.0
        assert fractional_perimeter(StepFunction.constant(g, 1.0), 0.5) == 0.0

    def test_rejects_non_indicator(self):
        with pytest.raises(NotIndicator):
            fractional_perimeter(StepFunction.on_circle([0.0, 2.0]), 0.5)

    def test_complement_symmetry(self, rng):
        for _ in range(200):
            n = int(rng.integers(4, 20))
            e = StepFunction.on_circle((rng.random(n) < 0.5).astype(float))
            a = fractional_perimeter(e, 0.5)
            b = fractional_perimeter(e.with_values(1.0 - e.values), 0.5)
            assert a == pytest.approx(b, rel=1e-13, abs=1e-15)

    def test_half_seminorm_identity(self, rng):
        for _ in range(50):
            e = StepFunction.on_circle((rng.random(16) < 0.4).astype(float))
            semi = gagliardo_periodic_direct(e, SeminormParams(0.5, 1.0)).value
            per = fractional_perimeter(e, 0.5)
            assert semi == pytest.approx(2.0 * per, rel=1e-13, abs=1e-15)

    def test_2d_half_seminorm_identity(self, rng):
        vals = np.zeros((6, 6))
        vals[1:4, 2:4] = 1.0
        e = GridFunctionND(
            Grid1D.circle(6), (Grid1D.centered_interval(6, 3.0),), vals
        )
        semi = gagliardo_periodic_direct(e, SeminormParams(0.4, 1.0, 2)).value
        per = fractional_perimeter(e, 0.4)
        assert semi == pytest.approx(2.0 * per, rel=1e-12)


class TestCoarea:
    def test_single_level(self, rng):
        e = StepFunction.on_circle((rng.random(10) < 0.5).astype(float))
        c = 1.7
        u = e.with_values(c * e.values)
        assert coarea_identity_check(u, 0.3) < 1e-13
        # both sides equal 2 c P_s(E)
        semi = gagliardo_periodic_direct(u, SeminormParams(0.3, 1.0)).value
        assert semi == pytest.approx(2 * c * fractional_perimeter(e, 0.3), rel=1e-13)

    def test_constant(self):
        u = StepFunction.constant(Grid1D.circle(6), 3.0)
        assert coarea_identity_check(u, 0.5) == 0.0

    @pytest.mark.parametrize("s", [0.3, 0.5])
    def test_randomized(self, s, rng):
        for _ in range(100):
            n = int(rng.integers(3, 16))
            if rng.random() < 0.5:
                u = random_circle_function(rng, n=n, levels=4)
            else:
                u = random_circle_function(rng, n=n)
            assert coarea_identity_check(u, s) <= 1e-12


class TestEdgeRegimes:
    """Tiny circles, extreme exponents, and asymmetric boxes stay dual-route
    consistent (the algebraic head/tail continuations cover what the
    trapezoid window cannot represent in float64)."""

    def test_tiny_circles(self, rng):
        for n in (1, 2, 3, 5):
            u = StepFunction.on_circle(2 * rng.random(n))
            params = SeminormParams(0.4, 1.0)
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            if a == 0.0:
                assert b == pytest.approx(0.0, abs=1e-12)
            else:
                assert b == pytest.approx(a, rel=1e-9)
            assert coarea_identity_check(u, 0.5) <= 1e-12

    @pytest.mark.parametrize("s,p", [(0.01, 1.0), (0.99, 1.0), (0.05, 2.0), (0.33, 2.99)])
    def test_extreme_exponents_1d(self, s, p, rng):
        u = StepFunction.on_circle(2 * rng.random(8))
        params = SeminormParams(s, p)
        a = gagliardo_periodic_direct(u, params).value
        b = gagliardo_periodic_laplace(u, params).value
        assert b == pytest.approx(a, rel=1e-6)

    @pytest.mark.parametrize("n1,n2,lo,hi", [(2, 8, -2.0, 2.0), (1, 6, 0.0, 3.0), (4, 6, -1.0, 3.0)])
    def test_small_or_asymmetric_2d(self, n1, n2, lo, hi, rng):
        g2 = Grid1D.interval(n2, lo, hi)
        vals = rng.random((n1, n2))
        vals[:, 0] = 0.0
        vals[:, -1] = 0.0
        u = GridFunctionND(Grid1D.circle(n1), (g2,), vals)
        for s in (0.02, 0.85):
            params = SeminormParams(s, 1.0, 2)
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            assert b == pytest.approx(a, rel=1e-6)

    def test_value_scale_invariance(self, rng):
        params = SeminormParams(0.4, 2.0)
        for scale in (1e6, 1e-8):
            u = StepFunction.on_circle(scale * rng.random(8))
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            assert b == pytest.approx(a, rel=1e-6)


def _closed_form_end_inputs(rng):
    """1D circles of 2 to 64 cells and 2D circle(n1) x [-3, 3] in 4 cells; on
    the smallest circles the touching pairs wrap onto copies of themselves."""
    inputs = [StepFunction.on_circle(2 * rng.random(n)) for n in (2, 3, 8, 64)]
    for n1 in (1, 2, 3):
        vals = np.zeros((n1, 4))
        vals[:, 1:3] = rng.random((n1, 2))
        inputs.append(GridFunctionND(Grid1D.circle(n1), (Grid1D.interval(4, -3.0, 3.0),), vals))
    return inputs


def _params(u, s):
    return SeminormParams(s, 1.0, 2 if isinstance(u, GridFunctionND) else 1)


class TestClosedFormEnds:
    """The quadrature window covers only the exponential transients of the
    pair tables; ``LaplaceConfig.beyond`` carries the rest in closed form, so
    it must be exact, not merely small."""

    S_VALUES = (0.02, 0.3, 0.7, 0.98)

    def test_value_does_not_depend_on_the_window(self, rng, monkeypatch, fresh_caches):
        inputs = _closed_form_end_inputs(rng)
        narrow = [
            [gagliardo_periodic_laplace(u, _params(u, s)).value for s in self.S_VALUES]
            for u in inputs
        ]
        rule = seminorm.laplace_quadrature
        monkeypatch.setattr(
            seminorm,
            "laplace_quadrature",
            lambda lam, z_min, z_max, **kw: rule(lam, z_min / 1e4, z_max * 1e4, **kw),
        )
        fresh_caches()
        for u, row in zip(inputs, narrow):
            for s, a in zip(self.S_VALUES, row):
                b = gagliardo_periodic_laplace(u, _params(u, s)).value
                assert b == pytest.approx(a, rel=1e-13)

    def test_dual_route_agreement(self, rng):
        inputs = _closed_form_end_inputs(rng)
        inputs.append(StepFunction.on_circle(2 * rng.random(1024)))
        vals = np.zeros((12, 12))
        vals[:, 1:-1] = 2 * rng.random((12, 10))
        inputs.append(GridFunctionND(Grid1D.circle(12), (Grid1D.interval(12, -2.0, 2.0),), vals))
        for u in inputs:
            for s in self.S_VALUES:
                params = _params(u, s)
                a = gagliardo_periodic_direct(u, params).value
                b = gagliardo_periodic_laplace(u, params).value
                assert b == pytest.approx(a, rel=1e-12)


def test_off_centre_box_is_finite(rng):
    # lo + 12 h overshoots hi by one ulp on this box; the last cell's
    # exterior mass took a fractional power of a negative number
    g2 = Grid1D.interval(12, -2.6850435714719296, 0.7295159521014427)
    vals = np.zeros((16, 12))
    vals[:, 1:-1] = rng.random((16, 10))
    u = GridFunctionND(Grid1D.circle(16), (g2,), vals)
    params = SeminormParams(0.482, 1.5, 2)
    a = gagliardo_periodic_direct(u, params).value
    b = gagliardo_periodic_laplace(u, params).value
    assert math.isfinite(a) and a == pytest.approx(b, rel=1e-12)
    e = GridFunctionND(Grid1D.circle(16), (g2,), (vals > 0.5).astype(float))
    assert math.isfinite(fractional_perimeter(e, 0.482))


# sigma at the ends of the lattice stacks: their rules take its first and
# last rows
SIGMA_ENDS = (0.02, 0.98)
# sigma near the ends of (0, 1), where lam = (dim + sigma) / 2 rounds most of
# sigma away: the Laplace ends took lam - beta from lam and were 8.3e-8 off at
# 1e-9 and 1.1e-7 at 1 - 1e-9
SIGMA_EXTREMES = (1e-9, 1e-5, 1.0 - 1e-5, 1.0 - 1e-9)


class TestDualCertificate:
    """The direct and Laplace tables describe the same kernel, so they agree
    entry by entry, whatever the input, away from the self pair."""

    SIGMAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    @staticmethod
    def _assert_1d_agree(n, sigma):
        direct = seminorm._direct_table((n,), sigma).weights
        laplace = seminorm._laplace_table((n,), sigma).weights
        assert direct[0] == laplace[0] == 0.0
        assert np.max(np.abs(laplace[1:] / direct[1:] - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    def test_1d_tables_agree(self, n):
        for sigma in self.SIGMAS:
            self._assert_1d_agree(n, sigma)

    @pytest.mark.parametrize(
        "n,sigma", [(n, s) for n in (2, 3, 8, 64, 256) for s in SIGMA_ENDS + SIGMA_EXTREMES]
    )
    def test_1d_tables_agree_at_the_stack_ends(self, n, sigma):
        self._assert_1d_agree(n, sigma)

    @pytest.mark.parametrize(
        "n1,g2",
        [
            (12, Grid1D.interval(12, -2.0, 2.0)),
            (6, Grid1D.centered_interval(8, 4.0)),
            (1, Grid1D.interval(6, -1.0, 1.0)),
            (2, Grid1D.interval(5, -1.0, 1.0)),
            (8, Grid1D.centered_interval(3, 0.2)),
        ],
        ids=["12x12", "6x8", "1x6-elongated", "2x5-elongated", "8x3-elongated"],
    )
    def test_2d_tables_agree(self, n1, g2):
        # exterior masses on every column, the boundary ones included, where
        # every function on the cylinder vanishes: the tables are whole
        n2 = g2.n
        off_self = np.ones((n1, 2 * n2 - 1), dtype=bool)
        off_self[0, n2 - 1] = False
        for sigma in self.SIGMAS + SIGMA_ENDS + SIGMA_EXTREMES:
            direct = seminorm._direct_table((n1, n2, g2.lo, g2.hi), sigma)
            laplace = seminorm._laplace_table((n1, n2, g2.lo, g2.hi), sigma)
            assert laplace.weights[0, n2 - 1] == 0.0
            rel = laplace.weights[off_self] / direct.weights[off_self] - 1.0
            assert np.max(np.abs(rel)) < 1e-12
            ext = laplace.exterior / direct.exterior - 1.0
            assert np.max(np.abs(ext)) < 1e-12


with open(os.path.join(os.path.dirname(__file__), "laplace_pins.json")) as f:
    LAPLACE_PINS = json.load(f)


class TestLaplaceTable:
    """One builder for the circle and the cylinder, its algebraic ends
    summed at lam - beta taken from sigma itself."""

    @pytest.mark.parametrize("pin", LAPLACE_PINS, ids=lambda p: f"{p['grid']}-{p['sigma']}")
    def test_tables_keep_their_pins(self, pin):
        # float hex of the separate circle and cylinder builders that this
        # one replaced; the contraction and the ends are summed in another
        # order, so every entry stays within 1e-14 of its row's largest
        table = seminorm._laplace_table(tuple(pin["grid"]), pin["sigma"])
        pairs = list(zip(pin["weights"], np.atleast_2d(table.weights)))
        if "exterior" in pin:
            pairs.append((pin["exterior"], table.exterior))
        for hexes, got in pairs:
            ref = np.array([float.fromhex(x) for x in hexes.split()])
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sigma", [1e-9, 1e-5, 0.5, 1.0 - 1e-5, 1.0 - 1e-9])
    @pytest.mark.parametrize("n", [8, 64])
    def test_circle_table_against_the_closed_form(self, n, sigma):
        # the 40-digit Hurwitz-zeta closed form, every offset on 8 cells; on
        # 64 both touching offsets, the next one and the antipode
        table = seminorm._laplace_table((n,), sigma)
        d = np.arange(1, n) if n <= 8 else np.array([1, 2, 32, 63])
        ref = np.array(hurwitz_periodized_reference(d, n, sigma))
        assert table.weights[0] == 0.0
        assert np.max(np.abs(table.weights[d] / ref - 1.0)) <= table.accuracy


# (dimension, grid of the Laplace table) of the lattice-stack tests
STACK_GRIDS = [(1, (1,)), (1, (64,)), (1, (1024,)), (2, (12, 12, -2.0, 2.0)), (2, (1, 6, -1.0, 1.0)), (2, (8, 3, -0.1, 0.1))]


def _stack_and_rule(grid, sigma):
    """The route's rule at sigma, its lattice and rows, and the grid's stack
    on the lattice."""
    rule = seminorm.laplace_quadrature
    rules = []

    def recording(*args, **kwargs):
        rules.append(rule(*args, **kwargs))
        return rules[-1]

    seminorm.laplace_quadrature = recording
    try:
        seminorm._laplace_table.__wrapped__(grid, sigma)
    finally:
        seminorm.laplace_quadrature = rule
    (cfg,) = rules
    lattice = (cfg.ds, *cfg.lattice)
    rows = slice(cfg.k_lo - cfg.lattice[0], cfg.k_lo - cfg.lattice[0] + cfg.nodes.size)
    return cfg, lattice, rows, seminorm._laplace_stack(grid, *lattice)


def _grouped_ends(stack) -> dict:
    """A stack's ends summed by k, each of the shape of left @ right."""
    t, left, right, ks = stack
    ends = {}
    for k, col, row in zip(ks, left[:, t.size :].T, right[t.size :]):
        ends[k] = ends.get(k, 0.0) + np.outer(col, row)
    return ends


with open(os.path.join(os.path.dirname(__file__), "laplace_end_pins.json")) as f:
    LAPLACE_END_PINS = json.load(f)


class TestLatticeStacks:
    """Every Laplace rule of a route takes its nodes from one lattice, so each
    grid keeps one stack of factors and a fresh sigma contracts a slice of it."""

    @pytest.mark.parametrize("dim,grid", STACK_GRIDS)
    def test_stack_rows_are_the_rule_nodes(self, dim, grid):
        # each factor at the rule's nodes: a row of ones against the heat
        # rows on the circle; on the cylinder the heat rows (transposed) and
        # their sum, the heat row's mass, against the line-Gaussian rows and
        # then the exterior masses
        for sigma in (1e-9, 0.02, 0.5, 0.98, 1.0 - 1e-9):
            cfg, (ds, k_lo, k_hi), rows, (t, left, right, ks) = _stack_and_rule(grid, sigma)
            assert np.array_equal(t, np.exp(ds * np.arange(k_lo, k_hi + 1)))
            assert np.array_equal(t[rows], cfg.nodes)
            # an index off by one lands a factor exp(ds) away
            for shift in (-1, 1):
                moved = slice(rows.start + shift, rows.stop + shift)
                assert not np.array_equal(t[moved], cfg.nodes)
            n, q = grid[0], cfg.nodes.size
            heat = kernels._heat_table_batch(n, 2 * math.pi / n, cfg.nodes)
            want = np.ones((1, q)), heat
            if dim == 2:
                mass = 2 * math.pi / n * np.sqrt(math.pi / cfg.nodes)
                gauss = kernels._gauss_tables_batch(Grid1D.interval(*grid[1:]), cfg.nodes)
                want = np.vstack((heat.T, mass)), np.hstack(gauss)
            assert left.flags.c_contiguous and left.shape == (want[0].shape[0], t.size + len(ks))
            assert right.shape == (t.size + len(ks), want[1].shape[1])
            for got, ref in zip((left[:, rows], right[rows]), want):
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(ref)

    def test_stack_memory_is_bounded(self, fresh_caches):
        # the factors, not their products: at 64 x 64 the rows are K (n1 +
        # 3 n2) floats (the heat rows, their sum and the line rows) and the
        # ends five columns more (0.34 MiB), where the rows of products were
        # K n1 (2 n2 - 1) plus K n2 (10.7 MiB); the
        # first build, its temporaries included, peaks within five stacks
        # (measured 3.8)
        grid = (64, 64, -2.0, 2.0)
        seminorm._laplace_table(grid, 0.3)  # the rule's lattice checks are not the stack's
        seminorm._laplace_stack.cache_clear()
        tracemalloc.start()
        try:
            seminorm._laplace_table.__wrapped__(grid, 0.3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        t, left, right, ks = _stack_and_rule(grid, 0.3)[3]
        bound = (t.size + 5) * (64 + 3 * 64) * 8
        assert len(ks) == 5 and left.nbytes + right.nbytes <= bound
        assert peak < 5 * bound + t.nbytes, peak / bound

    @pytest.mark.parametrize("pin", LAPLACE_END_PINS, ids=lambda p: str(p["grid"]))
    def test_cylinder_ends_keep_their_pins(self, pin):
        # float hex of the ends that the flat stack placed by hand, the table
        # entries flattened, then the exterior masses, one row per k; the
        # products of the factors' ends, summed by k, are within 1e-15 of
        # each row's largest (the exterior masses' from the heat rows' sum)
        grid = tuple(pin["grid"])
        n1, n2 = grid[:2]
        ends = _grouped_ends(_stack_and_rule(grid, 0.5)[3])
        for k, hexes in zip(pin["ks"], pin["ends"]):
            ref = np.array([float.fromhex(x) for x in hexes.split()])
            end = ends.get(k, np.zeros((n1 + 1, 3 * n2 - 1)))
            got = np.concatenate((end[:n1, : 2 * n2 - 1].ravel(), end[n1, 2 * n2 - 1 :]))
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))

    @pytest.mark.parametrize("dim,grid", STACK_GRIDS)
    def test_tail_terms_of_the_self_pair_are_dropped(self, dim, grid):
        # a product of tail terms with k >= 0 (root1 t^-1/2 on the circle,
        # root1 root2 / t on the cylinder) has an excess (k + sigma) / 2 > 0,
        # which would sum it as a head; it has no entry off the self pair,
        # where the table is 0, and the stack keeps no such term
        circle = seminorm._axis_ends(Grid1D.circle(grid[0]))[1]
        line = seminorm._axis_ends(Grid1D.interval(*grid[1:]))[1] if dim == 2 else [(0, [1.0])]
        dropped = [np.outer(a, c) for k1, a in circle for k2, c in line if k1 + k2 >= 0]
        assert len(dropped) == 1
        self_pair = (0, grid[1] - 1 if dim == 2 else 0)
        off_self = np.ones(dropped[0].shape, dtype=bool)
        off_self[self_pair] = False
        assert dropped[0][self_pair] > 0 and not dropped[0][off_self].any()
        ks = _stack_and_rule(grid, 0.5)[3][3]
        assert sorted(ks) == ([-1, 0] if dim == 1 else [-2, -1, -1, 0, 1])

    @pytest.mark.parametrize("dim,grid", STACK_GRIDS)
    def test_stack_spans_the_whole_sigma_range(self, dim, grid):
        # every sigma's rule is checked on one lattice and lies within it
        lattices = set()
        for sigma in np.linspace(1e-6, 1.0 - 1e-6, 101):
            cfg, lattice, rows, stack = _stack_and_rule(grid, float(sigma))
            lattices.add(lattice)
            assert 0 <= rows.start and rows.stop <= stack[0].size
        assert len(lattices) == 1

    def test_a_second_sigma_builds_no_rows(self, monkeypatch, fresh_caches):
        counts = {"_heat_table_batch": 0, "_gauss_tables_batch": 0}
        for name in counts:
            def counted(*args, _name=name, _f=getattr(seminorm, name)):
                counts[_name] += 1
                return _f(*args)
            monkeypatch.setattr(seminorm, name, counted)
        seminorm._laplace_table((64,), 0.3)
        seminorm._laplace_table((12, 12, -2.0, 2.0), 0.3)
        assert all(counts.values())
        counts.update(dict.fromkeys(counts, 0))
        for sigma in (0.02, 0.5, 0.89, 0.98):
            seminorm._laplace_table((64,), sigma)
            seminorm._laplace_table((12, 12, -2.0, 2.0), sigma)
        assert counts == {"_heat_table_batch": 0, "_gauss_tables_batch": 0}
        assert seminorm._laplace_stack.cache_info().currsize == 2


def test_fresh_sigmas_build_each_grid_cache_once(rng, monkeypatch, fresh_caches):
    # the seminorm-sweep grids, 20 fresh s through both public routes: every
    # table and rule is rebuilt, each route entering its builder once, but
    # each sigma-free cache misses once per grid, so a sigma in the key of a
    # grid's fit (1D or 2D), domain, lattice or stack fails here, as does a
    # cache that lets a fresh sigma skip its build
    entered = []
    for mod, name in (
        (seminorm, "laplace_quadrature"), (seminorm, "riesz_weights_1d"),
        (seminorm, "riesz_weights_nd"), (kernels, "_line_powers"),
    ):
        def counted(*args, _name=name, _f=getattr(mod, name), **kwargs):
            entered.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    u1 = random_circle_function(rng, n=64)
    g2 = Grid1D.interval(12, -2.0, 2.0)
    vals = rng.random((12, 12))
    vals[:, [0, -1]] = 0.0
    u2 = GridFunctionND(Grid1D.circle(12), (g2,), vals)
    per_route = []
    for s in np.linspace(0.1, 0.9, 20):
        for u, dim in ((u1, 1), (u2, 2)):
            params = SeminormParams(float(s), 1.0, dim)
            for route in (gagliardo_periodic_direct, gagliardo_periodic_laplace):
                before = len(entered)
                route(u, params)
                per_route.append([name for name in entered[before:] if name != "_line_powers"])
    riesz = {1: "riesz_weights_1d", 2: "riesz_weights_nd"}
    assert per_route == [[name] for _ in range(20) for dim in (1, 2)
                         for name in (riesz[dim], "laplace_quadrature")]
    assert entered.count("_line_powers") == 1
    builds = {
        seminorm._direct_table: 40,
        seminorm._laplace_table: 40,
        kernels._rule_lattice: 2,
        kernels._periodized_fit: 1,
        kernels._nd_fit: 1,
        seminorm._domain: 2,  # one per grid
        seminorm._laplace_stack: 2,
    }
    assert {f.__name__: f.cache_info().misses for f in builds} == {
        f.__name__: misses for f, misses in builds.items()
    }


def _count_offset_sums(monkeypatch) -> list:
    calls = []
    offset_sums = seminorm.offset_sums
    monkeypatch.setattr(
        seminorm, "offset_sums", lambda *a, **kw: calls.append(a) or offset_sums(*a, **kw)
    )
    return calls


@pytest.mark.parametrize("dim", [1, 2])
def test_both_routes_from_one_pass_of_pair_costs(rng, monkeypatch, dim):
    # the default methods give bit for bit what the single-route calls give,
    # from one pass of pair costs (the single-route calls left u's pair
    # costs in the slot, so it is emptied first)
    u = random_circle_function(rng, n=16) if dim == 1 else random_nd_function(rng)
    params = SeminormParams(0.35, 2.0, dim)
    single = (gagliardo_periodic_direct(u, params), gagliardo_periodic_laplace(u, params))
    seminorm._pair_data.cache_clear()
    calls = _count_offset_sums(monkeypatch)
    assert gagliardo_periodic(u, params) == single
    assert len(calls) == 1
    with pytest.raises(ConfigError):
        gagliardo_periodic(u, params, ("direct", "fft"))


@pytest.mark.parametrize("dim", [1, 2])
def test_routes_of_one_function_take_the_pair_costs_once(rng, monkeypatch, fresh_caches, dim):
    # the direct route fills the slot, the Laplace route reads it; both give
    # the bits that each route gives alone in a fresh process
    u = random_circle_function(rng, n=16) if dim == 1 else random_nd_function(rng)
    params = SeminormParams(0.35, 1.5, dim)
    calls = _count_offset_sums(monkeypatch)
    got = [gagliardo_periodic_direct(u, params).value, gagliardo_periodic_laplace(u, params).value]
    assert len(calls) == 1
    src = os.path.dirname(os.path.dirname(persym.__file__))
    code = (
        "import json, sys\n"
        "from persym.grid import function_from_json\n"
        "from persym.seminorm import SeminormParams, gagliardo_periodic\n"
        "u = function_from_json(json.load(sys.stdin))\n"
        f"params = SeminormParams(0.35, 1.5, {dim})\n"
        "print(gagliardo_periodic(u, params, (sys.argv[1],))[0].value.hex())"
    )
    fresh = [
        subprocess.run(
            [sys.executable, "-c", code, method], input=json.dumps(function_to_json(u)),
            env=dict(os.environ, PYTHONPATH=src), check=True, capture_output=True, text=True,
            timeout=120,
        ).stdout.strip()
        for method in ("direct", "laplace")
    ]
    assert [v.hex() for v in got] == fresh


def test_pair_costs_recompute_for_another_p_function_or_after_clearing(
    rng, monkeypatch, fresh_caches
):
    u = random_nd_function(rng)
    twin = GridFunctionND(u.axis1, u.axes_perp, u.values)  # equal values, another function
    calls = _count_offset_sums(monkeypatch)
    params = SeminormParams(0.35, 1.5, 2)
    first = gagliardo_periodic_direct(u, params)
    gagliardo_periodic_laplace(u, SeminormParams(0.6, 1.5, 2))  # another s: kept
    assert len(calls) == 1
    gagliardo_periodic_direct(u, SeminormParams(0.35, 2.0, 2))  # another p
    assert len(calls) == 2
    assert gagliardo_periodic_direct(twin, params) == first
    assert len(calls) == 3
    seminorm._pair_data.cache_clear()
    assert gagliardo_periodic_direct(twin, params) == first
    assert len(calls) == 4
    fresh_caches()  # the tests' cache clearing reaches the slot
    gagliardo_periodic_direct(twin, params)
    assert len(calls) == 5


def test_sweep_takes_the_pair_costs_once(rng, monkeypatch, fresh_caches, tmp_path, capsys):
    infile = tmp_path / "u.json"
    save_function(str(infile), random_nd_function(rng))
    calls = _count_offset_sums(monkeypatch)
    assert cli.main(["sweep", "--in", str(infile), "--values", "0.1", "0.9", "5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 6  # the header and five values of s
    assert len(calls) == 1


def test_pair_costs_take_half_the_offsets(rng, monkeypatch):
    # |u_i - u_j|^p is symmetric, so at 12 x 12 the pair costs are taken at
    # the 7 first-axis offsets 0..6, not at all 12
    u = random_nd_function(rng, n1=12, n2=12)
    seen = []

    def counted(cost):
        return lambda a, b: seen.append(np.broadcast(a, b).size) or cost(a, b)

    cost = counted(lambda a, b: np.abs(a - b))
    full = kernels.offset_sums(u.values, u.values, cost, (True, False))
    whole, seen[:] = sum(seen), []
    offset_sums = seminorm.offset_sums
    monkeypatch.setattr(
        seminorm, "offset_sums", lambda a, b, cost, *r, **kw: offset_sums(a, b, counted(cost), *r, **kw)
    )
    s = seminorm._pair_costs(u, 1.0, (True, False))
    assert whole == 12**4 and sum(seen) <= 7 * whole // 12
    assert np.all(np.abs(s - full) <= 4e-15 * full)


def test_cached_route_tables_are_read_only():
    tables = [
        seminorm._direct_table((8,), 0.4),
        seminorm._laplace_table((8,), 0.4),
        seminorm._direct_table((4, 5, -1.0, 1.0), 0.4),
        seminorm._laplace_table((4, 5, -1.0, 1.0), 0.4),
    ]
    stacks = [_stack_and_rule(grid, 0.4)[3] for _, grid in STACK_GRIDS[1::3]]
    arrays = [a for table in tables for a in (table.weights, getattr(table, "exterior", None))]
    # a stack's arrays: its times and its two factors (the end powers are a tuple)
    for arr in arrays + [a for stack in stacks for a in stack[:3]]:
        if arr is not None:
            with pytest.raises(ValueError):
                arr[0] = 1.0
    assert all(len(stack) == 4 and isinstance(stack[3], tuple) for stack in stacks)
