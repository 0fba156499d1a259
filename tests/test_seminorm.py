import math

import numpy as np
import pytest

from persym import kernels, seminorm
from persym.errors import ConfigError, NotIndicator
from persym.grid import Grid1D, GridFunctionND, StepFunction, refine
from persym.seminorm import (
    SeminormParams,
    coarea_identity_check,
    fractional_perimeter,
    gagliardo_periodic,
    gagliardo_periodic_direct,
    gagliardo_periodic_laplace,
)

from conftest import random_circle_function, random_nd_function


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
    pair tables; ``algebraic_head`` and ``algebraic_tail`` carry the rest in
    closed form, so they must be exact, not merely small."""

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


class TestDualCertificate:
    """The direct and Laplace tables describe the same kernel, so they agree
    entry by entry, whatever the input, away from the self pair."""

    SIGMAS = (0.1, 0.3, 0.5, 0.7, 0.9)

    @staticmethod
    def _assert_1d_agree(n, sigma):
        direct = seminorm._riesz_table_cached(n, sigma).weights
        laplace = seminorm._laplace_table_1d(n, sigma).weights
        assert direct[0] == laplace[0] == 0.0
        assert np.max(np.abs(laplace[1:] / direct[1:] - 1.0)) < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 8, 64, 256])
    def test_1d_tables_agree(self, n):
        for sigma in self.SIGMAS:
            self._assert_1d_agree(n, sigma)

    @pytest.mark.parametrize("n,sigma", [(n, s) for n in (2, 3, 8, 64, 256) for s in SIGMA_ENDS])
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
        # exterior masses on every column, the boundary ones included: input
        # that does not vanish there (require_compact=False) needs them
        n2 = g2.n
        off_self = np.ones((n1, 2 * n2 - 1), dtype=bool)
        off_self[0, n2 - 1] = False
        for sigma in self.SIGMAS + SIGMA_ENDS:
            direct = seminorm._nd_table_cached(n1, n2, g2.lo, g2.hi, sigma)
            laplace = seminorm._laplace_table_2d(n1, n2, g2.lo, g2.hi, sigma)
            assert laplace.weights[0, n2 - 1] == 0.0
            rel = laplace.weights[off_self] / direct.weights[off_self] - 1.0
            assert np.max(np.abs(rel)) < 1e-12
            ext = laplace.exterior / direct.exterior - 1.0
            assert np.max(np.abs(ext)) < 1e-12


# (dimension, grid arguments of the Laplace table) of the lattice-stack tests
STACK_GRIDS = [(1, (1,)), (1, (64,)), (1, (1024,)), (2, (12, 12, -2.0, 2.0)), (2, (1, 6, -1.0, 1.0)), (2, (8, 3, -0.1, 0.1))]


def _stack_and_rule(dim, grid, sigma):
    """The route's rule at sigma, its lattice and rows, and the grid's stack
    on the lattice."""
    rule = seminorm.laplace_quadrature
    rules = []

    def recording(*args, **kwargs):
        rules.append(rule(*args, **kwargs))
        return rules[-1]

    seminorm.laplace_quadrature = recording
    try:
        table = seminorm._laplace_table_1d if dim == 1 else seminorm._laplace_table_2d
        table.__wrapped__(*grid, sigma)
    finally:
        seminorm.laplace_quadrature = rule
    (cfg,) = rules
    lattice, rows = seminorm._lattice_rows(cfg)
    build = seminorm._heat_stack if dim == 1 else seminorm._heat_gauss_stack
    return cfg, lattice, rows, build(*grid, *lattice)


class TestLatticeStacks:
    """Every Laplace rule of a route takes its nodes from one lattice, so each
    grid keeps one stack of rows and a fresh sigma contracts a slice of it."""

    @pytest.mark.parametrize("dim,grid", STACK_GRIDS)
    def test_stack_rows_are_the_rule_nodes(self, dim, grid):
        for sigma in (1e-9, 0.02, 0.5, 0.98, 1.0 - 1e-9):
            cfg, (ds, k_lo, k_hi), rows, stack = _stack_and_rule(dim, grid, sigma)
            t = stack[0]
            assert np.array_equal(t, np.exp(ds * np.arange(k_lo, k_hi + 1)))
            assert np.array_equal(t[rows], cfg.nodes)
            # an index off by one lands a factor exp(ds) away
            for shift in (-1, 1):
                moved = slice(rows.start + shift, rows.stop + shift)
                assert not np.array_equal(t[moved], cfg.nodes)
            if dim == 1:
                n = grid[0]
                direct = kernels._heat_table_batch(n, 2 * math.pi / n, cfg.nodes)
                assert np.max(np.abs(stack[1][rows] - direct)) <= 1e-15 * np.max(direct)

    @pytest.mark.parametrize("dim,grid", STACK_GRIDS)
    def test_stack_spans_the_whole_sigma_range(self, dim, grid):
        # every sigma's rule is checked on one lattice and lies within it
        lattices = set()
        for sigma in np.linspace(1e-6, 1.0 - 1e-6, 101):
            cfg, lattice, rows, stack = _stack_and_rule(dim, grid, float(sigma))
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
        seminorm._laplace_table_1d(64, 0.3)
        seminorm._laplace_table_2d(12, 12, -2.0, 2.0, 0.3)
        assert all(counts.values())
        counts.update(dict.fromkeys(counts, 0))
        for sigma in (0.02, 0.5, 0.89, 0.98):
            seminorm._laplace_table_1d(64, sigma)
            seminorm._laplace_table_2d(12, 12, -2.0, 2.0, sigma)
        assert counts == {"_heat_table_batch": 0, "_gauss_tables_batch": 0}
        assert seminorm._heat_stack.cache_info().currsize == 1
        assert seminorm._heat_gauss_stack.cache_info().currsize == 1


def test_fresh_sigmas_build_each_grid_cache_once(rng, monkeypatch, fresh_caches):
    # the seminorm-sweep grids, 20 fresh s through both public routes: every
    # table and rule is rebuilt, but each sigma-free cache misses once per
    # grid, so a sigma in the key of a grid's fit, plan, lattice or stack
    # fails here
    calls = {"laplace_quadrature": 0, "_line_powers": 0}
    for mod, name in ((seminorm, "laplace_quadrature"), (kernels, "_line_powers")):
        def counted(*args, _name=name, _f=getattr(mod, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    u1 = random_circle_function(rng, n=64)
    g2 = Grid1D.interval(12, -2.0, 2.0)
    vals = rng.random((12, 12))
    vals[:, [0, -1]] = 0.0
    u2 = GridFunctionND(Grid1D.circle(12), (g2,), vals)
    for s in np.linspace(0.1, 0.9, 20):
        for u, dim in ((u1, 1), (u2, 2)):
            params = SeminormParams(float(s), 1.0, dim)
            gagliardo_periodic_direct(u, params)
            gagliardo_periodic_laplace(u, params)
    builds = {
        seminorm._riesz_table_cached: 20,
        seminorm._nd_table_cached: 20,
        kernels._rule_lattice: 2,
        kernels._periodized_plan: 1,
        kernels._nd_fit: 1,
        seminorm._heat_stack: 1,
        seminorm._heat_gauss_stack: 1,
    }
    assert {f.__name__: f.cache_info().misses for f in builds} == {
        f.__name__: misses for f, misses in builds.items()
    }
    assert calls == {"laplace_quadrature": 40, "_line_powers": 1}


@pytest.mark.parametrize("dim", [1, 2])
def test_both_routes_from_one_pass_of_pair_costs(rng, monkeypatch, dim):
    # the default methods give bit for bit what the single-route calls give,
    # from one pass of pair costs
    u = random_circle_function(rng, n=16) if dim == 1 else random_nd_function(rng)
    params = SeminormParams(0.35, 2.0, dim)
    single = (gagliardo_periodic_direct(u, params), gagliardo_periodic_laplace(u, params))
    calls = []
    offset_sums = seminorm.offset_sums
    monkeypatch.setattr(
        seminorm, "offset_sums", lambda *a, **kw: calls.append(a) or offset_sums(*a, **kw)
    )
    assert gagliardo_periodic(u, params) == single
    assert len(calls) == 1
    with pytest.raises(ConfigError):
        gagliardo_periodic(u, params, ("direct", "fft"))


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
    s = seminorm._pair_costs(u, 1.0)
    assert whole == 12**4 and sum(seen) <= 7 * whole // 12
    assert np.all(np.abs(s - full) <= 4e-15 * full)


def test_cached_route_tables_are_read_only():
    tables = [
        seminorm._riesz_table_cached(8, 0.4),
        seminorm._laplace_table_1d(8, 0.4),
        seminorm._nd_table_cached(4, 5, -1.0, 1.0, 0.4),
        seminorm._laplace_table_2d(4, 5, -1.0, 1.0, 0.4),
    ]
    stacks = [_stack_and_rule(*dim_grid, 0.4)[3] for dim_grid in STACK_GRIDS[1::3]]
    arrays = [a for table in tables for a in (table.weights, getattr(table, "exterior", None))]
    for arr in arrays + [a for stack in stacks for a in stack]:
        if arr is not None:
            with pytest.raises(ValueError):
                arr[0] = 1.0
