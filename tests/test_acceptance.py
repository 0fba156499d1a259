"""Acceptance gate: one test per criterion, tolerances pinned, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS lines and
timings.  Criteria 5 and 9 are bulk randomized runs with wall-clock budgets;
everything else is exact or closed-form checked.
"""

import math
import time

import numpy as np
import pytest

from persym.functionals import j_library
from persym.grid import Grid1D, StepFunction, equimeasurable, refine
from persym.kernels import (
    T_SWITCH,
    HeatKernel,
    StepKernelCircle,
    StepKernelLine,
    GaussianKernel,
    laplace_quadrature,
)
from persym.rearrange import (
    composition_commutes_check,
    periodic_rearrange_1d,
    rearrange_set_periodic,
)
from persym.seminorm import (
    SeminormParams,
    coarea_identity_check,
    fractional_perimeter,
    gagliardo_periodic_direct,
    gagliardo_periodic_laplace,
)
from persym.verify import (
    check_nonexpansivity_circle,
    check_nonexpansivity_euclidean,
    check_polya_periodic,
    check_riesz_circle,
    exhaustive_oracle_circle,
    run_suite,
)

from conftest import random_circle_function, random_nd_function


def announce(k, message, elapsed=None):
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {k}: PASS - {message}{timing}")


def test_criterion_1_dual_route_agreement(rng):
    """50 random step functions, both routes agree to 1e-6 relative, < 2 min."""
    t0 = time.time()
    worst = 0.0
    checked = 0
    sizes = [8, 16, 32]
    for i in range(38):
        u = random_circle_function(rng, n=sizes[i % 3])
        for s in (0.2, 0.4, 0.7):
            for p in (1.0, 2.0):
                if s * p >= 1.0:
                    continue
                params = SeminormParams(s, p, 1)
                a = gagliardo_periodic_direct(u, params).value
                b = gagliardo_periodic_laplace(u, params).value
                rel = abs(a - b) / a
                worst = max(worst, rel)
                checked += 1
                assert rel <= 1e-6, (sizes[i % 3], s, p, rel)
    for _ in range(12):
        u = random_nd_function(rng, n1=8, n2=8)
        for s in (0.2, 0.4, 0.7):
            params = SeminormParams(s, 1.0, 2)
            a = gagliardo_periodic_direct(u, params).value
            b = gagliardo_periodic_laplace(u, params).value
            rel = abs(a - b) / a
            worst = max(worst, rel)
            checked += 1
            assert rel <= 1e-6, ("2d", s, rel)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(1, f"{checked} dual-route evaluations, worst rel diff {worst:.2e}", elapsed)


def test_criterion_2_gamma_anchor():
    """Quadrature reproduces the exact transform to 1e-8 over the z-range."""
    t0 = time.time()
    worst = 0.0
    for lam in (0.6, 0.75, 1.5):
        cfg = laplace_quadrature(lam, 1e-3, 1e3, rtol=1e-9)
        zs = np.geomspace(1e-3, 1e3, 120)
        err = float(cfg.gamma_identity_error(zs).max())
        worst = max(worst, err)
        assert err <= 1e-8, (lam, err)
    announce(2, f"gamma identity to {worst:.2e} for lam in {{0.6, 0.75, 1.5}}", time.time() - t0)


def test_criterion_3_heat_kernel_dual(rng):
    """Independent representations agree; monotone on (0, pi) at every t.

    Agreement is relative to the kernel's maximum: for t well above the
    crossover the Fourier side genuinely cancels below float resolution
    pointwise, so sup-scale is the strongest float64-meaningful statement;
    at the crossover both branches are well conditioned and the comparison
    is pointwise relative.
    """
    t0 = time.time()

    def direct(z, t):
        k = np.arange(-600, 601)
        return np.exp(-((z[:, None] + 2 * math.pi * k[None, :]) ** 2) * t).sum(axis=1)

    def theta(z, t):
        m = np.arange(1, 1500)
        series = 1.0 + 2.0 * (
            np.exp(-(m**2) / (4 * t))[None, :] * np.cos(m[None, :] * z[:, None])
        ).sum(axis=1)
        return series / (2 * math.sqrt(math.pi * t))

    from persym.kernels import heat_kernel_periodic

    worst = 0.0
    for t in np.geomspace(1e-4, 1e2, 21):
        z = rng.uniform(-math.pi, math.pi, 100)
        a, b = direct(z, t), theta(z, t)
        scale = float(direct(np.zeros(1), t)[0])
        err = float(np.max(np.abs(a - b))) / scale
        worst = max(worst, err)
        assert err <= 1e-12, (t, err)
        zs = np.linspace(1e-3, math.pi - 1e-3, 150)
        g = heat_kernel_periodic(zs, t)
        assert np.all(np.diff(g) <= 1e-13 * g[0]), t
        if g[0] - g[-1] > 1e-12 * g[0]:
            live = g > 1e-280 * g[0]
            assert np.all(np.diff(g[live]) < 0), t
    z = rng.uniform(-math.pi, math.pi, 100)
    cross = np.max(np.abs(direct(z, T_SWITCH) / theta(z, T_SWITCH) - 1.0))
    assert cross <= 1e-12
    announce(
        3,
        f"dual representations within {worst:.2e} (sup-relative), "
        f"{cross:.2e} pointwise at the crossover; monotone at all tested t",
        time.time() - t0,
    )


def test_criterion_4_coarea_and_perimeter(rng):
    """Coarea residual <= 1e-12 on 500 functions; set identity exact on 200."""
    t0 = time.time()
    worst = 0.0
    for i in range(500):
        n = int(rng.integers(3, 24))
        if i % 2:
            u = random_circle_function(rng, n=n, levels=int(rng.integers(2, 6)))
        else:
            u = random_circle_function(rng, n=n)
        s = 0.3 if i % 2 else 0.5
        res = coarea_identity_check(u, s)
        worst = max(worst, res)
        assert res <= 1e-12
    worst_id = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 24))
        e = StepFunction.on_circle((rng.random(n) < rng.uniform(0.2, 0.8)).astype(float))
        semi = gagliardo_periodic_direct(e, SeminormParams(0.5, 1.0)).value
        per = fractional_perimeter(e, 0.5)
        diff = abs(semi - 2.0 * per) / max(semi, 1e-300)
        worst_id = max(worst_id, diff)
        assert diff <= 1e-13
    announce(
        4,
        f"coarea residual <= {worst:.2e} (500 runs); indicator identity to {worst_id:.2e} (200 sets)",
        time.time() - t0,
    )


@pytest.mark.slow
def test_criterion_5_inequality_suites(rng):
    """>= 1e4 randomized margins across every theorem family, < 10 min.

    Exact-weight strata (step kernels: tables are exact two-tap sums) must
    clear -1e-12 absolutely; erf/power-table strata clear their reported
    per-case bounds, all of which sit below 1.3e-8.
    """
    t0 = time.time()
    total_cases = 0

    # exact-weight stratum: bilinear + nonexpansivity margins with step
    # kernels (tables exact), mixing random pairs with constructed equality
    # instances so genuine zero margins are held to the 1e-12 floor
    from persym.verify import symmetric_decreasing_instance

    exact_min = math.inf
    exact_eq_worst = 0.0
    costs = [j_library("abs"), j_library("power", p=2), j_library("power", p=4),
             j_library("power", p=1.5)]
    for k in range(1000):
        n = int(rng.choice([6, 8, 12]))
        grid = Grid1D.circle(n)
        kern = StepKernelCircle(StepFunction(grid, rng.random(n) + 0.02))
        if k % 5 == 4:
            # translate equality needs a kernel equal to its own
            # rearrangement; mirror-paired profiles are exactly that
            kern = StepKernelCircle(symmetric_decreasing_instance(rng, grid, 0))
            shift = int(rng.integers(0, n))
            f = symmetric_decreasing_instance(rng, grid, shift)
            h = symmetric_decreasing_instance(rng, grid, shift)
        elif k % 5 == 3:
            f = StepFunction.constant(grid, float(rng.random()))
            h = random_circle_function(rng, n=n)
        else:
            f = random_circle_function(rng, n=n)
            h = random_circle_function(rng, n=n)
        r1 = check_riesz_circle(f, h, kern)
        r2 = check_nonexpansivity_circle(f, h, costs[k % 4], kern)
        exact_min = min(exact_min, r1.margin, r2.margin)
        if k % 5 >= 3:
            exact_eq_worst = max(exact_eq_worst, abs(r1.margin), abs(r2.margin))
        total_cases += 2
    assert exact_min >= -1e-12, exact_min
    assert exact_eq_worst <= 1e-12, exact_eq_worst

    # whole-line stratum (n = 1): Gaussian and exact line step kernels
    # (step-kernel cells must refine onto the function grid and its halves)
    line_min = math.inf
    for k in range(1000):
        grid = Grid1D.interval(int(rng.choice([8, 16])), -2.0, 2.0)
        u = StepFunction(grid, 2 * rng.random(grid.n))
        v = StepFunction(grid, 2 * rng.random(grid.n))
        if k % 2:
            kern = GaussianKernel(float(rng.choice([0.5, 1.0, 2.0])))
        else:
            prof = StepFunction(Grid1D.centered_interval(8, 4.0), rng.random(8) + 0.02)
            kern = StepKernelLine(prof)
        res = check_nonexpansivity_euclidean(u, v, costs[k % 4], kern)
        line_min = min(line_min, res.margin)
        assert res.margin >= -res.bound
        total_cases += 1
    assert line_min >= -1e-11, line_min

    report = run_suite(
        ["riesz", "nonexp-circle", "nonexp-rn", "polya-per", "polya-cyl"],
        seed=20240817,
        cases=1600,
    )
    total_cases += report.cases_run
    assert report.passed, report.failures[:3]
    assert report.min_margin >= -report.bound
    assert total_cases >= 10_000
    elapsed = time.time() - t0
    assert elapsed < 600.0
    announce(
        5,
        f"{total_cases} margins; exact-weight min {exact_min:.2e}, "
        f"suite min {report.min_margin:.2e} against bound {report.bound:.1e}",
        elapsed,
    )


def test_criterion_6_exhaustive_equality_oracle():
    """Zero-margin sets coincide with the predicted classes at small scale."""
    t0 = time.time()
    zero_counts = {}
    for n, levels in ((4, 3), (6, 2)):
        for t in (0.25, 1.0):
            kern = HeatKernel(t)
            for j in (j_library("power", p=2), j_library("power", p=4), j_library("abs")):
                rep = exhaustive_oracle_circle(n, levels, j, kern, budget=600_000)
                assert not rep.failures, rep.failures[:3]
                assert rep.indeterminate == 0
                zero_counts[(n, levels, t, j.name)] = sum(
                    1 for r in rep.rows if r.class_observed == "zero"
                )
    # same zero set for every strictly convex cost, by the characterization
    for n, levels in ((4, 3), (6, 2)):
        for t in (0.25, 1.0):
            assert zero_counts[(n, levels, t, "power:2")] == zero_counts[(n, levels, t, "power:4")]

    # one-sided cost: the separated family (max u <= min v) gives equality
    # without the constant/translate structure, so the zero set strictly
    # exceeds the two classes (no completeness holds for this cost)
    family_total, extras_total = 0, 0
    for n, levels in ((4, 3), (6, 2)):
        rep = exhaustive_oracle_circle(
            n, levels, j_library("one_sided"), HeatKernel(1.0), budget=600_000
        )
        assert not rep.failures
        vecs = np.indices((levels,) * n).reshape(n, -1).T.astype(float)
        zero = {r.case_id for r in rep.rows if r.class_observed == "zero"}
        nonclass = {
            r.case_id
            for r in rep.rows
            if r.class_observed == "zero" and r.class_predicted == "neither"
        }
        family = 0
        for r in rep.rows:
            a, b = map(int, r.case_id.split("-"))
            if vecs[a].max() <= vecs[b].min():
                assert r.case_id in zero  # every separated pair is an equality
                family += 1
                if r.case_id in nonclass:
                    family_total += 1
        if levels >= 3:
            # with two levels the separated family degenerates to constants;
            # three levels realize equality strictly beyond classes (i)/(ii)
            assert nonclass
        extras_total += len(nonclass)
    announce(
        6,
        f"zero-margin sets match the equality classes exactly for strict costs; "
        f"one-sided cost adds {extras_total} equalities beyond the classes "
        f"({family_total} of them the separated family)",
        time.time() - t0,
    )


def test_criterion_7_two_bump_example():
    """The 4-periodic two-bump function: p = 1 equality, p = 2 strict.

    chi_(-1,2) + chi_(-1,0), 4-periodic, carried onto [-pi, pi) by the
    measure-preserving dilation (margins keep their sign and zeros).
    """
    t0 = time.time()
    u = StepFunction.on_circle([0.0, 2.0, 1.0, 1.0])
    for s in (0.3, 0.5):
        res = check_polya_periodic(u, SeminormParams(s, 1.0))
        assert abs(res.margin) <= 1e-12 * max(res.value, 1.0), (s, res.margin)
        assert abs(res.margin_laplace) <= 1e-6 * max(res.value, 1.0)
    margins = {}
    for s in (0.3, 0.45):
        res = check_polya_periodic(u, SeminormParams(s, 2.0))
        assert res.margin > 1e-3, (s, res.margin)
        fine = check_polya_periodic(refine(u, 2), SeminormParams(s, 2.0))
        drift = abs(fine.margin - res.margin) / res.margin
        assert drift < 0.05, (s, drift)
        margins[s] = (res.margin, drift)
    announce(
        7,
        "p=1 margins zero, p=2 margins "
        + ", ".join(f"{v[0]:.4f} (refinement drift {v[1]:.1e}) at s={s}" for s, v in margins.items()),
        time.time() - t0,
    )


def test_criterion_8_divergence_correctness(rng):
    """sp >= 1 in step mode: divergent for every non-constant input, 0 for constants."""
    t0 = time.time()
    combos = [(0.5, 2.0), (0.6, 2.0), (0.95, 1.1), (0.8, 1.25)]
    checked = 0
    for s, p in combos:
        assert s * p >= 1.0
        for _ in range(12):
            n = int(rng.integers(2, 16))
            u = random_circle_function(rng, n=n, levels=3)
            if u.is_constant():
                u = u.with_values(u.values + np.arange(n, dtype=float) % 2)
            for route in (gagliardo_periodic_direct, gagliardo_periodic_laplace):
                res = route(u, SeminormParams(s, p, 1))
                assert res.divergent and res.value == math.inf
                checked += 1
        const = StepFunction.constant(Grid1D.circle(8), float(rng.random() * 3))
        for route in (gagliardo_periodic_direct, gagliardo_periodic_laplace):
            res = route(const, SeminormParams(s, p, 1))
            assert not res.divergent and res.value == 0.0
            checked += 1
        u2 = random_nd_function(rng, n1=6, n2=6)
        res = gagliardo_periodic_direct(u2, SeminormParams(s, p, 2))
        assert res.divergent
        checked += 1
    announce(8, f"{checked} divergence signals correct across routes and dimensions", time.time() - t0)


def test_criterion_9_rearrangement_exactness(rng):
    """1e4 exactness assertions (idempotence, equimeasurability, level sets,
    monotone-composition commutation, order, scaling), zero failures, < 1 min."""
    t0 = time.time()
    assertions = 0
    staircase = lambda t: np.floor(2.0 * np.asarray(t, dtype=float)) / 2.0
    for _ in range(1250):
        n = int(rng.integers(2, 14))
        u = random_circle_function(rng, n=n, levels=int(rng.integers(2, 6)))
        star = periodic_rearrange_1d(u)

        assert equimeasurable(u, star)
        again = periodic_rearrange_1d(star)
        assert np.array_equal(again.values, refine(star, 2).values)
        assertions += 2

        for tau in np.unique(u.values)[:4]:
            e = u.with_values((u.values > tau).astype(float))
            assert np.array_equal(
                (star.values > tau).astype(float), rearrange_set_periodic(e).values
            )
            assertions += 1

        assert composition_commutes_check(staircase, u)
        assert composition_commutes_check(lambda t: 2.0 * np.asarray(t), u)
        assertions += 2

        v = u.with_values(u.values + rng.random(n))
        assert np.all(periodic_rearrange_1d(v).values >= star.values - 1e-15)
        c = float(rng.uniform(0.5, 2.0))
        assert np.allclose(
            periodic_rearrange_1d(u.with_values(c * u.values)).values,
            c * star.values,
            rtol=0,
            atol=1e-14,
        )
        assertions += 2
    elapsed = time.time() - t0
    assert assertions >= 10_000
    assert elapsed < 60.0
    announce(9, f"{assertions} exactness assertions, zero failures", elapsed)
