import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, special

from persym.errors import (
    ConfigError,
    GridMismatch,
    NonpositiveTime,
    RangeTooWide,
    SigmaOutOfRange,
    StepFunctionDivergence,
)
from persym.grid import Grid1D, StepFunction
from persym import kernels
from persym.kernels import (
    ND_TABLE_ACCURACY,
    T_SWITCH,
    HeatKernel,
    KernelWeights,
    StepKernelCircle,
    StepKernelLine,
    check_kernel_monotone,
    gaussian_weights_interval,
    heat_kernel_periodic,
    heat_weights_periodic,
    laplace_quadrature,
    offset_sums,
    riesz_weights_1d,
    riesz_weights_nd,
)

from conftest import hurwitz_periodized_reference

mpmath = pytest.importorskip("mpmath")


def assert_even(w):
    """W[-d] = W[d] within 1e-12 relative, in either 1D layout."""
    mirror = w.weights[::-1]
    if w.periodic[0]:  # offset -d is n - d
        mirror = np.roll(mirror, 1)
    np.testing.assert_allclose(w.weights, mirror, rtol=1e-12, atol=0, equal_nan=False)


def wrapped_gaussian_reference(z, t, kmax=500):
    k = np.arange(-kmax, kmax + 1)
    return np.exp(-((np.atleast_1d(z)[:, None] + 2 * math.pi * k[None, :]) ** 2) * t).sum(
        axis=1
    )


def theta_heat_table_reference(n, t, dps=50):
    """Heat-kernel pair table on the n-cell circle from the theta series at dps digits."""
    with mpmath.workdps(dps):
        h = 2 * mpmath.pi / n
        t = mpmath.mpf(t)
        mmax = int(mpmath.ceil(mpmath.sqrt(320 * t))) + 2  # exp(-m^2/4t) < e^-80 beyond
        coef = [
            mpmath.exp(-m * m / (4 * t)) * 4 / (m * m) * mpmath.sin(m * h / 2) ** 2
            for m in range(1, mmax + 1)
        ]
        half = [
            (h * h + 2 * mpmath.fsum(c * mpmath.cos(m * d * h) for m, c in enumerate(coef, 1)))
            / (2 * mpmath.sqrt(mpmath.pi * t))
            for d in range(n // 2 + 1)
        ]
    half = np.array([float(v) for v in half])
    return np.concatenate((half, half[(n - 1) // 2 : 0 : -1]))


def line_gauss_pair_reference(n, h, t, dps=50):
    """Line-Gaussian pair weights at offsets 0..n-1 from the erf antiderivative at dps digits."""
    with mpmath.workdps(dps):
        h, t = mpmath.mpf(h), mpmath.mpf(t)
        st = mpmath.sqrt(t)

        def e2(z):
            return z * mpmath.sqrt(mpmath.pi) / (2 * st) * mpmath.erf(z * st) + mpmath.expm1(
                -z * z * t
            ) / (2 * t)

        vals = [e2((j + 1) * h) - 2 * e2(j * h) + e2(abs(j - 1) * h) for j in range(n)]
    return np.array([float(v) for v in vals])


class TestHeatKernel:
    def test_large_time_limit(self):
        # only the k = 0 copy survives; the first neighbor is ~1e-172
        val = heat_kernel_periodic(0.0, 10.0)
        assert 1.0 <= val <= 1.0 + 2.0 * math.exp(-4.0 * math.pi**2 * 10.0) + 1e-15
        assert heat_kernel_periodic(0.0, 0.05) > 1.0

    def test_symmetry_and_periodicity(self, rng):
        for t in (0.01, 0.3, 2.0):
            z = rng.uniform(-math.pi, math.pi, 20)
            a = heat_kernel_periodic(z, t)
            assert np.allclose(a, heat_kernel_periodic(-z, t), rtol=1e-14)
            assert np.allclose(a, heat_kernel_periodic(z + 2 * math.pi, t), rtol=1e-14)

    def test_dual_branches_agree_at_switch(self, rng):
        z = rng.uniform(-math.pi, math.pi, 100)
        direct = wrapped_gaussian_reference(z, T_SWITCH)
        ours = heat_kernel_periodic(z, T_SWITCH)
        assert np.max(np.abs(ours / direct - 1.0)) < 1e-12

    def test_against_reference_across_t(self, rng):
        for t in np.geomspace(1e-4, 100.0, 13):
            z = rng.uniform(-math.pi, math.pi, 30)
            ref = wrapped_gaussian_reference(z, t)
            ours = heat_kernel_periodic(z, t)
            scale = heat_kernel_periodic(0.0, t)
            assert np.max(np.abs(ours - ref)) <= 1e-13 * scale

    def test_monotone_on_half_period(self):
        # strict decrease whenever the total variation is resolvable in
        # float64; below that the wrapped Gaussian is flat to machine eps
        z = np.linspace(1e-3, math.pi - 1e-3, 200)
        for t in np.geomspace(1e-4, 100.0, 9):
            g = heat_kernel_periodic(z, t)
            assert np.all(np.diff(g) <= 0)
            if g[0] - g[-1] > 1e-12 * g[0]:
                # strict wherever the values have not underflowed
                live = g > 1e-280 * g[0]
                assert np.all(np.diff(g[live]) < 0)

    def test_rejects_nonpositive_time(self):
        with pytest.raises(NonpositiveTime):
            heat_kernel_periodic(0.5, 0.0)


class TestHeatWeights:
    def test_total_mass_identity(self):
        for n, t in [(8, 0.5), (16, 2.0), (8, 1e-3), (12, 40.0)]:
            w = heat_weights_periodic(Grid1D.circle(n), t)
            total = n * w.row_sum()
            assert total == pytest.approx(2 * math.pi * math.sqrt(math.pi / t), rel=1e-13)

    def test_monotone_in_circle_distance(self):
        for t in (0.1, 0.25, 1.0, 4.0):
            w = heat_weights_periodic(Grid1D.circle(16), t)
            assert check_kernel_monotone(w)
            assert_even(w)
        # the guard correctly refuses numerically flat tables (tiny t) and
        # underflowed far entries (huge t): monotone analysis is meaningless there
        assert not check_kernel_monotone(heat_weights_periodic(Grid1D.circle(16), 1e-4))

    def test_against_adaptive_quadrature(self):
        n, t = 8, 0.7
        w = heat_weights_periodic(Grid1D.circle(n), t)
        h = 2 * math.pi / n
        for d in (0, 1, 4):
            ref, _ = integrate.dblquad(
                lambda y, x: wrapped_gaussian_reference(np.array([x - y]), t, 40)[0],
                0,
                h,
                lambda x: d * h,
                lambda x: (d + 1) * h,
                epsabs=1e-13,
                epsrel=1e-12,
            )
            assert w.offset(d) == pytest.approx(ref, rel=1e-11)

    def test_branches_agree_at_switch(self):
        # tables switch from the theta series to Gaussian copies at
        # _heat_switch(h), above the pointwise T_SWITCH on these grids; a
        # relative step of 1e-14 in t moves a table by ~1e-14 of its maximum
        for n in (16, 256):
            h = 2 * math.pi / n
            switch = kernels._heat_switch(h)
            assert switch > T_SWITCH
            lo, hi = kernels._heat_table_batch(n, h, switch * np.array([1 - 1e-14, 1 + 1e-14]))
            assert np.max(np.abs(lo - hi)) < 1e-13 * hi.max()

    @pytest.mark.parametrize("n", [64, 256])
    def test_against_theta_reference_on_fine_grids(self, n):
        for t in (1.001 * T_SWITCH, 0.1, 0.5, 2.0):
            ref = theta_heat_table_reference(n, t)
            w = heat_weights_periodic(Grid1D.circle(n), t).weights
            assert np.max(np.abs(w - ref)) <= 1e-13 * ref.max()

    def test_stack_memory_is_bounded(self):
        # a 1000-time stack at n = 1024, half on the theta branch and half on
        # the copy branch: node chunks keep every temporary within
        # OFFSET_BLOCK elements
        n, h = 1024, 2 * math.pi / 1024
        ts = np.geomspace(1e-20, 1e20, 1000)
        switch = kernels._heat_switch(h)
        assert 400 < np.count_nonzero(ts < switch) < 600
        tracemalloc.start()
        try:
            out = kernels._heat_table_batch(n, h, ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 32 * 2**20


class TestGaussianWeights:
    def test_tables_against_mpmath_at_all_times(self):
        # at small t the erfc complement of the antiderivative is of size
        # 1/sqrt(t) against entries of size h^2; such times keep the erf form
        g = Grid1D.interval(12, -1.0, 1.5)
        ts = np.array([1e-240, 1e-12, 1e-3, 0.1, 10.0])
        tables, _ = kernels._gauss_tables_batch(g, ts)
        for t, table in zip(ts, tables):
            ref = line_gauss_pair_reference(g.n, g.h, t)
            assert np.max(np.abs(table[g.n - 1 :] - ref)) <= 3e-13 * ref.max()
            assert np.array_equal(table[: g.n], table[g.n - 1 :][::-1])

    def test_symmetry_and_quadrature(self):
        g = Grid1D.interval(6, -1.5, 1.5)
        t = 0.8
        w = gaussian_weights_interval(g, t)
        assert_even(w)
        h = g.h
        for d in (0, 1, 5):
            ref, _ = integrate.dblquad(
                lambda y, x: math.exp(-((x - y) ** 2) * t),
                0,
                h,
                lambda x: d * h,
                lambda x: (d + 1) * h,
                epsabs=1e-14,
                epsrel=1e-13,
            )
            assert w.offset(d) == pytest.approx(ref, rel=1e-11)

    def test_interior_plus_exterior_is_total(self):
        g = Grid1D.interval(9, -2.0, 1.0)
        t = 0.6
        w = gaussian_weights_interval(g, t)
        for i in range(g.n):
            interior = sum(w.offset(j - i) for j in range(g.n))
            assert interior + w.exterior[i] == pytest.approx(
                g.h * math.sqrt(math.pi / t), rel=1e-12
            )

    def test_exterior_against_quadrature(self):
        g = Grid1D.interval(5, -1.0, 1.0)
        t = 1.3
        w = gaussian_weights_interval(g, t)
        b = g.boundaries()
        for i in (0, 2, 4):
            upper, _ = integrate.dblquad(
                lambda y, x: math.exp(-((x - y) ** 2) * t),
                b[i],
                b[i + 1],
                lambda x: 1.0,
                lambda x: 30.0,
                epsabs=1e-14,
            )
            lower, _ = integrate.dblquad(
                lambda y, x: math.exp(-((x - y) ** 2) * t),
                b[i],
                b[i + 1],
                lambda x: -30.0,
                lambda x: -1.0,
                epsabs=1e-14,
            )
            assert w.exterior[i] == pytest.approx(upper + lower, rel=1e-10)

    @pytest.mark.parametrize("n", [12, 64])
    def test_exterior_masses_against_mpmath(self, n):
        # every mass within 1e-12 of itself, against 40-digit differences of
        # B(u) = int_u^inf erfc: differences of two antiderivatives near
        # 1/sqrt(pi) lost up to 2e-8 at n = 64 and t = 4, and gave 0 for the
        # middle cells of [-4, 4] (about e^-64); none underflows here
        B = lambda u: mpmath.exp(-u * u) / mpmath.sqrt(mpmath.pi) - u * mpmath.erfc(u)
        for t, (lo, hi) in itertools.product((0.5, 4.0), ((-2.0, 2.0), (-4.0, 4.0))):
            g = Grid1D.interval(n, lo, hi)
            got = kernels._gauss_tables_batch(g, [t])[1][0]
            with mpmath.workdps(40):
                b, st = [mpmath.mpf(x) for x in g.boundaries()], mpmath.sqrt(t)
                ref = np.array([float(
                    mpmath.sqrt(mpmath.pi) / (2 * t) * (B((hi - y) * st) - B((hi - x) * st)
                                                        + B((x - lo) * st) - B((y - lo) * st)))
                    for x, y in zip(b[:-1], b[1:])])
            assert np.all(ref > 0) and np.max(np.abs(got / ref - 1.0)) < 1e-12


def line_pairs(n, h, sigma):
    """The line weights L[m], m = 0..n-1, of |x - y|^(-(1+sigma)) on cells
    of width h, from which the periodized table sums its copies: the series
    past offset 1 and the adjacent pair's closed form."""
    q = kernels._riesz_series(1.0 - sigma, kernels.LINE_TERMS)
    line = kernels._riesz_line_pairs(kernels._line_powers(n - 1), h, sigma, q)
    line[1] = kernels._adjacent_pair(h, sigma)
    return line


class TestRieszWeights1D:
    def test_sigma_range_errors(self):
        g = Grid1D.circle(8)
        with pytest.raises(StepFunctionDivergence):
            riesz_weights_1d(g, 1.0)
        with pytest.raises(SigmaOutOfRange):
            riesz_weights_1d(g, -0.2)

    def test_line_weights_positive_decreasing(self):
        line = line_pairs(8, Grid1D.circle(8).h, 0.5)
        seq = line[1:8].tolist()
        assert all(v > 0 for v in seq)
        assert all(a > b for a, b in zip(seq, seq[1:]))
        assert line[0] == 0.0  # singular-diagonal convention

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8])
    def test_line_weights_against_quadrature(self, sigma):
        g = Grid1D.circle(8)
        h = g.h
        line = line_pairs(8, h, sigma)
        for d in (1, 3, 7):
            # the cell pair [0, h) x [dh, (d+1)h) reduced to its difference
            # r = y - x, of density h - |r - dh| on ((d-1)h, (d+1)h); the
            # rising half is taken in r = a + (c - a) x^4, which tames the
            # r^-sigma end at d = 1 for the tanh-sinh rule
            with mpmath.workdps(30):
                e = -(1 + mpmath.mpf(sigma))
                a, c, b = ((d + k) * mpmath.mpf(h) for k in (-1, 0, 1))
                rise = mpmath.quad(
                    lambda x: 4 * (c - a) ** 2 * x**7 * (a + (c - a) * x**4) ** e, [0, 1]
                )
                fall = mpmath.quad(lambda r: (b - r) * r**e, [c, b])
            assert line[d] == pytest.approx(float(rise + fall), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16, 32])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    def test_periodized_against_hurwitz_zeta(self, n, sigma):
        w = riesz_weights_1d(Grid1D.circle(n), sigma)
        ref = hurwitz_periodized_reference(range(1, n), n, sigma)
        assert w.weights[1:].tolist() == pytest.approx(ref, rel=2e-12)

    def test_periodized_monotone_and_periodic(self):
        w = riesz_weights_1d(Grid1D.circle(16), 0.4)
        assert check_kernel_monotone(w)
        assert_even(w)

    @pytest.mark.parametrize("sigma", [0.3, 0.7])
    def test_periodized_pinned_values(self, sigma):
        # the 40-digit Hurwitz-zeta closed form (hurwitz_periodized_reference)
        # rounded to double: the table must be within its own accuracy, and
        # that within 1e-14
        pinned = {
            0.3: ["0x0.0p+0", "0x1.f558493518d83p+0", "0x1.a6dca217e669fp-1",
                  "0x1.5f8a8ad056300p-1", "0x1.4f666111d994ap-1", "0x1.5f8a8ad056300p-1",
                  "0x1.a6dca217e669fp-1", "0x1.f558493518d83p+0"],
            0.7: ["0x0.0p+0", "0x1.c278966f46688p+1", "0x1.c26594c31680bp-2",
                  "0x1.2555af2d04acep-2", "0x1.052b36908442dp-2", "0x1.2555af2d04acep-2",
                  "0x1.c26594c31680bp-2", "0x1.c278966f46688p+1"],
        }
        w = riesz_weights_1d(Grid1D.circle(8), sigma)
        ref = np.array([float.fromhex(x) for x in pinned[sigma]])
        assert w.weights[0] == ref[0] == 0.0
        assert np.max(np.abs(w.weights[1:] / ref[1:] - 1.0)) <= w.accuracy <= 1e-14

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.89])
    def test_periodized_pinned_values_64(self, sigma):
        # as above, on 64 cells
        pinned = {
            0.1: (
                "0x0.0p+0 0x1.b0b867897e4c3p-3 0x1.681770ee71e3cp-4 0x1.099505e310e95p-4 "
                "0x1.bcf5962e93e85p-5 0x1.8b98dcc1900b8p-5 0x1.6bb37b5356664p-5 0x1.5575866424c6cp-5 "
                "0x1.451c56deeb731p-5 0x1.389f5d4240d82p-5 0x1.2eccb112a40a2p-5 0x1.26e4ec15b5d3ep-5 "
                "0x1.206a4778f8219p-5 0x1.1b06c8209a99bp-5 0x1.167db77c099f2p-5 0x1.12a309af9692dp-5 "
                "0x1.0f560d679db34p-5 0x1.0c7e04d924bb8p-5 0x1.0a07e69354bb8p-5 0x1.07e4d76bf03a4p-5 "
                "0x1.06091bc13d2edp-5 0x1.046b57b7652eap-5 0x1.030404fa1012cp-5 0x1.01cd0d87e6303p-5 "
                "0x1.00c180a167cddp-5 0x1.ffbab5012406dp-6 0x1.fe3ab39ade9d2p-6 0x1.fcfdbe9807033p-6 "
                "0x1.fbffaa93b52c1p-6 0x1.fb3d3a128bdb9p-6 0x1.fab401d422174p-6 0x1.fa6254da9de9dp-6 "
                "0x1.fa4736efae034p-6 0x1.fa6254da9de9dp-6 0x1.fab401d422174p-6 0x1.fb3d3a128bdb9p-6 "
                "0x1.fbffaa93b52c1p-6 0x1.fcfdbe9807033p-6 0x1.fe3ab39ade9d2p-6 0x1.ffbab5012406dp-6 "
                "0x1.00c180a167cddp-5 0x1.01cd0d87e6303p-5 0x1.030404fa1012cp-5 0x1.046b57b7652eap-5 "
                "0x1.06091bc13d2edp-5 0x1.07e4d76bf03a4p-5 0x1.0a07e69354bb8p-5 0x1.0c7e04d924bb8p-5 "
                "0x1.0f560d679db34p-5 0x1.12a309af9692dp-5 0x1.167db77c099f2p-5 0x1.1b06c8209a99bp-5 "
                "0x1.206a4778f8219p-5 0x1.26e4ec15b5d3ep-5 0x1.2eccb112a40a2p-5 0x1.389f5d4240d82p-5 "
                "0x1.451c56deeb731p-5 0x1.5575866424c6cp-5 0x1.6bb37b5356664p-5 0x1.8b98dcc1900b8p-5 "
                "0x1.bcf5962e93e85p-5 0x1.099505e310e95p-4 0x1.681770ee71e3cp-4 0x1.b0b867897e4c3p-3 "
            ),
            0.5: (
                "0x0.0p+0 0x1.7988e51835a42p-1 0x1.fbdcc111ad3f4p-4 0x1.0d396d5065778p-4 "
                "0x1.619b31e7df418p-5 0x1.02d610f096a56p-5 0x1.9523039312debp-6 0x1.4be041726a5f4p-6 "
                "0x1.190db4d57072ep-6 0x1.e83bc8e861df0p-7 0x1.b09a41dfef54dp-7 0x1.85864960e7349p-7 "
                "0x1.6369afeaf0dc5p-7 0x1.47e7d5af6ff3ep-7 0x1.31640d4b8f563p-7 0x1.1ebc1bb9047fbp-7 "
                "0x1.0f1ea67f9a5c2p-7 0x1.01f15cc7c8911p-7 0x1.ed80bb71b9a2ep-8 0x1.da667ec87139ap-8 "
                "0x1.ca0b3e51ae950p-8 0x1.bc03f68a0976cp-8 0x1.affc202396b8dp-8 0x1.a5b077b25b80dp-8 "
                "0x1.9ceb30727afbbp-8 0x1.958126e2d4840p-8 0x1.8f4fcae9853fbp-8 0x1.8a3b9004ced4bp-8 "
                "0x1.862ec136c7295p-8 0x1.8318a0a78405ep-8 0x1.80ecc21ee71acp-8 0x1.7fa2948b7811ap-8 "
                "0x1.7f3512845f8f2p-8 0x1.7fa2948b7811ap-8 0x1.80ecc21ee71acp-8 0x1.8318a0a78405ep-8 "
                "0x1.862ec136c7295p-8 0x1.8a3b9004ced4bp-8 0x1.8f4fcae9853fbp-8 0x1.958126e2d4840p-8 "
                "0x1.9ceb30727afbbp-8 0x1.a5b077b25b80dp-8 0x1.affc202396b8dp-8 0x1.bc03f68a0976cp-8 "
                "0x1.ca0b3e51ae950p-8 0x1.da667ec87139ap-8 0x1.ed80bb71b9a2ep-8 0x1.01f15cc7c8911p-7 "
                "0x1.0f1ea67f9a5c2p-7 0x1.1ebc1bb9047fbp-7 0x1.31640d4b8f563p-7 0x1.47e7d5af6ff3ep-7 "
                "0x1.6369afeaf0dc5p-7 0x1.85864960e7349p-7 0x1.b09a41dfef54dp-7 0x1.e83bc8e861df0p-7 "
                "0x1.190db4d57072ep-6 0x1.4be041726a5f4p-6 0x1.9523039312debp-6 0x1.02d610f096a56p-5 "
                "0x1.619b31e7df418p-5 0x1.0d396d5065778p-4 0x1.fbdcc111ad3f4p-4 0x1.7988e51835a42p-1 "
            ),
            0.89: (
                "0x0.0p+0 0x1.d25f1dc037648p+2 0x1.e86477fdb565fp-3 0x1.a7d81b11cdde8p-4 "
                "0x1.e458117934ecap-5 0x1.3d62e69bfc744p-5 0x1.c468f66099b1cp-6 0x1.557a6dc30fbacp-6 "
                "0x1.0ccbbd3922a7fp-6 0x1.b5061d2650bebp-7 0x1.6c7ec2c0f7934p-7 0x1.36729dbc3baafp-7 "
                "0x1.0d18d33d7ab2cp-7 0x1.d98ab8993771bp-8 0x1.a6174e5a410ebp-8 0x1.7c88c3035c36ep-8 "
                "0x1.5a8d4acc6fafcp-8 0x1.3e7a6cd2c162bp-8 0x1.271787b81f2b8p-8 0x1.137b57ac5bc03p-8 "
                "0x1.02f5240142707p-8 0x1.e9fa9146db424p-9 0x1.d25508f71c332p-9 0x1.be54e38e4e7bap-9 "
                "0x1.ad7846b26b188p-9 0x1.9f587a7dff972p-9 0x1.93a4312066dc6p-9 0x1.8a1b4db941ddep-9 "
                "0x1.828bc344f729dp-9 0x1.7ccf446f2969ap-9 0x1.78c992f2094edp-9 0x1.76674c68cbe31p-9 "
                "0x1.759d1d7772ad2p-9 0x1.76674c68cbe31p-9 0x1.78c992f2094edp-9 0x1.7ccf446f2969ap-9 "
                "0x1.828bc344f729dp-9 0x1.8a1b4db941ddep-9 0x1.93a4312066dc6p-9 0x1.9f587a7dff972p-9 "
                "0x1.ad7846b26b188p-9 0x1.be54e38e4e7bap-9 0x1.d25508f71c332p-9 0x1.e9fa9146db424p-9 "
                "0x1.02f5240142707p-8 0x1.137b57ac5bc03p-8 0x1.271787b81f2b8p-8 0x1.3e7a6cd2c162bp-8 "
                "0x1.5a8d4acc6fafcp-8 0x1.7c88c3035c36ep-8 0x1.a6174e5a410ebp-8 0x1.d98ab8993771bp-8 "
                "0x1.0d18d33d7ab2cp-7 0x1.36729dbc3baafp-7 0x1.6c7ec2c0f7934p-7 0x1.b5061d2650bebp-7 "
                "0x1.0ccbbd3922a7fp-6 0x1.557a6dc30fbacp-6 0x1.c468f66099b1cp-6 0x1.3d62e69bfc744p-5 "
                "0x1.e458117934ecap-5 0x1.a7d81b11cdde8p-4 0x1.e86477fdb565fp-3 0x1.d25f1dc037648p+2 "
            ),
        }
        w = riesz_weights_1d(Grid1D.circle(64), sigma)
        ref = np.array([float.fromhex(x) for x in pinned[sigma].split()])
        assert w.weights[0] == ref[0] == 0.0
        assert np.max(np.abs(w.weights[1:] / ref[1:] - 1.0)) <= w.accuracy <= 1e-14

    @pytest.mark.parametrize("sigma,n", [
        (sigma, n) for sigma in (1e-20, 1e-9, 1e-5, 1e-3, 0.02, 0.1, 0.5, 0.9, 0.98)
        for n in (2, 3, 4, 8, 64, 256, 1024, 4096) if sigma >= 0.02 or n != 64
    ])
    def test_periodized_against_hurwitz_oracle(self, n, sigma):
        # every offset up to 64 cells, a spread of offsets past that; sigma
        # near 0 and 1 is where a direct second difference of r^(1 - sigma)
        # loses a factor 1 / (sigma (1 - sigma)), 1e-12 at n = 64; with the
        # pole order's s - 1 taken as 1 - a, the far copies lost sigma below
        # 1e-2 (1.6e-9 off at 1e-7) and gave inf below 1e-16, at every n
        # (below 0.02, n = 8 checks every offset: the 40-digit reference
        # takes 0.3 s on all 63 offsets of 64 cells)
        w = riesz_weights_1d(Grid1D.circle(n), sigma)
        d = np.arange(1, n) if n <= 64 else np.array([1, 2, 3, n // 4 - 1, n // 2, n - 3, n - 1])
        ref = np.array(hurwitz_periodized_reference(d, n, sigma))
        err = np.max(np.abs(w.weights[d] / ref - 1.0))
        assert err <= w.accuracy <= 1e-14
        assert w.accuracy >= kernels.RIESZ_ROUNDING

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 64, 256, 1024])
    def test_sigma_series_within_its_certificate(self, n):
        # the table is a Chebyshev series in sigma per grid, with the poles
        # at 0 and 1 split off: at the ends of (0, 1), between the fit's
        # points and at 20 seeded sigmas, every checked entry lies within
        # the certificate of the 40-digit Hurwitz-zeta closed form, and the
        # certificate within 1e-14 (every offset on up to 8 cells; past
        # that the touching ones, the next and the antipode, and through
        # the mirror the last)
        sigmas = [1e-20, 1e-9, 1e-5, 0.02, 0.1, 0.5, 0.9, 0.98, 1.0 - 1e-9]
        sigmas += np.random.default_rng(32).random(20).tolist()
        d = np.arange(1, n) if n <= 8 else np.array([1, 2, n // 2, n - 1])
        for sigma in sigmas:
            w = riesz_weights_1d(Grid1D.circle(n), sigma)
            ref = np.array(hurwitz_periodized_reference(d, n, sigma))
            assert np.max(np.abs(w.weights[d] / ref - 1.0)) <= w.accuracy <= 1e-14, sigma

    @pytest.mark.parametrize("n", [8, 64, 4096])
    @pytest.mark.parametrize("sigma", [0.02, 0.5, 0.98])
    def test_short_far_copy_series_is_certified(self, n, sigma, monkeypatch, fresh_caches):
        # three Taylor terms of the far copies instead of RIESZ_TAYLOR leave
        # an error far above the rounding floor: the certificate of the
        # direct sums, the fit's sampler, grows with it and still bounds it,
        # and the fit of those sums carries it into its own certificate: that
        # one bounds the table's error, and is at most the Lebesgue constant
        # plus one times the sampler's largest relative bound, over the fit's
        # Chebyshev points, of the part it fits
        full = riesz_weights_1d(Grid1D.circle(n), sigma)
        h, a = 2 * math.pi / n, 1.0 - sigma
        monkeypatch.setattr(kernels, "RIESZ_TAYLOR", 3)
        plan = kernels._periodized_plan(n)
        near, far, bound = kernels._periodized_direct(plan, h, sigma)
        with mpmath.workdps(30):
            zeta = float(mpmath.zeta(1 + mpmath.mpf(sigma), kernels.RIESZ_NEAR + 0.5))
        poles = 2.0 * h**a * n**a / n**2 * zeta + plan.adjacent * kernels._adjacent_pair(h, sigma)
        direct = near + far + poles  # the half table, offsets 1..n // 2
        accuracy = np.max(bound / direct) + kernels.RIESZ_ROUNDING
        d = np.arange(1, n // 2 + 1, max(1, n // 128))  # the certificate is a maximum over offsets
        ref = np.array(hurwitz_periodized_reference(d, n, sigma))
        err = np.max(np.abs(direct[d - 1] / ref - 1.0))
        assert 1e3 * full.accuracy < err <= accuracy < 2.0 * err
        fresh_caches()
        w = riesz_weights_1d(Grid1D.circle(n), sigma)
        fit_err = np.max(np.abs(w.weights[d] / ref - 1.0))
        degree = kernels.FIT_DEGREE
        lebesgue = 2.0 / math.pi * math.log(degree + 1) + 1.0
        sampled = 0.0
        for s in 0.5 + 0.5 * np.cos(math.pi / degree * np.arange(degree + 1)):
            near, far, bound = kernels._periodized_direct(plan, h, s)
            sampled = max(sampled, np.max(bound / (near + far)))
        assert 1e3 * full.accuracy < fit_err <= w.accuracy
        assert w.accuracy <= (lebesgue + 1.0) * sampled + kernels.RIESZ_ROUNDING

    @pytest.mark.parametrize("sigma", [0.02, 0.5, 0.98])
    def test_line_series_against_direct_differences(self, sigma):
        # the closed form at m = 1 and both series lengths (30 terms below
        # m = 40, 5 from there) agree with the direct second difference of
        # r^(1 - sigma) taken in 50-digit arithmetic
        h = 2 * math.pi / 64
        line = line_pairs(301, h, sigma)
        with mpmath.workdps(50):
            a, hh = 1 - mpmath.mpf(sigma), mpmath.mpf(h)
            c = 1 / (mpmath.mpf(sigma) * (mpmath.mpf(sigma) - 1))
            for m in (1, 2, 3, 39, 40, 41, 300):
                ref = c * (((m + 1) * hh) ** a - 2 * (m * hh) ** a + ((m - 1) * hh) ** a)
                assert abs(line[m] / float(ref) - 1.0) < 2e-15


# (n1, interval axis) of the copy-tail tests: the benchmark's 12x12 grid and
# one whose long interval needs many more explicit copies
TAIL_GRIDS = [(12, Grid1D.interval(12, -2.0, 2.0)), (12, Grid1D.interval(12, -6.0, 6.0))]
# the grids of the fit tests: the benchmark's, a 16-long box and 64 x 64
FIT_GRIDS = [
    (Grid1D.circle(12), Grid1D.interval(12, -2.0, 2.0)),
    (Grid1D.circle(32), Grid1D.centered_interval(32, 16.0)),
    (Grid1D.circle(64), Grid1D.interval(64, -2.0, 2.0)),
]


# explicit periodic copies |k| <= REF_COPIES of ``_nd_table_reference``, and
# the terms of its series for the others
REF_COPIES, REF_TAIL_J, REF_TAIL_M = 10, 8, 16


def _nd_table_reference(g1, g2, sigma, offsets, order=30):
    """The 2D power-kernel table at cell offsets (d1, d2), from the
    difference variables: h1^2 h2^2 times the integral over (a, b) in
    [-1, 1]^2 of the hats (1 - |a|)(1 - |b|) times sum_k ((d1 + a) h1 + 2 pi
    k)^2 + ((d2 + b) h2)^2)^-mu, mu = 1 + sigma / 2.

    Each quadrant of (a, b) takes an order-point tensor Gauss-Legendre rule
    over the copies |k| <= REF_COPIES.  A copy singular at a corner of the
    quadrant, where a hat vanishes, takes a Duffy split there instead: on
    each of the two triangles the radial integral of r^(m - 1 - sigma) is
    1 / (m - sigma), and Gauss-Legendre takes the angle.  The other copies
    sum in closed form, 2 (2 pi)^-2mu sum over j and even m of binom(-mu, j)
    binom(-2 mu - 2 j, m) zeta(2 mu + 2 j + m, REF_COPIES + 1) eta^2j xi^m,
    with xi and eta the point over 2 pi, the Hurwitz zeta from mpmath.
    """
    mu = 1.0 + sigma / 2.0
    h1, h2, n1 = g1.h, g2.h, g1.n
    with mpmath.workdps(30):
        m_ = mpmath.mpf(mu)
        c = 2 * (2 * mpmath.pi) ** (-2 * m_)
        tail = np.array([[
            float(c * mpmath.binomial(-m_, j) * mpmath.binomial(-2 * m_ - 2 * j, m)
                  * mpmath.zeta(2 * m_ + 2 * j + m, REF_COPIES + 1)) if m % 2 == 0 else 0.0
            for m in range(REF_TAIL_M + 1)] for j in range(REF_TAIL_J + 1)])
    x, w = np.polynomial.legendre.leggauss(order)
    x, w = (x + 1.0) / 2.0, w / 2.0  # on [0, 1]
    hats = np.outer(w * (1.0 - x), w * (1.0 - x))
    copies = np.arange(-REF_COPIES, REF_COPIES + 1)
    out = []
    for d1, d2 in offsets:
        total = 0.0
        for sa, sb in itertools.product((-1, 1), repeat=2):  # the quadrant's signs of a, b
            u, v = (d1 + sa * x[:, None]) * h1, (d2 + sb * x[None, :]) * h2
            # (copy, corner) where the point (u + 2 pi k, v) is 0
            singular = [(k, a0, b0) for k in copies for a0 in (0, 1) for b0 in (0, 1)
                        if d1 + sa * a0 + n1 * k == 0 and d2 + sb * b0 == 0]
            skip = [k for k, _, _ in singular]
            f = sum(((u + 2 * math.pi * k) ** 2 + v**2) ** -mu for k in copies if k not in skip)
            xi, eta = u[:, 0] / (2 * math.pi), v[0] / (2 * math.pi)
            f = f + (xi[:, None] ** np.arange(REF_TAIL_M + 1)) @ tail.T @ (
                eta[None, :] ** (2 * np.arange(REF_TAIL_J + 1))[:, None])
            total += np.sum(hats * f)
            for _, a0, b0 in singular:
                # the hats from the corner, p + q r along each side of it
                (p1, q1), (p2, q2) = [(0.0, 1.0) if end else (1.0, -1.0) for end in (a0, b0)]
                linear = q1 * q2 * x / (2.0 - sigma)
                total += ((h1**2 + (x * h2) ** 2) ** -mu) @ (
                    w * ((q1 * p2 + p1 * q2 * x) / (1.0 - sigma) + linear))
                total += ((h2**2 + (x * h1) ** 2) ** -mu) @ (
                    w * ((q1 * p2 * x + p1 * q2) / (1.0 - sigma) + linear))
        out.append(total * (h1 * h2) ** 2)
    return np.array(out)


class TestRieszWeightsND:
    def test_symmetries(self):
        W = riesz_weights_nd(Grid1D.circle(8), Grid1D.centered_interval(6, 3.0), 0.5)
        n2 = 6
        for d1 in range(8):
            for d2 in range(-(n2 - 1), n2):
                a = W.weights[d1, d2 + n2 - 1]
                assert a == pytest.approx(W.weights[(-d1) % 8, -d2 + n2 - 1], rel=1e-13)
                assert a == pytest.approx(W.weights[d1, -d2 + n2 - 1], rel=1e-13)

    def test_far_cell_midpoint_asymptotics(self):
        g1, g2 = Grid1D.circle(32), Grid1D.centered_interval(32, 8.0)
        sigma = 0.5
        W = riesz_weights_nd(g1, g2, sigma)
        d1, d2 = 0, 16  # center distance 4, cells ~0.2 wide: midpoint regime
        k = np.arange(-200_000, 200_001)
        approx = float(
            (g1.h * g2.h) ** 2
            * np.sum(
                ((d1 * g1.h + 2 * math.pi * k) ** 2 + (d2 * g2.h) ** 2)
                ** (-(2 + sigma) / 2)
            )
        )
        ours = W.weights[d1, d2 + 31]
        assert abs(ours / approx - 1.0) < 0.01

    # offsets of the 8 x 8 grid of the reference test: the three adjacent
    # ones, (1, 0), (0, 1) and (1, 1), the one adjacent through the period,
    # (7, 0), and others near and far
    REFERENCE_OFFSETS = [(1, 1), (2, 0), (0, 3), (1, 0), (0, 1), (7, 0), (7, 1), (2, 2),
                         (3, 3), (4, 1), (1, 3), (4, 7), (6, -5), (0, -7), (5, 2)]

    @pytest.mark.parametrize("sigma", [0.02, 0.5, 0.98, 0.99, 0.999, 1.0 - 1e-6, 1.0 - 1e-9])
    def test_against_a_deterministic_reference(self, sigma):
        # shares no code with the builder, whose panels, orders and hat
        # moments are laid out otherwise: every entry within 2.5e-15, up to
        # sigma near 1, where T_k = 1 sums up the DCT's rounding, which
        # reaches 5e-15 unless the fit takes its samples less their middle one
        g1, g2 = Grid1D.circle(8), Grid1D.centered_interval(8, 4.0)
        w = riesz_weights_nd(g1, g2, sigma).weights
        ref = _nd_table_reference(g1, g2, sigma, self.REFERENCE_OFFSETS)
        got = np.array([w[d1, d2 + g2.n - 1] for d1, d2 in self.REFERENCE_OFFSETS])
        assert np.max(np.abs(got / ref - 1.0)) < 2.5e-15

    def test_copy_tail_self_convergence(self, monkeypatch, fresh_caches):
        # four more explicit copies per side move no entry by more than 1e-14
        for (n1, g2), sigma in itertools.product(TAIL_GRIDS, (0.02, 0.5, 0.98)):
            g1 = Grid1D.circle(n1)
            copies = kernels._tail_copies(g1.n, g1.h, g2.n, g2.h)
            a = riesz_weights_nd(g1, g2, sigma).weights
            with monkeypatch.context() as m:
                m.setattr(kernels, "_tail_copies", lambda *args: copies + 4)
                fresh_caches()
                b = riesz_weights_nd(g1, g2, sigma).weights
            fresh_caches()
            nz = b != 0
            assert np.max(np.abs(a[nz] / b[nz] - 1.0)) < 1e-14

    @pytest.mark.parametrize("n1,g2", TAIL_GRIDS, ids=["12x12", "12-long"])
    @pytest.mark.parametrize("sigma", [0.02, 0.98])
    def test_copy_tail_series_against_reference(self, n1, g2, sigma):
        # oracle: the copies K < |k| < 400 summed in 25-digit arithmetic, and
        # the rest by the binomial series at Hurwitz zeta from k = 400, at
        # points spanning the sector boxes (the series is even in x1 and x2)
        h1 = 2 * math.pi / n1
        copies = kernels._tail_copies(n1, h1, g2.n, g2.h)
        mu = (2 + sigma) / 2
        series, _ = kernels._copy_tail_series(mu, copies)
        powers = np.arange(series.shape[0])
        cut = 400
        for x1 in (0.0, h1, math.pi / 2, math.pi + h1):
            for x2 in (0.0, g2.h, g2.length / 2, g2.length + g2.h):
                xi2, eta2 = (x1 / (2 * math.pi)) ** 2, (x2 / (2 * math.pi)) ** 2
                got = (2 * math.pi) ** (-2 * mu) * (xi2**powers @ series @ eta2**powers)
                with mpmath.workdps(25):
                    m, y1, y2, tp = mpmath.mpf(mu), mpmath.mpf(x1), mpmath.mpf(x2), 2 * mpmath.pi
                    near = mpmath.fsum(
                        ((tp * k + y1) ** 2 + y2**2) ** -m + ((tp * k - y1) ** 2 + y2**2) ** -m
                        for k in range(copies + 1, cut)
                    )
                    rest = mpmath.fsum(
                        2 * mpmath.binomial(-m, b) * mpmath.binomial(-2 * m - 2 * b, a)
                        * mpmath.zeta(2 * m + 2 * b + a, cut)
                        * (y1 / tp) ** a * (y2 / tp) ** (2 * b)
                        for a in range(0, 9, 2) for b in range(0, 5 - a // 2)
                    )
                    ref = float(near + tp ** (-2 * m) * rest)
                assert got == pytest.approx(ref, rel=1e-14)

    def test_copy_count_follows_the_grid(self):
        # a 12-long interval needs K = 10 where 12x12 on [-2, 2] takes 4
        h1 = 2 * math.pi / 12
        assert [kernels._tail_copies(12, h1, g.n, g.h) for _, g in TAIL_GRIDS] == [4, 10]

    def test_exterior_against_quadrature(self):
        g1, g2 = Grid1D.circle(4), Grid1D.centered_interval(5, 2.0)
        sigma = 0.6
        mu = (2 + sigma) / 2
        W = riesz_weights_nd(g1, g2, sigma)
        # section mass: int_R (t^2 + a^2)^(-mu) dt = kappa a^(-1-sigma)
        from scipy.special import gamma as Gamma

        kappa = math.sqrt(math.pi) * Gamma(mu - 0.5) / Gamma(mu)
        b = g2.boundaries()
        for i in (0, 2, 4):
            ref, _ = integrate.quad(
                lambda x2: (kappa / sigma)
                * ((g2.hi - x2) ** (-sigma) + (x2 - g2.lo) ** (-sigma)),
                b[i],
                b[i + 1],
                epsabs=1e-13,
                epsrel=1e-12,
                points=[b[i], b[i + 1]],
            )
            assert W.exterior[i] == pytest.approx(g1.h * ref, rel=1e-9)

    @pytest.mark.parametrize("n1,g2", [
        (12, Grid1D.interval(12, -2.0, 2.0)), (6, Grid1D.centered_interval(8, 4.0)),
        (8, Grid1D.centered_interval(3, 0.2)),
    ], ids=["12x12", "6x8", "8x3"])
    @pytest.mark.parametrize("sigma", [0.5, 1 - 1e-5, 1 - 1e-9])
    def test_exterior_masses_against_mpmath(self, n1, g2, sigma):
        # the closed form in 40 digits on the table's own cell edges; as
        # differences of (hi - b)^(1 - sigma) and (b - lo)^(1 - sigma), which
        # all near 1 with sigma, the masses were 3.0e-7 off at 1 - 1e-9
        ext = riesz_weights_nd(Grid1D.circle(n1), g2, sigma).exterior
        with mpmath.workdps(40):
            s, b = mpmath.mpf(sigma), [mpmath.mpf(x) for x in g2.boundaries().tolist()]
            mu, lo, hi = 1 + s / 2, b[0], b[-1]
            kappa = mpmath.sqrt(mpmath.pi) * mpmath.gamma(mu - 0.5) / mpmath.gamma(mu)
            scale = 2 * mpmath.pi / n1 * kappa / (s * (1 - s))
            power = [(hi - x) ** (1 - s) for x in b], [(x - lo) ** (1 - s) for x in b]
            ref = [float(scale * (power[0][i] - power[0][i + 1] + power[1][i + 1] - power[1][i]))
                   for i in range(g2.n)]
        assert np.max(np.abs(ext / np.array(ref) - 1.0)) < 1e-14

    def test_needs_periodic_interval_pair(self):
        with pytest.raises(GridMismatch):
            riesz_weights_nd(Grid1D.circle(4), Grid1D.circle(4), 0.5)

    @pytest.mark.parametrize("sigma", [0.3, 0.7])
    def test_pinned_sector_values(self, sigma):
        # the sector 0 <= d1 <= 3, 0 <= d2 < 5, recorded from the series-tail
        # builder, which is within 1.4e-15 of a 64-copy build here (the
        # Euler-Maclaurin tails of 16 copies were 4.4e-14 and 2.2e-14 off at
        # sigma = 0.3 and 0.7); the contractions go through BLAS, whose
        # last bits may vary between builds, hence 1e-14
        pinned = {
            0.3: [
                ["0x0.0p+0", "0x1.edd6b3d56cf73p+0", "0x1.17d939b87425ep-2",
                 "0x1.db1d17e1455c7p-4", "0x1.07cf61331bbb8p-4"],
                ["0x1.6aba52b85fa5dp-1", "0x1.1583d1ae5bf97p-2", "0x1.f9faf6ef825bbp-4",
                 "0x1.2ab1c9b7961fcp-4", "0x1.8b065cd2dae62p-5"],
                ["0x1.8c91328e674abp-5", "0x1.7af341a212f8ep-5", "0x1.5024c09271dcap-5",
                 "0x1.1e0f64fc4cabfp-5", "0x1.dfcff19e919ddp-6"],
                ["0x1.f62433d5b9e94p-6", "0x1.eccf3104a40b2p-6", "0x1.d2fb52b90f1cep-6",
                 "0x1.adfb5b70fb075p-6", "0x1.83d4937ed94e2p-6"],
            ],
            0.7: [
                ["0x0.0p+0", "0x1.6b0a2002fc17bp+2", "0x1.3069796def5f1p-2",
                 "0x1.ab422cc894455p-4", "0x1.9da08cf14b479p-5"],
                ["0x1.0672e18a0b829p+1", "0x1.600d2189f9626p-2", "0x1.da945120c7712p-4",
                 "0x1.e62e5254d9da6p-5", "0x1.200ca2aade3efp-5"],
                ["0x1.1f2c2f5a520a8p-5", "0x1.0e9d09bdadacap-5", "0x1.cef38b8b17d8ep-6",
                 "0x1.77782ce6c7b02p-6", "0x1.2aff2476c114cp-6"],
                ["0x1.339d7303c8a94p-6", "0x1.2c7548cdee2a0p-6", "0x1.18d367e1361e4p-6",
                 "0x1.fa537f7e995b3p-7", "0x1.bcb0ac654d5e4p-7"],
            ],
        }
        ref = np.array([[float.fromhex(x) for x in row] for row in pinned[sigma]])
        W = riesz_weights_nd(Grid1D.circle(6), Grid1D.centered_interval(5, 2.0), sigma)
        sector = W.weights[:4, 4:]
        assert sector[0, 0] == 0.0
        nz = ref != 0
        assert np.max(np.abs(sector[nz] / ref[nz] - 1.0)) < 1e-14

    # sectors 0 <= d1 <= n1/2, 0 <= d2 < n2 of grids whose x1 copies fold in
    # awkward ways: on 1 x 4 and 2 x 3 the k = +-1 copies touch the kernel
    # origin, and 3 x 7 has an odd n1; recorded from the per-box plan that
    # summed every copy k in [-K, K] apart
    FOLD_PINS = {
        (1, 4, 1.0, 0.3): [
            ["0x0.0p+0", "0x1.23166d7245488p+4", "0x1.1b3b4cdb6f424p+2", "0x1.415bb85dfedc9p+1"],
        ],
        (1, 4, 1.0, 0.7): [
            ["0x0.0p+0", "0x1.4ac0b2818d0e4p+5", "0x1.eee2e6210a745p+1", "0x1.d2e8463c0d63ep+0"],
        ],
        (2, 3, 1.0, 0.3): [
            ["0x0.0p+0", "0x1.2dd292fa2b709p+3", "0x1.c3627d9719e84p+0"],
            ["0x1.e63596601cb9bp+1", "0x1.b19f2c46658a0p+0", "0x1.e2e5c5c2aa0fep-1"],
        ],
        (2, 3, 1.0, 0.7): [
            ["0x0.0p+0", "0x1.4f63d8144a7bap+4", "0x1.748ef6aaad4cap+0"],
            ["0x1.07059acd9d8fcp+3", "0x1.92d1c70ad0fb0p+0", "0x1.4ddf4a36cfa5fp-1"],
        ],
        (3, 7, 4.5, 0.3): [
            ["0x0.0p+0", "0x1.fe1dbe4a91538p+2", "0x1.22a1efdc2d16fp+0", "0x1.231572fdeb886p-1",
             "0x1.7d439093d3af4p-2", "0x1.18acf4054b825p-2", "0x1.b837b75ce3f53p-3"],
            ["0x1.42ec18c24b6aap+2", "0x1.e34e635cf8b21p+0", "0x1.b8d904c55709fp-1",
             "0x1.0d6e7dc768f9dp-1", "0x1.750a73749ad3bp-2", "0x1.16f4c437dea21p-2",
             "0x1.b77507d5a04c7p-3"],
        ],
        (3, 7, 4.5, 0.7): [
            ["0x0.0p+0", "0x1.e96f1e626b00ap+3", "0x1.726926a09d8d8p-1", "0x1.28d78bedc6ceap-2",
             "0x1.52b4e97ffdfbcp-3", "0x1.c4332c076863cp-4", "0x1.488cbe546e700p-4"],
            ["0x1.288d1d3486394p+3", "0x1.8016ce73aaefep+0", "0x1.f992efb113542p-2",
             "0x1.08cf166b855d4p-2", "0x1.476c43e7047f8p-3", "0x1.bfbae70f37bffp-4",
             "0x1.479a3c6eba39fp-4"],
        ],
    }

    @pytest.mark.parametrize(
        "n1,n2,half,sigma", list(FOLD_PINS), ids=lambda x: str(x).replace(".", "_")
    )
    def test_pinned_fold_sectors(self, n1, n2, half, sigma):
        pinned = self.FOLD_PINS[n1, n2, half, sigma]
        ref = np.array([[float.fromhex(x) for x in row] for row in pinned])
        W = riesz_weights_nd(Grid1D.circle(n1), Grid1D.interval(n2, -half, half), sigma)
        sector = W.weights[: n1 // 2 + 1, n2 - 1 :]
        assert sector[0, 0] == 0.0
        nz = ref != 0
        assert np.max(np.abs(sector[nz] / ref[nz] - 1.0)) < 1e-14

    @pytest.mark.parametrize("sigma", [0.3, 0.98, 0.9999, 0.999999])
    def test_corner_moments_against_mpmath(self, sigma):
        # oracle: the radial integrals in closed form, over the angle in
        # 30-digit arithmetic; with 1 - sigma formed as 3 - 2 mu, the moments
        # were 2.2e-12 off at sigma = 0.9999 and 1.1e-10 at 0.999999
        side = 0.3
        got = kernels._corner_moments(kernels._corner_rule(side), sigma)
        with mpmath.workdps(30):
            a, cos, sin = 1 - mpmath.mpf(sigma), mpmath.cos, mpmath.sin

            def moment(f, power):
                return mpmath.quad(
                    lambda t: (side / cos(t)) ** power / power * f(t), [0, mpmath.pi / 4]
                )

            m1 = float(moment(lambda t: cos(t) + sin(t), a))
            m11 = float(moment(lambda t: 2 * cos(t) * sin(t), a + 1))
        assert got == pytest.approx((m1, m1, m11), rel=1e-14)

    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.89])
    @pytest.mark.parametrize("n1,n2", [(1, 4), (2, 3), (4, 5), (6, 5), (12, 12), (16, 16)])
    def test_graded_orders_against_fixed_order(self, n1, n2, sigma, monkeypatch, fresh_caches):
        # oracle: the same panels, every one at order 20, above the graded
        # orders' ceiling of 18; on circles of n1 <= 2 the k = +-1 copies
        # touch the kernel origin, and their cells are 4.7 to 12.6 times
        # wider than tall
        g1, g2 = Grid1D.circle(n1), Grid1D.centered_interval(n2, 2.0)
        got = riesz_weights_nd(g1, g2, sigma).weights
        graded, used = kernels._gl_order, []

        def fixed(*args):
            m = graded(*args)
            used.append(m.max(initial=1))
            return np.full_like(m, 20)

        monkeypatch.setattr(kernels, "_gl_order", fixed)
        fresh_caches()  # the cached grid fit holds the graded orders
        ref = riesz_weights_nd(g1, g2, sigma).weights
        assert max(used) <= 18
        nz = ref != 0
        assert np.all(ref[nz] > 0) and np.count_nonzero(nz) == ref.size - 1
        assert np.max(np.abs(got[nz] / ref[nz] - 1.0)) < 1e-14

    @pytest.mark.parametrize("g1,g2", FIT_GRIDS, ids=["12x12", "32x32-16-long", "64x64"])
    def test_fit_against_direct_sums(self, g1, g2):
        # the Chebyshev series in sigma against the direct sums it was
        # fitted to, at both ends and the middle of the sigma range and at
        # 20 random sigmas
        plan = kernels._nd_plan(g1.n, g1.h, g2.n, g2.h)
        sigmas = [0.02, 0.5, 0.98, *np.random.default_rng(16).uniform(0.01, 0.99, 20)]
        for sigma in sigmas:
            ref = direct_sector(plan, g1, g2, sigma)
            assert np.max(np.abs(fitted_sector(g1, g2, sigma) / ref - 1.0)) < 1e-14

    def test_low_degree_fit_is_certified(self, monkeypatch, fresh_caches):
        # a degree-8 fit instead of FIT_DEGREE leaves an error far above
        # the rounding floor: the certified bound grows with it and still
        # bounds it
        g1, g2 = FIT_GRIDS[0]
        full = kernels._nd_fit(g1.n, g1.h, g2.n, g2.lo, g2.hi).bound
        monkeypatch.setattr(kernels, "FIT_DEGREE", 8)
        monkeypatch.setattr(kernels, "ND_TABLE_ACCURACY", 1.0)  # report the bound, do not raise
        fresh_caches()
        low = kernels._nd_fit(g1.n, g1.h, g2.n, g2.lo, g2.hi).bound
        plan = kernels._nd_plan(g1.n, g1.h, g2.n, g2.h)
        err = max(
            np.max(np.abs(fitted_sector(g1, g2, sigma) / direct_sector(plan, g1, g2, sigma) - 1.0))
            for sigma in np.linspace(0.01, 0.99, 41)
        )
        assert full < ND_TABLE_ACCURACY and low > 1e6 * full
        assert 1e-11 < err <= low < 100.0 * err

    def test_low_degree_fit_raises(self, monkeypatch, fresh_caches):
        g1, g2 = FIT_GRIDS[0]
        monkeypatch.setattr(kernels, "FIT_DEGREE", 8)
        fresh_caches()
        with pytest.raises(RangeTooWide):
            riesz_weights_nd(g1, g2, 0.5)

    def test_second_sigma_reuses_the_grid_plan(self, monkeypatch, fresh_caches):
        # panels, orders and the fit depend on the grid alone, so a second
        # sigma on the same grid builds none of them and sums nothing directly
        g1, g2 = Grid1D.circle(12), Grid1D.interval(12, -2.0, 2.0)
        riesz_weights_nd(g1, g2, 0.3)
        calls = []
        for name in ("_panels", "_gl_order", "_nd_direct"):
            original = getattr(kernels, name)
            monkeypatch.setattr(
                kernels, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a)
            )
        riesz_weights_nd(g1, g2, 0.7)
        assert calls == []
        fresh_caches()
        riesz_weights_nd(g1, g2, 0.7)
        assert set(calls) == {"_panels", "_gl_order", "_nd_direct"}
        assert calls.count("_nd_direct") == kernels.FIT_DEGREE + 3

    def test_plan_is_read_only(self):
        g1, g2 = Grid1D.circle(6), Grid1D.centered_interval(8, 4.0)
        riesz_weights_nd(g1, g2, 0.5)
        fit = kernels._nd_fit(g1.n, g1.h, g2.n, g2.lo, g2.hi)
        for arr in (*fit.series, fit.corner, *fit.corner_rule, fit.cells):
            with pytest.raises(ValueError):
                arr.flat[0] = 1
        assert fit is kernels._nd_fit(g1.n, g1.h, g2.n, g2.lo, g2.hi)

    def test_plan_memory_is_bounded(self, fresh_caches):
        # the plan's nodes are written a chunk at a time, and the plan is
        # dropped once the fit is made: the first build at 16x16 peaks
        # within the plan (0.40 MiB, its nodes, slots, fold, weights and
        # chunk matrices) and 8 blocks (1 MiB; measured 4), and what it
        # keeps, the fit (38 KiB) and small rules, is under a quarter of
        # the plan
        g1, g2 = Grid1D.circle(16), Grid1D.interval(16, -2.0, 2.0)
        kernels._gl_order(1.0, 1.0, 1.0, 1.0)  # scipy's lazy imports are not the plan's
        tracemalloc.start()
        try:
            riesz_weights_nd(g1, g2, 0.5)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        plan = kernels._nd_plan(g1.n, g1.h, g2.n, g2.h)
        hats = {id(c[3]): c[3] for c in plan.chunks}.values()  # chunks of a kind share one
        arrays = (plan.nodes, plan.into, plan.fold, plan.corner, plan.tri1, plan.tri2, *hats)
        plan = sum(a.nbytes for a in arrays)
        fit = kernels._nd_fit(g1.n, g1.h, g2.n, g2.lo, g2.hi)
        fit_arrays = (*fit.series, fit.corner, *fit.corner_rule, fit.cells)
        fit_bytes = sum(a.nbytes for a in fit_arrays)
        block = 8 * kernels.OFFSET_BLOCK
        assert peak < plan + 8 * block, (peak - plan) / block
        assert fit_bytes < plan / 10 and kept < plan / 4, (fit_bytes, kept, plan)


def direct_sector(plan, g1, g2, sigma):
    """The sector of a 2D table summed directly at sigma, corner moments
    included: the sample function of the fit."""
    mu = (2 + sigma) / 2
    values, _ = kernels._nd_direct(plan, mu)
    rule = kernels._corner_rule(min(g1.h, g2.h))
    return values + plan.corner @ np.array(kernels._corner_moments(rule, sigma))


def fitted_sector(g1, g2, sigma):
    d1, d2 = kernels._nd_sector(g1.n, g2.n)
    return riesz_weights_nd(g1, g2, sigma).weights[d1, d2 + g2.n - 1]


def test_tables_are_read_only():
    # tables are cached and handed to every caller, so none may be changed
    circle, line = Grid1D.circle(8), Grid1D.centered_interval(6, 3.0)
    nd = riesz_weights_nd(Grid1D.circle(4), Grid1D.centered_interval(3, 2.0), 0.5)
    arrays = [
        heat_weights_periodic(circle, 0.5).weights,
        gaussian_weights_interval(line, 0.5).weights,
        gaussian_weights_interval(line, 0.5).exterior,
        nd.weights,
        nd.exterior,
    ]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert heat_weights_periodic(circle, 0.5) is heat_weights_periodic(circle, 0.5)


class TestStepKernelTables:
    def test_table_matches_brute_integration(self, rng):
        # oracle: reduce the pair integral to the offset marginal with its
        # triangular density; the kernel is constant on each half, so quad
        # integrates a linear function exactly
        n = 8
        prof = StepFunction.on_circle(rng.random(n) + 0.1)
        w = StepKernelCircle(prof).weights(prof.grid)
        h = prof.grid.h

        def g_per(z):
            z = (z + math.pi) % (2 * math.pi) - math.pi
            return prof.values[min(int((z + math.pi) / h), n - 1)]

        for d in range(n):
            ref = sum(
                integrate.quad(lambda s: (h - abs(s)) * g_per(s - d * h), a, b)[0]
                for a, b in ((-h, 0.0), (0.0, h))
            )
            assert w.offset(d) == pytest.approx(ref, rel=1e-12)

    def test_rearranged_kernel_is_monotone(self, rng):
        prof = StepFunction.on_circle(rng.random(8))
        k = StepKernelCircle(prof).rearranged()
        w = k.weights(Grid1D.circle(16))
        half = 8
        seq = w.weights[1 : half + 1]
        assert np.all(np.diff(seq) <= 1e-15)

    @pytest.mark.parametrize(
        "n, k", [(5, 2), (16, 2), (27, 2), (7, 3), (24, 3), (3, 1), (9, 1)],
        ids=["cut-k2", "equal-k2", "padded-k2", "cut-k3", "equal-k3", "cut-k1", "padded-k1"],
    )
    def test_line_table_matches_brute_integration(self, rng, n, k):
        # the oracle of the circle tables, with the kernel 0 off its support
        # [-1, 1]: a grid of fewer offsets than the support's 8 k cells cuts
        # the table, a wider one pads it with exact zeros
        prof = StepFunction(Grid1D.centered_interval(8, 2.0), rng.random(8) + 0.1)
        h = prof.grid.h / k
        w = StepKernelLine(prof).weights(Grid1D.interval(n, -0.5, n * h - 0.5))

        def g_line(z):
            return prof.values[int((z + 1.0) // prof.grid.h)] if -1.0 <= z < 1.0 else 0.0

        for d in range(-(n - 1), n):
            ref = sum(
                integrate.quad(lambda s: (h - abs(s)) * g_line(s - d * h), a, b)[0]
                for a, b in ((-h, 0.0), (0.0, h))
            )
            assert w.offset(d) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_line_step_kernel_mass_split(self, rng):
        prof = StepFunction(Grid1D.centered_interval(8, 2.0), rng.random(8))
        kern = StepKernelLine(prof)
        grid = Grid1D.interval(10, -1.0, 1.5)
        w = kern.weights(grid)
        for i in range(grid.n):
            interior = sum(w.offset(j - i) for j in range(grid.n))
            assert interior + w.exterior[i] == pytest.approx(
                grid.h * prof.values.sum() * prof.grid.h, rel=1e-12, abs=1e-15
            )

    def test_each_step_kernel_needs_its_grid_kind(self):
        # a circle kernel has no table on an interval, a line kernel none on
        # the circle, as the heat and Gaussian builders already refuse
        circle = StepKernelCircle(StepFunction.on_circle([1.0, 2.0, 1.0, 0.0]))
        with pytest.raises(GridMismatch, match="periodic grid"):
            circle.weights(Grid1D.interval(8, -1.0, 1.0))
        line = StepKernelLine(StepFunction(Grid1D.centered_interval(4, 2.0), [0.0, 1.0, 2.0, 1.0]))
        with pytest.raises(GridMismatch, match="interval grid"):
            line.weights(Grid1D.circle(8))


class TestKernelMonotoneCheck:
    def test_heat_and_riesz_pass_constant_fails(self):
        g = Grid1D.circle(12)
        assert check_kernel_monotone(heat_weights_periodic(g, 0.5))
        assert check_kernel_monotone(riesz_weights_1d(g, 0.5))
        const = StepKernelCircle(StepFunction.constant(g, 1.0)).weights(g)
        assert not check_kernel_monotone(const)


def _ulps(got, exact) -> float:
    """Largest error of the doubles ``got`` against mpmath values, in units of
    the spacing of doubles at each exact value (5e-324 where it underflows)."""
    return max(
        float(abs(mpmath.mpf(g) - e)) / float(np.spacing(abs(float(e))))
        for g, e in zip(np.ravel(got).tolist(), exact)
    )


def _rel(got, exact) -> float:
    return max(float(abs(mpmath.mpf(g) / e - 1)) for g, e in zip(np.ravel(got).tolist(), exact))


class TestSpecialFunctions:
    """The builders' erf, erfc and Hurwitz zeta against 40-digit mpmath on
    the arguments the tables pass them, each no worse than scipy.special at
    the same points."""

    def test_erf_and_erfc(self):
        # [0, 30], with the points where erf rounds to 1 and erfc underflows
        ends = [5.921587195794507, 27.226364135742184, 27.226364135742188, kernels.ERFC_ZERO]
        x = np.concatenate((np.linspace(0.0, 30.0, 1201), ends))
        with mpmath.workdps(40):
            for ours, scipys, exact in (
                (kernels._erf, special.erf, mpmath.erf),
                (kernels._erfc, special.erfc, mpmath.erfc),
            ):
                ref = [exact(mpmath.mpf(v)) for v in x.tolist()]
                assert _ulps(ours(x), ref) <= _ulps(scipys(x), ref)

    def test_erf_and_erfc_are_libm_elementwise(self):
        x = np.linspace(-3.0, 40.0, 432).reshape(3, -1)
        for ours, libm in ((kernels._erf, math.erf), (kernels._erfc, math.erfc)):
            got = ours(x)
            assert got.shape == x.shape
            assert np.array_equal(got, np.vectorize(libm)(x))
        assert kernels._erfc(np.array([kernels.ERFC_ZERO, 1e300, np.inf])).tolist() == [0.0] * 3
        assert np.isnan(kernels._erfc(np.nan))

    def test_zeta_of_the_1d_far_copies(self):
        # orders 2j - a, j <= 22 (the most any cell count takes), a = 1 - sigma
        # across (0, 1) up to its ends, at x = RIESZ_NEAR + 1/2
        j = np.arange(1, 23)
        a = [1e-12, 1e-6, 0.02, 0.25, 0.5, 0.75, 0.98, 1 - 1e-6, 1 - 1e-12]
        s = (2.0 * j - np.array(a)[:, None]).ravel()
        self._assert_zeta(s, kernels.RIESZ_NEAR + 0.5)

    def test_zeta_of_the_2d_copy_tail(self):
        # orders 2 mu + 2 j over the fit's ellipse ends mu in [0.6, 1.9], at
        # x = K + 1 for the copy counts of the 2D grids of these tests
        grids = [(12, Grid1D.interval(12, -2.0, 2.0)), (8, Grid1D.interval(8, -2.0, 2.0)),
                 (4, Grid1D.interval(5, -1.0, 1.0)), *TAIL_GRIDS[1:],
                 (32, Grid1D.centered_interval(32, 16.0))]
        copies = sorted({kernels._tail_copies(n1, 2 * math.pi / n1, g.n, g.h) for n1, g in grids})
        assert copies == [4, 10, 13]
        j = np.arange(kernels.TAIL_DEGREE // 2 + 2)
        s = (2.0 * np.linspace(0.6, 1.9, 14)[:, None] + 2.0 * j).ravel()
        for k in copies:
            self._assert_zeta(s, k + 1.0)

    @staticmethod
    def _assert_zeta(s, x):
        with mpmath.workdps(40):
            ref = [mpmath.zeta(mpmath.mpf(v), mpmath.mpf(x)) for v in s.tolist()]
        err = _rel(kernels._hurwitz_zeta(s, s - 1.0, x), ref)
        assert err <= 1e-15
        assert err <= _rel(special.zeta(s, x), ref)


def laplace_rule_reference(lam, z_min, z_max, rtol):
    """The rule checked on its own window: 41 geometric points, e^(-z t) at
    its nodes, the spacing halved from 0.25 until the check passes, the
    transform times z^lam = exp(lam log z) against Gamma(lam); returns
    nodes, weights, the check's error, ds and the first k."""
    s_left, s_right = kernels.laplace_window(lam, z_min, z_max, rtol)
    zs = np.geomspace(z_min, z_max, 41)
    ds = 0.25
    while True:
        k_lo = math.floor(s_left / ds)
        s = ds * np.arange(k_lo, math.ceil(s_right / ds) + 1)
        nodes, weights = np.exp(s), ds * np.exp(lam * s)
        ratio = (np.exp(-np.outer(zs, nodes)) @ weights) * np.exp(lam * np.log(zs))
        exact = math.gamma(lam)
        err = max(float(ratio.max()) - exact, exact - float(ratio.min())) / exact
        if err <= rtol:
            return nodes, weights, err, ds, k_lo
        ds *= 0.5


def _route_z_range(n1, g2=None):
    """The z-range of the Laplace route's rule on n1 circle cells (times g2)."""
    h1 = 2 * math.pi / n1
    if g2 is None:
        return h1 * h1 / 4, (2 * math.pi) ** 2
    return min(h1, g2.h) ** 2 / 4, (2 * math.pi) ** 2 + g2.length**2


LAPLACE_Z_RANGES = [
    _route_z_range(2),
    _route_z_range(64),
    _route_z_range(4096),
    _route_z_range(12, Grid1D.interval(12, -2.0, 2.0)),
]


class TestLaplaceQuadrature:
    @pytest.mark.parametrize("lam", [0.6, 0.75, 1.5])
    def test_gamma_anchor(self, lam):
        cfg = laplace_quadrature(lam, 1e-3, 1e3, rtol=1e-9)
        zs = np.geomspace(1e-3, 1e3, 80)
        assert cfg.gamma_identity_error(zs).max() < 1e-8

    def test_exponential_integral_example(self):
        cfg = laplace_quadrature(1.0, 0.5, 2.0, rtol=1e-10)
        assert cfg.apply(np.exp(-cfg.nodes)) == pytest.approx(1.0, rel=1e-10)

    def test_node_doubling_stability(self):
        cfg = laplace_quadrature(0.75, 1e-2, 1e2, rtol=1e-10)
        z = np.array([0.1, 1.0, 10.0])
        coarse = np.exp(-np.outer(z, cfg.nodes)) @ cfg.weights
        s = np.log(cfg.nodes)
        ds = s[1] - s[0]
        s2 = np.arange(s[0], s[-1] + ds / 2, ds / 2)
        fine = np.exp(-np.outer(z, np.exp(s2))) @ ((ds / 2) * np.exp(0.75 * s2))
        assert np.max(np.abs(coarse / fine - 1.0)) < 1e-10

    def test_range_too_wide(self, fresh_caches, monkeypatch):
        monkeypatch.setattr(kernels, "LAPLACE_MAX_NODES", 50)
        with pytest.raises(RangeTooWide):
            laplace_quadrature(0.75, 1e-300, 1e300, rtol=1e-12)
        assert kernels._rule_lattice.cache_info().misses == 0  # raised before any lattice

    @pytest.mark.parametrize("z_range", LAPLACE_Z_RANGES, ids=["n2", "n64", "n4096", "12x12"])
    # 0.1: below lam = 0.3 the window's right end falls as lam rises
    @pytest.mark.parametrize("lam", [0.1, 0.51, 0.75, 0.99, 1.01, 1.25, 1.49, 1.5])
    def test_rule_matches_a_rule_checked_on_its_own(self, lam, z_range):
        self._assert_matches_reference(lam, z_range, 1e-9)

    def test_rule_that_halves_its_spacing(self):
        assert self._assert_matches_reference(5.0, LAPLACE_Z_RANGES[1], 1e-12).ds < 0.25

    @staticmethod
    def _assert_matches_reference(lam, z_range, rtol):
        """The rule equals ``laplace_rule_reference`` bit for bit."""
        cfg = laplace_quadrature(lam, *z_range, rtol=rtol)
        nodes, weights, err, ds, k_lo = laplace_rule_reference(lam, *z_range, rtol)
        assert (cfg.ds, cfg.k_lo, cfg.achieved) == (ds, k_lo, err)
        assert np.array_equal(cfg.nodes, nodes) and np.array_equal(cfg.weights, weights)
        return cfg

    def test_nodes_sit_on_the_lattice(self):
        # the window of laplace_window, snapped outward to s = k ds; every
        # lam with the same ds takes the same node values bit for bit
        rules = [laplace_quadrature(lam, 2.4e-3, 39.5, rtol=1e-9) for lam in (0.51, 0.75, 0.99)]
        assert {cfg.ds for cfg in rules} == {0.25}
        for cfg in rules:
            k = np.arange(cfg.k_lo, cfg.k_lo + cfg.nodes.size)
            assert np.array_equal(cfg.nodes, np.exp(k * cfg.ds))
            s_left, s_right = kernels.laplace_window(cfg.lam, 2.4e-3, 39.5, 1e-9)
            assert cfg.k_lo == math.floor(s_left / cfg.ds)
            assert k[-1] == math.ceil(s_right / cfg.ds)
        for a, b in itertools.combinations(rules, 2):
            lo, hi = max(a.k_lo, b.k_lo), min(a.k_lo + a.nodes.size, b.k_lo + b.nodes.size)
            assert hi - lo > 100
            assert np.array_equal(a.nodes[lo - a.k_lo : hi - a.k_lo], b.nodes[lo - b.k_lo : hi - b.k_lo])


def offset_sums_reference(u, v, cost, periodic):
    """Loop over every offset and sum the cell pairs it joins on the grid."""
    batch = v.shape[: v.ndim - u.ndim]
    ranges = [range(n) if per else range(1 - n, n) for n, per in zip(u.shape, periodic)]
    out = np.zeros(batch + tuple(len(r) for r in ranges))
    cells = np.indices(u.shape).reshape(u.ndim, -1)
    for slot, d in zip(np.ndindex(*out.shape[len(batch) :]), itertools.product(*ranges)):
        j = cells + np.array(d)[:, None]
        on = np.ones(cells.shape[1], dtype=bool)
        for a, (n, per) in enumerate(zip(u.shape, periodic)):
            if per:
                j[a] %= n
            else:
                on &= (j[a] >= 0) & (j[a] < n)
        pair = cost(u[tuple(cells[:, on])], v[(...,) + tuple(j[:, on])])
        out[(...,) + slot] = pair.sum(axis=-1)
    return out


def power_cost(a, b):
    return np.abs(a - b) ** 1.5


def abs_cost(a, b):
    return np.abs(a - b)


def skew_cost(a, b):
    return np.exp(a - 2 * b)


class TestOffsetSums:
    @pytest.mark.parametrize(
        "shape,batch,periodic,cost,block",
        [
            ((9,), (), (True,), power_cost, None),
            ((8,), (), (False,), power_cost, None),
            ((5, 6), (), (True, False), power_cost, None),
            ((5, 6), (), (True, False), np.multiply, None),
            ((7,), (4,), (True,), power_cost, None),
            ((4, 5), (3,), (True, False), np.multiply, None),
            ((2500,), (), (True,), np.multiply, None),
            ((1,), (), (True,), power_cost, None),
            ((2,), (3,), (True,), power_cost, None),
            ((1, 4), (), (True, False), power_cost, None),
            ((2, 3), (2,), (True, False), np.multiply, None),
            ((100,), (), (False,), power_cost, None),
            ((1, 100), (), (True, False), power_cost, None),
            ((12, 12), (), (True, False), abs_cost, None),
            ((6, 8), (), (True, False), skew_cost, None),
            ((5, 4), (3,), (True, False), power_cost, 16),
            ((3, 2), (2,), (True, False), skew_cost, 48),
            ((3, 5), (2,), (True, False), power_cost, 64),
        ],
        ids=["1d-periodic", "1d-interval", "2d", "2d-product", "1d-batched",
             "2d-batched", "1d-multi-block", "1d-one-cell", "1d-two-cells",
             "2d-one-cell-circle", "2d-two-cell-circle",
             "1d-interval-wide-blocks", "2d-one-cell-circle-wide-rows",
             "2d-sweep-12x12", "2d-asymmetric-cost",
             # one offset and one interval row per temporary; blocks of 2 and
             # 1 offsets; interval rows in chunks of 2, 2 and 1
             "2d-batched-small-blocks", "2d-batched-partial-block",
             "2d-batched-partial-rows"],
    )
    def test_against_reference(self, shape, batch, periodic, cost, block, rng, monkeypatch):
        u = rng.random(shape)
        v = rng.random(batch + shape)
        if block:
            monkeypatch.setattr(kernels, "OFFSET_BLOCK", block)
        got = offset_sums(u, v, cost, periodic)
        ref = offset_sums_reference(u, v, cost, periodic)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "n,pins",
        [
            (16, {0: "0x1.1cc22e56d48eap+2", 1: "0x1.07e01d229e174p+2",
                  8: "0x1.6d0a1f042a6b4p+1", 15: "0x1.f9969b318832ap+1"}),
            (64, {0: "0x1.8804047b15800p+3", 1: "0x1.bab6898a24506p+3",
                  32: "0x1.f01f2b82b4fdcp+3", 63: "0x1.c3641465c008dp+3"}),
        ],
    )
    def test_periodic_1d_sums_are_pinned(self, n, pins):
        # float-hex pins: any change to the arithmetic of 1D periodic sums
        # (cost layout, summation order, blocking) shows here bit for bit
        rng = np.random.default_rng(n)
        u, v = rng.random(n), rng.random((2, n))
        got = offset_sums(u, v, power_cost, (True,))[1]
        assert {d: float(got[d]).hex() for d in pins} == pins

    @pytest.mark.parametrize(
        "shape,block,digest,pins",
        [
            ((6, 8), None, "5ea47e5115216759",
             {(1, 3): "0x1.26d05fef1c73cp+2", (3, 7): "0x1.4e51dc5347d37p+3",
              (5, 14): "0x1.2572f9a86faacp-1"}),
            ((12, 12), None, "b8c8242199e6fb15",
             {(2, 11): "0x1.f008405e654fdp+4", (6, 0): "0x1.5df9cd536c1fbp+1",
              (11, 22): "0x1.a199b61035dc4p+1"}),
            ((16, 8), None, "9caf752ca2a6237b",
             {(0, 6): "0x1.abc84e30b7f17p+4", (8, 9): "0x1.45d6d0ec106d1p+4",
              (15, 14): "0x1.98946c8e6fe0ep+2"}),
            # one first-axis offset and one interval row per temporary
            ((6, 8), 64, "f5f1beee2d3a6b34",
             {(1, 3): "0x1.26d05fef1c73cp+2", (3, 7): "0x1.4e51dc5347d37p+3",
              (5, 14): "0x1.2572f9a86faacp-1"}),
            # blocks of one offset, interval rows in chunks of 4
            ((12, 12), 600, "4a636351c012d9b5",
             {(2, 11): "0x1.f008405e654fep+4", (6, 0): "0x1.5df9cd536c1f8p+1",
              (11, 22): "0x1.a199b61035dc4p+1"}),
        ],
        ids=["6x8", "12x12", "16x8", "6x8-block-64", "12x12-block-600"],
    )
    def test_symmetric_2d_sums_are_pinned(self, shape, block, digest, pins, monkeypatch):
        # float-hex pins and a digest of every byte: any change to the
        # arithmetic of 2D symmetric sums (cost layout, summation order over
        # the periodic cells and the bins, blocking) shows here bit for bit
        if block:
            monkeypatch.setattr(kernels, "OFFSET_BLOCK", block)
        rng = np.random.default_rng(shape[0] * shape[1])
        u = rng.random(shape)
        got = offset_sums(u, u, power_cost, (True, False), symmetric=True)
        assert {at: float(got[at]).hex() for at in pins} == pins
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest

    @pytest.mark.parametrize(
        "m,pins",
        [
            (16, {0: "0x1.a45203d656309p-3", 8: "0x1.2ad023ad10f76p+0",
                  15: "0x1.1d7633c331166p+1", 30: "0x1.0ad9135c486f3p-7"}),
            (64, {0: "0x1.725501bfc5e24p-2", 32: "0x1.3c4183a00e0d1p+2",
                  63: "0x1.26730b8449d95p+3", 126: "0x1.2992f321ff782p-3"}),
        ],
    )
    def test_interval_1d_sums_are_pinned(self, m, pins):
        # float-hex pins of the sums energy_euclidean takes: any change to
        # the arithmetic of 1D interval sums (the bins, the row chunks) shows
        rng = np.random.default_rng(m + 1)
        u, v = rng.random(m), rng.random(m)
        got = offset_sums(u, v, lambda a, b: np.abs(a - b) ** 2.5, (False,))
        assert {d: float(got[d]).hex() for d in pins} == pins

    @pytest.mark.parametrize(
        "shape,digest,pins",
        [
            ((6, 8), "df277c6e7e005a0c",
             {(0, 7): "0x1.f2d33669114bep+2", (1, 3): "0x1.8d3155fded39bp+2",
              (5, 14): "0x1.36b014e9da778p+0"}),
            ((12, 12), "3d84ad63917d510f",
             {(0, 11): "0x1.740273fd97b85p+4", (1, 3): "0x1.b0576b348bd08p+3",
              (11, 22): "0x1.e36eaab3166bap+0"}),
        ],
        ids=["6x8", "12x12"],
    )
    def test_product_2d_sums_are_pinned(self, shape, digest, pins):
        # float-hex pins and a digest of the full (not symmetric) 2D sums
        # under np.multiply, the pairing fractional_perimeter takes
        rng = np.random.default_rng(shape[0] * shape[1] + 1)
        u = rng.random(shape)
        got = offset_sums(u, 1.0 - u, np.multiply, (True, False))
        assert {at: float(got[at]).hex() for at in pins} == pins
        assert hashlib.sha256(got.tobytes()).hexdigest()[:16] == digest

    def test_every_layout_is_pinned(self, monkeypatch):
        # one digest over every layout: cell counts 1 to 129, batches, full
        # and symmetric sums, three costs and four block sizes
        cases = (
            [((n,), (True,)) for n in (1, 2, 3, 8, 17, 64, 129)]
            + [((m,), (False,)) for m in (1, 2, 5, 12, 40)]
            + [((n, m), (True, False))
               for n, m in ((1, 1), (2, 3), (5, 6), (7, 12), (12, 12), (16, 8))]
        )
        digest = hashlib.sha256()
        for block in (16, 64, 600, 16384):
            monkeypatch.setattr(kernels, "OFFSET_BLOCK", block)
            for shape, periodic in cases:
                rng = np.random.default_rng(sum(shape) * 31 + len(shape))
                u = rng.random(shape)
                for batch in ((), (3,)):
                    v = rng.random(batch + shape)
                    for cost in (power_cost, np.multiply, skew_cost):
                        digest.update(offset_sums(u, v, cost, periodic).tobytes())
                digest.update(offset_sums(u, u, power_cost, periodic, symmetric=True).tobytes())
        assert digest.hexdigest() == (
            "7b56307a593113a3b7c57df430f2ada4a2da0e3755744c97c3a5ad20a6550284"
        )

    @pytest.mark.parametrize("periodic", [(False, True), (True, True), (False, False)])
    def test_other_layouts_are_refused(self, periodic, rng):
        # the circle, an interval and the cylinder are the only grids
        u = rng.random((4, 5))
        with pytest.raises(GridMismatch, match="axes of one of"):
            offset_sums(u, u, power_cost, periodic)
        with pytest.raises(ConfigError, match="fits no grid"):
            KernelWeights(periodic, np.ones((4, 5)), 1e-15)

    def test_multi_block_case_spans_blocks(self):
        assert 2500 * 2500 > kernels.OFFSET_BLOCK

    @pytest.mark.parametrize(
        "shape,periodic",
        [((4096,), (True,)), ((64, 64), (True, False)), ((2048,), (False,))],
        ids=["1d", "2d", "1d-interval"],
    )
    def test_memory_is_bounded(self, shape, periodic, rng, fresh_caches):
        # the full pair tensor would be 128 MiB (1d) or 254 MiB (2d); every
        # temporary stays within OFFSET_BLOCK elements, and the cached plan
        # (an index and a keep mask, 9 bytes a pair) within the pairs of one
        # first-axis offset or OFFSET_BLOCK pairs, whichever is more
        u = rng.random(shape)
        pairs = u.size * math.prod(n if per else 2 * n - 1 for n, per in zip(shape, periodic))
        block = 8 * kernels.OFFSET_BLOCK
        plan = 9 * max(kernels.OFFSET_BLOCK, pairs // shape[0])
        tracemalloc.start()
        try:
            out = offset_sums(u, u, power_cost, periodic)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + plan + 6 * block, (peak - out.nbytes - plan) / block

    @pytest.mark.parametrize(
        "shape,periodic", [((700,), (False,)), ((300,), (False,)), ((181,), (False,))]
    )
    def test_interval_first_axis_reuses_one_plan(self, shape, periodic, rng, fresh_caches):
        # one plan per shape serves every chunk of interval rows (the last
        # one partial at 181 cells), so a repeated call builds none
        u = rng.random(shape)
        v = rng.random((2,) + shape)
        offset_sums(u, v, power_cost, periodic)
        assert kernels._offset_plan.cache_info().misses == 1
        got = offset_sums(u, v, power_cost, periodic)
        plan = kernels._offset_plan(shape, periodic, (2,), kernels.OFFSET_BLOCK, False)
        assert kernels._offset_plan.cache_info().misses == 1
        assert len(plan.blocks) * len(plan.rows) > 4  # several temporaries
        ref = offset_sums_reference(u, v, power_cost, periodic)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize(
        "shape,periodic",
        [((n,), (True,)) for n in (1, 2, 3, 64, 129)]
        + [((n1, n2), (True, False)) for n1 in (1, 2, 7, 12) for n2 in (1, 5, 12)]
        + [((5, 6), (True, False)), ((9,), (False,)), ((6,), (False,))],
    )
    def test_symmetric_sums_match_the_full_path(self, shape, periodic, rng):
        # half the periodic offsets, the rest mirrored as S[-d], the interval
        # offset negated with it; without a periodic axis all offsets are summed
        u = rng.random(shape)
        full = offset_sums(u, u, power_cost, periodic)
        half = offset_sums(u, u, power_cost, periodic, symmetric=True)
        assert half.shape == full.shape and half.flags.c_contiguous
        assert np.all(np.abs(half - full) <= 4e-15 * np.abs(full))

    def test_symmetric_sums_take_no_batch_axes(self, rng):
        u = rng.random((5, 4))
        with pytest.raises(GridMismatch, match="batch"):
            offset_sums(u, np.stack((u, u)), power_cost, (True, False), symmetric=True)

    def test_small_blocks_change_nothing(self, rng, monkeypatch):
        u = rng.random((5, 4))
        v = rng.random((2, 5, 4))
        whole = offset_sums(u, v, power_cost, (True, False))
        monkeypatch.setattr(kernels, "OFFSET_BLOCK", 16)
        blocked = offset_sums(u, v, power_cost, (True, False))
        ref = offset_sums_reference(u, v, power_cost, (True, False))
        assert np.max(np.abs(whole - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert np.max(np.abs(blocked - ref)) <= 1e-13 * np.max(np.abs(ref))
