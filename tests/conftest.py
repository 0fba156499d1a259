import sys

import numpy as np
import pytest

from persym.grid import Grid1D, GridFunctionND, StepFunction


def random_circle_function(rng, n=8, levels=None, vmax=3.0):
    """Random nonnegative step function on the standard periodic grid."""
    if levels is not None:
        vals = rng.integers(0, levels, size=n).astype(float)
    else:
        vals = vmax * rng.random(n)
    return StepFunction(Grid1D.circle(n), vals)


def random_interval_function(rng, n=12, lo=-2.0, hi=2.0, vmax=2.0, pad=0):
    vals = vmax * rng.random(n)
    if pad:
        vals[:pad] = 0.0
        vals[-pad:] = 0.0
    return StepFunction(Grid1D.interval(n, lo, hi), vals)


def random_nd_function(rng, n1=8, n2=8, length2=4.0, vmax=2.0, levels=None):
    """Random 2D grid function: periodic x1, centered compact box in x2."""
    if levels is not None:
        vals = rng.integers(0, levels, size=(n1, n2)).astype(float)
    else:
        vals = vmax * rng.random((n1, n2))
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    return GridFunctionND(
        Grid1D.circle(n1), (Grid1D.centered_interval(n2, length2),), vals
    )


def hurwitz_periodized_reference(d, n, sigma):
    """Independent closed form for the periodized pair weights via Hurwitz zeta.

    The second antiderivative of the periodized kernel at z = 2 pi q is
    c (zeta(sigma - 1, q) + zeta(sigma - 1, 1 - q)), taken at q = j / n with
    j wrapped into [0, n) by periodicity (at q = 0 both terms are Riemann
    zeta); ``d`` is one offset or a list of them."""
    import mpmath  # a test dependency only

    with mpmath.workdps(40):
        s = mpmath.mpf(sigma)
        c = (2 * mpmath.pi) ** (1 - s) / (s * (s - 1))
        ds = [int(x) for x in np.atleast_1d(d)]
        js = {j % n for x in ds for j in (x - 1, x, x + 1)}
        ends = js | {n - j for j in js}
        zeta = {j: mpmath.zeta(s - 1, mpmath.mpf(j) / n) for j in ends if 0 < j < n}
        g = {j: c * (zeta[j] + zeta[n - j]) if j else 2 * c * mpmath.zeta(s - 1) for j in js}
        out = [float(g[(x + 1) % n] - 2 * g[x % n] + g[(x - 1) % n]) for x in ds]
    return out if np.ndim(d) else out[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def clear_persym_caches():
    """Empty every cache in persym's modules, as a fresh process has them."""
    for name, mod in list(sys.modules.items()):
        if name == "persym" or name.startswith("persym."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def fresh_caches():
    """Empty caches around a test that patches a builder, so that no table it
    builds reaches another test; yields the clearing function for use mid-test."""
    clear_persym_caches()
    yield clear_persym_caches
    clear_persym_caches()
