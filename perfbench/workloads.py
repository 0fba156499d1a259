"""Seeded inputs, ops and output checks for the three benchmark workloads.

Inputs are plain specs (dicts of numbers and arrays) drawn from
``numpy.random.default_rng(seed)`` alone, so they do not depend on the
interpreter's hash seed or on any generator inside persym.  ``build`` turns a
spec into persym objects before timing starts; ``run_op`` performs one op and
returns its values and the list of checks it failed.

persym is always reached through module attributes (``V.check_riesz_circle``)
at call time, so the tracer's wrappers see the benchmark's calls.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from persym import functionals as F
from persym import grid as G
from persym import kernels as K
from persym import seminorm as S
from persym import verify as V

# Specs drawn per run.  The timed loop cycles through them when it runs out;
# no persym cache is keyed by function values, so a repeat costs the same.
POOL_SIZE = {"verify-mix": 2500, "seminorm-stream": 1000, "seminorm-sweep": 400}
# Ops, from a fixed seed, whose values are compared with reference.json.
REFERENCE_SEED = 20241123
REFERENCE_OPS = {"verify-mix": 50, "seminorm-stream": 2, "seminorm-sweep": 2}

FAMILIES = ("riesz", "nonexp-circle", "nonexp-rn", "polya-per", "polya-cyl")
CIRCLE_COSTS = (
    ("abs", {}),
    ("power", {"p": 1.5}),
    ("power", {"p": 2}),
    ("power", {"p": 4}),
    ("shifted_power", {"p": 2, "t0": 0.8}),
    ("exp_increasing", {}),
    ("one_sided", {}),
)
LINE_COSTS = (("abs", {}), ("power", {"p": 2}), ("power", {"p": 3}))
POLYA_SP = ((0.2, 1.0), (0.3, 2.0), (0.45, 2.0), (0.7, 1.0), (0.3, 3.0))
STREAM_N, STREAM_S, STREAM_P = 1024, 0.3, 2.0
SWEEP_N1D, SWEEP_N2D, SWEEP_BOX, SWEEP_P = 64, 12, (-2.0, 2.0), 1.0
SWEEP_S_RANGE = (0.1, 0.9)
INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
DUAL_RTOL = 1e-6

# Reference tolerances, per quantity, from the README tolerance table:
# weight tables ~1e-12 relative, Laplace quadrature 1e-8 asserted.
REF_RTOL = {"lhs": 1e-12, "rhs": 1e-12, "value": 1e-12, "value_rearranged": 1e-12,
            "direct": 1e-12, "laplace": 1e-8}


# ---------------------------------------------------------------------------
# input generation (numpy only)


def _symmetric_decreasing(rng, n: int, shift: int = 0) -> np.ndarray:
    """Mirror-paired descending values: a whole-cell translate of its own
    periodic rearrangement (shift 0 is the rearrangement itself)."""
    half = n // 2
    vals = np.sort(2.0 * rng.random(half))[::-1]
    full = np.concatenate((vals[::-1], vals))
    return np.roll(full, shift)


def _nested_arcs(n: int, lengths, centers) -> np.ndarray:
    vals = np.zeros(n)
    for length, c in zip(lengths, centers):
        start = (c - length) // 2
        vals[(start + np.arange(length)) % n] += 1.0
    return vals


def _levelwise_pair(rng, n: int, n_levels: int = 3):
    """Staircases whose superlevel arcs share one center per level; the
    center may move between levels within both functions' nesting slack."""
    top = max(2, (n - 1) // 2 * 2)

    def lengths():
        ls = sorted(rng.choice(np.arange(1, top // 2 + 1), n_levels, replace=True))
        return [2 * int(v) for v in reversed(ls)]

    lu, lv = lengths(), lengths()
    centers = [2 * int(rng.integers(0, n))]
    for k in range(1, n_levels):
        room = min(lu[k - 1] - lu[k], lv[k - 1] - lv[k]) // 2
        centers.append(centers[-1] + (2 * int(rng.integers(-room, room + 1)) if room else 0))
    return _nested_arcs(n, lu, centers), _nested_arcs(n, lv, centers)


def _random_values(rng, shape, levels: int | None = None) -> np.ndarray:
    if levels is not None:
        return rng.integers(0, levels, shape).astype(float)
    return 2.0 * rng.random(shape)


def _spec_riesz(rng, j: int) -> dict:
    n = int(rng.choice([6, 8, 12, 16]))
    kind = j % 5
    spec = {"family": "riesz", "n": n, "kernel": ["heat", (0.25, 1.0)[j % 2]], "expect": None}
    if kind == 3:  # step kernel, generally not monotone
        spec["kernel"] = ["step", rng.random(n) + 0.05]
    if kind == 0:
        spec["u"] = np.full(n, float(rng.random() * 2))
        spec["v"] = _random_values(rng, n)
        spec["expect"] = "constant"
    elif kind == 1:
        shift = int(rng.integers(0, n))
        spec["u"] = _symmetric_decreasing(rng, n, shift)
        spec["v"] = _symmetric_decreasing(rng, n, shift)
        spec["expect"] = "common-translate"
    else:
        levels = 4 if kind == 2 else None
        spec["u"] = _random_values(rng, n, levels)
        spec["v"] = _random_values(rng, n, levels)
    return spec


def _spec_nonexp_circle(rng, j: int) -> dict:
    n = int(rng.choice([6, 8, 12, 16]))
    cost = j % len(CIRCLE_COSTS)
    spec = {
        "family": "nonexp-circle", "n": n, "cost": cost,
        "kernel": ["heat", float(rng.choice([0.25, 0.5, 1.0]))],
        "internal": j % 10 == 0, "expect": None,
    }
    kind = j % 4
    if kind == 0:
        spec["u"] = _random_values(rng, n)
        spec["v"] = np.full(n, float(rng.random() * 2))
        spec["expect"] = "constant"
    elif kind == 1:
        shift = int(rng.integers(0, n))
        spec["u"] = _symmetric_decreasing(rng, n, shift)
        spec["v"] = _symmetric_decreasing(rng, n, shift)
        spec["expect"] = "common-translate"
    elif kind == 2 and CIRCLE_COSTS[cost][0] == "abs":
        spec["u"], spec["v"] = _levelwise_pair(rng, n)
        spec["expect"] = "levelwise-translate"
    else:
        levels = 3 if kind == 2 else None
        spec["u"] = _random_values(rng, n, levels)
        spec["v"] = _random_values(rng, n, levels)
    return spec


def _spec_nonexp_rn(rng, j: int) -> dict:
    n = int(rng.choice([6, 8, 12]))
    spec = {
        "family": "nonexp-rn", "n": n, "cost": j % len(LINE_COSTS),
        "kernel": ["gauss", float(rng.choice([0.5, 1.0, 2.0]))], "expect": None,
    }
    kind = j % 3
    if kind == 0:
        spec["u"] = _random_values(rng, n)
        spec["v"] = np.zeros(n)
        spec["expect"] = "zero"
    elif kind == 1:  # centered symmetric decreasing pair on the centered box
        spec["u"] = _symmetric_decreasing(rng, n)
        spec["v"] = _symmetric_decreasing(rng, n)
        spec["expect"] = "common-translate"
    else:
        spec["u"] = _random_values(rng, n)
        spec["v"] = _random_values(rng, n)
    return spec


def _spec_polya_per(rng, j: int) -> dict:
    s, p = POLYA_SP[j % len(POLYA_SP)]
    spec = {"family": "polya-per", "s": s, "p": p, "expect": None}
    if j % 8 == 7:  # every 8th case: an 8x8 cylinder
        if j % 16 == 7:
            vals = 2.0 * rng.random((8, 8))
        else:  # one x1-translate shared by every slice of rearranged columns
            shift = int(rng.integers(0, 8))
            vals = np.stack([_symmetric_decreasing(rng, 8, shift) for _ in range(8)], axis=1)
            spec["expect"] = "common-translate"
        vals[:, 0] = 0.0
        vals[:, -1] = 0.0
        spec.update(dim=2, n=8, u=vals)
        return spec
    n = int(rng.choice([6, 8, 12, 16]))
    kind = j % 3
    spec.update(dim=1, n=n)
    if kind == 0 and p == 1.0:
        spec["u"] = _levelwise_pair(rng, n)[0]
        spec["expect"] = "levelwise-translate"
    elif kind == 1:
        spec["u"] = _symmetric_decreasing(rng, n)
        spec["expect"] = "common-translate"
    else:
        spec["u"] = _random_values(rng, n, 4 if kind == 0 else None)
    return spec


def _spec_polya_cyl(rng, j: int) -> dict:
    vals = 2.0 * rng.random((6, 8))
    vals[:, 0] = 0.0
    vals[:, -1] = 0.0
    if j % 3 == 0:
        vals = np.round(2 * vals) / 2.0
    return {"family": "polya-cyl", "s": float(rng.choice([0.2, 0.4, 0.6])), "p": 1.0,
            "u": vals, "expect": None}


_FAMILY_SPEC = {
    "riesz": _spec_riesz,
    "nonexp-circle": _spec_nonexp_circle,
    "nonexp-rn": _spec_nonexp_rn,
    "polya-per": _spec_polya_per,
    "polya-cyl": _spec_polya_cyl,
}


def generate(workload: str, seed: int, count: int | None = None) -> list[dict]:
    """The workload's op specs, from ``default_rng(seed)`` alone."""
    rng = np.random.default_rng(seed)
    count = POOL_SIZE[workload] if count is None else count
    if workload == "verify-mix":  # the five families in equal shares, round robin
        return [_FAMILY_SPEC[FAMILIES[k % 5]](rng, k // 5) for k in range(count)]
    if workload == "seminorm-stream":  # alternating 4-level and continuous inputs
        return [
            {"family": "stream", "kind": kind, "s": STREAM_S, "p": STREAM_P,
             "u": _random_values(rng, STREAM_N, 4 if kind == "levels" else None)}
            for kind in (("levels", "continuous")[k % 2] for k in range(count))
        ]
    if workload == "seminorm-sweep":
        # s_k = lo + (hi - lo) frac(u + k / golden ratio), with u uniform per
        # shape: every s is uniform on [0.1, 0.9] and fresh, and any m
        # consecutive values spread evenly over the range, so that runs of
        # different seeds see the same mix of cheap and costly s (the op cost
        # grows steeply as s nears 0.9).  1D and 2D ops alternate.
        lo, hi = SWEEP_S_RANGE
        start = rng.random(2)
        specs = []
        for k in range(count):
            dim = 1 + k % 2
            s = lo + (hi - lo) * ((start[dim - 1] + (k // 2) * INV_GOLDEN) % 1.0)
            if dim == 1:
                u = 2.0 * rng.random(SWEEP_N1D)
            else:
                u = 2.0 * rng.random((SWEEP_N2D, SWEEP_N2D))
                u[:, 0] = 0.0
                u[:, -1] = 0.0
            specs.append({"family": "sweep", "dim": dim, "s": float(s), "p": SWEEP_P, "u": u})
        return specs
    raise ValueError(f"unknown workload {workload!r}")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v).hex() for v in x.ravel()] + [list(x.shape)]
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def digest(specs: list[dict]) -> str:
    """sha256 of the specs' exact bits, independent of the process."""
    return hashlib.sha256(json.dumps(_jsonable(specs), sort_keys=True).encode()).hexdigest()


def warm_key(spec: dict):
    """Specs with equal keys reuse the same cached tables; None: never reused."""
    fam = spec["family"]
    if fam == "sweep":
        return None
    return (fam, spec.get("dim"), spec.get("n"), spec.get("s"), spec.get("p"))


# ---------------------------------------------------------------------------
# persym objects and ops


@dataclass(frozen=True)
class Op:
    family: str
    expect: str | None
    args: tuple
    kwargs: dict
    kind: str | None = None  # seminorm-stream: 4-level or continuous input


def _kernel(desc, grid):
    kind, arg = desc
    if kind == "heat":
        return K.HeatKernel(arg)
    if kind == "gauss":
        return K.GaussianKernel(arg)
    return K.StepKernelCircle(G.StepFunction(grid, arg))


def _cost(table, i):
    name, params = table[i]
    return F.j_library(name, **params)


def build(spec: dict) -> Op:
    fam = spec["family"]
    if fam in ("riesz", "nonexp-circle", "nonexp-rn"):
        grid = (G.Grid1D.interval(spec["n"], -2.0, 2.0) if fam == "nonexp-rn"
                else G.Grid1D.circle(spec["n"]))
        u, v = G.StepFunction(grid, spec["u"]), G.StepFunction(grid, spec["v"])
        kernel = _kernel(spec["kernel"], grid)
        if fam == "riesz":
            return Op(fam, spec["expect"], (u, v, kernel), {})
        if fam == "nonexp-rn":
            return Op(fam, spec["expect"], (u, v, _cost(LINE_COSTS, spec["cost"]), kernel), {})
        return Op(fam, spec["expect"], (u, v, _cost(CIRCLE_COSTS, spec["cost"]), kernel),
                  {"internal_checks": spec["internal"]})
    if fam == "polya-cyl" or spec.get("dim") == 2:
        n1, n2 = spec["u"].shape
        box = (G.Grid1D.interval(n2, *SWEEP_BOX) if fam == "sweep"
               else G.Grid1D.centered_interval(n2, 4.0))
        u = G.GridFunctionND(G.Grid1D.circle(n1), (box,), spec["u"])
        params = S.SeminormParams(spec["s"], spec["p"], 2)
    else:
        u = G.StepFunction(G.Grid1D.circle(spec["u"].size), spec["u"])
        params = S.SeminormParams(spec["s"], spec["p"], 1)
    return Op(fam, spec.get("expect"), (u, params), {}, spec.get("kind"))


_CONTEXT = {"riesz": "circle", "nonexp-circle": "circle", "nonexp-rn": "euclidean",
            "polya-per": "periodic-ps", "polya-cyl": "cylindrical-ps"}
# a common translate is in particular a levelwise translate, and the
# classifier reports the stronger class first
_ACCEPT = {"levelwise-translate": ("levelwise-translate", "common-translate")}


def run_op(op: Op) -> tuple[dict, list[str]]:
    """One closed-loop op: returns its values and the checks it failed."""
    fam = op.family
    if fam in ("stream", "sweep"):
        d = S.gagliardo_periodic_direct(*op.args)
        lap = S.gagliardo_periodic_laplace(*op.args)
        vals = {"direct": d.value, "laplace": lap.value}
        gap = abs(d.value - lap.value) / abs(d.value)
        problems = [] if gap <= DUAL_RTOL else [f"dual-route gap {gap:.3e}"]
        if not (math.isfinite(d.value) and d.value > 0.0):
            problems.append(f"direct value {d.value!r}")
        vals["dual_gap"] = gap
        return vals, problems
    if fam == "riesz":
        res = V.check_riesz_circle(*op.args, **op.kwargs)
    elif fam == "nonexp-circle":
        res = V.check_nonexpansivity_circle(*op.args, **op.kwargs)
    elif fam == "nonexp-rn":
        res = V.check_nonexpansivity_euclidean(*op.args, **op.kwargs)
    elif fam == "polya-per":
        res = V.check_polya_periodic(*op.args)
    else:
        res = V.check_polya_cylindrical(*op.args)
    if fam.startswith("polya"):
        cls = V.classify_equality(op.args[0], context=_CONTEXT[fam])
    else:
        cls = V.classify_equality(op.args[0], op.args[1], _CONTEXT[fam])
    problems = []
    if res.margin < -res.bound:
        problems.append(f"margin {res.margin:.3e} below -bound {res.bound:.3e}")
    if op.expect is not None:
        if cls.tag not in _ACCEPT.get(op.expect, (op.expect,)):
            problems.append(f"built as {op.expect}, classified {cls.tag}")
        if abs(res.margin) > res.bound:
            problems.append(f"equality case has margin {res.margin:.3e}")
    if fam.startswith("polya"):
        vals = {"margin": res.margin, "margin_laplace": res.margin_laplace,
                "value": res.value, "value_rearranged": res.value_rearranged}
        scale = res.value + res.value_rearranged
        gap = abs(res.margin - res.margin_laplace) / scale if scale else 0.0
        if gap > DUAL_RTOL:
            problems.append(f"dual-route margin gap {gap:.3e}")
        vals["dual_gap"] = gap
    else:
        vals = {"margin": res.margin, "lhs": res.lhs, "rhs": res.rhs}
    vals["bound"] = res.bound
    vals["tag"] = cls.tag
    return vals, problems


def compare_reference(vals: dict, ref: dict) -> list[str]:
    """Mismatches between an op's values and its recorded reference values."""
    problems = []
    for key, want in ref.items():
        if key in ("bound", "dual_gap"):  # diagnostics, not outputs
            continue
        got = vals.get(key)
        if key == "tag":
            ok = got == want
        elif key == "margin":
            ok = abs(got - want) <= max(ref["bound"], 1e-12)
        elif key == "margin_laplace":
            ok = abs(got - want) <= REF_RTOL["laplace"] * (ref["value"] + ref["value_rearranged"])
        else:
            ok = abs(got - want) <= REF_RTOL[key] * max(abs(want), 1e-300)
        if not ok:
            problems.append(f"{key}: {got!r} vs reference {want!r}")
    return problems
