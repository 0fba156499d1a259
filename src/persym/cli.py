"""Command-line front end: JSON functions in, values/CSV out.

Subcommands map one-to-one onto library operations; all numeric work stays
in the modules, this front end only parses, validates, runs and serializes.
Identical arguments and seed produce byte-identical output files.

Exit codes: 0 success, 1 verification failure (or a divergent energy), 2
configuration error (``ConfigError``), which includes input files whose grids
or values do not fit the command.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import __version__
from .errors import ConfigError, GridMismatch, PersymError
from .functionals import ConvexJ, energy_circle, energy_euclidean, j_library
from .grid import (
    Grid1D,
    GridFunctionND,
    StepFunction,
    load_function,
    save_function,
)
from .kernels import (
    ND_TABLE_ACCURACY,
    RIESZ_RTOL,
    GaussianKernel,
    HeatKernel,
    PeriodizedRieszKernel,
    StepKernelCircle,
)
from .rearrange import (
    cylindrical_rearrange,
    periodic_rearrange_1d,
    periodic_rearrange_nd,
    symmetric_decreasing_1d,
)
from .seminorm import (
    LAPLACE_RTOL,
    SeminormParams,
    fractional_perimeter,
    gagliardo_periodic,
)
from .verify import DUAL_RTOL, EXACT_TOL, SUITES, run_suite

TOLERANCE_DEFAULTS = {
    "exact margin": EXACT_TOL,
    "laplace rule": LAPLACE_RTOL,
    "riesz table": RIESZ_RTOL,
    "nd table": ND_TABLE_ACCURACY,
    "dual route": DUAL_RTOL,
}


def parse_cost(spec: str) -> ConvexJ:
    """Cost specs: abs | power:P | shifted_power:p=P,t0=T | one_sided | exp."""
    name, _, rest = spec.partition(":")
    try:
        if name == "abs":
            return j_library("abs")
        if name == "power":
            return j_library("power", p=float(rest or 2.0))
        if name == "shifted_power":
            kv = dict(part.split("=") for part in rest.split(",") if part)
            return j_library(
                "shifted_power", p=float(kv.get("p", 2)), t0=float(kv.get("t0", 0))
            )
    except ValueError as exc:
        raise ConfigError(f"malformed cost spec {spec!r}: {exc}") from exc
    if name == "one_sided":
        return j_library("one_sided")
    if name in ("exp", "exp_increasing"):
        return j_library("exp_increasing")
    raise ConfigError(f"unknown cost spec {spec!r}")


def parse_kernel(spec: str):
    """Kernel specs: heat:t=T | riesz:sigma=S | gauss:t=T | step:v1,v2,..."""
    name, _, rest = spec.partition(":")
    kv = {}
    values = None
    try:
        if rest:
            if "=" in rest:
                kv = dict(part.split("=") for part in rest.split(","))
            else:
                values = [float(x) for x in rest.split(",")]
        if name == "heat":
            return HeatKernel(float(kv.get("t", 1.0)))
        if name == "gauss":
            return GaussianKernel(float(kv.get("t", 1.0)))
        if name == "riesz":
            return PeriodizedRieszKernel(float(kv.get("sigma", 0.5)))
    except ValueError as exc:
        raise ConfigError(f"malformed kernel spec {spec!r}: {exc}") from exc
    if name == "step":
        if not values:
            raise ConfigError("step kernel needs values, e.g. step:1,2,1,0")
        return StepKernelCircle(StepFunction.on_circle(values))
    raise ConfigError(f"unknown kernel spec {spec!r}")


def _write_csv(path, header, rows):
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def cmd_rearrange(args) -> int:
    u = load_function(args.infile)
    if args.op == "periodic":
        out = (
            periodic_rearrange_nd(u)
            if isinstance(u, GridFunctionND)
            else periodic_rearrange_1d(u)
        )
    elif args.op == "cylindrical":
        if not isinstance(u, GridFunctionND):
            raise ConfigError("cylindrical rearrangement needs an ND function")
        out = cylindrical_rearrange(u)
    elif args.op in ("steiner", "schwarz"):
        if isinstance(u, GridFunctionND) or u.grid.periodic:
            raise ConfigError(f"{args.op} acts on 1D interval functions")
        out = symmetric_decreasing_1d(u)
    else:
        raise ConfigError(f"unknown op {args.op!r}")
    save_function(args.out, out)
    return 0


def cmd_energy(args) -> int:
    u = load_function(args.u)
    v = load_function(args.v)
    if isinstance(u, GridFunctionND) or isinstance(v, GridFunctionND):
        raise ConfigError("energy command takes 1D functions")
    if u.grid != v.grid:
        raise GridMismatch("u and v must share one grid; refine to align first")
    j = parse_cost(args.J)
    kernel = parse_kernel(args.kernel)
    w = kernel.weights(u.grid)
    with np.errstate(over="ignore"):  # an infinite diagonal cost is divergent too
        if kernel.singular_diagonal and float(j(u.values - v.values).max()) > 0.0:
            # the true energy integrates a non-integrable kernel against a
            # nonvanishing diagonal cost
            print("divergent")
            return 0
    if u.grid.periodic:
        res = energy_circle(u, v, j, w)
    else:
        res = energy_euclidean(u, v, j, w)
    print(f"{res.value!r}")
    return 0


def _methods(choice: str) -> tuple[str, ...]:
    """The routes of a --method choice; "both" takes one pass of pair costs."""
    return ("direct", "laplace") if choice == "both" else (choice,)


def cmd_seminorm(args) -> int:
    u = load_function(args.infile)
    n = 2 if isinstance(u, GridFunctionND) else 1
    params = SeminormParams(args.s, args.p, n)
    t0 = time.perf_counter()
    results = gagliardo_periodic(u, params, _methods(args.method))
    wall = time.perf_counter() - t0  # with both routes, their joint time on each row
    rows = []
    for res in results:
        value = "divergent" if res.divergent else repr(res.value)
        rows.append((value, res.method, repr(res.accuracy), f"{wall:.6f}"))
        print(f"{res.method}: {value}")
    if args.out:
        _write_csv(args.out, ["value", "method", "tolerance", "wall_time"], rows)
    return 0


def cmd_perimeter(args) -> int:
    e = load_function(args.set)
    print(f"{fractional_perimeter(e, args.s)!r}")
    return 0


def cmd_verify(args) -> int:
    report = run_suite(args.suite, seed=args.seed, cases=args.cases)
    if args.out:
        _write_csv(
            args.out,
            ["suite", "case_id", "margin", "class_predicted", "class_observed", "status"],
            [
                (r.suite, r.case_id, repr(r.margin), r.class_predicted, r.class_observed, r.status)
                for r in report.rows
            ],
        )
    print(
        f"{report.cases_run} cases, min margin {report.min_margin:.3e}, "
        f"bound {report.bound:.1e}, failures {len(report.failures)}, "
        f"indeterminate {report.indeterminate}"
    )
    return 0 if report.passed else 1


def cmd_sweep(args) -> int:
    u = load_function(args.infile)
    n = 2 if isinstance(u, GridFunctionND) else 1
    lo, hi, count = args.values
    if not (count >= 1 and count.is_integer()):
        raise ConfigError(f"sweep COUNT must be a positive integer, got {count:g}")
    count = int(count)
    methods = _methods(args.method)
    rows = []
    for k in range(count):
        s = lo + (hi - lo) * k / max(count - 1, 1)
        params = SeminormParams(s, args.p, n)
        row = [repr(s)]
        for res in gagliardo_periodic(u, params, methods):
            row.append("divergent" if res.divergent else repr(res.value))
        rows.append(row)
    header = ["s", *methods]
    if args.out:
        _write_csv(args.out, header, rows)
    else:
        print(",".join(header))
        for row in rows:
            print(",".join(row))
    return 0


def cmd_kernels(args) -> int:
    kernel = parse_kernel(args.kernel)
    if args.grid == "circle":
        grid = Grid1D.circle(args.n)
    else:
        grid = Grid1D.interval(args.n, *args.domain)
    w = kernel.weights(grid)
    offsets = range(grid.n) if grid.periodic else range(-(grid.n - 1), grid.n)
    rows = [(d, repr(x)) for d, x in zip(offsets, w.weights.tolist())]
    if args.out:
        _write_csv(args.out, ["offset", "weight"], rows)
    else:
        for d, val in rows:
            print(f"{d},{val}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="persym",
        description="rearrangements, nonlocal energies and periodic fractional "
        "seminorms on step functions, with a verification harness",
    )
    parser.add_argument("--version", action="store_true", help="print version and tolerance defaults")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("rearrange", help="rearrange a function")
    p.add_argument("--op", required=True, choices=["periodic", "cylindrical", "schwarz", "steiner"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("energy", help="pair energy of two step functions")
    p.add_argument("--J", required=True, help="cost spec, e.g. power:2")
    p.add_argument("--kernel", required=True, help="kernel spec, e.g. heat:t=0.5")
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)

    p = sub.add_parser("seminorm", help="periodic fractional seminorm")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--method", choices=["direct", "laplace", "both"], default="both")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", default=None, help="CSV output path")

    p = sub.add_parser("perimeter", help="fractional perimeter of a set")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--set", required=True)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "--suite",
        action="append",
        default=None,
        choices=[*SUITES, "all"],
    )
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cases", type=int, default=200)
    p.add_argument("--out", default=None, help="CSV report path")

    p = sub.add_parser("sweep", help="sweep the seminorm over s values")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--method", choices=["direct", "laplace", "both"], default="both")
    p.add_argument("--values", type=float, nargs=3, metavar=("LO", "HI", "COUNT"), required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("kernels", help="dump a kernel weight table")
    p.add_argument("--kernel", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--grid", choices=["circle", "interval"], default="circle")
    p.add_argument("--domain", type=float, nargs=2, default=(-1.0, 1.0))
    p.add_argument("--out", default=None)
    return parser


_COMMANDS = {
    "rearrange": cmd_rearrange,
    "energy": cmd_energy,
    "seminorm": cmd_seminorm,
    "perimeter": cmd_perimeter,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "kernels": cmd_kernels,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code or 0)
    if args.version:
        print(f"persym {__version__}")
        for name, tol in TOLERANCE_DEFAULTS.items():
            print(f"  {name}: {tol:g}")
        return 0
    if args.command is None:
        parser.print_help()
        return 2
    if args.command == "verify":
        args.suite = args.suite or ["all"]
        if "all" in args.suite:
            args.suite = "all"
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PersymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
