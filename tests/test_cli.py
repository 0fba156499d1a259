import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import persym
from persym.cli import main, parse_cost, parse_kernel
from persym.errors import ConfigError
from persym.kernels import gaussian_weights_interval
from persym.grid import (
    Grid1D,
    StepFunction,
    function_to_json,
    load_function,
)

from conftest import random_nd_function


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def circle_file(tmp_path, rng):
    u = StepFunction.on_circle(rng.random(8))
    return write_json(tmp_path / "u.json", function_to_json(u)), u


class TestParsers:
    def test_cost_specs(self):
        assert parse_cost("abs").name == "abs"
        assert parse_cost("power:3").name == "power:3"
        j = parse_cost("shifted_power:p=2,t0=1.5")
        assert j.minimizer == 1.5
        assert parse_cost("exp").min_attained is False
        with pytest.raises(ConfigError):
            parse_cost("cubic")

    def test_kernel_specs(self):
        assert parse_kernel("heat:t=0.5").t == 0.5
        assert parse_kernel("gauss:t=2").t == 2.0
        assert parse_kernel("riesz:sigma=0.4").sigma == 0.4
        k = parse_kernel("step:1,2,1,0")
        assert k.profile.values.tolist() == [1, 2, 1, 0]
        with pytest.raises(ConfigError):
            parse_kernel("planck:t=1")


class TestRearrangeCommand:
    def test_periodic_round_trip(self, tmp_path, circle_file):
        infile, u = circle_file
        out = str(tmp_path / "star.json")
        assert main(["rearrange", "--op", "periodic", "--in", infile, "--out", out]) == 0
        star = load_function(out)
        assert star.grid.n == 16
        assert np.all(np.diff(star.values[8:]) <= 0)

    def test_steiner_on_interval(self, tmp_path, rng):
        u = StepFunction(Grid1D.interval(6, 0.0, 3.0), rng.random(6))
        infile = write_json(tmp_path / "f.json", function_to_json(u))
        out = str(tmp_path / "g.json")
        assert main(["rearrange", "--op", "steiner", "--in", infile, "--out", out]) == 0
        star = load_function(out)
        assert star.grid.lo == pytest.approx(-1.5)

    def test_cylindrical_needs_nd(self, tmp_path, circle_file):
        infile, _ = circle_file
        out = str(tmp_path / "g.json")
        assert main(["rearrange", "--op", "cylindrical", "--in", infile, "--out", out]) == 2


class TestEnergyCommand:
    def test_energy_value(self, tmp_path, rng, capsys):
        u = StepFunction.on_circle(rng.random(6))
        v = StepFunction.on_circle(rng.random(6))
        uf = write_json(tmp_path / "u.json", function_to_json(u))
        vf = write_json(tmp_path / "v.json", function_to_json(v))
        rc = main(["energy", "--J", "power:2", "--kernel", "heat:t=0.5", "--u", uf, "--v", vf])
        assert rc == 0
        val = float(capsys.readouterr().out.strip())
        assert val >= 0.0

    def test_riesz_energy_of_distinct_pair_divergent(self, tmp_path, rng, capsys):
        u = StepFunction.on_circle([1.0, 0.0, 0.0, 0.0])
        v = StepFunction.on_circle([0.0, 0.0, 0.0, 0.0])
        uf = write_json(tmp_path / "u.json", function_to_json(u))
        vf = write_json(tmp_path / "v.json", function_to_json(v))
        rc = main(["energy", "--J", "abs", "--kernel", "riesz:sigma=0.5", "--u", uf, "--v", vf])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "divergent"

    @pytest.mark.parametrize(
        "kernel, domain", [("heat:t=0.5", "periodic"), ("gauss:t=0.5", [-1.0, 1.0])],
        ids=["heat-circle", "gauss-interval"],
    )
    def test_overflow_exit_2_under_warnings_as_errors(self, tmp_path, kernel, domain):
        # |t|^2 overflows on values 1e308 apart: an energy of finite values
        # that leaves float range is one error line, with no numpy warning
        u = write_json(tmp_path / "u.json",
                       {"grid": {"n": 3, "domain": domain}, "values": [1e308, 0, 1e308]})
        argv = ["energy", "--J", "power:2", "--kernel", kernel, "--u", u, "--v", u]
        out = subprocess.run(
            [sys.executable, "-W", "error", "-m", "persym.cli", *argv], capture_output=True,
            env=dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(persym.__file__))),
            text=True, timeout=120,
        )
        assert out.returncode == 2
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1
        assert "the energy overflows" in out.stderr

    def test_riesz_energy_on_two_grids_exit_2(self, tmp_path, capsys):
        # the grids are compared before the diagonal cost u - v is formed
        u = write_json(tmp_path / "u.json", function_to_json(StepFunction.on_circle([1.0] * 4)))
        v = write_json(tmp_path / "v.json", function_to_json(StepFunction.on_circle([0.0] * 8)))
        rc = main(["energy", "--J", "power:2", "--kernel", "riesz:sigma=0.5", "--u", u, "--v", v])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_riesz_energy_of_overflowing_diagonal_divergent(self, tmp_path, capsys):
        # an infinite diagonal cost is a nonvanishing one, with no numpy warning
        u = write_json(tmp_path / "u.json",
                       function_to_json(StepFunction.on_circle([1e308, 0.0, 0.0, 0.0])))
        v = write_json(tmp_path / "v.json", function_to_json(StepFunction.on_circle([0.0] * 4)))
        rc = main(["energy", "--J", "power:2", "--kernel", "riesz:sigma=0.5", "--u", u, "--v", v])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "divergent"


class TestSeminormCommand:
    def test_constant_both_methods(self, tmp_path, capsys):
        u = StepFunction.constant(Grid1D.circle(8), 2.0)
        infile = write_json(tmp_path / "c.json", function_to_json(u))
        rc = main(["seminorm", "--s", "0.4", "--p", "2", "--method", "both", "--in", infile])
        assert rc == 0
        out = capsys.readouterr().out
        assert "direct: 0.0" in out and "laplace: 0.0" in out

    def test_csv_output(self, tmp_path, circle_file):
        infile, _ = circle_file
        out = tmp_path / "semi.csv"
        rc = main(
            ["seminorm", "--s", "0.3", "--p", "1", "--method", "both", "--in", infile, "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "value,method,tolerance,wall_time"
        assert len(lines) == 3
        a, b = float(lines[1].split(",")[0]), float(lines[2].split(",")[0])
        assert b == pytest.approx(a, rel=1e-6)

    def test_one_cell_cylinder(self, tmp_path, capsys):
        # the one pair is the diagonal: zero weights, and the exterior masses
        # meet values that vanish on the interval's boundary layer
        f = write_json(tmp_path / "one.json", {
            "axes": [{"n": 1, "domain": "periodic"}, {"n": 1, "domain": [-1, 1]}], "values": [[0.0]]})
        rc = main(["seminorm", "--s", "0.4", "--in", f])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == ["direct: 0.0", "laplace: 0.0"]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_both_routes_at_s_1e_20(self, tmp_path, rng, capsys, dim):
        # lam = (dim + s) / 2 rounds s = 1e-20 away, and the Laplace ends took
        # lam - beta from lam: two RuntimeWarnings (errors in this suite, as
        # under -W error), then "algebraic head needs beta < lam"
        u = StepFunction.on_circle(rng.random(8)) if dim == 1 else random_nd_function(rng)
        infile = write_json(tmp_path / "u.json", function_to_json(u))
        rc = main(["seminorm", "--s", "1e-20", "--in", infile])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        values = dict(line.split(": ") for line in out.splitlines())
        direct, laplace = float(values["direct"]), float(values["laplace"])
        assert np.isfinite(direct) and laplace == pytest.approx(direct, rel=1e-12)

    def test_divergent_printed(self, tmp_path, circle_file, capsys):
        infile, _ = circle_file
        rc = main(["seminorm", "--s", "0.6", "--p", "2", "--method", "direct", "--in", infile])
        assert rc == 0
        assert "divergent" in capsys.readouterr().out


class TestPerimeterCommand:
    def test_value(self, tmp_path, capsys):
        e = StepFunction.on_circle([1.0, 1.0, 0.0, 0.0])
        f = write_json(tmp_path / "e.json", function_to_json(e))
        rc = main(["perimeter", "--s", "0.5", "--set", f])
        assert rc == 0
        assert float(capsys.readouterr().out.strip()) > 0


class TestVerifyCommand:
    def test_smoke_suite_and_csv(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        rc = main(
            ["verify", "--suite", "nonexp-circle", "--seed", "5", "--cases", "20", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "suite,case_id,margin,class_predicted,class_observed,status"
        assert len(lines) == 21

    def test_byte_identical_across_hash_seeds(self, tmp_path):
        src = os.path.dirname(os.path.dirname(persym.__file__))
        outputs = []
        for hash_seed in ("1", "2"):
            out = tmp_path / f"report-{hash_seed}.csv"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-m", "persym.cli", "verify", "--suite", "riesz",
                 "--seed", "9", "--cases", "15", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=120,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = main(
                ["verify", "--suite", "riesz", "--seed", "9", "--cases", "15", "--out", str(path)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_sweep_csv(self, tmp_path, circle_file):
        infile, _ = circle_file
        out = tmp_path / "sweep.csv"
        rc = main(
            ["sweep", "--in", infile, "--p", "1", "--method", "direct",
             "--values", "0.1", "0.9", "5", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "s,direct"
        assert len(lines) == 6
        values = [float(l.split(",")[1]) for l in lines[1:]]
        assert all(v > 0 for v in values)

    def test_2d_sweep_both_methods_matches_seminorm(
        self, tmp_path, rng, capsys, fresh_caches
    ):
        # every row of a 2D sweep builds the direct route's power table at a
        # fresh s on one grid plan; each must equal the one-off command run
        # from empty caches
        u = random_nd_function(rng, n1=6, n2=8)
        infile = write_json(tmp_path / "u2d.json", function_to_json(u))
        rc = main(["sweep", "--in", infile, "--p", "1", "--method", "both",
                   "--values", "0.1", "0.9", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "s,direct,laplace" and len(lines) == 6
        for line in lines[1:]:
            s, direct, laplace = line.split(",")
            direct, laplace = float(direct), float(laplace)
            assert direct > 0 and laplace == pytest.approx(direct, rel=1e-6)
            fresh_caches()
            rc = main(["seminorm", "--s", s, "--p", "1", "--method", "both", "--in", infile])
            assert rc == 0
            one = dict(l.split(": ") for l in capsys.readouterr().out.strip().splitlines())
            assert float(one["direct"]) == pytest.approx(direct, rel=1e-12)
            assert float(one["laplace"]) == pytest.approx(laplace, rel=1e-12)


class TestErrorPaths:
    def test_malformed_json_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"grid": {"n": 4, "domain": "periodic"}, "values": [1, 2,]}')
        rc = main(["seminorm", "--s", "0.4", "--in", str(bad)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_flag_exit_2(self):
        assert main(["seminorm", "--s", "0.4", "--in", "x.json", "--bogus", "1"]) == 2

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        out = capsys.readouterr().out
        assert "persym" in out and "laplace rule" in out

    def test_kernels_dump(self, tmp_path):
        out = tmp_path / "k.csv"
        rc = main(["kernels", "--kernel", "heat:t=1", "--n", "8", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 9

    def test_kernels_riesz_near_sigma_zero(self, capsys):
        # the far copies' zeta at its pole order took s - 1 as 1 - a, which
        # is 0 below sigma = 1e-16: inf weights after two RuntimeWarnings
        rc = main(["kernels", "--kernel", "riesz:sigma=1e-20", "--n", "4"])
        out, err = capsys.readouterr()
        weights = [float(line.split(",")[1]) for line in out.splitlines()]
        assert rc == 0 and err == ""
        assert len(weights) == 4 and np.all(np.isfinite(weights))

    def test_kernels_dump_interval(self, tmp_path):
        # an interval table's offsets -(n-1)..n-1, in its layout order
        out = tmp_path / "k.csv"
        rc = main(["kernels", "--kernel", "gauss:t=0.5", "--grid", "interval", "--n", "6",
                   "--out", str(out)])
        assert rc == 0
        header, *lines = out.read_text().strip().splitlines()
        assert header == "offset,weight"
        rows = [line.split(",") for line in lines]
        assert [int(d) for d, _ in rows] == list(range(-5, 6))
        w = gaussian_weights_interval(Grid1D.interval(6, -1.0, 1.0), 0.5)
        assert [float(x) for _, x in rows] == w.weights.tolist()


# the message each input of test_config_errors_exit_2 must name
ERROR_MESSAGES = {
    "negative_1d": "must be nonnegative",
    "negative_nd": "must be nonnegative",
    "one_axis": "needs one periodic axis and one interval axis, got 1 axes; "
                "a 1D function uses the 'grid' format",
    "three_axes": "needs one periodic axis and one interval axis, got 3 axes",
    "overflow": "the direct seminorm overflows",
    "interval": "a 1D input needs a periodic grid",
    "interval_set": "a 1D input needs a periodic grid",
    "circle4": "u and v must share one grid",
    "line": "needs a periodic grid",
    "infinite_box": "needs finite ends and length",
    "wide_line": "needs finite ends and length",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--J", "abs", "--kernel", "heat:t=abc", "--u", "{u}", "--v", "{u}"],
        ["energy", "--J", "abs", "--kernel", "heat:t=1,oops", "--u", "{u}", "--v", "{u}"],
        ["energy", "--J", "power:x", "--kernel", "heat:t=1", "--u", "{u}", "--v", "{u}"],
        ["seminorm", "--s", "0.4", "--in", "{missing}"],
        ["seminorm", "--s", "0.4", "--p", "nan", "--in", "{u}"],
        ["seminorm", "--s", "nan", "--in", "{u}"],
        ["verify", "--suite", "riesz", "--cases", "-5"],
        ["verify", "--suite", "riesz", "--seed", "-1"],
        ["energy", "--J", "power:0.5", "--kernel", "heat:t=1", "--u", "{u}", "--v", "{u}"],
        ["sweep", "--in", "{u}", "--values", "0.1", "0.9", "0"],
        ["sweep", "--in", "{u}", "--values", "0.1", "0.9", "2.5"],
        ["seminorm", "--s", "0.4", "--in", "{ragged}"],
        ["seminorm", "--s", "0.4", "--in", "{novalues}"],
        ["perimeter", "--s", "nan", "--set", "{e}"],
        ["kernels", "--kernel", "heat:t=-1", "--n", "4"],
        ["kernels", "--kernel", "riesz:sigma=nan", "--n", "8"],
        ["seminorm", "--s", "0.4", "--in", "{n_text}"],
        ["seminorm", "--s", "0.4", "--in", "{n_fraction}"],
        ["seminorm", "--s", "0.4", "--in", "{domain_text}"],
        ["seminorm", "--s", "0.4", "--in", "{number}"],
        ["seminorm", "--s", "0.4", "--in", "{axes_number}"],
        ["seminorm", "--s", "0.4", "--in", "{u}", "--out", "{nodir}"],
        ["verify", "--suite", "riesz", "--cases", "1", "--out", "{nodir}"],
        ["sweep", "--in", "{u}", "--values", "0.1", "0.9", "2", "--out", "{nodir}"],
        ["kernels", "--kernel", "heat:t=1", "--n", "4", "--out", "{nodir}"],
        ["rearrange", "--op", "periodic", "--in", "{u}", "--out", "{nodir}"],
        ["seminorm", "--s", "0.4", "--in", "{negative_1d}"],
        ["seminorm", "--s", "0.4", "--in", "{negative_nd}"],
        ["seminorm", "--s", "0.4", "--in", "{one_axis}"],
        ["seminorm", "--s", "0.4", "--p", "2", "--in", "{overflow}"],
        ["seminorm", "--s", "0.3", "--p", "2", "--method", "both", "--in", "{interval}"],
        ["sweep", "--in", "{interval}", "--values", "0.1", "0.9", "2"],
        ["perimeter", "--s", "0.5", "--set", "{interval_set}"],
        ["rearrange", "--op", "periodic", "--in", "{line}", "--out", "{out}"],
        ["perimeter", "--s", "0.5", "--set", "{u}"],
        ["kernels", "--kernel", "gauss:t=0.5", "--n", "4"],
        ["energy", "--J", "abs", "--kernel", "heat:t=1", "--u", "{u}", "--v", "{circle4}"],
        ["energy", "--J", "abs", "--kernel", "heat:t=1", "--u", "{line}", "--v", "{line}"],
        ["energy", "--J", "abs", "--kernel", "gauss:t=1", "--u", "{u}", "--v", "{u}"],
        ["rearrange", "--op", "periodic", "--in", "{nd_interval_first}", "--out", "{out}"],
        ["rearrange", "--op", "periodic", "--in", "{nd_periodic_second}", "--out", "{out}"],
        ["kernels", "--kernel", "step:1,2,1,0", "--n", "8", "--grid", "interval"],
        ["kernels", "--kernel", "step:-1,2,1,0", "--n", "8"],
        ["rearrange", "--op", "periodic", "--in", "{three_axes}", "--out", "{out}"],
        ["rearrange", "--op", "cylindrical", "--in", "{three_axes}", "--out", "{out}"],
        ["kernels", "--kernel", "heat:t=inf", "--n", "4"],
        ["kernels", "--kernel", "gauss:t=inf", "--n", "4", "--grid", "interval"],
        ["kernels", "--kernel", "gauss:t=1", "--n", "4", "--grid", "interval",
         "--domain", "-1", "inf"],
        ["seminorm", "--s", "0.5", "--in", "{infinite_box}"],
        ["rearrange", "--op", "schwarz", "--in", "{wide_line}", "--out", "{out}"],
    ],
    ids=["kernel-float", "kernel-pair", "cost-float", "missing-in", "p-nan", "s-nan",
         "cases-negative", "seed-negative", "cost-p-below-1", "sweep-count-zero",
         "sweep-count-fraction", "ragged-json", "nd-json-without-values",
         "perimeter-s-nan", "kernel-heat-t-negative",
         "kernel-riesz-sigma-nan", "json-n-text", "json-n-fraction", "json-domain-text",
         "json-not-object", "json-axes-not-list", "seminorm-out-missing-dir",
         "verify-out-missing-dir", "sweep-out-missing-dir", "kernels-out-missing-dir",
         "rearrange-out-missing-dir", "json-negative-1d", "json-negative-nd",
         "nd-one-axis", "seminorm-overflow", "seminorm-interval-1d", "sweep-interval-1d",
         "perimeter-interval-1d", "rearrange-periodic-interval", "perimeter-not-indicator",
         "kernels-gauss-circle", "energy-two-grids", "energy-heat-interval",
         "energy-gauss-circle", "nd-interval-first-axis", "nd-periodic-second-axis",
         "kernels-step-interval", "kernel-step-negative", "rearrange-periodic-three-axes",
         "rearrange-cylindrical-three-axes", "kernels-heat-t-inf", "kernels-gauss-t-inf",
         "kernels-gauss-infinite-domain", "seminorm-infinite-box", "rearrange-schwarz-wide-line"],
)
def test_config_errors_exit_2(argv, tmp_path, circle_file, capsys):
    infile, _ = circle_file
    ragged = {"axes": [{"n": 2, "domain": "periodic"}, {"n": 3, "domain": [-1.0, 1.0]}],
              "values": [[0, 1, 0], [0, 1]]}
    paths = {"u": infile, "missing": str(tmp_path / "absent.json"),
             "ragged": write_json(tmp_path / "ragged.json", ragged),
             "novalues": write_json(tmp_path / "novalues.json", {"axes": ragged["axes"]}),
             "e": write_json(tmp_path / "e.json", function_to_json(
                 StepFunction.on_circle([0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))),
             "nodir": str(tmp_path / "absent" / "out.csv"), "out": str(tmp_path / "out.json")}
    values = [0.0, 1.0, 1.0, 0.0]
    for name, obj in {"n_text": {"grid": {"n": "x", "domain": "periodic"}, "values": values},
                      "n_fraction": {"grid": {"n": 4.7, "domain": "periodic"}, "values": values},
                      "domain_text": {"grid": {"n": 4, "domain": ["a", 1]}, "values": values},
                      "number": 3, "axes_number": {"axes": 3, "values": [values]},
                      "negative_1d": {"grid": {"n": 4, "domain": "periodic"}, "values": [0, -1, 1, 0]},
                      "negative_nd": dict(ragged, values=[[0, -1, 0], [0, 1, 0]]),
                      "one_axis": {"axes": ragged["axes"][:1], "values": [0, 1]},
                      "overflow": {"grid": {"n": 4, "domain": "periodic"},
                                   "values": [0, 1, 1e308, 2]},
                      "interval": {"grid": {"n": 4, "domain": [-1, 1]}, "values": [0, 1, 2, 0]},
                      "interval_set": {"grid": {"n": 4, "domain": [-1, 1]},
                                       "values": [0, 1, 1, 0]},
                      "circle4": {"grid": {"n": 4, "domain": "periodic"}, "values": values},
                      "line": {"grid": {"n": 4, "domain": [-1, 1]}, "values": values},
                      "nd_interval_first": dict(ragged, axes=ragged["axes"][::-1],
                                                values=[[0, 1], [1, 0], [0, 0]]),
                      "nd_periodic_second": dict(ragged, axes=[ragged["axes"][0]] * 2,
                                                 values=[[0, 1], [1, 0]]),
                      "three_axes": dict(ragged, axes=ragged["axes"] + ragged["axes"][1:],
                                         values=np.zeros((2, 3, 3)).tolist())}.items():
        paths[name] = write_json(tmp_path / f"{name}.json", obj)
    # 1e309 reads as inf; -1e308 and 1e308 are finite but 2e308 apart
    paths["infinite_box"] = str(tmp_path / "infinite_box.json")
    (tmp_path / "infinite_box.json").write_text(
        '{"axes": [{"n": 2, "domain": "periodic"}, {"n": 3, "domain": [-1, 1e309]}],'
        ' "values": [[0, 1, 0], [0, 1, 0]]}'
    )
    paths["wide_line"] = write_json(tmp_path / "wide_line.json",
                                    {"grid": {"n": 4, "domain": [-1e308, 1e308]}, "values": values})
    rc = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    for name, needle in ERROR_MESSAGES.items():
        if f"{{{name}}}" in argv:
            assert needle in err


def test_cli_loads_no_scipy():
    # the table builders' special functions come from libm and numpy
    src = os.path.dirname(os.path.dirname(persym.__file__))
    code = (
        "import sys, persym.cli as cli\n"
        "for k, g in (('riesz:sigma=0.5', 'circle'), ('heat:t=0.5', 'circle'),"
        " ('gauss:t=0.5', 'interval')):\n"
        "    cli.main(['kernels', '--kernel', k, '--n', '8', '--grid', g])\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.splitlines()[-1] == "[]"


# values of the CLI matrix on n cells
MATRIX_VALUES = {
    "zero": lambda n: np.zeros(n),
    "constant": lambda n: np.full(n, 2.0),
    "ramp": lambda n: np.arange(n, dtype=float),
    "huge": lambda n: np.where(np.arange(n) % 2, 0.0, 1e308),
    "subnormal": lambda n: np.where(np.arange(n) % 2, 0.0, 5e-324),
    "indicator": lambda n: (np.arange(n) % 3 == 0).astype(float),
}

# commands of the CLI matrix, with {f} the function file, {z} the zero file
# on its grid and {o} an output path
MATRIX_COMMANDS = [
    ["seminorm", "--s", "0.3", "--p", "2", "--in", "{f}"],
    ["sweep", "--in", "{f}", "--values", "0.2", "0.6", "2"],
    ["perimeter", "--s", "0.5", "--set", "{f}"],
    *(["rearrange", "--op", op, "--in", "{f}", "--out", "{o}"]
      for op in ("periodic", "cylindrical", "schwarz")),
    *(["energy", "--J", "power:2", "--kernel", kernel, "--u", "{f}", "--v", "{z}"]
      for kernel in ("heat:t=0.5", "gauss:t=0.5", "riesz:sigma=0.5", "step:1,2,1,0")),
]


def test_cli_matrix(tmp_path, capsys):
    # every command on periodic, interval and ND files of 1-8 cells a side and
    # extreme values, and energies of two different grids: a run exits 0 with
    # finite numbers (or "divergent") and no stderr, or 2 with one error line;
    # warnings are errors, so a numpy warning fails the run
    files = {}
    for kind in ("periodic", "interval", "nd"):
        for n in (1, 2, 3, 5, 8):
            for name, values in MATRIX_VALUES.items():
                vals = values(n * n if kind == "nd" else n)
                if kind == "nd":
                    obj = {"axes": [{"n": n, "domain": "periodic"}, {"n": n, "domain": [-1, 1]}],
                           "values": vals.reshape(n, n).tolist()}
                else:
                    domain = "periodic" if kind == "periodic" else [-1, 1]
                    obj = {"grid": {"n": n, "domain": domain}, "values": vals.tolist()}
                files[kind, n, name] = write_json(tmp_path / f"{kind}-{n}-{name}.json", obj)
    out = str(tmp_path / "out.json")
    runs = [[arg.format(f=f, z=files[kind, n, "zero"], o=out) for arg in argv]
            for (kind, n, _), f in files.items() for argv in MATRIX_COMMANDS]
    for kernel in ("heat:t=0.5", "gauss:t=0.5", "riesz:sigma=0.5", "step:1,2,1,0"):
        for a, b in [(("periodic", 3), ("periodic", 5)), (("interval", 2), ("interval", 8)),
                     (("periodic", 5), ("interval", 5)), (("nd", 2), ("periodic", 2))]:
            runs.append(["energy", "--J", "abs", "--kernel", kernel,
                          "--u", files[(*a, "ramp")], "--v", files[(*b, "constant")]])
    bad = []
    for argv in runs:
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback, or a warning turned into an error
            capsys.readouterr()
            bad.append((argv, repr(exc)))
            continue
        stdout, err = capsys.readouterr()
        if rc == 0 and argv[0] == "rearrange":
            stdout = " ".join(map(str, np.ravel(load_function(out).values)))
        numbers = []
        for token in stdout.replace(",", " ").replace(":", " ").split():
            try:
                numbers.append(float(token))
            except ValueError:
                pass
        ok = (rc == 0 and not err and np.isfinite(numbers).all()) or (
            rc == 2 and err.startswith("error: ") and err.count("\n") == 1
        )
        if not ok:
            bad.append((argv, rc, stdout, err))
    assert len(runs) == 916
    assert not bad, "\n".join(map(repr, bad[:5]))


def _run_cli(argv) -> tuple:
    """main(argv) in this process, with warnings as errors (this suite's
    setting): (exit code, stdout, stderr), the code the exception it raised."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback, or a warning turned into an error
            rc = exc
    return rc, out.getvalue(), err.getvalue()


def _clean_outcome(rc, stdout: str, err: str) -> bool:
    """The CLI's promise: exit 0 with finite numbers (or "divergent") and no
    stderr, or exit 2 with one error line."""
    numbers = []
    for token in stdout.replace(",", " ").replace(":", " ").split():
        try:
            numbers.append(float(token))
        except ValueError:
            pass
    return (rc == 0 and not err and np.isfinite(numbers).all()) or (
        rc == 2 and err.startswith("error: ") and err.count("\n") == 1
    )


@pytest.mark.parametrize(
    "argv, code",
    [
        (["seminorm", "--s", "5e-324", "--in", "{circle}"], 2),
        (["seminorm", "--s", "5e-324", "--in", "{cylinder}"], 2),
        (["seminorm", "--s", "1e-310", "--in", "{circle}"], 2),
        (["seminorm", "--s", "1e-310", "--in", "{cylinder}"], 2),
        (["kernels", "--kernel", "heat:t=1e-320", "--n", "4"], 0),
    ],
    ids=["s-5e-324-circle", "s-5e-324-cylinder", "s-1e-310-circle", "s-1e-310-cylinder",
         "heat-t-1e-320"],
)
def test_float_extremes_keep_the_exit_code_promise(argv, code, tmp_path, rng):
    # (k + sigma) / 2 rounded to 0 at s = 5e-324 and raised ZeroDivisionError;
    # s = 1e-310 exited 2 after two RuntimeWarnings; m^2 / 4t overflowed in
    # the theta terms at t = 1e-320: a sigma whose tables leave float range
    # is one ConfigError, and no warning reaches stderr (warnings are errors)
    files = {
        "circle": write_json(tmp_path / "c.json", function_to_json(StepFunction.on_circle(rng.random(8)))),
        "cylinder": write_json(tmp_path / "n.json", function_to_json(random_nd_function(rng))),
    }
    rc, out, err = _run_cli([arg.format(**files) for arg in argv])
    assert rc == code and _clean_outcome(rc, out, err), (rc, out, err)
    if code == 2:
        assert "would leave float range" in err


@pytest.mark.parametrize("t", ["5e-324", "1e-320", "1e-310", "2.3e-308"])
@pytest.mark.parametrize("n", [4, 16])
def test_gaussian_tables_at_subnormal_times(n, t):
    # exp(-r^2 t) is 1 to rounding over the cells, so every weight is h^2;
    # the erf form's expm1(-z^2 t) / 2t lost the bits of a subnormal z^2 t
    # (at t = 5e-324 the weights alternated near 0 and 2 h^2), and every
    # weight now holds the rounding floor of the lattice, n^2 ulps of h^2
    rc, out, err = _run_cli(["kernels", "--kernel", f"gauss:t={t}", "--grid", "interval",
                             "--n", str(n)])
    assert rc == 0 and _clean_outcome(rc, out, err), (rc, out, err)
    weights = np.array([float(line.split(",")[1]) for line in out.splitlines()])
    h2 = (2.0 / n) ** 2  # the default domain [-1, 1]
    assert weights.size == 2 * n - 1
    assert np.max(np.abs(weights / h2 - 1.0)) <= 2 * n * n * 2.0**-52


# float edges of the numeric inputs: subnormals, the largest floats, the
# floats next to 0 and 1, signed zeros, and a few plain values
FLOAT_EDGES = [
    5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1e308, 1.7976931348623157e308,
    math.nextafter(1.0, 0.0), math.nextafter(0.0, 1.0), 0.0, -0.0, 0.5, 1.0, 2.0,
]


@given(
    data=st.data(),
    command=st.sampled_from(["seminorm", "sweep", "perimeter", "kernels", "energy"]),
    kind=st.sampled_from(["periodic", "interval", "nd"]),
    n=st.integers(1, 4),
)
@settings(max_examples=250, deadline=None, derandomize=True, database=None)
def test_cli_float_edges(data, command, kind, n, tmp_path_factory):
    # s, p, t, sigma, the domain ends, n and the values drawn from the float
    # edges; every run keeps the CLI's promise, with warnings as errors
    edge = st.sampled_from(FLOAT_EDGES)
    lo, hi = data.draw(edge), data.draw(edge)
    values = [data.draw(edge) for _ in range(n * n if kind == "nd" else n)]
    if kind == "nd":
        obj = {"axes": [{"n": n, "domain": "periodic"}, {"n": n, "domain": [lo, hi]}],
               "values": np.reshape(values, (n, n)).tolist()}
    else:
        obj = {"grid": {"n": n, "domain": "periodic" if kind == "periodic" else [lo, hi]},
               "values": values}
    f = write_json(tmp_path_factory.mktemp("edges") / "u.json", obj)
    s, p = str(data.draw(edge)), str(data.draw(edge))
    family, x = data.draw(st.sampled_from(["heat:t=", "gauss:t=", "riesz:sigma="])), data.draw(edge)
    spec = f"{family}{x}"
    argv = {
        "seminorm": ["seminorm", "--s", s, "--p", p, "--in", f],
        "sweep": ["sweep", "--in", f, "--p", p, "--values", s, str(data.draw(edge)), "2"],
        "perimeter": ["perimeter", "--s", s, "--set", f],
        "kernels": ["kernels", "--kernel", spec, "--n", str(n),
                    "--grid", data.draw(st.sampled_from(["circle", "interval"])),
                    "--domain", str(lo), str(hi)],
        "energy": ["energy", "--J", f"power:{p}", "--kernel", spec, "--u", f, "--v", f],
    }[command]
    rc, out, err = _run_cli(argv)
    # a power-kernel table of sigma >= 1 (a riesz spec, or a perimeter's s)
    # is a divergent energy: one error line, exit 1
    divergent = (command in ("kernels", "energy") and family == "riesz:sigma=" and x >= 1.0) or (
        command == "perimeter" and float(s) >= 1.0)
    one_line = isinstance(rc, int) and err.startswith("error: ") and err.count("\n") == 1
    assert _clean_outcome(rc, out, err) or (divergent and rc == 1 and one_line), (
        argv, obj, rc, out, err)
