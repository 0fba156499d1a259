import json
import os
import subprocess
import sys

import numpy as np
import pytest

import persym
from persym.cli import main, parse_cost, parse_kernel
from persym.errors import ConfigError
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


# the message each input of test_config_errors_exit_2 must name
ERROR_MESSAGES = {
    "negative_1d": "must be nonnegative",
    "negative_nd": "must be nonnegative",
    "one_axis": "needs one periodic axis and one interval axis, got 1 axes; "
                "a 1D function uses the 'grid' format",
    "overflow": "the direct seminorm overflows",
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
        pytest.param(["seminorm", "--s", "0.4", "--p", "2", "--in", "{overflow}"],
                     marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")),
    ],
    ids=["kernel-float", "kernel-pair", "cost-float", "missing-in", "p-nan", "s-nan",
         "cases-negative", "seed-negative", "cost-p-below-1", "sweep-count-zero",
         "sweep-count-fraction", "ragged-json", "nd-json-without-values",
         "perimeter-s-nan", "kernel-heat-t-negative",
         "kernel-riesz-sigma-nan", "json-n-text", "json-n-fraction", "json-domain-text",
         "json-not-object", "json-axes-not-list", "seminorm-out-missing-dir",
         "verify-out-missing-dir", "sweep-out-missing-dir", "kernels-out-missing-dir",
         "rearrange-out-missing-dir", "json-negative-1d", "json-negative-nd",
         "nd-one-axis", "seminorm-overflow"],
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
             "nodir": str(tmp_path / "absent" / "out.csv")}
    values = [0.0, 1.0, 1.0, 0.0]
    for name, obj in {"n_text": {"grid": {"n": "x", "domain": "periodic"}, "values": values},
                      "n_fraction": {"grid": {"n": 4.7, "domain": "periodic"}, "values": values},
                      "domain_text": {"grid": {"n": 4, "domain": ["a", 1]}, "values": values},
                      "number": 3, "axes_number": {"axes": 3, "values": [values]},
                      "negative_1d": {"grid": {"n": 4, "domain": "periodic"}, "values": [0, -1, 1, 0]},
                      "negative_nd": dict(ragged, values=[[0, -1, 0], [0, 1, 0]]),
                      "one_axis": {"axes": ragged["axes"][:1], "values": [0, 1]},
                      "overflow": {"grid": {"n": 4, "domain": "periodic"},
                                   "values": [0, 1, 1e308, 2]}}.items():
        paths[name] = write_json(tmp_path / f"{name}.json", obj)
    rc = main([arg.format(**paths) for arg in argv])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    for name, needle in ERROR_MESSAGES.items():
        if f"{{{name}}}" in argv:
            assert needle in err
