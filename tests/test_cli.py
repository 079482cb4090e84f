import contextlib
import io
import json
import math
import os
from pathlib import Path
import re
import subprocess
import sys
import tracemalloc
import warnings

from hypothesis import assume, example, given, settings, strategies as st
import numpy as np
import pytest

from accessprice import cli, dynamics, scenarios
from accessprice.cli import ConfigError, load_config, run
from accessprice.model import ADMISSION_VARIANTS, PRICE_VARIANTS

ROOT = Path(__file__).resolve().parent.parent


def write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


REF_DOC = {
    "schema_version": 1,
    "k_r": 4.0,
    "k_u_schedule": [],
    "price": {"variant": "triangular", "beta": 0.001, "q_m": 45.0},
    "admission": {
        "variant": "linear",
        "coefficients": [0.21142857142857144, -0.002285714285714286],
    },
    "service": {"mu_star": 3.0, "q_c": 35.0},
    "q_ad": 60.0,
}


# (--set key path, JSON type) of every key in the schema table
_TYPED_PATHS = [(key if section == "config" else f"{section}.{key}", typ)
                for section, (_, types, _) in cli._SCHEMA.items() for key, typ in types.items()]
_NUMBER_PATHS = [path for path, typ in _TYPED_PATHS if typ is cli.NUM]
_HUGE = 10**400  # beyond the float range
_LONG = "1" + "0" * 5000  # more digits than int() converts from a string


def _named(path):
    """The key path as error messages name it: config.k_r, price.beta."""
    return path if "." in path else f"config.{path}"


class TestLoadConfig:
    def test_shipped_reference(self, config_dir):
        cfg = load_config(str(config_dir / "ref.json"))
        assert cfg.k_r == 4.0
        assert cfg.q_ad == 60.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config(str(p))

    def test_zero_beta_names_key_path(self, tmp_path):
        doc = json.loads(json.dumps(REF_DOC))
        doc["price"]["beta"] = 0.0
        with pytest.raises(ConfigError, match="price.beta"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(REF_DOC))
        doc["pricing_power"] = 9
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(write_config(tmp_path, doc))

    def test_unknown_nested_key_rejected(self, tmp_path):
        doc = json.loads(json.dumps(REF_DOC))
        doc["price"]["gamma"] = 1.0
        with pytest.raises(ConfigError, match="price"):
            load_config(write_config(tmp_path, doc))

    def test_wrong_schema_version(self, tmp_path):
        doc = json.loads(json.dumps(REF_DOC))
        doc["schema_version"] = 2
        with pytest.raises(ConfigError, match="schema_version"):
            load_config(write_config(tmp_path, doc))

    def test_mu_star_default_notices(self, tmp_path, capsys):
        doc = json.loads(json.dumps(REF_DOC))
        del doc["service"]["mu_star"]
        cfg = load_config(write_config(tmp_path, doc))
        assert cfg.service.mu_star == 3.0
        assert "mu_star" in capsys.readouterr().err

    def test_override_applies(self, tmp_path):
        cfg = load_config(write_config(tmp_path, REF_DOC), ["price.beta=0.002"])
        assert cfg.price.beta == 0.002

    def test_override_unknown_path(self, tmp_path):
        with pytest.raises(ConfigError, match="key path"):
            load_config(write_config(tmp_path, REF_DOC), ["price.nothing.x=1"])

    def test_override_type_checked(self, tmp_path):
        with pytest.raises(ConfigError, match="k_r"):
            load_config(write_config(tmp_path, REF_DOC), ["k_r=fast"])

    @pytest.mark.parametrize("override, named", [
        *[pytest.param(f"{path}={sign}{_HUGE}", f"{_named(path)}: must be finite", id=sign + path)
          for path in _NUMBER_PATHS for sign in ("", "-")],
        pytest.param(f"admission.coefficients=[{_HUGE}, -0.002]",
                     "admission.coefficients: must be finite", id="coefficient"),
        pytest.param(f"k_u_schedule=[[0, 1, {_HUGE}]]",
                     "config: k_u_schedule[0]: values must be finite", id="schedule rate"),
        *[pytest.param(f"k_r={sign}{_LONG}", "config.k_r: must be finite", id=sign + "too long for int")
          for sign in ("", "-")],
        # short enough that json reads an int, which float() then refuses
        *[pytest.param(f"k_r={sign}{10**350}", "config.k_r: must be finite", id=sign + "int of 351 digits")
          for sign in ("", "-")],
    ])
    def test_integer_beyond_float_range_names_key(self, config_dir, capsys, override, named):
        # read as +-inf, as json.loads reads 1e400, and rejected as such
        code = run(["validate", "--config", str(config_dir / "ref.json"), "--set", override])
        assert code == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize("path", [path for path, _ in _TYPED_PATHS])
    def test_type_error_names_the_json_type(self, config_dir, capsys, path):
        # true is no key's type: a bool is refused where a number is expected
        assert run(["validate", "--config", str(config_dir / "ref.json"), "--set", f"{path}=true"]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"error: {re.escape(_named(path))}: expected "
                            r"(a number|an integer|an object|a string|an array)\n", err), err
        assert "<class" not in err

    def test_integer_too_long_for_int_names_key_in_file(self, tmp_path, capsys):
        p = tmp_path / "long.json"
        p.write_text(json.dumps(REF_DOC).replace('"k_r": 4.0', f'"k_r": {_LONG}'))
        assert run(["validate", "--config", str(p)]) == 1
        assert capsys.readouterr().err == "error: config.k_r: must be finite\n"

    def test_readme_schema_example_is_the_table(self):
        text = (ROOT / "README.md").read_text()
        block = text.split("## Configuration schema", 1)[1].split("```jsonc\n", 1)[1]
        doc = json.loads(re.sub(r"//.*", "", block.split("```", 1)[0]))
        cli.config_from_dict(doc)
        for section, (_, types, _) in cli._SCHEMA.items():
            assert set(doc if section == "config" else doc[section]) == set(types), section


class TestExitCodes:
    def test_validate_ok(self, config_dir, capsys):
        code = run(["validate", "--config", str(config_dir / "ref.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "Assumption 1: pass" in out

    def test_supplied_linear_qmax_is_the_derived_one(self, config_dir, capsys):
        # within 1e-9 of ref's zero crossing 92.5: the spec keeps 92.5, so
        # alpha(q_max) == 0.0 and the clause passes
        path, q_max = str(config_dir / "ref.json"), "admission.q_max=92.49999995375"
        assert load_config(path, [q_max]) == load_config(path)
        assert run(["validate", "--config", path, "--set", q_max]) == 0
        assert "alpha-zero-beyond-qmax: pass" in capsys.readouterr().out.splitlines()

    def test_validate_failure_is_one(self, tmp_path):
        doc = json.loads(json.dumps(REF_DOC))
        doc["k_r"] = 2.5  # below mu_star: admissibility clause fails
        doc.pop("q_ad")
        code = run(["validate", "--config", write_config(tmp_path, doc)])
        assert code == 1

    def test_q_ad_without_two_fixed_points_is_one(self, config_dir, capsys):
        # section5's saturated price leaves one normal-mode fixed point
        code = run(["validate", "--config", str(config_dir / "section5.json"), "--set", "q_ad=60"])
        assert code == 1
        assert "q-ad-between-equilibria: FAIL (needs two fixed points)" in capsys.readouterr().out.splitlines()

    def test_missing_config_is_two(self, tmp_path, capsys):
        code = run(["validate", "--config", str(tmp_path / "ghost.json")])
        assert code == 2
        assert "usage" in capsys.readouterr().err

    def test_usage_error_is_two(self):
        assert run(["no-such-command"]) == 2

    def test_invariant_violation_is_one(self, tmp_path, capsys):
        doc = json.loads(json.dumps(REF_DOC))
        doc["price"]["beta"] = 0.0
        code = run(["validate", "--config", write_config(tmp_path, doc)])
        assert code == 1
        assert "price.beta" in capsys.readouterr().err

    def test_chattering_without_q_ad_errors(self, tmp_path, capsys):
        doc = json.loads(json.dumps(REF_DOC))
        del doc["q_ad"]
        code = run(
            ["simulate", "--config", write_config(tmp_path, doc),
             "--mode", "chattering", "--t1", "1"]
        )
        assert code == 1
        assert "q_ad" in capsys.readouterr().err


class TestInputDomain:
    @pytest.mark.parametrize(
        "override, key",
        [
            ("k_r=Infinity", "config.k_r: must be finite"),
            ("q_ad=NaN", "config.q_ad: must be finite"),
            ("price.beta=-Infinity", "price.beta: must be finite"),
            ("service.q_c=NaN", "service.q_c: must be finite"),
            ("admission.coefficients=[0.2, NaN]", "admission.coefficients: must be finite"),
            ("admission.q_max=Infinity", "admission.q_max: must be finite"),
            ("k_u_schedule=[[0, Infinity, 1]]", "k_u_schedule[0]: values must be finite"),
        ],
    )
    def test_non_finite_config_value_names_key(self, config_dir, capsys, override, key):
        code = run(["fixed-points", "--config", str(config_dir / "ref.json"), "--set", override])
        assert code == 1
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, override, named",
        [
            ("fixed-points", "service.q_c=5e-324",
             "service.q_c: too small for mu_star: the ramp mu_star/q_c overflows"),
            ("validate", "price.q_m=1.7e308",
             "price.q_m: too large: the falling leg's end 2*q_m overflows"),
            ("fixed-points", "price.beta=1.7e308",
             "price.beta: too large: the peak price beta*q_m overflows"),
        ],
    )
    def test_overflowing_config_value_names_key(self, config_dir, capsys, command, override, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, "--config", str(config_dir / "ref.json"), "--set", override])
        assert code == 1
        assert capsys.readouterr().err == f"error: {named}\n"

    @pytest.mark.parametrize("command", ["validate", "fixed-points", "classify"])
    def test_overflowing_cubic_q_max_names_key(self, config_dir, capsys, command):
        # section5's cubic overflows below q_max = 1.7e308, not below 1e100
        for q_max, named in (("1.7e308", True), ("1e100", False)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = run([command, "--config", str(config_dir / "section5.json"),
                            "--set", f"admission.q_max={q_max}"])
            err = capsys.readouterr().err
            assert code == 1 if named or command == "validate" else code == 0
            assert err == ("error: admission.q_max: too large: the cubic's Horner terms "
                           "overflow on [0, q_max]\n" if named else "")

    def test_cubic_alpha_beyond_q_max_does_not_overflow(self, config_dir, capsys):
        # the surge price stretches validate's tail check to 3*q_max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["validate", "--config", str(config_dir / "section5.json"),
                        "--set", 'price={"variant": "surge", "beta": 0.001}',
                        "--set", "admission.q_max=9e104"])
        assert code == 1
        assert "alpha-zero-beyond-qmax: pass" in capsys.readouterr().out

    def test_non_finite_k_u(self, config_dir, capsys):
        code = run(["fixed-points", "--config", str(config_dir / "ref.json"),
                    "--mode", "competitive", "--k-u", "nan"])
        assert code == 1
        assert "k_u must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("every", ["0", "-3"])
    @pytest.mark.parametrize("command", ["simulate", "scenario"])
    def test_every_below_one_is_usage_error(self, config_dir, tmp_path, command, every):
        argv = [command, "--config", str(config_dir / "section5.json"), "--every", every]
        if command == "scenario":
            argv += ["--out-prefix", str(tmp_path / "scn")]
        else:
            argv += ["--t1", "1", "--out", str(tmp_path / "sim.csv")]
        assert run(argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "x0, code, err",
        [
            ("a,b", 2, "error: argument --x0: invalid _floats value: 'a,b'\n"),
            ("30,,45", 2, "error: argument --x0: invalid _floats value: '30,,45'\n"),
            # numeric starts that integrate rejects stay run-time errors
            ("nan,5", 1, "error: initial state must be finite and nonnegative\n"),
            ("1,2,3,4", 1, "error: initial state must have 2 or 3 coordinates\n"),
            ("-1,5", 1, "error: initial state must be finite and nonnegative\n"),
            # the value as its own word, also when it starts with "-"
            (("--x0", "-1,5"), 1, "error: initial state must be finite and nonnegative\n"),
            (("--x0", "-.5,5"), 1, "error: initial state must be finite and nonnegative\n"),
            (("--x0", "a,b"), 2, "error: argument --x0: invalid _floats value: 'a,b'\n"),
        ],
    )
    def test_malformed_x0(self, config_dir, tmp_path, capsys, x0, code, err):
        # a string is passed as --x0=VALUE, a tuple as its words
        out = tmp_path / "sim.csv"
        x0_args = list(x0) if isinstance(x0, tuple) else [f"--x0={x0}"]
        assert run(["simulate", "--config", str(config_dir / "ref.json"), *x0_args,
                    "--t1", "1", "--step", "0.1", "--out", str(out)]) == code
        assert capsys.readouterr().err.endswith(err)
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True])
    def test_unwritable_out_is_usage_error(self, config_dir, tmp_path, capsys, below):
        (tmp_path / "file").write_text("")
        # an existing directory, or a path below a regular file
        out = tmp_path / "file" / "fp.csv" if below else tmp_path
        code = run(["fixed-points", "--config", str(config_dir / "ref.json"), "--out", str(out)])
        assert code == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err

    def test_closed_stdout_exits_one_without_traceback(self, config_dir):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "accessprice.cli", "simulate",
             "--config", str(config_dir / "ref.json"), "--t1", "400"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        # 40001 rows are far more than a pipe holds, so the writer is still
        # busy when the reader goes away, as with `| head -2`
        head = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert head[0] == b"t,R,q,U,price,flow_R,flow_U,mu\n"
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.parametrize(
        "span, named",
        [
            (["--t0", "nan"], "time span [nan, 100] must be finite"),
            (["--t1", "nan"], "time span [0, nan] must be finite"),
            (["--t1", "inf"], "time span [0, inf] must be finite"),
            (["--t1", "1e300"], "dimension"),
            # 1e15 rows at the default step: more than any address space
            (["--t1", "1e13"], "Unable to allocate"),
        ],
    )
    def test_horizon_outside_domain_is_named(self, config_dir, tmp_path, capsys, span, named):
        code = run(["simulate", "--config", str(config_dir / "ref.json"),
                    "--out", str(tmp_path / "sim.csv"), *span])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("error:") == 1
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("window", [["--window-start", "500"], ["--window-start", "nan"]])
    def test_scenario_window_checked_before_integrating(self, config_dir, tmp_path, capsys, window):
        code = run(["scenario", "--config", str(config_dir / "section5.json"), "--step", "0.1",
                    "--out-prefix", str(tmp_path / "P"), *window])
        assert code == 1
        assert "outside the series horizon [0, 400]" in capsys.readouterr().err
        assert not list(tmp_path.glob("P_*"))

    def test_scenario_empty_window_checked_before_writing(self, config_dir, tmp_path, capsys):
        # inside the horizon, but between two samples of the 0.1 grid
        code = run(["scenario", "--config", str(config_dir / "section5.json"), "--step", "0.1",
                    "--out-prefix", str(tmp_path / "P"),
                    "--window-start", "100.05", "--window-end", "100.06"])
        assert code == 1
        assert "window contains no samples" in capsys.readouterr().err
        assert not list(tmp_path.glob("P_*"))

    @pytest.mark.parametrize("k_u, mu_star", [("1", "5e-324"), ("5e-324", "1e-323")])
    def test_fixed_points_with_vanishing_service_ramp(self, config_dir, capsys, k_u, mu_star):
        # mu_star / q_c underflows to 0, so mu never exceeds K_U: no fixed point
        code = run(["fixed-points", "--config", str(config_dir / "ref.json"),
                    "--mode", "competitive", "--k-u", k_u, "--set", f"service.mu_star={mu_star}"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 1 and out[0].startswith("mode,q_star,")

    def test_doa_negative_samples_named(self, config_dir, capsys):
        code = run(["doa", "--config", str(config_dir / "ref.json"), "--samples", "-5"])
        assert code == 1
        assert capsys.readouterr().err == "error: n must be >= 0\n"

    @pytest.mark.parametrize("flag", ["--q-max", "--r-max"])
    def test_phase_infinite_range_named(self, config_dir, tmp_path, capsys, flag):
        out = tmp_path / "phase.csv"
        code = run(["phase", "--config", str(config_dir / "ref.json"), "--resolution", "3",
                    flag, "inf", "--out", str(out)])
        assert code == 1
        assert "ranges must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_nan_state_aborts_named(self, config_dir, tmp_path, capsys):
        # a 1e308 burst makes U infinite on its first step and NaN on its second
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--config", str(config_dir / "section5.json"),
                    "--mode", "switched-full", "--t1", "400",
                    "--set", "k_u_schedule=[[100,300,1e308]]", "--out", str(out)])
        err = capsys.readouterr().err.splitlines()
        assert code == 1
        assert err[0] == "notice: step defaulted to 0.01"
        assert err[1].startswith("error: integration aborted: NaN state at t = 100.02")
        assert len(err) == 2
        assert not out.exists()


class TestNegativeNumbers:
    """Every subcommand reads a word that starts with -<digit> or -.<digit>
    as a value, exponent forms included, so the library names a bad one."""

    def test_every_float_option_takes_a_negative(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        seen = []
        for name, sub in commands.items():
            required = ["--out-prefix", "P"] if name == "scenario" else []
            for action in sub._actions:
                if action.type is float:
                    flag = action.option_strings[0]
                    args = parser.parse_args([name, "--config", "c.json", *required, flag, "-1e-3"])
                    assert getattr(args, action.dest) == -1e-3
                    seen.append(f"{name} {flag}")
        assert len(seen) == 17 and "scenario --window-start" in seen

    @pytest.mark.parametrize("argv, code, line", [
        (["phase", "--config", "ref.json", "--r-min", "-1e-3", "--out", "OUT"], 1,
         "error: ranges must be finite, nonnegative and increasing"),
        (["doa", "--config", "ref.json", "--q-choice", "-1e-3", "--out", "OUT"], 1,
         "error: q_choice must lie in (q_dagger, q2*) = (42.1094, 82), got -0.001"),
        (["validate", "--config", "ref.json", "--k-u", "-1e-3"], 1,
         "competitive-root-count: FAIL (scan failed: k_u must be >= 0)"),
        (["scenario", "--config", "section5.json", "--step", "0.1", "--window-start", "-1e2",
          "--out-prefix", "OUT"], 0, None),
    ])
    def test_exponent_form_negative_reaches_the_library(self, config_dir, tmp_path, capsys, argv, code,
                                                        line):
        argv = [str(config_dir / a) if a.endswith(".json") else str(tmp_path / "P") if a == "OUT" else a
                for a in argv]
        assert run(argv) == code
        captured = capsys.readouterr()
        if line is None:  # the window's start is clamped to the horizon's, 0
            summary = json.loads((tmp_path / "P_summary.json").read_text())
            assert summary["fairness_gap"]["window"] == [0.0, 300.0]
        else:
            assert line in (captured.out + captured.err).splitlines()


def _float_flag():
    """A float flag's value: absent, any float (NaN, +-inf and negatives too) or a usual one."""
    return st.one_of(st.none(), st.floats(), st.floats(0.0, 160.0))


def _x0_flag():
    """--x0: absent, or one to four comma-separated floats (NaN, +-inf and negatives too)."""
    coord = st.one_of(st.floats(), st.floats(0.0, 300.0))
    return st.none() | st.lists(coord, min_size=1, max_size=4).map(
        lambda xs: ",".join(map(repr, xs))
    )


class TestContract:
    """doa, phase and simulate end in a result or a named error for any flag values.

    --samples stays <= 2000, --resolution <= 40 and simulate's horizon
    <= 1e5 steps, so each run is small.
    """

    @given(q=_float_flag(), r=_float_flag(), samples=st.none() | st.integers(-100, 2000))
    @example(q=math.nan, r=None, samples=None)
    @example(q=None, r=-math.inf, samples=10)
    @example(q=70.0, r=58.0, samples=-5)
    def test_doa(self, config_dir, q, r, samples):
        _run_contract(config_dir, "doa", {"--q-choice": q, "--r-choice": r, "--samples": samples})

    @given(bounds=st.tuples(*[_float_flag()] * 4), resolution=st.none() | st.integers(-5, 40))
    @example(bounds=(None, math.inf, None, None), resolution=3)
    @example(bounds=(None, None, None, math.inf), resolution=3)
    @example(bounds=(math.nan, None, -1.0, None), resolution=3)
    @example(bounds=(None, None, -math.inf, None), resolution=0)
    def test_phase(self, config_dir, bounds, resolution):
        flags = dict(zip(["--r-min", "--r-max", "--q-min", "--q-max"], bounds))
        flags["--resolution"] = resolution
        rows = _run_contract(config_dir, "phase", flags)
        # a written grid holds finite numbers only
        assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))

    @given(step=_float_flag() | st.floats(1e-3, 0.1), t1=_float_flag(),
           every=st.none() | st.integers(-3, 1000), x0=_x0_flag())
    @example(step=math.nan, t1=None, every=None, x0=None)
    @example(step=-0.01, t1=-math.inf, every=0, x0="nan,5")
    @example(step=0.05, t1=1.0, every=3, x0="1e308,1e308,1e308")
    @example(step=None, t1=-1.0, every=None, x0="-1,5")
    @example(step=0.1, t1=math.inf, every=None, x0="30,inf")
    def test_simulate(self, config_dir, step, t1, every, x0):
        h = dynamics.DEFAULT_STEP if step is None else step
        span = 100.0 if t1 is None else t1  # --t0 stays at 0
        # a valid step over a finite horizon: at most 1e5 steps, so no run is huge
        assume(not (0 < h <= dynamics.MAX_STEP and math.isfinite(span) and span > 1e5 * h))
        flags = {"--step": step, "--t1": t1, "--every": every, "--x0": x0}
        rows = _run_contract(config_dir, "simulate", flags)
        # a written trajectory holds finite numbers only
        assert all(math.isfinite(float(x)) for row in rows[1:] for x in row.split(","))


# K_U at the edges of its domain: signed zeros, subnormals, mu_star = 3.0
# of every shipped config and its float neighbours, huge, infinite, NaN
# and negative
_K_US = [None, 0.0, -0.0, 5e-324, 2.2250738585072014e-308, math.nextafter(3.0, 0.0), 3.0,
         math.nextafter(3.0, math.inf), 1e300, math.inf, -math.inf, math.nan, -1.0, -5e-324]


class TestFixedPointContract:
    """fixed-points and classify end in a result or a named error in every
    mode, for any --k-u, on every shipped config."""

    @settings(max_examples=150)
    @given(command=st.sampled_from(["fixed-points", "classify"]),
           config=st.sampled_from(["ref.json", "section5.json", "competitive.json"]),
           mode=st.sampled_from(["normal", "chattering", "saturated", "competitive", "switched-full"]),
           k_u=st.sampled_from(_K_US))
    @example(command="classify", config="section5.json", mode="competitive", k_u=-0.0)
    @example(command="fixed-points", config="competitive.json", mode="switched-full",
             k_u=math.nextafter(3.0, 0.0))
    def test_modes_and_k_u(self, config_dir, command, config, mode, k_u):
        rows = _run_contract(config_dir, command, {"--mode": mode, "--k-u": k_u}, config)
        # a written table has a header and one row per fixed point of the mode
        assert not rows or rows[0].startswith("mode,q_star,r_star,u_star,")


# window edges of section5's scenario (horizon [0, 400], burst [100, 300]):
# NaN, infinite, negative, the burst edges and beyond the horizon
_WINDOW_EDGES = [math.nan, -math.inf, -5.0, 100.0, 300.0, 500.0, math.inf]


class TestValidateScenarioContract:
    """validate and scenario end in a result or a named error, for any --k-u
    on every shipped config and any window edges."""

    @pytest.mark.parametrize("config", ["ref.json", "section5.json", "competitive.json"])
    @pytest.mark.parametrize("k_u", _K_US, ids=repr)
    def test_validate(self, config_dir, config, k_u):
        _run_contract(config_dir, "validate", {"--k-u": k_u}, config)

    @pytest.mark.parametrize("end", _WINDOW_EDGES, ids=repr)
    @pytest.mark.parametrize("start", _WINDOW_EDGES, ids=repr)
    def test_scenario(self, config_dir, tmp_path, start, end):
        # --every cycles through one, a few and more rows than a leg holds
        every = [1, 7, 10**6][(_WINDOW_EDGES.index(start) + _WINDOW_EDGES.index(end)) % 3]
        flags = {"--step": 0.1, "--out-prefix": str(tmp_path / "P"), "--every": every,
                 "--window-start": start, "--window-end": end}
        _run_contract(config_dir, "scenario", flags, "section5.json")


# JSON values of every kind: integers beyond the float range, non-finite
# and extreme floats, the variant names and other strings, true, null, and
# lists and objects of them; and a few words that are not JSON at all.
# A third are floats of the shipped configs' scale, which keep some
# overridden configs valid.
_JSON_LEAVES = (
    st.integers(-_HUGE, _HUGE)
    | st.sampled_from([_HUGE, -_HUGE, 2**1024, 0, 1, -1])
    | st.sampled_from([math.nan, math.inf, -math.inf, 1e308, 5e-324, -0.0, 0.5, 45.0])
    | st.sampled_from([*PRICE_VARIANTS, *ADMISSION_VARIANTS, "", "x"])
    | st.sampled_from([True, None])
)
_JSON_VALUES = st.one_of(
    st.floats(0.0, 200.0).map(json.dumps),
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.lists(inner, max_size=4)
        | st.dictionaries(st.sampled_from([p.rpartition(".")[2] for p, _ in _TYPED_PATHS]),
                          inner, max_size=3),
        max_leaves=8,
    ).map(json.dumps),
    st.sampled_from(["surge", "fast", "[1,"]),
)
# half the key paths name a number, the rest any key of the table or one
# it does not hold
_OVERRIDE_PATHS = st.sampled_from(_NUMBER_PATHS) | st.sampled_from(
    [path for path, _ in _TYPED_PATHS] + ["price.gamma"])
# admission.coefficients of two to four entries, some huge or subnormal
_COEFFICIENTS = st.lists(
    st.sampled_from([1e306, -1e306, 1e308, sys.float_info.max, 1e300, 5e-324, -5e-324, 0.0])
    | st.floats(-1.0, 1.0), min_size=2, max_size=4,
).map(lambda xs: f"admission.coefficients={json.dumps(xs)}")
_OVERRIDES = st.lists(st.tuples(_OVERRIDE_PATHS, _JSON_VALUES).map("=".join) | _COEFFICIENTS,
                      min_size=1, max_size=3)
_SECTION5_CUBIC = "0.09, -0.0019357142857142858, 3.059523809523811e-05"


# flags that keep a run short: simulate's horizon and rows, scenario's step
_SHORT = {"simulate": {"--t1": 5.0, "--every": 10}, "scenario": {"--step": 0.1}}


class TestConfigContract:
    """validate, fixed-points, classify, doa, phase, simulate and scenario
    end in a result or a named error, with no warning, for any one to three
    --set overrides of any shipped config."""

    @settings(max_examples=200)
    @given(command=st.sampled_from(["validate", "fixed-points", "classify", "doa", "phase", "simulate",
                                    "scenario"]),
           config=st.sampled_from(["ref.json", "section5.json", "competitive.json"]),
           overrides=_OVERRIDES)
    @example(command="validate", config="ref.json", overrides=[f"k_r={_HUGE}"])
    @example(command="fixed-points", config="section5.json",
             overrides=[f"admission.coefficients=[0.09, {-_HUGE}, 3.1e-5, -2.0e-7]"])
    @example(command="classify", config="ref.json", overrides=[f"k_u_schedule=[[0, 1, {_HUGE}]]"])
    @example(command="fixed-points", config="section5.json", overrides=["price.beta=1e300"])
    @example(command="phase", config="ref.json", overrides=["k_r=1e308"])
    @example(command="doa", config="ref.json", overrides=["admission.coefficients=[1, 1e306]"])
    # alpha falls from 1e308 to 0 at q = 1: c1*q overflows beyond q_max
    @example(command="simulate", config="ref.json", overrides=["admission.coefficients=[1e308, -1e308]"])
    def test_overrides(self, config_dir, tmp_path_factory, command, config, overrides):
        flags = dict(_SHORT.get(command, {}))
        if command == "scenario":
            flags["--out-prefix"] = str(tmp_path_factory.getbasetemp() / "contract")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run_contract(config_dir, command, flags, config, overrides)

    @pytest.mark.parametrize("command, config, override, code, err", [
        ("phase", "ref.json", "k_r=1e308", 1,
         "error: k_r = 1e+308 too large: the load term (K_R + K_U - mu)/(mu - K_U) "
         "overflows on the scan domain\n"),
        ("phase", "ref.json", "service.mu_star=1e308", 0, ""),
        ("phase", "ref.json", "price.beta=1e306", 1,
         "error: normal field not finite at (R, q) = (4.5, 41) on the grid\n"),
        ("fixed-points", "ref.json", "admission.coefficients=[1,1e306]", 0, ""),
        ("classify", "ref.json", "admission.coefficients=[1,1e306]", 0, ""),
        ("doa", "ref.json", "admission.coefficients=[1,1e306]", 1,
         "error: region construction needs exactly two normal-mode fixed points, found 0\n"),
        ("validate", "section5.json", f"admission.coefficients=[{_SECTION5_CUBIC}, 5e-324]", 1, ""),
    ])
    def test_overflow_reads_inf_or_is_named(self, config_dir, capsys, command, config, override,
                                            code, err):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run([command, "--config", str(config_dir / config), "--set", override]) == code
        captured = capsys.readouterr()
        assert captured.err == err
        if command == "validate":  # the report, with its failed clause
            assert "\nalpha-positive-decreasing: FAIL (" in "\n" + captured.out


def _run_contract(config_dir, command, flags, config="ref.json", overrides=()):
    """Run the command in-process, with each override as one --set; assert
    an exit code of 0, 1 or 2 and no traceback; return stdout's lines."""
    argv = [command, "--config", str(config_dir / config)]
    argv += [f"{flag}={value if isinstance(value, str) else repr(value)}"
             for flag, value in flags.items() if value is not None]
    argv += [f"--set={item}" for item in overrides]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    return out.getvalue().splitlines()


class TestCommands:
    def test_fixed_points_two_rows(self, config_dir, tmp_path):
        out = tmp_path / "fp.csv"
        code = run(
            ["fixed-points", "--config", str(config_dir / "ref.json"),
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("mode,q_star,r_star,u_star,price,classification")
        assert "stable_node" in lines[1] and "saddle" in lines[2]

    def test_fixed_points_either_side_of_a_fold(self, config_dir, tmp_path):
        # K_U = 0.9691 lies 1.3e-4 below section5's fold at q_m = 45: a pair
        # of equilibria either side of q_m, and a third past q_n
        out = tmp_path / "fp.csv"
        assert run(["fixed-points", "--config", str(config_dir / "section5.json"), "--mode",
                    "saturated", "--k-u", "0.9691", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        assert [float(row[1]) for row in rows] == pytest.approx([44.9958, 45.0098, 90.4426], abs=1e-4)

    def test_simulate_clamps_negative_zero(self, config_dir, tmp_path):
        # K_U = -0.0 from U = -0.0: the start row keeps the sign given, each
        # step's clamp leaves +0.0
        out = tmp_path / "sim.csv"
        assert run(["simulate", "--config", str(config_dir / "competitive.json"), "--mode", "competitive",
                    "--k-u=-0.0", "--x0=30,45,-0.0", "--t1", "1", "--step", "0.01", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        assert rows[0][3] == "U" and rows[1][3] == "-0" and len(rows) == 102
        assert {row[3] for row in rows[2:]} == {"0"}

    def test_classify_reports_saddle_inequality(self, config_dir, tmp_path):
        out = tmp_path / "cls.csv"
        run(["classify", "--config", str(config_dir / "ref.json"), "--out", str(out)])
        rows = out.read_text().strip().splitlines()
        saddle = rows[2].split(",")
        assert saddle[4] == "saddle"
        assert float(saddle[8]) == pytest.approx(0.003, abs=1e-12)
        assert float(saddle[9]) == pytest.approx(0.0022857142857, rel=1e-6)

    def test_simulate_writes_columns(self, config_dir, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(
            ["simulate", "--config", str(config_dir / "ref.json"),
             "--t1", "1", "--step", "0.01", "--x0", "30,45", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,R,q,U,price,flow_R,flow_U,mu"
        assert len(lines) == 102

    def test_chattering_flows_admit_r_only(self, config_dir, tmp_path):
        # the chattering field admits R alone, so U (frozen in this 2-state
        # mode) gets no flow and R all of alpha(q) R below q_ad = 60
        out = tmp_path / "chat.csv"
        code = run(
            ["simulate", "--config", str(config_dir / "ref.json"), "--mode", "chattering",
             "--x0", "100,59,40", "--t1", "0.02", "--out", str(out)]
        )
        assert code == 0
        t, r, q, u, _, flow_r, flow_u, _ = map(float, out.read_text().splitlines()[1].split(","))
        assert (t, r, q, u) == (0.0, 100.0, 59.0, 40.0)
        alpha = 0.21142857142857144 - 0.002285714285714286 * 59.0
        assert flow_r == pytest.approx(alpha * 100.0, rel=1e-11)
        assert flow_u == 0.0

    def test_phase_grid_size(self, config_dir, tmp_path):
        out = tmp_path / "phase.csv"
        run(
            ["phase", "--config", str(config_dir / "ref.json"),
             "--resolution", "10", "--q-max", "92", "--out", str(out)]
        )
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "r,q,dr,dq,magnitude"
        assert len(lines) == 101

    def test_doa_json(self, config_dir, tmp_path):
        out = tmp_path / "doa.json"
        code = run(
            ["doa", "--config", str(config_dir / "ref.json"),
             "--q-choice", "70", "--r-choice", "58", "--samples", "100",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["check"]["passed"] is True
        assert len(doc["vertices"]) == 5

    def test_scenario_emits_files(self, config_dir, tmp_path):
        prefix = str(tmp_path / "scn")
        code = run(
            ["scenario", "--config", str(config_dir / "section5.json"),
             "--out-prefix", prefix, "--step", "0.05", "--every", "10"]
        )
        assert code == 0
        for suffix in (
            "_surge.csv", "_saturated.csv",
            "_fairness_surge.csv", "_fairness_saturated.csv", "_summary.json",
        ):
            assert Path(prefix + suffix).exists()
        summary = json.loads(Path(prefix + "_summary.json").read_text())
        assert summary["fairness_gap"]["min"] > 0
        assert summary["bounceback"]["converged"] is True

    def test_repeat_runs_identical(self, config_dir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            run(["fixed-points", "--config", str(config_dir / "ref.json"),
                 "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()


class TestNumericTables:
    @given(st.floats(allow_nan=True, allow_infinity=True))
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(0.0)
    @example(-0.0)
    @example(5e-324)
    @example(-1.5e-310)
    @example(sys.float_info.min)
    @example(sys.float_info.max)
    @example(-sys.float_info.max)
    def test_row_template_cell_matches_fmt(self, x):
        assert "%.12g" % x == cli._fmt(x)

    def test_numeric_tables_make_no_per_cell_calls(self, config_dir, tmp_path, monkeypatch):
        calls = []
        fmt = cli._fmt

        def counted(x):
            calls.append(x)
            return fmt(x)

        monkeypatch.setattr(cli, "_fmt", counted)
        ref, s5 = str(config_dir / "ref.json"), str(config_dir / "section5.json")
        for argv in (
            ["simulate", "--config", ref, "--t1", "5", "--out", str(tmp_path / "sim.csv")],
            ["phase", "--config", ref, "--resolution", "10", "--out", str(tmp_path / "ph.csv")],
            ["scenario", "--config", s5, "--step", "0.1", "--every", "10",
             "--out-prefix", str(tmp_path / "scn")],
        ):
            assert run(argv) == 0
            assert calls == [], argv[0]
        # the mixed tables still format through _fmt, so the counter sees calls
        assert run(["fixed-points", "--config", ref, "--out", str(tmp_path / "fp.csv")]) == 0
        assert calls

    def test_every_beyond_horizon_writes_t0_row_only(self, config_dir, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(["simulate", "--config", str(config_dir / "ref.json"),
                    "--every", "100000", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,R,q,U,price,flow_R,flow_U,mu"
        assert len(lines) == 2 and lines[1].startswith("0,50,15,0,")


def _alone(clock, table, every=1):
    """The text _numeric_lines writes for one table on the clock."""
    return "".join(texts[0] for texts in cli._numeric_lines(clock, table, every=every))


def _by_cell(clock, table, every=1):
    """The same text row by row, each cell through _fmt."""
    columns = [c.reshape(len(clock), -1) for c in (clock, *table)]
    rows = np.hstack(columns)[::every].tolist()
    return "".join(",".join(map(cli._fmt, row)) + "\n" for row in rows)


class TestSharedClock:
    """The scenario's four tables share one clock, written in one pass: each
    block formats the clock once and reuses a block of text whose bytes the
    previous table's block had.  Each file holds what its table alone gives."""

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_scenario_files_are_each_table_alone(self, config_dir, tmp_path, every):
        s5, prefix = str(config_dir / "section5.json"), str(tmp_path / "scn")
        assert run(["scenario", "--config", s5, "--out-prefix", prefix, "--step", "0.05",
                    "--every", str(every)]) == 0
        result = scenarios.run_comparison(scenarios.scenario_from_config(load_config(s5), h=0.05))
        legs = {"surge": (result.surge, result.fairness_surge),
                "saturated": (result.saturated, result.fairness_saturated)}
        # the legs' first rows repeat bit for bit: both prices are beta*q below q_m
        assert result.surge.states[:64].tobytes() == result.saturated.states[:64].tobytes()
        for name, (traj, fs) in legs.items():
            text = _alone(traj.times, cli._traj_table(traj), every)
            assert text == _by_cell(traj.times, cli._traj_table(traj), every)
            assert Path(f"{prefix}_{name}.csv").read_text() == ",".join(cli.TRAJ_HEADER) + "\n" + text
            text = _alone(fs.times, (fs.ratio,), every)
            assert text == _by_cell(fs.times, (fs.ratio,), every)
            assert Path(f"{prefix}_fairness_{name}.csv").read_text() == "t,ratio\n" + text

    def test_no_block_reused_from_above_q_m(self, section5_cfg):
        # from q = 60 > q_m the prices differ from the first row on
        sc = scenarios.scenario_from_config(section5_cfg, h=0.1, x0=(50.0, 60.0, 0.0))
        result = scenarios.run_comparison(sc)
        tables = [cli._traj_table(result.surge), cli._traj_table(result.saturated)]
        assert result.surge.price[0] != result.saturated.price[0]
        joint = ["".join(text) for text in zip(*cli._numeric_lines(result.surge.times, *tables))]
        assert joint == [_alone(result.surge.times, table) for table in tables]

    def test_a_zero_sign_tells_blocks_apart(self):
        # 0.0 == -0.0, but they print 0 and -0: blocks are compared by bytes
        clock = np.arange(300.0)
        plus = np.zeros(300)
        minus = np.where(np.arange(300) == 200, -0.0, 0.0)
        tables = [(plus,), (minus,), (minus.copy(),)]
        joint = ["".join(text) for text in zip(*cli._numeric_lines(clock, *tables))]
        assert joint == [_alone(clock, table) for table in tables]
        assert "\n200,-0\n" in joint[1] and "\n200,0\n" in joint[0]


class TestWriterMemory:
    def test_peak_bounded_by_the_block_not_the_rows(self, tmp_path):
        # the four scenario tables, written a block at a time: at 4*10^4 rows
        # the peak stays within 1.5 times the peak at 4*10^3 rows; tables
        # formatted whole would raise it about tenfold.  The two legs' tables
        # are equal, as the scenario's first rows are, which halves the time
        # that tracing takes
        def peak(n):
            rng = np.random.default_rng(0)
            clock = np.linspace(0.0, 400.0, n)
            traj, ratio = (rng.random((n, 3)), *rng.random((4, n))), (rng.random(n),)
            tables = [traj, traj, ratio, ratio]
            files = [(str(tmp_path / f"{k}.csv"), ["h"]) for k in range(4)]
            tracemalloc.start()
            try:
                cli._write_csv(files, cli._numeric_lines(clock, *tables))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(4000), peak(40000)
        assert large <= 1.5 * small, (small, large)
