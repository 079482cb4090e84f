"""The package namespace is lazy: a process imports only the modules it
reaches, and numpy only where it works on arrays."""

import importlib
import json
import os
from pathlib import Path
import subprocess
import sys

import pytest

import accessprice

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ("dynamics", "equilibria", "regions", "scenarios", "stability")
WATCHED = (*(f"accessprice.{m}" for m in HEAVY), "numpy")


def _loaded_after(code):
    """The HEAVY modules, then numpy, loaded in a fresh interpreter after
    running code, by their short names."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    probe = (
        f"import sys\n{code}\n"
        f"print(__import__('json').dumps([m.rsplit('.', 1)[-1] for m in {WATCHED!r} if m in sys.modules]))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_loading_a_config_imports_no_heavy_module():
    assert _loaded_after("from accessprice import cli; cli.load_config('configs/ref.json')") == []


def test_simulate_imports_dynamics_alone(tmp_path):
    out = tmp_path / "sim.csv"
    code = (
        "from accessprice import cli\n"
        f"assert cli.run(['simulate', '--config', 'configs/ref.json', '--t1', '1', '--out', {str(out)!r}]) == 0"
    )
    assert _loaded_after(code) == ["dynamics", "numpy"]
    assert out.read_text().startswith("t,R,q,U,")


def test_the_analysis_commands_import_no_numpy(tmp_path):
    # the benchmark's set-up code (import cli, load the configs), then
    # validate, fixed-points and classify on every shipped config: no numpy
    # until simulate, which steps arrays
    configs = [f"configs/{name}.json" for name in ("ref", "section5", "competitive")]
    runs = [[cmd, "--config", p, *extra] for p in configs for cmd, extra in (
        ("validate", ()), ("validate", ("--k-u", "0.5")), ("fixed-points", ()),
        ("fixed-points", ("--mode", "saturated", "--k-u", "1")), ("classify", ()),
        ("classify", ("--mode", "competitive", "--k-u", "0.5")))]
    code = (
        "import contextlib, io\n"
        "from accessprice import cli\n"
        f"[cli.load_config(p) for p in {configs!r}]\n"
        "assert 'numpy' not in sys.modules\n"
        f"for argv in {runs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.run(argv)\n"
        "    assert code in (0, 1) and 'numpy' not in sys.modules, (argv, code)\n"
        f"assert cli.run(['simulate', '--config', {configs[0]!r}, '--t1', '1', '--out', {str(tmp_path / 's.csv')!r}]) == 0"
    )
    assert _loaded_after(code) == ["dynamics", "equilibria", "regions", "stability", "numpy"]


def test_exports_are_their_submodule_objects():
    for name in accessprice.__all__:
        value = getattr(accessprice, name)
        assert getattr(importlib.import_module(value.__module__), name) is value, name


def test_namespace():
    assert len(set(accessprice.__all__)) == len(accessprice.__all__) == 53
    assert set(accessprice.__all__) <= set(dir(accessprice))
    for sub in (*HEAVY, "model", "cli"):
        assert getattr(accessprice, sub) is importlib.import_module(f"accessprice.{sub}")
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        accessprice.no_such_name
