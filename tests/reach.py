"""Which function-body lines of src/accessprice run, and from where.

    PYTHONPATH=src python tests/reach.py --tests [pytest args]
        runs Tier-1 in this process and prints each function-body line of
        src/accessprice/*.py that no test runs;
    PYTHONPATH=src python tests/reach.py --users
        runs the user paths (every subcommand on the shipped configs in
        every mode, the demos, one tiny operation of each bench workload)
        and prints each function none of whose lines they run: the
        functions that only tests reach.

Python 3.11 has no sys.monitoring, so one sys.settrace line tracer (and
threading.settrace for threads) records the lines each function frame
runs in a file named /accessprice/<module>.py; a bare <module>.py would
also match tests/test_<module>.py, and the generated code's file name,
<accessprice make ...>, matches neither.  A function's lines come from
its code object's co_lines(), recursing through co_consts, so no list is
kept by hand.  The tracer is installed before the library is imported,
so module-level comprehensions count as run.  Under --tests a timed test
that suspends the tracer for its timed section (c06) keeps its budget.
Pytest does not collect this file; it needs only the stdlib (and, for
--users, numpy through the library and bench/workloads.py).
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
from pathlib import Path
import runpy
import sys
import tempfile
import threading
import types

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "accessprice"
MODULES = tuple(sorted(p.stem for p in SRC.glob("*.py")))
CONFIGS = ("ref", "section5", "competitive")
MODES = ("normal", "chattering", "saturated", "competitive", "switched-full")


def function_lines(path) -> dict[tuple[str, int], set[int]]:
    """{(qualname, first line): executable lines} of each function in the
    source file: a def, lambda or comprehension, not the module or a class
    body.  A def's first line (its def or first decorator) holds only the
    frame's prelude, which runs no line event, so it is left out."""
    out = {}
    codes = [compile(Path(path).read_text(encoding="utf-8"), str(path), "exec")]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines = {line for _, _, line in code.co_lines() if line is not None}
            if not code.co_name.startswith("<"):
                lines.discard(code.co_firstlineno)
            out[code.co_qualname, code.co_firstlineno] = lines
    return out


class Tracer:
    """Context manager: ran[module] is the set of lines that function frames
    of /accessprice/<module>.py ran inside it, for each of modules.  The
    tracers found on entry are restored on exit."""

    def __init__(self, modules=MODULES):
        self.suffixes = {f"/accessprice/{m}.py": m for m in modules}
        self.ran = {m: set() for m in modules}
        self._files = {}  # co_filename -> its module's set, or None

    def _lines(self, filename):
        lines = self._files.get(filename, False)
        if lines is False:
            suffix = "/accessprice/" + filename.replace(os.sep, "/").rpartition("/accessprice/")[2]
            lines = self._files[filename] = self.ran.get(self.suffixes.get(suffix))
        return lines

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_flags & inspect.CO_OPTIMIZED and self._lines(code.co_filename) is not None:
            return self._line
        return None

    def _line(self, frame, event, arg):
        if event == "line":
            self._files[frame.f_code.co_filename].add(frame.f_lineno)
        return self._line

    def __enter__(self):
        self._outer = sys.gettrace(), threading.gettrace()
        sys.settrace(self._call)
        threading.settrace(self._call)
        return self

    def __exit__(self, *exc):
        sys.settrace(self._outer[0])
        threading.settrace(self._outer[1])


def unreached(tracer: Tracer):
    """(module, qualname, first line, lines not run) of each function with a
    line the tracer did not see, in source order."""
    out = []
    for module in tracer.ran:
        for (name, first), lines in sorted(function_lines(SRC / f"{module}.py").items(),
                                           key=lambda item: item[0][1]):
            missed = sorted(lines - tracer.ran[module])
            if missed:
                out.append((module, name, first, missed, len(missed) == len(lines)))
    return out


def run_tests(args) -> int:
    import pytest

    with Tracer() as tracer:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args])
    for module, name, _, missed, _ in unreached(tracer):
        source = (SRC / f"{module}.py").read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"{module}.py:{line}: {name}: {source[line - 1].strip()}")
    return code


def user_paths(tmp):
    """Every subcommand on the shipped configs (each mode at K_U 0 and 0.5
    where it takes --mode), the demos by runpy, and one tiny operation of
    each bench workload; output goes to tmp, failures are expected."""
    import time

    from accessprice import cli
    import numpy as np

    out = os.path.join(tmp, "out")
    for name in CONFIGS:
        cfg = str(ROOT / "configs" / f"{name}.json")
        runs = [["validate", "--config", cfg], ["validate", "--config", cfg, "--k-u", "0.5"],
                ["doa", "--config", cfg, "--out", out], ["scenario", "--config", cfg, "--out-prefix", out]]
        for mode in MODES:
            for k_u in ("0", "0.5"):
                common = ["--config", cfg, "--mode", mode, "--k-u", k_u, "--out", out]
                runs += [["fixed-points", *common], ["classify", *common],
                         ["simulate", *common, "--t1", "20"], ["phase", *common, "--resolution", "10"]]
        for argv in runs:
            cli.run(argv)
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import WORKLOADS

    for workload in WORKLOADS.values():
        wl = workload(str(ROOT), True)
        try:
            wl.prepare([cli.load_config(str(ROOT / p)) for p in wl.configs])
            inp = wl.make_input(np.random.default_rng(0))
            wl.check(inp, wl.run(inp, time.perf_counter))
        finally:
            wl.close()


def run_users() -> int:
    cwd = os.getcwd()
    os.chdir(ROOT)  # the demos name configs/ from the repository root
    try:
        with tempfile.TemporaryDirectory() as tmp, Tracer() as tracer, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            user_paths(tmp)
    finally:
        os.chdir(cwd)
    listed = []
    for module, name, first, _, whole in unreached(tracer):
        # a function inside a listed one is not run either
        if whole and not any(name.startswith(f"{outer}.<locals>.") for outer in listed):
            listed.append(name)
            print(f"{module}.{name} (line {first})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--tests", action="store_true", help="lines no Tier-1 test runs")
    which.add_argument("--users", action="store_true", help="functions only tests reach")
    args, rest = parser.parse_known_args(argv)
    if args.users and rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return run_tests(rest) if args.tests else run_users()


if __name__ == "__main__":
    sys.exit(main())
