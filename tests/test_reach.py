"""tests/reach.py keeps working: its line lister and tracer on one small module."""

from pathlib import Path
import sys

import accessprice
import reach


def test_lister_and_tracer_on_the_package_module():
    path = Path(accessprice.__file__)
    source = path.read_text(encoding="utf-8").splitlines()
    body = {name: lines for (name, _), lines in reach.function_lines(path).items()}
    # the functions and the module-level comprehension, each without its def line
    assert set(body) == {"<dictcomp>", "__getattr__", "__dir__"}
    assert [source[n - 1].strip() for n in sorted(body["__dir__"])] == [
        "return sorted({*globals(), *__all__, *_SUBMODULES})"]
    assert not any(source[n - 1].lstrip().startswith("def ") for lines in body.values() for n in lines)

    outer = sys.gettrace()
    with reach.Tracer(["__init__"]) as tracer:
        accessprice.__dir__()
    assert sys.gettrace() is outer
    assert tracer.ran == {"__init__": body["__dir__"]}
    missed = {name: (lines, whole) for _, name, _, lines, whole in reach.unreached(tracer)}
    assert missed == {name: (sorted(body[name]), True) for name in ("<dictcomp>", "__getattr__")}
