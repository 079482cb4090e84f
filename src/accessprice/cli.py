"""Command-line interface.

Subcommands: validate, fixed-points, classify, simulate, phase, doa,
scenario.  Configurations are JSON files with a versioned schema; see
configs/ in the repository for the shipped references.  Exit codes:
0 success, 1 validation failure or stdout closed by its reader, 2 usage
error.  Diagnostics go to stderr; data goes to --out files (or stdout
for tabular commands).

Outputs are byte-identical across repeated runs on the same inputs:
iteration orders are fixed, floats are printed at 12 significant digits
("%.12g", one format per block of rows for the all-numeric tables) and no
timestamps are embedded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import re
import sys

from .model import (
    MODE_TAGS,
    AdmissionSpec,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    SystemMode,
    validate_admissible,
)

SCHEMA_VERSION = 1
DEFAULT_MU_STAR = 3.0


class ConfigError(ValueError):
    """Configuration file problem, annotated with the offending key path."""


def _fmt(x) -> str:
    """A CSV cell: a string as it is, a number at 12 significant digits."""
    return x if isinstance(x, str) else format(float(x), ".12g")


def _err(msg: str):
    print(f"error: {msg}", file=sys.stderr)


def _notice(msg: str):
    print(f"notice: {msg}", file=sys.stderr)


# ---------------------------------------------------------------- config


NUM = (int, float)
_TYPE_NAMES = {NUM: "a number", int: "an integer", dict: "an object", str: "a string",
               list: "an array"}

# section -> (the spec it builds, each key's JSON type, the keys that may be
# left out).  The keys are the spec's keyword names (schema_version aside),
# the required ones first: _section checks them in this order.
_SCHEMA = {
    "config": (ModelConfig, {"schema_version": int, "k_r": NUM, "price": dict,
                             "admission": dict, "service": dict, "k_u_schedule": list,
                             "q_ad": NUM}, {"k_u_schedule", "q_ad"}),
    "price": (PriceSpec, {"variant": str, "beta": NUM, "q_m": NUM, "q_n": NUM}, {"q_m", "q_n"}),
    "admission": (AdmissionSpec, {"variant": str, "coefficients": list, "q_max": NUM},
                  {"q_max"}),
    "service": (ServiceSpec, {"q_c": NUM, "mu_star": NUM}, {"mu_star"}),
}


def _is_number(x) -> bool:
    return isinstance(x, NUM) and not isinstance(x, bool)


def _float(x) -> float:
    """A JSON number as a float.  An integer beyond the float range reads as
    +-inf, as json.loads reads the literal 1e400, so the specs' finiteness
    checks name its key."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _json(text: str):
    """json.loads, with an integer of 400 or more characters, far beyond the
    float range, read as float reads it (+-inf): int() refuses one of over
    4300 digits with an unnamed error."""
    return json.loads(text, parse_int=lambda s: int(s) if len(s) < 400 else float(s))


def _section(obj: dict, path: str) -> dict:
    """The keyword arguments of path's spec from obj, every number a float
    and an absent optional key None; unknown, missing and wrong-typed keys
    raise ConfigError."""
    _, types, optional = _SCHEMA[path]
    unknown = set(obj) - set(types)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    kwargs = dict.fromkeys(optional)
    for key, typ in types.items():
        if key not in obj:
            if key not in optional:
                raise ConfigError(f"{path}.{key}: missing")
        elif not isinstance(obj[key], typ) or isinstance(obj[key], bool):
            raise ConfigError(f"{path}.{key}: expected {_TYPE_NAMES[typ]}")
        else:
            kwargs[key] = _float(obj[key]) if typ is NUM else obj[key]
    return kwargs


def _build(path: str, kwargs: dict):
    """path's spec from kwargs; a ValueError that starts with a keyword
    ("beta must be > 0") is named at its key ("price.beta: must be > 0")."""
    try:
        return _SCHEMA[path][0](**kwargs)
    except ValueError as exc:
        first, _, rest = str(exc).partition(" ")
        if first in kwargs:
            raise ConfigError(f"{path}.{first}: {rest}") from exc
        raise ConfigError(f"{path}: {exc}") from exc


def config_from_dict(doc: dict, notices=None) -> ModelConfig:
    """Validate a parsed JSON document against the schema."""
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    top = _section(doc, "config")
    version = top.pop("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version: expected {SCHEMA_VERSION}, got {version}")
    price = _section(top["price"], "price")
    adm = _section(top["admission"], "admission")
    if not all(map(_is_number, adm["coefficients"])):
        raise ConfigError("admission.coefficients: expected numbers")
    adm["coefficients"] = tuple(map(_float, adm["coefficients"]))
    svc = _section(top["service"], "service")
    if svc["mu_star"] is None:
        svc["mu_star"] = DEFAULT_MU_STAR
        if notices is not None:
            notices.append(f"service.mu_star defaulted to {DEFAULT_MU_STAR:g}")
    sched = []
    for i, piece in enumerate(top["k_u_schedule"] or ()):
        if not isinstance(piece, list) or len(piece) != 3 or not all(map(_is_number, piece)):
            raise ConfigError(f"k_u_schedule[{i}]: expected [t_start, t_end, rate]")
        sched.append(tuple(map(_float, piece)))
    top["k_u_schedule"] = tuple(sched)
    for name, kwargs in (("price", price), ("admission", adm), ("service", svc)):
        top[name] = _build(name, kwargs)
    return _build("config", top)


def load_config(path: str, overrides=()) -> ModelConfig:
    """Read, override and schema-validate a configuration file.

    Each applied default produces a notice on stderr.  Overrides are
    dotted key=value pairs type-checked against the schema.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = _json(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    for item in overrides:
        doc = _apply_override(doc, item)
    notices: list[str] = []
    cfg = config_from_dict(doc, notices)
    for msg in notices:
        _notice(msg)
    return cfg


def _apply_override(doc: dict, item: str) -> dict:
    if "=" not in item:
        raise ConfigError(f"override {item!r}: expected key=value")
    key, raw = item.split("=", 1)
    try:
        value = _json(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = doc
    for p in parts[:-1]:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict):
        raise ConfigError(f"override {key!r}: unknown key path")
    node[parts[-1]] = value
    return doc


# ---------------------------------------------------------------- output

_ROW_BLOCK = 128  # rows turned into Python floats and formatted by one % call per table


def _open_out(path):
    """Text file at path (parent created), or stdout, left open, for None or "-"."""
    if path in (None, "-"):
        return contextlib.nullcontext(sys.stdout)
    parent = os.path.dirname(path)
    try:
        if parent:
            os.makedirs(parent, exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise FileNotFoundError(f"cannot write {path}: {exc}") from exc


def _write_csv(files, blocks):
    """Each (path, header) of files opened in turn and its header written,
    then each block's texts, one per file in that order, each ending in a
    newline: the files are written together, a block at a time."""
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(_open_out(path)) for path, _ in files]
        for fh, (_, header) in zip(handles, files):
            fh.write(",".join(header) + "\n")
        for texts in blocks:
            for fh, text in zip(handles, texts):
                fh.write(text)


def _mixed_lines(rows):
    """Lines of rows that mix strings with numbers, each cell through _fmt."""
    return (",".join(map(_fmt, row)) + "\n" for row in rows)


def _numeric_lines(clock, *tables, every=1):
    """The lines of tables that share a clock, _ROW_BLOCK rows at a time:
    per block, a list of each table's text.  The clock is the tables'
    first column (the time; phase's r), a 1-D float array, each table a
    sequence of 1-D/2-D float arrays of its length, and a table's row is
    one "%.12g,...\n" of every `every`-th clock value and that row of its
    arrays ("%.12g" % x == _fmt(x) for every float).
    A block formats the clock's cells once and each table's lines by one %
    call, which takes those cells through %s.  A table whose block has the
    bytes of the previous table's reuses its text; bytes, not values,
    since 0.0 == -0.0 prints apart."""
    import numpy as np

    clock = clock[::every]
    tables = [[c[::every] for c in table] for table in tables]
    for start in range(0, len(clock), _ROW_BLOCK):
        cells = list(map("%.12g".__mod__, clock[start:start + _ROW_BLOCK].tolist()))
        n = len(cells)
        texts, last = [], None
        for table in tables:
            block = np.column_stack([c[start:start + _ROW_BLOCK] for c in table])
            data = block.tobytes()
            if data != last:
                w = block.shape[1] + 1
                flat = [None] * (n * w)  # the rows' cells, row after row
                flat[::w] = cells
                for k, column in enumerate(block.T.tolist(), 1):
                    flat[k::w] = column
                last, text = data, ("%s" + ",%.12g" * (w - 1) + "\n") * n % tuple(flat)
            texts.append(text)
        yield texts


def _write_json(path, doc):
    with _open_out(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


TRAJ_HEADER = ["t", "R", "q", "U", "price", "flow_R", "flow_U", "mu"]


def _traj_table(traj):
    """A trajectory's columns after t, as TRAJ_HEADER names them."""
    return traj.states, traj.price, traj.flow_r, traj.flow_u, traj.mu


# ------------------------------------------------------------- commands
# (args, config, mode or None without --mode) -> exit code.  Each imports
# the modules it runs, so a process loads only what its subcommand reaches;
# calls stay module attribute lookups, which tracing can wrap.


def _cmd_validate(args, cfg, mode) -> int:
    report = validate_admissible(cfg, k_u=args.k_u)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_fixed_points(args, cfg, mode) -> int:
    from . import equilibria

    points = equilibria.find_fixed_points(cfg, mode)
    header = ["mode", "q_star", "r_star", "u_star", "price", "classification"]
    for i in range(1, mode.dim + 1):
        header.extend([f"eig_re_{i}", f"eig_im_{i}"])
    rows = []
    for fp in points:
        row = [fp.mode, fp.q_star, fp.r_star, fp.u_star, fp.price_at, fp.classification]
        eig = list(fp.eigen_data) + [complex(math.nan, math.nan)] * mode.dim
        for z in eig[:mode.dim]:
            row.extend([z.real, z.imag])
        rows.append(row)
    _write_csv([(args.out, header)], zip(_mixed_lines(rows)))
    return 0


def _cmd_classify(args, cfg, mode) -> int:
    from . import equilibria, stability

    points = equilibria.find_fixed_points(cfg, mode)
    header = [
        "mode", "q_star", "r_star", "u_star", "classification",
        "trace", "det", "hurwitz", "saddle_lhs", "saddle_rhs",
    ]
    rows = []
    for fp in points:
        try:
            rep = stability.classify_at(cfg, (fp.r_star, fp.q_star, fp.u_star), mode)
            trace, det = rep.trace, rep.determinant
            hur = str(rep.hurwitz.get("hurwitz", "")).lower()
        except stability.KinkProximityError:
            trace = det = hur = ""
        lhs = rhs_ = ""
        if fp.mode == "normal" and cfg.price.q_m is not None and fp.q_star > cfg.price.q_m:
            lhs, rhs_, _ = stability.saddle_criterion(cfg, fp)
        rows.append(
            [fp.mode, fp.q_star, fp.r_star, fp.u_star, fp.classification,
             trace, det, hur, lhs, rhs_]
        )
    _write_csv([(args.out, header)], zip(_mixed_lines(rows)))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _cmd_simulate(args, cfg, mode) -> int:
    from . import dynamics

    traj = dynamics.integrate(cfg, mode, args.x0, args.t0, args.t1, args.step)
    blocks = _numeric_lines(traj.times, _traj_table(traj), every=args.every)
    _write_csv([(args.out, TRAJ_HEADER)], blocks)
    return 0


def _cmd_phase(args, cfg, mode) -> int:
    import numpy as np
    from . import regions

    grid = regions.phase_grid(
        cfg, mode, (args.r_min, args.r_max), (args.q_min, args.q_max), args.resolution
    )
    r, q = np.meshgrid(grid.r, grid.q, indexing="ij")
    table = (q.ravel(), grid.dr.ravel(), grid.dq.ravel(), grid.magnitude.ravel())
    blocks = _numeric_lines(r.ravel(), table)
    _write_csv([(args.out, ["r", "q", "dr", "dq", "magnitude"])], blocks)
    return 0


def _cmd_doa(args, cfg, mode) -> int:
    from . import dynamics, regions

    region = regions.build_polygon(cfg, args.q_choice, args.r_choice)
    report = regions.check_invariance(cfg, region, dynamics.NORMAL, args.samples)
    doc = {
        "kind": region.kind,
        "vertices": [[float(v) for v in vert] for vert in region.vertices],
        "check": {
            "passed": report.passed,
            "warning": report.warning,
            "faces": [dataclasses.asdict(f) for f in report.faces],
        },
    }
    _write_json(args.out, doc)
    return 0 if report.passed else 1


def _cmd_scenario(args, cfg, mode) -> int:
    from . import scenarios

    sc = scenarios.scenario_from_config(cfg, h=args.step)
    w0 = max(args.window_start, 0.0)
    w1 = min(args.window_end, sc.t1)
    if not w0 <= w1:  # NaN included; checked before any file is written
        raise ValueError(
            f"window [{w0:g}, {w1:g}] outside the series horizon [0, {sc.t1:g}]"
        )
    result = scenarios.run_comparison(sc)
    # a window that holds no sample raises here, before any file is written
    gap_min, gap_mean = scenarios.fairness_gap(
        result.fairness_saturated, result.fairness_surge, (w0, w1)
    )
    prefix = args.out_prefix
    legs = {
        "surge": (result.surge, result.fairness_surge),
        "saturated": (result.saturated, result.fairness_saturated),
    }
    # one clock: fairness_gap has checked that the legs' grids are equal; each
    # table follows its twin of the other leg, whose rows it often repeats
    files = [(f"{prefix}_{name}.csv", TRAJ_HEADER) for name in legs]
    files += [(f"{prefix}_fairness_{name}.csv", ["t", "ratio"]) for name in legs]
    blocks = _numeric_lines(result.surge.times, *(_traj_table(traj) for traj, _ in legs.values()),
                            *((fs.ratio,) for _, fs in legs.values()), every=args.every)
    _write_csv(files, blocks)

    probe = scenarios.bounceback_probe(sc, result)
    summary = {
        "fairness_gap": {"window": [w0, w1], "min": gap_min, "mean": gap_mean},
        "r_at_burst_edges": {
            name: {
                "start": float(traj.state_at(sc.burst.t_start)[0]),
                "end": float(traj.state_at(sc.burst.t_end)[0]),
            }
            for name, (traj, _) in legs.items()
        },
        "max_queue_gap": float(abs(result.surge.q - result.saturated.q).max()),
        "bounceback": {
            "skipped": probe.skipped,
            "notice": probe.notice,
            "converged": probe.converged,
            "settling_time": None if math.isnan(probe.settling_time) else probe.settling_time,
            "target": probe.target,
            "reached_target": probe.reached_target,
        },
    }
    _write_json(f"{prefix}_summary.json", summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accessprice",
        description="Dynamic access-pricing queue model analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, modes=True):
        p = sub.add_parser(name, help=summary)
        # a word such as -1e-3 or -1,5 is a value, not an option, as argparse reads -1 (a private hook)
        p._negative_number_matcher = re.compile(r"^-\.?\d")
        p.set_defaults(fn=fn)
        p.add_argument("--config", required=True, help="JSON configuration file")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config entry (dotted path), repeatable",
        )
        if modes:
            p.add_argument(
                "--mode",
                default="normal",
                choices=[tag.replace("_", "-") for tag in MODE_TAGS],
            )
            p.add_argument(
                "--k-u", type=float, default=0.0, dest="k_u",
                help="constant K_U for the saturated/competitive modes",
            )
        return p

    shared = {
        "--out": dict(default=None, help="output file; stdout if omitted or -"),
        "--step": dict(type=float, default=None),
        "--every": dict(type=_positive_int, default=1, help="write every Nth step"),
    }

    def add(p, *flags):
        for flag in flags:
            p.add_argument(flag, **shared[flag])

    p = command("validate", _cmd_validate, "admissibility report", modes=False)
    p.add_argument(
        "--k-u", type=float, default=None, dest="k_u",
        help="also check the competitive-mode root count at this K_U",
    )

    add(command("fixed-points", _cmd_fixed_points, "equilibria as CSV"), "--out")
    add(command("classify", _cmd_classify, "stability reports as CSV"), "--out")

    p = command("simulate", _cmd_simulate, "integrate one trajectory to CSV")
    p.add_argument("--t0", type=float, default=0.0)
    p.add_argument("--t1", type=float, default=100.0)
    add(p, "--step")
    p.add_argument("--x0", type=_floats, default="50,15,0", help="initial state r,q[,u]")
    add(p, "--every", "--out")

    p = command("phase", _cmd_phase, "vector-field grid as CSV")
    p.add_argument("--r-min", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=150.0)
    p.add_argument("--q-min", type=float, default=0.0)
    p.add_argument("--q-max", type=float, default=100.0)
    p.add_argument("--resolution", type=int, default=50)
    add(p, "--out")

    p = command("doa", _cmd_doa, "invariant polygon + check report (JSON)", modes=False)
    p.add_argument("--q-choice", type=float, default=None)
    p.add_argument("--r-choice", type=float, default=None)
    p.add_argument("--samples", type=int, default=1000)
    add(p, "--out")

    p = command("scenario", _cmd_scenario, "surge-vs-saturated comparison", modes=False)
    p.add_argument("--out-prefix", required=True)
    add(p, "--step", "--every")
    p.add_argument("--window-start", type=float, default=200.0)
    p.add_argument("--window-end", type=float, default=300.0)

    return parser


def run(argv) -> int:
    """Dispatch a CLI invocation; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        cfg = load_config(args.config, args.set or ())
        # validate, doa and scenario take no --mode; validate and doa no --step
        mode = SystemMode(args.mode.replace("-", "_"), args.k_u) if "mode" in args else None
        if "step" in args and args.step is None:
            from . import dynamics
            args.step = dynamics.DEFAULT_STEP
            _notice(f"step defaulted to {dynamics.DEFAULT_STEP:g}")
        return args.fn(args, cfg, mode)
    except FileNotFoundError as exc:
        _err(str(exc))
        parser.print_usage(sys.stderr)
        return 2
    except ValueError as exc:  # ConfigError included
        _err(str(exc))
        return 1
    except FloatingPointError as exc:
        _err(f"integration aborted: {exc}")
        return 1
    except MemoryError as exc:  # numpy's message states the size asked for
        _err(str(exc))
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        # devnull takes stdout's place, so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
