"""Command-line interface.

Subcommands: validate, fixed-points, classify, simulate, phase, doa,
scenario.  Configurations are JSON files with a versioned schema; see
configs/ in the repository for the shipped references.  Exit codes:
0 success, 1 validation failure or stdout closed by its reader, 2 usage
error.  Diagnostics go to stderr; data goes to --out files (or stdout
for tabular commands).

Outputs are byte-identical across repeated runs on the same inputs:
iteration orders are fixed, floats are printed at 12 significant digits
("%.12g", one format per row for the all-numeric tables) and no
timestamps are embedded.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import dynamics, equilibria, regions, scenarios, stability
from .model import (
    AdmissionSpec,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
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


def _expect_keys(obj: dict, path: str, required: dict, optional: dict):
    unknown = set(obj) - set(required) - set(optional)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    for key, typ in required.items():
        if key not in obj:
            raise ConfigError(f"{path}.{key}: missing")
        if not isinstance(obj[key], typ) or isinstance(obj[key], bool):
            raise ConfigError(f"{path}.{key}: expected {typ}")
    for key, typ in optional.items():
        if key in obj and (not isinstance(obj[key], typ) or isinstance(obj[key], bool)):
            raise ConfigError(f"{path}.{key}: expected {typ}")


NUM = (int, float)


def config_from_dict(doc: dict, notices=None) -> ModelConfig:
    """Validate a parsed JSON document against the schema."""

    def note(msg):
        if notices is not None:
            notices.append(msg)

    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    _expect_keys(
        doc,
        "config",
        {"schema_version": int, "k_r": NUM, "price": dict, "admission": dict, "service": dict},
        {"k_u_schedule": list, "q_ad": NUM},
    )
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version: expected {SCHEMA_VERSION}, got {doc['schema_version']}"
        )

    price = doc["price"]
    _expect_keys(price, "price", {"variant": str, "beta": NUM}, {"q_m": NUM, "q_n": NUM})
    adm = doc["admission"]
    _expect_keys(adm, "admission", {"variant": str, "coefficients": list}, {"q_max": NUM})
    if not all(isinstance(c, NUM) and not isinstance(c, bool) for c in adm["coefficients"]):
        raise ConfigError("admission.coefficients: expected numbers")
    svc = doc["service"]
    _expect_keys(svc, "service", {"q_c": NUM}, {"mu_star": NUM})
    mu_star = svc.get("mu_star")
    if mu_star is None:
        mu_star = DEFAULT_MU_STAR
        note(f"service.mu_star defaulted to {DEFAULT_MU_STAR:g}")

    sched = []
    for i, piece in enumerate(doc.get("k_u_schedule", [])):
        if (
            not isinstance(piece, list)
            or len(piece) != 3
            or not all(isinstance(v, NUM) and not isinstance(v, bool) for v in piece)
        ):
            raise ConfigError(f"k_u_schedule[{i}]: expected [t_start, t_end, rate]")
        sched.append(tuple(float(v) for v in piece))

    def build(path, ctor, **kwargs):
        try:
            return ctor(**kwargs)
        except ValueError as exc:
            msg = str(exc)
            first = msg.split(" ", 1)[0]
            if first in kwargs:  # "beta must be > 0" -> "price.beta: must be > 0"
                raise ConfigError(f"{path}.{first}: {msg.split(' ', 1)[1]}") from exc
            raise ConfigError(f"{path}: {msg}") from exc

    price_spec = build(
        "price",
        PriceSpec,
        variant=price["variant"],
        beta=float(price["beta"]),
        q_m=float(price["q_m"]) if "q_m" in price else None,
        q_n=float(price["q_n"]) if "q_n" in price else None,
    )
    adm_spec = build(
        "admission",
        AdmissionSpec,
        variant=adm["variant"],
        coefficients=tuple(float(c) for c in adm["coefficients"]),
        q_max=float(adm["q_max"]) if "q_max" in adm else None,
    )
    svc_spec = build("service", ServiceSpec, mu_star=float(mu_star), q_c=float(svc["q_c"]))
    return build(
        "config",
        ModelConfig,
        k_r=float(doc["k_r"]),
        k_u_schedule=tuple(sched),
        price=price_spec,
        admission=adm_spec,
        service=svc_spec,
        q_ad=float(doc["q_ad"]) if "q_ad" in doc else None,
    )


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
        doc = json.loads(text)
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
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    parts = key.split(".")
    node = doc
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise ConfigError(f"override {key!r}: unknown key path")
        node = node[p]
    if not isinstance(node, dict):
        raise ConfigError(f"override {key!r}: unknown key path")
    node[parts[-1]] = value
    return doc


# ---------------------------------------------------------------- output

_ROW_BLOCK = 256  # rows converted to Python floats at a time


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


def _write_csv(path, header, lines):
    """Header, then the table's lines as they are, each ending in a newline."""
    with _open_out(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def _mixed_lines(rows):
    """Lines of rows that mix strings with numbers, each cell through _fmt."""
    return (",".join(map(_fmt, row)) + "\n" for row in rows)


def _numeric_lines(*columns, every=1):
    """Lines of every `every`-th row of equal-length 1-D/2-D float arrays,
    one "%.12g,...\n" format per row ("%.12g" % x == _fmt(x) for every
    float), _ROW_BLOCK rows turned into Python floats at a time."""
    columns = [c[::every] for c in columns]
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    template = ",".join(["%.12g"] * width) + "\n"
    for start in range(0, len(columns[0]), _ROW_BLOCK):
        for row in np.column_stack([c[start:start + _ROW_BLOCK] for c in columns]).tolist():
            yield template % tuple(row)


def _write_json(path, doc):
    with _open_out(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


TRAJ_HEADER = ["t", "R", "q", "U", "price", "flow_R", "flow_U", "mu"]


def _traj_lines(traj, every):
    return _numeric_lines(
        traj.times, traj.states, traj.price, traj.flow_r, traj.flow_u, traj.mu, every=every
    )


# ------------------------------------------------------------- commands
# (args, config, mode or None without --mode) -> exit code


def _cmd_validate(args, cfg, mode) -> int:
    report = validate_admissible(cfg, k_u=args.k_u)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def _cmd_fixed_points(args, cfg, mode) -> int:
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
    _write_csv(args.out, header, _mixed_lines(rows))
    return 0


def _cmd_classify(args, cfg, mode) -> int:
    points = equilibria.find_fixed_points(cfg, mode)
    header = [
        "mode", "q_star", "r_star", "u_star", "classification",
        "trace", "det", "hurwitz", "saddle_lhs", "saddle_rhs",
    ]
    rows = []
    for fp in points:
        try:
            rep = stability.classify(
                stability.jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), mode)
            )
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
    _write_csv(args.out, header, _mixed_lines(rows))
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_simulate(args, cfg, mode) -> int:
    x0 = [float(v) for v in args.x0.split(",")]
    traj = dynamics.integrate(cfg, mode, x0, args.t0, args.t1, args.step)
    _write_csv(args.out, TRAJ_HEADER, _traj_lines(traj, args.every))
    return 0


def _cmd_phase(args, cfg, mode) -> int:
    grid = regions.phase_grid(
        cfg, mode, (args.r_min, args.r_max), (args.q_min, args.q_max), args.resolution
    )
    r, q = np.meshgrid(grid.r, grid.q, indexing="ij")
    lines = _numeric_lines(
        r.ravel(), q.ravel(), grid.dr.ravel(), grid.dq.ravel(), grid.magnitude.ravel()
    )
    _write_csv(args.out, ["r", "q", "dr", "dq", "magnitude"], lines)
    return 0


def _cmd_doa(args, cfg, mode) -> int:
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
    sc = scenarios.scenario_from_config(cfg, h=args.step)
    w0 = max(args.window_start, sc.t0)
    w1 = min(args.window_end, sc.t1)
    if not w0 <= w1:  # NaN included; checked before any file is written
        raise ValueError(
            f"window [{w0:g}, {w1:g}] outside the series horizon [{sc.t0:g}, {sc.t1:g}]"
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
    for name, (traj, fs) in legs.items():
        _write_csv(f"{prefix}_{name}.csv", TRAJ_HEADER, _traj_lines(traj, args.every))
        ratio = _numeric_lines(fs.times, fs.ratio, every=args.every)
        _write_csv(f"{prefix}_fairness_{name}.csv", ["t", "ratio"], ratio)

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
        "max_queue_gap": float(
            np.max(np.abs(result.surge.q - result.saturated.q))
        ),
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
                choices=["normal", "chattering", "saturated", "competitive", "switched-full"],
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
    p.add_argument("--x0", default="50,15,0", help="initial state r,q[,u]")
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
        modes = "mode" in args  # validate, doa and scenario take no --mode
        mode = dynamics.SystemMode(args.mode.replace("-", "_"), args.k_u) if modes else None
        if "step" in args and args.step is None:
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
