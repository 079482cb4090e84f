"""Benchmark of the accessprice library, driven from outside as one client.

    python3 bench/run.py --workload scenario|ensemble|analysis \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run it from the root of a checkout: it imports the library from ./src and
nothing else.  One single-threaded process issues one operation at a time
(a closed loop with one client), then prints a detail line and, last, one
JSON result line.  BLAS and OpenMP are pinned to one thread, and the
process and the set-up interpreters it starts to one CPU, so that the
speed probe samples the CPU that runs the measured work.  A run makes
a fixed number of operations, sized from S to take about S seconds on the
machine the benchmark was tuned on (Workload.op_count), so that the seed
alone fixes its inputs and which of them fail.

--trace 0 reports the end-to-end metrics:
    op_p50_norm_ms  median time of one operation, host-speed normalised
    setup_s         median time for a fresh interpreter to import the
                    library and load the workload's configs, normalised
    peak_rss_mb     peak resident memory of this process
--trace 1 wraps the library's seven modules in span tracing and reports the
per-layer metrics, including trace.overhead_ratio: every input runs once
traced and once untraced, and the ratio compares their median times.

The result line's "failed" counts operations that raised or whose output
failed a check; "correct" is false when a completed operation returned
output that failed a check.

Normalisation (see probe.py) rescales a wall time by the host speed
measured around it.  The detail line carries the raw times too, plus the
metrics named per workload (scenario_s, state_steps_per_s,
analysis_p50_ms, analysis_p95_ms, error_rate) with their sample counts.

--smoke runs every workload at tiny size, both with and without tracing,
and checks that every metric is printed with its unit.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); from accessprice import cli; "
    "[cli.load_config(p) for p in sys.argv[1:]]"
)
NAMED_UNITS = {
    "error_rate": "ratio",
    "scenario_s": "s",
    "state_steps_per_s": "1/s",
    "analysis_p50_ms": "ms",
    "analysis_p95_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", choices=("scenario", "ensemble", "analysis"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="minimal inputs (smoke test)")
    p.add_argument("--smoke", action="store_true", help="run every workload at tiny size")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    return args


def import_library(root: str):
    """Put ./src first on the path and insist the library comes from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "accessprice", "__init__.py")):
        raise SystemExit(f"error: no src/accessprice under {root}; run from the repository root")
    sys.path.insert(0, src)
    import accessprice

    if os.path.dirname(os.path.dirname(os.path.abspath(accessprice.__file__))) != src:
        raise SystemExit(f"error: accessprice imported from {accessprice.__file__}, not {src}")


def measure_setup(root, configs, probe, reps):
    """Intervals of `reps` fresh interpreters each loading the configs."""
    cmd = [sys.executable, "-c", SETUP_CODE, *configs]

    def once():
        tok = probe.start()
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
        iv = probe.stop(tok)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        return iv

    once()  # writes the bytecode caches a fresh checkout lacks
    return [once() for _ in range(reps)]


def execute(wl, inp, probe):
    """One operation: (interval, completed, problems, stats).

    completed is False when the library raised instead of returning.
    """
    tok = probe.start()
    try:
        out = wl.run(inp, probe.clock)
    except Exception as exc:  # the library failing is a failed operation
        return probe.stop(tok), False, [f"{type(exc).__name__}: {exc}"], {}
    iv = probe.stop(tok)
    try:
        problems, stats = wl.check(inp, out)
    except Exception as exc:  # so is output the check cannot read
        problems, stats = [f"check raised {type(exc).__name__}: {exc}"], {}
    return iv, True, problems, stats


class Tally:
    """Operation outcomes of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0          # completed operations whose output failed a check
        self.ivs = []           # intervals of every operation
        self.ok_ivs = []        # intervals of the operations that passed
        self.stats: dict[str, float] = {}
        self.problems: dict[str, int] = {}

    def add(self, iv, completed, problems, stats):
        self.attempted += 1
        self.ivs.append(iv)
        if problems:
            self.failed += 1
            self.wrong += completed
            key = problems[0][:160]
            self.problems[key] = self.problems.get(key, 0) + 1
        else:
            self.ok_ivs.append(iv)
        for k, v in stats.items():
            self.stats[k] = self.stats.get(k, 0.0) + v


def named_metrics(wl_name, tally, timings: bool):
    """The per-workload metrics named in the benchmark's definition.

    Raw wall times of the operations that passed their checks; timings
    are left out of traced runs, whose operations carry the tracer.
    """
    import numpy as np

    secs = [iv.seconds for iv in tally.ok_ivs]
    n = len(secs)
    out = {"error_rate": (tally.failed / tally.attempted, tally.attempted)}
    if not timings or not n:
        pass
    elif wl_name == "scenario":
        out["scenario_s"] = (float(np.median(secs)), n)
    elif wl_name == "ensemble":
        st = tally.stats
        out["state_steps_per_s"] = (st["state_steps"] / st["batch_seconds"], 4 * n)
    else:
        out["analysis_p50_ms"] = (float(np.percentile(secs, 50)) * 1e3, n)
        out["analysis_p95_ms"] = (float(np.percentile(secs, 95)) * 1e3, n)
    return {k: {"value": v, "unit": NAMED_UNITS[k], "samples": s} for k, (v, s) in out.items()}


def load_configs(root, wl):
    from accessprice import cli

    return [cli.load_config(os.path.join(root, p)) for p in wl.configs]


def pin_to_one_cpu():
    """Keep this process and its children on one CPU (where the OS allows).

    On a shared two-vCPU host the two CPUs slowed down independently: a
    set-up interpreter that ran on the other CPU than the speed probe took
    up to 50% longer with no change in the probe's reading.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args) -> int:
    root = os.getcwd()
    pin_to_one_cpu()
    import_library(root)
    import numpy as np

    from probe import SpeedProbe
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](root, args.tiny)
    rng = np.random.default_rng(args.seed)
    tally = Tally()
    detail = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "tiny": args.tiny}
    try:
        with SpeedProbe() as probe:
            if args.trace:
                metrics = traced_loop(args, wl, rng, probe, tally, detail, root)
            else:
                metrics = plain_loop(args, wl, rng, probe, tally, detail, root)
    finally:
        wl.close()
    detail["named"] = named_metrics(wl.name, tally, timings=not args.trace)
    detail["failures"] = tally.problems
    detail["reference_us_median"] = statistics.median(d for _, d in probe.samples) * 1e6
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def plain_loop(args, wl, rng, probe, tally, detail, root):
    setup = measure_setup(root, wl.configs, probe, 2 if args.tiny else 11)
    wl.prepare(load_configs(root, wl))
    for _ in range(wl.op_count(args.seconds)):
        tally.add(*execute(wl, wl.make_input(rng), probe))
    ivs = tally.ok_ivs or tally.ivs  # all of them only when none passed
    detail["raw"] = {
        "op_p50_ms": statistics.median(iv.seconds for iv in ivs) * 1e3,
        "setup_s": statistics.median(iv.seconds for iv in setup),
        "samples": len(ivs),
    }
    return {
        "op_p50_norm_ms": (statistics.median(probe.normalised(iv) for iv in ivs) * 1e3, "ms"),
        "setup_s": (statistics.median(probe.normalised(iv) for iv in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_loop(args, wl, rng, probe, tally, detail, root):
    from spans import Tracer, layer_metrics

    tracer = Tracer(probe.clock)
    tracer.install()
    cfgs = load_configs(root, wl)  # traced: cli.load_config_ms covers every workload
    tracer.uninstall()
    tracer.fold(counts_as_op=False)
    wl.prepare(cfgs)
    traced, plain = [], []
    layer_stats: dict[str, float] = {}
    pairs = wl.op_count(args.seconds, per_op=2)
    for k in range(pairs):
        inp = wl.make_input(rng)
        # alternate the order so neither side always runs on warm caches
        for with_trace in ((True, False) if k % 2 == 0 else (False, True)):
            if with_trace:
                tracer.install()
                tracer.begin(k + 1)
            else:
                tracer.uninstall()
            iv, completed, problems, stats = execute(wl, inp, probe)
            tally.add(iv, completed, problems, stats)
            if with_trace:
                tracer.fold()
                traced.append(iv)
                for key, v in stats.items():
                    layer_stats[key] = layer_stats.get(key, 0.0) + v
            else:
                plain.append(iv)
    tracer.uninstall()
    metrics = layer_metrics(tracer, layer_stats)
    traced = [probe.normalised(iv) for iv in traced]
    plain = [probe.normalised(iv) for iv in plain]
    ratio = statistics.median(traced) / statistics.median(plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    detail["tracing"] = {
        "traced_op_p50_norm_ms": statistics.median(traced) * 1e3,
        "untraced_op_p50_norm_ms": statistics.median(plain) * 1e3,
        "pairs": pairs,
    }
    return metrics


def smoke() -> int:
    """Tiny run of every workload, traced and untraced; checks every metric name."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    named = {
        "scenario": ("error_rate", "scenario_s"),
        "ensemble": ("error_rate", "state_steps_per_s"),
        "analysis": ("error_rate", "analysis_p50_ms", "analysis_p95_ms"),
    }
    bad = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
                   "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
            tag = f"{name} trace={trace}"
            if proc.returncode != 0:
                bad.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])["detail"]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if trace == 0:
                printed.update({k: v["unit"] for k, v in detail["named"].items()})
                expect = dict(wanted[0], **{k: NAMED_UNITS[k] for k in named[name]})
            else:
                expect = wanted[1]
            if printed != expect:
                bad.append(f"{tag}: metrics differ: missing {sorted(set(expect) - set(printed))}, "
                           f"extra {sorted(set(printed) - set(expect))}, "
                           f"units {[k for k in expect if printed.get(k, expect[k]) != expect[k]]}")
            if not result["correct"]:
                bad.append(f"{tag}: {result['failed']} of {result['attempted']} failed: "
                           f"{detail['failures']}")
            for k, unit in sorted(printed.items()):
                value = result["metrics"].get(k) or detail["named"][k]
                print(f"{tag:20s} {k:48s} {value['value']:.6g} {unit}")
    for line in bad:
        print("SMOKE FAIL", line)
    print(json.dumps({"smoke": "fail" if bad else "ok", "problems": len(bad)}))
    return 1 if bad else 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    return smoke() if args.smoke else run(args)


if __name__ == "__main__":
    sys.exit(main())
