"""Span tracing of the library's seven modules, installed from outside.

Every public function of each module is wrapped at its module attribute,
and so are the functions a module imported by name from another
(`eval_price` inside `equilibria`, for instance).  Calls between layers
therefore produce nested spans too: `regions` calling
`equilibria.find_fixed_points`, `scenarios` calling `dynamics.integrate`.

A span is [name, start, end, parent, op id, extras].  Spans stay in memory
for the operation that produced them; fold() then adds them to per-name
totals (calls, inclusive time, self time, observer extras) and drops them,
so memory stays bounded by one operation.  A span's self time is its
duration minus the durations of its child spans; calls are sequential, so
the children never overlap.
"""

from __future__ import annotations

from collections import defaultdict
import functools
import importlib
import inspect
import math

from accessprice import dynamics

MODULES = ("model", "equilibria", "stability", "dynamics", "regions", "scenarios", "cli")


def _steps(t0, t1, h):
    """RK4 steps over [t0, t1]: h repeated, the last one shortened to land on t1."""
    return max(1, math.ceil((t1 - t0) / h - 1e-9)) if t1 > t0 else 0


# Observers turn a call's bound arguments and result into numbers for the
# span.  Each needs only what the call returned, so none re-runs library work.

def _obs_integrate(a, res):
    return {"steps": len(res.times) - 1}


def _obs_converge(a, res):
    # a converged run stops when its streak completes, SETTLE_STREAK - 1
    # steps after the settling time
    if res.converged:
        steps = round(res.settling_time / a["h"]) + dynamics.SETTLE_STREAK - 1
    else:
        steps = _steps(0.0, a["t_cap"], a["h"])
    return {"steps": steps}


def _obs_final_states(a, res):
    n = len(res.states)
    return {"bucket": f"n{n}", "state_steps": n * _steps(a["t0"], a["t1"], a["h"])}


def _obs_settle_batch(a, res):
    h, t0 = a["h"], a["t0"]
    marched = round((res.t_exit - t0) / h)
    useful = 0
    for settled, ts in zip(res.settled, res.settle_times):
        if settled:
            useful += min(marched, round((ts - t0) / h) + dynamics.SETTLE_STREAK - 1)
        else:
            useful += marched
    return {"state_steps": len(res.states) * marched, "useful_steps": useful}


def _obs_find_fixed_points(a, res):
    return {"key": tuple((fp.q_star, fp.r_star, fp.u_star) for fp in res)}


OBSERVERS = {
    "dynamics.integrate": _obs_integrate,
    "dynamics.converge": _obs_converge,
    "dynamics.final_states": _obs_final_states,
    "dynamics.settle_batch": _obs_settle_batch,
    "equilibria.find_fixed_points": _obs_find_fixed_points,
}


class Tracer:
    """Wraps the library's public functions and folds their spans per operation."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list = []
        self.stack: list[int] = []
        self.op = 0
        self.ops = 0            # operations folded so far, setup excluded
        self.span_count = 0     # spans of those operations
        self.totals = defaultdict(lambda: defaultdict(float))
        self.cuboid_calls = 0   # find_fixed_points calls made inside build_cuboid
        self.cuboid_distinct = 0
        self._wrapped = self._build_wrappers()

    def _build_wrappers(self):
        """(module, attribute, original, wrapper) for every traced callable."""
        plan = []
        for short in MODULES:
            mod = importlib.import_module(f"accessprice.{short}")
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home = fn.__module__
                if not home.startswith("accessprice."):
                    continue
                name = f"{home.rsplit('.', 1)[1]}.{fn.__name__}"
                plan.append((mod, attr, fn, self._wrap(name, fn)))
        return plan

    def _wrap(self, name, fn):
        observer = OBSERVERS.get(name)
        signature = inspect.signature(fn) if observer else None
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observer is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5] = observer(bound.arguments, res)
            return res

        return traced

    def install(self):
        for mod, attr, _, wrapper in self._wrapped:
            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original, _ in self._wrapped:
            setattr(mod, attr, original)

    def begin(self, op: int):
        self.op = op

    def fold(self, counts_as_op: bool = True):
        """Add the current spans to the totals and drop them."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (name, t0, t1, parent, _, extras) in enumerate(spans):
            dur = t1 - t0
            keys = [name]
            if extras and "bucket" in extras:
                keys.append(f"{name}.{extras['bucket']}")
            for key in keys:
                tot = self.totals[key]
                tot["calls"] += 1
                tot["total"] += dur
                tot["self"] += dur - child[i]
                for k, v in (extras or {}).items():
                    if isinstance(v, (int, float)):
                        tot[k] += v
        for i, span in enumerate(spans):
            if span[0] != "regions.build_cuboid":
                continue
            keys = [
                s[5]["key"]
                for s in spans
                if s[0] == "equilibria.find_fixed_points"
                and s[5] is not None  # None: the call raised
                and self._inside(spans, s, i)
            ]
            self.cuboid_calls += len(keys)
            self.cuboid_distinct += len(set(keys))
        if counts_as_op:
            self.ops += 1
            self.span_count += len(spans)
        spans.clear()

    @staticmethod
    def _inside(spans, span, ancestor: int) -> bool:
        parent = span[3]
        while parent >= 0:
            if parent == ancestor:
                return True
            parent = spans[parent][3]
        return False

    def get(self, name: str, key: str) -> float:
        return self.totals[name][key] if name in self.totals else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


EVAL_NAMES = ("model.eval_price", "model.eval_admission", "model.eval_service")


def layer_metrics(tr: Tracer, op_stats: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the folded totals: name -> (value, unit).

    Per-call and per-step figures are 0 where the layer made no call on
    this workload.  "Per op" counts divide by the traced operations.
    """
    ops = max(tr.ops, 1)
    g = tr.get
    out = {}

    def per_call(name, key="total", scale=1.0):
        return _ratio(g(name, key), g(name, "calls")) * scale

    out["dynamics.integrate_us_per_step"] = (
        _ratio(g("dynamics.integrate", "self"), g("dynamics.integrate", "steps")) * 1e6, "us")
    out["dynamics.converge_us_per_step"] = (
        _ratio(g("dynamics.converge", "self"), g("dynamics.converge", "steps")) * 1e6, "us")
    out["dynamics.admitted_flows_ms"] = (per_call("dynamics.admitted_flows", scale=1e3), "ms")
    out["scenarios.run_comparison_s"] = (per_call("scenarios.run_comparison"), "s")
    out["scenarios.bounceback_probe_s"] = (per_call("scenarios.bounceback_probe"), "s")
    out["cli.self_s"] = (per_call("cli.run", "self"), "s")
    out["cli.rows_written"] = (_ratio(op_stats.get("rows_written", 0.0), ops), "count")
    out["cli.bytes_written"] = (_ratio(op_stats.get("bytes_written", 0.0), ops), "B")
    out["cli.load_config_ms"] = (per_call("cli.load_config", scale=1e3), "ms")
    for n in (20, 500, 5000):
        name = f"dynamics.final_states.n{n}"
        out[f"dynamics.final_states_ns_per_state_step.n{n}"] = (
            _ratio(g(name, "self"), g(name, "state_steps")) * 1e9, "ns")
    out["dynamics.settle_batch_ns_per_state_step"] = (
        _ratio(g("dynamics.settle_batch", "self"), g("dynamics.settle_batch", "state_steps")) * 1e9,
        "ns")
    out["dynamics.settle_useful_ratio"] = (
        _ratio(g("dynamics.settle_batch", "useful_steps"), g("dynamics.settle_batch", "state_steps")),
        "ratio")
    out["dynamics.rhs_calls"] = (g("dynamics.rhs", "calls") / ops, "count")
    out["dynamics.rhs_us_per_call"] = (per_call("dynamics.rhs", scale=1e6), "us")
    out["model.eval_calls"] = (sum(g(n, "calls") for n in EVAL_NAMES) / ops, "count")
    out["model.eval_self_ms"] = (sum(g(n, "self") for n in EVAL_NAMES) / ops * 1e3, "ms")
    out["model.validate_admissible_ms"] = (per_call("model.validate_admissible", scale=1e3), "ms")
    out["equilibria.find_fixed_points_calls"] = (
        g("equilibria.find_fixed_points", "calls") / ops, "count")
    out["equilibria.find_fixed_points_ms"] = (
        per_call("equilibria.find_fixed_points", scale=1e3), "ms")
    out["equilibria.residual_evals"] = (
        _ratio(g("equilibria.fixed_point_residual", "calls"),
               g("equilibria.find_fixed_points", "calls")), "count")
    out["equilibria.calibrate_ms"] = (
        per_call("equilibria.calibrate_linear_admission", scale=1e3), "ms")
    out["stability.jacobian_calls"] = (g("stability.jacobian", "calls") / ops, "count")
    out["stability.classify_us"] = (per_call("stability.classify", scale=1e6), "us")
    for fn in ("build_polygon", "build_cuboid", "check_invariance", "phase_grid"):
        out[f"regions.{fn}_ms"] = (per_call(f"regions.{fn}", scale=1e3), "ms")
    out["regions.r_dagger_calls"] = (g("regions.r_dagger", "calls") / ops, "count")
    out["regions.cuboid_fixed_point_ratio"] = (
        _ratio(tr.cuboid_distinct, tr.cuboid_calls), "ratio")
    out["trace.spans_per_op"] = (tr.span_count / ops, "count")
    return out
