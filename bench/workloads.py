"""The benchmark's three workloads.

Each workload draws one operation's inputs from the run's seeded
generator, makes the operation's library calls, and then checks the
outputs at the acceptance-suite tolerances.  A check that fails, or an
exception from the library, makes the operation fail; it never stops the
run.  Library functions are always reached through their module
attribute (`equilibria.find_fixed_points`, never a name bound early), so
the span tracer sees every call.

scenario  one `accessprice scenario` CLI call on configs/section5.json
          with a seeded burst: the scalar RK4 path and CSV output.
ensemble  one round of four seeded batch probes modelled on criteria
          c03, c05 and c09: the lockstep batch stepper at N = 20 to 5000.
analysis  one parameter set near configs/ref.json taken through the
          calibrate -> fixed points -> stability -> regions chain.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from accessprice import cli, dynamics, equilibria, model, regions, stability

OUT_DIR = ".bench_out"  # scenario CSV/JSON outputs, removed when the run ends
SCENARIO_FILES = (
    "_surge.csv", "_saturated.csv", "_fairness_surge.csv", "_fairness_saturated.csv",
)


class Workload:
    """Interface of a workload; run() is the timed part, check() is not."""

    name = ""
    configs: tuple[str, ...] = ()  # loaded through cli.load_config at set-up
    nominal_op_s = 1.0  # wall time of one operation on the tuning machine

    def op_count(self, seconds: float, per_op: int = 1) -> int:
        """Operations in a run of `seconds`, each run `per_op` times.

        The count depends on `seconds` alone, never on the clock, so a
        seed fixes every input of a run and which of them fail.
        """
        return max(1, math.ceil(seconds / (per_op * self.nominal_op_s)))

    def __init__(self, root: str, tiny: bool):
        """root: the checkout; tiny: minimal inputs for the smoke test."""

    def prepare(self, cfgs):
        """Untimed per-run set-up from the loaded configs."""

    def make_input(self, rng):
        raise NotImplementedError

    def run(self, inp, clock):
        raise NotImplementedError

    def check(self, inp, out) -> tuple[list[str], dict[str, float]]:
        """(problems, counts to sum over the run); no problems means it passed."""
        raise NotImplementedError

    def close(self):
        """Remove whatever the run left in the checkout."""


class Scenario(Workload):
    """The paper's headline run: surge vs saturated pricing under a burst.

    The burst edges move by up to 10 time units and its rate lies in
    [3, 4.5]; at every such burst criterion c07's ordinal properties hold
    and the bounceback probe converges.
    """

    name = "scenario"
    configs = ("configs/section5.json",)
    nominal_op_s = 8.5
    horizon = 400.0

    def __init__(self, root: str, tiny: bool):
        super().__init__(root, tiny)
        self.config = os.path.join(root, self.configs[0])
        self.step = 0.1 if tiny else 0.01
        self.prefix = os.path.join(root, OUT_DIR, str(os.getpid()), "s5")

    def prepare(self, cfgs):
        os.makedirs(os.path.dirname(self.prefix), exist_ok=True)

    def make_input(self, rng):
        return (
            100.0 + rng.uniform(-10.0, 10.0),
            300.0 + rng.uniform(-10.0, 10.0),
            rng.uniform(3.0, 4.5),
        )

    def run(self, inp, clock):
        t0, t1, rate = inp
        argv = [
            "scenario", "--config", self.config,
            "--set", f"k_u_schedule={json.dumps([[t0, t1, rate]])}",
            "--out-prefix", self.prefix, "--step", repr(self.step),
            "--window-start", repr(t1 - 100.0), "--window-end", repr(t1),
        ]
        code = cli.run(argv)
        if code != 0:  # the CLI has reported the error on stderr
            raise RuntimeError(f"accessprice scenario exited with {code}")

    def check(self, inp, out):
        problems = []
        rows = 0
        size = 0
        # one row per RK4 step plus the start; the integrator shortens the
        # last step before each burst edge instead of stepping across it
        edges = (0.0, inp[0], inp[1], self.horizon)
        want = 1 + sum(
            math.ceil((b - a) / self.step - 1e-9) for a, b in zip(edges, edges[1:])
        )
        for suffix in SCENARIO_FILES:
            with open(self.prefix + suffix, "rb") as fh:
                data = fh.read()
            os.remove(self.prefix + suffix)  # so the next check cannot read stale output
            size += len(data)
            n = data.count(b"\n") - 1  # minus the header
            rows += n
            if n != want:
                problems.append(f"{suffix}: {n} rows, expected {want}")
        path = self.prefix + "_summary.json"
        size += os.path.getsize(path)
        with open(path, encoding="utf-8") as fh:
            summary = json.load(fh)
        os.remove(path)
        r_edges = summary["r_at_burst_edges"]
        # c07 (a), relaxed as in the acceptance suite: surge lowers R over the burst
        if not r_edges["surge"]["end"] < r_edges["surge"]["start"]:
            problems.append("c07a: surge R did not fall over the burst")
        # c07 (b): the saturated price lets R keep growing
        if not r_edges["saturated"]["end"] > r_edges["saturated"]["start"]:
            problems.append("c07b: saturated R did not grow over the burst")
        # c07 (c): positive fairness gap over the late burst window
        if not summary["fairness_gap"]["min"] > 0:
            problems.append("c07c: fairness gap not positive")
        # c07 (d): bounceback to the post-burst low-congestion point
        bb = summary["bounceback"]
        if not (bb["converged"] and bb["reached_target"]):
            problems.append("c07d: bounceback did not reach its target")
        return problems, {"rows_written": rows, "bytes_written": size}

    def close(self):
        out = os.path.dirname(self.prefix)
        if os.path.isdir(out):
            for name in os.listdir(out):  # left by an operation that failed
                os.remove(os.path.join(out, name))
            os.rmdir(out)
        try:
            os.rmdir(os.path.dirname(out))
        except OSError:
            pass  # another run still uses it


class Ensemble(Workload):
    """Seeded random starts marched in lockstep by the batch stepper.

    One operation is a round of four probes: forward invariance on ref at
    N = 500 and N = 5000 (c03), a chattering settle to x1* at N = 50 (c05)
    and a cuboid trap on competitive at N = 20 with h = 0.05 (c09).  The
    sizes straddle the regime where per-step overhead dominates (N <= 50)
    and the one where per-element cost does (N = 5000).
    """

    name = "ensemble"
    configs = ("configs/ref.json", "configs/competitive.json")
    nominal_op_s = 8.5
    x1 = (25.0, 40.0, 0.0)  # ref's low-congestion fixed point (c01)

    def __init__(self, root: str, tiny: bool):
        super().__init__(root, tiny)
        self.fwd_t1 = 0.5 if tiny else 20.0
        self.trap_t1 = 5.0 if tiny else 200.0
        self.settle_h = 0.1 if tiny else 0.01

    def prepare(self, cfgs):
        self.ref, self.comp = cfgs
        k_u = self.comp.k_u_schedule[0][2]
        self.comp_mode = dynamics.competitive_mode(k_u)
        cuboid = regions.build_cuboid(self.comp, k_u=k_u)
        self.trap = regions.halfspaces(cuboid)
        self.corner = np.array(cuboid.vertices[1])

    def make_input(self, rng):
        q_max = self.ref.admission.q_max

        def box(n, hi, lo=None):
            lo = np.zeros(3) if lo is None else lo
            return rng.uniform(lo, hi, size=(n, 3))

        return {
            "fwd500": box(500, (300.0, q_max, 0.0)),
            "fwd5000": box(5000, (300.0, q_max, 0.0)),
            "settle50": box(50, (300.0, self.ref.q_ad, 0.0)),
            "trap20": box(20, 0.95 * self.corner, 0.05 * self.corner),
        }

    def run(self, inp, clock):
        """Returns [(name, seconds, state-steps, result)] in run order."""
        out = []
        h = dynamics.DEFAULT_STEP
        for key in ("fwd500", "fwd5000"):
            t = clock()
            res = dynamics.final_states(
                self.ref, dynamics.NORMAL, inp[key], 0.0, self.fwd_t1, h, raw_bounds=True
            )
            out.append((key, clock() - t, len(inp[key]) * round(self.fwd_t1 / h), res))
        t = clock()
        res = dynamics.settle_batch(
            self.ref, dynamics.CHATTERING, inp["settle50"], self.x1,
            tol=1e-3, t_cap=1e4, h=self.settle_h,
        )
        out.append(("settle50", clock() - t, 50 * round(res.t_exit / self.settle_h), res))
        t = clock()
        res = dynamics.final_states(
            self.comp, self.comp_mode, inp["trap20"], 0.0, self.trap_t1, 0.05, region=self.trap
        )
        out.append(("trap20", clock() - t, 20 * round(self.trap_t1 / 0.05), res))
        return out

    def check(self, inp, out):
        problems = []
        q_max = self.ref.admission.q_max
        for key, _, _, res in out:
            if not np.all(np.isfinite(res.states)):
                problems.append(f"{key}: non-finite final state")
            if key.startswith("fwd"):
                # c03: unclamped RK4 results stay in the state box
                if not (np.all(res.raw_min > -1e-6) and res.raw_max_q < q_max + 1e-6):
                    problems.append(f"{key}: raw bounds {res.raw_min}, {res.raw_max_q}")
            elif key == "settle50":
                # c05: every run settles and q never passes q_ad + 1e-9
                if not res.settled.all():
                    problems.append(f"settle50: {int((~res.settled).sum())} runs unsettled")
                if not res.max_q <= self.ref.q_ad + 1e-9:
                    problems.append(f"settle50: max q {res.max_q!r} above q_ad")
            elif not np.all(res.region_excess <= 1e-6):
                # c09: interior starts never leave the cuboid
                problems.append(f"trap20: excess {res.region_excess.max():.3g}")
        return problems, {
            "state_steps": sum(o[2] for o in out),
            "batch_seconds": sum(o[1] for o in out),
        }


class Analysis(Workload):
    """One parameter set near ref through the whole analysis chain.

    Each parameter is drawn uniformly within a relative spread of its ref
    value.  At these spreads every set keeps the hypotheses the chain
    needs (two normal-mode fixed points, R2* > R_dagger, a cuboid at
    K_U = 0).  A few percent of sets still fail in calibration, from a
    rounding defect of the library's linear admission; bench/record.json
    describes it.  Which sets fail depends on the seed alone.
    """

    name = "analysis"
    configs = ("configs/ref.json",)
    nominal_op_s = 0.04
    spread = {
        "beta": 0.10, "q_m": 0.04, "mu_star": 0.06, "q_c": 0.05,
        "k_r": 0.05, "q1": 0.05, "q2": 0.025,
    }

    def prepare(self, cfgs):
        (cfg,) = cfgs
        low, high = equilibria.find_fixed_points(cfg, "normal")
        self.base = {
            "beta": cfg.price.beta, "q_m": cfg.price.q_m,
            "mu_star": cfg.service.mu_star, "q_c": cfg.service.q_c,
            "k_r": cfg.k_r, "q1": low.q_star, "q2": high.q_star,
        }

    def make_input(self, rng):
        p = {k: self.base[k] * (1.0 + rng.uniform(-s, s)) for k, s in self.spread.items()}
        price = model.PriceSpec(variant="triangular", beta=p["beta"], q_m=p["q_m"])
        service = model.ServiceSpec(mu_star=p["mu_star"], q_c=p["q_c"])
        targets = equilibria.CalibrationTargets(
            p1=p["beta"] * p["q1"], p2=p["beta"] * (2.0 * p["q_m"] - p["q2"])
        )
        return price, service, p["k_r"], targets

    def run(self, inp, clock):
        price, service, k_r, targets = inp
        adm = equilibria.calibrate_linear_admission(targets, price, service, k_r)
        cfg = model.ModelConfig(
            k_r=k_r, k_u_schedule=(), price=price, admission=adm, service=service
        )
        out = {"admissible": model.validate_admissible(cfg)}
        fps = out["fixed_points"] = equilibria.find_fixed_points(cfg, "normal")
        out["stability"] = [
            stability.classify(
                stability.jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), "normal")
            )
            for fp in fps
        ]
        out["saddle"] = stability.saddle_criterion(cfg, fps[-1])
        polygon = regions.build_polygon(cfg)
        out["polygon"] = regions.check_invariance(cfg, polygon, dynamics.NORMAL, 1000)
        out["grid"] = regions.phase_grid(cfg, dynamics.NORMAL, (0.0, 150.0), (0.0, 100.0), 50)
        cuboid = regions.build_cuboid(cfg, k_u=0.0)
        out["cuboid"] = regions.check_invariance(
            cfg, cuboid, dynamics.competitive_mode(0.0), 500
        )
        return out

    def check(self, inp, out):
        price, _, _, targets = inp
        problems = []
        if not out["admissible"].passed:
            problems.append("calibrated configuration not admissible")
        fps = out["fixed_points"]
        # c01: the calibration targets come back within 1e-8
        want = (targets.p1 / price.beta, 2 * price.q_m - targets.p2 / price.beta)
        got = tuple(fp.q_star for fp in fps)
        if len(got) != 2 or max(abs(a - b) for a, b in zip(got, want)) >= 1e-8:
            problems.append(f"c01: fixed points {got}, targets {want}")
        kinds = [rep.classification for rep in out["stability"]]
        if kinds != ["stable_node", "saddle"]:
            problems.append(f"c01: classifications {kinds}")
        if not out["saddle"][2]:
            problems.append("c01: saddle criterion fails at x2*")
        if not out["polygon"].passed:
            problems.append("c04: polygon boundary check fails")
        grid = out["grid"]
        if grid.magnitude.shape != (50, 50) or not np.all(np.isfinite(grid.magnitude)):
            problems.append("phase grid not finite on 50 x 50")
        if not (out["cuboid"].passed and len(out["cuboid"].faces) == 6):
            problems.append("c09: cuboid boundary check fails")
        return problems, {}


WORKLOADS = {w.name: w for w in (Scenario, Ensemble, Analysis)}

