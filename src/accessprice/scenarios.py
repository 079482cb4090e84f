"""Surge-vs-saturated pricing comparison under an unresponsive burst.

The scenario: responsive demand K_R = 4 throughout, a burst of
unresponsive demand (default rate 4 over t in [100, 300]) inside a
[0, 400] horizon, started from (R, q, U) = (50, 15, 0).  The same
configuration is integrated twice in the full switched 3-state mode,
once under plain surge pricing beta*q and once under the saturated
price, and the admittance ratio R/(R+U) of the responsive class is the
fairness readout.

After the burst ends the saturated system has a single low-congestion
equilibrium again, and bounceback_probe measures how long the state
needs to return to it, resuming the saturated leg instead of repeating
its steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
import math

import numpy as np

from . import dynamics, equilibria
from .model import ModelConfig, PriceSpec

ZERO_FLOW_TOL = 1e-12


@dataclass(frozen=True)
class Burst:
    t_start: float = 100.0
    t_end: float = 300.0
    k_u: float = 4.0


@dataclass(frozen=True)
class ScenarioConfig:
    """Comparison-scenario parameters around a base configuration.

    The base price must be the saturated variant (the proposed
    mechanism); the surge leg reuses its beta.
    """

    base: ModelConfig
    burst: Burst = Burst()
    t0: float = 0.0
    t1: float = 400.0
    x0: tuple[float, float, float] = (50.0, 15.0, 0.0)
    h: float = 0.01

    def __post_init__(self):
        if self.base.price.variant != "saturated":
            raise ValueError("scenario base configuration needs the saturated price")
        if not (self.t0 <= self.burst.t_start <= self.burst.t_end <= self.t1):
            raise ValueError("burst interval must sit inside the horizon")
        if any(v < 0 for v in self.x0):
            raise ValueError("x0 must be nonnegative")

    @property
    def pricing_pair(self) -> tuple[PriceSpec, PriceSpec]:
        return (PriceSpec(variant="surge", beta=self.base.price.beta), self.base.price)

    def leg_config(self, price: PriceSpec) -> ModelConfig:
        sched = ()
        if self.burst.t_end > self.burst.t_start:
            sched = ((self.burst.t_start, self.burst.t_end, self.burst.k_u),)
        return replace(self.base, price=price, k_u_schedule=sched)


def scenario_from_config(cfg: ModelConfig, **overrides) -> ScenarioConfig:
    """Build a ScenarioConfig from a model configuration.

    The burst is read from the schedule, which must hold at most one
    piece; with an empty schedule the default burst window carries rate 0.
    """
    if len(cfg.k_u_schedule) > 1:
        raise ValueError("scenario expects at most one schedule piece as the burst")
    if cfg.k_u_schedule:
        t0, t1, rate = cfg.k_u_schedule[0]
        overrides.setdefault("burst", Burst(t0, t1, rate))
    else:
        overrides.setdefault("burst", Burst(k_u=0.0))
    return ScenarioConfig(base=cfg, **overrides)


@dataclass(frozen=True)
class FairnessSeries:
    """Responsive share of the admitted flow over time; 1.0 where the
    total admitted flow is below ZERO_FLOW_TOL."""

    times: np.ndarray
    ratio: np.ndarray

    @classmethod
    def from_trajectory(cls, traj: dynamics.Trajectory):
        total = traj.flow_r + traj.flow_u
        ratio = np.where(
            total < ZERO_FLOW_TOL,
            1.0,
            traj.flow_r / np.where(total > 0, total, 1.0),
        )
        return cls(times=traj.times, ratio=ratio)


@dataclass(frozen=True)
class ComparisonResult:
    surge: dynamics.Trajectory
    saturated: dynamics.Trajectory
    fairness_surge: FairnessSeries
    fairness_saturated: FairnessSeries


def run_comparison(sc: ScenarioConfig) -> ComparisonResult:
    """Integrate the two pricing legs over the horizon.

    Both legs share everything except the price function and run in the
    full switched mode, so K_U(t) follows the burst schedule.
    """
    surge_price, sat_price = sc.pricing_pair
    legs = []
    for price in (surge_price, sat_price):
        cfg = sc.leg_config(price)
        legs.append(
            dynamics.integrate(cfg, dynamics.SWITCHED_FULL, sc.x0, sc.t0, sc.t1, sc.h)
        )
    return ComparisonResult(
        surge=legs[0],
        saturated=legs[1],
        fairness_surge=FairnessSeries.from_trajectory(legs[0]),
        fairness_saturated=FairnessSeries.from_trajectory(legs[1]),
    )


def fairness_gap(fs_a: FairnessSeries, fs_b: FairnessSeries, window) -> tuple[float, float]:
    """(min, mean) of ratio_a - ratio_b over the time window.

    The two series must share the time grid exactly; the window must lie
    inside it and contain at least one sample.
    """
    if len(fs_a.times) != len(fs_b.times) or not np.array_equal(fs_a.times, fs_b.times):
        raise ValueError("fairness series are on different time grids")
    w0, w1 = map(float, window)
    t = fs_a.times
    if not t[0] - 1e-9 <= w0 <= w1 <= t[-1] + 1e-9:  # NaN fails it too
        raise ValueError(
            f"window [{w0:g}, {w1:g}] outside the series horizon [{t[0]:g}, {t[-1]:g}]"
        )
    sel = (t >= w0 - 1e-12) & (t <= w1 + 1e-12)
    if not np.any(sel):
        raise ValueError("window contains no samples")
    gap = fs_a.ratio[sel] - fs_b.ratio[sel]
    return float(gap.min()), float(gap.mean())


@dataclass
class BouncebackReport:
    skipped: bool
    notice: str
    converged: bool = False
    settling_time: float = math.nan  # absolute time on the scenario clock
    target: tuple[float, float, float] | None = None
    final_state: tuple[float, float, float] | None = None
    reached_target: bool = False


def bounceback_probe(
    sc: ScenarioConfig,
    result: ComparisonResult | None = None,
    tol: float = 1e-2,
    t_cap: float | None = None,
) -> BouncebackReport:
    """Does the saturated leg return to the low-congestion point?

    Continues the saturated leg from the burst end with the post-burst
    rate (the scheduled rate after t_end, normally zero) until the state
    settles, up to t_cap (default ten horizons).  Non-convergence is
    reported, never raised.  result, when given, must be
    run_comparison(sc).

    It gives the bits of converge from the leg's state at t_end.  The leg
    is cut at the schedule edges, so the row of t_end lies in its last
    clock piece, which runs at the post-burst rate; every step of that piece
    after the row is a full h step, converge's own (the same RK4 run,
    field, K_U and step), except the last, shortened to land on t1.  The
    probe folds those full steps first and steps on from the last of them.
    """
    if sc.burst.t_end >= sc.t1:
        return BouncebackReport(
            skipped=True, notice="burst never ends inside the horizon; probe skipped"
        )
    if result is None:
        result = run_comparison(sc)
    t_end = sc.burst.t_end
    cfg = sc.leg_config(sc.base.price)
    post_rate = cfg.schedule_rate(t_end)
    fps = equilibria.find_fixed_points(cfg, "competitive", post_rate)
    if not fps:
        return BouncebackReport(
            skipped=True, notice="post-burst configuration has no fixed point"
        )
    target = min(fps, key=lambda fp: fp.q_star)
    tgt = (target.r_star, target.q_star, target.u_star)
    leg = result.saturated
    i = leg._row(t_end)  # the row of leg.state_at(t_end)
    if t_cap is None:
        t_cap = 10.0 * (sc.t1 - sc.t0)
    res = dynamics._converge(
        cfg, dynamics.competitive_mode(post_rate), leg.states[i], tol, t_cap, sc.h,
        leg.states[i + 1 : -1],
    )
    final = tuple(float(v) for v in res.final_state)
    reached = bool(np.max(np.abs(res.final_state - np.array(tgt))) < tol)
    notice = "converged" if res.converged else "no convergence before t_cap"
    return BouncebackReport(
        skipped=False,
        notice=notice,
        converged=res.converged,
        settling_time=t_end + res.settling_time if res.converged else math.nan,
        target=tgt,
        final_state=final,
        reached_target=reached,
    )
