from dataclasses import replace

import numpy as np
import pytest

from accessprice import dynamics
from accessprice.scenarios import (
    Burst,
    FairnessSeries,
    ScenarioConfig,
    bounceback_probe,
    fairness_gap,
    run_comparison,
    scenario_from_config,
)


@pytest.fixture(scope="module")
def quick_comparison(section5_cfg):
    """One coarse-step run shared by the structural tests."""
    sc = scenario_from_config(section5_cfg, h=0.05)
    return sc, run_comparison(sc)


class TestScenarioConfig:
    def test_from_config_reads_burst(self, section5_cfg):
        sc = scenario_from_config(section5_cfg)
        assert sc.burst == Burst(100.0, 300.0, 4.0)
        assert sc.x0 == (50.0, 15.0, 0.0)

    def test_requires_saturated_price(self, ref_cfg):
        with pytest.raises(ValueError, match="saturated"):
            ScenarioConfig(base=ref_cfg)

    def test_burst_inside_horizon(self, section5_cfg):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioConfig(base=section5_cfg, burst=Burst(100.0, 500.0, 4.0))

    def test_pricing_pair(self, section5_cfg):
        sc = scenario_from_config(section5_cfg)
        surge, sat = sc.pricing_pair
        assert surge.variant == "surge" and surge.beta == sat.beta
        assert sat.variant == "saturated"


class TestRunComparison:
    def test_fairness_ratio_identity(self, quick_comparison):
        # alpha cancels: flow_r/(flow_r+flow_u) == R/(R+U) wherever flow > 0
        _, result = quick_comparison
        for traj, fs in (
            (result.surge, result.fairness_surge),
            (result.saturated, result.fairness_saturated),
        ):
            total = traj.flow_r + traj.flow_u
            mask = total >= 1e-12
            pop_ratio = traj.r[mask] / (traj.r[mask] + traj.u[mask])
            np.testing.assert_allclose(fs.ratio[mask], pop_ratio, atol=1e-12)

    def test_ratio_bounds_and_preburst_unity(self, quick_comparison):
        _, result = quick_comparison
        for traj, fs in (
            (result.surge, result.fairness_surge),
            (result.saturated, result.fairness_saturated),
        ):
            assert np.all((fs.ratio >= 0) & (fs.ratio <= 1))
            solo = (traj.u == 0) & (traj.r > 0)
            assert np.all(fs.ratio[solo] == 1.0)

    def test_preburst_coincidence(self, quick_comparison):
        sc, result = quick_comparison
        pre = result.surge.times <= sc.burst.t_start
        q_m = sc.base.price.q_m
        below = (result.surge.q[pre] <= q_m) & (result.saturated.q[pre] <= q_m)
        diff = np.abs(result.surge.states[pre] - result.saturated.states[pre])
        assert np.max(diff[below]) <= 1e-9

    def test_surge_price_proportional_to_queue(self, quick_comparison):
        _, result = quick_comparison
        np.testing.assert_array_equal(
            result.surge.price, result.surge.q * 1e-3
        )

    def test_queue_control_similarity_reported(self, quick_comparison):
        # both mechanisms regulate q into the same band; report the gap
        _, result = quick_comparison
        gap = float(np.max(np.abs(result.surge.q - result.saturated.q)))
        print(f"max |q_surge - q_saturated| = {gap:.3f}")
        assert gap < 100.0  # sanity bound only; see acceptance for ordinals

    def test_zero_burst_legs_identical(self, section5_cfg):
        cfg = replace(section5_cfg, k_u_schedule=())
        sc = scenario_from_config(cfg, burst=Burst(100.0, 110.0, 0.0), t1=120.0, h=0.05)
        result = run_comparison(sc)
        # q never exceeds q_m, where the two price functions coincide
        assert result.surge.q.max() <= 45.0
        assert np.max(np.abs(result.surge.states - result.saturated.states)) <= 1e-9


class TestFairnessSeries:
    def test_zero_flow_records_one(self, section5_cfg):
        traj_like = type(
            "T", (), {"times": np.array([0.0, 1.0]), "flow_r": np.array([0.0, 1.0]),
                      "flow_u": np.array([0.0, 1.0])}
        )
        fs = FairnessSeries.from_trajectory(traj_like)
        assert fs.ratio[0] == 1.0
        assert fs.ratio[1] == 0.5


class TestFairnessGap:
    def test_identical_series(self):
        t = np.linspace(0, 10, 11)
        fs = FairnessSeries(times=t, ratio=np.linspace(1, 0, 11))
        assert fairness_gap(fs, fs, (0, 10)) == (0.0, 0.0)

    def test_misaligned_grids_rejected(self):
        a = FairnessSeries(times=np.array([0.0, 1.0]), ratio=np.array([1.0, 1.0]))
        b = FairnessSeries(times=np.array([0.0, 2.0]), ratio=np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="grid"):
            fairness_gap(a, b, (0, 1))

    def test_window_outside_horizon_rejected(self):
        t = np.linspace(0, 10, 11)
        fs = FairnessSeries(times=t, ratio=np.ones(11))
        with pytest.raises(ValueError, match="window"):
            fairness_gap(fs, fs, (5, 20))

    @pytest.mark.parametrize("window", [(np.nan, 5), (5, np.nan)], ids=["start", "end"])
    def test_nan_window_end_rejected(self, window):
        t = np.linspace(0, 10, 11)
        fs = FairnessSeries(times=t, ratio=np.ones(11))
        with pytest.raises(ValueError, match="outside the series horizon"):
            fairness_gap(fs, fs, window)

    def test_positive_gap_in_burst_window(self, quick_comparison):
        sc, result = quick_comparison
        gmin, gmean = fairness_gap(
            result.fairness_saturated, result.fairness_surge, (200.0, 300.0)
        )
        assert gmin > 0
        assert gmean >= gmin


class TestBounceback:
    def test_probe_skipped_when_burst_never_ends(self, section5_cfg):
        sc = scenario_from_config(
            section5_cfg, burst=Burst(100.0, 400.0, 4.0), h=0.05
        )
        report = bounceback_probe(sc)
        assert report.skipped

    def test_zero_load_trivially_converges(self, section5_cfg):
        cfg = replace(section5_cfg, k_u_schedule=())
        sc = scenario_from_config(cfg, h=0.05)
        result = run_comparison(sc)
        report = bounceback_probe(sc, result)
        assert report.converged and report.reached_target
        # already at the low-congestion point well before the burst window
        assert report.settling_time <= sc.burst.t_end + 1.0

    def test_runs_the_comparison_when_not_given(self, section5_cfg):
        sc = ScenarioConfig(section5_cfg, burst=Burst(1.0, 2.0, 4.0), t1=40.0, h=0.05)
        report = bounceback_probe(sc)
        assert report == bounceback_probe(sc, run_comparison(sc))
        assert report.converged and report.reached_target

    def test_no_post_burst_fixed_point_skips(self, section5_cfg):
        # with K_R below the scan's guard band on mu, the load term is
        # negative wherever g is defined, so g has no root
        cfg = replace(section5_cfg, k_r=1e-12)
        sc = ScenarioConfig(cfg, burst=Burst(1.0, 2.0, 4.0), t1=3.0)
        report = bounceback_probe(sc)
        assert report.skipped
        assert report.notice == "post-burst configuration has no fixed point"

    def test_default_scenario_bounces_back(self, quick_comparison):
        sc, result = quick_comparison
        report = bounceback_probe(sc, result)
        assert report.converged
        assert report.reached_target
        assert report.target[1] == pytest.approx(30.0, abs=1e-6)
        assert report.settling_time < 10.0 * sc.t1


class TestBouncebackResumesTheLeg:
    """The probe folds the saturated leg's own full steps after t_end before
    it steps on, and gives the bits of a plain converge from the leg's state
    at t_end: settling time, final state and reached flag."""

    H = 0.05
    CASES = {  # burst -> rows of the leg the probe reuses
        "default": (Burst(100.0, 300.0, 4.0), 1999),
        "edges off the grid": (Burst(101.3, 296.2, 3.7), 2075),
        # an empty schedule: the leg is one clock piece, left mid-piece
        "one clock piece": (Burst(20.0, 20.0, 4.0), 7599),
        # already settled at t_end: the probe settles inside the reused steps
        "zero load": (Burst(100.0, 300.0, 0.0), 1999),
        # the leg's only step after t_end is its last, shortened to land on t1
        "ends one step before t1": (Burst(100.0, 400.0 - H, 4.0), 0),
        # two full steps, then a last one of 0.6 h
        "ends 2.6 steps before t1": (Burst(100.0, 400.0 - 2.6 * H, 4.0), 2),
        # an empty schedule whose t_end is nearest the leg's last row
        "one clock piece, nearest t1": (Burst(400.0 - 0.2 * H, 400.0 - 0.2 * H, 4.0), 0),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_reused_rows_are_full_steps_at_the_post_burst_rate(self, section5_cfg, case):
        # the rows after t_end's row lie in the leg's last clock piece, at
        # schedule_rate(t_end), and all but the last end full h steps
        burst, _ = self.CASES[case]
        sc = scenario_from_config(section5_cfg, burst=burst, h=self.H)
        cfg = sc.leg_config(sc.base.price)
        leg = run_comparison(sc).saturated
        i = leg._row(burst.t_end)
        s, e, n, h, k_u = dynamics._clock(cfg, dynamics.SWITCHED_FULL, 0.0, sc.t1, sc.h).pieces[-1]
        j = len(leg.times) - 1 - n  # the row the last piece starts on
        assert j <= i and leg.times[j] == s and leg.times[-1] == e
        assert np.float64(k_u).tobytes() == np.float64(cfg.schedule_rate(burst.t_end)).tobytes()
        # times[j] + k*h, the clock's own, which is times[i] + k*h when the piece starts on i
        full = leg.times[j] + np.arange(i - j + 1, n) * h
        assert leg.times[i + 1 : -1].tobytes() == full.tobytes()
        if burst.t_end > burst.t_start:
            assert i == j

    @pytest.mark.parametrize("case", CASES)
    def test_as_plain_converge(self, section5_cfg, case):
        burst, reused = self.CASES[case]
        sc = scenario_from_config(section5_cfg, burst=burst, h=self.H)
        result = run_comparison(sc)
        leg, t_end = result.saturated, burst.t_end
        assert max(len(leg.times) - 2 - leg._row(t_end), 0) == reused
        report = bounceback_probe(sc, result)
        plain = dynamics.converge(sc.leg_config(sc.base.price), dynamics.competitive_mode(0.0),
                                  leg.state_at(t_end), 1e-2, 10.0 * sc.t1, sc.h)
        assert report.converged is plain.converged is True
        assert np.float64(report.settling_time).tobytes() == np.float64(t_end + plain.settling_time).tobytes()
        assert np.array(report.final_state).tobytes() == plain.final_state.tobytes()
        reached = bool(np.max(np.abs(plain.final_state - np.array(report.target))) < 1e-2)
        assert report.reached_target is reached is True
        if case == "zero load":  # the streak completes on a reused row
            assert report.settling_time + (dynamics.SETTLE_STREAK - 1) * sc.h <= t_end + reused * sc.h

    @pytest.mark.parametrize("t_cap", [0.0, 1.0])
    def test_t_cap_inside_the_reused_rows(self, section5_cfg, t_cap):
        # the probe reuses at most its own full steps, then takes its last,
        # shortened step to t_cap from the last reused row
        sc = scenario_from_config(section5_cfg, h=self.H)
        result = run_comparison(sc)
        report = bounceback_probe(sc, result, t_cap=t_cap)
        plain = dynamics.converge(sc.leg_config(sc.base.price), dynamics.competitive_mode(0.0),
                                  result.saturated.state_at(sc.burst.t_end), 1e-2, t_cap, sc.h)
        assert report.converged is plain.converged is False
        assert np.array(report.final_state).tobytes() == plain.final_state.tobytes()
