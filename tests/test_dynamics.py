from dataclasses import replace
import math
import tracemalloc

import numpy as np
import pytest

from accessprice import dynamics, regions
from accessprice.dynamics import (
    CHATTERING,
    MODE_TAGS,
    NORMAL,
    SWITCHED_FULL,
    SystemMode,
    admitted_flows,
    competitive_mode,
    converge,
    final_states,
    integrate,
    rhs,
    saturated_mode,
    settle_batch,
)
from accessprice.equilibria import find_fixed_points
from accessprice.model import (
    PriceSpec,
    eval_admission,
    eval_price,
    eval_service,
    saturation_floor,
)


class TestRhs:
    def test_fixed_point_annihilates(self, ref_cfg):
        d = rhs(ref_cfg, NORMAL, 0.0, (25.0, 40.0, 0.0))
        assert np.max(np.abs(d)) < 1e-12

    def test_empty_population(self, ref_cfg):
        d = rhs(ref_cfg, NORMAL, 0.0, (0.0, 40.0, 0.0))
        assert d[0] == ref_cfg.k_r

    def test_chattering_clamp_on_bound(self, ref_cfg):
        # alpha(60)*100 = 7.43 clamps to mu_star = 3; mu(60) = 3 -> qdot = 0
        d = rhs(ref_cfg, CHATTERING, 0.0, (100.0, 60.0, 0.0))
        assert d[1] == pytest.approx(0.0, abs=1e-14)

    def test_chattering_matches_normal_below_bound(self, ref_cfg):
        x = (30.0, 42.0, 0.0)
        np.testing.assert_allclose(
            rhs(ref_cfg, CHATTERING, 0.0, x), rhs(ref_cfg, NORMAL, 0.0, x)
        )

    def test_competitive_empty_queue_fills(self, competitive_cfg):
        d = rhs(competitive_cfg, competitive_mode(1.0), 0.0, (50.0, 0.0, 30.0))
        a0 = eval_admission(competitive_cfg.admission, 0.0)
        assert d[1] == pytest.approx(a0 * 80.0, rel=1e-12)

    def test_switched_reads_schedule(self, section5_cfg):
        x = (50.0, 50.0, 10.0)
        pre = rhs(section5_cfg, SWITCHED_FULL, 50.0, x)
        mid = rhs(section5_cfg, SWITCHED_FULL, 200.0, x)
        assert mid[2] - pre[2] == pytest.approx(4.0, rel=1e-12)

    def test_batch_shape(self, ref_cfg):
        states = np.random.default_rng(0).uniform(1, 50, size=(7, 3))
        out = rhs(ref_cfg, NORMAL, 0.0, states)
        assert out.shape == (7, 3)
        single = rhs(ref_cfg, NORMAL, 0.0, states[3])
        np.testing.assert_allclose(single, out[3])

    def test_two_coordinate_state(self, ref_cfg):
        d = rhs(ref_cfg, NORMAL, 0.0, (25.0, 40.0))
        assert d.shape == (2,)


class TestAdmittedFlows:
    def test_normal_at_fixed_point(self, ref_cfg):
        fr, fu = admitted_flows(ref_cfg, NORMAL, (25.0, 40.0, 0.0))
        assert fr == pytest.approx(3.0, rel=1e-12)  # equals mu(40)
        assert fu == 0.0

    def test_competitive_symmetry(self, competitive_cfg):
        fr, fu = admitted_flows(competitive_cfg, competitive_mode(1.0), (40.0, 30.0, 40.0))
        assert fr == pytest.approx(fu, rel=1e-14)

    def test_chattering_saturated_clamp(self, ref_cfg):
        fr, fu = admitted_flows(ref_cfg, CHATTERING, (100.0, 60.0, 0.0))
        assert fr == pytest.approx(3.0, rel=1e-14)
        assert fu == 0.0


class TestIntegrate:
    def test_zero_span(self, ref_cfg):
        traj = integrate(ref_cfg, NORMAL, (30.0, 45.0), 5.0, 5.0, 0.01)
        assert len(traj.times) == 1
        np.testing.assert_allclose(traj.states[0], [30.0, 45.0, 0.0])

    def test_large_step_rejected(self, ref_cfg):
        with pytest.raises(ValueError, match="step"):
            integrate(ref_cfg, NORMAL, (30.0, 45.0), 0.0, 1.0, 0.2)

    def test_zero_schedule_keeps_u_zero(self, section5_cfg):
        cfg = replace(section5_cfg, k_u_schedule=())
        traj = integrate(cfg, SWITCHED_FULL, (50.0, 15.0, 0.0), 0.0, 20.0, 0.01)
        assert np.all(traj.u == 0.0)

    def test_convergence_into_low_point(self, ref_cfg):
        traj = integrate(ref_cfg, NORMAL, (30.0, 45.0), 0.0, 1000.0, 0.05)
        np.testing.assert_allclose(traj.final_state[:2], [25.0, 40.0], atol=1e-6)

    def test_derived_series_consistent(self, ref_cfg):
        traj = integrate(ref_cfg, NORMAL, (30.0, 45.0), 0.0, 5.0, 0.01)
        np.testing.assert_allclose(traj.price, eval_price(ref_cfg.price, traj.q))
        np.testing.assert_allclose(traj.mu, eval_service(ref_cfg.service, traj.q))
        np.testing.assert_allclose(
            traj.flow_r, eval_admission(ref_cfg.admission, traj.q) * traj.r
        )

    def test_schedule_breakpoints_on_grid(self, section5_cfg):
        traj = integrate(
            section5_cfg, SWITCHED_FULL, (50.0, 15.0, 0.0), 99.0, 101.0, 0.03
        )
        assert np.any(np.isclose(traj.times, 100.0, atol=1e-12))

    def test_mass_flow_bookkeeping(self, ref_cfg, section5_cfg, competitive_cfg):
        # qdot + mu == admitted flows (+ K_U feed in saturated mode)
        rng = np.random.default_rng(2)
        cases = [
            (ref_cfg, NORMAL, 0.0),
            (ref_cfg, CHATTERING, 0.0),
            (section5_cfg, saturated_mode(0.7), 0.7),
            (competitive_cfg, competitive_mode(1.0), 0.0),
        ]
        for cfg, mode, feed in cases:
            for _ in range(50):
                x = (
                    rng.uniform(0, 200),
                    rng.uniform(0, min(cfg.admission.q_max, 100.0)),
                    rng.uniform(0, 100),
                )
                d = rhs(cfg, mode, 0.0, x)
                fr, fu = admitted_flows(cfg, mode, x)
                assert d[1] + eval_service(cfg.service, x[1]) == pytest.approx(
                    fr + fu + feed, abs=1e-12
                )

    def test_nan_detection(self, ref_cfg):
        with pytest.raises(ValueError):
            integrate(ref_cfg, NORMAL, (np.nan, 40.0), 0.0, 1.0, 0.01)

    def test_nan_state_aborts(self, section5_cfg):
        # R + U overflows to inf in the first stage, then inf - inf = NaN
        with pytest.raises(FloatingPointError, match=r"NaN state at t = 0\.01 "):
            integrate(section5_cfg, SWITCHED_FULL, (1e308, 50.0, 1e308), 0.0, 5.0)


class TestChatteringCeiling:
    def test_queue_capped_at_admittance_bound(self, ref_cfg):
        res = settle_batch(
            ref_cfg,
            CHATTERING,
            np.array([[250.0, 55.0, 0.0], [300.0, 60.0, 0.0], [50.0, 59.9, 0.0]]),
            (25.0, 40.0, 0.0),
            tol=1e-3,
            t_cap=2000.0,
            h=0.01,
        )
        assert res.max_q <= 60.0 + 1e-9
        assert res.settled.all()

    def test_start_above_bound_reenters(self, ref_cfg):
        traj = integrate(ref_cfg, CHATTERING, (5.0, 70.0), 0.0, 400.0, 0.01)
        assert traj.q[-1] < 60.0


class TestStepHalving:
    def test_endpoint_consistency(self, ref_cfg):
        a = integrate(ref_cfg, NORMAL, (26.0, 41.0), 0.0, 100.0, 0.01)
        b = integrate(ref_cfg, NORMAL, (26.0, 41.0), 0.0, 100.0, 0.005)
        # trajectory stays inside (35, 45): no kinks crossed
        assert 35.0 < a.q.min() and a.q.max() < 45.0
        assert np.max(np.abs(a.final_state - b.final_state)) < 1e-6


class TestSaturatedAbsorbing:
    def test_rdot_negative_above_bound(self, section5_cfg):
        c_sat = saturation_floor(section5_cfg)
        bound = section5_cfg.k_r / c_sat
        rng = np.random.default_rng(4)
        mode = saturated_mode(0.5)
        for _ in range(100):
            x = (bound * rng.uniform(1.001, 3.0), rng.uniform(0.0, 100.0), 0.0)
            assert rhs(section5_cfg, mode, 0.0, x)[0] < 0


class TestForwardInvariance:
    def test_no_unclamped_escape(self, ref_cfg):
        rng = np.random.default_rng(9)
        n = 50
        x0 = np.column_stack(
            [rng.uniform(0, 300, n), rng.uniform(0, 92.5, n), np.zeros(n)]
        )
        res = final_states(ref_cfg, NORMAL, x0, 0.0, 100.0, 0.01, raw_bounds=True)
        assert np.all(res.raw_min > -1e-6)
        assert res.raw_max_q < 92.5 + 1e-6


class TestConverge:
    def test_already_at_fixed_point(self, ref_cfg):
        res = converge(ref_cfg, NORMAL, (25.0, 40.0, 0.0), 1e-6, 100.0)
        assert res.converged
        assert res.settling_time == 0.0

    def test_inside_basin(self, ref_cfg):
        res = converge(ref_cfg, NORMAL, (30.0, 45.0), 1e-3, 5000.0, h=0.05)
        assert res.converged
        np.testing.assert_allclose(res.final_state[:2], [25.0, 40.0], atol=1e-3)

    def test_divergent_region_flagged(self, ref_cfg):
        # beyond the saddle both derivatives stay positive: R grows, q -> q_max
        res = converge(ref_cfg, NORMAL, (200.0, 85.0), 1e-3, 200.0, h=0.05)
        assert not res.converged
        assert np.isnan(res.settling_time)
        assert res.final_state[0] > 200.0

    def test_switched_rejected(self, ref_cfg):
        with pytest.raises(ValueError, match="constant"):
            converge(ref_cfg, SWITCHED_FULL, (30.0, 45.0), 1e-3, 10.0)

    def test_nan_state_aborts(self, section5_cfg):
        with pytest.raises(FloatingPointError, match=r"NaN state at t = 0\.01 "):
            converge(section5_cfg, competitive_mode(0.0), (1e308, 50.0, 1e308), 1e-3, 5.0)

    def test_nan_state_aborts_without_fixed_points(self, ref_cfg):
        # ref has no competitive fixed point at K_U = 5: the run goes to t_cap
        assert not converge(ref_cfg, competitive_mode(5.0), (30.0, 45.0), 1e-3, 1.0).converged
        with pytest.raises(FloatingPointError, match=r"NaN state at t = 0\.01 "):
            converge(ref_cfg, competitive_mode(5.0), (1e308, 50.0, 1e308), 1e-3, 5.0)

    def test_step_checked(self, ref_cfg):
        with pytest.raises(ValueError, match="step"):
            converge(ref_cfg, NORMAL, (30.0, 45.0), 1e-3, 10.0, h=0.2)


def _bits_equal(a, b):
    """Equal bit for bit (so 0.0 != -0.0), with NaN matching any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(
        a[~nan].view(np.uint64), b[~nan].view(np.uint64)
    )


class TestScalarBackend:
    """The float right-hand side against the numpy one, bit for bit."""

    @staticmethod
    def configs(ref_cfg, section5_cfg):
        ref = replace(ref_cfg, k_u_schedule=((0.0, 10.0, 1.5),))
        sat = replace(section5_cfg, q_ad=60.0)
        surge = PriceSpec("surge", beta=1e-3)
        return {
            "triangular-linear": ref,
            "saturated-cubic": sat,
            "surge-linear": replace(ref, price=surge),
            "surge-cubic": replace(sat, price=surge),
            "saturated-linear": replace(ref, price=section5_cfg.price),
        }

    @staticmethod
    def states(cfg):
        rng = np.random.default_rng(17)
        q_top = min(cfg.admission.q_max, 200.0)
        n = 400
        rand = np.column_stack([
            rng.uniform(-50.0, 300.0, n),       # negative: RK4 stage points
            rng.uniform(-20.0, q_top + 50.0, n),
            rng.uniform(-50.0, 100.0, n),
        ])
        # price kinks, q_c and q_max, plus q_ad and both zeros
        kinks = [*cfg.kink_points(), cfg.q_ad, 0.0, -0.0]
        on_kinks = [(r, q, u) for q in kinks for r in (0.0, -0.0, 25.0, -3.0)
                    for u in (0.0, -0.0, 7.5)]
        nan = np.nan
        nans = [(nan, q, 5.0) for q in (40.0, 70.0)]  # below and above q_ad
        nans += [(25.0, nan, 5.0), (25.0, 40.0, nan), (nan, nan, nan)]
        return np.vstack([rand, on_kinks, nans])

    @pytest.mark.parametrize("tag", MODE_TAGS)
    @pytest.mark.parametrize(
        "name",
        ["triangular-linear", "saturated-cubic", "surge-linear", "surge-cubic",
         "saturated-linear"],
    )
    def test_deriv_bit_identical(self, tag, name, ref_cfg, section5_cfg):
        cfg = self.configs(ref_cfg, section5_cfg)[name]
        k_u = cfg.schedule_rate(5.0) if tag == "switched_full" else 0.8
        if tag == "switched_full":
            tag = "competitive"  # what integrate runs on each schedule piece
        x = self.states(cfg)
        with np.errstate(invalid="ignore"):
            want = np.column_stack(
                dynamics._make_deriv(cfg, tag, k_u)(x.T.copy(), np.zeros((3, len(x))))
            )
        scalar = dynamics._scalar_deriv(cfg, tag, k_u)
        got = np.array([scalar(*map(float, row)) for row in x])
        assert _bits_equal(got, want)
        # a NaN input must surface as NaN wherever it enters the field:
        # R and q in dR and dq, U (3-state only) in dq and dU
        bad_rq = np.isnan(x[:, :2]).any(axis=1)
        assert bad_rq.any() and np.isnan(got[bad_rq, :2]).all()
        if tag == "competitive":
            bad_u = np.isnan(x[:, 2])
            assert bad_u.any() and np.isnan(got[bad_u, 1:]).all()

    def test_chattering_needs_q_ad(self, competitive_cfg):
        with pytest.raises(ValueError, match="chattering mode needs q_ad"):
            dynamics._scalar_deriv(competitive_cfg, "chattering", 0.0)


class TestSystemMode:
    def test_bad_tag(self):
        with pytest.raises(ValueError):
            SystemMode("warp")

    @pytest.mark.parametrize("k_u", [np.nan, np.inf])
    def test_non_finite_k_u(self, k_u):
        with pytest.raises(ValueError, match="k_u must be finite"):
            SystemMode("competitive", k_u)

    @pytest.mark.parametrize(
        "tag, dim, field_tag, fixed_point_tag",
        [
            ("normal", 2, "normal", "normal"),
            ("chattering", 2, "chattering", "normal"),
            ("saturated", 2, "saturated", "saturated"),
            ("competitive", 3, "competitive", "competitive"),
            ("switched_full", 3, "competitive", "competitive"),
        ],
    )
    def test_reports(self, tag, dim, field_tag, fixed_point_tag):
        mode = SystemMode(tag, 1.0)
        assert (mode.dim, mode.field_tag, mode.fixed_point_tag) == (dim, field_tag, fixed_point_tag)

    def test_as_mode(self):
        mode = competitive_mode(1.5)
        assert dynamics.as_mode("competitive", 1.5) == mode
        assert dynamics.as_mode(mode) is mode and dynamics.as_mode(mode, 1.5) is mode
        with pytest.raises(ValueError, match="disagrees"):
            dynamics.as_mode(mode, 0.0)

    def test_chattering_needs_q_ad(self, competitive_cfg):
        with pytest.raises(ValueError, match="q_ad"):
            rhs(competitive_cfg, CHATTERING, 0.0, (10.0, 10.0, 0.0))


class TestBatchNaN:
    """final_states and settle_batch check every coordinate on every step, as integrate does."""

    # the second run overflows to NaN within the first step
    X0S = [(30.0, 45.0, 0.0), (1e308, 50.0, 1e308)]
    MESSAGE = r"NaN state at t = 0\.01 \(mode competitive"

    def test_final_states(self, section5_cfg):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=self.MESSAGE):
                final_states(section5_cfg, competitive_mode(0.0), self.X0S, 0.0, 1.0)

    def test_settle_batch(self, section5_cfg):
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=self.MESSAGE):
                settle_batch(
                    section5_cfg, competitive_mode(0.0), self.X0S, (30.0, 45.0, 0.0), 1e-3, 1.0
                )


class TestBatchStart:
    """Batch starts are checked up front like integrate's single start."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_final_states(self, ref_cfg, bad):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            final_states(ref_cfg, "normal", [(20.0, 10.0, 0.0), (bad, 10.0, 0.0)], 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_settle_batch(self, ref_cfg, bad):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            settle_batch(ref_cfg, "normal", [(20.0, bad)], (25.0, 40.0), 1.0, 1.0)


class TestBatchStartShape:
    """Batch starts of any other shape get integrate's error."""

    SHAPES = [(5, 4), (5, 1), (2, 2, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_final_states(self, ref_cfg, shape):
        with pytest.raises(ValueError, match="initial state must have 2 or 3 coordinates"):
            final_states(ref_cfg, NORMAL, np.ones(shape), 0.0, 1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_settle_batch(self, ref_cfg, shape):
        with pytest.raises(ValueError, match="initial state must have 2 or 3 coordinates"):
            settle_batch(ref_cfg, NORMAL, np.ones(shape), (25.0, 40.0), 1.0, 1.0)


class TestEmptyBatch:
    """Zero starts give an empty result from both batch drivers."""

    def test_settle_batch_takes_no_step(self, ref_cfg):
        res = settle_batch(ref_cfg, CHATTERING, np.zeros((0, 3)), (25.0, 40.0), 1.0, 10.0, t0=5.0)
        assert res.t_exit == 5.0 and res.max_q == -math.inf
        assert res.states.shape == (0, 3)
        assert res.settled.shape == res.settle_times.shape == (0,)

    def test_final_states_diagnostics(self, ref_cfg):
        region = (np.eye(3), np.ones(3))
        res = final_states(
            ref_cfg, NORMAL, np.zeros((0, 3)), 0.0, 1.0, raw_bounds=True, region=region
        )
        assert res.states.shape == (0, 3) and res.region_excess.shape == (0,)
        assert res.raw_min.tolist() == [math.inf] * 3 and res.raw_max_q == -math.inf


class TestSettleBatchInputs:
    """tol and target are checked up front, with errors that name them."""

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol(self, ref_cfg, tol):
        with pytest.raises(ValueError, match="tol must be > 0"):
            settle_batch(ref_cfg, NORMAL, [(20.0, 10.0)], (25.0, 40.0), tol, 1.0)

    @pytest.mark.parametrize(
        "target, message",
        [
            ((math.nan, 40.0), "target must be finite and nonnegative"),
            ((25.0, -1.0), "target must be finite and nonnegative"),
            ((25.0, 40.0, 0.0, 1.0), "target must have 2 or 3 coordinates"),
        ],
    )
    def test_target(self, ref_cfg, target, message):
        with pytest.raises(ValueError, match=message):
            settle_batch(ref_cfg, NORMAL, [(20.0, 10.0)], target, 1.0, 1.0)


class TestRegionShape:
    """final_states names a malformed region (A, b) before stepping."""

    @pytest.mark.parametrize(
        "A, b",
        [
            (np.ones((3, 2)), np.ones(3)),  # A has 2 columns
            (np.eye(3), np.ones(2)),        # len(b) != len(A)
            (np.eye(3), np.ones((3, 1))),
            (np.ones(3), np.ones(1)),       # A is 1-D
            (np.zeros((0, 3)), np.zeros(0)),
        ],
    )
    def test_shape(self, ref_cfg, A, b):
        with pytest.raises(ValueError, match=r"region needs A of shape \(m, 3\)"):
            final_states(ref_cfg, NORMAL, [(20.0, 10.0)], 0.0, 1.0, region=(A, b))

    @pytest.mark.parametrize("bad", ["A", "b"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite(self, ref_cfg, bad, value):
        A, b = np.eye(3), np.ones(3)
        (A if bad == "A" else b)[1] = value
        with pytest.raises(ValueError, match="region A and b must be finite"):
            final_states(ref_cfg, NORMAL, [(20.0, 10.0)], 0.0, 1.0, region=(A, b))


def _substeps_formula(a, b, h):
    """The step sizes every driver took before the lazy clock: h repeated,
    the final step shortened to end on b."""
    span = b - a
    if span <= 0:
        return []
    n = max(1, math.ceil(span / h - 1e-9))
    return [h] * (n - 1) + [span - (n - 1) * h]


def _on_grid(t, t0, h):
    return t == t0 + round((t - t0) / h) * h


class TestClock:
    @pytest.mark.parametrize(
        "a, b, h",
        [
            (0.0, 1.0, 0.1),       # a multiple of h, up to rounding
            (0.0, 1.0, 0.01),
            (0.0, 0.95, 0.1),      # not a multiple of h
            (3.0, 10.37, 0.05),
            (100.0, 300.0, 0.1),   # a schedule piece
            (0.0, 0.004, 0.01),    # shorter than h
            (2.5, 2.5, 0.01),      # zero span
            (5.0, 1.0, 0.01),      # negative span
            (0.0, 100.0, 0.05),
        ],
    )
    def test_grid_matches_substeps(self, a, b, h):
        steps = list(dynamics._grid(a, b, h))
        assert [dt for _, dt in steps] == _substeps_formula(a, b, h)
        assert len(steps) == dynamics._step_count(a, b, h)
        assert [t for t, _ in steps[:-1]] == [a + k * h for k in range(1, len(steps))]
        if steps:
            assert steps[-1][0] == b

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                      (-math.inf, 0.0), (-1e308, 1e308), (1e308, 1.7e308)])
    def test_non_finite_span_rejected(self, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            dynamics._grid(a, b, 0.01)

    @pytest.mark.parametrize(
        "run",
        [
            lambda cfg: integrate(cfg, NORMAL, (30.0, 45.0), math.nan, 1.0),
            lambda cfg: integrate(cfg, NORMAL, (30.0, 45.0), 0.0, math.inf),
            lambda cfg: integrate(cfg, SWITCHED_FULL, (30.0, 45.0), 0.0, math.nan),
            lambda cfg: final_states(cfg, NORMAL, [(30.0, 45.0)], 0.0, math.inf),
            lambda cfg: final_states(cfg, NORMAL, [(30.0, 45.0)], math.nan, 1.0),
            lambda cfg: settle_batch(cfg, NORMAL, [(30.0, 45.0)], (25.0, 40.0), 1.0, math.inf),
            lambda cfg: settle_batch(cfg, NORMAL, [(30.0, 45.0)], (25.0, 40.0), 1.0, 1.0,
                                     t0=math.nan),
            lambda cfg: converge(cfg, NORMAL, (30.0, 45.0), 1e-3, math.inf),
            lambda cfg: converge(cfg, NORMAL, (30.0, 45.0), 1e-3, math.nan),
        ],
    )
    def test_drivers_reject_non_finite_horizons(self, ref_cfg, run):
        with pytest.raises(ValueError, match="must be finite"):
            run(ref_cfg)

    def test_settle_batch_exits_on_t_cap(self, ref_cfg):
        # (300, 60) starts far from x1* and does not settle by t = 100
        res = settle_batch(
            ref_cfg, CHATTERING, [(300.0, 60.0, 0.0), (25.0, 40.0, 0.0)], (25.0, 40.0, 0.0),
            tol=1.0, t_cap=100.0, h=0.05,
        )
        assert not res.settled.all()
        assert res.t_exit == 100.0

    def test_settle_times_on_grid(self, ref_cfg):
        x0s = np.random.default_rng(6).uniform((0.0, 0.0, 0.0), (300.0, 60.0, 0.0), (20, 3))
        t0, h = 3.0, 0.05
        res = settle_batch(ref_cfg, CHATTERING, x0s, (25.0, 40.0, 0.0), tol=1.0,
                           t_cap=100.0, h=h, t0=t0)
        times = res.settle_times[np.isfinite(res.settle_times)]
        assert len(times) > 1
        assert all(_on_grid(float(t), t0, h) for t in times)
        assert _on_grid(res.t_exit, t0, h)

    @pytest.mark.parametrize("h", [0.1, 0.05, 0.01])
    def test_converge_settling_time_on_grid(self, ref_cfg, h):
        res = converge(ref_cfg, NORMAL, (30.0, 45.0), 1e-3, 5000.0, h=h)
        assert res.converged and res.settling_time > 0
        assert _on_grid(res.settling_time, 0.0, h)

    def test_settle_batch_memory_independent_of_t_cap(self, ref_cfg):
        # started on x1*, the run settles after SETTLE_STREAK steps, so the
        # 1e7-step horizon must cost nothing
        tracemalloc.start()
        try:
            res = settle_batch(ref_cfg, NORMAL, [(25.0, 40.0, 0.0)], (25.0, 40.0, 0.0),
                               tol=1e-3, t_cap=1e5, h=0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.settled.all()
        assert res.t_exit < 2.0
        assert peak < 1_000_000


class TestBackwardHorizon:
    """A horizon that ends before it starts is named, as integrate names it."""

    def test_final_states(self, ref_cfg):
        with pytest.raises(ValueError, match="t1 must be >= t0"):
            final_states(ref_cfg, NORMAL, [(30.0, 45.0)], 10.0, 0.0)

    def test_settle_batch(self, ref_cfg):
        with pytest.raises(ValueError, match="t_cap must be >= 0"):
            settle_batch(ref_cfg, NORMAL, [(30.0, 45.0)], (25.0, 40.0), 1.0, -1.0)

    def test_converge(self, ref_cfg):
        with pytest.raises(ValueError, match="t_cap must be >= 0"):
            converge(ref_cfg, NORMAL, (30.0, 45.0), 1e-3, -1.0)


def _step_context(cfg, mode, h):
    """The clamps and NaN context that _march binds to a run's step."""
    chat_cap = dynamics._admittance_bound(cfg, mode.tag)
    return cfg.admission.q_max, chat_cap, f"mode {mode.tag}, h = {h:g}"


def _batch_stepper(cfg, mode, h, n):
    """The batch backend's step for n runs at the mode's constant K_U."""
    deriv = dynamics._make_deriv(cfg, mode.field_tag, mode.k_u)
    return dynamics._batch_step(deriv, n, *_step_context(cfg, mode, h))


def _settle_by_step(cfg, mode, x0s, target, tol, t_cap, h, t0=0.0):
    """settle_batch with its bookkeeping done after every step, as it was
    before the drivers observed their runs per block: the reference."""
    mode = dynamics.as_mode(mode)
    x = dynamics._starts(x0s).T.copy()
    n = x.shape[1]
    step = _batch_stepper(cfg, mode, h, n)
    compared = 3 if mode.tag == "competitive" else 2
    tgt = np.array(dynamics._start(target, "target")[:compared])[:, None]
    streak = np.zeros(n, dtype=int)
    streak_t0 = np.full(n, np.nan)
    settle_t = np.full(n, np.nan)
    max_q = float(x[1].max(initial=-np.inf))
    t = t0
    for t, dt in dynamics._grid(t0, t0 + t_cap, h) if n else ():
        step(x, dt, t)
        max_q = max(max_q, float(x[1].max()))
        within = np.abs(x[:compared] - tgt).max(axis=0) < tol
        np.copyto(streak_t0, t, where=streak == 0)
        streak += 1
        streak *= within
        done = streak == dynamics.SETTLE_STREAK
        if done.any():
            np.copyto(settle_t, streak_t0, where=done & np.isnan(settle_t))
            if not np.isnan(settle_t).any():
                break
    return dynamics.SettleResult(~np.isnan(settle_t), x.T.copy(), t, settle_t, max_q)


def _assert_same_settle(got, want):
    for name in ("settled", "states", "t_exit", "settle_times", "max_q"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.array_equal(a, b, equal_nan=name == "settle_times"), name
        assert _bits_equal(a, b), name


class TestSettleBlocks:
    """settle_batch's block-wise observation against the per-step reference,
    at the default block length and at short ones that put block edges
    inside streaks."""

    @staticmethod
    def case(name, ref_cfg, section5_cfg, competitive_cfg):
        """(cfg, mode, target, upper corner of the starts) of one seeded batch."""
        x1 = (25.0, 40.0, 0.0)
        return {
            "normal": (ref_cfg, NORMAL, x1, (40.0, 60.0, 0.0)),
            # starts up to q_ad, where the clamp acts
            "chattering": (ref_cfg, CHATTERING, x1, (60.0, 60.0, 0.0)),
            "saturated": (section5_cfg, saturated_mode(0.5),
                          (46.73527837421405, 33.975196754843246, 0.0), (70.0, 50.0, 0.0)),
            "competitive": (competitive_cfg, competitive_mode(1.0), (50.0, 40.0, 25.0),
                            (75.0, 60.0, 37.5)),
        }[name]

    @pytest.mark.parametrize("t_cap", [60.0, 300.0])
    @pytest.mark.parametrize("name", ["normal", "chattering", "saturated", "competitive"])
    def test_seeded_batch(self, monkeypatch, ref_cfg, section5_cfg, competitive_cfg, name, t_cap):
        cfg, mode, target, hi = self.case(name, ref_cfg, section5_cfg, competitive_cfg)
        x0s = np.random.default_rng(31).uniform(0.5 * np.array(target), hi, (10, 3))
        x0s[0] = target  # settles first, on its 100th step
        args = (cfg, mode, x0s, target, 1.0, t_cap, 0.1)
        want = _settle_by_step(*args, t0=2.5)
        # the short cap stops mid-block with some runs unsettled, the long one
        # exits early once all have settled
        assert 1 < want.settled.sum() and want.settled.all() == (t_cap == 300.0)
        for block in (dynamics.BLOCK_STEPS, 7):
            with monkeypatch.context() as patch:
                patch.setattr(dynamics, "BLOCK_STEPS", block)
                _assert_same_settle(settle_batch(*args, t0=2.5), want)

    @pytest.mark.parametrize(
        "block, t_cap",
        [
            (64, 100.0),   # the streak crosses the edge after step 64
            (50, 100.0),   # it completes on the last step of the second block
            (128, 100.0),  # inside the first block
            (16, 2.1),     # t_cap ends the third block after 10 of its steps
        ],
    )
    @pytest.mark.parametrize("t0", [0.0, 7.3])
    def test_single_run_on_target(self, monkeypatch, ref_cfg, block, t_cap, t0):
        args = (ref_cfg, CHATTERING, [(25.0, 40.0, 0.0)], (25.0, 40.0, 0.0), 1e-3, t_cap, 0.05)
        want = _settle_by_step(*args, t0=t0)
        monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        got = settle_batch(*args, t0=t0)
        _assert_same_settle(got, want)
        if t_cap > 5.0:
            assert got.settle_times.tolist() == [t0 + 0.05]
            assert got.t_exit == t0 + 100 * 0.05

    def test_fault_after_the_last_run_settled_is_not_raised(self, monkeypatch, ref_cfg):
        # the per-step loop returns on step 100; a jump in q from step 105 on
        # and a fault on step 110 of the same block must not reach the
        # block-wise one's result either
        batch_step = dynamics._batch_step

        def faulty_batch_step(*args):
            step = batch_step(*args)
            calls = [0]

            def faulty(x, dt, t, raw=None, out=None):
                calls[0] += 1
                if calls[0] >= 110:
                    raise FloatingPointError("injected")
                step(x, dt, t, raw, out)
                if calls[0] >= 105:
                    (x if out is None else out)[1] += 50.0
            return faulty

        monkeypatch.setattr(dynamics, "_batch_step", faulty_batch_step)
        args = (ref_cfg, NORMAL, [(25.0, 40.0, 0.0), (25.0, 40.0, 0.0)], (25.0, 40.0, 0.0),
                1e-3, 100.0, 0.01)
        want = _settle_by_step(*args)
        assert dynamics._block_steps(2) > 110
        got = settle_batch(*args)
        _assert_same_settle(got, want)
        assert got.settled.all()
        # a fault before every run settled still escapes
        with pytest.raises(FloatingPointError, match="injected"):
            settle_batch(ref_cfg, NORMAL, [(25.0, 40.0, 0.0), (250.0, 60.0, 0.0)],
                         (25.0, 40.0, 0.0), 1e-3, 100.0, 0.01)


def _converge_by_step(cfg, mode, x0, tol, t_cap, h):
    """converge with its streak kept after every step, as it was before it
    stepped through the block history: the reference."""
    mode = dynamics.as_mode(mode)
    deriv = dynamics._scalar_deriv(cfg, mode.field_tag, mode.k_u)
    context = _step_context(cfg, mode, h)
    fps = find_fixed_points(cfg, mode)
    targets = [(float(fp.r_star), float(fp.q_star), float(fp.u_star)) for fp in fps]
    compare_u = mode.tag == "competitive"
    x = dynamics._start(x0)

    def nearest(state):
        """(max-coordinate distance, index) of the closest fixed point."""
        r, q, u = state
        best, j = math.inf, 0
        for i, (tr, tq, tu) in enumerate(targets):
            d = max(abs(r - tr), abs(q - tq))
            if compare_u:
                d = max(d, abs(u - tu))
            if d < best:
                best, j = d, i
        return best, j

    streak = 0
    streak_start = math.nan
    d0, j = nearest(x)
    if d0 < tol:
        streak, streak_start = 1, 0.0
        if x == targets[j]:
            return dynamics.ConvergeResult(np.array(x), True, 0.0)
    for t, dt in dynamics._grid(0.0, t_cap, h):
        x = dynamics._scalar_step(deriv, x, dt, t, *context)
        d, _ = nearest(x)
        if d < tol:
            if streak == 0:
                streak_start = t
            streak += 1
            if streak >= dynamics.SETTLE_STREAK:
                return dynamics.ConvergeResult(np.array(x), True, streak_start)
        else:
            streak = 0
    return dynamics.ConvergeResult(np.array(x), False, math.nan)


def _assert_same_converge(got, want):
    assert got.converged == want.converged
    assert _bits_equal(got.settling_time, want.settling_time)
    assert _bits_equal(got.final_state, want.final_state)


class TestConvergeBlocks:
    """converge's block-wise settle fold against the per-step reference, at
    the default block length and at a short one that puts block edges
    inside streaks."""

    @staticmethod
    def case(name, ref_cfg, section5_cfg, competitive_cfg):
        """(cfg, mode, start, tol, t_cap, h) of one run."""
        return {
            "normal": (ref_cfg, NORMAL, (30.0, 45.0), 1e-3, 2000.0, 0.1),
            "chattering": (ref_cfg, CHATTERING, (60.0, 60.0), 1e-2, 2000.0, 0.1),
            "saturated": (section5_cfg, saturated_mode(0.5), (70.0, 50.0), 1e-3, 2000.0, 0.1),
            "competitive": (competitive_cfg, competitive_mode(1.0), (75.0, 60.0, 37.5), 1e-2,
                            2000.0, 0.1),
            # the start counts as the streak's first state
            "start within tol": (ref_cfg, NORMAL, (25.0005, 39.9995), 1e-3, 100.0, 0.05),
            # x1* is exactly stationary under RK4
            "start on a fixed point": (ref_cfg, NORMAL, (25.0, 40.0), 1e-6, 100.0, 0.01),
            # ref has no competitive fixed point at K_U = 5: the run goes to t_cap
            "no fixed points": (ref_cfg, competitive_mode(5.0), (30.0, 45.0, 1.0), 1e-3, 30.0,
                                0.1),
            # 44 steps: t_cap ends the first default block after 44 of its
            # steps, the seventh short one after 2
            "t_cap mid-block": (ref_cfg, NORMAL, (30.0, 45.0), 1e-3, 2.2, 0.05),
        }[name]

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("name", [
        "normal", "chattering", "saturated", "competitive", "start within tol",
        "start on a fixed point", "no fixed points", "t_cap mid-block",
    ])
    def test_matches_per_step(self, monkeypatch, ref_cfg, section5_cfg, competitive_cfg,
                              name, block):
        args = self.case(name, ref_cfg, section5_cfg, competitive_cfg)
        want = _converge_by_step(*args)
        converges = name not in ("no fixed points", "t_cap mid-block")
        assert want.converged == converges
        if name.startswith("start"):
            assert want.settling_time == 0.0
        if block is not None:
            monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        _assert_same_converge(converge(*args), want)

    def test_fault_after_settling_is_not_raised(self, monkeypatch, ref_cfg):
        # started on x1*, the per-step loop returns on step 99; a jump in q
        # from step 105 on and a fault on step 110 of the same block must not
        # reach the block-wise one's result either
        scalar_step = dynamics._scalar_step
        calls = [0]  # steps of the run in progress

        def faulty(*args):
            calls[0] += 1
            if calls[0] >= 110:
                raise FloatingPointError("injected")
            r, q, u = scalar_step(*args)
            return r, q + 50.0 * (calls[0] >= 105), u

        monkeypatch.setattr(dynamics, "_scalar_step", faulty)
        args = (ref_cfg, NORMAL, (25.0, 40.0, 0.0), 1e-3, 100.0, 0.01)
        want = _converge_by_step(*args)
        assert dynamics.BLOCK_STEPS > 110
        calls[0] = 0
        got = converge(*args)
        _assert_same_converge(got, want)
        assert got.converged and got.settling_time == 0.0
        # a fault before the run settled still escapes
        calls[0] = 0
        with pytest.raises(FloatingPointError, match="injected"):
            converge(ref_cfg, NORMAL, (250.0, 60.0, 0.0), 1e-3, 100.0, 0.01)


def _excess_by_step(cfg, mode, x0s, t0, t1, h, region):
    """final_states' region excess taken after every step, as it was before
    the drivers observed their runs per block: the reference."""
    A, b = region
    x = dynamics._starts(x0s).T.copy()
    step = _batch_stepper(cfg, mode, h, x.shape[1])
    raw = [np.full(3, np.inf), -np.inf]
    a_r, a_q, a_u, b = *A.T[:, :, None], b[:, None]
    excess = np.full(x.shape[1], -np.inf)
    for t, dt in dynamics._grid(t0, t1, h):
        step(x, dt, t, raw)
        r, q, u = x
        vals = a_r * r + a_q * q + a_u * u - b
        np.maximum(excess, vals.max(axis=0), out=excess)
    return x.T.copy(), excess, raw


class TestRegionBlocks:
    """final_states' block-wise region excess against the per-step reference."""

    @staticmethod
    def case(name, ref_cfg, competitive_cfg):
        """(cfg, mode, region, starts): the c09 cuboid or the trap-probe polygon,
        with starts inside and outside it."""
        rng = np.random.default_rng(12)
        if name == "cuboid":
            k_u = competitive_cfg.k_u_schedule[0][2]
            cub = regions.build_cuboid(competitive_cfg, k_u=k_u)
            corner = np.array(cub.vertices[1])
            return (competitive_cfg, competitive_mode(k_u), regions.halfspaces(cub),
                    rng.uniform(0.05 * corner, 1.3 * corner, (20, 3)))
        poly = regions.build_polygon(ref_cfg, 70.0, 58.0)
        return (ref_cfg, NORMAL, regions.halfspaces(poly),
                rng.uniform((0.0, 0.0, 0.0), (80.0, 90.0, 0.0), (20, 3)))

    @pytest.mark.parametrize("block", [None, 1, 7])
    @pytest.mark.parametrize("name", ["cuboid", "polygon"])
    def test_matches_per_step(self, monkeypatch, ref_cfg, competitive_cfg, name, block):
        cfg, mode, region, x0s = self.case(name, ref_cfg, competitive_cfg)
        states, excess, raw = _excess_by_step(cfg, mode, x0s, 1.0, 60.0, 0.05, region)
        if block is not None:
            monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        res = final_states(cfg, mode, x0s, 1.0, 60.0, 0.05, raw_bounds=True, region=region)
        for got, want in ((res.states, states), (res.region_excess, excess),
                          (res.raw_min, raw[0]), (res.raw_max_q, raw[1])):
            assert np.array_equal(got, want) and _bits_equal(got, want)
        assert (excess > 0).any() and (excess < 0).any()

    def test_memory_capped(self, competitive_cfg):
        # a history of all 100 steps would take 12 MB at n = 5000
        cfg, mode, region, _ = self.case("cuboid", None, competitive_cfg)
        n = 5000
        x0s = np.random.default_rng(3).uniform(0.0, 20.0, (n, 3))
        stack = x0s.nbytes  # one (3, n) state stack
        tracemalloc.start()
        try:
            final_states(cfg, mode, x0s, 0.0, 5.0, 0.05, region=region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dynamics._block_steps(n) * stack <= dynamics.BLOCK_BYTES
        # besides the history: the state, four derivative buffers, the stage
        # buffer and the temporaries of one field and one block's region terms
        assert peak <= dynamics.BLOCK_BYTES + 10 * stack, peak


class TestBackendChoice:
    """The backend follows the run count: one run without raw tracking steps
    plain floats, any other batch the numpy stack.  The choice is safe
    because both give the same bits."""

    # the box 20 <= R <= 60, 30 <= q <= 50, 0 <= U <= 30 as a region (A, b)
    BOX = (np.vstack([np.eye(3), -np.eye(3)]), np.array([60.0, 50.0, 30.0, -20.0, -30.0, 0.0]))

    @staticmethod
    def case(name, ref_cfg, section5_cfg, competitive_cfg):
        """(cfg, mode, start, target) of one run."""
        return {
            "normal": (ref_cfg, NORMAL, (30.0, 45.0, 0.0), (25.0, 40.0, 0.0)),
            # starts above the bound's admitted flow, so the clamp acts
            "chattering": (ref_cfg, CHATTERING, (250.0, 55.0, 0.0), (25.0, 40.0, 0.0)),
            "saturated": (section5_cfg, saturated_mode(0.5), (70.0, 50.0, 0.0),
                          (46.73527837421405, 33.975196754843246, 0.0)),
            "competitive": (competitive_cfg, competitive_mode(1.0), (75.0, 60.0, 37.5),
                            (50.0, 40.0, 25.0)),
        }[name]

    @pytest.mark.parametrize("name", ["normal", "chattering", "saturated", "competitive"])
    def test_one_run_matches_a_batch_of_copies(self, ref_cfg, section5_cfg, competitive_cfg,
                                               name):
        cfg, mode, start, target = self.case(name, ref_cfg, section5_cfg, competitive_cfg)
        one, three = [start], [start] * 3
        for region in (None, self.BOX):
            alone = final_states(cfg, mode, one, 0.0, 50.0, 0.05, region=region)
            batch = final_states(cfg, mode, three, 0.0, 50.0, 0.05, region=region)
            assert _bits_equal(np.repeat(alone.states, 3, axis=0), batch.states)
            if region is not None:
                assert _bits_equal(np.repeat(alone.region_excess, 3), batch.region_excess)
        alone = settle_batch(cfg, mode, one, target, 1e-2, 300.0, 0.1)
        batch = settle_batch(cfg, mode, three, target, 1e-2, 300.0, 0.1)
        for field in ("settled", "states", "settle_times"):
            assert _bits_equal(np.repeat(getattr(alone, field), 3, axis=0), getattr(batch, field))
        assert _bits_equal(alone.t_exit, batch.t_exit) and _bits_equal(alone.max_q, batch.max_q)

    def test_batch_step_bound_for_batches_only(self, monkeypatch, ref_cfg):
        bound = []  # the run count of each _batch_step binding
        batch_step = dynamics._batch_step

        def counting(deriv, n, *args):
            bound.append(n)
            return batch_step(deriv, n, *args)

        monkeypatch.setattr(dynamics, "_batch_step", counting)
        one, three = [(30.0, 45.0, 0.0)], [(30.0, 45.0, 0.0)] * 3
        final_states(ref_cfg, NORMAL, one, 0.0, 1.0, 0.1)
        final_states(ref_cfg, NORMAL, one, 0.0, 1.0, 0.1, region=self.BOX)
        settle_batch(ref_cfg, NORMAL, one, (25.0, 40.0, 0.0), 1e-3, 1.0, 0.1)
        converge(ref_cfg, NORMAL, one[0], 1e-3, 1.0, 0.1)
        integrate(ref_cfg, NORMAL, one[0], 0.0, 1.0, 0.1)
        assert bound == []
        final_states(ref_cfg, NORMAL, one, 0.0, 1.0, 0.1, raw_bounds=True)
        assert bound == [1]
        final_states(ref_cfg, NORMAL, three, 0.0, 1.0, 0.1)
        settle_batch(ref_cfg, NORMAL, three, (25.0, 40.0, 0.0), 1e-3, 1.0, 0.1)
        assert bound == [1, 3, 3]
