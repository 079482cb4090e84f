from dataclasses import replace
import math
import tracemalloc

import numpy as np
import pytest

from accessprice import dynamics
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
