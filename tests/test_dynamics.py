from dataclasses import replace
import functools
import linecache
import math
import traceback
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracle import clock_steps, within_broadcast
from accessprice import dynamics, model, regions
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
    AdmissionSpec,
    PriceSpec,
    eval_admission,
    eval_price,
    eval_service,
    extremum,
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

    def test_overflow_reads_inf(self, ref_cfg):
        # the price 1e306 * 1000 overflows: dR = k_r - (inf + alpha)*R, with
        # warnings as errors, as a float evaluation reads it
        cfg = replace(ref_cfg, price=PriceSpec("surge", beta=1e306))
        d = rhs(cfg, NORMAL, 0.0, np.array([(50.0, 1000.0)]))
        assert d[0, 0] == -math.inf and d[0, 1] == -cfg.service.mu_star


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

    def test_overflow_reads_inf(self, ref_cfg):
        # a rising alpha = 0.1 + 1e306*q overflows at q = 1000, with warnings as errors
        cfg = replace(ref_cfg, admission=AdmissionSpec("linear", (0.1, 1e306)))
        fr, fu = admitted_flows(cfg, competitive_mode(1.0), np.array([(50.0, 1000.0, 5.0)]))
        assert fr.tolist() == fu.tolist() == [math.inf]

    @pytest.mark.parametrize("mode", [NORMAL, CHATTERING, competitive_mode(1.0)])
    def test_types_and_bits(self, ref_cfg, mode):
        # alpha(q)*R (and *U) at the projected state, capped in chattering
        # mode: arrays for a batch, scalars for one state except the 2-state
        # modes' zero U flow, a 0-d array
        x = np.array([(100.0, 70.0, 4.0), (-1.0, 30.0, -2.0), (25.0, -0.0, 7.0), (80.0, 20.0, 0.0)])
        r, q, u = np.maximum(x, 0.0).T
        a = eval_admission(ref_cfg.admission, q)
        want_r, want_u = a * r, (a * u if mode.dim == 3 else np.zeros(len(x)))
        if mode == CHATTERING:
            assert (q >= ref_cfg.q_ad).any() and (q < ref_cfg.q_ad).any()
            want_r = np.where(q >= ref_cfg.q_ad, np.minimum(want_r, ref_cfg.service.mu_star), want_r)
        fr, fu = admitted_flows(ref_cfg, mode, x)
        assert type(fr) is type(fu) is np.ndarray
        assert _bits_equal(fr, want_r) and _bits_equal(fu, want_u)
        for row, one_r, one_u in zip(x, want_r, want_u):
            fr, fu = admitted_flows(ref_cfg, mode, tuple(row))
            assert type(fr) is np.float64 and type(fu) is (np.float64 if mode.dim == 3 else np.ndarray)
            assert _bits_equal(fr, one_r) and _bits_equal(fu, one_u)


class TestIntegrate:
    def test_zero_span(self, ref_cfg):
        traj = integrate(ref_cfg, NORMAL, (30.0, 45.0), 5.0, 5.0, 0.01)
        assert len(traj.times) == 1
        np.testing.assert_allclose(traj.states[0], [30.0, 45.0, 0.0])

    def test_a_series_past_the_float_range_reads_inf(self, competitive_cfg):
        # alpha(15) = 1e308 - 1.5e307, so alpha*R and alpha*U overflow, and a
        # surge price 1e307*q does at q = 30: inf, as the runs let it be
        steep = replace(competitive_cfg, admission=AdmissionSpec("linear", (1e308, -1e306)))
        traj = integrate(steep, competitive_mode(1.0), (50.0, 15.0, 50.0), 0.0, 0.1, 0.01)
        assert (traj.flow_r[0], traj.flow_u[0]) == (math.inf, math.inf) and np.isfinite(traj.states).all()
        surge = replace(competitive_cfg, price=PriceSpec("surge", beta=1e307))
        assert integrate(surge, NORMAL, (50.0, 30.0), 0.0, 0.0).price.tolist() == [math.inf]

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
        # the least alpha + f, exact from the piece tables
        adm, price = section5_cfg.admission, section5_cfg.price
        c_sat = extremum((adm.pieces, price.pieces), 0.0, adm.q_max + 2 * price.q_m)[0]
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


def _scalar_deriv(cfg, tag, k_u):
    """(r, q, u) -> (dr, dq, du) on plain floats, hand-written in
    _make_deriv's operation order on the specs' numpy kernels, each called
    on a 0-d array: the oracle of the field that the compiled run inlines,
    independent of model._piece_lines, which generates that run and the
    float forms."""
    f, alpha, mu = (lambda q, kernel=spec._kernel: float(kernel(np.array(q)))
                    for spec in (cfg.price, cfg.admission, cfg.service))
    k_r = cfg.k_r
    q_ad, mu_star = dynamics._admittance_bound(cfg, tag), cfg.service.mu_star

    def deriv(r, q, u):
        if r <= 0.0:
            r = 0.0
        if q <= 0.0:
            q = 0.0
        a, fq, m = alpha(q), f(q), mu(q)
        if tag == "normal":
            return k_r - (fq + a) * r, a * r - m, 0.0
        if tag == "chattering":
            flow = a * r
            if q >= q_ad and flow >= mu_star:
                flow = mu_star
            return k_r - fq * r - flow, flow - m, 0.0
        if tag == "saturated":
            return k_r - (fq + a) * r, a * r - m + k_u, 0.0
        if u <= 0.0:
            u = 0.0
        return k_r - (fq + a) * r, a * (r + u) - m, k_u - a * u

    return deriv


def _scalar_step(deriv, x, dt, t, q_cap, chat_cap, where):
    """One hand-written RK4 step on plain floats, checked and clamped as
    _batch_step does: the oracle of the compiled step."""
    r, q, u = x
    h2 = 0.5 * dt
    kr1, kq1, ku1 = deriv(r, q, u)
    kr2, kq2, ku2 = deriv(r + h2 * kr1, q + h2 * kq1, u + h2 * ku1)
    kr3, kq3, ku3 = deriv(r + h2 * kr2, q + h2 * kq2, u + h2 * ku2)
    kr4, kq4, ku4 = deriv(r + dt * kr3, q + dt * kq3, u + dt * ku3)
    c = dt / 6.0
    rn = r + c * (kr1 + 2 * kr2 + 2 * kr3 + kr4)
    qn = q + c * (kq1 + 2 * kq2 + 2 * kq3 + kq4)
    un = u + c * (ku1 + 2 * ku2 + 2 * ku3 + ku4)
    if rn != rn or qn != qn or un != un:
        raise FloatingPointError(f"NaN state at t = {t:g} ({where})")
    qn = 0.0 if 0.0 >= qn else qn
    qn = q_cap if q_cap < qn else qn
    if chat_cap is not None and q <= chat_cap + dynamics.CLAMP_EPS and qn > chat_cap:
        qn = chat_cap
    return (0.0 if 0.0 >= rn else rn), qn, (0.0 if 0.0 >= un else un)


def _oracle_step(cfg, tag, k_u, where):
    """x, dt, t -> the oracle's step of the field tag at K_U k_u."""
    deriv = _scalar_deriv(cfg, tag, k_u)
    q_cap, chat_cap = cfg.admission.q_max, dynamics._admittance_bound(cfg, tag)
    return lambda x, dt, t: _scalar_step(deriv, x, dt, t, q_cap, chat_cap, where)


def _compiled_step(cfg, tag):
    """(r, q, u, k_u, dt, t, where) -> (r, q, u): _kernel's run driven one
    step per call (k1 = k0 + 1) into a one-step history, the state it
    returns checked against the one it stored; a NaN state, which the run
    reports by its index, raises the block driver's message naming t: the
    compiled step under test."""
    run = dynamics._kernel(cfg, tag)
    out = memoryview(np.empty((1, 3, 1))).cast("B").cast("d")

    def step(r, q, u, k_u, dt, t, where):
        x, k = run(out, (r, q, u), k_u, dt, 0, 1, 0)
        if k == 0:
            raise FloatingPointError(f"NaN state at t = {t:g} ({where})")
        assert k == 1 and [v.hex() for v in x] == [v.hex() for v in out]
        return x

    return step


def _outcome(step, *args):
    """The state a step returns as float.hex strings, or the message of the
    FloatingPointError it raises."""
    try:
        return [float(v).hex() for v in step(*args)]
    except FloatingPointError as exc:
        return str(exc)


class TestScalarBackend:
    """The compiled scalar step against the hand-written oracle, whose
    field is the numpy field, bit for bit."""

    NAMES = ["triangular-linear", "saturated-cubic", "surge-linear", "surge-cubic",
             "saturated-linear"]

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
    def states(cfg, n=400):
        rng = np.random.default_rng(17)
        q_top = min(cfg.admission.q_max, 200.0)
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

    @staticmethod
    def field(cfg, tag):
        """(tag, k_u) of the field the mode runs: switched_full runs
        competitive on each schedule piece."""
        if tag == "switched_full":
            return "competitive", cfg.schedule_rate(5.0)
        return tag, 0.8

    @pytest.mark.parametrize("tag", MODE_TAGS)
    @pytest.mark.parametrize("name", NAMES)
    def test_deriv_bit_identical(self, tag, name, ref_cfg, section5_cfg):
        cfg = self.configs(ref_cfg, section5_cfg)[name]
        tag, k_u = self.field(cfg, tag)
        x = self.states(cfg)
        with np.errstate(invalid="ignore"):
            want = np.column_stack(
                dynamics._make_deriv(cfg, tag)(x.T.copy(), np.zeros((3, len(x))), k_u)
            )
        oracle = _scalar_deriv(cfg, tag, k_u)
        got = np.array([oracle(*map(float, row)) for row in x])
        assert _bits_equal(got, want)
        # a NaN input must surface as NaN wherever it enters the field:
        # R and q in dR and dq, U (3-state only) in dq and dU
        bad_rq = np.isnan(x[:, :2]).any(axis=1)
        assert bad_rq.any() and np.isnan(got[bad_rq, :2]).all()
        if tag == "competitive":
            bad_u = np.isnan(x[:, 2])
            assert bad_u.any() and np.isnan(got[bad_u, 1:]).all()

    @pytest.mark.parametrize("tag", MODE_TAGS)
    @pytest.mark.parametrize("name", NAMES)
    def test_step_bit_identical(self, tag, name, ref_cfg, section5_cfg):
        cfg = self.configs(ref_cfg, section5_cfg)[name]
        where = f"mode {tag}, h = 0.05"
        tag, k_u = self.field(cfg, tag)
        step = _compiled_step(cfg, tag)
        oracle = _oracle_step(cfg, tag, k_u, where)
        raised = 0
        for x in self.states(cfg, 150).tolist():
            for dt in (0.05, 0.1, 1e-3):
                want = _outcome(oracle, tuple(x), dt, 2.5)
                assert _outcome(step, *x, k_u, dt, 2.5, where) == want, (x, dt)
                raised += isinstance(want, str)
        assert raised >= 5 * 3  # every NaN start raises

    @pytest.mark.parametrize("name", ["normal", "chattering", "saturated", "competitive"])
    def test_steps_along_runs(self, name, ref_cfg, section5_cfg, competitive_cfg):
        # whole runs from the backend-choice cases, clamps and the
        # chattering projection included, state for state
        cfg, mode, start, _ = TestBackendChoice.case(name, ref_cfg, section5_cfg, competitive_cfg)
        where = f"mode {mode.tag}, h = 0.05"
        step = _compiled_step(cfg, mode.field_tag)
        oracle = _oracle_step(cfg, mode.field_tag, mode.k_u, where)
        x = y = start
        for t, dt, _ in clock_steps(dynamics._clock(cfg, mode, 0.0, 100.0, 0.05)):
            x, y = step(*x, mode.k_u, dt, t, where), oracle(y, dt, t)
            assert [v.hex() for v in x] == [v.hex() for v in y], t

    def test_nan_start_names_the_step(self, ref_cfg):
        # the run stops at the NaN state, returning the step's index and
        # storing nothing
        run = dynamics._kernel(ref_cfg, "normal")
        hist = np.full(3, 7.0)
        _, k = run(memoryview(hist).cast("B").cast("d"), (math.nan, 40.0, 0.0), 0.0, 0.01, 0, 1, 0)
        assert k == 0 and (hist == 7.0).all()
        want = _outcome(_oracle_step(ref_cfg, "normal", 0.0, "mode normal, h = 0.01"),
                        (math.nan, 40.0, 0.0), 0.01, 3.25)
        assert want == "NaN state at t = 3.25 (mode normal, h = 0.01)"
        # the driver names it: one step, the last of [3.24, 3.25], ends on 3.25
        clock = dynamics._clock(ref_cfg, NORMAL, 3.24, 3.25, 0.01)
        blocks = dynamics._march(ref_cfg, NORMAL, 0.01, np.array([[math.nan], [40.0], [0.0]]), clock)
        with pytest.raises(FloatingPointError) as info:
            next(blocks)
        assert str(info.value) == want
        # the driver is the message's one home: the generated run raises nothing
        frame = traceback.extract_tb(info.value.__traceback__)[-1]
        assert frame.filename == dynamics.__file__ and frame.name == "_blocks"
        assert "raise" not in "".join(linecache.getlines(run.__code__.co_filename))

    def test_chattering_needs_q_ad(self, competitive_cfg):
        with pytest.raises(ValueError, match="chattering mode needs q_ad"):
            dynamics._kernel(competitive_cfg, "chattering")

    def test_rising_alpha_binds_infinite_q_max_by_name(self, ref_cfg):
        cfg = replace(ref_cfg, admission=AdmissionSpec("linear", (0.1, 0.001)))
        assert cfg.admission.q_max == math.inf
        run = dynamics._kernel(cfg, "normal")
        source = "".join(linecache.getlines(run.__code__.co_filename))
        assert "def run(" in source and "inf" not in source
        assert math.inf in [cell.cell_contents for cell in run.__closure__]
        assert math.inf not in run.__globals__.values()
        step = _compiled_step(cfg, "normal")
        oracle = _oracle_step(cfg, "normal", 0.0, "w")
        for x in [(30.0, 45.0, 0.0), (1e300, 1e300, 0.0), (0.0, 1e308, 0.0)]:
            assert _outcome(step, *x, 0.0, 0.1, 1.0, "w") == _outcome(oracle, x, 0.1, 1.0)


class TestKernelMemo:
    """Compiled kernels are shared per shape of the piece tables, each
    configuration's constants bound to its own pair."""

    @staticmethod
    def agrees(cfg, tag="normal", k_u=0.0):
        """Whether the compiled step of cfg matches its oracle."""
        step, oracle = _compiled_step(cfg, tag), _oracle_step(cfg, tag, k_u, "w")
        return all(_outcome(step, *x, k_u, 0.1, 1.0, "w") == _outcome(oracle, tuple(x), 0.1, 1.0)
                   for x in TestScalarBackend.states(cfg, 50).tolist())

    @staticmethod
    def code(cfg, tag="normal"):
        return dynamics._kernel(cfg, tag).__code__

    def test_equal_inputs_share_one_kernel(self, ref_cfg):
        copy = replace(ref_cfg, k_u_schedule=((0.0, 5.0, 2.0),))  # K_U is an argument
        assert self.code(copy) is self.code(ref_cfg)
        assert self.code(ref_cfg, "chattering") is not self.code(ref_cfg)

    def test_sign_of_zero_is_its_own_key(self, ref_cfg):
        # alpha = max(0, c2 - q/100) vanishes from q = 0 on; its value there
        # is c2 itself, and the field's dq = a*R - mu carries that sign:
        # -0.0 + y == y leaves c2 = -0.0 out of the source
        plus, minus = (replace(ref_cfg, admission=AdmissionSpec("linear", (c2, -0.01)))
                       for c2 in (0.0, -0.0))
        assert self.code(plus) is not self.code(minus)
        dq = [rhs(cfg, NORMAL, 0.0, (25.0, 0.0))[1] for cfg in (plus, minus)]
        assert [math.copysign(1.0, v) for v in dq] == [1.0, -1.0]
        assert self.agrees(plus) and self.agrees(minus)

    def test_one_ulp_is_its_own_key(self, ref_cfg):
        up = replace(ref_cfg, k_r=math.nextafter(ref_cfg.k_r, math.inf))
        runs = [dynamics._kernel(cfg, "normal") for cfg in (ref_cfg, up)]
        assert runs[0].__code__ is runs[1].__code__
        bound = [[cell.cell_contents for cell in run.__closure__] for run in runs]
        assert bound[0] != bound[1]
        # at R = 0, dR is K_R itself
        dr = [rhs(cfg, NORMAL, 0.0, (0.0, 45.0))[0] for cfg in (ref_cfg, up)]
        assert dr == [ref_cfg.k_r, up.k_r]
        assert self.agrees(ref_cfg) and self.agrees(up)

    def test_bounded(self, ref_cfg):
        makers, sources = len(model._makers), len(linecache.cache)
        cfgs = [replace(ref_cfg, k_r=ref_cfg.k_r + i / 64) for i in range(35)]
        codes = {self.code(cfg) for cfg in cfgs}
        assert len(model._makers) - makers <= 1
        assert len(linecache.cache) - sources <= 1
        assert len(codes) == 1 and codes.pop().co_filename in linecache.cache


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
    """final_states and settle_batch check every coordinate on every step, as
    integrate does.  Overflow on the way to the NaN is silent on both
    backends (Tier-1 turns a RuntimeWarning into an error), so the caller
    sees the named error alone."""

    # the second run overflows to NaN within the first step
    X0S = [(30.0, 45.0, 0.0), (1e308, 50.0, 1e308)]
    MESSAGE = r"NaN state at t = 0\.01 \(mode competitive"

    def test_final_states(self, section5_cfg):
        with pytest.raises(FloatingPointError, match=self.MESSAGE):
            final_states(section5_cfg, competitive_mode(0.0), self.X0S, 0.0, 1.0)

    def test_settle_batch(self, section5_cfg):
        with pytest.raises(FloatingPointError, match=self.MESSAGE):
            settle_batch(
                section5_cfg, competitive_mode(0.0), self.X0S, (30.0, 45.0, 0.0), 1e-3, 1.0
            )

    @pytest.mark.parametrize("n", [1, 2])  # the compiled run, then the numpy run
    def test_same_error_on_both_backends(self, section5_cfg, n):
        with pytest.raises(
            FloatingPointError, match=r"^NaN state at t = 0\.01 \(mode switched_full, h = 0\.01\)$"
        ):
            final_states(section5_cfg, SWITCHED_FULL, [(1e308, 50.0, 1e308)] * n, 0.0, 5.0)


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
    def test_grid_matches_substeps(self, ref_cfg, a, b, h):
        steps = list(clock_steps(dynamics._clock(ref_cfg, NORMAL, a, b, h)))
        assert [dt for _, dt, _ in steps] == _substeps_formula(a, b, h)
        assert len(steps) == dynamics._step_count(a, b, h)
        assert [t for t, _, _ in steps[:-1]] == [a + k * h for k in range(1, len(steps))]
        if steps:
            assert steps[-1][0] == b

    @pytest.mark.parametrize("a, b", [(math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
                                      (-math.inf, 0.0), (-1e308, 1e308), (1e308, 1.7e308)])
    def test_non_finite_span_rejected(self, ref_cfg, a, b):
        with pytest.raises(ValueError, match="must be finite"):
            dynamics._clock(ref_cfg, NORMAL, a, b, 0.01)

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


# the runs the one block driver steps: (n, raw tracking)
BACKENDS = {"compiled": (1, False), "batch raw": (1, True), "batch n = 3": (3, False)}


def _drive(cfg, mode, x0, clock, h, backend):
    """(states, times, fault message or None) of the runs from x0 along the
    clock on the backend, (k, 3, n) states, each block copied before the
    next overwrites it."""
    n, raw = BACKENDS[backend]
    x = np.tile(np.array(x0, dtype=float)[:, None], n)
    raw = [np.full(3, np.inf), -np.inf] if raw else None
    blocks = dynamics._march(cfg, mode, h, x, clock, raw=raw)
    states, times, fault = [np.empty((0, 3, n))], [np.empty(0)], None
    try:
        for block, ts in blocks:
            states.append(block.copy())
            times.append(ts.copy())
    except FloatingPointError as exc:
        fault = str(exc)
    return np.concatenate(states), np.concatenate(times), fault


class TestRunBlocks:
    """The one block driver steps each backend's run a stretch per call: the
    same states and end times as the compiled step taken once per step of
    the clock, and the same NaN message, on the compiled run, the batch run
    at n = 1 with raw tracking and the batch run at n = 3."""

    # every case of TestClock::test_grid_matches_substeps, as (cfg name, mode, a, b, h)
    GRID = [("ref", "normal", *case) for mark in TestClock.test_grid_matches_substeps.pytestmark
            if mark.name == "parametrize" for case in mark.args[1]]
    # section5's burst starts at t = 100 and ends at t = 300, neither on these
    # grids; the last step of a span that ends on -0.0 ends on -0.0
    MORE = [("section5", "switched_full", 99.0, 101.0, 0.03),
            ("section5", "switched_full", 0.0, 320.0, 0.07),
            ("ref", "normal", -1.0, -0.0, 0.1)]

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("name, mode, a, b, h", GRID + MORE)
    def test_matches_the_clock(self, monkeypatch, ref_cfg, section5_cfg, name, mode, a, b, h,
                               block):
        cfg, mode = (ref_cfg if name == "ref" else section5_cfg), SystemMode(mode)
        if block is not None:
            monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        step = _compiled_step(cfg, mode.field_tag)
        where = f"mode {mode.tag}, h = {h:g}"
        x, want = (30.0, 45.0, 0.0), []
        clock = dynamics._clock(cfg, mode, a, b, h)
        for t, dt, k_u in clock_steps(clock):
            x = step(*x, k_u, dt, t, where)
            want.append(x)
        for backend, (n, _) in BACKENDS.items():
            states, times, fault = _drive(cfg, mode, (30.0, 45.0, 0.0), clock, h, backend)
            assert fault is None, backend
            assert _bits_equal(times, [t for t, _, _ in clock_steps(clock)]), backend
            assert _bits_equal(states, np.repeat(np.reshape(want, (-1, 3, 1)), n, axis=2)), backend

    @pytest.mark.parametrize("block", [None, 7])
    @pytest.mark.parametrize("b, t_fault", [
        (101.0, 100.03),  # the burst piece's first full step
        (100.01, 100.01),  # the burst piece is one short step, its last
    ])
    def test_nan_names_the_clock_time(self, monkeypatch, section5_cfg, b, t_fault, block):
        if block is not None:
            monkeypatch.setattr(dynamics, "BLOCK_STEPS", block)
        h, x0 = 0.03, (30.0, 45.0, 0.0)
        clock = dynamics._clock(section5_cfg, SWITCHED_FULL, 99.0, b, h)
        assert list(clock_steps(clock))[34][0] == t_fault  # the burst's first step follows 34 before it
        clean = {backend: _drive(section5_cfg, SWITCHED_FULL, x0, clock, h, backend)
                 for backend in BACKENDS}
        s, e, n, _, _ = clock.pieces[1]
        clock.pieces[1] = (s, e, n, h, math.nan)  # a NaN K_U: dU is NaN from its first step
        for backend in BACKENDS:
            states, times, fault = _drive(section5_cfg, SWITCHED_FULL, x0, clock, h, backend)
            assert fault == f"NaN state at t = {t_fault:g} (mode switched_full, h = 0.03)"
            # the steps before the fault are yielded first, as they were taken
            assert len(times) == 34
            want_states, want_times, _ = clean[backend]
            assert _bits_equal(states, want_states[:34]) and _bits_equal(times, want_times[:34])

    def test_nan_on_a_last_step_ending_on_minus_zero(self, section5_cfg):
        # k = 0 names the stretch's start itself, as the clock names a
        # piece's last step by its end
        clock = dynamics._clock(section5_cfg, competitive_mode(1.0), -0.1, -0.0, 0.1)
        s, e, n, h, _ = clock.pieces[0]
        clock.pieces[0] = (s, e, n, h, math.nan)
        for backend in BACKENDS:
            states, _, fault = _drive(section5_cfg, competitive_mode(1.0), (30.0, 45.0, 0.0),
                                      clock, 0.1, backend)
            assert fault == "NaN state at t = -0 (mode competitive, h = 0.1)" and not len(states)

    def test_nan_inside_a_stretch(self, section5_cfg):
        # K_U = 1e308 overflows U to inf on the first step and gives NaN (inf
        # - inf) on the second: each backend's run returns the second's
        # index, having stored the first step's state in row j
        k_u, dt, x0 = 1e308, 0.03, (30.0, 45.0, 0.0)
        oracle = _oracle_step(section5_cfg, "competitive", k_u, "w")
        first = oracle(x0, dt, 0.0)
        assert math.isinf(first[2]) and _outcome(oracle, first, dt, 0.0) == "NaN state at t = 0 (w)"
        hist = np.full((4, 3, 1), 7.0)
        compiled = functools.partial(dynamics._kernel(section5_cfg, "competitive"),
                                     memoryview(hist).cast("B").cast("d"))
        _, k = compiled(x0, k_u, dt, 5, 9, 2)
        assert k == 6 and _bits_equal(hist[2, :, 0], first)
        assert (hist[[0, 1, 3]] == 7.0).all()  # the NaN state is not stored
        hist[:] = 7.0
        batch = dynamics._batch_run(dynamics._make_deriv(section5_cfg, "competitive"), hist,
                                    section5_cfg.admission.q_max, None)
        with np.errstate(over="ignore", invalid="ignore"):
            _, k = batch(np.array(x0)[:, None], k_u, dt, 5, 9, 2)
        assert k == 6 and _bits_equal(hist[2, :, 0], first)
        assert (hist[:2] == 7.0).all()  # row 3 holds the NaN state, which no block shows
        # the driver names that step's clock time: step k of a piece ends at s + k*h
        clock = dynamics._clock(section5_cfg, SWITCHED_FULL, 99.0, 101.0, dt)
        t_fault = list(clock_steps(clock))[35][0]  # the burst's second step
        s, e, n, h, _ = clock.pieces[1]
        clock.pieces[1] = (s, e, n, h, k_u)
        for backend in BACKENDS:
            with np.errstate(over="ignore", invalid="ignore"):
                states, _, fault = _drive(section5_cfg, SWITCHED_FULL, x0, clock, dt, backend)
            assert fault == f"NaN state at t = {t_fault:g} (mode switched_full, h = 0.03)"
            assert len(states) == 35


def _staged_field(stages):
    """A field for _batch_run that ignores its states: its i-th call writes
    stage i % 4 of step i // 4 of the (steps, 4, 3, n) stages into all
    three rows."""
    calls = iter(range(stages.shape[0] * 4))

    def field(xs, outs, r, q, u, k_u):
        i = next(calls)
        outs[...] = stages[i // 4, i % 4]

    return SimpleNamespace(bind=lambda n: field, rows=3)


def _staged_scalar(stages, i):
    """The same stages for run i as a deriv(r, q, u) of the scalar oracle."""
    it = iter(stages[:, :, :, i].reshape(-1, 3).tolist())
    return lambda r, q, u: next(it)


class TestRK4Sum:
    """The batch run sums the four stages in the compiled run's order,
    ((d1 + 2*d2) + 2*d3) + d4, on derivatives with signed zeros and sums
    that cancel, on which a re-associated sum or np.add.reduce gives other
    bits.  The stages come from a field that ignores its states; the
    reference is the scalar oracle, the compiled step's twin
    (TestScalarBackend)."""

    STEPS, DT = 3, 0.05

    @classmethod
    def stages(cls, n):
        """(steps, 4, 3, n) stages: random signs and magnitudes from 1e-3 to
        1e17, whose fourth stage nearly cancels the others; in run 0 zeros
        of both signs and a sum whose rounding ties tell the orders apart
        (1e16 + 2 + 1 - 1e16 is 4 in order, 2 from the right)."""
        rng = np.random.default_rng(n)
        d = rng.choice([-1.0, 1.0], (cls.STEPS, 4, 3, n)) * 10.0 ** rng.uniform(-3, 17, (cls.STEPS, 4, 3, n))
        d[:, 3] = -(d[:, 0] + 2 * d[:, 1] + 2 * d[:, 2]) * (1 + rng.uniform(-1e-15, 1e-15, d[:, 3].shape))
        d[0, :, :, 0] = [(1e16, 0.0, -0.0), (1.0, -0.0, 0.0), (0.5, -0.0, -0.0), (-1e16, -0.0, -0.0)]
        return d

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_matches_the_compiled_sum(self, n):
        stages = self.stages(n)
        x0 = np.random.default_rng(n + 1).uniform(0.0, 1e3, (3, n))
        x0[:, 0] = (30.0, 0.0, 0.0)
        hist = np.empty((self.STEPS, 3, n))
        run = dynamics._batch_run(_staged_field(stages), hist, math.inf, None)
        assert run(x0.copy(), 0.0, self.DT, 0, self.STEPS, 0)[1] == self.STEPS
        for i in range(n):
            x = tuple(x0[:, i].tolist())
            for k in range(self.STEPS):
                x = _scalar_step(_staged_scalar(stages[k : k + 1], i), x, self.DT, 0.0, math.inf, None, "")
                assert _bits_equal(hist[k, :, i], x), (i, k)
        # the stages tell the orders apart: a re-associated sum moves some state
        d1, d2, d3, d4 = stages[0]
        c = self.DT / 6.0
        seq = x0 + c * (((d1 + 2.0 * d2) + 2.0 * d3) + d4)
        alt = x0 + c * (d1 + (2.0 * d2 + (2.0 * d3 + d4)))
        assert not _bits_equal(np.maximum(seq, 0.0), np.maximum(alt, 0.0))

    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_four_negative_zeros_stay_negative(self, n):
        # from -0.0, the sum stays -0.0, which only the raw bounds see: the
        # clamps of both steps write +0.0 into the state
        stages = np.full((1, 4, 3, n), -0.0)
        raw = [np.full(3, np.inf), -np.inf]
        hist = np.empty((1, 3, n))
        run = dynamics._batch_run(_staged_field(stages), hist, math.inf, None, raw)
        run(np.full((3, n), -0.0), 0.0, self.DT, 0, 1, 0)
        want = _scalar_step(_staged_scalar(stages, 0), (-0.0,) * 3, self.DT, 0.0, math.inf, None, "")
        assert _bits_equal(raw[0], (-0.0,) * 3) and _bits_equal(raw[1], -0.0)
        assert _bits_equal(hist[0, :, 0], want) and _bits_equal(want, (0.0,) * 3)


class TestWithin:
    """The settle fold's tolerance test, a coordinate at a time, against
    the broadcast reference: NaN coordinates read False, no target reads
    all False."""

    @pytest.mark.parametrize("k", [1, 1000])
    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("coords", [2, 3])
    def test_matches_the_broadcast(self, k, count, coords):
        rng = np.random.default_rng(k + 10 * count + 100 * coords)
        n = 7
        targets = rng.integers(0, 40, (count, coords, 1)) / 4.0  # exact sums with tol
        states = rng.uniform(0.0, 10.0, (k, 3, n))
        if count:  # states near a target
            near = targets[rng.integers(count, size=len(states[::3]))]
            states[::3, :coords] = near + rng.normal(0.0, 0.3, (len(near), coords, n))
        states[rng.random((k, 3, n)) < 0.05] = np.nan
        states[0, 0, 0] = np.nan
        if count:  # runs 1 and 2 of the last state on a target and exactly tol = 1 from it
            states[-1, :, 1:3] = np.nan  # U is compared only by 3-coordinate targets
            states[-1, :coords, 1:3] = targets[-1]
            states[-1, 0, 2] += 1.0
        for tol in (0.25, 1.0, 20.0):
            got = dynamics._within(states, targets, tol)
            want = within_broadcast(states, targets, tol)
            assert got.shape == (k, n) and got.dtype == bool
            assert np.array_equal(got, want), tol
            assert not got[0, 0] and (count or not got.any())
            assert not count or (got[-1, 1] and got[-1, 2] == (tol > 1.0))
            assert not got[np.isnan(states[:, :coords]).any(axis=1)].any()


def _integrate_peak(cfg, mode, x0, t0, t1, h):
    """(trajectory, tracemalloc peak in bytes) of one integrate call."""
    tracemalloc.start()
    try:
        traj = integrate(cfg, mode, x0, t0, t1, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return traj, peak


class TestIntegrateMemory:
    def test_bounded_by_the_result(self, section5_cfg):
        # 40,000 steps: one Python list of the whole run would hold 120,000
        # floats at about 32 B each, 3.8 MB, beside a 2.6 MB result
        integrate(section5_cfg, SWITCHED_FULL, (30.0, 45.0, 0.0), 0.0, 1.0)  # compile the kernel
        traj, peak = _integrate_peak(section5_cfg, SWITCHED_FULL, (30.0, 45.0, 0.0), 0.0, 400.0,
                                     0.01)
        fields = (traj.times, traj.states, traj.price, traj.flow_r, traj.flow_u, traj.mu)
        result = sum(a.nbytes for a in fields)
        row = traj.times.nbytes
        # besides the result: admitted_flows' temporaries outlive the block
        # loop by two rows, and a few blocks' worth of floats (32 B per float
        # in a list, three per step) for the history
        margin = 10 * dynamics.BLOCK_STEPS * 3 * 32
        assert peak <= result + 2 * row + margin, (peak - result) / row


class TestIntegratePeak:
    def test_within_a_row_of_the_result(self, section5_cfg):
        # admitted_flows writes the flows into its projected R and U rows and
        # the price and mu kernels write into their result rows, so no row
        # outlives its use: the peak stays within half a row of the result
        # (two rows above it when each made its own)
        integrate(section5_cfg, SWITCHED_FULL, (30.0, 45.0, 0.0), 0.0, 1.0)  # compile the kernel
        traj, peak = _integrate_peak(section5_cfg, SWITCHED_FULL, (30.0, 45.0, 0.0), 0.0, 400.0,
                                     0.01)
        fields = (traj.times, traj.states, traj.price, traj.flow_r, traj.flow_u, traj.mu)
        result, row = sum(a.nbytes for a in fields), traj.times.nbytes
        assert peak <= result + row // 2, (peak - result) / row


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
    """The clamps and NaN context that _march binds to a run."""
    chat_cap = dynamics._admittance_bound(cfg, mode.tag)
    return cfg.admission.q_max, chat_cap, f"mode {mode.tag}, h = {h:g}"


def _batch_stepper(cfg, mode, h, n, raw=None):
    """step(x, k_u, dt, t): the batch backend's run for n runs (raw as
    there) driven one step per call into a one-step history, then copied
    back into the (3, n) stack x; a NaN state raises the block driver's
    message naming t."""
    q_cap, chat_cap, where = _step_context(cfg, mode, h)
    hist = np.empty((1, 3, n))
    run = dynamics._batch_run(dynamics._make_deriv(cfg, mode.field_tag), hist, q_cap, chat_cap, raw)

    def step(x, k_u, dt, t):
        if run(x, k_u, dt, 0, 1, 0)[1] == 0:
            raise FloatingPointError(f"NaN state at t = {t:g} ({where})")
        np.copyto(x, hist[0])

    return step


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
    for t, dt, k_u in clock_steps(dynamics._clock(cfg, mode, t0, t0 + t_cap, h)) if n else ():
        step(x, k_u, dt, t)
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
        batch_run = dynamics._batch_run

        def faulty_batch_run(*args):
            """The batch run, stepped one step per call: from its 105th step on
            q jumps by 50, and its 110th reports a NaN state."""
            run = batch_run(*args)
            calls = [0]

            def faulty(x, k_u, dt, k0, k1, j):
                for k in range(k0, k1):
                    calls[0] += 1
                    if calls[0] >= 110:
                        return x, k
                    x = run(x, k_u, dt, k, k + 1, j + k - k0)[0]
                    if calls[0] >= 105:
                        x[1] += 50.0
                return x, k1
            return faulty

        monkeypatch.setattr(dynamics, "_batch_run", faulty_batch_run)
        args = (ref_cfg, NORMAL, [(25.0, 40.0, 0.0), (25.0, 40.0, 0.0)], (25.0, 40.0, 0.0),
                1e-3, 100.0, 0.01)
        want = _settle_by_step(*args)
        assert dynamics._block_steps(2) > 110
        got = settle_batch(*args)
        _assert_same_settle(got, want)
        assert got.settled.all()
        # a fault before every run settled still escapes, on the 110th step
        with pytest.raises(FloatingPointError, match=r"^NaN state at t = 1\.1 \(mode normal, h = 0\.01\)$"):
            settle_batch(ref_cfg, NORMAL, [(25.0, 40.0, 0.0), (250.0, 60.0, 0.0)],
                         (25.0, 40.0, 0.0), 1e-3, 100.0, 0.01)


def _converge_by_step(cfg, mode, x0, tol, t_cap, h, wrap=lambda step: step):
    """converge with its streak kept after every step, as it was before it
    stepped through the block history, on the oracle step (passed through
    wrap): the reference."""
    mode = dynamics.as_mode(mode)
    step = wrap(_oracle_step(cfg, mode.field_tag, mode.k_u, _step_context(cfg, mode, h)[2]))
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
    for t, dt, _ in clock_steps(dynamics._clock(cfg, mode, 0.0, t_cap, h)):
        x = step(x, dt, t)
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
        calls = [0]  # steps of the run in progress

        def inject(step):
            def faulty(*args):
                calls[0] += 1
                if calls[0] >= 110:
                    raise FloatingPointError("injected")
                r, q, u = step(*args)
                return r, q + 50.0 * (calls[0] >= 105), u
            return faulty

        def inject_run(run):
            """run, driven one step per call through inject: the injected
            fault reported as a NaN state, the jump stored as run stores."""
            step = inject(lambda out, x, k_u, dt, i: run(out, x, k_u, dt, 0, 1, i)[0])

            def faulty_run(out, x, k_u, dt, k0, k1, j):
                for k in range(k0, k1):
                    i = j + k - k0
                    try:
                        x = step(out, x, k_u, dt, i)
                    except FloatingPointError:
                        return x, k
                    out[3 * i + 1] = x[1]
                return x, k1
            return faulty_run

        kernel = dynamics._kernel
        monkeypatch.setattr(dynamics, "_kernel",
                            lambda cfg, tag: inject_run(kernel(cfg, tag)))
        args = (ref_cfg, NORMAL, (25.0, 40.0, 0.0), 1e-3, 100.0, 0.01)
        want = _converge_by_step(*args, wrap=inject)
        assert dynamics.BLOCK_STEPS > 110
        calls[0] = 0
        got = converge(*args)
        _assert_same_converge(got, want)
        assert got.converged and got.settling_time == 0.0
        # a fault before the run settled still escapes, on the 110th step
        calls[0] = 0
        with pytest.raises(FloatingPointError, match=r"^NaN state at t = 1\.1 \(mode normal, h = 0\.01\)$"):
            converge(ref_cfg, NORMAL, (250.0, 60.0, 0.0), 1e-3, 100.0, 0.01)


def _excess_by_step(cfg, mode, x0s, t0, t1, h, region):
    """final_states' region excess taken after every step, as it was before
    the drivers observed their runs per block: the reference."""
    A, b = region
    x = dynamics._starts(x0s).T.copy()
    raw = [np.full(3, np.inf), -np.inf]
    step = _batch_stepper(cfg, mode, h, x.shape[1], raw)
    a_r, a_q, a_u, b = *A.T[:, :, None], b[:, None]
    excess = np.full(x.shape[1], -np.inf)
    for t, dt, k_u in clock_steps(dynamics._clock(cfg, mode, t0, t1, h)):
        step(x, k_u, dt, t)
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


class TestSignedZeroClamp:
    """Both backends clamp a -0.0 result to +0.0: with K_U = -0.0 and a
    start U = -0.0 every stage's dU is -0.0, and so is the sum."""

    def test_one_run_matches_two(self, competitive_cfg):
        mode, start = competitive_mode(-0.0), (30.0, 45.0, -0.0)
        one = final_states(competitive_cfg, mode, [start], 0.0, 1.0)
        two = final_states(competitive_cfg, mode, [start] * 2, 0.0, 1.0)
        assert _bits_equal(one.states, two.states[:1]) and _bits_equal(two.states[0], two.states[1])
        assert one.states[0][2] == 0.0 and math.copysign(1.0, one.states[0][2]) == 1.0

    def test_every_step_of_one_run(self, competitive_cfg):
        res = integrate(competitive_cfg, competitive_mode(-0.0), (30.0, 45.0, -0.0), 0.0, 0.5, h=0.01)
        assert math.copysign(1.0, res.states[0, 2]) == -1.0  # the start row as given
        assert (np.copysign(1.0, res.states[1:, 2]) == 1.0).all() and (res.states[1:, 2] == 0.0).all()


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
        bound = []  # the run count of each _batch_run binding
        batch_run = dynamics._batch_run

        def counting(deriv, hist, *args):
            bound.append(hist.shape[2])
            return batch_run(deriv, hist, *args)

        monkeypatch.setattr(dynamics, "_batch_run", counting)
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


class TestSwitchedBatch:
    """Every driver runs switched_full on the one clock, which cuts the run
    at the schedule breakpoints."""

    # section5's low equilibrium at K_U = 0, the state before and long after its burst
    LOW = (47.61904761904762, 30.0, 0.0)

    def test_clock_cuts_at_breakpoints(self, section5_cfg):
        # h = 0.03 does not divide the span to the burst start at t = 100
        clock = dynamics._clock(section5_cfg, SWITCHED_FULL, 99.0, 101.0, 0.03)
        steps = list(clock_steps(clock))
        assert len(steps) == clock.steps == 34 + 34
        assert steps[33] == (100.0, 1.0 - 33 * 0.03, 0.0) and steps[-1][0] == 101.0
        assert {k_u for _, _, k_u in steps[:34]} == {0.0}
        assert {k_u for _, _, k_u in steps[34:]} == {4.0}
        # any other mode keeps the span whole at its own K_U
        whole = list(clock_steps(dynamics._clock(section5_cfg, competitive_mode(0.5), 99.0, 101.0, 0.03)))
        assert len(whole) == 67 and {k_u for _, _, k_u in whole} == {0.5}

    def test_final_states_match_integrate(self, section5_cfg):
        # [0, 320] crosses both burst edges, neither on the h = 0.07 grid from 0
        start = (50.0, 15.0, 0.0)
        want = integrate(section5_cfg, SWITCHED_FULL, start, 0.0, 320.0, 0.07).final_state
        one = final_states(section5_cfg, SWITCHED_FULL, [start], 0.0, 320.0, 0.07)
        raw = final_states(section5_cfg, SWITCHED_FULL, [start], 0.0, 320.0, 0.07,
                           raw_bounds=True)  # one run on the numpy backend
        three = final_states(section5_cfg, SWITCHED_FULL, [start] * 3, 0.0, 320.0, 0.07)
        for res, n in ((one, 1), (raw, 1), (three, 3)):
            assert _bits_equal(res.states, np.tile(want, (n, 1)))

    def test_settle_batch_matches_converge_after_the_burst(self, section5_cfg):
        # from the low equilibrium at the burst start; once the burst ends at
        # t = 300 the run is converge's from integrate's state there
        res = settle_batch(section5_cfg, SWITCHED_FULL, [self.LOW], self.LOW, 1e-2, 3000.0,
                           t0=100.0)
        at_300 = integrate(section5_cfg, SWITCHED_FULL, self.LOW, 100.0, 300.0).final_state
        after = converge(section5_cfg, competitive_mode(0.0), at_300, 1e-2, 3000.0)
        assert after.converged and after.settling_time == 580.2
        assert res.settled.tolist() == [True]
        assert res.settle_times.tolist() == [880.2] == [300.0 + after.settling_time]
        assert _bits_equal(res.states[0], after.final_state)


class TestDistinctStarts:
    """A batch of distinct starts gives each run the bits it gets alone, so
    no scratch row of the batch backend is shared or aliased across runs,
    and a field keeps no state from one call to the next."""

    @staticmethod
    def case(tag, ref_cfg, section5_cfg, competitive_cfg):
        """(cfg, mode, box of starts (lo, hi), target, t0) of one mode."""
        q_ad = ref_cfg.q_ad
        return {
            "normal": (ref_cfg, NORMAL, ((0, 0, 0), (300, 90, 0)), (25.0, 40.0, 0.0), 0.0),
            # starts above q_ad + CLAMP_EPS too, which the projection leaves alone
            "chattering": (ref_cfg, CHATTERING, ((0, 0, 0), (300, 1.5 * q_ad, 0)),
                           (25.0, 40.0, 0.0), 0.0),
            "saturated": (section5_cfg, saturated_mode(0.5), ((0, 0, 0), (150, 90, 0)),
                          (46.73527837421405, 33.975196754843246, 0.0), 0.0),
            "competitive": (competitive_cfg, competitive_mode(1.0), ((0, 0, 0), (150, 90, 60)),
                            (50.0, 40.0, 25.0), 0.0),
            # from t0 = 90 every run crosses the burst edge at t = 100
            "switched_full": (section5_cfg, SWITCHED_FULL, ((0, 0, 0), (150, 90, 20)),
                              (47.61904761904762, 30.0, 0.0), 90.0),
        }[tag]

    @classmethod
    def starts(cls, tag, n, ref_cfg, section5_cfg, competitive_cfg):
        cfg, mode, (lo, hi), target, _ = cls.case(tag, ref_cfg, section5_cfg, competitive_cfg)
        rng = np.random.default_rng(n)
        x0s = rng.uniform(lo, hi, (n, 3))
        x0s[: n // 2] = np.abs(target + rng.normal(0.0, 1.0, (n // 2, 3)) * (hi > np.zeros(3)))
        if tag == "chattering":  # on the bound and one float either side, with the clamp acting
            q_ad = cfg.q_ad
            for i, q in enumerate((math.nextafter(q_ad, 0), q_ad, math.nextafter(q_ad, math.inf))):
                x0s[i] = (250.0, q, 0.0)
        return x0s

    @pytest.mark.parametrize("n", [20, 50])
    @pytest.mark.parametrize("tag", MODE_TAGS)
    def test_batch_matches_each_run_alone(self, ref_cfg, section5_cfg, competitive_cfg, tag, n):
        cfg, mode, _, target, t0 = self.case(tag, ref_cfg, section5_cfg, competitive_cfg)
        x0s = self.starts(tag, n, ref_cfg, section5_cfg, competitive_cfg)
        batch = final_states(cfg, mode, x0s, t0, t0 + 20.0, 0.05, raw_bounds=True)
        settled = settle_batch(cfg, mode, x0s, target, 2.0, 30.0, 0.05, t0=t0)
        assert len(set(map(tuple, x0s.tolist()))) == n
        assert settled.settled.any() and not settled.settled.all()
        for i, x0 in enumerate(x0s):
            alone = final_states(cfg, mode, [x0], t0, t0 + 20.0, 0.05)
            assert _bits_equal(alone.states[0], batch.states[i]), i
            one = settle_batch(cfg, mode, [x0], target, 2.0, 30.0, 0.05, t0=t0)
            assert _bits_equal(one.settle_times[0], settled.settle_times[i]), i
        # the batch's raw bounds are those of its runs, each on the numpy backend alone
        raws = [final_states(cfg, mode, [x0], t0, t0 + 20.0, 0.05, raw_bounds=True)
                for x0 in x0s[:3]]
        head = final_states(cfg, mode, x0s[:3], t0, t0 + 20.0, 0.05, raw_bounds=True)
        assert _bits_equal(np.min([r.raw_min for r in raws], axis=0), head.raw_min)
        assert head.raw_max_q == max(r.raw_max_q for r in raws)

    @pytest.mark.parametrize("tag", ["normal", "chattering", "saturated", "competitive"])
    def test_field_keeps_nothing_between_widths(self, ref_cfg, section5_cfg, tag):
        cfg = section5_cfg if tag == "saturated" else replace(ref_cfg, k_u_schedule=())
        deriv = dynamics._make_deriv(cfg, tag)
        rng = np.random.default_rng(5)
        for width in (3, 5, 3):
            x = rng.uniform((-5.0, -5.0, -5.0), (300.0, 100.0, 50.0), (width, 3)).T.copy()
            x[1, 0] = cfg.q_ad or 60.0
            got, want = np.full((3, width), 7.0), np.full((3, width), 7.0)
            assert deriv(x, got, 0.8) is got
            dynamics._make_deriv(cfg, tag)(x, want, 0.8)  # a fresh field
            assert _bits_equal(got, want)
            if tag != "competitive":
                assert (got[2] == 7.0).all()  # the 2-state fields leave U's row


class TestStepMemory:
    """The batch step allocates its buffers once per march, and only the
    rows its mode needs."""

    def test_chattering_settle_bounded(self, ref_cfg):
        # chattering has the most scratch: the admission cap's mask and the
        # projection's
        n = 5000
        x0s = np.random.default_rng(3).uniform(0.0, 1.0, (n, 3)) * (300.0, ref_cfg.q_ad, 0.0)
        stack = x0s.nbytes  # one (3, n) state stack
        tracemalloc.start()
        try:
            settle_batch(ref_cfg, CHATTERING, x0s, (25.0, 40.0, 0.0), 1e-3, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a block's history with the settle fold's temporaries, under 3.5
        # BLOCK_BYTES, and under 7 stacks for the state, the four derivative
        # buffers, the stage buffer, the field's two rows and the masks, the
        # starts' copy and the result: one full-width row more per buffer
        # set would pass it
        assert peak <= 7 * stack + 3.5 * dynamics.BLOCK_BYTES, peak / stack

    @staticmethod
    def allocations(cfg, mode, hi):
        """(bytes the first of four steps of 5000 starts in [0, hi] left
        allocated, the stack's bytes, the peak of the other three above it)."""
        n, dt = 5000, 0.01
        step = _batch_stepper(cfg, mode, dt, n)
        x = np.ascontiguousarray((np.random.default_rng(4).uniform(0.0, 1.0, (n, 3)) * hi).T)
        tracemalloc.start()
        try:
            step(x, mode.k_u, dt, dt)  # the field makes its two rows and mask here
            made = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for k in range(2, 5):
                step(x, mode.k_u, dt, k * dt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return made, x.nbytes, peak - made

    def test_steps_after_the_first_allocate_nothing(self, ref_cfg):
        made, stack, more = self.allocations(ref_cfg, CHATTERING, (300.0, ref_cfg.q_ad, 0.0))
        assert made <= stack  # two rows and a mask: under a stack
        assert more < 4096  # views and scalars, no row (40 kB at this n)

    def test_cubic_admission_allocates_nothing(self, section5_cfg):
        # the cubic alpha clamps q into the field's scratch row and masks
        # q >= q_max into its mask, as the chattering cap does
        made, stack, more = self.allocations(section5_cfg, competitive_mode(1.0),
                                             (150.0, 1.2 * section5_cfg.admission.q_max, 60.0))
        assert made <= stack
        assert more < 4096
