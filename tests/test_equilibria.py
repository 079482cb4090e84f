import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from accessprice import dynamics, equilibria, stability
from accessprice.equilibria import (
    CalibrationError,
    CalibrationTargets,
    ResidualUndefinedError,
    calibrate_cubic_admission,
    calibrate_linear_admission,
    find_fixed_points,
    fixed_point_residual,
)
from accessprice.model import (
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    eval_admission,
    eval_price,
    eval_service,
)

TRI = PriceSpec(variant="triangular", beta=1e-3, q_m=45.0)
SVC = ServiceSpec(mu_star=3.0, q_c=35.0)
REF_TARGETS = CalibrationTargets(p1=0.04, p2=0.008)


class TestLinearCalibration:
    def test_reference_configuration(self):
        adm = calibrate_linear_admission(REF_TARGETS, TRI, SVC, k_r=4.0)
        c2, c1 = adm.coefficients
        # q1* = 40, q2* = 82; alpha targets 0.12 and 0.024; 2x2 solve by hand
        assert c1 == pytest.approx(-0.002285714285714286, rel=1e-12)
        assert c2 == pytest.approx(0.21142857142857144, rel=1e-12)
        assert eval_admission(adm, 40.0) == pytest.approx(0.12, abs=1e-12)
        assert eval_admission(adm, 82.0) == pytest.approx(0.024, abs=1e-12)
        assert adm.q_max == pytest.approx(92.5, abs=1e-9)

    def test_monotonicity_violation(self):
        # alpha(20) = 0.015 < alpha(60) = 0.09 by hand evaluation
        with pytest.raises(CalibrationError, match="monotonicity"):
            calibrate_linear_admission(
                CalibrationTargets(p1=0.02, p2=0.03), TRI, SVC, k_r=4.0
            )

    def test_price_bound_is_open(self):
        with pytest.raises(CalibrationError, match="p1"):
            calibrate_linear_admission(
                CalibrationTargets(p1=0.045, p2=0.008), TRI, SVC, k_r=4.0
            )

    def test_saturated_floor_excludes_low_p2(self):
        sat = PriceSpec(variant="saturated", beta=1e-3, q_m=45.0, q_n=75.0)
        with pytest.raises(CalibrationError, match="floor"):
            calibrate_linear_admission(
                CalibrationTargets(p1=0.04, p2=0.008), sat, SVC, k_r=4.0
            )

    def test_kr_must_exceed_mu(self):
        with pytest.raises(CalibrationError, match="K_R"):
            calibrate_linear_admission(REF_TARGETS, TRI, SVC, k_r=2.0)

    def test_rounded_zero_crossing_still_admissible(self):
        # -c2/c1 rounds down for these targets, so alpha(-c2/c1) ~ 3e-17 > 0;
        # q_max must be the first float where alpha is zero
        adm = calibrate_linear_admission(
            CalibrationTargets(p1=0.04098720233382282, p2=0.006278973851295483),
            PriceSpec("triangular", beta=0.0010073944159143587, q_m=44.82373999021701),
            ServiceSpec(mu_star=3.1646259722112733, q_c=36.58952967903325),
            k_r=4.118618444187372,
        )
        c2, c1 = adm.coefficients
        assert c1 * (-c2 / c1) + c2 > 0
        assert eval_admission(adm, adm.q_max) == 0.0
        assert c1 * math.nextafter(adm.q_max, 0.0) + c2 > 0

    def test_one_fixed_point_scan(self, monkeypatch):
        # the admissibility check and the target check share one scan
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return find_fixed_points(*args, **kwargs)

        monkeypatch.setattr(equilibria, "find_fixed_points", counted)
        calibrate_linear_admission(REF_TARGETS, TRI, SVC, k_r=4.0)
        assert len(calls) == 1


class TestCubicCalibration:
    def test_reference_targets_scan(self):
        adm = calibrate_cubic_admission(REF_TARGETS, TRI, SVC, k_r=4.0, q_max=100.0)
        assert eval_admission(adm, 40.0) == pytest.approx(0.12, abs=1e-10)
        assert eval_admission(adm, 82.0) == pytest.approx(0.024, abs=1e-10)
        assert eval_admission(adm, 100.0) == 0.0
        qs = np.linspace(0.0, 100.0, 2001)
        vals = eval_admission(adm, qs)
        assert np.all(np.diff(vals) <= 0)
        a1t = 0.12
        assert a1t <= adm.coefficients[0] <= 4 * a1t

    def test_alpha0_below_first_target_rejected(self):
        with pytest.raises(CalibrationError, match="alpha0"):
            calibrate_cubic_admission(
                CalibrationTargets(p1=0.04, p2=0.008, alpha0=0.05),
                TRI,
                SVC,
                k_r=4.0,
                q_max=100.0,
            )

    def test_qmax_must_exceed_twice_peak(self):
        with pytest.raises(CalibrationError, match="q_max"):
            calibrate_cubic_admission(REF_TARGETS, TRI, SVC, k_r=4.0, q_max=90.0)

    def test_round_trip(self):
        adm = calibrate_cubic_admission(REF_TARGETS, TRI, SVC, k_r=4.0, q_max=100.0)
        from accessprice.model import ModelConfig

        cfg = ModelConfig(
            k_r=4.0, k_u_schedule=(), price=TRI, admission=adm, service=SVC
        )
        fps = find_fixed_points(cfg, "normal")
        assert [fp.q_star for fp in fps] == pytest.approx([40.0, 82.0], abs=1e-9)


class TestResidual:
    def test_zero_at_calibrated_roots(self, ref_cfg):
        assert abs(fixed_point_residual(40.0, ref_cfg, "normal")) < 1e-12
        assert abs(fixed_point_residual(82.0, ref_cfg, "normal")) < 1e-12

    def test_undefined_when_ku_exceeds_mu(self, section5_cfg):
        for q in (10.0, 50.0, 90.0):
            with pytest.raises(ResidualUndefinedError):
                fixed_point_residual(q, section5_cfg, "saturated", k_u=4.0)

    def test_undefined_beyond_qmax(self, ref_cfg):
        with pytest.raises(ResidualUndefinedError):
            fixed_point_residual(92.6, ref_cfg, "normal")


class TestFindFixedPoints:
    def test_reference_normal(self, ref_cfg):
        fps = find_fixed_points(ref_cfg, "normal")
        assert len(fps) == 2
        lo, hi = fps
        assert (lo.r_star, lo.q_star) == pytest.approx((25.0, 40.0), abs=1e-9)
        assert (hi.r_star, hi.q_star) == pytest.approx((125.0, 82.0), abs=1e-8)
        assert lo.classification == "stable_node"
        assert hi.classification == "saddle"
        assert lo.u_star == hi.u_star == 0.0
        assert lo.price_at == pytest.approx(0.04, abs=1e-12)

    def test_saturated_above_mu_star_empty(self, section5_cfg):
        assert find_fixed_points(section5_cfg, "saturated", k_u=4.0) == []

    def test_competitive_contract(self, ref_cfg, competitive_cfg):
        # ref.json's admission was calibrated for the normal mode; the
        # count at K_U = 1 depends on that calibration and may be zero.
        # competitive.json was calibrated for this mode and has two.
        for cfg, expect_some in ((ref_cfg, False), (competitive_cfg, True)):
            fps = find_fixed_points(cfg, "competitive", k_u=1.0)
            if expect_some:
                assert len(fps) == 2
            for fp in fps:
                g = fixed_point_residual(fp.q_star, cfg, "competitive", k_u=1.0)
                assert abs(g) < 1e-10
                assert eval_service(cfg.service, fp.q_star) > 1.0
                a = eval_admission(cfg.admission, fp.q_star)
                assert fp.u_star == pytest.approx(1.0 / a, rel=1e-12)

    def test_rhs_vanishes_at_every_fixed_point(self, ref_cfg, section5_cfg, competitive_cfg):
        cases = [
            (ref_cfg, "normal", 0.0),
            (section5_cfg, "saturated", 0.5),
            (competitive_cfg, "competitive", 1.0),
        ]
        for cfg, mode, k_u in cases:
            for fp in find_fixed_points(cfg, mode, k_u):
                m = dynamics.SystemMode(mode, k_u)
                deriv = dynamics.rhs(
                    cfg, m, 0.0, (fp.r_star, fp.q_star, fp.u_star)
                )
                assert np.max(np.abs(deriv)) < 1e-9

    def test_saturated_root_count_never_two(self, section5_cfg):
        for k_u in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5):
            fps = find_fixed_points(section5_cfg, "saturated", k_u)
            non_degenerate = [fp for fp in fps if fp.classification != "degenerate"]
            assert len(non_degenerate) in (1, 3), f"k_u={k_u}: {len(fps)} roots"

    def test_section5_triple_regime(self, section5_cfg):
        fps = find_fixed_points(section5_cfg, "saturated", k_u=0.5)
        assert len(fps) == 3
        kinds = [fp.classification for fp in fps]
        assert kinds[1] == "saddle"
        assert kinds[0].startswith("stable") and kinds[2].startswith("stable")

    def test_section5_single_at_zero_load(self, section5_cfg):
        fps = find_fixed_points(section5_cfg, "saturated", k_u=0.0)
        assert len(fps) == 1
        assert fps[0].q_star == pytest.approx(30.0, abs=1e-9)
        assert fps[0].r_star == pytest.approx(4.0 / 0.084, rel=1e-6)  # K_R/(f+alpha)

    def test_mode_object_carries_ku(self, competitive_cfg):
        via_mode = find_fixed_points(competitive_cfg, dynamics.competitive_mode(1.0))
        via_arg = find_fixed_points(competitive_cfg, "competitive", 1.0)
        assert [fp.q_star for fp in via_mode] == [fp.q_star for fp in via_arg]

    def test_mode_object_with_disagreeing_k_u_raises(self, competitive_cfg):
        mode = dynamics.competitive_mode(1.0)
        agreeing = find_fixed_points(competitive_cfg, mode, 1.0)
        assert agreeing == find_fixed_points(competitive_cfg, mode)
        with pytest.raises(ValueError, match="disagrees"):
            find_fixed_points(competitive_cfg, mode, 2.0)
        with pytest.raises(ValueError, match="disagrees"):
            fixed_point_residual(40.0, competitive_cfg, mode, 0.0)


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(
        p1=st.floats(min_value=0.036, max_value=0.0449),
        p2=st.floats(min_value=0.001, max_value=0.012),
    )
    def test_random_targets_recovered(self, p1, p2):
        # q1* in (36, 44.9) and q2* in (78, 89), both on the flat part of
        # mu, so monotonicity alpha(q1*) = 3*p1 > 3*p2 = alpha(q2*) holds
        # by construction; targets that still fail admissibility (extra
        # roots) must raise the named error, never return a bad spec
        try:
            adm = calibrate_linear_admission(
                CalibrationTargets(p1=p1, p2=p2), TRI, SVC, k_r=4.0
            )
        except CalibrationError:
            assume(False)
        from accessprice.model import ModelConfig

        cfg = ModelConfig(
            k_r=4.0, k_u_schedule=(), price=TRI, admission=adm, service=SVC
        )
        fps = find_fixed_points(cfg, "normal")
        assert len(fps) == 2
        assert fps[0].q_star == pytest.approx(1000 * p1, abs=1e-9)
        assert fps[1].q_star == pytest.approx(90.0 - 1000 * p2, abs=1e-9)

    def test_calibrate_then_find(self):
        for p1, p2 in [(0.04, 0.008), (0.038, 0.01), (0.041, 0.005)]:
            adm = calibrate_linear_admission(
                CalibrationTargets(p1=p1, p2=p2), TRI, SVC, k_r=4.0
            )
            from accessprice.model import ModelConfig

            cfg = ModelConfig(
                k_r=4.0, k_u_schedule=(), price=TRI, admission=adm, service=SVC
            )
            fps = find_fixed_points(cfg, "normal")
            assert len(fps) == 2
            assert fps[0].q_star == pytest.approx(p1 / 1e-3, abs=1e-9)
            assert fps[1].q_star == pytest.approx(90.0 - p2 / 1e-3, abs=1e-9)
            # Lemma-1 structure holds for every valid calibration
            assert fps[0].classification in ("stable_node", "stable_focus")
            from accessprice.stability import classify, jacobian, saddle_criterion

            _, _, is_saddle = saddle_criterion(cfg, fps[1])
            det = classify(
                jacobian(cfg, (fps[1].r_star, fps[1].q_star), "normal")
            ).determinant
            assert (det < 0) == is_saddle


def _per_point_fixed_points(cfg, mode, k_u=None):
    """Reference: the grid scan, one scalar bisection per sign change and
    the per-mode back-substitution that find_fixed_points used to run."""
    mode = dynamics.as_mode(mode, k_u)
    tag = mode.fixed_point_tag
    k_u = 0.0 if tag == "normal" else mode.k_u
    eps = 1e-12
    q_max, svc = cfg.admission.q_max, cfg.service
    hi = q_max - max(1e-9, abs(q_max) * 1e-12) if math.isfinite(q_max) else 4 * svc.q_c + 400.0
    lo = 1e-9 if k_u <= 0 else (k_u + eps) * svc.q_c / svc.mu_star * (1 + 1e-12) + 1e-12
    if k_u >= svc.mu_star or lo >= hi:
        return []
    qs = np.linspace(lo, hi, 2000)
    a = eval_admission(cfg.admission, qs)
    m = eval_service(svc, qs)
    ok = (a > eps) & (m - k_u > eps)
    g = np.full_like(qs, np.nan)
    g[ok] = eval_price(cfg.price, qs[ok]) / a[ok] - (cfg.k_r + k_u - m[ok]) / (m[ok] - k_u)

    def residual(q):
        a, m = eval_admission(cfg.admission, q), eval_service(svc, q)
        assert a > eps and m - k_u > eps
        return eval_price(cfg.price, q) / a - (cfg.k_r + k_u - m) / (m - k_u)

    def bisect(lo, hi, g_lo):
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            g_mid = residual(mid)
            if g_mid == 0.0:
                return mid
            if (g_mid > 0) == (g_lo > 0):
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    idx = np.nonzero(ok[:-1] & ok[1:] & (np.sign(g[:-1]) * np.sign(g[1:]) < 0))[0]
    roots = [bisect(qs[i], qs[i + 1], g[i]) for i in idx]
    roots.extend(qs[j] for j in np.nonzero(ok & (g == 0.0))[0])
    roots.sort()
    merged = []
    for r in roots:
        if not (merged and abs(r - merged[-1]) < 1e-6):
            merged.append(r)
    out = []
    for q_star in merged:
        a, m = eval_admission(cfg.admission, q_star), eval_service(svc, q_star)
        if tag == "normal":
            r_star, u_star = m / a, 0.0
        elif tag == "saturated":
            r_star, u_star = (m - k_u) / a, 0.0
        else:
            r_star, u_star = (m - k_u) / a, k_u / a
        try:
            rep = stability.classify(stability.jacobian(cfg, (r_star, q_star, u_star), tag))
            cls, eig = rep.classification, tuple(rep.eigenvalues)
        except stability.KinkProximityError:
            cls, eig = "degenerate", ()
        out.append(equilibria.FixedPoint(
            tag, r_star, q_star, u_star, eval_price(cfg.price, q_star), cls, eig
        ))
    return out


def _calibrated_sets(seed, n):
    """n configurations calibrated from targets drawn near ref's: linear
    or cubic admission under the triangular or saturated price."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        beta = 1e-3 * rng.uniform(0.9, 1.1)
        q_m = 45.0 * rng.uniform(0.96, 1.04)
        if rng.random() < 0.5:
            price = PriceSpec("triangular", beta=beta, q_m=q_m)
        else:
            price = PriceSpec("saturated", beta=beta, q_m=q_m, q_n=q_m * rng.uniform(1.5, 1.9))
        service = ServiceSpec(mu_star=3.0 * rng.uniform(0.94, 1.06), q_c=35.0 * rng.uniform(0.95, 1.05))
        k_r = 4.0 * rng.uniform(0.95, 1.05)
        q1 = 40.0 * rng.uniform(0.95, 1.05)
        q2 = min(82.0 * rng.uniform(0.975, 1.025), 2 * q_m - 1.0)
        if price.variant == "saturated":
            q2 = min(q2, price.q_n - 1.0)
        targets = CalibrationTargets(p1=beta * q1, p2=beta * (2 * q_m - q2))
        try:
            if rng.random() < 0.5:
                adm = calibrate_linear_admission(targets, price, service, k_r)
            else:
                adm = calibrate_cubic_admission(
                    targets, price, service, k_r, q_max=2 * q_m * rng.uniform(1.05, 1.2)
                )
        except CalibrationError:
            continue
        out.append(ModelConfig(k_r=k_r, k_u_schedule=(), price=price, admission=adm, service=service))
    return out


def _field_types(fps):
    return [tuple(type(v) for v in vars(fp).values()) for fp in fps]


class TestArrayBisection:
    MODES = [
        dynamics.NORMAL,
        dynamics.CHATTERING,
        dynamics.SWITCHED_FULL,
        dynamics.saturated_mode(0.5),
        dynamics.saturated_mode(1.5),
        dynamics.competitive_mode(0.0),
        dynamics.competitive_mode(1.0),
    ]

    def test_shipped_configs_match_per_point_bisection(self, ref_cfg, section5_cfg, competitive_cfg):
        for cfg in (ref_cfg, section5_cfg, competitive_cfg):
            for mode in self.MODES:
                new, ref = find_fixed_points(cfg, mode), _per_point_fixed_points(cfg, mode)
                assert new == ref, mode
                assert _field_types(new) == _field_types(ref)

    def test_calibrated_sets_match_per_point_bisection(self):
        modes = [
            dynamics.NORMAL,
            dynamics.saturated_mode(0.5),
            dynamics.competitive_mode(0.0),
            dynamics.competitive_mode(1.0),
        ]
        roots = 0
        for cfg in _calibrated_sets(2024, 200):
            for mode in modes:
                new, ref = find_fixed_points(cfg, mode), _per_point_fixed_points(cfg, mode)
                assert new == ref, (cfg, mode)
                assert _field_types(new) == _field_types(ref)
                roots += len(new)
        assert roots >= 800

    def test_scan_makes_no_scalar_residual_calls(self, ref_cfg, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return fixed_point_residual(*args, **kwargs)

        monkeypatch.setattr(equilibria, "fixed_point_residual", counted)
        assert len(find_fixed_points(ref_cfg, "normal")) == 2
        assert calls == []
