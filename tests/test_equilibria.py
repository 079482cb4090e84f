from dataclasses import replace
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import price_scaled
from accessprice import dynamics, equilibria, model, regions, stability
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
    AdmissionSpec,
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


@pytest.fixture
def cold():
    """An empty fixed-point memo; the fixture's value empties it again."""
    equilibria._memo.clear()
    return equilibria._memo.clear


@pytest.fixture(scope="module")
def calibrated():
    return _calibrated_sets(2024, 200)


def _dropping(monkeypatch, kept):
    """From now on each scan keeps only the roots roots[kept]."""
    scan = equilibria._scan
    monkeypatch.setattr(equilibria, "_scan", lambda cfg, k_u: scan(cfg, k_u)[kept])


def _counted(monkeypatch, module, name):
    """The argument tuples of every call to module.name from now on."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


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

    def test_root_count_post_condition(self, cold, monkeypatch):
        # q2* = 60.792 lies 0.02 below q_max, in the last cell of a
        # 2000-point grid, whose top end is off g's domain, so a grid scan
        # sees no sign change there; with a root dropped from the scan, the
        # root-count clause refuses the result
        price, svc = PriceSpec("triangular", beta=0.0011, q_m=30.4), ServiceSpec(mu_star=3.92, q_c=99.6)
        targets = CalibrationTargets(p1=0.0329, p2=8.61e-06)
        adm = calibrate_linear_admission(targets, price, svc, k_r=10.5)
        fps = find_fixed_points(ModelConfig(k_r=10.5, k_u_schedule=(), price=price, admission=adm, service=svc))
        assert [fp.q_star for fp in fps] == pytest.approx([29.909090909, 60.792172727], abs=1e-8)
        assert 0 < adm.q_max - fps[1].q_star < adm.q_max / 1999  # one cell of that grid
        cold()
        _dropping(monkeypatch, slice(None, 1))
        with pytest.raises(CalibrationError,
                           match="fails root-count: found 1, expected 2 for triangular price"):
            calibrate_linear_admission(targets, price, svc, k_r=10.5)
        cold()

    def test_root_position_post_condition(self):
        # with q1* 1e-8 below the kink q_m, g is within rounding of zero for
        # 1e-5 around q2* = 82, and bisection stops at another of those zeros;
        # which one is decided by rounding
        with pytest.raises(CalibrationError,
                           match=r"extra or missing roots: found \[44.99999999, 82.0000"):
            calibrate_linear_admission(CalibrationTargets(p1=0.04499999999, p2=0.008), TRI, SVC,
                                       k_r=4.0)

    def test_saturated_target_post_condition(self, cold, monkeypatch):
        # alpha is so flat that it vanishes only near q = 2e5: a 2000-point
        # grid's cells are 100 wide, and the one holding both targets shows
        # no sign change; with only the third root left, the target check
        # refuses the result
        sat = PriceSpec(variant="saturated", beta=1e-3, q_m=45.0, q_n=75.0)
        targets = CalibrationTargets(p1=0.04, p2=0.039998)
        adm = calibrate_linear_admission(targets, sat, SVC, k_r=4.0)
        fps = find_fixed_points(ModelConfig(k_r=4.0, k_u_schedule=(), price=sat, admission=adm, service=SVC))
        assert [fp.q_star for fp in fps[:2]] == pytest.approx([40.0, 50.002], abs=1e-9)
        assert len(fps) == 3 and fps[2].q_star > 1e5
        cold()
        _dropping(monkeypatch, slice(2, None))
        with pytest.raises(CalibrationError, match="target equilibrium q\\* = 40 not recovered"):
            calibrate_linear_admission(targets, sat, SVC, k_r=4.0)
        cold()

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

    def test_q_max_is_the_first_float_where_alpha_vanishes(self, calibrated):
        # the rounded -c2/c1 can lie a float above that one, as well as below
        linear = [cfg.admission for cfg in calibrated if cfg.admission.variant == "linear"]
        assert len(linear) >= 90
        for adm in linear:
            c2, c1 = adm.coefficients
            assert c1 * adm.q_max + c2 <= 0 < c1 * math.nextafter(adm.q_max, 0.0) + c2, adm

    def test_one_fixed_point_scan(self, monkeypatch):
        # the admissibility check and the target check share one scan
        calls = _counted(monkeypatch, equilibria, "find_fixed_points")
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

    def test_monotonicity_violation(self):
        price = PriceSpec(variant="triangular", beta=0.1, q_m=45.0)
        with pytest.raises(CalibrationError, match=r"monotonicity violation: alpha\(q1\*\) = 0.0243243"):
            calibrate_cubic_admission(CalibrationTargets(p1=0.3, p2=4.4), price,
                                      ServiceSpec(mu_star=3.0, q_c=30.0), k_r=4.0, q_max=100.0)

    def test_alpha0_of_the_scan_gives_its_cubic(self):
        scanned = calibrate_cubic_admission(REF_TARGETS, TRI, SVC, k_r=4.0, q_max=100.0)
        pinned = CalibrationTargets(p1=0.04, p2=0.008, alpha0=scanned.coefficients[0])
        assert calibrate_cubic_admission(pinned, TRI, SVC, k_r=4.0, q_max=100.0) == scanned

    @pytest.mark.parametrize("targets", [
        CalibrationTargets(p1=0.044, p2=0.001),  # none of the 64 scanned alpha0
        CalibrationTargets(p1=0.04, p2=0.008, alpha0=0.12),  # alpha(0) = alpha(q1*): rises between
    ])
    def test_no_monotone_cubic(self, targets):
        with pytest.raises(CalibrationError, match="no monotone cubic positive below q_max"):
            calibrate_cubic_admission(targets, TRI, SVC, k_r=4.0, q_max=100.0)

    def test_no_monotone_cubic_at_a_pinned_alpha0_names_it(self):
        # a pinned alpha0 is the only candidate tried: no scan range to name
        with pytest.raises(CalibrationError) as err:
            calibrate_cubic_admission(CalibrationTargets(p1=0.04, p2=0.008, alpha0=0.12),
                                      TRI, SVC, k_r=4.0, q_max=100.0)
        assert str(err.value) == "no monotone cubic positive below q_max found at the pinned alpha0 = 0.12"

    def test_qmax_whose_cube_overflows_is_named(self):
        for q_max in (5.7e102, 1e103, 1.7e308):
            with pytest.raises(CalibrationError) as err:
                calibrate_cubic_admission(REF_TARGETS, TRI, SVC, k_r=4.0, q_max=q_max)
            assert str(err.value) == f"q_max = {q_max:g} too large: q_max**3 overflows"

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


# (price, service, k_r, targets, q_max, I/alpha(q1*)): inputs near ref and the
# interval I of alpha0 where alpha' <= 0 on [0, q_max].  A scan of 64 alpha0
# in [alpha(q1*), 4*alpha(q1*)] refused the first two, where each end of I is
# a double root of alpha'; the third's I starts where alpha'(0) = 0 and ends
# beyond 4*alpha(q1*), the fourth's starts where alpha'(q_max) = 0.
CUBIC_CASES = [
    (PriceSpec("triangular", beta=0.0007728251734623442, q_m=40.93047972796798),
     ServiceSpec(mu_star=2.5977212507800918, q_c=28.667116013910423), 4.470688873480253,
     CalibrationTargets(p1=0.015324379935502794, p2=0.0062940473537453625), 106.71408538723934, (1.1865, 1.2382)),
    (PriceSpec("triangular", beta=0.0007200655442863999, q_m=51.50740788458215),
     ServiceSpec(mu_star=3.396541099603497, q_c=40.38560713033765), 3.957063601051228,
     CalibrationTargets(p1=0.03475578689383014, p2=0.0024668798395193025), 152.4480263651872, (3.9128, 3.9956)),
    (PriceSpec("triangular", beta=0.0012244462156897028, q_m=47.18989896756913),
     ServiceSpec(mu_star=2.6684542342274753, q_c=39.83104049224374), 4.355958536915984,
     CalibrationTargets(p1=0.0528506179591445, p2=0.025023409194942885), 103.42339973022004, (1.3809, 7.8218)),
    (PriceSpec("triangular", beta=0.0009469876899441331, q_m=50.707254278274306),
     ServiceSpec(mu_star=2.6118438169096754, q_c=34.01995606661628), 4.0156118559022875,
     CalibrationTargets(p1=0.04545674664856605, p2=0.035488104086136), 150.6576514003006, (1.5437, 3.4130)),
]


def _steepest(price, service, k_r, targets, q_max):
    """(alpha(q1*), alpha(q2*), alpha0 -> largest alpha' on [0, q_max]) for the
    cubic through the targets and (q_max, 0), from numpy solves of its 4x4
    system: an oracle apart from the calibration's divided differences."""
    q1, q2 = targets.p1 / price.beta, 2 * price.q_m - targets.p2 / price.beta
    a1t, a2t = (eval_price(price, q) * eval_service(service, q) / (k_r - eval_service(service, q)) for q in (q1, q2))
    A = np.array([[1.0, q, q * q, q ** 3] for q in (0.0, q1, q2, q_max)])
    u, v = np.linalg.solve(A, [0.0, a1t, a2t, 0.0]), np.linalg.solve(A, [1.0, 0.0, 0.0, 0.0])
    return a1t, a2t, lambda alpha0: model.extremum(
        (((0.0, 0.0, tuple(u + alpha0 * v)),),), 0.0, q_max, largest=True, order=1)[0]


def _admissible(adm, price, service, k_r, q_max):
    """The calibrated cubic passes validate, and its q_max is the requested one
    or, below it, where its float form first reaches 0."""
    cfg = ModelConfig(k_r=k_r, k_u_schedule=(), price=price, admission=adm, service=service)
    assert model.validate_admissible(cfg).passed
    assert adm.q_max == q_max or adm.q_max < q_max and model._poly(adm.coefficients, adm.q_max) <= 0
    assert adm._scalar(math.nextafter(adm.q_max, 0.0)) > 0


class TestCubicInterval:
    """alpha0 from the exact interval I where alpha' <= 0 on [0, q_max]."""

    @staticmethod
    def ends(case):
        """alpha(q1*) and the ends of I, each bisected from a point inside
        to one beyond it, on the oracle."""
        price, service, k_r, targets, q_max, expected = case
        a1t, _, steepest = _steepest(price, service, k_r, targets, q_max)
        middle = a1t * sum(expected) / 2
        return a1t, (model._bisect(steepest, a1t, middle, True),
                     model._bisect(steepest, middle, 2 * a1t * expected[1], False))

    @pytest.mark.parametrize("case", CUBIC_CASES)
    def test_alpha0_is_the_middle_of_the_interval_within_range(self, case):
        price, service, k_r, targets, q_max, expected = case
        a1t, (lo, hi) = self.ends(case)
        assert [lo / a1t, hi / a1t] == pytest.approx(expected, abs=1e-4)
        adm = calibrate_cubic_admission(targets, price, service, k_r, q_max)
        _admissible(adm, price, service, k_r, q_max)
        assert adm.coefficients[0] == pytest.approx(0.5 * (lo + min(hi, 4 * a1t)), rel=1e-12)

    @pytest.mark.parametrize("case", CUBIC_CASES)
    def test_pinned_alpha0_just_inside_each_end_calibrates(self, case):
        price, service, k_r, targets, q_max, _ = case
        _, ends = self.ends(case)
        for end, inward in zip(ends, (1.0, -1.0)):
            inside = replace(targets, alpha0=end * (1 + inward * 1e-9))
            _admissible(calibrate_cubic_admission(inside, price, service, k_r, q_max), price, service, k_r, q_max)
            outside = replace(targets, alpha0=end * (1 - inward * 1e-9))
            with pytest.raises(CalibrationError, match="^no monotone cubic positive below q_max found at the pinned"):
                calibrate_cubic_admission(outside, price, service, k_r, q_max)

    def test_every_refusal_has_an_empty_interval(self):
        # seeded inputs near ref whose targets pass the monotonicity check:
        # a refusal must leave no alpha0 in [alpha(q1*), 4*alpha(q1*)] where
        # the oracle's alpha' <= 0 on [0, q_max], on a dense scan
        rng = np.random.default_rng(32)
        refused, calibrated = [], 0
        while calibrated + len(refused) < 250:
            beta, q_m = 1e-3 * rng.uniform(0.7, 1.3), 45.0 * rng.uniform(0.85, 1.15)
            price = PriceSpec("triangular", beta=beta, q_m=q_m)
            service = ServiceSpec(mu_star=3.0 * rng.uniform(0.85, 1.15), q_c=35.0 * rng.uniform(0.8, 1.2))
            k_r = 4.0 * rng.uniform(0.9, 1.1)
            q1, q2, q_max = q_m * rng.uniform(0.3, 0.98), q_m * rng.uniform(1.02, 1.98), q_m * rng.uniform(2.02, 3.2)
            if k_r <= service.mu_star:
                continue
            targets = CalibrationTargets(p1=beta * q1, p2=beta * (2 * q_m - q2))
            a1t, a2t, steepest = _steepest(price, service, k_r, targets, q_max)
            if a1t <= a2t:
                continue
            try:
                adm = calibrate_cubic_admission(targets, price, service, k_r, q_max)
            except CalibrationError as err:
                assert str(err).startswith("no monotone cubic positive below q_max found")
                refused.append(str(err))
                assert min(map(steepest, np.linspace(a1t, 4 * a1t, 1000))) > 0, err
                continue
            calibrated += 1
            assert a1t <= adm.coefficients[0] <= 4 * a1t
            _admissible(adm, price, service, k_r, q_max)
        # both kinds of refusal: no alpha0 at all, and an interval beyond the range
        kinds = ("holds at no alpha0", "needs alpha0 in")
        assert calibrated > 200 and all(any(kind in err for err in refused) for kind in kinds)


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

    def test_overflowing_price_term_keeps_its_sign_silently(self, section5_cfg):
        # f/alpha overflows to +inf where alpha is small: g stays positive,
        # so the scan finds no root and warns of nothing
        cfg = replace(section5_cfg, price=replace(section5_cfg.price, beta=1e300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_fixed_points(cfg) == []

    def test_empty_scan_domain(self, ref_cfg):
        # mu = 0.03 q exceeds K_U = 2.9 only beyond q = 96.7, past q_max = 92.5
        cfg = replace(ref_cfg, service=ServiceSpec(mu_star=3.0, q_c=100.0))
        assert find_fixed_points(cfg, "saturated", k_u=2.9) == []

    def test_overflowing_alpha_keeps_g_sign_silently(self, ref_cfg):
        # a rising linear alpha overflows to +inf on the scan grid: f/alpha
        # is 0 there and g keeps the load term's sign, with no root
        cfg = replace(ref_cfg, admission=AdmissionSpec(variant="linear", coefficients=(1.0, 1e306)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert find_fixed_points(cfg) == []

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


class TestExactScan:
    """Roots that a sampled scan of g loses, a fold pair or a root either
    side of a hole in g's domain: each is a sign change of
    fixed_point_residual, found from the piece tables."""

    @staticmethod
    def _changes_sign(cfg, fps, k_u):
        for fp in fps:
            below, above = (fixed_point_residual(fp.q_star + d, cfg, fp.mode, k_u) for d in (-1e-7, 1e-7))
            assert below * above < 0, fp.q_star

    def test_section5_pair_either_side_of_q_m(self, section5_cfg):
        # K_U = 0.9691 lies 1.3e-4 below the fold at q_m = 45
        fps = find_fixed_points(section5_cfg, "saturated", 0.9691)
        assert [fp.q_star for fp in fps] == pytest.approx([44.9958, 45.0098, 90.4426], abs=1e-4)
        self._changes_sign(section5_cfg, fps, 0.9691)

    def test_ref_pair_either_side_of_q_m(self, ref_cfg):
        # K_U = 0.172092 lies 1.0e-6 below the fold at q_m = 45
        fps = find_fixed_points(ref_cfg, "saturated", 0.172092)
        assert [fp.q_star for fp in fps] == pytest.approx([44.99997, 45.00106], abs=1e-5)
        self._changes_sign(ref_cfg, fps, 0.172092)

    def test_a_root_either_side_of_a_hole_in_the_domain(self, ref_cfg):
        # alpha = a*((q - q0)^2 - w^2) is floored to zero on (q0 - w, q0 + w),
        # inside one cell of a 2000-point grid whose ends have g of opposite
        # signs
        a, w, q0 = 312.0, 0.01, 40.038010005202096
        adm = AdmissionSpec("cubic", (a * (q0 * q0 - w * w), -2 * a * q0, a, 0.0), q_max=100.0)
        cfg = replace(ref_cfg, admission=adm)
        fps = find_fixed_points(cfg)
        assert [fp.q_star for fp in fps] == pytest.approx([40.0160, 40.0600], abs=1e-4)
        assert fps[0].q_star < q0 - w < q0 + w < fps[1].q_star
        self._changes_sign(cfg, fps, 0.0)

    def test_no_root_at_a_hole_where_the_price_is_zero(self, ref_cfg):
        # past 2*q_m = 90 the price is zero, so P = -alpha*(K_R - mu) changes
        # sign where alpha does, at the hole's edges, while g stays negative:
        # no section that ends at an edge is bracketed
        a, w, q0 = 3.3e-5, 1.0, 95.0
        adm = AdmissionSpec("cubic", (a * (q0 * q0 - w * w), -2 * a * q0, a, 0.0), q_max=100.0)
        cfg = replace(ref_cfg, admission=adm)
        fps = find_fixed_points(cfg)
        assert len(fps) == 2 and fps[1].q_star < 2 * cfg.price.q_m
        self._changes_sign(cfg, fps, 0.0)

    def test_no_root_at_any_hole_where_the_price_is_zero(self, ref_cfg):
        # there P = -alpha*(K_R - mu) vanishes at each edge, where its float
        # value is rounding of either sign; g stays negative at K_R = 4 and
        # positive at K_R = 2 < mu_star
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, w = 10 ** rng.uniform(-7, -3), rng.uniform(0.01, 3.0)
            q0 = rng.uniform(91.0 + w, 97.0)
            adm = AdmissionSpec("cubic", (a * (q0 * q0 - w * w), -2 * a * q0, a, 0.0), q_max=100.0)
            for k_r in (4.0, 2.0):
                roots = equilibria._scan(replace(ref_cfg, admission=adm, k_r=k_r), 0.0)
                assert all(r < 2 * ref_cfg.price.q_m for r in roots), (a, w, q0, k_r)

    def test_no_bisection_inside_a_hole(self, ref_cfg):
        # with K_R = 2 < mu, P changes sign inside the hole (35, 45), where
        # alpha < 0 and g is undefined: that section is skipped
        a, w, q0 = 0.01, 5.0, 40.0
        adm = AdmissionSpec("cubic", (a * (q0 * q0 - w * w), -2 * a * q0, a, 0.0), q_max=100.0)
        cfg = replace(ref_cfg, admission=adm, k_r=2.0)
        assert equilibria._scan(cfg, 0.0) == pytest.approx((23.1273633509,), abs=1e-9)

    def test_alpha_zero_where_the_scan_starts(self, ref_cfg):
        # alpha is floored to 0 below q = 0.845: the k_r check at the domain's start
        # skips a point off g's domain
        adm = AdmissionSpec("cubic", (-0.01, 0.0119, -1e-4, 0.0), q_max=100.0)
        cfg = replace(ref_cfg, admission=adm)
        assert equilibria._scan(cfg, 0.0) == pytest.approx((0.8476925501,), abs=1e-9)


class TestPriceUnit:
    """g = f/alpha - load: a change of price unit scales f and alpha alike
    and moves no equilibrium."""

    def test_scan_keeps_its_roots_bit_for_bit(self, ref_cfg, section5_cfg, competitive_cfg):
        # by a power of two f/alpha keeps its bits; a linear alpha's q_max is
        # derived again, from the scaled coefficients
        roots = 0
        for cfg in (ref_cfg, section5_cfg, competitive_cfg):
            for e in (-40, -600, 300):
                scaled = price_scaled(cfg, e)
                for k_u in (0.0, 0.5, 1.0):
                    want = equilibria._scan(cfg, k_u)
                    assert equilibria._scan(scaled, k_u) == want, (cfg, e, k_u)
                    roots += len(want)
        assert roots == 3 * 13

    @pytest.mark.parametrize("beta", [1e-14, 1e-200])
    def test_calibration_at_a_small_price_scale(self, beta):
        price = PriceSpec("triangular", beta=beta, q_m=45.0)
        targets = CalibrationTargets(p1=40 * beta, p2=8 * beta)
        for adm in (calibrate_linear_admission(targets, price, SVC, k_r=4.0),
                    calibrate_cubic_admission(targets, price, SVC, k_r=4.0, q_max=100.0)):
            cfg = ModelConfig(k_r=4.0, k_u_schedule=(), price=price, admission=adm, service=SVC)
            assert [fp.q_star for fp in find_fixed_points(cfg)] == pytest.approx([40.0, 82.0], abs=1e-9)


class TestRoundTrip:
    @settings(max_examples=40)
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
    for q_star in map(float, merged):  # a FixedPoint holds plain floats
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

    def test_shipped_configs_match_per_point_bisection(self, ref_cfg, section5_cfg, competitive_cfg, cold):
        for cfg in (ref_cfg, section5_cfg, competitive_cfg):
            for mode in self.MODES:
                ref = _per_point_fixed_points(cfg, mode)
                for new in _cold_and_warm(cold, cfg, mode):
                    assert _bits(new) == _bits(ref), mode
                    assert _field_types(new) == _field_types(ref)

    def test_calibrated_sets_match_per_point_bisection(self, calibrated, cold):
        modes = [
            dynamics.NORMAL,
            dynamics.saturated_mode(0.5),
            dynamics.competitive_mode(0.0),
            dynamics.competitive_mode(1.0),
        ]
        # the grid scan and the exact scan bisect from different brackets,
        # so where g is within rounding of zero over a few floats they may
        # stop at different ones: each is a sign change of g all the same
        roots = 0
        for cfg in calibrated:
            for mode in modes:
                ref = _per_point_fixed_points(cfg, mode)
                for new in _cold_and_warm(cold, cfg, mode):
                    assert [fp.classification for fp in new] == [fp.classification for fp in ref], (cfg, mode)
                    for fp, want in zip(new, ref):
                        assert abs(fp.q_star - want.q_star) <= 16 * math.ulp(want.q_star), (cfg, mode)
                        assert _is_float_root(cfg, mode, fp.q_star), (cfg, mode, fp.q_star)
                    assert _field_types(new) == _field_types(ref)
                roots += len(ref)
        assert roots >= 800

    def test_fields_are_plain_floats(self, ref_cfg, section5_cfg, competitive_cfg, cold):
        found = 0
        for cfg in (ref_cfg, section5_cfg, competitive_cfg):
            for mode in self.MODES:
                for new in _cold_and_warm(cold, cfg, mode):
                    for fp in new:
                        found += 1
                        for name in ("r_star", "q_star", "u_star", "price_at"):
                            assert type(getattr(fp, name)) is float, (mode, name)
        assert found >= 20
        cuboid = regions.build_cuboid(competitive_cfg, k_u=1.0)
        assert "np.float64" not in repr(cuboid.vertices)

    def test_scan_makes_no_scalar_residual_calls(self, ref_cfg, monkeypatch, cold):
        calls = _counted(monkeypatch, equilibria, "fixed_point_residual")
        assert len(find_fixed_points(ref_cfg, "normal")) == 2
        assert calls == []


def _is_float_root(cfg, mode, r):
    """g(r) is 0, or g changes sign between r and a float adjacent to it."""
    v = fixed_point_residual(r, cfg, mode)
    return v == 0.0 or any((fixed_point_residual(math.nextafter(r, d), cfg, mode) > 0) != (v > 0)
                           for d in (-math.inf, math.inf))


def _cold_and_warm(clear, cfg, mode):
    """find_fixed_points on an emptied memo, then again from the memo."""
    clear()
    return find_fixed_points(cfg, mode), find_fixed_points(cfg, mode)


def _bits(fps):
    """Every field of each fixed point, floats as float.hex and each
    eigenvalue as the float.hex of its real and imaginary parts."""
    def exact(v):
        if isinstance(v, complex):
            return v.real.hex(), v.imag.hex()
        if isinstance(v, float):
            return v.hex()
        if isinstance(v, tuple):
            return tuple(map(exact, v))
        return v

    return [tuple(map(exact, vars(fp).values())) for fp in fps]


def _nudged(spec, name):
    """spec with the float field name, or every coefficient in turn, one float up."""
    value = getattr(spec, name)
    if name != "coefficients":
        return [replace(spec, **{name: math.nextafter(value, math.inf)})]
    return [replace(spec, coefficients=value[:i] + (math.nextafter(c, math.inf),) + value[i + 1:])
            for i, c in enumerate(value)]


class TestMemo:
    def test_signed_zero_k_u_keeps_its_sign(self, competitive_cfg, cold):
        plus = find_fixed_points(competitive_cfg, dynamics.competitive_mode(0.0))
        minus = find_fixed_points(competitive_cfg, dynamics.competitive_mode(-0.0))
        assert len(plus) == len(minus) == 2
        assert [math.copysign(1.0, fp.u_star) for fp in plus + minus] == [1.0, 1.0, -1.0, -1.0]

    def test_key_is_the_repr_of_the_inputs(self, ref_cfg, section5_cfg, competitive_cfg, cold):
        c2, c1 = ref_cfg.admission.coefficients
        signed = replace(ref_cfg, admission=AdmissionSpec("cubic", (c2, c1, 0.0, -0.0), q_max=92.5))
        runs = [(ref_cfg, dynamics.NORMAL), (section5_cfg, dynamics.saturated_mode(0.3)),
                (section5_cfg, dynamics.SWITCHED_FULL), (competitive_cfg, dynamics.competitive_mode(1.2)),
                (competitive_cfg, dynamics.competitive_mode(-0.0)), (signed, dynamics.NORMAL)]
        for cfg, mode in runs:
            find_fixed_points(cfg, mode)
            k_u = 0.0 if mode.fixed_point_tag == "normal" else mode.k_u
            assert list(equilibria._memo)[-1] == repr((cfg.k_r, cfg.price, cfg.admission, cfg.service, k_u))
        assert "-0.0" in list(equilibria._memo)[-1]

    def test_each_spec_formatted_once(self, ref_cfg, cold, monkeypatch):
        # the key's reprs are kept on the specs: an analysis run's calls
        # format each spec once, whichever mode asks
        cfg = replace(ref_cfg, **{part: replace(getattr(ref_cfg, part))
                                  for part in ("price", "admission", "service")})
        formatted = []
        for cls in (PriceSpec, AdmissionSpec, ServiceSpec):
            monkeypatch.setattr(cls, "__repr__",
                                lambda self, fmt=cls.__repr__: formatted.append(type(self)) or fmt(self))
        modes = ("normal", "normal", dynamics.competitive_mode(0.0), dynamics.saturated_mode(0.5), "chattering")
        for mode in modes:
            find_fixed_points(cfg, mode)
        assert sorted(cls.__name__ for cls in formatted) == ["AdmissionSpec", "PriceSpec", "ServiceSpec"]

    def test_returned_list_belongs_to_the_caller(self, ref_cfg, cold):
        first = find_fixed_points(ref_cfg, "normal")
        want = _bits(first)
        first.reverse()
        first.append(None)
        again = find_fixed_points(ref_cfg, "normal")
        assert again is not first and _bits(again) == want

    def test_schedule_and_q_ad_share_an_entry(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan")
        base = find_fixed_points(section5_cfg, "saturated", 0.5)
        for cfg in (replace(section5_cfg, k_u_schedule=()), replace(section5_cfg, q_ad=70.0)):
            same = find_fixed_points(cfg, "saturated", 0.5)
            assert len(same) == 3 and all(a is b for a, b in zip(same, base))
        assert len(scans) == 1

    def test_every_spec_field_is_in_the_key(self, ref_cfg, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan")
        variants = []
        for cfg in (ref_cfg, section5_cfg):
            variants += [cfg, replace(cfg, k_r=math.nextafter(cfg.k_r, math.inf))]
            # a linear q_max is derived from the coefficients (below)
            derived = cfg.admission.variant == "linear"
            for part, names in (("price", ("beta", "q_m", "q_n")),
                                ("admission", ("coefficients",) if derived else ("coefficients", "q_max")),
                                ("service", ("mu_star", "q_c"))):
                spec = getattr(cfg, part)
                for name in names:
                    if getattr(spec, name) is not None:
                        variants += [replace(cfg, **{part: s}) for s in _nudged(spec, name)]
        # dataclass equality calls these equal; the signs of their zeros differ
        c2, c1 = ref_cfg.admission.coefficients
        cubics = [AdmissionSpec("cubic", (c2, c1, 0.0, z), q_max=92.5) for z in (0.0, -0.0)]
        assert cubics[0] == cubics[1]
        variants += [replace(ref_cfg, admission=adm) for adm in cubics]
        for cfg in variants:
            find_fixed_points(cfg, "normal")
        assert len(scans) == len(variants) == 22
        # a nudged linear q_max is checked against the derived one, then
        # dropped: the spec is equal and shares the scan
        [linear] = _nudged(ref_cfg.admission, "q_max")
        assert linear == ref_cfg.admission and linear.q_max == 92.5
        assert _bits(find_fixed_points(replace(ref_cfg, admission=linear), "normal")) == _bits(
            find_fixed_points(ref_cfg, "normal"))
        assert len(scans) == 22

    def test_bounded_least_recently_used_goes_first(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan")
        k_us = [0.01 * i for i in range(equilibria._MEMO_ENTRIES + 1)]
        for k_u in k_us[:-1] + k_us[:1] + k_us[-1:]:  # k_us[0] is used again before the last
            find_fixed_points(section5_cfg, "saturated", k_u)
        assert len(scans) == len(k_us) and len(equilibria._memo) == equilibria._MEMO_ENTRIES
        find_fixed_points(section5_cfg, "saturated", k_us[0])
        assert len(scans) == len(k_us)
        find_fixed_points(section5_cfg, "saturated", k_us[1])
        assert [k_u for _, k_u in scans[-2:]] == [k_us[-1], k_us[1]]

    def test_a_failed_scan_is_not_stored(self, ref_cfg, cold, monkeypatch):
        def broken(*args):
            raise ResidualUndefinedError("g undefined")

        monkeypatch.setattr(equilibria, "_bisect", broken)
        for _ in range(2):
            with pytest.raises(ResidualUndefinedError):
                find_fixed_points(ref_cfg, "normal")
        monkeypatch.undo()
        assert len(find_fixed_points(ref_cfg, "normal")) == 2

    def test_modes_at_k_u_zero_share_one_scan(self, ref_cfg, cold, monkeypatch):
        # g depends on the mode only through K_U, and normal mode's K_U is 0.0
        scans = _counted(monkeypatch, equilibria, "_scan")
        for mode in (dynamics.NORMAL, dynamics.saturated_mode(0.0), dynamics.competitive_mode(0.0)):
            assert _bits(find_fixed_points(ref_cfg, mode)) == _bits(_per_point_fixed_points(ref_cfg, mode))
        assert len(scans) == 1

    def test_saturated_and_competitive_share_a_scan_at_equal_k_u_bits(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan")
        sat = find_fixed_points(section5_cfg, dynamics.saturated_mode(0.5))
        comp = find_fixed_points(section5_cfg, dynamics.competitive_mode(0.5))
        assert [fp.q_star for fp in sat] == [fp.q_star for fp in comp] and len(sat) == 3
        assert [(fp.mode, fp.u_star) for fp in sat] == [("saturated", 0.0)] * 3
        assert len(scans) == 1
        minus = find_fixed_points(section5_cfg, dynamics.competitive_mode(-0.0))
        assert len(scans) == 2 and [k_u for _, k_u in scans] == [0.5, 0.0]
        assert math.copysign(1.0, scans[1][1]) == -1.0
        assert [math.copysign(1.0, fp.u_star) for fp in minus] == [-1.0] * len(minus)

    def test_a_scan_calls_no_numpy(self, ref_cfg, section5_cfg, competitive_cfg, cold, monkeypatch):
        # the scan and the classification run on plain floats: with numpy
        # unimportable, specs whose array kernels were never built give each
        # shipped config the same roots and the same fixed points, bit for bit
        cases = [(ref_cfg, 0.0), (section5_cfg, 0.5), (competitive_cfg, 1.0)]
        want = [equilibria._scan(cfg, k_u) for cfg, k_u in cases]
        points = [repr(find_fixed_points(cfg, "competitive", k_u)) for cfg, k_u in cases]
        cold()
        bare = [(replace(cfg, **{name: replace(getattr(cfg, name)) for name in ("price", "admission", "service")}), k_u)
                for cfg, k_u in cases]
        assert not hasattr(equilibria, "np") and not hasattr(model, "np")
        monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises ImportError
        assert [equilibria._scan(cfg, k_u) for cfg, k_u in bare] == want
        assert [repr(find_fixed_points(cfg, "competitive", k_u)) for cfg, k_u in bare] == points
        assert [len(roots) for roots in want] == [2, 3, 2]
        assert not any("_kernel" in vars(spec) for cfg, _ in bare for spec in (cfg.price, cfg.admission, cfg.service))

    def test_analysis_chain_scans_once(self, cold, monkeypatch):
        # six fixed-point calls on one parameter set, five in normal mode and
        # one in competitive mode at K_U = 0, which shares normal mode's
        # balance equation; calibration builds its own config, equal to the
        # caller's
        scans = _counted(monkeypatch, equilibria, "_scan")
        calls = _counted(monkeypatch, equilibria, "find_fixed_points")
        adm = calibrate_linear_admission(REF_TARGETS, TRI, SVC, k_r=4.0)
        cfg = ModelConfig(k_r=4.0, k_u_schedule=(), price=TRI, admission=adm, service=SVC)
        assert model.validate_admissible(cfg).passed
        fps = equilibria.find_fixed_points(cfg, "normal")
        for fp in fps:
            stability.classify(stability.jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), "normal"))
        assert stability.saddle_criterion(cfg, fps[-1])[2]
        assert regions.check_invariance(cfg, regions.build_polygon(cfg), dynamics.NORMAL, 100).passed
        regions.phase_grid(cfg, dynamics.NORMAL, (0.0, 150.0), (0.0, 100.0), 10)
        cuboid = regions.build_cuboid(cfg, k_u=0.0)
        assert regions.check_invariance(cfg, cuboid, dynamics.competitive_mode(0.0), 100).passed
        assert len(calls) == 6
        assert len(scans) == 1
