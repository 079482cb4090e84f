from dataclasses import replace
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

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
        roots = 0
        for cfg in calibrated:
            for mode in modes:
                ref = _per_point_fixed_points(cfg, mode)
                for new in _cold_and_warm(cold, cfg, mode):
                    assert _bits(new) == _bits(ref), (cfg, mode)
                    assert _field_types(new) == _field_types(ref)
                roots += len(ref)
        assert roots >= 800

    def test_scan_makes_no_scalar_residual_calls(self, ref_cfg, monkeypatch, cold):
        calls = _counted(monkeypatch, equilibria, "fixed_point_residual")
        assert len(find_fixed_points(ref_cfg, "normal")) == 2
        assert calls == []


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

    def test_returned_list_belongs_to_the_caller(self, ref_cfg, cold):
        first = find_fixed_points(ref_cfg, "normal")
        want = _bits(first)
        first.reverse()
        first.append(None)
        again = find_fixed_points(ref_cfg, "normal")
        assert again is not first and _bits(again) == want

    def test_schedule_and_q_ad_share_an_entry(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
        base = find_fixed_points(section5_cfg, "saturated", 0.5)
        for cfg in (replace(section5_cfg, k_u_schedule=()), replace(section5_cfg, q_ad=70.0)):
            same = find_fixed_points(cfg, "saturated", 0.5)
            assert len(same) == 3 and all(a is b for a, b in zip(same, base))
        assert len(scans) == 1

    def test_every_spec_field_is_in_the_key(self, ref_cfg, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
        variants = []
        for cfg in (ref_cfg, section5_cfg):
            variants += [cfg, replace(cfg, k_r=math.nextafter(cfg.k_r, math.inf))]
            for part, names in (("price", ("beta", "q_m", "q_n")),
                                ("admission", ("coefficients", "q_max")),
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
        assert len(scans) == len(variants) == 23

    def test_bounded_least_recently_used_goes_first(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
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
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
        for mode in (dynamics.NORMAL, dynamics.saturated_mode(0.0), dynamics.competitive_mode(0.0)):
            assert _bits(find_fixed_points(ref_cfg, mode)) == _bits(_per_point_fixed_points(ref_cfg, mode))
        assert len(scans) == 1

    def test_saturated_and_competitive_share_a_scan_at_equal_k_u_bits(self, section5_cfg, cold, monkeypatch):
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
        sat = find_fixed_points(section5_cfg, dynamics.saturated_mode(0.5))
        comp = find_fixed_points(section5_cfg, dynamics.competitive_mode(0.5))
        assert [fp.q_star for fp in sat] == [fp.q_star for fp in comp] and len(sat) == 3
        assert [(fp.mode, fp.u_star) for fp in sat] == [("saturated", 0.0)] * 3
        assert len(scans) == 1
        minus = find_fixed_points(section5_cfg, dynamics.competitive_mode(-0.0))
        assert len(scans) == 2 and [k_u for _, k_u in scans] == [0.5, 0.0]
        assert math.copysign(1.0, scans[1][1]) == -1.0
        assert [math.copysign(1.0, fp.u_star) for fp in minus] == [-1.0] * len(minus)

    def test_a_scan_evaluates_the_array_residual_once(self, ref_cfg, section5_cfg, cold, monkeypatch):
        # the grid is one array call; every bisection runs on floats
        arrays = _counted(monkeypatch, equilibria, "_residual")
        assert len(find_fixed_points(ref_cfg, "normal")) == 2
        assert len(find_fixed_points(section5_cfg, "saturated", 0.5)) == 3
        assert [qs.size for _, _, qs in arrays] == [equilibria.GRID_POINTS] * 2

    def test_analysis_chain_scans_once(self, cold, monkeypatch):
        # six fixed-point calls on one parameter set, five in normal mode and
        # one in competitive mode at K_U = 0, which shares normal mode's
        # balance equation; calibration builds its own config, equal to the
        # caller's
        scans = _counted(monkeypatch, equilibria, "_scan_domain")
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
