import ast
from bisect import bisect_left, bisect_right
import inspect
import math
from pathlib import Path
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from accessprice.equilibria import (
    CalibrationError,
    CalibrationTargets,
    ResidualUndefinedError,
    calibrate_cubic_admission,
    calibrate_linear_admission,
    fixed_point_residual,
)
from accessprice.model import (
    AdmissionSpec,
    _constants,
    _evaluate,
    _bisect,
    _make,
    _piece_lines,
    _poly,
    _real_roots,
    _scaled,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    eval_admission,
    eval_price,
    eval_service,
    extremum,
    from_pieces,
    slope,
    validate_admissible,
)
from accessprice.regions import eta1, eta2, eta3
from test_equilibria import _calibrated_sets

TRI = PriceSpec(variant="triangular", beta=1e-3, q_m=45.0)
SAT = PriceSpec(variant="saturated", beta=1e-3, q_m=45.0, q_n=75.0)
SURGE = PriceSpec(variant="surge", beta=1e-3)
SVC = ServiceSpec(mu_star=3.0, q_c=35.0)
LIN = AdmissionSpec(
    variant="linear", coefficients=(0.21142857142857144, -0.002285714285714286)
)
CUB = AdmissionSpec(  # section5's
    variant="cubic",
    coefficients=(0.09, -0.0019357142857142858, 3.059523809523811e-05, -2.0238095238095254e-07),
    q_max=100.0,
)


class TestPrice:
    def test_triangular_origin(self):
        assert eval_price(TRI, 0.0) == 0.0

    def test_triangular_peak(self):
        assert eval_price(TRI, 45.0) == pytest.approx(0.045, abs=1e-15)

    def test_triangular_vanishes_past_twice_peak(self):
        assert eval_price(TRI, 91.0) == 0.0
        assert eval_price(TRI, 500.0) == 0.0

    def test_saturated_floor_value(self):
        # beta * (2*q_m - q_n) = 1e-3 * 15, held for all q >= q_n
        assert eval_price(SAT, 90.0) == pytest.approx(0.015, abs=1e-15)

    def test_surge_linear(self):
        assert eval_price(SURGE, 200.0) == pytest.approx(0.2, abs=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_price(TRI, -1.0)

    def test_vectorized(self):
        qs = np.array([0.0, 45.0, 90.0, 100.0])
        np.testing.assert_allclose(
            eval_price(TRI, qs), [0.0, 0.045, 0.0, 0.0], atol=1e-15
        )

    def test_saturated_needs_qn_in_range(self):
        with pytest.raises(ValueError):
            PriceSpec(variant="saturated", beta=1e-3, q_m=45.0, q_n=95.0)
        with pytest.raises(ValueError):
            PriceSpec(variant="saturated", beta=1e-3, q_m=45.0, q_n=40.0)

    def test_bad_beta(self):
        with pytest.raises(ValueError, match="beta"):
            PriceSpec(variant="triangular", beta=0.0, q_m=45.0)

    @given(st.floats(min_value=0.0, max_value=45.0))
    def test_triangular_symmetry(self, d):
        left = eval_price(TRI, 45.0 - d)
        right = eval_price(TRI, 45.0 + d)
        assert left == pytest.approx(right, abs=1e-15)

    @given(st.floats(min_value=75.0, max_value=2000.0))
    def test_saturated_constancy(self, q):
        assert eval_price(SAT, q) == eval_price(SAT, 75.0)


class TestService:
    def test_origin(self):
        assert eval_service(SVC, 0.0) == 0.0

    def test_breakpoint(self):
        assert eval_service(SVC, 35.0) == pytest.approx(3.0, abs=1e-15)

    def test_midramp(self):
        assert eval_service(SVC, 17.5) == pytest.approx(1.5, abs=1e-15)

    def test_flat_beyond(self):
        assert eval_service(SVC, 1000.0) == 3.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            eval_service(SVC, -0.5)


class TestAdmission:
    def test_reference_at_zero(self):
        assert eval_admission(LIN, 0.0) == pytest.approx(0.21142857142857144, abs=1e-15)

    def test_clamps_past_zero_crossing(self):
        # zero crossing at -c2/c1 = 92.5
        assert LIN.q_max == pytest.approx(92.5, abs=1e-9)
        assert eval_admission(LIN, 100.0) == 0.0

    def test_hand_value(self):
        assert eval_admission(LIN, 70.0) == pytest.approx(0.05142857142857144, abs=1e-12)

    def test_slope_left_derivative_at_qmax(self):
        c1 = LIN.coefficients[1]
        assert slope(LIN, LIN.q_max) == c1
        assert slope(LIN, LIN.q_max + 1e-6) == 0.0

    def test_cubic_eval_and_slope(self):
        cub = AdmissionSpec(
            variant="cubic", coefficients=(0.2, -0.001, -1e-5, 1e-8), q_max=100.0
        )
        q = 50.0
        a0, a1, a2, a3 = cub.coefficients
        assert eval_admission(cub, q) == pytest.approx(
            a0 + a1 * q + a2 * q**2 + a3 * q**3, abs=1e-15
        )
        assert slope(cub, q) == pytest.approx(
            a1 + 2 * a2 * q + 3 * a3 * q**2, abs=1e-15
        )
        assert eval_admission(cub, 150.0) == 0.0

    def test_exact_zero_crossing_kept(self):
        # the shipped ref and competitive admissions vanish exactly at -c2/c1
        assert LIN.q_max == 92.5
        comp = AdmissionSpec(
            variant="linear", coefficients=(0.07047619047619047, -0.0007619047619047619)
        )
        assert comp.q_max == 92.49999999999999

    @pytest.mark.parametrize("coefficients", [(1e-320, -1e-300), (5e-324, -1e-10), (1.0, -5e-324)])
    def test_qmax_exact_where_the_product_is_subnormal(self, coefficients):
        # c1*q is subnormal near the zero crossing, so the first float where
        # alpha vanishes lies up to 1e12 floats from the rounded -c2/c1
        c2, c1 = coefficients
        q_max = AdmissionSpec(variant="linear", coefficients=coefficients).q_max
        assert c1 * q_max + c2 <= 0 < c1 * math.nextafter(q_max, 0.0) + c2

    def test_cubic_qmax_bounded_by_horner_on_magnitudes(self):
        coefficients = (0.09, -0.0019357142857142858, 3.059523809523811e-05, -2.0238095238095254e-07)
        with pytest.raises(ValueError, match="^q_max too large"):
            AdmissionSpec(variant="cubic", coefficients=coefficients, q_max=1.7e308)
        cub = AdmissionSpec(variant="cubic", coefficients=coefficients, q_max=9e104)
        # far beyond q_max, where the polynomial itself overflows, alpha is still 0
        assert list(eval_admission(cub, np.array([0.0, 3e105, 1e308, math.inf]))) == [0.09, 0, 0, 0]

    def test_rising_linear_has_infinite_qmax(self):
        rising = AdmissionSpec(variant="linear", coefficients=(0.1, 0.001))
        assert math.isinf(rising.q_max)

    def test_rising_linear_rejects_a_finite_qmax(self):
        # its zero crossing is inf, and 1e-9 * inf is no bound
        with pytest.raises(ValueError, match="^linear admission q_max 100.0 inconsistent with zero crossing inf$"):
            AdmissionSpec(variant="linear", coefficients=(0.1, 0.001), q_max=100.0)

    def test_inconsistent_qmax_rejected(self):
        with pytest.raises(ValueError, match="q_max"):
            AdmissionSpec(
                variant="linear",
                coefficients=(0.21142857142857144, -0.002285714285714286),
                q_max=90.0,
            )

    def test_negative_qmax_rejected(self):
        # within 1e-9 of the zero crossing at 0, but below every queue length
        with pytest.raises(ValueError, match="q_max -1e-10 inconsistent with zero crossing 0.0"):
            AdmissionSpec(variant="linear", coefficients=(0.0, -1.0), q_max=-1e-10)

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            AdmissionSpec(variant="cubic", coefficients=(1.0, 2.0), q_max=10.0)

    @given(st.floats(min_value=0.0, max_value=92.49))
    def test_slope_nonpositive_below_qmax(self, q):
        assert slope(LIN, q) <= 0

    @given(st.floats(min_value=0.0, max_value=200.0))
    def test_admission_nonnegative(self, q):
        assert eval_admission(LIN, q) >= 0


def central_diff(fn, q, h=1e-6):
    return (fn(q + h) - fn(q - h)) / (2 * h)


class TestSlopeOracles:
    """Analytic slopes against central finite differences off the kinks."""

    @pytest.mark.parametrize("q", [5.0, 20.0, 44.0, 50.0, 74.0, 80.0, 91.0])
    def test_admission_slope_fd(self, q):
        for spec in (LIN, CUB):
            if abs(q - spec.q_max) < 1e-3:
                continue
            assert slope(spec, q) == pytest.approx(
                central_diff(lambda x: eval_admission(spec, x), q), abs=1e-6
            )

    @pytest.mark.parametrize("q", [5.0, 30.0, 60.0, 80.0, 100.0])
    def test_price_slope_fd(self, q):
        for spec in (TRI, SAT, SURGE):
            kinks = spec.kinks
            if any(abs(q - k) < 1e-3 for k in kinks):
                continue
            assert slope(spec, q) == pytest.approx(
                central_diff(lambda x: eval_price(spec, x), q), abs=1e-6
            )

    @pytest.mark.parametrize("q", [5.0, 20.0, 40.0, 70.0])
    def test_service_slope_fd(self, q):
        assert slope(SVC, q) == pytest.approx(
            central_diff(lambda x: eval_service(SVC, x), q), abs=1e-6
        )


class TestLipschitz:
    """|eval(q+h) - eval(q)| <= L*h with the analytic Lipschitz bound."""

    def test_all_evaluators(self):
        h = 1e-6
        qs = np.linspace(0.0, 120.0, 2000)
        cases = [
            (lambda q: eval_price(TRI, q), TRI.beta),
            (lambda q: eval_price(SAT, q), SAT.beta),
            (lambda q: eval_price(SURGE, q), SURGE.beta),
            (lambda q: eval_service(SVC, q), SVC.mu_star / SVC.q_c),
            (lambda q: eval_admission(LIN, q), abs(LIN.coefficients[1])),
        ]
        realized = (qs + h) - qs  # float rounding slightly stretches the step
        for fn, lip in cases:
            delta = np.abs(fn(qs + h) - fn(qs))
            assert np.all(delta <= lip * realized + 1e-15)


class TestValidateAdmissible:
    def test_reference_passes(self, ref_cfg):
        report = validate_admissible(ref_cfg)
        assert report.passed
        assert "found 2" in report.clause("root-count").detail

    def test_increasing_alpha_fails(self, ref_cfg):
        from dataclasses import replace

        bad = replace(
            ref_cfg,
            admission=AdmissionSpec(variant="linear", coefficients=(0.1, 0.001)),
            q_ad=None,
        )
        report = validate_admissible(bad)
        assert not report.clause("alpha-positive-decreasing").passed

    def test_cubic_slope_max_sees_a_rise_between_derivative_roots(self, section5_cfg):
        # alpha' = -200.37 + 30 q - q^2 is negative at both ends of [0, 30]
        # and positive on about (10.2, 19.8), peaking at its vertex q = 15
        pieces = ((0.0, 0.0, (300.0, -200.37, 15.0, -1 / 3)),)
        assert extremum((pieces,), 0.0, 30.0, largest=True, order=1)[0] == pytest.approx(24.63)
        adm = section5_cfg.admission
        assert extremum((adm.pieces,), 0.0, adm.q_max, largest=True, order=1)[0] < 0

    def test_cubic_zero_just_short_of_q_max_fails(self, section5_cfg):
        # seeded: alpha rounds to 0.0 at the float below q_max, which a
        # grid on [0, q_max) would step over
        from dataclasses import replace

        adm = AdmissionSpec("cubic", (
            0.2133335049522837, -0.00015747321238155574, -4.287018823703813e-05, 2.3267910409808236e-07,
        ), q_max=100.9055038780489)
        assert adm._scalar(math.nextafter(adm.q_max, 0.0)) == 0.0
        clause = validate_admissible(replace(section5_cfg, admission=adm)).clause("alpha-positive-decreasing")
        assert not clause.passed
        assert clause.detail == "largest alpha' on [0, 100.906]: -0.000157473"

    def test_small_kr_fails(self, ref_cfg):
        from dataclasses import replace

        bad = replace(ref_cfg, k_r=2.5, q_ad=None)
        report = validate_admissible(bad)
        assert not report.clause("kr-exceeds-mu-star").passed

    def test_section5_root_count(self, section5_cfg):
        report = validate_admissible(section5_cfg)
        assert report.clause("root-count").passed
        assert "found 1" in report.clause("root-count").detail

    def test_competitive_root_count_clause(self, competitive_cfg):
        report = validate_admissible(competitive_cfg, k_u=1.0)
        assert report.clause("competitive-root-count").passed
        # K_U above mu_star leaves no competitive fixed points at all
        report = validate_admissible(competitive_cfg, k_u=3.5)
        assert not report.clause("competitive-root-count").passed

    def test_roots_on_one_side_of_q_m_fail(self, ref_cfg):
        # alpha = (1 - q/100)^3 falls so steeply past q_m that g has both its
        # roots on the price's falling leg
        from dataclasses import replace

        adm = AdmissionSpec("cubic", (1.0, -0.03, 3e-4, -1e-6), q_max=100.0)
        clause = validate_admissible(replace(ref_cfg, admission=adm, q_ad=None)).clause("root-count")
        assert not clause.passed
        assert clause.detail == ("found 2, expected 2 for triangular price; "
                                 "roots (51.1553, 89.6281) not split by q_m = 45")

    def test_q_dagger_failure_is_a_clause(self, ref_cfg):
        # a constant alpha leaves two fixed points, but eta1 = mu/alpha never
        # climbs to R_dagger = K_R/alpha, so q_dagger does not exist
        from dataclasses import replace

        report = validate_admissible(replace(ref_cfg, admission=AdmissionSpec("linear", (0.1, 0.0))))
        assert report.clause("root-count").passed
        clause = report.clause("q-ad-above-q-dagger")
        assert not clause.passed
        assert clause.detail == "eta1 stays below 40 on its domain"

    def test_failed_scan_is_a_clause(self, ref_cfg):
        # alpha = a*((q - q0)^2 - w^2), floored to zero on (q0 - w, q0 + w):
        # the scan cuts g's domain at the hole's edges and finds a root on
        # each side, both left of q_m; a k_r that overflows the load term
        # fails the scan itself
        from dataclasses import replace

        a, w, q0 = 312.0, 0.01, 40.038010005202096
        adm = AdmissionSpec("cubic", (a * (q0 * q0 - w * w), -2 * a * q0, a, 0.0), q_max=100.0)
        clause = validate_admissible(replace(ref_cfg, admission=adm, q_ad=None)).clause("root-count")
        assert not clause.passed
        assert clause.detail == ("found 2, expected 2 for triangular price; "
                                 "roots (40.016, 40.06) not split by q_m = 45")
        clause = validate_admissible(replace(ref_cfg, k_r=1e300)).clause("root-count")
        assert (clause.passed, clause.detail) == (False, (
            "scan failed: k_r = 1e+300 too large: the load term (K_R + K_U - mu)/(mu - K_U) "
            "overflows on the scan domain"))

    @pytest.mark.parametrize("c, passed, steepest", [
        ((1.0, 0.0, 0.0, -1e-6), True, "0"),  # alpha' = -3e-6 q^2 is 0 at q = 0 alone
        ((0.1, 0.0, 0.0, 0.0), False, "0"),  # constant: nonincreasing, not decreasing
    ])
    def test_decreasing_is_a_slope_at_most_zero_and_not_constant(self, section5_cfg, c, passed, steepest):
        from dataclasses import replace

        adm = AdmissionSpec("cubic", c, q_max=100.0)
        clause = validate_admissible(replace(section5_cfg, admission=adm)).clause("alpha-positive-decreasing")
        assert (clause.passed, clause.detail) == (passed, f"largest alpha' on [0, 100]: {steepest}")

    @settings(max_examples=150)
    @given(base=st.sampled_from(["ref", "section5"]), coefficients=st.lists(
        st.sampled_from([1e306, -1e306, 1e308, sys.float_info.max, 1e300, 5e-324, -5e-324, 0.0, -0.0])
        | st.floats(-1.0, 1.0), min_size=2, max_size=4).filter(lambda c: len(c) != 3))
    @example(base="section5", coefficients=[*CUB.coefficients[:3], 5e-324])
    @example(base="ref", coefficients=[0.0, -1.0])  # q_max = 0: alpha vanishes from q = 0 on
    def test_total(self, ref_cfg, section5_cfg, base, coefficients):
        # every admission a spec accepts, on ref's or section5's price and
        # service, gets a report: no exception and no warning
        from dataclasses import replace

        try:
            adm = AdmissionSpec(*(("linear", coefficients) if len(coefficients) == 2
                                  else ("cubic", coefficients, 100.0)))
        except ValueError:
            assume(False)
        cfg = replace(ref_cfg if base == "ref" else section5_cfg, admission=adm)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_admissible(cfg)
        assert [c.name for c in report.clauses[:2]] == ["alpha-positive-decreasing", "alpha-zero-beyond-qmax"]


class TestSaturationFloor:
    """The least alpha + f over [0, q_max + 2*q_m] with a saturated price,
    exact from the piece tables."""

    @staticmethod
    def floor(cfg):
        adm, price = cfg.admission, cfg.price
        return extremum((adm.pieces, price.pieces), 0.0, adm.q_max + 2 * price.q_m)[0]

    def test_reference_value(self, section5_cfg):
        assert self.floor(section5_cfg) == pytest.approx(0.015, abs=1e-15)

    def test_discontinuous_alpha_still_grid_minimum(self, section5_cfg):
        from dataclasses import replace

        # cubic that jumps from 0.1 to 0 at q_max; the grid minimum is the
        # price-floor tail where alpha has vanished
        jumpy = AdmissionSpec(
            variant="cubic", coefficients=(0.2, -0.001, 0.0, 0.0), q_max=100.0
        )
        cfg = replace(section5_cfg, admission=jumpy)
        assert self.floor(cfg) == pytest.approx(0.015, abs=1e-15)

    def test_exact_interior_minimum(self, section5_cfg):
        from dataclasses import replace

        # alpha + f = 0.01 - 0.001 q + 1e-4 q^2 on [0, q_m] is least at q = 5,
        # where it is 0.0075; a grid of the interval misses that point
        dipping = AdmissionSpec("cubic", (0.01, -0.002, 1e-4, 0.0), q_max=100.0)
        cfg = replace(section5_cfg, admission=dipping)
        assert self.floor(cfg) == pytest.approx(0.0075, abs=1e-15)


def _bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


def _calibrated_configs(seed, n):
    """n configs near ref's: a seeded triangular price and service, and a
    linear and a cubic admission calibrated to targets drawn near ref's."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        beta, q_m = 1e-3 * rng.uniform(0.9, 1.1), 45.0 * rng.uniform(0.96, 1.04)
        price = PriceSpec("triangular", beta=beta, q_m=q_m)
        service = ServiceSpec(mu_star=3.0 * rng.uniform(0.94, 1.06), q_c=35.0 * rng.uniform(0.95, 1.05))
        k_r = 4.0 * rng.uniform(0.95, 1.05)
        q1, q2 = 40.0 * rng.uniform(0.95, 1.05), 82.0 * rng.uniform(0.975, 1.025)
        targets = CalibrationTargets(p1=beta * q1, p2=beta * (2 * q_m - q2))
        try:
            adms = [
                calibrate_linear_admission(targets, price, service, k_r),
                calibrate_cubic_admission(targets, price, service, k_r, 100.0 * rng.uniform(1.0, 1.2)),
            ]
        except CalibrationError:
            continue
        out += [_config(k_r=k_r, price=price, admission=a, service=service) for a in adms]
    return out


class TestCubicCalibrationPositive:
    def test_positive_at_the_float_below_q_max(self):
        # alpha is 0 at q_max in exact arithmetic, so the calibration takes
        # q_max where the float form first reaches 0, which holds it > 0 below
        cubics = [cfg.admission for cfg in _calibrated_configs(5, 40)[1::2]]
        for adm in cubics:
            assert adm.variant == "cubic"
            assert adm._scalar(math.nextafter(adm.q_max, 0.0)) > 0, adm
            assert eval_admission(adm, np.nextafter(adm.q_max, 0.0)) > 0


class TestPieceTables:
    """The piece table of each spec against its kernel and its scalar twin."""

    @staticmethod
    def configs(ref_cfg, section5_cfg, competitive_cfg):
        # a supplied linear q_max may miss the zero crossing, where alpha kinks
        off = AdmissionSpec("linear", LIN.coefficients, q_max=92.5 * (1 + 5e-10))
        extra = [_config(price=p, admission=a) for p in (TRI, SAT, SURGE) for a in (LIN, CUB, off)]
        return [ref_cfg, section5_cfg, competitive_cfg, *extra, *_calibrated_configs(5, 40)]

    @staticmethod
    def samples(spec, rng):
        """q drawn across every piece, every breakpoint and its float
        neighbours, and both zeros."""
        starts = [s for s, _, _ in spec.pieces]
        ends = starts[1:] + [starts[-1] + 100.0]
        drawn = [rng.uniform(a, b, 50) for a, b in zip(starts, ends)]
        near = [np.nextafter(s, -np.inf) for s in starts[1:]] + [np.nextafter(s, np.inf) for s in starts]
        return np.array([*np.concatenate(drawn), *starts, *near, -0.0])

    def test_kernels_and_twins_match_the_tables_bit_for_bit(
        self, ref_cfg, section5_cfg, competitive_cfg
    ):
        rng = np.random.default_rng(11)
        for cfg in self.configs(ref_cfg, section5_cfg, competitive_cfg):
            for spec in (cfg.price, cfg.admission, cfg.service):
                qs = self.samples(spec, rng)
                want = _bits(spec._kernel(qs))
                assert np.array_equal(_bits(from_pieces(spec, qs)), want), spec
                assert np.array_equal(_bits([from_pieces(spec, q) for q in qs.tolist()]), want), spec
                assert np.array_equal(_bits([spec._scalar(q) for q in qs.tolist()]), want), spec

    def test_kink_points_are_the_finite_breakpoints(
        self, ref_cfg, section5_cfg, competitive_cfg
    ):
        rising = _config(admission=AdmissionSpec("linear", (0.1, 0.001)))
        assert rising.kink_points() == (35.0, 45.0, 90.0)
        assert (TRI.kinks, SAT.kinks, SURGE.kinks) == ((45.0, 90.0), (45.0, 75.0), ())
        for cfg in [rising, *self.configs(ref_cfg, section5_cfg, competitive_cfg)]:
            specs = (cfg.price, cfg.admission, cfg.service)
            breaks = {s for spec in specs for s, _, _ in spec.pieces[1:]}
            assert all(map(math.isfinite, breaks))
            assert cfg.kink_points() == tuple(sorted(breaks))
            for spec in specs:
                for k, _, _ in spec.pieces[1:]:
                    # a true kink: the one-sided difference quotients differ
                    h = 1e-6
                    left = (spec._kernel(k) - spec._kernel(k - h)) / h
                    right = (spec._kernel(k + h) - spec._kernel(k)) / h
                    assert abs(right - left) > 1e-9, (spec, k)
                    assert slope(spec, k) == pytest.approx(left, abs=1e-6)

    def test_bisect_ends_on_adjacent_floats(self):
        # a root 600 decades below the bracket's top takes about 2000
        # halvings; the widest finite bracket, onto 0, takes 2099
        calls = []

        def sign(at):
            return lambda q: calls.append(q) or (1.0 if q < at else -1.0)

        assert _bisect(sign(1e-300), 0.0, 1e300, True) in (math.nextafter(1e-300, 0.0), 1e-300)
        calls.clear()
        top = sys.float_info.max
        assert _bisect(sign(5e-324), -top, top, True) in (0.0, 5e-324) and len(calls) == 2099
        calls.clear()
        assert math.isnan(_bisect(sign(1.0), math.nan, 1.0, True)) and len(calls) == 2200

    def test_bisect_midpoint_stays_finite(self):
        # lo + hi overflows near the largest float; the halves do not
        top = sys.float_info.max
        assert _bisect(lambda q: 1.0 if q < top else -1.0, -top, top, True) in (math.nextafter(top, 0.0), top)

    def test_extremum_of_one_function(self):
        assert extremum((TRI.pieces,), 0.0, 200.0, largest=True) == (0.045, 45.0)
        assert extremum((TRI.pieces,), 10.0, 200.0) == (0.0, 90.0)
        assert extremum((SVC.pieces,), 0.0, 50.0, largest=True, order=1)[0] == SVC.mu_star / SVC.q_c

    def test_extremum_solves_a_subnormal_leading_coefficient(self):
        # alpha'' = 6e-5 + 3e-323 q, whose root -2e18 lies far off [0, 100]:
        # alpha' rises across the interval, so it is largest at q = 100
        c = (0.09, -0.0019, 3e-5, 5e-324)
        pieces = ((0.0, 0.0, c),)
        assert extremum((pieces,), 0.0, 100.0, largest=True, order=1) == (_poly(c, 100.0, 1), 100.0)
        assert _poly(c, 100.0, 1) == pytest.approx(0.0041, rel=1e-12)

    def test_extremum_scales_before_it_solves(self):
        # alpha' = -3 + 2e170 q - 3e170 q^2: unscaled, g1^2 overflows, the
        # roots come out +inf and 0, and the maximum at q = 2/3 is missed
        pieces = ((0.0, 0.0, (1.0, -3.0, 1e170, -1e170)),)
        assert extremum((pieces,), 0.0, 1.0, largest=True) == (1.4814814814814814e+169, 0.6666666666666667)
        # alpha' = 5.37e97 - 8.72e156 q - 1.78e199 q^2: a maximum at 6.2e-60
        # that np.roots misses
        pieces = ((0.0, 0.0, (-1.1e-135, 5.37e97, -4.36e156, -5.93e198)),)
        value, q = extremum((pieces,), 0.0, 1.0, largest=True)
        assert q == pytest.approx(5.37e97 / 8.72e156, rel=1e-12)
        assert value == pytest.approx(1.6534919724770645e38, rel=1e-12)

    def test_extremum_against_a_dense_sample(self):
        # seeded linear and cubic alphas, alone and with a price: the result
        # is at least as extreme as each of 4001 samples, and it is the sum
        # of one side's pieces at its q
        rng = np.random.default_rng(29)
        for _ in range(60):
            q_max = rng.uniform(60.0, 140.0)
            a = rng.uniform(0.05, 0.5)
            if rng.random() < 0.5:
                adm = AdmissionSpec("linear", (a, -a / q_max))
            else:
                a1, a2 = -rng.uniform(0.0, 0.01), rng.normal(0.0, 1e-4)
                adm = AdmissionSpec("cubic", (a, a1, a2, -(a + a1 * q_max + a2 * q_max ** 2) / q_max ** 3),
                                    q_max=q_max)
            price = (TRI, SAT, SURGE)[rng.integers(3)]
            for tables in ((adm.pieces,), (adm.pieces, price.pieces)):
                lo, hi = sorted(rng.uniform(0.0, 160.0, 2))
                qs = np.linspace(lo, hi, 4001)
                for order in (0, 1):
                    sample = sum(np.choose(np.maximum(np.searchsorted([s for s, _, _ in t], qs, "right") - 1, 0),
                                           [_poly(c, qs - origin, order) for _, origin, c in t]) for t in tables)
                    value, q = extremum(tables, lo, hi, order=order)
                    assert value <= sample.min() + 1e-15 and lo <= q <= hi
                    assert value in {_one_sided(tables, q, order, side) for side in (bisect_left, bisect_right)}
                    value, q = extremum(tables, lo, hi, largest=True, order=order)
                    assert value >= sample.max() - 1e-15 and lo <= q <= hi
                    assert value in {_one_sided(tables, q, order, side) for side in (bisect_left, bisect_right)}

    @pytest.mark.parametrize("c, line", [
        ((0.1, -0.001), "elif g1:"),  # alpha' constant: no root
        ((0.1, -0.001, 1e-5, 0.0), "roots = (-g0 / g1,)"),  # alpha' a line
        ((0.1, -0.001, 1e-5, -1e-7), "disc = g1 * g1 - 4 * g2 * g0"),  # a complex pair
        ((0.1, 0.0, 0.0, -1e-7), "t = -(g1 + math.copysign(math.sqrt(disc), g1)) / 2"),  # -3e-7 q^2: 0 twice
        ((0.1, -0.003, 1e-4, -1e-6), "roots = (t / g2, g0 / t)"),  # two real roots
    ])
    def test_extremum_reaches_each_closed_form_branch(self, c, line):
        # one stretch: the branch's line is the deepest of the closed form
        # (_real_roots) that the call runs, on coefficients it scaled first
        pieces = ((0.0, 0.0, c),)
        ran = _lines_run((_scaled, _real_roots), extremum, (pieces,), 0.0, 100.0)
        assert "e = math.frexp(max((abs(x) for p in polys for x in p), default=0.0))[1]" in ran
        branches = ["elif g1:", "roots = (-g0 / g1,)", "disc = g1 * g1 - 4 * g2 * g0",
                    "t = -(g1 + math.copysign(math.sqrt(disc), g1)) / 2", "roots = (t / g2, g0 / t)"]
        reached = [b for b in branches if b in ran]
        assert reached[-1] == line


class TestFloatForms:
    """Each spec's float form is generated from its piece table: one maker,
    compiled per table shape, binds each spec's constants."""

    def test_calibrations_share_one_maker(self, ref_cfg):
        from accessprice import model

        before = len(model._makers)
        adms = [calibrate_linear_admission(CalibrationTargets(p1=p1, p2=p2), ref_cfg.price,
                                           ref_cfg.service, ref_cfg.k_r)
                for p1, p2 in ((0.04, 0.008), (0.038, 0.01))]
        assert adms[0].coefficients != adms[1].coefficients
        assert len(model._makers) - before <= 1
        assert adms[0]._scalar.__code__ is adms[1]._scalar.__code__

    def test_sign_of_zero_is_part_of_the_shape(self):
        # alpha = max(0, c2 - q/100) vanishes from q = 0 on, where its value
        # is c2 itself: -0.0 + y == y leaves c2 = -0.0 out of the source
        minus, plus = (AdmissionSpec("linear", (c2, -0.01)) for c2 in (-0.0, 0.0))
        for spec, sign in ((minus, -1.0), (plus, 1.0)):
            value = spec._scalar(0.0)
            assert math.copysign(1.0, value) == sign
            assert np.array_equal(_bits([value]), _bits(spec._kernel(np.array([0.0]))))
        assert minus._scalar.__code__ is not plus._scalar.__code__


class TestPieceLines:
    """The float code of one piece table: a constant piece is one
    assignment, its zero floor taken when the code is generated, and a
    piece whose terms are all >= 0 on its interval has no floor."""

    @staticmethod
    def generate(constant, q):
        """(lines, bound constants, value at q) of a ramp q/2 up to 10, then
        the constant."""
        values, lit = _constants()
        pieces = ((0.0, 0.0, (-0.0, 0.5)), (10.0, 0.0, (constant,)))
        lines = _piece_lines("m", pieces, "q", lit)
        return lines, values, _make(values, ("f(q)", [*lines, "return m"]))(q)

    def test_constant_piece_is_one_assignment(self):
        lines, values, value = self.generate(3.0, 20.0)
        # the ramp q/2 never dips below zero on [0, 10): no floor
        assert lines == ["if q >= c1:", "    m = c0", "else:", "    m = q * c2"]
        assert values == [3.0, 10.0, 0.5] and value == 3.0

    def test_negative_constant_reads_zero(self):
        lines, values, value = self.generate(-3.0, 20.0)
        assert lines[1] == "    m = c0" and values[0] == 0.0 and math.copysign(1.0, values[0]) == 1.0
        assert math.copysign(1.0, value) == 1.0 and value == 0.0

    def test_floor_keeps_minus_zero_and_nan(self):
        lines, values, value = self.generate(-0.0, 20.0)
        assert lines[1] == "    m = c0" and math.copysign(1.0, values[0]) == -1.0
        assert math.copysign(1.0, value) == -1.0
        lines, values, value = self.generate(math.nan, 20.0)
        assert lines[1] == "    m = c0" and math.isnan(values[0]) and math.isnan(value)
        # NaN q falls through to the ramp and stays NaN
        assert math.isnan(self.generate(3.0, math.nan)[2])

    def test_floor_only_where_a_piece_can_dip(self, section5_cfg):
        def floors(spec):
            lines = _piece_lines("v", spec.pieces, "q", _constants()[1])
            return [line.strip() for line in lines].count("if v < 0.0:")

        # every term of section5's price and mu is >= 0 on its piece (the
        # falling leg's (-1)**k signs included); its cubic alpha's is not
        assert [floors(spec) for spec in (section5_cfg.price, section5_cfg.service,
                                          section5_cfg.admission)] == [0, 0, 1]
        # -(q - 1)(q - 3)(q - 5) dips below zero on (1, 3), inside [0, q_max)
        dip = AdmissionSpec("cubic", (15.0, -23.0, 9.0, -1.0), q_max=5.0)
        assert floors(dip) == 1 and _poly(dip.coefficients, 2.0) == -3.0
        qs = np.array([0.5, 2.0, 2.5, 4.0])
        assert dip._scalar(2.0) == 0.0 and math.copysign(1.0, dip._scalar(2.0)) == 1.0
        assert _bits([dip._scalar(q) for q in qs.tolist()]).tolist() == _bits(dip._kernel(qs)).tolist()


def _one_sided(tables, q, order, side):
    """The sum at q of the tables' unfloored pieces, each the last that
    starts at or below q (side=bisect_right) or strictly below it
    (bisect_left), else the first, summed as extremum sums them."""
    total = 0
    for t in tables:
        _, origin, c = t[max(side([s for s, _, _ in t], q) - 1, 0)]
        total += _poly(c, q - origin, order)
    return float(total)


def _lines_run(traced, fn, *args, **kwargs):
    """The stripped source lines of the bodies of the functions traced that
    fn(*args, **kwargs) runs, traced with sys.settrace."""
    ran = {t.__code__: set() for t in traced}

    def trace(frame, event, _):
        if frame.f_code not in ran:
            return None
        if event == "line":
            ran[frame.f_code].add(frame.f_lineno)
        return trace

    outer = sys.gettrace()  # a coverage tracer or debugger, if any, runs on after
    sys.settrace(trace)
    try:
        fn(*args, **kwargs)
    finally:
        sys.settrace(outer)
    lines = set()
    for t in traced:
        source, first = inspect.getsourcelines(t)
        lines |= {source[n - first].strip() for n in ran[t.__code__]}
    return lines


def _piece_value(spec, q, order):
    """from_pieces at one float q by a walk over the table: the last piece
    that starts at or below q (strictly below for slopes), else the first."""
    fits = [p for p in spec.pieces if (p[0] < q if order else p[0] <= q)] or spec.pieces[:1]
    _, origin, c = fits[-1]
    val = _poly(c, q - origin, order)
    return val if order else (0.0 if 0.0 > val else val)


@pytest.fixture(scope="module")
def calibrated():
    return _calibrated_sets(2024, 200)


class TestQueryKinds:
    """Every kind of query gives the bits and the type of the numpy path,
    and the same error: plain floats go through the specs' twins, every
    other kind through the kernels."""

    KINDS = (  # (make the query from a float, scalar result)
        (float, True), (np.float64, True), (np.array, True),
        (lambda q: np.array([q]), False), (lambda q: [q], False),
    )

    @classmethod
    def check(cls, fn, qs, want, stride):
        """fn on every kind of each q against want; the kinds that take the
        numpy path see every stride-th q."""
        want = np.asarray(want, dtype=float)
        for kind, scalar in cls.KINDS:
            step = 1 if kind in (float, np.float64) else stride
            got = [fn(kind(q)) for q in qs[::step].tolist()]
            if scalar:
                assert all(type(v) is float for v in got), kind
            else:
                assert all(type(v) is np.ndarray and v.shape == (1,) for v in got), kind
            assert np.array_equal(_bits(np.ravel(got)), _bits(want[::step])), kind

    @staticmethod
    def configs(ref_cfg, section5_cfg, competitive_cfg, calibrated):
        """(config, stride): the shipped configs in full, the calibrated
        sets with every 25th q on the numpy path."""
        return [(cfg, 1) for cfg in (ref_cfg, section5_cfg, competitive_cfg)] + [(cfg, 25) for cfg in calibrated]

    def test_evaluators(self, ref_cfg, section5_cfg, competitive_cfg, calibrated):
        rng = np.random.default_rng(16)
        for cfg, stride in self.configs(ref_cfg, section5_cfg, competitive_cfg, calibrated):
            specs = ((cfg.price, eval_price), (cfg.admission, eval_admission), (cfg.service, eval_service))
            for spec, evaluate in specs:
                qs = TestPieceTables.samples(spec, rng)
                self.check(lambda q: evaluate(spec, q), qs, spec._kernel(qs), stride)
                for order, fn in ((0, from_pieces), (1, slope)):
                    want = [_piece_value(spec, q, order) for q in qs.tolist()]
                    self.check(lambda q: fn(spec, q), qs, want, stride)

    def test_integer_parameters_still_give_floats(self):
        price = PriceSpec("saturated", beta=1, q_m=45, q_n=75)
        assert type(price._scalar(100.0)) is float  # beta * floor, from q_n on
        qs = TestPieceTables.samples(price, np.random.default_rng(18))
        self.check(lambda q: eval_price(price, q), qs, price._kernel(qs), 1)

    def test_eta_curves(self, ref_cfg, section5_cfg, competitive_cfg, calibrated):
        rng = np.random.default_rng(17)
        for cfg, stride in self.configs(ref_cfg, section5_cfg, competitive_cfg, calibrated):
            qs = TestPieceTables.samples(cfg.admission, rng)
            a = cfg.admission._kernel(qs)
            for q in qs[a <= 0][::stride].tolist():
                for kind, _ in self.KINDS:
                    with pytest.raises(ValueError, match="^alpha\\(q\\) vanishes"):
                        eta2(cfg, kind(q))
            qs, a = qs[a > 0], a[a > 0]
            mu, f = cfg.service._kernel(qs), cfg.price._kernel(qs)
            self.check(lambda q: eta1(cfg, q), qs, mu / a, stride)
            self.check(lambda q: eta2(cfg, q), qs, cfg.k_r / (a + f), stride)
            self.check(lambda q: eta3(cfg, q, 0.5), qs, (mu - a * 0.5) / a, stride)

    @pytest.mark.parametrize("bad", [-1.0, math.nan, np.float64("nan")], ids=repr)
    def test_negative_and_nan_raise_one_error(self, ref_cfg, bad):
        fns = [
            lambda q: eval_price(SAT, q), lambda q: eval_service(SVC, q),
            lambda q: eval_admission(CUB, q), lambda q: slope(LIN, q),
            lambda q: from_pieces(TRI, q), lambda q: eta1(ref_cfg, q),
            lambda q: eta2(ref_cfg, q), lambda q: eta3(ref_cfg, q, 0.5),
        ]
        for fn in fns:
            for kind, _ in self.KINDS:
                with pytest.raises(ValueError, match="^queue length q must be a nonnegative number$"):
                    fn(kind(bad))


class TestQueryContract:
    """Every query but a float reads as np.asarray(q, dtype=float) does: an
    int, a bool or a 0-d query gives the float path's bits as a float, an
    array query the array path's, and a negative or NaN query the one
    error.  Only an array query builds a spec's numpy kernel."""

    KINDS = (  # (make the query, takes only whole numbers)
        (int, True), (bool, True), (np.int64, True), (np.float32, False), (np.array, False),
        (lambda q: [q], False), (lambda q: [[q]], False),
    )

    @staticmethod
    def reference(fn, q):
        arr = np.asarray(q, dtype=float)
        return fn(float(arr) if arr.ndim == 0 else arr)

    @staticmethod
    def outcome(fn, q):
        """(type, bits, shape) of fn(q), or (type, message) of what it raised."""
        try:
            with warnings.catch_warnings():  # float() of a 1-element array is deprecated
                warnings.simplefilter("ignore", DeprecationWarning)
                v = fn(q)
        except (TypeError, ValueError) as exc:  # the residual takes no 1-element array
            return type(exc), str(exc)
        return type(v), _bits(v).tolist(), np.shape(v)

    def test_every_kind_reads_as_numpy_reads_it(self, ref_cfg, section5_cfg):
        evaluators = ((TRI, eval_price), (SAT, eval_price), (SURGE, eval_price), (SVC, eval_service),
                      (LIN, eval_admission), (CUB, eval_admission))
        fns = [lambda q, spec=spec, e=e: e(spec, q) for spec, ev in evaluators for e in (ev, from_pieces, slope)]
        fns += [lambda q, cfg=cfg, k_u=k_u: fixed_point_residual(q, cfg, "saturated", k_u)
                for cfg, k_u in ((ref_cfg, 0.0), (section5_cfg, 0.5))]
        queries = [0.0, 1.0, 35.0, 45.0, 75.0, 90.0, 92.0, 100.0, 101.0, 0.3, 44.999, 92.49, -1.0, math.nan]
        seen = set()
        for kind, whole in self.KINDS:
            for q in queries:
                if whole and not (math.isfinite(q) and q == int(q)):
                    continue
                query = kind(int(q)) if whole else kind(q)
                for fn in fns:
                    got = self.outcome(fn, query)
                    assert got == self.outcome(lambda x: self.reference(fn, x), query), (kind, q)
                    seen.add(got[0])
        assert seen == {float, np.ndarray, TypeError, ValueError, ResidualUndefinedError}

    @pytest.mark.parametrize("make", [
        lambda: PriceSpec("saturated", beta=1e-3, q_m=45.0, q_n=75.0), lambda: PriceSpec("surge", beta=1e-3),
        lambda: ServiceSpec(3.0, 35.0), lambda: AdmissionSpec("linear", (0.21, -0.0023)),
        lambda: AdmissionSpec("cubic", CUB.coefficients, 100.0)], ids=["saturated", "surge", "service", "linear", "cubic"])
    def test_the_kernel_is_built_on_the_first_array_query(self, make):
        spec, twin = make(), make()
        before = repr(spec), hash(spec)
        for q in (0.0, 50.0, 3, True, np.float32(7.5), np.array(60.0)):
            _evaluate(spec, q)
            from_pieces(spec, q), slope(spec, q)
        from_pieces(spec, np.array([1.0, 2.0]))  # from the table, not the kernel
        assert "_kernel" not in vars(spec)
        assert _bits(_evaluate(spec, [50.0])).tolist() == _bits([_evaluate(spec, 50.0)]).tolist()
        assert vars(spec)["_kernel"] is spec._kernel
        assert (repr(spec), hash(spec)) == before and spec == twin and "_kernel" not in vars(twin)


class TestFromPiecesFarBeyond:
    """Each piece is evaluated only up to its end, so arrays far beyond the
    last breakpoint do not overflow."""

    def test_shipped_specs_with_warnings_as_errors(self, ref_cfg, section5_cfg, competitive_cfg):
        qs = np.array([0.0, 50.0, 1e120, 1e300, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for cfg in (ref_cfg, section5_cfg, competitive_cfg):
                for spec in (cfg.price, cfg.admission, cfg.service):
                    assert np.array_equal(_bits(from_pieces(spec, qs)), _bits(spec._kernel(qs))), spec
                    want = [_piece_value(spec, q, 1) for q in qs.tolist()]
                    assert np.array_equal(_bits(slope(spec, qs)), _bits(want)), spec

    def test_linear_kernel_caps_q(self):
        # q is capped at the first float where c1*q + c2 < 0, past which c1*q
        # may overflow: a steep alpha = 1e308*(1 - q) vanishes from q_max = 1;
        # the others have no tail (q_max 0 or inf), and with c2 = -0.0 alpha
        # is -0.0 at q = 0, and where c1*q underflows, as the table has it
        coeffs = [(1e308, -1e308), (-1e308, -1e308), (-0.0, -0.01), (-0.0, -5e-324), (0.1, 0.001)]
        specs = [AdmissionSpec("linear", c) for c in coeffs]
        assert [spec.q_max for spec in specs] == [1.0, 0.0, 0.0, 0.0, math.inf]
        qs = np.array([0.0, -0.0, 0.25, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, 1e300, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for spec in specs:  # against the float form: from_pieces would overflow past q = 1
                want = _bits([spec._scalar(q) for q in qs.tolist()])
                assert np.array_equal(_bits(spec._kernel(qs)), want), spec
        assert _bits(specs[2]._kernel(qs[:3])).tolist() == _bits([-0.0, 0.0, 0.0]).tolist()
        assert _bits(specs[3]._kernel(qs[:5])).tolist() == _bits([-0.0, 0.0, -0.0, -0.0, 0.0]).tolist()


class TestArrayOverflowReadsInf:
    """An array query whose value overflows reads +-inf, and then the floor,
    as the float query does, with warnings as errors."""

    @pytest.mark.parametrize("evaluate, spec, q, value", [
        (eval_price, PriceSpec("surge", beta=1e306), 1000.0, math.inf),
        (eval_admission, AdmissionSpec("linear", (0.1, 1e306)), 1000.0, math.inf),
        (from_pieces, AdmissionSpec("linear", (-1e308, -1e308)), 2.0, 0.0),  # -inf, floored
    ])
    def test_as_the_float_query(self, evaluate, spec, q, value):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate(spec, np.array([q]))
        assert _bits(got).tolist() == _bits([evaluate(spec, q)]).tolist() == _bits([value]).tolist()


class TestNaNQuery:
    """A NaN queue length is a named error, not a silent NaN or 0."""

    def test_admission_slope(self):
        with pytest.raises(ValueError, match="queue length q"):
            slope(LIN, math.nan)

    def test_eval_price(self):
        with pytest.raises(ValueError, match="queue length q"):
            eval_price(TRI, np.array([1.0, math.nan]))


class TestListQuery:
    """A list of queue lengths evaluates as the array of them."""

    @pytest.mark.parametrize("fn, spec", [
        (eval_price, TRI), (eval_service, SVC), (eval_admission, CUB), (slope, TRI),
        (from_pieces, LIN),
    ])
    def test_matches_array(self, fn, spec):
        got = fn(spec, [1.0, 45.0, 95.0])
        assert isinstance(got, np.ndarray)
        assert np.array_equal(_bits(got), _bits(fn(spec, np.array([1.0, 45.0, 95.0]))))


class TestModelConfig:
    def test_overlapping_schedule_rejected(self, ref_cfg):
        with pytest.raises(ValueError, match="overlap"):
            ModelConfig(
                k_r=4.0,
                k_u_schedule=((0.0, 10.0, 1.0), (5.0, 20.0, 2.0)),
                price=TRI,
                admission=LIN,
                service=SVC,
            )

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ModelConfig(
                k_r=4.0,
                k_u_schedule=((0.0, 10.0, -1.0),),
                price=TRI,
                admission=LIN,
                service=SVC,
            )

    def test_schedule_rate_lookup(self, section5_cfg):
        assert section5_cfg.schedule_rate(50.0) == 0.0
        assert section5_cfg.schedule_rate(100.0) == 4.0
        assert section5_cfg.schedule_rate(299.999) == 4.0
        assert section5_cfg.schedule_rate(300.0) == 0.0

    def test_kink_points(self, ref_cfg):
        assert ref_cfg.kink_points() == (35.0, 45.0, 90.0, 92.5)


def _config(**kw):
    args = dict(k_r=4.0, k_u_schedule=(), price=TRI, admission=LIN, service=SVC)
    args.update(kw)
    return ModelConfig(**args)


CUBIC = (0.09, -0.0019, 3e-05, -2e-07)


class TestNonFinite:
    """NaN and +-inf are rejected by name in every spec."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name, build",
        [
            pytest.param("beta", lambda v: PriceSpec("triangular", beta=v, q_m=45.0), id="beta"),
            pytest.param("q_m", lambda v: PriceSpec("triangular", beta=1e-3, q_m=v), id="q_m"),
            pytest.param("q_n", lambda v: PriceSpec("saturated", beta=1e-3, q_m=45.0, q_n=v),
                         id="q_n"),
            pytest.param("mu_star", lambda v: ServiceSpec(mu_star=v, q_c=35.0), id="mu_star"),
            pytest.param("q_c", lambda v: ServiceSpec(mu_star=3.0, q_c=v), id="q_c"),
            pytest.param("coefficients", lambda v: AdmissionSpec("linear", (0.2, v)),
                         id="linear-coefficient"),
            pytest.param("coefficients", lambda v: AdmissionSpec("cubic", (v, *CUBIC[1:]), q_max=100.0),
                         id="cubic-coefficient"),
            pytest.param("q_max", lambda v: AdmissionSpec("cubic", CUBIC, q_max=v), id="cubic-q_max"),
            pytest.param("q_max", lambda v: AdmissionSpec("linear", (0.2, 0.001), q_max=v),
                         id="linear-q_max"),
            pytest.param("k_r", lambda v: _config(k_r=v), id="k_r"),
            pytest.param("q_ad", lambda v: _config(q_ad=v), id="q_ad"),
            pytest.param(r"k_u_schedule\[1\]: values",
                         lambda v: _config(k_u_schedule=((0.0, 1.0, 1.0), (2.0, v, 1.0))),
                         id="schedule-end"),
            pytest.param(r"k_u_schedule\[0\]: values",
                         lambda v: _config(k_u_schedule=((v, 1.0, 1.0),)), id="schedule-start"),
            pytest.param(r"k_u_schedule\[0\]: values",
                         lambda v: _config(k_u_schedule=((0.0, 1.0, v),)), id="schedule-rate"),
        ],
    )
    def test_rejected_by_name(self, name, build, bad):
        with pytest.raises(ValueError, match=rf"^{name} must be finite$"):
            build(bad)

    def test_derived_infinite_q_max_still_reported(self):
        adm = AdmissionSpec("linear", (0.1, 0.001))
        report = validate_admissible(_config(admission=adm))
        assert report.clause("alpha-zero-beyond-qmax").detail == "q_max is infinite"


def test_closed_forms_call_no_numpy_solver():
    # the library solves its polynomials and linear systems in closed form
    # or by bisection on floats: no LAPACK call (np.linalg, np.roots'
    # companion matrix) and no np.polynomial root finder, which are
    # reproducible only per numpy/LAPACK build
    src = Path(__file__).resolve().parent.parent / "src" / "accessprice"
    for name in sorted(path.name for path in src.glob("*.py")):
        used = set()
        for top in ast.parse((src / name).read_text()).body:  # each use, by its top-level definition
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute):
                    used.add((name, getattr(top, "name", None), ast.unparse(node)))
                elif isinstance(node, ast.ImportFrom) and node.module:
                    used |= {(name, None, f"{node.module}.{a.name}") for a in node.names}
        banned = [u for u in used if u[2].replace("numpy.", "np.").startswith(
            ("np.roots", "np.trim_zeros", "np.linalg", "np.polynomial"))]
        assert banned == [], banned
