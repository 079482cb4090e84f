import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from accessprice.equilibria import (
    CalibrationError,
    CalibrationTargets,
    calibrate_cubic_admission,
    calibrate_linear_admission,
)
from accessprice.model import (
    AdmissionSpec,
    _cubic_slope_max,
    _poly,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    admission_slope,
    eval_admission,
    eval_price,
    eval_service,
    extremum,
    from_pieces,
    price_slope,
    saturation_floor,
    service_slope,
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
        assert admission_slope(LIN, LIN.q_max) == c1
        assert admission_slope(LIN, LIN.q_max + 1e-6) == 0.0

    def test_cubic_eval_and_slope(self):
        cub = AdmissionSpec(
            variant="cubic", coefficients=(0.2, -0.001, -1e-5, 1e-8), q_max=100.0
        )
        q = 50.0
        a0, a1, a2, a3 = cub.coefficients
        assert eval_admission(cub, q) == pytest.approx(
            a0 + a1 * q + a2 * q**2 + a3 * q**3, abs=1e-15
        )
        assert admission_slope(cub, q) == pytest.approx(
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

    def test_inconsistent_qmax_rejected(self):
        with pytest.raises(ValueError, match="q_max"):
            AdmissionSpec(
                variant="linear",
                coefficients=(0.21142857142857144, -0.002285714285714286),
                q_max=90.0,
            )

    def test_wrong_coefficient_count(self):
        with pytest.raises(ValueError):
            AdmissionSpec(variant="cubic", coefficients=(1.0, 2.0), q_max=10.0)

    @given(st.floats(min_value=0.0, max_value=92.49))
    def test_slope_nonpositive_below_qmax(self, q):
        assert admission_slope(LIN, q) <= 0

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
            assert admission_slope(spec, q) == pytest.approx(
                central_diff(lambda x: eval_admission(spec, x), q), abs=1e-6
            )

    @pytest.mark.parametrize("q", [5.0, 30.0, 60.0, 80.0, 100.0])
    def test_price_slope_fd(self, q):
        for spec in (TRI, SAT, SURGE):
            kinks = spec.kinks
            if any(abs(q - k) < 1e-3 for k in kinks):
                continue
            assert price_slope(spec, q) == pytest.approx(
                central_diff(lambda x: eval_price(spec, x), q), abs=1e-6
            )

    @pytest.mark.parametrize("q", [5.0, 20.0, 40.0, 70.0])
    def test_service_slope_fd(self, q):
        assert service_slope(SVC, q) == pytest.approx(
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
        assert _cubic_slope_max((300.0, -200.37, 15.0, -1 / 3), 30.0) == pytest.approx(24.63)
        adm = section5_cfg.admission
        assert _cubic_slope_max(adm.coefficients, adm.q_max) < 0

    def test_cubic_zero_just_short_of_q_max_fails(self, section5_cfg):
        # seeded: alpha rounds to 0.0 at the float below q_max, between the
        # last grid point and q_max
        from dataclasses import replace

        adm = AdmissionSpec("cubic", (
            0.2133335049522837, -0.00015747321238155574, -4.287018823703813e-05, 2.3267910409808236e-07,
        ), q_max=100.9055038780489)
        assert adm._scalar(math.nextafter(adm.q_max, 0.0)) == 0.0
        clause = validate_admissible(replace(section5_cfg, admission=adm)).clause("alpha-positive-decreasing")
        assert not clause.passed
        assert clause.detail == "grid of 1000 points on [0, 100.906)"

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


class TestSaturationFloor:
    def test_reference_value(self, section5_cfg):
        assert saturation_floor(section5_cfg) == pytest.approx(0.015, abs=1e-15)

    def test_wrong_variant(self, ref_cfg):
        with pytest.raises(ValueError, match="saturated"):
            saturation_floor(ref_cfg)

    def test_discontinuous_alpha_still_grid_minimum(self, section5_cfg):
        from dataclasses import replace

        # cubic that jumps from 0.1 to 0 at q_max; the grid minimum is the
        # price-floor tail where alpha has vanished
        jumpy = AdmissionSpec(
            variant="cubic", coefficients=(0.2, -0.001, 0.0, 0.0), q_max=100.0
        )
        cfg = replace(section5_cfg, admission=jumpy)
        assert saturation_floor(cfg) == pytest.approx(0.015, abs=1e-15)

    def test_exact_interior_minimum(self, section5_cfg):
        from dataclasses import replace

        # alpha + f = 0.01 - 0.001 q + 1e-4 q^2 on [0, q_m] is least at q = 5,
        # where it is 0.0075; a grid of the interval misses that point
        dipping = AdmissionSpec("cubic", (0.01, -0.002, 1e-4, 0.0), q_max=100.0)
        cfg = replace(section5_cfg, admission=dipping)
        assert saturation_floor(cfg) == pytest.approx(0.0075, abs=1e-15)


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
        # several alpha0 candidates of these seeded scans are monotone but
        # round to alpha <= 0 at nextafter(q_max, 0); they are skipped
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

    def test_extremum_of_one_function(self):
        assert extremum((TRI.pieces,), 0.0, 200.0, largest=True) == (0.045, 45.0)
        assert extremum((TRI.pieces,), 10.0, 200.0) == (0.0, 90.0)
        assert extremum((SVC.pieces,), 0.0, 50.0, largest=True, order=1)[0] == SVC.mu_star / SVC.q_c


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
        assert type(price._scalar(100.0)) is int  # beta * floor, from q_n on
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


class TestNaNQuery:
    """A NaN queue length is a named error, not a silent NaN or 0."""

    def test_admission_slope(self):
        with pytest.raises(ValueError, match="queue length q"):
            admission_slope(LIN, math.nan)

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
