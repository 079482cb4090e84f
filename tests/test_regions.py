import dataclasses
import gc
import math
import sys
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from conftest import price_scaled
from test_equilibria import _counted
from accessprice import dynamics, model, regions
from accessprice.dynamics import NORMAL, competitive_mode, final_states
from accessprice.equilibria import (
    CalibrationError,
    CalibrationTargets,
    calibrate_linear_admission,
    find_fixed_points,
)
from accessprice.model import AdmissionSpec, ModelConfig, PriceSpec, ServiceSpec, eval_admission
from accessprice.regions import (
    FaceReport,
    InvarianceReport,
    RegionSpec,
    build_cuboid,
    build_polygon,
    check_invariance,
    eta1,
    eta1_inverse,
    eta2,
    eta3,
    halfspaces,
    phase_grid,
    q_dagger,
    r_dagger,
)


class TestEtaCurves:
    def test_eta1_hand_values(self, ref_cfg):
        assert eta1(ref_cfg, 0.0) == 0.0
        assert eta1(ref_cfg, 70.0) == pytest.approx(58.333333333333336, rel=1e-12)

    def test_eta2_hand_values(self, ref_cfg):
        assert eta2(ref_cfg, 0.0) == pytest.approx(18.91891891891892, rel=1e-12)
        assert eta2(ref_cfg, 70.0) == pytest.approx(56.0, rel=1e-9)

    def test_eta3_shift(self, ref_cfg):
        assert eta3(ref_cfg, 50.0, 10.0) == pytest.approx(
            eta1(ref_cfg, 50.0) - 10.0, rel=1e-12
        )

    def test_nan_query_is_named(self, ref_cfg):
        with pytest.raises(ValueError, match="queue length q"):
            eta2(ref_cfg, math.nan)

    @pytest.mark.parametrize("eta", [eta1, eta2])
    def test_list_query_matches_array(self, ref_cfg, eta):
        qs = [1.0, 45.0, 70.0]
        assert np.array_equal(eta(ref_cfg, qs), eta(ref_cfg, np.array(qs)))

    # (make the query from an int, scalar result); ints are exact as floats
    KINDS = [
        (float, True), (int, True), (np.float64, True), (np.array, True),
        (lambda q: [q, q], False), (lambda q: np.array([q, q]), False),
    ]

    @pytest.mark.parametrize("kind, scalar", KINDS)
    def test_query_kinds_keep_type_and_bits(self, ref_cfg, section5_cfg, kind, scalar):
        # a Python float for every scalar query, an array otherwise; the bits
        # of the kernels' quotients either way
        for cfg in (ref_cfg, section5_cfg):
            qs = np.array([0.0, 10.0, 35.0, 45.0, 50.0, 75.0, 92.0])
            a, mu, f = (spec._kernel(qs) for spec in (cfg.admission, cfg.service, cfg.price))
            cases = [
                (lambda q: eta1(cfg, q), mu / a),
                (lambda q: eta2(cfg, q), cfg.k_r / (a + f)),
                (lambda q: eta3(cfg, q, 0.5), (mu - a * 0.5) / a),
            ]
            for fn, want in cases:
                for q, w in zip(qs.astype(int).tolist(), want.tolist()):
                    got = fn(kind(q))
                    if scalar:
                        assert type(got) is float and got.hex() == w.hex(), (kind, q)
                    else:
                        assert type(got) is np.ndarray
                        assert [v.hex() for v in got.tolist()] == [w.hex()] * 2, (kind, q)

    @pytest.mark.parametrize("kind, scalar", KINDS)
    def test_vanishing_errors_keep_their_messages(self, ref_cfg, kind, scalar):
        q_max = int(ref_cfg.admission.q_max) + 1  # alpha is 0 from q_max on
        for eta in (eta1, eta2, lambda cfg, q: eta3(cfg, q, 0.5)):
            with pytest.raises(ValueError, match=r"^alpha\(q\) vanishes at or beyond q_max; eta undefined$"):
                eta(ref_cfg, kind(q_max))
        # no admissible price is negative, so a stub price makes alpha + f vanish
        def negated_alpha(q):
            return -eval_admission(ref_cfg.admission, q)
        price = types.SimpleNamespace(_scalar=negated_alpha, _kernel=negated_alpha)
        stub = dataclasses.replace(ref_cfg, price=price)
        with pytest.raises(ValueError, match=r"^alpha \+ f vanishes; eta2 undefined$"):
            eta2(stub, kind(10))

    def test_domain_error_beyond_qmax(self, ref_cfg):
        with pytest.raises(ValueError):
            eta1(ref_cfg, 93.0)
        with pytest.raises(ValueError):
            eta2(ref_cfg, 92.5)

    def test_eta1_strictly_increasing(self, ref_cfg):
        qs = np.linspace(1e-6, 92.4, 1000)
        vals = eta1(ref_cfg, qs)
        assert np.all(np.diff(vals) > 0)

    def test_eta2_increasing_beyond_peak(self, ref_cfg):
        qs = np.linspace(45.0, 92.4, 1000)
        vals = eta2(ref_cfg, qs)
        assert np.all(np.diff(vals) > 0)

    def test_sign_pattern_between_nullclines(self, ref_cfg):
        # eta1 < eta2 before q1*, eta2 < eta1 between the equilibria,
        # eta1 < eta2 beyond q2*
        for lo, hi, first_below in [
            (1e-3, 40.0 - 1e-6, True),
            (40.0 + 1e-6, 82.0 - 1e-6, False),
            (82.0 + 1e-6, 92.4, True),
        ]:
            qs = np.linspace(lo, hi, 400)
            e1, e2 = eta1(ref_cfg, qs), eta2(ref_cfg, qs)
            if first_below:
                assert np.all(e1 < e2)
            else:
                assert np.all(e2 < e1)


class TestDaggers:
    def test_r_dagger_value(self, ref_cfg):
        # alpha + f is decreasing on [0, q_m], so the max sits at q_m
        assert r_dagger(ref_cfg) == pytest.approx(26.046511627906977, abs=1e-6)

    def test_q_dagger_value(self, ref_cfg):
        assert q_dagger(ref_cfg) == pytest.approx(42.109375, abs=1e-6)

    def test_dagger_lower_bound(self, ref_cfg):
        # R_dagger >= max(K_R/alpha(0), R1*)
        fps = find_fixed_points(ref_cfg, "normal")
        bound = max(ref_cfg.k_r / 0.21142857142857144, fps[0].r_star)
        assert r_dagger(ref_cfg) >= bound - 1e-12

    def test_interior_maximum_found(self, competitive_cfg):
        # for this admission the max of eta2 on [0, q_m] sits at q = 0
        assert r_dagger(competitive_cfg) == pytest.approx(
            eta2(competitive_cfg, 0.0), rel=1e-9
        )

    def test_eta1_inverse_roundtrip(self, ref_cfg):
        for r in (5.0, 26.05, 58.0):
            q = eta1_inverse(ref_cfg, r)
            assert eta1(ref_cfg, q) == pytest.approx(r, rel=1e-9)

    @pytest.mark.parametrize("name", ["ref", "section5", "competitive"])
    def test_eta1_inverse_matches_bisection_on_public_eta1(
        self, name, ref_cfg, section5_cfg, competitive_cfg
    ):
        cfg = {"ref": ref_cfg, "section5": section5_cfg, "competitive": competitive_cfg}[name]
        q_top = _bisection_top(cfg)
        rng = np.random.default_rng(12)
        # seeded r, R_dagger, and r = eta1(q) exactly, where the bisection
        # must keep halving past the hit
        rs = [r_dagger(cfg), *rng.uniform(0.0, eta1(cfg, q_top), 150)]
        rs += [eta1(cfg, q) for q in rng.uniform(0.0, q_top, 50)]
        for r in rs:
            assert eta1_inverse(cfg, r) == _eta1_inverse_on_public_eta1(cfg, r), r

    @pytest.mark.parametrize("r", [1e-30, 1e-200, 5e-324])
    def test_eta1_inverse_ends_on_adjacent_floats(self, ref_cfg, r):
        # the bisection runs until its ends are adjacent floats, however
        # many halvings below q_max the root lies
        q = eta1_inverse(ref_cfg, r)
        pairs = [(math.nextafter(q, 0.0), q), (q, math.nextafter(q, math.inf))]
        assert any(eta1(ref_cfg, lo) < r <= eta1(ref_cfg, hi) for lo, hi in pairs), q

    def test_eta1_inverse_on_a_bracket_near_the_largest_float(self, ref_cfg):
        # q_max is about 1.79e308: the bracket's ends sum past the largest float
        cfg = dataclasses.replace(ref_cfg, admission=AdmissionSpec("linear", (1.0, -5.6e-309)))
        q = eta1_inverse(cfg, 1e3)
        assert eta1(cfg, math.nextafter(q, 0.0)) < 1e3 <= eta1(cfg, q) and q < cfg.admission.q_max

    def test_daggers_call_no_numpy(self, ref_cfg, section5_cfg, competitive_cfg, monkeypatch):
        # r_dagger and q_dagger run on plain floats: with numpy unimportable,
        # specs whose array kernels were never built give each shipped config
        # the same bits
        cfgs = [ref_cfg, section5_cfg, competitive_cfg]
        want = [(r_dagger(cfg).hex(), q_dagger(cfg).hex()) for cfg in cfgs]
        bare = [dataclasses.replace(cfg, **{name: dataclasses.replace(getattr(cfg, name))
                                            for name in ("price", "admission", "service")}) for cfg in cfgs]
        assert not hasattr(regions, "np") and not hasattr(model, "np")
        monkeypatch.setitem(sys.modules, "numpy", None)  # `import numpy` now raises ImportError
        assert [(r_dagger(cfg).hex(), q_dagger(cfg).hex()) for cfg in bare] == want
        assert not any("_kernel" in vars(spec) for cfg in bare for spec in (cfg.price, cfg.admission, cfg.service))

    def test_eta1_inverse_below_a_tiny_q_max(self, ref_cfg):
        # q_max = 1e-14, where the top q_max*(1 - 1e-12) - 1e-12 is negative:
        # the bisection runs up to the float below q_max
        cfg = dataclasses.replace(ref_cfg, admission=AdmissionSpec("linear", (2e-14, -2.0)))
        assert cfg.admission.q_max == 1e-14
        q = eta1_inverse(cfg, 1.0)
        assert 0.0 < q < 1e-14
        pairs = [(math.nextafter(q, 0.0), q), (q, math.nextafter(q, math.inf))]
        assert any(eta1(cfg, lo) < 1.0 <= eta1(cfg, hi) for lo, hi in pairs), q
        with pytest.raises(ValueError, match="^eta1 stays below 1e\\+20 on its domain$"):
            eta1_inverse(cfg, 1e20)

    def test_daggers_kept_on_the_config(self, ref_cfg, monkeypatch):
        # polygon, cuboid and validate's q_ad clause share one R_dagger (its
        # pair of extrema) and one q_dagger (its bisection)
        rd, qd = r_dagger(ref_cfg), eta1_inverse(ref_cfg, r_dagger(ref_cfg))
        cfg = dataclasses.replace(ref_cfg)  # a new config: nothing kept yet
        extrema = _counted(monkeypatch, regions, "extremum")
        inverses = _counted(monkeypatch, regions, "eta1_inverse")
        build_polygon(cfg)
        build_cuboid(cfg, k_u=0.0)
        assert model.validate_admissible(cfg).clause("q-ad-above-q-dagger").passed
        assert len(extrema) == 2 and [r for _, r in inverses].count(rd) == 1
        assert (cfg._r_dagger, cfg._q_dagger, q_dagger(cfg)) == (rd, qd, qd)

    def test_dagger_errors_are_raised_again(self, ref_cfg):
        # a constant alpha: R2* = 30 <= R_dagger = 40, and eta1 = mu/alpha
        # never reaches 40, so q_dagger is undefined; the anchor names R2*
        cfg = dataclasses.replace(ref_cfg, admission=AdmissionSpec("linear", (0.1, 0.0)))
        surge = dataclasses.replace(ref_cfg, price=PriceSpec("surge", beta=1e-3))
        for _ in range(2):
            with pytest.raises(ValueError, match="^hypothesis R2\\* > R_dagger violated: 30 <= 40$"):
                build_polygon(cfg)
            with pytest.raises(ValueError, match="^eta1 stays below 40 on its domain$"):
                q_dagger(cfg)
            with pytest.raises(ValueError, match="^r_dagger needs a price variant with a peak q_m$"):
                q_dagger(surge)
        assert "_q_dagger" not in vars(cfg) and "_r_dagger" not in vars(surge)

    def test_a_dropped_config_is_collected(self, ref_cfg):
        # the kept values live on the config and its specs, which nothing else holds
        targets = CalibrationTargets(p1=0.04, p2=0.008)
        adm = calibrate_linear_admission(targets, ref_cfg.price, ref_cfg.service, ref_cfg.k_r)
        cfg = dataclasses.replace(ref_cfg, admission=adm)
        assert model.validate_admissible(cfg).passed
        check_invariance(cfg, build_polygon(cfg), NORMAL, 100)
        phase_grid(cfg, NORMAL, (0.0, 150.0), (0.0, 100.0), 10)
        check_invariance(cfg, build_cuboid(cfg, k_u=0.0), competitive_mode(0.0), 100)
        assert {"_r_dagger", "_q_dagger"} <= set(vars(cfg))
        assert {"_clauses", "_repr", "_kernel"} <= set(vars(adm))
        dropped = [weakref.ref(cfg), weakref.ref(adm)]
        del cfg, adm
        gc.collect()
        assert [ref() for ref in dropped] == [None, None]

    def test_eta1_inverse_vanishing_alpha_is_named(self, ref_cfg):
        # alpha = 0.1 (q - 1)(q - 3) clamped at 0: zero on [1, 3], positive near q_max
        adm = AdmissionSpec("cubic", (0.3, -0.4, 0.1, 0.0), q_max=10.0)
        cfg = dataclasses.replace(ref_cfg, admission=adm)
        with pytest.raises(ValueError, match="alpha\\(q\\) vanishes"):
            eta1_inverse(cfg, 0.1)

    def test_eta1_inverse_nan_is_named(self, ref_cfg):
        with pytest.raises(ValueError, match="r >= 0"):
            eta1_inverse(ref_cfg, math.nan)

    def test_r_dagger_matches_grid_and_golden_section(self, ref_cfg, competitive_cfg):
        cfgs = [ref_cfg, competitive_cfg, *_linear_calibrations(7, 200)]
        for cfg in cfgs:
            assert r_dagger(cfg) == _r_dagger_by_scan(cfg), cfg

    def test_r_dagger_interior_maximum_is_exact(self, section5_cfg):
        # alpha + f = beta*q + cubic on [0, q_m] is least where beta + alpha'(q) = 0
        cfg = section5_cfg
        _, a1, a2, a3 = cfg.admission.coefficients
        a, b, c = 3 * a3, 2 * a2, a1 + cfg.price.beta
        q_root = (-b + math.sqrt(b * b - 4 * a * c)) / (2 * a)  # a < 0: the smaller root
        assert 18.5 < q_root < 19.0
        rd = r_dagger(cfg)
        assert rd == eta2(cfg, q_root)
        assert rd >= np.max(eta2(cfg, np.linspace(0.0, cfg.price.q_m, 200001)))
        assert rd >= _r_dagger_by_scan(cfg)

    @pytest.mark.parametrize("beta", [0.001, 1.0])
    def test_r_dagger_vanishing_alpha_is_named(self, ref_cfg, beta):
        # alpha = 0.1 (q - 1)(q - 3) clamped at 0 is zero on [1, 3], inside [0, q_m];
        # at beta = 1.0 only the root of alpha' (q = 2) finds that
        adm = AdmissionSpec("cubic", (0.3, -0.4, 0.1, 0.0), q_max=10.0)
        price = PriceSpec("triangular", beta=beta, q_m=5.0)
        cfg = dataclasses.replace(ref_cfg, admission=adm, price=price)
        with pytest.raises(ValueError, match="alpha\\(q\\) vanishes"):
            r_dagger(cfg)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(fn, lo, hi, tol=1e-10):
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fn(c)
    return 0.5 * (a + b)


def _r_dagger_by_scan(cfg):
    """R_dagger by a 1000-point grid and golden-section refinement: the reference."""
    qs = np.linspace(0.0, cfg.price.q_m, 1000)
    vals = eta2(cfg, qs)
    i = int(np.argmax(vals))
    lo, hi = qs[max(0, i - 1)], qs[min(len(qs) - 1, i + 1)]
    q_best = _golden_max(lambda q: eta2(cfg, float(q)), lo, hi)
    return max(float(np.max(vals)), eta2(cfg, q_best))


def _linear_calibrations(seed, n):
    """n linear admissions calibrated from targets drawn near ref's."""
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
            adm = calibrate_linear_admission(targets, price, service, k_r)
        except CalibrationError:
            continue
        out.append(ModelConfig(k_r=k_r, k_u_schedule=(), price=price, admission=adm, service=service))
    return out


def _bisection_top(cfg):
    q_max = cfg.admission.q_max
    return q_max * (1 - 1e-12) - 1e-12 if math.isfinite(q_max) else cfg.service.q_c * 1e6


def _eta1_inverse_on_public_eta1(cfg, r):
    """eta1_inverse's bisection written on the validating public eta1: the reference."""
    lo, hi = 0.0, _bisection_top(cfg)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if eta1(cfg, mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestBuildPolygon:
    def test_reference_vertices(self, ref_cfg):
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        A, B, C, D, E = poly.vertices
        assert A == (0.0, 0.0)
        assert B == (0.0, 70.0)
        assert C[0] == pytest.approx(56.0, rel=1e-9) and C[1] == 70.0
        assert D[0] == 58.0
        assert D[1] == pytest.approx(69.87068965517241, abs=1e-6)
        assert E == (58.0, 0.0)

    def test_counterclockwise_in_q_r_plane(self, ref_cfg):
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        pts = [(q, r) for r, q in poly.vertices]
        area = sum(
            pts[i][0] * pts[(i + 1) % 5][1] - pts[(i + 1) % 5][0] * pts[i][1]
            for i in range(5)
        )
        assert area > 0

    def test_q_choice_interval_open(self, ref_cfg):
        with pytest.raises(ValueError, match="q_choice"):
            build_polygon(ref_cfg, 82.0, 58.0)
        with pytest.raises(ValueError, match="q_choice"):
            build_polygon(ref_cfg, 42.0, 58.0)

    def test_r_choice_right_endpoint_closed(self, ref_cfg):
        hi = eta1(ref_cfg, 70.0)
        poly = build_polygon(ref_cfg, 70.0, hi)
        assert poly.vertices[3][0] == hi
        with pytest.raises(ValueError, match="r_choice"):
            build_polygon(ref_cfg, 70.0, hi + 1e-9)

    def test_r_choice_lower_bound_open(self, ref_cfg):
        with pytest.raises(ValueError, match="r_choice"):
            build_polygon(ref_cfg, 70.0, 55.9)
        with pytest.raises(ValueError, match="r_choice"):
            build_polygon(ref_cfg, 70.0, eta2(ref_cfg, 70.0))

    def test_default_midpoints(self, ref_cfg):
        poly = build_polygon(ref_cfg)
        assert poly.vertices[1][1] == pytest.approx((42.109375 + 82.0) / 2, abs=1e-4)


class TestCheckInvariance:
    def test_reference_polygon_passes(self, ref_cfg):
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        rep = check_invariance(ref_cfg, poly, NORMAL, 200)
        assert rep.passed
        cd = next(f for f in rep.faces if f.name == "CD")
        assert cd.worst < 0

    def test_invalid_polygon_fails_on_cd(self, ref_cfg):
        # r beyond eta1(q_choice): part of CD sits where qdot > 0
        bad = RegionSpec(
            kind="polygon2d",
            vertices=(
                (0.0, 0.0),
                (0.0, 70.0),
                (56.0, 70.0),
                (59.0, 69.9),
                (59.0, 0.0),
            ),
        )
        rep = check_invariance(ref_cfg, bad, NORMAL, 500)
        assert not rep.passed
        cd = next(f for f in rep.faces if f.name == "CD")
        assert not cd.passed

    @pytest.mark.parametrize("e", [30, 50])
    def test_axis_faces_at_a_large_price_unit(self, ref_cfg, e):
        # at price unit 2**50, R at C, D and E is below 1e-12, so no
        # tolerance on vertex coordinates may pick the axis faces: the
        # halfspaces rows keep AB and EA on the axes, whatever the unit
        cfg = price_scaled(ref_cfg, e)
        rep = check_invariance(cfg, build_polygon(cfg), NORMAL)
        assert rep.passed
        outward = "<outward normal, F> < 0"
        assert [(f.name, f.condition) for f in rep.faces] == [
            ("AB", "dR/dt > 0 on R = 0"), ("BC", outward), ("CD", outward), ("DE", outward),
            ("EA", "dq/dt >= 0 on q = 0")]

    def test_negative_samples_named(self, ref_cfg, competitive_cfg):
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        cub = build_cuboid(competitive_cfg, k_u=1.0)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            check_invariance(ref_cfg, poly, NORMAL, -5)
        with pytest.raises(ValueError, match="^n must be >= 0$"):
            check_invariance(competitive_cfg, cub, competitive_mode(1.0), -5)

    @pytest.mark.parametrize("n, named", [(2.5, "2.5"), (math.nan, "nan"), (math.inf, "inf")])
    def test_samples_not_a_whole_number_named(self, ref_cfg, competitive_cfg, n, named):
        for cfg, region, mode in ((ref_cfg, build_polygon(ref_cfg), NORMAL),
                                  (competitive_cfg, build_cuboid(competitive_cfg), competitive_mode(0.0))):
            with pytest.raises(ValueError, match=f"^n must be a whole number, got {named}$"):
                check_invariance(cfg, region, mode, n)

    def test_whole_float_samples_are_the_int(self, ref_cfg, competitive_cfg):
        for cfg, region, mode in ((ref_cfg, build_polygon(ref_cfg), NORMAL),
                                  (competitive_cfg, build_cuboid(competitive_cfg), competitive_mode(0.0))):
            assert check_invariance(cfg, region, mode, 30.0) == check_invariance(cfg, region, mode, 30)

    def test_zero_samples_vacuous(self, ref_cfg):
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        rep = check_invariance(ref_cfg, poly, NORMAL, 0)
        assert rep.passed
        assert "vacuous" in rep.warning

    def test_trap_probe(self, ref_cfg):
        # a region that passes the boundary check really traps the flow
        poly = build_polygon(ref_cfg, 70.0, 58.0)
        assert check_invariance(ref_cfg, poly, NORMAL, 200).passed
        A, b = halfspaces(poly)
        rng = np.random.default_rng(12)
        starts = []
        while len(starts) < 50:
            cand = np.array([rng.uniform(0, 58), rng.uniform(0, 70), 0.0])
            if np.all(A @ cand - b < -1e-3):
                starts.append(cand)
        res = final_states(
            ref_cfg, NORMAL, np.array(starts), 0.0, 5000.0, 0.05, region=(A, b)
        )
        assert np.all(res.region_excess < 1e-6)
        # Theorem-1 conclusion: everything trapped lands on x1*
        assert np.max(np.abs(res.states[:, :2] - [25.0, 40.0])) < 1e-3


def _faces(region, k_u, n):
    """(name, boundary states, condition, F -> values, test) per face."""
    for _, faces in regions._face_runs(region, k_u, n):
        yield from faces


def _check_invariance_per_face(cfg, region, mode, n):
    """check_invariance with one rhs call per face: the reference for the
    runs of faces that share a call."""
    mode = dynamics.as_mode(mode)
    report = InvarianceReport()
    for name, states, condition, values, (reduce, passes) in _faces(region, mode.k_u, n):
        worst = float(reduce(values(dynamics.rhs(cfg, mode, 0.0, states))))
        report.faces.append(FaceReport(name, condition, worst, len(states), passes(worst)))
    return report


def _report_bits(report):
    return report.warning, [(f.name, f.condition, f.worst.hex(), f.samples, f.passed) for f in report.faces]


class TestFaceRuns:
    """check_invariance evaluates runs of faces in one rhs call."""

    @staticmethod
    def cases(ref_cfg, competitive_cfg):
        """(config, region, mode): c04's polygon, c09's cuboid, doa's default
        polygon, and the analysis chain's polygon and cuboid on seeded
        calibrations."""
        k_u = competitive_cfg.k_u_schedule[0][2]
        out = [
            (ref_cfg, build_polygon(ref_cfg, 70.0, 58.0), NORMAL),
            (competitive_cfg, build_cuboid(competitive_cfg, k_u=k_u), competitive_mode(k_u)),
            (ref_cfg, build_polygon(ref_cfg), NORMAL),
        ]
        for cfg in _linear_calibrations(16, 3):
            out += [(cfg, build_polygon(cfg), NORMAL), (cfg, build_cuboid(cfg), competitive_mode(0.0))]
        return out

    # 3000: a polygon's five faces make runs of three and two
    @pytest.mark.parametrize("n", [1, 7, 500, 1000, 3000, 20000])
    def test_reports_match_a_call_per_face(self, ref_cfg, competitive_cfg, n):
        for cfg, region, mode in self.cases(ref_cfg, competitive_cfg):
            want = _check_invariance_per_face(cfg, region, mode, n)
            assert _report_bits(check_invariance(cfg, region, mode, n)) == _report_bits(want)

    def test_one_rhs_call_per_region_at_analysis_sizes(self, ref_cfg, monkeypatch):
        polygon, cuboid = build_polygon(ref_cfg), build_cuboid(ref_cfg, k_u=0.0)
        shapes, rhs = [], dynamics.rhs
        monkeypatch.setattr(dynamics, "rhs", lambda *args: shapes.append(args[3].shape) or rhs(*args))
        check_invariance(ref_cfg, polygon, NORMAL, 1000)
        assert shapes == [(5 * 1000, 3)]
        check_invariance(ref_cfg, cuboid, competitive_mode(0.0), 500)
        assert shapes[1:] == [(6 * 23 * 23, 3)]  # 23 = ceil(sqrt(500)) samples a side

    def test_peak_memory_at_large_n(self, ref_cfg, competitive_cfg):
        # a face of 100000 samples is far beyond BLOCK_BYTES: it has a call
        # of its own, so the peak stays that of one face
        for cfg, region, mode in self.cases(ref_cfg, competitive_cfg)[:2]:
            tracemalloc.start()
            try:
                check_invariance(cfg, region, mode, 100_000)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * 2**20, (region.kind, peak)


def _samples_per_face(region, n):
    """Each face's boundary states, made one face at a time by its own
    np.linspace (and np.meshgrid for a cuboid face): the reference for the
    samples check_invariance writes in place."""
    if region.kind == "polygon2d":
        verts = np.asarray(region.vertices, dtype=float)
        out = []
        for i in range(len(verts)):
            v1, v2 = verts[i], verts[(i + 1) % len(verts)]
            length = np.linalg.norm(v2 - v1)
            m = min(0.49, regions.VERTEX_MARGIN / length) if length > 0 else 0.0
            ts = np.linspace(m, 1 - m, n)
            pts = v1[None, :] + ts[:, None] * (v2 - v1)[None, :]
            out.append(np.column_stack([pts, np.zeros(len(pts))]))
        return out
    corner = region.vertices[1]
    side = max(2, math.ceil(math.sqrt(n)))
    out = []
    for axis, value in [(a, 0.0) for a in range(3)] + [(a, corner[a]) for a in range(3)]:
        others = [i for i in range(3) if i != axis]
        A, B = np.meshgrid(*(np.linspace(regions.VERTEX_MARGIN, corner[i] - regions.VERTEX_MARGIN, side)
                             for i in others))
        pts = np.empty((A.size, 3))
        pts[:, axis] = value
        pts[:, others[0]] = A.ravel()
        pts[:, others[1]] = B.ravel()
        out.append(pts)
    return out


class TestFaceSamples:
    @pytest.mark.parametrize("n", [1, 2, 7, 500, 1000, 3000])
    def test_match_a_linspace_per_face(self, ref_cfg, competitive_cfg, n):
        for _, region, mode in TestFaceRuns.cases(ref_cfg, competitive_cfg):
            got = [states for _, states, *_ in _faces(region, mode.k_u, n)]
            want = _samples_per_face(region, n)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.tobytes() == w.tobytes()


class TestBuildCuboid:
    def test_defaults_pass_invariance(self, competitive_cfg):
        cub = build_cuboid(competitive_cfg, k_u=1.0)
        rep = check_invariance(competitive_cfg, cub, competitive_mode(1.0), 200)
        assert rep.passed
        assert len(rep.faces) == 6

    def test_u_hat_lower_bound_open(self, competitive_cfg):
        r_hat, q_hat, u_hat = build_cuboid(competitive_cfg, k_u=1.0).vertices[1]
        from accessprice.model import eval_admission

        lower = 1.0 / eval_admission(competitive_cfg.admission, q_hat)
        with pytest.raises(ValueError, match="u_hat"):
            build_cuboid(competitive_cfg, q_hat, lower, r_hat, k_u=1.0)

    @pytest.mark.parametrize("u_hat", [1e308, "room"])
    def test_u_hat_that_leaves_no_r_hat_is_named(self, competitive_cfg, u_hat):
        # at or above eta1(q_hat) - eta2(q_hat), eta3(q_hat, u_hat) <= eta2(q_hat)
        q_hat = build_cuboid(competitive_cfg).vertices[1][1]
        room = eta1(competitive_cfg, q_hat) - eta2(competitive_cfg, q_hat)
        u_hat = room if u_hat == "room" else u_hat
        with pytest.raises(ValueError) as err:
            build_cuboid(competitive_cfg, u_hat=u_hat)
        assert str(err.value) == f"u_hat must lie below eta1(q_hat) - eta2(q_hat) = {room:g}, got {u_hat:g}"
        assert build_cuboid(competitive_cfg, u_hat=0.99 * room).vertices[1][2] == 0.99 * room

    def test_r_hat_interval(self, competitive_cfg):
        _, q_hat, u_hat = build_cuboid(competitive_cfg, k_u=1.0).vertices[1]
        with pytest.raises(ValueError, match="r_hat"):
            build_cuboid(
                competitive_cfg, q_hat, u_hat, eta2(competitive_cfg, q_hat), k_u=1.0
            )

    def test_only_q_hat_given_derives_the_rest_from_it(self, competitive_cfg):
        cfg, k_u = competitive_cfg, 1.0
        fp2 = find_fixed_points(cfg, "competitive", k_u)[1]
        q2, u2 = fp2.q_star, fp2.u_star
        q_hat = 0.25 * q_dagger(cfg) + 0.75 * q2
        assert q_hat != build_cuboid(cfg, k_u=k_u).vertices[1][1]
        lo_u = k_u / eval_admission(cfg.admission, q_hat)
        u_hat = 0.5 * (lo_u + min(u2, eta1(cfg, q_hat) - eta2(cfg, q_hat)))
        r_hat = 0.5 * (eta2(cfg, q_hat) + eta3(cfg, q_hat, u_hat))
        cub = build_cuboid(cfg, q_hat=q_hat, k_u=k_u)
        assert cub.vertices[1] == (r_hat, q_hat, u_hat)

    @pytest.mark.parametrize("k_u, u_condition", [(0.0, "dU/dt >= 0 on U = 0"), (1.0, "dU/dt > 0 on U = 0")])
    def test_face_conditions(self, competitive_cfg, k_u, u_condition):
        rep = check_invariance(competitive_cfg, build_cuboid(competitive_cfg, k_u=k_u), competitive_mode(k_u), 50)
        outward = "<outward normal, F> < 0"
        assert [(f.name, f.condition) for f in rep.faces] == [
            ("R=0", "dR/dt > 0 on R = 0"), ("q=0", "dq/dt >= 0 on q = 0"), ("U=0", u_condition),
            ("R=r_hat", outward), ("q=q_hat", outward), ("U=u_hat", outward)]

    def test_zero_load_degenerates_gracefully(self, competitive_cfg):
        cub = build_cuboid(competitive_cfg, k_u=0.0)
        rep = check_invariance(competitive_cfg, cub, competitive_mode(0.0), 150)
        assert rep.passed
        u_face = next(f for f in rep.faces if f.name == "U=u_hat")
        assert u_face.worst <= 0


class TestPhaseGrid:
    def test_zero_magnitude_only_near_fixed_points(self, ref_cfg):
        grid = phase_grid(ref_cfg, NORMAL, (0.0, 150.0), (0.0, 92.0), 50)
        fps = np.array([[fp.r_star, fp.q_star] for fp in grid.fixed_points])
        cell = max(150.0 / 50, 92.0 / 50)
        small = np.argwhere(grid.magnitude < 1e-9)
        for i, j in small:
            point = np.array([grid.r[i], grid.q[j]])
            assert np.min(np.linalg.norm(fps - point, axis=1)) < cell

    def test_single_cell_at_center(self, ref_cfg):
        grid = phase_grid(ref_cfg, NORMAL, (0.0, 150.0), (0.0, 100.0), 1)
        assert grid.r[0] == 75.0 and grid.q[0] == 50.0
        assert grid.dr.shape == (1, 1)

    def test_origin_derivative(self, ref_cfg):
        d = dynamics.rhs(ref_cfg, NORMAL, 0.0, (0.0, 0.0, 0.0))
        assert d[0] == ref_cfg.k_r and d[1] == 0.0

    def test_overlays_present(self, ref_cfg):
        grid = phase_grid(ref_cfg, NORMAL, (0.0, 150.0), (0.0, 92.0), 10)
        assert len(grid.eta1_curve) > 0 and len(grid.eta2_curve) > 0
        assert len(grid.fixed_points) == 2

    @pytest.mark.parametrize("r_range, q_range", [
        ((0.0, math.inf), (0.0, 92.0)),
        ((0.0, 150.0), (0.0, math.inf)),
        ((0.0, math.nan), (0.0, 92.0)),
    ])
    def test_non_finite_range_rejected(self, ref_cfg, r_range, q_range):
        with pytest.raises(ValueError, match="finite"):
            phase_grid(ref_cfg, NORMAL, r_range, q_range, 3)

    @pytest.mark.parametrize("resolution, named", [(2.5, "2.5"), (math.nan, "nan"), (math.inf, "inf")])
    def test_resolution_not_a_whole_number_named(self, ref_cfg, resolution, named):
        # 2.5 used to give centres at r = 0.2, 0.6 and 1.0, the last outside the box
        with pytest.raises(ValueError, match=f"^resolution must be a whole number, got {named}$"):
            phase_grid(ref_cfg, NORMAL, (0.0, 1.0), (0.0, 1.0), resolution)

    def test_whole_float_resolution_is_the_int(self, ref_cfg):
        grids = [phase_grid(ref_cfg, NORMAL, (0.0, 150.0), (0.0, 100.0), res) for res in (50, 50.0)]
        for name in ("r", "q", "dr", "dq", "magnitude", "eta1_curve", "eta2_curve"):
            assert getattr(grids[0], name).tobytes() == getattr(grids[1], name).tobytes()

    def test_bad_resolution(self, ref_cfg):
        with pytest.raises(ValueError):
            phase_grid(ref_cfg, NORMAL, (0.0, 150.0), (0.0, 92.0), 0)

    def test_field_not_finite_is_named(self, ref_cfg):
        cfg = dataclasses.replace(ref_cfg, price=PriceSpec(variant="triangular", beta=1e306, q_m=45.0))
        with pytest.raises(ValueError, match=r"normal field not finite at \(R, q\) = \(4.5, 41\)"):
            phase_grid(cfg, NORMAL, (0.0, 150.0), (0.0, 100.0), 50)

    def test_overflowing_overlay_reads_inf(self, ref_cfg):
        # mu/alpha overflows on the eta1 curve; the field and the scan stay finite
        cfg = dataclasses.replace(ref_cfg, service=ServiceSpec(mu_star=1e308, q_c=35.0))
        grid = phase_grid(cfg, NORMAL, (0.0, 150.0), (0.0, 100.0), 5)
        assert np.isinf(grid.eta1_curve[:, 1]).any()
        assert np.isfinite(grid.magnitude).all()
