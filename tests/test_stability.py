from dataclasses import replace

import numpy as np
import pytest

from conftest import price_scaled
from oracle import exact_class, finite_diff_jacobian
from accessprice import cli, dynamics
from accessprice.equilibria import FixedPoint, find_fixed_points
from accessprice.model import MODE_TAGS, AdmissionSpec, SystemMode
from accessprice.stability import (
    JacobianMatrix,
    KinkProximityError,
    _cubic_roots,
    classify,
    divergence,
    jacobian,
    saddle_criterion,
)


class TestJacobian:
    def test_reference_low_point_entries(self, ref_cfg):
        j = jacobian(ref_cfg, (25.0, 40.0), "normal")
        expected = np.array(
            [
                [-0.16, 0.03214285714285715],
                [0.12, -0.05714285714285715],
            ]
        )
        np.testing.assert_allclose(j.entries, expected, atol=1e-12)

    def test_third_row_at_zero_u(self, competitive_cfg):
        j = jacobian(competitive_cfg, (50.0, 50.0, 0.0), "competitive")
        a = 0.07047619047619047 - 0.0007619047619047619 * 50.0
        np.testing.assert_allclose(j.entries[2], [0.0, 0.0, -a], atol=1e-15)

    def test_kink_rejected(self, ref_cfg):
        with pytest.raises(KinkProximityError):
            jacobian(ref_cfg, (25.0, 45.0), "normal")
        with pytest.raises(KinkProximityError):
            jacobian(ref_cfg, (25.0, 35.0 + 1e-10), "normal")

    def test_negative_state_rejected(self, ref_cfg):
        with pytest.raises(ValueError):
            jacobian(ref_cfg, (-1.0, 40.0), "normal")

    @pytest.mark.parametrize("state", [(np.nan, 20.0, 0.0), (10.0, np.nan, 0.0)])
    def test_nan_state_is_named(self, ref_cfg, state):
        with pytest.raises(ValueError, match="state must .* without NaN"):
            jacobian(ref_cfg, state, "normal")

    @pytest.mark.parametrize("state", [(np.inf, 40.0), (25.0, np.inf), (25.0, 40.0, np.inf)])
    def test_infinite_state_is_named(self, ref_cfg, state):
        with pytest.raises(ValueError, match="state must be finite"):
            jacobian(ref_cfg, state, "competitive")

    @pytest.mark.parametrize("state", [[[25, 40]], np.array([[25.0], [40.0]])])
    def test_one_row_state(self, ref_cfg, state):
        want = jacobian(ref_cfg, (25.0, 40.0), "normal").entries
        assert np.array_equal(jacobian(ref_cfg, state, "normal").entries, want)

    def test_chattering_below_bound_matches_normal(self, ref_cfg):
        jn = jacobian(ref_cfg, (25.0, 40.0), "normal")
        jc = jacobian(ref_cfg, (25.0, 40.0), "chattering")
        np.testing.assert_array_equal(jn.entries, jc.entries)
        with pytest.raises(KinkProximityError):
            jacobian(ref_cfg, (25.0, 60.0), "chattering")


def _random_states(ref_cfg, section5_cfg, competitive_cfg):
    """90 seeded states away from the kinks, cycling through normal
    (ref), saturated (section5) and competitive (competitive)."""
    rng = np.random.default_rng(7)
    cases = [
        (ref_cfg, "normal"),
        (section5_cfg, "saturated"),
        (competitive_cfg, "competitive"),
    ]
    total = 0
    while total < 90:
        cfg, mode = cases[total % 3]
        q_hi = min(cfg.admission.q_max, 110.0)
        state = (
            rng.uniform(0.1, 250.0),
            rng.uniform(0.5, q_hi - 0.5),
            rng.uniform(0.0, 150.0),
        )
        if any(abs(state[1] - k) < 1e-4 for k in cfg.kink_points()):
            continue
        yield cfg, mode, state
        total += 1


class TestFiniteDifferenceOracle:
    def test_agreement_at_reference_point(self, ref_cfg):
        j = jacobian(ref_cfg, (25.0, 40.0), "normal")
        fd = finite_diff_jacobian(ref_cfg, (25.0, 40.0), "normal", h=1e-6)
        np.testing.assert_allclose(j.entries, fd.entries, atol=1e-6)

    def test_agreement_random_states_all_modes(self, ref_cfg, section5_cfg, competitive_cfg):
        for cfg, mode, state in _random_states(ref_cfg, section5_cfg, competitive_cfg):
            j = jacobian(cfg, state, mode)
            fd = finite_diff_jacobian(cfg, state, mode, h=1e-6)
            np.testing.assert_allclose(j.entries, fd.entries, atol=1e-6)

    def test_matches_column_by_column_difference(self, ref_cfg, section5_cfg, competitive_cfg):
        # the one stacked rhs call gives the columns that one pair of
        # single-state rhs calls per coordinate gave, bit for bit
        h = 1e-6
        for cfg, mode, state in _random_states(ref_cfg, section5_cfg, competitive_cfg):
            x0, dim = np.array(state), (3 if mode == "competitive" else 2)
            cols = []
            for j in range(dim):
                hi, lo = x0.copy(), x0.copy()
                hi[j] += h
                lo[j] -= h
                d = (dynamics.rhs(cfg, mode, 0.0, hi) - dynamics.rhs(cfg, mode, 0.0, lo)) / (2 * h)
                cols.append(d[:dim])
            fd = finite_diff_jacobian(cfg, state, mode, h=h)
            assert fd.entries.tobytes() == np.column_stack(cols).tobytes()

    def test_zero_step_rejected(self, ref_cfg):
        with pytest.raises(ValueError):
            finite_diff_jacobian(ref_cfg, (25.0, 40.0), "normal", h=0.0)

    def test_kink_rejected(self, ref_cfg):
        with pytest.raises(KinkProximityError):
            finite_diff_jacobian(ref_cfg, (25.0, 45.0), "normal")


class TestDivergence:
    def test_reference_value(self, ref_cfg):
        val = divergence(ref_cfg, (25.0, 40.0), "normal")
        assert val == pytest.approx(-0.21714285714285714, abs=1e-12)

    def test_negative_on_interior(self, ref_cfg):
        rng = np.random.default_rng(3)
        for _ in range(200):
            state = (rng.uniform(0.01, 300.0), rng.uniform(0.5, 92.0), 0.0)
            if any(abs(state[1] - k) < 1e-6 for k in ref_cfg.kink_points()):
                continue
            assert divergence(ref_cfg, state, "normal") < 0

    def test_three_dim_zero_population(self, ref_cfg):
        # -2*alpha(50) - f(50) with mu' = 0 beyond q_c
        val = divergence(ref_cfg, (0.0, 50.0, 0.0), "competitive")
        assert val == pytest.approx(-0.23428571428571426, abs=1e-12)

    def test_chattering_unsupported(self, ref_cfg):
        with pytest.raises(ValueError):
            divergence(ref_cfg, (25.0, 40.0), "chattering")

    def test_nan_state_is_named(self, ref_cfg):
        with pytest.raises(ValueError, match="state must .* without NaN"):
            divergence(ref_cfg, (10.0, np.nan), "normal")

    def test_infinite_state_is_named(self, ref_cfg):
        with pytest.raises(ValueError, match="state must be finite"):
            divergence(ref_cfg, (np.inf, 40.0), "normal")


class TestClassify:
    def test_reference_stable_node(self, ref_cfg):
        rep = classify(jacobian(ref_cfg, (25.0, 40.0), "normal"))
        assert rep.classification == "stable_node"
        assert rep.trace == pytest.approx(-0.21714285714285714, abs=1e-12)
        assert rep.determinant == pytest.approx(0.005285714285714285, abs=1e-12)
        eigs = sorted(z.real for z in rep.eigenvalues)
        assert eigs[0] == pytest.approx(-0.1892066616666862, abs=1e-9)
        assert eigs[1] == pytest.approx(-0.027936195476170947, abs=1e-9)

    def test_reference_saddle(self, ref_cfg):
        rep = classify(jacobian(ref_cfg, (125.0, 82.0), "normal"))
        assert rep.classification == "saddle"
        assert rep.determinant == pytest.approx(-0.0007142857142857145, abs=1e-10)

    def test_identity_unstable(self):
        for m in (JacobianMatrix(2, np.eye(2)), JacobianMatrix(3, np.diag([1.0, 2.0, 3.0]))):
            rep = classify(m)
            assert rep.classification == "unstable"

    def test_degenerate_zero_determinant(self):
        rep = classify(JacobianMatrix(2, np.array([[1.0, 0.0], [0.0, 0.0]])))
        assert rep.classification == "degenerate"

    def test_focus_detection(self):
        rep = classify(JacobianMatrix(2, np.array([[-0.1, -1.0], [1.0, -0.1]])))
        assert rep.classification == "stable_focus"
        assert all(abs(z.imag) > 0 for z in rep.eigenvalues)

    def test_centre_is_degenerate(self):
        rep = classify(JacobianMatrix(2, np.array([[0.0, -2.0], [0.5, 0.0]])))
        assert rep.trace == 0.0 and rep.determinant == 1.0
        assert rep.classification == "degenerate"

    def test_one_rule_for_both_dimensions(self):
        # beside a third eigenvalue of -1, a 2x2 matrix keeps its class,
        # except that an unstable one becomes a saddle
        rng = np.random.default_rng(3)
        mats = [np.array([[0.0, -2.0], [0.5, 0.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
        mats += list(rng.uniform(-1.0, 1.0, (200, 2, 2)))
        seen = set()
        for m in mats:
            cls = classify(JacobianMatrix(2, m)).classification
            embedded = np.zeros((3, 3))
            embedded[:2, :2] = m
            embedded[2, 2] = -1.0
            rep = classify(JacobianMatrix(3, embedded))
            assert rep.classification == ("saddle" if cls == "unstable" else cls)
            seen.add(cls)
        assert seen == {"degenerate", "saddle", "stable_node", "stable_focus", "unstable"}

    def test_3d_determinant_is_the_cofactor_expansion(self):
        rng = np.random.default_rng(8)
        for m in rng.uniform(-1.0, 1.0, (100, 3, 3)):
            (a, b, c), (d, e, f), (g, h, i) = m.tolist()
            cofactor = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
            assert classify(JacobianMatrix(3, m)).determinant == cofactor

    def test_3d_hurwitz_at_competitive_low_point(self, competitive_cfg):
        fps = find_fixed_points(competitive_cfg, "competitive", k_u=1.0)
        rep = classify(
            jacobian(
                competitive_cfg,
                (fps[0].r_star, fps[0].q_star, fps[0].u_star),
                "competitive",
            )
        )
        assert rep.hurwitz["hurwitz"] is True
        assert rep.classification.startswith("stable")

    def test_3d_saddle_at_competitive_high_point(self, competitive_cfg):
        fps = find_fixed_points(competitive_cfg, "competitive", k_u=1.0)
        rep = classify(
            jacobian(
                competitive_cfg,
                (fps[1].r_star, fps[1].q_star, fps[1].u_star),
                "competitive",
            )
        )
        assert rep.classification == "saddle"
        assert rep.hurwitz["hurwitz"] is False
        assert rep.trace < 0

    def test_hurwitz_matches_eigenvalues_random_model_states(self, competitive_cfg):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            state = (
                rng.uniform(0.1, 400.0),
                rng.uniform(1.0, 91.0),
                rng.uniform(0.0, 300.0),
            )
            if any(abs(state[1] - k) < 1e-4 for k in competitive_cfg.kink_points()):
                continue
            rep = classify(jacobian(competitive_cfg, state, "competitive"))
            if rep.classification == "degenerate":
                # beyond 2*q_m the price is identically zero and total mass
                # is conserved: the Jacobian is exactly singular there
                continue
            all_neg = all(z.real < -1e-12 for z in rep.eigenvalues)
            assert rep.hurwitz["hurwitz"] == all_neg
            checked += 1

    def test_small_eigenvalue_at_a_large_price_unit(self, ref_cfg):
        # at price unit 2**60 the large eigenvalue is about -1.8e17, beside
        # which (tr + sqrt(disc))/2 would cancel the small one to 0
        cfg = price_scaled(ref_cfg, 60)
        got = []
        for fp in find_fixed_points(cfg):
            rep = classify(jacobian(cfg, (fp.r_star, fp.q_star), "normal"))
            got.append((rep.classification, rep.eigenvalues[1].real))
        assert [c for c, _ in got] == ["stable_node", "saddle"]
        assert [x for _, x in got] == pytest.approx([-0.0330357142857, 0.0223214285714], abs=1e-12)

    @pytest.mark.parametrize("e", [-30, -35, -60])
    def test_small_price_units_keep_their_classes(self, ref_cfg, e):
        # at a price unit 2**30 times larger (price_scaled(ref, -30)) the
        # high point's |det| falls below 1e-12, from 2**35 both points' small
        # eigenvalues do, which an absolute test read as degenerate; against
        # the matrix's own scales neither point is singular
        cfg = price_scaled(ref_cfg, e)
        fps = find_fixed_points(cfg)
        assert [fp.classification for fp in fps] == ["stable_node", "saddle"]
        assert [classify(jacobian(cfg, (fp.r_star, fp.q_star))).classification for fp in fps] == [
            "stable_node", "saddle"]
        assert 0 < -fps[0].eigen_data[1].real < 1e-10 and abs(fps[1].eigen_data[1].real) < 1e-10

    def test_mass_conserving_state_is_degenerate(self, competitive_cfg):
        # beyond 2*q_m and q_c, f = f' = mu' = 0: the columns of the
        # competitive Jacobian sum to zero, so it is singular, and rounding
        # leaves its determinant only a tiny fraction of its terms
        for q in (91.0, 91.5):
            for r, u in ((30.0, 20.0), (200.0, 150.0), (0.5, 300.0)):
                rep = classify(jacobian(competitive_cfg, (r, q, u), "competitive"))
                assert rep.classification == "degenerate", (r, q, u, rep.determinant)

    @pytest.mark.parametrize("mode, e, poly", [("normal", 520, "quadratic"), ("competitive", 343, "cubic")])
    def test_discriminant_overflow_is_named(self, ref_cfg, mode, e, poly):
        # the cubic has no discriminant to overflow: it is refused where the
        # bound on its roots' size, cubed, does (from 2**343 on ref)
        tail = {"quadratic": "discriminant overflows", "cubic": r"root bound \S+ cubed overflows"}[poly]
        with pytest.raises(ValueError, match=f"^{poly} .*: {tail}$"):
            find_fixed_points(price_scaled(ref_cfg, e), mode, 0.0)

    @pytest.mark.parametrize("e", [200, 300, 342])
    def test_small_eigenvalue_beside_two_large_ones(self, ref_cfg, e):
        # the competitive points at K_U = 0 add -alpha, of size about 2**e,
        # to the 2-D eigenvalues: the small one keeps its 2-D value
        fps = find_fixed_points(price_scaled(ref_cfg, e), "competitive", 0.0)
        assert [fp.classification for fp in fps] == ["stable_node", "saddle"]
        assert [fp.eigen_data[2].real for fp in fps] == pytest.approx([-0.0330357142857, 0.0223214285714], abs=1e-12)
        assert all(fp.eigen_data[1].real < -1e50 for fp in fps)

    def test_classification_consistent_with_eigenvalues(self, ref_cfg):
        for state in [(25.0, 40.0), (125.0, 82.0), (10.0, 10.0), (300.0, 88.0)]:
            rep = classify(jacobian(ref_cfg, state, "normal"))
            re = sorted(z.real for z in rep.eigenvalues)
            if rep.classification.startswith("stable"):
                assert re[-1] < 1e-12
            elif rep.classification == "saddle":
                assert re[0] < 0 < re[-1]


class TestOneClassification:
    @pytest.mark.parametrize("name", ["ref", "section5", "competitive"])
    def test_fixed_points_carry_classify_of_jacobian(self, config_dir, name):
        # find_fixed_points classifies from the Jacobian's rows on floats;
        # jacobian() makes them an array first: the same class and bits
        cfg = cli.load_config(str(config_dir / f"{name}.json"))
        bits = lambda eig: [(z.real.hex(), z.imag.hex()) for z in eig]
        checked = 0
        for tag in MODE_TAGS:
            for k_u in (0.0, 0.5, 1.0):
                for fp in find_fixed_points(cfg, SystemMode(tag, k_u)):
                    try:
                        rep = classify(jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), fp.mode))
                        want = rep.classification, bits(rep.eigenvalues)
                    except KinkProximityError:
                        want = "degenerate", []
                    assert (fp.classification, bits(fp.eigen_data)) == want, (tag, k_u, fp)
                    checked += 1
        assert checked >= 18


class TestExactClasses:
    """Competitive fixed points of the shipped configs at K_U = 0 and 0.5
    and price units 2**e times smaller, every 10th e in [-170, 170],
    against oracle.exact_class."""

    def test_sweep(self, config_dir):
        wrong, checked = [], 0
        for name in ("ref", "section5", "competitive"):
            base = cli.load_config(str(config_dir / f"{name}.json"))
            for k_u in (0.0, 0.5):
                for e in range(-170, 171, 10):
                    cfg = price_scaled(base, e)
                    for fp in find_fixed_points(cfg, "competitive", k_u):
                        rows = jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), "competitive").entries.tolist()
                        want = exact_class(rows)
                        if want is None:  # within a factor of 2 of a 1e-12 band
                            continue
                        checked += 1
                        if fp.classification != want:
                            wrong.append((name, k_u, e, fp.q_star, fp.classification, want))
        assert checked >= 340 and wrong == []

    @pytest.mark.parametrize("e, point, want", [(-40, 0, "stable_node"), (-60, 0, "stable_node"), (-30, 1, "saddle")])
    def test_ref_at_a_large_price_unit(self, ref_cfg, e, point, want):
        # two eigenvalues of about 2**e beside one of about -0.06 or -0.3
        cfg = price_scaled(ref_cfg, e)
        fp = find_fixed_points(cfg, "competitive", 0.0)[point]
        rows = jacobian(cfg, (fp.r_star, fp.q_star, fp.u_star), "competitive").entries.tolist()
        assert fp.classification == exact_class(rows) == want


class TestSolveCubic:
    @pytest.mark.parametrize(
        "coeffs",
        [
            (1.0, 2.0, 3.0),
            (-6.0, 11.0, -6.0),     # roots 1, 2, 3
            (0.0, -1.0, 0.0),       # roots -1, 0, 1
            (0.17714, 0.009771, 0.000141),
            (3.0, 3.0, 1.0),        # triple root -1
            (-0.5, 0.25, -0.9),
            (0.0, 1e-200, 0.0),     # the root 0 beside the pair +-1e-100 i
        ],
    )
    def test_against_companion_oracle(self, coeffs):
        # multiple roots are eps**(1/3) ill-conditioned for the companion
        # oracle itself, hence the loose comparison; residual accuracy is
        # asserted separately below
        a1, a2, a3 = coeffs
        mine = sorted(_cubic_roots(a1, a2, a3), key=lambda z: (z.real, z.imag))
        oracle = sorted(np.roots([1.0, a1, a2, a3]), key=lambda z: (z.real, z.imag))
        for m, o in zip(mine, oracle):
            assert m.real == pytest.approx(o.real, abs=2e-5)
            assert abs(m.imag) == pytest.approx(abs(o.imag), abs=2e-5)

    def test_random_coefficients(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            a1, a2, a3 = rng.uniform(-3, 3, 3)
            for root in _cubic_roots(a1, a2, a3):
                val = ((root + a1) * root + a2) * root + a3
                assert abs(val) < 1e-9


class TestSaddleCriterion:
    def test_reference_saddle(self, ref_cfg):
        fps = find_fixed_points(ref_cfg, "normal")
        lhs, rhs, is_saddle = saddle_criterion(ref_cfg, fps[1])
        assert lhs == pytest.approx(0.003, abs=1e-15)
        assert rhs == pytest.approx(0.002285714285714286, rel=1e-12)
        assert is_saddle is True
        rep = classify(jacobian(ref_cfg, (fps[1].r_star, fps[1].q_star), "normal"))
        assert (rep.determinant < 0) == is_saddle

    def test_steep_admission_flips_verdict(self, ref_cfg):
        # double the slope, keep alpha(82) = 0.024: rhs grows past lhs and
        # the determinant formula at the same (R, q) turns positive
        c1 = 2 * -0.002285714285714286
        c2 = 0.024 - c1 * 82.0
        steep = replace(
            ref_cfg,
            admission=AdmissionSpec(variant="linear", coefficients=(c2, c1)),
            q_ad=None,
        )
        fp = FixedPoint(
            mode="normal", r_star=125.0, q_star=82.0, u_star=0.0,
            price_at=0.008, classification="unknown", eigen_data=(),
        )
        lhs, rhs, is_saddle = saddle_criterion(steep, fp)
        assert rhs > lhs
        assert is_saddle is False
        rep = classify(jacobian(steep, (125.0, 82.0), "normal"))
        assert rep.determinant > 0

    def test_low_point_rejected(self, ref_cfg):
        fps = find_fixed_points(ref_cfg, "normal")
        with pytest.raises(ValueError, match="high-congestion"):
            saddle_criterion(ref_cfg, fps[0])

    def test_wrong_mode_rejected(self, ref_cfg):
        fp = FixedPoint(
            mode="competitive", r_star=50.0, q_star=82.0, u_star=25.0,
            price_at=0.008, classification="saddle", eigen_data=(),
        )
        with pytest.raises(ValueError, match="normal"):
            saddle_criterion(ref_cfg, fp)


class TestThreeDimTrace:
    def test_negative_at_fixed_points(self, competitive_cfg):
        for fp in find_fixed_points(competitive_cfg, "competitive", k_u=1.0):
            j = jacobian(
                competitive_cfg, (fp.r_star, fp.q_star, fp.u_star), "competitive"
            )
            assert np.trace(j.entries) < 0
