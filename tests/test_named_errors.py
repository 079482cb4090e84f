"""Named errors that the other test modules do not reach in process.

Each case calls one public entry point with a single invalid input and
checks the exception's exact type and message.
"""

import copy
from dataclasses import replace
import json
import math

import numpy as np
import pytest

import oracle
from accessprice import cli, dynamics, regions, scenarios, stability
from accessprice.cli import ConfigError
from accessprice.equilibria import (
    CalibrationError,
    CalibrationTargets,
    calibrate_cubic_admission,
    calibrate_linear_admission,
    find_fixed_points,
)
from accessprice.model import (
    AdmissionSpec,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    validate_admissible,
)
from accessprice.stability import KinkProximityError

TRI = PriceSpec("triangular", 1e-3, 45.0)
SURGE = PriceSpec("surge", 1e-3)
SVC = ServiceSpec(3.0, 35.0)
RISING = AdmissionSpec("linear", (0.1, 0.001))  # alpha never vanishes: q_max = inf


@pytest.fixture
def cfgs(ref_cfg, section5_cfg, competitive_cfg, config_dir):
    return {"ref": ref_cfg, "s5": section5_cfg, "comp": competitive_cfg, "dir": config_dir}


def _cubic(c):
    return c["s5"].admission.coefficients


def _ref_doc(c, **changes):
    doc = json.loads((c["dir"] / "ref.json").read_text())
    doc.update(copy.deepcopy(changes))
    return doc


def _override(c, item):
    return cli.load_config(str(c["dir"] / "ref.json"), [item])


MODEL = {
    "unknown price variant": (lambda c: PriceSpec("bogus", 1e-3),
                              ValueError, "unknown price variant 'bogus'"),
    "unknown admission variant": (lambda c: AdmissionSpec("bogus", (0.2, -0.002)),
                                  ValueError, "unknown admission variant 'bogus'"),
    "surge with q_m": (lambda c: PriceSpec("surge", 1e-3, q_m=45.0),
                       ValueError, "surge price takes no q_m/q_n"),
    "surge with q_n": (lambda c: PriceSpec("surge", 1e-3, q_n=75.0),
                       ValueError, "surge price takes no q_m/q_n"),
    "q_m zero": (lambda c: PriceSpec("triangular", 1e-3, q_m=0.0), ValueError, "q_m must be > 0"),
    "q_m negative": (lambda c: PriceSpec("saturated", 1e-3, q_m=-1.0, q_n=75.0),
                     ValueError, "q_m must be > 0"),
    "q_m missing": (lambda c: PriceSpec("triangular", 1e-3), ValueError, "q_m must be > 0"),
    "triangular with q_n": (lambda c: PriceSpec("triangular", 1e-3, 45.0, 60.0),
                            ValueError, "triangular price takes no q_n"),
    "mu_star zero": (lambda c: ServiceSpec(0.0, 35.0), ValueError, "mu_star must be > 0"),
    "q_c negative": (lambda c: ServiceSpec(3.0, -1.0), ValueError, "q_c must be > 0"),
    "cubic q_max zero": (lambda c: AdmissionSpec("cubic", _cubic(c), 0.0),
                         ValueError, "cubic admission needs q_max > 0"),
    "cubic q_max missing": (lambda c: AdmissionSpec("cubic", _cubic(c)),
                            ValueError, "cubic admission needs q_max > 0"),
    "k_r zero": (lambda c: replace(c["ref"], k_r=0.0), ValueError, "k_r must be > 0"),
    "empty schedule piece": (lambda c: replace(c["ref"], k_u_schedule=((5.0, 5.0, 1.0),)),
                             ValueError, "k_u_schedule[0]: t_start must be < t_end"),
    "q_ad zero": (lambda c: replace(c["ref"], q_ad=0.0), ValueError, "q_ad must be > 0"),
    "k_r overflowing the load term": (
        lambda c: find_fixed_points(replace(c["ref"], k_r=1e300)),
        ValueError, "k_r = 1e+300 too large: the load term (K_R + K_U - mu)/(mu - K_U) "
                    "overflows on the scan domain"),
    "unknown clause": (lambda c: validate_admissible(c["ref"]).clause("bogus"),
                       KeyError, "'bogus'"),
}

LOADER = {
    "top level not an object": (lambda c: cli.config_from_dict([1]),
                                ConfigError, "top level: expected an object"),
    "missing key": (lambda c: cli.config_from_dict(
                        {k: v for k, v in _ref_doc(c).items() if k != "k_r"}),
                    ConfigError, "config.k_r: missing"),
    "wrong type": (lambda c: cli.config_from_dict(_ref_doc(c, k_r="4")),
                   ConfigError, "config.k_r: expected a number"),
    "wrong type of an optional key": (lambda c: _override(c, "q_ad=true"), ConfigError,
                                      "config.q_ad: expected a number"),
    "non-numeric coefficient": (
        lambda c: cli.config_from_dict(
            _ref_doc(c, admission={"variant": "linear", "coefficients": ["a", 1]})),
        ConfigError, "admission.coefficients: expected numbers"),
    "malformed schedule piece": (
        lambda c: cli.config_from_dict(_ref_doc(c, k_u_schedule=[[1, 2]])),
        ConfigError, "k_u_schedule[0]: expected [t_start, t_end, rate]"),
    "override without =": (lambda c: _override(c, "k_r"),
                           ConfigError, "override 'k_r': expected key=value"),
    "override through a number": (lambda c: _override(c, "k_r.x=1"),
                                  ConfigError, "override 'k_r.x': unknown key path"),
}

REGIONS = {
    "r_dagger on a surge price": (lambda c: regions.r_dagger(replace(c["ref"], price=SURGE)),
                                  ValueError, "r_dagger needs a price variant with a peak q_m"),
    "eta1_inverse below zero": (lambda c: regions.eta1_inverse(c["ref"], -1.0),
                                ValueError, "eta1 inverse needs r >= 0"),
    "eta1_inverse of NaN": (lambda c: regions.eta1_inverse(c["ref"], math.nan),
                            ValueError, "eta1 inverse needs r >= 0"),
    "eta1_inverse above its range": (lambda c: regions.eta1_inverse(c["ref"], 1e14),
                                     ValueError, "eta1 stays below 1e+14 on its domain"),
    "eta1_inverse above an unbounded alpha's range": (
        lambda c: regions.eta1_inverse(replace(c["ref"], admission=RISING), 10.0),
        ValueError, "eta1 stays below 10 on its domain"),
    "anchor without two fixed points": (
        lambda c: regions.build_polygon(c["s5"]),
        ValueError, "region construction needs exactly two normal-mode fixed points, found 1"),
    "anchor with R2* <= R_dagger": (
        lambda c: regions.build_cuboid(c["comp"], k_u=1.21),
        ValueError, "hypothesis R2* > R_dagger violated: 55.75 <= 56.7568"),
    "q_hat outside": (lambda c: regions.build_cuboid(c["comp"], q_hat=1.0),
                      ValueError, "q_hat must lie in (q_dagger, q2*) = (31.018, 89.1489), got 1"),
    "no default u_hat": (lambda c: regions.build_cuboid(c["comp"], k_u=1.2),
                         ValueError, "no u_hat leaves the r_hat interval nonempty"),
    "u_hat below K_U/alpha": (lambda c: regions.build_cuboid(c["comp"], u_hat=0.0, k_u=0.5),
                              ValueError, "u_hat must exceed K_U/alpha(q_hat) = 19.8601, got 0"),
    "u_hat above U2*": (lambda c: regions.build_cuboid(c["comp"], u_hat=1e6, k_u=0.5),
                        ValueError, "u_hat must lie below U2* = 142.5, got 1e+06"),
    "unknown region kind": (
        lambda c: regions.check_invariance(
            c["ref"], regions.RegionSpec(kind="bogus", vertices=((0, 0, 0), (1, 1, 1))),
            dynamics.NORMAL),
        ValueError, "unknown region kind 'bogus'"),
    "halfspaces of an unknown region kind": (
        lambda c: regions.halfspaces(regions.RegionSpec(kind="sphere", vertices=((0, 0, 0), (1, 1, 1)))),
        ValueError, "unknown region kind 'sphere'"),
}

STABILITY = {
    "jacobian of 4 coordinates": (lambda c: stability.jacobian(c["ref"], (1.0, 2.0, 3.0, 4.0)),
                                  ValueError, "state must have 2 or 3 coordinates (r, q[, u])"),
    "rhs of 4 coordinates": (
        lambda c: dynamics.rhs(c["ref"], dynamics.NORMAL, 0.0, (1.0, 2.0, 3.0, 4.0)),
        ValueError, "state must have 2 or 3 coordinates"),
    "rhs of a bare number": (lambda c: dynamics.rhs(c["ref"], "normal", 0.0, 5.0),
                             ValueError, "state must have 2 or 3 coordinates"),
    "admitted flows of a bare number": (lambda c: dynamics.admitted_flows(c["ref"], dynamics.NORMAL, 5.0),
                                        ValueError, "state must have 2 or 3 coordinates"),
    "admitted flows of 4 coordinates": (
        lambda c: dynamics.admitted_flows(c["comp"], dynamics.competitive_mode(1.0), [1, 2, 3, 4]),
        ValueError, "state must have 2 or 3 coordinates"),
    "state at a NaN time": (
        lambda c: dynamics.integrate(c["ref"], dynamics.NORMAL, (30.0, 45.0), 0.0, 0.1).state_at(float("nan")),
        ValueError, "t = nan is not a finite time"),
    "state at an infinite time": (
        lambda c: dynamics.integrate(c["ref"], dynamics.NORMAL, (30.0, 45.0), 0.0, 0.1).state_at(float("inf")),
        ValueError, "t = inf is not a finite time"),
    "finite-difference stencil over a kink": (
        lambda c: oracle.finite_diff_jacobian(c["ref"], (25.0, 35.0 + 5e-6)),
        KinkProximityError, "kink at 35 within 10*h of q = 35"),
    "divergence sampled on a kink": (
        lambda c: stability.divergence(c["ref"], (25.0, 35.0)),
        KinkProximityError, "q = 35.0 within 1e-09 of the kink at 35"),
    "cubic beyond the float range": (  # the companion matrix of x^3 + 1e200 x^2 + 1
        lambda c: stability.classify(stability.JacobianMatrix(3, np.array([[-1e200, 0, -1], [1, 0, 0], [0, 1, 0]]))),
        ValueError, "cubic x^3 + 1e+200 x^2 + 0 x + 1: root bound 2e+200 cubed overflows"),
    "cubic with a coefficient that is not finite": (  # its 2x2 minors are inf - inf
        lambda c: stability.classify(stability.JacobianMatrix(
            3, np.array([[1e200, -1e200, 0], [1e200, -1e200, 0], [0, 0, 0]]))),
        ValueError, "cubic x^3 + -0 x^2 + nan x + -0: coefficients not finite"),
    "classify a 4x4 matrix": (
        lambda c: stability.classify(stability.JacobianMatrix(4, np.eye(4))),
        ValueError, "classify handles 2x2 and 3x3 matrices"),
}

TARGETS = CalibrationTargets(0.04, 0.008)

SCENARIOS = {
    "negative x0": (lambda c: scenarios.ScenarioConfig(c["s5"], x0=(-1.0, 0.0, 0.0)),
                    ValueError, "x0 must be nonnegative"),
    "two schedule pieces": (
        lambda c: scenarios.scenario_from_config(
            replace(c["s5"], k_u_schedule=((1.0, 2.0, 1.0), (3.0, 4.0, 1.0)))),
        ValueError, "scenario expects at most one schedule piece as the burst"),
    "linear calibration on a surge price": (
        lambda c: calibrate_linear_admission(TARGETS, SURGE, SVC, 4.0),
        CalibrationError, "calibration needs a price with a falling branch"),
    "cubic calibration on a surge price": (
        lambda c: calibrate_cubic_admission(TARGETS, SURGE, SVC, 4.0, 100.0),
        CalibrationError, "calibration needs a price with a falling branch"),
    "cubic q_max at 2*q_m": (
        lambda c: calibrate_cubic_admission(TARGETS, TRI, SVC, 4.0, 90.0),
        CalibrationError, "q_max must exceed 2*q_m = 90"),
}

CASES = {**MODEL, **LOADER, **REGIONS, **STABILITY, **SCENARIOS}


@pytest.mark.parametrize("name", CASES)
def test_named_error(cfgs, name):
    call, kind, message = CASES[name]
    with pytest.raises(kind) as info:
        call(cfgs)
    assert type(info.value) is kind
    assert str(info.value) == message


def test_eta1_inverse_of_zero(ref_cfg):
    assert regions.eta1_inverse(ref_cfg, 0.0) == 0.0


def test_fixed_point_on_a_kink_is_degenerate():
    # ref's alpha calibrated so that its low equilibrium sits on the service
    # kink q_c = 35, where the Jacobian is undefined
    adm = calibrate_linear_admission(CalibrationTargets(1e-3 * 35.0, 0.008), TRI, SVC, 4.0)
    low, high = find_fixed_points(ModelConfig(4.0, (), TRI, adm, SVC))
    assert low.q_star == 35.0
    assert low.classification == "degenerate" and low.eigen_data == ()
    assert high.classification == "saddle" and len(high.eigen_data) == 2
