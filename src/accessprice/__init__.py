"""Dynamic access-pricing queue model.

A fluid model of a service queue fed by price-responsive and
price-unresponsive users, with pricing used as the access regulator.
The package calibrates equilibria, classifies their stability, builds
verified invariant regions, integrates the switched nonsmooth dynamics
and reproduces the surge-vs-saturated fairness comparison.

`import accessprice` loads no submodule.  Each public name below, and
each submodule (`accessprice.scenarios`, `accessprice.cli`, ...), is
imported on first access (PEP 562), so a process pays only for the
modules it reaches: loading a configuration needs `model` alone.  numpy
loads with the first array query, which builds a spec's numpy kernel.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("model", (
            "AdmissionSpec", "CHATTERING", "ModelConfig", "NORMAL", "PriceSpec", "SWITCHED_FULL",
            "ServiceSpec", "SystemMode", "competitive_mode", "eval_admission",
            "eval_price", "eval_service", "saturated_mode", "validate_admissible",
        )),
        ("equilibria", (
            "CalibrationError", "CalibrationTargets", "FixedPoint", "calibrate_cubic_admission",
            "calibrate_linear_admission", "find_fixed_points", "fixed_point_residual",
        )),
        ("stability", (
            "JacobianMatrix", "KinkProximityError", "StabilityReport", "classify", "classify_at",
            "divergence", "jacobian", "saddle_criterion",
        )),
        ("dynamics", ("Trajectory", "admitted_flows", "converge", "integrate", "rhs")),
        ("regions", (
            "PhaseGrid", "RegionSpec", "build_cuboid", "build_polygon", "check_invariance",
            "eta1", "eta2", "eta3", "phase_grid", "q_dagger", "r_dagger",
        )),
        ("scenarios", (
            "Burst", "ComparisonResult", "FairnessSeries", "ScenarioConfig", "bounceback_probe",
            "fairness_gap", "run_comparison", "scenario_from_config",
        )),
    )
    for name in names
}
_SUBMODULES = frozenset({*_EXPORTS.values(), "cli"})

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
