"""Parametric building blocks of the access-pricing queue model.

Three piecewise functions of the active-queue length q drive everything:

* a price f(q) charged for access, in one of three shapes: a triangular
  profile that rises to beta*q_m and falls back to zero, a saturated
  variant that stops falling at a positive floor beta*(2*q_m - q_n), and
  a plain surge ramp beta*q;
* a service rate mu(q) that ramps linearly up to mu_star at q_c and is
  flat afterwards;
* an admission rate alpha(q), a strictly decreasing polynomial (linear or
  cubic) clamped to zero at q_max, which gates how fast waiting users
  enter the active queue.

Each spec owns the one implementation of its function, a numpy kernel
picked by variant when the spec is built; the integrators call it
directly.  The public evaluators validate their argument and then call
that kernel; they accept scalars or numpy arrays and are pure functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

PRICE_VARIANTS = ("triangular", "saturated", "surge")
ADMISSION_VARIANTS = ("linear", "cubic")


def _as_query(q):
    """Coerce a queue-length argument to ndarray, rejecting negatives."""
    arr = np.asarray(q, dtype=float)
    if np.any(arr < 0):
        raise ValueError("queue length must be nonnegative")
    return arr, np.isscalar(q) or getattr(q, "ndim", 0) == 0


def _ret(arr, scalar):
    return float(arr) if scalar else arr


def _require_finite(**values):
    """Reject NaN and +-inf, naming the parameter; None means absent."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class PriceSpec:
    """Price function parameters.

    variant "triangular": f = beta*q up to q_m, beta*(2*q_m - q) down to
    2*q_m, zero afterwards. variant "saturated": same but frozen at the
    value beta*(2*q_m - q_n) from q_n on, with q_m < q_n < 2*q_m.
    variant "surge": unbounded linear beta*q (q_m, q_n unused).
    """

    variant: str
    beta: float
    q_m: float | None = None
    q_n: float | None = None

    def __post_init__(self):
        if self.variant not in PRICE_VARIANTS:
            raise ValueError(f"unknown price variant {self.variant!r}")
        _require_finite(beta=self.beta, q_m=self.q_m, q_n=self.q_n)
        object.__setattr__(self, "_kernel", getattr(self, "_" + self.variant))
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if self.variant == "surge":
            if self.q_m is not None or self.q_n is not None:
                raise ValueError("surge price takes no q_m/q_n")
            return
        if self.q_m is None or not self.q_m > 0:
            raise ValueError("q_m must be > 0")
        if self.variant == "saturated":
            if self.q_n is None or not (self.q_m < self.q_n < 2 * self.q_m):
                raise ValueError("saturated price needs q_n in (q_m, 2*q_m)")
        elif self.q_n is not None:
            raise ValueError("triangular price takes no q_n")

    def _triangular(self, q):
        return self.beta * np.maximum(0.0, np.minimum(q, 2 * self.q_m - q))

    def _saturated(self, q):
        qm = self.q_m
        return self.beta * np.minimum(q, np.maximum(2 * qm - q, 2 * qm - self.q_n))

    def _surge(self, q):
        return self.beta * q

    @property
    def kinks(self) -> tuple[float, ...]:
        if self.variant == "triangular":
            return (self.q_m, 2 * self.q_m)
        if self.variant == "saturated":
            return (self.q_m, self.q_n)
        return ()


@dataclass(frozen=True)
class ServiceSpec:
    """Service rate: mu(q) = mu_star*q/q_c below q_c, mu_star above."""

    mu_star: float
    q_c: float

    def __post_init__(self):
        _require_finite(mu_star=self.mu_star, q_c=self.q_c)
        if not self.mu_star > 0:
            raise ValueError("mu_star must be > 0")
        if not self.q_c > 0:
            raise ValueError("q_c must be > 0")

    def _kernel(self, q):
        return self.mu_star / self.q_c * np.minimum(q, self.q_c)


@dataclass(frozen=True)
class AdmissionSpec:
    """Admission rate alpha(q): clamped decreasing polynomial.

    coefficients are in ascending powers: (c2, c1) for the linear variant
    alpha(q) = max(0, c1*q + c2), (a0, a1, a2, a3) for the cubic.  q_max
    is where alpha reaches zero; for the linear variant it is derived
    from the zero crossing -c2/c1 (infinite when c1 >= 0), rounded up to
    the first float with c1*q_max + c2 <= 0, for the cubic it must be
    supplied.  alpha is identically zero beyond q_max.
    """

    variant: str
    coefficients: tuple[float, ...]
    q_max: float | None = None

    def __post_init__(self):
        if self.variant not in ADMISSION_VARIANTS:
            raise ValueError(f"unknown admission variant {self.variant!r}")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        _require_finite(q_max=self.q_max)  # only a supplied one; derived may be inf
        object.__setattr__(self, "_kernel", getattr(self, "_" + self.variant))
        want = 2 if self.variant == "linear" else 4
        if len(coeffs) != want:
            raise ValueError(
                f"{self.variant} admission needs {want} coefficients, got {len(coeffs)}"
            )
        if self.variant == "linear":
            c2, c1 = coeffs
            if c1 >= 0:
                derived = math.inf
            else:
                derived = -c2 / c1
                # -c2/c1 rounds, so c1*q_max + c2 can come out a hair above
                # zero; step up to the first float where alpha really vanishes
                while c1 * derived + c2 > 0:
                    derived = math.nextafter(derived, math.inf)
            if self.q_max is None:
                object.__setattr__(self, "q_max", derived)
            elif abs(self.q_max - derived) > 1e-9 * max(1.0, abs(derived)):
                raise ValueError(
                    f"linear admission q_max {self.q_max} inconsistent with "
                    f"zero crossing {derived}"
                )
        else:
            if self.q_max is None or not self.q_max > 0:
                raise ValueError("cubic admission needs q_max > 0")

    def _linear(self, q):
        c2, c1 = self.coefficients
        return np.maximum(0.0, c1 * q + c2)

    def _cubic(self, q):
        a0, a1, a2, a3 = self.coefficients
        poly = a0 + q * (a1 + q * (a2 + q * a3))
        return np.where(q >= self.q_max, 0.0, np.maximum(0.0, poly))


@dataclass(frozen=True)
class ModelConfig:
    """Full system parameterization.

    k_u_schedule is a tuple of (t_start, t_end, rate) pieces giving the
    unresponsive arrival rate over time; the rate is zero outside all
    pieces.  q_ad, when present, is the admittance bound used by the
    chattering access policy.  Structural errors are raised here;
    semantic admissibility is reported by :func:`validate_admissible`.
    """

    k_r: float
    k_u_schedule: tuple[tuple[float, float, float], ...]
    price: PriceSpec
    admission: AdmissionSpec
    service: ServiceSpec
    q_ad: float | None = None

    def __post_init__(self):
        _require_finite(k_r=self.k_r, q_ad=self.q_ad)
        if not self.k_r > 0:
            raise ValueError("k_r must be > 0")
        pieces = tuple(
            (float(a), float(b), float(r)) for (a, b, r) in self.k_u_schedule
        )
        object.__setattr__(self, "k_u_schedule", pieces)
        prev_end = -math.inf
        for i, (t0, t1, rate) in enumerate(pieces):
            if not all(map(math.isfinite, (t0, t1, rate))):
                raise ValueError(f"k_u_schedule[{i}]: values must be finite")
            if not t0 < t1:
                raise ValueError(f"k_u_schedule[{i}]: t_start must be < t_end")
            if rate < 0:
                raise ValueError(f"k_u_schedule[{i}]: rate must be >= 0")
            if t0 < prev_end:
                raise ValueError(f"k_u_schedule[{i}]: pieces overlap")
            prev_end = t1
        if self.q_ad is not None and not self.q_ad > 0:
            raise ValueError("q_ad must be > 0")

    def schedule_rate(self, t: float) -> float:
        """Unresponsive arrival rate K_U(t) from the schedule."""
        for t0, t1, rate in self.k_u_schedule:
            if t0 <= t < t1:
                return rate
        return 0.0

    def schedule_breakpoints(self, t0: float, t1: float) -> list[float]:
        """Schedule edges strictly inside (t0, t1), sorted."""
        edges = set()
        for a, b, _ in self.k_u_schedule:
            for e in (a, b):
                if t0 < e < t1:
                    edges.add(e)
        return sorted(edges)

    def kink_points(self) -> tuple[float, ...]:
        """Queue lengths where f, mu or alpha are not differentiable."""
        pts = set(self.price.kinks)
        pts.add(self.service.q_c)
        if self.admission.q_max is not None and math.isfinite(self.admission.q_max):
            pts.add(self.admission.q_max)
        return tuple(sorted(pts))


def eval_price(spec: PriceSpec, q):
    """Price f(q) for the given variant; q may be scalar or array."""
    arr, scalar = _as_query(q)
    return _ret(spec._kernel(arr), scalar)


def price_slope(spec: PriceSpec, q):
    """Derivative f'(q); the left derivative at kinks."""
    arr, scalar = _as_query(q)
    b, qm, qn = spec.beta, spec.q_m, spec.q_n
    if spec.variant == "triangular":
        val = np.where(arr <= qm, b, np.where(arr <= 2 * qm, -b, 0.0))
    elif spec.variant == "saturated":
        val = np.where(arr <= qm, b, np.where(arr <= qn, -b, 0.0))
    else:
        val = np.full_like(arr, b)
    return _ret(val, scalar)


def eval_service(spec: ServiceSpec, q):
    """Service rate mu(q) = mu_star * min(q, q_c) / q_c."""
    arr, scalar = _as_query(q)
    return _ret(spec._kernel(arr), scalar)


def service_slope(spec: ServiceSpec, q):
    """Derivative mu'(q); the left derivative mu_star/q_c at q_c."""
    arr, scalar = _as_query(q)
    return _ret(np.where(arr <= spec.q_c, spec.mu_star / spec.q_c, 0.0), scalar)


def eval_admission(spec: AdmissionSpec, q):
    """Admission rate alpha(q) >= 0, identically zero from q_max on."""
    arr, scalar = _as_query(q)
    return _ret(spec._kernel(arr), scalar)


def admission_slope(spec: AdmissionSpec, q):
    """alpha'(q): derivative of the unclamped polynomial below q_max,
    zero above, left derivative at q_max exactly."""
    arr, scalar = _as_query(q)
    if spec.variant == "linear":
        c2, c1 = spec.coefficients
        val = np.where(arr <= spec.q_max, c1, 0.0)
    else:
        val = np.where(arr <= spec.q_max, _cubic_slope(spec.coefficients, arr), 0.0)
    return _ret(val, scalar)


def _cubic_slope(coefficients, q):
    """Derivative a1 + 2 a2 q + 3 a3 q^2 of the cubic; q float or array."""
    _, a1, a2, a3 = coefficients
    return a1 + q * (2 * a2 + q * 3 * a3)


def _cubic_slope_max(coefficients, q_max: float) -> float:
    """Largest derivative of the cubic a0 + a1 q + a2 q^2 + a3 q^3 on [0, q_max].

    The derivative is a quadratic, so its maximum sits at an endpoint or
    at its vertex q = -a2/(3*a3).  The cubic is nonincreasing on the
    interval iff the result is <= 0.
    """
    _, _, a2, a3 = coefficients
    crit = [0.0, q_max]
    if a3 != 0 and 0 <= -a2 / (3 * a3) <= q_max:
        crit.append(-a2 / (3 * a3))
    return max(_cubic_slope(coefficients, q) for q in crit)


def saturation_floor(cfg: ModelConfig) -> float:
    """Grid minimum of alpha(q) + f_sat(q) over [0, q_max + 2*q_m].

    With a saturated price this is a strictly positive constant; once
    alpha has vanished the sum equals the price floor beta*(2*q_m - q_n).
    """
    if cfg.price.variant != "saturated":
        raise ValueError("saturation_floor requires the saturated price variant")
    q_max = cfg.admission.q_max
    if not math.isfinite(q_max):
        raise ValueError("saturation_floor requires a finite admission q_max")
    hi = q_max + 2 * cfg.price.q_m
    grid = np.linspace(0.0, hi, 4001)
    total = eval_admission(cfg.admission, grid) + eval_price(cfg.price, grid)
    return float(total.min())


# Fixed-point root counts compatible with each price family: the
# triangular admissibility assumption demands exactly two, the saturated
# price forces either one or three (its positive tail adds a third
# crossing whenever the middle pair exists), the surge ramp yields one.
EXPECTED_ROOT_COUNTS = {
    "triangular": (2,),
    "saturated": (1, 3),
    "surge": (1,),
}


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AdmissibilityReport:
    """Pass/fail record, one clause per admissibility requirement."""

    clauses: list[Clause] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = [
            f"{c.name}: {'pass' if c.passed else 'FAIL'}"
            + (f" ({c.detail})" if c.detail else "")
            for c in self.clauses
        ]
        core = [c for c in self.clauses if c.name.startswith("alpha-") or c.name == "root-count"]
        out.append("Assumption 1: " + ("pass" if all(c.passed for c in core) else "FAIL"))
        return out


_ALPHA_GRID_POINTS = 1000  # alpha's grid on [0, q_max) in the admissibility check


def _alpha_clauses(cfg: ModelConfig) -> list[Clause]:
    """alpha-positive-decreasing and alpha-zero-beyond-qmax."""
    clauses = []
    adm = cfg.admission
    q_max = adm.q_max

    if math.isfinite(q_max):
        qs = np.linspace(0.0, q_max, _ALPHA_GRID_POINTS, endpoint=False)
        vals = eval_admission(adm, qs)
        positive = bool(np.all(vals > 0))
        decreasing = bool(np.all(np.diff(vals) < 0))
        if adm.variant == "linear":
            decreasing = decreasing and adm.coefficients[1] < 0
        else:
            decreasing = decreasing and _cubic_slope_max(adm.coefficients, q_max) <= 0
        clauses.append(
            Clause(
                "alpha-positive-decreasing",
                positive and decreasing,
                f"grid of {len(qs)} points on [0, {q_max:g})",
            )
        )
        tail = np.linspace(q_max, q_max + 2 * (cfg.price.q_m or q_max), 200)
        clauses.append(
            Clause(
                "alpha-zero-beyond-qmax",
                bool(np.all(eval_admission(adm, tail) == 0.0)),
            )
        )
    else:
        clauses.append(
            Clause("alpha-positive-decreasing", False, "alpha never reaches zero")
        )
        clauses.append(
            Clause("alpha-zero-beyond-qmax", False, "q_max is infinite")
        )
    return clauses


def _root_count(cfg: ModelConfig) -> tuple[Clause, list]:
    """The root-count clause and the normal-mode fixed points it counted
    (none when the scan failed)."""
    from . import equilibria  # deferred: equilibria imports this module

    expected = EXPECTED_ROOT_COUNTS[cfg.price.variant]
    try:
        points = equilibria.find_fixed_points(cfg, "normal")
        count = len(points)
        ok = count in expected
        detail = (
            f"found {count}, expected {' or '.join(map(str, expected))} "
            f"for {cfg.price.variant} price"
        )
        if ok and cfg.price.variant == "triangular":
            # the two roots must straddle the price peak
            q_m = cfg.price.q_m
            q1, q2 = points[0].q_star, points[1].q_star
            if not (0 < q1 < q_m < q2 < 2 * q_m):
                ok = False
                detail += f"; roots ({q1:.6g}, {q2:.6g}) not split by q_m = {q_m:g}"
        return Clause("root-count", ok, detail), points
    except Exception as exc:  # malformed configs must still produce a report
        return Clause("root-count", False, f"scan failed: {exc}"), []


def validate_admissible(cfg: ModelConfig, *, k_u: float | None = None) -> AdmissibilityReport:
    """Check the admissibility clauses of the model configuration.

    Verified on a uniform grid of 1000 points plus exact
    polynomial-derivative sign analysis: positivity and strict decrease
    of alpha on [0, q_max), alpha == 0 beyond q_max, the fixed-point root
    count expected for the price family, K_R > mu_star, and the placement
    of the admittance bound q_ad when present.  Passing k_u adds the
    competitive-mode root-count clause (exactly two points with
    mu(q) > K_U).  Failures are report entries, never exceptions.
    """
    from . import equilibria  # deferred: equilibria imports this module

    rep = AdmissibilityReport(_alpha_clauses(cfg))
    root, points = _root_count(cfg)
    rep.clauses.append(root)

    if k_u is not None:
        try:
            comp = equilibria.find_fixed_points(cfg, "competitive", k_u)
            rep.clauses.append(
                Clause(
                    "competitive-root-count",
                    len(comp) == 2,
                    f"found {len(comp)} with K_U = {k_u:g}, expected 2",
                )
            )
        except Exception as exc:
            rep.clauses.append(
                Clause("competitive-root-count", False, f"scan failed: {exc}")
            )

    rep.clauses.append(
        Clause(
            "kr-exceeds-mu-star",
            cfg.k_r > cfg.service.mu_star,
            f"K_R = {cfg.k_r:g}, mu_star = {cfg.service.mu_star:g}",
        )
    )

    if cfg.q_ad is not None:
        if len(points) >= 2:
            q1, q2 = points[0].q_star, points[1].q_star
            rep.clauses.append(
                Clause(
                    "q-ad-between-equilibria",
                    q1 < cfg.q_ad < q2,
                    f"q1*={q1:.6g}, q_ad={cfg.q_ad:g}, q2*={q2:.6g}",
                )
            )
            from . import regions

            try:
                qd = regions.q_dagger(cfg)
                rep.clauses.append(
                    Clause(
                        "q-ad-above-q-dagger",
                        qd < cfg.q_ad,
                        f"q_dagger={qd:.6g}",
                    )
                )
            except Exception as exc:
                rep.clauses.append(Clause("q-ad-above-q-dagger", False, str(exc)))
        else:
            rep.clauses.append(
                Clause("q-ad-between-equilibria", False, "needs two fixed points")
            )
        rep.clauses.append(
            Clause(
                "q-ad-above-q-c",
                cfg.service.q_c < cfg.q_ad,
                f"q_c={cfg.service.q_c:g}, q_ad={cfg.q_ad:g}",
            )
        )

    return rep
