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

Each spec declares its function once, in three forms side by side: a
numpy kernel (_kernel) for the evaluators and the batch integrators, its
plain-float twin (_scalar) for the scalar RK4 backend, and a piece table
(pieces): (start, origin, coefficients) per piece, covering [start, next
start) with the polynomial sum c_k * (q - origin)**k of degree <= 3.
Written about its origin, a piece evaluates bit for bit like the kernel;
a piece through zero has constant term -0.0, the additive identity, so
q = -0.0 keeps its sign.  Slopes, kinks and exact extrema all come from
the tables.  The public evaluators validate their argument and then
call the kernel, or the twin when the argument is a float (Python or
numpy float64): the same bits at a fraction of the cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
import math
import struct

import numpy as np

PRICE_VARIANTS = ("triangular", "saturated", "surge")
ADMISSION_VARIANTS = ("linear", "cubic")


def _as_query(q):
    """(query, scalar) from a queue-length argument, rejecting negatives
    and NaN: a float (Python or numpy float64) stays a plain float, any
    other argument becomes an ndarray."""
    plain = isinstance(q, float)
    arr = float(q) if plain else np.asarray(q, dtype=float)
    if not (arr >= 0 if plain else np.all(arr >= 0)):
        raise ValueError("queue length q must be a nonnegative number")
    return arr, plain or arr.ndim == 0


def _evaluate(spec, q):
    """The spec's function at q: its twin on a plain float, else its kernel."""
    arr, scalar = _as_query(q)
    if type(arr) is float:
        return float(spec._scalar(arr))
    return float(spec._kernel(arr)) if scalar else spec._kernel(arr)


def _require_finite(**values):
    """Reject NaN and +-inf, naming the parameter; None means absent."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _declare(spec, kernel, scalar, pieces):
    """Bind the spec's three forms.  Each twin's conditionals reproduce
    np.maximum / np.minimum exactly: NaN propagates and, on a tie, the
    second operand wins (which decides the sign of a zero)."""
    for name, form in (("_kernel", kernel), ("_scalar", scalar), ("pieces", pieces)):
        object.__setattr__(spec, name, form)


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
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if self.variant == "surge":
            if self.q_m is not None or self.q_n is not None:
                raise ValueError("surge price takes no q_m/q_n")
        elif self.q_m is None or not self.q_m > 0:
            raise ValueError("q_m must be > 0")
        elif self.variant == "saturated":
            if self.q_n is None or not (self.q_m < self.q_n < 2 * self.q_m):
                raise ValueError("saturated price needs q_n in (q_m, 2*q_m)")
        elif self.q_n is not None:
            raise ValueError("triangular price takes no q_n")
        if self.q_m is not None:
            if not math.isfinite(2 * self.q_m):
                raise ValueError("q_m too large: the falling leg's end 2*q_m overflows")
            if not math.isfinite(self.beta * self.q_m):
                raise ValueError("beta too large: the peak price beta*q_m overflows")
        _declare(self, *getattr(self, "_" + self.variant)())

    def _saturated(self):
        """The three forms, also of the triangular price: its floor is zero
        from 2*q_m on.  The falling leg beta*(2*q_m - q) is the piece
        -beta*(q - 2*q_m)."""
        b, qm = self.beta, self.q_m
        end = 2 * qm if self.q_n is None else self.q_n
        floor = 2 * qm - end

        def scalar(q):
            w = 2 * qm - q
            if w <= floor:
                w = floor
            return b * (q if q < w else w)

        return (lambda q: b * np.minimum(q, np.maximum(2 * qm - q, floor)), scalar,
                ((0.0, 0.0, (-0.0, b)), (qm, 2 * qm, (-0.0, -b)), (end, 0.0, (b * floor,))))

    _triangular = _saturated

    def _surge(self):
        b = self.beta
        return (lambda q: b * q), (lambda q: b * q), ((0.0, 0.0, (-0.0, b)),)

    @property
    def kinks(self) -> tuple[float, ...]:
        """The breakpoints of the price after 0."""
        return tuple(s for s, _, _ in self.pieces[1:])


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
        ramp, q_c = self.mu_star / self.q_c, self.q_c
        if not math.isfinite(ramp):
            raise ValueError("q_c too small for mu_star: the ramp mu_star/q_c overflows")
        _declare(self, lambda q: ramp * np.minimum(q, q_c),
                 lambda q: ramp * (q_c if q >= q_c else q),
                 ((0.0, 0.0, (-0.0, ramp)), (q_c, 0.0, (ramp * q_c,))))


def _first_zero(c2: float, c1: float) -> float:
    """The first float q >= 0 with c1*q + c2 <= 0, for c1 < 0.

    c1*q + c2 never rises as q grows, in floats too (both roundings are
    monotone), so bisection on the bit patterns, which order the
    nonnegative floats, finds it in at most 64 halvings.  The search
    starts from the rounded quotient -c2/c1, which lies within a float or
    two of the answer unless c1*q is subnormal.
    """
    bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
    value = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
    vanishes = lambda i: i >= 0 and c1 * value(i) + c2 <= 0
    near = bits(max(-c2 / c1, 0.0))
    lo, hi = near - 2, near + 2
    if vanishes(lo) or not vanishes(hi):
        lo, hi = -1, bits(math.inf)
    while hi - lo > 1:  # vanishes(hi), and not vanishes(lo)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if vanishes(mid) else (mid, hi)
    return value(hi)


@dataclass(frozen=True)
class AdmissionSpec:
    """Admission rate alpha(q): clamped decreasing polynomial.

    coefficients are in ascending powers: (c2, c1) for the linear variant
    alpha(q) = max(0, c1*q + c2), (a0, a1, a2, a3) for the cubic.  q_max
    is where alpha reaches zero; for the linear variant it is derived
    from the zero crossing -c2/c1 (infinite when c1 >= 0) as the first
    float q_max >= 0 with c1*q_max + c2 <= 0, for the cubic it must be
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
        want = 2 if self.variant == "linear" else 4
        if len(coeffs) != want:
            raise ValueError(
                f"{self.variant} admission needs {want} coefficients, got {len(coeffs)}"
            )
        if self.variant == "linear":
            c2, c1 = coeffs
            derived = math.inf if c1 >= 0 else _first_zero(c2, c1)
            if self.q_max is None:
                object.__setattr__(self, "q_max", derived)
            elif abs(self.q_max - derived) > 1e-9 * max(1.0, abs(derived)):
                raise ValueError(
                    f"linear admission q_max {self.q_max} inconsistent with "
                    f"zero crossing {derived}"
                )
            _declare(self, *self._linear(derived))
        elif self.q_max is None or not self.q_max > 0:
            raise ValueError("cubic admission needs q_max > 0")
        elif not math.isfinite(_poly([abs(c) for c in coeffs], self.q_max)):
            # Horner on |a_i| bounds every Horner term of alpha on [0, q_max]
            raise ValueError("q_max too large: the cubic's Horner terms overflow on [0, q_max]")
        else:
            _declare(self, *self._cubic())

    def _linear(self, zero):  # the kernel kinks at the zero crossing, not a supplied q_max
        c2, c1 = self.coefficients

        def scalar(q):
            a = c1 * q + c2
            return 0.0 if 0.0 > a else a

        tail = ((zero, 0.0, (0.0,)),) if math.isfinite(zero) else ()
        return lambda q: np.maximum(0.0, c1 * q + c2), scalar, ((0.0, 0.0, (c2, c1)), *tail)

    def _cubic(self):
        (a0, a1, a2, a3), q_max = self.coefficients, self.q_max

        def kernel(q):
            x = np.minimum(q, q_max)  # alpha is 0 from q_max on: no poly to overflow there
            poly = a0 + x * (a1 + x * (a2 + x * a3))
            return np.where(q >= q_max, 0.0, np.maximum(0.0, poly))

        def scalar(q):
            if q >= q_max:
                return 0.0
            a = a0 + q * (a1 + q * (a2 + q * a3))
            return 0.0 if 0.0 > a else a

        return kernel, scalar, ((0.0, 0.0, self.coefficients), (q_max, 0.0, (0.0,)))


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
        """Queue lengths where f, mu or alpha are not differentiable: the
        breakpoints of their piece tables after 0, all finite."""
        specs = (self.price, self.admission, self.service)
        return tuple(sorted({s for spec in specs for s, _, _ in spec.pieces[1:]}))


def eval_price(spec: PriceSpec, q):
    """Price f(q) for the given variant; q may be scalar or array."""
    return _evaluate(spec, q)


def eval_service(spec: ServiceSpec, q):
    """Service rate mu(q) = mu_star * min(q, q_c) / q_c."""
    return _evaluate(spec, q)


def eval_admission(spec: AdmissionSpec, q):
    """Admission rate alpha(q) >= 0, identically zero from q_max on."""
    return _evaluate(spec, q)


def _poly(c, x, order: int = 0):
    """The piece polynomial c (ascending powers of x = q - origin) at x, or
    with order=1 its derivative, by Horner's scheme."""
    if order:
        c = [k * ck for k, ck in enumerate(c)][1:] or [0.0]
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = ck + x * acc
    return acc


def from_pieces(spec, q, order: int = 0):
    """The spec's function (order 0) or slope (order 1) at q, scalar or
    array, from its piece table.  At a breakpoint the value comes from the
    piece that starts there, as in the kernels, the slope from the one that
    ends there.  Values are floored at zero as in the kernels: a calibrated
    cubic can round a hair below zero just short of q_max."""
    arr, scalar = _as_query(q)
    starts = [s for s, _, _ in spec.pieces]
    if scalar:  # one piece on plain floats costs a fraction of the array path
        x = float(arr)
        _, origin, c = spec.pieces[max((bisect_left if order else bisect_right)(starts, x) - 1, 0)]
        val = _poly(c, x - origin, order)
        return val if order else float(0.0 if 0.0 > val else val)  # np.maximum(0.0, val)
    idx = np.maximum(np.searchsorted(starts, arr, "left" if order else "right") - 1, 0)
    # each piece sees queries clamped to its end, so none overflows far beyond it
    val = np.choose(idx, [_poly(c, np.minimum(arr, end) - origin, order)
                          for (_, origin, c), end in zip(spec.pieces, (*starts[1:], math.inf))])
    return val if order else np.maximum(0.0, val)


def slope(spec, q):
    """f'(q), alpha'(q) or mu'(q) from the spec's piece table; the left
    derivative at breakpoints, so alpha'(q_max) is the polynomial's."""
    return from_pieces(spec, q, 1)


price_slope = service_slope = admission_slope = slope


def extremum(tables, lo: float, hi: float, *, largest: bool = False, order: int = 0):
    """(value, q) where the sum of the piece tables' functions (order 0) or
    slopes (order 1) is least on [lo, hi], lo < hi, or greatest (largest).

    Exact: the candidates are lo, hi, the breakpoints between them and the
    real roots of the sum's derivative on each stretch between those.  Each
    piece counts on its closed interval, so at a jump both one-sided values
    compete.  The sum runs in the order of tables, on the unfloored pieces,
    which agree with the functions wherever alpha is admissible.
    """
    cuts = sorted({lo, hi, *(s for t in tables for s, _, _ in t if lo < s < hi)})
    found = []
    for a, b in zip(cuts, cuts[1:]):
        active = [next(p for p in reversed(t) if p[0] <= 0.5 * (a + b)) for t in tables]
        grad = np.zeros(4)  # the sum's derivative, ascending powers of q
        for _, origin, c in active:
            cq = [sum(math.comb(j, k) * c[j] * (-origin) ** (j - k) for j in range(k, len(c)))
                  for k in range(len(c))]
            for _ in range(order + 1):
                cq = [k * ck for k, ck in enumerate(cq)][1:]
            grad[:len(cq)] += cq
        roots = np.roots(grad[::-1]) if grad[1:].any() else ()
        for q in (a, b, *(z.real for z in roots if z.imag == 0 and a < z.real < b)):
            found.append((float(sum(_poly(c, q - o, order) for _, o, c in active)), float(q)))
    return (max if largest else min)(found, key=lambda vq: vq[0])


def _cubic_slope_max(coefficients, q_max: float) -> float:
    """Largest derivative of the cubic a0 + a1 q + a2 q^2 + a3 q^3 on
    [0, q_max]; the cubic is nonincreasing there iff the result is <= 0."""
    pieces = ((0.0, 0.0, tuple(coefficients)),)
    return extremum((pieces,), 0.0, q_max, largest=True, order=1)[0]


def saturation_floor(cfg: ModelConfig) -> float:
    """Minimum of alpha(q) + f_sat(q) over [0, q_max + 2*q_m], exact.

    With a saturated price this is a strictly positive constant; once
    alpha has vanished the sum equals the price floor beta*(2*q_m - q_n).
    """
    if cfg.price.variant != "saturated":
        raise ValueError("saturation_floor requires the saturated price variant")
    q_max = cfg.admission.q_max
    if not math.isfinite(q_max):
        raise ValueError("saturation_floor requires a finite admission q_max")
    return extremum((cfg.admission.pieces, cfg.price.pieces), 0.0, q_max + 2 * cfg.price.q_m)[0]


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
        # the grid cannot see a cubic that rounds to zero just short of q_max
        positive = bool(np.all(vals > 0)) and eval_admission(adm, math.nextafter(q_max, 0.0)) > 0
        steepest = extremum((adm.pieces,), 0.0, q_max, largest=True, order=1)[0]
        decreasing = bool(np.all(np.diff(vals) < 0)) and steepest <= 0
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
