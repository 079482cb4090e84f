"""Equilibrium calibration and fixed-point location.

Fixed points of every operating mode reduce to one scalar equation in
the active-queue length q, with K_U = 0 in normal mode:

    g(q) = f(q)/alpha(q) - (K_R + K_U - mu(q)) / (mu(q) - K_U) = 0

One private helper holds g's arithmetic and its domain test (alpha(q) > 0
and mu(q) > K_U, each with a 1e-12 guard band), on floats or arrays.  A
2000-point grid scan of g on an array of q finds the sign changes, each
bracket is bisected on plain floats (the specs' float forms) down to
adjacent floats, and back-substitution gives

    R* = (mu(q*) - K_U)/alpha(q*),   U* = K_U/alpha(q*) (3-state modes, else 0)

g depends on the mode only through K_U, so each balance equation is
scanned once, memoised per exact value of every input that reaches g (K_R,
the price, admission and service specs and K_U; not the schedule or q_ad),
each float told apart bit for bit, so 0.0 from -0.0.  An entry holds the
merged roots and, filled the first time each fixed-point tag asks, its
fixed points: normal, saturated(0.0) and competitive(0.0) share a scan.
A hit is bit-identical to a fresh scan, the memo keeps a fixed number of
entries and drops the least recently used first, and a failed scan is not
stored.

Calibration runs the other way: given desired equilibrium prices p1, p2
it constructs an admission polynomial whose fixed points land at
q1* = p1/beta and q2* = 2*q_m - p2/beta.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
import math
import threading

import numpy as np

from . import stability
from .dynamics import as_mode
from .model import (
    AdmissionSpec,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    _alpha_clauses,
    _as_query,
    _root_count,
    eval_admission,
    eval_price,
    eval_service,
)

GRID_POINTS = 2000          # scan density for the residual
ROOT_MERGE_TOL = 1e-6       # roots closer than this collapse to one
DOMAIN_EPS = 1e-12          # guard band on mu(q) > K_U and alpha(q) > 0
_MEMO_ENTRIES = 64          # balance equations kept by find_fixed_points


class CalibrationError(ValueError):
    """Requested equilibrium targets admit no admissible admission rate."""


class ResidualUndefinedError(ValueError):
    """The fixed-point residual is not defined at the requested point."""


@dataclass(frozen=True)
class FixedPoint:
    """An equilibrium, its mode and its linearized character."""

    mode: str
    r_star: float
    q_star: float
    u_star: float
    price_at: float
    classification: str
    eigen_data: tuple[complex, ...]


@dataclass(frozen=True)
class CalibrationTargets:
    """Desired equilibrium prices for the low/high congestion regimes.

    alpha0 optionally pins the cubic's value at q = 0; if omitted the
    cubic calibration scans for it.
    """

    p1: float
    p2: float
    alpha0: float | None = None


def _fixed_point_mode(mode, k_u):
    """The SystemMode and the K_U of its fixed-point equations (none in normal)."""
    mode = as_mode(mode, k_u)
    return mode, (0.0 if mode.fixed_point_tag == "normal" else mode.k_u)


def _balance(f, q, a, m, k_r: float, k_u: float):
    """(ok, g) on q, floats or arrays, from a = alpha(q), m = mu(q) and the price f:
    ok is {alpha > DOMAIN_EPS, mu - K_U > DOMAIN_EPS}, g is g where ok holds.
    On arrays, a load term (K_R + K_U - mu)/(mu - K_U) that overflows where
    ok holds raises ValueError naming k_r; a price term f/alpha that
    overflows is +inf, which keeps g's sign."""
    ok = (a > DOMAIN_EPS) & (m - k_u > DOMAIN_EPS)
    if not isinstance(ok, np.ndarray):
        return ok, (f(q) / a - (k_r + k_u - m) / (m - k_u) if ok else None)
    q, a, m = q[ok], a[ok], m[ok]
    with np.errstate(over="ignore"):
        load = (k_r + k_u - m) / (m - k_u)
        price = f(q) / a
    if not np.isfinite(load).all():
        raise ValueError(f"k_r = {k_r:g} too large: the load term (K_R + K_U - mu)/(mu - K_U) "
                         "overflows on the scan domain")
    return ok, price - load


def _residual(cfg: ModelConfig, k_u: float, qs: np.ndarray):
    """g and its domain mask on an array of q; g is NaN off the mask.  An
    alpha that overflows is +inf, which keeps g's sign."""
    with np.errstate(over="ignore"):
        a = cfg.admission._kernel(qs)
    ok, g_ok = _balance(cfg.price._kernel, qs, a, cfg.service._kernel(qs), cfg.k_r, k_u)
    g = np.full_like(qs, np.nan)
    g[ok] = g_ok
    return g, ok


def _scalar_residual(cfg: ModelConfig, k_u: float):
    """g on one plain float q, through the specs' float forms: (ok, g)."""
    f, alpha, mu, k_r = cfg.price._scalar, cfg.admission._scalar, cfg.service._scalar, cfg.k_r
    return lambda q: _balance(f, q, alpha(q), mu(q), k_r, k_u)


def fixed_point_residual(
    q: float, cfg: ModelConfig, mode="normal", k_u: float | None = None
) -> float:
    """Scalar residual g(q) whose roots are the mode's equilibria.

    mode is a SystemMode or a tag; k_u, when given, must agree with a
    SystemMode's.  Raises ResidualUndefinedError where the defining
    fractions blow up: alpha(q) = 0, mu(q) = 0, or mu(q) <= K_U in the
    K_U-fed modes.
    """
    _, k_u = _fixed_point_mode(mode, k_u)
    q = float(_as_query(q)[0])
    ok, g = _scalar_residual(cfg, k_u)(q)
    if ok:
        return g
    if cfg.admission._scalar(q) <= DOMAIN_EPS:  # which bound failed
        raise ResidualUndefinedError(f"alpha({q:g}) vanishes")
    m = cfg.service._scalar(q)
    raise ResidualUndefinedError(f"mu({q:g}) = {m:g} does not exceed K_U = {k_u:g}")


def _scan_domain(cfg: ModelConfig, k_u: float):
    """Grid over {q : mu(q) > K_U, alpha(q) > 0}, masked residual and mask."""
    q_max = cfg.admission.q_max
    hi = q_max - max(1e-9, abs(q_max) * 1e-12) if math.isfinite(q_max) else 4 * cfg.service.q_c + 400.0
    svc = cfg.service
    ramp = svc.mu_star / svc.q_c  # mu = ramp*q up to q_c
    if k_u >= svc.mu_star or not ramp > 0:  # mu <= K_U everywhere; mu = 0 if the ramp underflows
        return None
    lo = 1e-9 if k_u <= 0 else (k_u + DOMAIN_EPS) / ramp * (1 + 1e-12) + 1e-12
    if lo >= hi:
        return None
    qs = np.linspace(lo, hi, GRID_POINTS)
    return (qs, *_residual(cfg, k_u, qs))


def _bisect(residual, lo: float, hi: float, g_lo: float) -> float:
    """A root of g in the sign-change bracket [lo, hi], on plain floats.

    residual is _scalar_residual's.  Stops on an exact zero of g at the
    midpoint, which is returned, or once the midpoint rounds onto lo or
    hi, or after 100 halvings, which return 0.5*(lo + hi).
    """
    up = g_lo > 0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        ok, g = residual(mid)
        if not ok:
            raise ResidualUndefinedError(f"g undefined at q = {mid:g} inside a bracket")
        if g == 0.0:
            return mid
        lo, hi = (mid, hi) if (g > 0) == up else (lo, mid)
    return 0.5 * (lo + hi)


# key -> (merged roots of g, {fixed-point tag: its fixed points})
_memo: OrderedDict[str, tuple[tuple, dict[str, tuple[FixedPoint, ...]]]] = OrderedDict()
_memo_lock = threading.Lock()


def find_fixed_points(
    cfg: ModelConfig, mode="normal", k_u: float | None = None
) -> list[FixedPoint]:
    """Locate and classify every fixed point of the given mode.

    mode is a SystemMode or a tag; k_u, when given, must agree with a
    SystemMode's.  Grid scan of the residual over its domain, bisection
    of each sign change on floats, merge of roots closer than 1e-6,
    back-substitution of the remaining coordinates, classification
    through the stability module.  An empty list is a valid result
    (e.g. K_U >= mu_star).  Each balance equation is scanned once and
    its roots shared by every mode at the same K_U (see the module
    docstring); each call returns a new list.
    """
    mode, k_u = _fixed_point_mode(mode, k_u)
    tag = mode.fixed_point_tag
    # repr writes each float so that it reads back bit for bit
    key = repr((cfg.k_r, cfg.price, cfg.admission, cfg.service, k_u))
    with _memo_lock:
        entry = _memo.get(key)
        if entry is not None:
            _memo.move_to_end(key)
            if tag in entry[1]:
                return list(entry[1][tag])
    roots = _roots(cfg, k_u) if entry is None else entry[0]
    points = _back_substitute(cfg, mode, k_u, roots)
    with _memo_lock:
        _memo.setdefault(key, (roots, {}))[1][tag] = points
        _memo.move_to_end(key)
        if len(_memo) > _MEMO_ENTRIES:
            _memo.popitem(last=False)
    return list(points)


def _roots(cfg: ModelConfig, k_u: float) -> tuple:
    """The merged roots of g: the one scan of a balance equation."""
    dom = _scan_domain(cfg, k_u)
    if dom is None:
        return ()
    qs, g, ok = dom
    idx = np.nonzero(ok[:-1] & ok[1:] & (np.sign(g[:-1]) * np.sign(g[1:]) < 0))[0]
    residual = _scalar_residual(cfg, k_u)
    brackets = zip(qs[idx].tolist(), qs[idx + 1].tolist(), g[idx].tolist())
    roots = np.sort(np.concatenate([[_bisect(residual, *b) for b in brackets], qs[g == 0.0]]))
    merged = []
    for r in roots:
        if not (merged and abs(r - merged[-1]) < ROOT_MERGE_TOL):
            merged.append(r)
    return tuple(merged)


def _back_substitute(cfg: ModelConfig, mode, k_u: float, roots) -> tuple[FixedPoint, ...]:
    """The fixed points of the SystemMode at the roots of its balance equation."""
    tag = mode.fixed_point_tag
    out = []
    for q_star in map(float, roots):  # the scan's roots are numpy floats
        a = eval_admission(cfg.admission, q_star)
        r_star = (eval_service(cfg.service, q_star) - k_u) / a
        u_star = k_u / a if mode.dim == 3 else 0.0
        try:
            jac = stability.jacobian(cfg, (r_star, q_star, u_star), tag)
            report = stability.classify(jac)
            cls, eig = report.classification, tuple(report.eigenvalues)
        except stability.KinkProximityError:
            cls, eig = "degenerate", ()
        out.append(FixedPoint(tag, r_star, q_star, u_star, eval_price(cfg.price, q_star), cls, eig))
    return tuple(out)


def _target_queues(targets: CalibrationTargets, price: PriceSpec):
    """Implied q1*, q2* from the desired prices; validates intervals."""
    if price.variant == "surge":
        raise CalibrationError("calibration needs a price with a falling branch")
    peak = eval_price(price, price.q_m)
    for name, p in (("p1", targets.p1), ("p2", targets.p2)):
        if not 0 < p < peak:
            raise CalibrationError(f"{name} must lie in (0, beta*q_m) = (0, {peak:g})")
    # the rising leg beta*q and the falling leg beta*(2*q_m - q), inverted
    q1, q2 = targets.p1 / price.beta, 2 * price.q_m - targets.p2 / price.beta
    if price.variant == "saturated" and q2 >= price.q_n:
        raise CalibrationError(
            f"p2 = {targets.p2:g} sits at or below the saturation floor "
            f"{eval_price(price, price.q_n):g}; no point on the falling branch has that price"
        )
    return q1, q2


def _alpha_targets(q1, q2, price, service, k_r):
    out = []
    for q in (q1, q2):
        m = eval_service(service, q)
        if k_r <= m:
            raise CalibrationError(f"K_R = {k_r:g} must exceed mu({q:g}) = {m:g}")
        out.append(eval_price(price, q) * m / (k_r - m))
    return out


def _check_calibrated(admission, price, service, k_r, q1, q2) -> ModelConfig:
    cfg = ModelConfig(
        k_r=k_r, k_u_schedule=(), price=price, admission=admission, service=service
    )
    root, points = _root_count(cfg)
    for cl in _alpha_clauses(admission) + [root]:
        if not cl.passed:
            raise CalibrationError(f"calibrated admission fails {cl.name}: {cl.detail}")
    found = [fp.q_star for fp in points]
    for q in (q1, q2):
        if price.variant == "saturated" and not any(abs(q - f) < 1e-6 for f in found):
            raise CalibrationError(f"target equilibrium q* = {q:g} not recovered")
    if price.variant == "triangular":
        if len(found) != 2 or abs(found[0] - q1) > 1e-6 or abs(found[1] - q2) > 1e-6:
            raise CalibrationError(f"extra or missing roots: found {found}")
    return cfg


def calibrate_linear_admission(
    targets: CalibrationTargets,
    price: PriceSpec,
    service: ServiceSpec,
    k_r: float,
) -> AdmissionSpec:
    """Linear alpha through the two equilibrium conditions.

    Solves alpha(q_i*) = p_i * mu(q_i*) / (K_R - mu(q_i*)) for (c1, c2)
    and verifies the result is admissible (strictly decreasing, correct
    root count).
    """
    q1, q2 = _target_queues(targets, price)
    a1, a2 = _alpha_targets(q1, q2, price, service, k_r)
    if a1 <= a2:
        raise CalibrationError(
            f"monotonicity violation: alpha(q1*) = {a1:g} <= alpha(q2*) = {a2:g}"
        )
    c1 = (a2 - a1) / (q2 - q1)
    c2 = a1 - c1 * q1
    adm = AdmissionSpec(variant="linear", coefficients=(c2, c1))
    _check_calibrated(adm, price, service, k_r, q1, q2)
    return adm


def calibrate_cubic_admission(
    targets: CalibrationTargets,
    price: PriceSpec,
    service: ServiceSpec,
    k_r: float,
    q_max: float,
) -> AdmissionSpec:
    """Cubic alpha through the two equilibrium conditions.

    Four linear equations fix (a0..a3): the two alpha targets, alpha(q_max) = 0
    and alpha(0) = alpha0.  When targets.alpha0 is absent, alpha0 is scanned
    over [alpha(q1*), 4*alpha(q1*)] in 64 steps and the first solution that
    passes validate's alpha-positive-decreasing clause wins: its derivative
    is nonpositive on all of [0, q_max] and it rounds to alpha > 0 at the
    float below q_max.
    """
    q1, q2 = _target_queues(targets, price)  # first: a surge price has no q_m
    if not q_max > 2 * price.q_m:
        raise CalibrationError(f"q_max must exceed 2*q_m = {2 * price.q_m:g}")
    a1t, a2t = _alpha_targets(q1, q2, price, service, k_r)
    if a1t <= a2t:
        raise CalibrationError(
            f"monotonicity violation: alpha(q1*) = {a1t:g} <= alpha(q2*) = {a2t:g}"
        )

    def solve(alpha0):
        A = np.array([[1.0, q, q * q, q ** 3] for q in (0.0, q1, q2, q_max)])
        b = np.array([alpha0, a1t, a2t, 0.0])
        return tuple(np.linalg.solve(A, b))

    if targets.alpha0 is not None:
        if targets.alpha0 < a1t:
            raise CalibrationError(
                f"alpha0 = {targets.alpha0:g} below alpha(q1*) = {a1t:g}; "
                "a decreasing cubic needs alpha(0) >= alpha(q1*)"
            )
        candidates = [targets.alpha0]
    else:
        candidates = list(np.linspace(a1t, 4 * a1t, 64))

    for alpha0 in candidates:
        adm = AdmissionSpec(variant="cubic", coefficients=solve(alpha0), q_max=q_max)
        if _alpha_clauses(adm)[0].passed:
            _check_calibrated(adm, price, service, k_r, q1, q2)
            return adm
    tried = (f"at the pinned alpha0 = {targets.alpha0:g}" if targets.alpha0 is not None
             else f"in the alpha0 scan range [{a1t:g}, {4 * a1t:g}]")
    raise CalibrationError(f"no monotone cubic positive below q_max found {tried}")
