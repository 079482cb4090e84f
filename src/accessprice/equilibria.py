"""Equilibrium calibration and fixed-point location.

Fixed points of every operating mode reduce to one scalar equation in
the active-queue length q, with K_U = 0 in normal mode:

    g(q) = f(q)/alpha(q) - (K_R + K_U - mu(q)) / (mu(q) - K_U) = 0

One private helper holds g's arithmetic and its domain test, alpha(q) > 0
and mu(q) > K_U exactly, on plain floats, through the specs' float forms;
so scaling f and alpha by one power of two, a change of price unit, moves
no root.  The scan is exact, from the piece tables: on each stretch
between the breakpoints of f, alpha and mu, g has the sign of

    P(q) = f*(mu - K_U) - alpha*(K_R + K_U - mu),

a polynomial of degree <= 2 for a linear alpha, <= 4 for a cubic.  Cut at
alpha's real roots and at P's critical points (closed form up to degree
2, bisection above), P is monotone from cut to cut, and each sign change
in g's domain holds one root of g, bisected on g from its section down to
adjacent floats.  At a root of alpha P = f*(mu - K_U), so where f vanishes
too (a price of zero) the sections beside it hold no root.
Back-substitution gives

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
q1* = p1/beta and q2* = 2*q_m - p2/beta, in closed form on plain floats.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass
import math
import threading

from . import stability
from .dynamics import as_mode
from .model import (
    AdmissionSpec,
    ModelConfig,
    PriceSpec,
    ServiceSpec,
    _alpha_clauses,
    _as_query,
    _bisect,
    _first_zero,
    _poly,
    _real_roots,
    _root_count,
    _scaled,
    _stretches,
    eval_admission,
    eval_price,
    eval_service,
    extremum,
)

ROOT_MERGE_TOL = 1e-6       # roots closer than this collapse to one
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
    cubic calibration takes the middle of those that keep it decreasing.
    """

    p1: float
    p2: float
    alpha0: float | None = None


def _fixed_point_mode(mode, k_u):
    """The SystemMode and the K_U of its fixed-point equations (none in normal)."""
    mode = as_mode(mode, k_u)
    return mode, (0.0 if mode.fixed_point_tag == "normal" else mode.k_u)


def _scalar_residual(cfg: ModelConfig, k_u: float):
    """g on one plain float q, through the specs' float forms.  Off g's
    domain, alpha(q) > 0 and mu(q) > K_U with no guard band, it raises
    ResidualUndefinedError naming the bound that fails (alpha's first).  A
    load term (K_R + K_U - mu)/(mu - K_U) that overflows raises ValueError
    naming k_r; a price term f/alpha that overflows is +inf, which keeps
    g's sign."""
    f, alpha, mu, k_r = cfg.price._scalar, cfg.admission._scalar, cfg.service._scalar, cfg.k_r

    def residual(q):
        a, m = alpha(q), mu(q)
        if not a > 0.0:
            raise ResidualUndefinedError(f"alpha({q:g}) vanishes")
        if not m > k_u:
            raise ResidualUndefinedError(f"mu({q:g}) = {m:g} does not exceed K_U = {k_u:g}")
        load = (k_r + k_u - m) / (m - k_u)
        if not math.isfinite(load):
            raise ValueError(f"k_r = {k_r:g} too large: the load term (K_R + K_U - mu)/(mu - K_U) "
                             "overflows on the scan domain")
        return f(q) / a - load

    return residual


def fixed_point_residual(q: float, cfg: ModelConfig, mode="normal", k_u: float | None = None) -> float:
    """Scalar residual g(q) whose roots are the mode's equilibria.

    mode is a SystemMode or a tag; k_u, when given, must agree with a
    SystemMode's.  Raises ResidualUndefinedError where the defining
    fractions blow up: alpha(q) = 0, mu(q) = 0, or mu(q) <= K_U in the
    K_U-fed modes, and ValueError naming k_r where the load term
    overflows.  Any positive alpha(q), however small, is in the domain.
    """
    _, k_u = _fixed_point_mode(mode, k_u)
    return _scalar_residual(cfg, k_u)(float(_as_query(q)[0]))


# key -> (merged roots of g, {fixed-point tag: its fixed points})
_memo: OrderedDict[str, tuple[tuple, dict[str, tuple[FixedPoint, ...]]]] = OrderedDict()
_memo_lock = threading.Lock()


def find_fixed_points(cfg: ModelConfig, mode="normal", k_u: float | None = None) -> list[FixedPoint]:
    """Locate and classify every fixed point of the given mode.

    mode is a SystemMode or a tag; k_u, when given, must agree with a
    SystemMode's.  The exact scan of the residual over its domain (see
    the module docstring), merge of roots closer than 1e-6,
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
    roots = _scan(cfg, k_u) if entry is None else entry[0]
    points = _back_substitute(cfg, mode, k_u, roots)
    with _memo_lock:
        _memo.setdefault(key, (roots, {}))[1][tag] = points
        _memo.move_to_end(key)
        if len(_memo) > _MEMO_ENTRIES:
            _memo.popitem(last=False)
    return list(points)


def _scan(cfg: ModelConfig, k_u: float) -> tuple:
    """The merged roots of g on its domain: the one scan of a balance
    equation (see the module docstring)."""
    adm, svc, k_r = cfg.admission, cfg.service, cfg.k_r
    q_max = adm.q_max
    hi = q_max - max(1e-9, abs(q_max) * 1e-12) if math.isfinite(q_max) else 4 * svc.q_c + 400.0
    ramp = svc.mu_star / svc.q_c  # mu = ramp*q up to q_c
    if k_u >= svc.mu_star or not ramp > 0:  # mu <= K_U everywhere; mu = 0 if the ramp underflows
        return ()
    lo = 1e-9 if k_u <= 0 else k_u / ramp * (1 + 1e-12) + 1e-12
    if lo >= hi:
        return ()
    g = _scalar_residual(cfg, k_u)
    with suppress(ResidualUndefinedError):
        g(lo)  # the load term is largest where mu is least: a k_r that overflows it is named
    roots = []
    for a, b, _, (f, alpha, mu) in _stretches((cfg.price.pieces, adm.pieces, svc.pieces), lo, hi):
        # g has the sign of P = f*(mu - K_U) - alpha*(K_R + K_U - mu) where
        # alpha > 0, as mu > K_U on all of [lo, hi]; cut where alpha vanishes
        # and where P' = 0, P is monotone from cut to cut, with one root at
        # most.  Where alpha vanishes P = f*(mu - K_U); where f does too, P
        # is 0 there and keeps one sign on the section beside it: no root
        n = max(len(f), len(alpha))
        f, alpha = _scaled((*f, *[0.0] * (n - len(f))), (*alpha, *[0.0] * (n - len(alpha))))
        m0, m1 = (*mu, 0.0)[:2]
        p = [x * (m0 - k_u) - y * (k_r + k_u - m0) + (x1 + y1) * m1
             for x, y, x1, y1 in zip((*f, 0.0), (*alpha, 0.0), (0.0, *f), (0.0, *alpha))]
        zeros = _real_roots(alpha, a, b)
        cuts = sorted({a, b, *zeros, *_real_roots([k * c for k, c in enumerate(p)][1:], a, b)})
        up = [_poly(p, q) > 0 for q in cuts]
        held = {q for q in zeros if not _poly(f, q) > 0}
        roots += [_bisect(g, s, t, u) for s, t, u, v in zip(cuts, cuts[1:], up, up[1:])
                  if u != v and held.isdisjoint((s, t)) and adm._scalar(0.5 * (s + t)) > 0]
    merged = []
    for r in sorted(roots):
        if not (merged and abs(r - merged[-1]) < ROOT_MERGE_TOL):
            merged.append(r)
    return tuple(merged)


def _back_substitute(cfg: ModelConfig, mode, k_u: float, roots) -> tuple[FixedPoint, ...]:
    """The fixed points of the SystemMode at the roots of its balance equation."""
    tag = mode.fixed_point_tag
    out = []
    for q_star in roots:
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
        raise CalibrationError(f"p2 = {targets.p2:g} sits at or below the saturation floor "
                               f"{eval_price(price, price.q_n):g}; no point on the falling branch has that price")
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
    cfg = ModelConfig(k_r=k_r, k_u_schedule=(), price=price, admission=admission, service=service)
    root, points = _root_count(cfg)
    for cl in _alpha_clauses(admission) + [root]:
        if not cl.passed:
            raise CalibrationError(f"calibrated admission fails {cl.name}: {cl.detail}")
    found = [fp.q_star for fp in points]
    for q in (q1, q2):
        if price.variant == "saturated" and not any(abs(q - f) < 1e-6 for f in found):
            raise CalibrationError(f"target equilibrium q* = {q:g} not recovered")
    if price.variant == "triangular" and (len(found) != 2 or abs(found[0] - q1) > 1e-6
                                          or abs(found[1] - q2) > 1e-6):
        raise CalibrationError(f"extra or missing roots: found {found}")
    return cfg


def calibrate_linear_admission(targets: CalibrationTargets, price: PriceSpec, service: ServiceSpec,
                               k_r: float) -> AdmissionSpec:
    """Linear alpha through the two equilibrium conditions.

    Solves alpha(q_i*) = p_i * mu(q_i*) / (K_R - mu(q_i*)) for (c1, c2)
    and verifies the result is admissible (strictly decreasing, correct
    root count).
    """
    q1, q2 = _target_queues(targets, price)
    a1, a2 = _alpha_targets(q1, q2, price, service, k_r)
    if a1 <= a2:
        raise CalibrationError(f"monotonicity violation: alpha(q1*) = {a1:g} <= alpha(q2*) = {a2:g}")
    c1 = (a2 - a1) / (q2 - q1)
    c2 = a1 - c1 * q1
    adm = AdmissionSpec(variant="linear", coefficients=(c2, c1))
    _check_calibrated(adm, price, service, k_r, q1, q2)
    return adm


def calibrate_cubic_admission(targets: CalibrationTargets, price: PriceSpec, service: ServiceSpec,
                              k_r: float, q_max: float) -> AdmissionSpec:
    """Cubic alpha through the two equilibrium conditions.

    Through alpha(0) = alpha0, the two alpha targets and alpha(q_max) = 0
    (Newton's divided differences), each coefficient is affine in alpha0,
    so alpha' <= 0 on [0, q_max] holds on an interval I of alpha0.  I ends
    where alpha' is tight at q = 0, at q_max or at a double root, a root of
    its discriminant, quadratic in alpha0; extremum, validate's own rule,
    tests each gap between those cuts.  A pinned targets.alpha0 must lie in
    I; else alpha0 is the middle of I within [alpha(q1*), 4*alpha(q1*)].
    q_max becomes the first float at or below it where the cubic's float
    form reaches 0 (_first_zero), so alpha > 0 one float below it.
    """
    q1, q2 = _target_queues(targets, price)  # first: a surge price has no q_m
    if not q_max > 2 * price.q_m:
        raise CalibrationError(f"q_max must exceed 2*q_m = {2 * price.q_m:g}")
    a1t, a2t = _alpha_targets(q1, q2, price, service, k_r)
    if a1t <= a2t:
        raise CalibrationError(f"monotonicity violation: alpha(q1*) = {a1t:g} <= alpha(q2*) = {a2t:g}")
    if not math.isfinite(q_max * q_max * q_max):
        raise CalibrationError(f"q_max = {q_max:g} too large: q_max**3 overflows")

    def cubic(alpha0, y1, y2, unit=1.0):  # through (0, alpha0), (q1*, y1), (q2*, y2), (q_max, 0), in q/unit
        x1, x2, x3 = q1 / unit, q2 / unit, q_max / unit
        h1, h2, h3 = (y1 - alpha0) / x1, (y2 - alpha0) / x2, -alpha0 / x3  # (alpha - alpha0)/x
        d12, d23 = (h2 - h1) / (x2 - x1), (h3 - h2) / (x3 - x2)
        d123 = (d23 - d12) / (x3 - x1)
        return alpha0, h1 - d12 * x1 + d123 * x1 * x2, d12 - d123 * (x1 + x2), d123

    def steepest(alpha0):  # validate's rule: the largest alpha' on [0, q_max]
        return extremum((((0.0, 0.0, cubic(alpha0, a1t, a2t)),),), 0.0, q_max, largest=True, order=1)[0]

    # in units of alpha(q1*) and q_max, where nothing overflows: a_k = u_k + s*v_k at alpha0 = s*alpha(q1*)
    (_, u1, u2, u3), (_, v1, v2, v3) = cubic(0.0, 1.0, a2t / a1t, q_max), cubic(1.0, 0.0, 0.0, q_max)
    disc = (u2 * u2 - 3 * u1 * u3, 2 * u2 * v2 - 3 * (u1 * v3 + v1 * u3), v2 * v2 - 3 * v1 * v3)
    double = _real_roots(_scaled(disc)[0], -math.inf, math.inf)
    cuts = sorted(a1t * s for s in {-u1 / v1, -(u1 + 2 * u2 + 3 * u3) / (v1 + 2 * v2 + 3 * v3), *double})
    gaps = [(a, b) for a, b in zip(cuts, cuts[1:]) if steepest(0.5 * a + 0.5 * b) <= 0]
    lo, hi = (gaps[0][0], gaps[-1][1]) if gaps else (math.inf, -math.inf)
    if targets.alpha0 is not None:
        alpha0 = targets.alpha0
        if not lo <= alpha0 <= hi:  # so is alpha0 <= alpha(q1*): alpha then rises on [0, q1*]
            raise CalibrationError("no monotone cubic positive below q_max found at the pinned "
                                   f"alpha0 = {alpha0:g}")
    elif max(lo, a1t) > min(hi, 4 * a1t):
        why = f"needs alpha0 in [{lo:g}, {hi:g}]" if gaps else "holds at no alpha0"
        raise CalibrationError(f"no monotone cubic positive below q_max found in the alpha0 range "
                               f"[{a1t:g}, {4 * a1t:g}]: alpha' <= 0 on [0, q_max] {why}")
    else:
        alpha0 = 0.5 * max(lo, a1t) + 0.5 * min(hi, 4 * a1t)
    c = cubic(alpha0, a1t, a2t)
    adm = AdmissionSpec(variant="cubic", coefficients=c, q_max=_first_zero(lambda q: _poly(c, q) <= 0, q2, q_max))
    _check_calibrated(adm, price, service, k_r, q1, q2)
    return adm
