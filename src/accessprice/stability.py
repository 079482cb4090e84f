"""Linearization and fixed-point classification.

The 2-state modes (normal, saturated, chattering below the admittance
bound) share the Jacobian

    [ -(f+alpha)   -R(f'+alpha') ]
    [  alpha        R*alpha'-mu' ]

and the competitive 3-state mode, in (R, q, U) order,

    [ -(f+alpha)   -R(f'+alpha')        0      ]
    [  alpha       (R+U)alpha'-mu'      alpha  ]
    [  0           -U*alpha'            -alpha ]

One private function builds these entries from f, f', alpha, alpha' and
mu' at q, for one state or an array of states.  jacobian() makes them a
matrix; divergence() sums the diagonal in the order of classify's trace.
finite_diff_jacobian() is the oracle: central differences of
dynamics.rhs, one call on the 2*dim perturbed states.

classify() reads the eigenvalues from the closed-form quadratic/cubic
solutions of the characteristic polynomial, not from an eigensolver, and
names the class by one rule on their real and imaginary parts in 2D and
3D alike.  Every coefficient, the determinant included, is plain float
arithmetic on the entries, so no result depends on a LAPACK build.  The
Hurwitz conditions are reported beside the class and do not decide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math

import numpy as np

from . import dynamics
from .dynamics import _admittance_bound, as_mode
from .model import ModelConfig, _real_roots, eval_admission, eval_price, eval_service, slope

KINK_RADIUS = 1e-9       # states closer than this to a kink are rejected
DEGENERACY_TOL = 1e-12   # |det| / |Re(lambda)| below this is degenerate


class KinkProximityError(ValueError):
    """The state sits on (or within 1e-9 of) a nondifferentiable point."""


@dataclass
class JacobianMatrix:
    dim: int
    entries: np.ndarray


@dataclass
class StabilityReport:
    classification: str
    trace: float
    determinant: float
    eigenvalues: tuple[complex, ...]
    hurwitz: dict = field(default_factory=dict)


def _kinks(cfg: ModelConfig, mode) -> list[float]:
    """Kinks of the mode's field: those of f, mu and alpha, plus q_ad when chattering."""
    q_ad = _admittance_bound(cfg, mode.tag)
    return list(cfg.kink_points()) + ([] if q_ad is None else [q_ad])


def _check_state(cfg: ModelConfig, state, mode) -> tuple[float, float, float]:
    vals = np.ravel(np.asarray(state, dtype=float)).tolist()
    if len(vals) == 2:
        vals.append(0.0)
    if len(vals) != 3:
        raise ValueError("state must have 2 or 3 coordinates (r, q[, u])")
    r, q, u = vals
    if not (0 <= r < math.inf and 0 <= q < math.inf and 0 <= u < math.inf):
        raise ValueError("state must be finite and lie in the positive orthant, without NaN")
    kinks = _kinks(cfg, mode)  # raises first when chattering lacks q_ad
    if mode.tag == "chattering" and q > cfg.q_ad - KINK_RADIUS:
        raise KinkProximityError(
            f"chattering linearization only defined below q_ad = {cfg.q_ad:g}"
        )
    for k in kinks:
        if abs(q - k) < KINK_RADIUS:
            raise KinkProximityError(
                f"q = {q!r} within {KINK_RADIUS:g} of the kink at {k:g}"
            )
    return r, q, u


def _local_fields(cfg: ModelConfig, q: float):
    """f, f', alpha, alpha' and mu' at q; slopes from the piece tables."""
    p, a = cfg.price, cfg.admission
    return eval_price(p, q), slope(p, q), eval_admission(a, q), slope(a, q), slope(cfg.service, q)


def _entries(cfg: ModelConfig, r, q, u, dim: int):
    """Rows of the mode's Jacobian at (r, q, u); floats or arrays of states."""
    f, fp, a, ap, mp = _local_fields(cfg, q)
    if dim == 2:
        return ((-(f + a), -r * (fp + ap)), (a, r * ap - mp))
    return (
        (-(f + a), -r * (fp + ap), 0.0),
        (a, (r + u) * ap - mp, a),
        (0.0, -u * ap, -a),
    )


def jacobian(cfg: ModelConfig, state, mode="normal") -> JacobianMatrix:
    """Analytic Jacobian of the mode's right-hand side at the state.

    2x2 for the normal/saturated/chattering modes (the latter only below
    the admittance bound, where the dynamics coincide with normal), 3x3
    for competitive/switched.  Raises KinkProximityError within 1e-9 of
    any kink of f, mu or alpha.
    """
    mode = as_mode(mode)
    r, q, u = _check_state(cfg, state, mode)
    return JacobianMatrix(mode.dim, np.array(_entries(cfg, r, q, u, mode.dim)))


def finite_diff_jacobian(cfg: ModelConfig, state, mode="normal", h: float = 1e-6) -> JacobianMatrix:
    """Central-difference Jacobian of dynamics.rhs; oracle for jacobian().

    Requires the state to sit more than 10*h away from every kink so the
    difference stencil never straddles one.
    """
    if not h > 0:
        raise ValueError("step h must be > 0")
    mode = as_mode(mode)
    r, q, u = _check_state(cfg, state, mode)
    for k in _kinks(cfg, mode):
        if abs(q - k) <= 10 * h:
            raise KinkProximityError(
                f"kink at {k:g} within 10*h of q = {q:g}"
            )
    dim = mode.dim
    x = np.tile([r, q, u], (2 * dim, 1))
    x[:dim, :dim] += h * np.eye(dim)
    x[dim:, :dim] -= h * np.eye(dim)
    d = dynamics.rhs(cfg, mode, 0.0, x)
    return JacobianMatrix(dim, ((d[:dim] - d[dim:]) / (2 * h))[:, :dim].T)


def divergence(cfg: ModelConfig, state, mode="normal"):
    """Trace of the Jacobian of the flow field at the state.

    2D: -f - alpha + alpha'*R - mu'.  3D: -2*alpha - f + (R+U)*alpha' - mu'.
    Strictly negative on the interior in both cases, which is what rules
    out periodic orbits and makes the 3D flow volume-reducing.  Accepts a
    single state (r, q[, u]) or an array of states on the trailing axis.
    """
    mode = as_mode(mode)
    if mode.tag == "chattering":
        raise ValueError("divergence is reported for the smooth modes only")
    arr = np.asarray(state, dtype=float)
    if arr.ndim <= 1:
        r, q, u = _check_state(cfg, state, mode)
    else:
        if not np.all((arr >= 0) & (arr < np.inf)):
            raise ValueError("states must be finite and lie in the positive orthant, without NaN")
        r, q = arr[..., 0], arr[..., 1]
        u = arr[..., 2] if arr.shape[-1] == 3 else np.zeros_like(r)
        for k in cfg.kink_points():
            if np.any(np.abs(q - k) < KINK_RADIUS):
                raise KinkProximityError(f"a sampled q sits on the kink at {k:g}")
    rows = _entries(cfg, r, q, u, mode.dim)
    return sum((rows[i][i] for i in range(1, mode.dim)), rows[0][0])


def solve_cubic(a1: float, a2: float, a3: float) -> tuple[complex, complex, complex]:
    """Roots of x^3 + a1 x^2 + a2 x + a3 via the closed-form solution.

    Three real roots use the trigonometric form, the complex-pair case
    uses Cardano; every root gets two Newton polish steps.  Sorted by
    (real, imag) for deterministic output.  A discriminant that is not
    finite raises ValueError by name.
    """
    p = a2 - a1 * a1 / 3.0
    shift = -a1 / 3.0
    try:
        q = 2.0 * a1 ** 3 / 27.0 - a1 * a2 / 3.0 + a3
        disc = -4.0 * p ** 3 - 27.0 * q * q
    except OverflowError:  # ** raises where * gives inf
        disc = math.inf
    if not math.isfinite(disc):
        raise ValueError(f"cubic x^3 + {a1:g} x^2 + {a2:g} x + {a3:g}: discriminant overflows")
    if abs(p) < 1e-300 and abs(q) < 1e-300:
        roots = [complex(shift)] * 3
    elif disc >= 0 and p < 0:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = min(1.0, max(-1.0, arg))
        theta = math.acos(arg) / 3.0
        roots = [
            complex(m * math.cos(theta - 2.0 * math.pi * k / 3.0) + shift)
            for k in range(3)
        ]
    else:
        s = cmath.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        for cand in (-q / 2.0 + s, -q / 2.0 - s):
            if abs(cand) > 0:
                w = cand ** (1.0 / 3.0)
                break
        else:
            w = 0j
        t1 = w - p / (3.0 * w) if w != 0 else 0j
        x1 = t1 + shift
        # remaining quadratic x^2 + (a1 + x1) x + (a2 + (a1 + x1) x1)
        b = a1 + x1
        c = a2 + b * x1
        sq = cmath.sqrt(b * b - 4.0 * c)
        roots = [x1, (-b - sq) / 2.0, (-b + sq) / 2.0]

    def polish(x):
        for _ in range(2):
            fx = ((x + a1) * x + a2) * x + a3
            dfx = (3.0 * x + 2.0 * a1) * x + a2
            if dfx != 0:
                x = x - fx / dfx
        return x

    roots = [polish(x) for x in roots]
    roots.sort(key=lambda z: (z.real, z.imag))
    return tuple(roots)


def classify(j: JacobianMatrix) -> StabilityReport:
    """Stability class of a 2x2 or 3x3 Jacobian from its eigenvalues.

    The characteristic polynomial comes from the trace, the principal
    minors and the determinant (a cofactor expansion along row 0), and its
    roots from the closed-form quadratic (real ones by model._real_roots'
    stable form) or cubic; a discriminant that is not finite raises
    ValueError by name.  One rule names the class in both dimensions:
    degenerate when |det| or some |Re(lambda)| is below 1e-12; otherwise
    stable_focus or stable_node (by whether some |Im(lambda)| exceeds
    1e-12) when every Re(lambda) < 0, unstable when every Re(lambda) > 0,
    saddle else.  The Hurwitz conditions (trace < 0 and det > 0 in 2D;
    Routh-Hurwitz a1 > 0, a3 > 0, a1*a2 > a3 in 3D) are reported in
    `hurwitz` and do not decide the class.
    """
    if j.dim == 2:
        (a, b), (c, d) = j.entries.tolist()
        tr = a + d
        det = a * d - b * c
        disc = tr * tr - 4 * det
        if not math.isfinite(disc):
            raise ValueError(f"quadratic x^2 + {-tr:g} x + {det:g}: discriminant overflows")
        if disc < 0:
            s = cmath.sqrt(disc)
            eig = ((tr - s) / 2, (tr + s) / 2)
        else:  # (): a double root at 0
            eig = tuple(complex(x) for x in sorted(_real_roots([det, -tr, 1.0], -math.inf, math.inf) or (0.0, 0.0)))
        hurwitz = {"trace": tr, "det": det, "disc": disc, "hurwitz": tr < 0 and det > 0}
    elif j.dim == 3:
        (a, b, c), (d, e, f), (g, h, i) = j.entries.tolist()
        tr = a + e + i
        minor = e * i - f * h
        det = a * minor - b * (d * i - f * g) + c * (d * h - e * g)
        a1 = -tr
        a2 = minor + a * i - c * g + a * e - b * d  # the principal 2x2 minors
        a3 = -det
        eig = solve_cubic(a1, a2, a3)
        hurwitz = {"a1": a1, "a2": a2, "a3": a3, "margin": a1 * a2 - a3,
                   "hurwitz": a1 > 0 and a3 > 0 and a1 * a2 > a3}
    else:
        raise ValueError("classify handles 2x2 and 3x3 matrices")
    re = [z.real for z in eig]
    if abs(det) < DEGENERACY_TOL or any(abs(x) < DEGENERACY_TOL for x in re):
        cls = "degenerate"
    elif all(x < 0 for x in re):
        cls = "stable_focus" if any(abs(z.imag) > DEGENERACY_TOL for z in eig) else "stable_node"
    elif all(x > 0 for x in re):
        cls = "unstable"
    else:
        cls = "saddle"
    return StabilityReport(classification=cls, trace=tr, determinant=det, eigenvalues=eig,
                           hurwitz=hurwitz)


def saddle_criterion(cfg: ModelConfig, fp) -> tuple[float, float, bool]:
    """Both sides of the high-congestion saddle inequality.

    At the second normal-mode fixed point the determinant of the
    linearization is negative iff

        -f'(q2*) mu(q2*)  >  (K_R - mu(q2*)) |alpha'(q2*)| + (f+alpha)(q2*) mu'(q2*)

    where -f' = beta on the falling price branch.  Returns (lhs, rhs,
    is_saddle).  q* <= q_m, off the high-congestion side, is rejected.
    """
    if fp.mode != "normal":
        raise ValueError("saddle criterion applies to normal-mode fixed points")
    q = fp.q_star
    if cfg.price.q_m is None or q <= cfg.price.q_m:
        raise ValueError("saddle criterion applies to the high-congestion point (q* > q_m)")
    f, fp, a, ap, mp = _local_fields(cfg, q)
    m = eval_service(cfg.service, q)
    lhs = -fp * m
    rhs = (cfg.k_r - m) * abs(ap) + (f + a) * mp
    return lhs, rhs, lhs > rhs
