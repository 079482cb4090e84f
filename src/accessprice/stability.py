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

Eigenvalues come from the closed-form quadratic/cubic solutions, not
from an eigensolver.  The one linear-algebra call is np.linalg.det for
the 3x3 determinant (an LU factorization), so 3D results are
reproducible for a given numpy/LAPACK build rather than across builds.
Classification is Hurwitz-style: trace/determinant in 2D, the
Routh-Hurwitz conditions a1 > 0, a3 > 0, a1*a2 > a3 in 3D.  Gershgorin
column discs are reported for 3D matrices as informational data only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math

import numpy as np

from . import dynamics
from .dynamics import _admittance_bound, as_mode
from .model import (
    ModelConfig,
    admission_slope,
    eval_admission,
    eval_price,
    eval_service,
    price_slope,
    service_slope,
)

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
    gershgorin: tuple[tuple[float, float], ...] = ()


def _kinks(cfg: ModelConfig, mode) -> list[float]:
    """Kinks of the mode's field: those of f, mu and alpha, plus q_ad when chattering."""
    q_ad = _admittance_bound(cfg, mode.tag)
    return list(cfg.kink_points()) + ([] if q_ad is None else [q_ad])


def _check_state(cfg: ModelConfig, state, mode) -> tuple[float, float, float]:
    vals = [float(v) for v in np.atleast_1d(np.asarray(state, dtype=float))]
    if len(vals) == 2:
        vals.append(0.0)
    if len(vals) != 3:
        raise ValueError("state must have 2 or 3 coordinates (r, q[, u])")
    r, q, u = vals
    if r < 0 or q < 0 or u < 0:
        raise ValueError("state must lie in the positive orthant")
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
    return (
        eval_price(cfg.price, q),
        price_slope(cfg.price, q),
        eval_admission(cfg.admission, q),
        admission_slope(cfg.admission, q),
        service_slope(cfg.service, q),
    )


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
        if np.any(arr < 0):
            raise ValueError("states must lie in the positive orthant")
        r, q = arr[..., 0], arr[..., 1]
        u = arr[..., 2] if arr.shape[-1] == 3 else np.zeros_like(r)
        for k in cfg.kink_points():
            if np.any(np.abs(q - k) < KINK_RADIUS):
                raise KinkProximityError(f"a sampled q sits on the kink at {k:g}")
    rows = _entries(cfg, r, q, u, mode.dim)
    return sum((rows[i][i] for i in range(1, mode.dim)), rows[0][0])


def _eig_quadratic(tr: float, det: float) -> tuple[complex, complex]:
    disc = tr * tr - 4 * det
    s = cmath.sqrt(disc)
    return ((tr - s) / 2, (tr + s) / 2)


def solve_cubic(a1: float, a2: float, a3: float) -> tuple[complex, complex, complex]:
    """Roots of x^3 + a1 x^2 + a2 x + a3 via the closed-form solution.

    Three real roots use the trigonometric form, the complex-pair case
    uses Cardano; every root gets two Newton polish steps.  Sorted by
    (real, imag) for deterministic output.
    """
    p = a2 - a1 * a1 / 3.0
    q = 2.0 * a1 ** 3 / 27.0 - a1 * a2 / 3.0 + a3
    shift = -a1 / 3.0
    disc = -4.0 * p ** 3 - 27.0 * q * q
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


def _gershgorin_columns(m: np.ndarray) -> tuple[tuple[float, float], ...]:
    out = []
    for j in range(m.shape[1]):
        radius = float(sum(abs(m[i, j]) for i in range(m.shape[0]) if i != j))
        out.append((float(m[j, j]), radius))
    return tuple(out)


def classify(j: JacobianMatrix) -> StabilityReport:
    """Stability classification of a 2x2 or 3x3 Jacobian.

    2D by the trace/determinant criterion: stable node or focus when
    trace < 0 and det > 0 (split on the discriminant sign), saddle when
    det < 0, degenerate when |det| < 1e-12.  3D by Routh-Hurwitz on the
    characteristic polynomial; eigenvalues from the closed-form cubic.
    """
    m = j.entries
    tr = float(np.trace(m))
    if j.dim == 2:
        det = float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])
        disc = tr * tr - 4 * det
        eig = _eig_quadratic(tr, det)
        if abs(det) < DEGENERACY_TOL:
            cls = "degenerate"
        elif det < 0:
            cls = "saddle"
        elif tr < 0:
            cls = "stable_node" if disc >= 0 else "stable_focus"
        else:
            cls = "unstable"
        return StabilityReport(
            classification=cls,
            trace=tr,
            determinant=det,
            eigenvalues=eig,
            hurwitz={"trace": tr, "det": det, "disc": disc,
                     "hurwitz": tr < 0 and det > 0},
        )

    if j.dim != 3:
        raise ValueError("classify handles 2x2 and 3x3 matrices")
    det = float(np.linalg.det(m))
    # principal 2x2 minors
    a2 = float(
        m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1]
        + m[0, 0] * m[2, 2] - m[0, 2] * m[2, 0]
        + m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    )
    a1 = -tr
    a3 = -det
    eig = solve_cubic(a1, a2, a3)
    hurwitz_ok = a1 > 0 and a3 > 0 and a1 * a2 > a3
    re = [z.real for z in eig]
    has_complex = any(abs(z.imag) > DEGENERACY_TOL for z in eig)
    if abs(det) < DEGENERACY_TOL or any(abs(x) < DEGENERACY_TOL for x in re):
        cls = "degenerate"
    elif all(x < 0 for x in re):
        cls = "stable_focus" if has_complex else "stable_node"
    elif all(x > 0 for x in re):
        cls = "unstable"
    else:
        cls = "saddle"
    return StabilityReport(
        classification=cls,
        trace=tr,
        determinant=det,
        eigenvalues=eig,
        hurwitz={"a1": a1, "a2": a2, "a3": a3,
                 "margin": a1 * a2 - a3, "hurwitz": hurwitz_ok},
        gershgorin=_gershgorin_columns(m),
    )


def saddle_criterion(cfg: ModelConfig, fp) -> tuple[float, float, bool]:
    """Both sides of the high-congestion saddle inequality.

    At the second normal-mode fixed point the determinant of the
    linearization is negative iff

        beta*mu(q2*)  >  (K_R - mu(q2*)) |alpha'(q2*)| + (f+alpha)(q2*) mu'(q2*)

    Returns (lhs, rhs, is_saddle).  Only meaningful for the point on the
    falling price branch, so q* <= q_m is rejected.
    """
    if fp.mode != "normal":
        raise ValueError("saddle criterion applies to normal-mode fixed points")
    q = fp.q_star
    if cfg.price.q_m is None or q <= cfg.price.q_m:
        raise ValueError("saddle criterion applies to the high-congestion point (q* > q_m)")
    f, _, a, ap, mp = _local_fields(cfg, q)
    m = eval_service(cfg.service, q)
    lhs = cfg.price.beta * m
    rhs = (cfg.k_r - m) * abs(ap) + (f + a) * mp
    return lhs, rhs, lhs > rhs
