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
mu' at the state's q.  jacobian() makes them a matrix; divergence() sums
the diagonal in the order of classify's trace.

classify() reads the eigenvalues from the characteristic polynomial, not
from an eigensolver: one routine solves the 2D quadratic and the quadratic
that the 3D cubic deflates to beside its one bisected real root.  One rule
on their real and imaginary parts names the class in 2D and 3D alike.
Every coefficient, the determinant included, is plain float arithmetic on
the entries, so no result depends on a LAPACK build.  The Hurwitz
conditions are reported beside the class and do not decide it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import cmath
import math

from .model import (ModelConfig, _admittance_bound, _bisect, _real_roots, as_mode, eval_admission, eval_price,
                    eval_service, slope)

KINK_RADIUS = 1e-9       # states closer than this to a kink are rejected
DEGENERACY_TOL = 1e-12   # relative: see classify


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


def _check_state(cfg: ModelConfig, state, mode) -> tuple:
    """(the SystemMode, r, q, u): mode resolved, state checked."""
    mode = as_mode(mode)
    if type(state) in (tuple, list) and all(isinstance(x, (int, float)) for x in state):
        vals = [float(x) for x in state]  # plain numbers need no numpy
    else:
        import numpy as np
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
    return mode, r, q, u


def _local_fields(cfg: ModelConfig, q: float):
    """f, f', alpha, alpha' and mu' at q; slopes from the piece tables."""
    p, a = cfg.price, cfg.admission
    return eval_price(p, q), slope(p, q), eval_admission(a, q), slope(a, q), slope(cfg.service, q)


def _entries(cfg: ModelConfig, r, q, u, dim: int):
    """Rows of the mode's Jacobian at the floats (r, q, u)."""
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
    import numpy as np

    mode, r, q, u = _check_state(cfg, state, mode)
    return JacobianMatrix(mode.dim, np.array(_entries(cfg, r, q, u, mode.dim)))


def classify_at(cfg: ModelConfig, state, mode="normal") -> StabilityReport:
    """classify(jacobian(cfg, state, mode)), bit for bit, on plain floats."""
    mode, r, q, u = _check_state(cfg, state, mode)
    return _classify(_entries(cfg, r, q, u, mode.dim))


def divergence(cfg: ModelConfig, state, mode="normal") -> float:
    """Trace of the Jacobian of the flow field at the state (r, q[, u]).

    2D: -f - alpha + alpha'*R - mu'.  3D: -2*alpha - f + (R+U)*alpha' - mu'.
    Strictly negative on the interior in both cases, which is what rules
    out periodic orbits and makes the 3D flow volume-reducing.
    """
    if as_mode(mode).tag == "chattering":
        raise ValueError("divergence is reported for the smooth modes only")
    mode, r, q, u = _check_state(cfg, state, mode)
    rows = _entries(cfg, r, q, u, mode.dim)
    return sum((rows[i][i] for i in range(1, mode.dim)), rows[0][0])


def _pair_roots(s: float, p: float) -> tuple[complex, complex]:
    """Roots of x^2 - s x + p, sorted by (real, imag): a real pair from
    model._real_roots' stable form (a double root at 0 where it finds
    none), a complex pair from cmath.sqrt.  A discriminant that is not
    finite raises ValueError by name."""
    disc = s * s - 4 * p
    if not math.isfinite(disc):
        raise ValueError(f"quadratic x^2 + {-s:g} x + {p:g}: discriminant overflows")
    if disc < 0:
        r = cmath.sqrt(disc)
        return (s - r) / 2, (s + r) / 2
    return tuple(complex(x) for x in sorted(_real_roots([p, -s, 1.0], -math.inf, math.inf) or (0.0, 0.0)))


def _cubic_roots(a1: float, a2: float, a3: float) -> tuple[complex, complex, complex]:
    """Roots of x^3 + a1 x^2 + a2 x + a3, sorted by (real, imag): a real
    root lam bisected (model._bisect) within Fujiwara's bound b on the roots'
    size, and the pair of the cubic / (x - lam) = x^2 - s x + p.  That is
    deflated from the top when lam is the small root (|lam|^3 <= |a3|/2),
    else from the bottom, so no small root is the difference of two large
    terms.  A coefficient that is not finite, or a b whose cube overflows,
    raises ValueError by name."""
    name = f"cubic x^3 + {a1:g} x^2 + {a2:g} x + {a3:g}"
    if not (math.isfinite(a1) and math.isfinite(a2) and math.isfinite(a3)):
        raise ValueError(f"{name}: coefficients not finite")
    b = 2 * max(abs(a1), math.sqrt(abs(a2)), (abs(a3) / 2) ** (1 / 3))
    if not math.isfinite(b * b * b):
        raise ValueError(f"{name}: root bound {b:g} cubed overflows")
    lam = _bisect(lambda x: ((x + a1) * x + a2) * x + a3, -b, b, False)
    if abs(lam * lam * lam) <= abs(a3) / 2:
        s = -a1 - lam
        p = a2 - lam * s
    else:
        p = -a3 / lam
        s = (a2 - p) / lam
    return tuple(sorted((complex(lam), *_pair_roots(s, p)), key=lambda z: (z.real, z.imag)))


def classify(j: JacobianMatrix) -> StabilityReport:
    """Stability class of a 2x2 or 3x3 Jacobian from its eigenvalues.

    The characteristic polynomial comes from the trace, the principal
    minors and the determinant (a cofactor expansion along row 0).  One
    quadratic routine gives its roots in 2D, and in 3D the pair beside one
    bisected real root, which deflates the cubic (_cubic_roots).  A
    discriminant, coefficient or root bound that floats cannot hold raises
    ValueError by name.  One rule, on the matrix's own scales, names the
    class in both dimensions: degenerate when |det| <= 1e-12 times the sum
    of its terms' sizes or some |Re(lambda)| <= 1e-12 |lambda|; otherwise
    stable_focus or stable_node (by whether some |Im(lambda)| exceeds
    1e-12 |lambda|) when every Re(lambda) < 0, unstable when every
    Re(lambda) > 0, saddle else.  The Hurwitz conditions (trace < 0 and
    det > 0 in 2D; Routh-Hurwitz a1 > 0, a3 > 0, a1*a2 > a3 in 3D) are
    reported in `hurwitz` and do not decide the class.
    """
    return _classify(j.entries.tolist())


def _classify(rows) -> StabilityReport:  # classify on the matrix's rows of floats
    if len(rows) == 2:
        (a, b), (c, d) = rows
        tr = a + d
        det = a * d - b * c
        scale = abs(a * d) + abs(b * c)
        eig = _pair_roots(tr, det)
        hurwitz = {"trace": tr, "det": det, "disc": tr * tr - 4 * det, "hurwitz": tr < 0 and det > 0}
    elif len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        tr = a + e + i
        minor = e * i - f * h
        det = a * minor - b * (d * i - f * g) + c * (d * h - e * g)
        scale = sum(abs(x * y * z) for x, y, z in ((a, e, i), (b, f, g), (c, d, h), (a, f, h), (b, d, i), (c, e, g)))
        a1 = -tr
        a2 = minor + a * i - c * g + a * e - b * d  # the principal 2x2 minors
        a3 = -det
        eig = _cubic_roots(a1, a2, a3)
        hurwitz = {"a1": a1, "a2": a2, "a3": a3, "margin": a1 * a2 - a3,
                   "hurwitz": a1 > 0 and a3 > 0 and a1 * a2 > a3}
    else:
        raise ValueError("classify handles 2x2 and 3x3 matrices")
    if abs(det) <= DEGENERACY_TOL * scale or any(abs(z.real) <= DEGENERACY_TOL * abs(z) for z in eig):
        cls = "degenerate"
    elif all(z.real < 0 for z in eig):
        cls = "stable_focus" if any(abs(z.imag) > DEGENERACY_TOL * abs(z) for z in eig) else "stable_node"
    elif all(z.real > 0 for z in eig):
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
