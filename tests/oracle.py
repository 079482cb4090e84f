"""References that tests check the library against, on paths no command
uses.

clock_steps walks a dynamics._clock one RK4 step at a time.
within_broadcast is dynamics._within's tolerance test as one broadcast.
finite_diff_jacobian differentiates dynamics.rhs by central differences.
exact_class names the class of a 3x3 matrix of floats from its exact
characteristic polynomial (fractions.Fraction): stability from the signs
of the Routh-Hurwitz array, node or focus from the sign of the
discriminant, and the 1e-12 bands of stability._classify checked on the
roots at 120 digits (decimal).  No step of it rounds to a float.
linear_cap searches a linear alpha's cap over all of [q_max, inf].
"""

from decimal import Decimal, localcontext
from fractions import Fraction
import math

import numpy as np

from accessprice import dynamics
from accessprice.model import _first_zero
from accessprice.stability import DEGENERACY_TOL, JacobianMatrix, KinkProximityError, _check_state, _kinks


def clock_steps(clock):
    """(t, dt, K_U) per step of the clock's pieces, lazily like range's:
    the per-step reference that tests step along."""
    for s, e, n, h, k_u in clock.pieces:
        for k in range(1, n):
            yield s + k * h, h, k_u
        if n:
            yield e, (e - s) - (n - 1) * h, k_u


def within_broadcast(states, targets, tol: float) -> np.ndarray:
    """(k, n): whether each of the (k, 3, n) states lies within tol of one
    of the (T, c, 1) targets in max-coordinate distance over the first c,
    from one (k, T, c, n) array of distances: the reference of _within."""
    dist = np.abs(states[:, None, : targets.shape[1]] - targets).max(axis=2)
    return dist.min(axis=1, initial=np.inf) < tol


def finite_diff_jacobian(cfg, state, mode="normal", h: float = 1e-6) -> JacobianMatrix:
    """Central-difference Jacobian of dynamics.rhs; oracle for jacobian().

    Requires the state to sit more than 10*h away from every kink so the
    difference stencil never straddles one.
    """
    if not h > 0:
        raise ValueError("step h must be > 0")
    mode, r, q, u = _check_state(cfg, state, mode)
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


def linear_cap(c2: float, c1: float, q_max: float) -> float:
    """The first float q >= q_max where c1*q + c2 < 0 (inf if none), by
    _first_zero over all of [q_max, inf]: the reference of model._linear_cap."""
    return _first_zero(lambda q: c1 * q + c2 < 0, q_max, math.inf)


def _real_root(c1, c2, c3) -> Decimal:
    """The real root of x^3 + c1 x^2 + c2 x + c3 when it has one alone, at
    120 digits: Newton steps kept inside a sign-change bracket, which
    bisects when a step leaves it."""
    p = lambda x: ((x + c1) * x + c2) * x + c3
    hi = 1
    while p(hi) < 0 or p(-hi) > 0:  # the bracket grows to the root
        hi *= 2
    lo, x = -hi, hi
    for _ in range(2000):
        px = p(x)
        if px == 0:
            break
        lo, hi = (x, hi) if px < 0 else (lo, x)
        dp = (3 * x + 2 * c1) * x + c2
        nx = x - px / dp if dp else lo
        if not lo < nx < hi:
            nx = (lo + hi) / 2
        if nx == x:
            break
        x = nx
    return x


def exact_class(rows):
    """stability._classify's class of the 3x3 float matrix rows, decided
    exactly, or None when some test sits within a factor of 2 of its 1e-12
    band, where a rounding may rightly tip the float class."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(x) for x in row] for row in rows]
    tol = Fraction(DEGENERACY_TOL)
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    scale = sum(abs(x * y * z) for x, y, z in ((a, e, i), (b, f, g), (c, d, h), (a, f, h), (b, d, i), (c, e, g)))
    c1, c2, c3 = -(a + e + i), e * i - f * h + a * i - c * g + a * e - b * d, -det
    disc = 18 * c1 * c2 * c3 - 4 * c1 ** 3 * c3 + c1 ** 2 * c2 ** 2 - 4 * c2 ** 3 - 27 * c3 ** 2
    near = lambda x, t, k=2: t / k <= x <= k * t  # k = 4 for squares
    if det and near(abs(det), tol * scale):
        return None
    re2 = 1  # the least (Re z / z)^2 over the roots
    if disc < 0 and det:  # a complex pair u +- iv beside the real root lam
        with localcontext() as ctx:
            ctx.prec = 120
            dec = [Decimal(x.numerator) / Decimal(x.denominator) for x in (c1, c2, c3)]
            lam = _real_root(*dec)
            u = -(dec[0] + lam) / 2
            re2 = u * u / (-dec[2] / lam)  # |u + iv|^2 = -c3/lam
        if near(re2, tol ** 2, 4) or near(1 - re2, tol ** 2, 4):
            return None
    if abs(det) <= tol * scale or re2 <= tol ** 2:
        return "degenerate"
    if c1 > 0 and c3 > 0 and c1 * c2 > c3:  # Routh-Hurwitz: every Re < 0
        return "stable_focus" if disc < 0 and 1 - re2 > tol ** 2 else "stable_node"
    if c1 < 0 and c3 < 0 and c1 * c2 < c3:  # the same for -x: every Re > 0
        return "unstable"
    return "saddle"
