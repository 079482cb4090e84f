"""Invariant-region construction and verification.

The nullclines of the 2-state system are graphs over q:

    eta1(q) = mu(q)/alpha(q)          (qdot = 0)
    eta2(q) = K_R/(alpha(q) + f(q))   (Rdot = 0)

R_dagger is the maximum of eta2 over [0, q_m] and q_dagger its preimage
under eta1, both on plain floats.  Whenever R2* > R_dagger, every choice
of q_bar in (q_dagger, q2*) and r_bar in (max{R_dagger, eta2(q_bar)},
eta1(q_bar)] yields a forward-invariant polygon A=(0,0), B=(0,q_bar),
C=(eta2(q_bar),q_bar), D=(r_bar,eta1_inverse(r_bar)), E=(r_bar,0) in the
domain of attraction of the low-congestion point.  The 3-state analogue
replaces eta1 by eta3(q) = eta1(q) - u_hat and traps a cuboid spanned by
the origin and (r_hat, q_hat, u_hat).

check_invariance samples the faces that halfspaces declares for both
kinds and tests each by the condition one rule reads from its row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from . import dynamics, equilibria
from .model import ModelConfig, _bisect, eval_admission, eval_price, eval_service, extremum

VERTEX_MARGIN = 1e-6  # boundary samples keep this distance from vertices


@dataclass
class FaceReport:
    name: str
    condition: str
    worst: float
    samples: int
    passed: bool


@dataclass
class InvarianceReport:
    faces: list[FaceReport] = field(default_factory=list)
    warning: str = ""

    @property
    def passed(self) -> bool:
        return all(f.passed for f in self.faces)


@dataclass
class RegionSpec:
    """An invariant candidate region.

    Polygon2D: vertices are the five (r, q) corners A..E, listed
    counterclockwise when q is drawn on the horizontal axis.  Cuboid3D:
    the two opposite corners (0,0,0) and (r_hat, q_hat, u_hat).
    """

    kind: str  # "polygon2d" | "cuboid3d"
    vertices: tuple[tuple[float, ...], ...]


@dataclass
class PhaseGrid:
    """Cell-centered vector-field samples plus overlay records."""

    r: np.ndarray
    q: np.ndarray
    dr: np.ndarray          # (len(r), len(q))
    dq: np.ndarray
    magnitude: np.ndarray
    eta1_curve: np.ndarray  # rows (q, R)
    eta2_curve: np.ndarray
    fixed_points: tuple


def _positive(val, message: str):
    """val unless some entry is <= 0 (a float is tested without numpy)."""
    if (val <= 0) if type(val) is float else np.any(val <= 0):
        raise ValueError(message)
    return val


_VANISHES = "alpha(q) vanishes at or beyond q_max; eta undefined"


def _alpha_checked(cfg, q):
    """alpha(q) > 0: a Python float for a scalar q, as each eta then is."""
    return _positive(eval_admission(cfg.admission, q), _VANISHES)


def eta1(cfg: ModelConfig, q):
    """q-nullcline height mu(q)/alpha(q); increasing in q."""
    return eval_service(cfg.service, q) / _alpha_checked(cfg, q)


def eta2(cfg: ModelConfig, q):
    """R-nullcline height K_R/(alpha(q) + f(q))."""
    tot = _alpha_checked(cfg, q) + eval_price(cfg.price, q)
    return cfg.k_r / _positive(tot, "alpha + f vanishes; eta2 undefined")


def eta3(cfg: ModelConfig, q, u_hat: float):
    """3-state analogue of eta1: (mu(q) - alpha(q)*u_hat)/alpha(q)."""
    a = _alpha_checked(cfg, q)
    return (eval_service(cfg.service, q) - a * u_hat) / a


def r_dagger(cfg: ModelConfig) -> float:
    """max { eta2(q) : q in [0, q_m] }, exact from its critical points.

    eta2 peaks where alpha + f is least, which model.extremum finds on the
    piece tables: at 0, at q_m or at a real root of alpha'(q) + beta
    inside, since the price is beta*q there.  eta2 is also evaluated where
    alpha is least, so an alpha that dips to zero in the interval raises
    "alpha(q) vanishes" instead of giving a value.
    """
    q_m = cfg.price.q_m
    if q_m is None:
        raise ValueError("r_dagger needs a price variant with a peak q_m")
    tables = (cfg.admission.pieces, cfg.price.pieces)
    return max(eta2(cfg, extremum(t, 0.0, q_m)[1]) for t in (tables, tables[:1]))


def eta1_inverse(cfg: ModelConfig, r: float) -> float:
    """Solve eta1(q) = r; eta1 is strictly increasing.  model._bisect runs
    from [0, hi], hi just below q_max, on eta1's float form with a sign of
    +-1.0, so it halves past an exact hit (the doa vertices keep their bits)
    onto adjacent floats lo < hi with eta1(lo) < r <= eta1(hi): one of them."""
    if not r >= 0:  # NaN included
        raise ValueError("eta1 inverse needs r >= 0")
    if r == 0:
        return 0.0
    q_max = cfg.admission.q_max
    hi = q_max * (1 - 1e-12) - 1e-12 if math.isfinite(q_max) else cfg.service.q_c * 1e6
    if eta1(cfg, hi) < r:
        raise ValueError(f"eta1 stays below {r:g} on its domain")
    mu, alpha = cfg.service._scalar, cfg.admission._scalar
    return _bisect(lambda q: 1.0 if mu(q) / _positive(alpha(q), _VANISHES) < r else -1.0, 0.0, hi, True)


def q_dagger(cfg: ModelConfig) -> float:
    """eta1_inverse(R_dagger)."""
    return eta1_inverse(cfg, r_dagger(cfg))


def _anchor(cfg, mode, k_u, what):
    """(upper fixed point, R_dagger, q_dagger) that both regions are built on.

    Raises by name unless the mode has exactly two fixed points and
    R2* > R_dagger.
    """
    fps = equilibria.find_fixed_points(cfg, mode, k_u)
    if len(fps) != 2:
        label = "normal-mode" if mode == "normal" else mode
        raise ValueError(
            f"{what} construction needs exactly two {label} fixed points, found {len(fps)}"
        )
    r2, rd = fps[1].r_star, r_dagger(cfg)
    if not r2 > rd:
        raise ValueError(f"hypothesis R2* > R_dagger violated: {r2:g} <= {rd:g}")
    return fps[1], rd, eta1_inverse(cfg, rd)


def _corner(name, value, lo, hi, interval):
    """value, or the midpoint of (lo, hi) when None, checked to lie in the
    interval: (lo, hi] if its text ends in "]", else (lo, hi)."""
    if value is None:
        value = 0.5 * (lo + hi)
    if not (lo < value <= hi if interval.endswith("]") else lo < value < hi):
        raise ValueError(f"{name} must lie in {interval} = ({lo:g}, {hi:g}{interval[-1]}, got {value:g}")
    return value


def build_polygon(cfg: ModelConfig, q_choice: float | None = None, r_choice: float | None = None) -> RegionSpec:
    """Invariant polygon A-B-C-D-E for the 2-state system.

    Defaults pick the midpoints of the admissible intervals.  Every
    hypothesis violation is reported by name.
    """
    fp2, rd, qd = _anchor(cfg, "normal", None, "region")
    q_choice = _corner("q_choice", q_choice, qd, fp2.q_star, "(q_dagger, q2*)")
    lo, hi = max(rd, eta2(cfg, q_choice)), eta1(cfg, q_choice)
    r_choice = _corner("r_choice", r_choice, lo, hi, "(max(R_dagger, eta2(q)), eta1(q)]")
    vertices = ((0.0, 0.0), (0.0, q_choice), (eta2(cfg, q_choice), q_choice),
                (r_choice, eta1_inverse(cfg, r_choice)), (r_choice, 0.0))
    return RegionSpec(kind="polygon2d", vertices=vertices)


def build_cuboid(cfg: ModelConfig, q_hat: float | None = None, u_hat: float | None = None,
                 r_hat: float | None = None, k_u: float = 0.0) -> RegionSpec:
    """Absorbing cuboid spanned by (0,0,0) and (r_hat, q_hat, u_hat).

    Preconditions, each reported by name: R2* > R_dagger, q_hat in
    (q_dagger, q2*), u_hat in (K_U/alpha(q_hat), U2*) (no upper bound when
    K_U = 0, where U2* = 0), r_hat in (eta2(q_hat), eta3(q_hat, u_hat)).
    A value left out is the midpoint of its interval, in the order q_hat,
    u_hat, r_hat; the default u_hat stays below eta1(q_hat) - eta2(q_hat),
    so the r_hat interval is nonempty.
    """
    fp2, _, qd = _anchor(cfg, "competitive", k_u, "cuboid")
    q2, u2 = fp2.q_star, fp2.u_star
    q_hat = _corner("q_hat", q_hat, qd, q2, "(q_dagger, q2*)")
    lo_u = k_u / eval_admission(cfg.admission, q_hat)
    if u_hat is None:
        room = eta1(cfg, q_hat) - eta2(cfg, q_hat)
        hi_u = min(u2, room) if k_u > 0 else room
        if not hi_u > lo_u:
            raise ValueError("no u_hat leaves the r_hat interval nonempty")
        u_hat = 0.5 * (lo_u + hi_u)
    if not u_hat > lo_u:
        raise ValueError(f"u_hat must exceed K_U/alpha(q_hat) = {lo_u:g}, got {u_hat:g}")
    if k_u > 0 and not u_hat < u2:
        raise ValueError(f"u_hat must lie below U2* = {u2:g}, got {u_hat:g}")
    r_hat = _corner("r_hat", r_hat, eta2(cfg, q_hat), eta3(cfg, q_hat, u_hat),
                    "(eta2(q_hat), eta3(q_hat, u_hat))")
    return RegionSpec(kind="cuboid3d", vertices=((0.0, 0.0, 0.0), (r_hat, q_hat, u_hat)))


def halfspaces(region: RegionSpec):
    """(A, b) with the region = {x : A @ x <= b}, a row per face: edges
    AB..EA, or R=0, q=0, U=0, R=r_hat, q=q_hat, U=u_hat.  An unknown kind
    raises by name."""
    if region.kind == "polygon2d":
        verts = [np.array(v, dtype=float) for v in region.vertices]
        centroid = np.mean(verts, axis=0)
        rows, offs = [], []
        for v1, v2 in zip(verts, [*verts[1:], verts[0]]):
            n = np.array([v2[1] - v1[1], -(v2[0] - v1[0])])
            n /= np.hypot(*n)
            if n @ (centroid - (v1 + v2) / 2) > 0:  # points inward, at the centroid
                n = -n
            rows.append([n[0], n[1], 0.0])
            offs.append(float(n @ v1))
        return np.array(rows), np.array(offs)
    if region.kind != "cuboid3d":
        raise ValueError(f"unknown region kind {region.kind!r}")
    # -I, then I, with no -0.0 entry
    return np.eye(6, 3, -3) - np.eye(6, 3), np.array([0.0, 0.0, 0.0, *region.vertices[1]])


# how a face condition takes its worst sample, and whether that sample passes
_POSITIVE = (np.minimum.reduce, lambda w: w > 0)
_NONNEGATIVE = (np.minimum.reduce, lambda w: w >= 0)
_NEGATIVE = (np.maximum.reduce, lambda w: w < 0)


def _face_specs(region: RegionSpec, k_u: float, n: int):
    """(size, faces): the samples per face and, per halfspaces row
    (normal, offset), (name, origin, spans, condition, F -> values, test).

    The samples are origin + t*d over the spans (d, t): v1 + t*(v2 - v1)
    on a polygon edge, t leaving VERTEX_MARGIN at both ends; the grid of
    its two free axes on a cuboid face.  A face on an axis plane (normal
    -e_i, offset 0) takes the inward condition on F_i, strict except for
    q, and for U when K_U = 0; any other takes <normal, F> < 0.
    """
    A, b = halfspaces(region)
    rows, offs = A.tolist(), b.tolist()
    if region.kind == "polygon2d":
        names = ("AB", "BC", "CD", "DE", "EA")
        verts = np.asarray(region.vertices, dtype=float)
        edges = [(v1, v2 - v1) for v1, v2 in zip(verts, [*verts[1:], verts[0]])]
        lengths = [np.sqrt(d.dot(d)) for _, d in edges]  # np.linalg.norm's own arithmetic
        margins = np.array([min(0.49, VERTEX_MARGIN / m) if m > 0 else 0.0 for m in lengths])
        ts = np.linspace(margins, 1 - margins, n).T  # row e: edge e's own linspace
        size, geometry = n, [([*v1.tolist(), 0.0], [([*d.tolist(), 0.0], t)]) for (v1, d), t in zip(edges, ts)]
    else:
        names = ("R=0", "q=0", "U=0", "R=r_hat", "q=q_hat", "U=u_hat")
        side = max(2, math.ceil(math.sqrt(n)))
        axes = np.linspace(VERTEX_MARGIN, np.subtract(region.vertices[1], VERTEX_MARGIN), side).T
        e = rows[3:]  # e_R, e_q, e_U
        grids = [[(e[i], axes[i]), (e[j], axes[j][:, None])] for i, j in ((1, 2), (0, 2), (0, 1))]
        size, geometry = side * side, []
        for nrm, off in zip(rows, offs):  # x_k = off (0 on a lower face), over the free axes
            k = nrm.index(max(nrm, key=abs))
            origin = [0.0, 0.0, 0.0]
            origin[k] = off
            geometry.append((origin, grids[k]))
    faces = []
    for name, (origin, spans), nrm, off in zip(names, geometry, rows, offs):
        if off == 0 and sorted(nrm) == [-1, 0, 0]:  # on the axis plane x_i = 0
            i = nrm.index(-1)
            strict = i == 0 or (i == 2 and k_u > 0)
            condition = f"d{'RqU'[i]}/dt {'>' if strict else '>='} 0 on {'RqU'[i]} = 0"
            values, test = (lambda F, i=i: F[:, i]), (_POSITIVE if strict else _NONNEGATIVE)
        else:
            condition, values, test = "<outward normal, F> < 0", (lambda F, m=nrm: _dot(F, m)), _NEGATIVE
        faces.append((name, origin, spans, condition, values, test))
    return size, faces


def _dot(F, n):
    """<n, F> per row of F, summed in order over n's nonzero entries."""
    out = None
    for i, a in enumerate(n):
        if a:
            x = F[:, i] if a == 1 else F[:, i] * a
            out = x if out is None else out + x
    return out


def _write(rows, origin, spans):
    """rows = origin + t*d over the spans (d, t), each t shaped for the grid
    (the first fastest).  Each column is written once: origin's value, or
    origin + t*d of the one span that moves it."""
    grid = rows.reshape(-1, len(spans[0][1]), len(origin))
    for c, o in enumerate(origin):
        for d, t in spans:
            if d[c] == 1:  # t * 1.0 is t
                grid[..., c] = t
            elif d[c]:
                np.multiply(t, d[c], out=grid[..., c])
            else:
                continue
            if o:
                grid[..., c] += o
            break
        else:
            grid[..., c] = o


def _face_runs(region: RegionSpec, k_u: float, n: int):
    """Runs of consecutive faces, each (samples, faces): as many faces as
    fit in dynamics.BLOCK_BYTES (at least one) in one array, and per face
    (name, its rows of samples, condition, F -> values, test).  Runs are
    made one at a time."""
    size, faces = _face_specs(region, k_u, n)
    per_run = max(1, dynamics.BLOCK_BYTES // (24 * size))
    for i in range(0, len(faces), per_run):
        run = faces[i : i + per_run]
        samples = np.empty((3, len(run) * size)).T  # column-major, as rhs stacks states
        rows = [samples[j * size : (j + 1) * size] for j in range(len(run))]
        for face, r in zip(run, rows):
            _write(r, *face[1:3])
        yield samples, [(face[0], r, *face[3:]) for face, r in zip(run, rows)]


def check_invariance(cfg: ModelConfig, region: RegionSpec, mode, n: int = 1000) -> InvarianceReport:
    """Sample the region boundary and test that the flow points inward.

    A face on an axis plane needs dR/dt > 0 on R = 0, dq/dt >= 0 on q = 0
    or dU/dt > 0 on U = 0 (>= 0 when K_U = 0); any other face a negative
    worst <outward normal, F>.  Vertices and a 1e-6 margin around them are
    excluded.  n = 0 passes vacuously with a warning; n < 0 raises.  Faces
    share one rhs call while they fit in dynamics.BLOCK_BYTES; the field is
    pointwise, so each worst is the one a call per face gives.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    report = InvarianceReport()
    if n == 0:
        report.warning = "no samples requested; vacuous pass"
        return report
    mode = dynamics.as_mode(mode)
    for samples, faces in _face_runs(region, mode.k_u, n):
        report.faces += _run_reports(cfg, mode, samples, faces)
    return report


def _run_reports(cfg, mode, samples, faces):
    """The FaceReports of a run of faces, from one rhs call on their samples."""
    F = dynamics.rhs(cfg, mode, 0.0, samples)
    for name, states, condition, values, (reduce, passes) in faces:
        worst = float(reduce(values(F[:len(states)])))
        yield FaceReport(name, condition, worst, len(states), passes(worst))
        F = F[len(states):]


def phase_grid(cfg: ModelConfig, mode, r_range, q_range, resolution: int) -> PhaseGrid:
    """Vector-field samples on cell centers of the requested box (U = 0).

    Includes eta1/eta2 curve samples and the mode's fixed points as
    overlay records so plots need no recomputation.  A field that is not
    finite at some cell raises ValueError; an overlay height that
    overflows reads +inf.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    r0, r1 = map(float, r_range)
    q0, q1 = map(float, q_range)
    if not (math.isfinite(r1) and math.isfinite(q1) and r1 > r0 >= 0 and q1 > q0 >= 0):
        raise ValueError("ranges must be finite, nonnegative and increasing")
    mode = dynamics.as_mode(mode)
    dr_cell = (r1 - r0) / resolution
    dq_cell = (q1 - q0) / resolution
    rs = r0 + dr_cell * (np.arange(resolution) + 0.5)
    qs = q0 + dq_cell * (np.arange(resolution) + 0.5)
    R, Q = np.meshgrid(rs, qs, indexing="ij")
    states = np.column_stack([R.ravel(), Q.ravel(), np.zeros(R.size)])
    with np.errstate(over="ignore", invalid="ignore"):
        F = dynamics.rhs(cfg, mode, 0.0, states)
        dr = F[:, 0].reshape(R.shape)
        dq = F[:, 1].reshape(R.shape)
        magnitude = np.hypot(dr, dq)  # not finite where dr or dq is not
    bad = np.flatnonzero(~np.isfinite(magnitude))
    if bad.size:
        r, q = states[bad[0], :2]
        raise ValueError(f"{mode.tag} field not finite at (R, q) = ({r:g}, {q:g}) on the grid")

    q_max = cfg.admission.q_max
    hi = min(q1, q_max * (1 - 1e-9)) if math.isfinite(q_max) else q1
    q_curve = np.linspace(max(q0, 0.0), hi, 200)
    with np.errstate(over="ignore"):
        ok = eval_admission(cfg.admission, q_curve) > 0
        q_curve = q_curve[ok]
        e1 = np.column_stack([q_curve, eta1(cfg, q_curve)])
        e2 = np.column_stack([q_curve, eta2(cfg, q_curve)])
    fps = tuple(equilibria.find_fixed_points(cfg, mode))
    return PhaseGrid(
        r=rs,
        q=qs,
        dr=dr,
        dq=dq,
        magnitude=magnitude,
        eta1_curve=e1,
        eta2_curve=e2,
        fixed_points=fps,
    )
