"""Right-hand sides and trajectory integration for every operating mode.

Modes
-----
normal        2-state (R, q): inflow K_R, price-driven abandonment, no
              unresponsive traffic.
chattering    normal plus the admittance clamp: for q >= q_ad the flow
              into the active queue is min(alpha(q) R, mu_star), which
              freezes q on the bound while admission is saturated.
saturated     2-state with a constant unresponsive load K_U fed straight
              into the active queue (price expected saturated).
competitive   3-state (R, q, U) with its own U dynamics and constant K_U.
switched_full 3-state with K_U(t) taken piecewise-constant from the
              configuration schedule; realizes the bursty switching
              scenario.

Integration is classical fixed-step RK4 on the Caratheodory right-hand
side.  States are projected onto the nonnegative orthant before each
evaluation and clamped after each step (coordinates >= 0, q <= q_max;
in chattering mode q is also projected back to q_ad whenever a step that
started inside [0, q_ad] overshoots the bound, mirroring the invariance
of that set under the exact flow).  No event location is performed; the
kink set has measure zero and the O(h) local error there is absorbed by
the acceptance tolerances.

Every driver takes its steps from one clock, _grid: step k of a span
[a, b] ends at a + k*h and the last step ends exactly on b (a schedule
breakpoint, t1 or t0 + t_cap).  Times come from the step index, never a
running sum, so settle times lie on the grid; the steps are yielded
lazily, so memory is O(1) in the horizon.  h outside (0, 0.1] and
non-finite spans (NaN or infinite t0, t1, t_cap) raise ValueError.

The stepper has two backends with the same formulas and operation
order.  The batch backend holds n states as one C-contiguous (3, n)
stack, rows R, q and U: its right-hand side (_make_deriv, on the numpy
kernels the model specs own) writes into a caller-owned (3, n) buffer,
and its step (_batch_step) updates the stack in place, one numpy call
per stage update.  It drives final_states and settle_batch; rhs wraps
its right-hand side.  The scalar backend (_scalar_deriv, _scalar_step)
is its plain-float twin for integrate and converge.  The two agree bit
for bit, and both steps raise FloatingPointError on the first NaN state.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .model import ModelConfig

MAX_STEP = 0.1
DEFAULT_STEP = 0.01
CLAMP_EPS = 1e-9
SETTLE_STREAK = 100  # consecutive in-tolerance steps deemed converged

MODE_TAGS = ("normal", "chattering", "saturated", "competitive", "switched_full")


@dataclass(frozen=True)
class SystemMode:
    """Operating mode tag plus the constant K_U it carries.

    k_u is the unresponsive arrival rate for the saturated and
    competitive modes; normal and chattering ignore it and
    switched_full reads K_U(t) from the configuration schedule instead.
    """

    tag: str
    k_u: float = 0.0

    def __post_init__(self):
        if self.tag not in MODE_TAGS:
            raise ValueError(f"unknown mode tag {self.tag!r}")
        if not math.isfinite(self.k_u):
            raise ValueError("k_u must be finite")
        if self.k_u < 0:
            raise ValueError("k_u must be >= 0")

    @property
    def field_tag(self) -> str:
        """Right-hand side run on each constant-K_U piece."""
        return "competitive" if self.tag == "switched_full" else self.tag

    @property
    def fixed_point_tag(self) -> str:
        """Mode whose fixed points these are; chattering shares normal's
        (they lie below the admittance bound)."""
        return "normal" if self.tag == "chattering" else self.field_tag

    @property
    def dim(self) -> int:
        """State dimension: 3 with the unresponsive class U, else 2."""
        return 3 if self.field_tag == "competitive" else 2


NORMAL = SystemMode("normal")
CHATTERING = SystemMode("chattering")
SWITCHED_FULL = SystemMode("switched_full")


def saturated_mode(k_u: float) -> SystemMode:
    return SystemMode("saturated", k_u)


def competitive_mode(k_u: float) -> SystemMode:
    return SystemMode("competitive", k_u)


def as_mode(mode, k_u: float | None = None) -> SystemMode:
    """The SystemMode for a mode or a tag string plus an optional K_U.

    A SystemMode already carries its K_U, so an explicit k_u that
    disagrees with it raises ValueError.
    """
    if isinstance(mode, SystemMode):
        if k_u is not None and k_u != mode.k_u:
            raise ValueError(f"k_u = {k_u!r} disagrees with the mode's k_u = {mode.k_u!r}")
        return mode
    return SystemMode(str(mode), 0.0 if k_u is None else k_u)


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states plus the derived per-step series.

    states has one row (R, q, U) per time; U is zero and frozen in the
    2-state modes.  The derived series are consistent with the states
    under the model evaluators by construction.
    """

    mode: SystemMode
    times: np.ndarray
    states: np.ndarray
    price: np.ndarray
    flow_r: np.ndarray
    flow_u: np.ndarray
    mu: np.ndarray

    @property
    def r(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def q(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def u(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def state_at(self, t: float) -> np.ndarray:
        """State at the grid time nearest to t."""
        i = int(np.argmin(np.abs(self.times - t)))
        return self.states[i]


def _admittance_bound(cfg: ModelConfig, tag: str) -> float | None:
    """q_ad in chattering mode, None in every other mode."""
    if tag != "chattering":
        return None
    if cfg.q_ad is None:
        raise ValueError("chattering mode needs q_ad in the configuration")
    return cfg.q_ad


def _chattering_flow(cfg: ModelConfig, a, r, q):
    """Admitted flow alpha(q)*R of chattering mode, capped at mu_star from q_ad on."""
    flow = a * r
    return np.where(q >= cfg.q_ad, np.minimum(flow, cfg.service.mu_star), flow)


def _make_deriv(cfg: ModelConfig, tag: str, k_u: float):
    """(x, out) -> out: the field at the (3, n) states x (rows R, q, U),
    written in place into the (3, n) buffer out in _scalar_deriv's
    operation order, after projecting onto the orthant.  The 2-state
    modes leave out's U row as it is."""
    f, alpha, mu = cfg.price._kernel, cfg.admission._kernel, cfg.service._kernel
    k_r = cfg.k_r
    _admittance_bound(cfg, tag)  # chattering needs q_ad
    rows = 3 if tag == "competitive" else 2

    def deriv(x, out):
        p = np.maximum(x[:rows], 0.0)
        r, q = p[0], p[1]
        a, fq, m = alpha(q), f(q), mu(q)
        dr, dq = out[0], out[1]
        if tag == "chattering":
            adm = _chattering_flow(cfg, a, r, q)
            np.subtract(k_r, np.multiply(fq, r, out=dr), out=dr)  # k_r - fq*r - adm
            np.subtract(dr, adm, out=dr)
            np.subtract(adm, m, out=dq)
            return out
        np.subtract(k_r, np.multiply(np.add(fq, a, out=dr), r, out=dr), out=dr)  # k_r - (fq + a)*r
        if tag == "competitive":
            u = p[2]
            np.subtract(np.multiply(a, np.add(r, u, out=dq), out=dq), m, out=dq)  # a*(r + u) - m
            np.subtract(k_u, np.multiply(a, u, out=out[2]), out=out[2])  # k_u - a*u
        else:
            np.subtract(np.multiply(a, r, out=dq), m, out=dq)  # a*r - m [+ k_u]
            if tag == "saturated":
                dq += k_u
        return out

    return deriv


def _scalar_deriv(cfg: ModelConfig, tag: str, k_u: float):
    """(r, q, u) -> (dr, dq, du) on plain floats.

    The scalar backend of _make_deriv: same formulas, operation order and
    orthant projection, so both agree bit for bit.  Each conditional
    reproduces np.maximum / np.minimum exactly: NaN propagates and, on a
    tie, the second operand wins (which decides the sign of a zero).
    """
    p = cfg.price
    b = p.beta
    variant, qm = p.variant, p.q_m
    if variant == "saturated":
        floor = 2 * qm - p.q_n
    adm = cfg.admission
    linear = adm.variant == "linear"
    if linear:
        c2, c1 = adm.coefficients
    else:
        a0, a1, a2, a3 = adm.coefficients
        q_max = adm.q_max
    q_c = cfg.service.q_c
    ramp = cfg.service.mu_star / q_c
    k_r = cfg.k_r
    q_ad, mu_star = _admittance_bound(cfg, tag), cfg.service.mu_star

    def deriv(r, q, u):
        if r <= 0.0:
            r = 0.0
        if q <= 0.0:
            q = 0.0
        if linear:
            a = c1 * q + c2
            if 0.0 > a:
                a = 0.0
        elif q >= q_max:
            a = 0.0
        else:
            a = a0 + q * (a1 + q * (a2 + q * a3))
            if 0.0 > a:
                a = 0.0
        if variant == "triangular":
            w = 2 * qm - q
            w = q if q < w else w
            fq = b * (0.0 if 0.0 > w else w)
        elif variant == "saturated":
            w = 2 * qm - q
            if w <= floor:
                w = floor
            fq = b * (q if q < w else w)
        else:
            fq = b * q
        m = ramp * (q_c if q >= q_c else q)
        if tag == "normal":
            return k_r - (fq + a) * r, a * r - m, 0.0
        if tag == "chattering":
            flow = a * r
            if q >= q_ad and flow >= mu_star:
                flow = mu_star
            return k_r - fq * r - flow, flow - m, 0.0
        if tag == "saturated":
            return k_r - (fq + a) * r, a * r - m + k_u, 0.0
        if u <= 0.0:
            u = 0.0
        return k_r - (fq + a) * r, a * (r + u) - m, k_u - a * u

    return deriv


def rhs(cfg: ModelConfig, mode, t: float, x) -> np.ndarray:
    """Right-hand side of the mode at time t and state x = (r, q[, u]).

    Accepts a single state or an array of states in the trailing-axis
    layout (..., 2 or 3); returns the matching shape.  States are
    projected onto the nonnegative orthant before evaluation, so RK4
    stage points that overshoot the axes remain well defined.
    """
    mode = as_mode(mode)
    k_u = cfg.schedule_rate(t) if mode.tag == "switched_full" else mode.k_u
    deriv = _make_deriv(cfg, mode.field_tag, k_u)
    arr = np.asarray(x, dtype=float)
    ncoord = arr.shape[-1]
    if ncoord not in (2, 3):
        raise ValueError("state must have 2 or 3 coordinates")
    stack = np.zeros((3, arr.size // ncoord))  # U = 0 for 2-coordinate states
    stack[:ncoord] = arr.reshape(-1, ncoord).T
    return deriv(stack, np.zeros_like(stack))[:ncoord].T.reshape(arr.shape)


def admitted_flows(cfg: ModelConfig, mode, x):
    """Admitted (responsive, unresponsive) flow at the state.

    Smooth modes: (alpha(q) R, alpha(q) U).  Chattering: the clamped
    total min(alpha(q) R, mu_star) for q >= q_ad, split pro rata R : U.
    """
    mode = as_mode(mode)
    arr = np.asarray(x, dtype=float)
    r = np.maximum(arr[..., 0], 0.0)
    q = np.maximum(arr[..., 1], 0.0)
    u = np.maximum(arr[..., 2], 0.0) if arr.shape[-1] == 3 else np.zeros_like(r)
    a = cfg.admission._kernel(q)
    if _admittance_bound(cfg, mode.tag) is not None:
        total = _chattering_flow(cfg, a, r, q)
        pop = r + u
        share = np.divide(r, pop, out=np.ones_like(r), where=pop > 0)
        return total * share, total * (1.0 - share)
    if mode.dim == 2:
        return a * r, np.zeros_like(r)
    return a * r, a * u


def _pieces(cfg: ModelConfig, mode: SystemMode, t0: float, t1: float):
    """(start, end, k_u) integration pieces with constant K_U each."""
    if mode.tag != "switched_full":
        return [(t0, t1, mode.k_u)]
    edges = [t0] + cfg.schedule_breakpoints(t0, t1) + [t1]
    return [
        (a, b, cfg.schedule_rate(a)) for a, b in zip(edges[:-1], edges[1:])
    ]


def _scalar_step(deriv, x, dt, t, q_cap, chat_cap, where):
    """One RK4 step of the scalar backend, checked and clamped.

    x is the (r, q, u) tuple of floats at the start of the step; returns
    the state at its end.  The stage arithmetic is _batch_step's.  A NaN
    coordinate raises FloatingPointError naming the end time t and the
    run context where.  The state is then clamped onto the box
    (coordinates >= 0, q <= q_cap) and, when chat_cap is the chattering
    bound q_ad, a step that started on or below it is projected back onto
    it.
    """
    r, q, u = x
    h2 = 0.5 * dt
    kr1, kq1, ku1 = deriv(r, q, u)
    kr2, kq2, ku2 = deriv(r + h2 * kr1, q + h2 * kq1, u + h2 * ku1)
    kr3, kq3, ku3 = deriv(r + h2 * kr2, q + h2 * kq2, u + h2 * ku2)
    kr4, kq4, ku4 = deriv(r + dt * kr3, q + dt * kq3, u + dt * ku3)
    c = dt / 6.0
    rn = r + c * (kr1 + 2 * kr2 + 2 * kr3 + kr4)
    qn = q + c * (kq1 + 2 * kq2 + 2 * kq3 + kq4)
    un = u + c * (ku1 + 2 * ku2 + 2 * ku3 + ku4)
    if rn != rn or qn != qn or un != un:
        raise FloatingPointError(f"NaN state at t = {t:g} ({where})")
    qn = min(max(qn, 0.0), q_cap)
    if chat_cap is not None and q <= chat_cap + CLAMP_EPS and qn > chat_cap:
        qn = chat_cap
    return max(rn, 0.0), qn, max(un, 0.0)


def _batch_step(deriv, n, q_cap, chat_cap, where):
    """_scalar_step's numpy twin for n states: step(x, dt, t, raw=None)
    advances the (3, n) C-contiguous stack x in place, in _scalar_step's
    operation order, through four derivative buffers (U rows zero, as the
    2-state fields never write dU) and a stage buffer allocated once here.
    raw, when given, is a [per-coordinate minimum, maximum q] pair that
    takes in the unclamped result.  Runs that started on or below the
    chattering bound chat_cap are then projected back onto it, all are
    clamped onto the box (coordinates >= 0, q <= q_cap), and a NaN raises
    FloatingPointError naming the end time t and the run context where."""
    k1, k2, k3, k4 = (np.zeros((3, n)) for _ in range(4))
    s = np.empty((3, n))

    def step(x, dt, t, raw=None):
        if chat_cap is not None:
            below = x[1] <= chat_cap + CLAMP_EPS
        deriv(x, k1)
        for k, k_next, c in ((k1, k2, 0.5 * dt), (k2, k3, 0.5 * dt), (k3, k4, dt)):
            np.add(np.multiply(k, c, out=s), x, out=s)
            deriv(s, k_next)
        # x + dt/6 * (((k1 + 2*k2) + 2*k3) + k4)
        np.add(np.multiply(k2, 2, out=s), k1, out=s)
        np.add(s, np.multiply(k3, 2, out=k3), out=s)
        np.add(s, k4, out=s)
        x += np.multiply(s, dt / 6.0, out=s)
        if raw is not None:
            raw[0] = np.minimum(raw[0], x.min(axis=1, initial=np.inf))
            raw[1] = max(raw[1], float(x[1].max(initial=-np.inf)))
        q = x[1]
        if chat_cap is not None:
            np.minimum(q, chat_cap, where=below, out=q)
        np.maximum(x, 0.0, out=x)
        np.minimum(q, q_cap, out=q)
        # the projection and clamps keep NaN and leave every other value >= 0,
        # so the sum is NaN exactly when some coordinate is
        if math.isnan(x.sum()):
            raise FloatingPointError(f"NaN state at t = {t:g} ({where})")

    return step


def _step_count(a: float, b: float, h: float) -> int:
    """Steps of the clock on [a, b], 0 when b <= a; ValueError unless
    0 < h <= MAX_STEP and (b - a) / h is finite."""
    if not 0 < h <= MAX_STEP:
        raise ValueError(f"step h must lie in (0, {MAX_STEP}]")
    span = b - a
    if not math.isfinite(span / h):
        raise ValueError(f"time span [{a:g}, {b:g}] must be finite in steps of h = {h:g}")
    return max(1, math.ceil(span / h - 1e-9)) if span > 0 else 0


def _grid(a: float, b: float, h: float):
    """The clock on [a, b], checked now, stepped lazily: (t, dt) per RK4
    step, step k ending at a + k*h, the last shortened to end on b."""
    n = _step_count(a, b, h)
    last = (b - a) - (n - 1) * h
    return ((b, last) if k == n else (a + k * h, h) for k in range(1, n + 1))


def _starts(x0s, name: str = "initial state") -> np.ndarray:
    """Checked (n, 3) starts from one state or an (n, 2 | 3) batch, U = 0
    when omitted; ValueError naming the states for other shapes and for
    non-finite or < 0 values."""
    arr = np.asarray(x0s, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError(f"{name} must have 2 or 3 coordinates")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0):
        raise ValueError(f"{name} must be finite and nonnegative")
    if arr.shape[1] == 2:
        arr = np.column_stack([arr, np.zeros(len(arr))])
    return arr


def _start(x0, name: str = "initial state") -> tuple[float, float, float]:
    """One checked start as the (r, q, u) floats of the scalar backend."""
    return tuple(_starts(np.ravel(x0), name)[0].tolist())


def _bind(cfg: ModelConfig, mode: SystemMode, h: float, *, batch: int | None = None, k_u=None):
    """The run's checked RK4 step bound to the mode's field at constant K_U
    (k_u for one switched_full piece), its clamps and NaN context:
    _scalar_step's (x, dt, t) -> x, or with batch = n the in-place
    (x, dt, t[, raw]) of _batch_step on (3, n) states.  A closure: a
    keyword partial made each scalar step ~12% slower on CPython 3.11."""
    if k_u is None and mode.tag == "switched_full":
        raise ValueError("switched_full has no constant K_U; run each schedule piece on its own")
    k_u = mode.k_u if k_u is None else k_u
    q_cap = cfg.admission.q_max
    chat_cap = _admittance_bound(cfg, mode.tag)
    where = f"mode {mode.tag}, h = {h:g}"
    if batch is not None:
        return _batch_step(_make_deriv(cfg, mode.field_tag, k_u), batch, q_cap, chat_cap, where)
    deriv = _scalar_deriv(cfg, mode.field_tag, k_u)

    def step(x, dt, t):
        return _scalar_step(deriv, x, dt, t, q_cap, chat_cap, where)
    return step


def integrate(cfg: ModelConfig, mode, x0, t0: float, t1: float, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate one trajectory and record every step.

    t1 == t0 yields a length-1 trajectory.  Aborts with a diagnostic on
    NaN; rejects h outside (0, 0.1] and non-finite t0 or t1.
    """
    mode = as_mode(mode)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    x = _start(x0)
    pieces = _pieces(cfg, mode, t0, t1)
    n = 1 + sum(_step_count(a, b, h) for a, b, _ in pieces)
    times = np.empty(n)
    states = np.empty((n, 3))
    times[0], states[0] = t0, x
    k = 0
    for a, b, k_u in pieces:
        step = _bind(cfg, mode, h, k_u=k_u)
        for t, dt in _grid(a, b, h):
            x = step(x, dt, t)
            k += 1
            times[k], states[k] = t, x

    fr, fu = admitted_flows(cfg, mode, states)
    return Trajectory(
        mode=mode,
        times=times,
        states=states,
        price=cfg.price._kernel(states[:, 1]),
        flow_r=np.asarray(fr),
        flow_u=np.asarray(fu),
        mu=cfg.service._kernel(states[:, 1]),
    )


@dataclass
class BatchResult:
    """Final states of a batch run plus optional per-step diagnostics."""

    states: np.ndarray                 # (n, 3) at t1
    raw_min: np.ndarray | None = None  # (3,) min unclamped coordinates seen
    raw_max_q: float | None = None     # max unclamped q seen
    region_excess: np.ndarray | None = None  # (n,) max of A@x - b over steps


def _check_region(region):
    """The region's (A, b) as float arrays; ValueError unless A is finite
    of shape (m, 3) with m >= 1 and b finite of shape (m,)."""
    A, b = (np.asarray(v, dtype=float) for v in region)
    if A.ndim != 2 or A.shape[1] != 3 or not len(A) or b.shape != (len(A),):
        raise ValueError(f"region needs A of shape (m, 3), m >= 1, and b of shape (m,); "
                         f"got {A.shape}, {b.shape}")
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("region A and b must be finite")
    return A, b


def final_states(
    cfg: ModelConfig, mode, x0s, t0: float, t1: float, h: float = DEFAULT_STEP, *,
    raw_bounds: bool = False, region=None,
) -> BatchResult:
    """March a batch of trajectories to t1 in lockstep.

    raw_bounds tracks the extreme unclamped RK4 results (the forward
    invariance probe; inf and -inf for an empty batch), region = (A, b)
    per trajectory the largest violation of A @ x <= b over all steps
    (the empirical trap probe).  A NaN state raises FloatingPointError.
    """
    x = _starts(x0s).T.copy()
    step = _bind(cfg, as_mode(mode), h, batch=x.shape[1])
    grid = _grid(t0, t1, h)
    raw = [np.full(3, np.inf), -np.inf] if raw_bounds else None
    excess = None
    if region is not None:
        A, b = _check_region(region)
        a_r, a_q, a_u, b = *A.T[:, :, None], b[:, None]
        excess = np.full(x.shape[1], -np.inf)

    for t, dt in grid:
        step(x, dt, t, raw)
        if excess is not None:
            r, q, u = x
            # term by term, not A @ x: a BLAS product may fuse and round differently
            vals = a_r * r + a_q * q + a_u * u - b
            np.maximum(excess, vals.max(axis=0), out=excess)

    raw_min, raw_max_q = raw or (None, None)
    return BatchResult(x.T.copy(), raw_min, raw_max_q, region_excess=excess)


@dataclass
class SettleResult:
    settled: np.ndarray       # (n,) bool: streak of 100 in-tol steps seen
    states: np.ndarray        # (n, 3) at exit
    t_exit: float
    settle_times: np.ndarray  # (n,) first time of the completed streak, nan if none
    max_q: float              # largest trajectory q seen (post-clamp)


def settle_batch(
    cfg: ModelConfig, mode, x0s, target, tol: float, t_cap: float, h: float = DEFAULT_STEP,
    t0: float = 0.0,
) -> SettleResult:
    """March a batch until every run sits within tol of target.

    A run counts as settled after 100 consecutive steps with
    max-coordinate distance below tol (U compared only in the 3-state
    modes).  Early exit once all runs settle; otherwise stops at t_cap.
    An empty batch takes no step.  A NaN state raises FloatingPointError,
    tol <= 0 or a target outside the state space ValueError.
    """
    mode = as_mode(mode)
    if not tol > 0:
        raise ValueError("tol must be > 0")
    x = _starts(x0s).T.copy()
    n = x.shape[1]
    step = _bind(cfg, mode, h, batch=n)
    grid = _grid(t0, t0 + t_cap, h)
    compared = 3 if mode.tag == "competitive" else 2
    tgt = np.array(_start(target, "target")[:compared])[:, None]

    streak = np.zeros(n, dtype=int)
    streak_t0 = np.full(n, np.nan)  # start of the current streak
    settle_t = np.full(n, np.nan)
    max_q = float(x[1].max(initial=-np.inf))
    t = t0

    for t, dt in grid if n else ():
        step(x, dt, t)
        max_q = max(max_q, float(x[1].max()))
        within = np.abs(x[:compared] - tgt).max(axis=0) < tol
        np.copyto(streak_t0, t, where=streak == 0)  # kept only where a streak starts
        streak += 1
        streak *= within
        done = streak == SETTLE_STREAK
        if done.any():
            np.copyto(settle_t, streak_t0, where=done & np.isnan(settle_t))
            if not np.isnan(settle_t).any():
                break

    return SettleResult(~np.isnan(settle_t), x.T.copy(), t, settle_t, max_q)


@dataclass
class ConvergeResult:
    final_state: np.ndarray
    converged: bool
    settling_time: float  # nan when not converged
    target: np.ndarray | None = None  # the fixed point reached, if any


def converge(
    cfg: ModelConfig,
    mode,
    x0,
    tol: float,
    t_cap: float,
    h: float = DEFAULT_STEP,
) -> ConvergeResult:
    """Empirical omega-limit probe.

    Integrates until the state has stayed within tol of one of the
    mode's fixed points for 100 consecutive steps, or until t_cap.
    Without fixed points the run always goes to t_cap.  Non-convergence
    is reported through the flag, never raised; a NaN state raises
    FloatingPointError, and h outside (0, 0.1] or a non-finite t_cap
    raise ValueError, as in integrate.
    """
    from . import equilibria  # deferred: equilibria imports stability imports this

    mode = as_mode(mode)
    step = _bind(cfg, mode, h)
    if not tol > 0:
        raise ValueError("tol must be > 0")
    grid = _grid(0.0, t_cap, h)
    fps = equilibria.find_fixed_points(cfg, mode)
    targets = [(float(fp.r_star), float(fp.q_star), float(fp.u_star)) for fp in fps]
    compare_u = mode.tag == "competitive"
    x = _start(x0)

    def nearest(state):
        """(max-coordinate distance, index) of the closest fixed point."""
        r, q, u = state
        best, j = math.inf, 0
        for i, (tr, tq, tu) in enumerate(targets):
            d = max(abs(r - tr), abs(q - tq))
            if compare_u:
                d = max(d, abs(u - tu))
            if d < best:
                best, j = d, i
        return best, j

    streak = 0
    streak_start = math.nan
    d0, j = nearest(x)
    if d0 < tol:
        streak, streak_start = 1, 0.0
        if x == targets[j]:
            return ConvergeResult(np.array(x), True, 0.0, np.array(targets[j]))
    for t, dt in grid:
        x = step(x, dt, t)
        d, j = nearest(x)
        if d < tol:
            if streak == 0:
                streak_start = t
            streak += 1
            if streak >= SETTLE_STREAK:
                return ConvergeResult(np.array(x), True, streak_start, np.array(targets[j]))
        else:
            streak = 0
    return ConvergeResult(np.array(x), False, math.nan)
