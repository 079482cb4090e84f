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
order, which agree bit for bit and raise FloatingPointError on the first
NaN state; the run count picks one, in _march alone.  One run without
raw tracking (integrate, converge, a single start in settle_batch or
final_states) steps plain floats: _scalar_deriv on the specs' plain-float
twins, and _scalar_step.  Any other batch is one C-contiguous (3, n)
stack, rows R, q and U: its right-hand side (_make_deriv, on the numpy
kernels the model specs own; rhs wraps it) writes into a caller-owned
(3, n) buffer, and its step (_batch_step) advances the stack in place or
into a given slot, one numpy call per stage update.

Every driver steps through one block history (_blocks): each step writes
its result into the next slot of a preallocated (block, 3[, n]) history,
and the driver then takes the block's observations with whole-array
operations: integrate copies the block into its trajectory, final_states
takes region excess, and settle_batch folds tolerance streaks and settle
times by one rule (_settle); converge is the same settle run at n = 1 on
the mode's fixed points.  At small n every numpy call costs about a
microsecond whatever its size, so per-step bookkeeping would cost as much
as a quarter of a step; per block it costs a fraction of a microsecond
per step.  A block is BLOCK_STEPS steps, fewer when its history would
pass BLOCK_BYTES, so memory stays bounded at any n.  Every result is the
one per-step bookkeeping gives, bit for bit: the fold carries each run's
streak across block edges (for converge only, a start within tol counts
as the streak's first state), returns the state and time of the step
where the last run settled, and ignores a FloatingPointError raised
after it in the same block, which a per-step loop never reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
import math

import numpy as np

from .model import ModelConfig

MAX_STEP = 0.1
DEFAULT_STEP = 0.01
CLAMP_EPS = 1e-9
SETTLE_STREAK = 100  # consecutive in-tolerance steps deemed converged
BLOCK_STEPS = 128  # most steps a driver takes between observations
BLOCK_BYTES = 1 << 18  # cap on the (block, 3, n) state history of one block

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
    flow = np.asarray(a * r)  # 0-d for one state, so the cap can write into it
    return np.minimum(flow, cfg.service.mu_star, out=flow, where=q >= cfg.q_ad)


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
    """(r, q, u) -> (dr, dq, du) on plain floats: _make_deriv's mode algebra,
    operation order and orthant projection on the specs' plain-float twins
    of their kernels, so both agree bit for bit.  Each conditional
    reproduces np.maximum / np.minimum exactly, as the twins do."""
    f, alpha, mu = cfg.price._scalar, cfg.admission._scalar, cfg.service._scalar
    k_r = cfg.k_r
    q_ad, mu_star = _admittance_bound(cfg, tag), cfg.service.mu_star

    def deriv(r, q, u):
        if r <= 0.0:
            r = 0.0
        if q <= 0.0:
            q = 0.0
        a, fq, m = alpha(q), f(q), mu(q)
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

    Smooth modes: (alpha(q) R, alpha(q) U), U's flow zero in the 2-state
    modes.  Chattering, a 2-state mode whose field admits R only:
    (min(alpha(q) R, mu_star) for q >= q_ad, else alpha(q) R; 0).
    """
    mode = as_mode(mode)
    arr = np.asarray(x, dtype=float)
    r = np.maximum(arr[..., 0], 0.0)
    q = np.maximum(arr[..., 1], 0.0)
    a = cfg.admission._kernel(q)
    if mode.dim == 3:
        u = np.maximum(arr[..., 2], 0.0) if arr.shape[-1] == 3 else np.zeros_like(r)
        return a * r, a * u
    chattering = _admittance_bound(cfg, mode.tag) is not None
    flow = _chattering_flow(cfg, a, r, q)[()] if chattering else a * r  # [()]: 0-d to scalar
    return flow, np.zeros_like(r)


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
    # max(x, 0.0) and min(x, q_cap) written out: the same values, four calls fewer
    qn = 0.0 if 0.0 > qn else qn
    qn = q_cap if q_cap < qn else qn
    if chat_cap is not None and q <= chat_cap + CLAMP_EPS and qn > chat_cap:
        qn = chat_cap
    return (0.0 if 0.0 > rn else rn), qn, (0.0 if 0.0 > un else un)


def _batch_step(deriv, n, q_cap, chat_cap, where):
    """_scalar_step's numpy twin for n states: step(x, dt, t, raw=None,
    out=None) advances the (3, n) C-contiguous stack x into the (3, n)
    C-contiguous out (x itself when None), in _scalar_step's operation
    order, through four derivative buffers (U rows zero, as the 2-state
    fields never write dU) and a stage buffer allocated once here.  raw,
    when given, is a [per-coordinate minimum, maximum q] pair that takes
    in the unclamped result.  Runs that started on or below the chattering
    bound chat_cap are then projected back onto it, all are clamped onto
    the box (coordinates >= 0, q <= q_cap), and a NaN raises
    FloatingPointError naming the end time t and the run context where."""
    k1, k2, k3, k4 = (np.zeros((3, n)) for _ in range(4))
    s = np.empty((3, n))

    def step(x, dt, t, raw=None, out=None):
        if out is None:
            out = x
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
        x = np.add(x, np.multiply(s, dt / 6.0, out=s), out=out)
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


def _block_steps(n: int) -> int:
    """Steps per block for n runs: BLOCK_STEPS, fewer when the (block, 3, n)
    history would pass BLOCK_BYTES, and at least one."""
    return max(1, min(BLOCK_STEPS, BLOCK_BYTES // (24 * max(n, 1))))


def _blocks(advance, shape, grid, size: int):
    """Step a run's advance along grid into one (size, *shape) history.

    Yields (states, times) per block of up to size steps: views of the
    states after each of its k steps, (k, *shape), and of the steps' end
    times, (k,); both are overwritten by the next block.  A
    FloatingPointError ends its block early: the steps before it are
    yielded, and it is raised only when the next block is asked for, so a
    caller that returns on the block that holds its answer never sees a
    fault after it.
    """
    hist = np.empty((size, *shape))
    slots = list(hist)  # the views, made once
    times = np.empty(size)
    grid = iter(grid)
    while True:
        k, fault = 0, None
        for t, dt in itertools.islice(grid, size):
            try:
                advance(dt, t, slots[k])
            except FloatingPointError as exc:
                fault = exc
                break
            times[k] = t
            k += 1
        if k:
            yield hist[:k], times[:k]
        if fault is not None:
            raise fault
        if k < size:
            return


def _within(states, targets, tol: float) -> np.ndarray:
    """(k, n): whether each of the (k, 3, n) states lies within tol of one
    of the (T, c, 1) targets in max-coordinate distance over the first c."""
    dist = np.abs(states[:, None, : targets.shape[1]] - targets).max(axis=2)
    return dist.min(axis=1, initial=np.inf) < tol


def _settle(blocks, x, t, targets, tol: float, streak: np.ndarray):
    """Fold the blocks of n runs started at (3, n) x, time t: a run settles
    once SETTLE_STREAK consecutive states lie within tol of a target, at
    the end time of the streak's first step; streak carries in the states
    each run counts at t.  Returns per-run settle times (nan if none), the
    states and time of the step where the last run settled (else of the
    last step), and the largest q seen up to then."""
    n = len(streak)
    streak_t0 = np.full(n, t)  # end time of the first step of the streak in progress
    settle_t = np.full(n, np.nan)
    max_q = float(x[1].max(initial=-np.inf))
    for states, times in blocks:
        k = len(times)
        states = states.reshape(k, 3, n)  # (k, 3, 1) from the scalar backend's (k, 3)
        idx = np.arange(k)[:, None]
        within = _within(states, targets, tol)
        # per step, the last one out of tolerance: -1 - streak before the block
        last_out = np.maximum.accumulate(np.where(within, -1 - streak, idx), axis=0)
        run = idx - last_out  # streak length after each step
        done = (run == SETTLE_STREAK) & np.isnan(settle_t)
        new = done.any(axis=0)
        if new.any():
            first = done.argmax(axis=0)
            start = first - (SETTLE_STREAK - 1)  # < 0: the streak began before the block
            np.copyto(settle_t, np.where(start >= 0, times[np.maximum(start, 0)], streak_t0),
                      where=new)
            if not np.isnan(settle_t).any():
                j = int(first[new].max())
                max_q = max(max_q, float(states[: j + 1, 1].max()))
                return settle_t, states[j], float(times[j]), max_q
        streak = run[-1]
        began = last_out[-1] + 1  # the step the streak in progress began on, if in this block
        np.copyto(streak_t0, times[np.clip(began, 0, k - 1)], where=began >= 0)
        max_q = max(max_q, float(states[:, 1].max()))
        x, t = states[-1], float(times[-1])
    return settle_t, x, t, max_q


def _starts(x0s, name: str = "initial state") -> np.ndarray:
    """Checked (n, 3) starts from one state or an (n, 2 | 3) batch, U = 0
    when omitted; ValueError naming the states for other shapes and for
    non-finite or < 0 values."""
    arr = np.atleast_2d(np.asarray(x0s, dtype=float))
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


def _march(cfg: ModelConfig, mode: SystemMode, h: float, x, grid, size: int, *,
           k_u=None, raw=None):
    """_blocks of size steps for the runs started at the (3, n) states x,
    stepped along grid by the checked RK4 step of the mode's field at
    constant K_U (k_u for one switched_full piece).  One run without raw
    keeps (r, q, u) floats for _scalar_step and stores them item by item
    into a (size, 3) history; any other batch steps the C-contiguous x by
    _batch_step (raw as there) into (size, 3, n), from the slot it wrote
    last.  Checks its arguments now, not on the first step."""
    if k_u is None and mode.tag == "switched_full":
        raise ValueError("switched_full has no constant K_U; run each schedule piece on its own")
    k_u = mode.k_u if k_u is None else k_u
    q_cap = cfg.admission.q_max
    chat_cap = _admittance_bound(cfg, mode.tag)
    where = f"mode {mode.tag}, h = {h:g}"
    if x.shape[1] == 1 and raw is None:
        deriv = _scalar_deriv(cfg, mode.field_tag, k_u)
        s = tuple(x[:, 0].tolist())

        def advance(dt, t, out):
            nonlocal s
            s = _scalar_step(deriv, s, dt, t, q_cap, chat_cap, where)
            out[0], out[1], out[2] = s
        return _blocks(advance, (3,), grid, size)
    step = _batch_step(_make_deriv(cfg, mode.field_tag, k_u), x.shape[1], q_cap, chat_cap, where)

    def advance(dt, t, out):
        nonlocal x
        step(x, dt, t, raw, out)
        x = out
    return _blocks(advance, x.shape, grid, size)


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
    k = 1
    for a, b, k_u in pieces:
        start = states[k - 1][:, None]
        for block, ts in _march(cfg, mode, h, start, _grid(a, b, h), BLOCK_STEPS, k_u=k_u):
            times[k : k + len(ts)] = ts
            states[k : k + len(ts)] = block
            k += len(ts)

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
    (the empirical trap probe).  A NaN state raises FloatingPointError,
    t1 < t0 ValueError.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    x = np.ascontiguousarray(_starts(x0s).T)
    n = x.shape[1]
    grid = _grid(t0, t1, h)
    raw = [np.full(3, np.inf), -np.inf] if raw_bounds else None
    excess, size = None, 1  # without a region nothing reads the history: one slot will do
    if region is not None:
        A, b = _check_region(region)
        excess, size = np.full(n, -np.inf), _block_steps(n)

    for states, _ in _march(cfg, as_mode(mode), h, x, grid, size, raw=raw):
        states = states.reshape(len(states), 3, n)  # (k, 3, 1) from the scalar backend's (k, 3)
        x = states[-1]
        if excess is not None:
            r, q, u = states.transpose(1, 0, 2)
            worst = None  # per step, the largest term over the rows of A, in row order
            for (a_r, a_q, a_u), b_i in zip(A.tolist(), b.tolist()):
                # term by term, not A @ x: a BLAS product may fuse and round differently
                vals = a_r * r + a_q * q + a_u * u - b_i
                worst = vals if worst is None else np.maximum(worst, vals, out=worst)
            np.maximum(excess, worst.max(axis=0), out=excess)

    raw_min, raw_max_q = raw or (None, None)
    return BatchResult(x.T.copy(), raw_min, raw_max_q, region_excess=excess)


def _settle_run(cfg: ModelConfig, mode: SystemMode, x0s, targets, tol: float, t_cap: float,
                h: float, t0: float, *, start_counts: bool = False):
    """settle_batch's and converge's run: _settle over the runs from x0s,
    t0 to at most t0 + t_cap, the empty batch taking no step.  With
    start_counts, a start within tol counts as its streak's first state."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if t_cap < 0:
        raise ValueError("t_cap must be >= 0")
    x = np.ascontiguousarray(_starts(x0s).T)
    n = x.shape[1]
    grid = _grid(t0, t0 + t_cap, h)
    blocks = _march(cfg, mode, h, x, grid if n else (), _block_steps(n))
    streak = _within(x[None], targets, tol)[0] * 1 if start_counts else np.zeros(n, dtype=int)
    return _settle(blocks, x, t0, targets, tol, streak)


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
    modes).  Early exit once all runs settle, with the states and time of
    the step where the last one did; otherwise stops at t_cap.  An empty
    batch takes no step.  A NaN state raises FloatingPointError, tol <= 0,
    t_cap < 0 or a target outside the state space ValueError.
    """
    mode = as_mode(mode)
    tgt = np.array(_start(target, "target")[: mode.dim])[None, :, None]
    settle_t, x, t, max_q = _settle_run(cfg, mode, x0s, tgt, tol, t_cap, h, t0)
    return SettleResult(~np.isnan(settle_t), x.T.copy(), t, settle_t, max_q)


@dataclass
class ConvergeResult:
    final_state: np.ndarray
    converged: bool
    settling_time: float  # nan when not converged


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
    mode's fixed points for 100 consecutive steps, the start counting as
    the first when it lies within tol, or until t_cap.  Without fixed
    points the run always goes to t_cap.  Non-convergence is reported
    through the flag, never raised; a NaN state raises
    FloatingPointError, and h outside (0, 0.1] or a non-finite t_cap
    raise ValueError, as in integrate.
    """
    from . import equilibria  # deferred: equilibria imports stability imports this

    mode = as_mode(mode)
    targets = np.array([(fp.r_star, fp.q_star, fp.u_star)[: mode.dim]
                        for fp in equilibria.find_fixed_points(cfg, mode)]).reshape(-1, mode.dim, 1)
    settle_t, x, _, _ = _settle_run(cfg, mode, np.ravel(x0), targets, tol, t_cap, h, 0.0,
                                    start_counts=True)
    return ConvergeResult(x[:, 0].copy(), not math.isnan(settle_t[0]), float(settle_t[0]))
