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

Every driver takes its steps, piece by piece at one K_U each, from one
clock, _clock, the one place that knows the schedule: it cuts a
switched_full run at the schedule breakpoints, so every driver but
converge (whose targets need one constant K_U) runs that mode.  Step k
of a piece [a, b] ends at a + k*h, from the index, and the last exactly
on b.  h outside (0, 0.1] and non-finite spans raise ValueError.

The stepper has two backends with the same formulas and operation order,
which agree bit for bit; the run count picks one, in _march alone.  Each
is a run of one contract: it takes a stretch of steps of one size and
K_U per call, writes each state into the march's one (block, 3, n)
history and stops at a NaN state, returning the step's index.  One run
without raw tracking is _kernel's, one loop on plain floats generated
per field from the specs' piece tables, its constants bound as the float
forms' are (model._make), so it is compiled once per table shape; it
stores through a flat view of the history.  Any other batch is one
C-contiguous (3, n) stack, rows R, q and U, stepped by _batch_run on the
field of _make_deriv (the specs' numpy kernels; rhs wraps it).  At small
n a numpy call costs its overhead, not its arithmetic, so that run makes
its buffers once per march and its 0-d constants once per call, and
passes out positionally (np.maximum's and np.minimum's by name: their
positional form is deprecated and slower).

One driver, _blocks, walks the clock's pieces by stretches for both
backends and yields the history a block at a time, states (k, 3, n) and
their end times; it alone names a NaN state, raising
FloatingPointError with its clock time.  Its first piece may start
mid-piece, after steps taken elsewhere: _converge resumes a run after
a trajectory's own rows, as the scenario's bounceback probe does.
Every caller takes the block's observations with whole-array
operations: integrate copies it, final_states takes region excess, and
settle_batch and converge (a settle run at n = 1 on the mode's fixed
points) fold tolerance streaks and settle times by one rule (_settle).  A block is BLOCK_STEPS steps,
fewer when the history would pass BLOCK_BYTES.  Results are those of
per-step bookkeeping, bit for bit: the fold carries each run's streak
across block edges (for converge, a start within tol counts as the
streak's first state), returns the state and time of the step where the
last run settled, and ignores a NaN state after it in the same block.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import itertools
import math

import numpy as np

from .model import (CHATTERING, MODE_TAGS, NORMAL, SWITCHED_FULL, ModelConfig, SystemMode, _admittance_bound,
                    _constants, _make, _piece_lines, as_mode, competitive_mode, saturated_mode)  # modes re-exported

MAX_STEP = 0.1
DEFAULT_STEP = 0.01
CLAMP_EPS = 1e-9
SETTLE_STREAK = 100  # consecutive in-tolerance steps deemed converged
BLOCK_STEPS = 128  # most steps a driver takes between observations
BLOCK_BYTES = 1 << 18  # cap on the (block, 3, n) state history of one block


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed states plus the derived per-step series.

    states has one row (R, q, U) per time; U stays frozen at its start in
    the 2-state modes.  The derived series are consistent with the states
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
        """State at the grid time nearest to t, a finite time."""
        return self.states[self._row(t)]

    def _row(self, t: float) -> int:
        """The row of state_at(t): the first grid time nearest to t."""
        if not math.isfinite(t):
            raise ValueError(f"t = {t!r} is not a finite time")
        return int(np.argmin(np.abs(self.times - t)))


def _cap_flow(flow, q, q_ad, mu_star, out=None, mask=None):
    """Chattering's cap: flow = alpha(q)*R lowered in place to mu_star where
    q >= q_ad (out, mask: scratch).  np.minimum(where=) is slower."""
    np.copyto(flow, np.minimum(flow, mu_star, out=out), where=np.greater_equal(q, q_ad, mask))


def _make_deriv(cfg: ModelConfig, tag: str):
    """(x, out, k_u) -> out: the field at the (3, n) states x (rows R, q,
    U) under the load k_u, written into the (3, n) out, which must not
    overlap x, after projecting onto the orthant; _kernel's field has the
    same operation order.  2-state fields leave out's U row as it is.  out
    takes the projected state, then mu in place of q; two scratch rows and
    a mask (the cubic alpha's and chattering's) are made when the width
    changes."""
    f, alpha, mu = cfg.price._kernel, cfg.admission._kernel, cfg.service._kernel
    k_r, zero = np.array(cfg.k_r), np.array(0.0)
    if tag == "chattering":
        q_ad, mu_star = np.array(_admittance_bound(cfg, tag)), np.array(cfg.service.mu_star)
    rows = 3 if tag == "competitive" else 2
    a = fq = mask = np.empty((0, 0))
    sub, mul, add = np.subtract, np.multiply, np.add

    def deriv(x, out, k_u):
        nonlocal a, fq, mask
        if a.shape != x.shape[1:]:
            a, fq = np.empty((2, x.shape[1]))
            mask = np.empty(x.shape[1], bool)
        np.maximum(x[:rows], zero, out=out[:rows])
        r, q = out[0], out[1]
        alpha(q, a, fq, mask)  # fq: scratch until f fills it
        f(q, fq)
        if tag == "chattering":
            mul(fq, r, fq)
            _cap_flow(mul(a, r, a), q, q_ad, mu_star, r, mask)
            mu(q, q)
            sub(sub(k_r, fq, fq), a, r)  # k_r - fq*r - flow
            sub(a, q, q)  # flow - m
            return out
        mul(add(fq, a, fq), r, fq)  # (fq + a)*r
        if tag == "competitive":
            u = out[2]
            mul(a, add(r, u, r), r)  # a*(r + u)
            sub(k_u, mul(a, u, u), u)  # k_u - a*u
        else:
            mul(a, r, r)  # a*r
        mu(q, q)
        sub(r, q, q)  # a*r - m, or a*(r + u) - m
        if tag == "saturated":
            add(q, k_u, q)
        sub(k_r, fq, r)  # k_r - (fq + a)*r
        return out

    return deriv


def _kernel(cfg: ModelConfig, tag: str):
    """run: the scalar backend of the field tag on cfg, one generated
    function bound to cfg's constants by the factory that model._make
    compiles once per shape of the piece tables.

    run(out, x, k_u, dt, k0, k1, j) -> (x, k) is the stretch contract of
    _blocks for one run, x = (r, q, u) floats: each step one RK4 step of
    _batch_run's arithmetic, NaN check and clamps with _make_deriv's field
    on plain floats inlined into each stage, its state stored through out,
    a flat float view of the (block, 3, 1) history (_march binds it).
    """
    values, lit = _constants()
    chat = _admittance_bound(cfg, tag)
    three = tag == "competitive"
    kr, cap = lit(cfg.k_r), lit(cfg.admission.q_max)
    tables = [line for name, spec in (("fq", cfg.price), ("a", cfg.admission), ("m", cfg.service))
              for line in _piece_lines(name, spec.pieces, "qs", lit)]
    if chat is not None:
        q_ad, mu_star, q_ad_eps = lit(chat), lit(cfg.service.mu_star), lit(chat + CLAMP_EPS)

    def field(k, r, q, u):
        """Lines setting kr{k}, kq{k} (and ku{k} in 3-state) to _make_deriv's
        field at the point (r, q, u), in its operation order."""
        lines = [f"rs = {r}", "if rs <= 0.0:", "    rs = 0.0",
                 f"qs = {q}", "if qs <= 0.0:", "    qs = 0.0", *tables]
        if tag == "chattering":
            return lines + ["flow = a * rs", f"if qs >= {q_ad} and flow >= {mu_star}:",
                            f"    flow = {mu_star}", f"kr{k} = {kr} - fq * rs - flow",
                            f"kq{k} = flow - m"]
        lines.append(f"kr{k} = {kr} - (fq + a) * rs")
        if three:
            return lines + [f"us = {u}", "if us <= 0.0:", "    us = 0.0",
                            f"kq{k} = a * (rs + us) - m", f"ku{k} = k_u - a * us"]
        return lines + [f"kq{k} = a * rs - m" + (" + k_u" if tag == "saturated" else "")]

    ku = (lambda k: f"ku{k}") if three else (lambda k: "0.0")  # 0.0 sums fold at compile time
    step = [*field(1, "r", "q", "u")]
    for k, h in ((2, "h2"), (3, "h2"), (4, "dt")):
        step += field(k, f"r + {h} * kr{k - 1}", f"q + {h} * kq{k - 1}", f"u + {h} * {ku(k - 1)}")
    # 2.0, not 2: CPython specialises float * float, not int * float (same bits)
    step += ["rn = r + c * (kr1 + 2.0 * kr2 + 2.0 * kr3 + kr4)",
             "qn = q + c * (kq1 + 2.0 * kq2 + 2.0 * kq3 + kq4)",
             f"un = u + c * ({ku(1)} + 2.0 * {ku(2)} + 2.0 * {ku(3)} + {ku(4)})",
             "if rn != rn or qn != qn or un != un:", "    return (r, q, u), k",
             "if 0.0 > qn:", "    qn = 0.0", f"if {cap} < qn:", f"    qn = {cap}"]
    if chat is not None:
        step += [f"if q <= {q_ad_eps} and qn > {q_ad}:", f"    qn = {q_ad}"]
    step += ["r = 0.0 if 0.0 > rn else rn", "q = qn", "u = 0.0 if 0.0 > un else un",
             "out[i] = r", "out[i + 1] = q", "out[i + 2] = u", "i += 3"]
    body = ["r, q, u = x", "h2 = 0.5 * dt", "c = dt / 6.0", "i = 3 * j", "for k in range(k0, k1):",
            *("    " + line for line in step), "return (r, q, u), k1"]
    return _make(values, ("run(out, x, k_u, dt, k0, k1, j)", body))


def _k_u(cfg: ModelConfig, mode: SystemMode, t: float) -> float:
    """The mode's K_U at time t: the schedule's in switched_full, else its constant."""
    return cfg.schedule_rate(t) if mode.tag == "switched_full" else mode.k_u


def _states(x) -> np.ndarray:
    """x as a float array of states in the trailing-axis layout (..., 2 or 3)."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] not in (2, 3):
        raise ValueError("state must have 2 or 3 coordinates")
    return arr


def rhs(cfg: ModelConfig, mode, t: float, x) -> np.ndarray:
    """Right-hand side of the mode at time t and state x = (r, q[, u]).

    Accepts a single state or an array of states in the trailing-axis
    layout (..., 2 or 3); returns the matching shape.  States are
    projected onto the nonnegative orthant before evaluation, so RK4
    stage points that overshoot the axes remain well defined.  A term
    that overflows reads +-inf, as in the runs.
    """
    mode = as_mode(mode)
    arr = _states(x)
    ncoord = arr.shape[-1]
    stack = np.zeros((3, arr.size // ncoord))  # U = 0 for 2-coordinate states
    stack[:ncoord] = arr.reshape(-1, ncoord).T
    with np.errstate(over="ignore"):
        out = _make_deriv(cfg, mode.field_tag)(stack, np.zeros_like(stack), _k_u(cfg, mode, t))
    return out[:ncoord].T.reshape(arr.shape)


def admitted_flows(cfg: ModelConfig, mode, x):
    """Admitted (responsive, unresponsive) flow at the state.

    Smooth modes: (alpha(q) R, alpha(q) U), U's flow zero in the 2-state
    modes.  Chattering, a 2-state mode whose field admits R only:
    (min(alpha(q) R, mu_star) for q >= q_ad, else alpha(q) R; 0).  A flow
    that overflows reads inf.
    """
    mode = as_mode(mode)
    arr = _states(x)
    shape = arr.shape[:-1]
    # the projected rows, 0-d for one state; the flows are written into R's and U's
    r, q = (np.maximum(arr[..., i], 0.0, out=np.empty(shape)) for i in (0, 1))
    with np.errstate(over="ignore"):
        a = cfg.admission._kernel(q, np.empty(shape))
        np.multiply(a, r, r)
        if mode.dim == 3:
            u = np.maximum(arr[..., 2], 0.0, out=np.empty(shape)) if arr.shape[-1] == 3 else np.zeros(shape)
            return r[()], np.multiply(a, u, u)[()]  # [()]: 0-d to scalar
    if _admittance_bound(cfg, mode.tag) is not None:
        _cap_flow(r, q, cfg.q_ad, cfg.service.mu_star, a)
    return r[()], np.zeros(shape)


def _batch_run(deriv, hist, q_cap, chat_cap, raw=None):
    """The compiled run's numpy twin for the n runs of the (block, 3, n)
    history hist: run(x, k_u, dt, k0, k1, j) -> (x, k) is the stretch
    contract of _blocks for the (3, n) C-contiguous stack x, each step in
    that run's operation order, with its NaN check and clamps (q_cap =
    q_max; chat_cap the chattering bound, None in other modes).  raw, when
    given, is a [per-coordinate minimum, maximum q] pair that takes in the
    unclamped results.  The buffers (derivatives, U rows zero; a stage; a
    mask) are made here, the 0-d stage factors and K_U once per call."""
    n = hist.shape[2]
    d1, d2, d3, d4 = (np.zeros((3, n)) for _ in range(4))
    s = np.empty((3, n))
    zero, two, cap = np.array(0.0), np.array(2.0), np.array(q_cap)
    if chat_cap is not None:
        chat, chat_eps, below = np.array(chat_cap), np.array(chat_cap + CLAMP_EPS), np.empty(n, bool)
    slots = list(hist)  # the views, made once
    mul, add = np.multiply, np.add

    def run(x, k_u, dt, k0, k1, j):
        half, full, sixth = np.array(0.5 * dt), np.array(dt), np.array(dt / 6.0)
        c_k_u = np.array(k_u, dtype=float)
        # overflow to inf and inf - inf = NaN pass silently, as in the compiled
        # run; the NaN check below names the step
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(k0, k1):
                out = slots[j + k - k0]
                if chat_cap is not None:
                    np.less_equal(x[1], chat_eps, below)
                deriv(x, d1, c_k_u)
                deriv(add(mul(d1, half, s), x, s), d2, c_k_u)
                deriv(add(mul(d2, half, s), x, s), d3, c_k_u)
                deriv(add(mul(d3, full, s), x, s), d4, c_k_u)
                # x + dt/6 * (((d1 + 2*d2) + 2*d3) + d4)
                add(mul(d2, two, s), d1, s)
                add(s, mul(d3, two, d3), s)
                add(s, d4, s)
                add(x, mul(s, sixth, s), out)
                if raw is not None:
                    np.minimum(raw[0], np.minimum.reduce(out, 1, initial=np.inf), out=raw[0])
                    raw[1] = max(raw[1], float(np.maximum.reduce(out[1], initial=-np.inf)))
                q = out[1]
                if chat_cap is not None:
                    np.copyto(q, np.minimum(q, chat, out=s[1]), where=below)
                np.maximum(out, zero, out=out)
                np.minimum(q, cap, out=q)
                # the projection and clamps keep NaN and leave every other value >= 0,
                # so the sum is NaN exactly when some coordinate is
                if math.isnan(np.add.reduce(out, None)):
                    return x, k
                x = out
            return x, k1

    return run


def _step_count(a: float, b: float, h: float) -> int:
    """Steps of the clock on [a, b], 0 when b <= a; ValueError unless
    0 < h <= MAX_STEP and (b - a) / h is finite."""
    if not 0 < h <= MAX_STEP:
        raise ValueError(f"step h must lie in (0, {MAX_STEP}]")
    span = b - a
    if not math.isfinite(span / h):
        raise ValueError(f"time span [{a:g}, {b:g}] must be finite in steps of h = {h:g}")
    return max(1, math.ceil(span / h - 1e-9)) if span > 0 else 0


class _clock:
    """The mode's RK4 steps on [a, b], checked when made: .pieces, (s, e,
    n, h, K_U) per piece [s, e] of n steps at the K_U of time s, and .steps
    of them in all.  switched_full is cut at the schedule edges inside (a,
    b), any other mode kept whole; step k of a piece ends at s + k*h, the
    last on e.  _blocks walks the pieces."""

    def __init__(self, cfg: ModelConfig, mode: SystemMode, a: float, b: float, h: float):
        inner = {e for piece in cfg.k_u_schedule for e in piece[:2] if a < e < b}
        edges = [a, *sorted(inner), b] if mode.tag == "switched_full" else [a, b]
        self.pieces = [(s, e, _step_count(s, e, h), h, _k_u(cfg, mode, s))
                       for s, e in zip(edges, edges[1:])]
        self.steps = sum(piece[2] for piece in self.pieces)


def _block_steps(n: int) -> int:
    """Steps per block for n runs: BLOCK_STEPS, fewer when the (block, 3, n)
    history would pass BLOCK_BYTES, and at least one."""
    return max(1, min(BLOCK_STEPS, BLOCK_BYTES // (24 * max(n, 1))))


def _blocks(run, x, clock, hist, where: str, first: int = 1):
    """Step the runs from x along the clock into the (block, 3, n) history
    hist by a backend's run, one stretch of steps per call.

    run(x, k_u, dt, k0, k1, j) -> (x, k) takes steps k0 .. k1 - 1 from x,
    writes step i's state into hist[j + i - k0], and returns its last
    state and k1, or, on a NaN state, that step's index k (x then
    unspecified).  The stretches are each piece's full steps k = 1 .. n
    - 1, ending at s + k*h, then its last, ending on e.  The first piece
    may start mid-piece, at step first <= n: x is then the state after
    its step first - 1, which was taken elsewhere.

    Yields (states, times) per block of up to len(hist) steps: views of
    the states after each of its k steps, (k, 3, n), and of their end
    times, (k,), overwritten by the next block.  A NaN state ends its block
    early, and FloatingPointError naming the step's clock time and where is
    raised only when the next block is asked for, so a caller that returns
    on the block holding its answer never sees it.
    """
    size, j = len(hist), 0
    times = np.empty(size)
    for s, e, n, h, k_u in clock.pieces:
        for start, dt, k0, k1 in ((s, h, first, n), (e, (e - s) - (n - 1) * h, 0, min(n, 1))):
            while k0 < k1:
                stop = min(k1, k0 + size - j)
                x, k = run(x, k_u, dt, k0, stop, j)
                times[j : j + k - k0] = start + np.arange(k0, k) * dt if k0 else start
                j += k - k0
                if k < stop:  # step k gave a NaN state
                    if j:
                        yield hist[:j], times[:j]
                    t = start + k * dt if k else start
                    raise FloatingPointError(f"NaN state at t = {t:g} ({where})")
                if j == size:
                    yield hist, times
                    j = 0
                k0 = k
        first = 1  # every later piece from its start
    if j:
        yield hist[:j], times[:j]


def _replayed(states, t0: float, h: float, size: int):
    """The (m, 3) states of steps 1 .. m of one run from t0 by h, taken
    elsewhere, as _blocks yields them: (k, 3, 1) views of up to size steps
    and their end times t0 + k*h, the clock's own."""
    for k in range(0, len(states), size):
        block = states[k : k + size, :, None]
        yield block, t0 + np.arange(k + 1, k + 1 + len(block)) * h


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


def _march(cfg: ModelConfig, mode: SystemMode, h: float, x, clock, *, raw=None, first: int = 1):
    """_blocks of the runs started at the (3, n) states x along the clock,
    from step first of its first piece, in one history of _block_steps(n)
    steps, by the mode's checked RK4 run: _kernel's for one run without
    raw, else _batch_run's.  An empty batch takes no step.  Checks its
    arguments now, not on the first step."""
    n = x.shape[1]
    hist = np.empty((_block_steps(n), 3, n))
    if n == 1 and raw is None:
        run = functools.partial(_kernel(cfg, mode.field_tag), memoryview(hist).cast("B").cast("d"))
        x = x[:, 0].tolist()
    else:
        run = _batch_run(_make_deriv(cfg, mode.field_tag), hist, cfg.admission.q_max,
                         _admittance_bound(cfg, mode.tag), raw)
    return _blocks(run, x, clock, hist, f"mode {mode.tag}, h = {h:g}", first) if n else iter(())


def integrate(cfg: ModelConfig, mode, x0, t0: float, t1: float, h: float = DEFAULT_STEP) -> Trajectory:
    """Integrate one trajectory and record every step.

    t1 == t0 yields a length-1 trajectory.  Aborts with a diagnostic on
    NaN; rejects h outside (0, 0.1] and non-finite t0 or t1.
    """
    mode = as_mode(mode)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    x = _start(x0)
    clock = _clock(cfg, mode, t0, t1, h)
    times = np.empty(1 + clock.steps)
    states = np.empty((len(times), 3))
    times[0], states[0] = t0, x
    k = 1
    for block, ts in _march(cfg, mode, h, states[:1].T, clock):
        times[k : k + len(ts)] = ts
        states[k : k + len(ts)] = block[:, :, 0]
        k += len(ts)

    q = states[:, 1]
    with np.errstate(over="ignore"):  # a series past the float range reads inf, as the runs let it
        fr, fu = admitted_flows(cfg, mode, states)
        return Trajectory(
            mode=mode,
            times=times,
            states=states,
            price=cfg.price._kernel(q, np.empty_like(times)),  # out given: no temporary rows
            flow_r=np.asarray(fr),
            flow_u=np.asarray(fu),
            mu=cfg.service._kernel(q, np.empty_like(times)),
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
    mode = as_mode(mode)
    x = np.ascontiguousarray(_starts(x0s).T)
    n = x.shape[1]
    clock = _clock(cfg, mode, t0, t1, h)
    raw = [np.full(3, np.inf), -np.inf] if raw_bounds else None
    excess = None
    if region is not None:
        A, b = _check_region(region)
        excess = np.full(n, -np.inf)

    for states, _ in _march(cfg, mode, h, x, clock, raw=raw):
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
                h: float, t0: float, *, start_counts: bool = False, done=()):
    """settle_batch's and converge's run: _settle over the runs from x0s,
    t0 to at most t0 + t_cap, the empty batch taking no step.  With
    start_counts, a start within tol counts as its streak's first state.
    done, for one run, holds the (m, 3) states of its first m steps, taken
    elsewhere by the same RK4 run: those that are full steps of the clock
    are folded first (_replayed), and the march goes on from the last."""
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if t_cap < 0:
        raise ValueError("t_cap must be >= 0")
    x = np.ascontiguousarray(_starts(x0s).T)
    n = x.shape[1]
    clock = _clock(cfg, mode, t0, t0 + t_cap, h)
    m = min(len(done), max(clock.pieces[0][2] - 1, 0))
    blocks = _march(cfg, mode, h, done[m - 1][:, None] if m else x, clock, first=m + 1)
    if m:
        blocks = itertools.chain(_replayed(done[:m], t0, h, _block_steps(n)), blocks)
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
    return _converge(cfg, mode, x0, tol, t_cap, h)


def _converge(cfg: ModelConfig, mode, x0, tol: float, t_cap: float, h: float, done=()) -> ConvergeResult:
    """converge, resumed after done, the (m, 3) states of its own first m
    steps from x0 as the same RK4 run gives them (_settle_run): it returns
    what converge returns, bit for bit."""
    from . import equilibria  # deferred: equilibria imports stability imports this

    mode = as_mode(mode)
    if mode.tag == "switched_full":  # its targets are fixed points of a constant K_U
        raise ValueError("switched_full has no constant K_U; run each schedule piece on its own")
    targets = np.array([(fp.r_star, fp.q_star, fp.u_star)[: mode.dim]
                        for fp in equilibria.find_fixed_points(cfg, mode)]).reshape(-1, mode.dim, 1)
    settle_t, x, _, _ = _settle_run(cfg, mode, np.ravel(x0), targets, tol, t_cap, h, 0.0,
                                    start_counts=True, done=done)
    return ConvergeResult(x[:, 0].copy(), not math.isnan(settle_t[0]), float(settle_t[0]))
