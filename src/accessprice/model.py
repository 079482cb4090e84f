"""Parametric building blocks of the access-pricing queue model.

Three piecewise functions of the active-queue length q drive everything:

* a price f(q) charged for access, in one of three shapes: a triangular
  profile that rises to beta*q_m and falls back to zero, a saturated
  variant that stops falling at a positive floor beta*(2*q_m - q_n), and
  a plain surge ramp beta*q;
* a service rate mu(q) that ramps linearly up to mu_star at q_c and is
  flat afterwards;
* an admission rate alpha(q), a strictly decreasing polynomial (linear or
  cubic) clamped to zero at q_max, which gates how fast waiting users
  enter the active queue.

Each spec declares its function once, in two forms: a numpy kernel
(_kernel(q, out=None), into out if given; an admission kernel also takes
scratch x (q capped at q_max) and mask; built on the first array query
as a cached_property, no field, so float queries import no numpy) for the
evaluators and the batch field, and a piece table (pieces): (start,
origin, coefficients) per piece on [start, next start), the polynomial sum
c_k * (q - origin)**k of degree <= 3, which evaluates bit for bit like the
kernel (a piece through zero has constant term -0.0, so q = -0.0 keeps its
sign).  Slopes, kinks, exact extrema (extremum, which decides validate's
alpha clauses) and roots (_stretches and _real_roots, which the
fixed-point scan shares) and, through _piece_lines, all float code come
from the tables: the scalar RK4 run and each spec's float form (_scalar),
which the public evaluators call on any scalar query (a float, an int or a
0-d array) once they have validated it, the kernel's bits at a fraction of
its cost.  Both are compiled one way, by _make: the source names every
constant by a parameter of a factory make(c0, ...), so it depends only on
the tables' shapes and is compiled once per shape.  The mode vocabulary
(SystemMode, as_mode, the constants) lives here; dynamics re-exports it.

What the analysis chain derives from frozen fields is kept the kernel's
way, as a cached_property on the object it derives from, so no
module-wide cache holds a config: each spec's repr (_repr, for the
fixed-point memo's key), an admission spec's alpha clauses (_clauses) and
a config's R_dagger and q_dagger (_r_dagger, _q_dagger, from regions).
An error is not kept: the next access raises it again.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
import functools
import linecache
import math
import struct
import zlib

PRICE_VARIANTS = ("triangular", "saturated", "surge")
ADMISSION_VARIANTS = ("linear", "cubic")


def _as_query(q):
    """(query, scalar) from a queue-length argument, rejecting negatives
    and NaN: an int or a float (numpy float64 included) becomes a plain
    float without numpy, any other argument an ndarray."""
    plain = isinstance(q, (int, float))
    if not plain:
        import numpy as np
    arr = float(q) if plain else np.asarray(q, dtype=float)
    if not (arr >= 0 if plain else np.all(arr >= 0)):
        raise ValueError("queue length q must be a nonnegative number")
    return arr, plain or arr.ndim == 0


def _evaluate(spec, q):
    """The spec's function at q: its float form on a scalar, else its
    kernel, where an overflow reads inf as in the float form."""
    arr, scalar = _as_query(q)
    if scalar:
        return spec._scalar(float(arr))
    import numpy as np
    with np.errstate(over="ignore"):
        return spec._kernel(arr)


def _require_finite(**values):
    """Reject NaN and +-inf, naming the parameter; None means absent."""
    for name, value in values.items():
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _piece_lines(name: str, pieces, q: str, lit) -> list[str]:
    """Lines that set name to the piece table's function at the float q >= 0
    (or NaN), as from_pieces evaluates it: an if/elif chain from the last
    piece down, so a NaN q falls through to piece 0 and stays NaN; Horner as
    _poly runs it, less the exact identities q - 0.0 == q and -0.0 + y == y;
    floored at zero, keeping -0.0 and NaN, as there, a constant piece's
    floor taken here.  A piece whose every term c_k * (q - origin)**k is
    >= 0 on its interval [start, end) (all c_k >= 0 with start >= origin,
    or c_k of sign (-1)**k with end <= origin) is written without its
    floor: each Horner partial sum then keeps its sign, so the floor never
    fires.  lit(x) writes each other constant, as the name bound to it
    (_constants)."""
    lines = []
    for i in reversed(range(len(pieces))):
        start, origin, c = pieces[i]
        end = pieces[i + 1][0] if i + 1 < len(pieces) else math.inf
        if len(c) == 1:
            body = [f"{name} = {lit(0.0 if c[0] < 0.0 else c[0])}"]
        else:
            x = q if repr(float(origin)) == "0.0" else f"({q} - {lit(origin)})"
            expr = lit(c[-1])
            for ck in c[-2::-1]:
                term = f"{x} * " + (f"({expr})" if " " in expr else expr)
                expr = term if repr(float(ck)) == "-0.0" else f"{lit(ck)} + {term}"
            body = [f"{name} = {expr}"]
            if not (start >= origin and all(ck >= 0.0 for ck in c)
                    or end <= origin and all((-1) ** k * ck >= 0.0 for k, ck in enumerate(c))):
                body += [f"if {name} < 0.0:", f"    {name} = 0.0"]
        if len(pieces) == 1:
            return body
        head = "else:" if i == 0 else f"{'if' if i == len(pieces) - 1 else 'elif'} {q} >= {lit(start)}:"
        lines += [head, *("    " + line for line in body)]
    return lines


_makers: dict[str, object] = {}  # make's source -> make: one per table shape, a few in all


def _constants():
    """(values, lit): lit(x) appends x, floated, to values and returns the
    name that binds it, cN, the Nth parameter of _make's factory."""
    values = []

    def lit(x):
        values.append(float(x))
        return f"c{len(values) - 1}"

    return values, lit


def _make(values, definition):
    """The function definition, (head, body lines), bound to values by one
    make(c0, ...): make(*values).  Its source names each constant by its
    parameter (_constants), so it depends only on the shapes of the tables
    written (piece counts, degrees, zero origins, -0.0 coefficients), and
    make is compiled once per source text (the first compiled wins, no
    lock), under a file name taken from that text whose source linecache
    holds, so tracebacks and profiles show the generated line."""
    head, lines = definition
    source = (f"def make({', '.join(f'c{i}' for i in range(len(values)))}):\n"
              + f"    def {head}:\n" + "".join(f"        {line}\n" for line in lines)
              + f"    return {head[:head.index('(')]}\n")
    make = _makers.get(source)
    if make is None:
        filename = f"<accessprice make {zlib.crc32(source.encode()):08x}>"
        names = {}
        exec(compile(source, filename, "exec"), names)
        make = _makers.setdefault(source, names["make"])
        linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return make(*values)


def _declare(spec, pieces):
    """Bind the spec's piece table and its float form (_scalar), generated
    from the table by _make."""
    values, lit = _constants()
    form = _make(values, ("f(q)", [*_piece_lines("v", pieces, "q", lit), "return v"]))
    for name, value in (("_scalar", form), ("pieces", pieces)):
        object.__setattr__(spec, name, value)


@dataclass(frozen=True)
class PriceSpec:
    """Price function parameters.

    variant "triangular": f = beta*q up to q_m, beta*(2*q_m - q) down to
    2*q_m, zero afterwards. variant "saturated": same but frozen at the
    value beta*(2*q_m - q_n) from q_n on, with q_m < q_n < 2*q_m.
    variant "surge": unbounded linear beta*q (q_m, q_n unused).
    """

    variant: str
    beta: float
    q_m: float | None = None
    q_n: float | None = None

    def __post_init__(self):
        if self.variant not in PRICE_VARIANTS:
            raise ValueError(f"unknown price variant {self.variant!r}")
        _require_finite(beta=self.beta, q_m=self.q_m, q_n=self.q_n)
        if not self.beta > 0:
            raise ValueError("beta must be > 0")
        if self.variant == "surge":
            if self.q_m is not None or self.q_n is not None:
                raise ValueError("surge price takes no q_m/q_n")
        elif self.q_m is None or not self.q_m > 0:
            raise ValueError("q_m must be > 0")
        elif self.variant == "saturated":
            if self.q_n is None or not (self.q_m < self.q_n < 2 * self.q_m):
                raise ValueError("saturated price needs q_n in (q_m, 2*q_m)")
        elif self.q_n is not None:
            raise ValueError("triangular price takes no q_n")
        if self.q_m is not None:
            if not math.isfinite(2 * self.q_m):
                raise ValueError("q_m too large: the falling leg's end 2*q_m overflows")
            if not math.isfinite(self.beta * self.q_m):
                raise ValueError("beta too large: the peak price beta*q_m overflows")
        b, qm = self.beta, self.q_m
        if self.variant == "surge":
            _declare(self, ((0.0, 0.0, (-0.0, b)),))
        else:  # the triangular floor is zero from 2*q_m on; the falling leg is -beta*(q - 2*q_m)
            end = 2 * qm if self.q_n is None else self.q_n
            _declare(self, ((0.0, 0.0, (-0.0, b)), (qm, 2 * qm, (-0.0, -b)), (end, 0.0, (b * (2 * qm - end),))))

    _repr = functools.cached_property(repr)  # the fields are frozen: formatted once

    @functools.cached_property
    def _kernel(self):
        import numpy as np

        c_b, mul, sub, lo, hi = np.array(self.beta), np.multiply, np.subtract, np.minimum, np.maximum
        if self.variant == "surge":
            return lambda q, out=None: mul(c_b, q, out)
        c_2qm, c_floor = np.array(2 * self.q_m), np.array(2 * self.q_m - self.pieces[-1][0])

        def kernel(q, out=None):  # b * min(q, max(2*qm - q, floor))
            w = hi(sub(c_2qm, q, out), c_floor, out=out)
            return mul(c_b, lo(q, w, out=out), out)

        return kernel

    @property
    def kinks(self) -> tuple[float, ...]:
        """The breakpoints of the price after 0."""
        return tuple(s for s, _, _ in self.pieces[1:])


@dataclass(frozen=True)
class ServiceSpec:
    """Service rate: mu(q) = mu_star*q/q_c below q_c, mu_star above."""

    mu_star: float
    q_c: float

    def __post_init__(self):
        _require_finite(mu_star=self.mu_star, q_c=self.q_c)
        if not self.mu_star > 0:
            raise ValueError("mu_star must be > 0")
        if not self.q_c > 0:
            raise ValueError("q_c must be > 0")
        ramp, q_c = self.mu_star / self.q_c, self.q_c
        if not math.isfinite(ramp):
            raise ValueError("q_c too small for mu_star: the ramp mu_star/q_c overflows")
        _declare(self, ((0.0, 0.0, (-0.0, ramp)), (q_c, 0.0, (ramp * q_c,))))

    _repr = functools.cached_property(repr)

    @functools.cached_property
    def _kernel(self):
        import numpy as np

        c_ramp, c_q_c, mul, lo = np.array(self.mu_star / self.q_c), np.array(self.q_c), np.multiply, np.minimum
        return lambda q, out=None: mul(c_ramp, lo(q, c_q_c, out=out), out)


def _first_zero(vanishes, lo: float, hi: float) -> float:
    """The first float q in [lo, hi], 0 <= lo <= hi, where vanishes(q) holds,
    taken to hold at hi: bisection on the bit patterns, which order the
    nonnegative floats, in at most 64 halvings.  For a predicate that is
    not monotone on [lo, hi] it is hi or a float where vanishes holds, and
    not at the float below it unless that lies below lo.
    """
    bits = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
    value = lambda i: struct.unpack("<d", struct.pack("<q", i))[0]
    i, j = bits(lo) - 1, bits(hi)
    while j - i > 1:  # vanishes at j; at i unless i is below lo
        mid = (i + j) // 2
        i, j = (i, mid) if vanishes(value(mid)) else (mid, j)
    return value(j)


def _linear_cap(c2: float, c1: float, q_max: float) -> float:
    """The first float q >= q_max where c1*q + c2 < 0 (inf if none), from
    which a linear alpha is +0.0.  c1*q + c2 is 0 only where c1*q rounds
    to -c2, on a float or two unless c1*q is subnormal, so _first_zero
    searches four floats above q_max, and [q_max, inf] only when the
    bracket's top is not past the zeros: both give the first float, as
    c1*q + c2 falls in q."""
    vanishes, hi = (lambda q: c1 * q + c2 < 0), q_max
    for _ in range(4):
        hi = math.nextafter(hi, math.inf)
    return _first_zero(vanishes, q_max, hi if vanishes(hi) else math.inf)


@dataclass(frozen=True)
class AdmissionSpec:
    """Admission rate alpha(q): clamped decreasing polynomial.

    coefficients are in ascending powers: (c2, c1) for the linear variant
    alpha(q) = max(0, c1*q + c2), (a0, a1, a2, a3) for the cubic.  q_max
    is where alpha reaches zero; the linear variant always stores the first
    float q_max >= 0 with c1*q_max + c2 <= 0 (inf when c1 >= 0) and only
    checks a supplied one within 1e-9 relative; the cubic's must be
    supplied.  alpha is identically zero beyond q_max.
    """

    variant: str
    coefficients: tuple[float, ...]
    q_max: float | None = None

    def __post_init__(self):
        if self.variant not in ADMISSION_VARIANTS:
            raise ValueError(f"unknown admission variant {self.variant!r}")
        coeffs = tuple(float(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if not all(map(math.isfinite, coeffs)):
            raise ValueError("coefficients must be finite")
        _require_finite(q_max=self.q_max)  # only a supplied one; derived may be inf
        want = 2 if self.variant == "linear" else 4
        if len(coeffs) != want:
            raise ValueError(f"{self.variant} admission needs {want} coefficients, got {len(coeffs)}")
        if self.variant == "linear":
            c2, c1 = coeffs
            derived = math.inf
            if c1 < 0:  # c1*q + c2 falls, in floats too (both roundings are monotone)
                vanishes = lambda q: c1 * q + c2 <= 0
                # the first zero lies within two floats of -c2/c1, unless c1*q is subnormal
                lo, hi = (math.nextafter(math.nextafter(max(-c2 / c1, 0.0), x), x) for x in (0.0, math.inf))
                if vanishes(lo) or not vanishes(hi):
                    lo, hi = 0.0, math.inf
                derived = _first_zero(vanishes, lo, hi)
            supplied = derived if self.q_max is None else self.q_max
            if supplied < 0 or abs(supplied - derived) > 1e-9 * max(1.0, supplied):  # derived may be inf
                raise ValueError(f"linear admission q_max {supplied} inconsistent with zero crossing {derived}")
            object.__setattr__(self, "q_max", derived)
            # no tail when alpha vanishes from q = 0 on: it would shadow piece 0,
            # whose floor keeps the kernel's -0.0 at q = 0 when c2 = -0.0
            tail = ((derived, 0.0, (0.0,)),) if 0.0 < derived < math.inf else ()
            _declare(self, ((0.0, 0.0, coeffs), *tail))
        elif self.q_max is None or not self.q_max > 0:
            raise ValueError("cubic admission needs q_max > 0")
        elif not math.isfinite(_poly([abs(c) for c in coeffs], self.q_max)):
            # Horner on |a_i| bounds every Horner term of alpha on [0, q_max]
            raise ValueError("q_max too large: the cubic's Horner terms overflow on [0, q_max]")
        else:
            _declare(self, ((0.0, 0.0, coeffs), (self.q_max, 0.0, (0.0,))))

    _repr = functools.cached_property(repr)

    @functools.cached_property
    def _clauses(self) -> tuple:
        """validate's alpha clauses (_alpha_clauses), decided once."""
        return tuple(_alpha_clauses(self))

    @functools.cached_property
    def _kernel(self):
        import numpy as np

        zero = np.array(0.0)  # 0-d operands make cheaper numpy calls than floats
        mul, add, lo, hi, ge, copyto = np.multiply, np.add, np.minimum, np.maximum, np.greater_equal, np.copyto
        if self.variant == "linear":
            # q capped at the first float with c1*q + c2 < 0, from which alpha is +0.0: no c1*q overflows there
            k2, k1, k_max = map(np.array, (*self.coefficients, _linear_cap(*self.coefficients, self.q_max)))
            return lambda q, out=None, x=None, mask=None: hi(  # x: scratch, apart from q and out
                zero, add(mul(k1, lo(q, k_max, out=x), out), k2, out), out=out)
        k0, k1, k2, k3, k_max = map(np.array, (*self.coefficients, self.q_max))

        def kernel(q, out=None, x=None, mask=None):  # x, mask: scratch, apart from q and out
            x = lo(q, k_max, out=x)  # alpha is 0 from q_max on: no poly to overflow there
            out = np.empty(np.shape(q)) if out is None else out
            mul(x, add(k2, mul(x, k3, out), out), out)
            add(k0, mul(x, add(k1, out, out), out), out)
            copyto(hi(zero, out, out=out), 0.0, where=ge(q, k_max, mask))
            return out

        return kernel


@dataclass(frozen=True)
class ModelConfig:
    """Full system parameterization.

    k_u_schedule is a tuple of (t_start, t_end, rate) pieces giving the
    unresponsive arrival rate over time; the rate is zero outside all
    pieces.  q_ad, when present, is the admittance bound used by the
    chattering access policy.  Structural errors are raised here;
    semantic admissibility is reported by :func:`validate_admissible`.
    """

    k_r: float
    k_u_schedule: tuple[tuple[float, float, float], ...]
    price: PriceSpec
    admission: AdmissionSpec
    service: ServiceSpec
    q_ad: float | None = None

    def __post_init__(self):
        _require_finite(k_r=self.k_r, q_ad=self.q_ad)
        if not self.k_r > 0:
            raise ValueError("k_r must be > 0")
        pieces = tuple((float(a), float(b), float(r)) for (a, b, r) in self.k_u_schedule)
        object.__setattr__(self, "k_u_schedule", pieces)
        prev_end = -math.inf
        for i, (t0, t1, rate) in enumerate(pieces):
            if not all(map(math.isfinite, (t0, t1, rate))):
                raise ValueError(f"k_u_schedule[{i}]: values must be finite")
            if not t0 < t1:
                raise ValueError(f"k_u_schedule[{i}]: t_start must be < t_end")
            if rate < 0:
                raise ValueError(f"k_u_schedule[{i}]: rate must be >= 0")
            if t0 < prev_end:
                raise ValueError(f"k_u_schedule[{i}]: pieces overlap")
            prev_end = t1
        if self.q_ad is not None and not self.q_ad > 0:
            raise ValueError("q_ad must be > 0")

    def schedule_rate(self, t: float) -> float:
        """Unresponsive arrival rate K_U(t) from the schedule."""
        for t0, t1, rate in self.k_u_schedule:
            if t0 <= t < t1:
                return rate
        return 0.0

    @functools.cached_property
    def _r_dagger(self) -> float:
        """regions.r_dagger, kept: it reads only frozen fields.  An error is
        not kept, so the next access raises it again."""
        from . import regions  # deferred: regions imports this module

        return regions.r_dagger(self)

    @functools.cached_property
    def _q_dagger(self) -> float:
        """regions.q_dagger, eta1_inverse(R_dagger), kept as _r_dagger is."""
        from . import regions

        return regions.eta1_inverse(self, self._r_dagger)

    def kink_points(self) -> tuple[float, ...]:
        """Queue lengths where f, mu or alpha are not differentiable: the
        breakpoints of their piece tables after 0, all finite."""
        specs = (self.price, self.admission, self.service)
        return tuple(sorted({s for spec in specs for s, _, _ in spec.pieces[1:]}))


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


def _admittance_bound(cfg: ModelConfig, tag: str) -> float | None:
    """q_ad in chattering mode, None in every other mode."""
    if tag != "chattering":
        return None
    if cfg.q_ad is None:
        raise ValueError("chattering mode needs q_ad in the configuration")
    return cfg.q_ad


def eval_price(spec: PriceSpec, q):
    """Price f(q) for the given variant; q may be scalar or array."""
    return _evaluate(spec, q)


def eval_service(spec: ServiceSpec, q):
    """Service rate mu(q) = mu_star * min(q, q_c) / q_c."""
    return _evaluate(spec, q)


def eval_admission(spec: AdmissionSpec, q):
    """Admission rate alpha(q) >= 0, identically zero from q_max on."""
    return _evaluate(spec, q)


def _poly(c, x, order: int = 0):
    """The piece polynomial c (ascending powers of x = q - origin) at x, or
    with order=1 its derivative, by Horner's scheme."""
    if order:
        c = [k * ck for k, ck in enumerate(c)][1:] or [0.0]
    acc = c[-1]
    for ck in c[-2::-1]:
        acc = ck + x * acc
    return acc


def from_pieces(spec, q, order: int = 0):
    """The spec's function (order 0) or slope (order 1) at q, scalar or
    array, from its piece table.  At a breakpoint the value comes from the
    piece that starts there, as in the kernels, the slope from the one that
    ends there.  Values are floored at zero as in the kernels: a calibrated
    cubic can round a hair below zero just short of q_max.  On arrays an
    overflow reads +-inf, as on floats, and the floor then applies."""
    arr, scalar = _as_query(q)
    starts = [s for s, _, _ in spec.pieces]
    if scalar:  # one piece on plain floats costs a fraction of the array path
        x = float(arr)
        _, origin, c = spec.pieces[max((bisect_left if order else bisect_right)(starts, x) - 1, 0)]
        val = _poly(c, x - origin, order)
        return val if order else float(0.0 if 0.0 > val else val)  # np.maximum(0.0, val)
    import numpy as np
    idx = np.maximum(np.searchsorted(starts, arr, "left" if order else "right") - 1, 0)
    # each piece sees queries clamped to its end, so none overflows far beyond it
    with np.errstate(over="ignore"):
        val = np.choose(idx, [_poly(c, np.minimum(arr, end) - origin, order)
                              for (_, origin, c), end in zip(spec.pieces, (*starts[1:], math.inf))])
    return val if order else np.maximum(0.0, val)


def slope(spec, q):
    """f'(q), alpha'(q) or mu'(q) from the spec's piece table; the left
    derivative at breakpoints, so alpha'(q_max) is the polynomial's."""
    return from_pieces(spec, q, 1)


@functools.lru_cache(maxsize=256)
def _in_powers(origin: float, c: tuple) -> tuple:
    """The piece c_k * (q - origin)**k in ascending powers of q.  Cached: equal
    keys differ at most in zero signs, which the sums from 0 drop."""
    return tuple(sum(math.comb(j, k) * c[j] * (-origin) ** (j - k) for j in range(k, len(c)))
                 for k in range(len(c)))


def _stretches(tables, lo: float, hi: float):
    """(a, b, active, powers) for each stretch [a, b] of [lo, hi] between
    the tables' breakpoints: the piece of each table that holds it, and
    that piece in powers of q (_in_powers).  lo == hi is one stretch."""
    cuts = sorted({lo, hi, *(s for t in tables for s, _, _ in t if lo < s < hi)})
    for a, b in zip(cuts, cuts[1:] or cuts):
        active = [next(p for p in reversed(t) if p[0] <= 0.5 * (a + b)) for t in tables]
        yield a, b, active, [_in_powers(origin, c) for _, origin, c in active]


def _scaled(*polys):
    """The polynomials times the power of two that brings their largest
    coefficient into [0.5, 1): no product overflows, no root moves."""
    e = math.frexp(max((abs(x) for p in polys for x in p), default=0.0))[1]
    return [[math.ldexp(x, -e) for x in p] for p in polys]


def _bisect(fn, lo: float, hi: float, up: bool) -> float:
    """A root of fn in [lo, hi], on plain floats, where fn(lo) > 0 is up
    and fn(hi) > 0 is not: the library's one midpoint bisection.  It stops
    on an exact zero of fn at the midpoint, or once the midpoint rounds onto
    lo or hi, then adjacent floats, and returns the midpoint.  A finite
    bracket takes at most 2099 halvings ([-max, max] onto 0); the bound of
    2200 only stops a NaN bracket."""
    for _ in range(2200):
        mid = 0.5 * lo + 0.5 * hi
        if mid == lo or mid == hi:
            break
        v = fn(mid)
        if v == 0.0:
            return mid
        lo, hi = (mid, hi) if (v > 0) == up else (lo, mid)
    return 0.5 * lo + 0.5 * hi


def _real_roots(c, lo: float, hi: float) -> list:
    """The real roots in (lo, hi) of c, in ascending powers of q, scaled
    (_scaled).  Up to degree 2 in closed form: the stable quadratic's t =
    -(g1 + copysign(sqrt(g1^2 - 4 g2 g0), g1))/2 gives t/g2 and g0/t, a
    line -g0/g1.  Above that, _bisect finds the root of each section
    between the derivative's roots where c changes sign."""
    while len(c) > 3 and not c[-1]:
        c = c[:-1]
    if len(c) > 3:
        cuts = [lo, *sorted(_real_roots([k * ck for k, ck in enumerate(c)][1:], lo, hi)), hi]
        up = [_poly(c, q) > 0 for q in cuts]
        return [_bisect(lambda q: _poly(c, q), a, b, u)
                for a, b, u, v in zip(cuts, cuts[1:], up, up[1:]) if u != v]
    g0, g1, g2 = (*c, 0.0, 0.0)[:3]
    roots = ()  # a constant, or a complex pair
    if g2:
        disc = g1 * g1 - 4 * g2 * g0
        if disc >= 0:
            t = -(g1 + math.copysign(math.sqrt(disc), g1)) / 2
            if t:  # else g1 = g0 = 0: a double root at 0, where c keeps its sign
                roots = (t / g2, g0 / t)
    elif g1:
        roots = (-g0 / g1,)
    return [z for z in roots if lo < z < hi]


def extremum(tables, lo: float, hi: float, *, largest: bool = False, order: int = 0):
    """(value, q) where the sum of the piece tables' functions (order 0) or
    slopes (order 1) is least on [lo, hi], lo <= hi, or greatest (largest).

    Exact: the candidates are lo, hi, the breakpoints between them and, on
    each stretch between those (_stretches), the real roots of the sum's
    derivative, of degree <= 2, in closed form (_real_roots) on the
    coefficients in powers of q scaled by one power of two (_scaled), so
    nothing overflows.  Each piece counts on its closed interval, so at a
    jump both one-sided values compete.  The sum runs in the order of
    tables, on the unfloored pieces, which agree with the functions
    wherever alpha is admissible.
    """
    found = []
    for a, b, active, powers in _stretches(tables, lo, hi):
        kept = _scaled(*(cq[order + 1:] for cq in powers))  # less the terms the derivative drops
        g = [sum(math.perm(k + order + 1, order + 1) * cq[k] for cq in kept if k < len(cq)) for k in range(3)]
        for q in (a, b, *_real_roots(g, a, b)):
            found.append((float(sum(_poly(c, q - o, order) for _, o, c in active)), float(q)))
    return (max if largest else min)(found, key=lambda vq: vq[0])


# Fixed-point root counts compatible with each price family: the
# triangular admissibility assumption demands exactly two, the saturated
# price forces either one or three (its positive tail adds a third
# crossing whenever the middle pair exists), the surge ramp yields one.
EXPECTED_ROOT_COUNTS = {
    "triangular": (2,),
    "saturated": (1, 3),
    "surge": (1,),
}


@dataclass(frozen=True)
class Clause:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AdmissibilityReport:
    """Pass/fail record, one clause per admissibility requirement."""

    clauses: list[Clause] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def clause(self, name: str) -> Clause:
        for c in self.clauses:
            if c.name == name:
                return c
        raise KeyError(name)

    def lines(self) -> list[str]:
        out = [f"{c.name}: {'pass' if c.passed else 'FAIL'}" + (f" ({c.detail})" if c.detail else "")
               for c in self.clauses]
        core = [c for c in self.clauses if c.name.startswith("alpha-") or c.name == "root-count"]
        out.append("Assumption 1: " + ("pass" if all(c.passed for c in core) else "FAIL"))
        return out


def _alpha_clauses(adm: AdmissionSpec) -> list[Clause]:
    """alpha-positive-decreasing and alpha-zero-beyond-qmax, decided exactly
    from alpha's piece table.  alpha is strictly decreasing on [0, q_max]
    when its largest slope there (extremum) is <= 0 and it is not constant,
    and then positive on [0, q_max) when it is positive at the float below
    q_max.  It is zero beyond q_max when alpha(q_max) == 0.0: the table's
    last piece, from q_max on (a line's zero crossing), is zero, and a
    falling line stays at its floor."""
    q_max = adm.q_max
    if not math.isfinite(q_max):
        return [Clause("alpha-positive-decreasing", False, "alpha never reaches zero"),
                Clause("alpha-zero-beyond-qmax", False, "q_max is infinite")]
    steepest = extremum((adm.pieces,), 0.0, q_max, largest=True, order=1)[0]
    below = adm._scalar(math.nextafter(q_max, 0.0))
    failed = [why for ok, why in ((steepest <= 0, "alpha rises"), (any(adm.coefficients[1:]), "alpha is constant"),
                                  (below > 0, f"alpha = {below:g} at the float below q_max")) if not ok]
    return [Clause("alpha-positive-decreasing", not failed,
                   "; ".join([f"largest alpha' on [0, {q_max:g}]: {steepest:g}", *failed])),
            Clause("alpha-zero-beyond-qmax", adm._scalar(q_max) == 0.0)]


def _root_count(cfg: ModelConfig) -> tuple[Clause, list]:
    """The root-count clause and the normal-mode fixed points it counted
    (none when the scan failed)."""
    from . import equilibria  # deferred: equilibria imports this module

    expected = EXPECTED_ROOT_COUNTS[cfg.price.variant]
    try:
        points = equilibria.find_fixed_points(cfg, "normal")
        count = len(points)
        ok = count in expected
        detail = f"found {count}, expected {' or '.join(map(str, expected))} for {cfg.price.variant} price"
        if ok and cfg.price.variant == "triangular":
            # the two roots must straddle the price peak
            q_m = cfg.price.q_m
            q1, q2 = points[0].q_star, points[1].q_star
            if not (0 < q1 < q_m < q2 < 2 * q_m):
                ok = False
                detail += f"; roots ({q1:.6g}, {q2:.6g}) not split by q_m = {q_m:g}"
        return Clause("root-count", ok, detail), points
    except Exception as exc:  # malformed configs must still produce a report
        return Clause("root-count", False, f"scan failed: {exc}"), []


def validate_admissible(cfg: ModelConfig, *, k_u: float | None = None) -> AdmissibilityReport:
    """Check the admissibility clauses of the model configuration.

    Positivity and strict decrease of alpha on [0, q_max) and alpha == 0
    beyond q_max are decided exactly from alpha's piece table, with no
    sampling (_alpha_clauses); then the fixed-point root count expected
    for the price family, K_R > mu_star, and the placement of the
    admittance bound q_ad when present.  Passing k_u adds the
    competitive-mode root-count clause (exactly two points with
    mu(q) > K_U).  Failures are report entries, never exceptions.
    """
    from . import equilibria  # deferred: equilibria imports this module

    rep = AdmissibilityReport(list(cfg.admission._clauses))
    root, points = _root_count(cfg)
    rep.clauses.append(root)
    if k_u is not None:
        try:
            comp = equilibria.find_fixed_points(cfg, "competitive", k_u)
            rep.clauses.append(Clause("competitive-root-count", len(comp) == 2,
                                      f"found {len(comp)} with K_U = {k_u:g}, expected 2"))
        except Exception as exc:
            rep.clauses.append(Clause("competitive-root-count", False, f"scan failed: {exc}"))
    rep.clauses.append(Clause("kr-exceeds-mu-star", cfg.k_r > cfg.service.mu_star,
                              f"K_R = {cfg.k_r:g}, mu_star = {cfg.service.mu_star:g}"))
    if cfg.q_ad is not None:
        if len(points) >= 2:
            q1, q2 = points[0].q_star, points[1].q_star
            rep.clauses.append(Clause("q-ad-between-equilibria", q1 < cfg.q_ad < q2,
                                      f"q1*={q1:.6g}, q_ad={cfg.q_ad:g}, q2*={q2:.6g}"))
            from . import regions

            try:
                qd = regions.q_dagger(cfg)
                rep.clauses.append(Clause("q-ad-above-q-dagger", qd < cfg.q_ad, f"q_dagger={qd:.6g}"))
            except Exception as exc:
                rep.clauses.append(Clause("q-ad-above-q-dagger", False, str(exc)))
        else:
            rep.clauses.append(Clause("q-ad-between-equilibria", False, "needs two fixed points"))
        rep.clauses.append(Clause("q-ad-above-q-c", cfg.service.q_c < cfg.q_ad,
                                  f"q_c={cfg.service.q_c:g}, q_ad={cfg.q_ad:g}"))
    return rep
