"""Exact dynamics of a detuned two-mode system under piecewise-constant coupling.

The two mode amplitudes (a1, a2) evolve under

    i d/dt (a1, a2)^T = H (a1, a2)^T,
    H = [[delta, kappa], [conj(kappa), -delta]],

with kappa = kappa0 * exp(i*phi).  While (kappa0, phi) are held fixed the
propagator over a duration t has the closed form

    M = [[D, O], [-conj(O), conj(D)]],
    D = cos(W t) - 1j * (delta / W) * sin(W t),
    O = -1j * (kappa0 * exp(i*phi) / W) * sin(W t),

where W = sqrt(delta**2 + kappa0**2).  Protocols are sequences of such
constant-coupling segments; their propagators compose by matrix product.

Everything in this module is exact up to floating point.  One kernel,
_segment, _compose and _apply in cmul's arithmetic on rows (d.real, d.imag,
o.real, o.imag) of floats or numpy columns, serves the scalar propagators,
propagate's columns and the battery's columns of cases alike; its one
segment entry is segment_propagator, one case or columns.  TransferMatrix
and ModeState likewise hold one case or columns, _matrix makes either
kind of TransferMatrix from a row and _complexes either kind of complex
pair from parts.  Columns and floats broadcast as numpy broadcasts them,
through _each.  Each input is checked in one place, whether a dataclass
or a pair holds it: a coupler by _coupler, a segment by _segment_pair;
every guard of the package asks _every whether it holds in each entry.
modeswitch.oracle cross-checks them.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


# Every ratio |delta| / kappa0 at kappa0 = 0 raises this ValueError.
_NO_RATIO = "ratio undefined for kappa0 = 0: set kappa > 0"


@dataclass(frozen=True)
class CouplerParams:
    """Static system parameters.

    delta:  half the frequency detuning between the two modes (rad/s).
    kappa0: coupling magnitude (rad/s), nonnegative.
    """

    delta: float
    kappa0: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", float(self.delta))
        object.__setattr__(self, "kappa0", float(self.kappa0))
        _coupler((self.delta, self.kappa0))

    @property
    def rabi(self) -> float:
        """Generalized flopping rate W = sqrt(delta^2 + kappa0^2)."""
        return math.hypot(self.delta, self.kappa0)

    @property
    def ratio(self) -> float:
        """Detuning-to-coupling ratio |delta| / kappa0.  Requires kappa0 > 0."""
        if self.kappa0 == 0.0:
            raise ValueError(_NO_RATIO)
        return abs(self.delta) / self.kappa0


def static_max_transfer(params: CouplerParams) -> float:
    """Peak of |a2(t)|^2 from (1, 0) under constant coupling.

    The single-segment transfer is (kappa0/W)^2 * sin^2(W t), so the peak
    equals kappa0^2 / (delta^2 + kappa0^2) and is reached at W t = pi/2.
    """
    w = params.rabi
    return (params.kappa0 / w) ** 2


def _reduce_phase(phase: float) -> float:
    """phase mod 2 pi in [0, 2 pi): % alone gives 2 pi for phases in about [-4.4e-16, 0)."""
    phase %= TWO_PI
    return 0.0 if phase == TWO_PI else phase


@dataclass(frozen=True)
class CouplingSegment:
    """One constant-coupling interval: phase phi (rad) held for a duration (s).

    The phase is stored reduced to [0, 2*pi).  Both must be finite and
    durations nonnegative, as _segment_pair checks them; zero-duration
    segments are legal and act as the identity.
    """

    phase: float
    duration: float

    def __post_init__(self) -> None:
        phase, duration = _segment_pair(float(self.phase), float(self.duration))
        object.__setattr__(self, "phase", phase)
        object.__setattr__(self, "duration", duration)


@dataclass(frozen=True)
class Protocol:
    """An ordered, nonempty sequence of coupling segments.

    Its one timeline is ends, the running sums of the durations from 0.0:
    total_duration and every start, switch and boundary time read it."""

    segments: tuple[CouplingSegment, ...]
    ends: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a protocol needs at least one segment")
        ends, total = [], 0.0
        for s in segments:
            if not isinstance(s, CouplingSegment):
                raise TypeError("protocol segments must be CouplingSegment")
            total += s.duration
            ends.append(total)
        # Segments that each are finite can overflow the total.
        _finite(total, "protocol total duration")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "ends", tuple(ends))

    @classmethod
    def from_pairs(cls, pairs) -> "Protocol":
        """Build from an iterable of (phase, duration) pairs."""
        return cls(tuple(CouplingSegment(p, d) for p, d in pairs))

    @property
    def total_duration(self) -> float:
        return self.ends[-1]

    @property
    def phases(self) -> tuple[float, ...]:
        return tuple(s.phase for s in self.segments)

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(s.duration for s in self.segments)


def remap_phases(protocol: Protocol, shift: float) -> Protocol:
    """Same durations with every phase phi replaced by phi - shift.

    Re-driving a protocol with all phases offset multiplies the
    off-diagonal element of its propagator by exp(-i shift).
    """
    return Protocol(tuple(CouplingSegment(s.phase - shift, s.duration) for s in protocol.segments))


@dataclass(frozen=True)
class ModeState:
    """Complex amplitude pair (a1, a2), or columns of pairs for the kernel
    and geometry.to_bloch."""

    a1: complex
    a2: complex

    def __post_init__(self) -> None:
        if not isinstance(self.a1, np.ndarray):
            object.__setattr__(self, "a1", complex(self.a1))
            object.__setattr__(self, "a2", complex(self.a2))

    @classmethod
    def mode1(cls) -> "ModeState":
        return cls(1.0 + 0.0j, 0.0j)

    @classmethod
    def mode2(cls) -> "ModeState":
        return cls(0.0j, 1.0 + 0.0j)

    @property
    def norm(self) -> float:
        n2 = _abs2(self.a1) + _abs2(self.a2)  # sqrt rounds correctly in numpy and math alike
        return np.sqrt(n2) if isinstance(n2, np.ndarray) else math.sqrt(n2)

    @property
    def transfer(self) -> float:
        """Population of mode 2, |a2|^2."""
        return _abs2(self.a2)

    def normalized(self) -> "ModeState":
        """The state over its norm, one case or columns; a zero state, or a
        zero column entry, raises a ValueError.  a / n divides by n + 0j:
        CPython's quotient adds a zero product to each part, so a column
        entry is its case's a / n bit for bit."""
        n = self.norm
        if not _every(n != 0.0):
            raise ValueError("cannot normalize the zero state")
        r1, i1, r2, i2 = self.a1.real, self.a1.imag, self.a2.real, self.a2.imag
        parts = (r1 + i1 * 0.0) / n, (i1 - r1 * 0.0) / n, (r2 + i2 * 0.0) / n, (i2 - r2 * 0.0) / n
        return ModeState(*_complexes(parts))


@dataclass(frozen=True)
class TransferMatrix:
    """SU(2)-form propagator [[d, o], [-conj(o), conj(d)]], or columns of
    them for the kernel: d and o complex columns of one shape.

    Unitarity is equivalent to |d|^2 + |o|^2 = 1; construction does not
    enforce it so that intermediate algebra stays cheap, but every
    propagator built by this module satisfies it to machine precision.
    """

    d: complex
    o: complex

    def __post_init__(self) -> None:
        # Two exact complexes, what the kernel makes of a row, need nothing.
        if type(self.d) is complex and type(self.o) is complex or isinstance(self.d, np.ndarray):
            return
        object.__setattr__(self, "d", complex(self.d))
        object.__setattr__(self, "o", complex(self.o))

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1.0 + 0.0j, 0.0j)

    @property
    def unitarity_defect(self) -> float:
        """| |d|^2 + |o|^2 - 1 |: a float, or an array for columns."""
        defect = _unitarity_defect(self._row)
        return defect if isinstance(self.d, np.ndarray) else float(defect)

    @property
    def transfer(self) -> float:
        """|a2|^2 that results from the input (1, 0)."""
        return _abs2(self.o)

    @property
    def _row(self) -> tuple[float, float, float, float]:
        return self.d.real, self.d.imag, self.o.real, self.o.imag

    def apply(self, state: ModeState) -> ModeState:
        """The state this matrix makes of state; columns if either is."""
        return ModeState(*_complexes(_apply(self._row, state.a1, state.a2)))

    def as_array(self) -> np.ndarray:
        """[[d, o], [-conj(o), conj(d)]], or a (..., 2, 2) stack for columns."""
        m = np.array([[self.d, self.o], [-self.o.conjugate(), self.d.conjugate()]], dtype=complex)
        return np.moveaxis(m, (0, 1), (-2, -1)) if m.ndim > 2 else m


def _turn(phase: float) -> complex:
    """exp(i phase), the phase factor _segment takes."""
    return cmath.exp(1j * phase)


def _complexes(parts):
    """(a, b) of parts (a.real, a.imag, b.real, b.imag), exactly: complexes, or
    complex columns of one shape when b's parts are columns (a's may be floats)."""
    ar, ai, br, bi = parts
    if isinstance(br, float):
        return complex(ar, ai), complex(br, bi)
    a = np.empty(np.broadcast_shapes(*map(np.shape, parts)), complex)
    b = np.empty_like(a)
    a.real, a.imag, b.real, b.imag = parts
    return a, b


def _matrix(row) -> TransferMatrix:
    """TransferMatrix of a row, one case or columns."""
    return TransferMatrix(*_complexes(row))


def segment_propagator(params, segment) -> TransferMatrix:
    """Closed-form propagator for one constant-coupling segment, of a
    CouplerParams or (delta, kappa0) and a CouplingSegment or (phase,
    duration): pairs of floats, or of columns that broadcast together,
    which give a column TransferMatrix, bit for bit each case alone.  Pairs
    are checked (and the phase reduced) by the _coupler and _segment_pair
    that CouplerParams and CouplingSegment run, a bad entry named in a
    ValueError."""
    delta, kappa0, w = _coupler(params)
    if isinstance(segment, CouplingSegment):
        turn, duration = _turn(segment.phase), segment.duration
    else:
        phase, duration = _segment_pair(*segment)
        turn = _each(_turn, phase, dtype=complex)
    return _matrix(_segment(delta, kappa0, w, turn, duration))


def _segment_pair(phase, duration):
    """(phase reduced to [0, 2 pi), duration) of floats or columns, checked
    entry by entry as CouplingSegment and the pair form take them: both
    finite, the duration >= 0, a bad field named in a ValueError."""
    phase = _each(_reduce_phase, _finite(phase, "segment phase"))
    if not _every(_finite(duration, "segment duration") >= 0.0):
        raise ValueError(f"segment duration = {duration!r} must be >= 0")
    return phase, duration


def compose(later: TransferMatrix, earlier: TransferMatrix) -> TransferMatrix:
    """Product later @ earlier, staying in (d, o) form, which is closed under
    it: d = d2*d1 - o2*conj(o1), o = d2*o1 + o2*conj(d1)."""
    return _matrix(_compose(later._row, earlier._row))


def protocol_propagator(params: CouplerParams, protocol: Protocol) -> TransferMatrix:
    """Last row of prefix_products: the segments' product, first acting first."""
    return _matrix(prefix_products(params, protocol)[-1].tolist())


def cmul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) as CPython's complex product forms it (a
    float x enters as (x, 0.0)); numpy's complex multiply can differ in a bit."""
    return ar * br - ai * bi, ar * bi + ai * br


def abs2(re, im):
    """|re + i im|^2 as CPython's abs(z) ** 2 computes it (hypot, then pow)."""
    return np.float_power(np.hypot(re, im), 2.0)


def _abs2(z):
    """abs(z) ** 2 of a complex, and abs2 of the parts for complex columns."""
    return abs2(z.real, z.imag) if isinstance(z, np.ndarray) else abs(z) ** 2


def _coupler(params):
    """(delta, kappa0, W) of a CouplerParams, or of a (delta, kappa0) pair of floats or
    columns that broadcast, checked entry by entry: finite, kappa0 >= 0, W normal."""
    if isinstance(params, CouplerParams):
        return params.delta, params.kappa0, params.rabi
    delta, kappa0 = params
    w = _each(math.hypot, _finite(delta, "delta"), _finite(kappa0, "kappa0"))
    if not _every(kappa0 >= 0.0):
        raise ValueError(f"coupling magnitude kappa0 must be nonnegative, not {kappa0!r}")
    # Every duration is a phase over W: W must have a usable reciprocal.
    if not _every((sys.float_info.min <= w) & (w < math.inf)):
        raise ValueError(f"W = hypot(delta, kappa0) = {w!r} must be a normal finite float")
    return delta, kappa0, w


def _finite(value, name: str):
    """value, a float or a column, if each entry is finite; else a ValueError naming it."""
    if not _every(abs(value) < math.inf):
        raise ValueError(f"{name} = {value!r} must be finite")
    return value


def _every(mask) -> bool:
    """Whether a guard holds in every entry: mask.all() of a column, the bool
    itself of one case (numpy's all costs a float case about 1 us).  A test
    for any bad entry is the negated _every of a comparison for the good
    ones, not of ~mask: ~True is -2."""
    return mask.all() if isinstance(mask, np.ndarray) else mask


def _each(fn, *args, dtype=float):
    """fn of floats, or of columns and floats broadcast together as numpy
    broadcasts them (a float beside a column, (n, 1) against (1, m)),
    entry by entry on Python floats, as the scalar path takes them: numpy
    may vectorize its own sin, cos, hypot and atan2, which can differ in a
    bit.  A dtype with a shape, such as (complex, (2, 2)), adds that shape
    after the columns'."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            break
    else:
        return fn(*args)
    columns = np.broadcast_arrays(*args)
    values = np.fromiter(map(fn, *(c.ravel().tolist() for c in columns)), dtype, columns[0].size)
    return values.reshape(columns[0].shape + values.shape[1:])


def _segment(delta, kappa0, w, turn, duration):
    """Row of a segment of rate w = W at turn = exp(i phi), held for
    duration: floats, or columns that broadcast together, with sin and cos
    from math, entry by entry (_each).  -1j * (kappa0 / W) enters as
    (0.0, -kappa0 / W), what CPython makes of it."""
    wt = w * duration
    if isinstance(wt, np.ndarray):
        s, c = _each(math.sin, wt), _each(math.cos, wt)
    else:  # _each's float case, inline: the scalar paths run it per segment.
        s, c = math.sin(wt), math.cos(wt)
    o_r, oi = cmul(*cmul(0.0, -(kappa0 / w), s, 0.0), turn.real, turn.imag)
    return c, -(delta / w) * s, o_r, oi


def _compose(later, earlier):
    """compose on rows: the row of later @ earlier."""
    d2r, d2i, o2r, o2i = later
    d1r, d1i, o1r, o1i = earlier
    xr, xi = cmul(d2r, d2i, d1r, d1i)
    yr, yi = cmul(o2r, o2i, o1r, -o1i)
    ur, ui = cmul(d2r, d2i, o1r, o1i)
    vr, vi = cmul(o2r, o2i, d1r, -d1i)
    return xr - yr, xi - yi, ur + vr, ui + vi


def _apply(row, a1: complex, a2: complex):
    """Parts of (d*a1 + o*a2, -conj(o)*a1 + conj(d)*a2), real then imaginary."""
    dr, di, o_r, oi = row
    xr, xi = cmul(dr, di, a1.real, a1.imag)
    yr, yi = cmul(o_r, oi, a2.real, a2.imag)
    zr, zi = cmul(-o_r, oi, a1.real, a1.imag)
    vr, vi = cmul(dr, -di, a2.real, a2.imag)
    return xr + yr, xi + yi, zr + vr, zi + vi


def _unitarity_defect(row):
    """| |d|^2 + |o|^2 - 1 | of a row, as CPython's abs(d) ** 2 + abs(o) ** 2 forms it."""
    dr, di, o_r, oi = row
    return abs(abs2(dr, di) + abs2(o_r, oi) - 1.0)


def prefix_products(params: CouplerParams, protocol: Protocol) -> np.ndarray:
    """Rows (d.real, d.imag, o.real, o.imag): row j the product of the first
    j segments, by _segment and _compose, one segment at a time."""
    delta, kappa0, w = params.delta, params.kappa0, params.rabi
    prefix = [(1.0, 0.0, 0.0, 0.0)]
    for seg in protocol.segments:
        row = _segment(delta, kappa0, w, _turn(seg.phase), seg.duration)
        prefix.append(_compose(row, prefix[-1]))
    return np.array(prefix)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states as columns: times t, complex amplitude arrays a1, a2."""

    t: np.ndarray
    a1: np.ndarray
    a2: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    @property
    def final(self) -> ModeState:
        return ModeState(self.a1[-1], self.a2[-1])


def propagate(
    params: CouplerParams,
    protocol: Protocol,
    initial: ModeState,
    sample_count: int = 256,
) -> Trajectory:
    """The state at sample_count + 1 uniform times over [0, total_duration].

    Sample k is at total_duration * k / sample_count, except the last,
    which is protocol.ends[-1] itself: the division can miss it by an ulp.
    protocol.ends is the one timeline: the sample at t has passed exactly
    the segments whose end is at or before t.  So a sample on a switch
    time is the product of the segments before it, and one at the end
    (every sample of a zero-duration protocol) is protocol_propagator's
    product of all.  Any other sample composes the segment that holds t,
    run from its start (the previous end, or 0.0) for t - start, onto the
    product of the segments passed, a row of prefix_products.  All
    samples go through the one kernel (_segment, _compose, _apply) at
    once, so each is bit for bit segment_propagator, compose and apply.
    A non-finite initial amplitude is named in a ValueError.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    _finite(initial.a1, "initial a1")
    _finite(initial.a2, "initial a2")
    *starts, total = 0.0, *protocol.ends
    t = total * np.arange(sample_count + 1) / sample_count
    t[-1] = total
    # Per sample: the count of segments whose end is at or before t, their
    # product (prefix row whole; row n: all), and the segment that holds t,
    # with its start and phase factor.
    n = len(protocol.segments)
    turns = np.array([_turn(phase) for phase in protocol.phases])
    whole = np.searchsorted(protocol.ends, t, side="right")
    prefix = prefix_products(params, protocol)[whole].T
    piece = np.minimum(whole, n - 1)
    start = np.array(starts)[piece]
    partial = (whole < n) & (t > start)
    piece_row = _segment(params.delta, params.kappa0, params.rabi, turns[piece], t - start)
    row = np.where(partial, _compose(piece_row, prefix), prefix)
    return Trajectory(t, *_complexes(_apply(row, initial.a1, initial.a2)))
