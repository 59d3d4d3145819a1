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

Everything in this module is exact up to floating point.  propagate
computes all samples at once, bit for bit the scalar propagators (cmul),
from the rows of prefix_products, as protocol_propagator and dive_plan do.
The numerical integrator that cross-checks them is modeswitch.oracle.
"""

from __future__ import annotations

import cmath
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


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
        if not math.isfinite(self.delta) or not math.isfinite(self.kappa0):
            raise ValueError("coupler parameters must be finite")
        if self.kappa0 < 0.0:
            raise ValueError("coupling magnitude kappa0 must be nonnegative")
        # Every duration is a phase over W: a W that overflows, vanishes or
        # is subnormal has no usable reciprocal.
        if not sys.float_info.min <= self.rabi < math.inf:
            raise ValueError(
                f"W = hypot(delta, kappa0) = {self.rabi!r} must be a normal finite float"
            )

    @property
    def rabi(self) -> float:
        """Generalized flopping rate W = sqrt(delta^2 + kappa0^2)."""
        return math.hypot(self.delta, self.kappa0)

    @property
    def ratio(self) -> float:
        """Detuning-to-coupling ratio |delta| / kappa0.  Requires kappa0 > 0."""
        if self.kappa0 == 0.0:
            raise ValueError("ratio undefined for kappa0 = 0")
        return abs(self.delta) / self.kappa0


def static_max_transfer(params: CouplerParams) -> float:
    """Peak of |a2(t)|^2 from (1, 0) under constant coupling.

    The single-segment transfer is (kappa0/W)^2 * sin^2(W t), so the peak
    equals kappa0^2 / (delta^2 + kappa0^2) and is reached at W t = pi/2.
    """
    w = params.rabi
    return (params.kappa0 / w) ** 2


@dataclass(frozen=True)
class CouplingSegment:
    """One constant-coupling interval: phase phi (rad) held for a duration (s).

    The phase is stored reduced to [0, 2*pi).  Durations must be
    nonnegative; zero-duration segments are legal and act as the identity.
    """

    phase: float
    duration: float

    def __post_init__(self) -> None:
        phase = float(self.phase)
        duration = float(self.duration)
        if not math.isfinite(phase):
            raise ValueError("segment phase must be finite")
        if not math.isfinite(duration) or duration < 0.0:
            raise ValueError("segment duration must be finite and >= 0")
        object.__setattr__(self, "phase", phase % TWO_PI)
        object.__setattr__(self, "duration", duration)


@dataclass(frozen=True)
class Protocol:
    """An ordered, nonempty sequence of coupling segments.

    Its one timeline is ends, the running sums of the durations from 0.0:
    total_duration and every start, switch and boundary time read it."""

    segments: tuple[CouplingSegment, ...]

    def __post_init__(self) -> None:
        segments = tuple(self.segments)
        if not segments:
            raise ValueError("a protocol needs at least one segment")
        if not all(isinstance(s, CouplingSegment) for s in segments):
            raise TypeError("protocol segments must be CouplingSegment")
        object.__setattr__(self, "segments", segments)

    @classmethod
    def from_pairs(cls, pairs) -> "Protocol":
        """Build from an iterable of (phase, duration) pairs."""
        return cls(tuple(CouplingSegment(p, d) for p, d in pairs))

    @property
    def ends(self) -> tuple[float, ...]:
        return tuple(itertools.accumulate(self.durations, initial=0.0))[1:]

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
    """Complex amplitude pair (a1, a2)."""

    a1: complex
    a2: complex

    def __post_init__(self) -> None:
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
        return math.sqrt(abs(self.a1) ** 2 + abs(self.a2) ** 2)

    @property
    def transfer(self) -> float:
        """Population of mode 2, |a2|^2."""
        return abs(self.a2) ** 2

    def normalized(self) -> "ModeState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return ModeState(self.a1 / n, self.a2 / n)


@dataclass(frozen=True)
class TransferMatrix:
    """SU(2)-form propagator [[d, o], [-conj(o), conj(d)]].

    Unitarity is equivalent to |d|^2 + |o|^2 = 1; construction does not
    enforce it so that intermediate algebra stays cheap, but every
    propagator built by this module satisfies it to machine precision.
    """

    d: complex
    o: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "d", complex(self.d))
        object.__setattr__(self, "o", complex(self.o))

    @classmethod
    def identity(cls) -> "TransferMatrix":
        return cls(1.0 + 0.0j, 0.0j)

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.d) ** 2 + abs(self.o) ** 2 - 1.0)

    @property
    def transfer(self) -> float:
        """|a2|^2 that results from the input (1, 0)."""
        return abs(self.o) ** 2

    def apply(self, state: ModeState) -> ModeState:
        return ModeState(
            self.d * state.a1 + self.o * state.a2,
            -self.o.conjugate() * state.a1 + self.d.conjugate() * state.a2,
        )

    def as_array(self):
        return np.array(
            [[self.d, self.o], [-self.o.conjugate(), self.d.conjugate()]],
            dtype=complex,
        )


def segment_propagator(params: CouplerParams, segment: CouplingSegment) -> TransferMatrix:
    """Closed-form propagator for one constant-coupling segment."""
    w = params.rabi
    wt = w * segment.duration
    c = math.cos(wt)
    s = math.sin(wt)
    d = complex(c, -(params.delta / w) * s)
    o = -1j * (params.kappa0 / w) * s * cmath.exp(1j * segment.phase)
    return TransferMatrix(d, o)


def compose(later: TransferMatrix, earlier: TransferMatrix) -> TransferMatrix:
    """Product later @ earlier, staying in (d, o) form.

    The SU(2) form is closed under multiplication:
        d = d2*d1 - o2*conj(o1)
        o = d2*o1 + o2*conj(d1)
    """
    return TransferMatrix(
        later.d * earlier.d - later.o * earlier.o.conjugate(),
        later.d * earlier.o + later.o * earlier.d.conjugate(),
    )


def protocol_propagator(params: CouplerParams, protocol: Protocol) -> TransferMatrix:
    """Last row of prefix_products: the segments' product, first acting first."""
    return TransferMatrix(*prefix_products(params, protocol)[-1].view(complex))


def cmul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi) as CPython's complex product forms it (a
    float x enters as (x, 0.0)); numpy's complex multiply can differ in a bit."""
    return ar * br - ai * bi, ar * bi + ai * br


def abs2(re, im):
    """|re + i im|^2 as CPython's abs(z) ** 2 computes it (hypot, then pow)."""
    return np.float_power(np.hypot(re, im), 2.0)


def prefix_products(params: CouplerParams, protocol: Protocol) -> np.ndarray:
    """Rows (d.real, d.imag, o.real, o.imag): row j the product of the first
    j segments, by segment_propagator and compose, one segment at a time."""
    prefix = [(1.0, 0.0, 0.0, 0.0)]
    acc = TransferMatrix.identity()
    for seg in protocol.segments:
        acc = compose(segment_propagator(params, seg), acc)
        prefix.append((acc.d.real, acc.d.imag, acc.o.real, acc.o.imag))
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


def _whole_from(start: float, duration: float) -> float:
    """Earliest float t with t > start and t - start >= duration."""
    t = max(start + duration, math.nextafter(start, math.inf))
    while t - start < duration:
        t = math.nextafter(t, math.inf)
    while (below := math.nextafter(t, -math.inf)) > start and below - start >= duration:
        t = below
    return t


def propagate(
    params: CouplerParams,
    protocol: Protocol,
    initial: ModeState,
    sample_count: int = 256,
) -> Trajectory:
    """The state at sample_count + 1 uniform times over [0, total_duration].

    A zero-duration protocol yields constant samples.  A sample at or past
    the end takes the product of all segments, as protocol_propagator
    does.  Any other composes its partial segment onto the product of the
    segments whole at t (t > start and t - start >= duration, the start
    0.0 or the previous entry of protocol.ends), a row of prefix_products.
    The partial segments, compose and apply run on all samples at once in
    cmul's arithmetic: each equals segment_propagator, compose and apply.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    *starts, total = 0.0, *protocol.ends
    t = total * np.arange(sample_count + 1) / sample_count
    # Per segment j: the product before it (prefix row j; row n: all), its
    # start, the earliest t at which it and all before it are whole, and
    # the phase factor of a partial piece (CouplingSegment reduces again).
    n = len(protocol.segments)
    whole_from = np.maximum.accumulate(list(map(_whole_from, starts, protocol.durations)))
    turns = np.array([cmath.exp(1j * (seg.phase % TWO_PI)) for seg in protocol.segments])
    whole = np.searchsorted(whole_from, t, side="right")
    whole[t >= total] = n
    d1r, d1i, o1r, o1i = prefix_products(params, protocol)[whole].T
    piece = np.minimum(whole, n - 1)
    start, turn = np.array(starts)[piece], turns[piece]
    partial = (whole < n) & (t > start)
    # segment_propagator of the pieces t - start, composed onto the prefix.
    # Its sin and cos come from math: numpy builds may vectorize their own.
    w = params.rabi
    wt = (w * (t - start)).tolist()
    s = np.fromiter(map(math.sin, wt), float, len(wt))
    d2r, d2i = np.fromiter(map(math.cos, wt), float, len(wt)), -(params.delta / w) * s
    lead = -1j * (params.kappa0 / w)
    o2r, o2i = cmul(*cmul(lead.real, lead.imag, s, 0.0), turn.real, turn.imag)
    xr, xi = cmul(d2r, d2i, d1r, d1i)
    yr, yi = cmul(o2r, o2i, o1r, -o1i)
    dr, di = np.where(partial, (xr - yr, xi - yi), (d1r, d1i))
    xr, xi = cmul(d2r, d2i, o1r, o1i)
    yr, yi = cmul(o2r, o2i, d1r, -d1i)
    o_r, oi = np.where(partial, (xr + yr, xi + yi), (o1r, o1i))
    # TransferMatrix.apply(initial) in cmul's products; each real and
    # imaginary column pair stacks as complex.
    b1r, b1i, b2r, b2i = initial.a1.real, initial.a1.imag, initial.a2.real, initial.a2.imag
    xr, xi = cmul(dr, di, b1r, b1i)
    yr, yi = cmul(o_r, oi, b2r, b2i)
    zr, zi = cmul(-o_r, oi, b1r, b1i)
    vr, vi = cmul(dr, -di, b2r, b2i)
    a1 = np.stack((xr + yr, xi + yi), axis=-1).view(complex)[:, 0]
    a2 = np.stack((zr + vr, zi + vi), axis=-1).view(complex)[:, 0]
    return Trajectory(t, a1, a2)
