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

Everything in this module is scalar and exact up to floating point.  The
numerical integrator that cross-checks these formulas lives in
:mod:`modeswitch.oracle`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

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
        if self.delta == 0.0 and self.kappa0 == 0.0:
            raise ValueError("delta and kappa0 cannot both be zero")

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
    """An ordered, nonempty sequence of coupling segments."""

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
    def total_duration(self) -> float:
        return sum(s.duration for s in self.segments)

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
        import numpy as np

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
    """Ordered product of segment propagators (first segment acts first)."""
    acc = TransferMatrix.identity()
    for seg in protocol.segments:
        acc = compose(segment_propagator(params, seg), acc)
    return acc


def propagate(
    params: CouplerParams,
    protocol: Protocol,
    initial: ModeState,
    sample_count: int = 256,
) -> list[tuple[float, ModeState]]:
    """Sample the state at uniformly spaced times across the protocol.

    Returns sample_count + 1 pairs (t, state) covering [0, total_duration]
    inclusive.  Zero-total-duration protocols yield constant samples.
    One pass over the segments: a sample at or past the end uses
    :func:`protocol_propagator`, so the last state agrees with it bit for
    bit; any other sample composes its partial segment on top of the
    product of the whole segments before it, which grows as t advances.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    total = protocol.total_duration
    segments = protocol.segments
    prefix, elapsed, whole = TransferMatrix.identity(), 0.0, 0
    out: list[tuple[float, ModeState]] = []
    for k in range(sample_count + 1):
        t = total * k / sample_count
        if t >= total:
            m = protocol_propagator(params, protocol)
        else:
            while whole < len(segments) and t > elapsed and t - elapsed >= segments[whole].duration:
                prefix = compose(segment_propagator(params, segments[whole]), prefix)
                elapsed += segments[whole].duration
                whole += 1
            m = prefix
            if whole < len(segments) and t > elapsed:
                partial = CouplingSegment(segments[whole].phase, t - elapsed)
                m = compose(segment_propagator(params, partial), prefix)
        out.append((t, m.apply(initial)))
    return out
