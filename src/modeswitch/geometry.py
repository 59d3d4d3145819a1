"""Bloch-sphere picture of the two-mode dynamics.

A normalized amplitude pair maps to the unit vector

    u = 2 Re(a1 conj(a2)),  v = 2 Im(a1 conj(a2)),  w = |a1|^2 - |a2|^2,

so mode 1 sits at the north pole (0, 0, 1) and mode 2 at the south pole.
A constant-coupling segment with phase phi precesses this vector rigidly
about the unit axis

    n = (kappa0 cos phi, kappa0 sin phi, delta) / W

through the angle -2 W t in the right-hand sense about n (equivalently
2 W t left-handed).  The sense matters: it is fixed by the amplitude map
above and is verified against it to 1e-10 in the test suite.

Trajectories under one segment are therefore circles on the sphere.
Along any fixed direction the height of a precessing point is one
sinusoid in time (precession_leg), so the time at which a leg reaches a
given height is one acos (leg_time).

Like the SU(2) kernel in modeswitch.dynamics, the algebra takes one case
or numpy columns of cases, bit for bit alike: a 3-vector is any three
floats or equal-shape columns (a tuple, a BlochVector, a (3, ...) array),
summed elementwise, never in numpy's dot kernel, and cos, sin, hypot,
atan2 and % are math's, entry by entry (_each).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CouplerParams, ModeState, Trajectory, _coupler, _each, _every, _finite, _reduce_phase, abs2, cmul
)

# Absolute angular tolerance (rad): a turn this short of a full circle is
# rounding of a leg that starts on its target (leg_time).
ANGLE_TOL = 1e-9
# Slack on |n| = 1 for axes: absorbs the rounding of components computed
# from trigonometric functions or divisions.
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class BlochVector:
    """One point (u, v, w), or columns of points; iterating gives (u, v, w)."""

    u: float
    v: float
    w: float

    def __post_init__(self) -> None:
        if not isinstance(self.u, np.ndarray):
            object.__setattr__(self, "u", float(self.u))
            object.__setattr__(self, "v", float(self.v))
            object.__setattr__(self, "w", float(self.w))

    def __iter__(self):
        return iter((self.u, self.v, self.w))

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w], dtype=float)

    @property
    def norm(self) -> float:
        """|p|, each square by C pow as a float's ** takes it."""
        return np.sqrt(sum(np.float_power(x, 2.0) for x in self))


NORTH = BlochVector(0.0, 0.0, 1.0)
SOUTH = BlochVector(0.0, 0.0, -1.0)


def to_bloch(state: ModeState | Trajectory) -> BlochVector:
    """Bloch vector of a state, or the columns of a Trajectory's vectors.

    The input is normalized first (ModeState.normalized); the zero state
    is rejected.  The arithmetic is CPython's complex arithmetic on real
    parts (cmul, abs2), so a column entry equals its sample's vector bit
    for bit.
    """
    state = ModeState(state.a1, state.a2).normalized()
    r1, i1, r2, i2 = state.a1.real, state.a1.imag, state.a2.real, state.a2.imag
    cross_r, cross_i = cmul(r1, i1, r2, -i2)
    return BlochVector(2.0 * cross_r, 2.0 * cross_i, abs2(r1, i1) - abs2(r2, i2))


@dataclass(frozen=True)
class RotationAxis:
    """Unit precession axis together with the rate W (rad/s), or columns of
    them: a column in any field broadcasts n's three components and omega
    to one shape."""

    n: tuple[float, float, float]
    omega: float

    def __post_init__(self) -> None:
        fields = (*self.n, self.omega)
        if len(fields) != 4:
            raise ValueError("axis must have three components")
        columns = any(isinstance(x, np.ndarray) for x in fields)
        *n, omega = np.broadcast_arrays(*fields) if columns else map(float, fields)
        n = tuple(n)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega", omega)
        # Both guards must hold in every entry, and a NaN fails them.
        if not _every(abs(_each(math.sqrt, _dot(n, n)) - 1.0) <= UNIT_TOL):
            raise ValueError("axis must be a unit vector")
        if not _every(self.omega > 0.0):
            raise ValueError("precession rate must be positive")

    def as_array(self) -> np.ndarray:
        return np.array(self.n, dtype=float)


def rotation_axis(params, phi) -> RotationAxis:
    """Precession axis for coupling phase phi, which must be finite: of a
    CouplerParams and a float, or of a (delta, kappa0) pair and phi, columns
    that broadcast, W by math.hypot as CouplerParams.rabi takes it."""
    delta, kappa0, w = _coupler(params)
    _finite(phi, "coupling phase phi")
    return RotationAxis(
        (kappa0 * _each(math.cos, phi) / w, kappa0 * _each(math.sin, phi) / w, delta / w), w
    )


def tilt_angle(params: CouplerParams) -> float:
    """Axis tilt psi = arctan(delta / kappa0) out of the equatorial plane.

    Requires kappa0 > 0; psi is signed like delta and lies in (-pi/2, pi/2).
    """
    if params.kappa0 == 0.0:
        raise ValueError("tilt angle undefined for kappa0 = 0")
    return math.atan2(params.delta, params.kappa0)


def _cross(a, b):
    """a x b for two 3-vectors, with np.cross's products and differences.

    The same arithmetic on floats, so it equals np.cross bit for bit
    without np.cross's axis handling, which took most of its 24 us a call
    against 1.4 us for this (2-vCPU host, numpy 2.4).
    """
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0


def _dot(a, b):
    """a . b for two 3-vectors, the left-to-right sum a0 b0 + a1 b1 + a2 b2.

    np.dot rounds in numpy's dot kernel, which may differ by numpy build
    and CPU, and which a column of such products cannot replay."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return a0 * b0 + a1 * b1 + a2 * b2


def _rotate(n, p, angle):
    """Right-handed rotation of p about unit axis n by angle, as a tuple:
    p cos + (n x p) sin + n (n . p)(1 - cos)."""
    c = _each(math.cos, angle)
    s = _each(math.sin, angle)
    d = _dot(n, p)
    return tuple(pk * c + xk * s + nk * d * (1.0 - c) for pk, xk, nk in zip(p, _cross(n, p), n))


def bloch_precess(axis: RotationAxis, start: BlochVector, t: float) -> BlochVector:
    """Advance a Bloch vector by time t about the given axis.

    The physical sense is a rotation by -2*omega*t in the right-hand
    convention about n, matching the amplitude-level propagator.  A
    non-finite t is named in a ValueError.
    """
    return BlochVector(*_rotate(axis.n, start, -2.0 * axis.omega * _finite(t, "t")))


def precession_leg(axis: RotationAxis, start: BlochVector, along) -> tuple[float, float, float]:
    """(c, r, chi) with along . p(s) = c + r cos(2 W s + chi).

    p(s) is start precessed for time s about axis, and along is any
    3-vector: (0, 0, 1) follows the Bloch w, another axis the height
    along that axis.  r is 0 when along is parallel to axis or start
    sits on it.
    """
    n = axis.n
    height = _dot(n, start)
    perp = tuple(pk - height * nk for pk, nk in zip(start, n))
    # Precession turns perp by -2 W s, so r cos(chi) = a . perp and
    # r sin(chi) = a . (n x perp).
    r_cos = _dot(along, perp)
    r_sin = _dot(along, _cross(n, perp))
    return height * _dot(along, n), _each(math.hypot, r_cos, r_sin), _each(math.atan2, r_sin, r_cos)


def leg_time(axis: RotationAxis, chi: float, angle: float) -> float:
    """Earliest s >= 0 at which 2 W s + chi reaches angle (mod 2 pi).

    A turn that falls short of a full circle by at most ANGLE_TOL is
    rounding of a leg that starts there, and takes no time.  A non-finite
    chi or angle raises a ValueError naming it.
    """
    turn = _each(_reduce_phase, _finite(angle, "angle") - _finite(chi, "chi"))
    # Multiplying by the bool keeps the turn, or makes it 0.0.
    return turn * (turn < 2.0 * math.pi - ANGLE_TOL) / (2.0 * axis.omega)


def cone_floor(params: CouplerParams) -> float:
    """Lowest w reachable from the north pole without switching.

    Precession about a tilted axis keeps the start circle, whose lowest
    point has w = -cos(2 psi).  This is the single-segment floor matching
    the static transfer bound kappa0^2 / W^2.
    """
    psi = tilt_angle(params)
    return -math.cos(2.0 * psi)
