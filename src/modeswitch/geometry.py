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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CouplerParams, ModeState, Trajectory, abs2, cmul

# Absolute angular tolerance (rad): a turn this short of a full circle is
# rounding of a leg that starts on its target (leg_time).
ANGLE_TOL = 1e-9
# Slack on |n| = 1 for axes: absorbs the rounding of components computed
# from trigonometric functions or divisions.
UNIT_TOL = 1e-9


@dataclass(frozen=True)
class BlochVector:
    """One point (u, v, w), or the columns of a trajectory's points."""

    u: float
    v: float
    w: float

    def __post_init__(self) -> None:
        if not isinstance(self.u, np.ndarray):
            object.__setattr__(self, "u", float(self.u))
            object.__setattr__(self, "v", float(self.v))
            object.__setattr__(self, "w", float(self.w))

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))

    def as_array(self) -> np.ndarray:
        return np.array([self.u, self.v, self.w], dtype=float)

    @property
    def norm(self) -> float:
        return math.sqrt(self.u**2 + self.v**2 + self.w**2)


NORTH = BlochVector(0.0, 0.0, 1.0)
SOUTH = BlochVector(0.0, 0.0, -1.0)


def to_bloch(state: ModeState | Trajectory) -> BlochVector:
    """Bloch vector of a state, or the columns of a Trajectory's vectors.

    The input is normalized first; the zero state is rejected.  The
    arithmetic is CPython's complex arithmetic on real parts (cmul,
    abs2), so a column entry equals its sample's vector bit for bit.
    """
    r1, i1, r2, i2 = state.a1.real, state.a1.imag, state.a2.real, state.a2.imag
    n = np.sqrt(abs2(r1, i1) + abs2(r2, i2))
    if (n == 0.0).any():
        raise ValueError("cannot normalize the zero state")
    # a / n divides by n + 0j: CPython's quotient adds a zero product to each part.
    r1, i1 = (r1 + i1 * 0.0) / n, (i1 - r1 * 0.0) / n
    r2, i2 = (r2 + i2 * 0.0) / n, (i2 - r2 * 0.0) / n
    cross_r, cross_i = cmul(r1, i1, r2, -i2)
    return BlochVector(2.0 * cross_r, 2.0 * cross_i, abs2(r1, i1) - abs2(r2, i2))


@dataclass(frozen=True)
class RotationAxis:
    """Unit precession axis together with the rate W (rad/s)."""

    n: tuple[float, float, float]
    omega: float

    def __post_init__(self) -> None:
        n = tuple(float(x) for x in self.n)
        if len(n) != 3:
            raise ValueError("axis must have three components")
        nn = math.sqrt(sum(x * x for x in n))
        if abs(nn - 1.0) > UNIT_TOL:
            raise ValueError("axis must be a unit vector")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "omega", float(self.omega))
        if self.omega <= 0.0:
            raise ValueError("precession rate must be positive")

    def as_array(self) -> np.ndarray:
        return np.array(self.n, dtype=float)


def rotation_axis(params: CouplerParams, phi: float) -> RotationAxis:
    """Precession axis for coupling phase phi."""
    w = params.rabi
    return RotationAxis(
        (
            params.kappa0 * math.cos(phi) / w,
            params.kappa0 * math.sin(phi) / w,
            params.delta / w,
        ),
        w,
    )


def tilt_angle(params: CouplerParams) -> float:
    """Axis tilt psi = arctan(delta / kappa0) out of the equatorial plane.

    Requires kappa0 > 0; psi is signed like delta and lies in (-pi/2, pi/2).
    """
    if params.kappa0 == 0.0:
        raise ValueError("tilt angle undefined for kappa0 = 0")
    return math.atan2(params.delta, params.kappa0)


def _rotate(n: np.ndarray, p: np.ndarray, angle: float) -> np.ndarray:
    """Right-handed rotation of p about unit axis n by angle."""
    c = math.cos(angle)
    s = math.sin(angle)
    return p * c + np.cross(n, p) * s + n * np.dot(n, p) * (1.0 - c)


def bloch_precess(axis: RotationAxis, start: BlochVector, t: float) -> BlochVector:
    """Advance a Bloch vector by time t about the given axis.

    The physical sense is a rotation by -2*omega*t in the right-hand
    convention about n, matching the amplitude-level propagator.
    """
    n = axis.as_array()
    p = start.as_array()
    return BlochVector.from_array(_rotate(n, p, -2.0 * axis.omega * t))


def precession_leg(axis: RotationAxis, start: BlochVector, along) -> tuple[float, float, float]:
    """(c, r, chi) with along . p(s) = c + r cos(2 W s + chi).

    p(s) is start precessed for time s about axis, and along is any
    3-vector: (0, 0, 1) follows the Bloch w, another axis the height
    along that axis.  r is 0 when along is parallel to axis or start
    sits on it.
    """
    n = axis.as_array()
    p = start.as_array()
    a = np.asarray(along, dtype=float)
    height = float(np.dot(n, p))
    perp = p - height * n
    # Precession turns perp by -2 W s, so r cos(chi) = a . perp and
    # r sin(chi) = a . (n x perp).
    r_cos = float(np.dot(a, perp))
    r_sin = float(np.dot(a, np.cross(n, perp)))
    return height * float(np.dot(a, n)), math.hypot(r_cos, r_sin), math.atan2(r_sin, r_cos)


def leg_time(axis: RotationAxis, chi: float, angle: float) -> float:
    """Earliest s >= 0 at which 2 W s + chi reaches angle (mod 2 pi).

    A turn that falls short of a full circle by at most ANGLE_TOL is
    rounding of a leg that starts there, and takes no time.
    """
    turn = (angle - chi) % (2.0 * math.pi)
    if turn >= 2.0 * math.pi - ANGLE_TOL:
        turn = 0.0
    return turn / (2.0 * axis.omega)


def cone_floor(params: CouplerParams) -> float:
    """Lowest w reachable from the north pole without switching.

    Precession about a tilted axis keeps the start circle, whose lowest
    point has w = -cos(2 psi).  This is the single-segment floor matching
    the static transfer bound kappa0^2 / W^2.
    """
    psi = tilt_angle(params)
    return -math.cos(2.0 * psi)
