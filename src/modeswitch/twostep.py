"""Two-segment transfer: feasibility criterion, closed forms, solver.

A two-segment protocol holds phase 0 for t1 and then phase phi for t2.
On the Bloch sphere the first segment moves along the circle through the
north pole about axis(0); the second must end on the south pole, so the
switch point has to lie on the circle about axis(phi) through the south
pole.  Those two circles intersect exactly when

    cos(phi) <= 1 - 2 (delta / kappa0)^2,

which is the complete-transfer criterion this module implements.  The
push-pull special case phi = pi admits closed-form durations whenever
|delta| < kappa0.

When the criterion fails, :func:`solve_two_step` still reaches the best
two-segment transfer in closed form: the ceiling cos^2(psi - Theta/2)
built from the axis separation Theta.  :func:`solve_fraction` cuts
either solution at a partial target with one asin or acos.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    CouplerParams,
    CouplingSegment,
    Protocol,
    protocol_propagator,
)
from .geometry import (
    ANGLE_TOL,
    NORTH,
    SOUTH,
    bloch_precess,
    circle_intersection,
    circle_through,
    precession_duration,
    rotation_axis,
    tilt_angle,
)

# Slack applied to the feasibility inequality so exact-boundary cases
# (equality in cos phi) classify as feasible under floating point.
FEASIBILITY_EPS = 1e-12


class InfeasibleTransferError(ValueError):
    """Requested transfer cannot be met; carries the achievable maximum."""

    def __init__(self, message: str, achievable: float):
        super().__init__(message)
        self.achievable = achievable


def two_step_feasible(params: CouplerParams, phi: float) -> bool:
    """Whether two segments (phases 0 and phi) can transfer completely."""
    r = params.ratio
    return math.cos(phi) <= 1.0 - 2.0 * r * r + FEASIBILITY_EPS


def critical_phase(ratio: float) -> float:
    """Smallest phase jump phi_c enabling complete two-segment transfer.

    Defined for 0 <= ratio <= 1 as arccos(1 - 2 ratio^2); above ratio 1
    no phase suffices and a ValueError is raised.
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("critical phase exists only for 0 <= ratio <= 1")
    return math.acos(max(-1.0, 1.0 - 2.0 * ratio * ratio))


def axis_separation(params: CouplerParams, phi: float) -> float:
    """Angle between the phase-0 and phase-phi precession axes.

    The axes are a chord 2 (kappa0 / W) |sin(phi / 2)| apart, so Theta =
    2 asin((kappa0 / W) |sin(phi / 2)|); unlike acos of their dot product
    this keeps full precision as Theta goes to 0.
    """
    half = params.kappa0 / params.rabi * abs(math.sin(phi / 2.0))
    return 2.0 * math.asin(min(1.0, half))


def two_step_ceiling(params: CouplerParams, phi: float) -> float:
    """Largest |a2|^2 reachable with two segments (phases 0 and phi).

    Equals 1 when the criterion holds.  Otherwise the second circle
    falls short of the south pole by 2 psi - Theta and the ceiling is
    cos^2(psi - Theta / 2).
    """
    if two_step_feasible(params, phi):
        return 1.0
    psi = abs(tilt_angle(params))
    theta = axis_separation(params, phi)
    return math.cos(psi - theta / 2.0) ** 2


@dataclass(frozen=True)
class TwoStepSolution:
    """Durations (s) for the phase-0 and phase-phi segments.

    feasible reports whether complete transfer was possible; when it is
    False, (t1, t2) locate the best achievable transfer instead and
    achieved sits strictly below 1.
    """

    t1: float
    t2: float
    phi: float
    achieved: float
    feasible: bool

    def protocol(self) -> Protocol:
        return Protocol(
            (CouplingSegment(0.0, self.t1), CouplingSegment(self.phi, self.t2))
        )


def pushpull_times(params: CouplerParams) -> TwoStepSolution:
    """Closed-form complete transfer for the phase flip phi = pi.

    Requires |delta| < kappa0.  With W t1 = arctan(W / sqrt(kappa0^2 -
    delta^2)) and W t2 = pi - W t1 the composite diagonal vanishes
    identically, so the transfer is exact.
    """
    if abs(params.delta) >= params.kappa0:
        raise InfeasibleTransferError(
            "push-pull needs |delta| < kappa0; use the multistep planner "
            "for larger detuning",
            achievable=two_step_ceiling(params, math.pi),
        )
    w = params.rabi
    wt1 = math.atan(w / math.sqrt(params.kappa0**2 - params.delta**2))
    t1 = wt1 / w
    t2 = (math.pi - wt1) / w
    sol = TwoStepSolution(t1, t2, math.pi, 0.0, True)
    return replace(sol, achieved=protocol_propagator(params, sol.protocol()).transfer)


def _grid_transfer(
    params: CouplerParams, phi: float, wt1: np.ndarray, wt2: np.ndarray
) -> np.ndarray:
    """Transfer |a2|^2 from mode 1 with W t1 = wt1[i] and W t2 = wt2[j].

    Returns the table values[i, j].  The map is pi-periodic in each
    duration, so axes in [0, pi] cover everything.
    """
    w = params.rabi
    dr = params.delta / w
    kr = params.kappa0 / w

    def entries(wt):
        c, s = np.cos(wt), np.sin(wt)
        return c - 1j * dr * s, -1j * kr * s

    d1, o1 = entries(wt1)
    d2, o2 = entries(wt2)
    o2 = o2 * np.exp(1j * phi)
    oc = d2[None, :] * o1[:, None] + o2[None, :] * np.conj(d1)[:, None]
    return np.abs(oc) ** 2


def _second_leg(params: CouplerParams, phi: float, t1: float) -> tuple[float, float, float]:
    """(c, r, chi) with Bloch w = c + r cos(2 W s + chi) at time s into the
    phase-phi segment, entered after t1 of phase 0 from the north pole."""
    start = bloch_precess(rotation_axis(params, 0.0), NORTH, t1).as_array()
    n = rotation_axis(params, phi).as_array()
    perp = start - np.dot(n, start) * n
    # Precession turns by -2 W s, so r cos(chi) = perp_z and r sin(chi) = (n x perp)_z.
    r_cos, r_sin = perp[2], float(np.cross(n, perp)[2])
    return float(np.dot(n, start)) * n[2], math.hypot(r_cos, r_sin), math.atan2(r_sin, r_cos)


def _closest_approach(params: CouplerParams, phi: float) -> tuple[float, float]:
    """Durations carrying mode 1 closest to mode 2 when the circles miss.

    For delta >= 0, switch where the north-pole circle is farthest from
    axis(phi), so the second circle is the widest reachable, and stop at
    that circle's lowest w.  delta < 0 maps onto it by (delta, phi) ->
    (-delta, -phi), which keeps the transfer at every (t1, t2): the
    composite off-diagonal becomes -conj of itself.
    """
    if params.delta < 0.0:
        params, phi = CouplerParams(-params.delta, params.kappa0), -phi
    sin_psi = math.sin(tilt_angle(params))
    # Right-handed azimuth about axis(0), from the north pole, of the point
    # farthest from axis(phi); precession turns by -2 W t.
    azimuth = math.atan2(math.sin(phi), -sin_psi * (1.0 - math.cos(phi)))
    t1 = ((-azimuth) % (2.0 * math.pi)) / (2.0 * params.rabi)
    _, _, chi = _second_leg(params, phi, t1)
    # w is lowest at 2 W t2 + chi = pi.  A switch point already there, as
    # at phi = 0, needs no second leg even if rounding puts chi near -pi.
    turn = math.pi - chi
    return t1, (0.0 if turn >= 2.0 * math.pi - ANGLE_TOL else turn) / (2.0 * params.rabi)


def solve_two_step(params: CouplerParams, phi: float) -> TwoStepSolution:
    """Durations for complete transfer, or the best fallback, in closed form.

    Feasible case: the switch point is an intersection of the two pole
    circles; among the at-most-two candidates the one with the smallest
    total duration wins (ties break toward smaller t1).  Otherwise (the
    criterion fails, or tolerance leaves the circles apart)
    :func:`_closest_approach` reaches the ceiling cos^2(psi - Theta/2),
    and feasible is False unless that still comes within 1e-9 of 1.
    """
    candidates = []
    if two_step_feasible(params, phi):
        axis1 = rotation_axis(params, 0.0)
        axis2 = rotation_axis(params, phi)
        inter = circle_intersection(circle_through(axis1, NORTH), circle_through(axis2, SOUTH))
        if inter.kind == "coincident":
            # Degenerate delta = 0, phi = 0: one circle through both poles.
            candidates = [(precession_duration(axis1, NORTH, SOUTH), 0.0)]
        candidates += [
            (precession_duration(axis1, NORTH, p), precession_duration(axis2, p, SOUTH))
            for p in inter.points
        ]
    if candidates:
        t1, t2 = min(candidates, key=lambda c: (c[0] + c[1], c[0]))
    else:
        t1, t2 = _closest_approach(params, phi)
    sol = TwoStepSolution(t1, t2, phi, 0.0, True)
    achieved = protocol_propagator(params, sol.protocol()).transfer
    feasible = bool(candidates) or (two_step_feasible(params, phi) and achieved >= 1.0 - 1e-9)
    return replace(sol, achieved=achieved, feasible=feasible)


@dataclass(frozen=True)
class TransferMap:
    """Transfer |a2|^2 over a grid of the two durations.

    Axes are in units of W t / pi; values[i, j] corresponds to
    t1_axis[i], t2_axis[j].
    """

    t1_axis: np.ndarray
    t2_axis: np.ndarray
    values: np.ndarray

    @property
    def peak(self) -> float:
        return float(self.values.max())


def transfer_map(params: CouplerParams, phi: float, n: int = 64) -> TransferMap:
    """Tabulate the two-segment transfer on an n x n duration grid.

    The grid spans one period, W t in [0, pi] inclusive on both axes.
    Peak values are grid-limited: they approach the true optimum only as
    n grows, so feasibility decisions belong to two_step_feasible, not
    to this map.
    """
    if n < 2:
        raise ValueError("transfer map needs n >= 2")
    wt = np.linspace(0.0, math.pi, n)
    axis = wt / math.pi
    return TransferMap(axis, axis.copy(), _grid_transfer(params, phi, wt, wt))


@dataclass(frozen=True)
class FeasibilityMap:
    """Boolean feasibility over (ratio, phi)."""

    ratios: np.ndarray
    phis: np.ndarray
    feasible: np.ndarray


def feasibility_map(n: int = 64) -> FeasibilityMap:
    """Criterion truth table over ratio in [0, 1.2], phi in [0, pi]."""
    if n < 2:
        raise ValueError("feasibility map needs n >= 2")
    ratios = np.linspace(0.0, 1.2, n)
    phis = np.linspace(0.0, math.pi, n)
    limit = 1.0 - 2.0 * ratios[:, None] ** 2
    feas = np.cos(phis)[None, :] <= limit + FEASIBILITY_EPS
    return FeasibilityMap(ratios, phis, feas)


def solve_fraction(params: CouplerParams, phi: float, p: float) -> Protocol:
    """Shortest truncation of the two-segment solution reaching |a2|^2 = p.

    The full solution is computed first and cut, in closed form, at the
    first time its transfer reaches p.  In the first segment the transfer
    is (kappa0 / W)^2 sin^2(W t); in the second, the Bloch w about
    axis(phi) is c + r cos(2 W s + chi), so the cut is one asin or one
    acos.  Requesting more than the protocol can deliver raises
    InfeasibleTransferError carrying the achievable maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("target fraction must lie in [0, 1]")
    sol = solve_two_step(params, phi)
    if p > sol.achieved + 1e-12:
        raise InfeasibleTransferError(
            f"target {p:g} exceeds the two-segment maximum {sol.achieved:.12g} "
            "for this phase",
            achievable=sol.achieved,
        )
    if p == 0.0:
        return Protocol((CouplingSegment(0.0, 0.0),))
    if p >= sol.achieved - 1e-12:
        return sol.protocol()
    w = params.rabi
    scale = params.kappa0 / w
    # The first segment peaks at W t = pi/2, or at its end if that comes sooner.
    peak1 = scale * scale * (math.sin(w * sol.t1) ** 2 if w * sol.t1 < math.pi / 2.0 else 1.0)
    if p <= peak1:
        t = math.asin(min(1.0, math.sqrt(p) / scale)) / w
        return Protocol((CouplingSegment(0.0, t),))
    c, r, chi = _second_leg(params, phi, sol.t1)
    # w starts above 1 - 2p, so the first crossing is the falling one at
    # 2 W s + chi = acos(g); chi is in (-pi, pi], and only rounding can
    # put acos(g) below it.
    g = max(-1.0, min(1.0, (1.0 - 2.0 * p - c) / r))
    s = max(0.0, math.acos(g) - chi) / (2.0 * w)
    return Protocol((CouplingSegment(0.0, sol.t1), CouplingSegment(phi, s)))
