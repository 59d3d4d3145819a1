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

Along the first circle the switch point's height along axis(phi) is one
sinusoid c + r cos(2 W t1 + chi), so :func:`solve_two_step` switches at
one acos: the first time that height equals the south pole's.  When the
criterion fails the acos is clamped to the nearest extremum, which
reaches the ceiling cos^2(psi - Theta/2) built from the axis separation
Theta.  :func:`solve_fraction` cuts either solution at a partial target
with one more acos, on the Bloch w of the leg that first reaches it.
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
from .geometry import NORTH, bloch_precess, leg_time, precession_leg, rotation_axis, tilt_angle

# Slack applied to the feasibility inequality so exact-boundary cases
# (equality in cos phi) classify as feasible under floating point.
FEASIBILITY_EPS = 1e-12
# A first leg whose height along axis(phi) swings by less than this is
# flat: axis(phi) is parallel to axis(0) and r holds only rounding.
FLAT_LEG_TOL = 1e-14
# Slack on comparing a target fraction with the achieved transfer, which
# the propagator rounds in its last digits.
ACHIEVED_SLACK = 1e-12


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

    feasible is two_step_feasible at phi; when it is False, (t1, t2)
    locate the best achievable transfer instead, the ceiling below 1.
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

    Requires |delta| < kappa0, else raises InfeasibleTransferError with
    the two-segment ceiling at phi = pi (0 without coupling).  With W t1 =
    arctan(W / sqrt(kappa0^2 - delta^2)) and W t2 = pi - W t1 the
    composite diagonal vanishes identically, so the transfer is exact.
    kappa0, delta and W are first scaled by the power of two that brings
    kappa0 into [1/2, 1), which is exact and leaves the quotient as it
    is, so the squares can neither overflow nor underflow.
    """
    if params.kappa0 == 0.0:
        raise InfeasibleTransferError(
            "push-pull needs |delta| < kappa0; without coupling nothing transfers",
            achievable=0.0,
        )
    if abs(params.delta) >= params.kappa0:
        raise InfeasibleTransferError(
            "push-pull needs |delta| < kappa0; use the multistep planner "
            "for larger detuning",
            achievable=two_step_ceiling(params, math.pi),
        )
    w = params.rabi
    e = math.frexp(params.kappa0)[1]
    kappa, delta = math.ldexp(params.kappa0, -e), math.ldexp(params.delta, -e)
    wt1 = math.atan(math.ldexp(w, -e) / math.sqrt(kappa**2 - delta**2))
    t1 = wt1 / w
    t2 = (math.pi - wt1) / w
    sol = TwoStepSolution(t1, t2, math.pi, 0.0, True)
    return replace(sol, achieved=protocol_propagator(params, sol.protocol()).transfer)


def _grid_transfer(delta, kappa0, w, phi, wt1: np.ndarray, wt2: np.ndarray) -> np.ndarray:
    """Transfer |a2|^2 from mode 1 with W t1 = wt1[..., i] and W t2 = wt2[..., j].

    delta, kappa0, W = hypot(delta, kappa0) and phi are floats, or (cells, 1)
    columns with wt1, wt2 shared axes or (cells, n) rows and a leading cell axis
    on the table, each cell as if alone.  Durations are pi-periodic, so axes in
    [0, pi] cover everything.  numpy's complex arithmetic stays: in propagate's
    cmul form transfer_map 512^2 took 26 ms, not 4.4, and moved 37-44% of cells
    by up to 8.9e-16; shared real-column entries slowed criterion_vs_brute ~40%.
    """
    dr = delta / w
    kr = kappa0 / w

    def entries(wt):
        c, s = np.cos(wt), np.sin(wt)
        return c - 1j * dr * s, -1j * kr * s

    d1, o1 = entries(wt1)
    d2, o2 = entries(wt2)
    o2 = o2 * np.exp(1j * phi)
    oc = d2[..., None, :] * o1[..., :, None] + o2[..., None, :] * np.conj(d1)[..., :, None]
    return np.abs(oc) ** 2


def solve_two_step(params: CouplerParams, phi: float) -> TwoStepSolution:
    """Durations for complete transfer, or the best fallback, in closed form.

    The first segment runs until the north-pole circle about axis(0)
    first reaches the circle about n = axis(phi) through the south pole:
    its height along n is c + r cos(2 W t1 + chi), so t1 is the earlier
    of the angles +-acos(g), g = (-n_z - c) / r.  When the criterion
    fails |g| exceeds 1 and the switch goes to the nearest extremum,
    the closest approach.  A flat first leg (axis(phi) parallel to
    axis(0)) switches at once.  The second segment turns to the lowest
    w of its circle.  The two intersections give a swapped pair of
    durations, (a, b) and (b, a), with equal totals, so the first
    crossing settles that tie without rounding and gives t1 <= t2.
    """
    axis1 = rotation_axis(params, 0.0)
    axis2 = rotation_axis(params, phi)
    n = axis2.as_array()
    c, r, chi = precession_leg(axis1, NORTH, n)
    if r < FLAT_LEG_TOL:
        t1 = 0.0
    else:
        g = (-n[2] - c) / r
        if abs(g) >= 1.0:
            angles = (0.0 if g > 0.0 else math.pi,)
        else:
            angles = (math.acos(g), -math.acos(g))
        t1 = min(leg_time(axis1, chi, a) for a in angles)
    switch = bloch_precess(axis1, NORTH, t1)
    _, _, chi2 = precession_leg(axis2, switch, NORTH.as_array())
    t2 = leg_time(axis2, chi2, math.pi)
    sol = TwoStepSolution(t1, t2, phi, 0.0, two_step_feasible(params, phi))
    return replace(sol, achieved=protocol_propagator(params, sol.protocol()).transfer)


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
    values = _grid_transfer(params.delta, params.kappa0, params.rabi, phi, wt, wt)
    return TransferMap(axis, axis.copy(), values)


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
    """Shortest cut of the two-segment solution reaching |a2|^2 = p.

    The full solution is computed first.  On each of its legs the Bloch
    w is c + r cos(2 W s + chi), so the first time w falls through
    1 - 2p is one acos.  Each leg whose circle gets that low gives a cut:
    the legs before it in full, then this one up to that time.  The
    shortest cut wins; the phase-0 leg alone counts, even past the
    switch, so a target one segment can reach needs no switch.  A cut
    that would pass p early is longer than the cut at that earlier
    crossing, so the shortest one reaches p first at its end.
    Requesting more than the protocol can deliver raises
    InfeasibleTransferError carrying the achievable maximum.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("target fraction must lie in [0, 1]")
    sol = solve_two_step(params, phi)
    if p > sol.achieved + ACHIEVED_SLACK:
        raise InfeasibleTransferError(
            f"target {p:g} exceeds the two-segment maximum {sol.achieved:.12g} "
            "for this phase",
            achievable=sol.achieved,
        )
    if p == 0.0:
        return Protocol((CouplingSegment(0.0, 0.0),))
    if p >= sol.achieved - ACHIEVED_SLACK:
        return sol.protocol()
    level = 1.0 - 2.0 * p
    legs = sol.protocol().segments
    start = NORTH
    cuts = []
    for i, seg in enumerate(legs):
        axis = rotation_axis(params, seg.phase)
        c, r, chi = precession_leg(axis, start, NORTH.as_array())
        if c - r <= level:
            # w falls through the level first at 2 W s + chi = acos(g).
            s = leg_time(axis, chi, math.acos(max(-1.0, min(1.0, (level - c) / r))))
            cuts.append(Protocol((*legs[:i], CouplingSegment(seg.phase, s))))
        start = bloch_precess(axis, start, seg.duration)
    return min(cuts, key=lambda cut: cut.total_duration)
