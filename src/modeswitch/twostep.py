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

When the criterion fails, the best two-segment transfer is still useful;
:func:`solve_two_step` then reports the maximum over (t1, t2) found by a
dense grid plus local refinement, which matches the analytic ceiling
cos^2(psi - Theta/2) built from the axis separation Theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .dynamics import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    propagator_until,
    protocol_propagator,
)
from .geometry import (
    NORTH,
    SOUTH,
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
    """Angle between the phase-0 and phase-phi precession axes."""
    w2 = params.rabi ** 2
    g = (params.kappa0**2 * math.cos(phi) + params.delta**2) / w2
    return math.acos(max(-1.0, min(1.0, g)))


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
    achieved = protocol_propagator(params, sol.protocol()).transfer
    return TwoStepSolution(t1, t2, math.pi, achieved, True)


def _grid_transfer(params: CouplerParams, phi: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Transfer |a2|^2 from mode 1 on an n x n grid of W t in [0, pi].

    Returns (axis, values) where axis is the common W t grid.  The map
    is pi-periodic in each duration, so [0, pi] covers everything.
    """
    w = params.rabi
    wt = np.linspace(0.0, math.pi, n)
    c, s = np.cos(wt), np.sin(wt)
    dr = params.delta / w
    kr = params.kappa0 / w
    d1 = c - 1j * dr * s
    o1 = -1j * kr * s
    d2 = d1
    o2 = o1 * np.exp(1j * phi)
    oc = d2[None, :] * o1[:, None] + o2[None, :] * np.conj(d1)[:, None]
    return wt, np.abs(oc) ** 2


def _refine_two_step(
    params: CouplerParams, phi: float, t1: float, t2: float
) -> tuple[float, float, float]:
    """Local maximization of the two-segment transfer from a seed."""

    def objective(x):
        prot = Protocol(
            (CouplingSegment(0.0, abs(x[0])), CouplingSegment(phi, abs(x[1])))
        )
        return -protocol_propagator(params, prot).transfer

    res = minimize(
        objective,
        np.array([t1, t2]),
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-15, "maxfev": 2000},
    )
    return abs(res.x[0]), abs(res.x[1]), -res.fun


def solve_two_step(params: CouplerParams, phi: float) -> TwoStepSolution:
    """Durations for complete transfer, or the best fallback.

    Feasible case: the switch point is an intersection of the two pole
    circles; among the at-most-two candidates the one with the smallest
    total duration wins (ties break toward smaller t1).  Infeasible
    case: dense grid search over W t in [0, pi]^2 plus Nelder-Mead
    refinement, reported with feasible=False.
    """
    axis1 = rotation_axis(params, 0.0)
    axis2 = rotation_axis(params, phi)
    if two_step_feasible(params, phi):
        c1 = circle_through(axis1, NORTH)
        c2 = circle_through(axis2, SOUTH)
        inter = circle_intersection(c1, c2)
        if inter.kind == "coincident":
            # Degenerate delta = 0, phi = 0: one circle through both poles.
            t1 = precession_duration(axis1, NORTH, SOUTH)
            candidates = [(t1, 0.0)]
        elif inter.kind in ("pair", "tangent"):
            candidates = []
            for p in inter.points:
                t1 = precession_duration(axis1, NORTH, p)
                t2 = precession_duration(axis2, p, SOUTH)
                candidates.append((t1, t2))
        else:
            candidates = []
        if candidates:
            t1, t2 = min(candidates, key=lambda c: (c[0] + c[1], c[0]))
            sol = TwoStepSolution(t1, t2, phi, 0.0, True)
            achieved = protocol_propagator(params, sol.protocol()).transfer
            if achieved < 1.0 - 1e-9:
                t1, t2, achieved = _refine_two_step(params, phi, t1, t2)
            return TwoStepSolution(t1, t2, phi, achieved, True)
        # Fall through on tolerance-boundary misclassification.
    wt, grid = _grid_transfer(params, phi, 64)
    i, j = np.unravel_index(int(np.argmax(grid)), grid.shape)
    w = params.rabi
    t1, t2, achieved = _refine_two_step(params, phi, wt[i] / w, wt[j] / w)
    feasible = two_step_feasible(params, phi)
    return TwoStepSolution(t1, t2, phi, achieved, feasible and achieved >= 1.0 - 1e-9)


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
    wt, grid = _grid_transfer(params, phi, n)
    axis = wt / math.pi
    return TransferMap(axis, axis.copy(), grid)


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

    The full solution is computed first; the protocol is then cut at the
    first time its running transfer crosses p (bisection to residual
    1e-9).  Requesting more than the protocol can deliver raises
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
    full = sol.protocol()
    if p == 0.0:
        return Protocol((CouplingSegment(0.0, 0.0),))
    if p >= sol.achieved - 1e-12:
        return full
    total = full.total_duration
    initial = ModeState.mode1()

    def transfer_at(t: float) -> float:
        return propagator_until(params, full, t).apply(initial).transfer

    # Dense scan to bracket the first crossing, then bisection.
    samples = 4096
    lo = 0.0
    hi = None
    prev_t = 0.0
    for k in range(1, samples + 1):
        t = total * k / samples
        if transfer_at(t) >= p:
            lo, hi = prev_t, t
            break
        prev_t = t
    if hi is None:
        hi = total
        lo = prev_t
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if transfer_at(mid) >= p:
            hi = mid
        else:
            lo = mid
        if abs(transfer_at(hi) - p) <= 1e-9 and hi - lo <= 1e-15 * max(total, 1.0) + 1e-18:
            break
    t_star = hi
    t1 = full.segments[0].duration
    if t_star <= t1:
        return Protocol((CouplingSegment(0.0, t_star),))
    return Protocol(
        (CouplingSegment(0.0, t1), CouplingSegment(phi, t_star - t1))
    )
