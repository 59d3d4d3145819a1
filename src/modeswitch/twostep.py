"""Two-segment transfer: feasibility criterion, closed forms, solver.

A two-segment protocol holds phase 0 for t1 and then phase phi for t2.
On the Bloch sphere the first segment moves along the circle through the
north pole about axis(0); the second must end on the south pole, so the
switch point has to lie on the circle about axis(phi) through the south
pole.  Those two circles intersect exactly when

    cos(phi) <= 1 - 2 (delta / kappa0)^2,

the complete-transfer criterion.  :func:`solve_two_step` finds the earliest
switch in closed form, or the largest transfer when the criterion fails
(push-pull, phi = pi and |delta| < kappa0, has its own closed form);
:func:`solve_fraction` cuts either at a partial target with one more acos,
on the Bloch w of the leg that first reaches it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import (
    _NO_RATIO,
    CouplerParams,
    CouplingSegment,
    Protocol,
    _coupler,
    _each,
    _every,
    _finite,
    protocol_propagator,
)
from .geometry import ANGLE_TOL, NORTH, bloch_precess, leg_time, precession_leg, rotation_axis

# Slack applied to the feasibility inequality so exact-boundary cases
# (equality in cos phi) classify as feasible under floating point.
FEASIBILITY_EPS = 1e-12
# A first leg is flat when |sin(phi / 2)| is below this: its axis then lies
# within this times kappa0 / W of axis(phi), parallel up to rounding at any
# coupling.
FLAT_LEG_TOL = 1e-14
# Slack on comparing a target fraction with the achieved transfer, which
# the propagator rounds in its last digits.
ACHIEVED_SLACK = 1e-12


class InfeasibleTransferError(ValueError):
    """Requested transfer cannot be met; carries the achievable maximum."""

    def __init__(self, message: str, achievable: float):
        super().__init__(message)
        self.achievable = achievable


def two_step_feasible(params, phi):
    """Whether two segments (phases 0 and finite phi) can transfer completely.

    params is a CouplerParams or, as segment_propagator takes it, a (delta,
    kappa0) pair of floats or columns that broadcast with phi, checked as
    CouplerParams checks it; columns give a column of bools, each entry its
    scalar call bit for bit (math.cos, entry by entry).
    """
    _finite(phi, "coupling phase phi")
    delta, kappa0, _ = _coupler(params)
    if not _every(kappa0 != 0.0):
        raise ValueError(_NO_RATIO)
    r = abs(delta) / kappa0
    return _each(math.cos, phi) <= 1.0 - 2.0 * r * r + FEASIBILITY_EPS


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
    this keeps full precision as Theta goes to 0.  phi must be finite.
    """
    return 2.0 * math.asin(min(1.0, _diagonal(params, phi)[3]))


def two_step_ceiling(params: CouplerParams, phi: float) -> float:
    """Largest |a2|^2 reachable with two segments (phases 0 and phi).

    Equals 1 when the criterion holds, else kr^2 (hypot(A, C) + |C|)^2 of
    solve_two_step's diagonal t1 = t2: cos^2(psi - Theta / 2), but exact
    to the last digits as kappa0 / W goes to 0.
    """
    if two_step_feasible(params, phi):
        return 1.0
    kr, a, c, _ = _diagonal(params, phi)
    return kr * kr * (math.hypot(a, c) + abs(c)) ** 2


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
        return Protocol((CouplingSegment(0.0, self.t1), CouplingSegment(self.phi, self.t2)))


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
    [0, pi] cover everything.  numpy's complex arithmetic stays: in the dynamics
    kernel's cmul form transfer_map 512^2 took 26 ms, not 4.4, and moved 37-44% of cells
    by up to 8.9e-16.  Each value is elementwise, so a row is the same bits in any
    table: the battery's brute force saves its seed work by taking only the rows that
    its real-arithmetic row bounds keep (verify._brute_two_step_maxima), not by
    another form of this table.
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


def _diagonal(params: CouplerParams, phi: float) -> tuple[float, float, float, float]:
    """(kr, A, C, kr |sin h|) with A >= 0, of solve_two_step's composite diagonal."""
    w, h = params.rabi, _finite(phi, "coupling phase phi") / 2.0
    kr, a, c = params.kappa0 / w, math.cos(h), params.delta / w * math.sin(h)
    return kr, *((-a, -c) if a < 0.0 else (a, c)), kr * abs(math.sin(h))


def solve_two_step(params: CouplerParams, phi: float) -> TwoStepSolution:
    """Durations for complete transfer, or the largest transfer, in closed form.

    With x = W t, h = phi / 2, dr = delta / W, kr = kappa0 / W, q = (kr sin
    h)^2, sigma = x1 + x2 and Delta = x2 - x1, the two segments' product
    has the diagonal (dr^2 + kr^2 = 1)

        Re D = q cos Delta + (1 - q) cos sigma,
        Im D = -[dr sin sigma + kr^2 sin h cos h (cos Delta - cos sigma)].

    D = 0 exactly when tan sigma = A / C (A = cos h, C = dr sin h, signs
    flipped so A >= 0) and cos Delta = -cos sigma (1 - q) / q, in [-1, 1]
    iff q >= dr^2: the criterion.  sigma = atan2(A, C) and Delta = acos,
    both in [0, pi], give t1 <= t2; if sigma < Delta the earliest root is
    sigma + pi, pi - Delta, unless sigma is short by at most ANGLE_TOL (delta
    ~ 0, leg_time's rule); then, as for a flat first leg, W t2 = pi/2 alone.
    The leg is flat when |sin h| < FLAT_LEG_TOL, relative to kr, so a weak
    coupling still switches, or when q underflows to 0, so the quotient
    never divides by 0.

    When the criterion fails the clipped acos gives t1 = t2.  The transfer
    sees Delta only through cos Delta, so swapping x1 and x2 keeps it (each
    x mod pi); its maximum (the first leg's extreme height along axis(phi),
    then the second leg's point nearest mode 2) is unique mod pi for a leg
    that is not flat, so x1 = x2 (mod pi), where kr^2 (A sin 2x + C cos 2x
    - C)^2 peaks at kr^2 (hypot(A, C) + |C|)^2.  At phi = 0, C = 0 and 2x
    = pi/2 and 3 pi/2 tie; for phi != 0 the sign of C picks one, so W T
    jumps with the exact argmax.  The raw phi enters, so the mirror
    (-delta, -phi) is bit for bit the same.
    """
    kr, a, c, half_chord = _diagonal(params, phi)
    w2 = 2.0 * params.rabi
    t1, t2 = 0.0, math.pi / w2
    q = half_chord * half_chord
    if half_chord >= FLAT_LEG_TOL * kr and q > 0.0:
        sigma = math.atan2(a, c)
        diff = math.acos(max(-1.0, min(1.0, -c / math.hypot(a, c) * (1.0 - q) / q)))
        if sigma < diff - ANGLE_TOL:
            sigma, diff = sigma + math.pi, math.pi - diff
        if sigma >= diff:
            t1, t2 = (sigma - diff) / w2, (sigma + diff) / w2
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
    to this map.  phi must be finite.
    """
    _finite(phi, "coupling phase phi")
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
    """Criterion truth table over ratio in [0, 1.2], phi in [0, pi]: one
    broadcast two_step_feasible call on the grid, kappa0 = 1 and delta = ratio,
    so each cell is its scalar call bit for bit."""
    if n < 2:
        raise ValueError("feasibility map needs n >= 2")
    ratios = np.linspace(0.0, 1.2, n)
    phis = np.linspace(0.0, math.pi, n)
    return FeasibilityMap(ratios, phis, two_step_feasible((ratios[:, None], 1.0), phis))


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
        c, r, chi = precession_leg(axis, start, NORTH)
        if c - r <= level:
            # w falls through the level first at 2 W s + chi = acos(g).
            s = leg_time(axis, chi, math.acos(max(-1.0, min(1.0, (level - c) / r))))
            cuts.append(Protocol((*legs[:i], CouplingSegment(seg.phase, s))))
        start = bloch_precess(axis, start, seg.duration)
    return min(cuts, key=lambda cut: cut.total_duration)
