"""Multi-segment descent planning for ratios beyond the two-segment regime.

Every precession axis sits at polar angle pi/2 - psi, psi = arctan(delta /
kappa0), so one segment can deepen the polar angle of the state by at most
pi - 2 psi.  That single fact gives both a rigorous per-count transfer
bound,

    max |a2|^2 with k segments  <=  (1 - cos(min(k (pi - 2 psi), pi))) / 2,

and a constructive plan that attains it: enter each circle at its shallow
point, precess half a turn to its deepest point, and switch to the axis
whose azimuth is antipodal to the exit point.  Once the state is at polar
angle >= 2 psi a final axis azimuth exists whose circle passes through the
south pole exactly, finishing the transfer.

The planner offers that construction directly (dive_plan) and the
minimal plan it implies (minimal_plan_search): the first segment count
whose bound reaches the threshold, built once by dive_plan, with the
bound below that count as its curve.  No numerical search is involved.
The landing time comes from the landing leg's height c + r cos(2 W s +
chi), as the two-segment switch is one acos on its first leg's: it is
the turn to angle pi, the lowest w of the landing circle, the south pole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    CouplerParams,
    ModeState,
    Protocol,
    compose,
    remap_phases,
    segment_propagator,
)
from .geometry import (
    NORTH,
    BlochVector,
    leg_time,
    precession_leg,
    rotation_axis,
    tilt_angle,
    to_bloch,
)

# Slack on threshold comparisons: a plan that lands on the south pole
# reaches |a2|^2 = 1 only up to rounding, so threshold 1.0 taken exactly
# would be unreachable in floating point.
THRESHOLD_SLACK = 1e-12
# Keeps an exact integer quotient in min_switches_estimate (ratio 1 gives
# exactly 1) from rounding up through the last digit of pi / atan.
ESTIMATE_SLACK = 1e-9
# Slack on the dive's segment arithmetic: k (pi - 2 psi) reaching pi, or
# 2 psi / (pi - 2 psi) sitting on an integer, up to rounding.
LANDING_SLACK = 1e-12


def min_switches_estimate(ratio: float) -> int:
    """Quick switch-count scale for a given |delta| / kappa0.

    Returns ceil(pi / (4 arctan(1 / ratio))).  This counts full
    modulation periods rather than raw segment boundaries; minimal
    plans need roughly twice as many segments, one per half period.
    ESTIMATE_SLACK keeps exact integer values from rounding up.
    """
    if ratio <= 0.0 or not math.isfinite(ratio):
        raise ValueError("ratio must be positive and finite")
    value = math.pi / (4.0 * math.atan(1.0 / ratio))
    return math.ceil(value - ESTIMATE_SLACK)


def descent_bound(params: CouplerParams, k: int) -> float:
    """Largest |a2|^2 any k-segment protocol can reach from mode 1."""
    if k < 1:
        raise ValueError("segment count must be >= 1")
    psi = abs(tilt_angle(params))
    angle = min(k * (math.pi - 2.0 * psi), math.pi)
    return (1.0 - math.cos(angle)) / 2.0


@dataclass(frozen=True)
class StaircasePlan:
    """A planned protocol with its switch geometry.

    switch_points holds the Bloch vectors at interior segment
    boundaries (one fewer than the segment count); achieved is the
    transfer |a2|^2 from mode 1 under the full protocol.
    """

    protocol: Protocol
    switch_points: tuple[BlochVector, ...]
    achieved: float
    switches: int


class PlanSearchError(RuntimeError):
    """Segment cap hit before the threshold; carries the deepest plan."""

    def __init__(self, message: str, best: StaircasePlan, curve: tuple):
        super().__init__(message)
        self.best = best
        self.curve = curve


def plan_from_protocol(params: CouplerParams, protocol: Protocol) -> StaircasePlan:
    """Evaluate a protocol into a StaircasePlan by direct propagation."""
    start = ModeState.mode1()
    acc = segment_propagator(params, protocol.segments[0])
    points: list[BlochVector] = []
    for seg in protocol.segments[1:]:
        points.append(to_bloch(acc.apply(start)))
        acc = compose(segment_propagator(params, seg), acc)
    return StaircasePlan(protocol, tuple(points), acc.transfer, len(points))


def dive_plan(params: CouplerParams, max_segments: int) -> StaircasePlan:
    """Half-turn descent plan, the constructive optimum per segment count.

    Alternating push-pull half turns walk the state down one maximal
    polar step per segment.  If max_segments suffices to bring the state
    within reach of a pole circle, the last segment lands on the south
    pole exactly and the plan may use fewer segments than allowed;
    otherwise every segment is a half turn and the plan stops on the
    deepest reachable circle bottom, attaining descent_bound.

    Everything is closed form.  Phases 0 and pi put every axis in the u-w
    plane, so half turn j leaves the state in that plane at polar angle
    exactly j (pi - 2 psi), on the +u side for odd j.  From polar angle
    theta and azimuth alpha the circle about axis(phi) passes through the
    south pole iff cos(phi - alpha) = -tan(psi) / tan(theta / 2), which
    has a solution once theta >= 2 psi; of the two such phases the one
    with the shorter turn down to the south pole lands.
    """
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if params.kappa0 == 0.0:
        raise ValueError("planning requires kappa0 > 0")

    # The pairs are built on the +|delta| geometry; -delta mirrors them.
    geometry = CouplerParams(abs(params.delta), params.kappa0)
    half_turn = math.pi / (2.0 * params.rabi)
    psi = tilt_angle(geometry)
    step = math.pi - 2.0 * psi
    lands = max_segments * step >= math.pi - LANDING_SLACK
    dives = max(0, math.ceil(2.0 * psi / step - LANDING_SLACK)) if lands else max_segments
    pairs = [(math.pi * (j % 2), half_turn) for j in range(dives)]
    if lands and dives == 0:
        # delta ~ 0: one half turn carries the north pole to the south pole.
        pairs.append((0.0, half_turn))
    elif lands:
        theta = dives * step
        alpha = 0.0 if dives % 2 else math.pi
        entry = BlochVector(math.sin(theta) * math.cos(alpha), 0.0, math.cos(theta))
        # Clamped: at the tangent count theta sits on 2 psi up to rounding.
        x = -math.tan(psi) / math.tan(theta / 2.0)
        dphi = math.acos(max(-1.0, min(1.0, x)))
        landings = []
        for phi in (alpha + dphi, alpha - dphi):
            # The landing circle's lowest w, at angle pi, is the south pole.
            axis = rotation_axis(geometry, phi)
            _, _, chi = precession_leg(axis, entry, NORTH.as_array())
            landings.append((phi, leg_time(axis, chi, math.pi)))
        pairs.append(min(landings, key=lambda pd: pd[1]))
    protocol = Protocol.from_pairs(pairs)
    if params.delta < 0.0:
        protocol = remap_phases(protocol, sign=-1.0)
    return plan_from_protocol(params, protocol)


@dataclass(frozen=True)
class PlanSearch:
    """Outcome of minimal_plan_search.

    curve holds (segment_count, transfer) in order: descent_bound for
    every count below the plan's, then the plan's achieved transfer at
    its own count; estimate is min_switches_estimate at this ratio.
    """

    plan: StaircasePlan
    curve: tuple[tuple[int, float], ...]
    estimate: int


def minimal_plan_search(
    params: CouplerParams,
    threshold: float = 0.99,
    max_segments: int | None = None,
) -> PlanSearch:
    """Smallest segment count whose dive plan reaches the threshold.

    dive_plan attains descent_bound at every count, so the minimal count
    k is the first with descent_bound(k) >= threshold, or max_segments
    if that comes first, and only dive_plan(k) is built.  Without a cap
    the bound reaches 1 by the count at which the dive lands.  Raises
    PlanSearchError with that plan if it falls short of the threshold.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if params.kappa0 == 0.0:
        raise ValueError("planning requires kappa0 > 0")
    if max_segments is not None and max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if max_segments is None and abs(tilt_angle(params)) == math.pi / 2.0:
        raise ValueError("|delta| / kappa0 too large for any segment to descend")
    estimate = min_switches_estimate(params.ratio) if params.ratio > 0 else 1

    k = 1
    while descent_bound(params, k) < threshold - THRESHOLD_SLACK and k != max_segments:
        k += 1
    plan = dive_plan(params, k)
    curve = tuple((j, descent_bound(params, j)) for j in range(1, k)) + ((k, plan.achieved),)
    if plan.achieved >= threshold - THRESHOLD_SLACK:
        return PlanSearch(plan, curve, estimate)
    raise PlanSearchError(
        f"no plan reached {threshold:g} within {k} segments (best {plan.achieved:.6f})",
        plan,
        curve,
    )
