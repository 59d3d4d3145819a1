"""Multi-segment descent planning for ratios beyond the two-segment regime.

Every precession axis sits at polar angle pi/2 - psi, psi = arctan(|delta|
/ kappa0), so one segment can deepen the polar angle of the state by at
most pi - 2 psi.  That gives a rigorous per-count transfer bound,

    max |a2|^2 with k segments  <=  (1 - cos(min(k (pi - 2 psi), pi))) / 2,

and closed-form plans that attain it (dive_plan).  Below the landing
count, where k (pi - 2 psi) < pi, push-pull half turns at phases 0 and pi
deepen the state by the full step each.  At the landing count k, k
equal segments with a constant phase step dphi land on the south pole:
the protocol is V^k up to a turn about z, V = R_z(-dphi) U(tau) with U
the phase-0 segment, and for

    W tau = asin(sin(pi / 2k) / cos psi),   dphi = -sign(delta) 2 atan(sin psi tan(W tau))

V turns by pi / k about a horizontal axis, so V^k carries the north
pole to the south pole.  The asin exists exactly when k (pi - 2 psi) >=
pi.  minimal_plan_search builds the fewest segments whose bound reaches
the threshold, and minimal_plan_wt gives that plan's W*T before it is
built.  No numerical search is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CouplerParams,
    ModeState,
    Protocol,
    Trajectory,
    abs2,
    apply_columns,
    prefix_products,
)
from .geometry import BlochVector, tilt_angle, to_bloch

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


def _segment_wt(psi: float, k: int) -> float:
    """W tau of each of k equal segments that land on the south pole.

    asin(sin(pi / 2k) / cos psi), clamped at a half turn, pi / 2, which
    is also the segment of a dive that k segments cannot land.
    """
    return math.asin(min(1.0, math.sin(math.pi / (2.0 * k)) / math.cos(psi)))


def dive_plan(params: CouplerParams, max_segments: int) -> StaircasePlan:
    """Plan attaining descent_bound at max_segments, in closed form.

    If max_segments (pi - 2 psi) >= pi it lands on the south pole with
    the fewest segments that can, k = 1 + ceil(2 psi / (pi - 2 psi)),
    possibly fewer than allowed: k equal segments, segment j at phase
    j dphi (module docstring).  Otherwise it is max_segments half turns
    at phases 0 and pi alternating, which keep every axis in the u-w
    plane, so half turn j ends at polar angle exactly j (pi - 2 psi) at
    either sign of delta.  Its states come from prefix_products and apply_columns.
    """
    if max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    if params.kappa0 == 0.0:
        raise ValueError("planning requires kappa0 > 0")

    psi = abs(tilt_angle(params))
    step = math.pi - 2.0 * psi
    if max_segments * step < math.pi - LANDING_SLACK:
        half_turn = math.pi / (2.0 * params.rabi)
        pairs = [(math.pi * (j % 2), half_turn) for j in range(max_segments)]
    else:
        k = 1 + max(0, math.ceil(2.0 * psi / step - LANDING_SLACK))
        wt = _segment_wt(psi, k)
        dphi = -math.copysign(2.0 * math.atan(math.sin(psi) * math.tan(wt)), params.delta)
        pairs = [(j * dphi, wt / params.rabi) for j in range(k)]
    # One to_bloch over the switch states as columns, at the switch times.
    protocol = Protocol.from_pairs(pairs)
    prefix = prefix_products(params, protocol)
    states = apply_columns(*prefix[1:-1].T, ModeState.mode1())
    b = to_bloch(Trajectory(np.cumsum(protocol.durations[:-1]), *states))
    points = tuple(map(BlochVector, b.u.tolist(), b.v.tolist(), b.w.tolist()))
    return StaircasePlan(protocol, points, float(abs2(*prefix[-1, 2:])), len(points))


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


def _minimal_count(params: CouplerParams, threshold: float, max_segments: int | None) -> int:
    """First count k with descent_bound(k) >= threshold, or max_segments.

    Starts at the closed form ceil(acos(1 - 2 threshold) / (pi - 2 psi))
    and steps to the first count whose bound reaches the threshold less
    THRESHOLD_SLACK, so rounding in the quotient cannot move the count
    and no loop runs over every count.  Validates the search's inputs.
    """
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if params.kappa0 == 0.0:
        raise ValueError("planning requires kappa0 > 0")
    if max_segments is not None and max_segments < 1:
        raise ValueError("max_segments must be >= 1")
    step = math.pi - 2.0 * abs(tilt_angle(params))
    if step == 0.0:
        if max_segments is None:
            raise ValueError("|delta| / kappa0 too large for any segment to descend")
        return max_segments
    target = threshold - THRESHOLD_SLACK
    k = max(1, math.ceil(math.acos(1.0 - 2.0 * threshold) / step))
    while k > 1 and descent_bound(params, k - 1) >= target:
        k -= 1
    while descent_bound(params, k) < target:
        k += 1
    return k if max_segments is None else min(k, max_segments)


def minimal_plan_wt(params: CouplerParams, threshold: float, max_segments: int | None) -> float:
    """W*T of the plan minimal_plan_search builds, without building it.

    k _segment_wt(psi, k) at the plan's count k: half turns below the
    landing count, equal landing segments at it.  Equals the built
    plan's W*T up to rounding, and raises the search's ValueErrors.
    """
    k = _minimal_count(params, threshold, max_segments)
    return k * _segment_wt(abs(tilt_angle(params)), k)


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
    k = _minimal_count(params, threshold, max_segments)
    estimate = min_switches_estimate(params.ratio) if params.ratio > 0 else 1
    plan = dive_plan(params, k)
    curve = tuple((j, descent_bound(params, j)) for j in range(1, k)) + ((k, plan.achieved),)
    if plan.achieved >= threshold - THRESHOLD_SLACK:
        return PlanSearch(plan, curve, estimate)
    raise PlanSearchError(
        f"no plan reached {threshold:g} within {k} segments (best {plan.achieved:.6f})",
        plan,
        curve,
    )
