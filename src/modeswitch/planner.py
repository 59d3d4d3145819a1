"""Multi-segment descent planning for ratios beyond the two-segment regime.

Every precession axis sits at polar angle pi/2 - psi, psi = arctan(|delta|
/ kappa0), so one segment can deepen the polar angle of the state by at
most pi - 2 psi.  That gives a rigorous per-count transfer bound,

    max |a2|^2 with k segments  <=  (1 - cos(min(k (pi - 2 psi), pi))) / 2,

and closed-form plans that attain it (dive_plan).  A transfer p is the
polar angle theta_p = acos(1 - 2 p).  k equal segments with a constant
phase step dphi give the protocol V^k up to a turn about z, V =
R_z(-dphi) U(tau) with U the phase-0 segment, and for

    W tau = asin(min(1, sin(theta_p / 2k) / cos psi)),
    dphi  = -sign(delta) 2 atan(sin psi tan(W tau))

V turns by theta_p / k about a horizontal axis, so V^k carries the
north pole to polar angle theta_p: the plan reaches p.  The asin exists
exactly when k (pi - 2 psi) >= theta_p, the bound's own condition.
Below that count the clamp gives half turns, W tau = pi / 2 and dphi =
-+pi (phases 0 and pi), which keep every axis in the u-w plane, so
segment j ends at polar angle exactly j (pi - 2 psi): the bound again.
minimal_plan_search builds the fewest segments whose bound reaches the
threshold, and minimal_plan_wt gives that plan's W*T before it is
built.  At threshold 1 that count is k*(1) = ceil(pi / (pi - 2 psi)),
and min_switches_estimate, the paper's lower bound on switching events,
is ceil(k*(1) / 2) full modulation periods.  No numerical search is
involved.

No k-segment protocol reaches p in less W*T than dive_plan(k).  Proof
sketch (background: Boscain & Mason, J. Math. Phys. 47, 062101 (2006)):
a segment turns the Bloch vector p by alpha = 2 W tau about a rotation
R whose axis sits at polar angle pi/2 - psi.  The polar angle of R p is
the angle between R^-1 z and p, so by the triangle inequality it moves
by at most the angle between z and R^-1 z,

    g(alpha) = 2 asin(cos psi |sin(alpha / 2)|).

g has period 2 pi and depends on alpha only through |sin(alpha / 2)|, so
each alpha_j may be replaced by its distance to the nearest multiple of
2 pi, which lies in [0, pi], is no larger and has the same g.  On
[0, pi] g is increasing and concave: with c = cos psi the second
derivative of asin(c sin x) is -c (1 - c^2) sin x / (1 - c^2 sin^2 x)^(3/2)
<= 0.  Reaching theta_p from the pole needs sum g(alpha_j) >= theta_p,
and by Jensen sum g(alpha_j) <= k g(sum alpha_j / k), so

    W T >= k asin(sin(theta_p / 2k) / cos psi),

which is k _segment_wt, the W*T that dive_plan(k) attains.  g(pi) =
pi - 2 psi gives descent_bound, and since g(alpha) <= alpha cos psi the
same sum gives speed_limit_wt, the limit as k grows.  The tests check
the lemma on random states and segments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import CouplerParams, ModeState, Protocol, abs2, prefix_products
from .geometry import BlochVector, tilt_angle, to_bloch

# Slack on threshold comparisons: a plan reaches its aim only up to
# rounding, so it aims this far above the threshold (capped at 1, where
# threshold 1.0 taken exactly would be unreachable in floating point).
THRESHOLD_SLACK = 1e-12


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


def _check_plan_inputs(params: CouplerParams, threshold: float) -> None:
    """The threshold and coupler checks of dive_plan and the search."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError("threshold must lie in (0, 1]")
    if params.kappa0 == 0.0:
        raise ValueError("planning requires kappa0 > 0")


def _segment_wt(psi: float, k: int, threshold: float) -> float:
    """W tau of each of k equal segments that reach the threshold.

    asin(sin(theta_p / 2k) / cos psi) at p = threshold + THRESHOLD_SLACK
    (at most 1), clamped at a half turn, pi / 2, when k segments cannot
    reach p.
    """
    theta = math.acos(1.0 - 2.0 * min(1.0, threshold + THRESHOLD_SLACK))
    return math.asin(min(1.0, math.sin(theta / (2.0 * k)) / math.cos(psi)))


def dive_plan(params: CouplerParams, k: int, threshold: float) -> StaircasePlan:
    """k equal segments, segment j at phase j dphi, in closed form.

    They reach the threshold if descent_bound(k) does, and otherwise
    are half turns at phases 0 and pi alternating, which attain
    descent_bound(k) (module docstring).  From mode 1 the state after j
    segments is the first column (d, -conj o) of prefix_products row j.
    """
    if k < 1:
        raise ValueError("segment count must be >= 1")
    _check_plan_inputs(params, threshold)

    psi = abs(tilt_angle(params))
    wt = _segment_wt(psi, k, threshold)
    dphi = -math.copysign(2.0 * math.atan(math.sin(psi) * math.tan(wt)), params.delta)
    # At the clamp dphi = -+pi, and j dphi drifts an ulp from 0 or pi
    # (mod 2 pi) at odd j >= 3, so half turns take their phases exactly.
    phases = [math.pi * (j % 2) if wt == math.pi / 2 else j * dphi for j in range(k)]
    protocol = Protocol.from_pairs((phase, wt / params.rabi) for phase in phases)
    prefix = prefix_products(params, protocol)
    # One to_bloch over the switch states as columns.
    d, o = prefix[1:-1].view(complex).T
    b = to_bloch(ModeState(d, -o.conj()))
    points = tuple(map(BlochVector, b.u.tolist(), b.v.tolist(), b.w.tolist()))
    return StaircasePlan(protocol, points, float(abs2(*prefix[-1, 2:])), len(points))


@dataclass(frozen=True)
class PlanSearch:
    """Outcome of minimal_plan_search.

    curve holds (segment_count, transfer) in order: descent_bound for
    every count below the plan's, then the plan's achieved transfer at
    its own count; estimate is min_switches_estimate, the paper's
    switch bound in full periods.
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
    _check_plan_inputs(params, threshold)
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


def min_switches_estimate(params: CouplerParams) -> int:
    """The paper's lower bound on switching events, in full periods.

    ceil(k*(1) / 2), with k*(1) the plan's count at threshold 1: one
    modulation period holds two segments.  Since pi - 2 psi = 2
    arctan(kappa0 / |delta|), this is ceil(pi / (4 arctan(kappa0 /
    |delta|))) in exact arithmetic; taking it from the count keeps the
    bound from exceeding what the plan needs by rounding.  Raises the
    search's ValueErrors.
    """
    return math.ceil(_minimal_count(params, 1.0, None) / 2)


def minimal_plan_wt(params: CouplerParams, threshold: float, max_segments: int | None) -> float:
    """W*T of the plan minimal_plan_search builds, without building it.

    k _segment_wt at the plan's count k.  Equals the built plan's W*T
    up to rounding, and raises the search's ValueErrors.
    """
    k = _minimal_count(params, threshold, max_segments)
    return k * _segment_wt(abs(tilt_angle(params)), k, threshold)


def speed_limit_wt(params: CouplerParams, p: float) -> float:
    """Lower bound asin(sqrt(p)) / cos psi on the W*T of any protocol moving |a2|^2 = p.

    Detuning leaves the Bloch polar angle alone and coupling turns it at a
    rate of at most 2 kappa0, so theta_p = 2 asin(sqrt(p)) needs T >= asin(sqrt(p)) / kappa0.
    """
    if not 0.0 <= p <= 1.0 or params.kappa0 == 0.0:
        raise ValueError("the speed limit needs p in [0, 1] and kappa0 > 0")
    return math.asin(math.sqrt(p)) / (params.kappa0 / params.rabi)


def minimal_plan_search(
    params: CouplerParams,
    threshold: float = 0.99,
    max_segments: int | None = None,
) -> PlanSearch:
    """Smallest segment count whose dive plan reaches the threshold.

    dive_plan attains descent_bound at every count, so the minimal count
    k is the first with descent_bound(k) >= threshold, or max_segments
    if that comes first, and only dive_plan(k) is built.  Raises
    PlanSearchError with that plan if it falls short of the threshold.
    """
    k = _minimal_count(params, threshold, max_segments)
    plan = dive_plan(params, k, threshold)
    curve = tuple((j, descent_bound(params, j)) for j in range(1, k)) + ((k, plan.achieved),)
    if plan.achieved >= threshold - THRESHOLD_SLACK:
        return PlanSearch(plan, curve, min_switches_estimate(params))
    raise PlanSearchError(
        f"no plan reached {threshold:g} within {k} segments (best {plan.achieved:.6f})",
        plan,
        curve,
    )
