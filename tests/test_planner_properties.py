"""Property tests: the dive plan attains the descent bound and equals a
per-segment propagation bit for bit, the minimal plan is minimal, meets
its threshold, keeps every segment on its precession circle, and its
dimensionless duration W*T depends only on |delta| / kappa0, is known
before the plan is built, and at two segments is the shortest on a grid
of phases."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    ModeState,
    compose,
    descent_bound,
    dive_plan,
    minimal_plan_search,
    segment_propagator,
    solve_two_step,
    to_bloch,
    two_step_feasible,
)
from modeswitch.planner import minimal_plan_wt
from modeswitch.verify import plan_geometry_residual

# At threshold 1.0 this ratio once left every plan short of 1.0 by rounding.
ROUNDING_CASE = ((-9.206459350378962, 1.5604168390472817), 1.0)


@st.composite
def couplers(draw):
    """(delta, kappa0) with |delta| / kappa0 in [0.05, 12], either sign."""
    kappa = draw(st.floats(0.05, 5.0))
    ratio = draw(st.floats(0.05, 12.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    return sign * ratio * kappa, kappa


thresholds = st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True))


def plan_wt(delta: float, kappa: float, threshold: float) -> float:
    params = CouplerParams(delta, kappa)
    return params.rabi * minimal_plan_search(params, threshold).plan.protocol.total_duration


@given(couplers(), thresholds)
@example(*ROUNDING_CASE)
def test_minimal_plan_meets_threshold_with_fewest_segments(coupler, threshold):
    params = CouplerParams(*coupler)
    search = minimal_plan_search(params, threshold)
    k = len(search.plan.protocol.segments)
    assert search.curve[-1][0] == k
    assert k == 1 or descent_bound(params, k - 1) < threshold
    assert search.plan.achieved >= threshold - 1e-12
    wt = params.rabi * search.plan.protocol.total_duration
    assert abs(minimal_plan_wt(params, threshold, None) - wt) <= 1e-12 * wt
    # Each segment leaves its state at the angle to its axis it entered at.
    assert plan_geometry_residual(params, search.plan) <= 1e-8


@given(couplers())
@example(ROUNDING_CASE[0])
def test_dive_plan_attains_descent_bound(coupler):
    # The search's curve below k* holds descent_bound alone, on the
    # strength of this: the dive plan reaches the bound at every count.
    params = CouplerParams(*coupler)
    k_star = minimal_plan_search(params, 1.0).curve[-1][0]
    for k in range(1, k_star + 1):
        assert abs(dive_plan(params, k).achieved - descent_bound(params, k)) <= 1e-12


def loop_dive(params: CouplerParams, protocol):
    """Reference: segment_propagator, compose and apply from mode 1, one
    segment at a time, to_bloch of each switch state, and .transfer."""
    start = ModeState.mode1()
    acc = segment_propagator(params, protocol.segments[0])
    points = []
    for seg in protocol.segments[1:]:
        points.append(to_bloch(acc.apply(start)))
        acc = compose(segment_propagator(params, seg), acc)
    return points, acc.transfer


@st.composite
def dives(draw):
    """A coupler and a cap from 1 to k*(1) + 2, k*(1) its landing count."""
    coupler = draw(couplers())
    k_land = minimal_plan_search(CouplerParams(*coupler), 1.0).curve[-1][0]
    return coupler, draw(st.integers(1, k_land + 2))


@given(dives())
@example(((-12.0, 1.0), 21))
@example(((3.0, 1.0), 4))
@example(((0.05, 1.0), 3))
def test_dive_plan_equals_the_per_segment_loop(dive):
    # Caps below k*(1) give half turns, k*(1) the landing plan, and caps
    # above it the same landing plan.
    coupler, count = dive
    params = CouplerParams(*coupler)
    plan = dive_plan(params, count)
    points, achieved = loop_dive(params, plan.protocol)
    assert plan.achieved.hex() == achieved.hex()
    assert plan.switches == len(points) == len(plan.protocol.segments) - 1
    for got, want in zip(plan.switch_points, points):
        assert [x.hex() for x in (got.u, got.v, got.w)] == [x.hex() for x in (want.u, want.v, want.w)]


@given(couplers(), thresholds, st.floats(0.1, 10.0))
@example(*ROUNDING_CASE, 2.0)
@example((3.0, 1.0), 0.9, 0.3)
def test_plan_duration_is_sign_and_scale_invariant(coupler, threshold, scale):
    delta, kappa = coupler
    wt = plan_wt(delta, kappa, threshold)
    assert abs(plan_wt(-delta, kappa, threshold) - wt) <= 1e-12
    assert abs(plan_wt(scale * delta, scale * kappa, threshold) - wt) <= 1e-12


@given(st.floats(0.05, 0.99), st.sampled_from((1.0, -1.0)), st.floats(0.3, 3.0))
@settings(max_examples=12)
@example(0.99, -1.0, 1.0)
def test_two_segment_plan_is_shortest_on_a_phase_grid(ratio, sign, kappa):
    # At ratio < 1 the threshold-1 plan has two segments.  No feasible
    # phase on a 1000-point grid gives solve_two_step a shorter protocol,
    # and the best grid phase is within one grid step's W*T change.
    params = CouplerParams(sign * ratio * kappa, kappa)
    protocol = minimal_plan_search(params, 1.0).plan.protocol
    assert len(protocol.segments) == 2
    wt = params.rabi * protocol.total_duration
    grid = [
        params.rabi * solve_two_step(params, phi).protocol().total_duration
        for phi in np.linspace(0.0, 2.0 * math.pi, 1000, endpoint=False)
        if two_step_feasible(params, phi)
    ]
    assert wt <= min(grid) + 1e-12
    assert min(grid) - wt <= np.abs(np.diff(grid)).max()
