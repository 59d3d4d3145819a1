import math
from collections import Counter

import numpy as np
import pytest

from modeswitch import dynamics, planner
from modeswitch import (
    CouplerParams,
    ModeState,
    PlanSearchError,
    descent_bound,
    dive_plan,
    min_switches_estimate,
    minimal_plan_search,
    propagate,
    segment_propagator,
    static_max_transfer,
    tilt_angle,
    to_bloch,
)


def test_min_switches_estimate_values():
    assert min_switches_estimate(CouplerParams(1.0, 1.0)) == 1
    assert min_switches_estimate(CouplerParams(2.0, 1.0)) == 2
    assert min_switches_estimate(CouplerParams(10.0, 1.0)) == 8
    # Zero detuning needs one segment, so one period; kappa0 = 0 cannot plan.
    assert min_switches_estimate(CouplerParams(0.0, 1.0)) == 1
    with pytest.raises(ValueError, match="kappa0 > 0"):
        min_switches_estimate(CouplerParams(1.0, 0.0))


def test_min_switches_estimate_large_ratio_asymptote():
    # For large ratios the estimate approaches pi * ratio / 4.
    for ratio in (4.0, 6.0, 10.0, 25.0, 100.0):
        est = min_switches_estimate(CouplerParams(ratio, 1.0))
        assert abs(est - math.pi * ratio / 4.0) <= 1.0


def test_descent_bound_shape():
    params = CouplerParams(1.0, 1.0)
    # step is pi/2, so two segments reach the south pole exactly.
    assert descent_bound(params, 1) == pytest.approx(0.5)
    assert descent_bound(params, 2) == pytest.approx(1.0)
    assert descent_bound(params, 5) == pytest.approx(1.0)
    prev = 0.0
    p2 = CouplerParams(3.0, 1.0)
    for k in range(1, 12):
        b = descent_bound(p2, k)
        assert b >= prev - 1e-15
        prev = b


def test_descent_bound_first_step_is_static_max():
    for ratio in (0.5, 1.5, 4.0):
        params = CouplerParams(ratio, 1.0)
        assert descent_bound(params, 1) == pytest.approx(static_max_transfer(params))


def test_dive_plan_attains_bound():
    for ratio, k in ((2.0, 2), (3.0, 3), (6.0, 5)):
        params = CouplerParams(ratio, 1.0)
        plan = dive_plan(params, k, 1.0)
        assert len(plan.protocol.segments) == k
        assert plan.achieved == pytest.approx(descent_bound(params, k), abs=1e-12)


def test_dive_plan_exact_landing():
    for ratio in (0.5, 1.0, 2.0, 4.0):
        params = CouplerParams(ratio, 1.0)
        psi = abs(tilt_angle(params))
        k_full = math.ceil(math.pi / (math.pi - 2.0 * psi))
        plan = dive_plan(params, k_full, 1.0)
        assert plan.achieved == pytest.approx(1.0, abs=1e-12)
        assert len(plan.protocol.segments) == k_full


def test_greedy_reproduces_two_step():
    params = CouplerParams(0.5, 1.0)
    plan = dive_plan(params, 2, 1.0)
    assert len(plan.protocol.segments) == 2
    assert plan.achieved == pytest.approx(1.0, abs=1e-6)


def test_greedy_exact_at_ratio_two():
    params = CouplerParams(2.0, 1.0)
    plan = dive_plan(params, 4, 1.0)
    assert plan.achieved == pytest.approx(1.0, abs=1e-9)
    assert plan.switches == 3


@pytest.mark.parametrize("threshold", [1.5, -0.5, 0.0, math.nan])
def test_dive_plan_rejects_thresholds_outside_the_unit_interval(threshold):
    # The same check as the search: no silent clamp to 1, no bare
    # "math domain error" from acos, no plan for a threshold of 0.
    params = CouplerParams(3.0, 1.0)
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
        dive_plan(params, 4, threshold)
    with pytest.raises(ValueError, match=r"threshold must lie in \(0, 1\]"):
        minimal_plan_search(params, threshold)


def test_dive_plan_zero_detuning_single_segment():
    plan = minimal_plan_search(CouplerParams(0.0, 1.0), 1.0, max_segments=5).plan
    assert len(plan.protocol.segments) == 1
    assert plan.achieved == pytest.approx(1.0, abs=1e-12)


def test_dive_plan_descent_is_monotone():
    params = CouplerParams(3.0, 1.0)
    plan = dive_plan(params, 5, 1.0)
    traj = propagate(params, plan.protocol, ModeState.mode1(), 512)
    # Per-segment running minima of w must strictly decrease.
    boundaries = plan.protocol.ends
    minima = []
    idx = 0
    current = math.inf
    for t, w in zip(traj.t.tolist(), to_bloch(traj).w.tolist()):
        current = min(current, w)
        while idx < len(boundaries) and t >= boundaries[idx] - 1e-12:
            minima.append(current)
            idx += 1
    assert len(minima) == len(plan.protocol.segments)
    for a, b in zip(minima, minima[1:]):
        assert b < a - 1e-6


def test_minimal_search_ratio_two():
    params = CouplerParams(2.0, 1.0)
    search = minimal_plan_search(params)
    assert search.plan.achieved >= 0.99
    assert len(search.plan.protocol.segments) == 4
    assert search.plan.switches == 3
    assert search.estimate == 2
    counts = [k for k, _ in search.curve]
    assert counts == sorted(counts)
    values = [a for _, a in search.curve]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9
    for k, a in search.curve:
        assert a <= descent_bound(params, k) + 1e-9


@pytest.mark.parametrize("delta", [1.0, -1.0])
def test_minimal_search_builds_one_plan(monkeypatch, delta):
    calls = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return counted

    for module, name in ((planner, "dive_plan"), (dynamics, "segment_propagator")):
        monkeypatch.setattr(module, name, spy(module, name))
    search = minimal_plan_search(CouplerParams(delta, 0.003), 0.9)
    assert len(search.plan.protocol.segments) == 417
    # One plan, propagated once: one propagator per segment.
    assert calls == {"dive_plan": 1, "segment_propagator": 417}


def test_minimal_search_cap_raises_with_best():
    for delta, cap in ((3.0, 2), (-3.0, 2), (5.5, 3), (-5.5, 3)):
        params = CouplerParams(delta, 1.0)
        with pytest.raises(PlanSearchError) as exc:
            minimal_plan_search(params, max_segments=cap)
        err = exc.value
        assert err.best.achieved < 0.99
        assert err.best.achieved == pytest.approx(descent_bound(params, cap), abs=1e-12)
        assert len(err.curve) == cap
        # The capped plan is half turns at phases exactly 0 and pi.
        protocol = err.best.protocol
        assert protocol.phases == tuple(math.pi * (j % 2) for j in range(cap))
        assert protocol.durations == (math.pi / 2.0 / params.rabi,) * cap
    # psi rounds to pi/2: no count descends, so only a cap ends the search.
    flat = CouplerParams(1.0, 1e-300)
    with pytest.raises(ValueError, match="too large"):
        minimal_plan_search(flat)
    with pytest.raises(PlanSearchError):
        minimal_plan_search(flat, max_segments=3)


EQUAL_SEGMENT_PLANS = [
    (0.5, 1.0, 1.8235),
    (1.5, 1.0, 3.3689),
    (2.0, 1.0, 4.1077),
    (3.0, 1.0, 6.7842),
    (5.5, 1.0, 11.9540),
    (0.5, 0.9, 1.4250),
    (2.0, 0.99, 3.7340),
    (3.0, 0.9, 5.3257),
    (5.5, 0.99, 10.2764),
]


@pytest.mark.parametrize(
    "ratio, threshold, wt",
    EQUAL_SEGMENT_PLANS,
    ids=[f"{r}-{wt}" if p == 1.0 else f"{r}-{p}-{wt}" for r, p, wt in EQUAL_SEGMENT_PLANS],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_threshold_one_plans_are_equal_segments(ratio, threshold, wt, sign):
    # W*T of k equal segments with a constant phase step; at ratios 1.5, 2
    # and 3 (threshold 1) and at ratio 2 (threshold 0.99) a constrained
    # numerical search found no shorter k-segment plan.
    params = CouplerParams(sign * ratio, 1.0)
    plan = minimal_plan_search(params, threshold).plan
    protocol = plan.protocol
    assert params.rabi * protocol.total_duration == pytest.approx(wt, abs=1e-4)
    if threshold < 1.0:
        # Below 1 the plan reaches the threshold, not mode 2.
        assert threshold <= plan.achieved <= threshold + 1e-11
    assert max(protocol.durations) - min(protocol.durations) <= 1e-15
    steps = np.diff(protocol.phases) % (2.0 * math.pi)
    assert np.ptp(np.cos(steps)) <= 1e-12 and np.ptp(np.sin(steps)) <= 1e-12


def test_minimal_plan_wt_before_the_plan_is_built():
    # delta 1, kappa0 0.000246: 6,386 equal landing segments take W*T
    # 9,940, though 6,385 half turns alone would take 10,030.
    params = CouplerParams(1.0, 0.000246)
    plan = minimal_plan_search(params, 1.0).plan
    wt = params.rabi * plan.protocol.total_duration
    assert planner.minimal_plan_wt(params, 1.0, None) == pytest.approx(wt, rel=1e-12)
    assert 9940.0 < wt < 9941.0
    # A cap sets the count; with a flat tilt only a cap gives one.
    assert planner.minimal_plan_wt(CouplerParams(3.0, 1.0), 0.99, 2) == pytest.approx(math.pi)
    flat = CouplerParams(1.0, 1e-300)
    assert planner.minimal_plan_wt(flat, 0.9, 3) == pytest.approx(1.5 * math.pi)
    with pytest.raises(ValueError, match="too large"):
        planner.minimal_plan_wt(flat, 0.9, None)


def test_negative_detuning_mirrors():
    pos = minimal_plan_search(CouplerParams(2.0, 1.0))
    neg = minimal_plan_search(CouplerParams(-2.0, 1.0))
    assert len(neg.plan.protocol.segments) == len(pos.plan.protocol.segments)
    assert neg.plan.achieved >= 0.99


def test_plan_switch_points_match_propagation():
    params = CouplerParams(1.5, 1.0)
    plan = dive_plan(params, 3, 1.0)
    acc_state = ModeState.mode1()
    for seg, point in zip(plan.protocol.segments, plan.switch_points):
        acc_state = segment_propagator(params, seg).apply(acc_state)
        assert to_bloch(acc_state).as_array() == pytest.approx(
            point.as_array(), abs=1e-12
        )
