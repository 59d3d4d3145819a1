"""The time side of planning.  No protocol beats the speed limit
planner.speed_limit_wt (random protocols and every solver's output),
and no k-segment protocol that SLSQP finds beats dive_plan's k equal
segments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from modeswitch import (
    CouplerParams,
    Protocol,
    dive_plan,
    minimal_plan_search,
    protocol_propagator,
    pushpull_times,
    solve_fraction,
    solve_two_step,
    speed_limit_wt,
    two_step_ceiling,
)

phases = st.floats(0.0, 2.0 * math.pi)
units = st.floats(0.0, 1.0)


@st.composite
def couplers(draw, max_ratio):
    """CouplerParams with |delta| / kappa0 in [0, max_ratio], either sign."""
    kappa = draw(st.floats(0.05, 5.0))
    ratio = draw(st.floats(0.0, max_ratio))
    return CouplerParams(draw(st.sampled_from((1.0, -1.0))) * ratio * kappa, kappa)


@st.composite
def random_protocol(draw):
    params = draw(couplers(6.0))
    wts = draw(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6))
    return params, Protocol.from_pairs((draw(phases), wt / params.rabi) for wt in wts)


@st.composite
def two_step(draw):
    params = draw(couplers(6.0))
    return params, solve_two_step(params, draw(phases)).protocol()


@st.composite
def fraction(draw):
    params, phi = draw(couplers(6.0)), draw(phases)
    return params, solve_fraction(params, phi, draw(units) * two_step_ceiling(params, phi))


@st.composite
def pushpull(draw):
    params = draw(couplers(0.99))
    return params, pushpull_times(params).protocol()


@st.composite
def plan(draw):
    params = draw(couplers(12.0))
    threshold = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)))
    return params, minimal_plan_search(params, threshold).plan.protocol


@given(st.one_of(random_protocol(), two_step(), fraction(), pushpull(), plan()))
@example((CouplerParams(0.0, 1.0), Protocol.from_pairs([(0.0, 3.383965502678875e-160)])))
@settings(max_examples=600)
def test_no_protocol_beats_the_speed_limit(case):
    params, protocol = case
    # transfer = |o|^2 rounds to ~1e-16 relative while normal, but to half
    # of 5e-324 absolute once it underflows (above: sqrt of the rounded
    # 1.1e-319 is 1e-5 too large), so the limit is taken two ulps lower.
    transfer = min(1.0, protocol_propagator(params, protocol).transfer)
    limit = speed_limit_wt(params, max(0.0, transfer - 2 * 5e-324))
    assert params.rabi * protocol.total_duration >= limit * (1.0 - 1e-12)


def _transfer(params, x, k):
    """Transfer of W t = |x[:k]| at phases 0, x[k:]."""
    pairs = zip(np.concatenate(([0.0], x[k:])), abs(x[:k]) / params.rabi)
    return protocol_propagator(params, Protocol.from_pairs(pairs)).transfer


@pytest.mark.parametrize("ratio, p", [(0.5, 0.99), (2.0, 0.99), (3.0, 0.9)])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("extra", [0, 1, 2])
def test_equal_segments_are_not_beaten(ratio, p, sign, extra):
    """SLSQP over k durations and k - 1 free phases, minimising W*T with
    transfer >= p, at k = k*, k* + 1 and k* + 2, from seeded starts.
    Each result that reaches q >= p - 1e-9 (SLSQP meets its constraint
    only to a tolerance) is compared with k equal segments aimed at
    min(q, p)."""
    params = CouplerParams(sign * ratio, 1.0)
    k = len(minimal_plan_search(params, p).plan.protocol.segments) + extra
    rng = np.random.default_rng([int(10 * ratio), extra, int(sign > 0)])
    reached = 0
    for _ in range(4):
        x0 = np.concatenate((rng.uniform(0.2, math.pi / 2, k), rng.uniform(0.0, 2 * math.pi, k - 1)))
        res = minimize(
            lambda x: x[:k].sum(),
            x0,
            jac=lambda x: np.concatenate((np.ones(k), np.zeros(k - 1))),
            method="SLSQP",
            bounds=[(0.0, math.pi)] * k + [(None, None)] * (k - 1),
            constraints=[{"type": "ineq", "fun": lambda x: _transfer(params, x, k) - p}],
            options={"ftol": 1e-12, "maxiter": 500},
        )
        q = _transfer(params, res.x, k)
        if q < p - 1e-9:
            continue
        reached += 1
        equal = params.rabi * dive_plan(params, k, min(q, p)).protocol.total_duration
        assert abs(res.x[:k]).sum() >= equal - 1e-9
    assert reached >= 2
