"""Property test: the speed limit.  The detuning turns the Bloch vector
about z and leaves its polar angle alone; the coupling turns it about a
horizontal axis at rate 2 kappa0.  So the polar angle grows at most
2 kappa0 per unit time, and any protocol that moves |a2|^2 = p from
mode 1 has W*T >= asin(sqrt(p)) / cos(psi).  Random protocols and every
solver's output respect it."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    Protocol,
    minimal_plan_search,
    protocol_propagator,
    pushpull_times,
    solve_fraction,
    solve_two_step,
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
@settings(max_examples=600)
def test_no_protocol_beats_the_speed_limit(case):
    params, protocol = case
    transfer = min(1.0, protocol_propagator(params, protocol).transfer)
    limit = math.asin(math.sqrt(transfer)) / (params.kappa0 / params.rabi)
    assert params.rabi * protocol.total_duration >= limit * (1.0 - 1e-12)
