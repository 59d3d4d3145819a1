"""Property tests: the closed-form two-segment solver reaches the ceiling
cos^2(psi - Theta/2) (1 when the criterion holds), its W*T depends only
on |delta| / kappa0 and phi up to the mirror (delta, phi) -> (-delta, -phi),
the switch is the first crossing (t1 <= t2), and solve_fraction cuts at
the first time the transfer reaches p."""

import math

from hypothesis import assume, given
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    ModeState,
    Protocol,
    critical_phase,
    propagate,
    protocol_propagator,
    solve_fraction,
    solve_two_step,
    two_step_ceiling,
    two_step_feasible,
)
from modeswitch.dynamics import abs2
from modeswitch.verify import _brute_two_step_maxima


@st.composite
def couplers(draw):
    """(delta, kappa0) with |delta| / kappa0 in [0.05, 3], either sign."""
    kappa = draw(st.floats(0.05, 5.0))
    ratio = draw(st.floats(0.05, 3.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    return sign * ratio * kappa, kappa


phases = st.floats(0.0, 2.0 * math.pi)


@st.composite
def feasible_draws(draw):
    """(delta, kappa0, phi) meeting the two-segment criterion, either sign."""
    kappa = draw(st.floats(0.05, 5.0))
    ratio = draw(st.floats(0.0, 1.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    phi_c = critical_phase(ratio)
    phi = phi_c + draw(st.floats(0.0, 1.0)) * (2.0 * math.pi - 2.0 * phi_c)
    return sign * ratio * kappa, kappa, phi


def solve_wt(delta: float, kappa: float, phi: float) -> float:
    params = CouplerParams(delta, kappa)
    sol = solve_two_step(params, phi)
    return params.rabi * (sol.t1 + sol.t2)


@given(couplers(), phases)
def test_solver_reaches_the_ceiling(coupler, phi):
    params = CouplerParams(*coupler)
    sol = solve_two_step(params, phi)
    assert abs(sol.achieved - two_step_ceiling(params, phi)) <= 1e-12
    brute = _brute_two_step_maxima([params], [phi])[0]
    assert abs(brute - two_step_ceiling(params, phi)) <= 1e-12
    assert abs(protocol_propagator(params, sol.protocol()).transfer - sol.achieved) <= 1e-12
    if two_step_feasible(params, phi):
        assert sol.feasible
        assert abs(sol.achieved - 1.0) <= 1e-12


@given(couplers(), phases, st.floats(0.1, 10.0))
def test_solver_duration_is_mirror_and_scale_invariant(coupler, phi, scale):
    delta, kappa = coupler
    wt = solve_wt(delta, kappa, phi)
    assert abs(solve_wt(-delta, kappa, -phi) - wt) <= 1e-12
    assert abs(solve_wt(scale * delta, scale * kappa, phi) - wt) <= 1e-12


@given(couplers(), phases, st.floats(0.0, 1.0))
def test_fraction_cut_hits_target_first(coupler, phi, share):
    params = CouplerParams(*coupler)
    p = share * solve_two_step(params, phi).achieved
    cut = solve_fraction(params, phi, p)
    assert abs(protocol_propagator(params, cut).transfer - p) <= 1e-12
    traj = propagate(params, cut, ModeState.mode1(), 64)
    assert abs2(traj.a2.real, traj.a2.imag).max() <= p + 1e-12


@given(feasible_draws())
def test_switch_is_the_first_crossing(draw):
    """The two switch points give (t1, t2) and (t2, t1); the earlier one wins."""
    delta, kappa, phi = draw
    params = CouplerParams(delta, kappa)
    assume(two_step_feasible(params, phi))
    sol = solve_two_step(params, phi)
    assert sol.t1 <= sol.t2 + 1e-12
    swapped = Protocol.from_pairs([(0.0, sol.t2), (phi, sol.t1)])
    assert abs(protocol_propagator(params, swapped).transfer - 1.0) <= 1e-12
