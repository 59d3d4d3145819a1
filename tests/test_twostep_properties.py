"""Property tests: the closed-form two-segment solver reaches the ceiling
cos^2(psi - Theta/2) (1 when the criterion holds), its W*T depends only
on |delta| / kappa0 and phi up to the mirror (delta, phi) -> (-delta, -phi),
bit for bit under the mirror, the switch is the first crossing (t1 <= t2),
an infeasible solution has t1 == t2, and solve_fraction cuts at the first
time the transfer reaches p."""

import math

from hypothesis import assume, example, given
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
from modeswitch.twostep import ACHIEVED_SLACK, FLAT_LEG_TOL
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
    brute = _brute_two_step_maxima(coupler, phi)[0]
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


@given(couplers(), phases)
@example((-4.834723050882096, 4.3455062179422255), 0.8691281929031798)
def test_mirror_durations_are_bit_for_bit(coupler, phi):
    delta, kappa = coupler
    sol, mirror = (solve_two_step(CouplerParams(s * delta, kappa), s * phi) for s in (1.0, -1.0))
    assert (mirror.t1, mirror.t2) == (sol.t1, sol.t2)
    assert solve_wt(-delta, kappa, -phi) == solve_wt(delta, kappa, phi)


@st.composite
def wide_couplers(draw):
    """(delta, kappa0) with kappa0 from 1e-13 to 100 and |delta| / kappa0 0,
    at most 1e-9, or up to 3, either sign."""
    kappa = 10.0 ** draw(st.floats(-13.0, 2.0))
    ratio = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 3.0)))
    return draw(st.sampled_from((1.0, -1.0))) * ratio * kappa, kappa


# Raw phases, 0, pi and 2 pi among them, and |phi| down to 1e-30.
wide_phases = st.one_of(
    st.sampled_from([0.0, math.pi, 2.0 * math.pi]),
    st.floats(-30.0, -1.0).map(lambda e: 10.0**e),
    st.floats(-30.0, -1.0).map(lambda e: -(10.0**e)),
    st.floats(-20.0, 20.0),
)


@given(wide_couplers(), wide_phases)
@example((-0.762850905447131, 1.4934813735769112), 0.2666321503863186)
@example((1.9348370321949444, 3.7191966881973766), 6.0161315354225655)
def test_infeasible_durations_tie_at_the_ceiling(coupler, phi):
    """Past the criterion the optimum lies on the diagonal t1 = t2, exactly;
    within it the earlier switch gives t1 <= t2, with no slack."""
    params = CouplerParams(*coupler)
    sol = solve_two_step(params, phi)
    # A first leg is flat where |sin(phi / 2)| < FLAT_LEG_TOL, relative to
    # kappa0 / W, or where the half-chord's square underflows.
    kr = params.kappa0 / params.rabi
    half_chord = kr * abs(math.sin(phi / 2.0))
    if two_step_feasible(params, phi):
        assert sol.t1 <= sol.t2
    elif half_chord >= FLAT_LEG_TOL * kr and half_chord * half_chord > 0.0:
        assert sol.t1 == sol.t2
        assert abs(sol.achieved - two_step_ceiling(params, phi)) <= ACHIEVED_SLACK


def test_a_weak_coupling_reaches_the_brute_force_maximum():
    """At kappa0 / W ~ 2e-12 the first leg swings by ~4e-24 along axis(phi),
    and at 2e-15 its half-chord is below FLAT_LEG_TOL, yet the switch is no
    flat leg: the transfer is the diagonal's maximum."""
    for kappa0 in (1e-12, 1e-15):
        params = CouplerParams(0.5, kappa0)
        brute = _brute_two_step_maxima((0.5, kappa0), 1.0)[0]
        assert abs(solve_two_step(params, 1.0).achieved - brute) <= 1e-6 * brute


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
