import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    InfeasibleTransferError,
    ModeState,
    axis_separation,
    critical_phase,
    feasibility_map,
    propagate,
    protocol_propagator,
    pushpull_times,
    solve_fraction,
    solve_two_step,
    transfer_map,
    two_step_ceiling,
    two_step_feasible,
    verify,
)
from modeswitch.dynamics import abs2
from modeswitch.oracle import IntegrationConfig, integrate

# Frozen from the closed form W t1 = arctan(W / sqrt(kappa^2 - delta^2))
# at delta/kappa = 0.5 and confirmed by the RK4 oracle.
PUSHPULL_T1_OVER_PI = 0.29021531162758313
# Frozen infeasible-case ceiling at (ratio, phi) = (0.5, pi/4), matching
# brute-force maximization to the tolerance used below.
CEILING_HALF_QUARTER = 0.9869917188368863


def test_pushpull_frozen_times():
    params = CouplerParams(0.5, 1.0)
    sol = pushpull_times(params)
    w = params.rabi
    assert sol.t1 * w / math.pi == pytest.approx(PUSHPULL_T1_OVER_PI, abs=1e-14)
    assert sol.t2 * w / math.pi == pytest.approx(1.0 - PUSHPULL_T1_OVER_PI, abs=1e-14)
    assert sol.phi == math.pi
    assert sol.feasible
    assert sol.achieved == pytest.approx(1.0, abs=1e-12)


@given(st.floats(0.0, 0.95))
def test_pushpull_composite_diagonal_vanishes(ratio):
    """|D| = 0 after the push-pull pair, and its first segment splits 50:50."""
    assert verify.pushpull_identity_residual(CouplerParams(ratio, 1.0)) < 1e-12


def test_pushpull_oracle_confirmation():
    params = CouplerParams(0.5, 1.0)
    sol = pushpull_times(params)
    final = integrate(params, sol.protocol(), ModeState.mode1(), IntegrationConfig())
    assert abs(final.transfer - 1.0) < 1e-8


def test_pushpull_requires_small_detuning():
    # Equal detuning and coupling is the degenerate boundary: a full
    # transfer still exists there in principle, but not via these times.
    with pytest.raises(InfeasibleTransferError) as exc:
        pushpull_times(CouplerParams(1.0, 1.0))
    assert exc.value.achievable == pytest.approx(1.0, abs=1e-12)
    assert "planner" in str(exc.value)
    with pytest.raises(InfeasibleTransferError) as exc:
        pushpull_times(CouplerParams(1.5, 1.0))
    assert exc.value.achievable < 1.0


@pytest.mark.parametrize("delta", [1.0, -1e-300, 1e300])
def test_pushpull_without_coupling_transfers_nothing(delta):
    # kappa0 = 0 has no ratio, so the ceiling is not asked for; the planner
    # refuses kappa0 = 0 too, so the message does not point there.
    with pytest.raises(InfeasibleTransferError, match=r"\|delta\| < kappa0") as exc:
        pushpull_times(CouplerParams(delta, 0.0))
    assert exc.value.achievable == 0.0
    assert "planner" not in str(exc.value)
    assert "nothing transfers" in str(exc.value)
    with pytest.raises(InfeasibleTransferError) as exc:
        pushpull_times(CouplerParams(2.0, 1.0))
    assert "planner" in str(exc.value)


def test_pushpull_times_at_extreme_scales():
    # kappa0^2 - delta^2 once overflowed at kappa0 1e300, vanished at
    # 1e-200 and went subnormal at 1e-160, where W t1 came out 0.91174099.
    half = CouplerParams(0.5, 1.0)
    cases = ((0.5, 1e300, math.pi / 4.0), (0.0, 1e-200, math.pi / 4.0),
             (5e-161, 1e-160, half.rabi * pushpull_times(half).t1))
    for delta, kappa, want in cases:
        params = CouplerParams(delta, kappa)
        assert params.rabi * pushpull_times(params).t1 == pytest.approx(want, rel=1e-15)


@given(st.floats(0.0, 0.99), st.sampled_from((1.0, -1.0)), st.floats(0.1, 10.0),
       st.sampled_from((900, -900)))
def test_pushpull_times_are_scale_free(ratio, sign, kappa, e):
    """W t1 depends on delta / kappa0 alone, also at 2^+-900 times the scale."""
    params = CouplerParams(sign * ratio * kappa, kappa)
    scaled = CouplerParams(math.ldexp(params.delta, e), math.ldexp(kappa, e))
    wt1 = params.rabi * pushpull_times(params).t1
    assert abs(scaled.rabi * pushpull_times(scaled).t1 - wt1) <= 1e-15 * wt1


def test_feasibility_criterion_boundary():
    params = CouplerParams(0.5, 1.0)
    phi_c = critical_phase(0.5)
    assert phi_c == pytest.approx(math.acos(0.5))
    assert two_step_feasible(params, phi_c)  # boundary counts as feasible
    assert two_step_feasible(params, phi_c + 1e-6)
    assert not two_step_feasible(params, phi_c - 1e-6)


def test_critical_phase_domain():
    assert critical_phase(0.0) == pytest.approx(0.0)
    assert critical_phase(1.0) == pytest.approx(math.pi)
    with pytest.raises(ValueError):
        critical_phase(1.01)
    with pytest.raises(ValueError):
        critical_phase(-0.1)


def test_axis_separation_and_ceiling():
    params = CouplerParams(0.5, 1.0)
    # acos near 1 amplifies the last float ulp to ~1e-8.
    assert axis_separation(params, 0.0) == pytest.approx(0.0, abs=1e-7)
    theta = axis_separation(params, math.pi / 4.0)
    psi = math.atan(0.5)
    expected = math.cos(psi - theta / 2.0) ** 2
    assert two_step_ceiling(params, math.pi / 4.0) == pytest.approx(expected)
    assert two_step_ceiling(params, math.pi / 4.0) == pytest.approx(
        CEILING_HALF_QUARTER, abs=1e-12
    )
    assert two_step_ceiling(params, math.pi) == 1.0


def test_ceiling_matches_brute_force_at_negative_detuning():
    from modeswitch.verify import _brute_two_step_maxima

    phi = 1.0
    for delta in (0.6, -0.6):
        params = CouplerParams(delta, 1.0)
        brute = _brute_two_step_maxima((delta, 1.0), phi)[0]
        assert brute == pytest.approx(0.98643, abs=1e-5)
        assert two_step_ceiling(params, phi) == pytest.approx(brute, abs=1e-7)


@pytest.mark.parametrize("kappa", [1e-12, 1e-9, 1e-6])
@pytest.mark.parametrize("delta", [0.5, -0.5])
def test_ceiling_keeps_its_digits_at_weak_coupling(delta, kappa):
    """kappa0 / W -> 0 leaves kr^2 (hypot(A, C) + |C|)^2 its relative
    precision, where cos^2(psi - Theta / 2) rounds near 1 first."""
    from modeswitch.verify import _brute_two_step_maxima

    params = CouplerParams(delta, kappa)
    brute = _brute_two_step_maxima((delta, kappa), 1.0)[0]
    assert two_step_ceiling(params, 1.0) == pytest.approx(brute, rel=1e-6, abs=0.0)


def test_solve_two_step_matches_pushpull():
    params = CouplerParams(0.5, 1.0)
    sol = solve_two_step(params, math.pi)
    ref = pushpull_times(params)
    assert sol.feasible
    assert sol.t1 == pytest.approx(ref.t1, abs=1e-9)
    assert sol.t2 == pytest.approx(ref.t2, abs=1e-9)


def test_solve_two_step_feasible_draws():
    rng = np.random.default_rng(9)
    hits = 0
    while hits < 20:
        ratio = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, math.pi)
        params = CouplerParams(ratio, 1.0)
        if not two_step_feasible(params, phi):
            continue
        if abs(math.cos(phi) - (1.0 - 2.0 * ratio * ratio)) < 1e-3:
            continue  # stay off the tangency boundary for this test
        hits += 1
        sol = solve_two_step(params, phi)
        assert sol.feasible
        assert sol.achieved == pytest.approx(1.0, abs=1e-9)
        m = protocol_propagator(params, sol.protocol())
        assert m.transfer == pytest.approx(1.0, abs=1e-9)


def test_solve_two_step_infeasible_reports_ceiling():
    params = CouplerParams(0.5, 1.0)
    sol = solve_two_step(params, math.pi / 4.0)
    assert not sol.feasible
    assert sol.achieved == pytest.approx(CEILING_HALF_QUARTER, abs=1e-8)
    m = protocol_propagator(params, sol.protocol())
    assert m.transfer == pytest.approx(sol.achieved, abs=1e-12)


def test_solve_two_step_degenerate_coincident():
    # axis(phi) parallel to axis(0): delta = 0 at phi = 0 (both pole
    # circles are the same great circle) and at phi = pi, and any delta at
    # phi = 0.  The first leg is flat, so the switch comes at once and a
    # half turn follows.
    for delta, phi in ((0.0, 0.0), (0.0, math.pi), (0.6, 0.0), (-1.7, 0.0)):
        params = CouplerParams(delta, 1.0)
        sol = solve_two_step(params, phi)
        assert sol.feasible == (delta == 0.0)
        assert sol.t1 == 0.0
        assert sol.achieved == pytest.approx(two_step_ceiling(params, phi), abs=1e-12)
        assert params.rabi * (sol.t1 + sol.t2) == pytest.approx(math.pi / 2.0, abs=1e-12)
    # delta = 1e-10 at phi = 0.3: the crossing's t1 falls short of 0 by less
    # than ANGLE_TOL, so one segment runs to its peak and transfers
    # 1 - (delta / W)^2.
    params = CouplerParams(1e-10, 1.0)
    sol = solve_two_step(params, 0.3)
    assert sol.feasible
    assert sol.t1 == 0.0
    assert sol.achieved == pytest.approx(1.0, abs=1e-12)
    assert params.rabi * (sol.t1 + sol.t2) == pytest.approx(math.pi / 2.0, abs=1e-12)


def test_transfer_map_values_and_peak_location():
    params = CouplerParams(0.0, 1.0)
    tm = transfer_map(params, math.pi, 65)
    assert tm.values.shape == (65, 65)
    assert float(tm.values.min()) >= 0.0
    assert float(tm.values.max()) <= 1.0 + 1e-12
    # With delta = 0 the map is sin^2(W (t1 - t2)); peaks sit where
    # |W t1 - W t2| = pi/2, e.g. (pi/4, 3 pi/4), and vanish on the diagonal.
    i4 = 16  # W t = pi/4 on the 65-point grid
    i34 = 48
    mid = 32
    assert tm.values[i4, i34] == pytest.approx(1.0, abs=1e-12)
    assert tm.values[i34, i4] == pytest.approx(1.0, abs=1e-12)
    assert tm.values[mid, mid] == pytest.approx(0.0, abs=1e-12)
    assert tm.t1_axis[i4] == pytest.approx(0.25)


def test_transfer_map_peak_reaches_one_iff_feasible():
    # On-grid optimum: ratio 0, phi pi gives exact 1 at grid nodes; an
    # infeasible combination stays below 1 by a finite margin.
    feasible_peak = transfer_map(CouplerParams(0.0, 1.0), math.pi, 65).peak
    assert feasible_peak == pytest.approx(1.0, abs=1e-12)
    infeasible_peak = transfer_map(CouplerParams(0.5, 1.0), math.pi / 4.0, 65).peak
    assert infeasible_peak < 1.0 - 1e-3


def test_feasibility_map_matches_pointwise():
    # Every cell is the scalar criterion at its (ratio, phi), ratio 0 included.
    for n in (2, 40, 257):
        fm = feasibility_map(n)
        assert fm.feasible.shape == (n, n)
        pointwise = [
            [two_step_feasible(CouplerParams(r, 1.0), phi) for phi in fm.phis.tolist()]
            for r in fm.ratios.tolist()
        ]
        assert fm.feasible.tolist() == pointwise


def test_solve_fraction_endpoints():
    params = CouplerParams(0.5, 1.0)
    full = solve_fraction(params, math.pi, 1.0)
    ref = pushpull_times(params)
    assert full.total_duration == pytest.approx(ref.t1 + ref.t2, abs=1e-12)
    empty = solve_fraction(params, math.pi, 0.0)
    assert empty.total_duration == 0.0


def test_solve_fraction_first_crossing():
    params = CouplerParams(0.5, 1.0)
    p = 0.6
    prot = solve_fraction(params, math.pi, p)
    final = protocol_propagator(params, prot).apply(ModeState.mode1())
    assert final.transfer == pytest.approx(p, abs=1e-9)
    # Nothing before the cut overshoots the target.
    traj = propagate(params, prot, ModeState.mode1(), 200)
    assert abs2(traj.a2.real, traj.a2.imag).max() <= p + 1e-9


def test_solve_fraction_single_segment_cut():
    params = CouplerParams(0.5, 1.0)
    prot = solve_fraction(params, math.pi, 0.3)
    assert len(prot.segments) == 1
    final = protocol_propagator(params, prot).apply(ModeState.mode1())
    assert final.transfer == pytest.approx(0.3, abs=1e-9)


def test_solve_fraction_unreachable_target():
    params = CouplerParams(0.5, 1.0)
    with pytest.raises(InfeasibleTransferError) as exc:
        solve_fraction(params, math.pi / 4.0, 0.999)
    assert exc.value.achievable == pytest.approx(CEILING_HALF_QUARTER, abs=1e-6)
    with pytest.raises(ValueError):
        solve_fraction(params, math.pi, 1.5)


NO_COUPLING_ENTRIES = {
    "two_step_feasible": two_step_feasible,
    "two_step_ceiling": two_step_ceiling,
    "solve_two_step": solve_two_step,
    "solve_fraction": lambda params, phi: solve_fraction(params, phi, 0.5),
}


@pytest.mark.parametrize("phi", [0.0, 1.0, math.pi])
@pytest.mark.parametrize("entry", NO_COUPLING_ENTRIES)
def test_no_coupling_names_the_option(entry, phi):
    """At kappa0 = 0 the two-segment entries have no ratio to judge by; the
    ValueError names the option that sets it."""
    with pytest.raises(ValueError, match="^ratio undefined for kappa0 = 0: set kappa > 0$"):
        NO_COUPLING_ENTRIES[entry](CouplerParams(0.5, 0.0), phi)


finite_phases = st.floats(-10.0, 10.0)


@given(
    st.lists(
        st.tuples(st.floats(0.0, 3.0), st.floats(1e-3, 5.0), finite_phases), min_size=1, max_size=8
    ),
    finite_phases,
)
def test_feasibility_on_columns_is_each_scalar_call(cells, phi0):
    """The (delta, kappa0) pair form takes floats or columns that broadcast
    with phi; each entry is its scalar call on a CouplerParams, bit for bit."""
    ratio, kappa, phi = np.array(cells).T
    # Both signs of delta, alternating.
    delta = ratio * kappa * np.where(np.arange(len(ratio)) % 2, -1.0, 1.0)

    def scalar(d, k, p):
        return two_step_feasible(CouplerParams(d, k), p)

    column = two_step_feasible((delta, kappa), phi)
    assert column.dtype == bool
    assert column.tolist() == [scalar(*c) for c in zip(delta, kappa, phi)]
    # A float beside a column.
    assert two_step_feasible((delta, kappa), phi0).tolist() == [
        scalar(d, k, phi0) for d, k in zip(delta, kappa)
    ]
    assert two_step_feasible((delta[0], 1.0), phi).tolist() == [
        scalar(delta[0], 1.0, p) for p in phi
    ]
    # (n, 1) against (1, m).
    table = two_step_feasible((delta[:, None], kappa[:, None]), phi[None, :])
    assert table.shape == (len(delta), len(phi))
    assert table.tolist() == [[scalar(d, k, p) for p in phi] for d, k in zip(delta, kappa)]
    # A float pair is a float case.
    pair = float(delta[0]), float(kappa[0])
    assert two_step_feasible(pair, phi0) is scalar(*pair, phi0)


@pytest.mark.parametrize("kappa", [0.0, np.array([1.0, 0.0])])
def test_feasibility_on_columns_keeps_the_scalar_errors(kappa):
    with pytest.raises(ValueError, match="^ratio undefined for kappa0 = 0: set kappa > 0$"):
        two_step_feasible((np.array([0.5, 0.5]), kappa), 1.0)
    for phi in (math.nan, math.inf, np.array([1.0, -math.inf])):
        with pytest.raises(ValueError, match="^coupling phase phi = .* must be finite$"):
            two_step_feasible((np.array([0.5, 0.5]), 1.0), phi)
    with pytest.raises(ValueError, match="^delta = .* must be finite$"):
        two_step_feasible((np.array([0.5, math.nan]), 1.0), 1.0)
    with pytest.raises(ValueError, match="^coupling magnitude kappa0 must be nonnegative"):
        two_step_feasible((0.5, np.array([1.0, -1.0])), 1.0)
