import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modeswitch import (
    NORTH,
    SOUTH,
    BlochVector,
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    RotationAxis,
    axis_separation,
    bloch_precess,
    cone_floor,
    leg_time,
    precession_leg,
    rotation_axis,
    solve_two_step,
    static_max_transfer,
    tilt_angle,
    to_bloch,
    transfer_map,
    two_step_ceiling,
    two_step_feasible,
    verify,
)
from modeswitch.geometry import _cross, _dot

SQ2 = math.sqrt(0.5)


def _nonzero(size: int, bound: float = 1.0):
    return st.tuples(*[st.floats(-bound, bound)] * size).filter(
        lambda x: sum(v * v for v in x) > 0.01
    )


couplers = st.builds(CouplerParams, st.floats(-3.0, 3.0), st.floats(0.1, 3.0))
states = _nonzero(4).map(lambda z: ModeState(complex(z[0], z[1]), complex(z[2], z[3])).normalized())
phases = st.floats(0.0, 2.0 * math.pi)


def test_to_bloch_cardinal_states():
    assert to_bloch(ModeState.mode1()).as_array() == pytest.approx([0, 0, 1])
    assert to_bloch(ModeState.mode2()).as_array() == pytest.approx([0, 0, -1])
    assert to_bloch(ModeState(SQ2, SQ2)).as_array() == pytest.approx([1, 0, 0])
    assert to_bloch(ModeState(SQ2, 1j * SQ2)).as_array() == pytest.approx([0, -1, 0])


def test_to_bloch_normalizes_and_rejects_zero():
    b = to_bloch(ModeState(3.0, 0.0))
    assert b.w == pytest.approx(1.0)
    with pytest.raises(ValueError):
        to_bloch(ModeState(0.0, 0.0))


def test_rotation_axis_components():
    params = CouplerParams(1.0, 1.0)
    axis = rotation_axis(params, math.pi / 2.0)
    assert axis.as_array() == pytest.approx([0.0, SQ2, SQ2])
    assert axis.omega == pytest.approx(math.sqrt(2.0))
    with pytest.raises(ValueError):
        RotationAxis((1.0, 1.0, 0.0), 1.0)  # not unit length


@pytest.mark.parametrize(
    "n, omega",
    [((math.nan, 0.0, 0.0), 1.0), ((0.0, 0.0, 1.0), math.nan), ((1.0, math.nan, 0.0), 1.0)],
)
def test_rotation_axis_rejects_nan(n, omega):
    with pytest.raises(ValueError):
        RotationAxis(n, omega)


@pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
def test_a_non_finite_phase_is_named(phi):
    params = CouplerParams(0.5, 1.0)
    calls = (
        rotation_axis,
        solve_two_step,
        two_step_feasible,
        two_step_ceiling,
        axis_separation,
        transfer_map,
    )
    for call in calls:
        with pytest.raises(ValueError, match="phase phi"):
            call(params, phi)


@pytest.mark.parametrize("name", ["chi", "angle"])
@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, np.array([0.2, math.nan])],
    ids=["nan", "inf", "-inf", "column"],
)
def test_leg_time_names_a_non_finite_angle(name, bad):
    axis = rotation_axis(CouplerParams(0.5, 1.0), 0.3)
    angles = {"chi": 0.2, "angle": 1.0, name: bad}
    with pytest.raises(ValueError, match=f"{name} = .* must be finite"):
        leg_time(axis, **angles)


def test_tilt_angle_sign():
    assert tilt_angle(CouplerParams(1.0, 1.0)) == pytest.approx(math.pi / 4.0)
    assert tilt_angle(CouplerParams(-1.0, 1.0)) == pytest.approx(-math.pi / 4.0)
    with pytest.raises(ValueError):
        tilt_angle(CouplerParams(1.0, 0.0))


# Bounded so that no product overflows; signed zeros drawn on purpose.
_components = st.one_of(st.sampled_from((0.0, -0.0)), st.floats(-1e150, 1e150))
_vectors = st.tuples(_components, _components, _components).map(np.array)


@given(_vectors, _vectors)
@example(np.array([0.0, -0.0, 0.0]), np.array([-0.0, 0.0, 1.0]))
@example(np.array([-0.0, 1.0, -0.0]), np.array([1.0, -0.0, -0.0]))
def test_cross_is_np_cross_bit_for_bit(a, b):
    got = [x.hex() for x in _cross(a.tolist(), b.tolist())]
    assert got == [x.hex() for x in np.cross(a, b).tolist()]


def test_precession_sense_matches_amplitudes():
    """The rotation is by -2 W t about the axis, right-handed.

    This is the pinned convention every geometric routine depends on, so
    it is checked directly against the amplitude propagator.
    """
    state = ModeState(0.8 + 0.1j, -0.3 + 0.5j).normalized()
    protocol = Protocol((CouplingSegment(0.9, 0.8),))
    residual = verify.bloch_consistency_residual(0.7, 1.3, protocol.phases, protocol.durations, state)
    assert residual <= 1e-12


@given(couplers, st.lists(st.tuples(phases, st.floats(0.0, 4.0)), min_size=1, max_size=5), states)
def test_precession_sense_random(params, wt_pairs, state):
    """Amplitudes and Bloch precession agree segment by segment."""
    protocol = Protocol.from_pairs((phi, wt / params.rabi) for phi, wt in wt_pairs)
    residual = verify.bloch_consistency_residual(
        params.delta, params.kappa0, protocol.phases, protocol.durations, state
    )
    assert residual < 1e-10


@given(couplers, phases, states, st.lists(st.floats(0.0, 5.0), min_size=1, max_size=5))
def test_precession_preserves_axis_component(params, phase, state, wts):
    """Precession keeps the norm and the component along the axis."""
    axis, times = rotation_axis(params, phase), [wt / params.rabi for wt in wts]
    assert verify.precession_rigidity_residual(axis, to_bloch(state), times) < 1e-12


def test_precession_leg_quarter_turn():
    axis = rotation_axis(CouplerParams(0.0, 1.0), 0.0)  # x axis, W = 1
    # From the north pole the height along y is sin(2 t) = cos(2 t - pi/2).
    c, r, chi = precession_leg(axis, NORTH, (0.0, 1.0, 0.0))
    assert (c, r, chi) == pytest.approx((0.0, 1.0, -math.pi / 2.0), abs=1e-15)
    t = leg_time(axis, chi, 0.0)
    assert t == pytest.approx(math.pi / 4.0)  # 2 W t = pi/2
    assert bloch_precess(axis, NORTH, t).as_array() == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)


def test_precession_leg_north_to_south_half_turn():
    params = CouplerParams(0.0, 2.0)
    axis = rotation_axis(params, 1.3)  # equatorial, W = 2
    c, r, chi = precession_leg(axis, NORTH, (0.0, 0.0, 1.0))
    assert (c, r, chi) == pytest.approx((0.0, 1.0, 0.0), abs=1e-15)
    t = leg_time(axis, chi, math.pi)
    assert t == pytest.approx(math.pi / 4.0)  # 2 W t = pi
    assert bloch_precess(axis, NORTH, t).as_array() == pytest.approx(SOUTH.as_array(), abs=1e-15)
    # A leg rounded just past its target is already there; one further
    # past needs almost a full turn.
    assert leg_time(axis, math.pi + 1e-12, math.pi) == 0.0
    assert leg_time(axis, math.pi + 1e-6, math.pi) == pytest.approx(math.pi / 2.0, abs=1e-6)


@given(couplers, phases, st.floats(0.0, 4.0), states, _nonzero(3, bound=4.0), phases)
def test_precession_leg_reproduces_the_height(params, phase, wt, state, along, angle):
    """The leg height c + r cos(2 W t + chi), sampled and at leg_time."""
    seg = CouplingSegment(phase, wt / params.rabi)
    residual = verify.precession_leg_residual(
        params.delta, params.kappa0, seg.phase, seg.duration, state, along, angle
    )
    assert residual <= 1e-12


def test_precession_leg_check_rejects_the_wrong_sense(monkeypatch):
    def reversed_leg(axis, start, along):
        # The wrong precession sense: chi negated.
        c, r, chi = precession_leg(axis, start, along)
        return c, r, -chi

    assert verify.check_precession_leg(np.random.default_rng(20240817), 20).passed
    monkeypatch.setattr(verify, "precession_leg", reversed_leg)
    res = verify.check_precession_leg(np.random.default_rng(20240817), 20)
    assert not res.passed
    assert res.residual > 0.1, res.detail


def test_bloch_consistency_check_rejects_the_wrong_sense(monkeypatch):
    def reversed_precess(axis, start, t):
        # The wrong precession sense: turned by +2 W t.
        return bloch_precess(axis, start, -t)

    assert verify.check_bloch_consistency(np.random.default_rng(20240817), 20).passed
    monkeypatch.setattr(verify, "bloch_precess", reversed_precess)
    res = verify.check_bloch_consistency(np.random.default_rng(20240817), 20)
    assert not res.passed
    assert res.residual > 0.1, res.detail


# delta, kappa0, phase, a point, a time, a direction and a target angle.
_geometry_cases = st.tuples(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 3.0),
    phases,
    _nonzero(3, bound=2.0),
    st.floats(0.0, 5.0),
    _nonzero(3, bound=4.0),
    phases,
)


@given(st.lists(_geometry_cases, min_size=1, max_size=6))
def test_geometry_on_columns_is_the_one_case_path_bit_for_bit(cases):
    """rotation_axis, bloch_precess, precession_leg, leg_time, _dot and
    _cross on columns of cases, against each case on floats."""
    delta, kappa0, phase, start, t, along, angle = (np.array(x) for x in zip(*cases))
    axes = rotation_axis((delta, kappa0), phase)
    starts = BlochVector(*start.T)
    c, r, chi = precession_leg(axes, starts, along.T)
    columns = [
        *axes.n,
        axes.omega,
        *bloch_precess(axes, starts, t),
        bloch_precess(axes, starts, t).norm,
        c,
        r,
        chi,
        leg_time(axes, chi, angle),
        _dot(starts, along.T),
        *_cross(starts, along.T),
    ]
    for k, (d, kap, ph, p, tk, a, ang) in enumerate(cases):
        axis = rotation_axis(CouplerParams(d, kap), ph)
        point = BlochVector(*p)
        leg = precession_leg(axis, point, a)
        one = [
            *axis.n,
            axis.omega,
            *bloch_precess(axis, point, tk),
            bloch_precess(axis, point, tk).norm,
            *leg,
            leg_time(axis, leg[2], ang),
            _dot(point, a),
            *_cross(point, a),
        ]
        assert [float(x).hex() for x in one] == [float(col[k]).hex() for col in columns]


def test_column_axes_keep_the_guards():
    with pytest.raises(ValueError, match="unit"):
        RotationAxis((np.array([1.0, 2.0]), np.zeros(2), np.zeros(2)), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        RotationAxis((np.ones(2), np.zeros(2), np.zeros(2)), np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="phase phi"):
        rotation_axis((np.ones(2), np.ones(2)), np.array([0.3, np.inf]))


@pytest.mark.parametrize(
    "params, phi",
    [
        ((0.5, 1.0), np.array([0.1, 2.0, -3.0, math.pi])),
        (CouplerParams(-1.7, 0.4), np.array([0.1, 2.0, -3.0, math.pi])),
        ((np.array([[0.5, -1.7, 0.0]]), 1.0), np.array([[0.3], [4.0]])),
    ],
    ids=["a float pair", "CouplerParams", "(1, m) against (n, 1)"],
)
def test_a_column_in_any_field_broadcasts_the_axis(params, phi):
    """Each entry of a column axis, in n, omega and bloch_precess, is its
    scalar call bit for bit, wherever the column enters."""
    axis = rotation_axis(params, phi)
    delta, kappa0 = (params.delta, params.kappa0) if isinstance(params, CouplerParams) else params
    delta, kappa0, phi = np.broadcast_arrays(delta, kappa0, phi)
    assert axis.as_array().shape == (3, *phi.shape)
    assert axis.omega.shape == phi.shape
    moved = bloch_precess(axis, NORTH, 0.7)
    for idx in np.ndindex(phi.shape):
        one = rotation_axis(CouplerParams(float(delta[idx]), float(kappa0[idx])), float(phi[idx]))
        want = [*one.n, one.omega, *bloch_precess(one, NORTH, 0.7)]
        got = [*(c[idx] for c in axis.n), axis.omega[idx], *(c[idx] for c in moved)]
        assert [float(x).hex() for x in got] == [x.hex() for x in want]


def test_circle_through_and_pole_radii():
    # The circles through the poles sit at angles pi/2 -+ psi from any axis.
    params = CouplerParams(1.0, 1.0)
    psi = tilt_angle(params)
    n = rotation_axis(params, 0.3).as_array()
    assert math.acos(float(np.dot(n, NORTH.as_array()))) == pytest.approx(math.pi / 2.0 - psi)
    assert math.acos(float(np.dot(n, SOUTH.as_array()))) == pytest.approx(math.pi / 2.0 + psi)


def test_cone_floor_matches_static_bound():
    for ratio in (0.2, 0.7, 1.0, 3.0):
        params = CouplerParams(ratio, 1.0)
        floor = cone_floor(params)
        assert (1.0 - floor) / 2.0 == pytest.approx(static_max_transfer(params))
