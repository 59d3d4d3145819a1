import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeswitch import (
    NORTH,
    SOUTH,
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    RotationAxis,
    bloch_precess,
    cone_floor,
    leg_time,
    precession_leg,
    rotation_axis,
    static_max_transfer,
    tilt_angle,
    to_bloch,
    verify,
)

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


def test_tilt_angle_sign():
    assert tilt_angle(CouplerParams(1.0, 1.0)) == pytest.approx(math.pi / 4.0)
    assert tilt_angle(CouplerParams(-1.0, 1.0)) == pytest.approx(-math.pi / 4.0)
    with pytest.raises(ValueError):
        tilt_angle(CouplerParams(1.0, 0.0))


def test_precession_sense_matches_amplitudes():
    """The rotation is by -2 W t about the axis, right-handed.

    This is the pinned convention every geometric routine depends on, so
    it is checked directly against the amplitude propagator.
    """
    state = ModeState(0.8 + 0.1j, -0.3 + 0.5j).normalized()
    protocol = Protocol((CouplingSegment(0.9, 0.8),))
    assert verify.bloch_consistency_residual(CouplerParams(0.7, 1.3), protocol, state) <= 1e-12


@given(couplers, st.lists(st.tuples(phases, st.floats(0.0, 4.0)), min_size=1, max_size=5), states)
def test_precession_sense_random(params, wt_pairs, state):
    """Amplitudes and Bloch precession agree segment by segment."""
    protocol = Protocol.from_pairs((phi, wt / params.rabi) for phi, wt in wt_pairs)
    assert verify.bloch_consistency_residual(params, protocol, state) < 1e-10


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
    assert verify.precession_leg_residual(params, seg, state, along, angle) <= 1e-12


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
