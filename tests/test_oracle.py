import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    CouplingSegment,
    IntegrationConfig,
    ModeState,
    Protocol,
    generator,
    integrate,
    integrate_matrix,
    protocol_propagator,
    verify,
)
from modeswitch.oracle import DEFAULT_STEP_FRACTION, HARD_STEP_FRACTION


def test_config_validation():
    for frac in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            IntegrationConfig(frac)
    # Step sizes beyond the hard cap are meaningless for RK4.
    with pytest.raises(ValueError):
        IntegrationConfig(HARD_STEP_FRACTION * 2.0)
    IntegrationConfig(HARD_STEP_FRACTION)


def test_resolved_step_caps_at_rabi_scale():
    params = CouplerParams(3.0, 4.0)  # W = 5
    cfg = IntegrationConfig()
    assert cfg.resolved_step(params) == pytest.approx(DEFAULT_STEP_FRACTION / 5.0)
    ok = IntegrationConfig(0.01)
    assert ok.resolved_step(params) == 0.01 / 5.0
    with pytest.raises(ValueError):
        IntegrationConfig(HARD_STEP_FRACTION * 1.5)


def test_generator_structure():
    params = CouplerParams(0.7, 1.3)
    h = generator(params, 0.4)
    assert h[0, 0] == pytest.approx(0.7)
    assert h[1, 1] == pytest.approx(-0.7)
    assert h[0, 1] == pytest.approx(1.3 * complex(math.cos(0.4), math.sin(0.4)))
    assert h[1, 0] == pytest.approx(np.conj(h[0, 1]))
    assert np.allclose(h, h.conj().T)


def test_integrate_matches_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(10):
        params = CouplerParams(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
        segs = tuple(
            CouplingSegment(rng.uniform(0, 2 * math.pi), rng.uniform(0.3, 2.5))
            for _ in range(rng.integers(1, 4))
        )
        protocol = Protocol(segs)
        exact = protocol_propagator(params, protocol).apply(ModeState.mode1())
        approx = integrate(params, protocol, ModeState.mode1())
        assert abs(approx.a1 - exact.a1) <= 1e-10
        assert abs(approx.a2 - exact.a2) <= 1e-10


phases = st.floats(0.0, 2.0 * math.pi)


@example(CouplerParams(1.1, 0.9), [(0.3, 1.7), (2.1, 0.9)])
@given(
    st.builds(CouplerParams, st.floats(-2.0, 2.0), st.floats(0.3, 2.0)),
    st.lists(st.tuples(phases, st.floats(0.3, 2.5)), min_size=1, max_size=3),
)
def test_integrate_matrix_matches_closed_form(params, pairs):
    """RK4 at its default step reproduces the closed-form propagator, every
    column; the mode-1 column is what integrate returns."""
    assert verify.propagator_vs_rk4_residual(params, Protocol.from_pairs(pairs)) <= 1e-10


@given(
    st.builds(CouplerParams, st.floats(-3.0, 3.0), st.floats(0.1, 3.0)),
    st.builds(CouplingSegment, phases, st.floats(0.0, 5.0)),
)
def test_expm_agrees_with_closed_form(params, seg):
    """scipy's expm of the segment Hamiltonian equals the closed form."""
    assert verify.propagator_vs_expm_residual(params, seg) <= 1e-12


def test_zero_duration_is_identity():
    params = CouplerParams(0.5, 1.0)
    protocol = Protocol((CouplingSegment(1.0, 0.0),))
    out = integrate(params, protocol, ModeState.mode2())
    assert out.a1 == 0.0
    assert out.a2 == 1.0


def test_step_halving_shrinks_error():
    params = CouplerParams(1.0, 1.5)
    w = params.rabi
    protocol = Protocol.from_pairs([(0.7, 2.0 / w), (2.9, 1.5 / w)])
    exact = protocol_propagator(params, protocol).as_array()

    def err(frac: float) -> float:
        cfg = IntegrationConfig(frac)
        return float(np.max(np.abs(integrate_matrix(params, protocol, cfg) - exact)))

    coarse, fine = err(0.08), err(0.04)
    # Fourth-order scheme: halving the step cuts the error ~16x.
    assert 8.0 < coarse / fine < 24.0


def test_rk4_convergence_check_rejects_a_third_order_step(monkeypatch):
    from modeswitch import oracle
    from modeswitch.verify import check_rk4_convergence

    def kutta3_segment(h, a, duration, step):
        # Kutta's third-order scheme: halving the step cuts the error ~8x.
        n = max(1, math.ceil(duration / step))
        dt = duration / n
        m = -1j * h
        for _ in range(n):
            k1 = m @ a
            k2 = m @ (a + 0.5 * dt * k1)
            k3 = m @ (a - dt * k1 + 2.0 * dt * k2)
            a = a + (dt / 6.0) * (k1 + 4.0 * k2 + k3)
        return a

    assert check_rk4_convergence(np.random.default_rng(20240817), 4).passed
    monkeypatch.setattr(oracle, "_rk4_segment", kutta3_segment)
    res = check_rk4_convergence(np.random.default_rng(20240817), 4)
    assert not res.passed
    assert res.residual > 2.0, res.detail


def test_coarse_step_norm_drift_is_visible():
    params = CouplerParams(2.0, 1.0)
    w = params.rabi
    protocol = Protocol.from_pairs([(0.0, 40.0 / w)])
    cfg = IntegrationConfig(0.1)
    out = integrate(params, protocol, ModeState.mode1(), cfg)
    drift = abs(out.norm - 1.0)
    assert 0.0 < drift < 1e-4
    # The default step keeps the same protocol essentially on the sphere.
    tight = integrate(params, protocol, ModeState.mode1())
    assert abs(tight.norm - 1.0) < 1e-11


def _staged_rk4(params, protocol, a, step):
    """Classical RK4 with its four stages as separate m @ a products."""
    for seg in protocol.segments:
        if seg.duration == 0.0:
            continue
        n = max(1, math.ceil(seg.duration / step))
        dt = seg.duration / n
        m = -1j * generator(params, seg.phase)
        for _ in range(n):
            k1 = m @ a
            k2 = m @ (a + 0.5 * dt * k1)
            k3 = m @ (a + 0.5 * dt * k2)
            k4 = m @ (a + dt * k3)
            a = a + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return a



def _stepped_rk4(params, protocol, a, step):
    """The one-matrix step a -> a + E a, taken n times in a loop per segment."""
    eye = np.eye(2, dtype=complex)
    for seg in protocol.segments:
        if seg.duration == 0.0:
            continue
        n = max(1, math.ceil(seg.duration / step))
        dt = seg.duration / n
        z = (-1j * dt) * generator(params, seg.phase)
        e = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
        (e11, e12), (e21, e22) = e.tolist()
        cols = a.reshape(2, -1).T.tolist()
        for c, (x, y) in enumerate(cols):
            for _ in range(n):
                x, y = x + (e11 * x + e12 * y), y + (e21 * x + e22 * y)
            cols[c] = (x, y)
        a = np.array(cols, dtype=complex).T.reshape(a.shape)
    return a


@pytest.mark.parametrize("delta", [sign * ratio for sign in (1.0, -1.0) for ratio in (0.3, 2.0, 5.0)])
def test_powered_map_is_the_stepped_map(delta):
    """Binary powering of I + E applies the same n steps as the loop: bit for
    bit at one and two steps, and to rounding up to 1e5 steps."""
    params = CouplerParams(delta, 1.0)
    step = IntegrationConfig().resolved_step(params)
    eye = np.eye(2, dtype=complex)
    for n in (1, 2, 3, 255, 256, 257, 100_000):
        duration = (n - 0.5) * step
        assert math.ceil(duration / step) == n
        protocol = Protocol.from_pairs([(0.7, duration)])
        out, ref = integrate_matrix(params, protocol), _stepped_rk4(params, protocol, eye, step)
        if n <= 2:
            assert np.array_equal(out, ref), n
        else:
            assert np.max(np.abs(out - ref)) <= 1e-12, n


@st.composite
def _couplers(draw):
    # Both signs of delta, ratios |delta| / kappa0 up to 12, and kappa0 = 0.
    scale = draw(st.floats(0.2, 3.0))
    sign = draw(st.sampled_from((1.0, -1.0)))
    ratio = draw(st.one_of(st.just(math.inf), st.floats(0.0, 12.0)))
    if math.isinf(ratio):
        return CouplerParams(sign * scale, 0.0)
    return CouplerParams(sign * ratio * scale, scale)


@settings(max_examples=100)
@given(
    _couplers(),
    st.lists(
        st.tuples(
            st.floats(0.0, 2.0 * math.pi),
            st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
        ),
        min_size=1,
        max_size=6,
    ),
    st.floats(0.001, HARD_STEP_FRACTION),
    st.floats(0.0, math.pi),
    st.floats(0.0, 2.0 * math.pi),
)
def test_collapsed_step_is_staged_rk4(params, wt_pairs, frac, theta, phase):
    """The one-matrix step a -> a + E a reproduces the four-stage RK4 loop."""
    w = params.rabi
    protocol = Protocol.from_pairs([(phi, wt / w) for phi, wt in wt_pairs])
    cfg = IntegrationConfig(frac)
    step = cfg.resolved_step(params)
    tilt = complex(math.cos(phase), math.sin(phase))
    start = ModeState(math.cos(theta / 2), math.sin(theta / 2) * tilt)

    ref = _staged_rk4(params, protocol, np.array([start.a1, start.a2]), step)
    out = integrate(params, protocol, start, cfg)
    assert abs(out.a1 - ref[0]) <= 1e-12
    assert abs(out.a2 - ref[1]) <= 1e-12

    ref_m = _staged_rk4(params, protocol, np.eye(2, dtype=complex), step)
    assert np.max(np.abs(integrate_matrix(params, protocol, cfg) - ref_m)) <= 1e-12
