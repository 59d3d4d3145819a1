import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeswitch import (
    BACKWARD,
    FORWARD,
    CouplerParams,
    CouplingSegment,
    IsolatorSpec,
    Protocol,
    TransferMatrix,
    cascade,
    cascade_trajectory,
    contrast_db,
    contrast_sweep,
    cross_power,
    effective_differential_phase,
    optimal_phases,
    reciprocity_defect,
    segment_propagator,
    stage_with_offset,
    verify,
)

RHALF = math.sqrt(0.5)


def balanced_stage() -> TransferMatrix:
    return TransferMatrix(RHALF, -1j * RHALF)


def random_stage(rng) -> TransferMatrix:
    params = CouplerParams(rng.uniform(-2.0, 2.0), rng.uniform(0.2, 2.0))
    seg = CouplingSegment(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 4.0))
    return segment_propagator(params, seg)


def test_stage_with_offset():
    stage = balanced_stage()
    shifted = stage_with_offset(stage, 0.7)
    assert shifted.d == stage.d
    assert shifted.o == pytest.approx(stage.o * cmath.exp(-0.7j))
    assert stage_with_offset(stage, 0.0).o == stage.o


def test_spec_rejects_nonunitary_stage():
    bad = TransferMatrix(0.9, 0.9)
    with pytest.raises(ValueError):
        IsolatorSpec(bad, 0.0, 0.0, 0.0)


def test_cascade_matches_full_matrix_product():
    rng = np.random.default_rng(11)
    for _ in range(25):
        stage = random_stage(rng)
        t1, t2, off = rng.uniform(0.0, 2.0 * math.pi, size=3)
        spec = IsolatorSpec(stage, t1, t2, off)
        m1 = stage.as_array()
        section = np.diag([cmath.exp(1j * t1), cmath.exp(1j * t2)])
        m3 = stage_with_offset(stage, off).as_array()
        fwd = m3 @ section @ m1
        bwd = m1 @ section @ m3
        # The library drops the section's global phase; powers agree anyway.
        assert cross_power(spec, FORWARD) == pytest.approx(
            abs(fwd[0, 1]) ** 2, abs=1e-12
        )
        assert cross_power(spec, BACKWARD) == pytest.approx(
            abs(bwd[0, 1]) ** 2, abs=1e-12
        )


@st.composite
def unitary_stages(draw):
    """Any SU(2) stage: |D| = cos(alpha), |O| = sin(alpha), free phases."""
    alpha = draw(st.floats(0.0, math.pi / 2.0))
    arg_d, arg_o = draw(st.floats(-math.pi, math.pi)), draw(st.floats(-math.pi, math.pi))
    return TransferMatrix(
        math.cos(alpha) * cmath.exp(1j * arg_d), math.sin(alpha) * cmath.exp(1j * arg_o)
    )


angles = st.floats(-6.0, 6.0)


@given(unitary_stages(), angles, angles, angles)
def test_closed_form_matches_matrix_product(stage, t1, t2, off):
    assert verify.isolator_identity_residual(IsolatorSpec(stage, t1, t2, off)) <= 1e-12


def test_canonical_gauge_preserves_response():
    rng = np.random.default_rng(13)
    for _ in range(50):
        stage = random_stage(rng)
        off = rng.uniform(0.0, 2.0 * math.pi)
        spec = IsolatorSpec(stage, rng.uniform(0, 6), rng.uniform(0, 6), off)
        # The gauge with a real nonnegative stage diagonal.
        real_diagonal = TransferMatrix(abs(stage.d), stage.o)
        gauge = IsolatorSpec(real_diagonal, effective_differential_phase(spec), 0.0, off)
        for direction in (FORWARD, BACKWARD):
            assert cross_power(gauge, direction) == pytest.approx(
                cross_power(spec, direction), abs=1e-12
            )


def test_optimal_phases_extremes():
    dtheta, off = optimal_phases(balanced_stage())
    assert (dtheta, off) == (math.pi / 2.0, math.pi / 2.0)
    spec = IsolatorSpec(balanced_stage(), dtheta, 0.0, off)
    fwd, bwd = cross_power(spec, FORWARD), cross_power(spec, BACKWARD)
    assert fwd == pytest.approx(0.0, abs=1e-15)
    assert bwd == pytest.approx(1.0, abs=1e-15)
    assert contrast_db(fwd, bwd) < -250.0
    # Any balanced stage: the optimum is in the stage's own gauge.
    for arg_d in (-2.5, 0.4, 3.0):
        stage = TransferMatrix(RHALF * cmath.exp(1j * arg_d), 1j * RHALF)
        dtheta, off = optimal_phases(stage)
        assert 0.0 <= dtheta < 2.0 * math.pi
        spec = IsolatorSpec(stage, dtheta, 0.0, off)
        assert cross_power(spec, FORWARD) == pytest.approx(0.0, abs=1e-15)
        assert cross_power(spec, BACKWARD) == pytest.approx(1.0, abs=1e-15)


def test_reciprocal_configurations():
    rng = np.random.default_rng(15)
    stage = random_stage(rng)
    # No drive offset: both directions see the same product.
    spec0 = IsolatorSpec(stage, rng.uniform(0, 6), rng.uniform(0, 6), 0.0)
    assert reciprocity_defect(spec0) == 0.0
    assert contrast_db(cross_power(spec0, FORWARD), cross_power(spec0, BACKWARD)) == 0.0
    # Effective differential phase zero: offset alone cannot distinguish.
    arg_d = cmath.phase(stage.d)
    spec1 = IsolatorSpec(stage, -2.0 * arg_d, 0.0, rng.uniform(0, 6))
    assert reciprocity_defect(spec1) <= 1e-12


def test_contrast_db_conventions():
    assert contrast_db(0.5, 0.5) == 0.0
    assert contrast_db(0.0, 0.0) == 0.0
    assert contrast_db(0.3, 0.0) == math.inf
    assert contrast_db(0.0, 0.3) == -math.inf
    assert contrast_db(1.0, 0.1) == pytest.approx(10.0)


def test_reciprocity_defect_formula():
    rng = np.random.default_rng(16)
    for _ in range(100):
        stage = random_stage(rng)
        t1, t2, off = rng.uniform(-6.0, 6.0, size=3)
        spec = IsolatorSpec(stage, t1, t2, off)
        d2 = abs(stage.d) ** 2
        o2 = abs(stage.o) ** 2
        eff = effective_differential_phase(spec)
        expected = 4.0 * d2 * o2 * abs(math.sin(eff) * math.sin(off))
        assert reciprocity_defect(spec) == pytest.approx(expected, abs=1e-12)


def test_contrast_sweep_grid():
    stage = balanced_stage()
    sweep = contrast_sweep(stage, n=64)
    assert sweep.forward.shape == (64, 64)
    assert sweep.delta_thetas[0] == 0.0
    assert sweep.delta_thetas[-1] < 2.0 * math.pi
    # Grid point (pi/2, pi/2) sits at index n/4 and shows the extremes.
    q = 16
    assert sweep.delta_thetas[q] == pytest.approx(math.pi / 2.0)
    assert sweep.forward[q, q] == pytest.approx(0.0, abs=1e-15)
    assert sweep.backward[q, q] == pytest.approx(1.0, abs=1e-15)
    # Forward/backward swap under offset negation.
    n = 64
    j = np.arange(n)
    mirrored = sweep.backward[:, (n - j) % n]
    assert np.allclose(sweep.forward, mirrored, atol=1e-12)


def test_contrast_sweep_matches_pointwise():
    rng = np.random.default_rng(17)
    stage = random_stage(rng)
    sweep = contrast_sweep(stage, n=16)
    for i in (0, 3, 9):
        for j in (1, 8, 15):
            spec = IsolatorSpec(
                stage, float(sweep.delta_thetas[i]), 0.0, float(sweep.offsets[j])
            )
            assert sweep.forward[i, j] == pytest.approx(
                cross_power(spec, FORWARD), abs=1e-12
            )
            assert sweep.backward[i, j] == pytest.approx(
                cross_power(spec, BACKWARD), abs=1e-12
            )


def test_contrast_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        contrast_sweep(balanced_stage(), n=1)
    with pytest.raises(ValueError):
        contrast_sweep(TransferMatrix(1.0, 1.0), n=8)


@st.composite
def stage_protocols(draw):
    """(params, protocol): one to four segments, either sign of delta."""
    params = CouplerParams(draw(st.floats(-2.0, 2.0)), draw(st.floats(0.2, 2.0)))
    segment = st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.1, 2.0))
    pairs = draw(st.lists(segment, min_size=1, max_size=4))
    return params, Protocol.from_pairs(pairs)


@given(stage_protocols(), st.floats(0.0, 2.0 * math.pi))
def test_offset_protocol_realizes_offset_stage(stage_protocol, off):
    params, protocol = stage_protocol
    assert verify.isolator_offset_realization_residual(params, protocol, off) <= 1e-12


def test_cascade_trajectory_endpoints():
    params = CouplerParams(0.5, 1.0)
    # Forward ends on mode 2 and backward on mode 1, in power and in state.
    assert verify.isolator_endpoints_residual(params, 128) <= 1e-12
    half, spec = verify._isolating_cascade(params)
    for direction in (FORWARD, BACKWARD):
        traj = cascade_trajectory(params, half, spec, direction, sample_count=128)
        assert len(traj) == 2 * 128 + 2
        assert (np.diff(traj.t) >= 0.0).all()
        assert traj.t[0] == 0.0
        assert traj.final.norm == pytest.approx(1.0, abs=1e-12)
    # The phase jump is visible as a duplicated boundary time.
    traj = cascade_trajectory(params, half, spec, FORWARD, sample_count=128)
    assert traj.t[128] == traj.t[129]
    assert traj.a1[129] != traj.a1[128]


def test_cascade_rejects_unknown_direction():
    spec = IsolatorSpec(balanced_stage(), 0.1, 0.0, 0.2)
    with pytest.raises(ValueError):
        cascade(spec, "sideways")
    protocol = Protocol((CouplingSegment(0.0, 1.0),))
    with pytest.raises(ValueError):
        cascade_trajectory(CouplerParams(0.5, 1.0), protocol, spec, "up")
