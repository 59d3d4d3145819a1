import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    compose,
    propagate,
    protocol_propagator,
    segment_propagator,
    static_max_transfer,
)
from modeswitch import verify


def test_rabi_frequency():
    assert CouplerParams(2.0, 1.0).rabi == pytest.approx(math.sqrt(5.0))
    assert CouplerParams(0.0, 1.5).rabi == 1.5
    assert CouplerParams(-3.0, 4.0).rabi == pytest.approx(5.0)


def test_static_max_transfer_values():
    assert static_max_transfer(CouplerParams(1.0, 1.0)) == pytest.approx(0.5)
    assert static_max_transfer(CouplerParams(0.5, 1.0)) == pytest.approx(0.8)
    assert static_max_transfer(CouplerParams(0.0, 2.0)) == pytest.approx(1.0)


def test_static_peak_check_reads_the_transfer(monkeypatch):
    # The check must read the package's transfer, not restate its formula.
    real = verify._grid_transfer
    assert verify.check_static_peak(np.random.default_rng(20240817), 20).passed
    monkeypatch.setattr(verify, "_grid_transfer", lambda *args: real(*args) / 2.0)
    assert not verify.check_static_peak(np.random.default_rng(20240817), 20).passed


def test_params_validation():
    with pytest.raises(ValueError):
        CouplerParams(0.0, 0.0)
    with pytest.raises(ValueError):
        CouplerParams(1.0, -0.5)
    with pytest.raises(ValueError):
        CouplerParams(math.inf, 1.0)
    with pytest.raises(ValueError):
        _ = CouplerParams(1.0, 0.0).ratio


def test_segment_phase_reduced():
    seg = CouplingSegment(2.0 * math.pi + 1.0, 0.5)
    assert seg.phase == pytest.approx(1.0)
    assert CouplingSegment(-0.5, 1.0).phase == pytest.approx(2.0 * math.pi - 0.5)
    with pytest.raises(ValueError):
        CouplingSegment(0.0, -1e-9)
    with pytest.raises(ValueError):
        CouplingSegment(math.nan, 1.0)


def test_protocol_validation():
    with pytest.raises(ValueError):
        Protocol(())
    prot = Protocol.from_pairs([(0.0, 1.0), (math.pi, 2.0)])
    assert prot.total_duration == pytest.approx(3.0)
    assert prot.phases == (0.0, math.pi)


def test_segment_propagator_matches_expm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = CouplerParams(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
        seg = CouplingSegment(rng.uniform(0, 2 * math.pi), rng.uniform(0, 3))
        assert verify.propagator_vs_expm_residual(params, seg) < 1e-12


def test_propagator_is_unitary_su2():
    params = CouplerParams(0.7, 1.3)
    m = segment_propagator(params, CouplingSegment(1.1, 0.9))
    assert m.unitarity_defect < 1e-15
    arr = m.as_array()
    assert arr[1, 0] == pytest.approx(-np.conj(arr[0, 1]))
    assert arr[1, 1] == pytest.approx(np.conj(arr[0, 0]))


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(11)
    params = CouplerParams(1.2, 0.8)
    a = segment_propagator(params, CouplingSegment(rng.uniform(0, 6), 0.7))
    b = segment_propagator(params, CouplingSegment(rng.uniform(0, 6), 1.3))
    c = compose(b, a)
    assert np.abs(c.as_array() - b.as_array() @ a.as_array()).max() < 1e-15
    ident = TransferMatrix.identity()
    assert compose(ident, a).as_array() == pytest.approx(a.as_array())


def test_zero_duration_is_identity():
    params = CouplerParams(0.3, 1.0)
    m = segment_propagator(params, CouplingSegment(2.0, 0.0))
    assert m.d == 1.0 + 0.0j
    assert m.o == 0.0j


def test_apply_matches_matrix_vector():
    params = CouplerParams(-0.9, 1.7)
    m = segment_propagator(params, CouplingSegment(0.4, 1.1))
    state = ModeState(0.6 + 0.1j, cmath.rect(0.79, 2.0)).normalized()
    out = m.apply(state)
    vec = m.as_array() @ np.array([state.a1, state.a2])
    assert out.a1 == pytest.approx(vec[0])
    assert out.a2 == pytest.approx(vec[1])


def test_propagate_endpoints_and_norm():
    params = CouplerParams(0.5, 1.0)
    prot = Protocol.from_pairs([(0.0, 0.9), (math.pi, 2.2), (1.0, 0.4)])
    samples = propagate(params, prot, ModeState.mode1(), 64)
    assert len(samples) == 65
    assert samples[0][0] == 0.0
    assert samples[0][1].a1 == 1.0 + 0.0j
    assert samples[-1][0] == pytest.approx(prot.total_duration)
    final = protocol_propagator(params, prot).apply(ModeState.mode1())
    assert samples[-1][1].a2 == pytest.approx(final.a2, abs=1e-15)
    for _, s in samples:
        assert abs(s.norm - 1.0) < 1e-13


def test_propagate_last_sample_is_exact():
    params = CouplerParams(1.4, 0.9)
    prot = Protocol.from_pairs([(0.2, 0.8), (2.1, 1.7), (4.0, 0.3)])
    initial = ModeState(0.6, 0.8j)
    final = protocol_propagator(params, prot).apply(initial)
    t, last = propagate(params, prot, initial, 64)[-1]
    # Same association order, so the results are identical, not just close.
    assert t == prot.total_duration
    assert last.a1 == final.a1
    assert last.a2 == final.a2


def test_propagate_mid_segment_samples():
    params = CouplerParams(0.0, 1.0)
    prot = Protocol.from_pairs([(0.0, 1.0), (math.pi, 1.0)])
    samples = propagate(params, prot, ModeState.mode1(), 8)
    first = segment_propagator(params, CouplingSegment(0.0, 1.0))
    for k, m in (
        (1, segment_propagator(params, CouplingSegment(0.0, 0.25))),
        (5, compose(segment_propagator(params, CouplingSegment(math.pi, 0.25)), first)),
    ):
        t, state = samples[k]
        ref = m.apply(ModeState.mode1())
        assert t == 0.25 * k
        assert state.a1 == pytest.approx(ref.a1)
        assert state.a2 == pytest.approx(ref.a2)


def test_transfer_from_mode1():
    params = CouplerParams(0.0, 1.0)
    seg = CouplingSegment(0.0, math.pi / 2.0)  # W t = pi/2, full swap
    m = segment_propagator(params, seg)
    assert m.transfer == pytest.approx(1.0)
    assert m.apply(ModeState.mode1()).transfer == pytest.approx(1.0)


segments = st.tuples(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 5.0))


@given(st.floats(-3.0, 3.0), st.floats(0.1, 3.0), st.lists(segments, min_size=1, max_size=5))
def test_mirror_conjugates_propagator(delta, kappa, pairs):
    """delta -> -delta with phi -> -phi maps [[D, O], ..] to [[conj D, -conj O], ..]."""
    params, mirrored = CouplerParams(delta, kappa), CouplerParams(-delta, kappa)
    protocol = Protocol.from_pairs(pairs)
    for seg in protocol.segments:
        m = segment_propagator(params, seg)
        mm = segment_propagator(mirrored, CouplingSegment(-seg.phase, seg.duration))
        assert mm.d == m.d.conjugate()
        assert abs(mm.o + m.o.conjugate()) <= 1e-12
    m = protocol_propagator(params, protocol)
    mirror = Protocol.from_pairs((-seg.phase, seg.duration) for seg in protocol.segments)
    mm = protocol_propagator(mirrored, mirror)
    assert abs(mm.d - m.d.conjugate()) <= 1e-12
    assert abs(mm.o + m.o.conjugate()) <= 1e-12


unit_pairs = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda x: sum(v * v for v in x) > 0.01)


def _unitary(x) -> TransferMatrix:
    norm = math.sqrt(sum(v * v for v in x))
    return TransferMatrix(complex(x[0], x[1]) / norm, complex(x[2], x[3]) / norm)


@given(unit_pairs, unit_pairs)
def test_compose_is_closed_in_su2(a, b):
    """compose is the 2x2 matrix product and stays unitary."""
    earlier, later = _unitary(a), _unitary(b)
    product = compose(later, earlier)
    assert np.abs(product.as_array() - later.as_array() @ earlier.as_array()).max() <= 1e-12
    assert product.unitarity_defect <= 1e-12


@given(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 3.0),
    st.floats(0.0, 2.0 * math.pi),
    st.floats(0.0, 5.0),
    st.floats(0.0, 5.0),
)
def test_segment_splits_into_consecutive_parts(delta, kappa, phi, t1, t2):
    """One segment of t1 + t2 equals the same phase held for t1, then t2."""
    assert verify.segment_splitting_residual(CouplerParams(delta, kappa), phi, t1, t2) <= 1e-12
