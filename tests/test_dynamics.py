import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modeswitch import (
    NORTH,
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    bloch_precess,
    closed_form_powers,
    compose,
    expm_propagator,
    generator,
    integrate,
    propagate,
    protocol_propagator,
    rotation_axis,
    segment_propagator,
    stage_with_offset,
    static_max_transfer,
)
from modeswitch.dynamics import abs2
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
    # % alone rounds these up to 2 pi; a segment stores the same angle as 0.0.
    for phase in (-0.0, -1e-20, 1.0 - 1.0000000000000002, -4.4e-16):
        assert math.copysign(1.0, CouplingSegment(phase, 1.0).phase) == 1.0
        assert CouplingSegment(phase, 1.0).phase == 0.0
    assert CouplingSegment(-4.5e-16, 1.0).phase == math.nextafter(2.0 * math.pi, 0.0)
    # So a whole segment at such a phase is the segment at phase 0.
    params = CouplerParams(0.5, 1.0)
    whole = segment_propagator(params, CouplingSegment(-1e-20, 1.0))
    assert whole.o.real == segment_propagator(params, CouplingSegment(0.0, 1.0)).o.real == 0.0
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
    # Each segment is finite, their total is not.
    with pytest.raises(ValueError, match="total duration = inf must be finite"):
        Protocol.from_pairs([(0.0, 1e308), (0.0, 1e308)])


def test_protocol_timeline_is_the_running_sum():
    # Python 3.12's sum() compensates and gives 1.0 here; every time in a
    # run reads the running sum instead, on every Python.
    prot = Protocol.from_pairs([(0.0, 0.1)] * 10)
    assert prot.ends == tuple(itertools.accumulate(prot.durations))
    assert prot.total_duration == prot.ends[-1] == 0.9999999999999999
    traj = propagate(CouplerParams(0.5, 1.0), prot, ModeState.mode1(), 7)
    assert traj.t[-1] == prot.total_duration


@given(st.lists(st.floats(0.0, 1e308), min_size=1, max_size=12))
@example([0.1] * 10)
@example([1e308, 1e308])
@example([1.7e308, 0.0, 1.7e308, 5e-324])
def test_protocol_ends_are_the_left_to_right_sum(durations):
    """ends[j] is the sum of the first j + 1 durations, added left to right
    from 0.0 in float arithmetic, and the protocol holds it once; a total
    that overflows is rejected, though every segment is finite."""
    total, sums = 0.0, []
    for d in durations:
        total += d
        sums.append(total)
    pairs = [(0.3, d) for d in durations]
    if not math.isfinite(total):
        with pytest.raises(ValueError, match="^protocol total duration = inf must be finite$"):
            Protocol.from_pairs(pairs)
        return
    prot = Protocol.from_pairs(pairs)
    assert hexed(*prot.ends) == hexed(*sums)
    assert prot.total_duration == sums[-1]
    assert prot.ends is prot.ends


def test_segment_propagator_matches_expm():
    rng = np.random.default_rng(7)
    for _ in range(50):
        params = CouplerParams(rng.uniform(-2, 2), rng.uniform(0.2, 2.5))
        seg = CouplingSegment(rng.uniform(0, 2 * math.pi), rng.uniform(0, 3))
        residual = verify.propagator_vs_expm_residual(
            params.delta, params.kappa0, seg.phase, seg.duration
        )
        assert residual < 1e-12


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
    traj = propagate(params, prot, ModeState.mode1(), 64)
    assert len(traj) == 65
    assert traj.t[0] == 0.0
    assert traj.a1[0] == 1.0 + 0.0j
    assert traj.t[-1] == pytest.approx(prot.total_duration)
    final = protocol_propagator(params, prot).apply(ModeState.mode1())
    assert traj.a2[-1] == pytest.approx(final.a2, abs=1e-15)
    norm = np.sqrt(abs2(traj.a1.real, traj.a1.imag) + abs2(traj.a2.real, traj.a2.imag))
    assert np.abs(norm - 1.0).max() < 1e-13


def test_propagate_last_sample_is_exact():
    params = CouplerParams(1.4, 0.9)
    prot = Protocol.from_pairs([(0.2, 0.8), (2.1, 1.7), (4.0, 0.3)])
    initial = ModeState(0.6, 0.8j)
    final = protocol_propagator(params, prot).apply(initial)
    traj = propagate(params, prot, initial, 64)
    last = traj.final
    # Same association order, so the results are identical, not just close.
    assert traj.t[-1] == prot.total_duration
    assert last.a1 == final.a1
    assert last.a2 == final.a2


def test_propagate_mid_segment_samples():
    params = CouplerParams(0.0, 1.0)
    prot = Protocol.from_pairs([(0.0, 1.0), (math.pi, 1.0)])
    traj = propagate(params, prot, ModeState.mode1(), 8)
    first = segment_propagator(params, CouplingSegment(0.0, 1.0))
    for k, m in (
        (1, segment_propagator(params, CouplingSegment(0.0, 0.25))),
        (5, compose(segment_propagator(params, CouplingSegment(math.pi, 0.25)), first)),
    ):
        ref = m.apply(ModeState.mode1())
        assert traj.t[k] == 0.25 * k
        assert traj.a1[k] == pytest.approx(ref.a1)
        assert traj.a2[k] == pytest.approx(ref.a2)


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
    assert verify.segment_splitting_residual(delta, kappa, phi, t1, t2) <= 1e-12


# The scalar propagators in Python complex arithmetic, written out apart from
# the library's kernel (dynamics._segment, _compose, _apply), so that the
# kernel is checked against arithmetic it does not share.  Python 3.10-3.13
# promote a float x in complex * float to (x, 0.0), as cmul assumes.


def reference_segment_propagator(params, segment):
    w = params.rabi
    wt = w * segment.duration
    c = math.cos(wt)
    s = math.sin(wt)
    d = complex(c, -(params.delta / w) * s)
    o = -1j * (params.kappa0 / w) * s * cmath.exp(1j * segment.phase)
    return TransferMatrix(d, o)


def reference_compose(later, earlier):
    return TransferMatrix(
        later.d * earlier.d - later.o * earlier.o.conjugate(),
        later.d * earlier.o + later.o * earlier.d.conjugate(),
    )


def reference_apply(m, state):
    return ModeState(
        m.d * state.a1 + m.o * state.a2,
        -m.o.conjugate() * state.a1 + m.d.conjugate() * state.a2,
    )


def hexed(*values):
    return [float(x).hex() for z in values for x in (z.real, z.imag)]


# delta = +-0.0 with kappa0 > 0, kappa0 = 0 with either sign of delta, or anything.
kernel_couplers = st.one_of(
    st.tuples(st.sampled_from([0.0, -0.0]), st.floats(0.05, 3.0)),
    st.tuples(st.sampled_from([-2.0, 1.5]), st.just(0.0)),
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
)
kernel_phases = st.one_of(
    st.sampled_from([0.0, -0.0, -1e-20, math.pi, 1.0 - 1.0000000000000002]),
    st.floats(-10.0, 10.0),
)
# Durations in units of 1/W: zero, half and whole turns, or anything.
kernel_turns = st.one_of(
    st.sampled_from([0.0, math.pi / 2.0, math.pi, 2.0 * math.pi]), st.floats(0.0, 8.0)
)
parts = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]), st.floats(-2.0, 2.0))
complexes = st.builds(complex, parts, parts)


@given(kernel_couplers, kernel_phases, kernel_turns, complexes, complexes, complexes, complexes)
@example((-0.0, 1.0), -1e-20, math.pi, -0.0 + 0.0j, 0.0 - 0.0j, 1.0 + 0.0j, -0.0 - 0.0j)
@example((1.5, 0.0), -0.0, 2.0 * math.pi, 0.5 - 0.0j, -0.0 + 1.0j, -0.0 + 0.0j, 0.0 - 0.0j)
def test_kernel_is_complex_arithmetic_bit_for_bit(coupler, phase, turns, d, o, a1, a2):
    params = CouplerParams(*coupler)
    seg = CouplingSegment(phase, turns / params.rabi)
    m, ref = segment_propagator(params, seg), reference_segment_propagator(params, seg)
    assert hexed(m.d, m.o) == hexed(ref.d, ref.o)
    other, state = TransferMatrix(d, o), ModeState(a1, a2)
    for later, earlier in ((ref, other), (other, ref), (other, other)):
        got, want = compose(later, earlier), reference_compose(later, earlier)
        assert hexed(got.d, got.o) == hexed(want.d, want.o)
    for matrix in (ref, other):
        got, want = matrix.apply(state), reference_apply(matrix, state)
        assert hexed(got.a1, got.a2) == hexed(want.a1, want.a2)


@given(
    st.lists(st.tuples(kernel_couplers, kernel_phases, kernel_turns), min_size=1, max_size=6),
    st.booleans(),
)
@example([((0.5, 1.0), -1e-20, 0.0), ((-0.0, 2.0), -7.5, math.pi)], False)
@example([((1.5, 0.0), 12.0, 0.0), ((0.3, 0.2), -0.0, 2.0)], True)
def test_column_segment_propagator_is_each_case_bit_for_bit(cases, shared):
    """segment_propagator of (delta, kappa0) and (phase, duration) columns,
    unreduced phases included, against each case's CouplerParams and
    CouplingSegment.  shared gives every case the first coupler, passed as
    two floats beside the columns, as propagate and cone_floor pass it."""
    couplers = [CouplerParams(*coupler) for coupler, _, _ in cases]
    if shared:
        couplers = [couplers[0]] * len(cases)
    segments = [CouplingSegment(phase, t / p.rabi) for p, (_, phase, t) in zip(couplers, cases)]
    pair = np.array([(p.delta, p.kappa0) for p in couplers]).T
    pair = tuple(pair[:, 0].tolist()) if shared else tuple(pair)
    phases = np.array([phase for _, phase, _ in cases])
    got = segment_propagator(pair, (phases, np.array([s.duration for s in segments])))
    want = [segment_propagator(p, s) for p, s in zip(couplers, segments)]
    assert hexed(*got.d, *got.o) == hexed(*(m.d for m in want), *(m.o for m in want))


@pytest.mark.parametrize(
    "segment, message",
    [
        ((math.nan, 1.0), "segment phase = nan must be finite"),
        ((math.inf, 1.0), "segment phase = inf must be finite"),
        ((-math.inf, np.ones(2)), "segment phase = -inf must be finite"),
        ((np.array([0.1, math.nan]), np.ones(2)), r"segment phase = array\(.*\) must be finite"),
        ((0.1, math.nan), "segment duration = nan must be finite"),
        ((0.1, math.inf), "segment duration = inf must be finite"),
        ((0.1, np.array([1.0, math.inf])), r"segment duration = array\(.*\) must be finite"),
        ((0.1, -1e-9), "segment duration = -1e-09 must be >= 0"),
        ((np.ones(2), np.array([1.0, -1.0])), r"segment duration = array\(.*\) must be >= 0"),
        ((-math.inf, 1.0), "segment phase = -inf must be finite"),
        ((math.nan, -1.0), "segment phase = nan must be finite"),
        ((0.1, -math.inf), "segment duration = -inf must be finite"),
        ((0.1, -1.0), "segment duration = -1.0 must be >= 0"),
        ((0.1, -5e-324), "segment duration = -5e-324 must be >= 0"),
    ],
)
def test_the_pair_form_names_a_bad_segment(segment, message):
    """The pair form and CouplingSegment run one check, so a bad pair of
    floats is named alike in both."""
    for pair in ((0.5, 1.0), (np.array([0.5, -1.0]), np.array([1.0, 0.2]))):
        with pytest.raises(ValueError, match=message):
            segment_propagator(pair, segment)
    if not any(isinstance(x, np.ndarray) for x in segment):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CouplingSegment(*segment)


@pytest.mark.parametrize(
    "pair",
    [
        (np.array([0.5, -1.0, 0.0, 2.5]), 1.0),
        (0.5, np.array([1.0, 2.0, 0.0, 1e-3])),
        (np.array([[0.5], [-1.7]]), np.array([[1.0, 0.2, 3.0]])),
    ],
)
def test_a_float_beside_a_column_broadcasts(pair):
    """Each (delta, kappa0) entry of the broadcast pair, bit for bit the
    CouplerParams case, in segment_propagator and rotation_axis alike."""
    delta, kappa0 = np.broadcast_arrays(*pair)
    couplers = [CouplerParams(d, k) for d, k in zip(delta.ravel(), kappa0.ravel())]
    got = segment_propagator(pair, (0.3, 1.0))
    want = [segment_propagator(p, CouplingSegment(0.3, 1.0)) for p in couplers]
    assert got.d.shape == delta.shape
    assert hexed(*got.d.ravel(), *got.o.ravel()) == hexed(*(m.d for m in want), *(m.o for m in want))
    axis = rotation_axis(pair, 0.3)
    want_axes = [rotation_axis(p, 0.3) for p in couplers]
    for k in range(3):
        assert hexed(*axis.n[k].ravel()) == hexed(*(a.n[k] for a in want_axes))
    assert hexed(*axis.omega.ravel()) == hexed(*(a.omega for a in want_axes))


def _parts(*values):
    return tuple(np.asarray(v) for v in values)


# entry: (a call on (delta, kappa0, phase, duration), how many of them it reads)
BROADCAST_ENTRIES = {
    "expm_propagator": (lambda d, k, p, t: _parts(expm_propagator(d, k, p, t)), 4),
    "segment_propagator": (lambda d, k, p, t: _parts(*segment_propagator((d, k), (p, t))._row), 4),
    "rotation_axis": (lambda d, k, p, t: _parts(*rotation_axis((d, k), p).n, rotation_axis((d, k), p).omega), 3),
}
BROADCAST_LAYOUTS = {
    "a float beside a column": (np.array([0.5, -1.7, 0.0, 2.5]), 1.0, np.array([0.1, 2.0, -3.0, 7.0]), 1.3),
    "floats beside columns of kappa0 and duration": (
        0.5, np.array([1.0, 0.2, 0.0, 3.0]), 0.3, np.array([0.0, 0.7, 2.0, 1.1])
    ),
    "(n, 1) against (1, m)": (
        np.array([[0.5], [-1.7]]), np.array([[1.0, 0.2, 3.0]]), np.array([[0.3], [4.0]]),
        np.array([[0.7, 0.0, 1.1]]),
    ),
}


@pytest.mark.parametrize("layout", BROADCAST_LAYOUTS)
@pytest.mark.parametrize("entry", BROADCAST_ENTRIES)
def test_every_column_entry_broadcasts_as_numpy_does(entry, layout):
    """Columns and floats broadcast by numpy's rule, in each entry that
    takes columns; each entry of the result is its one-case call, bytes
    and all."""
    call, reads = BROADCAST_ENTRIES[entry]
    args = BROADCAST_LAYOUTS[layout]
    shape = np.broadcast_shapes(*map(np.shape, args[:reads]))
    got = call(*args)
    for idx in np.ndindex(shape):
        one = call(*(float(np.broadcast_to(a, shape)[idx]) for a in args))
        for part, want in zip(got, one):
            assert part.shape == shape + want.shape
            assert part[idx].tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "pair, message",
    [
        ((0.5, -1.0), "kappa0 must be nonnegative"),
        ((np.array([0.5, 0.2]), np.array([1.0, -1e-300])), "kappa0 must be nonnegative"),
        ((math.nan, 1.0), "delta = nan must be finite"),
        ((-math.inf, 1.0), "delta = -inf must be finite"),
        ((0.5, math.inf), "kappa0 = inf must be finite"),
        ((np.array([0.5, math.nan]), 1.0), r"delta = array\(.*\) must be finite"),
        ((0.5, np.array([1.0, math.nan])), r"kappa0 = array\(.*\) must be finite"),
        ((1e-320, 1e-320), "W = hypot"),
        ((0.0, 0.0), "W = hypot"),
        ((1.5e308, 1.5e308), "W = hypot"),
        ((np.array([1.0, 1e-320]), 0.0), "W = hypot"),
    ],
)
def test_the_pair_form_names_a_bad_coupler(pair, message):
    """The pair is checked as CouplerParams is, entry by entry, and the
    message names the field, in CouplerParams too."""
    with pytest.raises(ValueError, match=message):
        segment_propagator(pair, (0.3, 1.0))
    with pytest.raises(ValueError, match=message):
        rotation_axis(pair, 0.3)
    if not any(isinstance(x, np.ndarray) for x in pair):
        with pytest.raises(ValueError, match=message):
            CouplerParams(*pair)


@given(st.lists(st.tuples(complexes, complexes), min_size=1, max_size=8))
@example([(0.0j, 1.0 + 0.0j), (0.6 - 0.8j, -0.0 + 0.0j)])
def test_column_transfer_and_norm_are_each_case_bit_for_bit(pairs):
    """TransferMatrix.transfer, ModeState.transfer and ModeState.norm of
    columns, each entry float.hex-equal to its case taken alone."""
    first = np.array([a for a, _ in pairs])
    second = np.array([b for _, b in pairs])
    matrix, state = TransferMatrix(first, second), ModeState(first, second)
    one = [(TransferMatrix(a, b), ModeState(a, b)) for a, b in pairs]
    assert hexed(*matrix.transfer) == hexed(*(m.transfer for m, _ in one))
    assert hexed(*state.transfer) == hexed(*(s.transfer for _, s in one))
    assert hexed(*state.norm) == hexed(*(s.norm for _, s in one))


nonzero_pairs = st.tuples(complexes, complexes).filter(lambda pair: ModeState(*pair).norm > 0.0)


@given(st.lists(nonzero_pairs, min_size=1, max_size=8))
@example([(0.0j, 1.0 + 0.0j), (-0.0 - 0.0j, 0.6 - 0.8j), (3.0 + 0.0j, -0.0 + 4.0j)])
def test_column_normalized_is_each_case_bit_for_bit(pairs):
    """ModeState.normalized of columns, each entry float.hex-equal to its case
    taken alone, which is CPython's a / norm; a zero entry is rejected."""
    column = ModeState(np.array([a for a, _ in pairs]), np.array([b for _, b in pairs])).normalized()
    one = [ModeState(a, b).normalized() for a, b in pairs]
    assert hexed(*column.a1, *column.a2) == hexed(*(s.a1 for s in one), *(s.a2 for s in one))
    for (a, b), s in zip(pairs, one):
        n = ModeState(a, b).norm
        assert hexed(s.a1, s.a2) == hexed(a / n, b / n)
    with pytest.raises(ValueError, match="zero state"):
        ModeState(np.array([pairs[0][0], 0j]), np.array([pairs[0][1], 0j])).normalized()


def shaped(value, like):
    """value as a column of like's shape when like is a column."""
    return np.full(np.shape(like), value) if np.ndim(like) else value


BALANCED = TransferMatrix(math.sqrt(0.5), 1j * math.sqrt(0.5))
HALF = CouplerParams(0.5, 1.0)
ONE_SEGMENT = Protocol.from_pairs([(0.3, 1.0)])
# entry: (the argument it names, a call with x in that argument, whether it takes columns)
NON_FINITE_ENTRIES = {
    "stage_with_offset": ("offset", lambda x: stage_with_offset(BALANCED, x), True),
    "closed_form_powers dtheta": ("dtheta", lambda x: closed_form_powers(BALANCED, x, 0.0), True),
    "closed_form_powers offset": ("offset", lambda x: closed_form_powers(BALANCED, 0.0, x), True),
    "bloch_precess": ("t", lambda x: bloch_precess(rotation_axis(HALF, 0.0), NORTH, x), True),
    "generator": ("coupling phase phi", lambda x: generator(HALF, x), False),
    "expm_propagator phase": (
        "phase", lambda x: expm_propagator(shaped(0.5, x), shaped(1.0, x), x, shaped(1.0, x)), True
    ),
    "expm_propagator duration": (
        "duration", lambda x: expm_propagator(shaped(0.5, x), shaped(1.0, x), shaped(0.3, x), x), True
    ),
    "propagate": ("initial a1", lambda x: propagate(HALF, ONE_SEGMENT, ModeState(x, 0.0)), False),
    "integrate": ("initial a2", lambda x: integrate(HALF, ONE_SEGMENT, ModeState(1.0, x)), False),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES)
def test_an_entry_names_its_non_finite_argument(entry, value):
    """Each of these exports raises a ValueError naming a non-finite
    argument, a float or a column entry, where it returned NaN."""
    name, call, columns = NON_FINITE_ENTRIES[entry]
    call(np.array([0.5, 0.7]) if columns else 0.5)
    with pytest.raises(ValueError, match=f"^{name} = .* must be finite$"):
        call(value)
    if columns:
        with pytest.raises(ValueError, match=f"^{name} = array\\(.*\\) must be finite$"):
            call(np.array([0.5, value]))
