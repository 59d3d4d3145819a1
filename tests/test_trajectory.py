"""Column trajectories against the scalar propagators, bit for bit.

propagate and to_bloch compute every sample at once on arrays.  The
reference here is the per-sample loop they replace: segment_propagator,
compose and apply on one state at a time, and the Bloch map through
ModeState.normalized.  Those scalar functions run the same kernel as the
columns; test_dynamics checks that kernel against Python complex
arithmetic.  Values are compared as float.hex strings, so a flipped
signed zero counts as a difference.
"""

import bisect
import math
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from modeswitch import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    compose,
    minimal_plan_search,
    propagate,
    protocol_propagator,
    segment_propagator,
    to_bloch,
)
from modeswitch.cli import main
from modeswitch.dynamics import abs2
from modeswitch.render import trajectory_svg


def scalar_product(params, segments):
    """The segments' product, one compose per segment, first acting first."""
    acc = TransferMatrix.identity()
    for seg in segments:
        acc = compose(segment_propagator(params, seg), acc)
    return acc


def scalar_propagate(params, protocol, initial, sample_count):
    """(t, state) per sample, the last at the total itself: the product of
    the segments whose end is at or before t, then the one that holds t."""
    total = protocol.total_duration
    segments, ends = protocol.segments, protocol.ends
    out = []
    for k in range(sample_count + 1):
        t = total if k == sample_count else total * k / sample_count
        whole = bisect.bisect_right(ends, t)
        m = scalar_product(params, segments[:whole])
        start = ends[whole - 1] if whole else 0.0
        if whole < len(segments) and t > start:
            piece = CouplingSegment(segments[whole].phase, t - start)
            m = compose(segment_propagator(params, piece), m)
        out.append((t, m.apply(initial)))
    return out


def scalar_row(t, state):
    """One trajectory.csv row from Python complex arithmetic."""
    s = state.normalized()
    cross = s.a1 * s.a2.conjugate()
    return [
        t, state.a1.real, state.a1.imag, state.a2.real, state.a2.imag,
        abs(state.a1) ** 2, abs(state.a2) ** 2,
        2.0 * cross.real, 2.0 * cross.imag, abs(s.a1) ** 2 - abs(s.a2) ** 2,
    ]


def column_rows(traj):
    a1, a2 = traj.a1, traj.a2
    b = to_bloch(traj)
    columns = (
        traj.t, a1.real, a1.imag, a2.real, a2.imag,
        abs2(a1.real, a1.imag), abs2(a2.real, a2.imag), b.u, b.v, b.w,
    )
    return [list(row) for row in zip(*(c.tolist() for c in columns))]


def hexed(rows):
    return [[float(x).hex() for x in row] for row in rows]


# delta = 0 and kappa0 = 0 are both legal on their own; W is then |kappa0| or |delta|.
couplers = st.one_of(
    st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 3.0)),
    st.tuples(st.just(0.0), st.floats(0.05, 3.0)),
    st.tuples(st.sampled_from([-2.0, 1.5]), st.just(0.0)),
)
# Phases include -0.0 and -1e-20, which CouplingSegment stores as 0.0.
phases = st.one_of(
    st.floats(0.0, 2.0 * math.pi), st.sampled_from([0.0, math.pi, -0.0, -1e-20])
)
# Durations in units of 1/W: zero, half turns (W t = pi/2), full turns, or anything.
turns = st.one_of(
    st.just(0.0), st.sampled_from([math.pi / 2.0, math.pi]), st.floats(0.0, 4.0)
)
amplitudes = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
initials = st.one_of(
    st.just(ModeState.mode1()),
    st.just(ModeState.mode2()),
    st.just(ModeState(-0.0, 1j)),
    st.tuples(amplitudes, amplitudes)
    .filter(lambda a: abs(a[0]) + abs(a[1]) > 1e-3)
    .map(lambda a: ModeState(*a)),
)


@given(
    couplers,
    st.lists(st.tuples(phases, turns), min_size=1, max_size=8),
    initials,
    st.one_of(st.just(1), st.integers(1, 200)),
)
@example((0.5, 1.0), [(0.0, 0.1), (1.0, 0.2), (2.0, 0.3)], ModeState.mode1(), 2)
@example((-0.5, 1.0), [(0.0, 0.0), (1.0, 1e-9), (2.0, 1.0), (3.0, 0.0)], ModeState.mode1(), 7)
# W = 1.  1.0 + 1e-17 rounds to 1.0, so the first two segments both end
# at 1.0 on the timeline, and both are whole at the sample t = 1.0.
@example((0.0, 1.0), [(0.0, 1.0), (1.0, 1e-17), (2.0, 1.0)], ModeState(0.6, 0.8j), 2)
def test_columns_match_scalar_propagators_bit_for_bit(coupler, pairs, initial, sample_count):
    params = CouplerParams(*coupler)
    protocol = Protocol.from_pairs((p, d / params.rabi) for p, d in pairs)
    traj = propagate(params, protocol, initial, sample_count)
    assert len(traj) == sample_count + 1
    ref = [scalar_row(t, s) for t, s in scalar_propagate(params, protocol, initial, sample_count)]
    assert hexed(column_rows(traj)) == hexed(ref)


@given(
    couplers,
    st.lists(st.tuples(phases, turns), min_size=1, max_size=8),
    initials,
    st.integers(1, 512),
)
# delta 0.5, kappa0 1, two segments of 0.22322111021323865 / 2: the 21st
# sample's total * 21 / 21 falls an ulp short of the total.
@example((0.5, 1.0), [(0.0, 0.12478439411244356), (math.pi, 0.12478439411244356)], ModeState.mode1(), 21)
def test_last_sample_is_the_protocol_end(coupler, pairs, initial, sample_count):
    # The last sample time is protocol.ends[-1] itself, and its state is
    # the whole protocol's propagator applied to the initial state.
    params = CouplerParams(*coupler)
    protocol = Protocol.from_pairs((p, d / params.rabi) for p, d in pairs)
    traj = propagate(params, protocol, initial, sample_count)
    ref = protocol_propagator(params, protocol).apply(initial)
    last = traj.final
    assert hexed([[traj.t[-1], last.a1.real, last.a1.imag, last.a2.real, last.a2.imag]]) == hexed(
        [[protocol.total_duration, ref.a1.real, ref.a1.imag, ref.a2.real, ref.a2.imag]]
    )


def test_sample_on_a_switch_time_is_the_product_before_it():
    # Sample 192 of 256 lands exactly on the third switch time.  Its state
    # is the product of the three segments before it, not the third
    # composed as a piece t - start an ulp shorter than the segment.
    params = CouplerParams(1.8889830508474579, 1.0)
    protocol = minimal_plan_search(params, 0.99).plan.protocol
    assert len(protocol.segments) == 4
    traj = propagate(params, protocol, ModeState.mode1(), 256)
    assert traj.t[192] == protocol.ends[2] == 1.2296561309980376
    ref = protocol_propagator(params, Protocol(protocol.segments[:3])).apply(ModeState.mode1())
    a1, a2 = traj.a1[192], traj.a2[192]
    assert hexed([[a1.real, a1.imag, a2.real, a2.imag]]) == hexed(
        [[ref.a1.real, ref.a1.imag, ref.a2.real, ref.a2.imag]]
    )


@given(couplers, st.lists(st.tuples(phases, turns), min_size=1, max_size=8))
@example((0.5, 1.0), [(-0.0, 0.0), (-1e-20, math.pi / 2.0), (math.pi, 0.0), (1.0, 3.0)])
def test_protocol_propagator_is_the_compose_loop(coupler, pairs):
    params = CouplerParams(*coupler)
    protocol = Protocol.from_pairs((p, d / params.rabi) for p, d in pairs)
    m, ref = protocol_propagator(params, protocol), scalar_product(params, protocol.segments)
    assert hexed([[m.d.real, m.d.imag, m.o.real, m.o.imag]]) == hexed(
        [[ref.d.real, ref.d.imag, ref.o.real, ref.o.imag]]
    )


signed = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -0.5]), st.floats(-2.0, 2.0))


@given(st.tuples(signed, signed, signed, signed).filter(lambda a: any(a)))
@example((-0.0, 0.0, 1.0, -0.5))
def test_to_bloch_matches_complex_arithmetic(parts):
    state = ModeState(complex(*parts[:2]), complex(*parts[2:]))
    try:
        ref = scalar_row(0.0, state)[7:]
    except ValueError:  # the norm underflows to 0: both reject the state
        with pytest.raises(ValueError):
            to_bloch(state)
        return
    b = to_bloch(state)
    assert hexed([[b.u, b.v, b.w]]) == hexed([ref])


def test_to_bloch_columns_equal_points():
    params = CouplerParams(0.7, 1.1)
    protocol = Protocol.from_pairs([(0.3, 1.2), (2.0, 0.7)])
    traj = propagate(params, protocol, ModeState(0.6, 0.8j), 33)
    b = to_bloch(traj)
    for k in (0, 5, 33):
        point = to_bloch(ModeState(traj.a1[k], traj.a2[k]))
        assert [point.u, point.v, point.w] == [b.u[k], b.v[k], b.w[k]]


def leg_lengths(pairs, sample_count):
    """Points per polyline of the u-w panel of a mode-1 trajectory."""
    params = CouplerParams(0.5, 1.0)
    protocol = Protocol.from_pairs(pairs)
    traj = propagate(params, protocol, ModeState.mode1(), sample_count)
    b = to_bloch(traj)
    svg = trajectory_svg(traj.t, b.u, b.v, b.w, protocol.ends[:-1])
    polylines = re.findall(r'<polyline points="([^"]*)"', svg)
    return [len(p.split()) for p in polylines[: len(polylines) // 2]]


def test_split_legs_closes_one_boundary_per_sample():
    # Boundaries 1.0, 1.0 (a zero-duration segment) and 1.05 (a segment
    # shorter than the sample step 2.05 / 16) close on three successive
    # samples, each shared by the legs it joins.
    assert leg_lengths([(0.0, 1.0), (1.0, 0.0), (2.0, 0.05), (3.0, 1.0)], 16) == [9, 2, 2, 7]
    # Two samples, three boundaries: the first sample closes the one at
    # t = 0, the last sample one more, and the third never closes.
    assert leg_lengths([(0.0, 0.0), (1.0, 0.5), (2.0, 0.5), (3.0, 0.5)], 1) == [1, 2, 1]


def svgs(out, args):
    assert main([*map(str, args), "--out", str(out)]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.glob("*.svg"))}


def test_svg_legs_do_not_depend_on_the_time_unit(tmp_path):
    # delta and kappa0 times 2**-10 is exact: every W t keeps its bits, and
    # durations grow by 2**10, past where an absolute slack fits an ulp.
    s = 2.0**-10
    plan = ["plan", "--threshold", 0.99]
    ref = svgs(tmp_path / "a", [*plan, "--delta", 3.5, "--kappa", 1.0])
    assert list(ref) == ["trajectory.svg"]
    assert svgs(tmp_path / "b", [*plan, "--delta", 3.5 * s, "--kappa", s]) == ref
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"samples": 100}')
    iso = ["isolator", "--config", cfg]
    ref = svgs(tmp_path / "c", [*iso, "--delta", 0.5, "--kappa", 1.0])
    assert list(ref) == ["trajectory_backward.svg", "trajectory_forward.svg"]
    assert svgs(tmp_path / "d", [*iso, "--delta", 0.5 * s, "--kappa", s]) == ref
