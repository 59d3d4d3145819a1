"""The battery's column checks, bit for bit the per-case loops they replace.

segment_unitarity, segment_splitting, cone_floor, isolator_identity,
propagator_vs_expm, bloch_consistency, precession_rigidity and
precession_leg evaluate all their cases as columns.  Each reference below
is the per-case loop such a check runs with the scalar API: one
CouplerParams, CouplingSegment and TransferMatrix per case.  Where the
library shares its column code with the scalar path (TransferMatrix's
unitarity_defect, the public isolator functions that isolator_identity
calls on a column IsolatorSpec, the geometry algebra, the spectral
reference's product), the reference writes the formula out in Python
float or complex arithmetic instead: the geometry's dot products as
left-to-right sums of floats, its cross products by np.cross, and
V diag(exp(-i lambda t)) V^H from one case's eigh as sums of complex
products.  Every per-case residual must agree as
float.hex, and the rng must be left in the same state, so that every
later check sees the same draws."""

import cmath
import math
from functools import reduce
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modeswitch import (
    BACKWARD,
    FORWARD,
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    compose,
    cone_floor,
    generator,
    propagate,
    segment_propagator,
    to_bloch,
    verify,
)


def random_params(rng):
    return CouplerParams(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0))


def random_segment(rng, max_wt):
    params = random_params(rng)
    seg = CouplingSegment(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, max_wt) / params.rabi)
    return params, seg


def matrix_mismatch(a, b):
    return float(np.abs(a - b).max())


def segment_unitarity(rng, n):
    for _ in range(n):
        m = segment_propagator(*random_segment(rng, 4.0))
        yield abs(abs(m.d) ** 2 + abs(m.o) ** 2 - 1.0)


def segment_splitting(rng, n):
    for _ in range(n):
        params = random_params(rng)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        t1, t2 = rng.uniform(0.0, 2.0, size=2) / params.rabi
        whole = segment_propagator(params, CouplingSegment(phase, t1 + t2))
        split = compose(
            segment_propagator(params, CouplingSegment(phase, t2)),
            segment_propagator(params, CouplingSegment(phase, t1)),
        )
        yield matrix_mismatch(whole.as_array(), split.as_array())


def spectral_propagator(h, t):
    """exp(-i H t) = V diag(exp(-i lambda t)) V^H from H's eigh, the
    product in Python complex arithmetic."""
    lam, v = np.linalg.eigh(h)
    turn = [complex(x) for x in np.exp(-1j * lam * t)]
    v = v.tolist()
    return np.array(
        [[sum(v[i][k] * turn[k] * v[j][k].conjugate() for k in range(2)) for j in range(2)] for i in range(2)]
    )


def propagator_vs_expm(rng, n, inject_fault):
    for _ in range(n):
        params, seg = random_segment(rng, 3.0)
        # The fault conjugates the reference: its phase negated, and reduced.
        ref = CouplingSegment(-seg.phase, seg.duration) if inject_fault else seg
        exact = segment_propagator(params, seg).as_array()
        yield matrix_mismatch(exact, spectral_propagator(generator(params, ref.phase), ref.duration))


def cone_floor_residuals(rng, n):
    for _ in range(n):
        params = random_params(rng)
        seg = CouplingSegment(rng.uniform(0.0, 2.0 * math.pi), math.pi / params.rabi)
        traj = propagate(params, Protocol((seg,)), ModeState.mode1(), 128)
        yield cone_floor(params) - float(to_bloch(traj).w.min())


def complex_compose(later, earlier):
    return TransferMatrix(
        later.d * earlier.d - later.o * earlier.o.conjugate(),
        later.d * earlier.o + later.o * earlier.d.conjugate(),
    )


def cross_power(stage, dtheta, offset, direction):
    section = TransferMatrix(cmath.exp(1j * (dtheta / 2.0)), 0.0)
    shifted = TransferMatrix(stage.d, stage.o * cmath.exp(-1j * offset))
    first, second = (stage, shifted) if direction == FORWARD else (shifted, stage)
    return abs(complex_compose(second, complex_compose(section, first)).o) ** 2


def isolator_identity(rng, n):
    for _ in range(n):
        alpha = rng.uniform(0.0, math.pi / 2.0)
        d = math.cos(alpha) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        o = math.sin(alpha) * np.exp(1j * rng.uniform(-math.pi, math.pi))
        stage = TransferMatrix(complex(d), complex(o))
        theta1, theta2, offset = (rng.uniform(0.0, 2.0 * math.pi) for _ in range(3))
        dtheta = theta1 - theta2
        amp = 2.0 * abs(stage.d) ** 2 * abs(stage.o) ** 2
        base = dtheta + 2.0 * cmath.phase(stage.d)
        closed = amp * (1.0 + np.cos(base + offset)), amp * (1.0 + np.cos(base - offset))
        yield max(
            abs(cross_power(stage, dtheta, offset, direction) - p)
            for direction, p in zip((FORWARD, BACKWARD), closed)
        )
    stage = TransferMatrix(math.sqrt(0.5), 1j * math.sqrt(0.5))
    for dtheta, offset in ((1.3 - 0.4, 0.0), (0.0 - 0.0, 2.1)):
        yield abs(
            cross_power(stage, dtheta, offset, FORWARD)
            - cross_power(stage, dtheta, offset, BACKWARD)
        )


def random_state(rng):
    a = rng.normal(size=4)
    return ModeState(complex(a[0], a[1]), complex(a[2], a[3])).normalized()


def dot(a, b):
    a0, a1, a2 = np.asarray(a, dtype=float).tolist()
    b0, b1, b2 = np.asarray(b, dtype=float).tolist()
    return a0 * b0 + a1 * b1 + a2 * b2


def axis_of(params, phi):
    """The unit axis and rate W of a segment of phase phi."""
    w = params.rabi
    kappa0, delta = params.kappa0, params.delta
    return np.array([kappa0 * math.cos(phi) / w, kappa0 * math.sin(phi) / w, delta / w]), w


def precess(n, w, p, t):
    """p turned by -2 W t, right-handed, about the unit axis n."""
    c, s = math.cos(-2.0 * w * t), math.sin(-2.0 * w * t)
    return p * c + np.cross(n, p) * s + n * dot(n, p) * (1.0 - c)


def bloch_consistency(rng, n):
    for _ in range(n):
        params = random_params(rng)
        w = params.rabi
        protocol = Protocol.from_pairs(
            (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 1.2) * math.pi / w)
            for _ in range(int(rng.integers(1, 6)))
        )
        state = random_state(rng)
        bloch = to_bloch(state).as_array()
        for seg in protocol.segments:
            state = segment_propagator(params, seg).apply(state)
            bloch = precess(*axis_of(params, seg.phase), bloch, seg.duration)
        yield float(np.abs(to_bloch(state).as_array() - bloch).max())


def precession_rigidity(rng, n):
    for _ in range(n):
        params = random_params(rng)
        axis, w = axis_of(params, rng.uniform(0.0, 2.0 * math.pi))
        p = rng.normal(size=3)
        start = p / math.sqrt(dot(p, p))
        times = rng.uniform(0.0, 5.0 / params.rabi, size=5)
        worst = 0.0
        for t in times:
            u, v, z = precess(axis, w, start, float(t)).tolist()
            norm = math.sqrt(u**2 + v**2 + z**2)
            worst = max(worst, abs(norm - 1.0), abs(dot(axis, (u, v, z)) - dot(axis, start)))
        yield worst


def precession_leg(rng, n):
    for _ in range(n):
        params, seg = random_segment(rng, 4.0)
        state = random_state(rng)
        along = rng.normal(size=3)
        along /= math.sqrt(dot(along, along))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        axis, w = axis_of(params, seg.phase)
        p = to_bloch(state).as_array()
        height = dot(axis, p)
        perp = p - height * axis
        r_cos, r_sin = dot(along, perp), dot(along, np.cross(axis, perp))
        c, r, chi = height * dot(along, axis), math.hypot(r_cos, r_sin), math.atan2(r_sin, r_cos)
        turn = (angle - chi) % (2.0 * math.pi)
        turn = 0.0 if turn >= 2.0 * math.pi - 1e-9 else turn
        worst = 0.0
        for s, predicted in (
            (seg.duration, c + r * math.cos(2.0 * w * seg.duration + chi)),
            (turn / (2.0 * w), c + r * math.cos(angle)),
        ):
            moved = segment_propagator(params, CouplingSegment(seg.phase, s)).apply(state)
            worst = max(worst, abs(dot(along, to_bloch(moved).as_array()) - predicted))
        yield worst


# name: (column check, its per-case reference, full case count, extra argument)
CHECKS = {
    "segment_unitarity": (verify.check_segment_unitarity, segment_unitarity, 2000, ()),
    "segment_splitting": (verify.check_segment_splitting, segment_splitting, 300, ()),
    "cone_floor": (verify.check_cone_floor, cone_floor_residuals, 200, ()),
    "isolator_identity": (verify.check_isolator_identity, isolator_identity, 1000, ()),
    "propagator_vs_expm": (verify.check_expm_agreement, propagator_vs_expm, 200, (False,)),
    "propagator_vs_expm, fault": (verify.check_expm_agreement, propagator_vs_expm, 200, (True,)),
    "bloch_consistency": (verify.check_bloch_consistency, bloch_consistency, 100, ()),
    "precession_rigidity": (verify.check_precession_rigidity, precession_rigidity, 200, ()),
    "precession_leg": (verify.check_precession_leg, precession_leg, 300, ()),
}


def hexed(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("name", CHECKS)
@settings(max_examples=8)
@given(st.integers(0, 2**64 - 1))
@example(20240817)
@example(528034840)
def test_column_check_is_the_per_case_loop_bit_for_bit(name, seed):
    check, reference, full, extra = CHECKS[name]
    for n in (full, max(3, int(full * 0.2))):
        ref_rng = np.random.default_rng(seed)
        want = list(reference(ref_rng, n, *extra))
        rng = np.random.default_rng(seed)
        seen = []
        worst = verify._worst

        def spy(*args):
            seen.append(args[1])
            return worst(*args)

        with mock.patch.object(verify, "_worst", spy):
            result = check(rng, n, *extra)
        [got] = seen
        assert hexed(got) == hexed(want)
        assert result.residual.hex() == reduce(max, want, 0.0).hex()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize(
    "residuals",
    [[math.nan], [1e-13, math.nan, 2e-13], (x for x in (math.nan, 1e-13)), np.array([0.0, np.nan])],
)
def test_a_nan_residual_fails_and_is_reported(residuals):
    result = verify._worst("x", residuals, 1e-12, "")
    assert not result.passed
    assert math.isnan(result.residual)


def test_a_kernel_that_returns_nan_fails_its_check():
    def nan_defects(row):
        return np.full(np.shape(row[0]), np.nan)

    with mock.patch("modeswitch.dynamics._unitarity_defect", nan_defects):
        result = verify.check_segment_unitarity(np.random.default_rng(1), 10)
    assert not result.passed
    assert math.isnan(result.residual)
