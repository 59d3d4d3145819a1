"""Nonreciprocal three-stage cascade built from modulated couplers.

Two identical modulated coupling stages sandwich a static differential
phase section diag(exp(i theta1), exp(i theta2)).  The second coupling
stage runs the same modulation pattern with its drive phase offset by
delta, equivalent to multiplying its off-diagonal element by exp(-i
delta).  Forward traversal is stage, section, offset stage; backward
traversal hits the same three elements in reverse order.  Because the
modulation pattern is fixed in time the two directions see different
total phases and the cross transmission is direction dependent:

    |T_12|^2 = 2 |D|^2 |O|^2 (1 + cos(dtheta + 2 arg D +/- delta)),

with + for forward.  The 2 arg D term vanishes in the gauge where the
stage diagonal is real; canonical_stage provides that gauge.

For a balanced stage (|D|^2 = |O|^2 = 1/2) the choice dtheta = delta =
pi/2 blocks the forward cross transmission completely while the backward
one reaches 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    compose,
    propagate,
)

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class IsolatorSpec:
    """Cascade description.

    stage:     transfer matrix of one modulated coupling stage.
    theta1/2:  static phases (rad) picked up by modes 1 and 2 between
               the stages.
    rf_offset: drive phase offset delta (rad) of the second stage
               relative to the first.
    """

    stage: TransferMatrix
    theta1: float
    theta2: float
    rf_offset: float

    def __post_init__(self) -> None:
        if self.stage.unitarity_defect > 1e-9:
            raise ValueError("stage matrix must be unitary")
        object.__setattr__(self, "theta1", float(self.theta1))
        object.__setattr__(self, "theta2", float(self.theta2))
        object.__setattr__(self, "rf_offset", float(self.rf_offset))

    @property
    def delta_theta(self) -> float:
        return self.theta1 - self.theta2


def stage_with_offset(stage: TransferMatrix, offset: float) -> TransferMatrix:
    """Stage driven with its modulation phase shifted by offset.

    Shifting every drive phase by -offset multiplies the off-diagonal
    element by exp(-i offset) and leaves the diagonal untouched.
    """
    return TransferMatrix(stage.d, stage.o * cmath.exp(-1j * offset))


def canonical_stage(stage: TransferMatrix) -> TransferMatrix:
    """Equivalent stage in the gauge with a real nonnegative diagonal.

    Port phase references are free; reindexing them cannot change any
    |T|^2.  In this gauge the closed-form cross power loses its
    2 arg D term.
    """
    return TransferMatrix(abs(stage.d), stage.o)


def phase_section(theta1: float, theta2: float) -> TransferMatrix:
    """Static differential section, SU(2) part only.

    diag(e^{i theta1}, e^{i theta2}) equals a global phase times
    diag(e^{i dtheta/2}, e^{-i dtheta/2}); the global phase cannot affect
    any transmission power and is dropped.
    """
    half = (theta1 - theta2) / 2.0
    return TransferMatrix(cmath.exp(1j * half), 0.0)


def cascade(spec: IsolatorSpec, direction: str) -> TransferMatrix:
    """Total cascade propagator (global phase dropped) for one direction."""
    section = phase_section(spec.theta1, spec.theta2)
    second = stage_with_offset(spec.stage, spec.rf_offset)
    if direction == FORWARD:
        return compose(second, compose(section, spec.stage))
    if direction == BACKWARD:
        return compose(spec.stage, compose(section, second))
    raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")


def cross_power(spec: IsolatorSpec, direction: str) -> float:
    """Cross transmission |T_12|^2 from the cascade matrix product."""
    return abs(cascade(spec, direction).o) ** 2


def closed_form_cross_power(spec: IsolatorSpec, direction: str) -> float:
    """Cross transmission from the interference formula.

    2 |D|^2 |O|^2 (1 + cos(dtheta + 2 arg D + delta)) forward and with
    -delta backward.  Agrees with cross_power to machine precision for
    any unitary stage.
    """
    d, o = spec.stage.d, spec.stage.o
    arg_d = cmath.phase(d) if d != 0 else 0.0
    if direction == FORWARD:
        angle = spec.delta_theta + 2.0 * arg_d + spec.rf_offset
    elif direction == BACKWARD:
        angle = spec.delta_theta + 2.0 * arg_d - spec.rf_offset
    else:
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    return 2.0 * abs(d) ** 2 * abs(o) ** 2 * (1.0 + math.cos(angle))


def reciprocity_defect(spec: IsolatorSpec) -> float:
    """|forward - backward| cross power; zero exactly when reciprocal."""
    return abs(cross_power(spec, FORWARD) - cross_power(spec, BACKWARD))


def effective_differential_phase(spec: IsolatorSpec) -> float:
    """delta_theta + 2 arg D, the angle that actually enters the response.

    Replacing the stage by canonical_stage(stage) and delta_theta by this
    value leaves both directional powers unchanged.
    """
    d = spec.stage.d
    arg_d = cmath.phase(d) if d != 0 else 0.0
    return spec.delta_theta + 2.0 * arg_d


@dataclass(frozen=True)
class DirectionalResponse:
    forward: TransferMatrix
    backward: TransferMatrix
    forward_power: float
    backward_power: float
    contrast_db: float


def _contrast_db(fwd: float, bwd: float) -> float:
    if fwd == bwd:
        return 0.0
    if bwd == 0.0:
        return math.inf
    if fwd == 0.0:
        return -math.inf
    return 10.0 * math.log10(fwd / bwd)


def directional_response(spec: IsolatorSpec) -> DirectionalResponse:
    fwd_m = cascade(spec, FORWARD)
    bwd_m = cascade(spec, BACKWARD)
    fwd = abs(fwd_m.o) ** 2
    bwd = abs(bwd_m.o) ** 2
    return DirectionalResponse(fwd_m, bwd_m, fwd, bwd, _contrast_db(fwd, bwd))


def optimal_phases() -> tuple[float, float]:
    """(delta_theta, rf_offset) giving complete isolation.

    For a balanced stage with real diagonal, (pi/2, pi/2) makes the
    forward cross power vanish while the backward one reaches 1.
    """
    return (math.pi / 2.0, math.pi / 2.0)


@dataclass(frozen=True)
class ContrastSweep:
    """Directional powers over a (delta_theta, rf_offset) grid.

    delta_thetas indexes the rows of the power arrays, offsets the
    columns.  The grid is half open, [0, 2 pi) on both axes; the maps
    are exactly 2 pi periodic.
    """

    delta_thetas: np.ndarray
    offsets: np.ndarray
    forward: np.ndarray
    backward: np.ndarray

    @property
    def contrast_db(self) -> np.ndarray:
        # Cells where both powers vanish are nan, as 0/0.
        with np.errstate(divide="ignore", invalid="ignore"):
            return 10.0 * (np.log10(self.forward) - np.log10(self.backward))


def contrast_sweep(stage: TransferMatrix, n: int = 64) -> ContrastSweep:
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if stage.unitarity_defect > 1e-9:
        raise ValueError("stage matrix must be unitary")
    dthetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    offsets = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    d, o = stage.d, stage.o
    arg_d = cmath.phase(d) if d != 0 else 0.0
    amp = 2.0 * abs(d) ** 2 * abs(o) ** 2
    base = dthetas[:, None] + 2.0 * arg_d
    fwd = amp * (1.0 + np.cos(base + offsets[None, :]))
    bwd = amp * (1.0 + np.cos(base - offsets[None, :]))
    return ContrastSweep(dthetas, offsets, fwd, bwd)


def phase_jump(state: ModeState, theta1: float, theta2: float) -> ModeState:
    return ModeState(
        state.a1 * cmath.exp(1j * theta1), state.a2 * cmath.exp(1j * theta2)
    )


def offset_protocol(protocol: Protocol, offset: float) -> Protocol:
    """The stage protocol re-driven with all phases shifted by -offset."""
    return Protocol(
        tuple(CouplingSegment(s.phase - offset, s.duration) for s in protocol.segments)
    )


def cascade_trajectory(
    params: CouplerParams,
    stage_protocol: Protocol,
    spec: IsolatorSpec,
    direction: str,
    sample_count: int = 256,
) -> list[tuple[float, ModeState]]:
    """Time-resolved state through the cascade, starting from mode 1.

    The static section acts instantaneously at the stage boundary; both
    stages contribute sample_count samples each.  The offset stage is
    realized as the stage protocol with all drive phases shifted, which
    reproduces stage_with_offset exactly.
    """
    if direction == FORWARD:
        first, second = stage_protocol, offset_protocol(stage_protocol, spec.rf_offset)
    elif direction == BACKWARD:
        first, second = offset_protocol(stage_protocol, spec.rf_offset), stage_protocol
    else:
        raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")
    leg1 = propagate(params, first, ModeState.mode1(), sample_count)
    t_mid = leg1[-1][0]
    mid = phase_jump(leg1[-1][1], spec.theta1, spec.theta2)
    leg2 = propagate(params, second, mid, sample_count)
    out = list(leg1)
    out.extend((t_mid + t, s) for t, s in leg2[1:])
    # Keep the post-jump state visible at the boundary time.
    out.insert(sample_count + 1, (t_mid, mid))
    return out
