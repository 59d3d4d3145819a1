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

with + for forward (closed_form_powers).  The 2 arg D term is the
stage's own gauge: it vanishes only for a real stage diagonal, and
optimal_phases(stage) and effective_differential_phase already include
it.

For a balanced stage (|D|^2 = |O|^2 = 1/2) the choice dtheta + 2 arg D =
delta = pi/2 blocks the forward cross transmission completely while the
backward one reaches 1.
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
    Trajectory,
    TransferMatrix,
    compose,
    propagate,
    protocol_propagator,
    remap_phases,
)
from .twostep import pushpull_times

FORWARD = "forward"
BACKWARD = "backward"
# Largest unitarity defect accepted for a stage: absorbs the rounding of a
# stage multiplied out of segment propagators or built from cos and sin.
UNITARY_TOL = 1e-9


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
        if self.stage.unitarity_defect > UNITARY_TOL:
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


def _in_order(direction: str, stage, offset_stage):
    """The two stages in the order the given direction meets them."""
    if direction == FORWARD:
        return stage, offset_stage
    if direction == BACKWARD:
        return offset_stage, stage
    raise ValueError(f"direction must be '{FORWARD}' or '{BACKWARD}'")


def cascade(spec: IsolatorSpec, direction: str) -> TransferMatrix:
    """Total cascade propagator (global phase dropped) for one direction.

    The section diag(e^{i theta1}, e^{i theta2}) enters as its SU(2)
    part diag(e^{i dtheta/2}, e^{-i dtheta/2}); the global phase cannot
    affect any transmission power.
    """
    section = TransferMatrix(cmath.exp(1j * (spec.delta_theta / 2.0)), 0.0)
    first, second = _in_order(
        direction, spec.stage, stage_with_offset(spec.stage, spec.rf_offset)
    )
    return compose(second, compose(section, first))


def cross_power(spec: IsolatorSpec, direction: str) -> float:
    """Cross transmission |T_12|^2 from the cascade matrix product."""
    return abs(cascade(spec, direction).o) ** 2


def _gauge_angle(stage: TransferMatrix) -> float:
    """2 arg D, the stage's contribution to the differential phase."""
    return 2.0 * cmath.phase(stage.d)


def closed_form_powers(stage: TransferMatrix, dtheta, offset):
    """(forward, backward) cross powers from the interference formula.

    2 |D|^2 |O|^2 (1 + cos(dtheta + 2 arg D +/- offset)), elementwise, so
    dtheta and offset may be numpy arrays that broadcast together.
    Agrees with cross_power to machine precision for any unitary stage.
    """
    amp = 2.0 * abs(stage.d) ** 2 * abs(stage.o) ** 2
    base = dtheta + _gauge_angle(stage)
    return amp * (1.0 + np.cos(base + offset)), amp * (1.0 + np.cos(base - offset))


def reciprocity_defect(spec: IsolatorSpec) -> float:
    """|forward - backward| cross power; zero exactly when reciprocal."""
    return abs(cross_power(spec, FORWARD) - cross_power(spec, BACKWARD))


def effective_differential_phase(spec: IsolatorSpec) -> float:
    """delta_theta + 2 arg D, the angle that actually enters the response.

    Replacing the stage by one with diagonal |D| and delta_theta by this
    value leaves both directional powers unchanged.
    """
    return spec.delta_theta + _gauge_angle(spec.stage)


def contrast_db(fwd, bwd):
    """10 log10(fwd / bwd) elementwise: 0 for equal powers, +/-inf for one zero.

    Scalars give a float, arrays an array of the broadcast shape.
    """
    fwd = np.asarray(fwd, dtype=float)
    bwd = np.asarray(bwd, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 10.0 * (np.log10(fwd) - np.log10(bwd))
    return np.where(fwd == bwd, 0.0, db)[()]


def optimal_phases(stage: TransferMatrix) -> tuple[float, float]:
    """(delta_theta, rf_offset) giving complete isolation with this stage.

    For a balanced stage, delta_theta + 2 arg D = rf_offset = pi/2 makes
    the forward cross power vanish while the backward one reaches 1;
    delta_theta is returned reduced to [0, 2 pi).
    """
    return ((math.pi / 2.0 - _gauge_angle(stage)) % (2.0 * math.pi), math.pi / 2.0)


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
        return contrast_db(self.forward, self.backward)


def contrast_sweep(stage: TransferMatrix, n: int = 64) -> ContrastSweep:
    if n < 2:
        raise ValueError("sweep needs n >= 2")
    if stage.unitarity_defect > UNITARY_TOL:
        raise ValueError("stage matrix must be unitary")
    dthetas = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    offsets = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    fwd, bwd = closed_form_powers(stage, dthetas[:, None], offsets[None, :])
    return ContrastSweep(dthetas, offsets, fwd, bwd)


def pushpull_stage(params: CouplerParams) -> tuple[Protocol, TransferMatrix]:
    """The push-pull first segment, a 50:50 stage, and its propagator."""
    protocol = Protocol((CouplingSegment(0.0, pushpull_times(params).t1),))
    return protocol, protocol_propagator(params, protocol)


def cascade_trajectory(
    params: CouplerParams,
    stage_protocol: Protocol,
    spec: IsolatorSpec,
    direction: str,
    sample_count: int = 256,
) -> Trajectory:
    """Time-resolved state through the cascade, starting from mode 1.

    The static section acts instantaneously at the stage boundary, whose
    time appears before and after the jump; both stages contribute
    sample_count samples each.  The offset stage is realized as the stage
    protocol with all drive phases shifted by -rf_offset, which
    reproduces stage_with_offset exactly.
    """
    first, second = _in_order(
        direction, stage_protocol, remap_phases(stage_protocol, shift=spec.rf_offset)
    )
    leg1 = propagate(params, first, ModeState.mode1(), sample_count)
    t_mid, end = leg1.t[-1], leg1.final
    mid = ModeState(
        end.a1 * cmath.exp(1j * spec.theta1), end.a2 * cmath.exp(1j * spec.theta2)
    )
    leg2 = propagate(params, second, mid, sample_count)
    return Trajectory(
        np.concatenate((leg1.t, [t_mid], t_mid + leg2.t[1:])),
        np.concatenate((leg1.a1, [mid.a1], leg2.a1[1:])),
        np.concatenate((leg1.a2, [mid.a2], leg2.a2[1:])),
    )
