"""Independent numerical integration of the two-mode equations.

This module deliberately avoids the closed-form propagator: it steps
i da/dt = H a with a fixed-step classical Runge-Kutta (RK4) scheme so it
can arbitrate disputes about signs and conventions elsewhere.  A second,
structurally different check via scipy's matrix exponential is also
provided.

H is constant within a segment, so the four RK4 stages of one step
collapse into one matrix: a -> a + E a, with E = z + z^2/2 + z^3/6 +
z^4/24 and z = -i dt H.  That is the fourth-order Taylor polynomial of
the step, not the exponential, and it is built from H alone,
independent of the closed-form propagator.  E is formed once per
segment, and n steps are the matrix power (I + E)^n, applied by binary
powering in O(log n) products rather than n.  Each power is kept as its
increment X = (I + E)^m - I: squaring is X -> 2 X + X^2, and a power is
applied to the state as a -> a + X a, which keeps rounding from piling
up in one direction.  Every step still counts; only their order of
multiplication changes.

Steps never straddle a segment boundary.  Within each segment the step
count is ceil(duration / step) so the integrator lands on the boundary
exactly; the last partial step is therefore slightly shorter, never
longer, than requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
)

# Default resolution: step * W, and the largest value accepted.  RK4
# error grows like (step * W)^4; results past the cap are not meaningful.
DEFAULT_STEP_FRACTION = 0.001
HARD_STEP_FRACTION = 0.1


@dataclass(frozen=True)
class IntegrationConfig:
    """Fixed-step RK4 configuration: the step as a fraction of 1 / W.

    step_fraction is step * W and must lie in (0, HARD_STEP_FRACTION].
    """

    step_fraction: float = DEFAULT_STEP_FRACTION

    def __post_init__(self) -> None:
        frac = float(self.step_fraction)
        if not 0.0 < frac <= HARD_STEP_FRACTION:
            raise ValueError(
                f"step_fraction {frac:g} must lie in (0, {HARD_STEP_FRACTION:g}]"
            )
        object.__setattr__(self, "step_fraction", frac)

    def resolved_step(self, params: CouplerParams) -> float:
        """The step in seconds."""
        return self.step_fraction / params.rabi


def generator(params: CouplerParams, phi: float) -> np.ndarray:
    """Coupling matrix H for phase phi."""
    kappa = params.kappa0 * complex(math.cos(phi), math.sin(phi))
    return np.array(
        [[params.delta, kappa], [kappa.conjugate(), -params.delta]], dtype=complex
    )


def _rk4_segment(h: np.ndarray, a: np.ndarray, duration: float, step: float) -> np.ndarray:
    # E is the RK4 step matrix of the module docstring, in Horner form.  X
    # runs through the increments (I + E)^(2^k) - I, squared as 2 X + X^2;
    # the columns of a take a -> a + X a once per set bit k of n - 1, and
    # once more at k = 0, so one and two steps are exactly a -> a + E a.
    if duration == 0.0:
        return a
    n = max(1, math.ceil(duration / step))
    dt = duration / n
    z = (-1j * dt) * h
    eye = np.eye(2, dtype=complex)
    e = z @ (eye + z @ (eye + z @ (eye + z / 4.0) / 3.0) / 2.0)
    (x11, x12), (x21, x22) = e.tolist()
    cols = a.reshape(2, -1).T.tolist()
    bits = n - 1
    reps = 1 + (bits & 1)
    while True:
        for _ in range(reps):
            cols = [(p + (x11 * p + x12 * q), q + (x21 * p + x22 * q)) for p, q in cols]
        bits >>= 1
        if not bits:
            break
        reps = bits & 1
        x11, x12, x21, x22 = (
            2.0 * x11 + (x11 * x11 + x12 * x21), 2.0 * x12 + (x11 * x12 + x12 * x22),
            2.0 * x21 + (x21 * x11 + x22 * x21), 2.0 * x22 + (x21 * x12 + x22 * x22),
        )
    return np.array(cols, dtype=complex).T.reshape(a.shape)


def _rk4_protocol(
    params: CouplerParams,
    protocol: Protocol,
    a: np.ndarray,
    config: IntegrationConfig | None,
) -> np.ndarray:
    """Step a, one state vector or a 2x2 matrix of columns, through the protocol."""
    step = (config or IntegrationConfig()).resolved_step(params)
    for seg in protocol.segments:
        a = _rk4_segment(generator(params, seg.phase), a, seg.duration, step)
    return a


def integrate(
    params: CouplerParams,
    protocol: Protocol,
    initial: ModeState,
    config: IntegrationConfig | None = None,
) -> ModeState:
    """Integrate the protocol from the given initial state.

    No renormalization is applied along the way; norm drift is part of
    the error signal this oracle exists to expose.
    """
    a = np.array([initial.a1, initial.a2], dtype=complex)
    a = _rk4_protocol(params, protocol, a, config)
    return ModeState(complex(a[0]), complex(a[1]))


def integrate_matrix(
    params: CouplerParams,
    protocol: Protocol,
    config: IntegrationConfig | None = None,
) -> np.ndarray:
    """Full 2x2 propagator: both basis states stepped together as one matrix."""
    return _rk4_protocol(params, protocol, np.eye(2, dtype=complex), config)


def expm_propagator(params: CouplerParams, segment: CouplingSegment) -> np.ndarray:
    """Segment propagator via scipy's scaling-and-squaring expm.

    scipy is imported here, not at module level: only the battery calls
    this, and every other command starts without loading scipy.linalg.
    """
    from scipy.linalg import expm

    h = generator(params, segment.phase)
    return expm(-1j * h * segment.duration)
