"""modeswitch: switched-coupling transfer in detuned two-mode systems.

Closed-form propagators for piecewise-constant coupling modulation, a
Bloch-sphere geometric account of when two segments suffice for complete
mode conversion, multi-segment descent planning for strong detuning, a
three-stage nonreciprocal cascade model, and an independent RK4 oracle.
"""

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
    segment_propagator,
    static_max_transfer,
)
from .geometry import (
    NORTH,
    SOUTH,
    BlochVector,
    RotationAxis,
    bloch_precess,
    cone_floor,
    leg_time,
    precession_leg,
    rotation_axis,
    tilt_angle,
    to_bloch,
)
from .isolator import (
    BACKWARD,
    FORWARD,
    ContrastSweep,
    IsolatorSpec,
    cascade,
    cascade_trajectory,
    closed_form_powers,
    contrast_db,
    contrast_sweep,
    cross_power,
    effective_differential_phase,
    optimal_phases,
    reciprocity_defect,
    stage_with_offset,
)
from .oracle import (
    IntegrationConfig,
    expm_propagator,
    generator,
    integrate,
    integrate_matrix,
)
from .planner import (
    PlanSearch,
    PlanSearchError,
    StaircasePlan,
    descent_bound,
    dive_plan,
    min_switches_estimate,
    minimal_plan_search,
)
from .twostep import (
    FeasibilityMap,
    InfeasibleTransferError,
    TransferMap,
    TwoStepSolution,
    axis_separation,
    critical_phase,
    feasibility_map,
    pushpull_times,
    solve_fraction,
    solve_two_step,
    transfer_map,
    two_step_ceiling,
    two_step_feasible,
)

__version__ = "0.1.0"
