"""Self-check battery: every load-bearing identity, checked numerically.

Each check exercises one contract of the package against an independent
route (grid-and-zoom brute force, the RK4 oracle, scipy's expm, direct
geometry) and reports a residual against a fixed tolerance.  The battery
is what the `modeswitch verify` subcommand runs.  precession_leg checks
the leg-height primitive that times the two-segment switch and the
fraction cut against the amplitude propagator; plan_geometry checks
that each planned switch point stays on the circle it leaves.

A check whose contract is a formula over one case keeps that formula in
a pure `<check>_residual(case...) -> float`.  check_<check> only draws
its cases from the battery's rng and keeps the worst residual; the
property tests call the same residual on cases of their own.

inject_fault=True deliberately corrupts the reference used in the expm
comparison: each segment's coupling phase is negated, which conjugates
the Hamiltonian.  The propagator_vs_expm check must then fail; this
guards against the battery itself going soft.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from functools import reduce

import numpy as np

from .dynamics import (
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    abs2,
    compose,
    propagate,
    protocol_propagator,
    remap_phases,
    segment_propagator,
    static_max_transfer,
)
from .geometry import (
    NORTH,
    BlochVector,
    RotationAxis,
    bloch_precess,
    cone_floor,
    leg_time,
    precession_leg,
    rotation_axis,
    to_bloch,
)
from .isolator import (
    BACKWARD,
    FORWARD,
    IsolatorSpec,
    cascade_trajectory,
    closed_form_powers,
    cross_power,
    pushpull_stage,
    reciprocity_defect,
    stage_with_offset,
)
from .oracle import IntegrationConfig, expm_propagator, integrate_matrix
from .planner import StaircasePlan, minimal_plan_search
from .twostep import _grid_transfer, pushpull_times, two_step_ceiling, two_step_feasible


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tolerance: float
    detail: str


def _result(name: str, residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(residual <= tol), float(residual), float(tol), detail)


def _worst(name: str, residuals: Iterable[float], tol: float, detail: str) -> CheckResult:
    """Result at the largest residual, or 0 if none is positive."""
    return _result(name, reduce(max, residuals, 0.0), tol, detail)


def _random_params(rng) -> CouplerParams:
    return CouplerParams(rng.uniform(-3.0, 3.0), rng.uniform(0.1, 3.0))


def _random_segment(rng, max_wt: float) -> tuple[CouplerParams, CouplingSegment]:
    params = _random_params(rng)
    seg = CouplingSegment(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, max_wt) / params.rabi)
    return params, seg


def _random_protocol(
    rng, max_segments: int = 8, min_frac: float = 0.05
) -> tuple[CouplerParams, Protocol]:
    params = _random_params(rng)
    n = int(rng.integers(1, max_segments + 1))
    w = params.rabi
    return params, Protocol.from_pairs(
        (rng.uniform(0.0, 2.0 * math.pi), rng.uniform(min_frac, 1.2) * math.pi / w)
        for _ in range(n)
    )


def _random_state(rng) -> ModeState:
    a = rng.normal(size=4)
    return ModeState(complex(a[0], a[1]), complex(a[2], a[3])).normalized()


def _matrix_mismatch(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max())


def check_segment_unitarity(rng, n: int) -> CheckResult:
    defects = (segment_propagator(*_random_segment(rng, 4.0)).unitarity_defect for _ in range(n))
    return _worst("segment_unitarity", defects, 1e-12, f"{n} random segments")


def check_norm_conservation(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params, protocol = _random_protocol(rng)
            state = _random_state(rng)
            traj = propagate(params, protocol, state, 32)
            norm = np.sqrt(abs2(traj.a1.real, traj.a1.imag) + abs2(traj.a2.real, traj.a2.imag))
            yield float(np.abs(norm - 1.0).max())

    return _worst("norm_conservation", residuals(), 1e-12, f"{n} random protocols")


def segment_splitting_residual(params: CouplerParams, phase: float, t1: float, t2: float) -> float:
    """One segment of t1 + t2 against the same phase held for t1, then t2."""
    whole = segment_propagator(params, CouplingSegment(phase, t1 + t2))
    split = compose(
        segment_propagator(params, CouplingSegment(phase, t2)),
        segment_propagator(params, CouplingSegment(phase, t1)),
    )
    return _matrix_mismatch(whole.as_array(), split.as_array())


def check_segment_splitting(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params = _random_params(rng)
            phase = rng.uniform(0.0, 2.0 * math.pi)
            t1, t2 = rng.uniform(0.0, 2.0, size=2) / params.rabi
            yield segment_splitting_residual(params, phase, t1, t2)

    return _worst("segment_splitting", residuals(), 1e-12, f"{n} random splits")


def check_static_peak(rng, n: int) -> CheckResult:
    """static_max_transfer vs the peak of the closed-form one-segment
    transfer on a grid of W t, and W t = pi/2 as its position."""
    grid = np.linspace(0.0, math.pi, 2001)

    def residuals():
        for _ in range(n):
            params = _random_params(rng)
            values = _grid_transfer(params.delta, params.kappa0, params.rabi, 0.0, grid, [0.0])
            yield abs(float(values.max()) - static_max_transfer(params))
            off_peak = abs(grid[int(values.argmax())] - math.pi / 2.0)
            yield 0.0 if off_peak <= grid[1] * 1.5 else off_peak

    detail = f"peak at W t = pi/2 within {grid[1]:.2e} rad on {n} parameter draws"
    return _worst("static_peak_bound", residuals(), 1e-9, detail)


def propagator_vs_rk4_residual(params: CouplerParams, protocol: Protocol) -> float:
    """Closed-form protocol propagator against the RK4 oracle at its default step."""
    exact = protocol_propagator(params, protocol).as_array()
    return _matrix_mismatch(exact, integrate_matrix(params, protocol))


def check_rk4_agreement(rng, n: int) -> CheckResult:
    residuals = (propagator_vs_rk4_residual(*_random_protocol(rng)) for _ in range(n))
    return _worst("propagator_vs_rk4", residuals, 1e-8, f"{n} random protocols")


def propagator_vs_expm_residual(params: CouplerParams, seg: CouplingSegment) -> float:
    """Closed-form segment propagator against scipy's expm of its Hamiltonian."""
    exact = segment_propagator(params, seg).as_array()
    return _matrix_mismatch(exact, expm_propagator(params, seg))


def check_expm_agreement(rng, n: int, inject_fault: bool) -> CheckResult:
    def conjugated_reference(params: CouplerParams, seg: CouplingSegment) -> float:
        # Deliberate corruption used to prove the battery can fail.
        ref = expm_propagator(params, CouplingSegment(-seg.phase, seg.duration))
        return _matrix_mismatch(segment_propagator(params, seg).as_array(), ref)

    residual = conjugated_reference if inject_fault else propagator_vs_expm_residual
    residuals = (residual(*_random_segment(rng, 3.0)) for _ in range(n))
    detail = f"{n} random segments" + (" [fault injected]" if inject_fault else "")
    return _worst("propagator_vs_expm", residuals, 1e-10, detail)


def bloch_consistency_residual(
    params: CouplerParams, protocol: Protocol, state: ModeState
) -> float:
    """Amplitudes against the Bloch vector precessed about each segment's axis."""
    bloch = to_bloch(state)
    for seg in protocol.segments:
        state = segment_propagator(params, seg).apply(state)
        bloch = bloch_precess(rotation_axis(params, seg.phase), bloch, seg.duration)
    return float(np.abs(to_bloch(state).as_array() - bloch.as_array()).max())


def check_bloch_consistency(rng, n: int) -> CheckResult:
    residuals = (
        bloch_consistency_residual(*_random_protocol(rng, max_segments=5), _random_state(rng))
        for _ in range(n)
    )
    return _worst("bloch_consistency", residuals, 1e-10, f"{n} random protocols")


def precession_rigidity_residual(axis: RotationAxis, start: BlochVector, times) -> float:
    """Norm and axis component of a unit point precessed for each of the times."""
    n = axis.as_array()
    axial0 = float(np.dot(n, start.as_array()))
    worst = 0.0
    for t in times:
        moved = bloch_precess(axis, start, float(t))
        worst = max(worst, abs(moved.norm - 1.0), abs(float(np.dot(n, moved.as_array())) - axial0))
    return worst


def check_precession_rigidity(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params = _random_params(rng)
            axis = rotation_axis(params, rng.uniform(0.0, 2.0 * math.pi))
            p = rng.normal(size=3)
            start = BlochVector.from_array(p / np.linalg.norm(p))
            times = rng.uniform(0.0, 5.0 / params.rabi, size=5)
            yield precession_rigidity_residual(axis, start, times)

    return _worst("precession_rigidity", residuals(), 1e-12, f"{n} random axes")


def check_cone_floor(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params = _random_params(rng)
            # A half period covers the full circle depth.
            seg = CouplingSegment(rng.uniform(0.0, 2.0 * math.pi), math.pi / params.rabi)
            traj = propagate(params, Protocol((seg,)), ModeState.mode1(), 128)
            yield cone_floor(params) - float(to_bloch(traj).w.min())

    # The sampled minimum may sit above the floor, but never below it.
    return _worst("cone_floor", residuals(), 1e-9, f"{n} static trajectories")


_SEED_AXIS = np.linspace(0.0, math.pi, 48)
_ZOOM_OFFSETS = np.arange(-4, 5)
_ZOOM_LEVELS = 30
# Cells per seed table: (cells, 48, 48) complex is 0.3 MB at 8 cells,
# where all 2445 cells of a full battery at once would need about 90 MB.
SCREEN_CHUNK = 8
# Cells zoomed together; each level is a (cells, 9, 9) table.
ZOOM_CHUNK = 128


def _brute_two_step_maxima(
    params: Sequence[CouplerParams], phis: Sequence[float], screen: float = -math.inf
) -> np.ndarray:
    """Largest two-segment transfer (phases 0 and phis[c]) of each cell
    params[c] by brute force.

    The closed-form transfer table is evaluated on a 48-point W t grid
    over [0, pi]^2, SCREEN_CHUNK cells at a time.  Cells whose seed peak
    reaches `screen` then zoom, ZOOM_CHUNK at a time, on 30 levels of a
    9 x 9 window centred on each cell's best point so far, the step
    shrinking by 4 per level; a point replaces the best only if strictly
    greater.  The map is pi-periodic in each duration, so the window
    needs no clipping.  Cells below `screen` keep their seed peak.
    """
    cols = np.array([(p.delta, p.kappa0, p.rabi, phi) for p, phi in zip(params, phis)])
    cols = cols.reshape(-1, 4).T[:, :, None]
    best, x1, x2 = np.empty((3, len(params)))
    for lo in range(0, len(best), SCREEN_CHUNK):
        rows = slice(lo, lo + SCREEN_CHUNK)
        chunk = cols[:, rows]
        values = _grid_transfer(*chunk, _SEED_AXIS, _SEED_AXIS).reshape(chunk.shape[1], -1)
        best[rows] = values.max(axis=1)
        i, j = np.divmod(values.argmax(axis=1), len(_SEED_AXIS))
        x1[rows], x2[rows] = _SEED_AXIS[i], _SEED_AXIS[j]
    zoom = np.flatnonzero(best >= screen)
    for lo in range(0, len(zoom), ZOOM_CHUNK):
        rows = zoom[lo : lo + ZOOM_CHUNK]
        chunk = cols[:, rows]
        at = np.arange(len(rows))
        top, a1, a2 = best[rows], x1[rows], x2[rows]
        step = _SEED_AXIS[1]
        for _ in range(_ZOOM_LEVELS):
            step /= 4.0
            wt1 = a1[:, None] + step * _ZOOM_OFFSETS
            wt2 = a2[:, None] + step * _ZOOM_OFFSETS
            values = _grid_transfer(*chunk, wt1, wt2).reshape(len(rows), -1)
            k = values.argmax(axis=1)
            peak = values[at, k]
            i, j = np.divmod(k, len(_ZOOM_OFFSETS))
            up = peak > top
            top = np.where(up, peak, top)
            a1 = np.where(up, wt1[at, i], a1)
            a2 = np.where(up, wt2[at, j], a2)
        best[rows] = top
    return best


def check_two_step_ceiling(rng, n: int) -> CheckResult:
    """Brute-force maxima against the analytic ceiling; odd draws negate delta."""
    draws = [(rng.uniform(0.05, 1.2), rng.uniform(0.0, math.pi)) for _ in range(n)]
    params = [CouplerParams(-r if k % 2 else r, 1.0) for k, (r, _) in enumerate(draws)]
    phis = [phi for _, phi in draws]
    residuals = (
        abs(achieved - two_step_ceiling(p, phi))
        for p, phi, achieved in zip(params, phis, _brute_two_step_maxima(params, phis))
    )
    return _worst("two_step_ceiling", residuals, 1e-7, f"{n} random (delta, phi) draws, both signs")


def check_criterion_vs_brute(n_cells: int = 50) -> CheckResult:
    """Classification agreement between the criterion and maximization."""
    cells = [
        (float(r), float(phi))
        for r in np.linspace(0.0, 1.2, n_cells)
        for phi in np.linspace(0.0, math.pi, n_cells)
        if abs(math.cos(phi) - (1.0 - 2.0 * r * r)) >= 0.02
    ]
    if not cells:
        return _result("criterion_vs_brute", 1.0, 0.01, "no cell counted: all in the boundary band")
    params = [CouplerParams(r, 1.0) for r, _ in cells]
    phis = [phi for _, phi in cells]
    # Only a seed grid peak near 1 can zoom in to a full transfer.
    peaks = _brute_two_step_maxima(params, phis, screen=0.99)
    agree = sum(
        two_step_feasible(p, phi) == (peak >= 1.0 - 1e-6)
        for p, phi, peak in zip(params, phis, peaks)
    )
    return _result(
        "criterion_vs_brute",
        1.0 - agree / len(cells),
        0.01,
        f"{agree}/{len(cells)} cells agree away from the boundary band",
    )


def precession_leg_residual(
    params: CouplerParams, seg: CouplingSegment, state: ModeState, along, angle: float
) -> float:
    """The leg height c + r cos(2 W s + chi) along `along`, at the end of
    seg and at leg_time for `angle`, against the amplitude propagator."""
    axis = rotation_axis(params, seg.phase)
    c, r, chi = precession_leg(axis, to_bloch(state), along)
    worst = 0.0
    for s, predicted in (
        (seg.duration, c + r * math.cos(2.0 * params.rabi * seg.duration + chi)),
        (leg_time(axis, chi, angle), c + r * math.cos(angle)),
    ):
        moved = segment_propagator(params, CouplingSegment(seg.phase, s)).apply(state)
        worst = max(worst, abs(float(np.dot(along, to_bloch(moved).as_array())) - predicted))
    return worst


def check_precession_leg(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params, seg = _random_segment(rng, 4.0)
            state = _random_state(rng)
            along = rng.normal(size=3)
            along /= np.linalg.norm(along)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            yield precession_leg_residual(params, seg, state, along, angle)

    return _worst("precession_leg", residuals(), 1e-12, f"{n} random legs, sampled and timed")


def pushpull_identity_residual(params: CouplerParams) -> float:
    """|D| of the push-pull composite, and its first segment's distance from 50:50."""
    sol = pushpull_times(params)
    composite = protocol_propagator(params, sol.protocol())
    half = segment_propagator(params, CouplingSegment(0.0, sol.t1))
    return max(abs(composite.d), abs(half.transfer - 0.5))


def check_pushpull_identity(rng, n: int) -> CheckResult:
    residuals = (
        pushpull_identity_residual(CouplerParams(rng.uniform(0.0, 0.98), 1.0)) for _ in range(n)
    )
    return _worst(
        "pushpull_identity", residuals, 1e-9, f"|D|=0 and a balanced first segment on {n} ratios"
    )


def plan_geometry_residual(params: CouplerParams, plan: StaircasePlan) -> float:
    """Worst change of a segment's angle to its axis from entry to exit,
    over every segment up to the final state; rigid precession keeps it 0."""
    final = to_bloch(protocol_propagator(params, plan.protocol).apply(ModeState.mode1()))
    states = (NORTH, *plan.switch_points, final)
    worst = 0.0
    for seg, entry, leave in zip(plan.protocol.segments, states, states[1:]):
        n = rotation_axis(params, seg.phase).as_array()
        enter_angle = math.acos(float(np.clip(np.dot(n, entry.as_array()), -1.0, 1.0)))
        leave_angle = math.acos(float(np.clip(np.dot(n, leave.as_array()), -1.0, 1.0)))
        worst = max(worst, abs(leave_angle - enter_angle))
    return worst


def check_plan_geometry(fast: bool) -> CheckResult:
    """Each switch point of the minimal plan stays on the circle it leaves,
    and the plan reaches 0.99: a shortfall counts as residual."""
    ratios = (2.0,) if fast else (1.5, 2.5, 4.0)
    worst = 0.0
    details = []
    for ratio in ratios:
        params = CouplerParams(ratio, 1.0)
        plan = minimal_plan_search(params).plan
        worst = max(worst, 0.99 - plan.achieved, plan_geometry_residual(params, plan))
        details.append(f"ratio {ratio:g}: {len(plan.protocol.segments)} segments")
    return _result("plan_geometry", worst, 1e-8, "; ".join(details))


def check_rk4_convergence(rng, n: int) -> CheckResult:
    # Each segment is measured alone: over a whole protocol the segments'
    # dt^4 errors partly cancel in the product, so the dt^5 term shows
    # through.  The factor is the mean over both halvings,
    # sqrt(err(0.08) / err(0.02)).
    lo, hi = math.inf, 0.0
    for _ in range(n):
        params, protocol = _random_protocol(rng, max_segments=8, min_frac=0.3)
        for seg in protocol.segments:
            exact = segment_propagator(params, seg).as_array()
            errs = []
            for frac in (0.08, 0.04, 0.02):
                rk4 = integrate_matrix(params, Protocol((seg,)), IntegrationConfig(frac))
                errs.append(_matrix_mismatch(exact, rk4))
            factor = math.sqrt(errs[0] / errs[2])
            lo = min(lo, factor)
            hi = max(hi, factor)
    residual = max(12.0 - lo, hi - 20.0, 0.0)
    return _result(
        "rk4_convergence",
        residual,
        0.0,
        f"per-halving factors in [{lo:.2f}, {hi:.2f}] over the segments of {n} protocols",
    )


def isolator_identity_residual(spec: IsolatorSpec) -> float:
    """closed_form_powers against the cascade's matrix product, both directions."""
    closed = closed_form_powers(spec.stage, spec.delta_theta, spec.rf_offset)
    return max(abs(cross_power(spec, d) - p) for d, p in zip((FORWARD, BACKWARD), closed))


def check_isolator_identity(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            alpha = rng.uniform(0.0, math.pi / 2.0)
            d = math.cos(alpha) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            o = math.sin(alpha) * np.exp(1j * rng.uniform(-math.pi, math.pi))
            stage = TransferMatrix(complex(d), complex(o))
            thetas = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(3)]
            yield isolator_identity_residual(IsolatorSpec(stage, *thetas))
        # Reciprocity zeros: offset 0, and effective differential phase 0.
        stage = TransferMatrix(math.sqrt(0.5), 1j * math.sqrt(0.5))
        yield reciprocity_defect(IsolatorSpec(stage, 1.3, 0.4, 0.0))
        yield reciprocity_defect(IsolatorSpec(stage, 0.0, 0.0, 2.1))

    return _worst("isolator_identity", residuals(), 1e-12, f"{n} random cascades")


def isolator_offset_realization_residual(
    params: CouplerParams, protocol: Protocol, offset: float
) -> float:
    """The offset stage against the protocol with every phase shifted by offset."""
    direct = stage_with_offset(protocol_propagator(params, protocol), offset)
    shifted = protocol_propagator(params, remap_phases(protocol, shift=offset))
    return _matrix_mismatch(direct.as_array(), shifted.as_array())


def check_isolator_offset_realization(rng, n: int) -> CheckResult:
    """Shifting all drive phases reproduces the offset stage exactly."""
    residuals = (
        isolator_offset_realization_residual(
            *_random_protocol(rng, max_segments=4), rng.uniform(0.0, 2.0 * math.pi)
        )
        for _ in range(n)
    )
    return _worst("isolator_offset_realization", residuals, 1e-12, f"{n} random stages")


def _isolating_cascade(params: CouplerParams) -> tuple[Protocol, IsolatorSpec]:
    """The push-pull first segment as the stage, with offset pi/2 and the
    phase that transmits fully forward: delta_theta + 2 arg D + offset = 0."""
    protocol, stage = pushpull_stage(params)
    offset = math.pi / 2.0
    theta1 = (-offset - 2.0 * cmath.phase(stage.d)) % (2.0 * math.pi)
    return protocol, IsolatorSpec(stage, theta1, 0.0, offset)


def isolator_endpoints_residual(params: CouplerParams, sample_count: int) -> float:
    """Forward lands on mode 2 and backward returns to mode 1, in the cross
    powers and at the ends of the sampled trajectories."""
    protocol, spec = _isolating_cascade(params)
    fwd_final = cascade_trajectory(params, protocol, spec, FORWARD, sample_count).final
    bwd_final = cascade_trajectory(params, protocol, spec, BACKWARD, sample_count).final
    return max(
        abs(cross_power(spec, FORWARD) - 1.0),
        cross_power(spec, BACKWARD),
        abs(to_bloch(fwd_final).w + 1.0),
        abs(to_bloch(bwd_final).w - 1.0),
    )


def check_isolator_endpoints() -> CheckResult:
    residual = isolator_endpoints_residual(CouplerParams(0.5, 1.0), 64)
    return _result(
        "isolator_endpoints", residual, 1e-6, "forward lands on mode 2, backward returns to mode 1"
    )


def check_output_determinism() -> CheckResult:
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for sub in ("a", "b"):
            out = Path(tmp) / sub
            # The subcommand's one-line status print is not part of the
            # battery's own report.
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(["simulate", "--delta", "0.5", "--kappa", "1", "--out", str(out)])
            if code != 0:
                return _result("output_determinism", 1.0, 0.0, f"exit code {code}")
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        same = names == sorted(p.name for p in outs[1].iterdir()) and all(
            (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes() for name in names
        )
    detail = f"{len(names)} files byte-compared"
    return _result("output_determinism", 0.0 if same else 1.0, 0.0, detail)


def run_battery(
    seed: int = 20240817, fast: bool = False, inject_fault: bool = False
) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    k = 0.2 if fast else 1.0

    def scaled(n: int) -> int:
        return max(3, int(n * k))

    return [
        check_segment_unitarity(rng, scaled(2000)),
        check_norm_conservation(rng, scaled(150)),
        check_segment_splitting(rng, scaled(300)),
        check_static_peak(rng, scaled(300)),
        check_rk4_agreement(rng, scaled(20)),
        check_expm_agreement(rng, scaled(200), inject_fault),
        check_bloch_consistency(rng, scaled(100)),
        check_precession_rigidity(rng, scaled(200)),
        check_cone_floor(rng, scaled(200)),
        check_two_step_ceiling(rng, scaled(60)),
        check_criterion_vs_brute(24 if fast else 50),
        check_precession_leg(rng, scaled(300)),
        check_pushpull_identity(rng, scaled(200)),
        check_plan_geometry(fast),
        check_rk4_convergence(rng, scaled(20)),
        check_isolator_identity(rng, scaled(1000)),
        check_isolator_offset_realization(rng, scaled(100)),
        check_isolator_endpoints(),
        check_output_determinism(),
    ]


def battery_report(results: list[CheckResult]) -> dict:
    return {
        "passed": all(r.passed for r in results),
        # asdict keeps the field order: name, passed, residual, tolerance, detail.
        "checks": [asdict(r) for r in results],
    }
