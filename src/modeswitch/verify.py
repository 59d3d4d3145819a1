"""Self-check battery: every load-bearing identity, checked numerically.

Each check exercises one contract of the package against an independent
route (grid-and-zoom brute force, the RK4 oracle, the eigh spectral
form of exp(-i H t), direct geometry) and reports a residual against a
fixed tolerance.  The battery is what the `modeswitch verify` subcommand
runs.  precession_leg checks the leg-height primitive that times
solve_fraction's cut against the amplitude propagator; plan_geometry
checks that each planned switch point stays on the circle it leaves.

A check whose contract is a formula over one case keeps that formula in
a pure `<check>_residual(case...)`.  segment_splitting, propagator_vs_expm,
isolator_identity, bloch_consistency, precession_rigidity and
precession_leg take one case or numpy columns of cases, and return a
float or an array.  Their checks, segment_unitarity and cone_floor run
all their cases at once as column TransferMatrix and ModeState values,
bit for bit the scalar path.  They reach the SU(2) kernel only through
public functions: each segment is the column form of segment_propagator,
the one the CLI runs, and the cascade is the public isolator functions.
propagator_vs_rk4 and rk4_convergence integrate the two basis states as
columns, in one call of the public oracle.integrate per protocol.
The three geometry checks draw case by case first, as they mix normal
and uniform draws.  check_<check> only draws its cases from the
battery's rng and keeps the worst residual, and a NaN residual fails it;
the property tests call the same residual on cases of their own.

inject_fault=True deliberately corrupts the reference of
propagator_vs_expm: each segment's coupling phase is negated, which
conjugates the Hamiltonian.  That check must then fail; this guards
against the battery itself going soft.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import (
    TWO_PI,
    CouplerParams,
    CouplingSegment,
    ModeState,
    Protocol,
    TransferMatrix,
    _each,
    _reduce_phase,
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
    _dot,
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
    optimal_phases,
    pushpull_stage,
    reciprocity_defect,
    stage_with_offset,
)
from .oracle import IntegrationConfig, expm_propagator, integrate
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
    """Result at the largest residual, or 0 if none is positive.  np.max
    keeps a NaN, so a NaN residual is the result, and it fails."""
    if not isinstance(residuals, np.ndarray):
        residuals = np.fromiter(residuals, float)
    return _result(name, np.max(residuals, initial=0.0), tol, detail)


# Uniform ranges of the random cases' drive: delta, kappa0 and phase.
DELTAS = (-3.0, 3.0)
KAPPAS = (0.1, 3.0)
PHASES = (0.0, TWO_PI)
# The two basis states as columns: the RK4 oracle integrates both at once.
_BASIS = ModeState(*np.eye(2, dtype=complex))


def _draw(rng, n: int, *ranges: tuple[float, float]) -> np.ndarray:
    """n cases of one uniform draw per range, as one column per range.
    One call takes the same doubles, in the same order, as n cases of one
    rng.uniform call per draw."""
    low, high = zip(*ranges)
    return rng.uniform(low, high, size=(n, len(ranges))).T


def _random_params(rng) -> CouplerParams:
    return CouplerParams(rng.uniform(*DELTAS), rng.uniform(*KAPPAS))


def _random_segment(rng, max_wt: float) -> tuple[CouplerParams, CouplingSegment]:
    params = _random_params(rng)
    seg = CouplingSegment(rng.uniform(*PHASES), rng.uniform(0.0, max_wt) / params.rabi)
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


def _matrix_mismatch(a: np.ndarray, b: np.ndarray):
    """Largest |a - b| entry of two 2x2 matrices, or per matrix of two stacks."""
    return np.abs(a - b).max(axis=(-2, -1))[()]


def check_segment_unitarity(rng, n: int) -> CheckResult:
    delta, kappa0, phase, wt = _draw(rng, n, DELTAS, KAPPAS, PHASES, (0.0, 4.0))
    segments = segment_propagator((delta, kappa0), (phase, wt / _each(math.hypot, delta, kappa0)))
    return _worst("segment_unitarity", segments.unitarity_defect, 1e-12, f"{n} random segments")


def check_norm_conservation(rng, n: int) -> CheckResult:
    def residuals():
        for _ in range(n):
            params, protocol = _random_protocol(rng)
            state = _random_state(rng)
            traj = propagate(params, protocol, state, 32)
            yield float(np.abs(ModeState(traj.a1, traj.a2).norm - 1.0).max())

    return _worst("norm_conservation", residuals(), 1e-12, f"{n} random protocols")


def segment_splitting_residual(delta, kappa0, phase, t1, t2):
    """One segment of t1 + t2 against the same phase held for t1, then t2;
    one case, or columns of cases."""
    whole, first, then = (
        segment_propagator((delta, kappa0), (phase, t)) for t in (t1 + t2, t1, t2)
    )
    return _matrix_mismatch(whole.as_array(), compose(then, first).as_array())


def check_segment_splitting(rng, n: int) -> CheckResult:
    delta, kappa0, phase, u1, u2 = _draw(rng, n, DELTAS, KAPPAS, PHASES, (0.0, 2.0), (0.0, 2.0))
    w = _each(math.hypot, delta, kappa0)
    residuals = segment_splitting_residual(delta, kappa0, phase, u1 / w, u2 / w)
    return _worst("segment_splitting", residuals, 1e-12, f"{n} random splits")


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
    rk4 = integrate(params, protocol, _BASIS)
    return _matrix_mismatch(exact, np.array([rk4.a1, rk4.a2]))


def check_rk4_agreement(rng, n: int) -> CheckResult:
    residuals = (propagator_vs_rk4_residual(*_random_protocol(rng)) for _ in range(n))
    return _worst("propagator_vs_rk4", residuals, 1e-8, f"{n} random protocols")


def _expm_mismatch(delta, kappa0, phase, duration, fault: bool = False):
    exact = segment_propagator((delta, kappa0), (phase, duration)).as_array()
    # The reference's phase, stored reduced as CouplingSegment does.  The
    # deliberate corruption that proves the battery can fail negates it.
    phase = _each(_reduce_phase, phase)
    reference_phase = _each(_reduce_phase, -phase) if fault else phase
    return _matrix_mismatch(exact, expm_propagator(delta, kappa0, reference_phase, duration))


def propagator_vs_expm_residual(delta, kappa0, phase, duration):
    """Closed-form segment propagator against oracle.expm_propagator, the
    spectral exp(-i H t) of its Hamiltonian; one case, or columns of cases."""
    return _expm_mismatch(delta, kappa0, phase, duration)


def check_expm_agreement(rng, n: int, inject_fault: bool) -> CheckResult:
    delta, kappa0, phase, wt = _draw(rng, n, DELTAS, KAPPAS, PHASES, (0.0, 3.0))
    duration = wt / _each(math.hypot, delta, kappa0)
    residuals = _expm_mismatch(delta, kappa0, phase, duration, inject_fault)
    detail = f"{n} random segments" + (" [fault injected]" if inject_fault else "")
    return _worst("propagator_vs_expm", residuals, 1e-10, detail)


def bloch_consistency_residual(delta, kappa0, phases, durations, state: ModeState):
    """Amplitudes against the Bloch vector precessed about each segment's
    axis; one case and its segments' phases and durations, or columns of
    cases and (cases, segments) arrays of them, where zero durations pad a
    protocol past its last segment."""
    bloch = to_bloch(state)
    for phase, duration in zip(np.moveaxis(phases, -1, 0), np.moveaxis(durations, -1, 0)):
        state = segment_propagator((delta, kappa0), (phase, duration)).apply(state)
        bloch = bloch_precess(rotation_axis((delta, kappa0), phase), bloch, duration)
    return np.abs(to_bloch(state).as_array() - bloch.as_array()).max(axis=0)[()]


def check_bloch_consistency(rng, n: int) -> CheckResult:
    params, states = [], []
    phases, durations = np.zeros((2, n, 5))
    for i in range(n):
        coupler, protocol = _random_protocol(rng, max_segments=5)
        state = _random_state(rng)
        params.append((coupler.delta, coupler.kappa0))
        states.append((state.a1, state.a2))
        m = len(protocol.segments)
        phases[i, :m], durations[i, :m] = protocol.phases, protocol.durations
    delta, kappa0 = np.array(params).T
    state = ModeState(*np.array(states).T)
    residuals = bloch_consistency_residual(delta, kappa0, phases, durations, state)
    return _worst("bloch_consistency", residuals, 1e-10, f"{n} random protocols")


def precession_rigidity_residual(axis: RotationAxis, start: BlochVector, times):
    """Norm and axis component of a unit point precessed for each of the
    times; one case, or columns of cases, shape (n, 1), with (n, k) times."""
    moved = bloch_precess(axis, start, np.asarray(times, dtype=float))
    drift = abs(_dot(axis.n, moved) - _dot(axis.n, start))
    return np.max(np.maximum(abs(moved.norm - 1.0), drift), axis=-1, initial=0.0)


def check_precession_rigidity(rng, n: int) -> CheckResult:
    cases = []
    for _ in range(n):
        params = _random_params(rng)
        phase, p = rng.uniform(0.0, 2.0 * math.pi), rng.normal(size=3)
        times = rng.uniform(0.0, 5.0 / params.rabi, size=5)
        cases.append((params.delta, params.kappa0, phase, *p, *times))
    cases = np.array(cases)
    delta, kappa0, phase, *p = cases[:, :6, None].transpose(1, 0, 2)
    norm = np.sqrt(_dot(p, p))
    start = BlochVector(*(pk / norm for pk in p))
    axis = rotation_axis((delta, kappa0), phase)
    residuals = precession_rigidity_residual(axis, start, cases[:, 6:])
    return _worst("precession_rigidity", residuals, 1e-12, f"{n} random axes")


# Cases sampled together by check_cone_floor, 129 samples each: all 200
# of a full battery at once would raise the battery's peak memory.
CONE_CHUNK = 16


def _cone_floor_residuals(delta, kappa0, phase) -> np.ndarray:
    """cone_floor against the lowest w of propagate's 128 samples of a half
    period from mode 1, for columns of (delta, kappa0, phase).  A sample at
    t of one segment is the segment's piece of duration t applied to mode 1."""
    floor = _each(lambda d, k: cone_floor(CouplerParams(d, k)), delta, kappa0)
    # A half period covers the full circle depth.
    total = math.pi / _each(math.hypot, delta, kappa0)[:, None]
    t = total * np.arange(129) / 128
    t[:, -1] = total[:, 0]
    pieces = segment_propagator((delta[:, None], kappa0[:, None]), (phase[:, None], t))
    return floor - to_bloch(pieces.apply(ModeState.mode1())).w.min(axis=1)


def check_cone_floor(rng, n: int) -> CheckResult:
    cases = _draw(rng, n, DELTAS, KAPPAS, PHASES)
    residuals = np.concatenate(
        [_cone_floor_residuals(*cases[:, lo : lo + CONE_CHUNK]) for lo in range(0, n, CONE_CHUNK)]
    )
    # The sampled minimum may sit above the floor, but never below it.
    return _worst("cone_floor", residuals, 1e-9, f"{n} static trajectories")


_SEED_AXIS = np.linspace(0.0, math.pi, 48)
_SEED_COS, _SEED_SIN = np.cos(_SEED_AXIS), np.sin(_SEED_AXIS)
_ZOOM_OFFSETS = np.arange(-4, 5)
_ZOOM_LEVELS = 30
# Cells whose seed rows are bounded together, as (cells, 48) bounds.
SEED_CHUNK = 64
# Slack of the seed row bounds, in units of (kappa0 / W)^2.
SEED_SLACK = 1e-12
# Transfer values per _grid_transfer call, seed rows and zoom windows alike:
# 8 whole 48 x 48 seed tables, 0.3 MB as complex, where all 2445 cells of a
# full battery at once would need about 90 MB.
TABLE_VALUES = 8 * 48 * 48
# A two-segment transfer this close to 1 counts as complete.
FULL_TRANSFER = 1.0 - 1e-6


def _seed_row_bounds(delta, kappa0, w, phi) -> tuple[np.ndarray, np.ndarray]:
    """(upper, lower) bounds, (cells, 48), of each seed row's largest transfer,
    for (cells, 1) columns; _brute_two_step_maxima has the proof."""
    dr, k2 = delta / w, (kappa0 / w) ** 2
    ec, es = np.cos(phi), np.sin(phi)
    ds = dr * _SEED_SIN
    u = ec * _SEED_COS - es * ds
    v = (ec - 1.0) * ds + es * _SEED_COS
    ss, bb = _SEED_SIN * _SEED_SIN, u * u + v * v
    a, r = (ss + bb) / 2.0, np.hypot((ss - bb) / 2.0, _SEED_SIN * u)
    slack = SEED_SLACK * k2 + sys.float_info.min
    return k2 * (a + r) + slack, k2 * (a + r * math.cos(_SEED_AXIS[1])) - slack


def _peaks(cols: np.ndarray, wt1: np.ndarray, wt2: np.ndarray) -> tuple[np.ndarray, ...]:
    """(best, W t1, W t2) of each cell of cols over its table of (cells, R)
    rows wt1 and columns wt2, shared (m,) or (cells, m): the first of equal
    values in row order."""
    values = _grid_transfer(*cols, wt1, wt2).reshape(len(wt1), -1)
    k = values.argmax(axis=1)
    i, j = np.divmod(k, wt2.shape[-1])
    cells = np.arange(len(wt1))
    wt2 = np.broadcast_to(wt2, (len(wt1), wt2.shape[-1]))
    return values[cells, k], wt1[cells, i], wt2[cells, j]


def _brute_two_step_maxima(
    coupler: tuple, phi, screen: float = -math.inf, settle: float = math.inf
) -> np.ndarray:
    """Largest two-segment transfer (phases 0 and phi) of each cell by brute
    force, or a best of at least `settle`.  The cells are a (delta, kappa0)
    pair and phi, floats or columns that broadcast together, flattened.

    The seed is the closed-form transfer table on a 48-point W t grid over
    [0, pi]^2: its largest value, the first in row order (W t1, then W t2)
    where values tie.  Cells whose seed peak reaches `screen` then zoom
    on up to 30 levels of a 9 x 9 window centred on each cell's best
    point so far, the step shrinking by 4 per level; a point replaces the
    best only if strictly greater.  The map is pi-periodic in each
    duration, so the window needs no clipping.  Cells below `screen` keep
    their seed peak.

    Only the seed rows that can hold the seed peak get exact values, and
    they come from _grid_transfer.  Row i of a cell's table, W t1 = x_i,
    is a sinusoid in x = W t2.  The table's value is |d2 o1 + e^(i phi) o2
    conj(d1)|^2, with each leg's entries d = cos - i dr sin and o = -i kr
    sin of its W t (dr, kr = delta, kappa0 over W).  With c1, s1 = cos,
    sin x_i, the row is |o1 cos x + B sin x|^2, B = -i (dr o1 + kr e^(i
    phi) conj(d1)), which is

        kr^2 [a + p cos 2x + q sin 2x] = kr^2 [a + r cos(2x - chi)]

    with u = cos(phi) c1 - sin(phi) dr s1, v = (cos(phi) - 1) dr s1 +
    sin(phi) c1, a = (s1^2 + u^2 + v^2) / 2, p = (s1^2 - u^2 - v^2) / 2,
    q = s1 u and r = hypot(p, q) >= 0.  The grid's 2x runs from 0 to 2 pi
    in steps of 2h (h the axis step), so some grid point has 2x within h
    of chi mod 2 pi, and the row's largest value lies in [kr^2 (a + r cos
    h), kr^2 (a + r)].

    Rounding.  The sizes are |dr|, kr, |c1|, |s1| <= 1; |d1| <= 1 and
    |o1| <= kr; |u| <= 1, |v| <= 2 and u^2 + v^2 <= 4, since u + i (v +
    dr s1) = e^(i phi) conj(d1); and 0 <= r <= a <= 5/2, since a^2 - r^2
    = (s1 v)^2.  So a + r <= 5 and each table value |oc|^2 <= 5 kr^2.
    Take numpy's sin, cos and exp(i phi) within 4 ulp, which is 4 eps for
    values of size at most 1 (eps = 2^-53), and every other operation
    within eps times the size of its result.  To first order in eps,
    _seed_row_bounds' steps are then within 6 eps (dr s1), 21 eps (u),
    31 eps (v), 95 eps (a and p), 26 eps (q = s1 u), 125 eps (r), 225 eps
    (a + r) and 230 eps (a + r cos h), and k2 = kr^2 within 3 eps of it
    relatively, so each bound before its slack is within 260 eps kr^2.
    In _grid_transfer each component of oc = d2 o1 + e^(i phi) o2
    conj(d1) is within 51 eps kr (13 from d2 o1, 35 from the other
    product, 3 from their sum), |oc| within 75 eps kr and |oc|^2 within
    340 eps kr^2.  A table value and a bound thus differ from their exact
    values by at most 600 eps kr^2 together.  As a check of this budget,
    10,000 random cells with kappa0 / W from 1 to 1e-100, 7 rows and 10
    columns of each table, against mpmath at 60 digits reach at most
    26 eps kr^2 in a bound and 37 eps kr^2 in a table value.  The
    axis's steps are at most 4.2e-16 h longer than the h = _SEED_AXIS[1]
    in cos h, and its last point is pi as a double, which moves a lower
    bound by under 0.1 eps kr^2.  All of it scales with kr^2 as kappa0 ->
    0, and so does slack = SEED_SLACK kr^2, about 4,500 eps kr^2.  The
    slack adds the smallest normal float, 2^-1022, for values that
    underflow, where each of the bounds' and the table's roundings, about
    70 in all, is instead at most 2^-1075.  So the computed row maximum
    M_i keeps

        lower_i = kr^2 (a + r cos h) - slack <= M_i <= kr^2 (a + r) + slack = upper_i.

    Let M = max_i M_i be the cell's seed peak and L = max_i lower_i.
    Then M >= L, so every row holding M, or a value tied with it, has
    upper_i >= M >= L: it is a candidate, a row the bounds cannot rule
    out by upper_i < L.  Any other row lies wholly below M.  The row with the best lower bound is
    always a candidate, as upper_i >= lower_i, so a cell has r >= 1 of
    them.  Each cell evaluates exactly its candidates, in row order, so
    the largest value and its first position are the whole table's, bit
    for bit: _grid_transfer's values are elementwise.  Bounds are taken
    SEED_CHUNK cells at a time; cells with r candidates are evaluated
    together, TABLE_VALUES // (48 r) cells per call.

    Each level zooms the live cells, TABLE_VALUES // 81 at a time; a cell
    leaves once its best reaches `settle`.  The best never falls, so a
    settled cell returns a best of at least `settle`, not its maximum, and
    every other cell returns the maximum it would without `settle`, bit
    for bit.
    """
    delta, kappa0, phi = (np.ravel(c) for c in np.broadcast_arrays(*coupler, phi))
    cols = np.array((delta, kappa0, _each(math.hypot, delta, kappa0), phi), float)[:, :, None]
    n = cols.shape[1]
    best, x1, x2 = np.empty((3, n))
    candidate = np.empty((n, len(_SEED_AXIS)), bool)
    for lo in range(0, n, SEED_CHUNK):
        upper, lower = _seed_row_bounds(*cols[:, lo : lo + SEED_CHUNK])
        # A NaN bound rules out no row, so a NaN cell takes its whole table.
        candidate[lo : lo + SEED_CHUNK] = ~(upper < lower.max(axis=1, keepdims=True))
    count = candidate.sum(axis=1)
    for r in np.unique(count):
        group = np.flatnonzero(count == r)
        block = TABLE_VALUES // (len(_SEED_AXIS) * r)
        for lo in range(0, len(group), block):
            cells = group[lo : lo + block]
            wt1 = _SEED_AXIS[np.nonzero(candidate[cells])[1]].reshape(len(cells), r)
            best[cells], x1[cells], x2[cells] = _peaks(cols[:, cells], wt1, _SEED_AXIS)
    live = np.flatnonzero((best >= screen) & (best < settle))
    block = TABLE_VALUES // len(_ZOOM_OFFSETS) ** 2
    step = _SEED_AXIS[1]
    for _ in range(_ZOOM_LEVELS):
        step /= 4.0
        window = step * _ZOOM_OFFSETS
        for lo in range(0, len(live), block):
            cells = live[lo : lo + block]
            peak, t1, t2 = _peaks(cols[:, cells], x1[cells, None] + window, x2[cells, None] + window)
            up = peak > best[cells]
            moved = cells[up]
            best[moved], x1[moved], x2[moved] = peak[up], t1[up], t2[up]
        live = live[best[live] < settle]
    return best


def check_two_step_ceiling(rng, n: int) -> CheckResult:
    """Brute-force maxima against the analytic ceiling; odd draws negate delta."""
    ratio, phi = _draw(rng, n, (0.05, 1.2), (0.0, math.pi))
    delta = np.where(np.arange(n) % 2, -ratio, ratio)
    achieved = _brute_two_step_maxima((delta, 1.0), phi)
    residuals = (
        abs(a - two_step_ceiling(CouplerParams(d, 1.0), p))
        for d, p, a in zip(delta.tolist(), phi.tolist(), achieved.tolist())
    )
    return _worst("two_step_ceiling", residuals, 1e-7, f"{n} random (delta, phi) draws, both signs")


def check_criterion_vs_brute(n_cells: int = 50) -> CheckResult:
    """Classification agreement between the criterion and maximization."""
    ratios, phis = np.linspace(0.0, 1.2, n_cells)[:, None], np.linspace(0.0, math.pi, n_cells)
    # Cells in the boundary band are not counted; math.cos, as the criterion takes it.
    counted = np.abs(_each(math.cos, phis) - (1.0 - 2.0 * ratios * ratios)) >= 0.02
    ratio = np.broadcast_to(ratios, counted.shape)[counted]
    phi = np.broadcast_to(phis, counted.shape)[counted]
    if not len(ratio):
        return _result("criterion_vs_brute", 1.0, 0.0, "no cell counted: all in the boundary band")
    feasible = two_step_feasible((ratios, 1.0), phis)[counted]
    # Only a seed grid peak near 1 can zoom in to a full transfer, and a
    # cell whose best reaches FULL_TRANSFER is classified and stops.
    peaks = _brute_two_step_maxima((ratio, 1.0), phi, screen=0.99, settle=FULL_TRANSFER)
    agree = int(np.count_nonzero(feasible == (peaks >= FULL_TRANSFER)))
    return _result(
        "criterion_vs_brute",
        1.0 - agree / len(ratio),
        0.0,
        f"{agree}/{len(ratio)} cells agree away from the boundary band",
    )


def precession_leg_residual(delta, kappa0, phase, duration, state: ModeState, along, angle):
    """The leg height c + r cos(2 W s + chi) along `along`, at the end of
    the segment and at leg_time for `angle`, against the amplitude
    propagator; one case, or columns of cases with along a (3, n) array."""
    axis = rotation_axis((delta, kappa0), phase)
    c, r, chi = precession_leg(axis, to_bloch(state), along)
    worst = 0.0
    for s, predicted in (
        (duration, c + r * _each(math.cos, 2.0 * axis.omega * duration + chi)),
        (leg_time(axis, chi, angle), c + r * _each(math.cos, angle)),
    ):
        moved = segment_propagator((delta, kappa0), (phase, s)).apply(state)
        worst = np.maximum(worst, abs(_dot(along, to_bloch(moved)) - predicted))
    return worst[()]


def check_precession_leg(rng, n: int) -> CheckResult:
    cases, states = [], []
    for _ in range(n):
        params, seg = _random_segment(rng, 4.0)
        state = _random_state(rng)
        states.append((state.a1, state.a2))
        along = rng.normal(size=3)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        cases.append((params.delta, params.kappa0, seg.phase, seg.duration, angle, *along))
    delta, kappa0, phase, duration, angle, *along = np.array(cases).T
    along = np.array(along) / np.sqrt(_dot(along, along))
    state = ModeState(*np.array(states).T)
    residuals = precession_leg_residual(delta, kappa0, phase, duration, state, along, angle)
    return _worst("precession_leg", residuals, 1e-12, f"{n} random legs, sampled and timed")


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
        n = rotation_axis(params, seg.phase).n
        enter_angle = math.acos(float(np.clip(_dot(n, entry), -1.0, 1.0)))
        leave_angle = math.acos(float(np.clip(_dot(n, leave), -1.0, 1.0)))
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
            alone = Protocol((seg,))
            errs = []
            for frac in (0.08, 0.04, 0.02):
                rk4 = integrate(params, alone, _BASIS, IntegrationConfig(frac))
                errs.append(_matrix_mismatch(exact, np.array([rk4.a1, rk4.a2])))
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


def isolator_identity_residual(d, o, theta1, theta2, rf_offset):
    """closed_form_powers against the cascade's matrix product, both
    directions, for the stage [[d, o], [-conj(o), conj(d)]] and the phases
    of an IsolatorSpec; one case, or columns of cases."""
    spec = IsolatorSpec(TransferMatrix(d, o), theta1, theta2, rf_offset)
    closed = closed_form_powers(spec.stage, spec.delta_theta, spec.rf_offset)
    fwd, bwd = (abs(cross_power(spec, way) - p) for way, p in zip((FORWARD, BACKWARD), closed))
    return np.maximum(fwd, bwd)[()]


def check_isolator_identity(rng, n: int) -> CheckResult:
    alpha, arg_d, arg_o, theta1, theta2, offset = _draw(
        rng, n, (0.0, math.pi / 2.0), (-math.pi, math.pi), (-math.pi, math.pi), PHASES, PHASES, PHASES
    )
    d = _each(math.cos, alpha) * np.exp(1j * arg_d)
    o = _each(math.sin, alpha) * np.exp(1j * arg_o)
    # Reciprocity zeros: offset 0, and effective differential phase 0.
    stage = TransferMatrix(math.sqrt(0.5), 1j * math.sqrt(0.5))
    zeros = [
        reciprocity_defect(IsolatorSpec(stage, 1.3, 0.4, 0.0)),
        reciprocity_defect(IsolatorSpec(stage, 0.0, 0.0, 2.1)),
    ]
    residuals = np.append(isolator_identity_residual(d, o, theta1, theta2, offset), zeros)
    return _worst("isolator_identity", residuals, 1e-12, f"{n} random cascades")


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


def isolator_endpoints_residual(params: CouplerParams, sample_count: int) -> float:
    """At the optimum isolator.optimal_phases gives the push-pull stage,
    with theta2 = 0: forward stays on mode 1 and backward lands on mode 2,
    in the cross powers and at the ends of the sampled trajectories."""
    protocol, stage = pushpull_stage(params)
    delta_theta, offset = optimal_phases(stage)
    spec = IsolatorSpec(stage, delta_theta, 0.0, offset)
    fwd_final = cascade_trajectory(params, protocol, spec, FORWARD, sample_count).final
    bwd_final = cascade_trajectory(params, protocol, spec, BACKWARD, sample_count).final
    return max(
        cross_power(spec, FORWARD),
        abs(cross_power(spec, BACKWARD) - 1.0),
        abs(to_bloch(fwd_final).w - 1.0),
        abs(to_bloch(bwd_final).w + 1.0),
    )


def check_isolator_endpoints() -> CheckResult:
    residual = isolator_endpoints_residual(CouplerParams(0.5, 1.0), 64)
    return _result(
        "isolator_endpoints", residual, 1e-6, "forward stays on mode 1, backward lands on mode 2"
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
    if seed < 0:  # default_rng's own message does not name the seed
        raise ValueError(f"seed = {seed!r} must be a nonnegative integer")
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
