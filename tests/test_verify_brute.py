"""The battery's brute-force two-segment maximum, batched over cells:
bit for bit the plain one-cell grid-and-zoom, bounded in memory, and
unable to pass without the package's transfer table.  The seed takes
exact values only on the rows its bounds cannot rule out, all 48 where
every row ties, and its maxima are still the whole table's.  With a
settle level, a cell stops zooming once its best reaches it: its class
at that level is the reference's, and a cell that never settles keeps
its bits."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modeswitch import CouplerParams, transfer_map
from modeswitch import verify
from modeswitch.twostep import _grid_transfer
from modeswitch.verify import (
    FULL_TRANSFER,
    SEED_CHUNK,
    TABLE_VALUES,
    _brute_two_step_maxima,
    _seed_row_bounds,
    check_criterion_vs_brute,
    check_two_step_ceiling,
)

SEED_AXIS = np.linspace(0.0, math.pi, 48)
# Cells per _grid_transfer call: whole seed tables, and 9 x 9 zoom windows.
TABLES = TABLE_VALUES // len(SEED_AXIS) ** 2
ZOOM_CELLS = TABLE_VALUES // 81


def scalar_brute_max(params: CouplerParams, phi: float, screen: float = -math.inf) -> float:
    """Reference: one cell, a 48-point seed grid, then 30 levels of a
    9 x 9 window, the step shrinking by 4, replaced only if strictly greater."""
    coupler = params.delta, params.kappa0, params.rabi
    values = _grid_transfer(*coupler, phi, SEED_AXIS, SEED_AXIS)
    i, j = divmod(int(values.argmax()), len(SEED_AXIS))
    best, x1, x2 = float(values[i, j]), SEED_AXIS[i], SEED_AXIS[j]
    if best < screen:
        return best
    step = SEED_AXIS[1]
    offsets = np.arange(-4, 5)
    for _ in range(30):
        step /= 4.0
        wt1, wt2 = x1 + step * offsets, x2 + step * offsets
        values = _grid_transfer(*coupler, phi, wt1, wt2)
        i, j = divmod(int(values.argmax()), len(offsets))
        if values[i, j] > best:
            best, x1, x2 = float(values[i, j]), wt1[i], wt2[j]
    return best


def columns(cells):
    """(delta, kappa0) and phi columns of (delta, kappa0, phi) cells."""
    delta, kappa, phi = np.array(cells, float).reshape(-1, 3).T
    return (delta, kappa), phi


def assert_matches_reference(cells, screen=-math.inf):
    batched = _brute_two_step_maxima(*columns(cells), screen)
    reference = [scalar_brute_max(CouplerParams(d, k), phi, screen) for d, k, phi in cells]
    reference = np.array(reference)
    assert batched.shape == (len(cells),)
    assert batched.tobytes() == reference.tobytes()
    return batched


def random_cells(rng, n: int, ratio=(0.0, 1.5)):
    """(delta, kappa0, phi) with |delta| / kappa0 in `ratio`, alternating signs."""
    kappa = rng.uniform(0.2, 3.0, n)
    delta = rng.uniform(*ratio, n) * kappa * np.where(np.arange(n) % 2, -1.0, 1.0)
    return list(zip(delta.tolist(), kappa.tolist(), rng.uniform(0.0, 2.0 * math.pi, n).tolist()))


cells_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 1.5),
        st.sampled_from((1.0, -1.0)),
        st.floats(0.2, 3.0),
        st.floats(0.0, 2.0 * math.pi),
    ).map(lambda c: (c[1] * c[0] * c[2], c[2], c[3])),
    min_size=1,
    max_size=2 * TABLES + 1,
)


@settings(max_examples=40)
@given(cells_strategy, st.sampled_from((-math.inf, 0.99)))
def test_batched_maxima_equal_the_scalar_reference(cells, screen):
    assert_matches_reference(cells, screen)


@settings(max_examples=40)
@given(
    cells_strategy,
    st.sampled_from((-math.inf, 0.99)),
    st.sampled_from((0.99, FULL_TRANSFER, 1.0 - 1e-12)),
)
def test_settled_cells_keep_their_class(cells, screen, settle):
    batched = _brute_two_step_maxima(*columns(cells), screen, settle)
    for best, (d, k, phi) in zip(batched.tolist(), cells):
        reference = scalar_brute_max(CouplerParams(d, k), phi, screen)
        assert (best >= settle) == (reference >= settle)
        if reference < settle:
            assert best.hex() == reference.hex()


CHUNK_EDGES = sorted({1, *(c + d for c in (TABLES, SEED_CHUNK, ZOOM_CELLS) for d in (-1, 0, 1))})


@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_batched_maxima_across_chunk_edges(n):
    rng = np.random.default_rng(n)
    assert_matches_reference(random_cells(rng, n))
    assert_matches_reference(random_cells(rng, n), screen=0.99)


def test_no_cell_reaches_the_screen():
    # Above ratio 1.2 no phase lifts the two-segment ceiling to 0.99.
    cells = random_cells(np.random.default_rng(3), TABLES + 3, ratio=(1.2, 3.0))
    batched = assert_matches_reference(cells, screen=0.99)
    assert (batched < 0.99).all()
    seed_peaks = [
        _grid_transfer(d, k, CouplerParams(d, k).rabi, phi, SEED_AXIS, SEED_AXIS).max()
        for d, k, phi in cells
    ]
    assert batched.tolist() == seed_peaks


# Cells where seed rows tie or nearly tie, or the coupling is weak:
# delta = 0, phi at 0 and pi, kappa0 down to 1e-12 and |delta| / kappa0
# at 1 -+ 1e-9, both signs.
DEGENERATE_CELLS = [
    (sign * ratio * kappa, kappa, phi)
    for kappa in (1.0, 1e-9, 1e-12)
    for ratio in (0.0, 1.0 - 1e-9, 1.0 + 1e-9, 0.5)
    for sign in ((1.0,) if ratio == 0.0 else (1.0, -1.0))
    for phi in (0.0, math.pi, 1.0)
]


@pytest.mark.parametrize("screen", [-math.inf, 0.99])
def test_degenerate_cells_equal_the_scalar_reference(screen):
    assert_matches_reference(DEGENERATE_CELLS, screen)
    # A weak coupling scales the table by (kappa0 / W)^2, bounds and slack alike.
    weak = [(1.0, kappa, phi) for kappa in (1e-9, 1e-12, 1e-160) for phi in (0.0, 1.0)]
    assert_matches_reference(weak, screen)


def test_a_non_finite_cell_is_nan_beside_finite_cells():
    # A NaN bound rules out no row: the cell takes its whole table, all NaN.
    with np.errstate(invalid="ignore", divide="ignore"):
        best = _brute_two_step_maxima((np.array([math.nan, 0.5, 0.0]), np.array([1.0, 1.0, 0.0])), 0.3)
    assert np.isnan(best[[0, 2]]).all()
    assert best[1] == scalar_brute_max(CouplerParams(0.5, 1.0), 0.3)


def test_seed_row_bounds_hold_every_row_maximum():
    rng = np.random.default_rng(11)
    cells = DEGENERATE_CELLS + random_cells(rng, 200, ratio=(0.0, 3.0))
    # Below kappa0 / W ~ 1e-154, (kappa0 / W)^2 and the table underflow.
    weak = [1e-9, *np.geomspace(1e-150, 1e-165, 16).tolist(), 1e-300, 0.0]
    cells += [(d, kappa, phi) for d in (1.0, -0.7, 2.5) for kappa in weak for phi in (0.0, 1.0)]
    (delta, kappa), phi = columns(cells)
    w = np.hypot(delta, kappa)[:, None]
    table = _grid_transfer(delta[:, None], kappa[:, None], w, phi[:, None], SEED_AXIS, SEED_AXIS)
    upper, lower = _seed_row_bounds(delta[:, None], kappa[:, None], w, phi[:, None])
    row_max = table.max(axis=2)
    assert (lower <= row_max).all()
    assert (row_max <= upper).all()


def rule_out_nothing(delta, kappa0, w, phi):
    upper, lower = _seed_row_bounds(delta, kappa0, w, phi)
    return np.full_like(upper, math.inf), lower


@pytest.mark.parametrize("path", ["bounds", "whole tables", "one table per call"])
def test_whole_tables_and_candidate_rows_give_the_same_maxima(monkeypatch, path):
    if path == "whole tables":  # every row a candidate: every cell takes its whole table
        monkeypatch.setattr(verify, "_seed_row_bounds", rule_out_nothing)
    elif path == "one table per call":  # blocks of 48 // r cells, zoom levels of 28
        monkeypatch.setattr(verify, "TABLE_VALUES", len(SEED_AXIS) ** 2)
    cells = DEGENERATE_CELLS + random_cells(np.random.default_rng(5), SEED_CHUNK + 1)
    assert_matches_reference(cells)
    assert_matches_reference(cells, screen=0.99)


def test_tied_rows_take_the_whole_table(monkeypatch):
    # At delta = 0 and phi = pi every seed row reaches the same maximum.
    _, seed, _ = grid_work(monkeypatch, lambda: _brute_two_step_maxima((0.0, 1.0), math.pi))
    assert seed == (len(SEED_AXIS), 1)
    _, seed, _ = grid_work(monkeypatch, lambda: _brute_two_step_maxima((0.5, 1.0), 2.0))
    assert seed == (2, 1)


def test_criterion_check_with_no_counted_cell_fails():
    # One cell sits at ratio 0, phi 0: inside the boundary band.
    res = check_criterion_vs_brute(1)
    assert not res.passed
    assert res.residual == 1.0
    assert "no cell counted" in res.detail
    assert check_criterion_vs_brute(2).passed


@pytest.mark.parametrize("shift", [0.1, -0.1, 0.03, -0.03])
def test_criterion_check_reads_the_criterion(monkeypatch, shift):
    # A threshold moved past the 0.02 band of uncounted cells misclassifies
    # the cells between the two boundaries: at 0.03, 2 of 558.
    def shifted(params, phi):
        delta, kappa0 = params
        r = abs(delta) / kappa0
        return np.cos(phi) <= 1.0 - 2.0 * r * r + shift

    assert check_criterion_vs_brute(24).passed
    monkeypatch.setattr(verify, "two_step_feasible", shifted)
    assert not check_criterion_vs_brute(24).passed


# Faulty transfer tables: each wraps the real one.
FAULTS = {
    "halved": lambda real, delta, kappa0, w, phi, wt1, wt2: real(delta, kappa0, w, phi, wt1, wt2) / 2.0,
    "phase-dropped": lambda real, delta, kappa0, w, phi, wt1, wt2: real(
        delta, kappa0, w, 0.0 * phi, wt1, wt2
    ),
    "overshoot": lambda real, delta, kappa0, w, phi, wt1, wt2: real(delta, kappa0, w, phi, wt1, wt2)
    * 1.001,
}


@pytest.mark.parametrize("fault", ["halved", "phase-dropped"])
def test_brute_force_checks_read_the_transfer(monkeypatch, fault):
    # The batched maximum must come from the package's transfer table.
    real = verify._grid_transfer
    assert check_criterion_vs_brute(12).passed
    assert check_two_step_ceiling(np.random.default_rng(20240817), 12).passed
    monkeypatch.setattr(verify, "_grid_transfer", lambda *args: FAULTS[fault](real, *args))
    assert not check_criterion_vs_brute(12).passed
    assert not check_two_step_ceiling(np.random.default_rng(20240817), 12).passed


def grid_work(monkeypatch, check, candidates=None):
    """check()'s result, and (rows, calls) of the seed tables and of the zoom
    windows it passes to _grid_transfer.  A zoom window has 2-D W t2 and
    counts its cells; a seed table has the shared 1-D W t2 axis and counts
    its (cell, W t1) rows.  A `candidates` list gets the count of rows whose
    upper bound from _seed_row_bounds reaches their cell's best lower bound."""
    real, seed, zoom = verify._grid_transfer, [], []
    real_bounds = verify._seed_row_bounds

    def counted(delta, kappa0, w, phi, wt1, wt2):
        if np.ndim(wt2) == 2:
            zoom.append(len(wt2))
        else:
            seed.append(np.size(wt1))
        return real(delta, kappa0, w, phi, wt1, wt2)

    def bounds(*cols):
        upper, lower = real_bounds(*cols)
        candidates.append(int(np.count_nonzero(upper >= lower.max(axis=1, keepdims=True))))
        return upper, lower

    monkeypatch.setattr(verify, "_grid_transfer", counted)
    if candidates is not None:
        monkeypatch.setattr(verify, "_seed_row_bounds", bounds)
    res = check()
    return res, (sum(seed), len(seed)), (sum(zoom), len(zoom))


def test_zoom_work_is_pinned(monkeypatch):
    # A settled cell leaves the zoom: 8844 of the 44190 cell-levels that
    # zooming every screened cell through all 30 levels would take.
    res, _, zoom = grid_work(monkeypatch, lambda: check_criterion_vs_brute(50))
    assert res.detail.startswith("2445/2445 ")
    assert zoom == (8844, 46)
    res, _, zoom = grid_work(monkeypatch, lambda: check_criterion_vs_brute(24))
    assert res.detail.startswith("558/558 ")
    assert zoom == (1902, 33)
    # The exact maxima settle nothing: 60 cells, 30 levels.
    rng = np.random.default_rng(20240817)
    res, _, zoom = grid_work(monkeypatch, lambda: check_two_step_ceiling(rng, 60))
    assert res.passed
    assert zoom == (1800, 30)


def test_seed_work_is_pinned(monkeypatch):
    # Each cell evaluates exactly its candidate rows: 8977 of the 117360
    # rows of the whole tables of the full battery's cells.
    for check, pinned in [
        (lambda: check_criterion_vs_brute(50), (8977, 37)),
        (lambda: check_criterion_vs_brute(24), (2573, 17)),
        (lambda: check_two_step_ceiling(np.random.default_rng(20240817), 60), (156, 7)),
    ]:
        candidates = []
        _, seed, _ = grid_work(monkeypatch, check, candidates)
        assert seed == pinned
        assert seed[0] == sum(candidates)


@pytest.mark.parametrize("fault", list(FAULTS))
def test_settling_keeps_the_agree_count_of_a_faulty_table(monkeypatch, fault):
    real = verify._grid_transfer
    monkeypatch.setattr(verify, "_grid_transfer", lambda *args: FAULTS[fault](real, *args))
    settled = check_criterion_vs_brute(24)
    exact = verify._brute_two_step_maxima
    monkeypatch.setattr(
        verify, "_brute_two_step_maxima", lambda params, phis, screen, settle: exact(params, phis, screen)
    )
    assert settled == check_criterion_vs_brute(24)


def test_criterion_check_memory_is_bounded():
    # One batch of all 2445 counted cells would hold about 90 MB of seed tables.
    tracemalloc.start()
    try:
        res = check_criterion_vs_brute(50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.passed
    assert peak < 4e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("n", [64, 512])
def test_transfer_map_equals_its_cell_in_a_batch(n):
    params = [CouplerParams(0.4, 1.0), CouplerParams(-1.3, 0.7), CouplerParams(0.0, 2.0)]
    phis = [2.1, 0.5, math.pi]
    wt = np.linspace(0.0, math.pi, n)
    cols = np.array([(p.delta, p.kappa0, p.rabi, phi) for p, phi in zip(params, phis)])
    batch = _grid_transfer(*cols.T[:, :, None], wt, wt)
    for c, (p, phi) in enumerate(zip(params, phis)):
        values = transfer_map(p, phi, n).values
        assert values.shape == (n, n)
        assert values.tobytes() == batch[c].tobytes()
