"""The battery's brute-force two-segment maximum, batched over cells:
bit for bit the plain one-cell grid-and-zoom, bounded in memory, and
unable to pass without the package's transfer table."""

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
    SCREEN_CHUNK,
    ZOOM_CHUNK,
    _brute_two_step_maxima,
    _Cells,
    check_criterion_vs_brute,
    check_two_step_ceiling,
)

SEED_AXIS = np.linspace(0.0, math.pi, 48)


def scalar_brute_max(params: CouplerParams, phi: float, screen: float = -math.inf) -> float:
    """Reference: one cell, a 48-point seed grid, then 30 levels of a
    9 x 9 window, the step shrinking by 4, replaced only if strictly greater."""
    values = _grid_transfer(params, phi, SEED_AXIS, SEED_AXIS)
    i, j = divmod(int(values.argmax()), len(SEED_AXIS))
    best, x1, x2 = float(values[i, j]), SEED_AXIS[i], SEED_AXIS[j]
    if best < screen:
        return best
    step = SEED_AXIS[1]
    offsets = np.arange(-4, 5)
    for _ in range(30):
        step /= 4.0
        wt1, wt2 = x1 + step * offsets, x2 + step * offsets
        values = _grid_transfer(params, phi, wt1, wt2)
        i, j = divmod(int(values.argmax()), len(offsets))
        if values[i, j] > best:
            best, x1, x2 = float(values[i, j]), wt1[i], wt2[j]
    return best


def assert_matches_reference(cells, screen=-math.inf):
    params = [CouplerParams(delta, kappa) for delta, kappa, _ in cells]
    phis = [phi for _, _, phi in cells]
    batched = _brute_two_step_maxima(params, phis, screen)
    reference = np.array([scalar_brute_max(p, phi, screen) for p, phi in zip(params, phis)])
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
    max_size=2 * SCREEN_CHUNK + 1,
)


@settings(max_examples=40)
@given(cells_strategy, st.sampled_from((-math.inf, 0.99)))
def test_batched_maxima_equal_the_scalar_reference(cells, screen):
    assert_matches_reference(cells, screen)


CHUNK_EDGES = sorted({1, *(c + d for c in (SCREEN_CHUNK, ZOOM_CHUNK) for d in (-1, 0, 1))})


@pytest.mark.parametrize("n", CHUNK_EDGES)
def test_batched_maxima_across_chunk_edges(n):
    rng = np.random.default_rng(n)
    assert_matches_reference(random_cells(rng, n))
    assert_matches_reference(random_cells(rng, n), screen=0.99)


def test_no_cell_reaches_the_screen():
    # Above ratio 1.2 no phase lifts the two-segment ceiling to 0.99.
    cells = random_cells(np.random.default_rng(3), SCREEN_CHUNK + 3, ratio=(1.2, 3.0))
    batched = assert_matches_reference(cells, screen=0.99)
    assert (batched < 0.99).all()
    seed_peaks = [
        _grid_transfer(CouplerParams(d, k), phi, SEED_AXIS, SEED_AXIS).max() for d, k, phi in cells
    ]
    assert batched.tolist() == seed_peaks


def test_criterion_check_with_no_counted_cell_fails():
    # One cell sits at ratio 0, phi 0: inside the boundary band.
    res = check_criterion_vs_brute(1)
    assert not res.passed
    assert res.residual == 1.0
    assert "no cell counted" in res.detail
    assert check_criterion_vs_brute(2).passed


@pytest.mark.parametrize(
    "fault",
    [
        lambda real, params, phi, wt1, wt2: real(params, phi, wt1, wt2) / 2.0,
        lambda real, params, phi, wt1, wt2: real(params, 0.0 * phi, wt1, wt2),
    ],
    ids=["halved", "phase-dropped"],
)
def test_brute_force_checks_read_the_transfer(monkeypatch, fault):
    # The batched maximum must come from the package's transfer table.
    real = verify._grid_transfer
    assert check_criterion_vs_brute(12).passed
    assert check_two_step_ceiling(np.random.default_rng(20240817), 12).passed
    monkeypatch.setattr(verify, "_grid_transfer", lambda *args: fault(real, *args))
    assert not check_criterion_vs_brute(12).passed
    assert not check_two_step_ceiling(np.random.default_rng(20240817), 12).passed


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
    cells = _Cells.of(params, phis)
    batch = _grid_transfer(cells, cells.phi, wt, wt)
    for c, (p, phi) in enumerate(zip(params, phis)):
        values = transfer_map(p, phi, n).values
        assert values.shape == (n, n)
        assert values.tobytes() == batch[c].tobytes()
