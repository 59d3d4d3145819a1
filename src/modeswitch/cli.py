"""Command line interface and deterministic file output.

Subcommands:

    simulate      run a protocol (default: the solved two-step transfer)
    feasibility   tabulate the two-segment criterion over (ratio, phi)
    transfer-map  tabulate two-segment transfer over both durations
    plan          build the minimal multi-segment plan (closed-form dive)
    isolator      evaluate the three-stage nonreciprocal cascade
    verify        run the self-check battery

Configuration comes from an optional JSON file (--config) with explicit
flags overriding file values.  A subcommand takes only the fields it
reads (SUBCOMMANDS); any other option or config key exits 2.  RunConfig
checks kinds and the caps; range rules (kappa, threshold, max_segments,
target, the isolator's |delta| < kappa) are left to the library functions
that own them, whose ValueError exits 2 before anything is written.  All
numeric file output is serialized with 17 significant digits so every
double round-trips exactly, and identical configurations produce byte
identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import typing
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .dynamics import (
    CouplerParams,
    ModeState,
    Protocol,
    abs2,
    propagate,
    static_max_transfer,
)
from .geometry import to_bloch
from .isolator import (
    BACKWARD,
    FORWARD,
    IsolatorSpec,
    cascade_trajectory,
    closed_form_powers,
    contrast_db,
    contrast_sweep,
    cross_power,
    effective_differential_phase,
    optimal_phases,
    pushpull_stage,
)
from .oracle import integrate
from .planner import PlanSearchError, minimal_plan_search, minimal_plan_wt
from .render import trajectory_svg
from .twostep import (
    critical_phase,
    feasibility_map,
    solve_fraction,
    solve_two_step,
    transfer_map,
    two_step_ceiling,
    two_step_feasible,
)
from . import verify as verify_mod


def fmt17(x: float) -> str:
    """17 significant digits; exact round-trip for any finite double."""
    return format(float(x), ".17g")


def dumps17(obj) -> str:
    """JSON text with floats at 17 significant digits, keys kept in order.

    One walk over the payload: floats (numpy float64 too) as fmt17, and
    non-finite ones as the strings "inf", "-inf" and "nan", since JSON has
    no literals for them; tuples as lists; bool, int, str and None through
    json.dumps.  Any other type raises TypeError.
    """

    def render(x, indent: int) -> str:
        if isinstance(x, float):
            return fmt17(x) if math.isfinite(x) else json.dumps(str(x))
        pad = "  " * indent
        if isinstance(x, dict):
            if not x:
                return "{}"
            inner = ",\n".join(
                f'{pad}  "{k}": {render(v, indent + 1)}' for k, v in x.items()
            )
            return "{\n" + inner + "\n" + pad + "}"
        if isinstance(x, (list, tuple)):
            if not x:
                return "[]"
            inner = ",\n".join(f"{pad}  {render(v, indent + 1)}" for v in x)
            return "[\n" + inner + "\n" + pad + "]"
        if x is None or isinstance(x, (int, str)):
            return json.dumps(x)
        raise TypeError(f"not serializable: {type(x)!r}")

    return render(obj, 0) + "\n"


def _create(path: Path):
    """Open a new file at path for writing, replacing any file there.

    An existing file is unlinked, not truncated, so each output is a new
    inode and a rerun does not wait on the old file's data.  On ext4
    (default auto_da_alloc), truncating a file that holds data waits for
    its writeback and marks the new data for a flush on close.  Rewriting
    a 60 KB file on a 2-vCPU host (ext4 mounted with discard; 300 runs,
    medians) took 94 us to open (p99 250 us) and 13 us to close when
    truncating, against 7 us to unlink, 32 us to open and 1 us to close.
    A temporary file renamed over the old one took 290-320 us a file,
    since ext4 flushes on rename-over too; truncating after writing in
    place would leave a new prefix on an old suffix after a crash, which
    still parses.  The bytes written are the same either way, but a
    symlink or hard link at path is replaced, not written through.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    path.unlink(missing_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def write_text(path: Path, text: str) -> None:
    with _create(path) as fh:
        fh.write(text)


def write_csv(path: Path, header: list[str], rows) -> None:
    """Header plus the body, written chunk by chunk as the rows arrive.

    rows yields text of whole lines, each ended by a newline: chunks of
    table rows from _table_rows, or of up to GRID_CELLS grid cells from
    _grid_rows.
    """
    with _create(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(rows)


# Cells per chunk of _grid_rows, and per chunk of _table_rows.  A chunk
# of the widest map line, the isolator sweep's five fields of at most 24
# characters, stays under 512 KB of text; at 4096 values per table the
# vectorized formatting costs about a third of %.17g per value.
GRID_CELLS = 4096

# Powers of ten 10**p, p in [_P10_MIN, _P10_MAX], for _text17.  Only
# 1e-270 <= |x| < 1e270 takes its vectorized path, which reads 10**E and
# 10**(E + 1) for E = floor(log10 |x|) in [-271, 270] and 10**(16 - E).
_P10_MIN, _P10_MAX = -280, 300
_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitter for binary64
# A rounding margin |frac - 1/2| at or below this goes to %.17g (_text17
# derives it).
_TIE_MARGIN = 2.0**-47


def _split(a):
    """Dekker's split of doubles into halves of at most 26 bits, head + tail == a."""
    c = _SPLIT * a
    head = c - (c - a)
    return head, a - head


class _Tables(typing.NamedTuple):
    """_text17's lookup tables; _tables builds them on first use."""

    hi: np.ndarray  # the double nearest 10**p, at p - _P10_MIN
    lo: np.ndarray  # the double nearest 10**p - hi
    quads: np.ndarray  # the four digits of 0..9999 as uint32, in memory order
    zeros: np.ndarray  # their trailing zeros: 4 for 0000
    masks: np.ndarray  # (25, 4) uint64: row w keeps the first w of 32 bytes
    exponents: np.ndarray  # %e's exponent, e-05 or e+100, at E - _P10_MIN


@functools.cache
def _tables() -> _Tables:
    """hi and lo come from exact integers: Python's int true division is
    correctly rounded, and hi is m / d exactly (as_integer_ratio), so
    10**p - hi is the integer fraction (num d - m den) / (den d)."""
    his, los = [], []
    for p in range(_P10_MIN, _P10_MAX + 1):
        num, den = (10**p, 1) if p >= 0 else (1, 10**-p)
        hi = num / den
        m, d = hi.as_integer_ratio()
        his.append(hi)
        los.append((num * d - m * den) / (den * d))
    q = np.arange(10_000)
    digits = np.stack([q // 1000, q // 100 % 10, q // 10 % 10, q % 10], axis=1)
    masks = np.where(np.arange(32) < np.arange(25)[:, None], 255, 0).astype(np.uint8)
    return _Tables(
        np.array(his),
        np.array(los),
        (digits + ord("0")).astype(np.uint8).view(np.uint32).ravel(),
        sum(q % 10**j == 0 for j in range(1, 5)).astype(np.int8),
        masks.view(np.uint64),
        np.array([b"e%+03d" % p for p in range(_P10_MIN, _P10_MAX + 1)]),
    )


def _text17(x, end=b""):
    """numpy bytes text of a float64 column, entry for entry "%.17g" % x + end.

    With E = floor(log10 |x|), the 17 significant digits are the integer D
    nearest y = |x| 10**(16 - E), ties to even.  y is formed in
    double-double: ph + pl = |x| hi exactly (Dekker's product of split
    halves), and t = RN(pl + RN(|x| lo)) carries the rest, so y = ph + t
    up to an error bounded as follows (u = 2**-53, RN round to nearest).
    On the fast path 10**16 + 64 < ph < 10**17 - 64 < 2**57, so ph is an
    even integer and |pl| <= ulp(ph) / 2 <= 8.  |lo| <= u |hi| (1 + u), so
    |x| |lo| <= 16 (1 + u): RN(|x| lo) errs by at most 2**-49, and so does
    RN(pl + .) below 32.  lo itself errs by at most u |lo|, which |x|
    scales to at most 2**-49 (1 + u).  Hence |t - (y - ph)| <= 3 2**-49
    (1 + u) < _TIE_MARGIN, so when frac = t - floor(t) has |frac - 1/2| >
    _TIE_MARGIN, y - ph rounds to floor(t) + (frac > 1/2) as t does, and
    D = ph + that.  With |y - ph| < 32 the guard also keeps
    10**16 < y < 10**17 - 1/2: D has 17 digits, none carried to an 18th,
    and E is exact.  np.log10 may put E one decade off; it is first moved
    to the decade between the doubles nearest 10**E and 10**(E + 1), and
    a y still outside [10**16, 10**17) lies within 64 of the guard's
    ends.  No product under- or overflows for 1e-270 <= |x| < 1e270.

    The digits of D come four at a time from a table, its trailing zeros
    are cut, and %g's style rule applies: fixed notation for -4 <= E < 17,
    else d.ddd and an exponent.  Every other entry, one whose margin is at
    or below _TIE_MARGIN, whose ph lies within 64 of 10**16 or 10**17, or
    which is 0, below 1e-270, at or above 1e270, inf or nan, is
    "%.17g" % x itself.
    """
    x = np.asarray(x, dtype=np.float64)
    tab = _tables()
    a = np.abs(x)
    fast = (a >= 1e-270) & (a < 1e270)
    a = np.where(fast, a, 1.0)  # in range of log10 and the table; the guard drops it
    e = np.floor(np.log10(a)).astype(np.intp)
    e += a >= tab.hi.take(e + (1 - _P10_MIN))
    e -= a < tab.hi.take(e - _P10_MIN)
    k = (16 - _P10_MIN) - e
    hi = tab.hi.take(k)
    ph = a * hi
    (ah, al), (bh, bl) = _split(a), _split(hi)
    pl = al * bl - (((ph - ah * bh) - al * bh) - ah * bl)
    t = pl + a * tab.lo.take(k)
    f = np.floor(t)
    frac = t - f
    fast &= (np.abs(frac - 0.5) > _TIE_MARGIN) & (ph > 1e16 + 64) & (ph < 1e17 - 64)
    d = ph.astype(np.int64) + f.astype(np.int64) + (frac > 0.5)

    # Seven '0' characters, then the 17 digits of D; nsig counts the
    # digits left once trailing zeros are cut.
    n = len(x)
    quads = np.empty((n, 6), dtype=np.uint32)
    quads[:, 0] = tab.quads[0]
    nsig = np.full(n, 17, dtype=np.int8)
    zero = np.ones(n, dtype=bool)
    for j in (5, 4, 3, 2):
        q = d // 10_000
        r = d - q * 10_000
        d = q
        quads[:, j] = tab.quads.take(r)
        nsig -= zero * tab.zeros.take(r)
        zero &= r == 0
    quads[:, 1] = tab.quads.take(d)
    chars = quads.view(np.uint8)
    # A layout per style and sign: fixed notation with E < 0 shifts in -E
    # zeros ("0.00ddd"), with E >= 0 it puts the point after E + 1 digits,
    # and d.ddd (with an exponent after it) sits as E = 0 does.  The cut
    # drops the point where no digit follows it.
    neg = np.signbit(x)
    fixed = (e >= -4) & (e < 17)
    style = np.where(fixed, e, 0)
    kept = np.maximum(-style, 0) + nsig
    point = np.maximum(style + 1, 1)
    width = (neg + np.where(kept > point, kept + 1, point)) * fast
    layout = np.where(fast, (style + 4) * 2 + neg, 42).astype(np.uint8)
    # Rows sorted by layout, so each layout fills one slice.
    order = np.argsort(layout, kind="stable")
    counts = np.bincount(layout, minlength=43)
    chars = chars.take(order, axis=0)
    body = np.zeros((n, 32), dtype=np.uint8)
    start = 0
    for key in np.flatnonzero(counts[:42]):
        stop = start + counts[key]
        s, sign = divmod(int(key), 2)
        z, p = max(4 - s, 0), max(s - 3, 1)
        digits = chars[start:stop, 7 - z :]
        block = body[start:stop]
        if sign:
            block[:, 0] = ord("-")
        block[:, sign : sign + p] = digits[:, :p]
        block[:, sign + p] = ord(".")
        block[:, sign + p + 1 : sign + 18 + z] = digits[:, p:]
        start = stop
    body.view(np.uint64)[...] &= tab.masks.take(width.take(order), axis=0)
    # The narrowest itemsize that holds every entry: later joins copy it.
    sci, slow = np.flatnonzero(fast & ~fixed), np.flatnonzero(~fast)
    others = [b"%.17g" % v + end for v in x[slow].tolist()]
    size = max([width.max(initial=0) + 5 * bool(len(sci)) + len(end), *map(len, others)])
    text = np.empty(n, dtype=f"S{size}")
    text[order] = np.ascontiguousarray(body[:, :size]).view(text.dtype).ravel()
    # end goes right after the digits; d.ddd takes its exponent first.
    mantissas = text[sci]
    if end:
        text.view(np.uint8)[np.arange(0, size * n, size) + width] = end[0]
    if len(sci):
        exponents = tab.exponents.take(e[sci] - _P10_MIN)
        text[sci] = np.strings.add(np.strings.add(mantissas, exponents), end)
    text[slow] = others
    return text


# A float table with at most this many distinct values per grid row is
# formatted once per distinct value.  The isolator sweep's powers depend
# only on delta_theta + offset: sampled over grids 2-2048 and delta in
# (-1, 1) they reach at most 6.8 distinct values per row.  At grid 512
# and delta 0.5, contrast_db has 240,711 and a transfer map (phi = pi)
# 138,196, so both keep the inline %.17g.
DISTINCT_PER_ROW = 16


def _distinct_text(table, end):
    """(sorted distinct bit patterns, their %.17g text + end) of a float64
    table with at most DISTINCT_PER_ROW distinct values per row, else None.

    Values are keyed on their bits, so -0.0 stays "-0" and every NaN
    payload reads "nan".  The one transient copy is the sorted bits.
    """
    if table.dtype != np.float64:
        return None
    bits = np.sort(table.view(np.uint64), axis=None)
    first = np.empty(bits.shape, dtype=bool)
    first[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=first[1:])
    if np.count_nonzero(first) > DISTINCT_PER_ROW * len(table):
        return None
    keys = bits[first]
    return keys, _text17(keys.view(np.float64), end)


def _cell_text(cells, distinct, end):
    """Text + end of a flat run of one table's cells: a bool as 0 or 1, any
    other as %.17g through its distinct values or _text17."""
    if cells.dtype == bool:
        return np.where(cells, b"1" + end, b"0" + end)
    if distinct is not None:
        keys, text = distinct
        return text[np.searchsorted(keys, cells.view(np.uint64))]
    return _text17(cells, end)


def _grid_rows(row_axis, col_axis, *tables):
    """Lines (row value, column value, table values...) of 2-D maps, row-major.

    The two axes are formatted once per file, each value with its comma.
    The cells go GRID_CELLS at a time, in row-major order, so a chunk may
    end partway through a grid row: each table's run of cells becomes
    numpy bytes text with its comma or newline (_cell_text), np.strings.add
    puts the lines together as row + column + cells, and one join makes
    the chunk's text.  A float table with few distinct values
    (_distinct_text) is formatted once per distinct value, and each cell
    gathers its text with searchsorted: at grid 512 and delta 0.5 the
    isolator sweep's forward and backward powers hold 2,090 and 3,252
    distinct values in 262,144 cells.  No chunk holds more than GRID_CELLS
    lines, and text is held for at most DISTINCT_PER_ROW values per row.
    """
    rows, cols = len(row_axis), len(col_axis)
    row_text, col_text = _text17(row_axis, b","), _text17(col_axis, b",")
    ends = [b","] * (len(tables) - 1) + [b"\n"]
    distinct = [_distinct_text(t, end) for t, end in zip(tables, ends)]
    flat = [t.reshape(-1) for t in tables]
    for lo in range(0, rows * cols, GRID_CELLS):
        hi = min(lo + GRID_CELLS, rows * cols)
        r, c = np.divmod(np.arange(lo, hi), cols)
        line = np.strings.add(row_text[r], col_text[c])
        for cells, d, end in zip(flat, distinct, ends):
            line = np.strings.add(line, _cell_text(cells[lo:hi], d, end))
        yield b"".join(line.tolist()).decode()


def _table_rows(*columns):
    """Lines of equal-length float columns at %.17g (equal to fmt17), written
    GRID_CELLS values per chunk from one % template.  An integer column, such
    as a segment count, prints as %d does: %.17g of an integer-valued float
    below 2**53 has no point or exponent."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    step = GRID_CELLS // len(columns)
    for lo in range(0, len(table), step):
        block = table[lo : lo + step]
        yield (line * len(block)) % tuple(block.ravel().tolist())


# Largest accepted grid side and sample count: grid^2 cells and the
# sample list are held in memory, so bigger runs fail before allocating.
MAX_GRID = 2048
MAX_SAMPLES = 100_000
# Largest accepted total W*T (rad) of an explicit protocol or a plan: a plan
# takes at least W*T / (pi/2) segments and the trajectory spans all of it, so
# longer ones fail before any work starts.  The RK4 cross-check costs only
# about log2(W*T / DEFAULT_STEP_FRACTION) products per segment.
MAX_PROTOCOL_WT = 1e4


def _real(x, what: str) -> float:
    """x as a float if it is an int or float (not a bool) no larger than the largest
    double; an int is compared exactly, so float() cannot overflow on it."""
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number")
    return float(x)


def _protocol(value) -> Protocol:
    """The Protocol of a nonempty list of [phase, duration] pairs of reals."""
    pairs = isinstance(value, (list, tuple)) and value
    if not pairs or not all(isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs):
        raise ValueError("protocol must be a nonempty list of [phase, duration] pairs")
    return Protocol.from_pairs([_real(x, "a protocol entry") for x in p] for p in pairs)


def _check_wt(what: str, wt: float) -> None:
    if wt > MAX_PROTOCOL_WT:
        raise ValueError(f"{what} W*T = {wt:g} rad exceeds MAX_PROTOCOL_WT = {MAX_PROTOCOL_WT:g}")


@dataclass(frozen=True)
class RunConfig:
    """Kind-checked run configuration; SUBCOMMANDS says which fields each subcommand reads."""

    delta: float = 0.5
    kappa: float = 1.0
    phi: float = math.pi
    threshold: float = 0.99
    grid: int = 64
    samples: int = 256
    seed: int = 20240817
    out: str = "out"
    protocol: Protocol | None = None
    target: float | None = None
    theta1: float = 1.5 * math.pi
    theta2: float = 0.0
    rf_offset: float = 0.5 * math.pi
    max_segments: int | None = None
    fast: bool = False
    inject_fault: bool = False

    def __post_init__(self) -> None:
        for f in fields(self):
            name, v, kind = f.name, getattr(self, f.name), _KINDS[f.name]
            if v is None and f.default is None:
                continue
            if kind is Protocol:
                v = _protocol(v)
            elif kind is float:
                v = _real(v, f"config field {name!r}")
            elif isinstance(v, bool) != (kind is bool) or not isinstance(v, kind):
                raise ValueError(f"config field {name!r} must be {_KIND_NAMES[kind]}")
            object.__setattr__(self, name, v)
        if not 2 <= self.grid <= MAX_GRID:
            raise ValueError(f"grid must lie in [2, {MAX_GRID}]")
        if not 1 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must lie in [1, {MAX_SAMPLES}]")
        if self.protocol is not None:
            _check_wt("protocol", self.params.rabi * self.protocol.total_duration)
        if not self.out:
            raise ValueError("out must be a nonempty string")

    @property
    def params(self) -> CouplerParams:
        return CouplerParams(self.delta, self.kappa)


# Each field's declared kind, "| None" dropped; build_parser types the flags with it.
_KINDS = {n: (typing.get_args(h) or (h,))[0] for n, h in typing.get_type_hints(RunConfig).items()}
_KIND_NAMES = {int: "an integer", bool: "a boolean", str: "a string"}


def load_config(command: str, path: str | None, overrides: dict) -> RunConfig:
    """File values, then non-None overrides; a key the command does not read raises."""
    _, flags, file_keys = SUBCOMMANDS[command]
    keys = {"out", *flags, *file_keys}
    data: dict = {}
    if path is not None:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(raw, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = sorted(set(raw) - keys)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)} (for {command})")
        data.update(raw)
    data.update({k: v for k, v in overrides.items() if v is not None})
    return RunConfig(**data)


def _params_block(cfg: RunConfig) -> dict:
    params = cfg.params
    return {
        "delta": cfg.delta,
        "kappa": cfg.kappa,
        "rabi": params.rabi,
        "ratio": params.ratio if cfg.kappa > 0 else None,
    }


def _protocol_block(protocol: Protocol) -> list:
    return [{"phase": s.phase, "duration": s.duration} for s in protocol.segments]


def cmd_simulate(cfg: RunConfig) -> int:
    params = cfg.params
    if cfg.protocol is not None and cfg.target is not None:
        raise ValueError("simulate takes 'protocol' or 'target', not both")
    protocol, source = cfg.protocol, "config"
    if protocol is None and cfg.target is not None:
        protocol, source = solve_fraction(params, cfg.phi, cfg.target), "solve_fraction"
    elif protocol is None:
        protocol, source = solve_two_step(params, cfg.phi).protocol(), "solve_two_step"
    traj = propagate(params, protocol, ModeState.mode1(), cfg.samples)
    final = traj.final
    rk4_final = integrate(params, protocol, ModeState.mode1())
    out = Path(cfg.out)

    a1, a2, b = traj.a1, traj.a2, to_bloch(traj)
    write_csv(
        out / "trajectory.csv",
        ["t", "re_a1", "im_a1", "re_a2", "im_a2", "p1", "p2", "u", "v", "w"],
        _table_rows(
            traj.t, a1.real, a1.imag, a2.real, a2.imag,
            abs2(a1.real, a1.imag), abs2(a2.real, a2.imag), b.u, b.v, b.w,
        ),
    )
    write_text(out / "trajectory.svg", trajectory_svg(traj.t, b.u, b.v, b.w, protocol.ends[:-1]))
    summary = {
        "command": "simulate",
        "params": _params_block(cfg),
        "protocol_source": source,
        "protocol": _protocol_block(protocol),
        "total_duration": protocol.total_duration,
        "transfer": final.transfer,
        "final_norm": final.norm,
        "static_max_transfer": static_max_transfer(params),
        "rk4_transfer": rk4_final.transfer,
        "rk4_mismatch": abs(rk4_final.transfer - final.transfer),
    }
    if source != "config":
        summary["feasible"] = two_step_feasible(params, cfg.phi)
        summary["ceiling"] = two_step_ceiling(params, cfg.phi)
    write_text(out / "summary.json", dumps17(summary))
    print(f"simulate: transfer {final.transfer:.12g} over {len(protocol.segments)} segments")
    if source == "solve_two_step" and not summary["feasible"]:
        msg = f"two segments reach at most {summary['ceiling']:.12g} at this phase"
        print(f"simulate: {msg}; use `modeswitch plan` for complete transfer", file=sys.stderr)
    return 0


def cmd_feasibility(cfg: RunConfig) -> int:
    fm = feasibility_map(cfg.grid)
    out = Path(cfg.out)
    # A bool table is written as 0/1.
    rows = _grid_rows(fm.ratios, fm.phis, fm.feasible)
    write_csv(out / "feasibility.csv", ["ratio", "phi", "feasible"], rows)
    ratios = [r for r in fm.ratios.tolist() if r <= 1.0]
    boundary = _table_rows(ratios, [critical_phase(r) for r in ratios])
    write_csv(out / "boundary.csv", ["ratio", "phi_critical"], boundary)
    summary = {
        "command": "feasibility",
        "grid": cfg.grid,
        "feasible_cells": int(fm.feasible.sum()),
        "total_cells": int(fm.feasible.size),
    }
    write_text(out / "summary.json", dumps17(summary))
    print(f"feasibility: {int(fm.feasible.sum())}/{fm.feasible.size} cells feasible")
    return 0


def cmd_transfer_map(cfg: RunConfig) -> int:
    params = cfg.params
    # Before any output: kappa = 0 has no ratio and fails here.
    feasible = two_step_feasible(params, cfg.phi)
    tm = transfer_map(params, cfg.phi, cfg.grid)
    out = Path(cfg.out)
    rows = _grid_rows(tm.t1_axis, tm.t2_axis, tm.values)
    write_csv(out / "transfer_map.csv", ["t1_over_pi", "t2_over_pi", "transfer"], rows)
    i, j = divmod(int(tm.values.argmax()), len(tm.t2_axis))
    summary = {
        "command": "transfer-map",
        "params": _params_block(cfg),
        "phi": cfg.phi,
        "grid": cfg.grid,
        "peak": tm.peak,
        "peak_t1_over_pi": float(tm.t1_axis[i]),
        "peak_t2_over_pi": float(tm.t2_axis[j]),
        "feasible": feasible,
    }
    write_text(out / "summary.json", dumps17(summary))
    print(f"transfer-map: peak {tm.peak:.12g} on a {cfg.grid}x{cfg.grid} grid")
    return 0


def cmd_plan(cfg: RunConfig) -> int:
    params = cfg.params
    out = Path(cfg.out)
    _check_wt("plan", minimal_plan_wt(params, cfg.threshold, cfg.max_segments))
    try:
        search = minimal_plan_search(
            params,
            threshold=cfg.threshold,
            max_segments=cfg.max_segments,
        )
        plan, curve, estimate = search.plan, search.curve, search.estimate
    except PlanSearchError as err:
        plan, curve, estimate = err.best, err.curve, None
    payload = {
        "command": "plan",
        "params": _params_block(cfg),
        "threshold": cfg.threshold,
        "threshold_met": estimate is not None,
        "switch_estimate": estimate,
        "segments": _protocol_block(plan.protocol),
        "switches": plan.switches,
        "achieved": plan.achieved,
        "total_duration": plan.protocol.total_duration,
        "switch_points": [
            {"u": p.u, "v": p.v, "w": p.w} for p in plan.switch_points
        ],
        "curve": [{"segments": k, "achieved": a} for k, a in curve],
    }
    write_text(out / "plan.json", dumps17(payload))
    write_csv(out / "curve.csv", ["segments", "achieved"], _table_rows(*zip(*curve)))
    traj = propagate(params, plan.protocol, ModeState.mode1(), cfg.samples)
    b = to_bloch(traj)
    svg = trajectory_svg(traj.t, b.u, b.v, b.w, plan.protocol.ends[:-1])
    write_text(out / "trajectory.svg", svg)
    if estimate is None:
        print(f"plan: threshold not met (best {plan.achieved:.6f})", file=sys.stderr)
        return 3
    print(
        f"plan: {len(plan.protocol.segments)} segments, {plan.switches} switches, "
        f"achieved {plan.achieved:.9f} (estimate {estimate})"
    )
    return 0


def cmd_isolator(cfg: RunConfig) -> int:
    params = cfg.params
    stage_protocol, stage = pushpull_stage(params)
    spec = IsolatorSpec(stage, cfg.theta1, cfg.theta2, cfg.rf_offset)
    fwd, bwd = cross_power(spec, FORWARD), cross_power(spec, BACKWARD)
    closed_fwd, closed_bwd = closed_form_powers(stage, spec.delta_theta, spec.rf_offset)
    out = Path(cfg.out)

    sweep = contrast_sweep(stage, cfg.grid)
    write_csv(
        out / "sweep.csv",
        ["delta_theta", "rf_offset", "forward", "backward", "contrast_db"],
        _grid_rows(
            sweep.delta_thetas, sweep.offsets, sweep.forward, sweep.backward, sweep.contrast_db
        ),
    )
    for direction in (FORWARD, BACKWARD):
        traj = cascade_trajectory(params, stage_protocol, spec, direction, cfg.samples)
        b = to_bloch(traj)
        svg = trajectory_svg(traj.t, b.u, b.v, b.w, [stage_protocol.total_duration])
        write_text(out / f"trajectory_{direction}.svg", svg)
    opt_dt, opt_off = optimal_phases(stage)
    summary = {
        "command": "isolator",
        "params": _params_block(cfg),
        "stage": {
            "d_re": stage.d.real,
            "d_im": stage.d.imag,
            "o_re": stage.o.real,
            "o_im": stage.o.imag,
            "split": stage.transfer,
        },
        "theta1": cfg.theta1,
        "theta2": cfg.theta2,
        "rf_offset": cfg.rf_offset,
        "effective_delta_theta": effective_differential_phase(spec),
        "forward_power": fwd,
        "backward_power": bwd,
        "contrast_db": contrast_db(fwd, bwd),
        "closed_form_forward": float(closed_fwd),
        "closed_form_backward": float(closed_bwd),
        "optimal_delta_theta": opt_dt,
        "optimal_rf_offset": opt_off,
    }
    write_text(out / "summary.json", dumps17(summary))
    print(f"isolator: forward {fwd:.12g}, backward {bwd:.12g}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = verify_mod.run_battery(
        seed=cfg.seed, fast=cfg.fast, inject_fault=cfg.inject_fault
    )
    out = Path(cfg.out)
    write_text(out / "report.json", dumps17(verify_mod.battery_report(results)))
    for r in results:
        status = "ok" if r.passed else "FAIL"
        print(f"{status:4s} {r.name:32s} residual {r.residual:.3e} tol {r.tolerance:.1e}")
    failures = sum(not r.passed for r in results)
    print(f"verify: {len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


# The CLI surface: each subcommand's handler, the RunConfig fields it
# takes as flags, and those it takes from --config alone.  Each also takes
# --config and --out.
SUBCOMMANDS = {
    "simulate": (cmd_simulate, ("delta", "kappa", "phi"), ("samples", "protocol", "target")),
    "feasibility": (cmd_feasibility, ("grid",), ()),
    "transfer-map": (cmd_transfer_map, ("delta", "kappa", "phi", "grid"), ()),
    "plan": (cmd_plan, ("delta", "kappa", "threshold"), ("samples", "max_segments")),
    "isolator": (
        cmd_isolator, ("delta", "kappa", "grid"), ("samples", "theta1", "theta2", "rf_offset")
    ),
    "verify": (cmd_verify, ("seed", "fast", "inject_fault"), ()),
}


# Built once: a parser is a web of reference cycles that only the cyclic
# collector frees, so one per call piled up between collections.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modeswitch",
        description="Switched-coupling transfer protocols for detuned two-mode systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse 3.10-3.13 reads "-1e-5" as an option, not a value, unlike "=-1e-5".
    # Exponents pass here; words such as "-inf" still need the "=" form.
    negative_number = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    for name, (_, flags, file_keys) in SUBCOMMANDS.items():
        epilog = f"--config keys: {', '.join(('out',) + flags + file_keys)}"
        p = sub.add_parser(name, epilog=epilog)
        p._negative_number_matcher = negative_number
        p.set_defaults(error=p.error)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output directory")
        for field in flags:
            flag = "--" + field.replace("_", "-")
            if _KINDS[field] is bool:
                p.add_argument(flag, action="store_true", default=None)
            else:
                p.add_argument(flag, type=_KINDS[field], default=None)
    return parser


def main(argv=None) -> int:
    namespace, unread = build_parser().parse_known_args(argv)
    args = vars(namespace)
    command, path, error = args.pop("command"), args.pop("config"), args.pop("error")
    if unread:  # as parse_args would, but under the subcommand's own usage line
        error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        cfg = load_config(command, path, args)
        return SUBCOMMANDS[command][0](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
