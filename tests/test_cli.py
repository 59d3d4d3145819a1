import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import modeswitch
from modeswitch import (
    CouplerParams,
    CouplingSegment,
    Protocol,
    contrast_sweep,
    feasibility_map,
    protocol_propagator,
    pushpull_times,
    transfer_map,
)
from modeswitch.cli import (
    DISTINCT_PER_ROW,
    GRID_CELLS,
    MAX_GRID,
    MAX_PROTOCOL_WT,
    MAX_SAMPLES,
    SUBCOMMANDS,
    RunConfig,
    dumps17,
    fmt17,
    _distinct_text,
    _grid_rows,
    _text17,
    build_parser,
    load_config,
    main,
    write_csv,
)
from modeswitch import verify
from modeswitch.verify import CheckResult, check_expm_agreement
from test_readme import shell_lines


def run(args):
    return main([str(a) for a in args])


def test_fmt17_round_trips_exactly():
    values = [
        math.pi,
        0.1,
        1.0 / 3.0,
        1e-300,
        5e-324,
        1.7976931348623157e308,
        -0.0,
        2.0,
    ]
    for x in values:
        assert float(fmt17(x)) == x


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), st.integers())
@example(math.nan, 0)
@example(math.inf, -1)
@example(-math.inf, 1)
@example(-0.0, 10**30)
@example(5e-324, -(10**30))
@example(2.225073858507201e-308, 2**63)
@example(1.7976931348623157e308, 0)
def test_percent_templates_match_fmt17(x, n):
    # The table template formats cells with %.17g and %d, and the grid
    # kernel hands the entries it cannot prove to %.17g.
    assert "%.17g" % x == fmt17(x)
    assert "%d" % n == str(n)


def _assert_text17(x, end=b""):
    x = np.asarray(x, dtype=np.float64)
    assert _text17(x, end).tolist() == [("%.17g" % v).encode() + end for v in x.tolist()]


@given(
    arrays(
        np.float64,
        st.integers(0, 64),
        elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    ),
    st.sampled_from([b"", b",", b"\n"]),
)
def test_text17_is_percent_17g(x, end):
    _assert_text17(x, end)


def _ties():
    """Exact ties at 17 digits, m / 2**k with m odd: 18 significant digits
    ending in 5 (k = 1 has none below 2**53, so its halves have 17)."""
    rng = np.random.default_rng(7)
    ties = []
    for k in range(1, 12):
        lo, hi = min(10 ** (17 - k) << k, 2**52), min(10 ** (18 - k) << k, 2**53)
        ties.append((rng.integers(lo, hi, 20_000) | 1) / 2.0**k)
    return np.concatenate(ties)


def test_text17_is_percent_17g_on_fixed_sets():
    rng = np.random.default_rng(20240817)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False)
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, math.inf)])
    edges = [9.99999999999999995e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 1e-270, 1e270]
    around_2_53 = np.arange(2**53 - 1000, 2**53 + 1000, dtype=np.int64).astype(np.float64)
    specials = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]
    _assert_text17(bits.view(np.float64))
    _assert_text17(_ties())
    for x in (powers, edges, around_2_53, specials):
        x = np.asarray(x, dtype=np.float64)
        _assert_text17(np.concatenate([x, -x]))
    _assert_text17(powers, b",")


def test_dumps17_structure():
    text = dumps17({"b": 1.5, "a": [0.25, {"x": True, "y": None}]})
    data = json.loads(text)
    assert data == {"b": 1.5, "a": [0.25, {"x": True, "y": None}]}
    # Insertion order is preserved, not sorted.
    assert text.index('"b"') < text.index('"a"')
    assert text.endswith("\n")


def test_dumps17_nonfinite_floats_become_strings():
    data = json.loads(dumps17({"p": math.inf, "q": math.nan}))
    assert data["p"] == "inf"
    assert data["q"] == "nan"


_KEYS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", max_size=6)
_LEAVES = st.none() | st.booleans() | st.integers() | st.text(max_size=8)


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(_KEYS, children, max_size=4),
        max_leaves=20,
    )


def _as_lists(x):
    if isinstance(x, dict):
        return {k: _as_lists(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_as_lists(v) for v in x]
    return x


@given(_trees(_LEAVES), _trees(_LEAVES | st.floats(allow_nan=False, allow_infinity=False)))
def test_dumps17_layout_is_json_dumps_indent_2(tree, float_tree):
    # Without floats the layout is json.dumps's two-space indent exactly.
    assert dumps17(tree) == json.dumps(tree, indent=2) + "\n"
    # With finite floats it loads back to the same values (-0.0 is
    # written "-0", which loads as the equal integer 0).
    assert json.loads(dumps17(float_tree)) == _as_lists(float_tree)


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    for key in ("bogus", "restarts", "direction"):
        cfg.write_text(json.dumps({"delta": 0.5, key: 1}))
        with pytest.raises(ValueError, match=f"unknown config keys: {key}"):
            load_config("simulate", str(cfg), {})


def test_config_flag_overrides_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.3, "kappa": 2.0}))
    merged = load_config("simulate", str(cfg), {"delta": 0.5})
    assert merged.delta == 0.5
    assert merged.kappa == 2.0


def test_run_config_validation(tmp_path, capsys):
    with pytest.raises(ValueError):
        RunConfig(grid=1)
    with pytest.raises(ValueError, match=str(MAX_GRID)):
        RunConfig(grid=MAX_GRID + 1)
    with pytest.raises(ValueError, match=str(MAX_SAMPLES)):
        RunConfig(samples=MAX_SAMPLES + 1)
    with pytest.raises(ValueError):
        RunConfig(protocol=[])
    with pytest.raises(ValueError):
        RunConfig(protocol=[[1.0]])
    with pytest.raises(ValueError):
        RunConfig(delta=math.nan)
    # Integers past the largest double fail the kind check, not float().
    for kwargs, field in (
        ({"delta": 10**400}, "config field 'delta'"),
        ({"target": -(2**1024)}, "config field 'target'"),
        ({"protocol": [[2**1024, 1.0]]}, "a protocol entry"),
    ):
        with pytest.raises(ValueError, match=f"{field} must be a finite number"):
            RunConfig(**kwargs)
    # Range rules are the library's: each still exits 2, names its rule
    # and writes nothing.
    cfg = tmp_path / "cfg.json"
    for argv, config, rule in (
        (["plan", "--kappa=-1"], None, "kappa0 must be nonnegative"),
        (["plan", "--threshold", 0], None, r"threshold must lie in \(0, 1\]"),
        (["plan", "--threshold", 1.5], None, r"threshold must lie in \(0, 1\]"),
        (["plan"], {"max_segments": 0}, "max_segments must be >= 1"),
        (["simulate"], {"target": 1.5}, r"target fraction must lie in \[0, 1\]"),
        (["isolator", "--delta", 2], None, r"\|delta\| < kappa0"),
        (["isolator", "--kappa", 0], None, r"\|delta\| < kappa0"),
    ):
        out = tmp_path / "out"
        if config is not None:
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", cfg]
        assert run(argv + ["--out", out]) == 2, argv
        assert re.search(rule, capsys.readouterr().err), argv
        assert not out.exists(), argv


def test_main_exit_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["simulate", "--config", bad]) == 2
    assert run(["transfer-map", "--grid", 1, "--out", tmp_path / "x"]) == 2
    # simulate reads no grid, so argparse refuses the flag itself.
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--grid", 1, "--out", tmp_path / "x"])
    assert exc.value.code == 2
    missing = tmp_path / "nope.json"
    assert run(["simulate", "--config", missing]) == 2
    # Values just above a cap fail in validation, before any output exists.
    assert run(["transfer-map", "--grid", MAX_GRID + 1, "--out", tmp_path / "big"]) == 2
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"samples": MAX_SAMPLES + 1}))
    assert run(["simulate", "--config", big, "--out", tmp_path / "big"]) == 2
    # A protocol that is not a list of pairs fails in RunConfig's validation.
    for protocol in (5, [1, 2]):
        big.write_text(json.dumps({"protocol": protocol}))
        assert run(["simulate", "--config", big, "--out", tmp_path / "big"]) == 2
    # W = hypot(delta, kappa) must be a normal finite float.
    for command, delta, kappa in (
        ("transfer-map", 1e-320, 1e-320),
        ("transfer-map", 1.5e308, 1.5e308),
        ("isolator", 1e-320, 2e-320),
        ("isolator", 1e308, 1.7e308),
    ):
        assert run([command, "--delta", delta, "--kappa", kappa, "--out", tmp_path / "big"]) == 2
    assert not (tmp_path / "big").exists()


def test_negative_exponent_values_parse_like_the_equals_form(tmp_path):
    # argparse's own negative-number pattern rejects "-1e-5" as a value.
    names = ("trajectory.csv", "summary.json", "trajectory.svg")
    assert run(["simulate", "--delta=-1e-5", "--kappa", 1, "--out", tmp_path / "eq"]) == 0
    assert run(["simulate", "--delta", "-1e-5", "--kappa", 1, "--out", tmp_path / "sp"]) == 0
    for name in names:
        assert (tmp_path / "sp" / name).read_bytes() == (tmp_path / "eq" / name).read_bytes()
    for command in ("transfer-map", "plan", "isolator"):
        args = build_parser().parse_args([command, "--delta", "-2.5E+0"])
        assert args.delta == -2.5
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--delta", "-inf", "--kappa", 1, "--out", tmp_path / "inf"])
    assert exc.value.code == 2
    assert not (tmp_path / "inf").exists()


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the one runtime dependency: with every scipy import made to
    # fail, the CLI commands and the battery run, and the fault-injected
    # battery fails in propagator_vs_expm alone.
    src = str(Path(modeswitch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from modeswitch.cli import main\n"
        "out = sys.argv[1]\n"
        "assert main(['simulate', '--out', out + '/sim']) == 0\n"
        "assert main(['plan', '--delta', '3', '--out', out + '/plan']) == 0\n"
        "assert main(['verify', '--fast', '--out', out + '/fast']) == 0\n"
        "assert main(['verify', '--fast', '--inject-fault', '--out', out + '/fault']) == 1\n"
        "checks = json.load(open(out + '/fault/report.json'))['checks']\n"
        "print([c['name'] for c in checks if not c['passed']], sys.modules['scipy'])"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "['propagator_vs_expm'] None"


def test_simulate_outputs(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--out", out]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,re_a1,im_a1,re_a2,im_a2,p1,p2,u,v,w"
    assert len(lines) == 1 + 257  # header + samples+1 rows
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "simulate"
    assert summary["protocol_source"] == "solve_two_step"
    assert summary["transfer"] == pytest.approx(1.0, abs=1e-12)
    assert summary["feasible"] is True
    assert summary["ceiling"] == 1.0
    assert summary["rk4_mismatch"] <= 1e-8
    assert summary["final_norm"] == pytest.approx(1.0, abs=1e-12)
    # Last CSV row reproduces the summary transfer.
    last = lines[-1].split(",")
    assert float(last[6]) == pytest.approx(summary["transfer"], abs=1e-12)
    svg = (out / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")


def test_simulate_reports_two_segment_shortfall(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run(["simulate", "--delta", 2, "--kappa", 1, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["feasible"] is False
    assert summary["ceiling"] == pytest.approx(0.64, abs=1e-12)
    assert summary["transfer"] == pytest.approx(0.64, abs=1e-12)
    assert "modeswitch plan" in capsys.readouterr().err


def test_simulate_explicit_protocol(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"protocol": [[0.0, 1.2], [math.pi, 0.7]], "samples": 32, "delta": 0.4}
        )
    )
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["protocol_source"] == "config"
    assert "feasible" not in summary and "ceiling" not in summary
    assert len(summary["protocol"]) == 2
    assert summary["protocol"][0]["duration"] == 1.2


def test_simulate_target_fraction(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target": 0.6, "samples": 64}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["protocol_source"] == "solve_fraction"
    assert summary["transfer"] == pytest.approx(0.6, abs=1e-6)


def test_simulate_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["simulate", "--out", out1]) == 0
    assert run(["simulate", "--out", out2]) == 0
    for name in ("trajectory.csv", "summary.json", "trajectory.svg"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def _tree(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_readme_runs_rerun_into_the_same_out_byte_identically(tmp_path, monkeypatch):
    """Each README invocation, run twice into one --out, writes the same
    bytes: a rerun replaces every file it wrote the first time."""
    lines = shell_lines()
    monkeypatch.chdir(tmp_path)
    [(_, text, _, path)] = [line for line in lines if line[:1] == ["echo"]]
    Path(path).write_text(text + "\n", encoding="utf-8")
    for argv in [line[1:] for line in lines if line[:1] == ["modeswitch"]]:
        out = Path(argv[argv.index("--out") + 1])
        runs = []
        for _ in range(2):
            with contextlib.redirect_stdout(io.StringIO()) as stdout:
                code = main(argv)
            runs.append((code, stdout.getvalue(), _tree(out)))
        assert runs[0][2], argv
        assert runs[0] == runs[1], argv


def test_a_shorter_rerun_leaves_no_stale_tail(tmp_path):
    cfg = tmp_path / "cfg.json"
    out, fresh = tmp_path / "sim", tmp_path / "fresh"
    for samples in (512, 8):
        cfg.write_text(json.dumps({"samples": samples}))
        assert run(["simulate", "--config", cfg, "--out", out]) == 0
    assert run(["simulate", "--config", cfg, "--out", fresh]) == 0
    assert _tree(out) == _tree(fresh)
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 9


def test_a_rerun_replaces_links_instead_of_writing_through(tmp_path):
    out = tmp_path / "plan"
    assert run(["plan", "--delta", 2, "--out", out]) == 0
    old = (out / "plan.json").read_bytes()
    os.link(out / "plan.json", tmp_path / "kept.json")
    target = tmp_path / "target.csv"
    target.write_text("sentinel\n")
    (out / "curve.csv").unlink()
    (out / "curve.csv").symlink_to(target)
    assert run(["plan", "--delta", 3, "--out", out]) == 0
    assert (tmp_path / "kept.json").read_bytes() == old
    assert (out / "plan.json").read_bytes() != old
    assert target.read_text() == "sentinel\n"
    assert not (out / "curve.csv").is_symlink()
    assert (out / "curve.csv").read_text().startswith("segments,")


def test_feasibility_outputs(tmp_path):
    out = tmp_path / "feas"
    assert run(["feasibility", "--grid", 8, "--out", out]) == 0
    rows = (out / "feasibility.csv").read_text().splitlines()
    assert rows[0] == "ratio,phi,feasible"
    assert len(rows) == 1 + 64
    assert all(r.split(",")[2] in ("0", "1") for r in rows[1:])
    boundary = (out / "boundary.csv").read_text().splitlines()
    assert boundary[0] == "ratio,phi_critical"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_cells"] == 64
    assert 0 < summary["feasible_cells"] < 64


def test_transfer_map_peak(tmp_path):
    out = tmp_path / "map"
    assert run(["transfer-map", "--delta", 0, "--grid", 33, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["peak"] == pytest.approx(1.0, abs=1e-12)
    assert summary["feasible"] is True
    # With no detuning the peak locus is |t1 - t2| = pi/2 in Rabi angle.
    gap = abs(summary["peak_t1_over_pi"] - summary["peak_t2_over_pi"])
    assert gap == pytest.approx(0.5, abs=1e-12)
    rows = (out / "transfer_map.csv").read_text().splitlines()
    assert len(rows) == 1 + 33 * 33


def test_plan_roundtrip(tmp_path):
    out = tmp_path / "plan"
    assert run(["plan", "--delta", 2.0, "--out", out]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["threshold_met"] is True
    assert payload["achieved"] >= 0.99
    assert len(payload["segments"]) == 4
    assert payload["switches"] == 3
    assert payload["switch_estimate"] == 2
    # Rebuilding the protocol from the serialized digits reproduces the
    # reported transfer exactly.
    protocol = Protocol.from_pairs(
        [(s["phase"], s["duration"]) for s in payload["segments"]]
    )
    again = protocol_propagator(CouplerParams(2.0, 1.0), protocol).transfer
    assert abs(again - payload["achieved"]) <= 1e-12
    curve = (out / "curve.csv").read_text().splitlines()
    assert curve[0] == "segments,achieved"
    assert len(curve) == 1 + len(payload["curve"])
    assert (out / "trajectory.svg").exists()


def test_plan_cap_exit_code(tmp_path):
    for delta in (3.0, -3.0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"delta": delta, "max_segments": 2}))
        # Into an --out that holds a 5-segment plan: exit 3 writes all three
        # files for the capped plan, so none of the old ones is left stale.
        out = tmp_path / f"plan{delta:+g}"
        assert run(["plan", "--delta", delta, "--out", out]) == 0
        assert run(["plan", "--config", cfg, "--out", out]) == 3
        assert (out / "curve.csv").read_text().count("\n") == 1 + 2
        # Two legs, each in the u-w and the v-w panel.
        assert (out / "trajectory.svg").read_text().count("<polyline") == 2 * 2
        payload = json.loads((out / "plan.json").read_text())
        assert payload["threshold_met"] is False
        assert payload["switch_estimate"] is None
        assert payload["achieved"] < 0.99
        assert len(payload["curve"]) == 2
        # The capped plan is two half turns, at phases exactly 0 and pi.
        half_turn = math.pi / 2.0 / CouplerParams(delta, 1.0).rabi
        assert payload["segments"] == [
            {"phase": 0.0, "duration": half_turn},
            {"phase": math.pi, "duration": half_turn},
        ]


def test_plan_rejects_an_oversized_plan(tmp_path, capsys):
    # 14,707 segments, W*T about 22,957 rad, at the default threshold;
    # even the speed limit asin(sqrt(0.99)) / cos(psi) is about 14,706
    # rad.  Refused before any planning, so no output directory is made.
    out = tmp_path / "plan"
    assert run(["plan", "--delta", 1.0, "--kappa", 1e-4, "--out", out]) == 2
    assert "MAX_PROTOCOL_WT" in capsys.readouterr().err
    assert not out.exists()
    # Without coupling the planner's own message decides.
    assert run(["plan", "--kappa", 0.0, "--out", out]) == 2
    assert "kappa0 > 0" in capsys.readouterr().err
    assert not out.exists()


def test_plan_builds_a_long_staircase(tmp_path):
    out = tmp_path / "plan"
    args = ["plan", "--delta", 1.0, "--kappa", 0.003, "--threshold", 0.9]
    assert run(args + ["--out", out]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["threshold_met"] is True
    assert len(payload["segments"]) == 417


def test_plan_lands_just_under_the_wt_cap(tmp_path):
    # 6,386 equal landing segments take W*T 9,940 rad; 6,385 half turns
    # alone would exceed MAX_PROTOCOL_WT.
    out = tmp_path / "plan"
    args = ["plan", "--delta", 1.0, "--kappa", 0.000246, "--threshold", 1.0]
    assert run(args + ["--out", out]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["threshold_met"] is True
    assert len(payload["segments"]) == 6386
    assert CouplerParams(1.0, 0.000246).rabi * payload["total_duration"] <= MAX_PROTOCOL_WT


def test_plan_threshold_one_at_rounding_case(tmp_path):
    out = tmp_path / "plan"
    args = ["plan", "--delta", -9.206459350378962, "--kappa", 1.5604168390472817]
    assert run(args + ["--threshold", 1.0, "--out", out]) == 0
    payload = json.loads((out / "plan.json").read_text())
    assert payload["threshold_met"] is True
    assert payload["achieved"] >= 1.0 - 1e-12


def test_isolator_summary_consistency(tmp_path):
    out = tmp_path / "iso"
    assert run(["isolator", "--grid", 16, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["stage"]["split"] == pytest.approx(0.5, abs=1e-12)
    assert summary["forward_power"] == pytest.approx(
        summary["closed_form_forward"], abs=1e-12
    )
    assert summary["backward_power"] == pytest.approx(
        summary["closed_form_backward"], abs=1e-12
    )
    rows = (out / "sweep.csv").read_text().splitlines()
    assert rows[0] == "delta_theta,rf_offset,forward,backward,contrast_db"
    assert len(rows) == 1 + 16 * 16
    assert (out / "trajectory_forward.svg").exists()
    assert (out / "trajectory_backward.svg").exists()


def test_isolator_optimum_is_in_the_run_gauge(tmp_path):
    out = tmp_path / "iso"
    assert run(["isolator", "--delta", 0.5, "--out", out]) == 0
    optimum = json.loads((out / "summary.json").read_text())["optimal_delta_theta"]
    assert optimum == pytest.approx(2.618, abs=1e-3)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta1": optimum, "theta2": 0.0, "rf_offset": math.pi / 2}))
    assert run(["isolator", "--delta", 0.5, "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["forward_power"] <= 1e-12
    assert summary["backward_power"] >= 1.0 - 1e-12


def _grid_lines(row_axis, col_axis, *tables):
    """Expected CSV body of a 2-D map: row-major, 17-digit floats, 0/1 flags."""
    def cell(x):
        return str(int(x)) if isinstance(x, np.bool_) else fmt17(x)

    return [
        ",".join([fmt17(r), fmt17(c), *(cell(t[i, j]) for t in tables)])
        for i, r in enumerate(row_axis)
        for j, c in enumerate(col_axis)
    ]


def _isolator_sweep(delta, n):
    params = CouplerParams(delta, 1.0)
    segment = CouplingSegment(0.0, pushpull_times(params).t1)
    return contrast_sweep(protocol_propagator(params, Protocol((segment,))), n)


def _body(path):
    return path.read_text().splitlines()[1:]


def test_grid_csv_layout(tmp_path):
    # 67 x 67 cells fill one chunk of GRID_CELLS and end the next partway
    # through a grid row.
    for grid in (5, 67):
        assert run(["feasibility", "--grid", grid, "--out", tmp_path / "feas"]) == 0
        fm = feasibility_map(grid)
        body = _body(tmp_path / "feas" / "feasibility.csv")
        assert body == _grid_lines(fm.ratios, fm.phis, fm.feasible)
        assert {line.rsplit(",", 1)[1] for line in body} == {"0", "1"}

        assert run(["transfer-map", "--grid", grid, "--out", tmp_path / "map"]) == 0
        tm = transfer_map(CouplerParams(0.5, 1.0), math.pi, grid)
        body = _body(tmp_path / "map" / "transfer_map.csv")
        assert body == _grid_lines(tm.t1_axis, tm.t2_axis, tm.values)

        out = tmp_path / "iso"
        assert run(["isolator", "--delta", 0.5, "--grid", grid, "--out", out]) == 0
        sweep = _isolator_sweep(0.5, grid)
        tables = (sweep.forward, sweep.backward, sweep.contrast_db)
        assert _body(out / "sweep.csv") == _grid_lines(sweep.delta_thetas, sweep.offsets, *tables)

    # At zero detuning the stage diagonal is real, so the 4x4 sweep hits
    # exact zeros of one power (inf, -inf) and of both (0, as equal powers).
    out = tmp_path / "iso0"
    assert run(["isolator", "--delta", 0, "--grid", 4, "--out", out]) == 0
    sweep = _isolator_sweep(0.0, 4)
    body = _body(out / "sweep.csv")
    assert body == _grid_lines(
        sweep.delta_thetas, sweep.offsets, sweep.forward, sweep.backward, sweep.contrast_db
    )
    assert {"inf", "-inf"} <= {line.rsplit(",", 1)[1] for line in body}
    assert [line for line in body if line.endswith(",0,0,0")]
    assert not [line for line in body if "nan" in line]


def test_grid_rows_of_a_single_cell(tmp_path):
    # The CLI needs grid >= 2; a 1x1 corner of each map makes a chunk of
    # one line.
    fm = feasibility_map(4)
    tm = transfer_map(CouplerParams(0.5, 1.0), math.pi, 4)
    sweep = _isolator_sweep(0.0, 4)
    for axes, tables in (
        ((fm.ratios, fm.phis), (fm.feasible,)),
        ((tm.t1_axis, tm.t2_axis), (tm.values,)),
        ((sweep.delta_thetas, sweep.offsets), (sweep.forward, sweep.backward, sweep.contrast_db)),
    ):
        axes = tuple(a[:1] for a in axes)
        tables = tuple(t[:1, :1] for t in tables)
        write_csv(tmp_path / "one.csv", ["r", "c"], _grid_rows(*axes, *tables))
        assert _body(tmp_path / "one.csv") == _grid_lines(*axes, *tables)


def test_grid_chunks_hold_at_most_grid_cells_lines():
    # Each chunk is whole lines, at most GRID_CELLS of them.
    sweep = _isolator_sweep(0.5, 512)
    chunks = list(
        _grid_rows(
            sweep.delta_thetas, sweep.offsets, sweep.forward, sweep.backward, sweep.contrast_db
        )
    )
    assert all(c.endswith("\n") and c.count("\n") <= GRID_CELLS for c in chunks)
    assert sum(c.count("\n") for c in chunks) == 512 * 512


_SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1e-310, 2.225073858507201e-308]
)
# Finite cells that _text17 hands to %.17g one at a time: exact ties at 17
# digits, neighbours of powers of ten, subnormals and the extremes.
_FALLBACK = np.array(
    [
        4503599627370497 / 4, -2.5e-16 * (1 + 2**-52), 1125899906842625 / 2**9,
        9.9999999999999995e-5, np.nextafter(1e-4, 0), 1e23, np.nextafter(1e22, math.inf),
        -9.999999999999999e16, 1e-320, -3e-310, 1e-275, 1.7976931348623157e308,
    ]
)


@st.composite
def _grid_case(draw):
    """Axes and tables of one grid: a float table of at most 8 distinct
    values (specials included), a bool table, random floats, random floats
    mixed with _FALLBACK cells, and, when a row has room, a table at
    DISTINCT_PER_ROW * rows distinct values or one more.  A grid of
    GRID_CELLS // cols + 1 rows ends its first chunk partway."""
    cols = draw(st.sampled_from([1, 5, 67]))
    rows = draw(st.sampled_from([1, 5, 67, GRID_CELLS // cols + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = np.array(draw(st.lists(_SPECIAL | st.floats(), min_size=1, max_size=8)))
    tables = [
        rng.choice(pool, size=(rows, cols)),
        rng.random((rows, cols)) < 0.5,
        rng.standard_normal((rows, cols)),
        np.where(
            rng.random((rows, cols)) < 0.5,
            rng.choice(_FALLBACK, size=(rows, cols)),
            rng.standard_normal((rows, cols)),
        ),
    ]
    edge = None
    if cols > DISTINCT_PER_ROW:
        edge = DISTINCT_PER_ROW * rows + draw(st.integers(0, 1))
        values = np.arange(edge) + rng.random()
        cells = np.concatenate([values, rng.choice(values, rows * cols - edge)])
        tables.append(rng.permutation(cells).reshape(rows, cols))
    return rng.standard_normal(rows), rng.standard_normal(cols), tables, edge


@given(_grid_case())
def test_grid_rows_match_the_reference_on_both_paths(case):
    row_axis, col_axis, tables, edge = case
    assert _distinct_text(tables[0], b",") is not None
    assert _distinct_text(tables[1], b",") is None
    if edge is not None:
        assert (_distinct_text(tables[-1], b",") is None) == (edge > DISTINCT_PER_ROW * len(row_axis))
    body = "".join(_grid_rows(row_axis, col_axis, *tables)).splitlines()
    assert body == _grid_lines(row_axis, col_axis, *tables)


def test_sweep_powers_take_the_distinct_path():
    # The powers depend on delta_theta + offset alone; contrast_db and a
    # transfer map have far more than DISTINCT_PER_ROW values per row.
    for grid in (64, 256, 512):
        sweep = _isolator_sweep(0.5, grid)
        assert _distinct_text(sweep.forward, b",") is not None
        assert _distinct_text(sweep.backward, b",") is not None
        assert _distinct_text(sweep.contrast_db, b"\n") is None
        values = transfer_map(CouplerParams(0.5, 1.0), math.pi, grid).values
        assert _distinct_text(values, b"\n") is None


def test_sweep_write_stays_small(tmp_path):
    # Text is held per distinct value or per chunk, never per cell: a 512
    # sweep or transfer map (262,144 lines) peaks at the sorted bits of one
    # table plus a chunk.
    sweep = _isolator_sweep(0.5, 512)
    tm = transfer_map(CouplerParams(0.5, 1.0), math.pi, 512)
    for axes, tables in (
        ((sweep.delta_thetas, sweep.offsets), (sweep.forward, sweep.backward, sweep.contrast_db)),
        ((tm.t1_axis, tm.t2_axis), (tm.values,)),
    ):
        tracemalloc.start()
        try:
            write_csv(tmp_path / "grid.csv", ["r", "c"], _grid_rows(*axes, *tables))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


def test_isolator_zero_offset_is_reciprocal(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"rf_offset": 0.0}))
    out = tmp_path / "iso"
    assert run(["isolator", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["forward_power"] == summary["backward_power"]
    assert summary["contrast_db"] == 0.0


def test_isolator_runs_at_extreme_coupling_scales(tmp_path):
    # Squaring kappa0 once overflowed at 1e300 and vanished at 1e-200.
    for i, (delta, kappa) in enumerate(((0.5, 1e300), (0.0, 1e-200))):
        out = tmp_path / str(i)
        assert run(["isolator", f"--delta={delta}", f"--kappa={kappa}", "--out", out]) == 0
        assert (out / "summary.json").exists()


def test_isolator_rejects_large_ratio(tmp_path):
    assert run(["isolator", "--delta", 2.0, "--out", tmp_path / "iso"]) == 2


def test_verify_fast(tmp_path, capsys):
    out = tmp_path / "ver"
    assert run(["verify", "--fast", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])
    assert len(report["checks"]) == len({c["name"] for c in report["checks"]}) == 19
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("ok") for line in lines)
    assert lines[-1].startswith("verify:")


def test_verify_names_a_negative_seed_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "ver"
    assert run(["verify", "--seed=-1", "--out", out]) == 2
    assert capsys.readouterr().err == "error: seed = -1 must be a nonnegative integer\n"
    assert not out.exists()


def test_verify_fault_injection_fails():
    # The injected fault conjugates the eigh reference; on the same draws
    # the check fails with it and passes without it.
    failed = check_expm_agreement(np.random.default_rng(7), 40, inject_fault=True)
    passed = check_expm_agreement(np.random.default_rng(7), 40, inject_fault=False)
    assert not failed.passed and "[fault injected]" in failed.detail
    assert passed.passed


def test_fast_fault_battery_fails_only_propagator_vs_expm():
    # The README's promise for `verify --fast --inject-fault`.
    results = verify.run_battery(fast=True, inject_fault=True)
    assert [r.name for r in results if not r.passed] == ["propagator_vs_expm"]


def test_verify_exits_1_and_reports_a_failing_check(tmp_path, capsys, monkeypatch):
    failing = CheckResult("propagator_vs_expm", False, 0.5, 1e-10, "stub")
    monkeypatch.setattr(verify, "run_battery", lambda **kwargs: [failing])
    out = tmp_path / "ver"
    assert run(["verify", "--fast", "--out", out]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report == {
        "passed": False,
        "checks": [
            {
                "name": "propagator_vs_expm",
                "passed": False,
                "residual": 0.5,
                "tolerance": 1e-10,
                "detail": "stub",
            }
        ],
    }
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("FAIL propagator_vs_expm")
    assert lines[-1] == "verify: 0/1 checks passed"


def test_simulate_rejects_protocol_with_target(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": [[0.0, 1.2]], "target": 0.5}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert "'protocol'" in err and "'target'" in err
    assert not out.exists()


def test_simulate_rejects_an_oversized_protocol(tmp_path, capsys):
    # At delta 0.5, kappa 1 this is W*T = 1.1e9 rad, past the cap that bounds
    # plan segments and the trajectory; validation refuses it before any work.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"protocol": [[0.0, 1e9]]}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 2
    assert "MAX_PROTOCOL_WT" in capsys.readouterr().err
    assert not out.exists()
    # The cap is on the total W*T over all segments, inclusive.
    w = CouplerParams(0.5, 1.0).rabi
    half = MAX_PROTOCOL_WT / w / 2.0
    RunConfig(protocol=[[0.0, half], [1.0, half]])
    with pytest.raises(ValueError, match="MAX_PROTOCOL_WT"):
        RunConfig(protocol=[[0.0, half], [1.0, half * 1.001]])


def test_simulate_runs_at_the_protocol_cap(tmp_path):
    # 1e7 RK4 steps in all, applied by binary powering of the one-step map,
    # still agree with the closed form end to end.
    w = CouplerParams(0.5, 1.0).rabi
    half = MAX_PROTOCOL_WT / w / 2.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta": 0.5, "kappa": 1, "protocol": [[0.0, half], [1.0, half]]}))
    out = tmp_path / "sim"
    assert run(["simulate", "--config", cfg, "--out", out]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_duration"] * w == pytest.approx(MAX_PROTOCOL_WT, rel=1e-12)
    assert summary["rk4_mismatch"] <= 1e-8


def test_simulate_without_coupling_names_kappa_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "sim"
    for args in (["--kappa", 0], ["--kappa", 0, "--delta", -1.5, "--phi", 2]):
        assert run(["simulate", *args, "--out", out]) == 2
        assert capsys.readouterr().err == "error: ratio undefined for kappa0 = 0: set kappa > 0\n"
        assert not out.exists()


def test_transfer_map_without_coupling_writes_nothing(tmp_path, capsys):
    out = tmp_path / "map"
    assert run(["transfer-map", "--kappa", 0, "--delta", 1, "--out", out]) == 2
    assert "ratio undefined" in capsys.readouterr().err
    assert not out.exists()


def _flag(field):
    return "--" + field.replace("_", "-")


# Every config field but out, which all subcommands take.
_FIELDS = sorted(f.name for f in fields(RunConfig) if f.name != "out")


def test_each_subcommand_takes_only_the_fields_it_reads(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    for command, (_, flags, file_keys) in SUBCOMMANDS.items():
        out = tmp_path / command
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0
        options = capsys.readouterr().out.split("--config keys:")[0]
        assert set(re.findall(r"--[a-z-]+", options)) == {
            "--help", "--config", "--out", *map(_flag, flags)
        }
        for field in _FIELDS:
            if field not in flags:
                with pytest.raises(SystemExit) as exc:
                    run([command, _flag(field), 1, "--out", out])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {_flag(field)}" in capsys.readouterr().err
            if field not in flags + file_keys:
                cfg.write_text(json.dumps({field: 1}))
                assert run([command, "--config", cfg, "--out", out]) == 2
                err = capsys.readouterr().err
                assert f"unknown config keys: {field} (for {command})" in err
        assert not out.exists()


def test_an_unread_flag_shows_the_subcommand_usage(tmp_path, capsys):
    for command, (_, flags, _) in SUBCOMMANDS.items():
        unread = next(f for f in _FIELDS if f not in flags)
        with pytest.raises(SystemExit) as exc:
            run([command, _flag(unread), 1, "--out", tmp_path / command])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: modeswitch {command} "), err
        assert err.endswith(f"error: unrecognized arguments: {_flag(unread)} 1\n"), err
    assert not any(tmp_path.iterdir())


def test_console_script_exits_2_on_an_unread_flag(tmp_path):
    # argparse exits through SystemExit; only a real process shows the code.
    src = str(Path(modeswitch.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = tmp_path / "rejected"
    result = subprocess.run(
        [sys.executable, "-m", "modeswitch.cli", "feasibility", "--delta", "1", "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 2
    assert "--delta" in result.stderr
    assert not out.exists()


def test_params_ratio_is_null_without_coupling_and_inf_past_a_double(tmp_path):
    # Valid, nearly uncoupled runs: W stays normal while |delta| / kappa0
    # overflows, and the README documents "inf" for it.
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"protocol": [[0.0, 1.0]]}))
    capped = tmp_path / "capped.json"
    capped.write_text(json.dumps({"delta": 1.7e308, "kappa": 1e-160, "max_segments": 1}))
    for i, (args, code, name, ratio) in enumerate(
        (
            (["simulate", "--kappa", 0, "--config", explicit], 0, "summary.json", "null"),
            (["simulate", "--delta=3", "--kappa=1e-320"], 0, "summary.json", '"inf"'),
            (["transfer-map", "--kappa=1e-320", "--grid", 4], 0, "summary.json", '"inf"'),
            (["plan", "--config", capped], 3, "plan.json", '"inf"'),
        )
    ):
        out = tmp_path / str(i)
        assert run(args + ["--out", out]) == code
        assert f'"ratio": {ratio}\n' in (out / name).read_text()


# Extreme but finite inputs: zero, subnormals, the normal range's ends,
# 1e+-300 and 1.7e308, of both signs, besides any finite double; kappa
# takes the magnitude, since a negative one fails at once.  JSON integers
# of 2**1024 and up, of both signs, fit no double and must exit 2.
_EXTREME = st.sampled_from(
    [0.0, 5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-160, 0.5, 1.0, 3.0, 1e160, 1e300,
     1.7e308]
)
_HUGE = st.integers(2**1024, 2**1100) | st.integers(-(2**1100), -(2**1024))
_REALS = (
    st.floats(allow_nan=False, allow_infinity=False) | _EXTREME | _EXTREME.map(lambda x: -x)
    | _HUGE
)
_PHASES = st.floats(-1e300, 1e300) | st.floats(-10.0, 10.0) | _HUGE
_UNIT = st.floats(0.0, 1.0) | st.sampled_from([5e-324, 1.0 - 2**-53, 1.0])
_STRATEGIES = {
    "delta": _REALS,
    "kappa": _REALS.map(abs),
    "phi": _PHASES,
    "theta1": _PHASES,
    "theta2": _PHASES,
    "rf_offset": _PHASES,
    "threshold": _UNIT | _REALS,
    "target": _UNIT | _REALS,
    "grid": st.integers(1, 8),
    "samples": st.integers(1, 16),
    "max_segments": st.integers(0, 64),
}
# Non-finite values the README documents: the params block's ratio and
# the isolator's contrast_db.
_NONFINITE = {"ratio": ("inf",), "contrast_db": ("inf", "-inf")}


@st.composite
def _cli_case(draw):
    """A subcommand, a config of its own fields, and one field it does not read."""
    command = draw(st.sampled_from([c for c in SUBCOMMANDS if c != "verify"]))
    _, flags, file_keys = SUBCOMMANDS[command]
    keys = draw(st.sets(st.sampled_from(flags + file_keys)))
    config = {k: draw(_STRATEGIES[k]) for k in sorted(keys - {"protocol"})}
    if "protocol" in keys:
        # At most 4 segments and W*T <= 20 rad keep the trajectory short.
        try:
            w = math.hypot(config.get("delta", 0.5), config.get("kappa", 1.0))
        except OverflowError:  # a _HUGE delta or kappa, refused before W is formed
            w = 1.0
        w = w if sys.float_info.min <= w < math.inf else 1.0
        pairs = draw(st.lists(st.tuples(_PHASES, st.floats(0.0, 5.0)), min_size=1, max_size=4))
        config["protocol"] = [[phase, min(wt / w, 1e308)] for phase, wt in pairs]
    unread = draw(st.sampled_from([f for f in _FIELDS if f not in flags + file_keys]))
    return command, config, unread


def _nonfinite(x, key=None):
    """(key, value) of each non-finite number in loaded JSON, bar the documented ones."""
    if isinstance(x, dict):
        return [bad for k, v in x.items() for bad in _nonfinite(v, k)]
    if isinstance(x, list):
        return [bad for v in x for bad in _nonfinite(v, key)]
    if isinstance(x, float) and not math.isfinite(x):
        return [(key, x)]
    if x in ("inf", "-inf", "nan") and x not in _NONFINITE.get(key, ()):
        return [(key, x)]
    return []


@given(_cli_case())
@example(("simulate", {"delta": 3.0, "kappa": 1e-320}, "grid"))
@example(("plan", {"delta": 1.7e308, "kappa": 1e-160, "max_segments": 1}, "phi"))
@example(("isolator", {"delta": 0.0, "kappa": 1e-200}, "threshold"))
@example(("simulate", {"delta": 10**400}, "grid"))
@example(("simulate", {"target": -(10**400)}, "grid"))
@example(("simulate", {"protocol": [[10**400, 1.0]]}, "grid"))
def test_cli_input_domain(case):
    command, config, unread = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for i, extra in enumerate(({}, {unread: 1})):
            path, out = tmp / f"cfg{i}.json", tmp / f"out{i}"
            path.write_text(json.dumps({**config, **extra}))
            argv = [command, "--config", str(path), "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
            assert code in ((2,) if extra else (0, 2, 3))
            if code == 2:
                assert not out.exists()
            for written in sorted(out.glob("*.json")):
                assert _nonfinite(json.loads(written.read_text())) == [], written.name
