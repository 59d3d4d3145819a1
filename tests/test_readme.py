"""The README's "Library quickstart" block runs as written, and what its
comments claim holds; its CLI lines and its table of each subcommand's
flags and config keys match the CLI; its W*T(k) table is what dive_plan
and speed_limit_wt give."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from modeswitch import CouplerParams, dive_plan, minimal_plan_search, speed_limit_wt
from modeswitch.cli import SUBCOMMANDS, build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_quickstart_runs_as_written():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quickstart_block(), str(README), "exec"), namespace)
    # "phase-flip protocol, exact"
    assert abs(namespace["sol"].achieved - 1.0) <= 1e-12
    # "4 segments, transfer ~ 1.0"
    assert len(namespace["plan"].protocol.segments) == 4
    printed = out.getvalue().splitlines()
    assert len(printed) == 2
    assert float(printed[0].split()[-1]) == namespace["sol"].achieved
    assert abs(float(printed[1]) - 1.0) <= 1e-12


def shell_lines() -> list[list[str]]:
    """Each line of the README's sh blocks as words, comments stripped."""
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    return [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]


def test_readme_cli_lines_parse_and_run(tmp_path, monkeypatch):
    lines = shell_lines()
    monkeypatch.chdir(tmp_path)
    [(echo, text, redirect, path)] = [line for line in lines if line[:1] == ["echo"]]
    assert redirect == ">"
    Path(path).write_text(text + "\n", encoding="utf-8")
    calls = [line[1:] for line in lines if line[:1] == ["modeswitch"]]
    assert {argv[0] for argv in calls} == set(SUBCOMMANDS)
    for argv in calls:
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README line does not parse: modeswitch {shlex.join(argv)}")
        # The battery takes seconds; test_cli and CI run it.
        if argv[0] != "verify":
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(argv) == 0, argv


def test_readme_cli_table_is_the_cli_surface():
    section = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    rows = re.findall(r"^\| `([a-z-]+)` \|(.*)\|(.*)\|$", section, re.MULTILINE)
    table = {
        name: (tuple(re.findall(r"`--([a-z-]+)`", flags)), tuple(re.findall(r"`(\w+)`", keys)))
        for name, flags, keys in rows
    }
    assert table == {
        name: (tuple(f.replace("_", "-") for f in flags), keys)
        for name, (_, flags, keys) in SUBCOMMANDS.items()
    }


def test_readme_wt_table_is_dive_plan_and_the_speed_limit():
    text = README.read_text(encoding="utf-8")
    rows = re.findall(r"^  \| (\d+) \| ([\d.]+) \| (\d+) \| (.*) \|$", text, re.MULTILINE)
    assert len(rows) == 2
    for ratio, p, k, cells in rows:
        params, p, k = CouplerParams(float(ratio), 1.0), float(p), int(k)
        assert len(minimal_plan_search(params, p).plan.protocol.segments) == k
        wts = [params.rabi * dive_plan(params, j, p).protocol.total_duration for j in range(k, k + 3)]
        want = [f"{x:.3f}" for x in wts + [speed_limit_wt(params, p)]]
        assert [c.strip() for c in cells.split("|")] == want


def paper_table() -> list[tuple[str, str, str, str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Paper to code", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (.*) \| (.*) \| (.*) \| (.*) \|$", section, re.MULTILINE)
    return [row for row in rows if row[0] != "Claim" and not row[0].startswith("---")]


def acceptance_labels() -> dict[int, str]:
    source = (README.parent / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    found = re.findall(r'announce\(\s*capsys, (\d), "([^"]+)"', source)
    return {int(index): label for index, label in found}


def test_paper_table_names_what_exists():
    """Each function of the paper-to-code table is exported, each battery
    check is in the battery's report, and each acceptance test exists."""
    import modeswitch
    from modeswitch.verify import battery_report, run_battery

    rows = paper_table()
    # One row per claim of the abstract.
    assert len(rows) == 6
    checks = {check["name"] for check in battery_report(run_battery(fast=True))["checks"]}
    labels = acceptance_labels()
    assert sorted(labels) == list(range(1, 8))
    for claim, functions, battery, acceptance in rows:
        names = re.findall(r"`(\w+)`", functions)
        assert names, claim
        assert all(callable(getattr(modeswitch, name, None)) for name in names), names
        named_checks = re.findall(r"`(\w+)`", battery)
        assert named_checks or battery == "none yet", claim
        assert set(named_checks) <= checks, named_checks
        if acceptance != "none":
            index, label = re.fullmatch(r"(\d)/7 (.+)", acceptance).groups()
            assert labels[int(index)] == label, acceptance
    # The switch-count bound has no battery check yet.
    [switches] = [row for row in rows if "`descent_bound`" in row[1]]
    assert "`min_switches_estimate`" in switches[1]
    assert switches[2] == "none yet"
