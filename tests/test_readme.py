"""The README's "Library quickstart" block runs as written, and what its
comments claim holds."""

import contextlib
import io
import re
from pathlib import Path

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
