"""Rules the package's source keeps.

No BLAS-rounded product reaches an output.  np.dot and its relatives
round in numpy's dot kernel, whose bits may change with the numpy build
and the CPU, and which a column of cases cannot replay.  The package sums
its 3-vector products in geometry._dot and geometry._cross instead; this
scan keeps the others out of it.

The battery checks the cascade the CLI runs: verify imports only public
names from isolator, so no private twin of a public function can stand
in for it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "modeswitch"
FORBIDDEN = ("np.dot(", ".dot(", "np.vdot(", "np.inner(", "np.cross(", "np.linalg.norm(")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_blas_rounded_product(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    found = [
        f"{path.name}:{number}: {call}"
        for number, line in enumerate(lines, 1)
        for call in FORBIDDEN
        if call in line
    ]
    assert not found


def test_the_scan_sees_the_package():
    assert {"geometry.py", "verify.py"} <= {path.name for path in SRC.glob("*.py")}


def test_verify_imports_no_private_isolator_name():
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("isolator", "modeswitch.isolator")
        for alias in node.names
    ]
    assert "cross_power" in imported
    assert [name for name in imported if name.startswith("_")] == []
