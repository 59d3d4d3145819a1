"""Rules the package's source keeps.

No BLAS-rounded product reaches an output.  np.dot and its relatives
round in numpy's dot kernel, whose bits may change with the numpy build
and the CPU, and which a column of cases cannot replay.  The package sums
its 3-vector products in geometry._dot and geometry._cross instead; this
scan keeps the others out of it.

numpy is the one runtime dependency: no module imports scipy, at module
level or inside a function, so every command, the battery's expm
reference included, runs where scipy is not installed.

The battery checks the functions the CLI runs: verify imports only public
names from isolator, and none of the SU(2) kernel's private names from
dynamics, so no private twin of a public function can stand in for it.
Its segments come from the public segment_propagator."""

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


def _imports(path):
    """The modules a source file imports, at module level or in a function."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_no_scipy_import(path):
    modules = list(_imports(path))
    assert modules
    assert [name for name in modules if name.split(".")[0] == "scipy"] == []


def test_the_scan_sees_the_package():
    assert {"geometry.py", "verify.py"} <= {path.name for path in SRC.glob("*.py")}


def _verify_imports(module):
    tree = ast.parse((SRC / "verify.py").read_text(encoding="utf-8"))
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in (module, f"modeswitch.{module}")
        for alias in node.names
    ]


def test_verify_imports_no_private_isolator_name():
    imported = _verify_imports("isolator")
    assert "cross_power" in imported
    assert [name for name in imported if name.startswith("_")] == []


KERNEL = ("_segment", "_compose", "_apply", "_matrix", "_complexes", "_turn", "_unitarity_defect")


def test_verify_reaches_the_kernel_through_public_functions():
    imported = _verify_imports("dynamics")
    assert "segment_propagator" in imported
    assert [name for name in imported if name in KERNEL] == []
