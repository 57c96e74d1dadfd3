"""The package imports nothing beyond the standard library and the
dependencies `pyproject.toml` declares (numpy, pyyaml)."""

import ast
import pathlib
import sys

DECLARED = {"numpy", "yaml", "gsfusion"}
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gsfusion"


def test_package_imports_only_declared_dependencies():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths, f"no modules found under {PACKAGE}"
    undeclared = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            undeclared += [f"{path.name}:{node.lineno} imports {m}" for m in modules
                           if m.split(".")[0] not in sys.stdlib_module_names | DECLARED]
    assert not undeclared, undeclared
