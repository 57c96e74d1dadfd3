"""The package imports nothing beyond the standard library and the
dependencies `pyproject.toml` declares (numpy, pyyaml), and the tests
nothing beyond those, its `test` extra (pytest, hypothesis), the package
and their own modules."""

import ast
import pathlib
import sys

DECLARED = {"numpy", "yaml", "gsfusion"}
TEST_EXTRA = {"pytest", "hypothesis"}
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "gsfusion"
TESTS = pathlib.Path(__file__).resolve().parent


def _undeclared_imports(paths, allowed):
    """`file:line imports module` for every absolute import in `paths`
    whose top-level name is neither in the standard library nor in
    `allowed`."""
    assert paths, "no modules found"
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
                           if m.split(".")[0] not in sys.stdlib_module_names | allowed]
    return undeclared


def test_package_imports_only_declared_dependencies():
    undeclared = _undeclared_imports(sorted(PACKAGE.glob("*.py")), DECLARED)
    assert not undeclared, undeclared


def test_tests_import_only_declared_dependencies():
    # scipy, say, is often installed but is not declared
    paths = sorted(TESTS.glob("*.py"))
    own = {path.stem for path in paths}
    undeclared = _undeclared_imports(paths, DECLARED | TEST_EXTRA | own)
    assert not undeclared, undeclared


def test_package_has_no_unused_imports():
    """Every name a module imports is used in it or listed in its
    `__all__`. An AST check, as no linter is a dependency."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used, exported = {}, set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                exported |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} imports {name}" for name, line in imported.items()
                   if name not in used | exported]
    assert not unused, unused
