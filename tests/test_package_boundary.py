"""The package stands alone: nothing under ``src/repro`` imports the tests.

Test oracles live in ``tests/oracles/`` and are imported by the parity
suites only; production code must never reach for them.
"""

import ast
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def _imported_modules(path: Path) -> set[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            modules.add(node.module)
    return modules


def test_no_package_module_imports_tests():
    offenders = {
        str(path.relative_to(PACKAGE_ROOT)): sorted(
            name
            for name in _imported_modules(path)
            if name == "tests" or name.startswith("tests.")
        )
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
    }
    assert {path: names for path, names in offenders.items() if names} == {}
