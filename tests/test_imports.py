"""Every module-level import is used by the module that makes it.

No linter ships with the package, so this parses each module of the package,
its tests and its scripts with ``ast`` and lists the names that a module-level
import binds but nothing in the module reads.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    path
    for folder in ("src/twistkit", "tests", "scripts")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_scanner_finds_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau as t\nprint(sys.argv, t)\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def test_scanner_binds_a_dotted_import_to_its_first_name():
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
