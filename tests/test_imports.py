"""Every module-level import is used by the module that makes it, and every
private helper of the package is read somewhere in the package.

No linter ships with the package, so this parses each module of the package,
its tests and its scripts with ``ast`` and lists the names that a module-level
import binds but nothing in the module reads.  It also lists the private
(single-underscore) functions, classes and module- or class-level names that
the package defines but nothing in the package reads; check generators, which
the ``@check`` decorator registers, are exempt.  It lists the underscore names
that a package module or a script imports from a package module, at any
depth: a private helper is read only where it is defined.  It lists the test
modules that import ``subprocess``: only ``conftest.py`` may start a process.
It lists the bare ``return`` statements in check generators: a check that
cannot run at some configuration declares it (``needs_boost``) instead of
returning early.  Last, it lists the package lines outside
``operator_algebra`` that assign to an operator's ``terms`` or to an item of
them: operator term arithmetic lives in one module.
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


def _is_check_generator(node) -> bool:
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "check"
        for d in node.decorator_list
    )


def unread_private_helpers(sources: dict[str, str]) -> list[str]:
    """Private names that ``sources`` define and none of ``sources`` reads."""
    defined, read = {}, set()
    for name, source in sources.items():
        tree = ast.parse(source)
        scopes = [tree] + [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
        for scope in scopes:
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    if not _is_check_generator(node):
                        defined.setdefault(node.name, f"{name}:{node.lineno}")
                targets = node.targets if isinstance(node, ast.Assign) else []
                if isinstance(node, ast.AnnAssign) and node.value is not None:
                    targets = [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.setdefault(target.id, f"{name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [
        f"{helper} ({where})"
        for helper, where in defined.items()
        if helper.startswith("_") and not helper.startswith("__") and helper not in read
    ]


def test_helper_scanner_finds_an_unread_helper():
    sources = {
        "a.py": "_used = 1\n_dead = 2\ndef _gone(): pass\nclass K:\n    _k = 3\n",
        "b.py": "from a import _used\n"
        "@check('x.y', 1e-12, 'ref')\ndef _registered(rng, cfg): yield 0.0\n"
        "print(_used, K()._k)\n",
    }
    assert unread_private_helpers(sources) == ["_dead (a.py:2)", "_gone (a.py:3)"]


def test_every_private_helper_is_read():
    package = sorted((ROOT / "src/twistkit").glob("*.py"))
    sources = {path.name: path.read_text(encoding="utf-8") for path in package}
    assert unread_private_helpers(sources) == []


def private_package_imports(source: str) -> list[str]:
    """``name (line N)`` for each underscore name that ``source`` imports from
    a twistkit module, at module level or inside a function."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").partition(".")[0] == "twistkit")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_private_import_scanner_finds_every_package_import():
    source = (
        "from __future__ import annotations\nfrom numpy.linalg import _umath_linalg\n"
        "from .actions import _deriv2, bilinear_integral\n"
        "from twistkit.cli import UsageError\n"
        "def f():\n    from twistkit.geometries import _GeometryBase as Base\n"
        "    from . import _private_module\n"
    )
    assert private_package_imports(source) == [
        "_deriv2 (line 3)", "_GeometryBase (line 6)", "_private_module (line 7)"
    ]


@pytest.mark.parametrize(
    "path",
    [path for path in MODULES if path.parent.name != "tests"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_no_private_import_across_package_modules(path):
    assert private_package_imports(path.read_text(encoding="utf-8")) == []


def subprocess_imports(source: str) -> list[int]:
    """Lines of ``source`` that import ``subprocess`` or one of its names."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import)
        and any(alias.name.partition(".")[0] == "subprocess" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").partition(".")[0] == "subprocess"
    ]


def test_spawn_scanner_finds_every_subprocess_import():
    source = "import os, subprocess\ndef f():\n    from subprocess import run\n"
    assert subprocess_imports(source) == [1, 3]


def test_only_conftest_starts_processes():
    spawning = [
        path.name
        for path in sorted((ROOT / "tests").glob("*.py"))
        if subprocess_imports(path.read_text(encoding="utf-8"))
    ]
    assert spawning == ["conftest.py"]


def bare_returns_in_checks(source: str) -> list[str]:
    """``name:line`` of each bare ``return`` in a function registered with ``@check``."""
    return [
        f"{node.name}:{ret.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.FunctionDef) and _is_check_generator(node)
        for ret in ast.walk(node)
        if isinstance(ret, ast.Return) and ret.value is None
    ]


def test_return_scanner_finds_a_bare_return_in_a_check():
    source = (
        "@check('x.y', 1e-12, 'ref')\ndef _skips(rng, cfg):\n"
        "    if cfg.rapidity_max == 0:\n        return\n    yield 0.0\n"
        "@check('x.z', 1e-12, 'ref')\ndef _ends(rng, cfg):\n    yield 0.0\n    return 0.0\n"
        "def _helper():\n    return\n"
    )
    assert bare_returns_in_checks(source) == ["_skips:4"]


def test_check_skips_are_declared():
    source = (ROOT / "src/twistkit/checks.py").read_text(encoding="utf-8")
    assert bare_returns_in_checks(source) == []


def _writes_terms(target) -> bool:
    """Whether an assignment target is ``x.terms``, an item of it, or an
    item of an item, at any depth; tuple targets are searched too."""
    if isinstance(target, (ast.Tuple, ast.List)):
        return any(_writes_terms(t) for t in target.elts)
    if isinstance(target, ast.Starred):
        return _writes_terms(target.value)
    while isinstance(target, ast.Subscript):
        target = target.value
    return isinstance(target, ast.Attribute) and target.attr == "terms"


def term_writes(source: str) -> list[int]:
    """Lines of ``source`` that assign to an operator's ``.terms`` or to an
    item of it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(_writes_terms(t) for t in targets):
            lines.append(node.lineno)
    return sorted(lines)


def test_term_write_scanner_finds_every_write():
    source = (
        "out.terms = {}\nout.terms[key] = g\nout.terms[key][0, 1] += 1.0\n"
        "a, op.terms = 1, {}\nx: dict = op.terms\nterms[key] = g\nterms = op.terms\n"
        "op.other = 1\ndef f():\n    self.terms: dict = {}\na, *op.terms = 1, 2\n"
    )
    assert term_writes(source) == [1, 2, 3, 4, 10, 11]


@pytest.mark.parametrize(
    "path",
    [p for p in sorted((ROOT / "src/twistkit").glob("*.py")) if p.name != "operator_algebra.py"],
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_operator_terms_are_written_only_in_operator_algebra(path):
    """Operator term arithmetic has one home, ``operator_algebra``: no other
    package module writes an operator's terms."""
    assert term_writes(path.read_text(encoding="utf-8")) == []
