"""Every module-level function and class of the package, and every method
and property of its classes, has a caller.

A definition in ``src/repcur`` must be named, as an AST ``Name`` or
``Attribute``, in the package itself (outside ``__init__.py``, whose
re-exports call nothing), in the benchmark (``perfbench/*.py``) or in the
tools (``tools/*.py``).  A method or property must be named there as an
``Attribute`` outside its own body.  The tests do not count: code that only
a test calls belongs with the tests, in ``tests/reference.py``.  Nor do
docstrings, which are strings to ``ast``.  Click commands and groups are
exempt, since their decorator registers them; so are dunder methods, which
Python calls, and an override that calls ``super()`` under its own name,
which its base class calls.

Methods are matched by name alone, so a method escapes the scan when a
method of another class shares its name and has a caller: ``Mat.scale`` and
``Mat.identity`` hid the test-only ``InvariantTensor.scale`` and
``Permutation.identity`` until they were removed.  The names still shared
(``dim``, ``is_zero``, and ``scale`` of ``Mat`` and ``Poly``) were checked
by reading: every class's method has a caller in the package.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _registered(node) -> bool:
    """Whether a ``.command(...)`` or ``.group(...)`` decorator registers the definition."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in node.decorator_list
    )


def _names(node) -> set:
    """The identifiers that ``node`` names as a ``Name`` or an ``Attribute``."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def unnamed_definitions(package: Path, users: list) -> list:
    """``module.name`` of each module-level function or class in the
    ``package`` directory that is named nowhere outside its own body: not
    in the package's modules but ``__init__.py``, nor in the files
    ``users``."""
    modules = {p: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    trees = [tree for p, tree in modules.items() if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text(), str(p)) for p in users]
    statements = [(stmt, _names(stmt)) for tree in trees for stmt in tree.body]
    return [
        f"{path.stem}.{node.name}"
        for path, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not _registered(node)
        and not any(node.name in names for stmt, names in statements if stmt is not node)
    ]


def _attributes(node) -> Counter:
    """How often ``node`` names each identifier as an ``Attribute``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _exempt_method(node) -> bool:
    """A dunder method, or an override that calls ``super().<its name>``."""
    if node.name.startswith("__") and node.name.endswith("__"):
        return True
    return any(
        isinstance(n, ast.Attribute) and n.attr == node.name
        and isinstance(n.value, ast.Call) and getattr(n.value.func, "id", None) == "super"
        for n in ast.walk(node)
    )


def unnamed_methods(package: Path, users: list) -> list:
    """``module.Class.name`` of each method or property of a class in the
    ``package`` directory that is named as an ``Attribute`` nowhere outside
    its own body, counting the same files as ``unnamed_definitions``."""
    modules = {p: ast.parse(p.read_text(), str(p)) for p in sorted(package.glob("*.py"))}
    trees = [tree for p, tree in modules.items() if p.name != "__init__.py"]
    trees += [ast.parse(p.read_text(), str(p)) for p in users]
    named = sum(map(_attributes, trees), Counter())
    return [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in modules.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not _exempt_method(node)
        and named[node.name] == _attributes(node)[node.name]
    ]


def _users() -> list:
    return sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def test_every_definition_in_the_package_is_named_outside_the_tests():
    assert unnamed_definitions(ROOT / "src" / "repcur", _users()) == []


def test_every_method_in_the_package_is_named_outside_the_tests():
    assert unnamed_methods(ROOT / "src" / "repcur", _users()) == []


def test_unnamed_definitions_are_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import dead, Dead, used\n")
    (package / "core.py").write_text(
        '"""Mentions dead and Dead in a docstring."""\n'
        "import click\n\n"
        "def dead():\n    return dead\n\n"
        "class Dead:\n    pass\n\n"
        "def used():\n    pass\n\n"
        "def reached():\n    pass\n\n"
        "@click.group()\ndef main():\n    pass\n\n"
        '@main.command("run")\ndef run_cmd():\n    used()\n'
    )
    caller = tmp_path / "caller.py"
    caller.write_text("import pkg.core\npkg.core.reached()\n")
    # ``dead`` names only itself; the docstring and __init__.py do not count
    assert unnamed_definitions(package, [caller]) == ["core.dead", "core.Dead"]
    assert unnamed_definitions(package, []) == ["core.dead", "core.Dead", "core.reached"]


def test_unnamed_methods_are_found(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .core import Thing\n")
    (package / "core.py").write_text(
        "import click\n\n"
        "class Thing:\n"
        "    def __init__(self):\n        self.used()\n\n"
        "    def used(self):\n        pass\n\n"
        "    def recursive(self):\n        return self.recursive()\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def reached(self):\n        pass\n\n"
        "class Group(click.Group):\n"
        "    def invoke(self, ctx):\n        return super().invoke(ctx)\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("import pkg.core\npkg.core.Thing().reached()\n")
    # ``recursive`` names only itself; dunders and super() overrides are exempt
    assert unnamed_methods(package, [caller]) == ["core.Thing.recursive", "core.Thing.size"]
    assert unnamed_methods(package, []) == [
        "core.Thing.recursive", "core.Thing.size", "core.Thing.reached"
    ]
