import ast
import inspect
from pathlib import Path

import fcperm


def test_exports_are_classes_and_functions():
    # CHECKS, the registry of named checks, is the one exported table
    for name in fcperm.__all__:
        value = getattr(fcperm, name)
        assert inspect.isclass(value) or inspect.isfunction(value) or name == "CHECKS", name


def test_exports_list_every_public_name_once():
    public = {
        name
        for name, value in vars(fcperm).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(fcperm.__all__) == len(set(fcperm.__all__))
    assert set(fcperm.__all__) == public


def test_library_has_no_assert_statements():
    # python -O strips assert, so a self-check written as one would vanish;
    # the library raises instead (doctests are strings, not statements)
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(fcperm.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


def test_checks_import_no_private_name():
    # the checks test the library through its public surface
    tree = ast.parse((Path(fcperm.__file__).parent / "checks.py").read_text())
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("fcperm"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, private


def test_modules_read_every_name_they_import():
    # no linter runs here, and a removal can leave an import behind
    unread = []
    for path in sorted(Path(fcperm.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unread += [
            f"{path.name}:{node.lineno} {bound}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (bound := (alias.asname or alias.name).partition(".")[0]) not in read
        ]
    assert not unread, unread
