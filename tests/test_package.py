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


def _names_defined(statement) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = getattr(statement, "targets", None) or [getattr(statement, "target", None)]
    return [target.id for target in targets if isinstance(target, ast.Name)]


def _names_read(node) -> set[str]:
    return {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(node)
        if isinstance(child, ast.Attribute)
        or (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load))
    }


def test_every_private_module_name_is_read():
    # a deletion can leave a private helper behind with no reader; a helper
    # read only inside its own definition, such as by recursion, has none
    statements = [
        (path.name, statement)
        for path in sorted(Path(fcperm.__file__).parent.glob("*.py"))
        for statement in ast.parse(path.read_text(), filename=str(path)).body
    ]
    reads = [_names_read(statement) for _, statement in statements]
    unread = [
        f"{module}:{statement.lineno} {name}"
        for k, (module, statement) in enumerate(statements)
        for name in _names_defined(statement)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and not any(name in read for j, read in enumerate(reads) if j != k)
    ]
    assert not unread, unread


# the memos that live as long as the process, each a table built from its
# arguments alone; every other memo is made inside the call that reads it
PROCESS_MEMOS = {
    ("weak_order.py", "_stamps"): "one stamp table per tail length, read by every walk",
    ("cli.py", "_parser"): "building the parser costs some thirty times what parsing does",
}


def _is_memo(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
    return name in ("cache", "lru_cache")


def _outside_function_bodies(node):
    """Every node under ``node`` that runs when its module or class body
    does, down to the function definitions, whose bodies run later."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _outside_function_bodies(child)


def test_no_memo_outlives_the_call():
    # a cache made at import time keeps every answer for the whole process
    process_memos, outliving = set(), []
    for path in sorted(Path(fcperm.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in _outside_function_bodies(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                _is_memo(decorator) for decorator in node.decorator_list
            ):
                if (path.name, node.name) in PROCESS_MEMOS:
                    process_memos.add((path.name, node.name))
                else:
                    outliving.append(f"{path.name}:{node.lineno} @{node.name}")
            elif isinstance(node, ast.Call) and _is_memo(node.func):
                outliving.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not outliving, outliving
    assert process_memos == set(PROCESS_MEMOS)


def test_cli_prints_no_line_inside_a_loop():
    # under PYTHONUNBUFFERED each print is a write call of its own, so a
    # listing printed line by line makes one system call per line; listings
    # go through cli._write_lines, which writes them in batches
    tree = ast.parse((Path(fcperm.__file__).parent / "cli.py").read_text())
    loops = (ast.For, ast.AsyncFor, ast.While)
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    looped = [
        node
        for loop in ast.walk(tree)
        if isinstance(loop, loops + comprehensions)
        for part in (loop.body if isinstance(loop, loops) else [loop])
        for node in ast.walk(part)
    ]
    prints = [
        f"cli.py:{node.lineno}"
        for node in looped
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
    ]
    assert not prints, prints
