"""The README's library tour runs as written, so a documented name cannot
disappear from the package unnoticed, and it uses every name it imports.
Its table of verification checks names every registered check at its
default degree."""

import ast
import re
from pathlib import Path

from fcperm.checks import CHECKS

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README.md has no python block"
    return blocks[0]


def test_library_tour_runs():
    exec(compile(_tour(), "README.md", "exec"), {})


def test_library_tour_uses_every_name_it_imports():
    tree = ast.parse(_tour())
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_checks_table_lists_every_check_at_its_default_degree():
    rows = re.findall(r"^\| `([^`]+)` \| (\d+) \|", README.read_text(), re.MULTILINE)
    assert rows == [(name, str(degree)) for name, (degree, _) in CHECKS.items()]
