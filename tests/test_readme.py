"""The README's library tour runs as written, so a documented name cannot
disappear from the package unnoticed."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert blocks, "README.md has no python block"
    exec(compile(blocks[0], "README.md", "exec"), {})
