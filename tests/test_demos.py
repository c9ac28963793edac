import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs_cleanly(demo, tmp_path, monkeypatch, capsys):
    # the demos write their pictures into the current directory
    monkeypatch.chdir(tmp_path)
    try:
        runpy.run_path(str(demo), run_name="__main__")
    except SystemExit as exc:
        assert exc.code in (None, 0)
    assert capsys.readouterr().out
