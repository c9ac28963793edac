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


def test_tableau_growth_demo_prints_the_transition(capsys):
    runpy.run_path(str(DEMOS[0].with_name("tableau_growth_along_covers.py")), run_name="__main__")
    assert capsys.readouterr().out == (
        "a chain core < v < w in the right weak order:\n"
        "  core  41263785   P = 1,2,3,5,8/4,6,7    uncrowded\n"
        "  v     41623785   P = 1,2,3,5,8/4,6,7    uncrowded\n"
        "  w     41627385   P = 1,2,3,5/4,6,7,8    crowded\n"
        "\n"
        "P stays equal from core to v, then changes at the step v -> w = v*s_5.\n"
        "prefix max / suffix min around the swap: 6, 5\n"
        "they straddle the swapped pair as a 3142 occurrence at positions (3, 5, 6, 8)\n"
        "value moved into row 2: 8\n"
        "window [6, 8] now holds 3 second-row entries, one too many\n"
        "witness window reported by classify: [6, 7, 8]\n"
    )
