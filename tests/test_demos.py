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


def test_census_demo_prints_the_census(capsys):
    runpy.run_path(str(DEMOS[0].with_name("minimal_crowded_census.py")), run_name="__main__")
    all_true = (
        "{'descent_form': True, 'descent_values_crowded': True, 'fixed_outside': True,"
        " 'pattern_consecutive': True, 'window_patterns': True}"
    )
    assert capsys.readouterr().out == (
        "S_3:    0 minimal crowded,          0 crowded,          5 fully commutative\n"
        "S_4:    0 minimal crowded,          0 crowded,         14 fully commutative\n"
        "S_5:    0 minimal crowded,          0 crowded,         42 fully commutative\n"
        "S_6:    1 minimal crowded,          5 crowded,        132 fully commutative\n"
        "S_7:    2 minimal crowded,         28 crowded,        429 fully commutative\n"
        "S_8:    6 minimal crowded,        168 crowded,      1,430 fully commutative\n"
        "S_9:   10 minimal crowded,        780 crowded,      4,862 fully commutative\n"
        "S_10:  21 minimal crowded,      3,627 crowded,     16,796 fully commutative\n"
        "S_11:  32 minimal crowded,     15,576 crowded,     58,786 fully commutative\n"
        "S_12:  58 minimal crowded,     66,341 crowded,    208,012 fully commutative\n"
        "S_13:  84 minimal crowded,    273,507 crowded,    742,900 fully commutative\n"
        "S_14: 141 minimal crowded,  1,118,455 crowded,  2,674,440 fully commutative\n"
        "S_15: 198 minimal crowded,  4,502,436 crowded,  9,694,845 fully commutative\n"
        "S_16: 318 minimal crowded, 18,010,832 crowded, 35,357,670 fully commutative\n"
        "\n"
        "the minimal crowded elements of S_8, with their condition reports:\n"
        f"  12637485  row2 = [6, 7, 8]  {all_true}\n"
        f"  15263748  row2 = [5, 6, 7]  {all_true}\n"
        f"  31627485  row2 = [3, 6, 7, 8]  {all_true}\n"
        f"  41526378  row2 = [4, 5, 6]  {all_true}\n"
        f"  41527386  row2 = [4, 5, 7, 8]  {all_true}\n"
        f"  41627385  row2 = [4, 6, 7, 8]  {all_true}\n"
    )
