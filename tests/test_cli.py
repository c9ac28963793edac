import importlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcperm.checks
import fcperm.cli
import fcperm.crowding
import fcperm.heaps
import fcperm.weak_order
from fcperm import Permutation, classify, fc_elements, rsk
from fcperm.cli import FILTERS, main
from fcperm.crowding import InvariantViolation
from fcperm.weak_order import DEFAULT_POSET_BOUND
from fcperm.words import evaluate_word, word_from_text

from conftest import (
    brute_avoids_321, brute_has_pattern, crowding_census_by_dp, fcperm_env, loose_fc_covers,
    prefix_walk_fc, wide_scan_is_uncrowded,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class _CountingStream(io.StringIO):
    """A stdout that counts its write calls."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


# `analyze` output, exactly: minimal crowded, uncrowded, crowded but not
# minimal (a descent set of the wrong form, so the crowded-values condition
# reads the second row), not fully commutative, the identity of S_1, and
# degree 10 in comma form
ANALYZE_TEXT = {
    "41627385": (
        "permutation:        4,1,6,2,7,3,8,5",
        "length:             9",
        "descents:           [1, 3, 5, 7]",
        "support:            [1, 2, 3, 4, 5, 6, 7]",
        "fully commutative:  True",
        "boolean:            False",
        "P tableau:          1,2,3,5/4,6,7,8",
        "Q tableau:          1,3,5,7/2,4,6,8",
        "boolean core:       4,1,2,6,3,7,8,5",
        "core word:          3215467",
        "row 2:              [4, 6, 7, 8]",
        "classification:     crowded (window [6, 7, 8], x=1, y=6)",
        "minimal crowded:    True",
        "  descent_form: True",
        "  descent_values_crowded: True",
        "  fixed_outside: True",
        "  pattern_consecutive: True",
        "  window_patterns: True",
    ),
    "41623785": (
        "permutation:        4,1,6,2,3,7,8,5",
        "length:             8",
        "descents:           [1, 3, 7]",
        "support:            [1, 2, 3, 4, 5, 6, 7]",
        "fully commutative:  True",
        "boolean:            False",
        "P tableau:          1,2,3,5,8/4,6,7",
        "Q tableau:          1,3,5,6,7/2,4,8",
        "boolean core:       4,1,2,6,3,7,8,5",
        "core word:          3215467",
        "row 2:              [4, 6, 7]",
        "classification:     uncrowded",
        "minimal crowded:    False",
        "  descent_form: False",
        "  descent_values_crowded: False",
        "  fixed_outside: False",
        "  pattern_consecutive: False",
        "  window_patterns: False",
    ),
    "41527836": (
        "permutation:        4,1,5,2,7,8,3,6",
        "length:             9",
        "descents:           [1, 3, 6]",
        "support:            [1, 2, 3, 4, 5, 6, 7]",
        "fully commutative:  True",
        "boolean:            False",
        "P tableau:          1,2,3,6/4,5,7,8",
        "Q tableau:          1,3,5,6/2,4,7,8",
        "boolean core:       4,1,2,5,7,3,8,6",
        "core word:          3214657",
        "row 2:              [4, 5, 7, 8]",
        "classification:     crowded (window [4, 5, 7, 8], x=2, y=4)",
        "minimal crowded:    False",
        "  descent_form: False",
        "  descent_values_crowded: True",
        "  fixed_outside: False",
        "  pattern_consecutive: False",
        "  window_patterns: False",
    ),
    "4321": (
        "permutation:        4,3,2,1",
        "length:             6",
        "descents:           [1, 2, 3]",
        "support:            [1, 2, 3]",
        "fully commutative:  False",
        "boolean:            False",
        "P tableau:          1/2/3/4",
        "Q tableau:          1/2/3/4",
    ),
    "1": (
        "permutation:        1",
        "length:             0",
        "descents:           []",
        "support:            []",
        "fully commutative:  True",
        "boolean:            True",
        "P tableau:          1",
        "Q tableau:          1",
        "boolean core:       1",
        "core word:          ",
        "row 2:              []",
        "classification:     uncrowded",
        "minimal crowded:    False",
        "  descent_form: False",
        "  descent_values_crowded: False",
        "  fixed_outside: False",
        "  pattern_consecutive: False",
        "  window_patterns: False",
    ),
    "10,1,2,3,4,5,6,7,8,9": (
        "permutation:        10,1,2,3,4,5,6,7,8,9",
        "length:             9",
        "descents:           [1]",
        "support:            [1, 2, 3, 4, 5, 6, 7, 8, 9]",
        "fully commutative:  True",
        "boolean:            True",
        "P tableau:          1,2,3,4,5,6,7,8,9/10",
        "Q tableau:          1,3,4,5,6,7,8,9,10/2",
        "boolean core:       10,1,2,3,4,5,6,7,8,9",
        "core word:          987654321",
        "row 2:              [10]",
        "classification:     uncrowded",
        "minimal crowded:    False",
        "  descent_form: False",
        "  descent_values_crowded: False",
        "  fixed_outside: False",
        "  pattern_consecutive: False",
        "  window_patterns: False",
    ),
}
ANALYZE_JSON = {
    "41627385": {
        "permutation": "4,1,6,2,7,3,8,5",
        "n": 8,
        "length": 9,
        "descents": [1, 3, 5, 7],
        "support": [1, 2, 3, 4, 5, 6, 7],
        "fully_commutative": True,
        "boolean": False,
        "p_tableau": {"rows": [[1, 2, 3, 5], [4, 6, 7, 8]]},
        "q_tableau": {"rows": [[1, 3, 5, 7], [2, 4, 6, 8]]},
        "core": "4,1,2,6,3,7,8,5",
        "core_word": [3, 2, 1, 5, 4, 6, 7],
        "row2": [4, 6, 7, 8],
        "classification": {
            "verdict": "crowded",
            "row2": [4, 6, 7, 8],
            "witness": {"x": 1, "y": 6, "window": [6, 7, 8]},
        },
        "minimal_crowded": {
            "w": "4,1,6,2,7,3,8,5",
            "minimal": True,
            "conditions": {
                "descent_form": True,
                "descent_values_crowded": True,
                "fixed_outside": True,
                "pattern_consecutive": True,
                "window_patterns": True,
            },
            "descent_start": 1,
            "descent_count": 3,
            "row2": [4, 6, 7, 8],
        },
    },
    "41623785": {
        "permutation": "4,1,6,2,3,7,8,5",
        "n": 8,
        "length": 8,
        "descents": [1, 3, 7],
        "support": [1, 2, 3, 4, 5, 6, 7],
        "fully_commutative": True,
        "boolean": False,
        "p_tableau": {"rows": [[1, 2, 3, 5, 8], [4, 6, 7]]},
        "q_tableau": {"rows": [[1, 3, 5, 6, 7], [2, 4, 8]]},
        "core": "4,1,2,6,3,7,8,5",
        "core_word": [3, 2, 1, 5, 4, 6, 7],
        "row2": [4, 6, 7],
        "classification": {"verdict": "uncrowded", "row2": [4, 6, 7]},
        "minimal_crowded": {
            "w": "4,1,6,2,3,7,8,5",
            "minimal": False,
            "conditions": {
                "descent_form": False,
                "descent_values_crowded": False,
                "fixed_outside": False,
                "pattern_consecutive": False,
                "window_patterns": False,
            },
            "descent_start": None,
            "descent_count": None,
            "row2": [4, 6, 7],
        },
    },
    "41527836": {
        "permutation": "4,1,5,2,7,8,3,6",
        "n": 8,
        "length": 9,
        "descents": [1, 3, 6],
        "support": [1, 2, 3, 4, 5, 6, 7],
        "fully_commutative": True,
        "boolean": False,
        "p_tableau": {"rows": [[1, 2, 3, 6], [4, 5, 7, 8]]},
        "q_tableau": {"rows": [[1, 3, 5, 6], [2, 4, 7, 8]]},
        "core": "4,1,2,5,7,3,8,6",
        "core_word": [3, 2, 1, 4, 6, 5, 7],
        "row2": [4, 5, 7, 8],
        "classification": {
            "verdict": "crowded",
            "row2": [4, 5, 7, 8],
            "witness": {"x": 2, "y": 4, "window": [4, 5, 7, 8]},
        },
        "minimal_crowded": {
            "w": "4,1,5,2,7,8,3,6",
            "minimal": False,
            "conditions": {
                "descent_form": False,
                "descent_values_crowded": True,
                "fixed_outside": False,
                "pattern_consecutive": False,
                "window_patterns": False,
            },
            "descent_start": None,
            "descent_count": None,
            "row2": [4, 5, 7, 8],
        },
    },
    "4321": {
        "permutation": "4,3,2,1",
        "n": 4,
        "length": 6,
        "descents": [1, 2, 3],
        "support": [1, 2, 3],
        "fully_commutative": False,
        "boolean": False,
        "p_tableau": {"rows": [[1], [2], [3], [4]]},
        "q_tableau": {"rows": [[1], [2], [3], [4]]},
    },
    "1": {
        "permutation": "1",
        "n": 1,
        "length": 0,
        "descents": [],
        "support": [],
        "fully_commutative": True,
        "boolean": True,
        "p_tableau": {"rows": [[1]]},
        "q_tableau": {"rows": [[1]]},
        "core": "1",
        "core_word": [],
        "row2": [],
        "classification": {"verdict": "uncrowded", "row2": []},
        "minimal_crowded": {
            "w": "1",
            "minimal": False,
            "conditions": {
                "descent_form": False,
                "descent_values_crowded": False,
                "fixed_outside": False,
                "pattern_consecutive": False,
                "window_patterns": False,
            },
            "descent_start": None,
            "descent_count": None,
            "row2": [],
        },
    },
    "10,1,2,3,4,5,6,7,8,9": {
        "permutation": "10,1,2,3,4,5,6,7,8,9",
        "n": 10,
        "length": 9,
        "descents": [1],
        "support": [1, 2, 3, 4, 5, 6, 7, 8, 9],
        "fully_commutative": True,
        "boolean": True,
        "p_tableau": {"rows": [[1, 2, 3, 4, 5, 6, 7, 8, 9], [10]]},
        "q_tableau": {"rows": [[1, 3, 4, 5, 6, 7, 8, 9, 10], [2]]},
        "core": "10,1,2,3,4,5,6,7,8,9",
        "core_word": [9, 8, 7, 6, 5, 4, 3, 2, 1],
        "row2": [10],
        "classification": {"verdict": "uncrowded", "row2": [10]},
        "minimal_crowded": {
            "w": "10,1,2,3,4,5,6,7,8,9",
            "minimal": False,
            "conditions": {
                "descent_form": False,
                "descent_values_crowded": False,
                "fixed_outside": False,
                "pattern_consecutive": False,
                "window_patterns": False,
            },
            "descent_start": None,
            "descent_count": None,
            "row2": [10],
        },
    },
}


class TestAnalyze:
    def test_text_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "41627385")
        assert code == 0
        assert "1,2,3,5/4,6,7,8" in out
        assert "crowded" in out
        assert "minimal crowded:    True" in out

    def test_uncrowded_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "41623785")
        assert code == 0
        assert "uncrowded" in out
        assert "4,1,2,6,3,7,8,5" in out  # the boolean core

    def test_identity(self, capsys):
        code, out, _ = run(capsys, "analyze", "1")
        assert code == 0 and "uncrowded" in out

    def test_non_fc_gets_a_basic_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "4321")
        assert code == 0
        assert "fully commutative:  False" in out
        assert "boolean core" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "41627385", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["p_tableau"] == {"rows": [[1, 2, 3, 5], [4, 6, 7, 8]]}
        assert blob["classification"]["witness"]["window"] == [6, 7, 8]
        assert blob["minimal_crowded"]["minimal"] is True
        assert json.loads(json.dumps(blob)) == blob

    @pytest.mark.parametrize("permutation", list(ANALYZE_TEXT))
    def test_text_golden(self, capsys, permutation):
        expected = "\n".join(ANALYZE_TEXT[permutation]) + "\n"
        assert run(capsys, "analyze", permutation) == (0, expected, "")

    @pytest.mark.parametrize("permutation", list(ANALYZE_JSON))
    def test_json_golden(self, capsys, permutation):
        expected = json.dumps(ANALYZE_JSON[permutation], indent=2) + "\n"
        assert run(capsys, "analyze", permutation, "--json") == (0, expected, "")

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "analyze", "4,x,2")
        assert code == 2
        assert "'x'" in err

    @pytest.mark.parametrize("permutation", ["41627385", "4321", "1"])
    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_one_insertion_per_request(self, capsys, monkeypatch, permutation, form):
        calls = []

        def counted(w):
            calls.append(w)
            return original(w)

        original = fcperm.rsk
        for name in ["fcperm"] + [f"fcperm.{m}" for m in ("rsk", "cli", "crowding", "heaps", "checks")]:
            module = importlib.import_module(name)
            if getattr(module, "rsk", None) is original:
                monkeypatch.setattr(module, "rsk", counted)
        code, _, _ = run(capsys, "analyze", permutation, *form)
        assert code == 0 and calls == [Permutation.from_text(permutation)]

    @pytest.mark.parametrize("permutation", ["41627385", "41623785", "4321"])
    @pytest.mark.parametrize("form", [[], ["--json"]])
    def test_second_row_at_most_twice_per_request(
        self, capsys, monkeypatch, permutation, form
    ):
        calls = []

        def counted(w):
            calls.append(w)
            return original(w)

        original = fcperm.row2
        layers = ("rsk", "crowding", "weak_order", "checks", "cli")
        for name in ["fcperm"] + [f"fcperm.{m}" for m in layers]:
            module = importlib.import_module(name)
            if getattr(module, "row2", None) is original:
                monkeypatch.setattr(module, "row2", counted)
        code, _, _ = run(capsys, "analyze", permutation, *form)
        # the report reads row 2 off P; the minimality test inserts again
        # only off the descent form, whose condition reads the row
        expected = {"41627385": [], "41623785": [Permutation.from_text("41623785")], "4321": []}
        assert code == 0
        assert calls == expected[permutation]


class TestEnumerate:
    def test_fc_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--filter", "fc", "--count")
        assert code == 0 and out.strip() == "42"

    @pytest.mark.parametrize("n", range(1, 12))
    def test_fc_count_matches_the_prefix_walk(self, capsys, n):
        argv = ["enumerate", str(n), "--filter", "fc", "--bound", str(n), "--count"]
        assert run(capsys, *argv) == (0, f"{len(prefix_walk_fc(n))}\n", "")

    def test_fc_count_stops_at_sys_maxsize(self, capsys):
        # len() returns at most sys.maxsize, which the Catalan numbers pass
        # first at n = 36 on a 64-bit build: C_35 is printed, C_36 refused
        # at the call, and a larger degree at the same row of the count
        catalan = [comb(2 * n, n) // (n + 1) for n in range(100)]
        first = next(n for n in range(1, 100) if catalan[n] > sys.maxsize)
        if sys.maxsize == 2**63 - 1:
            assert (first, catalan[first - 1]) == (36, 3116285494907301262)

        def count(n):
            return run(capsys, "enumerate", str(n), "--filter", "fc", "--bound", str(n), "--count")

        assert count(first - 1) == (0, f"{catalan[first - 1]}\n", "")
        message = (
            f"error: S_{first} has {catalan[first]} fully commutative elements,"
            f" more than len() can return (sys.maxsize = {sys.maxsize})\n"
        )
        assert count(first) == (2, "", message)
        message = message.replace(f"S_{first} has", f"S_{first + 4} has at least")
        assert count(first + 4) == (2, "", message)

    def test_fc_count_builds_no_permutation(self, capsys, monkeypatch):
        calls = []
        original = Permutation._trusted_many.__func__

        def counted(cls, images):
            calls.append(len(images))
            return original(cls, images)

        monkeypatch.setattr(Permutation, "_trusted_many", classmethod(counted))
        code, out, _ = run(capsys, "enumerate", "11", "--filter", "fc", "--bound", "11", "--count")
        assert (code, out, calls) == (0, "58786\n", [])
        # the listing builds its elements through the patched method, one
        # call per leaf of the walk: the six prefixes of one entry at n = 6
        code, out, _ = run(capsys, "enumerate", "6", "--filter", "fc")
        assert (code, len(out.split()), calls) == (0, 132, [42, 42, 28, 14, 5, 1])

    def test_no_crowded_at_degree_three(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--filter", "crowded", "--count")
        assert code == 0 and out.strip() == "0"

    def test_minimal_crowded_includes_golden(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "8", "--filter", "minimal-crowded", "--compact"
        )
        assert code == 0
        assert "41627385" in out.splitlines()

    def test_minimal_crowded_has_its_own_default_bound(self, capsys):
        code, out, err = run(capsys, "enumerate", "20", "--filter", "minimal-crowded", "--count")
        assert (code, out, err) == (0, "1434\n", "")
        message = "error: degree 25 exceeds bound 24; raise the bound to enumerate\n"
        code, out, err = run(capsys, "enumerate", "25", "--filter", "minimal-crowded")
        assert (code, out, err) == (2, "", message)
        code, out, err = run(capsys, "enumerate", "10", "--filter", "crowded")
        assert (code, out) == (2, "") and "degree 10 exceeds bound 9" in err

    def test_census_counts_have_their_own_default_bound(self, capsys):
        # counting by second row visits no element, so it reaches further
        # than listing does
        uncrowded, crowded = crowding_census_by_dp(10)
        for which, expected in (("crowded", crowded), ("uncrowded", uncrowded)):
            code, out, err = run(capsys, "enumerate", "10", "--filter", which, "--count")
            assert (code, out, err) == (0, f"{expected}\n", ""), which
            code, out, err = run(capsys, "enumerate", "10", "--filter", which)
            assert (code, out) == (2, "") and "degree 10 exceeds bound 9" in err
            message = "error: degree 21 exceeds bound 20; raise the bound to enumerate\n"
            assert run(capsys, "enumerate", "21", "--filter", which, "--count") == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "1100", "--filter", "fc", "--bound", "2000", "--count"],
            ["dot", "poset", "1100", "--bound", "2000"],
        ],
        ids=["enumerate", "dot-poset"],
    )
    def test_a_walk_deeper_than_the_stack_is_refused(self, capsys, argv):
        # the walk keeps its own stack, so a degree past the recursion limit
        # is refused only for its size, by the count at the call
        catalan = [comb(2 * n, n) // (n + 1) for n in range(100)]
        first = next(n for n in range(1, 100) if catalan[n] > sys.maxsize)
        message = (
            f"error: S_1100 has at least {catalan[first]} fully commutative elements,"
            f" more than len() can return (sys.maxsize = {sys.maxsize})\n"
        )
        assert run(capsys, *argv) == (2, "", message)

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["enumerate", "40", "--filter", f, "--bound", "40"]
                for f in ("fc", "boolean", "crowded", "uncrowded")
            ),
            ["enumerate", "36", "--filter", "boolean", "--bound", "36", "--count"],
            ["dot", "poset", "40", "--bound", "40"],
            ["enumerate", "1100", "--filter", "fc", "--bound", "2000"],
            ["dot", "poset", "1100", "--bound", "2000"],
        ],
        ids="-".join,
    )
    def test_an_unlistable_request_is_refused_at_once(self, argv):
        # in a fresh interpreter with a timeout, so that a request that slips
        # past its guard fails here instead of hanging the whole run
        done = subprocess.run(
            [sys.executable, "-m", "fcperm.cli", *argv],
            capture_output=True, text=True, env=fcperm_env(), timeout=30,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1

    def test_all_streams_lexicographically(self, capsys):
        code, out, _ = run(capsys, "enumerate", "3", "--compact")
        assert code == 0
        assert out.split() == ["123", "132", "213", "231", "312", "321"]

    def test_bound_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "10", "--filter", "fc")
        assert code == 2 and "bound" in err

    def test_unfiltered_enumeration_keeps_the_bound(self, capsys):
        message = "error: degree 13 exceeds bound 9; raise the bound to enumerate\n"
        for argv in (["13", "--count"], ["13", "--filter", "fc", "--count"]):
            code, out, err = run(capsys, "enumerate", *argv)
            assert (code, out, err) == (2, "", message)
        code, out, _ = run(capsys, "enumerate", "4", "--bound", "3", "--count")
        assert code == 2 and not out

    def test_every_filter_against_brute_force(self, capsys):
        every = [Permutation(p) for p in permutations(range(1, 7))]
        fc = [w for w in every if brute_avoids_321(w.image)]
        crowded = [w for w in fc if not wide_scan_is_uncrowded(rsk(w).p.row(2))]
        expected = {
            "all": every,
            "fc": fc,
            "boolean": [w for w in fc if not brute_has_pattern(w.image, (3, 4, 1, 2))],
            "uncrowded": [w for w in fc if w not in crowded],
            "crowded": crowded,
            "minimal-crowded": [Permutation.from_text("415263")],
        }
        assert tuple(expected) == FILTERS
        for which, members in expected.items():
            code, out, _ = run(capsys, "enumerate", "6", "--filter", which, "--compact")
            assert code == 0
            assert out.split() == [w.to_text(compact=True) for w in members], which

    def test_crowded_counts_match_classify(self, capsys):
        elements = tuple(fc_elements(10, bound=10))
        crowded = sum(classify(w) is not None for w in elements)
        for which, expected in (("crowded", crowded), ("uncrowded", len(elements) - crowded)):
            code, out, _ = run(
                capsys, "enumerate", "10", "--filter", which, "--bound", "10", "--count"
            )
            assert (code, out) == (0, f"{expected}\n"), which

    @pytest.mark.parametrize("n", range(1, 11))
    def test_crowded_listings_match_classify(self, capsys, n):
        elements = fc_elements(n, bound=10)
        crowded = [w.to_text(compact=True) for w in elements if classify(w) is not None]
        uncrowded = [w.to_text(compact=True) for w in elements if classify(w) is None]
        for which, expected in (("crowded", crowded), ("uncrowded", uncrowded)):
            code, out, err = run(
                capsys, "enumerate", str(n), "--filter", which, "--bound", "10", "--compact"
            )
            assert (code, out.split(), err) == (0, expected, ""), which

    def test_crowded_listing_decides_each_second_row_once(self, capsys, monkeypatch):
        # S_10 has 16,796 fully commutative elements and 252 second rows
        rows = []
        original = fcperm.weak_order.is_uncrowded_set

        def counted(values):
            rows.append(values)
            return original(values)

        monkeypatch.setattr(fcperm.weak_order, "is_uncrowded_set", counted)
        code, out, _ = run(capsys, "enumerate", "10", "--filter", "crowded", "--bound", "10")
        assert (code, len(out.split())) == (0, crowding_census_by_dp(10)[1])
        assert len(rows) == len(set(rows)) == 252

    def test_crowded_count_reaches_a_narrowed_witness(self, capsys, monkeypatch):
        # the perfbench "witness-narrow" mutant: windows wider than x = 1 missed
        original = fcperm.crowding.find_crowded_witness

        def narrow(values):
            witness = original(values)
            return witness if witness is None or witness.x == 1 else None

        monkeypatch.setattr(fcperm.crowding, "find_crowded_witness", narrow)
        code, out, _ = run(capsys, "enumerate", "10", "--filter", "crowded", "--bound", "10", "--count")
        assert (code, out) == (0, "3147\n")

    @pytest.mark.parametrize("which", ["crowded", "uncrowded"])
    @pytest.mark.parametrize(
        "argv", [["-1"], ["0"], ["10", "--bound", "9"], ["12", "--bound", "11"]]
    )
    def test_count_refuses_as_the_listing_does(self, capsys, which, argv):
        # counting reads second rows, listing walks the elements; the guards agree
        listed = run(capsys, "enumerate", *argv, "--filter", which)
        counted = run(capsys, "enumerate", *argv, "--filter", which, "--count")
        assert counted == listed and listed[0] == 2 and listed[2].startswith("error: ")

    def test_boolean_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "4", "--filter", "boolean", "--count")
        # of the 14 fully commutative elements of S_4 only 3412 is not boolean
        assert code == 0 and out.strip() == "13"

    def test_boolean_counts_are_odd_index_fibonacci(self, capsys):
        # Tenner: S_n has F_{2n-1} boolean elements (F_1 = F_2 = 1)
        fibonacci = [1, 1]
        while len(fibonacci) < 21:
            fibonacci.append(fibonacci[-1] + fibonacci[-2])
        for n in range(1, 12):
            code, out, _ = run(
                capsys, "enumerate", str(n), "--filter", "boolean", "--bound", "11", "--count"
            )
            assert (code, out) == (0, f"{fibonacci[2 * n - 2]}\n"), n


class TestVerify:
    def test_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "6", "prop-2.9")
        assert code == 0 and "pass" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "verify", "5", "thm-5.10", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["passed"] is True and blob["check"] == "thm-5.10"

    def test_degree_guard(self, capsys):
        # every check refuses a degree past the bound before it sweeps anything
        for n, check in (("11", "prop-2.2"), ("10", "cor-5.5"), ("10", "lemma-2.1")):
            message = f"error: degree {n} exceeds bound 9; verify sweeps S_n only up to n = 9\n"
            assert run(capsys, "verify", n, check) == (2, "", message)
        message = "error: a permutation needs degree at least 1\n"
        assert run(capsys, "verify", "0", "thm-5.10") == (2, "", message)

    def test_unknown_check_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "6", "thm-0.0"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "check, summary",
        [
            (
                "thm-4.11",
                "thm-4.11 @ S_7: FAIL (1 cases) counterexample: precondition failed:"
                " 1,2,3,4,7,6,5 is not fully commutative",
            ),
            (
                "lemma-5.1",
                "lemma-5.1 @ S_7: FAIL (435 cases) counterexample:"
                " 1,5,2,7,6,3,4 is not fully commutative",
            ),
        ],
        ids=["thm-4.11", "lemma-5.1"],
    )
    def test_refused_precondition_is_a_counterexample(self, capsys, monkeypatch, check, summary):
        # loose covers reach upper ends that are not fully commutative; the
        # library call that refuses one with a ValueError decides that case,
        # it is not a usage error
        monkeypatch.setattr(fcperm.checks, "fc_covers", loose_fc_covers)
        assert run(capsys, "verify", "7", check) == (1, summary + "\n", "")


class TestDot:
    def test_heap_golden(self, capsys):
        code, out, _ = run(capsys, "dot", "heap", "345619278")
        assert code == 0
        assert out.startswith("digraph heap {")
        assert out.count("[label=") == 11

    def test_heap_single_reflection(self, capsys):
        code, out, _ = run(capsys, "dot", "heap", "13245")
        assert code == 0
        assert out.count("[label=") == 1 and "->" not in out

    def test_non_fc_needs_explicit_word(self, capsys):
        code, _, err = run(capsys, "dot", "heap", "4321")
        assert code == 2 and "word" in err
        code, out, _ = run(capsys, "dot", "heap", "4321", "--word", "121321")
        assert code == 0 and out.count("[label=") == 6

    def test_heap_word_must_spell_the_permutation(self, capsys):
        code, out, err = run(capsys, "dot", "heap", "4321", "--word", "1")
        assert code == 2 and not out
        assert "4321" in err and "1 does not spell" in err

    def test_heap_with_word_rejects_a_malformed_permutation(self, capsys):
        code, out, err = run(capsys, "dot", "heap", "xyz", "--word", "1")
        assert code == 2 and not out and "xyz" in err

    def test_heap_from_word_alone(self, capsys):
        code, out, err = run(capsys, "dot", "heap", "--word", "121")
        assert code == 0 and not err
        assert out.count("[label=") == 3 and out.count("->") == 2
        code, _, err = run(capsys, "dot", "heap")
        assert code == 2 and "--word" in err

    def test_heap_from_far_apart_letters(self, capsys):
        # the reduced-word test costs nothing for the degree, 40721 here
        code, out, err = run(capsys, "dot", "heap", "--word", "40720,5")
        assert code == 0 and not err
        assert out.count("[label=") == 2 and "->" not in out

    def test_heap_of_a_permutation_tests_no_word(self, capsys, monkeypatch):
        # the canonical reduced word is reduced by construction; a word the
        # user gives is still tested
        calls = []
        original = fcperm.heaps.is_reduced

        def counted(letters, n):
            calls.append(tuple(letters))
            return original(letters, n)

        monkeypatch.setattr(fcperm.heaps, "is_reduced", counted)
        code, out, err = run(capsys, "dot", "heap", "41627385")
        assert (code, err, calls) == (0, "", []) and out.startswith("digraph heap {")
        assert run(capsys, "dot", "heap", "--word", "11") == (
            2, "", "error: word 11 is not reduced\n"
        )
        assert calls == [(1, 1)]

    @pytest.mark.parametrize("option", [["--json"], ["--bound", "-5"], ["--bound", "9"]])
    @pytest.mark.parametrize("source", [["312"], ["--word", "12"]])
    def test_heap_refuses_the_poset_options(self, capsys, source, option):
        message = f"error: dot heap takes no {option[0]}; it applies to dot poset\n"
        assert run(capsys, "dot", "heap", *source, *option) == (2, "", message)

    def test_poset_refuses_the_heap_word(self, capsys):
        message = "error: dot poset takes no --word; it applies to dot heap\n"
        assert run(capsys, "dot", "poset", "3", "--word", "121") == (2, "", message)

    def test_poset_bound_defaults_to_the_poset_bound(self, capsys):
        expected = run(capsys, "dot", "poset", "9", "--bound", str(DEFAULT_POSET_BOUND))
        assert expected[0] == 0 and run(capsys, "dot", "poset", "9") == expected
        message = f"degree 10 exceeds bound {DEFAULT_POSET_BOUND}; raise the bound to enumerate"
        assert run(capsys, "dot", "poset", "10") == (2, "", f"error: {message}\n")

    def test_poset(self, capsys):
        code, out, _ = run(capsys, "dot", "poset", "4")
        assert code == 0
        assert out.count("fillcolor") == 14

    def test_poset_json(self, capsys):
        code, out, _ = run(capsys, "dot", "poset", "4", "--json")
        assert code == 0
        blob = json.loads(out)
        assert blob["n"] == 4 and len(blob["nodes"]) == 14


class TestOtherCommands:
    def test_rsk(self, capsys):
        code, out, _ = run(capsys, "rsk", "315264")
        assert code == 0
        assert "P: 1,2,4/3,5,6" in out

    def test_rsk_json(self, capsys):
        code, out, _ = run(capsys, "rsk", "41627385", "--json")
        blob = json.loads(out)
        assert blob["p"]["rows"] == [[1, 2, 3, 5], [4, 6, 7, 8]]

    def test_core(self, capsys):
        code, out, _ = run(capsys, "core", "345619278")
        assert code == 0
        assert "3,1,4,5,6,9,2,7,8" in out

    def test_core_rejects_non_fc(self, capsys):
        code, _, err = run(capsys, "core", "4321")
        assert code == 2 and "not fully commutative" in err

    def test_words(self, capsys):
        code, out, _ = run(capsys, "words", "51342", "--count")
        assert code == 0 and out.strip() == "10"
        code, out, _ = run(capsys, "words", "51342")
        assert "423241" in out.split()

    def test_words_bound(self, capsys):
        code, _, err = run(capsys, "words", "654321")
        assert code == 2 and "bound" in err
        code, _, err = run(capsys, "words", "654321", "--count")
        assert code == 2 and "bound" in err
        code, out, _ = run(capsys, "words", "654321", "--bound", "15", "--count")
        assert code == 0 and out.strip() == "292864"

    @pytest.mark.parametrize(
        "argv, first",
        [
            # 4862 lines, about 87 KB: more than a 64 KiB pipe buffer holds
            (["enumerate", "9", "--filter", "fc"], b"1,2,3,4,5,6,7,8,9\n"),
            (["words", "654321", "--bound", "15"], b"121321432154321\n"),
        ],
    )
    def test_closed_pipe_exits_141_quietly(self, argv, first):
        with subprocess.Popen(
            [sys.executable, "-m", "fcperm.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=fcperm_env(),
        ) as proc:
            assert proc.stdout.readline() == first
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 141
        assert b"Traceback" not in err

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["words", "654321", "--bound", "15"], 292_864),
            (["enumerate", "9", "--filter", "fc"], 4_862),
        ],
    )
    def test_listings_write_in_batches(self, monkeypatch, argv, lines):
        # a print per line is a write call per line, and a system call each
        # when stdout is unbuffered
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 0
        assert stream.getvalue().count("\n") == lines
        assert stream.writes == ceil(lines / fcperm.cli._BATCH_LINES)

    @pytest.mark.parametrize(
        "argv, expected, writes",
        [
            # no match at all: nothing is written, not even a newline
            (["enumerate", "5", "--filter", "minimal-crowded"], "", 0),
            # one match, the empty word: one empty line
            (["words", "1"], "\n", 1),
        ],
    )
    def test_short_listings_write_exactly_their_lines(self, monkeypatch, argv, expected, writes):
        stream = _CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(argv) == 0
        assert (stream.getvalue(), stream.writes) == (expected, writes)

    def test_words_deeper_than_the_recursion_limit(self, capsys):
        # 1101 stands before 1..1100: one reduced word, 1100 letters long
        text = ",".join(map(str, [1101, *range(1, 1101)]))
        w = Permutation.from_text(text)
        code, out, err = run(capsys, "words", text, "--bound", "2000")
        assert (code, err) == (0, "")
        (line,) = out.splitlines()
        word = word_from_text(line)
        assert len(word) == 1100 and evaluate_word(word, 1101) == w
        code, out, err = run(capsys, "words", text, "--bound", "2000", "--count")
        assert (code, out, err) == (0, "1\n", "")

    @pytest.mark.parametrize(
        "text, expected",
        [
            # n = 12, but every letter lies in the support {8, 9}: digits
            ("1,2,3,4,5,6,7,10,9,8,11,12", "898\n989\n"),
            # a letter past 9: commas
            ("1,2,3,4,5,6,7,8,11,10,9,12", "9,10,9\n10,9,10\n"),
            # the identity has one reduced word, the empty one
            ("123", "\n"),
            ("1", "\n"),
        ],
        ids=["digits-at-n12", "commas", "identity-s3", "identity-s1"],
    )
    def test_words_text_form(self, capsys, text, expected):
        assert run(capsys, "words", text) == (0, expected, "")

    def test_words_listing_reads_the_module_global(self, capsys, monkeypatch):
        # the words-drop-last benchmark mutant patches iter_reduced_words in
        # fcperm.cli; the listing must go through that name
        _, full, _ = run(capsys, "words", "4321")
        original = fcperm.cli.iter_reduced_words

        def drop_last(w):
            words = list(original(w))
            yield from words[:-1] if len(words) > 1 else words

        monkeypatch.setattr(fcperm.cli, "iter_reduced_words", drop_last)
        code, out, err = run(capsys, "words", "4321")
        lines = full.splitlines(keepends=True)
        assert len(lines) == 16
        assert (code, out, err) == (0, "".join(lines[:-1]), "")

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["enumerate", "3", "--count"], "6\n"),
            (["words", "321"], "121\n212\n"),
            (["words", "321", "--count"], "2\n"),
        ],
        ids=["enumerate-count", "words", "words-count"],
    )
    def test_huge_bound_answers_at_once(self, capsys, argv, expected):
        # a bound is only compared with, never counted up to
        assert run(capsys, *argv, "--bound", str(10**18)) == (0, expected, "")

    def test_huge_bound_draws_the_same_poset(self, capsys):
        _, expected, _ = run(capsys, "dot", "poset", "3")
        assert run(capsys, "dot", "poset", "3", "--bound", str(10**18)) == (0, expected, "")


def _answer(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    REQUESTS = (
        ["enumerate", "x"],  # a usage error, raised inside argparse
        ["analyze", "41627385", "--json"],
        ["verify", "6", "cor-5.5", "--json"],
        ["enumerate", "7", "--filter", "crowded", "--compact"],
        ["enumerate", "7", "--filter", "crowded", "--count"],
        ["enumerate", "0", "--filter", "uncrowded", "--count"],
    )

    def test_one_parser_answers_as_fresh_ones_do(self, monkeypatch):
        fresh = []
        for argv in self.REQUESTS:
            fcperm.cli._parser.cache_clear()
            fresh.append(_answer(argv))
        assert [code for code, _, _ in fresh] == [2, 0, 0, 0, 0, 2]
        build, builds = fcperm.cli.build_parser, []
        monkeypatch.setattr(fcperm.cli, "build_parser", lambda: builds.append(1) or build())
        fcperm.cli._parser.cache_clear()
        assert [_answer(argv) for argv in self.REQUESTS] == fresh
        assert builds == [1]


class TestInternalErrors:
    @pytest.mark.parametrize(
        "namespace, target, argv, error",
        [
            (
                fcperm.cli,
                "boolean_core",
                ["core", "345619278"],
                RuntimeError("core split failed"),
            ),
            (
                fcperm.cli,
                "find_crowded_witness",
                ["analyze", "41627385"],
                InvariantViolation("row 2 lost a value"),
            ),
            # a broken deduction inside a check is an internal error, not a FAIL
            (
                fcperm.checks,
                "analyze_transition",
                ["verify", "7", "thm-4.11"],
                InvariantViolation("bump chain broke"),
            ),
        ],
        # pytest's default ids, minus the namespace that each target implies
        ids=[
            "boolean_core-argv0-error0",
            "find_crowded_witness-argv1-error1",
            "analyze_transition-argv2-error2",
        ],
    )
    def test_exit_three_with_the_input(
        self, capsys, monkeypatch, namespace, target, argv, error
    ):
        def broken(*args):
            raise error

        monkeypatch.setattr(namespace, target, broken)
        code, out, err = run(capsys, *argv)
        assert code == 3 and not out
        assert err.strip() == f"internal error: {error} (input: {' '.join(argv)})"

    def test_a_transition_that_lands_uncrowded_exits_three(self, capsys, monkeypatch):
        # the last deduction analyze_transition demands, which thm-4.11
        # relies on instead of testing the target again
        monkeypatch.setattr(fcperm.crowding, "classify", lambda w: None)
        assert run(capsys, "verify", "7", "thm-4.11") == (
            3,
            "",
            "internal error: 1,5,2,3,6,7,4@4: transition target is not crowded"
            " (input: verify 7 thm-4.11)\n",
        )


_IMAGES = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
_PERMUTATION_TEXT = st.one_of(
    _IMAGES.map(lambda image: "".join(map(str, image))),
    _IMAGES.map(lambda image: ",".join(map(str, image))),
    # malformed: repeats, gaps, zero, stray separators, signs, non-ASCII digits
    st.sampled_from(
        ["", " ", "0", "11", "1,1", "13", "1,,2", ",", "2,", "-1", "+1", "x",
         "4,x,2", "1 2", "10", "\u00b2", "\u0661", "\u0662\u0661", "--json"]
    ),
    st.text(alphabet="0123456789, -x\u00b2", max_size=10),
)
_COMMANDS = st.sampled_from(
    [("rsk",), ("rsk", "--json"), ("analyze",), ("analyze", "--json"), ("core",),
     ("core", "--json"), ("words",), ("words", "--count"), ("dot", "heap")]
)


# degrees and bounds stay at most 7, so that every draw finishes fast: a
# degree above the bound is refused before anything is enumerated
_DEGREE_TEXT = st.one_of(
    st.integers(-2, 7).map(str),
    st.sampled_from(["", " ", "x", "1.5", "7x", "0x7", "+3", " 4 ", "--", "\u0663", "--json"]),
)
_BOUND = st.none() | st.integers(-2, 7).map(str)


def _with_bound(argv, bound):
    return argv if bound is None else [*argv, "--bound", bound]


def _assert_clean_answer(argv):
    code, _, err = _answer(argv)
    assert code in (0, 2), (argv, code, err)
    assert "Traceback" not in err
    assert (code == 0) == (err == "")


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_COMMANDS, _PERMUTATION_TEXT)
    def test_exit_code_is_zero_or_two(self, command, text):
        _assert_clean_answer([*command, text])

    @settings(max_examples=300, deadline=None)
    @given(
        _DEGREE_TEXT,
        st.none() | st.sampled_from(FILTERS),
        st.sampled_from([[], ["--count"], ["--compact"], ["--count", "--compact"]]),
        _BOUND,
    )
    def test_enumerate_exit_code_is_zero_or_two(self, degree, which, flags, bound):
        argv = ["enumerate", degree, *flags]
        if which is not None:
            argv += ["--filter", which]
        _assert_clean_answer(_with_bound(argv, bound))

    @settings(max_examples=200, deadline=None)
    @given(st.none() | _DEGREE_TEXT, st.booleans(), _BOUND)
    def test_dot_poset_exit_code_is_zero_or_two(self, degree, as_json, bound):
        argv = ["dot", "poset"] + ([] if degree is None else [degree])
        _assert_clean_answer(_with_bound(argv + ["--json"] * as_json, bound))
