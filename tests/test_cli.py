import importlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fcperm.checks
import fcperm.cli
from fcperm import CoverEdge, Permutation, classify, fc_elements, rsk
from fcperm.cli import FILTERS, main
from fcperm.crowding import InvariantViolation

from conftest import brute_avoids_321, brute_has_pattern, wide_scan_is_uncrowded


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

        original = fcperm.crowding.row2
        monkeypatch.setattr(fcperm.crowding, "row2", counted)
        code, _, _ = run(capsys, "analyze", permutation, *form)
        # classify and the minimality test, once each; none for non-FC input
        w = Permutation.from_text(permutation)
        assert code == 0
        assert calls == ([w, w] if brute_avoids_321(w.image) else [])


class TestEnumerate:
    def test_fc_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "5", "--filter", "fc", "--count")
        assert code == 0 and out.strip() == "42"

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
        code, out, err = run(capsys, "enumerate", "10", "--filter", "crowded", "--count")
        assert (code, out) == (2, "") and "degree 10 exceeds bound 9" in err

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
        elements = fc_elements(10, bound=10)
        crowded = sum(classify(w).crowded for w in elements)
        for which, expected in (("crowded", crowded), ("uncrowded", len(elements) - crowded)):
            code, out, _ = run(
                capsys, "enumerate", "10", "--filter", which, "--bound", "10", "--count"
            )
            assert (code, out) == (0, f"{expected}\n"), which

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
            message = f"error: degree {n} exceeds bound 9; raise the bound to enumerate\n"
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
        # covers that forget "no entry right of i+1 below v(i)" reach upper
        # ends that are not fully commutative; the library call that refuses
        # one with a ValueError decides that case, it is not a usage error
        def loose_covers(n, bound=9):
            for v in fc_elements(n, bound=bound):
                high = 0
                for i in range(1, n):
                    if v(i) < v(i + 1) and high < v(i + 1):
                        yield CoverEdge(v, v.times(i), i)
                    high = max(high, v(i))

        monkeypatch.setattr(fcperm.checks, "fc_covers", loose_covers)
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
                "classify",
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
            "classify-argv1-error1",
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


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(_COMMANDS, _PERMUTATION_TEXT)
    def test_exit_code_is_zero_or_two(self, command, text):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([*command, text])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert code in (0, 2), (command, text, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        assert (code == 0) == (err.getvalue() == "")
