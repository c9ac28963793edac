import copy
import dataclasses
import importlib
import pickle
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcperm import (
    Permutation,
    Tableau,
    all_permutations,
    bump_pairs,
    is_fully_commutative,
    row2,
    rsk,
    run_check,
)
from fcperm.checks import _lis_ending, _longest_increasing
from fcperm.cli import main
from fcperm.rsk import BumpTrace

from conftest import brute_lis_ending_at, list_row_insertion


P = Permutation.from_text
# the package binds the name rsk to the function, so reach the module itself
RSK_MODULE = importlib.import_module("fcperm.rsk")


def _is_tableau(rows) -> bool:
    """Rows and columns strictly increasing, read as sorted sets; row
    lengths weakly decreasing, so every column is a run of adjacent rows."""
    lengths = [len(row) for row in rows]
    if 0 in lengths or lengths != sorted(lengths, reverse=True):
        return False
    columns = [
        [row[c] for row in rows if c < len(row)] for c in range(max(lengths, default=0))
    ]
    return all(list(line) == sorted(set(line)) for line in [*rows, *columns])


class TestTableau:
    def test_validation(self):
        with pytest.raises(ValueError):
            Tableau(((2, 1),))
        with pytest.raises(ValueError):
            Tableau(((1, 2), (3, 4, 5)))
        with pytest.raises(ValueError):
            Tableau(((3, 4), (1, 2)))
        with pytest.raises(ValueError):
            Tableau(((1, 2), ()))

    @pytest.mark.parametrize(
        "rows, message",
        [
            (((1, 2), ()), "empty tableau row"),
            (((1, 3), (2, 2)), "row 2 is not strictly increasing: (2, 2)"),
            (((1, 2), (3, 4, 5)), "row lengths must weakly decrease"),
            (((1, 2), (1, 3)), "columns must strictly increase downward"),
        ],
    )
    def test_each_rejection_names_its_rule(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Tableau(rows)

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.integers(0, 5), max_size=4), max_size=4))
    def test_accepts_exactly_the_valid_row_lists(self, rows):
        try:
            tableau = Tableau(rows)
        except ValueError:
            assert not _is_tableau(rows)
        else:
            assert _is_tableau(rows)
            assert tableau.rows == tuple(tuple(row) for row in rows)

    def test_text_round_trip(self):
        t = Tableau(((1, 2, 3, 5), (4, 6, 7, 8)))
        assert t.to_text() == "1,2,3,5/4,6,7,8"
        parsed = tuple(tuple(map(int, row.split(","))) for row in t.to_text().split("/"))
        assert Tableau(parsed) == t
        assert Tableau(()).to_text() == ""

    def test_json_dict(self):
        t = Tableau(((1, 2, 4), (3, 5, 6)))
        assert t.to_json_dict() == {"rows": [[1, 2, 4], [3, 5, 6]]}


class TestInsertionGoldens:
    def test_known_tableaux(self):
        assert rsk(P("315264")).p == Tableau(((1, 2, 4), (3, 5, 6)))
        assert rsk(P("41623785")).p == Tableau(((1, 2, 3, 5, 8), (4, 6, 7)))
        assert rsk(P("41627385")).p == Tableau(((1, 2, 3, 5), (4, 6, 7, 8)))

    def test_shapes_match_and_q_is_standard(self):
        for w in all_permutations(5):
            result = rsk(w)
            assert result.p.shape == result.q.shape
            for tableau in (result.p, result.q):
                assert sorted(v for row in tableau.rows for v in row) == [1, 2, 3, 4, 5]

    def test_row2_goldens(self):
        assert row2(P("41627385")) == (4, 6, 7, 8)
        assert row2(Permutation.identity(4)) == ()
        assert row2(P("41623785")) == (4, 6, 7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row2_matches_the_traced_insertion(self, n):
        # all of S_n, so cascades into row 3 and below are covered too
        for w in all_permutations(n):
            assert row2(w) == rsk(w).p.row(2)


class TestAgainstListInsertion:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_tableaux_and_trace_match(self, n):
        for w in all_permutations(n):
            result = rsk(w)
            p, q, paths, first_column = list_row_insertion(w.image)
            assert result.p.rows == p
            assert result.q.rows == q
            assert result.trace.paths == paths
            assert dict(result.trace.first_column) == first_column

    def test_steps_are_immutable(self):
        trace = rsk(P("41627385")).trace
        assert trace.paths[:2] == ((4,), (1, 4))
        assert all(type(path) is tuple for path in trace.paths)
        with pytest.raises(AttributeError):
            trace.paths = ()


class TestPaths:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_each_route_starts_with_its_letter_and_increases(self, n):
        for w in all_permutations(n):
            result = rsk(w)
            assert len(result.trace.paths) == n
            for letter, path in zip(w.image, result.trace.paths):
                assert path[0] == letter
                assert all(a < b for a, b in zip(path, path[1:]))
                assert len(path) <= len(result.p.rows)

    def test_row_bump_map_reads_the_first_step_of_each_route(self):
        trace = rsk(P("4321")).trace
        assert trace.paths == ((4,), (3, 4), (2, 3, 4), (1, 2, 3, 4))
        assert trace.row_bump_map() == {4: 3, 3: 2, 2: 1}


class TestClassicalFacts:
    def test_symmetry_inverse_gives_recording(self):
        for w in all_permutations(6):
            assert rsk(w.inverse()).p == rsk(w).q

    def test_bijectivity_on_s6(self):
        seen = {}
        for w in all_permutations(6):
            result = rsk(w)
            key = (result.p.rows, result.q.rows)
            assert key not in seen
            seen[key] = w

    def test_two_rows_iff_fully_commutative(self):
        for w in all_permutations(6):
            assert is_fully_commutative(w) == (len(rsk(w).p.rows) <= 2)


FIELDS = ("p", "q", "trace")


def _read_matches_list_insertion(w, order):
    """Read the fields of a fresh rsk(w) in the given order and compare each
    with the list-scan insertion."""
    result = rsk(w)
    p, q, paths, first_column = list_row_insertion(w.image)
    for name in order:
        value = getattr(result, name)
        if name == "p":
            assert value.rows == p
        elif name == "q":
            assert value.rows == q
        else:
            assert value.paths == paths
            assert dict(value.first_column) == first_column
            assert all(type(path) is tuple for path in value.paths)


class TestLazyResult:
    """rsk inserts once and builds p, q and trace on first read; the result
    must not show the order of reads, or whether there were any."""

    @pytest.mark.parametrize("order", list(permutations(FIELDS)), ids="-".join)
    def test_every_read_order_matches_list_insertion(self, order):
        for n in range(1, 7):
            for w in all_permutations(n):
                _read_matches_list_insertion(w, order)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40).flatmap(lambda n: st.permutations(range(1, n + 1))),
        st.permutations(FIELDS),
    )
    def test_random_degree_and_read_order(self, image, order):
        _read_matches_list_insertion(Permutation(tuple(image)), order)

    @pytest.mark.parametrize("text", ["1", "3142", "41627385", "4321", "5274163"])
    def test_unread_and_read_results_behave_alike(self, text):
        w = P(text)
        read = rsk(w)
        for name in FIELDS:
            getattr(read, name)

        def unread():
            return rsk(w)

        assert repr(unread()) == repr(read)
        assert unread() == read and read == unread() and unread() == unread()
        assert pickle.dumps(unread()) == pickle.dumps(read)
        for round_trip in (lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy):
            again, again_read = round_trip(unread()), round_trip(read)
            assert again == again_read == read
            assert repr(again) == repr(again_read) == repr(read)
        swapped, swapped_read = (dataclasses.replace(r, p=r.q) for r in (unread(), read))
        assert swapped == swapped_read and swapped.p == read.q
        assert repr(swapped) == repr(swapped_read)
        for r in (unread(), read):
            with pytest.raises(TypeError):
                hash(r)
            with pytest.raises(dataclasses.FrozenInstanceError):
                r.p = read.q

    def test_unknown_attributes_are_still_missing(self):
        result = rsk(P("3142"))
        with pytest.raises(AttributeError, match="no attribute 'r'"):
            result.r
        assert not hasattr(result, "__dict__")

    def test_tableaux_are_built_only_when_read(self, monkeypatch):
        built = []
        validate = Tableau.__post_init__

        def counting(self):
            built.append(self)
            validate(self)

        monkeypatch.setattr(Tableau, "__post_init__", counting)
        # thm-2.10 reads only p: one tableau per element of S_5, where
        # building both p and q on every call made 240
        assert run_check("thm-2.10", 5).cases == 120
        assert len(built) == 120
        # a field read twice is built once
        result = rsk(P("41627385"))
        assert result.p is result.p and result.trace is result.trace
        assert len(built) == 121


class TestLis:
    """The checks' dynamic program for the longest increasing subsequence
    ending at each position."""

    def test_goldens(self):
        assert _lis_ending(P("41623785").image)[-2] == 5  # ends at 8
        for w in all_permutations(4):
            assert _lis_ending(w.image)[0] == 1

    def test_against_brute_force(self):
        for w in all_permutations(5):
            assert _lis_ending(w.image) == [
                brute_lis_ending_at(w.image, q) for q in w.image
            ]

    def test_first_column_equals_lis(self):
        for w in all_permutations(6):
            trace = rsk(w).trace
            for q, length in zip(w.image, _lis_ending(w.image)):
                assert trace.first_column[q] == length

    def test_empty_sequence(self):
        assert _lis_ending(()) == []
        assert _longest_increasing(()) == []


class TestBumpPairs:
    def test_golden(self):
        assert bump_pairs(P("41627385")) == [(1, 4), (2, 6), (3, 7), (5, 8)]
        assert bump_pairs(Permutation.identity(5)) == []

    def test_rejects_non_fully_commutative(self):
        with pytest.raises(ValueError):
            bump_pairs(Permutation((3, 2, 1)))

    @staticmethod
    def _cascade_past_row_1(monkeypatch):
        """Patch rsk so that the first bump of every trace cascades on into
        row 2, which two-row insertion never does: a third entry on the
        first route that has a second."""
        original = RSK_MODULE.rsk

        def two_step_cascade(w):
            result = original(w)
            paths = list(result.trace.paths)
            for i, path in enumerate(paths):
                if len(path) == 2:
                    paths[i] = path + (path[1] + 1,)
                    break
            trace = BumpTrace(tuple(paths), result.trace.first_column)
            return dataclasses.replace(result, trace=trace)

        monkeypatch.setattr(RSK_MODULE, "rsk", two_step_cascade)

    def test_cascade_past_row_1_is_an_internal_error(self, monkeypatch):
        self._cascade_past_row_1(monkeypatch)
        message = "^two-row insertion of 4,1,6,2,7,3,8,5 cascaded past row 1$"
        with pytest.raises(RuntimeError, match=message):
            bump_pairs(P("41627385"))

    def test_cascade_past_row_1_exits_3(self, monkeypatch, capsys):
        self._cascade_past_row_1(monkeypatch)
        assert main(["verify", "9", "lemma-5.8"]) == 3
        captured = capsys.readouterr()
        assert not captured.out
        assert captured.err.startswith("internal error: two-row insertion of ")

    def test_bumped_values_are_row2(self):
        for w in all_permutations(6):
            if not is_fully_commutative(w):
                continue
            pairs = bump_pairs(w)
            assert tuple(sorted(z for _, z in pairs)) == row2(w)
            assert [z for _, z in pairs] == sorted(z for _, z in pairs)


class TestMaxIncreasingSubsequences:
    def test_small_cases(self):
        assert sorted(_longest_increasing((2, 1, 3))) == [(1, 3), (2, 3)]
        assert sorted(_longest_increasing((3, 2, 1))) == [(1,), (2,), (3,)]

    def test_lengths_and_membership(self):
        from itertools import combinations

        for w in all_permutations(5):
            listed = _longest_increasing(w.image)
            assert len(listed) == len(set(listed))
            target = max(len(s) for s in listed)
            brute = {
                tuple(w.image[p] for p in positions)
                for size in range(1, 6)
                for positions in combinations(range(5), size)
                if all(
                    w.image[a] < w.image[b]
                    for a, b in zip(positions, positions[1:])
                )
            }
            longest = {s for s in brute if len(s) == target}
            assert not {s for s in brute if len(s) > target}
            assert set(listed) == longest
