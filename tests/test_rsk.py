import re

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
)
from fcperm.checks import _lis_ending, _longest_increasing

from conftest import brute_lis_ending_at, list_row_insertion


P = Permutation.from_text


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
        assert Tableau.from_text(t.to_text()) == t
        assert Tableau.from_text("") == Tableau(())
        assert Tableau(()).to_text() == ""

    def test_json_dict(self):
        t = Tableau(((1, 2, 4), (3, 5, 6)))
        assert t.to_json_dict() == {"rows": [[1, 2, 4], [3, 5, 6]]}

    def test_standard(self):
        assert Tableau(((1, 2, 4), (3, 5, 6))).is_standard(6)
        assert not Tableau(((1, 2, 4), (3, 5, 6))).is_standard(7)
        assert not Tableau(((2, 3), (4, 5))).is_standard(4)


class TestInsertionGoldens:
    def test_known_tableaux(self):
        assert rsk(P("315264")).p == Tableau(((1, 2, 4), (3, 5, 6)))
        assert rsk(P("41623785")).p == Tableau(((1, 2, 3, 5, 8), (4, 6, 7)))
        assert rsk(P("41627385")).p == Tableau(((1, 2, 3, 5), (4, 6, 7, 8)))

    def test_shapes_match_and_q_is_standard(self):
        for w in all_permutations(5):
            result = rsk(w)
            assert result.p.shape == result.q.shape
            assert result.p.is_standard(5) and result.q.is_standard(5)

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
            p, q, steps, first_column = list_row_insertion(w.image)
            assert result.p.rows == p
            assert result.q.rows == q
            assert [(s.value, s.bumps) for s in result.trace.events] == steps
            assert dict(result.trace.first_column) == first_column

    def test_steps_are_immutable(self):
        step = rsk(P("41627385")).trace.events[1]
        assert (step.value, step.bumps) == (1, ((1, 4, 1),))
        with pytest.raises(AttributeError):
            step.value = 2
        with pytest.raises(AttributeError):
            step.bumps = ()


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
