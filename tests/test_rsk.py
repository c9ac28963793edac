import pytest

from fcperm import (
    Permutation,
    Tableau,
    all_permutations,
    bump_pairs,
    is_fully_commutative,
    lis_ending_at,
    max_increasing_subsequences,
    partial_p,
    row2,
    rsk,
)

from conftest import brute_lis_ending_at


P = Permutation.from_text


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

    def test_partial_prefixes(self):
        w = P("41627385")
        assert partial_p(w, 0) == Tableau(())
        assert partial_p(w, 8) == rsk(w).p
        assert partial_p(P("41623785"), 5) == Tableau(((1, 2, 3), (4, 6)))
        with pytest.raises(ValueError):
            partial_p(w, 9)

    def test_row2_goldens(self):
        assert row2(P("41627385")) == (4, 6, 7, 8)
        assert row2(Permutation.identity(4)) == ()
        assert row2(P("41623785")) == (4, 6, 7)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_row2_matches_the_traced_insertion(self, n):
        # all of S_n, so cascades into row 3 and below are covered too
        for w in all_permutations(n):
            assert row2(w) == rsk(w).p.row(2)


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
    def test_goldens(self):
        assert lis_ending_at(P("41623785"), 8) == 5
        for w in all_permutations(4):
            assert lis_ending_at(w, w(1)) == 1

    def test_against_brute_force(self):
        for w in all_permutations(5):
            for q in range(1, 6):
                assert lis_ending_at(w, q) == brute_lis_ending_at(w.image, q)

    def test_first_column_equals_lis(self):
        for w in all_permutations(6):
            trace = rsk(w).trace
            for q in range(1, 7):
                assert trace.first_column[q] == lis_ending_at(w, q)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            lis_ending_at(P("321"), 4)


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
        assert max_increasing_subsequences((2, 1, 3)) == [(1, 3), (2, 3)]
        assert max_increasing_subsequences((3, 2, 1)) == [(1,), (2,), (3,)]

    def test_lengths_and_membership(self):
        from itertools import combinations

        for w in all_permutations(5):
            listed = max_increasing_subsequences(w.image)
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
