from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fcperm import Permutation, all_permutations

from conftest import bfs_reduced_word


perms_strategy = (
    st.integers(min_value=1, max_value=12)
    .flatmap(lambda n: st.permutations(list(range(1, n + 1))))
    .map(lambda values: Permutation(tuple(values)))
)


class TestConstruction:
    def test_golden_examples(self):
        assert Permutation((5, 1, 3, 4, 2)).n == 5
        assert Permutation((1,)).is_identity()
        assert Permutation((3, 1, 4, 5, 9, 2, 6, 8, 7)).n == 9

    @pytest.mark.parametrize(
        "bad", [(), (1, 1), (1, 3), (0, 1), (2, 3), (1, 2, 2)]
    )
    def test_rejects_bad_one_line(self, bad):
        with pytest.raises(ValueError):
            Permutation(bad)

    def test_text_forms(self):
        w = Permutation.from_text("41627385")
        assert w == Permutation.from_text("4,1,6,2,7,3,8,5")
        assert w.to_text() == "4,1,6,2,7,3,8,5"
        assert w.to_text(compact=True) == "41627385"
        big = Permutation.identity(11)
        assert big.to_text(compact=True) == big.to_text()  # no compact past 9

    @pytest.mark.parametrize("bad", ["", "4,x,2", "4 1", "abc", "1,2,", "0"])
    def test_bad_text(self, bad):
        with pytest.raises(ValueError):
            Permutation.from_text(bad)

    @pytest.mark.parametrize("bad", ["11", "13", "2,3", "1,2,2", "1,2,4", "10"])
    def test_text_of_a_non_permutation(self, bad):
        with pytest.raises(ValueError, match="exactly once"):
            Permutation.from_text(bad)

    @pytest.mark.parametrize("bad", [[1, 1], [2, 3], (3, 1, 3), range(2, 5)])
    def test_any_sequence_is_validated(self, bad):
        with pytest.raises(ValueError, match="exactly once"):
            Permutation(bad)

    def test_derived_permutations_equal_validated_ones(self):
        u = Permutation.from_text("31524")
        for w in all_permutations(5):
            derived = [w.times(i) for i in range(1, 5)] + [w.inverse(), w.compose(u)]
            for v in derived:
                assert v == Permutation(v.image) and hash(v) == hash(Permutation(v.image))
                assert type(v.image) is tuple and sorted(v.image) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_all_permutations_equal_validated_ones(self, n):
        swept = list(all_permutations(n))
        assert swept == [Permutation(p) for p in permutations(range(1, n + 1))]
        assert all(type(w) is Permutation and type(w.image) is tuple for w in swept)

    @pytest.mark.parametrize("n", [0, -1])
    def test_all_permutations_refuses_a_degree_below_one(self, n):
        with pytest.raises(ValueError, match="degree at least 1"):
            next(all_permutations(n))


class TestLength:
    def test_goldens(self):
        assert Permutation.from_text("51342").length() == 6
        assert Permutation.identity(7).length() == 0
        assert Permutation((4, 3, 2, 1)).length() == 6

    def test_cover_steps_change_length_by_one(self):
        for w in all_permutations(6):
            for i in range(1, 6):
                assert abs(w.times(i).length() - w.length()) == 1

    def test_descent_iff_length_drop(self):
        for w in all_permutations(6):
            for d in range(1, 6):
                drops = w.times(d).length() == w.length() - 1
                assert (d in w.descents()) == drops


class TestMultiplyAndInverse:
    def test_golden_right_product(self):
        v = Permutation.from_text("41623785")
        assert v.times(5) == Permutation.from_text("41627385")
        assert Permutation.identity(4).times(1).image == (2, 1, 3, 4)

    def test_involution(self):
        for w in all_permutations(5):
            for i in range(1, 5):
                assert w.times(i).times(i) == w

    def test_index_range(self):
        with pytest.raises(ValueError):
            Permutation.identity(4).times(4)
        with pytest.raises(ValueError):
            Permutation.identity(4).times(0)

    def test_inverse_golden(self):
        # positional inversion by hand: value v at position p puts p at slot v
        w = Permutation.from_text("51342")
        assert w.inverse() == Permutation.from_text("25341")
        assert Permutation.identity(5).inverse().is_identity()

    def test_inverse_is_positional(self):
        for w in all_permutations(5):
            inv = w.inverse()
            assert all(inv(w(i)) == i for i in range(1, 6))
            assert inv.inverse() == w

    def test_compose_rejects_mixed_degrees(self):
        with pytest.raises(ValueError):
            Permutation.identity(3).compose(Permutation.identity(4))


class TestDescentsSupport:
    def test_descent_goldens(self):
        assert sorted(Permutation.from_text("41627385").descents()) == [1, 3, 5, 7]
        assert Permutation.identity(5).descents() == frozenset()
        assert sorted(Permutation((4, 3, 2, 1)).descents()) == [1, 2, 3]

    def test_support_goldens(self):
        assert sorted(Permutation.from_text("51342").support()) == [1, 2, 3, 4]
        assert Permutation.identity(6).support() == frozenset()

    def test_support_matches_reduced_word_letters(self):
        for w in all_permutations(6):
            assert w.support() == frozenset(bfs_reduced_word(w))

    def test_support_empty_only_for_identity(self):
        for w in all_permutations(5):
            assert (w.support() == frozenset()) == w.is_identity()

    def test_support_stats_golden(self):
        assert Permutation.from_text("41623785").support_stats(5) == (6, 5)
        for i in range(1, 5):
            assert Permutation.identity(5).support_stats(i) == (i, i + 1)

    def test_support_stats_equivalences_exhaustive(self):
        for w in all_permutations(7):
            supp = w.support()
            for i in range(1, 7):
                prefix_max, suffix_min = w.support_stats(i)
                verdicts = {
                    i in supp,
                    set(w.image[:i]) != set(range(1, i + 1)),
                    set(w.image[i:]) != set(range(i + 1, 8)),
                    prefix_max > i,
                    suffix_min < i + 1,
                    prefix_max > suffix_min,
                }
                assert len(verdicts) == 1, (w, i)


class TestPlumbing:
    @given(perms_strategy)
    def test_inverse_involution_random(self, w):
        assert w.inverse().inverse() == w

    @given(perms_strategy)
    def test_length_invariant_under_inverse(self, w):
        assert w.length() == w.inverse().length()
