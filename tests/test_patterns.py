import pytest

from fcperm import (
    Permutation,
    all_permutations,
    avoids,
    contains_pattern,
    is_boolean,
    is_fully_commutative,
    iter_occurrences,
)

from conftest import brute_avoids_321, brute_first_occurrence, brute_has_pattern


P = Permutation.from_text


class TestContainment:
    def test_known_occurrence_is_reported(self):
        w = P("314592687")
        occ = contains_pattern(w, P("1423"))
        assert occ is not None
        # the subsequence 1927 is one of the occurrences
        assert brute_has_pattern((1, 9, 2, 7), (1, 4, 2, 3))
        assert occ.positions == brute_first_occurrence(w.image, (1, 4, 2, 3))
        assert occ.values_in(w) == (3, 9, 6, 8)

    def test_absence(self):
        assert contains_pattern(P("314592687"), P("3241")) is None

    def test_trivial_pattern(self):
        for w in all_permutations(4):
            occ = contains_pattern(w, Permutation((1,)))
            assert occ is not None and occ.positions == (1,)

    def test_pattern_longer_than_host(self):
        with pytest.raises(ValueError):
            contains_pattern(Permutation((1, 2)), Permutation((1, 2, 3)))

    def test_lexicographically_least_exhaustive(self):
        patterns = [P("321"), P("1423"), P("231")]
        for w in all_permutations(5):
            for p in patterns:
                occ = contains_pattern(w, p)
                expected = brute_first_occurrence(w.image, p.image)
                assert (occ.positions if occ else None) == expected


class TestAvoids:
    def test_goldens(self):
        assert avoids(P("345619278"), P("321"))
        assert not avoids(P("321"), P("321"))
        assert avoids(Permutation((1, 2)), P("321"))  # short host

    def test_count_of_321_avoiders_in_s5(self):
        assert sum(avoids(w, P("321")) for w in all_permutations(5)) == 42

    def test_antitone_in_the_pattern(self):
        # if w avoids p and p' contains p, then w avoids p'
        small = list(all_permutations(3))
        bigger = list(all_permutations(4))
        for w in all_permutations(5):
            for p in small:
                if not avoids(w, p):
                    continue
                for q in bigger:
                    if brute_has_pattern(q.image, p.image):
                        assert avoids(w, q), (w, p, q)


class TestFullyCommutativeAndBoolean:
    def test_goldens(self):
        assert is_fully_commutative(P("345619278"))
        assert not is_fully_commutative(Permutation((4, 3, 2, 1)))
        assert is_boolean(P("314569278"))
        assert not is_boolean(P("51342"))
        assert is_boolean(Permutation.identity(5))

    def test_catalan_counts(self):
        expected = {1: 1, 2: 2, 3: 5, 4: 14, 5: 42, 6: 132}
        for n, count in expected.items():
            assert sum(is_fully_commutative(w) for w in all_permutations(n)) == count

    def test_matches_generic_search_exhaustively(self):
        pattern = P("321")
        for w in all_permutations(7):
            assert is_fully_commutative(w) == brute_avoids_321(w.image)
            if w.n >= 3:
                assert is_fully_commutative(w) == avoids(w, pattern)

    def test_boolean_matches_brute_321_and_3412(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                expected = brute_avoids_321(w.image) and not brute_has_pattern(
                    w.image, (3, 4, 1, 2)
                )
                assert is_boolean(w) == expected, w
