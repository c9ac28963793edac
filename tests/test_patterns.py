import pytest

from fcperm import (
    Permutation,
    all_permutations,
    is_boolean,
    is_fully_commutative,
    iter_occurrences,
)

from conftest import brute_avoids_321, brute_has_pattern, brute_occurrences


P = Permutation.from_text


def _avoids(w, p):
    return next(iter_occurrences(w, p), None) is None


class TestContainment:
    def test_known_occurrence_is_reported(self):
        w = P("314592687")
        occ = next(iter_occurrences(w, P("1423")))
        # the subsequence 1927 is one of the occurrences
        assert brute_has_pattern((1, 9, 2, 7), (1, 4, 2, 3))
        assert occ == brute_occurrences(w.image, (1, 4, 2, 3))[0]
        assert tuple(w(i) for i in occ) == (3, 9, 6, 8)

    def test_absence(self):
        assert _avoids(P("314592687"), P("3241"))

    def test_trivial_pattern(self):
        for w in all_permutations(4):
            found = list(iter_occurrences(w, Permutation((1,))))
            assert found == [(1,), (2,), (3,), (4,)]

    def test_pattern_longer_than_host(self):
        with pytest.raises(ValueError):
            next(iter_occurrences(Permutation((1, 2)), Permutation((1, 2, 3))))

    def test_lexicographically_least_exhaustive(self):
        # every occurrence, in lexicographic position order, so the first
        # one is the least
        patterns = [P("321"), P("1423"), P("231"), P("21"), P("12345")]
        for w in all_permutations(5):
            for p in patterns:
                found = list(iter_occurrences(w, p))
                assert found == brute_occurrences(w.image, p.image), (w, p)


class TestAvoids:
    def test_goldens(self):
        assert _avoids(P("345619278"), P("321"))
        assert not _avoids(P("321"), P("321"))

    def test_count_of_321_avoiders_in_s5(self):
        assert sum(_avoids(w, P("321")) for w in all_permutations(5)) == 42

    def test_antitone_in_the_pattern(self):
        # if w avoids p and p' contains p, then w avoids p'
        small = list(all_permutations(3))
        bigger = list(all_permutations(4))
        for w in all_permutations(5):
            for p in small:
                if not _avoids(w, p):
                    continue
                for q in bigger:
                    if brute_has_pattern(q.image, p.image):
                        assert _avoids(w, q), (w, p, q)


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
        for n in range(1, 8):
            for w in all_permutations(n):
                assert is_fully_commutative(w) == brute_avoids_321(w.image)
                if n >= 3:
                    assert is_fully_commutative(w) == _avoids(w, pattern)

    def test_boolean_matches_brute_321_and_3412(self):
        for n in range(1, 8):
            for w in all_permutations(n):
                expected = brute_avoids_321(w.image) and not brute_has_pattern(
                    w.image, (3, 4, 1, 2)
                )
                assert is_boolean(w) == expected, w
