import random
from itertools import product as words_of_length

import pytest

from fcperm import (
    BoundExceeded,
    Permutation,
    all_permutations,
    all_reduced_words,
    canonical_reduced_word,
    commutation_class,
    count_reduced_words,
    evaluate_word,
    is_boolean,
    is_fully_commutative,
    is_reduced,
    iter_reduced_words,
    word_from_text,
    word_to_text,
)

from fcperm.checks import _prop_2_2_verdicts, _prop_2_3_verdicts

from conftest import count_reduced_words as oracle_count_reduced_words


P = Permutation.from_text


class TestEvaluate:
    def test_goldens(self):
        assert evaluate_word((3, 2, 1, 5, 4, 6, 7), 8) == P("41263785")
        assert evaluate_word((3, 2, 1, 5, 4, 6, 7, 3, 5), 8) == P("41627385")
        assert evaluate_word((), 5).is_identity()
        assert evaluate_word((4, 2, 3, 2, 4, 1), 5) == P("51342")

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError):
            evaluate_word((5,), 5)
        with pytest.raises(ValueError):
            evaluate_word((0,), 5)


class TestIsReduced:
    def test_goldens(self):
        assert is_reduced((4, 2, 3, 2, 4, 1), 5)
        assert not is_reduced((1, 1), 3)

    def test_random_words_against_composition_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            letters = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 8)))
            # oracle: multiply explicit transposition permutations together
            product = Permutation.identity(6)
            for i in letters:
                swap = list(range(1, 7))
                swap[i - 1], swap[i] = swap[i], swap[i - 1]
                product = product.compose(Permutation(tuple(swap)))
            inversions = sum(
                1
                for a in range(6)
                for b in range(a + 1, 6)
                if product.image[a] > product.image[b]
            )
            assert is_reduced(letters, 6) == (inversions == len(letters))
            assert evaluate_word(letters, 6) == product

    def test_matches_the_count_over_all_of_s6_on_short_words(self):
        # the touched positions alone decide, exactly as counting every
        # inversion of the product in S_6 does
        for length in range(7):
            for letters in words_of_length(range(1, 6), repeat=length):
                full = evaluate_word(letters, 6).length() == length
                assert is_reduced(letters, 6) == full, letters

    def test_far_apart_letters_in_a_huge_degree(self):
        assert is_reduced((40720, 5), 40721)
        assert not is_reduced((40720, 40720), 40721)
        assert is_reduced((), 1)
        with pytest.raises(ValueError, match="out of range"):
            is_reduced((40721, 5), 40721)


class TestEnumeration:
    def test_golden_membership(self):
        assert (4, 2, 3, 2, 4, 1) in all_reduced_words(P("51342"))

    def test_single_reflection(self):
        w = Permutation.identity(5).times(3)
        assert all_reduced_words(w) == {(3,)}

    def test_long_element_of_s4(self):
        words = all_reduced_words(Permutation((4, 3, 2, 1)))
        assert len(words) == 16
        assert oracle_count_reduced_words(Permutation((4, 3, 2, 1))) == 16

    def test_counts_match_memoized_oracle(self):
        for w in all_permutations(5):
            assert len(all_reduced_words(w)) == oracle_count_reduced_words(w)

    def test_every_word_is_reduced_and_evaluates_back(self):
        for w in all_permutations(4):
            for word in iter_reduced_words(w):
                assert evaluate_word(word, 4) == w
                assert len(word) == w.length()

    def test_bound_guard(self):
        long_s6 = Permutation((6, 5, 4, 3, 2, 1))  # length 15
        with pytest.raises(BoundExceeded):
            all_reduced_words(long_s6)
        assert len(all_reduced_words(long_s6, bound=15)) == 292864

    def test_canonical_word_is_lexicographically_least(self):
        for w in all_permutations(5):
            words = all_reduced_words(w)
            canonical = canonical_reduced_word(w)
            assert canonical in words
            assert canonical == min(words) if words else canonical == ()


class TestCounting:
    def test_count_matches_enumeration(self):
        for w in all_permutations(5):
            assert count_reduced_words(w) == len(all_reduced_words(w))

    def test_count_matches_memoized_oracle(self):
        for w in all_permutations(6):
            assert count_reduced_words(w) == oracle_count_reduced_words(w)


def _brute_prop_2_2(w):
    """(fc, braid_free, single) from the full word list and one class."""
    words = list(iter_reduced_words(w))
    braid_free = not any(
        word[t] == word[t + 2] and abs(word[t] - word[t + 1]) == 1
        for word in words
        for t in range(len(word) - 2)
    )
    single = len(commutation_class(min(words))) == len(words)
    return is_fully_commutative(w), braid_free, single


def _brute_prop_2_3(w):
    """(boolean, some word distinct-lettered, every word distinct-lettered)."""
    distinct = [len(set(word)) == len(word) for word in iter_reduced_words(w)]
    return is_boolean(w), any(distinct), all(distinct)


class TestPropositionDeciders:
    """The memoized deciders behind prop-2.2 and prop-2.3 give the same
    verdicts, permutation by permutation, as listing every reduced word."""

    def test_prop_2_2_verdicts_match_enumeration(self):
        seen = set()
        for w, *verdicts in _prop_2_2_verdicts(5):
            assert tuple(verdicts) == _brute_prop_2_2(w), w.to_text()
            seen.add(tuple(verdicts))
        assert seen == {(True, True, True), (False, False, False)}

    def test_prop_2_3_verdicts_match_enumeration(self):
        seen = set()
        for w, *verdicts in _prop_2_3_verdicts(5):
            assert tuple(verdicts) == _brute_prop_2_3(w), w.to_text()
            seen.add(tuple(verdicts))
        assert seen == {(True, True, True), (False, False, False)}


def _class_count(w):
    """The number of commutation classes among the reduced words of w."""
    remaining, count = all_reduced_words(w), 0
    while remaining:
        cls = commutation_class(min(remaining))
        assert cls <= remaining  # a commutation move keeps a word reduced
        remaining -= cls
        count += 1
    return count


class TestCommutationClasses:
    def test_fully_commutative_has_one_class(self):
        assert _class_count(P("45123")) == 1
        # 51342 contains the decreasing subsequence 5,3,2, so it is not
        # fully commutative and its words split into several classes
        assert _class_count(P("51342")) == 3

    def test_commuting_pair(self):
        assert commutation_class((1, 3)) == {(1, 3), (3, 1)}
        assert all_reduced_words(Permutation((2, 1, 4, 3))) == {(1, 3), (3, 1)}

    def test_braid_classes(self):
        assert commutation_class((1, 2, 1)) == {(1, 2, 1)}
        assert commutation_class((2, 1, 2)) == {(2, 1, 2)}

    def test_single_class_iff_fully_commutative(self):
        for w in all_permutations(5):
            assert (_class_count(w) == 1) == is_fully_commutative(w)


class TestText:
    def test_compact_digits(self):
        assert word_to_text((4, 2, 3, 2, 4, 1)) == "423241"
        assert word_from_text("423241") == (4, 2, 3, 2, 4, 1)

    def test_comma_form_for_big_letters(self):
        assert word_to_text((10, 2)) == "10,2"
        assert word_from_text("10,2") == (10, 2)
        assert word_from_text("") == ()

    def test_bad_tokens(self):
        with pytest.raises(ValueError):
            word_from_text("1,x")
