import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcperm import (
    BoundExceeded,
    Permutation,
    all_reduced_words,
    boolean_core,
    build_heap,
    canonical_reduced_word,
    commutation_class,
    count_linear_extensions,
    heap_of,
    is_boolean,
    is_reduced,
    labeled_linear_extensions,
    word_from_text,
)
from fcperm.weak_order import fc_elements


P = Permutation.from_text


def _transitive_reduction(heap):
    """Covers straight from the order: x < y with nothing strictly between."""
    return tuple(
        sorted(
            (x, y)
            for y in range(1, heap.size + 1)
            for x in heap.below[y - 1]
            if not any(x in heap.below[z - 1] for z in heap.below[y - 1])
        )
    )


class TestBuildHeap:
    def test_eleven_element_example(self):
        heap = build_heap(word_from_text("87234561234"))
        assert heap.size == 11
        # both letters 2 sit on a chain; the letter 8 is unrelated to either
        first_two, second_two = heap.elements_with_label(2)
        assert heap.less(first_two, second_two)
        (eight,) = heap.elements_with_label(8)
        for two in (first_two, second_two):
            assert not heap.less(eight, two) and not heap.less(two, eight)
        assert all(
            abs(heap.label(x) - heap.label(y)) == 1 for x, y in heap.covers
        )

    def test_single_letter(self):
        heap = build_heap((3,))
        assert heap.size == 1 and heap.covers == ()

    def test_rejects_non_reduced(self):
        with pytest.raises(ValueError):
            build_heap((1, 1))
        with pytest.raises(ValueError):
            build_heap((1, 2, 1, 2))  # braid-equivalent to a shorter word

    def test_local_covers_are_the_transitive_reduction(self):
        for n in range(1, 8):
            for w in fc_elements(n):
                heap = build_heap(canonical_reduced_word(w))
                assert heap.covers == _transitive_reduction(heap)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=14))
    def test_local_covers_on_arbitrary_reduced_words(self, letters):
        heap = build_heap(_reduced_prefix(letters))
        assert heap.covers == _transitive_reduction(heap)

    def test_identity_order_is_linear_extension(self):
        heap = build_heap(word_from_text("321546735"))
        for x in range(1, heap.size + 1):
            assert all(y < x for y in heap.below[x - 1])


class TestHeapIndependence:
    def test_all_words_of_fc_element_give_isomorphic_heaps(self):
        # isomorphic labeled heaps have the same labeled linear extensions
        for w in fc_elements(5):
            if w.is_identity():
                continue
            words = all_reduced_words(w)
            for word in words:
                assert labeled_linear_extensions(build_heap(word)) == words

    def test_braid_words_give_different_heaps(self):
        one = build_heap((1, 2, 1))
        other = build_heap((2, 1, 2))
        assert labeled_linear_extensions(one) != labeled_linear_extensions(other)

    def test_heap_of_requires_fully_commutative(self):
        with pytest.raises(ValueError):
            heap_of(Permutation((3, 2, 1)))


class TestLinearExtensions:
    def test_golden_membership(self):
        heap = build_heap(word_from_text("87234561234"))
        extensions = labeled_linear_extensions(heap)
        assert word_from_text("23451234876") in extensions
        assert word_from_text("87234561234") in extensions

    def test_single_element(self):
        assert labeled_linear_extensions(build_heap((4,))) == {(4,)}

    def test_extensions_are_the_reduced_words(self):
        for w in fc_elements(6):
            if w.is_identity():
                continue
            assert labeled_linear_extensions(heap_of(w)) == all_reduced_words(w)

    def test_bound_guard(self):
        heap = build_heap(word_from_text("87234561234"))
        with pytest.raises(BoundExceeded):
            labeled_linear_extensions(heap, bound=5)


def _reduced_prefix(letters):
    """The word keeping each letter that lengthens the product so far in S_7."""
    image = list(range(1, 8))
    kept = []
    for i in letters:
        if image[i - 1] < image[i]:
            image[i - 1], image[i] = image[i], image[i - 1]
            kept.append(i)
    return tuple(kept)


class TestCountLinearExtensions:
    def test_golden(self):
        heap = build_heap(word_from_text("87234561234"))
        assert count_linear_extensions(heap) == 1485

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(1, 6), max_size=14))
    def test_count_matches_listing_and_class(self, letters):
        word = _reduced_prefix(letters)
        heap = build_heap(word)
        count = count_linear_extensions(heap)
        assert count == len(labeled_linear_extensions(heap))
        assert count == len(commutation_class(word))


class TestBooleanCore:
    def test_goldens(self):
        assert boolean_core(P("345619278")).core == P("314569278")
        assert boolean_core(P("41623785")).core == P("41263785")
        assert boolean_core(P("41627385")).core == P("41263785")

    def test_boolean_elements_are_their_own_core(self):
        for w in fc_elements(6):
            if is_boolean(w):
                decomposition = boolean_core(w)
                assert decomposition.core == w
                assert decomposition.remainder.is_identity()

    def test_rejects_non_fully_commutative(self):
        with pytest.raises(ValueError):
            boolean_core(Permutation((3, 2, 1)))

    def test_split_word_is_reduced_and_recombines(self):
        for w in fc_elements(6):
            decomposition = boolean_core(w)
            full = decomposition.core_word + decomposition.remainder_word
            assert is_reduced(full, w.n) or not full
            assert (
                decomposition.core.compose(decomposition.remainder) == w
            )
            assert (
                decomposition.core.length() + decomposition.remainder.length()
                == w.length()
            )
            assert decomposition.core.support() == w.support()
            assert is_boolean(decomposition.core)

    def test_words_are_the_heap_label_minima(self):
        # the definition the core rests on: for each label, the minimal heap
        # element carrying it; those minima, read in position order, spell
        # the core word, and the other elements spell the remainder word
        for n in range(1, 9):
            for w in fc_elements(n):
                heap = build_heap(canonical_reduced_word(w))
                minima = [
                    x
                    for x in range(1, heap.size + 1)
                    if not any(
                        heap.less(y, x) for y in heap.elements_with_label(heap.label(x))
                    )
                ]
                rest = [x for x in range(1, heap.size + 1) if x not in minima]
                decomposition = boolean_core(w)
                assert decomposition.core_word == tuple(heap.label(x) for x in minima)
                assert decomposition.remainder_word == tuple(heap.label(x) for x in rest)

    def test_core_word_realizes_the_core(self):
        from fcperm import evaluate_word

        decomposition = boolean_core(P("41627385"))
        assert evaluate_word(decomposition.core_word, 8) == decomposition.core


class TestDot:
    def test_heap_dot_shape(self):
        heap = build_heap(word_from_text("87234561234"))
        dot = heap.to_dot()
        assert dot.startswith("digraph heap {")
        assert dot.count("[label=") == 11
        assert dot.count("->") == len(heap.covers)
        assert 'n1 [label="8 (1)"];' in dot
