"""Acceptance suite.

Four blocks: exact golden examples, the exhaustive sweep of every named
check at its full scope, counting checks against independent brute force,
and the standalone property tests.  Each sweep prints its own pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them all).
"""

import random
from itertools import combinations, permutations

import pytest

from fcperm import (
    Permutation,
    Tableau,
    boolean_core,
    build_heap,
    classify,
    fc_elements,
    is_minimal_crowded_direct,
    is_uncrowded_set,
    labeled_linear_extensions,
    minimal_crowded_subset,
    minimal_crowded_window,
    rsk,
    word_from_text,
)
from fcperm.checks import CHECKS, run_check

from conftest import wide_scan_is_uncrowded


P = Permutation.from_text


# -- 1. golden examples ------------------------------------------------------


class TestGoldenExamples:
    def test_insertion_tableaux(self):
        assert rsk(P("315264")).p == Tableau(((1, 2, 4), (3, 5, 6)))
        assert rsk(P("41623785")).p == Tableau(((1, 2, 3, 5, 8), (4, 6, 7)))
        assert rsk(P("41627385")).p == Tableau(((1, 2, 3, 5), (4, 6, 7, 8)))

    def test_boolean_cores(self):
        assert boolean_core(P("345619278")).core == P("314569278")
        assert boolean_core(P("41623785")).core == P("41263785")
        assert boolean_core(P("41627385")).core == P("41263785")

    def test_crowded_classification(self):
        assert classify(P("41627385")).window == (6, 7, 8)
        report = is_minimal_crowded_direct(P("41627385"))
        assert report.minimal
        assert report.descent_form
        assert report.descent_values_crowded
        assert report.fixed_outside
        assert report.pattern_consecutive
        assert report.window_patterns

    def test_heap_and_linear_extensions(self):
        heap = build_heap(word_from_text("87234561234"))
        assert heap.size == 11
        extensions = labeled_linear_extensions(heap)
        assert word_from_text("87234561234") in extensions
        assert word_from_text("23451234876") in extensions


# -- 2. exhaustive theorem sweeps at full scope ------------------------------

# (check, degree, cases at that degree)
FULL_SCOPES = [
    ("thm-2.10", 7, 5040),
    ("prop-2.9", 7, 5040),
    ("prop-2.2", 7, 5040),
    ("prop-2.3", 7, 5040),
    ("thm-3.2", 7, 429),
    ("thm-3.4", 8, 3003),
    ("cor-3.5", 7, 792),
    ("thm-4.11", 9, 102),
    ("cor-4.12", 8, 1430),
    ("lemma-5.1", 8, 3003),
    ("thm-5.10", 8, 1430),
    # supporting sweeps at the scopes the library documents
    ("lemma-2.1", 7, 30240),
    ("lemma-2.5", 7, 2186),
    ("prop-2.7", 6, 131),
    ("lemma-2.12", 7, 35280),
    ("cor-lis", 6, 892),
    ("lemma-row2", 7, 429),
    ("lemma-3.1", 7, 392),
    ("cor-3.7", 8, 1430),
    ("prop-2.14", 7, 33),
    ("lemma-5.2", 7, 396),
    ("lemma-5.4", 7, 330),
    ("knuth-classes", 6, 76),
    ("cor-left-q", 6, 210),
    ("downward-closure", 8, 3003),
    ("cor-5.5", 8, 6),
    ("cor-5.6", 8, 6),
    ("lemma-5.7", 8, 6),
    ("lemma-5.8", 9, 6),
    ("cor-5.9", 8, 6),
    ("lemma-2.11", 6, 2059),
]


def test_full_scopes_name_every_check_once_at_its_default_degree():
    names = [name for name, _n, _cases in FULL_SCOPES]
    assert len(names) == len(set(names))
    assert {name: n for name, n, _cases in FULL_SCOPES} == {
        name: default_n for name, (default_n, _sweep) in CHECKS.items()
    }


@pytest.mark.parametrize(
    "name,n,cases", FULL_SCOPES, ids=[f"{name}@S{n}" for name, n, _ in FULL_SCOPES]
)
def test_exhaustive_check(name, n, cases):
    result = run_check(name, n)
    print(result.summary())
    assert result.passed, result.summary()
    # the case count is a golden too: a sweep that shrinks must not pass
    assert result.cases == cases, result.summary()


# -- 3. counting checks ------------------------------------------------------


def _brute_avoids_321(image):
    return not any(
        image[a] > image[b] > image[c]
        for a, b, c in combinations(range(len(image)), 3)
    )


class TestCounts:
    def test_fully_commutative_counts(self):
        expected = [1, 2, 5, 14, 42, 132, 429, 1430]
        for n, target in enumerate(expected, start=1):
            brute = sum(
                1
                for image in permutations(range(1, n + 1))
                if _brute_avoids_321(image)
            )
            assert brute == target
            assert sum(1 for _ in fc_elements(n)) == target
        print("fc counts 1..8: pass")

    def test_no_crowded_permutations_below_degree_six(self):
        for n in range(1, 6):
            assert all(classify(w) is None for w in fc_elements(n))
        print("crowded count 0 for n <= 5: pass")


# -- 4. property tests -------------------------------------------------------


class TestProperties:
    def test_uncrowded_scan_agrees_on_all_subsets_of_ten(self):
        universe = list(range(1, 11))
        for size in range(len(universe) + 1):
            for subset in combinations(universe, size):
                assert is_uncrowded_set(subset) == wide_scan_is_uncrowded(subset)
        print("window scan vs wide scan on 2^10 subsets: pass")

    def test_minimal_crowded_subset_is_minimal(self):
        rng = random.Random(20240)
        found = 0
        while found < 300:
            subset = {v for v in range(1, 13) if rng.random() < 0.5}
            if is_uncrowded_set(subset):
                continue
            found += 1
            result = minimal_crowded_subset(subset)
            elements = set(result.window)
            assert elements <= subset and not is_uncrowded_set(elements)
            for drop in elements:
                assert is_uncrowded_set(elements - {drop})
            assert result.window == minimal_crowded_window(result.x, result.y)
        print("minimal crowded subsets on random inputs: pass")

    def test_bump_trace_on_large_random_permutations(self):
        rng = random.Random(99)
        for trial in range(10_000):
            n = rng.randint(1, 30)
            image = list(range(1, n + 1))
            rng.shuffle(image)
            w = Permutation(tuple(image))
            pos = {val: p for p, val in enumerate(w.image, start=1)}
            for letter, path in zip(w.image, rsk(w).trace.paths):
                assert path[0] == letter
                if len(path) == 1:
                    continue
                b, z = path[:2]
                assert b < z and pos[b] > pos[z]
                assert all(a < c for a, c in zip(path, path[1:]))
        print("bump trace on 10^4 random permutations: pass")
