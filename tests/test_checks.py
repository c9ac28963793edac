"""Every registered check passes at a reduced degree (fast smoke pass).

The full-scope runs happen in the acceptance suite.
"""

import dataclasses

import pytest

import fcperm
import fcperm.checks
import fcperm.crowding
import fcperm.heaps
import fcperm.weak_order
from fcperm.checks import CHECKS, run_check

SMALL_SCOPES = {
    "lemma-2.1": 5,
    "prop-2.2": 5,
    "prop-2.3": 5,
    "lemma-2.5": 6,
    "prop-2.7": 5,
    "prop-2.9": 5,
    "thm-2.10": 5,
    "lemma-2.11": 5,
    "lemma-2.12": 5,
    "cor-lis": 5,
    "lemma-row2": 6,
    "lemma-3.1": 6,
    "thm-3.2": 6,
    "thm-3.4": 6,
    "cor-3.5": 5,
    "cor-3.7": 6,
    "thm-4.11": 6,
    "cor-4.12": 6,
    "prop-2.14": 6,
    "lemma-5.1": 6,
    "lemma-5.2": 6,
    "lemma-5.4": 6,
    "knuth-classes": 5,
    "cor-left-q": 5,
    "downward-closure": 6,
    "cor-5.5": 7,
    "cor-5.6": 7,
    "lemma-5.7": 7,
    "lemma-5.8": 8,
    "cor-5.9": 7,
    "thm-5.10": 7,
}


def test_every_check_is_registered_with_a_scope():
    assert set(SMALL_SCOPES) == set(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_check_passes_at_small_scope(name):
    result = run_check(name, SMALL_SCOPES[name])
    assert result.passed, result.summary()
    assert result.counterexample is None


def test_default_scopes_are_recorded():
    for name, (default_n, _fn) in CHECKS.items():
        assert default_n >= SMALL_SCOPES[name]


def test_unknown_check_rejected():
    with pytest.raises(ValueError, match="unknown check"):
        run_check("thm-0.0")


def test_summary_mentions_counterexample_on_failure():
    from fcperm.checks import CheckResult

    failing = CheckResult(check="x", n=3, passed=False, cases=1, counterexample="321")
    assert "FAIL" in failing.summary() and "321" in failing.summary()


# Case counts at the default scope, for the checks that sweep the minimal
# crowded elements: a library fault that loses some of them shows here even
# when every remaining case still passes.
DEFAULT_SCOPE_CASES = {
    "cor-5.5": (8, 6),
    "cor-5.6": (8, 6),
    "lemma-5.7": (8, 6),
    "cor-5.9": (8, 6),
    "lemma-5.8": (9, 6),
}


@pytest.mark.parametrize("name", sorted(DEFAULT_SCOPE_CASES))
def test_default_scope_case_count_golden(name):
    n, cases = DEFAULT_SCOPE_CASES[name]
    result = run_check(name)
    assert (result.n, result.cases, result.passed) == (n, cases, True)


def test_narrow_witness_mutation_is_caught(monkeypatch):
    original = fcperm.crowding.find_crowded_witness

    def narrow(values):
        witness = original(values)
        return witness if witness is None or witness.x == 1 else None

    for namespace in (fcperm, fcperm.crowding, fcperm.checks):
        monkeypatch.setattr(namespace, "find_crowded_witness", narrow)
    for name, (_n, cases) in DEFAULT_SCOPE_CASES.items():
        result = run_check(name)
        assert not result.passed or result.cases != cases, result.summary()


def _off_by_one_table(table):
    """The reduced-word count table with every count above the identity's
    one too high."""
    return lambda n: {
        image: count + (image != tuple(sorted(image))) for image, count in table(n).items()
    }


@pytest.mark.parametrize(
    "counter, off_by_one",
    [
        ("reduced_word_counts", _off_by_one_table),
        ("count_linear_extensions", lambda count: lambda heap: count(heap) + (heap.size > 0)),
    ],
)
def test_prop_2_2_fails_under_an_off_by_one_counter(monkeypatch, counter, off_by_one):
    monkeypatch.setattr(fcperm.checks, counter, off_by_one(getattr(fcperm.checks, counter)))
    result = run_check("prop-2.2", 4)
    assert not result.passed
    assert result.counterexample


def test_thm_5_10_fails_when_minimality_skips_the_fixed_points(monkeypatch):
    original = fcperm.checks.is_minimal_crowded_direct

    def without_fixed_outside(w):
        report = original(w)
        minimal = (
            report.descent_form
            and report.descent_values_crowded
            and report.pattern_consecutive
            and report.window_patterns
        )
        return dataclasses.replace(report, minimal=minimal)

    monkeypatch.setattr(fcperm.checks, "is_minimal_crowded_direct", without_fixed_outside)
    result = run_check("thm-5.10", 8)
    assert not result.passed
    assert result.counterexample


def test_thm_5_10_fails_when_the_walk_loses_a_minimal_element(monkeypatch):
    original = fcperm.checks.uncrowded_frontier

    def drop_last_minimal(n):
        maximal_uncrowded, minimal_crowded = original(n)
        return maximal_uncrowded, minimal_crowded[:-1]

    monkeypatch.setattr(fcperm.checks, "uncrowded_frontier", drop_last_minimal)
    result = run_check("thm-5.10", 8)
    assert not result.passed
    assert result.counterexample == "4,1,6,2,7,3,8,5"  # the last of the six


@pytest.mark.parametrize("name, n", [("lemma-row2", 7), ("cor-3.5", 7), ("cor-5.9", 8)])
def test_checks_fail_when_row2_drops_its_largest_entry(monkeypatch, name, n):
    original = fcperm.checks.row2
    monkeypatch.setattr(fcperm.checks, "row2", lambda w: original(w)[:-1])
    result = run_check(name, n)
    assert not result.passed
    assert result.counterexample


@pytest.mark.parametrize(
    "name, counterexample",
    [
        ("prop-2.3", "3,4,1,2: boolean=True some=False all=False"),
        ("thm-3.2", "3,4,1,2 (uniqueness)"),
    ],
)
def test_checks_fail_when_boolean_means_fully_commutative(monkeypatch, name, counterexample):
    monkeypatch.setattr(fcperm.checks, "is_boolean", fcperm.checks.is_fully_commutative)
    result = run_check(name, 4)
    assert not result.passed
    assert result.counterexample == counterexample


def test_knuth_classes_fails_without_knuth_moves(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "knuth_neighbors", lambda w: [])
    result = run_check("knuth-classes", 4)
    assert not result.passed
    assert result.counterexample == "fiber of 1,2,4,3"


# The first counterexample at S_6 when rsk gives Q in place of P: checks
# that read P through a memo must still call the patched rsk.
RECORDING_AS_INSERTION = {
    "thm-3.4": "1,2,3,4,6,5 -> 1,2,3,6,4,5",
    "cor-3.5": "1,2,3,4,6,5 at 4",
    "cor-4.12": "1,2,5,6,3,4",
    "lemma-5.4": "1,2,3,6,4,5 at 4",
    "lemma-5.2": "1,2,3,5,6,4 at 5",
    "thm-4.11": "precondition failed: the insertion tableau does not change at index 4",
}


@pytest.mark.parametrize("name", sorted(RECORDING_AS_INSERTION))
def test_cover_checks_fail_when_rsk_returns_the_recording_tableau(monkeypatch, name):
    original = fcperm.checks.rsk

    def recording_as_insertion(w):
        return dataclasses.replace(original(w), p=original(w).q)

    monkeypatch.setattr(fcperm.checks, "rsk", recording_as_insertion)
    result = run_check(name, 6)
    assert not result.passed
    assert result.counterexample == RECORDING_AS_INSERTION[name]


def test_lemma_5_2_inserts_each_element_once(monkeypatch):
    original = fcperm.checks.rsk
    inserted = []

    def counted(w):
        inserted.append(w.image)
        return original(w)

    monkeypatch.setattr(fcperm.checks, "rsk", counted)
    result = run_check("lemma-5.2", 7)
    assert (result.passed, result.cases) == (True, 396)
    assert len(inserted) == len(set(inserted)) == 429


def test_cor_left_q_fails_when_rsk_swaps_its_tableaux(monkeypatch):
    original = fcperm.checks.rsk

    def swapped(w):
        result = original(w)
        return dataclasses.replace(result, p=result.q, q=result.p)

    monkeypatch.setattr(fcperm.checks, "rsk", swapped)
    result = run_check("cor-left-q", 6)
    assert (result.passed, result.counterexample) == (False, "1,2,3,4,6,5 at 4")


def test_lemma_2_1_fails_when_the_suffix_starts_one_position_early(monkeypatch):
    def suffix_one_early(w, i):
        return max(w.image[:i]), min(w.image[i - 1 :])

    monkeypatch.setattr(fcperm.Permutation, "support_stats", suffix_one_early)
    result = run_check("lemma-2.1", 4)
    assert (result.passed, result.counterexample) == (False, "1,2,3,4 at 1")


def test_prop_2_9_fails_when_rsk_returns_the_recording_tableau(monkeypatch):
    original = fcperm.checks.rsk

    def recording_as_insertion(w):
        return dataclasses.replace(original(w), p=original(w).q)

    monkeypatch.setattr(fcperm.checks, "rsk", recording_as_insertion)
    result = run_check("prop-2.9", 4)
    assert (result.passed, result.cases, result.counterexample) == (False, 4, "1,3,4,2")


def test_prop_2_9_fails_on_a_verdict_kept_for_the_inverse(monkeypatch):
    # 231 comes first in S_3, so the verdict of its inverse 312 is decided
    # there and read back when the sweep reaches 312, the fifth case
    original = fcperm.checks.rsk

    def wrong_recording_of_312(w):
        result = original(w)
        if w.image == (3, 1, 2):
            return dataclasses.replace(result, q=fcperm.Tableau(((1, 2), (3,))))
        return result

    monkeypatch.setattr(fcperm.checks, "rsk", wrong_recording_of_312)
    result = run_check("prop-2.9", 3)
    assert (result.passed, result.cases, result.counterexample) == (False, 5, "3,1,2")


def test_prop_2_14_fails_under_a_narrowed_witness(monkeypatch):
    # windows wider than x = 1 are missed, so a crowded tableau reads as
    # uncrowded; the first one that no boolean element has turns up at S_8
    original = fcperm.checks.find_crowded_witness

    def narrow(values):
        witness = original(values)
        return witness if witness is None or witness.x == 1 else None

    monkeypatch.setattr(fcperm.checks, "find_crowded_witness", narrow)
    result = run_check("prop-2.14", 8)
    assert (result.passed, result.cases, result.counterexample) == (
        False, 21, "tableau ((1, 2, 3, 6), (4, 5, 7, 8)): boolean=False uncrowded=True",
    )


@pytest.mark.parametrize(
    "name, n, cases, counterexample",
    [("cor-3.7", 6, 13, "1,2,5,6,3,4"), ("thm-3.2", 4, 13, "3,4,1,2")],
    ids=["cor-3.7", "thm-3.2"],
)
def test_checks_fail_when_the_core_keeps_the_last_occurrences(
    monkeypatch, name, n, cases, counterexample
):
    def last_occurrences(w):
        word = fcperm.canonical_reduced_word(w)
        last = [j for i, j in enumerate(word) if j not in word[i + 1 :]]
        return dataclasses.replace(
            fcperm.boolean_core(w), core=fcperm.evaluate_word(last, w.n)
        )

    monkeypatch.setattr(fcperm.checks, "boolean_core", last_occurrences)
    result = run_check(name, n)
    assert (result.passed, result.cases, result.counterexample) == (False, cases, counterexample)


# -- one-function mutants, each named for what it gets wrong -------------------


def _rsk_reads_right_to_left(monkeypatch):
    # P of the reversed word is the transpose, so rows and columns swap
    original = fcperm.checks.rsk
    monkeypatch.setattr(fcperm.checks, "rsk", lambda w: original(fcperm.Permutation(w.image[::-1])))


def _rsk_keeps_two_rows(monkeypatch):
    original = fcperm.checks.rsk

    def two_rows(w):
        result = original(w)
        return dataclasses.replace(result, p=fcperm.Tableau(result.p.rows[:2]))

    monkeypatch.setattr(fcperm.checks, "rsk", two_rows)


def _fully_commutative_means_boolean(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "is_fully_commutative", fcperm.checks.is_boolean)


def _rsk_rewrites_its_trace(bumps=lambda bumps: bumps, column=lambda col: col):
    """A mutant of rsk whose trace has each step's bump triples and each
    letter's first-row column rewritten."""

    def patch(monkeypatch):
        original = fcperm.checks.rsk

        def rewritten(w):
            result = original(w)
            trace = fcperm.BumpTrace(
                tuple(fcperm.InsertionStep(s.value, bumps(s.bumps)) for s in result.trace.events),
                {v: column(c) for v, c in result.trace.first_column.items()},
            )
            return dataclasses.replace(result, trace=trace)

        monkeypatch.setattr(fcperm.checks, "rsk", rewritten)

    return patch


def _covers_without_the_between_test(monkeypatch):
    # every pair x < y with labels within one, whatever lies between them
    def comparable(heap):
        letters = heap.labels
        return tuple(
            (x, y)
            for x, ux in enumerate(letters, start=1)
            for y, uy in enumerate(letters[x:], start=x + 1)
            if abs(ux - uy) <= 1
        )

    monkeypatch.setattr(fcperm.Heap, "covers", property(comparable))


def _bump_map_reversed(monkeypatch):
    original = fcperm.BumpTrace.row_bump_map
    monkeypatch.setattr(
        fcperm.BumpTrace, "row_bump_map", lambda trace: {b: z for z, b in original(trace).items()}
    )


def _row2_returns_row_1(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "row2", lambda w: fcperm.rsk(w).p.row(1))


def _reduced_words_lose_the_last(monkeypatch):
    original = fcperm.checks.all_reduced_words

    def without_the_last(w, bound):
        words = original(w, bound=bound)
        return words - {max(words)} if len(words) > 1 else words

    monkeypatch.setattr(fcperm.checks, "all_reduced_words", without_the_last)


def _heap_relates_equal_labels_only(monkeypatch):
    # labels one apart no longer meet, so nothing lies between two equal ones
    def build_heap(letters):
        below = [
            frozenset(x for x in range(1, y) if letters[x - 1] == u)
            for y, u in enumerate(letters, start=1)
        ]
        return fcperm.Heap(tuple(letters), tuple(below))

    monkeypatch.setattr(fcperm.heaps, "build_heap", build_heap)


def _descents_lose_the_last(monkeypatch):
    original = fcperm.Permutation.descents
    monkeypatch.setattr(
        fcperm.Permutation, "descents", lambda w: original(w) - {max(original(w), default=0)}
    )


def _frontier_row2_drops_its_largest_entry(monkeypatch):
    # uncrowded_frontier then decides crowdedness on a short second row
    original = fcperm.weak_order.row2
    monkeypatch.setattr(fcperm.weak_order, "row2", lambda w: original(w)[:-1])


def _bump_pairs_reversed(monkeypatch):
    original = fcperm.checks.bump_pairs
    monkeypatch.setattr(fcperm.checks, "bump_pairs", lambda w: original(w)[::-1])


def _extractor_keeps_the_whole_set(monkeypatch):
    # still a crowded witness with the right x and y, but not a minimal one
    original = fcperm.checks.minimal_crowded_subset

    def whole(values):
        found = original(values)
        return fcperm.CrowdedWitness(found.x, found.y, window=tuple(sorted(values)))

    monkeypatch.setattr(fcperm.checks, "minimal_crowded_subset", whole)


# id -> (check, the smallest degree at which the mutant makes it fail,
# mutant, cases up to the failure, counterexample)
VERDICT_TURNING_MUTANTS = {
    "thm-2.10-row": ("thm-2.10", 2, _rsk_reads_right_to_left, 1, "1,2 (row)"),
    "thm-2.10-column": ("thm-2.10", 3, _rsk_keeps_two_rows, 6, "3,2,1 (column)"),
    "thm-2.10-two-row-test": (
        "thm-2.10", 4, _fully_commutative_means_boolean, 17, "3,4,1,2 (two-row test)",
    ),
    "downward-closure": (
        "downward-closure", 5, _fully_commutative_means_boolean, 47, "3,4,1,5,2 at 4",
    ),
    "lemma-2.11-bump": (
        "lemma-2.11", 2,
        _rsk_rewrites_its_trace(bumps=lambda bumps: tuple((z, b, r) for b, z, r in bumps)),
        1, "2,1 bump (2, 1)",
    ),
    "lemma-2.11-cascade": (
        "lemma-2.11", 3,
        _rsk_rewrites_its_trace(
            bumps=lambda bumps: tuple((b, z, r) if r == 1 else (z, b, r) for b, z, r in bumps)
        ),
        6, "3,2,1 cascade",
    ),
    "lemma-2.12": (
        "lemma-2.12", 1, _rsk_rewrites_its_trace(column=lambda col: col - 1), 1, "1 value 1",
    ),
    "lemma-2.5": ("lemma-2.5", 4, _covers_without_the_between_test, 13, "3,4,1,2 cover (1, 4)"),
    "cor-5.5-at-d": ("cor-5.5", 6, _bump_map_reversed, 1, "4,1,5,2,6,3 at 1"),
    "cor-5.5-value-z": ("cor-5.5", 6, _row2_returns_row_1, 1, "4,1,5,2,6,3 value 1"),
    "prop-2.7": ("prop-2.7", 4, _reduced_words_lose_the_last, 6, "2,1,4,3"),
    "cor-lis": ("cor-lis", 2, _rsk_reads_right_to_left, 1, "2,1 value 1"),
    "lemma-3.1": (
        "lemma-3.1", 4, _heap_relates_equal_labels_only, 1, "3,4,1,2 label 2 pair (1, 4)",
    ),
    "cor-5.6": ("cor-5.6", 6, _descents_lose_the_last, 1, "4,1,5,2,6,3"),
    "lemma-5.7": (
        "lemma-5.7", 9, _frontier_row2_drops_its_largest_entry, 3, "4,1,5,2,6,3,7,9,8",
    ),
    "lemma-5.8": ("lemma-5.8", 8, _bump_pairs_reversed, 1, "3,1,6,2,7,4,8,5 index 1"),
    "cor-5.9-extractor-mismatch": (
        "cor-5.9", 8, _extractor_keeps_the_whole_set, 3,
        "3,1,6,2,7,4,8,5 (extractor mismatch)",
    ),
}


@pytest.mark.parametrize("mutant_id", sorted(VERDICT_TURNING_MUTANTS))
def test_check_fails_under_a_one_function_mutant(monkeypatch, mutant_id):
    name, n, mutate, cases, counterexample = VERDICT_TURNING_MUTANTS[mutant_id]
    mutate(monkeypatch)
    result = run_check(name, n)
    assert (result.passed, result.cases, result.counterexample) == (False, cases, counterexample)
    if n > 1:
        assert run_check(name, n - 1).passed  # n is the smallest failing degree
