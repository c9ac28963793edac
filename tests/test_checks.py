"""Every registered check passes at a reduced degree (fast smoke pass).

The full-scope runs happen in the acceptance suite.
"""

import dataclasses

import pytest

import fcperm
import fcperm.checks
import fcperm.crowding
import fcperm.heaps
import fcperm.permutations
import fcperm.weak_order
import fcperm.words
from fcperm.checks import CHECKS, run_check
from fcperm.crowding import InvariantViolation

from conftest import loose_fc_covers

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


def _narrowed(find):
    """``find_crowded_witness`` blind to windows wider than x = 1."""

    def narrow(values):
        witness = find(values)
        return witness if witness is None or witness.x == 1 else None

    return narrow


def test_narrow_witness_mutation_is_caught(monkeypatch):
    narrow = _narrowed(fcperm.crowding.find_crowded_witness)
    for namespace in (fcperm, fcperm.crowding, fcperm.checks):
        monkeypatch.setattr(namespace, "find_crowded_witness", narrow)
    for name, (_n, cases) in DEFAULT_SCOPE_CASES.items():
        result = run_check(name)
        assert not result.passed or result.cases != cases, result.summary()


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


def _rsk_rewrites_its_trace(
    paths=lambda path: path, column=lambda col: col, module=fcperm.checks
):
    """A mutant of ``module``'s rsk whose trace has each letter's bumping
    route and first-row column rewritten."""

    def patch(monkeypatch):
        original = module.rsk

        def rewritten(w):
            result = original(w)
            trace = fcperm.BumpTrace(
                tuple(map(paths, result.trace.paths)),
                {v: column(c) for v, c in result.trace.first_column.items()},
            )
            return dataclasses.replace(result, trace=trace)

        monkeypatch.setattr(module, "rsk", rewritten)

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
    def heap_of_reduced(letters):
        below = [
            frozenset(x for x in range(1, y) if letters[x - 1] == u)
            for y, u in enumerate(letters, start=1)
        ]
        return fcperm.Heap(tuple(letters), tuple(below))

    monkeypatch.setattr(fcperm.heaps, "heap_of_reduced", heap_of_reduced)


def _heap_keeps_direct_relations_only(monkeypatch):
    # x below y only when their labels are within one: no transitive closure
    def heap_of_reduced(letters):
        below = [
            frozenset(x for x in range(1, y) if abs(letters[x - 1] - u) <= 1)
            for y, u in enumerate(letters, start=1)
        ]
        return fcperm.Heap(tuple(letters), tuple(below))

    monkeypatch.setattr(fcperm.heaps, "heap_of_reduced", heap_of_reduced)


def _descents_lose_the_last(monkeypatch):
    original = fcperm.Permutation.descents
    monkeypatch.setattr(
        fcperm.Permutation, "descents", lambda w: original(w) - {max(original(w), default=0)}
    )


def _row2_drops_its_largest_entry(module):
    # in weak_order, fc_crowding decides crowdedness on a short row
    def patch(monkeypatch):
        original = module.row2
        monkeypatch.setattr(module, "row2", lambda w: original(w)[:-1])

    return patch


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


def _swaps_lose_the_last(name):
    # the weak-order step of permutations, short of its highest index
    def patch(monkeypatch):
        original = getattr(fcperm.permutations, name)

        def without_the_last(image):
            yield from list(original(image))[:-1]

        for module in (fcperm.permutations, fcperm.words, fcperm.weak_order, fcperm.checks):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, without_the_last)

    return patch


def _word_counts_one_too_high(monkeypatch):
    # every count above the identity's
    original = fcperm.checks.reduced_word_counts

    def one_too_high(n):
        return {image: c + (image != tuple(sorted(image))) for image, c in original(n).items()}

    monkeypatch.setattr(fcperm.checks, "reduced_word_counts", one_too_high)


def _class_sizes_one_too_high(monkeypatch):
    original = fcperm.checks.count_linear_extensions
    monkeypatch.setattr(
        fcperm.checks, "count_linear_extensions", lambda heap: original(heap) + (heap.size > 0)
    )


def _minimality_skips_the_fixed_points(monkeypatch):
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


def _frontier_loses_the_last_minimal(monkeypatch):
    original = fcperm.checks.uncrowded_frontier

    def drop_last_minimal(n):
        return original(n)[:-1]

    monkeypatch.setattr(fcperm.checks, "uncrowded_frontier", drop_last_minimal)


def _boolean_means_fully_commutative(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "is_boolean", fcperm.checks.is_fully_commutative)


def _no_knuth_moves(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "knuth_neighbors", lambda w: [])


def _rsk_rewrites_its_tableaux(tableaux, module=fcperm.checks):
    """A mutant of ``module``'s rsk whose (p, q) becomes ``tableaux(p, q)``."""

    def patch(monkeypatch):
        original = module.rsk

        def rewritten(w):
            result = original(w)
            p, q = tableaux(result.p, result.q)
            return dataclasses.replace(result, p=p, q=q)

        monkeypatch.setattr(module, "rsk", rewritten)

    return patch


def _rsk_miswrites_the_recording_of_312(monkeypatch):
    original = fcperm.checks.rsk

    def wrong_recording_of_312(w):
        result = original(w)
        if w.image == (3, 1, 2):
            return dataclasses.replace(result, q=fcperm.Tableau(((1, 2), (3,))))
        return result

    monkeypatch.setattr(fcperm.checks, "rsk", wrong_recording_of_312)


def _suffix_starts_one_position_early(monkeypatch):
    def suffix_one_early(w, i):
        return max(w.image[:i]), min(w.image[i - 1 :])

    monkeypatch.setattr(fcperm.Permutation, "support_stats", suffix_one_early)


def _witness_narrowed(monkeypatch):
    narrow = _narrowed(fcperm.checks.find_crowded_witness)
    monkeypatch.setattr(fcperm.checks, "find_crowded_witness", narrow)


def _core_keeps_the_last_occurrences(monkeypatch):
    def last_occurrences(w):
        word = fcperm.canonical_reduced_word(w)
        last = [j for i, j in enumerate(word) if j not in word[i + 1 :]]
        return dataclasses.replace(
            fcperm.boolean_core(w), core=fcperm.evaluate_word(last, w.n)
        )

    monkeypatch.setattr(fcperm.checks, "boolean_core", last_occurrences)


def _covers_reach_past_the_fc_elements(monkeypatch):
    monkeypatch.setattr(fcperm.checks, "fc_covers", loose_fc_covers)


# the cover checks read P through a memo, which must still call the patched rsk
_recording_as_insertion = _rsk_rewrites_its_tableaux(lambda p, q: (q, q))
_rsk_swaps_its_tableaux = _rsk_rewrites_its_tableaux(lambda p, q: (q, p))


# id -> (check, the smallest degree at which the mutant makes it fail,
# mutant, cases up to the failure, counterexample)
VERDICT_TURNING_MUTANTS = {
    "lemma-2.1": ("lemma-2.1", 2, _suffix_starts_one_position_early, 1, "1,2 at 1"),
    "prop-2.2-word-counts-one-too-high": (
        "prop-2.2", 2, _word_counts_one_too_high, 2, "2,1: fc=True braid_free=True single=False",
    ),
    "prop-2.2-class-sizes-one-too-high": (
        "prop-2.2", 2, _class_sizes_one_too_high, 2, "2,1: fc=True braid_free=True single=False",
    ),
    "prop-2.2-descent-swaps": (
        "prop-2.2", 3, _swaps_lose_the_last("descent_swaps"), 6,
        "3,2,1: fc=False braid_free=True single=False",
    ),
    "prop-2.2-ascent-swaps": (
        "prop-2.2", 2, _swaps_lose_the_last("ascent_swaps"), 2, "2,1: no reduced-word count",
    ),
    "prop-2.3": (
        "prop-2.3", 4, _boolean_means_fully_commutative, 17,
        "3,4,1,2: boolean=True some=False all=False",
    ),
    "lemma-2.5": ("lemma-2.5", 4, _covers_without_the_between_test, 13, "3,4,1,2 cover (1, 4)"),
    "prop-2.7": ("prop-2.7", 4, _reduced_words_lose_the_last, 6, "2,1,4,3"),
    "prop-2.9-recording-as-insertion": ("prop-2.9", 3, _recording_as_insertion, 4, "2,3,1"),
    # 231 comes first in S_3, so the verdict of its inverse 312 is decided
    # there and read back when the sweep reaches 312, the fifth case
    "prop-2.9-kept-inverse-verdict": (
        "prop-2.9", 3, _rsk_miswrites_the_recording_of_312, 5, "3,1,2",
    ),
    "thm-2.10-row": ("thm-2.10", 2, _rsk_reads_right_to_left, 1, "1,2 (row)"),
    "thm-2.10-column": ("thm-2.10", 3, _rsk_keeps_two_rows, 6, "3,2,1 (column)"),
    "thm-2.10-two-row-test": (
        "thm-2.10", 4, _fully_commutative_means_boolean, 17, "3,4,1,2 (two-row test)",
    ),
    "lemma-2.11-bump": (
        "lemma-2.11", 2,
        # each route's first two entries swapped
        _rsk_rewrites_its_trace(paths=lambda path: path[1::-1] + path[2:]),
        1, "2,1 bump (2, 1)",
    ),
    "lemma-2.11-cascade": (
        "lemma-2.11", 3,
        # each route's displaced values reversed
        _rsk_rewrites_its_trace(paths=lambda path: path[:1] + path[:0:-1]),
        6, "3,2,1 cascade",
    ),
    "lemma-2.12": (
        "lemma-2.12", 1, _rsk_rewrites_its_trace(column=lambda col: col - 1), 1, "1 value 1",
    ),
    "cor-lis": ("cor-lis", 2, _rsk_reads_right_to_left, 1, "2,1 value 1"),
    "cor-lis-column": (
        "cor-lis", 1, _rsk_rewrites_its_trace(column=lambda col: col - 1), 1, "1 value 1",
    ),
    "lemma-row2": ("lemma-row2", 2, _row2_drops_its_largest_entry(fcperm.checks), 2, "2,1"),
    "lemma-3.1": (
        "lemma-3.1", 4, _heap_relates_equal_labels_only, 1, "3,4,1,2 label 2 pair (1, 4)",
    ),
    "lemma-3.1-direct-relations-only": (
        "lemma-3.1", 5, _heap_keeps_direct_relations_only, 2, "2,4,5,1,3 (order not transitive)",
    ),
    "thm-3.2-boolean-means-fc": (
        "thm-3.2", 4, _boolean_means_fully_commutative, 13, "3,4,1,2 (uniqueness)",
    ),
    "thm-3.2-core-keeps-the-last": (
        "thm-3.2", 4, _core_keeps_the_last_occurrences, 13, "3,4,1,2",
    ),
    "thm-3.2-descent-swaps": (
        "thm-3.2", 4, _swaps_lose_the_last("descent_swaps"), 13, "3,4,1,2 (uniqueness)",
    ),
    "thm-3.4": ("thm-3.4", 3, _recording_as_insertion, 3, "1,3,2 -> 3,1,2"),
    "cor-3.5-recording-as-insertion": ("cor-3.5", 3, _recording_as_insertion, 3, "1,3,2 at 1"),
    "cor-3.5-row2-short": (
        "cor-3.5", 2, _row2_drops_its_largest_entry(fcperm.checks), 1, "1,2 at 1 (row growth)",
    ),
    "cor-3.7": ("cor-3.7", 4, _core_keeps_the_last_occurrences, 13, "3,4,1,2"),
    "thm-4.11": (
        "thm-4.11", 4, _recording_as_insertion, 1,
        "precondition failed: the insertion tableau does not change at index 2",
    ),
    "cor-4.12": ("cor-4.12", 4, _recording_as_insertion, 13, "3,4,1,2"),
    # windows wider than x = 1 are missed, so a crowded tableau reads as
    # uncrowded; the first one that no boolean element has turns up at S_8
    "prop-2.14": (
        "prop-2.14", 8, _witness_narrowed, 21,
        "tableau ((1, 2, 3, 6), (4, 5, 7, 8)): boolean=False uncrowded=True",
    ),
    "lemma-5.1": (
        "lemma-5.1", 6, _covers_reach_past_the_fc_elements, 315,
        "4,1,6,5,2,3 is not fully commutative",
    ),
    "lemma-5.2": ("lemma-5.2", 3, _recording_as_insertion, 1, "2,3,1 at 2"),
    "lemma-5.4": ("lemma-5.4", 3, _recording_as_insertion, 1, "3,1,2 at 1"),
    "knuth-classes": ("knuth-classes", 3, _no_knuth_moves, 2, "fiber of 1,3,2"),
    "cor-left-q": ("cor-left-q", 3, _rsk_swaps_its_tableaux, 3, "1,3,2 at 1"),
    "downward-closure": (
        "downward-closure", 5, _fully_commutative_means_boolean, 47, "3,4,1,5,2 at 4",
    ),
    "cor-5.5-at-d": ("cor-5.5", 6, _bump_map_reversed, 1, "4,1,5,2,6,3 at 1"),
    "cor-5.5-value-z": ("cor-5.5", 6, _row2_returns_row_1, 1, "4,1,5,2,6,3 value 1"),
    "cor-5.6": ("cor-5.6", 6, _descents_lose_the_last, 1, "4,1,5,2,6,3"),
    # the short-row frontier is empty below S_8; at S_8 its first element
    # sits above the minimal crowded 41526378
    "cor-5.6-row2-short": (
        "cor-5.6", 8, _row2_drops_its_largest_entry(fcperm.weak_order), 1,
        "4,1,5,2,6,3,8,7 (not minimal crowded)",
    ),
    "lemma-5.7": (
        "lemma-5.7", 9, _row2_drops_its_largest_entry(fcperm.weak_order), 3, "4,1,5,2,6,3,7,9,8",
    ),
    # the reversed word starts at the last bumped value, so its window runs
    # past the end of the one-line notation: the element is the counterexample
    "lemma-5.7-bump-pairs-reversed": ("lemma-5.7", 6, _bump_pairs_reversed, 1, "4,1,5,2,6,3"),
    "lemma-5.8": ("lemma-5.8", 8, _bump_pairs_reversed, 1, "3,1,6,2,7,4,8,5 index 1"),
    "cor-5.9-row2-short": (
        "cor-5.9", 6, _row2_drops_its_largest_entry(fcperm.checks), 1, "4,1,5,2,6,3",
    ),
    "cor-5.9-extractor-mismatch": (
        "cor-5.9", 8, _extractor_keeps_the_whole_set, 3,
        "3,1,6,2,7,4,8,5 (extractor mismatch)",
    ),
    "thm-5.10-skips-the-fixed-points": (
        "thm-5.10", 7, _minimality_skips_the_fixed_points, 251, "2,5,1,6,3,7,4",
    ),
    "thm-5.10-walk-loses-a-minimal": (
        "thm-5.10", 6, _frontier_loses_the_last_minimal, 119, "4,1,5,2,6,3",
    ),
    "thm-5.10-descent-swaps": (
        "thm-5.10", 6, _swaps_lose_the_last("descent_swaps"), 120, "4,1,5,6,2,3",
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


def test_every_registered_check_has_a_kill():
    assert {name for name, *_ in VERDICT_TURNING_MUTANTS.values()} == set(CHECKS)


def _bump_map_drops_its_last_pair(monkeypatch):
    original = fcperm.BumpTrace.row_bump_map
    monkeypatch.setattr(
        fcperm.BumpTrace, "row_bump_map", lambda trace: dict(list(original(trace).items())[:-1])
    )


# group of analyze_transition's deductions -> (mutant, the InvariantViolation
# message that thm-4.11 raises at S_6, where the first tableau-changing cover
# that keeps the support appears; S_5 has none, so the check passes there).
# The last group, the crowded target, is pinned by test_cli's
# test_a_transition_that_lands_uncrowded_exits_three.
DEDUCTION_BREAKING_MUTANTS = {
    "3142-occurrence": (
        _suffix_starts_one_position_early,
        "4,1,2,5,6,3@3: expected v(i) < suffix_min < prefix_max < v(i+1)",
    ),
    "unique-moved-value": (
        # P keeps only its first row
        _rsk_rewrites_its_tableaux(lambda p, q: (fcperm.Tableau(p.rows[:1]), q), fcperm.crowding),
        "4,1,2,5,6,3@3: expected a unique value moving to row 2, got []",
    ),
    "prefix-max-bump": (
        # each route's first two entries swapped
        _rsk_rewrites_its_trace(paths=lambda path: path[1::-1] + path[2:], module=fcperm.crowding),
        "4,1,2,5,6,3@3: prefix_max not bumped by the run before the swap",
    ),
    "suffix-min-bump": (
        _bump_map_drops_its_last_pair, "4,1,2,5,6,3@3: v(i+1) is not bumped by suffix_min",
    ),
    # a uniform shift of every column is invisible here, since the chain
    # compares only differences; lemma-2.12 and cor-lis catch that one
    "column-chain": (
        _rsk_rewrites_its_trace(column=lambda col: col + col % 2, module=fcperm.crowding),
        "4,1,2,5,6,3@3: run column drifts at 6",
    ),
}


@pytest.mark.parametrize("mutant_id", sorted(DEDUCTION_BREAKING_MUTANTS))
def test_thm_4_11_deduction_breaks_under_a_one_function_mutant(monkeypatch, mutant_id):
    mutate, message = DEDUCTION_BREAKING_MUTANTS[mutant_id]
    mutate(monkeypatch)
    with pytest.raises(InvariantViolation) as info:
        run_check("thm-4.11", 6)
    assert str(info.value) == message
    assert run_check("thm-4.11", 5).passed
