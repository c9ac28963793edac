import dataclasses
import json
import random
from itertools import combinations

import pytest

from fcperm import (
    BumpTrace,
    InvariantViolation,
    Permutation,
    Tableau,
    analyze_transition,
    boolean_core,
    CrowdedWitness,
    classify,
    find_crowded_witness,
    is_fully_commutative,
    is_minimal_crowded_direct,
    is_uncrowded_set,
    minimal_crowded,
    minimal_crowded_subset,
    minimal_crowded_window,
    row2,
    rsk,
)
import fcperm.crowding
from fcperm.checks import run_check
from fcperm.cli import main
from fcperm.permutations import descent_swaps
from fcperm.weak_order import fc_covers, fc_elements
from fcperm.patterns import iter_occurrences

from conftest import (
    brute_avoids_321, list_row_insertion, minimality_conditions, wide_scan_is_uncrowded,
)


P = Permutation.from_text


def _listed_pattern_consecutive(w):
    """415263 occurs, and only consecutively, decided by listing every
    occurrence first."""
    if w.n < 6:
        return False
    occurrences = list(iter_occurrences(w, P("415263")))
    return bool(occurrences) and all(
        occ[-1] - occ[0] == 5 for occ in occurrences
    )


def _interleaving(h):
    """(h+1, 1, h+2, 2, ..., 2h, h): fully commutative, with 415263
    occurring both consecutively and spread out."""
    return Permutation(tuple(v for i in range(1, h + 1) for v in (h + i, i)))


def _scan_for_witness(values):
    """(x, y, window) from the prefix-count window scan alone, with no pass
    deciding crowdedness first; None for an uncrowded set."""
    members = sorted(set(values))
    if len(members) <= 2:
        return None
    lo, hi = members[0], members[-1]
    below = [0] * (hi - lo + 2)
    for v in members:
        below[v - lo + 1] = 1
    for i in range(1, len(below)):
        below[i] += below[i - 1]
    for x in range(1, (hi - lo) // 2 + 1):
        for y in range(lo, hi - 2 * x + 1):
            if below[y - lo + 2 * x + 1] - below[y - lo] > x + 1:
                return x, y, tuple(v for v in members if y <= v <= y + 2 * x)
    return None


def _candidates_and_filter_subset(values):
    """(x, y, elements) by listing every standard window inside the set's
    span, keeping the inclusion-minimal ones, and taking the largest y,
    then the smallest x."""
    members = frozenset(values)
    lo, hi = min(members), max(members)
    candidates = []
    for x in range(1, (hi - lo) // 2 + 1):
        for y in range(lo, hi - 2 * x + 1):
            window = minimal_crowded_window(x, y)
            if members.issuperset(window):
                candidates.append((x, y, frozenset(window)))
    minimal = [
        (x, y, s)
        for x, y, s in candidates
        if not any(t < s for _, _, t in candidates)
    ]
    x, y, s = max(minimal, key=lambda item: (item[1], -item[0]))
    return x, y, tuple(sorted(s))


class TestUncrowdedSets:
    def test_goldens(self):
        assert is_uncrowded_set({3, 5, 6})
        witness = find_crowded_witness({4, 5, 6})
        assert (witness.x, witness.y, witness.window) == (1, 4, (4, 5, 6))
        assert is_uncrowded_set(set())
        assert not is_uncrowded_set({6, 7, 8})

    def test_agrees_with_wide_scan_on_all_small_subsets(self):
        universe = list(range(1, 11))
        for size in range(len(universe) + 1):
            for subset in combinations(universe, size):
                assert is_uncrowded_set(subset) == wide_scan_is_uncrowded(subset)

    def test_witness_is_the_tightest_leftmost_window(self):
        # smallest radius x first, then leftmost y, scanning y up from min L
        for size in range(1, 11):
            for subset in combinations(range(1, 11), size):
                violating = [
                    (x, y)
                    for x in range(1, 10)
                    for y in range(subset[0], 11)
                    if sum(1 for v in subset if y <= v <= y + 2 * x) > x + 1
                ]
                witness = find_crowded_witness(subset)
                found = None if witness is None else (witness.x, witness.y)
                assert found == min(violating, default=None)

    def test_witness_matches_the_window_scan_on_all_subsets_of_twelve(self):
        # the one scan over consecutive members finds the window scan's witness
        for size in range(13):
            for subset in combinations(range(1, 13), size):
                witness = find_crowded_witness(subset)
                found = None if witness is None else (witness.x, witness.y, witness.window)
                assert found == _scan_for_witness(subset), subset

    def test_witness_really_violates(self):
        rng = random.Random(11)
        for _ in range(500):
            subset = {v for v in range(1, 13) if rng.random() < 0.5}
            witness = find_crowded_witness(subset)
            if witness is None:
                continue
            inside = sorted(
                v for v in subset if witness.y <= v <= witness.y + 2 * witness.x
            )
            assert tuple(inside) == witness.window
            assert len(inside) > witness.x + 1


class TestMinimalCrowdedSubset:
    def test_window_shapes(self):
        assert minimal_crowded_window(1, 6) == (6, 7, 8)
        assert minimal_crowded_window(2, 4) == (4, 5, 7, 8)
        assert minimal_crowded_window(3, 1) == (1, 2, 4, 6, 7)

    def test_goldens(self):
        assert minimal_crowded_subset({4, 6, 7, 8}).window == (6, 7, 8)
        chosen = minimal_crowded_subset({4, 5, 6})
        assert (chosen.x, chosen.y, chosen.window) == (1, 4, (4, 5, 6))

    def test_rejects_uncrowded(self):
        with pytest.raises(ValueError):
            minimal_crowded_subset({3, 5, 6})

    def test_every_crowded_subset_of_ten_has_a_standard_window(self):
        universe = list(range(1, 11))
        for size in range(3, len(universe) + 1):
            for subset in combinations(universe, size):
                if is_uncrowded_set(subset):
                    continue
                result = minimal_crowded_subset(subset)
                assert set(result.window) <= set(subset)
                assert not is_uncrowded_set(result.window)
                assert result.window == minimal_crowded_window(result.x, result.y)

    def test_matches_the_candidates_and_filter_on_all_subsets_of_twelve(self):
        crowded = 0
        for size in range(3, 13):
            for subset in combinations(range(1, 13), size):
                if is_uncrowded_set(subset):
                    continue
                crowded += 1
                result = minimal_crowded_subset(subset)
                found = (result.x, result.y, result.window)
                assert found == _candidates_and_filter_subset(subset), subset
        assert crowded == 2665  # of the 4,096 subsets

    def test_standard_windows_are_pairwise_incomparable(self):
        # so no candidate is ever dropped as non-minimal
        windows = [
            frozenset(minimal_crowded_window(x, y))
            for x in range(1, 7)
            for y in range(1, 15 - 2 * x)
        ]
        assert max(max(s) for s in windows) == 14
        for s in windows:
            assert not any(t < s for t in windows)

    def test_random_crowded_sets(self):
        rng = random.Random(3)
        found = 0
        while found < 200:
            subset = {v for v in range(1, 13) if rng.random() < 0.55}
            if is_uncrowded_set(subset):
                continue
            found += 1
            result = minimal_crowded_subset(subset)
            elements = set(result.window)
            assert elements <= subset
            assert not is_uncrowded_set(elements)
            for drop in elements:
                assert is_uncrowded_set(elements - {drop})
            assert result.window == minimal_crowded_window(result.x, result.y)


class TestClassify:
    def test_goldens(self):
        assert classify(P("41623785")) is None
        assert classify(P("41627385")) == CrowdedWitness(x=1, y=6, window=(6, 7, 8))
        assert classify(Permutation.identity(5)) is None

    def test_rejects_non_fully_commutative(self):
        with pytest.raises(ValueError):
            classify(Permutation((3, 2, 1)))

    def test_json_report(self, capsys):
        # `analyze --json` writes the verdict that classify returns
        for w in fc_elements(7):
            assert main(["analyze", w.to_text(), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)["classification"]
            witness = classify(w)
            assert report["verdict"] == ("uncrowded" if witness is None else "crowded")
            assert report["row2"] == list(row2(w))
            if witness is None:
                assert "witness" not in report
            else:
                assert report["witness"] == {
                    "x": witness.x, "y": witness.y, "window": list(witness.window),
                }


class TestUncrowdedIffCore:
    # cor-4.12 compares the two sides over every FC element of S_8
    def test_goldens(self):
        v = P("41623785")
        assert classify(v) is None
        assert rsk(boolean_core(v).core).p == rsk(v).p == Tableau(((1, 2, 3, 5, 8), (4, 6, 7)))
        w = P("41627385")
        assert classify(w) is not None
        assert rsk(boolean_core(w).core).p != rsk(w).p

    def test_boolean_elements_are_uncrowded(self):
        from fcperm import is_boolean

        for w in fc_elements(6):
            if is_boolean(w):
                assert classify(w) is None

    def test_seeded_probe_past_s9(self):
        assert _probe_uncrowded_iff_core_past_s9() == (146, 154)

    def test_the_probe_catches_a_witness_scan_that_s8_misses(self, monkeypatch):
        # S_8's second rows hold at most four values, too few for x >= 3
        original = fcperm.crowding.find_crowded_witness

        def narrow(values):
            witness = original(values)
            return witness if witness is None or witness.x < 3 else None

        monkeypatch.setattr(fcperm.crowding, "find_crowded_witness", narrow)
        result = run_check("cor-4.12", 8)
        assert (result.passed, result.cases) == (True, 1430)
        with pytest.raises(AssertionError, match="classify"):
            _probe_uncrowded_iff_core_past_s9()


def _draw_fully_commutative(rng: random.Random, n: int) -> tuple[int, ...]:
    """A 321-avoiding image of S_n, drawn entry by entry: the smallest free
    value when it lies below the maximum so far, half the time, else a new
    maximum, a geometric number of free values above the old one."""
    image, free, high = [], list(range(1, n + 1)), 0
    while free:
        above = [v for v in free if v > high]
        if free[0] < high and (not above or rng.random() < 0.5):
            value = free[0]
        else:
            value = above[min(len(above) - 1, int(rng.expovariate(0.7)))]
        image.append(value)
        free.remove(value)
        high = max(high, value)
    return tuple(image)


def _probe_uncrowded_iff_core_past_s9() -> tuple[int, int]:
    """``cor-4.12`` on 300 seeded draws with n = 10..40, beyond the
    exhaustive S_8: a drawn w is uncrowded, by a wide window scan of the
    second row of P(w), exactly when plain-list row insertion gives w and
    its boolean core the same P, and ``classify`` agrees with the scan.
    Returns how many draws were (crowded, uncrowded)."""
    rng = random.Random(412)
    tally = [0, 0]
    for _ in range(300):
        image = _draw_fully_commutative(rng, rng.randint(10, 40))
        assert brute_avoids_321(image), image
        w = Permutation(image)
        rows = list_row_insertion(image)[0]
        uncrowded = wide_scan_is_uncrowded(rows[1] if len(rows) > 1 else ())
        same = list_row_insertion(boolean_core(w).core.image)[0] == rows
        assert uncrowded == same, f"core of {w.to_text()}"
        assert (classify(w) is None) == uncrowded, f"classify {w.to_text()}"
        tally[uncrowded] += 1
    return tally[0], tally[1]


class TestAnalyzeTransition:
    def test_worked_example(self):
        v = P("41623785")
        report = analyze_transition(v, 5)
        assert (report.prefix_max, report.suffix_min) == (6, 5)
        assert report.pattern_3142 == (3, 5, 6, 8)
        assert v(report.pattern_3142[0]) == 6
        assert report.moved_value == 8
        assert report.chain_length == 0
        inside = [z for z in row2(P("41627385")) if 6 <= z <= 8]
        assert len(inside) == report.chain_length + 3

    def test_precondition_errors(self):
        with pytest.raises(ValueError, match="precondition"):
            analyze_transition(Permutation.identity(6), 2)  # not in support
        with pytest.raises(ValueError, match="precondition"):
            analyze_transition(P("41627385"), 1)  # descent, not ascent
        with pytest.raises(ValueError, match="precondition"):
            analyze_transition(Permutation((3, 2, 1)), 1)  # not FC
        # support holds but the tableau does not change
        v = P("41263785")
        assert rsk(v).p == rsk(v.times(3)).p
        with pytest.raises(ValueError, match="precondition"):
            analyze_transition(v, 3)

    def test_exhaustive_over_s6(self):
        seen = 0
        for v, w, i in fc_covers(6):
            if i not in v.support() or rsk(v).p == rsk(w).p:
                continue
            seen += 1
            analyze_transition(v, i)
            assert classify(w) is not None
        assert seen >= 1

    def test_seeded_probe_past_s9(self):
        assert _probe_transitions_past_s9() == 744

    def test_the_probe_catches_a_column_drift_that_s9_misses(self, monkeypatch):
        original = fcperm.crowding.rsk

        def drifting(w):
            result = original(w)
            column = {v: c + (v >= 10) for v, c in result.trace.first_column.items()}
            return dataclasses.replace(result, trace=BumpTrace(result.trace.paths, column))

        monkeypatch.setattr(fcperm.crowding, "rsk", drifting)
        result = run_check("thm-4.11", 9)
        assert (result.passed, result.cases) == (True, 102)
        with pytest.raises(InvariantViolation) as info:
            _probe_transitions_past_s9()
        assert str(info.value) == "1,2,3,4,8,5,6,9,10,7@7: run column drifts at 10"


def _probe_transitions_past_s9() -> int:
    """Theorem 4.11 on 20 seeded draws of ``minimal_crowded(n)`` for each
    n = 10..24, beyond the exhaustive S_9: every lower cover v = w*s_d that
    keeps d in the support and changes the insertion tableau goes through
    ``analyze_transition``.  Returns how many transitions ran."""
    rng = random.Random(411)
    ran = 0
    for n in range(10, 25):
        for w in rng.sample(minimal_crowded(n), 20):
            # crowded by the paper's definition, not by classify
            assert not wide_scan_is_uncrowded(list_row_insertion(w.image)[0][1])
            for d in sorted(w.descents()):
                v = w.times(d)
                if d in v.support() and rsk(v).p != rsk(w).p:
                    assert brute_avoids_321(v.image)
                    analyze_transition(v, d)
                    ran += 1
    return ran


class TestMinimalCrowdedDirect:
    def test_golden_positive(self):
        report = is_minimal_crowded_direct(P("41627385"))
        assert report.minimal
        assert report.descent_form
        assert report.descent_values_crowded
        assert report.fixed_outside
        assert report.pattern_consecutive
        assert report.window_patterns
        assert (report.descent_start, report.descent_count) == (1, 3)

    def test_uncrowded_fails_crowdedness_condition(self):
        for w in fc_elements(6):
            if classify(w) is not None:
                continue
            report = is_minimal_crowded_direct(w)
            assert not report.minimal
            assert not report.descent_values_crowded

    def test_smallest_example(self):
        assert is_minimal_crowded_direct(P("415263")).minimal

    def test_identity_and_small_degrees(self):
        assert not is_minimal_crowded_direct(Permutation.identity(1)).minimal
        assert not is_minimal_crowded_direct(Permutation((2, 1))).minimal

    def test_rejects_non_fully_commutative(self):
        with pytest.raises(ValueError):
            is_minimal_crowded_direct(Permutation((3, 2, 1)))

    @pytest.mark.parametrize("n", range(1, 10))
    def test_same_report_as_listing_every_occurrence(self, n):
        for w in fc_elements(n):
            report = is_minimal_crowded_direct(w)
            listed = _listed_pattern_consecutive(w)
            minimal = (
                report.descent_form
                and report.descent_values_crowded
                and report.fixed_outside
                and listed
                and report.window_patterns
            )
            expected = dataclasses.replace(
                report, pattern_consecutive=listed, minimal=minimal
            )
            assert report == expected, w.to_text()

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_field_matches_the_plain_conditions(self, n):
        for w in fc_elements(n):
            report = is_minimal_crowded_direct(w)
            expected = minimality_conditions(w.image)
            assert {key: getattr(report, key) for key in expected} == expected, w.to_text()

    def test_stops_at_the_first_spread_out_occurrence(self, monkeypatch):
        seen = []

        def recorded(w, p):
            for occurrence in iter_occurrences(w, p):
                seen.append(occurrence)
                yield occurrence

        monkeypatch.setattr(fcperm.crowding, "iter_occurrences", recorded)
        report = is_minimal_crowded_direct(_interleaving(20))
        assert not report.pattern_consecutive
        assert seen == [(1, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 8)]

    def test_report_keeps_the_second_row(self, capsys):
        # `analyze --json` writes the minimality report next to w's second row
        for w in fc_elements(7):
            assert main(["analyze", w.to_text(), "--json"]) == 0
            report = json.loads(capsys.readouterr().out)["minimal_crowded"]
            direct = is_minimal_crowded_direct(w)
            assert report == {
                "w": w.to_text(),
                "minimal": direct.minimal,
                "conditions": {
                    key: getattr(direct, key)
                    for key in (
                        "descent_form", "descent_values_crowded", "fixed_outside",
                        "pattern_consecutive", "window_patterns",
                    )
                },
                "descent_start": direct.descent_start,
                "descent_count": direct.descent_count,
                "row2": list(row2(w)),
            }

    def test_three_conditions_imply_the_descent_conditions(self):
        # fixed_outside, pattern_consecutive and window_patterns already force
        # descent_form and descent_values_crowded on FC S_n, n <= 9, so
        # thm-5.10 cannot see either of the latter two dropped from `minimal`
        holding = 0
        for n in range(1, 10):
            for w in fc_elements(n):
                report = is_minimal_crowded_direct(w)
                if (
                    report.fixed_outside
                    and report.pattern_consecutive
                    and report.window_patterns
                ):
                    holding += 1
                    assert report.descent_form, w
                    assert report.descent_values_crowded, w
        assert holding == 19  # 1 + 2 + 6 + 10: the minimal crowded of S_6..S_9

    def test_seeded_probe_past_s9(self):
        assert _probe_minimal_crowded_past_s9() == (150, 450)

    def test_the_probe_catches_a_test_without_window_patterns(self, monkeypatch):
        # on these draws, dropping descent_form or descent_values_crowded
        # from `minimal` still passes, as it does at S_7..S_9
        original = is_minimal_crowded_direct

        def without_window_patterns(w):
            report = original(w)
            minimal = (
                report.descent_form
                and report.descent_values_crowded
                and report.fixed_outside
                and report.pattern_consecutive
            )
            return dataclasses.replace(report, minimal=minimal)

        monkeypatch.setitem(globals(), "is_minimal_crowded_direct", without_window_patterns)
        with pytest.raises(AssertionError, match="4,1,5,2,6,3,8,7,9,10"):
            _probe_minimal_crowded_past_s9()

    def test_matches_poset_oracle_s7(self):
        elements = tuple(fc_elements(7))
        crowded = {w: classify(w) is not None for w in elements}
        down = {w: [] for w in elements}
        for v, w, _ in fc_covers(7):
            down[w].append(v)
        for w in elements:
            by_poset = crowded[w] and not any(crowded[v] for v in down[w])
            assert by_poset == is_minimal_crowded_direct(w).minimal


def _probe_minimal_crowded_past_s9() -> tuple[int, int]:
    """Theorem 5.10 on 10 seeded draws of ``minimal_crowded(n)`` for each
    n = 10..24, beyond the exhaustive S_8.  A drawn w is minimal crowded by
    the definition: crowded, and no lower cover is.  The direct test must
    agree.  Up to three of its fully commutative upper covers are crowded
    (Lemma 5.1) with w as a crowded lower cover, so the direct test must
    call each of them not minimal.  Returns how many (elements, upper
    covers) were tested."""
    rng = random.Random(413)
    elements = covers = 0
    for n in range(10, 25):
        for w in rng.sample(minimal_crowded(n), 10):
            assert classify(w) is not None, w
            assert all(classify(Permutation(v)) is None for _, v in descent_swaps(w.image)), w
            assert is_minimal_crowded_direct(w).minimal, w
            elements += 1
            upper = [w.times(i) for i in range(1, n) if w(i) < w(i + 1)]
            upper = [u for u in upper if is_fully_commutative(u)]
            for u in rng.sample(upper, min(3, len(upper))):
                assert classify(u) is not None, u
                assert not is_minimal_crowded_direct(u).minimal, u
                covers += 1
    return elements, covers


class TestMinimalCrowdedComplete:
    # the exhaustive checks compare minimal_crowded(n) with the frontier
    # walk only up to n = 12
    def test_seeded_probe_past_s9(self):
        assert _probe_descents_to_minimal_crowded() == 27

    def test_the_probe_catches_a_generator_that_repeats_an_offset(self, monkeypatch):
        # each element placed at offset 8 or more is replaced by the same
        # block one place to the left: the count is kept, and every element
        # is still minimal crowded, but some are missing
        original = minimal_crowded

        def repeats_an_offset(n, bound=24):
            out = []
            for w in original(n, bound):
                image = w.image
                d = next(p for p, v in enumerate(image) if v != p + 1)  # 0-based start
                if d >= 8:
                    end = next(t for t in range(n, d, -1) if image[t - 1] != t)
                    block = tuple(v - 1 for v in image[d:end])
                    w = Permutation(tuple(range(1, d)) + block + (end,) + image[end:])
                out.append(w)
            return tuple(sorted(out, key=lambda w: w.image))

        monkeypatch.setitem(globals(), "minimal_crowded", repeats_an_offset)
        with pytest.raises(AssertionError, match="not generated"):
            _probe_descents_to_minimal_crowded()


def _probe_descents_to_minimal_crowded() -> int:
    """The completeness of ``minimal_crowded(n)``, probed for n = 16, 20
    and 24, beyond the exhaustive degrees: from each of 10 seeded crowded
    draws per n, step to a random crowded lower cover until none is left.
    The end is crowded with no crowded lower cover, which is the definition
    of minimal crowded, so the generator must list it.  Crowdedness is the
    wide window scan of the second row of plain-list row insertion.  Returns
    how many distinct ends were reached."""

    def crowded(image):
        rows = list_row_insertion(image)[0]
        return not wide_scan_is_uncrowded(rows[1] if len(rows) > 1 else ())

    rng = random.Random(414)
    ends = set()
    for n in (16, 20, 24):
        generated = {w.image for w in minimal_crowded(n)}
        for _ in range(10):
            while not crowded(image := _draw_fully_commutative(rng, n)):
                pass
            assert brute_avoids_321(image), image
            while lower := [v for _, v in descent_swaps(image) if crowded(v)]:
                image = rng.choice(lower)
            assert image in generated, f"{Permutation(image).to_text()} not generated"
            ends.add(image)
    return len(ends)


class TestDownwardClosure:
    # the exhaustive check stops at S_8, where every value is one digit
    def test_seeded_probe_past_s9(self):
        assert _probe_downward_closure_past_s9() == 1088

    def test_the_probe_catches_descents_read_as_text(self, monkeypatch):
        # entries compared as decimal text, so that "13" sorts below "7"
        def textual_descents(w):
            text = w.to_text().split(",")
            return frozenset(d for d in range(1, w.n) if text[d - 1] > text[d])

        monkeypatch.setattr(Permutation, "descents", textual_descents)
        result = run_check("downward-closure")
        assert (result.n, result.passed, result.cases) == (8, True, 3003)
        with pytest.raises(AssertionError) as info:
            _probe_downward_closure_past_s9()
        assert str(info.value).startswith("3,5,7,13,17,18,1,2,4,6,8,9,10,11,12,14,15,16 at 3")


def _probe_downward_closure_past_s9() -> int:
    """``downward-closure`` on 200 seeded draws with n = 10..40, beyond the
    exhaustive S_8: sorting each descent of a drawn 321-avoider, as
    ``descents`` reports it, leaves a 321-avoider, both by a brute-force
    scan of every triple.  Returns how many descents were sorted."""
    rng = random.Random(416)
    sorted_descents = 0
    for _ in range(200):
        image = _draw_fully_commutative(rng, rng.randint(10, 40))
        assert brute_avoids_321(image), image
        w = Permutation(image)
        for d in sorted(w.descents()):
            assert brute_avoids_321(w.times(d).image), f"{w.to_text()} at {d}"
            sorted_descents += 1
    return sorted_descents


def test_invariant_violation_is_distinct_error():
    assert issubclass(InvariantViolation, RuntimeError)
    assert not issubclass(InvariantViolation, ValueError)
