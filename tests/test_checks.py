"""Every registered check passes at a reduced degree (fast smoke pass).

The full-scope runs happen in the acceptance suite.
"""

import dataclasses

import pytest

import fcperm
import fcperm.checks
import fcperm.crowding
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


@pytest.mark.parametrize(
    "counter, nontrivial",
    [
        ("count_reduced_words", lambda w: not w.is_identity()),
        ("count_linear_extensions", lambda heap: heap.size > 0),
    ],
)
def test_prop_2_2_fails_under_an_off_by_one_counter(monkeypatch, counter, nontrivial):
    original = getattr(fcperm.checks, counter)
    monkeypatch.setattr(
        fcperm.checks, counter, lambda arg: original(arg) + nontrivial(arg)
    )
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
