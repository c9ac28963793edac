"""The frozen value classes keep their behaviour with ``__slots__``: no
per-instance ``__dict__``, while pickling, copying, ``repr``, immutability
and the JSON that ``asdict`` feeds stay as they were."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest

import fcperm
import fcperm.checks
from fcperm import (
    Permutation, Tableau, analyze_transition, boolean_core, build_fc_poset, build_heap,
    classify, is_minimal_crowded_direct, rsk, run_check,
)
from fcperm.cli import main

VALUES = {
    "Permutation": (Permutation.from_text("41627385"), "Permutation('41627385')"),
    "Tableau": (Tableau(((1, 2, 4), (3,))), "Tableau(rows=((1, 2, 4), (3,)))"),
    "RskResult": (
        rsk(Permutation.from_text("3142")),
        "RskResult(p=Tableau(rows=((1, 2), (3, 4))), q=Tableau(rows=((1, 3), (2, 4))),"
        " trace=BumpTrace(paths=((3,), (1, 3), (4,), (2, 4)),"
        " first_column={3: 1, 1: 1, 4: 2, 2: 2}))",
    ),
    "CheckResult": (
        run_check("thm-4.11", 6),
        "CheckResult(check='thm-4.11', n=6, passed=True, cases=1, counterexample=None)",
    ),
    "Heap": (
        build_heap((2, 1, 3)),
        "Heap(labels=(2, 1, 3), below=(frozenset(), frozenset({1}), frozenset({1})))",
    ),
    "CrowdedWitness": (
        classify(Permutation.from_text("41627385")),
        "CrowdedWitness(x=1, y=6, window=(6, 7, 8))",
    ),
    "MinimalityReport": (
        is_minimal_crowded_direct(Permutation.from_text("41627385")),
        "MinimalityReport(minimal=True, descent_form=True, descent_values_crowded=True,"
        " fixed_outside=True, pattern_consecutive=True, window_patterns=True,"
        " descent_start=1, descent_count=3)",
    ),
    "TransitionReport": (
        analyze_transition(Permutation.from_text("41623785"), 5),
        "TransitionReport(prefix_max=6, suffix_min=5, pattern_3142=(3, 5, 6, 8),"
        " moved_value=8, chain_length=0)",
    ),
    "CoreDecomposition": (
        boolean_core(Permutation.from_text("41627385")),
        "CoreDecomposition(core=Permutation('41263785'), remainder=Permutation('12436578'),"
        " core_word=(3, 2, 1, 5, 4, 6, 7), remainder_word=(3, 5))",
    ),
    "FcPoset": (
        build_fc_poset(3),
        "FcPoset(n=3, elements=(Permutation('123'), Permutation('132'), Permutation('213'),"
        " Permutation('231'), Permutation('312')),"
        " edges=(CoverEdge(lower=Permutation('123'), upper=Permutation('213'), index=1),"
        " CoverEdge(lower=Permutation('123'), upper=Permutation('132'), index=2),"
        " CoverEdge(lower=Permutation('132'), upper=Permutation('312'), index=1),"
        " CoverEdge(lower=Permutation('213'), upper=Permutation('231'), index=2)))",
    ),
}
# BumpTrace holds a dict, so it has no hash; RskResult's repr pins it
UNLISTED = {"BumpTrace"}


def test_every_exported_value_class_is_listed():
    exported = {name for name in fcperm.__all__ if is_dataclass(getattr(fcperm, name))}
    assert exported - UNLISTED == set(VALUES)


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]


def test_no_instance_dict(value):
    obj, _ = value
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("round_trip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy])
def test_round_trips_equal(value, round_trip):
    obj, _ = value
    again = round_trip(obj)
    assert again == obj and type(again) is type(obj)
    try:
        expected = hash(obj)
    except TypeError:  # RskResult holds its trace's first_column dict
        assert type(obj).__name__ == "RskResult"
        assert (hash(again.p), hash(again.q)) == (hash(obj.p), hash(obj.q))
    else:
        assert hash(again) == expected


def test_repr_is_unchanged(value):
    obj, text = value
    assert repr(obj) == text


def test_fields_stay_frozen(value):
    obj, _ = value
    with pytest.raises(FrozenInstanceError):
        setattr(obj, fields(obj)[0].name, None)


def test_verify_json_is_unchanged(capsys, monkeypatch):
    assert main(["verify", "6", "thm-4.11", "--json"]) == 0
    assert capsys.readouterr().out == (
        '{"check": "thm-4.11", "n": 6, "passed": true, "cases": 1, "counterexample": null}\n'
    )
    # the check reads Q as P, so it sees P change on a cover where it does
    # not, and analyze_transition refuses that cover
    monkeypatch.setattr(fcperm.checks, "rsk", lambda w: replace(rsk(w), p=rsk(w).q))
    assert main(["verify", "7", "thm-4.11", "--json"]) == 1
    assert capsys.readouterr().out == (
        '{"check": "thm-4.11", "n": 7, "passed": false, "cases": 1, "counterexample":'
        ' "precondition failed: the insertion tableau does not change at index 5"}\n'
    )
