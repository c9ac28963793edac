"""The frozen value classes keep their behaviour with ``__slots__``: no
per-instance ``__dict__``, while pickling, copying, ``repr``, immutability
and the JSON that ``asdict`` feeds stay as they were."""

import copy
import pickle
from dataclasses import FrozenInstanceError, fields

import pytest

import fcperm.checks
from fcperm import Classification, Permutation, Tableau, build_heap, classify, rsk, run_check
from fcperm.cli import main

VALUES = {
    "Permutation": (Permutation.from_text("41627385"), "Permutation('41627385')"),
    "Tableau": (Tableau(((1, 2, 4), (3,))), "Tableau(rows=((1, 2, 4), (3,)))"),
    "RskResult": (
        rsk(Permutation.from_text("3142")),
        "RskResult(p=Tableau(rows=((1, 2), (3, 4))), q=Tableau(rows=((1, 3), (2, 4))),"
        " trace=BumpTrace(events=(InsertionStep(value=3, bumps=()),"
        " InsertionStep(value=1, bumps=((1, 3, 1),)), InsertionStep(value=4, bumps=()),"
        " InsertionStep(value=2, bumps=((2, 4, 1),))), first_column={3: 1, 1: 1, 4: 2, 2: 2}))",
    ),
    "CheckResult": (
        run_check("thm-4.11", 6),
        "CheckResult(check='thm-4.11', n=6, passed=True, cases=1, counterexample=None)",
    ),
    "Heap": (
        build_heap((2, 1, 3)),
        "Heap(labels=(2, 1, 3), below=(frozenset(), frozenset({1}), frozenset({1})))",
    ),
    "Classification": (
        classify(Permutation.from_text("41627385")),
        "Classification(crowded=True, row2=(4, 6, 7, 8),"
        " witness=CrowdedWitness(x=1, y=6, window=(6, 7, 8)))",
    ),
}


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
    monkeypatch.setattr(fcperm.checks, "classify", lambda w: Classification(False, (), None))
    assert main(["verify", "7", "thm-4.11", "--json"]) == 1
    assert capsys.readouterr().out == (
        '{"check": "thm-4.11", "n": 7, "passed": false, "cases": 1,'
        ' "counterexample": "1,5,2,3,6,7,4 at 4"}\n'
    )
