"""Deliberately wrong library functions, to show that the checks can fail.

``python3 perfbench/run.py --workload W --seed 1 --seconds 1 --trace 0
--mutant NAME`` patches one of these into every ``fcperm`` namespace before
the first request; the run must then report ``"correct": false``.
"""

from __future__ import annotations

import importlib


def _witness_narrow(original):
    """Misses every violating window wider than x = 1."""

    def find_crowded_witness(values):
        witness = original(values)
        return witness if witness is None or witness.x == 1 else None

    return find_crowded_witness


def _fc_drop_last(original):
    """Loses the last fully commutative element."""

    def fc_elements(n, bound=9):
        return original(n, bound=bound)[:-1]

    return fc_elements


def _words_drop_last(original):
    """Loses the last reduced word of every permutation."""

    def iter_reduced_words(w):
        words = list(original(w))
        yield from words[:-1] if len(words) > 1 else words

    return iter_reduced_words


def _perms_drop_last(original):
    """Sweeps one permutation fewer: a shrunken sweep that still passes."""

    def all_permutations(n):
        perms = list(original(n))
        yield from perms[:-1]

    return all_permutations


# name -> (module, function, mutation); the workload each one should fail
MUTANTS = {
    "witness-narrow": ("crowding", "find_crowded_witness", _witness_narrow),  # all three
    "fc-drop-last": ("weak_order", "fc_elements", _fc_drop_last),  # frontier-census
    "words-drop-last": ("words", "iter_reduced_words", _words_drop_last),  # query-mix
    "perms-drop-last": ("permutations", "all_permutations", _perms_drop_last),  # verify-registry
}


def apply(name: str) -> None:
    from tracer import fcperm_namespaces, rebind

    module, function, mutate = MUTANTS[name]
    original = getattr(importlib.import_module(f"fcperm.{module}"), function)
    rebind(fcperm_namespaces(), original, mutate(original))
