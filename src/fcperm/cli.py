"""Command-line front end.

One binary, subcommands for single-permutation analysis, S_n enumeration
with filters, the named verification checks, and DOT/JSON emitters.  Exit
codes: 0 on success or a passing check, 1 when a check finds a
counterexample, 2 for usage or parse errors, 3 for an internal error (a
broken deduction inside the library), 141 when the reader closes stdout
early.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from functools import cache
from itertools import islice
from math import factorial

from .checks import CHECKS, run_check
from .crowding import find_crowded_witness, is_minimal_crowded_direct
from .heaps import boolean_core, build_heap, heap_of
from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation, all_permutations
from .rsk import rsk
from .weak_order import (
    DEFAULT_MINIMAL_CROWDED_BOUND,
    DEFAULT_POSET_BOUND,
    crowding_census,
    fc_covers,
    fc_crowding,
    fc_elements,
    minimal_crowded,
    poset_to_dot,
    require_degree_within,
)
from .words import (
    DEFAULT_WORD_BOUND,
    count_reduced_words,
    evaluate_word,
    iter_reduced_words,
    require_length_within,
    word_from_text,
    word_to_text,
)


def _cmd_analyze(args) -> int:
    # every fact is computed before anything is printed, so that a broken
    # deduction leaves stdout empty
    w = Permutation.from_text(args.permutation)
    tableaux = rsk(w)
    fully_commutative = is_fully_commutative(w)
    boolean = fully_commutative and is_boolean(w)
    report: dict = {
        "permutation": w.to_text(),
        "n": w.n,
        "length": w.length(),
        "descents": sorted(w.descents()),
        "support": sorted(w.support()),
        "fully_commutative": fully_commutative,
        "boolean": boolean,
        "p_tableau": tableaux.p.to_json_dict(),
        "q_tableau": tableaux.q.to_json_dict(),
    }
    lines = [
        f"permutation:        {report['permutation']}",
        f"length:             {report['length']}",
        f"descents:           {report['descents']}",
        f"support:            {report['support']}",
        f"fully commutative:  {fully_commutative}",
        f"boolean:            {boolean}",
        f"P tableau:          {tableaux.p.to_text()}",
        f"Q tableau:          {tableaux.q.to_text()}",
    ]
    if fully_commutative:
        core = boolean_core(w)
        second = list(tableaux.p.row(2))
        witness = find_crowded_witness(second)
        minimality = is_minimal_crowded_direct(w)
        conditions = {
            "descent_form": minimality.descent_form,
            "descent_values_crowded": minimality.descent_values_crowded,
            "fixed_outside": minimality.fixed_outside,
            "pattern_consecutive": minimality.pattern_consecutive,
            "window_patterns": minimality.window_patterns,
        }
        verdict = "uncrowded" if witness is None else "crowded"
        report["core"] = core.core.to_text()
        report["core_word"] = list(core.core_word)
        report["row2"] = second
        report["classification"] = {"verdict": verdict, "row2": second}
        if witness is not None:
            report["classification"]["witness"] = {
                "x": witness.x, "y": witness.y, "window": list(witness.window),
            }
            verdict += f" (window {list(witness.window)}, x={witness.x}, y={witness.y})"
        report["minimal_crowded"] = {
            "w": w.to_text(),
            "minimal": minimality.minimal,
            "conditions": conditions,
            "descent_start": minimality.descent_start,
            "descent_count": minimality.descent_count,
            "row2": second,
        }
        lines += [
            f"boolean core:       {report['core']}",
            f"core word:          {word_to_text(core.core_word)}",
            f"row 2:              {report['row2']}",
            f"classification:     {verdict}",
            f"minimal crowded:    {minimality.minimal}",
        ]
        lines += [f"  {key}: {value}" for key, value in conditions.items()]
    print(json.dumps(report, indent=2) if args.json else "\n".join(lines))
    return 0


# lines per write call of a listing
_BATCH_LINES = 1024


def _write_lines(lines) -> None:
    """Write each of ``lines`` with a newline, ``_BATCH_LINES`` to a write call.

    Under ``PYTHONUNBUFFERED`` (or ``python -u``) each ``print`` is a write
    call of its own, a system call when stdout is a pipe or a file, so a
    listing of 292,864 words printed one by one spends about half its time
    in the kernel.  Batches keep the listing streaming, in order, with one
    batch of text alive at a time.  ``sys.stdout`` is looked up for every
    batch, since ``redirect_stdout`` and test capture replace it.
    """
    lines = iter(lines)
    while batch := list(islice(lines, _BATCH_LINES)):
        sys.stdout.write("\n".join(batch) + "\n")


def _all_within(n: int, bound: int):
    require_degree_within(n, bound)
    return all_permutations(n)


def _boolean_within(n: int, bound: int):
    return (w for w in fc_elements(n, bound=bound) if is_boolean(w))


# filter -> (n, bound) -> the matching permutations of S_n, lexicographically.
# Library functions are looked up by name on each call, so that a patched
# one takes effect; "fc", "boolean", "uncrowded" and "crowded" draw on
# fc_elements, the last two through fc_crowding's verdicts (though --count
# on them reads crowding_census), while "minimal-crowded" builds its
# elements without visiting the rest of S_n.
_MATCHES = {
    "all": _all_within,
    "fc": lambda n, bound: fc_elements(n, bound=bound),
    "boolean": _boolean_within,
    "uncrowded": lambda n, bound: (w for w, crowded in fc_crowding(n, bound) if not crowded),
    "crowded": lambda n, bound: (w for w, crowded in fc_crowding(n, bound) if crowded),
    "minimal-crowded": lambda n, bound: minimal_crowded(n, bound=bound),
}
FILTERS = tuple(_MATCHES)
# --bound when not given: the degree up to which the filter's output stays
# small and fast (S_24 has 5,998 minimal crowded elements)
_DEFAULT_BOUNDS = {"minimal-crowded": DEFAULT_MINIMAL_CROWDED_BOUND}
# --count under crowded/uncrowded visits no element, only the uncrowded
# ballot sets and the children decided from them (about 0.25 s at n = 20,
# with interpreter start-up)
_CENSUS_BOUND = 20


def _cmd_enumerate(args) -> int:
    census = args.count and args.filter in ("uncrowded", "crowded")
    bound = args.bound
    if bound is None and census:
        bound = _CENSUS_BOUND
    elif bound is None:
        bound = _DEFAULT_BOUNDS.get(args.filter, DEFAULT_POSET_BOUND)
    if census:
        # crowdedness reads the second row alone, so count by second row
        uncrowded, crowded = crowding_census(args.n, bound=bound)
        print(crowded if args.filter == "crowded" else uncrowded)
        return 0
    if args.count and args.filter == "all":
        require_degree_within(args.n, bound)  # the guard _all_within keeps
        print(factorial(args.n))
        return 0
    matches = _MATCHES[args.filter](args.n, bound)
    if args.count:
        # the fc view counts by the Catalan recurrence and builds no element
        print(len(matches) if args.filter == "fc" else sum(1 for _ in matches))
        return 0
    _write_lines(w.to_text(compact=args.compact) for w in matches)
    return 0


def _cmd_verify(args) -> int:
    result = run_check(args.check, args.n)
    if args.json:
        print(json.dumps(asdict(result)))
    else:
        print(result.summary())
    return 0 if result.passed else 1


def _cmd_dot(args) -> int:
    if args.target == "heap":
        if args.json or args.bound is not None:
            option = "--json" if args.json else "--bound"
            raise ValueError(f"dot heap takes no {option}; it applies to dot poset")
        if args.word is not None:
            word = word_from_text(args.word)
            if args.argument is not None:
                w = Permutation.from_text(args.argument)
                if evaluate_word(word, w.n) != w:
                    raise ValueError(f"word {args.word} does not spell {args.argument}")
            heap = build_heap(word)
        elif args.argument is None:
            raise ValueError("dot heap needs a permutation argument or --word")
        else:
            heap = heap_of(Permutation.from_text(args.argument))
        print(heap.to_dot())
        return 0
    if args.word is not None:
        raise ValueError("dot poset takes no --word; it applies to dot heap")
    if args.argument is None:
        raise ValueError("dot poset needs a degree argument")
    bound = DEFAULT_POSET_BOUND if args.bound is None else args.bound
    n = int(args.argument)
    if args.json:
        names = {w.image: w.to_text() for w in fc_elements(n, bound=bound)}
        edges = [[names[v.image], names[w.image], i] for v, w, i in fc_covers(n, bound=bound)]
        print(json.dumps({"n": n, "nodes": [*names.values()], "edges": edges}))
    else:
        print(poset_to_dot(n, bound=bound))
    return 0


def _cmd_rsk(args) -> int:
    w = Permutation.from_text(args.permutation)
    result = rsk(w)
    if args.json:
        print(
            json.dumps(
                {
                    "permutation": w.to_text(),
                    "p": result.p.to_json_dict(),
                    "q": result.q.to_json_dict(),
                }
            )
        )
    else:
        print(f"P: {result.p.to_text()}")
        print(f"Q: {result.q.to_text()}")
    return 0


def _cmd_core(args) -> int:
    w = Permutation.from_text(args.permutation)
    decomposition = boolean_core(w)
    if args.json:
        print(
            json.dumps(
                {
                    "permutation": w.to_text(),
                    "core": decomposition.core.to_text(),
                    "remainder": decomposition.remainder.to_text(),
                    "core_word": list(decomposition.core_word),
                    "remainder_word": list(decomposition.remainder_word),
                }
            )
        )
    else:
        print(f"core:      {decomposition.core.to_text()}")
        print(f"remainder: {decomposition.remainder.to_text()}")
        print(f"word:      {word_to_text(decomposition.core_word)}"
              f" | {word_to_text(decomposition.remainder_word)}")
    return 0


def _cmd_words(args) -> int:
    w = Permutation.from_text(args.permutation)
    # the listing grows with the number of words and the count's memo with
    # the weak-order interval below w, so both keep the length guard
    require_length_within(w, args.bound)
    if args.count:
        print(count_reduced_words(w))
        return 0
    # lexicographic, one batch of words alive at a time
    _write_lines(map(word_to_text, iter_reduced_words(w)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fcperm",
        description="Fully commutative permutations: tableaux, heaps, cores, crowding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one permutation")
    p.add_argument("permutation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("enumerate", help="stream permutations of S_n")
    p.add_argument("n", type=int)
    p.add_argument("--filter", choices=FILTERS, default="all")
    p.add_argument("--count", action="store_true")
    p.add_argument("--compact", action="store_true")
    p.add_argument(
        "--bound",
        type=int,
        help=f"largest degree to enumerate (default {DEFAULT_MINIMAL_CROWDED_BOUND}"
        f" for minimal-crowded, {_CENSUS_BOUND} for --count under crowded or"
        f" uncrowded, {DEFAULT_POSET_BOUND} otherwise)",
    )
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run one named exhaustive check")
    p.add_argument("n", type=int)
    p.add_argument("check", choices=sorted(CHECKS), metavar="check")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("dot", help="DOT output for a heap or the fc poset")
    p.add_argument("target", choices=("heap", "poset"))
    p.add_argument("argument", nargs="?")
    p.add_argument("--word", help="explicit reduced word for the heap (spells the permutation)")
    p.add_argument("--json", action="store_true", help="edge list instead of DOT (poset)")
    p.add_argument("--bound", type=int, help=f"poset degree bound (default {DEFAULT_POSET_BOUND})")
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("rsk", help="insertion and recording tableaux")
    p.add_argument("permutation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_rsk)

    p = sub.add_parser("core", help="boolean core decomposition")
    p.add_argument("permutation")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_core)

    p = sub.add_parser("words", help="all reduced words")
    p.add_argument("permutation")
    p.add_argument("--count", action="store_true")
    p.add_argument("--bound", type=int, default=DEFAULT_WORD_BOUND)
    p.set_defaults(fn=_cmd_words)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built on the first request and reused by the rest
    of the process: building costs some thirty times what parsing does."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader stopped early, as `| head` does; stdout now leads
        # nowhere, so the interpreter's final flush stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal ended
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # InvariantViolation and the library's self-checks: a deduction the
        # library relies on failed, so the input is worth reporting
        given = " ".join(sys.argv[1:] if argv is None else argv)
        print(f"internal error: {exc} (input: {given})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
