"""Command-line front end.

One binary, subcommands for single-permutation analysis, S_n enumeration
with filters, the named verification checks, and DOT/JSON emitters.  Exit
codes: 0 on success or a passing check, 1 when a check finds a
counterexample, 2 for usage or parse errors, 3 for an internal error (a
broken deduction inside the library).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass

from .checks import CHECKS, run_check
from .crowding import Classification, MinimalityReport, classify, is_minimal_crowded_direct
from .heaps import boolean_core, build_heap, heap_of
from .patterns import is_boolean, is_fully_commutative
from .permutations import Permutation, all_permutations
from .rsk import RskResult, rsk
from .weak_order import (
    DEFAULT_MINIMAL_CROWDED_BOUND,
    DEFAULT_POSET_BOUND,
    build_fc_poset,
    fc_crowding,
    fc_elements,
    minimal_crowded,
    poset_to_dot,
    require_degree_within,
)
from .words import (
    DEFAULT_WORD_BOUND,
    all_reduced_words,
    count_reduced_words,
    require_length_within,
    word_from_text,
    word_to_text,
)

@dataclass(frozen=True)
class AnalysisReport:
    w: Permutation
    tableaux: RskResult
    fully_commutative: bool
    boolean: bool
    core: Permutation | None
    core_word: tuple[int, ...] | None
    classification: Classification | None
    minimality: MinimalityReport | None

    def to_json_dict(self) -> dict:
        result = self.tableaux
        out: dict = {
            "permutation": self.w.to_text(),
            "n": self.w.n,
            "length": self.w.length(),
            "descents": sorted(self.w.descents()),
            "support": sorted(self.w.support()),
            "fully_commutative": self.fully_commutative,
            "boolean": self.boolean,
            "p_tableau": result.p.to_json_dict(),
            "q_tableau": result.q.to_json_dict(),
        }
        if self.core is not None:
            out["core"] = self.core.to_text()
            out["core_word"] = list(self.core_word or ())
        if self.classification is not None:
            out["row2"] = list(self.classification.row2)
            out["classification"] = self.classification.to_json_dict()
        if self.minimality is not None:
            out["minimal_crowded"] = self.minimality.to_json_dict()
        return out

    def to_text(self) -> str:
        result = self.tableaux
        lines = [
            f"permutation:        {self.w.to_text()}",
            f"length:             {self.w.length()}",
            f"descents:           {sorted(self.w.descents())}",
            f"support:            {sorted(self.w.support())}",
            f"fully commutative:  {self.fully_commutative}",
            f"boolean:            {self.boolean}",
            f"P tableau:          {result.p.to_text()}",
            f"Q tableau:          {result.q.to_text()}",
        ]
        if self.core is not None:
            lines.append(f"boolean core:       {self.core.to_text()}")
            lines.append(f"core word:          {word_to_text(self.core_word or ())}")
        if self.classification is not None:
            verdict = "crowded" if self.classification.crowded else "uncrowded"
            lines.append(f"row 2:              {list(self.classification.row2)}")
            if self.classification.witness is not None:
                witness = self.classification.witness
                verdict += f" (window {list(witness.window)}, x={witness.x}, y={witness.y})"
            lines.append(f"classification:     {verdict}")
        if self.minimality is not None:
            lines.append(f"minimal crowded:    {self.minimality.minimal}")
            for key, value in self.minimality.to_json_dict()["conditions"].items():
                lines.append(f"  {key}: {value}")
        return "\n".join(lines)


def analyze(w: Permutation) -> AnalysisReport:
    tableaux = rsk(w)
    if is_fully_commutative(w):
        decomposition = boolean_core(w)
        return AnalysisReport(
            w=w,
            tableaux=tableaux,
            fully_commutative=True,
            boolean=is_boolean(w),
            core=decomposition.core,
            core_word=decomposition.core_word,
            classification=classify(w),
            minimality=is_minimal_crowded_direct(w),
        )
    return AnalysisReport(
        w=w,
        tableaux=tableaux,
        fully_commutative=False,
        boolean=False,
        core=None,
        core_word=None,
        classification=None,
        minimality=None,
    )


def _cmd_analyze(args) -> int:
    w = Permutation.from_text(args.permutation)
    report = analyze(w)
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print(report.to_text())
    return 0


def _all_within(n: int, bound: int):
    require_degree_within(n, bound)
    return all_permutations(n)


def _fc_where(keep):
    def matches(n: int, bound: int):
        return (w for w in fc_elements(n, bound=bound) if keep(w))

    return matches


def _fc_crowded(wanted: bool):
    def matches(n: int, bound: int):
        return (w for w, crowded in fc_crowding(n, bound=bound) if crowded == wanted)

    return matches


# filter -> (n, bound) -> the matching permutations of S_n, lexicographically.
# Library functions are looked up by name on each call, so that a patched
# one takes effect; "fc", "boolean", "uncrowded" and "crowded" draw on
# fc_elements or on its verdict walk fc_crowding, while "minimal-crowded"
# builds its elements without visiting the rest of S_n.
_MATCHES = {
    "all": _all_within,
    "fc": lambda n, bound: fc_elements(n, bound=bound),
    "boolean": _fc_where(lambda w: is_boolean(w)),
    "uncrowded": _fc_crowded(False),
    "crowded": _fc_crowded(True),
    "minimal-crowded": lambda n, bound: minimal_crowded(n, bound=bound),
}
FILTERS = tuple(_MATCHES)
# --bound when not given: the degree up to which the filter's output stays
# small and fast (S_24 has 5,998 minimal crowded elements)
_DEFAULT_BOUNDS = {"minimal-crowded": DEFAULT_MINIMAL_CROWDED_BOUND}


def _cmd_enumerate(args) -> int:
    bound = args.bound
    if bound is None:
        bound = _DEFAULT_BOUNDS.get(args.filter, DEFAULT_POSET_BOUND)
    matches = _MATCHES[args.filter](args.n, bound)
    if args.count:
        print(sum(1 for _ in matches))
        return 0
    for w in matches:
        print(w.to_text(compact=args.compact))
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
        if args.word is not None:
            heap = build_heap(word_from_text(args.word))
        elif args.argument is None:
            raise ValueError("dot heap needs a permutation argument or --word")
        else:
            heap = heap_of(Permutation.from_text(args.argument))
        print(heap.to_dot())
        return 0
    if args.argument is None:
        raise ValueError("dot poset needs a degree argument")
    poset = build_fc_poset(int(args.argument), bound=args.bound)
    if args.json:
        print(json.dumps(poset.to_json_dict()))
    else:
        print(poset_to_dot(poset))
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
    if args.count:
        # the count's memo spans the weak-order interval below w, so counting
        # can explode too and keeps the listing's length guard
        require_length_within(w, args.bound)
        print(count_reduced_words(w))
        return 0
    for word in sorted(all_reduced_words(w, bound=args.bound)):
        print(word_to_text(word))
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
        f" for minimal-crowded, {DEFAULT_POSET_BOUND} otherwise)",
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
    p.add_argument("--word", help="explicit reduced word for the heap")
    p.add_argument("--json", action="store_true", help="edge list instead of DOT (poset)")
    p.add_argument("--bound", type=int, default=DEFAULT_POSET_BOUND)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
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
