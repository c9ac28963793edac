"""The three workloads: their seeded requests and the checks on the outputs.

A request is ``(kind, argv)``; ``argv`` is exactly what ``fcperm`` receives.
Every check compares the program's output with the oracles in
``oracles.py`` or with a property the output must have, and returns a list
of problems (empty when the output is right).
"""

from __future__ import annotations

import json
import random
import re
from itertools import permutations
from math import factorial

import oracles as o

# -- verify-registry ---------------------------------------------------------

# (degree, expected case count).  The degree is each check's default scope in
# the registry at the time the benchmark was written, pinned here so that a
# later change of a default does not change the workload.  A count given as a
# string is computed by the oracles; an integer is a recorded figure,
# recomputed with ``python3 perfbench/run.py --record-cases``.
VERIFY_CASES = {
    "lemma-2.1": (7, "(n-1)*n!"),
    "prop-2.2": (6, "n!"),
    "prop-2.3": (6, "n!"),
    "lemma-2.5": (7, 2186),
    "prop-2.7": (6, "catalan-1"),
    "prop-2.9": (7, "n!"),
    "thm-2.10": (7, "n!"),
    "lemma-2.11": (6, 2059),
    "lemma-2.12": (7, "n*n!"),
    "cor-lis": (6, 892),
    "lemma-row2": (7, "catalan"),
    "lemma-3.1": (7, 392),
    "thm-3.2": (7, "catalan"),
    "thm-3.4": (8, "fc-covers"),
    "cor-3.5": (7, "fc-covers"),
    "cor-3.7": (8, "catalan"),
    "thm-4.11": (7, 4),
    "cor-4.12": (8, "catalan"),
    "prop-2.14": (7, "uncrowded-tableaux"),
    "lemma-5.1": (8, "fc-covers"),
    "lemma-5.2": (7, 396),
    "lemma-5.4": (7, 330),
    "knuth-classes": (6, "involutions"),
    "cor-left-q": (6, "fc-covers"),
    "downward-closure": (8, "fc-covers"),
    "cor-5.5": (8, "minimal-crowded"),
    "cor-5.6": (8, "minimal-crowded"),
    "lemma-5.7": (8, "minimal-crowded"),
    "lemma-5.8": (9, 6),
    "cor-5.9": (8, "minimal-crowded"),
    "thm-5.10": (8, "catalan"),
}

_COUNTS = {
    "n!": factorial,
    "(n-1)*n!": lambda n: (n - 1) * factorial(n),
    "n*n!": lambda n: n * factorial(n),
    "catalan": o.catalan,
    "catalan-1": lambda n: o.catalan(n) - 1,
    "fc-covers": o.fc_cover_count,
    "involutions": o.involutions,
    "uncrowded-tableaux": o.uncrowded_two_row_tableaux,
    "minimal-crowded": lambda n: len(o.FrontierOracle(n).minimal_crowded()),
}


def expected_cases(check: str) -> int:
    n, count = VERIFY_CASES[check]
    return count if isinstance(count, int) else _COUNTS[count](n)


def verify_registry(rng: random.Random):
    checks = sorted(VERIFY_CASES)
    rng.shuffle(checks)
    return [("verify", ["verify", str(VERIFY_CASES[c][0]), c, "--json"]) for c in checks]


def check_verify(requests, outputs):
    problems = []
    expected = {}
    for (_, argv), (rc, out, err) in zip(requests, outputs):
        check = argv[2]
        if rc != 0:
            problems.append(f"verify {check} exited {rc}: {err.strip()[-300:]}")
            continue
        report = json.loads(out)
        if check not in expected:
            expected[check] = expected_cases(check)
        want = {"check": check, "n": VERIFY_CASES[check][0], "passed": True, "cases": expected[check]}
        got = {key: report.get(key) for key in want}
        if got != want:
            problems.append(f"verify {check}: got {got}, expected {want}")
    return problems


def check_registry(registered) -> list[str]:
    """The registry's check ids must be exactly the pinned ones, so that a
    check added to ``fcperm.checks.CHECKS`` cannot go unswept."""
    registered, pinned = set(registered), set(VERIFY_CASES)
    unpinned = [f"check {c!r} is registered but not pinned in VERIFY_CASES" for c in sorted(registered - pinned)]
    return unpinned + [f"pinned check {c!r} is not registered" for c in sorted(pinned - registered)]


# -- frontier-census ---------------------------------------------------------

CENSUS_DEGREES = (10, 11)


def frontier_census(rng: random.Random):
    requests = []
    for n in CENSUS_DEGREES:
        base = ["enumerate", str(n)]
        bound = ["--bound", str(n)]
        requests += [
            ("fc-count", base + ["--filter", "fc"] + bound + ["--count"]),
            ("crowded-count", base + ["--filter", "crowded"] + bound + ["--count"]),
            ("minimal-crowded", base + ["--filter", "minimal-crowded"] + bound),
        ]
    rng.shuffle(requests)
    return requests


def check_census(requests, outputs):
    problems = []
    oracles = {}
    for (kind, argv), (rc, out, err) in zip(requests, outputs):
        n = int(argv[1])
        if rc != 0:
            problems.append(f"{' '.join(argv)} exited {rc}: {err.strip()[-300:]}")
            continue
        if kind == "fc-count":
            if out.split() != [str(o.catalan(n))]:
                problems.append(f"fc count at n={n} is {out.strip()!r}, expected {o.catalan(n)}")
            continue
        if n not in oracles:
            oracles[n] = o.FrontierOracle(n)
        frontier = oracles[n]
        if kind == "crowded-count":
            if out.split() != [str(frontier.crowded_count())]:
                problems.append(f"crowded count at n={n} is {out.strip()!r}, expected {frontier.crowded_count()}")
            continue
        listed = [o.parse_perm(line) for line in out.split()]
        for w in listed:
            if w not in frontier.crowded or not frontier.is_minimal_crowded(w):
                problems.append(f"{o.perm_text(w)} is listed but is not minimal crowded")
        if listed != frontier.minimal_crowded():
            problems.append(f"minimal crowded list at n={n} differs from the oracle's")
        if n in o.MINIMAL_CROWDED_COUNTS and len(listed) != o.MINIMAL_CROWDED_COUNTS[n]:
            problems.append(f"{len(listed)} minimal crowded at n={n}, the paper counts {o.MINIMAL_CROWDED_COUNTS[n]}")
    return problems


# -- query-mix -----------------------------------------------------------------

# Requests per kind in one round of the stream.  There is no user traffic to
# model, so each kind of request gets an equal share of the 990 requests
# beside the ten ``dot heap --word`` ones.
QUERY_KINDS = ("analyze", "core", "dot-heap", "rsk", "words-count", "words-list")
PER_KIND = 165
# The degrees are those of the ROADMAP's end-to-end and per-call figures:
# ``analyze 41627385`` (n = 8, also the paper's worked example), one ``rsk``
# call at n = 8, and ``words 654321`` (n = 6).
FC_DEGREE = 8
RSK_DEGREE = 8
WORDS_DEGREE = 6
WORD_BOUND = 12  # the default --bound of ``words``
WORDS_FIXED = 6  # heaviest words candidates, per kind, sent in every round
# ``dot heap --word U`` with no positional argument; the same words in every
# round and for every seed.  Today each of these exits 2 ("dot heap needs a
# permutation argument"), a known fault counted as a failed request.
HEAP_WORDS = ("1", "121", "213", "3243", "12132", "4231", "54321", "132435", "2143", "35243")
HEAP_WORD_EVERY = 100  # one at every 100th position
KNOWN_FAILURE = "error: dot heap needs a permutation argument"


def query_mix(rng: random.Random):
    fc = list(o.avoiders_321(FC_DEGREE))
    # The cost of a words request follows the number of reduced words.  The
    # candidates are sorted by it; the heaviest WORDS_FIXED always go in, so
    # that the tail is the same for every seed, and the rest are drawn one
    # per stratum of equal size.
    population = [
        p
        for _, p in sorted(
            (o.count_reduced_words(p), p)
            for p in permutations(range(1, WORDS_DEGREE + 1))
            if o.length(p) <= WORD_BOUND
        )
    ]

    def stratified(k):
        bulk = len(population) - WORDS_FIXED
        cuts = [round(i * bulk / (k - WORDS_FIXED)) for i in range(k - WORDS_FIXED + 1)]
        drawn = [population[rng.randrange(lo, hi)] for lo, hi in zip(cuts, cuts[1:])]
        return drawn + population[bulk:]

    def arbitrary():
        values = list(range(1, RSK_DEGREE + 1))
        rng.shuffle(values)
        return tuple(values)

    stream = []
    for kind in QUERY_KINDS:
        if kind in ("words-count", "words-list"):
            perms = stratified(PER_KIND)
        elif kind == "rsk":
            perms = [arbitrary() for _ in range(PER_KIND)]
        else:
            perms = [rng.choice(fc) for _ in range(PER_KIND)]
        for w in perms:
            text = o.perm_text(w)
            argv = {
                "analyze": ["analyze", text, "--json"],
                "core": ["core", text, "--json"],
                "dot-heap": ["dot", "heap", text],
                "rsk": ["rsk", text, "--json"],
                "words-count": ["words", text, "--count"],
                "words-list": ["words", text],
            }[kind]
            stream.append((kind, argv))
    rng.shuffle(stream)
    for i, word in enumerate(HEAP_WORDS):
        stream.insert(i * HEAP_WORD_EVERY, ("dot-heap-word", ["dot", "heap", "--word", word]))
    return stream


def is_known_failure(kind, record) -> bool:
    rc, out, err = record
    return kind == "dot-heap-word" and rc == 2 and err.strip() == KNOWN_FAILURE and not out


def _rows(tableau):
    return [list(row) for row in tableau["rows"]]


def _check_heap_dot(dot: str, word_length: int) -> str | None:
    labels = dict(re.findall(r'^\s*(n\d+) \[label="(\d+) \(\d+\)"\];$', dot, re.M))
    edges = re.findall(r"^\s*(n\d+) -> (n\d+);$", dot, re.M)
    if len(labels) != word_length:
        return f"{len(labels)} heap nodes, expected {word_length}"
    for a, b in edges:
        if a not in labels or b not in labels or abs(int(labels[a]) - int(labels[b])) != 1:
            return f"heap edge {a} -> {b} does not join adjacent labels"
    return None


def _check_core(w, core, core_word, remainder=None, remainder_word=None) -> str | None:
    n = len(w)
    if remainder is None:
        remainder = o.compose(o.inverse(core), w)
    if o.compose(core, remainder) != w:
        return "core * remainder != w"
    if o.length(core) + o.length(remainder) != o.length(w):
        return "core and remainder lengths do not add up"
    if not o.is_boolean(core):
        return "core is not boolean"
    if o.support(core) != o.support(w):
        return "core support differs"
    if o.evaluate(core_word, n) != core or len(core_word) != o.length(core):
        return "core word is not a reduced word of the core"
    if remainder_word is not None and (
        o.evaluate(remainder_word, n) != remainder or len(remainder_word) != o.length(remainder)
    ):
        return "remainder word is not a reduced word of the remainder"
    return None


def _check_analyze(w, report) -> str | None:
    p, q = o.insert(w)
    fc = not o.contains_321(w)
    facts = {
        "permutation": ",".join(map(str, w)),
        "length": o.length(w),
        "descents": o.descents(w),
        "support": o.support(w),
        "fully_commutative": fc,
        "boolean": fc and not o.contains_3412(w),
    }
    for key, value in facts.items():
        if report.get(key) != value:
            return f"{key} is {report.get(key)!r}, expected {value!r}"
    if _rows(report["p_tableau"]) != p or _rows(report["q_tableau"]) != q:
        return "P or Q tableau differs from insertion"
    if not fc:
        return None
    problem = _check_core(w, o.parse_perm(report["core"]), tuple(report["core_word"]))
    if problem:
        return problem
    second = o.row2(w)
    crowded = o.crowded_window(second) is not None
    if tuple(report["row2"]) != second:
        return "row 2 differs from insertion"
    if (report["classification"]["verdict"] == "crowded") != crowded:
        return "crowded verdict differs from the window scan"
    if report["minimal_crowded"]["minimal"] != o.minimal_crowded_one(w):
        return "minimal crowded verdict differs from the lower covers"
    return None


def check_query(kind, argv, record) -> str | None:
    rc, out, err = record
    if rc != 0:
        return f"exited {rc}: {err.strip()[-200:]}"
    if kind == "dot-heap-word":
        return _check_heap_dot(out, len(o.parse_word(argv[-1])))
    w = o.parse_perm(argv[2] if kind == "dot-heap" else argv[1])
    if kind == "analyze":
        return _check_analyze(w, json.loads(out))
    if kind == "core":
        report = json.loads(out)
        return _check_core(
            w,
            o.parse_perm(report["core"]),
            tuple(report["core_word"]),
            o.parse_perm(report["remainder"]),
            tuple(report["remainder_word"]),
        )
    if kind == "rsk":
        report = json.loads(out)
        p, q = o.insert(w)
        if _rows(report["p"]) != p or _rows(report["q"]) != q:
            return "P or Q tableau differs from insertion"
        return None
    if kind == "dot-heap":
        return _check_heap_dot(out, o.length(w))
    expected = o.count_reduced_words(w)
    if kind == "words-count":
        return None if out.split() == [str(expected)] else f"count {out.strip()!r}, expected {expected}"
    words = [o.parse_word(line) for line in out.splitlines()]
    if len(set(words)) != len(words):
        return "a reduced word is listed twice"
    if any(len(u) != o.length(w) or o.evaluate(u, len(w)) != w for u in words):
        return "a listed word is not a reduced word of w"
    if len(words) != expected:
        return f"{len(words)} words listed, expected {expected}"
    return None


def check_query_mix(requests, outputs):
    problems = []
    for (kind, argv), record in zip(requests, outputs):
        if is_known_failure(kind, record):
            continue
        try:
            problem = check_query(kind, argv, record)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"malformed output: {exc!r}"
        if problem:
            problems.append(f"{' '.join(argv)}: {problem}")
    return problems


WORKLOADS = {
    "verify-registry": (verify_registry, check_verify),
    "frontier-census": (frontier_census, check_census),
    "query-mix": (query_mix, check_query_mix),
}
