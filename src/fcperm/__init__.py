"""Fully commutative permutations and their tableaux, heaps, and crowding."""

from .permutations import Permutation, SupportStats, all_permutations
from .patterns import (
    PatternOccurrence,
    avoids,
    consecutive_occurrences,
    contains_pattern,
    is_boolean,
    is_fully_commutative,
    iter_occurrences,
)
from .words import (
    BoundExceeded,
    all_reduced_words,
    canonical_reduced_word,
    commutation_class,
    commutation_classes,
    count_reduced_words,
    evaluate_word,
    is_reduced,
    iter_reduced_words,
    word_from_text,
    word_to_text,
)
from .heaps import (
    CoreDecomposition,
    Heap,
    boolean_core,
    build_heap,
    canonical_form,
    count_linear_extensions,
    heap_of,
    labeled_linear_extensions,
)
from .rsk import (
    BumpTrace,
    InsertionStep,
    RskResult,
    Tableau,
    bump_pairs,
    lis_ending_at,
    max_increasing_subsequences,
    partial_p,
    row2,
    rsk,
)
from .crowding import (
    Classification,
    CrowdedWitness,
    InvariantViolation,
    MinimalCrowdedSet,
    MinimalityReport,
    TransitionReport,
    analyze_transition,
    classify,
    find_crowded_witness,
    is_minimal_crowded_direct,
    is_uncrowded_set,
    minimal_crowded_subset,
    minimal_crowded_window,
    uncrowded_iff_core,
)
from .weak_order import (
    CoverEdge,
    FcPoset,
    build_fc_poset,
    down_covers,
    fc_elements,
    inversion_pairs,
    knuth_neighbors,
    left_weak_leq,
    poset_to_dot,
    principal_ideal,
    right_weak_leq,
    uncrowded_frontier,
    up_covers,
)
from .checks import CHECKS, CheckResult, run_check

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
