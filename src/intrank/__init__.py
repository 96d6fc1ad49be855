"""Finite poset toolkit: interval ranks, conjugate interval orders,
rank-operator iteration, generation, and batch experiments."""

from .errors import (
    BudgetExceeded,
    CapExceeded,
    CycleError,
    DegenerateInput,
    DomainError,
    EmptyInput,
    GroundMismatch,
    IntrankError,
    InvalidDocument,
    NotComparable,
    RangeError,
    TooSmall,
    UnboundedError,
)
from .poset import Poset, SubsetView, check_partial_order
from .intervals import (
    IntInterval,
    IntervalOrder,
    OrderRelationTable,
    all_intervals,
    are_conjugate,
    are_pseudo_conjugate,
    find_conjugates_of_strong,
    group_conjugates_by_isomorphism,
    interval_poset,
    leq_strong,
    leq_weak,
    subset,
)
from .rank import (
    IterationTrace,
    RankAssignment,
    RankPoset,
    average_rank_width,
    classify_rank_function,
    conjugate_image,
    conjugate_rank,
    is_interval_rank_function,
    iterate_to_chain,
    phi,
    rank_all,
    rank_image,
    standard_rank,
    total_preorder,
)
from .generate import (
    GenConfig,
    enumerate_bounded_posets,
    enumerate_posets,
    generate,
    random_corpus,
    random_graph_poset,
    random_kdim_poset,
)
from .experiments import (
    CSV_COLUMNS,
    FitResult,
    GroupMeans,
    IterationRecord,
    aggregate_by,
    linear_fit,
    log_fit,
    run_iteration_experiment,
    write_records_csv,
)

__version__ = "0.1.0"
