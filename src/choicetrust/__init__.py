"""choicetrust: rationality patterns and trust degrees for staged choice histories.

The library turns a reviewer's recorded four-stage choice episodes into
per-period preference digraphs, extracts per-object run patterns, places
them in the rationality outcome set, and attaches a degree of
trustworthiness to each review; a separate information index ranks graded
lists, and a brute-force checker verifies small choice functions for
contraction consistency and rationalizability.
"""

__version__ = "0.1.0"

from .choice_model import (
    AttributeVector,
    ChoiceEpisode,
    ConstraintRow,
    ValidatedEpisode,
    attainable_set,
    stage_rank,
    validate_episode,
)
from .consistency import (
    ChoiceFunctionTable,
    ContractionResult,
    ContractionViolation,
    Lemma2Class,
    check_contraction,
    classify_lemma2,
    induced_table,
    rationalizable,
)
from .errors import (
    ChoiceTrustError,
    DimensionError,
    DomainError,
    DuplicateItemError,
    EmptyFinalError,
    EmptyListError,
    GradeError,
    IncompleteTableError,
    NestingError,
    ShapeError,
    UnknownObjectError,
)
from .info_index import (
    IfsElement,
    IfsList,
    choice_correspondence,
    choose_from_list,
    entropy,
    entropy_of_grades,
    fold_pairwise,
    make_list,
)
from .pattern_runs import (
    EPSILON,
    RunCount,
    RunPattern,
    omega,
    run_patterns,
    run_totals,
    scan_runs,
    single_period_rationality_pattern,
)
from .preference_graph import (
    PatternVector,
    PreferenceMatrix,
    concat_patterns,
    derive_matrix,
    flatten,
    outdegrees,
)
from .rationality_outcomes import (
    Bin,
    BinTable,
    Degree,
    RankClass,
    TauPattern,
    bar_degrees,
    bar_frequency,
    bar_label,
    bin_frequencies,
    bin_pattern,
    bin_table,
    build_tau,
    classify_rank,
    count_tau_two_periods,
    membership,
    signed_difference,
    slot_alphabet,
    two_period_decomposition,
)
from .trust_scoring import (
    NarrativeCode,
    OverallRationality,
    Polarity,
    Review,
    ReviewerSection,
    TrustAssessment,
    TrustReport,
    Zone,
    assessment_for,
    binomial_rationality,
    build_report,
    match_review,
    zone,
)

__all__ = [
    "__version__",
    # choice model
    "AttributeVector",
    "ConstraintRow",
    "ChoiceEpisode",
    "ValidatedEpisode",
    "attainable_set",
    "validate_episode",
    "stage_rank",
    # preference graphs
    "PreferenceMatrix",
    "PatternVector",
    "derive_matrix",
    "outdegrees",
    "flatten",
    "concat_patterns",
    # run patterns
    "EPSILON",
    "RunCount",
    "RunPattern",
    "scan_runs",
    "run_totals",
    "run_patterns",
    "omega",
    "single_period_rationality_pattern",
    # rationality outcomes
    "RankClass",
    "TauPattern",
    "Bin",
    "BinTable",
    "Degree",
    "slot_alphabet",
    "build_tau",
    "count_tau_two_periods",
    "two_period_decomposition",
    "classify_rank",
    "signed_difference",
    "bar_label",
    "bin_pattern",
    "bin_table",
    "bin_frequencies",
    "bar_frequency",
    "bar_degrees",
    "membership",
    # trust scoring
    "Polarity",
    "Zone",
    "NarrativeCode",
    "Review",
    "TrustAssessment",
    "ReviewerSection",
    "TrustReport",
    "OverallRationality",
    "zone",
    "binomial_rationality",
    "match_review",
    "build_report",
    "assessment_for",
    # information index
    "IfsElement",
    "IfsList",
    "entropy",
    "entropy_of_grades",
    "choose_from_list",
    "choice_correspondence",
    "fold_pairwise",
    "make_list",
    # consistency
    "ChoiceFunctionTable",
    "ContractionResult",
    "ContractionViolation",
    "Lemma2Class",
    "check_contraction",
    "rationalizable",
    "induced_table",
    "classify_lemma2",
    # errors
    "ChoiceTrustError",
    "DimensionError",
    "DuplicateItemError",
    "NestingError",
    "EmptyFinalError",
    "UnknownObjectError",
    "ShapeError",
    "DomainError",
    "EmptyListError",
    "GradeError",
    "IncompleteTableError",
]
