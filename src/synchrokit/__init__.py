"""synchrokit: exact search and verification for synchronizing automata.

The library models automata as state sets acted on by total functions,
finds shortest compressing words by breadth-first search over the power
automaton, extracts and validates the structural certificate of slowly
compressing automata, constructs the bounded witness words those
structures guarantee, detects extremal automata where greedy compression
is slowest, and sweeps whole populations of automata checking that every
bound holds with zero violations.
"""

from .automaton import (
    Dfa,
    StateSet,
    Word,
    apply_letter,
    apply_word,
    dfa_from_json,
    dfa_to_json,
    format_word,
    load_dfa,
    parse_dfa,
    parse_word,
    serialize_dfa,
)
from .construct import (
    CaseTag,
    corank2_word,
    corank3_word,
    franklpin_word,
    pin_extension,
    sync_pipeline,
)
from .errors import (
    BudgetExceeded,
    CertificateContradiction,
    ConstructionContradiction,
    HypothesisFailed,
    ParseError,
    PreconditionFailed,
    SynchroError,
    TheoremViolation,
)
from .extremal import (
    GreedyConditionReport,
    assert_equivalence,
    build_extremal_dfa,
    check_condition_1,
    check_condition_2,
    check_condition_3,
    check_condition_4,
    hypothesis_greedy,
    pincor_check,
)
from .harness import (
    EnumerationScope,
    VerificationReport,
    enumerate_dfas,
    random_dfa,
    run_check,
    run_checks,
)
from .power import (
    CompressionResult,
    GreedyProfile,
    greedy_word,
    rank,
    shortest_compressing_word,
    size_profile,
)
from .structure import (
    CertificateReport,
    LetterClassification,
    StructureCertificate,
    certify,
    classify_pinlem,
    extract_certificate,
    pinlem_converse_check,
    satisfies_corank2_hypothesis,
    validate_certificate,
)

__version__ = "0.1.0"
