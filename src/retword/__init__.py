"""Return-word calculus for primitive substitutions, in exact arithmetic.

The library builds fixed points of primitive substitutions, computes return
words and return substitutions with their derivation towers, verifies the
bridge-morphism and matrix identities tying a substitution to its return
substitutions, analyses eigenvalue transfer in exact integer arithmetic, and
decides bounded multiplicative dependence of dominant eigenvalues.
"""

from .checks import Check
from .circularity import (
    Interpretation,
    InjectivityCertificate,
    check_injectivity,
    find_n0,
    interpretations,
    sync_delay_search,
)
from .errors import (
    DecompositionError,
    GenerationError,
    InternalInconsistencyError,
    ParseError,
    ResourceLimitError,
)
from .intpoly import IntPolynomial, RootEnclosure, cyclotomic, euler_phi
from .periodic import (
    PeriodicPresentation,
    build_periodic_presentation,
    verify_presentation,
)
from .relations import (
    MatrixDecomposition,
    RelationReport,
    SharedWitness,
    SteponeHypotheses,
    SteponeResult,
    check_stepone_hypotheses,
    coding_substitution,
    eigenvalue_transfer_check,
    find_gamma,
    kappa_morphism,
    lambda_morphism,
    matrix_decomposition,
    power_coincidence,
    shared_fixed_point_analysis,
    two_occurrence_exponent,
    verify_propprec,
)
from .returns import (
    DerivedPrefix,
    ReturnConstants,
    ReturnSystem,
    TowerResult,
    decompose,
    derivation_tower,
    derived_prefix,
    estimate_constants,
    min_return_length,
    nested_derivation,
    nonperiodic_check,
    return_substitution,
    return_words_of_prefix,
)
from .spectrum import (
    DependenceWitness,
    Spectrum,
    char_poly,
    dominant_eigenvalue,
    mult_dependent,
    spectra_equal_mod_trivial,
    spectrum,
    strip_trivial,
)
from .substitution import (
    FixedPointPrefix,
    IncidenceMatrix,
    Morphism,
    Substitution,
    compose,
    fixed_point_prefix,
    format_substitution,
    identity_morphism,
    incidence_matrix,
    is_primitive,
    morphic_image_prefix,
    parse_substitution,
    power,
    substitution_from_strings,
)
from .words import (
    Alphabet,
    OccurrenceList,
    Word,
    factor_set,
    occurrences,
)

__version__ = "0.1.0"
