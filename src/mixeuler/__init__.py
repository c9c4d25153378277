"""Exact degree computations for matroidal mixed Eulerian numbers."""

from .catalog import build_fano, named_catalog
from .errors import (
    BasisExchangeViolation,
    CompositionMismatch,
    DivisionNotExact,
    EmptyInput,
    ExponentMismatch,
    InputError,
    InternalError,
    LoopDetected,
    MatroidFileError,
    MixEulerError,
    NonPrimeQ,
    NotAFlat,
    NotLopsided,
    NotPMD,
    OverlapViolation,
    ParseError,
    PreconditionViolation,
    RankCollapse,
    RankOutOfRange,
    RankTooSmall,
    SingularSystem,
    SizeViolation,
    VOutOfRange,
)
from .expansion import (
    CONVENTIONS,
    LogConcavityResult,
    WeightedFlagSum,
    check_composition,
    composition_to_indices,
    compositions,
    count_initial_descending_flags,
    expand_gamma_product,
    gamma_product_degree,
    indices_to_composition,
    insertion_weight,
    log_concavity_check,
    mixed_eulerian_degree,
    mult_weight,
    oi_weight,
    pvol,
    weight_scale,
)
from .localization import (
    MAX_GROUND_SET,
    DescentTarget,
    PermutationEval,
    descent_rule_value,
    descent_target,
    gamma_class_vector,
    gamma_degree_via_localization,
    lambda_monomial_degree,
    lambda_restriction_vector,
    perm_flag_and_basis,
    series_constant_term,
)
from .matroid import (
    Matroid,
    MinorMap,
    bits_of,
    build_boolean,
    build_from_bases,
    build_from_flats,
    build_projective_geometry,
    build_sparse_paving,
    build_uniform,
    largest_elements_mask,
    mask_of,
    set_of,
)
from .matroid_json import load_matroid, matroid_from_document
from .pmd import (
    PmdProfile,
    lopsided_degree,
    pg_identity_check,
    pmd_profile,
    pmd_recurrence_check,
    remixed_eulerian_eval,
)
from .polynomials import PolyXY, UniPoly
from .recursion import (
    SupportClass,
    c_degree,
    classify_support,
    cv_polynomial,
    cv_via_tutte_convolution,
    deletion_contraction_degree,
    eulerian_recursion_degree,
    two_block_degree,
)
from .trees import PostnikovTree, aggregate_by_flag, enumerate_trees, tree_weight
from .tutte import CharData, characteristic_data, tutte_polynomial

__version__ = "0.1.0"
