"""Exact degree computations for matroidal mixed Eulerian numbers.

Every name below is exported from its home module, which is imported the
first time the name is read (PEP 562): `import mixeuler` alone loads no
submodule, and a script pays only for the modules it uses.
"""

_EXPORTS = {
    "catalog": ("build_fano", "named_catalog"),
    "errors": (
        "BasisExchangeViolation", "CompositionMismatch", "DivisionNotExact",
        "EmptyInput", "ExponentMismatch", "InputError", "InternalError",
        "LoopDetected", "MatroidFileError", "MixEulerError", "NonPrimeQ",
        "NotAFlat", "NotLopsided", "NotPMD", "OverlapViolation", "ParseError",
        "PreconditionViolation", "RankCollapse", "RankOutOfRange",
        "RankTooSmall", "SizeViolation", "VOutOfRange",
    ),
    "expansion": (
        "CONVENTIONS", "LogConcavityResult", "WeightedFlagSum",
        "check_composition", "composition_to_indices", "compositions",
        "count_initial_descending_flags", "expand_gamma_product",
        "gamma_product_degree", "indices_to_composition", "insertion_weight",
        "log_concavity_check", "mixed_eulerian_degree", "pvol", "weight_scale",
    ),
    "localization": (
        "MAX_GROUND_SET", "gamma_degree_via_localization", "lambda_monomial_degree",
    ),
    "matroid": (
        "Matroid", "MinorMap", "bits_of", "build_boolean", "build_from_bases",
        "build_from_flats", "build_projective_geometry", "build_sparse_paving",
        "build_uniform", "largest_elements_mask", "mask_of", "set_of",
    ),
    "matroid_json": ("load_matroid", "matroid_from_document"),
    "pmd": (
        "PmdProfile", "lopsided_degree", "pmd_profile", "pmd_recurrence_check",
        "remixed_eulerian_eval", "remixed_polynomial",
    ),
    "polynomials": ("PolyXY", "UniPoly"),
    "recursion": (
        "SupportClass", "c_degree", "classify_support", "cv_polynomial",
        "cv_via_tutte_convolution", "deletion_contraction_degree",
        "eulerian_recursion_degree",
    ),
    "trees": ("PostnikovTree", "aggregate_by_flag", "enumerate_trees", "tree_weight"),
    "tutte": ("CharData", "characteristic_data", "tutte_polynomial"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
