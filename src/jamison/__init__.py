"""Separation analysis of power sequences, shift-perturbed diagonal operator
constructions, their matrix semigroup lifts, and the weighted half-line star
norm used to bound the translation action along a sequence.

Each public name loads its module on first use (PEP 562), so importing the
package, or running one command of ``jamison.cli``, costs only the modules
that it touches.
"""

import importlib

# public name -> defining module; the one list of the package surface
_MODULE_OF = {
    **dict.fromkeys((
        "LevelBudget", "PowerBoundReport", "PowerBoundRow", "ShiftConstruction",
        "TruncatedOperator", "analytic_power_bound", "assemble_operator",
        "build_construction", "fiber_map", "matrix_power", "operator_norm",
        "verify_partial_power_bound",
    ), "construction"),
    **dict.fromkeys((
        "BoundedReport", "LatticeReport", "MatrixSemigroup", "SpectrumReport",
        "bounded_along", "check_lattice", "evolve", "generator_spectrum_check",
        "lift_report", "principal_log", "unit_interval_sup",
    ), "semigroup"),
    **dict.fromkeys((
        "DjBoundReport", "EigenfieldTable", "ExpSpan", "StarNormValue",
        "TranslationBoundReport", "base_norm", "dj_bound_check",
        "eigenfield_modulus", "star_norm", "translate", "verify_translation_bound",
    ), "starnorm"),
    **dict.fromkeys((
        "load_construction", "load_sequence", "save_construction",
    ), "serialize"),
    **dict.fromkeys((
        "INCONCLUSIVE", "SEPARATED", "VANISHING", "ClassificationResult",
        "IndexSequence", "SeparationReport", "box_dimension_estimate", "chord_distance",
        "chord_torus_bounds_check", "classify_jamison", "d_metric", "near_return_search",
        "separation_constant", "signed_turns", "torus_norm", "turns_to_radians", "unit_diff",
    ), "sequences"),
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
