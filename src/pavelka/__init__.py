"""Exact finite-model toolkit for [0,1]-valued logic built from the
Lukasiewicz implication, rational truth constants, and the existential
quantifier over finite metric structures.

All arithmetic is exact: values are ``fractions.Fraction`` at the API
and integers over one common denominator inside the evaluator; no floats
anywhere.

The names below, and the submodules, load on first use (PEP 562): the
first read of ``pavelka.Structure`` imports ``pavelka.structures``, and
the name is then kept in this package's globals.  So ``import pavelka``
costs next to nothing, and a process imports only the modules it uses.
"""

import importlib

_EXPORTS = {
    "errors": ("EvaluationError", "FormulaError", "ParseError",
               "PavelkaError", "ResolutionError", "RestrictionError",
               "StructureError", "VocabularyError"),
    "evaluator": ("Evaluator", "check_theory", "compile_formula",
                  "compile_formulas", "entails", "evaluate", "satisfies",
                  "tarski_vaught_check"),
    "omitting": ("CompleteTypeRecord", "GeneratorCandidate",
                 "OmegaCandidate", "SearchOutcome", "SearchSpace",
                 "default_record_corpus", "generator_check",
                 "metrically_principal_check", "omega_principal_check",
                 "omits", "realizes", "search_model", "type_distance"),
    "structures": ("Renaming", "Structure", "ValidationReport", "Violation",
                   "combine", "combined_signature", "generated_substructure",
                   "lipschitz_check", "reduct", "reduct_signature", "rename",
                   "rename_signature", "similarity_view",
                   "validate_structure"),
    "syntax": ("And", "Atom", "Const", "Exists", "Forall", "Formula", "Func",
               "Geq", "Implies", "Leq", "Not", "Or", "Signature", "Term",
               "Theory", "TypeSet", "Var", "Vocabulary",
               "expand_abbreviations", "free_variables", "parse_formula",
               "parse_term", "parse_vocabulary", "render", "render_term",
               "rename_symbols", "substitute"),
    "transforms": ("OrderTheorySpec", "component_sentence", "discrete_macro",
                   "order_theory", "relativize_family", "relativize_monadic",
                   "restrict_to_predicate", "thicken"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}
_SUBMODULES = ("cli", "connectives", "errors", "evaluator", "omitting",
               "programs", "rationals", "records", "storage", "structures",
               "syntax", "transforms")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
