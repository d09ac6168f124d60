"""Exact finite-model toolkit for [0,1]-valued logic built from the
Lukasiewicz implication, rational truth constants, and the existential
quantifier over finite metric structures.

All arithmetic is exact: values are ``fractions.Fraction`` at the API
and integers over one common denominator inside the evaluator; no floats
anywhere.
"""

from .errors import (EvaluationError, FormulaError, ParseError, PavelkaError,
                     ResolutionError, RestrictionError, StructureError,
                     VocabularyError)
from .evaluator import (Evaluator, check_theory, compile_formula,
                        compile_formulas, entails, evaluate, satisfies,
                        tarski_vaught_check)
from .omitting import (CompleteTypeRecord, GeneratorCandidate, OmegaCandidate,
                       SearchOutcome, SearchSpace, default_record_corpus,
                       generator_check, metrically_principal_check,
                       omega_principal_check, omits, realizes, search_model,
                       type_distance)
from .structures import (Renaming, Structure, ValidationReport, Violation,
                         combine, combined_signature, generated_substructure,
                         lipschitz_check, reduct, reduct_signature, rename,
                         rename_signature, similarity_view, validate_structure)
from .syntax import (And, Atom, Const, Exists, Forall, Formula, Func, Geq,
                     Implies, Leq, Not, Or, Signature, Term, Theory, TypeSet,
                     Var, Vocabulary, expand_abbreviations, free_variables,
                     parse_formula, parse_term, parse_vocabulary, render,
                     render_term, rename_symbols, substitute)
from .transforms import (OrderTheorySpec, component_sentence, discrete_macro,
                         order_theory, relativize_family, relativize_monadic,
                         restrict_to_predicate, thicken)

__version__ = "0.1.0"
