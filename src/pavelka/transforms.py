"""Formula-to-formula constructions: the discreteness macro,
relativization of quantifiers to a guard predicate, restriction of a
structure to a discrete predicate's positive part, the discrete
linear-ordering theory, and type thickening."""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb
from typing import Optional

from .errors import FormulaError, RestrictionError, VocabularyError
from .rationals import ZERO, ONE, as_fraction
from .records import Record
from .structures import _MARKERS, Structure, _induced, _tag_symbol
from .syntax import (And, Atom, Const, Exists, Forall, Formula, Leq, Not, Or,
                     Theory, TypeSet, Var, Vocabulary, _check_symbol_name,
                     all_variables, expand_abbreviations, formula_symbols,
                     free_variables, fresh_variable, rebuild, rename_symbols,
                     substitute)


def discrete_macro(atom: Atom) -> Formula:
    """``p OR NOT p`` for an atomic formula, expanded to core.

    Its value is ``max(v, 1-v)``, which is exactly 1 iff v is 0 or 1, so
    the universal closure says the predicate's table is {0,1}-valued.
    """
    if not isinstance(atom, Atom):
        raise FormulaError("the discreteness macro applies to atoms only")
    return expand_abbreviations(Or(atom, Not(atom)))


def _relativize(formula: Formula, guard) -> Formula:
    """Shared rewrite: connectives commute, quantifiers get guarded."""

    def guarded(node):
        if isinstance(node, Exists):
            return Exists(node.var, And(guard(node.var), node.body))
        if isinstance(node, Forall):
            return Forall(node.var, Or(Not(guard(node.var)), node.body))
        return node

    return rebuild(formula, guarded)


def relativize_monadic(formula: Formula, predicate: str) -> Formula:
    """Relativize every quantifier to the positive part of a fresh
    monadic predicate: existentials become ``E x.(P(x) /\\ ...)`` and
    universals ``A x.(~P(x) \\/ ...)``.

    Whenever ``P`` is discrete in a structure M and restricting M to
    ``{x | P(x) = 1}`` yields a valid structure, the relativized formula
    takes the same value in M as the original takes in the restriction.
    """
    _check_symbol_name(predicate)
    if predicate in formula_symbols(formula):
        raise VocabularyError(
            f"guard predicate {predicate!r} already occurs in the formula")
    return _relativize(formula, lambda v: Atom(predicate, (Var(v),)))


def relativize_family(sentence: Formula, relation: str,
                      var: Optional[str] = None) -> Formula:
    """Relativize a sentence to the family ``{y | R(x, y)}``, producing a
    formula in the single free variable ``x`` (freshly named unless
    given).  At any point a where ``R(a, .)`` is discrete and the
    restriction is a valid structure, its value equals the sentence's
    value in that restriction."""
    _check_symbol_name(relation)
    if var is not None:
        _check_symbol_name(var)
    if relation in formula_symbols(sentence):
        raise VocabularyError(
            f"guard relation {relation!r} already occurs in the sentence")
    if free_variables(sentence):
        raise FormulaError("relativization to a family starts from a sentence")
    if var is None:
        var = fresh_variable("w", all_variables(sentence))
    elif var in all_variables(sentence):
        raise FormulaError(f"parameter variable {var!r} occurs in the sentence")
    return _relativize(sentence,
                       lambda v: Atom(relation, (Var(var), Var(v))))


def restrict_to_predicate(structure: Structure, predicate: str) -> Structure:
    """The substructure induced by ``{a | P(a) = 1}``, with P removed.

    Defined iff P is discrete, the part is nonempty, every constant lies
    inside, and every operation maps tuples from the part into the part;
    each failure raises ``RestrictionError`` with its own reason.
    """
    table = structure.predicates.get(predicate)
    if table is None or len(next(iter(table))) != 1:
        raise VocabularyError(
            f"{predicate!r} is not a monadic predicate of the structure")
    for (a,), value in table.items():
        if value != ZERO and value != ONE:
            raise RestrictionError(
                "non-discrete",
                f"P({a}) = {value} is neither 0 nor 1")
    part = tuple(a for a in structure.universe if table[(a,)] == ONE)
    if not part:
        raise RestrictionError("empty", "no element satisfies the predicate")
    inside = set(part)
    for name, element in structure.constants.items():
        if element not in inside:
            raise RestrictionError(
                "not-closed", f"constant {name!r} = {element!r} is outside")
    for name, optable in structure.operations.items():
        arity = len(next(iter(optable)))
        for args in itertools.product(part, repeat=arity):
            if optable[args] not in inside:
                raise RestrictionError(
                    "not-closed",
                    f"operation {name!r} escapes the part at {args}")

    metric, predicates, operations = _induced(structure, part)
    del predicates[predicate]
    return Structure(part, metric, predicates, operations,
                     structure.constants, label=structure.label)


def component_sentence(sentence: Formula, k: int) -> Formula:
    """The sentence about component ``k`` of a combined structure: rename
    every symbol with the component suffix, then relativize all
    quantifiers to the component's marker predicate."""
    if k not in (0, 1):
        raise FormulaError("component index must be 0 or 1")
    mapping = {name: _tag_symbol(name, k)
               for name in formula_symbols(sentence)}
    return relativize_monadic(rename_symbols(sentence, mapping), _MARKERS[k])


# ---------------------------------------------------------------------------
# The discrete linear-ordering theory


class OrderTheorySpec(Record):
    """Names for the carrier predicate and the strict order relation,
    both fresh relative to an optional base vocabulary."""

    _fields = ("predicate", "order", "base")

    def __init__(self, predicate: str, order: str,
                 base: Optional[Vocabulary] = None):
        _check_symbol_name(predicate)
        _check_symbol_name(order)
        if predicate == order:
            raise VocabularyError("carrier and order names must differ")
        if base is not None:
            clash = {predicate, order} & base.symbols()
            if clash:
                raise VocabularyError(
                    f"order-theory names clash with the base vocabulary: "
                    f"{sorted(clash)}")
        super().__init__(predicate, order, base)


def order_theory(spec: OrderTheorySpec) -> Theory:
    """The seven sentences making (P, <) a discrete strict linear order
    on the metrically discrete positive part of P, expanded to core:

      1. P is discrete everywhere;
      2. the order is discrete on P-pairs;
      3. the metric is discrete on P-pairs;
      4. irreflexivity on P;
      5. antisymmetry on P;
      6. transitivity;
      7. trichotomy: distinct P-points are comparable.
    """
    p, lt = spec.predicate, spec.order

    def P(v):
        return Atom(p, (Var(v),))

    def LT(a, b):
        return Atom(lt, (Var(a), Var(b)))

    def D(a, b):
        return Atom("d", (Var(a), Var(b)))

    def disc(atom):
        return Or(atom, Not(atom))

    sentences = [
        Forall("x", disc(P("x"))),
        Forall("x", Forall("y", Or(Or(Not(P("x")), Not(P("y"))),
                                   disc(LT("x", "y"))))),
        Forall("x", Forall("y", Or(Or(Not(P("x")), Not(P("y"))),
                                   disc(D("x", "y"))))),
        Forall("x", Or(Not(P("x")), Not(LT("x", "x")))),
        Forall("x", Forall("y", Or(
            Not(And(And(P("x"), P("y")), LT("x", "y"))),
            Not(LT("y", "x"))))),
        Forall("x", Forall("y", Forall("z", Or(
            Not(And(And(And(P("x"), P("y")), LT("x", "y")), LT("y", "z"))),
            LT("x", "z"))))),
        Forall("x", Forall("y", Or(
            Not(And(P("x"), P("y"))),
            Or(Or(LT("x", "y"), LT("y", "x")), Not(D("x", "y")))))),
    ]
    return Theory(f"discrete_linear_ordering[{p},{lt}]",
                  tuple(expand_abbreviations(s) for s in sentences))


# ---------------------------------------------------------------------------
# Thickening


# The most formulas ``thicken`` builds.  It builds one per conjunction of
# members, ``2^m - 1`` of them by default for a type of ``m`` formulas,
# and each extra member about doubles both the build and every scan of
# the result: 8,191 formulas for a 13-formula type.
THICKEN_LIMIT = 4096


def thicken(typeset, delta: Fraction, max_conjunction: Optional[int] = None):
    """The thickened type: a realization of the original within distance
    ``delta`` of the tuple variables.

    For each conjunction s of members (all subsets up to the size bound,
    the full conjunction always, the empty conjunction standing for the
    constant 1 when the type set is empty) the result contains

        E y1. ... E yn. ( d(x1,y1) <= delta /\\ ... /\\ s(y1..yn) )

    with fresh witness variables.  The bound defaults to the full size;
    over finite structures the full conjunction dominates the rest.
    The formulas are counted before any is built, and more than
    ``THICKEN_LIMIT`` of them raise ``FormulaError``.
    """
    delta = as_fraction(delta)
    if not (ZERO <= delta <= ONE):
        raise FormulaError(f"delta outside [0,1]: {delta}")
    size = len(typeset.formulas)
    bound = size if max_conjunction is None else max(0, min(max_conjunction, size))
    count = sum(comb(size, r) for r in range(1, bound + 1)) + (bound < size) \
        if size else 1
    if count > THICKEN_LIMIT:
        raise FormulaError(
            f"thickening too large: {count} formulas exceeds "
            f"{THICKEN_LIMIT}; bound the conjunctions with --max-conjunction")
    xs = tuple(typeset.variables)
    used = set(xs)
    for phi in typeset.formulas:
        used |= all_variables(phi)
    ys = []
    for x in xs:
        y = fresh_variable(f"{x}_w", used)
        used.add(y)
        ys.append(y)

    members = list(typeset.formulas)
    index_sets = []
    if size == 0:
        index_sets.append(())
    else:
        for r in range(1, bound + 1):
            index_sets.extend(itertools.combinations(range(size), r))
        full = tuple(range(size))
        if full not in index_sets:
            index_sets.append(full)

    out = []
    for indices in index_sets:
        if indices:
            conj = members[indices[0]]
            for i in indices[1:]:
                conj = And(conj, members[i])
        else:
            conj = Const(ONE)
        shifted = substitute(conj, {x: Var(y) for x, y in zip(xs, ys)})
        body = Leq(Atom("d", (Var(xs[0]), Var(ys[0]))), delta)
        for x, y in zip(xs[1:], ys[1:]):
            body = And(body, Leq(Atom("d", (Var(x), Var(y))), delta))
        body = And(body, shifted)
        for y in reversed(ys):
            body = Exists(y, body)
        out.append(body)
    return TypeSet(name=f"{typeset.name}^{delta}", variables=xs,
                   formulas=tuple(out))
