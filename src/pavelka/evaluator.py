"""Exact evaluation of formulas in finite structures.

Truth values are Fractions in [0,1].  The implication evaluates to
``min(1 - lhs + rhs, 1)``, rational constants to themselves, and the
existential quantifier to the maximum over the finite universe (the
supremum is attained).  Satisfaction means value exactly 1.

A formula is split into quantifier scopes, the root and each ``Exists``
body, and a scope is evaluated by one loop over its nodes in postorder
(``syntax.postorder`` stopping at ``Exists`` nodes), so an operand that
expansion of the derived connectives shares is computed once per scope.
Only an ``Exists`` recurses, once per element of the universe, and its
value is memoized per restriction of the assignment to its free
variables: the recursion depth is the quantifier nesting, never the
connective or term depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EvaluationError, FormulaError
from .rationals import ZERO, ONE
from .syntax import (Atom, Const, Exists, Formula, Func, Geq, Implies, Theory,
                     Var, children, expand_abbreviations, free_variables,
                     postorder)

# An assignment is a plain mapping from free-variable names to element ids.
Assignment = Mapping[str, str]


# Formula analysis depends only on the formula, so it is shared between
# evaluators.  Entries hold the formula itself, which keeps ids stable.
_PREP_CACHE: dict[int, tuple] = {}
_PREP_CACHE_LIMIT = 65536


def _scope_children(node) -> tuple:
    """Children within one quantifier scope: an ``Exists`` body is a
    scope of its own."""
    return () if isinstance(node, Exists) else children(node)


def _prepare(formula: Formula):
    """``(formula, free, layer, scopes)``: the free variables of the
    expanded formula in first-occurrence order, the nodes of its root
    scope in postorder, and for each ``Exists`` node, by id, its free
    variables and the nodes of its body's scope."""
    cached = _PREP_CACHE.get(id(formula))
    if cached is not None:
        return cached
    core = expand_abbreviations(formula)
    scopes = {id(node): (free_variables(node),
                         postorder(node.body, _scope_children))
              for node in postorder(core) if isinstance(node, Exists)}
    entry = (formula, free_variables(core),
             postorder(core, _scope_children), scopes)
    if len(_PREP_CACHE) >= _PREP_CACHE_LIMIT:
        _PREP_CACHE.clear()
    _PREP_CACHE[id(formula)] = entry
    return entry


class Evaluator:
    """Reusable evaluation engine for one structure.

    Per-formula preprocessing (expansion, quantifier scopes, free
    variables) is cached by formula identity, which makes repeated
    evaluation of one formula corpus against many structures cheap.
    """

    def __init__(self, structure):
        self.structure = structure

    def value(self, formula: Formula, assignment: Optional[Assignment] = None) -> Fraction:
        _, free, layer, scopes = _prepare(formula)
        env = dict(assignment) if assignment else {}
        for name in free:
            if name not in env:
                raise EvaluationError(f"unassigned free variable {name!r}")
            if not self.structure.has_element(env[name]):
                raise EvaluationError(
                    f"assignment sends {name!r} outside the universe: "
                    f"{env[name]!r}")
        return self._run(layer, env, scopes, {})

    def _run(self, layer, env, scopes, memo):
        """The value of the last node of ``layer`` under ``env``."""
        values = {}
        for node in layer:
            kind = type(node)
            if kind is Implies:
                value = ONE - values[id(node.lhs)] + values[id(node.rhs)]
                if value > ONE:
                    value = ONE
            elif kind is Atom:
                value = self._atom(
                    node.pred, tuple([values[id(t)] for t in node.args]))
            elif kind is Var:
                value = env[node.name]
            elif kind is Const:
                value = node.value
            elif kind is Func:
                value = self._func(
                    node.name, tuple([values[id(t)] for t in node.args]))
            elif kind is Exists:
                free, body = scopes[id(node)]
                key = (id(node), tuple([env[name] for name in free]))
                value = memo.get(key)
                if value is None:
                    value = ZERO
                    inner = dict(env)
                    for element in self.structure.universe:
                        inner[node.var] = element
                        v = self._run(body, inner, scopes, memo)
                        if v > value:
                            value = v
                            if value == ONE:
                                break
                    memo[key] = value
            else:
                raise FormulaError(f"evaluator got a non-core node: {node!r}")
            values[id(node)] = value
        return value

    def _atom(self, pred, args):
        structure = self.structure
        table = structure.metric if pred == "d" \
            else structure.predicates.get(pred)
        if table is None:
            raise EvaluationError(
                f"predicate {pred!r} missing from the structure")
        try:
            return table[args]
        except KeyError:
            raise EvaluationError(
                f"predicate {pred!r} has no entry for {args}") from None

    def _func(self, name, args):
        structure = self.structure
        if not args:
            try:
                return structure.constants[name]
            except KeyError:
                raise EvaluationError(
                    f"constant {name!r} missing from the structure") from None
        table = structure.operations.get(name)
        if table is None:
            raise EvaluationError(
                f"operation {name!r} missing from the structure")
        try:
            return table[args]
        except KeyError:
            raise EvaluationError(
                f"operation {name!r} has no entry for {args}") from None


def evaluate(structure, formula: Formula,
             assignment: Optional[Assignment] = None) -> Fraction:
    """The exact truth value of ``formula`` in ``structure`` under the
    assignment (which must cover its free variables)."""
    return Evaluator(structure).value(formula, assignment)


def satisfies(structure, sentence: Formula) -> bool:
    """True iff the sentence evaluates to exactly 1."""
    if free_variables(sentence):
        raise FormulaError("satisfaction is defined for sentences only")
    return evaluate(structure, sentence) == ONE


@dataclass(frozen=True)
class TheoryReport:
    satisfied: bool
    failing: tuple  # of (sentence, value) with value < 1


def check_theory(structure, theory: Theory) -> TheoryReport:
    """Evaluate every sentence; report each one with value < 1."""
    engine = Evaluator(structure)
    failing = []
    for sentence in theory.sentences:
        value = engine.value(sentence)
        if value != ONE:
            failing.append((sentence, value))
    return TheoryReport(satisfied=not failing, failing=tuple(failing))


@dataclass(frozen=True)
class EntailmentResult:
    holds: bool
    structure: object = None
    assignment: tuple = None
    formula: Formula = None
    value: Fraction = None

    def __bool__(self):
        return self.holds


def entails(family: Sequence, theory: Theory, gamma, sigma) -> EntailmentResult:
    """Finite-family semantic entailment between formula sets.

    True iff in every family member satisfying the theory, every tuple
    realizing ``gamma`` (all members exactly 1) also realizes ``sigma``.
    ``gamma`` and ``sigma`` carry ``variables`` and ``formulas`` and must
    share their variable tuple.  A false verdict returns the first
    counterexample in canonical order.
    """
    if tuple(gamma.variables) != tuple(sigma.variables):
        raise FormulaError(
            f"variable tuples differ: {gamma.variables} vs {sigma.variables}")
    names = tuple(gamma.variables)
    for member, engine, tup in model_tuples(family, theory, len(names)):
        env = dict(zip(names, tup))
        if all(engine.value(f, env) == ONE for f in gamma.formulas):
            for f in sigma.formulas:
                value = engine.value(f, env)
                if value != ONE:
                    return EntailmentResult(False, member, tup, f, value)
    return EntailmentResult(True)


def model_tuples(family: Sequence, theory: Theory, n: int):
    """``(member, engine, tuple)`` for each family member satisfying the
    theory and each n-tuple of its universe, in canonical order."""
    for member in family:
        if not check_theory(member, theory).satisfied:
            continue
        engine = Evaluator(member)
        for tup in itertools.product(member.universe, repeat=n):
            yield member, engine, tup


@dataclass(frozen=True)
class TarskiVaughtReport:
    passed: bool
    failures: tuple  # of (formula, threshold)


def tarski_vaught_check(structure, subset: Iterable[str],
                        formulas: Sequence[Formula],
                        grid: Sequence[Fraction]) -> TarskiVaughtReport:
    """Finite witness test for one-variable formulas.

    For each formula p(x) with ``E x. p`` of value exactly 1 and each
    threshold r in the grid, some element a of the subset must satisfy
    ``p[a] >= r`` exactly.  Failures list every such (formula, r) pair.
    The test is sound but checks only the supplied formulas and grid.
    """
    subset = list(subset)
    for element in subset:
        if not structure.has_element(element):
            raise EvaluationError(f"subset element {element!r} not in universe")
    for r in grid:
        if not (ZERO < r < ONE):
            raise FormulaError(f"grid threshold outside (0,1): {r}")
    engine = Evaluator(structure)
    failures = []
    for phi in formulas:
        fv = free_variables(phi)
        if len(fv) != 1:
            raise FormulaError(
                f"need exactly one free variable, got {fv}: {phi!r}")
        var = fv[0]
        if engine.value(Exists(var, phi)) != ONE:
            continue
        for r in grid:
            witness = Geq(phi, r)
            if not any(engine.value(witness, {var: a}) == ONE for a in subset):
                failures.append((phi, r))
    return TarskiVaughtReport(passed=not failures, failures=tuple(failures))
