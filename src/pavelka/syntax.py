"""Vocabularies, signatures, and the term/formula language.

Formula grammar (UTF-8 text):

    formula   := implies
    implies   := compare ('->' implies)?            right associative
    compare   := or ( ('<=' | '>=') RATIONAL )*
    or        := and ( '\\/' and )*
    and       := unary ( '/\\' unary )*
    unary     := '~' unary | ('E'|'A') VAR '.' implies | atom
    atom      := '(' implies ')' | RATIONAL | 'd' '(' term ',' term ')'
               | PRED '(' term {',' term} ')' | PRED          (0-ary)
    term      := VAR | CONST | OP '(' term {',' term} ')'

Rational literals are ``p/q``, finite decimals, or integers, and must lie
in [0,1].  ``E``/``A`` quantify; ``~``, ``\\/``, ``/\\``, ``<=``, ``>=``
are the derived connectives; the metric atom is ``d(t1,t2)``.

Vocabulary files use one declaration per line::

    pred P 1
    op f 2
    const c
"""

from __future__ import annotations

import re
from collections import Counter
from functools import partial
from fractions import Fraction
from operator import attrgetter, is_
from typing import Mapping

from .errors import FormulaError, ParseError, VocabularyError
from .rationals import ZERO, ONE, as_fraction, in_unit_interval, parse_rational
from .records import Record, postorder as _postorder

RESERVED_NAMES = frozenset({"d", "E", "A"})
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _check_symbol_name(name: str) -> None:
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise VocabularyError(f"bad symbol name: {name!r}")
    if name in RESERVED_NAMES:
        raise VocabularyError(f"symbol name {name!r} is reserved")


# ---------------------------------------------------------------------------
# Vocabularies and signatures


class Vocabulary(Record):
    """Predicate and operation symbols with arities.

    The binary metric symbol ``d`` is implicit and never declared.
    Arity-0 operations are constants.
    """

    _fields = ("predicates", "operations")

    def __init__(self, predicates: Mapping[str, int],
                 operations: Mapping[str, int]):
        preds = dict(predicates)
        ops = dict(operations)
        for name, arity in list(preds.items()) + list(ops.items()):
            _check_symbol_name(name)
            if isinstance(arity, bool) or not isinstance(arity, int) \
                    or arity < 0:
                raise VocabularyError(f"bad arity for {name!r}: {arity!r}")
        overlap = set(preds) & set(ops)
        if overlap:
            raise VocabularyError(
                f"predicate/operation name clash: {sorted(overlap)}")
        super().__init__(preds, ops)

    def constants(self) -> list[str]:
        return sorted(n for n, a in self.operations.items() if a == 0)

    def symbols(self) -> set[str]:
        return set(self.predicates) | set(self.operations)

    def contains(self, other: "Vocabulary") -> bool:
        """True when every symbol of ``other`` is here with the same arity."""
        return all(self.predicates.get(n) == a for n, a in other.predicates.items()) \
            and all(self.operations.get(n) == a for n, a in other.operations.items())


class Signature(Record):
    """A vocabulary plus sampled uniform-continuity data per symbol.

    ``moduli`` maps each non-constant symbol to a finite list of
    ``(epsilon, delta)`` pairs, both in (0,1): whenever two argument
    tuples are within ``delta`` in every coordinate, the symbol's values
    must be within ``epsilon``.  The tables are samples, not closed-form
    moduli; an empty list imposes no constraint.
    """

    _fields = ("vocabulary", "moduli")

    def __init__(self, vocabulary: Vocabulary, moduli: Mapping[str, tuple]):
        normalized: dict[str, tuple] = {}
        eligible = set(vocabulary.predicates) | {
            n for n, a in vocabulary.operations.items() if a > 0}
        for name, pairs in dict(moduli).items():
            if name not in eligible:
                raise VocabularyError(
                    f"moduli given for unknown or constant symbol {name!r}")
            clean = []
            for eps, delta in pairs:
                eps, delta = as_fraction(eps), as_fraction(delta)
                if not (ZERO < eps < ONE and ZERO < delta < ONE):
                    raise VocabularyError(
                        f"modulus pair for {name!r} outside (0,1): ({eps}, {delta})")
                clean.append((eps, delta))
            normalized[name] = tuple(clean)
        for name in eligible:
            normalized.setdefault(name, ())
        super().__init__(vocabulary, normalized)


# ---------------------------------------------------------------------------
# Terms


class Term(Record):
    __slots__ = ()


class Var(Term):
    __slots__ = _fields = ("name",)

    def __init__(self, name: str):
        object.__setattr__(self, "name", name)


class Func(Term):
    """Operation application; a constant symbol is ``Func(name)``."""

    __slots__ = _fields = ("name", "args")

    def __init__(self, name: str, args: tuple = ()):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "args", args)


# ---------------------------------------------------------------------------
# Formulas


class Formula(Record):
    # not a field, so ``==``, ``hash`` and ``repr`` never read it: the
    # program ``evaluator.compile_formula`` keeps for the formula
    __slots__ = ("_program",)


class Atom(Formula):
    """Predicate application; the metric atom uses the reserved name ``d``."""

    __slots__ = _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple):
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", tuple(args))


class Const(Formula):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        value = as_fraction(value)
        if not in_unit_interval(value):
            raise FormulaError(f"constant outside [0,1]: {value}")
        object.__setattr__(self, "value", value)


class Implies(Formula):
    __slots__ = _fields = ("lhs", "rhs")

    def __init__(self, lhs: Formula, rhs: Formula):
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)


class Exists(Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: str, body: Formula):
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "body", body)


# Derived node kinds.  Parsed trees may contain them; ``expand_abbreviations``
# rewrites them into the four core kinds above.


class Not(Formula):
    __slots__ = _fields = ("body",)

    def __init__(self, body: Formula):
        object.__setattr__(self, "body", body)


class Or(Formula):
    __slots__ = _fields = ("lhs", "rhs")
    __init__ = Implies.__init__


class And(Formula):
    __slots__ = _fields = ("lhs", "rhs")
    __init__ = Implies.__init__


class Leq(Formula):
    __slots__ = _fields = ("body", "bound")

    def __init__(self, body: Formula, bound: Fraction):
        bound = as_fraction(bound)
        if not in_unit_interval(bound):
            raise FormulaError(f"bound outside [0,1]: {bound}")
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "bound", bound)


class Geq(Formula):
    __slots__ = _fields = ("body", "bound")
    __init__ = Leq.__init__


class Forall(Formula):
    __slots__ = _fields = ("var", "body")
    __init__ = Exists.__init__


class Theory(Record):
    """A named, ordered list of sentences (formulas with no free variables)."""

    _fields = ("name", "sentences")

    def __init__(self, name: str, sentences: tuple):
        sentences = tuple(sentences)
        for phi in sentences:
            fv = free_variables(phi)
            if fv:
                raise FormulaError(
                    f"theory {name!r} contains a non-sentence "
                    f"(free variables {fv}): {render(phi)}")
        super().__init__(name, sentences)


class TypeSet(Record):
    """A named finite set of formulas in fixed free variables x1..xn."""

    _fields = ("name", "variables", "formulas")

    def __init__(self, name: str, variables: tuple, formulas: tuple):
        variables = tuple(variables)
        formulas = tuple(formulas)
        if not variables:
            raise FormulaError("a type needs at least one variable")
        if len(set(variables)) != len(variables):
            raise FormulaError("type variables must be distinct")
        allowed = set(variables)
        for phi in formulas:
            extra = set(free_variables(phi)) - allowed
            if extra:
                raise FormulaError(
                    f"type {name!r} has formula with stray free "
                    f"variables {sorted(extra)}")
        super().__init__(name, variables, formulas)


# ---------------------------------------------------------------------------
# Structural walks
#
# Formulas are DAGs: ``expand_abbreviations`` and the connective builders
# share repeated operands.  Every walk is a pass over ``postorder``, which
# lists each distinct node once by identity, with results keyed by
# ``id(node)``; a walk therefore costs time linear in the DAG size and no
# recursion depth.  The hot walks, ``free_variables``, expansion and the
# evaluator's scope pass, each loop over an explicit stack of their own.


_CHILDREN = {
    **dict.fromkeys((Var, Const), lambda node: ()),
    **dict.fromkeys((Atom, Func), attrgetter("args")),
    **dict.fromkeys((Implies, Or, And), attrgetter("lhs", "rhs")),
    **dict.fromkeys((Not, Leq, Geq, Exists, Forall), lambda node: (node.body,)),
}
_BODIES = (Not, Leq, Geq, Exists, Forall)


def children(node) -> tuple:
    """The immediate subformulas, or argument terms, of a formula or term."""
    try:
        return _CHILDREN[type(node)](node)
    except KeyError:
        raise FormulaError(f"not a formula node: {node!r}") from None


def postorder(root, kids=children) -> list:
    """``records.postorder`` over formula and term nodes, unless
    ``kids`` gives other children."""
    return _postorder(root, kids)


def _with_children(node, kids):
    """``node`` over ``kids``; ``node`` itself when they are its children."""
    if all(map(is_, kids, children(node))):
        return node
    if isinstance(node, Atom):
        return Atom(node.pred, tuple(kids))
    if isinstance(node, Func):
        return Func(node.name, tuple(kids))
    if isinstance(node, (Implies, Or, And)):
        return type(node)(*kids)
    if isinstance(node, Not):
        return Not(kids[0])
    if isinstance(node, (Leq, Geq)):
        return type(node)(kids[0], node.bound)
    return type(node)(node.var, kids[0])


def rebuild(root, rewrite):
    """Rewrite bottom-up: each distinct node, over its rebuilt children,
    becomes ``rewrite(node)``.  Shared nodes stay shared, and a node that
    ``rewrite`` leaves alone over unchanged children comes back as the
    same object."""
    done: dict[int, object] = {}
    for node in postorder(root):
        new = _with_children(node, [done[id(kid)] for kid in children(node)])
        done[id(node)] = rewrite(new)
    return done[id(root)]


def free_variables(formula: Formula) -> tuple:
    """Free variables in order of first occurrence (left-to-right).

    A node stays on the stack, under its children that are not done,
    until they are; a variable argument needs no visit of its own."""
    free: dict[int, tuple] = {}
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in free:
            stack.pop()
            continue
        kind = type(node)
        if kind is Implies or kind is Or or kind is And:
            lhs, rhs = free.get(id(node.lhs)), free.get(id(node.rhs))
            if lhs is None or rhs is None:
                stack += (node.rhs, node.lhs)
                continue
            names = lhs if not rhs or rhs == lhs else rhs if not lhs \
                else tuple(dict.fromkeys(lhs + rhs))
        elif kind is Atom or kind is Func:
            names, waiting = [], []
            for arg in node.args:
                if type(arg) is Var:
                    names.append(arg.name)
                    continue
                part = free.get(id(arg))
                if part is None:
                    waiting.append(arg)
                else:
                    names += part
            if waiting:
                stack += reversed(waiting)
                continue
            names = tuple(dict.fromkeys(names))
        elif kind in _BODIES:
            names = free.get(id(node.body))
            if names is None:
                stack.append(node.body)
                continue
            if (kind is Exists or kind is Forall) and node.var in names:
                names = tuple([name for name in names if name != node.var])
        elif kind is Var:
            names = (node.name,)
        elif kind is Const:
            names = ()
        else:
            raise FormulaError(f"not a formula node: {node!r}")
        stack.pop()
        free[id(node)] = names
    return free[id(formula)]


def term_variables(term: Term) -> set[str]:
    return {node.name for node in postorder(term) if isinstance(node, Var)}


def all_variables(formula: Formula) -> set[str]:
    """Every variable name occurring in the formula, bound or free."""
    return {node.name if isinstance(node, Var) else node.var
            for node in postorder(formula)
            if isinstance(node, (Var, Exists, Forall))}


def formula_symbols(formula: Formula) -> set[str]:
    """Predicate and operation names occurring in the formula (``d`` excluded)."""
    return {node.name if isinstance(node, Func) else node.pred
            for node in postorder(formula)
            if isinstance(node, Func)
            or (isinstance(node, Atom) and node.pred != "d")}


_CORE_NODES = (Atom, Const, Implies, Exists, Var, Func)


def is_core(formula: Formula) -> bool:
    """True when no derived node occurs anywhere in the formula."""
    return all(isinstance(node, _CORE_NODES) for node in postorder(formula))


def expand_abbreviations(formula: Formula) -> Formula:
    """Rewrite derived nodes into the core connectives.

    Not(p)      -> p -> 0
    Or(p,q)     -> (p -> q) -> q
    And(p,q)    -> ~(~p \\/ ~q)
    Leq(p,r)    -> p -> r
    Geq(p,r)    -> r -> p
    Forall(x,p) -> ~E x. ~p

    Idempotent; core subformulas are reused unchanged, shared nodes
    stay shared, and the expansions of Or/And deliberately share their
    duplicated operand so that evaluation can memoize it.  The walk
    stops at atoms and terms, since a term holds no derived node.
    """
    zero = Const(ZERO)
    done: dict[int, Formula] = {}
    stack = [formula]
    while stack:
        node = stack[-1]
        if id(node) in done:
            stack.pop()
            continue
        kind = type(node)
        if kind is Implies or kind is Or or kind is And:
            lhs, rhs = done.get(id(node.lhs)), done.get(id(node.rhs))
            if lhs is None or rhs is None:
                stack += (node.rhs, node.lhs)
                continue
            if kind is Implies:
                new = node if lhs is node.lhs and rhs is node.rhs \
                    else Implies(lhs, rhs)
            elif kind is Or:
                new = Implies(Implies(lhs, rhs), rhs)
            else:
                lhs, rhs = Implies(lhs, zero), Implies(rhs, zero)
                new = Implies(Implies(Implies(lhs, rhs), rhs), zero)
        elif kind in _BODIES:
            body = done.get(id(node.body))
            if body is None:
                stack.append(node.body)
                continue
            if kind is Exists:
                new = node if body is node.body else Exists(node.var, body)
            elif kind is Not:
                new = Implies(body, zero)
            elif kind is Leq:
                new = Implies(body, Const(node.bound))
            elif kind is Geq:
                new = Implies(Const(node.bound), body)
            else:
                new = Implies(Exists(node.var, Implies(body, zero)), zero)
        elif kind in _CORE_NODES:
            new = node
        else:
            raise FormulaError(f"not a formula node: {node!r}")
        stack.pop()
        done[id(node)] = new
    return done[id(formula)]


def fresh_variable(base: str, used) -> str:
    """A variable name not in ``used``, derived from ``base``."""
    if base not in used and base not in RESERVED_NAMES:
        return base
    i = 1
    while f"{base}{i}" in used or f"{base}{i}" in RESERVED_NAMES:
        i += 1
    return f"{base}{i}"


def substitute(formula: Formula, mapping: Mapping[str, Term]) -> Formula:
    """Replace free variables by terms, renaming binders to avoid capture."""
    mapping = {k: v for k, v in mapping.items()
               if not (isinstance(v, Var) and v.name == k)}
    if not mapping:
        return formula

    # What a node becomes depends on the mapping in force there, which a
    # binder changes for its body; so the pass walks (node, mapping)
    # pairs, one object per distinct pair.
    pairs: dict[tuple, tuple] = {}
    below: dict[int, tuple] = {}

    def pair(node, m):
        return pairs.setdefault((id(node), id(m)), (node, m))

    def kids(item):
        found = below.get(id(item))
        if found is None:
            node, m = item
            if not m:
                found = ()
            elif isinstance(node, (Exists, Forall)):
                inner = {k: v for k, v in m.items() if k != node.var}
                value_vars = set().union(*map(term_variables, inner.values()))
                if node.var in value_vars:
                    used = all_variables(node.body) | value_vars | set(inner)
                    inner[node.var] = Var(fresh_variable(node.var, used))
                found = (pair(node.body, inner),)
            else:
                found = tuple(pair(kid, m) for kid in children(node))
            below[id(item)] = found
        return found

    done: dict[int, object] = {}
    for item in postorder(pair(formula, mapping), kids):
        node, m = item
        if isinstance(node, Var):
            done[id(item)] = m.get(node.name, node)
            continue
        inner = kids(item)
        new = _with_children(node, [done[id(kid)] for kid in inner])
        if inner and isinstance(node, (Exists, Forall)):
            renamed = inner[0][1].get(node.var)
            if renamed is not None:
                new = type(node)(renamed.name, new.body)
        done[id(item)] = new
    return done[id(pair(formula, mapping))]


def rename_symbols(formula: Formula, mapping: Mapping[str, str]) -> Formula:
    """Apply a symbol renaming to every atom and term (``d`` is never renamed)."""
    if "d" in mapping:
        raise VocabularyError("the metric symbol d cannot be renamed")

    def rename(node):
        if isinstance(node, Func) and node.name in mapping:
            return Func(mapping[node.name], node.args)
        if isinstance(node, Atom) and node.pred in mapping:
            return Atom(mapping[node.pred], node.args)
        return node

    return rebuild(formula, rename)


# ---------------------------------------------------------------------------
# Precedence: one table, which ``render`` writes by and the parser reads

_PREC_QUANT = 0
_PREC_IMPLIES = 1
_PREC_COMPARE = 2
_PREC_OR = 3
_PREC_AND = 4
_PREC_UNARY = 5
_PREC_ATOM = 6


# How each connective is written: its text with one ``{}`` per operand,
# its own precedence, and the least precedence each operand slot takes
# without parentheses.
_LAYOUT = {
    Implies: ("{} -> {}", _PREC_IMPLIES, (_PREC_COMPARE, _PREC_IMPLIES)),
    Leq: ("{} <= {node.bound}", _PREC_COMPARE, (_PREC_OR,)),
    Geq: ("{} >= {node.bound}", _PREC_COMPARE, (_PREC_OR,)),
    Or: ("{} \\/ {}", _PREC_OR, (_PREC_OR, _PREC_AND)),
    And: ("{} /\\ {}", _PREC_AND, (_PREC_AND, _PREC_UNARY)),
    Not: ("~{}", _PREC_UNARY, (_PREC_UNARY,)),
    Exists: ("E {node.var}. {}", _PREC_QUANT, (_PREC_QUANT,)),
    Forall: ("A {node.var}. {}", _PREC_QUANT, (_PREC_QUANT,)),
}


# ---------------------------------------------------------------------------
# Parsing
#
# A formula is read by one loop over an explicit stack of pending
# connectives (Dijkstra's shunting-yard, in its precedence-climbing
# form), and a term by one loop over a stack of open operations, so text
# nested to any depth needs no recursion.  A pending frame is
# ``(build, need, after)``: ``build`` makes the node from its last
# operand (``None`` for a ``(`` or the start of the text), ``need`` is
# the least precedence that operand takes without parentheses
# (``_LAYOUT``), and ``after`` is the level of the node once built.
#
# After each operand, ``level`` is the highest precedence of the grammar
# levels still open there (``unary`` after an atom, a connective's own
# after it is built).  An infix connective next takes the operand as its
# left one when its precedence is at most ``level`` and at least the top
# frame's ``need``.  Otherwise the top frame is built around the operand,
# or closed by ``)`` or the end of the text.

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<rational>\d+/\d+|\d+\.\d+|\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow>->)
      | (?P<leq><=)
      | (?P<geq>>=)
      | (?P<or>\\/)
      | (?P<and>/\\)
      | (?P<not>~)
      | (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<comma>,)
      | (?P<dot>\.)
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = match.lastgroup
        if kind != "ws":
            tokens.append((kind, match.group(), pos))
        pos = match.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    # the connective each infix token writes
    infix = {"arrow": Implies, "leq": Leq, "geq": Geq, "or": Or, "and": And}

    def __init__(self, text: str, vocabulary: Vocabulary):
        if not isinstance(text, str):
            raise ParseError(f"not formula text: {text!r} is not a string")
        self.vocab = vocabulary
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        if tok[0] != "eof":
            self.i += 1
        return tok

    def expect(self, kind, what):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {what}, found {tok[1]!r}", tok[2])
        return tok

    def formula(self):
        stack = [(None, _PREC_QUANT, None)]  # the start of the text
        while True:
            out = self.operand(stack)
            level = _PREC_UNARY
            while True:
                kind, text, pos = self.peek()
                cls = self.infix.get(kind)
                build, need, after = stack[-1]
                if cls is not None and need <= _LAYOUT[cls][1] <= level:
                    self.next()
                    level = _LAYOUT[cls][1]
                    if cls in (Leq, Geq):
                        out = cls(out, self.rational_literal())
                        continue
                    stack.append((partial(cls, out), _LAYOUT[cls][2][-1],
                                  level))
                    break
                if len(stack) == 1:
                    if kind != "eof":
                        raise ParseError(f"trailing input {text!r}", pos)
                    return out
                stack.pop()
                if build is None:
                    self.expect("rpar", "')'")
                else:
                    out = build(out)
                level = after

    def operand(self, stack):
        """Push the prefix connectives and '(' before the next atom, and
        return the atom."""
        while True:
            tok = self.peek()
            if tok[0] == "not":
                self.next()
                stack.append((Not, _LAYOUT[Not][2][0], _PREC_UNARY))
            elif tok[0] == "name" and tok[1] in ("E", "A") \
                    and self.tokens[self.i + 1][0] == "name":
                self.next()
                _, var, at = self.expect("name", "a variable")
                if var in RESERVED_NAMES:
                    raise ParseError(f"{var!r} cannot be a variable", at)
                if var in self.vocab.symbols():
                    raise ParseError(f"bound variable {var!r} clashes with "
                                     f"a vocabulary symbol", at)
                self.expect("dot", "'.' after the bound variable")
                cls = Exists if tok[1] == "E" else Forall
                stack.append((partial(cls, var), _LAYOUT[cls][2][0],
                              _PREC_UNARY))
            elif tok[0] == "lpar":
                self.next()
                stack.append((None, _PREC_QUANT, _PREC_UNARY))
            else:
                return self.atom()

    def atom(self):
        kind, text, pos = self.next()
        if kind == "rational":
            value = parse_rational(text)
            if not in_unit_interval(value):
                raise ParseError(f"constant {text} outside [0,1]", pos)
            return Const(value)
        if kind == "name":
            if text == "d":
                self.expect("lpar", "'(' after d")
                t1 = self.term()
                self.expect("comma", "',' between metric arguments")
                t2 = self.term()
                self.expect("rpar", "')'")
                return Atom("d", (t1, t2))
            if text in self.vocab.predicates:
                arity = self.vocab.predicates[text]
                return Atom(text, self.argument_list(text, arity, pos))
            if text in self.vocab.operations:
                raise ParseError(
                    f"operation symbol {text!r} cannot head a formula", pos)
            raise ParseError(f"unknown predicate {text!r}", pos)
        raise ParseError(f"expected a formula, found {text!r}", pos)

    def argument_list(self, name, arity, pos):
        if self.peek()[0] != "lpar":
            if arity == 0:
                return ()
            raise ParseError(
                f"{name!r} needs {arity} argument(s)", self.peek()[2])
        self.next()
        if arity == 0:
            self.expect("rpar", "')'")
            return ()
        args = [self.term()]
        while self.peek()[0] == "comma":
            self.next()
            args.append(self.term())
        self.expect("rpar", "')'")
        if len(args) != arity:
            raise ParseError(
                f"{name!r} expects {arity} argument(s), got {len(args)}", pos)
        return tuple(args)

    def term(self):
        stack = []  # (name, position, arguments) of each '(' still open
        while True:
            kind, text, pos = self.next()
            if kind != "name":
                raise ParseError(f"expected a term, found {text!r}", pos)
            if text in RESERVED_NAMES:
                raise ParseError(f"{text!r} cannot occur in a term", pos)
            if text in self.vocab.predicates:
                raise ParseError(
                    f"predicate {text!r} cannot occur inside a term", pos)
            if self.vocab.operations.get(text, 0):
                self.expect("lpar", f"'(' after operation {text!r}")
                stack.append((text, pos, []))
                continue
            out = Func(text) if text in self.vocab.operations else Var(text)
            while stack:
                name, at, args = stack[-1]
                args.append(out)
                if self.peek()[0] == "comma":
                    self.next()
                    break
                self.expect("rpar", "')'")
                stack.pop()
                arity = self.vocab.operations[name]
                if len(args) != arity:
                    raise ParseError(f"{name!r} expects {arity} argument(s), "
                                     f"got {len(args)}", at)
                out = Func(name, tuple(args))
            else:
                return out

    def rational_literal(self):
        tok = self.expect("rational", "a rational literal")
        value = parse_rational(tok[1])
        if not in_unit_interval(value):
            raise ParseError(f"bound {tok[1]} outside [0,1]", tok[2])
        return value


def parse_formula(text: str, vocabulary: Vocabulary) -> Formula:
    """Parse a formula over the given vocabulary; raises ParseError."""
    return _Parser(text, vocabulary).formula()


def parse_term(text: str, vocabulary: Vocabulary) -> Term:
    parser = _Parser(text, vocabulary)
    out = parser.term()
    tok = parser.peek()
    if tok[0] != "eof":
        raise ParseError(f"trailing input {tok[1]!r}", tok[2])
    return out


# ---------------------------------------------------------------------------
# Rendering


def render_term(term: Term) -> str:
    return render(term)


def render(formula: Formula) -> str:
    """Text form that reparses to a structurally equal tree.

    One pass over ``postorder`` keeps ``(text, precedence)`` per distinct
    node and drops it once its last parent has read it, so a deep or
    heavily shared DAG needs no recursion and no copy of every prefix.
    """
    order = postorder(formula)
    uses = Counter(id(kid) for node in order for kid in children(node))
    done: dict[int, tuple] = {}

    def operand(kid, need=_PREC_QUANT):
        text, prec = done[id(kid)]
        uses[id(kid)] -= 1
        if not uses[id(kid)]:
            del done[id(kid)]
        return f"({text})" if prec < need else text

    for node in order:
        layout = _LAYOUT.get(type(node))
        if layout is not None:
            form, prec, needs = layout
            text = form.format(*map(operand, children(node), needs), node=node)
        elif isinstance(node, Const):
            text, prec = str(node.value), _PREC_ATOM
        else:
            head = node.pred if isinstance(node, Atom) else node.name
            args = [operand(kid) for kid in children(node)]
            text = f"{head}({','.join(args)})" if args else head
            prec = _PREC_ATOM
        done[id(node)] = text, prec
    return done[id(formula)][0]


# ---------------------------------------------------------------------------
# Vocabulary text format


def parse_vocabulary(text: str) -> Vocabulary:
    """One declaration per line: ``pred P 1``, ``op f 2``, ``const c``."""
    predicates: dict[str, int] = {}
    operations: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "pred" and len(parts) == 3:
                predicates[parts[1]] = int(parts[2])
            elif parts[0] == "op" and len(parts) == 3:
                operations[parts[1]] = int(parts[2])
            elif parts[0] == "const" and len(parts) == 2:
                operations[parts[1]] = 0
            else:
                raise ValueError
        except ValueError:
            raise ParseError(
                f"bad vocabulary declaration on line {lineno}: {raw!r}")
    return Vocabulary(predicates, operations)


def render_vocabulary(vocabulary: Vocabulary) -> str:
    lines = []
    for name in sorted(vocabulary.predicates):
        lines.append(f"pred {name} {vocabulary.predicates[name]}")
    for name in sorted(vocabulary.operations):
        arity = vocabulary.operations[name]
        lines.append(f"const {name}" if arity == 0 else f"op {name} {arity}")
    return "\n".join(lines) + "\n"
