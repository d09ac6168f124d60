"""Exact evaluation of formulas in finite structures.

Truth values are rationals.  The implication evaluates to
``min(1 - lhs + rhs, 1)``, rational constants to themselves, and the
existential quantifier to the maximum over the finite universe (the
supremum is attained).  Satisfaction means value exactly 1.

Inside the engine every value is an integer over one denominator ``D``,
the lcm of the denominators of the formula's constants and of the tables
it reads: the implication, the constants and a finite maximum map the
grid ``{k/D}`` into itself, so integer arithmetic is exact, and a
``Fraction`` is built only for the value returned.  Python ints are
unbounded, so a large ``D`` costs speed, never exactness.

``compile_formulas`` turns formulas into one ``Program``: the expanded
formulas split into quantifier scopes, the root and each ``Exists``
body, each a flat list of instructions over numbered slots in
postorder, so an operand that the formulas, or expansion of the derived
connectives, share is computed once per scope.  The root scope computes
every formula, in order, and ``Program.results`` lists the slot of
each one's value; ``compile_formula`` is the one-formula case.
``Evaluator.value`` takes a one-formula program or a formula, which it
compiles on the spot; a caller that evaluates one formula many times
compiles it once and passes the program.

The instruction set, ``Program`` and the packed kernel ``Lanes`` live
in ``programs``.  The evaluator runs its programs at one point in its
own loop, ``run``, which for a one-point scan is faster than ``Lanes``
at one lane; it is also the only machine that runs ``FAIL``, the
instruction ``_link`` writes for a table the structure lacks.

Formulas over tuples are evaluated a table at a time, the relational
strategy for finite model checking (Vardi, STOC 1982): a scan
(``Evaluator._scan``) links one program of several formulas and assigns
each tuple in turn, on one copy of the registers and one memo for the
whole scan, and builds nothing per tuple but what it reports.
``Evaluator.profiles`` runs the whole program per tuple and groups the
tuples by their row of values, integers over the link's denominator:
the profiles ``type_distance`` compares records by.
``Evaluator.first_failures`` runs one formula's stretch of the root
code at a time, in order (``_stretches``), stops a tuple at the first
value below 1, and reports only that formula and value.  Type
realization, omission and entailment are ``first_failures`` scans of
one program per type, the Tarski-Vaught test is one ``profiles`` scan
per formula, and a ``Theory`` keeps its compiled sentence programs for
its lifetime; ``models`` links them once per structure.

A lowered table is ``(width, lcm, values)``: its arity, the
denominator its truth values are integers over (1 for an operation),
and nested tuples over universe positions.  ``_link`` is the linking
rule for the evaluator's own lowered tables: it puts a program's
constants and a structure's tables into registers over one ``D``.  An
evaluator links each program it is given once, to its structure's
tables; they are read-only, so each is lowered once, on first use, over
the lcm of its own denominators, and kept on the structure, and a link
over a larger ``D`` gets its own scaled copy and never replaces the kept
one.  The model search writes the tables it walks into its checks'
registers itself (``omitting.enumerate_structures``).

Only an ``Exists`` recurses, once per element of the universe, and its
value is memoized per restriction of the assignment to its free
variables: the recursion depth is the quantifier nesting, never the
connective or term depth.  No state outlives a call at module level.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EvaluationError, FormulaError
from .programs import (EXISTS, IMP, LOOK0, LOOK1, LOOK2, LOOKN, _UNIVERSE,
                       Program)
from .rationals import ZERO, ONE
from .records import Record, postorder
from .syntax import (Atom, Const, Exists, Formula, Func, Implies, Theory, Var,
                     children, expand_abbreviations, free_variables)

# An assignment is a plain mapping from free-variable names to element ids.
Assignment = Mapping[str, str]

# The evaluator's own instruction, after those of ``programs``:
#   FAIL    a: the error message, or its head when b lists the slots of
#           the arguments; c: the universe, to name them
FAIL = EXISTS + 1

_TERMS = (Var, Func)


def compile_formula(formula: Formula) -> Program:
    """Compile a formula once, to evaluate it many times: the
    one-formula case of ``compile_formulas``, with the formula itself as
    the program's source."""
    program = compile_formulas((formula,))
    program.source = formula
    return program


def compile_formulas(formulas: Sequence[Formula]) -> Program:
    """Compile formulas into one program whose root scope computes each
    of them, in order, into the slot ``results`` lists for it.

    A formula with derived connectives is compiled as its expansion, and
    a node the expanded formulas share by identity is computed once.
    Expansion leaves a core node, such as an atom, as it is, so the
    formulas keep sharing it; a derived node they share is expanded once
    per formula that holds it."""
    formulas = tuple(formulas)
    variables: dict[str, int] = {}  # every variable name -> its slot
    tables: dict[tuple, int] = {}  # (predicate?, name, arity) -> its slot
    constants, scopes = [], []
    fresh = itertools.count(_UNIVERSE + 1)

    def slot_for(mapping, key):
        slot = mapping.get(key)
        if slot is None:
            slot = mapping[key] = next(fresh)
        return slot

    def scope(roots, nested):
        """Compile one scope computing each of ``roots`` and, depth
        first, the bodies below it; returns its code and result slots
        and its free variables in first-occurrence order (as dict
        keys)."""
        code, slot_of, free = [], {}, {}
        for node in _scope_nodes(roots):
            if id(node) in slot_of:  # shared with an earlier root
                continue
            kind = type(node)
            if kind is Var:
                free[node.name] = None
                slot_of[id(node)] = slot_for(variables, node.name)
                continue
            slot = slot_of[id(node)] = next(fresh)
            if kind is Implies:
                _check_formula(node.lhs)
                _check_formula(node.rhs)
                code.append((IMP, slot, slot_of[id(node.lhs)],
                             slot_of[id(node.rhs)], None))
            elif kind is Const:
                constants.append((slot, node.value))
            elif kind is Atom or kind is Func:
                for arg in node.args:
                    if not isinstance(arg, _TERMS):
                        raise FormulaError(
                            f"evaluator got a non-core node: {arg!r}")
                args = tuple([slot_of[id(t)] for t in node.args])
                table = slot_for(tables, (kind is Atom, node.pred if kind
                                          is Atom else node.name, len(args)))
                if len(args) > 2:
                    code.append((LOOKN, slot, table, args, None))
                else:
                    b, c = (*args, None, None)[:2]
                    code.append((LOOK0 + len(args), slot, table, b, c))
            elif kind is Exists:
                var = slot_for(variables, node.var)
                body, _, inner = scope((node.body,), True)
                inner.pop(node.var, None)
                free.update(inner)
                code.append((EXISTS, slot, var, body, tuple(
                    map(variables.__getitem__, inner)) if nested else None))
            else:
                raise FormulaError(f"evaluator got a non-core node: {node!r}")
        results = tuple([slot_of[id(root)] for root in roots])
        scopes.append((code, results[0] if results else None))
        return scopes[-1], results, free

    # the expansions are held until the end, so no id in a slot map is
    # reused by a later node
    expanded = [expand_abbreviations(formula) for formula in formulas]
    _, results, free = scope(expanded, False)
    scopes.reverse()  # the root first, each body after its parent
    return Program(formulas, tuple(free),
                   tuple(map(variables.__getitem__, free)), next(fresh),
                   tuple(scopes), constants,
                   tuple((*key, slot) for key, slot in tables.items()),
                   results)


def _check_formula(node) -> None:
    """Refuse a term where a formula is expected."""
    if isinstance(node, _TERMS):
        raise FormulaError(f"evaluator got a non-core node: {node!r}")


def _scope_nodes(roots) -> Iterable:
    """Each root, refused if it is a term, then the nodes of its scope
    in postorder."""
    for root in roots:
        _check_formula(root)
        yield from postorder(root, _scope_children)


def _scope_children(node) -> tuple:
    """Children within one quantifier scope: an ``Exists`` body is a
    scope of its own."""
    return () if isinstance(node, Exists) else children(node)


# ---------------------------------------------------------------------------
# Lowered tables and links


def nested(values, width: int, n: int):
    """A table given as its ``n ** width`` values in argument-tuple order,
    as ``width`` nested tuples over ``n`` positions; a 0-ary table is its
    one value."""
    for _ in range(width - 1):
        values = tuple([values[i:i + n] for i in range(0, len(values), n)])
    return values if width else values[0]


class _Lowering:
    """A structure's tables lowered for the interpreter, each once, on
    first use: elements become their positions in the universe, an n-ary
    table becomes n nested tuples over those positions, and the truth
    values of a predicate table become integers over the lcm of that
    table's own denominators.  A lowered table never changes: a link over
    a multiple of its lcm reads a scaled copy of it.  ``programs`` keeps
    what ``Evaluator.kept`` makes for the structure: programs, the links
    ``Evaluator.keep_links`` keeps, and the profiles ``type_distance``
    scans with ``Evaluator.profiles``."""

    __slots__ = ("index", "tables", "programs")

    def __init__(self, structure):
        self.index = {e: i for i, e in enumerate(structure.universe)}
        self.tables = {}  # (predicate?, name) -> _table's entry
        self.programs = {}  # key -> what ``Evaluator.kept`` made for it


def _table(structure, lowering: _Lowering, predicate: bool, name: str,
           arity: int):
    """``(width, lcm, values)`` for a symbol read with ``arity``
    arguments, or None when the structure lacks it: the number of
    arguments its table takes, the lcm of its truth values' denominators
    (1 for an operation), and the table as nested tuples over universe
    positions (a 0-ary predicate's value itself), truth values over that
    lcm.  Lowered on first use and kept; a constant's entry holds its
    element's position and is not kept."""
    if not (predicate or arity):
        element = structure.constants.get(name)
        return None if element is None else (0, 1, lowering.index[element])
    entry = lowering.tables.get((predicate, name))
    if entry is not None:
        return entry
    source = structure.metric if predicate and name == "d" else (
        structure.predicates if predicate else structure.operations).get(name)
    if source is None:
        return None
    universe = structure.universe
    width = len(next(iter(source)))
    if width == 1:
        values = [source[(a,)] for a in universe]
    elif width == 2:
        values = [source[(a, b)] for a in universe for b in universe]
    else:
        values = list(map(source.__getitem__,
                          itertools.product(universe, repeat=width)))
    if predicate:
        over = lcm(*{v.denominator for v in values})
        values = tuple([v.numerator * (over // v.denominator) for v in values])
    else:
        over = 1
        values = tuple(map(lowering.index.__getitem__, values))
    entry = lowering.tables[(predicate, name)] = (
        width, over, nested(values, width, len(universe)))
    return entry


def _scaled(values, width: int, factor: int):
    """A lowered truth table with every value multiplied by ``factor``."""
    if width > 1:
        return [_scaled(row, width - 1, factor) for row in values]
    return [v * factor for v in values] if width else values * factor


def _link(program: Program, table, universe: tuple) -> tuple:
    """``(code, result, registers, denominator)``: the program's root
    scope and its registers, holding the constants and the lowered
    tables, over the lcm of the denominators of the program and of the
    tables it reads.

    ``table(predicate?, name, arity)`` gives the lowered table of each
    symbol the program reads, as ``(width, lcm, values)`` over the
    positions of ``universe``, or None when there is none.  A truth
    table lowered over a smaller lcm is scaled up in the registers,
    never where ``table`` keeps it.  A read of a missing table, or of
    one at another arity, becomes an instruction raising the
    evaluator's error where the lookup would run."""
    denominator = program.denominator
    entries = []
    for predicate, name, arity, _ in program.symbols:
        entry = table(predicate, name, arity)
        if entry is not None:
            denominator = lcm(denominator, entry[1])
        entries.append(entry)
    registers = program.registers(denominator)
    registers[_UNIVERSE] = range(len(universe))
    broken = {}
    for (predicate, name, arity, slot), entry in zip(program.symbols, entries):
        if entry is not None and entry[0] == arity:
            width, over, values = entry
            registers[slot] = values if over == denominator or not predicate \
                else _scaled(values, width, denominator // over)
            continue
        what = "predicate" if predicate else "operation" if arity \
            else "constant"
        broken[slot] = (f"{what} {name!r}", True) if entry is not None \
            else (f"{what} {name!r} missing from the structure", False)
    code, result = program.scopes[0]
    if broken:
        code = _failing_code(program, broken, universe)
    return code, result, registers, denominator


def _failing_code(program: Program, broken: dict, universe: tuple) -> list:
    """The root scope's code with each read of a table the structure
    lacks, or has at another arity, replaced by an instruction raising
    the evaluator's error; it raises where the lookup would run."""
    rebuilt = {}  # id(old code) -> new code
    for code, _ in reversed(program.scopes):
        out = []
        for ins in code:
            op, slot, a, b, c = ins
            if op == EXISTS:
                ins = (op, slot, a, (rebuilt[id(b[0])], b[1]), c)
            elif op in (LOOK0, LOOK1, LOOK2, LOOKN) and a in broken:
                message, lookup = broken[a]
                args = b if op == LOOKN else (b, c)[:op - LOOK0]
                ins = (FAIL, slot, message, args if lookup else None,
                       universe)
            out.append(ins)
        rebuilt[id(code)] = out
    return rebuilt[id(program.scopes[0][0])]


def run(code: list, registers: list, denominator: int, memo) -> None:
    """Execute one scope of code on ``registers``, in place, at one
    point: truth values are integers over ``denominator``, elements their
    positions in the universe."""
    for op, slot, a, b, c in code:
        if op == IMP:
            value = denominator - registers[a] + registers[b]
            registers[slot] = value if value < denominator else denominator
        elif op == LOOK1:
            registers[slot] = registers[a][registers[b]]
        elif op == LOOK2:
            registers[slot] = registers[a][registers[b]][registers[c]]
        elif op == EXISTS:
            if c is not None:
                key = (slot, *[registers[r] for r in c])
                best = memo.get(key)
                if best is not None:
                    registers[slot] = best
                    continue
            body, result = b
            saved = registers[a]
            best = 0
            for element in registers[_UNIVERSE]:
                registers[a] = element
                run(body, registers, denominator, memo)
                value = registers[result]
                if value > best:
                    best = value
                    if best == denominator:
                        break
            registers[a] = saved
            registers[slot] = best
            if c is not None:
                memo[key] = best
        elif op == LOOK0:
            registers[slot] = registers[a]
        elif op == LOOKN:
            table = registers[a]
            for r in b:
                table = table[registers[r]]
            registers[slot] = table
        else:  # FAIL
            if b is None:
                raise EvaluationError(a)
            raise EvaluationError(
                f"{a} has no entry for {tuple(c[registers[r]] for r in b)}")


class Evaluator:
    """Reusable evaluation engine for one structure.

    ``value`` evaluates one formula under one assignment; ``profiles``
    and ``first_failures`` scan tuples, each with one program of several
    formulas.  Each program passed to them is linked to the structure's
    lowered tables once and the link kept for the evaluator's lifetime;
    formulas passed instead are compiled and linked for that use only.
    """

    def __init__(self, structure):
        self.structure = structure
        self._links = {}
        lowering = structure._lowering
        if lowering is None:
            lowering = structure._lowering = _Lowering(structure)
        self._lowering = lowering
        self._index = lowering.index
        self._table = functools.partial(_table, structure, lowering)

    def _linked(self, program, compile) -> tuple:
        """``(program, link)`` for a program, linked once and the link
        kept, or for formulas, compiled by ``compile`` and linked for
        this use only."""
        if not isinstance(program, Program):
            program = compile(program)
            return program, _link(program, self._table,
                                  self.structure.universe)
        link = self._links.get(program)
        if link is None:
            link = self._links[program] = _link(program, self._table,
                                                self.structure.universe)
        return program, link

    def kept(self, key, make):
        """``make()``, made once per ``key`` and kept with the
        structure's lowered tables for the structure's lifetime, unless
        it raises: for what depends on nothing but the structure and the
        key, such as a program compiled from the structure's vocabulary
        (``type_distance``'s default corpus), a link (``keep_links``),
        or a table of the structure's own values (``type_distance``'s
        profiles of the default corpus, keyed by the record length and
        predicate signature they were scanned for)."""
        programs = self._lowering.programs
        made = programs.get(key)
        if made is None:
            made = programs[key] = make()
        return made

    def keep_links(self, programs: Sequence[Program]) -> None:
        """Link each program once per structure, not once per evaluator:
        the link is kept with the structure's lowered tables, keyed by
        the program, and every evaluator of the structure reuses it.  For
        programs that outlive any one evaluator, such as a theory's
        sentences (``Theory.programs``)."""
        for program in programs:
            self._links[program] = self.kept(program, functools.partial(
                _link, program, self._table, self.structure.universe))

    def value(self, formula: Formula, assignment: Optional[Assignment] = None) -> Fraction:
        """The exact value of a formula, or of a program that
        ``compile_formula`` made, under the assignment."""
        program, (code, result, registers, denominator) = \
            self._linked(formula, compile_formula)
        registers = registers[:]
        if program.free:
            env = assignment or {}
            for slot, name in zip(program.free_slots, program.free):
                if name not in env:
                    raise EvaluationError(f"unassigned free variable {name!r}")
                position = self._index.get(env[name])
                if position is None:
                    raise _outside(name, env[name])
                registers[slot] = position
        run(code, registers, denominator, {})
        value = registers[result]
        return ONE if value == denominator else ZERO if value == 0 \
            else Fraction(value, denominator)

    def _scan(self, formulas, variables: Sequence[str],
              tuples: Optional[Iterable]) -> tuple:
        """``(program, code, registers, denominator, assigned)``: one
        program, or formulas compiled into one, its link's root code and
        denominator, one copy of its registers, and ``assigned``, which
        assigns each tuple's elements to ``variables`` there and yields
        the tuple.  A free variable not among ``variables`` raises
        before any tuple."""
        variables = tuple(variables)
        program, (code, _, registers, denominator) = self._linked(
            formulas, compile_formulas)
        for name in program.free:
            if name not in variables:
                raise EvaluationError(f"unassigned free variable {name!r}")
        assign = tuple(zip(program.free_slots,
                           map(variables.index, program.free)))
        registers, index = registers[:], self._index
        if tuples is None:
            tuples = itertools.product(self.structure.universe,
                                       repeat=len(variables))

        def assigned():
            for tup in tuples:
                for slot, i in assign:
                    position = index.get(tup[i])
                    if position is None:
                        raise _outside(variables[i], tup[i])
                    registers[slot] = position
                yield tup
        return program, code, registers, denominator, assigned()

    def profiles(self, program: Program, variables: Sequence[str],
                 tuples: Optional[Iterable] = None) -> tuple:
        """``(denominator, profiles)``: each distinct row of the values
        of the program's formulas at a tuple of elements assigned to
        ``variables``, in the order ``compile_formulas`` was given them,
        as integers over the denominator of the program's link to the
        structure, mapped to the tuples with that row, in order; by
        default every tuple of the universe of that length, in
        canonical order.

        One ``run`` per tuple computes the whole row.  The scan is done
        before it returns, so its errors, free variables first
        (``_scan``), raise at the call."""
        program, code, registers, denominator, tuples = self._scan(
            program, variables, tuples)
        results, memo, profiles = program.results, {}, {}
        for tup in tuples:
            run(code, registers, denominator, memo)
            profiles.setdefault(tuple([registers[slot] for slot in results]),
                                []).append(tup)
        return denominator, profiles

    def first_failures(self, formulas, variables: Sequence[str],
                       tuples: Optional[Iterable] = None):
        """``(tuple, failure)`` for each tuple of elements assigned to
        ``variables``, in order (by default every tuple of the universe
        of that length, in canonical order): ``failure`` is None when
        every formula has value 1 there, and otherwise ``(formula,
        value)`` for the first one, in order, whose value is below 1.

        ``formulas`` is one program, or formulas compiled into one for
        this scan.  At each tuple its root code runs one formula's
        stretch at a time (``_stretches``), and the tuple stops at the
        first value below 1.  Free variables are checked before the
        first tuple, even a formula's that no tuple reaches, so an
        unassigned one raises before an element outside the universe,
        which ``value`` would report first.  Each distinct value
        reported is made a ``Fraction`` once per scan."""
        program, code, registers, denominator, tuples = self._scan(
            formulas, variables, tuples)
        stretches, memo = _stretches(program, code), {}
        fractions = _Fractions(denominator)
        for tup in tuples:
            for stretch, result, formula in stretches:
                run(stretch, registers, denominator, memo)
                value = registers[result]
                if value != denominator:
                    yield tup, (formula, fractions[value])
                    break
            else:
                yield tup, None


def _stretches(program: Program, code: list) -> list:
    """``(code, result, formula)`` per formula of a program, in order:
    the stretch of the root code ``code`` computing the formula's nodes
    that no earlier formula computes, up to the instruction writing its
    value to ``result``; empty for a constant or an earlier formula's
    node.  ``compile_formula``'s program has its one formula as source."""
    source = program.source
    formulas = source if isinstance(source, tuple) else (source,)
    ends = {ins[1]: k + 1 for k, ins in enumerate(code)}
    stretches, start = [], 0
    for result, formula in zip(program.results, formulas):
        end = max(start, ends.get(result, 0))
        stretches.append((code[start:end], result, formula))
        start = end
    return stretches


class _Fractions(dict):
    """Integer values over one denominator, each mapped to its
    ``Fraction``, made on its first lookup."""

    __slots__ = ("denominator",)

    def __init__(self, denominator: int):
        super().__init__({0: ZERO, denominator: ONE})
        self.denominator = denominator

    def __missing__(self, value: int) -> Fraction:
        made = self[value] = Fraction(value, self.denominator)
        return made


def _outside(name: str, element) -> EvaluationError:
    return EvaluationError(
        f"assignment sends {name!r} outside the universe: {element!r}")


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


class TheoryReport(Record):
    # failing: (sentence, value) pairs with value < 1
    _fields = ("satisfied", "failing")


def check_theory(structure, theory: Theory) -> TheoryReport:
    """Evaluate every sentence; report each one with value < 1."""
    engine = Evaluator(structure)
    failing = []
    for program in theory.programs:
        value = engine.value(program)
        if value != ONE:
            failing.append((program.source, value))
    return TheoryReport(satisfied=not failing, failing=tuple(failing))


class EntailmentResult(Record):
    # the counterexample of a false verdict: the structure, the tuple,
    # the failing formula and its value
    _fields = ("holds", "structure", "assignment", "formula", "value")
    _defaults = (None, None, None, None)

    def __bool__(self):
        return self.holds


def entails(family: Sequence, theory: Theory, gamma, sigma) -> EntailmentResult:
    """Finite-family semantic entailment between formula sets.

    True iff in every family member satisfying the theory, every tuple
    realizing ``gamma`` (all members exactly 1) also realizes ``sigma``.
    ``gamma`` and ``sigma`` carry ``variables`` and ``formulas`` and must
    share their variable tuple.  A false verdict returns the first
    counterexample in canonical order.

    Each model is two chained scans of one program per type: the
    premises' scan passes on the tuples realizing ``gamma``, one at a
    time, and the conclusions run on those tuples only, so every formula
    runs where, and in the order, a tuple-by-tuple check would run it.
    """
    if tuple(gamma.variables) != tuple(sigma.variables):
        raise FormulaError(
            f"variable tuples differ: {gamma.variables} vs {sigma.variables}")
    return _entailment(models(family, theory), tuple(gamma.variables),
                       compile_formulas(gamma.formulas),
                       compile_formulas(sigma.formulas))


def _entailment(members: Iterable, names: tuple, premises: Program,
                conclusions: Program) -> EntailmentResult:
    """``entails`` over the programs of the premises and conclusions in
    the variables ``names``, read from the ``(member, engine)`` pairs."""
    for member, engine in members:
        realizing = (tup for tup, failure
                     in engine.first_failures(premises, names)
                     if failure is None)
        for tup, failure in engine.first_failures(conclusions, names,
                                                  realizing):
            if failure is not None:
                return EntailmentResult(False, member, tup, *failure)
    return EntailmentResult(True)


def models(family: Sequence, theory: Theory):
    """``(member, engine)`` for each family member satisfying the
    theory, in order; the theory's sentences are compiled once for its
    lifetime (``Theory.programs``) and linked once per member
    (``Evaluator.keep_links``)."""
    sentences = theory.programs
    for member in family:
        engine = Evaluator(member)
        engine.keep_links(sentences)
        if all(engine.value(s) == ONE for s in sentences):
            yield member, engine


class TarskiVaughtReport(Record):
    # failures: (formula, threshold) pairs
    _fields = ("passed", "failures")


def tarski_vaught_check(structure, subset: Iterable[str],
                        formulas: Sequence[Formula],
                        grid: Sequence[Fraction]) -> TarskiVaughtReport:
    """Finite witness test for one-variable formulas.

    For each formula p(x) with ``E x. p`` of value exactly 1 and each
    threshold r in the grid, some element a of the subset must satisfy
    ``p[a] >= r`` exactly.  Failures list every such (formula, r) pair.
    The test is sound but checks only the supplied formulas and grid.
    Each formula is compiled once and read from one ``profiles`` scan.
    """
    subset = dict.fromkeys(subset)
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
        denominator, profiles = engine.profiles(compile_formula(phi), fv)
        if (denominator,) not in profiles:
            continue
        best = max((value for (value,), tuples in profiles.items()
                    if any(a in subset for (a,) in tuples)), default=-1)
        failures.extend((phi, r) for r in grid
                        if best * r.denominator < r.numerator * denominator)
    return TarskiVaughtReport(passed=not failures, failures=tuple(failures))
