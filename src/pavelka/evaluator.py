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
connectives, share is computed once per scope, in one loop over an
explicit stack.  The root scope computes every formula, in order, and
``Program.results`` lists the slot of each one's value;
``compile_formula`` is the one-formula case, and the one place a
formula's program is made and kept: a formula compiles on its first
use and keeps its program for its lifetime.
``Evaluator.value`` takes a formula or its program.

The instruction set, ``Program`` and the packed kernel ``Lanes`` live
in ``programs``.  The evaluator runs its programs at one point in its
own loop, ``run``, which for a one-point scan is faster than ``Lanes``
at one lane; it is also the only machine that runs ``FAIL``, the
instruction ``_link`` writes for a table the structure lacks.

Formulas over tuples are evaluated a table at a time, the relational
strategy for finite model checking (Vardi, STOC 1982): a scan
(``Evaluator._scan``) links one program of several formulas and assigns
each tuple in turn, on one copy of the registers and one memo for the
whole scan, and builds nothing per tuple but what it reports, and a key
of the positions the program reads when the scan's variables name more.
``Evaluator.profiles`` runs the whole program per tuple and groups the
tuples by their row of values, integers over the link's denominator:
the profiles ``type_distance`` compares records by.
``Evaluator.first_failures`` runs one formula's stretch of the root
code at a time, in order (``_stretches``), stops a tuple at the first
value below 1, and reports only that formula and value.  Type
realization and omission are ``first_failures`` scans of one program
per type; entailment is one per model, of one program of the premises
and then the conclusions, where a tuple's first failing formula's
position tells which it fails.  The Tarski-Vaught test is one
``profiles`` scan per formula, and ``models`` links and decides each
sentence of a theory once per structure while the sentence lives.

A lowered table is ``(width, lcm, values)``: its arity, the
denominator its truth values are integers over (1 for an operation),
and nested tuples over universe positions.  ``_link`` is the linking
rule for the evaluator's own lowered tables: it puts a program's
constants and a structure's tables into registers over one ``D``.  A
structure keeps each program's link, and a sentence's value, for as
long as the program lives, and no longer (``_Lowering.links``).  Its
tables are read-only, so each is lowered once, on first use, over
the lcm of its own denominators, and kept on the structure, and a link
over a larger ``D`` gets its own scaled copy and never replaces the kept
one.  The model search writes the tables it walks into its checks'
registers itself (``omitting.enumerate_structures``).

Only an ``Exists`` recurses, once per element of the universe: the
recursion depth is the quantifier nesting, never the connective or term
depth.  Each value is computed once for as long as it can be reused.
An ``Exists`` whose free variables are fewer than the variables of the
scope holding it (at the root, the program's free variables; in a body,
the body's own and the variable it binds) is memoized per restriction
of the assignment to its free variables, for one ``value`` call or one
scan; any other runs once per run of its scope anyway, and builds no
key.  A scan whose variables name more than its program reads runs the
root once per assignment of what it reads (``Evaluator._scan``).  A
sentence's value is kept with its link (``Evaluator.value``), so a
sentence is decided once per member while it lives.  No state outlives
a call at module level, and a call frees its working state on return:
none of it waits for the cyclic GC.  A caller's formula and the program
it keeps, which refer to each other, are the one cycle left.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional, Sequence

from .errors import EvaluationError, FormulaError
from .programs import (EXISTS, IMP, LOOK0, LOOK1, LOOK2, LOOKN, _UNIVERSE,
                       Program)
from .rationals import ZERO, ONE
from .records import Record
from .syntax import (Atom, Const, Exists, Formula, Func, Implies, Theory, Var,
                     expand_abbreviations, free_variables)

# An assignment is a plain mapping from free-variable names to element ids.
Assignment = Mapping[str, str]

# The evaluator's own instruction, after those of ``programs``:
#   FAIL    a: the error message, or its head when b lists the slots of
#           the arguments; c: the universe, to name them
FAIL = EXISTS + 1

_TERMS = (Var, Func)


def compile_formula(formula: Formula) -> Program:
    """The one-formula case of ``compile_formulas``, with the formula as
    the program's source: made on the formula's first use and kept in
    its ``_program`` slot for its lifetime, so equal formulas built
    apart compile apart."""
    program = getattr(formula, "_program", None)
    if program is None:
        program = compile_formulas((formula,))
        program.source = formula
        object.__setattr__(formula, "_program", program)
    return program


def compile_formulas(formulas: Sequence[Formula]) -> Program:
    """Compile formulas into one program whose root scope computes each
    of them, in order, into the slot ``results`` lists for it.

    A formula with derived connectives is compiled as its expansion, and
    a node the expanded formulas share by identity is computed once.
    Expansion leaves a core node, such as an atom, as it is, so the
    formulas keep sharing it; a derived node they share is expanded once
    per formula that holds it.

    The working state, the slot maps, code lists and expansions, is
    freed on return, not left for the cyclic GC.  The program keeps the
    formulas as its source; only ``compile_formula`` makes a formula
    keep its program in turn."""
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

    def scope(roots, bound):
        """Compile one scope computing each of ``roots`` and, depth
        first, the bodies below it; returns its code and result slots
        and its free variables in first-occurrence order (as dict
        keys).  ``bound`` is the variable an ``Exists`` body binds, or
        None at the root."""
        code, slot_of, free, quantifiers = [], {}, {}, []
        for root in roots:
            _check_formula(root)
            # as ``syntax.free_variables`` walks; a node shared with an
            # earlier root is done, and an ``Exists`` body is a scope
            stack = [root]
            while stack:
                node = stack[-1]
                if id(node) in slot_of:
                    stack.pop()
                    continue
                kind = type(node)
                if kind is Implies:
                    lhs = slot_of.get(id(node.lhs))
                    rhs = slot_of.get(id(node.rhs))
                    if lhs is None or rhs is None:
                        stack += (node.rhs, node.lhs)
                        continue
                    _check_formula(node.lhs)
                    _check_formula(node.rhs)
                    slot = slot_of[id(node)] = next(fresh)
                    code.append((IMP, slot, lhs, rhs, None))
                elif kind is Atom or kind is Func:
                    args = tuple([slot_of.get(id(t)) for t in node.args])
                    if None in args:
                        stack += reversed(node.args)
                        continue
                    for arg in node.args:
                        if not isinstance(arg, _TERMS):
                            raise FormulaError(
                                f"evaluator got a non-core node: {arg!r}")
                    slot = slot_of[id(node)] = next(fresh)
                    table = slot_for(tables, (
                        kind is Atom, node.pred if kind is Atom
                        else node.name, len(args)))
                    if len(args) > 2:
                        code.append((LOOKN, slot, table, args, None))
                    else:
                        b, c = (*args, None, None)[:2]
                        code.append((LOOK0 + len(args), slot, table, b, c))
                elif kind is Var:
                    free[node.name] = None
                    slot_of[id(node)] = slot_for(variables, node.name)
                elif kind is Const:
                    slot = slot_of[id(node)] = next(fresh)
                    constants.append((slot, node.value))
                elif kind is Exists:
                    slot = slot_of[id(node)] = next(fresh)
                    var = slot_for(variables, node.var)
                    body, _, inner = scope((node.body,), node.var)
                    inner.pop(node.var, None)
                    free.update(inner)
                    quantifiers.append(len(code))
                    code.append((EXISTS, slot, var, body, inner))
                else:
                    raise FormulaError(
                        f"evaluator got a non-core node: {node!r}")
                stack.pop()
        # the scope runs once per assignment of its variables, its free
        # ones and the variable it binds; an ``Exists`` reading fewer can
        # meet one assignment of its own again, and keys its memo by it
        reads = len(free) + (bound is not None and bound not in free)
        for k in quantifiers:
            op, slot, var, body, inner = code[k]
            code[k] = (op, slot, var, body, tuple(
                map(variables.__getitem__, inner)) if len(inner) < reads
                else None)
        results = tuple([slot_of[id(root)] for root in roots])
        scopes.append((code, results[0] if results else None))
        return scopes[-1], results, free

    # the expansions are held until the end, so no id in a slot map is
    # reused by a later node
    expanded = [expand_abbreviations(formula) for formula in formulas]
    try:
        _, results, free = scope(expanded, None)
    finally:
        # ``scope`` reaches itself through its closure cell: deleted, it
        # and the slot maps and code lists it reaches go on return, not
        # at the cyclic GC's next collection
        del scope
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
    a multiple of its lcm reads a scaled copy of it.

    ``links`` holds each program's entry, ``[link, value]``, for as long
    as the program lives: its link to the structure, and the value of a
    program with no free variables once ``Evaluator.value`` has computed
    it, else None.  ``programs`` keeps what ``Evaluator.kept`` makes for
    the structure: ``type_distance``'s default-corpus programs and the
    profiles it scans of them with ``Evaluator.profiles``."""

    __slots__ = ("index", "tables", "links", "programs")

    def __init__(self, structure):
        self.index = {e: i for i, e in enumerate(structure.universe)}
        self.tables = {}  # (predicate?, name) -> _table's entry
        self.links = weakref.WeakKeyDictionary()  # program -> [link, value]
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
    formulas.  A program is linked to the structure's lowered tables
    once, and the link, with a sentence's value, is kept with the
    structure for as long as the program lives (``_Lowering.links``),
    for every evaluator of the structure.  A formula keeps its program
    (``compile_formula``); formulas passed to a scan are compiled into
    a program for that call only.
    """

    def __init__(self, structure):
        self.structure = structure
        lowering = structure._lowering
        if lowering is None:
            lowering = structure._lowering = _Lowering(structure)
        self._lowering = lowering
        self._index = lowering.index
        self._table = functools.partial(_table, structure, lowering)

    def _linked(self, program, compile) -> tuple:
        """``(program, entry)``: the program, or formulas compiled by
        ``compile``, and its entry ``[link, value]`` in the structure's
        store, linked on first use."""
        if not isinstance(program, Program):
            program = compile(program)
        entry = self._lowering.links.get(program)
        if entry is None:
            entry = self._lowering.links[program] = [
                _link(program, self._table, self.structure.universe), None]
        return program, entry

    def kept(self, key, make):
        """``make()``, made once per ``key`` and kept with the
        structure's lowered tables for the structure's lifetime, unless
        it raises: for what depends on nothing but the structure and the
        key, and is shared by records from any structure of one length
        and predicate signature, so no one program's lifetime bounds it:
        ``type_distance``'s default-corpus program and its profiles."""
        programs = self._lowering.programs
        made = programs.get(key)
        if made is None:
            made = programs[key] = make()
        return made

    def value(self, formula: Formula, assignment: Optional[Assignment] = None) -> Fraction:
        """The exact value of a formula, which keeps its program, or of
        the program ``compile_formula`` made, under the assignment.

        A program with no free variables depends on nothing but the
        structure, so its value is kept in its entry (``_linked``) for as
        long as the program lives, unless computing it raises: a
        theory's sentences are decided once per member, not once per
        query.  Any other program's value is computed each time."""
        program, entry = self._linked(formula, compile_formula)
        if program.free:
            return self._value(program, entry[0], assignment)
        if entry[1] is None:
            entry[1] = self._value(program, entry[0], None)
        return entry[1]

    def _value(self, program: Program, link: tuple,
               assignment: Optional[Assignment]) -> Fraction:
        code, result, registers, denominator = link
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
        """``(program, code, registers, denominator, results)``: one
        program, or formulas compiled into one, its link's root code and
        denominator, one copy of its registers, and ``results(step)``,
        which assigns each tuple's elements to ``variables`` there and
        yields ``(tuple, step())``.  A free variable not among
        ``variables`` raises before any tuple.

        When ``variables`` name more than the program reads, tuples that
        agree on what it reads get one ``step()`` between them: its
        result is kept per scan, keyed by their positions."""
        variables = tuple(variables)
        program, ((code, _, registers, denominator), _) = self._linked(
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

        def results(step):
            done = {} if len(assign) < len(variables) else None
            for tup in tuples:
                for slot, i in assign:
                    position = index.get(tup[i])
                    if position is None:
                        raise _outside(variables[i], tup[i])
                    registers[slot] = position
                if done is None:
                    yield tup, step()
                    continue
                key = tuple([registers[slot] for slot, _ in assign])
                if key not in done:
                    done[key] = step()
                yield tup, done[key]
        return program, code, registers, denominator, results

    def profiles(self, program: Program, variables: Sequence[str],
                 tuples: Optional[Iterable] = None) -> tuple:
        """``(denominator, profiles)``: each distinct row of the values
        of the program's formulas at a tuple of elements assigned to
        ``variables``, in the order ``compile_formulas`` was given them,
        as integers over the denominator of the program's link to the
        structure, mapped to the tuples with that row, in order; by
        default every tuple of the universe of that length, in
        canonical order.

        One ``run`` per tuple, or per assignment of the variables the
        program reads (``_scan``), computes the whole row.  The scan is
        done before it returns, so its errors, free variables first,
        raise at the call."""
        program, code, registers, denominator, results = self._scan(
            program, variables, tuples)
        slots, memo, profiles = program.results, {}, {}

        def row():
            run(code, registers, denominator, memo)
            return tuple([registers[slot] for slot in slots])
        for tup, values in results(row):
            profiles.setdefault(values, []).append(tup)
        return denominator, profiles

    def first_failures(self, formulas, variables: Sequence[str],
                       tuples: Optional[Iterable] = None):
        """``(tuple, failure)`` for each tuple of elements assigned to
        ``variables``, in order (by default every tuple of the universe
        of that length, in canonical order): ``failure`` is None when
        every formula has value 1 there, and otherwise ``(formula,
        value)`` for the first one, in order, whose value is below 1.

        ``formulas`` is one program, or formulas compiled into one for
        this scan.  At each tuple, or once per assignment of the
        variables the program reads (``_scan``), its root code runs one
        formula's stretch at a time (``_stretches``), and stops at the
        first value below 1.  Free variables are checked before the
        first tuple, even a formula's that no tuple reaches, so an
        unassigned one raises before an element outside the universe,
        which ``value`` would report first.  Each distinct value
        reported is made a ``Fraction`` once per scan."""
        for tup, failure in self._failures(formulas, variables, tuples):
            yield tup, failure and failure[1:]

    def _failures(self, formulas, variables: Sequence[str],
                  tuples: Optional[Iterable] = None):
        """``first_failures``, each failure ``(position, formula,
        value)``: the formula's position in the program comes first."""
        program, code, registers, denominator, results = self._scan(
            formulas, variables, tuples)
        stretches = [(position, *stretch) for position, stretch
                     in enumerate(_stretches(program, code))]
        memo, fractions = {}, _Fractions(denominator)

        def failure():
            for position, stretch, result, formula in stretches:
                run(stretch, registers, denominator, memo)
                value = registers[result]
                if value != denominator:
                    return position, formula, fractions[value]
            return None
        yield from results(failure)


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
    values = ((s, engine.value(s)) for s in theory.sentences)
    failing = tuple((s, v) for s, v in values if v != ONE)
    return TheoryReport(satisfied=not failing, failing=failing)


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

    The premises and then the conclusions are compiled into one program,
    and each model is one scan of it (``_decide_entailment``), so every
    formula runs where, and in the order, a tuple-by-tuple check would
    run it.
    """
    return _decide_entailment(family, theory, gamma, sigma)[1]


def _decide_entailment(family: Sequence, theory: Theory, gamma,
                       sigma) -> tuple:
    """``(witness, result)``: ``entails``'s result, and the first
    ``(member, tuple)`` realizing ``gamma``, at or before the
    counterexample, or None.  A tuple whose first failing formula is a
    premise, by its position in the program, does not realize
    ``gamma``; one whose first failing formula is a conclusion is the
    counterexample."""
    if tuple(gamma.variables) != tuple(sigma.variables):
        raise FormulaError(
            f"variable tuples differ: {gamma.variables} vs {sigma.variables}")
    names, premises = tuple(gamma.variables), len(gamma.formulas)
    program = compile_formulas((*gamma.formulas, *sigma.formulas))
    witness = None
    for member, engine in models(family, theory):
        for tup, failure in engine._failures(program, names):
            if failure is not None and failure[0] < premises:
                continue
            if witness is None:
                witness = member, tup
            if failure is not None:
                return witness, EntailmentResult(False, member, tup,
                                                 *failure[1:])
    return witness, EntailmentResult(True)


def models(family: Sequence, theory: Theory):
    """``(member, engine)`` for each family member satisfying the
    theory, in order; each sentence keeps its program
    (``compile_formula``), so it is linked to a member, and decided
    there, once while the sentence lives."""
    sentences = theory.sentences
    for member in family:
        engine = Evaluator(member)
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
