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

A connective term compiles to straight-line ``IMP`` code over its
projections and constants.  ``run`` executes any program at one point.
``Lanes`` is the one packed kernel: it executes the same instruction
set over a block of lanes at once, each truth-valued register one int
that packs the block's values in fixed-width lanes, while element
positions stay scalars.  A grid sweep runs a term over a block of
points, one per lane, and the model search decides a check over a
block of sibling tables, one per lane; each costs a few whole-int
operations per instruction and block, not one interpreted instruction
per instruction and point or table.

Formulas over tuples are evaluated a table at a time, the relational
strategy for finite model checking (Vardi, STOC 1982): a scan assigns
each tuple in turn and runs the program there, on one copy of the
registers and one memo for the whole scan, and builds nothing per tuple
but what it reports.  There are two scans.  ``Evaluator.profiles``
runs one program of several formulas per tuple and groups the tuples by
their row of values, kept as integers over the link's denominator: the
profiles ``type_distance`` compares records by.
``Evaluator.first_failures`` runs one program per formula, in order,
stops a tuple at the first value below 1, and reports only that
formula and value.  Both take the per-tuple step (the assignment, its
outside-universe check and the ``run``) from ``Evaluator._runner``.
Type realization, omission and entailment are ``first_failures``
scans, the Tarski-Vaught test is one ``profiles`` scan per formula, and
a ``Theory`` keeps its compiled sentence programs for its lifetime;
``models`` links them once per structure.

A lowered table is ``(width, lcm, values)``: its arity, the
denominator its truth values are integers over (1 for an operation),
and nested tuples over universe positions.  ``_link`` is the one
linking rule: it puts a program's constants and lowered tables into
registers over one ``D``, whoever lowered the tables.  An evaluator
links each program it is given once, to its structure's tables; they
are read-only, so each is lowered once, on first use, over the lcm of
its own denominators, and kept on the structure, and a link over a
larger ``D`` gets its own scaled copy and never replaces the kept one.
The model search compiles each check as one sentence, a type as its
existential closure, over one denominator for its grids and checks.
A check that reads a predicate last is decided in ``Lanes`` over a
block of that predicate's sibling tables, the tables of earlier levels
packed the same in every lane; any other check is linked once per
universe size to tables the search lowers itself, and each candidate
table is written into its registers before one ``run``.  A level whose
symbol no check reads is walked past its first table only when that
table yields a model: its other tables would decide every check the
same way.

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
from .rationals import ZERO, ONE
from .records import Record
from .syntax import (Atom, Const, Exists, Formula, Func, Implies, Theory, Var,
                     children, expand_abbreviations, free_variables,
                     postorder)

# An assignment is a plain mapping from free-variable names to element ids.
Assignment = Mapping[str, str]

# An instruction is a tuple ``(op, slot, a, b, c)`` that writes ``slot``:
#   IMP     a, b: the slots of the antecedent and the consequent; c: None,
#           or in a sweep's code (``Lanes._planned``) its read plan
#   LOOK0-2 a: the slot of a table; b, c: the slots of its arguments;
#           the opcode is LOOK0 plus the number of arguments
#   LOOKN   a: the slot of a table; b: the slots of its arguments
#   EXISTS  a: the slot of the variable; b: the body, (code, result slot);
#           c: the slots of its free variables, which key its memo, or
#           None in the root scope, where it runs once
#   FAIL    a: the error message, or its head when b lists the slots of
#           the arguments; c: the universe, to name them
# Slot 0 of a formula program holds the universe's positions.
IMP, LOOK0, LOOK1, LOOK2, LOOKN, EXISTS, FAIL = range(7)
_UNIVERSE = 0

_TERMS = (Var, Func)


class Program:
    """A compiled formula, several formulas, or a connective term.

    ``source`` is what was compiled: the formula, the tuple of formulas
    or the term.  ``free`` names the free variables in first-occurrence
    order and ``free_slots`` gives their slots.  ``scopes`` lists
    ``(code, result slot)`` per quantifier scope, the root first and
    each ``Exists`` body after the scope that holds it.  The root scope
    computes every formula, in order, and ``results`` lists the slot of
    each formula's value; the root's own result slot is the first
    formula's.  ``constants`` pairs slots with the rationals they hold,
    and ``denominator`` is the lcm of their denominators.  ``symbols``
    lists ``(predicate?, name, arity, slot)`` for each symbol the code
    reads, with the slot that holds its table once linked to a
    structure.
    """

    __slots__ = ("source", "free", "free_slots", "slots", "scopes",
                 "constants", "denominator", "symbols", "results")

    def __init__(self, source, free, free_slots, slots, scopes, constants,
                 symbols=(), results=None):
        self.source = source
        self.free = free
        self.free_slots = free_slots
        self.slots = slots
        self.scopes = scopes
        self.constants = constants
        self.denominator = lcm(*(v.denominator for _, v in constants))
        self.symbols = symbols
        self.results = (scopes[0][1],) if results is None else results

    def registers(self, denominator: int) -> list:
        """Fresh slots with the constants scaled by ``denominator``."""
        registers = [0] * self.slots
        for slot, value in self.constants:
            registers[slot] = value.numerator * (denominator // value.denominator)
        return registers


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


def run(code: list, registers: list, denominator: int, memo=None) -> None:
    """Execute one scope of code on ``registers``, in place.

    This is the one-point interpreter loop, and the reference for
    ``Lanes``, which runs the same code over a block of points or
    tables.  Truth values are integers over ``denominator``; elements
    are their positions in the universe.
    """
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


class Lanes:
    """A program run over a block of lanes at once: SIMD within a
    register (Fisher and Dietz, LCPC 1998) on Python's exact integers.

    A register that holds truth values is one int that packs the block's
    values, one per lane of ``width`` bits, the first lane lowest; a
    table holds such packed values.  A register that holds an element
    position, a variable or the universe, stays a scalar: it is the same
    in every lane, so a ``LOOK`` reads a table at scalar positions, as
    ``run`` does, and gets a packed value.  ``execute`` is the one
    packed kernel: it runs the formula instruction set on such
    registers and computes in each lane what ``run`` computes at one
    point.  (``FAIL`` is left out: only ``_link`` writes it, into code
    rebuilt for a structure that lacks a table, and that code runs in
    ``run``.)  It has two callers:
      * ``run`` sweeps a connective term's straight-line ``IMP`` code
        over a block of grid points, one point per lane
        (``connectives.grid_max_error``);
      * ``passing`` decides a search check over a block of sibling
        tables, one table per lane, the tables of earlier levels packed
        the same in every lane (``omitting._walk``).

    With ``Dp`` the packed ``D`` (``full``), ``G`` the packed guard bits
    ``2^(w-1)`` (``guards``) and ``1p`` the packed ones (``ones``):
      * an implication is ``s = Dp + B - A`` followed by a clamp of the
        lanes where ``s > D``;
      * an ``Exists`` keeps a lane-wise maximum over the universe, the
        guards of ``best + G - value`` marking where ``best >= value``,
        memoized by the positions of its free variables, as in ``run``;
        it stops early only when every lane holds ``D``;
      * ``passing`` marks the lanes below ``D`` by the guards of
        ``(Dp - V) + G - 1p``.
    Each is a few whole-int operations for the whole block.

    Lane bound.  ``width`` is ``D.bit_length() + 1`` rounded up to whole
    bytes: room for a value and one guard bit above it, so
    ``2^(w-1) > D`` for ``w = width``.  Every lane read holds a value in
    ``[0, D]``.  Then:
      * ``Dp + B`` has lanes ``D + b <= 2D < 2^w``: no carry crosses a
        lane;
      * subtracting ``A`` leaves lanes ``s = D + b - a >= 0``: no borrow
        crosses a lane, and ``s`` lies in ``[0, 2D]``;
      * adding ``2^(w-1) - 1 - D >= 0`` to every lane gives lanes in
        ``[0, 2^(w-1) - 1 + D]``, below ``2^w``, so again no carry, and a
        lane's top bit (its guard) is set exactly when ``s >= D + 1``;
      * with ``g`` the set guards, ``m = (g << 1) - (g >> (w-1))`` fills
        each of their lanes with ones, and ``s ^ ((s ^ Dp) & m)`` takes
        ``D`` in those lanes and ``s`` in the others: ``min(D, s)``,
        back in ``[0, D]``.  With no guard set, ``s`` is that already,
        and the clamp is skipped;
      * ``best + G - value`` has lanes ``2^(w-1) + best - value`` in
        ``[2^(w-1) - D, 2^(w-1) + D]``, within ``[1, 2^w - 1]``: no carry
        or borrow crosses a lane, and the guard is set exactly when
        ``best >= value``; with ``m`` filled from those guards,
        ``value ^ ((best ^ value) & m)`` takes ``best`` there and
        ``value`` elsewhere: ``max(best, value)``, in ``[0, D]``.  With
        every guard set that is ``best``, and with ``best`` 0 in every
        lane it is ``value``, so neither case computes ``m``.  The
        packed maximum equals ``Dp`` exactly when every lane holds
        ``D``, and only then does the loop stop early: no lane stops
        sooner than ``run`` would, and a lane that ``run`` would have
        stopped sooner reads more elements, which cannot move a maximum
        already at ``D``;
      * ``Dp - V`` has lanes ``D - v`` in ``[0, D]``, and adding
        ``G - 1p`` gives lanes in ``[2^(w-1) - 1, 2^(w-1) - 1 + D]``,
        below ``2^w``: the guard is set exactly when ``D - v >= 1``,
        that is ``v < D``.  The implication's ``2^(w-1) - 1 - D`` would
        set it at ``v >= D + 1`` instead: one too high for this test.
    So every lane computes exactly what ``run`` computes at its point,
    or for its table.

    ``count`` is the number of lanes; ``run`` packs for as many as it is
    given points.  Its read plan is made once per program, on the first
    sweep: a constant is packed at its first read, and each register is
    dropped after its last read, so a block holds only the registers
    still to be read.  ``passing`` runs on the caller's registers
    (``registers``), constants packed once, so that they can be kept
    from block to block.
    """

    __slots__ = ("denominator", "width", "count", "ones", "full", "guards",
                 "_bias", "_below", "_code", "_result", "_slots",
                 "_constants", "_plan")

    def __init__(self, program: Program, denominator: int, count: int = 0):
        self.denominator = denominator
        self.width = 8 * -(-(denominator.bit_length() + 1) // 8)
        self._code, self._result = program.scopes[0]
        self._slots = program.slots
        self._constants = {
            slot: value.numerator * (denominator // value.denominator)
            for slot, value in program.constants}
        self._plan = None
        self.count = 0
        if count:
            self._fit(count)

    def _fit(self, count: int) -> None:
        """Pack for ``count`` lanes."""
        self.count = count
        self.ones = ones = int.from_bytes(
            (b"\1" + bytes(self.width // 8 - 1)) * count, "little")
        self.full = self.denominator * ones
        self.guards = ones << self.width - 1
        self._bias = ((1 << self.width - 1) - 1 - self.denominator) * ones
        self._below = self.full + self.guards - ones

    def execute(self, code: list, registers: list, memo) -> None:
        """Execute one scope of code on packed ``registers``, in place:
        ``run``, lane by lane."""
        full, guards, bias, ones = self.full, self.guards, self._bias, \
            self.ones
        shift = self.width - 1
        for op, slot, a, b, c in code:
            if op == IMP:
                if c is not None:  # a sweep's read plan
                    for read, value in c[0]:
                        registers[read] = value * ones
                s = full + registers[b] - registers[a]
                over = (s + bias) & guards
                if over:  # clamp the lanes above D
                    s ^= (s ^ full) & ((over << 1) - (over >> shift))
                registers[slot] = s
                if c is not None:
                    for read in c[1]:
                        registers[read] = None
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
                    self.execute(body, registers, memo)
                    value = registers[result]
                    if not best:  # 0 in every lane: the max is value
                        best = value
                    else:
                        kept = (best + guards - value) & guards
                        if kept != guards:  # else best is the max
                            best = value ^ ((best ^ value) & (
                                (kept << 1) - (kept >> shift)))
                    if best == full:
                        break
                registers[a] = saved
                registers[slot] = best
                if c is not None:
                    memo[key] = best
            elif op == LOOK0:
                registers[slot] = registers[a]
            else:  # LOOKN
                table = registers[a]
                for r in b:
                    table = table[registers[r]]
                registers[slot] = table

    def registers(self, size: int) -> list:
        """Fresh registers of the program over a universe of ``size``
        elements, its constants packed the same in every lane."""
        registers = [None] * self._slots
        registers[_UNIVERSE] = range(size)
        for slot, value in self._constants.items():
            registers[slot] = value * self.ones
        return registers

    def passing(self, registers: list, sentence: bool) -> int:
        """The guard bits of the lanes where the program's root scope,
        run on ``registers`` with a fresh memo, passes: as a sentence,
        where its value is ``D``; as the closure of a type to omit, where
        it is below ``D``."""
        self.execute(self._code, registers, {})
        below = (self._below - registers[self._result]) & self.guards
        return below ^ self.guards if sentence else below

    def run(self, points: Sequence[Sequence[int]]) -> list:
        """The term's value at each point, in order; a point gives the
        term's inputs, one per input slot, as integers over
        ``denominator``."""
        count = len(points)
        if count != self.count:
            self._fit(count)
        if self._plan is None:
            self._plan = self._planned()
        code, root = self._plan
        registers = [None] * self._slots
        for slot in range(len(points[0])):
            registers[slot] = self.pack([point[slot] for point in points])
        self.execute(code, registers, None)
        return self.unpack(registers[self._result] if root is None
                           else root * self.ones)

    def pack(self, values: Sequence[int]) -> int:
        """One register holding ``values``, the first in the lowest
        lane."""
        size = self.width // 8
        return int.from_bytes(b"".join([v.to_bytes(size, "little")
                                        for v in values]), "little")

    def unpack(self, packed: int) -> list:
        """The values of a register's ``count`` lanes, in lane order."""
        size = self.width // 8
        out = packed.to_bytes(self.count * size, "little")
        return [int.from_bytes(out[i:i + size], "little")
                for i in range(0, len(out), size)]

    def _planned(self) -> tuple:
        """``(code, root)``: the root scope's straight-line code with
        each instruction's ``c`` its read plan, ``(loads, drops)``: the
        constants it packs before it runs, ``(slot, value)`` at their
        first read, and the registers it drops after, at their last
        read; and the root's value when the root is a constant, which has
        no code and is packed for the result only."""
        constants = dict(self._constants)
        # going backwards, a slot's first read is its last; the result
        # is never dropped
        seen, dead = {self._result}, []
        for _, _, a, b, _ in reversed(self._code):
            operands = dict.fromkeys((a, b))
            dead.append(tuple(r for r in operands if r not in seen))
            seen.update(operands)
        code = []
        for (op, slot, a, b, _), drops in zip(self._code, reversed(dead)):
            loads = tuple((r, constants.pop(r)) for r in dict.fromkeys((a, b))
                          if r in constants)
            code.append((op, slot, a, b, (loads, drops)))
        return code, constants.get(self._result)


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


class Evaluator:
    """Reusable evaluation engine for one structure.

    ``value`` evaluates one formula under one assignment; ``profiles``
    and ``first_failures`` scan tuples.  Each program passed to them is
    linked to the structure's lowered tables once and the link kept for
    the evaluator's lifetime; a formula passed instead is compiled and
    linked for that use only.
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

    def _linked(self, formula) -> tuple:
        """``(program, link)`` for a program, linked once and the link
        kept, or for a formula, compiled and linked for this use only."""
        if not isinstance(formula, Program):
            program = compile_formula(formula)
            return program, _link(program, self._table,
                                  self.structure.universe)
        link = self._links.get(formula)
        if link is None:
            link = self._links[formula] = _link(formula, self._table,
                                                self.structure.universe)
        return formula, link

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
            self._linked(formula)
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

    def _runner(self, formula, variables: tuple) -> tuple:
        """``(program, at, denominator)``: ``at(tup)`` assigns the
        elements of ``tup`` to ``variables``, runs the program there and
        returns its registers.  Every call of ``at`` shares one copy of
        the registers and one memo: a nested ``Exists`` is memoized by
        the positions of its free variables, whatever tuple it was met
        at.  Raises when a free variable of the program is not among
        ``variables``."""
        program, (code, _, registers, denominator) = self._linked(formula)
        for name in program.free:
            if name not in variables:
                raise EvaluationError(f"unassigned free variable {name!r}")
        assign = tuple(zip(program.free_slots,
                           map(variables.index, program.free)))
        registers, memo, index = registers[:], {}, self._index

        def at(tup):
            for slot, i in assign:
                position = index.get(tup[i])
                if position is None:
                    raise _outside(variables[i], tup[i])
                registers[slot] = position
            run(code, registers, denominator, memo)
            return registers
        return program, at, denominator

    def _universe_tuples(self, variables: tuple) -> Iterable:
        return itertools.product(self.structure.universe,
                                 repeat=len(variables))

    def profiles(self, program: Program, variables: Sequence[str],
                 tuples: Optional[Iterable] = None) -> tuple:
        """``(denominator, profiles)``: each distinct row of the values
        of the program's formulas at a tuple of elements assigned to
        ``variables``, in the order ``compile_formulas`` was given them,
        as integers over the denominator of the program's link to the
        structure, mapped to the tuples with that row, in order; by
        default every tuple of the universe of that length, in
        canonical order.

        One ``run`` per tuple computes the whole row, on one copy of the
        registers and one memo for the whole scan.  The scan is done
        before it returns, so its errors raise at the call; free
        variables are checked before any tuple is assigned, as in
        ``first_failures``."""
        variables = tuple(variables)
        program, at, denominator = self._runner(program, variables)
        results = program.results
        profiles = {}
        if tuples is None:
            tuples = self._universe_tuples(variables)
        for tup in tuples:
            registers = at(tup)
            profiles.setdefault(tuple([registers[slot] for slot in results]),
                                []).append(tup)
        return denominator, profiles

    def first_failures(self, formulas: Sequence, variables: Sequence[str],
                       tuples: Optional[Iterable] = None):
        """``(tuple, failure)`` for each tuple of elements assigned to
        ``variables``, in order (by default every tuple of the universe
        of that length, in canonical order): ``failure`` is None when
        every formula has value 1 there, and otherwise ``(program,
        value)`` for the first one, in order, whose value is below 1.

        The formulas are programs, or formulas compiled at their first
        run.  At each tuple the programs run in order, each on its own
        copy of the registers and its own memo for the whole scan, and
        the tuple stops at the first value below 1: a later program
        never runs there.  A program is linked, and its free variables
        checked against ``variables``, at its first run, before any
        element of the tuple is assigned: an unassigned variable raises
        there even when an earlier variable is sent outside the
        universe, which ``value``, checking each variable in turn,
        would report first.  Values are compared as integers, and each
        distinct value reported is made a ``Fraction`` once per scan."""
        variables = tuple(variables)
        runners = [None] * len(formulas)
        if tuples is None:
            tuples = self._universe_tuples(variables)
        for tup in tuples:
            for k, runner in enumerate(runners):
                if runner is None:
                    program, at, denominator = self._runner(formulas[k],
                                                            variables)
                    runner = runners[k] = (program, at, program.results[0],
                                           denominator,
                                           _Fractions(denominator))
                program, at, result, denominator, fractions = runner
                value = at(tup)[result]
                if value != denominator:
                    yield tup, (program, fractions[value])
                    break
            else:
                yield tup, None


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
    _fields = ("satisfied", "failing")

    def __init__(self, satisfied: bool, failing: tuple):
        # failing: (sentence, value) pairs with value < 1
        object.__setattr__(self, "satisfied", satisfied)
        object.__setattr__(self, "failing", failing)


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
    _fields = ("holds", "structure", "assignment", "formula", "value")

    def __init__(self, holds: bool, structure: object = None,
                 assignment: tuple = None, formula: Formula = None,
                 value: Fraction = None):
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "formula", formula)
        object.__setattr__(self, "value", value)

    def __bool__(self):
        return self.holds


def entails(family: Sequence, theory: Theory, gamma, sigma) -> EntailmentResult:
    """Finite-family semantic entailment between formula sets.

    True iff in every family member satisfying the theory, every tuple
    realizing ``gamma`` (all members exactly 1) also realizes ``sigma``.
    ``gamma`` and ``sigma`` carry ``variables`` and ``formulas`` and must
    share their variable tuple.  A false verdict returns the first
    counterexample in canonical order.

    Each model is two chained scans: the premises' scan passes on the
    tuples realizing ``gamma``, one at a time, and the conclusions run
    on those tuples only, so every formula runs where, and in the order,
    a tuple-by-tuple check would run it.
    """
    if tuple(gamma.variables) != tuple(sigma.variables):
        raise FormulaError(
            f"variable tuples differ: {gamma.variables} vs {sigma.variables}")
    return _entailment(models(family, theory), tuple(gamma.variables),
                       [compile_formula(f) for f in gamma.formulas],
                       [compile_formula(f) for f in sigma.formulas])


def _entailment(members: Iterable, names: tuple,
                premises: Sequence[Program],
                conclusions: Sequence[Program]) -> EntailmentResult:
    """``entails`` over compiled premises and conclusions in the
    variables ``names``, read from the ``(member, engine)`` pairs."""
    for member, engine in members:
        realizing = (tup for tup, failure
                     in engine.first_failures(premises, names)
                     if failure is None)
        for tup, failure in engine.first_failures(conclusions, names,
                                                  realizing):
            if failure is not None:
                program, value = failure
                return EntailmentResult(False, member, tup, program.source,
                                        value)
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
    _fields = ("passed", "failures")

    def __init__(self, passed: bool, failures: tuple):
        # failures: (formula, threshold) pairs
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failures", failures)


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
