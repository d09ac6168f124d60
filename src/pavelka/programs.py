"""Integer programs and the one machine outside the evaluator that runs
them.

``evaluator.compile_formulas`` compiles formulas, and ``connectives`` a
connective term (straight-line ``IMP`` code over its projections and
constants), to a ``Program``: one list of instructions over numbered
slots per quantifier scope, truth values integers over one denominator
``D``.  ``Lanes`` is the packed kernel: it executes the instruction set
over a block of lanes at once, each truth-valued register one int that
packs the block's values in fixed-width lanes, while element positions
stay scalars.  A grid sweep runs a term over a block of points, one per
lane, and the model search decides a check over a block of sibling
tables, one per lane; each costs a few whole-int operations per
instruction and block, not one interpreted instruction per instruction
and point or table.  A term at one point, and a search check on one
table, run at one lane.  The evaluator keeps a one-point loop of its
own (``evaluator.run``) for its scans.

This module imports only the standard library, so a process that
certifies connective terms loads no formula machinery.
"""

from __future__ import annotations

from math import lcm
from typing import Sequence

# An instruction is a tuple ``(op, slot, a, b, c)`` that writes ``slot``:
#   IMP     a, b: the slots of the antecedent and the consequent; c: None,
#           or in a sweep's code (``Lanes._planned``) its read plan;
#           writes min(D, D - a + b)
#   LOOK0-2 a: the slot of a table; b, c: the slots of its arguments;
#           the opcode is LOOK0 plus the number of arguments
#   LOOKN   a: the slot of a table; b: the slots of its arguments
#   EXISTS  a: the slot of the variable; b: the body, (code, result slot);
#           c: the slots of its free variables, which key its memo, or
#           None in the root scope, where it runs once; writes the
#           maximum of the body's result over the universe
# Slot 0 of a formula program holds the universe's positions.
IMP, LOOK0, LOOK1, LOOK2, LOOKN, EXISTS = range(6)
_UNIVERSE = 0


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


class Lanes:
    """A program run over a block of lanes at once: SIMD within a
    register (Fisher and Dietz, LCPC 1998) on Python's exact integers.

    A register that holds truth values is one int that packs the block's
    values, one per lane of ``width`` bits, the first lane lowest; a
    table holds such packed values.  A register that holds an element
    position, a variable or the universe, stays a scalar: it is the same
    in every lane, so a ``LOOK`` reads a table at scalar positions and
    gets a packed value.  ``execute`` is the packed kernel: it runs the
    instruction set on such registers and computes in each lane the
    program's value at that lane's point or table.  It has two callers:
      * ``run`` evaluates a connective term's straight-line ``IMP`` code
        over a block of grid points, one point per lane
        (``connectives.grid_max_error``), or at one point in one lane
        (``connectives.eval_term``);
      * ``passing`` decides a search check over a block of sibling
        tables, one table per lane, the tables of earlier levels packed
        the same in every lane, or on one table in one lane
        (``omitting._walk``).

    With ``Dp`` the packed ``D`` (``full``), ``G`` the packed guard bits
    ``2^(w-1)`` (``guards``) and ``1p`` the packed ones (``ones``):
      * an implication is ``s = Dp + B - A`` followed by a clamp of the
        lanes where ``s > D``;
      * an ``Exists`` keeps a lane-wise maximum over the universe, the
        guards of ``best + G - value`` marking where ``best >= value``,
        memoized by the positions of its free variables; it stops
        early only when every lane holds ``D``;
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
        sooner than it would alone, and a lane that would have stopped
        sooner alone reads more elements, which cannot move a maximum
        already at ``D``;
      * ``Dp - V`` has lanes ``D - v`` in ``[0, D]``, and adding
        ``G - 1p`` gives lanes in ``[2^(w-1) - 1, 2^(w-1) - 1 + D]``,
        below ``2^w``: the guard is set exactly when ``D - v >= 1``,
        that is ``v < D``.  The implication's ``2^(w-1) - 1 - D`` would
        set it at ``v >= D + 1`` instead: one too high for this test.
    So every lane computes exactly the program's value at its point, or
    for its table, and at one lane the kernel is a one-point
    interpreter.

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
        """Execute one scope of code on packed ``registers``, in place,
        lane by lane."""
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
